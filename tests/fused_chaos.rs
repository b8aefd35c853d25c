//! Chaos reachability under the block fast path.
//!
//! The functional engine's fast path fuses a basic block's per-op
//! bookkeeping (fetch check, retired and check counters, fuel countdown)
//! into one step per block. That must not optimize away a single
//! fault-injection site: the chaos seam's contract is that any installed
//! [`ChaosHook`](hfi_sim::ChaosHook) keeps every block off the fast path,
//! so every perturbable site (EA computations, result writebacks, guard
//! micro-ops, instruction boundaries) is visited exactly as on the per-op
//! reference path. "Fused" in the test names below means a block that
//! qualifies for the fast path. These tests prove the contract from the
//! outside:
//!
//! * the sandboxed workload really does fuse (its hot loop is one
//!   fast-path block holding implicit accesses, `hmov` accesses and ALU
//!   ops), so the sites below genuinely live *inside* fused blocks;
//! * site counts are identical whether the engine may take the fast
//!   path or is held per op by a period-1 fuel hook, and an observed run
//!   is bit-identical to an unobserved one;
//! * every functional-tier [`FaultClass`] still fires on a fast-path
//!   capable engine and never produces an escape;
//! * the deliberately-weakened build still produces a *visible* escape
//!   there — the oracle did not go blind.

use std::sync::Arc;

use hfi_chaos::{
    classify, ChaosEngine, ChaosPlan, FaultClass, Rig, ShadowMonitor, SiteCounter, WeakenedEngine,
};
use hfi_core::region::{ExplicitDataRegion, ImplicitCodeRegion, ImplicitDataRegion};
use hfi_core::{Region, SandboxConfig};
use hfi_sim::isa::MemOperand;
use hfi_sim::{
    plan_of, AluOp, Cond, Functional, FunctionalResult, HmovOperand, OpClass, Program,
    ProgramBuilder, Reg, Stop,
};
use hfi_verify::SandboxSpec;

const CODE_BASE: u64 = 0x40_0000;
const DATA_BASE: u64 = 0x10_0000;
const HEAP_BASE: u64 = 0x100_0000;

/// A sandboxed workload whose hot loop is one fast-path block:
/// back-to-back implicitly-checked stores/loads, back-to-back `hmov`
/// accesses, ALU traffic, and a compare+branch loop tail. The springboard
/// and sandbox setup sit in a block with HFI-state-mutating ops, which
/// always runs per op.
fn fused_workload() -> Arc<Program> {
    let mut asm = ProgramBuilder::new(CODE_BASE);
    let code = ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap();
    let data = ImplicitDataRegion::new(DATA_BASE, 0xFFFF, true, true).unwrap();
    let heap = ExplicitDataRegion::large(HEAP_BASE, 1 << 16, true, true).unwrap();
    // Springboard: marked zeroing ops feeding a declared entry contract,
    // so the workload has transition-corrupt sites.
    for r in [6u8, 7, 8] {
        asm.movi(Reg(r), 0);
        asm.mark_last_transition();
    }
    asm.set_contract(hfi_core::TransitionContract {
        zeroed: (1 << 6) | (1 << 7) | (1 << 8),
        stack: None,
    });
    asm.hfi_set_region(0, Region::Code(code));
    asm.hfi_set_region(2, Region::Data(data));
    asm.hfi_set_region(6, Region::Explicit(heap));
    asm.hfi_enter(SandboxConfig::hybrid());
    asm.movi(Reg(0), 0);
    asm.movi(Reg(1), 12);
    asm.movi(Reg(2), DATA_BASE as i64);
    let top = asm.label_here("top");
    // Four consecutive implicit accesses.
    asm.store(Reg(1), MemOperand::base_disp(Reg(2), 0x40), 8);
    asm.store(Reg(0), MemOperand::base_disp(Reg(2), 0x48), 8);
    asm.load(Reg(3), MemOperand::base_disp(Reg(2), 0x40), 8);
    asm.load(Reg(4), MemOperand::base_disp(Reg(2), 0x48), 8);
    asm.alu(AluOp::Add, Reg(0), Reg(0), Reg(3));
    // Three consecutive explicit accesses.
    asm.hmov_store(0, Reg(0), HmovOperand::disp(0x80), 8);
    asm.hmov_store(0, Reg(3), HmovOperand::disp(0x88), 8);
    asm.hmov_load(0, Reg(5), HmovOperand::disp(0x80), 8);
    asm.alu_ri(AluOp::Sub, Reg(1), Reg(1), 1);
    asm.branch_i(Cond::Ne, Reg(1), 0, top);
    asm.hfi_exit();
    asm.halt();
    Arc::new(asm.finish())
}

fn spec() -> SandboxSpec {
    SandboxSpec::new("fused-chaos")
        .window("data", DATA_BASE, 0x1_0000)
        .window("heap", HEAP_BASE, 1 << 16)
        .slot(
            0,
            Region::Code(ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap()),
        )
}

/// Runs the workload under `hook`. With `fast` the engine is free to
/// take the block fast path wherever its conditions hold; without it a
/// never-firing period-1 fuel hook holds every op on the per-op path.
fn run_tier(fast: bool, hook: Option<Box<dyn hfi_sim::ChaosHook>>) -> FunctionalResult {
    let mut functional = Functional::new(fused_workload());
    if !fast {
        functional.set_fuel(1, Box::new(|| true));
    }
    if let Some(hook) = hook {
        functional.set_chaos(hook);
    }
    functional.run(1_000_000)
}

/// The functional-tier fault classes: the two wrong-path classes only
/// have sites on the cycle machine's speculative front end.
const FUNCTIONAL_CLASSES: [FaultClass; 5] = [
    FaultClass::EaFlip,
    FaultClass::OperandFlip,
    FaultClass::GuardSkip,
    FaultClass::RegionCorrupt,
    FaultClass::TransitionCorrupt,
];

#[test]
fn workload_actually_fuses_its_injection_sites() {
    let program = fused_workload();
    let plan = plan_of(&program);
    let mut implicit = 0u32;
    let mut hmov = 0u32;
    let mut alu = 0u32;
    let mut hfi_blocks = 0u32;
    for block in plan.blocks() {
        let ops = &plan.ops()[block.start as usize..block.end as usize];
        let mutates_hfi = ops.iter().any(|op| {
            matches!(
                op.class,
                OpClass::HfiEnter | OpClass::HfiSetRegion | OpClass::HfiExit
            )
        });
        if mutates_hfi {
            hfi_blocks += 1;
            assert!(!block.fast, "a block mutating HFI state is marked fast");
            continue;
        }
        if !block.fast {
            continue;
        }
        for op in ops {
            match op.class {
                OpClass::Load | OpClass::Store => implicit += 1,
                OpClass::HmovLoad | OpClass::HmovStore => hmov += 1,
                OpClass::AluRR | OpClass::AluRI => alu += 1,
                _ => {}
            }
        }
    }
    assert!(implicit >= 4, "implicit accesses outside fast blocks");
    assert!(hmov >= 3, "hmov accesses outside fast blocks");
    assert!(alu >= 2, "ALU ops outside fast blocks");
    assert!(
        hfi_blocks > 0,
        "springboard + enter did not land in an HFI-mutating block"
    );
    // The code region granted by the sandbox covers every fused block,
    // so an unobserved run is free to take the fast path through them.
    assert_eq!(run_tier(true, None).stop, Stop::Halted);
}

#[test]
fn every_injection_site_survives_fusion() {
    let count_sites = |fast: bool| {
        let counter = SiteCounter::new();
        let monitor = ShadowMonitor::from_spec(&spec());
        let result = run_tier(
            fast,
            Some(Box::new(Rig::new(counter.clone(), monitor.clone()))),
        );
        assert_eq!(result.stop, Stop::Halted);
        assert!(monitor.report().clean());
        (counter.counts(), result)
    };
    let (per_op, _) = count_sites(false);
    let (fast, observed) = count_sites(true);
    assert_eq!(
        per_op, fast,
        "the fast path changed the set of reachable injection sites"
    );
    assert!(per_op.ea > 0, "no EA sites in the workload");
    assert!(per_op.result > 0, "no writeback sites in the workload");
    assert!(per_op.guard > 0, "no guard sites in the workload");
    assert!(per_op.context > 0, "no boundary sites in the workload");
    assert!(per_op.transition > 0, "no transition sites in the workload");
    // Observing every site leaves the run bit-identical to the
    // unobserved one, which runs its fused blocks on the fast path.
    let plain = run_tier(true, None);
    assert_eq!(plain, observed, "observation changed the run");
    assert_eq!(plain.cycles.to_bits(), observed.cycles.to_bits());
}

#[test]
fn every_functional_fault_class_still_fires_and_never_escapes_when_fused() {
    // Site counts per class, measured once on the fast-path capable engine.
    let counter = SiteCounter::new();
    run_tier(
        true,
        Some(Box::new(Rig::new(
            counter.clone(),
            ShadowMonitor::from_spec(&spec()),
        ))),
    );
    let counts = counter.counts();
    for class in FUNCTIONAL_CLASSES {
        let sites = counts.for_class(class);
        assert!(sites > 0, "{class}: no sites");
        // Spread triggers across the whole run, capped for test runtime.
        let step = (sites / 12).max(1);
        let mut fired = 0u64;
        for trigger in (0..sites).step_by(step as usize) {
            let engine = ChaosEngine::new(ChaosPlan {
                seed: 0xF05E ^ trigger,
                class,
                trigger,
            });
            let monitor = ShadowMonitor::from_spec(&spec());
            run_tier(
                true,
                Some(Box::new(Rig::new(engine.clone(), monitor.clone()))),
            );
            if engine.fired().is_some() {
                fired += 1;
            }
            let verdict = classify(&monitor.report(), false);
            assert!(
                !verdict.is_escape(),
                "{class} trigger {trigger}: ESCAPE on the fast-path engine after {:?}",
                engine.fired()
            );
        }
        assert!(
            fired > 0,
            "{class}: no injection ever fired on fused blocks"
        );
    }
}

#[test]
fn injected_verdicts_are_identical_across_tiers() {
    let counter = SiteCounter::new();
    run_tier(
        false,
        Some(Box::new(Rig::new(
            counter.clone(),
            ShadowMonitor::from_spec(&spec()),
        ))),
    );
    let counts = counter.counts();
    for class in FUNCTIONAL_CLASSES {
        let sites = counts.for_class(class);
        let step = (sites / 6).max(1);
        for trigger in (0..sites).step_by(step as usize) {
            let verdict_of = |fast: bool| {
                let engine = ChaosEngine::new(ChaosPlan {
                    seed: 0xD1FF ^ trigger,
                    class,
                    trigger,
                });
                let monitor = ShadowMonitor::from_spec(&spec());
                run_tier(fast, Some(Box::new(Rig::new(engine, monitor.clone()))));
                classify(&monitor.report(), false)
            };
            assert_eq!(
                verdict_of(false),
                verdict_of(true),
                "{class} trigger {trigger}: per-op and fast-path engines disagree on the verdict"
            );
        }
    }
}

#[test]
fn weakened_build_still_escapes_on_the_fused_tier() {
    let counter = SiteCounter::new();
    run_tier(
        true,
        Some(Box::new(Rig::new(
            counter.clone(),
            ShadowMonitor::from_spec(&spec()),
        ))),
    );
    let sites = counter.counts().ea;
    let mut escaped = false;
    'search: for seed in 0..64u64 {
        for trigger in 0..sites {
            let engine = ChaosEngine::new(ChaosPlan {
                seed,
                class: FaultClass::EaFlip,
                trigger,
            });
            let weakened = WeakenedEngine::new(engine);
            let monitor = ShadowMonitor::from_spec(&spec());
            run_tier(true, Some(Box::new(Rig::new(weakened, monitor.clone()))));
            if classify(&monitor.report(), false).is_escape() {
                escaped = true;
                break 'search;
            }
        }
    }
    assert!(
        escaped,
        "the oracle never reported an escape on the weakened fast-path engine"
    );
}
