//! Differential testing for the pre-decode layer: a [`DecodedProgram`]
//! must agree, static fact by static fact, with a fresh per-[`Inst`]
//! derivation; the functional engine's block fast path must agree bit
//! for bit with its per-op reference path; and a plan-driven run must
//! remain architecturally identical between the functional interpreter
//! and the cycle machine.
//!
//! The plan (`hfi_sim::plan`) is a pure lowering: every field of a
//! [`MicroOp`] is derivable from one instruction's encoding alone. These
//! tests re-derive each fact independently (encoded length, memory and
//! control classification, serialization class, operand slots, branch
//! targets) on random programs and compare, then check the basic-block
//! table's structural invariants, then run random and hand-built
//! programs on every functional path and on both executors. Cases come from the vendored deterministic PRNG, so
//! every failure reproduces exactly.

use std::sync::Arc;

use hfi_repro::hfi_core::region::{ExplicitDataRegion, ImplicitCodeRegion};
use hfi_repro::hfi_core::{HfiFault, Region, SandboxConfig};
use hfi_repro::hfi_sim::plan::{NO_REG, NO_TARGET};
use hfi_repro::hfi_sim::{
    plan_of, AluOp, ChaosHook, Cond, Functional, FunctionalResult, HmovOperand, Inst, Machine,
    MemOperand, MicroOp, Program, Reg, SerializeClass, Stop,
};
use hfi_repro::hfi_util::Rng;

const ALUS: [AluOp; 6] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Xor,
    AluOp::And,
    AluOp::Or,
];
const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::LtU, Cond::GeU];

fn reg(rng: &mut Rng) -> Reg {
    Reg(rng.below(16) as u8)
}

fn mem_operand(rng: &mut Rng) -> MemOperand {
    MemOperand {
        base: rng.bool().then(|| reg(rng)),
        index: rng.bool().then(|| reg(rng)),
        scale: *rng.pick(&[1u8, 2, 4, 8]),
        disp: rng.range_i64(-4096, 4096),
    }
}

fn hmov_operand(rng: &mut Rng) -> HmovOperand {
    if rng.bool() {
        HmovOperand::disp(rng.range_i64(0, 4096))
    } else {
        HmovOperand::indexed(reg(rng), *rng.pick(&[1u8, 2, 4, 8]), rng.range_i64(0, 4096))
    }
}

/// One random instruction of any shape; control targets land in `0..n`.
fn random_inst(rng: &mut Rng, n: usize) -> Inst {
    let target = rng.below(n as u64) as usize;
    let size = *rng.pick(&[1u8, 2, 4, 8]);
    match rng.below(22) {
        0 => Inst::AluRR {
            op: *rng.pick(&ALUS),
            dst: reg(rng),
            a: reg(rng),
            b: reg(rng),
        },
        1 => Inst::AluRI {
            op: *rng.pick(&ALUS),
            dst: reg(rng),
            a: reg(rng),
            // Spans both the short and long immediate encodings.
            imm: if rng.bool() {
                rng.range_i64(-4096, 4096)
            } else {
                rng.range_i64(i64::MIN / 2, i64::MAX / 2)
            },
        },
        2 => Inst::MovI {
            dst: reg(rng),
            imm: rng.range_i64(-1 << 40, 1 << 40),
        },
        3 => Inst::Mov {
            dst: reg(rng),
            src: reg(rng),
        },
        4 => Inst::Rdtsc { dst: reg(rng) },
        5 => Inst::Load {
            dst: reg(rng),
            mem: mem_operand(rng),
            size,
        },
        6 => Inst::Store {
            src: reg(rng),
            mem: mem_operand(rng),
            size,
        },
        7 => Inst::HmovLoad {
            region: rng.below(8) as u8,
            dst: reg(rng),
            mem: hmov_operand(rng),
            size,
        },
        8 => Inst::HmovStore {
            region: rng.below(8) as u8,
            src: reg(rng),
            mem: hmov_operand(rng),
            size,
        },
        9 => Inst::Flush {
            mem: mem_operand(rng),
        },
        10 => Inst::Branch {
            cond: *rng.pick(&CONDS),
            a: reg(rng),
            b: reg(rng),
            target,
        },
        11 => Inst::BranchI {
            cond: *rng.pick(&CONDS),
            a: reg(rng),
            imm: rng.range_i64(-256, 256),
            target,
        },
        12 => Inst::Jump { target },
        13 => Inst::JumpInd { reg: reg(rng) },
        14 => Inst::Call { target },
        15 => Inst::Ret,
        16 => Inst::Syscall,
        17 => Inst::Cpuid,
        18 => Inst::Fence,
        19 => {
            let config = if rng.bool() {
                SandboxConfig::hybrid().serialized()
            } else {
                SandboxConfig::hybrid()
            };
            Inst::HfiEnter { config }
        }
        20 => match rng.below(4) {
            0 => Inst::HfiExit,
            1 => Inst::HfiReenter,
            2 => Inst::HfiClearRegion {
                slot: rng.below(8) as u8,
            },
            _ => Inst::HfiClearAllRegions,
        },
        _ => {
            if rng.bool() {
                let heap = ExplicitDataRegion::large(0x10_0000, 0x1_0000, true, true)
                    .expect("aligned region");
                Inst::HfiSetRegion {
                    slot: rng.below(8) as u8,
                    region: Region::Explicit(heap),
                }
            } else {
                Inst::Nop
            }
        }
    }
}

fn random_program(rng: &mut Rng) -> Arc<Program> {
    let n = rng.range_u64(8, 96) as usize;
    let insts: Vec<Inst> = (0..n).map(|_| random_inst(rng, n)).collect();
    Arc::new(Program::new(insts, rng.below(16) * 0x1000))
}

/// Independent re-derivation of the static serialization class (the
/// decode rules of paper §3.4/§4.3/§4.5), deliberately *not* shared with
/// the plan's `lower()`.
fn expected_serialize(inst: &Inst) -> SerializeClass {
    match inst {
        Inst::Cpuid | Inst::Fence | Inst::Syscall => SerializeClass::Always,
        Inst::HfiEnter { config } | Inst::HfiEnterChild { config, .. } => {
            if config.serialize {
                SerializeClass::Always
            } else {
                SerializeClass::No
            }
        }
        Inst::HfiExit => SerializeClass::ExitDynamic,
        Inst::HfiSetRegion { .. } | Inst::HfiClearRegion { .. } | Inst::HfiClearAllRegions => {
            SerializeClass::IfEnabled
        }
        _ => SerializeClass::No,
    }
}

#[test]
fn predecode_static_facts_match_fresh_derivation() {
    let mut rng = Rng::new(0x9DEC0DE);
    for case in 0..64 {
        let program = random_program(&mut rng);
        let plan = plan_of(&program);
        assert_eq!(plan.len(), program.len(), "case {case}");
        for i in 0..program.len() {
            let inst = program.inst(i);
            let uop = plan.op(i);
            let at = format!("case {case}, inst {i} ({inst:?})");
            assert_eq!(uop.len as u64, inst.encoded_len(), "{at}: encoded length");
            assert_eq!(plan.pc(i), program.pc_of(i), "{at}: byte PC");
            assert_eq!(uop.has(MicroOp::GATE_MEM), inst.is_mem(), "{at}: mem class");
            assert_eq!(
                uop.has(MicroOp::CONTROL),
                inst.is_control(),
                "{at}: control class"
            );
            assert_eq!(uop.serialize, expected_serialize(inst), "{at}: serialize");
            assert_eq!(
                uop.has(MicroOp::IS_LOAD),
                matches!(inst, Inst::Load { .. } | Inst::HmovLoad { .. }),
                "{at}: load flag"
            );
            assert_eq!(
                uop.has(MicroOp::IS_STORE),
                matches!(inst, Inst::Store { .. } | Inst::HmovStore { .. }),
                "{at}: store flag"
            );
            match inst {
                Inst::Branch { target, .. }
                | Inst::BranchI { target, .. }
                | Inst::Jump { target }
                | Inst::Call { target } => {
                    assert_eq!(uop.target, *target as u32, "{at}: static target");
                }
                _ => assert_eq!(uop.target, NO_TARGET, "{at}: no static target"),
            }
            match inst {
                // hmov has no architectural base register: slot 0 must be
                // free (the region base replaces it).
                Inst::HmovLoad { region, mem, .. } | Inst::HmovStore { region, mem, .. } => {
                    assert_eq!(uop.srcs[0], NO_REG, "{at}: hmov uses no base slot");
                    assert_eq!(uop.region, *region, "{at}: region index");
                    assert_eq!(uop.imm, mem.disp, "{at}: displacement");
                }
                Inst::Load { mem, .. } | Inst::Store { mem, .. } => {
                    assert_eq!(
                        uop.srcs[0],
                        mem.base.map_or(NO_REG, |r| r.0),
                        "{at}: base slot"
                    );
                    assert_eq!(
                        uop.srcs[1],
                        mem.index.map_or(NO_REG, |r| r.0),
                        "{at}: index slot"
                    );
                    assert_eq!(uop.imm, mem.disp, "{at}: displacement");
                }
                _ => {}
            }
        }
    }
}

#[test]
fn block_table_invariants_hold_on_random_programs() {
    let mut rng = Rng::new(0xB10C);
    for case in 0..64 {
        let program = random_program(&mut rng);
        let plan = plan_of(&program);
        let blocks = plan.blocks();
        let n = plan.len() as u32;

        // Blocks tile the program exactly.
        assert_eq!(blocks.first().map(|b| b.start), Some(0), "case {case}");
        assert_eq!(blocks.last().map(|b| b.end), Some(n), "case {case}");
        for pair in blocks.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "case {case}: tiling");
        }

        for (bi, block) in blocks.iter().enumerate() {
            assert!(block.start < block.end, "case {case}: empty block {bi}");
            // Control flow only at the terminator slot.
            for i in block.start..block.end - 1 {
                assert!(
                    !plan.op(i as usize).has(MicroOp::CONTROL),
                    "case {case}: control mid-block at {i}"
                );
            }
            // Every instruction maps back to its containing block.
            for i in block.start..block.end {
                assert_eq!(plan.block_of(i as usize), bi, "case {case}: block_of({i})");
            }
            // Edges match the terminator's shape.
            let term = plan.op(block.end as usize - 1);
            let fall_next = if block.end < n { block.end } else { NO_TARGET };
            match (term.has(MicroOp::CONTROL), term.class) {
                (true, hfi_repro::hfi_sim::OpClass::Jump) => {
                    assert_eq!(block.fall_through, NO_TARGET, "case {case}");
                    assert_eq!(block.taken, term.target, "case {case}");
                }
                (
                    true,
                    hfi_repro::hfi_sim::OpClass::Branch
                    | hfi_repro::hfi_sim::OpClass::BranchI
                    | hfi_repro::hfi_sim::OpClass::Call,
                ) => {
                    assert_eq!(block.fall_through, fall_next, "case {case}");
                    assert_eq!(block.taken, term.target, "case {case}");
                }
                (true, _) => {
                    // Indirect flow and returns: no static successors.
                    assert_eq!(block.fall_through, NO_TARGET, "case {case}");
                    assert_eq!(block.taken, NO_TARGET, "case {case}");
                }
                (false, _) => {
                    assert_eq!(block.fall_through, fall_next, "case {case}");
                    assert_eq!(block.taken, NO_TARGET, "case {case}");
                }
            }
            // Every in-range taken edge lands on a block leader.
            if block.taken != NO_TARGET && block.taken < n {
                assert_eq!(
                    blocks[plan.block_of(block.taken as usize)].start,
                    block.taken,
                    "case {case}: taken edge must be a leader"
                );
            }
        }
    }
}

/// A random *runnable* program: registers seeded with constants, ALU
/// traffic, loads/stores through a fixed in-bounds window, and
/// forward-only branches so termination is structural.
fn random_runnable(rng: &mut Rng) -> Arc<Program> {
    const BASE_REG: Reg = Reg(8);
    const HEAP: i64 = 0x2_0000;
    let body = rng.range_u64(16, 64) as usize;
    let mut insts: Vec<Inst> = Vec::new();
    for r in 0..8u8 {
        insts.push(Inst::MovI {
            dst: Reg(r),
            imm: rng.range_i64(-1 << 32, 1 << 32),
        });
    }
    insts.push(Inst::MovI {
        dst: BASE_REG,
        imm: HEAP,
    });
    let first = insts.len();
    let halt = first + body;
    for i in first..halt {
        // Forward-only targets: anywhere strictly past this instruction,
        // up to and including the final halt.
        let target = rng.range_u64(i as u64 + 1, halt as u64 + 1) as usize;
        let mem = MemOperand {
            base: Some(BASE_REG),
            index: None,
            scale: 1,
            disp: rng.below(512) as i64 * 8,
        };
        let inst = match rng.below(10) {
            0 | 1 => Inst::AluRR {
                op: *rng.pick(&ALUS),
                dst: Reg(rng.below(8) as u8),
                a: Reg(rng.below(8) as u8),
                b: Reg(rng.below(8) as u8),
            },
            2 | 3 => Inst::AluRI {
                op: *rng.pick(&ALUS),
                dst: Reg(rng.below(8) as u8),
                a: Reg(rng.below(8) as u8),
                imm: rng.range_i64(-256, 256),
            },
            4 => Inst::Mov {
                dst: Reg(rng.below(8) as u8),
                src: Reg(rng.below(8) as u8),
            },
            5 => Inst::Load {
                dst: Reg(rng.below(8) as u8),
                mem,
                size: 8,
            },
            6 => Inst::Store {
                src: Reg(rng.below(8) as u8),
                mem,
                size: 8,
            },
            7 => Inst::Branch {
                cond: *rng.pick(&CONDS),
                a: Reg(rng.below(8) as u8),
                b: Reg(rng.below(8) as u8),
                target,
            },
            8 => Inst::BranchI {
                cond: *rng.pick(&CONDS),
                a: Reg(rng.below(8) as u8),
                imm: rng.range_i64(-4, 4),
                target,
            },
            _ => Inst::Jump { target },
        };
        insts.push(inst);
    }
    insts.push(Inst::Halt);
    Arc::new(Program::new(insts, 0x1000))
}

/// A random *guarded* runnable program: an HFI prologue installs a code
/// region, an implicit data region over the heap window, and an explicit
/// hmov region, then enters a hybrid sandbox; the body mixes checked
/// implicit accesses, checked `hmov` accesses (some deliberately
/// out-of-bounds through huge index registers), region clears, sandbox
/// exit/reenter, and forward-only branches. Faults are part of the
/// contract: a program that traps must trap identically on both tiers.
fn random_guarded_runnable(rng: &mut Rng) -> Arc<Program> {
    use hfi_repro::hfi_core::region::{ImplicitCodeRegion, ImplicitDataRegion};
    const BASE_REG: Reg = Reg(8);
    const CODE_BASE: i64 = 0x40_0000;
    const HEAP: i64 = 0x2_0000;
    let code = Region::Code(ImplicitCodeRegion::new(CODE_BASE as u64, 0xFFFF, true).expect("code"));
    let data =
        Region::Data(ImplicitDataRegion::new(HEAP as u64, 0xFFFF, true, true).expect("data"));
    let heap =
        Region::Explicit(ExplicitDataRegion::large(0x10_0000, 0x1_0000, true, true).expect("hmov"));

    let body = rng.range_u64(16, 64) as usize;
    let mut insts: Vec<Inst> = Vec::new();
    for r in 0..8u8 {
        insts.push(Inst::MovI {
            dst: Reg(r),
            imm: rng.range_i64(-1 << 32, 1 << 32),
        });
    }
    insts.push(Inst::MovI {
        dst: BASE_REG,
        imm: HEAP,
    });
    insts.push(Inst::HfiSetRegion {
        slot: 0,
        region: code,
    });
    insts.push(Inst::HfiSetRegion {
        slot: 2,
        region: data,
    });
    insts.push(Inst::HfiSetRegion {
        slot: 6,
        region: heap,
    });
    insts.push(Inst::HfiEnter {
        config: if rng.bool() {
            SandboxConfig::hybrid().serialized()
        } else {
            SandboxConfig::hybrid()
        },
    });
    let first = insts.len();
    let halt = first + body;
    for i in first..halt {
        let target = rng.range_u64(i as u64 + 1, halt as u64 + 1) as usize;
        let mem = MemOperand {
            base: Some(BASE_REG),
            index: None,
            scale: 1,
            // Mostly in the data region; occasionally far out, so the
            // implicit guard's fault path is exercised too.
            disp: if rng.below(8) == 0 {
                0x50_0000
            } else {
                rng.below(512) as i64 * 8
            },
        };
        let hmov = if rng.below(4) == 0 {
            // A huge index register makes the §4.2 bounds check trap.
            HmovOperand::indexed(Reg(rng.below(8) as u8), 8, rng.below(256) as i64 * 8)
        } else {
            HmovOperand::disp(rng.below(512) as i64 * 8)
        };
        let inst = match rng.below(16) {
            0 | 1 => Inst::AluRR {
                op: *rng.pick(&ALUS),
                dst: Reg(rng.below(8) as u8),
                a: Reg(rng.below(8) as u8),
                b: Reg(rng.below(8) as u8),
            },
            2 | 3 => Inst::AluRI {
                op: *rng.pick(&ALUS),
                dst: Reg(rng.below(8) as u8),
                a: Reg(rng.below(8) as u8),
                imm: rng.range_i64(-256, 256),
            },
            4 | 5 => Inst::Load {
                dst: Reg(rng.below(8) as u8),
                mem,
                size: 8,
            },
            6 | 7 => Inst::Store {
                src: Reg(rng.below(8) as u8),
                mem,
                size: 8,
            },
            8 => Inst::HmovLoad {
                region: 6,
                dst: Reg(rng.below(8) as u8),
                mem: hmov,
                size: 8,
            },
            9 => Inst::HmovStore {
                region: 6,
                src: Reg(rng.below(8) as u8),
                mem: hmov,
                size: 8,
            },
            10 => Inst::Branch {
                cond: *rng.pick(&CONDS),
                a: Reg(rng.below(8) as u8),
                b: Reg(rng.below(8) as u8),
                target,
            },
            11 => Inst::BranchI {
                cond: *rng.pick(&CONDS),
                a: Reg(rng.below(8) as u8),
                imm: rng.range_i64(-4, 4),
                target,
            },
            12 => Inst::Jump { target },
            13 => match rng.below(4) {
                0 => Inst::HfiExit,
                1 => Inst::HfiReenter,
                2 => Inst::HfiClearRegion { slot: 6 },
                _ => Inst::HfiClearAllRegions,
            },
            _ => Inst::Nop,
        };
        insts.push(inst);
    }
    insts.push(Inst::Halt);
    Arc::new(Program::new(insts, CODE_BASE as u64))
}

/// One way to drive the functional engine over the same program. The
/// block fast path is chosen from engine state alone, so each mode
/// steers it differently: `Plain` takes it wherever a block fits, a
/// never-firing fuel hook with period 1 forces every op through the
/// per-op reference path, period 3 mixes the two (a block runs whole
/// only when the countdown covers it), and a pass-through chaos hook
/// forces the reference path with chaos observation on.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Plain,
    Fuel(u64),
    PassThroughChaos,
}

const MODES: [Mode; 4] = [
    Mode::Plain,
    Mode::Fuel(1),
    Mode::Fuel(3),
    Mode::PassThroughChaos,
];

/// A chaos hook that perturbs nothing.
struct PassThrough;
impl ChaosHook for PassThrough {}

/// Runs `program` under `mode` with a deterministic setup and returns
/// the full result plus the final contents of every memory window the
/// program can touch.
fn run_mode(
    program: &Arc<Program>,
    mode: Mode,
    limit: u64,
    handler: Option<u64>,
) -> (FunctionalResult, Vec<u8>) {
    let mut functional = Functional::new(Arc::clone(program));
    functional.signal_handler = handler;
    match mode {
        Mode::Plain => {}
        Mode::Fuel(period) => functional.set_fuel(period, Box::new(|| true)),
        Mode::PassThroughChaos => functional.set_chaos(Box::new(PassThrough)),
    }
    let result = functional.run(limit);
    let mut image = functional.mem.read_bytes(0x2_0000, 0x1_0000);
    image.extend(functional.mem.read_bytes(0x10_0000, 0x1_0000));
    (result, image)
}

/// Runs `program` in every [`Mode`] and requires identical results:
/// registers, counters, stop reason, memory, and modelled cycles down to
/// the f64 bits. Returns the plain run's result.
fn assert_modes_agree(
    program: &Arc<Program>,
    limit: u64,
    handler: Option<u64>,
    label: &str,
) -> FunctionalResult {
    let (reference, reference_mem) = run_mode(program, Mode::Plain, limit, handler);
    for mode in &MODES[1..] {
        let (result, mem) = run_mode(program, *mode, limit, handler);
        assert_eq!(reference, result, "{label} {mode:?}: results diverged");
        assert_eq!(
            reference.cycles.to_bits(),
            result.cycles.to_bits(),
            "{label} {mode:?}: cycle bits diverged"
        );
        assert!(reference_mem == mem, "{label} {mode:?}: memory diverged");
    }
    reference
}

#[test]
fn fast_path_agrees_with_reference_on_random_runnable_programs() {
    let mut rng = Rng::new(0xF05ED);
    for case in 0..48 {
        let program = random_runnable(&mut rng);
        // Small budgets stop runs mid-block.
        let limit = if case % 4 == 0 {
            rng.range_u64(1, 40)
        } else {
            50_000_000
        };
        assert_modes_agree(&program, limit, None, &format!("case {case}"));
    }
}

#[test]
fn fast_path_agrees_with_reference_on_random_guarded_programs() {
    let mut rng = Rng::new(0x6A4DED);
    let mut faulted = 0u32;
    let mut halted = 0u32;
    for case in 0..96 {
        let program = random_guarded_runnable(&mut rng);
        let result = assert_modes_agree(&program, 200_000, None, &format!("case {case}"));
        match result.stop {
            Stop::Fault(_) => faulted += 1,
            Stop::Halted => halted += 1,
            _ => {}
        }
    }
    // The corpus must actually exercise both the sandboxed fast path and
    // the fault paths, or the differential above proves nothing.
    assert!(halted > 0, "no guarded program ran to completion");
    assert!(faulted > 0, "no guarded program faulted");
}

/// With a signal handler installed, a fault re-enters the program at the
/// handler's instruction index — rarely a block leader, so the engine
/// resumes per-op until the next one. Every mode must agree on
/// everything that follows.
#[test]
fn fast_path_agrees_with_reference_under_fault_handler_redirects() {
    let mut rng = Rng::new(0x51663);
    let mut redirected = 0u32;
    for case in 0..48 {
        let program = random_guarded_runnable(&mut rng);
        let handler_idx = rng.below(program.len() as u64) as usize;
        let handler = Some(program.pc_of(handler_idx));
        let result = assert_modes_agree(&program, 100_000, handler, &format!("case {case}"));
        if result.stats.faults > 0 {
            redirected += 1;
        }
    }
    assert!(redirected > 0, "no run ever took the handler redirect");
}

/// Every verifyset kernel, under every Fig. 3 isolation scheme, retires
/// an identical record on the fast path and on the per-op reference
/// path (forced by a pass-through chaos hook): same exit state, same
/// counters, same modelled cycles.
#[test]
fn fast_path_agrees_with_reference_on_every_verifyset_kernel() {
    use hfi_repro::hfi_bench::{compile_cached, run_cell, run_functional_record, FIG3_SCHEMES};
    use hfi_repro::hfi_wasm::compiler::CompileOptions;
    use hfi_repro::hfi_wasm::kernels::{sightglass, speclike};

    let mut kernels = sightglass::suite(1);
    kernels.extend(speclike::suite(1));
    for kernel in &kernels {
        for iso in FIG3_SCHEMES {
            let fast = run_functional_record(kernel, iso);
            let opts = CompileOptions::new(iso);
            let compiled = compile_cached(kernel, &opts);
            let mut functional = Functional::new(compiled.program.clone());
            functional.set_chaos(Box::new(PassThrough));
            let mut reference = run_cell(&mut functional, kernel, opts.heap_base);
            reference.verified = fast.verified;
            reference.proof_digest = fast.proof_digest;
            assert_eq!(
                fast, reference,
                "{} under {iso:?}: records diverged",
                kernel.name
            );
            assert_eq!(fast.cycles.to_bits(), reference.cycles.to_bits());
        }
    }
}

/// A fuel hook that fires must cancel at the same instruction whether
/// blocks run whole or op by op: the fast path only takes a block when
/// the countdown covers it, so every poll lands where the reference
/// loop's would.
#[test]
fn firing_fuel_hook_cancels_at_the_same_instruction_on_every_path() {
    let mut rng = Rng::new(0xF0E1);
    let mut cancelled = 0u32;
    for case in 0..48 {
        let program = random_guarded_runnable(&mut rng);
        let period = rng.range_u64(2, 24);
        let fire_at = rng.range_u64(1, 4);
        let run = |chaos: bool| {
            let mut functional = Functional::new(Arc::clone(&program));
            let mut polls = 0u64;
            functional.set_fuel(
                period,
                Box::new(move || {
                    polls += 1;
                    polls < fire_at
                }),
            );
            if chaos {
                functional.set_chaos(Box::new(PassThrough));
            }
            functional.run(200_000)
        };
        let (fast, reference) = (run(false), run(true));
        assert_eq!(
            fast, reference,
            "case {case}: period {period}, fire at poll {fire_at}"
        );
        if fast.stop == Stop::CycleLimit {
            cancelled += 1;
            assert_eq!(fast.stats.retired, period * fire_at - 1, "case {case}");
        }
    }
    assert!(cancelled > 0, "no run was cancelled by its fuel hook");
}

const CODE_BASE: u64 = 0x40_0000;

fn code_region(base: u64, mask: u64, exec: bool) -> Region {
    Region::Code(ImplicitCodeRegion::new(base, mask, exec).expect("code region"))
}

/// `prologue` (run outside the sandbox), then `hfi_enter` and a jump
/// that starts a fresh block, then `body` and `halt`. Body branch
/// targets are relative to the body's first instruction.
fn sandboxed(prologue: Vec<Inst>, body: Vec<Inst>) -> Arc<Program> {
    let mut insts = prologue;
    insts.push(Inst::HfiEnter {
        config: SandboxConfig::hybrid(),
    });
    let start = insts.len() + 1;
    insts.push(Inst::Jump { target: start });
    for inst in body {
        insts.push(match inst {
            Inst::Jump { target } => Inst::Jump {
                target: target + start,
            },
            other => other,
        });
    }
    insts.push(Inst::Halt);
    Arc::new(Program::new(insts, CODE_BASE))
}

fn adds(n: usize) -> Vec<Inst> {
    (0..n)
        .map(|i| Inst::AluRI {
            op: AluOp::Add,
            dst: Reg((i % 4) as u8),
            a: Reg((i % 4) as u8),
            imm: i as i64,
        })
        .collect()
}

#[test]
fn block_straddling_a_code_region_edge_faults_at_the_exact_op() {
    let region_last = CODE_BASE + 0xFF;
    let program = sandboxed(
        vec![Inst::HfiSetRegion {
            slot: 0,
            region: code_region(CODE_BASE, 0xFF, true),
        }],
        adds(96),
    );
    let plan = plan_of(&program);
    let straddler = (0..program.len())
        .find(|&i| plan.pc(i) + plan.op(i).len as u64 - 1 > region_last)
        .expect("the body crosses the region edge");
    let block = plan.blocks()[plan.block_of(straddler)];
    assert!(
        block.fast && (block.start as usize) < straddler,
        "one fast block crosses the edge"
    );
    let result = assert_modes_agree(&program, 10_000, None, "straddle");
    assert_eq!(
        result.stop,
        Stop::Fault(HfiFault::CodeBounds {
            pc: plan.pc(straddler)
        })
    );
    // Everything before the straddling op retired; the op itself did not.
    assert_eq!(result.stats.retired, straddler as u64);
}

#[test]
fn earlier_code_slot_covering_the_middle_of_a_block_is_honoured() {
    // Slot 1 grants the whole program; slot 0 covers a 64-byte window in
    // the middle of the body's one block. First match wins per fetch.
    let window = CODE_BASE + 0x40;
    for exec in [true, false] {
        let program = sandboxed(
            vec![
                Inst::HfiSetRegion {
                    slot: 0,
                    region: code_region(window, 0x3F, exec),
                },
                Inst::HfiSetRegion {
                    slot: 1,
                    region: code_region(CODE_BASE, 0xFFFF, true),
                },
            ],
            adds(48),
        );
        let plan = plan_of(&program);
        let block = plan.blocks()[plan.block_of(program.len() - 1)];
        assert!(block.fast && plan.pc(block.start as usize) < window);
        let result = assert_modes_agree(&program, 10_000, None, &format!("exec={exec}"));
        // The first fetch that matches slot 0 faults without execute;
        // with execute, only a fetch running past the window's end does.
        let window_last = window + 0x3F;
        let faulting = (0..program.len()).find(|&i| {
            let (pc, last) = (plan.pc(i), plan.pc(i) + plan.op(i).len as u64 - 1);
            (window..=window_last).contains(&pc) && (!exec || last > window_last)
        });
        let expected = match faulting {
            Some(i) => Stop::Fault(HfiFault::CodeBounds { pc: plan.pc(i) }),
            None => Stop::Halted,
        };
        assert_eq!(result.stop, expected, "exec={exec}");
        assert!(exec || faulting.is_some(), "the body reaches the window");
    }
}

#[test]
fn mid_block_fault_delivered_to_the_next_op_leaves_the_sandbox() {
    use hfi_repro::hfi_core::region::ImplicitDataRegion;
    // One fast block: a load outside every data region faults; the
    // handler is the very next op, which runs after delivery exited the
    // sandbox and so must not be counted as a sandboxed fetch.
    let mut body = adds(3);
    body.push(Inst::Load {
        dst: Reg(5),
        mem: MemOperand::base_disp(Reg(8), 0x50_0000),
        size: 8,
    });
    body.extend(adds(5));
    let program = sandboxed(
        vec![
            Inst::MovI {
                dst: Reg(8),
                imm: 0x2_0000,
            },
            Inst::HfiSetRegion {
                slot: 0,
                region: code_region(CODE_BASE, 0xFFFF, true),
            },
            Inst::HfiSetRegion {
                slot: 2,
                region: Region::Data(
                    ImplicitDataRegion::new(0x2_0000, 0xFFFF, true, true).expect("data"),
                ),
            },
        ],
        body,
    );
    let plan = plan_of(&program);
    let load = (0..program.len())
        .find(|&i| plan.op(i).class == hfi_repro::hfi_sim::OpClass::Load)
        .expect("body has a load");
    assert!(plan.blocks()[plan.block_of(load)].fast);
    let handler = Some(plan.pc(load + 1));
    let result = assert_modes_agree(&program, 10_000, handler, "handler-is-next");
    assert_eq!(result.stop, Stop::Halted);
    assert_eq!(result.stats.faults, 1);
    // Sandboxed fetches: the jump after hfi_enter, three adds, the load
    // — plus the load's own data check. Nothing after delivery counts.
    assert_eq!(result.stats.hfi_checks, 1 + 3 + 1 + 1);
}

#[test]
fn hfi_transitions_inside_blocks_run_on_the_reference_path() {
    // hfi_set_region / hfi_exit / hfi_enter in the middle of straight-
    // line code: those blocks never take the fast path, and the blocks
    // around them run under whatever sandbox state they leave behind.
    let mut body = adds(4);
    body.push(Inst::HfiExit);
    body.extend(adds(4));
    body.push(Inst::HfiSetRegion {
        slot: 1,
        region: code_region(CODE_BASE + 0x1_0000, 0xFFFF, true),
    });
    body.push(Inst::HfiEnter {
        config: SandboxConfig::hybrid(),
    });
    body.extend(adds(4));
    // A fast block, sandboxed, between two transition blocks.
    body.push(Inst::Jump {
        target: body.len() + 1,
    });
    body.extend(adds(6));
    body.push(Inst::Jump {
        target: body.len() + 1,
    });
    body.push(Inst::HfiExit);
    let program = sandboxed(
        vec![Inst::HfiSetRegion {
            slot: 0,
            region: code_region(CODE_BASE, 0xFFFF, true),
        }],
        body,
    );
    let plan = plan_of(&program);
    assert!(plan.blocks().iter().any(|b| b.fast), "some block is fast");
    assert!(plan.blocks().iter().any(|b| !b.fast), "some block is not");
    let result = assert_modes_agree(&program, 10_000, None, "transitions");
    assert_eq!(result.stop, Stop::Halted);
    assert!(result.stats.hfi_checks > 0);
}

#[test]
fn functional_and_cycle_agree_on_plan_driven_runs() {
    let mut rng = Rng::new(0xD1FF);
    for case in 0..48 {
        let program = random_runnable(&mut rng);

        let mut machine = Machine::new(Arc::clone(&program));
        let cycle = machine.run(50_000_000);
        assert_eq!(cycle.stop, Stop::Halted, "case {case}: cycle run");

        let mut functional = Functional::new(Arc::clone(&program));
        let func = functional.run(50_000_000);
        assert_eq!(func.stop, Stop::Halted, "case {case}: functional run");

        assert_eq!(
            cycle.regs, func.regs,
            "case {case}: architectural registers diverged"
        );
    }
}
