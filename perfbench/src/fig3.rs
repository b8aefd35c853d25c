//! `sim-fig3`: the SPEC-like suite × {GuardPages, BoundsChecks, Hfi}
//! on the functional executor (30 cells) and the cycle core (27 cells,
//! bzip2 dropped: its three cells would take most of the run), single
//! threaded. Compile, verify and plan happen in set-up. The seed sets
//! the order the cells run in; the simulated counters are
//! deterministic, so every run is checked exactly.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use hfi_sim::{plan_of, RunRecord};
use hfi_wasm::compiler::{CompileOptions, Isolation, VerifyVerdict};
use hfi_wasm::kernels::speclike;

use crate::layers::{
    probe_lifecycle, probe_runtime, probe_setup_layers, report_cycle, Sweep, Unit,
};
use crate::trace::{Tracer, NONE};
use crate::util::{cold_start, compile_memo, median, peak_rss_mb, share};
use crate::{Args, Outcome, Plant, SETUP_GAP, SETUP_REPEATS, SLICES};

const SCHEMES: [Isolation; 3] = [
    Isolation::GuardPages,
    Isolation::BoundsChecks,
    Isolation::Hfi,
];

/// The golden counter file of the cycle core, read-only.
const GOLDEN: &str = include_str!("../../tests/golden/counters.txt");

/// `fig3/<kernel>/<scheme>` → the line's `key=value` fields.
fn golden(plant: Option<Plant>) -> HashMap<String, Vec<(String, String)>> {
    let mut table: HashMap<String, Vec<(String, String)>> = GOLDEN
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let label = words.next()?.strip_prefix("fig3/")?.to_string();
            let fields = words
                .filter_map(|w| w.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            Some((label, fields))
        })
        .collect();
    if plant == Some(Plant::CounterMismatch) {
        let mut labels: Vec<&String> = table.keys().collect();
        labels.sort();
        let label = labels[0].clone();
        for (key, value) in table.get_mut(&label).expect("present") {
            if key == "committed" {
                *value = (value.parse::<u64>().expect("numeric") + 1).to_string();
            }
        }
    }
    table
}

/// The golden file's rendering of a cycle-core record.
fn fields_of(r: &RunRecord) -> Vec<(String, String)> {
    [
        ("cycles", r.cycles.to_string()),
        ("committed", r.committed.to_string()),
        ("squashed", r.squashed.to_string()),
        ("branches", r.branches.to_string()),
        ("mispredicts", r.mispredicts.to_string()),
        ("rob_stall_cycles", r.rob_stall_cycles.to_string()),
        ("serializations", r.serializations.to_string()),
        ("l1i", format!("{}/{}", r.l1i_hits, r.l1i_misses)),
        ("l1d", format!("{}/{}", r.l1d_hits, r.l1d_misses)),
        ("l2", format!("{}/{}", r.l2_hits, r.l2_misses)),
        ("dtlb", format!("{}/{}", r.dtlb_hits, r.dtlb_misses)),
        ("hfi_checks", r.hfi_checks.to_string()),
        ("hfi_faults", r.hfi_faults.to_string()),
        ("sys_redirected", r.syscalls_redirected.to_string()),
        ("sys_to_os", r.syscalls_to_os.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Kernel construction, compile (which verifies), and plan build for
/// every cell, from a cold compile memo and proof cache.
fn setup(tracer: &mut Tracer) -> (Vec<Unit>, Vec<VerifyVerdict>) {
    cold_start();
    let root = tracer.begin("setup", NONE, 0);
    let mut units = Vec::new();
    let mut verdicts = Vec::new();
    let span = tracer.begin("setup.kernels", root, 0);
    let kernels = speclike::suite(1);
    tracer.end(span);
    for kernel in kernels {
        for isolation in SCHEMES {
            let opts = CompileOptions::new(isolation);
            let span = tracer.begin("setup.compile", root, 0);
            let compiled = compile_memo(&kernel, &opts);
            tracer.end(span);
            let span = tracer.begin("setup.plan", root, 0);
            plan_of(&compiled.program);
            tracer.end(span);
            verdicts.push(compiled.verdict.clone());
            units.push(Unit {
                label: format!("{}/{:?}", kernel.name, isolation),
                kernel: kernel.clone(),
                opts,
                program: Arc::clone(&compiled.program),
            });
        }
    }
    tracer.end(root);
    (units, verdicts)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    // One set-up before the measured sweeps, so they (and the memory
    // reading after them) see one set of programs; the untraced run
    // repeats the set-up after them for `setup_s`.
    let started = Instant::now();
    let (mut units, verdicts) = setup(&mut out.tracer);
    let mut setups = vec![started.elapsed().as_secs_f64()];
    let cache = hfi_verify::proof_cache_stats();
    for (unit, verdict) in units.iter().zip(&verdicts) {
        let needs_proof = unit.opts.isolation != Isolation::GuardPages;
        if needs_proof && verdict.verified() != Some(true) {
            out.ledger
                .violate(format!("{}: compiled program not proven", unit.label));
        }
    }
    let mut expected: HashMap<String, u64> = units
        .iter()
        .map(|u| (u.kernel.name.clone(), u.kernel.expected))
        .collect();
    if args.plant == Some(Plant::WrongResult) {
        *expected.get_mut(&units[0].kernel.name).expect("present") += 1;
    }
    let expected_of = |u: &Unit| expected[&u.kernel.name];
    let golden = golden(args.plant);

    // The seed only orders the cells; the inputs are the suite's own.
    let mut rng = hfi_util::Rng::new(args.seed);
    for i in (1..units.len()).rev() {
        units.swap(i, rng.below(i as u64 + 1) as usize);
    }

    // Functional tier: all 30 cells in turn. Cycle tier: every
    // cell but bzip2's. The two interleave in slices, so each samples the
    // whole run. The traced run adds a traced functional sweep beside the
    // untraced one to price its spans.
    let all: Vec<&Unit> = units.iter().collect();
    let cycle_units: Vec<&Unit> = units
        .iter()
        .filter(|u| !u.kernel.name.contains("bzip2"))
        .collect();
    let (functional_share, cycle_share) = if args.trace { (0.12, 0.3) } else { (0.3, 0.6) };
    let mut functional = Sweep::new(&all, false);
    let mut traced = Sweep::new(&all, false);
    let mut cycle = Sweep::new(&cycle_units, true);
    let ledger = &mut out.ledger;
    let quiet = &mut Tracer::new(false);
    for _ in 0..SLICES {
        let slice = |fraction| share(args.seconds, fraction) / SLICES as u32;
        let check = &mut |v| ledger.check(v);
        functional.run(slice(functional_share), &expected_of, check, quiet);
        if args.trace {
            traced.run(
                slice(functional_share),
                &expected_of,
                check,
                &mut out.tracer,
            );
        }
        cycle.run(slice(cycle_share), &expected_of, check, quiet);
    }
    if args.trace {
        out.report.put(
            "trace.overhead_pct",
            (functional.mips() / traced.mips() - 1.0) * 100.0,
            "%",
        );
    }
    let (func_firsts, cycle_firsts) = (&functional.firsts(), &cycle.firsts());

    // Exact checks: the golden file where it has the cell, and the
    // architectural instruction count agreeing across the two tiers.
    for (unit, record) in cycle_units.iter().zip(cycle_firsts) {
        if let Some(fields) = golden.get(&unit.label) {
            let ours = fields_of(record);
            for (key, value) in fields {
                let mine = ours.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                if mine != Some(value) {
                    out.ledger.check(Err(format!(
                        "{}: cycle counter {key}={} differs from golden {value}",
                        unit.label,
                        mine.map_or("missing", |v| v.as_str())
                    )));
                }
            }
        }
    }
    for (unit, record) in units.iter().zip(func_firsts) {
        let golden_committed = golden.get(&unit.label).and_then(|f| {
            f.iter()
                .find(|(k, _)| k == "committed")
                .and_then(|(_, v)| v.parse::<u64>().ok())
        });
        let cycle_committed = cycle_units
            .iter()
            .position(|c| c.label == unit.label)
            .map(|i| cycle_firsts[i].committed);
        for reference in [golden_committed, cycle_committed].into_iter().flatten() {
            if record.committed != reference {
                out.ledger.check(Err(format!(
                    "{}: functional committed {} disagrees with {reference}",
                    unit.label, record.committed
                )));
            }
        }
    }

    let r = &mut out.report;
    if args.trace {
        let sum = |f: fn(&RunRecord) -> u64| func_firsts.iter().map(f).sum::<u64>() as f64;
        r.put("sim.committed", sum(|f| f.committed), "count");
        r.put(
            "sim.cycles_modelled",
            func_firsts.iter().map(|f| f.cycles).sum(),
            "count",
        );
        r.put("sim.hfi_checks", sum(|f| f.hfi_checks), "count");
        r.put("sim.branches", sum(|f| f.branches), "count");
        r.put("sim.func.ns_per_inst", 1e3 / functional.mips(), "ns");
        report_cycle(cycle_firsts, cycle.mips(), r);
        r.put(
            "verify.hits",
            (cache.hits_identity + cache.hits_digest) as f64,
            "count",
        );
        r.put("verify.misses", cache.misses as f64, "count");
        probe_setup_layers(&all, r);
        let ledger = &mut out.ledger;
        probe_lifecycle(&all, share(args.seconds, 0.1), r, &mut |v| ledger.check(v));
        probe_runtime(Isolation::Hfi, r);
        let (gap, _) = out.tracer.child_sum_gap_us("cell");
        out.report.put("trace.span_sum_err_us", gap, "us");
    } else {
        r.put("sim_mips_functional", functional.mips(), "Minst/s");
        r.put("sim_mips_cycle", cycle.mips(), "Minst/s");
        r.put("peak_rss_mb", peak_rss_mb(), "MiB");
        for _ in 1..SETUP_REPEATS {
            std::thread::sleep(SETUP_GAP);
            let started = Instant::now();
            let again = setup(&mut Tracer::new(false));
            setups.push(started.elapsed().as_secs_f64());
            drop(again);
        }
        r.put("setup_s", median(&setups), "s");
    }
    out
}
