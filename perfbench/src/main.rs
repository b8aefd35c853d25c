//! The repository benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-fig3|serve-short|serve-churn|serve-rogue> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every output is checked; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`), and the exit
//! code is non-zero on any correctness violation. The line before it
//! carries the run's provenance; a human-readable summary goes to
//! standard error. The traced run writes its spans to
//! `.perfbench_out/`. See `perfbench/README.md` for every definition.

#![forbid(unsafe_code)]

mod fig3;
mod layers;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

use trace::Tracer;
use util::{calibration_score, describe_latency, peak_rss_mb, provenance, Ledger, Report};

/// Set-up repetitions per run; `setup_s` is their median. A set-up takes
/// only milliseconds, so one host stall (or one unusually quick set-up)
/// would move a single timing or the fastest of them.
pub const SETUP_REPEATS: usize = 15;

/// Pause before each repeated set-up. A shared host switches between a
/// fast and a slow state for memory-heavy work every few hundred
/// milliseconds; set-ups run back to back all land in one state, so
/// one run's median would read one state or the other.
pub const SETUP_GAP: std::time::Duration = std::time::Duration::from_millis(100);

/// Slices a run's phases interleave in, so each phase samples the whole
/// run (`serve-*`: open-loop segments, each followed by a closed-loop
/// window).
pub const SLICES: usize = 6;

pub const WORKLOADS: [&str; 4] = ["sim-fig3", "serve-short", "serve-churn", "serve-rogue"];

/// End-to-end metrics, emitted by every workload with `--trace 0`.
/// Open-loop latency is a per-layer metric and closed-loop capacity is
/// only printed in the summary: on a shared host both follow the host's
/// state from run to run by more than a bound may allow.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_mips_functional", "Minst/s"),
    ("sim_mips_cycle", "Minst/s"),
    ("success_rate", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, emitted by every workload with `--trace 1`. A
/// layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 73] = [
    ("wasm.compile_us", "us"),
    ("wasm.transition_ops", "count"),
    ("verify.program_us", "us"),
    ("verify.cached_us", "us"),
    ("verify.hits", "count"),
    ("verify.misses", "count"),
    ("plan.build_us", "us"),
    ("sim.func.ns_per_inst", "ns"),
    ("sim.fuel_overhead_pct", "%"),
    ("sim.committed", "count"),
    ("sim.cycles_modelled", "count"),
    ("sim.hfi_checks", "count"),
    ("sim.branches", "count"),
    ("sim.cycle.ns_per_inst", "ns"),
    ("sim.cycle.ns_per_cycle", "ns"),
    ("sim.cycle.cycles", "count"),
    ("sim.cycle.committed", "count"),
    ("sim.cycle.squashed", "count"),
    ("sim.cycle.mispredicts", "count"),
    ("sim.cycle.rob_stall_cycles", "count"),
    ("sim.cycle.l1i_hits", "count"),
    ("sim.cycle.l1i_misses", "count"),
    ("sim.cycle.l1d_hits", "count"),
    ("sim.cycle.l1d_misses", "count"),
    ("sim.cycle.l2_hits", "count"),
    ("sim.cycle.l2_misses", "count"),
    ("sim.cycle.dtlb_hits", "count"),
    ("sim.cycle.dtlb_misses", "count"),
    ("sim.new_us", "us"),
    ("sim.reset_us", "us"),
    ("sim.prepare_us", "us"),
    ("mem.create_sandbox_us", "us"),
    ("mem.resident_cap_guard", "count"),
    ("mem.resident_cap_hfi", "count"),
    ("pool.checkout_warm_us", "us"),
    ("pool.checkout_cold_us", "us"),
    ("pool.release_us", "us"),
    ("pool.quarantine_us", "us"),
    ("pool.warm_hits", "count"),
    ("pool.cold_builds", "count"),
    ("pool.recycled", "count"),
    ("pool.peak_resident", "count"),
    ("pool.quarantined", "count"),
    ("pool.warm_hit_rate", "fraction"),
    ("sched.gen_lag_us", "us"),
    ("sched.queue_us", "us"),
    ("sched.idle_wake_us", "us"),
    ("sched.setup_us", "us"),
    ("sched.service_us", "us"),
    ("sched.delivery_us", "us"),
    ("sched.unattributed_us", "us"),
    ("faults.cancel_late_us", "us"),
    ("outcome.done", "count"),
    ("outcome.panicked", "count"),
    ("outcome.circuit_open", "count"),
    ("outcome.deadline_ran", "count"),
    ("outcome.deadline_queued", "count"),
    ("outcome.shed", "count"),
    ("outcome.overloaded", "count"),
    ("outcome.rejected", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.span_sum_err_us", "us"),
    ("trace.spans", "count"),
    ("trace.requests", "count"),
    ("run.attempted", "count"),
    ("run.failed", "count"),
    ("run.error_rate", "fraction"),
    ("run.peak_rss_mb", "MiB"),
    ("run.lat_samples", "count"),
    ("run.lat_p50_ms", "ms"),
    ("run.lat_p90_ms", "ms"),
    ("run.lat_p99_ms", "ms"),
    ("run.lat_p99_beyond", "count"),
];

/// A defect planted on purpose, to prove the checks catch it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Plant {
    /// One kernel's expected result is off by one.
    WrongResult,
    /// One expected counter is off by one.
    CounterMismatch,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub plant: Option<Plant>,
}

/// What a workload hands back: its metrics, its correctness ledger, its
/// spans, its healthy latencies and extra provenance.
pub struct Outcome {
    pub report: Report,
    pub ledger: Ledger,
    pub tracer: Tracer,
    pub latencies_ms: Vec<f64>,
    pub extra: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn new(trace: bool) -> Self {
        Outcome {
            report: Report::default(),
            ledger: Ledger::default(),
            tracer: Tracer::new(trace),
            latencies_ms: Vec::new(),
            extra: BTreeMap::new(),
        }
    }
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        plant: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--plant" => {
                args.plant = Some(match value()?.as_str() {
                    "wrong-result" => Plant::WrongResult,
                    "counter-mismatch" => Plant::CounterMismatch,
                    other => return Err(format!("unknown --plant {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Timed before the workload, so it also wakes an idle host core.
    let calibration = calibration_score();
    let mut out = match args.workload.as_str() {
        "sim-fig3" => fig3::run(&args),
        "serve-short" => serve::run(serve::Kind::Short, &args),
        "serve-churn" => serve::run(serve::Kind::Churn, &args),
        _ => serve::run(serve::Kind::Rogue, &args),
    };
    let rss = peak_rss_mb();
    let ledger = &out.ledger;
    let error_rate = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    let lat = &out.latencies_ms;
    let p99_beyond = util::beyond(lat.len(), 0.99);
    let report = &mut out.report;
    if args.trace {
        report.put("trace.spans", out.tracer.spans.len() as f64, "count");
        report.put("trace.requests", out.tracer.requests() as f64, "count");
        report.put("run.attempted", ledger.attempted as f64, "count");
        report.put("run.failed", ledger.failed as f64, "count");
        report.put("run.error_rate", error_rate, "fraction");
        report.put("run.peak_rss_mb", rss, "MiB");
        report.put("run.lat_samples", lat.len() as f64, "count");
        report.put("run.lat_p50_ms", util::median(lat), "ms");
        report.put("run.lat_p90_ms", util::percentile(lat, 0.9), "ms");
        let p99 = if p99_beyond >= 10 {
            util::percentile(lat, 0.99)
        } else {
            0.0
        };
        report.put("run.lat_p99_ms", p99, "ms");
        report.put("run.lat_p99_beyond", p99_beyond as f64, "count");
    } else {
        report.put("success_rate", 1.0 - error_rate, "fraction");
    }
    let mut metrics = Report::default();
    if args.trace {
        for (name, unit) in PER_LAYER {
            metrics.put(name, report.get(name).unwrap_or(0.0), unit);
        }
    } else {
        for (name, unit) in END_TO_END {
            if let Some(value) = report.get(name) {
                metrics.put(name, value, unit);
            }
        }
    }

    eprintln!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace
    );
    eprintln!("  {}", describe_latency("healthy latency", lat));
    for (name, value, unit) in &metrics.metrics {
        eprintln!("  {name:<28} {value:>16.6} {unit}");
    }
    eprintln!(
        "  error_rate {error_rate:.6} ({} failed of {} attempted)",
        ledger.failed, ledger.attempted
    );
    for violation in &ledger.violations {
        eprintln!("  VIOLATION: {violation}");
    }
    let non_finite: Vec<&String> = metrics
        .metrics
        .iter()
        .filter(|(_, value, _)| !value.is_finite())
        .map(|(name, _, _)| name)
        .collect();
    for name in &non_finite {
        eprintln!("  VIOLATION: metric {name} is not finite");
    }
    if args.trace {
        let path = std::path::PathBuf::from(".perfbench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match out.tracer.write(&path) {
            Ok(()) => eprintln!("  spans -> {}", path.display()),
            Err(e) => eprintln!("  spans not written: {e}"),
        }
    }
    println!(
        "{}",
        provenance(
            &args.workload,
            args.seed,
            args.trace,
            serve::WORKERS,
            calibration,
            &out.extra
        )
    );
    let correct = ledger.correct() && non_finite.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.attempted,
        ledger.failed,
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
