//! The one baseline gate of the `BENCH_*.json` binaries, and the gate
//! list each of them declares.
//!
//! `--check <baseline.json>` loads the baseline once, before the run
//! writes anything, so a run is never gated against its own file. An
//! unreadable baseline or a missing key exits 2: a gate that skipped
//! its comparison would pass any regression. A key the run's own
//! [`Record`] lacks reads NaN, and NaN fails. Absolute sim-MIPS and
//! latencies are host-dependent, so a baseline only holds on the
//! machine class it was recorded on.

use std::fmt::Write as _;

use hfi_core::TransitionScheme;

use self::Direction::{Both, Higher, Lower};
use crate::record::Record;
use crate::{Harness, FIG3_SCHEMES};

/// Which way a gated value may not move past its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Fails below `baseline × (1 − rel_budget) − abs_slack`.
    Higher,
    /// Fails above `baseline × (1 + rel_budget) + abs_slack`.
    Lower,
    /// Fails outside either bound; `0/0` means exact.
    Both,
}

/// One gated key of a baseline record.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The record key, read from both the baseline and the run.
    pub key: String,
    /// Which way the value may not regress.
    pub direction: Direction,
    /// Allowed fractional change against the baseline.
    pub rel_budget: f64,
    /// Absolute slack beyond the relative budget.
    pub abs_slack: f64,
}

impl Gate {
    fn new(key: String, direction: Direction, rel_budget: f64, abs_slack: f64) -> Self {
        Gate {
            key,
            direction,
            rel_budget,
            abs_slack,
        }
    }

    /// The closed interval a measurement must fall in.
    pub fn bounds(&self, baseline: f64) -> (f64, f64) {
        let lo = baseline * (1.0 - self.rel_budget) - self.abs_slack;
        let hi = baseline * (1.0 + self.rel_budget) + self.abs_slack;
        match self.direction {
            Higher => (lo, f64::INFINITY),
            Lower => (f64::NEG_INFINITY, hi),
            Both => (lo, hi),
        }
    }

    /// Whether `measured` passes against `baseline`; NaN never does.
    pub fn holds(&self, baseline: f64, measured: f64) -> bool {
        let (lo, hi) = self.bounds(baseline);
        !(measured.is_nan() || measured < lo || measured > hi)
    }
}

/// A gate list with its baseline values, loaded before the run.
#[derive(Debug)]
pub struct Baseline {
    gates: Vec<Gate>,
    values: Vec<f64>,
}

impl Baseline {
    /// Reads every gate's key from the baseline record at `path`; the
    /// error names an unreadable or malformed file, or a key that is
    /// missing or not finite.
    pub fn load(path: &str, gates: Vec<Gate>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let record = Record::parse(&text).map_err(|e| format!("malformed {path}: {e}"))?;
        let values = gates
            .iter()
            .map(|g| {
                let value = record.number(&g.key).filter(|v| v.is_finite());
                value.ok_or_else(|| format!("no \"{}\" number in {path}; re-record it", g.key))
            })
            .collect::<Result<_, _>>()?;
        Ok(Baseline { gates, values })
    }

    /// The `--check` baseline, or `None` without `--check`; exits 2 if
    /// it cannot be loaded.
    pub fn from_harness(harness: &Harness, gates: Vec<Gate>) -> Option<Self> {
        let loaded = Self::load(harness.check_path()?, gates);
        Some(loaded.unwrap_or_else(|e| {
            eprintln!("[gate] ERROR: baseline: {e}");
            std::process::exit(2);
        }))
    }

    /// Gates `measured`: prints one `FAIL` line per failing key, then a
    /// `### Baseline gate` markdown table and a `gate: k/n ok` trailer.
    /// True if every gate holds.
    pub fn check(&self, measured: &Record) -> bool {
        let mut table = String::from("\n### Baseline gate\n\n");
        table +=
            "| key | baseline | measured | delta | bound | verdict |\n|---|---|---|---|---|---|\n";
        let mut ok = 0;
        for (gate, &base) in self.gates.iter().zip(&self.values) {
            let value = measured.number(&gate.key).unwrap_or(f64::NAN);
            let bound = match (gate.direction, gate.bounds(base)) {
                (Higher, (lo, _)) => format!(">= {lo:.2}"),
                (Lower, (_, hi)) => format!("<= {hi:.2}"),
                (Both, (lo, hi)) => format!("{lo:.2} ..= {hi:.2}"),
            };
            let verdict = if gate.holds(base, value) {
                ok += 1;
                "ok"
            } else {
                let key = &gate.key;
                eprintln!("[gate] FAIL: {key}: baseline {base}, measured {value}, bound {bound}");
                "FAIL"
            };
            let delta = (value / base - 1.0) * 100.0;
            let _ = writeln!(
                table,
                "| {} | {base:.2} | {value:.2} | {delta:+.1}% | {bound} | {verdict} |",
                gate.key
            );
        }
        println!("{table}\ngate: {ok}/{} ok", self.gates.len());
        ok == self.gates.len()
    }
}

/// The executor tiers `bench_throughput` measures, in presentation order.
pub const TIERS: [&str; 2] = ["cycle", "functional"];

/// `bench_throughput`: each tier's `sim_mips_<tier>` may drop by 20%,
/// gated per tier so one tier's regression cannot hide in a blend.
pub fn throughput() -> Vec<Gate> {
    let gate = |tier| Gate::new(format!("sim_mips_{tier}"), Higher, 0.20, 0.0);
    TIERS.iter().map(gate).collect()
}

/// `micro_transitions`: per scheme, the functional-tier round trip is a
/// deterministic cost-model sum and must match exactly; the cycle
/// machine's may drift ±25% (pipeline-model churn moves it
/// legitimately, cost-model regressions blow through it).
pub fn transitions() -> Vec<Gate> {
    let gates = |s: &TransitionScheme| {
        [
            Gate::new(format!("rt_func_{}", s.label()), Both, 0.0, 0.0),
            Gate::new(format!("rt_cycle_{}", s.label()), Both, 0.25, 0.0),
        ]
    };
    TransitionScheme::ALL.iter().flat_map(gates).collect()
}

/// `serve_bench`'s relative budget: tail latency on a shared CI host is
/// far noisier than aggregate sim-MIPS, hence wider than throughput's.
const SERVING_BUDGET: f64 = 0.50;

/// Absolute slack on every `serve_bench` p99 ceiling. A smoke level
/// serves only a few dozen requests, so its p99 is nearly the max; on a
/// single-core container back-to-back runs flap between 0.25 ms and
/// ~2 ms purely from host stalls. A real scheduling regression —
/// starvation, livelock, lost completions — overshoots this by orders
/// of magnitude, so the slack costs no detection power.
const P99_SLACK_MS: f64 = 5.0;

/// A `serve_bench` p99 gate on `key`: lower is better.
pub fn serving_p99(key: String) -> Gate {
    Gate::new(key, Lower, SERVING_BUDGET, P99_SLACK_MS)
}

/// `serve_bench`: per scheme, p99 at the lowest Poisson load and
/// achieved throughput at the highest; with `--degrade`, also the
/// faulty variant's healthy-tenant p99 at 0.5× and 1× capacity.
pub fn serving(degrade: bool) -> Vec<Gate> {
    let mut gates = Vec::new();
    for scheme in FIG3_SCHEMES {
        let name = format!("{scheme:?}").to_lowercase();
        gates.push(serving_p99(format!("p99_ms_{name}")));
        gates.push(Gate::new(
            format!("achieved_rps_{name}"),
            Higher,
            SERVING_BUDGET,
            0.0,
        ));
    }
    if degrade {
        for mult in ["05x", "1x"] {
            gates.push(serving_p99(format!("degrade_faulty_{mult}_healthy_p99_ms")));
        }
    }
    gates
}
