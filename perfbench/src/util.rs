//! Shared plumbing: statistics, the metric report, the compile memo the
//! set-up phases clear between repetitions, and run provenance.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use hfi_wasm::compiler::{compile, CompileOptions, CompiledKernel};
use hfi_wasm::kernels::Kernel;

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Mean of the middle half of a sample (0 when empty): it drops the
/// quarter a host stall slows and the quarter a brief fast spell
/// speeds, yet still averages over the rest, so it does not jump
/// between two host states the way a median can.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = sorted.len() / 4;
    let middle = &sorted[quarter..sorted.len() - quarter];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Samples strictly beyond quantile `q`: a percentile is only reported
/// when at least ten samples lie beyond it.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Renders a latency distribution for the log: median plus every tail
/// percentile that has at least ten samples beyond it, with the count.
pub fn describe_latency(label: &str, ms: &[f64]) -> String {
    let mut line = format!("{label}: n={} p50={:.4}ms", ms.len(), median(ms));
    for (name, q) in [("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)] {
        let tail = beyond(ms.len(), q);
        if tail >= 10 {
            let _ = write!(line, " {name}={:.4}ms(beyond={tail})", percentile(ms, q));
        }
    }
    line
}

/// Metrics of one run, in insertion order, each with its unit.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The `"metrics"` JSON object.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with all its digits. JSON has no NaN or infinity, so
/// those print as 0; the caller marks a run with one incorrect.
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Minimal JSON string escaping for provenance fields.
pub fn esc(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Correctness ledger of one run: every attempted unit of work and
/// every violation, with the first few violation messages kept.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Ledger {
    /// Counts one unit of work; `Err` marks it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            self.violate(message);
        }
    }

    /// Records a run-level invariant violation (not a unit of work).
    pub fn violate(&mut self, message: String) {
        if self.violations.len() < 20 {
            self.violations.push(message);
        } else if self.violations.len() == 20 {
            self.violations.push("... further violations elided".into());
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

type MemoKey = (String, String);
static COMPILE_MEMO: OnceLock<Mutex<HashMap<MemoKey, CompiledKernel>>> = OnceLock::new();

fn memo() -> std::sync::MutexGuard<'static, HashMap<MemoKey, CompiledKernel>> {
    COMPILE_MEMO
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Compile entry point handed to the warm pools: memoized per kernel ×
/// options, like the experiments' own memo, but clearable so every
/// set-up repetition pays the real compiler and verifier again.
pub fn compile_memo(kernel: &Kernel, opts: &CompileOptions) -> CompiledKernel {
    let key = (kernel.name.clone(), format!("{opts:?}"));
    if let Some(hit) = memo().get(&key) {
        return hit.clone();
    }
    let compiled = compile(&kernel.func, opts);
    memo().entry(key).or_insert(compiled).clone()
}

/// Forgets every memoized compile and every cached proof, so the next
/// set-up starts cold.
pub fn cold_start() {
    memo().clear();
    hfi_verify::reset_proof_cache();
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed integer loop timed on this host: a host-speed fingerprint
/// recorded beside the raw metrics and never used to rescale them.
pub fn calibration_score() -> f64 {
    const ROUNDS: u64 = 20_000_000;
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    ROUNDS as f64 / started.elapsed().as_secs_f64() / 1e6
}

/// Git revision of the working directory, when it is a repository.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a digest of every Rust source under `crates/` and the
/// benchmark's own sources: identifies the measured code when the
/// checkout carries no git metadata.
pub fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        for byte in std::fs::read(file).unwrap_or_default() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Run provenance, printed as one JSON line before the result line.
pub fn provenance(
    workload: &str,
    seed: u64,
    trace: bool,
    workers: usize,
    calibration_mops: f64,
    extra: &BTreeMap<String, f64>,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut fields = format!(
        "\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {trace}, \"git_rev\": \"{}\", \
         \"source_digest\": \"{}\", \"nproc\": {nproc}, \"workers\": {workers}, \
         \"profile\": \"{profile}\", \"calibration_mops\": {}",
        esc(workload),
        esc(&git_rev()),
        source_digest(),
        num(calibration_mops),
    );
    for (key, value) in extra {
        let _ = write!(fields, ", \"{}\": {}", esc(key), num(*value));
    }
    format!("{{\"provenance\": {{{fields}}}}}")
}

/// Wall-clock phase budget: a share of the run's `--seconds`.
pub fn share(seconds: f64, fraction: f64) -> std::time::Duration {
    std::time::Duration::from_secs_f64((seconds * fraction).max(0.05))
}
