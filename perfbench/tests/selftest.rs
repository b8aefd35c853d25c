//! Self-tests of the benchmark: a short run of every workload named in
//! `BENCHMARK.json`, traced and untraced, must emit every declared
//! metric, finite and with its unit, print tail percentiles only with
//! at least ten samples beyond them, and fail on planted defects.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// A parsed JSON value (just enough JSON for `BENCHMARK.json` and the
/// benchmark's own output lines).
#[derive(Debug, Clone)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos);
        skip_ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing text after JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(map) => map,
            other => panic!("{other:?} is not an object"),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b'}' {
                    *pos += 1;
                    return Json::Obj(map);
                }
                let Json::Str(key) = parse_value(b, pos) else {
                    panic!("object key must be a string");
                };
                skip_ws(b, pos);
                assert_eq!(b[*pos], b':');
                *pos += 1;
                map.insert(key, parse_value(b, pos));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b']' {
                    *pos += 1;
                    return Json::Arr(items);
                }
                items.push(parse_value(b, pos));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'"' => {
            *pos += 1;
            let mut out = String::new();
            while b[*pos] != b'"' {
                if b[*pos] == b'\\' {
                    *pos += 1;
                }
                out.push(b[*pos] as char);
                *pos += 1;
            }
            *pos += 1;
            Json::Str(out)
        }
        b't' => {
            *pos += 4;
            Json::Bool(true)
        }
        b'f' => {
            *pos += 5;
            Json::Bool(false)
        }
        b'n' => {
            *pos += 4;
            Json::Null
        }
        _ => {
            let start = *pos;
            while *pos < b.len() && b"+-0123456789.eE".contains(&b[*pos]) {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
            Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
        }
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    Json::parse(&text)
}

struct RunOutput {
    code: i32,
    stderr: String,
    provenance: Json,
    result: Json,
}

fn run(workload: &str, trace: bool, plant: Option<&str>) -> RunOutput {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(repo_root()).args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if let Some(plant) = plant {
        cmd.args(["--plant", plant]);
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected provenance + result lines, got {stdout}"
    );
    RunOutput {
        code: out.status.code().unwrap_or(-1),
        stderr: String::from_utf8_lossy(&out.stderr).to_string(),
        provenance: Json::parse(lines[lines.len() - 2])
            .get("provenance")
            .clone(),
        result: Json::parse(lines[lines.len() - 1]),
    }
}

/// Every metric `BENCHMARK.json` declares is emitted, finite, with its
/// unit, and nothing else is.
fn assert_metrics(workload: &str, result: &Json, declared: &[Json]) {
    let metrics = result.get("metrics").obj();
    for metric in declared {
        let name = metric.get("name").str();
        let emitted = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        let value = emitted.get("value").num();
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert_eq!(
            emitted.get("unit").str(),
            metric.get("unit").str(),
            "{workload}: unit of {name}"
        );
    }
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{workload}: undeclared metrics"
    );
}

/// Tail percentiles in the latency summary carry their sample count,
/// and only appear with at least ten samples beyond them.
fn assert_percentile_rule(workload: &str, stderr: &str) {
    let line = stderr
        .lines()
        .find(|l| l.contains("healthy latency:"))
        .unwrap_or_else(|| panic!("{workload}: no latency summary"));
    line.split("n=")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<usize>().ok())
        .expect("sample count");
    for part in line.split_whitespace().filter(|w| w.contains("(beyond=")) {
        let beyond: usize = part
            .split("(beyond=")
            .nth(1)
            .and_then(|rest| rest.trim_end_matches(')').parse().ok())
            .expect("beyond count");
        assert!(
            beyond >= 10,
            "{workload}: {part} has fewer than ten samples beyond it"
        );
    }
}

/// Every workload the command runs; `BENCHMARK.json` gates a subset.
const WORKLOADS: [&str; 4] = ["sim-fig3", "serve-short", "serve-churn", "serve-rogue"];

#[test]
fn every_workload_emits_its_metrics_and_checks_its_outputs() {
    let bench = benchmark_json();
    let end_to_end = bench.get("end_to_end").arr();
    let per_layer = bench.get("per_layer").arr();
    let gated = bench.get("workloads").arr();
    for gate in gated {
        assert!(WORKLOADS.contains(&gate.get("name").str()));
    }
    for name in WORKLOADS {
        let plain = run(name, false, None);
        assert_eq!(plain.code, 0, "{name}: {}", plain.stderr);
        assert!(matches!(plain.result.get("correct"), Json::Bool(true)));
        assert!(plain.result.get("attempted").num() >= 1.0);
        assert_eq!(
            plain.result.get("failed").num(),
            0.0,
            "{name}: {}",
            plain.stderr
        );
        assert_metrics(name, &plain.result, end_to_end);
        assert_percentile_rule(name, &plain.stderr);
        for key in [
            "seed",
            "git_rev",
            "nproc",
            "workers",
            "profile",
            "calibration_mops",
        ] {
            plain.provenance.get(key);
        }
        // The fixed open-loop rate of a gated workload is written into
        // its reason.
        let gate = gated.iter().find(|g| g.get("name").str() == name);
        if let (Some(gate), Json::Obj(map)) = (gate, &plain.provenance) {
            if let Some(rate) = map.get("rate_rps") {
                let text = format!("{} rps", rate.num());
                assert!(
                    gate.get("why").str().contains(&text),
                    "{name}: BENCHMARK.json does not state the rate {text}"
                );
            }
        }

        let traced = run(name, true, None);
        assert_eq!(traced.code, 0, "{name} traced: {}", traced.stderr);
        assert_metrics(name, &traced.result, per_layer);
        assert_percentile_rule(name, &traced.stderr);
    }
}

#[test]
fn planted_defects_fail_the_command() {
    for workload in ["sim-fig3", "serve-short"] {
        for plant in ["wrong-result", "counter-mismatch"] {
            let out = run(workload, false, Some(plant));
            assert_ne!(out.code, 0, "{workload} with {plant} must fail");
            assert!(
                matches!(out.result.get("correct"), Json::Bool(false)),
                "{workload} with {plant} must report incorrect output"
            );
            assert!(out.result.get("failed").num() >= 1.0);
        }
    }
}
