//! The `BENCH_*.json` record format and its baseline gate: writer ⇄
//! reader round trips, every gate at its bound, and the committed
//! baselines gated against themselves.

use std::path::PathBuf;

use hfi_bench::gate::{self, Baseline, Direction, Gate};
use hfi_bench::record::Record;

/// A scratch file unique to one test (tests run in parallel).
fn scratch(name: &str, contents: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("record_gate-{name}.json"));
    std::fs::write(&path, contents).expect("write scratch file");
    path.to_string_lossy().into_owned()
}

fn committed(file: &str) -> String {
    format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn write_then_read_round_trips_every_key() {
    let nasty = "quote\" back\\ slash/ nl\n tab\t cr\r ctrl\u{1} \u{7f} é 🦀";
    let row = Record::default()
        .str("s", nasty)
        .int("n", 3)
        .num("x", -0.5, 3);
    let record = Record::header("figX", true, u64::MAX)
        .int("zero", 0)
        .int("big", 6_482_862_883)
        .num("neg", -1.25, 2)
        .num("tiny", 1.5e-7, 10)
        .num("whole", 111.604, 3)
        .str(nasty, nasty)
        .str("empty", "")
        .rows("cells", vec![row.clone(), Record::default(), row])
        .rows("none", Vec::new());
    let text = record.to_string();
    assert_eq!(Record::parse(&text), Ok(record.clone()), "{text}");
    // Pretty-printed JSON with blanks between tokens reads the same.
    let spaced = text.replace(",\"", " ,\n \"").replace(':', " : ");
    assert_eq!(Record::parse(&spaced), Ok(record.clone()));

    let parsed = Record::parse(&text).expect("round trip parses");
    assert_eq!(parsed.number("seed"), Some(u64::MAX as f64));
    assert_eq!(parsed.number("neg"), Some(-1.25));
    assert_eq!(parsed.number("tiny"), Some(1.5e-7));
    assert_eq!(parsed.number("figure"), None, "a string is not a number");
    assert_eq!(parsed.number("absent"), None);
    assert!(text.starts_with(
        "{\"figure\":\"figX\",\"mode\":\"smoke\",\"seed\":18446744073709551615,\"nproc\":"
    ));

    // NaN and infinities are written as such and read back as numbers.
    let odd = Record::default()
        .num("nan", f64::NAN, 3)
        .num("inf", f64::INFINITY, 1)
        .num("ninf", f64::NEG_INFINITY, 1);
    let back = Record::parse(&odd.to_string()).expect("non-finite values parse");
    assert!(back.number("nan").is_some_and(f64::is_nan));
    assert_eq!(back.number("inf"), Some(f64::INFINITY));
    assert_eq!(back.number("ninf"), Some(f64::NEG_INFINITY));

    // Exponent forms (hand-edited or foreign baselines) read, and
    // survive a rewrite.
    let foreign =
        Record::parse(r#"{"a":-1.5e3,"b":2E-2,"c":1e300,"d":"\u00e9\/"}"#).expect("parses");
    assert_eq!(foreign.number("a"), Some(-1500.0));
    assert_eq!(foreign.number("b"), Some(0.02));
    assert_eq!(foreign.number("c"), Some(1e300));
    let again = Record::parse(&foreign.to_string()).expect("rewrite parses");
    for key in ["a", "b", "c"] {
        assert_eq!(again.number(key), foreign.number(key), "{key}");
    }
    assert_eq!(again, foreign);
}

#[test]
fn malformed_records_are_errors() {
    for bad in [
        "",
        "{",
        "{\"a\":}",
        "{\"a\":1,}",
        "{\"a\":1}x",
        "{\"a\" 1}",
        "{\"a\":\"open}",
        "{\"a\":\"\\q\"}",
        "{\"a\":\"\\u12\"}",
        "{\"a\":12abc}",
        "[1]",
    ] {
        assert!(Record::parse(bad).is_err(), "{bad:?} must not parse");
    }
}

/// Asserts `gate` holds at both ends of its interval and fails just
/// past each finite end, and that its bounds equal `expected`.
fn pin(gate: &Gate, base: f64, expected: (f64, f64)) {
    let (lo, hi) = gate.bounds(base);
    assert_eq!((lo, hi), expected, "{}", gate.key);
    for edge in [lo, hi].into_iter().filter(|v| v.is_finite()) {
        assert!(gate.holds(base, edge), "{} at its bound {edge}", gate.key);
    }
    if lo.is_finite() {
        assert!(!gate.holds(base, lo.next_down()), "{} below {lo}", gate.key);
    }
    if hi.is_finite() {
        assert!(!gate.holds(base, hi.next_up()), "{} above {hi}", gate.key);
    }
    assert!(!gate.holds(base, f64::NAN), "{}: NaN must fail", gate.key);
}

fn find<'a>(gates: &'a [Gate], key: &str) -> &'a Gate {
    gates.iter().find(|g| g.key == key).expect("gate declared")
}

#[test]
fn every_gate_holds_at_its_bound_and_fails_just_past_it() {
    let inf = f64::INFINITY;
    // bench_throughput: sim-MIPS may drop 20%, per tier.
    let throughput = gate::throughput();
    assert_eq!(throughput.len(), 2);
    for key in ["sim_mips_cycle", "sim_mips_functional"] {
        let g = find(&throughput, key);
        assert_eq!(g.direction, Direction::Higher);
        pin(g, 111.604, (111.604 * (1.0 - 0.20), inf));
    }

    // serve_bench: p99 may grow 50% + 5 ms; achieved rps may drop 50%.
    let serving = gate::serving(false);
    assert_eq!(serving.len(), 6);
    for scheme in ["guardpages", "boundschecks", "hfi"] {
        let p99 = find(&serving, &format!("p99_ms_{scheme}"));
        pin(p99, 0.314, (-inf, 0.314 * (1.0 + 0.50) + 5.0));
        let rps = find(&serving, &format!("achieved_rps_{scheme}"));
        pin(rps, 471.2, (471.2 * (1.0 - 0.50), inf));
    }
    let degrade = gate::serving(true);
    assert_eq!(degrade.len(), 8);
    for mult in ["05x", "1x"] {
        let g = find(&degrade, &format!("degrade_faulty_{mult}_healthy_p99_ms"));
        pin(g, 5.46, (-inf, 5.46 * (1.0 + 0.50) + 5.0));
    }

    // micro_transitions: functional round trips exact, cycle ±25%.
    let transitions = gate::transitions();
    assert_eq!(transitions.len(), 12);
    for scheme in hfi_core::TransitionScheme::ALL {
        let func = find(&transitions, &format!("rt_func_{}", scheme.label()));
        pin(func, 26.0, (26.0, 26.0));
        assert!(!func.holds(26.0, 27.0) && !func.holds(26.0, 25.0));
        let cycle = find(&transitions, &format!("rt_cycle_{}", scheme.label()));
        pin(cycle, 134.0, (134.0 * 0.75, 134.0 * 1.25));
    }
}

#[test]
fn a_key_the_run_did_not_write_fails_the_gate() {
    let path = scratch(
        "missing-measurement",
        "{\"sim_mips_cycle\":4,\"sim_mips_functional\":100}",
    );
    let baseline = Baseline::load(&path, gate::throughput()).expect("baseline loads");
    let partial = Record::default().num("sim_mips_cycle", 4.0, 3);
    assert!(
        !baseline.check(&partial),
        "absent key reads NaN, which fails"
    );
    let nan = partial.clone().num("sim_mips_functional", f64::NAN, 3);
    assert!(!baseline.check(&nan));
    let full = partial.num("sim_mips_functional", 100.0, 3);
    assert!(baseline.check(&full));
}

#[test]
fn unreadable_baselines_and_missing_keys_are_errors() {
    let gates = gate::throughput;
    let nowhere = format!("{}/no-such-baseline.json", env!("CARGO_TARGET_TMPDIR"));
    assert!(Baseline::load(&nowhere, gates()).is_err());
    let malformed = scratch("malformed", "{\"sim_mips_cycle\":4,");
    assert!(Baseline::load(&malformed, gates()).is_err());
    let missing = scratch("missing-key", "{\"sim_mips_cycle\":4}");
    let err = Baseline::load(&missing, gates()).expect_err("a missing key is an error");
    assert!(err.contains("sim_mips_functional"), "{err}");
    let nan = scratch(
        "nan-key",
        "{\"sim_mips_cycle\":4,\"sim_mips_functional\":NaN}",
    );
    assert!(
        Baseline::load(&nan, gates()).is_err(),
        "NaN cannot anchor a gate"
    );
    let text = scratch(
        "string-key",
        "{\"sim_mips_cycle\":4,\"sim_mips_functional\":\"9\"}",
    );
    assert!(Baseline::load(&text, gates()).is_err());
    // The degrade keys are required exactly when the sweep runs.
    let serving = committed("BENCH_serving.json");
    let text = std::fs::read_to_string(&serving).expect("committed serving baseline");
    let cut = text.replace("degrade_faulty_1x_healthy_p99_ms", "renamed");
    let predates = scratch("predates-degrade", &cut);
    assert!(Baseline::load(&predates, gate::serving(false)).is_ok());
    assert!(Baseline::load(&predates, gate::serving(true)).is_err());
}

#[test]
fn the_baseline_is_read_once_before_the_run_writes_its_output() {
    // `--check X --out X`: the gate must judge against X as it was
    // before the run, not against the record the run just wrote there.
    let path = scratch("self-compare", "{}");
    let committed = std::fs::read_to_string(committed("BENCH_serving.json")).expect("baseline");
    let poisoned = committed.replace(
        "\"degrade_faulty_05x_healthy_p99_ms\":5.460",
        "\"degrade_faulty_05x_healthy_p99_ms\":-100",
    );
    assert_ne!(poisoned, committed);
    std::fs::write(&path, &poisoned).expect("write baseline");
    let baseline = Baseline::load(&path, gate::serving(true)).expect("loads");
    let run = Record::parse(&committed).expect("committed record parses");
    run.write(&path)
        .expect("the run overwrites the baseline path");
    assert!(
        !baseline.check(&run),
        "-100 ms must fail against the loaded baseline"
    );
}

#[test]
fn committed_baselines_parse_and_pass_against_themselves() {
    for (file, gates, figure) in [
        ("BENCH_throughput.json", gate::throughput(), "throughput"),
        ("BENCH_transitions.json", gate::transitions(), "transitions"),
        ("BENCH_serving.json", gate::serving(true), "serving"),
    ] {
        let path = committed(file);
        let text = std::fs::read_to_string(&path).expect("committed baseline readable");
        let record = Record::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            record.to_string() + "\n",
            text,
            "{file} re-renders byte for byte"
        );
        assert!(
            text.contains(&format!("{{\"figure\":\"{figure}\"")),
            "{file}"
        );
        let baseline = Baseline::load(&path, gates).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(baseline.check(&record), "{file} must pass against itself");
    }
}
