//! Host-side throughput of the simulator tiers on the Fig. 3 workload —
//! the scaling lever for every figure in the reproduction.
//!
//! Runs the SPEC-like suite under the three Fig. 3 isolation schemes on
//! each executor tier — the cycle `Machine` and the functional
//! interpreter — sequentially (per-core simulated-instruction
//! throughput is the metric; the parallel harness already saturates
//! cores), and emits `BENCH_throughput.json` at the repo root:
//!
//! ```text
//! cargo run --release -p hfi-bench --bin bench_throughput -- --smoke
//! ```
//!
//! Flags (plus the shared harness flags):
//!
//! * `--smoke` / `HFI_SMOKE=1` — first three kernels only (CI).
//! * `--check <baseline.json>` (alias `--baseline`) — gate each tier's
//!   `sim_mips_<tier>` against the baseline ([`hfi_bench::gate::throughput`]).
//! * `--out <path>` — output path (default `BENCH_throughput.json`).

use std::time::Instant;

use hfi_bench::gate::{self, Baseline, TIERS};
use hfi_bench::record::Record;
use hfi_bench::{
    compile_cached, print_table, run_functional_record, run_on_machine, Harness, FIG3_SCHEMES,
};
use hfi_wasm::compiler::CompileOptions;
use hfi_wasm::kernels::speclike;

struct CellResult {
    tier: &'static str,
    kernel: String,
    isolation: String,
    committed: u64,
    cycles: u64,
    host_ns: u64,
}

struct TierResult {
    tier: &'static str,
    committed: u64,
    cycles: u64,
    host_ns: u64,
    sim_mips: f64,
}

fn main() {
    let harness = Harness::from_env("throughput");
    let baseline = Baseline::from_harness(&harness, gate::throughput());

    let kernels = harness.subset(speclike::suite(1), 3);

    // Warm the compile cache so the first timed tier does not pay
    // wasm-compilation costs the later tiers get for free.
    for kernel in &kernels {
        for isolation in FIG3_SCHEMES {
            compile_cached(kernel, &CompileOptions::new(isolation));
        }
    }

    let mut cells = Vec::new();
    for tier in TIERS {
        for kernel in &kernels {
            for isolation in FIG3_SCHEMES {
                let started = Instant::now();
                let (committed, cycles) = match tier {
                    "cycle" => {
                        let run = run_on_machine(kernel, isolation);
                        (run.instructions, run.cycles)
                    }
                    "functional" => {
                        let record = run_functional_record(kernel, isolation);
                        (record.committed, record.cycles as u64)
                    }
                    _ => unreachable!(),
                };
                let host_ns = started.elapsed().as_nanos() as u64;
                cells.push(CellResult {
                    tier,
                    kernel: kernel.name.clone(),
                    isolation: format!("{isolation:?}"),
                    committed,
                    cycles,
                    host_ns,
                });
            }
        }
    }

    let tiers: Vec<TierResult> = TIERS
        .iter()
        .map(|tier| {
            let tier_cells: Vec<&CellResult> = cells.iter().filter(|c| c.tier == *tier).collect();
            let committed: u64 = tier_cells.iter().map(|c| c.committed).sum();
            let cycles: u64 = tier_cells.iter().map(|c| c.cycles).sum();
            let host_ns: u64 = tier_cells.iter().map(|c| c.host_ns).sum::<u64>().max(1);
            TierResult {
                tier,
                committed,
                cycles,
                host_ns,
                sim_mips: committed as f64 / (host_ns as f64 / 1e9) / 1e6,
            }
        })
        .collect();

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let mips = c.committed as f64 / (c.host_ns.max(1) as f64 / 1e9) / 1e6;
            vec![
                c.tier.to_string(),
                c.kernel.clone(),
                c.isolation.clone(),
                c.committed.to_string(),
                format!("{:.1}ms", c.host_ns as f64 / 1e6),
                format!("{mips:.2}"),
            ]
        })
        .collect();
    print_table(
        "Simulator throughput on the Fig. 3 workload (per tier)",
        &[
            "tier",
            "kernel",
            "isolation",
            "committed",
            "host time",
            "sim-MIPS",
        ],
        &rows,
    );
    println!();
    for t in &tiers {
        println!(
            "  {:>10}: {} instructions in {:.1} ms -> {:.2} sim-MIPS",
            t.tier,
            t.committed,
            t.host_ns as f64 / 1e6,
            t.sim_mips
        );
    }
    let cycle = &tiers[0];
    let ns_per_cycle = cycle.host_ns as f64 / cycle.cycles.max(1) as f64;
    println!("  host-ns/cycle (cycle tier): {ns_per_cycle:.1}");

    let mut record = Record::header("throughput", harness.smoke(), harness.seed_or(0));
    for t in &tiers {
        record = record
            .num(format!("sim_mips_{}", t.tier), t.sim_mips, 3)
            .int(format!("total_committed_{}", t.tier), t.committed)
            .int(format!("total_cycles_{}", t.tier), t.cycles)
            .int(format!("total_host_ns_{}", t.tier), t.host_ns);
    }
    let cells = cells
        .iter()
        .map(|c| {
            Record::default()
                .str("tier", c.tier)
                .str("kernel", &c.kernel)
                .str("isolation", &c.isolation)
                .int("committed", c.committed)
                .int("cycles", c.cycles)
                .int("host_ns", c.host_ns)
        })
        .collect();
    record = record
        .num("host_ns_per_cycle", ns_per_cycle, 3)
        .rows("cells", cells);
    let out = harness.out_or("BENCH_throughput.json");
    record.write(out).expect("write throughput json");
    eprintln!("[throughput] wrote {out}");

    if baseline.is_some_and(|b| !b.check(&record)) {
        std::process::exit(1);
    }
}
