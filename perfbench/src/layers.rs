//! Units of simulated work and the direct per-layer probes the traced
//! run makes around `hfi-wasm`, `hfi-verify`, `hfi-sim` and the sandbox
//! runtime's public functions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hfi_sim::{DecodedProgram, Executor, Functional, Machine, Program, RunRecord, Stop};
use hfi_wasm::compiler::{compile, CompileOptions, Isolation};
use hfi_wasm::kernels::Kernel;
use hfi_wasm::runtime::SandboxRuntime;

use crate::trace::{Tracer, NONE};
use crate::util::{geomean, median, Report};

/// Instruction budget for functional runs of halting kernels.
pub const FUNCTIONAL_LIMIT: u64 = 50_000_000_000;
/// Cycle budget for cycle-core runs.
pub const CYCLE_LIMIT: u64 = 4_000_000_000;
/// Address-space width the serving pools and the runtime probe use.
pub const VA_BITS: u32 = 42;
/// Per-instance heap reservation of the serving pools.
pub const MAX_HEAP: u64 = 64 << 20;

/// One kernel compiled under one isolation scheme: the unit of work of
/// the simulator layers.
pub struct Unit {
    pub label: String,
    pub kernel: Kernel,
    pub opts: CompileOptions,
    pub program: Arc<Program>,
}

impl Unit {
    pub fn prepare(&self, executor: &mut dyn Executor) {
        for (offset, bytes) in &self.kernel.heap_init {
            executor.prepare(self.opts.heap_base + u64::from(*offset), bytes);
        }
    }

    /// Checks a finished run against the kernel's Rust reference.
    pub fn check(&self, stop: Stop, r0: u64, expected: u64) -> Result<(), String> {
        if stop != Stop::Halted {
            return Err(format!("{}: stopped with {stop:?}", self.label));
        }
        if r0 != expected {
            return Err(format!(
                "{}: r0 {r0:#x}, expected {expected:#x}",
                self.label
            ));
        }
        Ok(())
    }
}

/// One timed run of a unit on either executor.
pub struct Run {
    pub stop: Stop,
    pub record: RunRecord,
    pub r0: u64,
    /// Host time of `Executor::run` alone.
    pub run_ns: u64,
}

impl Run {
    pub fn mips(&self) -> f64 {
        self.record.committed as f64 * 1e3 / self.run_ns.max(1) as f64
    }
}

/// Builds a fresh executor of the requested kind, loads the heap image
/// and runs the unit to completion, under a `cell` span with one child
/// span per layer call.
pub fn run_unit(unit: &Unit, cycle: bool, tracer: &mut Tracer) -> Run {
    let request = tracer.new_request();
    let cell = tracer.begin("cell", NONE, request);
    let span = tracer.begin("sim.new", cell, request);
    let mut executor: Box<dyn Executor> = if cycle {
        Box::new(Machine::new(Arc::clone(&unit.program)))
    } else {
        Box::new(Functional::new(Arc::clone(&unit.program)))
    };
    tracer.end(span);
    let span = tracer.begin("sim.prepare", cell, request);
    unit.prepare(executor.as_mut());
    tracer.end(span);
    let span = tracer.begin("sim.run", cell, request);
    let run_start = Instant::now();
    let stop = executor.run(if cycle { CYCLE_LIMIT } else { FUNCTIONAL_LIMIT });
    let run_ns = run_start.elapsed().as_nanos() as u64;
    tracer.end(span);
    let record = executor.stats();
    let r0 = executor.regs()[0];
    tracer.end(cell);
    Run {
        stop,
        record,
        r0,
        run_ns,
    }
}

/// Calls `f` until `budget` has elapsed (at least `min` times).
pub fn repeat(budget: Duration, min: usize, mut f: impl FnMut()) {
    let started = Instant::now();
    let mut n = 0;
    while n < min || started.elapsed() < budget {
        f();
        n += 1;
    }
}

fn time_us(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_nanos() as f64 / 1e3
}

/// Exact cycle-core counters summed over one run per unit, plus the
/// host cost per instruction and per simulated cycle at `mips`.
pub fn report_cycle(records: &[RunRecord], mips: f64, report: &mut Report) {
    let sum = |f: fn(&RunRecord) -> u64| records.iter().map(f).sum::<u64>() as f64;
    let cycles: f64 = records.iter().map(|r| r.cycles).sum();
    let committed = sum(|r| r.committed);
    let ns_per_inst = 1e3 / mips;
    report.put("sim.cycle.ns_per_inst", ns_per_inst, "ns");
    report.put(
        "sim.cycle.ns_per_cycle",
        ns_per_inst * committed / cycles.max(1.0),
        "ns",
    );
    report.put("sim.cycle.cycles", cycles, "count");
    report.put("sim.cycle.committed", committed, "count");
    report.put("sim.cycle.squashed", sum(|r| r.squashed), "count");
    report.put("sim.cycle.mispredicts", sum(|r| r.mispredicts), "count");
    report.put(
        "sim.cycle.rob_stall_cycles",
        sum(|r| r.rob_stall_cycles),
        "count",
    );
    report.put("sim.cycle.l1i_hits", sum(|r| r.l1i_hits), "count");
    report.put("sim.cycle.l1i_misses", sum(|r| r.l1i_misses), "count");
    report.put("sim.cycle.l1d_hits", sum(|r| r.l1d_hits), "count");
    report.put("sim.cycle.l1d_misses", sum(|r| r.l1d_misses), "count");
    report.put("sim.cycle.l2_hits", sum(|r| r.l2_hits), "count");
    report.put("sim.cycle.l2_misses", sum(|r| r.l2_misses), "count");
    report.put("sim.cycle.dtlb_hits", sum(|r| r.dtlb_hits), "count");
    report.put("sim.cycle.dtlb_misses", sum(|r| r.dtlb_misses), "count");
}

/// A round-robin sweep over units on one executor. It is resumable, so
/// a run can interleave its phases in slices and every unit is sampled
/// across the whole run. Every run is checked against the kernel's
/// result and against the unit's first run's counters.
pub struct Sweep<'a> {
    units: Vec<&'a Unit>,
    cycle: bool,
    /// How long one turn of a unit repeats it: the functional sweep runs
    /// each unit once per turn; the cycle sweep repeats short units for
    /// 20 ms, so their fastest repeat comes from many samples, not a few
    /// rounds.
    visit: Duration,
    cursor: usize,
    best_mips: Vec<f64>,
    firsts: Vec<Option<RunRecord>>,
}

impl<'a> Sweep<'a> {
    pub fn new(units: &[&'a Unit], cycle: bool) -> Self {
        Sweep {
            units: units.to_vec(),
            cycle,
            visit: if cycle {
                Duration::from_millis(20)
            } else {
                Duration::ZERO
            },
            cursor: 0,
            best_mips: vec![0.0; units.len()],
            firsts: vec![None; units.len()],
        }
    }

    /// Runs units in turn until `budget` has elapsed, and at least until
    /// every unit ran once.
    pub fn run(
        &mut self,
        budget: Duration,
        expected: &dyn Fn(&Unit) -> u64,
        check: &mut dyn FnMut(Result<(), String>),
        tracer: &mut Tracer,
    ) {
        let started = Instant::now();
        loop {
            if started.elapsed() >= budget && self.firsts.iter().all(Option::is_some) {
                return;
            }
            let i = self.cursor;
            let unit = self.units[i];
            let visit = Instant::now();
            loop {
                let run = run_unit(unit, self.cycle, tracer);
                self.best_mips[i] = self.best_mips[i].max(run.mips());
                let mut verdict = unit.check(run.stop, run.r0, expected(unit));
                match &self.firsts[i] {
                    None => self.firsts[i] = Some(run.record),
                    Some(r) if *r != run.record && verdict.is_ok() => {
                        verdict = Err(format!("{}: counters differ between repeats", unit.label));
                    }
                    Some(_) => {}
                }
                check(verdict);
                if visit.elapsed() >= self.visit {
                    break;
                }
            }
            self.cursor = (i + 1) % self.units.len();
        }
    }

    /// Geomean over units of each unit's fastest sim-MIPS: noise on a
    /// shared host only ever adds time, so the fastest repeat is the
    /// steadiest estimate of the code's own speed.
    pub fn mips(&self) -> f64 {
        geomean(&self.best_mips)
    }

    /// The first run's counters of every unit, in unit order.
    pub fn firsts(&self) -> Vec<RunRecord> {
        self.firsts.iter().flatten().copied().collect()
    }
}

/// Direct timings of the compile, verify and plan layers on `units`:
/// compile with the proof cache warm, a cold `verify_program`, a cached
/// verify, and a cold `DecodedProgram::build`.
pub fn probe_setup_layers(units: &[&Unit], report: &mut Report) {
    let (mut compile_us, mut verify_us, mut cached_us, mut plan_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut transition_ops = 0usize;
    for unit in units {
        transition_ops += unit.program.transition_ops().len();
        compile_us.push(time_us(|| {
            std::hint::black_box(compile(&unit.kernel.func, &unit.opts));
        }));
        if let Some(spec) = hfi_wasm::verify::sandbox_spec(&unit.opts) {
            verify_us.push(time_us(|| {
                let _ = std::hint::black_box(hfi_verify::verify_program(&unit.program, &spec));
            }));
            cached_us.push(time_us(|| {
                let _ =
                    std::hint::black_box(hfi_verify::verify_program_cached(&unit.program, &spec));
            }));
        }
        plan_us.push(time_us(|| {
            std::hint::black_box(DecodedProgram::build(Arc::clone(&unit.program)));
        }));
    }
    report.put("wasm.compile_us", median(&compile_us), "us");
    report.put("wasm.transition_ops", transition_ops as f64, "count");
    report.put("verify.program_us", median(&verify_us), "us");
    report.put("verify.cached_us", median(&cached_us), "us");
    report.put("plan.build_us", median(&plan_us), "us");
}

/// Instance lifecycle and fuel-hook cost on `units`: `Functional::new`,
/// heap image, `reset`; and the same run with and without a fuel hook
/// that never fires, which must also leave every counter unchanged.
pub fn probe_lifecycle(
    units: &[&Unit],
    budget: Duration,
    report: &mut Report,
    check: &mut dyn FnMut(Result<(), String>),
) {
    let (mut new_us, mut reset_us, mut prepare_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plain_sum, mut fuel_sum) = (0.0, 0.0);
    let per_unit = budget / units.len().max(1) as u32;
    for unit in units {
        let (mut plain, mut fueled) = (Vec::new(), Vec::new());
        let mut reference: Option<RunRecord> = None;
        repeat(per_unit, 3, || {
            for with_fuel in [false, true] {
                let mut functional = None;
                new_us.push(time_us(|| {
                    functional = Some(Functional::new(Arc::clone(&unit.program)));
                }));
                let mut functional = functional.expect("constructed");
                prepare_us.push(time_us(|| unit.prepare(&mut functional)));
                if with_fuel {
                    functional.set_fuel(4096, Box::new(|| true));
                }
                let started = Instant::now();
                Executor::run(&mut functional, FUNCTIONAL_LIMIT);
                let ns = started.elapsed().as_nanos() as f64;
                let record = Executor::stats(&functional);
                match &reference {
                    None => reference = Some(record),
                    Some(r) => check(if *r == record {
                        Ok(())
                    } else {
                        Err(format!(
                            "{}: a never-firing fuel hook changed counters",
                            unit.label
                        ))
                    }),
                }
                if with_fuel { &mut fueled } else { &mut plain }.push(ns);
                reset_us.push(time_us(|| functional.reset()));
            }
        });
        plain_sum += median(&plain);
        fuel_sum += median(&fueled);
    }
    report.put("sim.new_us", median(&new_us), "us");
    report.put("sim.reset_us", median(&reset_us), "us");
    report.put("sim.prepare_us", median(&prepare_us), "us");
    report.put(
        "sim.fuel_overhead_pct",
        (fuel_sum / plain_sum.max(1.0) - 1.0) * 100.0,
        "%",
    );
}

/// Sandbox creation cost under `isolation` and the resident capacity of
/// a `VA_BITS` space per scheme with `MAX_HEAP` heaps.
pub fn probe_runtime(isolation: Isolation, report: &mut Report) {
    let fill = |iso: Isolation, times: &mut Vec<f64>| -> usize {
        let mut runtime = SandboxRuntime::new(iso, VA_BITS);
        runtime.set_max_heap(MAX_HEAP);
        let mut n = 0;
        loop {
            let started = Instant::now();
            let created = runtime.create_sandbox(16);
            times.push(started.elapsed().as_nanos() as f64 / 1e3);
            if created.is_err() {
                return n;
            }
            n += 1;
        }
    };
    let mut guard_us = Vec::new();
    let mut hfi_us = Vec::new();
    let guard = fill(Isolation::GuardPages, &mut guard_us);
    let hfi = fill(Isolation::Hfi, &mut hfi_us);
    let times = if isolation == Isolation::GuardPages {
        guard_us
    } else {
        hfi_us
    };
    report.put("mem.create_sandbox_us", median(&times), "us");
    report.put("mem.resident_cap_guard", guard as f64, "count");
    report.put("mem.resident_cap_hfi", hfi as f64, "count");
}
