//! The `serve-*` workloads: one process, one scheduler worker, and a
//! load generator that is the only other thread.
//!
//! Each run has an open-loop phase (Poisson arrivals at the fixed rate
//! below, latency timed from each request's due time) and a closed-loop
//! phase (more requests in flight than workers, the client polling for
//! completions without sleeping) that measures capacity. The seed draws
//! the arrivals and the tenant of every request; the program only sees
//! the generated requests. Both phases serve a fixed number of requests
//! for a given seed and `--seconds`, so the memory high-water mark read
//! after them describes a fixed amount of work.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hfi_chaos::PanicHook;
use hfi_serve::{
    AdmitPolicy, Completion, Outcome as Served, Request, Scheduler, ServeConfig, TenantSpec, Tier,
    WarmPools,
};
use hfi_sim::{plan_of, Executor, Functional, Program, ProgramBuilder, Reg, RunRecord, Stop};
use hfi_util::Rng;
use hfi_wasm::compiler::{CompileOptions, Isolation, VerifyVerdict};
use hfi_wasm::kernels::{sightglass, Kernel};

use crate::layers::{
    probe_lifecycle, probe_runtime, probe_setup_layers, report_cycle, Sweep, Unit,
    FUNCTIONAL_LIMIT, MAX_HEAP, VA_BITS,
};
use crate::trace::{Tracer, NONE};
use crate::util::{
    cold_start, compile_memo, geomean, interquartile_mean, median, peak_rss_mb, percentile, share,
    Ledger, Report,
};
use crate::{Args, Outcome, Plant, SETUP_GAP, SETUP_REPEATS, SLICES};

/// Open-loop offered rates, requests per second. Fixed here (and in
/// `BENCHMARK.json`), never derived from a measurement at run time, so
/// latency compares across commits.
pub const RATE_SHORT_RPS: f64 = 5000.0;
pub const RATE_CHURN_RPS: f64 = 5000.0;
pub const RATE_ROGUE_RPS: f64 = 400.0;

/// Closed-loop requests per second of run time: each closed-loop window
/// serves this rate × its share of `--seconds`, whatever the host's
/// speed. Near the capacity measured on a 2-vCPU host, so the windows
/// take roughly their share of the run there.
const CLOSED_SHORT_RPS: f64 = 80_000.0;
const CLOSED_CHURN_RPS: f64 = 75_000.0;
const CLOSED_ROGUE_RPS: f64 = 2_000.0;

/// Healthy tenants of every serving workload.
pub const TENANTS: usize = 1200;
/// Share of `serve-rogue` arrivals sent to the tenant that panics.
pub const ROGUE_SHARE: f64 = 0.02;
/// Every this-many-th `serve-rogue` arrival is a runaway program.
pub const RUNAWAY_EVERY: usize = 32;
const RUNAWAY_DEADLINE: Duration = Duration::from_millis(5);
const HEALTHY_DEADLINE: Duration = Duration::from_millis(250);
/// Zipf exponent of `serve-churn` popularity.
pub const ZIPF_S: f64 = 1.0;
/// Scheduler workers of every serving workload.
pub const WORKERS: usize = 1;
/// Requests the closed-loop client keeps in flight.
const IN_FLIGHT: usize = 16;
/// Chunks a closed-loop window's requests are cut into for
/// `capacity_rps` (the last, partial chunk of a window is dropped).
const CLOSED_CHUNKS: usize = 10;
/// The generator sleeps until this long before a due time, then spins.
const SPIN_NS: u64 = 100_000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Short,
    Churn,
    Rogue,
}

impl Kind {
    fn rate(self) -> f64 {
        match self {
            Kind::Short => RATE_SHORT_RPS,
            Kind::Churn => RATE_CHURN_RPS,
            Kind::Rogue => RATE_ROGUE_RPS,
        }
    }

    fn closed_rps(self) -> f64 {
        match self {
            Kind::Short => CLOSED_SHORT_RPS,
            Kind::Churn => CLOSED_CHURN_RPS,
            Kind::Rogue => CLOSED_ROGUE_RPS,
        }
    }

    fn isolation(self) -> Isolation {
        match self {
            Kind::Churn => Isolation::GuardPages,
            _ => Isolation::Hfi,
        }
    }

    fn kernels(self) -> Vec<Kernel> {
        match self {
            Kind::Rogue => sightglass::suite(1),
            _ => vec![sightglass::fib2(1), sightglass::ackermann(1)],
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Healthy(usize),
    Rogue,
    Runaway,
}

/// The tenant table, the warm pools over it, and per-kernel programs.
struct Tenancy {
    pools: Arc<WarmPools>,
    class_of: Vec<Class>,
    units: Vec<Unit>,
    provision_errors: Vec<String>,
    proven: bool,
}

/// A program that never halts: the runaway tenant.
fn runaway_program() -> Arc<Program> {
    let mut asm = ProgramBuilder::new(0x40_0000);
    asm.movi(Reg(0), 0);
    let top = asm.label();
    asm.place(top);
    asm.alu_ri(hfi_sim::AluOp::Add, Reg(0), Reg(0), 1);
    asm.jump(top);
    asm.halt();
    Arc::new(asm.finish())
}

/// Kernel construction, compile + verify, plan, tenant table, pools,
/// and provisioning of every tenant, from a cold compile memo and proof
/// cache.
fn setup(kind: Kind, tracer: &mut Tracer) -> Tenancy {
    cold_start();
    let root = tracer.begin("setup", NONE, 0);
    let span = tracer.begin("setup.kernels", root, 0);
    let kernels = kind.kernels();
    tracer.end(span);
    let opts = CompileOptions::new(kind.isolation());
    let mut units = Vec::new();
    let mut proven = true;
    for kernel in &kernels {
        let span = tracer.begin("setup.compile", root, 0);
        let compiled = compile_memo(kernel, &opts);
        tracer.end(span);
        let span = tracer.begin("setup.plan", root, 0);
        plan_of(&compiled.program);
        tracer.end(span);
        if kind.isolation() == Isolation::Hfi && compiled.verified() != Some(true) {
            proven = false;
        }
        units.push(Unit {
            label: format!("{}/{:?}", kernel.name, opts.isolation),
            kernel: kernel.clone(),
            opts,
            program: compiled.program,
        });
    }
    let span = tracer.begin("setup.tenants", root, 0);
    let mut tenants = Vec::new();
    let mut class_of = Vec::new();
    for i in 0..TENANTS {
        let k = i % kernels.len();
        tenants.push(TenantSpec::from_kernel(
            format!("{}#{i}", kernels[k].name),
            kernels[k].clone(),
            opts,
            Tier::Functional,
            compile_memo,
        ));
        class_of.push(Class::Healthy(k));
    }
    if kind == Kind::Rogue {
        tenants.push(TenantSpec::from_kernel(
            "rogue#panics".into(),
            kernels[0].clone(),
            opts,
            Tier::Functional,
            compile_memo,
        ));
        class_of.push(Class::Rogue);
        let program = runaway_program();
        let verdict =
            match hfi_verify::verify_program(&program, &hfi_verify::SandboxSpec::new("runaway")) {
                Ok(proof) => VerifyVerdict::Proven(Arc::new(proof)),
                Err(violations) => VerifyVerdict::Rejected(violations),
            };
        let span = tracer.begin("setup.plan", root, 0);
        plan_of(&program);
        tracer.end(span);
        tenants.push(TenantSpec::from_program(
            "rogue#runaway".into(),
            program,
            verdict,
            Isolation::Hfi,
            Tier::Functional,
            opts.heap_base,
            Vec::new(),
            None,
        ));
        class_of.push(Class::Runaway);
    }
    // Guard-page tenants carry no proof (the MMU is their contract).
    let policy = if kind.isolation() == Isolation::GuardPages {
        AdmitPolicy::VerifiedOrExempt
    } else {
        AdmitPolicy::RequireVerified
    };
    let pools = Arc::new(WarmPools::new(Arc::new(tenants), VA_BITS, MAX_HEAP, policy));
    tracer.end(span);
    let span = tracer.begin("setup.provision", root, 0);
    let mut provision_errors = Vec::new();
    for tenant in 0..class_of.len() {
        if let Err(e) = pools.provision(tenant) {
            provision_errors.push(format!("tenant {tenant}: provisioning failed: {e}"));
        }
    }
    tracer.end(span);
    tracer.end(root);
    Tenancy {
        pools,
        class_of,
        units,
        provision_errors,
        proven,
    }
}

/// The generated request stream: tenant choice by the workload's
/// popularity, plus the rogue and runaway shares of `serve-rogue`.
///
/// Uniform popularity is drawn stratified by kernel: healthy tenant `i`
/// runs kernel `i % kernels`, and arrivals take the kernels in shuffled
/// rounds of one each, then a uniform tenant of that kernel. Every tenant
/// is still equally likely, but every stretch of arrivals carries the
/// kernel mix exactly, so a latency percentile that falls between two
/// kernels' run times does not jump with the mix a seed happens to draw.
struct Picker {
    rng: Rng,
    kind: Kind,
    /// Zipf CDF over popularity ranks, and the rank → tenant map.
    cdf: Vec<f64>,
    rank_to_tenant: Vec<usize>,
    kernels: usize,
    /// Kernels left in the current round.
    round: Vec<usize>,
    n: usize,
}

impl Picker {
    fn new(kind: Kind, seed: u64, kernels: usize) -> Self {
        assert_eq!(TENANTS % kernels, 0, "every kernel needs as many tenants");
        let mut rng = Rng::new(seed);
        let mut shuffled: Vec<usize> = (0..TENANTS).collect();
        for i in (1..TENANTS).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }
        // Zipf ranks take the kernels in turn (rank r runs kernel
        // r % kernels), so the seed moves popularity between tenants but
        // not between kernels.
        let mut of_kernel = vec![Vec::new(); kernels];
        for tenant in shuffled {
            of_kernel[tenant % kernels].push(tenant);
        }
        let rank_to_tenant: Vec<usize> = (0..TENANTS)
            .map(|rank| of_kernel[rank % kernels][rank / kernels])
            .collect();
        let mut cdf = Vec::with_capacity(TENANTS);
        let mut acc = 0.0;
        for rank in 1..=TENANTS {
            acc += 1.0 / (rank as f64).powf(ZIPF_S);
            cdf.push(acc);
        }
        cdf.iter_mut().for_each(|c| *c /= acc);
        Picker {
            rng,
            kind,
            cdf,
            rank_to_tenant,
            kernels,
            round: Vec::new(),
            n: 0,
        }
    }

    fn next(&mut self) -> usize {
        self.n += 1;
        if self.kind == Kind::Rogue {
            if self.n.is_multiple_of(RUNAWAY_EVERY) {
                return TENANTS + 1;
            }
            if self.rng.f64() < ROGUE_SHARE {
                return TENANTS;
            }
        }
        if self.kind == Kind::Churn {
            let u = self.rng.f64();
            let rank = self.cdf.partition_point(|c| *c < u).min(TENANTS - 1);
            self.rank_to_tenant[rank]
        } else {
            if self.round.is_empty() {
                self.round = (0..self.kernels).collect();
                for i in (1..self.kernels).rev() {
                    self.round.swap(i, self.rng.below(i as u64 + 1) as usize);
                }
            }
            let kernel = self.round.pop().expect("refilled");
            kernel + self.kernels * self.rng.below((TENANTS / self.kernels) as u64) as usize
        }
    }

    /// Poisson arrivals at `rate` over `span` of virtual time:
    /// (offset from phase start in ns, tenant).
    fn arrivals(&mut self, rate: f64, span: Duration) -> Vec<(u64, usize)> {
        let mean_gap = 1e9 / rate;
        let mut out = Vec::new();
        let mut at = 0u64;
        loop {
            let gap = -(1.0 - self.rng.f64()).ln() * mean_gap;
            at += (gap as u64).max(1);
            if at >= span.as_nanos() as u64 {
                return out;
            }
            let tenant = self.next();
            out.push((at, tenant));
        }
    }
}

/// What was sent, keyed by the request's unique `arrival_ns`.
#[derive(Clone, Copy)]
struct Sent {
    due_ns: u64,
    submit_ns: u64,
    class: Class,
    open: bool,
}

/// Per-request scheduler stamps of the traced open-loop phase.
#[derive(Clone, Copy)]
struct Stamp {
    index: usize,
    due_ns: u64,
    submit_ns: u64,
    start_ns: u64,
    finish_ns: u64,
    setup_ns: u64,
    service_ns: u64,
    drained_ns: u64,
    warm: bool,
    healthy_ok: bool,
}

/// Everything the completion stream tells us, checked as it arrives.
#[derive(Default)]
struct Tally {
    sent: HashMap<u64, (usize, Sent)>,
    offered: u64,
    classes: HashMap<&'static str, u64>,
    /// Healthy, correct, open-loop latencies (due → finish), ms.
    latencies_ms: Vec<f64>,
    lateness_us: Vec<f64>,
    /// Closed loop: the window in progress is cut into chunks of
    /// `closed_chunk` correct healthy completions; `closed_rates` holds
    /// each full chunk's completions per second, timed from the finish
    /// that closed the previous chunk (or the window's start) to its own
    /// last finish, on the scheduler clock.
    closed_chunk: u64,
    closed_in_chunk: u64,
    closed_mark_ns: u64,
    closed_rates: Vec<f64>,
    /// Per kernel, the fastest closed-loop run: committed instructions
    /// per µs of `service_ns`.
    best_mips: Vec<f64>,
    cancel_late_us: Vec<f64>,
    panicked: u64,
    stamps: Vec<Stamp>,
    cold_healthy: u64,
}

fn class_name(outcome: &Served) -> &'static str {
    match outcome {
        Served::Done { .. } => "done",
        Served::Rejected { .. } => "rejected",
        Served::Overloaded => "overloaded",
        Served::DeadlineExceeded { ran: true } => "deadline_ran",
        Served::DeadlineExceeded { ran: false } => "deadline_queued",
        Served::CircuitOpen => "circuit_open",
        Served::Panicked { .. } => "panicked",
        Served::Shed => "shed",
    }
}

/// Expected results per kernel: `r0` from the Rust reference and the
/// full counter record of a fresh reference run.
struct Expect {
    r0: Vec<u64>,
    records: Vec<RunRecord>,
}

impl Tally {
    fn send(&mut self, index: usize, arrival_ns: u64, sent: Sent) {
        self.offered += 1;
        if sent.open {
            self.lateness_us
                .push(sent.submit_ns.saturating_sub(sent.due_ns) as f64 / 1e3);
        }
        self.sent.insert(arrival_ns, (index, sent));
    }

    fn take(&mut self, c: &Completion, drained_ns: u64, expect: &Expect, ledger: &mut Ledger) {
        let Some((index, sent)) = self.sent.remove(&c.arrival_ns) else {
            ledger.violate(format!("completion for unknown arrival {}", c.arrival_ns));
            return;
        };
        *self.classes.entry(class_name(&c.outcome)).or_default() += 1;
        let verdict = match (sent.class, &c.outcome) {
            (Class::Healthy(k), Served::Done { stop, record, r0 }) => {
                if *stop != Stop::Halted || *r0 != expect.r0[k] {
                    Err(format!(
                        "tenant {}: {stop:?} r0={r0:#x}, expected {:#x}",
                        c.tenant, expect.r0[k]
                    ))
                } else if **record != expect.records[k] {
                    Err(format!(
                        "tenant {}: counters differ from the reference run",
                        c.tenant
                    ))
                } else {
                    Ok(())
                }
            }
            (Class::Healthy(_), other) => Err(format!(
                "healthy tenant {} ended {}",
                c.tenant,
                class_name(other)
            )),
            (Class::Rogue, Served::Panicked { .. } | Served::CircuitOpen) => Ok(()),
            (Class::Runaway, Served::DeadlineExceeded { .. }) => Ok(()),
            (class, other) => Err(format!("{class:?} request ended {}", class_name(other))),
        };
        if matches!(c.outcome, Served::Panicked { .. }) {
            self.panicked += 1;
        }
        if sent.class == Class::Runaway
            && matches!(c.outcome, Served::DeadlineExceeded { ran: true })
        {
            let due = sent.submit_ns + RUNAWAY_DEADLINE.as_nanos() as u64;
            self.cancel_late_us
                .push(c.finish_ns.saturating_sub(due) as f64 / 1e3);
        }
        let healthy_ok = matches!(sent.class, Class::Healthy(_)) && verdict.is_ok();
        if healthy_ok && !c.warm {
            self.cold_healthy += 1;
        }
        if healthy_ok && sent.open {
            self.latencies_ms
                .push(c.finish_ns.saturating_sub(sent.due_ns) as f64 / 1e6);
        }
        if let (true, false, Class::Healthy(k), Served::Done { record, .. }) =
            (healthy_ok, sent.open, sent.class, &c.outcome)
        {
            self.closed_in_chunk += 1;
            if self.closed_in_chunk == self.closed_chunk {
                let ns = c.finish_ns.saturating_sub(self.closed_mark_ns).max(1);
                self.closed_rates
                    .push(self.closed_chunk as f64 * 1e9 / ns as f64);
                self.closed_mark_ns = c.finish_ns;
                self.closed_in_chunk = 0;
            }
            if self.best_mips.len() <= k {
                self.best_mips.resize(k + 1, 0.0);
            }
            let mips = record.committed as f64 * 1e3 / c.service_ns.max(1) as f64;
            self.best_mips[k] = self.best_mips[k].max(mips);
        }
        if sent.open && c.outcome != Served::Shed {
            self.stamps.push(Stamp {
                index,
                due_ns: sent.due_ns,
                submit_ns: sent.submit_ns,
                start_ns: c.start_ns,
                finish_ns: c.finish_ns,
                setup_ns: c.setup_ns,
                service_ns: c.service_ns,
                drained_ns,
                warm: c.warm,
                healthy_ok,
            });
        }
        ledger.check(verdict);
    }
}

fn request(kind: Kind, class: Class, tenant: usize, arrival_ns: u64) -> Request {
    Request {
        tenant,
        arrival_ns,
        limit: if class == Class::Runaway {
            u64::MAX
        } else {
            FUNCTIONAL_LIMIT
        },
        deadline: match class {
            Class::Runaway => Some(RUNAWAY_DEADLINE),
            _ if kind == Kind::Rogue => Some(HEALTHY_DEADLINE),
            _ => None,
        },
        chaos: if class == Class::Rogue {
            Some(Box::new(PanicHook::new(0)))
        } else {
            None
        },
    }
}

fn drain(sched: &Scheduler, tally: &mut Tally, expect: &Expect, ledger: &mut Ledger) -> usize {
    let done = sched.drain_completions();
    let drained_ns = sched.now_ns();
    for c in &done {
        tally.take(c, drained_ns, expect, ledger);
    }
    done.len()
}

/// Waits for every submitted request, draining as they finish.
fn settle(sched: &Scheduler, tally: &mut Tally, expect: &Expect, ledger: &mut Ledger) {
    let give_up = Instant::now() + Duration::from_secs(60);
    while sched.pending() > 0 && Instant::now() < give_up {
        drain(sched, tally, expect, ledger);
        std::thread::sleep(Duration::from_micros(100));
    }
    drain(sched, tally, expect, ledger);
}

/// Open loop: submit each arrival at its due time. The generator
/// sleeps until `SPIN_NS` before the due time and spins the rest;
/// `continuous` drains on every pass (the traced run times delivery).
#[allow(clippy::too_many_arguments)]
fn open_loop(
    kind: Kind,
    sched: &Scheduler,
    arrivals: &[(u64, usize)],
    class_of: &[Class],
    continuous: bool,
    tally: &mut Tally,
    expect: &Expect,
    ledger: &mut Ledger,
) {
    let base = sched.now_ns() + 2_000_000;
    for (index, &(offset, tenant)) in arrivals.iter().enumerate() {
        let due_ns = base + offset;
        loop {
            let now = sched.now_ns();
            if now >= due_ns {
                break;
            }
            if continuous {
                drain(sched, tally, expect, ledger);
            }
            let gap = due_ns - now;
            if gap > SPIN_NS {
                if !continuous {
                    drain(sched, tally, expect, ledger);
                }
                let left = due_ns.saturating_sub(sched.now_ns());
                if left > SPIN_NS {
                    // Traced: short naps, so delivery is timed to ~50us.
                    let nap = left - SPIN_NS;
                    let nap = if continuous { nap.min(50_000) } else { nap };
                    std::thread::sleep(Duration::from_nanos(nap));
                }
            } else {
                std::hint::spin_loop();
            }
        }
        let class = class_of[tenant];
        let submit_ns = sched.now_ns();
        tally.send(
            index,
            due_ns,
            Sent {
                due_ns,
                submit_ns,
                class,
                open: true,
            },
        );
        sched.submit(request(kind, class, tenant, due_ns));
    }
    settle(sched, tally, expect, ledger);
}

/// Closed loop: serve `requests` requests with `IN_FLIGHT` outstanding,
/// polling completions without sleeping.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    kind: Kind,
    sched: &Scheduler,
    picker: &mut Picker,
    class_of: &[Class],
    requests: usize,
    tally: &mut Tally,
    expect: &Expect,
    ledger: &mut Ledger,
) {
    let start = sched.now_ns();
    tally.closed_chunk = (requests / CLOSED_CHUNKS).max(1) as u64;
    tally.closed_in_chunk = 0;
    tally.closed_mark_ns = start;
    let mut in_flight = 0usize;
    let mut last_arrival = 0u64;
    let mut index = 0usize;
    while index < requests {
        if in_flight < IN_FLIGHT {
            let tenant = picker.next();
            let class = class_of[tenant];
            let now = sched.now_ns();
            let arrival_ns = now.max(last_arrival + 1);
            last_arrival = arrival_ns;
            tally.send(
                index,
                arrival_ns,
                Sent {
                    due_ns: arrival_ns,
                    submit_ns: now,
                    class,
                    open: false,
                },
            );
            index += 1;
            sched.submit(request(kind, class, tenant, arrival_ns));
            in_flight += 1;
        } else {
            match drain(sched, tally, expect, ledger) {
                // Nothing finished: a few pause hints, so the poll loop
                // eases off a hyperthread sibling the worker may share.
                0 => (0..8).for_each(|_| std::hint::spin_loop()),
                n => in_flight -= n,
            }
        }
    }
    settle(sched, tally, expect, ledger);
}

/// Reference results per kernel, from a fresh functional run each.
fn expectations(units: &[Unit], plant: Option<Plant>, ledger: &mut Ledger) -> Expect {
    let mut r0 = Vec::new();
    let mut records = Vec::new();
    for unit in units {
        let mut functional = Functional::new(Arc::clone(&unit.program));
        unit.prepare(&mut functional);
        let stop = Executor::run(&mut functional, FUNCTIONAL_LIMIT);
        ledger.check(unit.check(stop, functional.regs()[0], unit.kernel.expected));
        r0.push(unit.kernel.expected);
        records.push(Executor::stats(&functional));
    }
    match plant {
        Some(Plant::WrongResult) => r0[0] += 1,
        Some(Plant::CounterMismatch) => records[0].committed += 1,
        None => {}
    }
    Expect { r0, records }
}

/// Checks that every offered request came back exactly once.
fn check_accounting(tally: &Tally, ledger: &mut Ledger) {
    let returned: u64 = tally.classes.values().sum();
    if returned != tally.offered || !tally.sent.is_empty() {
        ledger.violate(format!(
            "offered {} requests, {} came back, {} never did",
            tally.offered,
            returned,
            tally.sent.len()
        ));
    }
}

/// Single-threaded replay of `arrivals` straight through the pools'
/// public functions, with a `request` span around each and one child
/// span per call. Returns per-request (warm, checkout + run ns) of
/// healthy requests, indexed like `arrivals`.
#[allow(clippy::too_many_arguments)]
fn replay(
    tenancy: &Tenancy,
    arrivals: &[(u64, usize)],
    expect: &Expect,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    report: &mut Report,
) -> Vec<Option<(bool, u64)>> {
    let pools = &tenancy.pools;
    let before = pools.stats();
    let (mut committed, mut cycles, mut checks, mut branches, mut run_ns) =
        (0u64, 0.0f64, 0u64, 0u64, 0u64);
    let mut direct = Vec::with_capacity(arrivals.len());
    for &(_, tenant) in arrivals {
        let class = tenancy.class_of[tenant];
        let id = tracer.new_request();
        let root = tracer.begin("request", NONE, id);
        let span = tracer.begin("pool.checkout", root, id);
        let t0 = Instant::now();
        let lease = pools.checkout(tenant);
        let checkout_ns = t0.elapsed().as_nanos() as u64;
        let mut lease = match lease {
            Ok(lease) => lease,
            Err(e) => {
                tracer.end(span);
                tracer.end(root);
                ledger.check(Err(format!("replay checkout of tenant {tenant}: {e}")));
                direct.push(None);
                continue;
            }
        };
        let warm = lease.warm;
        tracer.end_as(
            span,
            if warm {
                "pool.checkout_warm"
            } else {
                "pool.checkout_cold"
            },
        );
        if let Some(functional) = lease.instance.functional_mut() {
            match class {
                Class::Rogue => functional.set_chaos(Box::new(PanicHook::new(0))),
                Class::Runaway => {
                    let at = Instant::now() + RUNAWAY_DEADLINE;
                    functional.set_fuel(4096, Box::new(move || Instant::now() < at));
                }
                Class::Healthy(_) => {}
            }
        }
        let limit = if class == Class::Runaway {
            u64::MAX
        } else {
            FUNCTIONAL_LIMIT
        };
        let span = tracer.begin("sim.run", root, id);
        let t1 = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let executor = lease.instance.executor_mut();
            let stop = executor.run(limit);
            (stop, executor.stats(), executor.regs()[0])
        }));
        let ns = t1.elapsed().as_nanos() as u64;
        tracer.end(span);
        let verdict = match (class, ran) {
            (Class::Healthy(k), Ok((stop, record, r0))) => {
                committed += record.committed;
                cycles += record.cycles;
                checks += record.hfi_checks;
                branches += record.branches;
                run_ns += ns;
                if stop == Stop::Halted && r0 == expect.r0[k] && record == expect.records[k] {
                    Ok(())
                } else {
                    Err(format!(
                        "replay of tenant {tenant}: wrong result or counters"
                    ))
                }
            }
            (Class::Runaway, Ok((Stop::CycleLimit, ..))) | (Class::Rogue, Err(_)) => Ok(()),
            (class, _) => Err(format!("replay: {class:?} request ended unexpectedly")),
        };
        let healthy = matches!(class, Class::Healthy(_));
        direct.push(healthy.then_some((warm, checkout_ns + ns)));
        if class == Class::Rogue {
            let span = tracer.begin("pool.quarantine", root, id);
            pools.quarantine(lease);
            tracer.end(span);
        } else {
            let span = tracer.begin("pool.release", root, id);
            pools.release(lease);
            tracer.end(span);
        }
        tracer.end(root);
        ledger.check(verdict);
    }
    let after = pools.stats();
    let warm_hits = after.warm_hits - before.warm_hits;
    let cold_builds = after.cold_builds - before.cold_builds;
    report.put("pool.warm_hits", warm_hits as f64, "count");
    report.put("pool.cold_builds", cold_builds as f64, "count");
    report.put(
        "pool.recycled",
        (after.recycled - before.recycled) as f64,
        "count",
    );
    report.put("pool.peak_resident", after.peak_resident as f64, "count");
    report.put(
        "pool.quarantined",
        (after.quarantined - before.quarantined) as f64,
        "count",
    );
    report.put(
        "pool.warm_hit_rate",
        warm_hits as f64 / (warm_hits + cold_builds).max(1) as f64,
        "fraction",
    );
    for (metric, span) in [
        ("pool.checkout_warm_us", "pool.checkout_warm"),
        ("pool.checkout_cold_us", "pool.checkout_cold"),
        ("pool.release_us", "pool.release"),
        ("pool.quarantine_us", "pool.quarantine"),
    ] {
        report.put(metric, median(&tracer.durations_us(span)), "us");
    }
    report.put("sim.committed", committed as f64, "count");
    report.put("sim.cycles_modelled", cycles, "count");
    report.put("sim.hfi_checks", checks as f64, "count");
    report.put("sim.branches", branches as f64, "count");
    report.put(
        "sim.func.ns_per_inst",
        run_ns as f64 / committed.max(1) as f64,
        "ns",
    );
    direct
}

/// Scheduler-stage breakdown of the traced open-loop phase, from the
/// completions' stamps and the generator's own timestamps.
fn sched_layers(tally: &Tally, direct: &[Option<(bool, u64)>], report: &mut Report) {
    let mut stamps: Vec<Stamp> = tally.stamps.clone();
    stamps.sort_by_key(|s| s.start_ns);
    let us = |ns: u64| ns as f64 / 1e3;
    let (mut lag, mut queue, mut wake, mut setup, mut service, mut delivery, mut extra) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut prev_finish = 0u64;
    for s in &stamps {
        if s.healthy_ok {
            lag.push(us(s.submit_ns.saturating_sub(s.due_ns)));
            queue.push(us(s.start_ns.saturating_sub(s.submit_ns)));
            wake.push(us(s.start_ns.saturating_sub(s.submit_ns.max(prev_finish))));
            setup.push(us(s.setup_ns));
            service.push(us(s.service_ns));
            delivery.push(us(s.drained_ns.saturating_sub(s.finish_ns)));
            if let Some(Some((warm, direct_ns))) = direct.get(s.index) {
                if *warm == s.warm {
                    extra.push(us(s.setup_ns + s.service_ns) - us(*direct_ns));
                }
            }
        }
        prev_finish = prev_finish.max(s.finish_ns);
    }
    report.put("sched.gen_lag_us", median(&lag), "us");
    report.put("sched.queue_us", median(&queue), "us");
    report.put("sched.idle_wake_us", median(&wake), "us");
    report.put("sched.setup_us", median(&setup), "us");
    report.put("sched.service_us", median(&service), "us");
    report.put("sched.delivery_us", median(&delivery), "us");
    report.put("sched.unattributed_us", median(&extra), "us");
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    if kind == Kind::Rogue {
        hfi_chaos::silence_injected_panics();
    }
    // One set-up before the measured phases, so they (and the memory
    // reading after them) see one tenancy's programs; the untraced run
    // repeats the set-up after them for `setup_s`.
    let started = Instant::now();
    let tenancy = setup(kind, &mut out.tracer);
    let mut setups = vec![started.elapsed().as_secs_f64()];
    let cache = hfi_verify::proof_cache_stats();
    if !tenancy.proven {
        out.ledger
            .violate("a tenant program failed verification".into());
    }
    for e in &tenancy.provision_errors {
        out.ledger.violate(e.clone());
    }
    let expect = expectations(&tenancy.units, args.plant, &mut out.ledger);
    let sched = Scheduler::with_config(
        Arc::clone(&tenancy.pools),
        WORKERS,
        ServeConfig {
            seed: args.seed,
            ..ServeConfig::default()
        },
    );
    // The untraced run alternates open-loop segments, closed-loop
    // windows and the kernels' cycle pass, so every phase samples the
    // whole run; the traced run has one untraced and one traced
    // open-loop segment.
    let mut picker = Picker::new(kind, args.seed, tenancy.units.len());
    let slices = if args.trace { 1 } else { SLICES };
    let open_share = if args.trace { 0.25 } else { 0.15 };
    let cycle_share = if args.trace { 0.05 } else { 0.25 };
    let closed_requests = (kind.closed_rps() * args.seconds * 0.5 / slices as f64).ceil() as usize;
    let units: Vec<&Unit> = tenancy.units.iter().collect();
    let expected_of = |u: &Unit| u.kernel.expected;
    let mut cycle = Sweep::new(&units, true);
    let mut tally = Tally::default();
    let mut arrivals = Vec::new();
    for _ in 0..slices {
        cycle.run(
            share(args.seconds, cycle_share) / slices as u32,
            &expected_of,
            &mut |v| out.ledger.check(v),
            &mut Tracer::new(false),
        );
        let segment = share(args.seconds, open_share) / slices as u32;
        arrivals = picker.arrivals(kind.rate(), segment);
        open_loop(
            kind,
            &sched,
            &arrivals,
            &tenancy.class_of,
            false,
            &mut tally,
            &expect,
            &mut out.ledger,
        );
        if !args.trace {
            closed_loop(
                kind,
                &sched,
                &mut picker,
                &tenancy.class_of,
                closed_requests,
                &mut tally,
                &expect,
                &mut out.ledger,
            );
        }
    }
    let untraced_p50 = median(&tally.latencies_ms);
    let mut traced = Tally::default();
    if args.trace {
        open_loop(
            kind,
            &sched,
            &arrivals,
            &tenancy.class_of,
            true,
            &mut traced,
            &expect,
            &mut out.ledger,
        );
    }
    drop(sched);
    // After a fixed amount of work: the seed and rate fix the open-loop
    // counts, and the closed-loop windows serve a fixed count.
    let rss = peak_rss_mb();
    check_accounting(&tally, &mut out.ledger);
    check_accounting(&traced, &mut out.ledger);

    let stats = tenancy.pools.stats();
    match kind {
        Kind::Short => {
            if stats.peak_resident != TENANTS as u64 || tally.cold_healthy > 0 {
                out.ledger.violate(format!(
                    "serve-short must hold all {TENANTS} tenants warm: peak {} resident, {} cold",
                    stats.peak_resident, tally.cold_healthy
                ));
            }
        }
        Kind::Churn => {
            if stats.peak_resident != 511 {
                out.ledger.violate(format!(
                    "serve-churn must peak at 511 resident, saw {}",
                    stats.peak_resident
                ));
            }
        }
        Kind::Rogue => {
            let panicked = tally.panicked + traced.panicked;
            if stats.quarantined != panicked {
                out.ledger.violate(format!(
                    "{} panicked requests but {} quarantined instances",
                    panicked, stats.quarantined
                ));
            }
        }
    }

    out.extra.insert("rate_rps".into(), kind.rate());
    out.extra
        .insert("open_requests".into(), arrivals.len() as f64);
    out.extra
        .insert("closed_requests".into(), (closed_requests * slices) as f64);
    out.extra
        .insert("gen_late_p50_us".into(), median(&tally.lateness_us));
    out.extra.insert(
        "gen_late_p99_us".into(),
        percentile(&tally.lateness_us, 0.99),
    );
    out.extra.insert(
        "gen_late_max_us".into(),
        tally.lateness_us.iter().copied().fold(0.0, f64::max),
    );
    out.extra
        .insert("pool_peak_resident".into(), stats.peak_resident as f64);
    let r = &mut out.report;
    if args.trace {
        let traced_p50 = median(&traced.latencies_ms);
        r.put(
            "trace.overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
            "%",
        );
        r.put(
            "verify.hits",
            (cache.hits_identity + cache.hits_digest) as f64,
            "count",
        );
        r.put("verify.misses", cache.misses as f64, "count");
        // A fresh tenancy for the replay, so its pool counts are exact.
        let fresh = setup(kind, &mut out.tracer);
        let direct = replay(
            &fresh,
            &arrivals,
            &expect,
            &mut out.tracer,
            &mut out.ledger,
            &mut out.report,
        );
        let r = &mut out.report;
        sched_layers(&traced, &direct, r);
        for class in [
            "done",
            "panicked",
            "circuit_open",
            "deadline_ran",
            "deadline_queued",
            "shed",
            "overloaded",
            "rejected",
        ] {
            let n = traced.classes.get(class).copied().unwrap_or(0);
            r.put(&format!("outcome.{class}"), n as f64, "count");
        }
        r.put(
            "faults.cancel_late_us",
            median(&traced.cancel_late_us),
            "us",
        );
        report_cycle(&cycle.firsts(), cycle.mips(), r);
        probe_setup_layers(&units, r);
        let ledger = &mut out.ledger;
        probe_lifecycle(&units, share(args.seconds, 0.05), r, &mut |v| {
            ledger.check(v)
        });
        probe_runtime(kind.isolation(), r);
        let (gap, mean) = out.tracer.child_sum_gap_us("request");
        if gap > 1.0 + 0.01 * mean {
            out.ledger.violate(format!(
                "request spans exceed their layer spans by {gap:.3}us on average"
            ));
        }
        out.report.put("trace.span_sum_err_us", gap, "us");
        out.latencies_ms = traced.latencies_ms;
    } else {
        // Served executor speed: geomean over kernels of each kernel's
        // fastest closed-loop run, as `sim-fig3` takes each cell's
        // fastest repeat.
        r.put("sim_mips_functional", geomean(&tally.best_mips), "Minst/s");
        r.put("sim_mips_cycle", cycle.mips(), "Minst/s");
        // Printed, not gated: it follows the host from run to run.
        eprintln!(
            "  capacity_rps {:.1} 1/s",
            interquartile_mean(&tally.closed_rates)
        );
        r.put("peak_rss_mb", rss, "MiB");
        out.latencies_ms = tally.latencies_ms;
        drop(tenancy);
        for _ in 1..SETUP_REPEATS {
            std::thread::sleep(SETUP_GAP);
            let started = Instant::now();
            let again = setup(kind, &mut Tracer::new(false));
            setups.push(started.elapsed().as_secs_f64());
            drop(again);
        }
        out.report.put("setup_s", median(&setups), "s");
    }
    out
}
