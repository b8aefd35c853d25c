//! The fast functional executor.
//!
//! The cycle-level [`Machine`](crate::core::Machine) is (like gem5) several
//! orders of magnitude slower than native execution, so — exactly as the
//! paper does (§5.2) — long-running workloads use a faster model: this
//! executor interprets the same [`Program`] architecturally and charges a
//! per-instruction-class cost calibrated against the cycle simulator
//! (Fig. 2 is the calibration experiment). HFI semantics are enforced
//! identically — all checks consult the same [`HfiContext`] — only the
//! timing model is simplified.

use std::sync::Arc;

use hfi_core::{
    Access, CostModel, ExitDisposition, HfiContext, HfiFault, SyscallDisposition, SyscallKind,
};

use crate::chaos::{ArchEvent, ChaosHook};
use crate::core::{DefaultOs, OsModel, Stop, SyscallOutcome};
use crate::isa::{AluOp, Inst, Program, Reg};
use crate::mem::SparseMemory;
use crate::plan::{plan_of, DecodedProgram, MicroOp, OpClass, NO_REG};

/// Per-class cycle costs for the functional timing model, calibrated so
/// that functional cycle counts track the cycle simulator on the
/// Sightglass kernels (see the Fig. 2 harness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionalCosts {
    /// Simple ALU / move, amortized over superscalar issue.
    pub alu: f64,
    /// Multiply.
    pub mul: f64,
    /// Divide.
    pub div: f64,
    /// Load or store (average over cache behaviour).
    pub mem: f64,
    /// Conditional branch (average including mispredictions).
    pub branch: f64,
    /// Call/return pair contribution per instruction.
    pub control: f64,
}

impl Default for FunctionalCosts {
    fn default() -> Self {
        // Roughly 1/IPC contributions on the modelled 8-wide core.
        Self {
            alu: 0.35,
            mul: 1.0,
            div: 20.0,
            mem: 0.9,
            branch: 0.7,
            control: 1.0,
        }
    }
}

/// Execution statistics of a functional run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunctionalStats {
    /// Instructions retired.
    pub retired: u64,
    /// Memory operations retired.
    pub mem_ops: u64,
    /// Branches retired.
    pub branches: u64,
    /// Serializations performed.
    pub serializations: u64,
    /// HFI checks performed (fetch, implicit-data, and `hmov` checks
    /// evaluated while a sandbox was active).
    pub hfi_checks: u64,
    /// Faults delivered.
    pub faults: u64,
    /// Syscalls redirected by HFI.
    pub syscalls_redirected: u64,
    /// Syscalls serviced by the OS model.
    pub syscalls_to_os: u64,
}

/// Result of a functional run.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalResult {
    /// Modelled cycles (float accumulation of per-class costs).
    pub cycles: f64,
    /// Why execution stopped.
    pub stop: Stop,
    /// Counters.
    pub stats: FunctionalStats,
    /// Final registers.
    pub regs: [u64; 16],
}

/// Cooperative-cancellation fuel: a predicate polled every `period`
/// retired instructions. Returning `false` stops the run with
/// [`Stop::CycleLimit`] at the next poll point, between two
/// instructions — the serving tier uses this to cancel a request whose
/// wall-clock deadline passed without wedging the worker thread.
struct Fuel {
    period: u64,
    until_poll: u64,
    check: Box<dyn FnMut() -> bool + Send>,
}

/// Where control goes after executing one micro-op: on to another
/// instruction index, or out of the run entirely.
enum StepExit {
    /// The op completed; continue at this instruction index (usually
    /// `pc + 1`; a branch, jump, or redirect target otherwise).
    Next(usize),
    /// The op faulted and the fault was delivered to a handler at this
    /// instruction index. Delivery may have left the sandbox, so the
    /// block fast path always exits here.
    Delivered(usize),
    /// Execution is over (halt, exit, unhandled fault, bad handler).
    Stop(Stop),
}

/// The functional executor.
pub struct Functional {
    /// The shared pre-decoded plan (its backing program included),
    /// resolved once at construction.
    plan: Arc<DecodedProgram>,
    /// Data memory.
    pub mem: SparseMemory,
    /// HFI register state (identical semantics to the cycle model).
    pub hfi: HfiContext,
    /// Architectural cost constants (serialization etc.).
    pub costs: CostModel,
    /// Per-class timing weights.
    pub weights: FunctionalCosts,
    /// Signal handler byte PC for fault delivery.
    pub signal_handler: Option<u64>,
    os: Box<dyn OsModel>,
    chaos: Option<Box<dyn ChaosHook>>,
    fuel: Option<Fuel>,
    regs: [u64; 16],
    call_stack: Vec<usize>,
    cycles: f64,
    stats: FunctionalStats,
}

impl std::fmt::Debug for Functional {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Functional")
            .field("cycles", &self.cycles)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Functional {
    /// Creates a functional machine for `program`.
    ///
    /// Accepts a [`Program`] by value or an [`Arc<Program>`] (see
    /// [`Machine::new`](crate::core::Machine::new)).
    pub fn new(program: impl Into<Arc<Program>>) -> Self {
        Self {
            plan: plan_of(&program.into()),
            mem: SparseMemory::new(),
            hfi: HfiContext::new(),
            costs: CostModel::default(),
            weights: FunctionalCosts::default(),
            signal_handler: None,
            os: Box::new(DefaultOs::default()),
            chaos: None,
            fuel: None,
            regs: [0; 16],
            call_stack: Vec::new(),
            cycles: 0.0,
            stats: FunctionalStats::default(),
        }
    }

    /// Resets all per-tenant state, keeping the program and its shared
    /// plan: memory, HFI region context, registers, call stack, cycles,
    /// counters, the signal handler, the OS model, and any installed
    /// chaos or fuel hook all return to their just-constructed values. This is the warm-pool teardown
    /// primitive: a reused instance behaves bit-identically to a
    /// freshly constructed one (`tests/warm_pool_safety.rs`), while the
    /// expensive artifacts — the `Arc<Program>` and its memoized
    /// decode plan — survive the reset.
    pub fn reset(&mut self) {
        self.mem = SparseMemory::new();
        self.hfi = HfiContext::new();
        self.costs = CostModel::default();
        self.weights = FunctionalCosts::default();
        self.signal_handler = None;
        self.os = Box::new(DefaultOs::default());
        self.chaos = None;
        self.fuel = None;
        self.regs = [0; 16];
        self.call_stack.clear();
        self.cycles = 0.0;
        self.stats = FunctionalStats::default();
    }

    /// Replaces the OS model.
    pub fn set_os(&mut self, os: Box<dyn OsModel>) {
        self.os = os;
    }

    /// Installs a runtime fault-injection hook (see [`crate::chaos`]).
    /// With no hook installed every site is a single predictable branch.
    pub fn set_chaos(&mut self, hook: Box<dyn ChaosHook>) {
        self.chaos = Some(hook);
    }

    /// Removes and returns the installed chaos hook, if any, so callers
    /// can inspect the engine/monitor state after a run.
    pub fn take_chaos(&mut self) -> Option<Box<dyn ChaosHook>> {
        self.chaos.take()
    }

    /// Installs a cooperative-cancellation fuel hook: `check` is polled
    /// every `period` retired instructions (clamped to at least 1), and
    /// returning `false` stops the run with [`Stop::CycleLimit`] at the
    /// next poll point — between two instructions, with all retired
    /// architectural effects visible. The serving tier uses this to
    /// enforce wall-clock request deadlines: a runaway kernel cannot
    /// wedge its worker thread for longer than one poll period.
    ///
    /// While a hook that never fires is installed, counters, cycles,
    /// registers, and the stop reason are bit-identical to an
    /// uninstrumented run. The block fast path stays on: it runs a
    /// whole block only when the countdown to the next poll covers it,
    /// so polls land on exactly the same instructions.
    /// [`Functional::reset`] clears the hook.
    pub fn set_fuel(&mut self, period: u64, check: Box<dyn FnMut() -> bool + Send>) {
        let period = period.max(1);
        self.fuel = Some(Fuel {
            period,
            until_poll: period,
            check,
        });
    }

    /// Removes the installed fuel hook, if any.
    pub fn take_fuel(&mut self) {
        self.fuel = None;
    }

    /// Decrements the fuel counter and polls the cancellation predicate
    /// when it reaches zero. Returns `false` when the run must stop.
    /// Never called unless a hook is installed.
    fn poll_fuel(&mut self) -> bool {
        let Some(fuel) = self.fuel.as_mut() else {
            return true;
        };
        if fuel.until_poll > 1 {
            fuel.until_poll -= 1;
            return true;
        }
        fuel.until_poll = fuel.period;
        (fuel.check)()
    }

    /// Sets a register before running.
    pub fn set_reg(&mut self, reg: Reg, value: u64) {
        self.regs[reg.0 as usize] = value;
    }

    /// Reads a register.
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regs[reg.0 as usize]
    }

    /// Snapshot of the architectural register file.
    pub fn regs(&self) -> [u64; 16] {
        self.regs
    }

    /// Modelled cycles so far.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Counters so far.
    pub fn functional_stats(&self) -> FunctionalStats {
        self.stats
    }

    /// Value of a pre-resolved operand slot; unset slots ([`NO_REG`])
    /// read as zero, reproducing `MemOperand`'s optional base/index.
    #[inline(always)]
    fn slot(&self, r: u8) -> u64 {
        if r == NO_REG {
            0
        } else {
            self.regs[r as usize]
        }
    }

    /// Effective address from the plan's EA template:
    /// `base + index * scale + disp` over the micro-op's operand slots.
    #[inline(always)]
    fn ea_of(&self, uop: &MicroOp) -> u64 {
        self.slot(uop.srcs[0])
            .wrapping_add(self.slot(uop.srcs[1]).wrapping_mul(uop.scale as u64))
            .wrapping_add(uop.imm as u64)
    }

    /// Forwards a retired architectural event to the chaos hook, if one
    /// is installed. Callers gate on `self.chaos.is_some()` so the event
    /// is only constructed when someone is listening.
    #[inline]
    fn chaos_observe(&mut self, event: ArchEvent) {
        if let Some(hook) = self.chaos.as_deref_mut() {
            hook.observe(&event);
        }
    }

    fn fault(&mut self, fault: HfiFault, pc_out: &mut usize) -> Option<Stop> {
        if self.chaos.is_some() {
            let pc = if *pc_out < self.plan.len() {
                self.plan.pc(*pc_out)
            } else {
                0
            };
            self.chaos_observe(ArchEvent::Fault { pc, fault });
        }
        self.stats.faults += 1;
        self.cycles += self.costs.serialize_cycles as f64; // trap overhead floor
        let disposition = self.hfi.deliver_fault(fault);
        let handler = match disposition {
            ExitDisposition::JumpToHandler(h) => Some(h),
            _ => self.signal_handler,
        };
        // Signal delivery is expensive (§3.3.2: OS delivers SIGSEGV).
        self.cycles += 3000.0;
        match handler.and_then(|h| self.plan.program().index_of_pc(h)) {
            Some(idx) => {
                *pc_out = idx;
                None
            }
            None => Some(Stop::Fault(fault)),
        }
    }

    /// Delivers a fault raised at instruction index `at` and converts the
    /// outcome into a [`StepExit`]: delivery to the handler's index, or
    /// stop with the fault.
    fn fault_exit(&mut self, fault: HfiFault, at: usize) -> StepExit {
        let mut pc = at;
        match self.fault(fault, &mut pc) {
            Some(stop) => StepExit::Stop(stop),
            None => StepExit::Delivered(pc),
        }
    }

    /// Runs up to `max_insts` instructions.
    ///
    /// The interpreter is direct-threaded over the shared pre-decoded
    /// plan ([`plan_of`]): each step indexes a flat [`MicroOp`] and
    /// dispatches on its dense class byte. The architectural semantics,
    /// the cost model and every counter are those of [`Functional::step`],
    /// the one reference routine.
    ///
    /// Whole basic blocks take a fast path when nothing can observe the
    /// ops between their first and last (see [`Functional::run_blocks`]):
    /// one fetch check covers a block, and the retired and fetch-check
    /// counters, the budget and the fuel countdown advance once per run
    /// of blocks. Each op still runs through [`Functional::execute`], so
    /// results are bit-identical to stepping op by op — see
    /// `tests/predecode_differential.rs`.
    pub fn run(&mut self, max_insts: u64) -> FunctionalResult {
        let plan = Arc::clone(&self.plan);
        let mut pc = 0usize;
        let mut stop = Stop::CycleLimit;
        let mut budget = max_insts;
        while budget > 0 {
            if pc >= plan.len() {
                stop = Stop::Halted;
                break;
            }
            let exit = match self.run_blocks(pc, budget, &plan) {
                (0, _) => {
                    budget -= 1;
                    if self.fuel.is_some() && !self.poll_fuel() {
                        break; // cancelled: stop stays CycleLimit
                    }
                    self.step(pc, &plan)
                }
                (ran, exit) => {
                    budget -= ran;
                    exit
                }
            };
            match exit {
                StepExit::Next(next) | StepExit::Delivered(next) => pc = next,
                StepExit::Stop(s) => {
                    stop = s;
                    break;
                }
            }
        }
        self.result_with(stop)
    }

    /// The block fast path: runs whole basic blocks, chained, from `pc`
    /// for as long as each next block fits, and returns how many ops
    /// executed and where control goes. Returns `(0, _)` when the block
    /// at `pc` does not fit; the caller then steps one op.
    ///
    /// A block fits when control enters it at its first op; no chaos
    /// hook is installed (it may observe or perturb any op); the block
    /// has no HFI-state-mutating op and no syscall
    /// ([`BasicBlock::fast`](crate::plan::BasicBlock::fast));
    /// the budget and the fuel countdown both cover all of its ops, so
    /// neither can stop the run or poll mid-block; and the active code
    /// regions grant its whole byte range ([`HfiContext::fetch_covers`]),
    /// so every per-op fetch check would pass. The chain ends early on a
    /// stop or any fault delivery — delivery can leave the sandbox.
    ///
    /// The ops that executed, a faulting one included, count as retired
    /// and as fetch checks exactly as [`Functional::step`] counts them:
    /// no op in the chain can change the sandbox state they were fetched
    /// under before the last one executes.
    fn run_blocks(&mut self, mut pc: usize, budget: u64, plan: &DecodedProgram) -> (u64, StepExit) {
        // Ops the chain may run: the fuel hook calls its check before the
        // op it meets with `until_poll == 1`, which must run per op.
        let allowed = match &self.fuel {
            Some(fuel) => budget.min(fuel.until_poll - 1),
            None => budget,
        };
        if allowed == 0 || self.chaos.is_some() {
            return (0, StepExit::Next(pc));
        }
        let sandboxed = self.hfi.enabled();
        // One check on the whole program covers every block in it.
        let covers_all = plan
            .byte_range()
            .is_some_and(|(first, last)| self.hfi.fetch_covers(first, last));
        let mut ran = 0u64;
        let exit = loop {
            let block = &plan.blocks()[plan.block_of(pc)];
            let len = u64::from(block.end - block.start);
            if pc != block.start as usize
                || !block.fast
                || ran + len > allowed
                || !(covers_all || self.hfi.fetch_covers(block.first_byte, block.last_byte))
            {
                break StepExit::Next(pc);
            }
            let end = block.end as usize;
            let start = pc;
            let exit = loop {
                match self.execute(pc, plan) {
                    StepExit::Next(next) if next == pc + 1 && next < end => pc = next,
                    exit => break exit,
                }
            };
            ran += (pc + 1 - start) as u64;
            match exit {
                StepExit::Next(next) if next < plan.len() => pc = next,
                exit => break exit,
            }
        };
        self.stats.retired += ran;
        if sandboxed {
            self.stats.hfi_checks += ran;
        }
        if let Some(fuel) = self.fuel.as_mut() {
            fuel.until_poll -= ran;
        }
        (ran, exit)
    }

    /// Executes exactly one micro-op at instruction index `pc` with full
    /// reference semantics — fetch check, counters, chaos observation and
    /// injection, cost accumulation, fault delivery — and reports where
    /// control goes next.
    fn step(&mut self, pc: usize, plan: &DecodedProgram) -> StepExit {
        let byte_pc = plan.pc(pc);
        let uop = plan.op(pc);
        if self.hfi.enabled() {
            self.stats.hfi_checks += 1;
        }
        if let Err(fault) = self.hfi.check_fetch(byte_pc, uop.len as u64) {
            return self.fault_exit(fault, pc);
        }
        self.stats.retired += 1;
        if self.chaos.is_none() {
            return self.execute(pc, plan);
        }
        let sandboxed = self.hfi.enabled();
        self.chaos_observe(ArchEvent::Retire {
            pc: byte_pc,
            len: uop.len,
            sandboxed,
        });
        let exit = self.execute(pc, plan);
        if let StepExit::Next(_) = exit {
            if uop.dst != NO_REG {
                let value = self.regs[uop.dst as usize];
                if let Some(hook) = self.chaos.as_deref_mut() {
                    self.regs[uop.dst as usize] = hook.perturb_result(byte_pc, value);
                }
                // Transition corruption: a springboard op whose
                // result never lands — the register keeps junk in
                // place of the zeroed/switched value. The entry
                // assertion at `hfi_enter` must catch it.
                if uop.has(MicroOp::TRANSITION) {
                    if let Some(hook) = self.chaos.as_deref_mut() {
                        if hook.corrupt_transition(byte_pc) {
                            self.regs[uop.dst as usize] = crate::chaos::transition_junk(byte_pc);
                        }
                    }
                }
            }
            // "Between instructions": the retired op's architectural
            // effects are visible, the next fetch has not happened.
            if let Some(hook) = self.chaos.as_deref_mut() {
                hook.corrupt_context(&mut self.hfi);
            }
        }
        exit
    }

    /// The semantic arm of one fetched micro-op: its cost, its effect on
    /// registers, memory and HFI state, its data-side checks, and its
    /// successor. Fetch checking and retirement are the caller's.
    #[inline(always)]
    fn execute(&mut self, pc: usize, plan: &DecodedProgram) -> StepExit {
        let program = plan.program();
        let byte_pc = plan.pc(pc);
        let uop = plan.op(pc);
        let mut next = pc + 1;
        match uop.class {
            OpClass::AluRR => {
                self.cycles += self.weight_of(uop.alu);
                self.regs[uop.dst as usize] =
                    alu(uop.alu, self.slot(uop.srcs[0]), self.slot(uop.srcs[1]));
            }
            OpClass::AluRI => {
                self.cycles += self.weight_of(uop.alu);
                self.regs[uop.dst as usize] = alu(uop.alu, self.slot(uop.srcs[0]), uop.imm as u64);
            }
            OpClass::MovI => {
                self.cycles += self.weights.alu;
                self.regs[uop.dst as usize] = uop.imm as u64;
            }
            OpClass::Mov => {
                self.cycles += self.weights.alu;
                self.regs[uop.dst as usize] = self.slot(uop.srcs[0]);
            }
            OpClass::Rdtsc => {
                self.cycles += self.weights.alu;
                self.regs[uop.dst as usize] = self.cycles as u64;
            }
            OpClass::Load => {
                self.cycles += self.weights.mem;
                self.stats.mem_ops += 1;
                if self.hfi.enabled() {
                    self.stats.hfi_checks += 1;
                }
                let mut addr = self.ea_of(uop);
                let mut skip = false;
                if let Some(hook) = self.chaos.as_deref_mut() {
                    addr = hook.perturb_ea(byte_pc, addr);
                    skip = hook.skip_guard(byte_pc);
                }
                if !skip {
                    if let Err(f) = self.hfi.check_data(addr, uop.size as u64, Access::Read) {
                        return self.fault_exit(f, pc);
                    }
                }
                self.regs[uop.dst as usize] = self.mem.read(addr, uop.size);
                if self.chaos.is_some() {
                    let sandboxed = self.hfi.enabled();
                    self.chaos_observe(ArchEvent::Mem {
                        pc: byte_pc,
                        addr,
                        size: uop.size,
                        access: Access::Read,
                        hmov: None,
                        sandboxed,
                    });
                }
            }
            OpClass::Store => {
                self.cycles += self.weights.mem;
                self.stats.mem_ops += 1;
                if self.hfi.enabled() {
                    self.stats.hfi_checks += 1;
                }
                let mut addr = self.ea_of(uop);
                let mut skip = false;
                if let Some(hook) = self.chaos.as_deref_mut() {
                    addr = hook.perturb_ea(byte_pc, addr);
                    skip = hook.skip_guard(byte_pc);
                }
                if !skip {
                    if let Err(f) = self.hfi.check_data(addr, uop.size as u64, Access::Write) {
                        return self.fault_exit(f, pc);
                    }
                }
                self.mem.write(addr, self.slot(uop.srcs[2]), uop.size);
                if self.chaos.is_some() {
                    let sandboxed = self.hfi.enabled();
                    self.chaos_observe(ArchEvent::Mem {
                        pc: byte_pc,
                        addr,
                        size: uop.size,
                        access: Access::Write,
                        hmov: None,
                        sandboxed,
                    });
                }
            }
            OpClass::HmovLoad => {
                self.cycles += self.weights.mem;
                self.stats.mem_ops += 1;
                self.stats.hfi_checks += 1;
                let mut index = self.slot(uop.srcs[1]) as i64;
                let mut skip = false;
                if let Some(hook) = self.chaos.as_deref_mut() {
                    // The flip lands in the address datapath upstream
                    // of the §4.2 guard, which must still face it.
                    index = hook.perturb_ea(byte_pc, index as u64) as i64;
                    skip = hook.skip_guard(byte_pc);
                }
                let resolved = match self.hfi.hmov_check_access(
                    uop.region,
                    index,
                    uop.scale as u64,
                    uop.imm,
                    uop.size as u64,
                    Access::Read,
                ) {
                    Ok(ea) => Ok(ea),
                    // A dropped guard micro-op: the raw AGU address
                    // proceeds unchecked (fault injection only).
                    Err(f) => match self.hfi.hmov_unchecked_ea(
                        uop.region,
                        index,
                        uop.scale as u64,
                        uop.imm,
                    ) {
                        Some(ea) if skip => Ok(ea),
                        _ => Err(f),
                    },
                };
                match resolved {
                    Ok(ea) => {
                        self.regs[uop.dst as usize] = self.mem.read(ea, uop.size);
                        if self.chaos.is_some() {
                            let sandboxed = self.hfi.enabled();
                            self.chaos_observe(ArchEvent::Mem {
                                pc: byte_pc,
                                addr: ea,
                                size: uop.size,
                                access: Access::Read,
                                hmov: Some(uop.region),
                                sandboxed,
                            });
                        }
                    }
                    Err(f) => return self.fault_exit(f, pc),
                }
            }
            OpClass::HmovStore => {
                self.cycles += self.weights.mem;
                self.stats.mem_ops += 1;
                self.stats.hfi_checks += 1;
                let mut index = self.slot(uop.srcs[1]) as i64;
                let mut skip = false;
                if let Some(hook) = self.chaos.as_deref_mut() {
                    index = hook.perturb_ea(byte_pc, index as u64) as i64;
                    skip = hook.skip_guard(byte_pc);
                }
                let resolved = match self.hfi.hmov_check_access(
                    uop.region,
                    index,
                    uop.scale as u64,
                    uop.imm,
                    uop.size as u64,
                    Access::Write,
                ) {
                    Ok(ea) => Ok(ea),
                    Err(f) => match self.hfi.hmov_unchecked_ea(
                        uop.region,
                        index,
                        uop.scale as u64,
                        uop.imm,
                    ) {
                        Some(ea) if skip => Ok(ea),
                        _ => Err(f),
                    },
                };
                match resolved {
                    Ok(ea) => {
                        self.mem.write(ea, self.slot(uop.srcs[2]), uop.size);
                        if self.chaos.is_some() {
                            let sandboxed = self.hfi.enabled();
                            self.chaos_observe(ArchEvent::Mem {
                                pc: byte_pc,
                                addr: ea,
                                size: uop.size,
                                access: Access::Write,
                                hmov: Some(uop.region),
                                sandboxed,
                            });
                        }
                    }
                    Err(f) => return self.fault_exit(f, pc),
                }
            }
            OpClass::Branch => {
                self.cycles += self.weights.branch;
                self.stats.branches += 1;
                if uop
                    .cond
                    .eval(self.slot(uop.srcs[0]), self.slot(uop.srcs[1]))
                {
                    next = uop.target as usize;
                }
            }
            OpClass::BranchI => {
                self.cycles += self.weights.branch;
                self.stats.branches += 1;
                if uop.cond.eval(self.slot(uop.srcs[0]), uop.imm as u64) {
                    next = uop.target as usize;
                }
            }
            OpClass::Jump => {
                self.cycles += self.weights.control;
                next = uop.target as usize;
            }
            OpClass::JumpInd => {
                self.cycles += self.weights.control;
                self.stats.branches += 1;
                let target_pc = self.slot(uop.srcs[0]);
                next = match program.index_of_pc(target_pc) {
                    Some(idx) => idx,
                    None => {
                        let fault = match self.hfi.check_fetch(target_pc, 1) {
                            Err(fault) => fault,
                            Ok(()) => HfiFault::Hardware { addr: target_pc },
                        };
                        return self.fault_exit(fault, pc);
                    }
                };
            }
            OpClass::Call => {
                self.cycles += self.weights.control;
                self.call_stack.push(pc + 1);
                next = uop.target as usize;
            }
            OpClass::Ret => {
                self.cycles += self.weights.control;
                next = match self.call_stack.pop() {
                    Some(idx) => idx,
                    None => return StepExit::Stop(Stop::Halted),
                };
            }
            OpClass::Syscall => {
                let number = self.regs[0];
                self.cycles += self.costs.syscall_check_cycles as f64;
                match self.hfi.syscall(number, SyscallKind::Syscall) {
                    SyscallDisposition::Redirect(handler) => {
                        self.stats.syscalls_redirected += 1;
                        if pc + 1 < plan.len() {
                            self.regs[14] = plan.pc(pc + 1);
                        }
                        next = match program.index_of_pc(handler) {
                            Some(idx) => idx,
                            None => {
                                return StepExit::Stop(Stop::Fault(HfiFault::Hardware {
                                    addr: handler,
                                }));
                            }
                        };
                    }
                    SyscallDisposition::Allow => {
                        self.stats.syscalls_to_os += 1;
                        let outcome: SyscallOutcome =
                            self.os.syscall(number, &mut self.regs, &mut self.mem);
                        self.cycles += self.costs.syscall_roundtrip_cycles as f64
                            + outcome.extra_cycles as f64;
                        self.regs[0] = outcome.ret;
                        if outcome.exit {
                            return StepExit::Stop(Stop::Exited { code: self.regs[1] });
                        }
                    }
                    SyscallDisposition::Fault => {
                        return self.fault_exit(HfiFault::PrivilegedInstruction, pc);
                    }
                }
            }
            OpClass::Cpuid => {
                self.stats.serializations += 1;
                self.cycles += self.costs.serialize_cycles as f64;
            }
            OpClass::Fence => {
                self.cycles += 2.0;
            }
            OpClass::Flush => {
                self.cycles += 3.0;
            }
            OpClass::HfiEnter => {
                let Inst::HfiEnter { config } = program.inst(pc) else {
                    unreachable!("plan class HfiEnter lowered from HfiEnter");
                };
                // Entry assertion: re-validate the springboard's
                // contract against the architectural register file
                // before the sandbox starts (free — the compares
                // overlap the enter microcode). This is the
                // fail-closed backstop for transition corruption.
                if let Some(contract) = program.contract() {
                    let mut skip = false;
                    if let Some(hook) = self.chaos.as_deref_mut() {
                        skip = hook.skip_transition_check(byte_pc);
                    }
                    if !skip {
                        if let Some(reg) = contract.first_violation(&self.regs) {
                            return self.fault_exit(HfiFault::TransitionContract { reg }, pc);
                        }
                    }
                }
                self.cycles += self.costs.enter_exit_base_cycles as f64;
                match self.hfi.enter(*config) {
                    Ok(effect) => {
                        if effect == hfi_core::SerializationEffect::Serialize {
                            self.stats.serializations += 1;
                            self.cycles += self.costs.serialize_cycles as f64;
                        }
                    }
                    Err(f) => return self.fault_exit(f, pc),
                }
            }
            OpClass::HfiEnterChild => {
                let Inst::HfiEnterChild { config, regions } = program.inst(pc) else {
                    unreachable!("plan class HfiEnterChild lowered from HfiEnterChild");
                };
                self.cycles +=
                    (self.costs.enter_exit_base_cycles + self.costs.set_region_cycles) as f64;
                match self.hfi.enter_child(*config, **regions) {
                    Ok(effect) => {
                        if effect == hfi_core::SerializationEffect::Serialize {
                            self.stats.serializations += 1;
                            self.cycles += self.costs.serialize_cycles as f64;
                        }
                    }
                    Err(f) => return self.fault_exit(f, pc),
                }
            }
            OpClass::HfiExit => {
                self.cycles += self.costs.enter_exit_base_cycles as f64;
                match self.hfi.exit() {
                    Ok((disposition, effect)) => {
                        if effect == hfi_core::SerializationEffect::Serialize {
                            self.stats.serializations += 1;
                            self.cycles += self.costs.serialize_cycles as f64;
                        }
                        if let ExitDisposition::JumpToHandler(handler) = disposition {
                            next = match program.index_of_pc(handler) {
                                Some(idx) => idx,
                                None => {
                                    return StepExit::Stop(Stop::Fault(HfiFault::Hardware {
                                        addr: handler,
                                    }));
                                }
                            };
                        }
                    }
                    Err(f) => return self.fault_exit(f, pc),
                }
            }
            OpClass::HfiReenter => {
                self.cycles += self.costs.enter_exit_base_cycles as f64;
                if let Err(f) = self.hfi.reenter() {
                    return self.fault_exit(f, pc);
                }
            }
            OpClass::HfiSetRegion => {
                let Inst::HfiSetRegion { slot, region } = program.inst(pc) else {
                    unreachable!("plan class HfiSetRegion lowered from HfiSetRegion");
                };
                self.cycles += self.costs.set_region_cycles as f64;
                match self.hfi.set_region(*slot as usize, *region) {
                    Ok(effect) => {
                        if effect == hfi_core::SerializationEffect::Serialize {
                            self.stats.serializations += 1;
                            self.cycles += self.costs.serialize_cycles as f64;
                        }
                    }
                    Err(f) => return self.fault_exit(f, pc),
                }
            }
            OpClass::HfiClearRegion => {
                self.cycles += 1.0;
                if let Err(f) = self.hfi.clear_region(uop.region as usize) {
                    return self.fault_exit(f, pc);
                }
            }
            OpClass::HfiClearAllRegions => {
                self.cycles += 1.0;
                if let Err(f) = self.hfi.clear_all_regions() {
                    return self.fault_exit(f, pc);
                }
            }
            OpClass::Nop => {
                self.cycles += self.weights.alu;
            }
            OpClass::Halt => return StepExit::Stop(Stop::Halted),
        }
        StepExit::Next(next)
    }

    fn result_with(&self, stop: Stop) -> FunctionalResult {
        FunctionalResult {
            cycles: self.cycles,
            stop,
            stats: self.stats,
            regs: self.regs,
        }
    }

    fn weight_of(&self, op: AluOp) -> f64 {
        match op {
            AluOp::Mul => self.weights.mul,
            AluOp::Div | AluOp::Rem => self.weights.div,
            _ => self.weights.alu,
        }
    }
}

fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => a.checked_div(b).unwrap_or(0),
        AluOp::Rem => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a << (b & 63),
        AluOp::Shr => a >> (b & 63),
        AluOp::Sar => ((a as i64) >> (b & 63)) as u64,
        AluOp::SltU => (a < b) as u64,
        AluOp::Slt => ((a as i64) < (b as i64)) as u64,
        AluOp::Seq => (a == b) as u64,
        AluOp::Rotl => a.rotate_left((b & 63) as u32),
    }
}

/// Helper used by differential tests: evaluates an ALU op architecturally.
pub fn alu_reference(op: AluOp, a: u64, b: u64) -> u64 {
    alu(op, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use hfi_core::region::{ExplicitDataRegion, ImplicitCodeRegion};
    use hfi_core::{Region, SandboxConfig};

    #[test]
    fn functional_matches_simple_arithmetic() {
        let mut asm = ProgramBuilder::new(0x1000);
        asm.movi(Reg(0), 6);
        asm.movi(Reg(1), 7);
        asm.alu(AluOp::Mul, Reg(2), Reg(0), Reg(1));
        asm.halt();
        let mut f = Functional::new(asm.finish());
        let result = f.run(1000);
        assert_eq!(result.stop, Stop::Halted);
        assert_eq!(result.regs[2], 42);
        assert!(result.cycles > 0.0);
    }

    #[test]
    fn functional_enforces_hmov_bounds() {
        let mut asm = ProgramBuilder::new(0x40_0000);
        let code = ImplicitCodeRegion::new(0x40_0000, 0xFFFF, true).unwrap();
        let heap = ExplicitDataRegion::large(0x100_0000, 1 << 16, true, true).unwrap();
        asm.hfi_set_region(0, Region::Code(code));
        asm.hfi_set_region(6, Region::Explicit(heap));
        asm.hfi_enter(SandboxConfig::hybrid());
        asm.hmov_load(0, Reg(1), crate::isa::HmovOperand::disp(1 << 20), 8);
        asm.halt();
        let mut f = Functional::new(asm.finish());
        let result = f.run(1000);
        assert!(matches!(result.stop, Stop::Fault(HfiFault::Hmov { .. })));
    }

    #[test]
    fn fuel_hook_cancels_a_runaway_loop() {
        // An infinite loop: without fuel it runs to the budget; with a
        // tripped fuel predicate it stops early, still as CycleLimit.
        let mut asm = ProgramBuilder::new(0x1000);
        asm.movi(Reg(0), 0);
        let top = asm.label();
        asm.place(top);
        asm.alu_ri(AluOp::Add, Reg(0), Reg(0), 1);
        asm.jump(top);
        asm.halt();
        let mut f = Functional::new(asm.finish());
        let mut polls = 0u64;
        f.set_fuel(
            64,
            Box::new(move || {
                polls += 1;
                polls < 4
            }),
        );
        let result = f.run(1_000_000);
        assert_eq!(result.stop, Stop::CycleLimit);
        assert_eq!(
            result.stats.retired,
            4 * 64 - 1,
            "the fourth poll, before instruction 256, must cancel the run"
        );
    }

    #[test]
    fn unfired_fuel_hook_is_invisible_in_the_counters() {
        let program = {
            let mut asm = ProgramBuilder::new(0x1000);
            asm.movi(Reg(0), 6);
            asm.movi(Reg(1), 7);
            asm.alu(AluOp::Mul, Reg(2), Reg(0), Reg(1));
            asm.halt();
            Arc::new(asm.finish())
        };
        let baseline = Functional::new(Arc::clone(&program)).run(1000);
        for period in [1, 2, 3, 4096] {
            let mut fueled = Functional::new(Arc::clone(&program));
            fueled.set_fuel(period, Box::new(|| true));
            assert_eq!(baseline, fueled.run(1000), "period {period}");
        }
    }

    #[test]
    fn serialized_transitions_cost_more() {
        let build = |serialize: bool| {
            let mut asm = ProgramBuilder::new(0x1000);
            let code = ImplicitCodeRegion::new(0x1000, 0xFFF, true).unwrap();
            asm.hfi_set_region(0, Region::Code(code));
            let config = if serialize {
                SandboxConfig::hybrid().serialized()
            } else {
                SandboxConfig::hybrid()
            };
            for _ in 0..10 {
                asm.hfi_enter(config);
                asm.hfi_exit();
            }
            asm.halt();
            asm.finish()
        };
        let mut fast = Functional::new(build(false));
        let mut slow = Functional::new(build(true));
        let fast_cycles = fast.run(10_000).cycles;
        let slow_cycles = slow.run(10_000).cycles;
        assert!(slow_cycles > fast_cycles + 10.0 * 2.0 * 30.0);
    }
}
