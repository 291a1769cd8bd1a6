//! The event-driven multiprocessor machine.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::error::Error;
use std::fmt;

use coherence::snoop::{BusOp, SnoopBus};
use coherence::{
    AccessResult, CacheController, CacheEvent, CacheToDir, Directory, DirToCache,
    ProcRequest, ProtocolError, RequestId,
};
use litmus::{Instr, Program, Reg, NUM_REGS};
use memory_model::{Loc, Memory, OpId, OpKind, Operation, ProcId, SyncOp, Value};
use simx::rng::SplitMix64;
use simx::{EventQueue, SimTime};

use crate::config::{CoherenceKind, MachineConfig, MachineConfigError, Policy};
use crate::diag::{ProcDump, StateDump};
use crate::interconnect::{Interconnect, MsgClass, Node, Route};
use crate::trace::{MachineStats, OpRecord, Outcome, ProcStats, RunResult, StallReason};

/// Why a run could not be performed or did not finish.
///
/// The watchdog variants ([`RunError::Deadlock`], [`RunError::Livelock`],
/// [`RunError::RetriesExhausted`]) and [`RunError::Protocol`] carry a
/// [`StateDump`]: under fault injection an aborted run is an expected
/// outcome, and the dump plus the config's seed is a complete reproduction
/// recipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The configuration is invalid.
    Config(MachineConfigError),
    /// The program has a different thread count than the machine has
    /// processors.
    ThreadCountMismatch {
        /// Threads in the program.
        threads: usize,
        /// Processors in the machine.
        procs: usize,
    },
    /// A thread looped in local (non-memory) instructions past the budget.
    LocalStepLimit {
        /// The runaway processor.
        proc: u16,
    },
    /// The event queue drained while some processor was still waiting:
    /// nothing can ever wake it (e.g. its request was blackholed).
    Deadlock {
        /// Machine snapshot at abort time.
        dump: Box<StateDump>,
    },
    /// Events kept flowing but no access committed for the configured
    /// stall limit (e.g. an endless NACK storm), or the global event
    /// budget ran out.
    Livelock {
        /// Machine snapshot at abort time.
        dump: Box<StateDump>,
    },
    /// A sender ran out of retries for a repeatedly dropped message.
    RetriesExhausted {
        /// The processor whose traffic gave up.
        proc: u16,
        /// Send attempts made (1 original + retries).
        attempts: u32,
        /// Machine snapshot at abort time.
        dump: Box<StateDump>,
    },
    /// A protocol invariant was violated by a delivered message.
    Protocol {
        /// The violated invariant.
        error: ProtocolError,
        /// Machine snapshot at abort time.
        dump: Box<StateDump>,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "invalid machine configuration: {e}"),
            RunError::ThreadCountMismatch { threads, procs } => write!(
                f,
                "program has {threads} threads but the machine has {procs} processors"
            ),
            RunError::LocalStepLimit { proc } => {
                write!(f, "processor P{proc} looped in local instructions")
            }
            RunError::Deadlock { dump } => write!(f, "deadlock: {dump}"),
            RunError::Livelock { dump } => write!(f, "livelock: {dump}"),
            RunError::RetriesExhausted { proc, attempts, dump } => {
                write!(f, "P{proc} exhausted {attempts} send attempts: {dump}")
            }
            RunError::Protocol { error, dump } => {
                write!(f, "protocol error: {error}: {dump}")
            }
        }
    }
}

impl Error for RunError {}

impl From<MachineConfigError> for RunError {
    fn from(e: MachineConfigError) -> Self {
        RunError::Config(e)
    }
}

/// What the processor is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WakeCond {
    /// The value of memory op `seq` (loads, sync reads).
    ValueOf(u32),
    /// Commit of memory op `seq`.
    CommitOf(u32),
    /// Global perform of memory op `seq`.
    GpOf(u32),
    /// This processor's outstanding counter reading zero.
    CounterZero,
    /// Any completion event for this processor (MSHR retry).
    Retry,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Waiting(StallReason, WakeCond),
    Halted,
    Failed,
}

#[derive(Debug, Clone, Copy)]
struct QueuedStore {
    loc: Loc,
    value: Value,
    seq: u32,
    ready_at: SimTime,
}

#[derive(Debug)]
struct Proc {
    pc: usize,
    regs: [Value; NUM_REGS],
    local_steps: u64,
    next_seq: u32,
    status: Status,
    stall_since: Option<(StallReason, SimTime)>,
    /// Accesses issued to the memory system and not yet globally performed
    /// (reads: not yet bound) — the Section 5.3 counter.
    outstanding: u64,
    in_outstanding: HashSet<u32>,
    /// Destination register of in-flight reads / sync reads, by seq.
    pending_dst: HashMap<u32, Reg>,
    /// Data stores waiting to issue (write buffer / MSHR-blocked retries).
    store_queue: VecDeque<QueuedStore>,
    /// Values of generated-but-uncommitted stores, newest last, for
    /// store-to-load forwarding under [`Policy::Relaxed`].
    pending_store_vals: HashMap<Loc, Vec<(u32, Value)>>,
    /// Definition 2 state: whether any line is currently reserved, and the
    /// number of misses sent since it was reserved.
    has_reserved: bool,
    reserved_misses: u32,
    tick_scheduled: bool,
    stats: ProcStats,
}

impl Proc {
    fn new() -> Self {
        Proc {
            pc: 0,
            regs: [0; NUM_REGS],
            local_steps: 0,
            next_seq: 0,
            status: Status::Ready,
            stall_since: None,
            outstanding: 0,
            in_outstanding: HashSet::new(),
            pending_dst: HashMap::new(),
            store_queue: VecDeque::new(),
            pending_store_vals: HashMap::new(),
            has_reserved: false,
            reserved_misses: 0,
            tick_scheduled: false,
            stats: ProcStats::default(),
        }
    }

    /// Clears all run state in place, keeping each collection's allocation.
    fn reset(&mut self) {
        self.pc = 0;
        self.regs = [0; NUM_REGS];
        self.local_steps = 0;
        self.next_seq = 0;
        self.status = Status::Ready;
        self.stall_since = None;
        self.outstanding = 0;
        self.in_outstanding.clear();
        self.pending_dst.clear();
        self.store_queue.clear();
        self.pending_store_vals.clear();
        self.has_reserved = false;
        self.reserved_misses = 0;
        self.tick_scheduled = false;
        self.stats = ProcStats::default();
    }
}

#[derive(Debug, Clone, Copy)]
enum ModAction {
    Read,
    Write(Value),
    Sync(SyncOp),
}

#[derive(Debug, Clone)]
enum Event {
    Tick(u16),
    DirMsg { from: u16, msg: CacheToDir },
    CacheMsg { to: u16, msg: DirToCache },
    ModuleReq { proc: u16, seq: u32, loc: Loc, action: ModAction },
    ModuleReply { proc: u16, seq: u32, loc: Loc, value: Option<Value>, gp_at: SimTime },
    SnoopTxn { proc: u16, seq: u32, op: BusOp, action: ModAction },
    StoreDrain(u16),
}

/// The simulated multiprocessor.
///
/// Use [`Machine::run_program`] for one-shot runs. Sweeps that execute
/// many `(program, config)` cells should build one machine with
/// [`Machine::new`] and recycle it with [`Machine::reset`] between
/// [`Machine::run_once`] calls: the event queue, store queues, cache
/// maps, and trace buffers keep their allocations across runs, and every
/// RNG stream is re-derived from the cell's seed, so a recycled run is
/// bit-identical to a cold one.
#[derive(Debug)]
pub struct Machine<'p> {
    program: &'p Program,
    config: MachineConfig,
    queue: EventQueue<Event>,
    ic: Interconnect,
    procs: Vec<Proc>,
    caches: Vec<CacheController>,
    directory: Directory,
    snoop: Option<SnoopBus>,
    /// Memory for cacheless machines.
    modules: Memory,
    records: Vec<OpRecord>,
    record_index: HashMap<OpId, usize>,
    footprint: BTreeSet<Loc>,
    failed: Option<RunError>,
    /// Last cycle at which any access committed or globally performed —
    /// the progress signal the livelock watchdog compares against.
    last_progress: SimTime,
    /// Whether [`Machine::run_once`] has consumed this configuration.
    ran: bool,
    /// Scratch buffers recycled across every directory/cache message, so
    /// the event loop's hot path allocates nothing per event.
    dir_buf: Vec<(ProcId, DirToCache)>,
    cache_ev_buf: Vec<CacheEvent>,
    cache_reply_buf: Vec<CacheToDir>,
}

impl<'p> Machine<'p> {
    /// Runs `program` to completion (or the watchdog) on the configured
    /// machine.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] for invalid configurations, thread-count
    /// mismatches, or runaway local loops. A run that hits the cycle
    /// watchdog is *not* an error: it returns a [`RunResult`] with
    /// `completed == false`.
    pub fn run_program(
        program: &'p Program,
        config: &MachineConfig,
    ) -> Result<RunResult, RunError> {
        Machine::new(program, config)?.run_once()
    }

    /// Builds a machine ready to run `program` under `config`: an empty
    /// machine, [`Machine::reset`] for this cell.
    ///
    /// # Errors
    ///
    /// Same validation as [`Machine::reset`].
    pub fn new(program: &'p Program, config: &MachineConfig) -> Result<Self, RunError> {
        let mut machine = Machine {
            program,
            config: *config,
            queue: EventQueue::new(),
            ic: Interconnect::new(config.interconnect, config.seed),
            procs: Vec::new(),
            caches: Vec::new(),
            directory: Directory::new(Memory::new()),
            snoop: None,
            modules: Memory::new(),
            records: Vec::new(),
            record_index: HashMap::new(),
            footprint: BTreeSet::new(),
            failed: None,
            last_progress: SimTime::ZERO,
            ran: false,
            dir_buf: Vec::new(),
            cache_ev_buf: Vec::new(),
            cache_reply_buf: Vec::new(),
        };
        machine.reset(program, config)?;
        Ok(machine)
    }

    /// Executes the configured run and assembles its [`RunResult`],
    /// leaving the machine ready for [`Machine::reset`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Machine::run_program`].
    ///
    /// # Panics
    ///
    /// Panics if called twice without an intervening [`Machine::reset`] —
    /// running on dirty state would silently corrupt the simulation.
    pub fn run_once(&mut self) -> Result<RunResult, RunError> {
        assert!(!self.ran, "Machine::run_once called twice without a reset");
        self.ran = true;
        self.run();
        self.collect_result()
    }

    /// Rewinds the machine for a fresh run of `program` under `config`,
    /// recycling every allocation the previous run grew (event queue heap,
    /// store queues, cache maps, record buffers). All RNG streams are
    /// derived from `config.seed` here, for a fresh machine too, so a
    /// reset machine replays a given cell bit-identically to a cold one.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Config`] for invalid configurations and
    /// [`RunError::ThreadCountMismatch`] when the program's thread count
    /// differs from the machine's processor count; on error the machine
    /// is left unusable until a subsequent `reset` succeeds.
    pub fn reset(
        &mut self,
        program: &'p Program,
        config: &MachineConfig,
    ) -> Result<(), RunError> {
        config.validate()?;
        if program.num_threads() != config.num_procs {
            return Err(RunError::ThreadCountMismatch {
                threads: program.num_threads(),
                procs: config.num_procs,
            });
        }
        let old_procs = self.config.num_procs;
        self.program = program;
        self.config = *config;
        self.queue.reset();
        // The fault plan gets its own stream, derived from the run seed, so
        // chaos perturbs message fates without reshuffling the latency
        // draws.
        let chaos = config
            .chaos
            .map(|fault| (fault, SplitMix64::new(config.seed ^ 0xC4A0_5FA0).next_u64()));
        self.ic.reset(config.interconnect, config.seed, chaos);
        self.procs.resize_with(config.num_procs, Proc::new);
        for proc in &mut self.procs {
            proc.reset();
        }
        self.caches.resize_with(config.num_procs, CacheController::new);
        let defer_recalls = matches!(config.policy, Policy::WoDef2(d2) if d2.queue_stalled_syncs);
        for cache in &mut self.caches {
            cache.reset(config.cache_capacity);
            cache.set_defer_recalls(defer_recalls);
        }
        self.directory.reset(program.initial_memory());
        self.snoop = if config.caches && config.coherence == CoherenceKind::Snooping {
            match self.snoop.take() {
                Some(mut bus) if old_procs == config.num_procs => {
                    bus.reset(program.initial_memory());
                    Some(bus)
                }
                _ => Some(SnoopBus::new(config.num_procs, program.initial_memory())),
            }
        } else {
            None
        };
        self.modules = program.initial_memory();
        self.records.clear();
        self.record_index.clear();
        self.footprint.clear();
        self.footprint.extend(program.init().iter().map(|&(l, _)| l));
        self.failed = None;
        self.last_progress = SimTime::ZERO;
        self.ran = false;
        Ok(())
    }

    /// Global event budget: a backstop far above what any legitimate run
    /// needs, so an event storm that keeps simulated time crawling (e.g. a
    /// NACK loop with tiny latencies) still terminates as a livelock.
    const EVENT_BUDGET: u64 = 50_000_000;

    fn run(&mut self) {
        for p in 0..self.procs.len() {
            self.schedule_tick(p as u16, SimTime::ZERO);
        }
        let mut events: u64 = 0;
        while let Some((t, ev)) = self.queue.pop() {
            if t.cycles() > self.config.max_cycles || self.failed.is_some() {
                return;
            }
            events += 1;
            if events > Self::EVENT_BUDGET {
                let dump = self.dump(format!(
                    "no convergence within {} events",
                    Self::EVENT_BUDGET
                ));
                self.failed = Some(RunError::Livelock { dump });
                return;
            }
            if let Some(limit) = self.config.stall_limit {
                if t.cycles() > self.last_progress.cycles().saturating_add(limit) {
                    let dump = self.dump(format!(
                        "no access committed or globally performed for {limit} cycles"
                    ));
                    self.failed = Some(RunError::Livelock { dump });
                    return;
                }
            }
            match ev {
                Event::Tick(p) => {
                    self.procs[p as usize].tick_scheduled = false;
                    self.proc_step(p);
                }
                Event::DirMsg { from, msg } => {
                    // Move the scratch buffer out of self so the handler
                    // can fill it while the send loop re-borrows self.
                    let mut out = std::mem::take(&mut self.dir_buf);
                    out.clear();
                    match self.directory.handle_into(ProcId(from), msg, &mut out) {
                        Ok(()) => {
                            for (to, reply) in out.drain(..) {
                                self.send_to_cache(to.0, reply);
                            }
                        }
                        Err(error) => self.fail_protocol(error),
                    }
                    self.dir_buf = out;
                }
                Event::CacheMsg { to, msg } => {
                    let mut ev_buf = std::mem::take(&mut self.cache_ev_buf);
                    let mut reply_buf = std::mem::take(&mut self.cache_reply_buf);
                    ev_buf.clear();
                    reply_buf.clear();
                    match self.caches[to as usize].handle_into(
                        msg,
                        &mut ev_buf,
                        &mut reply_buf,
                    ) {
                        Ok(()) => {
                            for ev in ev_buf.drain(..) {
                                self.apply_cache_event(to, ev);
                            }
                            for reply in reply_buf.drain(..) {
                                self.send_to_dir(to, reply);
                            }
                            self.after_completion(to);
                        }
                        Err(error) => self.fail_protocol(error),
                    }
                    self.cache_ev_buf = ev_buf;
                    self.cache_reply_buf = reply_buf;
                }
                Event::ModuleReq { proc, seq, loc, action } => {
                    self.module_apply(proc, seq, loc, action);
                }
                Event::ModuleReply { proc, seq, loc, value, gp_at } => {
                    self.module_reply(proc, seq, loc, value, gp_at);
                }
                Event::SnoopTxn { proc, seq, op, action } => {
                    self.snoop_transact(proc, seq, op, action);
                }
                Event::StoreDrain(p) => {
                    self.drain_store_queue(p);
                }
            }
        }
        // The queue drained. A processor still waiting can never be woken
        // now — its wake-up message is gone (blackholed), not late.
        if self.failed.is_none()
            && self.procs.iter().any(|p| matches!(p.status, Status::Waiting(..)))
        {
            let dump =
                self.dump("event queue drained with processors still waiting".to_string());
            self.failed = Some(RunError::Deadlock { dump });
        }
    }

    /// Records a protocol violation with a state dump; the run loop exits
    /// on the next iteration.
    fn fail_protocol(&mut self, error: ProtocolError) {
        let dump = self.dump(format!("protocol invariant violated: {error}"));
        self.failed = Some(RunError::Protocol { error, dump });
    }

    /// Snapshots the machine for an abort diagnostic.
    fn dump(&self, reason: String) -> Box<StateDump> {
        let procs = self
            .procs
            .iter()
            .enumerate()
            .map(|(i, proc)| ProcDump {
                proc: i as u16,
                status: format!("{:?}", proc.status),
                stall: proc.stall_since.map(|(r, since)| (r, since.cycles())),
                pc: proc.pc,
                outstanding: proc.outstanding,
                store_queue_len: proc.store_queue.len(),
                reserved_lines: self
                    .caches
                    .get(i)
                    .map(|c| c.reserved_lines())
                    .unwrap_or_default(),
            })
            .collect();
        Box::new(StateDump {
            at_cycle: self.now().cycles(),
            reason,
            procs,
            queued_events: self.queue.len(),
            directory_busy: self.directory.busy_lines(),
            chaos: self.ic.fault_stats().copied(),
        })
    }

    /// Sends `event` across the interconnect under the fault plan:
    /// schedules delivery (twice, for duplicated control messages), drops
    /// blackholed traffic on the floor, and aborts the run when a sender's
    /// retry budget is exhausted. `proc` attributes the traffic for the
    /// [`RunError::RetriesExhausted`] diagnostic.
    fn dispatch(&mut self, src: Node, dst: Node, class: MsgClass, proc: u16, event: Event) {
        match self.ic.route(self.now(), src, dst, class) {
            Route::Deliver { at, duplicate_at, retries: _ } => {
                if let Some(dup_at) = duplicate_at {
                    // Must stay: a duplicated delivery needs its own copy,
                    // and only the (rare) chaos dup path ever pays for it.
                    self.queue.schedule(dup_at, event.clone());
                }
                self.queue.schedule(at, event);
            }
            Route::Blackholed => {}
            Route::Exhausted { attempts } => {
                let dump =
                    self.dump(format!("P{proc} gave up resending after {attempts} attempts"));
                self.failed = Some(RunError::RetriesExhausted { proc, attempts, dump });
            }
        }
    }

    // ---------------------------------------------------------------
    // Processor execution
    // ---------------------------------------------------------------

    fn schedule_tick(&mut self, p: u16, at: SimTime) {
        let proc = &mut self.procs[p as usize];
        if !proc.tick_scheduled {
            proc.tick_scheduled = true;
            let at = at.max(self.queue.now());
            self.queue.schedule(at, Event::Tick(p));
        }
    }

    fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Puts the processor into a wait state, starting the stall clock.
    fn stall(&mut self, p: u16, reason: StallReason, cond: WakeCond) {
        let now = self.now();
        let proc = &mut self.procs[p as usize];
        proc.status = Status::Waiting(reason, cond);
        proc.stall_since = Some((reason, now));
    }

    /// Wakes the processor if `test` matches its wait condition.
    fn maybe_wake(&mut self, p: u16, test: impl Fn(WakeCond) -> bool) {
        let now = self.now();
        let proc = &mut self.procs[p as usize];
        if let Status::Waiting(_, cond) = proc.status {
            if test(cond) {
                if let Some((reason, since)) = proc.stall_since.take() {
                    *proc.stats.stalls.entry(reason).or_insert(0) +=
                        now.saturating_since(since);
                }
                proc.status = Status::Ready;
                self.schedule_tick(p, now);
            }
        }
    }

    fn proc_step(&mut self, p: u16) {
        let pi = p as usize;
        if self.procs[pi].status != Status::Ready {
            return;
        }
        // Run local (register/branch) instructions for free until the next
        // memory instruction or halt.
        let thread = &self.program.threads()[pi];
        let instr = loop {
            let now_cycles = self.now().cycles();
            let proc = &mut self.procs[pi];
            if proc.pc >= thread.len() {
                proc.status = Status::Halted;
                proc.stats.finish_time = now_cycles;
                return;
            }
            let instr = thread.instrs()[proc.pc];
            if instr.is_memory_op() {
                break instr;
            }
            if proc.local_steps > 1_000_000 {
                proc.status = Status::Failed;
                self.failed = Some(RunError::LocalStepLimit { proc: p });
                return;
            }
            proc.local_steps += 1;
            if instr == Instr::Fence && (proc.outstanding > 0 || !proc.store_queue.is_empty()) {
                // RP3-style: wait for all outstanding accesses to globally
                // perform (and buffered stores to drain).
                self.stall(p, StallReason::FenceDrain, WakeCond::CounterZero);
                return;
            }
            proc.pc = instr.step_local(proc.pc, &mut proc.regs);
        };

        // Policy gate: may this access be generated now?
        if let Some((reason, cond)) = self.issue_gate(p, &instr) {
            self.stall(p, reason, cond);
            return;
        }

        self.issue_memory(p, instr);

        // One memory operation per cycle: if still runnable, continue next
        // cycle.
        if self.procs[pi].status == Status::Ready {
            self.schedule_tick(p, self.now() + 1);
        }
    }

    /// The policy's pre-issue gate (returns a stall if the access may not
    /// be generated yet).
    fn issue_gate(&self, p: u16, instr: &Instr) -> Option<(StallReason, WakeCond)> {
        let proc = &self.procs[p as usize];
        let is_sync = instr.sync_op(&proc.regs).is_some();
        match self.config.policy {
            Policy::Sc => (proc.outstanding > 0)
                .then_some((StallReason::ScGlobalPerform, WakeCond::CounterZero)),
            Policy::Relaxed { .. } => None,
            Policy::WoDef1 => (is_sync && proc.outstanding > 0)
                .then_some((StallReason::Def1BeforeSync, WakeCond::CounterZero)),
            Policy::WoDef2(cfg) => {
                if let Some(max) = cfg.max_misses_while_reserved {
                    if proc.has_reserved && proc.reserved_misses >= max {
                        return Some((
                            StallReason::ReservedMissBudget,
                            WakeCond::CounterZero,
                        ));
                    }
                }
                None
            }
        }
    }

    /// Generates the memory access at the current pc and advances it.
    fn issue_memory(&mut self, p: u16, instr: Instr) {
        let pi = p as usize;
        let now = self.now();
        let seq = self.procs[pi].next_seq;
        self.procs[pi].next_seq += 1;
        self.procs[pi].pc += 1;
        self.procs[pi].stats.ops += 1;

        match instr {
            Instr::Read { loc, dst } => {
                self.footprint.insert(loc);
                // Store-to-load forwarding under Relaxed: a read may take
                // its value from the newest pending (uncommitted) write in
                // this processor's buffer.
                if matches!(self.config.policy, Policy::Relaxed { .. }) {
                    if let Some(vals) = self.procs[pi].pending_store_vals.get(&loc) {
                        if let Some(&(_, v)) = vals.last() {
                            self.record_complete(
                                p,
                                seq,
                                Operation::data_read(opid(p, seq), ProcId(p), loc, v),
                                now,
                                now,
                                now,
                            );
                            self.procs[pi].regs[dst.index()] = v;
                            return;
                        }
                    }
                }
                self.procs[pi].pending_dst.insert(seq, dst);
                self.start_record(p, seq, OpKind::DataRead, loc, None, now);
                self.begin_access(p, seq, loc, ModAction::Read, None);
            }
            Instr::Write { loc, src } => {
                self.footprint.insert(loc);
                let value = src.eval(&self.procs[pi].regs);
                self.start_record(p, seq, OpKind::DataWrite, loc, Some(value), now);
                let delay = match self.config.policy {
                    Policy::Relaxed { write_delay } => write_delay,
                    _ => 0,
                };
                if matches!(self.config.policy, Policy::Relaxed { .. }) {
                    self.procs[pi]
                        .pending_store_vals
                        .entry(loc)
                        .or_default()
                        .push((seq, value));
                }
                self.procs[pi].store_queue.push_back(QueuedStore {
                    loc,
                    value,
                    seq,
                    ready_at: now + delay,
                });
                if delay == 0 {
                    self.drain_store_queue(p);
                } else {
                    self.queue.schedule(now + delay, Event::StoreDrain(p));
                }
            }
            _ => {
                let (loc, op, dst) = instr
                    .sync_op(&self.procs[pi].regs)
                    .expect("local instructions handled in proc_step");
                self.issue_sync(p, seq, loc, op, dst);
            }
        }
    }

    fn issue_sync(&mut self, p: u16, seq: u32, loc: Loc, op: SyncOp, dst: Option<Reg>) {
        let pi = p as usize;
        let now = self.now();
        self.footprint.insert(loc);
        let kind = op.kind();
        // A writing primitive's stored value is known at issue unless it
        // depends on the cell: FetchAdd's becomes known only at commit.
        let write_value = match op {
            SyncOp::FetchAdd(_) => None,
            _ => kind.is_write().then(|| op.apply(0).1),
        };
        if let Some(dst) = dst {
            self.procs[pi].pending_dst.insert(seq, dst);
        }
        self.start_record(p, seq, kind, loc, write_value, now);

        let needs_exclusive = match self.config.policy {
            Policy::WoDef2(cfg) if cfg.read_only_sync_optimization => {
                !matches!(op, SyncOp::Test)
            }
            _ => true,
        };
        self.begin_access(p, seq, loc, ModAction::Sync(op), Some(needs_exclusive));

        // The access may have been rewound (MSHR conflict or a full cache
        // with no evictable victim); the processor is already stalled for a
        // retry and the record is gone.
        let Some(&rec_idx) = self.record_index.get(&opid(p, seq)) else {
            return;
        };

        // Post-issue waits. (Completion events processed synchronously by
        // begin_access may already have readied the op; only wait if it is
        // still incomplete.)
        let rec = &self.records[rec_idx];
        let committed = rec.commit != UNSET_TIME;
        let gp = rec.globally_performed != UNSET_TIME;
        match self.config.policy {
            Policy::Sc | Policy::WoDef1 => {
                if !gp {
                    let reason = if self.config.policy == Policy::Sc {
                        StallReason::ScGlobalPerform
                    } else {
                        StallReason::Def1AfterSync
                    };
                    self.stall(p, reason, WakeCond::GpOf(seq));
                }
            }
            Policy::WoDef2(_) => {
                if !committed {
                    self.stall(p, StallReason::SyncCommit, WakeCond::CommitOf(seq));
                }
            }
            Policy::Relaxed { .. } => {
                // Even the relaxed machine binds sync read values before
                // dependent use; treat sync ops like reads when they carry
                // a destination register.
                if !committed && dst.is_some() {
                    self.stall(p, StallReason::ReadValue, WakeCond::ValueOf(seq));
                }
            }
        }
    }

    /// Routes an access to the cache hierarchy or a memory module. For
    /// loads, installs the post-issue wait.
    fn begin_access(
        &mut self,
        p: u16,
        seq: u32,
        loc: Loc,
        action: ModAction,
        needs_exclusive: Option<bool>,
    ) {
        let pi = p as usize;
        if self.snoop.is_some() {
            self.begin_snoop_access(p, seq, loc, action);
            return;
        }
        if self.config.caches {
            let req = RequestId(u64::from(seq));
            let request = match action {
                ModAction::Read => ProcRequest::Load { loc, req },
                ModAction::Write(_) => unreachable!("stores go through the store queue"),
                ModAction::Sync(op) => ProcRequest::Sync {
                    loc,
                    op,
                    req,
                    needs_exclusive: needs_exclusive.unwrap_or(true),
                },
            };
            match self.caches[pi].access(request) {
                AccessResult::Done(events) => {
                    for ev in events {
                        self.apply_cache_event(p, ev);
                    }
                }
                AccessResult::Miss(msgs) => {
                    self.note_miss(p, seq);
                    for msg in msgs {
                        self.send_to_dir(p, msg);
                    }
                    if matches!(action, ModAction::Read) {
                        self.stall(p, StallReason::ReadValue, WakeCond::ValueOf(seq));
                    }
                }
                AccessResult::Blocked => {
                    // Same-line request outstanding: the access is
                    // regenerated when that request completes. Rewind.
                    self.procs[pi].pc -= 1;
                    self.procs[pi].next_seq -= 1;
                    self.procs[pi].stats.ops -= 1;
                    self.procs[pi].pending_dst.remove(&seq);
                    self.forget_record(p, seq);
                    self.stall(p, StallReason::MshrConflict, WakeCond::Retry);
                }
            }
        } else {
            self.note_miss(p, seq);
            let node = self.module_node(loc);
            self.dispatch(
                Node::Proc(p),
                node,
                MsgClass::Normal,
                p,
                Event::ModuleReq { proc: p, seq, loc, action },
            );
            if matches!(action, ModAction::Read) {
                self.stall(p, StallReason::ReadValue, WakeCond::ValueOf(seq));
            }
        }
    }

    fn note_miss(&mut self, p: u16, seq: u32) {
        let proc = &mut self.procs[p as usize];
        proc.outstanding += 1;
        proc.in_outstanding.insert(seq);
        if proc.has_reserved {
            proc.reserved_misses += 1;
        }
    }

    /// Drains ready entries from the head of the store queue, preserving
    /// program order among buffered stores.
    fn drain_store_queue(&mut self, p: u16) {
        self.drain_store_queue_inner(p);
        // A fence may be waiting for the buffer to empty while no access
        // is outstanding (e.g. every buffered store hit in the cache).
        let pi = p as usize;
        if self.procs[pi].store_queue.is_empty() && self.procs[pi].outstanding == 0 {
            self.maybe_wake(p, |c| c == WakeCond::CounterZero);
        }
    }

    fn drain_store_queue_inner(&mut self, p: u16) {
        let pi = p as usize;
        let now = self.now();
        while let Some(&head) = self.procs[pi].store_queue.front() {
            if head.ready_at > now {
                // Not ready: a StoreDrain event is already scheduled.
                return;
            }
            if let Some(bus) = self.snoop.as_mut() {
                if bus.line_state(ProcId(p), head.loc) == coherence::LineState::Exclusive {
                    bus.write_local(ProcId(p), head.loc, head.value);
                    self.procs[pi].store_queue.pop_front();
                    self.complete_snoop_write(p, head.seq, head.loc, now);
                } else {
                    self.procs[pi].store_queue.pop_front();
                    self.note_miss(p, head.seq);
                    self.dispatch(
                        Node::Proc(p),
                        Node::Module(0),
                        MsgClass::Normal,
                        p,
                        Event::SnoopTxn {
                            proc: p,
                            seq: head.seq,
                            op: BusOp::ReadExclusive { loc: head.loc },
                            action: ModAction::Write(head.value),
                        },
                    );
                }
                continue;
            }
            if self.config.caches {
                let req = RequestId(u64::from(head.seq));
                match self.caches[pi].access(ProcRequest::Store {
                    loc: head.loc,
                    value: head.value,
                    req,
                }) {
                    AccessResult::Done(events) => {
                        self.procs[pi].store_queue.pop_front();
                        for ev in events {
                            self.apply_cache_event(p, ev);
                        }
                    }
                    AccessResult::Miss(msgs) => {
                        self.procs[pi].store_queue.pop_front();
                        self.note_miss(p, head.seq);
                        for msg in msgs {
                            self.send_to_dir(p, msg);
                        }
                    }
                    AccessResult::Blocked => {
                        // Head waits for the same-line transaction to
                        // complete; retried by after_completion.
                        return;
                    }
                }
            } else {
                self.procs[pi].store_queue.pop_front();
                self.note_miss(p, head.seq);
                let node = self.module_node(head.loc);
                self.dispatch(
                    Node::Proc(p),
                    node,
                    MsgClass::Normal,
                    p,
                    Event::ModuleReq {
                        proc: p,
                        seq: head.seq,
                        loc: head.loc,
                        action: ModAction::Write(head.value),
                    },
                );
            }
        }
    }

    // ---------------------------------------------------------------
    // Cache-machine plumbing
    // ---------------------------------------------------------------

    fn shard(&self, loc: Loc) -> u32 {
        loc.0 % self.config.num_modules
    }

    fn module_node(&self, loc: Loc) -> Node {
        Node::Module(self.shard(loc))
    }

    fn send_to_dir(&mut self, from: u16, msg: CacheToDir) {
        let class = match msg {
            CacheToDir::InvAck { .. } => MsgClass::InvAck,
            _ => MsgClass::Normal,
        };
        let node = self.module_node(msg.loc());
        self.dispatch(Node::Proc(from), node, class, from, Event::DirMsg { from, msg });
    }

    fn send_to_cache(&mut self, to: u16, msg: DirToCache) {
        // Recalls and downgrades are the idempotent control messages the
        // fault plan is allowed to duplicate.
        let class = match msg {
            DirToCache::Recall { .. } | DirToCache::Downgrade { .. } => MsgClass::Control,
            _ => MsgClass::Normal,
        };
        let node = self.module_node(msg.loc());
        self.dispatch(node, Node::Proc(to), class, to, Event::CacheMsg { to, msg });
    }

    fn apply_cache_event(&mut self, p: u16, ev: CacheEvent) {
        let now = self.now();
        match ev {
            CacheEvent::LoadDone { req, loc, value } => {
                let seq = req.0 as u32;
                self.finish_read(p, seq, loc, value, now);
            }
            CacheEvent::StoreCommitted { req, loc: _ } => {
                let seq = req.0 as u32;
                self.set_commit(p, seq, now);
                // The store's value is now visible through the protocol:
                // drop it from the forwarding buffer.
                let proc = &mut self.procs[p as usize];
                if let Some(rec) = self.record_index.get(&opid(p, seq)) {
                    let loc = self.records[*rec].op.loc;
                    if let Some(vals) = proc.pending_store_vals.get_mut(&loc) {
                        vals.retain(|&(s, _)| s != seq);
                        if vals.is_empty() {
                            proc.pending_store_vals.remove(&loc);
                        }
                    }
                }
                self.maybe_wake(p, |c| c == WakeCond::CommitOf(seq));
            }
            CacheEvent::StoreGloballyPerformed { req, loc: _ } => {
                let seq = req.0 as u32;
                self.set_gp(p, seq, now);
                self.retire_outstanding(p, seq);
                self.maybe_wake(p, |c| c == WakeCond::GpOf(seq));
            }
            CacheEvent::SyncCommitted { req, loc, read_value } => {
                let seq = req.0 as u32;
                self.set_commit(p, seq, now);
                if let Some(v) = read_value {
                    self.bind_read_value(p, seq, v);
                }
                // FetchAdd's stored value becomes known at commit.
                if let Some(&idx) = self.record_index.get(&opid(p, seq)) {
                    let rec = &mut self.records[idx];
                    if rec.op.kind == OpKind::SyncRmw && rec.op.write_value.is_none() {
                        rec.op.write_value = self.caches[p as usize].cached_value(loc);
                    }
                }
                self.def2_reserve_check(p, seq, loc);
                self.maybe_wake(p, |c| {
                    c == WakeCond::CommitOf(seq) || c == WakeCond::ValueOf(seq)
                });
            }
            CacheEvent::SyncGloballyPerformed { req, loc: _ } => {
                let seq = req.0 as u32;
                self.set_gp(p, seq, now);
                self.retire_outstanding(p, seq);
                self.maybe_wake(p, |c| c == WakeCond::GpOf(seq));
            }
        }
    }

    /// Section 5.3: at synchronization commit, if the counter is positive
    /// (not counting the synchronization operation itself), reserve the
    /// line.
    fn def2_reserve_check(&mut self, p: u16, seq: u32, loc: Loc) {
        let Policy::WoDef2(cfg) = self.config.policy else { return };
        let pi = p as usize;
        // The Section 6 optimization: read-only sync ops do not reserve.
        if cfg.read_only_sync_optimization {
            if let Some(&idx) = self.record_index.get(&opid(p, seq)) {
                if self.records[idx].op.kind == OpKind::SyncRead {
                    return;
                }
            }
        }
        let own = u64::from(self.procs[pi].in_outstanding.contains(&seq));
        if self.procs[pi].outstanding - own > 0 {
            self.caches[pi].set_reserved(loc, true);
            let proc = &mut self.procs[pi];
            proc.has_reserved = true;
            proc.reserved_misses = 0;
        }
    }

    /// Called after a completion event batch: lets blocked work retry.
    fn after_completion(&mut self, p: u16) {
        self.drain_store_queue(p);
        self.maybe_wake(p, |c| c == WakeCond::Retry);
    }

    // ---------------------------------------------------------------
    // Snooping-bus machine
    // ---------------------------------------------------------------

    /// Issues a load or synchronization access on the snooping machine:
    /// local hit or an atomic bus transaction.
    fn begin_snoop_access(&mut self, p: u16, seq: u32, loc: Loc, action: ModAction) {
        let now = self.now();
        let bus = self.snoop.as_mut().expect("snoop access on a snooping machine");
        match action {
            ModAction::Read => {
                if let Some(v) = bus.cached_value(ProcId(p), loc) {
                    self.finish_read(p, seq, loc, v, now);
                    return;
                }
                self.note_miss(p, seq);
                self.dispatch(
                    Node::Proc(p),
                    Node::Module(0),
                    MsgClass::Normal,
                    p,
                    Event::SnoopTxn { proc: p, seq, op: BusOp::Read { loc }, action },
                );
                self.stall(p, StallReason::ReadValue, WakeCond::ValueOf(seq));
            }
            ModAction::Sync(op) => {
                if bus.line_state(ProcId(p), loc) == coherence::LineState::Exclusive {
                    let old = bus.cached_value(ProcId(p), loc).expect("exclusive line has a value");
                    self.apply_snoop_sync(p, seq, loc, op, old, now);
                    return;
                }
                self.note_miss(p, seq);
                self.dispatch(
                    Node::Proc(p),
                    Node::Module(0),
                    MsgClass::Normal,
                    p,
                    Event::SnoopTxn { proc: p, seq, op: BusOp::ReadExclusive { loc }, action },
                );
            }
            ModAction::Write(_) => unreachable!("stores go through the store queue"),
        }
    }

    /// The atomic bus grant: run the transaction and complete the access.
    fn snoop_transact(&mut self, p: u16, seq: u32, op: BusOp, action: ModAction) {
        let now = self.now();
        let loc = op.loc();
        let bus = self.snoop.as_mut().expect("snoop txn on a snooping machine");
        let granted = bus.transact(ProcId(p), op);
        match action {
            ModAction::Read => {
                self.finish_read(p, seq, loc, granted, now);
            }
            ModAction::Write(v) => {
                self.snoop.as_mut().expect("checked above").write_local(ProcId(p), loc, v);
                self.complete_snoop_write(p, seq, loc, now);
            }
            ModAction::Sync(sync_op) => {
                self.apply_snoop_sync(p, seq, loc, sync_op, granted, now);
            }
        }
        self.after_completion(p);
    }

    /// Applies a synchronization operation on an exclusively held line:
    /// on the atomic bus commit and global perform coincide.
    fn apply_snoop_sync(
        &mut self,
        p: u16,
        seq: u32,
        loc: Loc,
        op: SyncOp,
        old: Value,
        now: SimTime,
    ) {
        let (read_value, new) = op.apply(old);
        self.snoop
            .as_mut()
            .expect("sync apply on a snooping machine")
            .write_local(ProcId(p), loc, new);
        self.set_commit(p, seq, now);
        self.set_gp(p, seq, now);
        if let Some(v) = read_value {
            self.bind_read_value(p, seq, v);
        }
        if let Some(&idx) = self.record_index.get(&opid(p, seq)) {
            let rec = &mut self.records[idx];
            if rec.op.kind == OpKind::SyncRmw && rec.op.write_value.is_none() {
                rec.op.write_value = Some(new);
            }
        }
        self.retire_outstanding(p, seq);
        self.maybe_wake(p, |c| {
            c == WakeCond::CommitOf(seq)
                || c == WakeCond::ValueOf(seq)
                || c == WakeCond::GpOf(seq)
        });
    }

    fn complete_snoop_write(&mut self, p: u16, seq: u32, loc: Loc, now: SimTime) {
        self.set_commit(p, seq, now);
        self.set_gp(p, seq, now);
        let proc = &mut self.procs[p as usize];
        if let Some(vals) = proc.pending_store_vals.get_mut(&loc) {
            vals.retain(|&(s, _)| s != seq);
            if vals.is_empty() {
                proc.pending_store_vals.remove(&loc);
            }
        }
        self.retire_outstanding(p, seq);
        self.maybe_wake(p, |c| c == WakeCond::CommitOf(seq) || c == WakeCond::GpOf(seq));
    }

    // ---------------------------------------------------------------
    // Cacheless machine: memory modules
    // ---------------------------------------------------------------

    fn module_apply(&mut self, proc: u16, seq: u32, loc: Loc, action: ModAction) {
        let now = self.now();
        let value = match action {
            ModAction::Read => Some(self.modules.read(loc)),
            ModAction::Write(v) => {
                self.modules.write(loc, v);
                None
            }
            ModAction::Sync(op) => {
                let (read_value, left) = op.apply(self.modules.read(loc));
                self.modules.write(loc, left);
                // The access commits and is globally performed at the
                // module, now: FetchAdd's stored value is known here.
                if let SyncOp::FetchAdd(_) = op {
                    if let Some(&idx) = self.record_index.get(&opid(proc, seq)) {
                        self.records[idx].op.write_value = Some(left);
                    }
                }
                read_value
            }
        };
        let node = self.module_node(loc);
        self.dispatch(
            node,
            Node::Proc(proc),
            MsgClass::Normal,
            proc,
            Event::ModuleReply { proc, seq, loc, value, gp_at: now },
        );
    }

    fn module_reply(
        &mut self,
        p: u16,
        seq: u32,
        loc: Loc,
        value: Option<Value>,
        gp_at: SimTime,
    ) {
        // The access committed and globally performed at the module; the
        // processor learns now.
        self.set_commit_at(p, seq, gp_at);
        self.set_gp_at(p, seq, gp_at);
        if let Some(v) = value {
            self.bind_read_value(p, seq, v);
        }
        // Clear forwarded-store bookkeeping for writes.
        let proc = &mut self.procs[p as usize];
        if let Some(vals) = proc.pending_store_vals.get_mut(&loc) {
            vals.retain(|&(s, _)| s != seq);
            if vals.is_empty() {
                proc.pending_store_vals.remove(&loc);
            }
        }
        self.retire_outstanding(p, seq);
        self.maybe_wake(p, |c| {
            c == WakeCond::ValueOf(seq)
                || c == WakeCond::CommitOf(seq)
                || c == WakeCond::GpOf(seq)
        });
        self.after_completion(p);
    }

    // ---------------------------------------------------------------
    // Record bookkeeping
    // ---------------------------------------------------------------

    fn start_record(
        &mut self,
        p: u16,
        seq: u32,
        kind: OpKind,
        loc: Loc,
        write_value: Option<Value>,
        issue: SimTime,
    ) {
        let id = opid(p, seq);
        let op = Operation {
            id,
            proc: ProcId(p),
            kind,
            loc,
            read_value: None,
            write_value,
        };
        let rec = OpRecord {
            op,
            issue,
            commit: UNSET_TIME,
            globally_performed: UNSET_TIME,
        };
        self.record_index.insert(id, self.records.len());
        self.records.push(rec);
    }

    fn record_complete(
        &mut self,
        p: u16,
        seq: u32,
        op: Operation,
        issue: SimTime,
        commit: SimTime,
        gp: SimTime,
    ) {
        let id = opid(p, seq);
        let rec = OpRecord { op, issue, commit, globally_performed: gp };
        self.record_index.insert(id, self.records.len());
        self.records.push(rec);
    }

    fn forget_record(&mut self, p: u16, seq: u32) {
        if let Some(idx) = self.record_index.remove(&opid(p, seq)) {
            debug_assert_eq!(idx, self.records.len() - 1, "only the newest record rewinds");
            self.records.pop();
        }
    }

    fn set_commit(&mut self, p: u16, seq: u32, at: SimTime) {
        self.set_commit_at(p, seq, at);
    }

    fn set_commit_at(&mut self, p: u16, seq: u32, at: SimTime) {
        let idx = self.record_index[&opid(p, seq)];
        if self.records[idx].commit == UNSET_TIME {
            self.records[idx].commit = at;
            self.last_progress = self.last_progress.max(self.now());
        }
    }

    fn set_gp(&mut self, p: u16, seq: u32, at: SimTime) {
        self.set_gp_at(p, seq, at);
    }

    fn set_gp_at(&mut self, p: u16, seq: u32, at: SimTime) {
        let idx = self.record_index[&opid(p, seq)];
        if self.records[idx].globally_performed == UNSET_TIME {
            self.records[idx].globally_performed = at;
            self.last_progress = self.last_progress.max(self.now());
        }
    }

    fn bind_read_value(&mut self, p: u16, seq: u32, value: Value) {
        let idx = self.record_index[&opid(p, seq)];
        self.records[idx].op.read_value = Some(value);
        if let Some(dst) = self.procs[p as usize].pending_dst.remove(&seq) {
            self.procs[p as usize].regs[dst.index()] = value;
        }
    }

    fn finish_read(&mut self, p: u16, seq: u32, _loc: Loc, value: Value, now: SimTime) {
        self.set_commit(p, seq, now);
        self.set_gp(p, seq, now);
        self.bind_read_value(p, seq, value);
        self.retire_outstanding(p, seq);
        self.maybe_wake(p, |c| c == WakeCond::ValueOf(seq) || c == WakeCond::GpOf(seq));
    }

    /// Decrements the outstanding counter; at zero, clears all reserve
    /// bits (Section 5.3) and wakes counter-waiters.
    fn retire_outstanding(&mut self, p: u16, seq: u32) {
        let pi = p as usize;
        if self.procs[pi].in_outstanding.remove(&seq) {
            self.procs[pi].outstanding -= 1;
            if self.procs[pi].outstanding == 0 {
                if self.config.caches {
                    self.caches[pi].clear_all_reserved();
                    // Section 5.3's queue alternative: service every
                    // synchronization request that was held while a line
                    // was reserved.
                    for reply in self.caches[pi].take_deferred_recalls() {
                        self.send_to_dir(p, reply);
                    }
                }
                let proc = &mut self.procs[pi];
                proc.has_reserved = false;
                proc.reserved_misses = 0;
                self.maybe_wake(p, |c| c == WakeCond::CounterZero);
            }
        }
    }

    // ---------------------------------------------------------------
    // Result assembly
    // ---------------------------------------------------------------

    fn collect_result(&mut self) -> Result<RunResult, RunError> {
        if let Some(err) = self.failed.take() {
            return Err(err);
        }
        let completed = self.procs.iter().all(|p| p.status == Status::Halted);
        // Close out any still-open stall intervals.
        let now = self.now();
        for proc in &mut self.procs {
            if let Some((reason, since)) = proc.stall_since.take() {
                if !matches!(proc.status, Status::Halted) {
                    *proc.stats.stalls.entry(reason).or_insert(0) +=
                        now.saturating_since(since);
                }
            }
        }

        let final_memory: Vec<(Loc, Value)> = self
            .footprint
            .iter()
            .map(|&loc| (loc, self.coherent_value(loc)))
            .filter(|&(_, v)| v != 0)
            .collect();
        let outcome = Outcome {
            regs: self.procs.iter().map(|p| p.regs).collect(),
            final_memory,
        };

        let mut records = std::mem::take(&mut self.records);
        records.retain(|r| r.commit != UNSET_TIME);
        records.sort_by_key(|r| (r.commit, r.op.id));

        let snoop_stats = self.snoop.as_mut().map(SnoopBus::take_stats);
        let stats = MachineStats {
            procs: self
                .procs
                .iter_mut()
                .map(|p| std::mem::take(&mut p.stats))
                .collect(),
            directory: (self.config.caches && snoop_stats.is_none())
                .then(|| self.directory.take_stats()),
            snoop: snoop_stats,
            messages: self.ic.messages,
            chaos: self.ic.fault_stats().copied(),
            events_popped: self.queue.popped(),
            peak_queue_len: self.queue.peak_len() as u64,
        };

        Ok(RunResult { records, outcome, cycles: now.cycles(), stats, completed })
    }

    fn coherent_value(&self, loc: Loc) -> Value {
        if let Some(bus) = &self.snoop {
            return bus.coherent_value(loc);
        }
        if self.config.caches {
            for cache in &self.caches {
                if cache.line_state(loc) == coherence::LineState::Exclusive {
                    return cache.cached_value(loc).expect("exclusive line has a value");
                }
            }
            self.directory.memory_value(loc)
        } else {
            self.modules.read(loc)
        }
    }
}

const UNSET_TIME: SimTime = SimTime(u64::MAX);

fn opid(p: u16, seq: u32) -> OpId {
    OpId::for_thread_op(ProcId(p), seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Def2Config, InterconnectConfig};
    use litmus::{corpus, Thread};
    use memory_model::sc::{check_sc, ScCheckConfig};

    fn base(policy: Policy, caches: bool, procs: usize) -> MachineConfig {
        MachineConfig {
            num_procs: procs,
            caches,
            policy,
            seed: 7,
            ..MachineConfig::default()
        }
    }

    fn run(program: &Program, cfg: &MachineConfig) -> RunResult {
        let r = Machine::run_program(program, cfg).expect("run should start");
        assert!(r.completed, "run hit the watchdog: {:?}", r.stats);
        r
    }

    #[test]
    fn single_thread_sequential_semantics_on_every_machine() {
        let p = Program::new(vec![Thread::new()
            .write(Loc(0), 1)
            .read(Loc(0), Reg(0))
            .write(Loc(0), 2)
            .read(Loc(0), Reg(1))])
        .unwrap();
        for caches in [false, true] {
            for policy in [
                Policy::Sc,
                Policy::Relaxed { write_delay: 10 },
                Policy::WoDef1,
            ] {
                let r = run(&p, &base(policy, caches, 1));
                assert_eq!(r.outcome.regs[0][0], 1, "{policy:?} caches={caches}");
                assert_eq!(r.outcome.regs[0][1], 2, "{policy:?} caches={caches}");
            }
        }
        let r = run(&p, &base(Policy::WoDef2(Def2Config::default()), true, 1));
        assert_eq!(r.outcome.regs[0][..2], [1, 2]);
    }

    #[test]
    fn handoff_through_sync_works_on_def2() {
        let p = corpus::fig3_handoff(1);
        let r = run(&p, &base(Policy::WoDef2(Def2Config::default()), true, 2));
        assert_eq!(r.outcome.regs[1][1], 1, "P1 must observe x == 1");
    }

    #[test]
    fn handoff_through_sync_works_on_def1_and_sc() {
        let p = corpus::fig3_handoff(1);
        for policy in [Policy::Sc, Policy::WoDef1] {
            let r = run(&p, &base(policy, true, 2));
            assert_eq!(r.outcome.regs[1][1], 1, "{policy:?}");
        }
    }

    #[test]
    fn sc_machine_appears_sc_on_racy_dekker() {
        let p = corpus::fig1_dekker();
        for caches in [false, true] {
            for seed in 0..5 {
                let cfg = MachineConfig { seed, ..base(Policy::Sc, caches, 2) };
                let r = run(&p, &cfg);
                let obs = r.observation();
                assert!(
                    check_sc(&obs, &p.initial_memory(), &ScCheckConfig::default())
                        .is_consistent(),
                    "SC machine must appear SC (caches={caches}, seed={seed})"
                );
            }
        }
    }

    #[test]
    fn relaxed_bus_no_cache_violates_sc_on_dekker() {
        // Figure 1, first machine class: write buffers let reads pass
        // buffered writes; both processors read 0.
        let p = corpus::fig1_dekker();
        let cfg = MachineConfig {
            interconnect: InterconnectConfig::Bus { latency: 4 },
            ..base(Policy::Relaxed { write_delay: 40 }, false, 2)
        };
        let r = run(&p, &cfg);
        assert_eq!(r.outcome.regs[0][0], 0, "P0 read Y before P1's write drained");
        assert_eq!(r.outcome.regs[1][0], 0, "P1 read X before P0's write drained");
        let obs = r.observation();
        assert!(
            !check_sc(&obs, &p.initial_memory(), &ScCheckConfig::default()).is_consistent()
        );
    }

    #[test]
    fn relaxed_network_cache_can_violate_sc_on_dekker() {
        let p = corpus::fig1_dekker();
        let mut violated = false;
        for seed in 0..20 {
            let cfg = MachineConfig {
                interconnect: InterconnectConfig::Network {
                    min_latency: 2,
                    max_latency: 60,
                    ack_extra_delay: 0,
                },
                seed,
                ..base(Policy::Relaxed { write_delay: 0 }, true, 2)
            };
            let r = run(&p, &cfg);
            let obs = r.observation();
            if !check_sc(&obs, &p.initial_memory(), &ScCheckConfig::default())
                .is_consistent()
            {
                violated = true;
                break;
            }
        }
        assert!(violated, "some seed should show the Figure 1 violation");
    }

    #[test]
    fn def2_appears_sc_on_drf0_spinlock() {
        let p = corpus::spinlock(2, 2);
        for seed in 0..5 {
            let cfg = MachineConfig {
                seed,
                ..base(Policy::WoDef2(Def2Config::default()), true, 2)
            };
            let r = run(&p, &cfg);
            assert_eq!(
                r.outcome.final_memory,
                vec![(corpus::LOC_X, 4)],
                "counter == 4 and the lock released at exit (seed {seed})"
            );
            let obs = r.observation();
            assert!(
                check_sc(&obs, &p.initial_memory(), &ScCheckConfig::default())
                    .is_consistent(),
                "Def2 must appear SC to DRF0 programs (seed {seed})"
            );
        }
    }

    #[test]
    fn def1_appears_sc_on_drf0_spinlock() {
        let p = corpus::spinlock(2, 1);
        let r = run(&p, &base(Policy::WoDef1, true, 2));
        assert!(check_sc(
            &r.observation(),
            &p.initial_memory(),
            &ScCheckConfig::default()
        )
        .is_consistent());
    }

    #[test]
    fn def2_p0_does_not_stall_after_unset() {
        // The Figure 3 claim: under Definition 1, P0 stalls at the Unset
        // until W(x) is globally performed; under the Definition 2
        // implementation it never does.
        let p = corpus::fig3_handoff(3);
        let slow_acks = InterconnectConfig::Network {
            min_latency: 4,
            max_latency: 8,
            ack_extra_delay: 400,
        };
        // Warm P1's cache with x so P0's W(x) needs an invalidation round.
        // fig3_handoff's P1 spins on TestAndSet(s), so x is cold there;
        // instead rely on the recall path: P1 holds nothing, so W(x) is
        // instant. Use a 3-processor variant: P2 shares x first.
        let _ = p; // the simple two-processor program: compare stalls anyway.
        let warm = Program::new(vec![
            // P0: W(x); Unset(s); then more work.
            Thread::new()
                .write(corpus::LOC_X, 1)
                .sync_write(corpus::LOC_S, 0)
                .write(Loc(60), 1)
                .write(Loc(61), 1),
            // P1: spin TAS(s); R(x).
            Thread::new()
                .test_and_set(corpus::LOC_S, Reg(0))
                .branch_ne(Reg(0), 0u64, 0)
                .read(corpus::LOC_X, Reg(1)),
            // P2: reads x early so P0's write must invalidate it; then
            // halts.
            Thread::new().read(corpus::LOC_X, Reg(0)),
        ])
        .unwrap()
        .with_init(vec![(corpus::LOC_S, 1)]);

        let cfg_def1 = MachineConfig {
            interconnect: slow_acks,
            ..base(Policy::WoDef1, true, 3)
        };
        let cfg_def2 = MachineConfig {
            interconnect: slow_acks,
            ..base(Policy::WoDef2(Def2Config::default()), true, 3)
        };
        let r1 = run(&warm, &cfg_def1);
        let r2 = run(&warm, &cfg_def2);
        let def1_p0_sync_stall = r1.stats.procs[0].stall(StallReason::Def1BeforeSync)
            + r1.stats.procs[0].stall(StallReason::Def1AfterSync);
        let def2_p0_sync_stall = r2.stats.procs[0].stall(StallReason::SyncCommit);
        // Under Def1, P0 waits out the slow invalidation acks; under Def2
        // it only waits for the Unset to commit (procure the line).
        assert!(
            def1_p0_sync_stall > def2_p0_sync_stall,
            "Def1 P0 stall {def1_p0_sync_stall} should exceed Def2 {def2_p0_sync_stall}"
        );
        // Both still deliver the correct hand-off.
        assert_eq!(r1.outcome.regs[1][1], 1);
        assert_eq!(r2.outcome.regs[1][1], 1);
    }

    #[test]
    fn def2_sets_and_clears_reserve_bits() {
        // P0 writes x (slow invalidation), then Unsets s while the write is
        // pending: the line with s must be reserved, and P1's TAS must wait
        // until the write globally performs.
        // Handshake: P2 reads x (becoming a sharer) and signals t; P0
        // waits on t before writing x, so W(x) always needs a slow
        // invalidation round.
        let warm = Program::new(vec![
            Thread::new()
                .sync_read(corpus::LOC_T, Reg(2))
                .branch_ne(Reg(2), 1u64, 0)
                .write(corpus::LOC_X, 1)
                .sync_write(corpus::LOC_S, 0),
            Thread::new()
                .test_and_set(corpus::LOC_S, Reg(0))
                .branch_ne(Reg(0), 0u64, 0)
                .read(corpus::LOC_X, Reg(1)),
            Thread::new()
                .read(corpus::LOC_X, Reg(0))
                .sync_write(corpus::LOC_T, 1),
        ])
        .unwrap()
        .with_init(vec![(corpus::LOC_S, 1)]);
        let cfg = MachineConfig {
            interconnect: InterconnectConfig::Network {
                min_latency: 4,
                max_latency: 8,
                ack_extra_delay: 300,
            },
            ..base(Policy::WoDef2(Def2Config::default()), true, 3)
        };
        let r = run(&warm, &cfg);
        assert_eq!(r.outcome.regs[1][1], 1, "hand-off correct despite reservation");
        let stats = r.stats.directory.as_ref().expect("cached machine has directory stats");
        assert!(stats.nacks > 0, "P1's recall of the reserved line must be nacked");
        // P1's TAS cannot commit before P0's W(x) is globally performed.
        let p0 = r.proc_records(0);
        let p1 = r.proc_records(1);
        let wx = p0
            .iter()
            .find(|rec| rec.op.kind == OpKind::DataWrite)
            .expect("P0 wrote x");
        let wx_gp = wx.globally_performed;
        let successful_tas = p1
            .iter()
            .find(|rec| rec.op.kind == OpKind::SyncRmw && rec.op.read_value == Some(0))
            .expect("P1 eventually wins the TestAndSet");
        assert!(
            successful_tas.commit >= wx_gp,
            "TAS committed at {} before W(x) globally performed at {}",
            successful_tas.commit,
            wx_gp
        );
    }

    #[test]
    fn racy_program_can_show_non_sc_results_on_def2() {
        // Definition 2 promises nothing to racy programs; Dekker on the
        // Def2 machine can produce the (0,0) outcome.
        let mut non_sc = false;
        for seed in 0..30 {
            let cfg = MachineConfig {
                interconnect: InterconnectConfig::Network {
                    min_latency: 2,
                    max_latency: 50,
                    ack_extra_delay: 200,
                },
                seed,
                ..base(Policy::WoDef2(Def2Config::default()), true, 3)
            };
            // Warm both flags into a third processor so writes need invals.
            let warm = Program::new(vec![
                Thread::new().write(corpus::LOC_X, 1).read(corpus::LOC_Y, Reg(0)),
                Thread::new().write(corpus::LOC_Y, 1).read(corpus::LOC_X, Reg(0)),
                Thread::new().read(corpus::LOC_X, Reg(0)).read(corpus::LOC_Y, Reg(1)),
            ])
            .unwrap();
            let r = run(&warm, &cfg);
            if r.outcome.regs[0][0] == 0 && r.outcome.regs[1][0] == 0 {
                non_sc = true;
                break;
            }
        }
        assert!(non_sc, "some seed should show both processors reading 0");
    }

    #[test]
    fn barrier_workload_runs_on_all_policies() {
        let p = corpus::barrier(3);
        for policy in [
            Policy::Sc,
            Policy::WoDef1,
            Policy::WoDef2(Def2Config::default()),
            Policy::WoDef2(Def2Config {
                read_only_sync_optimization: true,
                max_misses_while_reserved: Some(4),
                ..Def2Config::default()
            }),
        ] {
            let r = run(&p, &base(policy, true, 3));
            // Every thread saw every slot: slots hold 1, 2, 3.
            assert_eq!(
                r.outcome.final_memory.iter().filter(|(l, _)| l.0 >= 10 && l.0 < 13).count(),
                3,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn snooping_machine_matches_directory_semantics() {
        use crate::presets;
        // Same workloads, both coherence mechanisms (on the bus machine):
        // identical final outcomes; SC appearance preserved.
        let programs = [corpus::spinlock(2, 2), corpus::fig3_handoff(1)];
        for program in &programs {
            for policy in [Policy::Sc, Policy::WoDef1] {
                let dir_cfg = presets::bus_cached(2, policy, 3);
                let snoop_cfg = presets::bus_cached_snooping(2, policy, 3);
                let a = run(program, &dir_cfg);
                let b = run(program, &snoop_cfg);
                assert_eq!(
                    a.outcome.final_memory, b.outcome.final_memory,
                    "{policy:?}: coherence mechanisms disagree on final memory"
                );
                assert!(check_sc(
                    &b.observation(),
                    &program.initial_memory(),
                    &ScCheckConfig::default()
                )
                .is_consistent());
                assert!(b.stats.snoop.is_some());
                assert!(b.stats.directory.is_none());
            }
        }
    }

    #[test]
    fn snooping_relaxed_machine_shows_the_dekker_violation() {
        use crate::presets;
        let p = corpus::fig1_dekker();
        let cfg = MachineConfig {
            policy: Policy::Relaxed { write_delay: 40 },
            ..presets::bus_cached_snooping(2, Policy::Sc, 0)
        };
        let r = run(&p, &cfg);
        assert_eq!(
            (r.outcome.regs[0][0], r.outcome.regs[1][0]),
            (0, 0),
            "write buffering must defeat Dekker on the snooping machine too"
        );
    }

    #[test]
    fn snooping_def1_appears_sc_on_drf0_corpus() {
        use crate::presets;
        for (name, program) in corpus::drf0_suite() {
            let cfg = presets::bus_cached_snooping(program.num_threads(), Policy::WoDef1, 1);
            let r = run(&program, &cfg);
            assert!(
                check_sc(&r.observation(), &program.initial_memory(), &ScCheckConfig::default())
                    .is_consistent(),
                "{name}"
            );
        }
    }

    #[test]
    fn snooping_interventions_happen_under_sharing() {
        use crate::presets;
        let p = corpus::spinlock(3, 2);
        let r = run(&p, &presets::bus_cached_snooping(3, Policy::WoDef1, 2));
        let stats = r.stats.snoop.as_ref().unwrap();
        assert!(stats.read_exclusives > 0);
        assert!(stats.invalidations > 0);
    }

    #[test]
    fn queued_sync_stalls_behave_like_nacks_but_without_retries() {
        use crate::presets;
        // The Figure 3 scenario with slow acks: queue mode must deliver
        // the same hand-off with zero NACK traffic.
        let warm = Program::new(vec![
            Thread::new()
                .sync_read(corpus::LOC_T, Reg(2))
                .branch_ne(Reg(2), 1u64, 0)
                .write(corpus::LOC_X, 1)
                .sync_write(corpus::LOC_S, 0),
            Thread::new()
                .test_and_set(corpus::LOC_S, Reg(0))
                .branch_ne(Reg(0), 0u64, 0)
                .read(corpus::LOC_X, Reg(1)),
            Thread::new()
                .read(corpus::LOC_X, Reg(0))
                .sync_write(corpus::LOC_T, 1),
        ])
        .unwrap()
        .with_init(vec![(corpus::LOC_S, 1)]);
        let ic = InterconnectConfig::Network {
            min_latency: 4,
            max_latency: 8,
            ack_extra_delay: 300,
        };
        let nack = MachineConfig {
            interconnect: ic,
            ..base(presets::wo_def2(), true, 3)
        };
        let queued = MachineConfig {
            interconnect: ic,
            ..base(presets::wo_def2_queued(), true, 3)
        };
        let rn = run(&warm, &nack);
        let rq = run(&warm, &queued);
        assert_eq!(rn.outcome.regs[1][1], 1);
        assert_eq!(rq.outcome.regs[1][1], 1);
        let nack_stats = rn.stats.directory.as_ref().unwrap();
        let queued_stats = rq.stats.directory.as_ref().unwrap();
        assert!(nack_stats.nacks > 0, "NACK mode must actually nack");
        assert_eq!(queued_stats.nacks, 0, "queue mode never nacks");
        assert!(
            rq.stats.messages < rn.stats.messages,
            "the queue saves the retry traffic: {} vs {}",
            rq.stats.messages,
            rn.stats.messages
        );
        // Both still appear SC and satisfy the correctness contract.
        assert!(check_sc(&rq.observation(), &warm.initial_memory(), &ScCheckConfig::default())
            .is_consistent());
    }

    #[test]
    fn queued_mode_runs_the_drf0_corpus_sc() {
        use crate::presets;
        for (name, program) in corpus::drf0_suite() {
            let cfg = presets::network_cached(
                program.num_threads(),
                presets::wo_def2_queued(),
                4,
            );
            let r = run(&program, &cfg);
            assert!(
                check_sc(&r.observation(), &program.initial_memory(), &ScCheckConfig::default())
                    .is_consistent(),
                "{name}"
            );
        }
    }

    #[test]
    fn fence_restores_sc_on_relaxed_machines_for_dekker() {
        // RP3-style fences drain outstanding accesses: the fenced Dekker
        // never shows the (0,0) outcome even on the relaxed write-buffer
        // machine that reliably produces it unfenced.
        let fenced = corpus::fig1_dekker_fenced();
        let unfenced = corpus::fig1_dekker();
        for caches in [false, true] {
            for seed in 0..10 {
                let cfg = MachineConfig {
                    interconnect: InterconnectConfig::Bus { latency: 4 },
                    caches,
                    num_modules: 1,
                    seed,
                    ..base(Policy::Relaxed { write_delay: 40 }, caches, 2)
                };
                let r = run(&fenced, &cfg);
                assert!(
                    !(r.outcome.regs[0][0] == 0 && r.outcome.regs[1][0] == 0),
                    "fenced Dekker must not show (0,0): caches={caches} seed={seed}"
                );
                assert!(check_sc(
                    &r.observation(),
                    &fenced.initial_memory(),
                    &ScCheckConfig::default()
                )
                .is_consistent());
                // Control: the unfenced program does show it on the bus
                // write-buffer machine.
                let r = run(&unfenced, &cfg);
                assert_eq!((r.outcome.regs[0][0], r.outcome.regs[1][0]), (0, 0));
            }
        }
    }

    #[test]
    fn fence_drain_time_is_accounted() {
        let fenced = corpus::fig1_dekker_fenced();
        let cfg = MachineConfig {
            interconnect: InterconnectConfig::Bus { latency: 4 },
            num_modules: 1,
            ..base(Policy::Relaxed { write_delay: 40 }, false, 2)
        };
        let r = run(&fenced, &cfg);
        let drained: u64 = r
            .stats
            .procs
            .iter()
            .map(|p| p.stall(StallReason::FenceDrain))
            .sum();
        assert!(drained > 0, "the fences must actually wait");
    }

    #[test]
    fn fence_is_a_noop_when_nothing_is_outstanding() {
        let p = Program::new(vec![Thread::new().fence().write(Loc(0), 1).fence()])
            .unwrap();
        let r = run(&p, &base(Policy::Sc, true, 1));
        assert_eq!(r.outcome.final_memory, vec![(Loc(0), 1)]);
    }

    #[test]
    fn pipeline_workload_flows_on_every_policy() {
        let p = crate::workload::pipeline_kernel(3, 4);
        for (name, policy) in crate::presets::all_policies() {
            let cfg = crate::presets::network_cached(3, policy, 2);
            let r = run(&p, &cfg);
            // 4 tokens, each produced with payload token+1 then bumped by
            // stages 1 and 2: final cell value = 4 (last token) + 2 bumps.
            let cell = r
                .outcome
                .final_memory
                .iter()
                .find(|(l, _)| *l == Loc(0))
                .map_or(0, |&(_, v)| v);
            assert_eq!(cell, 6, "{name}");
        }
    }

    #[test]
    fn doall_workload_is_embarrassingly_parallel() {
        let p = crate::workload::doall_kernel(4, 8, 9);
        let sc = run(&p, &base(Policy::Sc, true, 4));
        let def2 = run(&p, &base(Policy::WoDef2(Def2Config::default()), true, 4));
        // No sharing: nothing to invalidate, no ordering stalls at all
        // (cold-miss read latency is the only waiting).
        for s in &def2.stats.procs {
            for reason in [
                StallReason::SyncCommit,
                StallReason::ScGlobalPerform,
                StallReason::Def1BeforeSync,
                StallReason::Def1AfterSync,
                StallReason::ReservedMissBudget,
            ] {
                assert_eq!(s.stall(reason), 0, "{reason:?}");
            }
        }
        assert!(def2.cycles <= sc.cycles, "weak ordering can only help");
        assert_eq!(sc.outcome.final_memory, def2.outcome.final_memory);
    }

    #[test]
    fn thread_count_mismatch_is_an_error() {
        let p = corpus::fig1_dekker();
        let err = Machine::run_program(&p, &base(Policy::Sc, true, 3)).unwrap_err();
        assert!(matches!(err, RunError::ThreadCountMismatch { threads: 2, procs: 3 }));
    }

    #[test]
    fn local_loop_is_an_error() {
        let p = Program::new(vec![Thread::new().jump(0)]).unwrap();
        let err = Machine::run_program(&p, &base(Policy::Sc, true, 1)).unwrap_err();
        assert_eq!(err, RunError::LocalStepLimit { proc: 0 });
    }

    #[test]
    fn watchdog_marks_incomplete() {
        // P0 spins forever on a flag nobody sets.
        let p = Program::new(vec![Thread::new()
            .sync_read(Loc(100), Reg(0))
            .branch_ne(Reg(0), 1u64, 0)])
        .unwrap();
        let cfg = MachineConfig { max_cycles: 5_000, ..base(Policy::Sc, true, 1) };
        let r = Machine::run_program(&p, &cfg).unwrap();
        assert!(!r.completed);
    }

    #[test]
    fn bounded_caches_stay_correct_and_evict() {
        // Working set (8+ locations) far exceeds a 3-line cache: evictions
        // and write-backs happen constantly, yet results stay correct and
        // DRF0 runs still appear SC.
        let p = crate::workload::drf_kernel(&crate::workload::DrfKernelConfig {
            threads: 3,
            phases: 2,
            accesses_per_phase: 6,
            partition_size: 6,
            ..Default::default()
        });
        for policy in [Policy::Sc, Policy::WoDef1, Policy::WoDef2(Def2Config::default())] {
            let cfg = MachineConfig {
                cache_capacity: Some(3),
                ..base(policy, true, 3)
            };
            let r = run(&p, &cfg);
            let counter = r
                .outcome
                .final_memory
                .iter()
                .find(|(l, _)| *l == crate::workload::KERNEL_SHARED)
                .map_or(0, |&(_, v)| v);
            assert_eq!(counter, 6, "{policy:?}: 3 threads x 2 phases");
            let dir = r.stats.directory.as_ref().unwrap();
            assert!(dir.writebacks > 0, "{policy:?}: working set must not fit");
            let obs = r.observation();
            assert!(
                check_sc(&obs, &p.initial_memory(), &ScCheckConfig::default())
                    .is_consistent(),
                "{policy:?} with tiny cache must still appear SC"
            );
        }
    }

    #[test]
    fn reserved_line_survives_capacity_pressure() {
        // Def2 with a 2-line cache: while the sync line is reserved, the
        // processor touching new lines must not flush it; the run still
        // completes and hands off correctly.
        let warm = Program::new(vec![
            Thread::new()
                .sync_read(corpus::LOC_T, Reg(2))
                .branch_ne(Reg(2), 1u64, 0)
                .write(corpus::LOC_X, 1)
                .sync_write(corpus::LOC_S, 0)
                .write(Loc(60), 1)
                .write(Loc(61), 1)
                .write(Loc(62), 1),
            Thread::new()
                .test_and_set(corpus::LOC_S, Reg(0))
                .branch_ne(Reg(0), 0u64, 0)
                .read(corpus::LOC_X, Reg(1)),
            Thread::new()
                .read(corpus::LOC_X, Reg(0))
                .sync_write(corpus::LOC_T, 1),
        ])
        .unwrap()
        .with_init(vec![(corpus::LOC_S, 1)]);
        let cfg = MachineConfig {
            cache_capacity: Some(2),
            interconnect: InterconnectConfig::Network {
                min_latency: 4,
                max_latency: 8,
                ack_extra_delay: 300,
            },
            ..base(Policy::WoDef2(Def2Config::default()), true, 3)
        };
        let r = run(&warm, &cfg);
        assert_eq!(r.outcome.regs[1][1], 1, "hand-off correct under pressure");
        assert!(check_sc(
            &r.observation(),
            &warm.initial_memory(),
            &ScCheckConfig::default()
        )
        .is_consistent());
    }

    #[test]
    fn deterministic_given_seed() {
        let p = corpus::spinlock(3, 2);
        let cfg = base(Policy::WoDef2(Def2Config::default()), true, 3);
        let a = run(&p, &cfg);
        let b = run(&p, &cfg);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.records.len(), b.records.len());
    }

    #[test]
    fn records_have_coherent_timestamps() {
        let p = corpus::spinlock(2, 2);
        let r = run(&p, &base(Policy::WoDef2(Def2Config::default()), true, 2));
        for rec in &r.records {
            assert!(rec.issue <= rec.commit, "{rec:?}");
            assert!(rec.commit <= rec.globally_performed, "{rec:?}");
        }
    }

    #[test]
    fn def2_opt_does_not_serialize_tests() {
        let p = corpus::tts_spinlock(3, 2);
        let plain = run(&p, &base(Policy::WoDef2(Def2Config::default()), true, 3));
        let opt = run(
            &p,
            &base(
                Policy::WoDef2(Def2Config {
                    read_only_sync_optimization: true,
                    ..Def2Config::default()
                }),
                true,
                3,
            ),
        );
        // Both are correct...
        assert_eq!(
            plain.outcome.final_memory.iter().find(|(l, _)| *l == corpus::LOC_X),
            opt.outcome.final_memory.iter().find(|(l, _)| *l == corpus::LOC_X),
        );
        // ...and the optimized variant needs fewer exclusive transfers.
        let plain_dir = plain.stats.directory.unwrap();
        let opt_dir = opt.stats.directory.unwrap();
        assert!(
            opt_dir.get_exclusive < plain_dir.get_exclusive,
            "opt {} vs plain {}",
            opt_dir.get_exclusive,
            plain_dir.get_exclusive
        );
    }

    // ---------------------------------------------------------------
    // Fault injection and watchdogs
    // ---------------------------------------------------------------

    use simx::fault::{Chance, FaultConfig};

    fn chaos_base(policy: Policy, procs: usize, fault: FaultConfig, seed: u64) -> MachineConfig {
        MachineConfig { chaos: Some(fault), seed, ..base(policy, true, procs) }
    }

    #[test]
    fn blackholed_request_is_a_deadlock_with_a_dump() {
        // Every message vanishes: P0's GetShared never reaches the
        // directory, the event queue drains, and the deadlock watchdog
        // must explain exactly who was stuck and why.
        let p = Program::new(vec![Thread::new().read(Loc(0), Reg(0))]).unwrap();
        let fault = FaultConfig { blackhole_chance: Chance::always(), ..FaultConfig::off() };
        let err = Machine::run_program(&p, &chaos_base(Policy::Sc, 1, fault, 3)).unwrap_err();
        let RunError::Deadlock { dump } = err else {
            panic!("expected a deadlock, got: {err}");
        };
        assert_eq!(dump.procs.len(), 1);
        let p0 = &dump.procs[0];
        assert!(p0.status.contains("Waiting"), "status: {}", p0.status);
        assert_eq!(p0.stall.map(|(r, _)| r), Some(StallReason::ReadValue));
        assert_eq!(p0.outstanding, 1, "the lost GetShared is still counted");
        assert!(dump.chaos.expect("chaos stats ride in the dump").blackholed >= 1);
        let text = dump.to_string();
        assert!(text.contains("still waiting"), "dump text: {text}");
        assert!(text.contains("P0"), "dump text: {text}");
    }

    #[test]
    fn unreachable_directory_exhausts_retries() {
        // Every send is (detectably) dropped; after max_retries resends
        // the machine aborts with the attempt count and a dump.
        let p = Program::new(vec![Thread::new().read(Loc(0), Reg(0))]).unwrap();
        let fault = FaultConfig {
            drop_chance: Chance::always(),
            max_retries: 2,
            backoff_base: 8,
            ..FaultConfig::off()
        };
        let err = Machine::run_program(&p, &chaos_base(Policy::Sc, 1, fault, 3)).unwrap_err();
        let RunError::RetriesExhausted { proc, attempts, dump } = err else {
            panic!("expected exhausted retries, got: {err}");
        };
        assert_eq!(proc, 0);
        assert_eq!(attempts, 3, "1 original + 2 retries");
        assert_eq!(dump.chaos.expect("chaos stats ride in the dump").exhausted, 1);
    }

    #[test]
    fn vanished_acks_trip_a_watchdog() {
        // The def2_sets_and_clears_reserve_bits fixture, except every
        // invalidation acknowledgement silently vanishes: P0's W(x) can
        // never globally perform, the reserve bit on s never clears, and
        // P1's TestAndSet polls into a NACK storm that makes no progress.
        let warm = Program::new(vec![
            Thread::new()
                .sync_read(corpus::LOC_T, Reg(2))
                .branch_ne(Reg(2), 1u64, 0)
                .write(corpus::LOC_X, 1)
                .sync_write(corpus::LOC_S, 0),
            Thread::new()
                .test_and_set(corpus::LOC_S, Reg(0))
                .branch_ne(Reg(0), 0u64, 0)
                .read(corpus::LOC_X, Reg(1)),
            Thread::new()
                .read(corpus::LOC_X, Reg(0))
                .sync_write(corpus::LOC_T, 1),
        ])
        .unwrap()
        .with_init(vec![(corpus::LOC_S, 1)]);
        let fault = FaultConfig { ack_blackhole: true, ..FaultConfig::off() };
        let cfg = MachineConfig {
            chaos: Some(fault),
            stall_limit: Some(5_000),
            interconnect: InterconnectConfig::Network {
                min_latency: 4,
                max_latency: 8,
                ack_extra_delay: 300,
            },
            ..base(Policy::WoDef2(Def2Config::default()), true, 3)
        };
        let err = Machine::run_program(&warm, &cfg).unwrap_err();
        let dump = match err {
            RunError::Livelock { dump } | RunError::Deadlock { dump } => dump,
            other => panic!("expected a wedged-machine watchdog, got: {other}"),
        };
        assert!(
            dump.chaos.expect("chaos stats ride in the dump").blackholed >= 1,
            "at least one InvAck must have vanished"
        );
        // The wedge is visible in the dump: someone is still waiting.
        assert!(
            dump.procs.iter().any(|p| p.status.contains("Waiting")),
            "dump: {dump}"
        );
    }

    #[test]
    fn backoff_retries_converge_under_a_drop_storm() {
        // A 1-in-5 detectable drop rate with a generous retry budget:
        // every message eventually lands, the run completes, and the DRF0
        // program still appears sequentially consistent.
        let p = corpus::spinlock(2, 2);
        let fault = FaultConfig {
            drop_chance: Chance::of(1, 5),
            max_retries: 10,
            backoff_base: 4,
            ..FaultConfig::off()
        };
        let cfg = chaos_base(Policy::WoDef2(Def2Config::default()), 2, fault, 9);
        let r = Machine::run_program(&p, &cfg).expect("retries must drain the storm");
        assert!(r.completed, "backoff must converge");
        let chaos = r.stats.chaos.expect("chaos stats in the result");
        assert!(chaos.retries > 0, "a 1/5 drop rate must force retries: {chaos:?}");
        assert_eq!(chaos.exhausted, 0);
        assert_eq!(
            r.outcome.final_memory,
            vec![(corpus::LOC_X, 4)],
            "2 procs x 2 increments, lock released"
        );
        assert!(check_sc(&r.observation(), &p.initial_memory(), &ScCheckConfig::default())
            .is_consistent());
    }

    #[test]
    fn chaos_runs_are_reproducible_from_the_seed() {
        let p = corpus::spinlock(2, 2);
        let cfg = chaos_base(Policy::WoDef2(Def2Config::default()), 2, FaultConfig::drop_heavy(), 11);
        let a = Machine::run_program(&p, &cfg);
        let b = Machine::run_program(&p, &cfg);
        // Byte-identical outcomes — including timestamps, stats, and fault
        // counters — whether the run completed or aborted.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn drf0_appears_sc_under_latency_and_dup_chaos() {
        // The Definition 2 contract must survive message-timing chaos:
        // drop-free perturbations (delays, reordering across pairs,
        // duplicated recalls) never change what DRF0 software can observe.
        let p = corpus::spinlock(2, 2);
        for fault in [FaultConfig::latency_heavy(), FaultConfig::dup_heavy()] {
            for seed in 0..5 {
                let cfg = chaos_base(Policy::WoDef2(Def2Config::default()), 2, fault, seed);
                let r = Machine::run_program(&p, &cfg)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                assert!(r.completed, "drop-free chaos cannot wedge (seed {seed})");
                assert!(
                    check_sc(&r.observation(), &p.initial_memory(), &ScCheckConfig::default())
                        .is_consistent(),
                    "DRF0 program must appear SC under {fault:?} seed {seed}"
                );
            }
        }
    }
}
