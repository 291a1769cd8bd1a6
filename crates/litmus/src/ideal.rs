//! The idealized architecture: atomic memory, program order.
//!
//! [`IdealState`] interprets a [`Program`] one memory operation at a time.
//! Local instructions (moves, arithmetic, branches) are invisible to memory
//! and execute for free as part of the next memory step — this keeps the
//! exploration branching factor equal to the number of runnable threads per
//! *memory* operation, the only granularity that matters for the memory
//! model.
//!
//! # Storage layout and the incremental state digest
//!
//! The interpreter is the inner loop of every explorer, so its state is
//! stored struct-of-arrays: one flat `Vec` of program counters, one flat
//! `Vec` of register files (`NUM_REGS` slots per thread), and one flat
//! memory array indexed by a sorted table of the program's *static*
//! locations (the DSL has no computed addressing, so
//! [`Program::locations`] is exhaustive). No step allocates.
//!
//! A state built by [`IdealState::with_digest`] also keeps a 128-bit
//! [`StateDigest`] *incrementally*, for the converged-state explorer, the
//! only reader: each thread's current contribution is cached, so a step
//! hashes the stepping thread once and swaps the new contribution in, and
//! [`IdealState::undo`] swaps the saved one back without hashing. A state
//! built by [`IdealState::new`] keeps no digest and pays none of that
//! upkeep: no thread hash, no memory-cell accumulator, no read history
//! ([`IdealState::digest`] is `None` there, never stale). The digest
//! identifies the tuple the converged-state explorer used to rebuild per
//! node as three heap `Vec`s — per-thread (pc, registers, read-value
//! history) plus the memory snapshot — which made every DFS node
//! O(trace length). See [`StateDigest`] for the construction and its
//! thread-symmetry property, and [`IdealState::digest_from_scratch`] for
//! the independent recomputation the collision-audit tests check against.

use memory_model::{Execution, Loc, Memory, OpId, Operation, ProcId, Value};

use crate::{Instr, Program, NUM_REGS};

/// The outcome of stepping one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The thread performed the given memory operation.
    Performed(Operation),
    /// The thread ran to completion without another memory operation.
    Halted,
    /// The thread exceeded the per-thread step budget (a runaway loop).
    StepLimit,
}

/// A snapshot of one thread's architectural state.
///
/// Thread state is stored struct-of-arrays inside [`IdealState`]; this is
/// the assembled per-thread view handed out by [`IdealState::thread`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ThreadState {
    /// Program counter: index of the next instruction.
    pub pc: usize,
    /// Register file.
    pub regs: [Value; NUM_REGS],
    /// Local (non-memory) instructions executed so far.
    pub local_steps: u64,
}

/// The per-thread half of [`IdealState::state_key`]: each thread's program
/// counter and register file.
pub type ThreadStateKey = Vec<(usize, [Value; NUM_REGS])>;

/// A 128-bit incremental digest of the interpreter's architectural state
/// plus per-thread read-value histories.
///
/// # Construction
///
/// Two independent 64-bit lanes, each seeded differently, are maintained
/// over the same structure (a single lane's ~2⁻⁶⁴ collision odds compound
/// to ~2⁻¹²⁸ only if the lanes are independent — they use distinct seeds
/// at every mixing site). Each lane combines:
///
/// * a **commutative accumulator** (wrapping sum + xor) of one
///   contribution per thread, hashing `(identity class, pc, registers,
///   read-history hash)` — the thread *index* is deliberately absent, so
///   threads with identical code ([`Program::thread_identity_classes`])
///   contribute interchangeably and the digest is invariant under
///   permuting them: thread-symmetry reduction falls out of the encoding;
/// * a commutative accumulator of one contribution per **non-zero memory
///   cell** `(location, value)` — matching [`Memory::snapshot`]'s elision
///   of default cells;
/// * per-thread **order-dependent** read-history hashes folded into the
///   thread contribution: a thread's trajectory is a deterministic
///   function of the sequence of values its reads returned, so per-thread
///   read-value sequences (not a global interleaved history) are exactly
///   what distinguishes converged architectural states with different
///   observable pasts.
///
/// Every accumulator update is O(1) and exactly invertible. A state that
/// keeps the digest ([`IdealState::with_digest`]) also caches each
/// thread's current contribution, so [`IdealState::step`] hashes the
/// stepping thread once (its new contribution replaces the cached one in
/// the accumulator) and [`IdealState::undo`] puts the contribution its
/// [`StepUndo`] saved back without hashing at all. The collision-audit
/// property tests assert incremental ==
/// [`IdealState::digest_from_scratch`] after every step/undo pair across
/// 500 fuzz-generated programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StateDigest(pub u64, pub u64);

/// Per-lane seeds; every mixing site folds the lane seed in so the two
/// lanes are independent hash functions, not reparameterizations.
const LANE: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F];

/// SplitMix64 finalizer: a cheap, well-dispersing 64-bit mixer.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A commutative, exactly invertible accumulator: wrapping sum plus xor of
/// the member contributions. Sum alone would let two members cancel by
/// crafted negation; xor alone would cancel duplicates; together a
/// collision needs both to collide at once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Acc {
    sum: u64,
    xor: u64,
}

impl Acc {
    #[inline]
    fn add(&mut self, c: u64) {
        self.sum = self.sum.wrapping_add(c);
        self.xor ^= c;
    }

    #[inline]
    fn sub(&mut self, c: u64) {
        self.sum = self.sum.wrapping_sub(c);
        self.xor ^= c;
    }
}

/// The full state of a program executing on the idealized architecture.
///
/// # Examples
///
/// ```
/// use litmus::ideal::IdealState;
/// use litmus::{Program, Thread, Reg};
/// use memory_model::Loc;
///
/// let program = Program::new(vec![
///     Thread::new().write(Loc(0), 7),
///     Thread::new().read(Loc(0), Reg(0)),
/// ])?;
/// let mut state = IdealState::new(&program);
/// state.step(0); // thread 0 writes
/// state.step(1); // thread 1 reads 7
/// assert_eq!(state.thread(1).regs[0], 7);
/// let exec = state.into_execution();
/// assert_eq!(exec.len(), 2);
/// # Ok::<(), litmus::ProgramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IdealState<'p> {
    program: &'p Program,
    /// Program counter per thread.
    pcs: Vec<usize>,
    /// Register file per thread.
    regs: Vec<[Value; NUM_REGS]>,
    /// Local (non-memory) instructions executed, per thread.
    local_steps: Vec<u64>,
    /// Sorted table of every location the program can touch
    /// ([`Program::locations`]); `mem[i]` holds the value of `locs[i]`.
    locs: Vec<Loc>,
    mem: Vec<Value>,
    ops: Vec<Operation>,
    next_seq: Vec<u32>,
    /// Per-thread budget of local instructions, guarding against loops
    /// that never touch memory.
    local_step_limit: u64,
    /// The memory slot overwritten by the most recent step, captured so
    /// [`IdealState::step_undoable`] can hand out an O(1) undo record.
    last_write_undo: Option<(u32, Value)>,
    /// The [`StateDigest`] upkeep, present exactly for a state built by
    /// [`IdealState::with_digest`].
    digest: Option<Digest>,
}

/// What a state that keeps a [`StateDigest`] maintains beside the
/// architectural state.
#[derive(Debug, Clone)]
struct Digest {
    /// Thread identity classes ([`Program::thread_identity_classes`]),
    /// folded into digest contributions in place of thread indices.
    classes: Vec<u32>,
    threads: Vec<ThreadDigest>,
    /// Per-lane accumulator of thread contributions.
    thr_acc: [Acc; 2],
    /// Per-lane accumulator of non-zero memory-cell contributions.
    mem_acc: [Acc; 2],
}

/// One thread's part of a kept [`StateDigest`], per lane.
#[derive(Debug, Clone, Copy, Default)]
struct ThreadDigest {
    /// Order-dependent hash of the values the thread's reads have returned.
    hist: [u64; 2],
    /// The thread's contribution as it sits in `thr_acc` now.
    contrib: [u64; 2],
}

impl Digest {
    /// Swaps thread `t`'s cached contribution for `contrib` in the
    /// accumulators.
    #[inline]
    fn set_contrib(&mut self, t: usize, contrib: [u64; 2]) {
        let old = std::mem::replace(&mut self.threads[t].contrib, contrib);
        for lane in 0..2 {
            self.thr_acc[lane].sub(old[lane]);
            self.thr_acc[lane].add(contrib[lane]);
        }
    }

    fn finish(&self) -> StateDigest {
        StateDigest(
            finalize_lane(0, self.thr_acc[0], self.mem_acc[0]),
            finalize_lane(1, self.thr_acc[1], self.mem_acc[1]),
        )
    }
}

/// An O(1)-sized record reversing one [`IdealState::step_undoable`] call.
///
/// Exhaustive exploration used to clone the whole state (threads, memory,
/// op history) per transition — O(states × threads) allocation. An undo
/// log stores only what one step can touch: one thread's registers, one
/// memory cell, one op-sequence counter, and, where the state keeps a
/// [`StateDigest`], the thread's read-history hash and digest
/// contribution as they were, so the undo puts the contribution back
/// without rehashing the thread. The DFS allocates O(depth).
#[derive(Debug)]
pub struct StepUndo {
    thread: usize,
    prev_pc: usize,
    prev_regs: [Value; NUM_REGS],
    prev_local_steps: u64,
    prev_digest: ThreadDigest,
    prev_mem: Option<(u32, Value)>,
    performed_op: bool,
    prev_seq: u32,
}

impl<'p> IdealState<'p> {
    /// Default per-thread local-instruction budget.
    pub const DEFAULT_LOCAL_STEP_LIMIT: u64 = 10_000;

    /// Creates the initial state of `program`, keeping no [`StateDigest`].
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        let n = program.num_threads();
        let locs = program.locations();
        let mut mem = vec![0; locs.len()];
        for &(loc, v) in program.init() {
            let slot = locs.binary_search(&loc).expect("init loc is in the table");
            mem[slot] = v;
        }
        IdealState {
            program,
            pcs: vec![0; n],
            regs: vec![[0; NUM_REGS]; n],
            local_steps: vec![0; n],
            locs,
            mem,
            ops: Vec::new(),
            next_seq: vec![0; n],
            local_step_limit: Self::DEFAULT_LOCAL_STEP_LIMIT,
            last_write_undo: None,
            digest: None,
        }
    }

    /// Creates the initial state of `program`, keeping its [`StateDigest`]
    /// up to date through every step and undo.
    #[must_use]
    pub fn with_digest(program: &'p Program) -> Self {
        let mut state = Self::new(program);
        let mut digest = Digest {
            classes: program.thread_identity_classes(),
            threads: vec![ThreadDigest::default(); state.pcs.len()],
            thr_acc: [Acc::default(); 2],
            mem_acc: [Acc::default(); 2],
        };
        for t in 0..state.pcs.len() {
            let c = thread_contrib(digest.classes[t], state.pcs[t], &state.regs[t], [0; 2]);
            digest.set_contrib(t, c);
        }
        for (slot, &v) in state.mem.iter().enumerate() {
            if v != 0 {
                for lane in 0..2 {
                    digest.mem_acc[lane].add(cell_contrib(lane, state.locs[slot], v));
                }
            }
        }
        state.digest = Some(digest);
        state
    }

    /// Whether thread `t` can still execute (its pc is inside the thread).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn runnable(&self, t: usize) -> bool {
        self.pcs[t] < self.program.threads()[t].len()
    }

    /// Indices of all runnable threads.
    ///
    /// Allocates; the exploration inner loops iterate
    /// `0..`[`IdealState::num_threads`] with [`IdealState::runnable`]
    /// instead.
    #[must_use]
    pub fn runnable_threads(&self) -> Vec<usize> {
        (0..self.pcs.len()).filter(|&t| self.runnable(t)).collect()
    }

    /// Number of threads (runnable or not).
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.pcs.len()
    }

    /// Whether every thread has halted. Allocation-free.
    #[must_use]
    pub fn finished(&self) -> bool {
        (0..self.pcs.len()).all(|t| !self.runnable(t))
    }

    /// Runs thread `t` until it performs one memory operation (atomically,
    /// against the shared memory) or halts.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn step(&mut self, t: usize) -> StepOutcome {
        self.last_write_undo = None;
        let outcome = self.step_inner(t);
        // Incremental digest upkeep: the step may have changed t's
        // pc/registers/history (a `Halted` or `StepLimit` step too) and one
        // memory cell, which updated its accumulator at the write site.
        // Hash t once and swap the result in for its cached contribution.
        if let Some(digest) = &mut self.digest {
            let c = thread_contrib(digest.classes[t], self.pcs[t], &self.regs[t], digest.threads[t].hist);
            digest.set_contrib(t, c);
        }
        outcome
    }

    fn step_inner(&mut self, t: usize) -> StepOutcome {
        let thread = self.program.threads()[t].instrs();
        loop {
            let pc = self.pcs[t];
            let Some(&instr) = thread.get(pc) else {
                return StepOutcome::Halted;
            };
            if instr.is_memory_op() {
                let op = self.perform_memory(t, instr);
                self.pcs[t] += 1;
                self.ops.push(op);
                return StepOutcome::Performed(op);
            }
            if self.local_steps[t] >= self.local_step_limit {
                return StepOutcome::StepLimit;
            }
            self.local_steps[t] += 1;
            // The idealized architecture is already sequentially
            // consistent: a fence is a plain local step.
            self.pcs[t] = instr.step_local(pc, &mut self.regs[t]);
        }
    }

    fn perform_memory(&mut self, t: usize, instr: Instr) -> Operation {
        let proc = ProcId(t as u16);
        let id = OpId::for_thread_op(proc, self.next_seq[t]);
        self.next_seq[t] += 1;
        let loc = instr.memory_loc().expect("caller checked is_memory_op");
        let slot = self.loc_slot(loc);
        let found = self.mem[slot];
        let (op, dst) = match instr {
            Instr::Read { dst, .. } => (Operation::data_read(id, proc, loc, found), Some(dst)),
            Instr::Write { src, .. } => {
                (Operation::data_write(id, proc, loc, src.eval(&self.regs[t])), None)
            }
            _ => {
                let (_, sync, dst) =
                    instr.sync_op(&self.regs[t]).expect("memory ops are data or sync");
                (sync.perform(id, proc, loc, found), dst)
            }
        };
        if let Some(v) = op.write_value {
            self.last_write_undo = Some((slot as u32, found));
            self.mem_store(slot, v);
        }
        if let (Some(dst), Some(v)) = (dst, op.read_value) {
            self.regs[t][dst.index()] = v;
            self.record_read(t, v);
        }
        op
    }

    /// Like [`IdealState::step`], but also returns a [`StepUndo`] that
    /// reverses the step via [`IdealState::undo`]. A step touches exactly
    /// one thread's local state, at most one memory cell, and appends at
    /// most one operation, so the record is O(1) regardless of program
    /// size — the backbone of the exploration undo log.
    ///
    /// # Examples
    ///
    /// ```
    /// use litmus::ideal::IdealState;
    /// use litmus::{Program, Thread};
    /// use memory_model::Loc;
    ///
    /// let program = Program::new(vec![Thread::new().write(Loc(0), 7)])?;
    /// let mut state = IdealState::new(&program);
    /// let (_, undo) = state.step_undoable(0);
    /// assert_eq!(state.memory().read(Loc(0)), 7);
    /// state.undo(undo);
    /// assert_eq!(state.memory().read(Loc(0)), 0);
    /// assert!(state.runnable(0));
    /// # Ok::<(), litmus::ProgramError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn step_undoable(&mut self, t: usize) -> (StepOutcome, StepUndo) {
        let prev_regs = self.regs[t];
        let prev_pc = self.pcs[t];
        let prev_local_steps = self.local_steps[t];
        let prev_digest = self.digest.as_ref().map_or_else(ThreadDigest::default, |d| d.threads[t]);
        let prev_seq = self.next_seq[t];
        let outcome = self.step(t);
        let undo = StepUndo {
            thread: t,
            prev_pc,
            prev_regs,
            prev_local_steps,
            prev_digest,
            prev_mem: self.last_write_undo.take(),
            performed_op: matches!(outcome, StepOutcome::Performed(_)),
            prev_seq,
        };
        (outcome, undo)
    }

    /// Reverses the step that produced `undo`, including a kept
    /// [`StateDigest`], whose thread contribution the record saved, so
    /// nothing is rehashed. Undo records must be applied in LIFO order
    /// (most recent step first); the exploration DFS guarantees that by
    /// construction.
    pub fn undo(&mut self, undo: StepUndo) {
        let t = undo.thread;
        self.pcs[t] = undo.prev_pc;
        self.regs[t] = undo.prev_regs;
        self.local_steps[t] = undo.prev_local_steps;
        if let Some(digest) = &mut self.digest {
            digest.threads[t].hist = undo.prev_digest.hist;
            digest.set_contrib(t, undo.prev_digest.contrib);
        }
        self.next_seq[t] = undo.prev_seq;
        if undo.performed_op {
            self.ops.pop();
        }
        if let Some((slot, v)) = undo.prev_mem {
            self.mem_store(slot as usize, v);
        }
    }

    /// The state of thread `t`, assembled from the flat storage.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn thread(&self, t: usize) -> ThreadState {
        ThreadState {
            pc: self.pcs[t],
            regs: self.regs[t],
            local_steps: self.local_steps[t],
        }
    }

    /// The register file of thread `t`, as a slice into the flat storage.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn regs(&self, t: usize) -> &[Value] {
        &self.regs[t]
    }

    /// The current memory, materialized as a [`Memory`] (non-zero cells
    /// only; reads of untouched locations default to zero as always).
    #[must_use]
    pub fn memory(&self) -> Memory {
        self.locs
            .iter()
            .zip(&self.mem)
            .filter(|&(_, &v)| v != 0)
            .map(|(&loc, &v)| (loc, v))
            .collect()
    }

    /// The canonical memory snapshot — non-default cells in location order,
    /// identical to [`Memory::snapshot`] of [`IdealState::memory`] but read
    /// straight off the flat array.
    #[must_use]
    pub fn memory_snapshot(&self) -> Vec<(Loc, Value)> {
        self.locs
            .iter()
            .zip(&self.mem)
            .filter(|&(_, &v)| v != 0)
            .map(|(&loc, &v)| (loc, v))
            .collect()
    }

    /// Operations performed so far, in completion order.
    #[must_use]
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Consumes the state, yielding the [`Execution`] performed so far.
    #[must_use]
    pub fn into_execution(self) -> Execution {
        Execution::new(self.ops).expect("interpreter assigns unique ids")
    }

    /// The [`Execution`] performed so far, without consuming the state —
    /// what the undo-log DFS uses at each completed leaf (the state is
    /// about to be rolled back, not dropped).
    #[must_use]
    pub fn execution(&self) -> Execution {
        Execution::new(self.ops.clone()).expect("interpreter assigns unique ids")
    }

    /// The observable result of the execution so far, built directly from
    /// the interpreter's storage: read values by operation id plus the
    /// canonical memory snapshot. Identical to
    /// `self.execution().result(&program.initial_memory())` without
    /// cloning and re-validating the op list.
    #[must_use]
    pub fn result(&self) -> memory_model::ExecutionResult {
        memory_model::ExecutionResult {
            reads: self
                .ops
                .iter()
                .filter_map(|op| op.read_value.map(|v| (op.id, v)))
                .collect(),
            final_memory: self.memory_snapshot(),
        }
    }

    /// A hashable key identifying the architectural state (pcs, registers,
    /// memory) — used by result-set exploration to prune converged states.
    #[must_use]
    pub fn state_key(&self) -> (ThreadStateKey, Vec<(Loc, Value)>) {
        (
            self.pcs.iter().copied().zip(self.regs.iter().copied()).collect(),
            self.memory_snapshot(),
        )
    }

    /// The incrementally maintained [`StateDigest`], or `None` for a state
    /// built by [`IdealState::new`], which keeps none. O(1): the
    /// accumulators are combined and finalized, nothing is rehashed.
    #[must_use]
    pub fn digest(&self) -> Option<StateDigest> {
        self.digest.as_ref().map(Digest::finish)
    }

    /// Recomputes the [`StateDigest`] from nothing but the program, the
    /// current architectural state and the op history — the independent
    /// oracle the collision-audit tests compare [`IdealState::digest`]
    /// against after every step/undo pair. Works whether or not the state
    /// keeps a digest. O(threads × registers + trace + memory).
    #[must_use]
    pub fn digest_from_scratch(&self) -> StateDigest {
        // Replay per-thread read histories from the op list rather than
        // trusting the incrementally maintained ones.
        let mut hist = vec![[0u64; 2]; self.pcs.len()];
        for op in &self.ops {
            if let Some(v) = op.read_value {
                let h = &mut hist[op.proc.index()];
                *h = [hist_step(0, h[0], v), hist_step(1, h[1], v)];
            }
        }
        let classes = self.program.thread_identity_classes();
        let mut thr = [Acc::default(); 2];
        for (t, h) in hist.iter().enumerate() {
            let c = thread_contrib(classes[t], self.pcs[t], &self.regs[t], *h);
            for lane in 0..2 {
                thr[lane].add(c[lane]);
            }
        }
        let mut mem = [Acc::default(); 2];
        for (i, &v) in self.mem.iter().enumerate() {
            if v != 0 {
                for (lane, acc) in mem.iter_mut().enumerate() {
                    acc.add(cell_contrib(lane, self.locs[i], v));
                }
            }
        }
        StateDigest(finalize_lane(0, thr[0], mem[0]), finalize_lane(1, thr[1], mem[1]))
    }

    /// Folds one read value into thread `t`'s history lanes, where the
    /// state keeps a digest. The step re-hashes the thread after it.
    #[inline]
    fn record_read(&mut self, t: usize, v: Value) {
        if let Some(digest) = &mut self.digest {
            let h = &mut digest.threads[t].hist;
            *h = [hist_step(0, h[0], v), hist_step(1, h[1], v)];
        }
    }

    /// Writes `v` to memory slot `slot`, keeping a kept digest's per-lane
    /// memory accumulators exact (remove the old non-zero cell
    /// contribution, add the new one).
    fn mem_store(&mut self, slot: usize, v: Value) {
        let old = std::mem::replace(&mut self.mem[slot], v);
        if let Some(digest) = &mut self.digest {
            if old == v {
                return;
            }
            let loc = self.locs[slot];
            for (lane, acc) in digest.mem_acc.iter_mut().enumerate() {
                if old != 0 {
                    acc.sub(cell_contrib(lane, loc, old));
                }
                if v != 0 {
                    acc.add(cell_contrib(lane, loc, v));
                }
            }
        }
    }

    #[inline]
    fn loc_slot(&self, loc: Loc) -> usize {
        self.locs
            .binary_search(&loc)
            .expect("static location table is exhaustive")
    }

    /// Runs the whole program under a fixed round-robin schedule; useful
    /// for quick sanity runs and doc examples.
    ///
    /// Returns the completed execution, or `None` if a step limit was hit.
    #[must_use]
    pub fn run_round_robin(program: &'p Program) -> Option<Execution> {
        let mut state = IdealState::new(program);
        let n = program.num_threads();
        let mut idle_rounds = 0;
        let mut t = 0;
        while !state.finished() {
            if state.runnable(t) {
                match state.step(t) {
                    StepOutcome::StepLimit => return None,
                    StepOutcome::Performed(_) | StepOutcome::Halted => {}
                }
                idle_rounds = 0;
            } else {
                idle_rounds += 1;
                if idle_rounds > n {
                    break;
                }
            }
            t = (t + 1) % n.max(1);
        }
        Some(state.into_execution())
    }
}

/// One thread's digest contribution in both lanes: identity class (not
/// index — see [`StateDigest`]), pc, registers, and the read-history hash
/// `hist`. The lanes run interleaved over one pass of the registers, each
/// with its own seed.
#[inline]
fn thread_contrib(class: u32, pc: usize, regs: &[Value; NUM_REGS], hist: [u64; 2]) -> [u64; 2] {
    let key = (u64::from(class) << 32) ^ pc as u64;
    let mut h = [mix(LANE[0] ^ key), mix(LANE[1] ^ key)];
    for &r in regs {
        h = [mix(h[0] ^ r), mix(h[1] ^ r)];
    }
    [mix(h[0] ^ hist[0]), mix(h[1] ^ hist[1])]
}

/// One order-dependent history-hash step: folds `v` into the running lane
/// hash. Non-commutative (`mix` is applied to the running value), so
/// `[a, b]` and `[b, a]` diverge.
#[inline]
fn hist_step(lane: usize, h: u64, v: Value) -> u64 {
    mix(h ^ mix(v ^ LANE[lane]))
}

/// The digest contribution of one non-zero memory cell.
#[inline]
fn cell_contrib(lane: usize, loc: Loc, v: Value) -> u64 {
    mix(mix(LANE[lane] ^ u64::from(loc.0)) ^ v)
}

/// Combines a lane's accumulators into its final digest word.
#[inline]
fn finalize_lane(lane: usize, thr: Acc, mem: Acc) -> u64 {
    let mut h = LANE[lane];
    h = mix(h ^ thr.sum);
    h = mix(h ^ thr.xor);
    h = mix(h ^ mem.sum);
    mix(h ^ mem.xor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memory_model::Loc;
    use crate::{Reg, Thread};

    fn two_thread_handoff() -> Program {
        // P0: W(x)=1; S.w(s)=1      P1: S.r(s)->r0; R(x)->r1
        Program::new(vec![
            Thread::new().write(Loc(0), 1).sync_write(Loc(9), 1),
            Thread::new().sync_read(Loc(9), Reg(0)).read(Loc(0), Reg(1)),
        ])
        .unwrap()
    }

    #[test]
    fn step_performs_memory_ops_in_program_order() {
        let p = two_thread_handoff();
        let mut s = IdealState::new(&p);
        assert!(s.runnable(0) && s.runnable(1));
        let StepOutcome::Performed(op) = s.step(0) else { panic!() };
        assert_eq!(op.loc, Loc(0));
        let StepOutcome::Performed(op) = s.step(0) else { panic!() };
        assert!(op.kind.is_sync());
        assert_eq!(s.step(0), StepOutcome::Halted);
        assert!(!s.runnable(0));
    }

    #[test]
    fn reads_observe_atomic_memory() {
        let p = two_thread_handoff();
        let mut s = IdealState::new(&p);
        s.step(1); // P1 syncs first: sees 0
        assert_eq!(s.thread(1).regs[0], 0);
        s.step(0);
        s.step(0);
        s.step(1); // P1 reads x after P0 wrote it
        assert_eq!(s.thread(1).regs[1], 1);
        let exec = s.into_execution();
        assert!(exec.validate_atomic_semantics(&Memory::new()).is_ok());
    }

    #[test]
    fn test_and_set_is_atomic() {
        let lock = Loc(0);
        let p = Program::new(vec![
            Thread::new().test_and_set(lock, Reg(0)),
            Thread::new().test_and_set(lock, Reg(0)),
        ])
        .unwrap();
        let mut s = IdealState::new(&p);
        s.step(0);
        s.step(1);
        // Exactly one thread won the lock (read 0).
        let zeros = (0..2).filter(|&t| s.thread(t).regs[0] == 0).count();
        assert_eq!(zeros, 1);
        assert_eq!(s.memory().read(lock), 1);
    }

    #[test]
    fn fetch_add_accumulates() {
        let c = Loc(0);
        let p = Program::new(vec![
            Thread::new().fetch_add(c, Reg(0), 2),
            Thread::new().fetch_add(c, Reg(0), 3),
        ])
        .unwrap();
        let mut s = IdealState::new(&p);
        s.step(0);
        s.step(1);
        assert_eq!(s.memory().read(c), 5);
        assert_eq!(s.thread(1).regs[0], 2);
    }

    #[test]
    fn locals_execute_with_next_memory_op() {
        let p = Program::new(vec![Thread::new()
            .mov(Reg(0), 4)
            .add(Reg(0), Reg(0), 3)
            .write(Loc(0), Reg(0))])
        .unwrap();
        let mut s = IdealState::new(&p);
        let StepOutcome::Performed(op) = s.step(0) else { panic!() };
        assert_eq!(op.write_value, Some(7));
    }

    #[test]
    fn branches_control_flow() {
        // if r0 == 0 goto 3 (skip the write)
        let p = Program::new(vec![Thread::new()
            .mov(Reg(0), 0)
            .branch_eq(Reg(0), 0u64, 3)
            .write(Loc(0), 1)])
        .unwrap();
        let mut s = IdealState::new(&p);
        assert_eq!(s.step(0), StepOutcome::Halted);
        assert_eq!(s.memory().read(Loc(0)), 0);
    }

    #[test]
    fn spin_loop_hits_step_limit() {
        // while true { }  — a loop of pure local instructions.
        let p = Program::new(vec![Thread::new().jump(0)]).unwrap();
        let mut s = IdealState::new(&p);
        assert_eq!(s.step(0), StepOutcome::StepLimit);
    }

    #[test]
    fn spin_on_memory_makes_progress_per_step() {
        // P0 spins on Test(s) != 1; each step performs one sync read.
        let p = Program::new(vec![Thread::new()
            .sync_read(Loc(9), Reg(0))
            .branch_ne(Reg(0), 1u64, 0)])
        .unwrap();
        let mut s = IdealState::new(&p);
        for _ in 0..5 {
            assert!(matches!(s.step(0), StepOutcome::Performed(_)));
        }
        assert_eq!(s.ops().len(), 5);
    }

    #[test]
    fn fence_is_invisible_on_the_idealized_architecture() {
        let p = Program::new(vec![Thread::new()
            .write(Loc(0), 1)
            .fence()
            .read(Loc(0), Reg(0))])
        .unwrap();
        let exec = IdealState::run_round_robin(&p).unwrap();
        assert_eq!(exec.len(), 2, "the fence performs no memory operation");
    }

    #[test]
    fn initial_memory_applies() {
        let p = Program::new(vec![Thread::new().read(Loc(3), Reg(0))])
            .unwrap()
            .with_init(vec![(Loc(3), 42)]);
        let mut s = IdealState::new(&p);
        s.step(0);
        assert_eq!(s.thread(0).regs[0], 42);
    }

    #[test]
    fn round_robin_runs_to_completion() {
        let exec = IdealState::run_round_robin(&two_thread_handoff()).unwrap();
        assert_eq!(exec.len(), 4);
        assert!(exec.validate_atomic_semantics(&Memory::new()).is_ok());
    }

    #[test]
    fn undo_restores_state_and_op_sequence() {
        let p = two_thread_handoff();
        let mut s = IdealState::with_digest(&p);
        s.step(0); // W(x)=1 performed for real
        let key_before = s.state_key();
        let digest_before = s.digest();
        let ops_before = s.ops().len();

        let (out, undo) = s.step_undoable(0); // S.w(s)=1
        assert!(matches!(out, StepOutcome::Performed(_)));
        s.undo(undo);
        assert_eq!(s.state_key(), key_before);
        assert_eq!(s.digest(), digest_before);
        assert_eq!(s.ops().len(), ops_before);

        // Stepping again after undo replays the identical operation id.
        let (StepOutcome::Performed(a), undo) = s.step_undoable(0) else {
            panic!()
        };
        s.undo(undo);
        let (StepOutcome::Performed(b), _) = s.step_undoable(0) else {
            panic!()
        };
        assert_eq!(a, b, "undo restores the per-thread op sequence");
    }

    #[test]
    fn undo_restores_rmw_and_register_effects() {
        let c = Loc(0);
        let p = Program::new(vec![Thread::new().fetch_add(c, Reg(0), 2)]).unwrap();
        let mut s = IdealState::new(&p);
        let (_, undo) = s.step_undoable(0);
        assert_eq!(s.memory().read(c), 2);
        s.undo(undo);
        assert_eq!(s.memory().read(c), 0);
        assert_eq!(s.thread(0).regs[0], 0);
        assert!(s.runnable(0));
    }

    #[test]
    fn undo_restores_halted_local_execution() {
        // A thread of pure locals: stepping halts it, undo revives it.
        let p = Program::new(vec![Thread::new().mov(Reg(0), 5)]).unwrap();
        let mut s = IdealState::new(&p);
        let (out, undo) = s.step_undoable(0);
        assert_eq!(out, StepOutcome::Halted);
        assert!(!s.runnable(0));
        s.undo(undo);
        assert!(s.runnable(0));
        assert_eq!(s.thread(0).regs[0], 0);
    }

    #[test]
    fn execution_matches_into_execution() {
        let p = two_thread_handoff();
        let mut s = IdealState::new(&p);
        s.step(0);
        s.step(1);
        let borrowed = s.execution();
        let owned = s.into_execution();
        assert_eq!(borrowed.ops(), owned.ops());
    }

    #[test]
    fn result_matches_execution_result() {
        let p = two_thread_handoff();
        let mut s = IdealState::new(&p);
        s.step(1);
        s.step(0);
        s.step(0);
        s.step(1);
        let direct = s.result();
        let via_exec = s.execution().result(&p.initial_memory());
        assert_eq!(direct, via_exec);
    }

    #[test]
    fn state_key_distinguishes_states() {
        let p = two_thread_handoff();
        let mut a = IdealState::new(&p);
        let b = IdealState::new(&p);
        assert_eq!(a.state_key(), b.state_key());
        a.step(0);
        assert_ne!(a.state_key(), b.state_key());
    }

    #[test]
    fn only_a_state_built_with_a_digest_hands_one_out() {
        let p = two_thread_handoff();
        let mut plain = IdealState::new(&p);
        let mut kept = IdealState::with_digest(&p);
        for t in [1, 0, 0, 1] {
            assert_eq!(plain.step(t), kept.step(t));
        }
        assert_eq!(plain.digest(), None);
        assert_eq!(kept.digest(), Some(kept.digest_from_scratch()));
        assert_eq!(plain.digest_from_scratch(), kept.digest_from_scratch());
        assert_eq!(plain.state_key(), kept.state_key());
    }

    #[test]
    fn digest_distinguishes_states_and_matches_scratch() {
        let p = two_thread_handoff();
        let mut a = IdealState::with_digest(&p);
        let b = IdealState::with_digest(&p);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest(), Some(a.digest_from_scratch()));
        a.step(0);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), Some(a.digest_from_scratch()));
        a.step(1);
        a.step(1);
        assert_eq!(a.digest(), Some(a.digest_from_scratch()));
    }

    #[test]
    fn digest_tracks_through_step_undo_pairs() {
        // The handoff, plus a program whose threads change their digest
        // contribution without a memory operation: T2 halts after local
        // instructions (`Halted`), T3 spins on a local loop that bumps r1
        // until the local step limit (`StepLimit`).
        let halting = Program::new(vec![
            Thread::new().write(Loc(0), 1).sync_write(Loc(9), 1),
            Thread::new().sync_read(Loc(9), Reg(0)).read(Loc(0), Reg(1)),
            Thread::new().write(Loc(1), 3).mov(Reg(0), 5).add(Reg(1), Reg(0), 2u64),
            Thread::new().read(Loc(1), Reg(0)).add(Reg(1), Reg(1), 1u64).jump(1),
        ])
        .unwrap();
        let inputs = [
            (two_thread_handoff(), vec![1usize, 0, 0, 1]),
            (halting, vec![2, 3, 2, 0, 3, 1, 0, 1, 3]),
        ];
        let mut outcomes = Vec::new();
        for (p, schedule) in &inputs {
            let mut s = IdealState::with_digest(p);
            let scratch = |s: &IdealState<'_>| Some(s.digest_from_scratch());
            // Walk the schedule. Each step is taken, undone and taken again,
            // so an undo must restore the digest and leave the cached
            // contribution right for the thread's next step; incremental ==
            // from-scratch at every node. Then unwind it all and check the
            // digests retrace exactly.
            let mut digests = vec![s.digest()];
            let mut undos = Vec::new();
            for &t in schedule {
                let (first, undo) = s.step_undoable(t);
                assert_eq!(s.digest(), scratch(&s));
                let stepped = s.digest();
                s.undo(undo);
                assert_eq!(s.digest(), *digests.last().unwrap());
                assert_eq!(s.digest(), scratch(&s));
                let (again, undo) = s.step_undoable(t);
                assert_eq!((again, s.digest()), (first, stepped));
                outcomes.push(again);
                undos.push(undo);
                digests.push(s.digest());
            }
            for undo in undos.into_iter().rev() {
                s.undo(undo);
                digests.pop();
                assert_eq!(s.digest(), *digests.last().unwrap());
                assert_eq!(s.digest(), scratch(&s));
            }
        }
        assert!(outcomes.contains(&StepOutcome::Halted), "{outcomes:?}");
        assert!(outcomes.contains(&StepOutcome::StepLimit), "{outcomes:?}");
    }

    #[test]
    fn digest_is_invariant_under_identical_thread_permutation() {
        // Two identical threads: advancing only the first or only the
        // second must converge to the same digest (the digest keys on the
        // identity class, not the index).
        let mk = || Thread::new().fetch_add(Loc(0), Reg(0), 1).write(Loc(1), Reg(0));
        let p = Program::new(vec![mk(), mk()]).unwrap();
        let mut a = IdealState::with_digest(&p);
        let mut b = IdealState::with_digest(&p);
        a.step(0); // thread 0 does the fetch_add first
        b.step(1); // mirror image: thread 1 does it
        assert_eq!(a.digest(), b.digest(), "same-class threads commute");
        // But distinguishable states still differ.
        a.step(0);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_differs_across_distinct_thread_classes() {
        // Two *different* threads in mirrored states must NOT collide:
        // the class id pins which code each (pc, regs) belongs to.
        let p = Program::new(vec![
            Thread::new().write(Loc(0), 1),
            Thread::new().write(Loc(1), 1),
        ])
        .unwrap();
        let mut a = IdealState::with_digest(&p);
        let mut b = IdealState::with_digest(&p);
        a.step(0);
        b.step(1);
        assert_ne!(a.digest(), b.digest(), "different code, different digest");
    }

    #[test]
    fn digest_sees_read_history_not_just_state() {
        // Two paths to the same architectural state with different read
        // histories: P1's sync read saw 0 on one path, 1 on the other,
        // but a later overwrite re-converges registers and memory.
        let p = Program::new(vec![
            Thread::new().sync_write(Loc(9), 1),
            Thread::new().sync_read(Loc(9), Reg(0)).mov(Reg(0), 7),
        ])
        .unwrap();
        // Path A: P1 reads before P0's write (sees 0), then P0 writes.
        let mut a = IdealState::with_digest(&p);
        a.step(1); // sync read -> 0
        a.step(0); // sync write 1
        a.step(1); // mov overwrites r0 with 7; P1 halts
        // Path B: P0 writes first, P1 reads 1, mov overwrites.
        let mut b = IdealState::with_digest(&p);
        b.step(0);
        b.step(1);
        b.step(1);
        assert_eq!(a.state_key(), b.state_key(), "architectural states converge");
        assert_ne!(a.digest(), b.digest(), "read histories must keep them apart");
    }
}
