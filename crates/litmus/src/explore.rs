//! Exhaustive exploration of idealized executions.
//!
//! DRF0 (Definition 3) and Definition 2 both quantify over **all**
//! executions of a program. The explorers here enumerate interleavings of
//! memory operations on the idealized architecture up to a budget,
//! aggregating:
//!
//! * the set of distinct [`ExecutionResult`]s (what software can tell
//!   apart),
//! * every data race found (so a program-level DRF0 verdict can be made),
//! * optionally, the executions themselves.
//!
//! Three exploration strategies are provided and compared in the
//! `explore_ablation` benchmark and the `explore_bench` binary:
//!
//! * [`explore`] — full DFS over interleavings, no reduction. The
//!   ground-truth baseline every reduced strategy is differentially
//!   checked against.
//! * [`explore_dpor`] — sleep-set dynamic partial-order reduction in the
//!   style of Flanagan & Godefroid (POPL 2005): interleavings that differ
//!   only in the order of *independent* (non-conflicting, non-so-related)
//!   operations are explored once. Sound for `results` *and* `races` —
//!   see [`explore_dpor`] for the argument — and exponentially faster on
//!   programs with per-thread-disjoint locations. [`explore_races`] is
//!   the same walk for callers that read only races and counts.
//! * [`explore_results`] — DFS with converged-state pruning over an
//!   interned, incrementally maintained 128-bit state digest
//!   ([`crate::ideal::StateDigest`]) plus thread-symmetry reduction:
//!   states that are permutations of each other under identical threads
//!   share a digest and are explored once, with the skipped twins'
//!   results reconstructed exactly by a closure pass. Sound for
//!   collecting the set of reachable results and final states (identical
//!   architectural states *plus read histories* have identical futures),
//!   and unsound for race detection, so it reports no races: a pruned
//!   history can race with a future that its surviving twin does not
//!   (they may have synchronized differently on the way in).
//!   [`explore_results_audited`] is the same walk with the digest
//!   machinery under audit.
//!
//! The strategies differ only in which interleavings or states they skip,
//! so all of them run one DFS driver parameterized by that choice. It uses
//! an undo log ([`IdealState::step_undoable`],
//! [`RaceDetector::observe_undoable`]) instead of cloning state per
//! transition, so a DFS allocates O(depth), and it accounts budgets the
//! same way for every strategy: [`ExploreReport::steps`] counts **states
//! expanded**, with deduplicated or sleep-set-skipped states counted in
//! [`ExploreReport::pruned`], so [`IncompleteReason`] boundaries are
//! comparable across strategies.
//!
//! A step, and a leaf, pay only for what their walk reads. The reduction
//! decides what the walk keeps, never an option:
//!
//! * the race detector runs only where races are sound to collect
//!   ([`explore`], [`explore_dpor`], [`explore_races`]);
//! * the state keeps a [`StateDigest`] ([`IdealState::with_digest`]) only
//!   in the converged walk, the one reader; the other walks step an
//!   [`IdealState::new`] state with no digest upkeep. The detector's clock
//!   undo saves clock words in a buffer the detector keeps, so taking and
//!   applying it allocates nothing;
//! * a completed execution records its [`ExecutionResult`] in every walk
//!   but [`explore_races`], which serves DRF0 verdicts and race lists
//!   ([`drf0_verdict`], [`program_is_drf0`]): races depend only on the
//!   order of conflicting and synchronizing accesses, not on the values
//!   read, so that walk builds and hashes no result;
//! * no walk records an [`Outcome`]. A finished thread's registers follow
//!   from its code and the values its reads returned, so
//!   [`ExploreReport::outcomes`] rebuilds the outcome set from the result
//!   set ([`Outcome::of`], one replay per thread on the same local step
//!   the interpreter runs). Only tests and benches read outcomes, so
//!   they pay one replay per distinct result instead of every leaf
//!   paying for a register snapshot and a hash.

use std::collections::{HashMap, HashSet};

use memory_model::drf0::Race;
use memory_model::race::RaceDetector;
use memory_model::{ExecutionResult, Memory, OpId, Operation, ProcId, SyncMode};

use crate::ideal::{IdealState, StateDigest, StepOutcome, StepUndo};
use crate::Program;

/// Budgets for exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Maximum memory operations per execution; executions that would
    /// exceed it are truncated and counted in
    /// [`ExploreReport::truncated_executions`].
    pub max_ops_per_execution: usize,
    /// Maximum number of completed executions to enumerate; when the limit
    /// is hit, [`ExploreReport::complete`] is `false`.
    pub max_executions: usize,
    /// Whether to retain each completed execution in
    /// [`ExploreReport::executions`] (memory-hungry for large explorations).
    pub keep_executions: bool,
    /// The happens-before mode used for race detection: DRF0's (any
    /// synchronization operation releases) or the Section 6 refinement
    /// (only writing synchronization operations release).
    pub sync_mode: SyncMode,
    /// Global budget on states expanded, bounding even the truncated-path
    /// combinatorics of spin loops. When exhausted,
    /// [`ExploreReport::complete`] is `false`.
    pub max_total_steps: usize,
    /// Memory budget: cap on the converged-state `visited` set of
    /// [`explore_results`]. The set used to grow without bound and
    /// invisibly — a chaos or fuzz sweep over a state-dense program could
    /// be OOM-killed with no budget ever reporting exhaustion. When the
    /// cap is hit the exploration stops expanding new states and reports
    /// [`IncompleteReason::MaxVisitedStates`].
    pub max_visited_states: usize,
    /// Optional wall-clock deadline. When the clock passes it, the
    /// exploration stops expanding states and reports
    /// [`IncompleteReason::Deadline`] — a structured partial verdict
    /// instead of a hang, which is what lets a long-running query service
    /// bound per-request latency. The deadline is polled every
    /// [`DEADLINE_POLL_MASK`]`+1` state expansions, so overshoot is
    /// bounded by the cost of that many steps.
    ///
    /// Unlike the step budgets, a deadline makes reports depend on
    /// wall-clock scheduling: two runs of the same exploration may
    /// truncate at different depths. Callers that need deterministic,
    /// reproducible reports (differential tests, fixed-range campaigns)
    /// should leave it `None` and rely on the step budgets.
    pub deadline: Option<std::time::Instant>,
}

/// The deadline in [`ExploreConfig::deadline`] is checked once every this
/// many +1 state expansions (a power-of-two mask keeps the common path to
/// one branch and one AND).
pub const DEADLINE_POLL_MASK: usize = 0x3FF;

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_ops_per_execution: 64,
            max_executions: 200_000,
            keep_executions: false,
            sync_mode: SyncMode::Drf0,
            max_total_steps: 50_000_000,
            max_visited_states: 4_000_000,
            deadline: None,
        }
    }
}

impl ExploreConfig {
    /// Returns a copy with the deadline set `budget` from now — the
    /// per-request form a query service uses.
    #[must_use]
    pub fn with_deadline_in(self, budget: std::time::Duration) -> Self {
        ExploreConfig {
            deadline: Some(std::time::Instant::now() + budget),
            ..self
        }
    }
}

/// The software-visible outcome of one completed execution: every thread's
/// final register file plus the final memory — the "what did the litmus
/// test print" view, comparable across interleavings and hardware models
/// regardless of how many times loops iterated.
///
/// The explorers do not record outcomes: an outcome is a function of the
/// program and the execution's [`ExecutionResult`], rebuilt by
/// [`Outcome::of`] and collected by [`ExploreReport::outcomes`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Outcome {
    /// Final register file of each thread, in thread order.
    pub regs: Vec<[memory_model::Value; crate::NUM_REGS]>,
    /// Final memory cells differing from zero.
    pub final_memory: Vec<(memory_model::Loc, memory_model::Value)>,
}

impl Outcome {
    /// The outcome of the completed execution of `program` whose result is
    /// `result`. Each thread is replayed alone on the values its reads
    /// returned, looked up under `(proc, seq)` in `result.reads`, with its
    /// local instructions run on [`crate::Instr::step_local`] within the
    /// interpreter's local-step budget
    /// ([`IdealState::DEFAULT_LOCAL_STEP_LIMIT`]); the final memory is the
    /// result's.
    ///
    /// `None` when `result` is no completed execution of `program`: some
    /// read has no recorded value, some recorded read is never consumed,
    /// or a thread's local steps run out.
    #[must_use]
    pub fn of(program: &Program, result: &ExecutionResult) -> Option<Outcome> {
        let mut consumed = 0;
        let regs = program
            .threads()
            .iter()
            .enumerate()
            .map(|(t, thread)| {
                let proc = ProcId(t as u16);
                thread.replay(IdealState::DEFAULT_LOCAL_STEP_LIMIT, |seq| {
                    let value = result.reads.get(&OpId::for_thread_op(proc, seq)).copied();
                    consumed += usize::from(value.is_some());
                    value
                })
            })
            .collect::<Option<Vec<_>>>()?;
        (consumed == result.reads.len())
            .then(|| Outcome { regs, final_memory: result.final_memory.clone() })
    }
}

/// Why an exploration stopped short of covering every interleaving.
///
/// Spin-heavy generated programs can blow the interleaving count past any
/// practical budget; the explorer guarantees termination by construction
/// (every limit in [`ExploreConfig`] is finite) and reports *which* budget
/// gave out so callers can surface a clear "Budget Exceeded" verdict
/// instead of guessing from a bare `complete == false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncompleteReason {
    /// [`ExploreConfig::max_executions`] was reached.
    MaxExecutions,
    /// [`ExploreConfig::max_total_steps`] was reached.
    MaxTotalSteps,
    /// Some execution hit [`ExploreConfig::max_ops_per_execution`] or the
    /// per-thread local-step limit and was truncated.
    TruncatedExecution,
    /// [`ExploreConfig::max_visited_states`] was reached — the memory
    /// budget for the converged-state set gave out.
    MaxVisitedStates,
    /// [`ExploreConfig::deadline`] passed — the wall-clock budget for the
    /// request gave out before the interleaving space was covered.
    Deadline,
}

impl std::fmt::Display for IncompleteReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncompleteReason::MaxExecutions => write!(f, "execution cap reached"),
            IncompleteReason::MaxTotalSteps => write!(f, "DFS step budget exhausted"),
            IncompleteReason::TruncatedExecution => {
                write!(f, "an execution exceeded the per-execution op budget")
            }
            IncompleteReason::MaxVisitedStates => {
                write!(f, "visited-state memory budget exhausted")
            }
            IncompleteReason::Deadline => {
                write!(f, "wall-clock deadline exceeded")
            }
        }
    }
}

/// The aggregate outcome of an exploration.
///
/// A walk records only what its caller reads: [`explore_races`] leaves
/// `results` empty, and no walk records register-level outcomes, which
/// [`ExploreReport::outcomes`] derives from `results` on demand.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct results (read values + final memory) over all completed
    /// executions. Empty for [`explore_races`], which records none.
    pub results: HashSet<ExecutionResult>,
    /// Distinct races observed across all executions (first, second, loc).
    pub races: HashSet<Race>,
    /// Completed executions, when requested via
    /// [`ExploreConfig::keep_executions`].
    pub executions: Vec<memory_model::Execution>,
    /// Number of completed executions enumerated.
    pub execution_count: usize,
    /// Executions cut short by [`ExploreConfig::max_ops_per_execution`] or
    /// a local step limit.
    pub truncated_executions: usize,
    /// Whether the exploration covered every interleaving to completion
    /// (no execution cap hit, no truncated executions).
    pub complete: bool,
    /// When `complete` is false, the first budget that gave out.
    pub incomplete: Option<IncompleteReason>,
    /// States expanded. Uniform across strategies: a state counts exactly
    /// once, when it is entered and processed; duplicate hits and
    /// sleep-set skips count in [`ExploreReport::pruned`] instead, so
    /// budget boundaries are comparable between the full, DPOR-reduced,
    /// and converged-state explorers.
    pub steps: usize,
    /// States *not* expanded thanks to reduction: converged-state
    /// duplicates in [`explore_results`], sleep-set skips in
    /// [`explore_dpor`], zero for [`explore`].
    pub pruned: usize,
    /// Peak size of the converged-state `visited` set (zero for the
    /// strategies that keep none) — the memory-side budget surface.
    pub peak_visited: usize,
}

impl ExploreReport {
    fn empty() -> Self {
        ExploreReport {
            results: HashSet::new(),
            races: HashSet::new(),
            executions: Vec::new(),
            execution_count: 0,
            truncated_executions: 0,
            complete: true,
            incomplete: None,
            steps: 0,
            pruned: 0,
            peak_visited: 0,
        }
    }

    /// Whether every explored execution was free of data races — the
    /// program-level DRF0 condition (2), provided `complete` is `true`.
    #[must_use]
    pub fn race_free(&self) -> bool {
        self.races.is_empty()
    }

    /// The distinct register-level outcomes of the completed executions,
    /// each of [`ExploreReport::results`] replayed by [`Outcome::of`]:
    /// an outcome is a function of the program and the result, so this is
    /// exactly the set of outcomes the walk reached. Empty for
    /// [`explore_races`].
    ///
    /// # Panics
    ///
    /// Panics if `program` is not the program the report explored (a
    /// result of it does not replay).
    #[must_use]
    pub fn outcomes(&self, program: &Program) -> HashSet<Outcome> {
        self.results
            .iter()
            .map(|r| Outcome::of(program, r).expect("a result of the explored program replays"))
            .collect()
    }

    fn mark_incomplete(&mut self, reason: IncompleteReason) {
        self.complete = false;
        self.incomplete.get_or_insert(reason);
    }

    /// Whether a *terminal* budget has tripped — one that
    /// [`ExploreReport::admit_state`] (or the visited-set cap) will keep
    /// refusing for the rest of the exploration. Once true, the DFS driver
    /// unwinds immediately instead of walking the entire remaining tree
    /// just to have every node refused one at a time (the old futile walk
    /// re-reported the exhausted budget per node, and under a deadline
    /// kept *expanding* states between polls because the frozen step
    /// counter rarely landed on a poll boundary).
    /// `TruncatedExecution` is deliberately not terminal: it is a
    /// per-path condition and sibling branches may still complete.
    fn stopped(&self) -> bool {
        matches!(
            self.incomplete,
            Some(
                IncompleteReason::MaxExecutions
                    | IncompleteReason::MaxTotalSteps
                    | IncompleteReason::MaxVisitedStates
                    | IncompleteReason::Deadline
            )
        )
    }

    /// Unified per-state budget gate: `true` when the caller may expand
    /// one more state (and accounts for it), `false` when a budget gave
    /// out (and records which).
    fn admit_state(&mut self, cfg: &ExploreConfig) -> bool {
        if self.execution_count >= cfg.max_executions {
            self.mark_incomplete(IncompleteReason::MaxExecutions);
            return false;
        }
        if self.steps >= cfg.max_total_steps {
            self.mark_incomplete(IncompleteReason::MaxTotalSteps);
            return false;
        }
        if let Some(deadline) = cfg.deadline {
            // Poll the clock only every few thousand expansions: an
            // `Instant::now()` per state would dominate small steps.
            if self.steps & DEADLINE_POLL_MASK == 0
                && std::time::Instant::now() >= deadline
            {
                self.mark_incomplete(IncompleteReason::Deadline);
                return false;
            }
        }
        self.steps += 1;
        true
    }
}

/// The one part of an exploration that differs between the strategies:
/// which states, and which children of a state, the walk may skip, and
/// whether what it skips leaves the race set intact. Everything else —
/// the budget gate, leaf and truncation recording, the step/undo
/// discipline and the `Halted` shortcut — is [`Walk::dfs`], written once.
/// Every hook defaults to "skip nothing", which is [`explore`]'s.
trait Reduction {
    /// What a state hands its children: the sleep set for DPOR, nothing
    /// for the other strategies.
    type Sleep: Default;
    /// Whether the walk runs the race detector. A reduction that merges
    /// states with different pasts would see only some of the races, so
    /// it must claim none.
    const RACES: bool = true;
    /// Whether the walk's state keeps a [`StateDigest`]
    /// ([`IdealState::with_digest`]). Only a reduction that reads the
    /// digest should pay for its upkeep on every step and undo.
    const DIGEST: bool = false;
    /// Whether a completed execution records its [`ExecutionResult`] in
    /// [`ExploreReport::results`]. A walk whose caller reads only races
    /// and counts builds and hashes none.
    const RESULTS: bool = true;

    /// The gate for entering the current state: `true` when the walk may
    /// expand it, with the expansion counted against the budget.
    fn admit(
        &mut self,
        _state: &IdealState<'_>,
        cfg: &ExploreConfig,
        report: &mut ExploreReport,
    ) -> bool {
        report.admit_state(cfg)
    }

    /// Whether thread `t` may be skipped here: an explored sibling already
    /// covers every interleaving that starts with its next step.
    fn asleep(_sleep: &Self::Sleep, _t: usize) -> bool {
        false
    }

    /// The sleep set of the child reached by performing `op`.
    fn child(_sleep: &Self::Sleep, _op: &Operation) -> Self::Sleep {
        Self::Sleep::default()
    }

    /// Records that the subtree below `op` has been explored.
    fn explored(_sleep: &mut Self::Sleep, _op: Operation) {}

    /// Runs after every undo, on the restored state.
    fn undone(&mut self, _state: &IdealState<'_>) {}
}

/// One exploration in progress.
struct Walk<'a, R> {
    cfg: &'a ExploreConfig,
    state: IdealState<'a>,
    /// Present exactly when `R::RACES`.
    detector: Option<RaceDetector>,
    reduction: R,
    report: ExploreReport,
}

/// Explores `program` from its initial state under `reduction`, returning
/// the report and the reduction (which may have gathered counters).
fn walk<R: Reduction>(program: &Program, cfg: &ExploreConfig, reduction: R) -> (ExploreReport, R) {
    let mut walk = Walk {
        cfg,
        state: if R::DIGEST { IdealState::with_digest(program) } else { IdealState::new(program) },
        detector: R::RACES.then(|| RaceDetector::with_mode(program.num_threads(), cfg.sync_mode)),
        reduction,
        report: ExploreReport::empty(),
    };
    walk.dfs(R::Sleep::default());
    (walk.report, walk.reduction)
}

impl<R: Reduction> Walk<'_, R> {
    /// Expands the current state, then every child the reduction does not
    /// skip, in thread order.
    fn dfs(&mut self, mut sleep: R::Sleep) {
        if self.report.stopped()
            || !self.reduction.admit(&self.state, self.cfg, &mut self.report)
        {
            return;
        }
        if self.state.finished() {
            self.record_leaf();
            return;
        }
        if self.state.ops().len() >= self.cfg.max_ops_per_execution {
            self.record_truncation();
            return;
        }
        for t in 0..self.state.num_threads() {
            if !self.state.runnable(t) {
                continue;
            }
            if R::asleep(&sleep, t) {
                self.report.pruned += 1;
                continue;
            }
            let (outcome, undo) = self.state.step_undoable(t);
            match outcome {
                StepOutcome::Performed(op) => {
                    let mark = self.detector.as_mut().map(|d| d.observe_undoable(&op));
                    self.dfs(R::child(&sleep, &op));
                    if let (Some(detector), Some(mark)) = (self.detector.as_mut(), mark) {
                        detector.undo(mark);
                    }
                    self.undo(undo);
                    if self.report.stopped() {
                        return;
                    }
                    R::explored(&mut sleep, op);
                }
                StepOutcome::Halted => {
                    // The thread ran local-only instructions to completion:
                    // invisible to memory, so it commutes with every other
                    // thread's ops, and the inherited sleep set passes
                    // through unchanged. Exploring this one order covers
                    // all interleavings; trying other threads from the
                    // parent state would only double-count.
                    self.dfs(sleep);
                    self.undo(undo);
                    return;
                }
                StepOutcome::StepLimit => {
                    // The thread spun past its local-step limit without a
                    // memory operation. The path is truncated here, and a
                    // race in its prefix is a race of the program.
                    self.undo(undo);
                    self.record_truncation();
                }
            }
        }
    }

    fn undo(&mut self, undo: StepUndo) {
        self.state.undo(undo);
        self.reduction.undone(&self.state);
    }

    /// Records the completed execution ending at the current state.
    fn record_leaf(&mut self) {
        self.record_races();
        let (state, report) = (&self.state, &mut self.report);
        report.execution_count += 1;
        // Read the result straight off the interpreter's flat storage;
        // cloning and re-validating the op list as an `Execution` is only
        // needed when the caller wants the executions themselves.
        if R::RESULTS {
            report.results.insert(state.result());
        }
        if self.cfg.keep_executions {
            report.executions.push(state.execution());
        }
    }

    /// Records a truncated execution: races found in the prefix still
    /// count (a race in a prefix is a race of the program).
    fn record_truncation(&mut self) {
        self.report.truncated_executions += 1;
        self.report.mark_incomplete(IncompleteReason::TruncatedExecution);
        self.record_races();
    }

    fn record_races(&mut self) {
        if let Some(detector) = &self.detector {
            self.report.races.extend(detector.races().iter().copied());
        }
    }
}

/// No reduction: every interleaving is walked.
struct Full;

impl Reduction for Full {
    type Sleep = ();
}

/// Fully enumerates the interleavings of `program` (no reduction) and
/// aggregates results and races — the differential baseline for
/// [`explore_dpor`] and [`explore_results`].
///
/// # Examples
///
/// ```
/// use litmus::{explore::{explore, ExploreConfig}, Program, Thread, Reg};
/// use memory_model::Loc;
///
/// // Unsynchronized message passing: racy.
/// let p = Program::new(vec![
///     Thread::new().write(Loc(0), 1),
///     Thread::new().read(Loc(0), Reg(0)),
/// ])?;
/// let report = explore(&p, &ExploreConfig::default());
/// assert!(report.complete);
/// assert!(!report.race_free());
/// assert_eq!(report.results.len(), 2); // r0 may be 0 or 1
/// # Ok::<(), litmus::ProgramError>(())
/// ```
#[must_use]
pub fn explore(program: &Program, cfg: &ExploreConfig) -> ExploreReport {
    walk(program, cfg, Full).0
}

/// Whether the order of two operations matters to any observable the
/// explorers aggregate — the *dependence* relation sleep sets prune
/// against.
///
/// Two operations are dependent when they access the same location and
/// either conflicts (at least one writes — their order changes read values
/// and final memory) **or both are synchronization operations** (their
/// order is a synchronization-order edge: under DRF0's happens-before even
/// a read-only `Test` releases, so swapping two same-location sync reads
/// changes which accesses are ordered and therefore which races exist —
/// conflict information alone would wrongly commute them and lose races).
fn dependent(a: &Operation, b: &Operation) -> bool {
    a.conflicts_with(b) || a.so_related(b)
}

/// Sleep sets, the reduction behind [`explore_dpor`] (`SleepSets<true>`)
/// and [`explore_races`] (`SleepSets<false>`, which records no results).
///
/// A sleep set holds, for each sleeping thread, the operation it is poised
/// to perform (performed and rolled back in an already-explored sibling
/// branch). A sleeping thread's pending operation is stable: its
/// (location, kind) depend only on its own registers and pc, and any
/// dependent operation by another thread removes it from the set.
struct SleepSets<const RESULTS: bool>;

impl<const RESULTS: bool> Reduction for SleepSets<RESULTS> {
    type Sleep = Vec<Operation>;
    const RESULTS: bool = RESULTS;

    fn asleep(sleep: &Self::Sleep, t: usize) -> bool {
        sleep.iter().any(|op| op.proc.index() == t)
    }

    fn child(sleep: &Self::Sleep, op: &Operation) -> Self::Sleep {
        sleep.iter().filter(|o| !dependent(o, op)).copied().collect()
    }

    fn explored(sleep: &mut Self::Sleep, op: Operation) {
        // Future sibling branches need not re-explore this thread first:
        // every interleaving starting with `op` is covered by the branch
        // just explored until some dependent op wakes the thread up.
        sleep.push(op);
    }
}

/// Enumerates the interleavings of `program` with sleep-set dynamic
/// partial-order reduction, preserving the full observable surface of
/// [`explore`]: `results` (and so [`ExploreReport::outcomes`]) and
/// `races`.
///
/// Why the reduction is sound for races, not just final states: sleep
/// sets skip an interleaving only when it differs from an explored one by
/// the order of *independent* operations (`dependent` pairs — conflicts
/// and same-location synchronization pairs — are never commuted). The
/// happens-before relation, and hence the set of racing pairs the
/// vector-clock detector reports, is a function of program order plus the
/// order of dependent pairs only, so every pruned interleaving reports
/// exactly the races of the explored representative it is equivalent to.
/// Read values and final memory are likewise functions of the
/// conflicting-pair order, so `results` are preserved too, and with them
/// the outcomes derived from them.
/// The differential property tests in `wo-fuzz` cross-check this against
/// [`explore`] on the full litmus corpus plus 500 generated seeds.
///
/// On budget-limited (incomplete) explorations the guarantee weakens: the
/// two strategies truncate different portions of the tree, so only
/// complete reports are comparable.
///
/// A caller that reads only races and counts calls [`explore_races`],
/// the same walk without the results.
#[must_use]
pub fn explore_dpor(program: &Program, cfg: &ExploreConfig) -> ExploreReport {
    walk(program, cfg, SleepSets::<true>).0
}

/// [`explore_dpor`]'s walk for a caller that reads races, counts and
/// completeness only: the report's `results` is left **empty**, since no
/// completed execution builds or hashes its [`ExecutionResult`]. Every
/// other field equals [`explore_dpor`]'s, `executions` included when
/// [`ExploreConfig::keep_executions`] asks for them: the two walks visit
/// the same states in the same order.
///
/// Races depend only on program order and the order of dependent
/// operations, not on the values read, so the race set needs no record of
/// what each execution read. This is the walk behind [`drf0_verdict`],
/// [`program_is_drf0`] and the served `drf0`/`races` answers.
#[must_use]
pub fn explore_races(program: &Program, cfg: &ExploreConfig) -> ExploreReport {
    walk(program, cfg, SleepSets::<false>).0
}

/// An open-addressed, arena-backed intern set of [`StateDigest`]s — the
/// converged-state explorer's visited set.
///
/// The old visited set was a `HashSet` keyed on three heap `Vec`s per
/// state (per-thread registers, memory snapshot, and the full read-value
/// history): every membership test rebuilt and hashed O(trace-length)
/// words and every insert allocated three fresh `Vec`s, making each DFS
/// node O(trace) and the search O(n²) in operations. Entries here are the
/// two digest words, stored inline in one flat power-of-two arena
/// (16 bytes per state, one allocation per doubling) and probed linearly
/// starting from the digest's own low bits — the digest is already
/// uniformly mixed, so no secondary hash is needed.
struct InternTable {
    slots: Box<[StateDigest]>,
    len: usize,
}

impl InternTable {
    /// The empty-slot sentinel. A genuine digest of `(0, 0)` is remapped
    /// by [`InternTable::normalize`] rather than mishandled.
    const EMPTY: StateDigest = StateDigest(0, 0);

    fn new() -> Self {
        InternTable {
            slots: vec![Self::EMPTY; 1 << 12].into_boxed_slice(),
            len: 0,
        }
    }

    fn normalize(d: StateDigest) -> StateDigest {
        if d == Self::EMPTY {
            StateDigest(1, 1)
        } else {
            d
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn contains(&self, d: StateDigest) -> bool {
        let d = Self::normalize(d);
        let mask = self.slots.len() - 1;
        let mut i = d.0 as usize & mask;
        loop {
            let s = self.slots[i];
            if s == d {
                return true;
            }
            if s == Self::EMPTY {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `d`, returning `true` when it was not already present.
    fn insert(&mut self, d: StateDigest) -> bool {
        let d = Self::normalize(d);
        // Grow at ~70% load to keep probe chains short.
        if (self.len + 1) * 10 >= self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = d.0 as usize & mask;
        loop {
            let s = self.slots[i];
            if s == d {
                return false;
            }
            if s == Self::EMPTY {
                self.slots[i] = d;
                self.len += 1;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let grown = vec![Self::EMPTY; self.slots.len() * 2].into_boxed_slice();
        let old = std::mem::replace(&mut self.slots, grown);
        let mask = self.slots.len() - 1;
        for &s in old.iter() {
            if s == Self::EMPTY {
                continue;
            }
            let mut i = s.0 as usize & mask;
            while self.slots[i] != Self::EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

/// Checks of the digest machinery that [`Converged`] runs at every state
/// it enters and after every undo. Production plugs in `()`, which checks
/// nothing and compiles away; [`explore_results_audited`] plugs in
/// [`Auditor`].
trait DigestAudit {
    fn entered(&mut self, _state: &IdealState<'_>) {}
    fn undone(&mut self, _state: &IdealState<'_>) {}
}

impl DigestAudit for () {}

/// Converged-state pruning on the interned [`StateDigest`], the reduction
/// behind [`explore_results`]. It merges states with different pasts, so
/// it runs no race detector.
struct Converged<A> {
    visited: InternTable,
    audit: A,
}

impl<A: DigestAudit> Reduction for Converged<A> {
    type Sleep = ();
    const RACES: bool = false;
    const DIGEST: bool = true;

    fn admit(
        &mut self,
        state: &IdealState<'_>,
        cfg: &ExploreConfig,
        report: &mut ExploreReport,
    ) -> bool {
        self.audit.entered(state);
        // The digest covers the architectural state *plus per-thread
        // read-value histories*. The histories are required for soundness: a
        // *result* (Lamport's observable) includes every read's returned
        // value, so two paths converging on the same architectural state but
        // with different read histories must both be explored — pruning on
        // state alone silently drops reachable results (it once hid SC
        // outcomes of the bounded barrier from the reference set). Per-thread
        // value sequences suffice: a thread's trajectory — including the ids
        // of its operations, which are just its program-order positions — is
        // a deterministic function of the values its reads returned, so
        // neither the `OpId` of each read nor the global interleaving order
        // of the history needs to be part of the key.
        let digest = state.digest().expect("the converged walk keeps a digest");
        if self.visited.contains(digest) {
            report.pruned += 1;
            return false;
        }
        if self.visited.len() >= cfg.max_visited_states {
            report.mark_incomplete(IncompleteReason::MaxVisitedStates);
            return false;
        }
        if !report.admit_state(cfg) {
            return false;
        }
        self.visited.insert(digest);
        report.peak_visited = report.peak_visited.max(self.visited.len());
        true
    }

    fn undone(&mut self, state: &IdealState<'_>) {
        self.audit.undone(state);
    }
}

/// Enumerates reachable *results* with converged-state pruning. Much faster
/// than [`explore`] on state-converging programs, but performs no race
/// detection (see module docs for why pruning is unsound for races).
///
/// States are deduplicated on the incremental [`StateDigest`] its state
/// keeps ([`IdealState::with_digest`], one thread hash per step), interned
/// in a flat `InternTable` arena.
/// Because the digest is invariant under permutations of identical threads
/// (see [`StateDigest`]), symmetric twins prune as converged states; the
/// results their subtrees would have produced are reconstructed exactly by
/// `close_under_thread_symmetry` before the report is returned.
#[must_use]
pub fn explore_results(program: &Program, cfg: &ExploreConfig) -> ExploreReport {
    let (mut report, _) = walk(program, cfg, Converged { visited: InternTable::new(), audit: () });
    close_under_thread_symmetry(&mut report, program);
    report
}

/// Transpositions `(i, j)` of threads with identical code — the generators
/// of the symmetry group the [`StateDigest`] is invariant under. All
/// same-class pairs, not just adjacent ones: in a program with threads
/// `[A, B, A]` the interchangeable pair `(0, 2)` is not adjacent.
fn symmetry_pairs(program: &Program) -> Vec<(usize, usize)> {
    let classes = program.thread_identity_classes();
    let mut pairs = Vec::new();
    for i in 0..classes.len() {
        for j in i + 1..classes.len() {
            if classes[i] == classes[j] {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// Closes `results` under permutations of identical threads,
/// reconstructing exactly what the symmetry-pruned subtrees would have
/// reported.
///
/// Soundness and exactness: the initial state is invariant under any
/// permutation π of threads with identical code, and stepping thread `t`
/// from state σ mirrors stepping `π(t)` from `π(σ)`, so the *true*
/// reachable result set is closed under π (acting on a result by renaming
/// the processor part of each read id). The digest prunes a state exactly
/// when a π-twin was explored, and every result of the pruned subtree is
/// the π-image of a result of the explored one — so closing the collected
/// set under all same-class transpositions (which generate the full group)
/// yields precisely the unreduced explorer's set, no more and no less. The
/// closure adds only genuinely reachable results even on budget-truncated
/// runs: if `r` is reachable, `π(r)` always is. The derived outcomes need
/// no closure of their own: π's image of a result replays to its outcome
/// with the register files of `i` and `j` swapped, since the two threads
/// run the same code on each other's read values.
fn close_under_thread_symmetry(report: &mut ExploreReport, program: &Program) {
    let pairs = symmetry_pairs(program);
    if pairs.is_empty() {
        return;
    }
    let results = &mut report.results;
    let mut queue: Vec<ExecutionResult> = results.iter().cloned().collect();
    while let Some(r) = queue.pop() {
        for &(i, j) in &pairs {
            let p = permute_result(&r, i, j);
            if !results.contains(&p) {
                results.insert(p.clone());
                queue.push(p);
            }
        }
    }
}

/// Swaps the processor part of `id` between threads `i` and `j`.
fn permute_proc(id: OpId, i: usize, j: usize) -> OpId {
    let p = id.proc_part().index();
    if p == i {
        OpId::for_thread_op(ProcId(j as u16), id.seq_part())
    } else if p == j {
        OpId::for_thread_op(ProcId(i as u16), id.seq_part())
    } else {
        id
    }
}

fn permute_result(r: &ExecutionResult, i: usize, j: usize) -> ExecutionResult {
    ExecutionResult {
        reads: r
            .reads
            .iter()
            .map(|(&id, &v)| (permute_proc(id, i, j), v))
            .collect(),
        final_memory: r.final_memory.clone(),
    }
}

/// The permutation-canonical form of a state: per-thread
/// `(class, pc, registers, read-value sequence)` tuples in sorted order,
/// plus the memory snapshot. Two states have equal canonical keys exactly
/// when one is a same-class thread permutation of the other — the
/// equivalence the [`StateDigest`] is designed to collapse and nothing
/// more, which is what [`explore_results_audited`] verifies.
type CanonKey = (
    Vec<(u32, usize, [memory_model::Value; crate::NUM_REGS], Vec<memory_model::Value>)>,
    Vec<(memory_model::Loc, memory_model::Value)>,
);

fn canon_key_of(state: &IdealState<'_>, classes: &[u32]) -> CanonKey {
    let mut threads: Vec<_> = (0..state.num_threads())
        .map(|t| {
            let ts = state.thread(t);
            let reads = state
                .ops()
                .iter()
                .filter(|op| op.proc.index() == t)
                .filter_map(|op| op.read_value)
                .collect();
            (classes[t], ts.pc, ts.regs, reads)
        })
        .collect();
    threads.sort();
    (threads, state.memory_snapshot())
}

/// Counters from [`explore_results_audited`].
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyAudit {
    /// States at which the incremental digest was checked against
    /// [`IdealState::digest_from_scratch`].
    pub states_audited: usize,
    /// Distinct digests interned.
    pub distinct_digests: usize,
}

/// The checks [`explore_results_audited`] documents.
#[derive(Default)]
struct Auditor {
    classes: Vec<u32>,
    canon: HashMap<StateDigest, CanonKey>,
    counts: KeyAudit,
}

impl DigestAudit for Auditor {
    fn entered(&mut self, state: &IdealState<'_>) {
        let digest = state.digest().expect("the converged walk keeps a digest");
        assert_eq!(
            digest,
            state.digest_from_scratch(),
            "incremental digest diverged from from-scratch recomputation"
        );
        self.counts.states_audited += 1;
        let key = canon_key_of(state, &self.classes);
        let prior = self.canon.entry(digest).or_insert_with(|| key.clone());
        assert_eq!(*prior, key, "digest collision: two distinct canonical states interned as one");
    }

    fn undone(&mut self, state: &IdealState<'_>) {
        assert_eq!(
            state.digest(),
            Some(state.digest_from_scratch()),
            "digest diverged after undo"
        );
    }
}

/// [`explore_results`] with the digest machinery under audit — the
/// collision/maintenance harness behind the state-key property tests.
///
/// At every visited state it asserts that the incrementally maintained
/// digest equals a from-scratch recomputation (both after the step that
/// entered the state and after the undo that leaves it), and that the
/// digest-to-canonical-state mapping is injective: no two states with
/// distinct `CanonKey`s (i.e. genuinely different up to same-class
/// thread permutation) may share a digest.
///
/// # Panics
///
/// Panics on any digest-maintenance divergence or digest collision.
/// Intended for tests and audits, not production paths: it keeps a full
/// canonical key per distinct digest.
#[must_use]
pub fn explore_results_audited(program: &Program, cfg: &ExploreConfig) -> (ExploreReport, KeyAudit) {
    let auditor = Auditor { classes: program.thread_identity_classes(), ..Auditor::default() };
    let converged = Converged { visited: InternTable::new(), audit: auditor };
    let (mut report, Converged { audit: mut auditor, .. }) = walk(program, cfg, converged);
    close_under_thread_symmetry(&mut report, program);
    auditor.counts.distinct_digests = auditor.canon.len();
    (report, auditor.counts)
}

/// Convenience: whether every idealized execution of `program` is free of
/// data races — the program-level DRF0 verdict (Definition 3, condition 2).
/// Uses the DPOR-reduced race walk (race-set preserving; see
/// [`explore_dpor`] and [`explore_races`]).
///
/// # Panics
///
/// Panics if the exploration budget is exhausted before the answer is
/// known; raise the limits in [`ExploreConfig`] and use [`drf0_verdict`]
/// for large programs.
#[must_use]
pub fn program_is_drf0(program: &Program, cfg: &ExploreConfig) -> bool {
    let report = explore_races(program, cfg);
    assert!(
        report.complete,
        "exploration budget exhausted before a DRF0 verdict was reached"
    );
    report.race_free()
}

/// Convenience: the set of reachable results, using the pruned strategy.
#[must_use]
pub fn reachable_results(program: &Program, cfg: &ExploreConfig) -> HashSet<ExecutionResult> {
    explore_results(program, cfg).results
}

/// The program-level DRF0 verdict with an explicit budget outcome.
///
/// Unlike [`program_is_drf0`], this never panics: a program whose
/// interleaving space outgrows the configured budget (large spin bounds
/// are the classic cause) yields [`Drf0Verdict::BudgetExceeded`] naming
/// the limit that gave out — callers pick a bigger [`ExploreConfig`] or
/// report the program as unclassifiable.
///
/// A race found before the budget ran out is conclusive either way: a
/// racy prefix is a racy program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Drf0Verdict {
    /// Every idealized execution is race-free (exploration completed).
    Drf0,
    /// Some idealized execution (possibly truncated) has a data race.
    Racy,
    /// The exploration budget gave out with no race found.
    BudgetExceeded(IncompleteReason),
}

impl std::fmt::Display for Drf0Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Drf0Verdict::Drf0 => write!(f, "drf0"),
            Drf0Verdict::Racy => write!(f, "racy"),
            Drf0Verdict::BudgetExceeded(reason) => {
                write!(f, "budget exceeded ({reason})")
            }
        }
    }
}

/// Classifies `program` under DRF0 within the given budget, via the
/// DPOR-reduced race walk [`explore_races`] (this is what the fuzz oracle
/// and chaos sweeps run; the reduction preserves the race set, so the
/// verdict matches the unreduced explorer whenever both complete).
#[must_use]
pub fn drf0_verdict(program: &Program, cfg: &ExploreConfig) -> Drf0Verdict {
    verdict_of(&explore_races(program, cfg))
}

/// The DRF0 verdict a finished [`ExploreReport`] supports.
#[must_use]
pub fn verdict_of(report: &ExploreReport) -> Drf0Verdict {
    if !report.race_free() {
        return Drf0Verdict::Racy;
    }
    if report.complete {
        Drf0Verdict::Drf0
    } else {
        Drf0Verdict::BudgetExceeded(
            report.incomplete.unwrap_or(IncompleteReason::MaxTotalSteps),
        )
    }
}

/// All results of a program together with the initial memory used — the
/// reference "sequentially consistent outcomes" that hardware runs are
/// compared against.
#[derive(Debug, Clone)]
pub struct ScOutcomes {
    /// The distinct results reachable on the idealized architecture.
    pub results: HashSet<ExecutionResult>,
    /// The initial memory of the program.
    pub initial: Memory,
    /// Whether enumeration was complete.
    pub complete: bool,
}

impl ScOutcomes {
    /// Whether `result` is producible by some sequentially consistent
    /// execution — the Definition 2 acceptance test for a hardware run:
    /// compare the run's result (read values plus final memory) against
    /// this reference set.
    ///
    /// Only meaningful when [`ScOutcomes::complete`] is true; an
    /// incomplete enumeration can reject genuinely SC results.
    #[must_use]
    pub fn allows(&self, result: &ExecutionResult) -> bool {
        self.results.contains(result)
    }
}

/// Computes the reference SC outcome set of `program`.
#[must_use]
pub fn sc_outcomes(program: &Program, cfg: &ExploreConfig) -> ScOutcomes {
    let report = explore_results(program, cfg);
    ScOutcomes {
        results: report.results,
        initial: program.initial_memory(),
        complete: report.complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Reg, Thread};
    use memory_model::Loc;

    fn cfg() -> ExploreConfig {
        ExploreConfig::default()
    }

    /// Each thread writes its own disjoint locations: every cross-thread
    /// pair of ops is independent, the DPOR stress case.
    fn independent_writers(threads: usize, writes: u32) -> Program {
        let ts = (0..threads)
            .map(|t| {
                let mut th = Thread::new();
                for i in 0..writes {
                    th = th.write(Loc(t as u32 * 100 + i), u64::from(i) + 1);
                }
                th
            })
            .collect();
        Program::new(ts).unwrap()
    }

    #[test]
    fn dekker_has_three_sc_outcomes_for_the_read_pair() {
        let (x, y) = (Loc(0), Loc(1));
        let p = Program::new(vec![
            Thread::new().write(x, 1).read(y, Reg(0)),
            Thread::new().write(y, 1).read(x, Reg(0)),
        ])
        .unwrap();
        let report = explore(&p, &cfg());
        assert!(report.complete);
        // (r0, r1) in {(0,1), (1,0), (1,1)} — never (0,0) under SC.
        let pairs: HashSet<(u64, u64)> = report
            .outcomes(&p)
            .iter()
            .map(|o| (o.regs[0][0], o.regs[1][0]))
            .collect();
        assert_eq!(pairs.len(), 3);
        assert!(!pairs.contains(&(0, 0)));
    }

    #[test]
    fn outcome_of_rejects_what_it_cannot_replay() {
        let p = crate::corpus::fig1_dekker();
        let report = explore(&p, &cfg());
        let result = report.results.iter().next().expect("dekker completes").clone();
        assert!(Outcome::of(&p, &result).is_some());

        let mut missing = result.clone();
        let first = *missing.reads.keys().next().expect("dekker reads");
        missing.reads.remove(&first);
        assert_eq!(Outcome::of(&p, &missing), None, "a read with no value");

        let mut extra = result.clone();
        extra.reads.insert(OpId::for_thread_op(ProcId(0), 7), 1);
        assert_eq!(Outcome::of(&p, &extra), None, "a recorded read nothing consumes");

        let other = crate::corpus::message_passing_data();
        assert_eq!(Outcome::of(&other, &result), None, "a result of another program");

        // A thread counting to `n` on local steps alone.
        let counter = |n: u64| {
            let t = Thread::new().mov(Reg(0), 0).add(Reg(0), Reg(0), 1u64).branch_ne(Reg(0), n, 1);
            Program::new(vec![t]).unwrap()
        };
        let nothing = ExecutionResult { reads: Default::default(), final_memory: Vec::new() };
        let done = Outcome::of(&counter(100), &nothing).expect("201 local steps fit");
        assert_eq!(done.regs[0][0], 100);
        assert_eq!(Outcome::of(&counter(20_000), &nothing), None, "the local-step limit");
    }

    #[test]
    fn pruned_and_full_agree_on_results() {
        let (x, y) = (Loc(0), Loc(1));
        let p = Program::new(vec![
            Thread::new().write(x, 1).read(y, Reg(0)),
            Thread::new().write(y, 1).read(x, Reg(0)),
        ])
        .unwrap();
        let full = explore(&p, &cfg());
        let pruned = explore_results(&p, &cfg());
        assert_eq!(full.results, pruned.results);
        assert!(pruned.execution_count <= full.execution_count);
    }

    #[test]
    fn pruned_and_full_agree_on_sync_results() {
        // Regression: state-only pruning used to drop reachable results
        // whose read histories differed on paths converging to the same
        // architectural state — the bounded barrier is the witness.
        let p = crate::corpus::barrier_bounded(2, 2);
        let budget = ExploreConfig {
            max_ops_per_execution: 64,
            max_total_steps: 3_000_000,
            ..ExploreConfig::default()
        };
        let full = explore(&p, &budget);
        let pruned = explore_results(&p, &budget);
        assert!(full.complete && pruned.complete);
        assert_eq!(full.results, pruned.results);
        assert!(pruned.steps <= full.steps, "pruning still helps");
    }

    #[test]
    fn dpor_and_full_agree_on_dekker() {
        let p = crate::corpus::fig1_dekker();
        let full = explore(&p, &cfg());
        let dpor = explore_dpor(&p, &cfg());
        assert!(full.complete && dpor.complete);
        assert_eq!(full.results, dpor.results);
        assert_eq!(full.outcomes(&p), dpor.outcomes(&p));
        assert_eq!(full.races, dpor.races);
        assert!(dpor.steps <= full.steps);
    }

    #[test]
    fn dpor_strictly_reduces_independent_writers() {
        let p = independent_writers(3, 2);
        let full = explore(&p, &cfg());
        let dpor = explore_dpor(&p, &cfg());
        assert!(full.complete && dpor.complete);
        assert_eq!(full.results, dpor.results);
        assert_eq!(full.outcomes(&p), dpor.outcomes(&p));
        assert_eq!(full.races, dpor.races);
        assert!(
            dpor.steps < full.steps,
            "3 threads of disjoint writes must prune: dpor {} vs full {}",
            dpor.steps,
            full.steps
        );
        assert!(dpor.pruned > 0);
        // All 6 ops commute: exactly one complete execution survives.
        assert_eq!(dpor.execution_count, 1);
    }

    #[test]
    fn dpor_treats_same_location_sync_reads_as_dependent() {
        // Two sync reads of s never *conflict* (both reads), but under
        // DRF0's happens-before a sync read releases, so their order
        // decides whether P1 acquires P0's write of x. Conflict-only
        // independence would commute them and lose the race; the
        // so-related clause must keep both orders.
        let (x, s) = (Loc(0), Loc(9));
        let p = Program::new(vec![
            Thread::new().write(x, 1).sync_read(s, Reg(0)),
            Thread::new().sync_read(s, Reg(0)).read(x, Reg(1)),
        ])
        .unwrap();
        let full = explore(&p, &cfg());
        let dpor = explore_dpor(&p, &cfg());
        assert!(full.complete && dpor.complete);
        assert!(!full.race_free(), "some order leaves the read unsynchronized");
        assert_eq!(full.races, dpor.races);
        assert_eq!(full.results, dpor.results);
    }

    #[test]
    fn dpor_agrees_across_the_corpus() {
        for (name, p) in
            crate::corpus::drf0_suite().iter().chain(crate::corpus::racy_suite().iter())
        {
            let budget = ExploreConfig {
                max_total_steps: 500_000,
                ..ExploreConfig::default()
            };
            let full = explore(p, &budget);
            let dpor = explore_dpor(p, &budget);
            if full.complete && dpor.complete {
                assert_eq!(full.results, dpor.results, "{name}: results");
                assert_eq!(full.outcomes(p), dpor.outcomes(p), "{name}: outcomes");
                assert_eq!(full.races, dpor.races, "{name}: races");
                assert!(dpor.steps <= full.steps, "{name}: reduction never grows");
            }
        }
    }

    #[test]
    fn budget_accounting_is_uniform_across_strategies() {
        // Regression: the full DFS used to count budget per recursive call
        // while the pruned DFS counted per deduplicated state, so the two
        // exhausted `max_total_steps` at wildly different effective depths
        // and their `IncompleteReason`s were not comparable. On a
        // single-path program (one thread, no branching) all strategies
        // must now expand identical state counts and report the identical
        // budget boundary.
        let mut th = Thread::new();
        for i in 0..12 {
            th = th.write(Loc(i), u64::from(i) + 1);
        }
        let p = Program::new(vec![th]).unwrap();
        for budget in 1..16 {
            let limited = ExploreConfig { max_total_steps: budget, ..cfg() };
            let full = explore(&p, &limited);
            let pruned = explore_results(&p, &limited);
            let dpor = explore_dpor(&p, &limited);
            let (audited, _) = explore_results_audited(&p, &limited);
            for (name, other) in [("pruned", &pruned), ("dpor", &dpor), ("audited", &audited)] {
                assert_eq!(full.steps, other.steps, "{name}, budget {budget}");
                assert_eq!(full.incomplete, other.incomplete, "{name}, budget {budget}");
                assert_eq!(full.complete, other.complete, "{name}, budget {budget}");
            }
        }
    }

    #[test]
    fn visited_set_is_tracked_and_budgeted() {
        let p = crate::corpus::fig1_dekker();
        let unbounded = explore_results(&p, &cfg());
        assert!(unbounded.complete);
        assert_eq!(
            unbounded.peak_visited, unbounded.steps,
            "every expanded state is retained in the visited set"
        );
        assert!(unbounded.pruned > 0, "dekker has converging paths");

        let capped = explore_results(
            &p,
            &ExploreConfig { max_visited_states: 4, ..cfg() },
        );
        assert!(!capped.complete);
        assert_eq!(capped.incomplete, Some(IncompleteReason::MaxVisitedStates));
        assert!(capped.peak_visited <= 4);
        // The memory budget is visible in Display for report surfaces.
        assert!(IncompleteReason::MaxVisitedStates.to_string().contains("memory"));
    }

    #[test]
    fn visited_cap_unwinds_immediately_and_reports_once() {
        // Regression: after `max_visited_states` tripped, the DFS used to
        // keep walking the entire remaining tree, re-hitting the cap check
        // (and re-reporting the reason) at every node. The terminal budget
        // must unwind the walk immediately: exactly the capped number of
        // states is expanded, and nothing — no prunes, no truncations, no
        // executions — is recorded from the futile remainder.
        let p = crate::corpus::fig1_dekker();
        let capped = explore_results(
            &p,
            &ExploreConfig { max_visited_states: 4, ..cfg() },
        );
        assert!(!capped.complete);
        assert_eq!(capped.incomplete, Some(IncompleteReason::MaxVisitedStates));
        assert_eq!(capped.steps, 4, "one expansion per interned state");
        assert_eq!(capped.peak_visited, 4);
        // The first 4 states lie on one DFS path, so the cap trips before
        // any revisit or leaf is possible — all other counters stay zero.
        assert_eq!(capped.pruned, 0);
        assert_eq!(capped.truncated_executions, 0);
        assert_eq!(capped.execution_count, 0);
    }

    #[test]
    fn symmetric_threads_prune_and_results_close_exactly() {
        // Two identical racy increment threads: every state reached by
        // "thread 1 first" is a permutation of one reached by "thread 0
        // first", so symmetry reduction halves the tree — and the closure
        // pass must reconstruct the mirrored results exactly.
        let mk = || {
            Thread::new()
                .read(Loc(0), Reg(0))
                .add(Reg(1), Reg(0), 1u64)
                .write(Loc(0), Reg(1))
        };
        let p = Program::new(vec![mk(), mk()]).unwrap();
        let full = explore(&p, &cfg());
        let pruned = explore_results(&p, &cfg());
        assert!(full.complete && pruned.complete);
        assert_eq!(full.results, pruned.results);
        assert_eq!(full.outcomes(&p), pruned.outcomes(&p));
        assert!(
            pruned.steps < full.steps,
            "symmetry + convergence must shrink the walk: {} vs {}",
            pruned.steps,
            full.steps
        );
    }

    #[test]
    fn non_adjacent_identical_threads_are_canonicalized() {
        // Thread classes [A, B, A]: the interchangeable pair (0, 2) is not
        // adjacent, so transposition generators restricted to neighbors
        // would miss it — this pins the all-pairs closure.
        let a = || Thread::new().fetch_add(Loc(0), Reg(0), 1);
        let b = Thread::new().write(Loc(1), 7);
        let p = Program::new(vec![a(), b, a()]).unwrap();
        let full = explore(&p, &cfg());
        let pruned = explore_results(&p, &cfg());
        assert!(full.complete && pruned.complete);
        assert_eq!(full.results, pruned.results);
        assert_eq!(full.outcomes(&p), pruned.outcomes(&p));
        assert!(pruned.steps < full.steps);
    }

    #[test]
    fn interned_explorer_matches_full_explorer_on_corpus() {
        // The state-key equality gate in miniature (wo-fuzz runs it over
        // 500 generated seeds): the interned-digest explorer must report
        // the unreduced explorer's result and outcome sets whenever both
        // complete, without expanding more states.
        for (name, p) in crate::corpus::drf0_suite()
            .iter()
            .chain(crate::corpus::racy_suite().iter())
        {
            let budget = ExploreConfig {
                max_total_steps: 200_000,
                ..ExploreConfig::default()
            };
            let full = explore(p, &budget);
            let interned = explore_results(p, &budget);
            if full.complete && interned.complete {
                assert_eq!(full.results, interned.results, "{name}: results");
                assert_eq!(full.outcomes(p), interned.outcomes(p), "{name}: outcomes");
                assert!(interned.steps <= full.steps, "{name}: pruning never grows");
            }
        }
    }

    #[test]
    fn audited_explorer_validates_digests_on_corpus() {
        for (name, p) in crate::corpus::drf0_suite()
            .iter()
            .chain(crate::corpus::racy_suite().iter())
        {
            let budget = ExploreConfig {
                max_total_steps: 50_000,
                ..ExploreConfig::default()
            };
            let (audited, audit) = explore_results_audited(p, &budget);
            assert!(audit.states_audited > 0, "{name}");
            assert!(audit.distinct_digests > 0, "{name}");
            let plain = explore_results(p, &budget);
            if audited.complete && plain.complete {
                assert_eq!(audited.results, plain.results, "{name}");
            }
        }
    }

    #[test]
    fn intern_table_deduplicates_and_survives_growth() {
        let mut table = InternTable::new();
        // A digest equal to the empty sentinel must still round-trip.
        assert!(table.insert(StateDigest(0, 0)));
        assert!(!table.insert(StateDigest(0, 0)));
        assert!(table.contains(StateDigest(0, 0)));
        // Force several doublings past the initial arena.
        for i in 1..=20_000u64 {
            let d = StateDigest(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
            assert!(table.insert(d), "fresh digest {i}");
            assert!(!table.insert(d), "duplicate digest {i}");
        }
        assert_eq!(table.len(), 20_001);
        for i in 1..=20_000u64 {
            let d = StateDigest(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
            assert!(table.contains(d), "{i} lost in growth");
        }
    }

    #[test]
    fn synchronized_handoff_is_drf0() {
        // Bounded spin (2 attempts, give up and skip the read) so the
        // exploration covers every interleaving to completion.
        let (x, s) = (Loc(0), Loc(9));
        let consumer = Thread::new()
            .mov(Reg(2), 0)
            .sync_read(s, Reg(0))
            .branch_eq(Reg(0), 1u64, 6)
            .add(Reg(2), Reg(2), 1u64)
            .branch_ne(Reg(2), 2u64, 1)
            .jump(7)
            .read(x, Reg(1));
        let p = Program::new(vec![
            Thread::new().write(x, 1).sync_write(s, 1),
            consumer,
        ])
        .unwrap();
        assert!(program_is_drf0(&p, &cfg()));
    }

    #[test]
    fn unsynchronized_handoff_is_not_drf0() {
        let (x, f) = (Loc(0), Loc(1));
        let p = Program::new(vec![
            Thread::new().write(x, 1).write(f, 1), // data flag: racy
            Thread::new().read(f, Reg(0)).read(x, Reg(1)),
        ])
        .unwrap();
        assert!(!program_is_drf0(&p, &cfg()));
    }

    #[test]
    fn sync_only_program_is_drf0() {
        let s = Loc(0);
        let p = Program::new(vec![
            Thread::new().test_and_set(s, Reg(0)),
            Thread::new().test_and_set(s, Reg(0)),
        ])
        .unwrap();
        assert!(program_is_drf0(&p, &cfg()));
    }

    #[test]
    fn spin_loop_truncates_not_hangs() {
        // P0 spins on a flag nobody ever sets: every interleaving that
        // keeps spinning truncates at the op budget.
        let p = Program::new(vec![Thread::new()
            .sync_read(Loc(0), Reg(0))
            .branch_ne(Reg(0), 1u64, 0)])
        .unwrap();
        let small = ExploreConfig { max_ops_per_execution: 8, ..cfg() };
        let report = explore(&p, &small);
        assert_eq!(report.execution_count, 0);
        assert!(report.truncated_executions > 0);
    }

    #[test]
    fn bounded_spin_completes() {
        // Spin at most twice, then give up.
        let s = Loc(0);
        let t1 = Thread::new()
            .mov(Reg(2), 0)
            .sync_read(s, Reg(0))
            .branch_eq(Reg(0), 1u64, 6)
            .add(Reg(2), Reg(2), 1u64)
            .branch_ne(Reg(2), 2u64, 1)
            .jump(6);
        let p = Program::new(vec![Thread::new().sync_write(s, 1), t1]).unwrap();
        let report = explore(&p, &cfg());
        assert!(report.complete);
        assert!(report.execution_count > 0);
        assert_eq!(report.truncated_executions, 0);
        assert!(report.race_free());
    }

    #[test]
    fn max_executions_marks_incomplete() {
        let p = Program::new(vec![
            Thread::new().write(Loc(0), 1).write(Loc(1), 1),
            Thread::new().write(Loc(2), 1).write(Loc(3), 1),
        ])
        .unwrap();
        let tiny = ExploreConfig { max_executions: 2, ..cfg() };
        let report = explore(&p, &tiny);
        assert!(!report.complete);
        assert!(report.execution_count <= 2);
    }

    #[test]
    fn keep_executions_retains_them() {
        let p = Program::new(vec![Thread::new().write(Loc(0), 1)]).unwrap();
        let keep = ExploreConfig { keep_executions: true, ..cfg() };
        let report = explore(&p, &keep);
        assert_eq!(report.executions.len(), 1);
        assert_eq!(report.executions[0].len(), 1);
    }

    #[test]
    fn sc_outcomes_collects_reference_set() {
        let p = Program::new(vec![Thread::new().write(Loc(0), 1)]).unwrap();
        let out = sc_outcomes(&p, &cfg());
        assert!(out.complete);
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.initial.read(Loc(0)), 0);
    }

    #[test]
    fn racy_write_write_detected() {
        let p = Program::new(vec![
            Thread::new().write(Loc(0), 1),
            Thread::new().write(Loc(0), 2),
        ])
        .unwrap();
        let report = explore(&p, &cfg());
        assert!(!report.race_free());
        assert_eq!(report.results.len(), 2, "final memory differs by order");
    }

    #[test]
    fn reachable_results_shortcut() {
        let p = Program::new(vec![Thread::new().read(Loc(0), Reg(0))]).unwrap();
        assert_eq!(reachable_results(&p, &cfg()).len(), 1);
    }

    #[test]
    fn incomplete_reason_names_the_budget() {
        // Execution cap.
        let p = Program::new(vec![
            Thread::new().write(Loc(0), 1).write(Loc(1), 1),
            Thread::new().write(Loc(2), 1).write(Loc(3), 1),
        ])
        .unwrap();
        let report = explore(&p, &ExploreConfig { max_executions: 2, ..cfg() });
        assert_eq!(report.incomplete, Some(IncompleteReason::MaxExecutions));

        // Per-execution op budget (unbounded spin).
        let spin = Program::new(vec![Thread::new()
            .sync_read(Loc(0), Reg(0))
            .branch_ne(Reg(0), 1u64, 0)])
        .unwrap();
        let report =
            explore(&spin, &ExploreConfig { max_ops_per_execution: 8, ..cfg() });
        assert_eq!(report.incomplete, Some(IncompleteReason::TruncatedExecution));

        // Global step budget.
        let report = explore(&p, &ExploreConfig { max_total_steps: 3, ..cfg() });
        assert_eq!(report.incomplete, Some(IncompleteReason::MaxTotalSteps));

        // Complete explorations carry no reason.
        let report = explore(&p, &cfg());
        assert!(report.complete);
        assert_eq!(report.incomplete, None);
    }

    #[test]
    fn drf0_verdict_classifies_without_panicking() {
        assert_eq!(
            drf0_verdict(&crate::corpus::message_passing_sync(2), &cfg()),
            Drf0Verdict::Drf0
        );
        assert_eq!(
            drf0_verdict(&crate::corpus::message_passing_data(), &cfg()),
            Drf0Verdict::Racy
        );
        // A spin bound far past any budget: a clear BudgetExceeded, not a
        // panic or a hang.
        let spinny = crate::corpus::message_passing_sync(1_000_000);
        let tiny = ExploreConfig { max_total_steps: 10_000, ..cfg() };
        assert!(matches!(
            drf0_verdict(&spinny, &tiny),
            Drf0Verdict::BudgetExceeded(_)
        ));
    }

    #[test]
    fn expired_deadline_yields_structured_partial_verdict() {
        // A deadline already in the past: every strategy must stop at the
        // very first poll (steps == 0) and report Deadline — a degraded
        // partial answer, never a hang or a panic.
        let p = crate::corpus::fig1_dekker();
        let expired = ExploreConfig {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_secs(1)),
            ..cfg()
        };
        for report in [
            explore(&p, &expired),
            explore_dpor(&p, &expired),
            explore_results(&p, &expired),
            explore_results_audited(&p, &expired).0,
        ] {
            assert!(!report.complete);
            assert_eq!(report.incomplete, Some(IncompleteReason::Deadline));
            assert_eq!(report.steps, 0, "nothing expanded past an expired deadline");
        }
        assert_eq!(
            drf0_verdict(&p, &expired),
            Drf0Verdict::BudgetExceeded(IncompleteReason::Deadline)
        );
        assert!(IncompleteReason::Deadline.to_string().contains("deadline"));

        // A generous deadline changes nothing.
        let roomy = cfg().with_deadline_in(std::time::Duration::from_secs(600));
        let report = explore_dpor(&p, &roomy);
        assert!(report.complete);
        assert_eq!(report.races, explore_dpor(&p, &cfg()).races);
    }

    #[test]
    fn drf0_verdict_racy_wins_over_budget() {
        // A racy program under a budget too small to finish: the race
        // found in the explored prefix is conclusive.
        let p = crate::corpus::racy_counter(3);
        let tiny = ExploreConfig { max_total_steps: 2_000, ..cfg() };
        let report = explore_dpor(&p, &tiny);
        if !report.race_free() {
            assert_eq!(drf0_verdict(&p, &tiny), Drf0Verdict::Racy);
        }
    }

    #[test]
    fn local_step_limit_keeps_the_prefix_races() {
        // Regression: T1 reads x and then spins on a local jump forever,
        // so every path ends in a local-step-limit truncation rather than
        // a leaf. Truncation used to drop the detector's races there,
        // turning a racy program into BudgetExceeded(TruncatedExecution).
        let x = Loc(0);
        let p = Program::new(vec![
            Thread::new().write(x, 1),
            Thread::new().read(x, Reg(0)).jump(1),
        ])
        .unwrap();
        // The write and the read race in either completion order.
        let (w, r) = (OpId::for_thread_op(ProcId(0), 0), OpId::for_thread_op(ProcId(1), 0));
        let expected = HashSet::from([
            Race { first: w, second: r, loc: x },
            Race { first: r, second: w, loc: x },
        ]);
        for report in [explore(&p, &cfg()), explore_dpor(&p, &cfg())] {
            assert_eq!(report.execution_count, 0, "no path reaches a leaf");
            assert!(report.truncated_executions > 0);
            assert_eq!(report.incomplete, Some(IncompleteReason::TruncatedExecution));
            assert_eq!(report.races, expected);
        }
        assert_eq!(drf0_verdict(&p, &cfg()), Drf0Verdict::Racy);
    }
}
