//! # wo-axiom — a herd-style axiomatic second opinion
//!
//! The operational explorer (`litmus::explore`) decides SC outcome sets
//! and DRF0 verdicts by enumerating interleavings. This crate decides the
//! *same questions* from an entirely different formulation — candidate
//! executions as **relations** — so the two can be differentially tested
//! against each other. On the deciding path they share only the spec
//! predicates of `memory_model` (`Operation::conflicts_with`,
//! `Operation::so_related` and [`SyncMode::releases`]), which unit tests
//! pin concretely.
//!
//! An execution candidate is a tuple of per-thread symbolic paths
//! ([`paths`]) plus a reads-from choice for every read and a coherence
//! order per location ([`engine`], private). Sequential consistency is the
//! acyclicity of `po ∪ rf ∪ co ∪ fr`, kept in [`memory_model::rel::Rel`]
//! (the bitset order `memory_model::hb` closes happens-before in, which
//! the explorer never uses): it maintains the transitive closure
//! incrementally and rejects cycles on edge insert. DRF0 is decided from
//! the derived happens-before, including the Adve–Hill Lemma 1 fast path:
//! when the synchronization skeleton alone orders every conflicting pair,
//! the candidate is certified race-free and its data reads are
//! value-forced, so its unique SC result is emitted with no data-relation
//! enumeration at all.
//!
//! The engine is exact relative to the explorer whenever both sides are
//! definitive: equal DRF0 verdicts, and equal SC outcome sets whenever
//! both report completeness. `wo-fuzz` enforces this differentially; the
//! `wo-serve` daemon answers axiomatically first and falls back to the
//! explorer on [`AxiomVerdict::Unknown`].

use std::collections::HashSet;
use std::fmt;
use std::time::Instant;

use litmus::explore::ExploreConfig;
use litmus::ideal::IdealState;
use litmus::Program;
use memory_model::{ExecutionResult, Loc, OpId, Operation, SyncMode};

pub mod paths;

mod engine;

/// Tuning knobs for the axiomatic search.
#[derive(Debug, Clone)]
pub struct AxiomConfig {
    /// Cap on memory operations per candidate execution — mirrors the
    /// operational explorer's cap so both truncate at the same boundary.
    pub max_ops_per_execution: usize,
    /// Abstract work budget (path steps, relation commits, candidates);
    /// comparable in spirit to the explorer's `max_total_steps`.
    pub max_work: u64,
    /// Which operations synchronize, per the paper's DRF0 vs the
    /// release-writes-only variant.
    pub sync_mode: SyncMode,
    /// Per-thread local-instruction budget, mirroring the interpreter.
    pub local_step_limit: u64,
    /// Wall-clock deadline for the whole analysis.
    pub deadline: Option<Instant>,
    /// How many distinct-result witnesses to retain (0 = none).
    pub collect_witnesses: usize,
    /// Deliberately skip the happens-before check on write/write conflict
    /// pairs in the Lemma 1 fast path — an injectable defect that the fuzz
    /// campaign's self-test uses to prove the differential gate would
    /// catch a real bug here.
    pub inject_hb_bug: bool,
}

impl Default for AxiomConfig {
    fn default() -> Self {
        AxiomConfig {
            max_ops_per_execution: 64,
            max_work: 5_000_000,
            sync_mode: SyncMode::Drf0,
            local_step_limit: IdealState::DEFAULT_LOCAL_STEP_LIMIT,
            deadline: None,
            collect_witnesses: 0,
            inject_hb_bug: false,
        }
    }
}

impl AxiomConfig {
    /// Derives an axiomatic budget from an explorer configuration, so a
    /// caller that would have explored under `cfg` gets comparable limits
    /// (same op cap, same sync mode, same deadline, `max_total_steps` as
    /// the work budget).
    #[must_use]
    pub fn from_explore(cfg: &ExploreConfig) -> Self {
        AxiomConfig {
            max_ops_per_execution: cfg.max_ops_per_execution,
            max_work: cfg.max_total_steps as u64,
            sync_mode: cfg.sync_mode,
            deadline: cfg.deadline,
            ..AxiomConfig::default()
        }
    }
}

/// Why the search stopped before exhausting the candidate space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The abstract work budget ran out.
    Work,
    /// The wall-clock deadline passed.
    Deadline,
    /// A race was found and the caller asked for verdict-only search.
    RaceFound,
}

/// The work/deadline accountant threaded through every phase.
#[derive(Debug)]
pub struct Budget {
    max: u64,
    spent: u64,
    deadline: Option<Instant>,
}

impl Budget {
    /// A budget of `max` abstract work units with an optional deadline.
    #[must_use]
    pub fn new(max: u64, deadline: Option<Instant>) -> Self {
        Budget { max, spent: 0, deadline }
    }

    /// Work units consumed so far.
    #[must_use]
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Consumes `n` units.
    ///
    /// # Errors
    ///
    /// [`Stop::Work`] when the budget is exhausted; [`Stop::Deadline`]
    /// when the deadline has passed (polled every 1024 units to keep the
    /// clock off the hot path).
    pub fn spend(&mut self, n: u64) -> Result<(), Stop> {
        let before = self.spent >> 10;
        self.spent = self.spent.saturating_add(n);
        if self.spent > self.max {
            return Err(Stop::Work);
        }
        if let Some(d) = self.deadline {
            if self.spent >> 10 != before && Instant::now() >= d {
                return Err(Stop::Deadline);
            }
        }
        Ok(())
    }
}

/// Why the engine could not return a definitive verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnknownReason {
    /// The work budget ran out mid-search.
    WorkBudget,
    /// The wall-clock deadline passed.
    Deadline,
    /// Some execution outgrew the per-execution op cap or local-step
    /// limit, so the candidate space is under-approximated.
    Truncated,
    /// Some candidate had more undecided synchronization orientations
    /// than the sweep cap.
    OrientationCap,
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnknownReason::WorkBudget => "work_budget",
            UnknownReason::Deadline => "deadline",
            UnknownReason::Truncated => "truncated",
            UnknownReason::OrientationCap => "orientation_cap",
        })
    }
}

/// The axiomatic DRF0 verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AxiomVerdict {
    /// Every candidate execution is free of data races: certified DRF0.
    Drf0,
    /// Some sequentially consistent execution exhibits a data race.
    Racy,
    /// The search could not certify either way.
    Unknown(UnknownReason),
}

impl fmt::Display for AxiomVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxiomVerdict::Drf0 => f.write_str("drf0"),
            AxiomVerdict::Racy => f.write_str("racy"),
            AxiomVerdict::Unknown(r) => write!(f, "unknown({r})"),
        }
    }
}

/// A checkable certificate for one emitted result: the event list of the
/// candidate, its reads-from choice, and a linearization of the committed
/// relation. Property tests replay the linearization through the
/// operational memory semantics and demand the same result.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The candidate's events, per-thread paths concatenated in thread
    /// order (so program order is contiguous runs of equal `proc`).
    pub events: Vec<Operation>,
    /// `(reader_index, source)` per read, `None` meaning the initial
    /// memory value.
    pub rf: Vec<(usize, Option<usize>)>,
    /// A topological order of `po ∪ rf ∪ co ∪ fr` — an SC schedule that
    /// realizes the candidate.
    pub linearization: Vec<usize>,
}

/// Everything the axiomatic analysis concluded.
#[derive(Debug)]
pub struct AxiomReport {
    /// The DRF0 verdict. `Racy` is definitive even when the search was
    /// otherwise cut short; `Drf0` is only issued for exhaustive searches.
    pub verdict: AxiomVerdict,
    /// Distinct SC results over all admissible candidates.
    pub results: HashSet<ExecutionResult>,
    /// Whether `results` is the *complete* SC outcome set (no truncation,
    /// no budget stop).
    pub complete: bool,
    /// Admissible candidate executions committed.
    pub candidates: u64,
    /// Per-thread path tuples examined.
    pub tuples: u64,
    /// Abstract work units consumed.
    pub work: u64,
    /// An example race when `verdict == Racy`: the two conflicting
    /// operations and their location.
    pub race: Option<(OpId, OpId, Loc)>,
    /// Up to [`AxiomConfig::collect_witnesses`] certificates for distinct
    /// results.
    pub witnesses: Vec<Witness>,
}

/// Runs the full analysis: DRF0 verdict *and* the SC outcome set.
#[must_use]
pub fn analyze(program: &Program, cfg: &AxiomConfig) -> AxiomReport {
    run(program, cfg, false)
}

/// Decides DRF0 only, stopping at the first race witness — the cheap path
/// for callers that do not need outcome sets.
#[must_use]
pub fn decide_drf0(program: &Program, cfg: &AxiomConfig) -> AxiomReport {
    run(program, cfg, true)
}

fn run(program: &Program, cfg: &AxiomConfig, stop_on_race: bool) -> AxiomReport {
    let mut search = engine::Search::new(program, cfg, stop_on_race);
    let stop = search.sweep(program).err();
    let complete = stop.is_none() && !search.truncated;
    let verdict = if search.racy {
        AxiomVerdict::Racy
    } else if let Some(stop) = stop {
        AxiomVerdict::Unknown(match stop {
            Stop::Work => UnknownReason::WorkBudget,
            Stop::Deadline => UnknownReason::Deadline,
            Stop::RaceFound => unreachable!("RaceFound sets racy"),
        })
    } else if search.truncated {
        AxiomVerdict::Unknown(UnknownReason::Truncated)
    } else if search.orientation_capped {
        AxiomVerdict::Unknown(UnknownReason::OrientationCap)
    } else {
        AxiomVerdict::Drf0
    };
    AxiomReport {
        verdict,
        complete,
        candidates: search.candidates,
        tuples: search.tuples,
        work: search.budget.spent(),
        race: search.race,
        witnesses: std::mem::take(&mut search.witnesses),
        results: search.results,
    }
}
