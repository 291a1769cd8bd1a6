//! The hardware side of Definition 2: does a machine appear sequentially
//! consistent to model-obeying software?
//!
//! Definition 2 quantifies over all executions of all obeying programs;
//! simulation can only sample. [`audit`] is the one sampler: it runs one
//! program on a list of machine configurations ([`AuditRun`]s) through
//! [`memsim::sweep`] and judges every run with one judge into one
//! [`CellVerdict`]:
//!
//! * [`CellVerdict::AppearsSc`] — the run completed, the witness-order
//!   search of [`memory_model::sc`] explains its observation, and its
//!   result lies inside the reference SC outcome set when a complete one
//!   was given;
//! * [`CellVerdict::NotSc`] / [`CellVerdict::ScUndecided`] — the search
//!   proved there is no witness order / gave up before deciding;
//! * [`CellVerdict::OutsideScSet`] — the run appears SC but its result is
//!   not one the complete reference allows;
//! * [`CellVerdict::Incomplete`] — the cycle watchdog cut the run;
//! * [`CellVerdict::TolerableAbort`] / [`CellVerdict::UnexpectedAbort`] —
//!   a structured abort that the run's fault profile may / cannot justify;
//! * [`CellVerdict::Panic`] — never acceptable.
//!
//! A single `NotSc` or `OutsideScSet` run *refutes* weak ordering; passing
//! runs accumulate evidence for it (the accompanying Appendix-B-style
//! trace checks in [`crate::conditions`] cover the mechanism itself).
//! Callers keep only their tallies: [`check_appears_sc`] folds an audit
//! over seeds into a [`Definition2Report`]; the figure binaries, the
//! chaos-litmus sweep and the fuzz oracle count or map the verdicts.
//!
//! The **chaos grid** is the machines × fault profiles that the
//! chaos-litmus sweep and the fuzz oracle both audit: [`machines`] ×
//! [`profiles`], one cell built by [`chaos_run`].

use litmus::explore::ScOutcomes;
use litmus::Program;
use memory_model::sc::{check_sc, ScCheckConfig, ScVerdict};
use memory_model::Memory;
use memsim::sweep::{sweep, Cell, CellOutcome};
use memsim::{presets, FaultConfig, MachineConfig, Policy, RunError};

/// One run of an audit.
#[derive(Debug, Clone, Copy)]
pub struct AuditRun {
    /// The machine to run on, including the run's seed.
    pub config: MachineConfig,
    /// Whether the configuration's fault profile may lose messages for
    /// good, which makes a structured abort tolerable.
    pub may_wedge: bool,
}

/// How one run fared against Definition 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellVerdict {
    /// The run completed and appears sequentially consistent (inside the
    /// reference SC outcome set, when a complete one was given).
    AppearsSc,
    /// The run completed and its observation has no SC witness order.
    NotSc,
    /// The run completed but the SC check ran out of budget undecided.
    ScUndecided,
    /// The run appears SC, but the complete reference SC outcome set does
    /// not allow its result.
    OutsideScSet,
    /// The run returned without completing all program threads.
    Incomplete,
    /// A structured abort under a fault profile that may wedge the
    /// machine.
    TolerableAbort,
    /// A structured abort nothing justifies: a protocol violation, an
    /// abort under a profile that cannot wedge, or a machine that could
    /// not start.
    UnexpectedAbort,
    /// The run panicked.
    Panic,
}

/// Runs `program` on every entry of `runs` through [`memsim::sweep`] on
/// `threads` workers (`0`: all cores) and returns each run's outcome with
/// its verdict, in run order.
///
/// `reference` is the program's SC outcome set, if the caller has one: a
/// run that appears SC but whose result a *complete* reference does not
/// allow is [`CellVerdict::OutsideScSet`]. An incomplete reference skips
/// that containment check.
#[must_use]
pub fn audit(
    program: &Program,
    runs: &[AuditRun],
    reference: Option<&ScOutcomes>,
    threads: usize,
) -> Vec<(CellOutcome, CellVerdict)> {
    let cells: Vec<Cell> = runs.iter().map(|run| Cell { program, config: run.config }).collect();
    let initial = program.initial_memory();
    sweep(&cells, threads)
        .into_iter()
        .zip(runs)
        .map(|(outcome, run)| {
            let verdict = judge(&outcome, &initial, run.may_wedge, reference);
            (outcome, verdict)
        })
        .collect()
}

/// The one Definition 2 judge. The sweep engine has already caught panics
/// and dropped the poisoned worker machine.
fn judge(
    outcome: &CellOutcome,
    initial: &Memory,
    may_wedge: bool,
    reference: Option<&ScOutcomes>,
) -> CellVerdict {
    let result = match outcome {
        CellOutcome::Panicked(_) => return CellVerdict::Panic,
        CellOutcome::Err(RunError::Protocol { .. }) => return CellVerdict::UnexpectedAbort,
        CellOutcome::Err(_) if may_wedge => return CellVerdict::TolerableAbort,
        CellOutcome::Err(_) => return CellVerdict::UnexpectedAbort,
        CellOutcome::Ok(result) if !result.completed => return CellVerdict::Incomplete,
        CellOutcome::Ok(result) => result,
    };
    match check_sc(&result.observation(), initial, &ScCheckConfig::default()) {
        ScVerdict::Inconsistent => CellVerdict::NotSc,
        ScVerdict::BudgetExhausted => CellVerdict::ScUndecided,
        ScVerdict::Consistent(_)
            if reference.is_some_and(|r| r.complete && !r.allows(&result.execution_result())) =>
        {
            CellVerdict::OutsideScSet
        }
        ScVerdict::Consistent(_) => CellVerdict::AppearsSc,
    }
}

/// One run of `base` per seed. None may wedge: every abort is unexpected.
#[must_use]
pub fn seeded_runs(base: &MachineConfig, seeds: impl IntoIterator<Item = u64>) -> Vec<AuditRun> {
    seeds
        .into_iter()
        .map(|seed| AuditRun { config: MachineConfig { seed, ..*base }, may_wedge: false })
        .collect()
}

/// The chaos grid's machines: the paper's weak-ordering implementations.
/// The fuzz oracle hashes these names into its fault seeds.
#[must_use]
pub fn machines() -> Vec<(&'static str, Policy)> {
    vec![
        ("def2", presets::wo_def2()),
        ("def2opt", presets::wo_def2_optimized()),
        ("def2queued", presets::wo_def2_queued()),
    ]
}

/// The chaos grid's fault profiles, with whether each may legitimately
/// wedge a run (lose messages for good).
#[must_use]
pub fn profiles() -> Vec<(&'static str, FaultConfig, bool)> {
    vec![
        ("latency", FaultConfig::latency_heavy(), false),
        ("dup", FaultConfig::dup_heavy(), false),
        ("drop", FaultConfig::drop_heavy(), true),
    ]
}

/// One cell of the chaos grid: `program` on the directory-cached network
/// preset under `policy`, seeded with `seed`, with the fault profile
/// `(fault, may_wedge)` injected.
#[must_use]
pub fn chaos_run(
    program: &Program,
    policy: Policy,
    fault: FaultConfig,
    may_wedge: bool,
    seed: u64,
) -> AuditRun {
    AuditRun {
        config: MachineConfig {
            chaos: Some(fault),
            ..presets::network_cached(program.num_threads(), policy, seed)
        },
        may_wedge,
    }
}

/// The verdict of one seeded run.
#[derive(Debug, Clone)]
pub struct RunCheck {
    /// The interconnect-timing seed.
    pub seed: u64,
    /// How the run fared.
    pub verdict: CellVerdict,
}

/// Aggregated Definition 2 evidence for one program on one machine.
#[derive(Debug, Clone)]
pub struct Definition2Report {
    /// The machine's policy name.
    pub policy: &'static str,
    /// Per-seed checks.
    pub runs: Vec<RunCheck>,
}

impl Definition2Report {
    /// Whether every run completed and appeared sequentially consistent.
    #[must_use]
    pub fn all_sc(&self) -> bool {
        self.runs.iter().all(|r| r.verdict == CellVerdict::AppearsSc)
    }

    /// Seeds whose runs were *not* sequentially consistent — witnesses
    /// against weak ordering.
    #[must_use]
    pub fn violating_seeds(&self) -> Vec<u64> {
        self.runs
            .iter()
            .filter(|r| r.verdict == CellVerdict::NotSc)
            .map(|r| r.seed)
            .collect()
    }
}

/// Runs `program` on `base` (re-seeded per entry of `seeds`) and judges
/// each run: an [`audit`] of [`seeded_runs`], folded into a report.
#[must_use]
pub fn check_appears_sc(
    program: &Program,
    base: &MachineConfig,
    seeds: &[u64],
) -> Definition2Report {
    let runs = audit(program, &seeded_runs(base, seeds.iter().copied()), None, 1)
        .into_iter()
        .zip(seeds)
        .map(|((_, verdict), &seed)| RunCheck { seed, verdict })
        .collect();
    Definition2Report { policy: base.policy.name(), runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litmus::corpus;
    use litmus::explore::{sc_outcomes, ExploreConfig};
    use simx::fault::Chance;

    const SEEDS: [u64; 4] = [0, 1, 2, 3];

    fn verdicts(program: &Program, runs: &[AuditRun], reference: Option<&ScOutcomes>) -> Vec<CellVerdict> {
        audit(program, runs, reference, 1).into_iter().map(|(_, v)| v).collect()
    }

    #[test]
    fn def2_machine_appears_sc_to_drf0_corpus() {
        for (name, program) in corpus::drf0_suite() {
            let base = presets::network_cached(program.num_threads(), presets::wo_def2(), 0);
            let report = check_appears_sc(&program, &base, &SEEDS);
            assert!(report.all_sc(), "{name}: {report:?}");
        }
    }

    #[test]
    fn def1_machine_appears_sc_to_drf0_corpus() {
        // Section 6's claim: Definition 1 hardware is weakly ordered by
        // Definition 2 with respect to DRF0.
        for (name, program) in corpus::drf0_suite() {
            let base = presets::network_cached(program.num_threads(), presets::wo_def1(), 0);
            let report = check_appears_sc(&program, &base, &SEEDS);
            assert!(report.all_sc(), "{name}: {report:?}");
        }
    }

    #[test]
    fn relaxed_machine_fails_definition_2_on_racy_dekker() {
        let program = corpus::fig1_dekker();
        let base = MachineConfig {
            interconnect: memsim::InterconnectConfig::Bus { latency: 4 },
            ..presets::bus_no_cache(2, memsim::Policy::Relaxed { write_delay: 40 }, 0)
        };
        let report = check_appears_sc(&program, &base, &SEEDS);
        assert!(!report.all_sc());
        assert!(!report.violating_seeds().is_empty());
    }

    #[test]
    fn report_accessors() {
        let program = corpus::sync_only_tas();
        let base = presets::network_cached(2, presets::wo_def2(), 0);
        let report = check_appears_sc(&program, &base, &[5]);
        assert_eq!(report.policy, "WO-Def2");
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report.runs[0].seed, 5);
        assert_eq!(report.runs[0].verdict, CellVerdict::AppearsSc);
    }

    #[test]
    fn judge_outside_sc_set_only_against_a_complete_reference() {
        let program = corpus::message_passing_sync(2);
        let runs = seeded_runs(&presets::network_cached(2, presets::wo_def2(), 0), [0]);
        let mut reference = sc_outcomes(&program, &ExploreConfig::default());
        assert!(reference.complete);
        assert_eq!(verdicts(&program, &runs, Some(&reference)), [CellVerdict::AppearsSc]);
        reference.results.clear();
        assert_eq!(verdicts(&program, &runs, Some(&reference)), [CellVerdict::OutsideScSet]);
        reference.complete = false;
        assert_eq!(verdicts(&program, &runs, Some(&reference)), [CellVerdict::AppearsSc]);
    }

    #[test]
    fn judge_incomplete() {
        let program = corpus::message_passing_sync(2);
        let base = MachineConfig {
            max_cycles: 5,
            ..presets::network_cached(2, presets::wo_def2(), 0)
        };
        assert_eq!(verdicts(&program, &seeded_runs(&base, [0]), None), [CellVerdict::Incomplete]);
    }

    #[test]
    fn judge_aborts_are_tolerable_only_where_the_profile_may_wedge() {
        let program = corpus::sync_only_tas();
        let always_drop = FaultConfig {
            drop_chance: Chance::always(),
            max_retries: 3,
            backoff_base: 4,
            ..FaultConfig::off()
        };
        let runs = [true, false]
            .map(|may_wedge| chaos_run(&program, presets::wo_def2(), always_drop, may_wedge, 0));
        let audited = audit(&program, &runs, None, 1);
        assert!(matches!(audited[0].0, CellOutcome::Err(RunError::RetriesExhausted { .. })));
        assert_eq!(audited[0].1, CellVerdict::TolerableAbort);
        assert_eq!(audited[1].1, CellVerdict::UnexpectedAbort);
    }

    #[test]
    fn judge_a_machine_that_cannot_start_is_an_unexpected_abort() {
        let program = corpus::fig1_dekker();
        let base = presets::network_cached(7, presets::wo_def2(), 0); // wrong proc count
        let report = check_appears_sc(&program, &base, &[0]);
        assert_eq!(report.runs[0].verdict, CellVerdict::UnexpectedAbort);
        assert!(!report.all_sc());
    }
}
