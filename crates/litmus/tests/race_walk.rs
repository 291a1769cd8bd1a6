//! `explore_races` is `explore_dpor`'s walk for callers that read only
//! races and counts: it must leave `results` empty and equal
//! `explore_dpor` on every other field — the race set, the execution and
//! truncation counts, completeness and the budget that gave out, `steps`,
//! `pruned`, `peak_visited` and the kept executions.
//!
//! The inputs are `explore_digest`'s: the corpus suites, the scaling
//! families and the shipped `.litmus` files, under both synchronization
//! modes, with that test's budgets and with a step budget small enough
//! to stop most walks early.

use litmus::corpus;
use litmus::explore::{explore_dpor, explore_races, ExploreConfig, IncompleteReason};
use litmus::parse::parse_litmus_dir;
use litmus::Program;
use memory_model::SyncMode;

/// `explore_digest`'s programs.
fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = Vec::new();
    for (name, p) in corpus::drf0_suite().into_iter().chain(corpus::racy_suite()) {
        out.push((name.to_string(), p));
    }
    for k in 1..=4 {
        out.push((format!("mp_fan({k})"), corpus::mp_fan(k)));
    }
    for k in 2..=3 {
        out.push((format!("iriw_fan({k})"), corpus::iriw_fan(k)));
    }
    for stages in 2..=4 {
        out.push((format!("pipeline({stages})"), corpus::pipeline(stages)));
    }
    out.push(("spinlock_bounded(2,2,2)".into(), corpus::spinlock_bounded(2, 2, 2)));
    out.push(("spinlock_bounded(3,1,2)".into(), corpus::spinlock_bounded(3, 1, 2)));
    out.push(("barrier_bounded(3,1)".into(), corpus::barrier_bounded(3, 1)));
    out.push(("barrier_bounded(2,3)".into(), corpus::barrier_bounded(2, 3)));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../litmus-tests");
    for (path, p) in parse_litmus_dir(&dir).unwrap_or_else(|e| panic!("{e}")) {
        let name = path.file_name().expect("file").to_string_lossy().into_owned();
        out.push((name, p));
    }
    out
}

#[test]
fn the_race_walk_is_the_dpor_walk_without_results() {
    let programs = programs();
    let (mut racy, mut stopped, mut truncated, mut complete) = (0, 0, 0, 0);
    for sync_mode in [SyncMode::Drf0, SyncMode::ReleaseWrites] {
        let digest_budget = ExploreConfig {
            max_ops_per_execution: 24,
            max_executions: 4_000,
            max_total_steps: 40_000,
            max_visited_states: 20_000,
            sync_mode,
            ..ExploreConfig::default()
        };
        let tight = ExploreConfig { max_total_steps: 300, keep_executions: true, ..digest_budget };
        for cfg in [digest_budget, tight] {
            for (name, program) in &programs {
                let dpor = explore_dpor(program, &cfg);
                let races = explore_races(program, &cfg);
                let at = format!("{name} ({sync_mode:?}, {} steps)", cfg.max_total_steps);
                assert!(races.results.is_empty(), "{at}: results recorded");
                assert_eq!(races.races, dpor.races, "{at}: races");
                assert_eq!(races.execution_count, dpor.execution_count, "{at}: executions");
                assert_eq!(races.executions, dpor.executions, "{at}: kept executions");
                assert_eq!(races.truncated_executions, dpor.truncated_executions, "{at}");
                assert_eq!(races.complete, dpor.complete, "{at}: complete");
                assert_eq!(races.incomplete, dpor.incomplete, "{at}: incomplete");
                assert_eq!(races.steps, dpor.steps, "{at}: steps");
                assert_eq!(races.pruned, dpor.pruned, "{at}: pruned");
                assert_eq!(races.peak_visited, dpor.peak_visited, "{at}: peak visited");
                racy += usize::from(!dpor.race_free());
                complete += usize::from(dpor.complete);
                stopped += usize::from(dpor.incomplete == Some(IncompleteReason::MaxTotalSteps));
                truncated += usize::from(dpor.truncated_executions > 0);
            }
        }
    }
    // What the inputs exercised, so a shrunken input set cannot pass
    // vacuously.
    assert!(racy > 0 && complete > 0, "racy {racy}, complete {complete}");
    assert!(stopped > 0 && truncated > 0, "budget-stopped {stopped}, truncated {truncated}");
}
