//! Differential + collision audit of the interned state-key explorer.
//!
//! The converged-state explorer keys its visited set on a 128-bit
//! incrementally maintained digest interned in an open-addressed table,
//! with thread-symmetry reduction on top. Two things must hold for that
//! to be a pure optimization:
//!
//! 1. **Same answers.** On every program the budget can decide, the
//!    digest-keyed explorer must report exactly the result set and outcome
//!    set of the unreduced ground-truth explorer, `explore`, while
//!    expanding no more states. This is the 500-seed differential.
//! 2. **No collisions, no drift.** `explore_results_audited` recomputes
//!    the digest from scratch at every visited state (after the step in
//!    and after the undo out) and checks the digest→canonical-state map is
//!    injective, so a collision or a stale incremental update fails the
//!    assertion inside the explorer rather than silently merging states.
//!
//! Seeded and deterministic like the DPOR differential next door — no
//! `proptest`, offline-friendly. Budget-limited runs truncate different
//! tree regions, so equality is only asserted where both explorers
//! complete, with a minimum conclusive count so budget rot can't hollow
//! the test out.

use litmus::explore::{explore, explore_results, explore_results_audited, ExploreConfig};
use litmus::parse::parse_litmus_dir;
use litmus::Program;
use wo_fuzz::gen::{generate, GenConfig};

const FUZZ_SEEDS: u64 = 500;

fn budget() -> ExploreConfig {
    ExploreConfig {
        max_ops_per_execution: 48,
        max_total_steps: 60_000,
        ..ExploreConfig::default()
    }
}

/// Compares interned-digest vs unreduced exploration on one program.
/// Returns `true` when both completed (full comparison ran).
fn check(name: &str, program: &Program, cfg: &ExploreConfig) -> bool {
    let interned = explore_results(program, cfg);
    let full = explore(program, cfg);
    if !(interned.complete && full.complete) {
        return false;
    }
    assert_eq!(interned.results, full.results, "{name}: results diverge");
    assert_eq!(interned.outcomes(program), full.outcomes(program), "{name}: outcomes diverge");
    // Convergence and symmetry can only skip states, never add any.
    assert!(
        interned.steps <= full.steps,
        "{name}: interned explorer expanded more states ({} > {})",
        interned.steps,
        full.steps
    );
    true
}

#[test]
fn interned_key_agrees_with_full_explorer_on_all_shipped_litmus_files() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../litmus-tests");
    let cfg = ExploreConfig { max_total_steps: 400_000, ..budget() };
    let mut compared = 0u64;
    for (path, program) in parse_litmus_dir(&dir).unwrap_or_else(|e| panic!("{e}")) {
        if check(&path.display().to_string(), &program, &cfg) {
            compared += 1;
        }
    }
    assert!(compared >= 20, "only {compared} files were decidable in budget");
}

#[test]
fn interned_key_agrees_with_full_explorer_on_500_fuzz_seeds() {
    let gen_cfg = GenConfig::default();
    let cfg = budget();
    let mut compared = 0u64;
    for seed in 0..FUZZ_SEEDS {
        let gp = generate(seed, &gen_cfg);
        if check(&gp.name(), &gp.program, &cfg) {
            compared += 1;
        }
    }
    assert!(
        compared >= FUZZ_SEEDS / 2,
        "only {compared}/{FUZZ_SEEDS} seeds were decidable in budget"
    );
}

#[test]
fn digest_maintenance_and_injectivity_hold_on_500_fuzz_seeds() {
    // The audited explorer recomputes the digest from scratch at every
    // node, so its per-state cost is O(trace) — cap the step budget lower
    // than the differential's. The audit assertions hold at every visited
    // state whether or not exploration completes, so truncation does not
    // weaken this test; the distinct-digest floor just keeps it honest
    // about actually having interned something.
    let gen_cfg = GenConfig::default();
    let cfg = ExploreConfig {
        max_ops_per_execution: 48,
        max_total_steps: 20_000,
        ..ExploreConfig::default()
    };
    let mut audited_states = 0usize;
    for seed in 0..FUZZ_SEEDS {
        let gp = generate(seed, &gen_cfg);
        let (_, audit) = explore_results_audited(&gp.program, &cfg);
        assert!(audit.distinct_digests > 0, "{}: nothing interned", gp.name());
        audited_states += audit.states_audited;
    }
    assert!(
        audited_states >= 100_000,
        "audit only covered {audited_states} states across {FUZZ_SEEDS} seeds"
    );
}
