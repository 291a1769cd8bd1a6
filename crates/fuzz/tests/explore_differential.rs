//! Differential contract of the DPOR-reduced explorer: on every program
//! the budget can decide, sleep-set reduction must preserve exactly what
//! the unreduced explorer observes — `results`, `outcomes`, `races`, and
//! hence the DRF0 verdict — while expanding no more (and on multi-thread
//! programs strictly fewer) states.
//!
//! This is the same differential discipline that caught PR 1's unsound
//! state-only prune, now standing guard over the reduction itself. The
//! sweep covers every shipped `.litmus` file (hand-written corpus plus
//! the checked-in generator exports) and 500 freshly generated fuzz
//! seeds — seeded and deterministic, no `proptest` (offline builds).
//!
//! Budget-limited runs truncate different regions of the interleaving
//! tree, so only programs where *both* explorers complete are compared;
//! the test asserts a minimum conclusive count so budget rot can't
//! silently hollow it out.

use litmus::explore::{explore, explore_dpor, verdict_of, ExploreConfig};
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

/// Compares the two explorers on one program. Returns `true` when both
/// completed (and therefore every observable was checked).
fn check(name: &str, program: &Program, cfg: &ExploreConfig, strict_threads: &mut u64) -> bool {
    let full = explore(program, cfg);
    let dpor = explore_dpor(program, cfg);
    if !(full.complete && dpor.complete) {
        return false;
    }
    assert_eq!(full.results, dpor.results, "{name}: results diverge");
    assert_eq!(full.outcomes(program), dpor.outcomes(program), "{name}: outcomes diverge");
    assert_eq!(full.races, dpor.races, "{name}: race sets diverge");
    assert_eq!(verdict_of(&full), verdict_of(&dpor), "{name}: verdicts diverge");
    assert!(
        dpor.steps <= full.steps,
        "{name}: reduction expanded more states ({} > {})",
        dpor.steps,
        full.steps
    );
    if program.num_threads() >= 3 && dpor.steps < full.steps {
        *strict_threads += 1;
    }
    true
}

#[test]
fn dpor_agrees_with_full_on_all_shipped_litmus_files() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../litmus-tests");
    let mut compared = 0u64;
    let mut strict = 0u64;
    let cfg = ExploreConfig { max_total_steps: 400_000, ..budget() };
    for (path, program) in parse_litmus_dir(&dir).unwrap_or_else(|e| panic!("{e}")) {
        if check(&path.display().to_string(), &program, &cfg, &mut strict) {
            compared += 1;
        }
    }
    assert!(compared >= 20, "only {compared} files were decidable in budget");
}

#[test]
fn dpor_agrees_with_full_on_500_fuzz_seeds() {
    let gen_cfg = GenConfig::default();
    let cfg = budget();
    let mut compared = 0u64;
    let mut three_thread_compared = 0u64;
    let mut strict = 0u64;
    for seed in 0..FUZZ_SEEDS {
        let gp = generate(seed, &gen_cfg);
        if check(&gp.name(), &gp.program, &cfg, &mut strict) {
            compared += 1;
            if gp.program.num_threads() >= 3 {
                three_thread_compared += 1;
            }
        }
    }
    assert!(
        compared >= FUZZ_SEEDS / 2,
        "only {compared}/{FUZZ_SEEDS} seeds were decidable in budget"
    );
    // The reduction must actually bite where it matters: 3-thread
    // programs have independent cross-thread pairs essentially always,
    // so strict reduction should hold on (nearly) all of them.
    assert!(three_thread_compared > 0, "no 3-thread seeds were decidable");
    assert!(
        strict >= three_thread_compared * 9 / 10,
        "strict reduction on only {strict}/{three_thread_compared} 3-thread programs"
    );
}
