//! The axiomatic/operational differential gate.
//!
//! `wo-axiom` decides DRF0 and SC outcome sets from relational candidate
//! executions; `litmus::explore` decides the same questions by
//! enumerating interleavings. The two share no code on the deciding path,
//! so exact agreement is genuine cross-validation. This gate holds them
//! to it over every shipped `.litmus` file (hand-written corpus plus the
//! checked-in generator exports) and 500 freshly generated fuzz seeds:
//!
//! * DRF0 verdicts must be **equal** whenever both sides are definitive;
//! * SC outcome sets must be **equal** (not merely overlapping) whenever
//!   both enumerations complete.
//!
//! Budget-limited runs are excluded pairwise, and minimum conclusive
//! counts keep budget rot from hollowing the gate out. A divergence is
//! auto-shrunk to a minimal program and written out as a `.litmus` repro
//! under `litmus-tests/axiom-repros/` before the test fails, so the
//! regression arrives as a checked-in test case, not a seed number.

use std::collections::HashSet;

use litmus::explore::{drf0_verdict, sc_outcomes, Drf0Verdict, ExploreConfig};
use litmus::parse::parse_litmus_dir;
use litmus::serialize::{to_litmus, Expectation};
use litmus::Program;
use memory_model::ExecutionResult;
use wo_axiom::{analyze, AxiomConfig, AxiomVerdict};
use wo_fuzz::gen::{generate, GenConfig};
use wo_fuzz::shrink::shrink;

const FUZZ_SEEDS: u64 = 500;

fn explore_budget() -> ExploreConfig {
    ExploreConfig {
        max_ops_per_execution: 48,
        max_total_steps: 400_000,
        ..ExploreConfig::default()
    }
}

fn axiom_budget() -> AxiomConfig {
    AxiomConfig {
        // The work unit differs from explorer steps (paths, relation
        // commits, candidates), so the budget is set independently; what
        // matters for the gate is only that budget exhaustion reads as
        // Unknown, never as a wrong verdict.
        max_work: 10_000_000,
        ..AxiomConfig::from_explore(&explore_budget())
    }
}

enum Divergence {
    Verdict(AxiomVerdict, Drf0Verdict),
    ScSet(usize, usize),
}

/// One program through both deciders. `Ok(true)` when the verdicts were
/// comparable (both definitive); `Err` carries a divergence to shrink.
fn compare(program: &Program) -> Result<bool, Divergence> {
    let ax = analyze(program, &axiom_budget());
    let op = drf0_verdict(program, &explore_budget());
    match (ax.verdict, &op) {
        (AxiomVerdict::Unknown(_), _) | (_, Drf0Verdict::BudgetExceeded(_)) => {
            return Ok(false)
        }
        (AxiomVerdict::Drf0, Drf0Verdict::Drf0)
        | (AxiomVerdict::Racy, Drf0Verdict::Racy) => {}
        (a, o) => return Err(Divergence::Verdict(a, *o)),
    }
    if ax.complete {
        let sc = sc_outcomes(program, &explore_budget());
        if sc.complete && sc.results != ax.results {
            return Err(Divergence::ScSet(ax.results.len(), sc.results.len()));
        }
    }
    Ok(true)
}

/// Whether `program` still exhibits *some* divergence — the shrink
/// predicate (class-insensitive on purpose: any disagreement between the
/// deciders is worth keeping while minimizing).
fn diverges(program: &Program) -> bool {
    compare(program).is_err()
}

/// Shrinks a diverging program, writes the minimized `.litmus` repro to
/// `litmus-tests/axiom-repros/`, and panics with the repro path — the
/// divergence arrives as a checked-in test case.
fn report_divergence(name: &str, program: &Program, d: &Divergence) -> ! {
    let minimized = shrink(program, diverges);
    let detail = match d {
        Divergence::Verdict(a, o) => {
            format!("verdict divergence: axiomatic {a}, operational {o}")
        }
        Divergence::ScSet(a, o) => format!(
            "SC set divergence: axiomatic {a} results, operational {o}"
        ),
    };
    // Label the repro with the operational verdict of the *minimized*
    // program when definitive, so the checked-in file is a valid corpus
    // citizen either way.
    let expectation = match drf0_verdict(&minimized.program, &explore_budget()) {
        Drf0Verdict::Racy => Expectation::Racy,
        _ => Expectation::Drf0,
    };
    let text = to_litmus(
        &minimized.program,
        &format!("axiom divergence repro ({name}): {detail}"),
        expectation,
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../litmus-tests/axiom-repros");
    std::fs::create_dir_all(&dir).expect("create axiom-repros dir");
    let file = dir.join(format!(
        "{}.litmus",
        name.replace(|c: char| !c.is_ascii_alphanumeric(), "_")
    ));
    std::fs::write(&file, &text).expect("write repro");
    panic!(
        "{name}: {detail}\nminimized repro written to {} ({} static ops):\n{text}",
        file.display(),
        minimized.program.static_memory_ops(),
    );
}

#[test]
fn axiom_agrees_on_all_shipped_litmus_files() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../litmus-tests");
    let mut compared = 0u64;
    let mut seen = 0u64;
    for (path, program) in parse_litmus_dir(&dir).unwrap_or_else(|e| panic!("{e}")) {
        seen += 1;
        match compare(&program) {
            Ok(true) => compared += 1,
            Ok(false) => {}
            Err(d) => report_divergence(&path.display().to_string(), &program, &d),
        }
    }
    assert!(
        compared >= 20 && compared * 10 >= seen * 7,
        "only {compared}/{seen} litmus files were decidable by both engines"
    );
}

#[test]
fn axiom_agrees_on_500_fuzz_seeds() {
    let gen_cfg = GenConfig::default();
    let mut compared = 0u64;
    for seed in 0..FUZZ_SEEDS {
        let gp = generate(seed, &gen_cfg);
        match compare(&gp.program) {
            Ok(true) => compared += 1,
            Ok(false) => {}
            Err(d) => report_divergence(&gp.name(), &gp.program, &d),
        }
    }
    assert!(
        compared >= FUZZ_SEEDS / 2,
        "only {compared}/{FUZZ_SEEDS} seeds were decidable by both engines"
    );
}

/// The Lemma 1 fast path puts its money where its mouth is: on race-free
/// programs whose sync skeleton orders everything, the engine must emit
/// results without enumerating data relations — and those results must
/// still be exactly the explorer's. This pins the fast path as *load
/// bearing* (it actually fires on the DRF0 corpus) rather than decorative.
#[test]
fn fast_path_results_are_exact_on_drf0_corpus() {
    let mut fast_path_hits = 0u64;
    for (name, program) in litmus::corpus::drf0_suite() {
        let ax = analyze(&program, &axiom_budget());
        if !ax.complete {
            continue;
        }
        let sc = sc_outcomes(&program, &explore_budget());
        if !sc.complete {
            continue;
        }
        let ax_set: HashSet<ExecutionResult> = ax.results.clone();
        assert_eq!(ax_set, sc.results, "{name}: fast-path results diverge");
        if ax.verdict == AxiomVerdict::Drf0 {
            fast_path_hits += 1;
        }
    }
    assert!(
        fast_path_hits >= 5,
        "the certified-DRF0 path fired on only {fast_path_hits} corpus programs"
    );
}
