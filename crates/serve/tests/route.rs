//! Route exactness: the order in which `compute_answer` asks the two
//! engines never changes an answer, only which engine's work `steps`
//! counts.
//!
//! The expected answer is built from the two engines run alone: the
//! explorer's answer when it is definitive; else the relational engine's
//! certified `Drf0` or complete SC outcome set; else the explorer's
//! answer. `compute_answer` must equal it in every field, with `steps`
//! and `engine` those of an engine that decided (or of the explorer when
//! neither did). Inputs: the corpus suites, the shipped `.litmus` files,
//! generator seeds 0..300 and shapes on both sides of the route, in both
//! kind groups, at three budgets: perfbench's 300k steps (both engines
//! usually decide), one explorer execution (only the relational engine
//! can decide), and 3 steps (neither decides).

use litmus::corpus::{self, iriw_fan, mp_fan};
use litmus::explore::{explore_dpor, explore_results, ExploreConfig};
use litmus::parse::parse_litmus_dir;
use litmus::Program;
use wo_axiom::{analyze, decide_drf0, AxiomConfig, AxiomVerdict};
use wo_fuzz::{generate, GenConfig};
use wo_serve::cache::{CachedAnswer, KindGroup};
use wo_serve::canon::{canonicalize, random_renaming};
use wo_serve::compute_answer;
use wo_serve::protocol::{Engine, RaceCoord};

fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = corpus::drf0_suite()
        .into_iter()
        .chain(corpus::racy_suite())
        .map(|(name, p)| (name.to_string(), p))
        .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../litmus-tests");
    for (path, p) in parse_litmus_dir(&dir).unwrap_or_else(|e| panic!("{e}")) {
        out.push((path.display().to_string(), p));
    }
    let gen_cfg = GenConfig::default();
    for seed in 0..300 {
        let gp = generate(seed, &gen_cfg);
        out.push((gp.name(), gp.program));
    }
    // Wide and loop-free (relational engine first), then looping or
    // narrow (explorer first): a 4-thread spinlock loops.
    out.push(("mp_fan(5)".into(), mp_fan(5)));
    out.push(("iriw_fan(3)".into(), iriw_fan(3)));
    out.push(("spinlock_bounded(4,1,1)".into(), corpus::spinlock_bounded(4, 1, 1)));
    out.push(("barrier_bounded(2,2)".into(), corpus::barrier_bounded(2, 2)));
    out
}

/// The explorer alone, packaged independently of `compute_answer`.
fn explorer_alone(group: KindGroup, p: &Program, cfg: &ExploreConfig) -> CachedAnswer {
    let reason = |complete: bool, incomplete: Option<_>| {
        (!complete).then(|| {
            wo_serve::reason_token(incomplete.unwrap_or(
                litmus::explore::IncompleteReason::MaxTotalSteps,
            ))
            .to_string()
        })
    };
    match group {
        KindGroup::Explore => {
            let r = explore_dpor(p, cfg);
            let mut races: Vec<RaceCoord> = r
                .races
                .iter()
                .map(|race| RaceCoord {
                    first_thread: u32::from(race.first.proc_part().0),
                    first_seq: race.first.seq_part(),
                    second_thread: u32::from(race.second.proc_part().0),
                    second_seq: race.second.seq_part(),
                    loc: race.loc.0,
                })
                .collect();
            races.sort_unstable();
            let racy = !races.is_empty();
            let definitive = racy || r.complete;
            CachedAnswer::Explore {
                racy,
                races,
                steps: r.steps as u64,
                definitive,
                reason: reason(definitive, r.incomplete),
                engine: Some(Engine::Explorer),
            }
        }
        KindGroup::Sc => {
            let r = explore_results(p, cfg);
            CachedAnswer::Sc {
                outcomes: r.results.len() as u64,
                complete: r.complete,
                reason: reason(r.complete, r.incomplete),
                steps: r.steps as u64,
                engine: Some(Engine::Explorer),
            }
        }
    }
}

/// The relational engine alone, when it decides.
fn axiom_alone(group: KindGroup, p: &Program, cfg: &ExploreConfig) -> Option<CachedAnswer> {
    let acfg = AxiomConfig::from_explore(cfg);
    match group {
        KindGroup::Explore => {
            let r = decide_drf0(p, &acfg);
            (r.verdict == AxiomVerdict::Drf0).then(|| CachedAnswer::Explore {
                racy: false,
                races: Vec::new(),
                steps: r.work,
                definitive: true,
                reason: None,
                engine: Some(Engine::Axiom),
            })
        }
        KindGroup::Sc => {
            let r = analyze(p, &acfg);
            r.complete.then_some(CachedAnswer::Sc {
                outcomes: r.results.len() as u64,
                complete: true,
                reason: None,
                steps: r.work,
                engine: Some(Engine::Axiom),
            })
        }
    }
}

/// The answer with `steps` and `engine` blanked: what the route must not
/// change.
fn verdict_fields(a: &CachedAnswer) -> CachedAnswer {
    let mut a = a.clone();
    match &mut a {
        CachedAnswer::Explore { steps, engine, .. } | CachedAnswer::Sc { steps, engine, .. } => {
            *steps = 0;
            *engine = None;
        }
    }
    a
}

fn steps_of(a: &CachedAnswer) -> u64 {
    match a {
        CachedAnswer::Explore { steps, .. } | CachedAnswer::Sc { steps, .. } => *steps,
    }
}

/// How each answer came about, tallied so the test proves every path of
/// the router ran.
#[derive(Debug, Default)]
struct Paths {
    /// Both engines decide; the relational engine answered (it looked
    /// first).
    axiom_first: usize,
    /// Both decide; the explorer answered.
    explorer_first: usize,
    /// Only the relational engine decides.
    axiom_only: usize,
    /// Only the explorer decides.
    explorer_only: usize,
    /// Neither decides; the explorer's answer is served.
    neither: usize,
}

#[test]
fn routed_answers_equal_the_engines_run_alone() {
    let programs = programs();
    let default = ExploreConfig { max_total_steps: 300_000, ..ExploreConfig::default() };
    let budgets = [
        ("300k steps", default),
        // The explorer stops after one execution; the relational engine
        // has no execution cap, so it still decides.
        ("1 execution", ExploreConfig { max_executions: 1, ..default }),
        // Neither engine decides.
        ("3 steps", ExploreConfig { max_total_steps: 3, ..default }),
    ];
    let mut paths = Paths::default();
    for (name, program) in &programs {
        let canonical = canonicalize(program).program;
        for group in [KindGroup::Explore, KindGroup::Sc] {
            for (label, cfg) in &budgets {
                let ctx = format!("{name} {group:?} {label}");
                let got = compute_answer(group, &canonical, cfg);
                let explorer = explorer_alone(group, &canonical, cfg);
                let axiom = axiom_alone(group, &canonical, cfg);
                let expected = if explorer.is_definitive() {
                    &explorer
                } else {
                    axiom.as_ref().unwrap_or(&explorer)
                };
                assert_eq!(verdict_fields(&got), verdict_fields(expected), "{ctx}");
                let decided_by = match got.engine() {
                    Some(Engine::Axiom) => axiom.as_ref().expect("axiom answered undecided"),
                    Some(Engine::Explorer) => {
                        assert!(
                            explorer.is_definitive() || axiom.is_none(),
                            "{ctx}: served an undecided explorer answer over a decided axiom one"
                        );
                        &explorer
                    }
                    None => panic!("{ctx}: a computed answer names no engine"),
                };
                assert_eq!(steps_of(&got), steps_of(decided_by), "{ctx}");
                let slot = match (explorer.is_definitive(), axiom.is_some(), got.engine()) {
                    (true, true, Some(Engine::Axiom)) => &mut paths.axiom_first,
                    (true, true, _) => &mut paths.explorer_first,
                    (false, true, _) => &mut paths.axiom_only,
                    (true, false, _) => &mut paths.explorer_only,
                    (false, false, _) => &mut paths.neither,
                };
                *slot += 1;
            }
        }
    }
    assert!(
        paths.axiom_first > 0
            && paths.explorer_first > 0
            && paths.axiom_only > 0
            && paths.explorer_only > 0
            && paths.neither > 0,
        "a router path never ran: {paths:?}"
    );
}

/// The route reads only the canonical program, so renamings of one
/// program, canonicalized, get the same answer in both groups: for a
/// program the relational engine looks at first (4 threads, 4 identity
/// classes, no loops) and one the explorer looks at first (it loops).
#[test]
fn routes_are_renaming_invariant() {
    let cfg = ExploreConfig::default();
    for program in [iriw_fan(2), corpus::barrier_bounded(2, 2)] {
        for group in [KindGroup::Explore, KindGroup::Sc] {
            let base = compute_answer(group, &canonicalize(&program).program, &cfg);
            for seed in 0..10 {
                let form = canonicalize(&random_renaming(&program, seed));
                assert_eq!(
                    compute_answer(group, &form.program, &cfg),
                    base,
                    "{program} {group:?} seed {seed}"
                );
            }
        }
    }
    let wide = compute_answer(KindGroup::Sc, &canonicalize(&iriw_fan(2)).program, &cfg);
    assert_eq!(wide.engine(), Some(Engine::Axiom));
    let looping =
        compute_answer(KindGroup::Sc, &canonicalize(&corpus::barrier_bounded(2, 2)).program, &cfg);
    assert_eq!(looping.engine(), Some(Engine::Explorer));
}

