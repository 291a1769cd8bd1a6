//! # wo-serve — a fault-tolerant memory-model query daemon
//!
//! Verification-as-a-service for the Adve & Hill reproduction: a
//! std-only TCP daemon that accepts litmus programs over a
//! length-prefixed wire protocol and answers DRF0-verdict, race-set, and
//! SC-outcome queries, built robustness-first:
//!
//! * **Canonical-form cache + coalescing** ([`canon`], [`cache`]):
//!   requests are normalized under thread/location/value renaming, so a
//!   fleet of near-duplicate submissions costs one exploration; concurrent
//!   misses on one canonical form trigger exactly one exploration.
//! * **One query ladder** ([`server`]): a `wo-serve/1` request and each
//!   query item of a `wo-serve/2` batch go through the same two steps —
//!   prepare (parse, canonicalize) and resolve (cache, coalescing,
//!   admission, budgets, the engines) — so the two protocols cannot
//!   drift apart; a v1 request is a one-item resolution.
//! * **Crash-safe persistence** ([`journal`]): definitive verdicts go to
//!   an append-only checksummed journal, right after their response is
//!   written; the journal is compacted by atomic rename and replayed on
//!   startup. `kill -9` loses at most in-flight entries and can never
//!   cause a wrong verdict to be served.
//! * **Deadlines as degradation, not failure** ([`server`]): each request
//!   carries a wall-clock budget threaded into the explorer; a timeout
//!   yields a structured partial verdict (`Unknown` + which budget gave
//!   out + states expanded), not a dropped connection.
//! * **Admission control** ([`server`]): a bounded worker gate with an
//!   explicit queue; beyond it requests get `Overloaded` *rejections*
//!   (cheap, honest, retryable) rather than unbounded queueing, with a
//!   shed-load mode under sustained pressure. Cache hits bypass the gate
//!   entirely — a hot cache keeps serving even when saturated.
//! * **Retrying clients** ([`client`]): a per-request client with
//!   exponential backoff, seeded jitter and bounded hedging, and a
//!   pipelined batch client; the wo-fuzz campaign driver uses both.
//!
//! The free functions below ([`compute_answer`], [`answer_locally`]) are
//! the *same code path* the daemon runs, exposed pure so the chaos
//! harness can diff a daemon-under-faults against an in-process reference
//! run verdict-for-verdict.

#![deny(missing_docs)]

pub mod cache;
pub mod canon;
pub mod client;
pub mod journal;
pub mod protocol;
pub mod server;

use litmus::explore::{explore_races, explore_results, ExploreConfig, IncompleteReason};
use litmus::Program;

use cache::{CachedAnswer, KindGroup};
use canon::CanonicalForm;
use protocol::{CacheStatus, Engine, QueryKind, RaceCoord, Response, Verdict};

/// The wire token for an exploration budget that gave out.
#[must_use]
pub fn reason_token(reason: IncompleteReason) -> &'static str {
    match reason {
        IncompleteReason::MaxExecutions => "max_executions",
        IncompleteReason::MaxTotalSteps => "max_total_steps",
        IncompleteReason::TruncatedExecution => "truncated_execution",
        IncompleteReason::MaxVisitedStates => "max_visited_states",
        IncompleteReason::Deadline => "deadline",
    }
}

/// Parses a wire reason token back to the explorer's enum — the inverse
/// of [`reason_token`], used by clients that fold remote `Unknown`
/// verdicts back into [`litmus::explore::Drf0Verdict`].
#[must_use]
pub fn reason_from_token(token: &str) -> Option<IncompleteReason> {
    match token {
        "max_executions" => Some(IncompleteReason::MaxExecutions),
        "max_total_steps" => Some(IncompleteReason::MaxTotalSteps),
        "truncated_execution" => Some(IncompleteReason::TruncatedExecution),
        "max_visited_states" => Some(IncompleteReason::MaxVisitedStates),
        "deadline" => Some(IncompleteReason::Deadline),
        _ => None,
    }
}

/// The kind group a query belongs to (`None` for ping/stats).
#[must_use]
pub fn kind_group(kind: QueryKind) -> Option<KindGroup> {
    match kind {
        QueryKind::Drf0 | QueryKind::Races => Some(KindGroup::Explore),
        QueryKind::Sc => Some(KindGroup::Sc),
        QueryKind::Ping | QueryKind::Stats => None,
    }
}

/// Runs the analysis for `group` on a (canonical) program and packages
/// the outcome. This is the daemon's compute kernel and the chaos
/// harness's reference oracle — byte-for-byte the same answers.
///
/// Both engines decide the same questions exactly; they differ in what
/// makes them slow. The explorer's interleavings grow with the number of
/// threads, the relational engine's candidates with per-thread path
/// counts, which loops multiply. So a router, a pure function of the
/// canonical program and `group`, picks which engine looks first, and
/// the other looks only when the first is undecided:
///
/// * **Route.** The relational engine goes first only when the program
///   is *loop-free* (no branch or jump targets an index at or before its
///   own) and *wide*: at least 4 threads for `Explore`, where
///   `explore_races`'s interleavings grow with threads, and at least 4
///   thread-identity classes for `Sc`, because `explore_results` already
///   folds identical threads by symmetry. Everything else goes to the
///   explorer first. Measured on the 124 perfbench serve-cold queries at
///   a 300k-step budget: 517.5 ms axiom-first, 100.0 ms routed, 95.4 ms
///   for the best engine per query (DESIGN.md §15). Once explorer steps
///   stopped keeping an unread state digest, the same queries took
///   35.6–38.2 ms routed against 35.9–37.9 ms for the best engine (min
///   of 3 per query, two runs; the routed total was 78.3–85.8 ms
///   before). Once the `Explore` group ran the race-only walk
///   (`explore_races`, which records no results) and no walk recorded
///   outcomes, the 62 canonical programs took 13.1–20.4 ms for
///   `Explore` and 8.6–13.1 ms for `Sc`, against 22.5–25.6 ms and
///   11.0–13.7 ms before (sum of the min of 7 per query, six
///   alternating runs per side). Where neither engine decides, as on
///   `spinlock_bounded(4,2,1)` and `barrier_bounded(4,1)` for `drf0` at
///   300k steps, both engines run in either order; at the default
///   budget the explorer decides both, in 81 and 91 ms, while
///   `decide_drf0` takes 11.5 and 1.9 s and decides neither. Thread
///   count alone is not enough: `spinlock_bounded(4,1,2)` has 4 threads
///   but loops, and its SC answer is 46× slower axiom-first. The relational
///   engine's own path count would predict its cost better, but
///   enumerating paths costs more than the explorer's whole run on small
///   looping programs; both features here cost O(instructions).
/// * **Decided.** The explorer decides when it finds a race or completes;
///   `Explore` serves its race list either way. The relational engine
///   decides only with a **certified `Drf0`** (racy = false, empty race
///   list: exactly what the explorer would say; a `Racy` verdict is not
///   served because the `races` kind promises the explorer's concrete
///   race coordinates) or a **complete** SC outcome set.
/// * **Fallback.** When the first engine is undecided the other runs,
///   budgets intact. When neither decides, the explorer's answer and
///   degradation reason are served, so `Unknown` keeps the explorer's
///   vocabulary.
///
/// Verdicts, race lists, outcome counts, completeness and reasons do not
/// depend on the route, because both engines are exact whenever they
/// decide; only `steps` does, and the answer's `engine` names whose work
/// it counts.
///
/// Deterministic whenever `cfg.deadline` is `None`: identical inputs
/// yield identical answers, which is what makes daemon-vs-local verdict
/// diffing meaningful.
#[must_use]
pub fn compute_answer(group: KindGroup, program: &Program, cfg: &ExploreConfig) -> CachedAnswer {
    compute(group, program, cfg).0
}

/// [`compute_answer`], plus whether the routed first engine was
/// undecided (the daemon counts these fallbacks).
pub(crate) fn compute(
    group: KindGroup,
    program: &Program,
    cfg: &ExploreConfig,
) -> (CachedAnswer, bool) {
    match route(group, program) {
        Engine::Explorer => {
            let answer = explorer_answer(group, program, cfg);
            if answer.is_definitive() {
                return (answer, false);
            }
            (axiom_answer(group, program, cfg).unwrap_or(answer), true)
        }
        Engine::Axiom => match axiom_answer(group, program, cfg) {
            Some(answer) => (answer, false),
            None => (explorer_answer(group, program, cfg), true),
        },
    }
}

/// Which engine looks first (see [`compute_answer`] for the rule and
/// the measurements behind it).
fn route(group: KindGroup, program: &Program) -> Engine {
    const WIDE: usize = 4;
    let width = match group {
        KindGroup::Explore => program.num_threads(),
        KindGroup::Sc => {
            program.thread_identity_classes().into_iter().max().map_or(0, |c| c as usize + 1)
        }
    };
    let loop_free = program.threads().iter().all(|thread| {
        thread
            .instrs()
            .iter()
            .enumerate()
            .all(|(at, instr)| instr.branch_target().is_none_or(|target| target > at))
    });
    if width >= WIDE && loop_free {
        Engine::Axiom
    } else {
        Engine::Explorer
    }
}

/// The explorer's answer, decided or not.
fn explorer_answer(group: KindGroup, program: &Program, cfg: &ExploreConfig) -> CachedAnswer {
    let reason = |complete: bool, incomplete: Option<IncompleteReason>| {
        (!complete).then(|| {
            reason_token(incomplete.unwrap_or(IncompleteReason::MaxTotalSteps)).to_string()
        })
    };
    match group {
        KindGroup::Explore => {
            let report = explore_races(program, cfg);
            let racy = !report.races.is_empty();
            let mut races: Vec<RaceCoord> = report
                .races
                .iter()
                .map(|r| RaceCoord {
                    first_thread: u32::from(r.first.proc_part().0),
                    first_seq: r.first.seq_part(),
                    second_thread: u32::from(r.second.proc_part().0),
                    second_seq: r.second.seq_part(),
                    loc: r.loc.0,
                })
                .collect();
            races.sort_unstable();
            // A race from any prefix is conclusive; race-free is only
            // conclusive when the exploration covered everything.
            let definitive = racy || report.complete;
            CachedAnswer::Explore {
                racy,
                races,
                steps: report.steps as u64,
                definitive,
                reason: reason(definitive, report.incomplete),
                engine: Some(Engine::Explorer),
            }
        }
        KindGroup::Sc => {
            let report = explore_results(program, cfg);
            CachedAnswer::Sc {
                outcomes: report.results.len() as u64,
                complete: report.complete,
                reason: reason(report.complete, report.incomplete),
                steps: report.steps as u64,
                engine: Some(Engine::Explorer),
            }
        }
    }
}

/// The relational engine's answer when it decides (see
/// [`compute_answer`]); `None` when it does not.
fn axiom_answer(
    group: KindGroup,
    program: &Program,
    cfg: &ExploreConfig,
) -> Option<CachedAnswer> {
    use wo_axiom::{analyze, decide_drf0, AxiomConfig, AxiomVerdict};

    let acfg = AxiomConfig::from_explore(cfg);
    match group {
        KindGroup::Explore => {
            let report = decide_drf0(program, &acfg);
            (report.verdict == AxiomVerdict::Drf0).then(|| CachedAnswer::Explore {
                racy: false,
                races: Vec::new(),
                steps: report.work,
                definitive: true,
                reason: None,
                engine: Some(Engine::Axiom),
            })
        }
        KindGroup::Sc => {
            let report = analyze(program, &acfg);
            report.complete.then_some(CachedAnswer::Sc {
                outcomes: report.results.len() as u64,
                complete: true,
                reason: None,
                steps: report.work,
                engine: Some(Engine::Axiom),
            })
        }
    }
}

/// Derives the wire verdict for an `Explore` answer. Shared by
/// [`answer_to_response`] and the server's race-block reference path so
/// the two renderings can never disagree.
#[must_use]
pub fn explore_verdict(racy: bool, definitive: bool, reason: Option<&str>) -> Verdict {
    if racy {
        Verdict::Racy
    } else if definitive {
        Verdict::Drf0
    } else {
        Verdict::Unknown { reason: reason.unwrap_or("unspecified").to_string() }
    }
}

/// The packed sort key for wire race order — identical ordering to
/// `RaceCoord`'s derived `Ord`, two u64 compares instead of five fields.
fn race_sort_key(r: &RaceCoord) -> (u64, u64, u32) {
    (
        (u64::from(r.first_thread) << 32) | u64::from(r.first_seq),
        (u64::from(r.second_thread) << 32) | u64::from(r.second_seq),
        r.loc,
    )
}

/// Translates canonical-space races through a submission's inverse
/// renaming maps and sorts them into wire order — exactly the
/// transformation [`answer_to_response`] applies. The batch client calls
/// this to reconstruct a block-referenced verdict, which is what keeps
/// race-block results byte-identical to inline ones.
#[must_use]
pub fn translate_races(
    races: &[RaceCoord],
    thread_unmap: &[usize],
    loc_unmap: &[u32],
) -> Vec<RaceCoord> {
    // Out-of-range indices fall back to identity (the maps of a
    // canonical form cover every thread and location it names).
    let unthread =
        |t: u32| thread_unmap.get(t as usize).copied().unwrap_or(t as usize) as u32;
    let mut mapped: Vec<RaceCoord> = races
        .iter()
        .map(|r| RaceCoord {
            first_thread: unthread(r.first_thread),
            first_seq: r.first_seq,
            second_thread: unthread(r.second_thread),
            second_seq: r.second_seq,
            loc: loc_unmap.get(r.loc as usize).copied().unwrap_or(r.loc),
        })
        .collect();
    // Race sets reach thousands of entries, and canonical answers carry
    // them pre-sorted (`compute_answer` sorts once). Translation leaves
    // `first_seq`/`second_seq` alone and only permutes thread and
    // location ids, so canonical order is almost wire order already:
    // runs of equal canonical `first_thread` stay internally ordered by
    // `first_seq`, only (first_thread, first_seq) tie groups need their
    // suffix keys re-sorted, and whole runs just concatenate in
    // translated-thread order. That replaces an O(n log n) sort of the
    // full set with O(n) plus a few tiny sorts per item on the batch
    // client's hottest path. Unsorted input (foreign callers) falls back
    // to the plain sort.
    if races.len() > 16 && races.windows(2).all(|w| w[0] <= w[1]) {
        let mut runs: Vec<(u32, usize, usize)> = Vec::new(); // (ft', start, end)
        let mut start = 0;
        while start < races.len() {
            let ft = races[start].first_thread;
            let mut end = start + 1;
            while end < races.len() && races[end].first_thread == ft {
                end += 1;
            }
            // Re-sort each (first_thread, first_seq) tie group by its
            // translated suffix key.
            let mut g0 = start;
            while g0 < end {
                let fs = mapped[g0].first_seq;
                let mut g1 = g0 + 1;
                while g1 < end && mapped[g1].first_seq == fs {
                    g1 += 1;
                }
                if g1 - g0 > 1 {
                    mapped[g0..g1].sort_unstable_by_key(|r| {
                        (
                            (u64::from(r.second_thread) << 32)
                                | u64::from(r.second_seq),
                            r.loc,
                        )
                    });
                }
                g0 = g1;
            }
            runs.push((mapped[start].first_thread, start, end));
            start = end;
        }
        runs.sort_unstable_by_key(|&(ft, ..)| ft);
        // A degenerate unmap (not a permutation) can send two canonical
        // threads to one translated id, whose runs would then need
        // interleaving — only the plain sort gets that right.
        if runs.windows(2).any(|w| w[0].0 == w[1].0) {
            mapped.sort_unstable_by_key(race_sort_key);
            return mapped;
        }
        let concatenated: Vec<RaceCoord> = runs
            .iter()
            .flat_map(|&(_, s, e)| mapped[s..e].iter().copied())
            .collect();
        debug_assert!(
            concatenated.windows(2).all(|w| race_sort_key(&w[0]) <= race_sort_key(&w[1])),
            "run-merge translation produced unsorted output"
        );
        return concatenated;
    }
    mapped.sort_unstable_by_key(race_sort_key);
    mapped
}

/// Renders a computed answer as the wire response for `kind`, translating
/// races out of canonical space through `form`'s inverse maps.
#[must_use]
pub fn answer_to_response(
    kind: QueryKind,
    answer: &CachedAnswer,
    form: &CanonicalForm,
    cache: CacheStatus,
) -> Response {
    match (kind, answer) {
        (
            QueryKind::Drf0 | QueryKind::Races,
            CachedAnswer::Explore { racy, races, steps, definitive, reason, engine },
        ) => Response::Verdict {
            verdict: explore_verdict(*racy, *definitive, reason.as_deref()),
            races: translate_races(races, &form.thread_unmap, &form.loc_unmap),
            steps: *steps,
            cache,
            engine: *engine,
        },
        (QueryKind::Sc, CachedAnswer::Sc { outcomes, complete, reason, steps, engine }) => {
            Response::Sc {
                outcomes: *outcomes,
                complete: *complete,
                reason: reason.clone(),
                steps: *steps,
                cache,
                engine: *engine,
            }
        }
        // A cache can only hand back the answer shape its kind group
        // stores; reaching here would be a server bug, surfaced as a
        // structured error rather than a panic.
        _ => Response::Error {
            code: protocol::ErrorCode::Internal,
            message: "answer shape does not match query kind".into(),
        },
    }
}

/// Answers a query entirely in-process — parse, canonicalize, explore,
/// translate back — with no cache, journal, network, or deadline. The
/// chaos harness runs this as the reference stream that a daemon under
/// connection drops, kills, and restarts must match verdict-for-verdict.
#[must_use]
pub fn answer_locally(kind: QueryKind, program_text: &str, cfg: &ExploreConfig) -> Response {
    let Some(group) = kind_group(kind) else {
        return match kind {
            QueryKind::Ping => Response::Pong,
            _ => Response::Stats(protocol::ServerStats::default()),
        };
    };
    let program = match litmus::parse::parse_program(program_text) {
        Ok(p) => p,
        Err(e) => {
            return Response::Error {
                code: protocol::ErrorCode::Parse,
                message: e.to_string(),
            }
        }
    };
    let form = canon::canonicalize(&program);
    let mut cfg = *cfg;
    cfg.deadline = None; // determinism: budgets only
    let answer = compute_answer(group, &form.program, &cfg);
    answer_to_response(kind, &answer, &form, CacheStatus::Miss)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RACY_MP: &str = "P0:\n  W(m5) := 1\n  Set(m6) := 1\nP1:\n  r0 := Test(m6)\n  r1 := R(m5)\n";
    const DRF_HANDOFF: &str =
        "P0:\n  W(m0) := 7\n  Set(m1) := 1\nP1:\n  r0 := Test(m1)\n  if r0 != 1 goto 3\n  r1 := R(m0)\n";

    fn cfg() -> ExploreConfig {
        ExploreConfig::default()
    }

    #[test]
    fn local_answers_classify_the_basics() {
        match answer_locally(QueryKind::Drf0, RACY_MP, &cfg()) {
            Response::Verdict { verdict: Verdict::Racy, races, .. } => {
                assert!(!races.is_empty());
                // Races come back in *submitted* coordinates.
                assert!(races.iter().all(|r| r.loc == 5));
            }
            other => panic!("unexpected {other:?}"),
        }
        match answer_locally(QueryKind::Drf0, DRF_HANDOFF, &cfg()) {
            Response::Verdict { verdict: Verdict::Drf0, races, .. } => {
                assert!(races.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        match answer_locally(QueryKind::Sc, RACY_MP, &cfg()) {
            Response::Sc { outcomes, complete: true, .. } => assert!(outcomes >= 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn local_answers_are_renaming_invariant() {
        let p = litmus::parse::parse_program(RACY_MP).unwrap();
        let base = compute_answer(KindGroup::Explore, &canon::canonicalize(&p).program, &cfg());
        for seed in 0..10 {
            let renamed = canon::random_renaming(&p, seed);
            let form = canon::canonicalize(&renamed);
            assert_eq!(
                compute_answer(KindGroup::Explore, &form.program, &cfg()),
                base,
                "seed {seed}"
            );
        }
    }

    /// The reference translation: map every race, then sort.
    fn map_then_sort(
        races: &[RaceCoord],
        thread_unmap: &[usize],
        loc_unmap: &[u32],
    ) -> Vec<RaceCoord> {
        let thread = |t: u32| thread_unmap.get(t as usize).map_or(t, |&u| u as u32);
        let mut mapped: Vec<RaceCoord> = races
            .iter()
            .map(|r| RaceCoord {
                first_thread: thread(r.first_thread),
                first_seq: r.first_seq,
                second_thread: thread(r.second_thread),
                second_seq: r.second_seq,
                loc: loc_unmap.get(r.loc as usize).copied().unwrap_or(r.loc),
            })
            .collect();
        mapped.sort_unstable_by_key(race_sort_key);
        mapped
    }

    #[test]
    fn run_merge_translation_equals_map_then_sort() {
        let mut rng = simx::rng::SplitMix64::new(0x7A5E_5EED);
        let mut below = |n: u64| (rng.next_u64() % n) as u32;
        let mut merged = 0;
        for case in 0..3000u32 {
            let threads = 1 + below(6);
            let locs = 1 + below(8);
            // Both sides of the 16-race threshold; small sequence numbers
            // make (first_thread, first_seq) tie groups common.
            let len = below(48);
            let mut races: Vec<RaceCoord> = (0..len)
                .map(|_| RaceCoord {
                    first_thread: below(u64::from(threads)),
                    first_seq: below(4),
                    second_thread: below(u64::from(threads)),
                    second_seq: below(4),
                    loc: below(u64::from(locs)),
                })
                .collect();
            // Canonical answers arrive sorted; foreign callers may not.
            if case % 4 != 3 {
                races.sort_unstable();
            }
            // A seeded permutation, a non-injective map, or a short one.
            let mut thread_unmap: Vec<usize> = (0..threads as usize).collect();
            for i in (1..thread_unmap.len()).rev() {
                thread_unmap.swap(i, below(i as u64 + 1) as usize);
            }
            let mut loc_unmap: Vec<u32> = (0..locs).map(|l| l * 7 + below(7)).collect();
            match case % 3 {
                1 => {
                    for t in &mut thread_unmap {
                        *t = below(u64::from(threads)) as usize;
                    }
                    for l in &mut loc_unmap {
                        *l = below(u64::from(locs));
                    }
                }
                2 => {
                    thread_unmap.truncate(below(u64::from(threads)) as usize);
                    loc_unmap.truncate(below(u64::from(locs)) as usize);
                }
                _ => {}
            }
            merged += usize::from(races.len() > 16 && races.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(
                translate_races(&races, &thread_unmap, &loc_unmap),
                map_then_sort(&races, &thread_unmap, &loc_unmap),
                "case {case}: races {races:?} thread_unmap {thread_unmap:?} loc_unmap {loc_unmap:?}"
            );
        }
        assert!(merged > 1000, "only {merged} cases took the run-merge path");
    }

    #[test]
    fn parse_failures_are_structured() {
        match answer_locally(QueryKind::Drf0, "P0:\n  W(m0", &cfg()) {
            Response::Error { code: protocol::ErrorCode::Parse, message } => {
                assert!(message.contains("line"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tight_budget_degrades_to_unknown_with_reason() {
        let mut tight = cfg();
        tight.max_total_steps = 3;
        match answer_locally(QueryKind::Drf0, DRF_HANDOFF, &tight) {
            Response::Verdict { verdict: Verdict::Unknown { reason }, steps, .. } => {
                assert_eq!(reason, "max_total_steps");
                assert!(steps <= 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
