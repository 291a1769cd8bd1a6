//! Seeded randomized property tests over the core data structures and
//! invariants.
//!
//! These used to run under `proptest`; they now draw their cases from the
//! in-repo [`simx::rng`] generators so the tier-1 suite builds with no
//! registry access and every failure is reproducible from the printed
//! iteration seed.

use weak_ordering::memory_model::hb::HbRelation;
use weak_ordering::memory_model::race::{races_of, RaceDetector};
use weak_ordering::memory_model::rel::{Cycle, Rel};
use weak_ordering::memory_model::sc::{check_sc, ScCheckConfig, ScVerdict};
use weak_ordering::memory_model::vc::VcHb;
use weak_ordering::memory_model::{
    drf0, drf1, Execution, Loc, Memory, Observation, OpId, OpKind, Operation, ProcId,
    SyncMode,
};
use weak_ordering::simx::rng::Xoshiro256;
use weak_ordering::simx::stats::Histogram;
use weak_ordering::simx::{EventQueue, SimTime};

/// Cases per property: comparable coverage to the old
/// `ProptestConfig::with_cases(64)`.
const CASES: u64 = 64;

/// A recipe for one operation, to be materialized against atomic memory.
#[derive(Debug, Clone, Copy)]
struct OpRecipe {
    proc: u16,
    kind: u8,
    loc: u32,
    value: u64,
}

/// Draws `0..max_len` random recipes, mirroring the old
/// `vec(recipe_strategy(procs, locs), 0..max_len)` strategy.
fn random_recipes(rng: &mut Xoshiro256, procs: u16, locs: u32, max_len: usize) -> Vec<OpRecipe> {
    let len = rng.index(max_len);
    (0..len)
        .map(|_| OpRecipe {
            proc: rng.range_u64(0, u64::from(procs)) as u16,
            kind: rng.range_u64(0, 5) as u8,
            loc: rng.range_u64(0, u64::from(locs)) as u32,
            value: rng.range_u64(1, 100),
        })
        .collect()
}

/// Runs `CASES` iterations of a property, each with a fresh seeded RNG, and
/// names the failing seed so a failure replays exactly.
fn for_each_case(name: &str, mut property: impl FnMut(&mut Xoshiro256)) {
    for case in 0..CASES {
        // Derive a distinct, stable stream per (property, case).
        let seed = 0x9E37_79B9 ^ (case << 8) ^ name.len() as u64;
        let mut rng = Xoshiro256::seed_from(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rng);
        }));
        assert!(
            result.is_ok(),
            "property {name} failed on case {case} (rng seed {seed})"
        );
    }
}

/// Materializes recipes into a valid idealized execution: reads return
/// what atomic memory held, RMWs read-then-write.
fn build_execution(recipes: &[OpRecipe]) -> Execution {
    let mut mem = Memory::new();
    let mut seqs = std::collections::HashMap::new();
    let mut ops = Vec::with_capacity(recipes.len());
    for r in recipes {
        let proc = ProcId(r.proc);
        let seq = seqs.entry(r.proc).or_insert(0u32);
        let id = OpId::for_thread_op(proc, *seq);
        *seq += 1;
        let loc = Loc(r.loc);
        let op = match r.kind {
            0 => Operation::data_read(id, proc, loc, mem.read(loc)),
            1 => {
                mem.write(loc, r.value);
                Operation::data_write(id, proc, loc, r.value)
            }
            2 => Operation::sync_read(id, proc, loc, mem.read(loc)),
            3 => {
                mem.write(loc, r.value);
                Operation::sync_write(id, proc, loc, r.value)
            }
            _ => {
                let old = mem.read(loc);
                mem.write(loc, old + 1);
                Operation::sync_rmw(id, proc, loc, old, old + 1)
            }
        };
        ops.push(op);
    }
    Execution::new(ops).expect("per-proc sequence numbers are unique")
}

/// The two happens-before implementations agree on every pair, for
/// arbitrary executions.
#[test]
fn hb_matrix_equals_vector_clocks() {
    for_each_case("hb_matrix_equals_vector_clocks", |rng| {
        let recipes = random_recipes(rng, 4, 6, 40);
        let exec = build_execution(&recipes);
        let matrix = HbRelation::from_execution(&exec);
        let vc = VcHb::from_execution(&exec);
        for a in exec.ops() {
            for b in exec.ops() {
                assert_eq!(
                    matrix.happens_before(a.id, b.id),
                    vc.happens_before(a.id, b.id)
                );
            }
        }
    });
}

/// hb is irreflexive and antisymmetric (a strict partial order; with
/// transitivity given by construction).
#[test]
fn hb_is_a_strict_partial_order() {
    for_each_case("hb_is_a_strict_partial_order", |rng| {
        let recipes = random_recipes(rng, 4, 6, 40);
        let exec = build_execution(&recipes);
        let hb = HbRelation::from_execution(&exec);
        for a in exec.ops() {
            assert!(!hb.happens_before(a.id, a.id));
            for b in exec.ops() {
                if hb.happens_before(a.id, b.id) {
                    assert!(!hb.happens_before(b.id, a.id));
                }
            }
        }
    });
}

/// hb refines execution order: an op never happens-before an earlier op.
#[test]
fn hb_respects_completion_order() {
    for_each_case("hb_respects_completion_order", |rng| {
        let recipes = random_recipes(rng, 3, 4, 30);
        let exec = build_execution(&recipes);
        let hb = HbRelation::from_execution(&exec);
        let ops = exec.ops();
        for (i, a) in ops.iter().enumerate() {
            for b in &ops[..i] {
                assert!(!hb.happens_before(a.id, b.id));
            }
        }
    });
}

/// The bulk constructor closes forward edge lists exactly as inserting
/// them one at a time does, predecessor rows included (`HbRelation` never
/// reads those, so the matrix/clock property cannot catch a broken one).
#[test]
fn bulk_built_rel_equals_edge_by_edge_rel() {
    for_each_case("bulk_built_rel_equals_edge_by_edge_rel", |rng| {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let mut edges: Vec<(usize, usize)> = if n < 2 {
                Vec::new()
            } else {
                (0..rng.index(3 * n))
                    .map(|_| {
                        let b = rng.range_u64(1, n as u64) as usize;
                        (rng.index(b), b)
                    })
                    .collect()
            };
            edges.sort_by_key(|&(_, b)| b);
            let mut one_by_one = Rel::new(n);
            for &(a, b) in &edges {
                one_by_one.add_edge(a, b).expect("forward edges never close a cycle");
            }
            let bulk = Rel::from_forward_edges(n, &edges);
            assert_eq!(bulk, one_by_one, "n = {n}, edges = {edges:?}");
        }
    });
}

/// The transitive closure of `edges` over `0..n` by a depth-first search
/// from every element: `reach[a * n + b]` iff `a` is strictly before `b`.
/// The edges must be acyclic.
fn naive_closure(n: usize, edges: &[(usize, usize)]) -> Vec<bool> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
    }
    let mut reach = vec![false; n * n];
    for s in 0..n {
        let mut stack = vec![s];
        while let Some(x) = stack.pop() {
            for &y in &adj[x] {
                if !reach[s * n + y] {
                    reach[s * n + y] = true;
                    stack.push(y);
                }
            }
        }
    }
    reach
}

/// What inserting `tails → b` must return against the closure `reach`.
fn naive_insert(reach: &[bool], n: usize, tails: &[usize], b: usize) -> Result<bool, Cycle> {
    if tails.iter().any(|&a| a == b || reach[b * n + a]) {
        Err(Cycle)
    } else {
        Ok(tails.iter().any(|&a| !reach[a * n + b]))
    }
}

/// Both row families of `r` hold exactly the pairs of `reach`.
fn assert_rel_is(r: &Rel, reach: &[bool], n: usize, step: &str) {
    for i in 0..n {
        let after: Vec<usize> = (0..n).filter(|&j| reach[i * n + j]).collect();
        let before: Vec<usize> = (0..n).filter(|&j| reach[j * n + i]).collect();
        assert_eq!(r.successors(i), after, "successors of {i} after {step}");
        assert_eq!(r.predecessors(i), before, "predecessors of {i} after {step}");
    }
}

/// Random mixes of single, logged and bulk insertions (forward, backward,
/// reflexive and cycle-closing), marks and rollbacks agree, call by call,
/// with a naive closure of the committed edges, at one-word rows (n ≤ 64)
/// and multi-word rows alike; every rollback restores its mark's relation.
#[test]
fn rel_matches_a_naive_closure_through_inserts_and_rollbacks() {
    for_each_case("rel_matches_a_naive_closure_through_inserts_and_rollbacks", |rng| {
        for n in [1usize, 2, 63, 64, 65, 130] {
            let mut r = Rel::new(n);
            let mut edges: Vec<(usize, usize)> = Vec::new();
            let mut reach = naive_closure(n, &edges);
            // Outstanding marks: the trail position, the relation there and
            // how many committed edges it held.
            let mut marks: Vec<(usize, Rel, usize)> = Vec::new();
            for _ in 0..24 {
                let op = rng.index(10);
                if op >= 8 {
                    if op == 8 || marks.is_empty() {
                        marks.push((r.mark(), r.clone(), edges.len()));
                    } else {
                        let k = rng.index(marks.len());
                        marks.truncate(k + 1);
                        let (m, ref snapshot, held) = marks[k];
                        r.rollback(m);
                        assert_eq!(r, *snapshot, "n = {n}: rollback to {m}");
                        assert_eq!(r.mark(), m);
                        edges.truncate(held);
                        reach = naive_closure(n, &edges);
                        assert_rel_is(&r, &reach, n, "rollback");
                    }
                    continue;
                }
                // A uniform head; each tail uniform (forward or backward),
                // the head itself, or an element after it (a cycle attempt).
                let b = rng.index(n);
                let after: Vec<usize> = (0..n).filter(|&j| reach[b * n + j]).collect();
                let draw = |rng: &mut Xoshiro256| match rng.index(4) {
                    0 if !after.is_empty() => after[rng.index(after.len())],
                    1 => b,
                    _ => rng.index(n),
                };
                let (step, got, mut tails) = if op < 5 {
                    let mut tails: Vec<usize> = (0..rng.index(5)).map(|_| draw(rng)).collect();
                    tails.sort_unstable();
                    tails.dedup();
                    let mut set = vec![0u64; r.row_words()];
                    for &a in &tails {
                        set[a / 64] |= 1 << (a % 64);
                    }
                    let got = r.add_edges_logged(&set, b);
                    (format!("add_edges_logged({tails:?}, {b})"), got, tails)
                } else {
                    let a = draw(rng);
                    let got = if op == 7 {
                        // Unlogged: no rollback may cross it.
                        marks.clear();
                        r.add_edge(a, b)
                    } else {
                        r.add_edge_logged(a, b)
                    };
                    (format!("add_edge({a}, {b})"), got, vec![a])
                };
                assert_eq!(got, naive_insert(&reach, n, &tails, b), "n = {n}: {step}");
                if got.is_ok() {
                    edges.extend(tails.drain(..).map(|a| (a, b)));
                    reach = naive_closure(n, &edges);
                }
                assert_rel_is(&r, &reach, n, &step);
            }
        }
    });
}

/// The streaming detector and the pairwise check agree on race freedom,
/// and every race the detector reports is one the pairwise scan over the
/// happens-before matrix finds (code that shares nothing with the clocks).
#[test]
fn race_detectors_agree() {
    for_each_case("race_detectors_agree", |rng| {
        let recipes = random_recipes(rng, 4, 4, 50);
        let exec = build_execution(&recipes);
        assert_eq!(
            RaceDetector::check_execution(&exec),
            drf0::is_data_race_free(&exec)
        );
        let pairwise = drf0::races_in(&exec);
        for race in races_of(&exec, SyncMode::Drf0) {
            assert!(pairwise.contains(&race), "{race:?} is not a DRF0 race");
        }
    });
}

/// The mode-aware streaming detector agrees with the pairwise refined
/// check (Section 6 semantics), race by race.
#[test]
fn refined_race_detectors_agree() {
    for_each_case("refined_race_detectors_agree", |rng| {
        let recipes = random_recipes(rng, 4, 4, 50);
        let exec = build_execution(&recipes);
        let mut det = RaceDetector::with_mode(4, SyncMode::ReleaseWrites);
        let mut streaming_clean = true;
        for op in exec.ops() {
            if !det.observe(op).is_empty() {
                streaming_clean = false;
            }
        }
        assert_eq!(streaming_clean, drf1::is_refined_race_free(&exec));
        let pairwise = drf1::refined_races_in(&exec);
        for race in det.races() {
            assert!(pairwise.contains(race), "{race:?} is not a refined race");
        }
    });
}

/// Matrix and vector-clock happens-before agree under ReleaseWrites
/// mode too.
#[test]
fn hb_modes_agree_between_matrix_and_vc() {
    for_each_case("hb_modes_agree_between_matrix_and_vc", |rng| {
        let recipes = random_recipes(rng, 4, 5, 40);
        let exec = build_execution(&recipes);
        let matrix = HbRelation::with_mode(&exec, SyncMode::ReleaseWrites);
        let vc = VcHb::with_mode(&exec, SyncMode::ReleaseWrites);
        for a in exec.ops() {
            for b in exec.ops() {
                assert_eq!(
                    matrix.happens_before(a.id, b.id),
                    vc.happens_before(a.id, b.id)
                );
            }
        }
    });
}

/// Refined happens-before is a subset of DRF0 happens-before, so DRF0
/// races are a subset of refined races.
#[test]
fn refined_hb_is_a_subset_of_drf0_hb() {
    for_each_case("refined_hb_is_a_subset_of_drf0_hb", |rng| {
        let recipes = random_recipes(rng, 4, 4, 40);
        let exec = build_execution(&recipes);
        let full = HbRelation::with_mode(&exec, SyncMode::Drf0);
        let refined = HbRelation::with_mode(&exec, SyncMode::ReleaseWrites);
        for a in exec.ops() {
            for b in exec.ops() {
                if refined.happens_before(a.id, b.id) {
                    assert!(full.happens_before(a.id, b.id));
                }
            }
        }
        let drf0_races: std::collections::HashSet<_> =
            drf0::races_in(&exec).into_iter().collect();
        let refined_races: std::collections::HashSet<_> =
            drf1::refined_races_in(&exec).into_iter().collect();
        assert!(drf0_races.is_subset(&refined_races));
    });
}

/// Generated executions satisfy atomic semantics by construction, and
/// the validator accepts them.
#[test]
fn generated_executions_are_atomic() {
    for_each_case("generated_executions_are_atomic", |rng| {
        let recipes = random_recipes(rng, 4, 6, 50);
        let exec = build_execution(&recipes);
        assert!(exec.validate_atomic_semantics(&Memory::new()).is_ok());
    });
}

/// Any observation projected from an idealized execution appears
/// sequentially consistent — the SC checker must find the witness.
#[test]
fn observations_of_atomic_executions_are_sc() {
    for_each_case("observations_of_atomic_executions_are_sc", |rng| {
        let recipes = random_recipes(rng, 3, 4, 16);
        let exec = build_execution(&recipes);
        let obs = Observation::from_execution(&exec);
        let verdict = check_sc(&obs, &Memory::new(), &ScCheckConfig::default());
        assert!(matches!(verdict, ScVerdict::Consistent(_)));
    });
}

/// Race-free random executions satisfy Lemma 1's read-value condition.
#[test]
fn race_free_executions_satisfy_lemma1() {
    for_each_case("race_free_executions_satisfy_lemma1", |rng| {
        use weak_ordering::memory_model::lemma1::reads_see_last_hb_write;
        let recipes = random_recipes(rng, 3, 4, 30);
        let exec = build_execution(&recipes);
        let hb = HbRelation::from_execution(&exec);
        if drf0::races_with(&exec, &hb).is_empty() {
            assert!(reads_see_last_hb_write(&exec, &hb, &Memory::new()).is_ok());
        }
    });
}

/// EventQueue delivers in (time, insertion) order for arbitrary
/// schedules.
#[test]
fn event_queue_orders_any_schedule() {
    for_each_case("event_queue_orders_any_schedule", |rng| {
        let len = rng.index(100);
        let times: Vec<u64> = (0..len).map(|_| rng.range_u64(0, 1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t > lt || (t == lt && i > li));
            }
            last = Some((t, i));
        }
    });
}

/// Histogram quantiles are monotone in q and bounded by min/max.
#[test]
fn histogram_quantiles_are_monotone() {
    for_each_case("histogram_quantiles_are_monotone", |rng| {
        let len = 1 + rng.index(199);
        let samples: Vec<u64> = (0..len).map(|_| rng.range_u64(0, 10_000)).collect();
        let h: Histogram = samples.iter().copied().collect();
        let quantiles: Vec<u64> = (0..=10)
            .map(|i| h.quantile(f64::from(i) / 10.0).unwrap())
            .collect();
        for w in quantiles.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(quantiles[0], h.min().unwrap());
        assert_eq!(quantiles[10], h.max().unwrap());
    });
}

/// Memory read-your-writes.
#[test]
fn memory_reads_last_write() {
    for_each_case("memory_reads_last_write", |rng| {
        let len = rng.index(50);
        let writes: Vec<(u32, u64)> = (0..len)
            .map(|_| (rng.range_u64(0, 8) as u32, rng.range_u64(0, 100)))
            .collect();
        let mut mem = Memory::new();
        let mut shadow = std::collections::HashMap::new();
        for &(loc, v) in &writes {
            mem.write(Loc(loc), v);
            shadow.insert(loc, v);
        }
        for loc in 0u32..8 {
            assert_eq!(mem.read(Loc(loc)), shadow.get(&loc).copied().unwrap_or(0));
        }
    });
}

/// OpKind invariants: sync-ness and read/write components are
/// consistent with conflicts.
#[test]
fn conflict_is_symmetric() {
    for_each_case("conflict_is_symmetric", |rng| {
        let mut recipes = random_recipes(rng, 3, 3, 20);
        if recipes.len() < 2 {
            recipes = random_recipes(rng, 3, 3, 20);
        }
        let exec = build_execution(&recipes);
        let ops = exec.ops();
        for a in ops {
            for b in ops {
                assert_eq!(a.conflicts_with(b), b.conflicts_with(a));
                if a.conflicts_with(b) {
                    assert_eq!(a.loc, b.loc);
                    assert!(a.kind.is_write() || b.kind.is_write());
                }
            }
        }
    });
}

/// OpId round-trips through its (proc, seq) encoding.
#[test]
fn opid_encoding_round_trips() {
    for_each_case("opid_encoding_round_trips", |rng| {
        let proc = rng.range_u64(0, 1000) as u16;
        let seq = rng.range_u64(0, 1_000_000) as u32;
        let id = OpId::for_thread_op(ProcId(proc), seq);
        assert_eq!(id.proc_part(), ProcId(proc));
        assert_eq!(id.seq_part(), seq);
    });
}

/// Sync ops on one location are always hb-ordered (so is total per
/// location) — no pair may be concurrent.
#[test]
fn sync_ops_on_same_location_are_totally_ordered() {
    for_each_case("sync_ops_on_same_location_are_totally_ordered", |rng| {
        let recipes = random_recipes(rng, 4, 3, 30);
        let exec = build_execution(&recipes);
        let hb = HbRelation::from_execution(&exec);
        let ops = exec.ops();
        for a in ops {
            for b in ops {
                if a.id != b.id && a.so_related(b) {
                    assert!(hb.ordered(a.id, b.id), "{} vs {}", a.id, b.id);
                }
            }
        }
    });
}

/// A race implies the execution has two ops with kinds that make a
/// conflict; removing all races (by checking only read-only recipes)
/// yields race freedom.
#[test]
fn all_reads_never_race() {
    for_each_case("all_reads_never_race", |rng| {
        let mut recipes = random_recipes(rng, 4, 4, 30);
        for r in &mut recipes {
            r.kind = 0; // force every op to be a data read
        }
        let exec = build_execution(&recipes);
        assert!(drf0::is_data_race_free(&exec));
        assert!(exec.ops().iter().all(|o| o.kind == OpKind::DataRead));
    });
}
