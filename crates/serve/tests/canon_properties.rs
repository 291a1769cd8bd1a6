//! Canonicalization properties over a generated corpus.
//!
//! The cache's soundness rests on two claims about [`wo_serve::canon`]:
//! renaming-equivalent programs collapse to one canonical form, and the
//! canonical form loses nothing (it reparses to the same program). These
//! tests check both over a 2000-seed wo-fuzz corpus rather than a few
//! hand-picked fixtures. A third checks the pruned search against the
//! exhaustive scan over every thread order that defines the form.

use litmus::{corpus, Instr, Operand, Program, Reg, Thread};
use memory_model::{Loc, Value};
use wo_fuzz::gen::{generate, GenConfig};
use wo_serve::canon::{canonicalize, random_renaming, MAX_PERM_THREADS};

const CORPUS_SEEDS: u64 = 2000;

fn corpus_cfg() -> GenConfig {
    GenConfig::default()
}

/// `p` with init cells, which the generator never writes: its first
/// location starts at a seeded value, and two cells the program never
/// touches start at values that are equal on odd seeds.
fn with_init_cells(p: &Program, seed: u64) -> Program {
    let locs = p.locations();
    let past = locs.last().map_or(0, |l| l.0 + 1);
    let untouched = 1 + seed % 4;
    let mut init = vec![
        (Loc(past + 5), untouched),
        (Loc(past + 2), if seed % 2 == 1 { untouched } else { 7 }),
    ];
    if let Some(&first) = locs.first() {
        init.insert(seed as usize % 3, (first, 2 + seed % 3));
    }
    p.clone().with_init(init)
}

#[test]
fn renamed_equivalents_canonicalize_identically() {
    let cfg = corpus_cfg();
    for seed in 0..CORPUS_SEEDS {
        let gp = generate(seed, &cfg);
        let variants = [("", gp.program.clone()), (" with init", with_init_cells(&gp.program, seed))];
        for (what, program) in variants {
            let base = canonicalize(&program);
            // Three independent renamings per program: thread permutation,
            // location relabelling, and (where sound) value bijection.
            for salt in 0..3u64 {
                let renamed = random_renaming(&program, seed.wrapping_mul(31).wrapping_add(salt));
                let form = canonicalize(&renamed);
                assert_eq!(
                    form.text, base.text,
                    "seed {seed}{what} salt {salt}: renamed program canonicalized differently"
                );
            }
        }
    }
}

#[test]
fn canonical_text_roundtrips_through_serializer_and_parser() {
    let cfg = corpus_cfg();
    for seed in 0..CORPUS_SEEDS {
        let gp = generate(seed, &cfg);
        let form = canonicalize(&gp.program);

        // The canonical text itself reparses to the canonical program.
        let reparsed = litmus::parse::parse_program(&form.text)
            .unwrap_or_else(|e| panic!("seed {seed}: canonical text unparseable: {e}"));
        assert_eq!(reparsed, form.program, "seed {seed}: text/program mismatch");

        // And the canonical program survives the litmus file format:
        // to_litmus → parse_litmus → canonicalize is the identity on forms.
        let file = litmus::serialize::to_litmus(
            &form.program,
            &gp.name(),
            litmus::serialize::Expectation::Unknown,
        );
        let parsed = litmus::parse::parse_program(&file)
            .unwrap_or_else(|e| panic!("seed {seed}: to_litmus output unparseable: {e}"));
        assert_eq!(
            canonicalize(&parsed).text,
            form.text,
            "seed {seed}: litmus-file roundtrip changed the canonical form"
        );
    }
}

#[test]
fn canonicalization_is_idempotent() {
    let cfg = corpus_cfg();
    for seed in (0..CORPUS_SEEDS).step_by(17) {
        let gp = generate(seed, &cfg);
        let once = canonicalize(&gp.program);
        let twice = canonicalize(&once.program);
        assert_eq!(once.text, twice.text, "seed {seed}: canonicalize not idempotent");
    }
}

/// The canonical relabelling of `p`'s threads in `order`, written out
/// independently of `canon.rs`: locations and values named by first
/// occurrence (values only when no `Add`/`FetchAdd` combines them, 0 and
/// 1 fixed), then init cells on named locations in canonical order
/// joining the value scan, then untouched cells by (raw value, raw
/// location) keeping their values.
fn relabel(p: &Program, order: &[usize]) -> (Program, Vec<u32>) {
    struct Names {
        locs: Vec<u32>,
        vals: Vec<Value>,
        opaque: bool,
    }
    impl Names {
        fn loc(&mut self, loc: Loc) -> Loc {
            let id = self.locs.iter().position(|&l| l == loc.0).unwrap_or_else(|| {
                self.locs.push(loc.0);
                self.locs.len() - 1
            });
            Loc(id as u32)
        }
        fn val(&mut self, v: Value) -> Value {
            if !self.opaque {
                return v;
            }
            let id = self.vals.iter().position(|&x| x == v).unwrap_or_else(|| {
                self.vals.push(v);
                self.vals.len() - 1
            });
            id as Value
        }
        fn op(&mut self, o: Operand) -> Operand {
            match o {
                Operand::Const(v) => Operand::Const(self.val(v)),
                reg => reg,
            }
        }
    }
    let opaque = !p
        .threads()
        .iter()
        .flat_map(|t| t.instrs())
        .any(|i| matches!(i, Instr::Add { .. } | Instr::FetchAdd { .. }));
    let mut names = Names { locs: Vec::new(), vals: vec![0, 1], opaque };
    let threads: Vec<Thread> = order
        .iter()
        .map(|&t| {
            p.threads()[t].instrs().iter().fold(Thread::new(), |out, &i| {
                out.push(match i {
                    Instr::Read { loc, dst } => Instr::Read { loc: names.loc(loc), dst },
                    Instr::Write { loc, src } => {
                        Instr::Write { loc: names.loc(loc), src: names.op(src) }
                    }
                    Instr::SyncRead { loc, dst } => Instr::SyncRead { loc: names.loc(loc), dst },
                    Instr::SyncWrite { loc, src } => {
                        Instr::SyncWrite { loc: names.loc(loc), src: names.op(src) }
                    }
                    Instr::TestAndSet { loc, dst } => {
                        Instr::TestAndSet { loc: names.loc(loc), dst }
                    }
                    Instr::FetchAdd { loc, dst, add } => {
                        Instr::FetchAdd { loc: names.loc(loc), dst, add: names.op(add) }
                    }
                    Instr::Move { dst, src } => Instr::Move { dst, src: names.op(src) },
                    Instr::Add { dst, a, b } => Instr::Add { dst, a: names.op(a), b: names.op(b) },
                    Instr::BranchEq { a, b, target } => {
                        Instr::BranchEq { a: names.op(a), b: names.op(b), target }
                    }
                    Instr::BranchNe { a, b, target } => {
                        Instr::BranchNe { a: names.op(a), b: names.op(b), target }
                    }
                    other @ (Instr::Jump { .. } | Instr::Fence) => other,
                })
            })
        })
        .collect();
    let (seen, mut unseen): (Vec<_>, Vec<_>) =
        p.init().iter().partition(|(loc, _)| names.locs.contains(&loc.0));
    let mut seen: Vec<(Loc, Value)> =
        seen.into_iter().map(|(loc, v)| (names.loc(loc), v)).collect();
    seen.sort_by_key(|&(loc, _)| loc.0);
    let mut init: Vec<(Loc, Value)> = seen.into_iter().map(|(loc, v)| (loc, names.val(v))).collect();
    unseen.sort_by_key(|&(loc, v)| (v, loc.0));
    init.extend(unseen.into_iter().map(|(loc, v)| (names.loc(loc), v)));
    let program = Program::new(threads).expect("relabelling keeps the program valid").with_init(init);
    (program, names.locs)
}

/// Advances `perm` to its lexicographic successor, or returns `false`
/// on the last permutation.
fn next_permutation(perm: &mut [usize]) -> bool {
    let Some(i) = perm.windows(2).rposition(|w| w[0] < w[1]) else {
        return false;
    };
    let j = perm.iter().rposition(|&v| v > perm[i]).expect("successor exists past pivot");
    perm.swap(i, j);
    perm[i + 1..].reverse();
    true
}

/// The differential oracle of the pruned search: the exhaustive scan it
/// replaced. Every thread order in lexicographic order (the submitted
/// order alone past `MAX_PERM_THREADS`) is relabelled from scratch and
/// rendered in full through `Display`; only a strictly smaller text
/// replaces the best, so ties go to the first order. Returns the text,
/// the order and the location unmap.
fn exhaustive_canonical(p: &Program) -> (String, Vec<usize>, Vec<u32>) {
    let n = p.num_threads();
    let mut order: Vec<usize> = (0..n).collect();
    let mut best: Option<(String, Vec<usize>, Vec<u32>)> = None;
    loop {
        let (program, loc_unmap) = relabel(p, &order);
        let text = program.to_string();
        if best.as_ref().is_none_or(|(least, ..)| text < *least) {
            best = Some((text, order.clone(), loc_unmap));
        }
        if n > MAX_PERM_THREADS || !next_permutation(&mut order) {
            break;
        }
    }
    best.expect("at least one order")
}

fn assert_agrees(what: &str, p: &Program) {
    let form = canonicalize(p);
    let (text, thread_unmap, loc_unmap) = exhaustive_canonical(p);
    assert_eq!(form.text, text, "{what}: text\n{p}");
    assert_eq!(form.thread_unmap, thread_unmap, "{what}: thread_unmap\n{p}");
    assert_eq!(form.loc_unmap, loc_unmap, "{what}: loc_unmap\n{p}");
}

/// `k` threads sharing a six-instruction prefix, each ending in its own
/// last instruction, listed in reverse so the least text is not the
/// submitted order: the search compares deep into every candidate.
fn near_twins(k: usize) -> Program {
    let threads = (0..k)
        .rev()
        .map(|t| {
            Thread::new()
                .write(Loc(10), 3u64)
                .sync_write(Loc(11), 1u64)
                .read(Loc(12), Reg(0))
                .sync_read(Loc(11), Reg(1))
                .branch_eq(Reg(1), 0u64, 3)
                .write(Loc(13), Reg(0))
                .write(Loc(20 + t as u32), 2 + t as u64)
        })
        .collect();
    Program::new(threads).expect("valid program")
}

/// Pruned and exhaustive searches agree on the shapes pruning and
/// tie-skipping touch, each as submitted, under renamings and with init
/// cells: identical threads, near-twins, 2–5 distinct threads, a thread
/// repeated next to distinct ones, a program past `MAX_PERM_THREADS`,
/// and every generator program with a renaming.
#[test]
fn pruned_search_agrees_with_the_exhaustive_scan() {
    let writer = Thread::new().write(Loc(4), 9u64).sync_write(Loc(5), 1u64);
    let reader = Thread::new().sync_read(Loc(5), Reg(0)).read(Loc(4), Reg(1));
    let other = Thread::new().read(Loc(5), Reg(2)).write(Loc(6), 7u64);
    let mix = |ts: &[&Thread]| {
        Program::new(ts.iter().map(|&t| t.clone()).collect()).expect("valid program")
    };
    let mut shapes: Vec<(String, Program)> = vec![
        ("mp_fan(4)".into(), corpus::mp_fan(4)),
        ("mp_fan(2)".into(), corpus::mp_fan(2)),
        ("spinlock(3,1)".into(), corpus::spinlock(3, 1)),
        ("spinlock_bounded(4,1,1)".into(), corpus::spinlock_bounded(4, 1, 1)),
        ("tts_spinlock(3,1)".into(), corpus::tts_spinlock(3, 1)),
        ("barrier(3)".into(), corpus::barrier(3)),
        ("barrier_bounded(5,1)".into(), corpus::barrier_bounded(5, 1)),
        ("racy_counter(4)".into(), corpus::racy_counter(4)),
        ("iriw_fan(2)".into(), corpus::iriw_fan(2)),
        ("pipeline(5)".into(), corpus::pipeline(5)),
        ("pipeline(7)".into(), corpus::pipeline(7)),
        ("spinlock(6,1)".into(), corpus::spinlock(6, 1)),
        ("repeat-distinct".into(), mix(&[&reader, &writer, &reader])),
        ("distinct-repeat".into(), mix(&[&writer, &reader, &reader])),
        ("repeat-two-distinct".into(), mix(&[&reader, &other, &writer, &reader])),
        ("two-pairs".into(), mix(&[&reader, &writer, &reader, &writer, &other])),
    ];
    for k in 2..=5 {
        shapes.push((format!("near_twins({k})"), near_twins(k)));
    }
    for (name, p) in corpus::drf0_suite().into_iter().chain(corpus::racy_suite()) {
        shapes.push((name.to_string(), p));
    }
    for (i, (name, p)) in shapes.iter().enumerate() {
        let with_init = with_init_cells(p, i as u64);
        for (what, program) in [("", p.clone()), (" with init", with_init)] {
            assert_agrees(&format!("{name}{what}"), &program);
            for salt in 0..4u64 {
                let renamed = random_renaming(&program, i as u64 * 4 + salt);
                assert_agrees(&format!("{name}{what} renamed {salt}"), &renamed);
            }
        }
    }
    let cfg = corpus_cfg();
    for seed in 0..CORPUS_SEEDS {
        let program = generate(seed, &cfg).program;
        let renamed = random_renaming(&program, seed);
        assert_agrees(&format!("seed {seed}"), &program);
        assert_agrees(&format!("seed {seed} renamed"), &renamed);
        assert_agrees(&format!("seed {seed} renamed with init"), &with_init_cells(&renamed, seed));
    }
}
