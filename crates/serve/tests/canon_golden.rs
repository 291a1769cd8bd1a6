//! The canonical key, pinned by one digest.
//!
//! `wo-serve` caches and journals every verdict under `canonicalize`'s
//! text, and translates race sets back through its `thread_unmap` and
//! `loc_unmap`; `random_renaming` generates the renamed traffic of the
//! benchmarks. All four are folded into one FNV-1a digest over the corpus
//! suites, the shipped `.litmus` files, generator seeds 0..500 with three
//! renamings each (the renamed program's text and its canonical form),
//! and programs with init cells: touched and untouched cells, equal
//! values, a repeated cell, and arithmetic that keeps values verbatim.
//!
//! A change to the canonical search that is meant to keep every cache key
//! and journal record valid must leave the digest unchanged. A change
//! that moves it changes the key of some program, so journals written
//! before it no longer answer those programs: such a change re-records
//! the constant and says why. Adding a shipped `.litmus` file also moves
//! the digest; re-record it in the commit that adds the file, with the
//! canonicalizer unchanged.

use litmus::parse::parse_litmus_dir;
use litmus::{corpus, Program, Reg, Thread};
use memory_model::Loc;
use wo_fuzz::gen::{generate, GenConfig};
use wo_serve::canon::{canonicalize, random_renaming};

/// The digest of every form and renaming below, recorded on the commit
/// before init-cell programs moved onto the streamed search.
const EXPECTED: u64 = 0x24c5_aa27_e603_19e3;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        for &b in bytes {
            self.byte(b);
        }
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// One program's canonical form: text, thread unmap, location unmap.
    fn form(&mut self, p: &Program) {
        let form = canonicalize(p);
        self.bytes(form.text.as_bytes());
        self.u64(form.thread_unmap.len() as u64);
        for &t in &form.thread_unmap {
            self.u64(t as u64);
        }
        self.u64(form.loc_unmap.len() as u64);
        for &l in &form.loc_unmap {
            self.u64(u64::from(l));
        }
    }
}

/// Hand-built programs with init cells: the cases the init-cell rule
/// distinguishes.
fn init_cell_programs() -> Vec<(String, Program)> {
    let two = |a: Thread, b: Thread| Program::new(vec![a, b]).expect("valid program");
    let mp = two(
        Thread::new().write(Loc(7), 5u64).sync_write(Loc(3), 1u64),
        Thread::new().sync_read(Loc(3), Reg(0)).read(Loc(7), Reg(1)),
    );
    let arith = two(
        Thread::new().fetch_add(Loc(4), Reg(0), 3u64).write(Loc(9), 9u64),
        Thread::new().read(Loc(9), Reg(1)).add(Reg(1), Reg(1), 2u64).write(Loc(4), Reg(1)),
    );
    let wide = Program::new(vec![
        Thread::new().write(Loc(2), 6u64),
        Thread::new().read(Loc(2), Reg(0)).write(Loc(8), 4u64),
        Thread::new().read(Loc(8), Reg(0)),
    ])
    .expect("valid program");
    vec![
        ("touched".into(), mp.clone().with_init(vec![(Loc(7), 5), (Loc(3), 1)])),
        ("touched-new-value".into(), mp.clone().with_init(vec![(Loc(7), 11)])),
        (
            "untouched".into(),
            mp.clone().with_init(vec![(Loc(40), 9), (Loc(30), 2), (Loc(7), 3)]),
        ),
        (
            "untouched-equal-values".into(),
            mp.clone().with_init(vec![(Loc(50), 4), (Loc(20), 4), (Loc(3), 4), (Loc(7), 4)]),
        ),
        ("repeated-cell".into(), mp.clone().with_init(vec![(Loc(7), 2), (Loc(7), 6)])),
        (
            "repeated-untouched-cell".into(),
            mp.with_init(vec![(Loc(60), 2), (Loc(60), 5), (Loc(61), 2)]),
        ),
        (
            "arithmetic".into(),
            arith.with_init(vec![(Loc(4), 10), (Loc(9), 7), (Loc(77), 12)]),
        ),
        ("three-threads".into(), wide.with_init(vec![(Loc(8), 6), (Loc(2), 3), (Loc(90), 6)])),
    ]
}

fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = Vec::new();
    for (name, p) in corpus::drf0_suite().into_iter().chain(corpus::racy_suite()) {
        out.push((name.to_string(), p));
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../litmus-tests");
    for (path, p) in parse_litmus_dir(&dir).unwrap_or_else(|e| panic!("{e}")) {
        let name = path.file_name().expect("file").to_string_lossy().into_owned();
        out.push((name, p));
    }
    for work in 0..3 {
        out.push((format!("fig3_handoff({work})"), corpus::fig3_handoff(work)));
        out.push((
            format!("fig3_handoff_bounded({work},2)"),
            corpus::fig3_handoff_bounded(work, 2),
        ));
    }
    out.extend(init_cell_programs());
    let gen_cfg = GenConfig::default();
    for seed in 0..500 {
        let gp = generate(seed, &gen_cfg);
        out.push((gp.name(), gp.program));
    }
    out
}

#[test]
fn canonical_forms_and_renamings_match_the_recorded_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut with_init = 0;
    for (i, (name, p)) in programs().into_iter().enumerate() {
        h.bytes(name.as_bytes());
        h.form(&p);
        with_init += usize::from(!p.init().is_empty());
        for salt in 0..3u64 {
            let renamed = random_renaming(&p, i as u64 * 3 + salt);
            h.bytes(renamed.to_string().as_bytes());
            h.form(&renamed);
        }
    }
    // The init-cell path must be exercised, not only the init-free one.
    assert!(with_init >= 14, "only {with_init} programs with init cells");
    let digest = h.0;
    assert_eq!(digest, EXPECTED, "canonical digest {digest:#018x}");
}
