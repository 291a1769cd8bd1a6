//! The engine's search, pinned by one digest.
//!
//! Every `AxiomReport` field that depends on *how* the search ran — not
//! only what it concluded — is folded into one FNV-1a digest: the
//! verdict, completeness, the work units spent, the candidate and tuple
//! counts, the example race, the sorted result set, and each retained
//! witness's reads-from choice and linearization. Work units are charged
//! at fixed points of the enumeration, so equal digests mean both entry
//! points walked the same candidates in the same order and stopped at
//! the same place. A change that only makes each search step cheaper
//! must leave the digest unchanged; a change that alters the enumeration
//! must re-record it and say why.
//!
//! The inputs are the corpus suites, the shipped `.litmus` files, the
//! first 120 generator seeds and three lock/barrier shapes, all under a
//! 300k work budget so budget-stopped searches are pinned too. Adding a
//! shipped `.litmus` file changes the digest: re-record it on the commit
//! before the engine change under test.

use litmus::corpus;
use litmus::parse::parse_litmus_dir;
use litmus::Program;
use wo_axiom::{analyze, decide_drf0, AxiomConfig, AxiomReport};
use wo_fuzz::gen::{generate, GenConfig};

/// The digest of every report below, recorded on the clone-per-branch
/// engine that the undo-trail search replaced.
const EXPECTED: u64 = 0xd391_7826_3787_43a2;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
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
    let gen_cfg = GenConfig::default();
    for seed in 0..120 {
        let gp = generate(seed, &gen_cfg);
        out.push((gp.name(), gp.program));
    }
    out.push(("spinlock_bounded(2,2,2)".into(), corpus::spinlock_bounded(2, 2, 2)));
    out.push(("barrier_bounded(3,1)".into(), corpus::barrier_bounded(3, 1)));
    out.push(("barrier_bounded(2,3)".into(), corpus::barrier_bounded(2, 3)));
    out
}

/// A result as `(reads, final memory)` pairs, sortable.
type FlatResult = (Vec<(u64, u64)>, Vec<(u32, u64)>);

fn fold(h: &mut Fnv, r: &AxiomReport) {
    h.bytes(r.verdict.to_string().as_bytes());
    h.u64(u64::from(r.complete));
    h.u64(r.work);
    h.u64(r.candidates);
    h.u64(r.tuples);
    match r.race {
        None => h.u64(0),
        Some((a, b, loc)) => {
            h.u64(1);
            h.u64(a.0);
            h.u64(b.0);
            h.u64(u64::from(loc.0));
        }
    }
    let mut results: Vec<FlatResult> = r
        .results
        .iter()
        .map(|res| {
            (
                res.reads.iter().map(|(id, v)| (id.0, *v)).collect(),
                res.final_memory.iter().map(|(loc, v)| (loc.0, *v)).collect(),
            )
        })
        .collect();
    results.sort();
    h.u64(results.len() as u64);
    for (reads, memory) in &results {
        h.u64(reads.len() as u64);
        for &(id, v) in reads {
            h.u64(id);
            h.u64(v);
        }
        h.u64(memory.len() as u64);
        for &(loc, v) in memory {
            h.u64(u64::from(loc));
            h.u64(v);
        }
    }
    h.u64(r.witnesses.len() as u64);
    for w in &r.witnesses {
        h.u64(w.rf.len() as u64);
        for &(read, src) in &w.rf {
            h.u64(read as u64);
            h.u64(src.map_or(u64::MAX, |s| s as u64));
        }
        h.u64(w.linearization.len() as u64);
        for &i in &w.linearization {
            h.u64(i as u64);
        }
    }
}

#[test]
fn reports_match_the_recorded_digest() {
    let cfg = AxiomConfig { max_work: 300_000, collect_witnesses: 4, ..AxiomConfig::default() };
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let programs = programs();
    for (name, program) in &programs {
        h.bytes(name.as_bytes());
        fold(&mut h, &decide_drf0(program, &cfg));
        fold(&mut h, &analyze(program, &cfg));
    }
    assert_eq!(
        h.0, EXPECTED,
        "digest over {} programs is {:#018x}: the search enumerated differently",
        programs.len(),
        h.0
    );
}
