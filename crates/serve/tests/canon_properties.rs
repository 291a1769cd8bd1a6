//! Canonicalization properties over a generated corpus.
//!
//! The cache's soundness rests on two claims about [`wo_serve::canon`]:
//! renaming-equivalent programs collapse to one canonical form, and the
//! canonical form loses nothing (it reparses to the same program). These
//! tests check both over a 2000-seed wo-fuzz corpus rather than a few
//! hand-picked fixtures.

use litmus::Program;
use memory_model::Loc;
use wo_fuzz::gen::{generate, GenConfig};
use wo_serve::canon::{canonicalize, random_renaming};

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
