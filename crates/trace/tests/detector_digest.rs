//! The exploring race detector's race trail, pinned by one constant.
//!
//! The explorer drives [`RaceDetector`] with `observe_undoable` and LIFO
//! `undo`, and what it reads back is the races each observation reports.
//! A change to how the detector keeps its state — the clock step, the
//! history layout, a history garbage collection — must leave those races
//! unchanged, at every step and after every undo. This test runs the
//! detector over fixed seeded synthetic streams in both happens-before
//! modes, interleaving `observe_undoable` with runs of `undo` and
//! re-observation, and folds every race each observation reports (`first`,
//! `second`, `loc`) and the race count after every undo into one FNV-1a
//! value. A change that alters the race set must re-record the constant
//! and say why.

use memory_model::race::RaceDetector;
use memory_model::SyncMode;
use wo_trace::synth::{SynthConfig, SynthStream};

/// The race trail of both streams below in both modes, recorded on the
/// detector that still kept a state digest beside its races.
const EXPECTED: u64 = 0x3704_1cd4_bfd6_7711;

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Observes `synth`'s events in order; after every fifth step it undoes
/// the last one to four observations (last first) and replays them, so
/// every event is observed at least once and many twice.
fn trail(h: &mut Fnv, mode: SyncMode, synth: SynthConfig) {
    let ops: Vec<_> = SynthStream::new(synth).collect();
    let mut det = RaceDetector::with_mode(usize::from(synth.procs), mode);
    let mut undos = Vec::new();
    let (mut next, mut step) = (0, 0usize);
    while next < ops.len() {
        let before = det.races().len();
        undos.push(det.observe_undoable(&ops[next]));
        next += 1;
        step += 1;
        let reported = &det.races()[before..];
        h.u64(reported.len() as u64);
        for race in reported {
            h.u64(race.first.0);
            h.u64(race.second.0);
            h.u64(u64::from(race.loc.0));
        }
        if step % 5 == 0 {
            for _ in 0..1 + (step / 5) % 4 {
                det.undo(undos.pop().expect("at least five observations made"));
                next -= 1;
                h.u64(det.races().len() as u64);
            }
        }
    }
    assert!(!det.races().is_empty(), "{mode:?}: the streams carry a racy share");
}

#[test]
fn detector_race_trail_is_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let base = SynthConfig {
        procs: 4,
        locations: 64,
        sync_locations: 8,
        events: 6_000,
        sync_percent: 15,
        racy_percent: 5,
        seed: 19,
    };
    let racier = SynthConfig { procs: 3, racy_percent: 20, seed: 23, ..base };
    for synth in [base, racier] {
        for mode in [SyncMode::Drf0, SyncMode::ReleaseWrites] {
            trail(&mut h, mode, synth);
        }
    }
    assert_eq!(h.0, EXPECTED, "race trail moved: {:#018x}", h.0);
}
