//! The exploring race detector's state digest, pinned by one constant.
//!
//! [`RaceDetector::state_digest`] is the detector's share of a
//! visited-set key: an explorer that folds it into its key prunes on it.
//! A change to *how* the digest is kept — where the per-location part
//! lives, how the histories are laid out — must therefore leave every
//! value of it unchanged. This test runs the detector over fixed seeded
//! synthetic streams in both happens-before modes, interleaving
//! `observe_undoable` with runs of `undo` and re-observation, and folds
//! every digest it passes through, and the race count after each step,
//! into one FNV-1a value. A change that alters the digest's definition
//! must re-record the constant and say why.

use memory_model::race::RaceDetector;
use memory_model::SyncMode;
use wo_trace::synth::{SynthConfig, SynthStream};

/// The digest of both trails below, recorded while each location's
/// digest was still kept inside its history.
const EXPECTED: u64 = 0x6a40_53a3_f581_9f65;

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
    h.u64(det.state_digest());
    let mut undos = Vec::new();
    let (mut next, mut step) = (0, 0usize);
    while next < ops.len() {
        undos.push(det.observe_undoable(&ops[next]));
        next += 1;
        step += 1;
        h.u64(det.state_digest());
        h.u64(det.races().len() as u64);
        if step % 5 == 0 {
            for _ in 0..1 + (step / 5) % 4 {
                det.undo(undos.pop().expect("at least five observations made"));
                next -= 1;
                h.u64(det.state_digest());
            }
        }
    }
    assert_eq!(det.state_digest(), det.state_digest_from_scratch(), "{mode:?}");
    assert!(!det.races().is_empty(), "the streams carry a racy share");
}

#[test]
fn detector_digest_trail_is_pinned() {
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
    trail(&mut h, SyncMode::Drf0, base);
    let release_writes = SynthConfig { procs: 3, racy_percent: 20, seed: 23, ..base };
    trail(&mut h, SyncMode::ReleaseWrites, release_writes);
    assert_eq!(h.0, EXPECTED, "digest trail moved: {:#018x}", h.0);
}
