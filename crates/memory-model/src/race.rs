//! A streaming vector-clock data-race detector.
//!
//! [`RaceDetector`] consumes the operations of an idealized execution in
//! completion order and reports DRF0 violations online, in the style of
//! DJIT⁺ — the dynamic-detection direction the paper points to via Netzer &
//! Miller \[NeM89\]. It finds a race iff one exists (same verdict as the
//! exhaustive pairwise check in [`crate::drf0`], cross-validated by tests
//! and property tests), while needing only O(procs × locations) state.

use std::collections::HashMap;

use crate::drf0::Race;
use crate::hb::SyncMode;
use crate::vc::VectorClock;
use crate::{Execution, Loc, OpId, Operation};

/// One recorded access: the vector-clock component of the accessing
/// processor at the access (its *epoch*) and the operation's id.
///
/// Storing the scalar component instead of the whole clock is the
/// epoch-style compression that keeps per-location state O(procs) words:
/// whether a later access `b` is ordered after a recorded access `a` by
/// `P_q` is decided entirely by `a`'s component against `b`'s clock entry
/// for `q`.
type Access = (u32, OpId);

/// Epoch-compressed last-access history of **one** memory location,
/// shared by the exploring [`RaceDetector`] and the streaming `wo-trace`
/// checker (one logic, two drivers — no fork).
///
/// Accesses are split by read/write and data/sync so a data access is
/// never shadowed by a later synchronization access: only sync-sync pairs
/// on a location are exempt from racing, and collapsing the classes would
/// hide data accesses behind that exemption. Per class there is one slot
/// per processor, `4 × procs` slots in all, laid out epoch-first
/// (FastTrack's layout, Flanagan & Freund, PLDI 2009):
///
/// * `epochs` holds each slot's epoch, the accessing processor's clock
///   component *plus one*, so a recorded epoch is at least 1 and **epoch 0
///   means "no access"**. The race check scans only this array, and an
///   empty slot can never be later than any clock entry, so it needs no
///   test of its own.
/// * `ids` holds each slot's operation id. It is read only to record an
///   access or to report a race, and is meaningless where the epoch is 0.
///
/// A location costs a fixed [`LocationState::approx_bytes`] regardless of
/// how many events touch it. The exploring detector's per-location digest
/// is kept by [`RaceDetector`], its only reader, not here.
///
/// # Examples
///
/// ```
/// use memory_model::race::LocationState;
/// use memory_model::{Loc, Operation, OpId, ProcId};
///
/// let mut loc = LocationState::new(2);
/// let mut races = Vec::new();
/// let w = Operation::data_write(OpId(0), ProcId(0), Loc(0), 1);
/// let r = Operation::data_read(OpId(1), ProcId(1), Loc(0), 1);
/// loc.observe(&w, 0, &[0, 0], &mut races); // P0's clock ⟨0,0⟩
/// loc.observe(&r, 1, &[0, 0], &mut races); // P1 never saw P0's write
/// assert_eq!(races.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct LocationState {
    /// `epochs[class * procs + q]` = the epoch of `P_q`'s last access of
    /// this location in `class` (see the `*_CLASS` constants), 0 for none.
    epochs: Box<[u32]>,
    /// `ids[slot]` = the operation recorded at `epochs[slot]`.
    ids: Box<[OpId]>,
}

const READ_DATA_CLASS: usize = 0;
const READ_SYNC_CLASS: usize = 1;
const WRITE_DATA_CLASS: usize = 2;
const WRITE_SYNC_CLASS: usize = 3;
const CLASSES: usize = 4;

/// The digest contribution of one occupied slot.
fn slot_contrib(slot: usize, access: Access) -> u64 {
    let (at, id) = access;
    mix(mix(slot as u64 ^ 0xA076_1D64_78BD_642F) ^ (u64::from(at) << 32) ^ id.0)
}

use crate::vc::mix;

/// A record reversing one [`LocationState::observe`] call: the (at most
/// two) slots it overwrote, each with its previous epoch and id.
#[derive(Debug)]
pub struct LocationUndo {
    read: Option<(usize, u32, OpId)>,
    write: Option<(usize, u32, OpId)>,
}

impl LocationUndo {
    /// The overwritten slots, each with the access it held before
    /// (`None` for an empty slot).
    fn displaced(&self) -> impl Iterator<Item = (usize, Option<Access>)> + '_ {
        self.read
            .iter()
            .chain(&self.write)
            .map(|&(slot, at, id)| (slot, (at != 0).then_some((at, id))))
    }
}

impl LocationState {
    /// Creates an empty history for processors `P0 .. P(procs-1)`.
    #[must_use]
    pub fn new(procs: usize) -> Self {
        LocationState {
            epochs: vec![0; CLASSES * procs].into_boxed_slice(),
            ids: vec![OpId::default(); CLASSES * procs].into_boxed_slice(),
        }
    }

    fn procs(&self) -> usize {
        self.epochs.len() / CLASSES
    }

    /// The access recorded in `slot`, if any.
    fn slot(&self, slot: usize) -> Option<Access> {
        let at = self.epochs[slot];
        (at != 0).then(|| (at, self.ids[slot]))
    }

    /// The XOR of one contribution per occupied slot (0 for an empty
    /// history), computed from the slots alone — the independent oracle
    /// for the digest [`RaceDetector`] keeps per location.
    #[must_use]
    pub fn digest_from_scratch(&self) -> u64 {
        (0..self.epochs.len())
            .filter_map(|i| self.slot(i).map(|a| slot_contrib(i, a)))
            .fold(0, |acc, c| acc ^ c)
    }

    /// The fixed memory footprint of one location's history, in bytes —
    /// what a bounded-memory consumer charges per tracked location.
    #[must_use]
    pub fn approx_bytes(procs: usize) -> usize {
        std::mem::size_of::<Self>()
            + CLASSES * procs * (std::mem::size_of::<u32>() + std::mem::size_of::<OpId>())
    }

    /// Race-checks and records one operation on this location.
    ///
    /// `p` is the operation's processor index and `clock` the processor's
    /// vector clock *after* acquiring any same-location synchronization
    /// knowledge and *before* its own tick (the recorded epoch is
    /// therefore `clock[p] + 1`). Races completed by `op` are appended to
    /// `out`, sorted by `(first, second)` and deduplicated — a
    /// read-modify-write recorded in both a read and a write slot would
    /// otherwise be reported twice.
    ///
    /// # Panics
    ///
    /// Panics if `p` or the width of `clock` is out of range for the
    /// processor count given to [`LocationState::new`].
    pub fn observe(
        &mut self,
        op: &Operation,
        p: usize,
        clock: &[u32],
        out: &mut Vec<Race>,
    ) -> LocationUndo {
        let procs = self.procs();
        assert!(p < procs, "processor index {p} out of range");
        assert!(clock.len() >= procs, "clock narrower than the processor count");
        let clock = &clock[..procs];
        let start = out.len();
        let cur_sync = op.kind.is_sync();

        let check = |class: usize, out: &mut Vec<Race>| {
            let base = class * procs;
            let epochs = &self.epochs[base..base + procs];
            // Races are rare: one pass over the epochs clears the class.
            if epochs.iter().zip(clock).all(|(&at, &c)| at <= c) {
                return;
            }
            for (q, (&at, &c)) in epochs.iter().zip(clock).enumerate() {
                if q != p && at > c {
                    out.push(Race { first: self.ids[base + q], second: op.id, loc: op.loc });
                }
            }
        };
        // Synchronization operations on one location are so-ordered;
        // sync-sync pairs are never races. Data accesses are always fair
        // game. A write conflicts with previous reads and writes; a pure
        // read only with previous writes.
        if op.kind.is_write() {
            check(READ_DATA_CLASS, out);
            check(WRITE_DATA_CLASS, out);
            if !cur_sync {
                check(READ_SYNC_CLASS, out);
                check(WRITE_SYNC_CLASS, out);
            }
        } else {
            check(WRITE_DATA_CLASS, out);
            if !cur_sync {
                check(WRITE_SYNC_CLASS, out);
            }
        }
        if out.len() > start + 1 {
            out[start..].sort_unstable_by_key(|r| (r.first, r.second));
            let mut keep = start + 1;
            for i in start + 1..out.len() {
                if out[i] != out[keep - 1] {
                    out[keep] = out[i];
                    keep += 1;
                }
            }
            out.truncate(keep);
        }

        // Record this access with the epoch after the caller's tick.
        let stamp = clock[p] + 1;
        let mut undo = LocationUndo { read: None, write: None };
        if op.kind.is_read() {
            let class = if cur_sync { READ_SYNC_CLASS } else { READ_DATA_CLASS };
            undo.read = Some(self.record(class * procs + p, stamp, op.id));
        }
        if op.kind.is_write() {
            let class = if cur_sync { WRITE_SYNC_CLASS } else { WRITE_DATA_CLASS };
            undo.write = Some(self.record(class * procs + p, stamp, op.id));
        }
        undo
    }

    /// Overwrites one slot, returning it as it was.
    fn record(&mut self, slot: usize, at: u32, id: OpId) -> (usize, u32, OpId) {
        let prev = (slot, self.epochs[slot], self.ids[slot]);
        self.epochs[slot] = at;
        self.ids[slot] = id;
        prev
    }

    /// Reverses the [`LocationState::observe`] call that produced `undo`
    /// (LIFO order, like every undo log in this workspace).
    pub fn undo(&mut self, undo: LocationUndo) {
        for (slot, at, id) in undo.read.into_iter().chain(undo.write) {
            self.epochs[slot] = at;
            self.ids[slot] = id;
        }
    }
}

/// An O(procs)-sized record reversing one
/// [`RaceDetector::observe_undoable`] call.
#[derive(Debug)]
pub struct ObserveUndo {
    p: usize,
    loc: Loc,
    prev_clock: VectorClock,
    /// Displaced history slots of the accessed location.
    loc_undo: LocationUndo,
    /// The accessed location's history digest before the observation.
    prev_hist_digest: u64,
    /// `Some(displaced)` when the operation released (published a clock).
    prev_sync_clock: Option<Option<VectorClock>>,
    races_len: usize,
    prev_digest: u64,
}

/// Per-component digest seeds — distinct lanes so clocks, published sync
/// clocks, and location histories cannot cancel across kinds.
const PROC_LANE: u64 = 0x8EBC_6AF0_9C88_C6E3;
const SYNC_LANE: u64 = 0x5895_17C8_B541_D2E5;
const HIST_LANE: u64 = 0x6D31_BEB5_CC9A_A915;

fn proc_contrib(p: usize, clock: &VectorClock) -> u64 {
    mix(p as u64 ^ clock.fingerprint(PROC_LANE))
}

fn sync_contrib(loc: Loc, clock: &VectorClock) -> u64 {
    mix(u64::from(loc.0) ^ clock.fingerprint(SYNC_LANE))
}

/// Empty histories contribute 0, so a `history` entry created and then
/// rolled back to empty is indistinguishable from one never created —
/// undo leaves the empty shell in the map.
///
/// `digest` is the location's history digest: the XOR of
/// [`slot_contrib`] over its occupied slots, kept next to the history in
/// [`RaceDetector`] and equal to [`LocationState::digest_from_scratch`].
fn hist_contrib(loc: Loc, digest: u64) -> u64 {
    if digest == 0 {
        0
    } else {
        mix(mix(HIST_LANE ^ u64::from(loc.0)) ^ digest)
    }
}

/// An online detector of DRF0 violations.
///
/// Feed operations in completion order via [`RaceDetector::observe`]; each
/// call returns the races the new operation completes (empty when none).
///
/// # Examples
///
/// ```
/// use memory_model::race::RaceDetector;
/// use memory_model::{Loc, Operation, OpId, ProcId};
///
/// let mut det = RaceDetector::new(2);
/// let w = Operation::data_write(OpId(0), ProcId(0), Loc(0), 1);
/// let r = Operation::data_read(OpId(1), ProcId(1), Loc(0), 1);
/// assert!(det.observe(&w).is_empty());
/// let races = det.observe(&r);
/// assert_eq!(races.len(), 1); // unsynchronized conflicting accesses
/// ```
#[derive(Debug, Clone)]
pub struct RaceDetector {
    proc_clock: Vec<VectorClock>,
    sync_clock: HashMap<Loc, VectorClock>,
    /// Each touched location's history, next to its history digest
    /// (see [`hist_contrib`]). The detector is the digest's only reader,
    /// so it keeps it, from the slots each observation displaces.
    history: HashMap<Loc, (LocationState, u64)>,
    races: Vec<Race>,
    mode: SyncMode,
    /// Incrementally maintained XOR-digest of the detector state:
    /// `⊕ proc_contrib(p, clock[p]) ⊕ sync_contrib(loc, published)
    /// ⊕ hist_contrib(loc, history digest)` over all processors, published
    /// sync clocks, and non-empty location histories (each history digest
    /// is the one kept next to it in `history`). Kept in lock-step by
    /// [`RaceDetector::observe_undoable`] / [`RaceDetector::undo`] so
    /// explorers can fold detector state into a visited-set key in O(1)
    /// extra work per transition.
    digest: u64,
}

impl RaceDetector {
    /// Creates a detector for processors `P0 .. P(num_procs-1)`, using
    /// DRF0's happens-before.
    #[must_use]
    pub fn new(num_procs: usize) -> Self {
        Self::with_mode(num_procs, SyncMode::Drf0)
    }

    /// Creates a detector using the given [`SyncMode`]. Under
    /// [`SyncMode::ReleaseWrites`] read-only synchronization operations do
    /// not release (Section 6's refinement), and synchronization
    /// operations on one location never race with each other (they remain
    /// so-ordered).
    #[must_use]
    pub fn with_mode(num_procs: usize, mode: SyncMode) -> Self {
        let proc_clock = vec![VectorClock::new(num_procs); num_procs];
        let digest = proc_clock
            .iter()
            .enumerate()
            .fold(0u64, |acc, (p, c)| acc ^ proc_contrib(p, c));
        RaceDetector {
            proc_clock,
            sync_clock: HashMap::new(),
            history: HashMap::new(),
            races: Vec::new(),
            mode,
            digest,
        }
    }

    /// Processes one operation (in completion order) and returns the races
    /// it participates in as the later access.
    ///
    /// # Panics
    ///
    /// Panics if `op.proc` is outside the range given to [`RaceDetector::new`].
    pub fn observe(&mut self, op: &Operation) -> Vec<Race> {
        let undo = self.observe_undoable(op);
        self.races[undo.races_len..].to_vec()
    }

    /// Like [`RaceDetector::observe`], but returns an [`ObserveUndo`] that
    /// reverses the observation via [`RaceDetector::undo`].
    ///
    /// One observation touches one processor clock, at most one
    /// `sync_clock` entry, and at most two history slots, so the record is
    /// O(procs) — the exploration DFS uses it instead of cloning the whole
    /// detector (O(procs² + locations)) per transition.
    ///
    /// # Panics
    ///
    /// Panics if `op.proc` is outside the range given to [`RaceDetector::new`].
    pub fn observe_undoable(&mut self, op: &Operation) -> ObserveUndo {
        let p = op.proc.index();
        let procs = self.proc_clock.len();
        assert!(p < procs, "processor {} out of range", op.proc);
        let prev_clock = self.proc_clock[p].clone();
        let races_len = self.races.len();
        let prev_digest = self.digest;

        // Detach the contributions about to be mutated; re-attach the
        // updated values below. `undo` restores `prev_digest` wholesale, so
        // this bookkeeping only has to be right in the forward direction.
        self.digest ^= proc_contrib(p, &self.proc_clock[p]);

        // A synchronization operation acquires the happens-before knowledge
        // published by every earlier synchronization on the same location
        // (the so edge) *before* its own access is race-checked, so
        // sync-sync pairs on one location can never race.
        if op.kind.is_sync() {
            if let Some(sc) = self.sync_clock.get(&op.loc) {
                self.proc_clock[p].join(sc);
            }
        }

        let (hist, hist_digest) =
            self.history.entry(op.loc).or_insert_with(|| (LocationState::new(procs), 0));
        let prev_hist_digest = *hist_digest;
        let loc_undo =
            hist.observe(op, p, self.proc_clock[p].as_slice(), &mut self.races);
        for (slot, prev) in loc_undo.displaced() {
            if let Some(prev) = prev {
                *hist_digest ^= slot_contrib(slot, prev);
            }
            *hist_digest ^= slot_contrib(slot, hist.slot(slot).expect("observe filled the slot"));
        }
        self.digest ^=
            hist_contrib(op.loc, prev_hist_digest) ^ hist_contrib(op.loc, *hist_digest);

        self.proc_clock[p].tick(p);
        self.digest ^= proc_contrib(p, &self.proc_clock[p]);
        let prev_sync_clock = if self.mode.releases(op.kind) {
            self.digest ^= sync_contrib(op.loc, &self.proc_clock[p]);
            let displaced =
                self.sync_clock.insert(op.loc, self.proc_clock[p].clone());
            if let Some(old) = &displaced {
                self.digest ^= sync_contrib(op.loc, old);
            }
            Some(displaced)
        } else {
            None
        };

        ObserveUndo {
            p,
            loc: op.loc,
            prev_clock,
            loc_undo,
            prev_hist_digest,
            prev_sync_clock,
            races_len,
            prev_digest,
        }
    }

    /// Reverses the observation that produced `undo`. Undo records must be
    /// applied in LIFO order (most recent observation first).
    pub fn undo(&mut self, undo: ObserveUndo) {
        self.proc_clock[undo.p] = undo.prev_clock;
        self.races.truncate(undo.races_len);
        if let Some(prev) = undo.prev_sync_clock {
            match prev {
                Some(vc) => {
                    self.sync_clock.insert(undo.loc, vc);
                }
                None => {
                    self.sync_clock.remove(&undo.loc);
                }
            }
        }
        let (hist, hist_digest) = self
            .history
            .get_mut(&undo.loc)
            .expect("observation touched this location's history");
        hist.undo(undo.loc_undo);
        *hist_digest = undo.prev_hist_digest;
        self.digest = undo.prev_digest;
    }

    /// The incrementally maintained digest of the detector state.
    ///
    /// Two detectors with equal processor clocks, published sync clocks,
    /// and location histories (races and mode excluded) have equal digests;
    /// unequal states collide with probability ~2⁻⁶⁴ per pair. Maintained in
    /// O(1) extra work by [`RaceDetector::observe_undoable`] and restored
    /// exactly by [`RaceDetector::undo`] — explorers fold it into visited-set
    /// keys without walking the detector.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        self.digest
    }

    /// Recomputes [`RaceDetector::state_digest`] from scratch by walking the
    /// full detector state. Exists to validate the incremental maintenance
    /// in tests and audits; O(procs² + locations).
    #[must_use]
    pub fn state_digest_from_scratch(&self) -> u64 {
        let mut d = self
            .proc_clock
            .iter()
            .enumerate()
            .fold(0u64, |acc, (p, c)| acc ^ proc_contrib(p, c));
        for (loc, vc) in &self.sync_clock {
            d ^= sync_contrib(*loc, vc);
        }
        for (loc, (hist, _)) in &self.history {
            // Empty histories contribute 0 by construction, so entries left
            // behind by undo (created, then rolled back to empty) cancel.
            d ^= hist_contrib(*loc, hist.digest_from_scratch());
        }
        d
    }

    /// All races reported so far.
    #[must_use]
    pub fn races(&self) -> &[Race] {
        &self.races
    }

    /// Whether no race has been observed.
    #[must_use]
    pub fn is_race_free(&self) -> bool {
        self.races.is_empty()
    }

    /// Runs the detector over a whole execution and reports whether it is
    /// race-free (same verdict as [`crate::drf0::is_data_race_free`]).
    #[must_use]
    pub fn check_execution(exec: &Execution) -> bool {
        RaceDetector::check_execution_with_mode(exec, SyncMode::Drf0)
    }

    /// [`RaceDetector::check_execution`] under an explicit [`SyncMode`].
    #[must_use]
    pub fn check_execution_with_mode(exec: &Execution, mode: SyncMode) -> bool {
        let mut det = RaceDetector::with_mode(procs_of(exec), mode);
        for op in exec.ops() {
            if !det.observe(op).is_empty() {
                return false;
            }
        }
        true
    }
}

fn procs_of(exec: &Execution) -> usize {
    exec.procs().iter().map(|p| p.index() + 1).max().unwrap_or(0)
}

/// Every race of `exec` under `mode`, in observation order — the full
/// dynamic evidence (not just a verdict), so differential harnesses can
/// cross-check a static DRF0 label against the racing operation pairs and
/// print them in a repro.
///
/// # Examples
///
/// ```
/// use memory_model::race::races_of;
/// use memory_model::{Execution, Loc, Operation, OpId, ProcId, SyncMode};
///
/// let exec = Execution::new(vec![
///     Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
///     Operation::data_read(OpId(1), ProcId(1), Loc(0), 1),
/// ]).unwrap();
/// let races = races_of(&exec, SyncMode::Drf0);
/// assert_eq!(races.len(), 1);
/// assert_eq!(races[0].loc, Loc(0));
/// ```
#[must_use]
pub fn races_of(exec: &Execution, mode: SyncMode) -> Vec<Race> {
    let mut det = RaceDetector::with_mode(procs_of(exec), mode);
    for op in exec.ops() {
        det.observe(op);
    }
    det.races
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{drf0, ProcId};

    fn w(id: u64, p: u16, l: u32) -> Operation {
        Operation::data_write(OpId(id), ProcId(p), Loc(l), 1)
    }

    fn r(id: u64, p: u16, l: u32) -> Operation {
        Operation::data_read(OpId(id), ProcId(p), Loc(l), 1)
    }

    fn s(id: u64, p: u16, l: u32) -> Operation {
        Operation::sync_write(OpId(id), ProcId(p), Loc(l), 1)
    }

    fn sr(id: u64, p: u16, l: u32) -> Operation {
        Operation::sync_read(OpId(id), ProcId(p), Loc(l), 1)
    }

    #[test]
    fn detects_write_read_race() {
        let mut det = RaceDetector::new(2);
        det.observe(&w(0, 0, 0));
        let races = det.observe(&r(1, 1, 0));
        assert_eq!(races, vec![Race { first: OpId(0), second: OpId(1), loc: Loc(0) }]);
        assert!(!det.is_race_free());
    }

    #[test]
    fn detects_write_write_race() {
        let mut det = RaceDetector::new(2);
        det.observe(&w(0, 0, 0));
        assert_eq!(det.observe(&w(1, 1, 0)).len(), 1);
    }

    #[test]
    fn read_read_is_not_a_race() {
        let mut det = RaceDetector::new(2);
        det.observe(&r(0, 0, 0));
        assert!(det.observe(&r(1, 1, 0)).is_empty());
        assert!(det.is_race_free());
    }

    #[test]
    fn sync_handoff_suppresses_race() {
        let mut det = RaceDetector::new(2);
        det.observe(&w(0, 0, 0));
        det.observe(&s(1, 0, 9));
        det.observe(&sr(2, 1, 9));
        assert!(det.observe(&r(3, 1, 0)).is_empty());
    }

    #[test]
    fn sync_on_other_location_does_not_suppress() {
        let mut det = RaceDetector::new(2);
        det.observe(&w(0, 0, 0));
        det.observe(&s(1, 0, 9));
        det.observe(&sr(2, 1, 8)); // different sync location
        assert_eq!(det.observe(&r(3, 1, 0)).len(), 1);
    }

    #[test]
    fn same_processor_never_races() {
        let mut det = RaceDetector::new(1);
        det.observe(&w(0, 0, 0));
        assert!(det.observe(&w(1, 0, 0)).is_empty());
        assert!(det.observe(&r(2, 0, 0)).is_empty());
    }

    #[test]
    fn sync_sync_same_location_never_races() {
        let mut det = RaceDetector::new(2);
        det.observe(&s(0, 0, 9));
        assert!(det.observe(&s(1, 1, 9)).is_empty());
    }

    #[test]
    fn sync_data_same_location_races() {
        let mut det = RaceDetector::new(2);
        det.observe(&w(0, 0, 9));
        assert_eq!(det.observe(&s(1, 1, 9)).len(), 1);
    }

    #[test]
    fn transitive_handoff_through_third_processor() {
        let mut det = RaceDetector::new(3);
        det.observe(&w(0, 0, 0));
        det.observe(&s(1, 0, 9));
        det.observe(&sr(2, 1, 9));
        det.observe(&s(3, 1, 8));
        det.observe(&sr(4, 2, 8));
        assert!(det.observe(&r(5, 2, 0)).is_empty());
    }

    #[test]
    fn data_write_after_sync_rmw_reports_one_race() {
        // The rmw sits in both the sync-read and sync-write slots; the
        // conflicting data write must report the pair once, not twice.
        let mut det = RaceDetector::new(2);
        det.observe(&Operation::sync_rmw(OpId(0), ProcId(0), Loc(0), 0, 1));
        let races = det.observe(&w(1, 1, 0));
        assert_eq!(races, vec![Race { first: OpId(0), second: OpId(1), loc: Loc(0) }]);
    }

    #[test]
    fn location_state_undo_restores_slots() {
        let mut loc = LocationState::new(2);
        let mut races = Vec::new();
        loc.observe(&w(0, 0, 0), 0, &[0, 0], &mut races);
        let undo = loc.observe(&r(1, 1, 0), 1, &[0, 0], &mut races);
        assert_eq!(races.len(), 1);
        loc.undo(undo);
        races.clear();
        // Replaying the read finds the write again — the slot survived.
        loc.observe(&r(2, 1, 0), 1, &[0, 0], &mut races);
        assert_eq!(races.len(), 1);
        assert!(LocationState::approx_bytes(2) > 0);
    }

    #[test]
    fn check_execution_agrees_with_pairwise_on_examples() {
        let racy = Execution::new(vec![w(0, 0, 0), r(1, 1, 0)]).unwrap();
        let clean = Execution::new(vec![
            w(0, 0, 0),
            s(1, 0, 9),
            sr(2, 1, 9),
            r(3, 1, 0),
        ])
        .unwrap();
        for exec in [&racy, &clean] {
            assert_eq!(
                RaceDetector::check_execution(exec),
                drf0::is_data_race_free(exec)
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn observe_rejects_out_of_range_proc() {
        RaceDetector::new(1).observe(&w(0, 5, 0));
    }

    /// Exhaustive undo check: observing then undoing any prefix of an
    /// execution leaves the detector reporting exactly what a fresh
    /// detector would on the shorter prefix.
    #[test]
    fn undo_restores_detector_verdicts() {
        let script = [
            w(0, 0, 0),
            s(1, 0, 9),
            sr(2, 1, 9),
            r(3, 1, 0),
            w(4, 2, 0), // races with op 0 and op 3
            sr(5, 2, 8),
        ];
        for cut in 0..script.len() {
            let mut det = RaceDetector::new(3);
            for op in &script[..cut] {
                det.observe(op);
            }
            let races_before = det.races().to_vec();
            // Observe the rest undoably, then roll all of it back.
            let undos: Vec<_> =
                script[cut..].iter().map(|op| det.observe_undoable(op)).collect();
            for undo in undos.into_iter().rev() {
                det.undo(undo);
            }
            assert_eq!(det.races(), races_before.as_slice(), "cut at {cut}");
            // Replaying the suffix after the rollback matches a straight run.
            for op in &script[cut..] {
                det.observe(op);
            }
            let mut fresh = RaceDetector::new(3);
            for op in &script {
                fresh.observe(op);
            }
            assert_eq!(det.races(), fresh.races(), "replay after cut {cut}");
        }
    }

    #[test]
    fn undo_restores_release_clocks() {
        // Undoing a releasing sync op must also retract its published
        // clock, or a later acquire would see into the undone future.
        let mut det = RaceDetector::new(2);
        det.observe(&w(0, 0, 0));
        let undo = det.observe_undoable(&s(1, 0, 9));
        det.undo(undo);
        // P1 acquires on loc 9: nothing was (still) published there, so
        // the data read must race.
        det.observe(&sr(2, 1, 9));
        assert_eq!(det.observe(&r(3, 1, 0)).len(), 1);
    }

    #[test]
    fn races_of_returns_the_full_evidence() {
        // Two independent races: W/W on m0, W/R on m1.
        let exec = Execution::new(vec![
            w(0, 0, 0),
            w(1, 1, 0),
            w(2, 0, 1),
            r(3, 1, 1),
        ])
        .unwrap();
        let races = races_of(&exec, crate::SyncMode::Drf0);
        assert_eq!(races.len(), 2);
        assert!(races.contains(&Race { first: OpId(0), second: OpId(1), loc: Loc(0) }));
        assert!(races.contains(&Race { first: OpId(2), second: OpId(3), loc: Loc(1) }));
    }

    #[test]
    fn mode_changes_the_verdict_for_read_only_sync_handoff() {
        // Hand-off through a read-only sync op: releases under DRF0, does
        // not under the Section 6 refinement.
        let exec = Execution::new(vec![
            w(0, 0, 0),
            sr(1, 0, 9),
            sr(2, 1, 9),
            r(3, 1, 0),
        ])
        .unwrap();
        assert!(RaceDetector::check_execution_with_mode(&exec, crate::SyncMode::Drf0));
        assert!(!RaceDetector::check_execution_with_mode(
            &exec,
            crate::SyncMode::ReleaseWrites
        ));
        assert_eq!(races_of(&exec, crate::SyncMode::ReleaseWrites).len(), 1);
    }

    #[test]
    fn state_digest_matches_scratch_through_observe_and_undo() {
        // Exercises every digest path: data accesses (history slots), sync
        // hand-off (acquire + publish), and a second release on the same
        // location (displacing an already-published clock).
        let script = [
            w(0, 0, 0),
            s(1, 0, 9),
            sr(2, 1, 9),
            r(3, 1, 0),
            s(4, 1, 9), // displaces P0's published clock on loc 9
            w(5, 2, 1),
        ];
        let mut det = RaceDetector::new(3);
        assert_eq!(det.state_digest(), det.state_digest_from_scratch());
        let mut undos = Vec::new();
        let mut trail = vec![det.state_digest()];
        for op in &script {
            undos.push(det.observe_undoable(op));
            assert_eq!(
                det.state_digest(),
                det.state_digest_from_scratch(),
                "incremental digest diverged after {op:?}"
            );
            trail.push(det.state_digest());
        }
        while let Some(undo) = undos.pop() {
            det.undo(undo);
            trail.pop();
            assert_eq!(det.state_digest(), *trail.last().unwrap());
            assert_eq!(det.state_digest(), det.state_digest_from_scratch());
        }
    }

    #[test]
    fn state_digest_separates_states_and_ignores_undone_entries() {
        // Distinct states get distinct digests...
        let mut a = RaceDetector::new(2);
        let mut b = RaceDetector::new(2);
        a.observe(&w(0, 0, 0));
        b.observe(&w(0, 1, 0));
        assert_ne!(a.state_digest(), b.state_digest(), "writer identity");

        // ...and an observe/undo pair leaves the digest equal to a fresh
        // detector's even though `history` retains an empty shell entry
        // for the touched location (empty histories contribute 0).
        let mut det = RaceDetector::new(2);
        let fresh = RaceDetector::new(2).state_digest();
        let undo = det.observe_undoable(&s(0, 0, 9));
        det.undo(undo);
        assert_eq!(det.state_digest(), fresh);
        assert_eq!(det.state_digest(), det.state_digest_from_scratch());
    }

    #[test]
    fn location_state_digest_is_maintained_incrementally() {
        let mut det = RaceDetector::new(2);
        let mut undos = Vec::new();
        let rmw = Operation::sync_rmw(OpId(4), ProcId(0), Loc(0), 0, 1);
        // The last two overwrite occupied slots (P0's data write, P1's
        // data read), so each must take the displaced access out.
        for op in [w(0, 0, 0), r(1, 1, 0), w(2, 1, 0), r(3, 0, 0), rmw, w(5, 0, 0), r(6, 1, 0)] {
            undos.push(det.observe_undoable(&op));
            let (hist, digest) = &det.history[&Loc(0)];
            assert_eq!(*digest, hist.digest_from_scratch(), "after {op:?}");
        }
        while let Some(undo) = undos.pop() {
            det.undo(undo);
            let (hist, digest) = &det.history[&Loc(0)];
            assert_eq!(*digest, hist.digest_from_scratch());
        }
        assert_eq!(det.history[&Loc(0)].1, 0, "undone to empty");
    }

    #[test]
    fn empty_slots_never_race_whatever_the_clock() {
        let ops = [
            w(0, 0, 0),
            r(0, 0, 0),
            s(0, 0, 0),
            sr(0, 0, 0),
            Operation::sync_rmw(OpId(0), ProcId(0), Loc(0), 0, 1),
        ];
        for op in ops {
            for clock in [[0, 0, 0], [7, 0, 3], [u32::MAX - 1; 3]] {
                let mut races = Vec::new();
                // Only P0's own slots are ever filled: every other slot
                // stays at epoch 0.
                let mut loc = LocationState::new(3);
                loc.observe(&op, 0, &[0, 0, 0], &mut races);
                loc.observe(&op, 0, &clock, &mut races);
                assert!(races.is_empty(), "{op:?} at {clock:?}");
                // A fresh history holds nothing to race with.
                let mut fresh = LocationState::new(3);
                fresh.observe(&Operation { proc: ProcId(2), ..op }, 2, &clock, &mut races);
                assert!(races.is_empty(), "{op:?} at {clock:?} on a fresh history");
            }
        }
    }

    #[test]
    fn undo_back_to_empty_slots_leaves_a_zero_digest() {
        let mut loc = LocationState::new(2);
        let mut races = Vec::new();
        let rmw = Operation::sync_rmw(OpId(2), ProcId(1), Loc(0), 0, 1);
        let mut undos = vec![
            loc.observe(&w(0, 0, 0), 0, &[0, 0], &mut races),
            loc.observe(&r(1, 0, 0), 0, &[1, 0], &mut races),
            loc.observe(&rmw, 1, &[2, 0], &mut races),
            loc.observe(&w(3, 0, 0), 0, &[2, 0], &mut races),
        ];
        assert_ne!(loc.digest_from_scratch(), 0);
        while let Some(undo) = undos.pop() {
            loc.undo(undo);
        }
        assert_eq!(loc.digest_from_scratch(), 0);
        assert!(loc.epochs.iter().all(|&at| at == 0), "every slot is empty again");
    }

    #[test]
    fn approx_bytes_matches_the_layout() {
        for procs in [1, 2, 8, 32] {
            let loc = LocationState::new(procs);
            let heap = std::mem::size_of_val(&*loc.epochs) + std::mem::size_of_val(&*loc.ids);
            assert_eq!(
                LocationState::approx_bytes(procs),
                std::mem::size_of::<LocationState>() + heap,
                "procs={procs}"
            );
            assert_eq!(loc.epochs.len(), 4 * procs);
            assert_eq!(loc.ids.len(), 4 * procs);
        }
        // Two boxed slices, then 4 × 8 epochs of 4 bytes and ids of 8.
        #[cfg(target_pointer_width = "64")]
        assert_eq!(LocationState::approx_bytes(8), 32 + 128 + 256);
    }
}
