//! A streaming vector-clock data-race detector.
//!
//! [`RaceDetector`] consumes the operations of an idealized execution in
//! completion order and reports DRF0 violations online, in the style of
//! DJIT⁺ — the dynamic-detection direction the paper points to via Netzer &
//! Miller \[NeM89\]. It finds a race iff one exists (same verdict as the
//! exhaustive pairwise check in [`crate::drf0`], cross-validated by tests
//! and property tests), while needing only O(procs × locations) state.
//!
//! The detector is two shared pieces and a map. The clock step of
//! happens-before is [`crate::vc::HbClocks`], the one the streaming
//! `wo-trace` checker and [`crate::vc::VcHb`] take too; each location's
//! race check is a [`LocationState`], whose histories the `wo-trace`
//! checker keeps too. One map entry per touched location holds its
//! history and its published-clock slot, so an observation does one
//! location lookup, and [`RaceDetector::undo`] reverses one observation
//! through both pieces' own undo records.

use std::collections::HashMap;

use crate::drf0::Race;
use crate::hb::SyncMode;
use crate::vc::{ClockUndo, HbClocks};
use crate::{Execution, Loc, OpId, Operation};

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
/// how many events touch it.
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

/// A record reversing one [`LocationState::observe`] call: the (at most
/// two) slots it overwrote, each with its previous epoch and id.
#[derive(Debug)]
pub struct LocationUndo {
    read: Option<(usize, u32, OpId)>,
    write: Option<(usize, u32, OpId)>,
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
    loc: Loc,
    clocks: ClockUndo,
    /// Displaced history slots of the accessed location.
    history: LocationUndo,
    races_len: usize,
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
    clocks: HbClocks,
    /// Each touched location's history and its published-clock slot in
    /// `clocks`.
    locations: HashMap<Loc, (LocationState, Option<u32>)>,
    races: Vec<Race>,
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
        RaceDetector {
            clocks: HbClocks::new(num_procs, mode, usize::MAX),
            locations: HashMap::new(),
            races: Vec::new(),
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
    /// One observation touches one processor clock, at most one published
    /// clock, and at most two history slots, so the record is O(procs) —
    /// the exploration DFS uses it instead of cloning the whole detector
    /// (O(procs² + locations)) per transition.
    ///
    /// # Panics
    ///
    /// Panics if `op.proc` is outside the range given to [`RaceDetector::new`].
    pub fn observe_undoable(&mut self, op: &Operation) -> ObserveUndo {
        let p = op.proc.index();
        let procs = self.clocks.procs();
        assert!(p < procs, "processor {} out of range", op.proc);
        let races_len = self.races.len();
        let (hist, slot) =
            self.locations.entry(op.loc).or_insert_with(|| (LocationState::new(procs), None));
        let clocks = self.clocks.mark(op, p, *slot);
        // A synchronization operation acquires the happens-before knowledge
        // published by every earlier synchronization on the same location
        // (the so edge) *before* its own access is race-checked, so
        // sync-sync pairs on one location can never race.
        let clock = self.clocks.acquire(op, p, *slot);
        let history = hist.observe(op, p, clock, &mut self.races);
        self.clocks.release(op, p, slot);
        ObserveUndo { loc: op.loc, clocks, history, races_len }
    }

    /// Reverses the observation that produced `undo`. Undo records must be
    /// applied in LIFO order (most recent observation first).
    pub fn undo(&mut self, undo: ObserveUndo) {
        let (hist, slot) = self
            .locations
            .get_mut(&undo.loc)
            .expect("observation touched this location");
        hist.undo(undo.history);
        self.clocks.undo(undo.clocks, slot);
        self.races.truncate(undo.races_len);
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
        // Undoing a sync op must retract what it acquired and published,
        // or a later acquire would see into the undone future: after the
        // undo the detector answers like one that never saw the op.
        let cases: [(SyncMode, &[Operation], Operation, &[Operation]); 4] = [
            (SyncMode::Drf0, &[w(0, 0, 0)], s(1, 0, 9), &[sr(2, 1, 9), r(3, 1, 0)]),
            // A first publish into a new slot, after another slot opened.
            (SyncMode::Drf0, &[w(0, 0, 0), s(1, 1, 8)], s(2, 0, 9), &[sr(3, 2, 9), r(4, 2, 0)]),
            // A re-publish that displaces P1's clock, which never saw op 0.
            (SyncMode::Drf0, &[w(0, 0, 0), s(1, 1, 9)], s(2, 0, 9), &[sr(3, 2, 9), r(4, 2, 0)]),
            // A read-only sync op under Section 6: it acquires P0's
            // release and publishes nothing.
            (SyncMode::ReleaseWrites, &[w(0, 0, 0), s(1, 0, 9)], sr(2, 1, 9), &[r(3, 1, 0)]),
        ];
        for (mode, prefix, undone, suffix) in cases {
            let mut det = RaceDetector::with_mode(3, mode);
            let mut fresh = RaceDetector::with_mode(3, mode);
            for op in prefix {
                det.observe(op);
                fresh.observe(op);
            }
            let undo = det.observe_undoable(&undone);
            det.undo(undo);
            assert_eq!(det.clocks.published(), fresh.clocks.published(), "{undone:?}");
            for op in suffix {
                det.observe(op);
                fresh.observe(op);
            }
            assert_eq!(det.races(), fresh.races(), "{undone:?}");
            assert_eq!(det.races().len(), 1, "{undone:?}: the last access races with op 0");
        }
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
    fn undo_restores_every_history_slot() {
        let mut det = RaceDetector::new(2);
        let mut undos = Vec::new();
        let rmw = Operation::sync_rmw(OpId(4), ProcId(0), Loc(0), 0, 1);
        let snapshot = |det: &RaceDetector| {
            let (history, _) = &det.locations[&Loc(0)];
            (history.epochs.clone(), history.ids.clone())
        };
        let mut before = Vec::new();
        // The last two overwrite occupied slots (P0's data write, P1's
        // data read), so each undo must put the displaced access back.
        for op in [w(0, 0, 0), r(1, 1, 0), w(2, 1, 0), r(3, 0, 0), rmw, w(5, 0, 0), r(6, 1, 0)] {
            if det.locations.contains_key(&Loc(0)) {
                before.push(snapshot(&det));
            }
            undos.push(det.observe_undoable(&op));
        }
        while let Some(undo) = undos.pop() {
            det.undo(undo);
            match before.pop() {
                Some(expected) => assert_eq!(snapshot(&det), expected),
                None => {
                    let (history, _) = &det.locations[&Loc(0)];
                    assert!(history.epochs.iter().all(|&at| at == 0), "every slot is empty again");
                }
            }
        }
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
