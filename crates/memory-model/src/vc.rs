//! Vector clocks: an O(n·p) alternative representation of happens-before.
//!
//! [`crate::hb::HbRelation`] materializes `hb` as an O(n²/64) reachability
//! matrix; vector clocks compute the same relation in one forward pass with
//! O(p) state per operation. The two implementations cross-check each other
//! in tests and are compared in the `hb_ablation` benchmark.
//!
//! [`HbClocks`] is the one clock step every vector-clock consumer takes:
//! [`VcHb`] here, the exploring [`crate::race::RaceDetector`] (with undo)
//! and the streaming `wo-trace` checker (with a cap on published clocks).

use std::collections::HashMap;
use std::fmt;

use crate::hb::SyncMode;
use crate::{Execution, Loc, OpId, Operation, ProcId};

/// A vector clock over the processors of an execution.
///
/// # Examples
///
/// ```
/// use memory_model::vc::VectorClock;
///
/// let mut a = VectorClock::new(2);
/// let mut b = VectorClock::new(2);
/// a.tick(0);
/// b.join(&a);
/// b.tick(1);
/// assert!(a.le(&b));
/// assert!(!b.le(&a));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VectorClock {
    components: Vec<u32>,
}

impl VectorClock {
    /// Creates a zero clock over `num_procs` processors.
    #[must_use]
    pub fn new(num_procs: usize) -> Self {
        VectorClock { components: vec![0; num_procs] }
    }

    /// Increments the component of processor `proc`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn tick(&mut self, proc: usize) {
        self.components[proc] += 1;
    }

    /// Component-wise maximum with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the clocks have different widths.
    pub fn join(&mut self, other: &VectorClock) {
        assert_eq!(
            self.components.len(),
            other.components.len(),
            "joining clocks of different widths"
        );
        for (a, b) in self.components.iter_mut().zip(&other.components) {
            *a = (*a).max(*b);
        }
    }

    /// Whether `self ≤ other` component-wise.
    #[must_use]
    pub fn le(&self, other: &VectorClock) -> bool {
        self.components
            .iter()
            .zip(&other.components)
            .all(|(a, b)| a <= b)
    }

    /// The component of processor `proc`.
    #[must_use]
    pub fn component(&self, proc: usize) -> u32 {
        self.components[proc]
    }

    /// Number of processors the clock spans.
    #[must_use]
    pub fn width(&self) -> usize {
        self.components.len()
    }

    /// The raw components, indexed by processor.
    ///
    /// Flat access exists for consumers that keep clock *snapshots* in
    /// their own storage (the streaming checker's per-batch arena) and
    /// race-check against them without materializing a `VectorClock` per
    /// event.
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.components
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "⟩")
    }
}

/// The clock step of DRF0's happens-before `(po ∪ so)+` over one
/// execution: one clock per processor, and the clocks synchronization
/// operations published, each in a numbered *slot*.
///
/// Each operation takes two calls, in completion order:
/// [`HbClocks::acquire`] joins the clock a synchronization operation's
/// location published (the `so` edge) and yields the processor's
/// post-acquire, pre-tick clock, which a race check compares histories
/// against; [`HbClocks::release`] ticks the processor's own component (the
/// `po` edge) and, where [`SyncMode::releases`] says so, publishes the
/// clock into the location's slot. The caller keeps each location's slot
/// (`None` until its first publish) in its own per-location entry, so one
/// location lookup per event serves both the step and the race check.
///
/// # Examples
///
/// ```
/// use memory_model::vc::HbClocks;
/// use memory_model::{Loc, Operation, OpId, ProcId, SyncMode};
///
/// let mut clocks = HbClocks::new(2, SyncMode::Drf0, usize::MAX);
/// let mut slot = None; // m9's slot, kept by the caller
/// let release = Operation::sync_write(OpId(0), ProcId(0), Loc(9), 1);
/// let acquire = Operation::sync_read(OpId(1), ProcId(1), Loc(9), 1);
/// assert_eq!(clocks.acquire(&release, 0, slot), &[0, 0]);
/// assert!(clocks.release(&release, 0, &mut slot));
/// // P1 acquires P0's release: it now knows P0's first operation.
/// assert_eq!(clocks.acquire(&acquire, 1, slot), &[1, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct HbClocks {
    mode: SyncMode,
    clocks: Vec<VectorClock>,
    published: Vec<VectorClock>,
    max_published: usize,
}

/// Reverses one [`HbClocks::acquire`] and [`HbClocks::release`] pair; made
/// by [`HbClocks::mark`] before the pair and applied by [`HbClocks::undo`].
#[derive(Debug)]
pub struct ClockUndo {
    p: usize,
    clock: VectorClock,
    /// `Some` when the operation releases: the slot's clock before the
    /// release, `None` for a slot it opened.
    published: Option<Option<VectorClock>>,
}

impl HbClocks {
    /// Zero clocks for processors `0 .. procs` under `mode`; at most
    /// `max_published` locations (and never more than `u32::MAX`) get a
    /// slot.
    #[must_use]
    pub fn new(procs: usize, mode: SyncMode, max_published: usize) -> Self {
        HbClocks {
            mode,
            clocks: vec![VectorClock::new(procs); procs],
            published: Vec::new(),
            max_published: max_published.min(u32::MAX as usize),
        }
    }

    /// Number of processors.
    #[inline]
    #[must_use]
    pub fn procs(&self) -> usize {
        self.clocks.len()
    }

    /// Processor `p`'s clock.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn clock(&self, p: usize) -> &VectorClock {
        &self.clocks[p]
    }

    /// Number of slots opened: locations that published a clock.
    #[must_use]
    pub fn published(&self) -> usize {
        self.published.len()
    }

    /// Acquires for `op` on processor `p`: a synchronization operation
    /// joins the clock published in its location's `slot`, if any. Returns
    /// `p`'s clock after the acquire and before the tick.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `slot` is out of range.
    #[inline]
    pub fn acquire(&mut self, op: &Operation, p: usize, slot: Option<u32>) -> &[u32] {
        if op.kind.is_sync() {
            if let Some(s) = slot {
                self.clocks[p].join(&self.published[s as usize]);
            }
        }
        self.clocks[p].as_slice()
    }

    /// Releases for `op` on processor `p`: ticks `p`'s component and, when
    /// the mode says `op` releases, publishes `p`'s clock into `slot`,
    /// opening a slot for a location that had none. Returns `false` when
    /// that first publish was refused because `max_published` slots are
    /// open; `slot` then stays `None`.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `slot` is out of range.
    #[inline]
    pub fn release(&mut self, op: &Operation, p: usize, slot: &mut Option<u32>) -> bool {
        self.clocks[p].tick(p);
        if !self.mode.releases(op.kind) {
            return true;
        }
        match *slot {
            Some(s) => self.published[s as usize].clone_from(&self.clocks[p]),
            None if self.published.len() < self.max_published => {
                *slot = Some(self.published.len() as u32);
                self.published.push(self.clocks[p].clone());
            }
            None => return false,
        }
        true
    }

    /// Records what `acquire` and `release` of `op` on `p`, with the
    /// location's `slot` as it is now, may change.
    #[must_use]
    pub fn mark(&self, op: &Operation, p: usize, slot: Option<u32>) -> ClockUndo {
        ClockUndo {
            p,
            clock: self.clocks[p].clone(),
            published: self
                .mode
                .releases(op.kind)
                .then(|| slot.map(|s| self.published[s as usize].clone())),
        }
    }

    /// Puts back what the `acquire` and `release` recorded by `undo`
    /// changed, `slot` included. Undo records must be applied in LIFO
    /// order (most recent operation first), so a slot the release opened
    /// is the last one.
    pub fn undo(&mut self, undo: ClockUndo, slot: &mut Option<u32>) {
        self.clocks[undo.p] = undo.clock;
        match (undo.published, *slot) {
            // The release displaced `prior` from the slot.
            (Some(Some(prior)), Some(s)) => self.published[s as usize] = prior,
            // The release opened the slot, the last one.
            (Some(None), Some(_)) => {
                self.published.pop();
                *slot = None;
            }
            // Nothing was published, or a first publish was refused.
            _ => {}
        }
    }
}

/// Happens-before computed by vector clocks: assigns each operation a
/// timestamp such that `a hb b` iff `ts(a)[proc(a)] ≤ ts(b)[proc(a)]` and
/// `a ≠ b`.
#[derive(Debug, Clone)]
pub struct VcHb {
    timestamps: HashMap<OpId, (usize, VectorClock)>,
}

impl VcHb {
    /// Computes timestamps for every operation in `exec` in one forward
    /// pass, under [`SyncMode::Drf0`].
    ///
    /// Each processor carries a clock; a synchronization operation on
    /// location `s` first joins the clock stored at `s` (acquiring every
    /// earlier synchronization on `s`, which is what `so` provides), then
    /// publishes its updated clock back to `s` (releasing to later ones).
    #[must_use]
    pub fn from_execution(exec: &Execution) -> Self {
        Self::with_mode(exec, SyncMode::Drf0)
    }

    /// Computes timestamps under the given [`SyncMode`]: in
    /// [`SyncMode::ReleaseWrites`] only writing synchronization operations
    /// publish their clock (read-only ones acquire but do not release).
    #[must_use]
    pub fn with_mode(exec: &Execution, mode: SyncMode) -> Self {
        let procs = exec.procs();
        let proc_index: HashMap<ProcId, usize> =
            procs.iter().enumerate().map(|(i, &p)| (p, i)).collect();

        let mut clocks = HbClocks::new(procs.len(), mode, usize::MAX);
        let mut slots: HashMap<Loc, Option<u32>> = HashMap::new();
        let mut timestamps = HashMap::with_capacity(exec.len());

        for op in exec.ops() {
            let p = proc_index[&op.proc];
            let slot = slots.entry(op.loc).or_default();
            clocks.acquire(op, p, *slot);
            clocks.release(op, p, slot);
            timestamps.insert(op.id, (p, clocks.clock(p).clone()));
        }

        VcHb { timestamps }
    }

    /// Whether `a` happens-before `b`. Unknown ids are unordered.
    #[must_use]
    pub fn happens_before(&self, a: OpId, b: OpId) -> bool {
        if a == b {
            return false;
        }
        match (self.timestamps.get(&a), self.timestamps.get(&b)) {
            (Some((pa, ta)), Some((_, tb))) => {
                ta.component(*pa) <= tb.component(*pa)
            }
            _ => false,
        }
    }

    /// Whether `a` and `b` are ordered in either direction.
    #[must_use]
    pub fn ordered(&self, a: OpId, b: OpId) -> bool {
        self.happens_before(a, b) || self.happens_before(b, a)
    }

    /// The timestamp assigned to `id`, if present.
    #[must_use]
    pub fn timestamp(&self, id: OpId) -> Option<&VectorClock> {
        self.timestamps.get(&id).map(|(_, ts)| ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hb::HbRelation;
    use crate::{Loc, Operation, ProcId};

    #[test]
    fn clock_basics() {
        let mut a = VectorClock::new(3);
        assert_eq!(a.width(), 3);
        a.tick(1);
        assert_eq!(a.component(1), 1);
        assert_eq!(a.to_string(), "⟨0,1,0⟩");
        let zero = VectorClock::new(3);
        assert!(zero.le(&a));
        assert!(!a.le(&zero));
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn join_rejects_width_mismatch() {
        VectorClock::new(2).join(&VectorClock::new(3));
    }

    #[test]
    fn concurrent_clocks_are_incomparable() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        a.tick(0);
        b.tick(1);
        assert!(!a.le(&b) && !b.le(&a));
    }

    fn paper_chain() -> Execution {
        let x = Loc(0);
        let s = Loc(1);
        let t = Loc(2);
        Execution::new(vec![
            Operation::data_write(OpId(0), ProcId(1), x, 1),
            Operation::sync_write(OpId(1), ProcId(1), s, 1),
            Operation::sync_rmw(OpId(2), ProcId(2), s, 1, 2),
            Operation::sync_write(OpId(3), ProcId(2), t, 1),
            Operation::sync_rmw(OpId(4), ProcId(3), t, 1, 2),
            Operation::data_read(OpId(5), ProcId(3), x, 1),
        ])
        .unwrap()
    }

    #[test]
    fn vc_matches_paper_chain() {
        let hb = VcHb::from_execution(&paper_chain());
        assert!(hb.happens_before(OpId(0), OpId(5)));
        assert!(!hb.happens_before(OpId(5), OpId(0)));
        assert!(!hb.happens_before(OpId(0), OpId(0)), "irreflexive");
    }

    #[test]
    fn vc_agrees_with_matrix_on_paper_chain() {
        let exec = paper_chain();
        let vc = VcHb::from_execution(&exec);
        let mx = HbRelation::from_execution(&exec);
        for a in exec.ops() {
            for b in exec.ops() {
                assert_eq!(
                    vc.happens_before(a.id, b.id),
                    mx.happens_before(a.id, b.id),
                    "disagreement on ({}, {})",
                    a.id,
                    b.id
                );
            }
        }
    }

    #[test]
    fn unknown_ids_unordered() {
        let hb = VcHb::from_execution(&paper_chain());
        assert!(!hb.happens_before(OpId(0), OpId(42)));
        assert!(hb.timestamp(OpId(42)).is_none());
        assert!(hb.timestamp(OpId(0)).is_some());
    }

    #[test]
    fn data_accesses_alone_never_synchronize() {
        let exec = Execution::new(vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::data_read(OpId(1), ProcId(1), Loc(0), 1),
        ])
        .unwrap();
        let hb = VcHb::from_execution(&exec);
        assert!(!hb.ordered(OpId(0), OpId(1)));
    }
}
