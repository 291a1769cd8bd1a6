//! Vector clocks: an O(n·p) alternative representation of happens-before.
//!
//! [`crate::hb::HbRelation`] materializes `hb` as an O(n²/64) reachability
//! matrix; vector clocks compute the same relation in one forward pass with
//! O(p) state per operation. The two implementations cross-check each other
//! in tests and are compared in the `hb_ablation` benchmark.

use std::collections::HashMap;
use std::fmt;

use crate::hb::SyncMode;
use crate::{Execution, OpId, ProcId};

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

    /// A 64-bit position-sensitive hash of the clock under `seed`.
    ///
    /// This is the undo-coupled hashing hook for explorers that fold
    /// detector state into an incrementally maintained state digest (see
    /// [`crate::race::RaceDetector::state_digest`]): O(width), no
    /// allocation, and distinct seeds give independent hash functions so
    /// multi-lane digests can reuse one clock walk per lane.
    #[must_use]
    pub fn fingerprint(&self, seed: u64) -> u64 {
        let mut h = mix(seed);
        for &c in &self.components {
            h = mix(h ^ u64::from(c) ^ seed);
        }
        h
    }
}

/// SplitMix64 finalizer — the workspace's standard cheap 64-bit mixer.
#[inline]
pub(crate) fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
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
        let width = procs.len();

        let mut proc_clock: Vec<VectorClock> =
            vec![VectorClock::new(width); width];
        let mut sync_clock: HashMap<crate::Loc, VectorClock> = HashMap::new();
        let mut timestamps = HashMap::with_capacity(exec.len());

        for op in exec.ops() {
            let p = proc_index[&op.proc];
            if op.kind.is_sync() {
                if let Some(sc) = sync_clock.get(&op.loc) {
                    proc_clock[p].join(sc);
                }
            }
            proc_clock[p].tick(p);
            timestamps.insert(op.id, (p, proc_clock[p].clone()));
            if mode.releases(op.kind) {
                sync_clock.insert(op.loc, proc_clock[p].clone());
            }
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

    #[test]
    fn fingerprint_is_positional_and_seeded() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        a.tick(0);
        b.tick(1);
        // ⟨1,0⟩ and ⟨0,1⟩ must not collide: position matters.
        assert_ne!(a.fingerprint(7), b.fingerprint(7));
        // Distinct seeds give distinct hash functions.
        assert_ne!(a.fingerprint(7), a.fingerprint(8));
        // Deterministic, and equal clocks agree.
        let mut c = VectorClock::new(2);
        c.tick(0);
        assert_eq!(a.fingerprint(7), c.fingerprint(7));
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
