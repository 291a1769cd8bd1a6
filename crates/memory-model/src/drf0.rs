//! The Data-Race-Free-0 synchronization model (Definition 3).
//!
//! A program obeys DRF0 iff (1) all synchronization operations are
//! hardware-recognizable and access exactly one location — guaranteed here
//! by construction of [`Operation`](crate::Operation) — and (2) for
//! **any** execution on the idealized architecture, all conflicting
//! accesses are ordered by the happens-before relation of that execution.
//!
//! This module checks condition (2) for a *single* execution, with the
//! one pairwise race scan, [`races_with`], which the Section 6 refinement
//! and `analysis::hb_to_dot` run too. Checking a whole *program* requires
//! quantifying over all idealized executions; that enumeration lives in
//! the `litmus` crate, and the program-level verdict in the `weakord`
//! crate.

use std::error::Error;
use std::fmt;

use crate::hb::HbRelation;
use crate::{Execution, Loc, OpId};

/// A pair of conflicting accesses not ordered by happens-before: a data
/// race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Race {
    /// The conflicting access that completed first in the execution.
    pub first: OpId,
    /// The conflicting access that completed second.
    pub second: OpId,
    /// The location both accesses touch.
    pub loc: Loc,
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "race on {loc}: {a} and {b} conflict but are unordered by happens-before",
            loc = self.loc,
            a = self.first,
            b = self.second
        )
    }
}

impl Error for Race {}

/// All races in one idealized execution: every pair of conflicting accesses
/// not ordered by `hb`, in completion order of the earlier access.
///
/// The paper's hypothetical initializing/final operations (Section 4) are
/// intentionally *not* added: the initialization chain is hb-before every
/// program access and the finalization chain hb-after, so neither can ever
/// participate in a race. See DESIGN.md.
///
/// # Examples
///
/// ```
/// use memory_model::{drf0, Execution, Loc, Operation, OpId, ProcId};
///
/// // Figure 2(b)'s essence: two unsynchronized writes to y.
/// let exec = Execution::new(vec![
///     Operation::data_write(OpId(0), ProcId(2), Loc(1), 1),
///     Operation::data_write(OpId(1), ProcId(4), Loc(1), 2),
/// ]).unwrap();
/// assert_eq!(drf0::races_in(&exec).len(), 1);
/// ```
#[must_use]
pub fn races_in(exec: &Execution) -> Vec<Race> {
    races_with(exec, &HbRelation::from_execution(exec))
}

/// Like [`races_in`], but over a given happens-before relation of either
/// [`SyncMode`](crate::SyncMode). `so`-related pairs never race (`so`
/// orders them even where a read-only one carries no hb edge).
#[must_use]
pub fn races_with(exec: &Execution, hb: &HbRelation) -> Vec<Race> {
    races(exec, hb).collect()
}

/// The scan behind [`races_with`], lazily, so callers can stop early.
fn races<'a>(exec: &'a Execution, hb: &'a HbRelation) -> impl Iterator<Item = Race> + 'a {
    let ops = exec.ops();
    ops.iter().enumerate().flat_map(move |(i, a)| {
        ops[i + 1..]
            .iter()
            .filter(move |b| a.conflicts_with(b) && !hb.ordered(a.id, b.id) && !a.so_related(b))
            .map(move |b| Race { first: a.id, second: b.id, loc: a.loc })
    })
}

/// Whether one idealized execution satisfies Definition 3's condition (2):
/// all conflicting accesses ordered by happens-before. Stops at the first
/// race.
#[must_use]
pub fn is_data_race_free(exec: &Execution) -> bool {
    races(exec, &HbRelation::from_execution(exec)).next().is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Operation, ProcId, Value};

    fn w(id: u64, p: u16, l: u32, v: Value) -> Operation {
        Operation::data_write(OpId(id), ProcId(p), Loc(l), v)
    }

    fn r(id: u64, p: u16, l: u32, v: Value) -> Operation {
        Operation::data_read(OpId(id), ProcId(p), Loc(l), v)
    }

    fn s(id: u64, p: u16, l: u32, v: Value) -> Operation {
        Operation::sync_write(OpId(id), ProcId(p), Loc(l), v)
    }

    fn sr(id: u64, p: u16, l: u32, v: Value) -> Operation {
        Operation::sync_read(OpId(id), ProcId(p), Loc(l), v)
    }

    #[test]
    fn properly_synchronized_handoff_is_race_free() {
        // P0: W(x)=1; S(a)=1       P1: S.r(a)->1; R(x)->1
        let exec = Execution::new(vec![
            w(0, 0, 0, 1),
            s(1, 0, 9, 1),
            sr(2, 1, 9, 1),
            r(3, 1, 0, 1),
        ])
        .unwrap();
        assert!(is_data_race_free(&exec));
        assert!(races_in(&exec).is_empty());
    }

    #[test]
    fn unsynchronized_conflict_is_a_race() {
        let exec = Execution::new(vec![w(0, 0, 0, 1), r(1, 1, 0, 1)]).unwrap();
        let races = races_in(&exec);
        assert_eq!(races, vec![Race { first: OpId(0), second: OpId(1), loc: Loc(0) }]);
        assert!(!is_data_race_free(&exec));
        assert!(races[0].to_string().contains("race on m0"));
    }

    #[test]
    fn reads_never_race_with_reads() {
        let exec = Execution::new(vec![r(0, 0, 0, 0), r(1, 1, 0, 0)]).unwrap();
        assert!(is_data_race_free(&exec));
    }

    #[test]
    fn sync_sync_same_location_never_race() {
        // so orders them even across processors.
        let exec = Execution::new(vec![s(0, 0, 9, 1), s(1, 1, 9, 2)]).unwrap();
        assert!(is_data_race_free(&exec));
    }

    #[test]
    fn sync_data_conflict_on_same_location_races() {
        // A data write and a sync write to the same location, no other
        // synchronization: conflicting, and so does not apply (one is data).
        let exec = Execution::new(vec![w(0, 0, 9, 1), s(1, 1, 9, 2)]).unwrap();
        assert!(!is_data_race_free(&exec));
    }

    #[test]
    fn figure_2a_is_drf0() {
        // Paper Figure 2(a): six processors, all conflicting accesses
        // ordered by happens-before. Completion order follows the figure's
        // vertical (time) positions.
        let (x, y, z) = (Loc(0), Loc(1), Loc(2));
        let (a, b, c) = (Loc(10), Loc(11), Loc(12));
        let exec = Execution::new(vec![
            // W(x) by P0, then R(x) by P0 — same processor, po-ordered.
            Operation::data_write(OpId(0), ProcId(0), x, 1),
            Operation::data_read(OpId(1), ProcId(0), x, 1),
            // P1: W(y); S(a)
            Operation::data_write(OpId(2), ProcId(1), y, 1),
            Operation::sync_write(OpId(3), ProcId(1), a, 1),
            // P2: S(a); W(x) — acquires P1's release on a... and P0?
            // P0's accesses to x must be ordered with this W(x): P0 syncs too.
            Operation::sync_write(OpId(4), ProcId(0), a, 2),
            Operation::sync_write(OpId(5), ProcId(2), a, 3),
            Operation::data_write(OpId(6), ProcId(2), x, 2),
            // P3: S(b); R(y)
            Operation::sync_write(OpId(7), ProcId(1), b, 1),
            Operation::sync_write(OpId(8), ProcId(3), b, 2),
            Operation::data_read(OpId(9), ProcId(3), y, 1),
            // P4/P5: W(z) handed to R(z) via c.
            Operation::data_write(OpId(10), ProcId(4), z, 1),
            Operation::sync_write(OpId(11), ProcId(4), c, 1),
            Operation::sync_write(OpId(12), ProcId(5), c, 2),
            Operation::data_read(OpId(13), ProcId(5), z, 1),
        ])
        .unwrap();
        assert!(is_data_race_free(&exec), "races: {:?}", races_in(&exec));
    }

    #[test]
    fn figure_2b_violates_drf0() {
        // Paper Figure 2(b): P0's accesses to x conflict with P1's W(x) but
        // are not hb-ordered; P2's and P4's writes to y conflict unordered.
        let (x, y) = (Loc(0), Loc(1));
        let (a, b) = (Loc(10), Loc(11));
        let exec = Execution::new(vec![
            Operation::data_write(OpId(0), ProcId(0), x, 1),
            Operation::data_read(OpId(1), ProcId(0), x, 1),
            Operation::data_write(OpId(2), ProcId(1), x, 2), // unordered w/ P0
            Operation::data_write(OpId(3), ProcId(2), y, 1),
            Operation::sync_write(OpId(4), ProcId(2), a, 1),
            Operation::sync_write(OpId(5), ProcId(3), a, 2),
            Operation::data_write(OpId(6), ProcId(4), y, 2), // unordered w/ P2
            Operation::sync_write(OpId(7), ProcId(4), b, 1),
        ])
        .unwrap();
        let races = races_in(&exec);
        assert!(!is_data_race_free(&exec));
        // W(x)/R(x) of P0 vs W(x) of P1: two races; W(y) P2 vs W(y) P4: one.
        assert_eq!(races.len(), 3, "races: {races:?}");
    }

    #[test]
    fn races_with_reuses_relation() {
        let exec = Execution::new(vec![w(0, 0, 0, 1), r(1, 1, 0, 1)]).unwrap();
        let hb = HbRelation::from_execution(&exec);
        assert_eq!(races_with(&exec, &hb).len(), 1);
    }
}
