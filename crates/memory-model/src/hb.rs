//! The happens-before relation `hb = (po ∪ so)⁺`.
//!
//! For an execution on the idealized architecture the paper defines
//! (Section 4):
//!
//! * `op1 po op2` iff `op1` occurs before `op2` in program order of some
//!   process;
//! * `op1 so op2` iff both are synchronization operations accessing the
//!   same location and `op1` completes before `op2`;
//! * `hb` is the irreflexive transitive closure of `po ∪ so`.
//!
//! [`SyncMode::releases`] is the one statement of which synchronization
//! operations release; every happens-before computation in the workspace
//! asks it. [`HbRelation`] closes the covering `po`/`so` edges into a
//! [`Rel`], so [`HbRelation::happens_before`] is O(1); both kinds of edge
//! point forward in completion order, so [`Rel::from_forward_edges`]
//! closes them in one backward and one forward pass.

use std::collections::HashMap;

use crate::rel::Rel;
use crate::{Execution, Loc, OpId, OpKind, ProcId};

/// A materialized happens-before relation for one idealized execution.
///
/// # Examples
///
/// ```
/// use memory_model::{Execution, Loc, Operation, OpId, ProcId};
/// use memory_model::hb::HbRelation;
///
/// // P1: W(x) ; S(s)        P2: S(s) ; R(x)   — the paper's ordering chain.
/// let exec = Execution::new(vec![
///     Operation::data_write(OpId(0), ProcId(1), Loc(0), 1),
///     Operation::sync_write(OpId(1), ProcId(1), Loc(9), 1),
///     Operation::sync_rmw(OpId(2), ProcId(2), Loc(9), 1, 1),
///     Operation::data_read(OpId(3), ProcId(2), Loc(0), 1),
/// ])?;
/// let hb = HbRelation::from_execution(&exec);
/// assert!(hb.happens_before(OpId(0), OpId(3))); // W(x) hb R(x) via S(s)
/// assert!(!hb.happens_before(OpId(3), OpId(0)));
/// # Ok::<(), memory_model::ExecutionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HbRelation {
    /// `hb` over operation positions in completion order.
    order: Rel,
    index: HashMap<OpId, usize>,
}

/// Which synchronization operations *release* — carry their processor's
/// earlier accesses across a synchronization-order edge.
///
/// [`SyncMode::Drf0`] is Definition 3: every synchronization operation on
/// a location releases to every later one. [`SyncMode::ReleaseWrites`]
/// is the Section 6 refinement: "a processor cannot use a read-only
/// synchronization operation to order its previous accesses with respect
/// to subsequent synchronization operations of other processors" — only
/// operations with a write component release. (The synchronization
/// operations *themselves* stay totally ordered per location in both
/// modes; the mode only changes what their edges carry.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncMode {
    /// Definition 3's DRF0: any synchronization operation releases.
    #[default]
    Drf0,
    /// Section 6's refinement (DRF1-style): only writing synchronization
    /// operations release.
    ReleaseWrites,
}

impl SyncMode {
    /// Whether an operation of `kind` releases under this mode. Data
    /// accesses never release.
    #[inline]
    #[must_use]
    pub fn releases(self, kind: OpKind) -> bool {
        kind.is_sync()
            && match self {
                SyncMode::Drf0 => true,
                SyncMode::ReleaseWrites => kind.is_write(),
            }
    }
}

/// The covering edges of `po ∪ so` under `mode`, as positions in
/// completion order, listed by target: each operation's edge from its
/// processor's previous one (`po`), and a synchronization operation's edge
/// from the last release on its location if another processor ran it
/// (`so`; same-processor `so` is subsumed by `po`).
pub(crate) fn covering_edges(exec: &Execution, mode: SyncMode) -> Vec<(usize, usize)> {
    let ops = exec.ops();
    let mut edges = Vec::with_capacity(2 * ops.len());
    let mut last_of_proc: HashMap<ProcId, usize> = HashMap::new();
    let mut last_release_on: HashMap<Loc, usize> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        if let Some(prev) = last_of_proc.insert(op.proc, i) {
            edges.push((prev, i));
        }
        if op.kind.is_sync() {
            if let Some(&prev) = last_release_on.get(&op.loc) {
                if ops[prev].proc != op.proc {
                    edges.push((prev, i));
                }
            }
        }
        if mode.releases(op.kind) {
            last_release_on.insert(op.loc, i);
        }
    }
    edges
}

impl HbRelation {
    /// Computes `hb = (po ∪ so)⁺` for an idealized execution, under
    /// [`SyncMode::Drf0`].
    ///
    /// Direct edges are the *covering* edges of `po` (each operation to the
    /// next operation of the same processor) and of `so` (each
    /// synchronization operation to the next synchronization operation on
    /// the same location); transitivity recovers the full relations.
    #[must_use]
    pub fn from_execution(exec: &Execution) -> Self {
        Self::with_mode(exec, SyncMode::Drf0)
    }

    /// Computes happens-before under the given [`SyncMode`].
    ///
    /// Under [`SyncMode::ReleaseWrites`], an edge runs from the last
    /// *writing* synchronization operation on a location to each later
    /// synchronization operation on it; read-only synchronization
    /// operations acquire but do not relay.
    #[must_use]
    pub fn with_mode(exec: &Execution, mode: SyncMode) -> Self {
        let index = exec.ops().iter().enumerate().map(|(i, op)| (op.id, i)).collect();
        let order = Rel::from_forward_edges(exec.len(), &covering_edges(exec, mode));
        HbRelation { order, index }
    }

    /// Whether `a` happens-before `b`.
    ///
    /// Returns `false` if either id is absent (an unknown operation is
    /// unordered with everything) or if `a == b` (`hb` is irreflexive).
    #[must_use]
    pub fn happens_before(&self, a: OpId, b: OpId) -> bool {
        match (self.index.get(&a), self.index.get(&b)) {
            (Some(&i), Some(&j)) => self.order.ordered(i, j),
            _ => false,
        }
    }

    /// Whether `a` and `b` are ordered by `hb` in either direction.
    #[must_use]
    pub fn ordered(&self, a: OpId, b: OpId) -> bool {
        self.happens_before(a, b) || self.happens_before(b, a)
    }

    /// Number of operations in the underlying execution.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the relation covers no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total number of ordered pairs — useful for ablation comparisons.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.order.edge_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Loc, Operation, ProcId};

    fn exec(ops: Vec<Operation>) -> Execution {
        Execution::new(ops).unwrap()
    }

    #[test]
    fn program_order_is_hb() {
        let e = exec(vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::data_write(OpId(1), ProcId(0), Loc(1), 2),
            Operation::data_write(OpId(2), ProcId(0), Loc(2), 3),
        ]);
        let hb = HbRelation::from_execution(&e);
        assert!(hb.happens_before(OpId(0), OpId(1)));
        assert!(hb.happens_before(OpId(0), OpId(2)), "po is transitive");
        assert!(!hb.happens_before(OpId(1), OpId(0)));
        assert!(!hb.happens_before(OpId(0), OpId(0)), "hb is irreflexive");
    }

    #[test]
    fn unsynchronized_cross_processor_ops_are_unordered() {
        let e = exec(vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::data_write(OpId(1), ProcId(1), Loc(0), 2),
        ]);
        let hb = HbRelation::from_execution(&e);
        assert!(!hb.ordered(OpId(0), OpId(1)));
    }

    #[test]
    fn sync_chain_orders_across_processors() {
        // The paper's example chain:
        // op(P1,x) po S(P1,s) so S(P2,s) po S(P2,t) so S(P3,t) po op(P3,x)
        let x = Loc(0);
        let s = Loc(1);
        let t = Loc(2);
        let e = exec(vec![
            Operation::data_write(OpId(0), ProcId(1), x, 1),
            Operation::sync_write(OpId(1), ProcId(1), s, 1),
            Operation::sync_rmw(OpId(2), ProcId(2), s, 1, 2),
            Operation::sync_write(OpId(3), ProcId(2), t, 1),
            Operation::sync_rmw(OpId(4), ProcId(3), t, 1, 2),
            Operation::data_read(OpId(5), ProcId(3), x, 1),
        ]);
        let hb = HbRelation::from_execution(&e);
        assert!(hb.happens_before(OpId(0), OpId(5)), "paper's chain example");
        assert!(hb.happens_before(OpId(1), OpId(4)));
        assert!(!hb.happens_before(OpId(5), OpId(0)));
    }

    #[test]
    fn sync_on_different_locations_does_not_order() {
        let e = exec(vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::sync_write(OpId(1), ProcId(0), Loc(1), 1),
            Operation::sync_rmw(OpId(2), ProcId(1), Loc(2), 0, 1), // different sync loc
            Operation::data_read(OpId(3), ProcId(1), Loc(0), 0),
        ]);
        let hb = HbRelation::from_execution(&e);
        assert!(!hb.ordered(OpId(0), OpId(3)));
    }

    #[test]
    fn so_orders_only_sync_ops() {
        // Data accesses to the same location do NOT create so edges.
        let e = exec(vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::data_read(OpId(1), ProcId(1), Loc(0), 1),
        ]);
        let hb = HbRelation::from_execution(&e);
        assert!(!hb.ordered(OpId(0), OpId(1)));
    }

    #[test]
    fn unknown_ids_are_unordered() {
        let e = exec(vec![Operation::data_write(OpId(0), ProcId(0), Loc(0), 1)]);
        let hb = HbRelation::from_execution(&e);
        assert!(!hb.happens_before(OpId(0), OpId(99)));
        assert!(!hb.happens_before(OpId(99), OpId(0)));
    }

    #[test]
    fn empty_execution() {
        let hb = HbRelation::from_execution(&exec(vec![]));
        assert!(hb.is_empty());
        assert_eq!(hb.len(), 0);
        assert_eq!(hb.edge_count(), 0);
    }

    #[test]
    fn edge_count_counts_ordered_pairs() {
        let e = exec(vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::data_write(OpId(1), ProcId(0), Loc(1), 2),
            Operation::data_write(OpId(2), ProcId(0), Loc(2), 3),
        ]);
        let hb = HbRelation::from_execution(&e);
        assert_eq!(hb.edge_count(), 3); // (0,1), (0,2), (1,2)
    }

    #[test]
    fn only_sync_ops_release_and_only_writing_ones_under_release_writes() {
        use OpKind::{DataRead, DataWrite, SyncRead, SyncRmw, SyncWrite};
        for kind in [DataRead, DataWrite, SyncRead, SyncWrite, SyncRmw] {
            assert_eq!(SyncMode::Drf0.releases(kind), kind.is_sync(), "{kind:?}");
            assert_eq!(
                SyncMode::ReleaseWrites.releases(kind),
                matches!(kind, SyncWrite | SyncRmw),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn covering_edges_are_po_then_so_listed_by_target() {
        // P0: S.w(s)   P1: S.r(s) ; W(x)   P2: TAS(s)
        let e = exec(vec![
            Operation::sync_write(OpId(0), ProcId(0), Loc(9), 1),
            Operation::sync_read(OpId(1), ProcId(1), Loc(9), 1),
            Operation::data_write(OpId(2), ProcId(1), Loc(0), 1),
            Operation::sync_rmw(OpId(3), ProcId(2), Loc(9), 1, 1),
        ]);
        assert_eq!(covering_edges(&e, SyncMode::Drf0), vec![(0, 1), (1, 2), (1, 3)]);
        // The Test relays nothing: the write releases straight to the TAS.
        assert_eq!(covering_edges(&e, SyncMode::ReleaseWrites), vec![(0, 1), (1, 2), (0, 3)]);
    }

    #[test]
    fn three_processor_transitivity_through_two_sync_locations() {
        // P0 syncs with P1 on s; P1 syncs with P2 on t; P0's write is
        // ordered before P2's read even though they never share a sync loc.
        let e = exec(vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 7),
            Operation::sync_write(OpId(1), ProcId(0), Loc(10), 1),
            Operation::sync_read(OpId(2), ProcId(1), Loc(10), 1),
            Operation::sync_write(OpId(3), ProcId(1), Loc(11), 1),
            Operation::sync_read(OpId(4), ProcId(2), Loc(11), 1),
            Operation::data_read(OpId(5), ProcId(2), Loc(0), 7),
        ]);
        let hb = HbRelation::from_execution(&e);
        assert!(hb.happens_before(OpId(0), OpId(5)));
    }
}
