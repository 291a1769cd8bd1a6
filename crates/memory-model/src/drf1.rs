//! The Section 6 refinement of DRF0 ("Data-Race-Free-1"-style).
//!
//! Section 6 proposes distinguishing synchronization operations that only
//! read (`Test`), only write (`Unset`), and both (`TestAndSet`), and
//! modifying DRF0 so that "a processor cannot use a read-only
//! synchronization operation to order its previous accesses with respect
//! to subsequent synchronization operations of other processors". (The
//! authors developed this direction fully in later work as DRF1; we
//! implement exactly the Section 6 sketch.)
//!
//! Concretely, a pair of conflicting accesses must be ordered either by
//! `so` itself (synchronization operations on one location stay totally
//! ordered — the refinement never weakens that) or by the happens-before
//! relation computed with [`SyncMode::ReleaseWrites`], in which only
//! writing synchronization operations *release* (carry their processor's
//! earlier accesses across the edge). The check is DRF0's own pairwise
//! scan, [`drf0::races_with`], run over that relation.
//!
//! The refinement matters because it licenses the optimized Section 6
//! implementation: read-only synchronization operations need not be
//! serialized as writes by the coherence protocol, "and are not required
//! to stall other processors until the completion of previous accesses."

use crate::drf0::{self, Race};
use crate::hb::{HbRelation, SyncMode};
use crate::Execution;

/// All Section-6-refined races in one idealized execution: pairs of
/// conflicting accesses ordered neither by `so` nor by the
/// release-writes happens-before.
///
/// Every DRF0 race is also a race here (the refined happens-before is a
/// subset of DRF0's), so `races_in(e) ⊆ refined_races_in(e)`.
///
/// # Examples
///
/// An execution where a read-only `Test` is the only thing "ordering" a
/// data hand-off is DRF0 but not refined-race-free:
///
/// ```
/// use memory_model::{drf0, drf1, Execution, Loc, Operation, OpId, ProcId};
///
/// let exec = Execution::new(vec![
///     Operation::data_write(OpId(0), ProcId(0), Loc(0), 1), // W(x)
///     Operation::sync_read(OpId(1), ProcId(0), Loc(9), 0),  // Test(s)
///     Operation::sync_rmw(OpId(2), ProcId(1), Loc(9), 0, 1), // TAS(s)
///     Operation::data_read(OpId(3), ProcId(1), Loc(0), 1),  // R(x)
/// ]).unwrap();
/// assert!(drf0::is_data_race_free(&exec)); // Test releases under DRF0
/// assert!(!drf1::is_refined_race_free(&exec)); // but not under Section 6
/// ```
#[must_use]
pub fn refined_races_in(exec: &Execution) -> Vec<Race> {
    drf0::races_with(exec, &HbRelation::with_mode(exec, SyncMode::ReleaseWrites))
}

/// Whether one idealized execution is race-free under the Section 6
/// refinement.
#[must_use]
pub fn is_refined_race_free(exec: &Execution) -> bool {
    refined_races_in(exec).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Loc, OpId, Operation, ProcId};

    fn handoff(release_writes: bool) -> Execution {
        let rel = if release_writes {
            Operation::sync_write(OpId(1), ProcId(0), Loc(9), 1)
        } else {
            Operation::sync_read(OpId(1), ProcId(0), Loc(9), 0)
        };
        Execution::new(vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            rel,
            Operation::sync_rmw(OpId(2), ProcId(1), Loc(9), if release_writes { 1 } else { 0 }, 1),
            Operation::data_read(OpId(3), ProcId(1), Loc(0), 1),
        ])
        .unwrap()
    }

    #[test]
    fn write_release_satisfies_both_models() {
        let e = handoff(true);
        assert!(drf0::is_data_race_free(&e));
        assert!(is_refined_race_free(&e));
    }

    #[test]
    fn test_release_satisfies_only_drf0() {
        let e = handoff(false);
        assert!(drf0::is_data_race_free(&e), "so edges order everything in DRF0");
        let races = refined_races_in(&e);
        assert_eq!(races.len(), 1, "W(x)/R(x) unordered under ReleaseWrites");
        assert_eq!(races[0].loc, Loc(0));
    }

    #[test]
    fn sync_ops_on_one_location_never_race_in_either_model() {
        // Test vs TestAndSet conflict, but so orders them — the refinement
        // keeps that (it only changes what edges carry).
        let e = Execution::new(vec![
            Operation::sync_read(OpId(0), ProcId(0), Loc(9), 0),
            Operation::sync_rmw(OpId(1), ProcId(1), Loc(9), 0, 1),
        ])
        .unwrap();
        assert!(drf0::is_data_race_free(&e));
        assert!(is_refined_race_free(&e));
    }

    #[test]
    fn drf0_races_are_a_subset_of_refined_races() {
        // A racy execution: its DRF0 races must all appear refined too.
        // z is racy outright; x is ordered only through a Test release,
        // so it races under the refinement but not under DRF0.
        let e = Execution::new(vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(5), 1), // W(z) — racy
            Operation::data_read(OpId(1), ProcId(1), Loc(5), 1),  // R(z) — racy
            Operation::data_write(OpId(2), ProcId(0), Loc(0), 1), // W(x)
            Operation::sync_read(OpId(3), ProcId(0), Loc(9), 0),  // Test(s)
            Operation::sync_rmw(OpId(4), ProcId(1), Loc(9), 0, 1), // TAS(s)
            Operation::data_read(OpId(5), ProcId(1), Loc(0), 1),  // R(x)
        ])
        .unwrap();
        let drf0_races: std::collections::HashSet<_> =
            drf0::races_in(&e).into_iter().collect();
        let refined: std::collections::HashSet<_> =
            refined_races_in(&e).into_iter().collect();
        assert!(drf0_races.is_subset(&refined), "{drf0_races:?} ⊄ {refined:?}");
        assert!(refined.len() > drf0_races.len());
    }

    #[test]
    fn tas_release_chain_works_in_refined_model() {
        // TAS has a write component, so it releases: W(x); TAS(s) ... TAS(s); R(x).
        let e = Execution::new(vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::sync_rmw(OpId(1), ProcId(0), Loc(9), 0, 1),
            Operation::sync_rmw(OpId(2), ProcId(1), Loc(9), 1, 1),
            Operation::data_read(OpId(3), ProcId(1), Loc(0), 1),
        ])
        .unwrap();
        assert!(is_refined_race_free(&e));
    }

    #[test]
    fn read_only_release_does_not_relay_chains() {
        // W(x); Unset(s) … Test(s) … TAS(s); R(x): the Test sits between
        // the Unset and the TAS. The Unset must release directly to the
        // TAS (the Test cannot relay).
        let e = Execution::new(vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::sync_write(OpId(1), ProcId(0), Loc(9), 0),
            Operation::sync_read(OpId(2), ProcId(2), Loc(9), 0),
            Operation::sync_rmw(OpId(3), ProcId(1), Loc(9), 0, 1),
            Operation::data_read(OpId(4), ProcId(1), Loc(0), 1),
        ])
        .unwrap();
        assert!(is_refined_race_free(&e), "Unset releases across the intervening Test");
    }
}
