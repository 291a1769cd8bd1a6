//! Human-readable analyses of executions: textual reports and Graphviz
//! export of the happens-before relation.
//!
//! The renderer derives nothing itself: its edges are the covering edges
//! `hb` closes, and its races are [`drf0::races_with`] over the same
//! relation, so a drawing always agrees with the verdict of its
//! [`SyncMode`].

use std::fmt::Write as _;

use crate::drf0;
use crate::hb::{covering_edges, HbRelation, SyncMode};
use crate::{Execution, Memory};

/// A textual report of one idealized execution: the operations in
/// completion order grouped in columns per processor (the layout of the
/// paper's Figure 2), the races, and the DRF0 verdict.
///
/// # Examples
///
/// ```
/// use memory_model::analysis::execution_report;
/// use memory_model::{Execution, Loc, Memory, Operation, OpId, ProcId};
///
/// let exec = Execution::new(vec![
///     Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
///     Operation::data_read(OpId(1), ProcId(1), Loc(0), 1),
/// ]).unwrap();
/// let report = execution_report(&exec, &Memory::new());
/// assert!(report.contains("RACY"));
/// ```
#[must_use]
pub fn execution_report(exec: &Execution, initial: &Memory) -> String {
    let mut out = String::new();
    let procs = exec.procs();
    let col = 16usize;

    // Header row.
    for p in &procs {
        let _ = write!(out, "{:<col$}", p.to_string());
    }
    out.push('\n');
    for _ in &procs {
        let _ = write!(out, "{:-<col$}", "");
    }
    out.push('\n');

    // One row per operation, placed in its processor's column — time flows
    // downward, as in Figure 2.
    for op in exec.ops() {
        let idx = procs.iter().position(|&p| p == op.proc).expect("op proc listed");
        let mut cell = format!("{}({})", op.kind, op.loc);
        if let Some(v) = op.read_value {
            let _ = write!(cell, "->{v}");
        }
        if let Some(v) = op.write_value {
            let _ = write!(cell, "={v}");
        }
        for i in 0..procs.len() {
            if i == idx {
                let _ = write!(out, "{cell:<col$}");
            } else {
                let _ = write!(out, "{:<col$}", "");
            }
        }
        out.push('\n');
    }

    let races = drf0::races_in(exec);
    if races.is_empty() {
        out.push_str("\nDRF0: execution is data-race-free\n");
    } else {
        let _ = writeln!(out, "\nDRF0: RACY — {} race(s):", races.len());
        for race in &races {
            let a = exec.op(race.first).expect("race ids come from the execution");
            let b = exec.op(race.second).expect("race ids come from the execution");
            let _ = writeln!(out, "  {a}   vs   {b}");
        }
    }
    match exec.validate_atomic_semantics(initial) {
        Ok(()) => out.push_str("atomic semantics: ok\n"),
        Err(e) => {
            let _ = writeln!(out, "atomic semantics: VIOLATED — {e}");
        }
    }
    out
}

/// Renders the happens-before relation of `exec` as a Graphviz `dot`
/// digraph: one node per operation (clustered by processor), solid edges
/// for covering program order, dashed edges for covering synchronization
/// order, and red double-headed edges for races.
///
/// Pipe the output through `dot -Tsvg` to visualize.
#[must_use]
pub fn hb_to_dot(exec: &Execution, mode: SyncMode) -> String {
    let mut out = String::from("digraph hb {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n");
    let procs = exec.procs();

    for p in &procs {
        let _ = writeln!(out, "  subgraph cluster_{} {{", p.0);
        let _ = writeln!(out, "    label=\"{p}\";");
        for op in exec.ops().iter().filter(|o| o.proc == *p) {
            let mut label = format!("{}({})", op.kind, op.loc);
            if let Some(v) = op.read_value {
                let _ = write!(label, "→{v}");
            }
            if let Some(v) = op.write_value {
                let _ = write!(label, "={v}");
            }
            let _ = writeln!(out, "    n{} [label=\"{label}\"];", op.id.0);
        }
        out.push_str("  }\n");
    }

    // Covering edges: same-processor ones are po, per processor; the
    // cross-processor ones are so, in completion order of their later end.
    let ops = exec.ops();
    let edges = covering_edges(exec, mode);
    for p in &procs {
        for &(a, b) in edges.iter().filter(|&&(a, b)| ops[a].proc == *p && ops[b].proc == *p) {
            let _ = writeln!(out, "  n{} -> n{} [color=black];", ops[a].id.0, ops[b].id.0);
        }
    }
    for &(a, b) in edges.iter().filter(|&&(a, b)| ops[a].proc != ops[b].proc) {
        let (a, b) = (&ops[a], &ops[b]);
        let _ = writeln!(
            out,
            "  n{} -> n{} [style=dashed, label=\"so({})\"];",
            a.id.0, b.id.0, b.loc
        );
    }

    // Races.
    let hb = HbRelation::with_mode(exec, mode);
    for race in drf0::races_with(exec, &hb) {
        let _ = writeln!(
            out,
            "  n{} -> n{} [color=red, dir=both, style=bold];",
            race.first.0, race.second.0
        );
    }

    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Loc, OpId, Operation, ProcId};

    fn racy_exec() -> Execution {
        Execution::new(vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::data_read(OpId(1), ProcId(1), Loc(0), 1),
        ])
        .unwrap()
    }

    fn clean_exec() -> Execution {
        Execution::new(vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::sync_write(OpId(1), ProcId(0), Loc(9), 1),
            Operation::sync_read(OpId(2), ProcId(1), Loc(9), 1),
            Operation::data_read(OpId(3), ProcId(1), Loc(0), 1),
        ])
        .unwrap()
    }

    #[test]
    fn report_flags_races_and_semantics() {
        let report = execution_report(&racy_exec(), &Memory::new());
        assert!(report.contains("RACY"));
        assert!(report.contains("atomic semantics: ok"));
        assert!(report.contains("P0"));
        assert!(report.contains("P1"));
    }

    #[test]
    fn report_on_clean_execution() {
        let report = execution_report(&clean_exec(), &Memory::new());
        assert!(report.contains("data-race-free"));
        assert!(report.contains("S.w(m9)=1"));
    }

    #[test]
    fn report_flags_semantics_violations() {
        let broken = Execution::new(vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::data_read(OpId(1), ProcId(1), Loc(0), 7), // impossible
        ])
        .unwrap();
        let report = execution_report(&broken, &Memory::new());
        assert!(report.contains("VIOLATED"));
    }

    #[test]
    fn dot_output_is_well_formed() {
        let dot = hb_to_dot(&clean_exec(), SyncMode::Drf0);
        assert!(dot.starts_with("digraph hb {"));
        assert!(dot.ends_with("}\n"));
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("style=dashed"), "so edge present");
        assert!(!dot.contains("color=red"), "no races in the clean execution");
        assert_eq!(dot.matches("->").count(), 3, "two po edges + one so edge");
    }

    #[test]
    fn dot_marks_races_in_red() {
        let dot = hb_to_dot(&racy_exec(), SyncMode::Drf0);
        assert!(dot.contains("color=red"));
    }

    #[test]
    fn dot_respects_release_writes_mode() {
        // A Test between release and acquire: Drf0 chains through it; the
        // refined mode draws the so edge from the Unset past the Test.
        let exec = Execution::new(vec![
            Operation::sync_write(OpId(0), ProcId(0), Loc(9), 1),
            Operation::sync_read(OpId(1), ProcId(1), Loc(9), 1),
            Operation::sync_rmw(OpId(2), ProcId(2), Loc(9), 1, 1),
        ])
        .unwrap();
        let drf0_dot = hb_to_dot(&exec, SyncMode::Drf0);
        let refined_dot = hb_to_dot(&exec, SyncMode::ReleaseWrites);
        // Drf0: edges 0->1 (release to Test) and 1->2 (Test relays).
        assert!(drf0_dot.contains("n1 -> n2"));
        // Refined: 0->1 and 0->2 (the Unset releases to both; Test relays nothing).
        assert!(refined_dot.contains("n0 -> n2"));
        assert!(!refined_dot.contains("n1 -> n2 [style=dashed"));
    }

    /// The `(first, second)` ids of the red race edges in a dot graph.
    fn red_edges(dot: &str) -> Vec<(u64, u64)> {
        dot.lines()
            .filter(|l| l.contains("color=red"))
            .map(|l| {
                let (a, rest) = l.trim().trim_start_matches('n').split_once(" -> n").unwrap();
                (a.parse().unwrap(), rest.split(' ').next().unwrap().parse().unwrap())
            })
            .collect()
    }

    #[test]
    fn dot_races_are_the_scan_of_the_same_relation() {
        // The execution `examples/analyze_hb.rs` renders (a Test as the
        // only release) and the one in `dot_respects_release_writes_mode`.
        let test_release = Execution::new(vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::sync_read(OpId(1), ProcId(0), Loc(10), 0),
            Operation::sync_rmw(OpId(2), ProcId(1), Loc(10), 0, 1),
            Operation::data_read(OpId(3), ProcId(1), Loc(0), 1),
        ])
        .unwrap();
        let test_between = Execution::new(vec![
            Operation::sync_write(OpId(0), ProcId(0), Loc(9), 1),
            Operation::sync_read(OpId(1), ProcId(1), Loc(9), 1),
            Operation::sync_rmw(OpId(2), ProcId(2), Loc(9), 1, 1),
        ])
        .unwrap();
        let ids = |races: Vec<drf0::Race>| -> Vec<(u64, u64)> {
            races.iter().map(|r| (r.first.0, r.second.0)).collect()
        };
        for exec in [&test_release, &test_between] {
            for mode in [SyncMode::Drf0, SyncMode::ReleaseWrites] {
                let drawn = red_edges(&hb_to_dot(exec, mode));
                let hb = HbRelation::with_mode(exec, mode);
                assert_eq!(drawn, ids(drf0::races_with(exec, &hb)), "{mode:?}");
            }
            let refined = red_edges(&hb_to_dot(exec, SyncMode::ReleaseWrites));
            assert_eq!(refined, ids(crate::drf1::refined_races_in(exec)));
        }
        // Section 6: W(x)/R(x) race, but Test(s)/TestAndSet(s) never do.
        assert_eq!(red_edges(&hb_to_dot(&test_release, SyncMode::ReleaseWrites)), vec![(0, 3)]);
        assert!(red_edges(&hb_to_dot(&test_between, SyncMode::ReleaseWrites)).is_empty());
    }
}
