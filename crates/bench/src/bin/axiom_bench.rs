//! Axiomatic-vs-operational DRF0 performance gate.
//!
//! Runs two workloads through both deciders —
//!
//! * `litmus::explore::drf0_verdict` — the DPOR interleaving explorer,
//! * `wo_axiom::decide_drf0` — the relational candidate-execution engine,
//!
//! cross-checking verdicts wherever both are definitive (the same
//! differential discipline as `explore_bench`):
//!
//! 1. **The DRF0 scaling corpus** (`scaled/…`): parametric race-free
//!    families (fan-out message passing, widened IRIW, flag pipelines)
//!    whose interleaving count explodes with width while their candidate
//!    execution count stays polynomial. This is the population the
//!    relational engine exists for, and the `--min-speedup` gate is
//!    measured here, over rows where *both* deciders finish (a
//!    budget-limited run's wall time measures the budget, not the
//!    decider).
//! 2. **The litmus sweep** (`corpus/…`, `file/…`): every in-tree suite
//!    and shipped `.litmus` file, reported per program. This keeps the
//!    bench honest about where the trade inverts: on microsecond-scale
//!    programs and deep RMW synchronization chains the explorer's DPOR
//!    reduction wins, and the JSON says so.
//!
//! Each row also times `wo_serve::compute_answer` on the `drf0` group —
//! the daemon's routed kernel — as `routed_us`. Its *routed regret* is
//! Σ `routed_us` over Σ best servable time, where the best servable time
//! is the faster engine when the relational engine says `drf0` (the only
//! verdict the daemon serves from it) and the explorer's time otherwise.
//!
//! Each program is decided `iters` times per engine and the minimum wall
//! time kept, so scheduler noise can't manufacture (or hide) a speedup.
//! Each row also records the relational engine's work units, which
//! repeat exactly from run to run and host to host: a change that only
//! makes the engine's steps cheaper moves the times and leaves them be.
//!
//! Writes the [`wo_bench::report`] schema: the aggregates as `metrics`,
//! one row per program, and a gate for each given floor or ceiling plus
//! two that always apply (at least one program of each workload certified
//! DRF0 by both engines, else the fast path is not firing). Exits 1 after
//! writing on any verdict divergence or failed gate.
//!
//! Usage:
//!
//! ```text
//! axiom_bench [--smoke] [--out PATH] [--corpus DIR] [--min-speedup F]
//!             [--min-sweep-speedup F] [--max-routed-regret F]
//!   --smoke                CI variant: smaller step budgets, one timing iter
//!   --out PATH             where to write the JSON (default BENCH_axiom.json)
//!   --corpus DIR           litmus-tests directory (default: auto-detected)
//!   --min-speedup F        fail if the scaling-corpus speedup < F
//!   --min-sweep-speedup F  fail if the litmus sweep's explorer seconds over
//!                          its axiom seconds < F (both timed on this host)
//!   --max-routed-regret F  fail if the routed regret over every program > F
//! ```

use std::path::PathBuf;

use litmus::corpus::{iriw_fan, mp_fan, pipeline};
use litmus::explore::{drf0_verdict, Drf0Verdict, ExploreConfig};
use litmus::Program;
use wo_axiom::{decide_drf0, AxiomConfig, AxiomVerdict};
use wo_bench::report::{self, best_of, Report};
use wo_serve::cache::KindGroup;
use wo_serve::compute_answer;

const USAGE: &str = "axiom_bench [--smoke] [--out PATH] [--corpus DIR] [--min-speedup F] \
                     [--min-sweep-speedup F] [--max-routed-regret F]";

/// Parametric DRF0 scaling families: programs whose *interleaving* count
/// explodes with width while their candidate-execution count stays small
/// — the shape the relational engine exists for. Sizes are chosen to
/// keep the explorer inside its step budget so both deciders stay
/// definitive and the comparison stays apples-to-apples.
fn scaled_workload(smoke: bool) -> Vec<(String, Program)> {
    let mut programs = Vec::new();
    let fan_sizes: &[usize] = if smoke { &[4, 5] } else { &[6, 7, 8] };
    for &k in fan_sizes {
        programs.push((format!("scaled/mp_fan_{k}"), mp_fan(k)));
    }
    let iriw_sizes: &[usize] = if smoke { &[3, 4] } else { &[3, 4, 5] };
    for &k in iriw_sizes {
        programs.push((format!("scaled/iriw_fan_{k}"), iriw_fan(k)));
    }
    let pipe_sizes: &[usize] = if smoke { &[5] } else { &[6, 8, 10] };
    for &n in pipe_sizes {
        programs.push((format!("scaled/pipeline_{n}"), pipeline(n)));
    }
    programs
}

struct Row {
    name: String,
    explorer_secs: f64,
    axiom_secs: f64,
    routed_secs: f64,
    axiom_work: u64,
    axiom_verdict: AxiomVerdict,
    operational: Drf0Verdict,
}

fn main() {
    let mut smoke = false;
    let mut out = PathBuf::from("BENCH_axiom.json");
    let mut corpus_dir: Option<PathBuf> = None;
    let (mut min_speedup, mut min_sweep_speedup, mut max_routed_regret) = (None, None, None);
    report::parse_args(USAGE, |flag, args| {
        match flag {
            "--smoke" => smoke = true,
            "--out" => out = args.value(flag)?,
            "--corpus" => corpus_dir = Some(args.value(flag)?),
            "--min-speedup" => min_speedup = Some(args.value(flag)?),
            "--min-sweep-speedup" => min_sweep_speedup = Some(args.value(flag)?),
            "--max-routed-regret" => max_routed_regret = Some(args.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    });
    let mut programs = wo_bench::workload(corpus_dir.as_deref()).expect("load the litmus corpus");
    programs.extend(scaled_workload(smoke));
    let explore_budget = ExploreConfig {
        max_ops_per_execution: if smoke { 40 } else { 48 },
        max_total_steps: if smoke { 300_000 } else { 3_000_000 },
        ..ExploreConfig::default()
    };
    let axiom_budget = AxiomConfig {
        // Independent unit from explorer steps; sized so budget exhaustion
        // never masquerades as slowness on this corpus.
        max_work: 50_000_000,
        ..AxiomConfig::from_explore(&explore_budget)
    };
    let iters: u32 = if smoke { 1 } else { 3 };
    println!(
        "axiom_bench: {} programs, {} timing iters{}",
        programs.len(),
        iters,
        if smoke { " (smoke)" } else { "" }
    );

    let mut report = Report::new("axiom_bench", "drf0-scaling + litmus-sweep", smoke);
    let mut rows: Vec<Row> = Vec::new();
    for (name, program) in &programs {
        let (ax_secs, ax) = best_of(iters, || decide_drf0(program, &axiom_budget));
        let (op_secs, op) = best_of(iters, || drf0_verdict(program, &explore_budget));
        let (routed_secs, _) =
            best_of(iters, || compute_answer(KindGroup::Explore, program, &explore_budget));
        match (&ax.verdict, &op) {
            (AxiomVerdict::Unknown(_), _) | (_, Drf0Verdict::BudgetExceeded(_)) => {}
            (AxiomVerdict::Drf0, Drf0Verdict::Drf0)
            | (AxiomVerdict::Racy, Drf0Verdict::Racy) => {}
            (a, o) => report.diverge(format!("{name}: axiomatic {a}, operational {o}")),
        }
        println!(
            "  {name:<40} axiom {:>10.1}us ({})  explorer {:>10.1}us ({})  routed {:>10.1}us",
            ax_secs * 1e6,
            ax.verdict,
            op_secs * 1e6,
            op,
            routed_secs * 1e6,
        );
        rows.push(Row {
            name: name.clone(),
            explorer_secs: op_secs,
            axiom_secs: ax_secs,
            routed_secs,
            axiom_work: ax.work,
            axiom_verdict: ax.verdict,
            operational: op,
        });
    }

    // The gated headline: explorer time vs axiomatic time over the DRF0
    // scaling corpus, restricted to rows *both* engines decide
    // definitively Drf0 (a budget-limited run's wall time measures the
    // budget, not the decider). The litmus sweep gets the same aggregate,
    // so the JSON also records where the explorer's DPOR reduction wins on
    // microsecond-scale programs.
    let definitive = |r: &&Row| {
        r.axiom_verdict == AxiomVerdict::Drf0 && r.operational == Drf0Verdict::Drf0
    };
    let drf0_rows: Vec<&Row> =
        rows.iter().filter(|r| r.name.starts_with("scaled/")).filter(definitive).collect();
    let sweep_rows: Vec<&Row> =
        rows.iter().filter(|r| !r.name.starts_with("scaled/")).filter(definitive).collect();
    let sum = |rs: &[&Row], f: fn(&Row) -> f64| rs.iter().map(|r| f(r)).sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { f64::INFINITY };
    let drf0_explorer = sum(&drf0_rows, |r| r.explorer_secs);
    let drf0_axiom = sum(&drf0_rows, |r| r.axiom_secs);
    let drf0_speedup = ratio(drf0_explorer, drf0_axiom);
    let sweep_explorer = sum(&sweep_rows, |r| r.explorer_secs);
    let sweep_axiom = sum(&sweep_rows, |r| r.axiom_secs);
    let sweep_speedup = ratio(sweep_explorer, sweep_axiom);
    let sweep_axiom_work: u64 = sweep_rows.iter().map(|r| r.axiom_work).sum();
    let total_explorer: f64 = rows.iter().map(|r| r.explorer_secs).sum();
    let total_axiom: f64 = rows.iter().map(|r| r.axiom_secs).sum();
    // The routed kernel against the best engine the daemon could have
    // served each program from.
    let best_servable = |r: &Row| {
        if r.axiom_verdict == AxiomVerdict::Drf0 {
            r.axiom_secs.min(r.explorer_secs)
        } else {
            r.explorer_secs
        }
    };
    let total_routed: f64 = rows.iter().map(|r| r.routed_secs).sum();
    let total_best: f64 = rows.iter().map(best_servable).sum();
    let routed_regret = ratio(total_routed, total_best);

    println!(
        "\ndrf0 scaling corpus ({} programs): explorer {:.3}s  axiom {:.3}s  speedup {drf0_speedup:.1}x",
        drf0_rows.len(),
        drf0_explorer,
        drf0_axiom,
    );
    println!(
        "litmus sweep ({} drf0 programs): explorer {:.3}s  axiom {:.3}s  \
         speedup {sweep_speedup:.3}x  axiom work {sweep_axiom_work}",
        sweep_rows.len(),
        sweep_explorer,
        sweep_axiom,
    );
    println!(
        "routed ({} programs): {:.3}s against a best servable {:.3}s  regret {routed_regret:.3}",
        rows.len(),
        total_routed,
        total_best,
    );

    report.metric("programs", rows.len());
    report.metric("timing_iters", u64::from(iters));
    report.metric("drf0_corpus_programs", drf0_rows.len());
    report.metric("drf0_explorer_seconds", drf0_explorer);
    report.metric("drf0_axiom_seconds", drf0_axiom);
    report.metric("drf0_axiom_speedup", drf0_speedup);
    report.metric("sweep_drf0_programs", sweep_rows.len());
    report.metric("sweep_explorer_seconds", sweep_explorer);
    report.metric("sweep_axiom_seconds", sweep_axiom);
    report.metric("sweep_axiom_speedup", sweep_speedup);
    report.metric("sweep_axiom_work", sweep_axiom_work);
    report.metric("total_explorer_seconds", total_explorer);
    report.metric("total_axiom_seconds", total_axiom);
    report.metric("total_axiom_speedup", ratio(total_explorer, total_axiom));
    report.metric("total_routed_seconds", total_routed);
    report.metric("total_best_servable_seconds", total_best);
    report.metric("routed_regret", routed_regret);
    for r in &rows {
        report.row(
            report::Row::new(r.name.clone())
                .with("axiom_us", r.axiom_secs * 1e6)
                .with("explorer_us", r.explorer_secs * 1e6)
                .with("routed_us", r.routed_secs * 1e6)
                .with("axiom_work", r.axiom_work)
                .with("axiom_verdict", r.axiom_verdict.to_string())
                .with("operational_verdict", r.operational.to_string()),
        );
    }
    // No program certified DRF0 by both engines means the relational
    // engine's fast path is not firing.
    report.min("drf0_corpus_programs", Some(1.0));
    report.min("sweep_drf0_programs", Some(1.0));
    report.min("drf0_axiom_speedup", min_speedup);
    report.min("sweep_axiom_speedup", min_sweep_speedup);
    report.max("routed_regret", max_routed_regret);
    std::process::exit(report.write(&out));
}
