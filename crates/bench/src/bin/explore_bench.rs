//! Explorer performance baseline + differential soundness gate.
//!
//! Runs the DRF0 sweep workload — the same "classify every program"
//! shape the fuzz oracle drives — through the exploration strategies:
//!
//! * `explore` — the unreduced ground truth,
//! * `explore_dpor` — sleep-set partial-order reduction,
//!
//! cross-checking `results`, the outcomes derived from them
//! (`ExploreReport::outcomes`), `races` and the DRF0 verdict
//! between them on every program where both complete (the differential
//! discipline that caught PR 1's unsound prune), and writes
//! `BENCH_explore.json` in the [`wo_bench::report`] schema so later PRs
//! have a perf trajectory to beat: programs/sec per strategy, states
//! visited, states pruned, peak visited-set size, and the DPOR speedup
//! over the unreduced baseline. The third strategy, `converged_state`,
//! benchmarks [`litmus::explore::explore_results`] — the interned-digest
//! converged state explorer — on the same sweep, and checks its `results`
//! and derived outcomes against the unreduced explorer's.
//!
//! `peak_visited_set` is the **maximum** visited-set size any single
//! program reached, not a sum across programs (visited sets are
//! per-program and freed between programs, so summing would overstate
//! memory by orders of magnitude).
//!
//! Exits 1 after writing on any differential divergence, when no program
//! completed under both explorers (the budget is too small to compare
//! anything), or when a gate is given and missed:
//! `--min-converged-pps` for the converged-state explorer (the regression
//! gate for the interned state key, which replaced a quadratic one),
//! `--min-dpor-pps` for the DPOR explorer (the gate for steps that keep
//! no state digest and undo their clocks without allocating), and
//! `--max-dpor-states`, a ceiling on the states the DPOR explorer expands
//! over the sweep: a count that repeats exactly from run to run and host
//! to host, so it catches a reduction that stops pruning with no timing
//! noise.
//!
//! Usage:
//!
//! ```text
//! explore_bench [--smoke] [--out PATH] [--corpus DIR] [--min-converged-pps F]
//!               [--min-dpor-pps F] [--max-dpor-states N]
//!   --smoke        CI variant: smaller step budgets, same corpus
//!   --out PATH     where to write the JSON (default BENCH_explore.json)
//!   --corpus DIR   litmus-tests directory (default: auto-detected)
//!   --min-converged-pps F   fail if converged_state programs/sec < F
//!   --min-dpor-pps F        fail if dpor programs/sec < F
//!   --max-dpor-states N     fail if dpor states visited > N
//! ```

use std::path::PathBuf;

use litmus::explore::{explore, explore_dpor, verdict_of, ExploreConfig, ExploreReport};
use wo_bench::report::{self, best_of, Report};

const USAGE: &str = "explore_bench [--smoke] [--out PATH] [--corpus DIR] [--min-converged-pps F] \
                     [--min-dpor-pps F] [--max-dpor-states N]";

#[derive(Default)]
struct StrategyStats {
    total_secs: f64,
    steps: usize,
    pruned: usize,
    peak_visited: usize,
    completed: usize,
}

impl StrategyStats {
    fn record(&mut self, secs: f64, report: &ExploreReport) {
        self.total_secs += secs;
        self.steps += report.steps;
        self.pruned += report.pruned;
        self.peak_visited = self.peak_visited.max(report.peak_visited);
        if report.complete {
            self.completed += 1;
        }
    }

    fn programs_per_sec(&self, programs: usize) -> f64 {
        if self.total_secs > 0.0 { programs as f64 / self.total_secs } else { f64::INFINITY }
    }
}

fn main() {
    let mut smoke = false;
    let mut out = PathBuf::from("BENCH_explore.json");
    let mut corpus_dir: Option<PathBuf> = None;
    let mut min_converged_pps = None;
    let mut min_dpor_pps = None;
    let mut max_dpor_states = None;
    report::parse_args(USAGE, |flag, args| {
        match flag {
            "--smoke" => smoke = true,
            "--out" => out = args.value(flag)?,
            "--corpus" => corpus_dir = Some(args.value(flag)?),
            "--min-converged-pps" => min_converged_pps = Some(args.value(flag)?),
            "--min-dpor-pps" => min_dpor_pps = Some(args.value(flag)?),
            "--max-dpor-states" => max_dpor_states = Some(args.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    });
    let programs = wo_bench::workload(corpus_dir.as_deref()).expect("load the litmus corpus");
    let budget = ExploreConfig {
        max_ops_per_execution: if smoke { 40 } else { 48 },
        max_total_steps: if smoke { 300_000 } else { 3_000_000 },
        ..ExploreConfig::default()
    };
    println!(
        "explore_bench: {} programs, budget {} steps{}",
        programs.len(),
        budget.max_total_steps,
        if smoke { " (smoke)" } else { "" }
    );

    let mut report = Report::new("explore_bench", "drf0-sweep", smoke);
    let mut full = StrategyStats::default();
    let mut dpor = StrategyStats::default();
    let mut pruned_results = StrategyStats::default();
    let mut compared = 0usize;

    for (name, program) in &programs {
        let (tf, rf) = best_of(1, || explore(program, &budget));
        let (td, rd) = best_of(1, || explore_dpor(program, &budget));
        let (tr, rr) = best_of(1, || litmus::explore::explore_results(program, &budget));
        full.record(tf, &rf);
        dpor.record(td, &rd);
        pruned_results.record(tr, &rr);

        // Differential gate. Budget-limited runs truncate different tree
        // regions, so only mutually complete pairs are comparable.
        if rf.complete && rd.complete {
            compared += 1;
            if rf.results != rd.results {
                report.diverge(format!("{name}: dpor results differ from full"));
            }
            if rf.outcomes(program) != rd.outcomes(program) {
                report.diverge(format!("{name}: dpor outcomes differ from full"));
            }
            if rf.races != rd.races {
                report.diverge(format!("{name}: dpor races differ from full"));
            }
            if verdict_of(&rf) != verdict_of(&rd) {
                report.diverge(format!("{name}: dpor verdict differs from full"));
            }
            if rd.steps > rf.steps {
                report.diverge(format!("{name}: dpor expanded more states than full"));
            }
        }
        if rf.complete && rr.complete {
            if rf.results != rr.results {
                report.diverge(format!("{name}: converged-state results differ from full"));
            }
            if rf.outcomes(program) != rr.outcomes(program) {
                report.diverge(format!("{name}: converged-state outcomes differ from full"));
            }
        }
        println!(
            "  {name:<40} full {:>9} steps  dpor {:>9} steps ({:>8} pruned)  {:.1}x",
            rf.steps,
            rd.steps,
            rd.pruned,
            if td > 0.0 { tf / td } else { 0.0 },
        );
    }

    let n = programs.len();
    let speedup = if dpor.total_secs > 0.0 { full.total_secs / dpor.total_secs } else { f64::INFINITY };
    println!(
        "\nfull: {:.2} programs/sec   dpor: {:.2} programs/sec   speedup {speedup:.1}x   \
         {compared} complete pairs compared",
        full.programs_per_sec(n),
        dpor.programs_per_sec(n),
    );

    report.metric("programs", n);
    report.metric("max_total_steps", budget.max_total_steps);
    report.metric("compared_complete_pairs", compared);
    for (key, stats) in [("full", &full), ("dpor", &dpor), ("converged_state", &pruned_results)] {
        report.metric(format!("{key}.seconds"), stats.total_secs);
        report.metric(format!("{key}.programs_per_sec"), stats.programs_per_sec(n));
        report.metric(format!("{key}.states_visited"), stats.steps);
        report.metric(format!("{key}.states_pruned"), stats.pruned);
        report.metric(format!("{key}.peak_visited_set"), stats.peak_visited);
        report.metric(format!("{key}.completed_programs"), stats.completed);
    }
    report.metric("dpor_speedup_vs_full", speedup);
    report.min("compared_complete_pairs", Some(1.0));
    report.min("converged_state.programs_per_sec", min_converged_pps);
    report.min("dpor.programs_per_sec", min_dpor_pps);
    report.max("dpor.states_visited", max_dpor_states);
    std::process::exit(report.write(&out));
}
