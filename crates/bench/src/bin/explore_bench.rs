//! Explorer performance baseline + differential soundness gate.
//!
//! Runs the DRF0 sweep workload — the same "classify every program"
//! shape the fuzz oracle drives — through the exploration strategies:
//!
//! * `explore` — the unreduced ground truth,
//! * `explore_dpor` — sleep-set partial-order reduction,
//!
//! cross-checking `results`/`outcomes`/`races` and the DRF0 verdict
//! between them on every program where both complete (the differential
//! discipline that caught PR 1's unsound prune), and emits a
//! machine-readable `BENCH_explore.json` so later PRs have a perf
//! trajectory to beat: programs/sec per strategy, states visited, states
//! pruned, peak visited-set size, and the DPOR speedup over the
//! unreduced baseline. The third row, `converged_state`, benchmarks
//! [`litmus::explore::explore_results`] — the interned-digest converged
//! state explorer — on the same sweep, and checks its `results` and
//! `outcomes` against the unreduced explorer's.
//!
//! `peak_visited_set` is the **maximum** visited-set size any single
//! program reached, not a sum across programs (visited sets are
//! per-program and freed between programs, so summing would overstate
//! memory by orders of magnitude).
//!
//! Exits nonzero on any differential divergence, or when
//! `--min-converged-pps` is given and the converged-state explorer falls
//! below that throughput floor (the regression gate for PR 8's
//! state-key fix).
//!
//! Usage:
//!
//! ```text
//! explore_bench [--smoke] [--out PATH] [--corpus DIR] [--min-converged-pps F]
//!   --smoke        CI variant: smaller step budgets, same corpus
//!   --out PATH     where to write the JSON (default BENCH_explore.json)
//!   --corpus DIR   litmus-tests directory (default: auto-detected)
//!   --min-converged-pps F   fail if converged_state programs/sec < F
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use litmus::explore::{explore, explore_dpor, verdict_of, ExploreConfig, ExploreReport};

struct Args {
    smoke: bool,
    out: PathBuf,
    corpus_dir: Option<PathBuf>,
    min_converged_pps: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: PathBuf::from("BENCH_explore.json"),
        corpus_dir: None,
        min_converged_pps: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => {
                args.out = it.next().map(PathBuf::from).unwrap_or_else(|| usage("--out needs a path"));
            }
            "--corpus" => {
                args.corpus_dir =
                    Some(it.next().map(PathBuf::from).unwrap_or_else(|| usage("--corpus needs a dir")));
            }
            "--min-converged-pps" => {
                args.min_converged_pps = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--min-converged-pps needs a number")),
                );
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args
}

fn usage(msg: &str) -> ! {
    eprintln!("explore_bench: {msg}");
    eprintln!(
        "usage: explore_bench [--smoke] [--out PATH] [--corpus DIR] [--min-converged-pps F]"
    );
    std::process::exit(2);
}

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

fn timed(f: impl FnOnce() -> ExploreReport) -> (f64, ExploreReport) {
    let start = Instant::now();
    let report = f();
    (start.elapsed().as_secs_f64(), report)
}

fn main() {
    let args = parse_args();
    let programs =
        wo_bench::workload(args.corpus_dir.as_deref()).unwrap_or_else(|e| usage(&e.to_string()));
    let budget = ExploreConfig {
        max_ops_per_execution: if args.smoke { 40 } else { 48 },
        max_total_steps: if args.smoke { 300_000 } else { 3_000_000 },
        ..ExploreConfig::default()
    };
    println!(
        "explore_bench: {} programs, budget {} steps{}",
        programs.len(),
        budget.max_total_steps,
        if args.smoke { " (smoke)" } else { "" }
    );

    let mut full = StrategyStats::default();
    let mut dpor = StrategyStats::default();
    let mut pruned_results = StrategyStats::default();
    let mut divergences: Vec<String> = Vec::new();
    let mut compared = 0usize;

    for (name, program) in &programs {
        let (tf, rf) = timed(|| explore(program, &budget));
        let (td, rd) = timed(|| explore_dpor(program, &budget));
        let (tr, rr) = timed(|| litmus::explore::explore_results(program, &budget));
        full.record(tf, &rf);
        dpor.record(td, &rd);
        pruned_results.record(tr, &rr);

        // Differential gate. Budget-limited runs truncate different tree
        // regions, so only mutually complete pairs are comparable.
        if rf.complete && rd.complete {
            compared += 1;
            if rf.results != rd.results {
                divergences.push(format!("{name}: dpor results differ from full"));
            }
            if rf.outcomes != rd.outcomes {
                divergences.push(format!("{name}: dpor outcomes differ from full"));
            }
            if rf.races != rd.races {
                divergences.push(format!("{name}: dpor races differ from full"));
            }
            if verdict_of(&rf) != verdict_of(&rd) {
                divergences.push(format!("{name}: dpor verdict differs from full"));
            }
            if rd.steps > rf.steps {
                divergences.push(format!("{name}: dpor expanded more states than full"));
            }
        }
        if rf.complete && rr.complete {
            if rf.results != rr.results {
                divergences.push(format!("{name}: converged-state results differ from full"));
            }
            if rf.outcomes != rr.outcomes {
                divergences.push(format!("{name}: converged-state outcomes differ from full"));
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

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"workload\": \"drf0-sweep\",");
    let _ = writeln!(json, "  \"programs\": {n},");
    let _ = writeln!(json, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(json, "  \"max_total_steps\": {},", budget.max_total_steps);
    let _ = writeln!(json, "  \"compared_complete_pairs\": {compared},");
    let _ = writeln!(json, "  \"divergences\": {},", divergences.len());
    for (key, stats) in [
        ("full", &full),
        ("dpor", &dpor),
        ("converged_state", &pruned_results),
    ] {
        let _ = writeln!(json, "  \"{key}\": {{");
        let _ = writeln!(json, "    \"seconds\": {:.6},", stats.total_secs);
        let _ = writeln!(json, "    \"programs_per_sec\": {:.3},", stats.programs_per_sec(n));
        let _ = writeln!(json, "    \"states_visited\": {},", stats.steps);
        let _ = writeln!(json, "    \"states_pruned\": {},", stats.pruned);
        let _ = writeln!(json, "    \"peak_visited_set\": {},", stats.peak_visited);
        let _ = writeln!(json, "    \"completed_programs\": {}", stats.completed);
        let _ = writeln!(json, "  }},");
    }
    let _ = writeln!(json, "  \"dpor_speedup_vs_full\": {speedup:.3}");
    json.push_str("}\n");
    std::fs::write(&args.out, &json).expect("write BENCH_explore.json");

    println!("\nwrote {}", args.out.display());
    println!(
        "full: {:.2} programs/sec   dpor: {:.2} programs/sec   speedup {speedup:.1}x",
        full.programs_per_sec(n),
        dpor.programs_per_sec(n),
    );
    if !divergences.is_empty() {
        eprintln!("\nDIFFERENTIAL DIVERGENCE ({}):", divergences.len());
        for d in &divergences {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
    assert!(compared > 0, "no program completed under both explorers; budget too small");
    println!("differential check: {compared} complete pairs agree");

    if let Some(floor) = args.min_converged_pps {
        let pps = pruned_results.programs_per_sec(n);
        if pps < floor {
            eprintln!(
                "THROUGHPUT REGRESSION: converged_state ran at {pps:.3} programs/sec, \
                 below the --min-converged-pps floor of {floor:.3}"
            );
            std::process::exit(1);
        }
        println!("converged_state throughput gate: {pps:.3} >= {floor:.3} programs/sec");
    }
}
