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
//! Exits nonzero on any verdict divergence, when a speedup floor is
//! given and the measured speedup falls below it, or when a routed-regret
//! ceiling is given and the routed regret exceeds it.
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

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use litmus::explore::{drf0_verdict, Drf0Verdict, ExploreConfig};
use litmus::{Program, Reg, Thread};
use memory_model::Loc;
use wo_axiom::{decide_drf0, AxiomConfig, AxiomVerdict};
use wo_serve::cache::KindGroup;
use wo_serve::compute_answer;

struct Args {
    smoke: bool,
    out: PathBuf,
    corpus_dir: Option<PathBuf>,
    min_speedup: Option<f64>,
    min_sweep_speedup: Option<f64>,
    max_routed_regret: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: PathBuf::from("BENCH_axiom.json"),
        corpus_dir: None,
        min_speedup: None,
        min_sweep_speedup: None,
        max_routed_regret: None,
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
            "--min-speedup" => {
                args.min_speedup = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--min-speedup needs a number")),
                );
            }
            "--min-sweep-speedup" => {
                args.min_sweep_speedup = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--min-sweep-speedup needs a number")),
                );
            }
            "--max-routed-regret" => {
                args.max_routed_regret = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--max-routed-regret needs a number")),
                );
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args
}

fn usage(msg: &str) -> ! {
    eprintln!("axiom_bench: {msg}");
    eprintln!(
        "usage: axiom_bench [--smoke] [--out PATH] [--corpus DIR] [--min-speedup F] \
         [--min-sweep-speedup F] [--max-routed-regret F]"
    );
    std::process::exit(2);
}

/// One writer publishes data behind a sync flag; `readers` threads each
/// sync-read the flag and touch the data only when they saw it set. Every
/// subset of readers can win the race to the flag, so the explorer walks
/// an interleaving space exponential in `readers`, while each relational
/// candidate fixes one flag observation per reader and the Lemma 1 fast
/// path emits its unique result directly.
fn mp_fan(readers: usize) -> Program {
    let mut threads = vec![Thread::new().write(Loc(0), 42).sync_write(Loc(1), 1)];
    for _ in 0..readers {
        threads.push(
            Thread::new()
                .sync_read(Loc(1), Reg(0))
                .branch_eq(Reg(0), 0u64, 3)
                .read(Loc(0), Reg(1)),
        );
    }
    Program::new(threads).expect("mp_fan is well-formed")
}

/// `k` writers each sync-publish a distinct location; `k` readers each
/// sync-read two of them (IRIW widened from 2+2 to k+k).
fn iriw_fan(k: usize) -> Program {
    let mut threads = Vec::with_capacity(2 * k);
    for j in 0..k {
        threads.push(Thread::new().sync_write(Loc(j as u32), 1));
    }
    for i in 0..k {
        threads.push(
            Thread::new()
                .sync_read(Loc(i as u32), Reg(0))
                .sync_read(Loc(((i + 1) % k) as u32), Reg(1)),
        );
    }
    Program::new(threads).expect("iriw_fan is well-formed")
}

/// A flag-gated pipeline: stage `i` waits (one shot) on stage `i-1`'s
/// flag, forwards the datum, and raises its own flag.
fn pipeline(stages: usize) -> Program {
    let data = |i: usize| Loc(2 * i as u32);
    let flag = |i: usize| Loc(2 * i as u32 + 1);
    let mut threads = vec![Thread::new().write(data(0), 7).sync_write(flag(0), 1)];
    for i in 1..stages {
        threads.push(
            Thread::new()
                .sync_read(flag(i - 1), Reg(0))
                .branch_eq(Reg(0), 0u64, 5)
                .read(data(i - 1), Reg(1))
                .write(data(i), Reg(1))
                .sync_write(flag(i), 1),
        );
    }
    Program::new(threads).expect("pipeline is well-formed")
}

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

/// Minimum wall time over `iters` runs of `f`, plus the last result.
fn timed<T>(iters: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("iters >= 1"))
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
    let args = parse_args();
    let mut programs =
        wo_bench::workload(args.corpus_dir.as_deref()).unwrap_or_else(|e| usage(&e.to_string()));
    programs.extend(scaled_workload(args.smoke));
    let explore_budget = ExploreConfig {
        max_ops_per_execution: if args.smoke { 40 } else { 48 },
        max_total_steps: if args.smoke { 300_000 } else { 3_000_000 },
        ..ExploreConfig::default()
    };
    let axiom_budget = AxiomConfig {
        // Independent unit from explorer steps; sized so budget exhaustion
        // never masquerades as slowness on this corpus.
        max_work: 50_000_000,
        ..AxiomConfig::from_explore(&explore_budget)
    };
    let iters: u32 = if args.smoke { 1 } else { 3 };
    println!(
        "axiom_bench: {} programs, {} timing iters{}",
        programs.len(),
        iters,
        if args.smoke { " (smoke)" } else { "" }
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut divergences: Vec<String> = Vec::new();
    for (name, program) in &programs {
        let (ax_secs, ax) = timed(iters, || decide_drf0(program, &axiom_budget));
        let (op_secs, op) = timed(iters, || drf0_verdict(program, &explore_budget));
        let (routed_secs, _) =
            timed(iters, || compute_answer(KindGroup::Explore, program, &explore_budget));
        match (&ax.verdict, &op) {
            (AxiomVerdict::Unknown(_), _) | (_, Drf0Verdict::BudgetExceeded(_)) => {}
            (AxiomVerdict::Drf0, Drf0Verdict::Drf0)
            | (AxiomVerdict::Racy, Drf0Verdict::Racy) => {}
            (a, o) => divergences.push(format!("{name}: axiomatic {a}, operational {o}")),
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
    // budget, not the decider). The litmus sweep gets the same aggregate
    // reported — un-gated — so the JSON also records where the explorer's
    // DPOR reduction wins on microsecond-scale programs.
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
    let total_speedup = ratio(total_explorer, total_axiom);
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

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"workload\": \"drf0-scaling + litmus-sweep\",");
    let _ = writeln!(json, "  \"programs\": {},", rows.len());
    let _ = writeln!(json, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(json, "  \"timing_iters\": {iters},");
    let _ = writeln!(json, "  \"divergences\": {},", divergences.len());
    let _ = writeln!(json, "  \"drf0_corpus_programs\": {},", drf0_rows.len());
    let _ = writeln!(json, "  \"drf0_explorer_seconds\": {drf0_explorer:.6},");
    let _ = writeln!(json, "  \"drf0_axiom_seconds\": {drf0_axiom:.6},");
    let _ = writeln!(json, "  \"drf0_axiom_speedup\": {drf0_speedup:.3},");
    let _ = writeln!(json, "  \"sweep_drf0_programs\": {},", sweep_rows.len());
    let _ = writeln!(json, "  \"sweep_explorer_seconds\": {sweep_explorer:.6},");
    let _ = writeln!(json, "  \"sweep_axiom_seconds\": {sweep_axiom:.6},");
    let _ = writeln!(json, "  \"sweep_axiom_speedup\": {sweep_speedup:.3},");
    let _ = writeln!(json, "  \"sweep_axiom_work\": {sweep_axiom_work},");
    let _ = writeln!(json, "  \"total_explorer_seconds\": {total_explorer:.6},");
    let _ = writeln!(json, "  \"total_axiom_seconds\": {total_axiom:.6},");
    let _ = writeln!(json, "  \"total_axiom_speedup\": {total_speedup:.3},");
    let _ = writeln!(json, "  \"total_routed_seconds\": {total_routed:.6},");
    let _ = writeln!(json, "  \"total_best_servable_seconds\": {total_best:.6},");
    let _ = writeln!(json, "  \"routed_regret\": {routed_regret:.3},");
    let _ = writeln!(json, "  \"per_program\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"axiom_us\": {:.1}, \"explorer_us\": {:.1}, \
             \"routed_us\": {:.1}, \"axiom_work\": {}, \"axiom_verdict\": \"{}\", \
             \"operational_verdict\": \"{}\"}}{comma}",
            row.name,
            row.axiom_secs * 1e6,
            row.explorer_secs * 1e6,
            row.routed_secs * 1e6,
            row.axiom_work,
            row.axiom_verdict,
            row.operational,
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write(&args.out, &json).expect("write BENCH_axiom.json");

    println!("\nwrote {}", args.out.display());
    println!(
        "drf0 scaling corpus ({} programs): explorer {:.3}s  axiom {:.3}s  speedup {drf0_speedup:.1}x",
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
    if !divergences.is_empty() {
        eprintln!("\nVERDICT DIVERGENCE ({}):", divergences.len());
        for d in &divergences {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
    assert!(
        !drf0_rows.is_empty() && !sweep_rows.is_empty(),
        "no program was certified DRF0 axiomatically; the fast path is not firing"
    );
    if let Some(floor) = args.min_speedup {
        if drf0_speedup < floor {
            eprintln!(
                "SPEEDUP REGRESSION: axiomatic DRF0 deciding ran at {drf0_speedup:.2}x the \
                 explorer on the scaling corpus, below the --min-speedup floor of {floor:.2}"
            );
            std::process::exit(1);
        }
        println!("speedup gate: {drf0_speedup:.2}x >= {floor:.2}x");
    }
    if let Some(floor) = args.min_sweep_speedup {
        if sweep_speedup < floor {
            eprintln!(
                "SWEEP SPEEDUP REGRESSION: the relational engine ran the litmus sweep at \
                 {sweep_speedup:.3}x the explorer, below the --min-sweep-speedup floor \
                 of {floor:.3}"
            );
            std::process::exit(1);
        }
        println!("sweep speedup gate: {sweep_speedup:.3}x >= {floor:.3}x");
    }
    if let Some(ceiling) = args.max_routed_regret {
        if routed_regret > ceiling {
            eprintln!(
                "ROUTING REGRESSION: the routed kernel took {routed_regret:.3}x the best \
                 servable engine time, above the --max-routed-regret ceiling of {ceiling:.3}"
            );
            std::process::exit(1);
        }
        println!("routed regret gate: {routed_regret:.3} <= {ceiling:.3}");
    }
}
