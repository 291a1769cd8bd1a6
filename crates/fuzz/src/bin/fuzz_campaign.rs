//! Differential fuzzing campaign against the Definition 2 contract.
//!
//! Generates seeded litmus programs with construction-time DRF0/racy
//! labels, cross-checks the labels against the dynamic race detector, runs
//! DRF0-labeled programs on the weak-ordering machines under
//! fault-injecting interconnects, and asserts every completed run appears
//! sequentially consistent with an outcome inside the idealized SC set.
//! Failing seeds are shrunk to minimal `.litmus` repros.
//!
//! For a fixed `--seeds A..B` range the summary is deterministic and
//! independent of `--threads`.
//!
//! Usage:
//!
//! ```text
//! fuzz_campaign [--seeds A..B | --seeds N] [--threads N] [--fault-seeds K]
//!               [--max-seconds S] [--server ADDR]
//!               [--inject-prune-bug] [--no-shrink] [--smoke] [--verbose]
//!   --seeds A..B        seed range, end exclusive      (default 0..1000)
//!   --seeds N           shorthand for 0..N
//!   --threads N         worker threads                 (default: all cores)
//!   --fault-seeds K     fault plans per machine/profile (default 1)
//!   --max-seconds S     wall-clock budget (breaks fixed-range determinism)
//!   --server ADDR       ask a wo-serve daemon for DRF0 verdicts; the whole
//!                       corpus is prefetched over one pipelined wo-serve/2
//!                       batch connection, prefetch misses take one v1
//!                       round trip each, and any client failure falls
//!                       back to local computation
//!   --inject-prune-bug  sabotage the SC reference with the historical
//!                       state-only prune bug; the campaign must catch it
//!   --no-shrink         skip failure minimization
//!   --smoke             quick CI variant: 0..120, 2 threads
//!   --verbose           per-seed lines
//! ```

use wo_bench::table;
use wo_fuzz::campaign::{run_campaign, CampaignConfig};
use wo_fuzz::gen::{generate, GenConfig};
use wo_fuzz::oracle::{machines, profiles, SeedVerdict};

struct Args {
    cfg: CampaignConfig,
    verbose: bool,
    injected: bool,
}

fn parse_args() -> Args {
    let mut cfg = CampaignConfig::default();
    let mut verbose = false;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => {
                let spec = it.next().unwrap_or_else(|| usage("--seeds needs a value"));
                let (start, end) = parse_seed_range(&spec)
                    .unwrap_or_else(|| usage("--seeds wants `N` or `A..B`"));
                cfg.seed_start = start;
                cfg.seed_end = end;
            }
            "--threads" => {
                cfg.threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a number"));
            }
            "--fault-seeds" => {
                cfg.oracle.fault_seeds = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--fault-seeds needs a number"));
            }
            "--max-seconds" => {
                cfg.max_seconds = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--max-seconds needs a number")),
                );
            }
            "--server" => {
                cfg.oracle.remote =
                    Some(it.next().unwrap_or_else(|| usage("--server needs an address")));
            }
            "--inject-prune-bug" => cfg.oracle.inject_prune_bug = true,
            "--no-shrink" => cfg.shrink_failures = false,
            "--smoke" => smoke = true,
            "--verbose" => verbose = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if smoke {
        cfg.seed_start = 0;
        cfg.seed_end = cfg.seed_end.min(120);
        if cfg.threads == 0 {
            cfg.threads = 2;
        }
    }
    if cfg.seed_end <= cfg.seed_start {
        usage("empty seed range");
    }
    let injected = cfg.oracle.inject_prune_bug;
    Args { cfg, verbose, injected }
}

fn parse_seed_range(spec: &str) -> Option<(u64, u64)> {
    if let Some((a, b)) = spec.split_once("..") {
        Some((a.parse().ok()?, b.parse().ok()?))
    } else {
        Some((0, spec.parse().ok()?))
    }
}

fn usage(err: &str) -> ! {
    eprintln!("fuzz_campaign: {err}");
    eprintln!(
        "usage: fuzz_campaign [--seeds A..B|N] [--threads N] [--fault-seeds K] \
         [--max-seconds S] [--server ADDR] [--inject-prune-bug] [--no-shrink] \
         [--smoke] [--verbose]"
    );
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let cfg = &args.cfg;
    println!(
        "wo-fuzz campaign — seeds {}..{} ({} machines x {} fault profiles x {} fault seed(s)){}{}",
        cfg.seed_start,
        cfg.seed_end,
        machines().len(),
        profiles().len(),
        cfg.oracle.fault_seeds,
        match &cfg.oracle.remote {
            Some(addr) => format!("  [DRF0 verdicts via wo-serve at {addr}]"),
            None => String::new(),
        },
        if args.injected { "  [SC reference sabotaged: --inject-prune-bug]" } else { "" }
    );

    let summary = run_campaign(cfg);

    if args.verbose {
        let gen_cfg: GenConfig = cfg.gen;
        for seed in cfg.seed_start..cfg.seed_start + summary.seeds_run {
            let gp = generate(seed, &gen_cfg);
            println!("  seed {seed}: {} [{}]", gp.name(), gp.label);
        }
    }

    let mut rows = Vec::new();
    for (family, (runs, passes, unknown)) in &summary.per_family {
        rows.push(vec![
            (*family).to_string(),
            runs.to_string(),
            passes.to_string(),
            unknown.to_string(),
            (runs - passes - unknown).to_string(),
        ]);
    }
    println!(
        "{}",
        table(&["family", "seeds", "passed", "unknown", "failed"], &rows)
    );
    println!(
        "{} seed(s) in {:.2?} on {} thread(s): {} passed, {} budget-exceeded, {} failed{}",
        summary.seeds_run,
        summary.sweep_time,
        summary.threads_used,
        summary.passes,
        summary.budget_exceeded,
        summary.failures.len(),
        if summary.truncated { " (truncated by wall-clock budget)" } else { "" }
    );

    if summary.failed() {
        println!("\nFAILURES ({}):", summary.failures.len());
        for f in &summary.failures {
            println!(
                "  seed {} ({}) [{}]:",
                f.record.seed, f.record.name, f.record.label
            );
            for finding in &f.findings {
                println!("    {finding}");
            }
            if let (Some(repro), Some(ops)) = (&f.repro, f.repro_ops) {
                println!("    minimized to {ops} static memory op(s):");
                for line in repro.lines() {
                    println!("      {line}");
                }
            }
            match &f.record.verdict {
                SeedVerdict::Fail(_) => {}
                other => println!("    (verdict drifted on replay: {other:?})"),
            }
        }
        println!(
            "\nreproduce one seed with: cargo run --release -p wo-fuzz --bin fuzz_campaign -- \
             --seeds S..S+1{}",
            if args.injected { " --inject-prune-bug" } else { "" }
        );
        std::process::exit(1);
    }
    println!(
        "all completed machine runs appeared sequentially consistent within the SC outcome set"
    );
}
