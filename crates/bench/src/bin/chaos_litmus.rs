//! Chaos-litmus sweep: the Definition 2 contract under an adversarial
//! interconnect.
//!
//! Runs the full DRF0 litmus corpus on the paper's weak-ordering
//! implementations while a seeded fault plan perturbs every message —
//! extra latency, bounded reordering, duplicated recalls, and detectably
//! dropped (NACKed and retried) traffic — and asserts the property the
//! paper promises: **hardware obeying Definition 2 appears sequentially
//! consistent to all DRF0 software**, no matter what the network does.
//!
//! Every completed run must (a) pass the `check_sc` appearance test and
//! (b) produce a result contained in the idealized SC outcome set.
//! Aborted runs are acceptable only as *structured*
//! [`memsim::RunError`]s (with a diagnostic dump), and only under fault
//! profiles that actually lose messages; panics are never acceptable. Failures print the
//! machine/profile/seed triple that reproduces them. Every run is judged
//! by the one Definition 2 audit, [`weakord::verify::audit`], on the
//! chaos grid the fuzz oracle shares ([`weakord::verify::machines`] ×
//! [`weakord::verify::profiles`]).
//!
//! Usage:
//!
//! ```text
//! chaos_litmus [--seeds N] [--seed-base B] [--smoke] [--verbose]
//!   --seeds N      fault-plan seeds per (program, machine, profile)  (default 25)
//!   --seed-base B  first seed                                        (default 0)
//!   --smoke        quick CI variant: 3 seeds, one machine
//!   --verbose      per-run lines, including structured aborts
//! ```

use std::collections::BTreeMap;

use litmus::explore::{sc_outcomes, ExploreConfig, ScOutcomes};
use litmus::Program;
use memsim::sweep::CellOutcome;
use weakord::verify::{self, CellVerdict};
use wo_bench::{report, table};

const USAGE: &str = "chaos_litmus [--seeds N] [--seed-base B] [--smoke] [--verbose]";

/// The sweep's program set: the hand-written DRF0 corpus plus every
/// DRF0-labeled file from the checked-in generated sample in
/// `litmus-tests/gen/` (wo-fuzz output; see `export_gen_litmus`).
fn sweep_suite() -> Vec<(String, Program)> {
    let mut suite: Vec<(String, Program)> = litmus::corpus::drf0_suite()
        .into_iter()
        .map(|(name, p)| (name.to_string(), p))
        .collect();
    let gen_dir = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../litmus-tests/gen"
    ));
    let mut gen_files: Vec<_> = std::fs::read_dir(gen_dir)
        .expect("litmus-tests/gen exists; run `cargo run --release --example export_gen_litmus`")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "litmus"))
        .collect();
    gen_files.sort();
    for path in gen_files {
        let text = std::fs::read_to_string(&path).expect("readable litmus file");
        if !text.lines().any(|l| l.trim() == "# expect: drf0") {
            continue; // Definition 2 promises nothing for racy programs
        }
        let program = litmus::parse::parse_program(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let name = path.file_stem().expect("file name").to_string_lossy().into_owned();
        suite.push((name, program));
    }
    suite
}

fn reference_outcomes(program: &Program) -> ScOutcomes {
    let cfg = ExploreConfig {
        max_ops_per_execution: 64,
        max_total_steps: 3_000_000,
        ..ExploreConfig::default()
    };
    sc_outcomes(program, &cfg)
}

/// The structured error of an aborted run.
fn abort_error(outcome: CellOutcome) -> memsim::RunError {
    outcome.into_result().expect_err("aborts are errors")
}

#[derive(Default)]
struct Tally {
    runs: u64,
    sc: u64,
    aborted: u64,
    retries: u64,
    failures: Vec<String>,
}

fn main() {
    let (mut seeds, mut seed_base, mut smoke, mut verbose) = (25u64, 0u64, false, false);
    report::parse_args(USAGE, |flag, args| {
        match flag {
            "--seeds" => seeds = args.value(flag)?,
            "--seed-base" => seed_base = args.value(flag)?,
            "--smoke" => smoke = true,
            "--verbose" => verbose = true,
            _ => return Ok(false),
        }
        Ok(true)
    });
    if smoke {
        seeds = seeds.min(3);
    }
    let suite = sweep_suite();
    let mut machines = verify::machines();
    if smoke {
        machines.truncate(1);
    }
    let profiles = verify::profiles();
    println!(
        "chaos litmus sweep — {} DRF0 program(s) x {} machine(s) x {} profile(s) x {} seed(s)\n",
        suite.len(),
        machines.len(),
        profiles.len(),
        seeds
    );

    let mut tallies: BTreeMap<(String, &'static str), Tally> = BTreeMap::new();
    let mut failures = 0u64;

    for (name, program) in suite {
        let reference = reference_outcomes(&program);
        if !reference.complete {
            println!("  note: {name}: SC outcome enumeration incomplete; containment check skipped");
        }
        // One audit per program over the machine × profile × seed grid;
        // outcomes come back in grid order, so the tallies fill exactly as
        // the grid is walked below.
        let seed_range = seed_base..seed_base + seeds;
        let mut grid = Vec::new();
        let mut runs = Vec::new();
        for &(machine, policy) in &machines {
            for &(profile, fault, may_wedge) in &profiles {
                for seed in seed_range.clone() {
                    grid.push((machine, profile, seed));
                    runs.push(verify::chaos_run(&program, policy, fault, may_wedge, seed));
                }
            }
        }
        let audited = verify::audit(&program, &runs, Some(&reference), 0);
        for ((outcome, verdict), (machine, profile, seed)) in audited.into_iter().zip(grid) {
            let tally = tallies.entry((name.clone(), profile)).or_default();
            tally.runs += 1;
            if let Some(chaos) = outcome.ok().and_then(|r| r.stats.chaos) {
                tally.retries += chaos.retries;
            }
            let repro = format!("{name} machine={machine} profile={profile} seed={seed}");
            let failure = match verdict {
                CellVerdict::AppearsSc => {
                    tally.sc += 1;
                    if verbose {
                        println!("  ok    ({repro})");
                    }
                    continue;
                }
                CellVerdict::TolerableAbort => {
                    // A lossy profile may wedge the machine — but only
                    // into a structured, diagnosable abort.
                    tally.aborted += 1;
                    if verbose {
                        println!("  abort ({repro}):\n{}", abort_error(outcome));
                    }
                    continue;
                }
                CellVerdict::Panic => format!("PANIC: {repro}"),
                CellVerdict::UnexpectedAbort => {
                    format!("UNEXPECTED ABORT: {repro}: {}", abort_error(outcome))
                }
                CellVerdict::Incomplete => format!("INCOMPLETE: {repro}"),
                CellVerdict::NotSc => format!("NOT SC: {repro}"),
                CellVerdict::ScUndecided => format!("SC CHECK UNDECIDED: {repro}"),
                CellVerdict::OutsideScSet => format!("OUTCOME OUTSIDE SC SET: {repro}"),
            };
            tally.failures.push(failure);
        }
    }

    let mut rows = Vec::new();
    for ((name, profile), tally) in &tallies {
        rows.push(vec![
            name.clone(),
            (*profile).to_string(),
            tally.runs.to_string(),
            tally.sc.to_string(),
            tally.aborted.to_string(),
            tally.retries.to_string(),
            tally.failures.len().to_string(),
        ]);
        failures += tally.failures.len() as u64;
    }
    println!(
        "{}",
        table(
            &["program", "profile", "runs", "appear-SC", "aborted", "retries", "failures"],
            &rows
        )
    );

    if failures > 0 {
        println!("FAILURES ({failures}):");
        for tally in tallies.values() {
            for f in &tally.failures {
                println!("  {f}");
            }
        }
        println!("\nreproduce with: cargo run --bin chaos_litmus -- --seeds 1 --seed-base <seed>");
        std::process::exit(1);
    }
    println!(
        "all runs appeared sequentially consistent (or aborted with a structured error under a lossy profile)"
    );
}
