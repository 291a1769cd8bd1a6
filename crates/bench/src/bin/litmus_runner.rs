//! A file-driven litmus runner: parses every `.litmus` file in a
//! directory, classifies it under DRF0, runs it on a chosen machine
//! across seeds, and reports the distinct outcomes with their
//! sequential-consistency verdicts.
//!
//! Usage:
//!
//! ```text
//! litmus_runner [DIR] [MACHINE] [SEEDS]
//!   DIR      directory of .litmus files      (default: litmus-tests)
//!   MACHINE  sc | relaxed | def1 | def2 | def2opt | snoop (default: def2)
//!   SEEDS    number of seeds per program     (default: 12)
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use litmus::explore::ExploreConfig;
use litmus::parse::parse_program;
use litmus::Program;
use memsim::{presets, MachineConfig, Policy};
use weakord::verify::{audit, seeded_runs, CellVerdict};
use weakord::{Drf0, ModelVerdict, SynchronizationModel};
use wo_bench::table;

fn machine_for(name: &str, procs: usize, seed: u64) -> Option<MachineConfig> {
    Some(match name {
        "sc" => presets::network_cached(procs, presets::sc(), seed),
        "relaxed" => {
            presets::network_cached(procs, Policy::Relaxed { write_delay: 0 }, seed)
        }
        "def1" => presets::network_cached(procs, presets::wo_def1(), seed),
        "def2" => presets::network_cached(procs, presets::wo_def2(), seed),
        "def2opt" => presets::network_cached(procs, presets::wo_def2_optimized(), seed),
        "snoop" => presets::bus_cached_snooping(procs, presets::wo_def1(), seed),
        _ => return None,
    })
}

fn drf0_verdict(program: &Program) -> &'static str {
    let budget = ExploreConfig {
        max_ops_per_execution: 40,
        max_total_steps: 300_000,
        ..ExploreConfig::default()
    };
    match Drf0.obeys(program, &budget) {
        ModelVerdict::Obeys => "drf0",
        ModelVerdict::Violates(_) => "racy",
        ModelVerdict::Unknown => "unknown",
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = PathBuf::from(args.next().unwrap_or_else(|| "litmus-tests".into()));
    let machine = args.next().unwrap_or_else(|| "def2".into());
    let seeds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(12);

    let mut files: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "litmus"))
            .collect(),
        Err(e) => {
            eprintln!("cannot read {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!("no .litmus files in {}", dir.display());
        std::process::exit(1);
    }

    println!(
        "litmus runner — {} file(s) from {}, machine `{machine}`, {seeds} seed(s)\n",
        files.len(),
        dir.display()
    );
    let mut rows = Vec::new();
    for path in &files {
        let name = path.file_stem().map_or_else(String::new, |s| s.to_string_lossy().into());
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                rows.push(vec![name, format!("io error: {e}"), String::new(), String::new()]);
                continue;
            }
        };
        let program = match parse_program(&text) {
            Ok(p) => p,
            Err(e) => {
                rows.push(vec![name, format!("parse error: {e}"), String::new(), String::new()]);
                continue;
            }
        };
        let Some(base) = machine_for(&machine, program.num_threads(), 0) else {
            eprintln!("unknown machine `{machine}`");
            std::process::exit(1);
        };

        let mut outcomes: BTreeMap<String, u64> = BTreeMap::new();
        let mut sc_runs = 0u64;
        let mut non_sc = 0u64;
        let mut incomplete = 0u64;
        for (outcome, verdict) in audit(&program, &seeded_runs(&base, 0..seeds), None, 0) {
            match verdict {
                CellVerdict::AppearsSc => sc_runs += 1,
                CellVerdict::NotSc => non_sc += 1,
                _ => incomplete += 1,
            }
            let Some(result) = outcome.ok() else { continue };
            let summary: Vec<String> = result
                .outcome
                .regs
                .iter()
                .map(|r| r[..4].iter().map(u64::to_string).collect::<Vec<_>>().join(","))
                .collect();
            *outcomes.entry(format!("[{}]", summary.join(" | "))).or_insert(0) += 1;
        }
        let top = outcomes
            .iter()
            .max_by_key(|&(_, n)| n)
            .map(|(o, n)| format!("{o} x{n}"))
            .unwrap_or_default();
        rows.push(vec![
            name,
            drf0_verdict(&program).to_string(),
            format!("{sc_runs}/{non_sc}/{incomplete}"),
            format!("{} distinct, top {top}", outcomes.len()),
        ]);
    }
    println!(
        "{}",
        table(
            &["file", "DRF0", "SC/viol/inc", "outcomes (r0..r3 per thread)"],
            &rows
        )
    );
}
