//! The wo-trace command-line tool.
//!
//! ```text
//! wo_trace check <FILE> [--shards N] [--threads N] [--release-writes]
//!                       [--batch N] [--max-locations N] [--max-sync N]
//! wo_trace stats <FILE>
//! wo_trace top <FILE> [--limit N] [checker flags]
//! wo_trace emit <PROGRAM> --out FILE [--seeds N] [--policy P]
//! wo_trace synth --out FILE [--events N] [--procs N] [--locations N]
//!                [--sync-locations N] [--sync-percent P] [--racy-percent P]
//!                [--seed S]
//! ```
//!
//! `check` exit codes: 0 = DRF0, 1 = racy, 3 = unknown (a memory cap
//! degraded the verdict), 2 = error (unreadable or corrupt input) — so
//! scripts can branch on the verdict without parsing output.
//!
//! `<PROGRAM>` is a corpus name (`dekker`, `handoff`, `mp-sync`,
//! `mp-data`, `racy-counter`, `spinlock`, `iriw-sync`) or a path to a
//! litmus file parsed by `litmus::parse_program`; the machine has one
//! processor per program thread. `--policy` is one of `sc`, `relaxed`,
//! `wo-def1`, `wo-def2` (default `wo-def2`). `emit` exits 2 when every
//! run fails, naming the first run's error.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::process::ExitCode;

use litmus::parse::parse_program;
use litmus::{corpus, Program};
use memory_model::SyncMode;
use memsim::sweep::CellOutcome;
use memsim::{presets, sweep, Policy, TraceItem, TraceReader, TraceWriter};
use wo_trace::{check_trace_file, write_synth, CheckerConfig, SynthConfig, TraceReport, Verdict};

fn usage() -> ! {
    eprintln!(
        "usage: wo_trace check <FILE> [--shards N] [--threads N] [--release-writes]\n\
         \x20                      [--batch N] [--max-locations N] [--max-sync N]\n\
         \x20      wo_trace stats <FILE>\n\
         \x20      wo_trace top <FILE> [--limit N] [checker flags]\n\
         \x20      wo_trace emit <PROGRAM> --out FILE [--seeds N] [--policy P]\n\
         \x20      wo_trace synth --out FILE [--events N] [--procs N] [--locations N]\n\
         \x20                     [--sync-locations N] [--sync-percent P] [--racy-percent P]\n\
         \x20                     [--seed S]"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("wo_trace: bad value for {flag}: {raw}");
        usage()
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    match command.as_str() {
        "check" => cmd_check(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "top" => cmd_top(&args[1..]),
        "emit" => cmd_emit(&args[1..]),
        "synth" => cmd_synth(&args[1..]),
        "--help" | "-h" => usage(),
        other => {
            eprintln!("wo_trace: unknown command {other}");
            usage()
        }
    }
}

/// Parses the shared checker flags, returning leftover positional args.
fn checker_flags(args: &[String], cfg: &mut CheckerConfig) -> Vec<String> {
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |flag: &str| {
            iter.next().map(String::as_str).unwrap_or_else(|| {
                eprintln!("wo_trace: {flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--shards" => cfg.shards = parse_num(flag, value("--shards")),
            "--threads" => cfg.threads = parse_num(flag, value("--threads")),
            "--batch" => cfg.batch = parse_num(flag, value("--batch")),
            "--max-locations" => {
                cfg.max_tracked_locations = parse_num(flag, value("--max-locations"));
            }
            "--max-sync" => cfg.max_sync_locations = parse_num(flag, value("--max-sync")),
            "--release-writes" => cfg.mode = SyncMode::ReleaseWrites,
            other if other.starts_with("--") => {
                eprintln!("wo_trace: unknown flag {other}");
                usage()
            }
            _ => positional.push(flag.clone()),
        }
    }
    positional
}

fn check_file(args: &[String]) -> Result<(TraceReport, CheckerConfig), ExitCode> {
    let mut cfg = CheckerConfig::default();
    let positional = checker_flags(args, &mut cfg);
    let [file] = positional.as_slice() else { usage() };
    match check_trace_file(Path::new(file), cfg) {
        Ok(report) => Ok((report, cfg)),
        Err(e) => {
            eprintln!("wo_trace: {file}: {e}");
            Err(ExitCode::from(2))
        }
    }
}

fn verdict_exit(verdict: Verdict) -> ExitCode {
    match verdict {
        Verdict::Drf0 => ExitCode::SUCCESS,
        Verdict::Racy => ExitCode::from(1),
        Verdict::Unknown(_) => ExitCode::from(3),
    }
}

fn cmd_check(args: &[String]) -> ExitCode {
    let (report, _) = match check_file(args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    print!("{}", report.canonical_text());
    verdict_exit(report.verdict)
}

fn cmd_top(args: &[String]) -> ExitCode {
    let mut limit = 10usize;
    let mut rest = Vec::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--limit" {
            let raw = iter.next().unwrap_or_else(|| {
                eprintln!("wo_trace: --limit needs a value");
                usage()
            });
            limit = parse_num("--limit", raw);
        } else {
            rest.push(flag.clone());
        }
    }
    let (report, _) = match check_file(&rest) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let mut by_count: Vec<_> = report.racy_locations.clone();
    by_count.sort_by_key(|&(loc, count)| (std::cmp::Reverse(count), loc));
    println!("verdict: {}", report.verdict);
    println!("races: {}", report.total_races);
    for (loc, count) in by_count.into_iter().take(limit) {
        println!("{loc}: {count}");
    }
    verdict_exit(report.verdict)
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let [file] = args else { usage() };
    let reader = match File::open(file)
        .map_err(memsim::TraceError::from)
        .and_then(|f| TraceReader::new(BufReader::new(f)))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wo_trace: {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut reader = reader;
    let (mut segments, mut events, mut sync_events, mut max_procs) = (0u64, 0u64, 0u64, 0u16);
    loop {
        match reader.next_item() {
            Ok(None) => break,
            Ok(Some(TraceItem::SegmentStart { procs, label, .. })) => {
                segments += 1;
                max_procs = max_procs.max(procs);
                println!("segment {}: procs={procs} label={label:?}", segments - 1);
            }
            Ok(Some(TraceItem::Record(rec))) => {
                events += 1;
                if rec.op.kind.is_sync() {
                    sync_events += 1;
                }
            }
            Ok(Some(TraceItem::SegmentEnd { .. })) => {}
            Err(e) => {
                eprintln!("wo_trace: {file}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    println!("segments: {segments}");
    println!("events: {events}");
    println!("sync-events: {sync_events}");
    println!("max-procs: {max_procs}");
    ExitCode::SUCCESS
}

fn corpus_program(name: &str) -> Option<Program> {
    Some(match name {
        "dekker" => corpus::fig1_dekker(),
        "handoff" => corpus::fig3_handoff(1),
        "mp-sync" => corpus::message_passing_sync(4),
        "mp-data" => corpus::message_passing_data(),
        "racy-counter" => corpus::racy_counter(2),
        "spinlock" => corpus::spinlock_bounded(2, 2, 4),
        "iriw-sync" => corpus::iriw_sync(),
        _ => return None,
    })
}

fn policy_by_name(name: &str) -> Policy {
    match name {
        "sc" => presets::sc(),
        "relaxed" => presets::relaxed(),
        "wo-def1" => presets::wo_def1(),
        "wo-def2" => presets::wo_def2(),
        other => {
            eprintln!("wo_trace: unknown policy {other} (sc|relaxed|wo-def1|wo-def2)");
            usage()
        }
    }
}

fn cmd_emit(args: &[String]) -> ExitCode {
    let mut out = None;
    let mut seeds = 8u64;
    let mut policy = presets::wo_def2();
    let mut program_arg = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |flag: &str| {
            iter.next().map(String::as_str).unwrap_or_else(|| {
                eprintln!("wo_trace: {flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--out" => out = Some(value("--out").to_string()),
            "--seeds" => seeds = parse_num(flag, value("--seeds")),
            "--policy" => policy = policy_by_name(value("--policy")),
            other if other.starts_with("--") => {
                eprintln!("wo_trace: unknown flag {other}");
                usage()
            }
            _ => program_arg = Some(flag.clone()),
        }
    }
    let (Some(out), Some(program_arg)) = (out, program_arg) else { usage() };
    let program = match corpus_program(&program_arg) {
        Some(p) => p,
        None => match std::fs::read_to_string(&program_arg) {
            Ok(text) => match parse_program(&text) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("wo_trace: {program_arg}: {e}");
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("wo_trace: {program_arg}: not a corpus name and not readable: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let cells: Vec<sweep::Cell> = (0..seeds)
        .map(|seed| sweep::Cell {
            program: &program,
            config: presets::network_cached(program.num_threads(), policy, seed),
        })
        .collect();
    let file = match File::create(&out) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("wo_trace: {out}: {e}");
            return ExitCode::from(2);
        }
    };
    let run = (|| {
        let mut writer = TraceWriter::new(BufWriter::new(file))?;
        let outcomes = sweep::sweep_traced(&cells, 0, &mut writer)?;
        writer.finish()?;
        Ok::<_, std::io::Error>(outcomes)
    })();
    match run {
        Ok(outcomes) => {
            let ok = outcomes.iter().filter(|o| o.ok().is_some()).count();
            println!("emitted {ok}/{} runs of {program_arg} to {out}", outcomes.len());
            if ok == 0 {
                let first = match outcomes.first() {
                    Some(CellOutcome::Err(e)) => format!("first cell: {e:?}"),
                    Some(CellOutcome::Panicked(msg)) => format!("first cell panicked: {msg}"),
                    _ => "no cell ran".into(),
                };
                eprintln!("wo_trace: every cell failed; trace is empty; {first}");
                return ExitCode::from(2);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wo_trace: {out}: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_synth(args: &[String]) -> ExitCode {
    let mut out = None;
    let mut cfg = SynthConfig::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |flag: &str| {
            iter.next().map(String::as_str).unwrap_or_else(|| {
                eprintln!("wo_trace: {flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--out" => out = Some(value("--out").to_string()),
            "--events" => cfg.events = parse_num(flag, value("--events")),
            "--procs" => cfg.procs = parse_num(flag, value("--procs")),
            "--locations" => cfg.locations = parse_num(flag, value("--locations")),
            "--sync-locations" => cfg.sync_locations = parse_num(flag, value("--sync-locations")),
            "--sync-percent" => cfg.sync_percent = parse_num(flag, value("--sync-percent")),
            "--racy-percent" => cfg.racy_percent = parse_num(flag, value("--racy-percent")),
            "--seed" => cfg.seed = parse_num(flag, value("--seed")),
            other => {
                eprintln!("wo_trace: unknown flag {other}");
                usage()
            }
        }
    }
    let Some(out) = out else { usage() };
    let run = File::create(&out).and_then(|file| {
        let mut writer = TraceWriter::new(BufWriter::new(file))?;
        write_synth(cfg, "synth", &mut writer)?;
        writer.finish().map(drop)
    });
    match run {
        Ok(()) => {
            println!("wrote {} synthetic events to {out}", cfg.events);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wo_trace: {out}: {e}");
            ExitCode::from(2)
        }
    }
}
