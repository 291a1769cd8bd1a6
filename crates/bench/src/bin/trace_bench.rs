//! wo-trace streaming-checker benchmark: the per-phase cost of the
//! incremental DRF0 engine, written to `BENCH_trace.json`.
//!
//! Five phases over a deterministic synthetic stream
//! ([`wo_trace::synth::SynthStream`]), the stream also written once to a
//! temporary trace file, plus a simulate→file→verdict pipeline. Each phase
//! is timed with [`report::best_of`] over five runs:
//!
//! * **decode** — a [`memsim::TraceReader`] loop over the stream's file:
//!   block reads, checksums and event decoding alone;
//! * **cold** — single shard, single thread, on the materialized events:
//!   the raw per-event cost of the vector-clock engine (clock pass,
//!   shard pass, merge);
//! * **file** — `check_trace_file` on the stream's file, single shard and
//!   single thread: decode and check together, what one trace file costs;
//! * **sharded** — the default shard count on the work-stealing pool:
//!   parallel speedup of phase-2 checking;
//! * **pipeline** — `memsim::sweep::sweep_traced` writes a multi-segment
//!   trace file, `check_trace_file` streams it back: end-to-end
//!   simulate → serialize → deserialize → verdict throughput.
//!
//! The file and sharded reports must be **byte-identical** to the cold
//! report, and the decode phase must return every event (any divergence
//! fails the run — determinism is load-bearing, not best-effort).
//!
//! Writes `BENCH_trace.json` in the [`wo_bench::report`] schema (one row
//! per checking phase, with its verdict) and exits 1 after writing on a
//! divergence or a failed gate.
//!
//! Usage:
//!
//! ```text
//! trace_bench [--smoke] [--events N] [--out PATH] [--min-cold-eps F]
//!   --smoke           CI variant: smaller stream, fewer pipeline seeds
//!   --events N        synthetic events in the decode/cold/file/sharded phases
//!   --out PATH        where to write the JSON (default BENCH_trace.json)
//!   --min-cold-eps F  fail if the cold phase checks fewer than F events/sec
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};

use litmus::corpus;
use memsim::{presets, sweep, TraceItem, TraceReader, TraceWriter};
use wo_bench::report::{self, Report, Row};
use wo_bench::table;
use wo_trace::synth::{SynthConfig, SynthStream};
use wo_trace::{check_ops, check_trace_file, CheckerConfig, Verdict};

const USAGE: &str = "trace_bench [--smoke] [--events N] [--out PATH] [--min-cold-eps F]";

/// Timed runs per phase; each phase reports its fastest.
const REPS: u32 = 5;

/// Reads every event of the trace at `path`, returning how many.
fn decode(path: &Path) -> u64 {
    let file = File::open(path).expect("open the stream's trace file");
    let mut reader = TraceReader::new(BufReader::new(file)).expect("trace header");
    let mut events = 0;
    while let Some(item) = reader.next_item().expect("decode the stream's trace file") {
        events += u64::from(matches!(item, TraceItem::Record(_)));
    }
    events
}

fn main() {
    let (mut smoke, mut events, mut min_cold_eps) = (false, None, None);
    let mut out = PathBuf::from("BENCH_trace.json");
    report::parse_args(USAGE, |flag, args| {
        match flag {
            "--smoke" => smoke = true,
            "--events" => events = Some(args.value(flag)?),
            "--out" => out = args.value(flag)?,
            "--min-cold-eps" => min_cold_eps = Some(args.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    });
    let mut report = Report::new("trace_bench", "trace-synth-locked", smoke);
    let synth = SynthConfig {
        events: events.unwrap_or(if smoke { 400_000 } else { 4_000_000 }),
        procs: 8,
        locations: 1 << 14,
        sync_locations: 128,
        sync_percent: 10,
        racy_percent: 0,
        seed: 0xBE7C,
    };
    // Materialize the stream once so the phases time checking, not
    // generation; write it once for the phases that read a file.
    let ops: Vec<_> = SynthStream::new(synth).collect();
    let n = ops.len() as f64;
    let tmp = |what: &str| {
        std::env::temp_dir().join(format!("wo-trace-bench-{}-{what}.wot", std::process::id()))
    };
    let stream_path = tmp("stream");
    let file = File::create(&stream_path).expect("create the stream's trace file");
    let mut writer = TraceWriter::new(BufWriter::new(file)).expect("trace writer");
    writer.write_execution("synth", synth.procs, &ops).expect("write the stream");
    writer.finish().expect("finish trace").flush().expect("flush trace");
    let stream_bytes = std::fs::metadata(&stream_path).map(|m| m.len()).unwrap_or(0);

    // ---- decode: the reader alone.
    let (decode_secs, decoded) = report::best_of(REPS, || decode(&stream_path));
    if decoded != ops.len() as u64 {
        report.diverge(format!("decode returned {decoded} of {} events", ops.len()));
    }

    // ---- cold: one shard, one thread — the per-event floor.
    let cold_cfg = CheckerConfig { shards: 1, threads: 1, ..CheckerConfig::default() };
    let (cold_secs, cold) =
        report::best_of(REPS, || check_ops(&ops, synth.procs, cold_cfg).expect("cold check"));
    assert_eq!(cold.verdict, Verdict::Drf0, "the locked synth stream must be clean");

    // ---- file: decode and check, one shard, one thread.
    let (file_secs, from_file) = report::best_of(REPS, || {
        check_trace_file(&stream_path, cold_cfg).expect("file check")
    });
    let _ = std::fs::remove_file(&stream_path);

    // ---- sharded: default shards on the work-stealing pool.
    let sharded_cfg = CheckerConfig::default();
    let (sharded_secs, sharded) = report::best_of(REPS, || {
        check_ops(&ops, synth.procs, sharded_cfg).expect("sharded check")
    });

    // The whole design hinges on this: neither the file path nor
    // parallelism may change the report. Divergence is a hard failure,
    // not a footnote.
    for (phase, other) in [("file", &from_file), ("sharded", &sharded)] {
        if other.canonical_text() != cold.canonical_text() {
            eprintln!("--- cold ---\n{}", cold.canonical_text());
            eprintln!("--- {phase} ---\n{}", other.canonical_text());
            report.diverge(format!("{phase} report diverged from the single-shard report"));
        }
    }

    // ---- pipeline: simulate → trace file → streamed verdict.
    let seeds: u64 = if smoke { 4 } else { 16 };
    let program = corpus::fig3_handoff(1);
    let cells: Vec<sweep::Cell> = (0..seeds)
        .map(|seed| sweep::Cell {
            program: &program,
            config: presets::network_cached(2, presets::wo_def2(), seed),
        })
        .collect();
    let trace_path = tmp("pipeline");
    let (sim_secs, ()) = report::best_of(REPS, || {
        let file = File::create(&trace_path).expect("create trace file");
        let mut writer = TraceWriter::new(BufWriter::new(file)).expect("trace writer");
        sweep::sweep_traced(&cells, 0, &mut writer).expect("traced sweep");
        writer.finish().expect("finish trace").flush().expect("flush trace");
    });
    let (check_secs, pipeline) = report::best_of(REPS, || {
        check_trace_file(&trace_path, CheckerConfig::default()).expect("pipeline check")
    });
    let trace_bytes = std::fs::metadata(&trace_path).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&trace_path);
    assert_eq!(pipeline.verdict, Verdict::Drf0, "fig3 hand-off under wo-def2 must be clean");
    assert_eq!(pipeline.segments, seeds, "one trace segment per sweep cell");
    let pipe_eps = pipeline.events as f64 / check_secs.max(1e-9);

    // ---- report.
    let eps = |secs: f64| n / secs.max(1e-9);
    let ns_per_event = |secs: f64| secs * 1e9 / n.max(1.0);
    let phase_row = |name: String, events: f64, secs: f64| {
        let rate = events / secs.max(1e-9);
        vec![
            name,
            format!("{events}"),
            format!("{secs:.3}"),
            format!("{:.2}M", rate / 1e6),
            format!("{:.1}", 1e9 / rate.max(1e-9)),
        ]
    };
    let rows = vec![
        phase_row("decode (reader only)".into(), n, decode_secs),
        phase_row("cold (1 shard)".into(), n, cold_secs),
        phase_row("file (read+check, 1 shard)".into(), n, file_secs),
        phase_row(format!("sharded ({})", sharded_cfg.shards), n, sharded_secs),
        phase_row("pipeline (read+check)".into(), pipeline.events as f64, check_secs),
    ];
    println!(
        "{}",
        table(&["phase", "events", "seconds", "events/sec", "ns/event"], &rows)
    );
    println!("each phase: fastest of {REPS} runs; stream file {stream_bytes} bytes");
    println!(
        "state high-water: {} tracked locations, {} sync locations, ~{} KiB",
        cold.tracked_locations_high_water,
        cold.sync_locations_high_water,
        cold.approx_state_bytes_high_water / 1024
    );
    println!(
        "pipeline: {seeds} simulated runs traced to {trace_bytes} bytes in {sim_secs:.3}s, verdict {}",
        pipeline.verdict
    );

    report.metric("events", ops.len());
    report.metric("procs", u64::from(synth.procs));
    report.metric("locations", u64::from(synth.locations));
    report.metric("sync_percent", u64::from(synth.sync_percent));
    report.metric("reps", u64::from(REPS));
    report.metric("decode.trace_bytes", stream_bytes);
    report.metric("decode.seconds", decode_secs);
    report.metric("decode.events_per_sec", eps(decode_secs));
    report.metric("decode.ns_per_event", ns_per_event(decode_secs));
    report.metric("cold.shards", 1u64);
    report.metric("cold.seconds", cold_secs);
    report.metric("cold.events_per_sec", eps(cold_secs));
    report.metric("cold.ns_per_event", ns_per_event(cold_secs));
    report.metric("cold.approx_state_bytes_high_water", cold.approx_state_bytes_high_water);
    report.metric("file.shards", 1u64);
    report.metric("file.seconds", file_secs);
    report.metric("file.events_per_sec", eps(file_secs));
    report.metric("file.ns_per_event", ns_per_event(file_secs));
    report.metric("sharded.shards", sharded_cfg.shards);
    report.metric("sharded.seconds", sharded_secs);
    report.metric("sharded.events_per_sec", eps(sharded_secs));
    report.metric("sharded.speedup", cold_secs / sharded_secs.max(1e-9));
    report.metric("pipeline.segments", pipeline.segments);
    report.metric("pipeline.events", pipeline.events);
    report.metric("pipeline.trace_bytes", trace_bytes);
    report.metric("pipeline.simulate_seconds", sim_secs);
    report.metric("pipeline.check_seconds", check_secs);
    report.metric("pipeline.events_per_sec", pipe_eps);
    report.min("cold.events_per_sec", min_cold_eps);
    for (phase, verdict) in [
        ("cold", cold.verdict),
        ("file", from_file.verdict),
        ("sharded", sharded.verdict),
        ("pipeline", pipeline.verdict),
    ] {
        report.row(Row::new(phase).with("verdict", verdict.to_string()));
    }
    std::process::exit(report.write(&out));
}
