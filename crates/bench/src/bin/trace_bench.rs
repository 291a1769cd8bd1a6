//! wo-trace streaming-checker benchmark: events/sec through the
//! incremental DRF0 engine, written to `BENCH_trace.json`.
//!
//! Three phases over a deterministic synthetic stream
//! ([`wo_trace::synth::SynthStream`]) plus a simulate→file→verdict
//! pipeline:
//!
//! * **cold** — single shard, single thread: the raw per-event cost of
//!   the vector-clock engine (join / snapshot / epoch check / tick);
//! * **sharded** — the default shard count on the work-stealing pool:
//!   parallel speedup of phase-2 checking. The canonical report must be
//!   **byte-identical** to the cold report (any divergence fails the run —
//!   determinism is load-bearing, not best-effort);
//! * **pipeline** — `memsim::sweep::sweep_traced` writes a multi-segment
//!   trace file, `check_trace_file` streams it back: end-to-end
//!   simulate → serialize → deserialize → verdict throughput.
//!
//! Writes `BENCH_trace.json` in the [`wo_bench::report`] schema (one row
//! per phase, with its verdict) and exits 1 after writing on a divergence.
//!
//! Usage:
//!
//! ```text
//! trace_bench [--smoke] [--events N] [--out PATH]
//!   --smoke     CI variant: smaller stream, fewer pipeline seeds
//!   --events N  synthetic events in the cold/sharded phases
//!   --out PATH  where to write the JSON (default BENCH_trace.json)
//! ```

use std::path::PathBuf;
use std::time::Instant;

use litmus::corpus;
use memsim::{presets, sweep, TraceWriter};
use wo_bench::report::{self, Report, Row};
use wo_bench::table;
use wo_trace::synth::{SynthConfig, SynthStream};
use wo_trace::{check_ops, check_trace_file, CheckerConfig, Verdict};

const USAGE: &str = "trace_bench [--smoke] [--events N] [--out PATH]";

fn main() {
    let (mut smoke, mut events) = (false, None);
    let mut out = PathBuf::from("BENCH_trace.json");
    report::parse_args(USAGE, |flag, args| {
        match flag {
            "--smoke" => smoke = true,
            "--events" => events = Some(args.value(flag)?),
            "--out" => out = args.value(flag)?,
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
    // generation.
    let ops: Vec<_> = SynthStream::new(synth).collect();

    // ---- cold: one shard, one thread — the per-event floor.
    let cold_cfg = CheckerConfig { shards: 1, threads: 1, ..CheckerConfig::default() };
    let cold_t0 = Instant::now();
    let cold = check_ops(&ops, synth.procs, cold_cfg).expect("cold check");
    let cold_secs = cold_t0.elapsed().as_secs_f64();
    let cold_eps = ops.len() as f64 / cold_secs.max(1e-9);
    assert_eq!(cold.verdict, Verdict::Drf0, "the locked synth stream must be clean");

    // ---- sharded: default shards on the work-stealing pool.
    let sharded_cfg = CheckerConfig::default();
    let sharded_t0 = Instant::now();
    let sharded = check_ops(&ops, synth.procs, sharded_cfg).expect("sharded check");
    let sharded_secs = sharded_t0.elapsed().as_secs_f64();
    let sharded_eps = ops.len() as f64 / sharded_secs.max(1e-9);

    // The whole design hinges on this: parallelism must never change the
    // report. Divergence is a hard failure, not a footnote.
    if sharded.canonical_text() != cold.canonical_text() {
        eprintln!("--- cold ---\n{}", cold.canonical_text());
        eprintln!("--- sharded ---\n{}", sharded.canonical_text());
        report.diverge("sharded report diverged from the single-shard report");
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
    let trace_path = std::env::temp_dir().join(format!("wo-trace-bench-{}.wot", std::process::id()));
    let pipe_t0 = Instant::now();
    let file = std::fs::File::create(&trace_path).expect("create trace file");
    let mut writer = TraceWriter::new(std::io::BufWriter::new(file)).expect("trace writer");
    sweep::sweep_traced(&cells, 0, &mut writer).expect("traced sweep");
    use std::io::Write as _;
    writer.finish().expect("finish trace").flush().expect("flush trace");
    let sim_secs = pipe_t0.elapsed().as_secs_f64();
    let check_t0 = Instant::now();
    let pipeline =
        check_trace_file(&trace_path, CheckerConfig::default()).expect("pipeline check");
    let check_secs = check_t0.elapsed().as_secs_f64();
    let trace_bytes = std::fs::metadata(&trace_path).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&trace_path);
    assert_eq!(pipeline.verdict, Verdict::Drf0, "fig3 hand-off under wo-def2 must be clean");
    assert_eq!(pipeline.segments, seeds, "one trace segment per sweep cell");
    let pipe_eps = pipeline.events as f64 / check_secs.max(1e-9);

    // ---- report.
    let rows = vec![
        vec![
            "cold (1 shard)".into(),
            format!("{}", ops.len()),
            format!("{cold_secs:.3}"),
            format!("{:.2}M", cold_eps / 1e6),
        ],
        vec![
            format!("sharded ({})", sharded_cfg.shards),
            format!("{}", ops.len()),
            format!("{sharded_secs:.3}"),
            format!("{:.2}M", sharded_eps / 1e6),
        ],
        vec![
            "pipeline (read+check)".into(),
            format!("{}", pipeline.events),
            format!("{check_secs:.3}"),
            format!("{:.2}M", pipe_eps / 1e6),
        ],
    ];
    println!("{}", table(&["phase", "events", "seconds", "events/sec"], &rows));
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
    report.metric("cold.shards", 1u64);
    report.metric("cold.seconds", cold_secs);
    report.metric("cold.events_per_sec", cold_eps);
    report.metric("cold.approx_state_bytes_high_water", cold.approx_state_bytes_high_water);
    report.metric("sharded.shards", sharded_cfg.shards);
    report.metric("sharded.seconds", sharded_secs);
    report.metric("sharded.events_per_sec", sharded_eps);
    report.metric("sharded.speedup", sharded_eps / cold_eps.max(1e-9));
    report.metric("pipeline.segments", pipeline.segments);
    report.metric("pipeline.events", pipeline.events);
    report.metric("pipeline.trace_bytes", trace_bytes);
    report.metric("pipeline.simulate_seconds", sim_secs);
    report.metric("pipeline.check_seconds", check_secs);
    report.metric("pipeline.events_per_sec", pipe_eps);
    for (phase, verdict) in
        [("cold", cold.verdict), ("sharded", sharded.verdict), ("pipeline", pipeline.verdict)]
    {
        report.row(Row::new(phase).with("verdict", verdict.to_string()));
    }
    std::process::exit(report.write(&out));
}
