//! `trace-check`: a seeded synthetic trace, written as a checksummed trace
//! file (once untimed for the reference, then again in each window's timed
//! set-up), checked again and again with `wo_trace::check_trace_file`:
//! on one checker thread (per-file latency and events/s) and at the
//! worker-thread count (bulk events/s), in turn. Every report must equal a
//! 1-shard, 1-thread reference byte for byte. The file is read from the
//! page cache, so nothing here measures a disk.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

use memsim::{TraceItem, TraceReader, TraceWriter};
use wo_trace::checker::{CheckerConfig, StreamChecker, TraceReport, Verdict};
use wo_trace::pipeline::check_trace_file;
use wo_trace::synth::{write_synth, SynthConfig};

use crate::report::{
    end_rss_window, median, next_is_bulk, on_fresh_thread, start_rss_window, us, Outcome, Windows,
};
use crate::spans::Tracer;
use crate::RunCtx;

fn synth_cfg(ctx: &RunCtx) -> SynthConfig {
    SynthConfig {
        procs: 8,
        locations: 1 << 14,
        sync_locations: 64,
        events: if ctx.smoke { 1 << 12 } else { 1 << 16 },
        sync_percent: 10,
        // A small racy share: race detection, merge and retention all run.
        racy_percent: 1,
        seed: ctx.seed ^ 0x7AC3_0000_0000_0001,
    }
}

fn checker_cfg(threads: usize) -> CheckerConfig {
    CheckerConfig {
        threads,
        ..CheckerConfig::default()
    }
}

fn write_trace(ctx: &RunCtx, path: &Path) -> std::io::Result<u64> {
    let cfg = synth_cfg(ctx);
    let mut writer = TraceWriter::new(std::io::BufWriter::new(File::create(path)?))?;
    write_synth(cfg, "synth", &mut writer)?;
    let mut inner = writer.finish()?;
    std::io::Write::flush(&mut inner)?;
    Ok(cfg.events)
}

/// Checks one report against the reference text and counts it.
fn judge(out: &mut Outcome, report: Result<TraceReport, String>, reference: &str) {
    out.attempted += 1;
    match report {
        Ok(r) => {
            if matches!(r.verdict, Verdict::Unknown(_)) {
                out.unknown += 1;
            }
            if r.canonical_text() != reference {
                out.fail(format!(
                    "trace report differs from the 1-shard reference: {:?}",
                    r.verdict
                ));
            }
        }
        Err(e) => out.fail(format!("trace check failed: {e}")),
    }
}

pub fn run(ctx: &RunCtx) -> Outcome {
    let mut out = Outcome::default();
    let path = ctx
        .out_dir
        .join(format!("synth-{}.wotrace", std::process::id()));
    let events = match write_trace(ctx, &path) {
        Ok(n) => n,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("writing the trace file: {e}"));
            return out;
        }
    };
    let reference_cfg = CheckerConfig {
        shards: 1,
        threads: 1,
        ..CheckerConfig::default()
    };
    let reference = match check_trace_file(&path, reference_cfg) {
        Ok(r) => r.canonical_text(),
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("reference check: {e}"));
            let _ = std::fs::remove_file(&path);
            return out;
        }
    };
    if ctx.traced {
        traced(ctx, &path, events, &reference, &mut out);
    } else {
        timed(ctx, &path, events, &reference, &mut out);
    }
    let _ = std::fs::remove_file(&path);
    out
}

/// Checks per timed window.
const WINDOW: usize = 20;

/// Windows of whole-file checks, on one checker thread and at the
/// worker-thread count in turn, until each has `phase` seconds of checking
/// timed. Each window starts with a timed set-up, so `setup_s` is a median
/// over the whole run, not over one moment of it. Returns the one-thread
/// and the bulk windows.
fn check_loop(
    ctx: &RunCtx,
    path: &Path,
    phase: f64,
    reference: &str,
    setup: &mut Vec<f64>,
    out: &mut Outcome,
) -> (Windows, Windows) {
    let events = synth_cfg(ctx).events;
    let (mut single, mut bulk) = (Windows::default(), Windows::default());
    while let Some(is_bulk) = next_is_bulk(&single, &bulk, phase) {
        let threads = if is_bulk { RunCtx::threads() } else { 1 };
        setup.push(set_up(ctx, path, out));
        let checks: Vec<(f64, Result<TraceReport, String>)> = on_fresh_thread(|| {
            (0..WINDOW)
                .map(|_| {
                    let t0 = Instant::now();
                    let report = check_trace_file(path, checker_cfg(threads));
                    (us(t0.elapsed()), report.map_err(|e| e.to_string()))
                })
                .collect()
        });
        let mut latencies = Vec::with_capacity(WINDOW);
        for (latency, report) in checks {
            latencies.push(latency);
            judge(out, report, reference);
        }
        let secs = latencies.iter().sum::<f64>() / 1e6;
        let windows = if is_bulk { &mut bulk } else { &mut single };
        windows.push(events * WINDOW as u64, secs, &latencies);
    }
    (single, bulk)
}

/// One timed set-up, in seconds: the seeded trace file written anew (the
/// window's checks then read it, so they also confirm it is the same
/// trace), and a reader and a checker constructed on it.
fn set_up(ctx: &RunCtx, path: &Path, out: &mut Outcome) -> f64 {
    // On a fresh thread, as the timed windows are.
    let (written, reader_ok, secs) = on_fresh_thread(|| {
        let t0 = Instant::now();
        let written = write_trace(ctx, path);
        let reader = File::open(path)
            .map_err(memsim::TraceError::from)
            .and_then(|f| TraceReader::new(BufReader::new(f)));
        let checker = StreamChecker::new(checker_cfg(RunCtx::threads()));
        let secs = t0.elapsed().as_secs_f64();
        let reader_ok = reader.is_ok();
        drop((reader, checker));
        (written, reader_ok, secs)
    });
    if let Err(e) = written {
        out.fail(format!("writing the trace file: {e}"));
    }
    if !reader_ok {
        out.fail("trace reader construction failed");
    }
    secs
}

fn timed(ctx: &RunCtx, path: &Path, events: u64, reference: &str, out: &mut Outcome) {
    let mut setup = Vec::new();
    start_rss_window(out);
    let phase = ctx.budget.as_secs_f64() / 2.0;
    let (single, bulk) = check_loop(ctx, path, phase, reference, &mut setup, out);
    end_rss_window(out);
    out.put("setup_s", median(&setup), "s");
    out.put(
        "throughput_per_s",
        single.best_item_rate() * events as f64,
        "1/s",
    );
    out.put("latency_p50_us", single.best_q(0.5), "us");
    out.put("latency_p90_us", single.best_q(0.9), "us");
    out.put("bulk_throughput_per_s", bulk.fast_rate(), "1/s");
    out.notes.push(format!(
        "trace: {events} events per file, {} windows of {WINDOW} checks on 1 thread, {} on {} threads (events/s), {} set-ups",
        single.len(),
        bulk.len(),
        RunCtx::threads(),
        setup.len()
    ));
}

/// Traced run: decode alone, then the checker's phases one by one over
/// the decoded events, then three whole-file checks for the overhead base.
fn traced(ctx: &RunCtx, path: &Path, events: u64, reference: &str, out: &mut Outcome) {
    let mut tr = Tracer::new();
    let wall0 = Instant::now();
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());

    let (decoded, _) = tr.time(
        "memsim.trace_decode",
        None,
        0,
        || -> Result<Vec<TraceItem>, String> {
            let file = File::open(path).map_err(|e| e.to_string())?;
            let mut reader = TraceReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
            let mut items = Vec::new();
            while let Some(item) = reader.next_item().map_err(|e| e.to_string())? {
                items.push(item);
            }
            Ok(items)
        },
    );
    let items = match decoded {
        Ok(items) => items,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("decode: {e}"));
            return;
        }
    };

    let mut checker = StreamChecker::new(checker_cfg(RunCtx::threads()));
    let mut ingest_err = None;
    let mut segment = 0u64;
    let mut start = 0;
    while start < items.len() {
        match &items[start] {
            TraceItem::SegmentStart { procs, .. } => {
                checker.begin_segment(*procs);
                start += 1;
            }
            TraceItem::SegmentEnd { .. } => {
                tr.time("trace.end_segment", None, segment, || checker.end_segment());
                segment += 1;
                start += 1;
            }
            TraceItem::Record(_) => {
                let end = items[start..]
                    .iter()
                    .position(|i| !matches!(i, TraceItem::Record(_)))
                    .map_or(items.len(), |n| start + n);
                let (result, _) = tr.time("trace.ingest", None, segment, || {
                    items[start..end].iter().try_for_each(|item| match item {
                        TraceItem::Record(rec) => checker.ingest(&rec.op),
                        _ => Ok(()),
                    })
                });
                if let Err(e) = result {
                    ingest_err = Some(e);
                    break;
                }
                start = end;
            }
        }
    }
    let report = match ingest_err {
        Some(e) => Err(format!("ingest: {e}")),
        None => Ok(tr
            .time("trace.finish", None, segment, || checker.finish())
            .0),
    };
    if let Ok(r) = &report {
        out.put("trace.events", r.events as f64, "count");
        out.put("trace.sync_events", r.sync_events as f64, "count");
        out.put("trace.races", r.total_races as f64, "count");
        out.put(
            "trace.tracked_locations_peak",
            r.tracked_locations_high_water as f64,
            "count",
        );
        out.put(
            "trace.sync_locations_peak",
            r.sync_locations_high_water as f64,
            "count",
        );
        out.put("trace.dropped_events", r.dropped_events as f64, "count");
        out.put(
            "trace.state_bytes_peak",
            r.approx_state_bytes_high_water as f64,
            "bytes",
        );
    }
    judge(out, report, reference);

    let mut checked = 0.0;
    for k in 0..3u64 {
        let (report, d) = tr.time("trace.check_file", None, k, || {
            check_trace_file(path, checker_cfg(RunCtx::threads()))
        });
        checked += us(d);
        judge(out, report.map_err(|e| e.to_string()), reference);
    }
    let wall = us(wall0.elapsed());

    let layers = tr.layers();
    let ev = events.max(1) as f64;
    for phase in [
        "memsim.trace_decode",
        "trace.ingest",
        "trace.end_segment",
        "trace.finish",
    ] {
        let busy = layers.get(phase).map_or(0.0, |l| l.busy_ms());
        out.put(format!("{phase}.busy_ms"), busy, "ms");
        out.put(format!("{phase}.ns_per_event"), busy * 1e6 / ev, "ns");
    }
    out.put("memsim.trace_decode.bytes", bytes as f64, "bytes");
    out.put(
        "bench.trace_overhead_ratio",
        wall / checked.max(1e-9),
        "ratio",
    );
    tr.write_jsonl(&ctx.out_dir, "trace-check", ctx.seed);
}
