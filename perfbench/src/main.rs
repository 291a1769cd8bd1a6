//! One benchmark for the verdict stack: the `wo-serve` daemon cold and
//! hot, the streaming trace checker, and the fuzz campaign, timed end to
//! end (untraced runs) and layer by layer (traced runs).
//!
//! ```text
//! perfbench --workload <serve-cold|serve-hot|trace-check|fuzz-seeds>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run checks its outputs against a reference computed outside the
//! timed windows, prints notes and run metadata, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are [`END_TO_END`]; with `--trace 1` they are
//! [`PER_LAYER`]. Any failed item makes the run exit nonzero.
//! See `NOTES.md` for why each workload and metric exists.

mod fuzz;
mod report;
mod serve;
mod spans;
mod tracecheck;

use std::path::{Path, PathBuf};
use std::time::Duration;

use report::Outcome;

/// End-to-end metrics: every workload reports each of them. "Unit of
/// work" is a query (serve-*), a trace event or file (trace-check) and a
/// seed (fuzz-seeds); see `NOTES.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("bulk_throughput_per_s", "1/s"),
    ("definitive_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.protocol.calls", "count"),
    ("serve.protocol.busy_ms", "ms"),
    ("serve.protocol.p50_us", "us"),
    ("litmus.parse.calls", "count"),
    ("litmus.parse.busy_ms", "ms"),
    ("litmus.parse.p50_us", "us"),
    ("serve.canon.calls", "count"),
    ("serve.canon.busy_ms", "ms"),
    ("serve.canon.p50_us", "us"),
    ("serve.canon.p99_us", "us"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.coalesced", "count"),
    ("serve.cache.busy_ms", "ms"),
    ("serve.compute.calls", "count"),
    ("serve.compute.busy_ms", "ms"),
    ("serve.compute.p50_us", "us"),
    ("serve.compute.p99_us", "us"),
    ("serve.compute.best_engine_ms", "ms"),
    ("serve.compute.regret_ratio", "ratio"),
    ("axiom.calls", "count"),
    ("axiom.busy_ms", "ms"),
    ("axiom.p99_us", "us"),
    ("axiom.accepted", "count"),
    ("axiom.work", "count"),
    ("litmus.explore.calls", "count"),
    ("litmus.explore.busy_ms", "ms"),
    ("litmus.explore.p99_us", "us"),
    ("litmus.explore.steps", "count"),
    ("serve.translate.calls", "count"),
    ("serve.translate.busy_ms", "ms"),
    ("serve.translate.races", "count"),
    ("serve.journal.appends", "count"),
    ("serve.journal.bytes", "bytes"),
    ("serve.journal.busy_ms", "ms"),
    ("serve.journal.replay_ms", "ms"),
    ("serve.server.residual_p50_us", "us"),
    ("serve.server.residual_p99_us", "us"),
    ("serve.server.overloaded", "count"),
    ("serve.server.degraded", "count"),
    ("serve.server.resubmitted", "count"),
    ("memsim.trace_decode.busy_ms", "ms"),
    ("memsim.trace_decode.ns_per_event", "ns"),
    ("memsim.trace_decode.bytes", "bytes"),
    ("trace.ingest.busy_ms", "ms"),
    ("trace.ingest.ns_per_event", "ns"),
    ("trace.end_segment.busy_ms", "ms"),
    ("trace.end_segment.ns_per_event", "ns"),
    ("trace.finish.busy_ms", "ms"),
    ("trace.finish.ns_per_event", "ns"),
    ("trace.events", "count"),
    ("trace.sync_events", "count"),
    ("trace.races", "count"),
    ("trace.tracked_locations_peak", "count"),
    ("trace.sync_locations_peak", "count"),
    ("trace.dropped_events", "count"),
    ("trace.state_bytes_peak", "bytes"),
    ("fuzz.gen.calls", "count"),
    ("fuzz.gen.busy_ms", "ms"),
    ("fuzz.gen.p90_ms", "ms"),
    ("fuzz.oracle.calls", "count"),
    ("fuzz.oracle.busy_ms", "ms"),
    ("fuzz.oracle.p90_ms", "ms"),
    ("memsim.sweep.cells", "count"),
    ("memsim.sweep.busy_ms", "ms"),
    ("memsim.sweep.cells_per_s", "1/s"),
    ("memsim.sweep.sim_cycles", "cycles"),
    ("memsim.sweep.stall_cycles", "cycles"),
    ("memsim.sweep.events_popped", "count"),
    ("memsim.sweep.host_ns_per_sim_event", "ns"),
    ("memsim.sweep.peak_queue_len", "count"),
    ("memsim.sweep.stats_digest", "hash"),
    ("coherence.messages", "count"),
    ("simx.fault.delayed", "count"),
    ("simx.fault.duplicated", "count"),
    ("simx.fault.dropped", "count"),
    ("simx.fault.retries", "count"),
    ("simx.fault.exhausted", "count"),
    ("memory-model.check_sc.calls", "count"),
    ("memory-model.check_sc.busy_ms", "ms"),
    ("bench.attempted", "count"),
    ("bench.failed_ratio", "ratio"),
    ("bench.unknown_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
];

pub const WORKLOADS: &[&str] = &["serve-cold", "serve-hot", "trace-check", "fuzz-seeds"];

/// What every workload gets from the command line.
#[derive(Debug, Clone)]
pub struct RunCtx {
    pub seed: u64,
    /// Measurement budget of the timed phases.
    pub budget: Duration,
    pub traced: bool,
    /// Tiny fixed sizes for the self-check.
    pub smoke: bool,
    /// Scratch directory for journals, trace files and span dumps.
    pub out_dir: PathBuf,
}

impl RunCtx {
    /// Closed-loop clients / worker threads: never more than the host
    /// has vCPUs, never more than two.
    pub fn threads() -> usize {
        std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(2)
    }
}

/// Runs one workload and completes its metric set: the shared
/// end-to-end metrics, and zeros for layers the workload never calls.
pub fn run_workload(name: &str, ctx: &RunCtx) -> Outcome {
    let mut out = match name {
        "serve-cold" => serve::run(ctx, serve::Mode::Cold),
        "serve-hot" => serve::run(ctx, serve::Mode::Hot),
        "trace-check" => tracecheck::run(ctx),
        "fuzz-seeds" => fuzz::run(ctx),
        other => unreachable!("workload {other} was validated by the caller"),
    };
    let attempted = out.attempted.max(1) as f64;
    if ctx.traced {
        out.put("bench.attempted", out.attempted as f64, "count");
        out.put("bench.failed_ratio", out.failed as f64 / attempted, "ratio");
        out.put(
            "bench.unknown_ratio",
            out.unknown as f64 / attempted,
            "ratio",
        );
        for (metric, unit) in PER_LAYER {
            if !out.metrics.iter().any(|m| m.name == *metric) {
                out.put(*metric, 0.0, unit);
            }
        }
        let order = |n: &str| PER_LAYER.iter().position(|(m, _)| *m == n);
        out.metrics.sort_by_key(|m| order(&m.name));
    } else {
        let definitive = out.attempted.saturating_sub(out.unknown + out.failed) as f64;
        out.put("definitive_ratio", definitive / attempted, "ratio");
        let order = |n: &str| END_TO_END.iter().position(|(m, _)| *m == n);
        out.metrics.sort_by_key(|m| order(&m.name));
    }
    out.notes.push(format!(
        "accounting: attempted={} failed={} unknown={} failed_ratio={:.6} unknown_ratio={:.6}",
        out.attempted,
        out.failed,
        out.unknown,
        out.failed as f64 / attempted,
        out.unknown as f64 / attempted
    ));
    out
}

/// The commit of the checkout, when it is a git checkout.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unavailable (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| format!("unresolved {r}"), |c| c.trim().to_string()),
        None => head,
    }
}

fn meta_line(workload: &str, ctx: &RunCtx) -> String {
    let vcpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let clients = match workload {
        "serve-cold" | "serve-hot" => {
            "1 closed-loop v1 client and 1 pipelined wo-serve/2 connection, in turn"
        }
        "trace-check" => "1 checker (1 thread) and 1 checker at the worker-thread count, in turn",
        _ => "1 closed-loop seed loop (1 thread) and run_campaign over the same seeds on the worker threads, in turn",
    };
    format!(
        "meta: workload={workload} seed={} seconds={} trace={} host_vcpus={vcpus} worker_threads={} \
         clients=\"{clients}\" build_profile={} git_commit={} \
         memsim=\"simulated cycles are unvalidated against hardware (no reference results in the repository)\"",
        ctx.seed,
        ctx.budget.as_secs_f64(),
        u8::from(ctx.traced),
        RunCtx::threads(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_commit()
    )
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                );
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("missing --workload"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let ctx = RunCtx {
        seed: seed.unwrap_or_else(|| usage("missing --seed")),
        budget: Duration::from_secs_f64(seconds.unwrap_or_else(|| usage("missing --seconds"))),
        traced: traced.unwrap_or_else(|| usage("missing --trace")),
        smoke: false,
        out_dir,
    };
    println!("{}", meta_line(&workload, &ctx));
    let out = run_workload(&workload, &ctx);
    for note in &out.notes {
        println!("{note}");
    }
    let correct = out.failed == 0 && out.attempted > 0 && out.metrics_finite();
    println!("{}", out.result_line(correct));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod smoke {
    use super::*;

    /// Runs every workload tiny, traced and untraced, and checks that
    /// each named metric is emitted once with its unit, that every
    /// output matched its reference, and that `BENCHMARK.json` lists the
    /// same end-to-end metrics, units and workloads.
    #[test]
    fn every_workload_emits_every_metric_with_its_unit() {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_out")
            .join(format!("smoke-{}", std::process::id()));
        std::fs::create_dir_all(&out_dir).unwrap();
        for workload in WORKLOADS {
            for traced in [false, true] {
                let ctx = RunCtx {
                    seed: 3,
                    budget: Duration::from_millis(300),
                    traced,
                    smoke: true,
                    out_dir: out_dir.clone(),
                };
                let out = run_workload(workload, &ctx);
                assert_eq!(out.failed, 0, "{workload} trace={traced}: {:?}", out.notes);
                assert!(
                    out.attempted > 0,
                    "{workload} trace={traced} attempted nothing"
                );
                let want = if traced { PER_LAYER } else { END_TO_END };
                let got: Vec<(&str, &str)> = out
                    .metrics
                    .iter()
                    .map(|m| (m.name.as_str(), m.unit))
                    .collect();
                assert_eq!(got, want.to_vec(), "{workload} trace={traced}");
                assert!(out.metrics_finite(), "{workload} trace={traced}");
                if !traced {
                    for m in &out.metrics {
                        assert!(m.value > 0.0, "{workload}: {} is {}", m.name, m.value);
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);

        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(manifest).unwrap();
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in WORKLOADS {
            assert!(
                compact.contains(&format!("\"name\":\"{workload}\"")),
                "{workload}"
            );
        }
    }
}
