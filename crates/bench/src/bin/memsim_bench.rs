//! Machine-simulator performance baseline + determinism gate.
//!
//! Times the full PERF grid (the [`wo_bench::perf_grid`] cells behind
//! `perf_comparison`) three ways:
//!
//! * `serial_cold` — one freshly constructed [`memsim::Machine`] per
//!   cell, run on the calling thread: the pre-sweep-engine baseline path;
//! * `serial_reused` — the sweep engine at one thread, recycling a single
//!   machine across every cell (`Machine::reset` + `run_once`);
//! * `parallel` — the work-stealing sweep across all available cores,
//!   one recycled machine per worker.
//!
//! Every run cross-checks all three modes cell-by-cell: results must be
//! identical down to the Debug rendering (cycles, records, stall
//! breakdowns, event-queue counters). Any divergence means machine
//! recycling or the parallel merge changed simulation behavior — the
//! binary exits 1, after writing its file, so CI fails.
//!
//! Writes `BENCH_memsim.json` in the [`wo_bench::report`] schema with
//! wall-clock numbers, speedups, and the grid's observability counters
//! (events popped, peak event-queue length, interconnect messages) so
//! later PRs have a perf trajectory to beat.
//!
//! Usage:
//!
//! ```text
//! memsim_bench [--smoke] [--threads N] [--reps N] [--out PATH]
//!   --smoke        CI variant: one row per sweep section, 2 seeds
//!   --threads N    worker threads for the parallel mode (default: available)
//!   --reps N       timed repetitions per mode, best-of-N (default 3)
//!   --out PATH     where to write the JSON (default BENCH_memsim.json)
//! ```

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Instant;

use memsim::sweep::{sweep, CellOutcome};
use memsim::Machine;
use wo_bench::perf_grid::PerfGrid;
use wo_bench::report::{self, Report};

const USAGE: &str = "memsim_bench [--smoke] [--threads N] [--reps N] [--out PATH]";

/// A comparable rendering of one cell's result, shared by all three
/// modes. Panics have no stable rendering across modes, so they keep a
/// fixed tag (and will differ from any real result, which is the point).
fn render(outcome: &CellOutcome) -> String {
    match outcome {
        CellOutcome::Ok(r) => format!("Ok({r:?})"),
        CellOutcome::Err(e) => format!("Err({e:?})"),
        CellOutcome::Panicked(_) => "Panicked".to_string(),
    }
}

fn main() {
    let (mut smoke, mut threads, mut reps) = (false, 0usize, 3usize);
    let mut out = PathBuf::from("BENCH_memsim.json");
    report::parse_args(USAGE, |flag, args| {
        match flag {
            "--smoke" => smoke = true,
            "--threads" => threads = args.value(flag)?,
            "--reps" => reps = args.value::<NonZeroUsize>(flag)?.get(),
            "--out" => out = args.value(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    let grid = if smoke { PerfGrid::smoke() } else { PerfGrid::full() };
    let cells = grid.cells();
    if threads == 0 {
        threads = std::thread::available_parallelism().map_or(1, usize::from);
    }
    println!(
        "memsim_bench: {} cells ({} rows x 4 policies x {} seeds){}, {threads} threads, best of {reps} reps",
        cells.len(),
        grid.rows.len(),
        grid.seeds.len(),
        if smoke { " (smoke)" } else { "" },
    );

    // Each repetition times all three modes and cross-checks them
    // cell-for-cell; reported seconds are the best of the repetitions.
    let mut report = Report::new("memsim_bench", "perf-grid", smoke);
    let mut cold_secs = f64::INFINITY;
    let mut reused_secs = f64::INFINITY;
    let mut parallel_secs = f64::INFINITY;
    let mut parallel = Vec::new();
    for rep in 0..reps {
        // Mode 1: the baseline path — fresh machine per cell, serial.
        let start = Instant::now();
        let cold: Vec<CellOutcome> = cells
            .iter()
            .map(|cell| match Machine::run_program(cell.program, &cell.config) {
                Ok(r) => CellOutcome::Ok(r),
                Err(e) => CellOutcome::Err(e),
            })
            .collect();
        cold_secs = cold_secs.min(start.elapsed().as_secs_f64());

        // Mode 2: the sweep engine at one thread — machine recycling only.
        let start = Instant::now();
        let reused = sweep(&cells, 1);
        reused_secs = reused_secs.min(start.elapsed().as_secs_f64());

        // Mode 3: the work-stealing sweep across all threads.
        let start = Instant::now();
        let par = sweep(&cells, threads);
        parallel_secs = parallel_secs.min(start.elapsed().as_secs_f64());

        // Cross-check: all three modes must agree cell-for-cell, every rep.
        for (i, ((c, r), p)) in cold.iter().zip(&reused).zip(&par).enumerate() {
            let cold_key = render(c);
            if cold_key != render(r) {
                report.diverge(format!("rep {rep} cell {i}: recycled machine diverged from cold run"));
            }
            if cold_key != render(p) {
                report.diverge(format!("rep {rep} cell {i}: parallel sweep diverged from cold run"));
            }
        }
        parallel = par;
    }

    // Observability counters, summed over the grid.
    let mut events_popped = 0u64;
    let mut peak_queue = 0u64;
    let mut messages = 0u64;
    let mut completed = 0usize;
    for outcome in &parallel {
        if let Some(r) = outcome.ok() {
            events_popped += r.stats.events_popped;
            peak_queue = peak_queue.max(r.stats.peak_queue_len);
            messages += r.stats.messages;
            if r.completed {
                completed += 1;
            }
        }
    }

    let n = cells.len();
    let reuse_speedup = if reused_secs > 0.0 { cold_secs / reused_secs } else { f64::INFINITY };
    let parallel_speedup =
        if parallel_secs > 0.0 { cold_secs / parallel_secs } else { f64::INFINITY };
    let cps = |secs: f64| if secs > 0.0 { n as f64 / secs } else { f64::INFINITY };
    println!(
        "serial cold {cold_secs:.3}s ({:.1} cells/s)   reused {reused_secs:.3}s ({:.1} cells/s)   parallel {parallel_secs:.3}s ({:.1} cells/s)",
        cps(cold_secs),
        cps(reused_secs),
        cps(parallel_secs),
    );
    println!(
        "speedup: reuse {reuse_speedup:.2}x   parallel+reuse {parallel_speedup:.2}x (vs the fresh-machine serial baseline)"
    );
    println!(
        "grid work: {events_popped} events popped, peak queue {peak_queue}, {messages} interconnect messages, {completed}/{n} cells completed"
    );

    report.metric("cells", n);
    report.metric("grid_rows", grid.rows.len());
    report.metric("seeds", grid.seeds.len());
    report.metric("threads", threads);
    report.metric("reps", reps);
    report.metric("completed_cells", completed);
    for (key, secs) in [
        ("serial_cold", cold_secs),
        ("serial_reused", reused_secs),
        ("parallel", parallel_secs),
    ] {
        report.metric(format!("{key}.seconds"), secs);
        report.metric(format!("{key}.cells_per_sec"), cps(secs));
    }
    report.metric("reuse_speedup_vs_cold", reuse_speedup);
    report.metric("parallel_speedup_vs_cold", parallel_speedup);
    report.metric("events_popped_total", events_popped);
    report.metric("peak_queue_len_max", peak_queue);
    report.metric("interconnect_messages_total", messages);
    std::process::exit(report.write(&out));
}
