//! The sweep engine's determinism contract, checked on the real PERF
//! grid: the merged report is byte-identical at any thread count, and a
//! recycled machine replays a cold run cycle-for-cycle.

use memsim::sweep::sweep;
use memsim::{presets, Machine, MachineConfig};
use wo_bench::perf_grid::PerfGrid;

/// The full PERF grid — every cell `perf_comparison` publishes — merged
/// at 1, 2, and N threads must produce byte-identical reports. The
/// 1-thread pass also recycles one machine across all 340 cells, so this
/// doubles as a grid-wide recycling check against the multi-worker runs.
#[test]
fn perf_grid_reports_are_identical_at_any_thread_count() {
    let grid = PerfGrid::full();
    let cells = grid.cells();
    let baseline = format!("{:?}", sweep(&cells, 1));
    for threads in [2, 0] {
        let report = format!("{:?}", sweep(&cells, threads));
        assert_eq!(
            baseline, report,
            "thread count {threads} changed the merged PERF-grid report"
        );
    }
}

/// One machine recycled through `reset` + `run_once` must match a fresh
/// machine per config cycle-for-cycle, across every policy class —
/// including policy changes mid-sequence, which exercise `reset`'s
/// re-derivation of every RNG stream and policy knob.
#[test]
fn recycled_machine_matches_fresh_machines_across_policies() {
    let program = memsim::workload::drf_kernel(&memsim::workload::DrfKernelConfig {
        threads: 3,
        phases: 2,
        accesses_per_phase: 6,
        ..Default::default()
    });
    let mut configs: Vec<MachineConfig> = Vec::new();
    for policy in [
        presets::sc(),
        presets::wo_def1(),
        presets::wo_def2(),
        presets::wo_def2_optimized(),
    ] {
        for seed in 0..3 {
            configs.push(presets::network_cached(3, policy, seed));
        }
    }
    let mut machine = Machine::new(&program, &configs[0]).expect("valid config");
    for (i, config) in configs.iter().enumerate() {
        if i > 0 {
            machine.reset(&program, config).expect("valid config");
        }
        let warm = machine.run_once();
        let cold = Machine::run_program(&program, config);
        assert_eq!(
            format!("{cold:?}"),
            format!("{warm:?}"),
            "recycled machine diverged from a cold run (policy {:?}, seed {})",
            config.policy,
            config.seed
        );
    }
}

/// Recycling across *different programs and machine shapes* — the sweep
/// worker's actual usage — replays cold runs exactly too.
#[test]
fn recycling_across_programs_and_shapes_matches_cold_runs() {
    let grid = PerfGrid::smoke();
    let cells = grid.cells();
    for (cell, outcome) in cells.iter().zip(sweep(&cells, 1)) {
        let cold = Machine::run_program(cell.program, &cell.config);
        assert_eq!(
            format!("{cold:?}"),
            format!("{:?}", outcome.into_result()),
            "seed {} procs {}",
            cell.config.seed,
            cell.config.num_procs
        );
    }
}
