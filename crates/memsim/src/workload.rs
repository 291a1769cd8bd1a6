//! Synthetic workload generation for the quantitative comparison.
//!
//! The paper proposes ("A quantitative performance analysis comparing
//! implementations for the old and new definitions of weak ordering would
//! provide useful insight", Section 7) but does not perform a performance
//! study; these generators provide the workloads for ours. They produce
//! **data-race-free** kernels by construction — each processor works on
//! its own data partition and synchronizes through locks or hand-offs —
//! plus deliberately racy variants for the robustness experiments.

use litmus::{Program, Reg, Thread};
use memory_model::Loc;
use simx::rng::Xoshiro256;

/// Parameters for the random DRF kernel generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrfKernelConfig {
    /// Number of processors/threads.
    pub threads: usize,
    /// Work phases per thread; each phase is a run of private data
    /// accesses followed by one synchronization episode.
    pub phases: u64,
    /// Data accesses per phase (mix of reads and writes to the thread's
    /// private partition).
    pub accesses_per_phase: u32,
    /// Fraction of data accesses that are writes, in percent.
    pub write_percent: u32,
    /// Number of distinct locations in each thread's private partition.
    pub partition_size: u32,
    /// RNG seed (workload shape only; machine timing has its own seed).
    pub seed: u64,
}

impl Default for DrfKernelConfig {
    fn default() -> Self {
        DrfKernelConfig {
            threads: 4,
            phases: 8,
            accesses_per_phase: 16,
            write_percent: 40,
            partition_size: 8,
            seed: 1,
        }
    }
}

/// Base of the private data partitions (locations `PARTITION_BASE +
/// thread * partition_size ..`).
pub const PARTITION_BASE: u32 = 1000;
/// The lock every generated kernel synchronizes on.
pub const KERNEL_LOCK: Loc = Loc(100);
/// The shared counter the critical section updates.
pub const KERNEL_SHARED: Loc = Loc(0);

/// Generates a random data-race-free kernel: each thread alternates
/// private work with a lock-protected critical section that updates a
/// shared counter.
///
/// The generated program is DRF0: private partitions never overlap, and
/// the only shared data access is inside the `TestAndSet`/`Unset`
/// critical section.
///
/// # Examples
///
/// ```
/// use memsim::workload::{drf_kernel, DrfKernelConfig};
///
/// let p = drf_kernel(&DrfKernelConfig { threads: 2, phases: 2, ..Default::default() });
/// assert_eq!(p.num_threads(), 2);
/// ```
#[must_use]
pub fn drf_kernel(config: &DrfKernelConfig) -> Program {
    let mut rng = Xoshiro256::seed_from(config.seed);
    let threads = (0..config.threads)
        .map(|t| {
            let base = PARTITION_BASE + t as u32 * config.partition_size;
            let mut th = Thread::new().mov(Reg(5), 0); // phase counter
            let phase_top = th.here();
            // Private work.
            for _ in 0..config.accesses_per_phase {
                let loc = Loc(base + rng.range_u64(0, u64::from(config.partition_size)) as u32);
                if rng.chance(u64::from(config.write_percent), 100) {
                    th = th.write(loc, rng.range_u64(1, 1 << 20));
                } else {
                    th = th.read(loc, Reg(0));
                }
            }
            // Critical section: acquire, bump the shared counter, release.
            let acquire = th.here();
            th = th
                .test_and_set(KERNEL_LOCK, Reg(1))
                .branch_ne(Reg(1), 0u64, acquire)
                .read(KERNEL_SHARED, Reg(2))
                .add(Reg(2), Reg(2), 1u64)
                .write(KERNEL_SHARED, Reg(2))
                .sync_write(KERNEL_LOCK, 0)
                .add(Reg(5), Reg(5), 1u64)
                .branch_ne(Reg(5), config.phases, phase_top);
            th
        })
        .collect();
    Program::new(threads).expect("generated kernel is structurally valid")
}

/// A racy variant of [`drf_kernel`]: same shape, but the critical-section
/// counter update happens **without** the lock (the lock instructions are
/// elided), creating classic read-modify-write races.
#[must_use]
pub fn racy_kernel(config: &DrfKernelConfig) -> Program {
    let mut rng = Xoshiro256::seed_from(config.seed);
    let threads = (0..config.threads)
        .map(|t| {
            let base = PARTITION_BASE + t as u32 * config.partition_size;
            let mut th = Thread::new().mov(Reg(5), 0);
            let phase_top = th.here();
            for _ in 0..config.accesses_per_phase {
                let loc = Loc(base + rng.range_u64(0, u64::from(config.partition_size)) as u32);
                if rng.chance(u64::from(config.write_percent), 100) {
                    th = th.write(loc, rng.range_u64(1, 1 << 20));
                } else {
                    th = th.read(loc, Reg(0));
                }
            }
            th = th
                .read(KERNEL_SHARED, Reg(2))
                .add(Reg(2), Reg(2), 1u64)
                .write(KERNEL_SHARED, Reg(2))
                .add(Reg(5), Reg(5), 1u64)
                .branch_ne(Reg(5), config.phases, phase_top);
            th
        })
        .collect();
    Program::new(threads).expect("generated kernel is structurally valid")
}

/// A do-all kernel (Section 7's "parallelism only from do-all loops"):
/// each thread sweeps its own disjoint array slice — no sharing at all,
/// the embarrassingly parallel best case for weak ordering (nothing ever
/// needs to stall).
#[must_use]
pub fn doall_kernel(threads: usize, elements_per_thread: u32, seed: u64) -> Program {
    let mut rng = Xoshiro256::seed_from(seed);
    let ts = (0..threads)
        .map(|t| {
            let base = PARTITION_BASE + t as u32 * elements_per_thread;
            let mut th = Thread::new();
            for i in 0..elements_per_thread {
                let loc = Loc(base + i);
                th = th
                    .read(loc, Reg(0))
                    .add(Reg(0), Reg(0), rng.range_u64(1, 100))
                    .write(loc, Reg(0));
            }
            th
        })
        .collect();
    Program::new(ts).expect("generated kernel is structurally valid")
}

/// A pipeline kernel: thread `i` consumes tokens from stage flag `i` and
/// hands them to stage flag `i+1`, with the data cell reused across
/// stages — a chain of synchronized producer/consumer hand-offs. DRF0:
/// every data access is bracketed by the stage flags.
///
/// Thread 0 injects `tokens` items; each subsequent thread increments the
/// payload and forwards it.
#[must_use]
pub fn pipeline_kernel(stages: usize, tokens: u64) -> Program {
    assert!(stages >= 2, "a pipeline needs at least two stages");
    let flag = |i: usize| Loc(200 + i as u32);
    let cell = Loc(0);
    let ts = (0..stages)
        .map(|i| {
            let mut th = Thread::new().mov(Reg(5), 0);
            let top = th.here();
            if i == 0 {
                // Producer: wait for the cell to be free (flag 0 == 0),
                // write the payload, signal stage 1.
                th = th
                    .sync_read(flag(0), Reg(0)) // 1
                    .branch_ne(Reg(0), 0u64, top) // 2
                    .add(Reg(6), Reg(5), 1u64)
                    .write(cell, Reg(6))
                    .sync_write(flag(1), 1)
                    .sync_write(flag(0), 1);
            } else {
                // Stage i: wait for its flag, bump the payload, pass on
                // (the last stage drains back to "free").
                th = th
                    .sync_read(flag(i), Reg(0))
                    .branch_ne(Reg(0), 1u64, top)
                    .read(cell, Reg(1))
                    .add(Reg(1), Reg(1), 1u64)
                    .write(cell, Reg(1))
                    .sync_write(flag(i), 0);
                if i + 1 < stages {
                    th = th.sync_write(flag(i + 1), 1);
                } else {
                    th = th.sync_write(flag(0), 0); // recycle to the producer
                }
            }
            th = th.add(Reg(5), Reg(5), 1u64).branch_ne(Reg(5), tokens, top);
            th
        })
        .collect();
    Program::new(ts).expect("generated kernel is structurally valid")
}

/// Sweeps synchronization frequency: returns kernels whose ratio of data
/// accesses to synchronization episodes is `accesses_per_phase`, for each
/// value in `sweep`.
#[must_use]
pub fn sync_frequency_sweep(
    base: &DrfKernelConfig,
    sweep: &[u32],
) -> Vec<(u32, Program)> {
    sweep
        .iter()
        .map(|&accesses| {
            let cfg = DrfKernelConfig { accesses_per_phase: accesses, ..*base };
            (accesses, drf_kernel(&cfg))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use litmus::explore::{explore, ExploreConfig};

    #[test]
    fn generated_kernel_shape() {
        let cfg = DrfKernelConfig {
            threads: 3,
            phases: 2,
            accesses_per_phase: 4,
            ..Default::default()
        };
        let p = drf_kernel(&cfg);
        assert_eq!(p.num_threads(), 3);
        assert!(p.static_memory_ops() >= 3 * (4 + 4));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = DrfKernelConfig::default();
        assert_eq!(drf_kernel(&cfg), drf_kernel(&cfg));
        let other = DrfKernelConfig { seed: 2, ..cfg };
        assert_ne!(drf_kernel(&cfg), drf_kernel(&other));
    }

    #[test]
    fn small_drf_kernel_is_race_free_by_exploration() {
        // Bounded exploration of a tiny instance (the TestAndSet spin is
        // unbounded, so full enumeration does not terminate); races found
        // in truncated prefixes still count, and none may appear.
        let cfg = DrfKernelConfig {
            threads: 2,
            phases: 1,
            accesses_per_phase: 1,
            partition_size: 1,
            write_percent: 100,
            seed: 3,
        };
        let p = drf_kernel(&cfg);
        let budget = ExploreConfig {
            max_ops_per_execution: 24,
            max_executions: 20_000,
            ..ExploreConfig::default()
        };
        let report = explore(&p, &budget);
        assert!(report.execution_count > 0);
        assert!(report.race_free(), "races: {:?}", report.races);
    }

    #[test]
    fn small_racy_kernel_races() {
        let cfg = DrfKernelConfig {
            threads: 2,
            phases: 1,
            accesses_per_phase: 1,
            partition_size: 1,
            write_percent: 0,
            seed: 3,
        };
        let p = racy_kernel(&cfg);
        let report = explore(&p, &ExploreConfig::default());
        assert!(report.complete);
        assert!(!report.race_free(), "the unlocked counter update must race");
    }

    #[test]
    fn doall_kernel_is_disjoint_and_race_free() {
        let p = doall_kernel(3, 2, 5);
        assert_eq!(p.num_threads(), 3);
        let report = explore(&p, &ExploreConfig::default());
        assert!(report.complete);
        assert!(report.race_free());
    }

    #[test]
    fn pipeline_kernel_is_drf0_and_delivers_tokens() {
        let p = pipeline_kernel(2, 1);
        let budget = ExploreConfig {
            max_ops_per_execution: 40,
            max_total_steps: 2_000_000,
            ..ExploreConfig::default()
        };
        let report = explore(&p, &budget);
        assert!(report.execution_count > 0);
        assert!(report.race_free(), "races: {:?}", report.races);
        // A completed run leaves the cell holding producer payload + one
        // increment per later stage.
        for o in &report.outcomes(&p) {
            if let Some(&(_, v)) = o.final_memory.iter().find(|(l, _)| *l == Loc(0)) {
                assert_eq!(v, 2, "1 (produced) + 1 (stage bump): {o:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two stages")]
    fn pipeline_needs_two_stages() {
        let _ = pipeline_kernel(1, 1);
    }

    #[test]
    fn sweep_produces_one_program_per_point() {
        let points = sync_frequency_sweep(&DrfKernelConfig::default(), &[4, 8, 16]);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].0, 4);
        assert_ne!(points[0].1, points[2].1);
    }
}
