//! Work-stealing sweep engine for grids of simulated-machine runs.
//!
//! A sweep is a declarative grid of [`Cell`]s — `(program, config)` pairs,
//! where the config carries the cell's seed — fanned across worker threads
//! and merged back **in grid order**. Because every cell is an independent
//! deterministic simulation (all randomness derives from `config.seed`),
//! the merged report is bit-identical at any thread count: workers decide
//! only *who* runs each cell, never what it produces.
//!
//! Each worker keeps **one recycled [`Machine`]** and rewinds it with
//! [`Machine::reset`] between cells, so a sweep pays machine construction
//! once per worker instead of once per cell; the event-queue heap, store
//! queues, cache maps, and record buffers keep their grown allocations
//! across the whole grid. A cell that panics poisons only the worker's
//! cached machine (it is dropped, not reused) and is reported as
//! [`CellOutcome::Panicked`] rather than tearing down the sweep.
//!
//! # Examples
//!
//! ```
//! use litmus::corpus;
//! use memsim::sweep::{sweep, Cell, CellOutcome};
//! use memsim::presets;
//!
//! let program = corpus::fig3_handoff(1);
//! let cells: Vec<Cell> = (0..4)
//!     .map(|seed| Cell {
//!         program: &program,
//!         config: presets::network_cached(2, presets::wo_def2(), seed),
//!     })
//!     .collect();
//! let serial = sweep(&cells, 1);
//! let parallel = sweep(&cells, 4);
//! assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
//! assert!(matches!(serial[0], CellOutcome::Ok(_)));
//! ```

use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};

use litmus::Program;

use crate::config::MachineConfig;
use crate::machine::{Machine, RunError};
use crate::pool;
use crate::trace::{RunResult, TraceWriter};

/// One grid cell: a program to run under a machine configuration (the
/// cell's seed lives in `config.seed`).
#[derive(Debug, Clone, Copy)]
pub struct Cell<'p> {
    /// The program to run.
    pub program: &'p Program,
    /// The machine configuration, including the cell's seed.
    pub config: MachineConfig,
}

/// What one cell produced.
// In practice every element of a sweep's result vector is the large `Ok`
// variant; boxing it would cost an allocation per cell and save nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The run finished (possibly hitting the cycle watchdog — check
    /// `RunResult::completed`).
    Ok(RunResult),
    /// The run aborted with a structured error (watchdog, protocol
    /// violation, invalid config).
    Err(RunError),
    /// The run panicked; carries the panic message. The worker's cached
    /// machine was dropped, so subsequent cells run on a fresh one.
    Panicked(String),
}

impl CellOutcome {
    /// The completed result, if the run finished.
    #[must_use]
    pub fn ok(&self) -> Option<&RunResult> {
        match self {
            CellOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// Converts into the equivalent [`Machine::run_program`] return value.
    ///
    /// # Errors
    ///
    /// Returns the cell's [`RunError`] when the run aborted.
    ///
    /// # Panics
    ///
    /// Re-raises a [`CellOutcome::Panicked`] cell's panic, restoring the
    /// behavior the caller would have seen running the cell inline.
    pub fn into_result(self) -> Result<RunResult, RunError> {
        match self {
            CellOutcome::Ok(r) => Ok(r),
            CellOutcome::Err(e) => Err(e),
            CellOutcome::Panicked(msg) => panic!("sweep cell panicked: {msg}"),
        }
    }
}

/// A worker's run state: one machine, recycled across every cell the
/// worker steals.
#[derive(Default)]
struct Worker<'p> {
    machine: Option<Machine<'p>>,
}

impl<'p> Worker<'p> {
    fn run_cell(&mut self, cell: &Cell<'p>) -> CellOutcome {
        // Take the machine out: if the run panics, it stays dropped.
        let cached = self.machine.take();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut machine = match cached {
                Some(mut m) => match m.reset(cell.program, &cell.config) {
                    Ok(()) => m,
                    // A failed reset leaves the machine unusable; drop it.
                    Err(e) => return (None, Err(e)),
                },
                None => match Machine::new(cell.program, &cell.config) {
                    Ok(m) => m,
                    Err(e) => return (None, Err(e)),
                },
            };
            let result = machine.run_once();
            (Some(machine), result)
        }));
        match outcome {
            Ok((machine, result)) => {
                self.machine = machine;
                match result {
                    Ok(r) => CellOutcome::Ok(r),
                    Err(e) => CellOutcome::Err(e),
                }
            }
            Err(payload) => CellOutcome::Panicked(panic_message(&payload)),
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs every cell of the grid and returns the outcomes **in cell order**.
///
/// `threads == 0` uses the machine's available parallelism; `threads == 1`
/// runs serially on the calling thread (still recycling one machine across
/// cells). Workers steal cells from a shared cursor, so load imbalance
/// between cheap and expensive cells self-corrects; because each cell is
/// deterministic and results are merged by cell index, the returned vector
/// is bit-identical at any thread count.
#[must_use]
pub fn sweep(cells: &[Cell<'_>], threads: usize) -> Vec<CellOutcome> {
    pool::run_with_worker(cells.len(), threads, Worker::default, |worker, i| {
        worker.run_cell(&cells[i])
    })
}

/// Runs the grid like [`sweep`] and additionally appends every completed
/// cell's run to `writer` as one trace segment (labelled `cell<i>`), **in
/// cell order** — the sweep engine's emit-trace option.
///
/// Because segments are written from the merged, cell-ordered outcome
/// vector and every cell is deterministic, the emitted trace bytes are
/// identical at any thread count; `simulate → stream → verdict` composes
/// into one reproducible pipeline. Cells that erred or panicked produce
/// no segment (their outcome still reports what happened).
///
/// # Errors
///
/// Returns any I/O error raised while writing the trace.
pub fn sweep_traced<W: Write>(
    cells: &[Cell<'_>],
    threads: usize,
    writer: &mut TraceWriter<W>,
) -> io::Result<Vec<CellOutcome>> {
    let outcomes = sweep(cells, threads);
    for (i, outcome) in outcomes.iter().enumerate() {
        if let CellOutcome::Ok(run) = outcome {
            writer.write_run(&format!("cell{i}"), run)?;
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use litmus::corpus;

    #[test]
    fn outcomes_arrive_in_cell_order_at_any_thread_count() {
        let program = corpus::fig3_handoff(1);
        let cells: Vec<Cell> = (0..12)
            .map(|seed| Cell {
                program: &program,
                config: presets::network_cached(2, presets::wo_def2(), seed),
            })
            .collect();
        let serial = sweep(&cells, 1);
        for threads in [2, 3, 8] {
            let par = sweep(&cells, threads);
            assert_eq!(
                format!("{serial:?}"),
                format!("{par:?}"),
                "thread count {threads} changed the merged report"
            );
        }
    }

    #[test]
    fn recycled_cells_match_cold_run_program() {
        let program = corpus::fig1_dekker();
        let cells: Vec<Cell> = (0..6)
            .map(|seed| Cell {
                program: &program,
                config: presets::network_cached(2, presets::sc(), seed),
            })
            .collect();
        for (cell, outcome) in cells.iter().zip(sweep(&cells, 1)) {
            let cold = Machine::run_program(cell.program, &cell.config);
            assert_eq!(format!("{cold:?}"), format!("{:?}", outcome.into_result()));
        }
    }

    #[test]
    fn traced_sweep_bytes_are_thread_count_independent() {
        use crate::trace::TraceWriter;

        let program = corpus::fig3_handoff(1);
        let cells: Vec<Cell> = (0..6)
            .map(|seed| Cell {
                program: &program,
                config: presets::network_cached(2, presets::wo_def2(), seed),
            })
            .collect();
        let emit = |threads: usize| {
            let mut w = TraceWriter::new(Vec::new()).unwrap();
            sweep_traced(&cells, threads, &mut w).unwrap();
            w.finish().unwrap()
        };
        let serial = emit(1);
        let segments = crate::trace::read_trace(&serial[..]).unwrap();
        assert_eq!(segments.len(), 6);
        assert_eq!(segments[2].label, "cell2");
        for threads in [2, 4] {
            assert_eq!(serial, emit(threads), "trace bytes differ at {threads} threads");
        }
    }

    #[test]
    fn errors_are_reported_per_cell_without_aborting_the_sweep() {
        let ok_program = corpus::fig3_handoff(1);
        let mismatched = corpus::fig1_dekker(); // 2 threads on a 3-proc machine
        let cells = [
            Cell {
                program: &mismatched,
                config: presets::network_cached(3, presets::sc(), 1),
            },
            Cell {
                program: &ok_program,
                config: presets::network_cached(2, presets::sc(), 1),
            },
        ];
        let out = sweep(&cells, 2);
        assert!(matches!(out[0], CellOutcome::Err(RunError::ThreadCountMismatch { .. })));
        assert!(matches!(out[1], CellOutcome::Ok(_)));
    }
}
