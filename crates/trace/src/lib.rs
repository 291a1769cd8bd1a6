//! # wo-trace — streaming DRF0 race checking over million-event traces
//!
//! The explorer (`litmus::explore`) answers "is this *program* DRF0?" by
//! enumerating interleavings; the simulator (`memsim`) produces single
//! hardware executions. This crate closes the loop at scale: it ingests a
//! stream of memory-operation events — a [`memsim::TraceWriter`] file, a
//! live machine run, a synthetic workload — and maintains an **online**
//! race/DRF0 verdict with **bounded memory**, so million-event traces are
//! checked without materializing an execution.
//!
//! Three layers:
//!
//! * [`StreamChecker`] — the sharded incremental vector-clock engine
//!   (see [`checker`] for the two-phase batch algorithm and the proof
//!   sketch of shard-count independence). It reuses the two pieces the
//!   exploring `RaceDetector` is made of — the clock step
//!   [`memory_model::vc::HbClocks`] and the epoch-compressed per-location
//!   history [`memory_model::race::LocationState`] — so the streaming and
//!   exploring checkers cannot drift apart. A history is laid out
//!   epoch-first: the race check scans one array of 4-byte epochs, and
//!   operation ids are read only to record or report. Each event costs
//!   one location lookup: the sequential pass gives every admitted
//!   location a `(shard, dense index)`, and the shard pass indexes its
//!   `Vec` of histories with it. A segment may declare at most
//!   [`checker::MAX_PROCS`] processors.
//! * [`pipeline`] — drivers: [`check_trace_file`] (streamed, bounded),
//!   [`check_run`] (live [`memsim::RunResult`]), [`check_ops`] (slices).
//! * [`synth`] — deterministic synthetic streams for benchmarks and
//!   determinism tests.
//!
//! The verdict is deliberately three-valued ([`Verdict`]): when a memory
//! cap trims checker state, the report degrades to a structured
//! [`Verdict::Unknown`] with the reason — never a silently wrong `Drf0`
//! and never an abort — mirroring `wo-serve`'s partial-verdict
//! discipline.
//!
//! # Examples
//!
//! Simulate → stream → verdict, end to end:
//!
//! ```
//! use litmus::corpus;
//! use memsim::{presets, sweep, TraceReader, TraceWriter};
//! use wo_trace::{check_reader, CheckerConfig, Verdict};
//!
//! // Simulate: three seeds of the Figure 3 hand-off, traced.
//! let program = corpus::fig3_handoff(1);
//! let cells: Vec<sweep::Cell> = (0..3)
//!     .map(|seed| sweep::Cell {
//!         program: &program,
//!         config: presets::network_cached(2, presets::wo_def2(), seed),
//!     })
//!     .collect();
//! let mut writer = TraceWriter::new(Vec::new()).unwrap();
//! sweep::sweep_traced(&cells, 2, &mut writer).unwrap();
//! let bytes = writer.finish().unwrap();
//!
//! // Stream → verdict: the hand-off synchronizes its data accesses.
//! let reader = TraceReader::new(&bytes[..]).unwrap();
//! let report = check_reader(reader, CheckerConfig::default()).unwrap();
//! assert_eq!(report.verdict, Verdict::Drf0);
//! assert_eq!(report.segments, 3);
//! ```

#![deny(missing_docs)]

pub mod checker;
pub mod pipeline;
pub mod synth;

pub use checker::{
    CheckerConfig, IngestError, StreamChecker, TraceReport, UnknownReason, Verdict,
};
pub use pipeline::{check_ops, check_reader, check_run, check_trace_file, PipelineError};
pub use synth::{write_synth, SynthConfig, SynthStream};
