//! Drivers connecting event sources to the [`StreamChecker`]: trace files
//! (streamed, bounded memory), live machine runs, and raw operation
//! slices.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

use memsim::{RunResult, TraceError, TraceItem, TraceReader};

use crate::checker::{CheckerConfig, IngestError, StreamChecker, TraceReport};

/// Why a pipeline run failed (as opposed to producing a degraded verdict,
/// which is a successful run with [`crate::Verdict::Unknown`]).
#[derive(Debug)]
pub enum PipelineError {
    /// Opening the input failed.
    Io(io::Error),
    /// The trace file was malformed (torn, corrupt, foreign).
    Trace(TraceError),
    /// A decoded event was semantically invalid for its segment.
    Ingest {
        /// The 0-based segment the event belonged to.
        segment: u64,
        /// What was wrong.
        error: IngestError,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Io(e) => write!(f, "i/o error: {e}"),
            PipelineError::Trace(e) => write!(f, "{e}"),
            PipelineError::Ingest { segment, error } => {
                write!(f, "segment {segment}: {error}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<io::Error> for PipelineError {
    fn from(e: io::Error) -> Self {
        PipelineError::Io(e)
    }
}

impl From<TraceError> for PipelineError {
    fn from(e: TraceError) -> Self {
        PipelineError::Trace(e)
    }
}

/// Streams every segment of an open [`TraceReader`] through a checker.
/// Memory stays bounded by the checker's caps plus one decode block — the
/// trace is never materialized.
///
/// # Errors
///
/// [`PipelineError`] on malformed input; decode errors surface exactly as
/// the reader reports them (torn tail → `Truncated`, flipped byte →
/// `Corrupt`), never as a panic.
pub fn check_reader<R: Read>(
    mut reader: TraceReader<R>,
    cfg: CheckerConfig,
) -> Result<TraceReport, PipelineError> {
    let mut checker = StreamChecker::new(cfg);
    let mut segment = 0u64;
    while let Some(item) = reader.next_item()? {
        match item {
            TraceItem::SegmentStart { procs, .. } => checker.begin_segment(procs),
            TraceItem::Record(rec) => checker
                .ingest(&rec.op)
                .map_err(|error| PipelineError::Ingest { segment, error })?,
            TraceItem::SegmentEnd { .. } => {
                checker.end_segment();
                segment += 1;
            }
        }
    }
    Ok(checker.finish())
}

/// Opens `path` and streams it through a checker — the
/// `simulate → stream → verdict` pipeline's consuming end.
///
/// # Errors
///
/// [`PipelineError`] on I/O failure or malformed input.
pub fn check_trace_file(
    path: &Path,
    cfg: CheckerConfig,
) -> Result<TraceReport, PipelineError> {
    let reader = TraceReader::new(BufReader::new(File::open(path)?))?;
    check_reader(reader, cfg)
}

/// Checks one live machine run without serializing it: the records are
/// reordered into [`memsim::checkable_order`] (a weakly ordered machine
/// records operations out of program order, which is not a valid
/// happens-before witness) and ingested directly. Produces the identical
/// report to writing the run with [`memsim::TraceWriter::write_run`] and
/// checking the file.
///
/// # Errors
///
/// [`IngestError`] if the run's records are malformed (a simulator bug,
/// surfaced structurally).
pub fn check_run(run: &RunResult, cfg: CheckerConfig) -> Result<TraceReport, IngestError> {
    let mut checker = StreamChecker::new(cfg);
    let procs = u16::try_from(run.outcome.regs.len()).unwrap_or(u16::MAX);
    checker.begin_segment(procs);
    for rec in &memsim::checkable_order(&run.records) {
        checker.ingest(&rec.op)?;
    }
    checker.end_segment();
    Ok(checker.finish())
}

/// Checks one already-materialized execution (operations in completion
/// order) as a single segment over `procs` processors.
///
/// # Errors
///
/// [`IngestError::ProcOutOfRange`] if an operation names a processor
/// outside `0..procs`.
pub fn check_ops(
    ops: &[memory_model::Operation],
    procs: u16,
    cfg: CheckerConfig,
) -> Result<TraceReport, IngestError> {
    let mut checker = StreamChecker::new(cfg);
    checker.begin_segment(procs);
    for op in ops {
        checker.ingest(op)?;
    }
    checker.end_segment();
    Ok(checker.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Verdict;
    use litmus::corpus;
    use memsim::{presets, sweep, Machine, TraceWriter};

    #[test]
    fn live_run_and_trace_file_produce_identical_reports() {
        let program = corpus::fig3_handoff(1);
        let config = presets::network_cached(2, presets::wo_def2(), 7);
        let run = Machine::run_program(&program, &config).unwrap();

        let live = check_run(&run, CheckerConfig::default()).unwrap();

        let mut writer = TraceWriter::new(Vec::new()).unwrap();
        writer.write_run("handoff", &run).unwrap();
        let bytes = writer.finish().unwrap();
        let streamed =
            check_reader(TraceReader::new(&bytes[..]).unwrap(), CheckerConfig::default())
                .unwrap();

        assert_eq!(live.canonical_text(), streamed.canonical_text());
        assert_eq!(live.verdict, Verdict::Drf0, "the hand-off synchronizes its data");
    }

    #[test]
    fn swept_trace_checks_per_cell_segments() {
        let program = corpus::racy_counter(2);
        let cells: Vec<sweep::Cell> = (0..3)
            .map(|seed| sweep::Cell {
                program: &program,
                config: presets::network_cached(2, presets::relaxed(), seed),
            })
            .collect();
        let mut writer = TraceWriter::new(Vec::new()).unwrap();
        sweep::sweep_traced(&cells, 2, &mut writer).unwrap();
        let bytes = writer.finish().unwrap();
        let report =
            check_reader(TraceReader::new(&bytes[..]).unwrap(), CheckerConfig::default())
                .unwrap();
        assert_eq!(report.segments, 3);
        assert_eq!(report.verdict, Verdict::Racy, "unsynchronized counter increments race");
    }

    #[test]
    fn a_segment_wider_than_the_bound_fails_at_its_first_event() {
        let procs = u16::try_from(crate::checker::MAX_PROCS + 1).unwrap();
        let op = memory_model::Operation::data_write(
            memory_model::OpId(0),
            memory_model::ProcId(0),
            memory_model::Loc(0),
            1,
        );
        let mut writer = TraceWriter::new(Vec::new()).unwrap();
        writer.write_execution("wide", procs, &[op]).unwrap();
        let bytes = writer.finish().unwrap();
        match check_reader(TraceReader::new(&bytes[..]).unwrap(), CheckerConfig::default()) {
            Err(PipelineError::Ingest { segment: 0, error: IngestError::TooManyProcs { procs } }) => {
                assert_eq!(procs, crate::checker::MAX_PROCS + 1);
            }
            other => panic!("expected TooManyProcs, got {other:?}"),
        }
    }

    #[test]
    fn truncated_file_yields_structured_error() {
        let program = corpus::fig3_handoff(1);
        let config = presets::network_cached(2, presets::wo_def2(), 7);
        let run = Machine::run_program(&program, &config).unwrap();
        let mut writer = TraceWriter::new(Vec::new()).unwrap();
        writer.write_run("torn", &run).unwrap();
        let bytes = writer.finish().unwrap();
        let torn = &bytes[..bytes.len() - 5];
        match check_reader(TraceReader::new(torn).unwrap(), CheckerConfig::default()) {
            Err(PipelineError::Trace(TraceError::Truncated { .. })) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }
}
