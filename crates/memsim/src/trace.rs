//! Run results — per-operation timestamps, outcomes, statistics — and the
//! **wo-trace binary trace format** that serializes them.
//!
//! The trace format streams [`OpRecord`]s (the same per-operation record a
//! [`RunResult`] holds — one representation, not a parallel one) through a
//! versioned, checksummed container:
//!
//! ```text
//! file    := magic version blocks*
//! magic   := b"WOTRACE\0"                      (8 bytes)
//! version := u16 LE (= 1), u16 LE reserved (= 0)
//! block   := tag u8 · len u32 LE · payload[len] · fnv1a64(tag‖len‖payload) u64 LE
//! tag 1   := SegmentStart { procs u16, has_times u8, reserved u8,
//!                           label_len u16, label utf-8 }
//! tag 2   := Events { count u32, event × count }
//! tag 3   := SegmentEnd { events u64 }
//! event   := kind u8 · proc u16 · loc u32 · id u64
//!            · read u64  (iff kind bit 3)
//!            · write u64 (iff kind bit 4)
//!            · issue u64 · commit u64 · gp u64 (iff segment has_times)
//! ```
//!
//! One *segment* is one execution (one machine run, one explorer
//! interleaving, one synthetic stream): races never span segments, so a
//! streaming consumer resets per segment. Every block carries its own
//! FNV-1a checksum; a torn tail (the writer died mid-block) decodes to the
//! structured [`TraceError::Truncated`], a flipped byte to
//! [`TraceError::Corrupt`] — never a panic, mirroring the journal
//! discipline in `wo-serve`.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};

use memory_model::{ExecutionResult, Loc, Observation, OpId, OpKind, Operation, ProcId, ThreadTrace, Value};
use simx::SimTime;

use litmus::NUM_REGS;

/// One memory operation as the hardware performed it, with the paper's
/// three event times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// The operation with its final values (read value bound, write value
    /// stored).
    pub op: Operation,
    /// When the processor *generated* the access (Section 5.1's
    /// terminology: "an access is generated when it first comes into
    /// existence").
    pub issue: SimTime,
    /// When it *committed* (a write: modified the local copy; a read: its
    /// return value was dispatched).
    pub commit: SimTime,
    /// When it was *globally performed*.
    pub globally_performed: SimTime,
}

/// Why a processor was stalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallReason {
    /// Waiting for a load value (data dependence).
    ReadValue,
    /// SC only: waiting for the previous access to globally perform.
    ScGlobalPerform,
    /// Definition 1: waiting for all previous accesses to globally perform
    /// *before issuing* a synchronization operation.
    Def1BeforeSync,
    /// Definition 1: waiting for the synchronization operation to globally
    /// perform before issuing anything else.
    Def1AfterSync,
    /// Definition 2: waiting for a synchronization operation to commit
    /// (condition 4) — includes time blocked by another processor's
    /// reserve bit.
    SyncCommit,
    /// Definition 2: miss budget while a line is reserved exhausted;
    /// waiting for the counter to read zero.
    ReservedMissBudget,
    /// Waiting for an MSHR conflict (same-line request outstanding).
    MshrConflict,
    /// An RP3-style fence draining outstanding accesses.
    FenceDrain,
}

/// Per-processor statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Cycle the processor halted (0 if it never ran).
    pub finish_time: u64,
    /// Memory operations performed.
    pub ops: u64,
    /// Stall cycles by reason.
    pub stalls: BTreeMap<StallReason, u64>,
}

impl ProcStats {
    /// Total stall cycles across all reasons.
    #[must_use]
    pub fn total_stall(&self) -> u64 {
        self.stalls.values().sum()
    }

    /// Stall cycles for one reason.
    #[must_use]
    pub fn stall(&self, reason: StallReason) -> u64 {
        self.stalls.get(&reason).copied().unwrap_or(0)
    }
}

/// Whole-machine statistics.
#[derive(Debug, Clone, Default)]
pub struct MachineStats {
    /// Per-processor statistics, indexed by processor.
    pub procs: Vec<ProcStats>,
    /// Directory protocol counters (directory-coherent machines only).
    pub directory: Option<coherence::DirectoryStats>,
    /// Snooping-bus counters (snooping machines only).
    pub snoop: Option<coherence::snoop::SnoopStats>,
    /// Messages carried by the interconnect.
    pub messages: u64,
    /// What the fault plan did, when the run was chaos-injected.
    pub chaos: Option<simx::fault::FaultStats>,
    /// Total events the machine's event queue delivered — an
    /// implementation-effort proxy independent of wall clock, and a
    /// cross-check that a recycled machine replays a cold run exactly.
    pub events_popped: u64,
    /// Peak number of simultaneously pending events in the queue.
    pub peak_queue_len: u64,
}

/// Latency distributions derived from a run's records.
#[derive(Debug, Clone, Default)]
pub struct LatencyProfile {
    /// Issue → value-bound latency of reads (data and sync reads).
    pub read_latency: simx::stats::Histogram,
    /// Issue → commit latency of synchronization operations — what the
    /// issuing processor waits for under the Definition 2 implementation.
    pub sync_commit_latency: simx::stats::Histogram,
    /// Commit → globally-performed lag of writes — the window Definition 1
    /// stalls across and Definition 2 hides.
    pub write_gp_lag: simx::stats::Histogram,
}

/// The software-visible outcome of a run: final registers and memory —
/// directly comparable with `litmus::explore::Outcome`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Outcome {
    /// Final register file of each processor.
    pub regs: Vec<[Value; NUM_REGS]>,
    /// Final coherent memory cells differing from zero.
    pub final_memory: Vec<(Loc, Value)>,
}

/// Everything a simulation run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every memory operation with its timestamps, in completion (commit)
    /// order.
    pub records: Vec<OpRecord>,
    /// The software-visible outcome.
    pub outcome: Outcome,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Statistics.
    pub stats: MachineStats,
    /// Whether every thread ran to completion (false: the watchdog fired).
    pub completed: bool,
}

impl RunResult {
    /// The per-processor program-order [`Observation`] of the run, with
    /// the final memory attached — feed this to
    /// [`memory_model::sc::check_sc`] to decide whether the run *appears
    /// sequentially consistent* (Definition 2's question).
    ///
    /// # Panics
    ///
    /// Panics if the records are malformed (duplicate ids) — a simulator
    /// bug.
    #[must_use]
    pub fn observation(&self) -> Observation {
        let mut per_proc: BTreeMap<u16, Vec<Operation>> = BTreeMap::new();
        for rec in &self.records {
            per_proc.entry(rec.op.proc.0).or_default().push(rec.op);
        }
        let threads = per_proc
            .into_iter()
            .map(|(p, mut ops)| {
                // Program order = per-processor sequence number order.
                ops.sort_by_key(|o| o.id.seq_part());
                ThreadTrace::new(memory_model::ProcId(p), ops)
            })
            .collect();
        Observation::new(threads)
            .expect("simulator assigns unique per-processor ids")
            // Must stay: the observation owns its memory and `self` is
            // borrowed; this is per-run, not per-event.
            .with_final_memory(self.outcome.final_memory.clone())
    }

    /// The run's software-visible result — every read's returned value
    /// keyed by operation id, plus the final memory — in the same shape
    /// the idealized explorer produces, so a hardware run can be checked
    /// for membership in `litmus::explore::sc_outcomes` directly.
    #[must_use]
    pub fn execution_result(&self) -> ExecutionResult {
        let reads = self
            .records
            .iter()
            .filter_map(|r| r.op.read_value.map(|v| (r.op.id, v)))
            .collect();
        // Must stay: the result owns its memory and `self` is borrowed;
        // this is per-run, not per-event.
        ExecutionResult { reads, final_memory: self.outcome.final_memory.clone() }
    }

    /// Latency distributions of this run, derived from the records.
    #[must_use]
    pub fn latency_profile(&self) -> LatencyProfile {
        let mut profile = LatencyProfile::default();
        for rec in &self.records {
            if rec.op.kind.is_read() {
                profile
                    .read_latency
                    .record(rec.commit.saturating_since(rec.issue));
            }
            if rec.op.kind.is_sync() {
                profile
                    .sync_commit_latency
                    .record(rec.commit.saturating_since(rec.issue));
            }
            if rec.op.kind.is_write() {
                profile
                    .write_gp_lag
                    .record(rec.globally_performed.saturating_since(rec.commit));
            }
        }
        profile
    }

    /// Records of one processor, in program order.
    #[must_use]
    pub fn proc_records(&self, proc: u16) -> Vec<OpRecord> {
        let mut recs: Vec<OpRecord> = self
            .records
            .iter()
            .filter(|r| r.op.proc.0 == proc)
            .copied()
            .collect();
        recs.sort_by_key(|r| r.op.id.seq_part());
        recs
    }
}

// ---------------------------------------------------------------------------
// The wo-trace binary format.
// ---------------------------------------------------------------------------

/// File magic: identifies a wo-trace file.
pub const TRACE_MAGIC: [u8; 8] = *b"WOTRACE\0";
/// Current format version.
pub const TRACE_VERSION: u16 = 1;
/// Events buffered per `Events` block by the writer.
const EVENTS_PER_BLOCK: u32 = 4096;
/// Reader sanity cap on one block's payload, guarding allocation against a
/// corrupt length field.
const MAX_BLOCK_LEN: u32 = 64 * 1024 * 1024;

const TAG_SEGMENT_START: u8 = 1;
const TAG_EVENTS: u8 = 2;
const TAG_SEGMENT_END: u8 = 3;

const KIND_MASK: u8 = 0b0000_0111;
const HAS_READ_BIT: u8 = 0b0000_1000;
const HAS_WRITE_BIT: u8 = 0b0001_0000;

fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn kind_code(kind: OpKind) -> u8 {
    match kind {
        OpKind::DataRead => 0,
        OpKind::DataWrite => 1,
        OpKind::SyncRead => 2,
        OpKind::SyncWrite => 3,
        OpKind::SyncRmw => 4,
    }
}

fn kind_of(code: u8) -> Option<OpKind> {
    Some(match code {
        0 => OpKind::DataRead,
        1 => OpKind::DataWrite,
        2 => OpKind::SyncRead,
        3 => OpKind::SyncWrite,
        4 => OpKind::SyncRmw,
        _ => return None,
    })
}

/// A structured error decoding a trace file. Every way a file can be bad —
/// torn tail, flipped byte, wrong magic, protocol misuse — maps to a
/// variant; the reader never panics on untrusted bytes.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O error (not data-dependent).
    Io(io::Error),
    /// The file does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The file's version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// The file ends mid-block — the writer died (or the copy was cut)
    /// partway through a write.
    Truncated {
        /// Byte offset of the block whose tail is missing.
        offset: u64,
    },
    /// A block failed its checksum or decoded to nonsense.
    Corrupt {
        /// Byte offset of the offending block.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a wo-trace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace version {v} (reader speaks {TRACE_VERSION})")
            }
            TraceError::Truncated { offset } => {
                write!(f, "trace truncated mid-block at byte {offset}")
            }
            TraceError::Corrupt { offset, detail } => {
                write!(f, "trace corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Reorders a machine run's records into a *checkable* witness order:
/// each processor's operations in program order, processors interleaved
/// so that synchronization operations appear in the order they globally
/// performed (the run's synchronization order).
///
/// A weakly ordered machine commits and records operations out of
/// program order — that is the point of the model — so the raw
/// [`RunResult::records`] sequence is not a valid happens-before
/// witness: a releasing sync write can appear *before* a po-earlier data
/// write, or *after* the acquire that read from it, and a streaming
/// checker fed that sequence reports races the execution does not have.
/// The sequence built here is a linear extension of
/// `program order ∪ sync order`, which is exactly what race checking
/// needs: data operations carry no cross-processor ordering of their
/// own, so they are placed eagerly between their processor's sync
/// operations. Weak ordering globally performs each processor's sync
/// operations in program order, so ordering sync operations by
/// globally-performed time never contradicts program order.
/// Deterministic for a given record set.
#[must_use]
pub fn checkable_order(records: &[OpRecord]) -> Vec<OpRecord> {
    let procs =
        records.iter().map(|r| r.op.proc.index() + 1).max().unwrap_or(0);
    let mut queues: Vec<Vec<OpRecord>> = vec![Vec::new(); procs];
    for rec in records {
        queues[rec.op.proc.index()].push(*rec);
    }
    for q in &mut queues {
        q.sort_by_key(|r| r.op.id.seq_part());
    }
    let mut heads = vec![0usize; procs];
    let mut out = Vec::with_capacity(records.len());
    loop {
        // Data operations at a queue head are unconstrained across
        // processors: program order alone places them.
        for (p, q) in queues.iter().enumerate() {
            while let Some(rec) = q.get(heads[p]) {
                if rec.op.kind.is_sync() {
                    break;
                }
                out.push(*rec);
                heads[p] += 1;
            }
        }
        // Every remaining head is a sync operation; the earliest
        // globally performed one is next in sync order.
        let next = (0..procs)
            .filter_map(|p| {
                queues[p].get(heads[p]).map(|r| {
                    ((r.globally_performed.0, r.commit.0, r.issue.0, p), p)
                })
            })
            .min_by_key(|&(key, _)| key);
        match next {
            Some((_, p)) => {
                out.push(queues[p][heads[p]]);
                heads[p] += 1;
            }
            None => break,
        }
    }
    out
}

/// Streaming writer of the wo-trace format.
///
/// Open with [`TraceWriter::new`], then per execution:
/// [`TraceWriter::begin_segment`], any number of
/// [`TraceWriter::write_record`]/[`TraceWriter::write_op`] calls,
/// [`TraceWriter::end_segment`]. [`TraceWriter::write_run`] and
/// [`TraceWriter::write_execution`] wrap that for whole runs. Events are
/// buffered into checksummed blocks of a few thousand, so a million-event
/// stream costs a handful of syscalls per megabyte, not per event.
///
/// # Examples
///
/// ```
/// use memory_model::{Loc, Operation, OpId, ProcId};
/// use memsim::TraceWriter;
///
/// let mut writer = TraceWriter::new(Vec::new())?;
/// writer.write_execution(
///     "example",
///     2,
///     &[
///         Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
///         Operation::data_read(OpId(1), ProcId(1), Loc(0), 1),
///     ],
/// )?;
/// let bytes = writer.finish()?;
/// let segments = memsim::read_trace(&bytes[..]).unwrap();
/// assert_eq!(segments.len(), 1);
/// assert_eq!(segments[0].records.len(), 2);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    in_segment: bool,
    has_times: bool,
    seg_events: u64,
    /// Encoded events of the pending block.
    buf: Vec<u8>,
    buf_events: u32,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer, emitting the file header.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the sink.
    pub fn new(mut w: W) -> io::Result<Self> {
        w.write_all(&TRACE_MAGIC)?;
        w.write_all(&TRACE_VERSION.to_le_bytes())?;
        w.write_all(&0u16.to_le_bytes())?;
        Ok(TraceWriter {
            w,
            in_segment: false,
            has_times: false,
            seg_events: 0,
            buf: Vec::with_capacity(64 * 1024),
            buf_events: 0,
        })
    }

    fn write_block(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        let len =
            u32::try_from(payload.len()).expect("block payload exceeds u32::MAX bytes");
        let len_bytes = len.to_le_bytes();
        let crc = fnv1a64(&[&[tag], &len_bytes, payload]);
        self.w.write_all(&[tag])?;
        self.w.write_all(&len_bytes)?;
        self.w.write_all(payload)?;
        self.w.write_all(&crc.to_le_bytes())
    }

    /// Opens a segment: one execution's events, from `procs` processors.
    /// `has_times` selects whether each event carries the three hardware
    /// event times (machine runs) or none (idealized executions, synthetic
    /// streams). `label` is free-form provenance (program name, seed).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the sink.
    ///
    /// # Panics
    ///
    /// Panics if a segment is already open or the label exceeds `u16::MAX`
    /// bytes — API misuse, not data corruption.
    pub fn begin_segment(&mut self, procs: u16, has_times: bool, label: &str) -> io::Result<()> {
        assert!(!self.in_segment, "begin_segment inside an open segment");
        let label_len =
            u16::try_from(label.len()).expect("segment label exceeds u16::MAX bytes");
        let mut payload = Vec::with_capacity(6 + label.len());
        payload.extend_from_slice(&procs.to_le_bytes());
        payload.push(u8::from(has_times));
        payload.push(0);
        payload.extend_from_slice(&label_len.to_le_bytes());
        payload.extend_from_slice(label.as_bytes());
        self.write_block(TAG_SEGMENT_START, &payload)?;
        self.in_segment = true;
        self.has_times = has_times;
        self.seg_events = 0;
        Ok(())
    }

    /// Appends one event to the open segment.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the sink.
    ///
    /// # Panics
    ///
    /// Panics if no segment is open.
    pub fn write_record(&mut self, rec: &OpRecord) -> io::Result<()> {
        assert!(self.in_segment, "write_record outside a segment");
        let op = &rec.op;
        let mut kind = kind_code(op.kind);
        if op.read_value.is_some() {
            kind |= HAS_READ_BIT;
        }
        if op.write_value.is_some() {
            kind |= HAS_WRITE_BIT;
        }
        self.buf.push(kind);
        self.buf.extend_from_slice(&op.proc.0.to_le_bytes());
        self.buf.extend_from_slice(&op.loc.0.to_le_bytes());
        self.buf.extend_from_slice(&op.id.0.to_le_bytes());
        if let Some(v) = op.read_value {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        if let Some(v) = op.write_value {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        if self.has_times {
            self.buf.extend_from_slice(&rec.issue.0.to_le_bytes());
            self.buf.extend_from_slice(&rec.commit.0.to_le_bytes());
            self.buf.extend_from_slice(&rec.globally_performed.0.to_le_bytes());
        }
        self.buf_events += 1;
        self.seg_events += 1;
        if self.buf_events >= EVENTS_PER_BLOCK {
            self.flush_events()?;
        }
        Ok(())
    }

    /// Appends one timestamp-less operation (idealized executions).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the sink.
    ///
    /// # Panics
    ///
    /// Panics if no segment is open.
    pub fn write_op(&mut self, op: &Operation) -> io::Result<()> {
        self.write_record(&OpRecord {
            op: *op,
            issue: SimTime(0),
            commit: SimTime(0),
            globally_performed: SimTime(0),
        })
    }

    fn flush_events(&mut self) -> io::Result<()> {
        if self.buf_events == 0 {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(4 + self.buf.len());
        payload.extend_from_slice(&self.buf_events.to_le_bytes());
        payload.extend_from_slice(&self.buf);
        self.write_block(TAG_EVENTS, &payload)?;
        self.buf.clear();
        self.buf_events = 0;
        Ok(())
    }

    /// Closes the open segment, sealing it with its event count.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the sink.
    ///
    /// # Panics
    ///
    /// Panics if no segment is open.
    pub fn end_segment(&mut self) -> io::Result<()> {
        assert!(self.in_segment, "end_segment outside a segment");
        self.flush_events()?;
        let payload = self.seg_events.to_le_bytes();
        self.write_block(TAG_SEGMENT_END, &payload)?;
        self.in_segment = false;
        Ok(())
    }

    /// Writes a whole machine run as one timestamped segment — records in
    /// [`checkable_order`] (program order per processor, sync operations
    /// interleaved by globally-performed time), so the file can be fed
    /// straight to a streaming race checker.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the sink.
    pub fn write_run(&mut self, label: &str, run: &RunResult) -> io::Result<()> {
        let procs = u16::try_from(run.outcome.regs.len())
            .expect("more processors than u16::MAX");
        self.begin_segment(procs, true, label)?;
        for rec in &checkable_order(&run.records) {
            self.write_record(rec)?;
        }
        self.end_segment()
    }

    /// Writes an idealized execution (operations in completion order,
    /// no timestamps) as one segment.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the sink.
    pub fn write_execution(
        &mut self,
        label: &str,
        procs: u16,
        ops: &[Operation],
    ) -> io::Result<()> {
        self.begin_segment(procs, false, label)?;
        for op in ops {
            self.write_op(op)?;
        }
        self.end_segment()
    }

    /// Flushes and returns the underlying sink.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the sink.
    ///
    /// # Panics
    ///
    /// Panics if a segment is still open.
    pub fn finish(mut self) -> io::Result<W> {
        assert!(!self.in_segment, "finish with an open segment");
        self.w.flush()?;
        Ok(self.w)
    }
}

/// One item decoded from a trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceItem {
    /// A segment opened.
    SegmentStart {
        /// Processors in the recorded execution.
        procs: u16,
        /// Whether events carry hardware event times.
        has_times: bool,
        /// Free-form provenance label.
        label: String,
    },
    /// One event of the open segment.
    Record(OpRecord),
    /// The open segment closed after `events` events.
    SegmentEnd {
        /// Events the segment declared (verified against the decoded count).
        events: u64,
    },
}

/// Streaming reader of the wo-trace format: call [`TraceReader::next_item`]
/// until it returns `Ok(None)` (clean end of file). Every checksum is
/// verified before a block is decoded; malformed input yields a
/// [`TraceError`], never a panic.
///
/// One payload buffer and one decoded-record buffer serve every block, so
/// a long stream allocates only while a block is larger than any before.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    r: R,
    offset: u64,
    in_segment: bool,
    has_times: bool,
    seg_events: u64,
    /// The current block's payload bytes.
    payload: Vec<u8>,
    /// The current events block, decoded; `records[next..]` are not yet
    /// returned.
    records: Vec<OpRecord>,
    next: usize,
}

impl<R: Read> TraceReader<R> {
    /// Opens a reader, validating the file header.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`] on a
    /// foreign or future file, [`TraceError::Truncated`] if the header
    /// itself is cut short.
    pub fn new(mut r: R) -> Result<Self, TraceError> {
        let mut header = [0u8; 12];
        read_exact_at(&mut r, &mut header, 0)?;
        if header[..8] != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        Ok(TraceReader {
            r,
            offset: 12,
            in_segment: false,
            has_times: false,
            seg_events: 0,
            payload: Vec::new(),
            records: Vec::new(),
            next: 0,
        })
    }

    /// Decodes the next item, or `Ok(None)` at a clean end of file.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`]: torn tails are [`TraceError::Truncated`],
    /// checksum or structural failures [`TraceError::Corrupt`].
    pub fn next_item(&mut self) -> Result<Option<TraceItem>, TraceError> {
        if let Some(&rec) = self.records.get(self.next) {
            self.next += 1;
            return Ok(Some(TraceItem::Record(rec)));
        }
        self.next_block()
    }

    /// Reads, verifies and decodes the next block, returning its first
    /// item. Kept out of [`TraceReader::next_item`], which most calls
    /// leave from its first lines.
    #[inline(never)]
    fn next_block(&mut self) -> Result<Option<TraceItem>, TraceError> {
        let block_offset = self.offset;
        let mut tag = [0u8; 1];
        match self.r.read(&mut tag) {
            Ok(0) => {
                return if self.in_segment {
                    Err(TraceError::Truncated { offset: block_offset })
                } else {
                    Ok(None)
                };
            }
            Ok(_) => self.offset += 1,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return self.next_block(),
            Err(e) => return Err(TraceError::Io(e)),
        }
        let mut len_bytes = [0u8; 4];
        read_exact_at(&mut self.r, &mut len_bytes, block_offset)?;
        self.offset += 4;
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_BLOCK_LEN {
            return Err(TraceError::Corrupt {
                offset: block_offset,
                detail: format!("block length {len} exceeds the {MAX_BLOCK_LEN} cap"),
            });
        }
        // Grow-only: `read_exact` overwrites all `len` bytes, so only a
        // block larger than any before costs an allocation.
        let len = len as usize;
        if self.payload.len() < len {
            self.payload.resize(len, 0);
        }
        read_exact_at(&mut self.r, &mut self.payload[..len], block_offset)?;
        self.offset += len as u64;
        let mut crc_bytes = [0u8; 8];
        read_exact_at(&mut self.r, &mut crc_bytes, block_offset)?;
        self.offset += 8;
        let payload = &self.payload[..len];
        if fnv1a64(&[&tag, &len_bytes, payload]) != u64::from_le_bytes(crc_bytes) {
            return Err(corrupt(block_offset, "checksum mismatch"));
        }
        let mut cur = Cursor { bytes: payload, pos: 0, offset: block_offset };
        match tag[0] {
            TAG_SEGMENT_START => {
                if self.in_segment {
                    return Err(corrupt(block_offset, "segment start inside a segment"));
                }
                let procs = cur.u16()?;
                let has_times = cur.u8()? != 0;
                let _reserved = cur.u8()?;
                let label_len = cur.u16()? as usize;
                let label_bytes = cur.take(label_len)?;
                let label = String::from_utf8(label_bytes.to_vec())
                    .map_err(|_| corrupt(block_offset, "segment label is not utf-8"))?;
                cur.expect_end()?;
                self.in_segment = true;
                self.has_times = has_times;
                self.seg_events = 0;
                Ok(Some(TraceItem::SegmentStart { procs, has_times, label }))
            }
            TAG_EVENTS => {
                if !self.in_segment {
                    return Err(corrupt(block_offset, "events block outside a segment"));
                }
                let count = cur.u32()?;
                if count == 0 {
                    return Err(corrupt(block_offset, "empty events block"));
                }
                // A block that fails to decode leaves nothing to return.
                self.records.clear();
                self.next = 0;
                let decoded = (0..count).try_for_each(|_| {
                    self.records.push(cur.event(self.has_times)?);
                    Ok(())
                });
                if let Err(e) = decoded.and_then(|()| cur.expect_end()) {
                    self.records.clear();
                    return Err(e);
                }
                self.seg_events += u64::from(count);
                self.next = 1;
                Ok(Some(TraceItem::Record(self.records[0])))
            }
            TAG_SEGMENT_END => {
                if !self.in_segment {
                    return Err(corrupt(block_offset, "segment end outside a segment"));
                }
                let declared = cur.u64()?;
                cur.expect_end()?;
                if declared != self.seg_events {
                    return Err(corrupt(
                        block_offset,
                        format!(
                            "segment declared {declared} events but carried {}",
                            self.seg_events
                        ),
                    ));
                }
                self.in_segment = false;
                Ok(Some(TraceItem::SegmentEnd { events: declared }))
            }
            other => Err(corrupt(block_offset, format!("unknown block tag {other}"))),
        }
    }
}

fn corrupt(offset: u64, detail: impl Into<String>) -> TraceError {
    TraceError::Corrupt { offset, detail: detail.into() }
}

/// A bounds-checked little-endian cursor over one block payload; every
/// error names the block's `offset`. Its methods run once per field of
/// every event; they are `#[inline]` so they can inline into the
/// reader's block decode, which is generic and so compiled in the
/// caller's crate.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    offset: u64,
}

impl<'a> Cursor<'a> {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(corrupt(self.offset, "block payload shorter than its contents")),
        }
    }

    #[inline]
    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    fn u16(&mut self) -> Result<u16, TraceError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    #[inline]
    fn u32(&mut self) -> Result<u32, TraceError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    #[inline]
    fn u64(&mut self) -> Result<u64, TraceError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    #[inline]
    fn expect_end(&self) -> Result<(), TraceError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(corrupt(self.offset, "trailing bytes in block payload"))
        }
    }

    /// Decodes one event of a segment with or without event times.
    #[inline]
    fn event(&mut self, has_times: bool) -> Result<OpRecord, TraceError> {
        let kind_byte = self.u8()?;
        let kind = kind_of(kind_byte & KIND_MASK)
            .ok_or_else(|| corrupt(self.offset, format!("unknown op kind {kind_byte:#x}")))?;
        let has_read = kind_byte & HAS_READ_BIT != 0;
        let has_write = kind_byte & HAS_WRITE_BIT != 0;
        if (has_read && !kind.is_read()) || (has_write && !kind.is_write()) {
            return Err(corrupt(self.offset, "value-presence bits contradict the op kind"));
        }
        let proc = ProcId(self.u16()?);
        let loc = Loc(self.u32()?);
        let id = OpId(self.u64()?);
        let read_value = if has_read { Some(self.u64()?) } else { None };
        let write_value = if has_write { Some(self.u64()?) } else { None };
        let (issue, commit, gp) =
            if has_times { (self.u64()?, self.u64()?, self.u64()?) } else { (0, 0, 0) };
        Ok(OpRecord {
            op: Operation { id, proc, kind, loc, read_value, write_value },
            issue: SimTime(issue),
            commit: SimTime(commit),
            globally_performed: SimTime(gp),
        })
    }
}

fn read_exact_at<R: Read>(r: &mut R, buf: &mut [u8], offset: u64) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceError::Truncated { offset }
        } else {
            TraceError::Io(e)
        }
    })
}

/// One fully decoded trace segment.
#[derive(Debug, Clone)]
pub struct TraceSegment {
    /// Processors in the recorded execution.
    pub procs: u16,
    /// Whether events carry hardware event times.
    pub has_times: bool,
    /// Free-form provenance label.
    pub label: String,
    /// The events, in completion order.
    pub records: Vec<OpRecord>,
}

/// Eagerly decodes a whole trace into segments — convenient for tools and
/// tests; streaming consumers should drive [`TraceReader`] directly.
///
/// # Errors
///
/// Any [`TraceError`] the reader raises.
pub fn read_trace<R: Read>(r: R) -> Result<Vec<TraceSegment>, TraceError> {
    let mut reader = TraceReader::new(r)?;
    let mut segments = Vec::new();
    let mut open: Option<TraceSegment> = None;
    while let Some(item) = reader.next_item()? {
        match item {
            TraceItem::SegmentStart { procs, has_times, label } => {
                open = Some(TraceSegment { procs, has_times, label, records: Vec::new() });
            }
            TraceItem::Record(rec) => {
                open.as_mut().expect("reader yields records only inside segments").records.push(rec);
            }
            TraceItem::SegmentEnd { .. } => {
                segments.push(open.take().expect("reader yields end only inside segments"));
            }
        }
    }
    Ok(segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memory_model::{OpId, ProcId};

    fn rec(proc: u16, seq: u32, commit: u64) -> OpRecord {
        OpRecord {
            op: Operation::data_write(
                OpId::for_thread_op(ProcId(proc), seq),
                ProcId(proc),
                Loc(seq),
                1,
            ),
            issue: SimTime(commit - 1),
            commit: SimTime(commit),
            globally_performed: SimTime(commit),
        }
    }

    fn result(records: Vec<OpRecord>) -> RunResult {
        RunResult {
            records,
            outcome: Outcome { regs: vec![[0; NUM_REGS]; 2], final_memory: vec![] },
            cycles: 100,
            stats: MachineStats::default(),
            completed: true,
        }
    }

    #[test]
    fn observation_groups_by_processor_in_program_order() {
        let r = result(vec![rec(1, 1, 30), rec(0, 0, 10), rec(1, 0, 20)]);
        let obs = r.observation();
        assert_eq!(obs.threads().len(), 2);
        let p1 = &obs.threads()[1];
        assert_eq!(p1.proc, ProcId(1));
        assert_eq!(
            p1.ops.iter().map(|o| o.id.seq_part()).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(obs.final_memory(), Some(&[][..]));
    }

    #[test]
    fn proc_records_sorted_by_program_order() {
        let r = result(vec![rec(0, 2, 50), rec(0, 0, 10), rec(0, 1, 30)]);
        let seqs: Vec<u32> = r.proc_records(0).iter().map(|x| x.op.id.seq_part()).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(r.proc_records(9).is_empty());
    }

    #[test]
    fn latency_profile_buckets_by_kind() {
        use memory_model::Loc as L;
        let read = OpRecord {
            op: Operation::data_read(OpId::for_thread_op(ProcId(0), 0), ProcId(0), L(0), 1),
            issue: SimTime(10),
            commit: SimTime(25),
            globally_performed: SimTime(25),
        };
        let write = OpRecord {
            op: Operation::data_write(OpId::for_thread_op(ProcId(0), 1), ProcId(0), L(0), 1),
            issue: SimTime(30),
            commit: SimTime(40),
            globally_performed: SimTime(140),
        };
        let sync = OpRecord {
            op: Operation::sync_rmw(OpId::for_thread_op(ProcId(0), 2), ProcId(0), L(1), 0, 1),
            issue: SimTime(150),
            commit: SimTime(180),
            globally_performed: SimTime(200),
        };
        let r = result(vec![read, write, sync]);
        let p = r.latency_profile();
        assert_eq!(p.read_latency.count(), 2, "data read + sync rmw read component");
        assert_eq!(p.read_latency.min(), Some(15));
        assert_eq!(p.write_gp_lag.count(), 2, "data write + sync rmw write component");
        assert_eq!(p.write_gp_lag.max(), Some(100));
        assert_eq!(p.sync_commit_latency.count(), 1);
        assert_eq!(p.sync_commit_latency.min(), Some(30));
    }

    #[test]
    fn proc_stats_aggregates() {
        let mut s = ProcStats::default();
        *s.stalls.entry(StallReason::ReadValue).or_insert(0) += 5;
        *s.stalls.entry(StallReason::SyncCommit).or_insert(0) += 7;
        assert_eq!(s.total_stall(), 12);
        assert_eq!(s.stall(StallReason::SyncCommit), 7);
        assert_eq!(s.stall(StallReason::Def1AfterSync), 0);
    }

    // --- trace-format tests ------------------------------------------------

    #[test]
    fn checkable_order_restores_po_and_interleaves_sync_by_gp() {
        // Shape taken from a real weakly ordered run of the Figure 3
        // hand-off: P0's releasing sync write was *recorded* before its
        // po-earlier data write (the data write globally performed
        // later), and P1's acquiring sync RMW issued before the release
        // it eventually read from.
        let w = |seq: u32, gp: u64| OpRecord {
            op: Operation::data_write(
                OpId::for_thread_op(ProcId(0), seq),
                ProcId(0),
                Loc(0),
                1,
            ),
            issue: SimTime(seq.into()),
            commit: SimTime(gp),
            globally_performed: SimTime(gp),
        };
        let release = OpRecord {
            op: Operation::sync_write(OpId::for_thread_op(ProcId(0), 1), ProcId(0), Loc(100), 0),
            issue: SimTime(2),
            commit: SimTime(23),
            globally_performed: SimTime(23),
        };
        let acquire = OpRecord {
            op: Operation::sync_rmw(OpId::for_thread_op(ProcId(1), 0), ProcId(1), Loc(100), 0, 1),
            issue: SimTime(0),
            commit: SimTime(108),
            globally_performed: SimTime(108),
        };
        let read = OpRecord {
            op: Operation::data_read(OpId::for_thread_op(ProcId(1), 1), ProcId(1), Loc(0), 1),
            issue: SimTime(108),
            commit: SimTime(176),
            globally_performed: SimTime(176),
        };
        // Record order as a machine would log it: release first.
        let records = vec![release, w(0, 29), acquire, w(2, 59), read];
        let ordered = checkable_order(&records);
        let ids: Vec<(usize, u32)> =
            ordered.iter().map(|r| (r.op.proc.index(), r.op.id.seq_part())).collect();
        // P0 back in program order; P1's acquire after P0's release.
        assert_eq!(ids, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]);
    }

    fn sample_records() -> Vec<OpRecord> {
        vec![
            rec(0, 0, 10),
            OpRecord {
                op: Operation::sync_rmw(OpId::for_thread_op(ProcId(1), 0), ProcId(1), Loc(7), 0, 1),
                issue: SimTime(11),
                commit: SimTime(14),
                globally_performed: SimTime(20),
            },
            OpRecord {
                op: Operation::data_read(OpId::for_thread_op(ProcId(1), 1), ProcId(1), Loc(0), 1),
                issue: SimTime(21),
                commit: SimTime(25),
                globally_performed: SimTime(25),
            },
        ]
    }

    fn sample_trace() -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.write_run("run0", &result(sample_records())).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn roundtrips_timestamped_records() {
        let segments = read_trace(&sample_trace()[..]).unwrap();
        assert_eq!(segments.len(), 1);
        let seg = &segments[0];
        assert_eq!((seg.procs, seg.has_times, seg.label.as_str()), (2, true, "run0"));
        assert_eq!(seg.records, sample_records());
    }

    #[test]
    fn roundtrips_multiple_timeless_segments() {
        let ops: Vec<Operation> = (0..10_000)
            .map(|i| Operation::data_write(OpId(i), ProcId((i % 3) as u16), Loc(5), i))
            .collect();
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.write_execution("a", 3, &ops).unwrap();
        w.write_execution("b", 3, &ops[..17]).unwrap();
        let segments = read_trace(&w.finish().unwrap()[..]).unwrap();
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[0].records.len(), 10_000, "spans multiple event blocks");
        assert!(!segments[0].has_times);
        assert_eq!(segments[0].records[9_999].op, ops[9_999]);
        assert_eq!(segments[0].records[9_999].commit, SimTime(0));
        assert_eq!(segments[1].label, "b");
        assert_eq!(segments[1].records.len(), 17);
    }

    #[test]
    fn torn_tail_is_truncated_not_panic() {
        let bytes = sample_trace();
        // Cut anywhere past the header: always Truncated, never a panic.
        for cut in 13..bytes.len() {
            match read_trace(&bytes[..cut]) {
                Err(TraceError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_byte_is_corrupt_not_panic() {
        let bytes = sample_trace();
        // Flip every byte past the header in turn; each read must return a
        // structured error or (if the flip lands in a length field in a way
        // that shortens the file view) Truncated — never panic, never
        // silently succeed with altered event data unnoticed by checksums.
        for i in 12..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match read_trace(&bad[..]) {
                Err(TraceError::Corrupt { .. } | TraceError::Truncated { .. }) => {}
                other => panic!("flip at {i}: expected structured error, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_future_version_are_rejected() {
        assert!(matches!(read_trace(&b"NOTTRACE"[..]), Err(TraceError::Truncated { .. })));
        let mut bad = sample_trace();
        bad[0] = b'X';
        assert!(matches!(read_trace(&bad[..]), Err(TraceError::BadMagic)));
        let mut future = sample_trace();
        future[8] = 99;
        assert!(matches!(
            read_trace(&future[..]),
            Err(TraceError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn segment_count_mismatch_is_corrupt() {
        let bytes = sample_trace();
        // The SegmentEnd block is the last 1 + 4 + 8 + 8 bytes; its payload
        // (the declared event count) starts 16 bytes from the end. Tamper
        // with the count and re-seal the checksum: structure intact, count
        // lies.
        let end_block = bytes.len() - 21;
        let mut bad = bytes.clone();
        bad[end_block + 5] = 9;
        let crc = fnv1a64(&[&bad[end_block..end_block + 13]]);
        bad[end_block + 13..].copy_from_slice(&crc.to_le_bytes());
        match read_trace(&bad[..]) {
            Err(TraceError::Corrupt { detail, .. }) => {
                assert!(detail.contains("declared 9 events"), "detail: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// `n` timestamped records spread over three processors and a few
    /// kinds, so reads and writes carry their value fields.
    fn timed_records(n: u64, salt: u64) -> Vec<OpRecord> {
        (0..n)
            .map(|i| {
                let (proc, loc) = (ProcId((i % 3) as u16), Loc((i % 11) as u32));
                let id = OpId(i ^ salt);
                let op = match i % 4 {
                    0 => Operation::data_read(id, proc, loc, i),
                    1 => Operation::sync_rmw(id, proc, loc, i, i + 1),
                    _ => Operation::data_write(id, proc, loc, i),
                };
                OpRecord {
                    op,
                    issue: SimTime(3 * i + salt),
                    commit: SimTime(3 * i + salt + 1),
                    globally_performed: SimTime(3 * i + salt + 2),
                }
            })
            .collect()
    }

    fn write_segment(w: &mut TraceWriter<Vec<u8>>, label: &str, has_times: bool, recs: &[OpRecord]) {
        w.begin_segment(3, has_times, label).unwrap();
        for rec in recs {
            w.write_record(rec).unwrap();
        }
        w.end_segment().unwrap();
    }

    /// Every record the reader returns, until its first error.
    fn read_records(bytes: &[u8]) -> (Vec<OpRecord>, Result<(), TraceError>) {
        let mut reader = TraceReader::new(bytes).unwrap();
        let mut records = Vec::new();
        loop {
            match reader.next_item() {
                Ok(Some(TraceItem::Record(rec))) => records.push(rec),
                Ok(Some(_)) => {}
                Ok(None) => return (records, Ok(())),
                Err(e) => return (records, Err(e)),
            }
        }
    }

    #[test]
    fn blocks_share_the_readers_buffers_and_roundtrip_record_for_record() {
        // Three full events blocks and a short fourth.
        let n = 3 * u64::from(EVENTS_PER_BLOCK) + 17;
        let recs = timed_records(n, 0);
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        write_segment(&mut w, "blocks", true, &recs);
        let bytes = w.finish().unwrap();

        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        assert!(matches!(reader.next_item().unwrap(), Some(TraceItem::SegmentStart { .. })));
        let mut buffers = None;
        for (i, want) in recs.iter().enumerate() {
            match reader.next_item().unwrap() {
                Some(TraceItem::Record(got)) => assert_eq!(&got, want, "record {i}"),
                other => panic!("record {i}: got {other:?}"),
            }
            // After the first block, no block allocates again.
            let now = (reader.payload.as_ptr(), reader.records.as_ptr());
            if i == 0 {
                buffers = Some(now);
            }
            assert_eq!(Some(now), buffers, "record {i}: a block reallocated a buffer");
        }
        assert_eq!(reader.next_item().unwrap(), Some(TraceItem::SegmentEnd { events: n }));
        assert_eq!(reader.next_item().unwrap(), None);
    }

    #[test]
    fn corrupt_second_block_fails_at_its_offset_after_the_first_blocks_records() {
        let recs = timed_records(2 * u64::from(EVENTS_PER_BLOCK), 5);
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        write_segment(&mut w, "flip", true, &recs);
        let mut bytes = w.finish().unwrap();
        // Header, segment start, then the first events block.
        let block_len = |at: usize| {
            let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap());
            1 + 4 + len as usize + 8
        };
        let first_events = 12 + block_len(12);
        let second_events = first_events + block_len(first_events);
        bytes[second_events + 5 + 100] ^= 0x04;

        let (records, end) = read_records(&bytes);
        assert_eq!(records, recs[..EVENTS_PER_BLOCK as usize], "the first block's records");
        match end {
            Err(TraceError::Corrupt { offset, detail }) => {
                assert_eq!(offset, second_events as u64);
                assert_eq!(detail, "checksum mismatch");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_block_that_fails_to_decode_returns_none_of_its_records() {
        let ops = [
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::data_write(OpId(1), ProcId(1), Loc(0), 2),
        ];
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.write_execution("bad kind", 2, &ops).unwrap();
        let mut bytes = w.finish().unwrap();
        // The events block follows the segment start; its payload is the
        // count, then 23-byte data writes. Give the second write an
        // unknown kind and re-seal the checksum, so only decoding fails.
        let start_len = u32::from_le_bytes(bytes[13..17].try_into().unwrap()) as usize;
        let block = 12 + 1 + 4 + start_len + 8;
        let len = u32::from_le_bytes(bytes[block + 1..block + 5].try_into().unwrap()) as usize;
        bytes[block + 5 + 4 + 23] = 7;
        let crc = fnv1a64(&[&bytes[block..block + 5 + len]]);
        bytes[block + 5 + len..block + 5 + len + 8].copy_from_slice(&crc.to_le_bytes());

        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        assert!(matches!(reader.next_item(), Ok(Some(TraceItem::SegmentStart { .. }))));
        match reader.next_item() {
            Err(TraceError::Corrupt { offset, detail }) => {
                assert_eq!(offset, block as u64);
                assert!(detail.contains("unknown op kind"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The first write decoded before the failure; it must not surface.
        let after = reader.next_item();
        assert!(!matches!(after, Ok(Some(TraceItem::Record(_)))), "{after:?}");
    }

    #[test]
    fn back_to_back_segments_switch_event_times_on_and_off() {
        let timed = timed_records(u64::from(EVENTS_PER_BLOCK) + 3, 7);
        let bare: Vec<OpRecord> = timed_records(u64::from(EVENTS_PER_BLOCK) + 900, 9)
            .into_iter()
            .map(|r| OpRecord {
                issue: SimTime(0),
                commit: SimTime(0),
                globally_performed: SimTime(0),
                ..r
            })
            .collect();
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        write_segment(&mut w, "timed", true, &timed);
        write_segment(&mut w, "bare", false, &bare);
        write_segment(&mut w, "timed again", true, &timed[..40]);
        let segments = read_trace(&w.finish().unwrap()[..]).unwrap();
        let shapes: Vec<(&str, bool, usize)> = segments
            .iter()
            .map(|s| (s.label.as_str(), s.has_times, s.records.len()))
            .collect();
        assert_eq!(
            shapes,
            [("timed", true, timed.len()), ("bare", false, bare.len()), ("timed again", true, 40)]
        );
        assert_eq!(segments[0].records, timed);
        assert_eq!(segments[1].records, bare);
        assert_eq!(segments[2].records, timed[..40]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = TraceError::Corrupt { offset: 42, detail: "checksum mismatch".into() };
        assert_eq!(e.to_string(), "trace corrupt at byte 42: checksum mismatch");
        assert!(TraceError::Truncated { offset: 7 }.to_string().contains("byte 7"));
        assert!(TraceError::BadMagic.to_string().contains("magic"));
        assert!(TraceError::UnsupportedVersion(3).to_string().contains('3'));
    }
}
