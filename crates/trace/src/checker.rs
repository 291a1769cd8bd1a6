//! The sharded, incremental vector-clock race-checking engine.
//!
//! [`StreamChecker`] consumes one execution's events in completion order
//! (one *segment* at a time) and maintains an online DRF0 verdict with
//! bounded memory. It is a **batch-pipelined** user of the same two
//! pieces [`memory_model::race::RaceDetector`] is made of: the clock step
//! [`HbClocks`] and the per-location history [`LocationState`] — one
//! clock step, one race-checking logic, no fork. Events are buffered into
//! batches and each batch is processed in two phases:
//!
//! 1. **Sequential clock pass.** Vector clocks are inherently sequential:
//!    a synchronization operation acquires the clock published by the
//!    previous release on its location. For each event this pass takes
//!    the [`HbClocks`] acquire, snapshots the post-acquire/pre-tick clock
//!    it yields into a flat arena, and takes the release (tick, publish) —
//!    O(procs) per event, no hashing of races. Each event costs **one**
//!    location lookup, in a map (std `RandomState`: trace files are
//!    untrusted input) that holds all the pass knows of a location: its
//!    published-clock slot, if any, and its **admission** (see below). On
//!    a location's first appearance the pass admits it and hands it a
//!    `(shard, dense index)`: the shard by hash, the index in
//!    first-appearance order within that shard. Each admitted event is
//!    bucketed by shard together with that index.
//!
//! 2. **Parallel shard pass.** Each shard race-checks its bucketed events
//!    in stream order against its own `Vec` of [`LocationState`]s, indexed
//!    directly by the dense index from phase 1 — no second lookup. A
//!    location's first event in a shard meets an index one past the end
//!    and appends the location's history. The shards run on the same
//!    work-stealing pool the memsim sweep engine uses ([`memsim::pool`]).
//!    Because every event carries its phase-1 clock snapshot and two
//!    events on one location always land in one shard in stream order,
//!    the union of shard races equals the sequential detector's race set
//!    exactly — at any shard or thread count.
//!
//! Races are merged at segment end, sorted by `(first, second, loc)` and
//! deduplicated, so reports are **byte-identical** regardless of
//! parallelism ([`TraceReport::canonical_text`] is the comparable form).
//!
//! # Bounded memory and partial verdicts
//!
//! Checker state is bounded by two caps, and exceeding either degrades
//! the verdict *structurally* (mirroring `wo-serve`'s `Unknown` verdicts)
//! instead of aborting or growing without bound:
//!
//! * [`CheckerConfig::max_tracked_locations`] bounds per-location
//!   histories. Admission is decided in the sequential pass by **first
//!   appearance order** — a global, shard-independent rule; per-shard caps
//!   would let the set of dropped locations depend on the shard count and
//!   break determinism. Events on dropped locations still tick clocks
//!   (their ordering effects are preserved), so races reported on tracked
//!   locations remain sound; only races *on dropped locations* can be
//!   missed. A clean report therefore degrades to
//!   [`UnknownReason::LocationCapExceeded`], while a racy one stays
//!   [`Verdict::Racy`].
//! * [`CheckerConfig::max_sync_locations`] bounds published sync-location
//!   clocks (the [`HbClocks`] refuses a first publish past it). Overflow
//!   here loses happens-before edges: later events may be *wrongly*
//!   flagged as races, so both race presence and absence become unsound
//!   and the verdict is [`UnknownReason::SyncCapExceeded`].
//!
//! A segment's width is bounded too, by [`MAX_PROCS`]: its clocks and
//! every history are O(procs), and a segment header names `procs` before
//! any event arrives.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Mutex;

use memory_model::drf0::Race;
use memory_model::race::LocationState;
use memory_model::vc::{HbClocks, VectorClock};
use memory_model::{Loc, Operation, SyncMode};

/// Tuning knobs of a [`StreamChecker`].
///
/// Only `mode` affects the verdict semantics; `shards`, `threads`, and
/// `batch` affect performance alone, and the two caps bound memory (their
/// effect on the verdict is the structured degradation described in the
/// module docs — never a different race set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerConfig {
    /// Location shards for the parallel checking pass.
    pub shards: usize,
    /// Worker threads for the shard pass (0 = available parallelism,
    /// 1 = serial).
    pub threads: usize,
    /// The happens-before mode (DRF0, or the Section 6 refinement where
    /// only writing synchronization operations release).
    pub mode: SyncMode,
    /// Events buffered per two-phase batch.
    pub batch: usize,
    /// Cap on per-location histories per segment (first appearance wins).
    pub max_tracked_locations: usize,
    /// Cap on published sync-location clocks per segment.
    pub max_sync_locations: usize,
    /// Cap on races *retained* in the report (the count is always exact).
    pub max_kept_races: usize,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            shards: 8,
            threads: 0,
            mode: SyncMode::Drf0,
            batch: 1 << 16,
            max_tracked_locations: 1 << 20,
            max_sync_locations: 1 << 16,
            max_kept_races: 10_000,
        }
    }
}

/// The most processors one segment may declare. A segment from `procs`
/// processors costs `procs` clocks of `procs` 4-byte components before
/// its first event, and a history of
/// [`LocationState::approx_bytes`]`(procs)` per tracked location: at 256
/// that is 256 KiB of clocks and 12,320 bytes per location, where the
/// 65,535 a segment header can name would ask for about 16 GiB of clocks.
/// A wider segment allocates nothing, and its first event is refused with
/// [`IngestError::TooManyProcs`].
pub const MAX_PROCS: usize = 256;

/// Why a stream could not be ingested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// An event arrived outside `begin_segment` / `end_segment`.
    NoOpenSegment,
    /// An event named a processor outside the segment's declared range —
    /// a malformed trace, reported structurally rather than panicking.
    ProcOutOfRange {
        /// The event's processor.
        proc: u16,
        /// Processors the segment declared.
        procs: usize,
    },
    /// The segment declared more than [`MAX_PROCS`] processors.
    TooManyProcs {
        /// Processors the segment declared.
        procs: usize,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::NoOpenSegment => write!(f, "event outside any segment"),
            IngestError::ProcOutOfRange { proc, procs } => {
                write!(f, "event names processor {proc} but the segment declared {procs}")
            }
            IngestError::TooManyProcs { procs } => {
                write!(f, "the segment declared {procs} processors, more than {MAX_PROCS}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Why a verdict is neither DRF0 nor Racy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownReason {
    /// The tracked-location cap dropped some locations: no race was found
    /// on the tracked ones, but dropped locations were not checked.
    LocationCapExceeded,
    /// The sync-location cap dropped published clocks: happens-before
    /// itself is incomplete, so even reported races are unreliable.
    SyncCapExceeded,
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::LocationCapExceeded => write!(f, "location-cap-exceeded"),
            UnknownReason::SyncCapExceeded => write!(f, "sync-cap-exceeded"),
        }
    }
}

/// The checker's online answer to "is this trace DRF0?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every event was checked; no race exists in the stream.
    Drf0,
    /// At least one data race was found (sound even under the location
    /// cap: dropped locations only *hide* races, never invent them).
    Racy,
    /// A memory cap degraded the answer; the reason says how.
    Unknown(UnknownReason),
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Drf0 => write!(f, "DRF0"),
            Verdict::Racy => write!(f, "RACY"),
            Verdict::Unknown(reason) => write!(f, "UNKNOWN({reason})"),
        }
    }
}

/// The final, deterministic result of checking a stream.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The online DRF0 verdict.
    pub verdict: Verdict,
    /// The happens-before mode the check ran under.
    pub mode: SyncMode,
    /// Segments (executions) checked.
    pub segments: u64,
    /// Events ingested.
    pub events: u64,
    /// Synchronization events among them.
    pub sync_events: u64,
    /// Exact number of distinct races found.
    pub total_races: u64,
    /// The races, in canonical `(first, second, loc)` order, truncated to
    /// [`CheckerConfig::max_kept_races`].
    pub races: Vec<Race>,
    /// Whether `races` was truncated by the retention cap.
    pub races_truncated: bool,
    /// Races per location, in location order (every counted race, even
    /// beyond the retention cap).
    pub racy_locations: Vec<(Loc, u64)>,
    /// Events on dropped (unadmitted) locations — unchecked.
    pub dropped_events: u64,
    /// Locations dropped by the tracked-location cap.
    pub dropped_locations: u64,
    /// Peak tracked locations in any one segment.
    pub tracked_locations_high_water: u64,
    /// Peak published sync-location clocks in any one segment.
    pub sync_locations_high_water: u64,
    /// Whether the sync-location cap overflowed anywhere.
    pub sync_overflow: bool,
    /// Peak *logical* checker-state footprint (location histories plus
    /// published clocks), in bytes — computed from counts, so it is
    /// deterministic, unlike an allocator measurement.
    pub approx_state_bytes_high_water: u64,
}

impl TraceReport {
    /// The report as comparable text: every semantic field, **excluding**
    /// performance-only configuration (shards, threads, batch size).
    /// Equal streams must produce byte-identical canonical text at any
    /// parallelism — the determinism tests diff exactly this.
    #[must_use]
    pub fn canonical_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "verdict: {}", self.verdict);
        let mode = match self.mode {
            SyncMode::Drf0 => "drf0",
            SyncMode::ReleaseWrites => "release-writes",
        };
        let _ = writeln!(s, "mode: {mode}");
        let _ = writeln!(s, "segments: {}", self.segments);
        let _ = writeln!(s, "events: {}", self.events);
        let _ = writeln!(s, "sync-events: {}", self.sync_events);
        let _ = writeln!(s, "races: {}", self.total_races);
        let _ = writeln!(s, "races-truncated: {}", self.races_truncated);
        let _ = writeln!(s, "dropped-events: {}", self.dropped_events);
        let _ = writeln!(s, "dropped-locations: {}", self.dropped_locations);
        let _ = writeln!(s, "tracked-locations-high-water: {}", self.tracked_locations_high_water);
        let _ = writeln!(s, "sync-locations-high-water: {}", self.sync_locations_high_water);
        let _ = writeln!(s, "sync-overflow: {}", self.sync_overflow);
        let _ = writeln!(s, "state-bytes-high-water: {}", self.approx_state_bytes_high_water);
        for race in &self.races {
            let _ = writeln!(s, "race: {} {} {}", race.first, race.second, race.loc);
        }
        for (loc, count) in &self.racy_locations {
            let _ = writeln!(s, "racy-loc: {loc} {count}");
        }
        s
    }
}

/// All the sequential pass keeps of one location, found by one lookup.
#[derive(Clone, Copy)]
struct LocEntry {
    /// Where the location's events are checked: its history is
    /// `shards[shard].locations[index]`. `None` once the tracked-location
    /// cap dropped it.
    history: Option<(u32, u32)>,
    /// The location's published-clock slot in the [`HbClocks`], once a
    /// release published one.
    published: Option<u32>,
}

/// One shard: the location histories it owns, by dense index, and the
/// races it found.
#[derive(Default)]
struct Shard {
    locations: Vec<LocationState>,
    races: Vec<Race>,
}

/// The streaming checker. See the module docs for the algorithm.
///
/// # Examples
///
/// ```
/// use memory_model::{Loc, Operation, OpId, ProcId};
/// use wo_trace::{CheckerConfig, StreamChecker, Verdict};
///
/// let mut checker = StreamChecker::new(CheckerConfig::default());
/// checker.begin_segment(2);
/// checker.ingest(&Operation::data_write(OpId(0), ProcId(0), Loc(0), 1)).unwrap();
/// checker.ingest(&Operation::data_read(OpId(1), ProcId(1), Loc(0), 1)).unwrap();
/// checker.end_segment();
/// let report = checker.finish();
/// assert_eq!(report.verdict, Verdict::Racy);
/// assert_eq!(report.total_races, 1);
/// ```
pub struct StreamChecker {
    cfg: CheckerConfig,
    // --- per-segment state, rebuilt by `begin_segment` -------------------
    in_segment: bool,
    procs: usize,
    clocks: HbClocks,
    locations: HashMap<Loc, LocEntry>,
    tracked: usize,
    /// Locations admitted to each shard so far: the next dense index.
    shard_len: Vec<u32>,
    shards: Vec<Mutex<Shard>>,
    batch_ops: Vec<Operation>,
    arena: Vec<u32>,
    /// Per shard: `(event index in the batch, dense location index)`.
    buckets: Vec<Vec<(u32, u32)>>,
    // --- cumulative accounting ------------------------------------------
    segments: u64,
    events: u64,
    sync_events: u64,
    total_races: u64,
    kept_races: Vec<Race>,
    races_truncated: bool,
    racy_locations: BTreeMap<Loc, u64>,
    dropped_events: u64,
    dropped_locations: u64,
    tracked_hw: u64,
    sync_hw: u64,
    state_bytes_hw: u64,
    sync_overflow: bool,
}

impl StreamChecker {
    /// Creates a checker; feed it segments via [`StreamChecker::begin_segment`].
    #[must_use]
    pub fn new(cfg: CheckerConfig) -> Self {
        // Shard and location indexes and batch positions are kept as
        // `u32`; no cap beyond that range could be reached in memory.
        let most = u32::MAX as usize;
        let cfg = CheckerConfig {
            shards: cfg.shards.clamp(1, most),
            batch: cfg.batch.clamp(1, most),
            max_tracked_locations: cfg.max_tracked_locations.min(most),
            max_sync_locations: cfg.max_sync_locations.min(most),
            ..cfg
        };
        StreamChecker {
            cfg,
            in_segment: false,
            procs: 0,
            clocks: HbClocks::new(0, cfg.mode, 0),
            locations: HashMap::new(),
            tracked: 0,
            shard_len: Vec::new(),
            shards: Vec::new(),
            batch_ops: Vec::new(),
            arena: Vec::new(),
            buckets: Vec::new(),
            segments: 0,
            events: 0,
            sync_events: 0,
            total_races: 0,
            kept_races: Vec::new(),
            races_truncated: false,
            racy_locations: BTreeMap::new(),
            dropped_events: 0,
            dropped_locations: 0,
            tracked_hw: 0,
            sync_hw: 0,
            state_bytes_hw: 0,
            sync_overflow: false,
        }
    }

    /// Opens a segment: one execution from `procs` processors. Races never
    /// span segments, so all per-segment state resets here. A segment of
    /// more than [`MAX_PROCS`] processors gets no clocks, and its first
    /// event is refused.
    ///
    /// # Panics
    ///
    /// Panics if a segment is already open — API misuse, matching the
    /// writer's discipline.
    pub fn begin_segment(&mut self, procs: u16) {
        assert!(!self.in_segment, "begin_segment inside an open segment");
        let procs = usize::from(procs);
        self.in_segment = true;
        self.procs = procs;
        let width = if procs > MAX_PROCS { 0 } else { procs };
        self.clocks = HbClocks::new(width, self.cfg.mode, self.cfg.max_sync_locations);
        self.locations.clear();
        self.tracked = 0;
        self.shard_len.clear();
        self.shard_len.resize(self.cfg.shards, 0);
        self.shards = (0..self.cfg.shards).map(|_| Mutex::new(Shard::default())).collect();
        self.batch_ops.clear();
        self.arena.clear();
        self.buckets.resize_with(self.cfg.shards, Vec::new);
        for bucket in &mut self.buckets {
            bucket.clear();
        }
    }

    /// Ingests one event (in completion order). Processing is batched;
    /// verdict-relevant effects are indistinguishable from per-event
    /// processing.
    ///
    /// # Errors
    ///
    /// [`IngestError::NoOpenSegment`] outside a segment,
    /// [`IngestError::TooManyProcs`] in a segment wider than [`MAX_PROCS`],
    /// [`IngestError::ProcOutOfRange`] when the event names a processor
    /// the segment did not declare.
    pub fn ingest(&mut self, op: &Operation) -> Result<(), IngestError> {
        if !self.in_segment {
            return Err(IngestError::NoOpenSegment);
        }
        // The clocks span every declared processor, or none in a segment
        // wider than the bound.
        if op.proc.index() >= self.clocks.procs() {
            let procs = self.procs;
            return Err(if procs > MAX_PROCS {
                IngestError::TooManyProcs { procs }
            } else {
                IngestError::ProcOutOfRange { proc: op.proc.0, procs }
            });
        }
        self.events += 1;
        if op.kind.is_sync() {
            self.sync_events += 1;
        }
        self.batch_ops.push(*op);
        if self.batch_ops.len() >= self.cfg.batch {
            self.process_batch();
        }
        Ok(())
    }

    /// Closes the open segment: flushes the pending batch and folds the
    /// shard races into the cumulative report in canonical order.
    ///
    /// # Panics
    ///
    /// Panics if no segment is open.
    pub fn end_segment(&mut self) {
        assert!(self.in_segment, "end_segment outside a segment");
        self.process_batch();
        let mut seg_races = Vec::new();
        for shard in &mut self.shards {
            seg_races.append(&mut shard.get_mut().expect("no poisoned shard").races);
        }
        // Each race is keyed by its completing event, and each event is
        // checked exactly once, so the set is already duplicate-free; the
        // sort alone makes the order shard-count-independent.
        seg_races.sort_unstable_by_key(|r| (r.first, r.second, r.loc));
        self.total_races += seg_races.len() as u64;
        for race in &seg_races {
            *self.racy_locations.entry(race.loc).or_insert(0) += 1;
        }
        let room = self.cfg.max_kept_races.saturating_sub(self.kept_races.len());
        if seg_races.len() > room {
            self.races_truncated = true;
        }
        self.kept_races.extend(seg_races.into_iter().take(room));
        self.in_segment = false;
        self.segments += 1;
    }

    /// Finishes the stream and produces the deterministic report.
    ///
    /// # Panics
    ///
    /// Panics if a segment is still open.
    #[must_use]
    pub fn finish(self) -> TraceReport {
        assert!(!self.in_segment, "finish with an open segment");
        let verdict = if self.sync_overflow {
            Verdict::Unknown(UnknownReason::SyncCapExceeded)
        } else if self.total_races > 0 {
            Verdict::Racy
        } else if self.dropped_events > 0 {
            Verdict::Unknown(UnknownReason::LocationCapExceeded)
        } else {
            Verdict::Drf0
        };
        TraceReport {
            verdict,
            mode: self.cfg.mode,
            segments: self.segments,
            events: self.events,
            sync_events: self.sync_events,
            total_races: self.total_races,
            races: self.kept_races,
            races_truncated: self.races_truncated,
            racy_locations: self.racy_locations.into_iter().collect(),
            dropped_events: self.dropped_events,
            dropped_locations: self.dropped_locations,
            tracked_locations_high_water: self.tracked_hw,
            sync_locations_high_water: self.sync_hw,
            sync_overflow: self.sync_overflow,
            approx_state_bytes_high_water: self.state_bytes_hw,
        }
    }

    /// The two-phase batch: sequential clock pass, then parallel
    /// per-shard checking. See the module docs for why this equals the
    /// sequential detector exactly.
    fn process_batch(&mut self) {
        if self.batch_ops.is_empty() {
            return;
        }
        let procs = self.procs;
        self.arena.clear();
        self.arena.reserve(self.batch_ops.len() * procs);

        // Phase 1: sequential clock pass, one location lookup per event.
        for (i, op) in self.batch_ops.iter().enumerate() {
            let p = op.proc.index();
            let entry = match self.locations.entry(op.loc) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    // Admission: global, first-appearance order —
                    // independent of shard count, so degraded verdicts
                    // stay deterministic.
                    let history = if self.tracked < self.cfg.max_tracked_locations {
                        self.tracked += 1;
                        let hash = u64::from(op.loc.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let shard = (hash >> 32) as usize % self.cfg.shards;
                        let index = self.shard_len[shard];
                        self.shard_len[shard] += 1;
                        Some((shard as u32, index))
                    } else {
                        self.dropped_locations += 1;
                        None
                    };
                    e.insert(LocEntry { history, published: None })
                }
            };
            // Snapshot the post-acquire, pre-tick clock: exactly what the
            // sequential detector hands LocationState::observe.
            self.arena.extend_from_slice(self.clocks.acquire(op, p, entry.published));
            // Only a *new* sync location's first publish can be refused.
            if !self.clocks.release(op, p, &mut entry.published) {
                self.sync_overflow = true;
            }
            match entry.history {
                Some((shard, index)) => self.buckets[shard as usize].push((i as u32, index)),
                None => self.dropped_events += 1,
            }
        }

        // Phase 2: parallel per-shard checking over disjoint locations.
        {
            let shards = &self.shards;
            let buckets = &self.buckets;
            let ops = &self.batch_ops;
            let arena = &self.arena;
            memsim::pool::run_with_worker(
                shards.len(),
                self.cfg.threads,
                || (),
                |(), s| {
                    let mut shard = shards[s].lock().expect("no poisoned shard");
                    let Shard { locations, races } = &mut *shard;
                    for &(i, index) in &buckets[s] {
                        let (i, index) = (i as usize, index as usize);
                        let op = &ops[i];
                        let clock = &arena[i * procs..(i + 1) * procs];
                        // Phase 1 hands out a shard's indexes in the order
                        // this loop meets them: a new one is one past the end.
                        if index == locations.len() {
                            locations.push(LocationState::new(procs));
                        }
                        locations[index].observe(op, op.proc.index(), clock, races);
                    }
                },
            );
        }

        self.batch_ops.clear();
        for bucket in &mut self.buckets {
            bucket.clear();
        }

        // High-water accounting, from *counts* so it is deterministic.
        self.tracked_hw = self.tracked_hw.max(self.tracked as u64);
        let published = self.clocks.published();
        self.sync_hw = self.sync_hw.max(published as u64);
        let sync_entry_bytes = std::mem::size_of::<(Loc, VectorClock)>() + procs * 4;
        let state_bytes = (self.tracked * LocationState::approx_bytes(procs)
            + published * sync_entry_bytes) as u64;
        self.state_bytes_hw = self.state_bytes_hw.max(state_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memory_model::race::races_of;
    use memory_model::{Execution, OpId, ProcId};

    fn check_ops(ops: &[Operation], procs: u16, cfg: CheckerConfig) -> TraceReport {
        let mut checker = StreamChecker::new(cfg);
        checker.begin_segment(procs);
        for op in ops {
            checker.ingest(op).unwrap();
        }
        checker.end_segment();
        checker.finish()
    }

    fn racy_ops() -> Vec<Operation> {
        vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::sync_write(OpId(1), ProcId(0), Loc(9), 1),
            Operation::sync_rmw(OpId(2), ProcId(1), Loc(9), 1, 2),
            Operation::data_read(OpId(3), ProcId(1), Loc(0), 1), // synced: no race
            Operation::data_write(OpId(4), ProcId(2), Loc(0), 5), // races with 0 and 3
        ]
    }

    #[test]
    fn matches_sequential_detector_on_small_stream() {
        let ops = racy_ops();
        let exec = Execution::new(ops.clone()).unwrap();
        let mut expected = races_of(&exec, SyncMode::Drf0);
        expected.sort_unstable_by_key(|r| (r.first, r.second, r.loc));
        for shards in [1, 2, 7] {
            let report = check_ops(
                &ops,
                3,
                CheckerConfig { shards, threads: 1, ..CheckerConfig::default() },
            );
            assert_eq!(report.races, expected, "shards={shards}");
            assert_eq!(report.verdict, Verdict::Racy);
            assert_eq!(report.total_races, 2);
        }
    }

    #[test]
    fn drf0_stream_is_clean_and_counts_sync_events() {
        let ops = vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::sync_write(OpId(1), ProcId(0), Loc(9), 1),
            Operation::sync_rmw(OpId(2), ProcId(1), Loc(9), 1, 2),
            Operation::data_read(OpId(3), ProcId(1), Loc(0), 1),
        ];
        let report = check_ops(&ops, 2, CheckerConfig::default());
        assert_eq!(report.verdict, Verdict::Drf0);
        assert_eq!((report.events, report.sync_events), (4, 2));
        assert_eq!(report.tracked_locations_high_water, 2);
        assert_eq!(report.sync_locations_high_water, 1);
        assert!(report.approx_state_bytes_high_water > 0);
    }

    #[test]
    fn tiny_batches_do_not_change_the_verdict() {
        let ops = racy_ops();
        let big = check_ops(&ops, 3, CheckerConfig::default());
        let tiny = check_ops(&ops, 3, CheckerConfig { batch: 1, ..CheckerConfig::default() });
        assert_eq!(big.canonical_text(), tiny.canonical_text());
    }

    #[test]
    fn location_cap_degrades_clean_to_unknown_but_keeps_racy() {
        // Two racy locations; cap admits only the first-seen one.
        let ops = vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::data_write(OpId(1), ProcId(0), Loc(1), 1),
            Operation::data_write(OpId(2), ProcId(1), Loc(0), 2),
            Operation::data_write(OpId(3), ProcId(1), Loc(1), 2),
        ];
        let cap1 = CheckerConfig { max_tracked_locations: 1, ..CheckerConfig::default() };
        let report = check_ops(&ops, 2, cap1);
        assert_eq!(report.verdict, Verdict::Racy, "race on the tracked location is sound");
        assert_eq!(report.total_races, 1);
        assert_eq!(report.dropped_locations, 1);
        assert_eq!(report.dropped_events, 2);

        // Only the dropped location races: no race found → Unknown.
        let clean_then_racy = vec![
            Operation::data_write(OpId(0), ProcId(0), Loc(0), 1),
            Operation::data_write(OpId(1), ProcId(0), Loc(1), 1),
            Operation::data_write(OpId(3), ProcId(1), Loc(1), 2),
        ];
        let report = check_ops(&clean_then_racy, 2, cap1);
        assert_eq!(report.verdict, Verdict::Unknown(UnknownReason::LocationCapExceeded));
        assert_eq!(report.total_races, 0);
    }

    #[test]
    fn sync_cap_overflow_makes_everything_unknown() {
        // Two sync locations, cap of one: the second lock's release is
        // lost, so the checker cannot trust its own race set.
        let ops = vec![
            Operation::sync_write(OpId(0), ProcId(0), Loc(8), 1),
            Operation::sync_write(OpId(1), ProcId(0), Loc(9), 1),
            Operation::sync_rmw(OpId(2), ProcId(1), Loc(9), 1, 2),
        ];
        let cfg = CheckerConfig { max_sync_locations: 1, ..CheckerConfig::default() };
        let report = check_ops(&ops, 2, cfg);
        assert!(report.sync_overflow);
        assert_eq!(report.verdict, Verdict::Unknown(UnknownReason::SyncCapExceeded));
    }

    #[test]
    fn race_retention_cap_truncates_list_not_count() {
        let ops: Vec<Operation> = (0..20)
            .map(|i| Operation::data_write(OpId(i), ProcId((i % 2) as u16), Loc(0), i))
            .collect();
        let cfg = CheckerConfig { max_kept_races: 3, ..CheckerConfig::default() };
        let report = check_ops(&ops, 2, cfg);
        assert!(report.races_truncated);
        assert_eq!(report.races.len(), 3);
        assert!(report.total_races > 3);
        let full = check_ops(&ops, 2, CheckerConfig::default());
        assert_eq!(full.total_races, report.total_races);
        assert_eq!(&full.races[..3], &report.races[..]);
    }

    #[test]
    fn ingest_errors_are_structured() {
        let op = Operation::data_write(OpId(0), ProcId(5), Loc(0), 1);
        let mut checker = StreamChecker::new(CheckerConfig::default());
        assert_eq!(checker.ingest(&op), Err(IngestError::NoOpenSegment));
        checker.begin_segment(2);
        assert_eq!(
            checker.ingest(&op),
            Err(IngestError::ProcOutOfRange { proc: 5, procs: 2 })
        );
        checker.end_segment();
        assert_eq!(checker.finish().events, 0);
    }

    #[test]
    fn a_segment_wider_than_the_bound_gets_no_clocks_and_refuses_its_first_event() {
        let wide = u16::try_from(MAX_PROCS + 1).unwrap();
        let op = Operation::data_write(OpId(0), ProcId(0), Loc(0), 1);
        let mut checker = StreamChecker::new(CheckerConfig::default());
        checker.begin_segment(wide);
        assert_eq!(checker.clocks.procs(), 0, "nothing allocated per processor");
        assert_eq!(
            checker.ingest(&op),
            Err(IngestError::TooManyProcs { procs: MAX_PROCS + 1 })
        );
        checker.end_segment();
        // A segment at the bound is checked as usual.
        let at_bound = u16::try_from(MAX_PROCS).unwrap();
        checker.begin_segment(at_bound);
        assert_eq!(checker.clocks.procs(), MAX_PROCS);
        let last = Operation::data_read(OpId(1), ProcId(at_bound - 1), Loc(0), 1);
        checker.ingest(&op).unwrap();
        checker.ingest(&last).unwrap();
        checker.end_segment();
        let report = checker.finish();
        assert_eq!((report.events, report.total_races), (2, 1));
    }

    #[test]
    fn segments_are_independent() {
        let w = Operation::data_write(OpId(0), ProcId(0), Loc(0), 1);
        let r = Operation::data_read(OpId(1), ProcId(1), Loc(0), 1);
        let mut checker = StreamChecker::new(CheckerConfig::default());
        checker.begin_segment(2);
        checker.ingest(&w).unwrap();
        checker.end_segment();
        checker.begin_segment(2);
        checker.ingest(&r).unwrap();
        checker.end_segment();
        let report = checker.finish();
        assert_eq!(report.verdict, Verdict::Drf0, "races never span segments");
        assert_eq!(report.segments, 2);
    }

    #[test]
    fn canonical_text_is_stable_and_informative() {
        let report = check_ops(&racy_ops(), 3, CheckerConfig::default());
        let text = report.canonical_text();
        assert!(text.starts_with("verdict: RACY\n"), "{text}");
        assert!(text.contains("\nevents: 5\n"));
        assert!(text.contains("\nraces: 2\n"));
        assert_eq!(text.matches("race: ").count(), 2);
        assert!(text.contains("racy-loc: m0 2"));
    }
}
