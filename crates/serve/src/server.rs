//! The daemon: accept loop, per-connection threads, admission control,
//! and the query ladder.
//!
//! Both front ends run one ladder of two steps. `prepare` answers ping
//! and stats and parses and canonicalizes a verdict query; `resolve`
//! takes one canonical key through cache lookup, coalesced wait,
//! admission, budget clamp and the engines, counts what happened, and
//! hands back the journal record of a fresh definitive answer. A v1
//! frame is a one-item resolution; a `wo-serve/2` batch frame resolves
//! each distinct canonical key once for all the items that share it. The
//! front ends keep only what really differs: decoding (one text-frame
//! grammar in [`crate::protocol`] for both), frame-level caps, and
//! rendering (a bare v1 frame vs tagged results and race blocks).
//! Answers are journaled after they are written.
//!
//! The ladder prefers cheap honest answers over expensive or hung ones:
//!
//! 1. **Definitive** — cache hit, coalesced share, or a fresh exploration
//!    that completed (or found a race, conclusive from any prefix).
//! 2. **Degraded partial** — a budget or the request deadline gave out:
//!    `Unknown` plus which budget and how many states were expanded.
//!    Never cached, never journaled.
//! 3. **Structured failure** — parse errors, oversized frames,
//!    `Overloaded` rejections, internal faults. The connection stays
//!    usable; the client library decides what to retry.
//!
//! Cache hits bypass admission control entirely: a saturated server keeps
//! answering everything it already knows.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use litmus::explore::ExploreConfig;
use memory_model::SyncMode;
use memsim::pool::run_with_worker;
use wo_trace::{CheckerConfig, StreamChecker};

use crate::cache::{CachedAnswer, FlightOutcome, KindGroup, Lookup, VerdictCache};
use crate::canon::{canonicalize, CanonicalForm};
use crate::journal::{Journal, JournalRecord};
use crate::protocol::{
    batch_depth_bucket, encode_batch_race_block, encode_batch_result, encode_batch_result_ref,
    is_batch_frame, peek_item_id, read_frame, split_batch_frame, write_frame, BatchItem,
    CacheStatus, Engine, ErrorCode, QueryKind, Request, Response, ResultRef, ServerStats, Verdict,
    BATCH_DEPTH_BUCKETS, DEFAULT_MAX_BATCH_FRAME_BYTES, DEFAULT_MAX_BATCH_ITEMS,
    DEFAULT_MAX_FRAME_BYTES, RACE_BLOCK_MIN_RACES,
};
use crate::{answer_to_response, compute, explore_verdict, kind_group};

/// Tuning knobs for [`Server::spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (the bound address is
    /// on the returned handle).
    pub addr: String,
    /// Concurrent explorations (the expensive work). Cache hits and
    /// ping/stats are not gated.
    pub explore_workers: usize,
    /// Explorations allowed to *wait* for a worker before admission
    /// control starts rejecting with `Overloaded`.
    pub queue_capacity: usize,
    /// Frame payload cap in bytes.
    pub max_frame_bytes: usize,
    /// Deadline applied when the client sends none (0 = unlimited).
    pub default_deadline_ms: u64,
    /// Hard ceiling on any client-requested deadline.
    pub max_deadline_ms: u64,
    /// Base exploration budgets. Clients may *lower* `steps`/`ops`, never
    /// raise them.
    pub explore: ExploreConfig,
    /// Where the verdict journal lives; `None` disables persistence.
    pub journal_dir: Option<PathBuf>,
    /// Compact the journal every this many appends (0 = never).
    pub snapshot_every: usize,
    /// Outer `wo-serve/2` batch-frame payload cap. Each decoded item
    /// inside a batch is still held to `max_frame_bytes` individually.
    pub max_batch_frame_bytes: usize,
    /// Items allowed per batch frame; larger batches are rejected whole
    /// (the client chunks).
    pub max_batch_items: usize,
    /// Worker threads for batch decode/canonicalize/probe parallelism
    /// (0 = available parallelism, 1 = serial).
    pub pool_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            explore_workers: 4,
            queue_capacity: 32,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            default_deadline_ms: 10_000,
            max_deadline_ms: 60_000,
            explore: ExploreConfig::default(),
            journal_dir: None,
            snapshot_every: 64,
            max_batch_frame_bytes: DEFAULT_MAX_BATCH_FRAME_BYTES,
            max_batch_items: DEFAULT_MAX_BATCH_ITEMS,
            pool_threads: 0,
        }
    }
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

struct GateState {
    active: usize,
    waiting: usize,
    shedding: bool,
}

/// Bounded worker pool + bounded wait queue + shed-load hysteresis.
struct AdmissionGate {
    state: Mutex<GateState>,
    cv: Condvar,
    workers: usize,
    queue_capacity: usize,
}

enum Admission<'a> {
    /// A worker slot; freed on drop.
    Granted(Permit<'a>),
    /// Queue full (or shed mode): reject now, cheaply.
    Rejected,
    /// The request's deadline passed while queued.
    TimedOut,
}

struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.state.lock().unwrap_or_else(|e| e.into_inner());
        st.active = st.active.saturating_sub(1);
        // Hysteresis: stop shedding once the queue has drained to half
        // capacity (not merely below full), so bursts don't flap the mode.
        if st.shedding && st.waiting <= self.gate.queue_capacity / 2 {
            st.shedding = false;
        }
        drop(st);
        self.gate.cv.notify_one();
    }
}

impl AdmissionGate {
    fn new(workers: usize, queue_capacity: usize) -> Self {
        AdmissionGate {
            state: Mutex::new(GateState { active: 0, waiting: 0, shedding: false }),
            cv: Condvar::new(),
            workers: workers.max(1),
            queue_capacity,
        }
    }

    fn shedding(&self) -> bool {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).shedding
    }

    fn admit(&self, deadline: Option<Instant>) -> Admission<'_> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        // Shed mode rejects everything that would need a slot until the
        // queue drains; fresh arrivals don't get to cut in.
        if st.shedding {
            return Admission::Rejected;
        }
        if st.active < self.workers && st.waiting == 0 {
            st.active += 1;
            return Admission::Granted(Permit { gate: self });
        }
        if st.waiting >= self.queue_capacity {
            st.shedding = true;
            return Admission::Rejected;
        }
        st.waiting += 1;
        loop {
            if st.active < self.workers {
                st.waiting -= 1;
                st.active += 1;
                return Admission::Granted(Permit { gate: self });
            }
            match deadline {
                None => {
                    st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        st.waiting -= 1;
                        return Admission::TimedOut;
                    }
                    let (g, _) = self
                        .cv
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    st = g;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

#[derive(Default)]
struct ServeCounters {
    served: AtomicU64,
    overloaded: AtomicU64,
    degraded: AtomicU64,
    journal_replayed: AtomicU64,
    batch_depth: [AtomicU64; BATCH_DEPTH_BUCKETS],
    coalesced_in_batch: AtomicU64,
    shed_items: AtomicU64,
    computed_axiom: AtomicU64,
    computed_explorer: AtomicU64,
    route_fallbacks: AtomicU64,
}

struct Shared {
    cfg: ServerConfig,
    cache: VerdictCache,
    journal: Mutex<Option<Journal>>,
    gate: AdmissionGate,
    counters: ServeCounters,
    shutdown: AtomicBool,
    /// Held shared while a connection handles a frame, journal writes
    /// included; [`ServerHandle::shutdown`] takes it exclusively.
    busy: RwLock<()>,
}

/// The daemon. Construct with [`Server::spawn`]; interact through the
/// returned [`ServerHandle`].
pub struct Server;

/// A running server: its bound address and a shutdown switch.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Entries recovered from the journal at startup.
    #[must_use]
    pub fn replayed(&self) -> u64 {
        self.shared.counters.journal_replayed.load(Ordering::Relaxed)
    }

    /// Stops accepting, wakes the acceptor, joins it, and waits for the
    /// frames being handled to finish. Answers are journaled after they
    /// are written, so this is what lets a restart on the same journal
    /// replay every answer a client has received. A frame read after this
    /// returns is answered `shutting_down`, never computed or journaled;
    /// idle connection threads notice within their poll interval and
    /// drain the same way.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        drop(self.shared.busy.write().unwrap_or_else(|e| e.into_inner()));
    }
}

impl Server {
    /// Binds, replays the journal, and starts the accept loop on a
    /// background thread.
    ///
    /// # Errors
    ///
    /// Propagates bind/journal I/O failures.
    pub fn spawn(cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let cache = VerdictCache::new();
        let mut journal = None;
        let mut replayed_count = 0u64;
        if let Some(dir) = &cfg.journal_dir {
            let (j, records, _report) = Journal::open(dir, cfg.snapshot_every)?;
            for rec in records {
                cache.insert_replayed(rec.group, rec.key, rec.answer);
                replayed_count += 1;
            }
            journal = Some(j);
        }

        let shared = Arc::new(Shared {
            gate: AdmissionGate::new(cfg.explore_workers, cfg.queue_capacity),
            cfg,
            cache,
            journal: Mutex::new(journal),
            counters: ServeCounters::default(),
            shutdown: AtomicBool::new(false),
            busy: RwLock::new(()),
        });
        shared
            .counters
            .journal_replayed
            .store(replayed_count, Ordering::Relaxed);

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn_shared = Arc::clone(&accept_shared);
                std::thread::spawn(move || serve_connection(&conn_shared, stream));
            }
        });

        Ok(ServerHandle { addr, shared, accept_thread: Some(accept_thread) })
    }
}

/// How often a blocked connection read polls the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

fn serve_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // Results stream back-to-back on a pipelined connection; letting
    // Nagle batch them against delayed ACKs would serialize the whole
    // stream at one delayed-ACK interval per frame.
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    // Batch resolution streams results from pool workers, so writes go
    // through a mutex. v1 responses take the same (uncontended) path.
    let writer = Mutex::new(stream);
    let mut trace = TraceSession::default();
    let read_cap = shared.cfg.max_frame_bytes.max(shared.cfg.max_batch_frame_bytes);
    loop {
        let payload = match read_frame(&mut reader, read_cap) {
            Ok(Some(payload)) => Some(payload),
            Ok(None) => return, // clean close
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                None // poll tick; re-check shutdown
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized frame: answer honestly, then drop the
                // connection (the stream offset is unrecoverable).
                let _ = send_bare(shared, &writer, &error(ErrorCode::TooLarge, e.to_string()));
                return;
            }
            Err(_) => return, // torn frame / connection error
        };
        // Held until this frame is answered and journaled. The shutdown
        // flag is read under it, so once `shutdown` has returned no frame
        // is computed, answered or journaled; an idle connection drains
        // within one poll tick.
        let _busy = shared.busy.read().unwrap_or_else(|e| e.into_inner());
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = send_bare(shared, &writer, &error(ErrorCode::ShuttingDown, "server draining"));
            return;
        }
        let Some(payload) = payload else { continue };
        if is_batch_frame(&payload) {
            if handle_batch(shared, &writer, &payload, &mut trace).is_err() {
                return;
            }
            continue;
        }
        // Only batch frames get the larger allowance; a v1 frame over the
        // v1 cap is answered honestly and the connection dropped, exactly
        // as if `read_frame` had rejected it.
        if payload.len() > shared.cfg.max_frame_bytes {
            let message = format!(
                "frame of {} bytes exceeds cap of {} bytes",
                payload.len(),
                shared.cfg.max_frame_bytes
            );
            let _ = send_bare(shared, &writer, &error(ErrorCode::TooLarge, message));
            return;
        }
        // Defense in depth for the zero-panics contract: an unexpected
        // panic anywhere in request handling becomes a structured
        // Internal error on this one request (the LeaderGuard's Drop has
        // already unwedged any coalesced waiters).
        let (response, record) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_v1(shared, &payload)
        }))
        .unwrap_or_else(|_| (error(ErrorCode::Internal, "request handler panicked"), None));
        let written = send_bare(shared, &writer, &response);
        persist_batch(shared, record.as_slice());
        if written.is_err() {
            return;
        }
    }
}

fn error(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error { code, message: message.into() }
}

/// Writes one bare (untagged, v1-framed) response and counts it as
/// served. Every frame that is not a batch result goes through here: v1
/// answers and the frame-level errors of both protocols.
fn send_bare(shared: &Shared, writer: &Mutex<TcpStream>, response: &Response) -> io::Result<()> {
    shared.counters.served.fetch_add(1, Ordering::Relaxed);
    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
    write_frame(&mut *w, &response.encode())
}

/// Serves one v1 request as a one-item resolution. Returns the response
/// and the journal record of a fresh definitive answer, which the caller
/// persists once the response is written.
fn handle_v1(shared: &Shared, payload: &[u8]) -> (Response, Option<JournalRecord>) {
    let request = match Request::decode(payload) {
        Ok(r) => r,
        Err(reason) => return (error(ErrorCode::Malformed, reason), None),
    };
    match prepare(shared, &request) {
        Prepared::Immediate(response) => (response, None),
        Prepared::Query(query) => {
            let (resolution, record) = resolve(shared, &query, 1);
            (resolution.response(&query), record)
        }
    }
}

fn snapshot_stats(shared: &Shared) -> ServerStats {
    // Cache totals are sums of this one read of the shard counters, so a
    // snapshot always agrees with itself.
    let shards = shared.cache.shard_counts();
    let mut batch_depth = [0u64; BATCH_DEPTH_BUCKETS];
    for (slot, counter) in batch_depth.iter_mut().zip(&shared.counters.batch_depth) {
        *slot = counter.load(Ordering::Relaxed);
    }
    // Each computation counts under exactly one engine, so `explored` is
    // their sum, taken from the same two loads it is reported beside.
    let computed_axiom = shared.counters.computed_axiom.load(Ordering::Relaxed);
    let computed_explorer = shared.counters.computed_explorer.load(Ordering::Relaxed);
    ServerStats {
        served: shared.counters.served.load(Ordering::Relaxed),
        cache_hits: shards.iter().map(|s| s.hits).sum(),
        coalesced: shards.iter().map(|s| s.joins).sum(),
        explored: computed_axiom + computed_explorer,
        overloaded: shared.counters.overloaded.load(Ordering::Relaxed),
        degraded: shared.counters.degraded.load(Ordering::Relaxed),
        journal_replayed: shared.counters.journal_replayed.load(Ordering::Relaxed),
        shedding: shared.gate.shedding(),
        batch_depth,
        shard_hits: shards.iter().map(|s| s.hits).collect(),
        shard_misses: shards.iter().map(|s| s.leads + s.joins).collect(),
        coalesced_in_batch: shared.counters.coalesced_in_batch.load(Ordering::Relaxed),
        shed_items: shared.counters.shed_items.load(Ordering::Relaxed),
        computed_axiom,
        computed_explorer,
        route_fallbacks: shared.counters.route_fallbacks.load(Ordering::Relaxed),
    }
}

/// Effective wall-clock budget: client's ask clamped to the ceiling,
/// falling back to the server default. An explicit 0 opts out of
/// wall-clock deadlines entirely (step budgets only) — that is what
/// keeps remote verdicts as deterministic as local ones.
fn effective_deadline(shared: &Shared, requested: Option<u64>) -> Option<Instant> {
    let deadline_ms = match requested {
        Some(0) => None,
        Some(ms) => Some(ms.min(shared.cfg.max_deadline_ms)),
        None if shared.cfg.default_deadline_ms > 0 => Some(shared.cfg.default_deadline_ms),
        None => None,
    };
    deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms))
}

// ---------------------------------------------------------------------
// The ladder: prepare, then resolve
// ---------------------------------------------------------------------

/// A verdict query, parsed and canonicalized: everything [`resolve`]
/// needs from one submission.
struct Query {
    kind: QueryKind,
    group: KindGroup,
    deadline_ms: Option<u64>,
    max_total_steps: Option<usize>,
    max_ops_per_execution: Option<usize>,
    form: CanonicalForm,
}

/// What [`prepare`] made of one request.
enum Prepared {
    /// Already answerable: ping, stats, a parse error (and, on the batch
    /// path, an undecodable or oversized item).
    Immediate(Response),
    /// A verdict query awaiting [`resolve`].
    Query(Query),
}

/// The ladder's first step: ping and stats answer at once; a verdict
/// query is parsed and canonicalized. The batch path runs it on the
/// pool, item by item.
fn prepare(shared: &Shared, request: &Request) -> Prepared {
    let Some(group) = kind_group(request.kind) else {
        return Prepared::Immediate(match request.kind {
            QueryKind::Stats => Response::Stats(snapshot_stats(shared)),
            _ => Response::Pong,
        });
    };
    match litmus::parse::parse_program(&request.program) {
        Err(e) => Prepared::Immediate(error(ErrorCode::Parse, e.to_string())),
        Ok(program) => Prepared::Query(Query {
            kind: request.kind,
            group,
            deadline_ms: request.deadline_ms,
            max_total_steps: request.max_total_steps,
            max_ops_per_execution: request.max_ops_per_execution,
            form: canonicalize(&program),
        }),
    }
}

/// How one canonical key resolved, for every submission sharing it.
enum Resolution {
    /// A cache hit, a coalesced share, or a fresh exploration (`Miss`,
    /// as the leading submission sees it). Degraded answers included.
    Answered(Arc<CachedAnswer>, CacheStatus),
    /// The deadline passed before any exploration ran on the key's
    /// behalf (queued too long, or a coalesced wait timed out).
    Expired,
    /// A structured failure: overload or a lost exploration worker.
    Failed(ErrorCode, &'static str),
}

impl Resolution {
    /// The bare response for one submission, with the resolution's own
    /// cache status.
    fn response(&self, query: &Query) -> Response {
        match self {
            Resolution::Answered(answer, status) => {
                answer_to_response(query.kind, answer, &query.form, *status)
            }
            // `steps = 0` and no engine: nothing ran on this request's
            // behalf.
            Resolution::Expired => match query.kind {
                QueryKind::Sc => Response::Sc {
                    outcomes: 0,
                    complete: false,
                    reason: Some("deadline".into()),
                    steps: 0,
                    cache: CacheStatus::Miss,
                    engine: None,
                },
                _ => Response::Verdict {
                    verdict: Verdict::Unknown { reason: "deadline".into() },
                    races: Vec::new(),
                    steps: 0,
                    cache: CacheStatus::Miss,
                    engine: None,
                },
            },
            Resolution::Failed(code, message) => error(*code, *message),
        }
    }
}

/// The ladder's second step, for one canonical key and the
/// `subscribers` submissions that share it (1 for a v1 frame): cache
/// lookup, coalesced wait, admission, budget clamp, the engines. The
/// leading submission's deadline and budgets govern the exploration,
/// exactly as an in-flight leader's budgets govern what joiners from
/// other connections receive. Counts each computation once, under the
/// engine that answered it (`stats` reports their sum as `explored`),
/// and whether the route fell back; counts `overloaded` / `degraded` once
/// per subscriber. Returns the journal record of a fresh definitive
/// answer; the caller persists it after its responses are written.
fn resolve(
    shared: &Shared,
    query: &Query,
    subscribers: usize,
) -> (Resolution, Option<JournalRecord>) {
    let subscribers = subscribers as u64;
    let deadline = effective_deadline(shared, query.deadline_ms);
    let mut record = None;
    let resolution = match shared.cache.lookup(query.group, &query.form.text) {
        Lookup::Hit(answer) => Resolution::Answered(answer, CacheStatus::Hit),
        Lookup::Join(flight) => match flight.wait(deadline) {
            Some(FlightOutcome::Answered(answer)) => {
                Resolution::Answered(answer, CacheStatus::Coalesced)
            }
            Some(FlightOutcome::Failed) => {
                Resolution::Failed(ErrorCode::Internal, "exploration worker lost")
            }
            None => Resolution::Expired,
        },
        // A leader that gets no slot drops its guard: waiters see Failed
        // and retry or surface it.
        Lookup::Lead(guard) => match shared.gate.admit(deadline) {
            Admission::Rejected => {
                shared.counters.overloaded.fetch_add(subscribers, Ordering::Relaxed);
                Resolution::Failed(ErrorCode::Overloaded, "exploration queue full")
            }
            Admission::TimedOut => Resolution::Expired,
            Admission::Granted(permit) => {
                let mut ecfg = shared.cfg.explore;
                if let Some(steps) = query.max_total_steps {
                    ecfg.max_total_steps = steps.min(ecfg.max_total_steps);
                }
                if let Some(ops) = query.max_ops_per_execution {
                    ecfg.max_ops_per_execution = ops.min(ecfg.max_ops_per_execution);
                }
                ecfg.deadline = deadline;
                let (answer, fell_back) = compute(query.group, &query.form.program, &ecfg);
                let answer = guard.complete(answer);
                drop(permit);
                let counters = &shared.counters;
                match answer.engine() {
                    Some(Engine::Axiom) => &counters.computed_axiom,
                    _ => &counters.computed_explorer,
                }
                .fetch_add(1, Ordering::Relaxed);
                if fell_back {
                    counters.route_fallbacks.fetch_add(1, Ordering::Relaxed);
                }
                if answer.is_definitive() {
                    record = Some(JournalRecord {
                        group: query.group,
                        key: query.form.text.clone(),
                        answer: (*answer).clone(),
                    });
                }
                Resolution::Answered(answer, CacheStatus::Miss)
            }
        },
    };
    let degraded = match &resolution {
        Resolution::Answered(answer, _) => !answer.is_definitive(),
        Resolution::Expired => true,
        Resolution::Failed(..) => false,
    };
    if degraded {
        shared.counters.degraded.fetch_add(subscribers, Ordering::Relaxed);
    }
    (resolution, record)
}

/// Journals fresh definitive answers with one write + one flush,
/// compacting at most once. Journal failures are deliberately non-fatal:
/// the daemon keeps serving from memory (durability degrades,
/// correctness does not).
fn persist_batch(shared: &Shared, records: &[JournalRecord]) {
    if records.is_empty() {
        return;
    }
    let mut journal = shared.journal.lock().unwrap_or_else(|e| e.into_inner());
    let Some(j) = journal.as_mut() else { return };
    if let Ok(true) = j.append_batch(records.iter()) {
        compact_now(shared, j);
    }
}

fn compact_now(shared: &Shared, j: &mut Journal) {
    let live: Vec<JournalRecord> = shared
        .cache
        .definitive_entries()
        .into_iter()
        .map(|(group, key, ans)| JournalRecord {
            group,
            key,
            answer: (*ans).clone(),
        })
        .collect();
    let _ = j.compact(live.iter());
}

// ---------------------------------------------------------------------
// Batch mode (wo-serve/2)
// ---------------------------------------------------------------------

/// Per-connection streaming trace check state. `None` until a
/// `trace_open` item arrives; an ingest error poisons it back to `None`.
#[derive(Default)]
struct TraceSession {
    checker: Option<StreamChecker>,
}

/// What phase A (parallel decode + [`prepare`]) made of one batch item.
enum Item {
    /// A query item, by id. Undecodable and oversized items land here
    /// too, as immediate errors.
    Query(u64, Prepared),
    /// A trace item, decoded; applied sequentially in submission order
    /// (the checker is per-connection stream state).
    Trace(BatchItem),
}

/// Appends one tagged, length-prefixed result frame to `out`. The
/// `served` counter ticks per result, as it does per bare frame.
/// Results are buffered per resolution step and flushed in one
/// write: a write syscall per result would wake the blocked client on
/// every small segment, and on a machine where the reader and writer
/// share a core that ping-pongs the scheduler once per item.
fn push_result(shared: &Shared, out: &mut Vec<u8>, id: u64, response: &Response) {
    shared.counters.served.fetch_add(1, Ordering::Relaxed);
    push_frame(out, &encode_batch_result(id, &response.encode()));
}

/// Appends one length-prefixed frame payload to an output buffer.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame under 4 GiB");
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
}

/// Writes every buffered result frame in one locked write and empties
/// the buffer. A no-op on an empty buffer.
fn flush_results(writer: &Mutex<TcpStream>, out: &mut Vec<u8>) -> io::Result<()> {
    if out.is_empty() {
        return Ok(());
    }
    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
    let res = w.write_all(out).and_then(|()| w.flush());
    drop(w);
    out.clear();
    res
}

/// Emits one tagged result frame immediately.
fn send_result(
    shared: &Shared,
    writer: &Mutex<TcpStream>,
    id: u64,
    response: &Response,
) -> io::Result<()> {
    let mut out = Vec::new();
    push_result(shared, &mut out, id, response);
    flush_results(writer, &mut out)
}

/// Phase A for one item: the per-item cap, decode, and [`prepare`]. Runs
/// on the pool, so everything here is the parallel part of the hot path.
fn prepare_item(shared: &Shared, item: &[u8]) -> Item {
    let fallback_id = peek_item_id(item).unwrap_or(u64::MAX);
    // The per-item cap is the v1 frame cap: a batch must not smuggle in
    // an item no v1 frame could carry.
    if item.len() > shared.cfg.max_frame_bytes {
        shared.counters.shed_items.fetch_add(1, Ordering::Relaxed);
        let message = format!(
            "item of {} bytes exceeds per-item cap of {} bytes",
            item.len(),
            shared.cfg.max_frame_bytes
        );
        return Item::Query(fallback_id, Prepared::Immediate(error(ErrorCode::TooLarge, message)));
    }
    match BatchItem::decode(item) {
        Ok(BatchItem::Query { id, request }) => Item::Query(id, prepare(shared, &request)),
        Ok(trace) => Item::Trace(trace),
        Err(reason) => {
            Item::Query(fallback_id, Prepared::Immediate(error(ErrorCode::Malformed, reason)))
        }
    }
}

/// Applies one trace item to the connection's stream checker. Successful
/// segments send nothing (backpressure is the socket window); everything
/// else answers with a tagged result.
fn handle_trace_item(
    shared: &Shared,
    writer: &Mutex<TcpStream>,
    trace: &mut TraceSession,
    item: &BatchItem,
) -> io::Result<()> {
    match item {
        BatchItem::TraceOpen { id, release_writes } => {
            let mode =
                if *release_writes { SyncMode::ReleaseWrites } else { SyncMode::Drf0 };
            // Only `mode` affects the race set; thread count is a server
            // tuning knob, so reports stay equal to any local run.
            trace.checker = Some(StreamChecker::new(CheckerConfig {
                mode,
                threads: shared.cfg.pool_threads,
                ..CheckerConfig::default()
            }));
            send_result(shared, writer, *id, &Response::Pong)
        }
        BatchItem::TraceSeg { id, procs, ops } => {
            let Some(checker) = trace.checker.as_mut() else {
                return send_result(
                    shared,
                    writer,
                    *id,
                    &error(ErrorCode::Malformed, "trace_seg without an open trace check"),
                );
            };
            checker.begin_segment(*procs);
            for op in ops {
                if let Err(e) = checker.ingest(op) {
                    // A malformed trace poisons the stream: the partial
                    // checker is dropped and later items error cleanly.
                    trace.checker = None;
                    return send_result(
                        shared,
                        writer,
                        *id,
                        &error(ErrorCode::Parse, e.to_string()),
                    );
                }
            }
            checker.end_segment();
            Ok(())
        }
        BatchItem::TraceFinish { id } => {
            let Some(checker) = trace.checker.take() else {
                return send_result(
                    shared,
                    writer,
                    *id,
                    &error(ErrorCode::Malformed, "trace_finish without an open trace check"),
                );
            };
            let report = checker.finish();
            send_result(
                shared,
                writer,
                *id,
                &Response::Trace { report: report.canonical_text() },
            )
        }
        BatchItem::Query { .. } => Ok(()), // routed to resolve_key, never here
    }
}

/// Resolves one canonical key for the batch items at `subscribers`
/// (indices into `prepared`, submission order) and streams their tagged
/// results. Returns the journal record for the caller to persist with
/// the rest of the batch. Write errors are swallowed: the connection is
/// already dead and the read loop notices on its next turn.
fn resolve_key(
    shared: &Shared,
    writer: &Mutex<TcpStream>,
    prepared: &[Item],
    subscribers: &[usize],
) -> Option<JournalRecord> {
    let query = |idx: usize| match &prepared[idx] {
        Item::Query(id, Prepared::Query(query)) => (*id, query),
        _ => unreachable!("keys index only prepared queries"),
    };
    let (resolution, record) = resolve(shared, query(subscribers[0]).1, subscribers.len());
    // Results for the whole key accumulate here and go out in one write
    // (nothing is buffered before a blocking wait, so streaming latency
    // is unaffected: the flush happens as soon as the key has answers).
    let mut out = Vec::new();
    let Resolution::Answered(answer, status) = &resolution else {
        if matches!(resolution, Resolution::Failed(ErrorCode::Overloaded, _)) {
            shared.counters.shed_items.fetch_add(subscribers.len() as u64, Ordering::Relaxed);
        }
        for &idx in subscribers {
            let (id, query) = query(idx);
            push_result(shared, &mut out, id, &resolution.response(query));
        }
        let _ = flush_results(writer, &mut out);
        return record;
    };
    if *status == CacheStatus::Miss && subscribers.len() > 1 {
        shared
            .counters
            .coalesced_in_batch
            .fetch_add(subscribers.len() as u64 - 1, Ordering::Relaxed);
    }
    // Once a key's answer is known to carry a large race set, its
    // canonical races go out once as a race block and every item answers
    // with a small reference frame carrying its own inverse maps; the
    // client reconstructs the identical response via the same
    // `translate_races` the full path uses. Without this, a batch of
    // renamed near-duplicates of a heavily racy program re-encodes (and
    // the client re-parses) thousands of identical race lines per item.
    let mut race_block: Option<u64> = None;
    for (pos, &idx) in subscribers.iter().enumerate() {
        let (id, query) = query(idx);
        let (kind, form) = (query.kind, &query.form);
        // The leader sees Miss; followers of a fresh definitive answer
        // see Hit — byte-for-byte what a sequential per-request client
        // would have been told.
        let status = if pos > 0 && *status == CacheStatus::Miss && answer.is_definitive() {
            CacheStatus::Hit
        } else {
            *status
        };
        if let CachedAnswer::Explore { racy, races, steps, definitive, reason, engine } =
            &**answer
        {
            if races.len() >= RACE_BLOCK_MIN_RACES
                && matches!(kind, QueryKind::Drf0 | QueryKind::Races)
            {
                let block_id = *race_block.get_or_insert_with(|| {
                    push_frame(&mut out, &encode_batch_race_block(id, races));
                    id
                });
                let rref = ResultRef {
                    id,
                    block_id,
                    verdict: explore_verdict(*racy, *definitive, reason.as_deref()),
                    steps: *steps,
                    cache: status,
                    engine: *engine,
                    thread_unmap: form.thread_unmap.clone(),
                    loc_unmap: form.loc_unmap.clone(),
                };
                shared.counters.served.fetch_add(1, Ordering::Relaxed);
                push_frame(&mut out, &encode_batch_result_ref(&rref));
                continue;
            }
        }
        push_result(shared, &mut out, id, &answer_to_response(kind, answer, form, status));
    }
    let _ = flush_results(writer, &mut out);
    record
}

/// The `wo-serve/2` batch pipeline: split the frame, prepare all items in
/// parallel on the shared pool, apply trace items and coalesce queries
/// per canonical key in submission order, then resolve every unique key
/// in parallel, streaming tagged results as each completes. One journal
/// append (and at most one compaction) covers the whole batch.
fn handle_batch(
    shared: &Shared,
    writer: &Mutex<TcpStream>,
    payload: &[u8],
    trace: &mut TraceSession,
) -> io::Result<()> {
    let items = match split_batch_frame(payload, shared.cfg.max_batch_items) {
        Ok(items) => items,
        Err(reason) => {
            // Structural damage to the frame itself: no item is
            // attributable, so answer once (v1 framing) and drop the
            // connection.
            let _ = send_bare(shared, writer, &error(ErrorCode::Malformed, reason));
            return Err(io::Error::new(io::ErrorKind::InvalidData, "malformed batch frame"));
        }
    };
    shared.counters.batch_depth[batch_depth_bucket(items.len())]
        .fetch_add(1, Ordering::Relaxed);

    // Phase A — parallel: per-item caps, decode, parse, canonicalize.
    let prepared: Vec<Item> = run_with_worker(
        items.len(),
        shared.cfg.pool_threads,
        || (),
        |(), i| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                prepare_item(shared, items[i])
            }))
            .unwrap_or_else(|_| {
                Item::Query(
                    peek_item_id(items[i]).unwrap_or(u64::MAX),
                    Prepared::Immediate(error(ErrorCode::Internal, "item handler panicked")),
                )
            })
        },
    );

    // Phase B — sequential, submission order: immediate results, trace
    // stream application, and coalescing queries per canonical key.
    let mut key_index: HashMap<(KindGroup, &str), usize> = HashMap::new();
    let mut keys: Vec<Vec<usize>> = Vec::new();
    for (idx, item) in prepared.iter().enumerate() {
        match item {
            Item::Query(id, Prepared::Immediate(response)) => {
                send_result(shared, writer, *id, response)?;
            }
            Item::Query(_, Prepared::Query(query)) => {
                let slot = *key_index
                    .entry((query.group, query.form.text.as_str()))
                    .or_insert_with(|| {
                        keys.push(Vec::new());
                        keys.len() - 1
                    });
                keys[slot].push(idx);
            }
            Item::Trace(item) => {
                handle_trace_item(shared, writer, trace, item)?;
            }
        }
    }

    // Phase C — parallel: one cache probe / exploration per unique key,
    // results streamed out of order as keys complete.
    let records: Vec<Option<JournalRecord>> = run_with_worker(
        keys.len(),
        shared.cfg.pool_threads,
        || (),
        |(), ki| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                resolve_key(shared, writer, &prepared, &keys[ki])
            }))
            .unwrap_or_else(|_| {
                // The LeaderGuard's Drop already published Failed to any
                // cross-connection joiners; answer this batch's items.
                for &idx in &keys[ki] {
                    if let Item::Query(id, _) = &prepared[idx] {
                        let _ = send_result(
                            shared,
                            writer,
                            *id,
                            &error(ErrorCode::Internal, "exploration panicked"),
                        );
                    }
                }
                None
            })
        },
    );

    let records: Vec<JournalRecord> = records.into_iter().flatten().collect();
    persist_batch(shared, &records);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_grants_up_to_workers_then_queues() {
        let gate = AdmissionGate::new(2, 4);
        let p1 = match gate.admit(None) {
            Admission::Granted(p) => p,
            _ => panic!("slot 1"),
        };
        let _p2 = match gate.admit(None) {
            Admission::Granted(p) => p,
            _ => panic!("slot 2"),
        };
        // Third must time out quickly (both slots busy, queue works).
        let t0 = Instant::now();
        match gate.admit(Some(Instant::now() + Duration::from_millis(30))) {
            Admission::TimedOut => assert!(t0.elapsed() >= Duration::from_millis(25)),
            _ => panic!("expected queue timeout"),
        }
        // Free a slot: the next admit succeeds immediately.
        drop(p1);
        match gate.admit(Some(Instant::now() + Duration::from_millis(500))) {
            Admission::Granted(_) => {}
            _ => panic!("slot freed"),
        };
    }

    #[test]
    fn gate_rejects_past_queue_capacity_and_sheds_with_hysteresis() {
        let gate = Arc::new(AdmissionGate::new(1, 2));
        let permit = match gate.admit(None) {
            Admission::Granted(p) => p,
            _ => panic!(),
        };
        // Fill the queue with two waiting threads.
        let mut waiters = Vec::new();
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            waiters.push(std::thread::spawn(move || {
                matches!(
                    gate.admit(Some(Instant::now() + Duration::from_secs(5))),
                    Admission::Granted(_)
                )
            }));
        }
        // Wait for both to be queued.
        for _ in 0..100 {
            if gate.state.lock().unwrap().waiting == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Queue full: rejected, and shed mode engages.
        assert!(matches!(gate.admit(None), Admission::Rejected));
        assert!(gate.shedding());
        // While shedding, even a would-be-queueable request is rejected.
        assert!(matches!(gate.admit(None), Admission::Rejected));

        // Drain: free the slot; the waiters run and complete in turn.
        drop(permit);
        for w in waiters {
            assert!(w.join().unwrap(), "queued waiter eventually granted");
        }
        // All permits dropped; queue is empty → hysteresis clears shed.
        assert!(!gate.shedding());
        assert!(matches!(gate.admit(None), Admission::Granted(_)));
    }
}
