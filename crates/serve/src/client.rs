//! The retrying clients: [`ServeClient`] sends one `wo-serve/1` request
//! per connection, with exponential backoff, seeded jitter and one bounded
//! hedged attempt for tail latency; [`BatchClient`] pipelines
//! `wo-serve/2` batches over one connection.
//!
//! The clients own the *transient* failure modes so callers don't have
//! to: connection refused while the daemon restarts, connections dropped
//! mid-frame by a dying process, `Overloaded` and `ShuttingDown`
//! rejections, and plain slowness. Their contract:
//!
//! * **Retry only what is safe and useful.** All wo-serve queries are
//!   idempotent reads, so every transport failure and every retryable
//!   error code is retried up to `max_attempts`, with exponential
//!   backoff. Jitter is drawn from a seeded [`simx::rng::SplitMix64`] so
//!   campaign runs stay reproducible.
//! * **Permanent errors fail fast.** `Parse`, `Malformed`, `TooLarge`
//!   come back immediately — retrying a bad program wastes a fleet's
//!   time and the server's. Clients and daemon ship from one workspace,
//!   so a bare error frame answering a whole batch follows the same
//!   rule; it is never a cue to re-run the batch over `wo-serve/1`.
//! * **Hedge at most once.** If an attempt has produced nothing by
//!   `hedge_after`, ONE duplicate attempt races it and the first answer
//!   wins. Bounded hedging keeps p99 down without the retry-storm
//!   amplification unbounded hedging invites.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::time::Duration;

use memory_model::Operation;
use simx::rng::SplitMix64;

use crate::protocol::{
    batch_frame_tag, decode_batch_race_block, decode_batch_result, decode_batch_result_ref,
    encode_batch_frame, read_frame, write_frame, BatchItem, ErrorCode, RaceCoord, Request,
    Response, DEFAULT_MAX_BATCH_ITEMS,
};
use crate::translate_races;

/// Client tuning. The defaults suit a local daemon under chaos: fast
/// first retry, sub-second cap, one hedge.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Read/write timeout per attempt (covers the whole exploration, so
    /// size it above the server's deadline).
    pub io_timeout: Duration,
    /// Total attempts (first try included) before giving up.
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_base * 2^n` (capped), half
    /// fixed and half jittered.
    pub backoff_base: Duration,
    /// Ceiling on the backoff above.
    pub backoff_cap: Duration,
    /// Seed for the jitter stream — fix it to make campaigns replayable.
    pub jitter_seed: u64,
    /// Fire one racing duplicate attempt if nothing answered by this
    /// point. `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Cap on response frames the client will accept.
    pub max_frame_bytes: usize,
}

impl ClientConfig {
    /// Defaults against `addr`.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        ClientConfig {
            addr: addr.into(),
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(30),
            max_attempts: 6,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(800),
            jitter_seed: 0x00DD_BA11_5EED,
            hedge_after: Some(Duration::from_secs(2)),
            max_frame_bytes: crate::protocol::DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// Why a query ultimately failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Every attempt failed transiently; `last` is the final failure.
    Exhausted {
        /// Attempts made (including hedges' primaries, not hedges).
        attempts: u32,
        /// The last transient failure seen.
        last: String,
    },
    /// The server answered with a non-retryable error.
    Permanent {
        /// The error class.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts (last: {last})")
            }
            ClientError::Permanent { code, message } => {
                write!(f, "permanent error {}: {message}", code.as_str())
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A client handle. Holds no connection — each attempt dials fresh, which
/// is exactly what surviving server restarts requires.
pub struct ServeClient {
    cfg: ClientConfig,
    rng: SplitMix64,
}

impl ServeClient {
    /// A client for `cfg`.
    #[must_use]
    pub fn new(cfg: ClientConfig) -> Self {
        let rng = SplitMix64::new(cfg.jitter_seed);
        ServeClient { cfg, rng }
    }

    /// Sends `request`, retrying transient failures with backoff and one
    /// bounded hedge per attempt window.
    ///
    /// # Errors
    ///
    /// [`ClientError::Permanent`] immediately on non-retryable server
    /// errors; [`ClientError::Exhausted`] once `max_attempts` transient
    /// failures have accumulated.
    pub fn query(&mut self, request: &Request) -> Result<Response, ClientError> {
        let payload = request.encode();
        let mut last = String::from("no attempt made");
        for attempt in 0..self.cfg.max_attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff(attempt));
            }
            match self.raced_attempt(&payload) {
                Ok(Response::Error { code, message }) => {
                    if code.is_retryable() {
                        last = format!("server error {}: {message}", code.as_str());
                    } else {
                        return Err(ClientError::Permanent { code, message });
                    }
                }
                Ok(response) => return Ok(response),
                Err(e) => last = e,
            }
        }
        Err(ClientError::Exhausted { attempts: self.cfg.max_attempts, last })
    }

    /// Convenience: a `drf0` query for a program body.
    ///
    /// # Errors
    ///
    /// See [`ServeClient::query`].
    pub fn drf0(&mut self, program: &str) -> Result<Response, ClientError> {
        self.query(&Request::new(crate::protocol::QueryKind::Drf0, program))
    }

    /// Backoff before retry `attempt`: exponential, capped, half jittered.
    fn backoff(&mut self, attempt: u32) -> Duration {
        backoff_for(&self.cfg, &mut self.rng, attempt)
    }

    /// One attempt window: the primary connection, plus one hedged
    /// duplicate if the primary is slow. First answer wins.
    fn raced_attempt(&self, payload: &[u8]) -> Result<Response, String> {
        let Some(hedge_after) = self.cfg.hedge_after else {
            return one_shot(&self.cfg, payload);
        };
        let (tx, rx) = mpsc::channel();
        spawn_attempt(&self.cfg, payload, tx.clone());
        match rx.recv_timeout(hedge_after) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Primary is slow: race exactly one duplicate.
                spawn_attempt(&self.cfg, payload, tx);
                match rx.recv_timeout(self.cfg.io_timeout + self.cfg.connect_timeout) {
                    Ok(result) => result,
                    Err(_) => Err("both primary and hedge timed out".into()),
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err("attempt thread lost".into())
            }
        }
    }
}

/// Backoff before retry `attempt`: exponential, capped, half jittered.
fn backoff_for(cfg: &ClientConfig, rng: &mut SplitMix64, attempt: u32) -> Duration {
    let exp = cfg
        .backoff_base
        .saturating_mul(1u32 << attempt.min(16))
        .min(cfg.backoff_cap);
    let half = exp / 2;
    let jitter_ms = if half.as_millis() == 0 {
        0
    } else {
        rng.next_u64() % (half.as_millis() as u64 + 1)
    };
    half + Duration::from_millis(jitter_ms)
}

fn spawn_attempt(
    cfg: &ClientConfig,
    payload: &[u8],
    tx: mpsc::Sender<Result<Response, String>>,
) {
    let cfg = cfg.clone();
    let payload = payload.to_vec();
    std::thread::spawn(move || {
        // A lost receiver just means the other attempt won the race.
        let _ = tx.send(one_shot(&cfg, &payload));
    });
}

/// One connect → send → receive → decode cycle.
fn one_shot(cfg: &ClientConfig, payload: &[u8]) -> Result<Response, String> {
    let stream = connect(cfg).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(cfg.io_timeout))
        .and_then(|()| stream.set_write_timeout(Some(cfg.io_timeout)))
        .map_err(|e| format!("socket setup: {e}"))?;
    let mut writer = &stream;
    let mut reader = &stream;
    write_frame(&mut writer, payload).map_err(|e| format!("send: {e}"))?;
    match read_frame(&mut reader, cfg.max_frame_bytes) {
        Ok(Some(frame)) => Response::decode(&frame).map_err(|e| format!("decode: {e}")),
        Ok(None) => Err("connection closed before response".into()),
        Err(e) => Err(format!("receive: {e}")),
    }
}

fn connect(cfg: &ClientConfig) -> io::Result<TcpStream> {
    let addrs: Vec<SocketAddr> = cfg.addr.to_socket_addrs()?.collect();
    let Some(addr) = addrs.first() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "address resolved to nothing",
        ));
    };
    let stream = TcpStream::connect_timeout(addr, cfg.connect_timeout)?;
    // Small request frames must not sit in the socket waiting for ACKs of
    // earlier ones (Nagle): a pipelined batch client writes many of them.
    stream.set_nodelay(true)?;
    Ok(stream)
}

// `&TcpStream` implements Read/Write; these helpers keep the borrow
// sites monomorphic without cloning the socket handle.
#[allow(unused)]
fn _assert_stream_io(stream: &TcpStream) {
    fn takes_rw(_r: impl Read, _w: impl Write) {}
    takes_rw(stream, stream);
}

// ---------------------------------------------------------------------
// Batch client (wo-serve/2)
// ---------------------------------------------------------------------

/// What one pipelined submission round achieved.
enum AttemptOutcome {
    /// Every pending item has a final answer.
    Complete,
    /// Some items came back with retryable errors; resubmit them after
    /// backoff (the connection stays up).
    Partial(String),
    /// The daemon rejected the whole frame with a bare permanent error
    /// (structural damage, such as more items than its
    /// `max_batch_items`) and dropped the connection.
    Rejected(ErrorCode, String),
}

/// The pipelined `wo-serve/2` client: one persistent connection, whole
/// batches in flight, out-of-order tagged results matched back up by id.
///
/// Retry semantics extend the v1 contract to batches: after a transport
/// failure (daemon killed mid-batch, connection reset) the client
/// reconnects and resubmits **only the items that never got an answer**,
/// so a crash halfway through a 256-item batch costs the unanswered tail
/// and nothing else. Per-item retryable errors (`Overloaded`,
/// `ShuttingDown`) are resubmitted the same way; per-item permanent
/// errors come back in the result vector as [`Response::Error`] so the
/// rest of the batch is unaffected. A bare error frame rejecting a whole
/// chunk is retried when its code is retryable and is otherwise
/// [`ClientError::Permanent`]. Hedging does not apply: the batch itself
/// amortizes tail latency.
pub struct BatchClient {
    cfg: ClientConfig,
    rng: SplitMix64,
    conn: Option<TcpStream>,
    next_trace_id: u64,
    sent_items: u64,
    resubmitted_items: u64,
    /// Items per submitted frame; longer inputs are chunked. Tune down to
    /// trade throughput for smaller resubmission windows.
    pub max_batch_items: usize,
}

impl BatchClient {
    /// A batch client for `cfg`.
    #[must_use]
    pub fn new(cfg: ClientConfig) -> Self {
        let rng = SplitMix64::new(cfg.jitter_seed);
        BatchClient {
            cfg,
            rng,
            conn: None,
            next_trace_id: 1 << 32,
            sent_items: 0,
            resubmitted_items: 0,
            max_batch_items: DEFAULT_MAX_BATCH_ITEMS,
        }
    }

    /// Items actually written to a live connection, resubmissions
    /// included. Attempts that fail before the frame goes out (a refused
    /// reconnect while a daemon restarts) are not submissions.
    #[must_use]
    pub fn sent_items(&self) -> u64 {
        self.sent_items
    }

    /// Items written a second or later time (after a transport failure
    /// or a per-item retryable error).
    #[must_use]
    pub fn resubmitted_items(&self) -> u64 {
        self.resubmitted_items
    }

    /// Sends every request down one pipelined connection and returns
    /// their responses in request order. Per-item permanent errors are
    /// returned in place as [`Response::Error`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] once `max_attempts` transient failures
    /// accumulate on any chunk; [`ClientError::Permanent`] when the
    /// daemon rejects a whole chunk with a non-retryable error.
    pub fn query_batch(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        let chunk_size = self.max_batch_items.max(1);
        let mut out = Vec::with_capacity(requests.len());
        for chunk in requests.chunks(chunk_size) {
            out.extend(self.resolve_chunk(chunk)?);
        }
        Ok(out)
    }

    fn resolve_chunk(&mut self, chunk: &[Request]) -> Result<Vec<Response>, ClientError> {
        let mut answers: Vec<Option<Response>> = vec![None; chunk.len()];
        let mut ever_sent = vec![false; chunk.len()];
        let mut last = String::from("no attempt made");
        for attempt in 0..self.cfg.max_attempts {
            if attempt > 0 {
                std::thread::sleep(backoff_for(&self.cfg, &mut self.rng, attempt));
            }
            let pending: Vec<usize> = answers
                .iter()
                .enumerate()
                .filter_map(|(i, a)| a.is_none().then_some(i))
                .collect();
            match self.attempt_chunk(chunk, &pending, &mut answers, &mut ever_sent) {
                Ok(AttemptOutcome::Complete) => {
                    return Ok(answers.into_iter().map(|a| a.expect("complete")).collect());
                }
                Ok(AttemptOutcome::Partial(msg)) => last = msg,
                Ok(AttemptOutcome::Rejected(code, message)) => {
                    self.conn = None;
                    return Err(ClientError::Permanent { code, message });
                }
                Err(e) => {
                    self.conn = None;
                    last = e;
                }
            }
        }
        Err(ClientError::Exhausted { attempts: self.cfg.max_attempts, last })
    }

    /// One submission round: frame the pending items, stream the tagged
    /// results back. Transport failures are `Err` (reconnect + resubmit).
    fn attempt_chunk(
        &mut self,
        chunk: &[Request],
        pending: &[usize],
        answers: &mut [Option<Response>],
        ever_sent: &mut [bool],
    ) -> Result<AttemptOutcome, String> {
        if pending.is_empty() {
            return Ok(AttemptOutcome::Complete);
        }
        self.ensure_conn()?;
        let items: Vec<Vec<u8>> = pending
            .iter()
            .map(|&i| BatchItem::Query { id: i as u64, request: chunk[i].clone() }.encode())
            .collect();
        {
            let stream = self.conn.as_ref().expect("ensure_conn filled the slot");
            write_frame(&mut &*stream, &encode_batch_frame(&items))
                .map_err(|e| format!("send: {e}"))?;
        }
        // Count only items that actually went out: an attempt that dies
        // before the frame is written (e.g. a refused reconnect while the
        // daemon restarts) submitted nothing.
        for &i in pending {
            self.sent_items += 1;
            if ever_sent[i] {
                self.resubmitted_items += 1;
            }
            ever_sent[i] = true;
        }
        let stream = self.conn.as_ref().expect("ensure_conn filled the slot");
        // Result frames are small and arrive in bursts (the server
        // flushes per canonical key); buffering collapses the two read
        // syscalls per frame into one per burst. The buffer dies with
        // this attempt, which is safe: the server answers one batch frame
        // with exactly its results, so nothing is left to carry over.
        let mut reader = io::BufReader::with_capacity(1 << 16, stream);

        let mut outstanding = pending.len();
        let mut retryable: Option<String> = None;
        // Race blocks live for the duration of one submission round: the
        // server always writes a block before the first `resultref` that
        // names it, and a reconnect resubmits from scratch.
        let mut blocks: std::collections::HashMap<u64, Vec<RaceCoord>> =
            std::collections::HashMap::new();
        while outstanding > 0 {
            let payload = match read_frame(&mut reader, self.cfg.max_frame_bytes) {
                Ok(Some(payload)) => payload,
                Ok(None) => return Err("connection closed mid-batch".into()),
                Err(e) => return Err(format!("receive: {e}")),
            };
            let (id, response) = match batch_frame_tag(&payload) {
                Some("races") => {
                    let (block_id, races) = decode_batch_race_block(&payload)
                        .map_err(|e| format!("decode: {e}"))?;
                    blocks.insert(block_id, races);
                    continue;
                }
                Some("resultref") => {
                    let rref = decode_batch_result_ref(&payload)
                        .map_err(|e| format!("decode: {e}"))?;
                    let block = blocks.get(&rref.block_id).ok_or_else(|| {
                        format!(
                            "resultref {} names unknown race block {}",
                            rref.id, rref.block_id
                        )
                    })?;
                    let races =
                        translate_races(block, &rref.thread_unmap, &rref.loc_unmap);
                    let response = Response::Verdict {
                        verdict: rref.verdict,
                        races,
                        steps: rref.steps,
                        cache: rref.cache,
                        engine: rref.engine,
                    };
                    (rref.id, response)
                }
                Some("result") => {
                    let (id, response_payload) =
                        decode_batch_result(&payload).map_err(|e| format!("decode: {e}"))?;
                    let response = Response::decode(response_payload)
                        .map_err(|e| format!("decode: {e}"))?;
                    (id, response)
                }
                _ => {
                    // A bare frame in answer to a batch: a frame-level
                    // error, after which the daemon drops the connection.
                    return match Response::decode(&payload) {
                        Ok(Response::Error { code, message }) if code.is_retryable() => {
                            Err(format!("server error {}: {message}", code.as_str()))
                        }
                        Ok(Response::Error { code, message }) => {
                            Ok(AttemptOutcome::Rejected(code, message))
                        }
                        Ok(other) => {
                            Err(format!("unexpected v1 frame {other:?} to a batch"))
                        }
                        Err(e) => Err(format!("decode: {e}")),
                    };
                }
            };
            let idx = usize::try_from(id).map_err(|_| format!("bad result id {id}"))?;
            if idx >= answers.len() || answers[idx].is_some() {
                return Err(format!("server answered unexpected id {id}"));
            }
            match response {
                Response::Error { code, message } if code.is_retryable() => {
                    retryable = Some(format!("server error {}: {message}", code.as_str()));
                    // Left unanswered: the next round resubmits it.
                }
                response => answers[idx] = Some(response),
            }
            outstanding -= 1;
        }
        Ok(match retryable {
            Some(msg) => AttemptOutcome::Partial(msg),
            None => AttemptOutcome::Complete,
        })
    }

    fn ensure_conn(&mut self) -> Result<(), String> {
        if self.conn.is_none() {
            let stream = connect(&self.cfg).map_err(|e| format!("connect: {e}"))?;
            stream
                .set_read_timeout(Some(self.cfg.io_timeout))
                .and_then(|()| stream.set_write_timeout(Some(self.cfg.io_timeout)))
                .map_err(|e| format!("socket setup: {e}"))?;
            self.conn = Some(stream);
        }
        Ok(())
    }

    // -- streaming trace submission ------------------------------------

    /// Opens a streaming trace check on this connection and waits for the
    /// acknowledgement. Trace streams are stateful server-side, so unlike
    /// queries they are **not** resubmitted across reconnects — a
    /// transport failure surfaces and the caller replays the whole trace.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] on transport failure,
    /// [`ClientError::Permanent`] on a structured server rejection.
    pub fn trace_open(&mut self, release_writes: bool) -> Result<(), ClientError> {
        let id = self.next_trace_id();
        self.send_trace_item(&BatchItem::TraceOpen { id, release_writes })?;
        match self.read_result_for(id)? {
            Response::Pong => Ok(()),
            other => Err(unexpected_response(&other)),
        }
    }

    /// Streams one execution segment (`ops` in completion order over
    /// `procs` processors). Success is unacknowledged — segments pipeline
    /// at socket speed and errors surface on the next acknowledged call.
    ///
    /// # Errors
    ///
    /// See [`BatchClient::trace_open`]; additionally a segment too large
    /// for the server's per-item cap is rejected client-side (segments
    /// carry verdict-relevant boundaries, so they are never split).
    pub fn trace_segment(&mut self, procs: u16, ops: &[Operation]) -> Result<(), ClientError> {
        let id = self.next_trace_id();
        let item = BatchItem::TraceSeg { id, procs, ops: ops.to_vec() };
        let encoded = item.encode();
        if encoded.len() > self.cfg.max_frame_bytes {
            return Err(ClientError::Permanent {
                code: ErrorCode::TooLarge,
                message: format!(
                    "segment of {} bytes exceeds per-item cap of {} bytes",
                    encoded.len(),
                    self.cfg.max_frame_bytes
                ),
            });
        }
        self.send_encoded_trace_item(encoded)
    }

    /// Finishes the open trace check and returns the report's canonical
    /// text — byte-identical to a local [`wo_trace`] run in the same mode.
    ///
    /// # Errors
    ///
    /// See [`BatchClient::trace_open`]. Segment ingest errors queued by
    /// the server surface here.
    pub fn trace_finish(&mut self) -> Result<String, ClientError> {
        let id = self.next_trace_id();
        self.send_trace_item(&BatchItem::TraceFinish { id })?;
        match self.read_result_for(id)? {
            Response::Trace { report } => Ok(report),
            other => Err(unexpected_response(&other)),
        }
    }

    fn next_trace_id(&mut self) -> u64 {
        self.next_trace_id += 1;
        self.next_trace_id
    }

    fn send_trace_item(&mut self, item: &BatchItem) -> Result<(), ClientError> {
        self.send_encoded_trace_item(item.encode())
    }

    fn send_encoded_trace_item(&mut self, encoded: Vec<u8>) -> Result<(), ClientError> {
        let transport = |e: String| {
            ClientError::Exhausted { attempts: 1, last: e }
        };
        self.ensure_conn().map_err(transport)?;
        let stream = self.conn.as_ref().expect("ensure_conn filled the slot");
        write_frame(&mut &*stream, &encode_batch_frame(&[encoded])).map_err(|e| {
            self.conn = None;
            transport(format!("send: {e}"))
        })?;
        self.sent_items += 1;
        Ok(())
    }

    /// Reads tagged results until `id` answers. Error results for earlier
    /// unacknowledged items (segment ingest failures) surface immediately.
    fn read_result_for(&mut self, id: u64) -> Result<Response, ClientError> {
        let stream = self.conn.as_ref().ok_or_else(|| ClientError::Exhausted {
            attempts: 1,
            last: "no connection".into(),
        })?;
        loop {
            let payload = match read_frame(&mut &*stream, self.cfg.max_frame_bytes) {
                Ok(Some(payload)) => payload,
                Ok(None) => {
                    self.conn = None;
                    return Err(ClientError::Exhausted {
                        attempts: 1,
                        last: "connection closed awaiting trace result".into(),
                    });
                }
                Err(e) => {
                    self.conn = None;
                    return Err(ClientError::Exhausted {
                        attempts: 1,
                        last: format!("receive: {e}"),
                    });
                }
            };
            let (result_id, response_payload) =
                decode_batch_result(&payload).map_err(|e| ClientError::Exhausted {
                    attempts: 1,
                    last: format!("decode: {e}"),
                })?;
            let response =
                Response::decode(response_payload).map_err(|e| ClientError::Exhausted {
                    attempts: 1,
                    last: format!("decode: {e}"),
                })?;
            if let Response::Error { code, message } = response {
                return Err(ClientError::Permanent { code, message });
            }
            if result_id == id {
                return Ok(response);
            }
            // A stale non-error result (shouldn't happen on a trace-only
            // connection); keep reading for ours.
        }
    }
}

fn unexpected_response(response: &Response) -> ClientError {
    ClientError::Permanent {
        code: ErrorCode::Internal,
        message: format!("unexpected response {response:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn cfg_for(addr: impl Into<String>) -> ClientConfig {
        let mut cfg = ClientConfig::new(addr);
        cfg.connect_timeout = Duration::from_millis(100);
        cfg.io_timeout = Duration::from_millis(500);
        cfg.max_attempts = 3;
        cfg.backoff_base = Duration::from_millis(1);
        cfg.backoff_cap = Duration::from_millis(4);
        cfg.hedge_after = None;
        cfg
    }

    #[test]
    fn refused_connections_exhaust_with_context() {
        // Grab a port, then close it so connects are refused.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut client = ServeClient::new(cfg_for(addr));
        let err = client.drf0("P0:\n  W(m0) := 1\n").unwrap_err();
        match err {
            ClientError::Exhausted { attempts: 3, last } => {
                assert!(last.contains("connect"), "{last}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn permanent_errors_do_not_retry() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut accepted = 0u32;
            // Answer exactly one connection with a Parse error; count
            // how many arrive within the test window.
            listener
                .set_nonblocking(false)
                .expect("blocking accept");
            if let Ok((stream, _)) = listener.accept() {
                accepted += 1;
                let mut reader = &stream;
                let _ = read_frame(&mut reader, 1 << 20);
                let mut writer = &stream;
                let _ = write_frame(
                    &mut writer,
                    &Response::Error {
                        code: ErrorCode::Parse,
                        message: "line 1: nope".into(),
                    }
                    .encode(),
                );
            }
            accepted
        });
        let mut client = ServeClient::new(cfg_for(addr));
        let err = client.drf0("garbage").unwrap_err();
        assert!(matches!(err, ClientError::Permanent { code: ErrorCode::Parse, .. }));
        assert_eq!(server.join().unwrap(), 1, "no retry after a permanent error");
    }

    #[test]
    fn backoff_grows_and_stays_capped() {
        let mut client = ServeClient::new(cfg_for("127.0.0.1:1"));
        let b1 = client.backoff(1);
        let b4 = client.backoff(4);
        assert!(b1 >= Duration::from_millis(1));
        assert!(b4 <= Duration::from_millis(4) + Duration::from_millis(2));
    }

    #[test]
    fn jitter_is_seeded_and_reproducible() {
        let mut a = ServeClient::new(cfg_for("127.0.0.1:1"));
        let mut b = ServeClient::new(cfg_for("127.0.0.1:1"));
        let seq_a: Vec<Duration> = (1..6).map(|i| a.backoff(i)).collect();
        let seq_b: Vec<Duration> = (1..6).map(|i| b.backoff(i)).collect();
        assert_eq!(seq_a, seq_b);
    }
}
