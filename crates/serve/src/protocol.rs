//! The wo-serve wire protocol: length-prefixed frames carrying a small
//! line-oriented text format.
//!
//! # Framing
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! [u32 big-endian payload length][payload bytes]
//! ```
//!
//! Payloads are UTF-8 text, capped at a server-configured limit
//! ([`DEFAULT_MAX_FRAME_BYTES`] by default). A length prefix above the cap
//! is rejected *before* any allocation, so an adversarial 4 GiB header
//! costs the server four bytes of reading, not memory.
//!
//! # Payload format
//!
//! First line: `wo-serve/1 <kind>` (requests) or `wo-serve/1 ok <kind>` /
//! `wo-serve/1 error <code>` (responses). Then `key=value` header lines,
//! a blank line, and — for query requests — the litmus program body.
//!
//! ```text
//! wo-serve/1 drf0
//! deadline_ms=250
//! steps=200000
//!
//! P0:
//!   0: W(m0) := 1
//! P1:
//!   0: r0 := R(m0)
//! ```
//!
//! Every frame kind of both protocol versions, and every journal record
//! ([`crate::journal`]), is read by one grammar with one set of rules:
//!
//! 1. The first line ends at the first `\n`; a payload without one is an
//!    error. Its first whitespace-separated token is the version. (A
//!    journal record has no first line.)
//! 2. The header block is every following line up to the first blank
//!    line or the end. Each line is `key=value`, split at the first `=`;
//!    a line without `=` is an error.
//! 3. `race=` is the one repeatable key. Its lines are parsed in order,
//!    and a `races=` line must declare their count; race lines without
//!    one are an error. Any other repeated key is an error.
//! 4. Unknown keys are skipped (forward compatibility), except in a
//!    batch frame header and a race block, which admit only their own.
//! 5. The body is the bytes after the blank line. A `trace_seg` item, a
//!    batch frame and a `trace` response require the blank line; a
//!    request's body is its program (empty if absent); a journal
//!    record's body is its key and must be non-empty; every other kind
//!    rejects a non-empty body.
//!
//! Malformed numbers and truncated payloads produce structured errors,
//! and nothing in this module panics on wire input.
//!
//! # Batch mode (`wo-serve/2`)
//!
//! A v2 *batch frame* pipelines many submissions over one connection: the
//! outer frame is the same `[u32][payload]` shape, but the payload is a
//! short text header followed by length-prefixed **items**:
//!
//! ```text
//! wo-serve/2 batch
//! items=3
//! <blank>
//! [u32 item len][item bytes]  × 3
//! ```
//!
//! Each item carries a client-assigned `id` (unique per connection) on its
//! first line and is otherwise a v1 payload embedded verbatim
//! ([`BatchItem::Query`]) or a trace-ingest submission
//! ([`BatchItem::TraceOpen`] / [`BatchItem::TraceSeg`] /
//! [`BatchItem::TraceFinish`]). The server answers with *result frames* —
//! `wo-serve/2 result <id>` followed by the embedded v1 response payload
//! verbatim — **in completion order, not submission order**; the client
//! reorders by id. Embedding v1 payloads untouched is what makes the
//! byte-equality contract checkable: a batched verdict stream, reordered
//! by id, is byte-for-byte the per-request stream.
//!
//! The outer batch frame gets its own (larger) size cap; every item is
//! still held to the **v1 per-frame cap**, and admission control applies
//! per item — a batch buys pipelining, never a way around the limits.

use std::fmt;
use std::io::{self, Read, Write};
use std::str::{FromStr, SplitWhitespace};

use memory_model::{Loc, OpId, Operation, ProcId};

/// Protocol magic + version prefix on every payload.
pub const PROTOCOL_VERSION: &str = "wo-serve/1";

/// Version prefix on batch-mode payloads (items and result frames).
pub const PROTOCOL_VERSION_2: &str = "wo-serve/2";

/// Default cap on a frame payload (1 MiB) — far above any realistic
/// litmus program, far below a memory-exhaustion attack.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Default cap on an *outer* batch frame (16 MiB). Items inside are still
/// individually held to the v1 per-frame cap.
pub const DEFAULT_MAX_BATCH_FRAME_BYTES: usize = 16 << 20;

/// Default cap on items per batch frame.
pub const DEFAULT_MAX_BATCH_ITEMS: usize = 1024;

/// First line of every batch frame payload.
pub const BATCH_MAGIC: &str = "wo-serve/2 batch";

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads above `u32::MAX` bytes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    // One write per frame: header + payload as separate writes would put
    // two small segments on the wire, and Nagle holding the second until
    // the first is acknowledged stalls every pipelined result by a
    // delayed-ACK interval.
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on clean EOF
/// (peer closed between frames); a mid-frame EOF is an error.
///
/// Read-timeout friendly: a `WouldBlock`/`TimedOut` at a frame boundary
/// (no bytes read yet) propagates, so a server can poll a shutdown flag;
/// once any byte of a frame has arrived the read retries through
/// timeouts, so a poll tick can never desynchronize the stream.
///
/// # Errors
///
/// Propagates I/O errors; a frame longer than `max_bytes` yields
/// [`io::ErrorKind::InvalidData`] without allocating the payload.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // Hand-rolled read loop so clean EOF between frames is
    // distinguishable from a torn header, and so a read timeout only
    // surfaces when no frame is in progress.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if filled > 0
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds cap of {max_bytes}"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid frame payload",
                ))
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted
                        | io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// The text-frame grammar (rules 1–5 of the module docs)
// ---------------------------------------------------------------------

/// Splits `bytes` at its first `\n` into the line and the bytes after it.
fn split_line(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let n = bytes.iter().position(|&b| b == b'\n')?;
    Some((&bytes[..n], &bytes[n + 1..]))
}

/// Rule 1: splits off a payload's first line and checks its version
/// token. Returns the line's other tokens and the bytes after the line.
/// The one first-line tokenizer of every frame kind.
fn first_line<'a>(
    payload: &'a [u8],
    version: &str,
) -> Result<(SplitWhitespace<'a>, &'a [u8]), String> {
    let (line, rest) = split_line(payload).ok_or("missing first line")?;
    let line = std::str::from_utf8(line).map_err(|e| format!("first line not UTF-8: {e}"))?;
    let mut tokens = line.split_whitespace();
    match tokens.next() {
        Some(v) if v == version => Ok((tokens, rest)),
        Some(v) => Err(format!("unsupported protocol version {v:?}")),
        None => Err("missing protocol version".into()),
    }
}

/// Parses the next first-line token as a decimal id.
fn id_token(tokens: &mut SplitWhitespace<'_>, what: &str) -> Result<u64, String> {
    let token = tokens.next().ok_or_else(|| format!("missing {what}"))?;
    token.parse().map_err(|_| format!("bad {what} {token:?}"))
}

/// A header block and body split by rules 2–5 of the module docs.
pub(crate) struct Headers<'a> {
    /// The `key=value` lines other than `race=`, sorted by key; no key
    /// twice.
    pairs: Vec<(&'a str, &'a str)>,
    /// The `race=` lines in order, present exactly when `races=` is.
    pub(crate) races: Option<Vec<RaceCoord>>,
    /// Whether a blank line ended the block.
    blank: bool,
    /// The bytes after the blank line (empty without one).
    pub(crate) body: &'a [u8],
}

impl<'a> Headers<'a> {
    /// Reads the header block at the start of `bytes`.
    pub(crate) fn parse(mut bytes: &'a [u8]) -> Result<Self, String> {
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        let mut races = Vec::new();
        let mut declared = None;
        let mut blank = false;
        while !bytes.is_empty() {
            let (line, rest) = split_line(bytes).unwrap_or((bytes, &[]));
            bytes = rest;
            if line.is_empty() {
                blank = true;
                break;
            }
            let line = std::str::from_utf8(line).map_err(|e| format!("header not UTF-8: {e}"))?;
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("malformed header line {line:?}"));
            };
            if key == "race" {
                races.push(parse_race(value)?);
                continue;
            }
            if key == "races" {
                let n: usize = value.parse().map_err(|_| format!("bad races {value:?}"))?;
                // Every encoder writes the count before the race lines,
                // each at least 14 bytes: size the vector once.
                races.reserve(n.min(bytes.len() / 14));
                declared = Some(n);
            }
            pairs.push((key, value));
        }
        // Sorted, a repeated key sits next to itself (and lookups bisect),
        // so a hostile block of many keys costs O(n log n), not O(n²).
        pairs.sort_unstable_by_key(|&(k, _)| k);
        if let Some(w) = pairs.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(format!("repeated header {:?}", w[0].0));
        }
        let races = match declared {
            Some(n) if n != races.len() => {
                return Err(format!("race count mismatch: declared {n}, got {}", races.len()))
            }
            Some(_) => Some(races),
            None if races.is_empty() => None,
            None => return Err("race lines without a races= count".into()),
        };
        Ok(Headers { pairs, races, blank, body: bytes })
    }

    /// The value of `key`, if present.
    pub(crate) fn get(&self, key: &str) -> Option<&'a str> {
        let at = self.pairs.binary_search_by_key(&key, |&(k, _)| k).ok()?;
        Some(self.pairs[at].1)
    }

    /// The value of a required `key`.
    fn require(&self, key: &str) -> Result<&'a str, String> {
        self.get(key).ok_or_else(|| format!("missing {key}"))
    }

    /// A required decimal value.
    pub(crate) fn num<T: FromStr>(&self, key: &str) -> Result<T, String> {
        self.opt_num(key)?.ok_or_else(|| format!("missing {key}"))
    }

    /// An optional decimal value: absent is `None`, malformed an error.
    fn opt_num<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key).map(|v| v.parse().map_err(|_| format!("bad {key} {v:?}"))).transpose()
    }

    /// The optional `engine=` line: absent is `None` (an answer from
    /// before the field existed), an unknown token is an error.
    pub(crate) fn engine(&self) -> Result<Option<Engine>, String> {
        self.get("engine")
            .map(|v| Engine::parse_token(v).ok_or_else(|| format!("unknown engine {v:?}")))
            .transpose()
    }

    /// Rule 4 for the two kinds that admit only their own keys.
    fn only(&self, keys: &[&str]) -> Result<(), String> {
        match self.pairs.iter().find(|(k, _)| !keys.contains(k)) {
            Some((k, v)) => Err(format!("unexpected header {k}={v}")),
            None => Ok(()),
        }
    }

    /// Rule 5 for a kind whose body follows a required blank line.
    fn required_body(&self, what: &str) -> Result<&'a [u8], String> {
        if self.blank {
            Ok(self.body)
        } else {
            Err(format!("{what} missing blank line"))
        }
    }

    /// Rule 5 for every kind that carries no body.
    fn no_body(&self) -> Result<(), String> {
        match self.body.len() {
            0 => Ok(()),
            n => Err(format!("{n} unexpected bytes after the header block")),
        }
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// What a request asks of the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// DRF0 classification (`drf0_verdict`) plus the race set.
    Drf0,
    /// The race set alone (same exploration as [`QueryKind::Drf0`]).
    Races,
    /// Size of the sequentially-consistent outcome set (`sc_outcomes`).
    Sc,
    /// Liveness probe; no body.
    Ping,
    /// Server counters; no body.
    Stats,
}

impl QueryKind {
    /// The wire token.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            QueryKind::Drf0 => "drf0",
            QueryKind::Races => "races",
            QueryKind::Sc => "sc",
            QueryKind::Ping => "ping",
            QueryKind::Stats => "stats",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "drf0" => Some(QueryKind::Drf0),
            "races" => Some(QueryKind::Races),
            "sc" => Some(QueryKind::Sc),
            "ping" => Some(QueryKind::Ping),
            "stats" => Some(QueryKind::Stats),
            _ => None,
        }
    }

    /// Whether this query carries a litmus program body.
    #[must_use]
    pub fn has_body(self) -> bool {
        matches!(self, QueryKind::Drf0 | QueryKind::Races | QueryKind::Sc)
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The query.
    pub kind: QueryKind,
    /// Wall-clock budget for this request, if the client set one. The
    /// server clamps it to its configured maximum. An explicit `0` opts
    /// out of wall-clock deadlines entirely (step budgets only), which
    /// keeps the answer deterministic.
    pub deadline_ms: Option<u64>,
    /// Override for the exploration step budget (clamped server-side).
    pub max_total_steps: Option<usize>,
    /// Override for the per-execution op budget (clamped server-side).
    pub max_ops_per_execution: Option<usize>,
    /// The litmus program body (empty for ping/stats).
    pub program: String,
}

impl Request {
    /// A query request with no overrides.
    #[must_use]
    pub fn new(kind: QueryKind, program: impl Into<String>) -> Self {
        Request {
            kind,
            deadline_ms: None,
            max_total_steps: None,
            max_ops_per_execution: None,
            program: program.into(),
        }
    }

    /// Encodes to a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = String::new();
        out.push_str(PROTOCOL_VERSION);
        out.push(' ');
        out.push_str(self.kind.as_str());
        out.push('\n');
        if let Some(ms) = self.deadline_ms {
            out.push_str(&format!("deadline_ms={ms}\n"));
        }
        if let Some(steps) = self.max_total_steps {
            out.push_str(&format!("steps={steps}\n"));
        }
        if let Some(ops) = self.max_ops_per_execution {
            out.push_str(&format!("ops={ops}\n"));
        }
        out.push('\n');
        out.push_str(&self.program);
        out.into_bytes()
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason on any malformed payload; never
    /// panics on wire input.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let (mut tokens, rest) = first_line(payload, PROTOCOL_VERSION)?;
        let kind_token = tokens.next().ok_or("missing query kind")?;
        let kind = QueryKind::from_str(kind_token)
            .ok_or_else(|| format!("unknown query kind {kind_token:?}"))?;
        let h = Headers::parse(rest)?;
        let program = std::str::from_utf8(h.body).map_err(|e| format!("program not UTF-8: {e}"))?;
        Ok(Request {
            kind,
            deadline_ms: h.opt_num("deadline_ms")?,
            max_total_steps: h.opt_num("steps")?,
            max_ops_per_execution: h.opt_num("ops")?,
            program: program.to_string(),
        })
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// How the cache participated in answering a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheStatus {
    /// Answered from the canonical cache without exploring.
    Hit,
    /// This request ran the exploration (and, if definitive, filled the
    /// cache).
    Miss,
    /// Another in-flight request for the same canonical form ran the
    /// exploration; this request waited and shared the answer.
    Coalesced,
}

impl CacheStatus {
    fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Coalesced => "coalesced",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "hit" => Some(CacheStatus::Hit),
            "miss" => Some(CacheStatus::Miss),
            "coalesced" => Some(CacheStatus::Coalesced),
            _ => None,
        }
    }
}

/// Which engine produced an answer: the provenance on every computed
/// answer, on the wire (`engine=`) and in the journal. Absent on answers
/// from before the field existed, and on answers nothing computed (a
/// deadline that passed while queued).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The relational `wo-axiom` engine: `steps` is its work counter.
    Axiom,
    /// The interleaving explorer (`explore_races` for the `drf0`/`races`
    /// group, `explore_results` for `sc`): `steps` is states expanded.
    Explorer,
}

impl Engine {
    /// The wire and journal token.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Axiom => "axiom",
            Engine::Explorer => "explorer",
        }
    }

    /// Parses the wire and journal token.
    #[must_use]
    pub fn parse_token(s: &str) -> Option<Self> {
        match s {
            "axiom" => Some(Engine::Axiom),
            "explorer" => Some(Engine::Explorer),
            _ => None,
        }
    }
}

/// Appends the `engine=` line when the answer names its engine. The
/// journal writes the same line.
pub(crate) fn push_engine_line(out: &mut String, engine: Option<Engine>) {
    if let Some(engine) = engine {
        out.push_str("engine=");
        out.push_str(engine.as_str());
        out.push('\n');
    }
}

/// The DRF0 classification carried on the wire. `Unknown` is the
/// *degraded partial verdict*: the budget or deadline gave out before the
/// exploration covered the interleaving space, and the response says so
/// explicitly rather than guessing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Exploration completed; every idealized execution is race-free.
    Drf0,
    /// A data race was found (conclusive even from a truncated prefix).
    Racy,
    /// No race found before a budget gave out; `reason` names which.
    Unknown {
        /// Which budget gave out (wire-stable token, e.g. `deadline`).
        reason: String,
    },
}

/// Appends the `verdict`, `reason`, `steps`, `cache` and `engine` lines
/// that a verdict response and a [`ResultRef`] share.
fn push_verdict_lines(
    out: &mut String,
    verdict: &Verdict,
    steps: u64,
    cache: CacheStatus,
    engine: Option<Engine>,
) {
    let token = match verdict {
        Verdict::Drf0 => "drf0",
        Verdict::Racy => "racy",
        Verdict::Unknown { .. } => "unknown",
    };
    out.push_str(&format!("verdict={token}\n"));
    if let Verdict::Unknown { reason } = verdict {
        out.push_str(&format!("reason={}\n", sanitize(reason)));
    }
    out.push_str(&format!("steps={steps}\n"));
    out.push_str(&format!("cache={}\n", cache.as_str()));
    push_engine_line(out, engine);
}

/// Reads the lines [`push_verdict_lines`] writes.
fn parse_verdict_lines(
    h: &Headers<'_>,
) -> Result<(Verdict, u64, CacheStatus, Option<Engine>), String> {
    let verdict = match h.require("verdict")? {
        "drf0" => Verdict::Drf0,
        "racy" => Verdict::Racy,
        "unknown" => {
            Verdict::Unknown { reason: h.get("reason").unwrap_or("unspecified").to_string() }
        }
        other => return Err(format!("unknown verdict {other:?}")),
    };
    Ok((verdict, h.num("steps")?, parse_cache(h)?, h.engine()?))
}

/// Reads the `cache=` line of an answer.
fn parse_cache(h: &Headers<'_>) -> Result<CacheStatus, String> {
    let cache = h.require("cache")?;
    CacheStatus::from_str(cache).ok_or_else(|| format!("bad cache status {cache:?}"))
}

/// A race in the *submitter's* coordinates: thread indices and location
/// as they appear in the submitted program (the server translates out of
/// canonical space before responding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RaceCoord {
    /// Thread of the access that completed first.
    pub first_thread: u32,
    /// Program-order index (memory-op sequence) of the first access.
    pub first_seq: u32,
    /// Thread of the access that completed second.
    pub second_thread: u32,
    /// Program-order index of the second access.
    pub second_seq: u32,
    /// The contended location (submitter's numbering).
    pub loc: u32,
}

impl fmt::Display for RaceCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P{}.{} P{}.{} m{}",
            self.first_thread, self.first_seq, self.second_thread, self.second_seq, self.loc
        )
    }
}

/// Machine-readable failure classes. Clients retry `Overloaded` and
/// `ShuttingDown` (the condition is transient) and surface the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The litmus body failed to parse; `message` carries the line.
    Parse,
    /// The frame exceeded the server's size cap.
    TooLarge,
    /// The payload was not a well-formed protocol message.
    Malformed,
    /// Admission control rejected the request (queue full / shed mode).
    Overloaded,
    /// The server is draining connections for shutdown.
    ShuttingDown,
    /// An unexpected server-side failure (a worker panicked).
    Internal,
}

impl ErrorCode {
    /// The wire token.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::Malformed => "malformed",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "parse" => Some(ErrorCode::Parse),
            "too_large" => Some(ErrorCode::TooLarge),
            "malformed" => Some(ErrorCode::Malformed),
            "overloaded" => Some(ErrorCode::Overloaded),
            "shutting_down" => Some(ErrorCode::ShuttingDown),
            "internal" => Some(ErrorCode::Internal),
            _ => None,
        }
    }

    /// Whether a client should retry after backoff.
    #[must_use]
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded | ErrorCode::ShuttingDown | ErrorCode::Internal
        )
    }
}

/// Number of batch-depth histogram buckets in [`ServerStats::batch_depth`].
pub const BATCH_DEPTH_BUCKETS: usize = 6;

/// The histogram bucket an items-per-batch count falls into. Buckets:
/// `1`, `2–7`, `8–31`, `32–127`, `128–511`, `512+`.
#[must_use]
pub fn batch_depth_bucket(items: usize) -> usize {
    match items {
        0..=1 => 0,
        2..=7 => 1,
        8..=31 => 2,
        32..=127 => 3,
        128..=511 => 4,
        _ => 5,
    }
}

/// Server counters reported by [`QueryKind::Stats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Query responses served (any kind, any outcome).
    pub served: u64,
    /// Answers straight from the canonical cache.
    pub cache_hits: u64,
    /// Answers shared with a concurrent identical exploration.
    pub coalesced: u64,
    /// Computations actually run, by either engine: the daemon reports
    /// `computed_axiom + computed_explorer` from one snapshot.
    pub explored: u64,
    /// Requests rejected by admission control.
    pub overloaded: u64,
    /// Degraded (Unknown) answers returned.
    pub degraded: u64,
    /// Cache entries recovered from the journal at startup.
    pub journal_replayed: u64,
    /// Whether shed-load mode is currently active.
    pub shedding: bool,
    /// Batch frames handled, bucketed by items per batch
    /// ([`batch_depth_bucket`]).
    pub batch_depth: [u64; BATCH_DEPTH_BUCKETS],
    /// Cache lookups answered from each shard's map (index = shard).
    pub shard_hits: Vec<u64>,
    /// Cache lookups that missed each shard's map — the lookup led or
    /// joined an exploration (index = shard).
    pub shard_misses: Vec<u64>,
    /// Batch items answered by another item of the *same batch* (same
    /// canonical key, one exploration shared across the frame).
    pub coalesced_in_batch: u64,
    /// Batch items individually rejected (per-item size cap or per-item
    /// admission) while the rest of their frame was served.
    pub shed_items: u64,
    /// Computations the relational engine answered.
    pub computed_axiom: u64,
    /// Computations the explorer answered, including those neither
    /// engine decided. With `computed_axiom` it sums to `explored`.
    pub computed_explorer: u64,
    /// Computations whose first engine was undecided, so the other one
    /// ran too.
    pub route_fallbacks: u64,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`QueryKind::Drf0`] / [`QueryKind::Races`].
    Verdict {
        /// The classification (degraded answers say `Unknown`).
        verdict: Verdict,
        /// Races found, in submitter coordinates (empty unless racy).
        races: Vec<RaceCoord>,
        /// Work of the engine that produced the answer: explorer states
        /// or relational work units.
        steps: u64,
        /// How the cache participated.
        cache: CacheStatus,
        /// Which engine produced the answer (`None` when nothing
        /// computed it, or it predates the field).
        engine: Option<Engine>,
    },
    /// Answer to [`QueryKind::Sc`].
    Sc {
        /// Number of distinct SC results.
        outcomes: u64,
        /// Whether enumeration covered every interleaving. When false the
        /// count is a lower bound and `reason` names the budget.
        complete: bool,
        /// Which budget gave out, when incomplete.
        reason: Option<String>,
        /// Work of the engine that produced the answer.
        steps: u64,
        /// How the cache participated.
        cache: CacheStatus,
        /// Which engine produced the answer.
        engine: Option<Engine>,
    },
    /// Answer to [`QueryKind::Ping`].
    Pong,
    /// Answer to [`QueryKind::Stats`].
    Stats(ServerStats),
    /// Answer to a [`BatchItem::TraceFinish`]: the streaming checker's
    /// canonical report text (multi-line, carried verbatim as the body).
    Trace {
        /// `TraceReport::canonical_text()` output — the byte-comparable
        /// form shared with the `wo_trace` CLI.
        report: String,
    },
    /// A structured failure.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encodes to a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = String::new();
        match self {
            Response::Verdict { verdict, races, steps, cache, engine } => {
                out.push_str(&format!("{PROTOCOL_VERSION} ok verdict\n"));
                push_verdict_lines(&mut out, verdict, *steps, *cache, *engine);
                out.push_str(&format!("races={}\n", races.len()));
                push_race_lines(&mut out, races);
            }
            Response::Sc { outcomes, complete, reason, steps, cache, engine } => {
                out.push_str(&format!("{PROTOCOL_VERSION} ok sc\n"));
                out.push_str(&format!("outcomes={outcomes}\n"));
                out.push_str(&format!("complete={complete}\n"));
                if let Some(reason) = reason {
                    out.push_str(&format!("reason={}\n", sanitize(reason)));
                }
                out.push_str(&format!("steps={steps}\n"));
                out.push_str(&format!("cache={}\n", cache.as_str()));
                push_engine_line(&mut out, *engine);
            }
            Response::Pong => {
                out.push_str(&format!("{PROTOCOL_VERSION} ok pong\n"));
            }
            Response::Stats(s) => {
                out.push_str(&format!("{PROTOCOL_VERSION} ok stats\n"));
                out.push_str(&format!("served={}\n", s.served));
                out.push_str(&format!("cache_hits={}\n", s.cache_hits));
                out.push_str(&format!("coalesced={}\n", s.coalesced));
                out.push_str(&format!("explored={}\n", s.explored));
                out.push_str(&format!("overloaded={}\n", s.overloaded));
                out.push_str(&format!("degraded={}\n", s.degraded));
                out.push_str(&format!("journal_replayed={}\n", s.journal_replayed));
                out.push_str(&format!("shedding={}\n", s.shedding));
                out.push_str(&format!("batch_depth={}\n", encode_list(&s.batch_depth)));
                out.push_str(&format!("shard_hits={}\n", encode_list(&s.shard_hits)));
                out.push_str(&format!("shard_misses={}\n", encode_list(&s.shard_misses)));
                out.push_str(&format!("coalesced_in_batch={}\n", s.coalesced_in_batch));
                out.push_str(&format!("shed_items={}\n", s.shed_items));
                out.push_str(&format!("computed_axiom={}\n", s.computed_axiom));
                out.push_str(&format!("computed_explorer={}\n", s.computed_explorer));
                out.push_str(&format!("route_fallbacks={}\n", s.route_fallbacks));
            }
            Response::Trace { report } => {
                out.push_str(&format!("{PROTOCOL_VERSION} ok trace\n"));
                out.push('\n');
                out.push_str(report);
            }
            Response::Error { code, message } => {
                out.push_str(&format!("{PROTOCOL_VERSION} error {}\n", code.as_str()));
                out.push_str(&format!("message={}\n", sanitize(message)));
            }
        }
        out.into_bytes()
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason on any malformed payload; never
    /// panics on wire input.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let (mut tokens, rest) = first_line(payload, PROTOCOL_VERSION)?;
        let status = tokens.next().ok_or("missing status")?;
        let tag = tokens.next().ok_or("missing response tag")?;
        let h = Headers::parse(rest)?;
        if (status, tag) == ("ok", "trace") {
            // The report is multi-line and carried verbatim as the body.
            let report = std::str::from_utf8(h.required_body("trace response")?)
                .map_err(|e| format!("trace report not UTF-8: {e}"))?;
            return Ok(Response::Trace { report: report.to_string() });
        }
        h.no_body()?;
        // Counters added after the first release: an older server omits
        // them.
        let or_zero = |key: &str| h.opt_num(key).map(Option::unwrap_or_default);
        match (status, tag) {
            ("ok", "verdict") => {
                let (verdict, steps, cache, engine) = parse_verdict_lines(&h)?;
                let races = h.races.ok_or("missing races")?;
                Ok(Response::Verdict { verdict, races, steps, cache, engine })
            }
            ("ok", "sc") => Ok(Response::Sc {
                outcomes: h.num("outcomes")?,
                complete: h.get("complete") == Some("true"),
                reason: h.get("reason").map(str::to_string),
                steps: h.num("steps")?,
                cache: parse_cache(&h)?,
                engine: h.engine()?,
            }),
            ("ok", "pong") => Ok(Response::Pong),
            ("ok", "stats") => {
                let mut batch_depth = [0u64; BATCH_DEPTH_BUCKETS];
                if let Some(raw) = h.get("batch_depth") {
                    let buckets = parse_list(raw)?;
                    if buckets.len() != BATCH_DEPTH_BUCKETS {
                        return Err(format!("bad batch_depth bucket count {}", buckets.len()));
                    }
                    batch_depth.copy_from_slice(&buckets);
                }
                Ok(Response::Stats(ServerStats {
                    served: h.num("served")?,
                    cache_hits: h.num("cache_hits")?,
                    coalesced: h.num("coalesced")?,
                    explored: h.num("explored")?,
                    overloaded: h.num("overloaded")?,
                    degraded: h.num("degraded")?,
                    journal_replayed: h.num("journal_replayed")?,
                    shedding: h.get("shedding") == Some("true"),
                    batch_depth,
                    shard_hits: parse_list(h.get("shard_hits").unwrap_or(""))?,
                    shard_misses: parse_list(h.get("shard_misses").unwrap_or(""))?,
                    coalesced_in_batch: or_zero("coalesced_in_batch")?,
                    shed_items: or_zero("shed_items")?,
                    computed_axiom: or_zero("computed_axiom")?,
                    computed_explorer: or_zero("computed_explorer")?,
                    route_fallbacks: or_zero("route_fallbacks")?,
                }))
            }
            ("error", code) => Ok(Response::Error {
                code: ErrorCode::from_str(code)
                    .ok_or_else(|| format!("unknown error code {code:?}"))?,
                message: h.get("message").unwrap_or("").to_string(),
            }),
            _ => Err(format!("unknown response shape {status} {tag}")),
        }
    }
}

/// Appends one `race=` line per race to `out`. Race lists run to
/// thousands of entries on heavily racy programs; `format!` per line (an
/// allocation each) is the dominant cost of encoding such a payload, so
/// each line is assembled in a stack buffer and appended in one push.
/// Shared by [`Response::encode`], [`encode_batch_race_block`] and the
/// journal's record encoder.
pub(crate) fn push_race_lines(out: &mut String, races: &[RaceCoord]) {
    out.reserve(races.len() * 32);
    let mut line = [0u8; 64];
    for r in races {
        line[..5].copy_from_slice(b"race=");
        let mut at = 5;
        for (i, v) in [r.first_thread, r.first_seq, r.second_thread, r.second_seq, r.loc]
            .into_iter()
            .enumerate()
        {
            if i > 0 {
                line[at] = b' ';
                at += 1;
            }
            at += write_u32(&mut line[at..], v);
        }
        line[at] = b'\n';
        at += 1;
        // The buffer holds only ASCII.
        out.push_str(std::str::from_utf8(&line[..at]).expect("race line is ASCII"));
    }
}

/// Writes `v` in decimal at the start of `buf`, returning the digit
/// count. Hot on race lists (thousands of lines per response).
fn write_u32(buf: &mut [u8], v: u32) -> usize {
    let mut tmp = [0u8; 10];
    let mut i = tmp.len();
    let mut v = v;
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let n = tmp.len() - i;
    buf[..n].copy_from_slice(&tmp[i..]);
    n
}

/// Parses the value of one `race=` line: five decimal fields separated by
/// single spaces. [`Headers::parse`] reads every race line through it.
fn parse_race(value: &str) -> Result<RaceCoord, String> {
    // A hand-rolled byte scanner: race lines dominate decode time on
    // heavily racy programs, where `split` + `str::parse` per field (and
    // especially a `Vec` of the fields) costs more than the parse itself.
    let bytes = value.as_bytes();
    let mut at = 0usize;
    let mut fields = [0u32; 5];
    for (fi, field) in fields.iter_mut().enumerate() {
        if fi > 0 {
            if at >= bytes.len() || bytes[at] != b' ' {
                return Err(format!("malformed race line {value:?}"));
            }
            at += 1;
        }
        let start = at;
        let mut v: u32 = 0;
        while at < bytes.len() && bytes[at].is_ascii_digit() {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u32::from(bytes[at] - b'0')))
                .ok_or_else(|| format!("bad race field in {value:?}"))?;
            at += 1;
        }
        if at == start {
            return Err(format!("malformed race line {value:?}"));
        }
        *field = v;
    }
    if at != bytes.len() {
        return Err(format!("malformed race line {value:?}"));
    }
    Ok(RaceCoord {
        first_thread: fields[0],
        first_seq: fields[1],
        second_thread: fields[2],
        second_seq: fields[3],
        loc: fields[4],
    })
}

/// Header values live on one line; fold any embedded newlines so a hostile
/// reason/message can't smuggle extra protocol lines.
fn sanitize(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

/// Joins a list header's values with commas.
fn encode_list<T: fmt::Display>(values: &[T]) -> String {
    values.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

/// Splits a list header's value at its commas (empty is an empty list).
fn parse_list<T: FromStr>(raw: &str) -> Result<Vec<T>, String> {
    if raw.is_empty() {
        return Ok(Vec::new());
    }
    raw.split(',')
        .map(|s| s.parse().map_err(|_| format!("bad list element {s:?}")))
        .collect()
}

// ---------------------------------------------------------------------
// Batch mode (wo-serve/2)
// ---------------------------------------------------------------------

/// One tagged submission inside a batch frame. Every item carries a
/// client-assigned `id`, echoed on its result frame so out-of-order
/// results can be matched back up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchItem {
    /// A v1 query ([`Request`]) embedded verbatim — same semantics, same
    /// response bytes, pipelined.
    Query {
        /// Client-assigned tag, unique per connection.
        id: u64,
        /// The embedded v1 request.
        request: Request,
    },
    /// Opens a streaming trace check on this connection (one at a time per
    /// connection). Acknowledged with `Pong`.
    TraceOpen {
        /// Client-assigned tag.
        id: u64,
        /// Check under release-writes synchronization instead of DRF0.
        release_writes: bool,
    },
    /// One execution segment of the open trace check: `ops` in completion
    /// order over `procs` processors. **Not acknowledged on success** —
    /// only errors produce a result frame, so segments pipeline at TCP
    /// speed and backpressure is the socket window.
    TraceSeg {
        /// Client-assigned tag (used only in error results).
        id: u64,
        /// Number of processors in this segment.
        procs: u16,
        /// The segment's operations, completion order.
        ops: Vec<Operation>,
    },
    /// Finishes the open trace check; answered with [`Response::Trace`].
    TraceFinish {
        /// Client-assigned tag.
        id: u64,
    },
}

const OP_HAS_READ: u8 = 0x40;
const OP_HAS_WRITE: u8 = 0x80;
const OP_KIND_MASK: u8 = 0x3f;

fn op_kind_code(kind: memory_model::OpKind) -> u8 {
    use memory_model::OpKind;
    match kind {
        OpKind::DataRead => 0,
        OpKind::DataWrite => 1,
        OpKind::SyncRead => 2,
        OpKind::SyncWrite => 3,
        OpKind::SyncRmw => 4,
    }
}

fn op_kind_from_code(code: u8) -> Result<memory_model::OpKind, String> {
    use memory_model::OpKind;
    Ok(match code {
        0 => OpKind::DataRead,
        1 => OpKind::DataWrite,
        2 => OpKind::SyncRead,
        3 => OpKind::SyncWrite,
        4 => OpKind::SyncRmw,
        other => return Err(format!("unknown op kind code {other}")),
    })
}

fn encode_op(op: &Operation, out: &mut Vec<u8>) {
    let mut flags = op_kind_code(op.kind);
    if op.read_value.is_some() {
        flags |= OP_HAS_READ;
    }
    if op.write_value.is_some() {
        flags |= OP_HAS_WRITE;
    }
    out.push(flags);
    out.extend_from_slice(&op.proc.0.to_le_bytes());
    out.extend_from_slice(&op.loc.0.to_le_bytes());
    out.extend_from_slice(&op.id.0.to_le_bytes());
    if let Some(v) = op.read_value {
        out.extend_from_slice(&v.to_le_bytes());
    }
    if let Some(v) = op.write_value {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn take<const N: usize>(bytes: &mut &[u8]) -> Result<[u8; N], String> {
    let (head, rest) = bytes
        .split_at_checked(N)
        .ok_or_else(|| "truncated op record".to_string())?;
    *bytes = rest;
    Ok(head.try_into().expect("split_at_checked returned N bytes"))
}

fn decode_op(bytes: &mut &[u8]) -> Result<Operation, String> {
    let [flags] = take::<1>(bytes)?;
    let kind = op_kind_from_code(flags & OP_KIND_MASK)?;
    // The trace file's rule (`memsim::TraceReader`): a value the kind
    // cannot carry makes the record corrupt.
    if (flags & OP_HAS_READ != 0 && !kind.is_read())
        || (flags & OP_HAS_WRITE != 0 && !kind.is_write())
    {
        return Err(format!("value-presence bits {flags:#04x} contradict the op kind"));
    }
    let proc = ProcId(u16::from_le_bytes(take::<2>(bytes)?));
    let loc = Loc(u32::from_le_bytes(take::<4>(bytes)?));
    let id = OpId(u64::from_le_bytes(take::<8>(bytes)?));
    let read_value = if flags & OP_HAS_READ != 0 {
        Some(u64::from_le_bytes(take::<8>(bytes)?))
    } else {
        None
    };
    let write_value = if flags & OP_HAS_WRITE != 0 {
        Some(u64::from_le_bytes(take::<8>(bytes)?))
    } else {
        None
    };
    Ok(Operation { id, proc, kind, loc, read_value, write_value })
}

impl BatchItem {
    /// The item's client-assigned tag.
    #[must_use]
    pub fn id(&self) -> u64 {
        match *self {
            BatchItem::Query { id, .. }
            | BatchItem::TraceOpen { id, .. }
            | BatchItem::TraceSeg { id, .. }
            | BatchItem::TraceFinish { id } => id,
        }
    }

    /// Encodes one item (the inner bytes of a batch sub-frame).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            BatchItem::Query { id, request } => {
                let mut out = format!("{PROTOCOL_VERSION_2} q {id}\n").into_bytes();
                out.extend_from_slice(&request.encode());
                out
            }
            BatchItem::TraceOpen { id, release_writes } => {
                let mode = if *release_writes { "release-writes" } else { "drf0" };
                format!("{PROTOCOL_VERSION_2} trace_open {id}\nmode={mode}\n").into_bytes()
            }
            BatchItem::TraceSeg { id, procs, ops } => {
                let mut out = format!(
                    "{PROTOCOL_VERSION_2} trace_seg {id}\nprocs={procs}\nops={}\n\n",
                    ops.len()
                )
                .into_bytes();
                for op in ops {
                    encode_op(op, &mut out);
                }
                out
            }
            BatchItem::TraceFinish { id } => {
                format!("{PROTOCOL_VERSION_2} trace_finish {id}\n").into_bytes()
            }
        }
    }

    /// Decodes one item.
    ///
    /// # Errors
    ///
    /// A human-readable reason on malformed input; never panics. When the
    /// first line parsed far enough to carry an id, the error is still
    /// attributable via [`peek_item_id`].
    pub fn decode(item: &[u8]) -> Result<Self, String> {
        let (mut tokens, rest) = first_line(item, PROTOCOL_VERSION_2)?;
        let tag = tokens.next().ok_or("missing batch item tag")?;
        let id = id_token(&mut tokens, "batch item id")?;
        if tag == "q" {
            return Ok(BatchItem::Query { id, request: Request::decode(rest)? });
        }
        let h = Headers::parse(rest)?;
        match tag {
            "trace_open" => {
                h.no_body()?;
                let release_writes = match h.get("mode") {
                    None | Some("drf0") => false,
                    Some("release-writes") => true,
                    Some(other) => return Err(format!("unknown trace mode {other:?}")),
                };
                Ok(BatchItem::TraceOpen { id, release_writes })
            }
            "trace_seg" => {
                // Text headers up to the blank line, then binary op records.
                let mut bytes = h.required_body("trace_seg")?;
                let procs = h.num("procs")?;
                let count: usize = h.num("ops")?;
                // An op record is at least 15 bytes, so a hostile count is
                // bounded by the (already capped) item length before any
                // allocation happens.
                if count > bytes.len() / 15 {
                    return Err(format!("ops count {count} exceeds payload"));
                }
                let mut ops = Vec::with_capacity(count);
                for _ in 0..count {
                    ops.push(decode_op(&mut bytes)?);
                }
                if !bytes.is_empty() {
                    return Err(format!("{} trailing bytes after ops", bytes.len()));
                }
                Ok(BatchItem::TraceSeg { id, procs, ops })
            }
            "trace_finish" => {
                h.no_body()?;
                Ok(BatchItem::TraceFinish { id })
            }
            other => Err(format!("unknown batch item tag {other:?}")),
        }
    }
}

/// Extracts the client-assigned id from an item's first line without fully
/// decoding it, so even a malformed item's error result can be tagged.
/// A first line without the `wo-serve/2` version yields `None`.
#[must_use]
pub fn peek_item_id(item: &[u8]) -> Option<u64> {
    let (mut tokens, _) = first_line(item, PROTOCOL_VERSION_2).ok()?;
    tokens.nth(1)?.parse().ok()
}

/// Whether a frame payload is a v2 batch frame (vs a v1 request).
#[must_use]
pub fn is_batch_frame(payload: &[u8]) -> bool {
    payload.starts_with(BATCH_MAGIC.as_bytes())
        && matches!(payload.get(BATCH_MAGIC.len()), None | Some(b'\n'))
}

/// Assembles encoded items into one batch frame payload.
///
/// # Panics
///
/// If an item exceeds `u32::MAX` bytes (unreachable behind the per-item
/// cap).
#[must_use]
pub fn encode_batch_frame(items: &[Vec<u8>]) -> Vec<u8> {
    let mut out = format!("{BATCH_MAGIC}\nitems={}\n\n", items.len()).into_bytes();
    for item in items {
        let len = u32::try_from(item.len()).expect("batch item exceeds u32::MAX bytes");
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(item);
    }
    out
}

/// Splits a batch frame payload into its item byte slices. Structural
/// errors (bad magic, count mismatch, torn sub-frame, too many items) fail
/// the whole frame; *semantic* per-item errors are the caller's business so
/// they can be answered per item.
///
/// # Errors
///
/// A human-readable reason on malformed framing; never panics.
pub fn split_batch_frame(payload: &[u8], max_items: usize) -> Result<Vec<&[u8]>, String> {
    if !is_batch_frame(payload) {
        return Err("not a batch frame".into());
    }
    let h = Headers::parse(first_line(payload, PROTOCOL_VERSION_2)?.1)?;
    h.only(&["items"])?;
    let mut rest = h.required_body("batch frame")?;
    let count: usize = h.num("items")?;
    if count > max_items {
        return Err(format!("batch of {count} items exceeds cap of {max_items}"));
    }
    let mut items = Vec::with_capacity(count.min(rest.len() / 4));
    for _ in 0..count {
        let len_bytes: [u8; 4] = take::<4>(&mut rest).map_err(|_| "torn batch sub-frame")?;
        let len = u32::from_be_bytes(len_bytes) as usize;
        let (item, tail) = rest
            .split_at_checked(len)
            .ok_or_else(|| format!("batch sub-frame of {len} bytes overruns the frame"))?;
        items.push(item);
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(format!("{} trailing bytes after batch items", rest.len()));
    }
    Ok(items)
}

/// Encodes a result frame: the item's id plus the embedded v1 response
/// payload **verbatim** (this is what makes batched streams byte-comparable
/// to per-request streams).
#[must_use]
pub fn encode_batch_result(id: u64, response_payload: &[u8]) -> Vec<u8> {
    let mut out = format!("{PROTOCOL_VERSION_2} result {id}\n").into_bytes();
    out.extend_from_slice(response_payload);
    out
}

/// Splits a result frame into `(id, embedded v1 response payload)`.
///
/// # Errors
///
/// A human-readable reason if the payload is not a v2 result frame (for
/// example the bare error frame a daemon rejects a damaged batch with).
pub fn decode_batch_result(payload: &[u8]) -> Result<(u64, &[u8]), String> {
    let (mut tokens, rest) = first_line(payload, PROTOCOL_VERSION_2)?;
    expect_tag(&mut tokens, "result")?;
    Ok((id_token(&mut tokens, "result id")?, rest))
}

/// Checks that a v2 stream frame's first line carries `tag`.
fn expect_tag(tokens: &mut SplitWhitespace<'_>, tag: &str) -> Result<(), String> {
    match tokens.next() {
        Some(t) if t == tag => Ok(()),
        other => Err(format!("expected a {tag} frame, got tag {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Race-block result references (batch streams only)
// ---------------------------------------------------------------------

/// Race-set size at which a batched result stops inlining its race list
/// and references a shared race block instead. Heavily racy programs
/// carry thousands of races per verdict; a batch of renamed
/// near-duplicates coalescing onto one canonical key would otherwise
/// encode, ship, and re-parse the same canonical set once per item.
pub const RACE_BLOCK_MIN_RACES: usize = 64;

/// The tag of a v2 batch stream frame (`"result"`, `"races"`,
/// `"resultref"`), or `None` for anything else — e.g. the bare error
/// frame a daemon rejects a damaged batch with.
#[must_use]
pub fn batch_frame_tag(payload: &[u8]) -> Option<&str> {
    first_line(payload, PROTOCOL_VERSION_2).ok()?.0.next()
}

/// Encodes a race block: the canonical-space race set that `resultref`
/// frames later in the same batch response stream reference by id. The
/// block id is the item id of the first result that references it, which
/// is unique within the batch.
#[must_use]
pub fn encode_batch_race_block(block_id: u64, races: &[RaceCoord]) -> Vec<u8> {
    let mut out = format!("{PROTOCOL_VERSION_2} races {block_id}\nraces={}\n", races.len());
    push_race_lines(&mut out, races);
    out.into_bytes()
}

/// Splits a race block frame into `(block_id, canonical races)`.
///
/// # Errors
///
/// A human-readable reason on anything that is not a well-formed race
/// block frame; never panics on wire input.
pub fn decode_batch_race_block(payload: &[u8]) -> Result<(u64, Vec<RaceCoord>), String> {
    let (mut tokens, rest) = first_line(payload, PROTOCOL_VERSION_2)?;
    expect_tag(&mut tokens, "races")?;
    let block_id = id_token(&mut tokens, "race block id")?;
    let h = Headers::parse(rest)?;
    h.only(&["races"])?;
    h.no_body()?;
    Ok((block_id, h.races.ok_or("race block declares no races")?))
}

/// A batched result that references a shared race block instead of
/// inlining its (large) race list: everything the client needs to
/// reconstruct the exact v1 [`Response::Verdict`] — verdict fields plus
/// the submission's inverse renaming maps to translate the block's
/// canonical races through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultRef {
    /// The client-assigned item id this result answers.
    pub id: u64,
    /// Which race block (by id, within this batch) holds the races.
    pub block_id: u64,
    /// The verdict (`Racy` whenever the referenced block is non-empty).
    pub verdict: Verdict,
    /// States expanded by the exploration that produced the answer.
    pub steps: u64,
    /// How the cache participated for this item.
    pub cache: CacheStatus,
    /// Which engine produced the answer.
    pub engine: Option<Engine>,
    /// Canonical thread index → submitted thread index.
    pub thread_unmap: Vec<usize>,
    /// Canonical location → submitted location.
    pub loc_unmap: Vec<u32>,
}

/// Encodes a result-reference frame.
#[must_use]
pub fn encode_batch_result_ref(rref: &ResultRef) -> Vec<u8> {
    let mut out = format!("{PROTOCOL_VERSION_2} resultref {} {}\n", rref.id, rref.block_id);
    push_verdict_lines(&mut out, &rref.verdict, rref.steps, rref.cache, rref.engine);
    out.push_str(&format!("unmap_threads={}\n", encode_list(&rref.thread_unmap)));
    out.push_str(&format!("unmap_locs={}\n", encode_list(&rref.loc_unmap)));
    out.into_bytes()
}

/// Decodes a result-reference frame.
///
/// # Errors
///
/// A human-readable reason on anything that is not a well-formed
/// `resultref` frame; never panics on wire input.
pub fn decode_batch_result_ref(payload: &[u8]) -> Result<ResultRef, String> {
    let (mut tokens, rest) = first_line(payload, PROTOCOL_VERSION_2)?;
    expect_tag(&mut tokens, "resultref")?;
    let id = id_token(&mut tokens, "resultref id")?;
    let block_id = id_token(&mut tokens, "resultref block id")?;
    let h = Headers::parse(rest)?;
    h.no_body()?;
    let (verdict, steps, cache, engine) = parse_verdict_lines(&h)?;
    let thread_unmap = parse_list(h.require("unmap_threads")?)?;
    let loc_unmap = parse_list(h.require("unmap_locs")?)?;
    Ok(ResultRef { id, block_id, verdict, steps, cache, engine, thread_unmap, loc_unmap })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cur, 1024).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn torn_frame_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6); // header + one payload byte
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn requests_roundtrip() {
        let mut req = Request::new(QueryKind::Drf0, "P0:\n  W(m0) := 1\n");
        req.deadline_ms = Some(250);
        req.max_total_steps = Some(100_000);
        let decoded = Request::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);

        let ping = Request::new(QueryKind::Ping, "");
        assert_eq!(Request::decode(&ping.encode()).unwrap(), ping);
    }

    #[test]
    fn malformed_requests_error_not_panic() {
        let cases: &[&[u8]] = &[
            b"",
            b"\xff\xfe",
            b"wrong/9 drf0\n\n",
            b"wo-serve/1\n",
            b"wo-serve/1 bogus\n\n",
            b"wo-serve/1 drf0\nnot a header\n\nP0:\n",
            b"wo-serve/1 drf0\ndeadline_ms=abc\n\n",
            b"wo-serve/1 drf0\nsteps=-4\n\n",
        ];
        for case in cases {
            assert!(Request::decode(case).is_err(), "{case:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let samples = vec![
            Response::Verdict {
                verdict: Verdict::Racy,
                races: vec![
                    RaceCoord {
                        first_thread: 0,
                        first_seq: 1,
                        second_thread: 1,
                        second_seq: 0,
                        loc: 7,
                    },
                    RaceCoord {
                        first_thread: 2,
                        first_seq: 3,
                        second_thread: 0,
                        second_seq: 0,
                        loc: 9,
                    },
                ],
                steps: 421,
                cache: CacheStatus::Miss,
                engine: Some(Engine::Explorer),
            },
            Response::Verdict {
                verdict: Verdict::Unknown { reason: "deadline".into() },
                races: vec![],
                steps: 10_000,
                cache: CacheStatus::Miss,
                engine: None,
            },
            Response::Sc {
                outcomes: 4,
                complete: true,
                reason: None,
                steps: 99,
                cache: CacheStatus::Hit,
                engine: Some(Engine::Axiom),
            },
            Response::Pong,
            Response::Stats(ServerStats {
                served: 10,
                cache_hits: 4,
                coalesced: 2,
                explored: 4,
                overloaded: 1,
                degraded: 1,
                journal_replayed: 3,
                shedding: true,
                batch_depth: [1, 0, 2, 0, 0, 9],
                shard_hits: vec![3, 0, 1],
                shard_misses: vec![0, 2, 0],
                coalesced_in_batch: 5,
                shed_items: 2,
                computed_axiom: 1,
                computed_explorer: 3,
                route_fallbacks: 2,
            }),
            Response::Trace { report: "verdict: racy\nsegments: 2\nraces: 1\n".into() },
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
            },
        ];
        for r in samples {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r, "{r:?}");
        }
    }

    /// A response from a server that predates the `engine=` line still
    /// decodes, with no engine; an unknown engine token is an error.
    #[test]
    fn engine_line_is_optional_on_read() {
        let old = "wo-serve/1 ok verdict\nverdict=drf0\nsteps=7\ncache=miss\nraces=0\n";
        match Response::decode(old.as_bytes()).unwrap() {
            Response::Verdict { verdict: Verdict::Drf0, steps: 7, engine: None, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        let old_sc = "wo-serve/1 ok sc\noutcomes=2\ncomplete=true\nsteps=5\ncache=hit\n";
        assert!(matches!(
            Response::decode(old_sc.as_bytes()).unwrap(),
            Response::Sc { outcomes: 2, engine: None, .. }
        ));
        let bogus = "wo-serve/1 ok sc\noutcomes=2\ncomplete=true\nsteps=5\ncache=hit\nengine=oracle\n";
        assert!(Response::decode(bogus.as_bytes()).is_err());
    }

    #[test]
    fn result_refs_roundtrip_with_and_without_an_engine() {
        for engine in [Some(Engine::Explorer), Some(Engine::Axiom), None] {
            let rref = ResultRef {
                id: 4,
                block_id: 2,
                verdict: Verdict::Racy,
                steps: 31,
                cache: CacheStatus::Coalesced,
                engine,
                thread_unmap: vec![1, 0],
                loc_unmap: vec![5, 3],
            };
            assert_eq!(decode_batch_result_ref(&encode_batch_result_ref(&rref)).unwrap(), rref);
        }
    }

    #[test]
    fn race_count_mismatch_is_rejected() {
        let mut payload = String::from("wo-serve/1 ok verdict\n");
        payload.push_str("verdict=racy\nsteps=1\ncache=miss\nraces=2\n");
        payload.push_str("race=0 0 1 0 3\n");
        assert!(Response::decode(payload.as_bytes()).is_err());
    }

    #[test]
    fn hostile_header_values_cannot_inject_lines() {
        let r = Response::Error {
            code: ErrorCode::Parse,
            message: "line 1\nmessage=spoofed".into(),
        };
        let decoded = Response::decode(&r.encode()).unwrap();
        match decoded {
            Response::Error { message, .. } => {
                assert!(!message.contains('\n'));
                assert!(message.contains("spoofed"), "content folded, not lost");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_code_retryability() {
        assert!(ErrorCode::Overloaded.is_retryable());
        assert!(ErrorCode::ShuttingDown.is_retryable());
        assert!(!ErrorCode::Parse.is_retryable());
        assert!(!ErrorCode::TooLarge.is_retryable());
    }

    fn sample_ops() -> Vec<Operation> {
        vec![
            Operation::data_write(OpId(1), ProcId(0), Loc(3), 7),
            Operation::data_read(OpId(2), ProcId(1), Loc(3), 7),
            Operation::sync_write(OpId(3), ProcId(0), Loc(9), 1),
            Operation::sync_read(OpId(4), ProcId(1), Loc(9), 1),
            Operation::sync_rmw(OpId(5), ProcId(2), Loc(9), 1, 2),
        ]
    }

    #[test]
    fn batch_items_roundtrip() {
        let mut req = Request::new(QueryKind::Drf0, "P0:\n  W(m0) := 1\n");
        req.deadline_ms = Some(0);
        let items = vec![
            BatchItem::Query { id: 0, request: req },
            BatchItem::TraceOpen { id: 1, release_writes: true },
            BatchItem::TraceOpen { id: 2, release_writes: false },
            BatchItem::TraceSeg { id: 3, procs: 3, ops: sample_ops() },
            BatchItem::TraceSeg { id: 4, procs: 1, ops: vec![] },
            BatchItem::TraceFinish { id: u64::MAX },
        ];
        for item in &items {
            let bytes = item.encode();
            assert_eq!(&BatchItem::decode(&bytes).unwrap(), item, "{item:?}");
            assert_eq!(peek_item_id(&bytes), Some(item.id()));
        }
    }

    #[test]
    fn query_item_embeds_the_v1_request_verbatim() {
        let req = Request::new(QueryKind::Sc, "P0:\n  0: r0 := R(m0)\n");
        let bytes = BatchItem::Query { id: 42, request: req.clone() }.encode();
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        assert_eq!(&bytes[newline + 1..], &req.encode()[..]);
    }

    #[test]
    fn batch_frames_roundtrip_and_reject_structural_damage() {
        let encoded: Vec<Vec<u8>> = vec![
            BatchItem::TraceFinish { id: 1 }.encode(),
            BatchItem::Query { id: 2, request: Request::new(QueryKind::Ping, "") }.encode(),
        ];
        let frame = encode_batch_frame(&encoded);
        assert!(is_batch_frame(&frame));
        assert!(!is_batch_frame(b"wo-serve/1 drf0\n\n"));
        assert!(!is_batch_frame(b"wo-serve/2 batchx\n"));
        let split = split_batch_frame(&frame, 16).unwrap();
        assert_eq!(split.len(), 2);
        assert_eq!(split[0], &encoded[0][..]);
        assert_eq!(split[1], &encoded[1][..]);

        // Item cap.
        assert!(split_batch_frame(&frame, 1).is_err());
        // Count mismatch: header promises one more item than the frame has.
        let mut lying = format!("{BATCH_MAGIC}\nitems=3\n\n").into_bytes();
        lying.extend_from_slice(&frame[frame.len() - (encoded[0].len() + encoded[1].len() + 8)..]);
        assert!(split_batch_frame(&lying, 16).is_err(), "declared 3, carried 2");
        for cut in [frame.len() - 1, frame.len() - 5] {
            assert!(split_batch_frame(&frame[..cut], 16).is_err(), "torn at {cut}");
        }
        let mut trailing = frame.clone();
        trailing.push(0);
        assert!(split_batch_frame(&trailing, 16).is_err(), "trailing bytes");
        assert!(split_batch_frame(b"wo-serve/2 batch\nitems=zz\n\n", 16).is_err());
        assert!(split_batch_frame(b"wo-serve/2 batch\nitems=1\n", 16).is_err());
    }

    #[test]
    fn malformed_batch_items_error_not_panic() {
        let cases: &[&[u8]] = &[
            b"",
            b"wo-serve/2 q\n",
            b"wo-serve/2 q abc\nwo-serve/1 ping\n\n",
            b"wo-serve/1 q 3\nwo-serve/1 ping\n\n",
            b"wo-serve/2 bogus 3\n",
            b"wo-serve/2 trace_open 1\nmode=tso\n",
            b"wo-serve/2 trace_seg 1\nprocs=2\n\n",
            b"wo-serve/2 trace_seg 1\nprocs=2\nops=9999\n\n\x00",
            b"wo-serve/2 trace_seg 1\nprocs=2\nops=1\n\n\x05\x00\x00\x00\x00\x00\x00",
            // A data read with the has-write bit, a data write with the
            // has-read bit: value-presence bits the kind cannot have.
            b"wo-serve/2 trace_seg 1\nprocs=2\nops=1\n\n\x80\x00\x00\x03\x00\x00\x00\
              \x01\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00",
            b"wo-serve/2 trace_seg 1\nprocs=2\nops=1\n\n\x41\x00\x00\x03\x00\x00\x00\
              \x01\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00",
        ];
        for case in cases {
            assert!(BatchItem::decode(case).is_err(), "{case:?}");
        }
        // Trailing garbage after a well-formed op is rejected.
        let mut seg = BatchItem::TraceSeg { id: 1, procs: 2, ops: sample_ops() }.encode();
        seg.push(0xAA);
        assert!(BatchItem::decode(&seg).is_err());
    }

    #[test]
    fn result_frames_roundtrip_and_v1_responses_are_distinguishable() {
        let resp = Response::Verdict {
            verdict: Verdict::Drf0,
            races: vec![],
            steps: 12,
            cache: CacheStatus::Hit,
            engine: Some(Engine::Axiom),
        };
        let payload = resp.encode();
        let framed = encode_batch_result(9, &payload);
        let (id, inner) = decode_batch_result(&framed).unwrap();
        assert_eq!(id, 9);
        assert_eq!(inner, &payload[..], "embedded response bytes are verbatim");
        assert_eq!(Response::decode(inner).unwrap(), resp);

        // A bare error frame (a daemon rejecting a damaged batch) is not
        // a result frame, so the client can tell the two apart.
        let v1 = Response::Error { code: ErrorCode::Malformed, message: "nope".into() }.encode();
        assert!(decode_batch_result(&v1).is_err());
    }

    #[test]
    fn trace_response_preserves_multiline_report_verbatim() {
        let report = "verdict: drf0\nmode: drf0\nsegments: 3\nevents: 120\n";
        let r = Response::Trace { report: report.into() };
        match Response::decode(&r.encode()).unwrap() {
            Response::Trace { report: got } => assert_eq!(got, report),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_depth_buckets_partition_the_axis() {
        assert_eq!(batch_depth_bucket(0), 0);
        assert_eq!(batch_depth_bucket(1), 0);
        assert_eq!(batch_depth_bucket(2), 1);
        assert_eq!(batch_depth_bucket(7), 1);
        assert_eq!(batch_depth_bucket(8), 2);
        assert_eq!(batch_depth_bucket(127), 3);
        assert_eq!(batch_depth_bucket(256), 4);
        assert_eq!(batch_depth_bucket(512), 5);
        assert_eq!(batch_depth_bucket(usize::MAX), 5);
    }

    /// Pins the stats wire schema: the exact header keys, in order.
    /// Extending the stats payload is fine — but it must be deliberate,
    /// append-only, and reflected here, because old clients skip unknown
    /// keys while old servers cannot retroactively produce new ones.
    #[test]
    fn stats_wire_schema_is_pinned() {
        let payload = Response::Stats(ServerStats::default()).encode();
        let text = String::from_utf8(payload).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("wo-serve/1 ok stats"));
        let keys: Vec<&str> = lines
            .take_while(|l| !l.is_empty())
            .map(|l| l.split_once('=').expect("key=value header").0)
            .collect();
        assert_eq!(
            keys,
            [
                "served",
                "cache_hits",
                "coalesced",
                "explored",
                "overloaded",
                "degraded",
                "journal_replayed",
                "shedding",
                "batch_depth",
                "shard_hits",
                "shard_misses",
                "coalesced_in_batch",
                "shed_items",
                "computed_axiom",
                "computed_explorer",
                "route_fallbacks",
            ]
        );
    }

    /// A decoder of the text-frame grammar: a name and whether it
    /// accepts a payload.
    type Decoder = (&'static str, fn(&[u8]) -> bool);

    const REQUEST: Decoder = ("request", |p| Request::decode(p).is_ok());
    const RESPONSE: Decoder = ("response", |p| Response::decode(p).is_ok());
    const ITEM: Decoder = ("batch item", |p| BatchItem::decode(p).is_ok());
    const BATCH: Decoder = ("batch frame", |p| split_batch_frame(p, 16).is_ok());
    const RESULT: Decoder = ("result frame", |p| decode_batch_result(p).is_ok());
    const RACE_BLOCK: Decoder = ("race block", |p| decode_batch_race_block(p).is_ok());
    const RESULTREF: Decoder = ("resultref", |p| decode_batch_result_ref(p).is_ok());
    const JOURNAL: Decoder = ("journal record", |p| crate::journal::parse_payload(p).is_some());
    const PEEK: Decoder = ("peek_item_id", |p| peek_item_id(p).is_some());
    const TAG: Decoder = ("batch_frame_tag", |p| batch_frame_tag(p).is_some());

    /// Rules 1–5 of the module docs, each fed to every decoder that can
    /// see it: `(rule, decoder, payload, accepted)`.
    const RULES: &[(u8, Decoder, &[u8], bool)] = &[
        // 1. The first line ends at the first `\n` and starts with the
        //    version.
        (1, REQUEST, b"wo-serve/1 ping\n", true),
        (1, REQUEST, b"wo-serve/1 ping", false),
        (1, REQUEST, b"wo-serve/2 ping\n", false),
        (1, REQUEST, b"\nwo-serve/1 ping\n", false),
        (1, RESPONSE, b"wo-serve/1 ok pong\n", true),
        (1, RESPONSE, b"wo-serve/1 ok pong", false),
        (1, RESPONSE, b"wo-serve/2 ok pong\n", false),
        (1, ITEM, b"wo-serve/2 trace_finish 1\n", true),
        (1, ITEM, b"wo-serve/2 trace_finish 1", false),
        (1, ITEM, b"wo-serve/1 trace_finish 1\n", false),
        (1, BATCH, b"wo-serve/2 batch", false),
        (1, RESULT, b"wo-serve/2 result 3\nwo-serve/1 ok pong\n", true),
        (1, RESULT, b"wo-serve/2 result 3", false),
        (1, RESULT, b"wo-serve/1 result 3\n", false),
        (1, RACE_BLOCK, b"wo-serve/2 races 2", false),
        (1, RESULTREF, b"wo-serve/2 resultref 4 2", false),
        (1, PEEK, b"wo-serve/2 q 7\n", true),
        (1, PEEK, b"wo-serve/2 q 7", false),
        (1, PEEK, b"wo-serve/1 q 7\n", false),
        (1, TAG, b"wo-serve/2 result 3\n", true),
        (1, TAG, b"wo-serve/2 result 3", false),
        // 2. Header lines are `key=value`, split at the first `=`.
        (2, REQUEST, b"wo-serve/1 drf0\nnot a header\n\nP0:\n", false),
        (2, REQUEST, b"wo-serve/1 ping\nnote=a=b\n", true),
        (2, REQUEST, b"wo-serve/1 drf0\nsteps=1=2\n\n", false),
        (2, RESPONSE, b"wo-serve/1 ok pong\nnot a header\n", false),
        (2, RESPONSE, b"wo-serve/1 error parse\nmessage=a=b\n", true),
        (2, ITEM, b"wo-serve/2 trace_open 1\nmode\n", false),
        (2, ITEM, b"wo-serve/2 trace_seg 1\nprocs=2\nops\n\n", false),
        (2, ITEM, b"wo-serve/2 trace_finish 1\ngarbage\n", false),
        (2, BATCH, b"wo-serve/2 batch\nitems\n\n", false),
        (2, RACE_BLOCK, b"wo-serve/2 races 2\nraces=0\nrace\n", false),
        (2, RESULTREF, b"wo-serve/2 resultref 4 2\nverdict=drf0\nsteps=3\ncache=hit\nunmap_threads=\nunmap_locs=\nnote\n", false),
        (2, JOURNAL, b"group=sc\nanswer=sc\noutcomes=4\nsteps=99\nnote\n\nP0:\n", false),
        // 3. `race=` is the one repeatable key, counted by `races=`.
        (3, RESPONSE, b"wo-serve/1 ok verdict\nverdict=racy\nsteps=1\ncache=miss\nraces=1\nrace=0 0 1 0 3\n", true),
        (3, RESPONSE, b"wo-serve/1 ok verdict\nverdict=racy\nsteps=1\ncache=miss\nraces=2\nrace=0 0 1 0 3\n", false),
        (3, RESPONSE, b"wo-serve/1 ok verdict\nverdict=racy\nsteps=1\ncache=miss\nrace=0 0 1 0 3\n", false),
        (3, RESPONSE, b"wo-serve/1 ok verdict\nverdict=drf0\nsteps=1\ncache=miss\nraces=0\nraces=0\n", false),
        (3, RESPONSE, b"wo-serve/1 ok verdict\nverdict=drf0\nsteps=1\nsteps=2\ncache=miss\nraces=0\n", false),
        (3, RESPONSE, b"wo-serve/1 ok sc\noutcomes=2\ncomplete=true\nsteps=5\ncache=hit\nrace=0 0 1 0 3\n", false),
        (3, REQUEST, b"wo-serve/1 ping\nrace=0 0 1 0 3\n", false),
        (3, REQUEST, b"wo-serve/1 ping\nraces=1\nrace=0 0 1 0 3\n", true),
        (3, REQUEST, b"wo-serve/1 drf0\nsteps=5\nsteps=6\n\n", false),
        (3, ITEM, b"wo-serve/2 trace_open 1\nmode=drf0\nmode=release-writes\n", false),
        (3, ITEM, b"wo-serve/2 trace_seg 1\nprocs=2\nprocs=3\nops=0\n\n", false),
        (3, BATCH, b"wo-serve/2 batch\nitems=0\nrace=0 0 1 0 3\n\n", false),
        (3, RACE_BLOCK, b"wo-serve/2 races 2\nraces=1\nrace=0 0 1 0 3\n", true),
        (3, RACE_BLOCK, b"wo-serve/2 races 2\nraces=2\nrace=0 0 1 0 3\n", false),
        (3, RACE_BLOCK, b"wo-serve/2 races 2\nrace=0 0 1 0 3\n", false),
        (3, RESULTREF, b"wo-serve/2 resultref 4 2\nverdict=drf0\nsteps=3\nsteps=3\ncache=hit\nunmap_threads=\nunmap_locs=\n", false),
        (3, JOURNAL, b"group=explore\nanswer=explore\nracy=true\nsteps=42\nraces=1\nrace=0 1 1 0 3\n\nP0:\n", true),
        (3, JOURNAL, b"group=explore\nanswer=explore\nracy=true\nsteps=42\nraces=2\nrace=0 1 1 0 3\n\nP0:\n", false),
        (3, JOURNAL, b"group=sc\nanswer=sc\noutcomes=4\nsteps=99\nrace=0 1 1 0 3\n\nP0:\n", false),
        (3, JOURNAL, b"group=sc\nanswer=sc\noutcomes=4\nsteps=99\nsteps=98\n\nP0:\n", false),
        // 4. Unknown keys are skipped, except by the batch frame header
        //    and the race block.
        (4, REQUEST, b"wo-serve/1 ping\nfuture=1\n", true),
        (4, RESPONSE, b"wo-serve/1 ok sc\noutcomes=2\ncomplete=true\nsteps=5\ncache=hit\nfuture=1\n", true),
        (4, ITEM, b"wo-serve/2 trace_open 1\nfuture=1\nmode=drf0\n", true),
        (4, ITEM, b"wo-serve/2 trace_seg 1\nfuture=1\nprocs=2\nops=0\n\n", true),
        (4, ITEM, b"wo-serve/2 trace_finish 1\nfuture=1\n", true),
        (4, RESULTREF, b"wo-serve/2 resultref 4 2\nverdict=drf0\nsteps=3\ncache=hit\nunmap_threads=\nunmap_locs=\nfuture=1\n", true),
        (4, JOURNAL, b"group=sc\nanswer=sc\nfuture=1\noutcomes=4\nsteps=99\n\nP0:\n", true),
        (4, BATCH, b"wo-serve/2 batch\nitems=0\nfuture=1\n\n", false),
        (4, BATCH, b"wo-serve/2 batch\nitems=0\nraces=0\n\n", false),
        (4, RACE_BLOCK, b"wo-serve/2 races 2\nraces=0\nfuture=1\n", false),
        // 5. The body follows the blank line.
        (5, ITEM, b"wo-serve/2 trace_seg 1\nprocs=2\nops=0\n\n", true),
        (5, ITEM, b"wo-serve/2 trace_seg 1\nprocs=2\nops=0\n", false),
        (5, BATCH, b"wo-serve/2 batch\nitems=0\n\n", true),
        (5, BATCH, b"wo-serve/2 batch\nitems=0\n", false),
        (5, RESPONSE, b"wo-serve/1 ok trace\n\nverdict: drf0\n", true),
        (5, RESPONSE, b"wo-serve/1 ok trace\n", false),
        (5, REQUEST, b"wo-serve/1 drf0\nsteps=5\n", true),
        (5, JOURNAL, b"group=sc\nanswer=sc\noutcomes=4\nsteps=99\n\n", false),
        (5, JOURNAL, b"group=sc\nanswer=sc\noutcomes=4\nsteps=99\n", false),
        (5, RESPONSE, b"wo-serve/1 ok pong\n\n", true),
        (5, RESPONSE, b"wo-serve/1 ok pong\n\nx", false),
        (5, RESPONSE, b"wo-serve/1 ok verdict\nverdict=drf0\n\nsteps=1\ncache=miss\nraces=0\n", false),
        (5, RESULTREF, b"wo-serve/2 resultref 4 2\nverdict=drf0\n\nsteps=3\ncache=hit\nunmap_threads=\nunmap_locs=\n", false),
        (5, ITEM, b"wo-serve/2 trace_open 1\nmode=drf0\n\nfuture=1\n", false),
        (5, ITEM, b"wo-serve/2 trace_finish 1\n\nx", false),
        (5, RACE_BLOCK, b"wo-serve/2 races 2\nraces=1\n\nrace=0 0 1 0 3\n", false),
    ];

    #[test]
    fn every_decoder_follows_the_text_frame_rules() {
        for &(rule, (name, accepts), payload, accepted) in RULES {
            let shown = payload.escape_ascii();
            assert_eq!(accepts(payload), accepted, "rule {rule}, {name}: {shown}");
        }
        // A request's program is its body, byte for byte.
        let req = Request::decode(b"wo-serve/1 drf0\nops=3\n\nP0:\n\n  0: W(m0) := 1").unwrap();
        assert_eq!(req.program, "P0:\n\n  0: W(m0) := 1");
    }

    /// Malformed input the decoders accepted before they shared the
    /// grammar, which no encoder writes; each case is now an error.
    const TIGHTENED: &[(Decoder, &[u8])] = &[
        // A repeated non-race key (the last one won here before).
        (REQUEST, b"wo-serve/1 drf0\nsteps=5\nsteps=6\n\n"),
        (ITEM, b"wo-serve/2 trace_open 1\nmode=drf0\nmode=release-writes\n"),
        (JOURNAL, b"group=sc\nanswer=sc\noutcomes=4\nsteps=99\nsteps=98\n\nP0:\n"),
        // ... and here the first.
        (RESPONSE, b"wo-serve/1 ok sc\noutcomes=2\ncomplete=true\nsteps=5\nsteps=6\ncache=hit\n"),
        (RESULTREF, b"wo-serve/2 resultref 4 2\nverdict=drf0\nsteps=3\nsteps=3\ncache=hit\nunmap_threads=\nunmap_locs=\n"),
        // A blank line followed by more lines.
        (RESPONSE, b"wo-serve/1 ok verdict\nverdict=drf0\n\nsteps=1\ncache=miss\nraces=0\n"),
        (RESULTREF, b"wo-serve/2 resultref 4 2\nverdict=drf0\n\nsteps=3\ncache=hit\nunmap_threads=\nunmap_locs=\n"),
        (ITEM, b"wo-serve/2 trace_open 1\nmode=drf0\n\nfuture=1\n"),
        // Race lines in an `sc` response, which declares no `races=`.
        (RESPONSE, b"wo-serve/1 ok sc\noutcomes=2\ncomplete=true\nsteps=5\ncache=hit\nrace=0 0 1 0 3\n"),
        // Bytes after `trace_finish`.
        (ITEM, b"wo-serve/2 trace_finish 1\n\nx"),
        (ITEM, b"wo-serve/2 trace_finish 1\ngarbage\n"),
        // No newline after a v1 first line.
        (REQUEST, b"wo-serve/1 ping"),
        (RESPONSE, b"wo-serve/1 ok pong"),
    ];

    #[test]
    fn input_accepted_before_the_shared_grammar_is_now_rejected() {
        for &((name, accepts), payload) in TIGHTENED {
            assert!(!accepts(payload), "{name}: {}", payload.escape_ascii());
        }
    }
}
