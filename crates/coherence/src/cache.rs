//! The per-processor cache controller.

use std::collections::HashMap;

use memory_model::{Loc, SyncOp, Value};

use crate::error::ProtocolError;
use crate::msg::{CacheToDir, DirToCache, RequestId};

/// The state of a line in a processor cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Not present.
    Invalid,
    /// Present read-only; other caches may hold copies.
    Shared,
    /// Present with exclusive (dirty) ownership.
    Exclusive,
}

/// A request the processor hands to its cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcRequest {
    /// Data load.
    Load {
        /// Location.
        loc: Loc,
        /// Request id for matching the completion event.
        req: RequestId,
    },
    /// Data store.
    Store {
        /// Location.
        loc: Loc,
        /// Value to store.
        value: Value,
        /// Request id.
        req: RequestId,
    },
    /// Synchronization access.
    Sync {
        /// Location.
        loc: Loc,
        /// The operation to perform at commit.
        op: SyncOp,
        /// Request id.
        req: RequestId,
        /// Whether the line must be procured in exclusive state. The base
        /// Section 5.3 implementation sets this for *every* sync op
        /// ("all synchronization operations are treated as writes by the
        /// coherence protocol"); the Section 6 optimization clears it for
        /// read-only `Test` operations.
        needs_exclusive: bool,
    },
}

impl ProcRequest {
    /// The accessed location.
    #[must_use]
    pub fn loc(&self) -> Loc {
        match self {
            ProcRequest::Load { loc, .. }
            | ProcRequest::Store { loc, .. }
            | ProcRequest::Sync { loc, .. } => *loc,
        }
    }

    /// The request id.
    #[must_use]
    pub fn req(&self) -> RequestId {
        match self {
            ProcRequest::Load { req, .. }
            | ProcRequest::Store { req, .. }
            | ProcRequest::Sync { req, .. } => *req,
        }
    }
}

/// Completion events the cache raises to its processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// A load returned its value (the load is both committed and globally
    /// performed: its value is bound).
    LoadDone {
        /// The originating request.
        req: RequestId,
        /// Location read.
        loc: Loc,
        /// Value returned.
        value: Value,
    },
    /// A store modified the local copy of the line — the paper's *commit*
    /// point for writes.
    StoreCommitted {
        /// The originating request.
        req: RequestId,
        /// Location written.
        loc: Loc,
    },
    /// All other copies of the line have acknowledged invalidation: the
    /// store is *globally performed*.
    StoreGloballyPerformed {
        /// The originating request.
        req: RequestId,
        /// Location written.
        loc: Loc,
    },
    /// A synchronization operation committed (the line was procured and
    /// the operation performed on the local copy); carries the value its
    /// read component returned, if any.
    SyncCommitted {
        /// The originating request.
        req: RequestId,
        /// Location accessed.
        loc: Loc,
        /// Value the read component returned (`None` for `Set`/`Unset`).
        read_value: Option<Value>,
    },
    /// The synchronization operation's write component is globally
    /// performed.
    SyncGloballyPerformed {
        /// The originating request.
        req: RequestId,
        /// Location accessed.
        loc: Loc,
    },
}

/// The immediate outcome of [`CacheController::access`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessResult {
    /// The access hit: these events fire now.
    Done(Vec<CacheEvent>),
    /// The access missed: send these messages to the directory; completion
    /// events arrive via [`CacheController::handle`].
    Miss(Vec<CacheToDir>),
    /// Another request is outstanding on the same line; the processor must
    /// retry later (an MSHR conflict — this preserves intra-processor
    /// dependences, condition 1 of Section 5.1).
    Blocked,
}

#[derive(Debug, Clone)]
struct Line {
    state: LineState,
    value: Value,
    reserved: bool,
}

#[derive(Debug, Clone, Copy)]
enum PendingAction {
    Load,
    Store(Value),
    Sync(SyncOp),
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: RequestId,
    action: PendingAction,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GpKind {
    Store,
    Sync,
}

/// One processor's cache: an unbounded map from locations to lines, plus
/// the miss-status bookkeeping to drive the directory protocol.
///
/// # Examples
///
/// ```
/// use coherence::{CacheController, AccessResult, ProcRequest, RequestId};
/// use memory_model::Loc;
///
/// let mut cache = CacheController::new();
/// // A cold load misses and produces a GetShared for the directory.
/// let r = cache.access(ProcRequest::Load { loc: Loc(0), req: RequestId(1) });
/// assert!(matches!(r, AccessResult::Miss(_)));
/// assert!(cache.has_pending(Loc(0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CacheController {
    lines: HashMap<Loc, Line>,
    pending: HashMap<Loc, Pending>,
    awaiting_gp: HashMap<RequestId, (Loc, GpKind)>,
    /// Maximum resident lines; `None` means unbounded.
    capacity: Option<usize>,
    lru: HashMap<Loc, u64>,
    lru_tick: u64,
    /// Evictions performed (write-backs + silent drops), for stats.
    evictions: u64,
    /// Section 5.3's queue alternative: instead of NACKing a recall of a
    /// reserved line, hold it and service it when the counter reads zero.
    defer_recalls: bool,
    deferred_recalls: Vec<Loc>,
}

impl CacheController {
    /// Creates an empty, unbounded cache.
    #[must_use]
    pub fn new() -> Self {
        CacheController::default()
    }

    /// Creates a cache bounded to `capacity` resident lines, with LRU
    /// replacement. A miss that would exceed the bound first evicts the
    /// least-recently-used unreserved, non-pending line (write-back if
    /// exclusive, silent drop if shared). If every line is reserved or
    /// pending, the access reports [`AccessResult::Blocked`] — the
    /// Section 5.3 rule that a reserved line is never flushed, with the
    /// processor stalling instead.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        CacheController { capacity: Some(capacity), ..CacheController::default() }
    }

    fn touch(&mut self, loc: Loc) {
        self.lru_tick += 1;
        self.lru.insert(loc, self.lru_tick);
    }

    /// Number of resident (non-invalid) lines.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.lines.values().filter(|l| l.state != LineState::Invalid).count()
    }

    /// Evictions performed so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Makes room for one incoming line. Returns the eviction messages to
    /// send, or `None` if no victim is available (caller must block).
    fn make_room(&mut self) -> Option<Vec<CacheToDir>> {
        let Some(capacity) = self.capacity else { return Some(Vec::new()) };
        if self.resident_lines() + self.pending.len() < capacity {
            return Some(Vec::new());
        }
        // LRU victim among resident, unreserved, non-pending lines.
        let victim = self
            .lines
            .iter()
            .filter(|(loc, line)| {
                line.state != LineState::Invalid
                    && !line.reserved
                    && !self.pending.contains_key(loc)
            })
            .min_by_key(|(loc, _)| self.lru.get(loc).copied().unwrap_or(0))
            .map(|(&loc, _)| loc)?;
        let line = self.lines.get_mut(&victim).expect("victim is resident");
        let msgs = if line.state == LineState::Exclusive {
            vec![CacheToDir::WriteBack { loc: victim, value: line.value }]
        } else {
            Vec::new() // shared copies drop silently
        };
        line.state = LineState::Invalid;
        self.lru.remove(&victim);
        self.evictions += 1;
        Some(msgs)
    }

    /// Services a processor request.
    pub fn access(&mut self, request: ProcRequest) -> AccessResult {
        let loc = request.loc();
        if self.pending.contains_key(&loc) {
            return AccessResult::Blocked;
        }
        let state = self.line_state(loc);
        match request {
            ProcRequest::Load { loc, req } => match state {
                LineState::Shared | LineState::Exclusive => {
                    self.touch(loc);
                    let value = self.lines[&loc].value;
                    AccessResult::Done(vec![CacheEvent::LoadDone { req, loc, value }])
                }
                LineState::Invalid => {
                    let Some(mut msgs) = self.make_room() else {
                        return AccessResult::Blocked;
                    };
                    self.pending.insert(loc, Pending { req, action: PendingAction::Load });
                    msgs.push(CacheToDir::GetShared { loc, req });
                    AccessResult::Miss(msgs)
                }
            },
            ProcRequest::Store { loc, value, req } => match state {
                LineState::Exclusive => {
                    self.touch(loc);
                    self.lines.get_mut(&loc).expect("exclusive implies present").value =
                        value;
                    AccessResult::Done(vec![
                        CacheEvent::StoreCommitted { req, loc },
                        CacheEvent::StoreGloballyPerformed { req, loc },
                    ])
                }
                LineState::Shared | LineState::Invalid => {
                    // An upgrade keeps its shared slot; a cold miss needs room.
                    let mut msgs = if state == LineState::Invalid {
                        let Some(msgs) = self.make_room() else {
                            return AccessResult::Blocked;
                        };
                        msgs
                    } else {
                        self.touch(loc);
                        Vec::new()
                    };
                    self.pending
                        .insert(loc, Pending { req, action: PendingAction::Store(value) });
                    msgs.push(CacheToDir::GetExclusive { loc, req });
                    AccessResult::Miss(msgs)
                }
            },
            ProcRequest::Sync { loc, op, req, needs_exclusive } => {
                let hit = match state {
                    LineState::Exclusive => true,
                    LineState::Shared => !needs_exclusive,
                    LineState::Invalid => false,
                };
                if hit {
                    self.touch(loc);
                    let read_value = self.apply_sync(loc, op);
                    return AccessResult::Done(vec![
                        CacheEvent::SyncCommitted { req, loc, read_value },
                        CacheEvent::SyncGloballyPerformed { req, loc },
                    ]);
                }
                let mut msgs = if state == LineState::Invalid {
                    let Some(msgs) = self.make_room() else {
                        return AccessResult::Blocked;
                    };
                    msgs
                } else {
                    self.touch(loc);
                    Vec::new()
                };
                self.pending.insert(loc, Pending { req, action: PendingAction::Sync(op) });
                msgs.push(if needs_exclusive {
                    CacheToDir::GetExclusive { loc, req }
                } else {
                    CacheToDir::GetShared { loc, req }
                });
                AccessResult::Miss(msgs)
            }
        }
    }

    /// Processes a directory message, returning completion events for the
    /// processor and reply messages for the directory.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] when the message violates the protocol
    /// — a data reply with no pending request, a global ack matching no
    /// awaited write, an invalidation of the exclusive owner. Under fault
    /// injection these abort the run with a structured diagnostic instead
    /// of a panic. Stale recalls and downgrades (the line is already
    /// gone, or a duplicate probe arrives after the first was serviced)
    /// are *not* errors: they are dropped, which is what makes
    /// [`DirToCache::Recall`]/[`DirToCache::Downgrade`] safe to
    /// duplicate.
    pub fn handle(
        &mut self,
        msg: DirToCache,
    ) -> Result<(Vec<CacheEvent>, Vec<CacheToDir>), ProtocolError> {
        let mut events = Vec::new();
        let mut replies = Vec::new();
        self.handle_into(msg, &mut events, &mut replies)?;
        Ok((events, replies))
    }

    /// [`CacheController::handle`] with caller-supplied output buffers, so
    /// a simulator processing millions of messages can reuse two
    /// allocations instead of paying for fresh `Vec`s per message. Events
    /// and replies are *appended*; the buffers are not cleared.
    ///
    /// # Errors
    ///
    /// Same contract as [`CacheController::handle`].
    pub fn handle_into(
        &mut self,
        msg: DirToCache,
        events: &mut Vec<CacheEvent>,
        replies: &mut Vec<CacheToDir>,
    ) -> Result<(), ProtocolError> {
        match msg {
            DirToCache::DataShared { loc, value, req } => {
                let Some(pending) = self.pending.get(&loc).copied() else {
                    return Err(ProtocolError::UnsolicitedData { loc, req });
                };
                if pending.req != req {
                    return Err(ProtocolError::WrongRequest {
                        loc,
                        expected: pending.req,
                        got: req,
                    });
                }
                if matches!(pending.action, PendingAction::Store(_)) {
                    return Err(ProtocolError::SharedDataForStore { loc, req });
                }
                self.pending.remove(&loc);
                self.touch(loc);
                self.lines
                    .insert(loc, Line { state: LineState::Shared, value, reserved: false });
                match pending.action {
                    PendingAction::Load => {
                        events.push(CacheEvent::LoadDone { req, loc, value });
                    }
                    PendingAction::Sync(op) => {
                        // Only read-only sync ops travel on GetShared.
                        debug_assert!(!op.kind().is_write());
                        let read_value = self.apply_sync(loc, op);
                        events.push(CacheEvent::SyncCommitted { req, loc, read_value });
                        events.push(CacheEvent::SyncGloballyPerformed { req, loc });
                    }
                    PendingAction::Store(_) => unreachable!("rejected above"),
                }
            }
            DirToCache::DataExclusive { loc, value, req, pending_acks } => {
                let Some(pending) = self.pending.get(&loc).copied() else {
                    return Err(ProtocolError::UnsolicitedData { loc, req });
                };
                if pending.req != req {
                    return Err(ProtocolError::WrongRequest {
                        loc,
                        expected: pending.req,
                        got: req,
                    });
                }
                if matches!(pending.action, PendingAction::Load) {
                    return Err(ProtocolError::ExclusiveDataForLoad { loc, req });
                }
                self.pending.remove(&loc);
                self.touch(loc);
                self.lines.insert(
                    loc,
                    Line { state: LineState::Exclusive, value, reserved: false },
                );
                match pending.action {
                    PendingAction::Store(v) => {
                        self.lines.get_mut(&loc).expect("just inserted").value = v;
                        events.push(CacheEvent::StoreCommitted { req, loc });
                        if pending_acks == 0 {
                            events.push(CacheEvent::StoreGloballyPerformed { req, loc });
                        } else {
                            self.awaiting_gp.insert(req, (loc, GpKind::Store));
                        }
                    }
                    PendingAction::Sync(op) => {
                        let read_value = self.apply_sync(loc, op);
                        events.push(CacheEvent::SyncCommitted { req, loc, read_value });
                        if pending_acks == 0 {
                            events.push(CacheEvent::SyncGloballyPerformed { req, loc });
                        } else {
                            self.awaiting_gp.insert(req, (loc, GpKind::Sync));
                        }
                    }
                    PendingAction::Load => unreachable!("rejected above"),
                }
            }
            DirToCache::Invalidate { loc, req } => {
                if let Some(line) = self.lines.get_mut(&loc) {
                    if line.state == LineState::Exclusive {
                        return Err(ProtocolError::InvalidateOfOwner { loc, req });
                    }
                    line.state = LineState::Invalid;
                }
                replies.push(CacheToDir::InvAck { loc, req });
            }
            DirToCache::GlobalAck { loc, req } => {
                let Some(&(gp_loc, kind)) = self.awaiting_gp.get(&req) else {
                    return Err(ProtocolError::UnexpectedGlobalAck { loc, req });
                };
                if gp_loc != loc {
                    return Err(ProtocolError::UnexpectedGlobalAck { loc, req });
                }
                self.awaiting_gp.remove(&req);
                events.push(match kind {
                    GpKind::Store => CacheEvent::StoreGloballyPerformed { req, loc },
                    GpKind::Sync => CacheEvent::SyncGloballyPerformed { req, loc },
                });
            }
            DirToCache::Recall { loc } => {
                match self.lines.get_mut(&loc) {
                    // Stale: the line was voluntarily written back (or a
                    // duplicate recall already took it) while this recall
                    // was in flight; the earlier reply completes the
                    // directory's transaction.
                    None => {}
                    Some(line)
                        if matches!(line.state, LineState::Invalid | LineState::Shared) => {}
                    Some(line) if line.reserved => {
                        if self.defer_recalls {
                            // Queue alternative: hold the recall; it is
                            // serviced when the counter reads zero. A
                            // duplicate recall must not queue twice — the
                            // directory expects exactly one reply.
                            if !self.deferred_recalls.contains(&loc) {
                                self.deferred_recalls.push(loc);
                            }
                        } else {
                            replies.push(CacheToDir::RecallNack { loc });
                        }
                    }
                    Some(line) => {
                        debug_assert_eq!(line.state, LineState::Exclusive);
                        let value = line.value;
                        line.state = LineState::Invalid;
                        self.lru.remove(&loc);
                        replies.push(CacheToDir::RecallAck { loc, value });
                    }
                }
            }
            DirToCache::Downgrade { loc } => {
                match self.lines.get_mut(&loc) {
                    None => {}
                    // A duplicate downgrade finds the line already shared:
                    // the first reply completed the transaction; drop it.
                    Some(line)
                        if matches!(line.state, LineState::Invalid | LineState::Shared) => {}
                    Some(line) if line.reserved => {
                        replies.push(CacheToDir::DowngradeNack { loc });
                    }
                    Some(line) => {
                        debug_assert_eq!(line.state, LineState::Exclusive);
                        line.state = LineState::Shared;
                        replies.push(CacheToDir::DowngradeAck { loc, value: line.value });
                    }
                }
            }
        }
        Ok(())
    }

    /// Rewinds the cache to the state [`CacheController::new`] (or
    /// [`CacheController::with_capacity`]) would build, keeping every map's
    /// allocation so one controller can be recycled across runs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `Some(0)`.
    pub fn reset(&mut self, capacity: Option<usize>) {
        assert!(capacity != Some(0), "cache capacity must be positive");
        self.lines.clear();
        self.pending.clear();
        self.awaiting_gp.clear();
        self.capacity = capacity;
        self.lru.clear();
        self.lru_tick = 0;
        self.evictions = 0;
        self.defer_recalls = false;
        self.deferred_recalls.clear();
    }

    fn apply_sync(&mut self, loc: Loc, op: SyncOp) -> Option<Value> {
        let line = self.lines.get_mut(&loc).expect("sync op on an absent line");
        let (read_value, left) = op.apply(line.value);
        line.value = left;
        read_value
    }

    /// The state of the line holding `loc`.
    #[must_use]
    pub fn line_state(&self, loc: Loc) -> LineState {
        self.lines.get(&loc).map_or(LineState::Invalid, |l| l.state)
    }

    /// The cached value of `loc`, if the line is present.
    #[must_use]
    pub fn cached_value(&self, loc: Loc) -> Option<Value> {
        self.lines
            .get(&loc)
            .filter(|l| l.state != LineState::Invalid)
            .map(|l| l.value)
    }

    /// Whether a request is outstanding on `loc`.
    #[must_use]
    pub fn has_pending(&self, loc: Loc) -> bool {
        self.pending.contains_key(&loc)
    }

    /// Selects Section 5.3's queue alternative for recalls of reserved
    /// lines: "a queue of stalled requests to be serviced when the counter
    /// reads zero" instead of "a negative ack … asking it to try again".
    /// Deferred recalls are released by [`CacheController::take_deferred_recalls`].
    pub fn set_defer_recalls(&mut self, defer: bool) {
        self.defer_recalls = defer;
    }

    /// Services every deferred recall (the counter has read zero and all
    /// reserve bits are cleared): invalidates each line and returns the
    /// [`CacheToDir::RecallAck`]s to deliver.
    ///
    /// # Panics
    ///
    /// Panics if a deferred line is still reserved — the caller must clear
    /// reserve bits first.
    pub fn take_deferred_recalls(&mut self) -> Vec<CacheToDir> {
        let locs = std::mem::take(&mut self.deferred_recalls);
        locs.into_iter()
            .map(|loc| {
                let line = self.lines.get_mut(&loc).expect("deferred line is resident");
                assert!(!line.reserved, "deferred recall of a still-reserved line");
                debug_assert_eq!(line.state, LineState::Exclusive);
                let value = line.value;
                line.state = LineState::Invalid;
                self.lru.remove(&loc);
                CacheToDir::RecallAck { loc, value }
            })
            .collect()
    }

    /// Sets or clears the reserve bit of `loc` (Section 5.3).
    ///
    /// # Panics
    ///
    /// Panics if the line is absent — only a line just procured in
    /// exclusive state for a synchronization operation is ever reserved.
    pub fn set_reserved(&mut self, loc: Loc, reserved: bool) {
        self.lines
            .get_mut(&loc)
            .expect("reserving an absent line")
            .reserved = reserved;
    }

    /// Whether `loc`'s reserve bit is set.
    #[must_use]
    pub fn is_reserved(&self, loc: Loc) -> bool {
        self.lines.get(&loc).is_some_and(|l| l.reserved)
    }

    /// Every line whose reserve bit is currently set, sorted — used by
    /// diagnostic dumps.
    #[must_use]
    pub fn reserved_lines(&self) -> Vec<Loc> {
        let mut locs: Vec<Loc> =
            self.lines.iter().filter(|(_, l)| l.reserved).map(|(loc, _)| *loc).collect();
        locs.sort_unstable_by_key(|l| l.0);
        locs
    }

    /// Clears every reserve bit — "all reserve bits are reset when the
    /// counter reads zero" (Section 5.3). The paper notes this does not
    /// require an associative clear in hardware (a small table suffices);
    /// the simulator just iterates.
    pub fn clear_all_reserved(&mut self) {
        for line in self.lines.values_mut() {
            line.reserved = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: Loc = Loc(3);

    fn filled_exclusive(value: Value) -> CacheController {
        let mut c = CacheController::new();
        let r = c.access(ProcRequest::Store { loc: L, value: 0, req: RequestId(0) });
        assert!(matches!(r, AccessResult::Miss(_)));
        let (ev, _) = c.handle(DirToCache::DataExclusive {
            loc: L,
            value,
            req: RequestId(0),
            pending_acks: 0,
        }).unwrap();
        assert_eq!(ev.len(), 2);
        c
    }

    #[test]
    fn cold_load_misses_then_completes() {
        let mut c = CacheController::new();
        let r = c.access(ProcRequest::Load { loc: L, req: RequestId(1) });
        let AccessResult::Miss(msgs) = r else { panic!("expected miss") };
        assert_eq!(msgs, vec![CacheToDir::GetShared { loc: L, req: RequestId(1) }]);
        let (ev, replies) =
            c.handle(DirToCache::DataShared { loc: L, value: 9, req: RequestId(1) }).unwrap();
        assert_eq!(ev, vec![CacheEvent::LoadDone { req: RequestId(1), loc: L, value: 9 }]);
        assert!(replies.is_empty());
        assert_eq!(c.line_state(L), LineState::Shared);
        assert_eq!(c.cached_value(L), Some(9));
    }

    #[test]
    fn load_hit_is_immediate() {
        let mut c = filled_exclusive(5);
        let r = c.access(ProcRequest::Load { loc: L, req: RequestId(2) });
        let AccessResult::Done(ev) = r else { panic!("expected hit") };
        assert_eq!(ev, vec![CacheEvent::LoadDone { req: RequestId(2), loc: L, value: 0 }]);
    }

    #[test]
    fn store_to_exclusive_commits_and_globally_performs_at_once() {
        let mut c = filled_exclusive(5);
        let r = c.access(ProcRequest::Store { loc: L, value: 7, req: RequestId(2) });
        let AccessResult::Done(ev) = r else { panic!("expected hit") };
        assert_eq!(
            ev,
            vec![
                CacheEvent::StoreCommitted { req: RequestId(2), loc: L },
                CacheEvent::StoreGloballyPerformed { req: RequestId(2), loc: L },
            ]
        );
        assert_eq!(c.cached_value(L), Some(7));
    }

    #[test]
    fn store_with_pending_invals_commits_before_global_perform() {
        let mut c = CacheController::new();
        c.access(ProcRequest::Store { loc: L, value: 7, req: RequestId(1) });
        let (ev, _) = c.handle(DirToCache::DataExclusive {
            loc: L,
            value: 0,
            req: RequestId(1),
            pending_acks: 2,
        }).unwrap();
        // Committed — the local copy is modified — but not globally performed.
        assert_eq!(ev, vec![CacheEvent::StoreCommitted { req: RequestId(1), loc: L }]);
        assert_eq!(c.cached_value(L), Some(7), "commit = local copy modified");
        let (ev, _) = c.handle(DirToCache::GlobalAck { loc: L, req: RequestId(1) }).unwrap();
        assert_eq!(
            ev,
            vec![CacheEvent::StoreGloballyPerformed { req: RequestId(1), loc: L }]
        );
    }

    #[test]
    fn second_access_to_pending_line_blocks() {
        let mut c = CacheController::new();
        c.access(ProcRequest::Load { loc: L, req: RequestId(1) });
        let r = c.access(ProcRequest::Load { loc: L, req: RequestId(2) });
        assert_eq!(r, AccessResult::Blocked);
    }

    #[test]
    fn invalidate_clears_line_and_acks() {
        let mut c = CacheController::new();
        c.access(ProcRequest::Load { loc: L, req: RequestId(1) });
        c.handle(DirToCache::DataShared { loc: L, value: 9, req: RequestId(1) }).unwrap();
        let (ev, replies) = c.handle(DirToCache::Invalidate { loc: L, req: RequestId(7) }).unwrap();
        assert!(ev.is_empty());
        assert_eq!(replies, vec![CacheToDir::InvAck { loc: L, req: RequestId(7) }]);
        assert_eq!(c.line_state(L), LineState::Invalid);
    }

    #[test]
    fn test_and_set_on_exclusive_hit_is_atomic() {
        let mut c = filled_exclusive(0);
        let r = c.access(ProcRequest::Sync {
            loc: L,
            op: SyncOp::TestAndSet,
            req: RequestId(2),
            needs_exclusive: true,
        });
        let AccessResult::Done(ev) = r else { panic!("expected hit") };
        assert_eq!(
            ev[0],
            CacheEvent::SyncCommitted { req: RequestId(2), loc: L, read_value: Some(0) }
        );
        assert_eq!(c.cached_value(L), Some(1));
    }

    #[test]
    fn sync_miss_requests_exclusive() {
        let mut c = CacheController::new();
        let r = c.access(ProcRequest::Sync {
            loc: L,
            op: SyncOp::SetTo(0),
            req: RequestId(1),
            needs_exclusive: true,
        });
        let AccessResult::Miss(msgs) = r else { panic!("expected miss") };
        assert_eq!(
            msgs,
            vec![CacheToDir::GetExclusive { loc: L, req: RequestId(1) }]
        );
        let (ev, _) = c.handle(DirToCache::DataExclusive {
            loc: L,
            value: 1,
            req: RequestId(1),
            pending_acks: 0,
        }).unwrap();
        assert_eq!(
            ev,
            vec![
                CacheEvent::SyncCommitted { req: RequestId(1), loc: L, read_value: None },
                CacheEvent::SyncGloballyPerformed { req: RequestId(1), loc: L },
            ]
        );
        assert_eq!(c.cached_value(L), Some(0), "Unset applied at commit");
    }

    #[test]
    fn read_only_sync_can_ride_shared_when_optimized() {
        let mut c = CacheController::new();
        let r = c.access(ProcRequest::Sync {
            loc: L,
            op: SyncOp::Test,
            req: RequestId(1),
            needs_exclusive: false,
        });
        let AccessResult::Miss(msgs) = r else { panic!("expected miss") };
        assert_eq!(msgs, vec![CacheToDir::GetShared { loc: L, req: RequestId(1) }]);
        let (ev, _) = c.handle(DirToCache::DataShared { loc: L, value: 4, req: RequestId(1) }).unwrap();
        assert_eq!(
            ev[0],
            CacheEvent::SyncCommitted { req: RequestId(1), loc: L, read_value: Some(4) }
        );
    }

    #[test]
    fn recall_of_unreserved_line_acks_with_value() {
        let mut c = filled_exclusive(0);
        c.access(ProcRequest::Store { loc: L, value: 42, req: RequestId(2) });
        let (_, replies) = c.handle(DirToCache::Recall { loc: L }).unwrap();
        assert_eq!(replies, vec![CacheToDir::RecallAck { loc: L, value: 42 }]);
        assert_eq!(c.line_state(L), LineState::Invalid);
    }

    #[test]
    fn deferred_recall_is_queued_and_released_at_counter_zero() {
        let mut c = filled_exclusive(0);
        c.set_defer_recalls(true);
        c.set_reserved(L, true);
        let (_, replies) = c.handle(DirToCache::Recall { loc: L }).unwrap();
        assert!(replies.is_empty(), "queued, not nacked");
        assert_eq!(c.line_state(L), LineState::Exclusive);
        // Counter reads zero: reserve clears, the queue drains.
        c.clear_all_reserved();
        let replies = c.take_deferred_recalls();
        assert_eq!(replies, vec![CacheToDir::RecallAck { loc: L, value: 0 }]);
        assert_eq!(c.line_state(L), LineState::Invalid);
        assert!(c.take_deferred_recalls().is_empty(), "queue drained once");
    }

    #[test]
    fn duplicate_recall_defers_only_once() {
        // A fault-injected interconnect may duplicate a recall; the queue
        // alternative must still send the directory exactly one reply.
        let mut c = filled_exclusive(0);
        c.set_defer_recalls(true);
        c.set_reserved(L, true);
        let (_, replies) = c.handle(DirToCache::Recall { loc: L }).unwrap();
        assert!(replies.is_empty());
        let (_, replies) = c.handle(DirToCache::Recall { loc: L }).unwrap();
        assert!(replies.is_empty(), "duplicate is absorbed");
        c.clear_all_reserved();
        let replies = c.take_deferred_recalls();
        assert_eq!(replies, vec![CacheToDir::RecallAck { loc: L, value: 0 }]);
    }

    #[test]
    fn recall_of_reserved_line_nacks() {
        let mut c = filled_exclusive(0);
        c.set_reserved(L, true);
        assert!(c.is_reserved(L));
        let (_, replies) = c.handle(DirToCache::Recall { loc: L }).unwrap();
        assert_eq!(replies, vec![CacheToDir::RecallNack { loc: L }]);
        assert_eq!(c.line_state(L), LineState::Exclusive, "reserved line stays");
        c.clear_all_reserved();
        let (_, replies) = c.handle(DirToCache::Recall { loc: L }).unwrap();
        assert!(matches!(replies[0], CacheToDir::RecallAck { .. }));
    }

    #[test]
    fn downgrade_keeps_shared_copy() {
        let mut c = filled_exclusive(0);
        c.access(ProcRequest::Store { loc: L, value: 8, req: RequestId(2) });
        let (_, replies) = c.handle(DirToCache::Downgrade { loc: L }).unwrap();
        assert_eq!(replies, vec![CacheToDir::DowngradeAck { loc: L, value: 8 }]);
        assert_eq!(c.line_state(L), LineState::Shared);
        assert_eq!(c.cached_value(L), Some(8));
    }

    #[test]
    fn downgrade_of_reserved_line_nacks() {
        let mut c = filled_exclusive(0);
        c.set_reserved(L, true);
        let (_, replies) = c.handle(DirToCache::Downgrade { loc: L }).unwrap();
        assert_eq!(replies, vec![CacheToDir::DowngradeNack { loc: L }]);
    }

    #[test]
    fn capacity_evicts_lru_shared_line_silently() {
        let mut c = CacheController::with_capacity(2);
        // Fill with two shared lines.
        for (i, loc) in [Loc(1), Loc(2)].into_iter().enumerate() {
            c.access(ProcRequest::Load { loc, req: RequestId(i as u64) });
            c.handle(DirToCache::DataShared { loc, value: 0, req: RequestId(i as u64) }).unwrap();
        }
        assert_eq!(c.resident_lines(), 2);
        // Touch Loc(1) so Loc(2) is the LRU victim.
        c.access(ProcRequest::Load { loc: Loc(1), req: RequestId(10) });
        let r = c.access(ProcRequest::Load { loc: Loc(3), req: RequestId(11) });
        let AccessResult::Miss(msgs) = r else { panic!("expected miss") };
        // Silent drop: only the GetShared goes out.
        assert_eq!(msgs, vec![CacheToDir::GetShared { loc: Loc(3), req: RequestId(11) }]);
        assert_eq!(c.line_state(Loc(2)), LineState::Invalid);
        assert_eq!(c.line_state(Loc(1)), LineState::Shared);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn capacity_evicts_exclusive_line_with_writeback() {
        let mut c = CacheController::with_capacity(1);
        c.access(ProcRequest::Store { loc: Loc(1), value: 9, req: RequestId(0) });
        c.handle(DirToCache::DataExclusive {
            loc: Loc(1),
            value: 0,
            req: RequestId(0),
            pending_acks: 0,
        }).unwrap();
        let r = c.access(ProcRequest::Load { loc: Loc(2), req: RequestId(1) });
        let AccessResult::Miss(msgs) = r else { panic!("expected miss") };
        assert_eq!(
            msgs,
            vec![
                CacheToDir::WriteBack { loc: Loc(1), value: 9 },
                CacheToDir::GetShared { loc: Loc(2), req: RequestId(1) },
            ]
        );
        assert_eq!(c.line_state(Loc(1)), LineState::Invalid);
    }

    #[test]
    fn reserved_line_is_never_evicted() {
        let mut c = CacheController::with_capacity(1);
        c.access(ProcRequest::Store { loc: Loc(1), value: 9, req: RequestId(0) });
        c.handle(DirToCache::DataExclusive {
            loc: Loc(1),
            value: 0,
            req: RequestId(0),
            pending_acks: 0,
        }).unwrap();
        c.set_reserved(Loc(1), true);
        // The only line is reserved: the access must block, not flush.
        let r = c.access(ProcRequest::Load { loc: Loc(2), req: RequestId(1) });
        assert_eq!(r, AccessResult::Blocked);
        // Counter reads zero -> reserve clears -> the retry evicts.
        c.clear_all_reserved();
        let r = c.access(ProcRequest::Load { loc: Loc(2), req: RequestId(1) });
        assert!(matches!(r, AccessResult::Miss(_)));
    }

    #[test]
    fn stale_recall_after_eviction_is_ignored() {
        let mut c = CacheController::with_capacity(1);
        c.access(ProcRequest::Store { loc: Loc(1), value: 9, req: RequestId(0) });
        c.handle(DirToCache::DataExclusive {
            loc: Loc(1),
            value: 0,
            req: RequestId(0),
            pending_acks: 0,
        }).unwrap();
        // Evict Loc(1) by touching Loc(2).
        c.access(ProcRequest::Load { loc: Loc(2), req: RequestId(1) });
        // A recall for the evicted line crosses the write-back: ignore.
        let (ev, replies) = c.handle(DirToCache::Recall { loc: Loc(1) }).unwrap();
        assert!(ev.is_empty());
        assert!(replies.is_empty());
        let (_, replies) = c.handle(DirToCache::Downgrade { loc: Loc(1) }).unwrap();
        assert!(replies.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = CacheController::with_capacity(0);
    }

    #[test]
    fn fetch_add_returns_old_value() {
        let mut c = filled_exclusive(0);
        c.access(ProcRequest::Store { loc: L, value: 10, req: RequestId(2) });
        let r = c.access(ProcRequest::Sync {
            loc: L,
            op: SyncOp::FetchAdd(5),
            req: RequestId(3),
            needs_exclusive: true,
        });
        let AccessResult::Done(ev) = r else { panic!("expected hit") };
        assert_eq!(
            ev[0],
            CacheEvent::SyncCommitted { req: RequestId(3), loc: L, read_value: Some(10) }
        );
        assert_eq!(c.cached_value(L), Some(15));
    }
}
