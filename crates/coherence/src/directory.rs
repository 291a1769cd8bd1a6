//! The directory controller.

use std::collections::{BTreeSet, HashMap, VecDeque};

use memory_model::{Loc, Memory, ProcId, Value};

use crate::error::ProtocolError;
use crate::msg::{CacheToDir, DirToCache, RequestId};

#[derive(Debug, Clone)]
enum DirState {
    Uncached,
    Shared(BTreeSet<ProcId>),
    Exclusive(ProcId),
}

#[derive(Debug, Clone)]
struct DirLine {
    state: DirState,
    value: Value,
}

#[derive(Debug, Clone)]
#[allow(clippy::enum_variant_names)] // the Await- prefix is the point: each names what is awaited
enum Busy {
    /// A recall was sent to the owner on behalf of `requester`'s exclusive
    /// request.
    AwaitRecall { owner: ProcId, requester: ProcId, req: RequestId },
    /// A downgrade was sent to the owner on behalf of `requester`'s shared
    /// request.
    AwaitDowngrade { owner: ProcId, requester: ProcId, req: RequestId },
    /// Invalidations are outstanding for `writer`'s write.
    AwaitInvAcks { writer: ProcId, req: RequestId, remaining: u32 },
}

/// Aggregate protocol counters, for the benchmark harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    /// GetShared requests processed (not counting queue time).
    pub get_shared: u64,
    /// GetExclusive requests processed.
    pub get_exclusive: u64,
    /// Invalidations dispatched.
    pub invalidations: u64,
    /// Recalls dispatched (including retries after a nack).
    pub recalls: u64,
    /// Downgrades dispatched (including retries).
    pub downgrades: u64,
    /// Nacks received from reserved lines.
    pub nacks: u64,
    /// Requests that had to queue behind a busy line.
    pub deferred: u64,
    /// Voluntary write-backs received (cache evictions).
    pub writebacks: u64,
}

/// The directory: global line state, invalidation-acknowledgement
/// collection, and per-line serialization of transactions.
///
/// One transaction per line is in flight at a time; requests arriving for
/// a busy line queue FIFO. This is what gives Section 5.1's conditions 2
/// and 3 (total commit order of writes / synchronization operations per
/// location) directly.
///
/// # Examples
///
/// ```
/// use coherence::{Directory, CacheToDir, DirToCache, RequestId};
/// use memory_model::{Loc, Memory, ProcId};
///
/// let mut dir = Directory::new(Memory::new());
/// let out = dir.handle(
///     ProcId(0),
///     CacheToDir::GetExclusive { loc: Loc(0), req: RequestId(1) },
/// ).unwrap();
/// assert_eq!(out, vec![(ProcId(0), DirToCache::DataExclusive {
///     loc: Loc(0), value: 0, req: RequestId(1), pending_acks: 0,
/// })]);
/// ```
#[derive(Debug, Clone)]
pub struct Directory {
    lines: HashMap<Loc, DirLine>,
    busy: HashMap<Loc, Busy>,
    queue: HashMap<Loc, VecDeque<(ProcId, CacheToDir)>>,
    /// Consecutive NACKed probes per busy line — the machine layer reads
    /// this to apply backoff and enforce a retry budget.
    retries: HashMap<Loc, u32>,
    initial: Memory,
    stats: DirectoryStats,
}

impl Directory {
    /// Creates a directory backed by the given initial memory image.
    #[must_use]
    pub fn new(initial: Memory) -> Self {
        Directory {
            lines: HashMap::new(),
            busy: HashMap::new(),
            queue: HashMap::new(),
            retries: HashMap::new(),
            initial,
            stats: DirectoryStats::default(),
        }
    }

    /// Processes one cache message, returning the messages to deliver.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] when the message violates the protocol
    /// — an acknowledgement with no matching transaction, a write-back
    /// from a non-owner. Under fault injection these abort the run with a
    /// structured diagnostic instead of a panic.
    pub fn handle(
        &mut self,
        from: ProcId,
        msg: CacheToDir,
    ) -> Result<Vec<(ProcId, DirToCache)>, ProtocolError> {
        let mut out = Vec::new();
        self.handle_into(from, msg, &mut out)?;
        Ok(out)
    }

    /// [`Directory::handle`] with a caller-supplied output buffer, so a
    /// simulator processing millions of messages can reuse one allocation
    /// instead of paying for a fresh `Vec` per message. Replies are
    /// *appended*; the buffer is not cleared.
    ///
    /// # Errors
    ///
    /// Same contract as [`Directory::handle`].
    pub fn handle_into(
        &mut self,
        from: ProcId,
        msg: CacheToDir,
        out: &mut Vec<(ProcId, DirToCache)>,
    ) -> Result<(), ProtocolError> {
        self.dispatch(from, msg, out)
    }

    /// Rewinds the directory to the state [`Directory::new`] would build
    /// over `initial`, keeping every map's allocation so one directory can
    /// be recycled across runs.
    pub fn reset(&mut self, initial: Memory) {
        self.lines.clear();
        self.busy.clear();
        self.queue.clear();
        self.retries.clear();
        self.initial = initial;
        self.stats = DirectoryStats::default();
    }

    /// Takes the protocol counters, leaving zeroes — for result assembly
    /// on a machine that will be reset before its next run.
    pub fn take_stats(&mut self) -> DirectoryStats {
        std::mem::take(&mut self.stats)
    }

    fn dispatch(
        &mut self,
        from: ProcId,
        msg: CacheToDir,
        out: &mut Vec<(ProcId, DirToCache)>,
    ) -> Result<(), ProtocolError> {
        let loc = msg.loc();
        match msg {
            CacheToDir::GetShared { .. } | CacheToDir::GetExclusive { .. } => {
                if self.busy.contains_key(&loc) {
                    self.stats.deferred += 1;
                    self.queue.entry(loc).or_default().push_back((from, msg));
                } else {
                    self.service(from, msg, out);
                }
            }
            CacheToDir::InvAck { loc, req } => {
                let done = match self.busy.get_mut(&loc) {
                    Some(Busy::AwaitInvAcks { writer, req: wreq, remaining }) => {
                        if *wreq != req {
                            return Err(ProtocolError::StrayInvAck { loc, req });
                        }
                        *remaining -= 1;
                        (*remaining == 0).then_some(*writer)
                    }
                    _ => return Err(ProtocolError::StrayInvAck { loc, req }),
                };
                if let Some(writer) = done {
                    self.busy.remove(&loc);
                    out.push((writer, DirToCache::GlobalAck { loc, req }));
                    self.drain_queue(loc, out);
                }
            }
            CacheToDir::RecallAck { loc, value } => {
                let Some(Busy::AwaitRecall { owner, requester, req }) =
                    self.busy.remove(&loc)
                else {
                    return Err(ProtocolError::StrayRecallReply { loc });
                };
                if owner != from {
                    return Err(ProtocolError::StrayRecallReply { loc });
                }
                self.retries.remove(&loc);
                let line = self.line_mut(loc);
                line.value = value;
                line.state = DirState::Exclusive(requester);
                out.push((
                    requester,
                    DirToCache::DataExclusive { loc, value, req, pending_acks: 0 },
                ));
                self.drain_queue(loc, out);
            }
            CacheToDir::RecallNack { loc } => {
                let Some(Busy::AwaitRecall { owner, .. }) = self.busy.get(&loc) else {
                    return Err(ProtocolError::StrayRecallReply { loc });
                };
                // The owner's line is reserved: retry. Each retry traverses
                // the interconnect, so in simulated time this polls until
                // the owner's counter reads zero (Section 5.3).
                self.stats.nacks += 1;
                self.stats.recalls += 1;
                *self.retries.entry(loc).or_insert(0) += 1;
                out.push((*owner, DirToCache::Recall { loc }));
            }
            CacheToDir::DowngradeAck { loc, value } => {
                let Some(Busy::AwaitDowngrade { owner, requester, req }) =
                    self.busy.remove(&loc)
                else {
                    return Err(ProtocolError::StrayDowngradeReply { loc });
                };
                self.retries.remove(&loc);
                let line = self.line_mut(loc);
                line.value = value;
                let mut sharers = BTreeSet::new();
                sharers.insert(owner);
                sharers.insert(requester);
                line.state = DirState::Shared(sharers);
                out.push((requester, DirToCache::DataShared { loc, value, req }));
                self.drain_queue(loc, out);
            }
            CacheToDir::DowngradeNack { loc } => {
                let Some(Busy::AwaitDowngrade { owner, .. }) = self.busy.get(&loc) else {
                    return Err(ProtocolError::StrayDowngradeReply { loc });
                };
                self.stats.nacks += 1;
                self.stats.downgrades += 1;
                *self.retries.entry(loc).or_insert(0) += 1;
                out.push((*owner, DirToCache::Downgrade { loc }));
            }
            CacheToDir::WriteBack { loc, value } => {
                self.stats.writebacks += 1;
                // A voluntary write-back may cross a recall or downgrade we
                // sent to the same owner; it answers that transaction.
                match self.busy.get(&loc) {
                    Some(Busy::AwaitRecall { owner, requester, req })
                        if *owner == from =>
                    {
                        let (requester, req) = (*requester, *req);
                        self.busy.remove(&loc);
                        self.retries.remove(&loc);
                        let line = self.line_mut(loc);
                        line.value = value;
                        line.state = DirState::Exclusive(requester);
                        out.push((
                            requester,
                            DirToCache::DataExclusive { loc, value, req, pending_acks: 0 },
                        ));
                        self.drain_queue(loc, out);
                    }
                    Some(Busy::AwaitDowngrade { owner, requester, req })
                        if *owner == from =>
                    {
                        let (requester, req) = (*requester, *req);
                        self.busy.remove(&loc);
                        self.retries.remove(&loc);
                        let line = self.line_mut(loc);
                        line.value = value;
                        // The evicting owner kept no copy; only the
                        // requester shares the line now.
                        line.state = DirState::Shared([requester].into_iter().collect());
                        out.push((requester, DirToCache::DataShared { loc, value, req }));
                        self.drain_queue(loc, out);
                    }
                    _ => {
                        // Plain eviction: the line returns home. (The owner
                        // may still have an invalidation round in flight for
                        // it — AwaitInvAcks proceeds untouched; global
                        // perform is about the *write*, not line residence.)
                        let line = self.line_mut(loc);
                        if !matches!(line.state, DirState::Exclusive(o) if o == from) {
                            return Err(ProtocolError::ForeignWriteBack { loc, from });
                        }
                        line.value = value;
                        line.state = DirState::Uncached;
                    }
                }
            }
        }
        Ok(())
    }

    fn service(
        &mut self,
        from: ProcId,
        msg: CacheToDir,
        out: &mut Vec<(ProcId, DirToCache)>,
    ) {
        let loc = msg.loc();
        match msg {
            CacheToDir::GetShared { req, .. } => {
                self.stats.get_shared += 1;
                let line = self.line_mut(loc);
                match &mut line.state {
                    DirState::Uncached => {
                        line.state = DirState::Shared([from].into_iter().collect());
                        let value = line.value;
                        out.push((from, DirToCache::DataShared { loc, value, req }));
                    }
                    DirState::Shared(sharers) => {
                        sharers.insert(from);
                        let value = line.value;
                        out.push((from, DirToCache::DataShared { loc, value, req }));
                    }
                    DirState::Exclusive(owner) => {
                        let owner = *owner;
                        debug_assert_ne!(owner, from, "owner cannot read-miss");
                        self.busy.insert(
                            loc,
                            Busy::AwaitDowngrade { owner, requester: from, req },
                        );
                        self.stats.downgrades += 1;
                        out.push((owner, DirToCache::Downgrade { loc }));
                    }
                }
            }
            CacheToDir::GetExclusive { req, .. } => {
                self.stats.get_exclusive += 1;
                let line = self.line_mut(loc);
                match line.state.clone() {
                    DirState::Uncached => {
                        line.state = DirState::Exclusive(from);
                        let value = line.value;
                        out.push((
                            from,
                            DirToCache::DataExclusive { loc, value, req, pending_acks: 0 },
                        ));
                    }
                    DirState::Shared(sharers) => {
                        let others: Vec<ProcId> =
                            sharers.iter().copied().filter(|&p| p != from).collect();
                        line.state = DirState::Exclusive(from);
                        let value = line.value;
                        let n = others.len() as u32;
                        // The line is forwarded to the requester IN PARALLEL
                        // with the invalidations (Section 5.2).
                        out.push((
                            from,
                            DirToCache::DataExclusive { loc, value, req, pending_acks: n },
                        ));
                        if n > 0 {
                            self.busy.insert(
                                loc,
                                Busy::AwaitInvAcks { writer: from, req, remaining: n },
                            );
                            for p in others {
                                self.stats.invalidations += 1;
                                out.push((p, DirToCache::Invalidate { loc, req }));
                            }
                        }
                    }
                    DirState::Exclusive(owner) => {
                        debug_assert_ne!(owner, from, "owner cannot write-miss");
                        self.busy.insert(
                            loc,
                            Busy::AwaitRecall { owner, requester: from, req },
                        );
                        self.stats.recalls += 1;
                        out.push((owner, DirToCache::Recall { loc }));
                    }
                }
            }
            _ => unreachable!("service only handles Get* requests"),
        }
    }

    fn drain_queue(&mut self, loc: Loc, out: &mut Vec<(ProcId, DirToCache)>) {
        while !self.busy.contains_key(&loc) {
            let Some(queue) = self.queue.get_mut(&loc) else { return };
            let Some((from, msg)) = queue.pop_front() else { return };
            self.service(from, msg, out);
        }
    }

    fn line_mut(&mut self, loc: Loc) -> &mut DirLine {
        let initial = self.initial.read(loc);
        self.lines
            .entry(loc)
            .or_insert_with(|| DirLine { state: DirState::Uncached, value: initial })
    }

    /// The memory-side value of `loc` (stale while a processor holds the
    /// line exclusive, exactly as in real hardware).
    #[must_use]
    pub fn memory_value(&self, loc: Loc) -> Value {
        self.lines
            .get(&loc)
            .map_or_else(|| self.initial.read(loc), |l| l.value)
    }

    /// Whether a transaction is in flight for `loc`.
    #[must_use]
    pub fn is_busy(&self, loc: Loc) -> bool {
        self.busy.contains_key(&loc)
    }

    /// Number of requests queued behind busy lines.
    #[must_use]
    pub fn queued_requests(&self) -> usize {
        self.queue.values().map(VecDeque::len).sum()
    }

    /// Lines with a transaction in flight, sorted — for diagnostic dumps.
    #[must_use]
    pub fn busy_lines(&self) -> Vec<Loc> {
        let mut locs: Vec<Loc> = self.busy.keys().copied().collect();
        locs.sort_unstable();
        locs
    }

    /// Consecutive NACKed recall/downgrade probes for `loc`'s current
    /// transaction. The machine layer uses this to pace retries
    /// (exponential backoff) and abort NACK storms that exceed a budget.
    #[must_use]
    pub fn nack_retries(&self, loc: Loc) -> u32 {
        self.retries.get(&loc).copied().unwrap_or(0)
    }

    /// Protocol counters.
    #[must_use]
    pub fn stats(&self) -> &DirectoryStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: Loc = Loc(0);

    fn getx(req: u64) -> CacheToDir {
        CacheToDir::GetExclusive { loc: L, req: RequestId(req) }
    }

    fn gets(req: u64) -> CacheToDir {
        CacheToDir::GetShared { loc: L, req: RequestId(req) }
    }

    #[test]
    fn uncached_reads_and_writes_are_immediate() {
        let mut dir = Directory::new(Memory::new());
        let out = dir.handle(ProcId(0), gets(1)).unwrap();
        assert_eq!(
            out,
            vec![(ProcId(0), DirToCache::DataShared { loc: L, value: 0, req: RequestId(1) })]
        );
        let mut dir = Directory::new(Memory::new());
        let out = dir.handle(ProcId(0), getx(1)).unwrap();
        assert!(matches!(out[0].1, DirToCache::DataExclusive { pending_acks: 0, .. }));
    }

    #[test]
    fn write_to_shared_line_forwards_data_in_parallel_with_invals() {
        let mut dir = Directory::new(Memory::new());
        dir.handle(ProcId(0), gets(1)).unwrap();
        dir.handle(ProcId(1), gets(2)).unwrap();
        let out = dir.handle(ProcId(2), getx(3)).unwrap();
        // Data goes to P2 immediately; invalidations to P0 and P1.
        assert_eq!(out.len(), 3);
        assert_eq!(
            out[0],
            (
                ProcId(2),
                DirToCache::DataExclusive {
                    loc: L,
                    value: 0,
                    req: RequestId(3),
                    pending_acks: 2
                }
            )
        );
        assert!(out[1..]
            .iter()
            .all(|(_, m)| matches!(m, DirToCache::Invalidate { .. })));
        assert!(dir.is_busy(L));
        // Acks arrive; the final GlobalAck goes to the writer.
        assert!(dir.handle(ProcId(0), CacheToDir::InvAck { loc: L, req: RequestId(3) }).unwrap().is_empty());
        let out = dir.handle(ProcId(1), CacheToDir::InvAck { loc: L, req: RequestId(3) }).unwrap();
        assert_eq!(out, vec![(ProcId(2), DirToCache::GlobalAck { loc: L, req: RequestId(3) })]);
        assert!(!dir.is_busy(L));
    }

    #[test]
    fn writer_already_sharing_is_not_invalidated() {
        let mut dir = Directory::new(Memory::new());
        dir.handle(ProcId(0), gets(1)).unwrap();
        let out = dir.handle(ProcId(0), getx(2)).unwrap();
        assert!(matches!(out[0].1, DirToCache::DataExclusive { pending_acks: 0, .. }));
        assert!(!dir.is_busy(L));
    }

    #[test]
    fn exclusive_line_is_recalled_for_a_new_writer() {
        let mut dir = Directory::new(Memory::new());
        dir.handle(ProcId(0), getx(1)).unwrap();
        let out = dir.handle(ProcId(1), getx(2)).unwrap();
        assert_eq!(out, vec![(ProcId(0), DirToCache::Recall { loc: L })]);
        let out = dir.handle(ProcId(0), CacheToDir::RecallAck { loc: L, value: 42 }).unwrap();
        assert_eq!(
            out,
            vec![(
                ProcId(1),
                DirToCache::DataExclusive {
                    loc: L,
                    value: 42,
                    req: RequestId(2),
                    pending_acks: 0
                }
            )]
        );
        assert_eq!(dir.memory_value(L), 42);
    }

    #[test]
    fn recall_nack_retries() {
        let mut dir = Directory::new(Memory::new());
        dir.handle(ProcId(0), getx(1)).unwrap();
        dir.handle(ProcId(1), getx(2)).unwrap();
        let out = dir.handle(ProcId(0), CacheToDir::RecallNack { loc: L }).unwrap();
        assert_eq!(out, vec![(ProcId(0), DirToCache::Recall { loc: L })]);
        assert_eq!(dir.stats().nacks, 1);
        assert!(dir.is_busy(L));
    }

    #[test]
    fn exclusive_line_is_downgraded_for_a_reader() {
        let mut dir = Directory::new(Memory::new());
        dir.handle(ProcId(0), getx(1)).unwrap();
        let out = dir.handle(ProcId(1), gets(2)).unwrap();
        assert_eq!(out, vec![(ProcId(0), DirToCache::Downgrade { loc: L })]);
        let out = dir.handle(ProcId(0), CacheToDir::DowngradeAck { loc: L, value: 7 }).unwrap();
        assert_eq!(
            out,
            vec![(ProcId(1), DirToCache::DataShared { loc: L, value: 7, req: RequestId(2) })]
        );
    }

    #[test]
    fn requests_to_a_busy_line_queue_fifo() {
        let mut dir = Directory::new(Memory::new());
        dir.handle(ProcId(0), getx(1)).unwrap();
        dir.handle(ProcId(1), getx(2)).unwrap(); // recall in flight -> busy
        assert!(dir.handle(ProcId(2), getx(3)).unwrap().is_empty()); // queued
        assert!(dir.handle(ProcId(3), gets(4)).unwrap().is_empty()); // queued
        assert_eq!(dir.queued_requests(), 2);
        assert_eq!(dir.stats().deferred, 2);

        // Owner acks the recall: P1 gets the line, then P2's queued GetX
        // immediately recalls from P1.
        let out = dir.handle(ProcId(0), CacheToDir::RecallAck { loc: L, value: 5 }).unwrap();
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], (ProcId(1), DirToCache::DataExclusive { .. })));
        assert_eq!(out[1], (ProcId(1), DirToCache::Recall { loc: L }));
        assert_eq!(dir.queued_requests(), 1);
    }

    #[test]
    fn initial_memory_seeds_values() {
        let mut init = Memory::new();
        init.write(Loc(9), 99);
        let mut dir = Directory::new(init);
        let out = dir.handle(ProcId(0), CacheToDir::GetShared { loc: Loc(9), req: RequestId(1) }).unwrap();
        assert!(matches!(
            out[0].1,
            DirToCache::DataShared { value: 99, .. }
        ));
        assert_eq!(dir.memory_value(Loc(9)), 99);
    }

    #[test]
    fn stats_accumulate() {
        let mut dir = Directory::new(Memory::new());
        dir.handle(ProcId(0), gets(1)).unwrap();
        dir.handle(ProcId(1), getx(2)).unwrap();
        let s = dir.stats();
        assert_eq!(s.get_shared, 1);
        assert_eq!(s.get_exclusive, 1);
        assert_eq!(s.invalidations, 1);
    }

    #[test]
    fn plain_writeback_returns_line_home() {
        let mut dir = Directory::new(Memory::new());
        dir.handle(ProcId(0), getx(1)).unwrap();
        let out = dir.handle(ProcId(0), CacheToDir::WriteBack { loc: L, value: 77 }).unwrap();
        assert!(out.is_empty());
        assert_eq!(dir.memory_value(L), 77);
        assert_eq!(dir.stats().writebacks, 1);
        // A later reader gets the written-back value directly.
        let out = dir.handle(ProcId(1), gets(2)).unwrap();
        assert!(matches!(out[0].1, DirToCache::DataShared { value: 77, .. }));
    }

    #[test]
    fn writeback_crossing_a_recall_completes_it() {
        let mut dir = Directory::new(Memory::new());
        dir.handle(ProcId(0), getx(1)).unwrap();
        dir.handle(ProcId(1), getx(2)).unwrap(); // recall in flight to P0
        let out = dir.handle(ProcId(0), CacheToDir::WriteBack { loc: L, value: 5 }).unwrap();
        assert_eq!(
            out,
            vec![(
                ProcId(1),
                DirToCache::DataExclusive { loc: L, value: 5, req: RequestId(2), pending_acks: 0 }
            )]
        );
        assert!(!dir.is_busy(L));
    }

    #[test]
    fn writeback_crossing_a_downgrade_completes_it() {
        let mut dir = Directory::new(Memory::new());
        dir.handle(ProcId(0), getx(1)).unwrap();
        dir.handle(ProcId(1), gets(2)).unwrap(); // downgrade in flight to P0
        let out = dir.handle(ProcId(0), CacheToDir::WriteBack { loc: L, value: 5 }).unwrap();
        assert_eq!(
            out,
            vec![(ProcId(1), DirToCache::DataShared { loc: L, value: 5, req: RequestId(2) })]
        );
        assert!(!dir.is_busy(L));
    }

    #[test]
    fn stray_inv_ack_is_an_error() {
        let mut dir = Directory::new(Memory::new());
        let err = dir
            .handle(ProcId(0), CacheToDir::InvAck { loc: L, req: RequestId(1) })
            .unwrap_err();
        assert_eq!(err, ProtocolError::StrayInvAck { loc: L, req: RequestId(1) });
    }
}
