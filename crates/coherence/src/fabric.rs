//! A synchronous test fabric: caches and directory wired with zero-latency
//! message delivery.
//!
//! `memsim` drives the same state machines through an event queue with
//! real latencies; [`TestFabric`] exists to test protocol *logic* in
//! isolation — every message is delivered and processed immediately, in
//! FIFO order.
//!
//! [`TestFabric::with_chaos`] layers a seeded [`FaultPlan`] over the wire:
//! delayed messages are deferred past traffic on *other* channels (never
//! past later traffic on their own channel, preserving the per-pair FIFO
//! the protocol assumes) and recalls/downgrades may be delivered twice.
//! Loss decisions degrade to delivery — a zero-latency wire has no retry
//! clock, so detected drops and blackholes are only meaningful in
//! `memsim`'s timed interconnect.

use std::collections::VecDeque;

use memory_model::{Loc, Memory, ProcId, Value};
use simx::fault::{FaultConfig, FaultDecision, FaultPlan};

use crate::{
    AccessResult, CacheController, CacheEvent, CacheToDir, Directory, DirToCache,
    ProcRequest, ProtocolError, RequestId,
};

/// A zero-latency interconnect joining `n` caches and one directory.
///
/// # Examples
///
/// ```
/// use coherence::fabric::TestFabric;
/// use coherence::{CacheEvent, ProcRequest, RequestId};
/// use memory_model::{Loc, Memory, ProcId};
///
/// let mut fabric = TestFabric::new(2, Memory::new());
/// let events = fabric.run(ProcId(0), ProcRequest::Store {
///     loc: Loc(0), value: 7, req: RequestId(1),
/// }).unwrap();
/// assert!(events.iter().any(|e| matches!(e, CacheEvent::StoreCommitted { .. })));
/// let events = fabric.run(ProcId(1), ProcRequest::Load {
///     loc: Loc(0), req: RequestId(2),
/// }).unwrap();
/// assert!(events.contains(&CacheEvent::LoadDone {
///     req: RequestId(2), loc: Loc(0), value: 7,
/// }));
/// ```
#[derive(Debug)]
pub struct TestFabric {
    caches: Vec<CacheController>,
    directory: Directory,
    next_req: u64,
    chaos: Option<FaultPlan>,
}

enum InFlight {
    ToDir(ProcId, CacheToDir),
    ToCache(ProcId, DirToCache),
}

impl InFlight {
    /// The wire channel this message rides: per-(direction, endpoint)
    /// FIFO is the ordering guarantee chaos perturbations must preserve.
    fn channel(&self) -> (bool, ProcId) {
        match self {
            InFlight::ToDir(from, _) => (false, *from),
            InFlight::ToCache(to, _) => (true, *to),
        }
    }

    /// Whether delivering this message twice is protocol-safe. Only
    /// recalls and downgrades qualify: the receiving cache ignores them
    /// for lines it no longer owns, and per-channel FIFO guarantees the
    /// duplicate lands before any later grant on the same channel.
    fn dupable(&self) -> bool {
        matches!(
            self,
            InFlight::ToCache(_, DirToCache::Recall { .. })
                | InFlight::ToCache(_, DirToCache::Downgrade { .. })
        )
    }
}

/// One wire entry plus the number of times chaos has already deferred it
/// (bounded, so perturbation never starves delivery).
struct Pending {
    msg: InFlight,
    deferrals: u8,
}

/// How many messages on other channels a delayed message may be deferred
/// past before it is forcibly delivered.
const MAX_DEFERRALS: u8 = 3;

impl TestFabric {
    /// Creates a fabric with `n` empty caches over `initial` memory.
    #[must_use]
    pub fn new(n: usize, initial: Memory) -> Self {
        TestFabric {
            caches: (0..n).map(|_| CacheController::new()).collect(),
            directory: Directory::new(initial),
            next_req: 0,
            chaos: None,
        }
    }

    /// Creates a fabric whose wire is perturbed by a [`FaultPlan`] seeded
    /// with `seed`: messages may be deferred past other channels' traffic
    /// and recalls/downgrades may be duplicated. Per-channel FIFO is
    /// preserved, so every run must still look sequentially consistent at
    /// the protocol level.
    #[must_use]
    pub fn with_chaos(n: usize, initial: Memory, seed: u64, config: FaultConfig) -> Self {
        TestFabric { chaos: Some(FaultPlan::new(seed, config)), ..Self::new(n, initial) }
    }

    /// The fault plan's counters, if this fabric was built with chaos.
    #[must_use]
    pub fn fault_stats(&self) -> Option<&simx::fault::FaultStats> {
        self.chaos.as_ref().map(FaultPlan::stats)
    }

    /// Issues `request` at processor `proc` and runs the protocol to
    /// quiescence, returning every cache event raised **at that
    /// processor** along the way.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::FabricBlocked`] if the access stays
    /// blocked — the synchronous fabric never leaves requests pending
    /// across calls — and propagates any protocol-invariant violation
    /// raised by a cache or the directory while draining the wire.
    pub fn run(
        &mut self,
        proc: ProcId,
        request: ProcRequest,
    ) -> Result<Vec<CacheEvent>, ProtocolError> {
        let mut events = Vec::new();
        let mut wire: VecDeque<Pending> = VecDeque::new();
        match self.caches[proc.index()].access(request) {
            AccessResult::Done(ev) => events.extend(ev),
            AccessResult::Miss(msgs) => {
                wire.extend(
                    msgs.into_iter().map(|m| Pending { msg: InFlight::ToDir(proc, m), deferrals: 0 }),
                );
            }
            AccessResult::Blocked => return Err(ProtocolError::FabricBlocked { proc }),
        }
        while let Some(entry) = wire.pop_front() {
            let Some((msg, duplicate)) = self.perturb(entry, &mut wire) else {
                continue; // deferred back onto the wire
            };
            for _ in 0..if duplicate { 2 } else { 1 } {
                match &msg {
                    InFlight::ToDir(from, m) => {
                        for (to, reply) in self.directory.handle(*from, *m)? {
                            wire.push_back(Pending {
                                msg: InFlight::ToCache(to, reply),
                                deferrals: 0,
                            });
                        }
                    }
                    InFlight::ToCache(to, m) => {
                        let (ev, replies) = self.caches[to.index()].handle(*m)?;
                        if *to == proc {
                            events.extend(ev);
                        }
                        wire.extend(replies.into_iter().map(|r| Pending {
                            msg: InFlight::ToDir(*to, r),
                            deferrals: 0,
                        }));
                    }
                }
            }
        }
        Ok(events)
    }

    /// Applies the fault plan to a popped wire entry. Returns `None` if
    /// the message was deferred (re-inserted later in the wire), or
    /// `Some((msg, duplicate))` when it should be delivered now.
    fn perturb(
        &mut self,
        entry: Pending,
        wire: &mut VecDeque<Pending>,
    ) -> Option<(InFlight, bool)> {
        let Some(plan) = self.chaos.as_mut() else {
            return Some((entry.msg, false));
        };
        let dupable = entry.msg.dupable();
        let decision = plan.decide(dupable, false);
        let (extra_delay, duplicate) = match decision {
            FaultDecision::Deliver { extra_delay, duplicate } => (extra_delay, duplicate),
            // A zero-latency wire has no retry clock: loss degrades to
            // delivery (memsim's timed interconnect models real loss).
            FaultDecision::Drop | FaultDecision::Blackhole => (0, false),
        };
        if extra_delay > 0 && entry.deferrals < MAX_DEFERRALS {
            // Defer past the leading run of *other* channels' messages:
            // per-channel FIFO is untouched because everything we skip
            // rides a different channel.
            let channel = entry.msg.channel();
            let skip = wire
                .iter()
                .take_while(|p| p.msg.channel() != channel)
                .count();
            if skip > 0 {
                wire.insert(skip, Pending { msg: entry.msg, deferrals: entry.deferrals + 1 });
                return None;
            }
        }
        Some((entry.msg, duplicate))
    }

    /// Allocates a fresh request id.
    pub fn fresh_req(&mut self) -> RequestId {
        self.next_req += 1;
        RequestId(self.next_req)
    }

    /// Direct access to a cache, for assertions.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    #[must_use]
    pub fn cache(&self, proc: ProcId) -> &CacheController {
        &self.caches[proc.index()]
    }

    /// Mutable access to a cache (e.g. to set reserve bits in tests).
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn cache_mut(&mut self, proc: ProcId) -> &mut CacheController {
        &mut self.caches[proc.index()]
    }

    /// The directory.
    #[must_use]
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The coherent value of `loc`: the exclusive owner's copy if one
    /// exists, otherwise the memory-side value.
    #[must_use]
    pub fn coherent_value(&self, loc: Loc) -> Value {
        for cache in &self.caches {
            if cache.line_state(loc) == crate::LineState::Exclusive {
                return cache.cached_value(loc).expect("exclusive line has a value");
            }
        }
        self.directory.memory_value(loc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memory_model::SyncOp;
    use crate::LineState;

    fn store(loc: Loc, value: Value, req: u64) -> ProcRequest {
        ProcRequest::Store { loc, value, req: RequestId(req) }
    }

    fn load(loc: Loc, req: u64) -> ProcRequest {
        ProcRequest::Load { loc, req: RequestId(req) }
    }

    #[test]
    fn write_propagates_to_later_readers() {
        let mut f = TestFabric::new(3, Memory::new());
        f.run(ProcId(0), store(Loc(0), 5, 1)).unwrap();
        let ev = f.run(ProcId(1), load(Loc(0), 2)).unwrap();
        assert!(ev.contains(&CacheEvent::LoadDone { req: RequestId(2), loc: Loc(0), value: 5 }));
        let ev = f.run(ProcId(2), load(Loc(0), 3)).unwrap();
        assert!(ev.contains(&CacheEvent::LoadDone { req: RequestId(3), loc: Loc(0), value: 5 }));
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let mut f = TestFabric::new(4, Memory::new());
        for p in 1..4u16 {
            f.run(ProcId(p), load(Loc(0), u64::from(p))).unwrap();
        }
        let ev = f.run(ProcId(0), store(Loc(0), 9, 10)).unwrap();
        // All three sharers ack synchronously, so commit AND global perform.
        assert!(ev.contains(&CacheEvent::StoreCommitted { req: RequestId(10), loc: Loc(0) }));
        assert!(ev.contains(&CacheEvent::StoreGloballyPerformed {
            req: RequestId(10),
            loc: Loc(0)
        }));
        for p in 1..4u16 {
            assert_eq!(f.cache(ProcId(p)).line_state(Loc(0)), LineState::Invalid);
        }
        assert_eq!(f.directory().stats().invalidations, 3);
    }

    #[test]
    fn ownership_migrates_between_writers() {
        let mut f = TestFabric::new(2, Memory::new());
        f.run(ProcId(0), store(Loc(0), 1, 1)).unwrap();
        f.run(ProcId(1), store(Loc(0), 2, 2)).unwrap();
        assert_eq!(f.cache(ProcId(0)).line_state(Loc(0)), LineState::Invalid);
        assert_eq!(f.cache(ProcId(1)).line_state(Loc(0)), LineState::Exclusive);
        assert_eq!(f.coherent_value(Loc(0)), 2);
    }

    #[test]
    fn reader_downgrades_writer() {
        let mut f = TestFabric::new(2, Memory::new());
        f.run(ProcId(0), store(Loc(0), 1, 1)).unwrap();
        let ev = f.run(ProcId(1), load(Loc(0), 2)).unwrap();
        assert!(ev.contains(&CacheEvent::LoadDone { req: RequestId(2), loc: Loc(0), value: 1 }));
        assert_eq!(f.cache(ProcId(0)).line_state(Loc(0)), LineState::Shared);
        assert_eq!(f.cache(ProcId(1)).line_state(Loc(0)), LineState::Shared);
    }

    #[test]
    fn two_test_and_sets_serialize() {
        let mut f = TestFabric::new(2, Memory::new());
        let tas = |req| ProcRequest::Sync {
            loc: Loc(0),
            op: SyncOp::TestAndSet,
            req: RequestId(req),
            needs_exclusive: true,
        };
        let ev0 = f.run(ProcId(0), tas(1)).unwrap();
        let ev1 = f.run(ProcId(1), tas(2)).unwrap();
        let read0 = ev0.iter().find_map(|e| match e {
            CacheEvent::SyncCommitted { read_value, .. } => *read_value,
            _ => None,
        });
        let read1 = ev1.iter().find_map(|e| match e {
            CacheEvent::SyncCommitted { read_value, .. } => *read_value,
            _ => None,
        });
        assert_eq!(read0, Some(0), "first TAS wins the lock");
        assert_eq!(read1, Some(1), "second TAS sees it held");
    }

    #[test]
    fn coherent_value_reads_through_exclusive_owner() {
        let mut f = TestFabric::new(2, Memory::new());
        f.run(ProcId(0), store(Loc(0), 123, 1)).unwrap();
        // Memory-side value is stale; the coherent value is the owner's.
        assert_eq!(f.coherent_value(Loc(0)), 123);
    }

    #[test]
    fn fresh_req_is_unique() {
        let mut f = TestFabric::new(1, Memory::new());
        let a = f.fresh_req();
        let b = f.fresh_req();
        assert_ne!(a, b);
    }

    #[test]
    fn mixed_read_write_sharing_pattern() {
        // A tiny coherence torture: interleaved loads/stores across 3 procs
        // must always observe the latest committed value (the fabric is
        // synchronous, so this is pure protocol logic).
        let mut f = TestFabric::new(3, Memory::new());
        let l = Loc(5);
        let mut expected = 0;
        for round in 0..10u64 {
            let writer = ProcId((round % 3) as u16);
            expected = round + 100;
            f.run(writer, store(l, expected, round * 10)).unwrap();
            for p in 0..3u16 {
                let ev = f.run(ProcId(p), load(l, round * 10 + 1 + u64::from(p))).unwrap();
                let got = ev.iter().find_map(|e| match e {
                    CacheEvent::LoadDone { value, .. } => Some(*value),
                    _ => None,
                });
                assert_eq!(got, Some(expected), "round {round} proc {p}");
            }
        }
        assert_eq!(f.coherent_value(l), expected);
    }

    /// The torture loop from `mixed_read_write_sharing_pattern`, runnable
    /// over any fabric: panics (via assert) on any stale read.
    fn torture(f: &mut TestFabric) {
        let l = Loc(5);
        let mut expected = 0;
        for round in 0..10u64 {
            let writer = ProcId((round % 3) as u16);
            expected = round + 100;
            f.run(writer, store(l, expected, round * 10)).unwrap();
            for p in 0..3u16 {
                let ev = f.run(ProcId(p), load(l, round * 10 + 1 + u64::from(p))).unwrap();
                let got = ev.iter().find_map(|e| match e {
                    CacheEvent::LoadDone { value, .. } => Some(*value),
                    _ => None,
                });
                assert_eq!(got, Some(expected), "round {round} proc {p}");
            }
        }
        assert_eq!(f.coherent_value(l), expected);
    }

    #[test]
    fn chaos_delays_preserve_coherence() {
        use simx::fault::FaultConfig;
        for seed in 0..20 {
            let mut f = TestFabric::with_chaos(3, Memory::new(), seed, FaultConfig::latency_heavy());
            torture(&mut f);
        }
    }

    #[test]
    fn chaos_duplicates_preserve_coherence() {
        use simx::fault::FaultConfig;
        let mut saw_dup = false;
        for seed in 0..20 {
            let mut f = TestFabric::with_chaos(3, Memory::new(), seed, FaultConfig::dup_heavy());
            torture(&mut f);
            saw_dup |= f.fault_stats().unwrap().duplicated > 0;
        }
        assert!(saw_dup, "dup-heavy sweep never exercised duplication");
    }

    #[test]
    fn chaos_same_seed_same_stats() {
        use simx::fault::FaultConfig;
        let stats = |seed| {
            let mut f = TestFabric::with_chaos(3, Memory::new(), seed, FaultConfig::dup_heavy());
            torture(&mut f);
            *f.fault_stats().unwrap()
        };
        assert_eq!(stats(11), stats(11));
    }
}
