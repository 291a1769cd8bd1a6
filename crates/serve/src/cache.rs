//! The canonical-form verdict cache with request coalescing.
//!
//! Keys are `(kind group, canonical text)` — the *full* canonical
//! rendering from [`crate::canon`], not a hash, so a collision can never
//! serve a wrong verdict. Values are definitive answers only: `Racy`
//! (conclusive from any prefix), `Drf0` (exploration completed), or a
//! complete SC outcome count. Degraded answers — deadline or budget gave
//! out — are never stored: they are a property of one request's budget,
//! not of the program.
//!
//! # Coalescing
//!
//! Explorations are expensive (milliseconds to seconds) and the traffic
//! is bursty and duplicate-heavy, so concurrent misses on one canonical
//! form must trigger exactly **one** exploration. The first miss installs
//! an in-flight marker and becomes the *leader*; later requests find the
//! marker and block on its condvar (bounded by their own deadlines). When
//! the leader finishes it publishes the outcome — shared with every
//! waiter — and replaces the marker with the cached answer (if
//! definitive) or removes it (if degraded, so the next request retries
//! with its own budget).
//!
//! The leader holds a [`LeaderGuard`]; if it unwinds (worker panic) the
//! guard's `Drop` publishes a failure and clears the marker, so waiters
//! get a structured `Internal` error instead of hanging forever.
//!
//! # Sharding
//!
//! The map is split into [`SHARD_COUNT`] independently locked shards,
//! selected by the FNV-1a hash of the canonical key. Batch mode probes a
//! whole frame's keys in parallel; under one global lock those probes
//! serialize and the lock handoffs dominate the (sub-microsecond) hit
//! path. Correctness is untouched: a key always maps to one shard, so
//! leader/follower coalescing still sees a single authoritative slot.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::canon::fnv1a;
use crate::protocol::{Engine, RaceCoord};

/// How many independently locked shards the cache map is split into.
/// A power of two so shard selection is a mask of the key hash.
pub const SHARD_COUNT: usize = 16;

/// Which exploration family an answer belongs to. `Drf0` and `Races`
/// queries share [`KindGroup::Explore`] — they are the same exploration,
/// so either query warms the cache for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KindGroup {
    /// DPOR exploration: verdict plus race set.
    Explore,
    /// Converged-state exploration: SC outcome enumeration.
    Sc,
}

impl KindGroup {
    /// The journal token.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            KindGroup::Explore => "explore",
            KindGroup::Sc => "sc",
        }
    }

    /// Parses the journal token.
    #[must_use]
    pub fn parse_token(s: &str) -> Option<Self> {
        match s {
            "explore" => Some(KindGroup::Explore),
            "sc" => Some(KindGroup::Sc),
            _ => None,
        }
    }
}

/// A cached (or coalesced) answer, in **canonical** coordinates — the
/// server translates races back through the submitter's
/// [`crate::canon::CanonicalForm`] before responding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedAnswer {
    /// A DPOR exploration answer.
    Explore {
        /// Whether a race was found. `false` means the exploration
        /// completed race-free (definitive answers only; a degraded
        /// race-free prefix is carried with `definitive == false`).
        racy: bool,
        /// The race set, canonical coordinates, sorted.
        races: Vec<RaceCoord>,
        /// Work of the engine that produced the answer: explorer states
        /// or relational work units.
        steps: u64,
        /// Whether the answer is budget-independent (cacheable).
        definitive: bool,
        /// Which budget gave out when not definitive (wire token).
        reason: Option<String>,
        /// Which engine produced the answer (`None` only for a journal
        /// record written before the field existed).
        engine: Option<Engine>,
    },
    /// An SC outcome enumeration answer.
    Sc {
        /// Distinct SC results found.
        outcomes: u64,
        /// Whether enumeration completed (cacheable iff true).
        complete: bool,
        /// Which budget gave out when incomplete (wire token).
        reason: Option<String>,
        /// Work of the engine that produced the answer: explorer states
        /// or relational work units.
        steps: u64,
        /// Which engine produced the answer (`None` only for a journal
        /// record written before the field existed).
        engine: Option<Engine>,
    },
}

impl CachedAnswer {
    /// Whether this answer is a property of the program alone (safe to
    /// cache and journal) rather than of one request's budgets.
    #[must_use]
    pub fn is_definitive(&self) -> bool {
        match self {
            CachedAnswer::Explore { definitive, .. } => *definitive,
            CachedAnswer::Sc { complete, .. } => *complete,
        }
    }

    /// Which engine produced this answer.
    #[must_use]
    pub fn engine(&self) -> Option<Engine> {
        match self {
            CachedAnswer::Explore { engine, .. } | CachedAnswer::Sc { engine, .. } => *engine,
        }
    }
}

/// What a leader's flight produced, shared with all coalesced waiters.
#[derive(Debug, Clone)]
pub enum FlightOutcome {
    /// The leader finished; the answer may or may not be definitive
    /// (waiters receive it either way — it is fresher than anything
    /// their own budget could produce by starting over).
    Answered(Arc<CachedAnswer>),
    /// The leader's worker panicked or was lost; waiters surface an
    /// internal error and the next request becomes a fresh leader.
    Failed,
}

/// The in-flight marker waiters block on.
#[derive(Debug)]
pub struct Flight {
    outcome: Mutex<Option<FlightOutcome>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight { outcome: Mutex::new(None), cv: Condvar::new() }
    }

    /// Blocks until the leader publishes, or `deadline` passes. `None`
    /// means the wait timed out (the flight is still running).
    pub fn wait(&self, deadline: Option<Instant>) -> Option<FlightOutcome> {
        let mut guard = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = guard.as_ref() {
                return Some(outcome.clone());
            }
            match deadline {
                None => {
                    guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let (g, timeout) = self
                        .cv
                        .wait_timeout(guard, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    guard = g;
                    if timeout.timed_out() && guard.is_none() {
                        return None;
                    }
                }
            }
        }
    }

    fn publish(&self, outcome: FlightOutcome) {
        let mut guard = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(outcome);
        self.cv.notify_all();
    }
}

enum Slot {
    Done(Arc<CachedAnswer>),
    InFlight(Arc<Flight>),
}

/// Result of a cache lookup.
pub enum Lookup<'a> {
    /// A definitive answer was cached.
    Hit(Arc<CachedAnswer>),
    /// Nothing cached or in flight: the caller is the leader and MUST
    /// resolve the guard (completing it or dropping it on panic).
    Lead(LeaderGuard<'a>),
    /// Another request is exploring this form: wait on the flight.
    Join(Arc<Flight>),
}

/// One shard's lookup counts, as [`VerdictCache::shard_counts`] read them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounts {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing and became leaders.
    pub leads: u64,
    /// Lookups that joined a flight in progress.
    pub joins: u64,
}

/// One independently locked slice of the key space, with the lookup
/// counters the stats query reads.
#[derive(Default)]
struct Shard {
    /// One map per [`KindGroup`], indexed by the group's discriminant, so
    /// a probe borrows its key instead of copying it.
    slots: Mutex<[HashMap<String, Slot>; 2]>,
    hits: AtomicU64,
    leads: AtomicU64,
    joins: AtomicU64,
}

/// The canonical-form verdict cache. All methods are `&self`; one
/// instance is shared across every connection thread.
pub struct VerdictCache {
    shards: Vec<Shard>,
}

impl Default for VerdictCache {
    fn default() -> Self {
        Self::new()
    }
}

impl VerdictCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        VerdictCache { shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect() }
    }

    fn shard(&self, key: &str) -> &Shard {
        &self.shards[(fnv1a(key.as_bytes()) as usize) & (SHARD_COUNT - 1)]
    }

    /// Number of cached (definitive) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let slots = shard.slots.lock().unwrap_or_else(|e| e.into_inner());
                let done = |s: &&Slot| matches!(s, Slot::Done(_));
                slots.iter().flat_map(HashMap::values).filter(done).count()
            })
            .sum()
    }

    /// Whether no definitive entries are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every shard's lookup counts, index = shard. Each counter is loaded
    /// once, so totals derived from one call agree with its per-shard
    /// figures.
    #[must_use]
    pub fn shard_counts(&self) -> Vec<ShardCounts> {
        self.shards
            .iter()
            .map(|s| ShardCounts {
                hits: s.hits.load(Ordering::Relaxed),
                leads: s.leads.load(Ordering::Relaxed),
                joins: s.joins.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Looks up `key` under `group`, installing an in-flight marker on a
    /// miss (making the caller the leader).
    pub fn lookup(&self, group: KindGroup, key: &str) -> Lookup<'_> {
        let shard = self.shard(key);
        let mut slots = shard.slots.lock().unwrap_or_else(|e| e.into_inner());
        let map = &mut slots[group as usize];
        match map.get(key) {
            Some(Slot::Done(ans)) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(Arc::clone(ans))
            }
            Some(Slot::InFlight(flight)) => {
                shard.joins.fetch_add(1, Ordering::Relaxed);
                Lookup::Join(Arc::clone(flight))
            }
            None => {
                shard.leads.fetch_add(1, Ordering::Relaxed);
                let flight = Arc::new(Flight::new());
                map.insert(key.to_string(), Slot::InFlight(Arc::clone(&flight)));
                Lookup::Lead(LeaderGuard {
                    cache: self,
                    group,
                    key: Some(key.to_string()),
                    flight,
                })
            }
        }
    }

    /// Installs a replayed journal entry (startup only; no flights can
    /// exist yet). Non-definitive answers are ignored — the journal never
    /// contains them, but a hand-edited file must not poison the cache.
    pub fn insert_replayed(&self, group: KindGroup, key: String, answer: CachedAnswer) {
        if !answer.is_definitive() {
            return;
        }
        let shard = self.shard(&key);
        let mut slots = shard.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots[group as usize].insert(key, Slot::Done(Arc::new(answer)));
    }

    /// Snapshot of every definitive entry, for journal compaction
    /// (shard-order; order within a shard is the map's).
    #[must_use]
    pub fn definitive_entries(&self) -> Vec<(KindGroup, String, Arc<CachedAnswer>)> {
        self.shards
            .iter()
            .flat_map(|shard| {
                let slots = shard.slots.lock().unwrap_or_else(|e| e.into_inner());
                [KindGroup::Explore, KindGroup::Sc]
                    .into_iter()
                    .flat_map(|group| {
                        slots[group as usize].iter().filter_map(move |(key, slot)| match slot {
                            Slot::Done(ans) => Some((group, key.clone(), Arc::clone(ans))),
                            Slot::InFlight(_) => None,
                        })
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

/// Held by the one request that runs the exploration for a canonical
/// form. Must be resolved with [`LeaderGuard::complete`]; dropping it
/// un-resolved (unwind path) publishes [`FlightOutcome::Failed`] so
/// waiters never hang.
pub struct LeaderGuard<'a> {
    cache: &'a VerdictCache,
    group: KindGroup,
    /// The key this leader owns, until the flight is resolved.
    key: Option<String>,
    flight: Arc<Flight>,
}

impl LeaderGuard<'_> {
    /// Publishes the exploration's answer to all waiters and — when the
    /// answer is definitive — installs it in the cache. Returns the
    /// shared answer.
    pub fn complete(mut self, answer: CachedAnswer) -> Arc<CachedAnswer> {
        let shared = Arc::new(answer);
        self.resolve(FlightOutcome::Answered(Arc::clone(&shared)));
        shared
    }

    /// Ends the flight, once: a definitive answer replaces the in-flight
    /// marker and anything else (a degraded answer, or `Failed` from the
    /// unwind path) clears it; then every waiter wakes to `outcome`.
    fn resolve(&mut self, outcome: FlightOutcome) {
        let Some(key) = self.key.take() else { return };
        let shard = self.cache.shard(&key);
        let mut slots = shard.slots.lock().unwrap_or_else(|e| e.into_inner());
        let map = &mut slots[self.group as usize];
        match &outcome {
            FlightOutcome::Answered(answer) if answer.is_definitive() => {
                map.insert(key, Slot::Done(Arc::clone(answer)));
            }
            _ => {
                map.remove(&key);
            }
        }
        drop(slots);
        self.flight.publish(outcome);
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        self.resolve(FlightOutcome::Failed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn racy_answer(steps: u64) -> CachedAnswer {
        CachedAnswer::Explore {
            racy: true,
            races: vec![RaceCoord {
                first_thread: 0,
                first_seq: 0,
                second_thread: 1,
                second_seq: 0,
                loc: 0,
            }],
            steps,
            definitive: true,
            reason: None,
            engine: Some(Engine::Explorer),
        }
    }

    fn degraded_answer() -> CachedAnswer {
        CachedAnswer::Explore {
            racy: false,
            races: vec![],
            steps: 10,
            definitive: false,
            reason: Some("deadline".into()),
            engine: Some(Engine::Explorer),
        }
    }

    #[test]
    fn miss_lead_complete_then_hit() {
        let cache = VerdictCache::new();
        let Lookup::Lead(guard) = cache.lookup(KindGroup::Explore, "prog") else {
            panic!("first lookup must lead");
        };
        guard.complete(racy_answer(7));
        match cache.lookup(KindGroup::Explore, "prog") {
            Lookup::Hit(ans) => assert_eq!(*ans, racy_answer(7)),
            _ => panic!("second lookup must hit"),
        }
        assert_eq!(cache.len(), 1);
        // Different kind group is a different key.
        assert!(matches!(cache.lookup(KindGroup::Sc, "prog"), Lookup::Lead(_)));
    }

    #[test]
    fn degraded_answers_are_shared_but_not_cached() {
        let cache = VerdictCache::new();
        let Lookup::Lead(guard) = cache.lookup(KindGroup::Explore, "prog") else {
            panic!();
        };
        guard.complete(degraded_answer());
        // Not cached: the next lookup leads again.
        assert!(matches!(cache.lookup(KindGroup::Explore, "prog"), Lookup::Lead(_)));
    }

    #[test]
    fn concurrent_misses_coalesce_to_one_leader() {
        let cache = Arc::new(VerdictCache::new());
        let leaders = Arc::new(AtomicUsize::new(0));
        let shared_answers = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let cache = Arc::clone(&cache);
            let leaders = Arc::clone(&leaders);
            let shared_answers = Arc::clone(&shared_answers);
            handles.push(std::thread::spawn(move || {
                match cache.lookup(KindGroup::Explore, "hot") {
                    Lookup::Lead(guard) => {
                        leaders.fetch_add(1, Ordering::SeqCst);
                        // Give the other threads time to pile onto the
                        // flight before publishing.
                        std::thread::sleep(Duration::from_millis(50));
                        guard.complete(racy_answer(1));
                    }
                    Lookup::Join(flight) => match flight.wait(None) {
                        Some(FlightOutcome::Answered(ans)) => {
                            assert_eq!(*ans, racy_answer(1));
                            shared_answers.fetch_add(1, Ordering::SeqCst);
                        }
                        other => panic!("unexpected outcome {other:?}"),
                    },
                    Lookup::Hit(ans) => {
                        assert_eq!(*ans, racy_answer(1));
                        shared_answers.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 1, "exactly one exploration");
        assert_eq!(shared_answers.load(Ordering::SeqCst), 15);
        let counts = cache.shard_counts();
        assert_eq!(counts.iter().map(|c| c.leads).sum::<u64>(), 1);
        assert_eq!(counts.iter().map(|c| c.hits + c.joins).sum::<u64>(), 15);
    }

    #[test]
    fn waiters_survive_a_lost_leader() {
        let cache = Arc::new(VerdictCache::new());
        let Lookup::Lead(guard) = cache.lookup(KindGroup::Explore, "prog") else {
            panic!();
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.lookup(KindGroup::Explore, "prog") {
                Lookup::Join(flight) => flight.wait(None),
                _ => panic!("expected to join the flight"),
            })
        };
        // Let the waiter block, then simulate a panicking worker by
        // dropping the guard without completing.
        std::thread::sleep(Duration::from_millis(50));
        drop(guard);
        match waiter.join().unwrap() {
            Some(FlightOutcome::Failed) => {}
            other => panic!("expected Failed, got {other:?}"),
        }
        // The slot is clear: a fresh request leads.
        assert!(matches!(cache.lookup(KindGroup::Explore, "prog"), Lookup::Lead(_)));
    }

    #[test]
    fn waiting_respects_the_deadline() {
        let cache = VerdictCache::new();
        let Lookup::Lead(_guard) = cache.lookup(KindGroup::Explore, "slow") else {
            panic!();
        };
        let Lookup::Join(flight) = cache.lookup(KindGroup::Explore, "slow") else {
            panic!();
        };
        let start = Instant::now();
        let outcome = flight.wait(Some(Instant::now() + Duration::from_millis(30)));
        assert!(outcome.is_none(), "deadline must bound the wait");
        assert!(start.elapsed() >= Duration::from_millis(25));
        // _guard drops here; its Drop publishes Failed harmlessly.
    }

    #[test]
    fn shards_partition_keys_and_count_hits_and_misses() {
        let cache = VerdictCache::new();
        let keys: Vec<String> = (0..64).map(|i| format!("prog-{i}")).collect();
        for key in &keys {
            let Lookup::Lead(guard) = cache.lookup(KindGroup::Explore, key) else {
                panic!("cold lookup must lead");
            };
            guard.complete(racy_answer(1));
        }
        for key in &keys {
            assert!(matches!(cache.lookup(KindGroup::Explore, key), Lookup::Hit(_)));
        }
        assert_eq!(cache.len(), keys.len());
        let counts = cache.shard_counts();
        assert_eq!(counts.len(), SHARD_COUNT);
        assert_eq!(counts.iter().map(|c| c.hits).sum::<u64>(), keys.len() as u64);
        assert_eq!(counts.iter().map(|c| c.leads).sum::<u64>(), keys.len() as u64);
        assert_eq!(counts.iter().map(|c| c.joins).sum::<u64>(), 0);
        assert!(
            counts.iter().filter(|c| c.leads > 0).count() > 1,
            "64 distinct keys all hashed into one shard"
        );
    }

    #[test]
    fn replay_installs_only_definitive_entries() {
        let cache = VerdictCache::new();
        cache.insert_replayed(KindGroup::Explore, "a".into(), racy_answer(3));
        cache.insert_replayed(KindGroup::Explore, "b".into(), degraded_answer());
        assert_eq!(cache.len(), 1);
        assert!(matches!(cache.lookup(KindGroup::Explore, "a"), Lookup::Hit(_)));
        assert!(matches!(cache.lookup(KindGroup::Explore, "b"), Lookup::Lead(_)));
        let entries = cache.definitive_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1, "a");
    }
}
