//! Protocol messages between caches and the directory.
//!
//! The messages travel as values: memsim's interconnect schedules, delays,
//! duplicates and drops them under its fault plan without serializing
//! them.

use std::fmt;

use memory_model::{Loc, Value};

/// Identifies one processor request (miss) end-to-end through the protocol:
/// the requesting cache allocates it, the directory echoes it in
/// invalidations and acknowledgements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Messages a cache sends to the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheToDir {
    /// Read miss: requests the line in shared state.
    GetShared {
        /// The missing line.
        loc: Loc,
        /// The originating processor request.
        req: RequestId,
    },
    /// Write (or synchronization) miss/upgrade: requests the line in
    /// exclusive state.
    GetExclusive {
        /// The missing line.
        loc: Loc,
        /// The originating processor request.
        req: RequestId,
    },
    /// Acknowledges an invalidation of `loc` on behalf of write `req`.
    InvAck {
        /// The invalidated line.
        loc: Loc,
        /// The write the invalidation belongs to.
        req: RequestId,
    },
    /// The owner writes the line back and invalidates its copy, in
    /// response to [`DirToCache::Recall`].
    RecallAck {
        /// The recalled line.
        loc: Loc,
        /// Its current (dirty) value.
        value: Value,
    },
    /// The owner refuses a recall because the line's reserve bit is set
    /// (Section 5.3: a reserved line is never flushed).
    RecallNack {
        /// The reserved line.
        loc: Loc,
    },
    /// The owner downgrades to shared and returns the current value, in
    /// response to [`DirToCache::Downgrade`].
    DowngradeAck {
        /// The downgraded line.
        loc: Loc,
        /// Its current value.
        value: Value,
    },
    /// The owner refuses a downgrade because the line is reserved.
    DowngradeNack {
        /// The reserved line.
        loc: Loc,
    },
    /// Voluntary eviction of an exclusive (dirty) line: the cache drops
    /// its copy and returns the value to memory. Shared lines are dropped
    /// silently (the directory's sharer list is allowed to over-
    /// approximate; a stale invalidation is simply acknowledged).
    WriteBack {
        /// The evicted line.
        loc: Loc,
        /// Its dirty value.
        value: Value,
    },
}

impl CacheToDir {
    /// The line the message concerns.
    #[must_use]
    pub fn loc(&self) -> Loc {
        match self {
            CacheToDir::GetShared { loc, .. }
            | CacheToDir::GetExclusive { loc, .. }
            | CacheToDir::InvAck { loc, .. }
            | CacheToDir::RecallAck { loc, .. }
            | CacheToDir::RecallNack { loc }
            | CacheToDir::DowngradeAck { loc, .. }
            | CacheToDir::DowngradeNack { loc }
            | CacheToDir::WriteBack { loc, .. } => *loc,
        }
    }
}

/// Messages the directory sends to a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirToCache {
    /// Grants the line in shared state.
    DataShared {
        /// The granted line.
        loc: Loc,
        /// The line's value.
        value: Value,
        /// The request being satisfied.
        req: RequestId,
    },
    /// Grants the line in exclusive state. Invalidations to `pending_acks`
    /// sharers were dispatched *in parallel* with this grant; if
    /// `pending_acks > 0` the write commits on receipt but is globally
    /// performed only at the matching [`DirToCache::GlobalAck`].
    DataExclusive {
        /// The granted line.
        loc: Loc,
        /// The line's value before the write.
        value: Value,
        /// The request being satisfied.
        req: RequestId,
        /// Number of sharers being invalidated concurrently.
        pending_acks: u32,
    },
    /// Orders the cache to invalidate its shared copy of `loc` on behalf
    /// of write `req`; the cache must [`CacheToDir::InvAck`].
    Invalidate {
        /// The line to invalidate.
        loc: Loc,
        /// The write the invalidation belongs to.
        req: RequestId,
    },
    /// All invalidations for write `req` have been acknowledged: the write
    /// is now globally performed.
    GlobalAck {
        /// The written line.
        loc: Loc,
        /// The write in question.
        req: RequestId,
    },
    /// Asks the exclusive owner to write the line back and invalidate it
    /// (another processor wants it exclusive).
    Recall {
        /// The line to recall.
        loc: Loc,
    },
    /// Asks the exclusive owner to write back and keep a shared copy
    /// (another processor wants to read).
    Downgrade {
        /// The line to downgrade.
        loc: Loc,
    },
}

impl DirToCache {
    /// The line the message concerns.
    #[must_use]
    pub fn loc(&self) -> Loc {
        match self {
            DirToCache::DataShared { loc, .. }
            | DirToCache::DataExclusive { loc, .. }
            | DirToCache::Invalidate { loc, .. }
            | DirToCache::GlobalAck { loc, .. }
            | DirToCache::Recall { loc }
            | DirToCache::Downgrade { loc } => *loc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_accessors_cover_all_variants() {
        let l = Loc(7);
        let r = RequestId(1);
        let c2d = [
            CacheToDir::GetShared { loc: l, req: r },
            CacheToDir::GetExclusive { loc: l, req: r },
            CacheToDir::InvAck { loc: l, req: r },
            CacheToDir::RecallAck { loc: l, value: 0 },
            CacheToDir::RecallNack { loc: l },
            CacheToDir::DowngradeAck { loc: l, value: 0 },
            CacheToDir::DowngradeNack { loc: l },
            CacheToDir::WriteBack { loc: l, value: 0 },
        ];
        for m in c2d {
            assert_eq!(m.loc(), l);
        }
        let d2c = [
            DirToCache::DataShared { loc: l, value: 0, req: r },
            DirToCache::DataExclusive { loc: l, value: 0, req: r, pending_acks: 0 },
            DirToCache::Invalidate { loc: l, req: r },
            DirToCache::GlobalAck { loc: l, req: r },
            DirToCache::Recall { loc: l },
            DirToCache::Downgrade { loc: l },
        ];
        for m in d2c {
            assert_eq!(m.loc(), l);
        }
    }

    #[test]
    fn request_id_displays() {
        assert_eq!(RequestId(9).to_string(), "req9");
    }
}
