//! # coherence — the directory-based cache-coherence protocol of Section 5.2
//!
//! The paper's example implementation assumes "a straightforward
//! directory-based, write-back cache coherence protocol, similar to those
//! discussed in \[ASH88\]". This crate implements that substrate as a pair
//! of transport-agnostic state machines:
//!
//! * [`CacheController`] — one per processor; owns the processor's cache
//!   lines (`Invalid` / `Shared` / `Exclusive`), services hits locally and
//!   emits directory requests on misses, and carries the **reserve bit**
//!   of Section 5.3 on each line;
//! * [`Directory`] — tracks the global state of every line, sends
//!   invalidations to sharers *in parallel with* forwarding the requested
//!   line to the writer (the paper's protocol explicitly allows this),
//!   collects invalidation acknowledgements, and sends the final
//!   [`DirToCache::GlobalAck`] to the writer when all acks are in.
//!
//! Key fidelity points, straight from the paper:
//!
//! * "The value of a write issued by processor `P_i` cannot be dispatched
//!   as a return value for a read until the write modifies the copy of the
//!   accessed line in `P_i`'s cache. Thus, **a write commits only when it
//!   modifies the copy of the line in its local cache**. However, other
//!   copies of the line may not \[yet\] be invalidated." — see
//!   [`CacheEvent::StoreCommitted`] vs
//!   [`CacheEvent::StoreGloballyPerformed`].
//! * "All synchronization operations will be treated as write operations
//!   by the cache coherence protocol" — sync accesses request the line in
//!   exclusive state.
//! * A line whose reserve bit is set is never flushed: the owning cache
//!   answers recalls with [`CacheToDir::RecallNack`] and the directory
//!   retries — this is how "the request is stalled until the counter reads
//!   zero" (Section 5.3) manifests in a directory protocol.
//!
//! Simplifications (documented in DESIGN.md): lines hold exactly one
//! location (no false sharing), caches are unbounded (no capacity
//! evictions), and the directory defers new requests for a line while a
//! recall or invalidation round for that line is outstanding (this
//! serialization per location is what conditions 2 and 3 of Section 5.1
//! require anyway).
//!
//! The state machines are exercised synchronously by [`fabric::TestFabric`]
//! in this crate's tests, and asynchronously (with interconnect latencies)
//! by the `memsim` crate.

#![deny(missing_docs)]

mod cache;
mod directory;
mod error;
mod msg;

pub mod fabric;
pub mod snoop;

pub use cache::{AccessResult, CacheController, CacheEvent, LineState, ProcRequest};
pub use directory::{Directory, DirectoryStats};
pub use error::ProtocolError;
pub use msg::{CacheToDir, DirToCache, RequestId};
