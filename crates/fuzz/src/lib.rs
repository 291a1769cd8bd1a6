//! wo-fuzz: differential fuzzing of the weak-ordering machines against the
//! Definition 2 contract.
//!
//! The paper's central claim (Adve & Hill, Definition 2) is a *universally
//! quantified* statement: hardware is weakly ordered iff it appears
//! sequentially consistent to **all** software that is data-race-free
//! (DRF0). The hand-written litmus corpus samples that universe a few
//! dozen programs at a time; this crate samples it by the thousand.
//!
//! The pipeline, per seed:
//!
//! 1. [`gen`] deterministically derives a small program from the seed,
//!    drawn from skeleton families whose DRF0/racy classification is a
//!    construction-time theorem (lock discipline, observed hand-offs,
//!    barrier phases — or one deliberately broken rule).
//! 2. [`oracle`] cross-checks the static label against the dynamic
//!    vector-clock race detector, then runs the DRF0-labeled program on
//!    the three Definition-2 machine classes under fault-injecting
//!    interconnects and asserts every completed run appears SC and lands
//!    inside the idealized SC outcome set.
//! 3. [`shrink`](mod@shrink) greedily minimizes any failing program while preserving
//!    the failure, and emits a replayable `.litmus` repro.
//! 4. [`campaign`] shards seed ranges across worker threads and merges
//!    per-seed verdicts into a summary that is deterministic for a fixed
//!    seed range, independent of thread count.
//!
//! The oracle can also *inject* a historical bug (state-only pruning in
//! the SC reference enumeration) to prove the campaign catches and shrinks
//! real defects; see [`oracle::OracleConfig::inject_prune_bug`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod export;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignSummary};
pub use gen::{generate, Family, GenConfig, GenProgram, Label};
pub use oracle::{check_seed, Finding, FindingKind, OracleConfig, SeedVerdict};
pub use shrink::{shrink, ShrinkOutcome};
