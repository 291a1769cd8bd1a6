//! # memory-model — the formal machinery of Adve & Hill's DRF0
//!
//! This crate is an executable rendering of the formalism in Sections 3–4
//! and Appendix A of *"Weak Ordering — A New Definition"* (ISCA 1990):
//!
//! * [`Operation`]s — data reads/writes and hardware-recognizable
//!   synchronization operations accessing a single memory location
//!   (the paper's DRF0 restriction),
//! * [`Execution`] — a totally ordered execution on the *idealized
//!   architecture* where every access is atomic and in program order,
//! * program order `po`, synchronization order `so`, and the
//!   **happens-before** relation `hb = (po ∪ so)⁺` ([`hb`], [`vc`]),
//!   closed in [`rel::Rel`], the bitset order type the `wo-axiom`
//!   relational engine builds its candidates in too,
//! * the **DRF0** synchronization model (Definition 3): every pair of
//!   conflicting accesses must be ordered by happens-before ([`drf0`]),
//! * a streaming vector-clock **data-race detector** ([`race`]),
//! * a **sequential-consistency checker** (Lamport's definition) over
//!   per-processor observations ([`sc`]), and
//! * the **Lemma 1 oracle** ([`lemma1`]): reads return the value of the
//!   hb-last write — the paper's necessary-and-sufficient condition for
//!   weak ordering with respect to DRF0.
//!
//! # Examples
//!
//! Detect the data race in Figure 2(b) of the paper:
//!
//! ```
//! use memory_model::{Execution, Loc, Operation, OpId, ProcId};
//! use memory_model::drf0;
//!
//! let x = Loc(0);
//! // P0 writes x; P1 writes x concurrently — no intervening synchronization.
//! let exec = Execution::new(vec![
//!     Operation::data_write(OpId(0), ProcId(0), x, 1),
//!     Operation::data_write(OpId(1), ProcId(1), x, 2),
//! ]).unwrap();
//!
//! let races = drf0::races_in(&exec);
//! assert_eq!(races.len(), 1);
//! assert!(!drf0::is_data_race_free(&exec));
//! ```

#![deny(missing_docs)]

mod execution;
mod ids;
mod memory;
mod observation;
mod op;

pub mod analysis;
pub mod drf0;
pub mod drf1;
pub mod hb;
pub mod lemma1;
pub mod race;
pub mod rel;
pub mod sc;
pub mod vc;

pub use execution::{Execution, ExecutionError, ExecutionResult, SemanticsViolation};
pub use ids::{Loc, OpId, ProcId, Value};
pub use memory::Memory;
pub use observation::{Observation, ObservationError, ThreadTrace};
pub use hb::SyncMode;
pub use op::{OpKind, Operation, SyncOp};
