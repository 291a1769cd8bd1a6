//! # litmus — programs, the idealized architecture, and exhaustive exploration
//!
//! The paper's Definition 2 quantifies over *all* executions of a program:
//! hardware is weakly ordered w.r.t. a synchronization model iff it appears
//! sequentially consistent to all software obeying the model. Likewise,
//! DRF0 (Definition 3) quantifies over all executions on the *idealized
//! architecture* (atomic accesses, program order). Both quantifications need
//! three ingredients, which this crate provides:
//!
//! * a small **program DSL** ([`Program`], [`Thread`], [`Instr`]) with data
//!   reads/writes, the paper's synchronization primitives (`Test`,
//!   `Set`/`Unset`, `TestAndSet`, and a fetch-and-add generalization),
//!   register moves and branches;
//! * an **idealized-architecture interpreter** ([`ideal::IdealState`]) that
//!   executes a program under a chosen interleaving, producing a
//!   [`memory_model::Execution`];
//! * an **exhaustive explorer** ([`explore`]) that enumerates all
//!   interleavings (to a budget) and aggregates distinct results, races and
//!   executions — a litmus-scale model checker;
//! * a **corpus** ([`corpus`]) of the paper's programs: Figure 1's
//!   sequential-consistency litmus, Figure 3's Unset/TestAndSet hand-off,
//!   spinlocks, barriers, message passing, IRIW and racy variants.
//!
//! # Examples
//!
//! Figure 1 of the paper on the idealized architecture: the `r0 == 0 &&
//! r1 == 0` outcome never appears, because the idealized architecture is
//! sequentially consistent.
//!
//! ```
//! use litmus::{corpus, explore};
//!
//! let program = corpus::fig1_dekker();
//! let report = explore::explore(&program, &explore::ExploreConfig::default());
//! assert!(report.complete);
//! // No execution lets both processors read 0.
//! assert!(report.results.iter().all(|r| {
//!     let reads: Vec<_> = r.reads.values().copied().collect();
//!     reads != vec![0, 0]
//! }));
//! ```

#![deny(missing_docs)]

mod program;

pub mod corpus;
pub mod explore;
pub mod ideal;
pub mod parse;
pub mod serialize;
pub mod text;

pub use program::{Instr, Operand, Program, ProgramError, Reg, Thread, NUM_REGS};
