//! # weakord — weak ordering as a software/hardware contract
//!
//! The central artifact of *"Weak Ordering — A New Definition"* is not a
//! piece of hardware but a **definition**:
//!
//! > **Definition 2.** Hardware is weakly ordered with respect to a
//! > synchronization model if and only if it appears sequentially
//! > consistent to all software that obeys the synchronization model.
//!
//! This crate renders the contract executable:
//!
//! * [`SynchronizationModel`] — the software side: a formally specified
//!   set of constraints on memory accesses. [`Drf0`] implements the
//!   paper's Data-Race-Free-0 model (Definition 3) by exhaustively
//!   exploring a program's idealized executions and race-checking each.
//! * [`verify`] — the hardware side: one audit runs a program obeying the
//!   model on a list of simulated machines (seeds, fault profiles) through
//!   `memsim::sweep`, and one judge gives each run one verdict: appears
//!   SC, not SC, SC check undecided, outside the reference SC outcome set,
//!   incomplete, tolerable or unexpected abort, or panic. The *appears
//!   sequentially consistent* test is the witness-order search in
//!   `memory_model::sc`. The module also holds the chaos grid (machines ×
//!   fault profiles) that the chaos-litmus sweep and the fuzz oracle audit.
//! * [`conditions`] — the five sufficient hardware conditions of
//!   Section 5.1, checked directly against simulator traces (an
//!   executable stand-in for the Appendix B proof).
//!
//! # Examples
//!
//! Verify Definition 2 for the Section 5.3 implementation on a DRF0
//! program:
//!
//! ```
//! use litmus::corpus;
//! use memsim::presets;
//! use weakord::{verify, Drf0, SynchronizationModel};
//! use litmus::explore::ExploreConfig;
//!
//! let program = corpus::message_passing_sync(2);
//! assert!(Drf0.obeys(&program, &ExploreConfig::default()).is_obeys());
//!
//! let base = presets::network_cached(2, presets::wo_def2(), 0);
//! let report = verify::check_appears_sc(&program, &base, &[0, 1, 2]);
//! assert!(report.all_sc());
//! ```

#![deny(missing_docs)]

mod discipline;
mod model;

pub mod conditions;
pub mod verify;

pub use model::{Drf0, Drf1, ModelVerdict, ModelViolation, SynchronizationModel};
pub use discipline::{DoAllDiscipline, MonitorDiscipline};
