//! # mem-sched — ORAM-aware DRAM command scheduling
//!
//! This crate implements the memory-controller layer of the String ORAM
//! reproduction: per-channel read/write queues, FR-FCFS command selection,
//! and a lab of command-scheduling policies selected by one tag,
//! [`SchedulerPolicy`] — each policy is a row of the table in [`policy`].
//! The paper's two algorithms anchor the policy space —
//!
//! * the baseline **transaction-based** scheduler (Algorithm 1,
//!   [`SchedulerPolicy::TransactionBased`]), which confines all command
//!   issue to the oldest incomplete ORAM transaction, and
//! * the **Proactive Bank (PB)** scheduler (Algorithm 2,
//!   [`SchedulerPolicy::ProactiveBank`]), which may pull `PRE`/`ACT`
//!   commands of the next transaction forward when their row-buffer
//!   conflicts are inter-transaction — hiding row-miss latency in
//!   otherwise-idle banks without changing the data access sequence —
//!
//! and two more points explore the rest of it:
//! [`SchedulerPolicy::ReadOverWrite`] (read priority with a bounded write
//! drain) and [`SchedulerPolicy::FixedCadence`] (Cloak-style fixed
//! issue-slot grid); PB's `lookahead` sets how many transactions ahead
//! banks may be prepared. Every policy except the explicitly
//! insecure unconstrained ablation preserves the observable
//! transaction-ordered data-command sequence.
//!
//! The controller drives a [`dram_sim::DramModule`]; protocol logic lives in
//! `ring-oram` and whole-system integration in `string-oram`.
//!
//! # Example
//!
//! ```
//! use dram_sim::{DramModule, AddressMapping, PhysAddr};
//! use dram_sim::geometry::DramGeometry;
//! use dram_sim::timing::TimingParams;
//! use mem_sched::{MemoryController, SchedulerPolicy, RequestSpec, TxnId};
//!
//! let geometry = DramGeometry::test_small();
//! let mapping = AddressMapping::hpca_default(&geometry);
//! let dram = DramModule::new(geometry, TimingParams::test_fast());
//! let mut ctrl = MemoryController::new(dram, mapping, SchedulerPolicy::proactive(), 64);
//!
//! ctrl.try_enqueue(RequestSpec { addr: PhysAddr(0), is_write: false, txn: TxnId(0) }, 0)?;
//! let mut cycle = 0;
//! while ctrl.pending() > 0 {
//!     ctrl.tick(cycle);
//!     cycle += 1;
//! }
//! let done = ctrl.drain_completed();
//! assert_eq!(done.len(), 1);
//! # Ok::<(), mem_sched::QueueFull>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![warn(clippy::redundant_clone)]
#![warn(clippy::large_enum_variant)]
// Library code must surface failures as values or documented panics, never
// as ad-hoc unwraps; tests are free to unwrap (a panic IS the failure).
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
pub mod controller;
pub mod functional;
pub mod policy;
pub mod queue;
pub mod request;
pub mod stats;

pub use backend::{BackendSnapshot, MemoryBackend};
pub use controller::{
    CommandEvent, FaultConfigError, MemoryController, PagePolicy, ResponseFaultConfig,
};
pub use functional::{FunctionalBackend, FunctionalTiming};
pub use policy::SchedulerPolicy;
pub use queue::QueueFull;
pub use request::{Completed, RequestSpec, RowClass, TxnId};
pub use stats::SchedulerStats;
