//! The staged transaction pipeline behind [`crate::Simulation`] and the
//! `oram-service` front-end.
//!
//! Every simulated memory-bus cycle flows through five explicit stages,
//! each owned by one component and sequenced in exactly one place,
//! [`PipelineCore`] (drivers only decide when an access enters and what a
//! completion wakes):
//!
//! 1. **Plan** ([`Planner`]) — expand core LLC misses into ORAM
//!    transactions via the protocol engine, lowering slot touches to
//!    physical addresses through the tree layout;
//! 2. **Enqueue** ([`TxnTracker`]) — feed planned requests to the memory
//!    backend in strict transaction order, stalling on queue pressure;
//! 3. **Schedule** ([`mem_sched::MemoryBackend`]) — the pluggable memory
//!    model ticks, issues commands and completes requests (built by
//!    [`build_backend`] from [`crate::config::BackendKind`]);
//! 4. **Retire** ([`TxnTracker`]) — fold completions back into transaction
//!    state and compute core wake-ups;
//! 5. **Attribute** ([`Metrics`]) — charge the cycle to the oldest
//!    unfinished transaction and fold row-class / latency samples.
//!
//! A cycle on which stages 2–4 provably have nothing to do — nothing waits
//! to enqueue and the backend reports nothing due
//! ([`mem_sched::MemoryBackend::next_event_cycle`]) — is stepped as the
//! backend's tick and stage 5 alone; debug builds run the skipped stages
//! and assert they found nothing.
//!
//! Two concerns sit beside the stages rather than inside them:
//! conformance checking ([`Conformance`]) attaches to the backend-agnostic
//! command-event stream plus the protocol's plan stream, and measurement
//! windows are plain [`CounterSnapshot`] deltas over every counter the
//! stages and the backend expose.
//!
//! The pipeline is backend-independent by construction: the plan and
//! transaction layers never look at timing, so the cycle-accurate and fast
//! functional backends observe the *same* access sequence (pinned by the
//! `backend_differential` integration test via [`Planner`]'s access
//! digest).

pub mod backend;
pub mod conformance;
pub mod core;
pub mod metrics;
pub mod planner;
pub mod shard;
pub mod txns;

pub use self::core::PipelineCore;
pub use backend::build_backend;
pub use conformance::Conformance;
pub use metrics::{build_merged_report, build_report, CounterSnapshot, Metrics};
pub use planner::{PlannedTxn, Planner};
pub use shard::ShardedSimulation;
pub use txns::{Retired, TxnTracker, Wake};
