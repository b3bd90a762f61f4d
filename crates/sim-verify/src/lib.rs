//! # sim-verify — independent conformance checking for the simulator
//!
//! The timing layers (`dram-sim`, `mem-sched`) and the protocol layer
//! (`ring-oram`) each enforce their own rules, but a bug in an enforcement
//! point silently corrupts every result built on top of it. This crate
//! re-validates both from the *outside*, using only observable artifacts:
//!
//! * [`ShadowTimingChecker`] — a from-scratch re-derivation of the JEDEC
//!   constraints (tRCD, tRP, tRAS, tRC, tCCD, tRRD, tFAW, tWTR, tWR, tRTP,
//!   tRFC/tREFI, command/data bus arbitration) applied to the controller's
//!   command trace after the fact. It shares no state with `dram-sim`'s
//!   bank/rank/channel machines; agreement between the two is the evidence.
//! * [`ProtocolAuditor`] — the protocol-aware invariant auditor, one
//!   concrete auditor per protocol family: [`OramAuditor`] replays the
//!   [`ring_oram::AccessPlan`] stream against the Ring ORAM invariants
//!   (stash occupancy stays below its bound, slot indices stay inside the
//!   Compact Bucket's `Z + S - Y` physical slots, no bucket slot is read
//!   twice between reshuffles, no bucket is touched more than `S` times
//!   per epoch, evictions fire at exactly one per `A` read paths);
//!   [`PlainTreeAuditor`] pins Path and Circuit ORAM's full-path plan
//!   shapes (one expected-plan table each) and stash bounds.
//! * [`oracle`] — differential-run primitives: extracting the data-command
//!   (RD/WR) sequence from a trace, checking the transaction-order security
//!   contract, and locating the first divergence between two runs.
//! * [`PolicyAuditor`] — the scheduling-policy contract: every policy in
//!   `mem-sched`'s policy lab (except the explicitly insecure
//!   unconstrained ablation) must preserve the transaction-ordered
//!   data-command sequence. The auditor streams a run's trace through the
//!   order oracle and folds a canonical (intra-transaction
//!   order-insensitive) digest, so any two conforming policies can be
//!   proven observably equivalent by digest equality.
//! * [`ShardResidencyAuditor`] — the sharded engine's global invariant:
//!   per-shard residency snapshots must partition the block address space
//!   (no block resident in two shards, no block routed to the wrong shard).
//! * [`ServiceAuditor`] — the serving layer's contracts: tenant queue
//!   depths stay within capacity, every request resolves exactly once
//!   (completed / timed out / rejected), and under the fixed-rate policy
//!   the submission envelope is a pure function of the policy clock —
//!   never of the offered load (the timing-channel contract).
//!
//! Everything here is passive and deterministic: checkers consume event
//! streams, never influence scheduling, and report [`Violation`]s that the
//! embedding layer (tests, `string-oram`'s `VerifyConfig`) surfaces or
//! panics on.

#![warn(missing_docs)]
#![warn(clippy::all)]
// Library code must surface failures as values or documented panics, never
// as ad-hoc unwraps; tests are free to unwrap (a panic IS the failure).
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod audit;
pub mod oracle;
pub mod policy;
pub mod service;
pub mod shadow;
pub mod shard;
pub mod violation;

pub use audit::{OramAuditor, PlainTreeAuditor, ProtocolAuditor};
pub use oracle::{
    check_txn_order, data_commands, first_divergence, grouped_by_txn, DataCmd, TxnOrderChecker,
};
pub use policy::PolicyAuditor;
pub use service::{AuditedPolicy, RequestOutcome, ServiceAuditor};
pub use shadow::ShadowTimingChecker;
pub use shard::ShardResidencyAuditor;
pub use violation::{Rule, Violation};
