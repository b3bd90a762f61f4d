//! # oram-service — a multi-tenant front-end for the String ORAM engine
//!
//! This crate turns the trace-driven String ORAM pipeline into a
//! request-driven *service*: tenants submit block accesses into bounded
//! per-tenant queues, an admission layer sheds overload with structured
//! [`Rejected`] outcomes, a batcher submits queued work to the sharded
//! lockstep engine under either a work-conserving **best-effort** policy
//! or a Cloak-style **fixed-rate** policy (cover-access padding makes the
//! submission schedule a pure function of the clock — the timing channel
//! closes), and per-request **deadlines** with bounded retries guarantee
//! every admitted request resolves exactly once.
//!
//! An overload governor ([`GovernorState`]) walks Healthy → Degraded →
//! Shedding on queue pressure watermarks with hysteresis. Crucially it acts *only at
//! admission* — governor transitions can never change the engine-visible
//! access sequence, so graceful degradation costs nothing in obliviousness.
//!
//! Everything runs on virtual time (engine cycles). Same seed, same
//! configuration → byte-identical [`SimReport`]s, which the
//! `ServiceAuditor` in `sim-verify` and `tests/service_robustness.rs`
//! exploit for exact golden assertions.
//!
//! # Quickstart
//!
//! ```
//! use oram_service::{OramService, ServiceConfig, TenantSpec};
//! use trace_synth::ArrivalSpec;
//!
//! let cfg = ServiceConfig::test_small(
//!     vec![
//!         TenantSpec::new("latency-sensitive", ArrivalSpec::steady(4.0)),
//!         TenantSpec::new("batch", ArrivalSpec::bursty(2.0, 6.0)),
//!     ],
//!     20_000,
//! );
//! let mut service = OramService::new(cfg).expect("valid config");
//! let report = service.run().expect("terminates");
//! let summary = report.service.expect("service summary attached");
//! for tenant in &summary.tenants {
//!     assert_eq!(tenant.resolved(), tenant.arrivals); // exactly once
//! }
//! ```
//!
//! [`SimReport`]: string_oram::SimReport

#![warn(missing_docs)]
#![warn(clippy::all)]
#![warn(clippy::redundant_clone)]
#![warn(clippy::large_enum_variant)]
// Library code must surface failures as values or documented panics, never
// as ad-hoc unwraps; tests are free to unwrap (a panic IS the failure).
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod governor;
pub mod service;

pub use config::{
    GovernorConfig, RejectReason, Rejected, ServiceConfig, SubmissionPolicy, TenantSpec,
};
pub use governor::GovernorState;
pub use service::OramService;
/// One shard's request-driven engine: the shared five-stage pipeline core,
/// dispatched into at the service's rate instead of from a trace.
pub use string_oram::pipeline::PipelineCore as ShardPipeline;
