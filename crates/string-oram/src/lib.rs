//! # string-oram — the String ORAM framework (HPCA 2021 reproduction)
//!
//! This crate is the top of the reproduction stack for *"Streamline Ring
//! ORAM Accesses through Spatial and Temporal Optimization"* (HPCA 2021).
//! It wires the substrates together into the paper's evaluated system:
//!
//! * [`ring_oram`] — Ring ORAM protocol with the **Compact Bucket (CB)**
//!   spatial optimization and background eviction;
//! * [`mem_sched`] — transaction-based and **Proactive Bank (PB)** DRAM
//!   command scheduling;
//! * [`dram_sim`] — cycle-accurate DDR3 timing;
//! * [`trace_synth`] — MPKI-matched synthetic workloads.
//!
//! The central types are [`SystemConfig`] (Tables I-III of the paper as a
//! value), [`Scheme`] (Baseline / CB / PB / ALL), and [`Simulation`], which
//! runs traces through cores → ORAM controller → memory controller → DRAM
//! and produces a [`SimReport`] carrying every metric the paper's figures
//! plot. The analytic space model for Fig. 4 / Table V lives in [`space`].
//!
//! # Quickstart
//!
//! ```
//! use string_oram::{Simulation, SystemConfig, Scheme};
//! use trace_synth::{TraceGenerator, by_name};
//!
//! let cfg = SystemConfig::test_small(Scheme::All);
//! let traces = (0..cfg.cores)
//!     .map(|c| TraceGenerator::new(by_name("stream").unwrap(), 7, c as u32).take_records(40))
//!     .collect();
//! let mut sim = Simulation::new(cfg, traces);
//! let report = sim.run(10_000_000).expect("completes");
//! println!("{} cycles for {} ORAM accesses", report.total_cycles, report.oram_accesses);
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

pub mod config;
pub mod cpu;
pub mod pipeline;
pub mod report;
pub mod space;
pub mod system;

pub use config::{
    BackendKind, ConfigError, FaultConfig, LayoutKind, MappingKind, Scheme, SystemConfig,
    VerifyConfig,
};
pub use cpu::{Core, CoreRequest, CoreState};
pub use pipeline::ShardedSimulation;
pub use report::{
    GovernorSummary, KindCycles, LatencyPercentiles, ResilienceSummary, RowClassCounts,
    ServiceSummary, SimReport, TenantSummary,
};
pub use ring_oram::{ObliviousProtocol, ProtocolKind, RecursiveConfig};
pub use space::{fig4_rows, table5_rows, SpaceRow};
pub use system::{CycleLimitExceeded, Simulation};
