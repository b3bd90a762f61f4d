//! # ring-oram — Ring ORAM and String ORAM protocol engine
//!
//! This crate implements the protocol layer of the String ORAM reproduction
//! (HPCA 2021, "Streamline Ring ORAM Accesses through Spatial and Temporal
//! Optimization"):
//!
//! * **Ring ORAM** (Ren et al., USENIX Security'15): buckets of `Z` real +
//!   `S` dummy slots, selective one-block-per-bucket read paths, periodic
//!   evictions in reverse lexicographic order, and early reshuffles —
//!   [`RingOram`];
//! * the paper's **Compact Bucket (CB)** spatial optimization: `Y` of the
//!   `S` dummy accesses served by *green* real blocks, shrinking each bucket
//!   by `Y` slots ([`config::RingConfig::y`]) and shortening evictions;
//! * leakage-free **background eviction** via dummy read paths;
//! * the **subtree layout** address mapping ([`layout::TreeLayout`]);
//! * the [`ObliviousProtocol`] trait — the pipeline contract shared by all
//!   protocol engines — with a **Path ORAM** baseline ([`PathOram`]) and a
//!   **Circuit ORAM** implementation ([`CircuitOram`]) alongside the Ring
//!   engine, so the paper's wins are measurable against the design space
//!   they improve on. Ring, Path and Circuit are three access schedules
//!   over one private engine frame (`plain_tree`: the bucket tree — one
//!   chunked slab of fixed-stride bucket rows with pooled payload lanes —,
//!   position map, stash, protocol RNG, statistics, plan pool, and the
//!   data path: payload sealing and the transit-fault layer), so every
//!   engine reads and writes payloads, seals them, survives transit faults
//!   and pads with cover accesses through the one trait.
//!
//! The protocol layer is *untimed*: every logical access expands into
//! [`plan::AccessPlan`]s — ordered lists of physical slot touches — which
//! the `mem-sched`/`string-oram` crates execute against the `dram-sim`
//! timing model as atomic ORAM transactions.
//!
//! # Example
//!
//! ```
//! use ring_oram::{ObliviousProtocol, RingOram, RingConfig};
//! use ring_oram::types::BlockId;
//!
//! let mut oram = RingOram::new(RingConfig::test_small(), 42);
//! let outcome = oram.access(BlockId(7));
//! // A read path touches one block per tree level.
//! let reads: usize = outcome.plans.iter().map(|p| p.reads()).sum();
//! assert!(reads >= oram.config().levels as usize);
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

pub mod aes;
pub mod bucket;
pub mod circuit;
pub mod config;
pub mod crypto;
pub mod fasthash;
pub mod faults;
pub mod layout;
pub mod oblivious;
pub mod path_oram;
mod plain_tree;
pub mod plan;
pub mod position_map;
pub mod protocol;
pub mod recursive;
pub mod sharding;
pub mod stash;
pub mod tree;
pub mod types;

pub use circuit::CircuitOram;
pub use config::RingConfig;
pub use faults::{FaultEvent, FaultEventKind, OramError, ResilienceConfig};
pub use oblivious::{ObliviousProtocol, Op, ProtocolKind};
pub use path_oram::PathOram;
pub use plan::{AccessPlan, OpKind, SlotTouch};
pub use protocol::{AccessOutcome, ProtocolStats, RingOram, TargetSource};
pub use recursive::RecursiveConfig;
pub use sharding::ShardMap;
pub use tree::TreeGeometry;
pub use types::{BlockId, BucketId, FetchKind, Level, PathId};
