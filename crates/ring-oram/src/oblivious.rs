//! The [`ObliviousProtocol`] trait: the pipeline contract every ORAM
//! protocol engine implements.
//!
//! The `string-oram` pipeline never needs to know *which* protocol it is
//! driving. Each stage consumes only three artifacts, and this trait
//! captures exactly that surface:
//!
//! * **plan an access** — position-map lookup expanded into per-level
//!   fetch requests plus any eviction/reshuffle write-backs, returned as
//!   one [`AccessOutcome`] (ordered [`crate::plan::AccessPlan`]s);
//! * **consume fetched blocks into the stash** — implicit in `access`:
//!   the engine owns its stash and exposes occupancy for auditing;
//! * **emit statistics and invariants** — [`ProtocolStats`], fault events,
//!   and a structural self-check.
//!
//! Four engines implement it: [`RingOram`] (serving both the Ring+CB and
//! plain-Ring design points, selected by `RingConfig::y`), the Path ORAM
//! baseline ([`crate::path_oram::PathOram`]) and the Circuit ORAM
//! implementation ([`crate::circuit::CircuitOram`]) — the latter two as
//! schedules over one shared plain-tree frame, which forwards every
//! introspection method below to a single body. A new protocol plugs
//! in by implementing this trait and emitting well-formed plans; the
//! pipeline's lowering, transaction tracking, sharding and digesting all
//! come for free, and `sim-verify` audits the plan stream per
//! [`ProtocolKind`].

use crate::faults::FaultEvent;
use crate::protocol::{AccessOutcome, ProtocolStats, RingOram};
use crate::types::{BlockId, PathId};

/// The protocol design points the simulator can drive.
///
/// `RingCb` and `Ring` share the [`RingOram`] engine (the Compact Bucket
/// is a configuration of it); `Path` and `Circuit` are distinct engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Ring ORAM with the paper's Compact Bucket (`Y > 0`).
    RingCb,
    /// Plain Ring ORAM: CB substitution disabled (`Y` forced to 0).
    Ring,
    /// Path ORAM (Stefanov et al., CCS'13): full-path read + write-back.
    Path,
    /// Circuit ORAM (Wang et al., CCS'15 lineage): selective-remove read
    /// path plus two deterministic reverse-lexicographic evictions per
    /// access.
    Circuit,
}

impl ProtocolKind {
    /// All four protocols in comparison order (the EXPERIMENTS.md table).
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::RingCb,
        ProtocolKind::Ring,
        ProtocolKind::Path,
        ProtocolKind::Circuit,
    ];

    /// Stable label used in reports, bench JSON and CI matrices.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::RingCb => "ring-cb",
            Self::Ring => "ring",
            Self::Path => "path",
            Self::Circuit => "circuit",
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The pipeline contract of an ORAM protocol engine.
///
/// An implementor turns logical block accesses into ordered
/// [`crate::plan::AccessPlan`]s (the bus-observable artifact), keeps its
/// own stash/position-map state, and exposes the counters and invariants
/// the pipeline's measurement and verification layers consume.
///
/// Engines are driven single-threaded per instance; `Send` lets the
/// sharded engine move each instance onto its worker thread.
pub trait ObliviousProtocol: std::fmt::Debug + Send {
    /// Which design point this engine instance realizes.
    fn kind(&self) -> ProtocolKind;

    /// Performs one logical access: position-map lookup, per-level fetch
    /// planning, stash update, and any eviction/reshuffle write-backs.
    fn access(&mut self, block: BlockId) -> AccessOutcome;

    /// Returns an outcome's buffers to the engine's pools (the zero-alloc
    /// steady-state loop). Dropping an outcome instead is legal; the pools
    /// then refill lazily.
    fn recycle_outcome(&mut self, outcome: AccessOutcome);

    /// Pre-sizes per-access bookkeeping (e.g. stash-occupancy samples) for
    /// `n` further accesses, so the steady state never grows vectors.
    fn reserve_accesses(&mut self, n: usize);

    /// Drains the engine's fault-event log. Engines without a fault layer
    /// return an empty log (the default).
    fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        Vec::new()
    }

    /// Plans one **cover access**: a padding access that serves no program
    /// request but is indistinguishable on the bus from the engine's
    /// ordinary dummy traffic. Serving layers use it to fill empty
    /// fixed-rate submission slots so request timing cannot leak through
    /// the access stream. Engines without a native dummy-access mechanism
    /// return `None` (the default); callers must then reject padded
    /// submission modes for the protocol. [`RingOram`] supports it.
    fn cover_access(&mut self) -> Option<AccessOutcome> {
        None
    }

    /// Accumulated protocol statistics.
    fn stats(&self) -> &ProtocolStats;

    /// Current stash occupancy.
    fn stash_len(&self) -> usize;

    /// Peak stash occupancy since creation.
    fn stash_peak(&self) -> usize;

    /// Tree buckets materialized so far (buckets are created on first
    /// touch; a fully materialized tree is the zero-alloc steady state).
    fn materialized_buckets(&self) -> usize;

    /// Verifies the engine's structural invariants (tests/debugging).
    ///
    /// # Panics
    ///
    /// Panics when an invariant is broken — e.g. a mapped block neither in
    /// the stash nor on its assigned path, or an over-full bucket.
    fn check_invariants(&self);

    /// Snapshot of `(block, path)` position-map entries, for cross-shard
    /// residency auditing.
    fn position_entries(&self) -> Vec<(BlockId, PathId)>;
}

impl ObliviousProtocol for RingOram {
    fn kind(&self) -> ProtocolKind {
        if self.config().y > 0 {
            ProtocolKind::RingCb
        } else {
            ProtocolKind::Ring
        }
    }

    fn access(&mut self, block: BlockId) -> AccessOutcome {
        RingOram::access(self, block)
    }

    fn recycle_outcome(&mut self, outcome: AccessOutcome) {
        RingOram::recycle_outcome(self, outcome);
    }

    fn reserve_accesses(&mut self, n: usize) {
        RingOram::reserve_accesses(self, n);
    }

    fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        RingOram::take_fault_events(self)
    }

    fn cover_access(&mut self) -> Option<AccessOutcome> {
        match RingOram::cover_access(self) {
            Ok(outcome) => Some(outcome),
            Err(e) => panic!("{e}"),
        }
    }

    fn stats(&self) -> &ProtocolStats {
        RingOram::stats(self)
    }

    fn stash_len(&self) -> usize {
        RingOram::stash_len(self)
    }

    fn stash_peak(&self) -> usize {
        RingOram::stash_peak(self)
    }

    fn materialized_buckets(&self) -> usize {
        RingOram::materialized_buckets(self)
    }

    fn check_invariants(&self) {
        RingOram::check_invariants(self);
    }

    fn position_entries(&self) -> Vec<(BlockId, PathId)> {
        RingOram::position_entries(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RingConfig;

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: std::collections::HashSet<&str> =
            ProtocolKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 4);
        assert_eq!(ProtocolKind::RingCb.to_string(), "ring-cb");
        assert_eq!(ProtocolKind::Circuit.to_string(), "circuit");
    }

    #[test]
    fn ring_engine_reports_kind_by_cb_configuration() {
        let cb = RingOram::new(RingConfig::test_small_cb(), 1);
        assert_eq!(ObliviousProtocol::kind(&cb), ProtocolKind::RingCb);
        let plain = RingOram::new(RingConfig::test_small(), 1);
        assert_eq!(ObliviousProtocol::kind(&plain), ProtocolKind::Ring);
    }

    #[test]
    fn ring_engine_supports_cover_accesses() {
        let mut oram: Box<dyn ObliviousProtocol> =
            Box::new(RingOram::new(RingConfig::test_small(), 3));
        let out = oram.cover_access().expect("ring supports cover accesses");
        assert!(!out.plans.is_empty());
        assert!(
            !out.served_from_tree(),
            "cover accesses serve no program data"
        );
        oram.recycle_outcome(out);
        assert_eq!(oram.stats().dummy_read_paths, 1);
        oram.check_invariants();
    }

    #[test]
    fn trait_object_drives_the_ring_engine() {
        let mut oram: Box<dyn ObliviousProtocol> =
            Box::new(RingOram::new(RingConfig::test_small(), 3));
        let out = oram.access(BlockId(5));
        assert!(!out.plans.is_empty());
        oram.recycle_outcome(out);
        assert!(oram.take_fault_events().is_empty());
        assert_eq!(oram.stats().read_paths, 1);
        oram.check_invariants();
    }

    /// Everything an engine exposes that the pipeline's plan digests do not
    /// cover, hashed after 20 000 seeded accesses: the full touch stream
    /// with sources and target indices, every counter and stash sample, the
    /// sorted position map, materialized buckets, stash length and peak.
    fn engine_fingerprint(mut oram: Box<dyn ObliviousProtocol>) -> u64 {
        use oram_rng::{Rng, StdRng};
        use std::hash::Hasher;
        let mut h = crate::fasthash::DetHasher::default();
        let mut blocks = StdRng::seed_from_u64(0xF1A9);
        oram.reserve_accesses(20_000);
        for _ in 0..20_000 {
            let out = oram.access(BlockId(blocks.gen_range(0..300)));
            h.write(format!("{:?}", out.source).as_bytes());
            for plan in &out.plans {
                h.write(plan.kind.label().as_bytes());
                h.write_u64(plan.target_index.map_or(u64::MAX, |i| i as u64));
                for t in &plan.touches {
                    h.write_u64(t.bucket.0);
                    h.write_u32(t.slot);
                    h.write_u32(u32::from(t.write));
                }
            }
            oram.recycle_outcome(out);
        }
        oram.check_invariants();
        h.write(format!("{:?}", oram.stats()).as_bytes());
        let mut entries = oram.position_entries();
        entries.sort();
        for (b, p) in entries {
            h.write_u64(b.0);
            h.write_u64(p.0);
        }
        h.write_usize(oram.materialized_buckets());
        h.write_usize(oram.stash_len());
        h.write_usize(oram.stash_peak());
        h.finish()
    }

    /// The eight values were recorded on the commit before Path and Circuit
    /// moved onto the shared plain-tree frame (and before the bucket tree
    /// and plan pool were shared with Ring); the engines are held to them.
    #[test]
    fn engine_fingerprints_match_the_recorded_values() {
        const RECORDED: [(ProtocolKind, [u64; 2]); 4] = [
            (
                ProtocolKind::RingCb,
                [0x9AC6_14FA_0D6B_9DF1, 0xDDB4_71FC_2515_05B8],
            ),
            (
                ProtocolKind::Ring,
                [0xE008_9DE3_8CBF_32AB, 0x0AC8_3DD8_FB81_523D],
            ),
            (
                ProtocolKind::Path,
                [0x873E_28AD_0570_14A4, 0xDEDA_DBEA_3DAD_64EB],
            ),
            (
                ProtocolKind::Circuit,
                [0x888E_8736_8215_354F, 0x9A6F_4B6A_0C8F_B73D],
            ),
        ];
        for (kind, recorded) in RECORDED {
            for (cached, want) in [0, 3].into_iter().zip(recorded) {
                let ring = RingConfig {
                    levels: 10,
                    tree_top_cached_levels: cached,
                    ..RingConfig::test_small_cb()
                };
                let plain = ring.z_slot();
                let oram: Box<dyn ObliviousProtocol> = match kind {
                    ProtocolKind::RingCb => Box::new(RingOram::new(ring, 11)),
                    ProtocolKind::Ring => Box::new(RingOram::new(RingConfig { y: 0, ..ring }, 11)),
                    ProtocolKind::Path => Box::new(crate::PathOram::from_ring(plain, 11)),
                    ProtocolKind::Circuit => Box::new(crate::CircuitOram::new(plain, 11)),
                };
                assert_eq!(oram.kind(), kind);
                let got = engine_fingerprint(oram);
                assert_eq!(got, want, "{kind} cached={cached}: 0x{got:016X}");
            }
        }
    }
}
