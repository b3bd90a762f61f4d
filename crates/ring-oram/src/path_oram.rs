//! Path ORAM baseline (Stefanov et al., CCS'13).
//!
//! Ring ORAM's headline claim — 2.3–4x lower overall bandwidth and far
//! lower online bandwidth than Path ORAM — is the motivation the paper
//! builds on, so the reproduction carries a compact Path ORAM
//! implementation, both for the ablation benchmark and as a first-class
//! [`ObliviousProtocol`](crate::ObliviousProtocol) engine the full pipeline
//! can drive.
//!
//! Path ORAM is much simpler than Ring ORAM: every access reads *all*
//! `Z` slots of every bucket on the target's path into the stash, remaps
//! the target, and writes the full path back with greedy leaf-first
//! placement. There are no dummy budgets, no metadata counters, no separate
//! eviction phase — one access is exactly one [`OpKind::ReadPath`] plan
//! whose touch list carries the reads followed by the write-back. The
//! engine is that schedule and nothing else: tree, position map, stash and
//! both path operations are the shared plain-tree frame
//! (`crate::plain_tree`), which Circuit ORAM schedules differently.
//!
//! Configuration is a [`RingConfig`] in its `Z`-slot encoding
//! ([`RingConfig::z_slot`]), so layout sizing, sharding and auditing share
//! one configuration type across protocols.

use crate::config::RingConfig;
use crate::oblivious::ProtocolKind;
use crate::plain_tree::{plain_tree_protocol, PlainTree, Take};
use crate::plan::{AccessPlan, OpKind};
use crate::protocol::AccessOutcome;
use crate::types::BlockId;

/// A Path ORAM controller over a lazily materialized tree.
#[derive(Debug)]
pub struct PathOram {
    tree: PlainTree,
}

impl PathOram {
    /// Creates a Path ORAM from the pipeline's [`RingConfig`] encoding.
    ///
    /// # Panics
    ///
    /// Panics if `ring` fails [`RingConfig::validate`] or if
    /// `ring.bucket_slots() != ring.z` — Path ORAM buckets are exactly
    /// `Z` slots ([`RingConfig::z_slot`]).
    #[must_use]
    pub fn from_ring(ring: RingConfig, seed: u64) -> Self {
        Self {
            tree: PlainTree::new(ring, seed),
        }
    }

    /// Performs one access: full path read, remap, full path write-back.
    /// The outcome carries a single [`OpKind::ReadPath`] plan (reads
    /// followed by write-back touches).
    ///
    /// # Panics
    ///
    /// Panics if `block` is not below `RingOram::COLD_BASE`.
    pub fn access(&mut self, block: BlockId) -> AccessOutcome {
        let tree = &mut self.tree;
        let path = tree.locate(block);
        let mut plans = tree.pool.plans();
        let mut touches = tree.pool.touches(0);
        let (target_index, source) = tree.read_path(path, Some(block), Take::All, &mut touches);
        tree.remap_target(block, source);
        tree.refill_path(path, &mut touches);
        plans.push(AccessPlan::new(OpKind::ReadPath, touches, target_index));
        tree.finish(plans, source)
    }

    /// Returns an outcome's buffers to the engine's pools.
    pub fn recycle_outcome(&mut self, outcome: AccessOutcome) {
        self.tree.recycle_outcome(outcome);
    }
}

plain_tree_protocol!(PathOram, ProtocolKind::Path);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oblivious::ObliviousProtocol;
    use crate::protocol::TargetSource;

    fn small() -> RingConfig {
        RingConfig::test_small().z_slot()
    }

    #[test]
    fn access_moves_full_path() {
        let cfg = small();
        let mut o = PathOram::from_ring(cfg.clone(), 1);
        let out = o.access(BlockId(3));
        assert_eq!(out.plans.len(), 1);
        let plan = &out.plans[0];
        assert_eq!(plan.kind, OpKind::ReadPath);
        assert_eq!(plan.reads(), (cfg.z * cfg.levels) as usize);
        assert_eq!(plan.writes(), (cfg.z * cfg.levels) as usize);
    }

    #[test]
    fn blocks_survive_many_accesses() {
        let mut o = PathOram::from_ring(small(), 2);
        for i in 0..300 {
            let out = o.access(BlockId(i % 23));
            o.recycle_outcome(out);
        }
        o.check_invariants();
        // Every one of the 23 blocks must still be reachable.
        for i in 0..23 {
            let out = o.access(BlockId(i));
            assert!(!matches!(out.source, TargetSource::New), "block {i} lost");
            o.recycle_outcome(out);
        }
        o.check_invariants();
    }

    #[test]
    fn stash_stays_bounded_under_uniform_load() {
        let mut o = PathOram::from_ring(small(), 3);
        for i in 0..2000 {
            let out = o.access(BlockId(i % 100));
            o.recycle_outcome(out);
        }
        // Classic Path ORAM result: stash stays tiny w.h.p. for Z = 4.
        assert!(
            o.stash_peak() < 50,
            "stash peak {} unexpectedly large",
            o.stash_peak()
        );
    }

    #[test]
    fn tree_top_cache_reduces_traffic() {
        let mut cfg = small();
        cfg.tree_top_cached_levels = 3;
        let mut o = PathOram::from_ring(cfg.clone(), 4);
        let out = o.access(BlockId(1));
        assert_eq!(out.plans[0].reads(), (cfg.z * (cfg.levels - 3)) as usize);
    }

    #[test]
    fn stats_accumulate() {
        let mut o = PathOram::from_ring(small(), 5);
        let a = o.access(BlockId(1));
        assert_eq!(a.source, TargetSource::New);
        o.recycle_outcome(a);
        let b = o.access(BlockId(1));
        assert!(!matches!(b.source, TargetSource::New));
        o.recycle_outcome(b);
        assert_eq!(o.stats().read_paths, 2);
        assert_eq!(o.stats().new_blocks, 1);
        assert_eq!(o.stats().stash_samples.len(), 2);
    }

    #[test]
    fn recycled_buffers_are_reused() {
        let mut o = PathOram::from_ring(small(), 6);
        let out = o.access(BlockId(1));
        o.recycle_outcome(out);
        assert_eq!(o.tree.pool.pooled(), (1, 1));
    }

    #[test]
    #[should_panic(expected = "below COLD_BASE")]
    fn cold_id_space_protected() {
        let mut o = PathOram::from_ring(small(), 7);
        let _ = o.access(BlockId(crate::RingOram::COLD_BASE));
    }
}
