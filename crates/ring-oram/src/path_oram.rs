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
//! eviction phase — one access is exactly one
//! [`OpKind::ReadPath`](crate::OpKind::ReadPath) plan whose touch list
//! carries the reads followed by the write-back (plus a retry plan when a
//! transit fault was recovered). The engine is that schedule and nothing
//! else: tree, position map, stash, data path and both path operations are
//! the frame every engine shares (`crate::plain_tree`), which Circuit ORAM
//! and Ring ORAM schedule differently.
//!
//! Configuration is a [`RingConfig`] in its `Z`-slot encoding
//! ([`RingConfig::z_slot`]), so layout sizing, sharding and auditing share
//! one configuration type across protocols.

use crate::config::RingConfig;
use crate::oblivious::{Op, ProtocolKind};
use crate::plain_tree::{read_kind, PlainTree, Take};
use crate::protocol::AccessOutcome;
use crate::types::BlockId;

/// A Path ORAM controller over a lazily materialized tree.
#[derive(Debug)]
pub struct PathOram {
    pub(crate) tree: PlainTree,
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
            tree: PlainTree::new(ProtocolKind::Path, ring, seed),
        }
    }

    /// One access: full path read, remap, full path write-back, as a single
    /// plan (reads followed by write-back touches) — an
    /// [`OpKind::ReadPath`], or for a cover (`None`: no target, a uniformly
    /// drawn path) an [`OpKind::DummyReadPath`] — plus a
    /// [`OpKind::RetryRead`] when the transit-fault step re-read a slot.
    ///
    /// # Panics
    ///
    /// Panics if the target is not below `RingOram::PROGRAM_ID_BOUND`.
    pub(crate) fn schedule(&mut self, target: Option<(BlockId, Op<'_>)>) -> (AccessOutcome, bool) {
        let tree = &mut self.tree;
        let block = target.map(|(b, _)| b);
        let (path, _) = tree.locate(block);
        let mut plans = tree.pool.plans();
        let mut reads = tree.reads(read_kind(block), 0);
        let source = tree.read_path(path, block, Take::All, &mut reads);
        let read = tree.remap_target(target, source);
        tree.refill_path(path, &mut reads.touches);
        tree.emit(&mut plans, reads);
        (tree.finish(plans, source), read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oblivious::ObliviousProtocol;
    use crate::plan::OpKind;
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
        assert_eq!(o.tree.pool.pooled(), (1, 2));
    }

    #[test]
    #[should_panic(expected = "below PROGRAM_ID_BOUND")]
    fn cold_id_space_protected() {
        let mut o = PathOram::from_ring(small(), 7);
        let _ = o.access(BlockId(crate::RingOram::PROGRAM_ID_BOUND));
    }
}
