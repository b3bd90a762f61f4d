//! Circuit ORAM (Wang et al., CCS'15 lineage): the low-client-bandwidth
//! point of the protocol design space.
//!
//! Where Path ORAM rewrites the whole read path on every access and Ring
//! ORAM amortizes evictions over `A` selective reads, Circuit ORAM keeps
//! the read path *read-only* — the target block alone is removed into the
//! stash — and pays for placement with a fixed number of deterministic
//! eviction passes per access along reverse-lexicographic paths
//! ([`EVICTIONS_PER_ACCESS`]; the canonical choice of two keeps the stash
//! bounded by a constant w.h.p. for `Z >= 2`).
//!
//! This implementation models the *bandwidth-observable* behaviour at
//! bucket-slot granularity, the same contract the other engines follow:
//! a read path touches all `Z` slots of every off-chip bucket on the
//! target's path (selective *removal* is a content decision, not a traffic
//! one — on the bus every slot is transferred), and each eviction reads
//! and rewrites all `Z` slots of every off-chip bucket on its path. The
//! single-block "move along the path" of the literature's circuit
//! formulation is subsumed here by a greedy leaf-first write-back, which
//! places at least as well and keeps the plan shape identical.
//!
//! Buckets are exactly `Z` slots — no dummy budget, no metadata counters.
//! The configuration is a [`RingConfig`] in its `Z`-slot encoding
//! ([`RingConfig::z_slot`]), as for Path ORAM. The engine is another
//! schedule over the frame Path and Ring ORAM run on (`crate::plain_tree`):
//! an eviction is Path ORAM's read and write-back with no target, on the
//! eviction path.

use crate::config::RingConfig;
use crate::oblivious::{Op, ProtocolKind};
use crate::plain_tree::{read_kind, PlainTree, Take};
use crate::plan::OpKind;
use crate::protocol::AccessOutcome;
use crate::types::BlockId;

/// Deterministic evictions per access: the canonical Circuit ORAM rate
/// (two reverse-lexicographic paths per access bound the stash w.h.p.).
pub const EVICTIONS_PER_ACCESS: usize = 2;

/// The Circuit ORAM controller over a lazily materialized `Z`-slot tree.
#[derive(Debug)]
pub struct CircuitOram {
    pub(crate) tree: PlainTree,
    /// Eviction counter `G` driving the reverse lexicographic order.
    eviction_count: u64,
}

impl CircuitOram {
    /// Creates a controller with an initially empty tree.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RingConfig::validate`] or if
    /// `cfg.bucket_slots() != cfg.z` — Circuit ORAM buckets are exactly
    /// `Z` slots ([`RingConfig::z_slot`]).
    #[must_use]
    pub fn new(cfg: RingConfig, seed: u64) -> Self {
        Self {
            tree: PlainTree::new(ProtocolKind::Circuit, cfg, seed),
            eviction_count: 0,
        }
    }

    /// One access: a read-only path fetch removing the target into the
    /// stash — an [`OpKind::ReadPath`], or for a cover (`None`: no target,
    /// a uniformly drawn path) an [`OpKind::DummyReadPath`], followed by a
    /// [`OpKind::RetryRead`] when the transit-fault step re-read a slot —
    /// then [`EVICTIONS_PER_ACCESS`] deterministic evictions, each draining
    /// the next reverse-lexicographic path into the stash and refilling it
    /// leaf-first.
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
        let source = tree.read_path(path, block, Take::TargetOnly, &mut reads);
        let read = tree.remap_target(target, source);
        tree.emit(&mut plans, reads);
        for _ in 0..EVICTIONS_PER_ACCESS {
            let path = tree
                .geometry
                .reverse_lexicographic_path(self.eviction_count);
            self.eviction_count += 1;
            let mut reads = tree.reads(OpKind::Eviction, 0);
            tree.read_path(path, None, Take::Eviction, &mut reads);
            tree.refill_path(path, &mut reads.touches);
            tree.stats.evictions += 1;
            tree.emit(&mut plans, reads);
        }
        (tree.finish(plans, source), read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oblivious::ObliviousProtocol;
    use crate::plan::AccessPlan;
    use crate::protocol::TargetSource;
    use crate::tree::TreeGeometry;
    use crate::types::Level;

    fn test_cfg() -> RingConfig {
        RingConfig::test_small().z_slot()
    }

    #[test]
    fn access_shape_is_one_read_path_plus_two_evictions() {
        let cfg = test_cfg();
        let mut o = CircuitOram::new(cfg.clone(), 1);
        let out = o.access(BlockId(3));
        assert_eq!(out.plans.len(), 1 + EVICTIONS_PER_ACCESS);
        let off = (cfg.levels - cfg.tree_top_cached_levels) as usize;
        let read = &out.plans[0];
        assert_eq!(read.kind, OpKind::ReadPath);
        assert_eq!(read.reads(), cfg.z as usize * off);
        assert_eq!(read.writes(), 0);
        for ev in &out.plans[1..] {
            assert_eq!(ev.kind, OpKind::Eviction);
            assert_eq!(ev.reads(), cfg.z as usize * off);
            assert_eq!(ev.writes(), cfg.z as usize * off);
        }
    }

    #[test]
    fn tree_top_cache_reduces_traffic() {
        let mut cfg = test_cfg();
        cfg.tree_top_cached_levels = 3;
        let mut o = CircuitOram::new(cfg.clone(), 2);
        let out = o.access(BlockId(1));
        let off = (cfg.levels - 3) as usize;
        assert_eq!(out.plans[0].reads(), cfg.z as usize * off);
    }

    #[test]
    fn blocks_survive_many_accesses() {
        let mut o = CircuitOram::new(test_cfg(), 3);
        for i in 0..500 {
            let out = o.access(BlockId(i % 23));
            o.recycle_outcome(out);
        }
        o.check_invariants();
        for i in 0..23 {
            let out = o.access(BlockId(i));
            // Every block is locatable: in stash, or found on its path.
            assert!(!matches!(out.source, TargetSource::New), "block {i} lost");
            o.recycle_outcome(out);
        }
        o.check_invariants();
    }

    #[test]
    fn stash_stays_bounded_under_uniform_load() {
        let mut o = CircuitOram::new(test_cfg(), 4);
        for i in 0..2000 {
            let out = o.access(BlockId(i % 100));
            o.recycle_outcome(out);
        }
        // Circuit ORAM's claim: two deterministic evictions per access
        // keep the stash constant-bounded w.h.p.
        assert!(
            o.stash_peak() < 50,
            "stash peak {} unexpectedly large",
            o.stash_peak()
        );
    }

    #[test]
    fn evictions_follow_reverse_lexicographic_order() {
        let cfg = test_cfg();
        let mut o = CircuitOram::new(cfg.clone(), 5);
        let out = o.access(BlockId(1));
        // First eviction pass uses G = 0, second G = 1: their leaf buckets
        // are the reverse-lexicographic paths 0 and 1. Reads run root→leaf,
        // so the last read touch is the leaf bucket.
        let g = TreeGeometry::new(cfg.levels);
        let leaf_of = |plan: &AccessPlan| plan.touches[plan.reads() - 1].bucket;
        assert_eq!(
            leaf_of(&out.plans[1]),
            g.bucket_at(g.reverse_lexicographic_path(0), Level(cfg.levels - 1))
        );
        assert_eq!(
            leaf_of(&out.plans[2]),
            g.bucket_at(g.reverse_lexicographic_path(1), Level(cfg.levels - 1))
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut o = CircuitOram::new(test_cfg(), 6);
        let a = o.access(BlockId(1));
        assert_eq!(a.source, TargetSource::New);
        o.recycle_outcome(a);
        let b = o.access(BlockId(1));
        assert!(!matches!(b.source, TargetSource::New));
        o.recycle_outcome(b);
        assert_eq!(o.stats().read_paths, 2);
        assert_eq!(o.stats().evictions, 2 * EVICTIONS_PER_ACCESS as u64);
        assert_eq!(o.stats().new_blocks, 1);
        assert_eq!(o.stats().stash_samples.len(), 2);
    }

    #[test]
    #[should_panic(expected = "exactly Z slots")]
    fn rejects_dummy_budget_configs() {
        // A Ring-shaped config (S > Y) has bucket_slots > Z.
        let _ = CircuitOram::new(RingConfig::test_small(), 1);
    }

    #[test]
    fn recycled_buffers_are_reused() {
        let mut o = CircuitOram::new(test_cfg(), 7);
        let out = o.access(BlockId(1));
        o.recycle_outcome(out);
        assert_eq!(o.tree.pool.pooled(), (1, 2 + EVICTIONS_PER_ACCESS));
    }

    #[test]
    #[should_panic(expected = "below PROGRAM_ID_BOUND")]
    fn cold_id_space_protected() {
        let mut o = CircuitOram::new(test_cfg(), 8);
        // One past the base: the dense range would reject it only after
        // the first protocol-RNG draw.
        let _ = o.access(BlockId(crate::RingOram::COLD_BASE + 1));
    }
}
