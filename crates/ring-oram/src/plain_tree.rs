//! The plain-tree engine frame: everything Path ORAM and Circuit ORAM share.
//!
//! Both protocols keep exactly `Z` block ids per bucket (no dummy slots, no
//! metadata), a position map and a stash, and both are made of the same two
//! path operations (Path ORAM, Stefanov et al., CCS'13): *read* a path —
//! transfer every off-chip slot and take every block, or the target alone,
//! into the stash — and *refill* it greedily, leaf first, from the stash.
//! [`PlainTree`] owns that state and those operations once; the engines are
//! schedules over it:
//!
//! * Path: `read_path(All)` → `remap_target` → `refill_path`, one plan;
//! * Circuit: `read_path(TargetOnly)` → `remap_target`, then per eviction
//!   `read_path(All, no target)` → `refill_path` along the next
//!   reverse-lexicographic path, one plan each.
//!
//! # Draw order
//!
//! The protocol RNG is drawn in [`PlainTree::locate`] (a block's first
//! touch only) and [`PlainTree::remap_target`], nowhere else, and the
//! write-back selects by ascending block id after a sort, so neither the
//! stash's map order nor the tree store's layout can reach a plan. Every
//! Path and Circuit golden digest rests on exactly that.
//!
//! Like the Ring engine, the steady state is allocation-free: plan and
//! touch vectors cycle through the [`PlanPool`], a bucket's blocks are
//! packed at the front of its slab row and drained and refilled in place,
//! and the write-back selects from one reused candidate snapshot.

use oram_rng::StdRng;

use crate::bucket::BucketTree;
use crate::config::RingConfig;
use crate::plan::{AccessPlan, PlanPool, SlotTouch};
use crate::position_map::{PositionMap, COLD_BASE};
use crate::protocol::{AccessOutcome, ProtocolStats, TargetSource};
use crate::stash::Stash;
use crate::tree::TreeGeometry;
use crate::types::{BlockId, Level, PathId};

/// What a path read moves into the stash.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Take {
    /// Every block on the path (Path ORAM's read; every eviction).
    All,
    /// The target alone — the path is otherwise left as it was (Circuit
    /// ORAM's read; on the bus every slot is transferred all the same).
    TargetOnly,
}

/// A lazily materialized tree of `Z`-slot buckets with its position map,
/// stash, protocol RNG, statistics and buffer pools.
pub(crate) struct PlainTree {
    cfg: RingConfig,
    pub(crate) geometry: TreeGeometry,
    /// Bucket contents: up to `Z` block ids packed at the front of each
    /// row (payloads are out of scope for the bandwidth/timing studies these
    /// engines serve). Rows live in the tree's slab chunks, so a
    /// materialized tree stops allocating.
    buckets: BucketTree,
    position_map: PositionMap,
    stash: Stash,
    rng: StdRng,
    pub(crate) stats: ProtocolStats,
    pub(crate) pool: PlanPool,
    /// `refill_path`: `(block, deepest eligible level, taken)` snapshot of
    /// the stash, ascending by block id.
    candidates: Vec<(BlockId, u32, bool)>,
}

impl std::fmt::Debug for PlainTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlainTree")
            .field("cfg", &self.cfg)
            .field("buckets_materialized", &self.buckets.materialized())
            .field("stash_len", &self.stash.len())
            .finish_non_exhaustive()
    }
}

impl PlainTree {
    /// An empty tree.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RingConfig::validate`] or if
    /// `cfg.bucket_slots() != cfg.z`: plain-tree buckets are exactly `Z`
    /// slots ([`RingConfig::z_slot`]).
    pub(crate) fn new(cfg: RingConfig, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid RingConfig: {e}");
        }
        assert!(
            cfg.bucket_slots() == cfg.z,
            "Path and Circuit ORAM buckets are exactly Z slots; pass RingConfig::z_slot(), \
             got Z = {}, S = {}, Y = {}",
            cfg.z,
            cfg.s,
            cfg.y
        );
        let geometry = TreeGeometry::new(cfg.levels);
        Self {
            buckets: BucketTree::new(&cfg),
            position_map: PositionMap::new(geometry.leaf_count()),
            cfg,
            geometry,
            stash: Stash::new(),
            rng: StdRng::seed_from_u64(seed),
            stats: ProtocolStats::default(),
            pool: PlanPool::default(),
            candidates: Vec::new(),
        }
    }

    /// The path `block` is mapped to, drawn on its first touch.
    ///
    /// # Panics
    ///
    /// Panics if `block` lies in the position map's dense cold-block range
    /// (`>= COLD_BASE`), before anything is drawn or changed.
    pub(crate) fn locate(&mut self, block: BlockId) -> PathId {
        assert!(
            block.0 < COLD_BASE,
            "program block ids must be below COLD_BASE"
        );
        self.position_map.lookup_or_assign(block, &mut self.rng)
    }

    /// Reads `path` root to leaf: appends `Z` read touches per off-chip
    /// bucket and moves what `take` names into the stash (with
    /// [`Take::TargetOnly`] the target is only removed; `remap_target`
    /// stashes it). Returns the index in `touches` of the read that carries
    /// `target`, when it came from an off-chip bucket, and where it was.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    pub(crate) fn read_path(
        &mut self,
        path: PathId,
        target: Option<BlockId>,
        take: Take,
        touches: &mut Vec<SlotTouch>,
    ) -> (Option<usize>, TargetSource) {
        let z = self.cfg.z;
        let mut target_index = None;
        let mut source = match target {
            Some(b) if self.stash.contains(b) => TargetSource::Stash,
            _ => TargetSource::New,
        };
        for lvl in 0..self.cfg.levels {
            let id = self.geometry.bucket_at(path, Level(lvl));
            let mut bucket = self.buckets.bucket_or_fill(id, |_| {});
            let off_chip = lvl >= self.cfg.tree_top_cached_levels;
            let found = target.and_then(|b| bucket.peek().find(b));
            if let Some(pos) = found {
                if off_chip {
                    target_index = Some(touches.len() + pos);
                    source = TargetSource::Tree(Level(lvl));
                } else {
                    source = TargetSource::TreeTop(Level(lvl));
                }
            }
            match take {
                Take::All => bucket.drain(|b| {
                    let p = self.position_map.lookup(b).expect("tree blocks are mapped");
                    self.stash.insert(b, p);
                }),
                Take::TargetOnly => {
                    if let Some(pos) = found {
                        bucket.swap_remove(pos);
                    }
                }
            }
            if off_chip {
                touches.extend((0..z).map(|slot| SlotTouch::read(id, slot)));
            }
        }
        (target_index, source)
    }

    /// Remaps the target of the access in progress and (re-)enters it in
    /// the stash under its new path; counts the access by `source`.
    pub(crate) fn remap_target(&mut self, block: BlockId, source: TargetSource) {
        let new_path = self.position_map.remap(block, &mut self.rng);
        self.stash.insert(block, new_path);
        self.stats.read_paths += 1;
        match source {
            TargetSource::Tree(_) => self.stats.targets_from_tree += 1,
            TargetSource::TreeTop(_) => self.stats.targets_from_treetop += 1,
            TargetSource::Stash => self.stats.targets_from_stash += 1,
            TargetSource::New => self.stats.new_blocks += 1,
        }
    }

    /// Writes `path` back leaf to root: each bucket takes, in ascending
    /// block id, the stashed blocks that may live that deep until it holds
    /// `Z`, and every off-chip bucket is rewritten in full (`Z` write
    /// touches) whatever it received. One candidate snapshot serves all
    /// levels — the phase only removes stash entries, so it selects exactly
    /// what `Stash::drain_for_bucket` would on a per-level rescan.
    pub(crate) fn refill_path(&mut self, path: PathId, touches: &mut Vec<SlotTouch>) {
        let z = self.cfg.z;
        let candidates = &mut self.candidates;
        candidates.clear();
        self.stash
            .for_each_candidate(&self.geometry, path, |b, depth| {
                candidates.push((b, depth.0, false));
            });
        candidates.sort_unstable_by_key(|&(b, _, _)| b);
        for lvl in (0..self.cfg.levels).rev() {
            let id = self.geometry.bucket_at(path, Level(lvl));
            let mut bucket = self.buckets.bucket_or_fill(id, |_| {});
            for c in candidates.iter_mut() {
                if bucket.peek().real_count() == z as usize {
                    break;
                }
                if !c.2 && c.1 >= lvl {
                    c.2 = true;
                    self.stash.remove(c.0);
                    bucket.append(c.0);
                }
            }
            if lvl >= self.cfg.tree_top_cached_levels {
                touches.extend((0..z).map(|slot| SlotTouch::write(id, slot)));
            }
        }
    }

    /// Closes an access: samples the stash and wraps the plans.
    pub(crate) fn finish(&mut self, plans: Vec<AccessPlan>, source: TargetSource) -> AccessOutcome {
        self.stats.stash_samples.push(self.stash.len());
        AccessOutcome { plans, source }
    }

    /// Returns an outcome's buffers to the pool.
    pub(crate) fn recycle_outcome(&mut self, outcome: AccessOutcome) {
        self.pool.recycle(outcome.plans);
    }

    /// Pre-sizes per-access bookkeeping for `n` further accesses.
    pub(crate) fn reserve_accesses(&mut self, n: usize) {
        self.stats.stash_samples.reserve(n);
    }

    /// Current stash occupancy.
    pub(crate) fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Peak stash occupancy.
    pub(crate) fn stash_peak(&self) -> usize {
        self.stash.peak()
    }

    /// Buckets touched at least once (every level of every path walked).
    pub(crate) fn materialized_buckets(&self) -> usize {
        self.buckets.materialized()
    }

    /// Snapshot of `(block, path)` position-map entries.
    pub(crate) fn position_entries(&self) -> Vec<(BlockId, PathId)> {
        self.position_map.entries()
    }

    /// Verifies the frame's invariants (tests, the benchmark's check pass).
    ///
    /// # Panics
    ///
    /// Panics unless every mapped block is held exactly once — in the stash
    /// or in a bucket on its path —, no bucket holds more than `Z` blocks,
    /// and buckets and stash together hold exactly the mapped blocks.
    pub(crate) fn check_invariants(&self) {
        let max_level = self.geometry.max_level();
        for (block, path) in self.position_map.iter() {
            let on_path: usize = self
                .buckets
                .on_path(path, max_level)
                .map(|bucket| bucket.real_blocks().iter().filter(|&&b| b == block).count())
                .sum();
            let copies = on_path + usize::from(self.stash.contains(block));
            assert!(
                copies == 1,
                "{block} mapped to {path} is held {copies} times in the stash and on its path"
            );
        }
        let mut held = self.stash.len();
        for bucket in self.buckets.buckets() {
            assert!(
                bucket.real_count() <= self.cfg.z as usize,
                "a bucket is over capacity (Z = {}): {bucket:?}",
                self.cfg.z
            );
            held += bucket.real_count();
        }
        assert_eq!(
            held,
            self.position_map.len(),
            "buckets and stash hold {held} blocks, the position map {}",
            self.position_map.len()
        );
    }
}

/// Implements [`ObliviousProtocol`](crate::oblivious::ObliviousProtocol) for
/// an engine that is a schedule over a `tree: PlainTree` field: `access` is
/// the engine's own, everything else has its one body on the frame.
macro_rules! plain_tree_protocol {
    ($engine:ty, $kind:expr) => {
        impl crate::oblivious::ObliviousProtocol for $engine {
            fn kind(&self) -> crate::oblivious::ProtocolKind {
                $kind
            }
            fn access(&mut self, block: BlockId) -> AccessOutcome {
                <$engine>::access(self, block)
            }
            fn recycle_outcome(&mut self, outcome: AccessOutcome) {
                self.tree.recycle_outcome(outcome);
            }
            fn reserve_accesses(&mut self, n: usize) {
                self.tree.reserve_accesses(n);
            }
            fn stats(&self) -> &crate::protocol::ProtocolStats {
                &self.tree.stats
            }
            fn stash_len(&self) -> usize {
                self.tree.stash_len()
            }
            fn stash_peak(&self) -> usize {
                self.tree.stash_peak()
            }
            fn materialized_buckets(&self) -> usize {
                self.tree.materialized_buckets()
            }
            fn check_invariants(&self) {
                self.tree.check_invariants();
            }
            fn position_entries(&self) -> Vec<(BlockId, crate::types::PathId)> {
                self.tree.position_entries()
            }
        }
    };
}
pub(crate) use plain_tree_protocol;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BucketId;
    use oram_rng::Rng;

    fn cfg(levels: u32, z: u32) -> RingConfig {
        RingConfig {
            levels,
            z,
            ..RingConfig::test_small()
        }
        .z_slot()
    }

    /// A frame after 400 Path-schedule accesses over 60 blocks.
    fn busy_tree() -> PlainTree {
        let mut tree = PlainTree::new(cfg(6, 4), 5);
        let mut touches = Vec::new();
        for i in 0..400 {
            let block = BlockId(i * 7 % 60);
            let path = tree.locate(block);
            let (_, source) = tree.read_path(path, Some(block), Take::All, &mut touches);
            tree.remap_target(block, source);
            tree.refill_path(path, &mut touches);
        }
        tree.check_invariants();
        tree
    }

    /// Some block the tree (not the stash) holds, with its bucket.
    fn a_tree_block(tree: &mut PlainTree) -> (BlockId, BucketId) {
        let (block, path) = tree
            .position_entries()
            .into_iter()
            .find(|&(b, _)| !tree.stash.contains(b))
            .expect("400 accesses leave blocks in the tree");
        let id = (0..tree.cfg.levels)
            .map(|l| tree.geometry.bucket_at(path, Level(l)))
            .find(|&id| {
                tree.buckets
                    .get_mut(id)
                    .is_some_and(|b| b.peek().find(block).is_some())
            })
            .expect("on its path");
        (block, id)
    }

    #[test]
    fn refill_path_selects_what_a_per_level_drain_would() {
        let mut rng = StdRng::seed_from_u64(0x5E1EC7);
        for case in 0..200 {
            let levels = rng.gen_range(4..11u32);
            let z = [1, 2, 4][rng.gen_range(0..3usize)];
            let mut tree = PlainTree::new(cfg(levels, z), case);
            let leaves = tree.geometry.leaf_count();
            for b in 0..rng.gen_range(0..3 * u64::from(z * levels) + 1) {
                let path = PathId(rng.gen_range(0..leaves));
                tree.position_map.insert(BlockId(b * 3 + 1), path);
                tree.stash.insert(BlockId(b * 3 + 1), path);
            }
            let path = PathId(rng.gen_range(0..leaves));
            let mut reference = tree.stash.clone();
            let mut touches = Vec::new();
            tree.refill_path(path, &mut touches);

            let mut expect_touches = Vec::new();
            for lvl in (0..levels).rev() {
                let id = tree.geometry.bucket_at(path, Level(lvl));
                let expect: Vec<BlockId> = reference
                    .drain_for_bucket(&tree.geometry, path, Level(lvl), z as usize)
                    .into_iter()
                    .map(|(b, _)| b)
                    .collect();
                let got = tree.buckets.get_mut(id).expect("every level materialized");
                assert_eq!(
                    got.peek().real_blocks(),
                    expect,
                    "case {case}: level {lvl} of {path}"
                );
                expect_touches.extend((0..z).map(|slot| SlotTouch::write(id, slot)));
            }
            assert_eq!(touches, expect_touches, "case {case}");
            let sorted = |s: &Stash| {
                let mut v: Vec<_> = s.iter().collect();
                v.sort();
                v
            };
            assert_eq!(sorted(&tree.stash), sorted(&reference), "case {case}");
            tree.check_invariants();
        }
    }

    #[test]
    #[should_panic(expected = "held 2 times")]
    fn invariants_reject_a_duplicated_block() {
        let mut tree = busy_tree();
        let (block, _) = a_tree_block(&mut tree);
        tree.stash.insert(block, PathId(0));
        tree.check_invariants();
    }

    #[test]
    #[should_panic(expected = "held 0 times")]
    fn invariants_reject_a_dropped_block() {
        let mut tree = busy_tree();
        let (block, id) = a_tree_block(&mut tree);
        let mut bucket = tree.buckets.get_mut(id).expect("materialized");
        let slot = bucket.peek().find(block).expect("held");
        bucket.swap_remove(slot);
        tree.check_invariants();
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn invariants_reject_an_overfull_bucket() {
        let mut tree = busy_tree();
        // The root lies on every path, so each block is still held once.
        // A row has room for exactly `Z` blocks, so the bucket refuses the
        // block that would overfill it before any check could see it.
        for b in 1000..1005 {
            tree.position_map.insert(BlockId(b), PathId(b % 32));
            let mut root = tree.buckets.get_mut(BucketId(0)).expect("materialized");
            root.append(BlockId(b));
        }
        tree.check_invariants();
    }

    #[test]
    #[should_panic(expected = "buckets and stash hold")]
    fn invariants_reject_an_unmapped_resident() {
        let mut tree = busy_tree();
        tree.stash.insert(BlockId(1000), PathId(0));
        tree.check_invariants();
    }
}
