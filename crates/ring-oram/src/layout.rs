//! Mapping tree buckets to flat physical addresses.
//!
//! The **subtree layout** (Ren et al., adopted by the paper) groups
//! `k` consecutive tree levels into subtrees and stores each subtree's
//! buckets contiguously, sized so one subtree fits the memory system's
//! natural locality window (a DRAM row per channel — with the paper's
//! channel-striped address mapping that window is `row_bytes x channels`).
//! A root-to-leaf path then touches one window per `k` levels instead of a
//! scattered row per bucket.
//!
//! The naive breadth-first layout of the ablation study is the same table
//! at `k = 1` with unpadded one-bucket slots: bucket `b` sits at
//! `b * bucket_bytes`, each *level* is contiguous, and a path touches a
//! different row at almost every level.

use crate::config::RingConfig;
use crate::tree::TreeGeometry;
use crate::types::BucketId;

/// A placement of `(bucket, slot)` pairs at flat byte addresses: subtrees
/// of `k` levels, each in a slot of `subtree_slot_bytes`, laid out
/// group-major breadth-first. Injective, and every address is below
/// [`TreeLayout::total_bytes`].
///
/// | constructor             | `k`                    | slot bytes                                    |
/// |-------------------------|------------------------|-----------------------------------------------|
/// | [`TreeLayout::subtree`] | best fit of the window | `(2^k - 1)` buckets, padded to a power of two |
/// | [`TreeLayout::naive`]   | 1                      | one bucket, unpadded                          |
#[derive(Debug, Clone)]
pub struct TreeLayout {
    geometry: TreeGeometry,
    bucket_bytes: u64,
    block_bytes: u64,
    /// Byte size of one subtree slot.
    subtree_slot_bytes: u64,
    /// Total number of subtree instances.
    total_subtrees: u64,
    /// Per-level constants so the hot [`TreeLayout::addr_of`] needs no
    /// division: `lut[level]` folds the level's group membership into
    /// shift/mask form.
    lut: Vec<LevelLut>,
}

/// Per-level address constants: everything `addr_of` needs once the
/// bucket's level is known.
#[derive(Debug, Clone, Copy)]
struct LevelLut {
    /// First bucket id of the level: `2^level - 1`.
    level_base: u64,
    /// Subtree instances in all preceding groups (`group_prefix[level/k]`).
    group_base: u64,
    /// Depth of the level inside its group: `level - (level/k)*k`. Shifting
    /// a position-in-level right by this yields the subtree root position;
    /// masking by `2^depth - 1` yields the local path.
    depth: u32,
}

impl TreeLayout {
    /// Builds the subtree layout of Ren et al. for `cfg`'s tree inside a
    /// locality window of `locality_bytes` (the row-set size: DRAM row
    /// bytes times channels under the paper's striped mapping).
    ///
    /// Each subtree slot is padded to the next power of two, which keeps
    /// slots aligned so no subtree ever straddles a window boundary. The
    /// group height `k` is chosen to maximize `k x packing-efficiency`
    /// among all `k` whose padded slot fits the window — balancing fewer
    /// windows per path (larger `k`) against padding waste (`(2^k - 1)`
    /// buckets never fill a power-of-two slot exactly).
    ///
    /// # Panics
    ///
    /// Panics if `locality_bytes` is zero or `cfg` fails validation.
    #[must_use]
    pub fn subtree(cfg: &RingConfig, locality_bytes: u64) -> Self {
        assert!(locality_bytes > 0, "locality_bytes must be nonzero");
        Self::grouped(cfg, |bucket_bytes| {
            let mut best: Option<(u32, u64, f64)> = None; // (k, padded, score)
            for k in 1..=cfg.levels {
                let raw = ((1u64 << k) - 1).saturating_mul(bucket_bytes);
                let padded = raw.next_power_of_two();
                if padded > locality_bytes {
                    break;
                }
                let efficiency = raw as f64 / padded as f64;
                let score = f64::from(k) * efficiency;
                if best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((k, padded, score));
                }
            }
            // A single bucket exceeds the window: fall back to k = 1 with
            // bucket-granular power-of-two slots.
            best.map_or((1, bucket_bytes.next_power_of_two()), |(k, padded, _)| {
                (k, padded)
            })
        })
    }

    /// Builds the naive breadth-first layout for `cfg`'s tree: bucket `b`
    /// at `b * bucket_bytes` (the ablation baseline).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    #[must_use]
    pub fn naive(cfg: &RingConfig) -> Self {
        Self::grouped(cfg, |bucket_bytes| (1, bucket_bytes))
    }

    /// Validates `cfg`, asks `row` for `(k, subtree_slot_bytes)` given the
    /// bucket size, and builds the per-level table for that grouping.
    fn grouped(cfg: &RingConfig, row: impl FnOnce(u64) -> (u32, u64)) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid RingConfig: {e}");
        }
        let bucket_bytes = cfg.bucket_bytes();
        let (k, subtree_slot_bytes) = row(bucket_bytes);
        let groups = cfg.levels.div_ceil(k);
        let mut group_prefix = Vec::with_capacity(groups as usize + 1);
        let mut total: u64 = 0;
        for g in 0..groups {
            group_prefix.push(total);
            total += 1u64 << (g * k);
        }
        group_prefix.push(total);
        let lut = (0..cfg.levels)
            .map(|level| LevelLut {
                level_base: (1u64 << level) - 1,
                group_base: group_prefix[(level / k) as usize],
                depth: level - (level / k) * k,
            })
            .collect();
        Self {
            geometry: TreeGeometry::new(cfg.levels),
            bucket_bytes,
            block_bytes: u64::from(cfg.block_bytes),
            subtree_slot_bytes,
            total_subtrees: total,
            lut,
        }
    }

    /// Byte address of `slot` within `bucket`.
    #[must_use]
    pub fn addr_of(&self, bucket: BucketId, slot: u32) -> u64 {
        debug_assert!(bucket.0 < self.geometry.bucket_count(), "bucket range");
        let l = self.lut[self.geometry.level_of(bucket).0 as usize];
        let pos = bucket.0 - l.level_base;
        let mask = (1u64 << l.depth) - 1;
        let subtree = l.group_base + (pos >> l.depth);
        let local = mask + (pos & mask);
        subtree * self.subtree_slot_bytes
            + local * self.bucket_bytes
            + u64::from(slot) * self.block_bytes
    }

    /// Total bytes of the address range the layout occupies (including
    /// alignment padding).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total_subtrees * self.subtree_slot_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeGeometry;
    use crate::types::PathId;

    fn cfg() -> RingConfig {
        RingConfig::test_small() // 8 levels, Z=4, S=4, Y=0 -> 8 slots, 512 B
    }

    /// Levels grouped per subtree (`k`; 1 for the naive layout), read off
    /// the per-level constants: level `k` is the first to start a group.
    fn levels_per_subtree(l: &TreeLayout) -> u32 {
        let later = l.lut.iter().skip(1).position(|lut| lut.depth == 0);
        later.map_or(l.lut.len(), |i| i + 1) as u32
    }

    #[test]
    fn k_matches_locality_window() {
        let c = cfg();
        // Bucket = 512 B. With a 4 KiB window: 2^3 - 1 = 7 buckets = 3.5 KiB
        // fits, 15 buckets = 7.5 KiB does not.
        let l = TreeLayout::subtree(&c, 4096);
        assert_eq!(levels_per_subtree(&l), 3);
        // With a 16 KiB window, 31 buckets = 15.5 KiB fits.
        let l = TreeLayout::subtree(&c, 16384);
        assert_eq!(levels_per_subtree(&l), 5);
    }

    #[test]
    fn hpca_default_grouping() {
        // Paper default: bucket = 12 slots x 64 B = 768 B (Y=8). Four
        // levels (15 buckets = 11.25 KiB in a 16 KiB slot) win the
        // locality-vs-padding tradeoff.
        let c = RingConfig::hpca_default();
        let l = TreeLayout::subtree(&c, 16384);
        assert_eq!(levels_per_subtree(&l), 4);
        // Baseline (Y=0): bucket = 20 x 64 = 1280 B. Three levels would pad
        // 8.75 KiB up to 16 KiB (45 % waste, and a 20 GB tree would no
        // longer fit the 32 GB module); two levels pack 3.75 KiB into 4 KiB.
        let b = RingConfig::hpca_baseline();
        let l = TreeLayout::subtree(&b, 16384);
        assert_eq!(levels_per_subtree(&l), 2);
        // Both trees fit the paper's 32 GB module.
        assert!(TreeLayout::subtree(&c, 16384).total_bytes() <= 32 * (1 << 30));
        assert!(TreeLayout::subtree(&b, 16384).total_bytes() <= 32 * (1 << 30));
    }

    #[test]
    fn addresses_are_unique_and_in_range() {
        let c = cfg();
        let l = TreeLayout::subtree(&c, 4096);
        let mut seen = std::collections::HashSet::new();
        for b in 0..c.bucket_count() {
            for s in 0..c.bucket_slots() {
                let a = l.addr_of(BucketId(b), s);
                assert!(a < l.total_bytes(), "addr {a} out of range");
                assert!(seen.insert(a), "duplicate addr {a}");
            }
        }
    }

    #[test]
    fn slots_within_bucket_are_contiguous() {
        let c = cfg();
        let l = TreeLayout::subtree(&c, 4096);
        let a0 = l.addr_of(BucketId(3), 0);
        let a1 = l.addr_of(BucketId(3), 1);
        assert_eq!(a1 - a0, u64::from(c.block_bytes));
    }

    #[test]
    fn path_touches_one_window_per_group() {
        let c = cfg(); // 8 levels
        let window = 4096;
        let l = TreeLayout::subtree(&c, window);
        let k = levels_per_subtree(&l); // 3
        let g = TreeGeometry::new(c.levels);
        let path = PathId(93);
        let mut windows = Vec::new();
        for b in g.path_buckets(path) {
            windows.push(l.addr_of(b, 0) / window);
        }
        // Levels in the same group share a window.
        for (lvl, w) in windows.iter().enumerate() {
            let group = lvl as u32 / k;
            assert_eq!(
                *w,
                windows[(group * k) as usize],
                "level {lvl} strayed from its group window"
            );
        }
        // Distinct groups use distinct windows.
        let distinct: std::collections::HashSet<_> = windows.iter().collect();
        assert_eq!(distinct.len(), c.levels.div_ceil(k) as usize);
    }

    #[test]
    fn subtree_padding_aligns_windows() {
        let c = cfg();
        let window = 4096;
        let l = TreeLayout::subtree(&c, window);
        for b in [0u64, 1, 7, 100, 254] {
            let a = l.addr_of(BucketId(b), 0);
            let end = l.addr_of(BucketId(b), c.bucket_slots() - 1) + 64;
            assert_eq!(a / window, (end - 1) / window, "bucket {b} straddles");
        }
    }

    #[test]
    fn naive_layout_is_dense_and_unique() {
        let c = cfg();
        let l = TreeLayout::naive(&c);
        assert_eq!(l.total_bytes(), c.bucket_count() * c.bucket_bytes());
        let mut seen = std::collections::HashSet::new();
        for b in 0..c.bucket_count() {
            for s in 0..c.bucket_slots() {
                assert!(seen.insert(l.addr_of(BucketId(b), s)));
            }
        }
        assert_eq!(seen.len() as u64, c.bucket_count() * 8);
    }

    /// FNV-1a fold of every slot address (bucket-major), `total_bytes`,
    /// `levels_per_subtree`.
    fn address_map(l: &TreeLayout, c: &RingConfig) -> (u64, u64, u32) {
        let mut h = oram_rng::FNV_OFFSET;
        for b in 0..c.bucket_count() {
            for s in 0..c.bucket_slots() {
                h = oram_rng::fnv1a_u64(h, l.addr_of(BucketId(b), s));
            }
        }
        (h, l.total_bytes(), levels_per_subtree(l))
    }

    /// Both address maps, recorded while the layout was a trait with two
    /// implementors; every access digest is a function of these.
    #[test]
    fn address_maps_match_the_recorded_values() {
        let z_slot = RingConfig::test_small().z_slot();
        let rows = [
            (
                RingConfig::test_small(),
                (0x1F1D_CD33_6A17_0425, 0x49000, 3),
                (0xB964_7429_3832_34ED, 0x1FE00, 1),
            ),
            (
                RingConfig::test_small_cb(),
                (0x47E0_1D8D_E9FF_A825, 0x49000, 3),
                (0xC638_AB6A_BA04_12C9, 0x17E80, 1),
            ),
            (
                z_slot,
                (0x8D30_65AB_6FC6_F365, 0x11000, 4),
                (0xC5BD_B0AA_AE18_6AE5, 0xFF00, 1),
            ),
        ];
        for (c, subtree, naive) in rows {
            let got = address_map(&TreeLayout::subtree(&c, 4096), &c);
            assert_eq!(got, subtree, "subtree {c:?}: {got:#X?}");
            let got = address_map(&TreeLayout::naive(&c), &c);
            assert_eq!(got, naive, "naive {c:?}: {got:#X?}");
        }
    }

    #[test]
    fn total_bytes_includes_padding() {
        let c = cfg();
        let l = TreeLayout::subtree(&c, 4096);
        // 3-level subtrees over 8 levels: groups of sizes 1, 8, 64 subtrees
        // (last group has 2 levels but still one slot each).
        assert_eq!(l.total_bytes(), (1 + 8 + 64) * 4096);
    }

    #[test]
    fn cb_improves_packing_density() {
        // Fewer slots per bucket lets more levels share a window — the
        // secondary spatial benefit of the Compact Bucket.
        let baseline = TreeLayout::subtree(&RingConfig::hpca_baseline(), 16384);
        let cb = TreeLayout::subtree(&RingConfig::hpca_default(), 16384);
        assert!(levels_per_subtree(&cb) > levels_per_subtree(&baseline));
        assert!(cb.total_bytes() < baseline.total_bytes());
    }
}
