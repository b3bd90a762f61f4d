//! Binary-tree geometry: bucket indexing, paths and the reverse
//! lexicographic eviction order.

use crate::types::{BucketId, Level, PathId};

/// Pure tree-geometry helpers for an `levels`-level binary tree.
///
/// The tree is indexed as a flat heap: root = bucket 0, the children of
/// bucket `b` are `2b + 1` and `2b + 2`. A path is identified by its leaf
/// label in `0 .. 2^(levels-1)`; the bucket on level `l` along path `p` is
/// the ancestor of leaf `p` at that level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeGeometry {
    levels: u32,
}

impl TreeGeometry {
    /// Geometry of a tree with `levels` levels (`L + 1` in paper notation).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is 0 or exceeds 40 (the flat index would overflow
    /// well before, but 40 keeps every intermediate in range).
    #[must_use]
    pub fn new(levels: u32) -> Self {
        assert!((1..=40).contains(&levels), "levels must be in 1..=40");
        Self { levels }
    }

    /// Number of levels (`L + 1`).
    #[must_use]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Deepest level index (`L`).
    #[must_use]
    pub fn max_level(&self) -> u32 {
        self.levels - 1
    }

    /// Number of leaves / paths.
    #[must_use]
    pub fn leaf_count(&self) -> u64 {
        1u64 << self.max_level()
    }

    /// Total bucket count.
    #[must_use]
    pub fn bucket_count(&self) -> u64 {
        (1u64 << self.levels) - 1
    }

    /// Bucket on `level` along `path`.
    ///
    /// # Panics
    ///
    /// Debug-panics if the level or path are out of range.
    #[must_use]
    pub fn bucket_at(&self, path: PathId, level: Level) -> BucketId {
        debug_assert!(level.0 < self.levels, "level out of range");
        debug_assert!(path.0 < self.leaf_count(), "path out of range");
        let prefix = path.0 >> (self.max_level() - level.0);
        BucketId((1u64 << level.0) - 1 + prefix)
    }

    /// Level of a bucket given its flat index.
    #[must_use]
    pub fn level_of(&self, bucket: BucketId) -> Level {
        debug_assert!(bucket.0 < self.bucket_count(), "bucket out of range");
        Level(u64::BITS - (bucket.0 + 1).leading_zeros() - 1)
    }

    /// Whether `bucket` lies on `path`.
    #[must_use]
    pub fn on_path(&self, bucket: BucketId, path: PathId) -> bool {
        let level = self.level_of(bucket);
        self.bucket_at(path, level) == bucket
    }

    /// The deepest level at which the paths `a` and `b` share a bucket
    /// (0 = only the root is shared).
    #[must_use]
    pub fn shared_depth(&self, a: PathId, b: PathId) -> Level {
        let diff = a.0 ^ b.0;
        if diff == 0 {
            return Level(self.max_level());
        }
        let highest = u64::BITS - diff.leading_zeros(); // 1-based bit position
        Level(self.max_level() - highest)
    }

    /// The `g`-th eviction path in **reverse lexicographic order**: the
    /// bit-reversal of `g mod 2^L` over `L` bits (Ring ORAM's deterministic
    /// eviction order, which minimizes bucket overlap between consecutive
    /// evictions).
    #[must_use]
    pub fn reverse_lexicographic_path(&self, g: u64) -> PathId {
        let l = self.max_level();
        if l == 0 {
            return PathId(0);
        }
        let masked = g & (self.leaf_count() - 1);
        PathId(masked.reverse_bits() >> (64 - l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TreeGeometry {
        /// The buckets along `path` from the root (level 0) to the leaf.
        pub(crate) fn path_buckets(&self, path: PathId) -> Vec<BucketId> {
            (0..self.levels)
                .map(|l| self.bucket_at(path, Level(l)))
                .collect()
        }
    }

    fn t4() -> TreeGeometry {
        TreeGeometry::new(4) // 15 buckets, 8 leaves
    }

    #[test]
    fn counts() {
        let t = t4();
        assert_eq!(t.levels(), 4);
        assert_eq!(t.max_level(), 3);
        assert_eq!(t.leaf_count(), 8);
        assert_eq!(t.bucket_count(), 15);
    }

    #[test]
    fn bucket_at_matches_heap_layout() {
        let t = t4();
        // Root is bucket 0 for every path.
        for p in 0..8 {
            assert_eq!(t.bucket_at(PathId(p), Level(0)), BucketId(0));
        }
        // Leaves are buckets 7..15 in order.
        for p in 0..8 {
            assert_eq!(t.bucket_at(PathId(p), Level(3)), BucketId(7 + p));
        }
        // Path 5 = binary 101: level 1 -> child 1 (bucket 2),
        // level 2 -> prefix 10 (bucket 3 + 2 = 5).
        assert_eq!(t.bucket_at(PathId(5), Level(1)), BucketId(2));
        assert_eq!(t.bucket_at(PathId(5), Level(2)), BucketId(5));
    }

    #[test]
    fn level_of_inverts_bucket_at() {
        let t = t4();
        for p in 0..8 {
            for l in 0..4 {
                let b = t.bucket_at(PathId(p), Level(l));
                assert_eq!(t.level_of(b), Level(l));
            }
        }
    }

    #[test]
    fn path_buckets_runs_root_to_leaf() {
        let t = t4();
        let buckets = t.path_buckets(PathId(6));
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0], BucketId(0));
        assert_eq!(buckets[3], BucketId(13));
        // Each bucket is a child of the previous one.
        for w in buckets.windows(2) {
            let parent = w[0].0;
            let child = w[1].0;
            assert!(child == 2 * parent + 1 || child == 2 * parent + 2);
        }
    }

    #[test]
    fn on_path_agrees_with_path_buckets() {
        let t = t4();
        for p in 0..8 {
            let on: Vec<BucketId> = t.path_buckets(PathId(p));
            for b in 0..15 {
                assert_eq!(
                    t.on_path(BucketId(b), PathId(p)),
                    on.contains(&BucketId(b)),
                    "bucket {b} path {p}"
                );
            }
        }
    }

    #[test]
    fn shared_depth_is_symmetric_and_bounded() {
        let t = t4();
        assert_eq!(t.shared_depth(PathId(3), PathId(3)), Level(3));
        // 0b000 and 0b100 diverge at the root's children.
        assert_eq!(t.shared_depth(PathId(0), PathId(4)), Level(0));
        // 0b010 and 0b011 share down to level 2.
        assert_eq!(t.shared_depth(PathId(2), PathId(3)), Level(2));
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(
                    t.shared_depth(PathId(a), PathId(b)),
                    t.shared_depth(PathId(b), PathId(a))
                );
            }
        }
    }

    #[test]
    fn reverse_lex_visits_all_paths_once_per_round() {
        let t = t4();
        let mut seen = std::collections::HashSet::new();
        for g in 0..8 {
            seen.insert(t.reverse_lexicographic_path(g));
        }
        assert_eq!(seen.len(), 8, "one full round covers every path");
        // And it repeats with period 2^L.
        assert_eq!(
            t.reverse_lexicographic_path(3),
            t.reverse_lexicographic_path(3 + 8)
        );
    }

    #[test]
    fn reverse_lex_consecutive_paths_diverge_early() {
        // The defining property: consecutive eviction paths share as few
        // buckets as possible — paths g and g+1 differ in the *top* bit of
        // the leaf label, so they share only the root.
        let t = TreeGeometry::new(6);
        for g in 0..16 {
            let p0 = t.reverse_lexicographic_path(g);
            let p1 = t.reverse_lexicographic_path(g + 1);
            assert_eq!(
                t.shared_depth(p0, p1),
                Level(0),
                "consecutive reverse-lex paths should only share the root"
            );
        }
    }

    #[test]
    fn single_level_tree_degenerates_gracefully() {
        let t = TreeGeometry::new(1);
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.bucket_count(), 1);
        assert_eq!(t.reverse_lexicographic_path(5), PathId(0));
        assert_eq!(t.bucket_at(PathId(0), Level(0)), BucketId(0));
    }

    #[test]
    #[should_panic(expected = "levels must be in 1..=40")]
    fn zero_levels_rejected() {
        let _ = TreeGeometry::new(0);
    }
}
