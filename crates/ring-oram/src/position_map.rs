//! The position map: block → path label.
//!
//! In hardware the position map is a (recursively compressible) on-chip
//! table inside the secure processor. Here program blocks, which arrive in
//! no particular order, live in a hash map that assigns fresh uniform paths
//! lazily and on every remap; the Ring engine's pre-loaded *cold* blocks,
//! whose identifiers are handed out sequentially from [`COLD_BASE`], live in
//! a dense table indexed by `id - COLD_BASE` — millions of entries that are
//! written once per materialized bucket and never hashed.

use oram_rng::Rng;

use crate::bucket::Slab;
use crate::fasthash::DetHashMap;

use crate::types::{BlockId, PathId};

/// Identifiers at or above this value form the dense cold-block range:
/// they must enter the map in sequence (`COLD_BASE`, `COLD_BASE + 1`, …).
pub const COLD_BASE: u64 = 1 << 40;

/// Lazy position map over `2^L` paths.
///
/// # Examples
///
/// ```
/// use ring_oram::position_map::PositionMap;
/// use ring_oram::types::BlockId;
/// use oram_rng::StdRng;
///
/// let mut pm = PositionMap::new(128);
/// let mut rng = StdRng::seed_from_u64(1);
/// let p = pm.lookup_or_assign(BlockId(7), &mut rng);
/// assert!(p.0 < 128);
/// // Stable until remapped.
/// assert_eq!(pm.lookup_or_assign(BlockId(7), &mut rng), p);
/// ```
#[derive(Debug, Clone)]
pub struct PositionMap {
    paths: u64,
    /// Program blocks (`id < COLD_BASE`).
    map: DetHashMap<BlockId, PathId>,
    /// Cold blocks: row `i` is the path of block `COLD_BASE + i`, in slab
    /// chunks, so the table grows without copying or doubling.
    cold: Slab<PathId>,
}

impl PositionMap {
    /// A position map over `paths` leaves.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is zero.
    #[must_use]
    pub fn new(paths: u64) -> Self {
        assert!(paths > 0, "paths must be nonzero");
        Self {
            paths,
            map: DetHashMap::default(),
            cold: Slab::new(1, usize::MAX),
        }
    }

    /// Number of leaves the map draws from.
    #[must_use]
    pub fn path_count(&self) -> u64 {
        self.paths
    }

    /// Number of blocks currently tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len() + self.cold.len()
    }

    /// Whether no blocks are tracked yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty() && self.cold.len() == 0
    }

    /// The path currently assigned to `block`, if any.
    #[must_use]
    pub fn lookup(&self, block: BlockId) -> Option<PathId> {
        match block.0.checked_sub(COLD_BASE) {
            Some(i) => {
                let i = usize::try_from(i).ok().filter(|&i| i < self.cold.len())?;
                Some(*self.cold.at(i))
            }
            None => self.map.get(&block).copied(),
        }
    }

    /// The path assigned to `block`, drawing a fresh uniform path on first
    /// use (lazy initialization of an untouched block).
    ///
    /// # Panics
    ///
    /// Panics if `block` is a cold id beyond the next one in sequence.
    pub fn lookup_or_assign<R: Rng + ?Sized>(&mut self, block: BlockId, rng: &mut R) -> PathId {
        match self.lookup(block) {
            Some(p) => p,
            None => self.remap(block, rng),
        }
    }

    /// Remaps `block` to a fresh uniform path (called on every real access,
    /// per the ORAM protocol) and returns the new path.
    ///
    /// # Panics
    ///
    /// Panics if `block` is a cold id beyond the next one in sequence.
    pub fn remap<R: Rng + ?Sized>(&mut self, block: BlockId, rng: &mut R) -> PathId {
        let p = PathId(rng.gen_range(0..self.paths));
        self.insert(block, p);
        p
    }

    /// Snapshot of all `(block, path)` entries, in unspecified order (used
    /// by invariant checks and debugging; hardware has no such operation).
    #[must_use]
    pub fn entries(&self) -> Vec<(BlockId, PathId)> {
        self.iter().collect()
    }

    /// Iterates over all `(block, path)` entries, in unspecified order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (BlockId, PathId)> + '_ {
        let cold = (0..self.cold.len()).map(|i| (BlockId(COLD_BASE + i as u64), *self.cold.at(i)));
        self.map.iter().map(|(&b, &p)| (b, p)).chain(cold)
    }

    /// Pins `block` to `path` without randomness (used when materializing
    /// pre-loaded "cold" tree contents, whose position must match the bucket
    /// they were placed in).
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of range, or if `block` is a cold id beyond
    /// the next one in sequence (the dense range has no gaps).
    pub fn insert(&mut self, block: BlockId, path: PathId) {
        assert!(path.0 < self.paths, "path out of range");
        let Some(i) = block.0.checked_sub(COLD_BASE) else {
            self.map.insert(block, path);
            return;
        };
        let len = self.cold.len() as u64;
        assert!(i <= len, "cold block ids must be inserted in sequence");
        let row = if i == len {
            self.cold.push_row()
        } else {
            i as usize
        };
        *self.cold.at_mut(row) = path;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_rng::StdRng;

    #[test]
    fn lazy_assignment_is_stable() {
        let mut pm = PositionMap::new(64);
        let mut rng = StdRng::seed_from_u64(3);
        let p1 = pm.lookup_or_assign(BlockId(1), &mut rng);
        let p2 = pm.lookup_or_assign(BlockId(1), &mut rng);
        assert_eq!(p1, p2);
        assert_eq!(pm.len(), 1);
    }

    #[test]
    fn remap_changes_distribution_not_identity() {
        let mut pm = PositionMap::new(1 << 16);
        let mut rng = StdRng::seed_from_u64(4);
        let p0 = pm.lookup_or_assign(BlockId(9), &mut rng);
        let mut changed = false;
        for _ in 0..8 {
            if pm.remap(BlockId(9), &mut rng) != p0 {
                changed = true;
            }
        }
        assert!(changed, "8 remaps over 2^16 paths must move the block");
        assert_eq!(pm.len(), 1);
    }

    #[test]
    fn paths_are_in_range_and_roughly_uniform() {
        let mut pm = PositionMap::new(16);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0u32; 16];
        for b in 0..4096 {
            let p = pm.lookup_or_assign(BlockId(b), &mut rng);
            assert!(p.0 < 16);
            counts[p.0 as usize] += 1;
        }
        // Each bin expects 256; a loose 3-sigma style bound suffices.
        for (i, &c) in counts.iter().enumerate() {
            assert!((150..400).contains(&c), "bin {i} has {c}");
        }
    }

    #[test]
    fn insert_pins_path() {
        let mut pm = PositionMap::new(8);
        pm.insert(BlockId(2), PathId(5));
        assert_eq!(pm.lookup(BlockId(2)), Some(PathId(5)));
    }

    #[test]
    #[should_panic(expected = "path out of range")]
    fn insert_checks_range() {
        let mut pm = PositionMap::new(8);
        pm.insert(BlockId(2), PathId(8));
    }

    #[test]
    fn entries_snapshot_everything() {
        let mut pm = PositionMap::new(8);
        pm.insert(BlockId(1), PathId(2));
        pm.insert(BlockId(5), PathId(7));
        let mut e = pm.entries();
        e.sort();
        assert_eq!(e, vec![(BlockId(1), PathId(2)), (BlockId(5), PathId(7))]);
    }

    #[test]
    fn lookup_absent_is_none() {
        let pm = PositionMap::new(8);
        assert_eq!(pm.lookup(BlockId(1)), None);
        assert!(pm.is_empty());
    }

    #[test]
    fn cold_ids_fill_the_dense_range_in_order() {
        let mut pm = PositionMap::new(16);
        pm.insert(BlockId(3), PathId(9)); // a program block, hashed
        for i in 0..5 {
            pm.insert(BlockId(COLD_BASE + i), PathId(i));
        }
        assert_eq!(pm.len(), 6);
        assert!(
            pm.map.len() == 1 && pm.cold.len() == 5,
            "cold ids never hash"
        );
        assert_eq!(pm.lookup(BlockId(COLD_BASE + 4)), Some(PathId(4)));
        assert_eq!(pm.lookup(BlockId(COLD_BASE + 5)), None);
        assert_eq!(pm.lookup(BlockId(u64::MAX)), None);
        let mut e = pm.entries();
        e.sort();
        let mut expect = vec![(BlockId(3), PathId(9))];
        expect.extend((0..5).map(|i| (BlockId(COLD_BASE + i), PathId(i))));
        assert_eq!(e, expect);
    }

    #[test]
    fn remap_and_assign_stay_coherent_on_cold_ids() {
        let mut pm = PositionMap::new(1 << 16);
        let mut rng = StdRng::seed_from_u64(6);
        pm.insert(BlockId(COLD_BASE), PathId(1));
        // A known cold id: looked up, not redrawn; remap overwrites in place.
        assert_eq!(pm.lookup_or_assign(BlockId(COLD_BASE), &mut rng), PathId(1));
        let p = pm.remap(BlockId(COLD_BASE), &mut rng);
        assert_eq!(pm.lookup(BlockId(COLD_BASE)), Some(p));
        assert_eq!(pm.len(), 1);
        // The next id in sequence may be assigned lazily too.
        let q = pm.lookup_or_assign(BlockId(COLD_BASE + 1), &mut rng);
        assert_eq!(pm.lookup(BlockId(COLD_BASE + 1)), Some(q));
        assert!(pm.len() == 2 && pm.map.is_empty());
    }

    #[test]
    #[should_panic(expected = "in sequence")]
    fn cold_ids_cannot_skip() {
        let mut pm = PositionMap::new(8);
        pm.insert(BlockId(COLD_BASE + 1), PathId(0));
    }
}
