//! The position map: block → path label.
//!
//! In hardware the position map is a (recursively compressible) on-chip
//! table inside the secure processor. Here program blocks, which arrive in
//! no particular order, live in a hash map that assigns fresh uniform paths
//! lazily and on every remap; the Ring engine's pre-loaded *cold* blocks,
//! whose identifiers are handed out sequentially from `COLD_BASE`, live in
//! a dense table indexed by `id - COLD_BASE` that packs each path in the
//! `⌈log2 paths⌉` bits a path needs (23 at the paper's geometry) —
//! millions of entries that are written once per materialized bucket and
//! never hashed.

use oram_rng::Rng;

use crate::bucket::Slab;
use crate::fasthash::DetHashMap;

use crate::types::{BlockId, PathId};

/// Identifiers at or above this value form the dense cold-block range:
/// they must enter the map in sequence (`COLD_BASE`, `COLD_BASE + 1`, …).
pub(crate) const COLD_BASE: u64 = 1 << 40;

/// Program block ids are below this bound (a slot word keeps an id in 30
/// bits); every engine refuses a program access at or above it.
pub const PROGRAM_ID_BOUND: u64 = 1 << 30;

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
/// let p = pm.remap(BlockId(7), &mut rng);
/// assert!(p.0 < 128);
/// // Stable until remapped.
/// assert_eq!(pm.lookup(BlockId(7)), Some(p));
/// ```
#[derive(Debug, Clone)]
pub struct PositionMap {
    paths: u64,
    /// Program blocks (`id < COLD_BASE`).
    map: DetHashMap<BlockId, PathId>,
    /// Cold blocks: the path of block `COLD_BASE + i` is bits
    /// `i * width ..` of these words (low bits first, an entry may straddle
    /// two words), in slab chunks, so the table grows without copying or
    /// doubling.
    cold: Slab<u64>,
    /// Bits per cold path: `⌈log2 paths⌉`, 0 for a one-path tree.
    width: u32,
    /// Cold blocks tracked.
    cold_len: usize,
}

impl PositionMap {
    /// A position map over `paths` leaves.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is zero or above 2^32 (a cold path is at most 32
    /// bits).
    #[must_use]
    pub fn new(paths: u64) -> Self {
        assert!((1..=1 << 32).contains(&paths), "paths must be in 1..=2^32");
        Self {
            paths,
            map: DetHashMap::default(),
            cold: Slab::new(1, usize::MAX),
            width: u64::BITS - (paths - 1).leading_zeros(),
            cold_len: 0,
        }
    }

    /// Where cold entry `i` starts: its first word and the bit in it.
    fn cold_bits(&self, i: usize) -> (usize, u32) {
        let bit = i as u64 * u64::from(self.width);
        ((bit / 64) as usize, (bit % 64) as u32)
    }

    /// The path of cold entry `i < cold_len`.
    fn cold_path(&self, i: usize) -> u64 {
        if self.width == 0 {
            return 0;
        }
        let (word, shift) = self.cold_bits(i);
        let mut bits = *self.cold.at(word) >> shift;
        if shift + self.width > 64 {
            bits |= *self.cold.at(word + 1) << (64 - shift);
        }
        bits & ((1 << self.width) - 1)
    }

    /// Sets cold entry `i` (allocated) to `path`, which fits the width.
    fn set_cold_path(&mut self, i: usize, path: u64) {
        if self.width == 0 {
            return;
        }
        let (word, shift) = self.cold_bits(i);
        let mask = (1u64 << self.width) - 1;
        let low = self.cold.at_mut(word);
        *low = (*low & !(mask << shift)) | path << shift;
        if shift + self.width > 64 {
            let high = self.cold.at_mut(word + 1);
            *high = (*high & !(mask >> (64 - shift))) | path >> (64 - shift);
        }
    }

    /// Number of blocks currently tracked.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.map.len() + self.cold_len
    }

    /// The path currently assigned to `block`, if any.
    #[must_use]
    pub fn lookup(&self, block: BlockId) -> Option<PathId> {
        match block.0.checked_sub(COLD_BASE) {
            Some(i) => {
                let i = usize::try_from(i).ok().filter(|&i| i < self.cold_len)?;
                Some(PathId(self.cold_path(i)))
            }
            None => self.map.get(&block).copied(),
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
        let cold = (0..self.cold_len as u64).map(|i| BlockId(COLD_BASE + i));
        let cold = cold.flat_map(|b| Some((b, self.lookup(b)?)));
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
        let len = self.cold_len as u64;
        assert!(i <= len, "cold block ids must be inserted in sequence");
        let i = i as usize;
        if i == self.cold_len {
            self.cold_len += 1;
            let bits = self.cold_len as u64 * u64::from(self.width);
            while (self.cold.len() as u64) * 64 < bits {
                self.cold.push_row();
            }
        }
        self.set_cold_path(i, path.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_rng::StdRng;

    #[test]
    fn lazy_assignment_is_stable() {
        // A block gets its path on first use, and keeps it until remapped.
        let mut pm = PositionMap::new(64);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(pm.lookup(BlockId(1)), None);
        let p = pm.remap(BlockId(1), &mut rng);
        assert_eq!(pm.lookup(BlockId(1)), Some(p));
        assert_eq!(pm.lookup(BlockId(1)), Some(p));
        assert_eq!(pm.len(), 1);
    }

    #[test]
    fn remap_changes_distribution_not_identity() {
        let mut pm = PositionMap::new(1 << 16);
        let mut rng = StdRng::seed_from_u64(4);
        let p0 = pm.remap(BlockId(9), &mut rng);
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
            let p = pm.remap(BlockId(b), &mut rng);
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
        assert_eq!(pm.len(), 0);
    }

    #[test]
    fn cold_ids_fill_the_dense_range_in_order() {
        let mut pm = PositionMap::new(16);
        pm.insert(BlockId(3), PathId(9)); // a program block, hashed
        for i in 0..5 {
            pm.insert(BlockId(COLD_BASE + i), PathId(i));
        }
        assert_eq!(pm.len(), 6);
        assert!(pm.map.len() == 1 && pm.cold_len == 5, "cold ids never hash");
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
        assert_eq!(pm.lookup(BlockId(COLD_BASE)), Some(PathId(1)));
        let p = pm.remap(BlockId(COLD_BASE), &mut rng);
        assert_eq!(pm.lookup(BlockId(COLD_BASE)), Some(p));
        assert_eq!(pm.len(), 1);
        // The next id in sequence may be assigned by a remap too.
        let q = pm.remap(BlockId(COLD_BASE + 1), &mut rng);
        assert_eq!(pm.lookup(BlockId(COLD_BASE + 1)), Some(q));
        assert!(pm.len() == 2 && pm.map.is_empty());
    }

    #[test]
    #[should_panic(expected = "in sequence")]
    fn cold_ids_cannot_skip() {
        let mut pm = PositionMap::new(8);
        pm.insert(BlockId(COLD_BASE + 1), PathId(0));
    }

    /// Cold paths round-trip at every width a tree can have — 0 bits (one
    /// path), 23 (the paper's geometry) and 32 — across `u64`-word and
    /// slab-chunk boundaries, overwritten in place as a remap does,
    /// without disturbing their neighbours.
    #[test]
    fn cold_paths_round_trip_at_their_packed_width() {
        use crate::bucket::CHUNK_ROWS;
        for (paths, width) in [(1u64, 0), (1 << 23, 23), (1 << 32, 32)] {
            let mut pm = PositionMap::new(paths);
            assert_eq!(pm.width, width);
            // Past the second chunk of words at every width but 0.
            let n = (2 * CHUNK_ROWS * 64) / (width.max(1) as usize) + 70;
            let mut rng = StdRng::seed_from_u64(u64::from(width));
            let mut expect: Vec<u64> = (0..n)
                .map(|i| match i % 5 {
                    0 => 0,
                    1 => paths - 1,
                    _ => rng.gen_range(0..paths),
                })
                .collect();
            for (i, &p) in expect.iter().enumerate() {
                pm.insert(BlockId(COLD_BASE + i as u64), PathId(p));
            }
            assert!(
                width == 0 || pm.cold.len() > 2 * CHUNK_ROWS,
                "{width}: three chunks"
            );
            // Entries that straddle two words, and the ones either side of
            // a chunk's last word, are overwritten with all ones and zeros.
            let straddle = (0..n).filter(|&i| {
                let (_, shift) = pm.cold_bits(i);
                shift + width > 64
            });
            let boundary = (0..n).filter(|&i| pm.cold_bits(i).0 % CHUNK_ROWS == CHUNK_ROWS - 1);
            let (straddle, boundary): (Vec<usize>, Vec<usize>) =
                (straddle.take(40).collect(), boundary.collect());
            assert_eq!(straddle.len(), if width % 32 == 0 { 0 } else { 40 });
            assert!(width == 0 || boundary.len() >= 4, "{width}: {boundary:?}");
            let chosen = [straddle, boundary].concat();
            for (k, &i) in chosen.iter().enumerate() {
                expect[i] = if k % 2 == 0 { paths - 1 } else { 0 };
                pm.insert(BlockId(COLD_BASE + i as u64), PathId(expect[i]));
            }
            let _ = pm.remap(BlockId(COLD_BASE + n as u64 - 1), &mut rng);
            expect[n - 1] = pm.lookup(BlockId(COLD_BASE + n as u64 - 1)).unwrap().0;
            for (i, &p) in expect.iter().enumerate() {
                assert_eq!(
                    pm.lookup(BlockId(COLD_BASE + i as u64)),
                    Some(PathId(p)),
                    "{width}: {i}"
                );
            }
            assert_eq!(pm.lookup(BlockId(COLD_BASE + n as u64)), None);
            assert_eq!(pm.len(), n);
        }
    }
}
