//! The stash: the controller's small on-chip buffer of in-flight blocks.

use crate::bucket::BlockData;
use crate::fasthash::DetHashMap;
use crate::tree::TreeGeometry;
use crate::types::{BlockId, Level, PathId};

/// One stash entry: the block's current path assignment plus its payload
/// (plaintext — the stash sits inside the trusted boundary).
#[derive(Debug, Clone, Default)]
struct StashEntry {
    path: PathId,
    data: Option<BlockData>,
}

/// The ORAM stash. Every entry is a real block together with its current
/// path assignment; eviction drains entries whose paths are compatible with
/// the eviction path.
///
/// The stash lives inside the trusted boundary, so its content and occupancy
/// are secret; the *simulated* occupancy is what the paper's Fig. 14/15
/// study, because exceeding the provisioned capacity forces background
/// evictions.
///
/// Eviction block selection is deterministic for a given seed: entries live
/// in a [`DetHashMap`] (seedless, so reproducible run-to-run) and every
/// order-sensitive operation selects by ascending block id — the engines
/// sort (or select and sort) the candidates [`Stash::for_each_candidate`] hands
/// them before taking any — so which blocks drain first never depends on
/// map layout.
#[derive(Debug, Clone, Default)]
pub struct Stash {
    entries: DetHashMap<BlockId, StashEntry>,
    /// High-water mark of occupancy.
    peak: usize,
}

impl Stash {
    /// An empty stash.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current number of blocks held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the stash is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Highest occupancy observed since creation.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Whether `block` is currently in the stash.
    #[must_use]
    pub fn contains(&self, block: BlockId) -> bool {
        self.entries.contains_key(&block)
    }

    /// Inserts or updates a block with its path assignment, keeping any
    /// payload already stored for it.
    pub fn insert(&mut self, block: BlockId, path: PathId) {
        let entry = self.entries.entry(block).or_default();
        entry.path = path;
        self.peak = self.peak.max(self.entries.len());
    }

    /// Inserts or updates a block with its path assignment and payload.
    pub fn insert_with_data(&mut self, block: BlockId, path: PathId, data: Option<BlockData>) {
        let entry = self.entries.entry(block).or_default();
        entry.path = path;
        if data.is_some() {
            entry.data = data;
        }
        self.peak = self.peak.max(self.entries.len());
    }

    /// Replaces the payload of a block already in the stash (the program's
    /// store) and returns the one it held. No-op if the block is absent.
    pub fn set_data(&mut self, block: BlockId, data: BlockData) -> Option<BlockData> {
        self.entries.get_mut(&block)?.data.replace(data)
    }

    /// The payload of a block in the stash, if any.
    #[must_use]
    pub fn data_of(&self, block: BlockId) -> Option<&[u8]> {
        self.entries.get(&block).and_then(|e| e.data.as_deref())
    }

    /// Removes a block (it was consumed by the program or placed in the
    /// tree); returns its path assignment if present.
    pub fn remove(&mut self, block: BlockId) -> Option<PathId> {
        self.entries.remove(&block).map(|e| e.path)
    }

    /// Calls `f` with every stashed block and the deepest level it may
    /// occupy along `evict_path`, in unspecified order. A write-back phase
    /// takes this one snapshot instead of re-walking the stash per level:
    /// it only *removes* entries, so selecting from the snapshot (in
    /// ascending block id, which the caller imposes) picks exactly the
    /// blocks a fresh per-level scan would.
    pub fn for_each_candidate(
        &self,
        geometry: &TreeGeometry,
        evict_path: PathId,
        mut f: impl FnMut(BlockId, Level),
    ) {
        for (&b, e) in &self.entries {
            f(b, geometry.shared_depth(e.path, evict_path));
        }
    }

    /// Removes `block` and returns its payload (`None` if the block is not
    /// stashed; `Some(None)` for a stashed block without payload).
    pub fn take(&mut self, block: BlockId) -> Option<Option<BlockData>> {
        self.entries.remove(&block).map(|e| e.data)
    }

    /// Iterates over `(block, path)` entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, PathId)> + '_ {
        self.entries.iter().map(|(&b, e)| (b, e.path))
    }
}

#[cfg(test)]
impl Stash {
    /// Removes and returns up to `max` blocks that may legally reside in
    /// the bucket at `level` along `evict_path` — i.e. whose assigned path
    /// shares at least `level` levels of prefix with the eviction path.
    ///
    /// The per-level rescan the engines' snapshot write-backs replace:
    /// called leaf to root it is the reference selection (greedy, deepest
    /// first, ascending block id) they are tested against.
    pub fn drain_for_bucket(
        &mut self,
        geometry: &TreeGeometry,
        evict_path: PathId,
        level: Level,
        max: usize,
    ) -> Vec<crate::bucket::BlockEntry> {
        let mut qualifying: Vec<BlockId> = self
            .entries
            .iter()
            .filter(|(_, e)| geometry.shared_depth(e.path, evict_path).0 >= level.0)
            .map(|(&b, _)| b)
            .collect();
        qualifying.sort_unstable();
        qualifying.truncate(max);
        qualifying
            .into_iter()
            .map(|b| {
                let e = self.entries.remove(&b).expect("just selected");
                (b, e.data)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = Stash::new();
        assert!(s.is_empty());
        s.insert(BlockId(1), PathId(4));
        assert!(s.contains(BlockId(1)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.remove(BlockId(1)), Some(PathId(4)));
        assert!(s.is_empty());
        assert_eq!(s.remove(BlockId(1)), None);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut s = Stash::new();
        for i in 0..5 {
            s.insert(BlockId(i), PathId(0));
        }
        for i in 0..5 {
            s.remove(BlockId(i));
        }
        assert_eq!(s.len(), 0);
        assert_eq!(s.peak(), 5);
    }

    #[test]
    fn drain_respects_path_compatibility() {
        let g = TreeGeometry::new(4); // 8 leaves
        let mut s = Stash::new();
        s.insert(BlockId(1), PathId(0)); // 0b000
        s.insert(BlockId(2), PathId(1)); // 0b001
        s.insert(BlockId(3), PathId(7)); // 0b111
                                         // Evicting along path 0; at leaf level only exact path matches.
        let ids =
            |v: Vec<crate::bucket::BlockEntry>| v.into_iter().map(|(b, _)| b).collect::<Vec<_>>();
        let leaf = s.drain_for_bucket(&g, PathId(0), Level(3), 4);
        assert_eq!(ids(leaf), vec![BlockId(1)]);
        // Level 2: paths 0 and 1 share two levels; block 2 qualifies.
        let l2 = s.drain_for_bucket(&g, PathId(0), Level(2), 4);
        assert_eq!(ids(l2), vec![BlockId(2)]);
        // Root level: everything qualifies.
        let root = s.drain_for_bucket(&g, PathId(0), Level(0), 4);
        assert_eq!(ids(root), vec![BlockId(3)]);
        assert!(s.is_empty());
    }

    #[test]
    fn drain_honors_capacity_limit() {
        let g = TreeGeometry::new(4);
        let mut s = Stash::new();
        for i in 0..10 {
            s.insert(BlockId(i), PathId(0));
        }
        let taken = s.drain_for_bucket(&g, PathId(0), Level(0), 3);
        assert_eq!(taken.len(), 3);
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn payloads_follow_blocks() {
        let mut s = Stash::new();
        s.insert_with_data(BlockId(1), PathId(0), Some(vec![7u8; 4].into_boxed_slice()));
        assert_eq!(s.data_of(BlockId(1)), Some(&[7u8, 7, 7, 7][..]));
        // Plain insert must not clobber the payload.
        s.insert(BlockId(1), PathId(3));
        assert_eq!(s.data_of(BlockId(1)), Some(&[7u8, 7, 7, 7][..]));
        // insert_with_data(None) keeps the old payload too.
        s.insert_with_data(BlockId(1), PathId(5), None);
        assert_eq!(s.data_of(BlockId(1)), Some(&[7u8, 7, 7, 7][..]));
        // set_data replaces it.
        s.set_data(BlockId(1), vec![9u8].into_boxed_slice());
        assert_eq!(s.data_of(BlockId(1)), Some(&[9u8][..]));
        // Draining carries the payload out.
        let g = TreeGeometry::new(4);
        let drained = s.drain_for_bucket(&g, PathId(5), Level(0), 4);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].1.as_deref(), Some(&[9u8][..]));
    }

    #[test]
    fn set_data_on_absent_block_is_noop() {
        let mut s = Stash::new();
        s.set_data(BlockId(9), vec![1].into_boxed_slice());
        assert_eq!(s.data_of(BlockId(9)), None);
        assert!(s.is_empty());
    }

    #[test]
    fn iter_exposes_entries() {
        let mut s = Stash::new();
        s.insert(BlockId(5), PathId(2));
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![(BlockId(5), PathId(2))]);
    }
}
