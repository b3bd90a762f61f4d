//! Core identifier types for the ORAM tree.
//!
//! All identifiers are newtypes so that block identifiers, path labels and
//! bucket indices cannot be mixed up — they all wrap integers of similar
//! magnitude and confusing them is the classic ORAM-implementation bug.

/// A logical data block identifier (the program-visible block address).
///
/// One block corresponds to one cache line (64 B in the paper's setup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub u64);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A path label: the index of a leaf, in `0..2^L` for an `L+1`-level tree.
///
/// Each leaf identifies the unique root-to-leaf path used by ORAM accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PathId(pub u64);

impl std::fmt::Display for PathId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A bucket's flat heap index: the root is 0, level `l` occupies indices
/// `2^l - 1 .. 2^(l+1) - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BucketId(pub u64);

impl std::fmt::Display for BucketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A tree level; the root is level 0, leaves are level `L`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Level(pub u32);

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// What a single read-path slot access fetched, from the controller's
/// (secret) point of view. On the memory bus every fetch looks identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchKind {
    /// The slot held the block the program asked for.
    Target(BlockId),
    /// The slot held a *green* real block — a real block consumed as if it
    /// were a dummy (the paper's Compact Bucket optimization).
    Green(BlockId),
    /// The slot held a reserved dummy block.
    Dummy,
}

impl FetchKind {
    /// The real block carried by this fetch, if any.
    #[must_use]
    pub fn block(&self) -> Option<BlockId> {
        match self {
            Self::Target(b) | Self::Green(b) => Some(*b),
            Self::Dummy => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut set = std::collections::HashSet::new();
        set.insert(BlockId(1));
        set.insert(BlockId(1));
        set.insert(BlockId(2));
        assert_eq!(set.len(), 2);
        assert!(PathId(3) > PathId(2));
        assert!(BucketId(0) < BucketId(1));
    }

    #[test]
    fn display_forms_are_distinct() {
        assert_eq!(BlockId(7).to_string(), "B7");
        assert_eq!(PathId(7).to_string(), "P7");
        assert_eq!(BucketId(7).to_string(), "b7");
        assert_eq!(Level(7).to_string(), "L7");
    }

    #[test]
    fn fetch_kind_block_extraction() {
        assert_eq!(FetchKind::Target(BlockId(1)).block(), Some(BlockId(1)));
        assert_eq!(FetchKind::Green(BlockId(2)).block(), Some(BlockId(2)));
        assert_eq!(FetchKind::Dummy.block(), None);
    }
}
