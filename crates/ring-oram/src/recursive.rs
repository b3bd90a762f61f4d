//! Recursive position map: the arithmetic of a recursion stack.
//!
//! The paper (like most architecture-track ORAM papers) assumes the
//! position map lives on-chip. At the paper's scale that is generous: a
//! 24-level tree serving 2^23-leaf paths for up to `Z x (2^24 - 1)` blocks
//! needs tens of megabytes of map — larger than the 4 MB LLC of Table I.
//! The standard remedy (Shi et al. / Path ORAM) is **recursion**: store the
//! position map itself in a smaller ORAM of the same protocol, and that
//! ORAM's map in a yet smaller one, until the innermost map fits on-chip.
//!
//! [`RecursiveConfig`] says how deep that stack is and how large each map
//! ORAM's tree must be. The stack itself is the pipeline planner's list of
//! tiers: tier 0 is the data ORAM, tier `i + 1` holds tier `i`'s positions,
//! and every logical access is one full, independent access on every tier,
//! innermost first, so the memory system sees the true recursive traffic.

use crate::config::RingConfig;
use crate::protocol::RingOram;

/// Shape of a recursive position map: how many positions it tracks and how
/// they pack into map blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecursiveConfig {
    /// Number of blocks whose positions are tracked (the protected address
    /// space, in blocks).
    pub tracked_blocks: u64,
    /// Position-map entries packed into one map block. With 64 B blocks and
    /// ~4 B compressed leaf labels, 16 is realistic.
    pub positions_per_block: u32,
    /// Recursion stops once a map level has at most this many entries
    /// (they then fit in on-chip SRAM).
    pub max_onchip_entries: u64,
}

impl RecursiveConfig {
    /// A realistic setting for the paper's data ORAM: 2^23 tracked blocks,
    /// 16 positions per 64 B block, 64 Ki entries kept on-chip.
    #[must_use]
    pub fn hpca_default() -> Self {
        Self {
            tracked_blocks: 1 << 23,
            positions_per_block: 16,
            max_onchip_entries: 1 << 16,
        }
    }

    /// A small stack for tests: three map levels over 512 tracked blocks.
    #[must_use]
    pub fn test_small() -> Self {
        Self {
            tracked_blocks: 1 << 9,
            positions_per_block: 4,
            max_onchip_entries: 8,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.tracked_blocks == 0 || self.tracked_blocks > RingOram::COLD_BASE {
            return Err(format!(
                "tracked_blocks ({}) must be in 1..=2^40 (program block ids stay below \
                 RingOram::COLD_BASE)",
                self.tracked_blocks
            ));
        }
        if self.positions_per_block < 2 {
            return Err("positions_per_block must be at least 2".into());
        }
        if self.max_onchip_entries == 0 {
            return Err("max_onchip_entries must be nonzero".into());
        }
        Ok(())
    }

    /// Number of position-map ORAM levels the stack needs (0 = the map
    /// already fits on-chip).
    #[must_use]
    pub fn map_levels(&self) -> usize {
        let mut entries = self.tracked_blocks;
        let mut levels = 0;
        while entries > self.max_onchip_entries {
            entries = entries.div_ceil(u64::from(self.positions_per_block));
            levels += 1;
        }
        levels
    }

    /// The configuration of map level `i` (0 = the outermost map ORAM,
    /// holding the data ORAM's positions). Map ORAMs reuse the data ORAM's
    /// `(Z, S, A, Y)` but shrink the tree to fit their block count.
    #[must_use]
    pub fn map_config(&self, data: &RingConfig, i: usize) -> RingConfig {
        let mut entries = self.tracked_blocks;
        for _ in 0..=i {
            entries = entries.div_ceil(u64::from(self.positions_per_block));
        }
        // Size the tree so `entries` blocks fill roughly half the real
        // capacity: Z * 2^L / 2 >= entries.
        let mut levels = 2u32;
        while u64::from(data.z) << (levels - 1) < entries * 2 {
            levels += 1;
        }
        RingConfig {
            levels,
            tree_top_cached_levels: data.tree_top_cached_levels.min(levels - 1),
            ..data.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_level_arithmetic() {
        let cfg = RecursiveConfig::test_small();
        // 512 entries / 4 per block = 128 -> 32 -> 8: 3 map levels.
        assert_eq!(cfg.map_levels(), 3);
        let big = RecursiveConfig::hpca_default();
        // 2^23 / 16 = 2^19 -> 2^15 <= 2^16: 2 map levels.
        assert_eq!(big.map_levels(), 2);
    }

    #[test]
    fn no_recursion_when_map_fits() {
        let mut cfg = RecursiveConfig::test_small();
        cfg.max_onchip_entries = cfg.tracked_blocks;
        assert_eq!(cfg.map_levels(), 0);
        cfg.max_onchip_entries -= 1;
        assert_eq!(cfg.map_levels(), 1);
    }

    #[test]
    fn map_trees_shrink_down_the_stack() {
        let cfg = RecursiveConfig::test_small();
        let data = RingConfig::test_small();
        let mut last = data.levels;
        for i in 0..cfg.map_levels() {
            let mc = cfg.map_config(&data, i);
            mc.validate().expect("map config valid");
            assert!(mc.levels <= last, "map level {i} grew");
            assert_eq!((mc.z, mc.s, mc.a, mc.y), (data.z, data.s, data.a, data.y));
            last = mc.levels;
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        RecursiveConfig::test_small().validate().unwrap();
        for bad in [
            RecursiveConfig {
                positions_per_block: 0,
                ..RecursiveConfig::test_small()
            },
            RecursiveConfig {
                positions_per_block: 1,
                ..RecursiveConfig::test_small()
            },
            RecursiveConfig {
                tracked_blocks: 0,
                ..RecursiveConfig::test_small()
            },
            RecursiveConfig {
                tracked_blocks: RingOram::COLD_BASE + 1,
                ..RecursiveConfig::test_small()
            },
            RecursiveConfig {
                max_onchip_entries: 0,
                ..RecursiveConfig::test_small()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
