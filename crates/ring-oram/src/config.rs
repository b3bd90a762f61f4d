//! Ring ORAM / String ORAM configuration.

/// Parameters of a Ring ORAM instance, including the String ORAM Compact
/// Bucket (CB) extension.
///
/// Terminology follows the paper:
///
/// * `levels` — total tree levels `L + 1` (root at level 0, leaves at `L`);
/// * `z` — real-block slots per bucket;
/// * `s` — *logical* dummy budget per bucket: a bucket may be touched `s`
///   times between shuffles;
/// * `a` — eviction frequency: one eviction per `a` read-path operations;
/// * `y` — CB rate: up to `y` of the `s` dummy accesses may be served by
///   real ("green") blocks, so only `s - y` physical dummy slots exist.
///   `y = 0` is exactly baseline Ring ORAM.
///
/// # Examples
///
/// ```
/// use ring_oram::config::RingConfig;
///
/// let cfg = RingConfig::hpca_default();
/// assert_eq!((cfg.z, cfg.s, cfg.a, cfg.y), (8, 12, 8, 8));
/// assert_eq!(cfg.bucket_slots(), 12); // 8 real + (12 - 8) dummy slots
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingConfig {
    /// Total number of tree levels (`L + 1`).
    pub levels: u32,
    /// Real-block slots per bucket (`Z`).
    pub z: u32,
    /// Logical dummy budget per bucket (`S`).
    pub s: u32,
    /// Read-path operations between evictions (`A`).
    pub a: u32,
    /// Compact-Bucket rate (`Y`): real blocks usable as dummies per bucket.
    pub y: u32,
    /// Data block size in bytes (one cache line in the paper).
    pub block_bytes: u32,
    /// Stash capacity in blocks; reaching it triggers background eviction.
    pub stash_capacity: usize,
    /// Number of top tree levels held on-chip (no DRAM traffic).
    pub tree_top_cached_levels: u32,
}

impl RingConfig {
    /// The paper's Table III default: `L+1 = 24`, `Z = 8`, `S = 12`,
    /// `A = 8`, `Y = 8`, 64 B blocks, stash of 500, 6 cached tree-top
    /// levels. (Table III's "Binary Tree Levels (L+1): 24" matches the
    /// `L = 23` used throughout the space analysis.)
    #[must_use]
    pub fn hpca_default() -> Self {
        Self {
            levels: 24,
            z: 8,
            s: 12,
            a: 8,
            y: 8,
            block_bytes: 64,
            stash_capacity: 500,
            tree_top_cached_levels: 6,
        }
    }

    /// Baseline Ring ORAM (the paper's comparison point): the default
    /// configuration with the Compact Bucket disabled (`Y = 0`).
    #[must_use]
    pub fn hpca_baseline() -> Self {
        Self {
            y: 0,
            ..Self::hpca_default()
        }
    }

    /// The four bandwidth-optimal `(Z, A, S)` triples of the paper's Fig. 4
    /// (`S = A + X`): Config-1 = (4, 3, 5), Config-2 = (8, 8, 12),
    /// Config-3 = (16, 20, 27), Config-4 = (32, 46, 58). All with `Y = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not in `1..=4`.
    #[must_use]
    pub fn fig4_config(index: u32) -> Self {
        let (z, a, s) = match index {
            1 => (4, 3, 5),
            2 => (8, 8, 12),
            3 => (16, 20, 27),
            4 => (32, 46, 58),
            other => panic!("Fig. 4 defines configs 1..=4, got {other}"),
        };
        Self {
            levels: 24,
            z,
            s,
            a,
            y: 0,
            block_bytes: 64,
            stash_capacity: 500,
            tree_top_cached_levels: 6,
        }
    }

    /// The CB sensitivity configurations of the paper's Table V /
    /// Fig. 13: the default `(Z=8, S=12, A=8)` tree with
    /// `Y = 0, 2, 4, 6, 8` for Baseline and Config-1..4 respectively.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not in `0..=4` (0 = baseline).
    #[must_use]
    pub fn table5_config(index: u32) -> Self {
        assert!(index <= 4, "Table V defines configs 0..=4, got {index}");
        Self {
            y: index * 2,
            ..Self::hpca_baseline()
        }
    }

    /// A small configuration for fast unit tests: 8 levels, `Z=4, S=4, A=3,
    /// Y=0`, tiny stash, no tree-top cache.
    #[must_use]
    pub fn test_small() -> Self {
        Self {
            levels: 8,
            z: 4,
            s: 4,
            a: 3,
            y: 0,
            block_bytes: 64,
            stash_capacity: 200,
            tree_top_cached_levels: 0,
        }
    }

    /// [`Self::test_small`] with the Compact Bucket enabled (`Y = 2`).
    #[must_use]
    pub fn test_small_cb() -> Self {
        Self {
            y: 2,
            ..Self::test_small()
        }
    }

    /// This tree with buckets of exactly `Z` slots — the encoding the
    /// plain-tree protocols (Path, Circuit) run on: `S = Y = 1`, so
    /// `bucket_slots = Z + S - Y = Z` and layout sizing, sharding and
    /// auditing share one configuration type across protocols. `A = 1` is
    /// nominal (neither protocol has a separate eviction schedule); depth,
    /// `Z`, block size, stash bound and tree-top cache are kept.
    #[must_use]
    pub fn z_slot(&self) -> Self {
        Self {
            s: 1,
            a: 1,
            y: 1,
            ..self.clone()
        }
    }

    /// The deepest level index `L`.
    #[must_use]
    pub fn max_level(&self) -> u32 {
        self.levels - 1
    }

    /// Number of leaves, i.e. distinct paths (`2^L`).
    #[must_use]
    pub fn leaf_count(&self) -> u64 {
        1u64 << self.max_level()
    }

    /// Total buckets in the tree (`2^(L+1) - 1`).
    #[must_use]
    pub fn bucket_count(&self) -> u64 {
        (1u64 << self.levels) - 1
    }

    /// Physical slots per bucket: `Z + S - Y` (the CB saving is `Y` slots).
    #[must_use]
    pub fn bucket_slots(&self) -> u32 {
        self.z + self.s - self.y
    }

    /// Physical dummy slots per bucket (`S - Y`).
    #[must_use]
    pub fn dummy_slots(&self) -> u32 {
        self.s - self.y
    }

    /// Bytes of one bucket's data slots (metadata is negligible and kept
    /// on-chip in this model, as in the paper's controller).
    #[must_use]
    pub fn bucket_bytes(&self) -> u64 {
        u64::from(self.bucket_slots()) * u64::from(self.block_bytes)
    }

    /// Maximum number of real blocks the tree can store (`Z` per bucket).
    #[must_use]
    pub fn real_capacity_blocks(&self) -> u64 {
        self.bucket_count() * u64::from(self.z)
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint:
    /// `levels >= 1`, `z >= 1`, `s >= 1`, `a >= 1`, `y <= s`, `y <= z`,
    /// at most 255 slots per bucket (a bucket's counters are one byte),
    /// nonzero block size and stash, cached levels < total levels.
    pub fn validate(&self) -> Result<(), String> {
        if self.levels == 0 || self.levels > 40 {
            return Err(format!("levels ({}) must be in 1..=40", self.levels));
        }
        if self.z == 0 {
            return Err("z must be nonzero".into());
        }
        if self.s == 0 {
            return Err("s must be nonzero".into());
        }
        if self.a == 0 {
            return Err("a must be nonzero".into());
        }
        if self.y > self.s {
            return Err(format!("y ({}) must not exceed s ({})", self.y, self.s));
        }
        if self.y > self.z {
            return Err(format!(
                "y ({}) must not exceed z ({}): greens are real blocks",
                self.y, self.z
            ));
        }
        // With Y <= Z the slots bound S too, and with it every counter.
        let slots = u64::from(self.z) + u64::from(self.s) - u64::from(self.y);
        if slots > 255 {
            return Err(format!(
                "a bucket has at most 255 slots (its counters are one byte), got Z + S - Y = \
                 {slots}"
            ));
        }
        if self.block_bytes == 0 {
            return Err("block_bytes must be nonzero".into());
        }
        if self.stash_capacity == 0 {
            return Err("stash_capacity must be nonzero".into());
        }
        if self.tree_top_cached_levels >= self.levels {
            return Err(format!(
                "tree_top_cached_levels ({}) must be below levels ({})",
                self.tree_top_cached_levels, self.levels
            ));
        }
        Ok(())
    }
}

impl Default for RingConfig {
    fn default() -> Self {
        Self::hpca_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        RingConfig::hpca_default().validate().unwrap();
        RingConfig::hpca_baseline().validate().unwrap();
        RingConfig::test_small().validate().unwrap();
        RingConfig::test_small_cb().validate().unwrap();
        for i in 1..=4 {
            RingConfig::fig4_config(i).validate().unwrap();
        }
        for i in 0..=4 {
            RingConfig::table5_config(i).validate().unwrap();
        }
    }

    #[test]
    fn z_slot_buckets_hold_exactly_z_blocks() {
        let cfg = RingConfig::hpca_default();
        let plain = cfg.z_slot();
        plain.validate().unwrap();
        assert_eq!((plain.bucket_slots(), plain.dummy_slots()), (cfg.z, 0));
        let (s, a, y) = (cfg.s, cfg.a, cfg.y);
        assert_eq!(RingConfig { s, a, y, ..plain }, cfg, "the rest is kept");
    }

    #[test]
    fn default_tree_is_20gb_class() {
        let cfg = RingConfig::hpca_default();
        // (Z + S - Y) * buckets * 64 B with Y=8: 12 * (2^24 - 1) * 64 ~ 12 GiB.
        let total = cfg.bucket_bytes() * cfg.bucket_count();
        assert_eq!(total / (1 << 30), 11); // 11.99... GiB
        let baseline = RingConfig::hpca_baseline();
        let total = baseline.bucket_bytes() * baseline.bucket_count();
        assert_eq!(total / (1 << 30), 19); // 19.99... GiB ~ paper's "20 GB"
    }

    #[test]
    fn bucket_slot_arithmetic() {
        let cfg = RingConfig::hpca_default();
        assert_eq!(cfg.bucket_slots(), 12);
        assert_eq!(cfg.dummy_slots(), 4);
        let base = RingConfig::hpca_baseline();
        assert_eq!(base.bucket_slots(), 20);
        assert_eq!(base.dummy_slots(), 12);
    }

    #[test]
    fn tree_geometry() {
        let cfg = RingConfig::test_small();
        assert_eq!(cfg.max_level(), 7);
        assert_eq!(cfg.leaf_count(), 128);
        assert_eq!(cfg.bucket_count(), 255);
        assert_eq!(cfg.real_capacity_blocks(), 255 * 4);
    }

    #[test]
    fn y_bounds_enforced() {
        let mut cfg = RingConfig::hpca_default();
        cfg.y = cfg.s + 1;
        assert!(cfg.validate().is_err());
        let mut cfg = RingConfig::hpca_default();
        cfg.z = 4;
        cfg.y = 5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn bucket_counters_bound_enforced() {
        let mut cfg = RingConfig::fig4_config(4); // 90 slots, S = 58
        cfg.validate().unwrap();
        cfg.z = 255 - cfg.s + 1;
        assert!(cfg.validate().is_err(), "256 slots");
    }

    #[test]
    fn cached_levels_bound_enforced() {
        let mut cfg = RingConfig::test_small();
        cfg.tree_top_cached_levels = cfg.levels;
        assert!(cfg.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "configs 1..=4")]
    fn fig4_config_range_checked() {
        let _ = RingConfig::fig4_config(5);
    }

    #[test]
    fn table5_y_progression() {
        let ys: Vec<u32> = (0..=4).map(|i| RingConfig::table5_config(i).y).collect();
        assert_eq!(ys, vec![0, 2, 4, 6, 8]);
    }
}
