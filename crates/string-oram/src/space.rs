//! Analytic memory-space model (the paper's Fig. 4 and Table V).
//!
//! Space accounting is exact arithmetic over the tree geometry: a tree of
//! `2^(L+1) - 1` buckets stores `Z` real slots and `S - Y` physical dummy
//! slots per bucket. Fig. 4 sweeps the bandwidth-optimal `(Z, A, S)`
//! configurations; Table V sweeps the CB rate `Y` over the default tree.

use ring_oram::RingConfig;

/// One row of a space table.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceRow {
    /// Configuration label.
    pub label: String,
    /// `Z` (real slots per bucket).
    pub z: u32,
    /// `A` (eviction rate).
    pub a: u32,
    /// `S` (logical dummy budget).
    pub s: u32,
    /// `Y` (CB rate).
    pub y: u32,
    /// Bytes of real-block capacity.
    pub real_bytes: u64,
    /// Bytes of physical dummy blocks.
    pub dummy_bytes: u64,
}

impl SpaceRow {
    /// Computes the row for a configuration.
    #[must_use]
    pub(crate) fn for_config(label: impl Into<String>, cfg: &RingConfig) -> Self {
        let buckets = cfg.bucket_count();
        let block = u64::from(cfg.block_bytes);
        Self {
            label: label.into(),
            z: cfg.z,
            a: cfg.a,
            s: cfg.s,
            y: cfg.y,
            real_bytes: buckets * u64::from(cfg.z) * block,
            dummy_bytes: buckets * u64::from(cfg.dummy_slots()) * block,
        }
    }

    /// Total allocated bytes (real + dummy).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.real_bytes + self.dummy_bytes
    }

    /// Fraction of allocated space holding dummy blocks (Table V's "Dummy
    /// Block Percentage").
    #[must_use]
    pub fn dummy_percentage(&self) -> f64 {
        if self.total_bytes() == 0 {
            0.0
        } else {
            self.dummy_bytes as f64 / self.total_bytes() as f64
        }
    }

    /// Memory space efficiency: real capacity over total allocation (the
    /// paper quotes 35.56 % for Config-4 of Fig. 4).
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        if self.total_bytes() == 0 {
            0.0
        } else {
            self.real_bytes as f64 / self.total_bytes() as f64
        }
    }

    /// Real capacity in GiB.
    #[must_use]
    pub fn real_gib(&self) -> f64 {
        self.real_bytes as f64 / (1u64 << 30) as f64
    }

    /// Dummy capacity in GiB.
    #[must_use]
    pub fn dummy_gib(&self) -> f64 {
        self.dummy_bytes as f64 / (1u64 << 30) as f64
    }

    /// Total capacity in GiB.
    #[must_use]
    pub fn total_gib(&self) -> f64 {
        self.total_bytes() as f64 / (1u64 << 30) as f64
    }
}

/// The four rows of Fig. 4 (baseline Ring ORAM, `L = 23`, 64 B blocks).
#[must_use]
pub fn fig4_rows() -> Vec<SpaceRow> {
    (1..=4)
        .map(|i| SpaceRow::for_config(format!("Config-{i}"), &RingConfig::fig4_config(i)))
        .collect()
}

/// The five rows of Table V (`Z = 8, S = 12, L = 23`, `Y = 0..=8`).
#[must_use]
pub fn table5_rows() -> Vec<SpaceRow> {
    (0..=4)
        .map(|i| {
            let label = if i == 0 {
                "Baseline".to_owned()
            } else {
                format!("Config-{i}")
            };
            SpaceRow::for_config(label, &RingConfig::table5_config(i))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_real_capacity_grows_linearly() {
        let rows = fig4_rows();
        // Z = 4, 8, 16, 32 -> 4, 8, 16, 32 GiB-class real capacity.
        let gib: Vec<u64> = rows.iter().map(|r| r.real_bytes >> 30).collect();
        assert_eq!(gib, vec![3, 7, 15, 31]); // 2^24 - 1 buckets: just under
        for w in rows.windows(2) {
            assert!(
                w[1].real_bytes == 2 * w[0].real_bytes + w[1].real_bytes % 2,
                "real capacity doubles with Z"
            );
        }
    }

    #[test]
    fn fig4_dummy_capacity_grows_superlinearly() {
        let rows = fig4_rows();
        for w in rows.windows(2) {
            let real_ratio = w[1].real_bytes as f64 / w[0].real_bytes as f64;
            let dummy_ratio = w[1].dummy_bytes as f64 / w[0].dummy_bytes as f64;
            assert!(
                dummy_ratio > real_ratio * 0.99,
                "dummies must grow at least as fast as reals"
            );
        }
        // Config-1 -> Config-2 dummy growth is clearly superlinear vs Z.
        assert!(rows[1].dummy_bytes as f64 / rows[0].dummy_bytes as f64 > 2.0);
    }

    #[test]
    fn fig4_config4_efficiency_matches_paper() {
        // The paper: Z=32/S=58 has 35.56 % space efficiency.
        let row = SpaceRow::for_config("c4", &RingConfig::fig4_config(4));
        assert!((row.efficiency() - 32.0 / 90.0).abs() < 1e-9);
        assert!((row.efficiency() - 0.3556).abs() < 1e-3);
    }

    #[test]
    fn table5_matches_paper_values() {
        // Paper Table V: total 20/18/16/14/12 GB; dummy % 60/55.6/50/42.9/33.3.
        let rows = table5_rows();
        let totals: Vec<u64> = rows
            .iter()
            .map(|r| (r.total_gib()).round() as u64)
            .collect();
        assert_eq!(totals, vec![20, 18, 16, 14, 12]);
        let expect = [0.60, 0.556, 0.50, 0.429, 0.333];
        for (r, e) in rows.iter().zip(expect) {
            assert!(
                (r.dummy_percentage() - e).abs() < 5e-3,
                "{}: {} vs {}",
                r.label,
                r.dummy_percentage(),
                e
            );
        }
    }

    #[test]
    fn cb_saves_up_to_40_percent() {
        let rows = table5_rows();
        let baseline = rows[0].total_bytes();
        let best = rows[4].total_bytes();
        let saving = 1.0 - best as f64 / baseline as f64;
        assert!((saving - 0.40).abs() < 1e-9, "saving {saving}");
    }

    #[test]
    fn rows_carry_config_parameters() {
        let r = &fig4_rows()[1];
        assert_eq!((r.z, r.a, r.s, r.y), (8, 8, 12, 0));
        assert_eq!(r.total_bytes(), r.real_bytes + r.dummy_bytes);
    }
}
