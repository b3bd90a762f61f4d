//! Deterministic DRAM-level fault injection.
//!
//! Two fault classes are modeled, both purely *timing-side*: they delay
//! commands but never change which commands are legal in what order, so
//! every run with faults enabled still passes the JEDEC shadow checkers
//! (slower than a lower bound is always legal).
//!
//! * **Refresh storms** — a refresh whose tRFC is stretched by an integer
//!   factor, modeling row-degradation-driven extended refresh (or refresh
//!   postponement debt being paid back all at once).
//! * **Weak rows** — an activation that needs extra restore time before
//!   column commands may follow, modeling marginal cells. Persistent stuck
//!   bits are *not* modeled here: a stuck cell corrupts data, not timing,
//!   and surfaces at the ORAM layer as a ciphertext integrity fault (see
//!   `ring-oram`'s resilience layer).
//!
//! Every decision derives from a stateless splitmix64 mix of the
//! configured seed and a deterministic counter, so a given seed replays
//! the identical fault schedule on every run.

/// Configuration for DRAM fault injection; see the module docs for the
/// fault model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DramFaultConfig {
    /// Seed for the fault schedule (independent of all protocol RNGs).
    pub seed: u64,
    /// Probability that any given refresh becomes a storm.
    pub storm_rate: f64,
    /// Multiplier applied to tRFC during a storm (≥ 1).
    pub storm_factor: u64,
    /// Probability that an ACT hits a weak row.
    pub weak_row_rate: f64,
    /// Extra cycles a weak row needs before column commands and precharge
    /// become legal.
    pub weak_row_stall: u64,
}

impl DramFaultConfig {
    /// Checks rates are probabilities and the storm factor is usable.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("storm_rate", self.storm_rate),
            ("weak_row_rate", self.weak_row_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(format!("{name} must be in [0, 1], got {rate}"));
            }
        }
        if self.storm_rate > 0.0 && self.storm_factor < 1 {
            return Err("storm_factor must be >= 1 when storms are enabled".into());
        }
        Ok(())
    }
}

/// Finalizer of splitmix64: a full-avalanche 64-bit mixer. `#[inline]`
/// (here and on [`u01`]) because `mem-sched` draws with it per data command
/// and the workspace builds without LTO.
#[inline]
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a mixed word to a uniform f64 in [0, 1) using its top 53 bits.
#[inline]
#[must_use]
pub fn u01(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(DramFaultConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_rates_rejected() {
        let cfg = DramFaultConfig {
            storm_rate: 1.5,
            ..DramFaultConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = DramFaultConfig {
            storm_rate: 0.5,
            storm_factor: 0,
            ..DramFaultConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn mix_is_deterministic_and_spread() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        let p = u01(mix64(12345));
        assert!((0.0..1.0).contains(&p));
    }
}
