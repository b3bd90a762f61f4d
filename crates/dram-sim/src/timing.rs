//! JEDEC-style DRAM timing parameters.
//!
//! All parameters are expressed in **memory bus cycles** (for DDR3-1600 the bus
//! runs at 800 MHz, i.e. one cycle is 1.25 ns and the data bus moves two beats
//! per cycle). The defaults follow the JEDEC DDR3-1600K (11-11-11) speed bin,
//! which is the specification the paper's USIMM configuration uses.
//!
//! The parameters gate when the memory controller may legally issue each
//! command; see [`crate::module::DramModule`] for the enforcement points.

/// DRAM timing parameters in bus cycles.
///
/// # Examples
///
/// ```
/// use dram_sim::timing::TimingParams;
///
/// let t = TimingParams::ddr3_1600();
/// assert_eq!(t.cl, 11);
/// // Closed-bank random access latency: ACT -> RD -> first data beat.
/// assert_eq!(t.t_rcd + t.cl, 22);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingParams {
    /// ACT to internal read/write delay (row to column delay).
    pub t_rcd: u64,
    /// PRE to ACT delay (row precharge time).
    pub t_rp: u64,
    /// CAS latency: RD command to first data beat.
    pub cl: u64,
    /// CAS write latency: WR command to first data beat.
    pub cwl: u64,
    /// ACT to PRE minimum delay (row active time).
    pub t_ras: u64,
    /// ACT to ACT delay, same bank (`t_ras + t_rp`).
    pub t_rc: u64,
    /// Data burst duration on the bus (BL8 => 4 bus cycles).
    pub t_burst: u64,
    /// Column command to column command, same direction, same rank
    /// (DDR4: the short, cross-bank-group value `tCCD_S`).
    pub t_ccd: u64,
    /// Column-to-column within the *same bank group* (DDR4 `tCCD_L`);
    /// equal to `t_ccd` when bank groups are disabled.
    pub t_ccd_l: u64,
    /// ACT to ACT delay, different banks of the same rank
    /// (DDR4: the short, cross-bank-group value `tRRD_S`).
    pub t_rrd: u64,
    /// ACT-to-ACT within the *same bank group* (DDR4 `tRRD_L`); equal to
    /// `t_rrd` when bank groups are disabled.
    pub t_rrd_l: u64,
    /// Rolling window in which at most four ACTs may be issued per rank.
    pub t_faw: u64,
    /// Write recovery: end of write burst to PRE, same bank.
    pub t_wr: u64,
    /// Write-to-read turnaround: end of write burst to RD command, same rank.
    pub t_wtr: u64,
    /// Read-to-precharge delay, same bank.
    pub t_rtp: u64,
    /// Bus turnaround penalty inserted between bursts of opposite direction.
    pub t_turnaround: u64,
    /// Average refresh interval (one REF per rank every `t_refi` cycles).
    pub t_refi: u64,
    /// Refresh cycle time (rank is unavailable for `t_rfc` after REF).
    pub t_rfc: u64,
    /// Bus cycle time in picoseconds (1.25 ns for DDR3-1600).
    pub clock_ps: u64,
}

impl TimingParams {
    /// JEDEC DDR3-1600K (11-11-11) timings, matching the paper's Table II
    /// ("DDR3-1600") and the USIMM 1-channel/4-channel reference configs.
    #[must_use]
    pub fn ddr3_1600() -> Self {
        Self {
            t_rcd: 11,
            t_rp: 11,
            cl: 11,
            cwl: 8,
            t_ras: 28,
            t_rc: 39,
            t_burst: 4,
            t_ccd: 4,
            t_ccd_l: 4,
            t_rrd: 5,
            t_rrd_l: 5,
            t_faw: 24,
            t_wr: 12,
            t_wtr: 6,
            t_rtp: 6,
            t_turnaround: 2,
            t_refi: 6240, // 7.8 us / 1.25 ns
            t_rfc: 208,   // 260 ns (4 Gb device) / 1.25 ns
            clock_ps: 1250,
        }
    }

    /// JEDEC DDR4-2400R (17-17-17) timings; provided for sensitivity studies
    /// beyond the paper's DDR3 evaluation.
    #[must_use]
    pub fn ddr4_2400() -> Self {
        Self {
            t_rcd: 17,
            t_rp: 17,
            cl: 17,
            cwl: 12,
            t_ras: 39,
            t_rc: 56,
            t_burst: 4,
            t_ccd: 4,
            t_ccd_l: 6,
            t_rrd: 4,
            t_rrd_l: 6,
            t_faw: 26,
            t_wr: 18,
            t_wtr: 9,
            t_rtp: 9,
            t_turnaround: 2,
            t_refi: 9360, // 7.8 us / 0.833 ns
            t_rfc: 421,   // 350 ns (8 Gb device)
            clock_ps: 833,
        }
    }

    /// A drastically shortened timing set for fast unit tests. The relative
    /// ordering of constraints is preserved (`t_rc = t_ras + t_rp`, etc.) so
    /// scheduler logic exercises the same code paths at a fraction of the
    /// simulated cycles.
    #[must_use]
    pub fn test_fast() -> Self {
        Self {
            t_rcd: 3,
            t_rp: 3,
            cl: 3,
            cwl: 2,
            t_ras: 8,
            t_rc: 11,
            t_burst: 2,
            t_ccd: 2,
            t_ccd_l: 3,
            t_rrd: 2,
            t_rrd_l: 3,
            t_faw: 10,
            t_wr: 4,
            t_wtr: 2,
            t_rtp: 2,
            t_turnaround: 1,
            t_refi: 100_000,
            t_rfc: 20,
            clock_ps: 1000,
        }
    }

    /// Validates internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(format!(
                "t_rc ({}) must be at least t_ras + t_rp ({})",
                self.t_rc,
                self.t_ras + self.t_rp
            ));
        }
        if self.t_burst == 0 {
            return Err("t_burst must be nonzero".to_owned());
        }
        if self.t_faw < self.t_rrd {
            return Err(format!(
                "t_faw ({}) must be at least t_rrd ({})",
                self.t_faw, self.t_rrd
            ));
        }
        if self.t_ccd_l < self.t_ccd {
            return Err(format!(
                "t_ccd_l ({}) must be at least t_ccd ({})",
                self.t_ccd_l, self.t_ccd
            ));
        }
        if self.t_rrd_l < self.t_rrd {
            return Err(format!(
                "t_rrd_l ({}) must be at least t_rrd ({})",
                self.t_rrd_l, self.t_rrd
            ));
        }
        if self.t_refi > 0 && self.t_rfc >= self.t_refi {
            return Err(format!(
                "t_rfc ({}) must be smaller than t_refi ({})",
                self.t_rfc, self.t_refi
            ));
        }
        if self.clock_ps == 0 {
            return Err("clock_ps must be nonzero".to_owned());
        }
        Ok(())
    }

    /// Converts a cycle count to nanoseconds using [`Self::clock_ps`].
    #[must_use]
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        (cycles * self.clock_ps) as f64 / 1000.0
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr3_1600()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr3_defaults_validate() {
        TimingParams::ddr3_1600().validate().expect("ddr3 valid");
    }

    #[test]
    fn ddr4_defaults_validate() {
        TimingParams::ddr4_2400().validate().expect("ddr4 valid");
    }

    #[test]
    fn test_fast_validates() {
        TimingParams::test_fast().validate().expect("fast valid");
    }

    #[test]
    fn default_is_ddr3() {
        assert_eq!(TimingParams::default(), TimingParams::ddr3_1600());
    }

    #[test]
    fn trc_violation_detected() {
        let mut t = TimingParams::ddr3_1600();
        t.t_rc = 10;
        assert!(t.validate().is_err());
    }

    #[test]
    fn zero_burst_detected() {
        let mut t = TimingParams::ddr3_1600();
        t.t_burst = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn rfc_longer_than_refi_detected() {
        let mut t = TimingParams::ddr3_1600();
        t.t_rfc = t.t_refi + 1;
        assert!(t.validate().is_err());
    }

    #[test]
    fn cycles_to_ns_ddr3() {
        let t = TimingParams::ddr3_1600();
        assert!((t.cycles_to_ns(4) - 5.0).abs() < 1e-9);
    }
}
