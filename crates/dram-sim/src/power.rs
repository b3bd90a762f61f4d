//! DRAM energy model (Micron power-calculator style, as in USIMM).
//!
//! USIMM ships a DRAM power model derived from Micron's DDR3 power
//! calculator: energy is attributed per command (ACT/PRE pair, RD, WR),
//! plus background power split by whether banks sit precharged or active.
//! This module reproduces that accounting on top of [`crate::DramStats`]
//! so experiments can report energy per scheme — the Compact Bucket moves
//! fewer blocks and the Proactive Bank shortens runtime, so both cut
//! energy through different terms.

use crate::stats::DramStats;
use crate::timing::TimingParams;

/// Per-operation and background energy coefficients.
///
/// Defaults approximate a 4 Gb DDR3-1600 x8 device scaled to a rank (values
/// derived from Micron DDR3 power calculator current specs: IDD0/IDD2N/
/// IDD3N/IDD4R/IDD4W at 1.5 V), in nanojoules. The absolute numbers matter
/// less than their ratios; experiments report relative energy.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerParams {
    /// Energy of one ACT+PRE pair (row open + restore), nJ.
    pub act_pre_nj: f64,
    /// Energy of one RD burst beyond background, nJ.
    pub read_nj: f64,
    /// Energy of one WR burst beyond background, nJ.
    pub write_nj: f64,
    /// Background power of a rank with all banks precharged, mW.
    pub background_precharged_mw: f64,
    /// Extra background power while at least one bank is active, mW.
    pub background_active_extra_mw: f64,
    /// Refresh energy per REF command, nJ.
    pub refresh_nj: f64,
}

impl PowerParams {
    /// DDR3-1600 defaults (see the type-level docs).
    #[must_use]
    pub fn ddr3_1600() -> Self {
        Self {
            act_pre_nj: 3.0,
            read_nj: 1.8,
            write_nj: 2.0,
            background_precharged_mw: 110.0,
            background_active_extra_mw: 60.0,
            refresh_nj: 25.0,
        }
    }
}

impl Default for PowerParams {
    fn default() -> Self {
        Self::ddr3_1600()
    }
}

/// Energy breakdown of a run, in microjoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Activate/precharge energy.
    pub activate_uj: f64,
    /// Read-burst energy.
    pub read_uj: f64,
    /// Write-burst energy.
    pub write_uj: f64,
    /// Background energy over the elapsed window.
    pub background_uj: f64,
    /// Refresh energy.
    pub refresh_uj: f64,
}

impl EnergyBreakdown {
    /// Total energy in microjoules.
    #[must_use]
    pub fn total_uj(&self) -> f64 {
        self.activate_uj + self.read_uj + self.write_uj + self.background_uj + self.refresh_uj
    }
}

/// Computes the energy of a run from command statistics.
///
/// `elapsed_cycles` is the run length in bus cycles; `active_fraction` is
/// the mean fraction of ranks with at least one open row (0..=1), which
/// scales the active-background term; `refreshes` is the total REF count
/// across ranks.
#[must_use]
pub fn energy(
    params: &PowerParams,
    timing: &TimingParams,
    stats: &DramStats,
    ranks: u32,
    elapsed_cycles: u64,
    active_fraction: f64,
    refreshes: u64,
) -> EnergyBreakdown {
    let acts = stats.commands(crate::CommandKind::Activate) as f64;
    let reads = stats.commands(crate::CommandKind::Read) as f64;
    let writes = stats.commands(crate::CommandKind::Write) as f64;
    let seconds = (elapsed_cycles * timing.clock_ps) as f64 * 1e-12;
    let background_mw = f64::from(ranks)
        * (params.background_precharged_mw
            + params.background_active_extra_mw * active_fraction.clamp(0.0, 1.0));
    EnergyBreakdown {
        activate_uj: acts * params.act_pre_nj * 1e-3,
        read_uj: reads * params.read_nj * 1e-3,
        write_uj: writes * params.write_nj * 1e-3,
        background_uj: background_mw * seconds * 1e3, // mW * s = mJ -> uJ
        refresh_uj: refreshes as f64 * params.refresh_nj * 1e-3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DramGeometry;

    fn stats_with(acts: u64, reads: u64, writes: u64) -> DramStats {
        let mut s = DramStats::new(&DramGeometry::test_small());
        for _ in 0..acts {
            s.record_command(crate::CommandKind::Activate, 0);
        }
        for _ in 0..reads {
            s.record_command(crate::CommandKind::Read, 0);
        }
        for _ in 0..writes {
            s.record_command(crate::CommandKind::Write, 0);
        }
        s
    }

    #[test]
    fn energy_terms_scale_with_commands() {
        let p = PowerParams::ddr3_1600();
        let t = TimingParams::ddr3_1600();
        let e1 = energy(&p, &t, &stats_with(10, 100, 50), 4, 1000, 0.5, 0);
        let e2 = energy(&p, &t, &stats_with(20, 200, 100), 4, 1000, 0.5, 0);
        assert!((e2.activate_uj - 2.0 * e1.activate_uj).abs() < 1e-12);
        assert!((e2.read_uj - 2.0 * e1.read_uj).abs() < 1e-12);
        assert!((e2.write_uj - 2.0 * e1.write_uj).abs() < 1e-12);
        // Background depends only on time.
        assert!((e2.background_uj - e1.background_uj).abs() < 1e-12);
    }

    #[test]
    fn background_scales_with_time_and_activity() {
        let p = PowerParams::ddr3_1600();
        let t = TimingParams::ddr3_1600();
        let s = stats_with(0, 0, 0);
        let short = energy(&p, &t, &s, 4, 1000, 0.0, 0);
        let long = energy(&p, &t, &s, 4, 2000, 0.0, 0);
        assert!((long.background_uj - 2.0 * short.background_uj).abs() < 1e-9);
        let active = energy(&p, &t, &s, 4, 1000, 1.0, 0);
        assert!(active.background_uj > short.background_uj);
    }

    #[test]
    fn refresh_energy_counts() {
        let p = PowerParams::ddr3_1600();
        let t = TimingParams::ddr3_1600();
        let s = stats_with(0, 0, 0);
        let e = energy(&p, &t, &s, 1, 0, 0.0, 40);
        assert!((e.refresh_uj - 1.0).abs() < 1e-12); // 40 * 25 nJ = 1 uJ
        assert!((e.total_uj() - e.refresh_uj).abs() < 1e-12);
    }

    #[test]
    fn total_is_sum_of_terms() {
        let p = PowerParams::ddr3_1600();
        let t = TimingParams::ddr3_1600();
        let e = energy(&p, &t, &stats_with(5, 7, 3), 2, 500, 0.3, 2);
        let sum = e.activate_uj + e.read_uj + e.write_uj + e.background_uj + e.refresh_uj;
        assert!((e.total_uj() - sum).abs() < 1e-12);
    }
}
