//! Per-rank constraints: tRRD, tFAW, write-to-read turnaround and refresh.

use crate::bank::Bank;
use crate::command::IssueError;
use crate::faults::{mix64, u01};
use crate::timing::TimingParams;

/// Per-rank refresh-storm injection parameters (seed already mixed with
/// the rank's global index by the module).
#[derive(Debug, Clone, Copy)]
struct StormConfig {
    seed: u64,
    rate: f64,
    factor: u64,
}

/// A rank: a group of banks operating in lockstep behind one chip-select,
/// sharing activation-rate limits (tRRD, tFAW), the write-to-read turnaround
/// (tWTR) and refresh.
#[derive(Debug, Clone)]
pub struct Rank {
    banks: Vec<Bank>,
    /// Bank groups (1 = DDR3, no bank-group timing).
    groups: u32,
    /// Issue cycles of the most recent ACTs, for the tFAW sliding window.
    recent_acts: Vec<u64>,
    /// Earliest cycle the next ACT may issue anywhere in the rank (tRRD_S).
    next_act: u64,
    /// Earliest ACT per bank group (tRRD_L); bank `b` is in group
    /// `b % groups`.
    group_next_act: Vec<u64>,
    /// Earliest column command per bank group (tCCD_L).
    group_next_col: Vec<u64>,
    /// Earliest cycle the next RD may issue anywhere in the rank (tWTR).
    next_rd: u64,
    /// Cycle the rank's pending refresh completes (`0` when none).
    refresh_done: u64,
    /// Cycle at which the next refresh becomes due.
    next_refresh: u64,
    /// Number of refreshes performed.
    refreshes: u64,
    /// Optional deterministic refresh-storm injection.
    storms: Option<StormConfig>,
    /// Number of refreshes stretched into storms.
    storm_count: u64,
}

impl Rank {
    /// Creates a rank with `banks` precharged banks; the first refresh is
    /// scheduled one tREFI into the simulation.
    #[must_use]
    pub fn new(banks: u32, t: &TimingParams) -> Self {
        Self::with_groups(banks, 1, t)
    }

    /// Creates a rank whose banks are split into `groups` bank groups
    /// (DDR4 tCCD_L/tRRD_L apply within a group).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero or exceeds `banks`.
    #[must_use]
    pub(crate) fn with_groups(banks: u32, groups: u32, t: &TimingParams) -> Self {
        assert!(groups >= 1 && groups <= banks, "bad bank-group count");
        Self {
            banks: (0..banks).map(|_| Bank::new()).collect(),
            groups,
            recent_acts: Vec::with_capacity(4),
            next_act: 0,
            group_next_act: vec![0; groups as usize],
            group_next_col: vec![0; groups as usize],
            next_rd: 0,
            refresh_done: 0,
            next_refresh: t.t_refi,
            refreshes: 0,
            storms: None,
            storm_count: 0,
        }
    }

    /// Arms refresh-storm injection: each refresh independently becomes a
    /// storm with probability `rate`, stretching its tRFC by `factor`. The
    /// decision is a pure function of `(seed, refresh index)`, so the storm
    /// schedule is identical on every run.
    pub(crate) fn enable_refresh_storms(&mut self, seed: u64, rate: f64, factor: u64) {
        self.storms = Some(StormConfig { seed, rate, factor });
    }

    /// Number of refreshes stretched into storms so far.
    #[must_use]
    pub fn refresh_storms(&self) -> u64 {
        self.storm_count
    }

    /// Immutable access to a bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn bank(&self, bank: u32) -> &Bank {
        &self.banks[bank as usize]
    }

    /// Mutable access to a bank (fault hooks only).
    pub(crate) fn bank_mut(&mut self, bank: u32) -> &mut Bank {
        &mut self.banks[bank as usize]
    }

    /// Number of banks in the rank.
    #[must_use]
    pub(crate) fn bank_count(&self) -> u32 {
        self.banks.len() as u32
    }

    /// Number of refreshes performed so far.
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Handles refresh housekeeping for the current cycle. With the forced
    /// refresh model, when tREFI elapses every bank is precharged on the spot
    /// and the rank blocks for tRFC. This slightly pessimizes row locality
    /// around refreshes, identically for every scheduler under test.
    /// Returns whether a refresh started this cycle.
    pub fn tick(&mut self, cycle: u64, t: &TimingParams) -> bool {
        if t.t_refi == 0 {
            return false; // refresh disabled
        }
        let due = cycle >= self.next_refresh;
        if due {
            // Storm injection: a stretched tRFC only ever *delays* commands,
            // so shadow timing checks (lower bounds) remain satisfied.
            let mut rfc = t.t_rfc;
            if let Some(s) = &self.storms {
                if u01(mix64(s.seed ^ self.refreshes)) < s.rate {
                    rfc *= s.factor;
                    self.storm_count += 1;
                }
            }
            let done = cycle + rfc;
            for b in &mut self.banks {
                b.force_refresh(cycle, done);
            }
            self.refresh_done = done;
            self.next_refresh += t.t_refi;
            self.refreshes += 1;
        }
        due
    }

    /// Cycle at which the next refresh becomes due.
    #[must_use]
    pub fn next_refresh(&self) -> u64 {
        self.next_refresh
    }

    fn check_refresh(&self, cycle: u64) -> Result<(), IssueError> {
        if cycle < self.refresh_done {
            Err(IssueError::RefreshInProgress {
                ready_at: self.refresh_done,
            })
        } else {
            Ok(())
        }
    }

    fn group_of(&self, bank: u32) -> usize {
        (bank % self.groups) as usize
    }

    /// Effective same-group ACT spacing: tRRD_L only exists once banks are
    /// actually split into groups (DDR4); with a single group the rank is
    /// plain DDR3 and tRRD applies.
    fn rrd_l(&self, t: &TimingParams) -> u64 {
        if self.groups == 1 {
            t.t_rrd
        } else {
            t.t_rrd_l
        }
    }

    /// Effective same-group column spacing (see [`Self::rrd_l`]).
    fn ccd_l(&self, t: &TimingParams) -> u64 {
        if self.groups == 1 {
            t.t_ccd
        } else {
            t.t_ccd_l
        }
    }

    /// Rank-level legality of an ACT to `bank` at `cycle`
    /// (tRRD_S + tRRD_L + tFAW + refresh).
    ///
    /// # Errors
    ///
    /// [`IssueError::RankTiming`] or [`IssueError::RefreshInProgress`].
    #[inline]
    pub(crate) fn can_activate(
        &self,
        cycle: u64,
        t: &TimingParams,
        bank: u32,
    ) -> Result<(), IssueError> {
        self.check_refresh(cycle)?;
        if cycle < self.next_act {
            return Err(IssueError::RankTiming {
                ready_at: self.next_act,
            });
        }
        let g = self.group_of(bank);
        if cycle < self.group_next_act[g] {
            return Err(IssueError::RankTiming {
                ready_at: self.group_next_act[g],
            });
        }
        let faw = self.faw_ready_at(t);
        if cycle < faw {
            return Err(IssueError::RankTiming { ready_at: faw });
        }
        Ok(())
    }

    /// End of the tFAW window: the oldest of the last four ACTs bounds the
    /// next one (0 before the rank has seen four).
    fn faw_ready_at(&self, t: &TimingParams) -> u64 {
        match self.recent_acts.len().checked_sub(4) {
            Some(oldest) => self.recent_acts[oldest] + t.t_faw,
            None => 0,
        }
    }

    /// The rank's timing registers as one bound per command kind for a bank
    /// of `group`, indexed by `CommandKind as usize`: everything
    /// [`Self::can_activate`], [`Self::can_other`], [`Self::can_read`] and
    /// [`Self::can_write`] compare the cycle against.
    #[inline]
    pub(crate) fn class_ready_at(&self, group: usize, t: &TimingParams) -> [u64; 4] {
        let act = self
            .next_act
            .max(self.group_next_act[group])
            .max(self.faw_ready_at(t));
        let col = self.group_next_col[group];
        [act, 0, col.max(self.next_rd), col].map(|r| r.max(self.refresh_done))
    }

    /// Rank-level legality of a RD to `bank` at `cycle`
    /// (tWTR + tCCD_L + refresh).
    ///
    /// # Errors
    ///
    /// [`IssueError::RankTiming`] or [`IssueError::RefreshInProgress`].
    #[inline]
    pub(crate) fn can_read(&self, cycle: u64, bank: u32) -> Result<(), IssueError> {
        self.check_refresh(cycle)?;
        if cycle < self.next_rd {
            return Err(IssueError::RankTiming {
                ready_at: self.next_rd,
            });
        }
        let g = self.group_of(bank);
        if cycle < self.group_next_col[g] {
            return Err(IssueError::RankTiming {
                ready_at: self.group_next_col[g],
            });
        }
        Ok(())
    }

    /// Rank-level legality of a WR to `bank` at `cycle`
    /// (tCCD_L + refresh).
    ///
    /// # Errors
    ///
    /// [`IssueError::RankTiming`] or [`IssueError::RefreshInProgress`].
    #[inline]
    pub(crate) fn can_write(&self, cycle: u64, bank: u32) -> Result<(), IssueError> {
        self.check_refresh(cycle)?;
        let g = self.group_of(bank);
        if cycle < self.group_next_col[g] {
            return Err(IssueError::RankTiming {
                ready_at: self.group_next_col[g],
            });
        }
        Ok(())
    }

    /// Rank-level legality of a PRE at `cycle` (refresh only).
    ///
    /// # Errors
    ///
    /// [`IssueError::RefreshInProgress`].
    pub(crate) fn can_other(&self, cycle: u64) -> Result<(), IssueError> {
        self.check_refresh(cycle)
    }

    /// Applies an ACT to `bank` at `cycle`.
    #[inline]
    pub(crate) fn apply_activate(&mut self, bank: u32, cycle: u64, row: u64, t: &TimingParams) {
        debug_assert!(
            self.can_activate(cycle, t, bank).is_ok(),
            "rank-illegal ACT"
        );
        self.banks[bank as usize].apply_activate(cycle, row, t);
        self.next_act = cycle + t.t_rrd;
        let g = self.group_of(bank);
        self.group_next_act[g] = cycle + self.rrd_l(t);
        self.recent_acts.push(cycle);
        if self.recent_acts.len() > 8 {
            self.recent_acts.drain(..4);
        }
    }

    /// Applies a PRE to `bank` at `cycle`.
    #[inline]
    pub(crate) fn apply_precharge(&mut self, bank: u32, cycle: u64, t: &TimingParams) {
        self.banks[bank as usize].apply_precharge(cycle, t);
    }

    /// Applies a RD to `bank` at `cycle`; returns the end of the data burst.
    #[inline]
    pub(crate) fn apply_read(&mut self, bank: u32, cycle: u64, t: &TimingParams) -> u64 {
        debug_assert!(self.can_read(cycle, bank).is_ok(), "rank-illegal RD");
        let g = self.group_of(bank);
        self.group_next_col[g] = cycle + self.ccd_l(t);
        self.banks[bank as usize].apply_read(cycle, t)
    }

    /// Applies a WR to `bank` at `cycle`; returns the end of the data burst
    /// and arms the tWTR write-to-read turnaround.
    #[inline]
    pub(crate) fn apply_write(&mut self, bank: u32, cycle: u64, t: &TimingParams) -> u64 {
        let g = self.group_of(bank);
        self.group_next_col[g] = cycle + self.ccd_l(t);
        let data_end = self.banks[bank as usize].apply_write(cycle, t);
        self.next_rd = self.next_rd.max(data_end + t.t_wtr);
        data_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::test_fast()
    }

    fn rank() -> Rank {
        Rank::new(8, &t())
    }

    #[test]
    fn trrd_spaces_activates_across_banks() {
        let mut r = rank();
        let tp = t();
        r.apply_activate(0, 0, 1, &tp);
        assert_eq!(
            r.can_activate(tp.t_rrd - 1, &tp, 1),
            Err(IssueError::RankTiming { ready_at: tp.t_rrd })
        );
        assert!(r.can_activate(tp.t_rrd, &tp, 1).is_ok());
    }

    #[test]
    fn tfaw_limits_four_activates() {
        let mut r = rank();
        let tp = t();
        let mut cycle = 0;
        for bank in 0..4 {
            while r.can_activate(cycle, &tp, bank).is_err() {
                cycle += 1;
            }
            r.apply_activate(bank, cycle, 1, &tp);
        }
        // The 5th ACT must wait for the first ACT + tFAW.
        let mut fifth = cycle + tp.t_rrd;
        let err = r.can_activate(fifth, &tp, 4 % 4);
        assert!(matches!(err, Err(IssueError::RankTiming { .. })), "{err:?}");
        while r.can_activate(fifth, &tp, 0).is_err() {
            fifth += 1;
        }
        assert_eq!(fifth, tp.t_faw, "5th ACT gated by tFAW window");
    }

    #[test]
    fn twtr_gates_read_after_write() {
        let mut r = rank();
        let tp = t();
        r.apply_activate(0, 0, 1, &tp);
        r.apply_activate(1, tp.t_rrd, 1, &tp);
        let wr_end = r.apply_write(0, tp.t_rcd, &tp);
        let rd_ready = wr_end + tp.t_wtr;
        assert_eq!(
            r.can_read(rd_ready - 1, 1),
            Err(IssueError::RankTiming { ready_at: rd_ready })
        );
        assert!(r.can_read(rd_ready, 1).is_ok());
    }

    #[test]
    fn refresh_blocks_everything_for_trfc() {
        let mut r = rank();
        let tp = t();
        r.apply_activate(0, 0, 1, &tp);
        r.tick(tp.t_refi, &tp);
        assert_eq!(r.refreshes(), 1);
        let done = tp.t_refi + tp.t_rfc;
        assert_eq!(
            r.can_read(tp.t_refi + 1, 0),
            Err(IssueError::RefreshInProgress { ready_at: done })
        );
        assert!(matches!(
            r.can_activate(tp.t_refi + 1, &tp, 0),
            Err(IssueError::RefreshInProgress { .. })
        ));
        // After tRFC, the bank must be re-activated (row was closed).
        assert!(r.can_activate(done, &tp, 0).is_ok());
        assert!(r.bank(0).open_row().is_none());
    }

    #[test]
    fn refresh_storm_stretches_trfc() {
        let mut r = rank();
        let tp = t();
        r.enable_refresh_storms(42, 1.0, 4);
        r.tick(tp.t_refi, &tp);
        assert_eq!(r.refreshes(), 1);
        assert_eq!(r.refresh_storms(), 1);
        let done = tp.t_refi + 4 * tp.t_rfc;
        assert_eq!(
            r.can_read(done - 1, 0),
            Err(IssueError::RefreshInProgress { ready_at: done })
        );
        assert!(r.can_activate(done, &tp, 0).is_ok());
    }

    #[test]
    fn storm_schedule_is_deterministic() {
        let storms = |seed: u64| {
            let tp = t();
            let mut r = Rank::new(4, &tp);
            r.enable_refresh_storms(seed, 0.5, 2);
            for i in 1..=32 {
                r.tick(i * tp.t_refi, &tp);
            }
            r.refresh_storms()
        };
        assert_eq!(storms(7), storms(7));
        let n = storms(7);
        assert!(
            n > 0 && n < 32,
            "rate 0.5 should storm some but not all: {n}"
        );
    }

    #[test]
    fn refresh_disabled_with_zero_trefi() {
        let mut tp = t();
        tp.t_refi = 0;
        let mut r = Rank::new(4, &tp);
        r.tick(1_000_000, &tp);
        assert_eq!(r.refreshes(), 0);
    }

    #[test]
    fn bank_groups_enforce_long_timings() {
        let tp = t(); // t_rrd=2, t_rrd_l=3, t_ccd=2, t_ccd_l=3
        let mut r = Rank::with_groups(8, 4, &tp);
        // Banks 0 and 4 share group 0; banks 0 and 1 do not.
        r.apply_activate(0, 0, 1, &tp);
        // Cross-group ACT: gated by tRRD_S only.
        assert_eq!(
            r.can_activate(tp.t_rrd - 1, &tp, 1),
            Err(IssueError::RankTiming { ready_at: tp.t_rrd })
        );
        assert!(r.can_activate(tp.t_rrd, &tp, 1).is_ok());
        // Same-group ACT: gated by tRRD_L.
        assert_eq!(
            r.can_activate(tp.t_rrd, &tp, 4),
            Err(IssueError::RankTiming {
                ready_at: tp.t_rrd_l
            })
        );
        assert!(r.can_activate(tp.t_rrd_l, &tp, 4).is_ok());
    }

    #[test]
    fn bank_groups_enforce_ccd_l() {
        let tp = t();
        let mut r = Rank::with_groups(8, 4, &tp);
        r.apply_activate(0, 0, 1, &tp);
        r.apply_activate(4, tp.t_rrd_l, 1, &tp); // same group 0
        let rd_at = tp.t_rrd_l + tp.t_rcd;
        r.apply_read(0, rd_at, &tp);
        // Same-group read must wait tCCD_L; the bank itself is different.
        assert_eq!(
            r.can_read(rd_at + tp.t_ccd - 1, 4),
            Err(IssueError::RankTiming {
                ready_at: rd_at + tp.t_ccd_l
            })
        );
        assert!(r.can_read(rd_at + tp.t_ccd_l, 4).is_ok());
    }

    #[test]
    fn single_group_behaves_like_ddr3() {
        let tp = t();
        let mut r = Rank::new(8, &tp); // groups = 1
        r.apply_activate(0, 0, 1, &tp);
        // tRRD_L must NOT apply: plain tRRD gates the next ACT.
        assert!(r.can_activate(tp.t_rrd, &tp, 1).is_ok());
    }

    #[test]
    fn recent_act_history_is_bounded() {
        let mut r = rank();
        let tp = t();
        let mut cycle = 0;
        for i in 0..100 {
            while r.can_activate(cycle, &tp, (i % 8) as u32).is_err()
                || r.bank((i % 8) as u32).can_activate(cycle).is_err()
            {
                cycle += 1;
            }
            r.apply_activate((i % 8) as u32, cycle, 1, &tp);
            let bank = (i % 8) as u32;
            while r.bank(bank).can_precharge(cycle).is_err() {
                cycle += 1;
            }
            r.apply_precharge(bank, cycle, &tp);
        }
        assert!(r.recent_acts.len() <= 8);
    }
}
