//! Per-bank state machine and timing bookkeeping.

use crate::command::IssueError;
use crate::timing::TimingParams;

/// State of one DRAM bank: the open row (if any) plus the earliest cycles at
/// which each command class becomes legal again, derived from the timing
/// constraints of previously issued commands.
///
/// The bank does not know about rank- or channel-level constraints (tRRD,
/// tFAW, data bus); those live in [`crate::rank::Rank`] and
/// [`crate::channel::Channel`].
#[derive(Debug, Clone, Default)]
pub struct Bank {
    /// Currently open row, or `None` when precharged.
    open_row: Option<u64>,
    /// Earliest cycle an ACT may issue (tRP after PRE, tRC after ACT).
    next_act: u64,
    /// Earliest cycle a PRE may issue (tRAS after ACT, tRTP after RD, tWR
    /// after the end of a write burst).
    next_pre: u64,
    /// Earliest cycle a RD may issue (tRCD after ACT).
    next_rd: u64,
    /// Earliest cycle a WR may issue (tRCD after ACT).
    next_wr: u64,
    /// End of the bank's most recent busy window (for idle accounting).
    busy_until: u64,
    /// Total cycles this bank has been busy (union of command windows).
    busy_cycles: u64,
    /// Number of ACTs issued (row opens) — one per row-buffer miss/conflict.
    activations: u64,
}

impl Bank {
    /// A fresh, precharged bank.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Currently open row, if any.
    #[must_use]
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Total busy cycles accumulated so far (union of command windows).
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Number of ACT commands this bank has executed.
    #[must_use]
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// End of the bank's most recent busy window: the bank is executing a
    /// command (or restoring/refreshing) until this cycle.
    #[must_use]
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// The bank's four timing registers — the earliest ACT, PRE, RD and WR
    /// cycle, indexed by `CommandKind as usize`: what the `can_*` checks
    /// below compare the cycle against once the bank's state allows the
    /// command at all.
    pub(crate) fn ready_at(&self) -> [u64; 4] {
        [self.next_act, self.next_pre, self.next_rd, self.next_wr]
    }

    /// Checks whether an ACT for `row` may issue at `cycle`.
    ///
    /// # Errors
    ///
    /// [`IssueError::BankNotPrecharged`] when a row is open, or
    /// [`IssueError::BankTiming`] when tRP/tRC have not elapsed.
    pub fn can_activate(&self, cycle: u64) -> Result<(), IssueError> {
        if self.open_row.is_some() {
            return Err(IssueError::BankNotPrecharged);
        }
        if cycle < self.next_act {
            return Err(IssueError::BankTiming {
                ready_at: self.next_act,
            });
        }
        Ok(())
    }

    /// Checks whether a PRE may issue at `cycle`.
    ///
    /// # Errors
    ///
    /// [`IssueError::BankClosed`] when already precharged, or
    /// [`IssueError::BankTiming`] when tRAS/tRTP/tWR have not elapsed.
    pub fn can_precharge(&self, cycle: u64) -> Result<(), IssueError> {
        if self.open_row.is_none() {
            return Err(IssueError::BankClosed);
        }
        if cycle < self.next_pre {
            return Err(IssueError::BankTiming {
                ready_at: self.next_pre,
            });
        }
        Ok(())
    }

    /// Checks whether a column command for `row` may issue at `cycle`.
    ///
    /// # Errors
    ///
    /// [`IssueError::BankClosed`], [`IssueError::RowMismatch`] or
    /// [`IssueError::BankTiming`] (tRCD pending).
    pub fn can_column(&self, cycle: u64, row: u64, is_write: bool) -> Result<(), IssueError> {
        match self.open_row {
            None => return Err(IssueError::BankClosed),
            Some(open) if open != row => return Err(IssueError::RowMismatch { open_row: open }),
            Some(_) => {}
        }
        let ready = if is_write { self.next_wr } else { self.next_rd };
        if cycle < ready {
            return Err(IssueError::BankTiming { ready_at: ready });
        }
        Ok(())
    }

    /// Applies an ACT issued at `cycle` for `row`.
    ///
    /// # Panics
    ///
    /// Debug-panics if [`Self::can_activate`] would fail.
    pub fn apply_activate(&mut self, cycle: u64, row: u64, t: &TimingParams) {
        debug_assert!(self.can_activate(cycle).is_ok(), "illegal ACT");
        self.open_row = Some(row);
        self.next_rd = cycle + t.t_rcd;
        self.next_wr = cycle + t.t_rcd;
        self.next_pre = self.next_pre.max(cycle + t.t_ras);
        self.next_act = cycle + t.t_rc;
        self.activations += 1;
        self.credit_busy(cycle, cycle + t.t_rcd);
    }

    /// Applies a PRE issued at `cycle`.
    ///
    /// # Panics
    ///
    /// Debug-panics if [`Self::can_precharge`] would fail.
    pub fn apply_precharge(&mut self, cycle: u64, t: &TimingParams) {
        debug_assert!(self.can_precharge(cycle).is_ok(), "illegal PRE");
        self.open_row = None;
        self.next_act = self.next_act.max(cycle + t.t_rp);
        self.credit_busy(cycle, cycle + t.t_rp);
    }

    /// Applies a RD issued at `cycle`; returns the cycle at which the last
    /// data beat leaves the bank.
    ///
    /// # Panics
    ///
    /// Debug-panics if [`Self::can_column`] would fail.
    pub fn apply_read(&mut self, cycle: u64, t: &TimingParams) -> u64 {
        debug_assert!(
            self.open_row.is_some() && cycle >= self.next_rd,
            "illegal RD"
        );
        let data_end = cycle + t.cl + t.t_burst;
        self.next_pre = self.next_pre.max(cycle + t.t_rtp);
        // tCCD for same-bank back-to-back columns (rank enforces cross-bank).
        self.next_rd = self.next_rd.max(cycle + t.t_ccd);
        self.next_wr = self.next_wr.max(cycle + t.t_ccd);
        self.credit_busy(cycle, data_end);
        data_end
    }

    /// Applies a WR issued at `cycle`; returns the cycle at which the last
    /// data beat has been written into the row buffer.
    ///
    /// # Panics
    ///
    /// Debug-panics if [`Self::can_column`] would fail.
    pub fn apply_write(&mut self, cycle: u64, t: &TimingParams) -> u64 {
        debug_assert!(
            self.open_row.is_some() && cycle >= self.next_wr,
            "illegal WR"
        );
        let data_end = cycle + t.cwl + t.t_burst;
        self.next_pre = self.next_pre.max(data_end + t.t_wr);
        self.next_rd = self.next_rd.max(cycle + t.t_ccd);
        self.next_wr = self.next_wr.max(cycle + t.t_ccd);
        self.credit_busy(cycle, data_end);
        data_end
    }

    /// Injects a weak-row stall at `cycle`, immediately after an ACT: the
    /// freshly opened row needs `stall` extra restore cycles before column
    /// commands or a precharge may target it. The row stays open and no
    /// state machine transition happens — the fault is timing-only, so
    /// every subsequently legal command sequence stays legal.
    pub(crate) fn inject_stall(&mut self, cycle: u64, stall: u64) {
        debug_assert!(self.open_row.is_some(), "stall only follows an ACT");
        self.next_rd += stall;
        self.next_wr += stall;
        self.next_pre += stall;
        self.credit_busy(cycle, self.next_rd);
    }

    /// Forces the bank into the precharged state at `cycle` and blocks it
    /// until `until` (used by the refresh model).
    pub fn force_refresh(&mut self, cycle: u64, until: u64) {
        self.open_row = None;
        self.next_act = self.next_act.max(until);
        self.credit_busy(cycle, until);
    }

    /// Extends the bank's busy window to cover `[from, to)`, accumulating
    /// only the non-overlapping part so overlapping command windows are not
    /// double counted.
    fn credit_busy(&mut self, from: u64, to: u64) {
        let start = from.max(self.busy_until);
        if to > start {
            self.busy_cycles += to - start;
        }
        self.busy_until = self.busy_until.max(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::test_fast()
    }

    #[test]
    fn fresh_bank_accepts_act_only() {
        let b = Bank::new();
        assert!(b.can_activate(0).is_ok());
        assert_eq!(b.can_precharge(0), Err(IssueError::BankClosed));
        assert_eq!(b.can_column(0, 0, false), Err(IssueError::BankClosed));
    }

    #[test]
    fn act_opens_row_and_blocks_second_act() {
        let mut b = Bank::new();
        b.apply_activate(0, 5, &t());
        assert_eq!(b.open_row(), Some(5));
        assert_eq!(b.can_activate(1), Err(IssueError::BankNotPrecharged));
    }

    #[test]
    fn trcd_gates_column_commands() {
        let mut b = Bank::new();
        let tp = t();
        b.apply_activate(0, 5, &tp);
        assert_eq!(
            b.can_column(tp.t_rcd - 1, 5, false),
            Err(IssueError::BankTiming { ready_at: tp.t_rcd })
        );
        assert!(b.can_column(tp.t_rcd, 5, false).is_ok());
    }

    #[test]
    fn row_mismatch_reports_open_row() {
        let mut b = Bank::new();
        let tp = t();
        b.apply_activate(0, 5, &tp);
        assert_eq!(
            b.can_column(tp.t_rcd, 6, false),
            Err(IssueError::RowMismatch { open_row: 5 })
        );
    }

    #[test]
    fn tras_gates_precharge() {
        let mut b = Bank::new();
        let tp = t();
        b.apply_activate(0, 5, &tp);
        assert_eq!(
            b.can_precharge(tp.t_ras - 1),
            Err(IssueError::BankTiming { ready_at: tp.t_ras })
        );
        assert!(b.can_precharge(tp.t_ras).is_ok());
    }

    #[test]
    fn precharge_then_trp_gates_act() {
        let mut b = Bank::new();
        let tp = t();
        b.apply_activate(0, 5, &tp);
        b.apply_precharge(tp.t_ras, &tp);
        assert!(b.open_row().is_none());
        // next ACT limited by both tRC (from ACT) and tRP (from PRE).
        let ready = (tp.t_ras + tp.t_rp).max(tp.t_rc);
        assert_eq!(
            b.can_activate(ready - 1),
            Err(IssueError::BankTiming { ready_at: ready })
        );
        assert!(b.can_activate(ready).is_ok());
    }

    #[test]
    fn write_recovery_gates_precharge() {
        let mut b = Bank::new();
        let tp = t();
        b.apply_activate(0, 5, &tp);
        let wr_cycle = tp.t_rcd;
        let data_end = b.apply_write(wr_cycle, &tp);
        assert_eq!(data_end, wr_cycle + tp.cwl + tp.t_burst);
        let pre_ready = data_end + tp.t_wr;
        assert_eq!(
            b.can_precharge(pre_ready - 1),
            Err(IssueError::BankTiming {
                ready_at: pre_ready
            })
        );
        assert!(b.can_precharge(pre_ready).is_ok());
    }

    #[test]
    fn read_returns_data_after_cl_plus_burst() {
        let mut b = Bank::new();
        let tp = t();
        b.apply_activate(0, 5, &tp);
        let end = b.apply_read(tp.t_rcd, &tp);
        assert_eq!(end, tp.t_rcd + tp.cl + tp.t_burst);
    }

    #[test]
    fn tccd_spaces_back_to_back_reads() {
        let mut b = Bank::new();
        let tp = t();
        b.apply_activate(0, 5, &tp);
        b.apply_read(tp.t_rcd, &tp);
        let ready = tp.t_rcd + tp.t_ccd;
        assert_eq!(
            b.can_column(ready - 1, 5, false),
            Err(IssueError::BankTiming { ready_at: ready })
        );
        assert!(b.can_column(ready, 5, false).is_ok());
    }

    #[test]
    fn busy_cycles_do_not_double_count_overlap() {
        let mut b = Bank::new();
        let tp = t();
        b.apply_activate(0, 5, &tp); // busy [0, t_rcd)
        b.apply_read(tp.t_rcd, &tp); // busy [t_rcd, t_rcd+cl+burst)
        let expected = tp.t_rcd + tp.cl + tp.t_burst;
        assert_eq!(b.busy_cycles(), expected);
    }

    #[test]
    fn refresh_closes_row_and_blocks_act() {
        let mut b = Bank::new();
        let tp = t();
        b.apply_activate(0, 5, &tp);
        b.force_refresh(50, 70);
        assert!(b.open_row().is_none());
        assert_eq!(
            b.can_activate(69),
            Err(IssueError::BankTiming { ready_at: 70 })
        );
        assert!(b.can_activate(70).is_ok());
    }

    #[test]
    fn activation_counter_increments() {
        let mut b = Bank::new();
        let tp = t();
        b.apply_activate(0, 1, &tp);
        b.apply_precharge(tp.t_ras, &tp);
        b.apply_activate(tp.t_rc.max(tp.t_ras + tp.t_rp), 2, &tp);
        assert_eq!(b.activations(), 2);
    }
}
