//! Per-channel shared-bus constraints.
//!
//! All ranks of a channel share one command bus (one command per cycle) and
//! one data bus (one burst at a time, with a turnaround penalty between
//! bursts of opposite direction).

use crate::command::IssueError;
use crate::rank::Rank;
use crate::timing::TimingParams;

/// Direction of the most recent data-bus burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BusDir {
    Idle,
    Read,
    Write,
}

/// One memory channel: its ranks plus command/data bus occupancy.
#[derive(Debug, Clone)]
pub struct Channel {
    ranks: Vec<Rank>,
    /// Cycle at which the current data-bus burst ends.
    data_busy_until: u64,
    /// Direction of the last burst, for the turnaround penalty.
    last_dir: BusDir,
    /// Cycle of the last command issued on the command bus.
    last_cmd_cycle: Option<u64>,
    /// Total data-bus busy cycles (utilization statistic).
    data_busy_cycles: u64,
}

impl Channel {
    /// Creates a channel with `ranks` ranks of `banks_per_rank` banks split
    /// into `bank_groups` groups.
    #[must_use]
    pub fn new(ranks: u32, banks_per_rank: u32, bank_groups: u32, t: &TimingParams) -> Self {
        Self {
            ranks: (0..ranks)
                .map(|_| Rank::with_groups(banks_per_rank, bank_groups, t))
                .collect(),
            data_busy_until: 0,
            last_dir: BusDir::Idle,
            last_cmd_cycle: None,
            data_busy_cycles: 0,
        }
    }

    /// Immutable access to a rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn rank(&self, rank: u32) -> &Rank {
        &self.ranks[rank as usize]
    }

    /// Mutable access to a rank (crate-internal).
    pub(crate) fn rank_mut(&mut self, rank: u32) -> &mut Rank {
        &mut self.ranks[rank as usize]
    }

    /// Number of ranks on the channel.
    #[must_use]
    pub fn rank_count(&self) -> u32 {
        self.ranks.len() as u32
    }

    /// Total cycles the data bus has carried bursts.
    #[must_use]
    pub fn data_busy_cycles(&self) -> u64 {
        self.data_busy_cycles
    }

    /// Advances per-rank housekeeping (refresh) to `cycle`; returns
    /// whether any rank started a refresh.
    pub fn tick(&mut self, cycle: u64, t: &TimingParams) -> bool {
        let mut refreshed = false;
        for r in &mut self.ranks {
            refreshed |= r.tick(cycle, t);
        }
        refreshed
    }

    /// Cycle at which the channel's next refresh becomes due.
    #[must_use]
    pub fn next_refresh(&self) -> u64 {
        self.ranks
            .iter()
            .map(Rank::next_refresh)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The first cycle after the last command: the command-bus constraint
    /// as a bound, for cycles that do not run backwards.
    pub(crate) fn cmd_ready_at(&self) -> u64 {
        self.last_cmd_cycle.map_or(0, |c| c + 1)
    }

    /// Earliest data-phase start of a burst of the given direction: the end
    /// of the current burst, plus the turnaround when the direction flips.
    fn burst_start(&self, is_write: bool, t: &TimingParams) -> u64 {
        let dir = if is_write {
            BusDir::Write
        } else {
            BusDir::Read
        };
        if self.last_dir != BusDir::Idle && self.last_dir != dir {
            self.data_busy_until + t.t_turnaround
        } else {
            self.data_busy_until
        }
    }

    /// Earliest *command* cycle whose burst fits on the data bus:
    /// [`Self::burst_start`] minus the direction's CAS latency (CL / CWL).
    pub(crate) fn burst_ready_at(&self, is_write: bool, t: &TimingParams) -> u64 {
        let latency = if is_write { t.cwl } else { t.cl };
        self.burst_start(is_write, t).saturating_sub(latency)
    }

    /// Checks the one-command-per-cycle command-bus constraint.
    ///
    /// # Errors
    ///
    /// [`IssueError::RankTiming`] with `ready_at` of the next free slot.
    pub fn can_use_cmd_bus(&self, cycle: u64) -> Result<(), IssueError> {
        match self.last_cmd_cycle {
            Some(c) if c == cycle => Err(IssueError::RankTiming {
                ready_at: cycle + 1,
            }),
            _ => Ok(()),
        }
    }

    /// Records a command-bus slot consumed at `cycle`.
    pub fn use_cmd_bus(&mut self, cycle: u64) {
        debug_assert!(self.can_use_cmd_bus(cycle).is_ok());
        self.last_cmd_cycle = Some(cycle);
    }

    /// Checks whether a burst of the given direction, starting its data phase
    /// at `data_start`, fits on the data bus.
    ///
    /// # Errors
    ///
    /// [`IssueError::DataBusBusy`] carrying the earliest legal *command*
    /// cycle: the earliest legal data-phase start minus the direction's
    /// CAS latency (CL / CWL), so the hint reads like every other
    /// variant's.
    pub fn can_burst(
        &self,
        data_start: u64,
        is_write: bool,
        t: &TimingParams,
    ) -> Result<(), IssueError> {
        if data_start < self.burst_start(is_write, t) {
            Err(IssueError::DataBusBusy {
                ready_at: self.burst_ready_at(is_write, t),
            })
        } else {
            Ok(())
        }
    }

    /// Reserves the data bus for a burst of `t.t_burst` cycles starting at
    /// `data_start`.
    pub fn reserve_burst(&mut self, data_start: u64, is_write: bool, t: &TimingParams) {
        debug_assert!(self.can_burst(data_start, is_write, t).is_ok());
        self.data_busy_until = data_start + t.t_burst;
        self.last_dir = if is_write {
            BusDir::Write
        } else {
            BusDir::Read
        };
        self.data_busy_cycles += t.t_burst;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::test_fast()
    }

    #[test]
    fn cmd_bus_one_per_cycle() {
        let mut c = Channel::new(1, 4, 1, &t());
        assert!(c.can_use_cmd_bus(10).is_ok());
        c.use_cmd_bus(10);
        assert_eq!(
            c.can_use_cmd_bus(10),
            Err(IssueError::RankTiming { ready_at: 11 })
        );
        assert!(c.can_use_cmd_bus(11).is_ok());
    }

    #[test]
    fn data_bus_serializes_bursts() {
        let tp = t();
        let mut c = Channel::new(1, 4, 1, &tp);
        c.reserve_burst(10, false, &tp);
        // The hint is a command cycle: data-phase start minus CL.
        assert_eq!(
            c.can_burst(10 + tp.t_burst - 1, false, &tp),
            Err(IssueError::DataBusBusy {
                ready_at: 10 + tp.t_burst - tp.cl
            })
        );
        assert!(c.can_burst(10 + tp.t_burst, false, &tp).is_ok());
    }

    #[test]
    fn turnaround_penalty_on_direction_change() {
        let tp = t();
        let mut c = Channel::new(1, 4, 1, &tp);
        c.reserve_burst(10, false, &tp);
        let end = 10 + tp.t_burst;
        // Same direction: ok right after.
        assert!(c.can_burst(end, false, &tp).is_ok());
        // Opposite direction: extra turnaround.
        assert_eq!(
            c.can_burst(end, true, &tp),
            Err(IssueError::DataBusBusy {
                ready_at: end + tp.t_turnaround - tp.cwl
            })
        );
        assert!(c.can_burst(end + tp.t_turnaround, true, &tp).is_ok());
    }

    #[test]
    fn busy_cycles_accumulate() {
        let tp = t();
        let mut c = Channel::new(1, 4, 1, &tp);
        c.reserve_burst(0, false, &tp);
        c.reserve_burst(100, true, &tp);
        assert_eq!(c.data_busy_cycles(), 2 * tp.t_burst);
    }

    #[test]
    fn tick_reaches_all_ranks() {
        let tp = t();
        let mut c = Channel::new(2, 4, 1, &tp);
        c.tick(tp.t_refi, &tp);
        assert_eq!(c.rank(0).refreshes(), 1);
        assert_eq!(c.rank(1).refreshes(), 1);
    }
}
