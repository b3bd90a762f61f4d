//! Cloak-style fixed temporal distribution of command issue slots.

use super::{PassPlan, PolicyStats, SchedulePolicy, SchedulerPolicy};

/// Issues commands only on a fixed clock grid: cycles where
/// `cycle % period == 0` are issue slots; every other cycle is withheld
/// regardless of pending work. Because the slot grid is a pure function
/// of the clock — independent of queue depth, bank state or offered load —
/// command *issue opportunities* cannot modulate with demand, which is the
/// Cloak-style temporal-hardening end of the policy spectrum (the cost is
/// the throughput lost to withheld slots).
#[derive(Debug, Clone, Copy)]
pub struct FixedCadence {
    period: u64,
    stats: PolicyStats,
}

impl FixedCadence {
    /// A fixed-cadence scheduler with an issue slot every `period` cycles
    /// (1 recovers the baseline).
    ///
    /// # Panics
    ///
    /// When `period` is 0 (the grid would have no slots at all).
    #[must_use]
    pub fn new(period: u64) -> Self {
        assert!(period >= 1, "period must be >= 1");
        Self {
            period,
            stats: PolicyStats::default(),
        }
    }
}

impl SchedulePolicy for FixedCadence {
    fn kind(&self) -> SchedulerPolicy {
        SchedulerPolicy::FixedCadence {
            period: self.period,
        }
    }

    fn plan(&mut self, cycle: u64) -> PassPlan {
        let slot = cycle.is_multiple_of(self.period);
        if !slot {
            self.stats.withheld_slots += 1;
        }
        PassPlan {
            issue: slot,
            ..PassPlan::default()
        }
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}
