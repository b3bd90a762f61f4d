//! Read-priority scheduling with a bounded deferred write-drain.

use super::{CandidateOrder, PassPlan, PolicyStats, SchedulePolicy, SchedulerPolicy};

/// Prefers read data commands over writes: within every pass the read
/// candidates are tried (oldest-first) before the write candidates, so a
/// read row hit bypasses an older write row hit. Each such bypass defers
/// the write; once `drain_bound` consecutive deferrals accumulate the
/// policy flips into a drain mode that prefers writes until one issues,
/// bounding write starvation.
///
/// Reordering happens only *within* a transaction's legal candidate set —
/// the controller never offers candidates across the transaction barrier —
/// so the observable transaction-ordered access sequence is identical to
/// the baseline's.
#[derive(Debug, Clone, Copy)]
pub struct ReadOverWrite {
    drain_bound: u64,
    deferred: u64,
    draining: bool,
    stats: PolicyStats,
}

impl ReadOverWrite {
    /// A read-priority scheduler forcing a write drain after
    /// `drain_bound` bypasses (must be ≥ 1).
    ///
    /// # Panics
    ///
    /// When `drain_bound` is 0 (the policy would never drain writes it
    /// keeps deferring).
    #[must_use]
    pub fn new(drain_bound: u64) -> Self {
        assert!(drain_bound >= 1, "drain_bound must be >= 1");
        Self {
            drain_bound,
            deferred: 0,
            draining: false,
            stats: PolicyStats::default(),
        }
    }
}

impl SchedulePolicy for ReadOverWrite {
    fn kind(&self) -> SchedulerPolicy {
        SchedulerPolicy::ReadOverWrite {
            drain_bound: self.drain_bound,
        }
    }

    fn plan(&mut self, _cycle: u64) -> PassPlan {
        let order = if self.draining {
            CandidateOrder::WritesFirst
        } else {
            CandidateOrder::ReadsFirst
        };
        PassPlan {
            issue: true,
            hit_order: order,
            prep_order: order,
            proactive: false,
        }
    }

    fn observe_data_issue(&mut self, is_write: bool, bypassed_write_hit: bool) {
        if is_write {
            if self.draining {
                self.stats.write_drains += 1;
            }
            self.deferred = 0;
            self.draining = false;
        } else if bypassed_write_hit {
            self.deferred += 1;
            self.stats.deferred_writes += 1;
            if self.deferred >= self.drain_bound {
                self.draining = true;
            }
        }
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}
