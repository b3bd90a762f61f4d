//! The baseline FR-FCFS policy (paper Algorithm 1), plus its insecure
//! unconstrained ablation.

use super::{PassPlan, SchedulePolicy, SchedulerPolicy};

/// Transaction-based FR-FCFS (paper Algorithm 1): oldest row hit of the
/// current transaction first, then oldest-first bank preparation, no
/// lookahead. The [`FrFcfs::unconstrained`] constructor lifts the
/// transaction barrier entirely — the insecure ablation the paper uses as
/// its performance ceiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrFcfs {
    unconstrained: bool,
}

impl FrFcfs {
    /// The transaction-based baseline.
    #[must_use]
    pub fn new() -> Self {
        Self {
            unconstrained: false,
        }
    }

    /// The insecure unconstrained ablation: plain FR-FCFS with no
    /// transaction barrier.
    #[must_use]
    pub fn unconstrained() -> Self {
        Self {
            unconstrained: true,
        }
    }
}

impl SchedulePolicy for FrFcfs {
    fn kind(&self) -> SchedulerPolicy {
        if self.unconstrained {
            SchedulerPolicy::Unconstrained
        } else {
            SchedulerPolicy::TransactionBased
        }
    }

    fn lookahead(&self) -> u64 {
        // The unconstrained ablation treats *every* queued request as
        // current; an unbounded window keeps the controller's cache key
        // stable and its future window trivially empty.
        if self.unconstrained {
            u64::MAX
        } else {
            0
        }
    }

    fn unconstrained(&self) -> bool {
        self.unconstrained
    }

    fn plan(&mut self, _cycle: u64) -> PassPlan {
        PassPlan::default()
    }
}
