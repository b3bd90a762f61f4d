//! Proactive Bank generalized to a k-transaction lookahead window.

use super::{CandidateOrder, PassPlan, SchedulePolicy, SchedulerPolicy};

/// [`super::ProactiveBank`] generalized to a `window`-transaction PRE/ACT
/// lookahead. The inter-transaction-only guard is unchanged: a bank may
/// prepare for a future transaction only while it has no pending
/// current-transaction request, and the future window mirrors the
/// row-hit-preservation skip, so the guard's security argument carries
/// over for any k — the data-command sequence is untouched, only more
/// bank idle time is converted into early preparation.
#[derive(Debug, Clone, Copy)]
pub struct SpeculativeWindow {
    window: u64,
}

impl SpeculativeWindow {
    /// A speculative scheduler looking `window` transactions ahead
    /// (1 recovers Proactive Bank exactly).
    #[must_use]
    pub fn new(window: u64) -> Self {
        Self { window }
    }
}

impl SchedulePolicy for SpeculativeWindow {
    fn kind(&self) -> SchedulerPolicy {
        SchedulerPolicy::SpeculativeWindow {
            window: self.window,
        }
    }

    fn lookahead(&self) -> u64 {
        self.window
    }

    fn plan(&mut self, _cycle: u64) -> PassPlan {
        PassPlan {
            issue: true,
            hit_order: CandidateOrder::Age,
            prep_order: CandidateOrder::Age,
            proactive: self.window > 0,
        }
    }
}
