//! The paper's Proactive Bank scheduler (Algorithm 2).

use super::{CandidateOrder, PassPlan, SchedulePolicy, SchedulerPolicy};

/// Proactive Bank (paper Algorithm 2): identical to the FR-FCFS baseline
/// for the current transaction, but banks with no pending
/// current-transaction request may issue PRE/ACT for requests up to
/// `lookahead` transactions ahead. Data commands stay strictly
/// transaction-ordered; only bank preparation is pulled forward, and only
/// across transactions (never reordering within one), so the observable
/// access sequence is unchanged.
#[derive(Debug, Clone, Copy)]
pub struct ProactiveBank {
    lookahead: u64,
}

impl ProactiveBank {
    /// A PB scheduler looking `lookahead` transactions ahead (the paper
    /// uses 1; 0 degenerates to the baseline).
    #[must_use]
    pub fn new(lookahead: u64) -> Self {
        Self { lookahead }
    }
}

impl SchedulePolicy for ProactiveBank {
    fn kind(&self) -> SchedulerPolicy {
        SchedulerPolicy::ProactiveBank {
            lookahead: self.lookahead,
        }
    }

    fn lookahead(&self) -> u64 {
        self.lookahead
    }

    fn plan(&mut self, _cycle: u64) -> PassPlan {
        PassPlan {
            issue: true,
            hit_order: CandidateOrder::Age,
            prep_order: CandidateOrder::Age,
            proactive: self.lookahead > 0,
        }
    }
}
