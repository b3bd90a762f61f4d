//! The overload governor: a three-state hysteresis machine over total
//! queue pressure.
//!
//! ```text
//!            fill ≥ degrade_enter          fill ≥ shed_enter
//!  Healthy ───────────────────────▶ Degraded ───────────────▶ Shedding
//!     ▲                                │  ▲                      │
//!     └────────────────────────────────┘  └──────────────────────┘
//!            fill ≤ degrade_exit          fill ≤ shed_exit
//! ```
//!
//! The governor acts **only at admission** — it tightens per-tenant quotas
//! (Degraded) or refuses all arrivals (Shedding). It never touches the
//! batcher or the engine, so governor transitions cannot change the
//! engine-visible submission schedule; under the fixed-rate policy the
//! schedule stays a pure function of the clock through every transition
//! (shed arrivals simply mean more slots carry cover accesses, which the
//! protocol already makes indistinguishable from real ones).

use string_oram::GovernorSummary;

/// The governor's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernorState {
    /// Normal admission: each tenant is bounded by its own queue cap.
    Healthy,
    /// Elevated pressure: per-tenant quotas are tightened to
    /// `ceil(cap × degraded_quota)`.
    Degraded,
    /// Critical pressure: all arrivals are shed until pressure recedes.
    Shedding,
}

impl GovernorState {
    /// Stable label for reports and logs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Degraded => "degraded",
            Self::Shedding => "shedding",
        }
    }
}

/// The state machine plus its transition counters.
#[derive(Debug, Clone)]
pub(crate) struct Governor {
    cfg: crate::config::GovernorConfig,
    state: GovernorState,
    summary: GovernorSummary,
}

impl Governor {
    /// A Healthy governor with the given watermarks.
    #[must_use]
    pub(crate) fn new(cfg: crate::config::GovernorConfig) -> Self {
        Self {
            cfg,
            state: GovernorState::Healthy,
            summary: GovernorSummary::default(),
        }
    }

    /// Current state.
    #[must_use]
    pub(crate) fn state(&self) -> GovernorState {
        self.state
    }

    /// Transition counters so far.
    #[must_use]
    pub(crate) fn summary(&self) -> GovernorSummary {
        self.summary
    }

    /// Folds one observation of total queue pressure (`fill` = total
    /// queued / total capacity), performs at most one transition and
    /// returns whether it made one. Called at the end of a cycle; admission
    /// on the *next* cycle sees the new state (one-cycle-delayed control,
    /// which keeps admission for a cycle independent of that same cycle's
    /// arrivals).
    ///
    /// The new state depends on the old state and `fill` alone, so an
    /// observation that made no transition need not be repeated while
    /// `fill` stays what it was.
    pub(crate) fn observe(&mut self, fill: f64) -> bool {
        let before = self.state;
        self.state = match self.state {
            GovernorState::Healthy if fill >= self.cfg.degrade_enter => {
                self.summary.degraded_entries += 1;
                GovernorState::Degraded
            }
            GovernorState::Degraded if fill >= self.cfg.shed_enter => {
                self.summary.shed_entries += 1;
                GovernorState::Shedding
            }
            GovernorState::Degraded if fill <= self.cfg.degrade_exit => {
                self.summary.recoveries += 1;
                GovernorState::Healthy
            }
            GovernorState::Shedding if fill <= self.cfg.shed_exit => GovernorState::Degraded,
            s => s,
        };
        self.state != before
    }

    /// The effective queue bound for a tenant with capacity `cap` under
    /// the current state (`None` = shed everything).
    #[must_use]
    pub(crate) fn effective_cap(&self, cap: usize) -> Option<usize> {
        match self.state {
            GovernorState::Healthy => Some(cap),
            GovernorState::Degraded => {
                let quota = (cap as f64 * self.cfg.degraded_quota).ceil() as usize;
                Some(quota.max(1).min(cap))
            }
            GovernorState::Shedding => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GovernorConfig;

    #[test]
    fn full_pressure_cycle_walks_all_states_and_counts() {
        let mut g = Governor::new(GovernorConfig::default());
        assert_eq!(g.state(), GovernorState::Healthy);
        g.observe(0.5); // below degrade_enter
        assert_eq!(g.state(), GovernorState::Healthy);
        g.observe(0.7);
        assert_eq!(g.state(), GovernorState::Degraded);
        g.observe(0.7); // between exit and shed_enter: hold
        assert_eq!(g.state(), GovernorState::Degraded);
        g.observe(0.95);
        assert_eq!(g.state(), GovernorState::Shedding);
        g.observe(0.6); // above shed_exit: hold
        assert_eq!(g.state(), GovernorState::Shedding);
        g.observe(0.4);
        assert_eq!(g.state(), GovernorState::Degraded);
        g.observe(0.2);
        assert_eq!(g.state(), GovernorState::Healthy);
        let s = g.summary();
        assert_eq!(s.degraded_entries, 1);
        assert_eq!(s.shed_entries, 1);
        assert_eq!(s.recoveries, 1);
    }

    #[test]
    fn one_transition_per_observation() {
        // Even a jump straight to 1.0 passes through Degraded first.
        let mut g = Governor::new(GovernorConfig::default());
        g.observe(1.0);
        assert_eq!(g.state(), GovernorState::Degraded);
        g.observe(1.0);
        assert_eq!(g.state(), GovernorState::Shedding);
    }

    #[test]
    fn effective_caps_follow_the_state() {
        let mut g = Governor::new(GovernorConfig::default());
        assert_eq!(g.effective_cap(10), Some(10));
        g.observe(0.7);
        assert_eq!(g.effective_cap(10), Some(5)); // ceil(10 * 0.5)
        assert_eq!(g.effective_cap(1), Some(1)); // never below 1
        g.observe(0.95);
        assert_eq!(g.effective_cap(10), None);
    }
}
