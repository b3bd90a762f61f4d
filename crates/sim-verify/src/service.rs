//! Serving-layer auditor: request-lifecycle and submission-envelope
//! invariants for a multi-tenant ORAM front-end.
//!
//! The service layer above the pipeline makes three promises that are easy
//! to break silently under overload, so — like every other checker in this
//! crate — they are re-validated from the outside, using only the event
//! stream the service emits:
//!
//! * **queue bounds** — a tenant's queue depth never exceeds its
//!   configured capacity (admission must shed, not buffer);
//! * **exactly-once resolution** — every arriving request ends in exactly
//!   one terminal state (completed, timed out, or rejected); no request is
//!   resolved twice (the "deadline-expired request retires twice" bug) or
//!   lost (never resolved by drain);
//! * **fixed-rate envelope** — under the Cloak-style fixed-rate policy,
//!   the number of slots submitted on a tick is a pure function of the
//!   policy (`batch` on every interval boundary, zero otherwise), never of
//!   the offered load. This is the timing-channel contract: an adversary
//!   watching *when* the service talks to the ORAM learns only the clock.
//!
//! The auditor is passive and deterministic; violations surface through
//! the same [`Violation`] records as the timing and protocol checkers.

use std::collections::HashMap;

use crate::violation::{Rule, Violation};

/// The submission policy the auditor holds the service to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditedPolicy {
    /// Work-conserving: submit whenever there is work and engine room. No
    /// envelope constraint (best-effort deliberately trades the timing
    /// channel for throughput).
    BestEffort,
    /// Fixed-rate with padding: every `interval` cycles, submit exactly
    /// `batch` slots — real requests or cover accesses — and nothing in
    /// between.
    FixedRate {
        /// Cycles between submission ticks.
        interval: u64,
        /// Slots per submission tick.
        batch: u32,
    },
}

/// Terminal state of a service request, as reported to the auditor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The ORAM access retired and the tenant got its data.
    Completed,
    /// The deadline expired before completion.
    TimedOut,
    /// Admission shed the request (queue full, throttled, or shedding).
    Rejected,
}

impl RequestOutcome {
    fn label(self) -> &'static str {
        match self {
            Self::Completed => "completed",
            Self::TimedOut => "timed-out",
            Self::Rejected => "rejected",
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum ReqState {
    Pending,
    Resolved(RequestOutcome),
}

/// Passive auditor for the service invariants above. Feed it the service's
/// event stream (arrivals, queue-depth observations, per-slot dispatches,
/// tick seals, resolutions), then [`ServiceAuditor::finish`] at drain.
#[derive(Debug)]
pub struct ServiceAuditor {
    policy: AuditedPolicy,
    /// Per-tenant queue capacity, indexed by tenant id.
    queue_caps: Vec<usize>,
    requests: HashMap<u64, ReqState>,
    tick_slots: u32,
    violations: Vec<Violation>,
    finished: bool,
}

impl ServiceAuditor {
    /// Creates the auditor for a policy and the per-tenant queue
    /// capacities (indexed by tenant id).
    #[must_use]
    pub fn new(policy: AuditedPolicy, queue_caps: Vec<usize>) -> Self {
        Self {
            policy,
            queue_caps,
            requests: HashMap::new(),
            tick_slots: 0,
            violations: Vec::new(),
            finished: false,
        }
    }

    /// Records a request arriving at the front door. `request` must be
    /// unique across the run (the service's arrival counter).
    pub fn observe_arrival(&mut self, cycle: u64, request: u64) {
        if self.requests.insert(request, ReqState::Pending).is_some() {
            self.violations.push(Violation::new(
                cycle,
                Rule::ServiceResolution,
                format!("request {request} arrived twice"),
            ));
        }
    }

    /// Checks a tenant's observed queue depth against its capacity. The
    /// check keeps no state: reporting a depth where it rises (it cannot
    /// pass the capacity anywhere else) finds every overflow that reporting
    /// all depths every cycle would, once per rise instead of once per
    /// cycle it persists.
    pub fn observe_queue_depth(&mut self, cycle: u64, tenant: usize, depth: usize) {
        let cap = self.queue_caps.get(tenant).copied().unwrap_or(0);
        if depth > cap {
            self.violations.push(Violation::new(
                cycle,
                Rule::ServiceQueueBound,
                format!("tenant {tenant} queue depth {depth} exceeds capacity {cap}"),
            ));
        }
    }

    /// Records one submitted slot: a real request (`Some`) or a cover
    /// access (`None`). Dispatching an unknown or already-resolved request
    /// is a resolution violation (the engine would retire it into nowhere
    /// — or twice).
    pub fn observe_dispatch(&mut self, cycle: u64, request: Option<u64>) {
        self.tick_slots += 1;
        if let Some(id) = request {
            match self.requests.get(&id) {
                Some(ReqState::Pending) => {}
                Some(ReqState::Resolved(o)) => self.violations.push(Violation::new(
                    cycle,
                    Rule::ServiceResolution,
                    format!("request {id} dispatched after resolving {}", o.label()),
                )),
                None => self.violations.push(Violation::new(
                    cycle,
                    Rule::ServiceResolution,
                    format!("request {id} dispatched but never arrived"),
                )),
            }
        }
    }

    /// Seals one cycle's submission window: checks the slot count emitted
    /// since the previous seal against the policy envelope and resets the
    /// counter. Call on every cycle of the submitting phase (arrival
    /// horizon plus drain-with-cadence) that submitted a slot or, under a
    /// fixed rate, is an interval boundary. A cycle with neither needs no
    /// seal: slots accumulate until the next one, so a slot submitted off
    /// the boundary breaks the count sealed there.
    pub fn seal_tick(&mut self, cycle: u64) {
        let slots = std::mem::take(&mut self.tick_slots);
        if let AuditedPolicy::FixedRate { interval, batch } = self.policy {
            let expected = if interval > 0 && cycle.is_multiple_of(interval) {
                batch
            } else {
                0
            };
            if slots != expected {
                self.violations.push(Violation::new(
                    cycle,
                    Rule::ServiceEnvelope,
                    format!("fixed-rate tick submitted {slots} slots, expected {expected}"),
                ));
            }
        }
    }

    /// Records a request reaching a terminal state. A second resolution of
    /// the same request is the exactly-once violation.
    pub fn observe_resolution(&mut self, cycle: u64, request: u64, outcome: RequestOutcome) {
        match self.requests.get_mut(&request) {
            Some(state @ ReqState::Pending) => *state = ReqState::Resolved(outcome),
            Some(ReqState::Resolved(first)) => self.violations.push(Violation::new(
                cycle,
                Rule::ServiceResolution,
                format!(
                    "request {request} resolved {} after already resolving {}",
                    outcome.label(),
                    first.label()
                ),
            )),
            None => self.violations.push(Violation::new(
                cycle,
                Rule::ServiceResolution,
                format!(
                    "request {request} resolved {} but never arrived",
                    outcome.label()
                ),
            )),
        }
    }

    /// Closes the run: every arrived request must have resolved. Idempotent.
    pub fn finish(&mut self, cycle: u64) {
        if self.finished {
            return;
        }
        self.finished = true;
        let mut unresolved: Vec<u64> = self
            .requests
            .iter()
            .filter_map(|(id, s)| matches!(s, ReqState::Pending).then_some(*id))
            .collect();
        unresolved.sort_unstable();
        for id in unresolved {
            self.violations.push(Violation::new(
                cycle,
                Rule::ServiceResolution,
                format!("request {id} never resolved by drain"),
            ));
        }
    }

    /// Requests observed so far (arrivals).
    #[must_use]
    pub fn requests_seen(&self) -> usize {
        self.requests.len()
    }

    /// All violations found so far.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(interval: u64, batch: u32) -> ServiceAuditor {
        ServiceAuditor::new(AuditedPolicy::FixedRate { interval, batch }, vec![4, 4])
    }

    #[test]
    fn clean_fixed_rate_run_has_no_violations() {
        let mut a = fixed(4, 2);
        a.observe_arrival(0, 1);
        a.observe_arrival(0, 2);
        for cycle in 0..8u64 {
            if cycle % 4 == 0 {
                a.observe_dispatch(cycle, (cycle == 0).then_some(1));
                a.observe_dispatch(cycle, (cycle == 0).then_some(2));
            }
            a.seal_tick(cycle);
        }
        a.observe_resolution(9, 1, RequestOutcome::Completed);
        a.observe_resolution(9, 2, RequestOutcome::TimedOut);
        a.finish(10);
        assert!(a.violations().is_empty(), "{:?}", a.violations());
        assert_eq!(a.requests_seen(), 2);
    }

    #[test]
    fn envelope_breaks_are_flagged_both_ways() {
        let mut a = fixed(4, 2);
        a.observe_dispatch(1, None); // off-boundary slot
        a.seal_tick(1);
        a.seal_tick(4); // boundary with zero slots
        let rules: Vec<_> = a.violations().iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec![Rule::ServiceEnvelope, Rule::ServiceEnvelope]);
    }

    #[test]
    fn best_effort_has_no_envelope() {
        let mut a = ServiceAuditor::new(AuditedPolicy::BestEffort, vec![4]);
        a.observe_dispatch(1, None);
        a.seal_tick(1);
        a.seal_tick(2);
        assert!(a.violations().is_empty());
    }

    #[test]
    fn queue_overflow_is_flagged() {
        let mut a = ServiceAuditor::new(AuditedPolicy::BestEffort, vec![4, 2]);
        a.observe_queue_depth(5, 0, 4); // at capacity: fine
        a.observe_queue_depth(5, 1, 3); // over
        assert_eq!(a.violations().len(), 1);
        assert_eq!(a.violations()[0].rule, Rule::ServiceQueueBound);
    }

    /// The service reports a depth when it changes, not every cycle: one
    /// observation of an over-capacity depth is a finding, however long
    /// the depth then persists unreported.
    #[test]
    fn an_overflow_observed_once_is_flagged_once() {
        let mut a = fixed(4, 1);
        a.observe_queue_depth(3, 0, 4); // rises to capacity
        a.observe_queue_depth(3, 0, 5); // rises past it: the one report
        for cycle in 3..40u64 {
            if cycle % 4 == 0 {
                a.observe_dispatch(cycle, None);
                a.seal_tick(cycle);
            }
        }
        assert_eq!(a.violations().len(), 1, "{:?}", a.violations());
        assert_eq!(a.violations()[0].rule, Rule::ServiceQueueBound);
        assert_eq!(a.violations()[0].cycle, 3);
    }

    /// The service seals slot ticks only. A boundary sealed with the wrong
    /// count is still an envelope break, and so is a slot submitted between
    /// boundaries: nothing seals it away, so it lands in the next count.
    #[test]
    fn unsealed_quiet_ticks_hide_no_envelope_break() {
        let mut a = fixed(4, 2);
        for cycle in 0..16u64 {
            if cycle == 6 {
                a.observe_dispatch(cycle, None); // off the boundary, unsealed
            }
            if cycle % 4 == 0 {
                a.observe_dispatch(cycle, None);
                if cycle != 12 {
                    a.observe_dispatch(cycle, None); // tick 12 is one short
                }
                a.seal_tick(cycle);
            }
        }
        let found: Vec<_> = a.violations().iter().map(|v| (v.cycle, v.rule)).collect();
        assert_eq!(
            found,
            vec![(8, Rule::ServiceEnvelope), (12, Rule::ServiceEnvelope)],
            "{:?}",
            a.violations()
        );
        assert!(a.violations()[0].message.contains("3 slots, expected 2"));
        assert!(a.violations()[1].message.contains("1 slots, expected 2"));
    }

    #[test]
    fn double_and_missing_resolutions_are_flagged() {
        let mut a = ServiceAuditor::new(AuditedPolicy::BestEffort, vec![4]);
        a.observe_arrival(0, 1);
        a.observe_arrival(0, 2);
        a.observe_resolution(3, 1, RequestOutcome::TimedOut);
        a.observe_resolution(4, 1, RequestOutcome::Completed); // the classic bug
        a.observe_resolution(4, 9, RequestOutcome::Completed); // never arrived
        a.finish(10); // request 2 still pending
        let rules: Vec<_> = a.violations().iter().map(|v| v.rule).collect();
        assert_eq!(
            rules,
            vec![
                Rule::ServiceResolution,
                Rule::ServiceResolution,
                Rule::ServiceResolution
            ]
        );
        assert!(a.violations()[0]
            .message
            .contains("already resolving timed-out"));
        assert!(a.violations()[2].message.contains("never resolved"));
    }

    #[test]
    fn dispatch_after_resolution_is_flagged() {
        let mut a = ServiceAuditor::new(AuditedPolicy::BestEffort, vec![4]);
        a.observe_arrival(0, 7);
        a.observe_resolution(2, 7, RequestOutcome::TimedOut);
        a.observe_dispatch(3, Some(7));
        a.seal_tick(3);
        assert_eq!(a.violations().len(), 1);
        assert_eq!(a.violations()[0].rule, Rule::ServiceResolution);
    }
}
