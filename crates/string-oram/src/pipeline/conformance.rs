//! Passive conformance checking, attached beside the pipeline stages.
//!
//! Two independent observation points feed the checkers:
//!
//! * the **command-event stream** from the memory backend, re-validated by
//!   the [`sim_verify::PolicyAuditor`] (the transaction-order contract —
//!   about the observable access sequence, not timing, so it holds on every
//!   backend) and by the [`sim_verify::ShadowTimingChecker`] (JEDEC timing;
//!   attached only when a cycle-accurate DRAM model is behind the trace —
//!   the functional backend emits data commands without their ACT/PRE
//!   preparation, so timing re-derivation would flag every command);
//! * the **plan stream** from the planner, replayed against the selected
//!   protocol's row of the schedule table in [`sim_verify::ProtocolAuditor`]
//!   (plan shapes, slot range, the batch or Ring's eviction cadence, Ring's
//!   slot epochs, the fault log and the stash bound);
//! * the **values** the data ORAM returns: the planner hands every program
//!   access to the [`sim_verify::MirrorOracle`], which writes a payload
//!   derived from the block and the access index, and checks every read
//!   against the block's last write.
//!
//! Findings accumulate into one violation log, which the report carries
//! as `SimReport::violations`.

use dram_sim::geometry::DramGeometry;
use dram_sim::timing::TimingParams;
use mem_sched::CommandEvent;
use ring_oram::{AccessPlan, FaultEvent, ProtocolKind, RingConfig};
use sim_verify::{MirrorOracle, PolicyAuditor, ProtocolAuditor, ShadowTimingChecker, Violation};

use crate::config::VerifyConfig;

/// The conformance layer of one simulation: stream checkers, the ORAM
/// auditor and the value referee, sharing a violation log.
#[derive(Debug)]
pub struct Conformance {
    shadow: Option<ShadowTimingChecker>,
    policy: Option<PolicyAuditor>,
    auditor: Option<ProtocolAuditor>,
    mirror: Option<MirrorOracle>,
    violations: Vec<Violation>,
}

impl Conformance {
    /// Builds the layer for `verify`. `kind` selects the protocol's
    /// invariant auditor and `ring` must be the protocol's *effective*
    /// configuration (see `SystemConfig::effective_ring`) so slot ranges,
    /// plan shapes and payloads are sized right. `backend_has_dram` selects
    /// which stream checkers apply: the JEDEC shadow layer needs a
    /// cycle-accurate DRAM model behind the trace, the transaction-order
    /// oracle does not.
    /// `sched_policy` labels the policy auditor (the order oracle plus the
    /// canonical data-command digest).
    #[must_use]
    pub fn new(
        verify: &VerifyConfig,
        kind: ProtocolKind,
        ring: &RingConfig,
        geometry: &DramGeometry,
        timing: &TimingParams,
        backend_has_dram: bool,
        sched_policy: &str,
    ) -> Self {
        let on = verify.enabled;
        Self {
            shadow: (on && backend_has_dram)
                .then(|| ShadowTimingChecker::new(geometry.clone(), timing.clone())),
            policy: on.then(|| PolicyAuditor::new(sched_policy)),
            auditor: on.then(|| ProtocolAuditor::new(kind, ring.clone())),
            mirror: on.then(|| MirrorOracle::new(ring.block_bytes as usize)),
            violations: Vec::new(),
        }
    }

    /// Whether any stream checker is attached (i.e. whether the backend's
    /// command trace needs draining each cycle).
    #[must_use]
    pub fn stream_enabled(&self) -> bool {
        // The shadow checker never attaches without the policy auditor.
        self.policy.is_some()
    }

    /// Feeds one backend command event to the stream checkers.
    pub fn observe_command(&mut self, ev: &CommandEvent) {
        if let Some(shadow) = &mut self.shadow {
            shadow.observe(ev.cycle, ev.cmd);
        }
        if let Some(policy) = &mut self.policy {
            policy.observe(ev);
        }
    }

    /// Feeds the protocol's drained fault log to the auditor (retry
    /// allowances must exist before the plans that use them are checked).
    pub fn observe_faults(&mut self, faults: &[FaultEvent]) {
        if let Some(auditor) = &mut self.auditor {
            auditor.observe_faults(faults);
        }
    }

    /// Replays one access's plans against the protocol's invariants.
    pub fn observe_access(&mut self, plans: &[AccessPlan]) {
        if let Some(auditor) = &mut self.auditor {
            auditor.observe_access(plans);
        }
    }

    /// Checks the post-access stash occupancy against its bound.
    pub fn observe_stash(&mut self, stash_len: usize) {
        if let Some(auditor) = &mut self.auditor {
            auditor.observe_stash(stash_len);
        }
    }

    /// The value referee, when checking is on: the planner applies the
    /// data ORAM's program accesses through it.
    pub(crate) fn mirror_mut(&mut self) -> Option<&mut MirrorOracle> {
        self.mirror.as_mut()
    }

    /// Pre-sizes the value referee for `n` further program accesses.
    pub(crate) fn reserve_accesses(&mut self, n: usize) {
        if let Some(mirror) = &mut self.mirror {
            mirror.reserve(n);
        }
    }

    /// Moves fresh checker findings into the violation log, in checker
    /// order (shadow timing, transaction order, protocol audit, values).
    pub fn collect(&mut self) {
        if let Some(shadow) = &mut self.shadow {
            self.violations.extend(shadow.take_violations());
        }
        if let Some(policy) = &mut self.policy {
            self.violations.extend(policy.take_violations());
        }
        if let Some(auditor) = &mut self.auditor {
            self.violations.extend(auditor.take_violations());
        }
        if let Some(mirror) = &mut self.mirror {
            self.violations.extend(mirror.take_violations());
        }
    }

    /// Every violation found so far.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The scheduling-policy auditor, when the stream checkers are enabled
    /// (its canonical digest proves policies observably equivalent).
    #[must_use]
    pub fn policy_auditor(&self) -> Option<&PolicyAuditor> {
        self.policy.as_ref()
    }

    /// The value referee, when checking is on (its counts show how many
    /// reads and writes it checked).
    #[must_use]
    pub fn mirror_oracle(&self) -> Option<&MirrorOracle> {
        self.mirror.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{DramCommand, DramLocation};
    use mem_sched::TxnId;

    fn layer(verify: VerifyConfig, backend_has_dram: bool) -> Conformance {
        Conformance::new(
            &verify,
            ProtocolKind::RingCb,
            &RingConfig::test_small_cb(),
            &DramGeometry::test_small(),
            &TimingParams::test_fast(),
            backend_has_dram,
            "proactive-bank",
        )
    }

    fn data_event(cycle: u64, txn: u64) -> CommandEvent {
        CommandEvent {
            cycle,
            cmd: DramCommand::read(DramLocation {
                channel: 0,
                rank: 0,
                bank: 0,
                row: 1,
                column: 0,
            }),
            txn: Some(TxnId(txn)),
        }
    }

    #[test]
    fn disabled_layer_observes_nothing() {
        let mut c = layer(VerifyConfig::off(), true);
        assert!(!c.stream_enabled());
        c.observe_command(&data_event(0, 5));
        c.observe_command(&data_event(1, 0)); // out of order, but nobody watches
        c.collect();
        assert!(c.violations().is_empty());
    }

    #[test]
    fn order_only_flags_reordered_data() {
        let mut c = layer(VerifyConfig::checked(), false);
        assert!(c.stream_enabled());
        c.observe_command(&data_event(0, 5));
        c.observe_command(&data_event(1, 3));
        c.collect();
        assert_eq!(c.violations().len(), 1);
        // State persists across collects: further in-order traffic is clean.
        c.observe_command(&data_event(2, 6));
        c.collect();
        assert_eq!(c.violations().len(), 1);
    }

    #[test]
    fn order_only_ignores_missing_jedec_preparation() {
        // A bare RD with no prior ACT: the shadow checker would flag this,
        // the layer of a backend without DRAM must not (the functional
        // backend emits exactly this shape).
        let mut c = layer(VerifyConfig::checked(), false);
        c.observe_command(&data_event(0, 0));
        c.collect();
        assert!(c.violations().is_empty());
    }

    #[test]
    fn cycle_accurate_layer_runs_shadow_checker() {
        let mut c = layer(VerifyConfig::checked(), true);
        // RD into a closed bank — a JEDEC violation the shadow layer catches.
        c.observe_command(&data_event(0, 0));
        c.collect();
        assert!(
            !c.violations().is_empty(),
            "shadow checker must flag RD without ACT"
        );
    }
}
