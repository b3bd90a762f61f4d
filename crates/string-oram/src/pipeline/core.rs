//! The one five-stage pipeline instance every driver steps.
//!
//! [`PipelineCore`] is the only place the stage components — [`Planner`],
//! [`TxnTracker`], the pluggable memory backend, [`Metrics`] and
//! [`Conformance`] — are wired together, and the only place stages 2–5
//! (enqueue → schedule → conformance drain → retire → attribute) are
//! sequenced. A driver decides *when* an access enters
//! ([`PipelineCore::dispatch_real`] / [`PipelineCore::dispatch_cover`]) and
//! what a completion means to it (the [`Wake`]s [`PipelineCore::step`]
//! hands back): [`crate::Simulation`] replays core traces into it, the
//! `oram-service` front-end injects tenant requests at its own rate.
//!
//! Accesses are tagged through the planner's `CoreRequest::core` field (an
//! opaque `usize` the pipeline threads through to [`Wake::core`]
//! untouched): a core index for the trace driver, an attempt id for the
//! service. The tag never enters the access digest — the digest mixes only
//! block ids and lowered plans — so differently tagged runs are
//! bus-identical.

use mem_sched::MemoryBackend;
use ring_oram::ObliviousProtocol;

use crate::config::{ConfigError, SystemConfig};
use crate::cpu::CoreRequest;
use crate::pipeline::{
    build_backend, Conformance, CounterSnapshot, Metrics, PlannedTxn, Planner, TxnTracker, Wake,
};

/// One pipeline instance: plan → enqueue → schedule → retire → attribute,
/// advanced one memory-bus cycle per [`Self::step`].
#[derive(Debug)]
pub struct PipelineCore {
    /// Stage 1: protocol planning and address lowering.
    planner: Planner,
    /// Stages 2 & 4: transaction admission, ordered enqueue, retirement.
    tracker: TxnTracker,
    /// Stage 3: the pluggable memory model.
    backend: Box<dyn MemoryBackend>,
    /// Stage 5: per-cycle attribution counters.
    metrics: Metrics,
    /// Passive conformance checking beside the stages.
    conformance: Conformance,
    /// Reusable buffer for the planner's lowered transactions.
    planned_scratch: Vec<PlannedTxn>,
    /// Reusable buffer for draining backend completions each cycle.
    retired_scratch: Vec<mem_sched::Completed>,
    /// Reusable buffer for the command events the conformance stage reads
    /// each cycle.
    events_scratch: Vec<mem_sched::CommandEvent>,
    cycle: u64,
    /// Steps at cycles before this one are quiet: nothing waits to enqueue
    /// and the backend has nothing due ([`MemoryBackend::next_event_cycle`]),
    /// so they enqueue, complete and retire nothing. Set after every full
    /// step, reset to 0 by every dispatch.
    quiet_until: u64,
    /// Steps that took the quiet path so far.
    quiet_steps: u64,
}

impl PipelineCore {
    /// Builds the pipeline for one (validated, `shards = 1`) configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Invalid`] when the planner rejects the
    /// configuration (e.g. a recursive stack that does not fit DRAM).
    pub fn build(cfg: &SystemConfig) -> Result<Self, ConfigError> {
        let planner = Planner::build(cfg)?;
        let mut backend = build_backend(cfg);
        let conformance = Conformance::new(
            &cfg.verify,
            cfg.protocol,
            &cfg.effective_ring(),
            &cfg.geometry,
            &cfg.timing,
            backend.dram_module().is_some(),
            cfg.sched_policy.name(),
        );
        if conformance.stream_enabled() {
            backend.enable_command_trace();
        }
        Ok(Self {
            planner,
            tracker: TxnTracker::new(),
            backend,
            metrics: Metrics::new(),
            conformance,
            planned_scratch: Vec::new(),
            retired_scratch: Vec::new(),
            events_scratch: Vec::new(),
            cycle: 0,
            quiet_until: 0,
            quiet_steps: 0,
        })
    }

    /// Pre-sizes the vectors that grow with every program access (protocol
    /// bookkeeping, latency samples) for `n` further accesses, so a driver
    /// that knows its run length never reallocates them mid-run.
    pub fn reserve_accesses(&mut self, n: usize) {
        self.planner.reserve_accesses(n);
        self.metrics.read_latencies.reserve(n);
    }

    /// Plans and admits one real access for `block`, tagged with the
    /// caller's id. Returns the immediate wake when the access degenerates
    /// to a fully on-chip transaction (stash / tree-top hit): the tag comes
    /// back in [`Wake::core`] with `at = cycle + 1` and no latency sample.
    pub fn dispatch_real(&mut self, tag: usize, block: u64, is_write: bool) -> Option<Wake> {
        let req = CoreRequest {
            core: tag,
            block,
            is_write,
        };
        let mut planned = std::mem::take(&mut self.planned_scratch);
        self.planner
            .plan_into(&req, &mut self.conformance, &mut planned);
        let wake = self.admit(&mut planned);
        self.planned_scratch = planned;
        wake
    }

    /// Plans and admits one cover (padding) access. Returns `false` —
    /// planning nothing — when the protocol has no native dummy-access
    /// mechanism; padded submission modes are rejected for those up front,
    /// so a `false` here is a caller bug.
    pub fn dispatch_cover(&mut self) -> bool {
        let mut planned = std::mem::take(&mut self.planned_scratch);
        let ok = self
            .planner
            .plan_cover_into(&mut self.conformance, &mut planned);
        let wake = self.admit(&mut planned);
        debug_assert!(wake.is_none(), "cover accesses carry no wake");
        self.planned_scratch = planned;
        ok
    }

    /// Admits one access's lowered transactions in plan order, recycling
    /// their request buffers (planning in the steady state allocates
    /// nothing), then collects the plan-stream findings.
    fn admit(&mut self, planned: &mut Vec<PlannedTxn>) -> Option<Wake> {
        let mut wake_out = None;
        for txn in planned.drain(..) {
            let (spent, wake) = self.tracker.admit(txn, self.cycle);
            self.planner.recycle_requests(spent);
            if wake.is_some() {
                debug_assert!(wake_out.is_none(), "one wake per access");
                wake_out = wake;
            }
        }
        self.conformance.collect();
        self.quiet_until = 0;
        wake_out
    }

    /// Advances one memory-bus cycle through enqueue → schedule → retire →
    /// attribute, appending every release to `wakes` ([`Wake::core`]
    /// carries the dispatch tag; [`Wake::at`] the cycle the data is
    /// available, always `> cycle`). The latency sample a wake carries is
    /// recorded here, in retire order; the caller only routes the wake.
    ///
    /// A step before `quiet_until` has no stage with work: it is the
    /// backend's tick (a counter and a compare there) and the cycle's
    /// attribution. Debug builds run the skipped stages as the oracle.
    pub fn step(&mut self, wakes: &mut Vec<Wake>) {
        let cycle = self.cycle;

        if cycle < self.quiet_until {
            self.backend.tick(cycle);
            #[cfg(debug_assertions)]
            self.assert_step_was_quiet();
            self.metrics.attribute(self.tracker.oldest_kind());
            self.quiet_steps += 1;
            self.cycle += 1;
            return;
        }

        // 2. Enqueue: feed the backend in strict transaction order.
        self.tracker.enqueue_ready(self.backend.as_mut(), cycle);

        // 3. Schedule: the memory backend advances one cycle.
        self.backend.tick(cycle);

        // 3b. Conformance: re-validate what just issued against the
        // stream checkers (JEDEC shadow rules and/or transaction order).
        if self.conformance.stream_enabled() {
            self.backend
                .drain_command_events_into(&mut self.events_scratch);
            for ev in self.events_scratch.drain(..) {
                self.conformance.observe_command(&ev);
            }
            self.conformance.collect();
        }

        // 4. Retire completed requests (scratch buffer: draining must not
        // allocate on this per-cycle path).
        let mut done = std::mem::take(&mut self.retired_scratch);
        done.clear();
        self.backend.drain_completed_into(&mut done);
        for d in &done {
            if let Some(retired) = self.tracker.retire(d, cycle) {
                self.metrics.record_class(retired.kind, d.class);
                if let Some(wake) = retired.wake {
                    if let Some(latency) = wake.latency {
                        self.metrics.read_latencies.push(latency);
                    }
                    wakes.push(wake);
                }
            }
        }
        self.retired_scratch = done;

        // 5. Attribute this cycle to the oldest unfinished transaction.
        self.metrics.attribute(self.tracker.oldest_kind());

        self.cycle += 1;
        self.quiet_until = if self.tracker.has_unenqueued() {
            0
        } else {
            self.backend.next_event_cycle(self.cycle)
        };
    }

    /// The stages a quiet step skipped, run after its backend tick: none of
    /// them may have had anything to do.
    #[cfg(debug_assertions)]
    fn assert_step_was_quiet(&mut self) {
        let cycle = self.cycle;
        assert!(!self.tracker.has_unenqueued(), "cycle {cycle}: enqueue");
        self.backend
            .drain_command_events_into(&mut self.events_scratch);
        assert!(self.events_scratch.is_empty(), "cycle {cycle}: commands");
        self.retired_scratch.clear();
        self.backend.drain_completed_into(&mut self.retired_scratch);
        assert!(self.retired_scratch.is_empty(), "cycle {cycle}: retire");
    }

    /// Steps so far that took the quiet path.
    #[must_use]
    pub fn quiet_steps(&self) -> u64 {
        self.quiet_steps
    }

    /// Unfinished transactions in the window (the dispatch gate that keeps
    /// transaction *i+1* visible for PB without planning unboundedly).
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.tracker.inflight()
    }

    /// Whether all admitted work has retired.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.tracker.is_drained()
    }

    /// Cycles stepped so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Running FNV-1a digest of the planned access sequence: transaction
    /// kinds, physical addresses and directions, in order. Backends cannot
    /// influence it — two backends driving the same accesses must agree.
    #[must_use]
    pub fn access_digest(&self) -> u64 {
        self.planner.digest()
    }

    /// Real accesses planned so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.planner.accesses()
    }

    /// Cover accesses planned so far.
    #[must_use]
    pub fn cover_accesses(&self) -> u64 {
        self.planner.cover_accesses()
    }

    /// The (data) protocol engine, for protocol-agnostic inspection.
    #[must_use]
    pub fn protocol(&self) -> &dyn ObliviousProtocol {
        self.planner.protocol()
    }

    /// Raw program read-path latency samples (plan → data, in cycles), in
    /// retire order. Merged reports pool these across shards before
    /// recomputing percentiles (percentiles of percentiles would be wrong).
    #[must_use]
    pub fn read_latency_samples(&self) -> &[u64] {
        &self.metrics.read_latencies
    }

    /// Conformance violations found so far (empty when checking is off —
    /// or when the simulated machine is behaving).
    #[must_use]
    pub fn violations(&self) -> &[sim_verify::Violation] {
        self.conformance.violations()
    }

    /// The scheduling-policy auditor riding on the command stream (`None`
    /// when stream checking is off).
    #[must_use]
    pub fn policy_auditor(&self) -> Option<&sim_verify::PolicyAuditor> {
        self.conformance.policy_auditor()
    }

    /// Freezes every counter into one snapshot (a measurement-window edge
    /// or one shard's merge input). `instructions` is 0: the core has no
    /// simulated cores; a driver that has them fills the count in.
    #[must_use]
    pub fn capture(&self) -> CounterSnapshot {
        CounterSnapshot {
            cycle: self.cycle,
            instructions: 0,
            oram_accesses: self.planner.accesses(),
            cycles_by_kind: self.metrics.cycles_by_kind,
            transactions_by_kind: self.tracker.transactions_by_kind().clone(),
            row_class_by_kind: self.metrics.row_class_map(),
            retry_cycles: self.metrics.retry_cycles,
            read_latency_idx: self.metrics.read_latencies.len(),
            backend: self.backend.snapshot(),
            protocol: self.planner.protocol().stats().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    fn pipeline() -> PipelineCore {
        PipelineCore::build(&SystemConfig::test_small(Scheme::All)).unwrap()
    }

    fn drain(p: &mut PipelineCore) -> Vec<Wake> {
        let mut wakes = Vec::new();
        let mut guard = 0;
        while !p.is_drained() {
            p.step(&mut wakes);
            guard += 1;
            assert!(guard < 1_000_000, "engine wedged");
        }
        wakes
    }

    #[test]
    fn tagged_dispatch_returns_the_tag_through_the_wake() {
        let mut p = pipeline();
        let mut wakes = Vec::new();
        if let Some(w) = p.dispatch_real(0xBEE, 42, false) {
            wakes.push(w);
        }
        wakes.extend(drain(&mut p));
        assert_eq!(wakes.len(), 1, "exactly one wake per access");
        assert_eq!(wakes[0].core, 0xBEE);
        assert!(wakes[0].at > 0);
        assert_eq!(p.accesses(), 1);
        assert!(p.violations().is_empty(), "{:?}", p.violations());
    }

    #[test]
    fn cover_dispatch_wakes_nothing_and_counts_separately() {
        let mut p = pipeline();
        assert!(p.dispatch_cover());
        let wakes = drain(&mut p);
        assert!(wakes.is_empty());
        assert_eq!(p.accesses(), 0);
        assert_eq!(p.cover_accesses(), 1);
        assert!(p.violations().is_empty(), "{:?}", p.violations());
    }

    #[test]
    fn tags_are_digest_invisible() {
        let mut a = pipeline();
        let mut b = pipeline();
        for (tag_a, tag_b, block) in [(7usize, 9000usize, 3u64), (8, 1, 11), (9, 2, 3)] {
            a.dispatch_real(tag_a, block, false);
            b.dispatch_real(tag_b, block, false);
        }
        drain(&mut a);
        drain(&mut b);
        assert_eq!(
            a.access_digest(),
            b.access_digest(),
            "attempt tags must never reach the bus-observable stream"
        );
    }

    #[test]
    fn interleaved_cover_and_real_traffic_audits_cleanly() {
        let mut p = pipeline();
        let mut wakes = Vec::new();
        for i in 0..24u64 {
            if i % 3 == 0 {
                assert!(p.dispatch_cover());
            } else if let Some(w) = p.dispatch_real(i as usize, i % 7, i % 2 == 0) {
                wakes.push(w);
            }
            for _ in 0..40 {
                p.step(&mut wakes);
            }
        }
        wakes.extend(drain(&mut p));
        assert_eq!(p.accesses(), 16);
        assert_eq!(p.cover_accesses(), 8);
        assert_eq!(wakes.len(), 16);
        assert!(p.violations().is_empty(), "{:?}", p.violations());
        let snap = p.capture();
        assert_eq!(snap.oram_accesses, 16);
        assert_eq!(snap.instructions, 0);
        assert_eq!(snap.cycles_by_kind.total(), p.cycles());
    }
}
