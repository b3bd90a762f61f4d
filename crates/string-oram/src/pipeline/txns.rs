//! Stages 2 and 4 — **Enqueue** and **Retire**: transaction bookkeeping.
//!
//! The tracker owns every unfinished ORAM transaction: it admits lowered
//! plans from the planner, feeds their requests to the memory backend in
//! strict transaction order (stalling on queue pressure, never reordering),
//! and folds completions back into transaction state, computing the cycle
//! at which a waiting core may resume.

use std::collections::{BTreeMap, VecDeque};

use dram_sim::PhysAddr;
use mem_sched::{Completed, MemoryBackend, RequestSpec, TxnId};
use ring_oram::OpKind;

use crate::pipeline::planner::PlannedTxn;

/// Live state of one ORAM transaction.
#[derive(Debug)]
struct TxnState {
    kind: OpKind,
    /// Cycle the transaction was planned (latency measurement origin).
    planned_at: u64,
    /// Requests not yet completed (enqueued or still waiting to enqueue).
    outstanding: usize,
    /// Core waiting for this transaction's target read, if any.
    waiting_core: Option<usize>,
    /// Request id of the target read once enqueued.
    target_req_id: Option<u64>,
    /// Whether the waiting core is released at transaction completion
    /// rather than at the target read (stash/tree-top/first-touch hits).
    release_on_completion: bool,
}

/// An entry awaiting queue space at the memory backend.
#[derive(Debug, Clone, Copy)]
struct PendingSpec {
    spec: RequestSpec,
    is_target: bool,
}

/// A core release computed by the tracker: core `core` may resume at cycle
/// `at`. `latency` is the plan-to-data latency sample to record when the
/// release ends a program read (degenerate on-chip transactions release
/// without a sample, matching the pre-pipeline accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wake {
    /// The core to release.
    pub core: usize,
    /// First cycle at which the core may resume.
    pub at: u64,
    /// Plan-to-data latency sample, when one applies.
    pub latency: Option<u64>,
}

/// What retiring one completion did: the transaction's kind (for row-class
/// attribution) and the core release it triggered, if any.
#[derive(Debug, Clone, Copy)]
pub struct Retired {
    /// Kind of the transaction the completion belonged to.
    pub kind: OpKind,
    /// Core release triggered by this completion, if any.
    pub wake: Option<Wake>,
}

/// Stages 2 and 4 of the pipeline: transaction admission, strictly ordered
/// enqueue, and retirement.
///
/// Transaction ids are assigned sequentially and the in-flight window is
/// small, so unfinished transactions live in a dense ring buffer indexed by
/// `id - txns_base` (`None` marks ids already finished or completed at
/// admission). This keeps the per-completion lookup and the per-cycle
/// oldest-transaction probe O(1) instead of paying an ordered-map descent
/// on the simulator's two hottest paths.
#[derive(Debug, Default)]
pub struct TxnTracker {
    /// Unfinished transactions: slot `i` holds transaction `txns_base + i`.
    txns: VecDeque<Option<TxnState>>,
    /// Id of the transaction at `txns[0]`; the front slot is kept `Some`
    /// (finished front entries are popped eagerly) unless nothing is live.
    txns_base: u64,
    /// Number of `Some` entries in `txns`.
    live: usize,
    next_txn: u64,
    /// Planned requests awaiting queue space, in strict transaction order.
    enqueue_fifo: VecDeque<PendingSpec>,
    /// The backend's [`MemoryBackend::dequeued`] count when it last
    /// refused the FIFO head: until the count moves, the head is not
    /// offered again (the backend would refuse it).
    refused_at: Option<u64>,
    transactions_by_kind: BTreeMap<&'static str, u64>,
}

impl TxnTracker {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits one lowered transaction: assigns an id and queues its
    /// requests for ordered enqueue. A degenerate (fully on-chip)
    /// transaction completes immediately and returns its core release.
    ///
    /// The tracker copies the requests into its own queues, so the
    /// transaction's request buffer is handed back for the caller to
    /// recycle into the planner's pool (the allocation loop on the hot
    /// path closes here).
    pub fn admit(
        &mut self,
        planned: PlannedTxn,
        cycle: u64,
    ) -> (Vec<(PhysAddr, bool)>, Option<Wake>) {
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        *self
            .transactions_by_kind
            .entry(planned.kind.label())
            .or_default() += 1;

        let state = TxnState {
            kind: planned.kind,
            planned_at: cycle,
            outstanding: planned.requests.len(),
            waiting_core: planned.waiting_core,
            target_req_id: None,
            release_on_completion: planned.release_on_completion,
        };
        for (i, &(addr, is_write)) in planned.requests.iter().enumerate() {
            self.enqueue_fifo.push_back(PendingSpec {
                spec: RequestSpec {
                    addr,
                    is_write,
                    txn,
                },
                is_target: planned.target_index == Some(i),
            });
        }
        let wake = if state.outstanding == 0 {
            // Degenerate (fully on-chip) transaction: complete at once.
            state.waiting_core.map(|core| Wake {
                core,
                at: cycle + 1,
                latency: None,
            })
        } else {
            self.insert(txn.0, state);
            None
        };
        (planned.requests, wake)
    }

    /// Inserts `state` at its id slot, padding skipped (degenerate) ids
    /// with `None`.
    fn insert(&mut self, id: u64, state: TxnState) {
        if self.live == 0 {
            self.txns.clear();
            self.txns_base = id;
        }
        debug_assert!(id >= self.txns_base + self.txns.len() as u64);
        while self.txns_base + (self.txns.len() as u64) < id {
            self.txns.push_back(None);
        }
        self.txns.push_back(Some(state));
        self.live += 1;
    }

    /// The live state of transaction `id`, if still unfinished.
    fn get_mut(&mut self, id: u64) -> Option<&mut TxnState> {
        let idx = id.checked_sub(self.txns_base)?;
        self.txns.get_mut(usize::try_from(idx).ok()?)?.as_mut()
    }

    /// Marks transaction `id` finished and pops any finished prefix so the
    /// front slot stays live.
    fn remove(&mut self, id: u64) {
        if let Some(idx) = id
            .checked_sub(self.txns_base)
            .and_then(|i| usize::try_from(i).ok())
        {
            if let Some(slot) = self.txns.get_mut(idx) {
                if slot.take().is_some() {
                    self.live -= 1;
                }
            }
        }
        while matches!(self.txns.front(), Some(None)) {
            self.txns.pop_front();
            self.txns_base += 1;
        }
    }

    /// Feeds the backend in strict transaction order, stopping at the
    /// first request the backend has no room for. That request is offered
    /// again once the backend's [`MemoryBackend::dequeued`] count has moved
    /// (on every cycle, when the backend keeps none).
    #[inline]
    pub fn enqueue_ready(&mut self, backend: &mut dyn MemoryBackend, cycle: u64) {
        if self.refused_at.is_some() && self.refused_at == backend.dequeued() {
            return;
        }
        self.refused_at = None;
        while let Some(head) = self.enqueue_fifo.front().copied() {
            match backend.try_enqueue(head.spec, cycle) {
                Ok(id) => {
                    if head.is_target {
                        if let Some(t) = self.get_mut(head.spec.txn.0) {
                            t.target_req_id = Some(id);
                        }
                    }
                    self.enqueue_fifo.pop_front();
                }
                Err(_) => {
                    self.refused_at = backend.dequeued();
                    break;
                }
            }
        }
    }

    /// Folds one completion into its transaction. Returns `None` for
    /// completions of unknown transactions (e.g. reissued responses of
    /// already-finished work under fault injection).
    #[inline]
    pub fn retire(&mut self, done: &Completed, cycle: u64) -> Option<Retired> {
        let t = self.get_mut(done.txn.0)?;
        t.outstanding -= 1;
        let kind = t.kind;
        let mut wake = None;
        if t.target_req_id == Some(done.id) {
            if let Some(core) = t.waiting_core.take() {
                let at = done.data_done_at.max(cycle + 1);
                wake = Some(Wake {
                    core,
                    at,
                    latency: Some(at - t.planned_at),
                });
            }
        }
        if t.outstanding == 0 {
            if let Some(core) = t.waiting_core.take() {
                // Stash / tree-top / first-touch hits release here.
                debug_assert!(t.release_on_completion);
                let at = done.data_done_at.max(cycle + 1);
                wake = Some(Wake {
                    core,
                    at,
                    latency: Some(at - t.planned_at),
                });
            }
            self.remove(done.txn.0);
        }
        Some(Retired { kind, wake })
    }

    /// Kind of the oldest unfinished transaction (cycle attribution).
    #[must_use]
    pub fn oldest_kind(&self) -> Option<OpKind> {
        self.txns.front().and_then(|t| t.as_ref()).map(|t| t.kind)
    }

    /// Unfinished transactions currently tracked.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.live
    }

    /// Whether admitted requests still wait for queue space at the backend
    /// (the enqueue stage has work).
    #[must_use]
    pub(crate) fn has_unenqueued(&self) -> bool {
        !self.enqueue_fifo.is_empty()
    }

    /// Whether no transaction state remains (nothing tracked, nothing
    /// awaiting enqueue).
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.live == 0 && self.enqueue_fifo.is_empty()
    }

    /// Transactions admitted so far, by kind label.
    #[must_use]
    pub fn transactions_by_kind(&self) -> &BTreeMap<&'static str, u64> {
        &self.transactions_by_kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    use dram_sim::geometry::DramGeometry;
    use dram_sim::timing::TimingParams;
    use dram_sim::{AddressMapping, DramModule};
    use mem_sched::{
        BackendSnapshot, CommandEvent, MemoryController, QueueFull, ResponseFaultConfig,
        SchedulerPolicy,
    };

    use crate::config::{BackendKind, FaultConfig, Scheme, SystemConfig};
    use crate::pipeline::build_backend;
    use crate::system::Simulation;

    fn planned(kind: OpKind, n: usize, target: Option<usize>, core: Option<usize>) -> PlannedTxn {
        PlannedTxn {
            kind,
            requests: (0..n)
                .map(|i| (dram_sim::PhysAddr(i as u64 * 64), false))
                .collect(),
            target_index: target,
            waiting_core: core,
            release_on_completion: target.is_none(),
        }
    }

    #[test]
    fn degenerate_transaction_wakes_immediately() {
        let mut tr = TxnTracker::new();
        let (_, w) = tr.admit(planned(OpKind::ReadPath, 0, None, Some(3)), 10);
        assert_eq!(
            w,
            Some(Wake {
                core: 3,
                at: 11,
                latency: None
            })
        );
        assert_eq!(tr.inflight(), 0);
        assert!(tr.is_drained());
        assert_eq!(tr.transactions_by_kind()["read"], 1);
    }

    #[test]
    fn admission_preserves_transaction_order() {
        let mut tr = TxnTracker::new();
        assert!(tr
            .admit(planned(OpKind::ReadPath, 2, None, None), 0)
            .1
            .is_none());
        assert!(tr
            .admit(planned(OpKind::Eviction, 1, None, None), 0)
            .1
            .is_none());
        assert_eq!(tr.inflight(), 2);
        assert_eq!(tr.oldest_kind(), Some(OpKind::ReadPath));
        assert!(!tr.is_drained());
    }

    /// What a [`Counting`] backend saw.
    #[derive(Debug, Default)]
    struct Seen {
        offers: u64,
        refusals: u64,
        events: Vec<CommandEvent>,
    }

    /// Forwards everything to `inner`, counting the offers made to it and
    /// copying the command stream it hands out; with `gate` off it keeps no
    /// dequeue count, so the tracker offers its head on every cycle.
    #[derive(Debug)]
    struct Counting {
        inner: Box<dyn MemoryBackend>,
        gate: bool,
        seen: Arc<Mutex<Seen>>,
    }

    impl Counting {
        fn seen(&self) -> std::sync::MutexGuard<'_, Seen> {
            self.seen.lock().expect("one thread")
        }
    }

    impl MemoryBackend for Counting {
        fn try_enqueue(&mut self, spec: RequestSpec, cycle: u64) -> Result<u64, QueueFull> {
            let got = self.inner.try_enqueue(spec, cycle);
            let mut seen = self.seen();
            seen.offers += 1;
            seen.refusals += u64::from(got.is_err());
            got
        }

        fn tick(&mut self, cycle: u64) {
            self.inner.tick(cycle);
        }

        fn next_event_cycle(&self, from: u64) -> u64 {
            self.inner.next_event_cycle(from)
        }

        fn dequeued(&self) -> Option<u64> {
            self.inner.dequeued().filter(|_| self.gate)
        }

        fn drain_completed(&mut self) -> Vec<Completed> {
            self.inner.drain_completed()
        }

        fn drain_completed_into(&mut self, out: &mut Vec<Completed>) {
            self.inner.drain_completed_into(out);
        }

        fn pending(&self) -> usize {
            self.inner.pending()
        }

        fn enable_command_trace(&mut self) {
            self.inner.enable_command_trace();
        }

        fn take_command_events(&mut self) -> Vec<CommandEvent> {
            let events = self.inner.take_command_events();
            self.seen().events.extend_from_slice(&events);
            events
        }

        fn drain_command_events_into(&mut self, out: &mut Vec<CommandEvent>) {
            let from = out.len();
            self.inner.drain_command_events_into(out);
            self.seen().events.extend_from_slice(&out[from..]);
        }

        fn dram_module(&self) -> Option<&DramModule> {
            self.inner.dram_module()
        }

        fn snapshot(&self) -> BackendSnapshot {
            self.inner.snapshot()
        }
    }

    /// A PB controller over the small geometry with 4-entry queues, behind
    /// a gated [`Counting`] wrapper.
    fn small_controller(faults: Option<ResponseFaultConfig>) -> Counting {
        let geometry = DramGeometry::test_small();
        let mapping = AddressMapping::hpca_default(&geometry);
        let dram = DramModule::new(geometry, TimingParams::test_fast());
        let mut ctrl = MemoryController::new(dram, mapping, SchedulerPolicy::proactive(), 4);
        if let Some(faults) = faults {
            ctrl.enable_response_faults(faults);
        }
        Counting {
            inner: Box::new(ctrl),
            gate: true,
            seen: Arc::default(),
        }
    }

    /// Per call of `enqueue_ready` while requests wait: the backend's
    /// dequeue count before the call, the offers the call made and whether
    /// one was refused. Six 24-request transactions into 4-entry queues.
    fn offers_per_call(backend: &mut Counting) -> Vec<(Option<u64>, u64, bool)> {
        let mut tracker = TxnTracker::new();
        for kind in [OpKind::ReadPath, OpKind::Eviction].repeat(3) {
            let (_, wake) = tracker.admit(planned(kind, 24, None, None), 0);
            assert!(wake.is_none());
        }
        let (mut calls, mut done) = (Vec::new(), Vec::new());
        let mut cycle = 0;
        while !tracker.is_drained() {
            if tracker.has_unenqueued() {
                let dequeued = backend.dequeued();
                let (offers, refusals) = {
                    let seen = backend.seen();
                    (seen.offers, seen.refusals)
                };
                tracker.enqueue_ready(backend, cycle);
                let seen = backend.seen();
                calls.push((dequeued, seen.offers - offers, seen.refusals > refusals));
            }
            backend.tick(cycle);
            backend.drain_completed_into(&mut done);
            for d in done.drain(..) {
                tracker.retire(&d, cycle);
            }
            cycle += 1;
            assert!(cycle < 100_000, "the tracker never drained");
        }
        calls
    }

    #[test]
    fn a_refused_head_is_offered_again_only_once_the_dequeue_count_moves() {
        let calls = offers_per_call(&mut small_controller(None));
        let (mut held, mut reoffered) = (0, 0);
        let mut refused_at = None;
        for &(dequeued, offers, refused) in &calls {
            assert!(dequeued.is_some(), "the controller keeps a count");
            match refused_at {
                Some(at) if at == dequeued => {
                    assert_eq!(offers, 0, "offered while the count stood at {at:?}");
                    held += 1;
                    continue;
                }
                Some(_) => {
                    assert!(offers > 0, "not offered after the count moved");
                    reoffered += 1;
                }
                None => assert!(offers > 0),
            }
            refused_at = refused.then_some(dequeued);
        }
        assert!(
            held > 50 && reoffered > 20,
            "held {held}, offered again {reoffered}"
        );
    }

    #[test]
    fn under_saturation_faults_the_head_is_offered_on_every_cycle() {
        // A saturated window closes without any request leaving: the
        // controller keeps no count, and every call offers.
        let faults = ResponseFaultConfig {
            seed: 0x5A7,
            saturation_rate: 0.5,
            ..ResponseFaultConfig::default()
        };
        let mut backend = small_controller(Some(faults));
        let calls = offers_per_call(&mut backend);
        assert!(calls
            .iter()
            .all(|&(dequeued, offers, _)| dequeued.is_none() && offers > 0));
        let refused = calls.iter().filter(|&&(_, _, refused)| refused).count();
        assert!(refused > 100, "{refused} refusals");
        assert!(backend.snapshot().sched.queue_saturation_windows > 0);
    }

    /// One checked run of `cfg` over two cores of the `black` trace behind
    /// a [`Counting`] wrapper: the report, the access digest and what the
    /// wrapper saw.
    fn run_wrapped(cfg: &SystemConfig, gate: bool) -> (String, u64, Seen) {
        let traces = (0..cfg.cores)
            .map(|c| {
                let spec = trace_synth::by_name("black").expect("a named workload");
                trace_synth::TraceGenerator::new(spec, 11, c as u32).take_records(120)
            })
            .collect();
        let mut sim = Simulation::new(cfg.clone(), traces);
        let seen = Arc::new(Mutex::new(Seen::default()));
        let placeholder = build_backend(&SystemConfig {
            backend: BackendKind::FastFunctional,
            ..cfg.clone()
        });
        let inner = std::mem::replace(sim.backend_mut(), placeholder);
        let wrapped = Counting {
            inner,
            gate,
            seen: Arc::clone(&seen),
        };
        *sim.backend_mut() = Box::new(wrapped);
        let report = sim.run(50_000_000).expect("run completes");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let digest = sim.access_digest();
        drop(sim);
        let seen = Arc::try_unwrap(seen).expect("the run is over");
        (
            format!("{report:?}"),
            digest,
            seen.into_inner().expect("one thread"),
        )
    }

    #[test]
    fn the_gate_moves_nothing_simulated() {
        // PB, transaction-based scheduling, and PB under every fault layer
        // (saturation included, where the gate stands aside).
        let mut faulty = SystemConfig::test_small(Scheme::All);
        faulty.faults = Some(FaultConfig::smoke(0xF417, 0.05, faulty.ring.stash_capacity));
        faulty.timing.t_refi = 1_000;
        let configs = [
            SystemConfig::test_small(Scheme::All),
            SystemConfig::test_small(Scheme::Baseline),
            faulty,
        ];
        for (i, cfg) in configs.iter().enumerate() {
            assert_eq!(cfg.backend, BackendKind::CycleAccurate);
            let (report, digest, on) = run_wrapped(cfg, true);
            let (report_off, digest_off, off) = run_wrapped(cfg, false);
            assert_eq!(report, report_off, "config {i}: the report moved");
            assert_eq!(digest, digest_off, "config {i}: the access digest moved");
            assert!(!on.events.is_empty());
            assert!(
                on.events == off.events,
                "config {i}: the command stream moved"
            );
            assert_eq!(on.refusals > 0, off.refusals > 0);
            if i < 2 {
                assert!(off.refusals > 0, "config {i}: no refusal to gate");
                assert!(
                    on.offers < off.offers,
                    "config {i}: {} vs {}",
                    on.offers,
                    off.offers
                );
            } else {
                assert_eq!(
                    on.offers, off.offers,
                    "saturation faults: offered every cycle"
                );
            }
        }
    }
}
