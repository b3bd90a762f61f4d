//! The service proper: multi-tenant admission, batching, deadlines and
//! the merged report.
//!
//! [`OramService`] owns one [`ShardPipeline`] per shard and advances them
//! in lockstep on a single virtual clock (one service tick = one
//! memory-bus cycle). Each tick runs a fixed phase order, and each phase
//! costs what changed this tick, not what exists (what wakes it is in
//! parentheses):
//!
//! 1. resolve engine completions due this tick (the wake heap's head),
//! 2. expire deadlines due this tick — completions win ties (the deadline
//!    heap's head),
//! 3. generate arrivals and run admission, against the governor state
//!    observed at the *end of the previous* tick (tenants whose arrival
//!    shape is not silent; every depth that rises is audited where it
//!    rises),
//! 4. dispatch queued requests (and cover padding) per the submission
//!    policy, and seal the tick's envelope (fixed rate: the slot tick;
//!    best effort: a non-empty queue),
//! 5. fold the submission envelope digest (every tick inside the horizon:
//!    the digest is defined per tick),
//! 6. step every shard one cycle, in shard-id order (a shard with nothing
//!    to enqueue and nothing due steps in O(1)),
//! 7. observe queue pressure into the governor (a total depth other than
//!    the one it last settled on).
//!
//! A tick on which nothing is due — most ticks of a fixed-rate cadence —
//! is therefore two heap peeks, the live tenants' draws, one digest fold,
//! one O(1) step per shard and a few compares. Debug builds check the
//! maintained state against the sums and tests it replaces.
//!
//! Everything is deterministic: arrivals, block choices and cover routing
//! all draw from streams derived from the master seed with
//! [`oram_rng::derive_stream_seed`], and no wall-clock time exists
//! anywhere. Same seed, same config → byte-identical [`SimReport`]s.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use oram_rng::{derive_stream_seed, fnv1a_u64, Rng, StdRng, FNV_OFFSET};
use ring_oram::{BlockId, ShardMap};
use sim_verify::{AuditedPolicy, RequestOutcome, ServiceAuditor};
use string_oram::pipeline::build_merged_report;
use string_oram::{ConfigError, LatencyPercentiles, ServiceSummary, SimReport, TenantSummary};
use trace_synth::ArrivalProcess;

use crate::config::{RejectReason, Rejected, ServiceConfig, SubmissionPolicy, TenantSpec};
use crate::governor::{Governor, GovernorState};
use crate::ShardPipeline;

/// Stream tweak for the arrival-process master seed.
const ARRIVALS_STREAM: u64 = 0xA112;
/// Tweak xored into the arrivals master for tenant block/write draws.
const BLOCKS_TWEAK: u64 = 0xB10C;
/// Stream tweak for the cover-access shard-routing draw.
const COVER_STREAM: u64 = 0xC0_7E2;
/// Tenant `t`'s blocks live at `t << TENANT_SHIFT`.
const TENANT_SHIFT: u32 = 20;
/// Marker for "no live engine attempt".
const NO_ATTEMPT: u64 = u64::MAX;

/// Where a request currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting in its tenant's queue.
    Queued,
    /// Submitted to the engine; a live attempt is in flight.
    Dispatched,
    /// Resolved exactly once (completed, timed out or rejected).
    Resolved,
}

/// One request's bookkeeping entry. Entries are append-only — the request
/// id is the index into the table.
#[derive(Debug)]
struct Request {
    tenant: usize,
    /// Global block id (tenant base + offset).
    block: u64,
    is_write: bool,
    arrived_at: u64,
    /// Current deadline tick (extended on retry).
    deadline: u64,
    retries_used: u32,
    /// The live engine attempt id, or [`NO_ATTEMPT`] while queued. A wake
    /// for any other attempt id is stale and dropped.
    attempt: u64,
    phase: Phase,
}

/// Per-tenant runtime state: the bounded queue and the outcome counters.
#[derive(Debug)]
struct Tenant {
    spec: TenantSpec,
    /// First global block id of the tenant's range.
    base: u64,
    /// Request ids in arrival order. May contain ghosts (already-resolved
    /// requests, skipped lazily at dispatch); `queued_live` is the true
    /// depth used for caps, high-water marks and governor pressure.
    queue: VecDeque<u64>,
    queued_live: usize,
    high_water: usize,
    arrivals: u64,
    admitted: u64,
    completed: u64,
    timed_out: u64,
    rejected_queue_full: u64,
    rejected_throttled: u64,
    rejected_shed: u64,
    retries: u64,
    late_completions: u64,
    /// Admission-to-completion latencies of completed requests, in ticks.
    latencies: Vec<u64>,
    /// Block and write-fraction draws.
    rng: StdRng,
}

impl Tenant {
    fn new(spec: TenantSpec, id: usize, block_seed: u64) -> Self {
        Self {
            base: (id as u64) << TENANT_SHIFT,
            queue: VecDeque::new(),
            queued_live: 0,
            high_water: 0,
            arrivals: 0,
            admitted: 0,
            completed: 0,
            timed_out: 0,
            rejected_queue_full: 0,
            rejected_throttled: 0,
            rejected_shed: 0,
            retries: 0,
            late_completions: 0,
            latencies: Vec::new(),
            rng: StdRng::seed_from_u64(block_seed),
            spec,
        }
    }

    fn summary(&self) -> TenantSummary {
        TenantSummary {
            tenant: self.spec.name.clone(),
            arrivals: self.arrivals,
            admitted: self.admitted,
            completed: self.completed,
            timed_out: self.timed_out,
            rejected_queue_full: self.rejected_queue_full,
            rejected_throttled: self.rejected_throttled,
            rejected_shed: self.rejected_shed,
            retries: self.retries,
            late_completions: self.late_completions,
            queue_depth_high_water: self.high_water,
            latency: LatencyPercentiles::from_samples(&self.latencies),
        }
    }
}

/// The multi-tenant front-end. Build with [`OramService::new`], then
/// either drive it to completion with [`OramService::run`] or inject
/// requests by hand with [`OramService::submit`] between
/// [`OramService::tick_once`] calls.
#[derive(Debug)]
pub struct OramService {
    cfg: ServiceConfig,
    map: ShardMap,
    shards: Vec<ShardPipeline>,
    tenants: Vec<Tenant>,
    /// `(tenant, process)` for the tenants whose arrival shape can ever
    /// fire, in id order. A silent shape (rate 0) gets no process: it
    /// would yield no arrival, and its burst-state draws would be visible
    /// to nobody.
    arrivals: Vec<(usize, ArrivalProcess)>,
    requests: Vec<Request>,
    /// Attempt id → request id. Attempt ids are assigned densely at
    /// dispatch time.
    attempt_req: Vec<u64>,
    /// Min-heap of (deadline, request id). Entries whose request resolved
    /// or whose deadline moved (retry) are stale and skipped on pop.
    deadlines: BinaryHeap<Reverse<(u64, u64)>>,
    /// Min-heap of (wake tick, sequence, attempt id). The sequence number
    /// makes pop order deterministic for equal wake ticks.
    wakes: BinaryHeap<Reverse<(u64, u64, u64)>>,
    wake_seq: u64,
    wake_scratch: Vec<string_oram::pipeline::Wake>,
    cover_rng: StdRng,
    governor: Governor,
    auditor: ServiceAuditor,
    schedule_digest: u64,
    tick: u64,
    /// Round-robin cursor over tenants for dispatch fairness.
    rr: usize,
    /// Admitted requests not yet resolved.
    unresolved: u64,
    real_dispatched: u64,
    cover_dispatched: u64,
    total_caps: usize,
    /// Sum of the tenants' `queued_live`, kept where a depth changes.
    queued_total: usize,
    /// The total depth at which the governor's last observation made no
    /// transition. Its next state is a function of its state and the fill,
    /// so observing that total again changes nothing; `None` while the last
    /// observation moved it (the same fill may move it again).
    governor_settled_at: Option<usize>,
    /// The next fixed-rate slot tick (multiples of the interval).
    next_slot: u64,
}

impl OramService {
    /// Validates `cfg` and builds one pipeline per shard configuration
    /// (`SystemConfig::shard_configs`, the derivation the sharded
    /// simulation uses).
    ///
    /// # Errors
    ///
    /// [`ConfigError::Invalid`] from configuration validation or shard
    /// construction.
    pub fn new(cfg: ServiceConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let (map, shard_cfgs) = cfg.system.shard_configs()?;
        let shards = shard_cfgs
            .iter()
            .map(ShardPipeline::build)
            .collect::<Result<Vec<_>, _>>()?;
        let arrivals_master = derive_stream_seed(cfg.system.seed, ARRIVALS_STREAM);
        let arrivals = cfg
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, spec)| !spec.arrivals.is_silent())
            .map(|(t, spec)| {
                let seed = derive_stream_seed(arrivals_master, t as u64);
                (t, ArrivalProcess::new(spec.arrivals, seed))
            })
            .collect();
        let tenants: Vec<Tenant> = cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                let seed = derive_stream_seed(arrivals_master ^ BLOCKS_TWEAK, t as u64);
                Tenant::new(spec.clone(), t, seed)
            })
            .collect();
        let total_caps = tenants.iter().map(|t| t.spec.queue_cap).sum();
        let audited = match cfg.policy {
            SubmissionPolicy::BestEffort { .. } => AuditedPolicy::BestEffort,
            SubmissionPolicy::FixedRate { interval, batch } => {
                AuditedPolicy::FixedRate { interval, batch }
            }
        };
        let caps = tenants.iter().map(|t| t.spec.queue_cap).collect();
        Ok(Self {
            map,
            shards,
            tenants,
            arrivals,
            requests: Vec::new(),
            attempt_req: Vec::new(),
            deadlines: BinaryHeap::new(),
            wakes: BinaryHeap::new(),
            wake_seq: 0,
            wake_scratch: Vec::new(),
            cover_rng: StdRng::seed_from_u64(derive_stream_seed(cfg.system.seed, COVER_STREAM)),
            governor: Governor::new(cfg.governor),
            auditor: ServiceAuditor::new(audited, caps),
            schedule_digest: FNV_OFFSET,
            tick: 0,
            rr: 0,
            unresolved: 0,
            real_dispatched: 0,
            cover_dispatched: 0,
            total_caps,
            queued_total: 0,
            governor_settled_at: None,
            next_slot: 0,
            cfg,
        })
    }

    /// Submits one request for tenant `tenant`'s block `offset` (taken
    /// modulo the tenant's block count). Admission applies the governor's
    /// current effective quota and the tenant's queue cap; a shed request
    /// resolves immediately with a structured [`Rejected`].
    ///
    /// # Errors
    ///
    /// [`Rejected`] when admission sheds the request (it still counts as
    /// an arrival and resolves exactly once, as rejected).
    ///
    /// # Panics
    ///
    /// When `tenant` is out of range (caller bug).
    pub fn submit(&mut self, tenant: usize, offset: u64, is_write: bool) -> Result<u64, Rejected> {
        assert!(tenant < self.tenants.len(), "tenant {tenant} out of range");
        let now = self.tick;
        let id = self.requests.len() as u64;
        self.auditor.observe_arrival(now, id);
        let cap = self
            .governor
            .effective_cap(self.tenants[tenant].spec.queue_cap);
        let ten = &mut self.tenants[tenant];
        ten.arrivals += 1;
        let block = ten.base + (offset % ten.spec.blocks);
        let verdict = match cap {
            None => Some(RejectReason::Shedding),
            Some(_) if ten.queued_live >= ten.spec.queue_cap => Some(RejectReason::QueueFull),
            Some(eff) if ten.queued_live >= eff => Some(RejectReason::Throttled),
            Some(_) => None,
        };
        if let Some(reason) = verdict {
            match reason {
                RejectReason::QueueFull => ten.rejected_queue_full += 1,
                RejectReason::Throttled => ten.rejected_throttled += 1,
                RejectReason::Shedding => ten.rejected_shed += 1,
            }
            self.requests.push(Request {
                tenant,
                block,
                is_write,
                arrived_at: now,
                deadline: now,
                retries_used: 0,
                attempt: NO_ATTEMPT,
                phase: Phase::Resolved,
            });
            self.auditor
                .observe_resolution(now, id, RequestOutcome::Rejected);
            return Err(Rejected { tenant, reason });
        }
        ten.admitted += 1;
        self.enqueue(tenant, id, now);
        let deadline = now + self.cfg.deadline_cycles;
        self.requests.push(Request {
            tenant,
            block,
            is_write,
            arrived_at: now,
            deadline,
            retries_used: 0,
            attempt: NO_ATTEMPT,
            phase: Phase::Queued,
        });
        self.deadlines.push(Reverse((deadline, id)));
        self.unresolved += 1;
        Ok(id)
    }

    /// Queues request `id` at its tenant's tail. A depth only ever rises
    /// here, so this is where the auditor sees it: before any dispatch of
    /// the same tick, like the per-tick audit this replaces.
    fn enqueue(&mut self, tenant: usize, id: u64, now: u64) {
        let ten = &mut self.tenants[tenant];
        ten.queue.push_back(id);
        ten.queued_live += 1;
        ten.high_water = ten.high_water.max(ten.queued_live);
        self.queued_total += 1;
        self.auditor
            .observe_queue_depth(now, tenant, ten.queued_live);
    }

    /// Resolves engine completions whose wake tick has arrived. A wake
    /// whose attempt no longer matches its request's live attempt (the
    /// request timed out or retried) is dropped and counted as a late
    /// completion.
    fn process_wakes(&mut self, now: u64) {
        while let Some(&Reverse((at, _, attempt))) = self.wakes.peek() {
            if at > now {
                break;
            }
            self.wakes.pop();
            let id = self.attempt_req[attempt as usize];
            let req = &mut self.requests[id as usize];
            if req.phase == Phase::Dispatched && req.attempt == attempt {
                req.phase = Phase::Resolved;
                let ten = &mut self.tenants[req.tenant];
                ten.completed += 1;
                ten.latencies.push(at.saturating_sub(req.arrived_at));
                self.unresolved -= 1;
                self.auditor
                    .observe_resolution(now, id, RequestOutcome::Completed);
            } else {
                self.tenants[req.tenant].late_completions += 1;
            }
        }
    }

    /// Expires deadlines due at `now`: unresolved requests retry while
    /// budget remains (new deadline, fresh attempt on redispatch) and
    /// otherwise resolve TimedOut — eagerly, at exactly the deadline tick.
    fn process_deadlines(&mut self, now: u64) {
        while let Some(&Reverse((deadline, id))) = self.deadlines.peek() {
            if deadline > now {
                break;
            }
            self.deadlines.pop();
            let req = &mut self.requests[id as usize];
            // Stale entries: already resolved, or the deadline moved.
            if req.phase == Phase::Resolved || req.deadline != deadline {
                continue;
            }
            if req.retries_used < self.cfg.retry_budget {
                req.retries_used += 1;
                req.deadline = now + self.cfg.deadline_cycles;
                self.deadlines.push(Reverse((req.deadline, id)));
                self.tenants[req.tenant].retries += 1;
                match req.phase {
                    // Still queued: the retry just extends the deadline in
                    // place; the request keeps its queue position.
                    Phase::Queued => {}
                    // In flight: supersede the attempt and re-queue at the
                    // tail — unless the queue is full, in which case the
                    // retry is stillborn and the request times out now.
                    Phase::Dispatched => {
                        let tenant = req.tenant;
                        if self.tenants[tenant].queued_live < self.tenants[tenant].spec.queue_cap {
                            req.attempt = NO_ATTEMPT;
                            req.phase = Phase::Queued;
                            self.enqueue(tenant, id, now);
                        } else {
                            self.resolve_timeout(id, now);
                        }
                    }
                    Phase::Resolved => unreachable!("filtered above"),
                }
            } else {
                self.resolve_timeout(id, now);
            }
        }
    }

    fn resolve_timeout(&mut self, id: u64, now: u64) {
        let req = &mut self.requests[id as usize];
        debug_assert_ne!(req.phase, Phase::Resolved, "double timeout");
        if req.phase == Phase::Queued {
            // Leaves a ghost in the queue, skipped lazily at dispatch.
            self.tenants[req.tenant].queued_live -= 1;
            self.queued_total -= 1;
        }
        req.phase = Phase::Resolved;
        self.tenants[req.tenant].timed_out += 1;
        self.unresolved -= 1;
        self.auditor
            .observe_resolution(now, id, RequestOutcome::TimedOut);
    }

    /// Pops the next dispatchable request, round-robin over tenants.
    /// `gated` applies best-effort's per-shard transaction-window check: a
    /// tenant whose head-of-line request targets a full shard is skipped
    /// this tick (FIFO per tenant is preserved; the head is not bypassed).
    fn pop_next_real(&mut self, gated: bool) -> Option<u64> {
        let n = self.tenants.len();
        for i in 0..n {
            let t = (self.rr + i) % n;
            // Shed ghosts at the head.
            while let Some(&id) = self.tenants[t].queue.front() {
                if self.requests[id as usize].phase == Phase::Queued {
                    break;
                }
                self.tenants[t].queue.pop_front();
            }
            let Some(&id) = self.tenants[t].queue.front() else {
                continue;
            };
            if gated {
                let shard = self.map.shard_of(BlockId(self.requests[id as usize].block));
                if self.shards[shard].inflight() >= self.cfg.system.max_inflight_txns {
                    continue;
                }
            }
            self.tenants[t].queue.pop_front();
            self.tenants[t].queued_live -= 1;
            self.queued_total -= 1;
            self.rr = (t + 1) % n;
            return Some(id);
        }
        None
    }

    /// Dispatches request `id` into its shard under a fresh attempt id.
    fn dispatch_real(&mut self, id: u64, now: u64) {
        let attempt = self.attempt_req.len() as u64;
        self.attempt_req.push(id);
        let req = &mut self.requests[id as usize];
        req.attempt = attempt;
        req.phase = Phase::Dispatched;
        let block = BlockId(req.block);
        let is_write = req.is_write;
        let shard = self.map.shard_of(block);
        let local = self.map.local_block(block);
        self.auditor.observe_dispatch(now, Some(id));
        self.real_dispatched += 1;
        if let Some(wake) = self.shards[shard].dispatch_real(attempt as usize, local.0, is_write) {
            self.wakes.push(Reverse((wake.at, self.wake_seq, attempt)));
            self.wake_seq += 1;
        }
    }

    /// Dispatches one cover access to a uniformly drawn shard.
    fn dispatch_cover(&mut self, now: u64) {
        let shard = if self.shards.len() > 1 {
            self.cover_rng.gen_range(0..self.shards.len())
        } else {
            0
        };
        self.auditor.observe_dispatch(now, None);
        self.cover_dispatched += 1;
        let ok = self.shards[shard].dispatch_cover();
        debug_assert!(ok, "validated policies always have cover accesses");
    }

    /// Total queue fill, as the governor sees it.
    fn fill(&self) -> f64 {
        if self.total_caps == 0 {
            0.0
        } else {
            self.queued_total as f64 / self.total_caps as f64
        }
    }

    /// Advances the service one tick (one memory-bus cycle) through the
    /// fixed phase order documented at module level.
    pub fn tick_once(&mut self) {
        let now = self.tick;
        let in_horizon = now < self.cfg.horizon;
        // 1. Completions first: a request whose data arrives on its
        //    deadline tick completes rather than timing out.
        self.process_wakes(now);
        // 2. Deadlines.
        self.process_deadlines(now);
        // 3. Arrivals (inside the horizon), against the governor state
        //    observed at the end of the previous tick.
        if in_horizon {
            for i in 0..self.arrivals.len() {
                let t = self.arrivals[i].0;
                let n = self.arrivals[i].1.next_tick();
                for _ in 0..n {
                    let blocks = self.tenants[t].spec.blocks;
                    let wf = self.tenants[t].spec.write_fraction;
                    let offset = self.tenants[t].rng.gen_range(0..blocks);
                    let is_write = self.tenants[t].rng.gen_bool(wf);
                    let _ = self.submit(t, offset, is_write);
                }
            }
        }
        debug_assert_eq!(
            self.queued_total,
            self.tenants.iter().map(|t| t.queued_live).sum::<usize>()
        );
        // 4. Dispatch. The service keeps submitting past the horizon while
        //    queues hold live requests (drain keeps the cadence). A tick
        //    that submits, or should, is sealed for the envelope audit.
        let mut slots: u64 = 0;
        match self.cfg.policy {
            SubmissionPolicy::BestEffort { batch } => {
                if self.queued_total > 0 {
                    for _ in 0..batch {
                        let Some(id) = self.pop_next_real(true) else {
                            break;
                        };
                        self.dispatch_real(id, now);
                        slots += 1;
                    }
                    if slots > 0 {
                        self.auditor.seal_tick(now);
                    }
                }
            }
            SubmissionPolicy::FixedRate { interval, batch } => {
                let slot_tick = now == self.next_slot;
                debug_assert_eq!(slot_tick, now.is_multiple_of(interval));
                if slot_tick {
                    self.next_slot += interval;
                    if in_horizon || self.queued_total > 0 {
                        for _ in 0..batch {
                            match self.pop_next_real(false) {
                                Some(id) => self.dispatch_real(id, now),
                                None => self.dispatch_cover(now),
                            }
                            slots += 1;
                        }
                        self.auditor.seal_tick(now);
                    }
                }
            }
        }
        // 5. The envelope digest covers the steady-state window only:
        //    inside the horizon the fixed-rate envelope is a pure function
        //    of the clock and policy, so the digest is load-invariant. Past
        //    the horizon the envelope length itself depends on backlog size
        //    — the aggregate-drain leak the design doc discusses.
        if in_horizon {
            self.schedule_digest = fnv1a_u64(fnv1a_u64(self.schedule_digest, now), slots);
        }
        // 6. Lockstep step, shard-id order.
        let mut scratch = std::mem::take(&mut self.wake_scratch);
        for shard in &mut self.shards {
            scratch.clear();
            shard.step(&mut scratch);
            for wake in scratch.drain(..) {
                self.wakes
                    .push(Reverse((wake.at, self.wake_seq, wake.core as u64)));
                self.wake_seq += 1;
            }
        }
        self.wake_scratch = scratch;
        // 7. Governor sees this tick's closing pressure; admission next
        //    tick acts on it.
        if self.governor_settled_at == Some(self.queued_total) {
            debug_assert!(
                !self.governor.clone().observe(self.fill()),
                "a settled governor moved on the fill it settled at"
            );
        } else {
            let moved = self.governor.observe(self.fill());
            self.governor_settled_at = (!moved).then_some(self.queued_total);
        }
        self.tick += 1;
    }

    /// Whether the run is complete: the horizon has passed, every admitted
    /// request has resolved, every shard has drained, and no engine wakes
    /// remain to account for.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.tick >= self.cfg.horizon
            && self.unresolved == 0
            && self.wakes.is_empty()
            && self.shards.iter().all(ShardPipeline::is_drained)
    }

    /// Runs the service to completion and returns the merged report.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Invalid`] when the run exceeds
    /// [`ServiceConfig::max_cycles`] (wedge guard); every well-formed
    /// configuration terminates because each admitted request resolves by
    /// its final deadline at the latest.
    pub fn run(&mut self) -> Result<SimReport, ConfigError> {
        while !self.is_finished() {
            if self.tick >= self.cfg.max_cycles {
                return Err(ConfigError::Invalid(format!(
                    "service exceeded max_cycles = {} with {} requests unresolved",
                    self.cfg.max_cycles, self.unresolved
                )));
            }
            self.tick_once();
        }
        self.auditor.finish(self.tick);
        Ok(self.report())
    }

    /// Builds the merged report: extensive counters summed over shards in
    /// shard-id order, latency percentiles over the pooled engine samples,
    /// per-shard conformance findings prefixed with their shard id,
    /// service-auditor findings appended, and the serving-layer summary
    /// attached.
    #[must_use]
    pub fn report(&self) -> SimReport {
        let parts = self
            .shards
            .iter()
            .map(|s| (s.capture(), s.read_latency_samples(), s.violations()));
        let label = format!("service/{}", self.policy_label());
        let mut report = build_merged_report(&self.cfg.system, label, parts);
        report
            .violations
            .extend(self.auditor.violations().iter().map(ToString::to_string));
        report.service = Some(ServiceSummary {
            policy: self.policy_label(),
            ticks: self.tick,
            real_accesses: self.real_dispatched,
            padding_accesses: self.cover_dispatched,
            schedule_digest: self.schedule_digest,
            governor: self.governor.summary(),
            tenants: self.tenants.iter().map(Tenant::summary).collect(),
        });
        report
    }

    fn policy_label(&self) -> String {
        match self.cfg.policy {
            SubmissionPolicy::BestEffort { batch } => format!("best-effort/batch={batch}"),
            SubmissionPolicy::FixedRate { interval, batch } => {
                format!("fixed-rate/interval={interval}/batch={batch}")
            }
        }
    }

    /// The shard pipelines, in shard-id order. Read-only inspection (tests
    /// compare the merged report against per-shard counters); the service
    /// alone dispatches into them.
    #[must_use]
    pub fn shards(&self) -> &[ShardPipeline] {
        &self.shards
    }

    /// Current governor state.
    #[must_use]
    pub fn governor_state(&self) -> GovernorState {
        self.governor.state()
    }

    /// The submission-envelope digest folded so far (ticks inside the
    /// horizon only).
    #[must_use]
    pub fn schedule_digest(&self) -> u64 {
        self.schedule_digest
    }

    /// Ticks advanced so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Requests seen so far (admitted or shed).
    #[must_use]
    pub fn requests_seen(&self) -> usize {
        self.requests.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_synth::ArrivalSpec;

    fn two_tenant_cfg(horizon: u64) -> ServiceConfig {
        ServiceConfig::test_small(
            vec![
                TenantSpec::new("alpha", ArrivalSpec::steady(4.0)),
                TenantSpec::new("beta", ArrivalSpec::bursty(2.0, 6.0)),
            ],
            horizon,
        )
    }

    #[test]
    fn every_request_resolves_exactly_once() {
        let mut svc = OramService::new(two_tenant_cfg(30_000)).unwrap();
        let report = svc.run().unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let service = report.service.expect("service summary attached");
        assert!(service.real_accesses > 0, "some requests must dispatch");
        for t in &service.tenants {
            assert_eq!(t.resolved(), t.arrivals, "tenant {}", t.tenant);
            assert!(t.queue_depth_high_water <= 64);
        }
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let run = || {
            let mut svc = OramService::new(two_tenant_cfg(20_000)).unwrap();
            svc.run().unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.service, b.service);
        assert_eq!(a.total_cycles, b.total_cycles);
    }

    #[test]
    fn manual_submission_reports_structured_sheds() {
        let mut cfg = two_tenant_cfg(1_000);
        cfg.tenants[0].queue_cap = 2;
        let mut svc = OramService::new(cfg).unwrap();
        assert!(svc.submit(0, 1, false).is_ok());
        assert!(svc.submit(0, 2, false).is_ok());
        let err = svc.submit(0, 3, false).unwrap_err();
        assert_eq!(err.reason, RejectReason::QueueFull);
        assert_eq!(err.tenant, 0);
    }

    #[test]
    fn fixed_rate_pads_every_interval_slot() {
        let mut cfg = two_tenant_cfg(8_192);
        cfg.policy = SubmissionPolicy::FixedRate {
            interval: 512,
            batch: 2,
        };
        let mut svc = OramService::new(cfg).unwrap();
        let report = svc.run().unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let service = report.service.expect("service summary");
        // Inside the horizon the envelope is exact: 16 interval ticks × 2.
        assert!(service.real_accesses + service.padding_accesses >= 32);
        assert!(service.padding_accesses > 0, "idle slots must be padded");
    }
}
