//! The simulator's per-cycle step, rebuilt outside the simulator from its
//! public stage calls so that a span can be put around each one.
//!
//! [`TraceDriver::step`] makes the calls `Simulation::step` makes, in the
//! same order (wake → `Core::tick` → `Planner::plan_into` →
//! `TxnTracker::admit` → `enqueue_ready` → `MemoryBackend::tick` →
//! drain/`retire` → `Metrics::attribute`), and [`Pipeline::dispatch`] +
//! [`Pipeline::step`] make the calls `oram_service::ShardPipeline` makes.
//! Nothing here is trusted: every traced pass must end on the same
//! `total_cycles` and access digest as the untraced program, or the
//! workload fails.

use std::collections::VecDeque;
use std::time::Instant;

use mem_sched::{CommandEvent, Completed, MemoryBackend};
use string_oram::pipeline::{
    build_backend, build_report, Conformance, CounterSnapshot, Metrics, PlannedTxn, Planner,
    TxnTracker, Wake,
};
use string_oram::{ConfigError, Core, CoreRequest, SimReport, SystemConfig};
use trace_synth::TraceRecord;

use crate::json::Json;

/// The calls a step is made of. The discriminant indexes [`Stage::NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Wake,
    CoreTick,
    Plan,
    Admit,
    Enqueue,
    BackendTick,
    Retire,
    Attribute,
}

impl Stage {
    pub const COUNT: usize = 8;
    /// Span names: `layer.call`.
    pub const NAMES: [&'static str; Self::COUNT] = [
        "cpu.wake",
        "cpu.tick",
        "planner.plan",
        "txns.admit",
        "txns.enqueue",
        "backend.tick",
        "txns.retire",
        "metrics.attribute",
    ];
}

/// What watches the stage boundaries of a step.
pub trait Probe {
    /// A step begins.
    fn start(&mut self, step: u64);
    /// `stage` just returned; its span runs from the previous boundary.
    fn lap(&mut self, stage: Stage);
}

/// Watches nothing and compiles away: the untimed passes.
#[derive(Debug)]
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn start(&mut self, _step: u64) {}
    #[inline(always)]
    fn lap(&mut self, _stage: Stage) {}
}

/// One recorded span, in nanoseconds since the probe was made.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub stage: Stage,
    /// The step that caused the span (its parent).
    pub step: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Accumulates a count and a total per stage, and keeps the latest raw spans
/// in a bounded ring. One clock read per boundary: consecutive spans share
/// their boundary reading, so each span contains exactly one read's cost,
/// which [`SpanProbe::corrected_ns`] takes off again.
#[derive(Debug)]
pub struct SpanProbe {
    origin: Instant,
    last_ns: u64,
    step: u64,
    pub count: [u64; Stage::COUNT],
    pub total_ns: [u64; Stage::COUNT],
    ring: Vec<Span>,
    next: usize,
}

impl Default for SpanProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanProbe {
    /// Raw spans kept for `trace.json`.
    pub const RING: usize = 2_048;

    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            last_ns: 0,
            step: 0,
            count: [0; Stage::COUNT],
            total_ns: [0; Stage::COUNT],
            ring: Vec::with_capacity(Self::RING),
            next: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Cost of one boundary (clock read, accumulation, ring store) in
    /// nanoseconds, measured on this host just before use.
    pub fn calibrate() -> f64 {
        let mut probe = Self::new();
        const LAPS: u64 = 2_000_000;
        probe.start(0);
        let t = Instant::now();
        for _ in 0..LAPS {
            probe.lap(Stage::Attribute);
        }
        let ns = t.elapsed().as_nanos() as f64 / LAPS as f64;
        std::hint::black_box(&probe);
        ns
    }

    /// Total time per stage with the clock's own cost removed.
    pub fn corrected_ns(&self, timer_ns: f64) -> [f64; Stage::COUNT] {
        std::array::from_fn(|i| {
            (self.total_ns[i] as f64 - self.count[i] as f64 * timer_ns).max(0.0)
        })
    }

    /// The ring's spans, oldest first.
    pub fn spans_json(&self) -> Json {
        let (newer, older) = self.ring.split_at(self.next.min(self.ring.len()));
        Json::Arr(
            older
                .iter()
                .chain(newer)
                .map(|s| {
                    Json::obj([
                        ("name", Json::from(Stage::NAMES[s.stage as usize])),
                        ("step", Json::from(s.step)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

impl Probe for SpanProbe {
    #[inline]
    fn start(&mut self, step: u64) {
        self.step = step;
        self.last_ns = self.now_ns();
    }

    #[inline]
    fn lap(&mut self, stage: Stage) {
        let now = self.now_ns();
        let span = Span {
            stage,
            step: self.step,
            start_ns: self.last_ns,
            end_ns: now,
        };
        self.count[stage as usize] += 1;
        self.total_ns[stage as usize] += now - self.last_ns;
        self.last_ns = now;
        if self.ring.len() < Self::RING {
            self.ring.push(span);
        } else {
            self.ring[self.next] = span;
        }
        self.next = (self.next + 1) % Self::RING;
    }
}

/// One access as the planner saw it, for the stand-alone engine replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Real(u64),
    Cover,
}

/// Stages 1–5 wired as `Simulation::try_new` and `ShardPipeline::build`
/// wire them, plus the counts the per-layer metrics need.
#[derive(Debug)]
pub struct Pipeline {
    cfg: SystemConfig,
    planner: Planner,
    tracker: TxnTracker,
    backend: Box<dyn MemoryBackend>,
    metrics: Metrics,
    conformance: Conformance,
    planned: Vec<PlannedTxn>,
    done: Vec<Completed>,
    cycle: u64,
    /// Every access planned, in order.
    pub accesses: Vec<Access>,
    /// Steps in which nothing was planned, enqueued or completed.
    pub quiet_steps: u64,
    planned_this_step: bool,
    /// Issued DRAM commands, when [`Pipeline::record_commands`] asked.
    pub commands: Option<Vec<CommandEvent>>,
}

impl Pipeline {
    /// Builds the stages for one (validated, `shards = 1`) configuration.
    pub fn build(cfg: &SystemConfig, accesses_hint: usize) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mut planner = Planner::build(cfg)?;
        planner.reserve_accesses(accesses_hint);
        let mut metrics = Metrics::new();
        metrics.read_latencies.reserve(accesses_hint);
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
            cfg: cfg.clone(),
            planner,
            tracker: TxnTracker::new(),
            backend,
            metrics,
            conformance,
            planned: Vec::new(),
            done: Vec::new(),
            cycle: 0,
            accesses: Vec::with_capacity(accesses_hint),
            quiet_steps: 0,
            planned_this_step: false,
            commands: None,
        })
    }

    /// Keeps every issued DRAM command (for the `dram-sim` replay).
    pub fn record_commands(&mut self) {
        self.backend.enable_command_trace();
        self.commands = Some(Vec::new());
    }

    /// Plans one access (`None`: a cover access) and admits its
    /// transactions; `on_wake` receives the release of a fully on-chip one.
    pub fn dispatch<P: Probe>(
        &mut self,
        req: Option<&CoreRequest>,
        probe: &mut P,
        mut on_wake: impl FnMut(&mut Metrics, Wake),
    ) {
        let mut planned = std::mem::take(&mut self.planned);
        match req {
            Some(req) => {
                self.accesses.push(Access::Real(req.block));
                self.planner
                    .plan_into(req, &mut self.conformance, &mut planned);
            }
            None => {
                self.accesses.push(Access::Cover);
                let ok = self
                    .planner
                    .plan_cover_into(&mut self.conformance, &mut planned);
                assert!(ok, "cover access on a protocol without one");
            }
        }
        probe.lap(Stage::Plan);
        self.planned_this_step = true;
        for txn in planned.drain(..) {
            let (spent, wake) = self.tracker.admit(txn, self.cycle);
            self.planner.recycle_requests(spent);
            if let Some(wake) = wake {
                on_wake(&mut self.metrics, wake);
            }
        }
        self.conformance.collect();
        probe.lap(Stage::Admit);
        self.planned = planned;
    }

    /// Enqueue → schedule → retire → attribute, then the clock advances.
    pub fn step<P: Probe>(&mut self, probe: &mut P, mut on_wake: impl FnMut(&mut Metrics, Wake)) {
        let cycle = self.cycle;
        let pending_before = self.backend.pending();
        self.tracker.enqueue_ready(self.backend.as_mut(), cycle);
        probe.lap(Stage::Enqueue);
        let enqueued = self.backend.pending() != pending_before;

        self.backend.tick(cycle);
        probe.lap(Stage::BackendTick);

        if self.conformance.stream_enabled() || self.commands.is_some() {
            let events = self.backend.take_command_events();
            if self.conformance.stream_enabled() {
                for ev in &events {
                    self.conformance.observe_command(ev);
                }
                self.conformance.collect();
            }
            if let Some(kept) = &mut self.commands {
                kept.extend(events);
            }
        }

        let mut done = std::mem::take(&mut self.done);
        done.clear();
        self.backend.drain_completed_into(&mut done);
        for d in &done {
            if let Some(retired) = self.tracker.retire(d, cycle) {
                self.metrics.record_class(retired.kind, d.class);
                if let Some(wake) = retired.wake {
                    on_wake(&mut self.metrics, wake);
                }
            }
        }
        probe.lap(Stage::Retire);

        self.metrics.attribute(self.tracker.oldest_kind());
        probe.lap(Stage::Attribute);

        if !(self.planned_this_step || enqueued || !done.is_empty()) {
            self.quiet_steps += 1;
        }
        self.planned_this_step = false;
        self.done = done;
        self.cycle += 1;
    }

    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    pub fn inflight(&self) -> usize {
        self.tracker.inflight()
    }

    pub fn is_drained(&self) -> bool {
        self.tracker.is_drained()
    }

    pub fn digest(&self) -> u64 {
        self.planner.digest()
    }

    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Program read-path latency samples so far, in cycles.
    pub fn read_latencies(&self) -> &[u64] {
        &self.metrics.read_latencies
    }

    /// DRAM commands issued so far (0 without a DRAM model).
    pub fn dram_commands(&self) -> u64 {
        let dram = self.backend.snapshot().dram;
        dram.map_or(0, |d| d.stats.total_commands())
    }

    /// Every counter, frozen as `Simulation::capture` freezes them.
    pub fn snapshot(&self, instructions: u64) -> CounterSnapshot {
        CounterSnapshot {
            cycle: self.cycle,
            instructions,
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

    /// The report `Simulation::report` would build from these counters.
    pub fn report(&self, instructions: u64) -> SimReport {
        let violations = self
            .conformance
            .violations()
            .iter()
            .map(ToString::to_string)
            .collect();
        build_report(
            &self.cfg,
            String::new(),
            &self.snapshot(instructions),
            &self.metrics.read_latencies,
            violations,
        )
    }
}

/// Cores replaying traces into a [`Pipeline`]: the outside-in twin of
/// `string_oram::Simulation`.
#[derive(Debug)]
pub struct TraceDriver {
    pub pipe: Pipeline,
    cores: Vec<Core>,
    requests: VecDeque<CoreRequest>,
    unblock_at: Vec<Vec<u64>>,
    budget: u64,
    max_inflight: usize,
}

impl TraceDriver {
    pub fn new(cfg: &SystemConfig, traces: Vec<Vec<TraceRecord>>) -> Result<Self, ConfigError> {
        if traces.len() != cfg.cores {
            return Err(ConfigError::TraceCount {
                expected: cfg.cores,
                got: traces.len(),
            });
        }
        let records = traces.iter().map(Vec::len).sum();
        Ok(Self {
            pipe: Pipeline::build(cfg, records)?,
            cores: traces
                .into_iter()
                .enumerate()
                .map(|(i, t)| Core::with_mlp(i, t, cfg.core_mlp))
                .collect(),
            requests: VecDeque::new(),
            unblock_at: vec![Vec::new(); cfg.cores],
            budget: cfg.instructions_per_mem_cycle(),
            max_inflight: cfg.max_inflight_txns,
        })
    }

    pub fn is_finished(&self) -> bool {
        self.cores.iter().all(Core::is_done) && self.requests.is_empty() && self.pipe.is_drained()
    }

    pub fn instructions(&self) -> u64 {
        self.cores.iter().map(Core::instructions_retired).sum()
    }

    /// One memory-bus cycle, call for call what `Simulation::step` does.
    pub fn step<P: Probe>(&mut self, probe: &mut P) {
        let cycle = self.pipe.cycle();
        probe.start(cycle);

        for (core, pending) in self.cores.iter_mut().zip(&mut self.unblock_at) {
            let before = pending.len();
            pending.retain(|&at| at > cycle);
            for _ in pending.len()..before {
                core.complete_memory_op();
            }
        }
        probe.lap(Stage::Wake);

        for core in &mut self.cores {
            if let Some(req) = core.tick(self.budget) {
                self.requests.push_back(req);
            }
        }
        probe.lap(Stage::CoreTick);

        let unblock_at = &mut self.unblock_at;
        let mut on_wake = |metrics: &mut Metrics, wake: Wake| {
            unblock_at[wake.core].push(wake.at);
            if let Some(latency) = wake.latency {
                metrics.read_latencies.push(latency);
            }
        };
        while self.pipe.inflight() < self.max_inflight {
            let Some(req) = self.requests.pop_front() else {
                break;
            };
            self.pipe.dispatch(Some(&req), probe, &mut on_wake);
        }
        self.pipe.step(probe, &mut on_wake);
    }

    /// Runs to completion, or to `stop_at` cycles if that comes first.
    pub fn run<P: Probe>(&mut self, probe: &mut P, stop_at: u64) {
        while !self.is_finished() && self.pipe.cycle() < stop_at {
            self.step(probe);
        }
    }

    pub fn report(&self) -> SimReport {
        self.pipe.report(self.instructions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Size, Workload};
    use string_oram::{BackendKind, ProtocolKind, Scheme, Simulation};
    use trace_synth::{by_name, TraceGenerator};

    fn small_traces(cfg: &SystemConfig, workload: &str, n: usize) -> Vec<Vec<TraceRecord>> {
        (0..cfg.cores)
            .map(|c| TraceGenerator::new(by_name(workload).unwrap(), 11, c as u32).take_records(n))
            .collect()
    }

    /// The harness's whole claim to measure the program rests on this: the
    /// rebuilt step is the program's step, for every protocol and backend,
    /// probed or not.
    #[test]
    fn driver_reproduces_simulation_for_all_four_protocols() {
        for protocol in ProtocolKind::ALL {
            for backend in [BackendKind::CycleAccurate, BackendKind::FastFunctional] {
                let mut cfg = SystemConfig::test_small(Scheme::All);
                cfg.protocol = protocol;
                cfg.backend = backend;
                cfg.core_mlp = 2;
                let traces = small_traces(&cfg, "mummer", 150);
                let mut sim = Simulation::new(cfg.clone(), traces.clone());
                let want = sim.run(u64::MAX).unwrap();

                let mut plain = TraceDriver::new(&cfg, traces.clone()).unwrap();
                plain.run(&mut NoProbe, u64::MAX);
                let mut probed = TraceDriver::new(&cfg, traces).unwrap();
                let mut probe = SpanProbe::new();
                probed.run(&mut probe, u64::MAX);

                for got in [&plain, &probed] {
                    let label = format!("{protocol} on {backend:?}");
                    assert_eq!(got.pipe.digest(), sim.access_digest(), "{label}: digest");
                    let report = got.report();
                    assert_eq!(report.total_cycles, want.total_cycles, "{label}: cycles");
                    assert_eq!(report.read_latency, want.read_latency, "{label}: latency");
                    assert_eq!(report.protocol, want.protocol, "{label}: protocol stats");
                    assert_eq!(report.instructions, want.instructions, "{label}");
                    assert!(
                        report.violations.is_empty(),
                        "{label}: {:?}",
                        report.violations
                    );
                }
                assert_eq!(
                    probe.count[Stage::BackendTick as usize],
                    want.total_cycles,
                    "one backend span per simulated cycle"
                );
                assert_eq!(probe.count[Stage::Plan as usize], want.oram_accesses);
            }
        }
    }

    #[test]
    fn quiet_steps_and_accesses_are_counted() {
        let cfg = Workload::HpcaFunctional.system();
        let traces = Workload::HpcaFunctional.traces(11, Size::SMOKE);
        let mut d = TraceDriver::new(&cfg, traces).unwrap();
        d.run(&mut NoProbe, u64::MAX);
        let report = d.report();
        assert!(d.pipe.quiet_steps > 0 && d.pipe.quiet_steps < report.total_cycles);
        assert_eq!(d.pipe.accesses.len() as u64, report.oram_accesses);
    }

    #[test]
    fn span_ring_is_bounded_and_ordered() {
        let mut probe = SpanProbe::new();
        probe.start(0);
        for i in 0..(SpanProbe::RING as u64 * 2 + 7) {
            probe.start(i);
            probe.lap(Stage::Plan);
        }
        let spans = probe.spans_json();
        let spans = spans.as_arr().unwrap();
        assert_eq!(spans.len(), SpanProbe::RING);
        let steps: Vec<f64> = spans.iter().map(|s| s.num("step").unwrap()).collect();
        assert!(steps.windows(2).all(|w| w[0] < w[1]), "oldest first");
        assert!(SpanProbe::calibrate() > 0.0);
    }
}
