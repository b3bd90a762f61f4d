//! The traced pass: per-layer numbers, never mixed into the end-to-end ones.
//!
//! Trace workloads run on [`TraceDriver`], the outside-in twin of
//! `Simulation`, with a span around every stage call. Two replays then split
//! what a span cannot: the protocol engine alone (its share of Plan) and
//! `DramModule` alone (its share of `MemoryBackend::tick`). The service is
//! timed from outside in windows of ticks and split by replaying its
//! fixed-rate cadence into a bare engine.

use std::time::Instant;

use dram_sim::DramModule;
use mem_sched::CommandEvent;
use oram_rng::derive_stream_seed;
use oram_service::{OramService, ShardPipeline};
use ring_oram::{
    BlockId, CircuitOram, ObliviousProtocol, OpKind, PathOram, ProtocolStats, RingOram, ShardMap,
};
use string_oram::pipeline::{Metrics, Wake};
use string_oram::{
    BackendKind, CoreRequest, LatencyPercentiles, ProtocolKind, ShardedSimulation, SimReport,
    SystemConfig,
};
use trace_synth::TraceRecord;

use crate::json::Json;
use crate::passes::{
    drive_service, service_checks, service_sim, sim_json, total_records, Checks, Hex, ServiceSpans,
};
use crate::pipeline::{Access, NoProbe, Pipeline, Probe, SpanProbe, Stage, TraceDriver};
use crate::workloads::{arrivals, Arrival, Size, Workload, SERVICE_INTERVAL};

/// Simulated cycles over which DRAM commands are recorded for the
/// `dram-sim` replay.
const DRAM_REPLAY_CYCLES: u64 = 400_000;

/// Per-stage totals over one or more traced pipelines.
#[derive(Debug, Default)]
struct StageTotals {
    /// Timer-corrected nanoseconds per stage, indexed by `Stage`.
    ns: [f64; Stage::COUNT],
    steps: u64,
    quiet_steps: u64,
    wall_s: f64,
}

impl StageTotals {
    fn add(&mut self, probe: &SpanProbe, pipe: &Pipeline, timer_ns: f64, wall_s: f64) {
        for (total, ns) in self.ns.iter_mut().zip(probe.corrected_ns(timer_ns)) {
            *total += ns;
        }
        self.steps += pipe.cycle();
        self.quiet_steps += pipe.quiet_steps;
        self.wall_s += wall_s;
    }

    fn of(&self, stage: Stage) -> f64 {
        self.ns[stage as usize]
    }

    fn sum(&self) -> f64 {
        self.ns.iter().sum()
    }
}

/// A stand-alone engine built as `Planner::build` builds the flat one.
fn build_engine(cfg: &SystemConfig) -> Box<dyn ObliviousProtocol> {
    let ring = cfg.effective_ring();
    match cfg.protocol {
        ProtocolKind::RingCb | ProtocolKind::Ring => {
            Box::new(RingOram::with_load_factor(ring, cfg.seed, cfg.load_factor))
        }
        ProtocolKind::Path => Box::new(PathOram::from_ring(ring, cfg.seed)),
        ProtocolKind::Circuit => Box::new(CircuitOram::new(ring, cfg.seed)),
    }
}

/// Replays the planned accesses through the protocol engine alone: the
/// engine's share of Plan. Returns the wall in nanoseconds and the engine's
/// statistics, which must equal the pipeline's.
fn engine_replay(cfg: &SystemConfig, accesses: &[Access]) -> (f64, ProtocolStats) {
    let mut engine = build_engine(cfg);
    engine.reserve_accesses(accesses.len());
    let t = Instant::now();
    for access in accesses {
        let outcome = match access {
            Access::Real(block) => engine.access(BlockId(*block)),
            Access::Cover => engine.cover_access().expect("engine has cover accesses"),
        };
        engine.recycle_outcome(std::hint::black_box(outcome));
    }
    (t.elapsed().as_nanos() as f64, engine.stats().clone())
}

/// Replays recorded commands into a fresh `DramModule`: `tick` every cycle
/// and `issue` where the controller issued. The scheduler's `can_issue`
/// probes are not replayed, so they stay on `mem-sched`'s side of the split.
fn dram_replay(cfg: &SystemConfig, events: &[CommandEvent], cycles: u64) -> Result<f64, String> {
    let mut dram = DramModule::new(cfg.geometry.clone(), cfg.timing.clone());
    let mut next = 0;
    let t = Instant::now();
    for cycle in 0..cycles {
        dram.tick(cycle);
        while let Some(ev) = events.get(next).filter(|ev| ev.cycle == cycle) {
            dram.issue(ev.cmd, cycle)
                .map_err(|e| format!("{:?} at cycle {cycle}: {e:?}", ev.cmd))?;
            next += 1;
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(&dram);
    if next == events.len() {
        Ok(ns)
    } else {
        Err(format!("{} of {} commands replayed", next, events.len()))
    }
}

/// The per-shard configurations and traces `ShardedSimulation` builds
/// (`shards = 1` passes the inputs through).
fn shard_jobs(
    cfg: &SystemConfig,
    traces: Vec<Vec<TraceRecord>>,
) -> Vec<(SystemConfig, Vec<Vec<TraceRecord>>)> {
    if cfg.shards == 1 {
        return vec![(cfg.clone(), traces)];
    }
    let map = ShardMap::new(cfg.shards).expect("validated shard count");
    let ring = map
        .shard_ring_config(&cfg.ring)
        .expect("validated shard ring");
    (0..cfg.shards)
        .map(|s| {
            let mut shard_cfg = cfg.clone();
            shard_cfg.shards = 1;
            shard_cfg.ring = ring.clone();
            shard_cfg.seed = derive_stream_seed(cfg.seed, s as u64);
            let shard_traces = traces
                .iter()
                .map(|trace| {
                    trace
                        .iter()
                        .filter(|rec| map.shard_of(BlockId(rec.op.block)) == s)
                        .map(|rec| {
                            let mut local = *rec;
                            local.op.block = map.local_block(BlockId(rec.op.block)).0;
                            local
                        })
                        .collect()
                })
                .collect();
            (shard_cfg, shard_traces)
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer numbers that are simulated statistics or counts: they come from
/// the report and repeat exactly.
fn component_metrics(r: &SimReport, ops: f64) -> Vec<(&'static str, f64)> {
    let p = &r.protocol;
    let read = r.row_class(OpKind::ReadPath);
    let evict = r.row_class(OpKind::Eviction);
    let cycles = r.total_cycles as f64;
    let txns: u64 = r.transactions_by_kind.values().sum();
    vec![
        ("planner.txns_per_op", ratio(txns as f64, ops)),
        (
            "planner.requests_per_op",
            ratio(r.requests_completed as f64, ops),
        ),
        (
            "ring_oram.greens_per_read",
            ratio(p.greens_fetched as f64, p.read_paths as f64),
        ),
        (
            "ring_oram.reshuffles_per_op",
            ratio((p.early_reshuffles + p.forced_reshuffles) as f64, ops),
        ),
        (
            "ring_oram.bg_evictions_per_op",
            ratio(p.background_evictions as f64, ops),
        ),
        ("mem_sched.queue_wait_read_cycles", r.mean_read_queue_wait),
        ("mem_sched.queue_wait_write_cycles", r.mean_write_queue_wait),
        ("mem_sched.queue_occupancy", r.mean_queue_occupancy),
        ("mem_sched.early_pre_share", r.early_precharge_fraction),
        ("mem_sched.early_act_share", r.early_activate_fraction),
        ("dram_sim.row_conflict_share_read", read.conflict_rate()),
        ("dram_sim.row_conflict_share_evict", evict.conflict_rate()),
        (
            "dram_sim.row_hit_share_read",
            ratio(read.hits as f64, read.total() as f64),
        ),
        ("dram_sim.bank_idle_share", r.bank_idle_proportion),
        (
            "dram_sim.bank_idle_pending_share",
            r.pending_bank_idle_proportion,
        ),
        (
            "metrics.read_cycle_share",
            ratio(r.cycles_by_kind.read as f64, cycles),
        ),
        (
            "metrics.evict_cycle_share",
            ratio(r.cycles_by_kind.evict as f64, cycles),
        ),
        (
            "metrics.reshuffle_cycle_share",
            ratio(r.cycles_by_kind.reshuffle as f64, cycles),
        ),
    ]
}

/// Per-layer numbers read off the engines themselves.
fn engine_metrics<'a>(
    engines: impl Iterator<Item = &'a dyn ObliviousProtocol> + Clone,
    ops: f64,
) -> [(&'static str, f64); 2] {
    let materialized: usize = engines.clone().map(|e| e.materialized_buckets()).sum();
    [
        (
            "ring_oram.materialized_buckets_per_op",
            ratio(materialized as f64, ops),
        ),
        (
            "ring_oram.stash_peak",
            engines.map(|e| e.stash_peak()).max().unwrap_or(0) as f64,
        ),
    ]
}

/// Per-layer host times from the stage spans, per op.
fn stage_metrics(
    t: &StageTotals,
    ops: f64,
    engine_ns: f64,
    dram_ns_per_op: f64,
    commands: u64,
) -> Vec<(&'static str, f64)> {
    let per_op = |ns: f64| ratio(ns, ops);
    let plan = t.of(Stage::Plan);
    let backend = t.of(Stage::BackendTick);
    vec![
        ("cpu.wake_ns_per_op", per_op(t.of(Stage::Wake))),
        ("cpu.tick_ns_per_op", per_op(t.of(Stage::CoreTick))),
        ("planner.plan_ns_per_op", per_op(plan)),
        ("ring_oram.access_ns_per_op", per_op(engine_ns)),
        (
            "planner.lowering_ns_per_op",
            per_op((plan - engine_ns).max(0.0)),
        ),
        ("txns.admit_ns_per_op", per_op(t.of(Stage::Admit))),
        ("txns.enqueue_ns_per_op", per_op(t.of(Stage::Enqueue))),
        ("txns.retire_ns_per_op", per_op(t.of(Stage::Retire))),
        ("backend.tick_ns_per_op", per_op(backend)),
        ("backend.tick_ns_per_step", ratio(backend, t.steps as f64)),
        (
            "mem_sched.self_ns_per_op",
            (per_op(backend) - dram_ns_per_op).max(0.0),
        ),
        ("dram_sim.replay_ns_per_op", dram_ns_per_op),
        ("dram_sim.commands_per_op", ratio(commands as f64, ops)),
        (
            "metrics.attribute_ns_per_op",
            per_op(t.of(Stage::Attribute)),
        ),
        ("pipeline.steps_per_op", ratio(t.steps as f64, ops)),
        (
            "pipeline.quiet_step_share",
            ratio(t.quiet_steps as f64, t.steps as f64),
        ),
    ]
}

fn metrics_json(metrics: impl IntoIterator<Item = (&'static str, f64)>) -> Json {
    Json::obj(metrics.into_iter().map(|(k, v)| (k, Json::from(v))))
}

/// One shard's traced pass and the two replays that split it.
struct ShardTrace {
    driver: TraceDriver,
    probe: SpanProbe,
    wall_s: f64,
    engine_ns: f64,
    /// `(replay ns, accesses the replayed prefix planned)`, cycle-accurate
    /// backends only.
    dram: Option<(f64, u64)>,
    /// Kept alive so the next shard starts on fresh pages, as a cold run does.
    _recorder: Option<TraceDriver>,
}

fn trace_shard(
    label: &str,
    cfg: &SystemConfig,
    traces: Vec<Vec<TraceRecord>>,
    checks: &mut Checks,
) -> ShardTrace {
    let mut driver = TraceDriver::new(cfg, traces.clone()).expect("valid shard config");
    let mut probe = SpanProbe::new();
    let t = Instant::now();
    driver.run(&mut probe, u64::MAX);
    let wall_s = t.elapsed().as_secs_f64();

    // The traced pipeline stays alive during the replays, so the engine
    // faults in fresh pages as it did the first time.
    let (engine_ns, stats) = engine_replay(cfg, &driver.pipe.accesses);
    checks.add(
        &format!("{label}: replayed engine stats == pipeline's"),
        &stats == driver.pipe.planner().protocol().stats(),
        "",
    );

    let mut dram = None;
    let mut recorder = None;
    if cfg.backend == BackendKind::CycleAccurate {
        let mut rec = TraceDriver::new(cfg, traces).expect("valid shard config");
        rec.pipe.record_commands();
        rec.run(&mut NoProbe, DRAM_REPLAY_CYCLES);
        let events = rec.pipe.commands.take().unwrap_or_default();
        match dram_replay(cfg, &events, rec.pipe.cycle()) {
            Ok(ns) => dram = Some((ns, rec.pipe.planner().accesses())),
            Err(e) => checks.add(
                &format!("{label}: dram replay accepts every command"),
                false,
                e,
            ),
        }
        recorder = Some(rec);
    }
    ShardTrace {
        driver,
        probe,
        wall_s,
        engine_ns,
        dram,
        _recorder: recorder,
    }
}

pub fn trace_workload(w: Workload, seed: u64, size: Size) -> Vec<(&'static str, Json)> {
    let timer_ns = SpanProbe::calibrate();
    let cfg = w.system();
    let t = Instant::now();
    let traces = w.traces(seed, size);
    let synth_ns = t.elapsed().as_nanos() as f64;
    let records = total_records(&traces);
    let mut checks = Checks::default();

    // The untraced program first, in this process, as the reference the
    // spans must add up to: host noise here comes in phases of tens of
    // seconds, so a reference taken seconds earlier says more than one from
    // another process. `ShardedSimulation` with one shard *is* `Simulation`
    // (same seed, same tree, same traces); with more, the shards run one
    // after another on this thread, each without its sibling competing.
    let mut program = ShardedSimulation::new(cfg.clone(), traces.clone());
    let walls: Vec<f64> = program
        .shards_mut()
        .iter_mut()
        .map(|shard| {
            let t = Instant::now();
            shard.run(u64::MAX).expect("no cycle limit is set");
            t.elapsed().as_secs_f64()
        })
        .collect();
    let t = Instant::now();
    let report = program.report();
    let merge_ms = t.elapsed().as_secs_f64() * 1e3;
    let reference_wall_s: f64 = walls.iter().sum();

    let shards: Vec<ShardTrace> = shard_jobs(&cfg, traces)
        .into_iter()
        .enumerate()
        .map(|(s, (shard_cfg, shard_traces))| {
            let label = format!("shard {s}");
            let shard = trace_shard(&label, &shard_cfg, shard_traces, &mut checks);
            checks.eq(
                &format!("{label}: traced digest == program digest"),
                Hex(shard.driver.pipe.digest()),
                Hex(program.shard_digests()[s]),
            );
            checks.eq(
                &format!("{label}: traced cycles == program cycles"),
                shard.driver.pipe.cycle(),
                program.shards()[s].cycles(),
            );
            shard
        })
        .collect();

    let mut totals = StageTotals::default();
    for shard in &shards {
        totals.add(&shard.probe, &shard.driver.pipe, timer_ns, shard.wall_s);
    }
    let pipes = || shards.iter().map(|shard| &shard.driver.pipe);
    let engines = || pipes().map(|pipe| pipe.planner().protocol());
    let ops: u64 = pipes().map(|pipe| pipe.planner().accesses()).sum();
    let latencies: Vec<u64> = pipes()
        .flat_map(|pipe| pipe.read_latencies().iter().copied())
        .collect();
    let lat = LatencyPercentiles::from_samples(&latencies);
    let sim = sim_json(
        ops,
        pipes().map(Pipeline::cycle).max().unwrap_or(0),
        pipes().map(Pipeline::cycle).sum(),
        pipes().enumerate().fold(0, |acc, (s, pipe)| {
            acc ^ pipe.digest().rotate_left(s as u32)
        }),
        (lat.samples, lat.p50, lat.p99),
    );
    checks.eq("oram_accesses == records", ops, records as u64);

    let (dram_ns, dram_ops) = shards
        .iter()
        .filter_map(|shard| shard.dram)
        .fold((0.0, 0), |(ns, ops), (n, o)| (ns + n, ops + o));
    let opsf = ops as f64;
    let mut metrics = component_metrics(&report, opsf);
    metrics.extend(engine_metrics(engines(), opsf));
    metrics.extend(stage_metrics(
        &totals,
        opsf,
        shards.iter().map(|shard| shard.engine_ns).sum(),
        ratio(dram_ns, dram_ops as f64),
        pipes().map(Pipeline::dram_commands).sum(),
    ));
    metrics.push((
        "trace_synth.gen_ns_per_record",
        ratio(synth_ns, records as f64),
    ));
    metrics.push(("trace.timer_ns", timer_ns));
    if walls.len() > 1 {
        let slowest = walls.iter().copied().fold(0.0, f64::max);
        let mean = reference_wall_s / walls.len() as f64;
        metrics.push(("shard.imbalance", ratio(slowest, mean)));
        metrics.push(("shard.merge_ms", merge_ms));
    }

    vec![
        ("ops_attempted", Json::from(records)),
        ("ops_completed", Json::from(ops)),
        ("sim", sim),
        ("reference_wall_s", Json::from(reference_wall_s)),
        ("traced_wall_s", Json::from(totals.wall_s)),
        ("stage_ns", Json::from(totals.sum())),
        ("steps", Json::from(totals.steps)),
        ("layers", metrics_json(metrics)),
        // The last shard's latest spans.
        (
            "spans",
            shards.last().map_or(Json::Null, |s| s.probe.spans_json()),
        ),
        ("checks", checks.json()),
    ]
}

/// What the fixed-rate replay drives: `ShardPipeline` itself, or the
/// harness's span-wrapped twin of it.
trait Engine {
    fn real(&mut self, tag: usize, block: u64, is_write: bool);
    fn cover(&mut self);
    fn step(&mut self);
    fn is_drained(&self) -> bool;
}

struct Bare {
    pipe: ShardPipeline,
    wakes: Vec<Wake>,
}

impl Engine for Bare {
    fn real(&mut self, tag: usize, block: u64, is_write: bool) {
        self.pipe.dispatch_real(tag, block, is_write);
    }
    fn cover(&mut self) {
        self.pipe.dispatch_cover();
    }
    fn step(&mut self) {
        self.wakes.clear();
        self.pipe.step(&mut self.wakes);
    }
    fn is_drained(&self) -> bool {
        self.pipe.is_drained()
    }
}

struct Spanned<P: Probe> {
    pipe: Pipeline,
    probe: P,
}

fn record_latency(metrics: &mut Metrics, wake: Wake) {
    if let Some(latency) = wake.latency {
        metrics.read_latencies.push(latency);
    }
}

impl<P: Probe> Engine for Spanned<P> {
    fn real(&mut self, tag: usize, block: u64, is_write: bool) {
        let req = CoreRequest {
            core: tag,
            block,
            is_write,
        };
        self.probe.start(self.pipe.cycle());
        self.pipe
            .dispatch(Some(&req), &mut self.probe, record_latency);
    }
    fn cover(&mut self) {
        self.probe.start(self.pipe.cycle());
        self.pipe.dispatch(None, &mut self.probe, record_latency);
    }
    fn step(&mut self) {
        self.probe.start(self.pipe.cycle());
        self.pipe.step(&mut self.probe, record_latency);
    }
    fn is_drained(&self) -> bool {
        self.pipe.is_drained()
    }
}

/// Drives `engine` on the service's fixed-rate cadence: one slot every
/// `SERVICE_INTERVAL` ticks, a real access when a scheduled request is
/// waiting and a cover access otherwise, then one step per tick until the
/// backlog and the engine drain. An estimate of what the service asked of
/// its engine: the service picks among tenants round-robin, this replay in
/// arrival order, so the slots carry the same real/cover counts but not
/// necessarily the same blocks in the same order. Returns `(real slots, cover
/// slots)`.
fn replay_cadence(engine: &mut impl Engine, schedule: &[Arrival], horizon: u64) -> (u64, u64) {
    let blocks = oram_service::TenantSpec::new("", trace_synth::ArrivalSpec::steady(0.0)).blocks;
    let (mut next, mut real, mut cover) = (0usize, 0u64, 0u64);
    let mut tick = 0u64;
    while tick < horizon || next < schedule.len() || !engine.is_drained() {
        if tick.is_multiple_of(SERVICE_INTERVAL) && (tick < horizon || next < schedule.len()) {
            match schedule.get(next).filter(|a| a.tick <= tick) {
                Some(a) => {
                    // Tenant `t`'s blocks start at `t << 20`.
                    let block = ((a.tenant as u64) << 20) + a.offset % blocks;
                    engine.real(next, block, a.is_write);
                    next += 1;
                    real += 1;
                }
                None => {
                    engine.cover();
                    cover += 1;
                }
            }
        }
        engine.step();
        tick += 1;
    }
    (real, cover)
}

/// The service's traced pass, first child: the service itself, timed from
/// outside, and the engine alone on the same cadence.
///
/// The stage split is a second child ([`service_replay`]). Each of the four
/// passes materialises its own ~190 MB tree and must start on fresh pages, so
/// none can be dropped before the next; all four in one process pass 700 MB,
/// and on the sandbox this was sized on a process beyond ~500 MB resident
/// runs 2.7× slower (the host backs guest memory lazily).
pub fn service_workload(w: Workload, seed: u64, size: Size) -> Vec<(&'static str, Json)> {
    let timer_ns = SpanProbe::calibrate();
    let cfg = w.service(size);
    let t = Instant::now();
    let schedule = arrivals(seed, cfg.horizon);
    let synth_ns = t.elapsed().as_nanos() as f64;
    let mut checks = Checks::default();

    // 1. The service, in windows of ticks, each `submit` timed inside its
    //    window.
    let mut svc = OramService::new(cfg.clone()).expect("service config is valid");
    let mut spans = ServiceSpans {
        origin: Instant::now(),
        windows: Vec::new(),
        submit_ns: 0,
        submits: 0,
    };
    let t = Instant::now();
    let (report, rejected) = drive_service(&mut svc, &schedule, cfg.horizon, Some(&mut spans));
    let service_wall_s = t.elapsed().as_secs_f64();
    service_checks(&report, schedule.len(), rejected, &mut checks);
    let (completed, sim) = service_sim(&report);
    let service = report.service.as_ref().expect("service summary");
    // Each timed submit holds one clock read and costs its window a second.
    let submits = spans.submits as f64;
    let clock_ns = submits * timer_ns;
    let submit_total = (spans.submit_ns as f64 - clock_ns).max(0.0);
    let tick_total = (service_wall_s * 1e9 - spans.submit_ns as f64 - clock_ns).max(0.0);

    // 2. The engine alone on the same cadence: what is left of the
    //    service's wall is the service's own work (queues, governor,
    //    deadlines, auditor).
    let mut bare = Bare {
        pipe: ShardPipeline::build(&cfg.system).expect("valid engine config"),
        wakes: Vec::new(),
    };
    let t = Instant::now();
    let (real, cover) = replay_cadence(&mut bare, &schedule, cfg.horizon);
    let bare_s = t.elapsed().as_secs_f64();
    checks.eq(
        "replay real slots == service real accesses",
        real,
        service.real_accesses,
    );
    checks.eq(
        "replay cover slots == service padding accesses",
        cover,
        service.padding_accesses,
    );

    let slots = (service.real_accesses + service.padding_accesses) as f64;
    let engine_share = ratio(bare_s, service_wall_s).min(1.0);
    let metrics = [
        (
            "oram_service.submit_ns_per_op",
            ratio(submit_total, submits),
        ),
        (
            "oram_service.tick_ns",
            ratio(tick_total, service.ticks as f64),
        ),
        ("oram_service.engine_replay_share", engine_share),
        ("oram_service.self_share", 1.0 - engine_share),
        (
            "oram_service.padding_share",
            ratio(service.padding_accesses as f64, slots),
        ),
        (
            "oram_service.slot_utilisation",
            ratio(service.real_accesses as f64, slots),
        ),
        (
            "oram_service.queue_high_water",
            service
                .tenants
                .iter()
                .map(|t| t.queue_depth_high_water)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "oram_service.retries",
            service.tenants.iter().map(|t| t.retries).sum::<u64>() as f64,
        ),
        (
            "oram_service.governor_transitions",
            (service.governor.degraded_entries
                + service.governor.shed_entries
                + service.governor.recoveries) as f64,
        ),
        (
            "trace_synth.gen_ns_per_record",
            ratio(synth_ns, schedule.len() as f64),
        ),
        ("trace.timer_ns", timer_ns),
    ];
    let windows = spans.windows.iter().map(|&(tick, start, end)| {
        Json::obj([
            ("name", Json::from("oram_service.tick_window")),
            ("step", Json::from(tick)),
            ("start_ns", Json::from(start)),
            ("end_ns", Json::from(end)),
        ])
    });
    vec![
        ("ops_attempted", Json::from(schedule.len())),
        ("ops_completed", Json::from(completed)),
        ("sim", sim),
        // What the span-wrapped replay's stages must add up to.
        ("reference_wall_s", Json::from(bare_s)),
        ("replay_digest", Json::hex(bare.pipe.access_digest())),
        ("replay_cycles", Json::from(bare.pipe.cycles())),
        ("steps", Json::from(service.ticks)),
        (
            "layers",
            metrics_json(
                component_metrics(&report, completed as f64)
                    .into_iter()
                    .chain(metrics),
            ),
        ),
        ("spans", Json::Arr(windows.collect())),
        ("checks", checks.json()),
    ]
}

/// The service's traced pass, second child: the same cadence through the
/// span-wrapped stages for the split by stage, then the engine replay for
/// the split of Plan. The harness holds its digest and cycle count to the
/// bare replay's.
pub fn service_replay(w: Workload, seed: u64, size: Size) -> Vec<(&'static str, Json)> {
    let timer_ns = SpanProbe::calibrate();
    let cfg = w.service(size);
    let schedule = arrivals(seed, cfg.horizon);
    let mut checks = Checks::default();

    let mut spanned = Spanned {
        pipe: Pipeline::build(&cfg.system, schedule.len()).expect("valid engine config"),
        probe: SpanProbe::new(),
    };
    let t = Instant::now();
    let (real, _) = replay_cadence(&mut spanned, &schedule, cfg.horizon);
    let mut totals = StageTotals::default();
    totals.add(
        &spanned.probe,
        &spanned.pipe,
        timer_ns,
        t.elapsed().as_secs_f64(),
    );
    let (engine_ns, stats) = engine_replay(&cfg.system, &spanned.pipe.accesses);
    let engine = spanned.pipe.planner().protocol();
    checks.add(
        "replayed engine stats == pipeline's",
        &stats == engine.stats(),
        "",
    );

    // Per op = per tenant request; every scheduled request got a real slot.
    let ops = real as f64;
    let mut metrics = stage_metrics(&totals, ops, engine_ns, 0.0, 0);
    metrics.extend(engine_metrics(std::iter::once(engine), ops));
    vec![
        ("replay_digest", Json::hex(spanned.pipe.digest())),
        ("replay_cycles", Json::from(spanned.pipe.cycle())),
        ("traced_wall_s", Json::from(totals.wall_s)),
        ("stage_ns", Json::from(totals.sum())),
        ("layers", metrics_json(metrics)),
        ("spans", spanned.probe.spans_json()),
        ("checks", checks.json()),
    ]
}
