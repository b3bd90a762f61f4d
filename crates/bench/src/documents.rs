//! The entries beyond the paper: four sweeps whose rows are committed bench
//! documents (`BENCH_<name>.json`) and one speed probe. Each is an
//! [`Experiment`] with a [`Document`]: its points at the size its committed
//! document records, held as constants here, and its gate. `paper.rs`
//! selects an entry by name, prints its rows, writes the document, compares
//! it with the committed copy and fails the run when the gate does not
//! hold; `schema.rs` holds each document's format and its rules.
//!
//! Every row records what ran under its `run` key: the config, as its
//! delta from the base of its type (`config::Recorded`), and for a
//! trace-driven row the trace ([`TraceRun`]). A point function takes that
//! run and nothing else, so the entry's loop and a replay of a committed
//! row call the same code.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mem_sched::SchedulerPolicy;
use oram_service::{OramService, ServiceConfig, SubmissionPolicy, TenantSpec};
use string_oram::{BackendKind, ConfigError, ProtocolKind, Scheme, ShardedSimulation, SimReport};
use string_oram::{Simulation, SystemConfig, TenantSummary, VerifyConfig};
use trace_synth::{by_name, ArrivalSpec, TraceRecord};

use crate::config::{field, object, under, Recorded, Tree, TreeError};
use crate::experiments::EXPERIMENT;
use crate::json::Value;
use crate::paper::{Document, Experiment, Fields};
use crate::schema::{self, finite, hex_digest};
use crate::traces_for;

const BACKENDS: [BackendKind; 2] = [BackendKind::CycleAccurate, BackendKind::FastFunctional];
/// Every single-trace entry runs `black` from this seed.
const WORKLOAD: &str = "black";
const TRACE_SEED: u64 = 11;

/// What a trace-driven row ran, as its `run` key records it:
/// `{"config": <delta>, "workload", "records_per_core", "trace_seed"}`.
pub(crate) struct TraceRun {
    cfg: SystemConfig,
    workload: &'static str,
    records_per_core: usize,
    trace_seed: u64,
}

impl TraceRun {
    /// `records_per_core` records of `workload` on `cfg`, from the entries'
    /// trace seed.
    fn new(cfg: SystemConfig, workload: &'static str, records_per_core: usize) -> Self {
        Self {
            cfg,
            workload,
            records_per_core,
            trace_seed: TRACE_SEED,
        }
    }

    fn traces(&self) -> Vec<Vec<TraceRecord>> {
        traces_for(
            &self.cfg,
            self.workload,
            self.records_per_core,
            self.trace_seed,
        )
    }

    /// The row's `run` key.
    fn recorded(&self) -> Value {
        Value::object(vec![
            ("config", self.cfg.recorded()),
            ("workload", self.workload.into()),
            ("records_per_core", self.records_per_core.to_value()),
            ("trace_seed", self.trace_seed.to_value()),
        ])
    }

    /// The run a `run` key records; refused unless its config validates
    /// and its workload is one the synthesizer knows.
    pub(crate) fn read(run: &Value) -> Result<Self, TreeError> {
        let m = object(
            run,
            &["config", "workload", "records_per_core", "trace_seed"],
        )?;
        let name: String = field(m, "workload")?;
        let unknown = || TreeError(vec!["workload".into()], format!("no workload {name:?}"));
        Ok(Self {
            cfg: run_config(m, SystemConfig::validate)?,
            workload: by_name(&name).ok_or_else(unknown)?.name,
            records_per_core: field(m, "records_per_core")?,
            trace_seed: field(m, "trace_seed")?,
        })
    }
}

/// A service row's `run` key: `{"config": <delta>}`.
fn service_run(cfg: &ServiceConfig) -> Value {
    Value::object(vec![("config", cfg.recorded())])
}

/// The service config a `run` key records; refused unless it validates.
pub(crate) fn read_service_run(run: &Value) -> Result<ServiceConfig, TreeError> {
    run_config(object(run, &["config"])?, ServiceConfig::validate)
}

/// The config under a `run` key's `config`, merged over its base; refused
/// unless `validate` accepts it.
fn run_config<T: Recorded>(
    run: &BTreeMap<String, Value>,
    validate: fn(&T) -> Result<(), ConfigError>,
) -> Result<T, TreeError> {
    let missing = || TreeError(Vec::new(), "missing".into());
    let cfg = run.get("config").ok_or_else(missing).and_then(T::replayed);
    let valid = |cfg: T| match validate(&cfg) {
        Ok(()) => Ok(cfg),
        Err(e) => Err(TreeError(Vec::new(), e.to_string())),
    };
    cfg.and_then(valid).map_err(|e| under("config".into(), e))
}

/// Runs a trace-driven row on one [`Simulation`]: its report, the run's
/// wall (trace synthesis and construction outside it) and the access
/// digest. Every `Simulation`-backed row runs here.
fn simulate(run: &TraceRun) -> Result<(SimReport, Duration, u64), String> {
    let mut sim = Simulation::new(run.cfg.clone(), run.traces());
    let start = Instant::now();
    let report = sim.run(u64::MAX).map_err(|e| e.to_string())?;
    Ok((report, start.elapsed(), sim.access_digest()))
}

/// What a gate that only the schema's rules hold reads: nothing.
const NO_GATE: fn(&Value) -> Result<String, String> = |_| Ok(String::new());

/// The gate's reading, as a pass or as the failure.
fn verdict(holds: bool, reading: String) -> Result<String, String> {
    if holds {
        Ok(reading)
    } else {
        Err(reading)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The rows under `key` of `doc`, which the schema has typed.
fn rows<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key).and_then(Value::as_array).unwrap_or_default()
}

/// The number under `key` of the first row whose `axis` is `value`.
fn at(rows: &[Value], (axis, value): (&str, Value), key: &str) -> Result<f64, String> {
    let row = rows.iter().find(|row| row.get(axis) == Some(&value));
    let number = row.and_then(|row| row.get(key)).and_then(Value::as_f64);
    number.ok_or_else(|| format!("no \"{key}\" at {axis} = {value}"))
}

/// The sharded engine at `N ∈ {1, 2, 4, 8}` shards on both backends:
/// `test_small` / ALL / `black`, 25 000 records per core.
pub(crate) const SHARD_SCALING: Experiment = Experiment {
    name: "shard_scaling",
    document: Some(Document {
        schema: &schema::SHARD_SCALING,
        points: shard_scaling,
        gate: shard_gate,
    }),
    ..EXPERIMENT
};

const SHARD_RECORDS: usize = 25_000;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// The cycles each engine advances before the other takes its turn.
const SLICE_CYCLES: u64 = 250_000;

fn shard_cfg(backend: BackendKind, shards: usize) -> SystemConfig {
    let mut cfg = SystemConfig::test_small(Scheme::All);
    cfg.backend = backend;
    cfg.shards = shards;
    cfg.verify = VerifyConfig::off();
    cfg
}

/// One shard count: the threaded engine's setup and run walls, and each
/// shard of a second engine run in isolation. The two runs take turns,
/// [`SLICE_CYCLES`] at a time (`run` stops at a cycle limit and resumes),
/// so both walls are taken over the same stretch of the host's time: a
/// host that slows down for a while slows both, and the wall rule compares
/// the same work under the same conditions. Trace synthesis is input, not
/// engine cost, and is outside every timer.
fn shard_point(run: &TraceRun, baseline_run: Option<f64>) -> Result<(Value, f64), String> {
    let (traces, shards) = (run.traces(), run.cfg.shards);
    let mut serial = ShardedSimulation::new(run.cfg.clone(), traces.clone());
    let start = Instant::now();
    let mut threaded = ShardedSimulation::new(run.cfg.clone(), traces);
    let setup = start.elapsed();

    let (mut threaded_wall, mut walls) = (Duration::ZERO, vec![Duration::ZERO; shards]);
    let mut limit = 0;
    let report = loop {
        limit += SLICE_CYCLES;
        let start = Instant::now();
        let slice = threaded.run(limit);
        threaded_wall += start.elapsed();
        for (shard, wall) in serial.shards_mut().iter_mut().zip(&mut walls) {
            let start = Instant::now();
            // A shard that reaches the limit stops there and resumes on the
            // next turn; the limit is not a failure.
            let _ = shard.run(limit);
            *wall += start.elapsed();
        }
        if let Ok(report) = slice {
            break report;
        }
    };
    if !serial.is_finished() || serial.merged_digest() != threaded.merged_digest() {
        return Err(format!(
            "{shards} shards: the isolated runs do not merge to the threaded run's digest"
        ));
    }

    let accesses = report.oram_accesses as f64;
    let projected = walls.iter().max().copied().unwrap_or_default();
    let run_ms = ms(threaded_wall);
    let speedup = baseline_run.unwrap_or(run_ms) / run_ms;
    let walls = Value::Array(walls.iter().map(|w| finite(ms(*w))).collect());
    let point = Value::object(vec![
        ("shards", shards.into()),
        ("oram_accesses", report.oram_accesses.into()),
        ("merged_digest", hex_digest(threaded.merged_digest()).into()),
        ("total_cycles", report.total_cycles.into()),
        ("makespan_cycles", report.makespan_cycles.into()),
        ("setup_wall_ms", finite(ms(setup))),
        ("run_wall_ms", finite(run_ms)),
        ("measured_speedup_vs_n1", finite(speedup)),
        (
            "measured_accesses_per_sec",
            finite(accesses / threaded_wall.as_secs_f64()),
        ),
        ("shard_wall_ms", walls),
        ("projected_parallel_ms", finite(ms(projected))),
        (
            "projected_accesses_per_sec",
            finite(accesses / projected.as_secs_f64()),
        ),
        ("run", run.recorded()),
    ]);
    Ok((point, run_ms))
}

fn shard_scaling() -> Result<Fields, String> {
    let mut backends = Vec::new();
    for backend in BACKENDS {
        let mut points = Vec::new();
        let mut baseline_run = None;
        for shards in SHARD_COUNTS {
            let run = TraceRun::new(shard_cfg(backend, shards), WORKLOAD, SHARD_RECORDS);
            let (point, run_ms) = shard_point(&run, baseline_run)?;
            baseline_run.get_or_insert(run_ms);
            points.push(point);
        }
        backends.push(Value::object(vec![
            ("backend", backend.to_value()),
            ("points", Value::Array(points)),
        ]));
    }
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    Ok(vec![
        ("host_parallelism", host.into()),
        ("backends", Value::Array(backends)),
    ])
}

/// With 4 shards the functional engine's projected throughput (the slowest
/// shard's isolated wall) is at least 2× the 1-shard run's — which holds on
/// a one-core host — and its measured run wall at least 2.5× shorter: the
/// work itself drops, since each shard's tree is two levels shorter.
fn shard_gate(doc: &Value) -> Result<String, String> {
    let backends = rows(doc, "backends");
    let functional = backends
        .iter()
        .find(|b| b.get("backend") == Some(&"fast-functional".into()));
    let points = functional.map_or(&[][..], |b| rows(b, "points"));
    let at = |shards: usize, key| at(points, ("shards", shards.into()), key);
    let rate = "projected_accesses_per_sec";
    let projected = at(4, rate)? / at(1, rate)?;
    let measured = at(4, "measured_speedup_vs_n1")?;
    let reading = format!(
        "fast-functional at 4 shards: projected speedup {projected:.2}x (bound >= 2.00x), \
         measured {measured:.2}x (bound >= 2.50x)"
    );
    verdict(projected >= 2.0 && measured >= 2.5, reading)
}

/// Every protocol the pipeline hosts on both backends: `test_small` / ALL /
/// `black`, one core, 2 000 records. One core makes the access order a pure
/// function of the trace, so a protocol's digest is the same on both
/// backends — a rule of the schema.
pub(crate) const PROTOCOL_MATRIX: Experiment = Experiment {
    name: "protocol_matrix",
    document: Some(Document {
        schema: &schema::PROTOCOL_MATRIX,
        points: || protocol_matrix(&ProtocolKind::ALL, MATRIX_RECORDS),
        gate: NO_GATE,
    }),
    ..EXPERIMENT
};

const MATRIX_RECORDS: usize = 2_000;
const SPEED_RECORDS: usize = 50_000;

fn matrix_cfg(protocol: ProtocolKind, backend: BackendKind) -> SystemConfig {
    let mut cfg = SystemConfig::test_small(Scheme::All);
    cfg.protocol = protocol;
    cfg.backend = backend;
    cfg.cores = 1;
    cfg.verify = VerifyConfig::off();
    cfg
}

/// One row of `BENCH_protocol_matrix.json`.
fn matrix_point(run: &TraceRun) -> Result<Value, String> {
    let (report, wall, digest) = simulate(run)?;
    let accesses = report.oram_accesses;
    let rate = accesses as f64 / wall.as_secs_f64();
    let mean = report.total_cycles as f64 / accesses as f64;
    Ok(Value::object(vec![
        ("protocol", run.cfg.protocol.to_value()),
        ("backend", run.cfg.backend.to_value()),
        ("oram_accesses", accesses.into()),
        ("run_wall_ms", finite(ms(wall))),
        ("accesses_per_sec", finite(rate)),
        ("mean_cycles_per_access", finite(mean)),
        ("p99_latency_cycles", report.read_latency.p99.into()),
        ("digest", hex_digest(digest).into()),
        ("run", run.recorded()),
    ]))
}

/// `protocols` × both backends at `records` records, as
/// `BENCH_protocol_matrix.json`'s fields.
fn protocol_matrix(protocols: &[ProtocolKind], records: usize) -> Result<Fields, String> {
    let mut points = Vec::new();
    for &protocol in protocols {
        for backend in BACKENDS {
            let run = TraceRun::new(matrix_cfg(protocol, backend), WORKLOAD, records);
            points.push(matrix_point(&run)?);
        }
    }
    Ok(vec![("points", Value::Array(points))])
}

/// `protocol_matrix`'s Ring+CB points at 50 000 records: the functional
/// backend must finish in at most a fifth of the cycle-accurate one's wall,
/// on the same access sequence. Named after no document, it writes none.
pub(crate) const BACKEND_SPEED: Experiment = Experiment {
    name: "backend_speed",
    document: Some(Document {
        schema: &schema::PROTOCOL_MATRIX,
        points: || protocol_matrix(&[ProtocolKind::RingCb], SPEED_RECORDS),
        gate: speed_gate,
    }),
    ..EXPERIMENT
};

fn speed_gate(doc: &Value) -> Result<String, String> {
    let points = rows(doc, "points");
    let backend = |backend: BackendKind| ("backend", backend.to_value());
    let wall = |b| at(points, backend(b), "run_wall_ms");
    let ratio = wall(BackendKind::FastFunctional)? / wall(BackendKind::CycleAccurate)?;
    let digests: Vec<Option<&Value>> = points.iter().map(|p| p.get("digest")).collect();
    if digests.windows(2).any(|pair| pair[0] != pair[1]) {
        return Err("the backends diverged on the access sequence".to_string());
    }
    let reading = format!("fast-functional / cycle-accurate wall: {ratio:.3} (bound <= 0.200)");
    verdict(ratio <= 0.2, reading)
}

/// The service front-end at two loads over both submission modes and both
/// backends. `overload` is the robustness suite's storm; `provisioned` the
/// repo benchmark's three tenants, about 60 % of the fixed-rate slots.
/// Every run must audit clean; the schema holds exactly-once resolution and
/// the one fixed-rate schedule digest.
pub(crate) const SERVICE_LOAD: Experiment = Experiment {
    name: "service_load",
    document: Some(Document {
        schema: &schema::SERVICE_LOAD,
        points: service_load,
        gate: NO_GATE,
    }),
    ..EXPERIMENT
};

/// The arrival window, in cycles.
const SERVICE_HORIZON: u64 = 12_000;
/// Per-kilo-tick rates of the steady, the bursty (×4) and the diurnal
/// tenant; the fixed-rate cadence offers 3.9 slots per kilo-tick.
const LOADS: [(&str, [f64; 3]); 2] = [
    ("overload", [24.0, 12.0, 8.0]),
    ("provisioned", [1.0, 0.5, 0.8]),
];
const SUBMISSIONS: [SubmissionPolicy; 2] = [
    SubmissionPolicy::BestEffort { batch: 4 },
    SubmissionPolicy::FixedRate {
        interval: 256,
        batch: 1,
    },
];

fn tenants(rates: [f64; 3]) -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("alpha", ArrivalSpec::steady(rates[0])),
        TenantSpec::new("beta", ArrivalSpec::bursty(rates[1], 4.0)),
        TenantSpec::new("gamma", ArrivalSpec::diurnal(rates[2], 4_000, 0.8)),
    ]
}

fn service_cfg(rates: [f64; 3], policy: SubmissionPolicy, backend: BackendKind) -> ServiceConfig {
    let mut cfg = ServiceConfig::test_small(tenants(rates), SERVICE_HORIZON);
    cfg.system.backend = backend;
    cfg.policy = policy;
    cfg.deadline_cycles = 3_000;
    cfg.retry_budget = 1;
    // Watermarks under which the storm climbs the whole ladder (see
    // tests/service_robustness.rs for why the defaults cap fill below
    // shed_enter on slow ramps).
    cfg.governor.degrade_enter = 0.5;
    cfg.governor.degrade_exit = 0.25;
    cfg.governor.shed_enter = 0.8;
    cfg.governor.shed_exit = 0.4;
    cfg.governor.degraded_quota = 0.9;
    cfg
}

/// One row of `BENCH_service_load.json`. Its load is the entry of
/// [`LOADS`] whose tenants the config runs.
fn service_point(cfg: &ServiceConfig) -> Result<Value, String> {
    let load = LOADS
        .iter()
        .find(|(_, rates)| tenants(*rates) == cfg.tenants);
    let load = load.ok_or("no load has these tenants")?.0;
    let (mode, backend) = (cfg.policy.label(), cfg.system.backend);
    let mut service = OramService::new(cfg.clone()).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let report = service.run().map_err(|e| e.to_string())?;
    let wall = start.elapsed();
    if !report.violations.is_empty() {
        return Err(format!(
            "{load}/{mode}/{backend:?} violations: {:?}",
            report.violations
        ));
    }
    let steps = service.shards().iter();
    let (quiet, steps) = steps.fold((0, 0), |(q, c), s| (q + s.quiet_steps(), c + s.cycles()));
    let s = report.service.ok_or("no service summary")?;
    let (g, per_tick) = (&s.governor, wall.as_secs_f64() * 1e9 / s.ticks as f64);
    let sum = |f: fn(&TenantSummary) -> u64| s.tenants.iter().map(f).sum::<u64>();
    let share = |n: u64| finite(n as f64 / sum(|t| t.arrivals).max(1) as f64);
    let tenant = |t: &TenantSummary| {
        Value::object(vec![
            ("tenant", t.tenant.as_str().into()),
            ("arrivals", t.arrivals.into()),
            ("completed", t.completed.into()),
            ("timed_out", t.timed_out.into()),
            ("rejected", t.rejected().into()),
            ("p50", t.latency.p50.into()),
            ("p99", t.latency.p99.into()),
            ("p999", t.latency.p999.into()),
            ("queue_high_water", t.queue_depth_high_water.into()),
        ])
    };
    Ok(Value::object(vec![
        ("load", load.into()),
        ("mode", mode.into()),
        ("backend", backend.to_value()),
        ("policy", s.policy.as_str().into()),
        ("ticks", s.ticks.into()),
        ("real_accesses", s.real_accesses.into()),
        ("padding_accesses", s.padding_accesses.into()),
        ("padding_overhead", finite(s.padding_overhead())),
        ("shed_rate", share(sum(TenantSummary::rejected))),
        ("timeout_rate", share(sum(|t| t.timed_out))),
        ("run_wall_ms", finite(ms(wall))),
        ("ns_per_tick", finite(per_tick)),
        ("quiet_tick_share", finite(quiet as f64 / steps as f64)),
        ("governor_degraded_entries", g.degraded_entries.into()),
        ("governor_shed_entries", g.shed_entries.into()),
        ("governor_recoveries", g.recoveries.into()),
        ("schedule_digest", hex_digest(s.schedule_digest).into()),
        (
            "tenants",
            Value::Array(s.tenants.iter().map(tenant).collect()),
        ),
        ("run", service_run(cfg)),
    ]))
}

fn service_load() -> Result<Fields, String> {
    let mut points = Vec::new();
    for (_, rates) in LOADS {
        for backend in BACKENDS {
            for policy in SUBMISSIONS {
                points.push(service_point(&service_cfg(rates, policy, backend))?);
            }
        }
    }
    Ok(vec![("points", Value::Array(points))])
}

/// Every order-preserving command-scheduling policy on the paper's machine
/// at MLP 4, one core, `black` and `stream`, 1 500 records, cycle-accurate
/// backend (the functional one has no command scheduler). The gate is the
/// lab's headline: on some workload, read-over-write or the 4-deep
/// Proactive Bank beats PB on mean cycles.
pub(crate) const SCHED_POLICY: Experiment = Experiment {
    name: "sched_policy",
    document: Some(Document {
        schema: &schema::SCHED_POLICY,
        points: sched_policy,
        gate: policy_gate,
    }),
    ..EXPERIMENT
};

const POLICY_RECORDS: usize = 1_500;
const POLICY_WORKLOADS: [&str; 2] = ["black", "stream"];
/// Each row's `policy` label and the policy it runs, baseline first; the
/// insecure unconstrained ablation has no digest to pin.
const POLICIES: [(&str, SchedulerPolicy); 5] = [
    ("fr-fcfs", SchedulerPolicy::TransactionBased),
    (
        "proactive-bank",
        SchedulerPolicy::ProactiveBank { lookahead: 1 },
    ),
    (
        "read-over-write",
        SchedulerPolicy::ReadOverWrite { drain_bound: 8 },
    ),
    (DEEP_PB, SchedulerPolicy::ProactiveBank { lookahead: 4 }),
    ("fixed-cadence", SchedulerPolicy::FixedCadence { period: 2 }),
];
/// The label of Proactive Bank four transactions deep.
const DEEP_PB: &str = "proactive-bank/lookahead=4";

fn policy_cfg(policy: SchedulerPolicy) -> SystemConfig {
    let mut cfg = SystemConfig::hpca_default(Scheme::All);
    cfg.sched_policy = policy;
    // One core: the access sequence is then a pure function of the trace,
    // so the digest must agree across every policy.
    cfg.cores = 1;
    // Four transactions in flight: with the blocking default (MLP 1) the
    // queue never holds more than the current and the next transaction, so
    // every k-lookahead policy collapses to Proactive Bank and fixed
    // cadence has nothing to pace.
    cfg.core_mlp = 4;
    cfg.verify = VerifyConfig::off();
    cfg
}

/// One row of `BENCH_sched_policy.json`. Its `policy` is the label of the
/// entry of [`POLICIES`] whose policy the config runs.
fn policy_point(run: &TraceRun) -> Result<Value, String> {
    let policy = POLICIES
        .iter()
        .find(|(_, policy)| *policy == run.cfg.sched_policy);
    let policy = policy.ok_or("no label names this policy")?.0;
    let (r, wall, digest) = simulate(run)?;
    let mean = r.total_cycles as f64 / r.oram_accesses as f64;
    let pending_idle = r.pending_bank_idle_proportion;
    Ok(Value::object(vec![
        ("policy", policy.into()),
        ("backend", run.cfg.backend.to_value()),
        ("workload", run.workload.into()),
        ("oram_accesses", r.oram_accesses.into()),
        ("run_wall_ms", finite(ms(wall))),
        ("mean_cycles_per_access", finite(mean)),
        ("bank_idle_proportion", finite(r.bank_idle_proportion)),
        ("pending_bank_idle_proportion", finite(pending_idle)),
        (
            "early_precharge_fraction",
            finite(r.early_precharge_fraction),
        ),
        ("early_activate_fraction", finite(r.early_activate_fraction)),
        ("deferred_writes", r.deferred_writes.into()),
        ("withheld_issue_slots", r.withheld_issue_slots.into()),
        ("digest", hex_digest(digest).into()),
        ("run", run.recorded()),
    ]))
}

fn sched_policy() -> Result<Fields, String> {
    let mut points = Vec::new();
    for workload in POLICY_WORKLOADS {
        for (_, policy) in POLICIES {
            let run = TraceRun::new(policy_cfg(policy), workload, POLICY_RECORDS);
            points.push(policy_point(&run)?);
        }
    }
    Ok(vec![("points", Value::Array(points))])
}

fn policy_gate(doc: &Value) -> Result<String, String> {
    let (mut wins, mut readings) = (false, Vec::new());
    for workload in POLICY_WORKLOADS {
        let points = rows(doc, "points").iter();
        let on: Vec<Value> = points
            .filter(|p| p.get("workload") == Some(&workload.into()))
            .cloned()
            .collect();
        let mean = |policy: &str| at(&on, ("policy", policy.into()), "mean_cycles_per_access");
        let (pb, row, deep) = (
            mean("proactive-bank")?,
            mean("read-over-write")?,
            mean(DEEP_PB)?,
        );
        wins |= row < pb || deep < pb;
        readings.push(format!("{workload}: {row:.1} / {deep:.1} vs {pb:.1}"));
    }
    let reading = format!(
        "mean cycles per access, read-over-write / {DEEP_PB} vs proactive-bank: {} \
         (bound: one of the two below proactive-bank on some workload)",
        readings.join("; ")
    );
    verdict(wins, reading)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn trace_run(run: &Value) -> Result<TraceRun, String> {
        TraceRun::read(run).map_err(|e| e.to_string())
    }

    /// An entry's point function, fed the run a row records.
    type Replay = fn(&Value) -> Result<Value, String>;

    /// Each committed document with its entry's [`Replay`].
    const REPLAYS: [(&Schema, Replay); 4] = [
        (&schema::SHARD_SCALING, |run| {
            Ok(shard_point(&trace_run(run)?, None)?.0)
        }),
        (&schema::PROTOCOL_MATRIX, |run| {
            matrix_point(&trace_run(run)?)
        }),
        (&schema::SERVICE_LOAD, |run| {
            service_point(&read_service_run(run).map_err(|e| e.to_string())?)
        }),
        (&schema::SCHED_POLICY, |run| policy_point(&trace_run(run)?)),
    ];

    /// Every row under `v` that records its run, with the backend it or a
    /// row around it names.
    fn recorded<'a>(v: &'a Value, backend: Option<&'a Value>, out: &mut Vec<(&'a Value, bool)>) {
        match v {
            Value::Object(m) => {
                let backend = m.get("backend").or(backend);
                if m.contains_key("run") {
                    out.push((v, backend == Some(&"fast-functional".into())));
                }
                m.values().for_each(|v| recorded(v, backend, out));
            }
            Value::Array(items) => items.iter().for_each(|v| recorded(v, backend, out)),
            _ => {}
        }
    }

    /// One row per committed document — the cheapest by its recorded wall,
    /// on the fast-functional backend where the document has one — rebuilt
    /// from its `run` alone and run again through its entry's own point
    /// function, repeats the committed row outside the host keys.
    #[test]
    fn one_row_of_each_committed_document_replays_from_its_run() {
        for (schema, replay) in REPLAYS {
            let doc = schema.committed().unwrap();
            let mut rows = Vec::new();
            recorded(&doc, None, &mut rows);
            let wall = |row: &Value| row.get("run_wall_ms").and_then(Value::as_f64).unwrap();
            let cost = |&(row, functional): &(&Value, bool)| (!functional, wall(row));
            let (row, _) = rows
                .into_iter()
                .min_by(|a, b| cost(a).partial_cmp(&cost(b)).unwrap())
                .expect("a row records its run");
            let run = row.get("run").unwrap();
            let fresh = replay(run).unwrap_or_else(|e| panic!("{}: {e}", schema.bench));
            let difference = schema.first_difference(&fresh, row);
            assert_eq!(difference, None, "{}: {run}", schema.bench);
        }
    }
}
