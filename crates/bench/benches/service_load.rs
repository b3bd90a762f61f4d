//! Service load matrix: the `oram-service` front-end at two loads, over
//! every submission mode × memory backend pair, recorded to
//! `BENCH_service_load.json` at the repo root (format:
//! `schema::SERVICE_LOAD`; the committed copy is re-validated by the bench
//! lib's tests and the CI smoke step).
//!
//! `overload` is the same ≥4× storm the robustness suite uses: two heavy
//! tenants plus a diurnal one, arrival rates far above the submission
//! rate, deadlines short enough that deep queues expire. `provisioned` is
//! the same service under the repo benchmark's three tenants, about 60 %
//! of the fixed-rate cadence's slots: the point where the cadence pads and
//! most ticks are idle. Each cell reports per-tenant outcomes
//! (p50/p99/p999, shed and timeout rates), the governor's transition
//! counts, the padding cost of the fixed-rate cadence versus best-effort,
//! the host cost of a tick and the share of shard steps that were quiet.
//!
//! Exit gates: every run must audit clean (zero violations), and — through
//! the `SERVICE_LOAD` schema the document is written under, so that the
//! committed artifact re-proves both on every test run — resolve every
//! arrival exactly once and agree on the fixed-rate schedule digest across
//! backends (the envelope is a pure function of the clock — memory timing
//! may change *what completes when*, never *when the service submits*).
//!
//! `STRING_ORAM_SERVICE_HORIZON` scales the arrival window (default
//! 12000 cycles); `STRING_ORAM_BENCH_JSON` overrides the output path (CI
//! smoke writes to a scratch file instead of the committed artifact).

use std::time::{Duration, Instant};

use oram_service::{OramService, ServiceConfig, SubmissionPolicy, TenantSpec};
use string_oram::{BackendKind, ServiceSummary, TenantSummary};
use string_oram_bench::env_or;
use string_oram_bench::json::Value;
use string_oram_bench::schema::{finite, hex_digest, SERVICE_LOAD};
use trace_synth::ArrivalSpec;

fn horizon() -> u64 {
    env_or("STRING_ORAM_SERVICE_HORIZON", 12_000)
}

/// The load axis: per-kilo-tick rates of the steady, the bursty (×4) and
/// the diurnal tenant. The fixed-rate cadence offers 3.9 slots per
/// kilo-tick.
const LOADS: [(&str, [f64; 3]); 2] = [
    ("overload", [24.0, 12.0, 8.0]),
    ("provisioned", [1.0, 0.5, 0.8]),
];

fn tenants(rates: [f64; 3]) -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("alpha", ArrivalSpec::steady(rates[0])),
        TenantSpec::new("beta", ArrivalSpec::bursty(rates[1], 4.0)),
        TenantSpec::new("gamma", ArrivalSpec::diurnal(rates[2], 4_000, 0.8)),
    ]
}

fn cfg_for(rates: [f64; 3], policy: SubmissionPolicy, backend: BackendKind) -> ServiceConfig {
    let mut cfg = ServiceConfig::test_small(tenants(rates), horizon());
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

struct Cell {
    load: &'static str,
    mode: &'static str,
    backend: &'static str,
    summary: ServiceSummary,
    wall: Duration,
    /// Shard steps that took the pipeline's O(1) path, over all steps.
    quiet_tick_share: f64,
}

fn measure(
    (load, rates): (&'static str, [f64; 3]),
    policy: SubmissionPolicy,
    (backend, backend_name): (BackendKind, &'static str),
) -> Cell {
    let cfg = cfg_for(rates, policy, backend);
    let mode = cfg.policy.label();
    let mut service = OramService::new(cfg).expect("valid config");
    let start = Instant::now();
    let report = service.run().expect("service terminates");
    let wall = start.elapsed();
    if !report.violations.is_empty() {
        println!(
            "FAIL: {load}/{mode}/{backend_name} violations: {:?}",
            report.violations
        );
        std::process::exit(1);
    }
    let (quiet, steps) = service
        .shards()
        .iter()
        .fold((0, 0), |(q, c), s| (q + s.quiet_steps(), c + s.cycles()));
    Cell {
        load,
        mode,
        backend: backend_name,
        summary: report.service.expect("service summary attached"),
        wall,
        quiet_tick_share: quiet as f64 / steps as f64,
    }
}

impl Cell {
    /// The shares of all arrivals that were rejected and that timed out.
    fn shed_and_timeout_rates(&self) -> (f64, f64) {
        let tenants = &self.summary.tenants;
        let arrivals: u64 = tenants.iter().map(|t| t.arrivals).sum();
        let rejected: u64 = tenants.iter().map(TenantSummary::rejected).sum();
        let timed_out: u64 = tenants.iter().map(|t| t.timed_out).sum();
        let share = |n: u64| n as f64 / arrivals.max(1) as f64;
        (share(rejected), share(timed_out))
    }
}

fn cell_json(cell: &Cell) -> Value {
    let s = &cell.summary;
    let (shed_rate, timeout_rate) = cell.shed_and_timeout_rates();
    Value::object(vec![
        ("load", cell.load.into()),
        ("mode", cell.mode.into()),
        ("backend", cell.backend.into()),
        ("policy", s.policy.as_str().into()),
        ("ticks", s.ticks.into()),
        ("real_accesses", s.real_accesses.into()),
        ("padding_accesses", s.padding_accesses.into()),
        ("padding_overhead", finite(s.padding_overhead())),
        ("shed_rate", finite(shed_rate)),
        ("timeout_rate", finite(timeout_rate)),
        ("run_wall_ms", finite(cell.wall.as_secs_f64() * 1e3)),
        (
            "ns_per_tick",
            finite(cell.wall.as_secs_f64() * 1e9 / s.ticks as f64),
        ),
        ("quiet_tick_share", finite(cell.quiet_tick_share)),
        (
            "governor_degraded_entries",
            s.governor.degraded_entries.into(),
        ),
        ("governor_shed_entries", s.governor.shed_entries.into()),
        ("governor_recoveries", s.governor.recoveries.into()),
        ("schedule_digest", hex_digest(s.schedule_digest).into()),
        (
            "tenants",
            Value::Array(
                s.tenants
                    .iter()
                    .map(|t| {
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
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    let horizon = horizon();
    println!("# service_load: 3 tenants at 2 loads, horizon {horizon} cycles");
    println!(
        "{:<12} {:<12} {:<16} {:>7} {:>6} {:>6} {:>7} {:>7} {:>8} {:>7} {:>10}",
        "load",
        "mode",
        "backend",
        "ticks",
        "real",
        "pad",
        "shed%",
        "t/o%",
        "ns/tick",
        "quiet%",
        "digest"
    );

    let mut cells = Vec::new();
    for load in LOADS {
        for backend in [
            (BackendKind::CycleAccurate, "cycle-accurate"),
            (BackendKind::FastFunctional, "fast-functional"),
        ] {
            for policy in [
                SubmissionPolicy::BestEffort { batch: 4 },
                SubmissionPolicy::FixedRate {
                    interval: 256,
                    batch: 1,
                },
            ] {
                let cell = measure(load, policy, backend);
                let s = &cell.summary;
                let (shed_rate, timeout_rate) = cell.shed_and_timeout_rates();
                println!(
                    "{:<12} {:<12} {:<16} {:>7} {:>6} {:>6} {:>6.1}% {:>6.1}% {:>8.1} {:>6.1}% {:#018x}",
                    cell.load,
                    cell.mode,
                    cell.backend,
                    s.ticks,
                    s.real_accesses,
                    s.padding_accesses,
                    100.0 * shed_rate,
                    100.0 * timeout_rate,
                    cell.wall.as_secs_f64() * 1e9 / s.ticks as f64,
                    100.0 * cell.quiet_tick_share,
                    s.schedule_digest,
                );
                cells.push(cell);
            }
        }
    }

    SERVICE_LOAD.write(vec![
        (
            "master_seed",
            cfg_for(
                LOADS[0].1,
                SubmissionPolicy::BestEffort { batch: 4 },
                BackendKind::CycleAccurate,
            )
            .system
            .seed
            .into(),
        ),
        ("horizon", horizon.into()),
        ("tenants", tenants(LOADS[0].1).len().into()),
        (
            "points",
            Value::Array(cells.iter().map(cell_json).collect()),
        ),
    ]);
    println!("PASS: fixed-rate envelope identical across backends and loads, all runs audit clean");
}
