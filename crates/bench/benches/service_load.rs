//! Service load matrix: the `oram-service` front-end under an overload
//! storm, over every submission mode × memory backend pair, recorded to
//! `BENCH_service_load.json` at the repo root (format:
//! `schema::SERVICE_LOAD`; the committed copy is re-validated by the bench
//! lib's tests and the CI smoke step).
//!
//! The storm is the same ≥4× one the robustness suite uses: two heavy
//! tenants plus a diurnal one, arrival rates far above the submission
//! rate, deadlines short enough that deep queues expire. Each cell reports
//! per-tenant outcomes (p50/p99/p999, shed and timeout rates), the
//! governor's transition counts, and the padding cost of the fixed-rate
//! cadence versus best-effort.
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

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("alpha", ArrivalSpec::steady(24.0)),
        TenantSpec::new("beta", ArrivalSpec::bursty(12.0, 4.0)),
        TenantSpec::new("gamma", ArrivalSpec::diurnal(8.0, 4_000, 0.8)),
    ]
}

fn cfg_for(policy: SubmissionPolicy, backend: BackendKind) -> ServiceConfig {
    let mut cfg = ServiceConfig::test_small(tenants(), horizon());
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
    mode: &'static str,
    backend: &'static str,
    summary: ServiceSummary,
    wall: Duration,
}

fn measure(policy: SubmissionPolicy, backend: BackendKind, backend_name: &'static str) -> Cell {
    let cfg = cfg_for(policy, backend);
    let mode = cfg.policy.label();
    let mut service = OramService::new(cfg).expect("valid config");
    let start = Instant::now();
    let report = service.run().expect("service terminates");
    let wall = start.elapsed();
    if !report.violations.is_empty() {
        println!(
            "FAIL: {mode}/{backend_name} violations: {:?}",
            report.violations
        );
        std::process::exit(1);
    }
    Cell {
        mode,
        backend: backend_name,
        summary: report.service.expect("service summary attached"),
        wall,
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
    println!("# service_load: 3-tenant overload storm, horizon {horizon} cycles");
    println!(
        "{:<12} {:<16} {:>8} {:>7} {:>7} {:>7} {:>8} {:>8} {:>10}",
        "mode", "backend", "ticks", "real", "pad", "shed%", "t/o%", "wall ms", "digest"
    );

    let mut cells = Vec::new();
    for (backend, backend_name) in [
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
            let cell = measure(policy, backend, backend_name);
            let s = &cell.summary;
            let (shed_rate, timeout_rate) = cell.shed_and_timeout_rates();
            println!(
                "{:<12} {:<16} {:>8} {:>7} {:>7} {:>6.1}% {:>7.1}% {:>8.2} {:#018x}",
                cell.mode,
                cell.backend,
                s.ticks,
                s.real_accesses,
                s.padding_accesses,
                100.0 * shed_rate,
                100.0 * timeout_rate,
                cell.wall.as_secs_f64() * 1e3,
                s.schedule_digest,
            );
            cells.push(cell);
        }
    }

    SERVICE_LOAD.write(vec![
        (
            "master_seed",
            cfg_for(
                SubmissionPolicy::BestEffort { batch: 4 },
                BackendKind::CycleAccurate,
            )
            .system
            .seed
            .into(),
        ),
        ("horizon", horizon.into()),
        ("tenants", tenants().len().into()),
        (
            "points",
            Value::Array(cells.iter().map(cell_json).collect()),
        ),
    ]);
    println!("PASS: fixed-rate envelope identical across backends, all runs audit clean");
}
