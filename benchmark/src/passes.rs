//! What one child process does: a timed repetition of the untraced program,
//! the verify-on check pass over a prefix, or the traced pass (in
//! [`crate::traced`]). Each prints a single JSON line that the harness reads.
//!
//! Every pass runs in a process of its own because a warm allocator makes
//! the simulator look faster than a user ever sees it: the tree materialises
//! lazily during the run, so a second in-process repetition reuses pages the
//! first one faulted in.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use oram_service::OramService;
use ring_oram::ObliviousProtocol;
use string_oram::{
    BackendKind, ShardedSimulation, SimReport, Simulation, SystemConfig, VerifyConfig,
};
use trace_synth::TraceRecord;

use crate::host;
use crate::json::Json;
use crate::traced;
use crate::workloads::{arrivals, Arrival, Size, Workload};

/// Which pass a child runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The untraced program, checkers off: the only source of end-to-end
    /// numbers.
    Timed,
    /// The first tenth of the inputs, with the checkers on (the check pass)
    /// or off (its twin, for `sim_verify.overhead_ratio`).
    Prefix { verify: bool },
    /// The traced pass: per-layer numbers only.
    Traced,
    /// Service only: the second half of the traced pass (see
    /// [`traced::service_replay`]).
    Replay,
}

/// Ticks per timed window on the service workload.
const SERVICE_WINDOW: u64 = 4_096;

/// One output check: what was checked, whether it held, what was seen.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub seen: String,
}

impl Check {
    pub fn json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("ok", Json::from(self.ok)),
            ("seen", Json::from(self.seen.as_str())),
        ])
    }

    /// Reads a check back from a child's line; anything malformed is a
    /// failed check.
    pub fn from_json(v: &Json) -> Self {
        Self {
            name: v.str("name").unwrap_or("?").to_string(),
            ok: v.get("ok").and_then(Json::as_bool).unwrap_or(false),
            seen: v.str("seen").unwrap_or("").to_string(),
        }
    }
}

/// The output checks of one pass.
#[derive(Debug, Default)]
pub struct Checks(Vec<Check>);

impl Checks {
    pub fn add(&mut self, name: &str, ok: bool, seen: impl std::fmt::Display) {
        self.0.push(Check {
            name: name.to_string(),
            ok,
            seen: seen.to_string(),
        });
    }

    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, got: T, want: T) {
        self.add(name, got == want, format!("{got:?} vs {want:?}"));
    }

    pub fn json(&self) -> Json {
        Json::Arr(self.0.iter().map(Check::json).collect())
    }
}

/// A digest, shown in hex when a check prints what it saw.
#[derive(PartialEq, Eq)]
pub struct Hex(pub u64);

impl std::fmt::Debug for Hex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// The simulated outcome of a pass. Two passes over the same inputs must
/// produce equal objects, whatever ran them.
pub fn sim_json(
    ops: u64,
    span_cycles: u64,
    total_cycles: u64,
    digest: u64,
    lat: (u64, u64, u64),
) -> Json {
    Json::obj([
        ("ops", Json::from(ops)),
        ("span_cycles", Json::from(span_cycles)),
        ("total_cycles", Json::from(total_cycles)),
        ("digest", Json::hex(digest)),
        ("lat_samples", Json::from(lat.0)),
        ("p50", Json::from(lat.1)),
        ("p99", Json::from(lat.2)),
    ])
}

fn sim_of_report(r: &SimReport, digest: u64) -> Json {
    let lat = r.read_latency;
    sim_json(
        r.oram_accesses,
        r.makespan_cycles,
        r.total_cycles,
        digest,
        (lat.samples, lat.p50, lat.p99),
    )
}

/// Host-side measurements around the run phase.
struct Timing {
    setup_s: f64,
    run_s: f64,
    rss_setup_kb: u64,
    utime_ticks: u64,
    stime_ticks: u64,
}

/// Times `run`, and reads the CPU ticks and memory around it. Set-up ends
/// where `run` begins.
fn timed<T>(started: Instant, run: impl FnOnce() -> T) -> (T, Timing) {
    let setup_s = started.elapsed().as_secs_f64();
    let rss_setup_kb = host::vm_kb("VmRSS");
    let (u0, s0) = host::cpu_ticks();
    let t = Instant::now();
    let out = run();
    let run_s = t.elapsed().as_secs_f64();
    let (u1, s1) = host::cpu_ticks();
    let timing = Timing {
        setup_s,
        run_s,
        rss_setup_kb,
        utime_ticks: u1 - u0,
        stime_ticks: s1 - s0,
    };
    (out, timing)
}

fn finish(
    attempted: u64,
    completed: u64,
    sim: Json,
    t: &Timing,
    checks: &Checks,
) -> Vec<(&'static str, Json)> {
    vec![
        ("ops_attempted", Json::from(attempted)),
        ("ops_completed", Json::from(completed)),
        ("sim", sim),
        ("setup_s", Json::from(t.setup_s)),
        ("run_s", Json::from(t.run_s)),
        ("rss_setup_kb", Json::from(t.rss_setup_kb)),
        ("vm_hwm_kb", Json::from(host::vm_kb("VmHWM"))),
        ("utime_ticks", Json::from(t.utime_ticks)),
        ("stime_ticks", Json::from(t.stime_ticks)),
        ("checks", checks.json()),
    ]
}

/// Runs one pass and returns the line to print. `started` is the child's
/// first instant: set-up time counts from there.
pub fn run(w: Workload, seed: u64, size: Size, mode: Mode, started: Instant) -> Json {
    let fields = match (mode, w.is_service()) {
        (Mode::Timed, false) => program_trace(w, seed, size, false, started),
        (Mode::Prefix { verify }, false) => program_trace(w, seed, size.prefix(), verify, started),
        (Mode::Timed, true) => program_service(w, seed, size, false, started),
        (Mode::Prefix { verify }, true) => program_service(w, seed, size.prefix(), verify, started),
        (Mode::Traced, false) => traced::trace_workload(w, seed, size),
        (Mode::Traced, true) => traced::service_workload(w, seed, size),
        (Mode::Replay, true) => traced::service_replay(w, seed, size),
        (Mode::Replay, false) => panic!("only the service workload has a replay pass"),
    };
    Json::obj(
        [
            ("workload", Json::from(w.name())),
            ("seed", Json::from(seed)),
        ]
        .into_iter()
        .chain(fields),
    )
}

// ---------------------------------------------------------------- untraced

/// The untraced simulator: `Simulation`, or `ShardedSimulation` on its
/// worker threads when the workload is sharded.
enum Program {
    One(Box<Simulation>),
    Sharded(Box<ShardedSimulation>),
}

impl Program {
    fn new(cfg: SystemConfig, traces: Vec<Vec<TraceRecord>>) -> Self {
        if cfg.shards == 1 {
            Self::One(Box::new(Simulation::new(cfg, traces)))
        } else {
            Self::Sharded(Box::new(ShardedSimulation::new(cfg, traces)))
        }
    }

    fn run(&mut self) -> SimReport {
        match self {
            Self::One(sim) => sim.run(u64::MAX),
            Self::Sharded(sim) => sim.run(u64::MAX),
        }
        .expect("no cycle limit is set")
    }

    fn digest(&self) -> u64 {
        match self {
            Self::One(sim) => sim.access_digest(),
            Self::Sharded(sim) => sim.merged_digest(),
        }
    }

    fn engines(&self) -> Vec<&dyn ObliviousProtocol> {
        match self {
            Self::One(sim) => vec![sim.protocol()],
            Self::Sharded(sim) => sim.shards().iter().map(|s| s.protocol()).collect(),
        }
    }
}

pub fn total_records(traces: &[Vec<TraceRecord>]) -> usize {
    traces.iter().map(Vec::len).sum()
}

fn program_trace(
    w: Workload,
    seed: u64,
    size: Size,
    verify: bool,
    started: Instant,
) -> Vec<(&'static str, Json)> {
    let traces = w.traces(seed, size);
    let records = total_records(&traces);
    let mut cfg = w.system();
    if verify {
        cfg.verify = VerifyConfig::checked();
    }
    let mut program = Program::new(cfg.clone(), traces.clone());
    let (report, timing) = timed(started, || program.run());

    let mut checks = Checks::default();
    checks.eq(
        "oram_accesses == records",
        report.oram_accesses,
        records as u64,
    );
    checks.eq(
        "cycles_by_kind.total() == total_cycles",
        report.cycles_by_kind.total(),
        report.total_cycles,
    );
    if verify {
        checks.add(
            "zero violations",
            report.violations.is_empty(),
            report.violations.len(),
        );
        let invariants = catch_unwind(AssertUnwindSafe(|| {
            program.engines().iter().for_each(|e| e.check_invariants());
        }));
        checks.add("protocol().check_invariants()", invariants.is_ok(), "");
        if let Program::Sharded(sim) = &program {
            checks.add(
                "check_cross_shard() is empty",
                sim.check_cross_shard().is_empty(),
                "",
            );
            // The threaded run above against the same shards run one after
            // another on this thread.
            let mut serial = ShardedSimulation::new(cfg.clone(), traces.clone());
            for shard in serial.shards_mut() {
                shard.run(u64::MAX).expect("no cycle limit is set");
            }
            checks.eq(
                "serial == threaded merged_digest",
                Hex(serial.merged_digest()),
                Hex(sim.merged_digest()),
            );
        }
        // Backends cannot influence the plan. That shows on one core only:
        // with several, which core's miss is planned next depends on how
        // long each stalled, and the timing models differ there by design
        // (see `tests/backend_differential.rs`).
        if matches!(w, Workload::HpcaCycle | Workload::HpcaFunctional) {
            let digest_on = |backend: BackendKind| {
                let mut one_core = cfg.clone();
                one_core.cores = 1;
                one_core.backend = backend;
                let mut sim = Simulation::new(one_core, vec![traces[0].clone()]);
                sim.run(u64::MAX).expect("no cycle limit is set");
                Hex(sim.access_digest())
            };
            checks.eq(
                "one-core digest: cycle-accurate == functional",
                digest_on(BackendKind::CycleAccurate),
                digest_on(BackendKind::FastFunctional),
            );
        }
    }
    let sim = sim_of_report(&report, program.digest());
    finish(records as u64, report.oram_accesses, sim, &timing, &checks)
}

/// Outside-in timing of the service: each window of ticks and each `submit`
/// inside it, in nanoseconds since `origin`.
pub struct ServiceSpans {
    pub origin: Instant,
    /// `(first tick, start, end)` per window.
    pub windows: Vec<(u64, u64, u64)>,
    pub submit_ns: u64,
    pub submits: u64,
}

/// Submits every scheduled request at its tick, then lets the service
/// drain. With `spans`, times the windows and the `submit` calls (the traced
/// pass); without, only drives (the timed pass). Returns the report and how
/// many submissions were refused.
pub fn drive_service(
    svc: &mut OramService,
    schedule: &[Arrival],
    horizon: u64,
    mut spans: Option<&mut ServiceSpans>,
) -> (SimReport, u64) {
    let (mut next, mut rejected) = (0, 0u64);
    let mut tick = 0;
    while tick < horizon {
        let end = (tick + SERVICE_WINDOW).min(horizon);
        let start = spans.as_ref().map(|s| s.origin.elapsed());
        for now in tick..end {
            while let Some(a) = schedule.get(next).filter(|a| a.tick == now) {
                let t = spans.is_some().then(Instant::now);
                rejected += u64::from(svc.submit(a.tenant, a.offset, a.is_write).is_err());
                if let (Some(s), Some(t)) = (spans.as_deref_mut(), t) {
                    s.submit_ns += t.elapsed().as_nanos() as u64;
                    s.submits += 1;
                }
                next += 1;
            }
            svc.tick_once();
        }
        if let (Some(s), Some(start)) = (spans.as_deref_mut(), start) {
            let end_ns = s.origin.elapsed().as_nanos() as u64;
            s.windows.push((tick, start.as_nanos() as u64, end_ns));
        }
        tick = end;
    }
    let report = svc.run().expect("the service drains within max_cycles");
    (report, rejected)
}

/// The latency a tenant request sees, admission to completion. The service
/// publishes percentiles per tenant, not the pooled samples, so the figure
/// is the worst tenant's.
fn service_latency(report: &SimReport) -> (u64, u64, u64) {
    let tenants = &report.service.as_ref().expect("service summary").tenants;
    (
        tenants.iter().map(|t| t.latency.samples).min().unwrap_or(0),
        tenants.iter().map(|t| t.latency.p50).max().unwrap_or(0),
        tenants.iter().map(|t| t.latency.p99).max().unwrap_or(0),
    )
}

pub fn service_sim(report: &SimReport) -> (u64, Json) {
    let service = report.service.as_ref().expect("service summary");
    let completed = service.tenants.iter().map(|t| t.completed).sum();
    let sim = sim_json(
        completed,
        service.ticks,
        report.total_cycles,
        service.schedule_digest,
        service_latency(report),
    );
    (completed, sim)
}

pub fn service_checks(report: &SimReport, submitted: usize, rejected: u64, checks: &mut Checks) {
    let service = report.service.as_ref().expect("service summary");
    for t in &service.tenants {
        checks.eq(
            &format!("{}: resolved() == arrivals", t.tenant),
            t.resolved(),
            t.arrivals,
        );
    }
    let arrivals: u64 = service.tenants.iter().map(|t| t.arrivals).sum();
    checks.eq("arrivals == requests submitted", arrivals, submitted as u64);
    let refused: u64 = service
        .tenants
        .iter()
        .map(|t| t.rejected() + t.timed_out)
        .sum();
    checks.eq(
        "no request rejected or timed out",
        (refused, rejected),
        (0, 0),
    );
    checks.add(
        "zero violations",
        report.violations.is_empty(),
        report.violations.len(),
    );
    checks.eq(
        "cycles_by_kind.total() == total_cycles",
        report.cycles_by_kind.total(),
        report.total_cycles,
    );
}

fn program_service(
    w: Workload,
    seed: u64,
    size: Size,
    verify: bool,
    started: Instant,
) -> Vec<(&'static str, Json)> {
    let mut cfg = w.service(size);
    if verify {
        cfg.system.verify = VerifyConfig::checked();
    }
    let schedule = arrivals(seed, cfg.horizon);
    let mut svc = OramService::new(cfg.clone()).expect("service config is valid");
    let ((report, rejected), timing) = timed(started, || {
        drive_service(&mut svc, &schedule, cfg.horizon, None)
    });
    let mut checks = Checks::default();
    service_checks(&report, schedule.len(), rejected, &mut checks);
    let (completed, sim) = service_sim(&report);
    finish(schedule.len() as u64, completed, sim, &timing, &checks)
}
