//! Shard-scaling trajectory: throughput of the sharded parallel engine at
//! `N ∈ {1, 2, 4, 8}` shards over both memory backends, recorded to
//! `BENCH_shard_scaling.json` at the repo root (format:
//! `schema::SHARD_SCALING`; the committed copy is re-validated by the bench
//! lib's tests and the CI smoke step).
//!
//! Setup and run are timed **separately**: construction (position maps,
//! backend state, per-shard trace partitioning — parallelized across
//! worker threads in `ShardedSimulation`) is a one-time cost that must not
//! pollute the steady-state throughput numbers, and conversely a fast
//! steady state must not hide a setup phase that scales badly with `N`.
//!
//! Two run timings are recorded per point, because CI containers are often
//! core-starved and a thread-per-shard run cannot speed up on one core:
//!
//! * **measured** — wall-clock of the real threaded [`ShardedSimulation`]
//!   run on this host (honest, host-dependent);
//! * **projected** — each shard re-run *in isolation* and timed
//!   individually; the projected parallel makespan is the slowest shard's
//!   isolated wall (what the threaded run approaches given `N` free
//!   cores). `host_parallelism` records how many cores this host actually
//!   had, so readers can tell which number is meaningful.
//!
//! The serial re-run doubles as a determinism check: its merged digest
//! must equal the threaded run's, or the merge is interleaving-sensitive.
//!
//! `STRING_ORAM_SHARD_ACCESSES` scales the per-core trace (default 25000,
//! i.e. 50k accesses over the two simulated cores);
//! `STRING_ORAM_BENCH_JSON` overrides the output path (CI smoke writes to
//! a scratch file instead of the committed trajectory).
//!
//! Exit gates: the functional 4-shard point must show a projected
//! throughput >= 2x the 1-shard run, and — at full trace sizes (>=
//! [`MEASURED_GATE_MIN_RECORDS`] records/core, where thread and setup
//! overheads are amortized) — a *measured* run-phase speedup >= 2.5x.
//! The CI `perf-smoke` job runs this bench at the default size and relies
//! on these gates.

use std::time::{Duration, Instant};

use string_oram::{BackendKind, Scheme, ShardedSimulation, SimReport, SystemConfig, VerifyConfig};
use string_oram_bench::json::Value;
use string_oram_bench::schema::{finite, hex_digest, SHARD_SCALING};
use string_oram_bench::{env_or, traces_for};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const WORKLOAD: &str = "black";
const TRACE_SEED: u64 = 11;

/// Smallest per-core trace at which the measured-speedup gate applies:
/// below this, sub-second runs are dominated by thread spawn and cache
/// warm-up and the measured numbers are noise, not signal.
const MEASURED_GATE_MIN_RECORDS: usize = 10_000;

fn records_per_core() -> usize {
    env_or("STRING_ORAM_SHARD_ACCESSES", 25_000)
}

fn cfg_for(backend: BackendKind, shards: usize) -> SystemConfig {
    let mut cfg = SystemConfig::test_small(Scheme::All);
    cfg.backend = backend;
    cfg.shards = shards;
    // Measurement configuration: no conformance tracing on the hot path.
    cfg.verify = VerifyConfig::off();
    cfg
}

fn build(backend: BackendKind, shards: usize, records: usize) -> ShardedSimulation {
    let cfg = cfg_for(backend, shards);
    let traces = traces_for(&cfg, WORKLOAD, records, TRACE_SEED);
    ShardedSimulation::new(cfg, traces)
}

struct Point {
    shards: usize,
    report: SimReport,
    digest: u64,
    /// Wall-clock of constructing the threaded engine (trace generation
    /// excluded; shard construction itself is parallel for `N > 1`).
    setup: Duration,
    /// Wall-clock of the threaded run, setup excluded.
    run: Duration,
    shard_walls: Vec<Duration>,
}

fn measure(backend: BackendKind, shards: usize, records: usize) -> Point {
    // Trace synthesis is workload input, not engine cost: keep it outside
    // the setup timer.
    let cfg = cfg_for(backend, shards);
    let traces = traces_for(&cfg, WORKLOAD, records, TRACE_SEED);

    // Setup phase: parallel shard construction.
    let t = Instant::now();
    let mut threaded = ShardedSimulation::new(cfg, traces);
    let setup = t.elapsed();

    // Run phase: the real threaded run.
    let start = Instant::now();
    let report = threaded.run(u64::MAX).expect("threaded run completes");
    let run = start.elapsed();

    // Each shard in isolation, for the projected parallel makespan.
    let mut serial = build(backend, shards, records);
    let shard_walls: Vec<Duration> = serial
        .shards_mut()
        .iter_mut()
        .map(|shard| {
            let t = Instant::now();
            shard.run(u64::MAX).expect("isolated shard completes");
            t.elapsed()
        })
        .collect();
    assert_eq!(
        serial.merged_digest(),
        threaded.merged_digest(),
        "serial and threaded runs must merge to the same digest"
    );

    Point {
        shards,
        report,
        digest: threaded.merged_digest(),
        setup,
        run,
        shard_walls,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn point_json(p: &Point, records: usize, cores: usize, baseline_run: Duration) -> Value {
    let accesses = (records * cores) as f64;
    let projected = p.shard_walls.iter().max().copied().unwrap_or_default();
    Value::object(vec![
        ("shards", p.shards.into()),
        ("oram_accesses", p.report.oram_accesses.into()),
        ("merged_digest", hex_digest(p.digest).into()),
        ("total_cycles", p.report.total_cycles.into()),
        ("makespan_cycles", p.report.makespan_cycles.into()),
        ("setup_wall_ms", finite(ms(p.setup))),
        ("run_wall_ms", finite(ms(p.run))),
        // Historical alias of run_wall_ms (setup was never inside this
        // timer); kept so older consumers of the trajectory still parse.
        ("measured_wall_ms", finite(ms(p.run))),
        (
            "measured_speedup_vs_n1",
            finite(baseline_run.as_secs_f64() / p.run.as_secs_f64()),
        ),
        (
            "measured_accesses_per_sec",
            finite(accesses / p.run.as_secs_f64()),
        ),
        (
            "shard_wall_ms",
            Value::Array(p.shard_walls.iter().map(|w| finite(ms(*w))).collect()),
        ),
        ("projected_parallel_ms", finite(ms(projected))),
        (
            "projected_accesses_per_sec",
            finite(accesses / projected.as_secs_f64()),
        ),
    ])
}

fn main() {
    let records = records_per_core();
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let cores = cfg_for(BackendKind::FastFunctional, 1).cores;
    println!("# shard_scaling: {records} records/core x {cores} cores, ALL scheme, host_parallelism={host}");

    let mut backends = Vec::new();
    let mut functional_projected: Vec<(usize, f64)> = Vec::new();
    let mut functional_measured: Vec<(usize, f64)> = Vec::new();
    for (backend, name) in [
        (BackendKind::CycleAccurate, "cycle-accurate"),
        (BackendKind::FastFunctional, "fast-functional"),
    ] {
        println!("\n{name}");
        println!(
            "{:>7} {:>11} {:>11} {:>13} {:>9} {:>13} {:>13}",
            "shards", "setup ms", "run ms", "projected ms", "speedup", "meas acc/s", "proj acc/s"
        );
        let points: Vec<Point> = SHARD_COUNTS
            .iter()
            .map(|&shards| measure(backend, shards, records))
            .collect();
        let baseline_run = points[0].run;
        let mut json_points = Vec::new();
        for p in &points {
            let projected = p.shard_walls.iter().max().copied().unwrap_or_default();
            let accesses = p.report.oram_accesses as f64;
            let proj_rate = accesses / projected.as_secs_f64();
            let speedup = baseline_run.as_secs_f64() / p.run.as_secs_f64();
            println!(
                "{:>7} {:>11.3} {:>11.3} {:>13.3} {:>8.2}x {:>13.0} {:>13.0}",
                p.shards,
                ms(p.setup),
                ms(p.run),
                ms(projected),
                speedup,
                accesses / p.run.as_secs_f64(),
                proj_rate,
            );
            if backend == BackendKind::FastFunctional {
                functional_projected.push((p.shards, proj_rate));
                functional_measured.push((p.shards, speedup));
            }
            json_points.push(point_json(p, records, cores, baseline_run));
        }
        backends.push(Value::object(vec![
            ("backend", name.into()),
            ("points", Value::Array(json_points)),
        ]));
    }

    SHARD_SCALING.write(vec![
        ("host_parallelism", host.into()),
        ("workload", WORKLOAD.into()),
        ("scheme", "All".into()),
        ("records_per_core", records.into()),
        ("cores", cores.into()),
        (
            "master_seed",
            cfg_for(BackendKind::FastFunctional, 1).seed.into(),
        ),
        ("backends", Value::Array(backends)),
    ]);

    // Scaling acceptance, projected: with 4 shards the functional engine's
    // projected throughput (the slowest shard's isolated wall) must be at
    // least 2x the 1-shard run — this holds even on a one-core container.
    let rate = |n: usize| {
        functional_projected
            .iter()
            .find(|(s, _)| *s == n)
            .map(|(_, r)| *r)
            .expect("rate recorded")
    };
    let speedup = rate(4) / rate(1);
    println!("functional projected speedup at 4 shards: {speedup:.2}x (bound: >= 2.00x)");
    if speedup < 2.0 {
        println!("FAIL: projected speedup only {speedup:.2}x");
        std::process::exit(1);
    }
    println!("PASS: 4-shard projected throughput >= 2x single-shard");

    // Scaling acceptance, measured: at full trace sizes the *measured*
    // run-phase wall at 4 shards must beat the 1-shard run by 2.5x. This
    // holds even core-starved, because sharding shrinks per-shard trees
    // (shallower paths, smaller position maps) — the work itself drops.
    let measured = functional_measured
        .iter()
        .find(|(s, _)| *s == 4)
        .map(|(_, r)| *r)
        .expect("measured speedup recorded");
    if records >= MEASURED_GATE_MIN_RECORDS {
        println!("functional measured speedup at 4 shards: {measured:.2}x (bound: >= 2.50x)");
        if measured < 2.5 {
            println!("FAIL: measured run-phase speedup only {measured:.2}x");
            std::process::exit(1);
        }
        println!("PASS: 4-shard measured run-phase wall >= 2.5x faster than single-shard");
    } else {
        println!(
            "note: measured speedup {measured:.2}x at {records} records/core — gate skipped \
             below {MEASURED_GATE_MIN_RECORDS} records/core (overhead-dominated)"
        );
    }
}
