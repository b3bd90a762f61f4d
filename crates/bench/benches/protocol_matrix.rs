//! Cross-protocol arena: throughput and latency of every protocol the
//! pipeline hosts (Ring+CB, plain Ring, Path, Circuit) over both memory
//! backends, recorded to `BENCH_protocol_matrix.json` at the repo root
//! (format: `schema::PROTOCOL_MATRIX`; the committed copy is re-validated by
//! the bench lib's tests and the CI smoke step).
//!
//! One simulated core keeps the access order a pure function of the trace,
//! so each protocol's access digest must agree across backends — the
//! emitted document carries the digests and the `PROTOCOL_MATRIX` schema
//! enforces the equality, making every regeneration of this file a
//! differential run, not just a measurement.
//!
//! The numbers quantify what the paper's §II background argues: Path
//! ORAM's full-path read+write traffic costs multiples of Ring ORAM's
//! selective reads, Circuit ORAM trades Path's bandwidth for deterministic
//! two-pass evictions, and the Compact Bucket layout rides on Ring at no
//! protocol-level cost (its wins are in the DRAM row behavior).
//!
//! `STRING_ORAM_MATRIX_ACCESSES` scales the per-core trace (default 2000);
//! `STRING_ORAM_BENCH_JSON` overrides the output path (CI smoke writes to
//! a scratch file instead of the committed matrix).

use std::time::Instant;

use string_oram::{
    BackendKind, ProtocolKind, Scheme, SimReport, Simulation, SystemConfig, VerifyConfig,
};
use string_oram_bench::json::Value;
use string_oram_bench::schema::{finite, hex_digest, PROTOCOL_MATRIX};
use string_oram_bench::{env_or, traces_for};

const WORKLOAD: &str = "black";
const TRACE_SEED: u64 = 11;

fn records_per_core() -> usize {
    env_or("STRING_ORAM_MATRIX_ACCESSES", 2000)
}

fn cfg_for(protocol: ProtocolKind, backend: BackendKind) -> SystemConfig {
    let mut cfg = SystemConfig::test_small(Scheme::All);
    cfg.protocol = protocol;
    cfg.backend = backend;
    // One core: the access sequence is then a pure function of the trace,
    // so the digest must agree across backends (multi-core interleaving
    // legitimately depends on per-core stall times).
    cfg.cores = 1;
    // Measurement configuration: no conformance tracing on the hot path.
    cfg.verify = VerifyConfig::off();
    cfg
}

struct Point {
    protocol: ProtocolKind,
    backend_name: &'static str,
    report: SimReport,
    digest: u64,
    wall_s: f64,
}

fn measure(protocol: ProtocolKind, backend: BackendKind, name: &'static str) -> Point {
    let cfg = cfg_for(protocol, backend);
    let traces = traces_for(&cfg, WORKLOAD, records_per_core(), TRACE_SEED);
    let mut sim = Simulation::new(cfg, traces);
    sim.set_label(format!("matrix/{protocol}/{name}"));
    let t = Instant::now();
    let report = sim.run(u64::MAX).expect("matrix run completes");
    Point {
        protocol,
        backend_name: name,
        report,
        digest: sim.access_digest(),
        wall_s: t.elapsed().as_secs_f64(),
    }
}

fn point_json(p: &Point) -> Value {
    let accesses = p.report.oram_accesses;
    Value::object(vec![
        ("protocol", p.protocol.label().into()),
        ("backend", p.backend_name.into()),
        ("oram_accesses", accesses.into()),
        ("run_wall_ms", finite(p.wall_s * 1e3)),
        ("accesses_per_sec", finite(accesses as f64 / p.wall_s)),
        (
            "mean_latency_cycles",
            finite(p.report.total_cycles as f64 / accesses as f64),
        ),
        ("p99_latency_cycles", p.report.read_latency.p99.into()),
        ("digest", hex_digest(p.digest).into()),
    ])
}

fn main() {
    let records = records_per_core();
    println!("# protocol_matrix: {records} records, 1 core, ALL scheme, workload {WORKLOAD}");
    println!(
        "{:>9} {:>16} {:>9} {:>11} {:>11} {:>9} {:>19}",
        "protocol", "backend", "wall ms", "acc/s", "mean cyc", "p99 cyc", "digest"
    );

    let mut points = Vec::new();
    for protocol in ProtocolKind::ALL {
        for (backend, name) in [
            (BackendKind::CycleAccurate, "cycle-accurate"),
            (BackendKind::FastFunctional, "fast-functional"),
        ] {
            let p = measure(protocol, backend, name);
            println!(
                "{:>9} {:>16} {:>9.1} {:>11.0} {:>11.1} {:>9} {:>19}",
                p.protocol.label(),
                p.backend_name,
                p.wall_s * 1e3,
                p.report.oram_accesses as f64 / p.wall_s,
                p.report.total_cycles as f64 / p.report.oram_accesses as f64,
                p.report.read_latency.p99,
                hex_digest(p.digest),
            );
            points.push(point_json(&p));
        }
    }

    // Aborts unless each protocol's digest agrees across the two backends.
    PROTOCOL_MATRIX.write(vec![
        ("workload", WORKLOAD.into()),
        ("scheme", "All".into()),
        ("records_per_core", records.into()),
        ("cores", 1usize.into()),
        (
            "master_seed",
            cfg_for(ProtocolKind::RingCb, BackendKind::FastFunctional)
                .seed
                .into(),
        ),
        ("points", Value::Array(points)),
    ]);
}
