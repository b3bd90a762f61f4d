//! Backend speed probe: the fast functional backend must complete a
//! 50 k-access single-core trace in at most 1/5 the wall-clock of the
//! cycle-accurate backend (the refactor's acceptance bound).
//!
//! Self-timed like the other harnesses. Prints both wall-clocks, the
//! ratio, the per-backend simulated cycle counts, and a PASS/FAIL line
//! for the bound. `STRING_ORAM_SPEED_ACCESSES` scales the trace (default
//! 50 000 accesses).

use std::time::{Duration, Instant};

use string_oram::{BackendKind, Scheme, Simulation, SystemConfig};
use trace_synth::{by_name, TraceGenerator};

fn accesses() -> usize {
    string_oram_bench::env_or("STRING_ORAM_SPEED_ACCESSES", 50_000)
}

fn run(backend: BackendKind, records: usize) -> (Duration, u64, u64) {
    let mut cfg = SystemConfig::test_small(Scheme::All);
    cfg.cores = 1;
    cfg.backend = backend;
    // Measurement configuration: no tracing/checking overhead on either
    // side, as in the paper's evaluation runs.
    cfg.verify = string_oram::VerifyConfig::off();
    let traces = vec![TraceGenerator::new(by_name("black").unwrap(), 11, 0).take_records(records)];
    let mut sim = Simulation::new(cfg, traces);
    let start = Instant::now();
    let report = sim.run(u64::MAX).expect("completes");
    (start.elapsed(), report.total_cycles, sim.access_digest())
}

fn main() {
    let n = accesses();
    println!("# backend_speed: {n}-access single-core trace, ALL scheme");
    let (t_slow, cycles_slow, digest_slow) = run(BackendKind::CycleAccurate, n);
    let (t_fast, cycles_fast, digest_fast) = run(BackendKind::FastFunctional, n);
    let ratio = t_fast.as_secs_f64() / t_slow.as_secs_f64();
    println!(
        "cycle-accurate : {:>10.3} ms  ({cycles_slow} simulated cycles)",
        t_slow.as_secs_f64() * 1e3
    );
    println!(
        "fast-functional: {:>10.3} ms  ({cycles_fast} simulated cycles)",
        t_fast.as_secs_f64() * 1e3
    );
    println!("wall-clock ratio (fast/cycle-accurate): {ratio:.3} (bound: <= 0.200)");
    assert_eq!(
        digest_slow, digest_fast,
        "backends diverged on the access sequence"
    );
    println!("access digests agree: {digest_fast:#018x}");
    if ratio <= 0.2 {
        println!("PASS: functional backend is >= 5x faster");
    } else {
        println!(
            "FAIL: functional backend is only {:.1}x faster",
            1.0 / ratio
        );
        std::process::exit(1);
    }
}
