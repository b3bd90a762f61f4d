//! Stage-order regression tests: pin today's `Simulation::step` semantics.
//!
//! The staged pipeline (plan → enqueue → schedule → retire → attribute)
//! must execute its stages in exactly the pre-refactor order — a swapped
//! or merged stage changes cycle counts, attribution, or wake-up timing.
//! These golden values were captured from the monolithic `step()` before
//! the pipeline split; any drift means the refactor (or a later change)
//! altered simulated behavior, not just structure.

use string_oram::pipeline::PipelineCore;
use string_oram::{
    BackendKind, LayoutKind, ProtocolKind, Scheme, SimReport, Simulation, SystemConfig,
};
use trace_synth::{by_name, TraceGenerator};

fn run(scheme: Scheme) -> SimReport {
    let cfg = SystemConfig::test_small(scheme);
    let traces = (0..cfg.cores)
        .map(|c| TraceGenerator::new(by_name("black").unwrap(), 11, c as u32).take_records(150))
        .collect();
    let mut sim = Simulation::new(cfg, traces);
    sim.run(50_000_000).expect("run completes")
}

#[test]
fn baseline_step_semantics_are_pinned() {
    let r = run(Scheme::Baseline);
    assert_eq!(r.total_cycles, 18114);
    assert_eq!(r.instructions, 64671);
    assert_eq!(r.oram_accesses, 300);
    assert_eq!(r.requests_completed, 13500);
    assert_eq!(r.cycles_by_kind.read, 6134);
    assert_eq!(r.cycles_by_kind.evict, 11175);
    assert_eq!(r.cycles_by_kind.reshuffle, 174);
    assert_eq!(r.cycles_by_kind.other, 631);
    assert_eq!(r.transactions_by_kind["read"], 300);
    assert_eq!(r.transactions_by_kind["evict"], 37);
    assert_eq!(r.transactions_by_kind["reshuffle"], 5);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

#[test]
fn all_scheme_step_semantics_are_pinned() {
    let r = run(Scheme::All);
    assert_eq!(r.total_cycles, 13701);
    assert_eq!(r.instructions, 64671);
    assert_eq!(r.oram_accesses, 300);
    assert_eq!(r.requests_completed, 10440);
    assert_eq!(r.cycles_by_kind.read, 5004);
    assert_eq!(r.cycles_by_kind.evict, 7987);
    assert_eq!(r.cycles_by_kind.reshuffle, 44);
    assert_eq!(r.cycles_by_kind.other, 666);
    assert_eq!(r.transactions_by_kind["read"], 300);
    assert_eq!(r.transactions_by_kind["evict"], 37);
    assert_eq!(r.transactions_by_kind["reshuffle"], 2);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

/// The Naive-layout row of the layout table, end to end: the digest covers
/// every lowered address, the cycle count what the DRAM made of them.
/// Recorded while the layout was still a trait with two implementors.
#[test]
fn naive_layout_run_is_pinned() {
    for (backend, digest, cycles) in [
        (
            BackendKind::CycleAccurate,
            0x0864_4D5A_8DBB_6DAD_u64,
            15_526_u64,
        ),
        (BackendKind::FastFunctional, 0x4018_6BC5_328F_3824, 12_767),
    ] {
        let mut cfg = SystemConfig::test_small(Scheme::All);
        cfg.layout = LayoutKind::Naive;
        cfg.backend = backend;
        let traces = (0..cfg.cores)
            .map(|c| TraceGenerator::new(by_name("black").unwrap(), 11, c as u32).take_records(150))
            .collect();
        let mut sim = Simulation::new(cfg, traces);
        let r = sim.run(50_000_000).expect("run completes");
        let got = sim.access_digest();
        assert_eq!(got, digest, "{backend:?}: 0x{got:016X}");
        assert_eq!(r.total_cycles, cycles, "{backend:?}");
        assert!(r.violations.is_empty(), "{backend:?}: {:?}", r.violations);
    }
}

/// A step is externally observable only through the cycle counter; pin
/// that `run` and manual stepping agree (no hidden work between steps).
#[test]
fn manual_stepping_matches_run() {
    let cfg = SystemConfig::test_small(Scheme::Baseline);
    let traces = (0..cfg.cores)
        .map(|c| TraceGenerator::new(by_name("black").unwrap(), 11, c as u32).take_records(40))
        .collect();
    let mut stepped = Simulation::new(cfg, traces);
    while !stepped.is_finished() {
        stepped.step();
    }
    let r_stepped = stepped.report();

    let cfg = SystemConfig::test_small(Scheme::Baseline);
    let traces = (0..cfg.cores)
        .map(|c| TraceGenerator::new(by_name("black").unwrap(), 11, c as u32).take_records(40))
        .collect();
    let mut ran = Simulation::new(cfg, traces);
    let r_run = ran.run(50_000_000).expect("completes");

    assert_eq!(r_stepped.total_cycles, r_run.total_cycles);
    assert_eq!(r_stepped.instructions, r_run.instructions);
    assert_eq!(r_stepped.requests_completed, r_run.requests_completed);
    assert_eq!(stepped.access_digest(), ran.access_digest());
}

/// The seam between the trace driver and the pipeline core: a bare
/// [`PipelineCore`] handed the `(tag, block, is_write)` sequence of a
/// one-core [`Simulation`], each access at the cycle the simulation
/// dispatched it, must be the same machine — digest, clock, every counter
/// and every latency sample. Whatever `Simulation::step` does beyond
/// dispatching and stepping its core would show up here.
#[test]
fn bare_core_replays_a_one_core_simulation() {
    for backend in [BackendKind::CycleAccurate, BackendKind::FastFunctional] {
        for protocol in [ProtocolKind::RingCb, ProtocolKind::Path] {
            let mut cfg = SystemConfig::test_small(Scheme::All);
            cfg.cores = 1;
            cfg.backend = backend;
            cfg.protocol = protocol;
            let trace = TraceGenerator::new(by_name("black").unwrap(), 11, 0).take_records(120);

            let mut sim = Simulation::new(cfg.clone(), vec![trace.clone()]);
            let mut bare = PipelineCore::build(&cfg).unwrap();
            let mut next = trace.iter();
            let mut wakes = Vec::new();
            while !sim.is_finished() {
                let before = sim.oram_accesses();
                sim.step();
                // The accesses the simulation planned in this step entered
                // its core before the core stepped; do the same.
                for _ in before..sim.oram_accesses() {
                    let rec = next.next().expect("one access per record");
                    bare.dispatch_real(0, rec.op.block, rec.op.is_write);
                }
                bare.step(&mut wakes);
            }
            assert!(
                next.next().is_none(),
                "{protocol}/{backend:?}: trace consumed"
            );
            assert!(bare.is_drained());

            let ctx = format!("{protocol}/{backend:?}");
            assert_eq!(bare.access_digest(), sim.access_digest(), "{ctx}");
            assert_eq!(bare.cycles(), sim.cycles(), "{ctx}");
            assert_eq!(
                bare.read_latency_samples(),
                sim.read_latency_samples(),
                "{ctx}"
            );
            let mut snapshot = sim.capture();
            assert!(snapshot.instructions > 0, "{ctx}: the cores retired work");
            snapshot.instructions = 0;
            assert_eq!(
                format!("{:?}", bare.capture()),
                format!("{snapshot:?}"),
                "{ctx}"
            );
            assert!(sim.violations().is_empty(), "{ctx}: {:?}", sim.violations());
            assert!(bare.violations().is_empty(), "{ctx}");
        }
    }
}
