//! End-to-end conformance: every scheme, run with the `sim-verify` checkers
//! enabled, must produce zero violations — and deliberately broken machines
//! must be *caught*. The negative tests are the evidence that the passive
//! checkers actually constrain anything.

use std::collections::VecDeque;

use dram_sim::geometry::DramGeometry;
use dram_sim::timing::TimingParams;
use dram_sim::{AddressMapping, CommandKind, DramLocation, DramModule};
use mem_sched::{MemoryController, RequestSpec, SchedulerPolicy, TxnId};
use oram_rng::{Rng, StdRng};
use sim_verify::ShadowTimingChecker;
use string_oram::{Scheme, Simulation, SystemConfig};
use trace_synth::{by_name, TraceGenerator, TraceRecord};

const WORKLOADS: [&str; 3] = ["stream", "libq", "black"];
const SEEDS: [u64; 3] = [11, 23, 47];

fn traces_for(
    cfg: &SystemConfig,
    workload: &str,
    seed: u64,
    records: usize,
) -> Vec<Vec<TraceRecord>> {
    (0..cfg.cores)
        .map(|c| {
            TraceGenerator::new(by_name(workload).expect("known workload"), seed, c as u32)
                .take_records(records)
        })
        .collect()
}

fn run_checked(scheme: Scheme, workload: &str, seed: u64) -> string_oram::SimReport {
    // test_small presets ship with the shadow timing checker, the txn-order
    // oracle and the ORAM auditor all enabled.
    let cfg = SystemConfig::test_small(scheme);
    assert!(cfg.verify.enabled);
    let traces = traces_for(&cfg, workload, seed, 60);
    let mut sim = Simulation::new(cfg, traces);
    sim.set_label(format!("{workload}-{scheme:?}-{seed}"));
    sim.run(50_000_000).expect("completes")
}

/// Every scheme, on every workload and seed, passes every independent
/// check: JEDEC timing, transaction ordering, and ORAM protocol invariants.
#[test]
fn checked_simulations_are_violation_free() {
    for scheme in [Scheme::Baseline, Scheme::Cb, Scheme::Pb, Scheme::All] {
        for workload in WORKLOADS {
            for seed in SEEDS {
                let r = run_checked(scheme, workload, seed);
                assert!(
                    r.violations.is_empty(),
                    "{}: {} violations, first: {}",
                    r.label,
                    r.violations.len(),
                    r.violations[0]
                );
                assert!(r.oram_accesses > 0);
            }
        }
    }
}

/// System-level differential: PB performs exactly the same *program* work
/// as the transaction-based baseline (same ORAM accesses, same program
/// read-path transactions), violation-free, and never slower. Dummy read
/// paths and the evictions/reshuffles they trigger are timing-dependent
/// (background eviction fills idle slots), so totals over those kinds may
/// legitimately differ between schedulers.
#[test]
fn pb_matches_baseline_work_end_to_end() {
    for workload in WORKLOADS {
        for seed in SEEDS {
            let base = run_checked(Scheme::Baseline, workload, seed);
            let pb = run_checked(Scheme::Pb, workload, seed);
            assert!(base.violations.is_empty() && pb.violations.is_empty());
            assert_eq!(pb.oram_accesses, base.oram_accesses, "{workload}/{seed}");
            assert_eq!(
                pb.transactions_by_kind.get("read"),
                base.transactions_by_kind.get("read"),
                "{workload}/{seed}"
            );
            assert!(
                pb.total_cycles <= base.total_cycles,
                "{workload}/{seed}: PB {} cycles > baseline {}",
                pb.total_cycles,
                base.total_cycles
            );
        }
    }
}

/// Builds a legal command trace straight from the memory controller.
fn legal_trace(seed: u64) -> Vec<(u64, dram_sim::DramCommand)> {
    let geometry = DramGeometry::test_small();
    let mapping = AddressMapping::hpca_default(&geometry);
    let dram = DramModule::new(geometry, TimingParams::test_fast());
    let mut ctrl =
        MemoryController::new(dram, mapping.clone(), SchedulerPolicy::TransactionBased, 64);
    ctrl.enable_command_trace();
    let mut rng = StdRng::seed_from_u64(seed);
    let geometry = DramGeometry::test_small();
    let mut reqs: Vec<(u64, DramLocation, bool)> = (0..48)
        .map(|_| {
            let loc = DramLocation {
                channel: rng.gen_range(0..geometry.channels),
                rank: 0,
                bank: rng.gen_range(0..geometry.banks_per_rank),
                row: rng.gen_range(0..geometry.rows_per_bank),
                column: rng.gen_range(0..geometry.columns_per_row),
            };
            (rng.gen_range(0u64..8), loc, rng.gen_bool(0.4))
        })
        .collect();
    reqs.sort_by_key(|r| r.0);
    let mut pending: VecDeque<RequestSpec> = reqs
        .iter()
        .map(|&(txn, loc, is_write)| RequestSpec {
            addr: mapping.encode(&loc),
            is_write,
            txn: TxnId(txn),
        })
        .collect();
    let mut cycle = 0;
    while !pending.is_empty() || ctrl.pending() > 0 {
        while let Some(&spec) = pending.front() {
            if ctrl.try_enqueue(spec, cycle).is_ok() {
                pending.pop_front();
            } else {
                break;
            }
        }
        ctrl.tick(cycle);
        ctrl.drain_completed();
        cycle += 1;
        assert!(cycle < 1_000_000, "controller wedged");
    }
    let events = ctrl.take_command_events();
    events.into_iter().map(|e| (e.cycle, e.cmd)).collect()
}

/// The shadow checker accepts the real controller's trace, and catches a
/// deliberately injected reordering bug: swapping a (ACT, column-command)
/// pair on the same bank makes the column command run against a bank state
/// it was never legal for.
#[test]
fn shadow_checker_catches_injected_reordering() {
    let geometry = DramGeometry::test_small();
    let timing = TimingParams::test_fast();
    for seed in SEEDS {
        let trace = legal_trace(seed);
        let mut clean = ShadowTimingChecker::new(geometry.clone(), timing.clone());
        assert!(
            clean.check_trace(&trace).is_empty(),
            "seed {seed}: legal trace must be accepted"
        );

        // Inject the bug: find an ACT immediately answered by a RD/WR on
        // the same bank and swap the two commands' positions in time — the
        // classic "scheduler issued the column command before its row was
        // open" reordering defect.
        let mut broken = trace.clone();
        let idx = broken
            .windows(2)
            .position(|w| {
                w[0].1.kind == CommandKind::Activate
                    && w[1].1.kind.carries_data()
                    && w[0].1.loc.channel == w[1].1.loc.channel
                    && w[0].1.loc.bank == w[1].1.loc.bank
            })
            .expect("trace contains an ACT->column pair");
        let (c0, c1) = (broken[idx].0, broken[idx + 1].0);
        broken[idx].0 = c1;
        broken[idx + 1].0 = c0;
        broken.swap(idx, idx + 1);

        let mut checker = ShadowTimingChecker::new(geometry.clone(), timing.clone());
        let violations = checker.check_trace(&broken);
        assert!(
            !violations.is_empty(),
            "seed {seed}: injected reordering went undetected"
        );
    }
}

/// An insecure scheduler that ignores the transaction barrier must trip the
/// transaction-order oracle, and `fail_fast` must turn that into a panic.
#[test]
#[should_panic(expected = "conformance violation")]
fn unconstrained_scheduler_trips_fail_fast() {
    let mut cfg = SystemConfig::test_small(Scheme::Baseline);
    cfg.sched_policy = SchedulerPolicy::Unconstrained;
    cfg.verify.fail_fast = true;
    cfg.validate().expect("config is structurally valid");
    let traces = traces_for(&cfg, "libq", 7, 80);
    let mut sim = Simulation::new(cfg, traces);
    let _ = sim.run(50_000_000);
}
