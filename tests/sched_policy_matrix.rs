//! Scheduler-policy differential matrix: every command-scheduling policy
//! in `mem-sched`'s policy lab must run end-to-end through the pipeline
//! with zero conformance violations, and — except for the explicitly
//! insecure unconstrained ablation, which is not in this matrix — preserve
//! the **observable transaction-ordered data-command sequence**.
//!
//! Three layers of evidence:
//!
//! * **Golden pins** — the ORAM access sequence is planned above the
//!   memory layer, so every policy produces the same unsharded and
//!   four-shard access digests the protocol and shard differentials pin.
//!   A policy that moved them would be perturbing the protocol, not the
//!   command schedule.
//! * **Canonical data-command digests** — the [`sim_verify::PolicyAuditor`]
//!   riding on each run's command stream folds the per-transaction sorted
//!   RD/WR multiset into one digest. All policies must agree with the
//!   baseline, across both memory backends: intra-transaction reordering
//!   (read-over-write's whole point) is invisible, cross-transaction
//!   leakage is not.
//! * **Controller-direct pairwise differential** — a synthetic multi-
//!   transaction workload driven straight through `MemoryController`, with
//!   the grouped-and-sorted data-command sequence compared pairwise
//!   against the FR-FCFS baseline, plus repeat-run determinism.

use dram_sim::geometry::DramGeometry;
use dram_sim::timing::TimingParams;
use dram_sim::{AddressMapping, DramModule};
use mem_sched::{MemoryController, RequestSpec, SchedulerPolicy, TxnId};
use sim_verify::oracle::{data_commands, grouped_by_txn};
use sim_verify::PolicyAuditor;
use string_oram::{BackendKind, Scheme, ShardedSimulation, Simulation, SystemConfig};
use trace_synth::{by_name, TraceGenerator, TraceRecord};

/// The canonical run's access digests (`test_small`, ALL scheme, one core,
/// workload `black`, trace seed 11, 200 records) — the same constants
/// `protocol_matrix` and `shard_differential` pin for Ring+CB.
const UNSHARDED_GOLDEN: u64 = 0x8FEF_A689_12F2_C2F5;
const FOUR_SHARD_GOLDEN: u64 = 0xE0A9_729E_66A7_C001;

/// Every order-preserving policy in the lab, baseline first; Proactive Bank
/// at the paper's lookahead and four transactions deep.
const POLICIES: [SchedulerPolicy; 5] = [
    SchedulerPolicy::TransactionBased,
    SchedulerPolicy::ProactiveBank { lookahead: 1 },
    SchedulerPolicy::ReadOverWrite { drain_bound: 8 },
    SchedulerPolicy::ProactiveBank { lookahead: 4 },
    SchedulerPolicy::FixedCadence { period: 2 },
];

fn canonical_cfg(policy: SchedulerPolicy, shards: usize, backend: BackendKind) -> SystemConfig {
    let mut cfg = SystemConfig::test_small(Scheme::All);
    cfg.sched_policy = policy;
    cfg.cores = 1;
    cfg.shards = shards;
    cfg.backend = backend;
    cfg
}

fn canonical_trace() -> Vec<Vec<TraceRecord>> {
    vec![TraceGenerator::new(by_name("black").unwrap(), 11, 0).take_records(200)]
}

fn run_unsharded(policy: SchedulerPolicy, backend: BackendKind) -> Simulation {
    let mut sim = Simulation::new(canonical_cfg(policy, 1, backend), canonical_trace());
    sim.set_label(format!("policy-{}", policy.name()));
    sim.run(50_000_000).expect("unsharded run completes");
    sim
}

/// Unsharded pins and the system-level equivalence proof: every policy
/// reproduces the golden access digest with zero violations, reports its
/// own name, and — across both backends — the policy auditor's canonical
/// data-command digest matches the transaction-based baseline's.
#[test]
fn every_policy_holds_the_golden_digest_and_canonical_sequence() {
    let mut canonical: Option<u64> = None;
    for policy in POLICIES {
        for backend in [BackendKind::CycleAccurate, BackendKind::FastFunctional] {
            let sim = run_unsharded(policy, backend);
            let report = sim.report();
            assert_eq!(
                sim.access_digest(),
                UNSHARDED_GOLDEN,
                "{}/{backend:?}: access digest moved off the golden value: 0x{:016X}",
                policy.name(),
                sim.access_digest()
            );
            assert!(
                report.violations.is_empty(),
                "{}/{backend:?}: conformance violations: {:?}",
                policy.name(),
                report.violations
            );
            assert_eq!(report.policy_name, policy.name(), "{backend:?}");

            let auditor = sim.policy_auditor().expect("test_small enables checking");
            assert_eq!(auditor.policy_name(), policy.name());
            assert!(
                auditor.is_clean(),
                "{}: auditor found leakage",
                policy.name()
            );
            assert!(auditor.data_commands() > 0);
            let digest = auditor.canonical_digest();
            match canonical {
                None => canonical = Some(digest),
                Some(expect) => assert_eq!(
                    digest,
                    expect,
                    "{}/{backend:?}: canonical data-command digest diverges from \
                     the baseline — the policy changed the observable sequence",
                    policy.name()
                ),
            }
        }
    }
}

/// Four-shard pins: the sharded engine agrees with the golden merged
/// digest under every policy, conformance-clean.
#[test]
fn every_policy_holds_the_four_shard_golden_digest() {
    for policy in POLICIES {
        let mut sim = ShardedSimulation::new(
            canonical_cfg(policy, 4, BackendKind::CycleAccurate),
            canonical_trace(),
        );
        sim.set_label(format!("policy-{}-4", policy.name()));
        sim.run(50_000_000).expect("sharded run completes");
        assert_eq!(
            sim.merged_digest(),
            FOUR_SHARD_GOLDEN,
            "{}: four-shard merged digest moved off the golden value: 0x{:016X}",
            policy.name(),
            sim.merged_digest()
        );
        let report = sim.report();
        assert!(
            report.violations.is_empty(),
            "{}: sharded violations: {:?}",
            policy.name(),
            report.violations
        );
        assert_eq!(report.policy_name, policy.name());
    }
}

/// Proactive Bank at both depths actually uses its lookahead on the canonical
/// run (early PRE/ACT fractions are positive), the baseline never does,
/// and fixed-cadence actually withholds issue slots — so the matrix above
/// is comparing genuinely different schedulers.
#[test]
fn policies_are_behaviorally_distinct_on_the_canonical_run() {
    for policy in POLICIES {
        let report = run_unsharded(policy, BackendKind::CycleAccurate).report();
        let early = report.early_precharge_fraction + report.early_activate_fraction;
        match policy {
            SchedulerPolicy::ProactiveBank { .. } => {
                assert!(early > 0.0, "{} never issued early prep", policy.name());
            }
            _ => assert_eq!(early, 0.0, "{} issued early prep", policy.name()),
        }
        match policy {
            SchedulerPolicy::FixedCadence { .. } => assert!(
                report.withheld_issue_slots > 0,
                "fixed-cadence never withheld a slot"
            ),
            _ => assert_eq!(report.withheld_issue_slots, 0, "{}", policy.name()),
        }
        if matches!(policy, SchedulerPolicy::ReadOverWrite { .. }) {
            // The ORAM workload interleaves reads and writes heavily, so
            // read priority must defer at least one write.
            assert!(report.deferred_writes > 0, "read-over-write never deferred");
        }
    }
}

/// A deterministic synthetic workload: `txns` transactions of mixed
/// reads/writes over both channels, with intra-transaction row sharing
/// (hit opportunities) and cross-transaction bank conflicts (what the
/// proactive pass exploits).
fn synthetic_requests(txns: u64) -> Vec<RequestSpec> {
    let geometry = DramGeometry::test_small();
    let mapping = AddressMapping::hpca_default(&geometry);
    let mut state = 0x5EED_CAFE_F00D_0001u64;
    let mut next = |m: u64| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % m
    };
    let mut reqs = Vec::new();
    for t in 0..txns {
        let shared_row = next(64);
        for i in 0..4 {
            let loc = dram_sim::DramLocation {
                channel: (next(2)) as u32,
                rank: 0,
                bank: (next(4)) as u32,
                row: if i < 2 { shared_row } else { next(64) },
                column: next(8) as u32,
            };
            reqs.push(RequestSpec {
                addr: mapping.encode(&loc),
                is_write: next(3) == 0,
                txn: TxnId(t),
            });
        }
    }
    reqs
}

/// Drives the synthetic workload through a controller under `policy` and
/// returns the recorded command events.
fn drive(policy: SchedulerPolicy) -> Vec<mem_sched::CommandEvent> {
    let geometry = DramGeometry::test_small();
    let mapping = AddressMapping::hpca_default(&geometry);
    let dram = DramModule::new(geometry, TimingParams::test_fast());
    let mut ctrl = MemoryController::new(dram, mapping, policy, 64);
    ctrl.enable_command_trace();
    for req in synthetic_requests(12) {
        ctrl.try_enqueue(req, 0).unwrap();
    }
    let mut cycle = 0;
    while ctrl.pending() > 0 {
        ctrl.tick(cycle);
        ctrl.drain_completed();
        cycle += 1;
        assert!(cycle < 200_000, "{}: scheduler wedged", policy.name());
    }
    ctrl.take_command_events()
}

/// Controller-direct pairwise differential: under every policy the
/// grouped-by-transaction, operation-sorted data-command sequence is
/// literally identical to the FR-FCFS baseline's, and the policy auditor
/// agrees (clean, equal canonical digests).
#[test]
fn controller_level_data_sequences_match_the_baseline_pairwise() {
    let canonical_of = |events: &[mem_sched::CommandEvent]| {
        grouped_by_txn(&data_commands(events))
            .into_iter()
            .map(|(txn, mut group)| {
                group.sort_unstable_by_key(|c| c.operation_key());
                (
                    txn,
                    group
                        .into_iter()
                        .map(|c| c.operation_key())
                        .collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>()
    };

    let baseline_events = drive(POLICIES[0]);
    let baseline = canonical_of(&baseline_events);
    assert!(!baseline.is_empty());
    for policy in &POLICIES[1..] {
        let events = drive(*policy);
        let mut auditor = PolicyAuditor::new(policy.name());
        for ev in &events {
            auditor.observe(ev);
        }
        assert!(
            auditor.is_clean(),
            "{}: cross-transaction leakage",
            policy.name()
        );
        let candidate = canonical_of(&events);
        assert_eq!(
            candidate,
            baseline,
            "{}: transaction-ordered data-command sequence diverges from fr-fcfs",
            policy.name()
        );
    }
}

/// Repeat runs are bit-deterministic for every policy: same events, same
/// canonical digest, and at the system level the same cycle count.
#[test]
fn repeat_runs_are_deterministic() {
    for policy in POLICIES {
        let a = drive(policy);
        let b = drive(policy);
        assert_eq!(
            a,
            b,
            "{}: controller events differ across runs",
            policy.name()
        );
    }
    for policy in [
        SchedulerPolicy::ReadOverWrite { drain_bound: 8 },
        SchedulerPolicy::FixedCadence { period: 2 },
    ] {
        let x = run_unsharded(policy, BackendKind::CycleAccurate);
        let y = run_unsharded(policy, BackendKind::CycleAccurate);
        assert_eq!(x.cycles(), y.cycles(), "{}", policy.name());
        assert_eq!(
            x.policy_auditor().unwrap().canonical_digest(),
            y.policy_auditor().unwrap().canonical_digest()
        );
    }
}
