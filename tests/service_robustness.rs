//! Robustness goldens for the `oram-service` front-end.
//!
//! Everything here is exact: the service runs on virtual time with seeded
//! arrival processes, so repeat runs must agree byte for byte, overload
//! storms must walk the governor through precisely the expected states,
//! and the fixed-rate submission envelope must be bit-identical across
//! different tenant loads (the timing-channel check).

use oram_service::{GovernorState, OramService, ServiceConfig, SubmissionPolicy, TenantSpec};
use string_oram::{ServiceSummary, SimReport};
use trace_synth::ArrivalSpec;

/// A ≥4× overload storm: two tenants whose combined arrival rate dwarfs
/// the configured submission rate, with deadlines short enough that deep
/// queues time requests out.
fn storm_cfg(policy: SubmissionPolicy) -> ServiceConfig {
    let mut cfg = ServiceConfig::test_small(
        vec![
            TenantSpec::new("alpha", ArrivalSpec::steady(24.0)),
            TenantSpec::new("beta", ArrivalSpec::bursty(12.0, 4.0)),
        ],
        12_000,
    );
    cfg.policy = policy;
    cfg.deadline_cycles = 3_000;
    cfg.retry_budget = 1;
    // Watermarks under which the storm can climb the whole ladder: the
    // degraded quota (0.9) still admits enough load for total fill to
    // cross shed_enter (0.8). (Under the defaults, quota 0.5 caps fill
    // below shed_enter 0.9 for slow ramps — Shedding then only triggers
    // on single-tick bursts.)
    cfg.governor.degrade_enter = 0.5;
    cfg.governor.degrade_exit = 0.25;
    cfg.governor.shed_enter = 0.8;
    cfg.governor.shed_exit = 0.4;
    cfg.governor.degraded_quota = 0.9;
    cfg
}

fn run(cfg: ServiceConfig) -> (SimReport, ServiceSummary, GovernorState) {
    let mut svc = OramService::new(cfg).expect("valid config");
    let report = svc.run().expect("terminates");
    let state = svc.governor_state();
    let summary = report.service.clone().expect("service summary attached");
    (report, summary, state)
}

/// Exact conservation laws every run must satisfy, per tenant: each
/// arrival resolves exactly once, each admitted request either completes
/// or times out, and the queue never outgrew its cap.
fn assert_conservation(cfg: &ServiceConfig, summary: &ServiceSummary) {
    for (spec, t) in cfg.tenants.iter().zip(&summary.tenants) {
        assert_eq!(
            t.resolved(),
            t.arrivals,
            "tenant {}: exactly once",
            t.tenant
        );
        assert_eq!(
            t.completed + t.timed_out,
            t.admitted,
            "tenant {}: admitted requests complete or time out",
            t.tenant
        );
        assert_eq!(
            t.rejected(),
            t.arrivals - t.admitted,
            "tenant {}: sheds account for every unadmitted arrival",
            t.tenant
        );
        assert!(
            t.queue_depth_high_water <= spec.queue_cap,
            "tenant {}: high water {} exceeds cap {}",
            t.tenant,
            t.queue_depth_high_water,
            spec.queue_cap
        );
    }
}

#[test]
fn repeat_runs_are_byte_identical() {
    let make = || run(storm_cfg(SubmissionPolicy::BestEffort { batch: 4 }));
    let (ra, sa, _) = make();
    let (rb, sb, _) = make();
    // The service summary derives PartialEq — compare it exactly,
    // including every tenant's p999.
    assert_eq!(sa, sb);
    for (a, b) in sa.tenants.iter().zip(&sb.tenants) {
        assert_eq!(a.latency.p999, b.latency.p999, "tenant {}", a.tenant);
    }
    // The full report (floats included) must render identically too.
    assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
}

#[test]
fn overload_storm_walks_the_governor_and_recovers_best_effort() {
    let cfg = storm_cfg(SubmissionPolicy::BestEffort { batch: 4 });
    let (report, summary, final_state) = run(cfg.clone());
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_conservation(&cfg, &summary);
    // The storm must push the governor all the way up...
    assert!(
        summary.governor.degraded_entries >= 1,
        "{:?}",
        summary.governor
    );
    assert!(summary.governor.shed_entries >= 1, "{:?}", summary.governor);
    // ...shed real load while there...
    let shed: u64 = summary.tenants.iter().map(|t| t.rejected_shed).sum();
    let throttled: u64 = summary.tenants.iter().map(|t| t.rejected_throttled).sum();
    assert!(shed > 0, "shedding state must refuse arrivals");
    assert!(throttled > 0, "degraded state must tighten quotas");
    // ...and the drain must bring it all the way back down.
    assert!(summary.governor.recoveries >= 1, "{:?}", summary.governor);
    assert_eq!(final_state, GovernorState::Healthy, "drain ends healthy");
    // Overload with short deadlines must exercise the timeout path.
    let timed_out: u64 = summary.tenants.iter().map(|t| t.timed_out).sum();
    assert!(timed_out > 0, "storm deadlines must expire");
}

#[test]
fn overload_storm_audits_cleanly_under_fixed_rate() {
    let cfg = storm_cfg(SubmissionPolicy::FixedRate {
        interval: 256,
        batch: 1,
    });
    let (report, summary, final_state) = run(cfg.clone());
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_conservation(&cfg, &summary);
    assert!(summary.governor.shed_entries >= 1, "{:?}", summary.governor);
    assert_eq!(final_state, GovernorState::Healthy);
    // The cadence never pauses while draining, so the slot count is at
    // least one batch per interval tick inside the horizon.
    let in_horizon_slots = 12_000u64.div_ceil(256);
    assert!(
        summary.real_accesses + summary.padding_accesses >= in_horizon_slots,
        "cadence must hold through the storm: {} + {} < {in_horizon_slots}",
        summary.real_accesses,
        summary.padding_accesses
    );
}

#[test]
fn fixed_rate_schedule_is_load_invariant() {
    // Two very different tenant populations — a trickle and a flood —
    // under the same fixed-rate policy and horizon. The submission
    // envelope (and hence its digest) must be bit-identical: request
    // timing cannot reach the schedule.
    let policy = SubmissionPolicy::FixedRate {
        interval: 128,
        batch: 2,
    };
    let mut light = ServiceConfig::test_small(
        vec![TenantSpec::new("trickle", ArrivalSpec::steady(0.5))],
        10_000,
    );
    light.policy = policy;
    let mut heavy = ServiceConfig::test_small(
        vec![
            TenantSpec::new("flood-a", ArrivalSpec::steady(30.0)),
            TenantSpec::new("flood-b", ArrivalSpec::bursty(10.0, 6.0)),
            TenantSpec::new("flood-c", ArrivalSpec::diurnal(20.0, 2_000, 0.8)),
        ],
        10_000,
    );
    heavy.policy = policy;
    heavy.deadline_cycles = 4_000;
    let (ra, sa, _) = run(light);
    let (rb, sb, _) = run(heavy);
    assert!(ra.violations.is_empty(), "{:?}", ra.violations);
    assert!(rb.violations.is_empty(), "{:?}", rb.violations);
    assert_eq!(
        sa.schedule_digest, sb.schedule_digest,
        "submission envelope must not depend on tenant load"
    );
    // Sanity: the loads really were different — the padding mix shifts
    // even though the envelope does not.
    assert!(sa.padding_accesses > sb.padding_accesses);
    assert!(sb.real_accesses > sa.real_accesses);
}

#[test]
fn expired_requests_never_retire_twice() {
    // Deadlines far below the engine's access latency: every dispatched
    // request times out (and burns its one retry) before its data comes
    // back, so the engine's completions all arrive late. None may resolve
    // a request a second time.
    let mut cfg = ServiceConfig::test_small(
        vec![TenantSpec::new("impatient", ArrivalSpec::steady(8.0))],
        8_000,
    );
    cfg.deadline_cycles = 50;
    cfg.retry_budget = 1;
    let (report, summary, _) = run(cfg.clone());
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_conservation(&cfg, &summary);
    let t = &summary.tenants[0];
    assert!(t.timed_out > 0, "50-cycle deadlines must expire");
    assert!(t.retries > 0, "the retry budget must be exercised");
    assert!(
        t.late_completions > 0,
        "engine completions after timeout must be counted, not re-retired"
    );
    // The work still happened: the engine dispatched real accesses even
    // though their requesters had given up.
    assert!(summary.real_accesses > 0);
}

/// A shard's banks are busy against that shard's own clock. The merged
/// report's bank idleness must therefore be the cycle-weighted mean of the
/// per-shard proportions — dividing every bank's busy time by the *summed*
/// clock would make the same work look ~N× idler on N shards.
#[test]
fn sharded_bank_idleness_is_the_cycle_weighted_shard_mean() {
    let busy_share = |shards: usize| {
        let mut cfg = ServiceConfig::test_small(
            vec![
                TenantSpec::new("alpha", ArrivalSpec::steady(13.0)),
                TenantSpec::new("beta", ArrivalSpec::steady(13.0)),
            ],
            8_000,
        );
        cfg.system.shards = shards;
        let mut svc = OramService::new(cfg).expect("valid config");
        let report = svc.run().expect("terminates");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let (weighted_idle, cycles) = svc
            .shards()
            .iter()
            .map(|shard| {
                let snap = shard.capture();
                let dram = snap.backend.dram.expect("cycle-accurate backend");
                let idle = dram.average_bank_idle_proportion(snap.cycle);
                (idle * snap.cycle as f64, snap.cycle)
            })
            .fold((0.0, 0), |(w, c), (wi, ci)| (w + wi, c + ci));
        let expected = weighted_idle / cycles as f64;
        assert!(
            (report.bank_idle_proportion - expected).abs() < 1e-12,
            "{shards} shards: merged idle {} vs cycle-weighted shard mean {expected}",
            report.bank_idle_proportion
        );
        1.0 - report.bank_idle_proportion
    };
    // The same requests over N shards give each shard's banks ~1/N of the
    // work over the same ticks: the busy share falls like 1/N, not 1/N².
    let one = busy_share(1);
    assert!(one > 0.05, "the run must keep the banks measurably busy");
    for shards in [2usize, 4] {
        let busy = busy_share(shards);
        let predicted = one / shards as f64;
        assert!(
            busy > predicted / 2.0 && busy < predicted * 2.0,
            "{shards} shards: busy share {busy:.4}, expected about {predicted:.4} \
             (1 shard: {one:.4})"
        );
    }
}
