//! Robustness goldens for the `oram-service` front-end.
//!
//! Everything here is exact: the service runs on virtual time with seeded
//! arrival processes, so repeat runs must agree byte for byte, overload
//! storms must walk the governor through precisely the expected states,
//! and the fixed-rate submission envelope must be bit-identical across
//! different tenant loads (the timing-channel check).

use oram_service::{GovernorState, OramService, ServiceConfig, SubmissionPolicy, TenantSpec};
use string_oram::{BackendKind, ServiceSummary, SimReport};
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

/// What drives the tenants of one recorded run.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// Every tenant's own arrival process.
    SelfDriven,
    /// Every tenant silent (rate 0); the same shapes realised outside the
    /// service and submitted at their due tick, interleaved with
    /// `tick_once` the way `benchmark/src/passes.rs::drive_service` does.
    External,
    /// Tenant 0 self-driven, tenants 1 and 2 silent and fed from outside.
    Mixed,
}

/// One request of an outside schedule: `(tick, tenant, offset, is_write)`.
type Submission = (u64, usize, u64, bool);

/// The three tenants' shapes at `rates` (steady, bursty x4, diurnal) and,
/// for the tenants `drive` leaves silent, their realisation over `horizon`
/// ticks in tick order.
fn recorded_tenants(
    drive: Drive,
    rates: [f64; 3],
    horizon: u64,
) -> (Vec<TenantSpec>, Vec<Submission>) {
    let shapes = [
        ("steady", ArrivalSpec::steady(rates[0])),
        ("bursty", ArrivalSpec::bursty(rates[1], 4.0)),
        ("diurnal", ArrivalSpec::diurnal(rates[2], 4_000, 0.8)),
    ];
    let mut specs = Vec::new();
    let mut schedule = Vec::new();
    for (t, (name, shape)) in shapes.into_iter().enumerate() {
        let silent = match drive {
            Drive::SelfDriven => false,
            Drive::External => true,
            Drive::Mixed => t > 0,
        };
        if silent {
            let mut process = trace_synth::ArrivalProcess::new(shape, 0x5EED ^ t as u64);
            for tick in 0..horizon {
                for k in 0..u64::from(process.next_tick()) {
                    let offset = tick * 31 + t as u64 * 7 + k;
                    schedule.push((tick, t, offset, offset.is_multiple_of(4)));
                }
            }
        }
        let arrivals = if silent {
            ArrivalSpec::steady(0.0)
        } else {
            shape
        };
        specs.push(TenantSpec::new(name, arrivals));
    }
    schedule.sort_by_key(|&(tick, tenant, ..)| (tick, tenant));
    (specs, schedule)
}

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Counters of the storm runs, to show the recorded matrix reaches the
/// paths it is meant to hold.
#[derive(Debug, Default)]
struct Reached {
    shed_entries: u64,
    recoveries: u64,
    timed_out: u64,
    retries: u64,
    late_completions: u64,
    padding: u64,
}

/// Drives one service to completion — outside submissions at their due
/// tick, then `tick_once`, then the drain — and hashes everything a caller
/// can see: the rendered report, the schedule digest, the governor state
/// every 1 000 ticks and at the end.
fn recorded_run(cfg: ServiceConfig, schedule: &[Submission], reached: &mut Reached) -> u64 {
    let mut svc = OramService::new(cfg).expect("valid config");
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut next = 0;
    while !svc.is_finished() {
        let now = svc.ticks();
        while let Some(&(_, tenant, offset, is_write)) = schedule.get(next).filter(|s| s.0 == now) {
            let _ = svc.submit(tenant, offset, is_write);
            next += 1;
        }
        svc.tick_once();
        if svc.ticks().is_multiple_of(1_000) {
            hash = fnv(hash, svc.governor_state().label().as_bytes());
        }
    }
    assert_eq!(next, schedule.len(), "every outside request was due");
    let report = svc.run().expect("already drained");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let summary = report.service.as_ref().expect("service summary attached");
    reached.shed_entries += summary.governor.shed_entries;
    reached.recoveries += summary.governor.recoveries;
    reached.padding += summary.padding_accesses;
    for t in &summary.tenants {
        assert_eq!(t.resolved(), t.arrivals, "tenant {}", t.tenant);
        reached.timed_out += t.timed_out;
        reached.retries += t.retries;
        reached.late_completions += t.late_completions;
    }
    hash = fnv(hash, format!("{report:?}").as_bytes());
    hash = fnv(hash, &svc.schedule_digest().to_le_bytes());
    fnv(hash, svc.governor_state().label().as_bytes())
}

/// Everything the service reports, over policy x tenant drive x shards x
/// load x backend, held to values recorded on the commit before the tick
/// loop became event-driven (PR 17). The loop may change what a tick
/// costs, never what a run reports.
#[test]
fn reports_match_the_recorded_values() {
    #[rustfmt::skip]
    const RECORDED: [u64; 72] = [
        0x8B7C_D095_499E_657E, 0xEC99_C571_6663_1887, 0x3777_C25B_A0E1_E382, 0xDAB9_57D7_78B2_1083,
        0x0EB1_F221_60C6_27DC, 0x7184_BBAA_E9A7_3AFB, 0x69C7_FDCE_3735_01CF, 0x5CE4_B191_3258_B919,
        0x257D_D4C1_D0F7_3DE6, 0x6F13_883A_6A51_4B7A, 0x141E_B456_A36C_0485, 0x6B21_E127_0F79_F0EE,
        0x889B_F529_E801_1FFD, 0x84A5_FF45_35D7_9F67, 0xD085_1DE9_C196_CEB2, 0xA84F_920B_3B82_846A,
        0x8D74_F6FA_CF20_2F8D, 0xD128_5A8F_1D57_1665, 0x5646_CE6D_652F_CB6B, 0x7305_4D4B_8373_906E,
        0x079B_8C6E_DA0A_3E92, 0x54FF_8D15_FF78_909B, 0x3D48_FDF1_85E3_E3D8, 0x6FAC_F35D_5267_C6E8,
        0xFB77_0209_27CB_15C6, 0x2D1E_F770_97BC_6CE9, 0xE657_5517_A45A_95B5, 0x4B2F_9F3F_52C2_8F05,
        0x7F8B_054B_D991_9F8A, 0xCEA1_D43D_74DD_1FC0, 0x0677_DB20_E741_16F8, 0xCB1C_4730_A788_87E8,
        0x58B3_0E38_2117_1F12, 0x97ED_C756_4946_9E49, 0x10B1_12BA_8E38_A484, 0x72BD_FD31_15A3_52C3,
        0xA86D_5A8D_1F40_3BB7, 0xA3CD_B5E4_8E6C_BDA8, 0xBCD0_5529_2F16_6886, 0x135F_9D6E_1A5F_21D0,
        0x0BE1_5E0B_A8FC_17BA, 0xCB3F_FD9A_41BE_4C84, 0x3F85_2F5D_FC67_4652, 0x2CD0_B512_EFBF_A720,
        0x03EA_4A14_66E8_A601, 0x8FDB_8F88_6144_CDAE, 0xF0AF_EE23_3F1F_2D5F, 0xAD8C_E72D_9DA8_86C5,
        0x06B0_C131_53C6_BC1D, 0xEE5F_77B9_FF72_51D3, 0x455B_D888_E976_D0A4, 0x7232_AA09_B09C_F31B,
        0x1118_C7F1_DB9C_9609, 0xE4AE_14A5_1D30_46FC, 0x742B_23C1_44AB_2472, 0x8E47_EBAB_F2DD_ACA8,
        0x69E1_17C5_9B10_9014, 0xE248_B6B8_06DA_C8BE, 0x0BCB_9FA1_5573_D835, 0x24F8_6118_0351_EB20,
        0x4525_A4BF_6812_17F7, 0x4226_2DAE_A488_3382, 0x8637_B910_97E8_17CB, 0x330F_014B_3A7A_14C9,
        0x9F9C_AD4B_AA40_693C, 0xE36E_3DF0_D44A_6D01, 0xBA59_31E9_D66F_674D, 0xD6FA_0931_1E0A_E69D,
        0x6306_98C1_A0E6_04A7, 0xC855_C74E_E358_0960, 0x6767_569A_686D_27E4, 0x845F_C493_1180_AB7E,
    ];
    let policies = [
        SubmissionPolicy::BestEffort { batch: 4 },
        SubmissionPolicy::FixedRate {
            interval: 256,
            batch: 1,
        },
        SubmissionPolicy::FixedRate {
            interval: 64,
            batch: 2,
        },
    ];
    let mut got = Vec::new();
    let mut storm_reached = Reached::default();
    let mut light_reached = Reached::default();
    for policy in policies {
        for drive in [Drive::SelfDriven, Drive::External, Drive::Mixed] {
            for shards in [1usize, 2] {
                for storm in [false, true] {
                    for backend in [BackendKind::FastFunctional, BackendKind::CycleAccurate] {
                        // Light: the benchmark's three tenants, ~60 % of the
                        // slower cadence. Storm: `storm_cfg`'s rates and
                        // watermarks plus a diurnal tenant.
                        let rates = if storm {
                            [24.0, 12.0, 8.0]
                        } else {
                            [1.0, 0.5, 0.8]
                        };
                        let mut cfg = storm_cfg(policy);
                        if !storm {
                            let light = ServiceConfig::test_small(Vec::new(), cfg.horizon);
                            cfg.deadline_cycles = light.deadline_cycles;
                            cfg.governor = light.governor;
                        }
                        let (tenants, schedule) = recorded_tenants(drive, rates, cfg.horizon);
                        cfg.tenants = tenants;
                        cfg.system.shards = shards;
                        cfg.system.backend = backend;
                        let reached = if storm {
                            &mut storm_reached
                        } else {
                            &mut light_reached
                        };
                        got.push(recorded_run(cfg, &schedule, reached));
                    }
                }
            }
        }
    }
    // The storm half walks the governor up and back and exercises every
    // deadline path; the light half pads.
    let s = &storm_reached;
    assert!(s.shed_entries > 0 && s.recoveries > 0, "{s:?}");
    assert!(
        s.timed_out > 0 && s.retries > 0 && s.late_completions > 0,
        "{s:?}"
    );
    assert!(light_reached.padding > 0, "{light_reached:?}");
    let rendered: Vec<String> = got.iter().map(|h| format!("0x{h:016X}")).collect();
    assert!(
        got == RECORDED,
        "recorded values moved; this run:\n{}",
        rendered.join(",\n")
    );
}
