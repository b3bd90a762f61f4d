//! Fault injection end-to-end: the seeded fault schedule is deterministic,
//! the stack absorbs injected faults without tripping any conformance
//! checker, faults never change the program's observable work, and — the
//! negative half — losing a payload (retries disabled) must be flagged by
//! the fault-aware auditor and must abort a `fail_fast` run.

use ring_oram::{BlockId, FaultEvent, ResilienceConfig, RingConfig, RingOram};
use string_oram::{
    ConfigError, FaultConfig, ResilienceSummary, Scheme, ShardedSimulation, SimReport, Simulation,
    SystemConfig,
};
use trace_synth::{by_name, TraceGenerator, TraceRecord};

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

/// `test_small` plus an all-layers fault schedule at the given rate.
fn smoke_cfg(scheme: Scheme, fault_seed: u64, rate: f64) -> SystemConfig {
    let mut cfg = SystemConfig::test_small(scheme);
    cfg.faults = Some(FaultConfig::smoke(
        fault_seed,
        rate,
        cfg.ring.stash_capacity,
    ));
    cfg
}

fn run_sim(cfg: SystemConfig, workload: &str, seed: u64, records: usize) -> SimReport {
    let traces = traces_for(&cfg, workload, seed, records);
    let mut sim = Simulation::new(cfg, traces);
    sim.set_label(format!("{workload}-{seed}-faulty"));
    sim.run(50_000_000).expect("faulty run completes")
}

/// The acceptance configuration: every fault class firing hard enough to
/// exercise every counter in a short test run. Refreshes are made frequent
/// so storms occur, every refresh storms, saturation hits every other
/// window, the corruption rate is high, and the retry budget is sized so
/// recovery still always succeeds. Watermarks sit where the degradation
/// machinery actually engages at test-sized stash occupancies.
fn acceptance_cfg() -> SystemConfig {
    let mut cfg = smoke_cfg(Scheme::All, 0xF417, 0.05);
    cfg.timing.t_refi = 1_000;
    if let Some(f) = &mut cfg.faults {
        f.resilience.bit_flip_rate = 0.3;
        f.resilience.max_retries = 6;
        f.resilience.escalation_watermark = 5;
        f.resilience.degrade_watermark = 7;

        f.resilience.resume_watermark = 2;
        f.dram.storm_rate = 1.0;
        f.memctrl.saturation_rate = 0.5;
    }
    cfg
}

/// The headline acceptance run: every fault class active. The run must
/// complete, detect and recover every corruption, exercise every
/// resilience counter and stay violation-free across all checkers.
#[test]
fn faulty_run_recovers_and_stays_violation_free() {
    let r = run_sim(acceptance_cfg(), "black", 11, 80);
    let res = &r.resilience;
    assert!(
        r.violations.is_empty(),
        "{} violations, first: {}",
        r.violations.len(),
        r.violations[0]
    );
    assert!(res.faults_injected > 0, "a 30 % rate must inject faults");
    assert_eq!(
        res.faults_injected, res.faults_detected,
        "every corruption must be caught by the integrity tag"
    );
    assert!(res.fault_retries > 0, "detected faults must be retried");
    assert_eq!(res.faults_unrecovered, 0, "retry budget must suffice");
    assert!(res.faults_recovered > 0, "retries must recover payloads");
    assert!(res.retry_cycles > 0, "retries must cost visible cycles");
    assert!(
        res.background_escalations > 0,
        "escalation watermark unused"
    );
    assert!(res.degraded_entries > 0, "degraded mode never entered");
    assert!(res.degraded_exits > 0, "degraded mode never drained");
    assert!(res.responses_dropped > 0, "no response drops injected");
    assert!(res.responses_delayed > 0, "no late responses injected");
    assert!(res.queue_saturation_windows > 0, "no saturation observed");
    assert!(res.refresh_storms > 0, "no refresh storms injected");
    assert!(res.weak_row_stalls > 0, "no weak-row stalls injected");
    assert!(r.oram_accesses > 0 && r.total_cycles > 0);
}

/// Satellite: the fault schedule is a pure function of its seed. Two runs
/// of the same configuration produce the identical `FaultEvent` log at the
/// protocol level and identical resilience counters (and cycle totals) at
/// the system level; a different fault seed produces a different schedule.
#[test]
fn fault_schedule_is_deterministic() {
    fn fault_log(fault_seed: u64) -> Vec<FaultEvent> {
        let cfg = RingConfig::test_small_cb();
        let mut o = RingOram::with_load_factor(cfg.clone(), 42, 0.5);
        o.enable_encryption(7);
        let mut r = ResilienceConfig::for_stash(cfg.stash_capacity);
        r.fault_seed = fault_seed;
        r.bit_flip_rate = 0.2;
        o.enable_resilience(r);
        let mut log = Vec::new();
        for i in 0..150 {
            let _ = o.access(BlockId(i % 17));
            log.extend(o.take_fault_events());
        }
        log
    }
    let a = fault_log(9);
    assert!(!a.is_empty(), "a 20 % rate must produce fault events");
    assert_eq!(a, fault_log(9), "same seed, same event log");
    assert_ne!(a, fault_log(10), "different seed, different schedule");

    let run = || run_sim(smoke_cfg(Scheme::All, 0xDE7, 0.04), "libq", 23, 60);
    let (r1, r2) = (run(), run());
    assert!(r1.violations.is_empty());
    assert_eq!(r1.resilience, r2.resilience, "resilience counters diverged");
    assert_eq!(r1.total_cycles, r2.total_cycles, "cycle totals diverged");
    assert_eq!(r1.transactions_by_kind, r2.transactions_by_kind);
    assert!(r1.resilience.faults_injected > 0);
}

/// Fault randomness never touches the protocol RNG: a faulty run performs
/// exactly the same program work (accesses and program read transactions)
/// as the fault-free run — faults cost latency, not access-pattern changes.
#[test]
fn faults_do_not_change_program_work() {
    let clean = run_sim(SystemConfig::test_small(Scheme::All), "black", 11, 80);
    let faulty = run_sim(acceptance_cfg(), "black", 11, 80);
    assert!(clean.violations.is_empty() && faulty.violations.is_empty());
    assert_eq!(faulty.oram_accesses, clean.oram_accesses);
    assert_eq!(
        faulty.transactions_by_kind.get("read"),
        clean.transactions_by_kind.get("read"),
        "program read-path transactions must be unaffected by faults"
    );
    assert!(faulty.resilience.faults_injected > 0);
    assert_eq!(clean.resilience, ResilienceSummary::default());
}

/// With every rate at zero the fault plumbing must be a perfect no-op:
/// cycle-identical to a run with fault injection disabled entirely.
#[test]
fn zero_rate_faults_match_fault_free_run() {
    let clean = run_sim(SystemConfig::test_small(Scheme::All), "stream", 47, 60);
    let zero = run_sim(smoke_cfg(Scheme::All, 0xF417, 0.0), "stream", 47, 60);
    assert_eq!(zero.total_cycles, clean.total_cycles);
    assert_eq!(zero.transactions_by_kind, clean.transactions_by_kind);
    assert_eq!(zero.resilience, ResilienceSummary::default());
}

fn no_retry_cfg() -> SystemConfig {
    let mut cfg = smoke_cfg(Scheme::All, 0xBAD, 0.05);
    if let Some(f) = &mut cfg.faults {
        f.resilience.bit_flip_rate = 0.3;
        f.resilience.max_retries = 0;
    }
    cfg
}

/// Satellite (negative): disabling retries while injecting ciphertext
/// flips loses payloads, and the fault-aware auditor must say so.
#[test]
fn unrecovered_faults_are_flagged() {
    let r = run_sim(no_retry_cfg(), "black", 11, 80);
    assert!(r.resilience.faults_injected > 0);
    assert_eq!(r.resilience.fault_retries, 0);
    assert_eq!(
        r.resilience.faults_unrecovered,
        r.resilience.faults_detected
    );
    assert!(
        r.violations.iter().any(|v| v.contains("fault-unrecovered")),
        "lost payloads must trip the fault-unrecovered rule; got: {:?}",
        r.violations.first()
    );
}

/// Same injected defect under `fail_fast`: the run must abort at the first
/// lost payload instead of accumulating violations.
#[test]
#[should_panic(expected = "conformance violation")]
fn unrecovered_fault_trips_fail_fast() {
    let mut cfg = no_retry_cfg();
    cfg.verify.fail_fast = true;
    let traces = traces_for(&cfg, "black", 11, 80);
    let mut sim = Simulation::new(cfg, traces);
    let _ = sim.run(50_000_000);
}

/// The CI fault-matrix smoke: two seeds x two rates, each run must
/// complete, recover everything and stay violation-free.
#[test]
fn fault_matrix_smoke() {
    for fault_seed in [11u64, 97] {
        for rate in [0.01, 0.08] {
            let r = run_sim(smoke_cfg(Scheme::All, fault_seed, rate), "black", 23, 40);
            assert!(
                r.violations.is_empty(),
                "seed {fault_seed} rate {rate}: first violation {}",
                r.violations[0]
            );
            assert_eq!(r.resilience.faults_injected, r.resilience.faults_detected);
            assert_eq!(r.resilience.faults_unrecovered, 0);
        }
    }
}

/// Satellite: `try_new` reports configuration problems as values; `new`
/// stays the panicking wrapper.
#[test]
fn try_new_reports_errors_instead_of_panicking() {
    let mut bad = SystemConfig::test_small(Scheme::Baseline);
    bad.queue_capacity = 0;
    match Simulation::try_new(bad, Vec::new()) {
        Err(ConfigError::Invalid(msg)) => assert!(msg.contains("queue_capacity")),
        other => panic!("expected Invalid, got {other:?}"),
    }

    let cfg = SystemConfig::test_small(Scheme::Baseline);
    match Simulation::try_new(cfg, Vec::new()) {
        Err(
            e @ ConfigError::TraceCount {
                expected: 2,
                got: 0,
            },
        ) => {
            assert!(e.to_string().contains("trace"));
        }
        other => panic!("expected TraceCount, got {other:?}"),
    }
}

/// Trace files are outside input: a block id in the range the engines
/// reserve for their pre-loaded blocks is a configuration error naming the
/// record, on every protocol, never a panic mid-run.
#[test]
fn try_new_rejects_trace_block_ids_in_the_reserved_range() {
    use ring_oram::ProtocolKind;
    for protocol in ProtocolKind::ALL {
        for shards in [1, 2] {
            let mut cfg = SystemConfig::test_small(Scheme::All);
            cfg.protocol = protocol;
            cfg.shards = shards;
            let mut traces = traces_for(&cfg, "black", 11, 20);
            // One below the limit is an ordinary block; the limit is not.
            let limit = RingOram::COLD_BASE * shards as u64;
            traces[1][7].op.block = limit - 1;
            traces[1][12].op.block = limit;
            traces[1][15].op.block = u64::MAX;
            let err = if shards == 1 {
                Simulation::try_new(cfg, traces).err()
            } else {
                ShardedSimulation::try_new(cfg, traces).err()
            };
            match err {
                Some(ConfigError::Invalid(msg)) => assert!(
                    msg.contains("core 1, record 12") && msg.contains(&limit.to_string()),
                    "{protocol} x {shards}: {msg}"
                ),
                other => panic!("{protocol} x {shards}: expected Invalid, got {other:?}"),
            }
        }
    }
}

/// Sharded fault isolation: faults seeded into exactly one shard (via the
/// per-shard override hook) must not perturb any *other* shard's access
/// sequence or cycle count — shards share no protocol state, no backend
/// and no RNG stream, so a fault is a strictly local event.
fn armed_override(stash_capacity: usize) -> FaultConfig {
    // The smoke schedule plus a bit-flip rate high enough to guarantee
    // transit corruptions within a 100-record run (and the retry budget to
    // recover every one of them).
    let mut fc = FaultConfig::smoke(0xF417, 0.2, stash_capacity);
    fc.resilience.bit_flip_rate = 0.5;
    fc.resilience.max_retries = 6;
    fc
}

#[test]
fn faults_in_one_shard_do_not_perturb_the_others() {
    let build = |faulty: bool| {
        let mut cfg = SystemConfig::test_small(Scheme::All);
        cfg.shards = 2;
        let traces = traces_for(&cfg, "black", 11, 100);
        let overrides = if faulty {
            vec![Some(armed_override(cfg.ring.stash_capacity)), None]
        } else {
            Vec::new()
        };
        let mut sim = ShardedSimulation::try_new_with_shard_faults(cfg, traces, &overrides)
            .expect("valid sharded config");
        sim.run(50_000_000).expect("completes");
        sim
    };
    let clean = build(false);
    let faulty = build(true);

    let fr = faulty.shards()[0].report();
    assert!(
        fr.resilience.faults_injected > 0,
        "the override must arm fault injection in shard 0"
    );
    assert_eq!(
        clean.shards()[1].report().resilience,
        ResilienceSummary::default()
    );
    assert_eq!(
        faulty.shards()[1].report().resilience,
        ResilienceSummary::default()
    );

    // The clean shard is bit-for-bit unperturbed by its faulty neighbor.
    assert_eq!(
        faulty.shard_digests()[1],
        clean.shard_digests()[1],
        "shard 1's access sequence changed when shard 0 took faults"
    );
    assert_eq!(
        faulty.shards()[1].cycles(),
        clean.shards()[1].cycles(),
        "shard 1's cycle count changed when shard 0 took faults"
    );

    // Faults cost latency, not access-pattern changes, even shard-locally.
    assert_eq!(
        faulty.shards()[0].oram_accesses(),
        clean.shards()[0].oram_accesses()
    );
}

/// The merged resilience counters of a sharded run are the per-shard sums:
/// with one faulty and one clean shard, the merge equals the faulty
/// shard's counters exactly — and stays deterministic across repeats.
#[test]
fn merged_resilience_counters_equal_per_shard_sums() {
    let run = || {
        let mut cfg = SystemConfig::test_small(Scheme::All);
        cfg.shards = 2;
        let traces = traces_for(&cfg, "black", 11, 100);
        let overrides = vec![Some(armed_override(cfg.ring.stash_capacity)), None];
        let mut sim = ShardedSimulation::try_new_with_shard_faults(cfg, traces, &overrides)
            .expect("valid sharded config");
        let report = sim.run(50_000_000).expect("completes");
        (sim, report)
    };
    let (sim, merged) = run();
    assert!(merged.violations.is_empty(), "{:?}", merged.violations);

    let s0 = sim.shards()[0].report().resilience;
    let s1 = sim.shards()[1].report().resilience;
    assert!(s0.faults_injected > 0);
    assert_eq!(s1, ResilienceSummary::default());
    // sum = s0 + zeros, so the merge must reproduce s0 field for field.
    assert_eq!(
        merged.resilience, s0,
        "merged resilience is not the shard sum"
    );
    assert_eq!(
        merged.resilience.faults_injected,
        s0.faults_injected + s1.faults_injected
    );
    assert_eq!(
        merged.resilience.retry_cycles,
        s0.retry_cycles + s1.retry_cycles
    );

    // Determinism is preserved under per-shard fault overrides.
    let (sim2, merged2) = run();
    assert_eq!(sim.merged_digest(), sim2.merged_digest());
    assert_eq!(merged.resilience, merged2.resilience);
    assert_eq!(merged.total_cycles, merged2.total_cycles);
}

/// Fault configurations themselves are validated: out-of-range rates and
/// the unsupported faults-plus-recursion combination are rejected.
#[test]
fn invalid_fault_configs_are_rejected() {
    let bad_rate = smoke_cfg(Scheme::Baseline, 1, 1.5);
    assert!(bad_rate.validate().is_err(), "rate 1.5 must be rejected");

    let mut recursive = smoke_cfg(Scheme::Baseline, 1, 0.05);
    recursive.recursion = Some(string_oram::RecursionSettings {
        tracked_blocks: 1 << 9,
        positions_per_block: 4,
        max_onchip_entries: 8,
    });
    let err = recursive.validate().expect_err("faults + recursion");
    assert!(err.to_string().contains("recursive"), "got: {err}");
}
