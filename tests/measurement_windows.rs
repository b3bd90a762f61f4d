//! Measurement windows add up to the run.
//!
//! A run is cut into consecutive windows, each the difference of two
//! [`CounterSnapshot`]s taken with `capture` (`later.delta(&earlier)`, the
//! path `Simulation::begin_measurement` and `report` take). Every count a
//! report derives, summed over the windows, must equal the run's own count,
//! and the windows' stash samples and read latencies must concatenate to the
//! run's. A sharded window is the per-shard windows merged in shard-id order
//! (`merge_from`, the fold `build_merged_report` uses), and the run is the
//! shards' whole-run snapshots merged the same way.
//!
//! The sums are taken here, field by field, not through `delta` or
//! `merge_from`: a counter combined by the wrong rule in either (a per-unit
//! vector summed, a sample list subtracted element-wise) makes the windows
//! disagree with the run.

use std::collections::BTreeMap;

use dram_sim::CommandKind;
use mem_sched::SchedulerStats;
use ring_oram::ProtocolStats;
use string_oram::pipeline::CounterSnapshot;
use string_oram::{
    BackendKind, FaultConfig, KindCycles, ProtocolKind, RowClassCounts, Scheme, ShardedSimulation,
    SimReport, Simulation, SystemConfig,
};
use trace_synth::{by_name, TraceGenerator, TraceRecord};

/// Records per core: long enough for every protocol to evict, reshuffle and
/// fill several windows, short enough for a debug build.
const RECORDS: usize = 120;

/// Cycles per window; every run below spans at least three.
const WINDOW: u64 = 1_000;

fn cfg(protocol: ProtocolKind, backend: BackendKind, shards: usize) -> SystemConfig {
    let mut cfg = SystemConfig::test_small(Scheme::All);
    cfg.protocol = protocol;
    cfg.backend = backend;
    cfg.shards = shards;
    cfg
}

/// `cfg` with every fault class armed (hard enough to escalate and degrade)
/// and refresh on, so the resilience, refresh, storm and saturation counters
/// are not zero.
fn faulty(mut cfg: SystemConfig) -> SystemConfig {
    let mut faults = FaultConfig::smoke(0xF417, 0.05, cfg.ring.stash_capacity);
    let r = &mut faults.resilience;
    (r.bit_flip_rate, r.max_retries) = (0.3, 6);
    (
        r.escalation_watermark,
        r.degrade_watermark,
        r.resume_watermark,
    ) = (5, 7, 2);
    faults.dram.storm_rate = 1.0;
    faults.memctrl.saturation_rate = 0.5;
    cfg.faults = Some(faults);
    cfg.timing.t_refi = 1_000;
    cfg
}

fn traces(cfg: &SystemConfig) -> Vec<Vec<TraceRecord>> {
    (0..cfg.cores)
        .map(|c| TraceGenerator::new(by_name("black").unwrap(), 11, c as u32).take_records(RECORDS))
        .collect()
}

/// Steps `sim` until its clock reaches `until` or it finishes.
fn step_to(sim: &mut Simulation, until: u64) {
    while sim.cycles() < until && !sim.is_finished() {
        sim.step();
    }
}

/// Every count a report derives from `s`, by name; zero counts are left
/// out, so an absent key and a zero compare equal. The struct patterns have
/// no `..`: a counter added to one of these types must be added here.
fn counts(s: &CounterSnapshot) -> BTreeMap<String, u64> {
    counts_after(s, 0, 0)
}

/// [`counts`] with the per-unit entries numbered from `channel` and `bank`
/// (the units of the shards before `s`).
fn counts_after(s: &CounterSnapshot, channel: usize, bank: usize) -> BTreeMap<String, u64> {
    let CounterSnapshot {
        cycle,
        instructions,
        oram_accesses,
        cycles_by_kind,
        transactions_by_kind,
        row_class_by_kind,
        retry_cycles,
        read_latency_idx: _,
        backend,
        protocol,
    } = s;
    let KindCycles {
        read,
        evict,
        reshuffle,
        other,
    } = cycles_by_kind;
    let mut c = vec![
        ("cycle".to_string(), *cycle),
        ("instructions".into(), *instructions),
        ("oram_accesses".into(), *oram_accesses),
        ("retry_cycles".into(), *retry_cycles),
        ("cycles_by_kind.read".into(), *read),
        ("cycles_by_kind.evict".into(), *evict),
        ("cycles_by_kind.reshuffle".into(), *reshuffle),
        ("cycles_by_kind.other".into(), *other),
    ];
    for (kind, n) in transactions_by_kind {
        c.push((format!("transactions.{kind}"), *n));
    }
    for (kind, rc) in row_class_by_kind {
        let RowClassCounts {
            hits,
            misses,
            conflicts,
        } = rc;
        c.push((format!("row_class.{kind}.hits"), *hits));
        c.push((format!("row_class.{kind}.misses"), *misses));
        c.push((format!("row_class.{kind}.conflicts"), *conflicts));
    }
    c.extend(protocol_counts(protocol));
    c.extend(sched_counts(&backend.sched, channel));
    if let Some(d) = &backend.dram {
        for kind in [
            CommandKind::Activate,
            CommandKind::Precharge,
            CommandKind::Read,
            CommandKind::Write,
        ] {
            c.push((format!("dram.{kind:?}"), d.stats.commands(kind)));
        }
        for (i, busy) in d.bank_busy.iter().enumerate() {
            c.push((format!("dram.bank_busy[{}]", bank + i), *busy));
        }
        c.push(("dram.refreshes".into(), d.refreshes));
        c.push(("dram.refresh_storms".into(), d.refresh_storms));
        c.push(("dram.weak_row_stalls".into(), d.weak_row_stalls));
    }
    c.into_iter().filter(|&(_, n)| n != 0).collect()
}

fn protocol_counts(p: &ProtocolStats) -> Vec<(String, u64)> {
    let ProtocolStats {
        read_paths,
        dummy_read_paths,
        evictions,
        background_evictions,
        early_reshuffles,
        forced_reshuffles,
        greens_fetched,
        targets_from_tree,
        targets_from_treetop,
        targets_from_stash,
        new_blocks,
        stash_samples: _,
        encryptions,
        decryptions,
        faults_injected,
        faults_detected,
        fault_retries,
        faults_recovered,
        faults_unrecovered,
        degraded_entries,
        degraded_exits,
        background_escalations,
    } = p;
    [
        ("read_paths", read_paths),
        ("dummy_read_paths", dummy_read_paths),
        ("evictions", evictions),
        ("background_evictions", background_evictions),
        ("early_reshuffles", early_reshuffles),
        ("forced_reshuffles", forced_reshuffles),
        ("greens_fetched", greens_fetched),
        ("targets_from_tree", targets_from_tree),
        ("targets_from_treetop", targets_from_treetop),
        ("targets_from_stash", targets_from_stash),
        ("new_blocks", new_blocks),
        ("encryptions", encryptions),
        ("decryptions", decryptions),
        ("faults_injected", faults_injected),
        ("faults_detected", faults_detected),
        ("fault_retries", fault_retries),
        ("faults_recovered", faults_recovered),
        ("faults_unrecovered", faults_unrecovered),
        ("degraded_entries", degraded_entries),
        ("degraded_exits", degraded_exits),
        ("background_escalations", background_escalations),
    ]
    .into_iter()
    .map(|(name, n)| (format!("protocol.{name}"), *n))
    .collect()
}

fn sched_counts(s: &SchedulerStats, channel: usize) -> Vec<(String, u64)> {
    let SchedulerStats {
        ticks,
        queue_occupancy_integral,
        reads_completed,
        writes_completed,
        read_queue_wait,
        write_queue_wait,
        hits,
        misses,
        conflicts,
        precharges,
        activates,
        early_precharges,
        early_activates,
        deferred_writes,
        write_drains,
        withheld_issue_slots,
        stalled_bank_cycles,
        busy_pending_bank_cycles,
        per_channel_requests,
        open_bank_integral,
        bank_tick_integral,
        responses_delayed,
        responses_dropped,
        queue_saturation_windows,
    } = s;
    let mut c: Vec<(String, u64)> = [
        ("ticks", ticks),
        ("queue_occupancy_integral", queue_occupancy_integral),
        ("reads_completed", reads_completed),
        ("writes_completed", writes_completed),
        ("read_queue_wait", read_queue_wait),
        ("write_queue_wait", write_queue_wait),
        ("hits", hits),
        ("misses", misses),
        ("conflicts", conflicts),
        ("precharges", precharges),
        ("activates", activates),
        ("early_precharges", early_precharges),
        ("early_activates", early_activates),
        ("deferred_writes", deferred_writes),
        ("write_drains", write_drains),
        ("withheld_issue_slots", withheld_issue_slots),
        ("stalled_bank_cycles", stalled_bank_cycles),
        ("busy_pending_bank_cycles", busy_pending_bank_cycles),
        ("open_bank_integral", open_bank_integral),
        ("bank_tick_integral", bank_tick_integral),
        ("responses_delayed", responses_delayed),
        ("responses_dropped", responses_dropped),
        ("queue_saturation_windows", queue_saturation_windows),
    ]
    .into_iter()
    .map(|(name, n)| (format!("sched.{name}"), *n))
    .collect();
    for (i, n) in per_channel_requests.iter().enumerate() {
        c.push((format!("sched.per_channel_requests[{}]", channel + i), *n));
    }
    c
}

/// The counts of `windows`, added name by name.
fn summed(windows: &[CounterSnapshot]) -> BTreeMap<String, u64> {
    let mut total = BTreeMap::new();
    for w in windows {
        for (name, n) in counts(w) {
            *total.entry(name).or_default() += n;
        }
    }
    total
}

/// The shards' snapshots merged in shard-id order.
fn merged(shards: Vec<CounterSnapshot>) -> CounterSnapshot {
    let mut shards = shards.into_iter();
    let mut acc = shards.next().expect("at least one shard");
    shards.for_each(|s| acc.merge_from(&s));
    acc
}

/// Steps `shards` (one `Simulation`, or the shards of a
/// `ShardedSimulation`) to the same window edges, [`WINDOW`] cycles apart,
/// holds the windows to the run, and returns the run: the shards' whole-run
/// snapshots merged.
fn windows_add_up(ctx: &str, shards: &mut [&mut Simulation]) -> CounterSnapshot {
    let capture = |shards: &[&mut Simulation]| -> Vec<CounterSnapshot> {
        shards.iter().map(|s| s.capture()).collect()
    };
    let mut edges = vec![capture(shards)];
    let mut until = 0;
    while !shards.iter().all(|s| s.is_finished()) {
        until += WINDOW;
        for shard in shards.iter_mut() {
            step_to(shard, until);
        }
        edges.push(capture(shards));
    }
    assert!(edges.len() > 3, "{ctx}: {} windows", edges.len() - 1);
    assert!(
        edges[0].iter().all(|s| counts(s).is_empty()),
        "{ctx}: counts before the first step"
    );
    let last = edges.last().unwrap().clone();
    let run = merged(last.clone());

    // Each window is the shards' windows merged; the counts of all of them
    // add up to the run's.
    let windows: Vec<CounterSnapshot> = edges
        .windows(2)
        .map(|e| {
            merged(
                e[1].iter()
                    .zip(&e[0])
                    .map(|(now, then)| now.delta(then))
                    .collect(),
            )
        })
        .collect();
    assert_eq!(summed(&windows), counts(&run), "{ctx}");

    // The merged run against its shards, without `merge_from`: counts add,
    // and units and samples follow each other in shard-id order.
    let mut whole = BTreeMap::new();
    let (mut channel, mut bank) = (0, 0);
    for shard in &last {
        for (name, n) in counts_after(shard, channel, bank) {
            *whole.entry(name).or_default() += n;
        }
        channel += shard.backend.sched.per_channel_requests.len();
        bank += shard.backend.dram.as_ref().map_or(0, |d| d.bank_busy.len());
    }
    assert_eq!(
        counts(&run),
        whole,
        "{ctx}: the merged run against its shards"
    );
    let samples: Vec<usize> = last
        .iter()
        .flat_map(|s| s.protocol.stash_samples.clone())
        .collect();
    assert_eq!(
        run.protocol.stash_samples, samples,
        "{ctx}: merged stash samples"
    );

    // Per shard, the windows' stash samples and read latencies (the samples
    // from a window's start index to the next window's) concatenate to the
    // shard's own.
    for (s, shard) in shards.iter().enumerate() {
        let own: Vec<CounterSnapshot> = edges.windows(2).map(|e| e[1][s].delta(&e[0][s])).collect();
        let stash: Vec<usize> = own
            .iter()
            .flat_map(|w| w.protocol.stash_samples.clone())
            .collect();
        assert_eq!(
            stash, last[s].protocol.stash_samples,
            "{ctx}: shard {s} stash samples"
        );

        let latencies = shard.read_latency_samples();
        let mut origins: Vec<usize> = own.iter().map(|w| w.read_latency_idx).collect();
        origins.push(latencies.len());
        let starts: Vec<usize> = edges.iter().map(|e| e[s].read_latency_idx).collect();
        assert_eq!(origins, starts, "{ctx}: shard {s} read-latency origins");
        let sliced: Vec<u64> = origins
            .windows(2)
            .flat_map(|o| latencies[o[0]..o[1]].to_vec())
            .collect();
        assert_eq!(sliced, latencies, "{ctx}: shard {s} read latencies");
    }
    run
}

/// The report takes its counts from the run's snapshot.
fn reported(ctx: &str, run: &CounterSnapshot, report: &SimReport) {
    assert_eq!(run.oram_accesses, report.oram_accesses, "{ctx}");
    assert_eq!(
        run.transactions_by_kind, report.transactions_by_kind,
        "{ctx}"
    );
    assert_eq!(run.row_class_by_kind, report.row_class_by_kind, "{ctx}");
    assert_eq!(run.cycles_by_kind, report.cycles_by_kind, "{ctx}");
    assert_eq!(run.protocol, report.protocol, "{ctx}");
}

fn unsharded_windows_add_up(cfg: SystemConfig) {
    let ctx = format!("{} / {:?}", cfg.protocol, cfg.backend);
    let mut sim = Simulation::new(cfg.clone(), traces(&cfg));
    let run = windows_add_up(&ctx, &mut [&mut sim]);
    reported(&ctx, &run, &sim.report());
}

fn sharded_windows_add_up(cfg: SystemConfig) {
    let ctx = format!("{} / {:?} / 2 shards", cfg.protocol, cfg.backend);
    let mut sim = ShardedSimulation::new(cfg.clone(), traces(&cfg));
    let mut shards: Vec<&mut Simulation> = sim.shards_mut().iter_mut().map(|s| &mut **s).collect();
    let run = windows_add_up(&ctx, &mut shards);
    reported(&ctx, &run, &sim.report());
}

#[test]
fn windows_add_up_to_the_run_on_every_protocol_and_backend() {
    for protocol in ProtocolKind::ALL {
        for backend in [BackendKind::CycleAccurate, BackendKind::FastFunctional] {
            unsharded_windows_add_up(cfg(protocol, backend, 1));
        }
    }
}

#[test]
fn windows_add_up_to_the_run_under_faults_and_refresh() {
    unsharded_windows_add_up(faulty(cfg(
        ProtocolKind::RingCb,
        BackendKind::CycleAccurate,
        1,
    )));
    sharded_windows_add_up(faulty(cfg(
        ProtocolKind::RingCb,
        BackendKind::CycleAccurate,
        2,
    )));
}

#[test]
fn merged_shard_windows_add_up_to_the_merged_run() {
    for protocol in ProtocolKind::ALL {
        for backend in [BackendKind::CycleAccurate, BackendKind::FastFunctional] {
            sharded_windows_add_up(cfg(protocol, backend, 2));
        }
    }
}
