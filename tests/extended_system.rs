//! System-level tests of the extension features: DDR4 bank groups,
//! recursion, page policies, MLP and energy — all driving the full
//! cores → ORAM → scheduler → DRAM stack.

use dram_sim::geometry::DramGeometry;
use dram_sim::timing::TimingParams;
use mem_sched::{PagePolicy, SchedulerPolicy};
use string_oram::{
    ConfigError, RecursiveConfig, Scheme, ShardedSimulation, SimReport, Simulation, SystemConfig,
};
use trace_synth::{by_name, TraceGenerator, TraceRecord};

fn run_with(tweak: impl FnOnce(&mut SystemConfig), n: usize) -> SimReport {
    let mut cfg = SystemConfig::test_small(Scheme::All);
    tweak(&mut cfg);
    let spec = by_name("black").expect("workload");
    let traces: Vec<Vec<TraceRecord>> = (0..cfg.cores)
        .map(|c| TraceGenerator::new(spec.clone(), 77, c as u32).take_records(n))
        .collect();
    let mut sim = Simulation::new(cfg, traces);
    sim.run(500_000_000).expect("completes")
}

#[test]
fn ddr4_bank_groups_run_end_to_end() {
    let r = run_with(
        |cfg| {
            cfg.geometry = DramGeometry {
                channels: 2,
                ranks_per_channel: 1,
                banks_per_rank: 16,
                bank_groups: 4,
                rows_per_bank: 1 << 13,
                columns_per_row: 64,
                column_bytes: 64,
            };
            cfg.timing = TimingParams::ddr4_2400();
        },
        80,
    );
    assert_eq!(r.oram_accesses, 160);
    assert!(r.total_cycles > 0);
    assert_eq!(r.cycles_by_kind.total(), r.total_cycles);
}

#[test]
fn ddr4_timing_changes_results_but_not_correctness() {
    let ddr3 = run_with(|_| {}, 80);
    let ddr4 = run_with(
        |cfg| {
            cfg.geometry.bank_groups = 4;
            cfg.geometry.banks_per_rank = 16;
            cfg.geometry.rows_per_bank >>= 1;
            cfg.timing = TimingParams::ddr4_2400();
        },
        80,
    );
    assert_ne!(ddr3.total_cycles, ddr4.total_cycles);
    assert_eq!(ddr3.oram_accesses, ddr4.oram_accesses);
}

#[test]
fn recursion_composes_with_pb_and_cb() {
    let r = run_with(
        |cfg| {
            cfg.recursion = Some(RecursiveConfig {
                tracked_blocks: 1 << 12,
                positions_per_block: 8,
                max_onchip_entries: 1 << 6,
            });
        },
        60,
    );
    // 2 map levels on this config: 3x the read transactions.
    assert_eq!(r.transactions_by_kind["read"], 3 * r.oram_accesses);
    assert!(r.early_precharge_fraction > 0.0, "PB active on map traffic");
    assert!(r.protocol.greens_fetched > 0, "CB active on data traffic");
}

#[test]
fn page_policy_and_unconstrained_compose_with_recursion() {
    // Kitchen-sink configuration: every knob at a non-default value.
    let r = run_with(
        |cfg| {
            cfg.page_policy = PagePolicy::Closed;
            cfg.sched_policy = SchedulerPolicy::Unconstrained;
            cfg.core_mlp = 4;
            cfg.recursion = Some(RecursiveConfig {
                tracked_blocks: 1 << 12,
                positions_per_block: 8,
                max_onchip_entries: 1 << 6,
            });
        },
        40,
    );
    assert_eq!(r.oram_accesses, 80);
    let classified: u64 = r.row_class_by_kind.values().map(|c| c.total()).sum();
    assert_eq!(classified, r.requests_completed);
}

/// Hostile recursion settings are configuration errors from
/// `Simulation::try_new` and `ShardedSimulation::try_new`, never a panic
/// while the stack is built.
#[test]
fn hostile_recursion_settings_are_errors_not_panics() {
    let valid = RecursiveConfig::test_small();
    for bad in [
        RecursiveConfig {
            positions_per_block: 0,
            ..valid
        },
        RecursiveConfig {
            positions_per_block: 1,
            ..valid
        },
        RecursiveConfig {
            tracked_blocks: 0,
            ..valid
        },
        RecursiveConfig {
            max_onchip_entries: 0,
            ..valid
        },
        RecursiveConfig {
            tracked_blocks: u64::MAX,
            ..valid
        },
        // Valid arithmetic, but 40 map tiers do not fit the module.
        RecursiveConfig {
            tracked_blocks: 1 << 40,
            positions_per_block: 2,
            max_onchip_entries: 1,
        },
    ] {
        for shards in [1, 2] {
            let mut cfg = SystemConfig::test_small(Scheme::All);
            cfg.recursion = Some(bad);
            cfg.shards = shards;
            let traces = vec![Vec::new(); cfg.cores];
            let err = if shards == 1 {
                Simulation::try_new(cfg, traces).err()
            } else {
                ShardedSimulation::try_new(cfg, traces).err()
            };
            match err {
                Some(ConfigError::Invalid(msg)) => {
                    assert!(msg.contains("recursion") || msg.contains("DRAM"), "{msg}")
                }
                other => panic!("{bad:?} x {shards} shards: expected Invalid, got {other:?}"),
            }
        }
    }
}

/// Every tier is pre-loaded at `cfg.load_factor`, the data ORAM included:
/// with no pre-load, each tier maps exactly the blocks the trace reached on
/// it, and (one core, so the data ORAM sees the trace's order whatever the
/// timing) the data ORAM maps what a flat run maps.
#[test]
fn recursion_honours_the_load_factor() {
    let spec = by_name("black").expect("workload");
    let run = |recursion: Option<RecursiveConfig>, load_factor: f64| {
        let mut cfg = SystemConfig::test_small(Scheme::All);
        cfg.recursion = recursion;
        cfg.load_factor = load_factor;
        cfg.cores = 1;
        let traces = vec![TraceGenerator::new(spec.clone(), 77, 0).take_records(40)];
        let mut blocks: Vec<u64> = traces.iter().flatten().map(|r| r.op.block).collect();
        let mut sim = Simulation::new(cfg, traces);
        sim.run(500_000_000).expect("completes");
        let entries: Vec<usize> = sim.tiers().map(|t| t.position_entries().len()).collect();
        // The blocks each tier was asked for: the trace's, divided down by
        // 8 positions per map block once per tier.
        let mut reached = Vec::new();
        for _ in 0..entries.len() {
            blocks.sort_unstable();
            blocks.dedup();
            reached.push(blocks.len());
            blocks.iter_mut().for_each(|b| *b /= 8);
        }
        (entries, reached)
    };
    let recursion = Some(RecursiveConfig {
        tracked_blocks: 1 << 12,
        positions_per_block: 8,
        max_onchip_entries: 1 << 6,
    });
    let (flat, _) = run(None, 0.0);
    let (entries, reached) = run(recursion, 0.0);
    assert_eq!(entries.len(), 3);
    assert_eq!(
        entries, reached,
        "an unloaded tier maps only what it served"
    );
    assert_eq!(entries[0], flat[0]);
    let (flat, _) = run(None, 0.7);
    let (entries, _) = run(recursion, 0.7);
    assert_eq!(entries[0], flat[0], "same pre-load, same data ORAM");
    assert!(entries[0] > reached[0], "a 0.7 pre-load adds cold blocks");
}

#[test]
fn energy_accounting_is_consistent() {
    let r = run_with(|_| {}, 100);
    let e = r.energy;
    assert!(e.total_uj() > 0.0);
    let sum = e.activate_uj + e.read_uj + e.write_uj + e.background_uj + e.refresh_uj;
    assert!((e.total_uj() - sum).abs() < 1e-9);
    // Dynamic read+write energy must track the request volume.
    assert!(e.read_uj > 0.0 && e.write_uj > 0.0);
    // A longer run of the same config consumes more energy.
    let longer = run_with(|_| {}, 200);
    assert!(longer.energy.total_uj() > e.total_uj());
}

#[test]
fn channel_load_is_balanced_by_oram_randomization() {
    let r = run_with(|_| {}, 300);
    assert!(
        r.channel_imbalance < 1.05,
        "uniform paths should balance channels: {}",
        r.channel_imbalance
    );
}

#[test]
fn mlp_drains_inflight_misses_at_trace_end() {
    // Regression guard: with MLP > 1 the simulation must wait for every
    // in-flight miss before declaring completion.
    let r = run_with(|cfg| cfg.core_mlp = 8, 50);
    assert_eq!(r.oram_accesses, 100);
    assert_eq!(r.cycles_by_kind.total(), r.total_cycles);
}
