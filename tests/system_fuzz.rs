//! Whole-system fuzzing: random configurations x random traces must always
//! complete, keep every invariant, and account for every cycle and request.
//! Cases are drawn from the in-repo deterministic PRNG so the suite replays
//! bit-identically offline.

use mem_sched::{PagePolicy, SchedulerPolicy};
use oram_rng::{Rng, StdRng};
use string_oram::{LayoutKind, Scheme, Simulation, SystemConfig};
use trace_synth::TraceRecord;

const CASES: u64 = 24;

#[derive(Debug, Clone)]
struct FuzzConfig {
    scheme_sel: u8,
    levels: u32,
    z: u32,
    s_extra: u32,
    a: u32,
    y_frac: u8,
    cached: u32,
    stash: usize,
    cores: usize,
    mlp: usize,
    layout_naive: bool,
    page_closed: bool,
    load: u8,
    lookahead: u64,
}

fn fuzz_config(rng: &mut StdRng) -> FuzzConfig {
    FuzzConfig {
        scheme_sel: rng.gen_range(0u8..4),
        levels: rng.gen_range(10u32..14),
        z: rng.gen_range(2u32..9),
        s_extra: rng.gen_range(0u32..7),
        a: rng.gen_range(1u32..9),
        y_frac: rng.gen_range(0u8..3),
        cached: rng.gen_range(0u32..5),
        stash: rng.gen_range(30usize..200),
        cores: rng.gen_range(1usize..3),
        mlp: rng.gen_range(1usize..5),
        layout_naive: rng.gen::<bool>(),
        page_closed: rng.gen::<bool>(),
        load: rng.gen_range(0u8..10),
        lookahead: rng.gen_range(1u64..4),
    }
}

fn build(f: &FuzzConfig) -> SystemConfig {
    let scheme = match f.scheme_sel {
        0 => Scheme::Baseline,
        1 => Scheme::Cb,
        2 => Scheme::Pb,
        _ => Scheme::All,
    };
    let mut cfg = SystemConfig::test_small(scheme);
    cfg.ring.levels = f.levels;
    cfg.ring.z = f.z;
    cfg.ring.s = f.a + f.s_extra; // S = A + X, the paper's rule
    cfg.ring.a = f.a;
    // y applied only when the scheme uses CB; bounded by min(z, s).
    if scheme.uses_cb() {
        cfg.ring.y = (f.z.min(cfg.ring.s) * u32::from(f.y_frac)) / 2;
        cfg.ring.y = cfg.ring.y.min(f.z).min(cfg.ring.s);
    } else {
        cfg.ring.y = 0;
    }
    cfg.ring.tree_top_cached_levels = f.cached.min(f.levels - 1);
    cfg.ring.stash_capacity = f.stash;
    cfg.cores = f.cores;
    cfg.core_mlp = f.mlp;
    cfg.layout = if f.layout_naive {
        LayoutKind::Naive
    } else {
        LayoutKind::Subtree
    };
    cfg.page_policy = if f.page_closed {
        PagePolicy::Closed
    } else {
        PagePolicy::Open
    };
    cfg.load_factor = f64::from(f.load) / 10.0 * 0.8; // 0.0..=0.72
    if scheme.uses_pb() {
        cfg.sched_policy = SchedulerPolicy::ProactiveBank {
            lookahead: f.lookahead,
        };
    }
    cfg
}

#[test]
fn any_configuration_completes_consistently() {
    let mut checked = 0u64;
    // Walk seeds until CASES valid configurations have been exercised, so
    // invalid draws (rejected by validate()) don't shrink coverage.
    for case in 0.. {
        let mut rng = StdRng::seed_from_u64(case);
        let f = fuzz_config(&mut rng);
        let cfg = build(&f);
        if cfg.validate().is_err() {
            continue;
        }
        let n_blocks = rng.gen_range(5usize..40);
        let blocks: Vec<u64> = (0..n_blocks).map(|_| rng.gen_range(0u64..128)).collect();
        let seed = rng.gen::<u64>();
        let trace: Vec<TraceRecord> = blocks
            .iter()
            .map(|&b| TraceRecord::new((b % 7) as u32, b, b % 2 == 0))
            .collect();
        let traces: Vec<Vec<TraceRecord>> = (0..cfg.cores).map(|_| trace.clone()).collect();
        let mut sim = Simulation::new(cfg.clone(), traces);
        sim.set_label(format!("fuzz-{seed}"));
        let r = sim.run(500_000_000).expect("must complete");

        // Conservation laws.
        assert_eq!(r.oram_accesses, (blocks.len() * cfg.cores) as u64);
        assert_eq!(r.cycles_by_kind.total(), r.total_cycles);
        let classified: u64 = r.row_class_by_kind.values().map(|c| c.total()).sum();
        assert_eq!(classified, r.requests_completed);
        assert!(r.instructions > 0);

        // Protocol-level invariants after the run.
        sim.protocol().check_invariants();

        // Baseline schedulers never issue early commands.
        if !matches!(cfg.sched_policy, SchedulerPolicy::ProactiveBank { .. }) {
            assert_eq!(r.early_precharge_fraction, 0.0);
            assert_eq!(r.early_activate_fraction, 0.0);
        }

        checked += 1;
        if checked == CASES {
            break;
        }
    }
}

#[test]
fn identical_runs_are_bit_identical() {
    let mut checked = 0u64;
    for case in 0.. {
        let mut rng = StdRng::seed_from_u64(case ^ 0x5EED);
        let f = fuzz_config(&mut rng);
        let cfg = build(&f);
        if cfg.validate().is_err() {
            continue;
        }
        let seed = rng.gen::<u64>();
        let trace: Vec<TraceRecord> = (0..25)
            .map(|i| TraceRecord::new(3, seed % 50 + i, i % 3 == 0))
            .collect();
        let run = || {
            let traces: Vec<Vec<TraceRecord>> = (0..cfg.cores).map(|_| trace.clone()).collect();
            let mut sim = Simulation::new(cfg.clone(), traces);
            sim.run(500_000_000).expect("completes")
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.requests_completed, b.requests_completed);
        assert_eq!(a.cycles_by_kind, b.cycles_by_kind);

        checked += 1;
        if checked == CASES {
            break;
        }
    }
}
