//! Reproduction-shape tests: the paper's qualitative results must hold at
//! test scale. These are the guardrails for the figure harnesses in
//! `crates/bench` — if these pass, the full-scale figures have the right
//! shape (who wins, in which direction, with sane magnitudes).

use string_oram::{fig4_rows, table5_rows, Scheme, SimReport, Simulation, SystemConfig};
use trace_synth::{by_name, TraceGenerator, TraceRecord};

fn run(
    scheme: Scheme,
    workload: &str,
    n: usize,
    tweak: impl FnOnce(&mut SystemConfig),
) -> SimReport {
    let mut cfg = SystemConfig::test_small(scheme);
    tweak(&mut cfg);
    let spec = by_name(workload).expect("workload");
    let traces: Vec<Vec<TraceRecord>> = (0..cfg.cores)
        .map(|c| TraceGenerator::new(spec.clone(), 21, c as u32).take_records(n))
        .collect();
    let mut sim = Simulation::new(cfg, traces);
    sim.set_label(format!("{workload}/{scheme}"));
    sim.run(u64::MAX).expect("completes")
}

#[test]
fn fig10_shape_scheme_ordering() {
    // Fig. 10: CB < baseline, PB < baseline, ALL < min(CB, PB).
    let base = run(Scheme::Baseline, "black", 200, |_| {});
    let cb = run(Scheme::Cb, "black", 200, |_| {});
    let pb = run(Scheme::Pb, "black", 200, |_| {});
    let all = run(Scheme::All, "black", 200, |_| {});
    assert!(cb.total_cycles < base.total_cycles);
    assert!(pb.total_cycles < base.total_cycles);
    assert!(all.total_cycles <= cb.total_cycles);
    assert!(all.total_cycles <= pb.total_cycles);
    // Magnitudes: improvements are substantial but below 70 %.
    let saving = 1.0 - all.total_cycles as f64 / base.total_cycles as f64;
    assert!((0.05..0.7).contains(&saving), "ALL saving {saving}");
}

#[test]
fn fig5b_shape_read_paths_defeat_subtree_layout() {
    // Fig. 5(b): read-path conflict rate far above eviction conflict rate.
    let r = run(Scheme::Baseline, "libq", 200, |_| {});
    let read = r.row_class(ring_oram::OpKind::ReadPath);
    let evict = r.row_class(ring_oram::OpKind::Eviction);
    assert!(
        read.conflict_rate() > 0.4,
        "read conflict rate {:.2} too low",
        read.conflict_rate()
    );
    assert!(
        evict.conflict_rate() < 0.3,
        "evict conflict rate {:.2} too high",
        evict.conflict_rate()
    );
    assert!(read.conflict_rate() > 2.0 * evict.conflict_rate());
}

#[test]
fn fig11_shape_queueing_time_improves() {
    // Fig. 11: every optimized scheme shortens queue waits.
    let base = run(Scheme::Baseline, "face", 200, |_| {});
    let all = run(Scheme::All, "face", 200, |_| {});
    assert!(all.mean_read_queue_wait < base.mean_read_queue_wait);
    assert!(all.mean_write_queue_wait < base.mean_write_queue_wait);
}

#[test]
fn fig12_shape_pb_cuts_idle_time_and_issues_early() {
    // Fig. 12(a): bank idle proportion drops under PB.
    // Fig. 12(b): a large fraction of PRE/ACT issue early.
    let base = run(Scheme::Baseline, "ferret", 200, |_| {});
    let pb = run(Scheme::Pb, "ferret", 200, |_| {});
    assert!(pb.bank_idle_proportion < base.bank_idle_proportion);
    assert!(
        pb.pending_bank_idle_proportion < base.pending_bank_idle_proportion,
        "pending-work idle must drop: {:.3} vs {:.3}",
        pb.pending_bank_idle_proportion,
        base.pending_bank_idle_proportion
    );
    assert_eq!(base.early_precharge_fraction, 0.0);
    assert!(
        pb.early_precharge_fraction > 0.2,
        "early PRE fraction {:.2}",
        pb.early_precharge_fraction
    );
    assert!(
        pb.early_activate_fraction > 0.2,
        "early ACT fraction {:.2}",
        pb.early_activate_fraction
    );
}

#[test]
fn fig13_shape_greens_increase_with_y() {
    // Fig. 13: greens fetched per read grow monotonically with Y.
    let mut greens = Vec::new();
    for y in [0u32, 4, 8] {
        let r = run(Scheme::Cb, "black", 300, |cfg| {
            cfg.ring.y = y;
        });
        greens.push(r.protocol.greens_per_read());
    }
    assert_eq!(greens[0], 0.0);
    assert!(greens[1] > 0.0);
    assert!(greens[2] >= greens[1]);
}

#[test]
fn fig14_shape_small_stash_forces_background_evictions() {
    // Fig. 14: a too-small stash triggers background evictions under
    // aggressive CB; a large stash does not.
    let small = run(Scheme::Cb, "black", 300, |cfg| {
        cfg.ring.y = 8;
        cfg.ring.stash_capacity = 12;
    });
    let large = run(Scheme::Cb, "black", 300, |cfg| {
        cfg.ring.y = 8;
        cfg.ring.stash_capacity = 500;
    });
    assert!(
        small.protocol.background_evictions > 0,
        "tiny stash must trigger background evictions"
    );
    assert_eq!(large.protocol.background_evictions, 0);
    assert!(small.total_cycles > 0 && large.total_cycles > 0);
}

#[test]
fn fig15_shape_stash_occupancy_stays_bounded() {
    // Fig. 15: run-time stash occupancy is sampled every read and stays
    // below the provisioned bound (plus transient eviction slack).
    let r = run(Scheme::All, "freq", 400, |_| {});
    assert_eq!(r.protocol.stash_samples.len() as u64, r.oram_accesses);
    let cap = 200; // test_small stash capacity
    let max = *r.protocol.stash_samples.iter().max().unwrap();
    assert!(max < cap + 100, "stash peaked at {max}");
}

#[test]
fn fig4_and_table5_match_paper_exactly() {
    // Analytic space results are exact, not shapes.
    let fig4 = fig4_rows();
    assert_eq!(fig4.len(), 4);
    assert!((fig4[3].efficiency() - 0.3556).abs() < 1e-3);
    let t5 = table5_rows();
    let totals: Vec<u64> = t5.iter().map(|r| r.total_gib().round() as u64).collect();
    assert_eq!(totals, vec![20, 18, 16, 14, 12]);
}

#[test]
fn workload_insensitivity_of_the_optimization() {
    // The paper: variation of the improvement across applications is tiny
    // (< 0.38 %) because ORAM randomization hides workload structure. At
    // our (much shorter) scale we check a loose version: the ALL-scheme
    // saving is positive and within a 25-point band across workloads.
    let mut savings = Vec::new();
    for w in ["black", "libq", "stream"] {
        let base = run(Scheme::Baseline, w, 150, |_| {});
        let all = run(Scheme::All, w, 150, |_| {});
        savings.push(1.0 - all.total_cycles as f64 / base.total_cycles as f64);
    }
    for s in &savings {
        assert!(*s > 0.0, "saving {s}");
    }
    let spread = savings.iter().cloned().fold(f64::MIN, f64::max)
        - savings.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 0.25, "savings spread {spread}: {savings:?}");
}

#[test]
fn ring_vs_path_oram_bandwidth_ablation() {
    // Ring ORAM's raison d'etre: lower bandwidth than Path ORAM.
    let path_cfg = ring_oram::RingConfig::test_small().z_slot();
    let mut path = ring_oram::PathOram::from_ring(path_cfg, 5);
    let mut path_blocks = 0u64;
    for i in 0..200 {
        let out = path.access(ring_oram::BlockId(i % 40));
        path_blocks += out
            .plans
            .iter()
            .map(|p| (p.reads() + p.writes()) as u64)
            .sum::<u64>();
        path.recycle_outcome(out);
    }

    let ring_cfg = ring_oram::RingConfig::test_small();
    let mut ring = ring_oram::RingOram::new(ring_cfg, 5);
    let mut ring_blocks = 0u64;
    for i in 0..200 {
        let out = ring.access(ring_oram::BlockId(i % 40));
        ring_blocks += out
            .plans
            .iter()
            .map(|p| (p.reads() + p.writes()) as u64)
            .sum::<u64>();
    }
    // Overall bandwidth advantage (paper quotes 2.3-4x for tuned configs;
    // our small test config must still show a clear win).
    assert!(
        ring_blocks < path_blocks,
        "ring {ring_blocks} vs path {path_blocks}"
    );
    // Online (critical-path) advantage is much larger: Z x per level.
    let ring_online = 8; // 1 block per level, 8 levels
    let path_online = 4 * 8; // Z=4 blocks per level
    assert_eq!(path_online / ring_online, 4);
}
