//! Cross-crate integration tests: traces → protocol → scheduler → DRAM.

use string_oram::{Scheme, Simulation, SystemConfig};
use trace_synth::{all_workloads, by_name, usimm, TraceGenerator, TraceRecord};

fn traces(cfg: &SystemConfig, workload: &str, n: usize, seed: u64) -> Vec<Vec<TraceRecord>> {
    let spec = by_name(workload).expect("workload");
    (0..cfg.cores)
        .map(|c| TraceGenerator::new(spec.clone(), seed, c as u32).take_records(n))
        .collect()
}

#[test]
fn every_scheme_completes_every_workload() {
    for scheme in Scheme::ALL {
        for w in all_workloads() {
            let cfg = SystemConfig::test_small(scheme);
            let t = traces(&cfg, w.name, 30, 5);
            let mut sim = Simulation::new(cfg, t);
            let r = sim
                .run(100_000_000)
                .unwrap_or_else(|e| panic!("{}/{} wedged: {e}", w.name, scheme));
            assert_eq!(r.oram_accesses, 60, "{}/{}", w.name, scheme);
            assert_eq!(r.cycles_by_kind.total(), r.total_cycles);
        }
    }
}

#[test]
fn protocol_invariants_survive_a_full_system_run() {
    for scheme in [Scheme::Baseline, Scheme::All] {
        let cfg = SystemConfig::test_small(scheme);
        let t = traces(&cfg, "freq", 120, 9);
        let mut sim = Simulation::new(cfg, t);
        let _ = sim.run(200_000_000).expect("completes");
        sim.protocol().check_invariants();
    }
}

#[test]
fn usimm_traces_drive_the_simulator() {
    // Write a synthetic trace out in USIMM format, parse it back, run it.
    let spec = by_name("swapt").unwrap();
    let mut gen = TraceGenerator::new(spec, 3, 0);
    let original = gen.take_records(50);
    let mut buf = Vec::new();
    usimm::emit(&original, &mut buf).expect("emit");
    let parsed = usimm::parse(buf.as_slice()).expect("parse");
    assert_eq!(parsed, original);

    let mut cfg = SystemConfig::test_small(Scheme::All);
    cfg.cores = 1;
    let mut sim = Simulation::new(cfg, vec![parsed]);
    let r = sim.run(100_000_000).expect("completes");
    assert_eq!(r.oram_accesses, 50);
}

#[test]
fn repeated_blocks_always_return() {
    // A pathological trace that hammers the same 3 blocks: the protocol
    // must keep finding them (stash or tree) without losing any.
    let cfg = SystemConfig::test_small(Scheme::All);
    let hammer: Vec<TraceRecord> = (0..90)
        .map(|i| TraceRecord::new(1, u64::from(i % 3u32), i % 2 == 0))
        .collect();
    let t: Vec<Vec<TraceRecord>> = (0..cfg.cores).map(|_| hammer.clone()).collect();
    let mut sim = Simulation::new(cfg, t);
    let r = sim.run(100_000_000).expect("completes");
    sim.protocol().check_invariants();
    // After warmup, repeat accesses must find the block (not "new").
    let found = r.protocol.targets_from_tree
        + r.protocol.targets_from_stash
        + r.protocol.targets_from_treetop;
    assert_eq!(
        r.protocol.new_blocks, 3,
        "3 distinct blocks shared by cores"
    );
    assert_eq!(found + r.protocol.new_blocks, r.oram_accesses);
}

#[test]
fn mixed_core_workloads_complete() {
    // Different workloads per core (a true multi-programmed mix).
    let cfg = SystemConfig::test_small(Scheme::All);
    let specs = ["libq", "stream"];
    let t: Vec<Vec<TraceRecord>> = (0..cfg.cores)
        .map(|c| {
            TraceGenerator::new(by_name(specs[c % specs.len()]).unwrap(), 8, c as u32)
                .take_records(40)
        })
        .collect();
    let mut sim = Simulation::new(cfg, t);
    let r = sim.run(100_000_000).expect("completes");
    assert_eq!(r.oram_accesses, 80);
}

#[test]
fn reports_are_internally_consistent() {
    let cfg = SystemConfig::test_small(Scheme::All);
    let t = traces(&cfg, "face", 80, 2);
    let mut sim = Simulation::new(cfg, t);
    let r = sim.run(100_000_000).expect("completes");

    // Every transaction kind seen in row classes also appears in counts.
    for kind in r.row_class_by_kind.keys() {
        assert!(
            r.transactions_by_kind.contains_key(kind),
            "row-class kind {kind} missing from transaction counts"
        );
    }
    // Request count equals the sum of classified requests.
    let classified: u64 = r.row_class_by_kind.values().map(|c| c.total()).sum();
    assert_eq!(classified, r.requests_completed);
    // Cycle attribution is exhaustive.
    assert_eq!(r.cycles_by_kind.total(), r.total_cycles);
    // Two cores x 80 records.
    assert!(r.transactions_by_kind["read"] >= 160);
}

#[test]
fn single_core_single_access_minimal_case() {
    let mut cfg = SystemConfig::test_small(Scheme::Baseline);
    cfg.cores = 1;
    let t = vec![vec![TraceRecord::new(0, 42, false)]];
    let mut sim = Simulation::new(cfg, t);
    let r = sim.run(1_000_000).expect("completes");
    assert_eq!(r.oram_accesses, 1);
    assert_eq!(r.transactions_by_kind["read"], 1);
    assert!(r.total_cycles > 0);
}

#[test]
fn naive_layout_is_slower_than_subtree() {
    // The layout ablation: the subtree layout must beat naive BFS
    // placement (this is why the paper builds on it).
    let mk = |layout| {
        let mut cfg = SystemConfig::test_small(Scheme::Baseline);
        cfg.layout = layout;
        let t = traces(&cfg, "black", 100, 4);
        let mut sim = Simulation::new(cfg, t);
        sim.run(200_000_000).expect("completes").total_cycles
    };
    let subtree = mk(string_oram::LayoutKind::Subtree);
    let naive = mk(string_oram::LayoutKind::Naive);
    assert!(
        subtree < naive,
        "subtree {subtree} should beat naive {naive}"
    );
}
