//! An oblivious patient-record index: demonstrates the `oram-collections`
//! layer and prices it with the timing stack.
//!
//! Scenario (the paper's motivation, made concrete): a hospital keeps a
//! patient-id → record-locator index on untrusted memory. Access-pattern
//! leaks would reveal *which* patients are being looked up and *whether*
//! two queries concern the same patient — exactly what searchable-
//! encryption attacks exploit. The oblivious map makes every lookup cost an
//! identical, key-independent access sequence.
//!
//! Run with: `cargo run --release --example oblivious_index`

use oram_collections::ObliviousMap;
use ring_oram::{RingConfig, RingOram};

fn main() {
    let cfg = RingConfig {
        levels: 16,
        tree_top_cached_levels: 4,
        ..RingConfig::hpca_default()
    };
    let mut index = ObliviousMap::new(Box::new(RingOram::new(cfg.clone(), 0xC11E17)), 4096);

    println!("Loading 1000 patient records into the oblivious index...");
    for i in 0..1000u32 {
        index
            .put(
                format!("patient-{i:04}").as_bytes(),
                format!("shard{:02}/rec{i}", i % 7).as_bytes(),
            )
            .expect("index sized for 4096 entries");
    }

    // Query mix: a celebrity patient hammered repeatedly vs uniform lookups
    // — the attacker-visible cost is identical per query.
    let s0 = index.oram().stats().read_paths;
    for _ in 0..50 {
        let r = index.get(b"patient-0007").expect("sized");
        assert!(r.is_some());
    }
    let hot_cost = index.oram().stats().read_paths - s0;

    let s0 = index.oram().stats().read_paths;
    for i in 0..50u32 {
        let _ = index.get(format!("patient-{:04}", i * 13 % 1500).as_bytes());
    }
    let scan_cost = index.oram().stats().read_paths - s0;

    println!("50 hot-key lookups:   {hot_cost} ORAM read paths");
    println!("50 scattered lookups: {scan_cost} ORAM read paths (incl. misses)");
    assert_eq!(
        hot_cost, scan_cost,
        "per-query cost must be key-independent"
    );

    // Price one lookup with the paper's memory system: each ORAM access is
    // a read path of (levels - cached) blocks plus amortized evictions.
    let per_read = cfg.levels - cfg.tree_top_cached_levels;
    let evict_amortized = (u64::from(cfg.z) + u64::from(cfg.bucket_slots()))
        * u64::from(cfg.levels)
        / u64::from(cfg.a);
    println!(
        "\nCost model: one map lookup = {} ORAM accesses x ({per_read} read-path \
         blocks + ~{evict_amortized} amortized eviction blocks).",
        oram_collections::ObliviousMap::PROBES
    );
    println!(
        "On the paper's DDR3-1600 system a read path takes a few hundred bus \
         cycles (see `cargo run --release --bin stringoram` for exact timing), \
         and String ORAM's CB+PB removes ~30-40% of it."
    );
}
