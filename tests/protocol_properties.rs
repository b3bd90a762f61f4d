//! Property-style tests on the core data structures and protocol
//! invariants, driven by the in-repo deterministic PRNG (`oram-rng`) so the
//! suite needs no external crates and produces identical cases offline.

use oram_rng::{Rng, StdRng};
use ring_oram::layout::TreeLayout;
use ring_oram::{
    BlockId, BucketId, Level, ObliviousProtocol, PathId, RingConfig, RingOram, TreeGeometry,
};

/// Number of random cases per property (mirrors the old proptest setting).
const CASES: u64 = 64;

/// Draws a valid small Ring ORAM configuration.
fn ring_config(rng: &mut StdRng) -> RingConfig {
    let levels = rng.gen_range(4u32..10);
    let z = rng.gen_range(2u32..7);
    let s = rng.gen_range(1u32..7);
    let a = rng.gen_range(1u32..6);
    let cached_raw = rng.gen_range(0u32..4);
    let y = z.min(s) / 2;
    RingConfig {
        levels,
        z,
        s,
        a,
        y,
        block_bytes: 64,
        stash_capacity: 500,
        tree_top_cached_levels: cached_raw.min(levels - 1),
    }
}

#[test]
fn tree_bucket_at_level_of_roundtrip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let levels = rng.gen_range(1u32..21);
        let t = TreeGeometry::new(levels);
        for _ in 0..32 {
            let path = PathId(rng.gen_range(0..t.leaf_count()));
            for lvl in 0..levels {
                let b = t.bucket_at(path, Level(lvl));
                assert_eq!(t.level_of(b), Level(lvl));
                assert!(t.on_path(b, path));
            }
        }
    }
}

#[test]
fn reverse_lex_is_a_permutation() {
    for levels in 1u32..=14 {
        let t = TreeGeometry::new(levels);
        let mut seen = std::collections::HashSet::new();
        for g in 0..t.leaf_count() {
            seen.insert(t.reverse_lexicographic_path(g));
        }
        assert_eq!(seen.len() as u64, t.leaf_count());
    }
}

#[test]
fn shared_depth_is_prefix_length() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let levels = rng.gen_range(2u32..17);
        let t = TreeGeometry::new(levels);
        let pa = PathId(rng.gen_range(0..t.leaf_count()));
        let pb = PathId(rng.gen_range(0..t.leaf_count()));
        let d = t.shared_depth(pa, pb).0;
        // The level-d buckets agree, the level-(d+1) buckets differ.
        assert_eq!(t.bucket_at(pa, Level(d)), t.bucket_at(pb, Level(d)));
        if d < t.max_level() {
            assert_ne!(t.bucket_at(pa, Level(d + 1)), t.bucket_at(pb, Level(d + 1)));
        } else {
            assert_eq!(pa, pb);
        }
    }
}

#[test]
fn subtree_layout_is_injective_and_bounded() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let cfg = ring_config(&mut rng);
        let window = 1u64 << rng.gen_range(10u32..17);
        let layout = TreeLayout::subtree(&cfg, window);
        let mut seen = std::collections::HashSet::new();
        for b in 0..cfg.bucket_count() {
            for s in 0..cfg.bucket_slots() {
                let a = layout.addr_of(BucketId(b), s);
                assert!(a < layout.total_bytes());
                assert!(seen.insert(a), "case {case}: duplicate address {a}");
            }
        }
    }
}

#[test]
fn subtree_slots_never_straddle_windows() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let cfg = ring_config(&mut rng);
        let window = 1u64 << rng.gen_range(10u32..17);
        let layout = TreeLayout::subtree(&cfg, window);
        for b in (0..cfg.bucket_count()).step_by(7) {
            let first = layout.addr_of(BucketId(b), 0);
            let last = layout.addr_of(BucketId(b), cfg.bucket_slots() - 1)
                + u64::from(cfg.block_bytes)
                - 1;
            assert_eq!(first / window, last / window, "bucket {b} straddles");
        }
    }
}

#[test]
fn naive_layout_is_dense() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let cfg = ring_config(&mut rng);
        let layout = TreeLayout::naive(&cfg);
        assert_eq!(
            layout.total_bytes(),
            cfg.bucket_count() * cfg.bucket_bytes()
        );
    }
}

#[test]
fn protocol_invariants_hold_for_random_access_sequences() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let cfg = ring_config(&mut rng);
        let n = rng.gen_range(1usize..120);
        let seed = rng.gen::<u64>();
        let load = f64::from(rng.gen_range(0u32..11)) / 10.0;
        let mut oram = RingOram::with_load_factor(cfg, seed, load);
        for _ in 0..n {
            let outcome = oram.access(BlockId(rng.gen_range(0u64..64)));
            // Read-path plans touch exactly one block per off-chip level.
            let read_plan = outcome
                .plans
                .iter()
                .find(|p| p.kind == ring_oram::OpKind::ReadPath)
                .expect("every access has a read path");
            let off_chip = oram.config().levels - oram.config().tree_top_cached_levels;
            assert_eq!(read_plan.reads(), off_chip as usize);
            assert_eq!(read_plan.writes(), 0);
        }
        oram.check_invariants();
        // Conservation: every program access was sourced somewhere.
        let s = oram.stats();
        assert_eq!(
            s.new_blocks + s.targets_from_tree + s.targets_from_stash + s.targets_from_treetop,
            s.read_paths
        );
    }
}

#[test]
fn eviction_interval_is_exact() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let cfg = ring_config(&mut rng);
        let n = rng.gen_range(10usize..100);
        let a = cfg.a;
        let mut oram = RingOram::new(cfg, 7);
        let mut reads = 0u64;
        let mut evictions = 0u64;
        for i in 0..n {
            let outcome = oram.access(BlockId(i as u64));
            reads += 1;
            for p in &outcome.plans {
                if p.kind == ring_oram::OpKind::Eviction {
                    evictions += 1;
                }
            }
            // Background evictions also consume read-path slots, so count
            // dummy reads too.
            reads += outcome
                .plans
                .iter()
                .filter(|p| p.kind == ring_oram::OpKind::DummyReadPath)
                .count() as u64;
        }
        assert_eq!(evictions, reads / u64::from(a), "case {case}: A = {a}");
    }
}

#[test]
fn data_integrity_under_random_interleavings() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let cfg = ring_config(&mut rng);
        let n_ops = rng.gen_range(1usize..150);
        let seed = rng.gen::<u64>();
        let encrypt = rng.gen_bool(0.5);
        // A model-based test: a plain HashMap is the reference; the ORAM
        // must agree with it after any interleaving of reads and writes,
        // with or without encryption, across evictions and reshuffles.
        let block_bytes = cfg.block_bytes as usize;
        let mut oram = RingOram::new(cfg, seed);
        if encrypt {
            oram.enable_encryption(seed ^ 0xABCD);
        }
        let mut model: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        for _ in 0..n_ops {
            let block = rng.gen_range(0u64..24);
            let is_write = rng.gen_bool(0.5);
            let tag = rng.gen::<u8>();
            if is_write {
                let data = vec![tag; block_bytes];
                let _ = oram.write(BlockId(block), &data);
                model.insert(block, tag);
            } else {
                let (_, data) = oram.read(BlockId(block));
                match model.get(&block) {
                    Some(&tag) => {
                        let d = data.expect("written block must have data");
                        assert_eq!(d, vec![tag; block_bytes]);
                    }
                    None => assert_eq!(data, None),
                }
            }
        }
        // Final sweep: every model entry is still intact.
        let keys: Vec<u64> = model.keys().copied().collect();
        for block in keys {
            let (_, data) = oram.read(BlockId(block));
            assert_eq!(data, Some(vec![model[&block]; block_bytes]));
        }
        oram.check_invariants();
    }
}

#[test]
fn bucket_slot_reads_are_unique_between_shuffles() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let z = rng.gen_range(1u32..9);
        let s = rng.gen_range(1u32..9);
        let y = z.min(s) / 2;
        let cfg = RingConfig {
            levels: 4,
            z,
            s,
            a: 2,
            y,
            block_bytes: 64,
            stash_capacity: 100,
            tree_top_cached_levels: 0,
        };
        let blocks: Vec<BlockId> = (0..u64::from(z / 2)).map(BlockId).collect();
        let mut owned = ring_oram::bucket::OwnedBucket::with_blocks(&cfg, &blocks, &mut rng);
        let mut bucket = owned.view();
        let mut seen = std::collections::HashSet::new();
        while !bucket.peek().needs_reshuffle(&cfg) {
            let (slot, _, _) = bucket.serve_read(&cfg, None, &mut rng);
            assert!(seen.insert(slot), "case {case}: slot {slot} read twice");
        }
        assert!(seen.len() as u32 <= cfg.s);
    }
}
