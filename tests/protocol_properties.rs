//! Property-style tests on the core data structures and protocol
//! invariants, driven by the in-repo deterministic PRNG (`oram-rng`) so the
//! suite needs no external crates and produces identical cases offline.

use oram_rng::{Rng, StdRng};
use ring_oram::layout::TreeLayout;
use ring_oram::{
    BlockId, BucketId, Level, ObliviousProtocol, PathId, ProtocolKind, ResilienceConfig,
    RingConfig, RingOram, TreeGeometry,
};
use sim_verify::{MirrorOracle, Rule};

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

/// Drives `oram` through the mirror oracle: `accesses` seeded reads,
/// writes and cover accesses over `blocks` block ids, then a read of every
/// block. Returns the oracle with its findings.
fn mirror_run(oram: &mut dyn ObliviousProtocol, blocks: u64, accesses: u64) -> MirrorOracle {
    let mut oracle = MirrorOracle::new(oram.config().block_bytes as usize);
    let mut ops = StdRng::seed_from_u64(blocks ^ accesses);
    for index in 0..accesses + blocks {
        let (block, op) = match index.checked_sub(accesses) {
            Some(b) => (b, 9),
            None => (ops.gen_range(0..blocks), ops.gen_range(0..10u32)),
        };
        let outcome = match op {
            0 => oram
                .cover_access()
                .expect("every engine has cover accesses"),
            _ => oracle.apply(oram, BlockId(block), op <= 4, index),
        };
        oram.recycle_outcome(outcome);
    }
    oracle
}

/// Transit faults at 5 % under the splitmix cipher, with `retries`
/// re-reads per corrupted fetch.
fn faults(o: &mut dyn ObliviousProtocol, retries: u32) {
    o.enable_encryption(0xF417);
    let mut r = ResilienceConfig::for_stash(o.config().stash_capacity);
    r.bit_flip_rate = 0.05;
    r.max_retries = retries;
    o.enable_resilience(r);
}

/// Every read returns the block's last write — `None` before the first —,
/// on every engine, through evictions, reshuffles, CB greens, covers,
/// the cipher and recovered transit faults: the rows below over all
/// four protocols (random Ring configurations are
/// `data_integrity_under_random_interleavings`). The 12-level rows run
/// Ring long enough for its tree to span three slab chunks; Path and
/// Circuit move a whole path of payloads per access and run shorter.
/// `Y = 4` churns 24 blocks through a
/// small tree whose greens carry payloads through the stash. Without
/// retries an unrecovered fetch loses its payload, and every finding is a
/// read that came back empty.
#[test]
fn mirror_oracle_holds_on_every_engine() {
    use ring_oram::bucket::CHUNK_ROWS;
    let deep = RingConfig {
        levels: 12,
        ..RingConfig::test_small_cb()
    };
    let y4 = RingConfig {
        y: 4,
        ..RingConfig::test_small_cb()
    };
    type Setup = fn(&mut dyn ObliviousProtocol);
    let rows: [(&str, &RingConfig, u64, Setup); 5] = [
        ("plain", &deep, 500, |_| {}),
        ("splitmix", &deep, 500, |o| o.enable_encryption(0x5EA1)),
        ("splitmix, y = 4", &y4, 24, |o| {
            o.enable_encryption(0x5EA1_4B1D)
        }),
        ("splitmix + faults", &deep, 500, |o| faults(o, 6)),
        ("splitmix + faults, no retries", &deep, 500, |o| {
            faults(o, 0)
        }),
    ];
    for kind in ProtocolKind::ALL {
        for (name, ring, blocks, setup) in rows {
            let mut o = kind.engine(ring, 31, 0.5);
            setup(o.as_mut());
            let ring_engine = matches!(kind, ProtocolKind::RingCb | ProtocolKind::Ring);
            let mut oracle = mirror_run(o.as_mut(), blocks, if ring_engine { 2500 } else { 1000 });
            let findings = oracle.take_violations();
            assert!(oracle.reads_checked() > 0 && oracle.writes_checked() > 0);
            let s = o.stats();
            if name.ends_with("no retries") {
                assert!(s.faults_unrecovered > 0, "{kind} {name}: nothing lost");
                assert!(
                    !findings.is_empty(),
                    "{kind} {name}: a lost payload went unseen"
                );
                for v in &findings {
                    assert_eq!(v.rule, Rule::ValueMismatch, "{kind} {name}: {v}");
                    assert!(
                        v.message.ends_with("observed no payload"),
                        "{kind} {name}: {v}"
                    );
                }
            } else {
                assert!(findings.is_empty(), "{kind} {name}: {:?}", findings.first());
            }
            if ring_engine && blocks == 500 {
                assert!(
                    o.materialized_buckets() > 2 * CHUNK_ROWS,
                    "{kind} {name}: {} buckets span fewer than three chunks",
                    o.materialized_buckets()
                );
            }
            if kind == ProtocolKind::RingCb {
                assert!(s.greens_fetched > 0, "{kind} {name}: CB moved no green");
            }
            if name != "plain" {
                assert!(s.encryptions > 0 && s.decryptions > 0, "{kind} {name}");
            }
            if name.ends_with("faults") {
                assert!(s.faults_recovered > 0, "{kind} {name}: no fault to recover");
                assert_eq!(s.faults_unrecovered, 0, "{kind} {name}");
            }
            o.check_invariants();
        }
    }
}

/// The mirror oracle over random Ring configurations: any interleaving of
/// reads, writes and cover accesses over 24 blocks, with or without
/// encryption, across evictions and reshuffles, then a read of every block.
#[test]
fn data_integrity_under_random_interleavings() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let cfg = ring_config(&mut rng);
        let accesses = rng.gen_range(1u64..150);
        let seed = rng.gen::<u64>();
        let mut oram = RingOram::new(cfg, seed);
        if rng.gen_bool(0.5) {
            oram.enable_encryption(seed ^ 0xABCD);
        }
        let mut oracle = mirror_run(&mut oram, 24, accesses);
        let findings = oracle.take_violations();
        assert!(findings.is_empty(), "case {case}: {:?}", findings.first());
        oram.check_invariants();
    }
}

/// The referee is not blind: with transit faults and no cipher, a flipped
/// payload bit has no tag to fail and flows on into the stash, and the
/// mirror oracle must report the read that returns it, on every engine.
#[test]
fn mirror_oracle_flags_a_silently_garbled_payload() {
    for kind in ProtocolKind::ALL {
        let mut o = kind.engine(&RingConfig::test_small_cb(), 5, 0.5);
        let mut r = ResilienceConfig::for_stash(o.config().stash_capacity);
        r.bit_flip_rate = 0.02;
        o.enable_resilience(r);
        let findings = mirror_run(o.as_mut(), 100, 600).take_violations();
        assert!(
            o.stats().faults_injected > 0,
            "{kind}: no transfer corrupted"
        );
        assert_eq!(
            o.stats().faults_detected,
            0,
            "{kind}: a tag without a cipher"
        );
        assert!(
            !findings.is_empty(),
            "{kind}: a garbled payload went unseen"
        );
        for v in &findings {
            assert_eq!(v.rule, Rule::ValueMismatch, "{kind}: {v}");
            assert!(v.message.ends_with("garbled bytes"), "{kind}: {v}");
        }
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
