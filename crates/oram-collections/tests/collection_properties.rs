//! Model-based property tests: each oblivious collection must behave
//! exactly like its `std` counterpart under arbitrary operation sequences,
//! on every protocol engine, while paying a fixed, operation-independent
//! ORAM cost. Sequences come from the in-repo deterministic PRNG so the
//! suite runs identically offline.

use oram_collections::{
    ObliviousArray, ObliviousHeap, ObliviousMap, ObliviousQueue, ObliviousStack,
};
use oram_rng::{Rng, StdRng};
use ring_oram::{ObliviousProtocol, ProtocolKind, RingConfig};

const CASES: u64 = 32;

/// The engine of `kind` over `RingConfig::test_small_cb`'s tree.
fn engine(kind: ProtocolKind, seed: u64) -> Box<dyn ObliviousProtocol> {
    kind.engine(&RingConfig::test_small_cb(), seed, 0.7)
}

/// Case `case`'s engine: the cases cycle through the protocols.
fn engine_for_case(case: u64, seed: u64) -> Box<dyn ObliviousProtocol> {
    engine(
        ProtocolKind::ALL[case as usize % ProtocolKind::ALL.len()],
        seed,
    )
}

#[test]
fn array_matches_vec_model() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let n_ops = rng.gen_range(1usize..120);
        let seed = rng.gen::<u64>();
        let mut arr = ObliviousArray::new(engine_for_case(case, seed), 64);
        let mut model: Vec<Option<Vec<u8>>> = vec![None; 64];
        for _ in 0..n_ops {
            let idx = rng.gen_range(0u64..64);
            let is_set = rng.gen::<bool>();
            let tag = rng.gen::<u8>();
            if is_set {
                let value = vec![tag; (tag % 30) as usize];
                arr.set(idx, &value).expect("in range");
                model[idx as usize] = Some(value);
            } else {
                assert_eq!(arr.get(idx).expect("in range"), model[idx as usize].clone());
            }
        }
        arr.oram().check_invariants();
    }
}

#[test]
fn map_matches_hashmap_model() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case ^ 0x11);
        let n_ops = rng.gen_range(1usize..100);
        let seed = rng.gen::<u64>();
        let mut map = ObliviousMap::new(engine_for_case(case, seed), 256);
        let mut model: std::collections::HashMap<Vec<u8>, Vec<u8>> =
            std::collections::HashMap::new();
        for _ in 0..n_ops {
            let key_sel = rng.gen_range(0u8..24);
            let op = rng.gen_range(0u8..3);
            let tag = rng.gen::<u8>();
            let key = format!("key-{key_sel}").into_bytes();
            match op {
                0 => {
                    let value = vec![tag; 8];
                    // A full probe window is possible but vanishingly rare
                    // at <10% load; treat it as a hard failure.
                    map.put(&key, &value).expect("table far from full");
                    model.insert(key, value);
                }
                1 => {
                    assert_eq!(map.get(&key).expect("sized"), model.get(&key).cloned());
                }
                _ => {
                    assert_eq!(map.remove(&key).expect("sized"), model.remove(&key));
                }
            }
            assert_eq!(map.len() as usize, model.len());
        }
        map.oram().check_invariants();
    }
}

#[test]
fn stack_matches_vec_model() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case ^ 0x22);
        let n_ops = rng.gen_range(1usize..80);
        let seed = rng.gen::<u64>();
        let mut stack = ObliviousStack::new(engine_for_case(case, seed), 128);
        let mut model: Vec<Vec<u8>> = Vec::new();
        for _ in 0..n_ops {
            let is_push = rng.gen::<bool>();
            let tag = rng.gen::<u8>();
            if is_push {
                let value = vec![tag; 4];
                stack.push(&value).expect("capacity 128 not reached");
                model.push(value);
            } else {
                assert_eq!(stack.pop().expect("no size errors"), model.pop());
            }
        }
        assert_eq!(stack.len(), model.len() as u64);
        stack.oram().check_invariants();
    }
}

#[test]
fn map_cost_is_operation_independent() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case ^ 0x33);
        let n_keys = rng.gen_range(2usize..20);
        let seed = rng.gen::<u64>();
        // Whatever mix of hits and misses, every get costs exactly PROBES
        // read paths — the obliviousness contract.
        let mut map = ObliviousMap::new(engine_for_case(case, seed), 256);
        map.put(b"present", b"x").expect("insert");
        for _ in 0..n_keys {
            let k = rng.gen_range(0u16..1000);
            let key = format!("k{k}").into_bytes();
            let before = map.oram().stats().read_paths;
            let _ = map.get(&key).expect("sized");
            assert_eq!(map.oram().stats().read_paths - before, ObliviousMap::PROBES);
        }
    }
}

/// A failed or missed operation makes as many ORAM accesses as a successful
/// one, on every protocol: each row measures one operation's `read_paths`
/// on a fresh collection prepared so it succeeds (`true`) or fails or
/// misses (`false`).
#[test]
fn failed_operations_cost_what_successful_ones_do() {
    type Cost = fn(Box<dyn ObliviousProtocol>, bool) -> u64;
    fn paths(oram: &dyn ObliviousProtocol) -> u64 {
        oram.stats().read_paths
    }
    let operations: [(&str, Cost); 9] = [
        ("stack push", |oram, ok| {
            let mut s = ObliviousStack::new(oram, 2);
            if !ok {
                s.push(b"a").unwrap();
                s.push(b"b").unwrap();
            }
            let before = paths(s.oram());
            assert_eq!(s.push(b"c").is_ok(), ok);
            paths(s.oram()) - before
        }),
        ("stack pop", |oram, ok| {
            let mut s = ObliviousStack::new(oram, 2);
            if ok {
                s.push(b"a").unwrap();
            }
            let before = paths(s.oram());
            assert_eq!(s.pop().unwrap().is_some(), ok);
            paths(s.oram()) - before
        }),
        ("queue enqueue", |oram, ok| {
            let mut q = ObliviousQueue::new(oram, 2);
            if !ok {
                q.enqueue(b"a").unwrap();
                q.enqueue(b"b").unwrap();
            }
            let before = paths(q.oram());
            assert_eq!(q.enqueue(b"c").is_ok(), ok);
            paths(q.oram()) - before
        }),
        ("queue dequeue", |oram, ok| {
            let mut q = ObliviousQueue::new(oram, 2);
            if ok {
                q.enqueue(b"a").unwrap();
            }
            let before = paths(q.oram());
            assert_eq!(q.dequeue().unwrap().is_some(), ok);
            paths(q.oram()) - before
        }),
        ("heap push", |oram, ok| {
            let mut h = ObliviousHeap::new(oram, 3);
            if !ok {
                for k in 0..3 {
                    h.push(k, b"").unwrap();
                }
            }
            let before = paths(h.oram());
            assert_eq!(h.push(9, b"").is_ok(), ok);
            paths(h.oram()) - before
        }),
        ("heap pop_min", |oram, ok| {
            let mut h = ObliviousHeap::new(oram, 3);
            if ok {
                h.push(1, b"").unwrap();
            }
            let before = paths(h.oram());
            assert_eq!(h.pop_min().unwrap().is_some(), ok);
            paths(h.oram()) - before
        }),
        ("map put", |oram, ok| {
            // Four buckets are one probe window: four keys fill it.
            let mut m = ObliviousMap::new(oram, 4);
            if !ok {
                for k in [b"k0", b"k1", b"k2", b"k3"] {
                    m.put(k, b"v").unwrap();
                }
            }
            let before = paths(m.oram());
            assert_eq!(m.put(b"k9", b"v").is_ok(), ok);
            paths(m.oram()) - before
        }),
        ("map remove", |oram, ok| {
            let mut m = ObliviousMap::new(oram, 4);
            if ok {
                m.put(b"k", b"v").unwrap();
            }
            let before = paths(m.oram());
            assert_eq!(m.remove(b"k").unwrap().is_some(), ok);
            paths(m.oram()) - before
        }),
        ("map get", |oram, ok| {
            let mut m = ObliviousMap::new(oram, 4);
            if ok {
                m.put(b"k", b"v").unwrap();
            }
            let before = paths(m.oram());
            assert_eq!(m.get(b"k").unwrap().is_some(), ok);
            paths(m.oram()) - before
        }),
    ];
    for kind in ProtocolKind::ALL {
        for (name, cost) in operations {
            let (succeeded, failed) = (cost(engine(kind, 1), true), cost(engine(kind, 1), false));
            assert_eq!(succeeded, failed, "{kind}: {name}");
        }
    }
}
