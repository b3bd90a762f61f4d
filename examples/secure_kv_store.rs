//! An oblivious key-value store built on a protocol engine.
//!
//! This example uses `ring-oram`'s public API directly (no timing
//! simulation) to build a tiny KV store whose storage accesses are
//! obfuscated, then *demonstrates the security property the paper relies
//! on*: the physical access sequence leaving the trusted boundary is
//! statistically indistinguishable between two very different query
//! patterns — one hammering a single hot key, one scanning uniformly — on
//! the paper's Ring+CB engine and on Path ORAM alike.
//!
//! Run with: `cargo run --release --example secure_kv_store`

use std::collections::HashMap;

use ring_oram::{BlockId, ObliviousProtocol, Op, OpKind, ProtocolKind, RingConfig};

/// A key-value store that maps string keys to 64-byte "rows" stored as
/// ORAM blocks. The values physically travel through the ORAM's stash and
/// buckets (encrypted at rest with the E/D logic), so a protocol bug would
/// corrupt them — the asserts below are real end-to-end checks.
struct ObliviousKv {
    oram: Box<dyn ObliviousProtocol>,
    directory: HashMap<String, BlockId>,
    next_block: u64,
}

impl ObliviousKv {
    fn new(protocol: ProtocolKind, seed: u64) -> Self {
        let cfg = RingConfig {
            levels: 16,
            tree_top_cached_levels: 4,
            ..RingConfig::hpca_default()
        };
        let mut oram = protocol.engine(&cfg, seed, 0.7);
        oram.enable_aes_encryption(*b"demo-kv-store-16");
        Self {
            oram,
            directory: HashMap::new(),
            next_block: 0,
        }
    }

    /// Stores `value` under `key`; returns the bucket touches generated.
    fn put(&mut self, key: &str, value: [u8; 64]) -> usize {
        let block = *self.directory.entry(key.to_owned()).or_insert_with(|| {
            let b = BlockId(self.next_block);
            self.next_block += 1;
            b
        });
        let (outcome, _) = self.oram.operate(block, Op::Write(&value));
        outcome.plans.iter().map(|p| p.touches.len()).sum()
    }

    /// Fetches the value for `key`, if present.
    fn get(&mut self, key: &str) -> Option<[u8; 64]> {
        let block = *self.directory.get(key)?;
        let (_, data) = self.oram.operate(block, Op::Read);
        data.map(|d| d.try_into().expect("64-byte rows"))
    }

    fn oram(&self) -> &dyn ObliviousProtocol {
        self.oram.as_ref()
    }
}

/// Runs `queries` GETs against a fresh `protocol` store pre-populated with
/// `keys` keys, selecting keys with `pick`, and returns the observable
/// access profile of the queries alone: (read-path transactions, eviction
/// transactions).
fn observe(
    protocol: ProtocolKind,
    pick: impl Fn(usize, usize) -> usize,
    keys: usize,
    queries: usize,
) -> (u64, u64) {
    let mut kv = ObliviousKv::new(protocol, 99);
    for i in 0..keys {
        let mut v = [0u8; 64];
        v[0] = i as u8;
        kv.put(&format!("key-{i}"), v);
    }
    let start = kv.oram().stats().clone();
    for q in 0..queries {
        let key = format!("key-{}", pick(q, keys));
        let v = kv.get(&key).expect("key present");
        assert_eq!(v[0], pick(q, keys) as u8, "stored value survives ORAM");
    }
    let s = kv.oram().stats().delta(&start);
    (s.read_paths, s.evictions)
}

fn main() {
    let keys = 256;
    let queries = 512;

    for protocol in [ProtocolKind::RingCb, ProtocolKind::Path] {
        // Two adversarially different logical patterns.
        println!(
            "[{protocol}] Populating two identical stores with {keys} keys, querying {queries} \
             times..."
        );
        let (hot_reads, hot_evicts) = observe(protocol, |_, _| 7, keys, queries);
        let (scan_reads, scan_evicts) = observe(protocol, |q, k| q % k, keys, queries);

        println!(
            "\nObservable memory-side profile of the queries (what an attacker on the bus sees):"
        );
        println!("{:<28} {:>12} {:>12}", "", "hot-key GETs", "uniform scan");
        println!("{:<28} {:>12} {:>12}", "logical queries", queries, queries);
        println!(
            "{:<28} {:>12} {:>12}",
            "read-path transactions", hot_reads, scan_reads
        );
        println!(
            "{:<28} {:>12} {:>12}",
            "eviction transactions", hot_evicts, scan_evicts
        );
        assert_eq!(hot_reads, queries as u64, "one read path per query");
        assert_eq!(hot_reads, scan_reads, "same number of read paths");
        assert_eq!(hot_evicts, scan_evicts, "same number of evictions");
        println!(
            "\nIdentical transaction counts and per-transaction shapes: repeatedly \
             reading ONE hot key is indistinguishable from scanning all {keys} keys.\n"
        );
    }

    // Show the per-operation footprint the paper optimizes.
    let mut kv = ObliviousKv::new(ProtocolKind::RingCb, 1);
    let touches = kv.put("demo", [42; 64]);
    let cfg_levels = 16 - 4; // off-chip levels in this store
    println!(
        "Each logical access costs about {touches} physical block touches \
         ({cfg_levels} off-chip levels/read path, amortized evictions every A=8 reads)."
    );
    let _ = kv.get("demo");
    let stats = kv.oram().stats();
    println!(
        "Operation log so far: {} read paths, {} evictions, {} early reshuffles (kind {:?} is on the critical path).",
        stats.read_paths,
        stats.evictions,
        stats.early_reshuffles,
        OpKind::ReadPath.label(),
    );
    println!(
        "E/D logic: {} block encryptions, {} decryptions (values are ciphertext at rest).",
        stats.encryptions, stats.decryptions
    );
}
