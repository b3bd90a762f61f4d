//! A deterministic, fast hasher for the controller's dense integer keys.
//!
//! The engines' hash maps — the stash and the position map's program
//! blocks — are keyed by newtyped `u64`s and sit on the per-access hot
//! path, where `std`'s default SipHash costs more than the table probe it
//! guards. (The bucket tree and the Ring engine's cold blocks' positions
//! are not hashed at all: see `bucket` and `position_map`.) This hasher
//! finalizes each written word with a SplitMix64-style mixer: strong enough avalanche for hashbrown's low-bits index / high-bits
//! tag split, a handful of arithmetic ops per key, and — unlike
//! `RandomState` — no per-process seed, so map layout is reproducible
//! run-to-run (the simulator never depends on iteration order, but
//! determinism keeps debugging sessions comparable).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher state; see the module docs. Use via [`DetHashMap`].
#[derive(Debug, Default, Clone)]
pub struct DetHasher {
    state: u64,
}

/// SplitMix64 finalizer: full-avalanche mix of one word.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer key parts; not on any hot path.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = mix(self.state ^ v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `HashMap` over the deterministic fast hasher.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DetHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let hash = |v: u64| {
            let mut h = DetHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn sequential_keys_spread_low_and_high_bits() {
        // hashbrown derives the bucket index from the low bits and the
        // control tag from the high bits; both must vary across the dense
        // sequential ids the protocol uses.
        let mut low = std::collections::HashSet::new();
        let mut high = std::collections::HashSet::new();
        for v in 0..256u64 {
            let mut h = DetHasher::default();
            h.write_u64(v);
            let f = h.finish();
            low.insert(f & 0xff);
            high.insert(f >> 57);
        }
        assert!(low.len() > 128, "low bits collapse: {}", low.len());
        assert!(high.len() > 64, "high bits collapse: {}", high.len());
    }

    #[test]
    fn byte_writes_match_word_writes_for_whole_words() {
        let mut a = DetHasher::default();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = DetHasher::default();
        b.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_basic_operations() {
        let mut m: DetHashMap<u64, &str> = DetHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.remove(&2), Some("b"));
        assert_eq!(m.len(), 1);
    }
}
