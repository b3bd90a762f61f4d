//! A fixed-capacity oblivious hash map.

use ring_oram::{BlockId, ObliviousProtocol, RingConfig, RingOram};

use crate::array::{decode, encode, CollectionError};

/// A fixed-capacity open-addressing hash map whose physical access pattern
/// is independent of the keys: every operation performs **exactly**
/// [`ObliviousMap::PROBES`] ORAM accesses (the full probe window is always
/// walked, hit or miss, get or put), so an observer cannot distinguish
/// hits, misses, inserts or updates, nor correlate operations on equal
/// keys.
///
/// This is the classic fixed-probe construction (as used by oblivious
/// storage systems such as ZeroTrace-style ODS). Capacity is bounded: an
/// insert fails with [`CollectionError::Full`] when all `PROBES` slots of
/// the key's window are occupied by other keys — size the table at most
/// ~50 % full to make that negligible.
///
/// # Examples
///
/// ```
/// use oram_collections::ObliviousMap;
/// use ring_oram::RingConfig;
///
/// let mut map = ObliviousMap::new(RingConfig::test_small(), 128, 7);
/// map.put(b"alice", b"41").unwrap();
/// map.put(b"alice", b"42").unwrap();
/// assert_eq!(map.get(b"alice").unwrap(), Some(b"42".to_vec()));
/// assert_eq!(map.get(b"bob").unwrap(), None);
/// ```
#[derive(Debug)]
pub struct ObliviousMap {
    oram: RingOram,
    buckets: u64,
    block_bytes: usize,
    len: u64,
}

/// One stored entry: `[key_len: u8][key][val_len: u8][val]` inside the
/// length-prefixed block payload.
fn pack_entry(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + key.len() + value.len());
    out.push(key.len() as u8);
    out.extend_from_slice(key);
    out.push(value.len() as u8);
    out.extend_from_slice(value);
    out
}

fn unpack_entry(entry: &[u8]) -> Option<(&[u8], &[u8])> {
    let klen = *entry.first()? as usize;
    let key = entry.get(1..1 + klen)?;
    let vlen = *entry.get(1 + klen)? as usize;
    let value = entry.get(2 + klen..2 + klen + vlen)?;
    Some((key, value))
}

/// FNV-1a, stable across platforms (determinism matters for tests).
fn hash(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl ObliviousMap {
    /// Probe-window size: every operation touches exactly this many slots.
    pub const PROBES: u64 = 4;

    /// Creates a map over `buckets` slots (each one ORAM block).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid, `buckets < PROBES`, or the tree cannot
    /// hold the table at ~50 % utilization.
    #[must_use]
    pub fn new(cfg: RingConfig, buckets: u64, seed: u64) -> Self {
        assert!(buckets >= Self::PROBES, "need at least PROBES buckets");
        assert!(
            buckets * 2 <= cfg.real_capacity_blocks(),
            "table exceeds half the tree's real capacity"
        );
        let block_bytes = cfg.block_bytes as usize;
        Self {
            oram: RingOram::new(cfg, seed),
            buckets,
            block_bytes,
            len: 0,
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying ORAM engine (for statistics and invariant checks).
    #[must_use]
    pub fn oram(&self) -> &dyn ObliviousProtocol {
        &self.oram
    }

    /// Maximum combined key+value bytes per entry.
    #[must_use]
    pub fn entry_bytes(&self) -> usize {
        self.block_bytes - 4 // block length prefix + two entry length bytes
    }

    fn slot(&self, key: &[u8], probe: u64) -> BlockId {
        BlockId((hash(key).wrapping_add(probe)) % self.buckets)
    }

    fn check_sizes(&self, key: &[u8], value: &[u8]) -> Result<(), CollectionError> {
        let len = key.len() + value.len();
        if key.len() > u8::MAX as usize
            || value.len() > u8::MAX as usize
            || len > self.entry_bytes()
        {
            Err(CollectionError::ValueTooLarge {
                len,
                max: self.entry_bytes(),
            })
        } else {
            Ok(())
        }
    }

    /// Looks `key` up, always walking the full probe window (`PROBES` ORAM
    /// accesses) so hits and misses are indistinguishable.
    ///
    /// # Errors
    ///
    /// [`CollectionError::ValueTooLarge`] for oversized keys.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, CollectionError> {
        self.check_sizes(key, &[])?;
        let mut found = None;
        for probe in 0..Self::PROBES {
            let slot = self.slot(key, probe);
            let (_, data) = self.oram.read_block(slot);
            if found.is_none() {
                if let Some(block) = data {
                    let entry = decode(&block);
                    if let Some((k, v)) = unpack_entry(&entry) {
                        if k == key {
                            found = Some(v.to_vec());
                        }
                    }
                }
            }
        }
        Ok(found)
    }

    /// Inserts or updates `key`, always walking the full probe window and
    /// rewriting exactly one slot (every probe is a read-modify-write ORAM
    /// access, so position and success are hidden).
    ///
    /// # Errors
    ///
    /// [`CollectionError::ValueTooLarge`] or [`CollectionError::Full`] when
    /// the key's whole probe window is occupied by other keys.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), CollectionError> {
        self.check_sizes(key, value)?;
        let mut target: Option<(BlockId, bool)> = None; // (slot, was_update)
                                                        // Pass 1: read the full window obliviously, remembering the first
                                                        // usable slot (matching key wins over first empty).
        let mut first_empty = None;
        for probe in 0..Self::PROBES {
            let slot = self.slot(key, probe);
            let (_, data) = self.oram.read_block(slot);
            match data {
                Some(block) => {
                    let entry = decode(&block);
                    match unpack_entry(&entry) {
                        Some((k, _)) if k == key && target.is_none() => {
                            target = Some((slot, true));
                        }
                        Some(_) => {}
                        None if first_empty.is_none() => first_empty = Some(slot),
                        None => {}
                    }
                }
                None if first_empty.is_none() => first_empty = Some(slot),
                None => {}
            }
        }
        let (slot, update) = match target.or(first_empty.map(|s| (s, false))) {
            Some(t) => t,
            None => return Err(CollectionError::Full),
        };
        // Pass 2: one write (the slot choice is secret; on the bus this is
        // just another ORAM access).
        let entry = pack_entry(key, value);
        let encoded = encode(&entry, self.block_bytes).expect("checked sizes");
        let _ = self.oram.write_block(slot, &encoded);
        if !update {
            self.len += 1;
        }
        Ok(())
    }

    /// Removes `key`, walking the full probe window; returns the old value.
    ///
    /// # Errors
    ///
    /// [`CollectionError::ValueTooLarge`] for oversized keys.
    pub fn remove(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, CollectionError> {
        self.check_sizes(key, &[])?;
        let mut found: Option<(BlockId, Vec<u8>)> = None;
        for probe in 0..Self::PROBES {
            let slot = self.slot(key, probe);
            let (_, data) = self.oram.read_block(slot);
            if found.is_none() {
                if let Some(block) = data {
                    let entry = decode(&block);
                    if let Some((k, v)) = unpack_entry(&entry) {
                        if k == key {
                            found = Some((slot, v.to_vec()));
                        }
                    }
                }
            }
        }
        match found {
            Some((slot, old)) => {
                // Tombstone: an empty (zero-length) payload marks a free
                // slot; written through the same oblivious path.
                let encoded = encode(&[], self.block_bytes).expect("fits");
                let _ = self.oram.write_block(slot, &encoded);
                self.len -= 1;
                Ok(Some(old))
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> ObliviousMap {
        ObliviousMap::new(RingConfig::test_small(), 128, 3)
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let mut m = map();
        assert!(m.is_empty());
        m.put(b"k1", b"v1").unwrap();
        m.put(b"k2", b"v2").unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(b"k1").unwrap(), Some(b"v1".to_vec()));
        assert_eq!(m.get(b"k2").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(m.remove(b"k1").unwrap(), Some(b"v1".to_vec()));
        assert_eq!(m.get(b"k1").unwrap(), None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(b"k1").unwrap(), None);
    }

    #[test]
    fn update_in_place() {
        let mut m = map();
        m.put(b"k", b"old").unwrap();
        m.put(b"k", b"new").unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(b"k").unwrap(), Some(b"new".to_vec()));
    }

    #[test]
    fn every_get_costs_exactly_probes_accesses() {
        let mut m = map();
        m.put(b"present", b"1").unwrap();
        let before = m.oram().stats().read_paths;
        let _ = m.get(b"present").unwrap(); // hit
        let _ = m.get(b"absent!").unwrap(); // miss
        let after = m.oram().stats().read_paths;
        assert_eq!(after - before, 2 * ObliviousMap::PROBES);
    }

    #[test]
    fn tombstone_slots_are_reusable() {
        let mut m = map();
        m.put(b"a", b"1").unwrap();
        m.remove(b"a").unwrap();
        m.put(b"a", b"2").unwrap();
        assert_eq!(m.get(b"a").unwrap(), Some(b"2".to_vec()));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn many_keys_survive() {
        let mut m = ObliviousMap::new(RingConfig::test_small(), 256, 9);
        let n = 60u32; // ~23 % load keeps probe-window overflow negligible
        for i in 0..n {
            m.put(format!("key{i}").as_bytes(), format!("val{i}").as_bytes())
                .unwrap();
        }
        for i in 0..n {
            assert_eq!(
                m.get(format!("key{i}").as_bytes()).unwrap(),
                Some(format!("val{i}").into_bytes()),
                "key{i}"
            );
        }
        m.oram().check_invariants();
    }

    #[test]
    fn full_window_reports_full() {
        // Force collisions with a tiny table: 4 buckets = one shared window.
        let mut m = ObliviousMap::new(RingConfig::test_small(), 4, 5);
        let mut inserted = 0;
        let mut full = false;
        for i in 0..10u32 {
            match m.put(format!("k{i}").as_bytes(), b"v") {
                Ok(()) => inserted += 1,
                Err(CollectionError::Full) => {
                    full = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(full, "a 4-slot table must fill");
        assert!(inserted <= 4);
        assert_eq!(m.len(), inserted);
    }

    #[test]
    fn oversized_entries_rejected() {
        let mut m = map();
        let big = vec![b'x'; 100];
        assert!(matches!(
            m.put(&big, b"v"),
            Err(CollectionError::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn entry_packing_roundtrip() {
        let e = pack_entry(b"key", b"value");
        let (k, v) = unpack_entry(&e).unwrap();
        assert_eq!(k, b"key");
        assert_eq!(v, b"value");
        // Tombstone (empty payload) unpacks to an empty-key entry or None.
        assert!(unpack_entry(&[]).is_none());
    }
}
