//! A fixed-capacity oblivious min-heap (priority queue).

use ring_oram::{BlockId, ObliviousProtocol, Op};

use crate::array::{checked_block_bytes, decode, encode, CollectionError};

/// A bounded binary min-heap whose operations perform a **fixed number of
/// ORAM accesses determined only by the capacity**: both `push` and
/// `pop_min` walk the full `ceil(log2(capacity + 1))` levels with a constant
/// number of accesses per level, padding with dummy accesses when the live
/// path is shorter — and a push into a full heap or a pop from an empty one
/// makes the same accesses as one that succeeds.
///
/// Which *indices* those accesses touch depends on the data — but every
/// index is an ORAM block, and the ORAM makes accesses to different blocks
/// indistinguishable; only the access *count* could leak, and it is fixed.
/// This is the standard way data structures inherit obliviousness from an
/// ORAM substrate.
///
/// Keys are `u64` priorities (smallest first) with byte-payload values.
///
/// # Examples
///
/// ```
/// use oram_collections::ObliviousHeap;
/// use ring_oram::{ProtocolKind, RingConfig};
///
/// let engine = ProtocolKind::RingCb.engine(&RingConfig::test_small_cb(), 4, 0.7);
/// let mut h = ObliviousHeap::new(engine, 31);
/// h.push(30, b"low").unwrap();
/// h.push(10, b"high").unwrap();
/// h.push(20, b"mid").unwrap();
/// assert_eq!(h.pop_min().unwrap(), Some((10, b"high".to_vec())));
/// assert_eq!(h.pop_min().unwrap(), Some((20, b"mid".to_vec())));
/// assert_eq!(h.pop_min().unwrap(), Some((30, b"low".to_vec())));
/// assert_eq!(h.pop_min().unwrap(), None);
/// ```
#[derive(Debug)]
pub struct ObliviousHeap {
    oram: Box<dyn ObliviousProtocol>,
    capacity: u64,
    levels: u32,
    block_bytes: usize,
}

const SIZE_SLOT: BlockId = BlockId(0);

/// Entry wire format inside a block payload: `[key: 8 bytes][value...]`.
fn pack(key: u64, value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + value.len());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(value);
    out
}

fn unpack(entry: &[u8]) -> (u64, Vec<u8>) {
    let mut k = [0u8; 8];
    k.copy_from_slice(&entry[..8]);
    (u64::from_le_bytes(k), entry[8..].to_vec())
}

impl ObliviousHeap {
    /// Creates a heap of at most `capacity` entries backed by `oram`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, or the tree cannot hold `capacity + 2`
    /// blocks at ~50 % utilization.
    #[must_use]
    pub fn new(oram: Box<dyn ObliviousProtocol>, capacity: u64) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        let block_bytes = checked_block_bytes(oram.as_ref(), capacity + 2);
        assert!(block_bytes >= 12, "blocks must hold a key");
        let levels = 64 - (capacity + 1).leading_zeros();
        Self {
            oram,
            capacity,
            levels,
            block_bytes,
        }
    }

    /// Declared capacity.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The underlying ORAM engine (for statistics and invariant checks).
    #[must_use]
    pub fn oram(&self) -> &dyn ObliviousProtocol {
        self.oram.as_ref()
    }

    fn read_size(&mut self) -> u64 {
        let (_, data) = self.oram.operate(SIZE_SLOT, Op::Read);
        data.map_or(0, |b| {
            let raw = decode(b);
            let mut s = [0u8; 8];
            s.copy_from_slice(&raw[..8]);
            u64::from_le_bytes(s)
        })
    }

    fn write_size(&mut self, size: u64) {
        let encoded = encode(&size.to_le_bytes(), self.block_bytes).expect("8 bytes fit");
        let _ = self.oram.operate(SIZE_SLOT, Op::Write(&encoded));
    }

    /// Current entry count (costs one ORAM access).
    pub fn len(&mut self) -> u64 {
        self.read_size()
    }

    /// Whether the heap is empty (costs one ORAM access).
    pub fn is_empty(&mut self) -> bool {
        self.read_size() == 0
    }

    fn read_entry(&mut self, idx: u64) -> Option<(u64, Vec<u8>)> {
        let (_, data) = self.oram.operate(BlockId(idx), Op::Read);
        data.map(|b| unpack(&decode(b)))
    }

    fn write_entry(&mut self, idx: u64, key: u64, value: &[u8]) {
        let entry = pack(key, value);
        let encoded = encode(&entry, self.block_bytes).expect("checked at push");
        let _ = self.oram.operate(BlockId(idx), Op::Write(&encoded));
    }

    /// Scratch block used by dummy accesses (outside the heap's range, so
    /// dummies can never corrupt live entries).
    fn scratch_slot(&self) -> BlockId {
        BlockId(self.capacity + 1)
    }

    /// One dummy ORAM read (padding; indistinguishable on the bus).
    fn dummy_read(&mut self) {
        let slot = self.scratch_slot();
        let _ = self.oram.access(slot);
    }

    /// One dummy ORAM write (padding; indistinguishable on the bus).
    fn dummy_write(&mut self) {
        let slot = self.scratch_slot();
        let encoded = encode(&pack(u64::MAX, &[]), self.block_bytes).expect("fits");
        let _ = self.oram.operate(slot, Op::Write(&encoded));
    }

    /// Inserts `(key, value)`. Fixed cost: exactly `3 + 2 * levels` ORAM
    /// accesses (the size read, 1 read + 1 write per level, the settling
    /// write and the size write, padded with dummies), full or not.
    ///
    /// # Errors
    ///
    /// [`CollectionError::Full`] at capacity,
    /// [`CollectionError::ValueTooLarge`] for oversized values.
    pub fn push(&mut self, key: u64, value: &[u8]) -> Result<(), CollectionError> {
        if 8 + value.len() > self.block_bytes - 2 {
            return Err(CollectionError::ValueTooLarge {
                len: value.len(),
                max: self.block_bytes - 10,
            });
        }
        let size = self.read_size();
        if size >= self.capacity {
            // The sift-up's and the settling write's accesses, as dummies.
            for _ in 0..self.levels {
                self.dummy_read();
                self.dummy_write();
            }
            self.dummy_write();
            self.write_size(size);
            return Err(CollectionError::Full);
        }
        // Sift up from the new leaf, always touching exactly `levels`
        // tree levels (one read + one write each), padding beyond the live
        // path with scratch-slot dummies.
        let mut idx = size + 1; // heap indices are 1-based over blocks 1..
        let carry_key = key;
        let carry_val = value.to_vec();
        let mut live = true;
        for _ in 0..self.levels {
            if live && idx > 1 {
                let parent = idx / 2;
                let (pk, pv) = self
                    .read_entry(parent)
                    .expect("parents of live nodes exist");
                if pk > carry_key {
                    // Move the parent down into this slot, carry upward.
                    self.write_entry(idx, pk, &pv);
                    idx = parent;
                } else {
                    // Settle here; the remaining levels become dummies.
                    self.write_entry(idx, carry_key, &carry_val);
                    live = false;
                }
            } else if live {
                // Reached the root while still carrying.
                self.dummy_read();
                self.write_entry(idx, carry_key, &carry_val);
                live = false;
            } else {
                self.dummy_read();
                self.dummy_write();
            }
        }
        if live {
            // Carried all the way: idx is the root by construction.
            self.write_entry(idx, carry_key, &carry_val);
        } else {
            self.dummy_write();
        }
        self.write_size(size + 1);
        Ok(())
    }

    /// Removes and returns the minimum entry. Fixed cost: exactly
    /// `5 + 4 * levels` ORAM accesses — 2 reads + 2 writes per level plus
    /// header/root handling — with empty pops performing the same dummy
    /// pattern.
    pub fn pop_min(&mut self) -> Result<Option<(u64, Vec<u8>)>, CollectionError> {
        let size = self.read_size();
        if size == 0 {
            // Mirror the successful pattern with dummies (2 header-adjacent
            // reads, 4 per level, and the tail settle write).
            self.dummy_read();
            self.dummy_read();
            for _ in 0..self.levels {
                self.dummy_read();
                self.dummy_read();
                self.dummy_write();
                self.dummy_write();
            }
            self.dummy_write();
            self.write_size(0);
            return Ok(None);
        }
        let min = self.read_entry(1).expect("nonempty heap has a root");
        let (mut hole_key, mut hole_val) = self.read_entry(size).expect("last live entry exists");
        if size == 1 {
            hole_key = u64::MAX;
            hole_val.clear();
        }
        // Sift down from the root over exactly `levels` iterations with
        // exactly 2 reads + 2 writes per level.
        let mut idx = 1u64;
        let mut live = size > 1;
        for _ in 0..self.levels {
            if !live {
                self.dummy_read();
                self.dummy_read();
                self.dummy_write();
                self.dummy_write();
                continue;
            }
            let left = idx * 2;
            let right = idx * 2 + 1;
            let lk = if left < size {
                self.read_entry(left)
            } else {
                self.dummy_read();
                None
            };
            let rk = if right < size {
                self.read_entry(right)
            } else {
                self.dummy_read();
                None
            };
            let chosen = match (lk, rk) {
                (Some((lk, lv)), Some((rk, rv))) => {
                    if lk <= rk {
                        Some((left, lk, lv))
                    } else {
                        Some((right, rk, rv))
                    }
                }
                (Some((lk, lv)), None) => Some((left, lk, lv)),
                _ => None,
            };
            match chosen {
                Some((child, ck, cv)) if ck < hole_key => {
                    // Promote the smaller child; the hole moves down.
                    self.write_entry(idx, ck, &cv);
                    self.dummy_write();
                    idx = child;
                }
                _ => {
                    // Settle the hole value here.
                    self.write_entry(idx, hole_key, &hole_val);
                    self.dummy_write();
                    live = false;
                }
            }
        }
        if live {
            self.write_entry(idx, hole_key, &hole_val);
        } else {
            self.dummy_write();
        }
        self.write_size(size - 1);
        Ok(Some(min))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::engines;

    /// A heap of `capacity` on each protocol.
    fn heaps(capacity: u64) -> impl Iterator<Item = ObliviousHeap> {
        engines(6).map(move |oram| ObliviousHeap::new(oram, capacity))
    }

    #[test]
    fn min_order() {
        for mut h in heaps(63) {
            for k in [50u64, 10, 40, 20, 30] {
                h.push(k, &k.to_le_bytes()).unwrap();
            }
            for expect in [10u64, 20, 30, 40, 50] {
                let (k, v) = h.pop_min().unwrap().expect("nonempty");
                assert_eq!(k, expect);
                assert_eq!(v, expect.to_le_bytes().to_vec());
            }
            assert_eq!(h.pop_min().unwrap(), None);
        }
    }

    #[test]
    fn duplicate_keys_all_come_out() {
        for mut h in heaps(63) {
            for _ in 0..5 {
                h.push(7, b"dup").unwrap();
            }
            for _ in 0..5 {
                assert_eq!(h.pop_min().unwrap(), Some((7, b"dup".to_vec())));
            }
            assert!(h.is_empty());
        }
    }

    #[test]
    fn capacity_enforced() {
        for mut h in heaps(3) {
            for k in 0..3u64 {
                h.push(k, b"").unwrap();
            }
            assert_eq!(h.push(9, b""), Err(CollectionError::Full));
            assert_eq!(h.len(), 3);
        }
    }

    #[test]
    fn model_based_churn() {
        for mut h in heaps(63) {
            let mut model = std::collections::BinaryHeap::new(); // max-heap
            let mut x = 12345u64;
            for i in 0..120u32 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                if i % 3 == 2 {
                    let got = h.pop_min().unwrap().map(|(k, _)| k);
                    let expect = model.pop().map(|std::cmp::Reverse(k)| k);
                    assert_eq!(got, expect, "step {i}");
                } else if model.len() < 63 {
                    let key = x % 1000;
                    h.push(key, b"v").unwrap();
                    model.push(std::cmp::Reverse(key));
                }
            }
            while let Some(std::cmp::Reverse(expect)) = model.pop() {
                assert_eq!(h.pop_min().unwrap().map(|(k, _)| k), Some(expect));
            }
            h.oram().check_invariants();
        }
    }

    #[test]
    fn operation_cost_is_fixed() {
        for (mut h, mut fresh) in heaps(63).zip(heaps(63)) {
            let levels = u64::from(h.levels);
            // Cost of a push into an empty heap...
            let before = h.oram().stats().read_paths;
            h.push(5, b"x").unwrap();
            let empty_push = h.oram().stats().read_paths - before;
            assert_eq!(empty_push, 3 + 2 * levels, "the documented push cost");
            // ...equals the cost of a push into a loaded heap.
            for k in 0..20u64 {
                h.push(k * 3, b"y").unwrap();
            }
            let before = h.oram().stats().read_paths;
            h.push(1, b"z").unwrap();
            let loaded_push = h.oram().stats().read_paths - before;
            assert_eq!(empty_push, loaded_push, "push cost varies with content");

            // Pop cost: loaded vs empty.
            let before = h.oram().stats().read_paths;
            let _ = h.pop_min().unwrap();
            let loaded_pop = h.oram().stats().read_paths - before;
            assert_eq!(loaded_pop, 5 + 4 * levels, "the documented pop cost");
            let before = fresh.oram().stats().read_paths;
            let _ = fresh.pop_min().unwrap();
            let empty_pop = fresh.oram().stats().read_paths - before;
            assert_eq!(loaded_pop, empty_pop, "pop cost leaks emptiness");
        }
    }

    #[test]
    fn oversized_value_rejected() {
        for mut h in heaps(63) {
            let big = vec![0u8; 64];
            assert!(matches!(
                h.push(1, &big),
                Err(CollectionError::ValueTooLarge { .. })
            ));
        }
    }
}
