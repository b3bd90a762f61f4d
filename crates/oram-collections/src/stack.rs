//! A fixed-capacity oblivious stack.

use ring_oram::{BlockId, ObliviousProtocol, RingConfig, RingOram};

use crate::array::{decode, encode, CollectionError};

/// A bounded stack whose push and pop are each **exactly two ORAM
/// accesses** (one for the element slot, one for the on-ORAM depth
/// counter), so the access sequence reveals neither the operation type nor
/// the stack depth.
///
/// The depth counter lives in a reserved ORAM block rather than client
/// state to illustrate fully-externalized oblivious structures (a client
/// holding only the ORAM key can resume the stack).
///
/// # Examples
///
/// ```
/// use oram_collections::ObliviousStack;
/// use ring_oram::RingConfig;
///
/// let mut s = ObliviousStack::new(RingConfig::test_small(), 32, 9);
/// s.push(b"a").unwrap();
/// s.push(b"b").unwrap();
/// assert_eq!(s.pop().unwrap(), Some(b"b".to_vec()));
/// assert_eq!(s.pop().unwrap(), Some(b"a".to_vec()));
/// assert_eq!(s.pop().unwrap(), None);
/// ```
#[derive(Debug)]
pub struct ObliviousStack {
    oram: RingOram,
    capacity: u64,
    block_bytes: usize,
}

/// Block id of the depth counter (element `i` lives at block `i + 1`).
const DEPTH_SLOT: BlockId = BlockId(0);

impl ObliviousStack {
    /// Creates a stack of at most `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid, `capacity` is zero, or the tree cannot
    /// hold `capacity + 1` blocks at ~50 % utilization.
    #[must_use]
    pub fn new(cfg: RingConfig, capacity: u64, seed: u64) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        assert!(
            (capacity + 1) * 2 <= cfg.real_capacity_blocks(),
            "stack exceeds half the tree's real capacity"
        );
        let block_bytes = cfg.block_bytes as usize;
        assert!(block_bytes >= 12, "blocks must hold the depth counter");
        Self {
            oram: RingOram::new(cfg, seed),
            capacity,
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
        &self.oram
    }

    fn read_depth(&mut self) -> u64 {
        let (_, data) = self.oram.read_block(DEPTH_SLOT);
        match data {
            Some(block) => {
                let raw = decode(&block);
                let mut b = [0u8; 8];
                b.copy_from_slice(&raw[..8]);
                u64::from_le_bytes(b)
            }
            None => 0,
        }
    }

    fn write_depth(&mut self, depth: u64) {
        let encoded = encode(&depth.to_le_bytes(), self.block_bytes).expect("8 bytes always fit");
        let _ = self.oram.write_block(DEPTH_SLOT, &encoded);
    }

    /// Current depth (costs one ORAM access).
    pub fn len(&mut self) -> u64 {
        self.read_depth()
    }

    /// Whether the stack is empty (costs one ORAM access).
    pub fn is_empty(&mut self) -> bool {
        self.read_depth() == 0
    }

    /// Pushes `value`.
    ///
    /// # Errors
    ///
    /// [`CollectionError::Full`] at capacity,
    /// [`CollectionError::ValueTooLarge`] for oversized values.
    pub fn push(&mut self, value: &[u8]) -> Result<(), CollectionError> {
        let encoded = encode(value, self.block_bytes).ok_or(CollectionError::ValueTooLarge {
            len: value.len(),
            max: self.block_bytes - 2,
        })?;
        let depth = self.read_depth();
        if depth >= self.capacity {
            // Dummy write keeps the failed push indistinguishable on the
            // bus from a successful one (same two accesses).
            self.write_depth(depth);
            return Err(CollectionError::Full);
        }
        let _ = self.oram.write_block(BlockId(depth + 1), &encoded);
        self.write_depth(depth + 1);
        Ok(())
    }

    /// Pops the top element; `None` when empty (still performs the same
    /// number of ORAM accesses as a successful pop).
    pub fn pop(&mut self) -> Result<Option<Vec<u8>>, CollectionError> {
        let depth = self.read_depth();
        if depth == 0 {
            // Dummy accesses mirror the successful path.
            let _ = self.oram.read_block(BlockId(1));
            self.write_depth(0);
            return Ok(None);
        }
        let (_, data) = self.oram.read_block(BlockId(depth));
        self.write_depth(depth - 1);
        Ok(data.map(|d| decode(&d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> ObliviousStack {
        ObliviousStack::new(RingConfig::test_small(), 64, 2)
    }

    #[test]
    fn lifo_order() {
        let mut s = stack();
        for i in 0..10u8 {
            s.push(&[i]).unwrap();
        }
        for i in (0..10u8).rev() {
            assert_eq!(s.pop().unwrap(), Some(vec![i]));
        }
        assert_eq!(s.pop().unwrap(), None);
    }

    #[test]
    fn depth_is_persistent_state() {
        let mut s = stack();
        assert!(s.is_empty());
        s.push(b"x").unwrap();
        s.push(b"y").unwrap();
        assert_eq!(s.len(), 2);
        let _ = s.pop().unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn full_stack_rejects_push() {
        let mut s = ObliviousStack::new(RingConfig::test_small(), 3, 4);
        for i in 0..3u8 {
            s.push(&[i]).unwrap();
        }
        assert_eq!(s.push(b"overflow"), Err(CollectionError::Full));
        assert_eq!(s.len(), 3);
        assert_eq!(s.pop().unwrap(), Some(vec![2]));
    }

    #[test]
    fn pop_and_failed_pop_cost_the_same() {
        let mut s = stack();
        s.push(b"x").unwrap();
        let before = s.oram().stats().read_paths;
        let _ = s.pop().unwrap(); // successful: depth read + elem read + depth write
        let ok_cost = s.oram().stats().read_paths - before;
        let before = s.oram().stats().read_paths;
        let _ = s.pop().unwrap(); // empty
        let empty_cost = s.oram().stats().read_paths - before;
        assert_eq!(ok_cost, empty_cost, "pop timing leaks emptiness");
    }

    #[test]
    fn push_after_pop_reuses_slots() {
        let mut s = stack();
        s.push(b"a").unwrap();
        let _ = s.pop().unwrap();
        s.push(b"b").unwrap();
        assert_eq!(s.pop().unwrap(), Some(b"b".to_vec()));
        s.oram().check_invariants();
    }

    #[test]
    fn interleaved_churn() {
        let mut s = stack();
        let mut model = Vec::new();
        for i in 0..100u32 {
            if i % 3 == 2 {
                assert_eq!(
                    s.pop().unwrap(),
                    model.pop(),
                    "model divergence at step {i}"
                );
            } else {
                let v = i.to_le_bytes().to_vec();
                s.push(&v).unwrap();
                model.push(v);
            }
        }
        while let Some(expect) = model.pop() {
            assert_eq!(s.pop().unwrap(), Some(expect));
        }
        assert!(s.is_empty());
    }
}
