//! A fixed-capacity oblivious FIFO queue.

use ring_oram::{BlockId, ObliviousProtocol, Op};

use crate::array::{checked_block_bytes, decode, encode, CollectionError};

/// A bounded FIFO ring buffer whose enqueue and dequeue each cost a fixed
/// number of ORAM accesses (a header read, one element access, a header
/// write), independent of occupancy and of whether the operation succeeds.
///
/// Layout on the ORAM: block 0 holds the `(head, len)` header; element
/// slot `i` lives at block `i + 1` with `i` in `0..capacity`.
///
/// # Examples
///
/// ```
/// use oram_collections::ObliviousQueue;
/// use ring_oram::{ProtocolKind, RingConfig};
///
/// let engine = ProtocolKind::Ring.engine(&RingConfig::test_small(), 3, 0.7);
/// let mut q = ObliviousQueue::new(engine, 16);
/// q.enqueue(b"first").unwrap();
/// q.enqueue(b"second").unwrap();
/// assert_eq!(q.dequeue().unwrap(), Some(b"first".to_vec()));
/// assert_eq!(q.dequeue().unwrap(), Some(b"second".to_vec()));
/// assert_eq!(q.dequeue().unwrap(), None);
/// ```
#[derive(Debug)]
pub struct ObliviousQueue {
    oram: Box<dyn ObliviousProtocol>,
    capacity: u64,
    block_bytes: usize,
}

const HEADER_SLOT: BlockId = BlockId(0);

impl ObliviousQueue {
    /// Creates a queue of at most `capacity` elements backed by `oram`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, or the tree cannot hold `capacity + 1`
    /// blocks at ~50 % utilization.
    #[must_use]
    pub fn new(oram: Box<dyn ObliviousProtocol>, capacity: u64) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        let block_bytes = checked_block_bytes(oram.as_ref(), capacity + 1);
        assert!(block_bytes >= 18, "blocks must hold the header");
        Self {
            oram,
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
        self.oram.as_ref()
    }

    fn read_header(&mut self) -> (u64, u64) {
        let (_, data) = self.oram.operate(HEADER_SLOT, Op::Read);
        match data {
            Some(block) => {
                let raw = decode(block);
                let mut head = [0u8; 8];
                let mut len = [0u8; 8];
                head.copy_from_slice(&raw[..8]);
                len.copy_from_slice(&raw[8..16]);
                (u64::from_le_bytes(head), u64::from_le_bytes(len))
            }
            None => (0, 0),
        }
    }

    fn write_header(&mut self, head: u64, len: u64) {
        let mut raw = [0u8; 16];
        raw[..8].copy_from_slice(&head.to_le_bytes());
        raw[8..].copy_from_slice(&len.to_le_bytes());
        let encoded = encode(&raw, self.block_bytes).expect("16 bytes fit");
        let _ = self.oram.operate(HEADER_SLOT, Op::Write(&encoded));
    }

    /// Current occupancy (costs one ORAM access).
    pub fn len(&mut self) -> u64 {
        self.read_header().1
    }

    /// Whether the queue is empty (costs one ORAM access).
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Appends `value` at the tail.
    ///
    /// # Errors
    ///
    /// [`CollectionError::Full`] at capacity,
    /// [`CollectionError::ValueTooLarge`] for oversized values.
    pub fn enqueue(&mut self, value: &[u8]) -> Result<(), CollectionError> {
        let encoded = encode(value, self.block_bytes).ok_or(CollectionError::ValueTooLarge {
            len: value.len(),
            max: self.block_bytes - 2,
        })?;
        let (head, len) = self.read_header();
        if len >= self.capacity {
            // Dummy accesses mirror the successful path on the bus.
            let _ = self.oram.access(BlockId(1));
            self.write_header(head, len);
            return Err(CollectionError::Full);
        }
        let tail = (head + len) % self.capacity;
        let _ = self.oram.operate(BlockId(tail + 1), Op::Write(&encoded));
        self.write_header(head, len + 1);
        Ok(())
    }

    /// Removes and returns the head element; `None` when empty (with the
    /// same access count as a successful dequeue).
    pub fn dequeue(&mut self) -> Result<Option<Vec<u8>>, CollectionError> {
        let (head, len) = self.read_header();
        if len == 0 {
            let _ = self.oram.access(BlockId(1));
            self.write_header(head, 0);
            return Ok(None);
        }
        let value = self.oram.operate(BlockId(head + 1), Op::Read).1.map(decode);
        self.write_header((head + 1) % self.capacity, len - 1);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::engines;

    /// A queue of `capacity` on each protocol.
    fn queues(capacity: u64) -> impl Iterator<Item = ObliviousQueue> {
        engines(8).map(move |oram| ObliviousQueue::new(oram, capacity))
    }

    #[test]
    fn fifo_order() {
        for mut q in queues(16) {
            for i in 0..10u8 {
                q.enqueue(&[i]).unwrap();
            }
            for i in 0..10u8 {
                assert_eq!(q.dequeue().unwrap(), Some(vec![i]));
            }
            assert_eq!(q.dequeue().unwrap(), None);
        }
    }

    #[test]
    fn wraps_around_the_ring() {
        for mut q in queues(4) {
            // Fill, drain half, refill past the physical end.
            for i in 0..4u8 {
                q.enqueue(&[i]).unwrap();
            }
            assert_eq!(q.dequeue().unwrap(), Some(vec![0]));
            assert_eq!(q.dequeue().unwrap(), Some(vec![1]));
            q.enqueue(&[4]).unwrap();
            q.enqueue(&[5]).unwrap();
            for expect in 2..=5u8 {
                assert_eq!(q.dequeue().unwrap(), Some(vec![expect]));
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn full_queue_rejects() {
        for mut q in queues(2) {
            q.enqueue(b"a").unwrap();
            q.enqueue(b"b").unwrap();
            assert_eq!(q.enqueue(b"c"), Err(CollectionError::Full));
            assert_eq!(q.len(), 2);
            assert_eq!(q.dequeue().unwrap(), Some(b"a".to_vec()));
        }
    }

    #[test]
    fn dequeue_cost_is_occupancy_independent() {
        for mut q in queues(16) {
            q.enqueue(b"x").unwrap();
            let before = q.oram().stats().read_paths;
            let _ = q.dequeue().unwrap();
            let ok_cost = q.oram().stats().read_paths - before;
            let before = q.oram().stats().read_paths;
            let _ = q.dequeue().unwrap(); // empty
            let empty_cost = q.oram().stats().read_paths - before;
            assert_eq!(ok_cost, empty_cost);
        }
    }

    #[test]
    fn model_based_churn() {
        for mut q in queues(16) {
            let mut model = std::collections::VecDeque::new();
            for i in 0..200u32 {
                if i % 5 == 4 || (i % 3 == 0 && !model.is_empty()) {
                    assert_eq!(q.dequeue().unwrap(), model.pop_front(), "step {i}");
                } else if model.len() < 16 {
                    let v = i.to_le_bytes().to_vec();
                    q.enqueue(&v).unwrap();
                    model.push_back(v);
                }
            }
            assert_eq!(q.len(), model.len() as u64);
            q.oram().check_invariants();
        }
    }
}
