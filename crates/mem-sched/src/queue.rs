//! Per-channel read and write request queues.

use std::collections::VecDeque;

use crate::request::Request;

/// Error returned when a queue has no free entry; the ORAM controller must
/// stall and retry (which, as the paper notes, back-pressures the core
/// pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memory request queue is full")
    }
}

impl std::error::Error for QueueFull {}

/// The two request queues of one channel (Table II: 64 read + 64 write
/// entries per channel), stored **per bank**.
///
/// Everything the scheduler asks of a queue is a per-bank question (which
/// requests of the window target this bank, does anyone still want its open
/// row, does it have pending work), so each bank keeps its own
/// arrival-ordered list and a request is named by the stable key
/// (bank, enqueue id) — removing one never renames another. The two
/// direction occupancies are counted beside the lists; which transaction is
/// the oldest is the controller's business (its run-list spans the
/// channels).
///
/// Every list is a ring buffer searched **from the front**: the scheduling
/// views only ever name the *oldest* request of a class, so the request to
/// retire sits at or near the head, the scan that finds it is a handful of
/// compares, and taking it out shifts the few entries before it instead of
/// the whole tail behind it.
#[derive(Debug, Clone)]
pub(crate) struct ChannelQueues {
    /// Queued requests per bank (`rank * banks_per_rank + bank`), each in
    /// arrival order: sorted by enqueue id and, because requests arrive in
    /// transaction order, by transaction id too.
    banks: Vec<VecDeque<Request>>,
    /// Queued reads (`[0]`) and writes (`[1]`).
    dir_len: [usize; 2],
    /// Bit `b % 64` of word `b / 64` is set while bank `b`'s list is
    /// non-empty (any bank count).
    pending: Vec<u64>,
    capacity: usize,
}

impl ChannelQueues {
    /// Queues for a channel of `banks` banks with `capacity` entries per
    /// direction. Every list is sized for the worst case up front (all of
    /// both directions in one bank), so steady-state queueing never
    /// allocates.
    pub fn new(banks: usize, capacity: usize) -> Self {
        Self {
            banks: (0..banks)
                .map(|_| VecDeque::with_capacity(2 * capacity))
                .collect(),
            dir_len: [0; 2],
            pending: vec![0; banks.div_ceil(64)],
            capacity,
        }
    }

    /// Appends a request to bank `b`'s list.
    ///
    /// Requests must arrive in non-decreasing transaction order (the ORAM
    /// controller's natural order, and the [`crate::MemoryBackend`]
    /// contract): this keeps every bank list transaction-sorted, which the
    /// controller's view upkeep relies on.
    pub fn push(&mut self, b: usize, req: Request) -> Result<(), QueueFull> {
        let dir = &mut self.dir_len[usize::from(req.is_write)];
        if *dir >= self.capacity {
            return Err(QueueFull);
        }
        debug_assert!(
            self.banks[b]
                .back()
                .is_none_or(|last| last.id < req.id && last.txn <= req.txn),
            "a bank's list grows in enqueue-id and transaction order"
        );
        *dir += 1;
        self.banks[b].push_back(req);
        self.pending[b / 64] |= 1 << (b % 64);
        Ok(())
    }

    /// Total queued requests.
    pub fn len(&self) -> usize {
        self.dir_len[0] + self.dir_len[1]
    }

    /// Queued requests in one direction.
    pub fn dir_len(&self, is_write: bool) -> usize {
        self.dir_len[usize::from(is_write)]
    }

    /// Configured capacity per direction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The banks that have a queued request, in index order.
    pub fn pending_banks(&self) -> impl Iterator<Item = usize> + '_ {
        self.pending.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let bit = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(64 * w + bit)
            })
        })
    }

    /// Bank `b`'s queued requests, oldest first.
    pub fn bank(&self, b: usize) -> &VecDeque<Request> {
        &self.banks[b]
    }

    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn position(&self, b: usize, id: u64) -> usize {
        self.banks[b]
            .iter()
            .position(|r| r.id == id)
            .expect("scheduling views only name queued requests")
    }

    /// Mutable access to the request with enqueue id `id` in bank `b`.
    pub fn get_mut(&mut self, b: usize, id: u64) -> &mut Request {
        let i = self.position(b, id);
        &mut self.banks[b][i]
    }

    /// Removes the request with enqueue id `id` from bank `b`; returns it
    /// with the position it held, which is where its successors now start.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    pub fn remove(&mut self, b: usize, id: u64) -> (usize, Request) {
        let i = self.position(b, id);
        let req = self.banks[b].remove(i).expect("position is in range");
        if self.banks[b].is_empty() {
            self.pending[b / 64] &= !(1 << (b % 64));
        }
        self.dir_len[usize::from(req.is_write)] -= 1;
        (i, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::TxnId;
    use dram_sim::DramLocation;

    fn req(id: u64, txn: u64, is_write: bool, bank: u32) -> Request {
        Request {
            id,
            txn: TxnId(txn),
            loc: DramLocation {
                channel: 0,
                rank: 0,
                bank,
                row: 0,
                column: 0,
            },
            is_write,
            arrival: 0,
            first_cmd_at: None,
            class: None,
        }
    }

    #[test]
    fn capacity_enforced_per_direction() {
        let mut q = ChannelQueues::new(4, 2);
        q.push(0, req(0, 0, false, 0)).unwrap();
        q.push(0, req(1, 0, false, 0)).unwrap();
        assert_eq!(q.push(0, req(2, 0, false, 0)), Err(QueueFull));
        // Writes have their own capacity.
        q.push(0, req(3, 0, true, 0)).unwrap();
        assert_eq!((q.dir_len(false), q.dir_len(true)), (2, 1));
        assert_eq!(q.len(), 3);
        assert_eq!(q.bank(0).len(), 3, "both directions share the bank list");
    }

    #[test]
    fn remove_returns_request() {
        let mut q = ChannelQueues::new(4, 8);
        q.push(3, req(7, 1, false, 3)).unwrap();
        let (_, r) = q.remove(3, 7);
        assert_eq!(r.id, 7);
        assert_eq!(q.len(), 0);
        assert_eq!(q.pending_banks().count(), 0);
    }

    #[test]
    fn keys_survive_the_removal_of_older_requests() {
        let mut q = ChannelQueues::new(2, 8);
        for id in 0..4 {
            q.push(0, req(id, id, false, 0)).unwrap();
        }
        q.push(1, req(4, 4, false, 1)).unwrap();
        q.remove(0, 1);
        q.get_mut(0, 3).arrival = 9;
        assert_eq!(q.remove(0, 3).1.arrival, 9);
        let left: Vec<u64> = q.bank(0).iter().map(|r| r.id).collect();
        assert_eq!(left, [0, 2]);
        assert_eq!(q.dir_len(false), 3);
    }
    fn ids(q: &ChannelQueues, b: usize) -> Vec<u64> {
        q.bank(b).iter().map(|r| r.id).collect()
    }

    #[test]
    fn removal_anywhere_keeps_arrival_order_and_keys() {
        // Front, middle and back of a ring that has already wrapped.
        let mut q = ChannelQueues::new(2, 4);
        for id in 0..4 {
            q.push(0, req(id, id, false, 0)).unwrap();
        }
        assert_eq!(q.remove(0, 0).0, 0);
        assert_eq!(q.remove(0, 1).0, 0);
        for id in 4..6 {
            q.push(0, req(id, id, false, 0)).unwrap();
        }
        assert_eq!(ids(&q, 0), [2, 3, 4, 5]);
        for (id, at, left) in [(3, 1, vec![2, 4, 5]), (5, 2, vec![2, 4]), (2, 0, vec![4])] {
            let (i, r) = q.remove(0, id);
            assert_eq!((i, r.id, r.txn), (at, id, TxnId(id)));
            assert_eq!(ids(&q, 0), left);
            assert_eq!(q.dir_len(false), left.len());
        }
        q.get_mut(0, 4).arrival = 7;
        assert_eq!(q.remove(0, 4).1.arrival, 7);
        assert_eq!((q.len(), q.pending_banks().count()), (0, 0));
    }

    #[test]
    fn equal_transactions_leave_the_direction_list_one_at_a_time() {
        let mut q = ChannelQueues::new(2, 8);
        for id in 0..3 {
            q.push(0, req(id, 4, false, 0)).unwrap();
        }
        q.push(1, req(3, 6, false, 1)).unwrap();
        let pending = |q: &ChannelQueues| q.pending_banks().collect::<Vec<_>>();
        q.remove(0, 1);
        assert_eq!((q.dir_len(false), pending(&q)), (3, vec![0, 1]));
        q.remove(0, 0);
        q.remove(0, 2);
        assert_eq!((q.dir_len(false), pending(&q)), (1, vec![1]));
    }

    #[test]
    fn pending_banks_follow_push_and_remove() {
        // More banks than one word of the set holds.
        let mut q = ChannelQueues::new(130, 8);
        assert_eq!(q.pending_banks().count(), 0);
        for (id, b) in [(0, 129), (1, 0), (2, 64), (3, 63), (4, 64)] {
            q.push(b, req(id, 0, id % 2 == 1, b as u32)).unwrap();
        }
        let pending = |q: &ChannelQueues| q.pending_banks().collect::<Vec<_>>();
        assert_eq!(pending(&q), [0, 63, 64, 129]);
        q.remove(64, 2);
        assert_eq!(pending(&q), [0, 63, 64, 129], "bank 64 still holds one");
        q.remove(64, 4);
        q.remove(0, 1);
        assert_eq!(pending(&q), [63, 129]);
        q.remove(129, 0);
        q.remove(63, 3);
        assert_eq!(q.pending_banks().count(), 0);
        // A refused push leaves the set alone.
        let mut full = ChannelQueues::new(2, 1);
        full.push(0, req(0, 0, false, 0)).unwrap();
        assert_eq!(full.push(1, req(1, 0, false, 1)), Err(QueueFull));
        assert_eq!(pending(&full), [0]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "transaction order")]
    fn a_bank_list_cannot_go_backwards_in_transaction() {
        // Each direction on its own is in order (one write, one read); the
        // bank's list is not — which the view upkeep relies on.
        let mut q = ChannelQueues::new(2, 8);
        q.push(0, req(0, 5, true, 0)).unwrap();
        let _ = q.push(0, req(1, 4, false, 0));
    }
}
