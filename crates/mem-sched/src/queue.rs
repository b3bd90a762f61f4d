//! Per-channel read and write request queues.

use crate::request::{Request, TxnId};

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
/// direction capacities and the transaction order are tracked beside the
/// lists, in [`Self::txns`].
#[derive(Debug, Clone)]
pub(crate) struct ChannelQueues {
    /// Queued requests per bank (`rank * banks_per_rank + bank`), each in
    /// arrival order, i.e. sorted by enqueue id.
    banks: Vec<Vec<Request>>,
    /// Transaction ids of the queued reads (`[0]`) and writes (`[1]`) in
    /// arrival order. Requests arrive in non-decreasing transaction order
    /// per direction, so each list is sorted: its length is the direction's
    /// occupancy and its head the direction's oldest transaction.
    txns: [Vec<TxnId>; 2],
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
                .map(|_| Vec::with_capacity(2 * capacity))
                .collect(),
            txns: [Vec::with_capacity(capacity), Vec::with_capacity(capacity)],
            capacity,
        }
    }

    /// Inserts a request into bank `b`'s list.
    ///
    /// Requests must arrive in non-decreasing transaction order per
    /// direction (the ORAM controller's natural order); this keeps
    /// [`Self::min_txn`] O(1).
    pub fn push(&mut self, b: usize, req: Request) -> Result<(), QueueFull> {
        let dir = &mut self.txns[usize::from(req.is_write)];
        if dir.len() >= self.capacity {
            return Err(QueueFull);
        }
        debug_assert!(
            dir.last().is_none_or(|&last| last <= req.txn),
            "requests must be enqueued in transaction order"
        );
        debug_assert!(
            self.banks[b].last().is_none_or(|last| last.id < req.id),
            "enqueue ids must increase"
        );
        dir.push(req.txn);
        self.banks[b].push(req);
        Ok(())
    }

    /// Whether a request of the given direction would be accepted.
    pub fn has_room(&self, is_write: bool) -> bool {
        self.dir_len(is_write) < self.capacity
    }

    /// Total queued requests.
    pub fn len(&self) -> usize {
        self.txns[0].len() + self.txns[1].len()
    }

    /// Queued requests in one direction.
    pub fn dir_len(&self, is_write: bool) -> usize {
        self.txns[usize::from(is_write)].len()
    }

    /// Configured capacity per direction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Smallest transaction id among queued requests, if any. O(1): both
    /// direction lists are transaction-sorted (see [`Self::push`]) and
    /// removal preserves order.
    pub fn min_txn(&self) -> Option<TxnId> {
        match (self.txns[0].first(), self.txns[1].first()) {
            (Some(&a), Some(&b)) => Some(a.min(b)),
            (Some(&a), None) | (None, Some(&a)) => Some(a),
            (None, None) => None,
        }
    }

    /// Whether each bank, in index order, has a queued request.
    pub fn banks_pending(&self) -> impl Iterator<Item = bool> + '_ {
        self.banks.iter().map(|list| !list.is_empty())
    }

    /// Bank `b`'s queued requests, oldest first.
    pub fn bank(&self, b: usize) -> &[Request] {
        &self.banks[b]
    }

    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn position(&self, b: usize, id: u64) -> usize {
        self.banks[b]
            .binary_search_by_key(&id, |r| r.id)
            .expect("scheduling views only name queued requests")
    }

    /// Mutable access to the request with enqueue id `id` in bank `b`.
    pub fn get_mut(&mut self, b: usize, id: u64) -> &mut Request {
        let i = self.position(b, id);
        &mut self.banks[b][i]
    }

    /// Removes and returns the request with enqueue id `id` in bank `b`.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    pub fn remove(&mut self, b: usize, id: u64) -> Request {
        let i = self.position(b, id);
        let req = self.banks[b].remove(i);
        let dir = &mut self.txns[usize::from(req.is_write)];
        let t = dir
            .binary_search(&req.txn)
            .expect("every queued request has its transaction listed");
        dir.remove(t);
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(q.has_room(true));
        assert!(!q.has_room(false));
        assert_eq!(q.len(), 3);
        assert_eq!(q.bank(0).len(), 3, "both directions share the bank list");
    }

    #[test]
    fn min_txn_spans_both_queues() {
        let mut q = ChannelQueues::new(4, 8);
        q.push(0, req(0, 5, false, 0)).unwrap();
        q.push(1, req(1, 3, true, 1)).unwrap();
        assert_eq!(q.min_txn(), Some(TxnId(3)));
        q.remove(1, 1);
        assert_eq!(q.min_txn(), Some(TxnId(5)));
    }

    #[test]
    fn remove_returns_request() {
        let mut q = ChannelQueues::new(4, 8);
        q.push(3, req(7, 1, false, 3)).unwrap();
        let r = q.remove(3, 7);
        assert_eq!(r.id, 7);
        assert_eq!(q.len(), 0);
        assert_eq!(q.min_txn(), None);
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
        assert_eq!(q.remove(0, 3).arrival, 9);
        let left: Vec<u64> = q.bank(0).iter().map(|r| r.id).collect();
        assert_eq!(left, [0, 2]);
        assert_eq!(q.min_txn(), Some(TxnId(0)));
        assert_eq!(q.dir_len(false), 3);
    }
}
