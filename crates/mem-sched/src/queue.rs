//! Per-channel read and write request queues.

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

/// A queued request's handle: the index of its entry in its channel's
/// slab. A request keeps its entry from enqueue to retirement, so a handle
/// stays valid — and names the same request — while no other request's
/// arrival or removal moves it.
pub(crate) type Slot = u32;

/// The end of a bank's list.
const NIL: Slot = Slot::MAX;

/// One slab entry: a queued request and its links in its bank's list.
#[derive(Debug, Clone)]
struct Entry {
    req: Request,
    /// Channel-local bank index, `rank * banks_per_rank + bank`.
    bank: u32,
    /// The next older and next younger request of the bank (`NIL`: none).
    prev: Slot,
    next: Slot,
}

/// A bank's list: its oldest and youngest entries (`NIL` when empty).
#[derive(Debug, Clone, Copy)]
struct List {
    head: Slot,
    tail: Slot,
}

/// The two request queues of one channel (Table II: 64 read + 64 write
/// entries per channel): one slab of entries, and per bank an
/// arrival-ordered list threaded through it.
///
/// Everything the scheduler asks of a queue is a per-bank question (which
/// requests of the window target this bank, does anyone still want its open
/// row, does it have pending work), so each bank's requests are linked in
/// arrival order; a request is named by its [`Slot`], which no other
/// request's removal changes. Enqueue appends to a bank's list and a
/// removal unlinks one entry: neither moves a request. The two direction
/// occupancies are counted beside the lists; which transaction is the
/// oldest is the controller's business (its run-list spans the channels).
#[derive(Debug, Clone)]
pub(crate) struct ChannelQueues {
    /// Entries ever used, never more than both directions' capacity (the
    /// slab is sized to that up front and never grows past it).
    entries: Vec<Entry>,
    /// Freed entries, reused before a fresh one, the last freed first.
    free: Vec<Slot>,
    /// Each bank's list, oldest first: sorted by enqueue id and, because
    /// requests arrive in transaction order, by transaction id too.
    banks: Vec<List>,
    /// Queued reads (`[0]`) and writes (`[1]`).
    dir_len: [usize; 2],
    /// Bit `b % 64` of word `b / 64` is set while bank `b`'s list is
    /// non-empty (any bank count).
    pending: Vec<u64>,
    capacity: usize,
}

/// A bank's requests from one entry on, oldest first, with their slots.
#[derive(Clone)]
pub(crate) struct Iter<'a> {
    entries: &'a [Entry],
    at: Slot,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (Slot, &'a Request);

    fn next(&mut self) -> Option<Self::Item> {
        let slot = self.at;
        let entry = self.entries.get(slot as usize)?;
        self.at = entry.next;
        Some((slot, &entry.req))
    }
}

impl ChannelQueues {
    /// Queues for a channel of `banks` banks with `capacity` entries per
    /// direction: one slab of `2 * capacity` entries, allocated here, so
    /// steady-state queueing never allocates.
    pub(crate) fn new(banks: usize, capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(2 * capacity),
            free: Vec::with_capacity(2 * capacity),
            banks: vec![
                List {
                    head: NIL,
                    tail: NIL
                };
                banks
            ],
            dir_len: [0; 2],
            pending: vec![0; banks.div_ceil(64)],
            capacity,
        }
    }

    /// Appends a request to bank `b`'s list; returns its slot.
    ///
    /// Requests must arrive in non-decreasing transaction order (the ORAM
    /// controller's natural order, and the [`crate::MemoryBackend`]
    /// contract): this keeps every bank list transaction-sorted, which the
    /// controller's view upkeep relies on.
    #[inline]
    pub(crate) fn push(&mut self, b: usize, req: Request) -> Result<Slot, QueueFull> {
        let dir = &mut self.dir_len[usize::from(req.is_write)];
        if *dir >= self.capacity {
            return Err(QueueFull);
        }
        *dir += 1;
        let tail = self.banks[b].tail;
        debug_assert!(
            tail == NIL || {
                let last = self.get(tail);
                last.id < req.id && last.txn <= req.txn
            },
            "a bank's list grows in enqueue-id and transaction order"
        );
        let entry = Entry {
            req,
            bank: b as u32,
            prev: tail,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = entry;
                slot
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as Slot
            }
        };
        match tail {
            NIL => self.banks[b].head = slot,
            tail => self.entries[tail as usize].next = slot,
        }
        self.banks[b].tail = slot;
        self.pending[b / 64] |= 1 << (b % 64);
        Ok(slot)
    }

    /// Total queued requests.
    pub(crate) fn len(&self) -> usize {
        self.dir_len[0] + self.dir_len[1]
    }

    /// Queued requests in one direction.
    pub(crate) fn dir_len(&self, is_write: bool) -> usize {
        self.dir_len[usize::from(is_write)]
    }

    /// Configured capacity per direction.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The banks that have a queued request, in index order.
    pub(crate) fn pending_banks(&self) -> impl Iterator<Item = usize> + '_ {
        self.pending.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let bit = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(64 * w + bit)
            })
        })
    }

    /// Whether bank `b` has no queued request.
    pub(crate) fn bank_is_empty(&self, b: usize) -> bool {
        self.banks[b].head == NIL
    }

    /// Bank `b`'s queued requests, oldest first.
    pub(crate) fn bank(&self, b: usize) -> Iter<'_> {
        self.from(self.banks[b].head)
    }

    /// The requests of `slot`'s bank from `slot` on, oldest first; nothing
    /// for `NIL` (the successor of a bank's youngest request).
    pub(crate) fn from(&self, slot: Slot) -> Iter<'_> {
        Iter {
            entries: &self.entries,
            at: slot,
        }
    }

    /// The request queued in `slot`.
    pub(crate) fn get(&self, slot: Slot) -> &Request {
        &self.entries[slot as usize].req
    }

    /// Mutable access to the request queued in `slot`.
    pub(crate) fn get_mut(&mut self, slot: Slot) -> &mut Request {
        &mut self.entries[slot as usize].req
    }

    /// The channel-local bank index of the request queued in `slot`.
    pub(crate) fn bank_of(&self, slot: Slot) -> usize {
        self.entries[slot as usize].bank as usize
    }

    /// Removes the request queued in `slot`; returns it with the slot of
    /// its bank's next younger request (`NIL` when it was the youngest),
    /// which is where its successors now start. The slot is free from here
    /// on.
    #[inline]
    pub(crate) fn remove(&mut self, slot: Slot) -> (Slot, Request) {
        let Entry {
            bank, prev, next, ..
        } = self.entries[slot as usize];
        let b = bank as usize;
        match prev {
            NIL => self.banks[b].head = next,
            prev => self.entries[prev as usize].next = next,
        }
        match next {
            NIL => self.banks[b].tail = prev,
            next => self.entries[next as usize].prev = prev,
        }
        if self.banks[b].head == NIL {
            self.pending[b / 64] &= !(1 << (b % 64));
        }
        let req = self.entries[slot as usize].req.clone();
        self.dir_len[usize::from(req.is_write)] -= 1;
        self.free.push(slot);
        (next, req)
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

    fn ids(q: &ChannelQueues, b: usize) -> Vec<u64> {
        q.bank(b).map(|(_, r)| r.id).collect()
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
        assert_eq!(q.bank(0).count(), 3, "both directions share the bank list");
    }

    #[test]
    fn remove_returns_request() {
        let mut q = ChannelQueues::new(4, 8);
        let slot = q.push(3, req(7, 1, false, 3)).unwrap();
        let (next, r) = q.remove(slot);
        assert_eq!((next, r.id), (NIL, 7));
        assert_eq!(q.len(), 0);
        assert_eq!(q.pending_banks().count(), 0);
    }

    #[test]
    fn keys_survive_the_removal_of_older_requests() {
        // A queued request keeps its slot and its enqueue id while older
        // requests of its bank leave, and the slot still reads it.
        let mut q = ChannelQueues::new(2, 8);
        let slots: Vec<Slot> = (0..4)
            .map(|id| q.push(0, req(id, id, false, 0)).unwrap())
            .collect();
        q.push(1, req(4, 4, false, 1)).unwrap();
        assert_eq!(q.remove(slots[1]).0, slots[2], "the successor's slot");
        q.get_mut(slots[3]).arrival = 9;
        assert_eq!(q.remove(slots[0]).0, slots[2]);
        assert_eq!((q.get(slots[3]).id, q.get(slots[3]).arrival), (3, 9));
        assert_eq!(q.get(slots[2]).id, 2);
        assert_eq!(q.remove(slots[3]).1.arrival, 9);
        assert_eq!(ids(&q, 0), [2]);
        assert_eq!(q.dir_len(false), 2);
        assert_eq!(q.bank_of(slots[2]), 0);
    }

    #[test]
    fn freed_slots_are_reused_last_freed_first() {
        // Fresh slots count up from 0; a freed slot is taken before a fresh
        // one, the most recently freed first — whatever the banks.
        let mut q = ChannelQueues::new(3, 8);
        let slots: Vec<Slot> = (0..5)
            .map(|id| {
                q.push((id % 3) as usize, req(id, id, id % 2 == 1, (id % 3) as u32))
                    .unwrap()
            })
            .collect();
        assert_eq!(slots, [0, 1, 2, 3, 4]);
        q.remove(slots[1]);
        q.remove(slots[3]);
        q.remove(slots[0]);
        let reused: Vec<Slot> = (5..9)
            .map(|id| q.push(2, req(id, id, false, 2)).unwrap())
            .collect();
        assert_eq!(reused, [0, 3, 1, 5]);
        assert_eq!(ids(&q, 2), [2, 5, 6, 7, 8]);
        assert_eq!(q.get(3).id, 6, "a reused slot reads its new request");
    }

    #[test]
    fn removal_anywhere_keeps_arrival_order_and_keys() {
        // Front, middle and back, with slots already reused.
        let mut q = ChannelQueues::new(2, 4);
        let mut slot = std::collections::HashMap::new();
        for id in 0..4 {
            slot.insert(id, q.push(0, req(id, id, false, 0)).unwrap());
        }
        q.remove(slot[&0]);
        q.remove(slot[&1]);
        for id in 4..6 {
            slot.insert(id, q.push(0, req(id, id, false, 0)).unwrap());
        }
        assert_eq!(ids(&q, 0), [2, 3, 4, 5]);
        for (id, next, left) in [
            (3, Some(4), vec![2, 4, 5]),
            (5, None, vec![2, 4]),
            (2, Some(4), vec![4]),
        ] {
            let (after, r) = q.remove(slot[&id]);
            assert_eq!((r.id, r.txn), (id, TxnId(id)));
            assert_eq!(after, next.map_or(NIL, |n| slot[&n]));
            assert_eq!(ids(&q, 0), left);
            assert_eq!(q.dir_len(false), left.len());
        }
        q.get_mut(slot[&4]).arrival = 7;
        assert_eq!(q.remove(slot[&4]).1.arrival, 7);
        assert_eq!((q.len(), q.pending_banks().count()), (0, 0));
        assert!(q.bank_is_empty(0));
    }

    #[test]
    fn a_bank_read_from_a_slot_runs_to_its_youngest() {
        let mut q = ChannelQueues::new(2, 8);
        let slots: Vec<Slot> = (0..4)
            .map(|id| q.push(0, req(id, id, false, 0)).unwrap())
            .collect();
        q.push(1, req(4, 4, false, 1)).unwrap();
        let from = |s| q.from(s).map(|(_, r)| r.id).collect::<Vec<_>>();
        assert_eq!(from(slots[2]), [2, 3]);
        assert_eq!(from(NIL), [0u64; 0]);
        assert_eq!(q.bank(1).map(|(s, _)| s).collect::<Vec<_>>(), [4]);
    }

    #[test]
    fn equal_transactions_leave_the_direction_list_one_at_a_time() {
        let mut q = ChannelQueues::new(2, 8);
        let slots: Vec<Slot> = (0..3)
            .map(|id| q.push(0, req(id, 4, false, 0)).unwrap())
            .collect();
        q.push(1, req(3, 6, false, 1)).unwrap();
        let pending = |q: &ChannelQueues| q.pending_banks().collect::<Vec<_>>();
        q.remove(slots[1]);
        assert_eq!((q.dir_len(false), pending(&q)), (3, vec![0, 1]));
        q.remove(slots[0]);
        q.remove(slots[2]);
        assert_eq!((q.dir_len(false), pending(&q)), (1, vec![1]));
    }

    #[test]
    fn pending_banks_follow_push_and_remove() {
        // More banks than one word of the set holds.
        let mut q = ChannelQueues::new(130, 8);
        assert_eq!(q.pending_banks().count(), 0);
        let mut slot = Vec::new();
        for (id, b) in [(0, 129), (1, 0), (2, 64), (3, 63), (4, 64)] {
            slot.push(q.push(b, req(id, 0, id % 2 == 1, b as u32)).unwrap());
        }
        let pending = |q: &ChannelQueues| q.pending_banks().collect::<Vec<_>>();
        assert_eq!(pending(&q), [0, 63, 64, 129]);
        q.remove(slot[2]);
        assert_eq!(pending(&q), [0, 63, 64, 129], "bank 64 still holds one");
        q.remove(slot[4]);
        q.remove(slot[1]);
        assert_eq!(pending(&q), [63, 129]);
        q.remove(slot[0]);
        q.remove(slot[3]);
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
