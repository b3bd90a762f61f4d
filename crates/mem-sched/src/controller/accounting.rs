//! The integrands of Fig. 12's per-tick integrals — requests queued, banks
//! with work, banks with work whose busy window is open — **counted on the
//! events that move them** instead of being read off every queue and bank
//! on every cycle.
//!
//! The counts are exact at every tick boundary (nothing is settled lazily:
//! `stats()` is a plain read after any tick). Two things make that so:
//!
//! * **The "as of" rule.** The counts hold *as of* the last tick's cycle
//!   `T`: `busy` is the number of pending banks whose window ends after
//!   `T`. An enqueue at cycle `c` happens before tick `c` and is counted
//!   against `T = c - 1`, so a window ending exactly at `c` is still counted
//!   — and expires when tick `c` advances `T`, before tick `c` accounts. A
//!   command or a removal inside tick `c` happens after tick `c` accounted
//!   (`T = c`) and therefore shows from tick `c + 1`; a refresh starts
//!   before the accounting of its tick and shows in it.
//! * **The expiry wheel.** Windows end without an event, so every counted
//!   window ending at `v` also sits in bucket `v % EPOCH` of a wheel;
//!   advancing `T` to `c` subtracts the buckets of `T + 1 ..= c` — one
//!   bucket per tick. The wheel only holds windows ending within the
//!   current *epoch* (`v <= epoch_end`); windows are unbounded (a weak row
//!   or a storm-stretched tRFC stalls a bank for thousands of cycles), so a
//!   longer one is counted in `busy` but sits in no bucket, and the walk
//!   over the pending banks that opens the next epoch — once per `EPOCH`
//!   ticks, and at every refresh, which moves every window of its rank —
//!   places it when its end comes into range. Whether a window is in the
//!   wheel is a function of (`busy_until`, `as_of`, `epoch_end`) alone: no
//!   per-bank flag, no overflow list, and `EPOCH` bounds nothing but how
//!   often that walk runs.

use crate::queue::ChannelQueues;

/// Ticks per epoch of the expiry wheel (a power of two: the bucket index is
/// a mask).
const EPOCH: u64 = 256;

/// See the module docs.
#[derive(Clone, Debug, Default, PartialEq)]
pub(super) struct BankLedger {
    /// End of each bank's busy window as of the last command issued to it
    /// (or refresh), indexed `channel * banks_per_channel + bank`: the
    /// controller's own copy of `dram-sim`'s value.
    busy_until: Vec<u64>,
    /// Requests queued, all channels.
    queued: usize,
    /// Banks with a queued request.
    pending: u64,
    /// Pending banks whose busy window ends after `as_of`.
    busy: u64,
    /// The cycle of the last tick.
    as_of: u64,
    /// `wheel[v % EPOCH]`: pending banks whose window ends at `v`, for
    /// `as_of < v <= epoch_end`; every other bucket is zero.
    pub(super) wheel: Vec<u32>,
    /// Last cycle of the wheel's range; the tick that reaches it recounts.
    epoch_end: u64,
}

impl BankLedger {
    /// A ledger over `banks` banks (all channels), nothing queued, no
    /// window open; the first tick opens the first epoch.
    pub(super) fn new(banks: usize) -> Self {
        Self {
            busy_until: vec![0; banks],
            queued: 0,
            pending: 0,
            busy: 0,
            as_of: 0,
            wheel: vec![0; EPOCH as usize],
            epoch_end: 0,
        }
    }

    /// Banks, all channels.
    pub(super) fn banks(&self) -> usize {
        self.busy_until.len()
    }

    /// Requests queued, all channels.
    pub(super) fn queued(&self) -> usize {
        self.queued
    }

    /// Banks with a queued request.
    pub(super) fn pending(&self) -> u64 {
        self.pending
    }

    /// Pending banks inside their busy window at the last tick.
    pub(super) fn busy(&self) -> u64 {
        self.busy
    }

    /// A pending bank's window ending at `until` enters the count.
    fn count(&mut self, until: u64) {
        if until > self.as_of {
            self.busy += 1;
            if until <= self.epoch_end {
                self.wheel[(until % EPOCH) as usize] += 1;
            }
        }
    }

    /// A pending bank's window ending at `until` leaves the count.
    fn uncount(&mut self, until: u64) {
        if until > self.as_of {
            self.busy -= 1;
            if until <= self.epoch_end {
                self.wheel[(until % EPOCH) as usize] -= 1;
            }
        }
    }

    /// A request joined bank `slot`'s list — the list's `first`, if it was
    /// empty.
    pub(super) fn enqueued(&mut self, slot: usize, first: bool) {
        self.queued += 1;
        if first {
            self.pending += 1;
            self.count(self.busy_until[slot]);
        }
    }

    /// A request left bank `slot`'s list — its `last`, if the list is now
    /// empty.
    pub(super) fn retired(&mut self, slot: usize, last: bool) {
        self.queued -= 1;
        if last {
            self.pending -= 1;
            self.uncount(self.busy_until[slot]);
        }
    }

    /// A command to bank `slot` moved the end of its busy window to
    /// `until`; `pending` is whether the bank has a queued request.
    pub(super) fn commanded(&mut self, slot: usize, until: u64, pending: bool) {
        let old = std::mem::replace(&mut self.busy_until[slot], until);
        if pending && old != until {
            self.uncount(old);
            self.count(until);
        }
    }

    /// Moves the counts to tick `cycle`: the windows that ended since the
    /// last tick leave `busy`. Recounts from `queues` instead when a refresh
    /// moved windows (`refreshed`) or the epoch is over.
    pub(super) fn advance(&mut self, cycle: u64, refreshed: bool, queues: &[ChannelQueues]) {
        if refreshed || cycle >= self.epoch_end {
            self.recount(cycle, cycle + EPOCH, queues);
            return;
        }
        for ended in self.as_of + 1..=cycle {
            let banks = std::mem::take(&mut self.wheel[(ended % EPOCH) as usize]);
            self.busy -= u64::from(banks);
        }
        self.as_of = cycle;
    }

    /// Recomputes every count and bucket as of the last tick's cycle
    /// `as_of`, from `queues` and each bank's window end `until(slot)`, in
    /// the epoch `kept` is in.
    pub(super) fn derive(
        &mut self,
        kept: &Self,
        as_of: u64,
        queues: &[ChannelQueues],
        until: impl Fn(usize) -> u64,
    ) {
        for (slot, end) in self.busy_until.iter_mut().enumerate() {
            *end = until(slot);
        }
        self.queued = queues.iter().map(ChannelQueues::len).sum();
        self.pending = queues.iter().flat_map(ChannelQueues::pending_banks).count() as u64;
        self.recount(as_of, kept.epoch_end, queues);
    }

    /// Opens the epoch ending at `epoch_end` at `cycle`: `busy` and the
    /// wheel are read off the pending banks of `queues`.
    fn recount(&mut self, cycle: u64, epoch_end: u64, queues: &[ChannelQueues]) {
        self.wheel.fill(0);
        self.busy = 0;
        self.as_of = cycle;
        self.epoch_end = epoch_end;
        let banks = self.busy_until.len() / queues.len();
        for (ch, q) in queues.iter().enumerate() {
            for b in q.pending_banks() {
                self.count(self.busy_until[ch * banks + b]);
            }
        }
    }
}
