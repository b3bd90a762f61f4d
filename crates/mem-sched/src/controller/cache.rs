//! Per-channel scheduling state kept between ticks: the per-bank
//! scheduling view and the issue bounds that let a stalled channel sleep.
//!
//! Both are maintained **per bank, on events**, and an event costs what it
//! can change:
//!
//! * an **enqueue** inside the window brings the youngest request of its
//!   bank and of the channel, so it can only fill a fact that was empty and
//!   goes to the tail of the age-ordered lists
//!   ([`MemoryController::view_enqueued`], O(1));
//! * a **data command** retires its bank's oldest row hit of that
//!   direction and leaves the row open, so only that fact (and
//!   `oldest_current`, when it was the same request) moves — to a successor
//!   found by searching forward from the vacated position to the end of the
//!   current transaction ([`MemoryController::view_retired`]);
//! * a **PRE** closes the row, so what only an open row can hold — the
//!   hit facts — clears, and nothing else can have moved
//!   ([`MemoryController::view_precharged`], O(1));
//! * an **ACT** or a dropped response re-derives the one bank from its own
//!   queue ([`MemoryController::refresh_bank`]) — a row opened (or a data
//!   command was spent without retiring anything), every hit fact may have
//!   moved;
//! * a move of the (current transaction, lookahead) **window** or a DRAM
//!   **refresh** — which closes rows without the controller issuing
//!   anything — re-derives the whole channel
//!   ([`MemoryController::rebuild_view`]).
//!
//! The enqueue and retire rules lean on one precondition: a bank's list is sorted by
//! transaction as well as by age (requests arrive in non-decreasing
//! transaction order — the `MemoryBackend` contract, asserted by
//! `ChannelQueues::push`). The derivation ([`derive_bank`], the only place
//! a [`BankView`] is read off a queue) doubles as the referee: debug builds
//! compare the kept view against it after every delta
//! ([`MemoryController::view_is_derived`]). Every event also clears bank
//! *b*'s bounds or wakes the channel; the other banks keep theirs.

use std::collections::VecDeque;

use dram_sim::bank::Bank;
use dram_sim::{DramCommand, DramLocation, DramModule};

use crate::policy::CandidateOrder;
use crate::request::{Request, TxnId};

use super::MemoryController;

/// A queued request as the scheduling passes see it: enough to build its
/// commands and to find it again in its bank's queue. The key (`b`, `id`)
/// is stable — no other request's removal changes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Candidate {
    /// Enqueue id (the global age order).
    pub(crate) id: u64,
    pub(crate) txn: TxnId,
    pub(crate) is_write: bool,
    /// Channel-local bank index, `rank * banks_per_rank + bank`.
    pub(crate) b: usize,
    pub(crate) loc: DramLocation,
}

impl Candidate {
    /// The view's handle on `r`, a queued request of bank `b`.
    pub(crate) fn of(r: &Request, b: usize) -> Self {
        Self {
            id: r.id,
            txn: r.txn,
            is_write: r.is_write,
            b,
            loc: r.loc,
        }
    }
}

/// Per-(rank, bank) scheduling facts, derived from the bank's queue and
/// open row.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct BankView {
    /// The bank's open row when the view was derived. Always current: the
    /// controller updates the view after every PRE/ACT it issues to the
    /// bank, and a DRAM refresh drops the whole channel's views.
    pub(crate) open_row: Option<u64>,
    /// Oldest unissued current-transaction request, if the bank has any
    /// current-transaction work at all.
    pub(crate) oldest_current: Option<Candidate>,
    /// Oldest current-transaction read (`[0]`) and write (`[1]`) that want
    /// the open row. Whether RD (or WR) may issue to an open row depends
    /// on the bank and the direction only, never on the column, so the
    /// oldest hit of each direction stands for all of them.
    pub(crate) oldest_hit: [Option<Candidate>; 2],
    /// Oldest request in the proactive lookahead window.
    pub(crate) oldest_future: Option<Candidate>,
    /// Whether any lookahead-window request wants the open row.
    pub(crate) future_hit_pending: bool,
}

/// The scheduling view of one channel: per-bank facts plus the three
/// age-ordered candidate lists the passes walk.
#[derive(Debug, Clone)]
pub(crate) struct ChannelView {
    /// (current transaction, lookahead) the facts classify requests
    /// against; `None` until first derived and after a DRAM refresh.
    pub(crate) window: Option<(TxnId, u64)>,
    pub(crate) banks: Vec<BankView>,
    /// Every bank's [`BankView::oldest_hit`] entries, sorted by age.
    pub(crate) hits: Vec<Candidate>,
    /// Banks with current-transaction work, sorted by oldest request age.
    pub(crate) order_current: Vec<(u64, usize)>,
    /// Banks with lookahead-window work, sorted by oldest request age.
    pub(crate) order_future: Vec<(u64, usize)>,
}

/// Where a transaction falls relative to a view's window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// The transaction being drained (every transaction, under the
    /// unconstrained ablation): its data commands may issue.
    Current,
    /// Inside the lookahead: PRE/ACT may be pulled forward for it.
    Future,
    /// Beyond the lookahead, where no pass looks.
    Outside,
}

fn classify(txn: TxnId, (current, lookahead): (TxnId, u64), unconstrained: bool) -> Class {
    if unconstrained || txn == current {
        Class::Current
    } else if txn > current && txn.0 <= current.0.saturating_add(lookahead) {
        Class::Future
    } else {
        Class::Outside
    }
}

/// Derives bank `b`'s facts from its queue and open row: the one place a
/// [`BankView`] is read off a queue — by the events that move the row or
/// the window, and by the referee of the delta rules.
fn derive_bank(
    requests: &VecDeque<Request>,
    b: usize,
    open_row: Option<u64>,
    window: (TxnId, u64),
    unconstrained: bool,
) -> BankView {
    let mut bank = BankView {
        open_row,
        ..BankView::default()
    };
    // The bank's list is in arrival order, so the first request seen of
    // each class is its oldest.
    for r in requests {
        let hit = open_row == Some(r.loc.row);
        let cand = || Candidate::of(r, b);
        match classify(r.txn, window, unconstrained) {
            Class::Current => {
                if hit {
                    bank.oldest_hit[usize::from(r.is_write)].get_or_insert_with(cand);
                }
                bank.oldest_current.get_or_insert_with(cand);
            }
            Class::Future => {
                bank.future_hit_pending |= hit;
                bank.oldest_future.get_or_insert_with(cand);
            }
            Class::Outside => {}
        }
    }
    bank
}

impl BankView {
    /// Whether any current-transaction request wants the open row.
    pub(crate) fn current_hit_pending(&self) -> bool {
        self.oldest_hit.iter().any(Option::is_some)
    }
}

/// Sets bank `b`'s entry of an age-ordered bank list to `oldest`.
fn set_order(order: &mut Vec<(u64, usize)>, b: usize, oldest: Option<Candidate>) {
    order.retain(|&(_, bank)| bank != b);
    if let Some(c) = oldest {
        let at = order.partition_point(|&(id, _)| id < c.id);
        order.insert(at, (c.id, b));
    }
}

/// Puts `hit` at its place in the age-ordered hit list.
fn insert_hit(hits: &mut Vec<Candidate>, hit: Candidate) {
    let at = hits.partition_point(|c| c.id < hit.id);
    hits.insert(at, hit);
}

/// Issue bounds of one channel: for every (bank, command kind) the earliest
/// command cycle `dram-sim` last said that command could issue, and — after
/// a scan that found nothing — the cycle until which the whole channel has
/// nothing it may issue.
///
/// Why skipping on a bound is exact: every `ready_at` is a lower bound on
/// the command cycle, the timing registers behind it only move later when
/// *other* commands issue, and the bound depends on (bank, kind) alone —
/// the row already matches for RD/WR, PRE/ACT timing ignores the row. A
/// candidate whose bound lies ahead would fail `can_issue` now, so it is
/// not the one the pass order would pick. What moves a bound *earlier* is
/// a command to the same bank (ACT re-arms tRCD, …) or a refresh; both
/// clear it.
#[derive(Debug, Clone)]
pub(crate) struct IssueBounds {
    /// Indexed `[bank][CommandKind as usize]`; 0 = nothing known.
    earliest: Vec<[u64; 4]>,
    /// The last scan found nothing issuable before this cycle …
    wake_at: u64,
    /// … under this order (another order walks other candidates).
    slept_under: CandidateOrder,
    /// Smallest bound met by the scan in progress.
    scan_min: u64,
}

impl IssueBounds {
    fn new(banks: usize) -> Self {
        Self {
            earliest: vec![[0; 4]; banks],
            wake_at: 0,
            slept_under: CandidateOrder::Age,
            scan_min: u64::MAX,
        }
    }

    /// Whether `cmd` (to bank `b`) may issue at `cycle`, asking `dram` only
    /// when no recorded bound rules it out and recording the bound when it
    /// refuses.
    pub(crate) fn probe(
        &mut self,
        dram: &DramModule,
        b: usize,
        cmd: &DramCommand,
        cycle: u64,
    ) -> bool {
        let bound = &mut self.earliest[b][cmd.kind as usize];
        if cycle >= *bound {
            match dram.can_issue(cmd, cycle) {
                Ok(()) => return true,
                // State errors (closed bank, other row) carry no bound and
                // must not put anything to sleep: retry next cycle.
                Err(e) => *bound = e.ready_at().unwrap_or(cycle + 1),
            }
            debug_assert!(*bound > cycle, "a refusal's hint lies ahead");
        }
        self.scan_min = self.scan_min.min(*bound);
        false
    }

    /// Forgets what is known about bank `b`: a command was issued to it.
    pub(crate) fn clear_bank(&mut self, b: usize) {
        self.earliest[b] = [0; 4];
    }

    /// Whether the last scan, under the same order, already showed nothing
    /// can issue at `cycle`.
    pub(crate) fn asleep(&self, order: CandidateOrder, cycle: u64) -> bool {
        cycle < self.wake_at && self.slept_under == order
    }

    /// Starts a scan of the channel's candidates.
    pub(crate) fn begin_scan(&mut self) {
        self.scan_min = u64::MAX;
    }

    /// Ends a scan that found nothing issuable: the channel sleeps until
    /// the earliest bound it met (forever, if it met no candidate at all —
    /// only an event can change that).
    pub(crate) fn sleep(&mut self, order: CandidateOrder) {
        self.wake_at = self.scan_min;
        self.slept_under = order;
    }

    /// Something the scan depended on changed.
    pub(crate) fn wake(&mut self) {
        self.wake_at = 0;
    }
}

/// Everything the controller remembers about one channel between ticks.
#[derive(Debug, Clone)]
pub(crate) struct ChannelCache {
    pub(crate) view: ChannelView,
    pub(crate) bounds: IssueBounds,
}

impl ChannelCache {
    /// State for a channel of `banks` banks (the lists are sized up front:
    /// upkeep never allocates).
    pub(crate) fn new(banks: usize) -> Self {
        Self {
            view: ChannelView {
                window: None,
                banks: vec![BankView::default(); banks],
                hits: Vec::with_capacity(2 * banks),
                order_current: Vec::with_capacity(banks),
                order_future: Vec::with_capacity(banks),
            },
            bounds: IssueBounds::new(banks),
        }
    }

    /// Drops everything derived from DRAM state: a refresh closed rows and
    /// moved timing without the controller issuing a command.
    pub(crate) fn invalidate(&mut self) {
        self.view.window = None;
        self.bounds.earliest.fill([0; 4]);
        self.bounds.wake();
    }
}

/// The DRAM bank behind channel `ch`'s channel-local bank index `b`.
pub(super) fn dram_bank(dram: &DramModule, banks_per_rank: u32, ch: usize, b: usize) -> &Bank {
    dram.channel(ch as u32)
        .rank(b as u32 / banks_per_rank)
        .bank(b as u32 % banks_per_rank)
}

impl MemoryController {
    /// Banks per channel (all ranks).
    pub(super) fn banks_per_channel(&self) -> usize {
        self.banks_per_channel
    }

    /// Index of channel `ch`'s bank `b` among all banks.
    pub(super) fn slot(&self, ch: usize, b: usize) -> usize {
        ch * self.banks_per_channel() + b
    }

    /// Channel-local index of the bank `loc` addresses.
    pub(super) fn bank_index(&self, loc: &DramLocation) -> usize {
        (loc.rank * self.banks_per_rank + loc.bank) as usize
    }

    /// Bank `b` of channel `ch` as [`derive_bank`] reads it now.
    fn derived(&self, ch: usize, b: usize, window: (TxnId, u64)) -> BankView {
        derive_bank(
            self.queues[ch].bank(b),
            b,
            dram_bank(&self.dram, self.banks_per_rank, ch, b).open_row(),
            window,
            self.policy.unconstrained(),
        )
    }

    /// Re-derives every bank's facts for a new (current transaction,
    /// lookahead) window: one pass over the banks, then one sort per list.
    pub(super) fn rebuild_view(&mut self, ch: usize, current: TxnId, lookahead: u64) {
        let window = (current, lookahead);
        for b in 0..self.banks_per_channel() {
            self.caches[ch].view.banks[b] = self.derived(ch, b, window);
        }
        let ChannelCache { view, bounds } = &mut self.caches[ch];
        view.window = Some(window);
        bounds.wake();
        view.hits.clear();
        view.order_current.clear();
        view.order_future.clear();
        for (b, bank) in view.banks.iter().enumerate() {
            view.hits.extend(bank.oldest_hit.into_iter().flatten());
            view.order_current
                .extend(bank.oldest_current.map(|c| (c.id, b)));
            view.order_future
                .extend(bank.oldest_future.map(|c| (c.id, b)));
        }
        // Enqueue ids are unique: no ties for an unstable sort to reorder.
        view.hits.sort_unstable_by_key(|c| c.id);
        view.order_current.sort_unstable();
        view.order_future.sort_unstable();
    }

    /// Re-derives bank `b`'s facts from its own queue and open row, fixes
    /// its entries in the channel's age-ordered lists, and wakes the
    /// channel. Called after every ACT issued to the bank and after a
    /// dropped response; a view with no window yet is derived in full by
    /// the next scheduling pass instead.
    pub(super) fn refresh_bank(&mut self, ch: usize, b: usize) {
        let Some(window) = self.caches[ch].view.window else {
            return;
        };
        let bank = self.derived(ch, b, window);
        let ChannelCache { view, bounds } = &mut self.caches[ch];
        bounds.wake();
        view.hits.retain(|c| c.b != b);
        for hit in bank.oldest_hit.into_iter().flatten() {
            insert_hit(&mut view.hits, hit);
        }
        set_order(&mut view.order_current, b, bank.oldest_current);
        set_order(&mut view.order_future, b, bank.oldest_future);
        view.banks[b] = bank;
    }

    /// Accounts for the PRE just issued to bank `b`. A closed row has no
    /// hits, so the open row, both `oldest_hit` and `future_hit_pending`
    /// clear and the bank's entries leave `hits`; which requests are queued
    /// and how they classify did not change, so `oldest_current` and
    /// `oldest_future` (and their lists) stand.
    pub(super) fn view_precharged(&mut self, ch: usize, b: usize) {
        let ChannelCache { view, bounds } = &mut self.caches[ch];
        if view.window.is_none() {
            return;
        }
        bounds.wake();
        let bank = &mut view.banks[b];
        if bank.current_hit_pending() {
            view.hits.retain(|c| c.b != b);
        }
        bank.open_row = None;
        bank.oldest_hit = [None; 2];
        bank.future_hit_pending = false;
        debug_assert!(self.view_is_derived(ch, b), "precharge delta, bank {b}");
    }

    /// Accounts for `new`, just appended to its bank's queue. It is the
    /// youngest request of the bank and of the channel, so it displaces
    /// nothing: it can only fill a fact that was empty, and then belongs at
    /// the tail of the fact's age-ordered list. Beyond the lookahead window
    /// no pass looks and nothing changes.
    pub(super) fn view_enqueued(&mut self, ch: usize, new: Candidate) {
        let unconstrained = self.policy.unconstrained();
        let ChannelCache { view, bounds } = &mut self.caches[ch];
        let Some(window) = view.window else {
            return;
        };
        let bank = &mut view.banks[new.b];
        let hit = bank.open_row == Some(new.loc.row);
        match classify(new.txn, window, unconstrained) {
            Class::Current => {
                let oldest_hit = &mut bank.oldest_hit[usize::from(new.is_write)];
                if hit && oldest_hit.is_none() {
                    *oldest_hit = Some(new);
                    view.hits.push(new);
                }
                if bank.oldest_current.is_none() {
                    bank.oldest_current = Some(new);
                    view.order_current.push((new.id, new.b));
                }
            }
            Class::Future => {
                bank.future_hit_pending |= hit;
                if bank.oldest_future.is_none() {
                    bank.oldest_future = Some(new);
                    view.order_future.push((new.id, new.b));
                }
            }
            Class::Outside => return,
        }
        bounds.wake();
        debug_assert!(
            self.view_is_derived(ch, new.b),
            "enqueue delta, bank {}",
            new.b
        );
    }

    /// Accounts for the data command that retired `old` from position `at`
    /// of its bank's queue. The row stayed open and `old` was the bank's
    /// oldest hit of its direction (the hit pass offers nothing else), so
    /// only that fact — and `oldest_current`, if `old` was that too — needs
    /// a successor. Successors are younger, hence behind `at`, and of the
    /// current transaction, hence before the first request of a later one;
    /// the lookahead facts cannot change.
    pub(super) fn view_retired(&mut self, ch: usize, old: Candidate, at: usize) {
        let unconstrained = self.policy.unconstrained();
        let ChannelCache { view, bounds } = &mut self.caches[ch];
        let Some(window) = view.window else {
            return;
        };
        bounds.wake();
        let bank = &mut view.banks[old.b];
        let dir = usize::from(old.is_write);
        debug_assert_eq!(bank.oldest_hit[dir], Some(old), "retired a non-head hit");
        let mut behind = self.queues[ch]
            .bank(old.b)
            .range(at..)
            .take_while(|r| classify(r.txn, window, unconstrained) == Class::Current);
        if bank.oldest_current == Some(old) {
            bank.oldest_current = behind.clone().next().map(|r| Candidate::of(r, old.b));
            set_order(&mut view.order_current, old.b, bank.oldest_current);
        }
        let next_hit = behind
            .find(|r| r.is_write == old.is_write && r.loc.row == old.loc.row)
            .map(|r| Candidate::of(r, old.b));
        bank.oldest_hit[dir] = next_hit;
        view.hits.retain(|c| c.id != old.id);
        if let Some(hit) = next_hit {
            insert_hit(&mut view.hits, hit);
        }
        debug_assert!(
            self.view_is_derived(ch, old.b),
            "retire delta, bank {}",
            old.b
        );
    }

    /// The referee of the delta rules: whether bank `b`'s kept facts and its
    /// entries in the channel's three lists are what [`derive_bank`] reads
    /// off the queue now, and the lists are in age order. Allocates nothing
    /// (debug builds run it under the allocation-counting tests).
    pub(super) fn view_is_derived(&self, ch: usize, b: usize) -> bool {
        let view = &self.caches[ch].view;
        let Some(window) = view.window else {
            return true;
        };
        let want = self.derived(ch, b, window);
        let [read, write] = want.oldest_hit;
        let hits = match (read, write) {
            (Some(r), Some(w)) if w.id < r.id => [write, read],
            _ => [read, write],
        };
        // Bank `b`'s entry in `order` is `oldest`'s, and `order` ascends.
        let order_holds = |order: &[(u64, usize)], oldest: Option<Candidate>| {
            let of_bank = order.iter().filter(|&&(_, bank)| bank == b);
            of_bank.eq(oldest.map(|c| (c.id, b)).iter())
                && order.windows(2).all(|w| w[0].0 < w[1].0)
        };
        view.banks[b] == want
            && view
                .hits
                .iter()
                .filter(|c| c.b == b)
                .eq(hits.iter().flatten())
            && view.hits.windows(2).all(|w| w[0].id < w[1].id)
            && order_holds(&view.order_current, want.oldest_current)
            && order_holds(&view.order_future, want.oldest_future)
    }
}
