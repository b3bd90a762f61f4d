//! Per-channel scheduling state kept between ticks: the per-bank
//! scheduling view and the issue bounds — a copy of `dram-sim`'s timing
//! registers — that let a stalled channel sleep.
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
//!   found by following the bank's links from the retired entry's next one
//!   to the end of the current transaction
//!   ([`MemoryController::view_retired`]);
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
//! `MemoryController::try_enqueue`). The derivation ([`derive_bank`], the
//! only place a [`BankView`] is read off a queue) doubles as the referee:
//! [`ChannelCache::derive`] recomputes a channel's views and bounds from
//! scratch for the controller's one `kept == derived` check. Every event
//! also records which commands the passes would now offer for its bank
//! ([`BankView::wanted`]): the channel's wake-up is the smallest bound among
//! those ([`IssueBounds`]).

use dram_sim::bank::Bank;
use dram_sim::{CommandKind, DramGeometry, DramLocation, DramModule};

use crate::queue::{ChannelQueues, Slot};
use crate::request::{Request, TxnId};

use super::MemoryController;

/// Per-(rank, bank) scheduling facts, derived from the bank's queue and
/// open row. A fact names a request by its [`Slot`] in the channel's
/// queues: stable while the request is queued, and all a pass needs to
/// build its command.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct BankView {
    /// The bank's open row when the view was derived. Always current: the
    /// controller updates the view after every PRE/ACT it issues to the
    /// bank, and a DRAM refresh drops the whole channel's views.
    pub(crate) open_row: Option<u64>,
    /// Oldest unissued current-transaction request, if the bank has any
    /// current-transaction work at all.
    pub(crate) oldest_current: Option<Slot>,
    /// Oldest current-transaction read (`[0]`) and write (`[1]`) that want
    /// the open row. Whether RD (or WR) may issue to an open row depends
    /// on the bank and the direction only, never on the column, so the
    /// oldest hit of each direction stands for all of them.
    pub(crate) oldest_hit: [Option<Slot>; 2],
    /// Oldest request in the proactive lookahead window.
    pub(crate) oldest_future: Option<Slot>,
    /// Whether any lookahead-window request wants the open row.
    pub(crate) future_hit_pending: bool,
}

/// The scheduling view of one channel: per-bank facts plus the three
/// age-ordered candidate lists the passes walk, each a list of slots.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChannelView {
    /// (current transaction, lookahead) the facts classify requests
    /// against; `None` — and every fact and list empty — until first
    /// derived and after a DRAM refresh.
    pub(crate) window: Option<(TxnId, u64)>,
    pub(crate) banks: Vec<BankView>,
    /// Every bank's [`BankView::oldest_hit`] entries, sorted by age.
    pub(crate) hits: Vec<Slot>,
    /// Every bank's [`BankView::oldest_current`], sorted by age.
    pub(crate) order_current: Vec<Slot>,
    /// Every bank's [`BankView::oldest_future`], sorted by age.
    pub(crate) order_future: Vec<Slot>,
}

impl ChannelView {
    /// Derives every bank's facts from `queues` and the banks' open rows
    /// for `window`: one pass over the banks, then one sort per list.
    pub(crate) fn derive(
        &mut self,
        queues: &ChannelQueues,
        open_row: impl Fn(usize) -> Option<u64>,
        window: (TxnId, u64),
        unconstrained: bool,
    ) {
        self.window = Some(window);
        self.hits.clear();
        self.order_current.clear();
        self.order_future.clear();
        for (b, bank) in self.banks.iter_mut().enumerate() {
            *bank = derive_bank(queues, b, open_row(b), window, unconstrained);
            self.hits.extend(bank.oldest_hit.into_iter().flatten());
            self.order_current.extend(bank.oldest_current);
            self.order_future.extend(bank.oldest_future);
        }
        // Enqueue ids are unique: no ties for an unstable sort to reorder.
        let age = |&slot: &Slot| queues.get(slot).id;
        self.hits.sort_unstable_by_key(age);
        self.order_current.sort_unstable_by_key(age);
        self.order_future.sort_unstable_by_key(age);
    }

    /// Drops the window and every fact: the view the next pass derives.
    fn forget(&mut self) {
        self.window = None;
        self.banks.fill(BankView::default());
        self.hits.clear();
        self.order_current.clear();
        self.order_future.clear();
    }
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
    queues: &ChannelQueues,
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
    // each class is its oldest — and in transaction order (`try_enqueue`
    // asserts it), so nothing behind the first request beyond the window
    // is inside it, and nothing behind a lookahead request is current:
    // once the lookahead facts are settled, the rest cannot move a fact.
    for (slot, r) in queues.bank(b) {
        let hit = open_row == Some(r.loc.row);
        match classify(r.txn, window, unconstrained) {
            Class::Current => {
                if hit {
                    bank.oldest_hit[usize::from(r.is_write)].get_or_insert(slot);
                }
                bank.oldest_current.get_or_insert(slot);
            }
            Class::Future => {
                bank.future_hit_pending |= hit;
                bank.oldest_future.get_or_insert(slot);
                if bank.future_hit_pending || open_row.is_none() {
                    break;
                }
            }
            Class::Outside if r.txn > window.0 => break,
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

    /// The PRE or ACT that moves the bank towards `row`, if one is needed
    /// and no pending hit (`hit_pending`) needs the open row.
    pub(crate) fn prep_kind(&self, row: u64, hit_pending: bool) -> Option<CommandKind> {
        match self.open_row {
            // Row ready: the data command is the hit pass's business
            // (blocked on bus/timing), or the row is already prepared for
            // the future.
            Some(open) if open == row => None,
            Some(_) if hit_pending => None,
            Some(_) => Some(CommandKind::Precharge),
            None => Some(CommandKind::Activate),
        }
    }

    /// The command kinds the three passes would offer for this bank, as
    /// bits `1 << kind`: RD / WR for the oldest hit of each direction, and
    /// one PRE or ACT — for the oldest current request or, on a bank with
    /// no current work, for the oldest lookahead one (rows read from
    /// `queues`). The same for every `CandidateOrder`: an order only
    /// permutes the candidates.
    #[inline]
    pub(crate) fn wanted(&self, queues: &ChannelQueues) -> u8 {
        let bit = |kind: CommandKind| 1u8 << kind as usize;
        let row = |slot| queues.get(slot).loc.row;
        let [read, write] = self.oldest_hit;
        let prep = match (self.oldest_current, self.oldest_future) {
            (Some(slot), _) => self.prep_kind(row(slot), self.current_hit_pending()),
            (None, Some(slot)) => self.prep_kind(row(slot), self.future_hit_pending),
            (None, None) => None,
        };
        read.map_or(0, |_| bit(CommandKind::Read))
            | write.map_or(0, |_| bit(CommandKind::Write))
            | prep.map_or(0, bit)
    }
}

/// Replaces `old` by `new` in an age-ordered slot list: `old` (if any)
/// leaves by identity — its slot may already be free — and `new` (if any,
/// a queued request) goes to its place by enqueue id. The entries between
/// the two places shift by one; nothing else moves.
fn replace(list: &mut Vec<Slot>, queues: &ChannelQueues, old: Option<Slot>, new: Option<Slot>) {
    if old == new {
        return;
    }
    let id = |slot: Slot| queues.get(slot).id;
    let Some(mut at) = old.and_then(|old| list.iter().position(|&s| s == old)) else {
        if let Some(new) = new {
            let at = list.partition_point(|&s| id(s) < id(new));
            list.insert(at, new);
        }
        return;
    };
    let Some(new) = new else {
        list.remove(at);
        return;
    };
    // `new` takes the vacated place, then moves to its own: towards the
    // tail past older entries, or towards the head past younger ones.
    let age = id(new);
    while at + 1 < list.len() && id(list[at + 1]) < age {
        list[at] = list[at + 1];
        at += 1;
    }
    while at > 0 && id(list[at - 1]) > age {
        list[at] = list[at - 1];
        at -= 1;
    }
    list[at] = new;
}

/// Issue bounds of one channel: a copy of `dram-sim`'s timing registers
/// and, from them, the cycle before which the channel has nothing it may
/// issue.
///
/// Why a compare against the copy is `can_issue`: every timing check in
/// `dram-sim` is `cycle >= register`, split by [`DramModule::bank_ready_at`]
/// and [`DramModule::class_ready_at`] into a bank part and a part shared by a
/// (rank, bank group), and the registers move only inside
/// `DramModule::issue` on this channel and when a refresh starts — the two
/// places the copy is read again ([`Self::reread`]). The state precondition
/// (row open / closed / matching) is the view's business.
///
/// The wake-up is the smallest bound among the (bank, kind) pairs the
/// passes would offer ([`BankView::wanted`]), so a channel is awake exactly
/// when a scan would issue.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IssueBounds {
    /// `bank_ready_at` of every bank, indexed `[bank][CommandKind as usize]`.
    pub(super) bank: Vec<[u64; 4]>,
    /// `class_ready_at` of every (rank, bank group), `[class][kind]`.
    class: Vec<[u64; 4]>,
    /// Each bank's index into `class`.
    class_of: Vec<usize>,
    ranks: u32,
    banks_per_rank: u32,
    groups: u32,
    /// Each bank's [`BankView::wanted`] as of its last view update (none
    /// while the view has no window), kind-major: bit `b % 64` of
    /// `wanting[b / 64][kind]` is set while bank `b` wants `kind`.
    pub(super) wanting: Vec<[u64; 4]>,
    /// Nothing wanted can issue before this cycle; holds while `settled`.
    wake_at: u64,
    /// Whether `wake_at` is the minimum over the wants and bounds as they
    /// stand (cleared by whatever moves either).
    settled: bool,
}

/// (rank, bank or group) of every entry of a per-rank table `per_rank`
/// wide, in index order.
fn coordinates(ranks: u32, per_rank: u32) -> impl Iterator<Item = (u32, u32)> {
    (0..ranks).flat_map(move |rank| (0..per_rank).map(move |i| (rank, i)))
}

impl IssueBounds {
    fn new(geometry: &DramGeometry) -> Self {
        let (ranks, groups) = (geometry.ranks_per_channel, geometry.bank_groups);
        let banks_per_rank = geometry.banks_per_rank;
        let banks = (ranks * banks_per_rank) as usize;
        Self {
            bank: vec![[0; 4]; banks],
            class: vec![[0; 4]; (ranks * groups) as usize],
            // Bank `b` of a rank is in group `b % groups` (`DramGeometry`).
            class_of: coordinates(ranks, banks_per_rank)
                .map(|(rank, bank)| (rank * groups + bank % groups) as usize)
                .collect(),
            ranks,
            banks_per_rank,
            groups,
            wanting: vec![[0; 4]; banks.div_ceil(64)],
            wake_at: 0,
            settled: false,
        }
    }

    /// Reads the channel's registers again after a command to the bank at
    /// `loc`: the bank's own, and every class's (the command bus and the
    /// data bus are the whole channel's).
    #[inline]
    pub(crate) fn reread(&mut self, dram: &DramModule, loc: &DramLocation) {
        let b = (loc.rank * self.banks_per_rank + loc.bank) as usize;
        self.bank[b] = dram.bank_ready_at(loc.channel, loc.rank, loc.bank);
        self.reread_classes(dram, loc.channel);
    }

    #[inline]
    fn reread_classes(&mut self, dram: &DramModule, ch: u32) {
        let classes = coordinates(self.ranks, self.groups);
        for (class, (rank, group)) in self.class.iter_mut().zip(classes) {
            *class = dram.class_ready_at(ch, rank, group);
        }
        self.settled = false;
    }

    /// Reads every register of channel `ch` again: a refresh moved them.
    fn reread_all(&mut self, dram: &DramModule, ch: u32) {
        let banks = coordinates(self.ranks, self.banks_per_rank);
        for (kept, (rank, bank)) in self.bank.iter_mut().zip(banks) {
            *kept = dram.bank_ready_at(ch, rank, bank);
        }
        self.reread_classes(dram, ch);
    }

    /// Whether the timing of a `kind` command to bank `b` allows `cycle`.
    pub(crate) fn ready(&self, b: usize, kind: CommandKind, cycle: u64) -> bool {
        let k = kind as usize;
        cycle >= self.bank[b][k].max(self.class[self.class_of[b]][k])
    }

    /// Records what the passes would now offer for bank `b`: `wants` has
    /// bit `1 << kind` for each kind wanted.
    #[inline]
    pub(crate) fn set_wants(&mut self, b: usize, wants: u8) {
        let (masks, bit) = (&mut self.wanting[b / 64], b % 64);
        for (k, mask) in masks.iter_mut().enumerate() {
            let was = *mask;
            *mask = was & !(1 << bit) | u64::from(wants >> k & 1) << bit;
            self.settled &= *mask == was;
        }
    }

    /// The smallest bound among the wanted (bank, kind) pairs; `u64::MAX`
    /// when nothing is wanted — only an event can change that. Kind by
    /// kind, over the banks that want it: a bank that wants nothing costs
    /// nothing.
    pub(crate) fn earliest_wanted(&self) -> u64 {
        let mut wake = u64::MAX;
        for (word, masks) in self.wanting.iter().enumerate() {
            for (k, &mask) in masks.iter().enumerate() {
                let mut left = mask;
                while left != 0 {
                    let b = 64 * word + left.trailing_zeros() as usize;
                    wake = wake.min(self.bank[b][k].max(self.class[self.class_of[b]][k]));
                    left &= left - 1;
                }
            }
        }
        wake
    }

    /// The cycle before which nothing the passes would offer can issue,
    /// recomputed if a want or a bound moved since it was last asked for.
    pub(crate) fn wake_at(&mut self) -> u64 {
        if !self.settled {
            self.wake_at = self.earliest_wanted();
            self.settled = true;
        }
        self.wake_at
    }

    /// Whether [`Self::wake_at`] stands: no want and no bound moved since.
    pub(crate) fn is_settled(&self) -> bool {
        self.settled
    }

    /// Forgets the wake-up: a refresh moved the registers, or a release
    /// build found an awake channel with nothing to issue.
    pub(crate) fn unsettle(&mut self) {
        self.settled = false;
    }
}

/// Everything the controller remembers about one channel between ticks.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChannelCache {
    pub(crate) view: ChannelView,
    pub(crate) bounds: IssueBounds,
}

impl ChannelCache {
    /// State for a channel of `geometry` (everything is sized up front:
    /// upkeep never allocates).
    pub(crate) fn new(geometry: &DramGeometry) -> Self {
        let banks = (geometry.ranks_per_channel * geometry.banks_per_rank) as usize;
        Self {
            view: ChannelView {
                window: None,
                banks: vec![BankView::default(); banks],
                hits: Vec::with_capacity(2 * banks),
                order_current: Vec::with_capacity(banks),
                order_future: Vec::with_capacity(banks),
            },
            bounds: IssueBounds::new(geometry),
        }
    }

    /// Recomputes channel `ch`'s view (for `kept`'s window) and bounds from
    /// its `queues` and `dram`; an unsettled wake-up is not due, so it is
    /// taken as given.
    pub(crate) fn derive(
        &mut self,
        kept: &Self,
        queues: &ChannelQueues,
        dram: &DramModule,
        ch: usize,
        unconstrained: bool,
    ) {
        let per_rank = self.bounds.banks_per_rank;
        let open_row = |b| dram_bank(dram, per_rank, ch, b).open_row();
        match kept.view.window {
            Some(window) => self.view.derive(queues, open_row, window, unconstrained),
            None => self.view.forget(),
        }
        self.bounds.reread_all(dram, ch as u32);
        for (b, bank) in self.view.banks.iter().enumerate() {
            self.bounds.set_wants(b, bank.wanted(queues));
        }
        self.bounds.settled = kept.bounds.settled;
        self.bounds.wake_at = if kept.bounds.settled {
            self.bounds.earliest_wanted()
        } else {
            kept.bounds.wake_at
        };
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

    /// Re-derives every bank's facts for a new (current transaction,
    /// lookahead) window and records what the passes would offer for each.
    pub(super) fn rebuild_view(&mut self, ch: usize, current: TxnId, lookahead: u64) {
        let open_row = |b| dram_bank(&self.dram, self.banks_per_rank, ch, b).open_row();
        let queues = &self.queues[ch];
        let ChannelCache { view, bounds } = &mut self.kept.caches[ch];
        view.derive(
            queues,
            open_row,
            (current, lookahead),
            self.policy.unconstrained(),
        );
        for (b, bank) in view.banks.iter().enumerate() {
            bounds.set_wants(b, bank.wanted(queues));
        }
    }

    /// Re-derives bank `b`'s facts from its own queue and open row, fixes
    /// its entries in the channel's age-ordered lists, and records what the
    /// passes would now offer for it. Called after every ACT issued to the
    /// bank and after a dropped response; a view with no window yet is
    /// derived in full by the next scheduling pass instead.
    pub(super) fn refresh_bank(&mut self, ch: usize, b: usize) {
        let Some(window) = self.kept.caches[ch].view.window else {
            return;
        };
        let open_row = dram_bank(&self.dram, self.banks_per_rank, ch, b).open_row();
        let unconstrained = self.policy.unconstrained();
        let queues = &self.queues[ch];
        let bank = derive_bank(queues, b, open_row, window, unconstrained);
        let ChannelCache { view, bounds } = &mut self.kept.caches[ch];
        bounds.set_wants(b, bank.wanted(queues));
        let old = std::mem::replace(&mut view.banks[b], bank);
        for (old, new) in old.oldest_hit.into_iter().zip(bank.oldest_hit) {
            replace(&mut view.hits, queues, old, new);
        }
        replace(
            &mut view.order_current,
            queues,
            old.oldest_current,
            bank.oldest_current,
        );
        replace(
            &mut view.order_future,
            queues,
            old.oldest_future,
            bank.oldest_future,
        );
    }

    /// Accounts for the PRE just issued to bank `b`. A closed row has no
    /// hits, so the open row, both `oldest_hit` and `future_hit_pending`
    /// clear and the bank's entries leave `hits`; which requests are queued
    /// and how they classify did not change, so `oldest_current` and
    /// `oldest_future` (and their lists) stand.
    pub(super) fn view_precharged(&mut self, ch: usize, b: usize) {
        let queues = &self.queues[ch];
        let ChannelCache { view, bounds } = &mut self.kept.caches[ch];
        if view.window.is_none() {
            return;
        }
        let bank = &mut view.banks[b];
        for hit in std::mem::take(&mut bank.oldest_hit) {
            replace(&mut view.hits, queues, hit, None);
        }
        bank.open_row = None;
        bank.future_hit_pending = false;
        bounds.set_wants(b, bank.wanted(queues));
    }

    /// Accounts for the request just appended to its bank's queue in
    /// `slot`. It is the youngest request of the bank and of the channel,
    /// so it displaces nothing: it can only fill a fact that was empty, and
    /// then belongs at the tail of the fact's age-ordered list. Beyond the
    /// lookahead window no pass looks and nothing changes.
    #[inline]
    pub(super) fn view_enqueued(&mut self, ch: usize, slot: Slot) {
        let unconstrained = self.policy.unconstrained();
        let queues = &self.queues[ch];
        let ChannelCache { view, bounds } = &mut self.kept.caches[ch];
        let Some(window) = view.window else {
            return;
        };
        let (new, b) = (queues.get(slot), queues.bank_of(slot));
        let bank = &mut view.banks[b];
        let hit = bank.open_row == Some(new.loc.row);
        // What the passes offer for the bank can only move with a fact.
        let mut filled = false;
        match classify(new.txn, window, unconstrained) {
            Class::Current => {
                let oldest_hit = &mut bank.oldest_hit[usize::from(new.is_write)];
                if hit && oldest_hit.is_none() {
                    *oldest_hit = Some(slot);
                    view.hits.push(slot);
                    filled = true;
                }
                if bank.oldest_current.is_none() {
                    bank.oldest_current = Some(slot);
                    view.order_current.push(slot);
                    filled = true;
                }
            }
            Class::Future => {
                filled = hit && !bank.future_hit_pending;
                bank.future_hit_pending |= hit;
                if bank.oldest_future.is_none() {
                    bank.oldest_future = Some(slot);
                    view.order_future.push(slot);
                    filled = true;
                }
            }
            Class::Outside => return,
        }
        if filled {
            bounds.set_wants(b, bank.wanted(queues));
        }
    }

    /// Accounts for the data command that retired `old` (the request that
    /// was in slot `slot` of bank `b`), whose bank successor is now in
    /// `next`. The row stayed open and `old` was the bank's oldest hit of
    /// its direction (the hit pass offers nothing else), so only that fact
    /// — and `oldest_current`, if `old` was that too — needs a successor.
    /// Successors are younger, hence from `next` on, and of the current
    /// transaction, hence before the first request of a later one; the
    /// lookahead facts cannot change.
    pub(super) fn view_retired(
        &mut self,
        ch: usize,
        b: usize,
        slot: Slot,
        old: &Request,
        next: Slot,
    ) {
        let unconstrained = self.policy.unconstrained();
        let queues = &self.queues[ch];
        let ChannelCache { view, bounds } = &mut self.kept.caches[ch];
        let Some(window) = view.window else {
            return;
        };
        let bank = &mut view.banks[b];
        let dir = usize::from(old.is_write);
        debug_assert_eq!(bank.oldest_hit[dir], Some(slot), "retired a non-head hit");
        let mut behind = queues
            .from(next)
            .take_while(|(_, r)| classify(r.txn, window, unconstrained) == Class::Current);
        if bank.oldest_current == Some(slot) {
            bank.oldest_current = behind.clone().next().map(|(s, _)| s);
            replace(
                &mut view.order_current,
                queues,
                Some(slot),
                bank.oldest_current,
            );
        }
        let next_hit = behind
            .find(|(_, r)| r.is_write == old.is_write && r.loc.row == old.loc.row)
            .map(|(s, _)| s);
        bank.oldest_hit[dir] = next_hit;
        bounds.set_wants(b, bank.wanted(queues));
        replace(&mut view.hits, queues, Some(slot), next_hit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::faults::mix64;

    /// A seeded bank list in arrival and transaction order, queued in bank
    /// 2 of three: 1–40 requests, runs of one transaction 1–6 long, gaps of
    /// 1–3 transactions between runs, three rows, both directions.
    fn seeded_queues(seed: u64) -> ChannelQueues {
        let mut queues = ChannelQueues::new(3, 40);
        let mut txn = mix64(seed) % 5;
        for i in 0..1 + mix64(seed ^ 0xA) % 40 {
            let r = mix64(seed ^ (i << 8));
            if r.is_multiple_of(6) {
                txn += 1 + (r >> 8) % 3;
            }
            let request = Request {
                id: 7 * i + 3,
                txn: TxnId(txn),
                loc: DramLocation {
                    channel: 0,
                    rank: 0,
                    bank: 2,
                    row: (r >> 16) % 3,
                    column: 0,
                },
                is_write: (r >> 24).is_multiple_of(3),
                arrival: i,
                first_cmd_at: None,
                class: None,
            };
            queues.push(2, request).expect("40 entries per direction");
        }
        queues
    }

    /// The bank's facts read off the *whole* list, one question at a time.
    fn full_walk(
        queues: &ChannelQueues,
        open_row: Option<u64>,
        window: (TxnId, u64),
        unconstrained: bool,
    ) -> BankView {
        let of = |class: Class| {
            queues
                .bank(2)
                .filter(move |(_, r)| classify(r.txn, window, unconstrained) == class)
        };
        let hit = |(_, r): &(Slot, &Request)| open_row == Some(r.loc.row);
        let oldest_hit = |write: bool| {
            of(Class::Current)
                .filter(hit)
                .find(|(_, r)| r.is_write == write)
                .map(|(s, _)| s)
        };
        BankView {
            open_row,
            oldest_current: of(Class::Current).next().map(|(s, _)| s),
            oldest_hit: [oldest_hit(false), oldest_hit(true)],
            oldest_future: of(Class::Future).next().map(|(s, _)| s),
            future_hit_pending: of(Class::Future).any(|e| hit(&e)),
        }
    }

    #[test]
    fn the_derivation_that_stops_early_equals_the_full_walk() {
        // The lookaheads of the six policies (`TransactionBased`,
        // `ReadOverWrite` and `FixedCadence` share 0); `Unconstrained`
        // classifies everything current and must never stop.
        let windows = [(0, false), (1, false), (3, false), (u64::MAX, true)];
        let (mut stopped_short, mut walked_all) = (0, 0);
        for seed in 0..400u64 {
            let queues = seeded_queues(seed);
            let (first, last) = {
                let mut bank = queues.bank(2).map(|(_, r)| r.txn);
                let first = bank.next().expect("one request at least");
                (first.0, bank.last().unwrap_or(first))
            };
            for (lookahead, unconstrained) in windows {
                // The current transaction is the oldest queued (what the
                // controller derives against), or — a stale window — older.
                for current in [first, first.saturating_sub(2)] {
                    for open_row in [None, Some(0), Some(2)] {
                        let window = (TxnId(current), lookahead);
                        assert_eq!(
                            derive_bank(&queues, 2, open_row, window, unconstrained),
                            full_walk(&queues, open_row, window, unconstrained),
                            "seed {seed}, window {window:?}, row {open_row:?}"
                        );
                    }
                    match classify(last, (TxnId(current), lookahead), unconstrained) {
                        Class::Outside => stopped_short += 1,
                        _ => walked_all += 1,
                    }
                }
            }
        }
        assert!(stopped_short > 500 && walked_all > 500);
    }
}
