//! Per-channel scheduling state kept between ticks: the per-bank
//! scheduling view and the issue bounds that let a stalled channel sleep.
//!
//! Both are maintained **per bank, on events**. A command issued to bank
//! *b* or a request enqueued for it re-derives bank *b*'s facts from bank
//! *b*'s own queue ([`MemoryController::refresh_bank`]) and clears bank
//! *b*'s bounds; the other banks of the channel keep theirs. Only a move of
//! the (current transaction, lookahead) window or a DRAM refresh — which
//! closes rows without the controller issuing anything — re-derives a whole
//! channel.

use dram_sim::bank::Bank;
use dram_sim::{DramCommand, DramLocation, DramModule};

use crate::policy::CandidateOrder;
use crate::request::{Request, TxnId};

use super::MemoryController;

/// A queued request as the scheduling passes see it: enough to build its
/// commands and to find it again in its bank's queue. The key (`b`, `id`)
/// is stable — no other request's removal changes it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    /// Enqueue id (the global age order).
    pub(crate) id: u64,
    pub(crate) txn: TxnId,
    pub(crate) is_write: bool,
    /// Channel-local bank index, `rank * banks_per_rank + bank`.
    pub(crate) b: usize,
    pub(crate) loc: DramLocation,
}

/// Per-(rank, bank) scheduling facts, derived from the bank's queue and
/// open row.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BankView {
    /// The bank's open row when the view was derived. Always current: the
    /// controller re-derives the view after every command it issues to the
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

impl ChannelView {
    /// Whether a request of `txn` falls inside the window the view was
    /// derived for (and so changes what the passes may pick).
    fn sees(&self, txn: TxnId, unconstrained: bool) -> bool {
        self.window.is_some_and(|(current, lookahead)| {
            unconstrained || txn.0 <= current.0.saturating_add(lookahead)
        })
    }
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
        self.bank_busy_until.len() / self.queues.len()
    }

    /// Channel-local index of the bank `loc` addresses.
    pub(super) fn bank_index(&self, loc: &DramLocation) -> usize {
        (loc.rank * self.banks_per_rank + loc.bank) as usize
    }

    /// Re-derives every bank's facts for a new (current transaction,
    /// lookahead) window.
    pub(super) fn rebuild_view(&mut self, ch: usize, current: TxnId, lookahead: u64) {
        self.caches[ch].view.window = Some((current, lookahead));
        for b in 0..self.banks_per_channel() {
            self.refresh_bank(ch, b);
        }
    }

    /// [`Self::refresh_bank`] after an enqueue of `txn` — unless the
    /// request lies beyond the lookahead window, where no pass looks.
    pub(super) fn refresh_bank_for(&mut self, ch: usize, b: usize, txn: TxnId) {
        if self.caches[ch].view.sees(txn, self.policy.unconstrained()) {
            self.refresh_bank(ch, b);
        }
    }

    /// Re-derives bank `b`'s facts from its own queue and open row, fixes
    /// its entries in the channel's age-ordered lists, and wakes the
    /// channel. Called after every command issued to the bank and every
    /// enqueue inside the window; a view with no window yet is derived in
    /// full by the next scheduling pass instead.
    pub(super) fn refresh_bank(&mut self, ch: usize, b: usize) {
        let ChannelCache { view, bounds } = &mut self.caches[ch];
        let Some((current, lookahead)) = view.window else {
            return;
        };
        bounds.wake();
        let unconstrained = self.policy.unconstrained();
        let open_row = dram_bank(&self.dram, self.banks_per_rank, ch, b).open_row();
        // The bank's list is in arrival order, so the first request seen of
        // each class is its oldest.
        let (mut oldest_hit, mut oldest_current, mut oldest_future) = ([None; 2], None, None);
        let mut future_hit_pending = false;
        for r in self.queues[ch].bank(b) {
            let hit = open_row == Some(r.loc.row);
            if unconstrained || r.txn == current {
                if hit {
                    oldest_hit[usize::from(r.is_write)].get_or_insert(r);
                }
                oldest_current.get_or_insert(r);
            } else if r.txn > current && r.txn.0 <= current.0.saturating_add(lookahead) {
                future_hit_pending |= hit;
                oldest_future.get_or_insert(r);
            }
        }
        let candidate = |r: &Request| Candidate {
            id: r.id,
            txn: r.txn,
            is_write: r.is_write,
            b,
            loc: r.loc,
        };
        let bank = BankView {
            open_row,
            oldest_hit: oldest_hit.map(|r| r.map(candidate)),
            oldest_current: oldest_current.map(candidate),
            oldest_future: oldest_future.map(candidate),
            future_hit_pending,
        };
        view.hits.retain(|c| c.b != b);
        for hit in bank.oldest_hit.into_iter().flatten() {
            let at = view.hits.partition_point(|c| c.id < hit.id);
            view.hits.insert(at, hit);
        }
        set_order(&mut view.order_current, b, bank.oldest_current);
        set_order(&mut view.order_future, b, bank.oldest_future);
        view.banks[b] = bank;
    }
}
