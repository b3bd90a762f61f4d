//! The three scheduling passes (row-hit, bank-preparation, proactive) and
//! command issue, parameterized by the policy's per-tick [`CandidateOrder`].
//!
//! The passes are a pure search over the channel's scheduling view
//! ([`pick`]); whether a candidate's command may issue *now* is a compare
//! against the channel's copy of `dram-sim`'s timing registers, and a
//! channel is only scanned on a cycle at which one of the commands the
//! passes would offer can issue — see `cache.rs`. `DramModule::can_issue`
//! is asked by `DramModule::issue` itself and by [`probe`] only.

use dram_sim::faults::{mix64, u01};
use dram_sim::{CommandKind, DramCommand, DramLocation, DramModule, IssueOutcome};

use crate::policy::CandidateOrder;
use crate::queue::{ChannelQueues, Slot};
use crate::request::{Completed, RowClass, TxnId};

use super::cache::{dram_bank, BankView, ChannelCache, ChannelView};
use super::faults::{DOMAIN_DROP, DOMAIN_LATE};
use super::MemoryController;

/// The direction filter rounds a [`CandidateOrder`] expands to: `None`
/// matches both directions in one age-ordered round (the FR-FCFS default);
/// the prioritized orders run two filtered rounds over the same
/// age-sorted candidate list.
fn direction_rounds(order: CandidateOrder) -> &'static [Option<bool>] {
    match order {
        CandidateOrder::Age => &[None],
        CandidateOrder::ReadsFirst => &[Some(false), Some(true)],
        CandidateOrder::WritesFirst => &[Some(true), Some(false)],
    }
}

/// The command the passes chose for a channel this cycle.
#[derive(Debug, PartialEq)]
pub(super) struct Pick {
    /// The queued request it is issued for, and that request's bank and
    /// transaction.
    slot: Slot,
    b: usize,
    txn: TxnId,
    cmd: DramCommand,
    action: Action,
}

#[derive(Debug, PartialEq)]
enum Action {
    /// RD/WR: the request retires.
    Data { bypassed_write_hit: bool },
    /// PRE/ACT on the request's behalf.
    Prep {
        class_if_first: RowClass,
        proactive: bool,
    },
}

/// Applies the row-hit, bank-preparation and proactive PRE/ACT passes to
/// one channel's view over its `queues`, each trying its candidates in
/// `order`, and returns the first candidate command `can_issue` accepts, in
/// pass order.
pub(super) fn pick(
    view: &ChannelView,
    queues: &ChannelQueues,
    order: CandidateOrder,
    mut can_issue: impl FnMut(usize, &DramCommand) -> bool,
) -> Option<Pick> {
    // FR pass: oldest pending row hit that can issue its data command —
    // the only pass that issues data (RD/WR) commands. The list holds the
    // oldest hit per (bank, direction): the rest of each group would get
    // the same answer from `dram-sim` and is younger. The order's
    // direction rounds may let a younger read bypass an older write hit
    // (or vice versa); candidates never cross the transaction window, so
    // the reordering is intra-transaction only.
    for &round in direction_rounds(order) {
        for &slot in &view.hits {
            let req = queues.get(slot);
            if round.is_some_and(|w| w != req.is_write) {
                continue;
            }
            let cmd = if req.is_write {
                DramCommand::write(req.loc)
            } else {
                DramCommand::read(req.loc)
            };
            let b = queues.bank_of(slot);
            if can_issue(b, &cmd) {
                // A read issued under read priority while a write hit was
                // pending counts as one deferral for the policy.
                let bypassed_write_hit = order == CandidateOrder::ReadsFirst
                    && !req.is_write
                    && view.hits.iter().any(|&s| queues.get(s).is_write);
                return Some(Pick {
                    slot,
                    b,
                    txn: req.txn,
                    cmd,
                    action: Action::Data { bypassed_write_hit },
                });
            }
        }
    }

    // FCFS pass: oldest current-transaction request per bank drives the
    // bank preparation (PRE/ACT), in age order across banks (direction
    // rounds applied on top). A bank with a pending row hit is left open
    // so the hit survives.
    for &round in direction_rounds(order) {
        for &slot in &view.order_current {
            if round.is_some_and(|w| w != queues.get(slot).is_write) {
                continue;
            }
            let b = queues.bank_of(slot);
            let bank = &view.banks[b];
            let hit_pending = bank.current_hit_pending();
            let found = prepare(bank, queues, slot, b, hit_pending, false, &mut can_issue);
            if found.is_some() {
                return found;
            }
        }
    }

    // Proactive pass (Algorithm 2, generalized to the policy's lookahead):
    // PRE/ACT for lookahead-window requests whose conflicts are
    // inter-transaction. Without a lookahead the future window is empty
    // (under the unconstrained ablation too: every request is current).
    for &slot in &view.order_future {
        let b = queues.bank_of(slot);
        let bank = &view.banks[b];
        // Guard: the bank must have no pending request from the current
        // transaction — otherwise the conflict is intra-transaction and
        // Algorithm 2 leaves it alone.
        if bank.oldest_current.is_some() {
            continue;
        }
        // Row-hit preservation, mirrored for the window: if any window
        // request still wants the open row, leave the bank alone —
        // otherwise PB would change row-buffer outcomes, which the paper's
        // fidelity argument forbids.
        let hit_pending = bank.future_hit_pending;
        let found = prepare(bank, queues, slot, b, hit_pending, true, &mut can_issue);
        if found.is_some() {
            return found;
        }
    }
    None
}

/// The probe-everything pass: the passes over `view`, asking `dram` whether
/// each candidate can issue at `cycle`. What the bounds find must be what
/// this finds: nothing on a channel that sleeps.
pub(super) fn probe(
    view: &ChannelView,
    queues: &ChannelQueues,
    dram: &DramModule,
    order: CandidateOrder,
    cycle: u64,
) -> Option<Pick> {
    pick(view, queues, order, |_, cmd| {
        dram.can_issue(cmd, cycle).is_ok()
    })
}

/// The PRE or ACT that moves `bank` (index `b`) towards the row of the
/// request in `slot`, if one is needed, no pending hit (`hit_pending`)
/// needs the open row, and it may issue.
fn prepare(
    bank: &BankView,
    queues: &ChannelQueues,
    slot: Slot,
    b: usize,
    hit_pending: bool,
    proactive: bool,
    can_issue: &mut impl FnMut(usize, &DramCommand) -> bool,
) -> Option<Pick> {
    let req = queues.get(slot);
    let (cmd, class_if_first) = match bank.prep_kind(req.loc.row, hit_pending)? {
        CommandKind::Precharge => (DramCommand::precharge(req.loc), RowClass::Conflict),
        _ => (DramCommand::activate(req.loc), RowClass::Miss),
    };
    can_issue(b, &cmd).then_some(Pick {
        slot,
        b,
        txn: req.txn,
        cmd,
        action: Action::Prep {
            class_if_first,
            proactive,
        },
    })
}

impl MemoryController {
    /// Issues at most one command on channel `ch`, trying candidates in
    /// `order`.
    /// Returns true if a command was issued.
    pub(super) fn schedule_channel(
        &mut self,
        ch: usize,
        current: TxnId,
        lookahead: u64,
        order: CandidateOrder,
        cycle: u64,
    ) -> bool {
        if self.kept.caches[ch].view.window != Some((current, lookahead)) {
            self.rebuild_view(ch, current, lookahead);
        }
        let queues = &self.queues[ch];
        let ChannelCache { view, bounds } = &mut self.kept.caches[ch];
        if cycle < bounds.wake_at() {
            debug_assert!(
                probe(view, queues, &self.dram, order, cycle).is_none(),
                "channel {ch} slept through an issuable command at cycle {cycle}"
            );
            return false;
        }
        let found = pick(view, queues, order, |b, cmd| {
            bounds.ready(b, cmd.kind, cycle)
        });
        debug_assert_eq!(
            found,
            probe(view, queues, &self.dram, order, cycle),
            "channel {ch}: the bounds and `can_issue` disagree at cycle {cycle}"
        );
        let Some(found) = found else {
            // Awake means a wanted command can issue, and the passes offer
            // every wanted command: unreachable while the wants are kept.
            debug_assert!(false, "channel {ch} woke at cycle {cycle} to issue nothing");
            bounds.unsettle();
            return false;
        };
        match found.action {
            Action::Data { bypassed_write_hit } => {
                self.issue_data_command(ch, &found, cycle, bypassed_write_hit);
            }
            Action::Prep {
                class_if_first,
                proactive,
            } => self.issue_prep_command(ch, &found, cycle, class_if_first, proactive),
        }
        true
    }

    /// Close-page policy: precharge any open bank with no pending request
    /// for its open row, as soon as timing allows. At most one PRE per
    /// channel per cycle (the command bus is shared).
    pub(super) fn close_idle_rows(&mut self, ch: usize, cycle: u64) {
        for b in 0..self.banks_per_channel() {
            let Some(row) = dram_bank(&self.dram, self.banks_per_rank, ch, b).open_row() else {
                continue;
            };
            // "Does anyone still want this row" is a question about the
            // bank's own queue, window or not.
            if self.queues[ch].bank(b).any(|(_, r)| r.loc.row == row) {
                continue;
            }
            let cmd = DramCommand::precharge(DramLocation {
                channel: ch as u32,
                rank: b as u32 / self.banks_per_rank,
                bank: b as u32 % self.banks_per_rank,
                row,
                column: 0,
            });
            if self.kept.caches[ch].bounds.ready(b, cmd.kind, cycle) {
                self.issue_to_dram(ch, b, cmd, cycle, None);
                self.stats.precharges += 1;
                self.view_precharged(ch, b);
                return;
            }
        }
    }

    /// Puts `cmd` on channel `ch`'s command bus: the one place commands
    /// leave the controller, so also the one place the per-bank state that
    /// mirrors the DRAM (busy window, open-bank count, issue bounds) is
    /// kept in step. The caller updates the queue and then the bank's view:
    /// by delta after a data command ([`Self::view_retired`]) or a PRE
    /// ([`Self::view_precharged`]), from scratch after an ACT
    /// ([`Self::refresh_bank`]).
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn issue_to_dram(
        &mut self,
        ch: usize,
        b: usize,
        cmd: DramCommand,
        cycle: u64,
        txn: Option<TxnId>,
    ) -> IssueOutcome {
        let outcome = self.dram.issue(cmd, cycle).expect("its bounds have passed");
        self.record_trace(cycle, cmd, txn);
        self.kept.caches[ch].bounds.reread(&self.dram, &cmd.loc);
        let rank = self.dram.channel(cmd.loc.channel).rank(cmd.loc.rank);
        let busy_until = rank.bank(cmd.loc.bank).busy_until();
        let pending = !self.queues[ch].bank_is_empty(b);
        self.kept
            .ledger
            .commanded(self.slot(ch, b), busy_until, pending);
        match cmd.kind {
            CommandKind::Activate => self.kept.open_banks += 1,
            CommandKind::Precharge => self.kept.open_banks -= 1,
            CommandKind::Read | CommandKind::Write => {}
        }
        outcome
    }

    /// Issues the RD/WR the passes picked and retires its request —
    /// unless an injected drop fault swallows the response.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn issue_data_command(&mut self, ch: usize, pick: &Pick, cycle: u64, bypassed_write_hit: bool) {
        let Pick {
            slot, b, txn, cmd, ..
        } = *pick;
        let outcome = self.issue_to_dram(ch, b, cmd, cycle, Some(txn));
        let is_write = cmd.kind == CommandKind::Write;
        self.policy.observe_data_issue(is_write, bypassed_write_hit);
        // Response-fault hooks. A *dropped* response consumes the DRAM
        // command (bus and bank timing are spent) but never retires the
        // request: it stays queued and a later scheduling pass reissues the
        // data command. The transaction pointer cannot advance past the
        // still-queued request, so data commands remain in transaction
        // order — the fault costs latency only. A *late* response retires
        // normally with `data_done_at` pushed back.
        let mut extra_delay = 0;
        if let Some(f) = &mut self.response_faults {
            f.draws += 1;
            if u01(mix64(f.cfg.seed ^ DOMAIN_DROP ^ f.draws)) < f.cfg.drop_rate {
                self.stats.responses_dropped += 1;
                let req = self.queues[ch].get_mut(slot);
                req.record_first_command(cycle, RowClass::Hit);
                self.refresh_bank(ch, b);
                return;
            }
            if u01(mix64(f.cfg.seed ^ DOMAIN_LATE ^ f.draws)) < f.cfg.late_rate {
                self.stats.responses_delayed += 1;
                extra_delay = f.cfg.late_delay;
            }
        }
        let (next, mut req) = self.queues[ch].remove(slot);
        self.dequeued += 1;
        let last = self.queues[ch].bank_is_empty(b);
        self.kept.ledger.retired(self.slot(ch, b), last);
        self.txn_retired(txn);
        self.view_retired(ch, b, slot, &req, next);
        req.record_first_command(cycle, RowClass::Hit);
        let class = req.class.expect("set on first command");
        let completed = Completed {
            id: req.id,
            txn: req.txn,
            is_write: req.is_write,
            arrival: req.arrival,
            first_cmd_at: req.first_cmd_at.expect("set on first command"),
            issue_at: cycle,
            data_done_at: outcome.data_done_at.expect("data command") + extra_delay,
            class,
        };
        self.stats.record_completion(&completed);
        self.stats.per_channel_requests[ch] += 1;
        self.completed.push(completed);
    }

    /// Issues the PRE or ACT the passes picked on behalf of its request
    /// (classifying the request if this is its first command) and updates
    /// the early-command statistics when the issue was proactive.
    fn issue_prep_command(
        &mut self,
        ch: usize,
        pick: &Pick,
        cycle: u64,
        class_if_first: RowClass,
        proactive: bool,
    ) {
        let Pick {
            slot, b, txn, cmd, ..
        } = *pick;
        self.issue_to_dram(ch, b, cmd, cycle, Some(txn));
        let req = self.queues[ch].get_mut(slot);
        req.record_first_command(cycle, class_if_first);
        match cmd.kind {
            CommandKind::Precharge => {
                self.view_precharged(ch, b);
                self.stats.precharges += 1;
                if proactive {
                    self.stats.early_precharges += 1;
                }
            }
            CommandKind::Activate => {
                self.refresh_bank(ch, b);
                self.stats.activates += 1;
                if proactive {
                    self.stats.early_activates += 1;
                }
            }
            _ => unreachable!("prep commands are PRE/ACT only"),
        }
    }
}
