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
use crate::request::{Completed, RowClass, TxnId};

use super::cache::{dram_bank, BankView, Candidate, ChannelCache, ChannelView};
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
    /// The request it is issued for.
    cand: Candidate,
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
/// one channel's view, each trying its candidates in `order`, and returns
/// the first candidate command `can_issue` accepts, in pass order.
#[allow(clippy::expect_used)] // invariant, stated in the expect message
pub(super) fn pick(
    view: &ChannelView,
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
        for &cand in &view.hits {
            if round.is_some_and(|w| w != cand.is_write) {
                continue;
            }
            let cmd = if cand.is_write {
                DramCommand::write(cand.loc)
            } else {
                DramCommand::read(cand.loc)
            };
            if can_issue(cand.b, &cmd) {
                // A read issued under read priority while a write hit was
                // pending counts as one deferral for the policy.
                let bypassed_write_hit = order == CandidateOrder::ReadsFirst
                    && !cand.is_write
                    && view.hits.iter().any(|c| c.is_write);
                return Some(Pick {
                    cand,
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
        for &(_, b) in &view.order_current {
            let bank = &view.banks[b];
            let cand = bank.oldest_current.expect("in order_current");
            if round.is_some_and(|w| w != cand.is_write) {
                continue;
            }
            let found = prepare(
                bank,
                cand,
                bank.current_hit_pending(),
                false,
                &mut can_issue,
            );
            if found.is_some() {
                return found;
            }
        }
    }

    // Proactive pass (Algorithm 2, generalized to the policy's lookahead):
    // PRE/ACT for lookahead-window requests whose conflicts are
    // inter-transaction. Without a lookahead the future window is empty
    // (under the unconstrained ablation too: every request is current).
    for &(_, b) in &view.order_future {
        let bank = &view.banks[b];
        // Guard: the bank must have no pending request from the current
        // transaction — otherwise the conflict is intra-transaction and
        // Algorithm 2 leaves it alone.
        if bank.oldest_current.is_some() {
            continue;
        }
        let cand = bank.oldest_future.expect("in order_future");
        // Row-hit preservation, mirrored for the window: if any window
        // request still wants the open row, leave the bank alone —
        // otherwise PB would change row-buffer outcomes, which the paper's
        // fidelity argument forbids.
        let found = prepare(bank, cand, bank.future_hit_pending, true, &mut can_issue);
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
    dram: &DramModule,
    order: CandidateOrder,
    cycle: u64,
) -> Option<Pick> {
    pick(view, order, |_, cmd| dram.can_issue(cmd, cycle).is_ok())
}

/// The PRE or ACT that moves `bank` towards `cand`'s row, if one is needed,
/// no pending hit (`hit_pending`) needs the open row, and it may issue.
fn prepare(
    bank: &BankView,
    cand: Candidate,
    hit_pending: bool,
    proactive: bool,
    can_issue: &mut impl FnMut(usize, &DramCommand) -> bool,
) -> Option<Pick> {
    let (cmd, class_if_first) = match bank.prep_kind(&cand, hit_pending)? {
        CommandKind::Precharge => (DramCommand::precharge(cand.loc), RowClass::Conflict),
        _ => (DramCommand::activate(cand.loc), RowClass::Miss),
    };
    can_issue(cand.b, &cmd).then_some(Pick {
        cand,
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
        let ChannelCache { view, bounds } = &mut self.kept.caches[ch];
        if cycle < bounds.wake_at() {
            debug_assert!(
                probe(view, &self.dram, order, cycle).is_none(),
                "channel {ch} slept through an issuable command at cycle {cycle}"
            );
            return false;
        }
        let found = pick(view, order, |b, cmd| bounds.ready(b, cmd.kind, cycle));
        debug_assert_eq!(
            found,
            probe(view, &self.dram, order, cycle),
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
                self.issue_data_command(ch, found.cand, found.cmd, cycle, bypassed_write_hit);
            }
            Action::Prep {
                class_if_first,
                proactive,
            } => {
                self.issue_prep_command(ch, found.cand, found.cmd, cycle, class_if_first, proactive)
            }
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
            if self.queues[ch].bank(b).iter().any(|r| r.loc.row == row) {
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
        let pending = !self.queues[ch].bank(b).is_empty();
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

    /// Issues the RD/WR for a request and retires it — unless an injected
    /// drop fault swallows the response.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn issue_data_command(
        &mut self,
        ch: usize,
        cand: Candidate,
        cmd: DramCommand,
        cycle: u64,
        bypassed_write_hit: bool,
    ) {
        let outcome = self.issue_to_dram(ch, cand.b, cmd, cycle, Some(cand.txn));
        self.policy
            .observe_data_issue(cand.is_write, bypassed_write_hit);
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
                let req = self.queues[ch].get_mut(cand.b, cand.id);
                req.record_first_command(cycle, RowClass::Hit);
                self.refresh_bank(ch, cand.b);
                return;
            }
            if u01(mix64(f.cfg.seed ^ DOMAIN_LATE ^ f.draws)) < f.cfg.late_rate {
                self.stats.responses_delayed += 1;
                extra_delay = f.cfg.late_delay;
            }
        }
        let (at, mut req) = self.queues[ch].remove(cand.b, cand.id);
        let last = self.queues[ch].bank(cand.b).is_empty();
        self.kept.ledger.retired(self.slot(ch, cand.b), last);
        self.txn_retired(cand.txn);
        self.view_retired(ch, cand, at);
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

    /// Issues a PRE or ACT on behalf of a request (classifying it if this
    /// is the request's first command) and updates the early-command
    /// statistics when the issue was proactive.
    fn issue_prep_command(
        &mut self,
        ch: usize,
        cand: Candidate,
        cmd: DramCommand,
        cycle: u64,
        class_if_first: RowClass,
        proactive: bool,
    ) {
        self.issue_to_dram(ch, cand.b, cmd, cycle, Some(cand.txn));
        let req = self.queues[ch].get_mut(cand.b, cand.id);
        req.record_first_command(cycle, class_if_first);
        match cmd.kind {
            CommandKind::Precharge => {
                self.view_precharged(ch, cand.b);
                self.stats.precharges += 1;
                if proactive {
                    self.stats.early_precharges += 1;
                }
            }
            CommandKind::Activate => {
                self.refresh_bank(ch, cand.b);
                self.stats.activates += 1;
                if proactive {
                    self.stats.early_activates += 1;
                }
            }
            _ => unreachable!("prep commands are PRE/ACT only"),
        }
    }
}
