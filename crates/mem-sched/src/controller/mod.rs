//! The ORAM-aware memory controller.
//!
//! The controller core in this module owns the per-channel queues, the
//! cached scheduling views and the DRAM handshake; the *decision* of which
//! candidate issues each cycle is read off the policy table (see
//! [`crate::policy`] for its rows). The paper's two algorithms are the
//! anchor points of that policy space:
//!
//! * **Transaction-based scheduling** (Algorithm 1, the baseline): all
//!   commands of ORAM transaction *i* must be issued before any command of
//!   transaction *i+1*; within the transaction, FR-FCFS (row hits first,
//!   then oldest-first) is used per channel.
//! * **Proactive Bank scheduling** (Algorithm 2, the paper's PB): identical,
//!   except that when a channel has nothing issuable from transaction *i*,
//!   the scheduler may issue **PRE/ACT only** for transaction *i+1* requests
//!   whose row-buffer conflicts are *inter*-transaction — i.e. whose target
//!   bank has no pending transaction-*i* request. Data commands (RD/WR)
//!   remain strictly transaction-ordered, so the access sequence observable
//!   on the bus is unchanged.
//!
//! Module layout (mirroring the `string-oram` pipeline split):
//!
//! * [`mod@self`] — the [`MemoryController`] struct, its tick loop and
//!   queue admission;
//! * `cache` — the per-bank scheduling views and the issue bounds (a copy
//!   of `dram-sim`'s timing registers) that let a stalled channel sleep,
//!   both kept up on events;
//! * `accounting` — the occupancy and bank-idle integrands (Fig. 12),
//!   counted on the events that move them;
//! * `schedule` — the three scheduling passes and command issue;
//! * `faults` — deterministic response-fault injection.
//!
//! `tick` is called once per cycle, but what it costs follows what
//! *changed*: a channel is scanned only on a cycle at which one of the
//! commands the passes would offer can issue — the smallest of their bounds,
//! re-read from `dram-sim`'s registers after every command and refresh —
//! and while every channel sleeps a tick does its accounting and returns.
//! An event updates the facts it can change: an enqueue or a data
//! command adjusts its bank's view in place, a PRE clears what a closed row
//! cannot hold, an ACT re-derives one bank's facts from that bank's queue,
//! only a window move or a refresh re-derives a channel (see `cache.rs`).
//! A tick on which nothing changed is a handful of adds: the per-tick
//! integrals add counts kept by transition (`accounting.rs`) and the
//! current transaction is the head of a run-list, so no queue and no bank
//! is walked.
//!
//! Everything kept that way is one struct, `Kept`, refereed by one `==`
//! against its recomputation from the queues and the DRAM: at the end of
//! every `tick` and `try_enqueue` in debug builds, explicitly in tests.

mod accounting;
mod cache;
mod faults;
mod schedule;
#[cfg(test)]
mod tests;

pub use faults::{FaultConfigError, ResponseFaultConfig};

use std::collections::VecDeque;

use dram_sim::faults::{mix64, u01};
use dram_sim::{AddressMapping, DramGeometry};
use dram_sim::{DramCommand, DramModule};

use crate::policy::{PolicyState, PolicyStats, SchedulerPolicy};
use crate::queue::{ChannelQueues, QueueFull};
use crate::request::{Completed, Request, RequestSpec, TxnId};
use crate::stats::SchedulerStats;

use accounting::BankLedger;
use cache::{dram_bank, Candidate, ChannelCache};
use faults::{ResponseFaultState, DOMAIN_SAT, SATURATION_WINDOW_SHIFT};
use schedule::probe;

/// One issued DRAM command, as recorded by the optional command trace.
///
/// The transaction attribution lets external conformance checkers (the
/// `sim-verify` crate) validate not just JEDEC timing but the ORAM security
/// contract: data commands must appear in transaction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandEvent {
    /// Cycle the command occupied the command bus.
    pub cycle: u64,
    /// The command itself.
    pub cmd: DramCommand,
    /// Transaction on whose behalf the command was issued; `None` for
    /// controller housekeeping (close-page precharges of idle rows).
    pub txn: Option<TxnId>,
}

/// Row-buffer management policy (paper §II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Keep rows open after column commands; conflicts pay PRE+ACT on the
    /// critical path but locality is exploited. The paper's assumption.
    #[default]
    Open,
    /// *Adaptive* close-page: precharge a bank as soon as no queued request
    /// wants its open row, removing PRE from the critical path of the next
    /// conflict while preserving pending row hits. (A literal close-page —
    /// PRE immediately after every column command — would forfeit the
    /// subtree layout's locality entirely; the adaptive form is the
    /// strongest fair competitor to PB.)
    Closed,
}

/// What the controller keeps between ticks besides the queues and the
/// DRAM: each field is a function of those two and the last tick's cycle
/// ([`MemoryController::derive_into`]), kept up on the events that move it.
#[derive(Clone, Debug, Default, PartialEq)]
struct Kept {
    /// Per-channel scheduling views and issue bounds, kept up per bank on
    /// events (see `cache.rs`).
    caches: Vec<ChannelCache>,
    /// What the per-tick integrals add — requests queued, banks with work,
    /// banks with work inside their busy window — counted on the events
    /// that move them (see `accounting.rs`).
    ledger: BankLedger,
    /// The queued transactions in arrival order, each with the number of
    /// its requests still queued (all channels). Requests arrive in
    /// non-decreasing transaction order (the [`crate::MemoryBackend`]
    /// contract), so the head is the transaction being drained.
    txn_runs: VecDeque<(TxnId, u32)>,
    /// Banks with an open row, counted on ACT/PRE (recounted on refresh).
    open_banks: u64,
    /// No channel has anything it may issue before this cycle: the minimum
    /// of the channels' wake-ups as the last tick that looked left them, 0
    /// when one of them has to look again (an enqueue that moved a want or
    /// the transaction pointer, a refresh, a moved window).
    sleep_until: u64,
}

impl Kept {
    /// Empty, sized for `geometry` and `queue_capacity` up front: neither
    /// its upkeep nor its derivation allocates.
    fn new(geometry: &DramGeometry, queue_capacity: usize) -> Self {
        let channels = geometry.channels as usize;
        let banks = (geometry.ranks_per_channel * geometry.banks_per_rank) as usize;
        Self {
            caches: (0..channels).map(|_| ChannelCache::new(geometry)).collect(),
            ledger: BankLedger::new(channels * banks),
            // One run per queued request at worst: never grows.
            txn_runs: VecDeque::with_capacity(channels * 2 * queue_capacity),
            ..Self::default()
        }
    }
}

/// The memory controller: per-channel queues, a scheduling policy, and the
/// DRAM module it drives.
#[derive(Debug)]
pub struct MemoryController {
    dram: DramModule,
    mapping: AddressMapping,
    policy: PolicyState,
    page_policy: PagePolicy,
    queues: Vec<ChannelQueues>,
    next_id: u64,
    completed: Vec<Completed>,
    stats: SchedulerStats,
    last_cycle: u64,
    banks_per_rank: u32,
    /// Banks per channel, all ranks.
    banks_per_channel: usize,
    kept: Kept,
    /// Scratch for [`Self::derive_into`].
    derived: Kept,
    /// Optional command trace: every issued command with its cycle and
    /// owning transaction.
    command_trace: Option<Vec<CommandEvent>>,
    /// Optional deterministic response-fault injection.
    response_faults: Option<ResponseFaultState>,
}

impl MemoryController {
    /// Creates a controller over `dram` with `queue_capacity` entries per
    /// direction per channel (the paper uses 64), scheduling with the
    /// policy the `policy` tag names.
    ///
    /// # Panics
    ///
    /// When the tag's parameter is out of range: `FixedCadence` with
    /// `period == 0` or `ReadOverWrite` with `drain_bound == 0`.
    #[must_use]
    pub fn new(
        dram: DramModule,
        mapping: AddressMapping,
        policy: SchedulerPolicy,
        queue_capacity: usize,
    ) -> Self {
        let geometry = dram.geometry();
        let channels = geometry.channels;
        let banks_per_rank = geometry.banks_per_rank;
        let banks = (geometry.ranks_per_channel * banks_per_rank) as usize;
        let kept = Kept::new(geometry, queue_capacity);
        // Built alike, not cloned: a clone has no spare capacity.
        let derived = Kept::new(geometry, queue_capacity);
        Self {
            mapping,
            policy: PolicyState::new(policy),
            page_policy: PagePolicy::Open,
            queues: (0..channels)
                .map(|_| ChannelQueues::new(banks, queue_capacity))
                .collect(),
            next_id: 0,
            completed: Vec::new(),
            stats: SchedulerStats {
                per_channel_requests: vec![0; channels as usize],
                ..SchedulerStats::default()
            },
            last_cycle: 0,
            banks_per_rank,
            banks_per_channel: banks,
            kept,
            derived,
            dram,
            command_trace: None,
            response_faults: None,
        }
    }

    /// Enables deterministic response-fault injection (dropped/late data
    /// responses, queue saturation). Idempotent per config; the fault
    /// schedule restarts from the seed.
    ///
    /// # Panics
    ///
    /// If `cfg` fails [`ResponseFaultConfig::validate`].
    pub fn enable_response_faults(&mut self, cfg: ResponseFaultConfig) {
        if let Err(e) = cfg.validate() {
            panic!("invalid ResponseFaultConfig: {e}");
        }
        self.response_faults = Some(ResponseFaultState {
            cfg,
            draws: 0,
            last_saturated_window: None,
        });
    }

    /// Whether response-fault injection is active.
    #[must_use]
    pub fn response_faults_enabled(&self) -> bool {
        self.response_faults.is_some()
    }

    /// Whether the queue-saturation fault is active for the window
    /// containing `cycle`.
    fn saturated_at(&self, cycle: u64) -> bool {
        self.response_faults.as_ref().is_some_and(|f| {
            f.cfg.saturation_rate > 0.0
                && u01(mix64(
                    f.cfg.seed ^ DOMAIN_SAT ^ (cycle >> SATURATION_WINDOW_SHIFT),
                )) < f.cfg.saturation_rate
        })
    }

    /// Starts recording every issued command (cycle, command). Useful for
    /// debugging, external analysis and replay validation; costs memory
    /// proportional to the command count.
    pub fn enable_command_trace(&mut self) {
        self.command_trace = Some(Vec::new());
    }

    /// Takes the recorded command events — the trace with transaction
    /// attribution, empty if tracing was never enabled — leaving tracing
    /// active if it was.
    pub fn take_command_events(&mut self) -> Vec<CommandEvent> {
        match &mut self.command_trace {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// Moves the recorded command events into `out`, retaining the trace
    /// buffer (no allocation in steady state).
    pub fn drain_command_events_into(&mut self, out: &mut Vec<CommandEvent>) {
        if let Some(t) = &mut self.command_trace {
            out.append(t);
        }
    }

    fn record_trace(&mut self, cycle: u64, cmd: DramCommand, txn: Option<TxnId>) {
        if let Some(t) = &mut self.command_trace {
            t.push(CommandEvent { cycle, cmd, txn });
        }
    }

    /// The tag naming the policy in force.
    #[must_use]
    pub fn policy(&self) -> SchedulerPolicy {
        self.policy.tag()
    }

    /// The stable name of the policy in force.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.policy.tag().name()
    }

    /// The policy-local counters of the policy in force.
    #[must_use]
    pub fn policy_stats(&self) -> PolicyStats {
        self.policy.stats()
    }

    /// The page policy in force (defaults to [`PagePolicy::Open`]).
    #[must_use]
    pub fn page_policy(&self) -> PagePolicy {
        self.page_policy
    }

    /// Selects the row-buffer management policy.
    pub fn set_page_policy(&mut self, policy: PagePolicy) {
        self.page_policy = policy;
    }

    /// The underlying DRAM module (for timing/geometry/bank statistics).
    #[must_use]
    pub fn dram(&self) -> &DramModule {
        &self.dram
    }

    /// Scheduler statistics (controller-level; use
    /// [`MemoryController::policy_stats`] for the policy-local counters).
    #[must_use]
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// Number of requests currently queued (not yet issued).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.kept.ledger.queued()
    }

    /// Enqueues a request at `cycle`.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the target channel queue has no free entry; the
    /// caller must stall and retry (nothing is enqueued).
    ///
    /// # Panics
    ///
    /// When a request it would accept is of an older transaction than one
    /// still queued (see the [`crate::MemoryBackend`] contract).
    pub fn try_enqueue(&mut self, spec: RequestSpec, cycle: u64) -> Result<u64, QueueFull> {
        let loc = self.mapping.decode(spec.addr);
        if self.saturated_at(cycle) {
            let window = cycle >> SATURATION_WINDOW_SHIFT;
            if let Some(f) = &mut self.response_faults {
                if f.last_saturated_window != Some(window) {
                    f.last_saturated_window = Some(window);
                    self.stats.queue_saturation_windows += 1;
                }
            }
            let q = &self.queues[loc.channel as usize];
            if q.dir_len(spec.is_write) >= q.capacity().div_ceil(2) {
                return Err(QueueFull);
            }
        }
        let id = self.next_id;
        let req = Request {
            id,
            txn: spec.txn,
            loc,
            is_write: spec.is_write,
            arrival: cycle,
            first_cmd_at: None,
            class: None,
        };
        let (ch, b) = (loc.channel as usize, self.bank_index(&loc));
        let new = Candidate::of(&req, b);
        let first = self.queues[ch].bank(b).is_empty();
        self.queues[ch].push(b, req)?;
        self.kept.ledger.enqueued(self.slot(ch, b), first);
        let runs = &mut self.kept.txn_runs;
        assert!(
            runs.back().is_none_or(|&(last, _)| last <= spec.txn),
            "requests must be enqueued in transaction order"
        );
        // The whole-controller sleep stands unless the request moved what it
        // was computed from: the transaction pointer (nothing was queued) or
        // what the passes would offer on its channel.
        let idle = runs.is_empty();
        match runs.back_mut() {
            Some((txn, queued)) if *txn == spec.txn => *queued += 1,
            _ => runs.push_back((spec.txn, 1)),
        }
        self.view_enqueued(ch, new);
        if idle || !self.kept.caches[ch].bounds.is_settled() {
            self.kept.sleep_until = 0;
        }
        self.next_id += 1;
        debug_assert!(
            self.kept_is_derived(),
            "the kept state drifted from its derivation at the enqueue of request {id}"
        );
        Ok(id)
    }

    /// A request of `txn` left the queues: its run shrinks, and goes when
    /// it was the last. The run is the head's under every order-preserving
    /// policy (only the unconstrained ablation retires from further back).
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn txn_retired(&mut self, txn: TxnId) {
        let runs = &mut self.kept.txn_runs;
        let at = runs
            .iter()
            .position(|&(t, _)| t == txn)
            .expect("every queued request is counted in its transaction's run");
        let (_, queued) = &mut runs[at];
        *queued -= 1;
        if *queued == 0 {
            runs.remove(at);
        }
    }

    /// Takes all requests completed since the last call.
    pub fn drain_completed(&mut self) -> Vec<Completed> {
        std::mem::take(&mut self.completed)
    }

    /// Moves all requests completed since the last call into `out`,
    /// retaining the internal buffer (no allocation in steady state).
    pub fn drain_completed_into(&mut self, out: &mut Vec<Completed>) {
        out.append(&mut self.completed);
    }

    /// The transaction currently being drained: the smallest transaction id
    /// with an unissued request, if any.
    #[must_use]
    pub fn current_txn(&self) -> Option<TxnId> {
        self.kept.txn_runs.front().map(|&(txn, _)| txn)
    }

    /// Advances the controller by one memory cycle: refresh housekeeping,
    /// then at most one command per channel according to the policy's plan
    /// for this tick.
    pub fn tick(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.last_cycle, "cycles must be non-decreasing");
        self.last_cycle = cycle;
        let refreshed = self.dram.tick(cycle);
        if refreshed {
            self.observe_refresh();
        }
        self.kept.ledger.advance(cycle, refreshed, &self.queues);
        self.stats.queue_occupancy_integral += self.kept.ledger.queued() as u64;
        self.stats.ticks += 1;

        // Bank idle accounting (Fig. 12(a)): a bank with pending requests
        // either executes a command window this cycle or sits stalled —
        // under transaction-based scheduling mostly because of the barrier.
        let ledger = &self.kept.ledger;
        let (pending, busy) = (ledger.pending(), ledger.busy());
        self.stats.bank_tick_integral += ledger.banks() as u64;
        self.stats.open_bank_integral += self.kept.open_banks;
        self.stats.busy_pending_bank_cycles += busy;
        self.stats.stalled_bank_cycles += pending - busy;

        // Algorithm 1 line 9-11 / Algorithm 2 line 13-15: the current
        // transaction pointer advances as soon as no commands of it remain.
        let current = self.current_txn();

        // The plan comes before the sleep check: it counts the withheld
        // slots of every tick, scanned or not.
        let order = self.policy.plan(cycle);
        let lookahead = self.policy.lookahead();
        // Close-page housekeeping looks at the banks on every tick.
        if cycle < self.kept.sleep_until && self.page_policy == PagePolicy::Open {
            // Asleep, every view is of the current window (the referee
            // held it at the last event), so the probe reads the right one.
            debug_assert!(
                order.is_none_or(|order| (0..self.queues.len()).all(|ch| {
                    probe(&self.kept.caches[ch].view, &self.dram, order, cycle).is_none()
                })),
                "the controller slept through an issuable command at cycle {cycle}"
            );
        } else {
            for ch in 0..self.queues.len() {
                let issued = match (current, order) {
                    (Some(t), Some(order)) => self.schedule_channel(ch, t, lookahead, order, cycle),
                    _ => false,
                };
                if !issued && self.page_policy == PagePolicy::Closed {
                    self.close_idle_rows(ch, cycle);
                }
            }
            self.kept.sleep_until = self.earliest_wake();
        }
        debug_assert!(
            self.kept_is_derived(),
            "the kept state drifted from its derivation at cycle {cycle}"
        );
    }

    /// The first cycle at which a channel may have something to issue:
    /// the smallest of the channels' wake-ups, settled here so that the
    /// ticks until then are skipped from the next one on; 0 while a
    /// channel's window is not the current one (a retirement just moved
    /// the transaction pointer: its next pass re-derives it); never, with
    /// nothing queued.
    fn earliest_wake(&mut self) -> u64 {
        let Some(current) = self.current_txn() else {
            return u64::MAX;
        };
        let window = Some((current, self.policy.lookahead()));
        let wake = |cache: &mut ChannelCache| {
            if cache.view.window == window {
                cache.bounds.wake_at()
            } else {
                0
            }
        };
        let caches = self.kept.caches.iter_mut();
        caches.map(wake).min().unwrap_or(u64::MAX)
    }

    /// A refresh started: it closed every row of its rank and moved bank
    /// timing without a command from the controller, so everything kept is
    /// taken from the derivation, with every window dropped (the next pass
    /// derives its view) and every wake-up due. Rare: once per tREFI.
    fn observe_refresh(&mut self) {
        for cache in &mut self.kept.caches {
            cache.view.window = None;
            cache.bounds.unsettle();
        }
        self.kept.sleep_until = 0;
        let mut refreshed = std::mem::take(&mut self.derived);
        self.derive_into(&mut refreshed);
        self.derived = std::mem::replace(&mut self.kept, refreshed);
    }

    /// Recomputes into `out` everything [`Kept`] holds from the queues, the
    /// DRAM and the last tick's cycle, taking as given what is settled
    /// lazily and not yet due: an unsettled `wake_at`, a `sleep_until` of 0.
    /// Allocates nothing.
    fn derive_into(&self, out: &mut Kept) {
        let banks = self.banks_per_channel;
        let bank = |slot| dram_bank(&self.dram, self.banks_per_rank, slot / banks, slot % banks);
        let unconstrained = self.policy.unconstrained();
        for (ch, (cache, kept)) in out.caches.iter_mut().zip(&self.kept.caches).enumerate() {
            cache.derive(kept, &self.queues[ch], &self.dram, ch, unconstrained);
        }
        let kept = &self.kept.ledger;
        let until = |slot| bank(slot).busy_until();
        out.ledger
            .derive(kept, self.last_cycle, &self.queues, until);
        let open = (0..kept.banks()).filter(|&s| bank(s).open_row().is_some());
        out.open_banks = open.count() as u64;
        out.txn_runs.clear();
        for q in &self.queues {
            for r in (0..banks).flat_map(|b| q.bank(b)) {
                let at = out.txn_runs.partition_point(|&(txn, _)| txn < r.txn);
                match out.txn_runs.get_mut(at) {
                    Some((txn, queued)) if *txn == r.txn => *queued += 1,
                    _ => out.txn_runs.insert(at, (r.txn, 1)),
                }
            }
        }
        let lookahead = self.policy.lookahead();
        let window = out.txn_runs.front().map(|&(txn, _)| (txn, lookahead));
        let wakes = out.caches.iter().map(|c| c.bounds.earliest_wanted());
        out.sleep_until = match window {
            _ if self.kept.sleep_until == 0 => 0,
            None => u64::MAX,
            Some(_) if out.caches.iter().any(|c| c.view.window != window) => 0,
            Some(_) => wakes.min().unwrap_or(u64::MAX),
        };
    }

    /// The one referee: whether everything kept is what
    /// [`Self::derive_into`] recomputes now. Debug builds ask it at the end
    /// of every `tick` and `try_enqueue`.
    fn kept_is_derived(&mut self) -> bool {
        let mut derived = std::mem::take(&mut self.derived);
        self.derive_into(&mut derived);
        let held = derived == self.kept;
        self.derived = derived;
        held
    }
}
