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
//! * `cache` — the per-bank scheduling views and the issue bounds that let
//!   a stalled channel sleep, both kept up on events;
//! * `schedule` — the three scheduling passes and command issue;
//! * `faults` — deterministic response-fault injection.
//!
//! `tick` is called once per cycle, but what it costs follows what
//! *changed*: a channel whose last scan found nothing issuable is not
//! scanned again before the earliest cycle `dram-sim` named (or an event —
//! issue, enqueue inside the window, window move, plan change, refresh),
//! and an event updates the facts it can change: an enqueue or a data
//! command adjusts its bank's view in place, a PRE/ACT re-derives one
//! bank's facts from that bank's queue, only a window move or a refresh
//! re-derives a channel (see `cache.rs`). The per-tick bank-idle pass
//! visits only the banks that have work (`ChannelQueues::pending_banks`).

mod cache;
mod faults;
mod schedule;
#[cfg(test)]
mod tests;

pub use faults::{FaultConfigError, ResponseFaultConfig};

use dram_sim::faults::{mix64, u01};
use dram_sim::AddressMapping;
use dram_sim::{DramCommand, DramModule};

use crate::policy::{PolicyState, PolicyStats, SchedulerPolicy};
use crate::queue::{ChannelQueues, QueueFull};
use crate::request::{Completed, Request, RequestSpec, TxnId};
use crate::stats::SchedulerStats;

use cache::{dram_bank, Candidate, ChannelCache};
use faults::{ResponseFaultState, DOMAIN_SAT, SATURATION_WINDOW_SHIFT};

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
    /// Per-channel scheduling views and issue bounds, kept up per bank on
    /// events (see `cache.rs`).
    caches: Vec<ChannelCache>,
    banks_per_rank: u32,
    /// End of each bank's busy window as of the last command issued to it
    /// (or refresh), indexed `channel * banks_per_channel + bank`: the
    /// controller's own copy, so the per-tick idle accounting is one flat
    /// pass instead of a walk through the DRAM hierarchy.
    bank_busy_until: Vec<u64>,
    /// Banks with an open row, counted on ACT/PRE (recounted on refresh).
    open_banks: u64,
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
        let channels = dram.geometry().channels;
        let banks_per_rank = dram.geometry().banks_per_rank;
        let banks = (dram.geometry().ranks_per_channel * banks_per_rank) as usize;
        Self {
            dram,
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
            caches: (0..channels).map(|_| ChannelCache::new(banks)).collect(),
            banks_per_rank,
            bank_busy_until: vec![0; channels as usize * banks],
            open_banks: 0,
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
        self.queues.iter().map(ChannelQueues::len).sum()
    }

    /// Enqueues a request at `cycle`.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the target channel queue has no free entry; the
    /// caller must stall and retry (nothing is enqueued).
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
        self.queues[ch].push(b, req)?;
        self.view_enqueued(ch, new);
        self.next_id += 1;
        Ok(id)
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
        self.queues.iter().filter_map(ChannelQueues::min_txn).min()
    }

    /// Advances the controller by one memory cycle: refresh housekeeping,
    /// then at most one command per channel according to the policy's plan
    /// for this tick.
    pub fn tick(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.last_cycle, "cycles must be non-decreasing");
        self.last_cycle = cycle;
        if self.dram.tick(cycle) {
            self.observe_refresh();
        }
        for q in &self.queues {
            self.stats.queue_occupancy_integral += q.len() as u64;
        }
        self.stats.ticks += 1;

        // Bank idle accounting (Fig. 12(a)): a bank with pending requests
        // either executes a command window this cycle or sits stalled —
        // under transaction-based scheduling mostly because of the barrier.
        let banks = self.banks_per_channel();
        let (mut pending, mut busy) = (0, 0);
        for (q, busy_until) in self.queues.iter().zip(self.bank_busy_until.chunks(banks)) {
            for b in q.pending_banks() {
                pending += 1;
                busy += u64::from(busy_until[b] > cycle);
            }
        }
        self.stats.bank_tick_integral += self.bank_busy_until.len() as u64;
        self.stats.open_bank_integral += self.open_banks;
        self.stats.busy_pending_bank_cycles += busy;
        self.stats.stalled_bank_cycles += pending - busy;

        // Algorithm 1 line 9-11 / Algorithm 2 line 13-15: the current
        // transaction pointer advances as soon as no commands of it remain.
        let current = self.current_txn();

        let order = self.policy.plan(cycle);
        let lookahead = self.policy.lookahead();
        for ch in 0..self.queues.len() {
            let issued = match (current, order) {
                (Some(t), Some(order)) => self.schedule_channel(ch, t, lookahead, order, cycle),
                _ => false,
            };
            if !issued && self.page_policy == PagePolicy::Closed {
                self.close_idle_rows(ch, cycle);
            }
        }
    }

    /// A refresh started: it closed every row of its rank and moved bank
    /// timing without a command from the controller, so everything the
    /// controller mirrors or derives from DRAM state is read again. Rare
    /// (once per tREFI per rank), so all channels are treated alike.
    fn observe_refresh(&mut self) {
        for cache in &mut self.caches {
            cache.invalidate();
        }
        let banks = self.banks_per_channel();
        self.open_banks = 0;
        for (i, busy_until) in self.bank_busy_until.iter_mut().enumerate() {
            let bank = dram_bank(&self.dram, self.banks_per_rank, i / banks, i % banks);
            *busy_until = bank.busy_until();
            self.open_banks += u64::from(bank.open_row().is_some());
        }
    }
}
