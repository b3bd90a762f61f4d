//! Pluggable command-scheduling policies.
//!
//! The controller core ([`crate::controller`]) owns the queues, the cached
//! per-channel scheduling views and the DRAM handshake; *which* candidate
//! issues on a given cycle is delegated to a [`SchedulePolicy`] object.
//! Every policy works with the same three building blocks the controller
//! exposes per channel per tick:
//!
//! 1. the **row-hit (FR) pass** over pending current-window requests whose
//!    row is already open — the only pass that issues data (RD/WR)
//!    commands;
//! 2. the **bank-preparation (FCFS) pass** that drives PRE/ACT for the
//!    oldest current-window request per bank;
//! 3. the optional **proactive pass** that issues PRE/ACT for requests in
//!    a lookahead window of future transactions, guarded so only
//!    *inter*-transaction conflicts are touched (paper Algorithm 2).
//!
//! A policy shapes a tick through its [`PassPlan`]: whether the channel may
//! issue at all ([`FixedCadence`] withholds off-slot cycles), in what order
//! the candidates of each pass are tried ([`ReadOverWrite`] prefers reads),
//! and whether the proactive pass runs ([`ProactiveBank`],
//! [`SpeculativeWindow`]). Data commands remain strictly transaction-ordered
//! under every policy except the explicitly insecure unconstrained ablation
//! — the passes only ever select among legal candidates, so no policy can
//! widen the observable access sequence.
//!
//! The five shipped policies:
//!
//! | policy | name | temporal behavior |
//! |---|---|---|
//! | [`FrFcfs`] | `fr-fcfs` | paper Algorithm 1 (transaction-based baseline) |
//! | [`ProactiveBank`] | `proactive-bank` | paper Algorithm 2, lookahead 1 |
//! | [`ReadOverWrite`] | `read-over-write` | read priority, bounded write drain |
//! | [`SpeculativeWindow`] | `speculative-window` | Algorithm 2 generalized to k transactions |
//! | [`FixedCadence`] | `fixed-cadence` | Cloak-style fixed issue-slot grid |

mod fixed_cadence;
mod fr_fcfs;
mod proactive_bank;
mod read_over_write;
mod speculative_window;

pub use fixed_cadence::FixedCadence;
pub use fr_fcfs::FrFcfs;
pub use proactive_bank::ProactiveBank;
pub use read_over_write::ReadOverWrite;
pub use speculative_window::SpeculativeWindow;

/// Order in which a pass tries its candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateOrder {
    /// Strictly oldest-first (enqueue id), both directions interleaved —
    /// the FR-FCFS default every policy of the paper uses.
    #[default]
    Age,
    /// All read candidates (oldest-first), then all write candidates.
    ReadsFirst,
    /// All write candidates (oldest-first), then all read candidates.
    WritesFirst,
}

/// One tick's scheduling plan, produced once per controller tick by
/// [`SchedulePolicy::plan`] and applied to every channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassPlan {
    /// Whether any command may issue this cycle. `false` withholds the
    /// whole tick (the fixed-cadence gate); page-policy housekeeping is
    /// unaffected.
    pub issue: bool,
    /// Candidate order of the row-hit (data command) pass.
    pub hit_order: CandidateOrder,
    /// Candidate order of the bank-preparation (PRE/ACT) pass.
    pub prep_order: CandidateOrder,
    /// Whether the proactive lookahead pass runs (it is additionally a
    /// no-op when [`SchedulePolicy::lookahead`] is 0).
    pub proactive: bool,
}

impl Default for PassPlan {
    fn default() -> Self {
        Self {
            issue: true,
            hit_order: CandidateOrder::Age,
            prep_order: CandidateOrder::Age,
            proactive: false,
        }
    }
}

/// Policy-local counters, owned by the policy object and folded into
/// [`crate::SchedulerStats`] whenever a backend snapshot is taken (see
/// [`crate::MemoryController::policy_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PolicyStats {
    /// Ticks in which the policy withheld every issue slot (the
    /// fixed-cadence off-grid cycles), whether or not work was pending.
    pub withheld_slots: u64,
    /// Write row-hits bypassed in favor of a read data command.
    pub deferred_writes: u64,
    /// Forced write drains after the deferral bound was reached.
    pub write_drains: u64,
}

/// A command-scheduling policy: per-tick candidate selection over the
/// queues and bank state, with proactive-pass hooks and policy-local
/// statistics.
///
/// # Contract
///
/// * [`SchedulePolicy::plan`] is called exactly once per controller tick
///   (before any channel is scheduled) and must be deterministic in the
///   policy's state and the cycle number.
/// * [`SchedulePolicy::lookahead`] and
///   [`SchedulePolicy::unconstrained`] must be constant for the lifetime
///   of the policy — the controller's per-channel view caches are keyed on
///   them.
/// * [`SchedulePolicy::observe_data_issue`] is feedback only; a policy may
///   update internal mode (e.g. the deferred-write drain) but cannot veto
///   the already-issued command.
/// * Unless [`SchedulePolicy::unconstrained`] returns `true`, the
///   controller never offers the policy a data-command candidate outside
///   the current transaction, so every conforming policy preserves the
///   observable transaction-ordered RD/WR sequence by construction.
pub trait SchedulePolicy: std::fmt::Debug + Send {
    /// The [`SchedulerPolicy`] tag describing this policy, for config
    /// round-trips and display.
    fn kind(&self) -> SchedulerPolicy;

    /// Stable policy name used in reports, bench JSON and CI schemas: the
    /// tag's name, so the two selectors cannot drift.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Transactions past the current one whose PRE/ACT the proactive pass
    /// may pull forward (0 disables the pass). Must be constant.
    fn lookahead(&self) -> u64 {
        0
    }

    /// Whether the transaction barrier is lifted entirely (the insecure
    /// ablation). Must be constant.
    fn unconstrained(&self) -> bool {
        false
    }

    /// Produces the plan for this tick. Called once per controller tick.
    fn plan(&mut self, cycle: u64) -> PassPlan;

    /// Feedback: a data command issued on some channel.
    /// `bypassed_write_hit` is `true` when a read was chosen while a write
    /// row-hit was pending on the same channel (only possible under
    /// [`CandidateOrder::ReadsFirst`]).
    fn observe_data_issue(&mut self, is_write: bool, bypassed_write_hit: bool) {
        let _ = (is_write, bypassed_write_hit);
    }

    /// The policy's local counters.
    fn stats(&self) -> PolicyStats {
        PolicyStats::default()
    }
}

/// Scheduling policy selector: the configuration-level tag naming each
/// shipped [`SchedulePolicy`] implementation.
///
/// This enum predates the trait and is kept as the thin constructor over
/// the trait objects ([`SchedulerPolicy::build`]) so existing call sites —
/// `SystemConfig`, `MemoryController::new`, the benches — keep working
/// with a `Copy` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// The baseline transaction-based scheduler (paper Algorithm 1),
    /// implemented by [`FrFcfs`].
    TransactionBased,
    /// The Proactive Bank scheduler (paper Algorithm 2) with a lookahead of
    /// `lookahead` future transactions (the paper uses 1), implemented by
    /// [`ProactiveBank`].
    ProactiveBank {
        /// How many transactions past the current one may have their
        /// PRE/ACT commands pulled forward.
        lookahead: u64,
    },
    /// **Insecure ablation**: plain FR-FCFS with no transaction barrier at
    /// all — data commands of different ORAM transactions freely
    /// interleave. This breaks ORAM's atomic/ordered access-sequence
    /// guarantee and exists only to quantify what the security constraint
    /// costs (and how much of that cost PB recovers legally).
    Unconstrained,
    /// Read-priority scheduling with a bounded deferred write-drain,
    /// implemented by [`ReadOverWrite`].
    ReadOverWrite {
        /// Write row-hits that may be bypassed before a drain is forced.
        drain_bound: u64,
    },
    /// Algorithm 2 generalized to a `window`-transaction PRE/ACT
    /// lookahead with the same inter-transaction-only guard, implemented
    /// by [`SpeculativeWindow`].
    SpeculativeWindow {
        /// Lookahead window in transactions (1 recovers Proactive Bank).
        window: u64,
    },
    /// Cloak-style fixed temporal distribution of command issue slots,
    /// implemented by [`FixedCadence`].
    FixedCadence {
        /// Cycles between issue slots (1 recovers the baseline).
        period: u64,
    },
}

impl SchedulerPolicy {
    /// The paper's PB configuration (lookahead of one transaction).
    #[must_use]
    pub fn proactive() -> Self {
        Self::ProactiveBank { lookahead: 1 }
    }

    /// Read-over-write with the default drain bound of 8 bypasses.
    #[must_use]
    pub fn read_over_write() -> Self {
        Self::ReadOverWrite { drain_bound: 8 }
    }

    /// Speculative window with the default 4-transaction lookahead.
    #[must_use]
    pub fn speculative() -> Self {
        Self::SpeculativeWindow { window: 4 }
    }

    /// Fixed cadence with the default 2-cycle issue-slot period.
    #[must_use]
    pub fn fixed_cadence() -> Self {
        Self::FixedCadence { period: 2 }
    }

    /// Whether the policy upholds the ORAM transaction ordering guarantee.
    #[must_use]
    pub fn preserves_transaction_order(self) -> bool {
        !matches!(self, Self::Unconstrained)
    }

    /// Stable policy name used in reports, bench JSON and CI schemas.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::TransactionBased => "fr-fcfs",
            Self::ProactiveBank { .. } => "proactive-bank",
            Self::Unconstrained => "unconstrained",
            Self::ReadOverWrite { .. } => "read-over-write",
            Self::SpeculativeWindow { .. } => "speculative-window",
            Self::FixedCadence { .. } => "fixed-cadence",
        }
    }

    /// Constructs the policy object this tag names.
    ///
    /// # Panics
    ///
    /// When a variant's knob is out of range (`FixedCadence` with
    /// `period == 0`); `SystemConfig::validate` in `string-oram` rejects
    /// such configurations before they reach a controller.
    #[must_use]
    pub fn build(self) -> Box<dyn SchedulePolicy> {
        match self {
            Self::TransactionBased => Box::new(FrFcfs::new()),
            Self::ProactiveBank { lookahead } => Box::new(ProactiveBank::new(lookahead)),
            Self::Unconstrained => Box::new(FrFcfs::unconstrained()),
            Self::ReadOverWrite { drain_bound } => Box::new(ReadOverWrite::new(drain_bound)),
            Self::SpeculativeWindow { window } => Box::new(SpeculativeWindow::new(window)),
            Self::FixedCadence { period } => Box::new(FixedCadence::new(period)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let tags = [
            SchedulerPolicy::TransactionBased,
            SchedulerPolicy::proactive(),
            SchedulerPolicy::Unconstrained,
            SchedulerPolicy::read_over_write(),
            SchedulerPolicy::speculative(),
            SchedulerPolicy::fixed_cadence(),
        ];
        let names: Vec<_> = tags.iter().map(|t| t.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate policy name");
        assert_eq!(SchedulerPolicy::TransactionBased.name(), "fr-fcfs");
        assert_eq!(SchedulerPolicy::proactive().name(), "proactive-bank");
    }

    #[test]
    fn build_round_trips_the_tag() {
        for tag in [
            SchedulerPolicy::TransactionBased,
            SchedulerPolicy::ProactiveBank { lookahead: 3 },
            SchedulerPolicy::Unconstrained,
            SchedulerPolicy::ReadOverWrite { drain_bound: 5 },
            SchedulerPolicy::SpeculativeWindow { window: 7 },
            SchedulerPolicy::FixedCadence { period: 4 },
        ] {
            let built = tag.build();
            assert_eq!(built.kind(), tag, "kind() must round-trip");
            assert_eq!(built.name(), tag.name(), "names must agree");
        }
    }

    #[test]
    fn trait_defaults_match_the_baseline() {
        let mut p = SchedulerPolicy::TransactionBased.build();
        assert_eq!(p.lookahead(), 0);
        assert!(!p.unconstrained());
        assert_eq!(p.plan(0), PassPlan::default());
        assert_eq!(p.stats(), PolicyStats::default());
    }

    #[test]
    fn order_preservation_flags() {
        assert!(SchedulerPolicy::proactive().preserves_transaction_order());
        assert!(SchedulerPolicy::read_over_write().preserves_transaction_order());
        assert!(SchedulerPolicy::speculative().preserves_transaction_order());
        assert!(SchedulerPolicy::fixed_cadence().preserves_transaction_order());
        assert!(!SchedulerPolicy::Unconstrained.preserves_transaction_order());
    }
}
