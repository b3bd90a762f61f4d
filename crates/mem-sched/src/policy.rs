//! The command-scheduling policy table.
//!
//! The controller core ([`crate::controller`]) owns the queues, the cached
//! per-channel scheduling views and the DRAM handshake; *which* candidate
//! issues on a given cycle is read off the [`SchedulerPolicy`] tag the
//! controller was built with. Every policy works with the same three
//! building blocks the controller runs per channel per tick:
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
//! A policy is one row of parameters over those passes — how far the
//! proactive pass looks ahead (0: not at all), whether the transaction
//! barrier stands, whether the cycle is an issue slot, and in what order
//! the passes try their candidates:
//!
//! | tag | name | lookahead | barrier | issue gate | candidate order | counters |
//! |---|---|---|---|---|---|---|
//! | `TransactionBased` | `fr-fcfs` | 0 | yes | every cycle | age | — |
//! | `ProactiveBank { lookahead: k }` | `proactive-bank` | k | yes | every cycle | age | — |
//! | `SpeculativeWindow { window: k }` | `speculative-window` | k | yes | every cycle | age | — |
//! | `ReadOverWrite { drain_bound: d }` | `read-over-write` | 0 | yes | every cycle | reads first; writes first while draining | `deferred_writes`, `write_drains` |
//! | `FixedCadence { period: p }` | `fixed-cadence` | 0 | yes | `cycle % p == 0` | age | `withheld_slots` |
//! | `Unconstrained` | `unconstrained` | unbounded | **no** | every cycle | age | — |
//!
//! `TransactionBased` is paper Algorithm 1 and the `k = 0` point of the two
//! lookahead rows; Algorithm 2 is `k = 1`. Data commands remain strictly
//! transaction-ordered in every row but the explicitly insecure last one —
//! the passes only ever select among legal candidates, so no policy can
//! widen the observable access sequence.

/// Order in which every pass of a tick tries its candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CandidateOrder {
    /// Strictly oldest-first (enqueue id), both directions interleaved —
    /// the FR-FCFS default every policy of the paper uses.
    Age,
    /// All read candidates (oldest-first), then all write candidates.
    ReadsFirst,
    /// All write candidates (oldest-first), then all read candidates.
    WritesFirst,
}

/// Policy-local counters, kept beside the policy's mode and folded into
/// [`crate::SchedulerStats`] whenever a backend snapshot is taken (see
/// `crate::MemoryController::policy_stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct PolicyStats {
    /// Ticks in which the policy withheld every issue slot (the
    /// fixed-cadence off-grid cycles), whether or not work was pending.
    pub withheld_slots: u64,
    /// Write row-hits bypassed in favor of a read data command.
    pub deferred_writes: u64,
    /// Forced write drains after the deferral bound was reached.
    pub write_drains: u64,
}

/// Scheduling policy selector: one `Copy` tag per row of the module's
/// table, carried by `SystemConfig`, `MemoryController::new` and the
/// benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// The baseline transaction-based FR-FCFS scheduler (paper Algorithm
    /// 1): oldest row hit of the current transaction first, then
    /// oldest-first bank preparation, no lookahead.
    TransactionBased,
    /// The Proactive Bank scheduler (paper Algorithm 2): the baseline for
    /// the current transaction, but banks with no pending
    /// current-transaction request may issue PRE/ACT for requests up to
    /// `lookahead` transactions ahead. Only bank preparation is pulled
    /// forward, and only across transactions (never reordering within
    /// one), so the observable access sequence is unchanged.
    ProactiveBank {
        /// How many transactions past the current one may have their
        /// PRE/ACT commands pulled forward (the paper uses 1; 0
        /// degenerates to the baseline).
        lookahead: u64,
    },
    /// **Insecure ablation**: plain FR-FCFS with no transaction barrier at
    /// all — data commands of different ORAM transactions freely
    /// interleave. This breaks ORAM's atomic/ordered access-sequence
    /// guarantee and exists only to quantify what the security constraint
    /// costs (and how much of that cost PB recovers legally).
    Unconstrained,
    /// Read priority with a bounded deferred write-drain: within every
    /// pass the read candidates are tried (oldest-first) before the write
    /// candidates, so a read row hit bypasses an older write row hit. Each
    /// bypass defers the write; after `drain_bound` consecutive deferrals
    /// the order flips to writes-first until one issues, bounding write
    /// starvation. Reordering happens only *within* a transaction's legal
    /// candidate set, so the transaction-ordered access sequence is the
    /// baseline's.
    ReadOverWrite {
        /// Write row-hits that may be bypassed before a drain is forced
        /// (must be ≥ 1).
        drain_bound: u64,
    },
    /// Algorithm 2 under its generalized name: a `window`-transaction
    /// PRE/ACT lookahead with the same inter-transaction-only guard. A
    /// bank may prepare for a future transaction only while it has no
    /// pending current-transaction request, and the future window mirrors
    /// the row-hit-preservation skip, so the guard's security argument
    /// carries over for any k — only more bank idle time is converted
    /// into early preparation.
    SpeculativeWindow {
        /// Lookahead window in transactions (1 recovers Proactive Bank).
        window: u64,
    },
    /// Cloak-style fixed temporal distribution of command issue slots:
    /// cycles where `cycle % period == 0` are issue slots, every other
    /// cycle is withheld regardless of pending work. The grid is a pure
    /// function of the clock — independent of queue depth, bank state or
    /// offered load — so issue *opportunities* cannot modulate with
    /// demand; the cost is the throughput lost to withheld slots.
    FixedCadence {
        /// Cycles between issue slots (must be ≥ 1; 1 recovers the
        /// baseline).
        period: u64,
    },
}

impl SchedulerPolicy {
    /// The paper's PB configuration (lookahead of one transaction).
    #[must_use]
    pub fn proactive() -> Self {
        Self::ProactiveBank { lookahead: 1 }
    }

    /// Speculative window with the default 4-transaction lookahead.
    #[must_use]
    pub fn speculative() -> Self {
        Self::SpeculativeWindow { window: 4 }
    }

    /// Whether the policy upholds the ORAM transaction ordering guarantee.
    #[must_use]
    pub(crate) fn preserves_transaction_order(self) -> bool {
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
}

/// The policy in force inside one controller: the tag, the read-over-write
/// drain mode and the policy-local counters. Each method is the table of
/// the module docs read down one column.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PolicyState {
    tag: SchedulerPolicy,
    /// Consecutive write row-hits bypassed since the last write issued.
    deferred: u64,
    /// Whether the deferral bound was reached and writes now go first.
    draining: bool,
    stats: PolicyStats,
}

impl PolicyState {
    /// The state a controller starts `tag` in.
    ///
    /// # Panics
    ///
    /// When the tag's parameter is out of range — `FixedCadence` with
    /// `period == 0` (the grid would have no slots at all) or
    /// `ReadOverWrite` with `drain_bound == 0` (the policy would never
    /// drain the writes it keeps deferring). `SystemConfig::validate` in
    /// `string-oram` rejects both before they reach a controller.
    pub(crate) fn new(tag: SchedulerPolicy) -> Self {
        match tag {
            SchedulerPolicy::FixedCadence { period } => {
                assert!(period >= 1, "period must be >= 1");
            }
            SchedulerPolicy::ReadOverWrite { drain_bound } => {
                assert!(drain_bound >= 1, "drain_bound must be >= 1");
            }
            _ => {}
        }
        Self {
            tag,
            deferred: 0,
            draining: false,
            stats: PolicyStats::default(),
        }
    }

    /// The tag this state was built from.
    pub(crate) fn tag(&self) -> SchedulerPolicy {
        self.tag
    }

    /// Transactions past the current one whose PRE/ACT the proactive pass
    /// may pull forward (0: the pass never runs). Constant for the
    /// controller's lifetime — its per-channel view caches are keyed on it.
    pub(crate) fn lookahead(&self) -> u64 {
        match self.tag {
            SchedulerPolicy::ProactiveBank { lookahead: k }
            | SchedulerPolicy::SpeculativeWindow { window: k } => k,
            // Every queued request is current: an unbounded window keeps
            // the controller's cache key stable and its future window
            // trivially empty.
            SchedulerPolicy::Unconstrained => u64::MAX,
            _ => 0,
        }
    }

    /// Whether the transaction barrier is lifted entirely. Unless it is,
    /// the controller never offers a data-command candidate outside the
    /// current transaction, so the transaction-ordered RD/WR sequence holds
    /// by construction.
    pub(crate) fn unconstrained(&self) -> bool {
        !self.tag.preserves_transaction_order()
    }

    /// The plan for this tick, applied to every channel: the order its
    /// passes try their candidates in, or `None` when the whole tick is
    /// withheld (the fixed-cadence gate; page-policy housekeeping is
    /// unaffected). Called exactly once per controller tick, before any
    /// channel is scheduled — it counts the withheld slots.
    pub(crate) fn plan(&mut self, cycle: u64) -> Option<CandidateOrder> {
        match self.tag {
            SchedulerPolicy::ReadOverWrite { .. } => Some(if self.draining {
                CandidateOrder::WritesFirst
            } else {
                CandidateOrder::ReadsFirst
            }),
            SchedulerPolicy::FixedCadence { period } if !cycle.is_multiple_of(period) => {
                self.stats.withheld_slots += 1;
                None
            }
            _ => Some(CandidateOrder::Age),
        }
    }

    /// Feedback: a data command issued on some channel — it may move the
    /// drain mode but cannot veto the command. `bypassed_write_hit` is
    /// `true` when a read was chosen while a write row-hit was pending on
    /// the same channel (only possible under
    /// [`CandidateOrder::ReadsFirst`]).
    pub(crate) fn observe_data_issue(&mut self, is_write: bool, bypassed_write_hit: bool) {
        let SchedulerPolicy::ReadOverWrite { drain_bound } = self.tag else {
            return;
        };
        if is_write {
            self.stats.write_drains += u64::from(self.draining);
            self.deferred = 0;
            self.draining = false;
        } else if bypassed_write_hit {
            self.deferred += 1;
            self.stats.deferred_writes += 1;
            if self.deferred >= drain_bound {
                self.draining = true;
            }
        }
    }

    /// The policy-local counters.
    pub(crate) fn stats(&self) -> PolicyStats {
        self.stats
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
            SchedulerPolicy::ReadOverWrite { drain_bound: 8 },
            SchedulerPolicy::speculative(),
            SchedulerPolicy::FixedCadence { period: 2 },
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
    fn order_preservation_flags() {
        assert!(SchedulerPolicy::proactive().preserves_transaction_order());
        assert!(SchedulerPolicy::ReadOverWrite { drain_bound: 8 }.preserves_transaction_order());
        assert!(SchedulerPolicy::speculative().preserves_transaction_order());
        assert!(SchedulerPolicy::FixedCadence { period: 2 }.preserves_transaction_order());
        assert!(!SchedulerPolicy::Unconstrained.preserves_transaction_order());
    }
}
