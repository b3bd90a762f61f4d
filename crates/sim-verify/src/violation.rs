//! Violation records shared by every checker in the crate.

/// The specific rule a checker found violated.
///
/// Timing rules carry the JEDEC name they re-derive; protocol rules carry
/// an invariant of the protocol's schedule; `TxnOrder` is the paper's security contract
/// (data commands in transaction order); `Divergence` marks a differential
/// mismatch between two runs that must agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rule {
    /// Two commands on one channel's command bus in the same cycle.
    CmdBus,
    /// Data bursts overlap on a channel (or miss the read/write turnaround).
    DataBus,
    /// Structural bank-state error: ACT on an open bank, PRE or column
    /// command on a closed bank, or a column command to the wrong row.
    BankState,
    /// ACT sooner than tRCD before a column command.
    Trcd,
    /// ACT sooner than tRP after a PRE.
    Trp,
    /// PRE sooner than tRAS after the bank's ACT.
    Tras,
    /// ACT sooner than tRC after the bank's previous ACT.
    Trc,
    /// Column command sooner than tCCD (or same-group tCCD_L) after the
    /// previous column command.
    Tccd,
    /// ACT sooner than tRRD (or same-group tRRD_L) after the rank's
    /// previous ACT.
    Trrd,
    /// A fifth ACT inside one tFAW rolling window.
    Tfaw,
    /// RD sooner than tWTR after the end of a write burst on the rank.
    Twtr,
    /// PRE sooner than tWR after the end of the bank's write burst.
    Twr,
    /// PRE sooner than tRTP after the bank's RD.
    Trtp,
    /// Command issued while the rank was refreshing (inside tRFC).
    Refresh,
    /// Command coordinates outside the configured geometry.
    OutOfRange,
    /// Data command (RD/WR) issued out of ORAM transaction order — the
    /// security contract both schedulers must uphold.
    TxnOrder,
    /// Stash occupancy observed above its configured bound after an access
    /// completed (background eviction failed to drain it).
    StashBound,
    /// A slot touch addressed a slot index at or beyond the bucket's
    /// physical slots: `Z + S - Y` on Ring, `Z` on Path and Circuit.
    SlotRange,
    /// A bucket slot was read twice by read paths within one reshuffle
    /// epoch (dummies and reals alike must be touched at most once).
    SlotReuse,
    /// A bucket served more than `S` read-path touches in one epoch.
    BucketBudget,
    /// Ring's evictions did not fire at exactly one per `A` read paths
    /// (Path's and Circuit's fixed batches are [`Rule::PlanShape`]).
    EvictionCadence,
    /// A plan's read/write touch counts do not match its kind's shape.
    PlanShape,
    /// An injected integrity fault was never detected (the integrity tag
    /// is missing or was not checked).
    FaultUndetected,
    /// A detected integrity fault ended unrecovered: its payload was lost
    /// despite (or for lack of) the bounded retry budget.
    FaultUnrecovered,
    /// A retry-read plan touch without a matching `Retried` fault event,
    /// or retried slots that were never made public by a read plan.
    RetryMismatch,
    /// A read returned other than the payload of its block's last write
    /// (or a payload for a block never written).
    ValueMismatch,
    /// Two runs that must agree (differential oracle) diverged.
    Divergence,
    /// A block was resident in (or routed to) more than one shard of a
    /// sharded simulation — shards must partition the address space.
    ShardResidency,
    /// A fixed-rate service tick submitted the wrong number of slots (the
    /// submission envelope must be a pure function of the policy, never of
    /// the offered load).
    ServiceEnvelope,
    /// A tenant queue was observed deeper than its configured capacity —
    /// admission control failed to shed.
    ServiceQueueBound,
    /// A service request resolved other than exactly once (double
    /// completion, double timeout, or never resolved by drain).
    ServiceResolution,
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Self::CmdBus => "cmd-bus",
            Self::DataBus => "data-bus",
            Self::BankState => "bank-state",
            Self::Trcd => "tRCD",
            Self::Trp => "tRP",
            Self::Tras => "tRAS",
            Self::Trc => "tRC",
            Self::Tccd => "tCCD",
            Self::Trrd => "tRRD",
            Self::Tfaw => "tFAW",
            Self::Twtr => "tWTR",
            Self::Twr => "tWR",
            Self::Trtp => "tRTP",
            Self::Refresh => "refresh",
            Self::OutOfRange => "out-of-range",
            Self::TxnOrder => "txn-order",
            Self::StashBound => "stash-bound",
            Self::SlotRange => "slot-range",
            Self::SlotReuse => "slot-reuse",
            Self::BucketBudget => "bucket-budget",
            Self::EvictionCadence => "eviction-cadence",
            Self::PlanShape => "plan-shape",
            Self::FaultUndetected => "fault-undetected",
            Self::FaultUnrecovered => "fault-unrecovered",
            Self::RetryMismatch => "retry-mismatch",
            Self::ValueMismatch => "value-mismatch",
            Self::Divergence => "divergence",
            Self::ShardResidency => "shard-residency",
            Self::ServiceEnvelope => "service-envelope",
            Self::ServiceQueueBound => "service-queue-bound",
            Self::ServiceResolution => "service-resolution",
        };
        f.write_str(name)
    }
}

/// One conformance violation: which rule broke, when, and a human-readable
/// account of the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Bus cycle (timing checks) or access index (protocol checks) at which
    /// the violation was observed.
    pub cycle: u64,
    /// The rule that was broken.
    pub rule: Rule,
    /// Evidence: the command or touch involved and the bound it missed.
    pub message: String,
}

impl Violation {
    /// Creates a violation record.
    #[must_use]
    pub fn new(cycle: u64, rule: Rule, message: impl Into<String>) -> Self {
        Self {
            cycle,
            rule,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] at {}: {}", self.rule, self.cycle, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_rule_and_cycle() {
        let v = Violation::new(42, Rule::Trcd, "RD 3 cycles after ACT");
        let s = v.to_string();
        assert!(s.contains("tRCD"));
        assert!(s.contains("42"));
        assert!(s.contains("after ACT"));
    }

    #[test]
    fn rule_names_are_distinct() {
        let rules = [
            Rule::CmdBus,
            Rule::DataBus,
            Rule::BankState,
            Rule::Trcd,
            Rule::Trp,
            Rule::Tras,
            Rule::Trc,
            Rule::Tccd,
            Rule::Trrd,
            Rule::Tfaw,
            Rule::Twtr,
            Rule::Twr,
            Rule::Trtp,
            Rule::Refresh,
            Rule::OutOfRange,
            Rule::TxnOrder,
            Rule::StashBound,
            Rule::SlotRange,
            Rule::SlotReuse,
            Rule::BucketBudget,
            Rule::EvictionCadence,
            Rule::PlanShape,
            Rule::FaultUndetected,
            Rule::FaultUnrecovered,
            Rule::RetryMismatch,
            Rule::ValueMismatch,
            Rule::Divergence,
            Rule::ShardResidency,
            Rule::ServiceEnvelope,
            Rule::ServiceQueueBound,
            Rule::ServiceResolution,
        ];
        let names: std::collections::HashSet<String> =
            rules.iter().map(ToString::to_string).collect();
        assert_eq!(names.len(), rules.len());
    }
}
