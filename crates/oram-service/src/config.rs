//! Service configuration: tenants, submission policy, deadlines and the
//! overload governor's watermarks.

use ring_oram::ProtocolKind;
use string_oram::{ConfigError, SystemConfig};
use trace_synth::ArrivalSpec;

/// How the batcher turns queued requests into engine submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmissionPolicy {
    /// Work-conserving: submit up to `batch` requests per cycle whenever
    /// the engine has transaction-window room. Highest throughput; request
    /// timing is load-dependent (the timing channel is open).
    BestEffort {
        /// Maximum submissions per cycle.
        batch: u32,
    },
    /// Cloak-style fixed rate: every `interval` cycles submit exactly
    /// `batch` slots — queued requests first, **cover accesses** for every
    /// empty slot — and nothing in between. The submission schedule is a
    /// pure function of the clock, so request timing cannot leak through
    /// the access stream; the cost is the padding overhead and added
    /// queueing delay.
    FixedRate {
        /// Cycles between submission ticks. Must be ≥ 1.
        interval: u64,
        /// Slots per submission tick. Must be ≥ 1.
        batch: u32,
    },
}

impl SubmissionPolicy {
    /// Stable label used in reports and bench JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::BestEffort { .. } => "best-effort",
            Self::FixedRate { .. } => "fixed-rate",
        }
    }
}

/// One tenant of the service: its queue bound, arrival shape and block
/// footprint. Tenant `t`'s blocks live at `(t << 20) .. (t << 20) + blocks`
/// — disjoint per-tenant ranges by construction.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (reports, violations).
    pub name: String,
    /// Maximum requests queued for this tenant; arrivals beyond it are
    /// shed with [`RejectReason::QueueFull`].
    pub queue_cap: usize,
    /// Arrival process shape (seeded per tenant by the service).
    pub arrivals: ArrivalSpec,
    /// Number of distinct blocks the tenant touches (uniform over its
    /// range). Must be in `1 ..= 2^20`.
    pub blocks: u64,
    /// Fraction of requests that are writes.
    pub write_fraction: f64,
}

/// Bounds on a tenant's peak arrival rate (`ArrivalSpec::peak_per_tick`)
/// that [`ServiceConfig::validate`] enforces: at most this many arrivals
/// per tick per queue slot — arrivals in one tick beyond the tenant's whole
/// queue can only be shed, so a mean of more than a few queue-fulls per
/// tick buys no admission behaviour a lower rate lacks, only a `submit` and
/// a request record per arrival, every tick —
const PEAK_ARRIVALS_PER_QUEUE_SLOT: f64 = 4.0;
/// and at most this many per tick whatever the queue cap, which keeps the
/// arrival process's `u32` per-tick count far from saturating.
const PEAK_ARRIVALS_PER_TICK: f64 = 65_536.0;

impl TenantSpec {
    /// A tenant with sane defaults: 64-deep queue, 25% writes, 4096
    /// blocks, the given arrival shape.
    #[must_use]
    pub fn new(name: impl Into<String>, arrivals: ArrivalSpec) -> Self {
        Self {
            name: name.into(),
            queue_cap: 64,
            arrivals,
            blocks: 4096,
            write_fraction: 0.25,
        }
    }
}

/// Watermarks of the overload governor's three-state machine
/// (Healthy → Degraded → Shedding), as fractions of total queue capacity,
/// with hysteresis on the way back down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    /// Healthy → Degraded when total queue fill reaches this fraction.
    pub degrade_enter: f64,
    /// Degraded → Healthy when fill falls back to this fraction.
    pub degrade_exit: f64,
    /// Degraded → Shedding when fill reaches this fraction.
    pub shed_enter: f64,
    /// Shedding → Degraded when fill falls back to this fraction.
    pub shed_exit: f64,
    /// While Degraded, each tenant's effective queue bound is
    /// `ceil(queue_cap × degraded_quota)`; arrivals beyond it are shed
    /// with [`RejectReason::Throttled`].
    pub degraded_quota: f64,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self {
            degrade_enter: 0.6,
            degrade_exit: 0.3,
            shed_enter: 0.9,
            shed_exit: 0.5,
            degraded_quota: 0.5,
        }
    }
}

/// Why admission shed a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's queue was at capacity.
    QueueFull,
    /// The governor was Degraded and the tenant exceeded its tightened
    /// quota.
    Throttled,
    /// The governor was Shedding: no arrivals are admitted.
    Shedding,
}

impl RejectReason {
    /// Stable label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::QueueFull => "queue-full",
            Self::Throttled => "throttled",
            Self::Shedding => "shedding",
        }
    }
}

/// A structured shed: which tenant was refused and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// Index of the refused tenant.
    pub tenant: usize,
    /// Why admission refused it.
    pub reason: RejectReason,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tenant {} rejected: {}",
            self.tenant,
            self.reason.label()
        )
    }
}

/// Full service configuration: the underlying system, the tenants, and
/// the serving policy knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The ORAM system the service fronts. `system.shards > 1` runs the
    /// sharded lockstep engine; `system.cores` is ignored (the service is
    /// request-driven, not trace-driven).
    pub system: SystemConfig,
    /// The tenants, in id order.
    pub tenants: Vec<TenantSpec>,
    /// Submission policy.
    pub policy: SubmissionPolicy,
    /// Cycles from admission to deadline. A request unresolved at its
    /// deadline retries (if budget remains) or resolves TimedOut —
    /// eagerly, at exactly the deadline cycle.
    pub deadline_cycles: u64,
    /// Retries a request may consume before timing out for good.
    pub retry_budget: u32,
    /// Overload governor watermarks.
    pub governor: GovernorConfig,
    /// Cycles during which tenants generate arrivals; after the horizon
    /// the service drains (keeping the fixed-rate cadence while queues
    /// are non-empty).
    pub horizon: u64,
    /// Hard cycle bound on the whole run including drain (wedge guard).
    pub max_cycles: u64,
}

impl ServiceConfig {
    /// A small configuration over [`SystemConfig::test_small`] for tests
    /// and examples: the given tenants, best-effort batching, generous
    /// deadlines.
    #[must_use]
    pub fn test_small(tenants: Vec<TenantSpec>, horizon: u64) -> Self {
        Self {
            system: SystemConfig::test_small(string_oram::Scheme::All),
            tenants,
            policy: SubmissionPolicy::BestEffort { batch: 4 },
            deadline_cycles: 20_000,
            retry_budget: 1,
            governor: GovernorConfig::default(),
            horizon,
            max_cycles: 50_000_000,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Invalid`] when the underlying system config fails
    /// its own validation, a numeric knob is out of range, a tenant's peak
    /// arrival rate (`ArrivalSpec::peak_per_tick`) exceeds
    /// `min(4 x queue_cap, 2^16)` requests per tick, or the policy is
    /// unsupported: fixed-rate padding requires a protocol with native
    /// cover accesses (Ring / Ring+CB) and no recursion.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.system.validate()?;
        let bad = |m: String| Err(ConfigError::Invalid(m));
        if self.tenants.is_empty() {
            return bad("service needs at least one tenant".into());
        }
        for (t, spec) in self.tenants.iter().enumerate() {
            if spec.queue_cap == 0 {
                return bad(format!("tenant {t}: queue_cap must be >= 1"));
            }
            if spec.blocks == 0 || spec.blocks > (1 << 20) {
                return bad(format!("tenant {t}: blocks must be in 1..=2^20"));
            }
            if !(0.0..=1.0).contains(&spec.write_fraction) {
                return bad(format!("tenant {t}: write_fraction must be in [0, 1]"));
            }
            spec.arrivals
                .validate()
                .map_err(|e| ConfigError::Invalid(format!("tenant {t}: {e}")))?;
            let peak = spec.arrivals.peak_per_tick();
            let limit =
                (spec.queue_cap as f64 * PEAK_ARRIVALS_PER_QUEUE_SLOT).min(PEAK_ARRIVALS_PER_TICK);
            if peak > limit {
                return bad(format!(
                    "tenant {t} ({}): peak arrival rate of {peak} requests per tick exceeds \
                     {limit} (min of {PEAK_ARRIVALS_PER_QUEUE_SLOT} x queue_cap {} and \
                     {PEAK_ARRIVALS_PER_TICK}); arrivals beyond the queue are only shed",
                    spec.name, spec.queue_cap
                ));
            }
        }
        match self.policy {
            SubmissionPolicy::BestEffort { batch } | SubmissionPolicy::FixedRate { batch, .. }
                if batch == 0 =>
            {
                return bad("submission batch must be >= 1".into());
            }
            SubmissionPolicy::FixedRate { interval, .. } => {
                if interval == 0 {
                    return bad("fixed-rate interval must be >= 1".into());
                }
                if !matches!(
                    self.system.protocol,
                    ProtocolKind::RingCb | ProtocolKind::Ring
                ) {
                    return bad(format!(
                        "fixed-rate padding needs a protocol with native cover accesses; {} has \
                         none (use best-effort)",
                        self.system.protocol
                    ));
                }
                if self.system.recursion.is_some() {
                    return bad(
                        "fixed-rate padding is not supported under recursion (cover accesses \
                         cover only the data ORAM)"
                            .into(),
                    );
                }
            }
            SubmissionPolicy::BestEffort { .. } => {}
        }
        if self.deadline_cycles == 0 {
            return bad("deadline_cycles must be >= 1".into());
        }
        if self.horizon == 0 {
            return bad("horizon must be >= 1".into());
        }
        let g = &self.governor;
        for (v, name) in [
            (g.degrade_enter, "degrade_enter"),
            (g.degrade_exit, "degrade_exit"),
            (g.shed_enter, "shed_enter"),
            (g.shed_exit, "shed_exit"),
            (g.degraded_quota, "degraded_quota"),
        ] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return bad(format!("governor {name} must be in [0, 1], got {v}"));
            }
        }
        if g.degrade_exit >= g.degrade_enter || g.shed_exit >= g.shed_enter {
            return bad("governor exit watermarks must sit below their enter watermarks".into());
        }
        if g.degrade_enter > g.shed_enter {
            return bad("degrade_enter must not exceed shed_enter".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServiceConfig {
        ServiceConfig::test_small(
            vec![TenantSpec::new("a", ArrivalSpec::steady(10.0))],
            10_000,
        )
    }

    #[test]
    fn small_config_validates() {
        cfg().validate().unwrap();
    }

    #[test]
    fn fixed_rate_rejects_protocols_without_cover_accesses() {
        let mut c = cfg();
        c.policy = SubmissionPolicy::FixedRate {
            interval: 64,
            batch: 2,
        };
        c.validate().unwrap();
        c.system.protocol = ProtocolKind::Path;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("cover accesses"), "{err}");
    }

    #[test]
    fn governor_watermarks_need_hysteresis() {
        let mut c = cfg();
        c.governor.degrade_exit = c.governor.degrade_enter;
        assert!(c.validate().is_err());
    }

    #[test]
    fn tenant_knobs_are_range_checked() {
        let mut c = cfg();
        c.tenants[0].queue_cap = 0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.tenants[0].blocks = (1 << 20) + 1;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.tenants[0].write_fraction = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn runaway_arrival_rates_are_refused_by_name() {
        // 64-deep queue: up to 256 arrivals per tick at the peak.
        let mut c = cfg();
        c.tenants[0].arrivals = ArrivalSpec::steady(256_000.0);
        c.validate().unwrap();
        c.tenants[0].arrivals = ArrivalSpec::steady(256_001.0);
        let err = c.validate().unwrap_err().to_string();
        assert!(
            err.contains("tenant 0 (a)") && err.contains("256.001"),
            "{err}"
        );
        // The peak counts the burst multiplier and the diurnal crest.
        let mut spec = ArrivalSpec::diurnal(100_000.0, 1_000, 0.5);
        spec.burst_multiplier = 2.0;
        c.tenants[0].arrivals = spec;
        let err = c.validate().unwrap_err().to_string();
        assert!(err.contains("300 requests per tick"), "{err}");
        // A huge queue does not lift the absolute bound: the count the
        // process returns is a u32.
        c.tenants[0].queue_cap = 1 << 40;
        c.tenants[0].arrivals = ArrivalSpec::steady(5e12);
        let err = c.validate().unwrap_err().to_string();
        assert!(err.contains("65536"), "{err}");
        assert!(crate::OramService::new(c).is_err());
    }

    #[test]
    fn reject_labels_are_stable() {
        assert_eq!(RejectReason::QueueFull.label(), "queue-full");
        let r = Rejected {
            tenant: 2,
            reason: RejectReason::Shedding,
        };
        assert!(r.to_string().contains("tenant 2"));
        assert!(r.to_string().contains("shedding"));
    }
}
