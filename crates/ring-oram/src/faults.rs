//! Deterministic fault events and the protocol's resilience machinery.
//!
//! The fault-injection layer corrupts block transfers *in transit*: the
//! DRAM-resident copy of a sealed block stays intact, so a bounded number
//! of re-reads (retries) can recover it. Every decision is drawn from a
//! dedicated, seeded RNG that never touches the protocol RNG — the access
//! sequence of a faulty run is therefore **identical** to the fault-free
//! run with the same protocol seed; faults perturb latency and add retry
//! traffic at already-public slots, never the data-dependent pattern.
//!
//! [`FaultEvent`]s form an append-only log that the `sim-verify` auditor
//! replays to prove that every injected integrity fault was detected and
//! either recovered within the retry budget or surfaced as a violation.

use crate::types::BucketId;

/// What happened at one fault-injection site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultEventKind {
    /// A block transfer was corrupted in transit.
    Injected,
    /// The corruption was caught by the integrity tag on unseal.
    Detected,
    /// The slot was re-read (one bounded retry).
    Retried,
    /// A retry returned an intact copy; the fetch completed.
    Recovered,
    /// The retry budget was exhausted without an intact copy (or retries
    /// are disabled); the fetched payload is lost.
    Unrecovered,
}

impl FaultEventKind {
    /// Short label used in logs and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Injected => "injected",
            Self::Detected => "detected",
            Self::Retried => "retried",
            Self::Recovered => "recovered",
            Self::Unrecovered => "unrecovered",
        }
    }
}

impl std::fmt::Display for FaultEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One entry of the protocol fault log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Program read path (access index) during which the event occurred;
    /// background dummy paths stamp the access that triggered them.
    pub access: u64,
    /// Bucket whose slot transfer was involved.
    pub bucket: BucketId,
    /// Slot index within the bucket.
    pub slot: u32,
    /// What happened.
    pub kind: FaultEventKind,
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at access {} ({} slot {})",
            self.kind, self.access, self.bucket, self.slot
        )
    }
}

/// Configuration of protocol-level fault injection and graceful
/// degradation.
///
/// Watermarks are absolute stash occupancies and must be ordered
/// `resume_watermark < degrade_watermark` and
/// `escalation_watermark <= degrade_watermark <= stash_capacity` (checked
/// by [`ResilienceConfig::validate`] against the ring configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Seed of the dedicated fault RNG (independent of the protocol seed).
    pub fault_seed: u64,
    /// Probability that one real-block fetch is corrupted in transit.
    pub bit_flip_rate: f64,
    /// Re-reads allowed per corrupted fetch; `0` disables recovery and
    /// every injected integrity fault becomes `Unrecovered`.
    pub max_retries: u32,
    /// Stash occupancy at or above which one extra background-eviction
    /// round (dummy reads to `A`, then an eviction) runs per access.
    pub escalation_watermark: usize,
    /// Stash occupancy at or above which CB green-slot substitution is
    /// disabled (degraded mode) until pressure drains.
    pub degrade_watermark: usize,
    /// Stash occupancy at or below which degraded mode ends.
    pub resume_watermark: usize,
}

impl ResilienceConfig {
    /// A conservative default for a stash of the given capacity: escalate
    /// at 60 %, degrade at 80 %, resume below 50 %.
    #[must_use]
    pub fn for_stash(capacity: usize) -> Self {
        Self {
            fault_seed: 0xFA_17,
            bit_flip_rate: 0.0,
            max_retries: 2,
            escalation_watermark: capacity * 6 / 10,
            degrade_watermark: capacity * 8 / 10,
            resume_watermark: capacity / 2,
        }
    }

    /// Checks rates and watermark ordering against a stash capacity.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self, stash_capacity: usize) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.bit_flip_rate) {
            return Err(format!(
                "bit_flip_rate {} outside [0, 1]",
                self.bit_flip_rate
            ));
        }
        if self.degrade_watermark > stash_capacity {
            return Err(format!(
                "degrade_watermark {} above stash capacity {}",
                self.degrade_watermark, stash_capacity
            ));
        }
        if self.escalation_watermark > self.degrade_watermark {
            return Err(format!(
                "escalation_watermark {} above degrade_watermark {}",
                self.escalation_watermark, self.degrade_watermark
            ));
        }
        if self.resume_watermark >= self.degrade_watermark {
            return Err(format!(
                "resume_watermark {} must be below degrade_watermark {}",
                self.resume_watermark, self.degrade_watermark
            ));
        }
        Ok(())
    }
}

/// Structured protocol-level failure taxonomy (replaces library panics on
/// the paths a caller can meaningfully handle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum OramError {
    /// Background eviction could not drain the stash: the tree is
    /// over-full (program working set plus cold pre-load exceeds the
    /// tree's real capacity) and the protocol cannot make progress.
    StashOverflow {
        /// Stash occupancy when the drain attempt gave up.
        occupancy: usize,
        /// Configured stash capacity.
        capacity: usize,
        /// The tree's real-block capacity.
        real_capacity: u64,
    },
}

impl std::fmt::Display for OramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::StashOverflow {
                occupancy,
                capacity,
                real_capacity,
            } => write!(
                f,
                "background eviction cannot drain the stash (occupancy \
                 {occupancy}, capacity {capacity}): the tree is over-full — \
                 program working set plus cold pre-load must stay below the \
                 tree's real capacity ({real_capacity} blocks)"
            ),
        }
    }
}

impl std::error::Error for OramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_labels_are_distinct() {
        let labels: std::collections::HashSet<&str> = [
            FaultEventKind::Injected,
            FaultEventKind::Detected,
            FaultEventKind::Retried,
            FaultEventKind::Recovered,
            FaultEventKind::Unrecovered,
        ]
        .into_iter()
        .map(FaultEventKind::label)
        .collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn default_watermarks_validate() {
        for capacity in [10, 100, 500] {
            ResilienceConfig::for_stash(capacity)
                .validate(capacity)
                .unwrap();
        }
    }

    #[test]
    fn watermark_ordering_enforced() {
        let mut cfg = ResilienceConfig::for_stash(100);
        cfg.resume_watermark = cfg.degrade_watermark;
        assert!(cfg.validate(100).is_err());
        let mut cfg = ResilienceConfig::for_stash(100);
        cfg.degrade_watermark = 101;
        assert!(cfg.validate(100).is_err());
        let mut cfg = ResilienceConfig::for_stash(100);
        cfg.escalation_watermark = cfg.degrade_watermark + 1;
        assert!(cfg.validate(100).is_err());
        let mut cfg = ResilienceConfig::for_stash(100);
        cfg.bit_flip_rate = 1.5;
        assert!(cfg.validate(100).is_err());
    }

    #[test]
    fn errors_render_their_evidence() {
        let e = OramError::StashOverflow {
            occupancy: 512,
            capacity: 500,
            real_capacity: 1 << 20,
        };
        let s = e.to_string();
        assert!(s.contains("512"));
        assert!(s.contains("500"));
    }
}
