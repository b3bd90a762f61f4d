//! Simulation reports: everything the paper's figures are drawn from.

use std::collections::BTreeMap;

use dram_sim::power::EnergyBreakdown;
use mem_sched::RowClass;
use ring_oram::{OpKind, ProtocolStats};

/// Execution-cycle attribution by ORAM operation kind (the stacked bars of
/// the paper's Fig. 10). Each memory cycle is attributed to the kind of the
/// oldest unfinished ORAM transaction; cycles with no transaction in flight
/// (and dummy read paths) fall into `other`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCycles {
    /// Cycles attributed to program read paths.
    pub read: u64,
    /// Cycles attributed to evictions.
    pub evict: u64,
    /// Cycles attributed to early reshuffles.
    pub reshuffle: u64,
    /// Dummy read paths, fault-recovery retries, idle and everything else.
    /// (Retry cycles are additionally broken out in
    /// [`ResilienceSummary::retry_cycles`] so Fig. 10's buckets keep their
    /// fault-free meaning.)
    pub other: u64,
}

impl KindCycles {
    /// Total attributed cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.read + self.evict + self.reshuffle + self.other
    }

    /// Adds `n` cycles to the bucket for `kind` (`None` = no transaction
    /// in flight).
    pub fn add_n(&mut self, kind: Option<OpKind>, n: u64) {
        match kind {
            Some(OpKind::ReadPath) => self.read += n,
            Some(OpKind::Eviction) => self.evict += n,
            Some(OpKind::EarlyReshuffle) => self.reshuffle += n,
            Some(OpKind::DummyReadPath | OpKind::RetryRead) | None => self.other += n,
        }
    }
}

/// Row-buffer outcome counts for one operation kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowClassCounts {
    /// Requests that found their row open.
    pub hits: u64,
    /// Requests that found the bank precharged.
    pub misses: u64,
    /// Requests that found a different row open.
    pub conflicts: u64,
}

impl RowClassCounts {
    /// Folds in one request outcome.
    pub fn add(&mut self, class: RowClass) {
        match class {
            RowClass::Hit => self.hits += 1,
            RowClass::Miss => self.misses += 1,
            RowClass::Conflict => self.conflicts += 1,
        }
    }

    /// Total classified requests.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.misses + self.conflicts
    }

    /// Fraction of requests that were conflicts (Fig. 5(b)'s metric).
    #[must_use]
    pub fn conflict_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.total() as f64
        }
    }
}

sim_counters::counters! {
    KindCycles { sum: read, evict, reshuffle, other; }
    RowClassCounts { sum: hits, misses, conflicts; }
}

/// Latency percentiles over a sample population, in memory-bus cycles.
///
/// Quantiles are linearly interpolated between adjacent order statistics
/// (the common "type 7" estimator), so small pools report e.g. the true
/// midpoint of two samples instead of clamping to the lower one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyPercentiles {
    /// Number of samples.
    pub samples: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile (the serving layer's tail-latency target).
    pub p999: u64,
    /// Maximum observed.
    pub max: u64,
}

/// Interpolated quantile of a sorted, non-empty sample pool: the rank
/// `(len - 1) * q` linearly interpolated between the two adjacent order
/// statistics, rounded to the nearest cycle. Exact ranks (including the
/// single-sample pool) return the order statistic itself.
fn interpolated_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = (sorted.len() - 1) as f64 * q;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let frac = rank - lo as f64;
    let (a, b) = (sorted[lo] as f64, sorted[hi] as f64);
    (a + (b - a) * frac).round() as u64
}

impl LatencyPercentiles {
    /// Computes percentiles from raw samples (empty input yields zeros).
    #[must_use]
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut v = samples.to_vec();
        v.sort_unstable();
        let at = |q: f64| interpolated_quantile(&v, q);
        Self {
            samples: v.len() as u64,
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            p999: at(0.999),
            max: v[v.len() - 1],
        }
    }

    /// Whether the population is empty (percentiles are the zero defaults,
    /// not observed values).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Median, or `None` for an empty population — for callers that must
    /// distinguish "no reads completed" from a measured 0-cycle latency.
    #[must_use]
    pub fn median(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.p50)
    }
}

/// Resilience counters for one run: what the fault layer injected and how
/// the stack absorbed it. All zeros when fault injection is disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceSummary {
    /// Transit corruptions injected into block fetches.
    pub faults_injected: u64,
    /// Corruptions caught by the integrity tag.
    pub faults_detected: u64,
    /// Bounded re-reads performed to recover corrupted fetches.
    pub fault_retries: u64,
    /// Corrupted fetches recovered within the retry budget.
    pub faults_recovered: u64,
    /// Corrupted fetches that exhausted the retry budget.
    pub faults_unrecovered: u64,
    /// Entries into degraded mode (green substitution suspended).
    pub degraded_entries: u64,
    /// Exits from degraded mode.
    pub degraded_exits: u64,
    /// Extra background-eviction rounds forced by the stash escalation
    /// watermark.
    pub background_escalations: u64,
    /// Memory cycles attributed to in-flight retry transactions (latency
    /// cost of fault recovery; also included in `cycles_by_kind.other`).
    pub retry_cycles: u64,
    /// Memory-controller responses delayed by injected late-response
    /// faults.
    pub responses_delayed: u64,
    /// Memory-controller data commands whose response was dropped and
    /// reissued.
    pub responses_dropped: u64,
    /// 1024-cycle windows during which injected queue saturation reduced
    /// the controller's effective queue capacity.
    pub queue_saturation_windows: u64,
    /// Refreshes stretched into storms (tRFC multiplied) by the DRAM fault
    /// hooks.
    pub refresh_storms: u64,
    /// Row activations that hit an injected weak row and stalled before
    /// serving column commands.
    pub weak_row_stalls: u64,
}

/// Serving outcome of one tenant under the `oram-service` front-end.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant name (from the service configuration).
    pub tenant: String,
    /// Requests generated by the tenant's arrival process.
    pub arrivals: u64,
    /// Requests that passed admission into the tenant's bounded queue.
    pub admitted: u64,
    /// Requests whose data arrived within their deadline.
    pub completed: u64,
    /// Requests that resolved by deadline expiry (after any retries).
    pub timed_out: u64,
    /// Arrivals rejected because the tenant queue was at capacity.
    pub rejected_queue_full: u64,
    /// Arrivals rejected by the degraded-mode admission quota.
    pub rejected_throttled: u64,
    /// Arrivals rejected while the overload governor was shedding.
    pub rejected_shed: u64,
    /// Re-admissions of deadline-expired requests (bounded per request).
    pub retries: u64,
    /// Engine completions that arrived after their request had already
    /// resolved as timed out (the work still happened; the data is
    /// discarded — never a second resolution).
    pub late_completions: u64,
    /// Highest queue depth the tenant ever reached (≤ its configured cap).
    pub queue_depth_high_water: usize,
    /// Submission-to-completion latency percentiles over completed
    /// requests, in virtual (memory-bus) cycles.
    pub latency: LatencyPercentiles,
}

impl TenantSummary {
    /// Total rejected arrivals, over all rejection reasons.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_throttled + self.rejected_shed
    }

    /// Total resolved requests. Every arrival resolves exactly once, so
    /// this must equal [`Self::arrivals`] at end of run (the
    /// `ServiceAuditor` enforces it).
    #[must_use]
    pub fn resolved(&self) -> u64 {
        self.completed + self.timed_out + self.rejected()
    }
}

/// Overload-governor activity: Healthy → Degraded → Shedding transitions
/// taken during the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorSummary {
    /// Healthy → Degraded transitions.
    pub degraded_entries: u64,
    /// Degraded → Shedding transitions.
    pub shed_entries: u64,
    /// Degraded → Healthy recoveries.
    pub recoveries: u64,
}

/// Serving-layer summary attached to a [`SimReport`] when the run was
/// driven by the `oram-service` front-end.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSummary {
    /// Submission-policy label (e.g. `"best-effort"` or
    /// `"fixed-rate/interval=4/batch=2"`).
    pub policy: String,
    /// Virtual ticks (memory-bus cycles) the service ran for, including
    /// the post-horizon drain.
    pub ticks: u64,
    /// Program accesses dispatched on behalf of tenant requests.
    pub real_accesses: u64,
    /// Cover (dummy-padding) accesses dispatched to hold the fixed-rate
    /// cadence; always zero under best-effort submission.
    pub padding_accesses: u64,
    /// FNV-1a digest of the submission envelope — `(tick, slot count)` for
    /// every submitting tick. Under fixed-rate padding this is a pure
    /// function of the policy and run length, identical across different
    /// tenant loads (the timing-channel oracle).
    pub schedule_digest: u64,
    /// Overload-governor transition counts.
    pub governor: GovernorSummary,
    /// Per-tenant outcomes, in tenant-id order.
    pub tenants: Vec<TenantSummary>,
}

impl ServiceSummary {
    /// Fraction of engine accesses that were padding (the throughput cost
    /// of the fixed-rate cadence); zero when nothing was dispatched.
    #[must_use]
    pub fn padding_overhead(&self) -> f64 {
        let total = self.real_accesses + self.padding_accesses;
        if total == 0 {
            0.0
        } else {
            self.padding_accesses as f64 / total as f64
        }
    }

    /// Looks a tenant up by name.
    #[must_use]
    pub fn tenant(&self, name: &str) -> Option<&TenantSummary> {
        self.tenants.iter().find(|t| t.tenant == name)
    }
}

/// The complete result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Free-form run label (workload / scheme).
    pub label: String,
    /// Stable name of the command-scheduling policy the run used
    /// (`mem_sched::SchedulerPolicy::name`, e.g. `"proactive-bank"`).
    pub policy_name: String,
    /// Shard instances the run used (1 = the unsharded pipeline). For a
    /// merged sharded report, every extensive counter below is the sum over
    /// shards, combined in shard-id order.
    pub shards: usize,
    /// Total memory-bus cycles simulated. For a merged sharded report this
    /// is the *sum* of per-shard cycles (total work; it keeps
    /// `cycles_by_kind.total()` equal to `total_cycles`); wall-clock-like
    /// completion is [`Self::makespan_cycles`].
    pub total_cycles: u64,
    /// Cycles until the slowest shard finished (max over shards). Equals
    /// `total_cycles` for an unsharded run.
    pub makespan_cycles: u64,
    /// Cycle attribution by operation kind.
    pub cycles_by_kind: KindCycles,
    /// Total instructions retired across cores.
    pub instructions: u64,
    /// Program (LLC-miss) accesses served by the ORAM.
    pub oram_accesses: u64,
    /// ORAM transactions executed, by kind.
    pub transactions_by_kind: BTreeMap<&'static str, u64>,
    /// Row-buffer outcomes per operation kind.
    pub row_class_by_kind: BTreeMap<&'static str, RowClassCounts>,
    /// Mean read-queue wait in cycles.
    pub mean_read_queue_wait: f64,
    /// Mean write-queue wait in cycles.
    pub mean_write_queue_wait: f64,
    /// Mean queued requests per tick.
    pub mean_queue_occupancy: f64,
    /// Average bank idle proportion over the whole run (all bank-cycles,
    /// whether or not work was pending).
    pub bank_idle_proportion: f64,
    /// Of the bank-cycles with pending requests, the fraction spent idle —
    /// the Fig. 12(a) metric: idleness the scheduling barrier causes.
    pub pending_bank_idle_proportion: f64,
    /// Fraction of PRE commands issued early by PB (Fig. 12(b)).
    pub early_precharge_fraction: f64,
    /// Fraction of ACT commands issued early by PB (Fig. 12(b)).
    pub early_activate_fraction: f64,
    /// Write data commands a read bypassed under a read-priority policy
    /// (zero for policies without read/write prioritization).
    pub deferred_writes: u64,
    /// Issue slots a pacing policy declined to use (zero except under
    /// fixed-cadence scheduling).
    pub withheld_issue_slots: u64,
    /// Protocol statistics (greens, stash samples, background evictions).
    pub protocol: ProtocolStats,
    /// Fault-injection and graceful-degradation counters (all zeros when
    /// fault injection is off).
    pub resilience: ResilienceSummary,
    /// Total memory requests completed.
    pub requests_completed: u64,
    /// DRAM energy estimate (Micron-style model; see `dram_sim::power`).
    pub energy: EnergyBreakdown,
    /// Channel imbalance (max/mean of per-channel completed requests).
    pub channel_imbalance: f64,
    /// Program read-path latency percentiles (plan to data availability).
    pub read_latency: LatencyPercentiles,
    /// Conformance violations found by the `sim-verify` checkers, rendered
    /// as `"[rule] at cycle: evidence"` lines. Empty when `cfg.verify` is
    /// off — or when the simulated machine honored every checked rule.
    pub violations: Vec<String>,
    /// Serving-layer summary (per-tenant percentiles, shed/timeout/retry
    /// counters, padding cost) when the run was driven by the
    /// `oram-service` front-end; `None` for plain trace-driven runs.
    pub service: Option<ServiceSummary>,
}

impl SimReport {
    /// Row-class counts for an operation kind label (e.g. `"read"`).
    #[must_use]
    pub fn row_class(&self, kind: OpKind) -> RowClassCounts {
        self.row_class_by_kind
            .get(kind.label())
            .copied()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_cycles_bucketing() {
        let mut k = KindCycles::default();
        k.add_n(Some(OpKind::ReadPath), 1);
        k.add_n(Some(OpKind::Eviction), 1);
        k.add_n(Some(OpKind::EarlyReshuffle), 1);
        k.add_n(Some(OpKind::DummyReadPath), 1);
        k.add_n(None, 1);
        assert_eq!(k.read, 1);
        assert_eq!(k.evict, 1);
        assert_eq!(k.reshuffle, 1);
        assert_eq!(k.other, 2);
        assert_eq!(k.total(), 5);
    }

    #[test]
    fn row_class_rates() {
        let mut c = RowClassCounts::default();
        c.add(RowClass::Hit);
        c.add(RowClass::Conflict);
        c.add(RowClass::Conflict);
        c.add(RowClass::Miss);
        assert_eq!(c.total(), 4);
        assert!((c.conflict_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn latency_percentiles() {
        let p = LatencyPercentiles::from_samples(&[]);
        assert_eq!(p.samples, 0);
        assert_eq!(p.max, 0);
        let samples: Vec<u64> = (1..=100).collect();
        let p = LatencyPercentiles::from_samples(&samples);
        assert_eq!(p.samples, 100);
        // Interpolated ("type 7") quantiles: rank (n-1)·q between adjacent
        // order statistics. p50 of 1..=100 sits between 50 and 51.
        assert_eq!(p.p50, 51); // 50.5 rounded half-up
        assert_eq!(p.p95, 95); // 95.05 rounds to 95
        assert_eq!(p.p99, 99); // 99.01 rounds to 99
        assert_eq!(p.p999, 100); // 99.901 rounds to 100
        assert_eq!(p.max, 100);
    }

    /// Satellite regression: small pools must interpolate between order
    /// statistics, not clamp to the lower one, and `p999` must be exact on
    /// pools large enough to pin it.
    #[test]
    fn percentiles_interpolate_on_known_distributions() {
        // Two-point pool: every interior quantile is a blend, not a clamp.
        let p = LatencyPercentiles::from_samples(&[10, 20]);
        assert_eq!(p.p50, 15, "midpoint, not the lower clamp (10)");
        assert_eq!(p.p95, 20); // 19.5 rounds up
        assert_eq!(p.p99, 20);
        assert_eq!(p.p999, 20);
        assert_eq!(p.max, 20);

        // Single sample: every quantile is that sample.
        let p = LatencyPercentiles::from_samples(&[7]);
        assert_eq!((p.p50, p.p95, p.p99, p.p999, p.max), (7, 7, 7, 7, 7));

        // 1001 uniform samples 0..=1000: ranks land exactly on order
        // statistics, so quantiles equal the true distribution quantiles.
        let v: Vec<u64> = (0..=1000).collect();
        let p = LatencyPercentiles::from_samples(&v);
        assert_eq!(p.p50, 500);
        assert_eq!(p.p95, 950);
        assert_eq!(p.p99, 990);
        assert_eq!(p.p999, 999);
        assert_eq!(p.max, 1000);

        // Order must not matter.
        let mut shuffled: Vec<u64> = v.iter().rev().copied().collect();
        shuffled.rotate_left(313);
        assert_eq!(LatencyPercentiles::from_samples(&shuffled), p);

        // Merging shards through the pool is the same estimator.
        let (a, b) = v.split_at(400);
        assert_eq!(LatencyPercentiles::from_samples(&[b, a].concat()), p);
    }

    /// Regression: an empty sample population must yield an all-zero
    /// summary, never panic (measurement windows can legitimately contain
    /// zero completed program reads).
    #[test]
    fn empty_latency_samples_yield_zeroed_summary() {
        assert_eq!(
            LatencyPercentiles::from_samples(&[]),
            LatencyPercentiles::default()
        );
    }

    /// Satellite regression: pooling an all-empty shard window with a
    /// populated one must behave exactly like the populated window alone,
    /// and an all-empty pool must be the zero summary (`median()` `None`),
    /// never a panic.
    #[test]
    fn shard_sample_merge_handles_empty_windows() {
        let populated: Vec<u64> = (1..=50).collect();
        let merged = LatencyPercentiles::from_samples(&[&[], &populated[..]].concat());
        assert_eq!(merged, LatencyPercentiles::from_samples(&populated));
        assert!(!merged.is_empty());
        assert_eq!(merged.median(), Some(26)); // 25.5 interpolated, rounded up

        let all_empty = LatencyPercentiles::from_samples(&[&[][..], &[], &[]].concat());
        assert_eq!(all_empty, LatencyPercentiles::default());
        assert!(all_empty.is_empty());
        assert_eq!(all_empty.median(), None);
        assert_eq!(all_empty.p50, 0);
        assert_eq!(all_empty.max, 0);
    }

    #[test]
    fn shard_sample_merge_pools_across_shards() {
        let a: Vec<u64> = (1..=50).collect();
        let b: Vec<u64> = (51..=100).collect();
        let merged = LatencyPercentiles::from_samples(&[a, b].concat());
        let direct: Vec<u64> = (1..=100).collect();
        assert_eq!(merged, LatencyPercentiles::from_samples(&direct));
        assert_eq!(merged.samples, 100);
    }

    #[test]
    fn kind_cycles_retry_counts_as_other() {
        let mut k = KindCycles::default();
        k.add_n(Some(OpKind::RetryRead), 1);
        assert_eq!(k.other, 1);
        assert_eq!(k.total(), 1);
    }

    #[test]
    fn empty_rates_are_zero() {
        let c = RowClassCounts::default();
        assert_eq!(c.conflict_rate(), 0.0);
    }
}
