//! Scheduler-level statistics.

use crate::policy::PolicyStats;
use crate::request::{Completed, RowClass};

/// Counters the memory controller accumulates while scheduling.
///
/// Together with the DRAM module's bank-busy accounting these provide every
/// series the paper's Figs. 11 and 12 report: queueing times per direction,
/// queue occupancy, row-buffer class mix, and the fraction of PRE/ACT
/// commands the active policy's proactive pass managed to issue early.
/// The policy-local counters (`PolicyStats`) are folded in via
/// `SchedulerStats::absorb_policy` whenever a backend snapshot is taken.
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Scheduler ticks observed.
    pub ticks: u64,
    /// Sum over ticks of total queued requests (mean occupancy numerator).
    pub queue_occupancy_integral: u64,
    /// Completed reads.
    pub reads_completed: u64,
    /// Completed writes.
    pub writes_completed: u64,
    /// Total queue-wait cycles of completed reads.
    pub read_queue_wait: u64,
    /// Total queue-wait cycles of completed writes.
    pub write_queue_wait: u64,
    /// Row-buffer hits among completed requests.
    pub hits: u64,
    /// Row-buffer misses among completed requests.
    pub misses: u64,
    /// Row-buffer conflicts among completed requests.
    pub conflicts: u64,
    /// PRE commands issued by the scheduler on behalf of queued requests.
    pub precharges: u64,
    /// ACT commands issued by the scheduler on behalf of queued requests.
    pub activates: u64,
    /// PRE commands issued ahead of their transaction by the proactive
    /// pass (Proactive Bank at any lookahead).
    pub early_precharges: u64,
    /// ACT commands issued ahead of their transaction by any policy's
    /// proactive pass.
    pub early_activates: u64,
    /// Write row-hits bypassed in favor of a read data command (absorbed
    /// from the policy's local counters; nonzero only under read-priority
    /// policies).
    pub deferred_writes: u64,
    /// Forced write drains after a read-priority policy's deferral bound
    /// was reached (absorbed from the policy's local counters).
    pub write_drains: u64,
    /// Ticks in which the policy withheld every issue slot (absorbed from
    /// the policy's local counters; nonzero only under fixed-cadence
    /// policies).
    pub withheld_issue_slots: u64,
    /// Bank-cycles in which a bank had pending requests but executed
    /// nothing (the "bank idle time" the paper's Fig. 12(a) attributes to
    /// the transaction-based scheduling barrier).
    pub stalled_bank_cycles: u64,
    /// Bank-cycles in which a bank had pending requests and was executing.
    pub busy_pending_bank_cycles: u64,
    /// Requests completed per channel (for channel-imbalance analysis,
    /// cf. the imbalance-aware scheduler of Che et al., ICCD'19).
    pub per_channel_requests: Vec<u64>,
    /// Sum over ticks of banks with an open row (for the power model's
    /// active-background term).
    pub open_bank_integral: u64,
    /// Sum over ticks of total banks (denominator for the above).
    pub bank_tick_integral: u64,
    /// Data responses delayed by injected late-response faults.
    pub responses_delayed: u64,
    /// Data commands whose response was dropped by fault injection and
    /// later reissued.
    pub responses_dropped: u64,
    /// Cycle windows during which injected queue saturation halved the
    /// effective queue capacity (counted once per window, on the first
    /// enqueue attempt that observed it).
    pub queue_saturation_windows: u64,
}

impl SchedulerStats {
    /// Folds one completed request into the counters.
    pub(crate) fn record_completion(&mut self, c: &Completed) {
        if c.is_write {
            self.writes_completed += 1;
            self.write_queue_wait += c.queue_wait();
        } else {
            self.reads_completed += 1;
            self.read_queue_wait += c.queue_wait();
        }
        match c.class {
            RowClass::Hit => self.hits += 1,
            RowClass::Miss => self.misses += 1,
            RowClass::Conflict => self.conflicts += 1,
        }
    }

    /// Mean queue wait of reads, in cycles.
    #[must_use]
    pub fn mean_read_queue_wait(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.read_queue_wait as f64 / self.reads_completed as f64
        }
    }

    /// Mean queue wait of writes, in cycles.
    #[must_use]
    pub fn mean_write_queue_wait(&self) -> f64 {
        if self.writes_completed == 0 {
            0.0
        } else {
            self.write_queue_wait as f64 / self.writes_completed as f64
        }
    }

    /// Mean total queue occupancy (requests) per tick.
    #[must_use]
    pub fn mean_queue_occupancy(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.queue_occupancy_integral as f64 / self.ticks as f64
        }
    }

    /// Fraction of completed requests that were row-buffer conflicts
    /// (the paper's "row buffer conflict rate").
    #[must_use]
    pub fn conflict_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.conflicts;
        if total == 0 {
            0.0
        } else {
            self.conflicts as f64 / total as f64
        }
    }

    /// Fraction of PRE commands issued ahead of their transaction
    /// (Fig. 12(b), "PB operation proportion").
    #[must_use]
    pub fn early_precharge_fraction(&self) -> f64 {
        if self.precharges == 0 {
            0.0
        } else {
            self.early_precharges as f64 / self.precharges as f64
        }
    }

    /// Fraction of ACT commands issued ahead of their transaction.
    #[must_use]
    pub fn early_activate_fraction(&self) -> f64 {
        if self.activates == 0 {
            0.0
        } else {
            self.early_activates as f64 / self.activates as f64
        }
    }

    /// Overwrites the policy-attributed counters with a policy's local
    /// cumulative totals. Called at snapshot time so windowed deltas and
    /// shard merges see consistent values without double bookkeeping in
    /// the controller hot path.
    pub(crate) fn absorb_policy(&mut self, p: PolicyStats) {
        self.deferred_writes = p.deferred_writes;
        self.write_drains = p.write_drains;
        self.withheld_issue_slots = p.withheld_slots;
    }

    /// Channel imbalance: the max-over-mean ratio of per-channel completed
    /// requests (1.0 = perfectly balanced). The ORAM's uniform path
    /// randomization keeps this near 1 in the long run; short transactions
    /// are transiently imbalanced, which is what Che et al. exploit.
    #[must_use]
    pub fn channel_imbalance(&self) -> f64 {
        let total: u64 = self.per_channel_requests.iter().sum();
        if total == 0 || self.per_channel_requests.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.per_channel_requests.len() as f64;
        let max = self.per_channel_requests.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }

    /// Mean fraction of banks holding an open row (drives the power
    /// model's active-background term).
    #[must_use]
    pub fn open_bank_fraction(&self) -> f64 {
        if self.bank_tick_integral == 0 {
            0.0
        } else {
            self.open_bank_integral as f64 / self.bank_tick_integral as f64
        }
    }

    /// Of the bank-cycles with pending work, the fraction spent idle —
    /// the paper's bank idle time caused by the scheduling barrier.
    #[must_use]
    pub fn pending_bank_idle_proportion(&self) -> f64 {
        let total = self.stalled_bank_cycles + self.busy_pending_bank_cycles;
        if total == 0 {
            0.0
        } else {
            self.stalled_bank_cycles as f64 / total as f64
        }
    }
}

sim_counters::counters! {
    SchedulerStats {
        sum: ticks, queue_occupancy_integral, reads_completed, writes_completed,
            read_queue_wait, write_queue_wait, hits, misses, conflicts, precharges, activates,
            early_precharges, early_activates, deferred_writes, write_drains,
            withheld_issue_slots, stalled_bank_cycles, busy_pending_bank_cycles,
            open_bank_integral, bank_tick_integral, responses_delayed, responses_dropped,
            queue_saturation_windows;
        per_unit: per_channel_requests;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::TxnId;

    fn completed(is_write: bool, class: RowClass, wait: u64) -> Completed {
        Completed {
            id: 0,
            txn: TxnId(0),
            is_write,
            arrival: 0,
            first_cmd_at: wait,
            issue_at: wait + 1,
            data_done_at: wait + 10,
            class,
        }
    }

    #[test]
    fn completion_accounting() {
        let mut s = SchedulerStats::default();
        s.record_completion(&completed(false, RowClass::Hit, 10));
        s.record_completion(&completed(false, RowClass::Conflict, 30));
        s.record_completion(&completed(true, RowClass::Miss, 20));
        assert_eq!(s.reads_completed, 2);
        assert_eq!(s.writes_completed, 1);
        assert!((s.mean_read_queue_wait() - 20.0).abs() < 1e-12);
        assert!((s.mean_write_queue_wait() - 20.0).abs() < 1e-12);
        assert!((s.conflict_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero_not_nan() {
        let s = SchedulerStats::default();
        assert_eq!(s.mean_read_queue_wait(), 0.0);
        assert_eq!(s.mean_write_queue_wait(), 0.0);
        assert_eq!(s.mean_queue_occupancy(), 0.0);
        assert_eq!(s.conflict_rate(), 0.0);
        assert_eq!(s.early_precharge_fraction(), 0.0);
        assert_eq!(s.early_activate_fraction(), 0.0);
    }

    #[test]
    fn pending_idle_proportion() {
        let s = SchedulerStats {
            stalled_bank_cycles: 30,
            busy_pending_bank_cycles: 10,
            ..SchedulerStats::default()
        };
        assert!((s.pending_bank_idle_proportion() - 0.75).abs() < 1e-12);
        assert_eq!(
            SchedulerStats::default().pending_bank_idle_proportion(),
            0.0
        );
    }

    #[test]
    fn open_bank_fraction() {
        let s = SchedulerStats {
            open_bank_integral: 8,
            bank_tick_integral: 32,
            ..SchedulerStats::default()
        };
        assert!((s.open_bank_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(SchedulerStats::default().open_bank_fraction(), 0.0);
    }

    #[test]
    fn channel_imbalance_metric() {
        let s = SchedulerStats {
            per_channel_requests: vec![10, 10, 10, 10],
            ..SchedulerStats::default()
        };
        assert!((s.channel_imbalance() - 1.0).abs() < 1e-12);
        let s = SchedulerStats {
            per_channel_requests: vec![30, 10, 10, 10],
            ..SchedulerStats::default()
        };
        assert!((s.channel_imbalance() - 2.0).abs() < 1e-12);
        assert_eq!(SchedulerStats::default().channel_imbalance(), 1.0);
    }

    #[test]
    fn absorb_policy_overwrites_attributed_counters() {
        let mut s = SchedulerStats::default();
        s.absorb_policy(PolicyStats {
            withheld_slots: 7,
            deferred_writes: 3,
            write_drains: 2,
        });
        assert_eq!(s.withheld_issue_slots, 7);
        assert_eq!(s.deferred_writes, 3);
        assert_eq!(s.write_drains, 2);
        // Absorbing is idempotent on cumulative totals, so a re-snapshot
        // does not double-count.
        s.absorb_policy(PolicyStats {
            withheld_slots: 7,
            deferred_writes: 3,
            write_drains: 2,
        });
        assert_eq!(s.deferred_writes, 3);
        // Windowed deltas subtract the new counters like any other.
        let earlier = SchedulerStats::default();
        assert_eq!(s.delta(&earlier).write_drains, 2);
        let mut merged = SchedulerStats::default();
        merged.merge_from(&s);
        merged.merge_from(&s);
        assert_eq!(merged.withheld_issue_slots, 14);
    }

    #[test]
    fn early_fractions() {
        let s = SchedulerStats {
            precharges: 10,
            early_precharges: 6,
            activates: 8,
            early_activates: 4,
            ..SchedulerStats::default()
        };
        assert!((s.early_precharge_fraction() - 0.6).abs() < 1e-12);
        assert!((s.early_activate_fraction() - 0.5).abs() < 1e-12);
    }
}
