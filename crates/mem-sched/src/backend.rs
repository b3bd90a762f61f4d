//! The pluggable memory-backend abstraction.
//!
//! The `string-oram` pipeline drives memory through the [`MemoryBackend`]
//! trait rather than the concrete [`MemoryController`], so the same staged
//! transaction pipeline can run over
//!
//! * the **cycle-accurate** backend — [`MemoryController`] over
//!   `dram-sim`, the paper's evaluation substrate — or
//! * the **fast functional** backend ([`crate::FunctionalBackend`]) — a
//!   row-aware latency model with no per-cycle DRAM state, for long-trace
//!   and protocol-only runs.
//!
//! Both backends expose the same contract: transaction-ordered enqueue,
//! per-cycle `tick`, completion draining, a [`CommandEvent`] stream for
//! external conformance checking, and a [`BackendSnapshot`] of every
//! counter for measurement windows.

use dram_sim::{DramModule, DramSnapshot};

use crate::controller::{CommandEvent, MemoryController};
use crate::queue::QueueFull;
use crate::request::{Completed, RequestSpec};
use crate::stats::SchedulerStats;

/// A frozen copy of every counter a backend exposes, for measurement
/// windows: snapshot at the window start, [`BackendSnapshot::delta`] at the
/// end.
#[derive(Debug, Clone)]
pub struct BackendSnapshot {
    /// Scheduler-level counters (both backends).
    pub sched: SchedulerStats,
    /// DRAM-level counters; `None` for backends without a cycle-accurate
    /// DRAM model.
    pub dram: Option<DramSnapshot>,
}

impl BackendSnapshot {
    /// Counter-wise difference `self - earlier`. `earlier` must be a prior
    /// snapshot of the same backend.
    #[must_use]
    pub fn delta(&self, earlier: &Self) -> Self {
        Self {
            sched: self.sched.delta(&earlier.sched),
            dram: match (&self.dram, &earlier.dram) {
                (Some(now), Some(then)) => Some(now.delta(then)),
                _ => None,
            },
        }
    }

    /// Folds a *disjoint* backend's snapshot into `self`, for combining
    /// per-shard snapshots into one merged view. Scheduler counters add
    /// ([`SchedulerStats::merge_from`]); the DRAM layer is kept only when
    /// *every* merged shard has one (mixed fleets drop timing-level data
    /// rather than misreport a partial sum).
    pub fn merge_from(&mut self, other: &Self) {
        self.sched.merge_from(&other.sched);
        self.dram = match (self.dram.take(), &other.dram) {
            (Some(mut mine), Some(theirs)) => {
                mine.merge_from(theirs);
                Some(mine)
            }
            _ => None,
        };
    }
}

/// The memory side of the ORAM system, as seen by the transaction pipeline.
///
/// The contract every implementation upholds:
///
/// * requests are enqueued in non-decreasing [`crate::TxnId`] order (both
///   backends panic otherwise, in every build) and their **data commands
///   complete in transaction order** (the ORAM security contract), except
///   under the explicitly insecure
///   [`crate::SchedulerPolicy::Unconstrained`] ablation;
/// * [`MemoryBackend::tick`] is called once per cycle with non-decreasing
///   cycles; completions surface via [`MemoryBackend::drain_completed`]
///   with a possibly-future `data_done_at` (recorded at data-command issue
///   time);
/// * when command tracing is enabled, every issued command appears on the
///   [`CommandEvent`] stream so `sim-verify` checkers can attach without
///   knowing which backend produced it.
///
/// Backends are `Send`: the sharded engine moves each shard's backend onto
/// its own worker thread. They need not be `Sync` — a backend is owned by
/// exactly one shard pipeline.
pub trait MemoryBackend: std::fmt::Debug + Send {
    /// Enqueues a request at `cycle`.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the target queue has no free entry; the caller
    /// must stall and retry (nothing is enqueued).
    fn try_enqueue(&mut self, spec: RequestSpec, cycle: u64) -> Result<u64, QueueFull>;

    /// Advances the backend by one memory cycle.
    fn tick(&mut self, cycle: u64);

    /// The first cycle, no earlier than `from`, at which [`Self::tick`] can
    /// do more than count itself. A backend that answers `c > from`
    /// promises that, unless a request is enqueued first, its ticks at
    /// `from .. c` complete nothing, emit no command event and move no
    /// counter but `ticks` and `queue_occupancy_integral` — so a caller
    /// that still makes those ticks may skip draining after them.
    ///
    /// The default answers `from` (never quiet), which is always right.
    /// The cycle-accurate controller keeps it: refresh and its per-cycle
    /// bank accounting run on every tick, with or without requests.
    fn next_event_cycle(&self, from: u64) -> u64 {
        from
    }

    /// Takes all requests completed since the last call.
    fn drain_completed(&mut self) -> Vec<Completed>;

    /// Appends all requests completed since the last drain to `out`,
    /// reusing its capacity. The allocation-free form of
    /// [`MemoryBackend::drain_completed`] for per-cycle callers; both
    /// drains consume the same completion buffer.
    fn drain_completed_into(&mut self, out: &mut Vec<Completed>) {
        out.append(&mut self.drain_completed());
    }

    /// Number of requests currently queued (accepted by
    /// [`Self::try_enqueue`], data command not yet issued). A request whose
    /// data command has issued no longer counts, even while its
    /// `data_done_at` lies ahead.
    fn pending(&self) -> usize;

    /// Starts recording every issued command on the event stream.
    fn enable_command_trace(&mut self);

    /// Takes the recorded command events, leaving tracing active if it was
    /// enabled. Empty if tracing was never enabled.
    fn take_command_events(&mut self) -> Vec<CommandEvent>;

    /// Appends the recorded command events to `out`, reusing its capacity
    /// and keeping the backend's trace buffer. The allocation-free form of
    /// [`MemoryBackend::take_command_events`] for per-cycle callers; both
    /// consume the same trace.
    fn drain_command_events_into(&mut self, out: &mut Vec<CommandEvent>) {
        out.append(&mut self.take_command_events());
    }

    /// The cycle-accurate DRAM module, when the backend has one. `None`
    /// means timing-level checkers (JEDEC shadow timing, bank idle
    /// accounting, the energy model) do not apply.
    fn dram_module(&self) -> Option<&DramModule>;

    /// Freezes every counter into one [`BackendSnapshot`].
    fn snapshot(&self) -> BackendSnapshot;
}

impl MemoryBackend for MemoryController {
    fn try_enqueue(&mut self, spec: RequestSpec, cycle: u64) -> Result<u64, QueueFull> {
        MemoryController::try_enqueue(self, spec, cycle)
    }

    fn tick(&mut self, cycle: u64) {
        MemoryController::tick(self, cycle);
    }

    fn drain_completed(&mut self) -> Vec<Completed> {
        MemoryController::drain_completed(self)
    }

    fn drain_completed_into(&mut self, out: &mut Vec<Completed>) {
        MemoryController::drain_completed_into(self, out);
    }

    fn pending(&self) -> usize {
        MemoryController::pending(self)
    }

    fn enable_command_trace(&mut self) {
        MemoryController::enable_command_trace(self);
    }

    fn take_command_events(&mut self) -> Vec<CommandEvent> {
        MemoryController::take_command_events(self)
    }

    fn drain_command_events_into(&mut self, out: &mut Vec<CommandEvent>) {
        MemoryController::drain_command_events_into(self, out);
    }

    fn dram_module(&self) -> Option<&DramModule> {
        Some(self.dram())
    }

    fn snapshot(&self) -> BackendSnapshot {
        let mut sched = self.stats().clone();
        sched.absorb_policy(self.policy_stats());
        BackendSnapshot {
            sched,
            dram: Some(self.dram().snapshot()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedulerPolicy;
    use dram_sim::geometry::DramGeometry;
    use dram_sim::timing::TimingParams;
    use dram_sim::AddressMapping;

    #[test]
    fn controller_implements_backend() {
        let geometry = DramGeometry::test_small();
        let mapping = AddressMapping::hpca_default(&geometry);
        let dram = DramModule::new(geometry, TimingParams::test_fast());
        let ctrl = MemoryController::new(dram, mapping, SchedulerPolicy::TransactionBased, 16);
        let backend: &dyn MemoryBackend = &ctrl;
        assert_eq!(backend.pending(), 0);
        assert!(backend.dram_module().is_some());
        let snap = backend.snapshot();
        assert!(snap.dram.is_some());
        assert_eq!(snap.sched.ticks, 0);
    }

    #[test]
    fn snapshot_delta_subtracts_both_layers() {
        let geometry = DramGeometry::test_small();
        let mapping = AddressMapping::hpca_default(&geometry);
        let dram = DramModule::new(geometry, TimingParams::test_fast());
        let mut ctrl = MemoryController::new(dram, mapping, SchedulerPolicy::TransactionBased, 16);
        let before = MemoryBackend::snapshot(&ctrl);
        for c in 0..10 {
            MemoryBackend::tick(&mut ctrl, c);
        }
        let after = MemoryBackend::snapshot(&ctrl);
        let d = after.delta(&before);
        assert_eq!(d.sched.ticks, 10);
        assert!(d.dram.is_some());
    }
}
