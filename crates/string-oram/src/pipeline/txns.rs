//! Stages 2 and 4 — **Enqueue** and **Retire**: transaction bookkeeping.
//!
//! The tracker owns every unfinished ORAM transaction: it admits lowered
//! plans from the planner, feeds their requests to the memory backend in
//! strict transaction order (stalling on queue pressure, never reordering),
//! and folds completions back into transaction state, computing the cycle
//! at which a waiting core may resume.

use std::collections::{BTreeMap, VecDeque};

use dram_sim::PhysAddr;
use mem_sched::{Completed, MemoryBackend, RequestSpec, TxnId};
use ring_oram::OpKind;

use crate::pipeline::planner::PlannedTxn;

/// Live state of one ORAM transaction.
#[derive(Debug)]
struct TxnState {
    kind: OpKind,
    /// Cycle the transaction was planned (latency measurement origin).
    planned_at: u64,
    /// Requests not yet completed (enqueued or still waiting to enqueue).
    outstanding: usize,
    /// Core waiting for this transaction's target read, if any.
    waiting_core: Option<usize>,
    /// Request id of the target read once enqueued.
    target_req_id: Option<u64>,
    /// Whether the waiting core is released at transaction completion
    /// rather than at the target read (stash/tree-top/first-touch hits).
    release_on_completion: bool,
}

/// An entry awaiting queue space at the memory backend.
#[derive(Debug, Clone, Copy)]
struct PendingSpec {
    spec: RequestSpec,
    is_target: bool,
}

/// A core release computed by the tracker: core `core` may resume at cycle
/// `at`. `latency` is the plan-to-data latency sample to record when the
/// release ends a program read (degenerate on-chip transactions release
/// without a sample, matching the pre-pipeline accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wake {
    /// The core to release.
    pub core: usize,
    /// First cycle at which the core may resume.
    pub at: u64,
    /// Plan-to-data latency sample, when one applies.
    pub latency: Option<u64>,
}

/// What retiring one completion did: the transaction's kind (for row-class
/// attribution) and the core release it triggered, if any.
#[derive(Debug, Clone, Copy)]
pub struct Retired {
    /// Kind of the transaction the completion belonged to.
    pub kind: OpKind,
    /// Core release triggered by this completion, if any.
    pub wake: Option<Wake>,
}

/// Stages 2 and 4 of the pipeline: transaction admission, strictly ordered
/// enqueue, and retirement.
///
/// Transaction ids are assigned sequentially and the in-flight window is
/// small, so unfinished transactions live in a dense ring buffer indexed by
/// `id - txns_base` (`None` marks ids already finished or completed at
/// admission). This keeps the per-completion lookup and the per-cycle
/// oldest-transaction probe O(1) instead of paying an ordered-map descent
/// on the simulator's two hottest paths.
#[derive(Debug, Default)]
pub struct TxnTracker {
    /// Unfinished transactions: slot `i` holds transaction `txns_base + i`.
    txns: VecDeque<Option<TxnState>>,
    /// Id of the transaction at `txns[0]`; the front slot is kept `Some`
    /// (finished front entries are popped eagerly) unless nothing is live.
    txns_base: u64,
    /// Number of `Some` entries in `txns`.
    live: usize,
    next_txn: u64,
    /// Planned requests awaiting queue space, in strict transaction order.
    enqueue_fifo: VecDeque<PendingSpec>,
    transactions_by_kind: BTreeMap<&'static str, u64>,
}

impl TxnTracker {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits one lowered transaction: assigns an id and queues its
    /// requests for ordered enqueue. A degenerate (fully on-chip)
    /// transaction completes immediately and returns its core release.
    ///
    /// The tracker copies the requests into its own queues, so the
    /// transaction's request buffer is handed back for the caller to
    /// recycle into the planner's pool (the allocation loop on the hot
    /// path closes here).
    pub fn admit(
        &mut self,
        planned: PlannedTxn,
        cycle: u64,
    ) -> (Vec<(PhysAddr, bool)>, Option<Wake>) {
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        *self
            .transactions_by_kind
            .entry(planned.kind.label())
            .or_default() += 1;

        let state = TxnState {
            kind: planned.kind,
            planned_at: cycle,
            outstanding: planned.requests.len(),
            waiting_core: planned.waiting_core,
            target_req_id: None,
            release_on_completion: planned.release_on_completion,
        };
        for (i, &(addr, is_write)) in planned.requests.iter().enumerate() {
            self.enqueue_fifo.push_back(PendingSpec {
                spec: RequestSpec {
                    addr,
                    is_write,
                    txn,
                },
                is_target: planned.target_index == Some(i),
            });
        }
        let wake = if state.outstanding == 0 {
            // Degenerate (fully on-chip) transaction: complete at once.
            state.waiting_core.map(|core| Wake {
                core,
                at: cycle + 1,
                latency: None,
            })
        } else {
            self.insert(txn.0, state);
            None
        };
        (planned.requests, wake)
    }

    /// Inserts `state` at its id slot, padding skipped (degenerate) ids
    /// with `None`.
    fn insert(&mut self, id: u64, state: TxnState) {
        if self.live == 0 {
            self.txns.clear();
            self.txns_base = id;
        }
        debug_assert!(id >= self.txns_base + self.txns.len() as u64);
        while self.txns_base + (self.txns.len() as u64) < id {
            self.txns.push_back(None);
        }
        self.txns.push_back(Some(state));
        self.live += 1;
    }

    /// The live state of transaction `id`, if still unfinished.
    fn get_mut(&mut self, id: u64) -> Option<&mut TxnState> {
        let idx = id.checked_sub(self.txns_base)?;
        self.txns.get_mut(usize::try_from(idx).ok()?)?.as_mut()
    }

    /// Marks transaction `id` finished and pops any finished prefix so the
    /// front slot stays live.
    fn remove(&mut self, id: u64) {
        if let Some(idx) = id
            .checked_sub(self.txns_base)
            .and_then(|i| usize::try_from(i).ok())
        {
            if let Some(slot) = self.txns.get_mut(idx) {
                if slot.take().is_some() {
                    self.live -= 1;
                }
            }
        }
        while matches!(self.txns.front(), Some(None)) {
            self.txns.pop_front();
            self.txns_base += 1;
        }
    }

    /// Feeds the backend in strict transaction order, stopping at the
    /// first request the backend has no room for (retried next cycle).
    pub fn enqueue_ready(&mut self, backend: &mut dyn MemoryBackend, cycle: u64) {
        while let Some(head) = self.enqueue_fifo.front().copied() {
            match backend.try_enqueue(head.spec, cycle) {
                Ok(id) => {
                    if head.is_target {
                        if let Some(t) = self.get_mut(head.spec.txn.0) {
                            t.target_req_id = Some(id);
                        }
                    }
                    self.enqueue_fifo.pop_front();
                }
                Err(_) => break, // queue full: retry next cycle
            }
        }
    }

    /// Folds one completion into its transaction. Returns `None` for
    /// completions of unknown transactions (e.g. reissued responses of
    /// already-finished work under fault injection).
    pub fn retire(&mut self, done: &Completed, cycle: u64) -> Option<Retired> {
        let t = self.get_mut(done.txn.0)?;
        t.outstanding -= 1;
        let kind = t.kind;
        let mut wake = None;
        if t.target_req_id == Some(done.id) {
            if let Some(core) = t.waiting_core.take() {
                let at = done.data_done_at.max(cycle + 1);
                wake = Some(Wake {
                    core,
                    at,
                    latency: Some(at - t.planned_at),
                });
            }
        }
        if t.outstanding == 0 {
            if let Some(core) = t.waiting_core.take() {
                // Stash / tree-top / first-touch hits release here.
                debug_assert!(t.release_on_completion);
                let at = done.data_done_at.max(cycle + 1);
                wake = Some(Wake {
                    core,
                    at,
                    latency: Some(at - t.planned_at),
                });
            }
            self.remove(done.txn.0);
        }
        Some(Retired { kind, wake })
    }

    /// Kind of the oldest unfinished transaction (cycle attribution).
    #[must_use]
    pub fn oldest_kind(&self) -> Option<OpKind> {
        self.txns.front().and_then(|t| t.as_ref()).map(|t| t.kind)
    }

    /// Unfinished transactions currently tracked.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.live
    }

    /// Whether admitted requests still wait for queue space at the backend
    /// (the enqueue stage has work).
    #[must_use]
    pub fn has_unenqueued(&self) -> bool {
        !self.enqueue_fifo.is_empty()
    }

    /// Whether no transaction state remains (nothing tracked, nothing
    /// awaiting enqueue).
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.live == 0 && self.enqueue_fifo.is_empty()
    }

    /// Transactions admitted so far, by kind label.
    #[must_use]
    pub fn transactions_by_kind(&self) -> &BTreeMap<&'static str, u64> {
        &self.transactions_by_kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planned(kind: OpKind, n: usize, target: Option<usize>, core: Option<usize>) -> PlannedTxn {
        PlannedTxn {
            kind,
            requests: (0..n)
                .map(|i| (dram_sim::PhysAddr(i as u64 * 64), false))
                .collect(),
            target_index: target,
            waiting_core: core,
            release_on_completion: target.is_none(),
        }
    }

    #[test]
    fn degenerate_transaction_wakes_immediately() {
        let mut tr = TxnTracker::new();
        let (_, w) = tr.admit(planned(OpKind::ReadPath, 0, None, Some(3)), 10);
        assert_eq!(
            w,
            Some(Wake {
                core: 3,
                at: 11,
                latency: None
            })
        );
        assert_eq!(tr.inflight(), 0);
        assert!(tr.is_drained());
        assert_eq!(tr.transactions_by_kind()["read"], 1);
    }

    #[test]
    fn admission_preserves_transaction_order() {
        let mut tr = TxnTracker::new();
        assert!(tr
            .admit(planned(OpKind::ReadPath, 2, None, None), 0)
            .1
            .is_none());
        assert!(tr
            .admit(planned(OpKind::Eviction, 1, None, None), 0)
            .1
            .is_none());
        assert_eq!(tr.inflight(), 2);
        assert_eq!(tr.oldest_kind(), Some(OpKind::ReadPath));
        assert!(!tr.is_drained());
    }
}
