//! The fast functional memory backend.
//!
//! A row-aware latency model with **no per-cycle DRAM state**: each request
//! is classified against a per-bank open-row table (hit / miss / conflict,
//! the same classification the cycle-accurate scheduler makes at
//! first-command time) and completes after a fixed per-class latency. There
//! is no command-bus, bank-timing or refresh machinery, which makes the
//! backend several times faster per simulated cycle — the intended
//! substrate for long-trace and protocol-only runs where ORAM-level
//! behaviour (access sequence, stash dynamics, block movement) matters but
//! JEDEC-exact timing does not.
//!
//! Fidelity contract (checked by the backend-differential test in
//! `string-oram`): driven by the same transaction stream, the functional
//! backend observes the **identical ORAM access sequence** as the
//! cycle-accurate backend — only per-request latencies differ. Data
//! commands complete strictly in transaction order, so `sim-verify`'s
//! transaction-order oracle attaches unchanged; the JEDEC shadow-timing
//! checker does not apply (there are no ACT/PRE commands to check).

use dram_sim::timing::TimingParams;
use dram_sim::{AddressMapping, DramCommand, DramGeometry, DramLocation, DramModule};

use crate::backend::{BackendSnapshot, MemoryBackend};
use crate::controller::CommandEvent;
use crate::queue::QueueFull;
use crate::request::{Completed, RequestSpec, RowClass, TxnId};
use crate::stats::SchedulerStats;
use std::collections::VecDeque;

/// Per-class request latencies of the functional model, in memory cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalTiming {
    /// Latency of a row-buffer hit (CAS + burst).
    pub hit_latency: u64,
    /// Latency of a row-buffer miss (ACT + CAS + burst).
    pub miss_latency: u64,
    /// Latency of a row-buffer conflict (PRE + ACT + CAS + burst).
    pub conflict_latency: u64,
    /// Minimum gap between two data commands on one channel (bus
    /// occupancy); must be at least 1.
    pub bus_gap: u64,
}

impl FunctionalTiming {
    /// Derives the per-class latencies from JEDEC timing parameters, so the
    /// functional model stays anchored to the configured device even though
    /// it does not simulate it.
    #[must_use]
    pub fn from_timing(t: &TimingParams) -> Self {
        Self {
            hit_latency: t.cl + t.t_burst,
            miss_latency: t.t_rcd + t.cl + t.t_burst,
            conflict_latency: t.t_rp + t.t_rcd + t.cl + t.t_burst,
            bus_gap: t.t_ccd.max(t.t_burst).max(1),
        }
    }
}

/// A request whose issue cycle is already decided, parked until the
/// simulation clock reaches it.
///
/// Because requests are enqueued in strict transaction order (the pipeline's
/// enqueue stage blocks on its FIFO head), every request's issue cycle is a
/// pure function of earlier arrivals and can be computed once at enqueue
/// time. Ticking then only *releases* due requests — O(1) when nothing is
/// due — instead of rescanning the front transaction every cycle.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    issue_at: u64,
    id: u64,
    txn: TxnId,
    loc: DramLocation,
    is_write: bool,
    arrival: u64,
    class: RowClass,
    latency: u64,
}

/// The functional backend: transaction-ordered service over an open-row
/// table. See the module docs for the model and its fidelity contract.
#[derive(Debug)]
pub struct FunctionalBackend {
    mapping: AddressMapping,
    geometry: DramGeometry,
    timing: FunctionalTiming,
    /// Scheduled-but-unreleased requests per channel. Per-channel issue
    /// cycles are monotone in enqueue order, so each deque stays sorted by
    /// construction; the transaction gate additionally guarantees that all
    /// requests due at one tick belong to a single transaction, so
    /// releasing channel-by-channel keeps the event stream
    /// transaction-monotone.
    waiting: Vec<VecDeque<Scheduled>>,
    /// Total scheduled-but-unreleased requests across all channels.
    waiting_len: usize,
    /// Earliest issue cycle among the waiting requests (`u64::MAX` when
    /// none waits): lowered on enqueue, recomputed from the channel fronts
    /// after a release, so a tick before it is a compare.
    next_due: u64,
    /// Open row per bank, indexed by [`DramLocation::bank_key`].
    open_rows: Vec<Option<u64>>,
    /// First cycle at which each channel's data bus is free again.
    chan_free_at: Vec<u64>,
    /// Transaction of the most recently enqueued request; a request of a
    /// *new* transaction may issue no earlier than one cycle after the
    /// previous transaction's last data command (the transaction barrier).
    cur_txn: Option<TxnId>,
    /// Earliest issue cycle permitted for the current transaction.
    txn_gate: u64,
    /// Latest issue cycle handed out so far (across all channels).
    max_issue: u64,
    /// Queued requests per channel and direction (`[reads, writes]`), for
    /// capacity accounting compatible with the cycle-accurate queues.
    dir_counts: Vec<[usize; 2]>,
    queue_capacity: usize,
    next_id: u64,
    completed: Vec<Completed>,
    stats: SchedulerStats,
    command_trace: Option<Vec<CommandEvent>>,
}

impl FunctionalBackend {
    /// Creates a functional backend for `geometry` with `queue_capacity`
    /// entries per direction per channel (matching the cycle-accurate
    /// controller's queue shape).
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails validation.
    #[must_use]
    pub fn new(
        geometry: DramGeometry,
        mapping: AddressMapping,
        timing: FunctionalTiming,
        queue_capacity: usize,
    ) -> Self {
        if let Err(e) = geometry.validate() {
            panic!("invalid DramGeometry: {e}");
        }
        let channels = geometry.channels as usize;
        Self {
            open_rows: vec![None; geometry.total_banks() as usize],
            chan_free_at: vec![0; channels],
            dir_counts: vec![[0, 0]; channels],
            geometry,
            mapping,
            timing,
            waiting: vec![VecDeque::new(); channels],
            waiting_len: 0,
            next_due: u64::MAX,
            cur_txn: None,
            txn_gate: 0,
            max_issue: 0,
            queue_capacity,
            next_id: 0,
            completed: Vec::new(),
            stats: SchedulerStats {
                per_channel_requests: vec![0; channels],
                ..SchedulerStats::default()
            },
            command_trace: None,
        }
    }

    /// The per-class latencies in force.
    #[must_use]
    pub fn timing(&self) -> &FunctionalTiming {
        &self.timing
    }

    /// Releases one scheduled request at its issue cycle: frees the queue
    /// slot, emits the data command and the completion.
    fn release(&mut self, req: Scheduled) {
        let ch = req.loc.channel as usize;
        self.dir_counts[ch][usize::from(req.is_write)] -= 1;
        if let Some(trace) = &mut self.command_trace {
            let cmd = if req.is_write {
                DramCommand::write(req.loc)
            } else {
                DramCommand::read(req.loc)
            };
            trace.push(CommandEvent {
                cycle: req.issue_at,
                cmd,
                txn: Some(req.txn),
            });
        }
        let completed = Completed {
            id: req.id,
            txn: req.txn,
            is_write: req.is_write,
            arrival: req.arrival,
            first_cmd_at: req.issue_at,
            issue_at: req.issue_at,
            data_done_at: req.issue_at + req.latency,
            class: req.class,
        };
        self.stats.record_completion(&completed);
        self.stats.per_channel_requests[ch] += 1;
        self.completed.push(completed);
    }
}

impl MemoryBackend for FunctionalBackend {
    fn try_enqueue(&mut self, spec: RequestSpec, cycle: u64) -> Result<u64, QueueFull> {
        let loc = self.mapping.decode(spec.addr);
        let ch = loc.channel as usize;
        let dir = usize::from(spec.is_write);
        if self.dir_counts[ch][dir] >= self.queue_capacity {
            return Err(QueueFull);
        }
        assert!(
            self.cur_txn.is_none_or(|last| last <= spec.txn),
            "requests must be enqueued in transaction order"
        );
        let id = self.next_id;
        self.next_id += 1;
        self.dir_counts[ch][dir] += 1;
        // Transaction barrier: all of transaction i's data commands issue
        // before any of transaction i+1's, the same barrier the
        // transaction-based scheduler enforces. Strict enqueue order means
        // a new transaction's gate is final the moment its first request
        // arrives.
        if self.cur_txn != Some(spec.txn) {
            if self.cur_txn.is_some() {
                self.txn_gate = self.max_issue + 1;
            }
            self.cur_txn = Some(spec.txn);
        }
        // Within the transaction, channels proceed independently as their
        // buses free up.
        let issue_at = cycle.max(self.txn_gate).max(self.chan_free_at[ch]);
        self.chan_free_at[ch] = issue_at + self.timing.bus_gap;
        self.max_issue = self.max_issue.max(issue_at);
        // Classify against the open-row table now: per bank, issue order
        // equals enqueue order (a bank lives on one channel and per-channel
        // issue cycles are monotone in enqueue order).
        let key = loc.bank_key(&self.geometry) as usize;
        let class = match self.open_rows[key] {
            Some(row) if row == loc.row => RowClass::Hit,
            Some(_) => {
                self.stats.precharges += 1;
                self.stats.activates += 1;
                RowClass::Conflict
            }
            None => {
                self.stats.activates += 1;
                RowClass::Miss
            }
        };
        self.open_rows[key] = Some(loc.row);
        let latency = match class {
            RowClass::Hit => self.timing.hit_latency,
            RowClass::Miss => self.timing.miss_latency,
            RowClass::Conflict => self.timing.conflict_latency,
        };
        self.waiting[ch].push_back(Scheduled {
            issue_at,
            id,
            txn: spec.txn,
            loc,
            is_write: spec.is_write,
            arrival: cycle,
            class,
            latency,
        });
        self.waiting_len += 1;
        self.next_due = self.next_due.min(issue_at);
        Ok(id)
    }

    fn tick(&mut self, cycle: u64) {
        self.stats.ticks += 1;
        self.stats.queue_occupancy_integral += self.waiting_len as u64;
        if cycle < self.next_due {
            return;
        }
        let mut next_due = u64::MAX;
        for ch in 0..self.waiting.len() {
            while let Some(&req) = self.waiting[ch].front() {
                if req.issue_at > cycle {
                    next_due = next_due.min(req.issue_at);
                    break;
                }
                self.waiting[ch].pop_front();
                self.waiting_len -= 1;
                self.release(req);
            }
        }
        self.next_due = next_due;
    }

    fn next_event_cycle(&self, from: u64) -> u64 {
        self.next_due.max(from)
    }

    fn drain_completed(&mut self) -> Vec<Completed> {
        std::mem::take(&mut self.completed)
    }

    fn drain_completed_into(&mut self, out: &mut Vec<Completed>) {
        out.append(&mut self.completed);
    }

    fn pending(&self) -> usize {
        self.waiting_len
    }

    fn enable_command_trace(&mut self) {
        self.command_trace = Some(Vec::new());
    }

    fn take_command_events(&mut self) -> Vec<CommandEvent> {
        match &mut self.command_trace {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    fn drain_command_events_into(&mut self, out: &mut Vec<CommandEvent>) {
        if let Some(t) = &mut self.command_trace {
            out.append(t);
        }
    }

    fn dram_module(&self) -> Option<&DramModule> {
        None
    }

    fn snapshot(&self) -> BackendSnapshot {
        BackendSnapshot {
            sched: self.stats.clone(),
            dram: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::PhysAddr;

    fn backend() -> FunctionalBackend {
        let geometry = DramGeometry::test_small();
        let mapping = AddressMapping::hpca_default(&geometry);
        let timing = FunctionalTiming::from_timing(&TimingParams::test_fast());
        FunctionalBackend::new(geometry, mapping, timing, 16)
    }

    fn addr(b: &FunctionalBackend, channel: u32, bank: u32, row: u64, column: u32) -> PhysAddr {
        b.mapping.encode(&DramLocation {
            channel,
            rank: 0,
            bank,
            row,
            column,
        })
    }

    fn run_until_done(b: &mut FunctionalBackend, start: u64, limit: u64) -> Vec<Completed> {
        let mut out = Vec::new();
        let mut cycle = start;
        while b.pending() > 0 {
            MemoryBackend::tick(b, cycle);
            out.extend(b.drain_completed());
            cycle += 1;
            assert!(cycle < start + limit, "functional backend wedged");
        }
        out
    }

    #[test]
    fn classifies_hit_miss_conflict() {
        let mut b = backend();
        for (row, col) in [(3, 0), (3, 1), (9, 0)] {
            b.try_enqueue(
                RequestSpec {
                    addr: addr(&b, 0, 0, row, col),
                    is_write: false,
                    txn: TxnId(0),
                },
                0,
            )
            .unwrap();
        }
        let done = run_until_done(&mut b, 0, 200);
        assert_eq!(done.len(), 3);
        assert_eq!(done[0].class, RowClass::Miss, "cold bank");
        assert_eq!(done[1].class, RowClass::Hit, "same row");
        assert_eq!(done[2].class, RowClass::Conflict, "other row");
        assert!(done[2].data_done_at - done[2].issue_at > done[1].data_done_at - done[1].issue_at);
    }

    #[test]
    #[should_panic(expected = "enqueued in transaction order")]
    fn an_older_transaction_after_a_newer_one_panics_in_every_build() {
        let mut b = backend();
        for (channel, txn) in [(0, 5), (1, 4)] {
            let spec = RequestSpec {
                addr: addr(&b, channel, 0, 1, 0),
                is_write: false,
                txn: TxnId(txn),
            };
            let _ = b.try_enqueue(spec, 0);
        }
    }

    #[test]
    fn transaction_barrier_enforced() {
        let mut b = backend();
        // txn 1 targets a free channel but must still wait for txn 0.
        b.try_enqueue(
            RequestSpec {
                addr: addr(&b, 0, 0, 1, 0),
                is_write: false,
                txn: TxnId(0),
            },
            0,
        )
        .unwrap();
        b.try_enqueue(
            RequestSpec {
                addr: addr(&b, 1, 0, 5, 0),
                is_write: false,
                txn: TxnId(1),
            },
            0,
        )
        .unwrap();
        let done = run_until_done(&mut b, 0, 200);
        let t0 = done.iter().find(|d| d.txn == TxnId(0)).unwrap();
        let t1 = done.iter().find(|d| d.txn == TxnId(1)).unwrap();
        assert!(t0.issue_at < t1.issue_at, "txn 0 data before txn 1 data");
    }

    #[test]
    fn channel_bus_gap_spreads_same_txn_requests() {
        let mut b = backend();
        for col in 0..3 {
            b.try_enqueue(
                RequestSpec {
                    addr: addr(&b, 0, 0, 3, col),
                    is_write: false,
                    txn: TxnId(0),
                },
                0,
            )
            .unwrap();
        }
        let done = run_until_done(&mut b, 0, 200);
        let gap = b.timing().bus_gap;
        assert_eq!(done[1].issue_at - done[0].issue_at, gap);
        assert_eq!(done[2].issue_at - done[1].issue_at, gap);
    }

    #[test]
    fn capacity_enforced_per_direction() {
        let mut b = backend();
        let a = addr(&b, 0, 0, 1, 0);
        for i in 0..16 {
            b.try_enqueue(
                RequestSpec {
                    addr: a,
                    is_write: false,
                    txn: TxnId(i),
                },
                0,
            )
            .unwrap();
        }
        let mut offer = |is_write| {
            let txn = TxnId(99);
            b.try_enqueue(
                RequestSpec {
                    addr: a,
                    is_write,
                    txn,
                },
                0,
            )
        };
        assert_eq!(offer(false), Err(QueueFull));
        assert!(offer(true).is_ok(), "writes have their own capacity");
    }

    #[test]
    fn command_trace_has_data_commands_in_txn_order() {
        let mut b = backend();
        MemoryBackend::enable_command_trace(&mut b);
        for i in 0..4u64 {
            b.try_enqueue(
                RequestSpec {
                    addr: addr(&b, (i % 2) as u32, 0, i, 0),
                    is_write: i % 2 == 1,
                    txn: TxnId(i),
                },
                0,
            )
            .unwrap();
        }
        run_until_done(&mut b, 0, 500);
        let events = b.take_command_events();
        assert_eq!(events.len(), 4, "one data command per request");
        for pair in events.windows(2) {
            assert!(pair[0].txn <= pair[1].txn, "transaction order violated");
        }
    }

    /// `next_event_cycle` against the definition: every tick before the
    /// answer completes nothing, the tick at the answer completes something,
    /// and an empty backend is quiet for good.
    #[test]
    fn next_event_cycle_is_the_next_release() {
        let mut b = backend();
        assert_eq!(b.next_event_cycle(7), u64::MAX, "nothing waits");
        for i in 0..6u64 {
            b.try_enqueue(
                RequestSpec {
                    addr: addr(&b, (i % 2) as u32, (i % 3) as u32, i, 0),
                    is_write: i % 2 == 1,
                    txn: TxnId(i / 2),
                },
                3,
            )
            .unwrap();
        }
        let mut cycle = 3;
        let mut released = 0;
        while b.pending() > 0 {
            let due = b.next_event_cycle(cycle);
            assert!(due >= cycle && due < 500, "due {due} at {cycle}");
            for quiet in cycle..due {
                MemoryBackend::tick(&mut b, quiet);
                assert!(b.drain_completed().is_empty(), "release before {due}");
            }
            MemoryBackend::tick(&mut b, due);
            let done = b.drain_completed();
            assert!(!done.is_empty(), "nothing released at {due}");
            assert!(done.iter().all(|d| d.issue_at == due));
            released += done.len();
            cycle = due + 1;
        }
        assert_eq!(released, 6);
        assert_eq!(b.next_event_cycle(cycle), u64::MAX);
        // Every tick was made, quiet or not.
        assert_eq!(MemoryBackend::snapshot(&b).sched.ticks, cycle - 3);
    }

    #[test]
    fn snapshot_has_no_dram_layer() {
        let b = backend();
        let snap = MemoryBackend::snapshot(&b);
        assert!(snap.dram.is_none());
        assert!(MemoryBackend::dram_module(&b).is_none());
    }
}
