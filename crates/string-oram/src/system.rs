//! The full-system simulator: cores → ORAM controller → memory backend,
//! advanced in lockstep at memory-bus granularity.
//!
//! [`Simulation`] is the trace driver around one
//! [`crate::pipeline::PipelineCore`]: each cycle it releases and advances
//! the cores, dispatches their LLC misses into the core while the
//! transaction window has room (**Plan**), and steps the core through
//! **Enqueue → Schedule → Retire → Attribute** over a pluggable
//! [`mem_sched::MemoryBackend`]. The stage logic and its sequencing live in
//! [`crate::pipeline`]; this module owns only the cores, the request FIFO,
//! the measurement window and the label.

use std::collections::VecDeque;

use ring_oram::{ObliviousProtocol, RingOram};
use trace_synth::TraceRecord;

use crate::config::{ConfigError, SystemConfig};
use crate::cpu::{Core, CoreRequest};
use crate::pipeline::{build_report, CounterSnapshot, PipelineCore, Wake};
use crate::report::SimReport;

/// Error returned when a run exceeds its cycle budget (wedged or just too
/// slow for the limit given). Carries the partial [`SimReport`] at the
/// cutoff so the progress made is diagnosable rather than discarded.
#[derive(Debug, Clone)]
pub struct CycleLimitExceeded {
    /// The limit that was hit.
    pub limit: u64,
    /// The cycle at which the run stopped.
    pub cycle: u64,
    /// Everything measured up to the cutoff (respects any measurement
    /// window begun before the limit was hit).
    pub partial: Box<SimReport>,
}

impl std::fmt::Display for CycleLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation exceeded {} cycles ({} ORAM accesses planned, {} instructions retired \
             at cutoff)",
            self.limit, self.partial.oram_accesses, self.partial.instructions
        )
    }
}

impl std::error::Error for CycleLimitExceeded {}

/// Rejects the first trace record (lowest core, then lowest index) whose
/// block id is not below `limit`: from [`RingOram::PROGRAM_ID_BOUND`] up an
/// id does not fit the engines' slot words, and they panic on a program
/// access.
pub(crate) fn check_trace_block_ids(
    traces: &[Vec<TraceRecord>],
    limit: u64,
) -> Result<(), ConfigError> {
    for (core, trace) in traces.iter().enumerate() {
        if let Some(record) = trace.iter().position(|r| r.op.block >= limit) {
            return Err(ConfigError::Invalid(format!(
                "trace of core {core}, record {record}: block id {} is not below {limit}; \
                 the engines' slot words hold program ids below it",
                trace[record].op.block
            )));
        }
    }
    Ok(())
}

/// The integrated String ORAM system simulator: cores, ORAM controller and
/// memory backend advanced in lockstep.
///
/// # Examples
///
/// ```
/// use string_oram::{Simulation, SystemConfig, Scheme};
/// use trace_synth::{TraceGenerator, by_name};
///
/// let cfg = SystemConfig::test_small(Scheme::All);
/// let traces = (0..cfg.cores)
///     .map(|c| TraceGenerator::new(by_name("black").unwrap(), 1, c as u32).take_records(50))
///     .collect();
/// let mut sim = Simulation::new(cfg, traces);
/// let report = sim.run(10_000_000).unwrap();
/// assert!(report.oram_accesses >= 100);
/// ```
#[derive(Debug)]
pub struct Simulation {
    cfg: SystemConfig,
    cores: Vec<Core>,
    /// The five-stage pipeline the cores' misses run through.
    core: PipelineCore,
    /// FIFO of memory operations emitted by cores, awaiting ORAM planning.
    core_requests: VecDeque<CoreRequest>,
    /// Pending per-core completion times (one entry per in-flight miss
    /// whose data has a known arrival cycle).
    core_unblock_at: Vec<Vec<u64>>,
    /// The earliest cycle in `core_unblock_at` (`u64::MAX` when none is
    /// pending): the lists are scanned only once it is due.
    next_unblock: u64,
    /// Reusable buffer for the releases the pipeline hands back each cycle.
    wakes: Vec<Wake>,
    /// Snapshot delimiting the measurement window, if one was begun.
    measurement_start: Option<CounterSnapshot>,
    label: String,
}

impl Simulation {
    /// Builds a simulation of `cfg` running one trace per core.
    ///
    /// Thin wrapper over [`Self::try_new`] for callers that treat a bad
    /// configuration as a bug.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or the number of traces does not
    /// match `cfg.cores`.
    #[must_use]
    pub fn new(cfg: SystemConfig, traces: Vec<Vec<TraceRecord>>) -> Self {
        match Self::try_new(cfg, traces) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a simulation of `cfg` running one trace per core, reporting
    /// configuration problems instead of panicking.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Invalid`] if `cfg` fails validation (including the
    /// fault-injection cross-checks), or if a trace names a block id that is
    /// not a program id (`>= RingOram::PROGRAM_ID_BOUND`; traces are outside
    /// input), and [`ConfigError::TraceCount`] if the number of traces does
    /// not match `cfg.cores`.
    pub fn try_new(cfg: SystemConfig, traces: Vec<Vec<TraceRecord>>) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if cfg.shards != 1 {
            return Err(ConfigError::Invalid(format!(
                "Simulation is the single-instance pipeline; use ShardedSimulation for \
                 shards = {}",
                cfg.shards
            )));
        }
        if traces.len() != cfg.cores {
            return Err(ConfigError::TraceCount {
                expected: cfg.cores,
                got: traces.len(),
            });
        }
        check_trace_block_ids(&traces, RingOram::PROGRAM_ID_BOUND)?;
        let total_records: usize = traces.iter().map(Vec::len).sum();
        let cores: Vec<Core> = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| Core::with_mlp(i, t, cfg.core_mlp))
            .collect();
        let mut core = PipelineCore::build(&cfg)?;
        // Pre-size the per-access growth vectors so the steady state never
        // reallocates them mid-run.
        core.reserve_accesses(total_records);
        Ok(Self {
            core_unblock_at: vec![Vec::new(); cfg.cores],
            next_unblock: u64::MAX,
            // At most one release per outstanding miss.
            wakes: Vec::with_capacity(cfg.cores * cfg.core_mlp),
            cfg,
            cores,
            core,
            core_requests: VecDeque::new(),
            measurement_start: None,
            label: String::new(),
        })
    }

    /// Sets the report label (workload / scheme).
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The (data) protocol engine, for protocol-agnostic inspection in
    /// tests and harnesses (any of the four protocol design points).
    #[must_use]
    pub fn protocol(&self) -> &dyn ObliviousProtocol {
        self.core.protocol()
    }

    /// Every tier's engine, data ORAM first (see
    /// [`PipelineCore::tiers`]).
    pub fn tiers(&self) -> impl ExactSizeIterator<Item = &dyn ObliviousProtocol> + '_ {
        self.core.tiers()
    }

    /// Program accesses planned so far (cheap mid-run progress probe).
    #[must_use]
    pub fn oram_accesses(&self) -> u64 {
        self.core.accesses()
    }

    /// Running FNV-1a digest of the planned access sequence: transaction
    /// kinds, physical addresses and directions, in order. Backends cannot
    /// influence it — two backends driving the same trace must agree (the
    /// `backend_differential` test's oracle).
    #[must_use]
    pub fn access_digest(&self) -> u64 {
        self.core.access_digest()
    }

    /// Memory-bus cycles elapsed so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.core.cycles()
    }

    /// Whether every core finished its trace and all memory work drained.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.cores.iter().all(Core::is_done)
            && self.core_requests.is_empty()
            && self.core.is_drained()
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// [`CycleLimitExceeded`] if completion needs more than `max_cycles`;
    /// the error carries the partial report at the cutoff.
    pub fn run(&mut self, max_cycles: u64) -> Result<SimReport, CycleLimitExceeded> {
        while !self.is_finished() {
            if self.cycles() >= max_cycles {
                return Err(CycleLimitExceeded {
                    limit: max_cycles,
                    cycle: self.cycles(),
                    partial: Box::new(self.report()),
                });
            }
            self.step();
        }
        Ok(self.report())
    }

    /// The pipeline's memory backend, for tests that wrap it (call before
    /// the first step).
    #[cfg(test)]
    pub(crate) fn backend_mut(&mut self) -> &mut Box<dyn mem_sched::MemoryBackend> {
        self.core.backend_mut()
    }

    /// Advances the system by one memory-bus cycle: the cores, then the
    /// five pipeline stages (plan here, the rest in the pipeline core).
    pub fn step(&mut self) {
        let cycle = self.core.cycles();

        // 0. Release cores whose data arrived.
        if self.next_unblock <= cycle {
            self.next_unblock = u64::MAX;
            for core in 0..self.cores.len() {
                let pending = &mut self.core_unblock_at[core];
                let before = pending.len();
                pending.retain(|&at| at > cycle);
                for _ in pending.len()..before {
                    self.cores[core].complete_memory_op();
                }
                let next = pending.iter().copied().min().unwrap_or(u64::MAX);
                self.next_unblock = self.next_unblock.min(next);
            }
        }

        // 0b. Advance cores; collect new LLC misses.
        let budget = self.cfg.instructions_per_mem_cycle();
        for core in &mut self.cores {
            if let Some(req) = core.tick(budget) {
                self.core_requests.push_back(req);
            }
        }

        // 1. Plan: expand accesses while the transaction window has room
        //    (keeps transaction i+1 visible for PB).
        while self.core.inflight() < self.cfg.max_inflight_txns {
            let Some(req) = self.core_requests.pop_front() else {
                break;
            };
            if let Some(wake) = self.core.dispatch_real(req.core, req.block, req.is_write) {
                self.schedule_unblock(wake);
            }
        }

        // 2-5. Enqueue, schedule, retire, attribute.
        self.core.step(&mut self.wakes);
        for i in 0..self.wakes.len() {
            self.schedule_unblock(self.wakes[i]);
        }
        self.wakes.clear();
    }

    /// Files `wake`'s release under its core, lowering the earliest pending
    /// cycle.
    fn schedule_unblock(&mut self, wake: Wake) {
        self.core_unblock_at[wake.core].push(wake.at);
        self.next_unblock = self.next_unblock.min(wake.at);
    }

    /// Conformance violations found so far (empty when checking is off —
    /// or when the simulated machine is behaving).
    #[must_use]
    pub fn violations(&self) -> &[sim_verify::Violation] {
        self.core.violations()
    }

    /// The scheduling-policy auditor riding on this run's command stream
    /// (`None` when stream checking is off). Its canonical digest is the
    /// policy-equivalence oracle: two runs with equal digests and zero
    /// violations issued the same transaction-ordered data-command
    /// sequence.
    #[must_use]
    pub fn policy_auditor(&self) -> Option<&sim_verify::PolicyAuditor> {
        self.core.policy_auditor()
    }

    /// The value referee checking every program access's value (`None`
    /// when checking is off).
    #[must_use]
    pub fn mirror_oracle(&self) -> Option<&sim_verify::MirrorOracle> {
        self.core.mirror_oracle()
    }

    /// Raw program read-path latency samples recorded so far, in cycles
    /// (retire order; a measurement window is a suffix of these). Read-only
    /// inspection: the sharded merge and differential tests use it.
    #[must_use]
    pub fn read_latency_samples(&self) -> &[u64] {
        self.core.read_latency_samples()
    }

    /// Freezes every counter in the system into one snapshot (also the
    /// sharded engine's per-shard merge input): the pipeline's counters
    /// plus the cores' retired instructions. Read-only inspection, like
    /// [`Self::read_latency_samples`].
    #[must_use]
    pub fn capture(&self) -> CounterSnapshot {
        CounterSnapshot {
            instructions: self.cores.iter().map(Core::instructions_retired).sum(),
            ..self.core.capture()
        }
    }

    /// Starts the measurement window: everything simulated so far becomes
    /// warm-up and is excluded from [`Self::report`]'s counters and rates.
    /// May be called at most once, typically after stepping through a
    /// warm-up prefix of the trace.
    ///
    /// # Panics
    ///
    /// Panics if a measurement window was already begun.
    pub fn begin_measurement(&mut self) {
        assert!(
            self.measurement_start.is_none(),
            "measurement window already begun"
        );
        self.measurement_start = Some(self.capture());
    }

    /// Builds the final report (also callable mid-run for progress). When a
    /// measurement window is active, every counter and rate covers only the
    /// window (see [`Self::begin_measurement`]).
    #[must_use]
    pub fn report(&self) -> SimReport {
        let now = self.capture();
        let (window, latency_start) = match &self.measurement_start {
            Some(start) => (now.delta(start), start.read_latency_idx),
            None => (now, 0),
        };
        let latencies = &self.read_latency_samples()[latency_start..];
        let violations = self.violations().iter().map(ToString::to_string).collect();
        build_report(
            &self.cfg,
            self.label.clone(),
            &window,
            latencies,
            violations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use ring_oram::OpKind;
    use trace_synth::by_name;
    use trace_synth::TraceGenerator;

    fn traces(cfg: &SystemConfig, n: usize, workload: &str) -> Vec<Vec<TraceRecord>> {
        (0..cfg.cores)
            .map(|c| TraceGenerator::new(by_name(workload).unwrap(), 11, c as u32).take_records(n))
            .collect()
    }

    fn run(scheme: Scheme, n: usize) -> SimReport {
        let cfg = SystemConfig::test_small(scheme);
        let t = traces(&cfg, n, "black");
        let mut sim = Simulation::new(cfg, t);
        sim.run(50_000_000).expect("run completes")
    }

    #[test]
    fn baseline_completes_and_accounts_every_cycle() {
        let r = run(Scheme::Baseline, 60);
        assert_eq!(r.oram_accesses, 120); // 2 cores x 60 records
        assert_eq!(r.cycles_by_kind.total(), r.total_cycles);
        assert!(r.total_cycles > 0);
        assert!(r.requests_completed > 0);
        assert!(r.instructions > 0);
    }

    #[test]
    fn read_paths_conflict_more_than_evictions() {
        // The paper's Fig. 5(b): selective reads defeat the subtree layout,
        // full-path evictions exploit it.
        let r = run(Scheme::Baseline, 150);
        let read = r.row_class(OpKind::ReadPath);
        let evict = r.row_class(OpKind::Eviction);
        assert!(read.total() > 0 && evict.total() > 0);
        assert!(
            read.conflict_rate() > evict.conflict_rate(),
            "read {:.2} vs evict {:.2}",
            read.conflict_rate(),
            evict.conflict_rate()
        );
    }

    #[test]
    fn pb_is_faster_than_baseline() {
        let base = run(Scheme::Baseline, 150);
        let pb = run(Scheme::Pb, 150);
        assert!(
            pb.total_cycles < base.total_cycles,
            "PB {} vs baseline {}",
            pb.total_cycles,
            base.total_cycles
        );
        assert!(pb.early_precharge_fraction > 0.0);
        assert!(pb.early_activate_fraction > 0.0);
        assert_eq!(base.early_precharge_fraction, 0.0);
    }

    #[test]
    fn cb_is_faster_than_baseline() {
        let base = run(Scheme::Baseline, 150);
        let cb = run(Scheme::Cb, 150);
        assert!(
            cb.total_cycles < base.total_cycles,
            "CB {} vs baseline {}",
            cb.total_cycles,
            base.total_cycles
        );
        assert!(cb.protocol.greens_fetched > 0);
    }

    #[test]
    fn all_is_fastest() {
        let base = run(Scheme::Baseline, 150);
        let cb = run(Scheme::Cb, 150);
        let pb = run(Scheme::Pb, 150);
        let all = run(Scheme::All, 150);
        assert!(all.total_cycles < base.total_cycles);
        assert!(all.total_cycles <= cb.total_cycles);
        assert!(all.total_cycles <= pb.total_cycles);
    }

    #[test]
    fn pb_reduces_bank_idle_time() {
        let base = run(Scheme::Baseline, 150);
        let pb = run(Scheme::Pb, 150);
        assert!(
            pb.bank_idle_proportion < base.bank_idle_proportion,
            "PB idle {:.3} vs baseline {:.3}",
            pb.bank_idle_proportion,
            base.bank_idle_proportion
        );
    }

    #[test]
    fn pb_preserves_row_class_counts() {
        // The security argument: PB changes *when* PRE/ACT go out, never
        // how many requests conflict.
        let base = run(Scheme::Baseline, 100);
        let pb = run(Scheme::Pb, 100);
        for kind in ["read", "evict"] {
            let b = base
                .row_class_by_kind
                .get(kind)
                .copied()
                .unwrap_or_default();
            let p = pb.row_class_by_kind.get(kind).copied().unwrap_or_default();
            assert_eq!(b.total(), p.total(), "{kind}: request counts differ");
        }
    }

    #[test]
    fn deterministic_runs() {
        let a = run(Scheme::All, 60);
        let b = run(Scheme::All, 60);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.requests_completed, b.requests_completed);
    }

    #[test]
    fn eviction_fires_at_the_paper_rate() {
        let r = run(Scheme::Baseline, 160);
        let evicts = *r.transactions_by_kind.get("evict").unwrap_or(&0);
        let reads = *r.transactions_by_kind.get("read").unwrap_or(&0);
        // One eviction per A = 8 read paths (within one in-flight access).
        let expected = reads / 8;
        assert!(
            (evicts as i64 - expected as i64).unsigned_abs() <= 1,
            "evictions {evicts} vs expected {expected}"
        );
    }

    #[test]
    fn recursion_generates_extra_transactions_and_slows_down() {
        let flat = run(Scheme::Baseline, 60);
        let mut cfg = SystemConfig::test_small(Scheme::Baseline);
        cfg.recursion = Some(ring_oram::RecursiveConfig {
            tracked_blocks: 1 << 12,
            positions_per_block: 8,
            max_onchip_entries: 1 << 6,
        });
        let t = traces(&cfg, 60, "black");
        let mut sim = Simulation::new(cfg, t);
        let rec = sim.run(100_000_000).expect("completes");
        assert_eq!(sim.tiers().len(), 3);
        sim.tiers().for_each(ObliviousProtocol::check_invariants);
        assert_eq!(rec.oram_accesses, flat.oram_accesses);
        assert!(
            rec.transactions_by_kind["read"] > flat.transactions_by_kind["read"],
            "map ORAM read paths must appear"
        );
        assert!(
            rec.total_cycles > flat.total_cycles,
            "recursion costs time: {} vs {}",
            rec.total_cycles,
            flat.total_cycles
        );
    }

    #[test]
    fn measurement_window_excludes_warmup() {
        let cfg = SystemConfig::test_small(Scheme::All);
        let t = traces(&cfg, 120, "black");
        let mut sim = Simulation::new(cfg, t);
        // Warm up through half the accesses, then measure the rest.
        while sim.oram_accesses() < 120 && !sim.is_finished() {
            sim.step();
        }
        // A step may plan more than one access; capture the actual count.
        let warmed = sim.oram_accesses();
        sim.begin_measurement();
        let at_start = sim.report();
        assert_eq!(at_start.oram_accesses, 0, "window starts empty");
        assert_eq!(at_start.total_cycles, 0);
        assert_eq!(at_start.requests_completed, 0);
        while !sim.is_finished() {
            sim.step();
        }
        let r = sim.report();
        assert_eq!(r.oram_accesses, 240 - warmed, "rest measured");
        assert!(r.total_cycles > 0);
        assert_eq!(r.cycles_by_kind.total(), r.total_cycles);
        let classified: u64 = r.row_class_by_kind.values().map(|c| c.total()).sum();
        assert_eq!(classified, r.requests_completed);
        assert!(r.instructions > 0);
        assert!(r.energy.total_uj() > 0.0);
        assert!(r.bank_idle_proportion > 0.0 && r.bank_idle_proportion < 1.0);
    }

    #[test]
    #[should_panic(expected = "already begun")]
    fn measurement_window_is_single_use() {
        let cfg = SystemConfig::test_small(Scheme::Baseline);
        let t = traces(&cfg, 10, "black");
        let mut sim = Simulation::new(cfg, t);
        sim.begin_measurement();
        sim.begin_measurement();
    }

    #[test]
    fn cycle_limit_carries_partial_progress() {
        let cfg = SystemConfig::test_small(Scheme::Baseline);
        let t = traces(&cfg, 200, "black");
        let mut sim = Simulation::new(cfg, t);
        let err = sim.run(10).unwrap_err();
        assert_eq!(err.limit, 10);
        assert_eq!(err.cycle, 10);
        assert_eq!(
            err.partial.total_cycles, 10,
            "partial report covers the prefix"
        );
        assert!(err.to_string().contains("exceeded 10 cycles"));
        // The run is resumable: the limit check is non-destructive.
        let r = sim.run(50_000_000).expect("finishes with a larger budget");
        assert_eq!(r.oram_accesses, 400);
    }

    #[test]
    fn functional_backend_runs_and_is_checked() {
        let mut cfg = SystemConfig::test_small(Scheme::All);
        cfg.backend = crate::config::BackendKind::FastFunctional;
        let t = traces(&cfg, 60, "black");
        let mut sim = Simulation::new(cfg, t);
        let r = sim.run(50_000_000).expect("completes");
        assert_eq!(r.oram_accesses, 120);
        assert_eq!(r.cycles_by_kind.total(), r.total_cycles);
        assert!(r.requests_completed > 0);
        // The txn-order oracle ran (test_small enables verify) and found
        // nothing; DRAM-level metrics are zero by contract.
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.energy.total_uj(), 0.0);
        assert_eq!(r.bank_idle_proportion, 0.0);
    }
}
