//! The sharded parallel simulation engine with deterministic merge.
//!
//! [`ShardedSimulation`] partitions the block address space into `N`
//! independent shard instances (a subtree forest; see
//! [`ring_oram::sharding`]), each owning its own five-stage pipeline,
//! [`mem_sched::MemoryBackend`] and seeded `oram-rng` stream, and runs them
//! on dedicated `std::thread`s. Everything observable is merged back
//! **deterministically**:
//!
//! * results are joined and combined in **shard-id order**, never arrival
//!   order, so thread interleaving cannot change the merged report;
//! * every shard's configuration comes from
//!   [`SystemConfig::shard_configs`]: a seed derived from the master seed
//!   per shard id — except for `N = 1`, which passes the master seed
//!   through unchanged so the sharded engine is *bit-identical* to the
//!   unsharded [`Simulation`];
//! * the merged access digest is an order-independent fold of the per-shard
//!   FNV digests: `XOR` over `digest_s.rotate_left(s)` (the rotation keeps
//!   the fold sensitive to which shard produced which digest, the `XOR`
//!   keeps it independent of combination order);
//! * merged counters are exact sums of per-shard counters (means are
//!   recomputed as ratios of summed numerators and denominators, and
//!   latency percentiles from the pooled raw samples — never averages of
//!   averages).
//!
//! `sim-verify` attaches at both granularities: each shard runs its own
//! stream checkers and ORAM audit per its `VerifyConfig`, and the merge
//! point runs the global cross-shard invariant
//! ([`sim_verify::ShardResidencyAuditor`]): no block resident in two
//! shards, no block resident in the wrong shard.

use ring_oram::sharding::ShardMap;
use trace_synth::TraceRecord;

use crate::config::{ConfigError, FaultConfig, SystemConfig};
use crate::pipeline::build_merged_report;
use crate::report::SimReport;
use crate::system::{check_trace_block_ids, CycleLimitExceeded, Simulation};

/// Pads its contents to a 128-byte alignment boundary — two cache lines,
/// covering the adjacent-line prefetcher on common x86 parts — so values
/// stored side by side in a `Vec` never share a cache line.
///
/// The sharded engine stores each shard pipeline in one of these slots:
/// shard worker threads hammer their own pipeline's hot counters every
/// simulated cycle, and false sharing across slot boundaries would charge
/// every shard's writes to its neighbours' cache lines. The wrapper is
/// transparent via `Deref`/`DerefMut`, so shard accessors still read as
/// `Simulation` method calls.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CacheAligned<T>(pub T);

impl<T> std::ops::Deref for CacheAligned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CacheAligned<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// `N` independent shard pipelines plus the deterministic merge stage.
///
/// # Examples
///
/// ```
/// use string_oram::{ShardedSimulation, SystemConfig, Scheme};
/// use trace_synth::{TraceGenerator, by_name};
///
/// let mut cfg = SystemConfig::test_small(Scheme::All);
/// cfg.shards = 2;
/// let traces = (0..cfg.cores)
///     .map(|c| TraceGenerator::new(by_name("black").unwrap(), 1, c as u32).take_records(50))
///     .collect();
/// let mut sim = ShardedSimulation::new(cfg, traces);
/// let report = sim.run(10_000_000).unwrap();
/// assert_eq!(report.shards, 2);
/// assert_eq!(report.oram_accesses, 100);
/// ```
#[derive(Debug)]
pub struct ShardedSimulation {
    /// The master configuration (`cfg.shards = N`).
    cfg: SystemConfig,
    map: ShardMap,
    /// One single-instance pipeline per shard, in shard-id order, each in
    /// its own cache-line-aligned slot (see [`CacheAligned`]).
    shards: Vec<CacheAligned<Simulation>>,
    label: String,
}

impl ShardedSimulation {
    /// Builds a sharded simulation of `cfg` (with `cfg.shards` instances)
    /// running one trace per core.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or the number of traces does not
    /// match `cfg.cores` (see [`Self::try_new`]).
    #[must_use]
    pub fn new(cfg: SystemConfig, traces: Vec<Vec<TraceRecord>>) -> Self {
        match Self::try_new(cfg, traces) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a sharded simulation, reporting configuration problems
    /// instead of panicking.
    ///
    /// With `cfg.shards == 1` the single shard is configured *identically*
    /// to [`Simulation::try_new`] — same seed, same tree, same traces — so
    /// digests and reports are bit-identical to the unsharded pipeline.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Invalid`] if `cfg` fails validation (including the
    /// shard-count and per-shard tree-depth checks) and
    /// [`ConfigError::TraceCount`] if the number of traces does not match
    /// `cfg.cores`.
    pub fn try_new(cfg: SystemConfig, traces: Vec<Vec<TraceRecord>>) -> Result<Self, ConfigError> {
        Self::try_new_with_shard_faults(cfg, traces, &[])
    }

    /// [`Self::try_new`] with per-shard fault-injection overrides:
    /// `fault_overrides[s]`, when `Some`, replaces `cfg.faults` for shard
    /// `s` (missing entries fall back to `cfg.faults`). This is how a test
    /// seeds faults into exactly one shard while the others run clean.
    ///
    /// Shard pipelines are constructed on worker threads, one per shard:
    /// construction initializes position maps and backend state, which at
    /// tens of thousands of blocks per shard is real setup work that scales
    /// with `N` if done serially. Results are joined in shard-id order and
    /// each shard's configuration (seed derivation, trace partition, fault
    /// override) is fixed before any thread starts, so parallel
    /// construction is deterministic: it builds bit-identical shards to the
    /// old serial loop, and on failure reports the lowest-id shard's error.
    /// `N = 1` constructs inline (nothing to overlap).
    ///
    /// # Errors
    ///
    /// As [`Self::try_new`]; an override that fails the per-shard fault
    /// validation is also [`ConfigError::Invalid`].
    ///
    /// # Panics
    ///
    /// Re-raises any panic from a shard construction thread.
    pub fn try_new_with_shard_faults(
        cfg: SystemConfig,
        traces: Vec<Vec<TraceRecord>>,
        fault_overrides: &[Option<FaultConfig>],
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if traces.len() != cfg.cores {
            return Err(ConfigError::TraceCount {
                expected: cfg.cores,
                got: traces.len(),
            });
        }
        let (map, shard_cfgs) = cfg.shard_configs()?;
        // In global numbering, so the error names the caller's record (a
        // shard sees `block >> bits`).
        check_trace_block_ids(&traces, ring_oram::RingOram::PROGRAM_ID_BOUND << map.bits())?;
        let shard_traces = partition_traces(&map, &traces);
        // Fix every shard's full configuration up front so the parallel
        // build below has no ordering freedom left to exploit.
        let jobs: Vec<(SystemConfig, Vec<Vec<TraceRecord>>)> = shard_cfgs
            .into_iter()
            .zip(shard_traces)
            .enumerate()
            .map(|(s, (mut shard_cfg, shard_trace))| {
                if let Some(over) = fault_overrides.get(s).copied().flatten() {
                    shard_cfg.faults = Some(over);
                }
                (shard_cfg, shard_trace)
            })
            .collect();
        let built: Vec<Result<Simulation, ConfigError>> = if jobs.len() == 1 {
            jobs.into_iter()
                .map(|(shard_cfg, shard_trace)| Simulation::try_new(shard_cfg, shard_trace))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .into_iter()
                    .map(|(shard_cfg, shard_trace)| {
                        scope.spawn(move || Simulation::try_new(shard_cfg, shard_trace))
                    })
                    .collect();
                // Join in shard-id order, never completion order.
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };
        let mut shards = Vec::with_capacity(built.len());
        for r in built {
            // `?` on the id-ordered results reports the lowest-id failure.
            shards.push(CacheAligned(r?));
        }
        Ok(Self {
            cfg,
            map,
            shards,
            label: String::new(),
        })
    }

    /// Sets the merged report label (workload / scheme).
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// The master configuration in force.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Number of shard instances.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard pipelines, in shard-id order (for inspection in tests).
    /// Slots deref transparently to [`Simulation`].
    #[must_use]
    pub fn shards(&self) -> &[CacheAligned<Simulation>] {
        &self.shards
    }

    /// Mutable access to the shard pipelines, for harnesses that drive
    /// shards individually — e.g. timing each shard in isolation to
    /// project the parallel makespan on a core-starved host. Shards are
    /// fully independent, so driving them in any order (or serially)
    /// produces the same merged report as [`Self::run`].
    #[must_use]
    pub fn shards_mut(&mut self) -> &mut [CacheAligned<Simulation>] {
        &mut self.shards
    }

    /// Program accesses planned so far, summed over shards.
    #[must_use]
    pub fn oram_accesses(&self) -> u64 {
        self.shards.iter().map(|s| s.oram_accesses()).sum()
    }

    /// Whether every shard finished its traces and drained its memory work.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.shards.iter().all(|s| s.is_finished())
    }

    /// Per-shard access digests, in shard-id order.
    #[must_use]
    pub fn shard_digests(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.access_digest()).collect()
    }

    /// The combined access digest: an order-independent fold of the
    /// per-shard FNV digests (`XOR` of `digest_s.rotate_left(s)`). For
    /// `N = 1` this is exactly shard 0's digest, hence bit-identical to
    /// [`Simulation::access_digest`] on the unsharded pipeline.
    #[must_use]
    pub fn merged_digest(&self) -> u64 {
        self.shards.iter().enumerate().fold(0u64, |acc, (s, sim)| {
            acc ^ sim.access_digest().rotate_left(s as u32)
        })
    }

    /// Runs every shard to completion, each on its own thread, and returns
    /// the deterministically merged report.
    ///
    /// `max_cycles` bounds each shard individually (shards advance their
    /// own cycle counters; there is no global clock to bound).
    ///
    /// # Errors
    ///
    /// [`CycleLimitExceeded`] from the lowest-id shard that hit the limit
    /// (chosen by shard id, not completion order, so the error is as
    /// deterministic as the success path); its `partial` report covers that
    /// shard only.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from a shard worker thread.
    pub fn run(&mut self, max_cycles: u64) -> Result<SimReport, CycleLimitExceeded> {
        let results: Vec<Result<SimReport, CycleLimitExceeded>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|sim| scope.spawn(move || sim.run(max_cycles)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        for r in results {
            r?;
        }
        Ok(self.report())
    }

    /// Runs the global cross-shard invariant: the per-shard position maps,
    /// renumbered back to global block addresses, must partition the block
    /// address space (no duplicates, no misrouted residents).
    #[must_use]
    pub fn check_cross_shard(&self) -> Vec<sim_verify::Violation> {
        let mut auditor = sim_verify::ShardResidencyAuditor::new(self.map.shards());
        for (s, sim) in self.shards.iter().enumerate() {
            auditor.record_shard(
                s,
                sim.protocol()
                    .position_entries()
                    .into_iter()
                    .map(|(block, _)| self.map.global_block(s, block).0),
            );
        }
        auditor.finish()
    }

    /// Builds the merged report (also callable mid-run for progress).
    ///
    /// For `N = 1` this is exactly the single shard's report (bit-identical
    /// to the unsharded pipeline, aside from the label set on this engine).
    /// For `N > 1` every extensive counter is the sum over shards in
    /// shard-id order, means are recomputed from summed raw counters,
    /// latency percentiles from the pooled per-shard samples, and
    /// `makespan_cycles` is the slowest shard's cycle count. Violations are
    /// per-shard findings prefixed with their shard id, followed by any
    /// cross-shard residency findings (when the master `VerifyConfig` is
    /// enabled).
    #[must_use]
    pub fn report(&self) -> SimReport {
        if self.shards.len() == 1 {
            let mut r = self.shards[0].report();
            if !self.label.is_empty() {
                r.label.clone_from(&self.label);
            }
            return r;
        }
        let parts = self
            .shards
            .iter()
            .map(|s| (s.capture(), s.read_latency_samples(), s.violations()));
        let mut report = build_merged_report(&self.cfg, self.label.clone(), parts);
        if self.cfg.verify.enabled {
            let cross = self.check_cross_shard();
            report
                .violations
                .extend(cross.iter().map(ToString::to_string));
        }
        report
    }
}

/// Splits per-core traces into per-shard, per-core traces: each record is
/// routed by its block's low address bits and renumbered into the shard's
/// local block space. Record order within a (shard, core) pair preserves
/// the original program order.
fn partition_traces(map: &ShardMap, traces: &[Vec<TraceRecord>]) -> Vec<Vec<Vec<TraceRecord>>> {
    if map.shards() == 1 {
        // Identity: hand the original traces through untouched.
        return vec![traces.to_vec()];
    }
    let mut out = vec![vec![Vec::new(); traces.len()]; map.shards()];
    for (core, trace) in traces.iter().enumerate() {
        for rec in trace {
            let block = ring_oram::BlockId(rec.op.block);
            let shard = map.shard_of(block);
            let mut local = *rec;
            local.op.block = map.local_block(block).0;
            out[shard][core].push(local);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use trace_synth::by_name;
    use trace_synth::TraceGenerator;

    fn traces(cfg: &SystemConfig, n: usize) -> Vec<Vec<TraceRecord>> {
        (0..cfg.cores)
            .map(|c| TraceGenerator::new(by_name("black").unwrap(), 11, c as u32).take_records(n))
            .collect()
    }

    #[test]
    fn partition_is_a_permutation_of_the_records() {
        let cfg = SystemConfig::test_small(Scheme::Baseline);
        let t = traces(&cfg, 200);
        let map = ShardMap::new(4).unwrap();
        let parts = partition_traces(&map, &t);
        assert_eq!(parts.len(), 4);
        for core in 0..cfg.cores {
            let total: usize = parts.iter().map(|p| p[core].len()).sum();
            assert_eq!(total, t[core].len());
        }
        // Every routed record round-trips to its original global block.
        for (shard, per_core) in parts.iter().enumerate() {
            for trace in per_core {
                for rec in trace {
                    let global = map.global_block(shard, ring_oram::BlockId(rec.op.block));
                    assert_eq!(map.shard_of(global), shard);
                }
            }
        }
    }

    #[test]
    fn singleton_partition_is_identity() {
        let cfg = SystemConfig::test_small(Scheme::Baseline);
        let t = traces(&cfg, 50);
        let map = ShardMap::new(1).unwrap();
        let parts = partition_traces(&map, &t);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], t);
    }

    #[test]
    fn sharded_run_merges_access_counts() {
        let mut cfg = SystemConfig::test_small(Scheme::All);
        cfg.shards = 2;
        let t = traces(&cfg, 60);
        let mut sim = ShardedSimulation::new(cfg, t);
        let r = sim.run(50_000_000).expect("completes");
        assert_eq!(r.shards, 2);
        assert_eq!(r.oram_accesses, 120);
        assert_eq!(r.cycles_by_kind.total(), r.total_cycles);
        assert!(r.makespan_cycles <= r.total_cycles);
        assert!(r.makespan_cycles > 0);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(sim.check_cross_shard().is_empty());
    }

    #[test]
    fn shards_must_match_config() {
        let cfg = SystemConfig::test_small(Scheme::Baseline);
        // Simulation refuses a sharded config...
        let mut sharded = cfg.clone();
        sharded.shards = 2;
        let t = traces(&sharded, 10);
        assert!(matches!(
            Simulation::try_new(sharded, t),
            Err(ConfigError::Invalid(_))
        ));
        // ...while ShardedSimulation accepts shards = 1 and stays identical.
        let t = traces(&cfg, 10);
        assert!(ShardedSimulation::try_new(cfg, t).is_ok());
    }
}
