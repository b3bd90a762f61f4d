//! Whole-system configuration.

use dram_sim::geometry::DramGeometry;
use dram_sim::timing::TimingParams;
use dram_sim::DramFaultConfig;
use mem_sched::{PagePolicy, ResponseFaultConfig, SchedulerPolicy};
use oram_rng::derive_stream_seed;
use ring_oram::layout::TreeLayout;
use ring_oram::{ProtocolKind, ResilienceConfig, RingConfig, ShardMap};

/// Why a [`SystemConfig`] was rejected (see `Simulation::try_new`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A configuration constraint was violated.
    Invalid(String),
    /// The configuration requests a feature the selected protocol cannot
    /// provide (e.g. fault injection on an engine without an
    /// integrity-checked retry layer).
    Unsupported {
        /// Label of the selected protocol ([`ProtocolKind::label`]).
        protocol: &'static str,
        /// The unsupported feature, human-readable.
        feature: String,
    },
    /// The number of traces handed to the simulation does not match
    /// `cfg.cores`.
    TraceCount {
        /// `cfg.cores`.
        expected: usize,
        /// Traces actually provided.
        got: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid(msg) => write!(f, "invalid SystemConfig: {msg}"),
            Self::Unsupported { protocol, feature } => {
                write!(f, "the {protocol} protocol does not support {feature}")
            }
            Self::TraceCount { expected, got } => {
                write!(f, "need exactly one trace per core ({expected}), got {got}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<String> for ConfigError {
    fn from(msg: String) -> Self {
        Self::Invalid(msg)
    }
}

impl From<&str> for ConfigError {
    fn from(msg: &str) -> Self {
        Self::Invalid(msg.to_string())
    }
}

impl From<mem_sched::FaultConfigError> for ConfigError {
    fn from(e: mem_sched::FaultConfigError) -> Self {
        Self::Invalid(e.to_string())
    }
}

/// The four design points the paper's evaluation compares (Fig. 10-12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// State-of-the-art Ring ORAM: no Compact Bucket, transaction-based
    /// scheduling.
    Baseline,
    /// Compact Bucket only (spatial optimization).
    Cb,
    /// Proactive Bank only (temporal optimization).
    Pb,
    /// The full String ORAM framework: CB + PB.
    All,
}

impl Scheme {
    /// All four schemes in the paper's presentation order.
    pub const ALL: [Scheme; 4] = [Scheme::Baseline, Scheme::Cb, Scheme::Pb, Scheme::All];

    /// Label used in figures ("1. Baseline", "2. CB", ...).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Baseline => "Baseline",
            Self::Cb => "CB",
            Self::Pb => "PB",
            Self::All => "ALL",
        }
    }

    /// Whether the Compact Bucket is enabled.
    #[must_use]
    pub fn uses_cb(self) -> bool {
        matches!(self, Self::Cb | Self::All)
    }

    /// Whether the Proactive Bank scheduler is enabled.
    #[must_use]
    pub fn uses_pb(self) -> bool {
        matches!(self, Self::Pb | Self::All)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which physical address mapping the memory controller uses (ablation
/// knob; the paper fixes `row:bank:column:rank:channel:offset`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingKind {
    /// The paper's channel-striped mapping (consecutive lines alternate
    /// channels; subtree row sets span all channels).
    PaperStriped,
    /// Channel-in-MSBs mapping: each channel owns a contiguous region, so
    /// a path gets no channel-level parallelism.
    Sequential,
}

/// Which tree-to-memory layout the system uses (ablation knob; the paper
/// always uses the subtree layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// Subtree layout (Ren et al.) sized to the row set.
    Subtree,
    /// Naive breadth-first layout (each level contiguous).
    Naive,
}

/// Which memory backend serves the pipeline's transactions.
///
/// Both backends observe the *same* ORAM access sequence (the protocol and
/// transaction layers are backend-independent); they differ only in how
/// memory time is modeled. The differential test in `string-oram` pins this
/// equivalence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The paper's evaluation substrate: `mem-sched`'s FR-FCFS controller
    /// over `dram-sim`'s cycle-accurate bank/rank/channel machines.
    #[default]
    CycleAccurate,
    /// `mem-sched`'s functional backend: row-aware fixed latencies, no
    /// per-cycle DRAM state. Roughly an order of magnitude faster; use for
    /// long traces and protocol-level studies. No DRAM-level stats, energy
    /// model, JEDEC shadow checking, or fault injection.
    FastFunctional,
}

/// Full-system parameters: processor (Table I), memory subsystem (Table II)
/// and ORAM (Table III).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Which ORAM protocol the pipeline drives (the cross-protocol arena
    /// selector). The presets pick it from the scheme through
    /// [`Self::for_scheme`]: [`ProtocolKind::RingCb`] — the paper's design
    /// point — when the scheme uses CB, plain `Ring` when it does not. The
    /// other kinds reinterpret [`Self::ring`] through
    /// [`Self::effective_ring`]: plain `Ring` forces `y = 0` (no CB
    /// substitution), `Path`/`Circuit` force buckets of exactly `Z`
    /// slots, no dummy budget ([`RingConfig::z_slot`]).
    pub protocol: ProtocolKind,
    /// Ring ORAM parameters. In a preset they already are what the
    /// selected protocol runs with ([`Self::for_scheme`] zeroes `ring.y`
    /// together with selecting plain `Ring`); after a hand edit of
    /// [`Self::protocol`], [`Self::effective_ring`] is authoritative.
    pub ring: RingConfig,
    /// DRAM geometry (channels/ranks/banks/rows/columns).
    pub geometry: DramGeometry,
    /// DRAM timing parameters.
    pub timing: TimingParams,
    /// Command-scheduling policy the memory controller runs (one of the
    /// five `mem-sched` policy-lab points; presets select the paper's
    /// transaction-based baseline or Proactive Bank via
    /// [`Self::for_scheme`]).
    pub sched_policy: SchedulerPolicy,
    /// Entries per direction per channel in the controller queues.
    pub queue_capacity: usize,
    /// Number of cores (Table I: 4).
    pub cores: usize,
    /// Instructions retired per CPU cycle per core (Table I: 4).
    pub retire_width: u32,
    /// CPU cycles per memory bus cycle (3.2 GHz over DDR3-1600's 800 MHz
    /// bus = 4).
    pub cpu_cycles_per_mem_cycle: u32,
    /// Maximum unfinished ORAM transactions before the controller stops
    /// planning new accesses (keeps transaction *i+1* visible for PB).
    pub max_inflight_txns: usize,
    /// Outstanding LLC misses a core may keep in flight before stalling
    /// (the ROB's memory-level parallelism; 1 = blocking misses).
    pub core_mlp: usize,
    /// Tree pre-load factor (see `ring_oram::protocol`).
    pub load_factor: f64,
    /// Seed for all protocol and layout randomness.
    pub seed: u64,
    /// Tree-to-memory layout (the paper always uses [`LayoutKind::Subtree`];
    /// [`LayoutKind::Naive`] exists for the layout ablation).
    pub layout: LayoutKind,
    /// Row-buffer management policy (the paper assumes open-page; §II-C).
    pub page_policy: PagePolicy,
    /// Recursive position-map settings. `None` (the paper's assumption)
    /// keeps the full position map on-chip; `Some` stores it in a stack of
    /// smaller ORAMs whose traffic the simulation then carries.
    pub recursion: Option<RecursionSettings>,
    /// Physical address mapping (paper default: channel-striped).
    pub mapping: MappingKind,
    /// Memory backend serving the pipeline (paper default: cycle-accurate).
    pub backend: BackendKind,
    /// Number of independent shard instances for the parallel engine
    /// (`crate::ShardedSimulation`). Must be a power of two. `1` (the
    /// default) is the unsharded single-threaded pipeline; `N > 1`
    /// partitions the block address space into `N` subtree-forest shards,
    /// each with its own pipeline, backend and seeded RNG stream.
    pub shards: usize,
    /// Passive conformance checking (off for measurement, on in tests).
    pub verify: VerifyConfig,
    /// Deterministic fault injection across the memory stack. `None` (the
    /// default) runs fault-free; `Some` enables ciphertext corruption with
    /// integrity-checked retries at the ORAM layer plus timing faults in
    /// the controller and DRAM models.
    pub faults: Option<FaultConfig>,
}

/// Composite fault-injection configuration for one simulation.
///
/// Each layer draws from its own seeded schedule, so the three components
/// are independent and individually zeroable. Fault randomness never
/// touches the protocol RNG: a faulty run issues the *same* access
/// sequence as the fault-free run with the same protocol seed — faults
/// perturb latency and add retries at already-public slots only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// ORAM-layer faults: in-transit ciphertext bit flips, bounded
    /// re-read retries, and the stash-pressure degradation watermarks.
    pub resilience: ResilienceConfig,
    /// DRAM-layer faults: refresh storms (stretched tRFC) and weak rows
    /// (post-ACT stalls).
    pub dram: DramFaultConfig,
    /// Controller-layer faults: dropped and late data responses plus
    /// queue-saturation windows.
    pub memctrl: ResponseFaultConfig,
}

impl FaultConfig {
    /// A small, all-layers-active preset for smoke tests: every fault
    /// class fires at `rate`, sized for the given stash capacity.
    #[must_use]
    pub fn smoke(seed: u64, rate: f64, stash_capacity: usize) -> Self {
        Self {
            resilience: ResilienceConfig {
                fault_seed: seed,
                bit_flip_rate: rate,
                ..ResilienceConfig::for_stash(stash_capacity)
            },
            dram: DramFaultConfig {
                seed: seed ^ 0xD7A3,
                storm_rate: rate,
                storm_factor: 4,
                weak_row_rate: rate,
                weak_row_stall: 24,
            },
            memctrl: ResponseFaultConfig {
                seed: seed ^ 0x3C97,
                late_rate: rate,
                late_delay: 32,
                drop_rate: rate.min(0.5),
                saturation_rate: rate,
            },
        }
    }
}

/// Configuration of the passive conformance layer (the `sim-verify` crate).
///
/// When [`Self::enabled`], the simulation records the backend's command
/// trace and the protocol's plan stream and re-validates both against
/// independently reimplemented rules: the transaction-order security
/// contract on every backend, JEDEC timing where a DRAM model is behind
/// the trace, and the selected protocol's structural invariants. Findings
/// surface in `SimReport::violations`; with [`Self::fail_fast`] the
/// simulation panics at the first finding instead (for `#[should_panic]`
/// negative tests).
///
/// Everything is off by default so measurement runs pay no tracing cost;
/// the `test_small` preset turns the checkers on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyConfig {
    /// Attach every checker that applies to the configured backend and
    /// protocol (see `pipeline::Conformance`).
    pub enabled: bool,
    /// Panic on the first violation instead of accumulating into the
    /// report.
    pub fail_fast: bool,
}

impl VerifyConfig {
    /// All checkers off (the measurement default).
    #[must_use]
    pub fn off() -> Self {
        Self::default()
    }

    /// All checkers on, accumulating violations into the report.
    #[must_use]
    pub fn checked() -> Self {
        Self {
            enabled: true,
            fail_fast: false,
        }
    }
}

/// Parameters of the recursive position-map extension (see
/// `ring_oram::recursive`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecursionSettings {
    /// Blocks whose positions are tracked.
    pub tracked_blocks: u64,
    /// Position entries per map block.
    pub positions_per_block: u32,
    /// Entries the innermost on-chip map may hold.
    pub max_onchip_entries: u64,
}

impl SystemConfig {
    /// The paper's full default configuration (Tables I-III) for a scheme.
    #[must_use]
    pub fn hpca_default(scheme: Scheme) -> Self {
        Self::for_scheme(
            Self {
                protocol: ProtocolKind::RingCb,
                ring: RingConfig::hpca_default(),
                geometry: DramGeometry::hpca_default(),
                timing: TimingParams::ddr3_1600(),
                sched_policy: SchedulerPolicy::TransactionBased,
                queue_capacity: 64,
                cores: 4,
                retire_width: 4,
                cpu_cycles_per_mem_cycle: 4,
                max_inflight_txns: 6,
                core_mlp: 1,
                load_factor: ring_oram::RingOram::DEFAULT_LOAD_FACTOR,
                seed: 0xD15EA5E,
                layout: LayoutKind::Subtree,
                page_policy: PagePolicy::Open,
                recursion: None,
                mapping: MappingKind::PaperStriped,
                backend: BackendKind::CycleAccurate,
                shards: 1,
                verify: VerifyConfig::off(),
                faults: None,
            },
            scheme,
        )
    }

    /// A scaled-down configuration for tests and quick experiments: the
    /// paper's structure (Z=8, S=12, A=8, Y=8) over a 14-level tree with
    /// fast DRAM timing.
    #[must_use]
    pub fn test_small(scheme: Scheme) -> Self {
        let ring = RingConfig {
            levels: 14,
            tree_top_cached_levels: 4,
            stash_capacity: 200,
            ..RingConfig::hpca_default()
        };
        Self::for_scheme(
            Self {
                protocol: ProtocolKind::RingCb,
                ring,
                geometry: DramGeometry::test_medium(),
                timing: TimingParams::test_fast(),
                sched_policy: SchedulerPolicy::TransactionBased,
                queue_capacity: 64,
                cores: 2,
                retire_width: 4,
                cpu_cycles_per_mem_cycle: 4,
                max_inflight_txns: 6,
                core_mlp: 1,
                load_factor: 0.5,
                seed: 0xD15EA5E,
                layout: LayoutKind::Subtree,
                page_policy: PagePolicy::Open,
                recursion: None,
                mapping: MappingKind::PaperStriped,
                backend: BackendKind::CycleAccurate,
                shards: 1,
                verify: VerifyConfig::checked(),
                faults: None,
            },
            scheme,
        )
    }

    /// Applies a scheme to a base configuration: CB off selects plain Ring
    /// (a `RingCb` base becomes `Ring`, with `ring.y` forced to 0 so the
    /// config and the engine it builds name the same protocol), PB on/off
    /// selects the scheduler policy.
    #[must_use]
    pub fn for_scheme(mut base: Self, scheme: Scheme) -> Self {
        if !scheme.uses_cb() {
            base.ring.y = 0;
            if base.protocol == ProtocolKind::RingCb {
                base.protocol = ProtocolKind::Ring;
            }
        }
        base.sched_policy = if scheme.uses_pb() {
            SchedulerPolicy::proactive()
        } else {
            SchedulerPolicy::TransactionBased
        };
        base
    }

    /// Instructions one core can retire per memory cycle.
    #[must_use]
    pub fn instructions_per_mem_cycle(&self) -> u64 {
        u64::from(self.retire_width) * u64::from(self.cpu_cycles_per_mem_cycle)
    }

    /// The row-set size: DRAM row bytes times channels — the natural
    /// locality window under the paper's channel-striped address mapping,
    /// used to size subtree-layout groups.
    #[must_use]
    pub fn row_set_bytes(&self) -> u64 {
        self.geometry.row_bytes() * u64::from(self.geometry.channels)
    }

    /// The [`RingConfig`] the selected protocol actually runs with.
    ///
    /// [`ProtocolKind::RingCb`] uses [`Self::ring`] verbatim; plain `Ring`
    /// is the same geometry with CB substitution disabled (`y = 0`);
    /// `Path`/`Circuit` buckets are exactly `Z` slots
    /// ([`RingConfig::z_slot`]) so the layout, sharding and audit layers
    /// size correctly. Every consumer of the ring parameters downstream of
    /// the protocol selector (planner, layout, conformance, sharded engine)
    /// must use this, not [`Self::ring`].
    #[must_use]
    pub fn effective_ring(&self) -> RingConfig {
        match self.protocol {
            ProtocolKind::RingCb => self.ring.clone(),
            ProtocolKind::Ring => RingConfig {
                y: 0,
                ..self.ring.clone()
            },
            ProtocolKind::Path | ProtocolKind::Circuit => self.ring.z_slot(),
        }
    }

    /// The tree layout [`Self::layout`] selects for `ring`'s tree (the
    /// data ORAM's effective ring, or one map ORAM of a recursive stack).
    ///
    /// # Panics
    ///
    /// Panics if `ring` fails validation.
    #[must_use]
    pub fn tree_layout(&self, ring: &RingConfig) -> TreeLayout {
        match self.layout {
            LayoutKind::Subtree => TreeLayout::subtree(ring, self.row_set_bytes()),
            LayoutKind::Naive => TreeLayout::naive(ring),
        }
    }

    /// Splits this configuration into its shard instances: the block
    /// routing map plus one single-instance configuration per shard, in
    /// shard-id order. Every shard gets `shards = 1` and the shard-reduced
    /// ring; for `N > 1` each also gets a decorrelated seed derived with
    /// [`derive_stream_seed`]`(seed, shard_id)`, while `N = 1` keeps the
    /// master seed, so a one-shard engine is bit-identical to the unsharded
    /// pipeline.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Invalid`] when the shard count is not a power of two
    /// or leaves a shard's tree too shallow ([`Self::validate`] reports
    /// both earlier).
    pub fn shard_configs(&self) -> Result<(ShardMap, Vec<Self>), ConfigError> {
        let map = ShardMap::new(self.shards)?;
        let shard_ring = map.shard_ring_config(&self.ring)?;
        let shards = (0..map.shards())
            .map(|s| {
                let mut shard = self.clone();
                shard.shards = 1;
                shard.ring = shard_ring.clone();
                if map.shards() > 1 {
                    shard.seed = derive_stream_seed(self.seed, s as u64);
                }
                shard
            })
            .collect();
        Ok((map, shards))
    }

    /// Validates the composite configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint across all components, plus
    /// cross-component checks (the ORAM tree must fit the DRAM module) and
    /// protocol-capability checks ([`ConfigError::Unsupported`] names the
    /// protocol that cannot provide a requested feature).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let ring = self.effective_ring();
        ring.validate()?;
        self.geometry.validate()?;
        self.timing.validate()?;
        if self.cores == 0 {
            return Err("cores must be nonzero".into());
        }
        if self.retire_width == 0 || self.cpu_cycles_per_mem_cycle == 0 {
            return Err("retire_width and cpu_cycles_per_mem_cycle must be nonzero".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be nonzero".into());
        }
        if self.max_inflight_txns < 2 {
            return Err("max_inflight_txns must be at least 2 (PB needs i+1 visible)".into());
        }
        if self.core_mlp == 0 {
            return Err("core_mlp must be at least 1".into());
        }
        match self.sched_policy {
            SchedulerPolicy::ReadOverWrite { drain_bound: 0 } => {
                return Err("read-over-write drain_bound must be at least 1".into());
            }
            SchedulerPolicy::SpeculativeWindow { window: 0 } => {
                return Err("speculative-window window must be at least 1".into());
            }
            SchedulerPolicy::FixedCadence { period: 0 } => {
                return Err("fixed-cadence period must be at least 1".into());
            }
            _ => {}
        }
        if !(0.0..=1.0).contains(&self.load_factor) {
            return Err("load_factor must be in [0, 1]".into());
        }
        // Sharding: the map constructor enforces the power-of-two count and
        // the per-shard tree derivation enforces the depth floor.
        let map = ShardMap::new(self.shards)?;
        map.shard_ring_config(&ring)?;
        // Protocol-capability seams, checked before the per-layer fault
        // validators so the error names the responsible protocol.
        let non_ring = matches!(self.protocol, ProtocolKind::Path | ProtocolKind::Circuit);
        if non_ring && self.recursion.is_some() {
            return Err(ConfigError::Unsupported {
                protocol: self.protocol.label(),
                feature: "a recursive position map (the recursion stack is built from Ring \
                          engines)"
                    .into(),
            });
        }
        if let Some(f) = &self.faults {
            if non_ring {
                return Err(ConfigError::Unsupported {
                    protocol: self.protocol.label(),
                    feature: "fault injection (no integrity-checked retry layer)".into(),
                });
            }
            if self.backend == BackendKind::FastFunctional {
                return Err(ConfigError::Invalid(
                    "fault injection requires the cycle-accurate backend (the functional \
                     backend has no DRAM or controller timing state to perturb)"
                        .into(),
                ));
            }
            if self.recursion.is_some() {
                return Err(ConfigError::Unsupported {
                    protocol: self.protocol.label(),
                    feature: "fault injection with a recursive position map".into(),
                });
            }
            f.resilience.validate(ring.stash_capacity)?;
            f.dram.validate()?;
            f.memctrl.validate()?;
        }
        let total = self.tree_layout(&ring).total_bytes();
        if total > self.geometry.capacity_bytes() {
            return Err(ConfigError::Invalid(format!(
                "ORAM tree ({} B laid out) exceeds DRAM capacity ({} B)",
                total,
                self.geometry.capacity_bytes()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemes_toggle_the_right_knobs() {
        let base = SystemConfig::hpca_default(Scheme::Baseline);
        assert_eq!(base.ring.y, 0);
        assert_eq!(base.sched_policy, SchedulerPolicy::TransactionBased);

        let cb = SystemConfig::hpca_default(Scheme::Cb);
        assert_eq!(cb.ring.y, 8);
        assert_eq!(cb.sched_policy, SchedulerPolicy::TransactionBased);

        let pb = SystemConfig::hpca_default(Scheme::Pb);
        assert_eq!(pb.ring.y, 0);
        assert_eq!(pb.sched_policy, SchedulerPolicy::proactive());

        let all = SystemConfig::hpca_default(Scheme::All);
        assert_eq!(all.ring.y, 8);
        assert_eq!(all.sched_policy, SchedulerPolicy::proactive());
    }

    #[test]
    fn defaults_validate() {
        for s in Scheme::ALL {
            SystemConfig::hpca_default(s).validate().unwrap();
            SystemConfig::test_small(s).validate().unwrap();
        }
    }

    #[test]
    fn default_tree_fits_module() {
        // The paper's 20 GB baseline tree (and 12 GB CB tree) must fit the
        // 32 GB module even with subtree padding.
        let cfg = SystemConfig::hpca_default(Scheme::Baseline);
        cfg.validate().unwrap();
    }

    #[test]
    fn instructions_per_mem_cycle_matches_tables() {
        let cfg = SystemConfig::hpca_default(Scheme::Baseline);
        // 4-wide at 3.2 GHz against an 800 MHz bus: 16 instructions.
        assert_eq!(cfg.instructions_per_mem_cycle(), 16);
        assert_eq!(cfg.row_set_bytes(), 16384);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Scheme::Baseline.label(), "Baseline");
        assert_eq!(Scheme::All.to_string(), "ALL");
        assert!(Scheme::All.uses_cb() && Scheme::All.uses_pb());
        assert!(!Scheme::Baseline.uses_cb() && !Scheme::Baseline.uses_pb());
    }

    #[test]
    fn cross_component_check_fires() {
        let mut cfg = SystemConfig::test_small(Scheme::Baseline);
        cfg.ring.levels = 20; // far larger than the small module
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn functional_backend_rejects_faults() {
        let mut cfg = SystemConfig::test_small(Scheme::Baseline);
        cfg.backend = BackendKind::FastFunctional;
        cfg.faults = Some(FaultConfig::smoke(1, 0.01, cfg.ring.stash_capacity));
        assert!(cfg.validate().is_err());
        cfg.faults = None;
        cfg.validate().unwrap();
    }

    #[test]
    fn shard_count_must_be_power_of_two_and_splittable() {
        let mut cfg = SystemConfig::test_small(Scheme::Baseline);
        cfg.shards = 3;
        assert!(cfg.validate().is_err());
        cfg.shards = 4;
        cfg.validate().unwrap();
        // 14-level tree with 4 cached levels: 1024 shards would leave fewer
        // than cached + 1 levels per shard.
        cfg.shards = 1024;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn inflight_floor_enforced() {
        let mut cfg = SystemConfig::test_small(Scheme::Pb);
        cfg.max_inflight_txns = 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn effective_ring_per_protocol() {
        let cfg = SystemConfig::test_small(Scheme::All);
        assert_eq!(cfg.protocol, ProtocolKind::RingCb);
        // RingCb: verbatim — the bit-invisibility anchor.
        assert_eq!(cfg.effective_ring(), cfg.ring);

        let mut plain = cfg.clone();
        plain.protocol = ProtocolKind::Ring;
        let r = plain.effective_ring();
        assert_eq!(r.y, 0);
        assert_eq!(
            (r.levels, r.z, r.s),
            (cfg.ring.levels, cfg.ring.z, cfg.ring.s)
        );

        for kind in [ProtocolKind::Path, ProtocolKind::Circuit] {
            let mut c = cfg.clone();
            c.protocol = kind;
            let r = c.effective_ring();
            assert_eq!((r.s, r.y), (1, 1));
            assert_eq!(r.bucket_slots(), r.z);
            c.validate().unwrap();
        }
    }

    #[test]
    fn scheme_presets_name_the_engine_they_build() {
        for scheme in Scheme::ALL {
            for cfg in [
                SystemConfig::hpca_default(scheme),
                SystemConfig::test_small(scheme),
            ] {
                let planner = crate::pipeline::Planner::build(&cfg).unwrap();
                assert_eq!(planner.protocol().kind(), cfg.protocol, "{scheme}");
                assert_eq!(cfg.effective_ring(), cfg.ring, "{scheme}");
            }
        }
    }

    fn recursion_settings() -> RecursionSettings {
        RecursionSettings {
            tracked_blocks: 1 << 10,
            positions_per_block: 16,
            max_onchip_entries: 256,
        }
    }

    /// Satellite seam: every protocol × {faults, recursion, both}
    /// combination either validates or returns a structured
    /// [`ConfigError::Unsupported`] naming the protocol.
    #[test]
    fn fault_and_recursion_combinations_per_protocol() {
        for kind in ProtocolKind::ALL {
            let base = {
                let mut c = SystemConfig::test_small(Scheme::All);
                c.protocol = kind;
                c
            };
            let ring_based = matches!(kind, ProtocolKind::RingCb | ProtocolKind::Ring);

            // Faults alone (cycle-accurate backend).
            let mut faulty = base.clone();
            faulty.faults = Some(FaultConfig::smoke(1, 0.01, base.ring.stash_capacity));
            if ring_based {
                faulty.validate().unwrap();
            } else {
                match faulty.validate() {
                    Err(ConfigError::Unsupported { protocol, feature }) => {
                        assert_eq!(protocol, kind.label());
                        assert!(feature.contains("fault injection"), "{feature}");
                    }
                    other => panic!("expected Unsupported, got {other:?}"),
                }
            }

            // Recursion alone: supported by the Ring engines only (the
            // recursion stack is built from Ring instances).
            let mut recursive = base.clone();
            recursive.recursion = Some(recursion_settings());
            if ring_based {
                recursive.validate().unwrap();
            } else {
                match recursive.validate() {
                    Err(ConfigError::Unsupported { protocol, feature }) => {
                        assert_eq!(protocol, kind.label());
                        assert!(feature.contains("recursive"), "{feature}");
                    }
                    other => panic!("expected Unsupported, got {other:?}"),
                }
            }

            // Both: structured rejection for every protocol — the Ring
            // engines support each feature separately but not combined.
            let mut both = base.clone();
            both.faults = Some(FaultConfig::smoke(1, 0.01, base.ring.stash_capacity));
            both.recursion = Some(recursion_settings());
            match both.validate() {
                Err(ConfigError::Unsupported { protocol, feature }) => {
                    assert_eq!(protocol, kind.label());
                    assert!(
                        both.validate()
                            .unwrap_err()
                            .to_string()
                            .contains("recursive")
                            || !ring_based,
                        "{feature}"
                    );
                }
                other => panic!("expected Unsupported, got {other:?}"),
            }
        }
    }
}
