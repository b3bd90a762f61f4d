//! Whole-system configuration.

use dram_sim::geometry::DramGeometry;
use dram_sim::timing::TimingParams;
use dram_sim::DramFaultConfig;
use mem_sched::{PagePolicy, ResponseFaultConfig, SchedulerPolicy};
use oram_rng::derive_stream_seed;
use ring_oram::layout::TreeLayout;
use ring_oram::{ProtocolKind, RecursiveConfig, ResilienceConfig, RingConfig, RingOram, ShardMap};

/// Why a [`SystemConfig`] was rejected (see `Simulation::try_new`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A configuration constraint was violated.
    Invalid(String),
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

/// Instructions retired per CPU cycle per core (Table I: 4-wide).
const RETIRE_WIDTH: u64 = 4;

/// CPU cycles per memory bus cycle (Table I's 3.2 GHz over DDR3-1600's
/// 800 MHz bus).
const CPU_CYCLES_PER_MEM_CYCLE: u64 = 4;

/// Full-system parameters: processor (Table I), memory subsystem (Table II)
/// and ORAM (Table III).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Which ORAM protocol the pipeline drives (the cross-protocol arena
    /// selector). The presets pick it from the scheme through
    /// `Self::for_scheme`: [`ProtocolKind::RingCb`] — the paper's design
    /// point — when the scheme uses CB, plain `Ring` when it does not. The
    /// other kinds reinterpret [`Self::ring`] through
    /// [`Self::effective_ring`]: plain `Ring` forces `y = 0` (no CB
    /// substitution), `Path`/`Circuit` force buckets of exactly `Z`
    /// slots, no dummy budget ([`RingConfig::z_slot`]).
    pub protocol: ProtocolKind,
    /// Ring ORAM parameters. In a preset they already are what the
    /// selected protocol runs with (`Self::for_scheme` zeroes `ring.y`
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
    /// `Self::for_scheme`).
    pub sched_policy: SchedulerPolicy,
    /// Entries per direction per channel in the controller queues.
    pub queue_capacity: usize,
    /// Number of cores (Table I: 4).
    pub cores: usize,
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
    /// Recursive position map. `None` (the paper's assumption) keeps the
    /// full position map on-chip; `Some` stores it in a stack of smaller
    /// ORAMs of the selected protocol whose traffic the simulation then
    /// carries.
    pub recursion: Option<RecursiveConfig>,
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
/// surface in `SimReport::violations`.
///
/// Everything is off by default so measurement runs pay no tracing cost;
/// the `test_small` preset turns the checkers on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyConfig {
    /// Attach every checker that applies to the configured backend and
    /// protocol (see `pipeline::Conformance`).
    pub enabled: bool,
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
        Self { enabled: true }
    }
}

impl SystemConfig {
    /// Largest [`Self::cores`] [`Self::validate`] accepts. A driver builds
    /// one trace per core; the presets use 4 and 2.
    const MAX_CORES: usize = 1 << 10;

    /// Largest [`Self::queue_capacity`] [`Self::validate`] accepts. The
    /// controller sizes its transaction run list for full queues up front;
    /// every preset and experiment uses 64.
    const MAX_QUEUE_CAPACITY: usize = 1 << 12;

    /// Largest [`Self::core_mlp`] [`Self::validate`] accepts. The
    /// simulation sizes its wake list for `cores × core_mlp` up front; the
    /// experiments go up to 8.
    const MAX_CORE_MLP: usize = 1 << 10;

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
    pub(crate) fn for_scheme(mut base: Self, scheme: Scheme) -> Self {
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

    /// Instructions one core can retire per memory cycle: Table I's retire
    /// width times the CPU cycles per memory cycle (16).
    #[must_use]
    pub fn instructions_per_mem_cycle(&self) -> u64 {
        RETIRE_WIDTH * CPU_CYCLES_PER_MEM_CYCLE
    }

    /// The row-set size: DRAM row bytes times channels — the natural
    /// locality window under the paper's channel-striped address mapping,
    /// used to size subtree-layout groups.
    #[must_use]
    pub(crate) fn row_set_bytes(&self) -> u64 {
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
        self.protocol.engine_config(&self.ring)
    }

    /// The tree layout [`Self::layout`] selects for `ring`'s tree (the
    /// data ORAM's effective ring, or one map ORAM of a recursive stack).
    ///
    /// # Panics
    ///
    /// Panics if `ring` fails validation.
    #[must_use]
    pub(crate) fn tree_layout(&self, ring: &RingConfig) -> TreeLayout {
        match self.layout {
            LayoutKind::Subtree => TreeLayout::subtree(ring, self.row_set_bytes()),
            LayoutKind::Naive => TreeLayout::naive(ring),
        }
    }

    /// The ORAM stack the planner builds, data ORAM first: tier 0 runs on
    /// [`Self::effective_ring`], tier `i + 1` on
    /// [`RecursiveConfig::map_config`]`(i)`; one tier without recursion.
    /// Each tier comes with its tree layout and the base address of its
    /// memory region; the regions are disjoint and row-set aligned, in tier
    /// order from address 0.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Invalid`] when a tier's ring is invalid or the stack
    /// does not fit the DRAM module.
    pub(crate) fn tiers(&self) -> Result<Vec<(RingConfig, TreeLayout, u64)>, ConfigError> {
        let data = self.effective_ring();
        let maps: Vec<RingConfig> = match &self.recursion {
            Some(r) => (0..r.map_levels())
                .map(|i| r.map_config(&data, i))
                .collect(),
            None => Vec::new(),
        };
        let align = self.row_set_bytes();
        let (mut tiers, mut end) = (Vec::new(), 0u64);
        for (tier, ring) in std::iter::once(data).chain(maps).enumerate() {
            ring.validate().map_err(|e| match tier {
                0 => e,
                _ => format!("recursion tier {tier}: {e}"),
            })?;
            let layout = self.tree_layout(&ring);
            let base = end.div_ceil(align) * align;
            end = base + layout.total_bytes();
            tiers.push((ring, layout, base));
        }
        if end > self.geometry.capacity_bytes() {
            return Err(ConfigError::Invalid(format!(
                "ORAM trees ({end} B laid out) exceed DRAM capacity ({} B)",
                self.geometry.capacity_bytes()
            )));
        }
        Ok(tiers)
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
    /// cross-component checks (the ORAM trees, recursion tiers included,
    /// must fit the DRAM module).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let ring = self.effective_ring();
        ring.validate()?;
        let coded = matches!(self.protocol, ProtocolKind::RingCb | ProtocolKind::Ring);
        if coded && ring.z > RingOram::MAX_Z {
            return Err(format!(
                "z ({}) must be at most {} on Ring ORAM (a slot code names one of Z blocks)",
                ring.z,
                RingOram::MAX_Z
            )
            .into());
        }
        self.geometry.validate()?;
        self.timing.validate()?;
        if !(1..=Self::MAX_CORES).contains(&self.cores) {
            return Err(format!(
                "cores must be in 1..={}, got {}",
                Self::MAX_CORES,
                self.cores
            )
            .into());
        }
        if !(1..=Self::MAX_QUEUE_CAPACITY).contains(&self.queue_capacity) {
            return Err(format!(
                "queue_capacity must be in 1..={}, got {}",
                Self::MAX_QUEUE_CAPACITY,
                self.queue_capacity
            )
            .into());
        }
        if self.max_inflight_txns < 2 {
            return Err("max_inflight_txns must be at least 2 (PB needs i+1 visible)".into());
        }
        if !(1..=Self::MAX_CORE_MLP).contains(&self.core_mlp) {
            return Err(format!(
                "core_mlp must be in 1..={}, got {}",
                Self::MAX_CORE_MLP,
                self.core_mlp
            )
            .into());
        }
        match self.sched_policy {
            SchedulerPolicy::ReadOverWrite { drain_bound: 0 } => {
                return Err("read-over-write drain_bound must be at least 1".into());
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
        if let Some(r) = &self.recursion {
            r.validate()
                .map_err(|e| ConfigError::Invalid(format!("recursion: {e}")))?;
        }
        if let Some(f) = &self.faults {
            if self.backend == BackendKind::FastFunctional {
                return Err(ConfigError::Invalid(
                    "fault injection requires the cycle-accurate backend (the functional \
                     backend has no DRAM or controller timing state to perturb)"
                        .into(),
                ));
            }
            f.resilience.validate(ring.stash_capacity)?;
            f.dram.validate()?;
            f.memctrl.validate()?;
        }
        self.tiers().map(drop)
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
    fn the_code_bound_on_z_holds_on_ring_trees_only() {
        // 255 real slots per bucket: Path and Circuit keep slot words and
        // take them; a Ring bucket's one-byte codes name at most 254.
        let mut cfg = SystemConfig::test_small(Scheme::Cb);
        cfg.ring.levels = 6;
        for (z, protocol, ok) in [
            (RingOram::MAX_Z, ProtocolKind::RingCb, true),
            (RingOram::MAX_Z + 1, ProtocolKind::RingCb, false),
            (RingOram::MAX_Z + 1, ProtocolKind::Path, true),
            (RingOram::MAX_Z + 1, ProtocolKind::Circuit, true),
        ] {
            cfg.ring.z = z;
            cfg.ring.s = cfg.ring.y; // Z slots per bucket
            cfg.protocol = protocol;
            assert_eq!(
                cfg.validate().is_ok(),
                ok,
                "{protocol} Z = {z}: {:?}",
                cfg.validate()
            );
        }
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

    /// Every protocol × {faults, recursion, both} combination validates.
    #[test]
    fn fault_and_recursion_combinations_per_protocol() {
        for kind in ProtocolKind::ALL {
            let mut cfg = SystemConfig::test_small(Scheme::All);
            cfg.protocol = kind;
            let recursion = Some(RecursiveConfig {
                tracked_blocks: 1 << 10,
                positions_per_block: 16,
                max_onchip_entries: 256,
            });
            for (faults, recursion) in [(false, recursion), (true, None), (true, recursion)] {
                cfg.recursion = recursion;
                cfg.faults = faults.then(|| FaultConfig::smoke(1, 0.01, cfg.ring.stash_capacity));
                if let Err(e) = cfg.validate() {
                    panic!("{kind} x faults {faults} x {recursion:?}: {e}");
                }
            }
        }
    }
}
