//! The Ring ORAM protocol engine with String ORAM's Compact Bucket.
//!
//! [`RingOram`] maintains the full controller state — tree buckets (rows of
//! one chunked slab, linked root to leaf and grown lazily), position map,
//! stash, counters — and turns each logical program access into a sequence
//! of [`AccessPlan`]s. Each plan corresponds to one atomic ORAM transaction
//! on the memory system; the timing layers (`mem-sched`, `string-oram`)
//! decide how long those transactions take.
//!
//! # Pre-loaded tree
//!
//! A deployed ORAM stores the whole protected address space, so buckets are
//! far from empty; green-block availability (and therefore the Compact
//! Bucket's behaviour) depends on that occupancy. Because materializing the
//! paper's 16.7 M buckets eagerly is pointless for traces that touch a tiny
//! fraction of them, buckets are created on first touch, pre-filled with
//! *cold blocks* drawn `Binomial(Z, load_factor)` — synthetic resident
//! blocks with identifiers above [`RingOram::COLD_BASE`], each pinned to a
//! position-map path consistent with its bucket. Cold blocks flow through
//! stash and evictions exactly like program blocks; they are simply never
//! requested.
//!
//! # First-touch program blocks
//!
//! A program block seen for the first time is assigned a uniform path and
//! enters the stash at the end of its read path (the read path is still
//! performed in full — on the bus a first-touch access is indistinguishable
//! from any other). From then on the block obeys the standard invariant:
//! it is either in the stash or in a bucket on its assigned path.

use oram_rng::{Rng, StdRng};

use crate::bucket::{BlockData, BlockEntry, Bucket, BucketTree};
use crate::config::RingConfig;
use crate::crypto::BlockCipher;
use crate::faults::{FaultEvent, FaultEventKind, OramError, ResilienceConfig};
use crate::plan::{AccessPlan, OpKind, PlanPool, SlotTouch};
use crate::position_map::{self, PositionMap};
use crate::stash::Stash;
use crate::tree::TreeGeometry;
use crate::types::{BlockId, BucketId, FetchKind, Level, PathId};

/// Where a requested block was ultimately served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetSource {
    /// Found in an off-chip bucket along its path.
    Tree(Level),
    /// Found in the on-chip tree-top cache.
    TreeTop(Level),
    /// Already in the stash (e.g. fetched earlier as a green block).
    Stash,
    /// First-ever touch of this block.
    New,
}

/// The result of one logical access: the memory transactions it generated
/// and where the block came from.
#[derive(Debug, Clone)]
pub struct AccessOutcome {
    /// ORAM transactions, in the order they must execute.
    pub plans: Vec<AccessPlan>,
    /// Where the target was found.
    pub source: TargetSource,
}

impl AccessOutcome {
    /// Index of the plan whose completion makes the requested data
    /// available to the program: the last read-path (or retry) plan that
    /// actually fetches the target, falling back to the last read path when
    /// the target never leaves the chip (stash / tree-top / first-touch
    /// hits — the path is still performed in full for obliviousness).
    /// `None` when the access produced no read-path plan at all.
    #[must_use]
    pub fn wake_plan_index(&self) -> Option<usize> {
        self.plans
            .iter()
            .rposition(|p| {
                matches!(p.kind, OpKind::ReadPath | OpKind::RetryRead) && p.target_index.is_some()
            })
            .or_else(|| self.plans.iter().rposition(|p| p.kind == OpKind::ReadPath))
    }

    /// Whether the target was served from an off-chip tree bucket (its
    /// payload travels on the memory bus, so the program must wait for the
    /// fetch's data, not merely for the transaction to retire).
    #[must_use]
    pub fn served_from_tree(&self) -> bool {
        matches!(self.source, TargetSource::Tree(_))
    }
}

/// Protocol-level statistics, accumulated across the instance's lifetime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProtocolStats {
    /// Program-serving read paths.
    pub read_paths: u64,
    /// Dummy read paths issued for background eviction.
    pub dummy_read_paths: u64,
    /// Scheduled (every `A`) evictions, including those reached via
    /// background dummy reads.
    pub evictions: u64,
    /// Background evictions (stash-pressure-triggered) out of the total.
    pub background_evictions: u64,
    /// Early reshuffles of over-touched buckets (budget `S` exhausted).
    pub early_reshuffles: u64,
    /// CB-specific forced reshuffles: bucket could serve neither a dummy
    /// nor a green fetch despite remaining budget.
    pub forced_reshuffles: u64,
    /// Green blocks brought into the stash.
    pub greens_fetched: u64,
    /// Targets found in off-chip tree buckets.
    pub targets_from_tree: u64,
    /// Targets found in the on-chip tree top.
    pub targets_from_treetop: u64,
    /// Targets already in the stash.
    pub targets_from_stash: u64,
    /// First-touch blocks.
    pub new_blocks: u64,
    /// Stash occupancy sampled after every program read path.
    pub stash_samples: Vec<usize>,
    /// Block encryptions performed by the E/D logic (writes to the tree).
    pub encryptions: u64,
    /// Block decryptions performed by the E/D logic (fetches with payload).
    pub decryptions: u64,
    /// Transit corruptions injected by the fault layer (including ones on
    /// retried transfers).
    pub faults_injected: u64,
    /// Injected corruptions caught by the integrity tag.
    pub faults_detected: u64,
    /// Slot re-reads performed to recover corrupted fetches.
    pub fault_retries: u64,
    /// Corrupted fetches that recovered within the retry budget.
    pub faults_recovered: u64,
    /// Corrupted fetches that exhausted the retry budget (payload lost).
    pub faults_unrecovered: u64,
    /// Entries into degraded mode (green substitution disabled).
    pub degraded_entries: u64,
    /// Exits from degraded mode.
    pub degraded_exits: u64,
    /// Extra background-eviction rounds forced by the stash escalation
    /// watermark (before the hard capacity loop).
    pub background_escalations: u64,
}

impl ProtocolStats {
    /// Counter-wise difference `self - earlier`, for measurement windows;
    /// `stash_samples` keeps only the samples recorded after the snapshot.
    #[must_use]
    pub fn delta(&self, earlier: &Self) -> Self {
        Self {
            read_paths: self.read_paths - earlier.read_paths,
            dummy_read_paths: self.dummy_read_paths - earlier.dummy_read_paths,
            evictions: self.evictions - earlier.evictions,
            background_evictions: self.background_evictions - earlier.background_evictions,
            early_reshuffles: self.early_reshuffles - earlier.early_reshuffles,
            forced_reshuffles: self.forced_reshuffles - earlier.forced_reshuffles,
            greens_fetched: self.greens_fetched - earlier.greens_fetched,
            targets_from_tree: self.targets_from_tree - earlier.targets_from_tree,
            targets_from_treetop: self.targets_from_treetop - earlier.targets_from_treetop,
            targets_from_stash: self.targets_from_stash - earlier.targets_from_stash,
            new_blocks: self.new_blocks - earlier.new_blocks,
            stash_samples: self.stash_samples[earlier.stash_samples.len()..].to_vec(),
            encryptions: self.encryptions - earlier.encryptions,
            decryptions: self.decryptions - earlier.decryptions,
            faults_injected: self.faults_injected - earlier.faults_injected,
            faults_detected: self.faults_detected - earlier.faults_detected,
            fault_retries: self.fault_retries - earlier.fault_retries,
            faults_recovered: self.faults_recovered - earlier.faults_recovered,
            faults_unrecovered: self.faults_unrecovered - earlier.faults_unrecovered,
            degraded_entries: self.degraded_entries - earlier.degraded_entries,
            degraded_exits: self.degraded_exits - earlier.degraded_exits,
            background_escalations: self.background_escalations - earlier.background_escalations,
        }
    }

    /// Folds the counters of a *disjoint* ORAM instance into `self`, for
    /// combining per-shard statistics into one merged view: every counter
    /// adds; `stash_samples` appends `other`'s samples (callers merging
    /// shards do so in shard-id order, keeping the merge deterministic).
    pub fn merge_from(&mut self, other: &Self) {
        self.read_paths += other.read_paths;
        self.dummy_read_paths += other.dummy_read_paths;
        self.evictions += other.evictions;
        self.background_evictions += other.background_evictions;
        self.early_reshuffles += other.early_reshuffles;
        self.forced_reshuffles += other.forced_reshuffles;
        self.greens_fetched += other.greens_fetched;
        self.targets_from_tree += other.targets_from_tree;
        self.targets_from_treetop += other.targets_from_treetop;
        self.targets_from_stash += other.targets_from_stash;
        self.new_blocks += other.new_blocks;
        self.stash_samples.extend_from_slice(&other.stash_samples);
        self.encryptions += other.encryptions;
        self.decryptions += other.decryptions;
        self.faults_injected += other.faults_injected;
        self.faults_detected += other.faults_detected;
        self.fault_retries += other.fault_retries;
        self.faults_recovered += other.faults_recovered;
        self.faults_unrecovered += other.faults_unrecovered;
        self.degraded_entries += other.degraded_entries;
        self.degraded_exits += other.degraded_exits;
        self.background_escalations += other.background_escalations;
    }

    /// Green blocks fetched per program read path (the paper's Fig. 13
    /// lower panel).
    #[must_use]
    pub fn greens_per_read(&self) -> f64 {
        if self.read_paths == 0 {
            0.0
        } else {
            self.greens_fetched as f64 / self.read_paths as f64
        }
    }
}

/// Live resilience state: the dedicated fault RNG, the degraded-mode flag
/// and the append-only event log. The fault RNG is never shared with the
/// protocol RNG, so enabling faults cannot perturb the access sequence.
struct ResilienceState {
    cfg: ResilienceConfig,
    rng: StdRng,
    degraded: bool,
    events: Vec<FaultEvent>,
}

/// Reusable buffers for the steady-state access path.
///
/// Ownership rule: every vector here belongs to exactly one helper
/// (`read_path`, `reshuffle_bucket`, `evict`, or the seal/unseal pair),
/// which takes it empty at entry and returns it empty at exit, so helpers
/// never alias a buffer across their (strictly sequential) call graph. The
/// pooled lists ([`PlanPool`], payload boxes) flow out through
/// [`AccessOutcome`]s and come back via [`RingOram::recycle_outcome`];
/// callers that drop outcomes instead just let the pools refill lazily. Net
/// effect: a warm controller performs no heap allocation per access — the
/// allocation-regression test in the `string-oram` crate pins this.
#[derive(Default)]
struct Scratch {
    /// Plan and touch vectors backing [`AccessOutcome`]s.
    pool: PlanPool,
    /// `read_path`: forced reshuffles emitted ahead of the path.
    reshuffles: Vec<AccessPlan>,
    /// `read_path`: buckets whose dummy budget this path exhausted.
    exhausted: Vec<BucketId>,
    /// `reshuffle_bucket` / `evict`: real-slot indices for read touches.
    real_slots: Vec<u32>,
    /// `reshuffle_bucket` / `evict`: blocks pulled out of a bucket.
    entries: Vec<BlockEntry>,
    /// `reshuffle_bucket` / `evict`: entries staged for a bucket reload.
    resealed: Vec<BlockEntry>,
    /// `materialize_entry`: cold blocks staged for a fresh bucket.
    cold: Vec<BlockEntry>,
    /// `evict`: eviction candidates grouped by deepest eligible level.
    by_depth: Vec<Vec<BlockId>>,
    /// `evict`: the candidates eligible at the level being written.
    eligible: Vec<BlockId>,
    /// Pool of plaintext payload boxes (`block_bytes` each).
    plain_boxes: Vec<BlockData>,
    /// Pool of sealed payload boxes (`block_bytes` + nonce + tag each).
    sealed_boxes: Vec<BlockData>,
    /// `seal_entries_batch`: sealed buffers staged for one batch sweep.
    batch_sealed: Vec<BlockData>,
}

impl Scratch {
    /// Pops a pooled payload box of exactly `len` bytes, or allocates one.
    fn payload_box(pool: &mut Vec<BlockData>, len: usize) -> BlockData {
        match pool.pop() {
            Some(b) if b.len() == len => b,
            _ => vec![0u8; len].into_boxed_slice(),
        }
    }
}

/// How one real-block fetch resolved under the fault layer.
enum FetchResolution {
    /// No corruption (or faults disabled): the transfer arrived intact.
    Clean,
    /// Corrupted, detected, and recovered by a bounded re-read.
    Recovered,
    /// Corrupted and the retry budget exhausted: payload lost.
    Unrecovered,
}

/// The Ring ORAM / String ORAM controller state machine.
pub struct RingOram {
    cfg: RingConfig,
    geometry: TreeGeometry,
    buckets: BucketTree,
    position_map: PositionMap,
    stash: Stash,
    /// Read paths since the last eviction (eviction fires at `A`).
    reads_since_eviction: u32,
    /// Eviction counter `G` driving the reverse lexicographic order.
    eviction_count: u64,
    /// Fraction of each fresh bucket's `Z` slots pre-filled with cold
    /// blocks.
    load_factor: f64,
    next_cold: u64,
    rng: StdRng,
    stats: ProtocolStats,
    /// E/D logic: when present, payloads are stored encrypted in the tree
    /// and re-encrypted with a fresh nonce on every write-back.
    cipher: Option<BlockCipher>,
    nonce_counter: u64,
    /// Fault injection and graceful degradation, when enabled.
    resilience: Option<ResilienceState>,
    /// Reusable buffers for the steady-state access path (see [`Scratch`]).
    scratch: Scratch,
}

impl std::fmt::Debug for RingOram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingOram")
            .field("cfg", &self.cfg)
            .field("buckets_materialized", &self.buckets.materialized())
            .field("stash_len", &self.stash.len())
            .field("reads_since_eviction", &self.reads_since_eviction)
            .field("eviction_count", &self.eviction_count)
            .finish_non_exhaustive()
    }
}

/// Looks up `id` in `buckets`, cold-filling it on first touch. A free
/// function over disjoint [`RingOram`] fields so the hot read path can keep
/// borrows of the other fields (the RNG in particular) usable across the
/// returned bucket reference.
///
/// The protocol RNG is drawn in a fixed order every golden digest depends
/// on: `Z` × `gen_bool(load)`, each hit followed by its `gen_range` path
/// tail (below the leaf level), then the bucket's shuffle.
#[allow(clippy::too_many_arguments)] // a borrow-split of RingOram's fields
fn materialize_entry<'a>(
    buckets: &'a mut BucketTree,
    geometry: &TreeGeometry,
    cfg: &RingConfig,
    load_factor: f64,
    position_map: &mut PositionMap,
    next_cold: &mut u64,
    cold: &mut Vec<BlockEntry>,
    rng: &mut StdRng,
    id: BucketId,
) -> Bucket<'a> {
    buckets.bucket_or_fill(id, |bucket| {
        let level = geometry.level_of(id);
        let pos_in_level = id.0 - ((1u64 << level.0) - 1);
        let tail_bits = geometry.max_level() - level.0;
        for _ in 0..cfg.z {
            if rng.gen_bool(load_factor) {
                let block = BlockId(*next_cold);
                *next_cold += 1;
                let low = if tail_bits == 0 {
                    0
                } else {
                    rng.gen_range(0..(1u64 << tail_bits))
                };
                let path = PathId((pos_in_level << tail_bits) | low);
                position_map.insert(block, path);
                cold.push((block, None));
            }
        }
        bucket.reload(cfg, cold, rng);
    })
}

impl RingOram {
    /// Identifiers at or above this value are reserved for cold (pre-loaded)
    /// blocks; program block ids must stay below it.
    pub const COLD_BASE: u64 = position_map::COLD_BASE;

    /// Default pre-load factor (see the module docs). Calibrated to 0.7:
    /// back-computing from the paper's Fig. 13 green-fetch rates (3.26
    /// greens/read at Y=8 over 18 off-chip levels) implies buckets held
    /// roughly 70 % of their Z real slots in the paper's experiments.
    pub const DEFAULT_LOAD_FACTOR: f64 = 0.7;

    /// Creates a controller with the default pre-load factor.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RingConfig::validate`].
    #[must_use]
    pub fn new(cfg: RingConfig, seed: u64) -> Self {
        Self::with_load_factor(cfg, seed, Self::DEFAULT_LOAD_FACTOR)
    }

    /// Creates a controller whose lazily materialized buckets are pre-filled
    /// with `Binomial(Z, load_factor)` cold blocks each.
    ///
    /// Capacity rule: the program's working set plus the cold pre-load must
    /// fit the tree with slack — roughly
    /// `working_set + load_factor * real_capacity <= 0.9 * real_capacity` —
    /// otherwise surplus blocks have nowhere to evict, the stash saturates,
    /// and background eviction aborts (see [`Self::access`]).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or `load_factor` is outside `[0, 1]`.
    #[must_use]
    pub fn with_load_factor(cfg: RingConfig, seed: u64, load_factor: f64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid RingConfig: {e}");
        }
        assert!(
            (0.0..=1.0).contains(&load_factor),
            "load_factor must be in [0, 1]"
        );
        let geometry = TreeGeometry::new(cfg.levels);
        let position_map = PositionMap::new(geometry.leaf_count());
        // The write-back's eligible pool is at most the stash: sized for the
        // provisioned capacity plus the path an eviction reads into it.
        let scratch = Scratch {
            eligible: Vec::with_capacity(cfg.stash_capacity + (cfg.levels * cfg.z) as usize),
            ..Scratch::default()
        };
        Self {
            buckets: BucketTree::new(&cfg),
            cfg,
            geometry,
            position_map,
            stash: Stash::new(),
            reads_since_eviction: 0,
            eviction_count: 0,
            load_factor,
            next_cold: Self::COLD_BASE,
            rng: StdRng::seed_from_u64(seed),
            stats: ProtocolStats::default(),
            cipher: None,
            nonce_counter: 0,
            resilience: None,
            scratch,
        }
    }

    /// Enables encryption-at-rest emulation with the fast (insecure)
    /// splitmix keystream: every payload written to the tree is sealed
    /// under `key` with a fresh nonce, and unsealed when it re-enters the
    /// trusted boundary. See [`crate::crypto`] for the cipher options.
    pub fn enable_encryption(&mut self, key: u64) {
        self.cipher = Some(BlockCipher::new(key));
    }

    /// Enables encryption-at-rest with AES-128-CTR (FIPS-197-verified
    /// implementation). The sealed format carries the same keyed integrity
    /// tag as the splitmix cipher — corruption of a sealed blob is detected
    /// on unseal — but the implementation is not constant-time, so it is
    /// simulation-grade only.
    pub fn enable_aes_encryption(&mut self, key: [u8; 16]) {
        self.cipher = Some(BlockCipher::aes(key));
    }

    /// Whether encryption-at-rest emulation is enabled.
    #[must_use]
    pub fn encryption_enabled(&self) -> bool {
        self.cipher.is_some()
    }

    /// Enables deterministic fault injection and graceful degradation.
    ///
    /// The fault schedule is drawn from a dedicated RNG seeded with
    /// `cfg.fault_seed`; it never touches the protocol RNG, so the access
    /// sequence of a faulty run is identical to the fault-free run with the
    /// same protocol seed. Detection of injected corruptions requires
    /// encryption to be enabled (the integrity tag lives in the sealed
    /// format); without a cipher, injected faults are logged but flow on
    /// undetected — which the `sim-verify` fault auditor flags.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ResilienceConfig::validate`] against the
    /// configured stash capacity.
    pub fn enable_resilience(&mut self, cfg: ResilienceConfig) {
        if let Err(e) = cfg.validate(self.cfg.stash_capacity) {
            panic!("invalid ResilienceConfig: {e}");
        }
        self.resilience = Some(ResilienceState {
            rng: StdRng::seed_from_u64(cfg.fault_seed),
            cfg,
            degraded: false,
            events: Vec::new(),
        });
    }

    /// Whether fault injection / graceful degradation is enabled.
    #[must_use]
    pub fn resilience_enabled(&self) -> bool {
        self.resilience.is_some()
    }

    /// Whether the controller is currently in degraded mode (CB green-slot
    /// substitution disabled until stash pressure drains).
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.resilience.as_ref().is_some_and(|r| r.degraded)
    }

    /// Drains and returns the accumulated fault-event log (empty when
    /// resilience is disabled or no faults fired since the last drain).
    pub fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        self.resilience
            .as_mut()
            .map(|r| std::mem::take(&mut r.events))
            .unwrap_or_default()
    }

    /// Appends a fault event to the log (no-op when resilience is off).
    fn record_fault(&mut self, access: u64, bucket: BucketId, slot: u32, kind: FaultEventKind) {
        if let Some(r) = self.resilience.as_mut() {
            r.events.push(FaultEvent {
                access,
                bucket,
                slot,
                kind,
            });
        }
    }

    /// Re-seals every payload-bearing entry in place, as one contiguous
    /// batch under consecutive nonces. Byte-identical to sealing each
    /// entry individually (same nonce sequence, same wire format), but the
    /// cipher sweeps the whole transaction's slots in one
    /// [`BlockCipher::seal_batch`] pass — round keys and the shared S-box
    /// are set up once, not per slot — with buffers drawn from the pools.
    fn seal_entries_batch(&mut self, entries: &mut [BlockEntry]) {
        if self.cipher.is_none() {
            return;
        }
        let mut outs = std::mem::take(&mut self.scratch.batch_sealed);
        for (_, d) in entries.iter() {
            if let Some(plain) = d.as_deref() {
                outs.push(Scratch::payload_box(
                    &mut self.scratch.sealed_boxes,
                    BlockCipher::sealed_len(plain.len()),
                ));
            }
        }
        if let Some(c) = &self.cipher {
            c.seal_batch(
                self.nonce_counter + 1,
                entries
                    .iter()
                    .filter_map(|(_, d)| d.as_deref())
                    .zip(outs.iter_mut().map(|o| &mut **o)),
            );
        }
        self.nonce_counter += outs.len() as u64;
        self.stats.encryptions += outs.len() as u64;
        // Stitch the sealed blobs back into slot order; recycle the plains.
        let mut sealed = outs.drain(..);
        for (_, d) in entries.iter_mut() {
            if let Some(plain) = d.take() {
                *d = sealed.next();
                self.scratch.plain_boxes.push(plain);
            }
        }
        drop(sealed);
        self.scratch.batch_sealed = outs;
    }

    /// Unseals a payload fetched from the tree into the trusted boundary.
    /// The plaintext buffer comes from the pool and the consumed sealed box
    /// is recycled — the mirror of [`Self::seal_entries_batch`].
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn unseal(&mut self, data: Option<BlockData>) -> Option<BlockData> {
        match (&self.cipher, data) {
            (Some(c), Some(d)) => {
                self.stats.decryptions += 1;
                let plain_len = d
                    .len()
                    .saturating_sub(BlockCipher::NONCE_BYTES + BlockCipher::TAG_BYTES);
                let mut out = Scratch::payload_box(&mut self.scratch.plain_boxes, plain_len);
                c.open_into(&d, &mut out)
                    .expect("tree payloads are always sealed");
                self.scratch.sealed_boxes.push(d);
                Some(out)
            }
            (_, d) => d,
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    /// The tree geometry.
    #[must_use]
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &ProtocolStats {
        &self.stats
    }

    /// Current stash occupancy.
    #[must_use]
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Peak stash occupancy observed.
    #[must_use]
    pub fn stash_peak(&self) -> usize {
        self.stash.peak()
    }

    /// Number of buckets materialized so far.
    #[must_use]
    pub fn materialized_buckets(&self) -> usize {
        self.buckets.materialized()
    }

    fn is_cached_level(&self, level: Level) -> bool {
        level.0 < self.cfg.tree_top_cached_levels
    }

    /// Materializes (if needed) and returns the bucket, pre-filling it with
    /// cold blocks pinned to compatible paths.
    fn bucket_mut(&mut self, id: BucketId) -> Bucket<'_> {
        materialize_entry(
            &mut self.buckets,
            &self.geometry,
            &self.cfg,
            self.load_factor,
            &mut self.position_map,
            &mut self.next_cold,
            &mut self.scratch.cold,
            &mut self.rng,
            id,
        )
    }

    /// Performs one logical program access (ORAM treats loads and stores
    /// identically: fetch, update in stash, remap).
    ///
    /// Returns every memory transaction the access generated, in execution
    /// order: forced reshuffles, the read path, post-access early
    /// reshuffles, the periodic eviction when due, and any background
    /// eviction activity (dummy read paths plus extra evictions).
    ///
    /// # Panics
    ///
    /// Panics if `block` collides with the cold-block id space
    /// (`>= COLD_BASE`) or if background eviction cannot stabilize the
    /// stash (pathological configuration) — see [`Self::try_access`] for
    /// the non-panicking form.
    pub fn access(&mut self, block: BlockId) -> AccessOutcome {
        match self.try_access(block) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking form of [`Self::access`]: performs one logical program
    /// access and surfaces unrecoverable protocol failures as structured
    /// [`OramError`]s instead of aborting the process.
    ///
    /// # Errors
    ///
    /// [`OramError::StashOverflow`] when background eviction cannot drain
    /// the stash (the tree is over-full). The controller state is left as
    /// of the failed drain attempt; continuing to access it is allowed but
    /// will keep failing until pressure is relieved.
    ///
    /// # Panics
    ///
    /// Panics if `block` collides with the cold-block id space
    /// (`>= COLD_BASE`) — a caller bug, not a runtime condition.
    pub fn try_access(&mut self, block: BlockId) -> Result<AccessOutcome, OramError> {
        Ok(self.access_inner(block, None, false)?.0)
    }

    /// Plans one **cover access**: a dummy read path along a uniformly
    /// random path, with the same post-read bookkeeping as a program access
    /// (it advances the "`A` reads, one eviction" cadence, participates in
    /// early-reshuffle budgets, and samples stash occupancy). On the bus it
    /// is indistinguishable from the dummy read paths background eviction
    /// already issues, so a serving layer can pad empty submission slots
    /// with it — Cloak-style fixed-rate traffic shaping — without changing
    /// the distribution of what an adversary observes.
    ///
    /// No position-map entry is touched and no block is remapped: the
    /// access serves no program request (aside from CB green substitution,
    /// which opportunistically rides along exactly as it does on background
    /// dummy reads).
    ///
    /// # Errors
    ///
    /// [`OramError::StashOverflow`] under the same conditions as
    /// [`Self::try_access`].
    pub fn cover_access(&mut self) -> Result<AccessOutcome, OramError> {
        let mut plans = self.scratch.pool.plans();
        let path = PathId(self.rng.gen_range(0..self.geometry.leaf_count()));
        let source = self.read_path(&mut plans, path, None, true);
        self.stats.dummy_read_paths += 1;
        self.after_read_path(&mut plans)?;
        self.stats.stash_samples.push(self.stash.len());
        Ok(AccessOutcome { plans, source })
    }

    /// Returns an [`AccessOutcome`]'s buffers to the controller's internal
    /// pools. Purely an optimization: callers that drop outcomes instead
    /// just let the pools refill lazily. The pipeline planner recycles
    /// every outcome it lowers, which is what keeps the steady-state access
    /// path allocation-free.
    pub fn recycle_outcome(&mut self, outcome: AccessOutcome) {
        self.scratch.pool.recycle(outcome.plans);
    }

    /// Pre-sizes per-access bookkeeping (the stash-occupancy sample log)
    /// for `n` further accesses, so steady-state sampling never regrows
    /// its storage mid-run.
    pub fn reserve_accesses(&mut self, n: usize) {
        self.stats.stash_samples.reserve(n);
    }

    /// Reads a block's payload through the oblivious protocol: performs a
    /// full [`Self::access`] and returns a copy of the block's current data
    /// (`None` until the first [`Self::write_block`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::access`].
    pub fn read_block(&mut self, block: BlockId) -> (AccessOutcome, Option<Vec<u8>>) {
        match self.access_inner(block, None, true) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Writes a block's payload through the oblivious protocol: performs a
    /// full [`Self::access`] (fetching the old copy) and replaces the
    /// payload; the data is (re-)encrypted when it is next evicted into the
    /// tree.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not match the configured block size, or under
    /// the same conditions as [`Self::access`].
    pub fn write_block(&mut self, block: BlockId, data: &[u8]) -> AccessOutcome {
        assert_eq!(
            data.len(),
            self.cfg.block_bytes as usize,
            "payload must be exactly block_bytes long"
        );
        match self.access_inner(block, Some(data), false) {
            Ok(out) => out.0,
            Err(e) => panic!("{e}"),
        }
    }

    /// Shared access core: read path, remap, optional payload update, then
    /// eviction/background bookkeeping. The payload snapshot is taken
    /// *before* [`Self::after_read_path`], because the periodic eviction
    /// may legitimately sweep the freshly fetched block back into the tree
    /// within the same logical access.
    fn access_inner(
        &mut self,
        block: BlockId,
        new_data: Option<&[u8]>,
        capture_data: bool,
    ) -> Result<(AccessOutcome, Option<Vec<u8>>), OramError> {
        assert!(
            block.0 < Self::COLD_BASE,
            "program block ids must be below COLD_BASE"
        );
        let mut plans = self.scratch.pool.plans();

        let known = self.position_map.lookup(block).is_some();
        let path = self.position_map.lookup_or_assign(block, &mut self.rng);

        let source = self.read_path(&mut plans, path, Some(block), known);
        self.stats.read_paths += 1;

        // Remap the target and record it (back) in the stash with its new
        // path; the program's store/load happens against the stash copy.
        // The read-path walk already parked the fetched payload (if any) in
        // the stash, so only the path assignment changes here.
        let new_path = self.position_map.remap(block, &mut self.rng);
        self.stash.insert(block, new_path);
        if let Some(d) = new_data {
            self.stash.set_data(block, d.to_vec().into_boxed_slice());
        }
        // Copying the payload out is only needed by `read_block`; plain
        // accesses skip it so the hot path stays allocation-free.
        let data = if capture_data {
            self.stash.data_of(block).map(<[u8]>::to_vec)
        } else {
            None
        };

        self.after_read_path(&mut plans)?;
        self.stats.stash_samples.push(self.stash.len());
        Ok((AccessOutcome { plans, source }, data))
    }

    /// Bookkeeping shared by program and dummy read paths: fire the
    /// periodic eviction and keep the stash below its threshold.
    ///
    /// # Errors
    ///
    /// [`OramError::StashOverflow`] when the capacity drain loop cannot
    /// make progress (over-full tree).
    fn after_read_path(&mut self, plans: &mut Vec<AccessPlan>) -> Result<(), OramError> {
        self.reads_since_eviction += 1;
        if self.reads_since_eviction == self.cfg.a {
            self.reads_since_eviction = 0;
            plans.push(self.evict());
        }

        // Escalation watermark: once stash pressure crosses the (soft)
        // escalation threshold, run one extra leakage-free background round
        // per access so pressure drains before the hard capacity loop is
        // ever needed. Occupancy is a deterministic function of the access
        // stream alone (fault injection never adds or removes stash
        // blocks), so escalation does not leak fault locations.
        let peak_occupancy = self.stash.len();
        let escalate = self
            .resilience
            .as_ref()
            .is_some_and(|r| peak_occupancy >= r.cfg.escalation_watermark);
        if escalate {
            self.background_round(plans);
            self.stats.background_escalations += 1;
        }

        // Background eviction: while the stash is at or above its
        // provisioned capacity, issue leakage-free dummy read paths until
        // the eviction interval A is reached, then evict; repeat. The
        // access sequence on the bus remains "A read paths, one eviction"
        // forever, so the stash pressure is not observable.
        let mut guard = 0u32;
        while self.stash.len() >= self.cfg.stash_capacity {
            guard += 1;
            if guard > 1024 {
                return Err(OramError::StashOverflow {
                    occupancy: self.stash.len(),
                    capacity: self.cfg.stash_capacity,
                    real_capacity: self.cfg.real_capacity_blocks(),
                });
            }
            self.background_round(plans);
            self.stats.background_evictions += 1;
        }

        // Degraded-mode hysteresis: entry is decided on the access's *peak*
        // occupancy (before the escalation and capacity rounds relieved it
        // — the spike is the signal that green substitution is feeding the
        // stash faster than eviction drains it), while exit requires the
        // *drained* occupancy to fall to the resume watermark. While
        // degraded, green substitution is suspended, cutting stash inflow.
        if let Some(r) = self.resilience.as_mut() {
            if !r.degraded && peak_occupancy >= r.cfg.degrade_watermark {
                r.degraded = true;
                self.stats.degraded_entries += 1;
            } else if r.degraded && self.stash.len() <= r.cfg.resume_watermark {
                r.degraded = false;
                self.stats.degraded_exits += 1;
            }
        }
        Ok(())
    }

    /// One leakage-free background round: dummy read paths until the
    /// eviction interval `A` is reached, then the eviction. Keeps the
    /// public "A reads, one eviction" cadence intact.
    fn background_round(&mut self, plans: &mut Vec<AccessPlan>) {
        loop {
            let p = PathId(self.rng.gen_range(0..self.geometry.leaf_count()));
            let _ = self.read_path(plans, p, None, true);
            self.stats.dummy_read_paths += 1;
            self.reads_since_eviction += 1;
            if self.reads_since_eviction == self.cfg.a {
                self.reads_since_eviction = 0;
                break;
            }
        }
        plans.push(self.evict());
    }

    /// Executes one (possibly dummy) read path along `path`, appending the
    /// generated plans. Returns where the target was found.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn read_path(
        &mut self,
        plans: &mut Vec<AccessPlan>,
        path: PathId,
        target: Option<BlockId>,
        known: bool,
    ) -> TargetSource {
        let (mut source, mut searching) = match target {
            Some(_) if !known => {
                self.stats.new_blocks += 1;
                (TargetSource::New, false)
            }
            Some(b) if self.stash.contains(b) => {
                self.stats.targets_from_stash += 1;
                (TargetSource::Stash, false)
            }
            Some(_) => (TargetSource::Stash, true), // provisional until found
            None => (TargetSource::Stash, false),   // dummy read path
        };

        let mut touches = self.scratch.pool.touches(self.cfg.levels as usize);
        let mut target_index = None;
        let mut reshuffles = std::mem::take(&mut self.scratch.reshuffles);
        // Off-chip buckets whose dummy budget `S` this path exhausted,
        // in level order; early-reshuffled after the path is emitted.
        let mut exhausted = std::mem::take(&mut self.scratch.exhausted);
        // Retry traffic accumulated by the fault layer: extra reads of
        // already-public slots, emitted as one RetryRead plan after the
        // read path itself.
        let mut retry_touches = self.scratch.pool.touches(0);
        let mut retry_target_index = None;
        // Degraded mode gates CB green substitution for the whole path;
        // the flag only changes in `after_read_path`, never mid-path.
        let allow_green = !self.degraded();

        for lvl in 0..self.cfg.levels {
            let level = Level(lvl);
            let id = self.geometry.bucket_at(path, level);
            if self.is_cached_level(level) {
                // On-chip levels: a target found here is taken directly;
                // no memory traffic, no metadata churn.
                if searching {
                    if let Some(b) = target {
                        let mut bucket = self.bucket_mut(id);
                        if let Some(slot) = bucket.peek().find(b) {
                            let data = bucket.clear_slot(slot);
                            let data = self.unseal(data);
                            self.stash.insert_with_data(b, path, data);
                            self.stats.targets_from_treetop += 1;
                            source = TargetSource::TreeTop(level);
                            searching = false;
                        }
                    }
                }
                continue;
            }

            // CB-specific: reshuffle first if the bucket cannot serve a
            // non-target touch and does not hold the target.
            let want = if searching { target } else { None };
            let mut bucket = materialize_entry(
                &mut self.buckets,
                &self.geometry,
                &self.cfg,
                self.load_factor,
                &mut self.position_map,
                &mut self.next_cold,
                &mut self.scratch.cold,
                &mut self.rng,
                id,
            );
            // `holds_target` must follow `want`, not `target`: once the
            // search has ended, the bucket must serve a dummy/green even if
            // it happens to hold the (stale) target block.
            let holds_target = want.is_some_and(|b| bucket.peek().find(b).is_some());
            if !holds_target && bucket.peek().needs_reshuffle_gated(&self.cfg, allow_green) {
                reshuffles.push(self.reshuffle_bucket(id));
                self.stats.forced_reshuffles += 1;
                bucket = self.buckets.get_mut(id).expect("materialized above");
            }
            let (slot, kind, data) =
                bucket.serve_read_gated(&self.cfg, want, allow_green, &mut self.rng);
            // Budget exhaustion is decided now (this path's touch included):
            // the bucket is revisited only by its own early reshuffle below,
            // so sampling here matches the post-path scan it replaces.
            if bucket.peek().accesses() >= self.cfg.s {
                exhausted.push(id);
            }
            match kind {
                FetchKind::Target(b) => {
                    debug_assert_eq!(Some(b), target);
                    let (data, resolution) =
                        self.resolve_fetch(id, slot as u32, data, &mut retry_touches);
                    self.stash.insert_with_data(b, path, data);
                    self.stats.targets_from_tree += 1;
                    source = TargetSource::Tree(level);
                    searching = false;
                    target_index = Some(touches.len());
                    if matches!(resolution, FetchResolution::Recovered) {
                        // The program's data arrives with the *last* retry
                        // of this fetch; the RetryRead plan carries that as
                        // its target index for latency accounting.
                        retry_target_index = Some(retry_touches.len() - 1);
                    }
                }
                FetchKind::Green(b) => {
                    // The green block keeps its current path assignment; it
                    // was never identified on the bus, so no remap needed.
                    let p = self
                        .position_map
                        .lookup(b)
                        .expect("green blocks are always mapped");
                    let (data, _) = self.resolve_fetch(id, slot as u32, data, &mut retry_touches);
                    self.stash.insert_with_data(b, p, data);
                    self.stats.greens_fetched += 1;
                }
                FetchKind::Dummy => {}
            }
            touches.push(SlotTouch::read(id, slot as u32));
        }

        // Emit forced reshuffles before the read path itself (they must
        // complete before the path can be read), then the read path, then
        // the post-access early reshuffles for buckets that hit budget S.
        plans.append(&mut reshuffles);
        self.scratch.reshuffles = reshuffles;
        let kind = if target.is_some() {
            OpKind::ReadPath
        } else {
            OpKind::DummyReadPath
        };
        plans.push(AccessPlan::new(kind, touches, target_index));
        if retry_touches.is_empty() {
            self.scratch.pool.put_touches(retry_touches);
        } else {
            plans.push(AccessPlan::new(
                OpKind::RetryRead,
                retry_touches,
                retry_target_index,
            ));
        }

        for &id in &exhausted {
            let plan = self.reshuffle_bucket(id);
            plans.push(plan);
            self.stats.early_reshuffles += 1;
        }
        exhausted.clear();
        self.scratch.exhausted = exhausted;
        source
    }

    /// Runs one fetched real block through the transit-fault pipeline:
    /// decides from the fault schedule whether the transfer was corrupted,
    /// verifies integrity via the sealed format's tag, and performs bounded
    /// re-reads (the DRAM-resident copy is intact, so a clean re-transfer
    /// recovers). Appends one read touch per retry to `retry_touches` and
    /// returns the surviving (unsealed) payload plus how the fetch
    /// resolved.
    ///
    /// Without a cipher there is no integrity tag: the corruption is
    /// applied to the raw payload (when one exists) and flows on
    /// *undetected* — the fault log records only `Injected`, which the
    /// `sim-verify` fault auditor flags as a missed detection.
    fn resolve_fetch(
        &mut self,
        id: BucketId,
        slot: u32,
        data: Option<BlockData>,
        retry_touches: &mut Vec<SlotTouch>,
    ) -> (Option<BlockData>, FetchResolution) {
        let (rate, max_retries) = match self.resilience.as_ref() {
            Some(r) if r.cfg.bit_flip_rate > 0.0 => (r.cfg.bit_flip_rate, r.cfg.max_retries),
            _ => return (self.unseal(data), FetchResolution::Clean),
        };
        let access = self.stats.read_paths;
        let corrupted = self
            .resilience
            .as_mut()
            .is_some_and(|r| r.rng.gen_bool(rate));
        if !corrupted {
            return (self.unseal(data), FetchResolution::Clean);
        }

        self.record_fault(access, id, slot, FaultEventKind::Injected);
        self.stats.faults_injected += 1;

        if self.cipher.is_none() {
            // No integrity tag: garble the payload copy (the simulator
            // stores payloads lazily; metadata-only fetches have nothing to
            // garble) and proceed as if nothing happened.
            let garbled = match (data, self.resilience.as_mut()) {
                (Some(mut d), Some(r)) if !d.is_empty() => {
                    let bit = r.rng.gen_range(0..(d.len() as u64 * 8)) as usize;
                    d[bit / 8] ^= 1 << (bit % 8);
                    Some(d)
                }
                (d, _) => d,
            };
            return (garbled, FetchResolution::Clean);
        }

        // Detection: when a payload exists, physically corrupt a copy of
        // the sealed bytes and let the tag verification fail; metadata-only
        // fetches model the same check directly (a real controller MACs the
        // whole slot transfer, payload and all — the simulator just does
        // not materialize untouched payload bytes).
        if let (Some(c), Some(d), Some(r)) = (&self.cipher, &data, self.resilience.as_mut()) {
            let mut copy = d.to_vec();
            let bit = r.rng.gen_range(0..(copy.len() as u64 * 8)) as usize;
            copy[bit / 8] ^= 1 << (bit % 8);
            debug_assert!(
                c.open(&copy).is_err(),
                "a corrupted transfer must fail its integrity tag"
            );
        }
        self.record_fault(access, id, slot, FaultEventKind::Detected);
        self.stats.faults_detected += 1;

        // Bounded recovery: re-read the same (already public) slot up to
        // `max_retries` times; each re-transfer is independently subject to
        // corruption.
        let mut recovered = false;
        for _ in 0..max_retries {
            self.record_fault(access, id, slot, FaultEventKind::Retried);
            self.stats.fault_retries += 1;
            retry_touches.push(SlotTouch::read(id, slot));
            let again = self
                .resilience
                .as_mut()
                .is_some_and(|r| r.rng.gen_bool(rate));
            if again {
                self.record_fault(access, id, slot, FaultEventKind::Injected);
                self.stats.faults_injected += 1;
                self.record_fault(access, id, slot, FaultEventKind::Detected);
                self.stats.faults_detected += 1;
                continue;
            }
            recovered = true;
            break;
        }
        if recovered {
            self.record_fault(access, id, slot, FaultEventKind::Recovered);
            self.stats.faults_recovered += 1;
            (self.unseal(data), FetchResolution::Recovered)
        } else {
            self.record_fault(access, id, slot, FaultEventKind::Unrecovered);
            self.stats.faults_unrecovered += 1;
            (None, FetchResolution::Unrecovered)
        }
    }

    /// Early-reshuffles `id`: reads its `Z` real slots and rewrites the full
    /// bucket with fresh metadata and permutation.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn reshuffle_bucket(&mut self, id: BucketId) -> AccessPlan {
        let z = self.cfg.z;
        let slots = self.cfg.bucket_slots();
        let mut read_slots = std::mem::take(&mut self.scratch.real_slots);
        let mut entries = std::mem::take(&mut self.scratch.entries);
        let mut bucket = self.bucket_mut(id);
        // Capture current real-slot indices for the read touches.
        read_slots.extend((0..slots).filter(|&s| bucket.peek().slot_holds_real(s as usize)));
        bucket.take_real_blocks_into(&mut entries);
        // Re-encrypt every surviving payload under a fresh nonce (the
        // reshuffle's defining obligation besides the permutation): unseal
        // each entry, then re-seal the whole bucket as one contiguous batch.
        let mut resealed = std::mem::take(&mut self.scratch.resealed);
        for (b, d) in entries.drain(..) {
            let plain = self.unseal(d);
            resealed.push((b, plain));
        }
        self.seal_entries_batch(&mut resealed);
        self.buckets.get_mut(id).expect("materialized").reload(
            &self.cfg,
            &mut resealed,
            &mut self.rng,
        );
        self.scratch.entries = entries;
        self.scratch.resealed = resealed;

        let mut touches = self.scratch.pool.touches((z + slots) as usize);
        // Read phase: Z slot reads (the real slots, padded to Z).
        let mut filler = 0u32;
        while (read_slots.len() as u32) < z {
            if !read_slots.contains(&filler) {
                read_slots.push(filler);
            }
            filler += 1;
        }
        read_slots.truncate(z as usize);
        for &s in &read_slots {
            touches.push(SlotTouch::read(id, s));
        }
        read_slots.clear();
        self.scratch.real_slots = read_slots;
        // Write phase: full bucket rewrite.
        for s in 0..slots {
            touches.push(SlotTouch::write(id, s));
        }
        AccessPlan::new(OpKind::EarlyReshuffle, touches, None)
    }

    /// Performs the periodic eviction along the next reverse-lexicographic
    /// path: reads the `Z` real slots of every bucket on the path into the
    /// stash, then rewrites the buckets leaf-to-root with as many compatible
    /// stash blocks as fit.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn evict(&mut self) -> AccessPlan {
        let path = self
            .geometry
            .reverse_lexicographic_path(self.eviction_count);
        self.eviction_count += 1;
        self.stats.evictions += 1;

        let z = self.cfg.z;
        let slots = self.cfg.bucket_slots();
        let mut touches = self.scratch.pool.touches(0);
        let mut read_slots = std::mem::take(&mut self.scratch.real_slots);
        let mut entries = std::mem::take(&mut self.scratch.entries);

        // Read phase (root to leaf): pull every real block into the stash.
        for lvl in 0..self.cfg.levels {
            let level = Level(lvl);
            let id = self.geometry.bucket_at(path, level);
            let off_chip = !self.is_cached_level(level);
            let mut bucket = self.bucket_mut(id);
            read_slots.clear();
            read_slots.extend((0..slots).filter(|&s| bucket.peek().slot_holds_real(s as usize)));
            bucket.take_real_blocks_into(&mut entries);
            if off_chip {
                let mut filler = 0u32;
                while (read_slots.len() as u32) < z {
                    if !read_slots.contains(&filler) {
                        read_slots.push(filler);
                    }
                    filler += 1;
                }
                read_slots.truncate(z as usize);
                for &s in &read_slots {
                    touches.push(SlotTouch::read(id, s));
                }
            }
            for (b, d) in entries.drain(..) {
                let p = self
                    .position_map
                    .lookup(b)
                    .expect("tree blocks are always mapped");
                let d = self.unseal(d);
                self.stash.insert_with_data(b, p, d);
            }
        }
        read_slots.clear();
        self.scratch.real_slots = read_slots;
        self.scratch.entries = entries;

        // Write phase (leaf to root): greedy deepest-first placement. The
        // candidate set is snapshotted once — the phase only removes stash
        // entries, so selecting from the snapshot picks exactly the blocks
        // a fresh per-level scan would. Candidates are grouped by their
        // deepest eligible level; walking leaf to root, each level's group
        // joins the eligible pool and the level takes the pool's `Z`
        // smallest ids, selected in linear time and then sorted — the same
        // blocks in the same ascending order a sorted per-level scan would
        // select, without sorting or rescanning the pool.
        let mut by_depth = std::mem::take(&mut self.scratch.by_depth);
        by_depth.resize_with(self.cfg.levels as usize, Vec::new);
        self.stash
            .for_each_candidate(&self.geometry, path, |b, depth| {
                by_depth[depth.0 as usize].push(b);
            });
        let mut eligible = std::mem::take(&mut self.scratch.eligible);
        let mut sealed = std::mem::take(&mut self.scratch.resealed);
        for lvl in (0..self.cfg.levels).rev() {
            let level = Level(lvl);
            let id = self.geometry.bucket_at(path, level);
            let off_chip = !self.is_cached_level(level);
            eligible.append(&mut by_depth[lvl as usize]);
            // The `Z` smallest go to the tail, in ascending order.
            let rest = eligible.len().saturating_sub(z as usize);
            if rest > 0 {
                eligible.select_nth_unstable_by_key(rest, |&b| std::cmp::Reverse(b));
            }
            eligible[rest..].sort_unstable();
            for &b in &eligible[rest..] {
                let d = self.stash.take(b).expect("candidate still stashed");
                sealed.push((b, d));
            }
            eligible.truncate(rest);
            // One contiguous crypto sweep per bucket instead of a cipher
            // setup per slot; nonce order matches the per-slot code.
            self.seal_entries_batch(&mut sealed);
            self.buckets
                .get_mut(id)
                .expect("materialized in read phase")
                .reload(&self.cfg, &mut sealed, &mut self.rng);
            if off_chip {
                for s in 0..slots {
                    touches.push(SlotTouch::write(id, s));
                }
            }
        }
        // Every group was appended (and so emptied) on the way up.
        self.scratch.by_depth = by_depth;
        eligible.clear();
        self.scratch.eligible = eligible;
        self.scratch.resealed = sealed;
        AccessPlan::new(OpKind::Eviction, touches, None)
    }

    /// Verifies the controller's core invariants; intended for tests and
    /// debugging (cost is proportional to position-map size).
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        let max_level = self.geometry.max_level();
        for (block, path) in self.position_map.iter() {
            // One root-to-leaf walk per block, ending at the first hit.
            let found = self.stash.contains(block)
                || self
                    .buckets
                    .on_path(path, max_level)
                    .any(|b| b.find(block).is_some());
            assert!(
                found,
                "{block} mapped to {path} is neither in stash nor on its path"
            );
        }
        for b in self.buckets.buckets() {
            assert!(
                b.real_count() <= self.cfg.z as usize,
                "a bucket is over capacity: {b:?}"
            );
            assert!(
                b.accesses() <= self.cfg.s,
                "a bucket is over its access budget: {b:?}"
            );
        }
    }

    /// Snapshot of every `(block, path)` pair the position map tracks, in
    /// unspecified order: the blocks currently *resident* in this ORAM
    /// instance (pre-loaded or touched). Hardware has no such operation;
    /// it exists for invariant checks — in particular the cross-shard
    /// residency audit, which proves no block lives in two shard ORAMs.
    #[must_use]
    pub fn position_entries(&self) -> Vec<(BlockId, PathId)> {
        self.position_map.entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oram(cfg: RingConfig) -> RingOram {
        RingOram::with_load_factor(cfg, 42, 0.5)
    }

    #[test]
    fn first_access_is_new_and_generates_full_path_reads() {
        let cfg = RingConfig::test_small(); // 8 levels, no tree-top cache
        let mut o = oram(cfg.clone());
        let out = o.access(BlockId(1));
        assert_eq!(out.source, TargetSource::New);
        let read = out
            .plans
            .iter()
            .find(|p| p.kind == OpKind::ReadPath)
            .expect("read path plan");
        assert_eq!(read.reads(), cfg.levels as usize);
        assert_eq!(read.writes(), 0);
    }

    #[test]
    fn eviction_fires_every_a_reads() {
        let cfg = RingConfig::test_small(); // A = 3
        let mut o = oram(cfg);
        let mut evictions = 0;
        for i in 0..9 {
            let out = o.access(BlockId(i));
            evictions += out
                .plans
                .iter()
                .filter(|p| p.kind == OpKind::Eviction)
                .count();
        }
        assert_eq!(evictions, 3);
    }

    #[test]
    fn eviction_plan_shape() {
        let cfg = RingConfig::test_small(); // Z=4, S=4, 8 levels
        let mut o = oram(cfg.clone());
        let mut plans = Vec::new();
        for i in 0..3 {
            plans.extend(o.access(BlockId(i)).plans);
        }
        let evict = plans
            .iter()
            .find(|p| p.kind == OpKind::Eviction)
            .expect("eviction after A reads");
        assert_eq!(evict.reads(), (cfg.levels * cfg.z) as usize);
        assert_eq!(evict.writes(), (cfg.levels * cfg.bucket_slots()) as usize);
    }

    #[test]
    fn repeat_access_finds_block() {
        let cfg = RingConfig::test_small();
        let mut o = oram(cfg);
        let _ = o.access(BlockId(7));
        // Drive some evictions so the block lands in the tree.
        for i in 100..112 {
            let _ = o.access(BlockId(i));
        }
        let out = o.access(BlockId(7));
        assert!(
            matches!(
                out.source,
                TargetSource::Tree(_) | TargetSource::Stash | TargetSource::TreeTop(_)
            ),
            "block must be found somewhere: {:?}",
            out.source
        );
    }

    #[test]
    fn invariants_hold_over_many_accesses() {
        let cfg = RingConfig::test_small();
        let mut o = oram(cfg);
        for i in 0..200 {
            let _ = o.access(BlockId(i % 37));
        }
        o.check_invariants();
    }

    #[test]
    fn invariants_hold_with_cb() {
        let cfg = RingConfig::test_small_cb();
        let mut o = oram(cfg);
        for i in 0..200 {
            let _ = o.access(BlockId(i % 37));
        }
        o.check_invariants();
        assert!(o.stats().greens_fetched > 0, "CB must fetch greens");
    }

    #[test]
    fn baseline_never_fetches_greens_or_forces_reshuffles() {
        let cfg = RingConfig::test_small(); // Y = 0
        let mut o = oram(cfg);
        for i in 0..300 {
            let _ = o.access(BlockId(i % 50));
        }
        assert_eq!(o.stats().greens_fetched, 0);
        assert_eq!(o.stats().forced_reshuffles, 0);
    }

    #[test]
    fn cb_reduces_eviction_writes() {
        let base = RingConfig::test_small();
        let cb = RingConfig::test_small_cb();
        assert_eq!(
            cb.bucket_slots() + cb.y,
            base.bucket_slots(),
            "CB saves exactly Y slots"
        );
    }

    #[test]
    fn tree_top_cache_shortens_read_path() {
        let mut cfg = RingConfig::test_small();
        cfg.tree_top_cached_levels = 3;
        let mut o = oram(cfg.clone());
        let out = o.access(BlockId(1));
        let read = out
            .plans
            .iter()
            .find(|p| p.kind == OpKind::ReadPath)
            .unwrap();
        assert_eq!(read.reads(), (cfg.levels - 3) as usize);
    }

    #[test]
    fn stash_pressure_triggers_background_eviction() {
        let mut cfg = RingConfig::test_small_cb();
        cfg.y = 4; // most aggressive CB rate (Y = Z)
        cfg.stash_capacity = 15; // tiny stash
        let mut o = RingOram::with_load_factor(cfg, 1, 0.5);
        let mut dummy_reads = 0;
        for i in 0..400 {
            let out = o.access(BlockId(i % 61));
            dummy_reads += out
                .plans
                .iter()
                .filter(|p| p.kind == OpKind::DummyReadPath)
                .count();
        }
        assert!(
            o.stats().background_evictions > 0,
            "tiny stash + aggressive CB must trigger background eviction"
        );
        assert!(dummy_reads > 0, "dummy reads precede background evictions");
        assert!(
            o.stash_len() < 15 + 64,
            "stash stays near its bound: {}",
            o.stash_len()
        );
        o.check_invariants();
    }

    #[test]
    fn early_reshuffle_occurs_under_pressure() {
        // Hammer a small tree so root-adjacent buckets hit budget S.
        let mut cfg = RingConfig::test_small();
        cfg.levels = 4;
        cfg.a = 6; // slow evictions so buckets hit S = 4 first
        let mut o = oram(cfg);
        for i in 0..200 {
            let _ = o.access(BlockId(i % 8));
        }
        assert!(o.stats().early_reshuffles > 0);
        o.check_invariants();
    }

    #[test]
    fn stash_samples_track_reads() {
        let cfg = RingConfig::test_small();
        let mut o = oram(cfg);
        for i in 0..10 {
            let _ = o.access(BlockId(i));
        }
        assert_eq!(o.stats().stash_samples.len(), 10);
    }

    #[test]
    #[should_panic(expected = "below COLD_BASE")]
    fn cold_id_space_protected() {
        let mut o = oram(RingConfig::test_small());
        let _ = o.access(BlockId(RingOram::COLD_BASE));
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut o = RingOram::new(RingConfig::test_small(), seed);
            let mut total = 0usize;
            for i in 0..50 {
                total += o.access(BlockId(i % 11)).plans.len();
            }
            (total, o.stash_len())
        };
        assert_eq!(run(5), run(5));
        // Different seeds almost surely diverge in stash occupancy or plan
        // count; allow equality of one but not both in the rare case.
        let a = run(5);
        let b = run(6);
        assert!(a != b || a.0 == b.0, "seeds should influence the run");
    }

    #[test]
    fn written_data_survives_heavy_churn() {
        let cfg = RingConfig::test_small(); // 64 B blocks
        let mut o = oram(cfg);
        let blocks = 24u64;
        for i in 0..blocks {
            let mut data = vec![0u8; 64];
            data[0] = i as u8;
            data[63] = (i * 3) as u8;
            let _ = o.write_block(BlockId(i), &data);
        }
        // Churn: many interleaved reads force evictions, reshuffles and
        // (with CB configs) green movements.
        for round in 0..20 {
            for i in 0..blocks {
                let (_, data) = o.read_block(BlockId((i * 7 + round) % blocks));
                let id = (i * 7 + round) % blocks;
                let data = data.expect("written block has data");
                assert_eq!(data[0], id as u8, "block {id} corrupted");
                assert_eq!(data[63], (id * 3) as u8, "block {id} corrupted");
            }
        }
        o.check_invariants();
    }

    #[test]
    fn written_data_survives_with_cb_and_encryption() {
        let mut cfg = RingConfig::test_small_cb();
        cfg.y = 4; // aggressive: greens move data through the stash
        let mut o = RingOram::with_load_factor(cfg, 9, 0.5);
        o.enable_aes_encryption(*b"sixteen byte key");
        assert!(o.encryption_enabled());
        let blocks = 16u64;
        for i in 0..blocks {
            let _ = o.write_block(BlockId(i), &[i as u8; 64]);
        }
        for round in 0..25 {
            let id = (round * 5) % blocks;
            let (_, data) = o.read_block(BlockId(id));
            assert_eq!(data.expect("present"), vec![id as u8; 64]);
        }
        let s = o.stats();
        assert!(s.encryptions > 0, "payloads must be sealed into the tree");
        assert!(s.decryptions > 0, "payloads must be unsealed on fetch");
        o.check_invariants();
    }

    #[test]
    fn unwritten_blocks_read_as_none() {
        let mut o = oram(RingConfig::test_small());
        let (_, data) = o.read_block(BlockId(5));
        assert_eq!(data, None);
    }

    #[test]
    fn overwrite_returns_latest_data() {
        let mut o = oram(RingConfig::test_small());
        let _ = o.write_block(BlockId(1), &[1u8; 64]);
        // Force tree residency via evictions.
        for i in 10..30 {
            let _ = o.access(BlockId(i));
        }
        let _ = o.write_block(BlockId(1), &[2u8; 64]);
        for i in 30..50 {
            let _ = o.access(BlockId(i));
        }
        let (_, data) = o.read_block(BlockId(1));
        assert_eq!(data, Some(vec![2u8; 64]));
    }

    #[test]
    #[should_panic(expected = "block_bytes")]
    fn write_block_size_checked() {
        let mut o = oram(RingConfig::test_small());
        let _ = o.write_block(BlockId(1), &[0u8; 7]);
    }

    #[test]
    fn encryption_does_not_change_access_pattern() {
        // The plans (physical touches) must be identical with and without
        // encryption: E/D is inside the trusted boundary.
        let run = |encrypt: bool| {
            let mut o = oram(RingConfig::test_small());
            if encrypt {
                o.enable_encryption(3);
            }
            let mut log = Vec::new();
            for i in 0..60 {
                let out = o.write_block(BlockId(i % 13), &[i as u8; 64]);
                for p in out.plans {
                    log.push((p.kind, p.touches));
                }
            }
            log
        };
        assert_eq!(run(false), run(true));
    }

    fn resilient(rate: f64, max_retries: u32) -> RingOram {
        let cfg = RingConfig::test_small_cb();
        let mut o = RingOram::with_load_factor(cfg.clone(), 42, 0.5);
        o.enable_encryption(7);
        let mut r = ResilienceConfig::for_stash(cfg.stash_capacity);
        r.bit_flip_rate = rate;
        r.max_retries = max_retries;
        o.enable_resilience(r);
        o
    }

    #[test]
    fn faults_never_change_the_access_pattern() {
        // The fault RNG is separate from the protocol RNG, so the
        // (kind, touches) sequence of every non-retry plan is identical
        // between a faulty and a fault-free run with the same seed.
        let run = |rate: f64| {
            let mut o = resilient(rate, 2);
            let mut log = Vec::new();
            for i in 0..120 {
                let out = o.access(BlockId(i % 17));
                for p in out.plans {
                    if p.kind != OpKind::RetryRead {
                        log.push((p.kind, p.touches));
                    }
                }
            }
            log
        };
        assert_eq!(run(0.0), run(0.15));
    }

    #[test]
    fn injected_faults_are_detected_and_mostly_recovered() {
        let mut o = resilient(0.2, 4);
        for i in 0..300 {
            let _ = o.write_block(BlockId(i % 23), &[i as u8; 64]);
        }
        let s = o.stats().clone();
        assert!(s.faults_injected > 0, "a 20 % rate must inject faults");
        assert_eq!(
            s.faults_injected, s.faults_detected,
            "with encryption every injected corruption is detected"
        );
        assert!(s.fault_retries > 0);
        assert!(s.faults_recovered > 0);
        assert_eq!(
            s.faults_recovered + s.faults_unrecovered,
            s.faults_detected - (s.fault_retries - s.faults_recovered),
            "every first-detection resolves as recovered or unrecovered"
        );
        o.check_invariants();
    }

    #[test]
    fn retries_disabled_means_unrecovered() {
        let mut o = resilient(0.3, 0);
        for i in 0..100 {
            let _ = o.access(BlockId(i % 11));
        }
        let s = o.stats();
        assert!(s.faults_injected > 0);
        assert_eq!(s.fault_retries, 0);
        assert_eq!(s.faults_recovered, 0);
        assert_eq!(s.faults_unrecovered, s.faults_detected);
    }

    #[test]
    fn retry_plans_re_read_public_slots() {
        let mut o = resilient(0.25, 2);
        let mut saw_retry = false;
        for i in 0..200 {
            let out = o.access(BlockId(i % 13));
            for (idx, p) in out.plans.iter().enumerate() {
                if p.kind != OpKind::RetryRead {
                    continue;
                }
                saw_retry = true;
                assert!(p.reads() >= 1);
                assert_eq!(p.writes(), 0);
                // Every retried (bucket, slot) was already touched by a
                // read plan earlier in the same access.
                let prior: Vec<_> = out.plans[..idx]
                    .iter()
                    .flat_map(|q| q.touches.iter())
                    .map(|t| (t.bucket, t.slot))
                    .collect();
                for t in &p.touches {
                    assert!(
                        prior.contains(&(t.bucket, t.slot)),
                        "retry of a slot never made public"
                    );
                }
            }
        }
        assert!(saw_retry, "a 25 % rate must produce retry plans");
    }

    #[test]
    fn fault_log_is_deterministic() {
        let run = || {
            let mut o = resilient(0.2, 2);
            let mut events = Vec::new();
            for i in 0..150 {
                let _ = o.access(BlockId(i % 19));
                events.extend(o.take_fault_events());
            }
            (events, o.stats().clone().faults_injected)
        };
        let (a, ai) = run();
        let (b, bi) = run();
        assert_eq!(a, b);
        assert_eq!(ai, bi);
        assert!(!a.is_empty());
    }

    #[test]
    fn unrecovered_fetches_lose_their_payload() {
        // With retries disabled every corrupted target fetch drops its
        // payload; reads of such a block return None until rewritten.
        let mut o = resilient(1.0, 0); // every fetch corrupted
        let _ = o.write_block(BlockId(1), &[9u8; 64]);
        // Churn so the block lands in the tree, then read it back.
        for i in 100..130 {
            let _ = o.access(BlockId(i));
        }
        let (_, data) = o.read_block(BlockId(1));
        if o.stats().faults_unrecovered > 0 {
            assert_eq!(data, None, "unrecovered target fetch loses its data");
        }
    }

    #[test]
    fn degraded_mode_suspends_green_fetches() {
        // Force degraded mode with watermarks low enough that normal CB
        // pressure crosses them, then check greens stop while degraded.
        // Y < S keeps at least one dummy slot per bucket, so the gate can
        // be absolute (Y == S buckets can be full, making greens
        // unavoidable).
        let mut cfg = RingConfig::test_small_cb();
        cfg.y = 3;
        cfg.stash_capacity = 40;
        let mut o = RingOram::with_load_factor(cfg, 1, 0.5);
        o.enable_encryption(7);
        let r = ResilienceConfig {
            fault_seed: 1,
            bit_flip_rate: 0.0,
            max_retries: 2,
            escalation_watermark: 12,
            degrade_watermark: 13,
            resume_watermark: 8,
        };
        o.enable_resilience(r);
        let mut entered = false;
        let mut greens_while_degraded = 0u64;
        for i in 0..400 {
            let before = o.stats().greens_fetched;
            let degraded = o.degraded();
            let _ = o.access(BlockId(i % 61));
            if degraded {
                entered = true;
                greens_while_degraded += o.stats().greens_fetched - before;
            }
        }
        let s = o.stats();
        assert!(
            entered && s.degraded_entries > 0,
            "must enter degraded mode"
        );
        assert_eq!(
            greens_while_degraded, 0,
            "degraded accesses must not fetch greens"
        );
        assert!(s.degraded_exits > 0, "pressure must eventually drain");
        assert!(s.background_escalations > 0);
        o.check_invariants();
    }

    #[test]
    fn try_access_surfaces_stash_overflow() {
        // An over-full tree (load factor 1.0, tiny stash, tiny tree) cannot
        // drain; try_access must return the structured error, not panic.
        let mut cfg = RingConfig::test_small();
        cfg.levels = 4;
        cfg.stash_capacity = 4;
        let mut o = RingOram::with_load_factor(cfg, 3, 1.0);
        let mut failed = false;
        for i in 0..200 {
            match o.try_access(BlockId(i)) {
                Ok(_) => {}
                Err(OramError::StashOverflow { occupancy, .. }) => {
                    assert!(occupancy >= 4);
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(failed, "over-full tree must overflow the stash");
    }

    /// Ring's write phase against the reference selection. On seeded
    /// stashes every bucket of the eviction path must hold exactly what
    /// `Stash::drain_for_bucket`, applied leaf to root, selects — in the
    /// same slots a reload of those blocks, in that (ascending) order and
    /// with the same draws, gives — and the stash must keep the rest.
    #[test]
    fn eviction_write_back_equals_the_per_level_rescan() {
        use crate::bucket::{BucketRef, OwnedBucket};
        use std::collections::HashSet;
        let layout = |b: BucketRef<'_>| {
            let real: Vec<bool> = (0..b.slot_count()).map(|s| b.slot_holds_real(s)).collect();
            (b.real_blocks(), real)
        };
        let sorted = |s: &Stash| {
            let mut v: Vec<_> = s.iter().collect();
            v.sort();
            v
        };
        let mut seeds = StdRng::seed_from_u64(0xE71C7);
        // Cases that reached: a level with nothing eligible, a level with
        // more eligible than `Z` (the cut between equally deep blocks), a
        // stash the path cannot take whole.
        let (mut empty_levels, mut ties, mut leftovers) = (0, 0, 0);
        for case in 0..240u64 {
            let cb = case % 2 == 1;
            let base = if cb {
                RingConfig::test_small_cb()
            } else {
                RingConfig::test_small()
            };
            let levels = seeds.gen_range(3..9u32);
            let cfg = RingConfig { levels, ..base };
            let z = cfg.z as usize;
            let mut o = RingOram::with_load_factor(cfg.clone(), case, 0.0);
            let geometry = o.geometry;
            let max = geometry.max_level();
            let path = geometry.reverse_lexicographic_path(o.eviction_count);
            // Materialize the path first, so the eviction draws only its
            // shuffles.
            for l in 0..levels {
                let _ = o.bucket_mut(geometry.bucket_at(path, Level(l)));
            }
            // Seed the stash: a few blocks, a crowd sharing one depth with
            // the path, or more than the path holds.
            let (count, depth) = match case % 3 {
                0 => (seeds.gen_range(0..z + 1), None),
                1 => (
                    seeds.gen_range(z + 1..2 * z + 1),
                    Some(seeds.gen_range(0..levels)),
                ),
                _ => {
                    let cap = levels as usize * z;
                    (seeds.gen_range(cap + 1..2 * cap + 1), None)
                }
            };
            let mut ids = HashSet::new();
            while ids.len() < count {
                ids.insert(seeds.gen_range(0..1u64 << 20));
            }
            for b in ids {
                let leaf = seeds.gen_range(0..geometry.leaf_count());
                let p = match depth {
                    // Shares exactly `d` levels below the root with `path`.
                    Some(d) if d < max => {
                        let below = max - d - 1;
                        let low = leaf & ((1 << below) - 1);
                        PathId((((path.0 >> below) ^ 1) << below) | low)
                    }
                    Some(_) => path,
                    None if seeds.gen_bool(0.3) => path,
                    None => PathId(leaf),
                };
                o.position_map.insert(BlockId(b), p);
                o.stash.insert(BlockId(b), p);
            }
            let mut reference = o.stash.clone();
            let mut replay = o.rng.clone();
            let _ = o.evict();

            let mut eligible = 0;
            for lvl in (0..levels).rev() {
                let id = geometry.bucket_at(path, Level(lvl));
                eligible += reference
                    .iter()
                    .filter(|&(_, p)| geometry.shared_depth(p, path).0 == lvl)
                    .count();
                let mut entries = reference.drain_for_bucket(&geometry, path, Level(lvl), z);
                empty_levels += usize::from(eligible == 0);
                ties += usize::from(eligible > z);
                eligible -= entries.len();
                let mut expect = OwnedBucket::empty(&cfg, &mut StdRng::seed_from_u64(0));
                expect.view().reload(&cfg, &mut entries, &mut replay);
                let got = o.buckets.get_mut(id).expect("materialized");
                assert_eq!(
                    layout(got.peek()),
                    layout(expect.peek()),
                    "case {case} (CB {cb}): level {lvl} of {path}"
                );
            }
            leftovers += usize::from(!reference.is_empty());
            assert_eq!(sorted(&o.stash), sorted(&reference), "case {case}");
            assert_eq!(format!("{:?}", o.rng), format!("{replay:?}"), "case {case}");
            o.check_invariants();
        }
        assert!(empty_levels > 0 && ties > 0 && leftovers > 0);
    }

    /// Drives `oram` with seeded reads and writes over `blocks` block ids
    /// against a mirror of every block's last write: every read must return
    /// the mirror's value, and a final sweep reads every block back.
    fn mirror_oracle_run(oram: &mut RingOram, blocks: u64, accesses: u64, block_bytes: usize) {
        let mut mirror_data: Vec<Option<Vec<u8>>> = vec![None; blocks as usize];
        let mut ops = StdRng::seed_from_u64(blocks ^ accesses);
        for step in 0..accesses {
            let b = ops.gen_range(0..blocks);
            if ops.gen_bool(0.4) {
                let data: Vec<u8> = (0..block_bytes)
                    .map(|i| (step * 31 + b * 7 + i as u64) as u8)
                    .collect();
                let _ = oram.write_block(BlockId(b), &data);
                mirror_data[b as usize] = Some(data);
            } else {
                let (_, got) = oram.read_block(BlockId(b));
                assert_eq!(got, mirror_data[b as usize], "step {step}: block {b}");
            }
        }
        for (b, want) in mirror_data.iter().enumerate() {
            let (_, got) = oram.read_block(BlockId(b as u64));
            assert_eq!(&got, want, "final sweep: block {b}");
        }
    }

    #[test]
    fn mirror_oracle_holds_on_a_tree_of_three_slab_chunks() {
        use crate::bucket::CHUNK_ROWS;
        let cfg = RingConfig {
            levels: 12,
            ..RingConfig::test_small_cb()
        };
        let block_bytes = cfg.block_bytes as usize;
        type Setup = fn(&mut RingOram);
        let variants: [(&str, Setup); 4] = [
            ("plain", |_| {}),
            ("splitmix", |o| o.enable_encryption(0x5EA1)),
            ("aes", |o| o.enable_aes_encryption(*b"three chunks key")),
            ("splitmix + faults", |o| {
                o.enable_encryption(0xF417);
                let mut r = ResilienceConfig::for_stash(o.config().stash_capacity);
                r.bit_flip_rate = 0.05;
                r.max_retries = 6;
                o.enable_resilience(r);
            }),
        ];
        for (name, setup) in variants {
            let mut o = RingOram::with_load_factor(cfg.clone(), 31, 0.5);
            setup(&mut o);
            mirror_oracle_run(&mut o, 500, 2500, block_bytes);
            assert!(
                o.materialized_buckets() > 2 * CHUNK_ROWS,
                "{name}: {} buckets span fewer than three chunks",
                o.materialized_buckets()
            );
            let s = o.stats();
            assert!(s.greens_fetched > 0, "{name}: CB moved no green");
            if o.encryption_enabled() {
                assert!(s.encryptions > 0 && s.decryptions > 0, "{name}");
            }
            if o.resilience_enabled() {
                assert!(s.faults_recovered > 0, "{name}: no fault to recover");
                assert_eq!(s.faults_unrecovered, 0, "{name}");
            }
            o.check_invariants();
        }
    }

    #[test]
    fn load_factor_zero_means_empty_buckets() {
        let mut o = RingOram::with_load_factor(RingConfig::test_small(), 3, 0.0);
        let _ = o.access(BlockId(0));
        // No cold blocks: only the introduced block is mapped.
        o.check_invariants();
        assert_eq!(o.stats().new_blocks, 1);
    }
}
