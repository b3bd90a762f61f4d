//! The Ring ORAM protocol engine with String ORAM's Compact Bucket.
//!
//! [`RingOram`] is a schedule over the engine frame every protocol shares
//! (`crate::plain_tree`: tree buckets as rows of one chunked slab, position
//! map, stash, protocol RNG, counters and the payload data path) and turns
//! each logical program access into a sequence of [`AccessPlan`]s. Each
//! plan corresponds to one atomic ORAM transaction on the memory system;
//! the timing layers (`mem-sched`, `string-oram`) decide how long those
//! transactions take.
//!
//! # Pre-loaded tree
//!
//! A deployed ORAM stores the whole protected address space, so buckets are
//! far from empty; green-block availability (and therefore the Compact
//! Bucket's behaviour) depends on that occupancy. Because materializing the
//! paper's 16.7 M buckets eagerly is pointless for traces that touch a tiny
//! fraction of them, buckets are created on first touch, pre-filled with
//! *cold blocks* drawn `Binomial(Z, load_factor)` — synthetic resident
//! blocks with identifiers above `RingOram::COLD_BASE`, each pinned to a
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
use crate::faults::OramError;
use crate::oblivious::{Op, ProtocolKind};
use crate::plain_tree::{read_kind, PlainTree};
use crate::plan::{AccessPlan, OpKind, SlotTouch};
use crate::position_map::{self, PositionMap};
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

sim_counters::counters! {
    ProtocolStats {
        sum: read_paths, dummy_read_paths, evictions, background_evictions, early_reshuffles,
            forced_reshuffles, greens_fetched, targets_from_tree, targets_from_treetop,
            targets_from_stash, new_blocks, encryptions, decryptions, faults_injected,
            faults_detected, fault_retries, faults_recovered, faults_unrecovered,
            degraded_entries, degraded_exits, background_escalations;
        samples: stash_samples;
    }
}

/// Reusable buffers for Ring's steady-state access path.
///
/// Ownership rule: every vector here belongs to exactly one helper
/// (`read_path`, `reshuffle_bucket` or `evict`), which takes it empty at
/// entry and returns it empty at exit, so helpers never alias a buffer
/// across their (strictly sequential) call graph. Plan, touch and payload
/// buffers live in the frame's pools. Net effect: a warm controller
/// performs no heap allocation per access — the allocation-regression test
/// in the `string-oram` crate pins this.
#[derive(Default)]
struct Scratch {
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
    /// `evict`: the blocks its path held, with their paths and payloads,
    /// between the read and the write phase (they never enter the stash
    /// unless the write-back leaves them over).
    transit: Vec<(BlockId, PathId, Option<BlockData>)>,
    /// `evict`: eviction candidates grouped by deepest eligible level,
    /// each with where it waits ([`STASHED`] or its `transit` index).
    by_depth: Vec<Vec<(BlockId, u32)>>,
    /// `evict`: the candidates eligible at the level being written.
    eligible: Vec<(BlockId, u32)>,
    /// Every eviction goes through the stash instead (the reference the
    /// transit buffer is tested against).
    #[cfg(test)]
    round_trip: bool,
}

/// A write-back candidate's place when it waits in the stash, not in the
/// eviction's transit buffer.
const STASHED: u32 = u32::MAX;

/// The Ring ORAM / String ORAM controller: a schedule over the shared
/// frame (`crate::plain_tree`), which holds the tree, position map, stash,
/// protocol RNG, statistics and data path. What is Ring's own is here.
pub struct RingOram {
    pub(crate) tree: PlainTree,
    /// Read paths since the last eviction (eviction fires at `A`).
    reads_since_eviction: u32,
    /// Eviction counter `G` driving the reverse lexicographic order.
    eviction_count: u64,
    /// Fraction of each fresh bucket's `Z` slots pre-filled with cold
    /// blocks, as the 53-bit threshold of its `gen_bool` draw
    /// (`oram_rng::threshold`).
    load_threshold: u64,
    next_cold: u64,
    /// Degraded mode: CB green substitution suspended until stash pressure
    /// drains (only ever set with the fault layer enabled).
    degraded: bool,
    /// Reusable buffers for the steady-state access path (see [`Scratch`]).
    scratch: Scratch,
}

impl std::fmt::Debug for RingOram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingOram")
            .field("tree", &self.tree)
            .field("reads_since_eviction", &self.reads_since_eviction)
            .field("eviction_count", &self.eviction_count)
            .finish_non_exhaustive()
    }
}

/// Looks up `id` in `buckets`, cold-filling it on first touch. A free
/// function over disjoint fields so the hot read path can keep borrows of
/// the other fields (the RNG in particular) usable across the returned
/// bucket reference.
///
/// The protocol RNG is drawn in a fixed order every golden digest depends
/// on: `Z` × `gen_bool(load)`, each hit followed by its `gen_range` path
/// tail (below the leaf level), then the bucket's shuffle. The hits are
/// consecutive cold ids, so the fresh row keeps only the first of them.
/// The pre-load draw is `gen_bool(load)` as the integer compare it is
/// exactly, against `load_threshold`.
#[allow(clippy::too_many_arguments)] // a borrow-split of the engine's fields
fn materialize_entry<'a>(
    buckets: &'a mut BucketTree,
    geometry: &TreeGeometry,
    cfg: &RingConfig,
    load_threshold: u64,
    position_map: &mut PositionMap,
    next_cold: &mut u64,
    rng: &mut StdRng,
    id: BucketId,
) -> Bucket<'a> {
    buckets.bucket_or_fill(id, |bucket| {
        let level = geometry.level_of(id);
        let pos_in_level = id.0 - ((1u64 << level.0) - 1);
        let tail_bits = geometry.max_level() - level.0;
        bucket.fill_cold(cfg.z, BlockId(*next_cold), rng, |rng| {
            let hit = (rng.next_u64() >> 11) < load_threshold;
            if hit {
                let block = BlockId(*next_cold);
                *next_cold += 1;
                let low = (tail_bits > 0).then(|| rng.gen_range(0..1u64 << tail_bits));
                let path = PathId(pos_in_level << tail_bits | low.unwrap_or(0));
                position_map.insert(block, path);
            }
            hit
        });
    })
}

impl RingOram {
    /// Identifiers at or above this value are reserved for cold (pre-loaded)
    /// blocks.
    pub(crate) const COLD_BASE: u64 = position_map::COLD_BASE;
    /// Program block ids stay below this bound on every engine.
    pub const PROGRAM_ID_BOUND: u64 = position_map::PROGRAM_ID_BOUND;
    /// The largest `Z` a Ring tree takes: a bucket names its real blocks
    /// by one-byte slot codes beside two marks. Path and Circuit trees keep
    /// slot words and are bounded only by [`RingConfig::validate`].
    pub const MAX_Z: u32 = crate::bucket::MAX_Z;

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
    /// and an access panics with `OramError::StashOverflow`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or `load_factor` is outside `[0, 1]`.
    #[must_use]
    pub fn with_load_factor(cfg: RingConfig, seed: u64, load_factor: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&load_factor),
            "load_factor must be in [0, 1]"
        );
        let kind = if cfg.y > 0 {
            ProtocolKind::RingCb
        } else {
            ProtocolKind::Ring
        };
        // The write-back's eligible pool is at most the stash plus the path
        // an eviction reads: sized for the provisioned capacity plus `Z` per
        // level, which is also all the transit buffer ever holds.
        let path_blocks = (cfg.levels * cfg.z) as usize;
        let scratch = Scratch {
            eligible: Vec::with_capacity(cfg.stash_capacity + path_blocks),
            transit: Vec::with_capacity(path_blocks),
            ..Scratch::default()
        };
        Self {
            tree: PlainTree::new(kind, cfg, seed),
            reads_since_eviction: 0,
            eviction_count: 0,
            load_threshold: oram_rng::threshold(load_factor),
            next_cold: Self::COLD_BASE,
            degraded: false,
            scratch,
        }
    }

    /// Whether the controller is currently in degraded mode (CB green-slot
    /// substitution disabled until stash pressure drains).
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Buckets written back (by an eviction or a reshuffle) at least once.
    /// The others are still as their first touch filled them, and keep
    /// their pre-loaded blocks' ids as the first one alone.
    #[must_use]
    pub fn written_back_buckets(&self) -> usize {
        self.tree.buckets.written_back()
    }

    fn is_cached_level(&self, level: Level) -> bool {
        level.0 < self.tree.cfg.tree_top_cached_levels
    }

    /// Materializes (if needed) and returns the bucket, pre-filling it with
    /// cold blocks pinned to compatible paths.
    fn bucket_mut(&mut self, id: BucketId) -> Bucket<'_> {
        materialize_entry(
            &mut self.tree.buckets,
            &self.tree.geometry,
            &self.tree.cfg,
            self.load_threshold,
            &mut self.tree.position_map,
            &mut self.next_cold,
            &mut self.tree.rng,
            id,
        )
    }

    /// One access of Ring's schedule (see the trait's `operate` and
    /// `cover_access`), panicking on a stash overflow.
    pub(crate) fn schedule(&mut self, target: Option<(BlockId, Op<'_>)>) -> (AccessOutcome, bool) {
        match self.try_schedule(target) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// The read path — the target's, or a cover's dummy read path on a
    /// uniformly drawn path —, the remap and the program's `Op`, then
    /// eviction and background bookkeeping. The program's `Op` applies
    /// *before* [`Self::after_read_path`], because the periodic eviction
    /// may legitimately sweep the freshly fetched block back into the tree
    /// within the same logical access.
    ///
    /// A cover is indistinguishable on the bus from the dummy read paths
    /// background eviction already issues, and takes the same post-read
    /// bookkeeping as a program access (it advances the "`A` reads, one
    /// eviction" cadence, participates in early-reshuffle budgets, and
    /// samples stash occupancy); no block is remapped.
    fn try_schedule(
        &mut self,
        target: Option<(BlockId, Op<'_>)>,
    ) -> Result<(AccessOutcome, bool), OramError> {
        let mut plans = self.tree.pool.plans();
        let block = target.map(|(b, _)| b);
        let (path, known) = self.tree.locate(block);
        let source = self.read_path(&mut plans, path, block, known);
        let read = self.tree.remap_target(target, source);
        self.after_read_path(&mut plans)?;
        Ok((self.tree.finish(plans, source), read))
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
        if self.reads_since_eviction == self.tree.cfg.a {
            self.reads_since_eviction = 0;
            plans.push(self.evict());
        }

        // Escalation watermark: once stash pressure crosses the (soft)
        // escalation threshold, run one extra leakage-free background round
        // per access so pressure drains before the hard capacity loop is
        // ever needed. Occupancy is a deterministic function of the access
        // stream alone (fault injection never adds or removes stash
        // blocks), so escalation does not leak fault locations.
        let peak_occupancy = self.tree.stash.len();
        let watermarks = self.tree.data.resilience().copied();
        if watermarks.is_some_and(|r| peak_occupancy >= r.escalation_watermark) {
            self.background_round(plans);
            self.tree.stats.background_escalations += 1;
        }

        // Background eviction: while the stash is at or above its
        // provisioned capacity, issue leakage-free dummy read paths until
        // the eviction interval A is reached, then evict; repeat. The
        // access sequence on the bus remains "A read paths, one eviction"
        // forever, so the stash pressure is not observable.
        let mut guard = 0u32;
        while self.tree.stash.len() >= self.tree.cfg.stash_capacity {
            guard += 1;
            if guard > 1024 {
                return Err(OramError::StashOverflow {
                    occupancy: self.tree.stash.len(),
                    capacity: self.tree.cfg.stash_capacity,
                    real_capacity: self.tree.cfg.real_capacity_blocks(),
                });
            }
            self.background_round(plans);
            self.tree.stats.background_evictions += 1;
        }

        // Degraded-mode hysteresis: entry is decided on the access's *peak*
        // occupancy (before the escalation and capacity rounds relieved it
        // — the spike is the signal that green substitution is feeding the
        // stash faster than eviction drains it), while exit requires the
        // *drained* occupancy to fall to the resume watermark. While
        // degraded, green substitution is suspended, cutting stash inflow.
        if let Some(r) = watermarks {
            if !self.degraded && peak_occupancy >= r.degrade_watermark {
                self.degraded = true;
                self.tree.stats.degraded_entries += 1;
            } else if self.degraded && self.tree.stash.len() <= r.resume_watermark {
                self.degraded = false;
                self.tree.stats.degraded_exits += 1;
            }
        }
        Ok(())
    }

    /// One leakage-free background round: dummy read paths until the
    /// eviction interval `A` is reached, then the eviction. Keeps the
    /// public "A reads, one eviction" cadence intact.
    fn background_round(&mut self, plans: &mut Vec<AccessPlan>) {
        loop {
            let (p, _) = self.tree.locate(None);
            let _ = self.read_path(plans, p, None, true);
            self.tree.stats.dummy_read_paths += 1;
            self.reads_since_eviction += 1;
            if self.reads_since_eviction == self.tree.cfg.a {
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
            Some(_) if !known => (TargetSource::New, false),
            Some(b) if self.tree.stash.contains(b) => (TargetSource::Stash, false),
            Some(_) => (TargetSource::Stash, true), // provisional until found
            None => (TargetSource::Stash, false),   // dummy read path
        };

        let levels = self.tree.cfg.levels;
        let mut reads = self.tree.reads(read_kind(target), levels as usize);
        let mut reshuffles = std::mem::take(&mut self.scratch.reshuffles);
        // Off-chip buckets whose dummy budget `S` this path exhausted,
        // in level order; early-reshuffled after the path is emitted.
        let mut exhausted = std::mem::take(&mut self.scratch.exhausted);
        // Degraded mode gates CB green substitution for the whole path;
        // the flag only changes in `after_read_path`, never mid-path.
        let allow_green = !self.degraded;

        for lvl in 0..levels {
            let level = Level(lvl);
            let id = self.tree.geometry.bucket_at(path, level);
            if self.is_cached_level(level) {
                // On-chip levels: a target found here is taken directly;
                // no memory traffic, no metadata churn.
                if searching {
                    if let Some(b) = target {
                        let mut bucket = self.bucket_mut(id);
                        if let Some(slot) = bucket.peek().find(b) {
                            let data = bucket.clear_slot(slot);
                            let data = self.tree.data.unseal(&mut self.tree.stats, data);
                            self.tree.stash.insert_with_data(b, path, data);
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
                &mut self.tree.buckets,
                &self.tree.geometry,
                &self.tree.cfg,
                self.load_threshold,
                &mut self.tree.position_map,
                &mut self.next_cold,
                &mut self.tree.rng,
                id,
            );
            // `holds_target` must follow `want`, not `target`: once the
            // search has ended, the bucket must serve a dummy/green even if
            // it happens to hold the (stale) target block.
            let holds_target = want.is_some_and(|b| bucket.peek().find(b).is_some());
            if !holds_target
                && bucket
                    .peek()
                    .needs_reshuffle_gated(&self.tree.cfg, allow_green)
            {
                reshuffles.push(self.reshuffle_bucket(id));
                self.tree.stats.forced_reshuffles += 1;
                bucket = self.tree.buckets.get_mut(id).expect("materialized above");
            }
            let (slot, kind, data) =
                bucket.serve_read_gated(&self.tree.cfg, want, allow_green, &mut self.tree.rng);
            // Budget exhaustion is decided now (this path's touch included):
            // the bucket is revisited only by its own early reshuffle below,
            // so sampling here matches the post-path scan it replaces.
            if bucket.peek().accesses() >= self.tree.cfg.s {
                exhausted.push(id);
            }
            let tree = &mut self.tree;
            match kind {
                FetchKind::Target(b) => {
                    debug_assert_eq!(Some(b), target);
                    let (data, recovered) =
                        tree.data
                            .fetch(&mut tree.stats, id, slot as u32, data, &mut reads.retries);
                    tree.stash.insert_with_data(b, path, data);
                    source = TargetSource::Tree(level);
                    searching = false;
                    reads.target = Some(reads.touches.len());
                    if recovered {
                        // The program's data arrives with the *last* retry
                        // of this fetch; the RetryRead plan carries that as
                        // its target index for latency accounting.
                        reads.retry_target = Some(reads.retries.len() - 1);
                    }
                }
                FetchKind::Green(b) => {
                    // The green block keeps its current path assignment; it
                    // was never identified on the bus, so no remap needed.
                    let p = tree
                        .position_map
                        .lookup(b)
                        .expect("green blocks are always mapped");
                    let (data, _) =
                        tree.data
                            .fetch(&mut tree.stats, id, slot as u32, data, &mut reads.retries);
                    tree.stash.insert_with_data(b, p, data);
                    tree.stats.greens_fetched += 1;
                }
                FetchKind::Dummy => {}
            }
            reads.touches.push(SlotTouch::read(id, slot as u32));
        }

        // Emit forced reshuffles before the read path itself (they must
        // complete before the path can be read), then the read path and
        // its retries, then the post-access early reshuffles for buckets
        // that hit budget S.
        plans.append(&mut reshuffles);
        self.scratch.reshuffles = reshuffles;
        self.tree.emit(plans, reads);

        for &id in &exhausted {
            let plan = self.reshuffle_bucket(id);
            plans.push(plan);
            self.tree.stats.early_reshuffles += 1;
        }
        exhausted.clear();
        self.scratch.exhausted = exhausted;
        source
    }

    /// Early-reshuffles `id`: reads its `Z` real slots and rewrites the full
    /// bucket with fresh metadata and permutation.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn reshuffle_bucket(&mut self, id: BucketId) -> AccessPlan {
        let z = self.tree.cfg.z;
        let slots = self.tree.cfg.bucket_slots();
        let mut read_slots = std::mem::take(&mut self.scratch.real_slots);
        let mut entries = std::mem::take(&mut self.scratch.entries);
        // The real blocks, and their slots for the read touches.
        self.bucket_mut(id)
            .take_real_blocks_into(&mut entries, &mut read_slots);
        // Re-encrypt every surviving payload under a fresh nonce (the
        // reshuffle's defining obligation besides the permutation): unseal
        // each entry, then re-seal the whole bucket as one contiguous batch.
        let tree = &mut self.tree;
        let mut resealed = std::mem::take(&mut self.scratch.resealed);
        for (b, d) in entries.drain(..) {
            let plain = tree.data.unseal(&mut tree.stats, d);
            resealed.push((b, plain));
        }
        tree.data.seal_batch(&mut tree.stats, &mut resealed);
        tree.buckets.get_mut(id).expect("materialized").reload(
            &tree.cfg,
            &mut resealed,
            &mut tree.rng,
        );
        self.scratch.entries = entries;
        self.scratch.resealed = resealed;

        let mut touches = tree.pool.touches((z + slots) as usize);
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
    /// path: reads the `Z` real slots of every bucket on the path, then
    /// rewrites the buckets leaf-to-root with as many compatible blocks of
    /// the stash and the path as fit; what the path cannot take stays in
    /// (or joins) the stash.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn evict(&mut self) -> AccessPlan {
        #[cfg(test)]
        if self.scratch.round_trip {
            return self.evict_through_the_stash();
        }
        let path = self
            .tree
            .geometry
            .reverse_lexicographic_path(self.eviction_count);
        self.eviction_count += 1;
        self.tree.stats.evictions += 1;

        let z = self.tree.cfg.z;
        let slots = self.tree.cfg.bucket_slots();
        let levels = self.tree.cfg.levels;
        let mut touches = self.tree.pool.touches(0);
        let mut read_slots = std::mem::take(&mut self.scratch.real_slots);
        let mut entries = std::mem::take(&mut self.scratch.entries);
        let mut transit = std::mem::take(&mut self.scratch.transit);

        // Read phase (root to leaf): every real block of the path goes into
        // the transit buffer, not the stash's map — most of them go straight
        // back into the tree below.
        for lvl in 0..levels {
            let level = Level(lvl);
            let id = self.tree.geometry.bucket_at(path, level);
            let off_chip = !self.is_cached_level(level);
            read_slots.clear();
            self.bucket_mut(id)
                .take_real_blocks_into(&mut entries, &mut read_slots);
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
            let tree = &mut self.tree;
            for (b, d) in entries.drain(..) {
                let p = tree
                    .position_map
                    .lookup(b)
                    .expect("tree blocks are always mapped");
                let d = tree.data.unseal(&mut tree.stats, d);
                transit.push((b, p, d));
            }
        }
        read_slots.clear();
        self.scratch.real_slots = read_slots;
        self.scratch.entries = entries;
        // The occupancy the stash reached when the path's blocks were
        // inserted into it one by one.
        let tree = &mut self.tree;
        tree.stash.raise_peak(tree.stash.len() + transit.len());

        // Write phase (leaf to root): greedy deepest-first placement over the
        // stash and the transit buffer, each candidate tagged with where it
        // waits. The candidate set is snapshotted once — the phase only
        // removes candidates, so selecting from the snapshot picks exactly
        // the blocks a fresh per-level scan would. Candidates are grouped by
        // their deepest eligible level; walking leaf to root, each level's
        // group joins the eligible pool and the level takes the pool's `Z`
        // smallest ids, selected in linear time and then sorted — the same
        // blocks in the same ascending order a sorted per-level scan would
        // select, without sorting or rescanning the pool.
        let mut by_depth = std::mem::take(&mut self.scratch.by_depth);
        by_depth.resize_with(levels as usize, Vec::new);
        tree.stash
            .for_each_candidate(&tree.geometry, path, |b, depth| {
                by_depth[depth.0 as usize].push((b, STASHED));
            });
        for (at, &(b, p, _)) in transit.iter().enumerate() {
            let depth = tree.geometry.shared_depth(p, path);
            by_depth[depth.0 as usize].push((b, at as u32));
        }
        let mut eligible = std::mem::take(&mut self.scratch.eligible);
        let mut sealed = std::mem::take(&mut self.scratch.resealed);
        for lvl in (0..levels).rev() {
            let id = tree.geometry.bucket_at(path, Level(lvl));
            let off_chip = lvl >= tree.cfg.tree_top_cached_levels;
            eligible.append(&mut by_depth[lvl as usize]);
            // The `Z` smallest go to the tail, in ascending order (ids are
            // unique, so the tags never decide).
            let rest = eligible.len().saturating_sub(z as usize);
            if rest > 0 {
                eligible.select_nth_unstable_by_key(rest, |&(b, _)| std::cmp::Reverse(b));
            }
            eligible[rest..].sort_unstable();
            for &(b, at) in &eligible[rest..] {
                let d = if at == STASHED {
                    tree.stash.take(b).expect("candidate still stashed")
                } else {
                    transit[at as usize].2.take()
                };
                sealed.push((b, d));
            }
            eligible.truncate(rest);
            // One contiguous crypto sweep per bucket instead of a cipher
            // setup per slot; nonce order matches the per-slot code.
            tree.data.seal_batch(&mut tree.stats, &mut sealed);
            tree.buckets
                .get_mut(id)
                .expect("materialized in read phase")
                .reload(&tree.cfg, &mut sealed, &mut tree.rng);
            if off_chip {
                for s in 0..slots {
                    touches.push(SlotTouch::write(id, s));
                }
            }
        }
        // Every candidate is eligible at the root, so the pool now holds
        // exactly what the path could not take: the stash keeps its own,
        // and the path's join it.
        for (b, at) in eligible.drain(..) {
            if at != STASHED {
                let (_, p, d) = &mut transit[at as usize];
                tree.stash.insert_with_data(b, *p, d.take());
            }
        }
        transit.clear();
        // Every group was appended (and so emptied) on the way up.
        self.scratch.by_depth = by_depth;
        self.scratch.eligible = eligible;
        self.scratch.transit = transit;
        self.scratch.resealed = sealed;
        AccessPlan::new(OpKind::Eviction, touches, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ResilienceConfig;
    use crate::oblivious::ObliviousProtocol;
    use crate::stash::Stash;

    fn oram(cfg: RingConfig) -> RingOram {
        RingOram::with_load_factor(cfg, 42, 0.5)
    }

    impl RingOram {
        /// The eviction as a stash round trip: every block of the path is
        /// inserted into the stash, then each level, leaf to root, takes
        /// what `Stash::drain_for_bucket` selects. What `evict` must equal
        /// in rows, stash, stash peak and draws.
        #[allow(clippy::expect_used)]
        pub(super) fn evict_through_the_stash(&mut self) -> AccessPlan {
            let path = self
                .tree
                .geometry
                .reverse_lexicographic_path(self.eviction_count);
            self.eviction_count += 1;
            self.tree.stats.evictions += 1;
            let (z, slots) = (self.tree.cfg.z, self.tree.cfg.bucket_slots());
            let levels = self.tree.cfg.levels;
            let mut touches = self.tree.pool.touches(0);
            for lvl in 0..levels {
                let id = self.tree.geometry.bucket_at(path, Level(lvl));
                let (mut entries, mut read_slots) = (Vec::new(), Vec::new());
                self.bucket_mut(id)
                    .take_real_blocks_into(&mut entries, &mut read_slots);
                if !self.is_cached_level(Level(lvl)) {
                    let padding = (0..).filter(|s| !read_slots.contains(s));
                    let padding: Vec<u32> = padding.take(z as usize).collect();
                    read_slots.extend(padding);
                    for &s in &read_slots[..z as usize] {
                        touches.push(SlotTouch::read(id, s));
                    }
                }
                let tree = &mut self.tree;
                for (b, d) in entries {
                    let p = tree.position_map.lookup(b).expect("mapped");
                    let d = tree.data.unseal(&mut tree.stats, d);
                    tree.stash.insert_with_data(b, p, d);
                }
            }
            let tree = &mut self.tree;
            for lvl in (0..levels).rev() {
                let id = tree.geometry.bucket_at(path, Level(lvl));
                let mut entries =
                    tree.stash
                        .drain_for_bucket(&tree.geometry, path, Level(lvl), z as usize);
                tree.data.seal_batch(&mut tree.stats, &mut entries);
                tree.buckets.get_mut(id).expect("materialized").reload(
                    &tree.cfg,
                    &mut entries,
                    &mut tree.rng,
                );
                if lvl >= tree.cfg.tree_top_cached_levels {
                    touches.extend((0..slots).map(|s| SlotTouch::write(id, s)));
                }
            }
            AccessPlan::new(OpKind::Eviction, touches, None)
        }
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
    #[should_panic(expected = "below PROGRAM_ID_BOUND")]
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
            let _ = o.operate(BlockId(i), Op::Write(&data));
        }
        // Churn: many interleaved reads force evictions, reshuffles and
        // (with CB configs) green movements.
        for round in 0..20 {
            for i in 0..blocks {
                let id = (i * 7 + round) % blocks;
                let (_, data) = o.operate(BlockId(id), Op::Read);
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
        o.enable_encryption(0x5EA1_4B1D);
        let blocks = 16u64;
        for i in 0..blocks {
            let _ = o.operate(BlockId(i), Op::Write(&[i as u8; 64]));
        }
        for round in 0..25 {
            let id = (round * 5) % blocks;
            let (_, data) = o.operate(BlockId(id), Op::Read);
            assert_eq!(data.expect("present"), &[id as u8; 64][..]);
        }
        let s = o.stats();
        assert!(s.encryptions > 0, "payloads must be sealed into the tree");
        assert!(s.decryptions > 0, "payloads must be unsealed on fetch");
        o.check_invariants();
    }

    #[test]
    fn unwritten_blocks_read_as_none() {
        let mut o = oram(RingConfig::test_small());
        let (_, data) = o.operate(BlockId(5), Op::Read);
        assert_eq!(data, None);
    }

    #[test]
    fn overwrite_returns_latest_data() {
        let mut o = oram(RingConfig::test_small());
        let _ = o.operate(BlockId(1), Op::Write(&[1u8; 64]));
        // Force tree residency via evictions.
        for i in 10..30 {
            let _ = o.access(BlockId(i));
        }
        let _ = o.operate(BlockId(1), Op::Write(&[2u8; 64]));
        for i in 30..50 {
            let _ = o.access(BlockId(i));
        }
        let (_, data) = o.operate(BlockId(1), Op::Read);
        assert_eq!(data, Some(&[2u8; 64][..]));
    }

    #[test]
    #[should_panic(expected = "block_bytes")]
    fn write_size_checked() {
        let mut o = oram(RingConfig::test_small());
        let _ = o.operate(BlockId(1), Op::Write(&[0u8; 7]));
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
                let (out, _) = o.operate(BlockId(i % 13), Op::Write(&[i as u8; 64]));
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
            let _ = o.operate(BlockId(i % 23), Op::Write(&[i as u8; 64]));
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
        let _ = o.operate(BlockId(1), Op::Write(&[9u8; 64]));
        // Churn so the block lands in the tree, then read it back.
        for i in 100..130 {
            let _ = o.access(BlockId(i));
        }
        let data = o.operate(BlockId(1), Op::Read).1.map(<[u8]>::to_vec);
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
        // drain; the access must return the structured error.
        let mut cfg = RingConfig::test_small();
        cfg.levels = 4;
        cfg.stash_capacity = 4;
        let mut o = RingOram::with_load_factor(cfg, 3, 1.0);
        let mut failed = false;
        for i in 0..200 {
            match o.try_schedule(Some((BlockId(i), Op::Read))) {
                Ok(_) => {}
                Err(OramError::StashOverflow { occupancy, .. }) => {
                    assert!(occupancy >= 4);
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed, "over-full tree must overflow the stash");
    }

    /// Ring's eviction against the stash round trip it replaces. On seeded
    /// stashes over empty and pre-loaded paths, every bucket of the
    /// eviction path must hold exactly what `Stash::drain_for_bucket`,
    /// applied leaf to root to the stash plus the path's blocks, selects —
    /// in the same slots a reload of those blocks, in that (ascending)
    /// order and with the same draws, gives — and the stash must keep the
    /// rest and reach the same peak. Then, over whole runs of Ring and
    /// Ring+CB with payloads off and on, the engine must equal a twin that
    /// evicts through the stash ([`RingOram::evict_through_the_stash`])
    /// after every eviction: tree rows and payloads, stash contents and
    /// peak, and protocol RNG state.
    #[test]
    fn eviction_write_back_equals_the_per_level_rescan() {
        use crate::bucket::{BucketRef, OwnedBucket};
        use std::collections::HashSet;
        let layout = |b: BucketRef<'_>| {
            let real: Vec<bool> = (0..b.slot_count()).map(|s| b.slot_holds_real(s)).collect();
            (b.real_blocks(), real)
        };
        let sorted = |s: &Stash| {
            let mut v: Vec<_> = s
                .iter()
                .map(|(b, p)| (b, p, s.data_of(b).map(<[u8]>::to_vec)))
                .collect();
            v.sort();
            v
        };
        let mut seeds = StdRng::seed_from_u64(0xE71C7);
        // Cases that reached: a level with nothing eligible, a level with
        // more eligible than `Z` (the cut between equally deep blocks), a
        // stash the path cannot take whole, a path holding blocks.
        let (mut empty_levels, mut ties, mut leftovers, mut loaded) = (0, 0, 0, 0);
        for case in 0..480u64 {
            let cb = case % 2 == 1;
            let base = if cb {
                RingConfig::test_small_cb()
            } else {
                RingConfig::test_small()
            };
            let levels = seeds.gen_range(3..9u32);
            let cfg = RingConfig { levels, ..base };
            let z = cfg.z as usize;
            let load = if case % 4 < 2 { 0.0 } else { 0.5 };
            let mut o = RingOram::with_load_factor(cfg.clone(), case, load);
            let geometry = o.tree.geometry;
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
                o.tree.position_map.insert(BlockId(b), p);
                o.tree.stash.insert(BlockId(b), p);
            }
            // The round trip: the path's blocks join the stash.
            let mut reference = o.tree.stash.clone();
            for l in 0..levels {
                let id = geometry.bucket_at(path, Level(l));
                let bucket = o.tree.buckets.get_mut(id).expect("materialized");
                for b in bucket.peek().real_blocks() {
                    let p = o.tree.position_map.lookup(b).expect("mapped");
                    reference.insert(b, p);
                    loaded += 1;
                }
            }
            let mut replay = o.tree.rng.clone();
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
                let got = o.tree.buckets.get_mut(id).expect("materialized");
                assert_eq!(
                    layout(got.peek()),
                    layout(expect.peek()),
                    "case {case} (CB {cb}): level {lvl} of {path}"
                );
            }
            leftovers += usize::from(reference.len() != 0);
            assert_eq!(sorted(&o.tree.stash), sorted(&reference), "case {case}");
            assert_eq!(o.tree.stash.peak(), reference.peak(), "case {case}");
            assert_eq!(
                format!("{:?}", o.tree.rng),
                format!("{replay:?}"),
                "case {case}"
            );
            o.check_invariants();
        }
        assert!(empty_levels > 0 && ties > 0 && leftovers > 0 && loaded > 0);

        // Whole runs, the twin evicting through the stash.
        for (cfg, payloads) in [
            (RingConfig::test_small(), false),
            (RingConfig::test_small(), true),
            (RingConfig::test_small_cb(), false),
            (RingConfig::test_small_cb(), true),
        ] {
            let build = |round_trip: bool| {
                let mut o = RingOram::with_load_factor(cfg.clone(), 0x7A5, 0.6);
                o.scratch.round_trip = round_trip;
                if payloads {
                    o.enable_encryption(0x7A5);
                }
                o
            };
            let (mut o, mut twin) = (build(false), build(true));
            let mut evictions = 0;
            for i in 0..600u64 {
                let block = BlockId(i * 7 % 97);
                let data = [i as u8; 64];
                let op = || {
                    if payloads && i % 3 == 0 {
                        Op::Write(&data)
                    } else {
                        Op::Read
                    }
                };
                let (out, read) = o.operate(block, op());
                let (twin_out, twin_read) = twin.operate(block, op());
                assert_eq!(read, twin_read, "access {i}: the value read");
                assert_eq!(format!("{out:?}"), format!("{twin_out:?}"), "access {i}");
                if !out.plans.iter().any(|p| p.kind == OpKind::Eviction) {
                    continue;
                }
                evictions += 1;
                let what = format!("access {i} (CB {}, payloads {payloads})", cfg.y > 0);
                assert_eq!(
                    format!("{:?}", o.tree.buckets),
                    format!("{:?}", twin.tree.buckets),
                    "{what}: tree rows"
                );
                assert_eq!(sorted(&o.tree.stash), sorted(&twin.tree.stash), "{what}");
                assert_eq!(o.stash_peak(), twin.stash_peak(), "{what}: stash peak");
                assert_eq!(
                    format!("{:?}", o.tree.rng),
                    format!("{:?}", twin.tree.rng),
                    "{what}: RNG state"
                );
            }
            assert!(evictions >= 200, "{evictions} evictions");
            assert!(o.stash_peak() > 0);
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
