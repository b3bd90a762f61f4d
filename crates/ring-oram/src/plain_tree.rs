//! The engine frame: everything the four engines share.
//!
//! Every engine keeps a lazily materialized tree of buckets, a position map,
//! a stash, one protocol RNG, its statistics and its plan pool, and moves
//! payloads along one data path: payload lanes beside the bucket rows, an
//! optional cipher sealing them at rest, and an optional transit-fault layer
//! on the way into the stash. [`PlainTree`] owns all of it once, and each
//! engine is a schedule over it:
//!
//! * Ring (Ring+CB and plain Ring, `crate::protocol`): its own bucket rules
//!   on the frame's rows — a permuted slot per level, dummies, CB greens —
//!   plus its eviction cadence, cold pre-load, reshuffles, background
//!   eviction and degraded mode;
//! * Path: `read_path(All)` → `remap_target` → `refill_path`, one plan;
//! * Circuit: `read_path(TargetOnly)` → `remap_target`, then per eviction
//!   `read_path(Eviction)` → `refill_path` along the next
//!   reverse-lexicographic path, one plan each.
//!
//! Path and Circuit keep exactly `Z` block ids per bucket (no dummy slots,
//! no metadata) and are made of the two path operations of Path ORAM
//! (Stefanov et al., CCS'13): *read* a path — transfer every off-chip slot
//! and take every block, or the target alone, into the stash — and
//! *refill* it greedily, leaf first, from the stash.
//!
//! # Data path
//!
//! A payload moves with its block: the bucket operations carry lane
//! entries, [`PlainTree::refill_path`] seals each bucket as one batch, and
//! reads unseal. Every real block a read path moves into the stash from an
//! off-chip bucket goes through the transit-fault step
//! ([`DataPath::fetch`]); eviction and reshuffle reads never do. The
//! program's read or write is applied in one place,
//! [`PlainTree::remap_target`]. With no payload, cipher or fault layer
//! nothing is kept per slot: a bucket gets its lane with its first payload.
//!
//! # Draw order
//!
//! The protocol RNG is drawn in [`PlainTree::locate`] (a block's first
//! touch, or a cover's path) and [`PlainTree::remap_target`], and by Ring's
//! own rules; the fault RNG is a second stream, so a faulty run issues the
//! fault-free run's access sequence. The write-back selects by ascending
//! block id after a sort, so neither the stash's map order nor the tree
//! store's layout can reach a plan. Every golden digest rests on exactly
//! that.
//!
//! The steady state is allocation-free: plan and touch vectors cycle
//! through the [`PlanPool`], payload boxes through the data path's pools, a
//! bucket's blocks are drained and refilled in place, and the write-back
//! selects from one reused candidate snapshot.

use oram_rng::{Rng, SplitMix64, StdRng};

use crate::bucket::{BlockData, BlockEntry, BucketTree};
use crate::config::RingConfig;
use crate::crypto::BlockCipher;
use crate::faults::{FaultEvent, FaultEventKind, ResilienceConfig};
use crate::oblivious::{Op, ProtocolKind};
use crate::plan::{AccessPlan, OpKind, PlanPool, SlotTouch};
use crate::position_map::{PositionMap, PROGRAM_ID_BOUND};
use crate::protocol::{AccessOutcome, ProtocolStats, TargetSource};
use crate::stash::Stash;
use crate::tree::TreeGeometry;
use crate::types::{BlockId, BucketId, Level, PathId};

/// What a path read moves into the stash.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Take {
    /// Every block, through the transit-fault step (Path ORAM's read).
    All,
    /// The target alone, through the transit-fault step — the path is
    /// otherwise left as it was (Circuit ORAM's read; on the bus every slot
    /// is transferred all the same).
    TargetOnly,
    /// Every block, unsealed directly: an eviction's read phase, which the
    /// fault layer never touches.
    Eviction,
}

/// The kind of an access's read path: a program target's, or a cover's.
pub(crate) fn read_kind(target: Option<BlockId>) -> OpKind {
    if target.is_some() {
        OpKind::ReadPath
    } else {
        OpKind::DummyReadPath
    }
}

/// One read's traffic as it is collected: the plan's touches and the
/// re-reads the transit-fault step added, each with the index of the touch
/// that carries the target.
pub(crate) struct Reads {
    kind: OpKind,
    pub(crate) touches: Vec<SlotTouch>,
    pub(crate) target: Option<usize>,
    pub(crate) retries: Vec<SlotTouch>,
    pub(crate) retry_target: Option<usize>,
}

/// The fault layer's live state: its configuration, the dedicated fault
/// RNG and the append-only event log. The fault RNG is never shared with
/// the protocol RNG, so enabling faults cannot perturb the access sequence.
struct ResilienceState {
    cfg: ResilienceConfig,
    rng: StdRng,
    events: Vec<FaultEvent>,
}

/// The data path: the cipher that seals payloads at rest, the transit-fault
/// layer, and the pooled payload boxes both draw from.
#[derive(Default)]
pub(crate) struct DataPath {
    /// When present, payloads are stored encrypted in the tree and
    /// re-encrypted with a fresh nonce on every write-back.
    pub(crate) cipher: Option<BlockCipher>,
    nonce_counter: u64,
    resilience: Option<ResilienceState>,
    /// Plaintext payload boxes (`block_bytes` each).
    plain_boxes: Vec<BlockData>,
    /// Sealed payload boxes (`block_bytes` + nonce + tag each).
    sealed_boxes: Vec<BlockData>,
    /// Accesses announced by `reserve_accesses`, not yet stocked.
    pub(crate) reserved: usize,
}

/// Pops a pooled payload box of exactly `len` bytes, or allocates one.
fn payload_box(pool: &mut Vec<BlockData>, len: usize) -> BlockData {
    match pool.pop() {
        Some(b) if b.len() == len => b,
        _ => vec![0u8; len].into_boxed_slice(),
    }
}

/// Flips one bit of a corrupted transfer's bytes, chosen by a stateless
/// function of the transfer: whether a block has a payload must not reach
/// the fault RNG, whose draws decide every later retry plan on the bus.
fn flip_bit(bytes: &mut [u8], access: u64, id: BucketId, slot: u32) {
    let seed = access ^ id.0.rotate_left(24) ^ u64::from(slot).rotate_left(48);
    if let Some(bit) = SplitMix64::new(seed)
        .next_u64()
        .checked_rem(bytes.len() as u64 * 8)
    {
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
}

impl DataPath {
    /// The fault layer's configuration, when it is enabled.
    pub(crate) fn resilience(&self) -> Option<&ResilienceConfig> {
        self.resilience.as_ref().map(|r| &r.cfg)
    }

    /// Drains the fault-event log.
    pub(crate) fn take_events(&mut self) -> Vec<FaultEvent> {
        self.resilience
            .as_mut()
            .map(|r| std::mem::take(&mut r.events))
            .unwrap_or_default()
    }

    /// Re-seals every payload-bearing entry in place, in slot order under
    /// consecutive fresh nonces: one [`BlockCipher::seal_into`] per payload,
    /// into a sealed box from the pool, the plaintext box going back to its
    /// pool.
    pub(crate) fn seal_batch(&mut self, stats: &mut ProtocolStats, entries: &mut [BlockEntry]) {
        let Some(cipher) = &self.cipher else {
            return;
        };
        for (_, d) in entries.iter_mut() {
            if let Some(plain) = d.take() {
                let mut sealed =
                    payload_box(&mut self.sealed_boxes, BlockCipher::sealed_len(plain.len()));
                self.nonce_counter += 1;
                cipher.seal_into(self.nonce_counter, &plain, &mut sealed);
                stats.encryptions += 1;
                *d = Some(sealed);
                self.plain_boxes.push(plain);
            }
        }
    }

    /// Unseals a payload fetched from the tree into the trusted boundary.
    /// The plaintext buffer comes from the pool and the consumed sealed box
    /// is recycled — the mirror of [`Self::seal_batch`].
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    pub(crate) fn unseal(
        &mut self,
        stats: &mut ProtocolStats,
        data: Option<BlockData>,
    ) -> Option<BlockData> {
        match (&self.cipher, data) {
            (Some(c), Some(d)) => {
                stats.decryptions += 1;
                let plain_len = d
                    .len()
                    .saturating_sub(BlockCipher::NONCE_BYTES + BlockCipher::TAG_BYTES);
                let mut out = payload_box(&mut self.plain_boxes, plain_len);
                c.open_into(&d, &mut out)
                    .expect("tree payloads are always sealed");
                self.sealed_boxes.push(d);
                Some(out)
            }
            (_, d) => d,
        }
    }

    /// A box of `len` bytes holding a program write's `bytes`. The first
    /// write stocks the pool with a box per reserved access; a timing-only
    /// run never writes, so never stocks.
    fn write_box(&mut self, bytes: &[u8], len: usize) -> BlockData {
        assert_eq!(bytes.len(), len, "payload must be exactly block_bytes long");
        let stocked = self.plain_boxes.len() + std::mem::take(&mut self.reserved);
        self.plain_boxes
            .resize_with(stocked, || vec![0; len].into_boxed_slice());
        let mut b = payload_box(&mut self.plain_boxes, len);
        b.copy_from_slice(bytes);
        b
    }

    /// Appends a fault event to the log (no-op when resilience is off).
    fn record(&mut self, access: u64, bucket: BucketId, slot: u32, kind: FaultEventKind) {
        if let Some(r) = self.resilience.as_mut() {
            r.events.push(FaultEvent {
                access,
                bucket,
                slot,
                kind,
            });
        }
    }

    /// The transit-fault step for one real block a read path moves from
    /// slot `slot` of off-chip bucket `id` into the stash: decides from the
    /// fault schedule whether the transfer was corrupted, verifies
    /// integrity via the sealed format's tag, and performs bounded re-reads
    /// (the DRAM-resident copy is intact, so a clean re-transfer recovers).
    /// Appends one read touch per retry to `retries` and returns the
    /// surviving (unsealed) payload and whether it arrived with the last
    /// retry.
    ///
    /// Without a cipher there is no integrity tag: the corruption is
    /// applied to the raw payload (when one exists) and flows on
    /// *undetected* — the fault log records only `Injected`, which the
    /// `sim-verify` fault auditor flags as a missed detection.
    pub(crate) fn fetch(
        &mut self,
        stats: &mut ProtocolStats,
        id: BucketId,
        slot: u32,
        mut data: Option<BlockData>,
        retries: &mut Vec<SlotTouch>,
    ) -> (Option<BlockData>, bool) {
        let (rate, max_retries) = match self.resilience.as_ref() {
            Some(r) if r.cfg.bit_flip_rate > 0.0 => (r.cfg.bit_flip_rate, r.cfg.max_retries),
            _ => return (self.unseal(stats, data), false),
        };
        let access = stats.read_paths;
        let corrupted = self
            .resilience
            .as_mut()
            .is_some_and(|r| r.rng.gen_bool(rate));
        if !corrupted {
            return (self.unseal(stats, data), false);
        }

        self.record(access, id, slot, FaultEventKind::Injected);
        stats.faults_injected += 1;

        if self.cipher.is_none() {
            // No integrity tag: garble the payload copy (the simulator
            // stores payloads lazily; metadata-only fetches have nothing to
            // garble) and proceed as if nothing happened.
            if let Some(d) = data.as_deref_mut() {
                flip_bit(d, access, id, slot);
            }
            return (data, false);
        }

        // Detection: a debug build flips the same bit of a copy of the sealed
        // bytes and checks the tag fails; metadata-only fetches model the
        // check directly (a real controller MACs the whole slot transfer,
        // payload and all; the simulator keeps no untouched payload bytes).
        if let (true, Some(c), Some(d)) = (cfg!(debug_assertions), &self.cipher, &data) {
            let mut copy = d.to_vec();
            flip_bit(&mut copy, access, id, slot);
            debug_assert!(
                c.open(&copy).is_err(),
                "a corrupted transfer must fail its integrity tag"
            );
        }
        self.record(access, id, slot, FaultEventKind::Detected);
        stats.faults_detected += 1;

        // Bounded recovery: re-read the same (already public) slot up to
        // `max_retries` times; each re-transfer is independently subject to
        // corruption.
        let mut recovered = false;
        for _ in 0..max_retries {
            self.record(access, id, slot, FaultEventKind::Retried);
            stats.fault_retries += 1;
            retries.push(SlotTouch::read(id, slot));
            let again = self
                .resilience
                .as_mut()
                .is_some_and(|r| r.rng.gen_bool(rate));
            if again {
                self.record(access, id, slot, FaultEventKind::Injected);
                stats.faults_injected += 1;
                self.record(access, id, slot, FaultEventKind::Detected);
                stats.faults_detected += 1;
                continue;
            }
            recovered = true;
            break;
        }
        if recovered {
            self.record(access, id, slot, FaultEventKind::Recovered);
            stats.faults_recovered += 1;
            (self.unseal(stats, data), true)
        } else {
            self.record(access, id, slot, FaultEventKind::Unrecovered);
            stats.faults_unrecovered += 1;
            (None, false)
        }
    }
}

/// A lazily materialized bucket tree with its position map, stash, protocol
/// RNG, statistics, plan pool and data path.
pub(crate) struct PlainTree {
    /// The design point the engine over this frame realizes.
    pub(crate) kind: ProtocolKind,
    pub(crate) cfg: RingConfig,
    pub(crate) geometry: TreeGeometry,
    /// Bucket rows in the tree's slab chunks, so a materialized tree stops
    /// allocating; payloads in lanes beside them.
    pub(crate) buckets: BucketTree,
    pub(crate) position_map: PositionMap,
    pub(crate) stash: Stash,
    pub(crate) rng: StdRng,
    pub(crate) stats: ProtocolStats,
    pub(crate) pool: PlanPool,
    pub(crate) data: DataPath,
    /// The last program read's payload, copied out of the stash.
    pub(crate) read_back: Vec<u8>,
    /// `refill_path`: `(block, deepest eligible level, taken)` snapshot of
    /// the stash, ascending by block id.
    candidates: Vec<(BlockId, u32, bool)>,
    /// `refill_path`: the entries one bucket receives, sealed as a batch.
    batch: Vec<BlockEntry>,
}

impl std::fmt::Debug for PlainTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlainTree")
            .field("kind", &self.kind)
            .field("cfg", &self.cfg)
            .field("buckets_materialized", &self.buckets.materialized())
            .field("stash_len", &self.stash.len())
            .finish_non_exhaustive()
    }
}

impl PlainTree {
    /// An empty tree for a `kind` engine.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RingConfig::validate`], or if `kind` is Path
    /// or Circuit and `cfg.bucket_slots() != cfg.z`: their buckets are
    /// exactly `Z` slots ([`RingConfig::z_slot`]).
    pub(crate) fn new(kind: ProtocolKind, cfg: RingConfig, seed: u64) -> Self {
        let buckets = BucketTree::new(&cfg); // validates `cfg`
        assert!(
            matches!(kind, ProtocolKind::RingCb | ProtocolKind::Ring)
                || cfg.bucket_slots() == cfg.z,
            "Path and Circuit ORAM buckets are exactly Z slots; pass RingConfig::z_slot(), \
             got Z = {}, S = {}, Y = {}",
            cfg.z,
            cfg.s,
            cfg.y
        );
        let geometry = TreeGeometry::new(cfg.levels);
        Self {
            kind,
            buckets,
            position_map: PositionMap::new(geometry.leaf_count()),
            cfg,
            geometry,
            stash: Stash::new(),
            rng: StdRng::seed_from_u64(seed),
            stats: ProtocolStats::default(),
            pool: PlanPool::default(),
            data: DataPath::default(),
            read_back: Vec::new(),
            candidates: Vec::new(),
            batch: Vec::new(),
        }
    }

    /// Turns on deterministic fault injection (see
    /// [`ObliviousProtocol::enable_resilience`](crate::ObliviousProtocol::enable_resilience)).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ResilienceConfig::validate`] against the
    /// configured stash capacity.
    pub(crate) fn enable_resilience(&mut self, cfg: ResilienceConfig) {
        if let Err(e) = cfg.validate(self.cfg.stash_capacity) {
            panic!("invalid ResilienceConfig: {e}");
        }
        self.data.resilience = Some(ResilienceState {
            rng: StdRng::seed_from_u64(cfg.fault_seed),
            cfg,
            events: Vec::new(),
        });
    }

    /// The path an access reads and whether its target was mapped before:
    /// the target's path, drawn on its first touch, or for a cover
    /// (`None`) a uniformly drawn one.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not a program block id (`>= PROGRAM_ID_BOUND`),
    /// before anything is drawn or changed.
    pub(crate) fn locate(&mut self, target: Option<BlockId>) -> (PathId, bool) {
        let Some(block) = target else {
            return (
                PathId(self.rng.gen_range(0..self.geometry.leaf_count())),
                true,
            );
        };
        assert!(
            block.0 < PROGRAM_ID_BOUND,
            "program block ids must be below PROGRAM_ID_BOUND (2^30), got {block}"
        );
        match self.position_map.lookup(block) {
            Some(path) => (path, true),
            None => (self.position_map.remap(block, &mut self.rng), false),
        }
    }

    /// An empty read of `kind`, its vectors from the pool.
    pub(crate) fn reads(&mut self, kind: OpKind, capacity: usize) -> Reads {
        Reads {
            kind,
            touches: self.pool.touches(capacity),
            target: None,
            retries: self.pool.touches(0),
            retry_target: None,
        }
    }

    /// Appends the read's plan and, when the transit-fault step re-read a
    /// slot, the [`OpKind::RetryRead`] plan after it.
    pub(crate) fn emit(&mut self, plans: &mut Vec<AccessPlan>, reads: Reads) {
        plans.push(AccessPlan::new(reads.kind, reads.touches, reads.target));
        if reads.retries.is_empty() {
            self.pool.put_touches(reads.retries);
        } else {
            plans.push(AccessPlan::new(
                OpKind::RetryRead,
                reads.retries,
                reads.retry_target,
            ));
        }
    }

    /// Reads `path` root to leaf: appends `Z` read touches per off-chip
    /// bucket and moves what `take` names into the stash with its payload.
    /// Records in `reads` the touch that carries `target`, when it came
    /// from an off-chip bucket, and returns where the target was.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    pub(crate) fn read_path(
        &mut self,
        path: PathId,
        target: Option<BlockId>,
        take: Take,
        reads: &mut Reads,
    ) -> TargetSource {
        let z = self.cfg.z;
        let mut source = match target {
            Some(b) if !self.stash.contains(b) => TargetSource::New,
            _ => TargetSource::Stash,
        };
        for lvl in 0..self.cfg.levels {
            let level = Level(lvl);
            let id = self.geometry.bucket_at(path, level);
            let mut bucket = self.buckets.bucket_or_fill(id, |_| {});
            let off_chip = lvl >= self.cfg.tree_top_cached_levels;
            let found = target.and_then(|b| bucket.peek().find(b));
            if let Some(pos) = found {
                source = if off_chip {
                    reads.target = Some(reads.touches.len() + pos);
                    TargetSource::Tree(level)
                } else {
                    TargetSource::TreeTop(level)
                };
            }
            let (data, stats, stash, map) = (
                &mut self.data,
                &mut self.stats,
                &mut self.stash,
                &self.position_map,
            );
            let (retries, retry_target) = (&mut reads.retries, &mut reads.retry_target);
            let mut arrive = |slot: usize, b: BlockId, payload: Option<BlockData>| {
                let payload = if off_chip && !matches!(take, Take::Eviction) {
                    let (payload, recovered) = data.fetch(stats, id, slot as u32, payload, retries);
                    if recovered && found == Some(slot) {
                        // The program's data arrives with the last retry.
                        *retry_target = Some(retries.len() - 1);
                    }
                    payload
                } else {
                    data.unseal(stats, payload)
                };
                let p = map.lookup(b).expect("tree blocks are mapped");
                stash.insert_with_data(b, p, payload);
            };
            match (take, found) {
                (Take::TargetOnly, Some(pos)) => {
                    let (b, payload) = bucket.swap_remove(pos);
                    arrive(pos, b, payload);
                }
                (Take::TargetOnly, None) => {}
                (Take::All | Take::Eviction, _) => bucket.drain(arrive),
            }
            if off_chip {
                reads
                    .touches
                    .extend((0..z).map(|slot| SlotTouch::read(id, slot)));
            }
        }
        source
    }

    /// Closes the read of one access: a program target is remapped,
    /// (re-)entered in the stash under its new path and counted by
    /// `source`, and the program's `Op` applied to its payload; a cover
    /// (`None`) counts one dummy read path. Returns whether a read copied a
    /// payload into [`Self::read_back`].
    pub(crate) fn remap_target(
        &mut self,
        target: Option<(BlockId, Op<'_>)>,
        source: TargetSource,
    ) -> bool {
        let Some((block, op)) = target else {
            self.stats.dummy_read_paths += 1;
            return false;
        };
        let new_path = self.position_map.remap(block, &mut self.rng);
        self.stash.insert(block, new_path);
        self.stats.read_paths += 1;
        match source {
            TargetSource::Tree(_) => self.stats.targets_from_tree += 1,
            TargetSource::TreeTop(_) => self.stats.targets_from_treetop += 1,
            TargetSource::Stash => self.stats.targets_from_stash += 1,
            TargetSource::New => self.stats.new_blocks += 1,
        }
        match op {
            Op::Read => {
                let payload = self.stash.data_of(block);
                self.read_back.clear();
                self.read_back
                    .extend_from_slice(payload.unwrap_or_default());
                payload.is_some()
            }
            Op::Write(bytes) => {
                let b = self.data.write_box(bytes, self.cfg.block_bytes as usize);
                self.data.plain_boxes.extend(self.stash.set_data(block, b));
                false
            }
        }
    }

    /// Writes `path` back leaf to root: each bucket takes, in ascending
    /// block id, the stashed blocks that may live that deep until it holds
    /// `Z`, sealed as one batch, and every off-chip bucket is rewritten in
    /// full (`Z` write touches) whatever it received. One candidate
    /// snapshot serves all levels — the phase only removes stash entries,
    /// so it selects exactly what `Stash::drain_for_bucket` would on a
    /// per-level rescan.
    pub(crate) fn refill_path(&mut self, path: PathId, touches: &mut Vec<SlotTouch>) {
        let z = self.cfg.z;
        let candidates = &mut self.candidates;
        candidates.clear();
        self.stash
            .for_each_candidate(&self.geometry, path, |b, depth| {
                candidates.push((b, depth.0, false));
            });
        candidates.sort_unstable_by_key(|&(b, _, _)| b);
        for lvl in (0..self.cfg.levels).rev() {
            let id = self.geometry.bucket_at(path, Level(lvl));
            let mut bucket = self.buckets.bucket_or_fill(id, |_| {});
            let mut room = z as usize - bucket.peek().real_count();
            for c in self.candidates.iter_mut() {
                if room == 0 {
                    break;
                }
                if !c.2 && c.1 >= lvl {
                    c.2 = true;
                    room -= 1;
                    self.batch.push((c.0, self.stash.take(c.0).flatten()));
                }
            }
            self.data.seal_batch(&mut self.stats, &mut self.batch);
            for (b, d) in self.batch.drain(..) {
                bucket.append(b, d);
            }
            if lvl >= self.cfg.tree_top_cached_levels {
                touches.extend((0..z).map(|slot| SlotTouch::write(id, slot)));
            }
        }
    }

    /// Closes an access: samples the stash and wraps the plans.
    pub(crate) fn finish(&mut self, plans: Vec<AccessPlan>, source: TargetSource) -> AccessOutcome {
        self.stats.stash_samples.push(self.stash.len());
        AccessOutcome { plans, source }
    }

    /// Verifies the frame's invariants (tests, the benchmark's check pass).
    ///
    /// # Panics
    ///
    /// Panics unless every mapped block is held exactly once — in the stash
    /// or in a bucket on its path —, no bucket holds more than `Z` blocks or
    /// has served more than `S` touches since its last shuffle, and buckets
    /// and stash together hold exactly the mapped blocks.
    pub(crate) fn check_invariants(&self) {
        let max_level = self.geometry.max_level();
        for (block, path) in self.position_map.iter() {
            let on_path = self
                .buckets
                .on_path(path, max_level)
                .filter(|bucket| bucket.find(block).is_some())
                .count();
            let copies = on_path + usize::from(self.stash.contains(block));
            assert!(
                copies == 1,
                "{block} mapped to {path} is held {copies} times in the stash and on its path"
            );
        }
        let mut held = self.stash.len();
        for bucket in self.buckets.buckets() {
            assert!(
                bucket.real_count() <= self.cfg.z as usize,
                "a bucket is over capacity (Z = {}): {bucket:?}",
                self.cfg.z
            );
            assert!(
                bucket.accesses() <= self.cfg.s,
                "a bucket is over its access budget (S = {}): {bucket:?}",
                self.cfg.s
            );
            held += bucket.real_count();
        }
        assert_eq!(
            held,
            self.position_map.len(),
            "buckets and stash hold {held} blocks, the position map {}",
            self.position_map.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(levels: u32, z: u32) -> RingConfig {
        RingConfig {
            levels,
            z,
            ..RingConfig::test_small()
        }
        .z_slot()
    }

    fn plain(cfg: RingConfig, seed: u64) -> PlainTree {
        PlainTree::new(ProtocolKind::Path, cfg, seed)
    }

    /// A frame after 400 Path-schedule accesses over 60 blocks.
    fn busy_tree() -> PlainTree {
        let mut tree = plain(cfg(6, 4), 5);
        for i in 0..400 {
            let block = BlockId(i * 7 % 60);
            let (path, _) = tree.locate(Some(block));
            let mut reads = tree.reads(OpKind::ReadPath, 0);
            let source = tree.read_path(path, Some(block), Take::All, &mut reads);
            tree.remap_target(Some((block, Op::Read)), source);
            tree.refill_path(path, &mut reads.touches);
        }
        tree.check_invariants();
        tree
    }

    /// Some block the tree (not the stash) holds, with its bucket.
    fn a_tree_block(tree: &mut PlainTree) -> (BlockId, BucketId) {
        let (block, path) = tree
            .position_map
            .entries()
            .into_iter()
            .find(|&(b, _)| !tree.stash.contains(b))
            .expect("400 accesses leave blocks in the tree");
        let id = (0..tree.cfg.levels)
            .map(|l| tree.geometry.bucket_at(path, Level(l)))
            .find(|&id| {
                tree.buckets
                    .get_mut(id)
                    .is_some_and(|b| b.peek().find(block).is_some())
            })
            .expect("on its path");
        (block, id)
    }

    #[test]
    fn refill_path_selects_what_a_per_level_drain_would() {
        let mut rng = StdRng::seed_from_u64(0x5E1EC7);
        for case in 0..200 {
            let levels = rng.gen_range(4..11u32);
            let z = [1, 2, 4][rng.gen_range(0..3usize)];
            let mut tree = plain(cfg(levels, z), case);
            let leaves = tree.geometry.leaf_count();
            for b in 0..rng.gen_range(0..3 * u64::from(z * levels) + 1) {
                let path = PathId(rng.gen_range(0..leaves));
                tree.position_map.insert(BlockId(b * 3 + 1), path);
                tree.stash.insert(BlockId(b * 3 + 1), path);
            }
            let path = PathId(rng.gen_range(0..leaves));
            let mut reference = tree.stash.clone();
            let mut touches = Vec::new();
            tree.refill_path(path, &mut touches);

            let mut expect_touches = Vec::new();
            for lvl in (0..levels).rev() {
                let id = tree.geometry.bucket_at(path, Level(lvl));
                let expect: Vec<BlockId> = reference
                    .drain_for_bucket(&tree.geometry, path, Level(lvl), z as usize)
                    .into_iter()
                    .map(|(b, _)| b)
                    .collect();
                let got = tree.buckets.get_mut(id).expect("every level materialized");
                assert_eq!(
                    got.peek().real_blocks(),
                    expect,
                    "case {case}: level {lvl} of {path}"
                );
                expect_touches.extend((0..z).map(|slot| SlotTouch::write(id, slot)));
            }
            assert_eq!(touches, expect_touches, "case {case}");
            let sorted = |s: &Stash| {
                let mut v: Vec<_> = s.iter().collect();
                v.sort();
                v
            };
            assert_eq!(sorted(&tree.stash), sorted(&reference), "case {case}");
            tree.check_invariants();
        }
    }

    #[test]
    #[should_panic(expected = "held 2 times")]
    fn invariants_reject_a_duplicated_block() {
        let mut tree = busy_tree();
        let (block, _) = a_tree_block(&mut tree);
        tree.stash.insert(block, PathId(0));
        tree.check_invariants();
    }

    #[test]
    #[should_panic(expected = "held 0 times")]
    fn invariants_reject_a_dropped_block() {
        let mut tree = busy_tree();
        let (block, id) = a_tree_block(&mut tree);
        let mut bucket = tree.buckets.get_mut(id).expect("materialized");
        let slot = bucket.peek().find(block).expect("held");
        bucket.swap_remove(slot);
        tree.check_invariants();
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn invariants_reject_an_overfull_bucket() {
        let mut tree = busy_tree();
        // The root lies on every path, so each block is still held once.
        // A row has room for exactly `Z` blocks, so the bucket refuses the
        // block that would overfill it before any check could see it.
        for b in 1000..1005 {
            tree.position_map.insert(BlockId(b), PathId(b % 32));
            let mut root = tree.buckets.get_mut(BucketId(0)).expect("materialized");
            root.append(BlockId(b), None);
        }
        tree.check_invariants();
    }

    #[test]
    #[should_panic(expected = "buckets and stash hold")]
    fn invariants_reject_an_unmapped_resident() {
        let mut tree = busy_tree();
        tree.stash.insert(BlockId(1000), PathId(0));
        tree.check_invariants();
    }
}
