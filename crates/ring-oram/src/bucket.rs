//! Bucket state, the Compact Bucket (CB) access rules, and the tree the
//! buckets hang in.
//!
//! A Ring ORAM bucket has `Z` real-block slots and, in baseline Ring ORAM,
//! `S` reserved dummy slots; it may be touched `S` times between shuffles
//! because every touch invalidates one slot. The paper's **Compact Bucket**
//! keeps the access budget at `S` but provisions only `S - Y` physical dummy
//! slots: up to `Y` of the touches may fetch a *green* block — a real block
//! consumed as if it were a dummy and parked in the stash.
//!
//! On the memory bus every touch is a single indistinguishable block read,
//! so the green/dummy distinction is invisible to the adversary; it only
//! changes how fast the stash fills (analyzed in the paper's §VII-D/E).
//!
//! # Resident layout
//!
//! A bucket is what a hardware controller keeps per bucket: one metadata
//! word per slot (valid bit + block id) and a few counters. Payload bytes
//! live in a separate per-bucket lane that exists only once a payload has
//! been stored, so timing-only simulations never pay for it. Buckets hang
//! in a `BucketTree`: a node vector linked parent → child, walked root to
//! leaf exactly as the protocol's read paths and evictions walk the tree.

use oram_rng::Rng;

use crate::config::RingConfig;
use crate::types::{BlockId, BucketId, FetchKind, PathId};

/// Owned payload of a real block (ciphertext when encryption is enabled).
pub type BlockData = Box<[u8]>;

/// A real block together with its (optional) payload, as moved between
/// buckets and the stash.
pub type BlockEntry = (BlockId, Option<BlockData>);

/// Slot-word bit 63: the slot may still be read before the next shuffle.
const VALID: u64 = 1 << 63;
/// Slot-word low 63 bits, all ones: the slot holds no real block. An
/// invalid slot never holds one (every touch that invalidates a slot also
/// consumes its block), so a slot word is `VALID | id`, `VALID | DUMMY` or
/// bare `DUMMY`.
const DUMMY: u64 = VALID - 1;

/// A bucket: `Z + S - Y` permuted slots plus the metadata the paper's Fig. 2
/// and Fig. 7 describe (valid/real bits, access counter, green counter).
#[derive(Debug, Clone)]
pub struct Bucket {
    /// One packed word per physical slot (see [`VALID`] / [`DUMMY`]).
    slots: Vec<u64>,
    /// Payload lane, parallel to `slots`; empty (unallocated) until the
    /// first reload that carries a payload. `Some` only at valid real slots.
    lane: Vec<Option<BlockData>>,
    /// Touches since the last shuffle (the paper's per-bucket counter).
    accesses: u32,
    /// Green fetches since the last shuffle (the paper's green counter,
    /// `log2(Y)` bits of metadata).
    greens_used: u32,
    /// Cached count of valid slots holding a real block, so the per-touch
    /// access rules ([`Self::needs_reshuffle_gated`], slot choice) are O(1)
    /// instead of re-scanning the slot vector.
    n_valid_reals: u32,
    /// Cached count of valid dummy slots.
    n_valid_dummies: u32,
}

fn holds_real(word: u64) -> bool {
    word & VALID != 0 && word != VALID | DUMMY
}

impl Bucket {
    /// A freshly shuffled bucket holding `blocks` (at most `Z` of them,
    /// without payloads), with the remaining slots as valid dummies, in a
    /// random permutation.
    ///
    /// # Panics
    ///
    /// Panics if more than `cfg.z` blocks are supplied.
    #[must_use]
    pub fn with_blocks<R: Rng + ?Sized>(cfg: &RingConfig, blocks: &[BlockId], rng: &mut R) -> Self {
        Self::with_entries(cfg, blocks.iter().map(|&b| (b, None)).collect(), rng)
    }

    /// A freshly shuffled bucket holding `entries` (blocks with optional
    /// payloads), with the remaining slots as valid dummies, in a random
    /// permutation.
    ///
    /// # Panics
    ///
    /// Panics if more than `cfg.z` entries are supplied.
    #[must_use]
    pub fn with_entries<R: Rng + ?Sized>(
        cfg: &RingConfig,
        mut entries: Vec<BlockEntry>,
        rng: &mut R,
    ) -> Self {
        Self::loaded(cfg, &mut entries, rng)
    }

    /// [`Self::with_entries`] draining a caller-owned staging buffer; the
    /// bucket's one allocation is its slot storage, sized by the reload.
    pub(crate) fn loaded<R: Rng + ?Sized>(
        cfg: &RingConfig,
        entries: &mut Vec<BlockEntry>,
        rng: &mut R,
    ) -> Self {
        let mut bucket = Self {
            slots: Vec::new(),
            lane: Vec::new(),
            accesses: 0,
            greens_used: 0,
            n_valid_reals: 0,
            n_valid_dummies: 0,
        };
        bucket.reload(cfg, entries, rng);
        bucket
    }

    /// An empty, freshly shuffled bucket (all dummies).
    #[must_use]
    pub fn empty<R: Rng + ?Sized>(cfg: &RingConfig, rng: &mut R) -> Self {
        Self::with_blocks(cfg, &[], rng)
    }

    /// Touches since the last shuffle.
    #[must_use]
    pub fn accesses(&self) -> u32 {
        self.accesses
    }

    /// Green fetches since the last shuffle.
    #[must_use]
    pub fn greens_used(&self) -> u32 {
        self.greens_used
    }

    /// Number of valid real blocks currently stored.
    #[must_use]
    pub fn real_count(&self) -> usize {
        debug_assert_eq!(
            self.n_valid_reals as usize,
            self.slots.iter().filter(|&&w| holds_real(w)).count()
        );
        self.n_valid_reals as usize
    }

    /// Number of valid dummy slots remaining.
    #[must_use]
    pub fn valid_dummies(&self) -> usize {
        debug_assert_eq!(
            self.n_valid_dummies as usize,
            self.slots.iter().filter(|&&w| w == VALID | DUMMY).count()
        );
        self.n_valid_dummies as usize
    }

    /// The valid real blocks currently stored.
    #[must_use]
    pub fn real_blocks(&self) -> Vec<BlockId> {
        self.slots
            .iter()
            .filter(|&&w| holds_real(w))
            .map(|&w| BlockId(w & DUMMY))
            .collect()
    }

    /// Slot index of `block` if it is present and still valid.
    #[must_use]
    pub fn find(&self, block: BlockId) -> Option<usize> {
        // `DUMMY` itself is not a block id: `VALID | DUMMY` is a dummy slot.
        if block.0 >= DUMMY {
            return None;
        }
        self.slots.iter().position(|&w| w == VALID | block.0)
    }

    /// Whether the bucket must be reshuffled *before* it can absorb another
    /// touch: either its access budget `S` is exhausted, or — a CB-specific
    /// condition — it can serve neither a dummy nor a green fetch.
    ///
    /// The second condition cannot arise in baseline Ring ORAM (`Y = 0`
    /// guarantees `S` physical dummies) but can under CB when the bucket
    /// holds fewer real blocks than the green budget assumes. The simulator
    /// counts these *forced reshuffles* separately; see
    /// `RingOram`'s statistics.
    #[must_use]
    pub fn needs_reshuffle(&self, cfg: &RingConfig) -> bool {
        self.needs_reshuffle_gated(cfg, true)
    }

    /// [`Self::needs_reshuffle`] with an explicit green gate: with
    /// `allow_green = false` (the resilience layer's degraded mode) a
    /// bucket whose dummies are exhausted must reshuffle even if its green
    /// budget remains — green substitution is what degraded mode disables
    /// to stop feeding the stash. The one exception is a completely full
    /// bucket in a `Y == S` configuration, which has zero dummy slots:
    /// there a reshuffle cannot help and the green fetch is unavoidable.
    #[must_use]
    pub fn needs_reshuffle_gated(&self, cfg: &RingConfig, allow_green: bool) -> bool {
        if self.accesses >= cfg.s {
            return true;
        }
        if self.valid_dummies() > 0 {
            return false;
        }
        if !allow_green && (self.real_count() as u32) < cfg.bucket_slots() {
            // Degraded mode: a reshuffle re-validates every non-real slot
            // as a dummy, so prefer it over a green fetch whenever the
            // bucket has room for dummies. Only a completely full bucket
            // (possible when Y == S leaves zero dummy slots) falls through
            // to an unavoidable green.
            return true;
        }
        !self.green_available(cfg)
    }

    fn green_available(&self, cfg: &RingConfig) -> bool {
        self.greens_used < cfg.y && self.real_count() > 0
    }

    /// Picks a uniformly random valid slot that holds a real block
    /// (`real = true`) or a dummy (`real = false`); `None` when no such
    /// slot exists.
    ///
    /// Draw-compatible with `candidates.choose(rng)` over the collected
    /// ascending candidate list: both consume exactly one
    /// `gen_range(0..n)`-style draw for a non-empty set and select the
    /// `k`-th candidate in slot order — this form just skips building the
    /// list, using the cached counts instead.
    fn choose_slot<R: Rng + ?Sized>(&self, real: bool, rng: &mut R) -> Option<usize> {
        let n = if real {
            self.n_valid_reals
        } else {
            self.n_valid_dummies
        } as usize;
        if n == 0 {
            return None;
        }
        let k = rng.gen_range(0..n);
        let mut seen = 0;
        for (i, &w) in self.slots.iter().enumerate() {
            if w & VALID != 0 && holds_real(w) == real {
                if seen == k {
                    return Some(i);
                }
                seen += 1;
            }
        }
        unreachable!("cached slot counts out of sync with slot vector")
    }

    /// Sets slot `idx` to `word` (it no longer holds its block) and returns
    /// the payload it carried, if any.
    fn vacate(&mut self, idx: usize, word: u64) -> Option<BlockData> {
        self.slots[idx] = word;
        self.lane.get_mut(idx).and_then(Option::take)
    }

    /// Serves one read-path touch.
    ///
    /// * If `target` is present and valid, its slot is read: the block moves
    ///   to the caller (stash) and the slot is invalidated.
    /// * Otherwise a valid **dummy** is preferred; when no valid dummy
    ///   remains and the green budget allows, a valid real block is fetched
    ///   as a **green** block (dummy-first policy — the paper allows "freely
    ///   choosing", and dummy-first maximizes the bucket's usable lifetime
    ///   while keeping stash pressure minimal).
    ///
    /// Background-eviction dummy read paths (which the paper specifies as
    /// "reading specifically dummy blocks") call this with `target = None`;
    /// dummy-first makes them consume greens only as a last resort.
    ///
    /// Returns the slot index read, what it carried, and the payload when
    /// a real block (target or green) was fetched.
    ///
    /// # Panics
    ///
    /// Panics if the bucket cannot serve the touch;
    /// callers must check [`Self::needs_reshuffle`] first.
    pub fn serve_read<R: Rng + ?Sized>(
        &mut self,
        cfg: &RingConfig,
        target: Option<BlockId>,
        rng: &mut R,
    ) -> (usize, FetchKind, Option<BlockData>) {
        self.serve_read_gated(cfg, target, true, rng)
    }

    /// [`Self::serve_read`] with an explicit green gate; callers must check
    /// [`Self::needs_reshuffle_gated`] with the same gate first.
    ///
    /// # Panics
    ///
    /// Panics if the bucket cannot serve the touch under the gate.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    pub fn serve_read_gated<R: Rng + ?Sized>(
        &mut self,
        cfg: &RingConfig,
        target: Option<BlockId>,
        allow_green: bool,
        rng: &mut R,
    ) -> (usize, FetchKind, Option<BlockData>) {
        // A bucket holding the wanted target can always serve it (the
        // target read needs no dummy/green); otherwise the caller must have
        // reshuffled first.
        debug_assert!(
            target.is_some_and(|t| self.find(t).is_some())
                || !self.needs_reshuffle_gated(cfg, allow_green),
            "bucket exhausted"
        );
        self.accesses += 1;
        if let Some(t) = target {
            if let Some(idx) = self.find(t) {
                self.n_valid_reals -= 1;
                return (idx, FetchKind::Target(t), self.vacate(idx, DUMMY));
            }
        }
        // Dummy-first policy.
        if let Some(idx) = self.choose_slot(false, rng) {
            self.slots[idx] = DUMMY;
            self.n_valid_dummies -= 1;
            return (idx, FetchKind::Dummy, None);
        }
        // Fall back to a green block. Under the degraded-mode gate this is
        // legal only for a completely full bucket, where no reshuffle can
        // mint a dummy (Y == S configurations).
        assert!(
            allow_green || self.real_count() as u32 == cfg.bucket_slots(),
            "green substitution disabled; needs_reshuffle_gated() should have fired"
        );
        let idx = self
            .choose_slot(true, rng)
            .expect("needs_reshuffle() guaranteed a candidate");
        assert!(
            self.greens_used < cfg.y,
            "green budget exceeded; needs_reshuffle() should have fired"
        );
        let block = BlockId(self.slots[idx] & DUMMY);
        self.n_valid_reals -= 1;
        self.greens_used += 1;
        (idx, FetchKind::Green(block), self.vacate(idx, DUMMY))
    }

    /// Removes and returns every valid real block with its payload (the
    /// eviction/reshuffle read phase: the controller reads the `Z` real
    /// slots of the bucket).
    pub fn take_real_blocks(&mut self) -> Vec<BlockEntry> {
        let mut out = Vec::new();
        self.take_real_blocks_into(&mut out);
        out
    }

    /// Allocation-free form of [`Self::take_real_blocks`]: appends the
    /// removed entries to a caller-provided (reusable) buffer.
    pub fn take_real_blocks_into(&mut self, out: &mut Vec<BlockEntry>) {
        for idx in 0..self.slots.len() {
            let word = self.slots[idx];
            if holds_real(word) {
                // The emptied slot stays valid, so it now counts as a dummy.
                let data = self.vacate(idx, VALID | DUMMY);
                out.push((BlockId(word & DUMMY), data));
            }
        }
        self.n_valid_dummies += self.n_valid_reals;
        self.n_valid_reals = 0;
    }

    /// Reshuffles the bucket: installs `entries` (at most `Z`, drained from
    /// the caller's reusable buffer), resets all metadata and re-permutes
    /// the slots (the eviction/reshuffle write phase: `Z + S - Y` encrypted
    /// blocks are written back).
    ///
    /// # Panics
    ///
    /// Panics if more than `cfg.z` entries are supplied, or if a block id
    /// does not fit a slot word's 63 id bits.
    pub fn reload<R: Rng + ?Sized>(
        &mut self,
        cfg: &RingConfig,
        entries: &mut Vec<BlockEntry>,
        rng: &mut R,
    ) {
        assert!(
            entries.len() <= cfg.z as usize,
            "bucket can hold at most Z = {} real blocks, got {}",
            cfg.z,
            entries.len()
        );
        let reals = entries.len() as u32;
        let slot_count = cfg.bucket_slots() as usize;
        // Rebuild in place, reusing the slot storage (a reload happens on
        // every eviction level and every reshuffle); a fresh bucket sizes it
        // here, once. The lane joins on the first payload and then stays.
        let payloads = !self.lane.is_empty() || entries.iter().any(|(_, d)| d.is_some());
        self.slots.clear();
        self.slots.reserve_exact(slot_count);
        self.lane.clear();
        if payloads {
            self.lane.reserve_exact(slot_count);
        }
        for (b, data) in entries.drain(..) {
            assert!(b.0 < DUMMY, "block id {b} does not fit a slot word");
            self.slots.push(VALID | b.0);
            if payloads {
                self.lane.push(data);
            }
        }
        self.slots.resize(slot_count, VALID | DUMMY);
        if payloads {
            self.lane.resize_with(slot_count, || None);
        }
        // Fisher–Yates, drawing exactly as `SliceRandom::shuffle` does, with
        // every swap applied to the words and (when present) the lane.
        for i in (1..slot_count).rev() {
            let j = rng.gen_range(0..i + 1);
            self.slots.swap(i, j);
            if payloads {
                self.lane.swap(i, j);
            }
        }
        self.accesses = 0;
        self.greens_used = 0;
        self.n_valid_reals = reals;
        self.n_valid_dummies = slot_count as u32 - reals;
    }

    /// Number of physical slots.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether `slot` currently holds a valid real block.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn slot_holds_real(&self, slot: usize) -> bool {
        holds_real(self.slots[slot])
    }

    /// Removes the block stored in `slot`, if any, returning its payload
    /// (used when the tree-top cache serves a target directly: an on-chip
    /// read with no protocol side effects).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn clear_slot(&mut self, slot: usize) -> Option<BlockData> {
        if !holds_real(self.slots[slot]) {
            return None;
        }
        self.n_valid_reals -= 1;
        self.n_valid_dummies += 1;
        self.vacate(slot, VALID | DUMMY)
    }
}

/// One tree position: links to the two children (0 = not created yet; the
/// root, node 0, is nobody's child) and the bucket, once it has content.
#[derive(Debug, Clone)]
struct Node<B> {
    children: [u32; 2],
    bucket: Option<B>,
}

impl<B> Node<B> {
    const BARE: Self = Self {
        children: [0; 2],
        bucket: None,
    };
}

/// The lazily grown bucket tree — the crate's one tree store, generic over
/// what a bucket holds (a packed Ring [`Bucket`], or the plain-tree frame's
/// `Vec<BlockId>`): nodes are created from the root down along the paths
/// the protocol walks, so reaching a bucket costs one dependent load per
/// level from the nearest ancestor the previous walk visited.
///
/// A node may exist before its bucket does: a read path that is not
/// searching for a target passes through the on-chip tree-top levels
/// without materializing them.
#[derive(Debug, Clone)]
pub(crate) struct BucketTree<B> {
    nodes: Vec<Node<B>>,
    /// Per level, the bucket the last lookup passed through — as a 1-based
    /// heap index (`BucketId + 1`; 0 matches nothing) — and its node. Level
    /// 0 is always the root.
    cursor: Vec<(u64, u32)>,
    /// Nodes whose bucket is `Some`.
    materialized: usize,
}

impl<B> BucketTree<B> {
    /// An empty tree of `levels` levels.
    pub(crate) fn new(levels: u32) -> Self {
        let mut cursor = vec![(0, 0); levels as usize];
        cursor[0] = (1, 0);
        Self {
            nodes: vec![Node::BARE],
            cursor,
            materialized: 0,
        }
    }

    /// Number of buckets with content.
    pub(crate) fn materialized(&self) -> usize {
        self.materialized
    }

    /// The node of bucket `id`, created (with any missing ancestors) on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if `id` lies below the tree's last level.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn node(&mut self, id: BucketId) -> usize {
        // 1-based heap index: the ancestor `up` levels above is `heap >> up`
        // and the low bit tells a right child from a left one.
        let heap = id.0 + 1;
        let level = (u64::BITS - 1 - heap.leading_zeros()) as usize;
        let mut l = level;
        while self.cursor[l].0 != heap >> (level - l) {
            l -= 1; // terminates at the root, which every bucket descends from
        }
        let mut node = self.cursor[l].1 as usize;
        while l < level {
            l += 1;
            let ancestor = heap >> (level - l);
            let side = (ancestor & 1) as usize;
            let mut child = self.nodes[node].children[side] as usize;
            if child == 0 {
                child = self.nodes.len();
                self.nodes[node].children[side] =
                    u32::try_from(child).expect("fewer than 2^32 tree nodes");
                self.nodes.push(Node::BARE);
            }
            node = child;
            self.cursor[l] = (ancestor, child as u32);
        }
        node
    }

    /// The bucket `id`, filled by `fill` on first touch.
    pub(crate) fn bucket_or_insert_with(
        &mut self,
        id: BucketId,
        fill: impl FnOnce() -> B,
    ) -> &mut B {
        let node = self.node(id);
        let materialized = &mut self.materialized;
        self.nodes[node].bucket.get_or_insert_with(|| {
            *materialized += 1;
            fill()
        })
    }

    /// The bucket `id`, if it has content.
    pub(crate) fn get_mut(&mut self, id: BucketId) -> Option<&mut B> {
        let node = self.node(id);
        self.nodes[node].bucket.as_mut()
    }

    /// The materialized buckets along `path`, root to leaf, without
    /// creating anything; `max_level` is the leaf level (`L`).
    pub(crate) fn on_path(&self, path: PathId, max_level: u32) -> impl Iterator<Item = &B> {
        let mut next = Some(0usize);
        let mut level = 0;
        std::iter::from_fn(move || {
            let node = &self.nodes[next?];
            next = (level < max_level)
                .then(|| node.children[((path.0 >> (max_level - level - 1)) & 1) as usize] as usize)
                .filter(|&child| child != 0);
            level += 1;
            Some(node.bucket.as_ref())
        })
        .flatten()
    }

    /// Every materialized bucket, in creation order of its node.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = &B> {
        self.nodes.iter().filter_map(|n| n.bucket.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_rng::{SliceRandom, StdRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn cfg() -> RingConfig {
        RingConfig::test_small() // Z=4, S=4, Y=0
    }

    fn cb_cfg() -> RingConfig {
        RingConfig::test_small_cb() // Z=4, S=4, Y=2
    }

    #[test]
    fn fresh_bucket_shape() {
        let mut r = rng();
        let b = Bucket::with_blocks(&cfg(), &[BlockId(1), BlockId(2)], &mut r);
        assert_eq!(b.slot_count(), 8); // Z + S - Y = 4 + 4 - 0
        assert_eq!(b.real_count(), 2);
        assert_eq!(b.valid_dummies(), 6);
        assert_eq!(b.accesses(), 0);
        assert_eq!(b.greens_used(), 0);
    }

    #[test]
    fn cb_bucket_is_smaller() {
        let mut r = rng();
        let b = Bucket::empty(&cb_cfg(), &mut r);
        assert_eq!(b.slot_count(), 6); // 4 + 4 - 2
    }

    #[test]
    #[should_panic(expected = "at most Z")]
    fn overfull_bucket_rejected() {
        let mut r = rng();
        let blocks: Vec<BlockId> = (0..5).map(BlockId).collect();
        let _ = Bucket::with_blocks(&cfg(), &blocks, &mut r);
    }

    #[test]
    fn target_read_removes_block() {
        let mut r = rng();
        let mut b = Bucket::with_blocks(&cfg(), &[BlockId(42)], &mut r);
        let (slot, kind, _) = b.serve_read(&cfg(), Some(BlockId(42)), &mut r);
        assert_eq!(kind, FetchKind::Target(BlockId(42)));
        assert!(slot < b.slot_count());
        assert_eq!(b.real_count(), 0);
        assert_eq!(b.accesses(), 1);
        assert_eq!(b.find(BlockId(42)), None);
    }

    #[test]
    fn non_target_read_prefers_dummies() {
        let mut r = rng();
        let c = cb_cfg(); // Z=4, S=4, Y=2 -> 6 slots
        let blocks: Vec<BlockId> = (0..4).map(BlockId).collect();
        let mut b = Bucket::with_blocks(&c, &blocks, &mut r);
        // A full bucket leaves 2 physical dummies: the first two non-target
        // reads must consume them even though greens are allowed.
        for _ in 0..2 {
            let (_, kind, _) = b.serve_read(&c, None, &mut r);
            assert_eq!(kind, FetchKind::Dummy);
        }
        // Third non-target read must fall back to a green block.
        let (_, kind, _) = b.serve_read(&c, None, &mut r);
        assert!(matches!(kind, FetchKind::Green(_)), "{kind:?}");
        assert_eq!(b.greens_used(), 1);
        assert_eq!(b.real_count(), 3);
    }

    #[test]
    fn underfull_bucket_has_extra_dummies() {
        // Unoccupied real slots physically hold dummies, so an underfull
        // CB bucket can serve more dummy touches than S - Y.
        let mut r = rng();
        let c = cb_cfg(); // 6 slots
        let mut b = Bucket::with_blocks(&c, &[BlockId(1)], &mut r);
        assert_eq!(b.valid_dummies(), 5);
        // S = 4 touches are all served by dummies; no green needed.
        for _ in 0..4 {
            let (_, kind, _) = b.serve_read(&c, None, &mut r);
            assert_eq!(kind, FetchKind::Dummy);
        }
        assert_eq!(b.greens_used(), 0);
        assert!(b.needs_reshuffle(&c), "budget S exhausted");
    }

    #[test]
    fn budget_exhaustion_triggers_reshuffle_signal() {
        let mut r = rng();
        let c = cfg(); // S = 4
        let mut b = Bucket::with_blocks(&c, &[BlockId(1)], &mut r);
        for _ in 0..4 {
            assert!(!b.needs_reshuffle(&c));
            let _ = b.serve_read(&c, None, &mut r);
        }
        assert!(b.needs_reshuffle(&c), "S touches exhaust the budget");
    }

    #[test]
    fn forced_exhaustion_cannot_occur_with_valid_configs() {
        // With Y <= Z (enforced by RingConfig::validate), every bucket can
        // always serve its full budget of S touches: the number of touchable
        // slots is (slots - reals) dummies + min(Y, reals) greens >= S for
        // any real count 0..=Z. Exhaustive check over all occupancies.
        let mut r = rng();
        let c = cb_cfg(); // Z=4, S=4, Y=2
        for reals in 0..=c.z {
            let blocks: Vec<BlockId> = (0..u64::from(reals)).map(BlockId).collect();
            let mut b = Bucket::with_blocks(&c, &blocks, &mut r);
            for touch in 0..c.s {
                assert!(
                    !b.needs_reshuffle(&c),
                    "bucket with {reals} reals exhausted after {touch} touches"
                );
                let _ = b.serve_read(&c, None, &mut r);
            }
            assert!(b.needs_reshuffle(&c), "budget S must be the binding limit");
        }
    }

    #[test]
    fn green_budget_is_capped() {
        let mut r = rng();
        let c = cb_cfg(); // Y = 2
        let blocks: Vec<BlockId> = (0..4).map(BlockId).collect();
        let mut b = Bucket::with_blocks(&c, &blocks, &mut r);
        // Use up 2 dummies + 2 greens = S touches.
        let mut greens = 0;
        for _ in 0..4 {
            let (_, kind, _) = b.serve_read(&c, None, &mut r);
            if matches!(kind, FetchKind::Green(_)) {
                greens += 1;
            }
        }
        assert_eq!(greens, 2);
        assert!(b.needs_reshuffle(&c));
        // Two real blocks survived untouched.
        assert_eq!(b.real_count(), 2);
    }

    #[test]
    fn green_gate_forces_reshuffle_when_dummies_run_out() {
        let mut r = rng();
        let c = cb_cfg(); // Z=4, S=4, Y=2 -> 6 slots, 2 physical dummies
        let blocks: Vec<BlockId> = (0..4).map(BlockId).collect();
        let mut b = Bucket::with_blocks(&c, &blocks, &mut r);
        for _ in 0..2 {
            let (_, kind, _) = b.serve_read_gated(&c, None, false, &mut r);
            assert_eq!(kind, FetchKind::Dummy, "gate must not affect dummies");
        }
        // Dummies exhausted: an ungated bucket would serve a green, a gated
        // one must reshuffle.
        assert!(!b.needs_reshuffle(&c));
        assert!(b.needs_reshuffle_gated(&c, false));
    }

    #[test]
    fn take_real_blocks_empties_bucket() {
        let mut r = rng();
        let blocks: Vec<BlockId> = (10..13).map(BlockId).collect();
        let mut b = Bucket::with_blocks(&cfg(), &blocks, &mut r);
        let mut taken: Vec<BlockId> = b.take_real_blocks().into_iter().map(|(b, _)| b).collect();
        taken.sort();
        assert_eq!(taken, blocks);
        assert_eq!(b.real_count(), 0);
    }

    #[test]
    fn reload_resets_metadata() {
        let mut r = rng();
        let c = cfg();
        let mut b = Bucket::with_blocks(&c, &[BlockId(1)], &mut r);
        let _ = b.serve_read(&c, None, &mut r);
        b.reload(&c, &mut vec![(BlockId(9), None)], &mut r);
        assert_eq!(b.accesses(), 0);
        assert_eq!(b.greens_used(), 0);
        assert_eq!(b.real_blocks(), vec![BlockId(9)]);
        assert_eq!(b.valid_dummies(), 7);
    }

    #[test]
    fn invalid_slots_are_never_reread() {
        let mut r = rng();
        let c = cfg();
        let mut b = Bucket::empty(&c, &mut r);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..c.s {
            let (slot, _, _) = b.serve_read(&c, None, &mut r);
            assert!(seen.insert(slot), "slot {slot} read twice");
        }
    }

    #[test]
    fn target_miss_falls_back_to_dummy() {
        let mut r = rng();
        let c = cfg();
        let mut b = Bucket::with_blocks(&c, &[BlockId(1)], &mut r);
        // Ask for a block the bucket does not hold.
        let (_, kind, _) = b.serve_read(&c, Some(BlockId(99)), &mut r);
        assert_eq!(kind, FetchKind::Dummy);
        assert_eq!(b.real_count(), 1, "stored block untouched");
    }

    /// The three-field slot the packed word replaced, kept as the reference
    /// the packed bucket is held to: same rules, same draws, naive layout.
    mod model {
        use super::super::{BlockData, BlockEntry};
        use crate::config::RingConfig;
        use crate::types::{BlockId, FetchKind};
        use oram_rng::{Rng, SliceRandom};

        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Slot {
            block: Option<BlockId>,
            valid: bool,
            data: Option<BlockData>,
        }

        #[derive(Debug, Default)]
        pub(super) struct ModelBucket {
            slots: Vec<Slot>,
            pub(super) accesses: u32,
            pub(super) greens_used: u32,
        }

        impl ModelBucket {
            fn count(&self, real: bool) -> usize {
                let hit = |s: &&Slot| s.valid && s.block.is_some() == real;
                self.slots.iter().filter(hit).count()
            }

            pub(super) fn real_count(&self) -> usize {
                self.count(true)
            }

            pub(super) fn valid_dummies(&self) -> usize {
                self.count(false)
            }

            pub(super) fn slot_block(&self, slot: usize) -> Option<BlockId> {
                self.slots[slot].block.filter(|_| self.slots[slot].valid)
            }

            pub(super) fn find(&self, block: BlockId) -> Option<usize> {
                self.slots
                    .iter()
                    .position(|s| s.valid && s.block == Some(block))
            }

            pub(super) fn needs_reshuffle_gated(
                &self,
                cfg: &RingConfig,
                allow_green: bool,
            ) -> bool {
                if self.accesses >= cfg.s {
                    return true;
                }
                if self.valid_dummies() > 0 {
                    return false;
                }
                if !allow_green && (self.real_count() as u32) < cfg.bucket_slots() {
                    return true;
                }
                !(self.greens_used < cfg.y && self.real_count() > 0)
            }

            fn choose_slot<R: Rng + ?Sized>(&self, real: bool, rng: &mut R) -> Option<usize> {
                let candidates: Vec<usize> = (0..self.slots.len())
                    .filter(|&i| self.slots[i].valid && self.slots[i].block.is_some() == real)
                    .collect();
                candidates.choose(rng).copied()
            }

            pub(super) fn serve_read_gated<R: Rng + ?Sized>(
                &mut self,
                target: Option<BlockId>,
                rng: &mut R,
            ) -> (usize, FetchKind, Option<BlockData>) {
                self.accesses += 1;
                if let Some(idx) = target.and_then(|t| self.find(t)) {
                    let s = &mut self.slots[idx];
                    s.valid = false;
                    let block = s.block.take().unwrap();
                    return (idx, FetchKind::Target(block), s.data.take());
                }
                if let Some(idx) = self.choose_slot(false, rng) {
                    self.slots[idx].valid = false;
                    return (idx, FetchKind::Dummy, None);
                }
                let idx = self.choose_slot(true, rng).unwrap();
                let s = &mut self.slots[idx];
                s.valid = false;
                self.greens_used += 1;
                (
                    idx,
                    FetchKind::Green(s.block.take().unwrap()),
                    s.data.take(),
                )
            }

            pub(super) fn take_real_blocks_into(&mut self, out: &mut Vec<BlockEntry>) {
                for s in self.slots.iter_mut().filter(|s| s.valid) {
                    if let Some(b) = s.block.take() {
                        out.push((b, s.data.take()));
                    }
                }
            }

            pub(super) fn reload<R: Rng + ?Sized>(
                &mut self,
                cfg: &RingConfig,
                entries: &mut Vec<BlockEntry>,
                rng: &mut R,
            ) {
                self.slots.clear();
                self.slots.extend(entries.drain(..).map(|(b, data)| Slot {
                    block: Some(b),
                    valid: true,
                    data,
                }));
                self.slots
                    .resize_with(cfg.bucket_slots() as usize, || Slot {
                        block: None,
                        valid: true,
                        data: None,
                    });
                self.slots.shuffle(rng);
                self.accesses = 0;
                self.greens_used = 0;
            }

            pub(super) fn clear_slot(&mut self, slot: usize) -> Option<BlockData> {
                let s = &mut self.slots[slot];
                s.block = None;
                s.data.take()
            }
        }
    }

    /// Everything observable about `packed` equals the model's.
    fn assert_same_state(cfg: &RingConfig, packed: &Bucket, model: &model::ModelBucket) {
        assert_eq!(packed.accesses(), model.accesses);
        assert_eq!(packed.greens_used(), model.greens_used);
        assert_eq!(packed.real_count(), model.real_count());
        assert_eq!(packed.valid_dummies(), model.valid_dummies());
        let mut blocks = Vec::new();
        for slot in 0..packed.slot_count() {
            let block = model.slot_block(slot);
            assert_eq!(packed.slot_holds_real(slot), block.is_some(), "slot {slot}");
            if let Some(b) = block {
                assert_eq!(packed.find(b), Some(slot));
                blocks.push(b);
            }
        }
        assert_eq!(packed.real_blocks(), blocks);
        for gate in [true, false] {
            assert_eq!(
                packed.needs_reshuffle_gated(cfg, gate),
                model.needs_reshuffle_gated(cfg, gate)
            );
        }
    }

    #[test]
    fn packed_bucket_matches_the_three_field_model() {
        let hpca = RingConfig::hpca_default(); // Y = 8, 12 slots
        let wide = RingConfig::fig4_config(4); // 90 slots: more than one word of bits
        assert!(wide.bucket_slots() > 64);
        for (c, seed) in [(cfg(), 1), (cb_cfg(), 2), (hpca, 3), (wide, 4)] {
            let mut ops = StdRng::seed_from_u64(seed);
            let (mut rng_p, mut rng_m) = (StdRng::seed_from_u64(99), StdRng::seed_from_u64(99));
            let mut packed = Bucket::empty(&c, &mut rng_p);
            let mut model = model::ModelBucket::default();
            model.reload(&c, &mut Vec::new(), &mut rng_m);
            let mut next_id = 0u64;
            let (mut out_p, mut out_m) = (Vec::new(), Vec::new());
            let mut seen = [0u32; 4]; // targets, greens, dummies, payloads
            for step in 0..4000 {
                let present = packed.real_blocks();
                // Touch-heavy, so buckets run out of dummies and into greens.
                match ops.gen_range(0..15u32) {
                    0 | 1 => {
                        // Reload with 0..=Z fresh blocks, a coin per payload
                        // (so some reloads carry none, some a mix).
                        let with_data = ops.gen_bool(0.5);
                        let mut entries: Vec<BlockEntry> = (0..ops.gen_range(0..c.z + 1))
                            .map(|_| {
                                next_id += 1;
                                let data = (with_data && ops.gen_bool(0.7))
                                    .then(|| vec![next_id as u8; 8].into_boxed_slice());
                                (BlockId(next_id), data)
                            })
                            .collect();
                        model.reload(&c, &mut entries.clone(), &mut rng_m);
                        packed.reload(&c, &mut entries, &mut rng_p);
                    }
                    2..=11 => {
                        // A touch: a present target, an absent one, or none.
                        let target = match ops.gen_range(0..3u32) {
                            0 => present.choose(&mut ops).copied(),
                            1 => Some(BlockId(u64::MAX - step)),
                            _ => None,
                        };
                        let gate = ops.gen_bool(0.5);
                        let holds = target.is_some_and(|t| model.find(t).is_some());
                        if !holds && model.needs_reshuffle_gated(&c, gate) {
                            continue; // the protocol would reshuffle first
                        }
                        let got = packed.serve_read_gated(&c, target, gate, &mut rng_p);
                        assert_eq!(got, model.serve_read_gated(target, &mut rng_m));
                        match got.1 {
                            FetchKind::Target(_) => seen[0] += 1,
                            FetchKind::Green(_) => seen[1] += 1,
                            FetchKind::Dummy => seen[2] += 1,
                        }
                        seen[3] += u32::from(got.2.is_some());
                    }
                    12 => {
                        packed.take_real_blocks_into(&mut out_p);
                        model.take_real_blocks_into(&mut out_m);
                        assert_eq!(out_p, out_m);
                    }
                    13 => {
                        let slot = ops.gen_range(0..packed.slot_count());
                        assert_eq!(packed.clear_slot(slot), model.clear_slot(slot));
                    }
                    _ => {
                        let absent = BlockId(next_id + 1);
                        assert_eq!(packed.find(absent), model.find(absent));
                    }
                }
                assert_same_state(&c, &packed, &model);
                assert_eq!(format!("{rng_p:?}"), format!("{rng_m:?}"), "step {step}");
            }
            // The stream reached every kind of touch the config allows.
            let [targets, greens, dummies, payloads] = seen;
            assert!(targets > 0 && dummies > 0 && payloads > 0 && !out_p.is_empty());
            assert_eq!(greens > 0, c.y > 0, "Y = {}", c.y);
        }
    }

    #[test]
    fn ids_outside_the_slot_word_are_never_found() {
        let mut r = rng();
        let b = Bucket::with_blocks(&cfg(), &[BlockId(5)], &mut r);
        // The dummy pattern and ids with the valid bit set alias no block.
        assert_eq!(b.find(BlockId(DUMMY)), None);
        assert_eq!(b.find(BlockId(VALID | 5)), None);
        assert_eq!(b.find(BlockId(5)).map(|s| b.slot_holds_real(s)), Some(true));
    }

    #[test]
    #[should_panic(expected = "does not fit a slot word")]
    fn oversized_block_id_rejected() {
        let _ = Bucket::with_blocks(&cfg(), &[BlockId(DUMMY)], &mut rng());
    }

    #[test]
    fn payload_lane_appears_with_the_first_payload() {
        let mut r = rng();
        let c = cfg();
        let mut b = Bucket::with_blocks(&c, &[BlockId(1)], &mut r);
        assert_eq!(b.lane.capacity(), 0, "timing-only buckets carry no lane");
        b.reload(
            &c,
            &mut vec![(BlockId(2), Some(Box::from([7u8; 4])))],
            &mut r,
        );
        assert_eq!(b.lane.len(), b.slot_count());
        let (_, kind, data) = b.serve_read(&c, Some(BlockId(2)), &mut r);
        assert_eq!(kind, FetchKind::Target(BlockId(2)));
        assert_eq!(data.as_deref(), Some(&[7u8; 4][..]));
    }

    /// A bucket holding the single block `tag`, to tell tree nodes apart.
    fn tagged(tag: u64) -> Bucket {
        Bucket::with_blocks(&cfg(), &[BlockId(tag)], &mut rng())
    }

    fn tags<'a>(buckets: impl Iterator<Item = &'a Bucket>) -> Vec<u64> {
        buckets.map(|b| b.real_blocks()[0].0).collect()
    }

    #[test]
    fn tree_lookup_by_id_agrees_with_the_geometry() {
        use crate::tree::TreeGeometry;
        use crate::types::Level;
        let geometry = TreeGeometry::new(6);
        let mut visits: Vec<(u64, u32)> = (0..geometry.leaf_count())
            .flat_map(|p| (0..6).map(move |l| (p, l)))
            .collect();
        visits.shuffle(&mut rng());
        let mut tree = BucketTree::new(6);
        for &(p, l) in &visits {
            let id = geometry.bucket_at(PathId(p), Level(l));
            let got = tree.bucket_or_insert_with(id, || tagged(id.0));
            assert_eq!(got.real_blocks(), [BlockId(id.0)], "{id} via ({p}, {l})");
        }
        assert_eq!(tree.materialized() as u64, geometry.bucket_count());
        for p in 0..geometry.leaf_count() {
            let expect: Vec<u64> = geometry
                .path_buckets(PathId(p))
                .iter()
                .map(|b| b.0)
                .collect();
            assert_eq!(tags(tree.on_path(PathId(p), 5)), expect);
        }
        let mut all = tags(tree.buckets());
        all.sort_unstable();
        assert_eq!(all, (0..geometry.bucket_count()).collect::<Vec<_>>());
    }

    #[test]
    fn tree_child_before_parent_and_cursor_reuse() {
        let mut tree = BucketTree::new(4);
        // Leaf 7 + 5 (path 5) first: its ancestors exist as bare nodes.
        let _ = tree.bucket_or_insert_with(BucketId(12), || tagged(12));
        assert_eq!(
            tree.materialized(),
            1,
            "structural ancestors hold no content"
        );
        assert_eq!(tags(tree.on_path(PathId(5), 3)), [12]);
        assert!(
            tree.get_mut(BucketId(5)).is_none(),
            "parent not materialized"
        );
        assert!(tree.get_mut(BucketId(12)).is_some());
        // A second path sharing only the root, then back: the per-level
        // cursor must not serve one path's node for the other's bucket.
        let _ = tree.bucket_or_insert_with(BucketId(8), || tagged(8)); // path 1
        let _ = tree.bucket_or_insert_with(BucketId(5), || tagged(5)); // path 5, level 2
        let _ = tree.bucket_or_insert_with(BucketId(0), || tagged(0));
        assert_eq!(tree.materialized(), 4);
        assert_eq!(tags(tree.on_path(PathId(5), 3)), [0, 5, 12]);
        assert_eq!(tags(tree.on_path(PathId(1), 3)), [0, 8]);
        assert_eq!(tags(tree.on_path(PathId(7), 3)), [0]);
        // Filling is first-touch only.
        let again = tree.bucket_or_insert_with(BucketId(12), || unreachable!("already filled"));
        assert_eq!(again.real_blocks(), [BlockId(12)]);
    }
}
