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
//! word per slot (valid bit + block id) and a few counters. The crate's
//! `BucketTree` keeps every bucket in one chunked slab: node `i` owns row
//! `i` — `Z + S - Y` slot words — and keeps beside it a 20-byte node (child
//! links, one-byte counters, a lane index, a materialized flag). Chunks of
//! 1024 rows are allocated zeroed when their first node is created and
//! never move. Payload bytes live in a second slab of lanes,
//! one row per bucket that has received a payload, so timing-only
//! simulations never allocate one. A [`Bucket`] is a borrowed view over a
//! row, its node and the lanes; every rule below is implemented on it once.
//! The tree is walked root to leaf exactly as the protocol's read paths and
//! evictions walk it.

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

/// Rows per slab chunk. A chunk is allocated whole (zeroed) the first time
/// one of its rows is needed and never moves, so growing the tree copies
/// no row and never doubles what is resident.
pub(crate) const CHUNK_ROWS: usize = 1024;

fn holds_real(word: u64) -> bool {
    word & VALID != 0 && word != VALID | DUMMY
}

/// `n` as a one-byte counter. Every count is at most the slots per bucket
/// or `S`, which [`BucketTree::new`] checked fit a byte.
#[allow(clippy::expect_used)] // invariant, stated in the expect message
fn counter(n: usize) -> u8 {
    u8::try_from(n).expect("bucket counts fit the byte checked where the tree is built")
}

/// The state a node keeps beside its row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Node {
    /// Child nodes (0 = not created yet; the root, node 0, is nobody's
    /// child).
    children: [u32; 2],
    /// Payload lane: row `lane - 1` of the lane slab; 0 until the bucket
    /// receives its first payload.
    lane: u32,
    /// Touches since the last shuffle (the paper's per-bucket counter).
    accesses: u8,
    /// Green fetches since the last shuffle (the paper's green counter,
    /// `log2(Y)` bits of metadata).
    greens: u8,
    /// Valid slots holding a real block (in the plain tree: blocks held),
    /// so the per-touch rules are O(1) instead of re-scanning the row.
    reals: u8,
    /// Valid dummy slots.
    dummies: u8,
    /// Whether the row has been filled.
    materialized: bool,
}

// A bucket's own resident state is its row and these 20 bytes.
const _: () = assert!(std::mem::size_of::<Node>() == 20);

/// A growable table of fixed-stride rows of `T`, kept in chunks of
/// [`CHUNK_ROWS`] rows (the last chunk cut to the rows the table may ever
/// hold). A chunk is allocated with every element `T::default()` — zeroed
/// memory for the slot words — when its first row is pushed, and never
/// moves: growth copies no row and never doubles what is resident.
#[derive(Debug, Clone)]
pub(crate) struct Slab<T> {
    stride: usize,
    /// Most rows the table will ever hold.
    capacity: usize,
    chunks: Vec<Box<[T]>>,
    /// Rows pushed.
    len: usize,
}

impl<T: Clone + Default> Slab<T> {
    /// An empty table of rows of `stride` elements, at most `capacity` of
    /// them. Allocates nothing.
    pub(crate) fn new(stride: usize, capacity: usize) -> Self {
        Self {
            stride,
            capacity,
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Rows pushed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends a row of `T::default()` and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the table already holds `capacity` rows.
    pub(crate) fn push_row(&mut self) -> usize {
        let i = self.len;
        assert!(
            i < self.capacity,
            "a slab holds at most {} rows",
            self.capacity
        );
        if i.is_multiple_of(CHUNK_ROWS) {
            let rows = (self.capacity - i).min(CHUNK_ROWS);
            self.chunks
                .push(vec![T::default(); rows * self.stride].into_boxed_slice());
        }
        self.len += 1;
        i
    }

    pub(crate) fn row(&self, i: usize) -> &[T] {
        let start = (i % CHUNK_ROWS) * self.stride;
        &self.chunks[i / CHUNK_ROWS][start..start + self.stride]
    }

    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [T] {
        let start = (i % CHUNK_ROWS) * self.stride;
        &mut self.chunks[i / CHUNK_ROWS][start..start + self.stride]
    }

    /// The one element of row `i`, in a table of one-element rows.
    pub(crate) fn at(&self, i: usize) -> &T {
        debug_assert_eq!(self.stride, 1);
        &self.chunks[i / CHUNK_ROWS][i % CHUNK_ROWS]
    }

    /// [`Self::at`], mutably.
    pub(crate) fn at_mut(&mut self, i: usize) -> &mut T {
        debug_assert_eq!(self.stride, 1);
        &mut self.chunks[i / CHUNK_ROWS][i % CHUNK_ROWS]
    }
}

/// The payload lanes: rows of `Option<BlockData>` parallel to slot rows,
/// handed out on a bucket's first payload and kept from then on. A node
/// names its lane by a 1-based index, 0 for none.
type Lanes = Slab<Option<BlockData>>;

impl Lanes {
    /// A fresh lane, as a node's 1-based lane index.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn assign(&mut self) -> u32 {
        let row = self.push_row() + 1;
        u32::try_from(row).expect("fewer than 2^32 lanes")
    }

    /// Lane `lane` (a node's 1-based index), or `None` for no lane.
    fn lane_mut(&mut self, lane: u32) -> Option<&mut [Option<BlockData>]> {
        let row = lane.checked_sub(1)?;
        Some(self.row_mut(row as usize))
    }
}

/// A read-only look at one bucket: its slot words and counters. The reading
/// rules (lookup, counts, the reshuffle condition, slot choice) live here;
/// [`Bucket::peek`] gives one for a mutable view.
#[derive(Debug, Clone, Copy)]
pub struct BucketRef<'a> {
    /// One packed word per physical slot (see [`VALID`] / [`DUMMY`]).
    slots: &'a [u64],
    node: &'a Node,
}

impl BucketRef<'_> {
    /// Touches since the last shuffle.
    #[must_use]
    pub fn accesses(&self) -> u32 {
        u32::from(self.node.accesses)
    }

    /// Green fetches since the last shuffle.
    #[must_use]
    pub fn greens_used(&self) -> u32 {
        u32::from(self.node.greens)
    }

    /// Number of valid real blocks currently stored.
    #[must_use]
    pub fn real_count(&self) -> usize {
        debug_assert_eq!(
            usize::from(self.node.reals),
            self.slots.iter().filter(|&&w| holds_real(w)).count()
        );
        usize::from(self.node.reals)
    }

    /// Number of valid dummy slots remaining.
    #[must_use]
    pub fn valid_dummies(&self) -> usize {
        debug_assert_eq!(
            usize::from(self.node.dummies),
            self.slots.iter().filter(|&&w| w == VALID | DUMMY).count()
        );
        usize::from(self.node.dummies)
    }

    /// The valid real blocks currently stored, in slot order.
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
        if self.accesses() >= cfg.s {
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
        !(self.greens_used() < cfg.y && self.real_count() > 0)
    }

    /// Picks a uniformly random valid slot that holds a real block
    /// (`real = true`) or a dummy (`real = false`); `None` when no such
    /// slot exists.
    ///
    /// Draw-compatible with `candidates.choose(rng)` over the collected
    /// ascending candidate list: both consume exactly one
    /// `gen_range(0..n)` draw for a non-empty set and select the `k`-th
    /// candidate in slot order. This form builds the match mask of each 64
    /// slots without branches and takes its `k`-th set bit.
    fn choose_slot<R: Rng + ?Sized>(&self, real: bool, rng: &mut R) -> Option<usize> {
        let n = usize::from(if real {
            self.node.reals
        } else {
            self.node.dummies
        });
        if n == 0 {
            return None;
        }
        let mut k = rng.gen_range(0..n);
        for (c, words) in self.slots.chunks(64).enumerate() {
            let mut mask = 0u64;
            for (i, &w) in words.iter().enumerate() {
                // Valid, and a dummy exactly when a dummy is wanted.
                let hit = (w & VALID != 0) & ((w == VALID | DUMMY) != real);
                mask |= u64::from(hit) << i;
            }
            let hits = mask.count_ones() as usize;
            if k < hits {
                for _ in 0..k {
                    mask &= mask - 1;
                }
                return Some(c * 64 + mask.trailing_zeros() as usize);
            }
            k -= hits;
        }
        unreachable!("cached slot counts out of sync with the slot words")
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
}

/// A bucket: `Z + S - Y` permuted slots plus the metadata the paper's Fig. 2
/// and Fig. 7 describe (valid/real bits, access counter, green counter) — a
/// mutable view over one slab row, its node and the payload lanes.
#[derive(Debug)]
pub struct Bucket<'a> {
    /// One packed word per physical slot (see [`VALID`] / [`DUMMY`]).
    slots: &'a mut [u64],
    node: &'a mut Node,
    /// The tree's payload lanes; the bucket's own is `node.lane`.
    lanes: &'a mut Lanes,
}

impl Bucket<'_> {
    /// The reading rules, over this bucket.
    #[must_use]
    pub fn peek(&self) -> BucketRef<'_> {
        BucketRef {
            slots: self.slots,
            node: self.node,
        }
    }

    /// Sets slot `idx` to `word` (it no longer holds its block) and returns
    /// the payload it carried, if any.
    fn vacate(&mut self, idx: usize, word: u64) -> Option<BlockData> {
        self.slots[idx] = word;
        self.lanes.lane_mut(self.node.lane)?[idx].take()
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
    /// Panics if the bucket cannot serve the touch; callers must check
    /// [`BucketRef::needs_reshuffle`] first.
    pub fn serve_read<R: Rng + ?Sized>(
        &mut self,
        cfg: &RingConfig,
        target: Option<BlockId>,
        rng: &mut R,
    ) -> (usize, FetchKind, Option<BlockData>) {
        self.serve_read_gated(cfg, target, true, rng)
    }

    /// [`Self::serve_read`] with an explicit green gate; callers must check
    /// [`BucketRef::needs_reshuffle_gated`] with the same gate first.
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
            target.is_some_and(|t| self.peek().find(t).is_some())
                || !self.peek().needs_reshuffle_gated(cfg, allow_green),
            "bucket exhausted"
        );
        self.node.accesses += 1;
        if let Some(t) = target {
            if let Some(idx) = self.peek().find(t) {
                self.node.reals -= 1;
                return (idx, FetchKind::Target(t), self.vacate(idx, DUMMY));
            }
        }
        // Dummy-first policy.
        if let Some(idx) = self.peek().choose_slot(false, rng) {
            self.slots[idx] = DUMMY;
            self.node.dummies -= 1;
            return (idx, FetchKind::Dummy, None);
        }
        // Fall back to a green block. Under the degraded-mode gate this is
        // legal only for a completely full bucket, where no reshuffle can
        // mint a dummy (Y == S configurations).
        assert!(
            allow_green || u32::from(self.node.reals) == cfg.bucket_slots(),
            "green substitution disabled; needs_reshuffle_gated() should have fired"
        );
        let idx = self
            .peek()
            .choose_slot(true, rng)
            .expect("needs_reshuffle() guaranteed a candidate");
        assert!(
            u32::from(self.node.greens) < cfg.y,
            "green budget exceeded; needs_reshuffle() should have fired"
        );
        let block = BlockId(self.slots[idx] & DUMMY);
        self.node.reals -= 1;
        self.node.greens += 1;
        (idx, FetchKind::Green(block), self.vacate(idx, DUMMY))
    }

    /// Removes every valid real block with its payload and appends them, in
    /// slot order, to a caller-provided (reusable) buffer (the
    /// eviction/reshuffle read phase: the controller reads the `Z` real
    /// slots of the bucket).
    pub fn take_real_blocks_into(&mut self, out: &mut Vec<BlockEntry>) {
        for idx in 0..self.slots.len() {
            let word = self.slots[idx];
            if holds_real(word) {
                // The emptied slot stays valid, so it now counts as a dummy.
                let data = self.vacate(idx, VALID | DUMMY);
                out.push((BlockId(word & DUMMY), data));
            }
        }
        self.node.dummies += self.node.reals;
        self.node.reals = 0;
    }

    /// Reshuffles the bucket: installs `entries` (at most `Z`, drained from
    /// the caller's reusable buffer), resets all metadata and re-permutes
    /// the slots (the eviction/reshuffle write phase: `Z + S - Y` encrypted
    /// blocks are written back). The bucket receives its payload lane with
    /// its first payload and keeps it.
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
        debug_assert_eq!(self.slots.len(), cfg.bucket_slots() as usize);
        if self.node.lane == 0 && entries.iter().any(|(_, d)| d.is_some()) {
            self.node.lane = self.lanes.assign();
        }
        let reals = entries.len();
        let slot_count = self.slots.len();
        let mut lane = self.lanes.lane_mut(self.node.lane);
        for (i, (b, data)) in entries.drain(..).enumerate() {
            assert!(b.0 < DUMMY, "block id {b} does not fit a slot word");
            self.slots[i] = VALID | b.0;
            if let Some(lane) = lane.as_deref_mut() {
                lane[i] = data;
            }
        }
        self.slots[reals..].fill(VALID | DUMMY);
        if let Some(lane) = lane.as_deref_mut() {
            lane[reals..].fill(None);
        }
        // Fisher–Yates, drawing exactly as `SliceRandom::shuffle` does, with
        // every swap applied to the words and (when present) the lane.
        for i in (1..slot_count).rev() {
            let j = rng.gen_range(0..i + 1);
            self.slots.swap(i, j);
            if let Some(lane) = lane.as_deref_mut() {
                lane.swap(i, j);
            }
        }
        self.node.accesses = 0;
        self.node.greens = 0;
        self.node.reals = counter(reals);
        self.node.dummies = counter(slot_count - reals);
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
        self.node.reals -= 1;
        self.node.dummies += 1;
        self.vacate(slot, VALID | DUMMY)
    }
}

/// The plain-tree frame's rules (Path, Circuit): a bucket holds its blocks
/// as valid slot words packed at the front of its row, in arrival order,
/// and the rest of the row is zero. [`BucketRef`]'s reading rules apply
/// unchanged (`find` is then the position in arrival order).
impl Bucket<'_> {
    /// Appends `block` after the blocks held.
    ///
    /// # Panics
    ///
    /// Panics if the bucket already holds `Z` blocks.
    pub(crate) fn append(&mut self, block: BlockId) {
        let held = usize::from(self.node.reals);
        assert!(
            held < self.slots.len(),
            "a bucket is over capacity (Z = {})",
            self.slots.len()
        );
        debug_assert!(block.0 < DUMMY, "block id {block} does not fit a slot word");
        self.slots[held] = VALID | block.0;
        self.node.reals += 1;
    }

    /// Removes the block in `slot`, moving the last block held into it.
    pub(crate) fn swap_remove(&mut self, slot: usize) {
        let last = usize::from(self.node.reals) - 1;
        self.slots[slot] = self.slots[last];
        self.slots[last] = 0;
        self.node.reals -= 1;
    }

    /// Removes every block held, handing each to `f` in arrival order.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(BlockId)) {
        let held = usize::from(self.node.reals);
        for word in &mut self.slots[..held] {
            f(BlockId(*word & DUMMY));
            *word = 0;
        }
        self.node.reals = 0;
    }
}

/// One bucket outside any tree — a one-row bucket tree — for exercising the
/// bucket rules on their own.
#[derive(Debug, Clone)]
pub struct OwnedBucket(BucketTree);

impl OwnedBucket {
    /// A freshly shuffled bucket holding `blocks` (at most `Z` of them,
    /// without payloads), with the remaining slots as valid dummies, in a
    /// random permutation.
    ///
    /// # Panics
    ///
    /// Panics if more than `cfg.z` blocks are supplied, or if a bucket's
    /// slots or its access budget `S` exceed 255 (the counters are one
    /// byte).
    #[must_use]
    pub fn with_blocks<R: Rng + ?Sized>(cfg: &RingConfig, blocks: &[BlockId], rng: &mut R) -> Self {
        let mut tree = BucketTree::new(&RingConfig {
            levels: 1,
            tree_top_cached_levels: 0,
            ..cfg.clone()
        });
        let mut entries = blocks.iter().map(|&b| (b, None)).collect();
        tree.bucket_or_fill(BucketId(0), |bucket| bucket.reload(cfg, &mut entries, rng));
        Self(tree)
    }

    /// An empty, freshly shuffled bucket (all dummies).
    #[must_use]
    pub fn empty<R: Rng + ?Sized>(cfg: &RingConfig, rng: &mut R) -> Self {
        Self::with_blocks(cfg, &[], rng)
    }

    /// The bucket, to serve touches and reshuffle.
    pub fn view(&mut self) -> Bucket<'_> {
        self.0.view(0)
    }

    /// The bucket's reading rules.
    #[must_use]
    pub fn peek(&self) -> BucketRef<'_> {
        self.0.view_ref(0)
    }
}

/// The lazily grown bucket tree — the crate's one tree store, shared by the
/// Ring engine ([`Bucket`]'s rules) and the plain-tree frame (the packed
/// rows of its `Z` block ids). Nodes are created from the root down along
/// the paths the protocol walks, so reaching a bucket costs one dependent
/// load per level from the nearest ancestor the previous walk visited.
///
/// Node `i` owns row `i` of the slot slab; both sit in chunks of
/// [`CHUNK_ROWS`], so a materialized bucket has no heap object of its own.
/// A node may exist before its bucket has content: a read path that is not
/// searching for a target passes through the on-chip tree-top levels
/// without materializing them. `Clone` is a deep copy.
#[derive(Debug, Clone)]
pub(crate) struct BucketTree {
    /// Node state, one row of one [`Node`] per node.
    nodes: Slab<Node>,
    /// Slot words, one row per node.
    words: Slab<u64>,
    lanes: Lanes,
    /// Per level, the bucket the last lookup passed through — as a 1-based
    /// heap index (`BucketId + 1`; 0 matches nothing) — and its node. Level
    /// 0 is always the root.
    cursor: Vec<(u64, u32)>,
    /// Nodes whose row has been filled.
    materialized: usize,
}

impl BucketTree {
    /// An empty tree of `cfg.levels` levels with rows of
    /// `cfg.bucket_slots()` words. Allocates no slab chunk.
    ///
    /// # Panics
    ///
    /// Panics if a bucket's slots or its access budget `S` exceed 255: the
    /// node counters are one byte.
    pub(crate) fn new(cfg: &RingConfig) -> Self {
        let slots = cfg.bucket_slots();
        assert!(
            u8::try_from(slots).is_ok() && u8::try_from(cfg.s).is_ok(),
            "bucket counters are one byte: Z + S - Y = {slots} slots and S = {} must each be \
             at most 255",
            cfg.s
        );
        let capacity = usize::try_from(cfg.bucket_count()).unwrap_or(usize::MAX);
        let mut cursor = vec![(0, 0); cfg.levels as usize];
        cursor[0] = (1, 0);
        Self {
            nodes: Slab::new(1, capacity),
            words: Slab::new(slots as usize, capacity),
            lanes: Slab::new(slots as usize, capacity),
            cursor,
            materialized: 0,
        }
    }

    /// Number of buckets with content.
    pub(crate) fn materialized(&self) -> usize {
        self.materialized
    }

    /// Creates the next node, allocating its chunk if it starts one.
    fn push_node(&mut self) -> usize {
        self.words.push_row();
        self.nodes.push_row()
    }

    /// The node of bucket `id`, created (with any missing ancestors) on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if `id` lies below the tree's last level.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn node(&mut self, id: BucketId) -> usize {
        if self.nodes.len() == 0 {
            self.push_node(); // the root
        }
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
            let mut child = self.nodes.at(node).children[side] as usize;
            if child == 0 {
                child = self.push_node();
                self.nodes.at_mut(node).children[side] =
                    u32::try_from(child).expect("fewer than 2^32 tree nodes");
            }
            node = child;
            self.cursor[l] = (ancestor, child as u32);
        }
        node
    }

    /// The mutable view of node `i`'s bucket.
    fn view(&mut self, i: usize) -> Bucket<'_> {
        Bucket {
            slots: self.words.row_mut(i),
            node: self.nodes.at_mut(i),
            lanes: &mut self.lanes,
        }
    }

    /// The read-only view of node `i`'s bucket.
    fn view_ref(&self, i: usize) -> BucketRef<'_> {
        BucketRef {
            slots: self.words.row(i),
            node: self.nodes.at(i),
        }
    }

    /// The bucket `id`; on its first touch its row (all zero) is filled by
    /// `fill`.
    pub(crate) fn bucket_or_fill(
        &mut self,
        id: BucketId,
        fill: impl FnOnce(&mut Bucket<'_>),
    ) -> Bucket<'_> {
        let i = self.node(id);
        let fresh = !self.nodes.at(i).materialized;
        self.materialized += usize::from(fresh);
        let mut bucket = self.view(i);
        if fresh {
            bucket.node.materialized = true;
            fill(&mut bucket);
        }
        bucket
    }

    /// The bucket `id`, if it has content.
    pub(crate) fn get_mut(&mut self, id: BucketId) -> Option<Bucket<'_>> {
        let i = self.node(id);
        if self.nodes.at(i).materialized {
            Some(self.view(i))
        } else {
            None
        }
    }

    /// The materialized buckets along `path`, root to leaf, without
    /// creating anything; `max_level` is the leaf level (`L`).
    pub(crate) fn on_path(
        &self,
        path: PathId,
        max_level: u32,
    ) -> impl Iterator<Item = BucketRef<'_>> {
        let mut next = (self.nodes.len() > 0).then_some(0usize);
        let mut level = 0;
        std::iter::from_fn(move || {
            let i = next?;
            let node = self.nodes.at(i);
            next = (level < max_level)
                .then(|| node.children[((path.0 >> (max_level - level - 1)) & 1) as usize] as usize)
                .filter(|&child| child != 0);
            level += 1;
            Some(node.materialized.then(|| self.view_ref(i)))
        })
        .flatten()
    }

    /// Every materialized bucket, in creation order of its node.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = BucketRef<'_>> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes.at(i).materialized)
            .map(|i| self.view_ref(i))
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
        let b = OwnedBucket::with_blocks(&cfg(), &[BlockId(1), BlockId(2)], &mut r);
        let b = b.peek();
        assert_eq!(b.slot_count(), 8); // Z + S - Y = 4 + 4 - 0
        assert_eq!(b.real_count(), 2);
        assert_eq!(b.valid_dummies(), 6);
        assert_eq!(b.accesses(), 0);
        assert_eq!(b.greens_used(), 0);
    }

    #[test]
    fn cb_bucket_is_smaller() {
        let mut r = rng();
        let b = OwnedBucket::empty(&cb_cfg(), &mut r);
        assert_eq!(b.peek().slot_count(), 6); // 4 + 4 - 2
    }

    #[test]
    #[should_panic(expected = "at most Z")]
    fn overfull_bucket_rejected() {
        let mut r = rng();
        let blocks: Vec<BlockId> = (0..5).map(BlockId).collect();
        let _ = OwnedBucket::with_blocks(&cfg(), &blocks, &mut r);
    }

    #[test]
    fn target_read_removes_block() {
        let mut r = rng();
        let mut owned = OwnedBucket::with_blocks(&cfg(), &[BlockId(42)], &mut r);
        let mut b = owned.view();
        let (slot, kind, _) = b.serve_read(&cfg(), Some(BlockId(42)), &mut r);
        assert_eq!(kind, FetchKind::Target(BlockId(42)));
        let b = b.peek();
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
        let mut owned = OwnedBucket::with_blocks(&c, &blocks, &mut r);
        let mut b = owned.view();
        // A full bucket leaves 2 physical dummies: the first two non-target
        // reads must consume them even though greens are allowed.
        for _ in 0..2 {
            let (_, kind, _) = b.serve_read(&c, None, &mut r);
            assert_eq!(kind, FetchKind::Dummy);
        }
        // Third non-target read must fall back to a green block.
        let (_, kind, _) = b.serve_read(&c, None, &mut r);
        assert!(matches!(kind, FetchKind::Green(_)), "{kind:?}");
        assert_eq!(b.peek().greens_used(), 1);
        assert_eq!(b.peek().real_count(), 3);
    }

    #[test]
    fn underfull_bucket_has_extra_dummies() {
        // Unoccupied real slots physically hold dummies, so an underfull
        // CB bucket can serve more dummy touches than S - Y.
        let mut r = rng();
        let c = cb_cfg(); // 6 slots
        let mut owned = OwnedBucket::with_blocks(&c, &[BlockId(1)], &mut r);
        let mut b = owned.view();
        assert_eq!(b.peek().valid_dummies(), 5);
        // S = 4 touches are all served by dummies; no green needed.
        for _ in 0..4 {
            let (_, kind, _) = b.serve_read(&c, None, &mut r);
            assert_eq!(kind, FetchKind::Dummy);
        }
        assert_eq!(b.peek().greens_used(), 0);
        assert!(b.peek().needs_reshuffle(&c), "budget S exhausted");
    }

    #[test]
    fn budget_exhaustion_triggers_reshuffle_signal() {
        let mut r = rng();
        let c = cfg(); // S = 4
        let mut owned = OwnedBucket::with_blocks(&c, &[BlockId(1)], &mut r);
        let mut b = owned.view();
        for _ in 0..4 {
            assert!(!b.peek().needs_reshuffle(&c));
            let _ = b.serve_read(&c, None, &mut r);
        }
        assert!(b.peek().needs_reshuffle(&c), "S touches exhaust the budget");
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
            let mut owned = OwnedBucket::with_blocks(&c, &blocks, &mut r);
            let mut b = owned.view();
            for touch in 0..c.s {
                assert!(
                    !b.peek().needs_reshuffle(&c),
                    "bucket with {reals} reals exhausted after {touch} touches"
                );
                let _ = b.serve_read(&c, None, &mut r);
            }
            assert!(
                b.peek().needs_reshuffle(&c),
                "budget S must be the binding limit"
            );
        }
    }

    #[test]
    fn green_budget_is_capped() {
        let mut r = rng();
        let c = cb_cfg(); // Y = 2
        let blocks: Vec<BlockId> = (0..4).map(BlockId).collect();
        let mut owned = OwnedBucket::with_blocks(&c, &blocks, &mut r);
        let mut b = owned.view();
        // Use up 2 dummies + 2 greens = S touches.
        let mut greens = 0;
        for _ in 0..4 {
            let (_, kind, _) = b.serve_read(&c, None, &mut r);
            if matches!(kind, FetchKind::Green(_)) {
                greens += 1;
            }
        }
        assert_eq!(greens, 2);
        assert!(b.peek().needs_reshuffle(&c));
        // Two real blocks survived untouched.
        assert_eq!(b.peek().real_count(), 2);
    }

    #[test]
    fn green_gate_forces_reshuffle_when_dummies_run_out() {
        let mut r = rng();
        let c = cb_cfg(); // Z=4, S=4, Y=2 -> 6 slots, 2 physical dummies
        let blocks: Vec<BlockId> = (0..4).map(BlockId).collect();
        let mut owned = OwnedBucket::with_blocks(&c, &blocks, &mut r);
        let mut b = owned.view();
        for _ in 0..2 {
            let (_, kind, _) = b.serve_read_gated(&c, None, false, &mut r);
            assert_eq!(kind, FetchKind::Dummy, "gate must not affect dummies");
        }
        // Dummies exhausted: an ungated bucket would serve a green, a gated
        // one must reshuffle.
        assert!(!b.peek().needs_reshuffle(&c));
        assert!(b.peek().needs_reshuffle_gated(&c, false));
    }

    #[test]
    fn take_real_blocks_empties_bucket() {
        let mut r = rng();
        let blocks: Vec<BlockId> = (10..13).map(BlockId).collect();
        let mut owned = OwnedBucket::with_blocks(&cfg(), &blocks, &mut r);
        let mut out = Vec::new();
        owned.view().take_real_blocks_into(&mut out);
        let mut taken: Vec<BlockId> = out.into_iter().map(|(b, _)| b).collect();
        taken.sort();
        assert_eq!(taken, blocks);
        assert_eq!(owned.peek().real_count(), 0);
    }

    #[test]
    fn reload_resets_metadata() {
        let mut r = rng();
        let c = cfg();
        let mut owned = OwnedBucket::with_blocks(&c, &[BlockId(1)], &mut r);
        let mut b = owned.view();
        let _ = b.serve_read(&c, None, &mut r);
        b.reload(&c, &mut vec![(BlockId(9), None)], &mut r);
        let b = b.peek();
        assert_eq!(b.accesses(), 0);
        assert_eq!(b.greens_used(), 0);
        assert_eq!(b.real_blocks(), vec![BlockId(9)]);
        assert_eq!(b.valid_dummies(), 7);
    }

    #[test]
    fn invalid_slots_are_never_reread() {
        let mut r = rng();
        let c = cfg();
        let mut owned = OwnedBucket::empty(&c, &mut r);
        let mut b = owned.view();
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
        let mut owned = OwnedBucket::with_blocks(&c, &[BlockId(1)], &mut r);
        let mut b = owned.view();
        // Ask for a block the bucket does not hold.
        let (_, kind, _) = b.serve_read(&c, Some(BlockId(99)), &mut r);
        assert_eq!(kind, FetchKind::Dummy);
        assert_eq!(b.peek().real_count(), 1, "stored block untouched");
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
    fn assert_same_state(cfg: &RingConfig, packed: BucketRef<'_>, model: &model::ModelBucket) {
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

    /// A tree of `cfg`'s buckets with levels enough for `rows` nodes, whose
    /// buckets `0..rows` are materialized in id order (so node `i` is
    /// bucket `i`), bucket `i` holding the one block `i`.
    fn slab_tree(cfg: &RingConfig, rows: usize) -> BucketTree {
        let levels = usize::BITS - rows.leading_zeros() + 1;
        let cfg = RingConfig {
            levels,
            ..cfg.clone()
        };
        let mut tree = BucketTree::new(&cfg);
        let mut r = rng();
        for id in 0..rows as u64 {
            let _ = tree.bucket_or_fill(BucketId(id), |b| {
                b.reload(&cfg, &mut vec![(BlockId(id), None)], &mut r);
            });
        }
        tree
    }

    #[test]
    fn packed_bucket_matches_the_three_field_model() {
        let hpca = RingConfig::hpca_default(); // Y = 8, 12 slots
        let wide = RingConfig::fig4_config(4); // 90 slots: more than one word of bits
        assert!(wide.bucket_slots() > 64);
        for (c, seed) in [(cfg(), 1), (cb_cfg(), 2), (hpca, 3), (wide, 4)] {
            // The bucket is the first row of the slab's second chunk.
            let mut tree = slab_tree(&c, CHUNK_ROWS);
            let row = BucketId(CHUNK_ROWS as u64);
            let mut ops = StdRng::seed_from_u64(seed);
            let (mut rng_p, mut rng_m) = (StdRng::seed_from_u64(99), StdRng::seed_from_u64(99));
            let _ = tree.bucket_or_fill(row, |b| b.reload(&c, &mut Vec::new(), &mut rng_p));
            let mut model = model::ModelBucket::default();
            model.reload(&c, &mut Vec::new(), &mut rng_m);
            let mut next_id = 0u64;
            let (mut out_p, mut out_m) = (Vec::new(), Vec::new());
            let mut seen = [0u32; 4]; // targets, greens, dummies, payloads
            for step in 0..4000 {
                let mut packed = tree.get_mut(row).unwrap();
                let present = packed.peek().real_blocks();
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
                        let slot = ops.gen_range(0..packed.peek().slot_count());
                        assert_eq!(packed.clear_slot(slot), model.clear_slot(slot));
                    }
                    _ => {
                        let absent = BlockId(next_id + 1);
                        assert_eq!(packed.peek().find(absent), model.find(absent));
                    }
                }
                assert_same_state(&c, packed.peek(), &model);
                assert_eq!(format!("{rng_p:?}"), format!("{rng_m:?}"), "step {step}");
            }
            // The stream reached every kind of touch the config allows.
            let [targets, greens, dummies, payloads] = seen;
            assert!(targets > 0 && dummies > 0 && payloads > 0 && !out_p.is_empty());
            assert_eq!(greens > 0, c.y > 0, "Y = {}", c.y);
        }
    }

    /// Row `i`'s words, node and lane, copied out.
    type RowState = (Vec<u64>, Node, Option<Vec<Option<BlockData>>>);

    fn row_state(tree: &BucketTree, i: usize) -> RowState {
        let node = *tree.nodes.at(i);
        let lane = node
            .lane
            .checked_sub(1)
            .map(|l| tree.lanes.row(l as usize).to_vec());
        (tree.words.row(i).to_vec(), node, lane)
    }

    #[test]
    fn rows_either_side_of_a_chunk_boundary_are_whole_and_stay_put() {
        let c = cb_cfg();
        let mut tree = BucketTree::new(&RingConfig {
            levels: 12,
            ..c.clone()
        });
        assert!(
            tree.words.chunks.is_empty() && tree.nodes.chunks.is_empty(),
            "nothing is allocated before the first materialization"
        );
        let _ = tree.bucket_or_fill(BucketId(0), |b| b.reload(&c, &mut Vec::new(), &mut rng()));
        let first_row = tree.words.row(0).as_ptr();
        let mut r = rng();
        for id in 1..=CHUNK_ROWS as u64 + 1 {
            let _ = tree.bucket_or_fill(BucketId(id), |b| {
                b.reload(&c, &mut vec![(BlockId(id), None)], &mut r);
            });
        }
        assert_eq!(
            tree.words.chunks.len(),
            2,
            "rows 0..={} in two chunks",
            CHUNK_ROWS + 1
        );
        assert_eq!(tree.words.row(0).as_ptr(), first_row, "growth moved no row");
        assert!(tree.lanes.chunks.is_empty(), "no payload, no lane");
        // The last row of the first chunk and the first of the second are
        // whole rows holding their own buckets.
        for id in [CHUNK_ROWS - 1, CHUNK_ROWS] {
            let bucket = tree.view_ref(id);
            assert_eq!(bucket.slot_count(), c.bucket_slots() as usize);
            assert_eq!(bucket.real_blocks(), [BlockId(id as u64)], "row {id}");
            assert_eq!(bucket.valid_dummies(), bucket.slot_count() - 1);
        }
        let lo = tree.words.row(CHUNK_ROWS - 1).as_ptr_range();
        let hi = tree.words.row(CHUNK_ROWS).as_ptr_range();
        assert!(lo.end <= hi.start || hi.end <= lo.start);
    }

    #[test]
    fn an_operation_on_one_row_leaves_every_other_row_untouched() {
        let c = RingConfig::hpca_default();
        let mut tree = slab_tree(&c, CHUNK_ROWS + 8);
        let rows = tree.nodes.len();
        // Some rows carry payload lanes, so lanes sit between rows too.
        let mut r = rng();
        for id in [3, CHUNK_ROWS - 1, CHUNK_ROWS + 2] {
            let mut b = tree.get_mut(BucketId(id as u64)).unwrap();
            let mut entries = Vec::new();
            b.take_real_blocks_into(&mut entries);
            entries[0].1 = Some(Box::from([id as u8; 4]));
            b.reload(&c, &mut entries, &mut r);
        }
        let mut ops = StdRng::seed_from_u64(0x5AB);
        for target in [0, 3, CHUNK_ROWS - 1, CHUNK_ROWS, rows - 1] {
            let before: Vec<RowState> = (0..rows).map(|i| row_state(&tree, i)).collect();
            let id = BucketId(target as u64);
            for step in 0..40u64 {
                let mut b = tree.get_mut(id).unwrap();
                match ops.gen_range(0..4u32) {
                    0 => {
                        let mut entries: Vec<BlockEntry> = (0..ops.gen_range(0..c.z + 1))
                            .map(|k| {
                                let data = ops.gen_bool(0.5).then(|| Box::from([k as u8; 4]));
                                (BlockId(10_000 + step * 16 + u64::from(k)), data)
                            })
                            .collect();
                        b.reload(&c, &mut entries, &mut r);
                    }
                    1 if !b.peek().needs_reshuffle(&c) => {
                        let _ = b.serve_read(&c, None, &mut r);
                    }
                    2 => b.take_real_blocks_into(&mut Vec::new()),
                    _ => {
                        let slot = ops.gen_range(0..b.peek().slot_count());
                        let _ = b.clear_slot(slot);
                    }
                }
                for (i, state) in before.iter().enumerate() {
                    if i != target {
                        assert_eq!(&row_state(&tree, i), state, "row {i} moved by row {target}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_cloned_tree_is_a_deep_copy() {
        let c = cb_cfg();
        let mut tree = slab_tree(&c, CHUNK_ROWS + 4);
        let mut r = rng();
        let id = BucketId(CHUNK_ROWS as u64 + 1);
        tree.get_mut(id).unwrap().reload(
            &c,
            &mut vec![(BlockId(77), Some(Box::from([7u8; 4])))],
            &mut r,
        );
        let snapshot: Vec<RowState> = (0..tree.nodes.len()).map(|i| row_state(&tree, i)).collect();
        let mut copy = tree.clone();
        // Change every row of the original, payload included.
        for i in 0..tree.nodes.len() as u64 {
            let mut b = tree.get_mut(BucketId(i)).unwrap();
            b.take_real_blocks_into(&mut Vec::new());
            let _ = b.serve_read(&c, None, &mut r);
        }
        for (i, state) in snapshot.iter().enumerate() {
            assert_eq!(&row_state(&copy, i), state, "row {i} of the copy");
        }
        // And the copy changes alone.
        let (_, kind, data) = copy
            .get_mut(id)
            .unwrap()
            .serve_read(&c, Some(BlockId(77)), &mut r);
        assert_eq!(kind, FetchKind::Target(BlockId(77)));
        assert_eq!(data.as_deref(), Some(&[7u8; 4][..]));
        assert_eq!(tree.view_ref(id.0 as usize).find(BlockId(77)), None);
        assert_eq!(copy.materialized(), tree.materialized());
    }

    #[test]
    fn ids_outside_the_slot_word_are_never_found() {
        let mut r = rng();
        let owned = OwnedBucket::with_blocks(&cfg(), &[BlockId(5)], &mut r);
        let b = owned.peek();
        // The dummy pattern and ids with the valid bit set alias no block.
        assert_eq!(b.find(BlockId(DUMMY)), None);
        assert_eq!(b.find(BlockId(VALID | 5)), None);
        assert_eq!(b.find(BlockId(5)).map(|s| b.slot_holds_real(s)), Some(true));
    }

    #[test]
    #[should_panic(expected = "does not fit a slot word")]
    fn oversized_block_id_rejected() {
        let _ = OwnedBucket::with_blocks(&cfg(), &[BlockId(DUMMY)], &mut rng());
    }

    #[test]
    fn payload_lane_appears_with_the_first_payload() {
        let mut r = rng();
        let c = cfg();
        let mut owned = OwnedBucket::with_blocks(&c, &[BlockId(1)], &mut r);
        assert!(
            owned.0.lanes.chunks.is_empty() && owned.0.nodes.at(0).lane == 0,
            "timing-only buckets carry no lane"
        );
        let mut b = owned.view();
        b.reload(
            &c,
            &mut vec![(BlockId(2), Some(Box::from([7u8; 4])))],
            &mut r,
        );
        let (_, kind, data) = b.serve_read(&c, Some(BlockId(2)), &mut r);
        assert_eq!(kind, FetchKind::Target(BlockId(2)));
        assert_eq!(data.as_deref(), Some(&[7u8; 4][..]));
        assert_eq!(owned.0.nodes.at(0).lane, 1, "the lane stays");
        assert_eq!(owned.0.lanes.row(0).len(), owned.peek().slot_count());
    }

    /// Fills a bucket with the single block `tag`, to tell tree nodes apart.
    fn tagged(tag: u64) -> impl FnOnce(&mut Bucket<'_>) {
        move |b| b.reload(&cfg(), &mut vec![(BlockId(tag), None)], &mut rng())
    }

    fn tags<'a>(buckets: impl Iterator<Item = BucketRef<'a>>) -> Vec<u64> {
        buckets.map(|b| b.real_blocks()[0].0).collect()
    }

    fn tree(levels: u32) -> BucketTree {
        BucketTree::new(&RingConfig { levels, ..cfg() })
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
        let mut tree = tree(6);
        for &(p, l) in &visits {
            let id = geometry.bucket_at(PathId(p), Level(l));
            let got = tree.bucket_or_fill(id, tagged(id.0));
            assert_eq!(
                got.peek().real_blocks(),
                [BlockId(id.0)],
                "{id} via ({p}, {l})"
            );
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
        let mut tree = tree(4);
        assert_eq!(tags(tree.on_path(PathId(5), 3)), [] as [u64; 0]);
        // Leaf 7 + 5 (path 5) first: its ancestors exist as bare nodes.
        let _ = tree.bucket_or_fill(BucketId(12), tagged(12));
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
        let _ = tree.bucket_or_fill(BucketId(8), tagged(8)); // path 1
        let _ = tree.bucket_or_fill(BucketId(5), tagged(5)); // path 5, level 2
        let _ = tree.bucket_or_fill(BucketId(0), tagged(0));
        assert_eq!(tree.materialized(), 4);
        assert_eq!(tags(tree.on_path(PathId(5), 3)), [0, 5, 12]);
        assert_eq!(tags(tree.on_path(PathId(1), 3)), [0, 8]);
        assert_eq!(tags(tree.on_path(PathId(7), 3)), [0]);
        // Filling is first-touch only.
        let again = tree.bucket_or_fill(BucketId(12), |_| unreachable!("already filled"));
        assert_eq!(again.peek().real_blocks(), [BlockId(12)]);
    }
}
