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
//! A bucket is what a hardware controller keeps per bucket: which block
//! each slot holds, whether it may still be read, and a few counters. The
//! crate's `BucketTree` keeps every bucket as one row of a chunked byte
//! slab: a 16-byte header (two child links, an id reference, four one-byte
//! counters) followed by its slots. A Ring row holds one code byte per
//! slot — invalid, valid dummy, or `k`: the bucket's `k`-th real block.
//! What `k` names follows the id reference. A fresh bucket is filled with
//! consecutive pre-loaded ids, so the reference is the first of them and
//! block `k` is that id plus `k`; a row of `Z` explicit ids is handed out
//! only when the bucket is first written back (an eviction or a
//! reshuffle), and the reference then names that row. A Path or Circuit
//! row holds a 4-byte slot word per slot instead (valid bit and id). At
//! the paper's geometry (`Z = 8`):
//!
//! | bucket | row | explicit ids | total |
//! |---|---|---|---|
//! | Ring+CB, fresh | 16 + 12 codes | — | 28 B |
//! | Ring+CB, written back | 16 + 12 codes | 8 × 4 | 60 B |
//! | baseline Ring, fresh | 16 + 20 codes | — | 36 B |
//! | Path, Circuit | 16 + 8 × 4 words | — | 48 B |
//!
//! Chunks of 1024 rows are allocated zeroed when their first node is
//! created and never move. Payload bytes live in a second slab of lanes,
//! one row per bucket that has received a payload, named by a per-node
//! column that appears with the first payload, so timing-only simulations
//! never allocate either. A [`Bucket`] is a borrowed view over a row and
//! the tree's tables; every rule below is implemented on it once. The tree
//! is walked root to leaf exactly as the protocol's read paths and
//! evictions walk it.

use oram_rng::Rng;

use crate::config::RingConfig;
use crate::position_map::{COLD_BASE, PROGRAM_ID_BOUND};
use crate::types::{BlockId, BucketId, FetchKind, PathId};

/// Owned payload of a real block (ciphertext when encryption is enabled).
pub(crate) type BlockData = Box<[u8]>;

/// A real block together with its (optional) payload, as moved between
/// buckets and the stash.
pub(crate) type BlockEntry = (BlockId, Option<BlockData>);

/// Slot-word bit 31 (Path and Circuit rows): the slot holds a block.
const VALID: u32 = 1 << 31;
/// Slot-word bit 30, the cold tag: the value is a pre-loaded block's index
/// `id - COLD_BASE`, not a program id (below [`PROGRAM_ID_BOUND`]).
const COLD: u32 = 1 << 30;
/// Slot-word low 30 bits: the value.
const VALUE: u32 = COLD - 1;

/// Pre-loaded blocks a word can name: every cold index but the all-ones
/// one. [`RingConfig::validate`] bounds a tree's real capacity by it, so
/// a fresh row's first id fits the 30 bits of its reference too.
pub(crate) const COLD_INDICES: u64 = VALUE as u64;

/// The 31 bits a slot word keeps of `block`, or `None` for an id no word
/// holds. With [`decode`], the one translation between ids and words.
fn encode(block: BlockId) -> Option<u32> {
    if block.0 < PROGRAM_ID_BOUND {
        return Some(block.0 as u32);
    }
    let index = block.0.checked_sub(COLD_BASE)?;
    (index < COLD_INDICES).then_some(COLD | index as u32)
}

/// The block a word that holds one names (the valid bit is ignored).
fn decode(word: u32) -> BlockId {
    BlockId(u64::from(word & VALUE) | (u64::from(word & COLD != 0) * COLD_BASE))
}

/// `block`'s value bits, for a block the caller is storing.
fn encode_stored(block: BlockId) -> u32 {
    encode(block).unwrap_or_else(|| panic!("block id {block} does not fit a slot word"))
}

/// Slot code: a valid dummy.
const DUMMY: u8 = 0xFE;
/// Slot code: a slot that may not be read before the next shuffle. It
/// holds no block: every touch that invalidates a slot also consumes its
/// block.
const INVALID: u8 = 0xFF;
/// Real blocks a Ring bucket's codes can name (`0..MAX_Z`, below the two
/// marks); [`BucketTree::ring`] bounds `Z` by it. Path and Circuit rows
/// keep slot words and are not bounded by it.
pub(crate) const MAX_Z: u32 = DUMMY as u32;

/// A row's header: what a node keeps besides its slots.
type Head = [u8; HEAD];
/// Header bytes.
const HEAD: usize = 16;
/// Header bytes 0..8: the two child nodes, a `u32` each (0 = not created
/// yet; the root, node 0, is nobody's child).
const CHILDREN: usize = 0;
/// Header bytes 8..12: the id reference ([`FILLED`], [`EXPLICIT`]).
const REFERENCE: usize = 8;
/// Header byte 12: touches since the last shuffle (the paper's per-bucket
/// counter).
const ACCESSES: usize = 12;
/// Header byte 13: green fetches since the last shuffle (the paper's green
/// counter, `log2(Y)` bits of metadata).
const GREENS: usize = 13;
/// Header byte 14: valid slots holding a real block (in the plain tree:
/// blocks held), so the per-touch rules are O(1) instead of re-scanning
/// the row.
const REALS: usize = 14;
/// Header byte 15: valid dummy slots.
const DUMMIES: usize = 15;

// A fresh Ring bucket's whole resident state is this header and its codes.
const _: () = assert!(std::mem::size_of::<Head>() == 16 && ACCESSES + 4 == HEAD);

/// Id-reference bit 31: the row has been filled.
const FILLED: u32 = 1 << 31;
/// Id-reference bit 30: the codes name the entries of an explicit-id row,
/// whose index is the low 30 bits. Without it, the low 30 bits are the
/// cold index of the bucket's block 0.
const EXPLICIT: u32 = 1 << 30;
/// Id-reference low 30 bits.
const INDEX: u32 = EXPLICIT - 1;

/// The header word at byte `at`.
fn word(head: &Head, at: usize) -> u32 {
    u32::from_le_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]])
}

fn set_word(head: &mut Head, at: usize, value: u32) {
    head[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

/// Rows per slab chunk. A chunk is allocated whole (zeroed) the first time
/// one of its rows is needed and never moves, so growing the tree copies
/// no row and never doubles what is resident.
pub const CHUNK_ROWS: usize = 1024;

/// `n` as a one-byte counter. Every count is at most the slots per bucket
/// or `S`, which the configuration [`BucketTree::ring`] validated bounds.
#[allow(clippy::expect_used)] // invariant, stated in the expect message
fn counter(n: usize) -> u8 {
    u8::try_from(n).expect("bucket counts fit the byte checked where the tree is built")
}

/// A growable table of fixed-stride rows of `T`, kept in chunks of
/// [`CHUNK_ROWS`] rows (the last chunk cut to the rows the table may ever
/// hold). A chunk is allocated with every element `T::default()` — zeroed
/// memory for the rows — when its first row is pushed, and never moves:
/// growth copies no row and never doubles what is resident.
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
/// handed out on a bucket's first payload and kept from then on, named by
/// a 1-based index (0 for none).
type Lanes = Slab<Option<BlockData>>;

impl Lanes {
    /// A fresh lane, as its 1-based index.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn assign(&mut self) -> u32 {
        let row = self.push_row() + 1;
        u32::try_from(row).expect("fewer than 2^32 lanes")
    }

    /// Lane `lane` (a 1-based index), or `None` for no lane.
    fn lane_mut(&mut self, lane: u32) -> Option<&mut [Option<BlockData>]> {
        let row = lane.checked_sub(1)?;
        Some(self.row_mut(row as usize))
    }
}

/// What a tree keeps of its buckets outside their rows.
#[derive(Debug, Clone)]
struct Tables {
    /// Whether rows hold slot codes (the Ring rules) or slot words (the
    /// Path and Circuit rules).
    coded: bool,
    /// Explicit ids: row `r` holds the value bits of the blocks a
    /// written-back Ring bucket's codes name, code `k` entry `k`. A bucket
    /// receives its row on its first write-back and keeps it.
    ids: Slab<u32>,
    /// Per node, its payload lane (0 for none). The column grows to a node
    /// when that node receives its first payload.
    lane_of: Slab<u32>,
    lanes: Lanes,
}

impl Tables {
    /// Node `node`'s payload lane.
    fn lane(&self, node: usize) -> u32 {
        if node < self.lane_of.len() {
            *self.lane_of.at(node)
        } else {
            0
        }
    }

    /// Hands node `node` a fresh lane and returns it.
    fn assign_lane(&mut self, node: usize) -> u32 {
        while self.lane_of.len() <= node {
            self.lane_of.push_row();
        }
        let lane = self.lanes.assign();
        *self.lane_of.at_mut(node) = lane;
        lane
    }
}

/// What a Ring row's codes name, read off its id reference.
#[derive(Debug, Clone, Copy)]
enum Names<'a> {
    /// A fresh row: code `k` is block `first + k`.
    Cold(u64),
    /// A written-back row: code `k` is the block entry `k` encodes.
    Explicit(&'a [u32]),
}

impl<'a> Names<'a> {
    /// The names of a Ring row whose id reference is `reference`.
    fn of(reference: u32, ids: &'a Slab<u32>) -> Self {
        let index = reference & INDEX;
        if reference & EXPLICIT != 0 {
            Names::Explicit(ids.row(index as usize))
        } else {
            Names::Cold(COLD_BASE + u64::from(index))
        }
    }

    /// The block a real block's code names.
    fn block(self, code: u8) -> BlockId {
        match self {
            Names::Cold(first) => BlockId(first + u64::from(code)),
            Names::Explicit(ids) => decode(ids[usize::from(code)]),
        }
    }

    /// The code that names `block`, if the row could hold it. An explicit
    /// row's entries past its last fill are stale; the first match is the
    /// live one when there is one, and a stale one names a code no slot
    /// holds.
    fn code_of(self, block: BlockId) -> Option<u8> {
        let k = match self {
            Names::Cold(first) => block.0.checked_sub(first)?,
            Names::Explicit(ids) => {
                let value = encode(block)?;
                ids.iter().position(|&id| id == value)? as u64
            }
        };
        u8::try_from(k).ok().filter(|&k| k < DUMMY)
    }
}

/// A read-only look at one bucket: its slots and counters. The reading
/// rules (lookup, counts, the reshuffle condition, slot choice) live here;
/// [`Bucket::peek`] gives one for a mutable view.
#[derive(Clone, Copy)]
pub struct BucketRef<'a> {
    head: &'a Head,
    /// One code per slot (Ring), or one 4-byte slot word per slot (Path
    /// and Circuit).
    body: &'a [u8],
    tables: &'a Tables,
}

impl std::fmt::Debug for BucketRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slots: Vec<_> = (0..self.slot_count()).map(|s| self.block_at(s)).collect();
        f.debug_struct("BucketRef")
            .field("accesses", &self.head[ACCESSES])
            .field("greens", &self.head[GREENS])
            .field("reals", &self.head[REALS])
            .field("dummies", &self.head[DUMMIES])
            .field("slots", &slots)
            .finish()
    }
}

impl<'a> BucketRef<'a> {
    /// Touches since the last shuffle.
    #[must_use]
    pub fn accesses(&self) -> u32 {
        u32::from(self.head[ACCESSES])
    }

    /// Green fetches since the last shuffle.
    #[must_use]
    pub(crate) fn greens_used(&self) -> u32 {
        u32::from(self.head[GREENS])
    }

    /// Number of valid real blocks currently stored.
    #[must_use]
    pub(crate) fn real_count(&self) -> usize {
        debug_assert_eq!(
            usize::from(self.head[REALS]),
            (0..self.slot_count())
                .filter(|&s| self.block_at(s).is_some())
                .count()
        );
        usize::from(self.head[REALS])
    }

    /// Number of valid dummy slots remaining.
    #[must_use]
    pub(crate) fn valid_dummies(&self) -> usize {
        debug_assert_eq!(
            usize::from(self.head[DUMMIES]),
            if self.tables.coded {
                self.body.iter().filter(|&&c| c == DUMMY).count()
            } else {
                0
            }
        );
        usize::from(self.head[DUMMIES])
    }

    /// Physical slots.
    pub(crate) fn slot_count(&self) -> usize {
        if self.tables.coded {
            self.body.len()
        } else {
            self.words().len()
        }
    }

    /// A Path or Circuit row's slot words.
    fn words(&self) -> &'a [[u8; 4]] {
        self.body.as_chunks().0
    }

    /// What a Ring row's codes name.
    fn names(&self) -> Names<'a> {
        Names::of(word(self.head, REFERENCE), &self.tables.ids)
    }

    /// The block `slot` holds, if it holds one and may be read.
    fn block_at(&self, slot: usize) -> Option<BlockId> {
        if self.tables.coded {
            let code = self.body[slot];
            (code < DUMMY).then(|| self.names().block(code))
        } else {
            let word = u32::from_le_bytes(self.words()[slot]);
            (word & VALID != 0).then(|| decode(word))
        }
    }

    /// Slot index of `block` if it is present and still valid.
    #[must_use]
    pub fn find(&self, block: BlockId) -> Option<usize> {
        if self.tables.coded {
            let code = self.names().code_of(block)?;
            self.body.iter().position(|&c| c == code)
        } else {
            let word = (VALID | encode(block)?).to_le_bytes();
            self.words().iter().position(|&w| w == word)
        }
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
    pub(crate) fn needs_reshuffle_gated(&self, cfg: &RingConfig, allow_green: bool) -> bool {
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
        debug_assert!(self.tables.coded, "a Ring rule on a row of slot words");
        let n = usize::from(if real {
            self.head[REALS]
        } else {
            self.head[DUMMIES]
        });
        if n == 0 {
            return None;
        }
        let mut k = rng.gen_range(0..n);
        for (c, codes) in self.body.chunks(64).enumerate() {
            let mut mask = 0u64;
            for (i, &code) in codes.iter().enumerate() {
                // Valid, and a dummy exactly when a dummy is wanted.
                let hit = ((code < DUMMY) == real) & (code != INVALID);
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
        unreachable!("cached slot counts out of sync with the slot codes")
    }

    /// Whether `slot` currently holds a valid real block.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn slot_holds_real(&self, slot: usize) -> bool {
        self.block_at(slot).is_some()
    }
}

/// A bucket: `Z + S - Y` permuted slots plus the metadata the paper's Fig. 2
/// and Fig. 7 describe (valid/real bits, access counter, green counter) — a
/// mutable view over one slab row and the tree's tables.
pub struct Bucket<'a> {
    head: &'a mut Head,
    /// One code per slot (Ring), or one 4-byte slot word per slot (Path
    /// and Circuit).
    body: &'a mut [u8],
    /// The node, which names the bucket's payload lane.
    node: usize,
    tables: &'a mut Tables,
}

impl std::fmt::Debug for Bucket<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.peek().fmt(f)
    }
}

impl Bucket<'_> {
    /// The reading rules, over this bucket.
    #[must_use]
    pub fn peek(&self) -> BucketRef<'_> {
        BucketRef {
            head: self.head,
            body: self.body,
            tables: self.tables,
        }
    }

    /// Sets slot `idx` to `code` (it no longer holds its block) and returns
    /// the payload it carried, if any.
    fn vacate(&mut self, idx: usize, code: u8) -> Option<BlockData> {
        self.body[idx] = code;
        let lane = self.tables.lane(self.node);
        self.tables.lanes.lane_mut(lane)?[idx].take()
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
    pub(crate) fn serve_read_gated<R: Rng + ?Sized>(
        &mut self,
        cfg: &RingConfig,
        target: Option<BlockId>,
        allow_green: bool,
        rng: &mut R,
    ) -> (usize, FetchKind, Option<BlockData>) {
        debug_assert!(self.tables.coded, "a Ring rule on a row of slot words");
        // A bucket holding the wanted target can always serve it (the
        // target read needs no dummy/green); otherwise the caller must have
        // reshuffled first.
        debug_assert!(
            target.is_some_and(|t| self.peek().find(t).is_some())
                || !self.peek().needs_reshuffle_gated(cfg, allow_green),
            "bucket exhausted"
        );
        self.head[ACCESSES] += 1;
        if let Some(t) = target {
            if let Some(idx) = self.peek().find(t) {
                self.head[REALS] -= 1;
                return (idx, FetchKind::Target(t), self.vacate(idx, INVALID));
            }
        }
        // Dummy-first policy.
        if let Some(idx) = self.peek().choose_slot(false, rng) {
            self.body[idx] = INVALID;
            self.head[DUMMIES] -= 1;
            return (idx, FetchKind::Dummy, None);
        }
        // Fall back to a green block. Under the degraded-mode gate this is
        // legal only for a completely full bucket, where no reshuffle can
        // mint a dummy (Y == S configurations).
        assert!(
            allow_green || u32::from(self.head[REALS]) == cfg.bucket_slots(),
            "green substitution disabled; needs_reshuffle_gated() should have fired"
        );
        let idx = self
            .peek()
            .choose_slot(true, rng)
            .expect("needs_reshuffle() guaranteed a candidate");
        assert!(
            u32::from(self.head[GREENS]) < cfg.y,
            "green budget exceeded; needs_reshuffle() should have fired"
        );
        let block = self.peek().names().block(self.body[idx]);
        self.head[REALS] -= 1;
        self.head[GREENS] += 1;
        (idx, FetchKind::Green(block), self.vacate(idx, INVALID))
    }

    /// Removes every valid real block with its payload and appends them, in
    /// slot order, to a caller-provided (reusable) buffer, and the slots
    /// they held to `slots` (the eviction/reshuffle read phase: the
    /// controller reads the `Z` real slots of the bucket), in one scan.
    pub(crate) fn take_real_blocks_into(
        &mut self,
        out: &mut Vec<BlockEntry>,
        slots: &mut Vec<u32>,
    ) {
        debug_assert!(self.tables.coded, "a Ring rule on a row of slot words");
        let lane = self.tables.lane(self.node);
        let names = Names::of(word(self.head, REFERENCE), &self.tables.ids);
        let mut lane = self.tables.lanes.lane_mut(lane);
        for (idx, code) in self.body.iter_mut().enumerate() {
            if *code < DUMMY {
                let data = lane.as_deref_mut().and_then(|lane| lane[idx].take());
                out.push((names.block(*code), data));
                slots.push(idx as u32);
                // The emptied slot stays valid, so it now counts as a dummy.
                *code = DUMMY;
            }
        }
        self.head[DUMMIES] += self.head[REALS];
        self.head[REALS] = 0;
    }

    /// Reshuffles the bucket: installs `entries` (at most `Z`, drained from
    /// the caller's reusable buffer), resets all metadata and re-permutes
    /// the slots (the eviction/reshuffle write phase: `Z + S - Y` encrypted
    /// blocks are written back). Entry `k` becomes code `k`, its id entry
    /// `k` of the bucket's explicit-id row, which the bucket receives on
    /// its first write-back; its payload lane it receives with its first
    /// payload. It keeps both.
    ///
    /// # Panics
    ///
    /// Panics if more than `cfg.z` entries are supplied, or if a block id
    /// does not fit a slot word.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    pub(crate) fn reload<R: Rng + ?Sized>(
        &mut self,
        cfg: &RingConfig,
        entries: &mut Vec<BlockEntry>,
        rng: &mut R,
    ) {
        debug_assert!(self.tables.coded, "a Ring rule on a row of slot words");
        assert!(
            entries.len() <= cfg.z as usize,
            "bucket can hold at most Z = {} real blocks, got {}",
            cfg.z,
            entries.len()
        );
        debug_assert_eq!(self.body.len(), cfg.bucket_slots() as usize);
        let mut reference = word(self.head, REFERENCE);
        if reference & EXPLICIT == 0 {
            let row = u32::try_from(self.tables.ids.push_row())
                .expect("fewer explicit-id rows than buckets, below 2^30");
            reference = FILLED | EXPLICIT | row;
            set_word(self.head, REFERENCE, reference);
        }
        let mut lane = self.tables.lane(self.node);
        if lane == 0 && entries.iter().any(|(_, d)| d.is_some()) {
            lane = self.tables.assign_lane(self.node);
        }
        let ids = self.tables.ids.row_mut((reference & INDEX) as usize);
        let mut lane = self.tables.lanes.lane_mut(lane);
        let reals = entries.len();
        for (k, (block, data)) in entries.drain(..).enumerate() {
            ids[k] = encode_stored(block);
            self.body[k] = k as u8; // k < Z <= MAX_Z
            if let Some(lane) = lane.as_deref_mut() {
                lane[k] = data;
            }
        }
        self.settle(reals, rng);
    }

    /// Fills a fresh row with pre-loaded blocks: `draw` is asked `z` times
    /// whether the next slot takes one, and the `k`-th that does holds
    /// block `first + k`. The row keeps only `first`'s cold index.
    ///
    /// # Panics
    ///
    /// Panics if `first` is not a pre-loaded id, or if the last block
    /// placed does not fit a slot word.
    pub(crate) fn fill_cold<R: Rng + ?Sized>(
        &mut self,
        z: u32,
        first: BlockId,
        rng: &mut R,
        mut draw: impl FnMut(&mut R) -> bool,
    ) {
        debug_assert!(self.tables.coded, "a Ring rule on a row of slot words");
        let mut reals = 0;
        for _ in 0..z {
            if draw(rng) {
                self.body[reals] = reals as u8; // reals < Z <= MAX_Z
                reals += 1;
            }
        }
        let index = first.0.checked_sub(COLD_BASE);
        assert!(
            index.is_some_and(|i| i + reals as u64 <= COLD_INDICES),
            "block id {first} and the {reals} after it do not fit a slot word"
        );
        set_word(self.head, REFERENCE, FILLED | index.unwrap_or(0) as u32);
        self.settle(reals, rng);
    }

    /// The end of every write of a whole row, a fresh one's included: the
    /// slots from `reals` on (the first `reals` hold codes `0..reals`)
    /// become valid dummies, the row is permuted and the counters reset.
    fn settle<R: Rng + ?Sized>(&mut self, reals: usize, rng: &mut R) {
        let slot_count = self.body.len();
        let lane = self.tables.lane(self.node);
        let mut lane = self.tables.lanes.lane_mut(lane);
        self.body[reals..].fill(DUMMY);
        if let Some(lane) = lane.as_deref_mut() {
            lane[reals..].fill(None);
        }
        // Fisher–Yates, drawing exactly as `SliceRandom::shuffle` does, with
        // every swap applied to the codes and (when present) the lane.
        for i in (1..slot_count).rev() {
            let j = rng.gen_range(0..i + 1);
            self.body.swap(i, j);
            if let Some(lane) = lane.as_deref_mut() {
                lane.swap(i, j);
            }
        }
        self.head[ACCESSES] = 0;
        self.head[GREENS] = 0;
        self.head[REALS] = counter(reals);
        self.head[DUMMIES] = counter(slot_count - reals);
    }

    /// Removes the block stored in `slot`, if any, returning its payload
    /// (used when the tree-top cache serves a target directly: an on-chip
    /// read with no protocol side effects).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub(crate) fn clear_slot(&mut self, slot: usize) -> Option<BlockData> {
        debug_assert!(self.tables.coded, "a Ring rule on a row of slot words");
        if self.body[slot] >= DUMMY {
            return None;
        }
        self.head[REALS] -= 1;
        self.head[DUMMIES] += 1;
        self.vacate(slot, DUMMY)
    }
}

/// The Path and Circuit rules: a bucket holds its blocks as valid slot
/// words packed at the front of its row, in arrival order, and the rest of
/// the row is zero; a block's payload sits at the same index of the lane.
/// [`BucketRef`]'s reading rules apply unchanged (`find` is then the
/// position in arrival order).
impl Bucket<'_> {
    /// Appends `block` and its payload after the blocks held.
    ///
    /// # Panics
    ///
    /// Panics if the bucket already holds `Z` blocks.
    pub(crate) fn append(&mut self, block: BlockId, data: Option<BlockData>) {
        debug_assert!(!self.tables.coded, "a Path/Circuit rule on a row of codes");
        let held = usize::from(self.head[REALS]);
        let words = self.body.as_chunks_mut::<4>().0;
        assert!(
            held < words.len(),
            "a bucket is over capacity (Z = {})",
            words.len()
        );
        words[held] = (VALID | encode_stored(block)).to_le_bytes();
        self.head[REALS] += 1;
        let mut lane = self.tables.lane(self.node);
        if lane == 0 && data.is_some() {
            lane = self.tables.assign_lane(self.node);
        }
        if let Some(lane) = self.tables.lanes.lane_mut(lane) {
            lane[held] = data;
        }
    }

    /// Removes the block in `slot` with its payload, moving the last block
    /// held into the slot.
    pub(crate) fn swap_remove(&mut self, slot: usize) -> (BlockId, Option<BlockData>) {
        debug_assert!(!self.tables.coded, "a Path/Circuit rule on a row of codes");
        let last = usize::from(self.head[REALS]) - 1;
        let words = self.body.as_chunks_mut::<4>().0;
        let block = decode(u32::from_le_bytes(words[slot]));
        words[slot] = words[last];
        words[last] = [0; 4];
        self.head[REALS] -= 1;
        let lane = self.tables.lane(self.node);
        let data = self.tables.lanes.lane_mut(lane).and_then(|lane| {
            let data = lane[slot].take();
            lane[slot] = lane[last].take();
            data
        });
        (block, data)
    }

    /// Removes every block held, handing each to `f` with its slot and
    /// payload, in arrival order.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(usize, BlockId, Option<BlockData>)) {
        debug_assert!(!self.tables.coded, "a Path/Circuit rule on a row of codes");
        let held = usize::from(self.head[REALS]);
        let lane = self.tables.lane(self.node);
        let mut lane = self.tables.lanes.lane_mut(lane);
        let words = self.body.as_chunks_mut::<4>().0;
        for (slot, word) in words[..held].iter_mut().enumerate() {
            let data = lane.as_deref_mut().and_then(|lane| lane[slot].take());
            f(slot, decode(u32::from_le_bytes(*word)), data);
            *word = [0; 4];
        }
        self.head[REALS] = 0;
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
    /// Panics if more than `cfg.z` blocks are supplied, or if `cfg` fails
    /// [`RingConfig::validate`].
    #[must_use]
    pub fn with_blocks<R: Rng + ?Sized>(cfg: &RingConfig, blocks: &[BlockId], rng: &mut R) -> Self {
        let mut tree = BucketTree::ring(&RingConfig {
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
/// Ring engine ([`Bucket`]'s rules over coded rows) and the plain-tree
/// frame (rows of `Z` slot words). Nodes are created from the root down
/// along the paths the protocol walks, so reaching a bucket costs one
/// dependent load per level from the nearest ancestor the previous walk
/// visited.
///
/// Node `i` owns row `i` of the slab — its header, then its slots — in
/// chunks of [`CHUNK_ROWS`], so a materialized bucket has no heap object
/// of its own. A node may exist before its bucket has content: a read path
/// that is not searching for a target passes through the on-chip tree-top
/// levels without materializing them. `Clone` is a deep copy.
#[derive(Debug, Clone)]
pub(crate) struct BucketTree {
    /// One row per node: the header, then one code (Ring) or one 4-byte
    /// slot word (Path and Circuit) per slot.
    rows: Slab<u8>,
    tables: Tables,
    /// Per level, the bucket the last lookup passed through — as a 1-based
    /// heap index (`BucketId + 1`; 0 matches nothing) — and its node. Level
    /// 0 is always the root.
    cursor: Vec<(u64, u32)>,
    /// Nodes whose row has been filled.
    materialized: usize,
}

impl BucketTree {
    /// An empty tree of `cfg.levels` levels with Ring rows: a code per
    /// slot, `cfg.bucket_slots()` of them. Allocates no slab chunk.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RingConfig::validate`], which bounds the
    /// one-byte node counters and the ids a slot word holds, or if `Z`
    /// exceeds [`MAX_Z`], the real blocks a code can name.
    pub(crate) fn ring(cfg: &RingConfig) -> Self {
        assert!(
            cfg.z <= MAX_Z,
            "invalid RingConfig: Z ({}) above {MAX_Z}, the real blocks a slot code names",
            cfg.z
        );
        Self::new(cfg, true)
    }

    /// An empty tree of `cfg.levels` levels with Path and Circuit rows: a
    /// slot word per slot. Allocates no slab chunk.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RingConfig::validate`].
    pub(crate) fn plain(cfg: &RingConfig) -> Self {
        Self::new(cfg, false)
    }

    fn new(cfg: &RingConfig, coded: bool) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid RingConfig: {e}");
        }
        let (slots, capacity) = (cfg.bucket_slots() as usize, cfg.bucket_count() as usize);
        let slot_bytes = if coded { 1 } else { 4 };
        let mut cursor = vec![(0, 0); cfg.levels as usize];
        cursor[0] = (1, 0);
        Self {
            rows: Slab::new(HEAD + slots * slot_bytes, capacity),
            tables: Tables {
                coded,
                ids: Slab::new(if coded { cfg.z as usize } else { 0 }, capacity),
                lane_of: Slab::new(1, capacity),
                lanes: Slab::new(slots, capacity),
            },
            cursor,
            materialized: 0,
        }
    }

    /// Number of buckets with content.
    pub(crate) fn materialized(&self) -> usize {
        self.materialized
    }

    /// Number of Ring buckets written back at least once, which hold an
    /// explicit-id row; the others name pre-loaded blocks by one id.
    pub(crate) fn written_back(&self) -> usize {
        self.tables.ids.len()
    }

    /// Node `i`'s header.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn head(&self, i: usize) -> &Head {
        let row = self.rows.row(i);
        row.first_chunk().expect("a row starts with its header")
    }

    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn head_mut(&mut self, i: usize) -> &mut Head {
        let row = self.rows.row_mut(i);
        row.first_chunk_mut().expect("a row starts with its header")
    }

    /// Node `i`'s child on `side` (0 = none).
    fn child(&self, i: usize, side: usize) -> usize {
        word(self.head(i), CHILDREN + 4 * side) as usize
    }

    fn is_filled(&self, i: usize) -> bool {
        word(self.head(i), REFERENCE) & FILLED != 0
    }

    /// The node of bucket `id`, created (with any missing ancestors) on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if `id` lies below the tree's last level.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn node(&mut self, id: BucketId) -> usize {
        if self.rows.len() == 0 {
            self.rows.push_row(); // the root
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
            let mut child = self.child(node, side);
            if child == 0 {
                child = self.rows.push_row();
                let link = u32::try_from(child).expect("fewer than 2^32 tree nodes");
                set_word(self.head_mut(node), CHILDREN + 4 * side, link);
            }
            node = child;
            self.cursor[l] = (ancestor, child as u32);
        }
        node
    }

    /// The mutable view of node `i`'s bucket.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn view(&mut self, i: usize) -> Bucket<'_> {
        let (head, body) = self
            .rows
            .row_mut(i)
            .split_first_chunk_mut()
            .expect("a row starts with its header");
        Bucket {
            head,
            body,
            node: i,
            tables: &mut self.tables,
        }
    }

    /// The read-only view of node `i`'s bucket.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn view_ref(&self, i: usize) -> BucketRef<'_> {
        let (head, body) = self
            .rows
            .row(i)
            .split_first_chunk()
            .expect("a row starts with its header");
        BucketRef {
            head,
            body,
            tables: &self.tables,
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
        let fresh = !self.is_filled(i);
        self.materialized += usize::from(fresh);
        let mut bucket = self.view(i);
        if fresh {
            set_word(bucket.head, REFERENCE, FILLED);
            fill(&mut bucket);
        }
        bucket
    }

    /// The bucket `id`, if it has content.
    pub(crate) fn get_mut(&mut self, id: BucketId) -> Option<Bucket<'_>> {
        let i = self.node(id);
        if self.is_filled(i) {
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
        let mut next = (self.rows.len() > 0).then_some(0usize);
        let mut level = 0;
        std::iter::from_fn(move || {
            let i = next?;
            next = (level < max_level)
                .then(|| self.child(i, ((path.0 >> (max_level - level - 1)) & 1) as usize))
                .filter(|&child| child != 0);
            level += 1;
            Some(self.is_filled(i).then(|| self.view_ref(i)))
        })
        .flatten()
    }

    /// Every materialized bucket, in creation order of its node.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = BucketRef<'_>> {
        (0..self.rows.len())
            .filter(|&i| self.is_filled(i))
            .map(|i| self.view_ref(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_rng::{SliceRandom, StdRng};

    /// What the tests read of a bucket beyond its rules.
    impl BucketRef<'_> {
        /// The valid real blocks currently stored, in slot order.
        pub(crate) fn real_blocks(&self) -> Vec<BlockId> {
            (0..self.slot_count())
                .filter_map(|s| self.block_at(s))
                .collect()
        }

        /// Whether the codes name explicit ids (the bucket was written
        /// back) rather than consecutive pre-loaded blocks.
        fn is_explicit(&self) -> bool {
            word(self.head, REFERENCE) & EXPLICIT != 0
        }
    }

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
        let (mut out, mut slots) = (Vec::new(), Vec::new());
        owned.view().take_real_blocks_into(&mut out, &mut slots);
        assert_eq!(slots.len(), blocks.len());
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

            pub(super) fn take_real_blocks_into(
                &mut self,
                out: &mut Vec<BlockEntry>,
                slots: &mut Vec<u32>,
            ) {
                for (idx, s) in self.slots.iter_mut().enumerate().filter(|(_, s)| s.valid) {
                    if let Some(b) = s.block.take() {
                        out.push((b, s.data.take()));
                        slots.push(idx as u32);
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
        let mut tree = BucketTree::ring(&cfg);
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
                        let (mut slots_p, mut slots_m) = (Vec::new(), Vec::new());
                        packed.take_real_blocks_into(&mut out_p, &mut slots_p);
                        model.take_real_blocks_into(&mut out_m, &mut slots_m);
                        assert_eq!(out_p, out_m);
                        assert_eq!(slots_p, slots_m);
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

    /// Row `i` (header and slots), its explicit ids and its lane, copied
    /// out.
    type RowState = (Vec<u8>, Option<Vec<u32>>, Option<Vec<Option<BlockData>>>);

    fn row_state(tree: &BucketTree, i: usize) -> RowState {
        let bucket = tree.view_ref(i);
        let ids = match bucket.is_explicit().then(|| bucket.names()) {
            Some(Names::Explicit(ids)) => Some(ids.to_vec()),
            _ => None,
        };
        let lane = tree
            .tables
            .lane(i)
            .checked_sub(1)
            .map(|l| tree.tables.lanes.row(l as usize).to_vec());
        (tree.rows.row(i).to_vec(), ids, lane)
    }

    #[test]
    fn rows_either_side_of_a_chunk_boundary_are_whole_and_stay_put() {
        let c = cb_cfg();
        let mut tree = BucketTree::ring(&RingConfig {
            levels: 12,
            ..c.clone()
        });
        assert!(
            tree.rows.chunks.is_empty(),
            "nothing is allocated before the first materialization"
        );
        let _ = tree.bucket_or_fill(BucketId(0), |b| b.reload(&c, &mut Vec::new(), &mut rng()));
        let first_row = tree.rows.row(0).as_ptr();
        let mut r = rng();
        for id in 1..=CHUNK_ROWS as u64 + 1 {
            let _ = tree.bucket_or_fill(BucketId(id), |b| {
                b.reload(&c, &mut vec![(BlockId(id), None)], &mut r);
            });
        }
        assert_eq!(
            tree.rows.chunks.len(),
            2,
            "rows 0..={} in two chunks",
            CHUNK_ROWS + 1
        );
        assert_eq!(tree.rows.row(0).as_ptr(), first_row, "growth moved no row");
        assert!(
            tree.tables.lanes.chunks.is_empty() && tree.tables.lane_of.chunks.is_empty(),
            "no payload, no lane"
        );
        // The last row of the first chunk and the first of the second are
        // whole rows holding their own buckets.
        for id in [CHUNK_ROWS - 1, CHUNK_ROWS] {
            let bucket = tree.view_ref(id);
            assert_eq!(bucket.slot_count(), c.bucket_slots() as usize);
            assert_eq!(bucket.real_blocks(), [BlockId(id as u64)], "row {id}");
            assert_eq!(bucket.valid_dummies(), bucket.slot_count() - 1);
        }
        let lo = tree.rows.row(CHUNK_ROWS - 1).as_ptr_range();
        let hi = tree.rows.row(CHUNK_ROWS).as_ptr_range();
        assert!(lo.end <= hi.start || hi.end <= lo.start);
    }

    #[test]
    fn an_operation_on_one_row_leaves_every_other_row_untouched() {
        let c = RingConfig::hpca_default();
        let mut tree = slab_tree(&c, CHUNK_ROWS + 8);
        let rows = tree.rows.len();
        // Some rows carry payload lanes, so lanes sit between rows too.
        let mut r = rng();
        for id in [3, CHUNK_ROWS - 1, CHUNK_ROWS + 2] {
            let mut b = tree.get_mut(BucketId(id as u64)).unwrap();
            let mut entries = Vec::new();
            b.take_real_blocks_into(&mut entries, &mut Vec::new());
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
                    2 => b.take_real_blocks_into(&mut Vec::new(), &mut Vec::new()),
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
        let snapshot: Vec<RowState> = (0..tree.rows.len()).map(|i| row_state(&tree, i)).collect();
        let mut copy = tree.clone();
        // Change every row of the original, payload included.
        for i in 0..tree.rows.len() as u64 {
            let mut b = tree.get_mut(BucketId(i)).unwrap();
            b.take_real_blocks_into(&mut Vec::new(), &mut Vec::new());
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
        // The all-ones cold index, the ids between the program bound and
        // the cold range, and ids with a word's tag or valid bit set alias
        // no block.
        for id in [
            COLD_BASE + COLD_INDICES,
            PROGRAM_ID_BOUND,
            u64::from(VALID | 5),
            u64::from(COLD | 5),
            COLD_BASE + (1 << 32) + 5,
        ] {
            assert_eq!(b.find(BlockId(id)), None, "{id:#x}");
        }
        assert_eq!(b.find(BlockId(5)).map(|s| b.slot_holds_real(s)), Some(true));
    }

    #[test]
    #[should_panic(expected = "does not fit a slot word")]
    fn oversized_block_id_rejected() {
        let _ = OwnedBucket::with_blocks(&cfg(), &[BlockId(PROGRAM_ID_BOUND)], &mut rng());
    }

    /// The extreme ids round-trip through every operation that writes or
    /// reads one, as explicit ids of a Ring row and as slot words of a
    /// plain-tree row: the last program id and the last cold index; the
    /// dummies stay dummies.
    #[test]
    fn extreme_slot_words_round_trip() {
        let program = BlockId(PROGRAM_ID_BOUND - 1);
        let cold = BlockId(COLD_BASE + COLD_INDICES - 1);
        assert_eq!(
            (encode(program), encode(cold)),
            (Some(VALUE), Some(COLD | (VALUE - 1)))
        );

        // Ring rules on a 12-slot row.
        let c = RingConfig::hpca_default();
        let mut r = rng();
        let mut owned = OwnedBucket::with_blocks(&c, &[program, cold], &mut r);
        assert_eq!(owned.peek().slot_count(), 12);
        let mut b = owned.view();
        let (dummies, mut both) = (b.peek().valid_dummies(), b.peek().real_blocks());
        both.sort_unstable();
        assert_eq!((dummies, both), (10, vec![program, cold]));
        for id in [program, cold] {
            assert!(b
                .peek()
                .find(id)
                .is_some_and(|s| b.peek().slot_holds_real(s)));
        }
        let (_, kind, _) = b.serve_read_gated(&c, Some(program), true, &mut r);
        assert_eq!(kind, FetchKind::Target(program));
        let (slot, kind, _) = b.serve_read_gated(&c, None, true, &mut r);
        assert_eq!(kind, FetchKind::Dummy);
        assert!(!b.peek().slot_holds_real(slot));
        assert_eq!(b.peek().valid_dummies(), 9);
        let (mut out, mut slots) = (Vec::new(), Vec::new());
        b.take_real_blocks_into(&mut out, &mut slots);
        assert_eq!(out, [(cold, None)]);
        assert_eq!(slots.len(), 1);

        // Plain-tree rules on a `Z` row.
        let mut tree = BucketTree::plain(&RingConfig {
            levels: 1,
            tree_top_cached_levels: 0,
            ..c.z_slot()
        });
        let mut b = tree.bucket_or_fill(BucketId(0), |_| {});
        b.append(program, None);
        b.append(cold, Some(Box::from([9u8; 4])));
        assert_eq!(b.peek().find(cold), Some(1));
        let slot = b.peek().find(program).unwrap();
        assert_eq!(b.swap_remove(slot), (program, None));
        let mut drained = Vec::new();
        b.drain(|slot, id, data| drained.push((slot, id, data)));
        assert_eq!(drained, [(0, cold, Some(Box::from([9u8; 4])))]);
        assert!(b.body.iter().all(|&byte| byte == 0));
    }

    #[test]
    fn payload_lane_appears_with_the_first_payload() {
        let mut r = rng();
        let c = cfg();
        let mut owned = OwnedBucket::with_blocks(&c, &[BlockId(1)], &mut r);
        assert!(
            owned.0.tables.lanes.chunks.is_empty() && owned.0.tables.lane(0) == 0,
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
        assert_eq!(owned.0.tables.lane(0), 1, "the lane stays");
        assert_eq!(owned.0.tables.lanes.row(0).len(), owned.peek().slot_count());
    }

    /// Fills a bucket with the single block `tag`, to tell tree nodes apart.
    fn tagged(tag: u64) -> impl FnOnce(&mut Bucket<'_>) {
        move |b| b.reload(&cfg(), &mut vec![(BlockId(tag), None)], &mut rng())
    }

    fn tags<'a>(buckets: impl Iterator<Item = BucketRef<'a>>) -> Vec<u64> {
        buckets.map(|b| b.real_blocks()[0].0).collect()
    }

    fn tree(levels: u32) -> BucketTree {
        BucketTree::ring(&RingConfig { levels, ..cfg() })
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

    /// The row a bucket keeps: its 16-byte header, then a code per slot
    /// (Ring) or a slot word per slot (Path and Circuit); a written-back
    /// Ring bucket adds `Z` ids.
    #[test]
    fn a_row_is_a_header_and_its_slots() {
        let hpca = RingConfig::hpca_default();
        let baseline = RingConfig::hpca_baseline();
        assert_eq!((hpca.bucket_slots(), baseline.bucket_slots()), (12, 20));
        for (tree, row, ids) in [
            (BucketTree::ring(&hpca), 28, 8),
            (BucketTree::ring(&baseline), 36, 8),
            (BucketTree::plain(&hpca.z_slot()), 48, 0),
        ] {
            assert_eq!((tree.rows.stride, tree.tables.ids.stride), (row, ids));
        }
    }

    /// `Z` is bounded by what a code names on Ring rows only: a Path or
    /// Circuit row of 255 slot words holds 255 blocks.
    #[test]
    fn only_ring_rows_bound_z_by_the_codes() {
        let at = |z| RingConfig {
            z,
            s: 1,
            y: 1,
            levels: 4,
            ..RingConfig::test_small()
        };
        BucketTree::ring(&at(MAX_Z));
        let mut plain = BucketTree::plain(&at(MAX_Z + 1).z_slot());
        let mut b = plain.bucket_or_fill(BucketId(0), |_| {});
        for i in 0..=u64::from(MAX_Z) {
            b.append(BlockId(i), None);
        }
        assert_eq!(b.peek().real_count(), MAX_Z as usize + 1);
        let ring = std::panic::catch_unwind(|| BucketTree::ring(&at(MAX_Z + 1)));
        assert!(ring.is_err(), "a Ring tree of Z = {}", MAX_Z + 1);
    }

    /// In debug builds a rule of one row form refuses a row of the other,
    /// which it would otherwise misread without a panic.
    #[cfg(debug_assertions)]
    #[test]
    fn a_rule_on_the_other_row_form_panics() {
        let on_ring = std::panic::catch_unwind(|| {
            let mut tree = BucketTree::ring(&cfg());
            tree.bucket_or_fill(BucketId(0), |_| {})
                .append(BlockId(1), None);
        });
        let on_plain = std::panic::catch_unwind(|| {
            let mut tree = BucketTree::plain(&cfg().z_slot());
            let mut b = tree.bucket_or_fill(BucketId(0), |_| {});
            b.append(BlockId(1), None);
            b.take_real_blocks_into(&mut Vec::new(), &mut Vec::new());
        });
        assert!(on_ring.is_err(), "append on a Ring row");
        assert!(on_plain.is_err(), "take_real_blocks_into on a Path row");
    }

    /// Fresh rows (ids implied by the first pre-loaded one) and written-back
    /// rows (explicit ids) against the three-field model, op by op, RNG
    /// state included. Each fresh row is filled as the Ring engine fills
    /// one — `Z` coin draws, each hit the next pre-loaded id — and the model
    /// receives the same blocks, after the same draws, through `reload`.
    /// The driven rows sit either side of the slab's first chunk boundary,
    /// and every touch kind is seen in both forms.
    #[test]
    fn fresh_and_written_back_rows_match_the_three_field_model() {
        let driven = CHUNK_ROWS - 16..CHUNK_ROWS + 16;
        let configs = [
            (cfg(), 1),
            (cb_cfg(), 2),
            (RingConfig::hpca_default(), 3),
            (RingConfig::hpca_baseline(), 4),
        ];
        for (c, seed) in configs {
            let c = RingConfig {
                levels: usize::BITS - driven.end.leading_zeros() + 1,
                ..c
            };
            let mut tree = BucketTree::ring(&c);
            let (mut rng_p, mut rng_m) = (StdRng::seed_from_u64(99), StdRng::seed_from_u64(99));
            let mut filler = StdRng::seed_from_u64(98);
            let (mut models, mut firsts) = (Vec::new(), Vec::new());
            let mut next_cold = COLD_BASE;
            for id in 0..driven.end {
                let fresh = BlockId(next_cold);
                let mut placed = 0;
                let rng = if driven.contains(&id) {
                    &mut rng_p
                } else {
                    &mut filler
                };
                let _ = tree.bucket_or_fill(BucketId(id as u64), |b| {
                    b.fill_cold(c.z, fresh, rng, |r| {
                        let hit = r.gen_bool(0.7);
                        placed += u64::from(hit);
                        hit
                    });
                });
                if driven.contains(&id) {
                    let hits = (0..c.z).filter(|_| rng_m.gen_bool(0.7)).count() as u64;
                    assert_eq!(hits, placed);
                    let mut entries = (0..placed)
                        .map(|k| (BlockId(next_cold + k), None))
                        .collect();
                    let mut model = model::ModelBucket::default();
                    model.reload(&c, &mut entries, &mut rng_m);
                    models.push(model);
                    firsts.push(next_cold);
                }
                next_cold += placed;
            }
            let mut ops = StdRng::seed_from_u64(seed);
            let mut next_id = 0u64;
            // Per form (fresh, written back): targets, greens, dummies.
            let mut seen = [[0u32; 3]; 2];
            for step in 0..8000u64 {
                let r = ops.gen_range(0..driven.len());
                let model = &mut models[r];
                let mut packed = tree.get_mut(BucketId((driven.start + r) as u64)).unwrap();
                let form = usize::from(packed.peek().is_explicit());
                match ops.gen_range(0..60u32) {
                    0 => {
                        // A write-back of 0..=Z program blocks, some with
                        // payloads.
                        let mut entries: Vec<BlockEntry> = (0..ops.gen_range(0..c.z + 1))
                            .map(|_| {
                                next_id += 1;
                                let data = ops
                                    .gen_bool(0.5)
                                    .then(|| vec![next_id as u8; 8].into_boxed_slice());
                                (BlockId(next_id), data)
                            })
                            .collect();
                        model.reload(&c, &mut entries.clone(), &mut rng_m);
                        packed.reload(&c, &mut entries, &mut rng_p);
                    }
                    1 => {
                        // An early reshuffle: the bucket's own blocks, read
                        // and written back.
                        let (mut out_p, mut out_m) = (Vec::new(), Vec::new());
                        packed.take_real_blocks_into(&mut out_p, &mut Vec::new());
                        model.take_real_blocks_into(&mut out_m, &mut Vec::new());
                        assert_eq!(out_p, out_m);
                        model.reload(&c, &mut out_m, &mut rng_m);
                        packed.reload(&c, &mut out_p, &mut rng_p);
                    }
                    2..=49 => {
                        let present = packed.peek().real_blocks();
                        let target = match ops.gen_range(0..3u32) {
                            0 => present.choose(&mut ops).copied(),
                            1 => Some(BlockId(firsts[r] + c.z as u64)),
                            _ => None,
                        };
                        let gate = ops.gen_bool(0.5);
                        let holds = target.is_some_and(|t| model.find(t).is_some());
                        if !holds && model.needs_reshuffle_gated(&c, gate) {
                            continue; // the protocol would reshuffle first
                        }
                        let got = packed.serve_read_gated(&c, target, gate, &mut rng_p);
                        assert_eq!(got, model.serve_read_gated(target, &mut rng_m));
                        let kind = match got.1 {
                            FetchKind::Target(_) => 0,
                            FetchKind::Green(_) => 1,
                            FetchKind::Dummy => 2,
                        };
                        seen[form][kind] += 1;
                    }
                    50..=53 => {
                        let (mut out_p, mut out_m) = (Vec::new(), Vec::new());
                        let (mut slots_p, mut slots_m) = (Vec::new(), Vec::new());
                        packed.take_real_blocks_into(&mut out_p, &mut slots_p);
                        model.take_real_blocks_into(&mut out_m, &mut slots_m);
                        assert_eq!((out_p, slots_p), (out_m, slots_m));
                    }
                    54..=57 => {
                        let slot = ops.gen_range(0..packed.peek().slot_count());
                        assert_eq!(packed.clear_slot(slot), model.clear_slot(slot));
                    }
                    _ => {
                        // Ids a fresh row's reference could alias: the one
                        // before it, the next row's, the codes' marks, a
                        // program id the explicit rows' zeroed entries
                        // spell.
                        let first = firsts[r];
                        let near = [first - 1, first + c.z as u64, first + u64::from(DUMMY)];
                        for id in near.into_iter().chain([0, next_id + 1]) {
                            assert_eq!(packed.peek().find(BlockId(id)), model.find(BlockId(id)));
                        }
                    }
                }
                assert_same_state(&c, packed.peek(), model);
                assert_eq!(format!("{rng_p:?}"), format!("{rng_m:?}"), "step {step}");
            }
            for (form, [targets, greens, dummies]) in seen.into_iter().enumerate() {
                assert!(
                    targets > 0 && dummies > 0,
                    "Y = {}, form {form}: {seen:?}",
                    c.y
                );
                assert_eq!(greens > 0, c.y > 0, "Y = {}, form {form}: {seen:?}", c.y);
            }
            let explicit = driven
                .clone()
                .filter(|&i| tree.view_ref(i).is_explicit())
                .count();
            assert_eq!(
                tree.written_back(),
                explicit,
                "one id row per written-back bucket"
            );
        }
    }
}
