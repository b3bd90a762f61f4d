//! Protocol invariant auditors.
//!
//! One auditor per protocol family, unified behind [`ProtocolAuditor`]
//! (selected by [`ProtocolKind`]): [`OramAuditor`] for the Ring engines
//! (Ring+CB and plain Ring share every Ring invariant — plain Ring is the
//! `Y = 0` configuration) and [`PlainTreeAuditor`] for Path and Circuit
//! ORAM (one plan-shape check under two expected-plan tables). Each replays
//! the plan stream the memory hierarchy consumes against its protocol's
//! structural invariants, independently of the engine's internal
//! bookkeeping.
//!
//! [`OramAuditor`] replays the protocol's [`AccessPlan`] stream — the same
//! artifact the memory hierarchy consumes — against the paper's structural
//! invariants, independently of `ring-oram`'s internal bookkeeping:
//!
//! * every slot index stays inside the bucket's physical `Z + S - Y` slots
//!   ([`Rule::SlotRange`]);
//! * within one reshuffle epoch, no bucket slot is *read-path-read* twice —
//!   this is Ring ORAM's core security invariant: a dummy (or real) slot
//!   revisited between reshuffles correlates accesses ([`Rule::SlotReuse`]);
//! * no bucket serves more than `S` read-path touches per epoch, because the
//!   protocol must reshuffle at `S` accesses ([`Rule::BucketBudget`]);
//! * evictions fire at exactly one per `A` read paths, counting the dummy
//!   read paths of background eviction ([`Rule::EvictionCadence`]);
//! * each plan's touch counts match its kind's canonical shape
//!   ([`Rule::PlanShape`]);
//! * stash occupancy, sampled after each completed access, stays within the
//!   configured bound ([`Rule::StashBound`]).
//!
//! Reshuffle epochs are tracked from the plan stream itself: any *write*
//! touch to a bucket (the write phase of an eviction or reshuffle rewrites
//! all its slots) starts a fresh epoch for that bucket. The read phases of
//! evictions and reshuffles are excluded from the reuse/budget checks —
//! they legitimately re-read slots (and pad with filler indices) because
//! the bucket is about to be rewritten anyway.

use std::collections::{HashMap, HashSet};

use ring_oram::circuit::EVICTIONS_PER_ACCESS;
use ring_oram::types::BucketId;
use ring_oram::{AccessPlan, FaultEvent, FaultEventKind, OpKind, ProtocolKind, RingConfig};

use crate::violation::{Rule, Violation};

/// Replays an [`AccessPlan`] stream against the Ring ORAM invariants.
///
/// Feed every plan batch (one [`observe_access`](Self::observe_access) call
/// per protocol access, in order) and the post-access stash occupancy via
/// [`observe_stash`](Self::observe_stash); collect findings from
/// [`violations`](Self::violations).
#[derive(Debug, Clone)]
pub struct OramAuditor {
    config: RingConfig,
    /// Read-path-touched slots per bucket since that bucket's last rewrite.
    touched: HashMap<BucketId, HashSet<u32>>,
    /// Read-path touch count per bucket in the current epoch (tracked
    /// separately from the set so reuse doesn't mask a budget overrun).
    touch_count: HashMap<BucketId, u32>,
    paths: u64,
    evictions: u64,
    /// Retry-read touches the fault log has authorized but no RetryRead
    /// plan has consumed yet, keyed by (bucket, slot). Filled by
    /// [`Self::observe_faults`], drained by the batch's RetryRead plans and
    /// reconciled at the end of each [`Self::observe_access`].
    retry_allowances: HashMap<(BucketId, u32), u32>,
    /// Injected faults counted by [`Self::observe_faults`].
    faults_seen: u64,
    found: Findings,
}

impl OramAuditor {
    /// Creates an auditor for a protocol instance with this configuration.
    #[must_use]
    pub fn new(config: RingConfig) -> Self {
        Self {
            config,
            touched: HashMap::new(),
            touch_count: HashMap::new(),
            paths: 0,
            evictions: 0,
            retry_allowances: HashMap::new(),
            faults_seen: 0,
            found: Findings::default(),
        }
    }

    /// Violations found so far.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.found.violations
    }

    /// Takes the accumulated violations, keeping the epoch state.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.found.violations)
    }

    /// Whether no violation has been found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.found.violations.is_empty()
    }

    /// Protocol accesses audited so far.
    #[must_use]
    pub fn accesses_checked(&self) -> u64 {
        self.found.accesses
    }

    /// Injected fault events audited so far.
    #[must_use]
    pub fn faults_checked(&self) -> u64 {
        self.faults_seen
    }

    /// Audits one access's fault-event log. Call *before* the matching
    /// [`Self::observe_access`]: the log's `Retried` entries authorize the
    /// retry-read touches of the batch's plans.
    ///
    /// Checks:
    /// * every `Injected` event is followed by a `Detected` for the same
    ///   site within the batch ([`Rule::FaultUndetected`] otherwise — the
    ///   integrity tag was missing or unchecked);
    /// * no fetch ends `Unrecovered` ([`Rule::FaultUnrecovered`]): the
    ///   retry budget must be sized so recovery always succeeds, or the
    ///   simulation's results are computed on lost data.
    pub fn observe_faults(&mut self, events: &[FaultEvent]) {
        let mut pending_detect: HashMap<(BucketId, u32), u32> = HashMap::new();
        for e in events {
            let site = (e.bucket, e.slot);
            match e.kind {
                FaultEventKind::Injected => {
                    self.faults_seen += 1;
                    *pending_detect.entry(site).or_insert(0) += 1;
                }
                FaultEventKind::Detected => {
                    let p = pending_detect.entry(site).or_insert(0);
                    *p = p.saturating_sub(1);
                }
                FaultEventKind::Retried => {
                    *self.retry_allowances.entry(site).or_insert(0) += 1;
                }
                FaultEventKind::Recovered => {}
                FaultEventKind::Unrecovered => {
                    self.found.violate(
                        Rule::FaultUnrecovered,
                        format!(
                            "fetch from bucket {} slot {} lost its payload after \
                             exhausting the retry budget",
                            e.bucket.0, e.slot
                        ),
                    );
                }
            }
        }
        for ((bucket, slot), missing) in pending_detect {
            if missing > 0 {
                self.found.violate(
                    Rule::FaultUndetected,
                    format!(
                        "{missing} injected corruption(s) of bucket {} slot {slot} \
                         were never detected (no integrity check)",
                        bucket.0
                    ),
                );
            }
        }
    }

    /// Audits the full plan batch of one protocol access, in plan order.
    pub fn observe_access(&mut self, plans: &[AccessPlan]) {
        self.found.accesses += 1;
        for plan in plans {
            self.observe_plan(plan);
        }
        // Eviction cadence: after a complete batch, exactly one eviction
        // per `A` read paths must have been emitted (background eviction
        // tops the count up with dummy paths before evicting, so the
        // invariant holds across all schemes).
        let expected = self.paths / u64::from(self.config.a);
        if self.evictions != expected {
            self.found.violate(
                Rule::EvictionCadence,
                format!(
                    "{} evictions after {} read paths (A = {}, expected {})",
                    self.evictions, self.paths, self.config.a, expected
                ),
            );
        }
        // Retry reconciliation: every `Retried` fault event must have
        // produced exactly one retry-read touch in this batch.
        for ((bucket, slot), n) in std::mem::take(&mut self.retry_allowances) {
            if n > 0 {
                self.found.violate(
                    Rule::RetryMismatch,
                    format!(
                        "{n} retried fault(s) at bucket {} slot {slot} produced no \
                         retry-read touch",
                        bucket.0
                    ),
                );
            }
        }
    }

    fn observe_plan(&mut self, plan: &AccessPlan) {
        // Slot-range check applies to every touch of every plan kind.
        let slots = self.config.bucket_slots();
        self.found.check_slot_range(plan, slots);
        match plan.kind {
            OpKind::ReadPath | OpKind::DummyReadPath => {
                self.paths += 1;
                // A (dummy) read path reads exactly one slot per off-chip
                // level and writes nothing.
                let off_chip = off_chip_levels(&self.config);
                self.found.check_touch_counts(plan, off_chip, 0);
                for touch in &plan.touches {
                    if touch.write {
                        continue; // shape check already flagged it
                    }
                    let count = {
                        let c = self.touch_count.entry(touch.bucket).or_insert(0);
                        *c += 1;
                        *c
                    };
                    if count > self.config.s {
                        self.found.violate(
                            Rule::BucketBudget,
                            format!(
                                "bucket {} served {count} read-path touches in one epoch \
                                 (S = {})",
                                touch.bucket.0, self.config.s
                            ),
                        );
                    }
                    let reused = !self.touched_slots(touch.bucket).insert(touch.slot);
                    if reused {
                        self.found.violate(
                            Rule::SlotReuse,
                            format!(
                                "bucket {} slot {} read twice between reshuffles",
                                touch.bucket.0, touch.slot
                            ),
                        );
                    }
                }
            }
            OpKind::RetryRead => {
                // Retry reads re-fetch already-public slots; they are not
                // read paths (cadence unaffected) and do not open new slots
                // (reuse/budget exempt). Every touch must consume one
                // allowance minted by a `Retried` fault event, and must be
                // a read.
                for touch in &plan.touches {
                    if touch.write {
                        self.found.violate(
                            Rule::PlanShape,
                            format!(
                                "retry plan wrote bucket {} slot {} (retries only read)",
                                touch.bucket.0, touch.slot
                            ),
                        );
                        continue;
                    }
                    let site = (touch.bucket, touch.slot);
                    let allowed = self
                        .retry_allowances
                        .get_mut(&site)
                        .filter(|n| **n > 0)
                        .map(|n| *n -= 1)
                        .is_some();
                    if !allowed {
                        self.found.violate(
                            Rule::RetryMismatch,
                            format!(
                                "retry-read of bucket {} slot {} without a matching \
                                 retried fault event",
                                touch.bucket.0, touch.slot
                            ),
                        );
                    }
                }
                if plan.touches.is_empty() {
                    self.found.violate(
                        Rule::PlanShape,
                        "empty retry plan (a retry must re-read at least one slot)".to_string(),
                    );
                }
            }
            OpKind::EarlyReshuffle => {
                self.check_reshuffle_shape(plan, 1);
                self.apply_rewrites(plan);
            }
            OpKind::Eviction => {
                self.evictions += 1;
                self.check_reshuffle_shape(plan, off_chip_levels(&self.config));
                self.apply_rewrites(plan);
            }
        }
    }

    /// A write touch rewrites (and re-permutes) its whole bucket: start a
    /// fresh reuse epoch for it. The bucket's entries are emptied (or
    /// created, sized for one epoch's `S` touches), never removed: all the
    /// memory a bucket's bookkeeping needs is taken the first time the
    /// bucket is touched, and a materialized tree audits allocation-free.
    fn apply_rewrites(&mut self, plan: &AccessPlan) {
        for touch in &plan.touches {
            if touch.write {
                self.touched_slots(touch.bucket).clear();
                self.touch_count.insert(touch.bucket, 0);
            }
        }
    }

    /// The slots of `bucket` read since its last rewrite.
    fn touched_slots(&mut self, bucket: BucketId) -> &mut HashSet<u32> {
        let epoch_touches = self.config.s as usize;
        self.touched
            .entry(bucket)
            .or_insert_with(|| HashSet::with_capacity(epoch_touches))
    }

    /// A reshuffle or eviction reads `Z` slots and rewrites all
    /// `Z + S - Y` slots of each bucket it covers.
    fn check_reshuffle_shape(&mut self, plan: &AccessPlan, buckets: u64) {
        let expect_reads = buckets * u64::from(self.config.z);
        let expect_writes = buckets * u64::from(self.config.bucket_slots());
        self.found
            .check_touch_counts(plan, expect_reads, expect_writes);
    }

    /// Records the stash occupancy sampled after an access completed.
    pub fn observe_stash(&mut self, stash_len: usize) {
        self.found
            .check_stash_bound(stash_len, self.config.stash_capacity);
    }
}

/// Number of tree levels whose buckets live off-chip (the tree top is
/// cached on-chip and never appears in plans).
fn off_chip_levels(config: &RingConfig) -> u64 {
    u64::from(config.levels.saturating_sub(config.tree_top_cached_levels))
}

/// What an auditor has found so far, with the checks every protocol's
/// auditor makes; each finding is stamped with the access it was made in.
#[derive(Debug, Clone, Default)]
struct Findings {
    /// Protocol accesses audited so far.
    accesses: u64,
    violations: Vec<Violation>,
}

impl Findings {
    fn violate(&mut self, rule: Rule, message: String) {
        self.violations
            .push(Violation::new(self.accesses, rule, message));
    }

    /// Every touch of `plan` must address one of the bucket's `slots` slots.
    fn check_slot_range(&mut self, plan: &AccessPlan, slots: u32) {
        for touch in &plan.touches {
            if touch.slot >= slots {
                self.violate(
                    Rule::SlotRange,
                    format!(
                        "{} touch of bucket {} addressed slot {} (bucket has {slots})",
                        plan.kind.label(),
                        touch.bucket.0,
                        touch.slot
                    ),
                );
            }
        }
    }

    /// `plan` must make exactly `expect_reads` reads and `expect_writes`
    /// writes.
    fn check_touch_counts(&mut self, plan: &AccessPlan, expect_reads: u64, expect_writes: u64) {
        let reads = plan.reads() as u64;
        let writes = plan.writes() as u64;
        if reads != expect_reads || writes != expect_writes {
            self.violate(
                Rule::PlanShape,
                format!(
                    "{} with {reads} reads / {writes} writes (expected {expect_reads} / \
                     {expect_writes})",
                    plan.kind.label()
                ),
            );
        }
    }

    /// Shape-checks one plan whose touch list must be `reads` reads
    /// followed by `writes` writes, every slot inside `slots` — the
    /// plain-tree protocols' whole contract (their buckets have no dummy
    /// budget, so epoch/reuse tracking does not apply: every access
    /// rewrites the full path it read).
    fn check_exact_shape(&mut self, plan: &AccessPlan, slots: u32, reads: u64, writes: u64) {
        self.check_slot_range(plan, slots);
        self.check_touch_counts(plan, reads, writes);
        // Reads must precede writes: the memory hierarchy fetches the path
        // before the engine can rewrite it.
        if let Some(first_write) = plan.touches.iter().position(|t| t.write) {
            if plan.touches[first_write..].iter().any(|t| !t.write) {
                self.violate(
                    Rule::PlanShape,
                    format!("{} interleaves reads after writes", plan.kind.label()),
                );
            }
        }
    }

    /// The stash occupancy sampled after an access completed must be
    /// within the configured bound.
    fn check_stash_bound(&mut self, stash_len: usize, bound: usize) {
        if stash_len > bound {
            self.violate(
                Rule::StashBound,
                format!("stash held {stash_len} blocks, bound {bound}"),
            );
        }
    }
}

/// Replays a Path or Circuit ORAM plan stream against the protocol's
/// invariants.
///
/// The two protocols are schedules over one `Z`-slot tree, and their
/// bus-observable contract is far simpler than Ring's — there are no dummy
/// budgets or reshuffle epochs to track. Every access must emit exactly
/// the protocol's plan batch, held here as a table of (kind, reads,
/// writes) rows ([`Rule::PlanShape`] otherwise):
///
/// * **Path** — one [`OpKind::ReadPath`] plan that reads all `Z` slots of
///   every off-chip bucket on the path and writes all of them back;
/// * **Circuit** — one read-only [`OpKind::ReadPath`] plan (the whole path,
///   zero writes — Circuit ORAM's low-online-bandwidth half) followed by
///   [`EVICTIONS_PER_ACCESS`] [`OpKind::Eviction`] plans that each read and
///   fully rewrite their reverse-lexicographic path;
///
/// with every slot in range ([`Rule::SlotRange`]) and the stash within its
/// configured bound ([`Rule::StashBound`]).
#[derive(Debug, Clone)]
pub struct PlainTreeAuditor {
    config: RingConfig,
    /// The protocol's name in violation messages.
    protocol: &'static str,
    /// The plan batch of one access: each plan's kind, reads and writes.
    expected: Vec<(OpKind, u64, u64)>,
    found: Findings,
}

impl PlainTreeAuditor {
    /// Creates an auditor for a Path ORAM instance with this configuration
    /// (the `bucket_slots == z` [`RingConfig`] encoding).
    #[must_use]
    pub fn path(config: RingConfig) -> Self {
        Self::new(config, "Path", &[(OpKind::ReadPath, true)])
    }

    /// Creates an auditor for a Circuit ORAM instance with this
    /// configuration (the `bucket_slots == z` [`RingConfig`] encoding).
    #[must_use]
    pub fn circuit(config: RingConfig) -> Self {
        let mut rows = [(OpKind::Eviction, true); 1 + EVICTIONS_PER_ACCESS];
        rows[0] = (OpKind::ReadPath, false);
        Self::new(config, "Circuit", &rows)
    }

    /// `rows` names each plan's kind and whether it writes its path back;
    /// every plan reads the full off-chip path.
    fn new(config: RingConfig, protocol: &'static str, rows: &[(OpKind, bool)]) -> Self {
        let path = off_chip_levels(&config) * u64::from(config.z);
        Self {
            expected: rows
                .iter()
                .map(|&(kind, writes_back)| (kind, path, if writes_back { path } else { 0 }))
                .collect(),
            config,
            protocol,
            found: Findings::default(),
        }
    }

    /// Violations found so far.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.found.violations
    }

    /// Takes the accumulated violations.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.found.violations)
    }

    /// Whether no violation has been found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.found.violations.is_empty()
    }

    /// Protocol accesses audited so far.
    #[must_use]
    pub fn accesses_checked(&self) -> u64 {
        self.found.accesses
    }

    /// Audits the plan batch of one access against the protocol's table:
    /// the right plans in the right order, then each plan's exact shape.
    pub fn observe_access(&mut self, plans: &[AccessPlan]) {
        self.found.accesses += 1;
        if !plans
            .iter()
            .map(|p| p.kind)
            .eq(self.expected.iter().map(|r| r.0))
        {
            let evictions = match self.expected.len() - 1 {
                0 => String::new(),
                n => format!(" + {n} evictions"),
            };
            self.found.violate(
                Rule::PlanShape,
                format!(
                    "{} ORAM access emitted {} plan(s) [{}] (expected 1 read-path{evictions})",
                    self.protocol,
                    plans.len(),
                    plans
                        .iter()
                        .map(|p| p.kind.label())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            );
            return;
        }
        for (plan, &(_, reads, writes)) in plans.iter().zip(&self.expected) {
            self.found
                .check_exact_shape(plan, self.config.bucket_slots(), reads, writes);
        }
    }

    /// Records the stash occupancy sampled after an access completed.
    pub fn observe_stash(&mut self, stash_len: usize) {
        self.found
            .check_stash_bound(stash_len, self.config.stash_capacity);
    }
}

/// The protocol-aware auditor the pipeline attaches: one of the concrete
/// auditors, selected by [`ProtocolKind`].
///
/// Ring+CB and plain Ring share the [`OramAuditor`] — plain Ring is the
/// `Y = 0` configuration and obeys every Ring invariant (the config passed
/// in must be the *effective* one, with `y` already forced to 0, so the
/// `Z + S - Y` slot range is right). Path and Circuit share the
/// [`PlainTreeAuditor`], each under its own plan table.
#[derive(Debug, Clone)]
pub enum ProtocolAuditor {
    /// Ring invariants (Ring+CB and plain Ring).
    Ring(OramAuditor),
    /// Path or Circuit ORAM invariants.
    Plain(PlainTreeAuditor),
}

impl ProtocolAuditor {
    /// Creates the auditor for `kind` over the protocol's effective
    /// configuration.
    #[must_use]
    pub fn new(kind: ProtocolKind, config: RingConfig) -> Self {
        match kind {
            ProtocolKind::RingCb | ProtocolKind::Ring => Self::Ring(OramAuditor::new(config)),
            ProtocolKind::Path => Self::Plain(PlainTreeAuditor::path(config)),
            ProtocolKind::Circuit => Self::Plain(PlainTreeAuditor::circuit(config)),
        }
    }

    /// Audits one access's fault-event log. Only the Ring engines have a
    /// fault layer; for Path/Circuit the log is always empty and this is a
    /// no-op (config validation rejects fault injection for them).
    pub fn observe_faults(&mut self, events: &[FaultEvent]) {
        if let Self::Ring(a) = self {
            a.observe_faults(events);
        }
    }

    /// Audits the full plan batch of one protocol access, in plan order.
    pub fn observe_access(&mut self, plans: &[AccessPlan]) {
        match self {
            Self::Ring(a) => a.observe_access(plans),
            Self::Plain(a) => a.observe_access(plans),
        }
    }

    /// Records the stash occupancy sampled after an access completed.
    pub fn observe_stash(&mut self, stash_len: usize) {
        match self {
            Self::Ring(a) => a.observe_stash(stash_len),
            Self::Plain(a) => a.observe_stash(stash_len),
        }
    }

    /// Violations found so far.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        match self {
            Self::Ring(a) => a.violations(),
            Self::Plain(a) => a.violations(),
        }
    }

    /// Takes the accumulated violations.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        match self {
            Self::Ring(a) => a.take_violations(),
            Self::Plain(a) => a.take_violations(),
        }
    }

    /// Whether no violation has been found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations().is_empty()
    }

    /// Protocol accesses audited so far.
    #[must_use]
    pub fn accesses_checked(&self) -> u64 {
        match self {
            Self::Ring(a) => a.accesses_checked(),
            Self::Plain(a) => a.accesses_checked(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_oram::{ObliviousProtocol, RingOram, SlotTouch};

    fn small_cb() -> RingConfig {
        RingConfig::test_small_cb()
    }

    fn read_path(config: &RingConfig, slot_of: impl Fn(u32) -> u32) -> AccessPlan {
        let off_chip = config.levels - config.tree_top_cached_levels;
        let touches = (0..off_chip)
            .map(|level| SlotTouch::read(BucketId(u64::from(level)), slot_of(level)))
            .collect();
        AccessPlan::new(OpKind::ReadPath, touches, None)
    }

    /// The auditor must accept everything the real protocol emits.
    #[test]
    fn real_protocol_stream_is_clean() {
        for (name, config) in [
            ("plain", RingConfig::test_small()),
            ("compact-bucket", small_cb()),
        ] {
            let mut oram = RingOram::new(config.clone(), 7);
            let mut auditor = OramAuditor::new(config.clone());
            let blocks = config.real_capacity_blocks() / 2;
            let mut rng = oram_rng::StdRng::seed_from_u64(11);
            use oram_rng::Rng;
            for i in 0..600u64 {
                let block = ring_oram::BlockId(rng.gen_range(0..blocks.max(1)));
                let outcome = if i % 3 == 0 {
                    let payload = vec![i as u8; config.block_bytes as usize];
                    oram.write_block(block, &payload)
                } else {
                    oram.read_block(block).0
                };
                auditor.observe_access(&outcome.plans);
                auditor.observe_stash(oram.stash_len());
            }
            assert!(
                auditor.is_clean(),
                "{name}: {:?}",
                auditor.violations().first()
            );
            assert_eq!(auditor.accesses_checked(), 600);
        }
    }

    #[test]
    fn slot_out_of_range_detected() {
        let config = small_cb();
        let mut auditor = OramAuditor::new(config.clone());
        let mut plan = read_path(&config, |_| 0);
        plan.touches[0].slot = config.bucket_slots(); // one past the end
        auditor.observe_access(&[plan]);
        assert!(auditor
            .violations()
            .iter()
            .any(|v| v.rule == Rule::SlotRange));
    }

    #[test]
    fn slot_reuse_across_accesses_detected() {
        let config = small_cb();
        let mut auditor = OramAuditor::new(config.clone());
        let plan = read_path(&config, |_| 2);
        // Same slots again without an intervening reshuffle: every bucket
        // reuses its slot.
        auditor.observe_access(std::slice::from_ref(&plan));
        auditor.observe_access(std::slice::from_ref(&plan));
        assert!(auditor
            .violations()
            .iter()
            .any(|v| v.rule == Rule::SlotReuse));
    }

    #[test]
    fn rewrite_opens_a_fresh_epoch() {
        let config = small_cb();
        let mut auditor = OramAuditor::new(config.clone());
        auditor.observe_access(&[read_path(&config, |_| 2)]);
        // Reshuffle bucket 0: Z reads + all-slot writes.
        let mut touches: Vec<SlotTouch> = (0..config.z)
            .map(|slot| SlotTouch::read(BucketId(0), slot))
            .collect();
        touches.extend((0..config.bucket_slots()).map(|slot| SlotTouch::write(BucketId(0), slot)));
        let shuffle = AccessPlan::new(OpKind::EarlyReshuffle, touches, None);
        auditor.observe_access(&[shuffle]);
        // Re-reading bucket 0 slot 2 is now legal; the other buckets get a
        // fresh slot so only the reshuffle's effect is probed.
        let again = read_path(&config, |level| if level == 0 { 2 } else { 3 });
        auditor.observe_access(&[again]);
        assert!(auditor.is_clean(), "{:?}", auditor.violations().first());
    }

    #[test]
    fn eviction_cadence_violation_detected() {
        let config = small_cb();
        let mut auditor = OramAuditor::new(config.clone());
        // Feed A complete accesses with no eviction: the A-th batch must
        // trip the cadence check.
        for i in 0..config.a {
            auditor.observe_access(&[read_path(&config, |_| i % config.s)]);
        }
        assert!(
            auditor
                .violations()
                .iter()
                .any(|v| v.rule == Rule::EvictionCadence),
            "{:?}",
            auditor.violations()
        );
    }

    #[test]
    fn stash_bound_detected() {
        let config = small_cb();
        let mut auditor = OramAuditor::new(config.clone());
        auditor.observe_stash(config.stash_capacity); // at bound: fine
        assert!(auditor.is_clean());
        auditor.observe_stash(config.stash_capacity + 1);
        assert_eq!(auditor.violations().len(), 1);
        assert_eq!(auditor.violations()[0].rule, Rule::StashBound);
    }

    /// With fault injection enabled the auditor must stay clean: every
    /// injected corruption is detected, every retry is covered by a fault
    /// event, and cadence/reuse/budget invariants hold unchanged.
    #[test]
    fn faulty_protocol_stream_is_clean() {
        use ring_oram::ResilienceConfig;
        let config = small_cb();
        let mut oram = RingOram::new(config.clone(), 7);
        oram.enable_encryption(0xFEED);
        let mut res = ResilienceConfig::for_stash(config.stash_capacity);
        res.bit_flip_rate = 0.1;
        res.max_retries = 4;
        oram.enable_resilience(res);
        let mut auditor = OramAuditor::new(config.clone());
        let blocks = config.real_capacity_blocks() / 2;
        let mut rng = oram_rng::StdRng::seed_from_u64(11);
        use oram_rng::Rng;
        for i in 0..600u64 {
            let block = ring_oram::BlockId(rng.gen_range(0..blocks.max(1)));
            let outcome = if i % 3 == 0 {
                let payload = vec![i as u8; config.block_bytes as usize];
                oram.write_block(block, &payload)
            } else {
                oram.read_block(block).0
            };
            auditor.observe_faults(&oram.take_fault_events());
            auditor.observe_access(&outcome.plans);
            auditor.observe_stash(oram.stash_len());
        }
        assert!(auditor.is_clean(), "{:?}", auditor.violations().first());
        assert!(auditor.faults_checked() > 0, "faults must have fired");
        assert_eq!(
            oram.stats().faults_injected,
            oram.stats().faults_detected,
            "every injected fault must be detected"
        );
    }

    #[test]
    fn undetected_fault_flagged() {
        use ring_oram::{FaultEvent, FaultEventKind};
        let config = small_cb();
        let mut auditor = OramAuditor::new(config);
        auditor.observe_faults(&[FaultEvent {
            access: 1,
            bucket: BucketId(3),
            slot: 2,
            kind: FaultEventKind::Injected,
        }]);
        assert!(auditor
            .violations()
            .iter()
            .any(|v| v.rule == Rule::FaultUndetected));
    }

    #[test]
    fn unrecovered_fault_flagged() {
        use ring_oram::{FaultEvent, FaultEventKind};
        let config = small_cb();
        let mut auditor = OramAuditor::new(config);
        let site = |kind| FaultEvent {
            access: 1,
            bucket: BucketId(3),
            slot: 2,
            kind,
        };
        auditor.observe_faults(&[
            site(FaultEventKind::Injected),
            site(FaultEventKind::Detected),
            site(FaultEventKind::Unrecovered),
        ]);
        assert!(auditor
            .violations()
            .iter()
            .any(|v| v.rule == Rule::FaultUnrecovered));
    }

    #[test]
    fn retry_without_fault_event_flagged() {
        let config = small_cb();
        let mut auditor = OramAuditor::new(config);
        let plan = AccessPlan::new(
            OpKind::RetryRead,
            vec![SlotTouch::read(BucketId(0), 1)],
            None,
        );
        auditor.observe_access(&[plan]);
        assert!(auditor
            .violations()
            .iter()
            .any(|v| v.rule == Rule::RetryMismatch));
    }

    #[test]
    fn retried_fault_without_retry_touch_flagged() {
        use ring_oram::{FaultEvent, FaultEventKind};
        let config = small_cb();
        let mut auditor = OramAuditor::new(config.clone());
        let site = |kind| FaultEvent {
            access: 1,
            bucket: BucketId(0),
            slot: 1,
            kind,
        };
        auditor.observe_faults(&[
            site(FaultEventKind::Injected),
            site(FaultEventKind::Detected),
            site(FaultEventKind::Retried),
            site(FaultEventKind::Recovered),
        ]);
        // A read-path batch with no RetryRead plan: the allowance is left
        // unconsumed and must be flagged at batch reconciliation.
        auditor.observe_access(&[read_path(&config, |_| 0)]);
        assert!(auditor
            .violations()
            .iter()
            .any(|v| v.rule == Rule::RetryMismatch));
    }

    #[test]
    fn malformed_plan_shape_detected() {
        let config = small_cb();
        let mut auditor = OramAuditor::new(config);
        // A read path that writes is structurally wrong.
        let plan = AccessPlan::new(
            OpKind::ReadPath,
            vec![SlotTouch::write(BucketId(0), 0)],
            None,
        );
        auditor.observe_access(&[plan]);
        assert!(auditor
            .violations()
            .iter()
            .any(|v| v.rule == Rule::PlanShape));
    }

    fn z_slot_config() -> RingConfig {
        RingConfig::test_small().z_slot()
    }

    /// The Path auditor must accept everything the real engine emits.
    #[test]
    fn real_path_stream_is_clean() {
        use ring_oram::PathOram;
        let config = z_slot_config();
        let mut oram = PathOram::from_ring(config.clone(), 7);
        let mut auditor = PlainTreeAuditor::path(config);
        for i in 0..600u64 {
            let outcome = oram.access(ring_oram::BlockId(i % 40));
            auditor.observe_access(&outcome.plans);
            auditor.observe_stash(oram.stash_len());
            oram.recycle_outcome(outcome);
        }
        assert!(auditor.is_clean(), "{:?}", auditor.violations().first());
        assert_eq!(auditor.accesses_checked(), 600);
    }

    /// The Circuit auditor must accept everything the real engine emits.
    #[test]
    fn real_circuit_stream_is_clean() {
        use ring_oram::CircuitOram;
        let config = z_slot_config();
        let mut oram = CircuitOram::new(config.clone(), 7);
        let mut auditor = PlainTreeAuditor::circuit(config);
        for i in 0..600u64 {
            let outcome = oram.access(ring_oram::BlockId(i % 40));
            auditor.observe_access(&outcome.plans);
            auditor.observe_stash(oram.stash_len());
            oram.recycle_outcome(outcome);
        }
        assert!(auditor.is_clean(), "{:?}", auditor.violations().first());
        assert_eq!(auditor.accesses_checked(), 600);
    }

    #[test]
    fn path_auditor_rejects_wrong_plan_count_and_shape() {
        let config = z_slot_config();
        let mut auditor = PlainTreeAuditor::path(config.clone());
        // Two plans where one is expected.
        let mk = || {
            AccessPlan::new(
                OpKind::ReadPath,
                vec![SlotTouch::read(BucketId(0), 0)],
                None,
            )
        };
        auditor.observe_access(&[mk(), mk()]);
        assert!(auditor
            .take_violations()
            .iter()
            .any(|v| v.rule == Rule::PlanShape));
        // One plan, but a Ring-shaped one-read-per-level path (no writes).
        let touches = (0..config.levels)
            .map(|l| SlotTouch::read(BucketId(u64::from(l)), 0))
            .collect();
        auditor.observe_access(&[AccessPlan::new(OpKind::ReadPath, touches, None)]);
        assert!(auditor
            .violations()
            .iter()
            .any(|v| v.rule == Rule::PlanShape));
    }

    #[test]
    fn path_auditor_rejects_out_of_range_slot_and_stash_overflow() {
        let config = z_slot_config();
        let mut auditor = PlainTreeAuditor::path(config.clone());
        let mut oram = ring_oram::PathOram::from_ring(config.clone(), 3);
        let mut outcome = oram.access(ring_oram::BlockId(1));
        outcome.plans[0].touches[0].slot = config.bucket_slots(); // one past the end
        auditor.observe_access(&outcome.plans);
        assert!(auditor
            .take_violations()
            .iter()
            .any(|v| v.rule == Rule::SlotRange));
        auditor.observe_stash(config.stash_capacity + 1);
        assert!(auditor
            .violations()
            .iter()
            .any(|v| v.rule == Rule::StashBound));
    }

    #[test]
    fn circuit_auditor_rejects_missing_eviction_and_writing_read_path() {
        let config = z_slot_config();
        let mut auditor = PlainTreeAuditor::circuit(config.clone());
        let mut oram = ring_oram::CircuitOram::new(config.clone(), 3);
        // Dropping an eviction plan breaks the deterministic cadence.
        let outcome = oram.access(ring_oram::BlockId(1));
        auditor.observe_access(&outcome.plans[..2]);
        assert!(auditor
            .take_violations()
            .iter()
            .any(|v| v.rule == Rule::PlanShape));
        // A read path that writes back is Path ORAM, not Circuit.
        let mut outcome2 = oram.access(ring_oram::BlockId(2));
        let touch = outcome2.plans[0].touches[0];
        outcome2.plans[0]
            .touches
            .push(SlotTouch::write(touch.bucket, touch.slot));
        auditor.observe_access(&outcome2.plans);
        assert!(auditor
            .violations()
            .iter()
            .any(|v| v.rule == Rule::PlanShape));
    }

    #[test]
    fn reads_after_writes_are_rejected() {
        let config = z_slot_config();
        let mut auditor = PlainTreeAuditor::path(config.clone());
        let off = config.levels - config.tree_top_cached_levels;
        // Right counts, wrong order: interleave write-then-read per level.
        let mut touches = Vec::new();
        for l in 0..off {
            for s in 0..config.z {
                touches.push(SlotTouch::write(BucketId(u64::from(l)), s));
                touches.push(SlotTouch::read(BucketId(u64::from(l)), s));
            }
        }
        auditor.observe_access(&[AccessPlan::new(OpKind::ReadPath, touches, None)]);
        assert!(auditor
            .violations()
            .iter()
            .any(|v| v.rule == Rule::PlanShape));
    }

    #[test]
    fn protocol_auditor_dispatches_by_kind() {
        let ring = ProtocolAuditor::new(ProtocolKind::RingCb, small_cb());
        assert!(matches!(ring, ProtocolAuditor::Ring(_)));
        let plain = ProtocolAuditor::new(ProtocolKind::Ring, RingConfig::test_small());
        assert!(matches!(plain, ProtocolAuditor::Ring(_)));
        let mut path = ProtocolAuditor::new(ProtocolKind::Path, z_slot_config());
        assert!(matches!(path, ProtocolAuditor::Plain(_)));
        let mut circuit = ProtocolAuditor::new(ProtocolKind::Circuit, z_slot_config());
        assert!(matches!(circuit, ProtocolAuditor::Plain(_)));

        // The dispatching surface behaves like the inner auditor.
        let mut oram = ring_oram::PathOram::from_ring(z_slot_config(), 9);
        for i in 0..50u64 {
            let outcome = oram.access(ring_oram::BlockId(i % 10));
            path.observe_faults(&[]);
            path.observe_access(&outcome.plans);
            path.observe_stash(oram.stash_len());
            // Same variant, different table: a Path batch is not Circuit's.
            circuit.observe_access(&outcome.plans);
            oram.recycle_outcome(outcome);
        }
        assert!(path.is_clean(), "{:?}", path.violations().first());
        assert_eq!(circuit.violations().len(), 50);
        assert_eq!(path.accesses_checked(), 50);
        assert!(path.take_violations().is_empty());
    }
}
