//! The protocol invariant auditor.
//!
//! [`ProtocolAuditor`] replays the [`AccessPlan`] stream the memory
//! hierarchy consumes against one row of a schedule table, independently
//! of the engines' bookkeeping: the table is written here from the
//! protocol definitions and reads nothing of `ring-oram`'s schedule code.
//!
//! | protocol | read path, per off-chip level | batch | slot epoch |
//! |---|---|---|---|
//! | Ring+CB, Ring | 1 read | one eviction per `A` read paths | `S` |
//! | Path | `Z` reads, `Z` writes | `[read path]` | — |
//! | Circuit | `Z` reads | `[read path,` [`EVICTIONS_PER_ACCESS`] `× eviction]` | — |
//!
//! Every row shares the rewrite rule: an eviction (over the off-chip path)
//! or an early reshuffle (over one bucket) reads `Z` slots and writes all
//! `bucket_slots()` slots of each bucket it covers. From its row the
//! auditor checks, for every access:
//!
//! * every touch of every plan addresses one of the bucket's
//!   `bucket_slots()` slots — `Z + S - Y` on Ring, `Z` on Path and Circuit
//!   ([`Rule::SlotRange`]);
//! * each plan makes its row's reads and writes, reads before writes, and a
//!   retry read comes directly after a read path ([`Rule::PlanShape`]);
//! * a fixed batch is exactly its row, a cover's dummy read path standing
//!   for the read path; a batch that is not is one [`Rule::PlanShape`]
//!   finding, and only its retries are audited further;
//! * without a fixed batch, evictions number one per `A` read paths after
//!   every batch, background dummy read paths included
//!   ([`Rule::EvictionCadence`]);
//! * with a slot epoch, no slot is read twice by read paths between two
//!   rewrites of its bucket — Ring ORAM's core security invariant
//!   ([`Rule::SlotReuse`]) — and no bucket serves more than `S` read-path
//!   touches ([`Rule::BucketBudget`]); any write touch of a rewrite opens a
//!   fresh epoch. Without one, an early reshuffle is a
//!   [`Rule::PlanShape`] finding;
//! * the fault log: every injected corruption is detected
//!   ([`Rule::FaultUndetected`]) and recovered ([`Rule::FaultUnrecovered`]),
//!   and every `Retried` event buys exactly one retry-read touch
//!   ([`Rule::RetryMismatch`]);
//! * the stash, sampled after each access, stays within its configured
//!   bound ([`Rule::StashBound`]).

use std::collections::{HashMap, HashSet};

use ring_oram::circuit::EVICTIONS_PER_ACCESS;
use ring_oram::types::BucketId;
use ring_oram::{AccessPlan, FaultEvent, FaultEventKind, OpKind, ProtocolKind, RingConfig};

use crate::violation::{Rule, Violation};

/// One protocol's row of the schedule table.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    /// Reads and writes of a (dummy) read path per off-chip level.
    read_path: (u32, u32),
    /// The evictions that follow each read path, when every access is
    /// that one fixed batch; `None` when evictions keep a cadence of one
    /// per `A` read paths across batches instead.
    fixed_evictions: Option<usize>,
    /// Read-path touches a bucket serves between two rewrites, each slot
    /// at most once; `None` for protocols without dummy budgets.
    epoch: Option<u32>,
}

/// A bucket's read-path touches since its last rewrite.
#[derive(Debug, Clone)]
struct Epoch {
    touches: u32,
    slots: HashSet<u32>,
}

/// Replays a protocol's [`AccessPlan`] stream against its row of the
/// schedule table (see the [module documentation](self)).
///
/// Feed each access's fault log via [`observe_faults`](Self::observe_faults),
/// then its plan batch via [`observe_access`](Self::observe_access), then
/// the stash occupancy via [`observe_stash`](Self::observe_stash); collect
/// findings from [`violations`](Self::violations).
#[derive(Debug, Clone)]
pub struct ProtocolAuditor {
    kind: ProtocolKind,
    config: RingConfig,
    schedule: Schedule,
    /// Tree levels whose buckets live off-chip (the tree top is cached
    /// on-chip and never appears in plans).
    off_chip: u64,
    /// Per bucket, its current slot epoch (rows with one only).
    epochs: HashMap<BucketId, Epoch>,
    paths: u64,
    evictions: u64,
    accesses: u64,
    faults_seen: u64,
    /// Retry-read touches the fault log has authorized but no retry plan
    /// has consumed yet, keyed by (bucket, slot); reconciled at the end of
    /// each batch.
    retry_allowances: HashMap<(BucketId, u32), u32>,
    violations: Vec<Violation>,
}

impl ProtocolAuditor {
    /// Creates the auditor for `kind` over the protocol's *effective*
    /// configuration (plain Ring's with `y` forced to 0, Path's and
    /// Circuit's the `Z`-slot encoding), so `bucket_slots()` is right.
    #[must_use]
    pub fn new(kind: ProtocolKind, config: RingConfig) -> Self {
        let z = config.z;
        let schedule = match kind {
            ProtocolKind::RingCb | ProtocolKind::Ring => Schedule {
                read_path: (1, 0),
                fixed_evictions: None,
                epoch: Some(config.s),
            },
            ProtocolKind::Path => Schedule {
                read_path: (z, z),
                fixed_evictions: Some(0),
                epoch: None,
            },
            ProtocolKind::Circuit => Schedule {
                read_path: (z, 0),
                fixed_evictions: Some(EVICTIONS_PER_ACCESS),
                epoch: None,
            },
        };
        Self {
            kind,
            off_chip: u64::from(config.levels.saturating_sub(config.tree_top_cached_levels)),
            config,
            schedule,
            epochs: HashMap::new(),
            paths: 0,
            evictions: 0,
            accesses: 0,
            faults_seen: 0,
            retry_allowances: HashMap::new(),
            violations: Vec::new(),
        }
    }

    /// Violations found so far.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Takes the accumulated violations, keeping the epoch state.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Whether no violation has been found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn violate(&mut self, rule: Rule, message: String) {
        self.violations
            .push(Violation::new(self.accesses, rule, message));
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
                    self.violate(
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
                self.violate(
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

    /// Audits the full plan batch of one protocol access, in plan order:
    /// the batch against the row, then every plan, then the cadence and
    /// the retry allowances.
    pub fn observe_access(&mut self, plans: &[AccessPlan]) {
        self.accesses += 1;
        let conforms = match self.schedule.fixed_evictions {
            Some(evictions) => self.check_batch(plans, evictions),
            None => true,
        };
        let mut after_read_path = false;
        for plan in plans {
            let retry = plan.kind == OpKind::RetryRead;
            if retry && conforms && !after_read_path {
                self.violate(
                    Rule::PlanShape,
                    "retry plan not directly after a read path".to_string(),
                );
            }
            // A malformed batch is its one finding, but its retries still
            // consume what the fault log authorized.
            if conforms || retry {
                self.observe_plan(plan);
            }
            after_read_path = matches!(plan.kind, OpKind::ReadPath | OpKind::DummyReadPath);
        }
        if self.schedule.fixed_evictions.is_none() {
            let a = u64::from(self.config.a);
            if self.evictions != self.paths / a {
                self.violate(
                    Rule::EvictionCadence,
                    format!(
                        "{} evictions after {} read paths (A = {a}, expected {})",
                        self.evictions,
                        self.paths,
                        self.paths / a
                    ),
                );
            }
        }
        self.reconcile_retries();
    }

    /// Whether the batch, retries set aside, is one (dummy) read path and
    /// then `evictions` evictions; one [`Rule::PlanShape`] finding if not.
    fn check_batch(&mut self, plans: &[AccessPlan], evictions: usize) -> bool {
        let row = plans.iter().filter(|p| p.kind != OpKind::RetryRead);
        let conforms = row.clone().count() == 1 + evictions
            && row.enumerate().all(|(i, p)| match i {
                0 => matches!(p.kind, OpKind::ReadPath | OpKind::DummyReadPath),
                _ => p.kind == OpKind::Eviction,
            });
        if !conforms {
            let labels: Vec<&str> = plans.iter().map(|p| p.kind.label()).collect();
            self.violate(
                Rule::PlanShape,
                format!(
                    "{} access emitted {} plan(s) [{}] (expected 1 read-path + {evictions} \
                     evictions)",
                    self.kind,
                    plans.len(),
                    labels.join(", ")
                ),
            );
        }
        conforms
    }

    fn observe_plan(&mut self, plan: &AccessPlan) {
        let slots = self.config.bucket_slots();
        for touch in plan.touches.iter().filter(|t| t.slot >= slots) {
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
        match plan.kind {
            OpKind::ReadPath | OpKind::DummyReadPath => {
                self.paths += 1;
                let (reads, writes) = self.schedule.read_path;
                self.check_shape(plan, u64::from(reads), u64::from(writes), self.off_chip);
                if let Some(s) = self.schedule.epoch {
                    self.spend_epochs(plan, s);
                }
            }
            // Retry reads re-fetch already-public slots: they are not read
            // paths (cadence unaffected) and open no slot (epoch exempt).
            OpKind::RetryRead => self.check_retry(plan),
            OpKind::EarlyReshuffle | OpKind::Eviction => {
                let buckets = if plan.kind == OpKind::Eviction {
                    self.evictions += 1;
                    self.off_chip
                } else {
                    1
                };
                let (z, slots) = (u64::from(self.config.z), u64::from(slots));
                self.check_shape(plan, z, slots, buckets);
                match self.schedule.epoch {
                    Some(s) => self.open_epochs(plan, s),
                    None if plan.kind == OpKind::EarlyReshuffle => self.violate(
                        Rule::PlanShape,
                        format!("{} has no reshuffles (no slot epoch)", self.kind),
                    ),
                    None => {}
                }
            }
        }
    }

    /// `plan` must make `reads` reads and `writes` writes in each of its
    /// `buckets` buckets, all reads first: the memory hierarchy fetches a
    /// bucket before the engine can rewrite it.
    fn check_shape(&mut self, plan: &AccessPlan, reads: u64, writes: u64, buckets: u64) {
        let (expect_reads, expect_writes) = (reads * buckets, writes * buckets);
        let (reads, writes) = (plan.reads() as u64, plan.writes() as u64);
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
        if let Some(first_write) = plan.touches.iter().position(|t| t.write) {
            if plan.touches[first_write..].iter().any(|t| !t.write) {
                self.violate(
                    Rule::PlanShape,
                    format!("{} interleaves reads after writes", plan.kind.label()),
                );
            }
        }
    }

    /// A read path's reads spend their buckets' epochs: each slot at most
    /// once ([`Rule::SlotReuse`]), at most `s` touches
    /// ([`Rule::BucketBudget`]; counted apart from the slot set, so reuse
    /// does not mask an overrun). A write was already a shape finding.
    fn spend_epochs(&mut self, plan: &AccessPlan, s: u32) {
        for touch in plan.touches.iter().filter(|t| !t.write) {
            let epoch = self.epoch(touch.bucket, s);
            epoch.touches += 1;
            let (count, reused) = (epoch.touches, !epoch.slots.insert(touch.slot));
            if count > s {
                self.violate(
                    Rule::BucketBudget,
                    format!(
                        "bucket {} served {count} read-path touches in one epoch (S = {s})",
                        touch.bucket.0
                    ),
                );
            }
            if reused {
                self.violate(
                    Rule::SlotReuse,
                    format!(
                        "bucket {} slot {} read twice between reshuffles",
                        touch.bucket.0, touch.slot
                    ),
                );
            }
        }
    }

    /// A write touch rewrites (and re-permutes) its whole bucket: a fresh
    /// epoch for it. The read phases of rewrites are exempt from the epoch
    /// — they re-read slots (and pad with filler indices) of a bucket about
    /// to be rewritten anyway.
    fn open_epochs(&mut self, plan: &AccessPlan, s: u32) {
        for touch in plan.touches.iter().filter(|t| t.write) {
            let epoch = self.epoch(touch.bucket, s);
            epoch.touches = 0;
            epoch.slots.clear();
        }
    }

    /// `bucket`'s epoch. An epoch is created sized for `s` touches and
    /// emptied, never removed: all the memory a bucket's bookkeeping needs
    /// is taken the first time it is touched, and a materialized tree
    /// audits allocation-free.
    fn epoch(&mut self, bucket: BucketId, s: u32) -> &mut Epoch {
        self.epochs.entry(bucket).or_insert_with(|| Epoch {
            touches: 0,
            slots: HashSet::with_capacity(s as usize),
        })
    }

    /// A retry plan: nonempty, reads only, and every touch consumes one
    /// allowance a `Retried` fault event minted ([`Rule::RetryMismatch`]
    /// otherwise).
    fn check_retry(&mut self, plan: &AccessPlan) {
        for touch in &plan.touches {
            if touch.write {
                self.violate(
                    Rule::PlanShape,
                    format!(
                        "retry plan wrote bucket {} slot {} (retries only read)",
                        touch.bucket.0, touch.slot
                    ),
                );
                continue;
            }
            let allowed = self
                .retry_allowances
                .get_mut(&(touch.bucket, touch.slot))
                .filter(|n| **n > 0)
                .map(|n| *n -= 1)
                .is_some();
            if !allowed {
                self.violate(
                    Rule::RetryMismatch,
                    format!(
                        "retry-read of bucket {} slot {} without a matching retried \
                         fault event",
                        touch.bucket.0, touch.slot
                    ),
                );
            }
        }
        if plan.touches.is_empty() {
            self.violate(
                Rule::PlanShape,
                "empty retry plan (a retry must re-read at least one slot)".to_string(),
            );
        }
    }

    /// Ends a batch: every `Retried` fault event must have produced exactly
    /// one retry-read touch in it ([`Rule::RetryMismatch`] otherwise).
    fn reconcile_retries(&mut self) {
        for ((bucket, slot), n) in std::mem::take(&mut self.retry_allowances) {
            if n > 0 {
                self.violate(
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

    /// Records the stash occupancy sampled after an access completed: it
    /// must be within the configured bound ([`Rule::StashBound`]).
    pub fn observe_stash(&mut self, stash_len: usize) {
        let bound = self.config.stash_capacity;
        if stash_len > bound {
            self.violate(
                Rule::StashBound,
                format!("stash held {stash_len} blocks, bound {bound}"),
            );
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use ring_oram::{ObliviousProtocol, Op, RingOram, SlotTouch};

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
        for (name, kind, config) in [
            ("plain", ProtocolKind::Ring, RingConfig::test_small()),
            ("compact-bucket", ProtocolKind::RingCb, small_cb()),
        ] {
            let mut oram = RingOram::new(config.clone(), 7);
            let mut auditor = ProtocolAuditor::new(kind, config.clone());
            let blocks = config.real_capacity_blocks() / 2;
            let mut rng = oram_rng::StdRng::seed_from_u64(11);
            use oram_rng::Rng;
            for i in 0..600u64 {
                let block = ring_oram::BlockId(rng.gen_range(0..blocks.max(1)));
                let payload = vec![i as u8; config.block_bytes as usize];
                let op = if i % 3 == 0 {
                    Op::Write(&payload)
                } else {
                    Op::Read
                };
                let outcome = oram.operate(block, op).0;
                auditor.observe_access(&outcome.plans);
                auditor.observe_stash(oram.stash_len());
            }
            assert!(
                auditor.is_clean(),
                "{name}: {:?}",
                auditor.violations().first()
            );
            assert_eq!(auditor.accesses, 600);
        }
    }

    #[test]
    fn slot_out_of_range_detected() {
        let config = small_cb();
        let mut auditor = ProtocolAuditor::new(ProtocolKind::RingCb, config.clone());
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
        let mut auditor = ProtocolAuditor::new(ProtocolKind::RingCb, config.clone());
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
        let mut auditor = ProtocolAuditor::new(ProtocolKind::RingCb, config.clone());
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
        let mut auditor = ProtocolAuditor::new(ProtocolKind::RingCb, config.clone());
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
        let mut auditor = ProtocolAuditor::new(ProtocolKind::RingCb, config.clone());
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
        let mut auditor = ProtocolAuditor::new(ProtocolKind::RingCb, config.clone());
        let blocks = config.real_capacity_blocks() / 2;
        let mut rng = oram_rng::StdRng::seed_from_u64(11);
        use oram_rng::Rng;
        for i in 0..600u64 {
            let block = ring_oram::BlockId(rng.gen_range(0..blocks.max(1)));
            let payload = vec![i as u8; config.block_bytes as usize];
            let op = if i % 3 == 0 {
                Op::Write(&payload)
            } else {
                Op::Read
            };
            let outcome = oram.operate(block, op).0;
            auditor.observe_faults(&oram.take_fault_events());
            auditor.observe_access(&outcome.plans);
            auditor.observe_stash(oram.stash_len());
        }
        assert!(auditor.is_clean(), "{:?}", auditor.violations().first());
        assert!(auditor.faults_seen > 0, "faults must have fired");
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
        let mut auditor = ProtocolAuditor::new(ProtocolKind::RingCb, config);
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
        let mut auditor = ProtocolAuditor::new(ProtocolKind::RingCb, config);
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
        let mut auditor = ProtocolAuditor::new(ProtocolKind::RingCb, config);
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
        let mut auditor = ProtocolAuditor::new(ProtocolKind::RingCb, config.clone());
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

    /// A Path batch whose retry no `Retried` fault event authorized is a
    /// retry mismatch, not a plan of the wrong shape.
    #[test]
    fn path_retry_without_fault_event_flagged() {
        let config = z_slot_config();
        let mut auditor = ProtocolAuditor::new(ProtocolKind::Path, config.clone());
        let mut oram = ring_oram::PathOram::from_ring(config, 3);
        let mut outcome = oram.access(ring_oram::BlockId(1));
        let touch = outcome.plans[0].touches[0];
        outcome.plans.push(AccessPlan::new(
            OpKind::RetryRead,
            vec![SlotTouch::read(touch.bucket, touch.slot)],
            None,
        ));
        auditor.observe_faults(&[]);
        auditor.observe_access(&outcome.plans);
        let rules: Vec<Rule> = auditor.violations().iter().map(|v| v.rule).collect();
        assert_eq!(rules, [Rule::RetryMismatch]);
    }

    #[test]
    fn malformed_plan_shape_detected() {
        let config = small_cb();
        let mut auditor = ProtocolAuditor::new(ProtocolKind::RingCb, config);
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
        let mut auditor = ProtocolAuditor::new(ProtocolKind::Path, config);
        for i in 0..600u64 {
            let outcome = oram.access(ring_oram::BlockId(i % 40));
            auditor.observe_access(&outcome.plans);
            auditor.observe_stash(oram.stash_len());
            oram.recycle_outcome(outcome);
        }
        assert!(auditor.is_clean(), "{:?}", auditor.violations().first());
        assert_eq!(auditor.accesses, 600);
    }

    /// The Circuit auditor must accept everything the real engine emits.
    #[test]
    fn real_circuit_stream_is_clean() {
        use ring_oram::CircuitOram;
        let config = z_slot_config();
        let mut oram = CircuitOram::new(config.clone(), 7);
        let mut auditor = ProtocolAuditor::new(ProtocolKind::Circuit, config);
        for i in 0..600u64 {
            let outcome = oram.access(ring_oram::BlockId(i % 40));
            auditor.observe_access(&outcome.plans);
            auditor.observe_stash(oram.stash_len());
            oram.recycle_outcome(outcome);
        }
        assert!(auditor.is_clean(), "{:?}", auditor.violations().first());
        assert_eq!(auditor.accesses, 600);
    }

    #[test]
    fn path_auditor_rejects_wrong_plan_count_and_shape() {
        let config = z_slot_config();
        let mut auditor = ProtocolAuditor::new(ProtocolKind::Path, config.clone());
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
        let mut auditor = ProtocolAuditor::new(ProtocolKind::Path, config.clone());
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
        let mut auditor = ProtocolAuditor::new(ProtocolKind::Circuit, config.clone());
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
        let mut auditor = ProtocolAuditor::new(ProtocolKind::Path, config.clone());
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
        let mut path = ProtocolAuditor::new(ProtocolKind::Path, z_slot_config());
        let mut circuit = ProtocolAuditor::new(ProtocolKind::Circuit, z_slot_config());
        let mut oram = ring_oram::PathOram::from_ring(z_slot_config(), 9);
        for i in 0..50u64 {
            let outcome = oram.access(ring_oram::BlockId(i % 10));
            path.observe_faults(&[]);
            path.observe_access(&outcome.plans);
            path.observe_stash(oram.stash_len());
            // Same tree, different row: a Path batch is not Circuit's.
            circuit.observe_access(&outcome.plans);
            oram.recycle_outcome(outcome);
        }
        assert!(path.is_clean(), "{:?}", path.violations().first());
        assert_eq!(circuit.violations().len(), 50);
        assert_eq!(path.accesses, 50);
        assert!(path.take_violations().is_empty());
    }

    /// Authorizes one retry-read of `(bucket, slot)` in `auditor`.
    fn authorize_retry(auditor: &mut ProtocolAuditor, bucket: BucketId, slot: u32) {
        auditor.observe_faults(&[FaultEvent {
            access: 1,
            bucket,
            slot,
            kind: FaultEventKind::Retried,
        }]);
    }

    /// `kind`'s engine over `small_cb()`'s tree, its auditor, and the plans
    /// of one access with a retry of `(first read bucket, slot_of(config))`
    /// inserted directly after the read path, authorized by the fault log.
    fn batch_with_an_authorized_retry(
        kind: ProtocolKind,
        slot_of: impl Fn(&RingConfig) -> u32,
    ) -> (ProtocolAuditor, Vec<AccessPlan>) {
        let config = kind.engine_config(&small_cb());
        let mut oram = kind.engine(&small_cb(), 3, 0.0);
        let mut auditor = ProtocolAuditor::new(kind, config.clone());
        let mut plans = oram.access(ring_oram::BlockId(1)).plans;
        let at = plans
            .iter()
            .position(|p| p.kind == OpKind::ReadPath)
            .unwrap();
        let (bucket, slot) = (plans[at].touches[0].bucket, slot_of(&config));
        let retry = AccessPlan::new(OpKind::RetryRead, vec![SlotTouch::read(bucket, slot)], None);
        plans.insert(at + 1, retry);
        authorize_retry(&mut auditor, bucket, slot);
        (auditor, plans)
    }

    fn rules(auditor: &ProtocolAuditor) -> Vec<Rule> {
        auditor.violations().iter().map(|v| v.rule).collect()
    }

    /// Every touch of every plan is range-checked, retries included, on
    /// every protocol.
    #[test]
    fn retry_touch_past_the_bucket_is_out_of_range() {
        for kind in ProtocolKind::ALL {
            let (mut auditor, plans) = batch_with_an_authorized_retry(kind, |c| c.bucket_slots());
            auditor.observe_access(&plans);
            assert_eq!(rules(&auditor), [Rule::SlotRange], "{kind}");
        }
    }

    /// A batch that does not match its row is one finding: the authorized
    /// retry in it is still consumed, not reported as a mismatch.
    #[test]
    fn malformed_batch_with_an_authorized_retry_is_one_finding() {
        let (mut auditor, mut plans) = batch_with_an_authorized_retry(ProtocolKind::Circuit, |_| 0);
        let eviction = plans.iter().rposition(|p| p.kind == OpKind::Eviction);
        plans.remove(eviction.unwrap());
        auditor.observe_access(&plans);
        assert_eq!(rules(&auditor), [Rule::PlanShape]);
    }

    /// Ring's rewrites are held to reads-before-writes like every other
    /// protocol's.
    #[test]
    fn ring_rewrite_with_a_read_after_a_write_is_rejected() {
        let config = small_cb();
        let mut auditor = ProtocolAuditor::new(ProtocolKind::RingCb, config.clone());
        let bucket = BucketId(0);
        let mut touches: Vec<SlotTouch> =
            (1..config.z).map(|s| SlotTouch::read(bucket, s)).collect();
        touches.extend((0..config.bucket_slots()).map(|s| SlotTouch::write(bucket, s)));
        touches.push(SlotTouch::read(bucket, 0));
        auditor.observe_access(&[AccessPlan::new(OpKind::EarlyReshuffle, touches, None)]);
        assert_eq!(rules(&auditor), [Rule::PlanShape]);
    }
}
