//! Stage 1 — **Plan**: expand core LLC misses into ORAM transactions.
//!
//! The planner owns one stack of ORAM tiers, each an engine of the selected
//! protocol with its tree layout and memory region: the data ORAM, then one
//! tier per level of a recursive position map (none by default). Each
//! [`CoreRequest`] becomes a sequence of [`PlannedTxn`]s: every tier's slot
//! touches lowered to physical addresses, annotated with which request (if
//! any) carries the waiting core's data.
//!
//! The planner also folds every planned request into a running FNV-1a
//! **access digest**. The digest covers exactly what an adversary on the
//! memory bus observes — transaction kinds, physical addresses and
//! directions, in order — and none of what they don't (timing). Two
//! backends driving the same trace must therefore produce identical
//! digests; the `backend_differential` test pins this.

use dram_sim::PhysAddr;
use oram_rng::{fnv1a_bytes, fnv1a_u64, FNV_OFFSET};
use ring_oram::layout::TreeLayout;
use ring_oram::{AccessPlan, BlockId, ObliviousProtocol, OpKind, ResilienceConfig, RingConfig};

use crate::config::{ConfigError, SystemConfig};
use crate::cpu::CoreRequest;
use crate::pipeline::conformance::Conformance;

/// One ORAM transaction, lowered and ready for admission: physical
/// requests in issue order plus the core-wakeup annotations.
#[derive(Debug, Clone)]
pub struct PlannedTxn {
    /// The operation kind (read path, eviction, ...).
    pub kind: OpKind,
    /// Physical requests `(address, is_write)` in issue order.
    pub requests: Vec<(PhysAddr, bool)>,
    /// Index into `requests` of the target fetch the program waits on,
    /// when this transaction serves a program read from the tree.
    pub target_index: Option<usize>,
    /// Core whose LLC miss this transaction serves, if any.
    pub waiting_core: Option<usize>,
    /// Whether the waiting core is released at transaction completion
    /// rather than at the target fetch (stash / tree-top / first-touch
    /// hits: the data never travels on the bus).
    pub release_on_completion: bool,
}

/// One ORAM of the planner's stack: its engine and the memory region its
/// tree is lowered into.
#[derive(Debug)]
struct Tier {
    oram: Box<dyn ObliviousProtocol>,
    layout: TreeLayout,
    base: u64,
}

/// The planning stage: the ORAM stack + layout lowering + access digest.
#[derive(Debug)]
pub struct Planner {
    /// Tier 0 is the data ORAM; tier `i + 1` stores tier `i`'s position
    /// map. Exactly one tier when `cfg.recursion` is `None`.
    tiers: Vec<Tier>,
    /// Position-map entries per map block: tier `i` is asked for block
    /// `block / positions_per_block^i`.
    positions_per_block: u64,
    accesses: u64,
    cover_accesses: u64,
    digest: u64,
    /// Pool of request buffers for [`PlannedTxn`]s. Buffers flow out with
    /// the planned transactions and return via [`Self::recycle_requests`]
    /// once the tracker has admitted them, so steady-state planning
    /// allocates nothing.
    req_pool: Vec<Vec<(PhysAddr, bool)>>,
}

impl Planner {
    /// Builds the planner for `cfg`: one engine of `cfg.protocol` for the
    /// data ORAM and one per level of `cfg.recursion` (with
    /// encryption/resilience when faults are configured), each lowered
    /// into its own row-set-aligned memory region.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Invalid`] when the stack does not fit the DRAM module
    /// (`cfg` itself is assumed pre-validated).
    pub fn build(cfg: &SystemConfig) -> Result<Self, ConfigError> {
        let tiers = cfg
            .tiers()?
            .into_iter()
            .enumerate()
            .map(|(i, (ring, layout, base))| Tier {
                oram: engine(cfg, ring, i as u64),
                layout,
                base,
            })
            .collect();
        Ok(Self {
            tiers,
            positions_per_block: cfg
                .recursion
                .map_or(1, |r| u64::from(r.positions_per_block)),
            accesses: 0,
            cover_accesses: 0,
            digest: FNV_OFFSET,
            req_pool: Vec::new(),
        })
    }

    /// The data protocol engine (tier 0), for inspection in tests and
    /// harnesses.
    #[must_use]
    pub fn protocol(&self) -> &dyn ObliviousProtocol {
        self.tiers[0].oram.as_ref()
    }

    /// Every tier's engine, data ORAM first.
    pub(crate) fn tiers(&self) -> impl ExactSizeIterator<Item = &dyn ObliviousProtocol> + '_ {
        self.tiers.iter().map(|t| t.oram.as_ref())
    }

    /// Program accesses planned so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Cover (padding) accesses planned so far via
    /// [`Self::plan_cover_into`]. Not counted in [`Self::accesses`]: cover
    /// traffic serves no program request.
    #[must_use]
    pub fn cover_accesses(&self) -> u64 {
        self.cover_accesses
    }

    /// FNV-1a digest of every planned transaction so far: kinds, physical
    /// addresses and directions, in order (the bus-observable sequence).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Expands one core request into lowered transactions, appended to a
    /// caller-provided (reusable) buffer: one access per tier, the
    /// position-map tiers first, and only the data ORAM's wake plan carries
    /// the core's wakeup. Outcome buffers are recycled into their tiers and
    /// request buffers come from [`Self::recycle_requests`]'s pool, so a
    /// warm planner performs no heap allocation per access.
    pub fn plan_into(
        &mut self,
        req: &CoreRequest,
        conformance: &mut Conformance,
        out: &mut Vec<PlannedTxn>,
    ) {
        self.accesses += 1;
        self.mix(req.block);
        self.walk(Some(req), conformance, out);
    }

    /// Expands one **cover access** (protocol-level padding that serves no
    /// program request) into lowered transactions, exactly as
    /// [`Self::plan_into`] does for program accesses: a cover access on
    /// every tier, whose plans flow through conformance checking and the
    /// access digest, so padded and unpadded runs stay auditable by the
    /// same machinery. The digest mixes the sentinel block id `u64::MAX`
    /// (outside the addressable space) where a program access mixes its
    /// block. Every protocol has cover accesses: always `true`.
    pub fn plan_cover_into(
        &mut self,
        conformance: &mut Conformance,
        out: &mut Vec<PlannedTxn>,
    ) -> bool {
        self.cover_accesses += 1;
        self.mix(u64::MAX);
        self.walk(None, conformance, out);
        true
    }

    /// The one tier walk, innermost tier first: `Some(req)` is a program
    /// access (tier `i` reads `req.block / positions_per_block^i`), `None`
    /// a cover access on every tier. Every tier's fault log is drained (it
    /// bounds protocol-side memory) and every outcome lowered into `out`
    /// and recycled into its tier. Tier 0's faults, plans and stash go to
    /// conformance — the map tiers run the same protocol on their own
    /// configs — and only its wake plan carries the core. In a checked run
    /// tier 0 performs the request's operation through the value referee;
    /// otherwise every request is a read.
    #[allow(clippy::expect_used)] // invariant, stated in the expect message
    fn walk(
        &mut self,
        req: Option<&CoreRequest>,
        conformance: &mut Conformance,
        out: &mut Vec<PlannedTxn>,
    ) {
        for (i, tier) in self.tiers.iter_mut().enumerate().rev() {
            let outcome = match req {
                Some(req) => {
                    let divisor = self.positions_per_block.saturating_pow(i as u32);
                    let block = BlockId(req.block / divisor);
                    match conformance.mirror_mut().filter(|_| i == 0) {
                        Some(mirror) => {
                            mirror.apply(tier.oram.as_mut(), block, req.is_write, self.accesses)
                        }
                        None => tier.oram.access(block),
                    }
                }
                None => tier
                    .oram
                    .cover_access()
                    .expect("every engine has cover accesses"),
            };
            let faults = tier.oram.take_fault_events();
            let mut wake_at = None;
            if i == 0 {
                // Faults are replayed before the plans, so retry allowances
                // exist when the plans are checked.
                conformance.observe_faults(&faults);
                conformance.observe_access(&outcome.plans);
                conformance.observe_stash(tier.oram.stash_len());
                // The core's data arrives with the last plan carrying a
                // target touch: a corrupted target fetch is only whole
                // after its retry.
                wake_at = req.and(outcome.wake_plan_index());
            }
            let tree = outcome.served_from_tree();
            for (j, plan) in outcome.plans.iter().enumerate() {
                let waiting = req.filter(|_| wake_at == Some(j)).map(|r| (r.core, tree));
                let buf = self.req_pool.pop().unwrap_or_default();
                out.push(lower(&mut self.digest, plan, tier, waiting, buf));
            }
            tier.oram.recycle_outcome(outcome);
        }
    }

    /// Returns a lowered transaction's request buffer to the planner's
    /// pool. The tracker hands buffers back right after admission (it
    /// copies the requests into its own fixed queues), closing the
    /// allocation loop on the hot path.
    pub fn recycle_requests(&mut self, mut buf: Vec<(PhysAddr, bool)>) {
        buf.clear();
        self.req_pool.push(buf);
    }

    /// Pre-sizes every tier's protocol bookkeeping for `n` further
    /// program accesses.
    pub fn reserve_accesses(&mut self, n: usize) {
        for tier in &mut self.tiers {
            tier.oram.reserve_accesses(n);
        }
    }

    fn mix(&mut self, v: u64) {
        self.digest = fnv1a_u64(self.digest, v);
    }
}

/// The engine of tier `i`: `cfg.protocol` on `ring`, Ring pre-loaded at
/// `cfg.load_factor` and, when faults are configured, with the
/// authenticated cipher and the retry layer in the loop. Tier `i` draws
/// from seeds `^ i`, so the data ORAM keeps `cfg`'s and every map tier
/// gets its own protocol and fault streams.
fn engine(cfg: &SystemConfig, ring: RingConfig, i: u64) -> Box<dyn ObliviousProtocol> {
    let seed = cfg.seed ^ i;
    let mut oram = cfg.protocol.engine(&ring, seed, cfg.load_factor);
    if let Some(f) = &cfg.faults {
        oram.enable_encryption(seed ^ 0xC1F3);
        oram.enable_resilience(ResilienceConfig {
            fault_seed: f.resilience.fault_seed ^ i,
            ..f.resilience
        });
    }
    oram
}

/// Lowers one protocol plan: converts slot touches to physical requests in
/// the tier's memory region and resolves the core-wakeup annotations.
/// `waiting` is `(core, served_from_tree)` when this plan may carry the
/// program's data.
fn lower(
    digest: &mut u64,
    plan: &AccessPlan,
    tier: &Tier,
    waiting: Option<(usize, bool)>,
    mut requests: Vec<(PhysAddr, bool)>,
) -> PlannedTxn {
    let (waiting_core, release_on_completion) = match waiting {
        Some((core, served_from_tree))
            if matches!(plan.kind, OpKind::ReadPath | OpKind::RetryRead) =>
        {
            (
                Some(core),
                !(served_from_tree && plan.target_index.is_some()),
            )
        }
        _ => (None, false),
    };
    requests.clear();
    requests.extend(plan.touches.iter().map(|t| {
        (
            PhysAddr(tier.base + tier.layout.addr_of(t.bucket, t.slot)),
            t.write,
        )
    }));
    let target_index = if waiting_core.is_some() {
        plan.target_index
    } else {
        None
    };
    let mut h = fnv1a_bytes(*digest, plan.kind.label().as_bytes());
    h = fnv1a_u64(h, target_index.map_or(u64::MAX, |i| i as u64));
    for &(addr, is_write) in &requests {
        h = fnv1a_bytes(fnv1a_u64(h, addr.0), &[u8::from(is_write)]);
    }
    *digest = h;
    PlannedTxn {
        kind: plan.kind,
        requests,
        target_index,
        waiting_core,
        release_on_completion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Scheme, VerifyConfig};
    use ring_oram::{ProtocolKind, RecursiveConfig};

    fn planner_pair_for(cfg: &SystemConfig) -> (Planner, Conformance) {
        let conf = Conformance::new(
            &cfg.verify,
            cfg.protocol,
            &cfg.effective_ring(),
            &cfg.geometry,
            &cfg.timing,
            true,
            cfg.sched_policy.name(),
        );
        (Planner::build(cfg).unwrap(), conf)
    }

    fn planner_pair() -> (Planner, Conformance) {
        let mut cfg = SystemConfig::test_small(Scheme::All);
        cfg.verify = VerifyConfig::off();
        planner_pair_for(&cfg)
    }

    /// The Ring+CB stack of `RecursiveConfig::test_small`: three map tiers.
    fn recursive_cfg(protocol: ProtocolKind) -> SystemConfig {
        let mut cfg = SystemConfig::test_small(Scheme::All);
        cfg.protocol = protocol;
        cfg.recursion = Some(RecursiveConfig::test_small());
        cfg
    }

    fn plan(p: &mut Planner, conf: &mut Conformance, core: usize, block: u64) -> Vec<PlannedTxn> {
        let mut out = Vec::new();
        let req = CoreRequest {
            core,
            block,
            is_write: false,
        };
        p.plan_into(&req, conf, &mut out);
        out
    }

    /// The tier whose memory region holds every request of `txn`.
    fn tier_of(p: &Planner, txn: &PlannedTxn) -> usize {
        let region =
            |t: &Tier, addr: u64| (t.base..t.base + t.layout.total_bytes()).contains(&addr);
        let tier = p
            .tiers
            .iter()
            .position(|t| region(t, txn.requests[0].0 .0))
            .expect("a request outside every tier");
        assert!(txn.requests.iter().all(|r| region(&p.tiers[tier], r.0 .0)));
        tier
    }

    #[test]
    fn digest_is_deterministic_and_order_sensitive() {
        let (mut a, mut ca) = planner_pair();
        let (mut b, mut cb) = planner_pair();
        for blk in [3u64, 9, 3, 27] {
            plan(&mut a, &mut ca, 0, blk);
            plan(&mut b, &mut cb, 0, blk);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.accesses(), 4);

        let (mut c, mut cc) = planner_pair();
        for blk in [9u64, 3, 3, 27] {
            plan(&mut c, &mut cc, 0, blk);
        }
        assert_ne!(a.digest(), c.digest(), "order must matter");
    }

    #[test]
    fn cover_accesses_lower_and_digest_without_wakeups() {
        let (mut p, mut conf) = planner_pair();
        let before = p.digest();
        let mut out = Vec::new();
        assert!(p.plan_cover_into(&mut conf, &mut out));
        assert!(!out.is_empty());
        assert!(out.iter().all(|t| t.waiting_core.is_none()));
        assert!(out.iter().all(|t| t.target_index.is_none()));
        assert_eq!(p.cover_accesses(), 1);
        assert_eq!(p.accesses(), 0, "cover traffic is not a program access");
        assert_ne!(p.digest(), before, "cover plans are digest-visible");
        assert!(conf.violations().is_empty());
    }

    #[test]
    fn program_read_carries_exactly_one_wakeup() {
        for cfg in [
            SystemConfig::test_small(Scheme::All),
            recursive_cfg(ProtocolKind::RingCb),
        ] {
            let (mut p, mut conf) = planner_pair_for(&cfg);
            let planned = plan(&mut p, &mut conf, 1, 42);
            let waits: Vec<_> = planned
                .iter()
                .filter(|t| t.waiting_core.is_some())
                .collect();
            assert_eq!(waits.len(), 1);
            assert_eq!(waits[0].waiting_core, Some(1));
            assert!(matches!(
                waits[0].kind,
                OpKind::ReadPath | OpKind::RetryRead
            ));
            assert_eq!(
                tier_of(&p, waits[0]),
                0,
                "only the data ORAM wakes the core"
            );
        }
    }

    #[test]
    fn access_walks_the_whole_stack_in_order() {
        for protocol in ProtocolKind::ALL {
            let (mut p, mut conf) = planner_pair_for(&recursive_cfg(protocol));
            assert_eq!(p.tiers().len(), 4);
            let reads: Vec<usize> = plan(&mut p, &mut conf, 0, 123)
                .iter()
                .filter(|t| t.kind == OpKind::ReadPath)
                .map(|t| tier_of(&p, t))
                .collect();
            assert_eq!(
                reads,
                [3, 2, 1, 0],
                "{protocol}: innermost map first, data last"
            );
            assert!(
                conf.violations().is_empty(),
                "{protocol}: {:?}",
                conf.violations()
            );
        }
    }

    #[test]
    fn a_cover_access_is_one_dummy_read_path_per_tier() {
        for protocol in ProtocolKind::ALL {
            let (mut p, mut conf) = planner_pair_for(&recursive_cfg(protocol));
            let mut out = Vec::new();
            assert!(p.plan_cover_into(&mut conf, &mut out));
            let reads: Vec<usize> = out
                .iter()
                .filter(|t| t.kind == OpKind::DummyReadPath)
                .map(|t| tier_of(&p, t))
                .collect();
            assert_eq!(reads, [3, 2, 1, 0], "{protocol}");
            // Circuit's cover carries its evictions; Ring's first cover
            // falls short of `A` reads.
            assert!(
                out.iter()
                    .all(|t| matches!(t.kind, OpKind::DummyReadPath | OpKind::Eviction)),
                "{protocol}"
            );
            assert!(p.tiers().all(|t| t.stats().dummy_read_paths == 1));
            assert_eq!(p.cover_accesses(), 1);
            assert!(
                conf.violations().is_empty(),
                "{protocol}: {:?}",
                conf.violations()
            );
        }
    }

    #[test]
    fn map_block_indices_shrink() {
        let mut cfg = recursive_cfg(ProtocolKind::RingCb); // ppb = 4
        cfg.load_factor = 0.0;
        let (mut p, mut conf) = planner_pair_for(&cfg);
        plan(&mut p, &mut conf, 0, 500);
        for (i, tier) in p.tiers().enumerate() {
            let entries = tier.position_entries();
            assert_eq!(entries.len(), 1, "tier {i}");
            assert_eq!(entries[0].0, BlockId(500 / 4u64.pow(i as u32)), "tier {i}");
        }
    }

    #[test]
    fn recursion_multiplies_bandwidth() {
        let requests = |cfg: &SystemConfig| {
            let (mut p, mut conf) = planner_pair_for(cfg);
            (0..50)
                .flat_map(|i| plan(&mut p, &mut conf, 0, i * 37 % 512))
                .map(|t| t.requests.len())
                .sum::<usize>()
        };
        let flat = requests(&SystemConfig::test_small(Scheme::All));
        let rec = requests(&recursive_cfg(ProtocolKind::RingCb));
        assert!(rec > flat, "recursion must add traffic: {rec} vs {flat}");
    }

    #[test]
    fn reserve_accesses_reaches_every_tier() {
        let (mut p, _) = planner_pair_for(&recursive_cfg(ProtocolKind::RingCb));
        p.reserve_accesses(1000);
        assert!(p
            .tiers()
            .all(|t| t.stats().stash_samples.capacity() >= 1000));
    }

    #[test]
    fn invariants_hold_across_the_stack() {
        for protocol in ProtocolKind::ALL {
            let (mut p, mut conf) = planner_pair_for(&recursive_cfg(protocol));
            let mut out = Vec::new();
            for i in 0..150 {
                plan(&mut p, &mut conf, 0, i % 200);
                p.plan_cover_into(&mut conf, &mut out);
            }
            for tier in p.tiers() {
                tier.check_invariants();
            }
            assert!(
                conf.violations().is_empty(),
                "{protocol}: {:?}",
                conf.violations()
            );
        }
    }
}
