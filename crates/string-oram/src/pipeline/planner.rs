//! Stage 1 — **Plan**: expand core LLC misses into ORAM transactions.
//!
//! The planner owns the protocol engine (a single data ORAM, or a
//! recursive stack with per-ORAM memory regions) and the tree layout(s).
//! Each [`CoreRequest`] becomes a sequence of [`PlannedTxn`]s: the
//! protocol's slot touches lowered to physical addresses, annotated with
//! which request (if any) carries the waiting core's data.
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
use ring_oram::recursive::{RecursiveConfig, RecursiveOram};
use ring_oram::{
    AccessPlan, BlockId, CircuitOram, ObliviousProtocol, OpKind, PathOram, ProtocolKind, RingOram,
};

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

/// The protocol engine driving the simulation: a single data ORAM behind
/// the [`ObliviousProtocol`] trait (any of the four protocol design
/// points) or a recursive Ring stack with per-ORAM memory regions.
#[derive(Debug)]
enum Engine {
    Flat {
        oram: Box<dyn ObliviousProtocol>,
        layout: TreeLayout,
    },
    Recursive {
        stack: Box<RecursiveOram>,
        /// Per-stack-index layout and base address (disjoint regions).
        regions: Vec<(TreeLayout, u64)>,
    },
}

/// The planning stage: protocol engine + layout lowering + access digest.
#[derive(Debug)]
pub struct Planner {
    engine: Engine,
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
    /// Builds the planner for `cfg`: constructs the protocol engine (with
    /// encryption/resilience when faults are configured) and, under
    /// recursion, allocates disjoint row-set-aligned memory regions for
    /// every ORAM in the stack.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Invalid`] when the recursive stack does not fit the
    /// DRAM module (`cfg` itself is assumed pre-validated).
    pub fn build(cfg: &SystemConfig) -> Result<Self, ConfigError> {
        // Every engine runs on the protocol's *effective* ring parameters
        // (`ring == cfg.ring` for the paper's Ring+CB design point, so the
        // existing pipeline is bit-identical).
        let ring = cfg.effective_ring();
        let engine = match cfg.recursion {
            None => {
                let oram: Box<dyn ObliviousProtocol> = match cfg.protocol {
                    ProtocolKind::RingCb | ProtocolKind::Ring => {
                        let mut oram = Box::new(RingOram::with_load_factor(
                            ring.clone(),
                            cfg.seed,
                            cfg.load_factor,
                        ));
                        if let Some(f) = &cfg.faults {
                            // Integrity-fault detection needs the
                            // authenticated cipher in the loop.
                            oram.enable_encryption(cfg.seed ^ 0xC1F3);
                            oram.enable_resilience(f.resilience);
                        }
                        oram
                    }
                    ProtocolKind::Path => Box::new(PathOram::from_ring(ring.clone(), cfg.seed)),
                    ProtocolKind::Circuit => Box::new(CircuitOram::new(ring.clone(), cfg.seed)),
                };
                Engine::Flat {
                    oram,
                    layout: cfg.tree_layout(&ring),
                }
            }
            Some(r) => {
                let rec_cfg = RecursiveConfig {
                    data: ring.clone(),
                    tracked_blocks: r.tracked_blocks,
                    positions_per_block: r.positions_per_block,
                    max_onchip_entries: r.max_onchip_entries,
                };
                let stack = Box::new(RecursiveOram::new(rec_cfg.clone(), cfg.seed));
                // Allocate disjoint, row-set-aligned regions: data ORAM at
                // 0, each map ORAM after the previous region.
                let map_rings = (0..rec_cfg.map_levels()).map(|i| rec_cfg.map_config(i));
                let mut regions = Vec::new();
                let align = cfg.row_set_bytes();
                let mut base = 0u64;
                for ring in std::iter::once(ring).chain(map_rings) {
                    let layout = cfg.tree_layout(&ring);
                    let total = layout.total_bytes().div_ceil(align) * align;
                    regions.push((layout, base));
                    base += total;
                }
                if base > cfg.geometry.capacity_bytes() {
                    return Err(ConfigError::Invalid(format!(
                        "recursive ORAM stack ({base} B) exceeds DRAM capacity"
                    )));
                }
                Engine::Recursive { stack, regions }
            }
        };
        Ok(Self {
            engine,
            accesses: 0,
            cover_accesses: 0,
            digest: FNV_OFFSET,
            req_pool: Vec::new(),
        })
    }

    /// The (data) protocol engine, for inspection in tests and harnesses.
    #[must_use]
    pub fn protocol(&self) -> &dyn ObliviousProtocol {
        match &self.engine {
            Engine::Flat { oram, .. } => oram.as_ref(),
            Engine::Recursive { stack, .. } => stack.oram(0),
        }
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

    /// Expands one core request into lowered transactions. Under recursion
    /// the position-map ORAM accesses precede the data access; only the
    /// data ORAM's read path carries the core's wakeup.
    pub fn plan(&mut self, req: &CoreRequest, conformance: &mut Conformance) -> Vec<PlannedTxn> {
        let mut out = Vec::new();
        self.plan_into(req, conformance, &mut out);
        out
    }

    /// Allocation-free form of [`Self::plan`]: appends the lowered
    /// transactions to a caller-provided (reusable) buffer. The protocol
    /// outcome's buffers are recycled back into the engine's pools and the
    /// request buffers come from [`Self::recycle_requests`]'s pool, so a
    /// warm planner performs no heap allocation per access on the flat
    /// (non-recursive) engine.
    pub fn plan_into(
        &mut self,
        req: &CoreRequest,
        conformance: &mut Conformance,
        out: &mut Vec<PlannedTxn>,
    ) {
        self.accesses += 1;
        self.mix(req.block);
        let Engine::Recursive { stack, regions } = &mut self.engine else {
            let access = |oram: &mut dyn ObliviousProtocol| Some(oram.access(BlockId(req.block)));
            self.lower_flat(Some(req.core), conformance, out, access);
            return;
        };
        let steps = stack.access(BlockId(req.block));
        let stash_len = stack.oram(0).stash_len();
        for step in &steps {
            let waiting =
                (step.oram_index == 0).then(|| (req.core, step.outcome.served_from_tree()));
            // Only the data ORAM (index 0) is audited; the map ORAMs run
            // the same protocol with their own configs.
            if step.oram_index == 0 {
                conformance.observe_access(&step.outcome.plans);
            }
            let (layout, base) = &regions[step.oram_index];
            for plan in &step.outcome.plans {
                let buf = self.req_pool.pop().unwrap_or_default();
                out.push(lower(&mut self.digest, plan, layout, *base, waiting, buf));
            }
        }
        conformance.observe_stash(stash_len);
    }

    /// Expands one **cover access** (protocol-level padding that serves no
    /// program request) into lowered transactions, exactly as
    /// [`Self::plan_into`] does for program accesses: the plans flow
    /// through conformance checking and the access digest, so padded and
    /// unpadded runs stay auditable by the same machinery. The digest mixes
    /// the sentinel block id `u64::MAX` (outside the addressable space)
    /// where a program access mixes its block.
    ///
    /// Returns `false` — planning nothing — when the engine has no native
    /// dummy-access mechanism (non-Ring protocols, recursive stacks);
    /// callers must then reject padded submission modes up front.
    pub fn plan_cover_into(
        &mut self,
        conformance: &mut Conformance,
        out: &mut Vec<PlannedTxn>,
    ) -> bool {
        self.lower_flat(None, conformance, out, |oram| oram.cover_access())
    }

    /// Runs `access` on the flat engine and lowers its outcome into `out`:
    /// faults, plans and stash to conformance, plans into the digest, the
    /// buffers back to the engine. `core` waits on a program access; `None`
    /// is a cover access. `false` (nothing lowered) on a recursive engine or
    /// when `access` plans nothing.
    fn lower_flat(
        &mut self,
        core: Option<usize>,
        conformance: &mut Conformance,
        out: &mut Vec<PlannedTxn>,
        access: impl FnOnce(&mut dyn ObliviousProtocol) -> Option<ring_oram::AccessOutcome>,
    ) -> bool {
        let Engine::Flat { oram, layout } = &mut self.engine else {
            return false;
        };
        let Some(outcome) = access(oram.as_mut()) else {
            return false;
        };
        if core.is_none() {
            self.cover_accesses += 1;
            self.digest = fnv1a_u64(self.digest, u64::MAX);
        }
        // The fault log is drained unconditionally (it bounds protocol-side
        // memory) and replayed before the plans, so retry allowances exist
        // when the plans are checked.
        conformance.observe_faults(&oram.take_fault_events());
        conformance.observe_access(&outcome.plans);
        conformance.observe_stash(oram.stash_len());
        // The core's data arrives with the last plan carrying a target
        // touch: a corrupted target fetch is only whole after its retry.
        let wake = core.map(|c| (c, outcome.served_from_tree(), outcome.wake_plan_index()));
        for (i, plan) in outcome.plans.iter().enumerate() {
            let waiting = wake.and_then(|(c, tree, at)| (at == Some(i)).then_some((c, tree)));
            let buf = self.req_pool.pop().unwrap_or_default();
            out.push(lower(&mut self.digest, plan, layout, 0, waiting, buf));
        }
        oram.recycle_outcome(outcome);
        true
    }

    /// Returns a lowered transaction's request buffer to the planner's
    /// pool. The tracker hands buffers back right after admission (it
    /// copies the requests into its own fixed queues), closing the
    /// allocation loop on the hot path.
    pub fn recycle_requests(&mut self, mut buf: Vec<(PhysAddr, bool)>) {
        buf.clear();
        self.req_pool.push(buf);
    }

    /// Pre-sizes protocol bookkeeping for `n` further program accesses
    /// (flat engine only; the recursive stack is not on the
    /// allocation-free path).
    pub fn reserve_accesses(&mut self, n: usize) {
        if let Engine::Flat { oram, .. } = &mut self.engine {
            oram.reserve_accesses(n);
        }
    }

    fn mix(&mut self, v: u64) {
        self.digest = fnv1a_u64(self.digest, v);
    }
}

/// Lowers one protocol plan: converts slot touches to physical requests in
/// the right memory region and resolves the core-wakeup annotations.
/// `waiting` is `(core, served_from_tree)` when this plan may carry the
/// program's data.
fn lower(
    digest: &mut u64,
    plan: &AccessPlan,
    layout: &TreeLayout,
    base: u64,
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
    requests.extend(
        plan.touches
            .iter()
            .map(|t| (PhysAddr(base + layout.addr_of(t.bucket, t.slot)), t.write)),
    );
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

    fn planner_pair() -> (Planner, Conformance) {
        let cfg = SystemConfig::test_small(Scheme::All);
        let conf = Conformance::new(
            &VerifyConfig::off(),
            cfg.protocol,
            &cfg.effective_ring(),
            &cfg.geometry,
            &cfg.timing,
            true,
            cfg.sched_policy.name(),
        );
        (Planner::build(&cfg).unwrap(), conf)
    }

    #[test]
    fn digest_is_deterministic_and_order_sensitive() {
        let (mut a, mut ca) = planner_pair();
        let (mut b, mut cb) = planner_pair();
        for blk in [3u64, 9, 3, 27] {
            a.plan(
                &CoreRequest {
                    core: 0,
                    block: blk,
                    is_write: false,
                },
                &mut ca,
            );
        }
        for blk in [3u64, 9, 3, 27] {
            b.plan(
                &CoreRequest {
                    core: 0,
                    block: blk,
                    is_write: false,
                },
                &mut cb,
            );
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.accesses(), 4);

        let (mut c, mut cc) = planner_pair();
        for blk in [9u64, 3, 3, 27] {
            c.plan(
                &CoreRequest {
                    core: 0,
                    block: blk,
                    is_write: false,
                },
                &mut cc,
            );
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
        let (mut p, mut conf) = planner_pair();
        let planned = p.plan(
            &CoreRequest {
                core: 1,
                block: 42,
                is_write: false,
            },
            &mut conf,
        );
        assert!(!planned.is_empty());
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
    }
}
