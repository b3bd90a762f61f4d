//! Allocation-regression test: a steady-state ORAM access performs **zero
//! heap allocations** — for every protocol engine the pipeline can host.
//!
//! The five-stage pipeline and the protocol engines (Ring+CB, Path,
//! Circuit) pool every per-access buffer (plan vectors, slot-touch lists,
//! request buffers, eviction scratch, sealed-payload boxes) and
//! pre-reserve the vectors that grow with the trace. This test pins that
//! property with a counting global allocator: after a warm-up prefix that
//! materializes the tree, grows the stash to its working set and fills
//! every pool, a window of further accesses must not allocate at all.
//!
//! This file contains exactly one test and is its own test binary, so no
//! concurrently running test can attribute its allocations to the window;
//! the protocols are measured sequentially inside that one test.
//!
//! The per-protocol windows use the functional backend with conformance
//! checking off, as in benchmark configurations: the measurement targets
//! the protocol/pipeline hot path. Two further Ring+CB windows turn every
//! checker on, over each backend: the conformance stage drains the command
//! events into a reused buffer, the auditors take a bucket's memory the
//! first time it is touched, and the value referee's writes carry
//! payloads (boxes from the engine's pool, stocked at the first write), so
//! a verified steady state is held to zero too. One more window drives a bare `PipelineCore` the way the service
//! does — real and cover accesses dispatched by hand, wakes collected into
//! the caller's buffer — since that path never runs under `Simulation`;
//! a third runs it over a recursive position map, every access and cover
//! walking three map tiers, a fourth on Path, whose covers are reads
//! and write-backs of uniformly drawn paths, and a fifth on Circuit, whose
//! covers are a read-only read and two evictions.
//! The cycle-accurate controller's per-cycle bookkeeping (per-bank
//! queues, views and issue bounds) gets its own per-policy windows.
//!
//! Materialization itself — the one inherently allocating event — has a
//! *budget* instead: a cold window of first-touch accesses on a fresh
//! engine of each protocol (Ring+CB, baseline Ring, Path, Circuit) at the
//! paper's geometry holds the resident state to a slab row per bucket,
//! with no allocator call of the bucket's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use dram_sim::geometry::DramGeometry;
use dram_sim::timing::TimingParams;
use dram_sim::{AddressMapping, DramLocation, DramModule};
use mem_sched::{MemoryController, RequestSpec, SchedulerPolicy, TxnId};
use ring_oram::{
    BlockId, CircuitOram, ObliviousProtocol, PathOram, RecursiveConfig, RingConfig, RingOram,
};
use string_oram::pipeline::PipelineCore;
use string_oram::{BackendKind, ProtocolKind, Scheme, Simulation, SystemConfig, VerifyConfig};
use trace_synth::{by_name, TraceGenerator};

/// Heap allocations observed since process start (allocs + reallocs;
/// frees are not counted — a steady state may *return* memory, it may
/// not *request* any).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes currently allocated: requested sizes, alloc minus dealloc, a
/// realloc counted by its size difference.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System`, only updating atomic
// counters around it.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Warm one protocol's pipeline until its tree is fully materialized, then
/// assert a window of further accesses allocates nothing.
///
/// `levels` is chosen per protocol so the trace can complete
/// materialization during warm-up: buckets materialize lazily on first
/// touch (an inherently allocating event that preserves the pinned RNG
/// stream), so the tree must be *complete* before a window of accesses can
/// be allocation-free. Ring's background evictions sweep leaves in
/// reverse-lexicographic order and finish a 10-level tree easily; Path
/// ORAM only ever touches the accessed path, so materializing is a
/// coupon-collector pass over the leaves and gets one level less.
fn assert_steady_state_window(
    protocol: ProtocolKind,
    levels: u32,
    backend: BackendKind,
    verify: VerifyConfig,
) {
    const RECORDS_PER_CORE: usize = 4000;
    const MEASURED_ACCESSES: u64 = 100;

    let mut cfg = SystemConfig::test_small(Scheme::All);
    cfg.protocol = protocol;
    cfg.ring.levels = levels;
    cfg.backend = backend;
    cfg.verify = verify;
    let total_buckets = (1usize << levels) - 1;
    let traces: Vec<_> = (0..cfg.cores)
        .map(|c| {
            TraceGenerator::new(by_name("black").unwrap(), 11, c as u32)
                .take_records(RECORDS_PER_CORE)
        })
        .collect();
    let total = (RECORDS_PER_CORE * cfg.cores) as u64;
    let mut sim = Simulation::new(cfg, traces);

    // Warm up until every bucket is materialized: stash high-water growth,
    // pool filling and hash-map resizing also all happen here.
    while sim.protocol().materialized_buckets() < total_buckets && !sim.is_finished() {
        sim.step();
    }
    assert_eq!(
        sim.protocol().materialized_buckets(),
        total_buckets,
        "{protocol}: trace too short to materialize the tree"
    );
    assert!(
        sim.oram_accesses() + MEASURED_ACCESSES < total,
        "{protocol}: trace too short: nothing left to measure"
    );
    let warmed = sim.oram_accesses();

    // The measured window: every planned access, eviction, reshuffle and
    // retirement in here must come out of pooled memory.
    let baseline = ALLOCATIONS.load(Ordering::SeqCst);
    while sim.oram_accesses() < warmed + MEASURED_ACCESSES && !sim.is_finished() {
        sim.step();
    }
    let during = ALLOCATIONS.load(Ordering::SeqCst) - baseline;
    let measured = sim.oram_accesses() - warmed;
    assert!(
        measured >= MEASURED_ACCESSES.min(total - warmed),
        "{protocol}: window too small: {measured} accesses"
    );
    assert_eq!(
        during, 0,
        "{protocol}: steady state allocated {during} times across {measured} accesses"
    );

    // The run ends here rather than draining the trace: this workload's
    // working set keeps growing and would eventually exceed what the
    // deliberately small tree can hold. The steady-state window above is
    // the pinned property.
    assert_eq!(sim.oram_accesses(), warmed + measured);
}

/// Core-direct window: a request-driven caller (the service's shape: tagged
/// real accesses over a fixed block population, gated on the transaction
/// window, every fourth slot a cover access, wakes drained from a reused
/// buffer) must reach the same allocation-free steady state as the trace
/// driver, on Ring+CB, Path and Circuit. The fixed population keeps the
/// stash's working set — and with it the eviction candidate buffer — from
/// growing past its warm-up size.
/// Under `recursion` every access and every cover walks the map tiers too,
/// and every tier's tree must be complete before the window opens.
fn assert_core_steady_state_window(
    protocol: ProtocolKind,
    verify: VerifyConfig,
    recursion: Option<RecursiveConfig>,
) {
    const ACCESSES: usize = 8000;
    const MEASURED_ACCESSES: u64 = 100;
    const LEVELS: u32 = 10;
    const BLOCKS: u64 = 512;

    let mut cfg = SystemConfig::test_small(Scheme::All);
    cfg.protocol = protocol;
    cfg.ring.levels = LEVELS;
    cfg.backend = BackendKind::FastFunctional;
    cfg.verify = verify;
    cfg.recursion = recursion;
    let data = cfg.effective_ring();
    let tier_buckets: Vec<usize> = std::iter::once(data.clone())
        .chain(
            recursion
                .iter()
                .flat_map(|r| (0..r.map_levels()).map(|i| r.map_config(&data, i))),
        )
        .map(|ring| ring.bucket_count() as usize)
        .collect();
    let complete = |core: &PipelineCore| {
        core.tiers()
            .map(|t| t.materialized_buckets())
            .eq(tier_buckets.iter().copied())
    };
    let mut core = PipelineCore::build(&cfg).unwrap();
    core.reserve_accesses(ACCESSES);
    let mut wakes = Vec::with_capacity(cfg.max_inflight_txns);
    let mut slot = 0u64;
    let mut tick = |core: &mut PipelineCore| {
        if core.inflight() < cfg.max_inflight_txns {
            slot += 1;
            if slot.is_multiple_of(4) {
                assert!(core.dispatch_cover(), "{protocol} has cover accesses");
            } else {
                // A stride coprime to the population visits every block.
                let block = slot * 7 % BLOCKS;
                if let Some(wake) = core.dispatch_real(slot as usize, block, slot.is_multiple_of(3))
                {
                    wakes.push(wake);
                }
            }
        }
        core.step(&mut wakes);
        wakes.clear();
    };

    // Circuit's two evictions per access complete the tree before every
    // block has been mapped, so the warm-up also lasts a population's
    // worth of accesses (the other windows open long after that).
    while (!complete(&core) || core.accesses() < BLOCKS)
        && core.accesses() + MEASURED_ACCESSES < ACCESSES as u64
    {
        tick(&mut core);
    }
    assert!(
        complete(&core),
        "{protocol} core: too few accesses to materialize every tree"
    );
    let (warmed, warmed_cover) = (core.accesses(), core.cover_accesses());

    let baseline = ALLOCATIONS.load(Ordering::SeqCst);
    while core.accesses() < warmed + MEASURED_ACCESSES {
        tick(&mut core);
    }
    let during = ALLOCATIONS.load(Ordering::SeqCst) - baseline;
    assert!(
        core.cover_accesses() > warmed_cover,
        "{protocol} core: the window held no cover access"
    );
    assert_eq!(
        during,
        0,
        "{protocol} core ({} tiers): steady state allocated {during} times across \
         {MEASURED_ACCESSES} accesses",
        tier_buckets.len()
    );
}

/// Cold window: what materialization costs. A fresh engine at the paper's
/// geometry materializes a dozen or more buckets per first-touch access;
/// what each leaves resident is its row in the tree's slab — a 16-byte
/// header, then a code byte per slot on Ring (Ring+CB 12, baseline Ring
/// 20) and a 4-byte slot word per slot on Path and Circuit (`Z` = 8) —
/// and, on Ring, the 23-bit positions of its ~5.6 cold blocks and, once
/// the bucket is first written back, a row of `Z` 4-byte ids:
///
/// | engine | fresh row | ids | cold positions | measured | budget |
/// |---|---|---|---|---|---|
/// | Ring+CB | 28 B | 32 B, once written back | ~16 B | 55.5 B | 61 B |
/// | baseline Ring | 36 B | 32 B, once written back | ~16 B | 63.5 B | 70 B |
/// | Path | 48 B | — | — | 52.4 B | 58 B |
/// | Circuit | 48 B | — | — | 50.2 B | 55 B |
///
/// Rows, ids and cold positions all grow in fixed chunks, so a bucket
/// costs no allocator call of its own (≤ 0.009 calls per bucket measured)
/// and nothing doubles. Each budget is its measurement plus about 10 %, so
/// it has no room for a payload lane (12 x 16 B per bucket) — a timing-only
/// run never allocates one — nor for a bucket's ids before its first
/// write-back. DESIGN.md §12 "Engine resident state" records what earlier
/// bucket forms measured.
fn assert_cold_materialization_budget(
    protocol: ProtocolKind,
    max_live_bytes_per_bucket: f64,
    build: impl FnOnce() -> Box<dyn ObliviousProtocol>,
) {
    const ACCESSES: u64 = 2000;
    const MAX_ALLOCATIONS_PER_BUCKET: f64 = 0.05;

    let calls = ALLOCATIONS.load(Ordering::SeqCst);
    let live = LIVE_BYTES.load(Ordering::SeqCst);
    let mut oram = build();
    oram.reserve_accesses(ACCESSES as usize);
    for block in 0..ACCESSES {
        let outcome = oram.access(BlockId(block));
        oram.recycle_outcome(outcome);
    }
    let calls = (ALLOCATIONS.load(Ordering::SeqCst) - calls) as f64;
    let live = (LIVE_BYTES.load(Ordering::SeqCst) - live) as f64;
    let buckets = oram.materialized_buckets() as f64;
    assert!(
        buckets >= 10.0 * ACCESSES as f64,
        "{protocol}: cold window materialized only {buckets} buckets"
    );
    assert!(
        live / buckets <= max_live_bytes_per_bucket,
        "{protocol}: cold engine holds {:.0} live heap bytes per materialized bucket",
        live / buckets
    );
    assert!(
        calls / buckets <= MAX_ALLOCATIONS_PER_BUCKET,
        "{protocol}: cold engine made {:.3} allocator calls per materialized bucket",
        calls / buckets
    );
}

/// Enqueues one batch of mixed-direction transactions and runs the
/// controller dry, draining completions into the caller's reused buffer.
fn run_batch(
    ctrl: &mut MemoryController,
    mapping: &AddressMapping,
    out: &mut Vec<mem_sched::Completed>,
    cycle: &mut u64,
    first_txn: u64,
) {
    for t in 0..8u64 {
        for i in 0..4u64 {
            let loc = DramLocation {
                channel: (i % 2) as u32,
                rank: 0,
                bank: ((t + i) % 4) as u32,
                row: (t * 7 + i) % 64,
                column: (i % 8) as u32,
            };
            ctrl.try_enqueue(
                RequestSpec {
                    addr: mapping.encode(&loc),
                    is_write: i % 3 == 0,
                    txn: TxnId(first_txn + t),
                },
                *cycle,
            )
            .unwrap();
        }
    }
    while ctrl.pending() > 0 {
        ctrl.tick(*cycle);
        ctrl.drain_completed_into(out);
        out.clear();
        *cycle += 1;
        assert!(*cycle < 1_000_000, "scheduler wedged");
    }
}

/// Controller-direct window for one scheduling policy: after a warm-up
/// batch fills the queue slab, the channel caches and the completion
/// buffer, a second batch scheduled under the policy must not allocate —
/// per-tick planning, candidate iteration and policy-local stats all live
/// in pre-sized state.
fn assert_controller_steady_state(policy: SchedulerPolicy) {
    let geometry = DramGeometry::test_small();
    let mapping = AddressMapping::hpca_default(&geometry);
    let dram = DramModule::new(geometry, TimingParams::test_fast());
    let mut ctrl = MemoryController::new(dram, mapping, policy, 64);
    let encode = AddressMapping::hpca_default(&DramGeometry::test_small());
    let mut out = Vec::with_capacity(64);
    let mut cycle = 0u64;

    run_batch(&mut ctrl, &encode, &mut out, &mut cycle, 0);

    let baseline = ALLOCATIONS.load(Ordering::SeqCst);
    run_batch(&mut ctrl, &encode, &mut out, &mut cycle, 8);
    let during = ALLOCATIONS.load(Ordering::SeqCst) - baseline;
    assert_eq!(
        during,
        0,
        "{}: steady-state scheduling allocated {during} times",
        ctrl.policy_name()
    );
}

#[test]
fn steady_state_access_performs_no_heap_allocation() {
    // A 10-level tree (1023 buckets) is small enough that the trace fully
    // materializes it during warm-up; `test_small`'s 14-level tree would
    // need a coupon-collector pass over 8192 leaves to get there. Path
    // ORAM has no background sweep, so it gets a 9-level tree (255 leaves)
    // to keep the coupon-collector phase inside the trace.
    let (functional, off) = (BackendKind::FastFunctional, VerifyConfig::off());
    assert_steady_state_window(ProtocolKind::RingCb, 10, functional, off);
    assert_steady_state_window(ProtocolKind::Path, 9, functional, off);
    assert_steady_state_window(ProtocolKind::Circuit, 10, functional, off);

    // Verifier on: the command-event stream (order oracle, policy auditor
    // and, on the cycle-accurate backend, the JEDEC shadow timing) and the
    // plan-stream auditor all ride the same steady state.
    let checked = VerifyConfig::checked();
    assert_steady_state_window(ProtocolKind::RingCb, 10, functional, checked);
    assert_steady_state_window(
        ProtocolKind::RingCb,
        10,
        BackendKind::CycleAccurate,
        checked,
    );

    // The request-driven shape, on the core directly, verifier off and on,
    // over a stack with three position-map tiers, and on Path and Circuit
    // (every row of the auditor's schedule table audits allocation-free).
    let ring_cb = ProtocolKind::RingCb;
    assert_core_steady_state_window(ring_cb, off, None);
    assert_core_steady_state_window(ring_cb, checked, None);
    assert_core_steady_state_window(ring_cb, checked, Some(RecursiveConfig::test_small()));
    assert_core_steady_state_window(ProtocolKind::Path, checked, None);
    assert_core_steady_state_window(ProtocolKind::Circuit, checked, None);

    // First touches have a heap budget rather than a zero.
    let hpca = RingConfig::hpca_default();
    assert_cold_materialization_budget(ProtocolKind::RingCb, 61.0, || {
        Box::new(RingOram::with_load_factor(hpca.clone(), 11, 0.7))
    });
    assert_cold_materialization_budget(ProtocolKind::Ring, 70.0, || {
        Box::new(RingOram::with_load_factor(
            RingConfig::hpca_baseline(),
            11,
            0.7,
        ))
    });
    assert_cold_materialization_budget(ProtocolKind::Path, 58.0, || {
        Box::new(PathOram::from_ring(hpca.z_slot(), 11))
    });
    assert_cold_materialization_budget(ProtocolKind::Circuit, 55.0, || {
        Box::new(CircuitOram::new(hpca.z_slot(), 11))
    });

    // The scheduler-policy lab rides in the same binary (same single-test
    // isolation): every row of the policy table must stay zero-alloc on
    // the cycle-accurate controller's hot path.
    assert_controller_steady_state(SchedulerPolicy::TransactionBased);
    assert_controller_steady_state(SchedulerPolicy::ProactiveBank { lookahead: 1 });
    assert_controller_steady_state(SchedulerPolicy::ReadOverWrite { drain_bound: 4 });
    assert_controller_steady_state(SchedulerPolicy::ProactiveBank { lookahead: 4 });
    assert_controller_steady_state(SchedulerPolicy::FixedCadence { period: 2 });
}
