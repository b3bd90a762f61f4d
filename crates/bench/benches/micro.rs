//! Microbenchmarks of the individual substrates: protocol access planning,
//! DRAM command issue, scheduler ticks, trace generation, arrival
//! processes, crypto, the whole-system step loop and the service clock.
//!
//! Self-timed (no external harness, so the workspace builds offline): each
//! case is warmed up, then run for a fixed iteration budget, reporting
//! mean ns/op. `STRING_ORAM_MICRO_ITERS` scales the budget.
//!
//! The Ring engine is timed twice: *cold* (a fresh tree at the paper's
//! geometry, every access a first touch — about twelve bucket
//! materializations each, with the live heap bytes each bucket leaves
//! behind: a row of 32-bit slot words, a 20-byte node and the 32-bit
//! positions of its pre-loaded blocks, ~98 B for `ring_cb_cold` and
//! ~130 B for `ring_baseline_cold`'s 20-slot rows) and *warm* (a fully
//! materialized tree — the allocation-free steady state). The two differ by several times; one number for both
//! would describe neither. The Path and Circuit engines (`path_warm`,
//! `circuit_warm`) run at the same geometry over a resident block
//! population: no benchmark workload shows their host cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

use dram_sim::geometry::DramGeometry;
use dram_sim::timing::TimingParams;
use dram_sim::{AddressMapping, DramCommand, DramFaultConfig, DramLocation, DramModule};
use mem_sched::{MemoryController, RequestSpec, SchedulerPolicy, TxnId};
use oram_collections::ObliviousMap;
use oram_service::{OramService, ServiceConfig, SubmissionPolicy, TenantSpec};
use ring_oram::crypto::BlockCipher;
use ring_oram::{BlockId, CircuitOram, ObliviousProtocol, Op, PathOram, RingConfig, RingOram};
use string_oram::pipeline::{Conformance, Planner};
use string_oram::{
    BackendKind, CoreRequest, RecursiveConfig, Scheme, Simulation, SystemConfig, VerifyConfig,
};
use string_oram_bench::env_or;
use string_oram_bench::paper::{banner, line};
use trace_synth::{by_name, ArrivalProcess, ArrivalSpec, TraceGenerator};

fn iters() -> u64 {
    env_or("STRING_ORAM_MICRO_ITERS", 2000)
}

/// Bytes currently allocated (requested sizes), for the cold rows.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

struct LiveBytes;

// SAFETY: delegates every operation to `System`, only updating an atomic
// counter around it.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Mean ns/op of `f` over the iteration budget, after a 10 % warm-up.
fn time<F: FnMut(u64)>(mut f: F) -> f64 {
    let n = iters();
    for i in 0..n / 10 + 1 {
        f(i);
    }
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

fn print_row(label: &str, values: &[String]) {
    print!("{}", line(label, values));
}

/// Times `f` and prints one row with the mean ns/op.
fn bench<F: FnMut(u64)>(name: &str, f: F) {
    let ns = time(f);
    print_row(name, &[format!("{ns:>10.0} ns/op")]);
}

fn bench_protocol_access() {
    for (name, cfg) in [
        ("ring_baseline", RingConfig::hpca_baseline()),
        ("ring_cb", RingConfig::hpca_default()),
    ] {
        // Cold: every access is the first touch of a new block.
        let live = LIVE_BYTES.load(Ordering::Relaxed);
        let mut oram = RingOram::new(cfg.clone(), 1);
        let mut next = 0;
        let ns = time(|_| {
            next += 1;
            let outcome = oram.access(BlockId(next));
            oram.recycle_outcome(std::hint::black_box(outcome));
        });
        let live = (LIVE_BYTES.load(Ordering::Relaxed) - live) as f64;
        let per_bucket = live / oram.materialized_buckets() as f64;
        print_row(
            &format!("{name}_cold"),
            &[
                format!("{ns:>10.0} ns/op"),
                format!("{per_bucket:>5.0} B/bucket"),
            ],
        );

        // Warm: a 10-level tree driven until every bucket exists (as
        // `tests/alloc_regression.rs` does), over a fixed block population
        // the tree holds with slack.
        let mut oram = RingOram::new(RingConfig { levels: 10, ..cfg }, 1);
        let mut warmup = 0;
        while oram.materialized_buckets() < (1 << 10) - 1 {
            let outcome = oram.access(BlockId(warmup % 512));
            oram.recycle_outcome(outcome);
            warmup += 1;
            assert!(warmup < 1_000_000, "{name}: the tree never filled");
        }
        bench(&format!("{name}_warm"), |i| {
            let outcome = oram.access(BlockId(i % 512));
            oram.recycle_outcome(std::hint::black_box(outcome));
        });
    }
}

/// The plain-tree engines alone, at the paper's geometry with `Z`-slot
/// buckets (`S = Y = 1`): every block of a fixed population is resident
/// before the clock starts, so each timed access finds its target in the
/// tree or the stash.
fn bench_plain_tree_access() {
    let ring = RingConfig {
        z: 4,
        ..RingConfig::hpca_default()
    }
    .z_slot();
    let engines: [(&str, Box<dyn ObliviousProtocol>); 2] = [
        ("path_warm", Box::new(PathOram::from_ring(ring.clone(), 1))),
        ("circuit_warm", Box::new(CircuitOram::new(ring, 1))),
    ];
    for (name, mut oram) in engines {
        for b in 0..4096 {
            let outcome = oram.access(BlockId(b));
            oram.recycle_outcome(outcome);
        }
        bench(name, |i| {
            let outcome = oram.access(BlockId(i.wrapping_mul(2_654_435_761) % 4096));
            oram.recycle_outcome(std::hint::black_box(outcome));
        });
    }
}

fn bench_dram_issue() {
    let geometry = DramGeometry::test_medium();
    let timing = TimingParams::ddr3_1600();
    bench("dram_act_rd_pre", |_| {
        let mut dram = DramModule::new(geometry.clone(), timing.clone());
        let loc = DramLocation {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 5,
            column: 1,
        };
        let t = dram.timing().clone();
        dram.issue(DramCommand::activate(loc), 0).unwrap();
        dram.issue(DramCommand::read(loc), t.t_rcd).unwrap();
        let pre_at = t.t_ras.max(t.t_rcd + t.t_rtp);
        dram.issue(DramCommand::precharge(loc), pre_at).unwrap();
        std::hint::black_box(dram.stats().total_commands());
    });
}

fn bench_scheduler_tick() {
    for (name, policy) in [
        ("sched_txn_64req", SchedulerPolicy::TransactionBased),
        ("sched_pb_64req", SchedulerPolicy::proactive()),
    ] {
        let geometry = DramGeometry::test_medium();
        let mapping = AddressMapping::hpca_default(&geometry);
        bench(name, |_| {
            let dram = DramModule::new(geometry.clone(), TimingParams::ddr3_1600());
            let mut ctrl = MemoryController::new(dram, mapping.clone(), policy, 64);
            for i in 0..64u64 {
                ctrl.try_enqueue(
                    RequestSpec {
                        addr: dram_sim::PhysAddr(i * 4096 * 7),
                        is_write: i % 3 == 0,
                        txn: TxnId(i / 16),
                    },
                    0,
                )
                .unwrap();
            }
            let mut cycle = 0;
            while ctrl.pending() > 0 {
                ctrl.tick(cycle);
                cycle += 1;
            }
            std::hint::black_box(cycle);
        });
    }

    // Stalled: deep queues, but every request of a channel conflicts in
    // one bank, so between a PRE/ACT/RD triple nothing is issuable for tRC.
    bench_ticks("tick_stalled", None, |mapping, i| RequestSpec {
        addr: mapping.encode(&DramLocation {
            channel: (i % 4) as u32,
            rank: 0,
            bank: 0,
            row: i / 4,
            column: 0,
        }),
        is_write: false,
        txn: TxnId(i / 64),
    });
    // Saturated: Path-style streaming — long runs of consecutive lines
    // (row hits across every channel and bank), reads then writes, the
    // data bus busy nearly every burst slot.
    bench_ticks("tick_saturated", None, |_, i| RequestSpec {
        addr: dram_sim::PhysAddr(i * 64),
        is_write: (i / 256) % 2 == 1,
        txn: TxnId(i / 256),
    });
    // Asleep: the floor. Every channel's read queue full (64 deep, all 32
    // banks with work) and every channel asleep: each ACT meets a weak row
    // that never recovers, so after the first few dozen ticks nothing is
    // issuable until the next refresh — a tick is the refused re-offer, the
    // refresh check, the accounting and four asleep checks.
    let never = DramFaultConfig {
        weak_row_rate: 1.0,
        weak_row_stall: 1 << 40,
        ..DramFaultConfig::default()
    };
    bench_ticks("tick_asleep", Some(never), |mapping, i| RequestSpec {
        addr: mapping.encode(&DramLocation {
            channel: (i % 4) as u32,
            rank: 0,
            bank: (i / 4 % 8) as u32,
            row: i / 32,
            column: 0,
        }),
        is_write: false,
        txn: TxnId(i / 256),
    });
}

/// The two per-event paths of the controller's view upkeep at depth, one
/// bank of the paper's machine holding every request (same row, one
/// transaction, so all are in the window and all are row hits):
/// `enqueue_deep` is ns per accepted `try_enqueue` into a list already
/// holding >= 32 requests, `retire_front` ns per tick that issues a data
/// command while the retired request heads a list of >= 32.
fn bench_deep_bank() {
    let geometry = DramGeometry::hpca_default();
    let mapping = AddressMapping::hpca_default(&geometry);
    let spec = |i: u64, is_write| RequestSpec {
        addr: mapping.encode(&DramLocation {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 7,
            column: (i % 64) as u32,
        }),
        is_write,
        txn: TxnId(0),
    };
    // A controller whose bank 0 holds `reads` reads and has ticked once, so
    // its scheduling view exists.
    let primed = |reads: u64| {
        let dram = DramModule::new(geometry.clone(), TimingParams::ddr3_1600());
        let mut ctrl =
            MemoryController::new(dram, mapping.clone(), SchedulerPolicy::proactive(), 64);
        for i in 0..reads {
            ctrl.try_enqueue(spec(i, false), 0).unwrap();
        }
        ctrl.tick(0);
        ctrl
    };
    let rounds = iters() / 10 + 1;

    // 32 more reads, then 64 writes: the list grows from 32 to 128.
    let more: Vec<RequestSpec> = (0..96).map(|i| spec(i, i >= 32)).collect();
    let mut ns = 0;
    for _ in 0..rounds {
        let mut ctrl = primed(32);
        let start = Instant::now();
        for &spec in &more {
            ctrl.try_enqueue(spec, 1).unwrap();
        }
        ns += start.elapsed().as_nanos();
        std::hint::black_box(ctrl.pending());
    }
    let per = ns as f64 / (rounds * more.len() as u64) as f64;
    print_row("enqueue_deep", &[format!("{per:>10.0} ns/enqueue")]);

    let (mut ns, mut retired) = (0, 0u64);
    for _ in 0..rounds {
        let mut ctrl = primed(64);
        let mut cycle = 1;
        while ctrl.pending() > 32 {
            let before = ctrl.pending();
            let start = Instant::now();
            ctrl.tick(cycle);
            let spent = start.elapsed().as_nanos();
            if ctrl.pending() < before {
                ns += spent;
                retired += 1;
            }
            cycle += 1;
        }
    }
    let per = ns as f64 / retired as f64;
    print_row("retire_front", &[format!("{per:>10.0} ns/data cmd")]);
}

/// Times controller ticks at the paper's geometry (its DRAM under `faults`,
/// if any) with the queues kept topped up from `next` (request number ->
/// request), printing ns per tick: the per-cycle cost of the scheduler
/// itself, visible without the full benchmark harness.
fn bench_ticks(
    name: &str,
    faults: Option<DramFaultConfig>,
    next: impl Fn(&AddressMapping, u64) -> RequestSpec,
) {
    let geometry = DramGeometry::hpca_default();
    let mapping = AddressMapping::hpca_default(&geometry);
    let mut dram = DramModule::new(geometry, TimingParams::ddr3_1600());
    if let Some(f) = faults {
        dram.enable_faults(f);
    }
    let mut ctrl = MemoryController::new(dram, mapping.clone(), SchedulerPolicy::proactive(), 64);
    let ticks = iters() * 100;
    let mut offered = 0;
    let mut done = Vec::new();
    let start = Instant::now();
    for cycle in 0..ticks {
        while ctrl.try_enqueue(next(&mapping, offered), cycle).is_ok() {
            offered += 1;
        }
        ctrl.tick(cycle);
        done.clear();
        ctrl.drain_completed_into(&mut done);
    }
    let ns = start.elapsed().as_nanos() as f64 / ticks as f64;
    let commands = ctrl.dram().stats().total_commands() as f64 / ticks as f64;
    print_row(
        name,
        &[
            format!("{ns:>10.0} ns/tick"),
            format!("{commands:.3} cmd/tick"),
        ],
    );
}

fn bench_trace_generation() {
    let spec = by_name("libq").unwrap();
    bench("trace_libq_1k", |i| {
        let mut g = TraceGenerator::new(spec.clone(), 5 + i, 0);
        std::hint::black_box(g.take_records(1000));
    });
}

/// One tick of each tenant shape the service benchmark drives (steady,
/// bursty, diurnal), in ns per tick: an iteration is 1 000 ticks of one
/// process.
fn bench_arrivals() {
    const TICKS: u32 = 1_000;
    for (name, spec) in [
        ("arrivals_steady", ArrivalSpec::steady(1.0)),
        ("arrivals_bursty", ArrivalSpec::bursty(0.5, 4.0)),
        ("arrivals_diurnal", ArrivalSpec::diurnal(0.8, 400_000, 0.8)),
    ] {
        let mut process = ArrivalProcess::new(spec, 0xA221_7A15);
        let ns = time(|_| {
            let arrivals: u32 = (0..TICKS).map(|_| process.next_tick()).sum();
            std::hint::black_box(arrivals);
        });
        print_row(name, &[format!("{:>10.2} ns/tick", ns / f64::from(TICKS))]);
    }
}

fn bench_data_path() {
    let mut oram = RingOram::new(RingConfig::test_small(), 3);
    oram.enable_encryption(0xFEED);
    let data = [7u8; 64];
    bench("wr_rd_block_64b", |i| {
        let id = BlockId(i % 128);
        let _ = oram.operate(id, Op::Write(&data));
        std::hint::black_box(oram.operate(id, Op::Read).1);
    });
}

fn bench_crypto() {
    let cipher = BlockCipher::new(42);
    let data = [9u8; 64];
    bench("seal_open_64b", |nonce| {
        let sealed = cipher.seal(nonce, &data);
        std::hint::black_box(cipher.open(&sealed).expect("well formed"));
    });
}

/// One program access planned through a Ring+CB stack with three map
/// tiers: every tier's access and the lowering of its plans.
fn bench_recursive_access() {
    let mut cfg = SystemConfig::test_small(Scheme::All);
    cfg.verify = VerifyConfig::off();
    cfg.recursion = Some(RecursiveConfig::test_small());
    let mut planner = Planner::build(&cfg).expect("valid config");
    let mut conformance = Conformance::new(
        &cfg.verify,
        cfg.protocol,
        &cfg.effective_ring(),
        &cfg.geometry,
        &cfg.timing,
        false,
        cfg.sched_policy.name(),
    );
    let mut planned = Vec::new();
    bench("recursive_3maps", |i| {
        let req = CoreRequest {
            core: 0,
            block: i % 128,
            is_write: false,
        };
        planner.plan_into(&req, &mut conformance, &mut planned);
        for txn in planned.drain(..) {
            planner.recycle_requests(std::hint::black_box(txn).requests);
        }
    });
}

fn bench_collections() {
    let mut map = ObliviousMap::new(Box::new(RingOram::new(RingConfig::test_small(), 1)), 256);
    for i in 0..32u32 {
        map.put(format!("k{i}").as_bytes(), b"value").expect("room");
    }
    bench("map_get", |i| {
        std::hint::black_box(map.get(format!("k{}", i % 64).as_bytes()).expect("sized"));
    });
}

fn bench_system_step() {
    let cfg = SystemConfig::hpca_default(Scheme::All);
    let spec = by_name("black").unwrap();
    let traces = (0..cfg.cores)
        .map(|c| TraceGenerator::new(spec.clone(), 1, c as u32).take_records(100_000))
        .collect();
    let mut sim = Simulation::new(cfg, traces);
    bench("system_step", |_| {
        sim.step();
        std::hint::black_box(sim.cycles());
    });
}

/// The service clock at the repo benchmark's shape (hpca geometry,
/// functional backend, one slot per 256 ticks, three silent tenants, no
/// request ever submitted, so every slot carries a cover access): what a
/// tick costs when it is a slot and when nothing at all is due. The quiet
/// row times what is left of each interval once the shard has drained the
/// slot's access.
fn bench_service_tick() {
    const INTERVAL: u64 = 256;
    let intervals = iters();
    let mut cfg = ServiceConfig::test_small(
        ["a", "b", "c"]
            .map(|name| TenantSpec::new(name, ArrivalSpec::steady(0.0)))
            .into(),
        (intervals + 1) * INTERVAL,
    );
    cfg.system = SystemConfig::hpca_default(Scheme::All);
    cfg.system.backend = BackendKind::FastFunctional;
    cfg.policy = SubmissionPolicy::FixedRate {
        interval: INTERVAL,
        batch: 1,
    };
    let mut svc = OramService::new(cfg).expect("valid config");
    let (mut slot_ns, mut quiet_ns, mut quiet_ticks) = (0, 0, 0);
    for slot in 1..=intervals {
        let start = Instant::now();
        svc.tick_once();
        slot_ns += start.elapsed().as_nanos();
        while !svc.shards()[0].is_drained() && svc.ticks() < slot * INTERVAL {
            svc.tick_once();
        }
        quiet_ticks += slot * INTERVAL - svc.ticks();
        let start = Instant::now();
        while svc.ticks() < slot * INTERVAL {
            svc.tick_once();
        }
        quiet_ns += start.elapsed().as_nanos();
    }
    let slot = slot_ns as f64 / intervals as f64;
    print_row("service_tick_slot", &[format!("{slot:>10.0} ns/tick")]);
    let quiet = quiet_ns as f64 / quiet_ticks as f64;
    let share = quiet_ticks as f64 / (intervals * INTERVAL) as f64;
    print_row(
        "service_tick_quiet",
        &[
            format!("{quiet:>10.1} ns/tick"),
            format!("{share:.3} of ticks"),
        ],
    );
}

fn main() {
    print!(
        "{}",
        banner("Microbenchmarks (mean over self-timed iterations)")
    );
    bench_protocol_access();
    bench_plain_tree_access();
    bench_dram_issue();
    bench_scheduler_tick();
    bench_deep_bank();
    bench_trace_generation();
    bench_arrivals();
    bench_data_path();
    bench_crypto();
    bench_recursive_access();
    bench_collections();
    bench_system_step();
    bench_service_tick();
}
