//! The experiment table: every table and figure of the paper's evaluation,
//! eight ablations and four extensions, one [`Experiment`] each, in
//! `DESIGN.md` §6 order. `paper.rs` is the interpreter.

use dram_sim::geometry::DramGeometry;
use dram_sim::timing::TimingParams;
use dram_sim::{AddressMapping, DramLocation, DramModule, PhysAddr};
use mem_sched::PagePolicy::{Closed, Open};
use mem_sched::{MemoryController, RequestSpec, SchedulerPolicy, SchedulerStats, TxnId};
use ring_oram::layout::TreeLayout;
use ring_oram::{AccessPlan, BlockId, ObliviousProtocol, OpKind, PathOram, RingConfig, RingOram};
use string_oram::LayoutKind::{Naive, Subtree};
use string_oram::MappingKind::{PaperStriped, Sequential};
use string_oram::Scheme::{All, Baseline, Cb, Pb};
use string_oram::{fig4_rows, table5_rows};
use string_oram::{RecursionSettings, Scheme, SystemConfig};
use trace_synth::{all_workloads, summarize, TraceGenerator};

use crate::paper::Format::{Fixed, Integer, Percent, Saving, YesNo};
use crate::paper::Relative::{Origin, Reference};
use crate::paper::Shape::{ByRow, BySeries};
use crate::paper::{col, geomean, Cell, Column, Computed, Edit, Experiment, Extract};
use crate::paper::{Format, Row, Run, Scale, Series, Table, TableSpec, NO_EDIT};

const RATIO: Format = Fixed(3);
const PERCENT: Format = Percent(1);

const CYCLES: Extract = |r| r.report.total_cycles as f64;
const READ_CONFLICT: Extract = |r| r.report.row_class(OpKind::ReadPath).conflict_rate();
const EVICT_CONFLICT: Extract = |r| r.report.row_class(OpKind::Eviction).conflict_rate();
const EARLY_PRE: Extract = |r| r.report.early_precharge_fraction;
const EARLY_ACT: Extract = |r| r.report.early_activate_fraction;

const fn series(label: &'static str, scheme: Scheme, edit: Edit) -> Series {
    Series {
        label,
        scheme,
        edit,
        reference: false,
    }
}

/// `series`, as the one the series after it are normalised to.
const fn reference(label: &'static str, scheme: Scheme, edit: Edit) -> Series {
    Series {
        reference: true,
        ..series(label, scheme, edit)
    }
}

const BASE: Series = reference("Baseline", Baseline, NO_EDIT);
const WITH_PB: Series = series("PB", Pb, NO_EDIT);
const WITH_ALL: Series = series("ALL", All, NO_EDIT);
const SCHEMES: &[Series] = &[BASE, series("CB", Cb, NO_EDIT), WITH_PB, WITH_ALL];

/// The paper's ten workloads in Table IV order, each its own label, on the
/// unedited machine.
pub(crate) const WORKLOADS: &[Row] = &[
    ("black", "black", NO_EDIT),
    ("face", "face", NO_EDIT),
    ("ferret", "ferret", NO_EDIT),
    ("fluid", "fluid", NO_EDIT),
    ("freq", "freq", NO_EDIT),
    ("leslie", "leslie", NO_EDIT),
    ("libq", "libq", NO_EDIT),
    ("mummer", "mummer", NO_EDIT),
    ("stream", "stream", NO_EDIT),
    ("swapt", "swapt", NO_EDIT),
];
/// `black`, the representative workload, on the unedited machine.
const BLACK: &[Row] = &[("", "black", NO_EDIT)];

/// What an entry that names no sweep and no `fn` has: nothing.
const EXPERIMENT: Experiment = Experiment {
    name: "",
    min_accesses: 0,
    rows: WORKLOADS,
    series: &[],
    tables: &[],
    quotes: |_| Vec::new(),
    compute: None,
    footer: "",
};

/// A table with a row per sweep row.
const fn per_row(
    title: &'static str,
    corner: &'static str,
    columns: &'static [Column],
) -> TableSpec {
    TableSpec {
        title,
        corner,
        shape: ByRow { geomean: false },
        columns,
    }
}

/// The "scheme × workload" table: a row per workload, then GEOMEAN.
const fn per_workload(title: &'static str, columns: &'static [Column]) -> TableSpec {
    TableSpec {
        shape: ByRow { geomean: true },
        ..per_row(title, "workload", columns)
    }
}

/// The "variants of one machine" table: a row per series.
const fn variants(
    title: &'static str,
    corner: &'static str,
    columns: &'static [Column],
) -> TableSpec {
    TableSpec {
        shape: BySeries { only: None },
        ..per_row(title, corner, columns)
    }
}

/// The four scheme columns of `value`, normalised to the Baseline's, with
/// the paper's averages for CB, PB and ALL.
const fn normalised(value: Extract, paper: [f64; 3]) -> [Column; 4] {
    let [cb, pb, all] = paper;
    [
        col("Baseline", value, RATIO).over(Reference),
        col("CB", value, RATIO).of(1).over(Reference).paper(cb),
        col("PB", value, RATIO).of(2).over(Reference).paper(pb),
        col("ALL", value, RATIO).of(3).over(Reference).paper(all),
    ]
}

/// Fig. 4 — memory space utilization of Ring ORAM configurations.
///
/// Regenerates the real/dummy capacity split for the four
/// bandwidth-optimal (Z, A, S) configurations at L = 23 with 64 B blocks.
/// Analytic; matches the paper exactly.
const FIG04_SPACE: Experiment = Experiment {
    name: "fig04_space",
    compute: Some(fig04_space),
    footer: "Paper reference: real capacity 4/8/16/32 GB growing linearly with Z; dummy \
             capacity growing super-linearly (5..58 GB); Config-4 space efficiency 35.56%.",
    ..EXPERIMENT
};

fn fig04_space(_: &Scale) -> Computed {
    let columns = [
        "config",
        "Z",
        "A",
        "S",
        "real GiB",
        "dummy GiB",
        "total GiB",
        "space eff.",
    ];
    let title = "Fig. 4: memory space utilization of Ring ORAM (L = 23, 64 B blocks)";
    let mut t = Table::new(title, &columns);
    // The paper's (real GB, dummy GB, space efficiency in %) per config.
    let paper = [
        (4.0, 5.0, None),
        (8.0, 12.0, None),
        (16.0, 27.0, None),
        (32.0, 58.0, Some(35.56)),
    ];
    for (row, (real, dummy, efficiency)) in fig4_rows().iter().zip(paper) {
        let cells = vec![
            Integer.cell(row.z.into()),
            Integer.cell(row.a.into()),
            Integer.cell(row.s.into()),
            Fixed(1).cell(row.real_gib()).paper(real),
            Fixed(1).cell(row.dummy_gib()).paper(dummy),
            Fixed(1).cell(row.total_gib()),
            Percent(2).cell(row.efficiency()).paper(efficiency),
        ];
        t.rows.push((row.label.clone(), cells));
    }
    (vec![t], vec![])
}

/// Fig. 5(b) — row-buffer conflict rate of Ring ORAM read paths vs
/// evictions under the subtree layout on a 4-channel memory system.
///
/// The paper reports ~74% conflict rate during selective read paths and
/// ~10% during full-path evictions: the subtree layout only helps
/// operations that touch whole subtrees.
const FIG05_ROW_BUFFER: Experiment = Experiment {
    name: "fig05_row_buffer",
    series: &[BASE],
    tables: &[per_workload(
        "Fig. 5(b): row-buffer conflict rate, baseline Ring ORAM, {n} accesses/core",
        &[
            col("read-path", READ_CONFLICT, PERCENT).paper(74.0),
            col("eviction", EVICT_CONFLICT, PERCENT).paper(10.0),
        ],
    )],
    footer: "Paper reference: read path ~74%, eviction ~10% — the selective read defeats the \
             subtree layout; the full-path eviction exploits it.",
    ..EXPERIMENT
};

/// Figs. 6 & 8 — the illustrative 4-bank timing example: three ORAM
/// transactions under transaction-based scheduling vs the PB scheduler.
///
/// Reconstructs the paper's didactic scenario directly on the memory
/// controller: each transaction touches a subset of the 4 banks with
/// inter-transaction row conflicts, and PB pulls the PRE/ACT pairs of the
/// next transaction into the idle banks ("Time Saving" in Fig. 8).
const FIG08_PB_TIMELINE: Experiment = Experiment {
    name: "fig08_pb_timeline",
    compute: Some(fig08_pb_timeline),
    footer: "Time saving: {} cycles ({}) — the paper's Fig. 8 shows the same mechanism: \
             inter-transaction PRE/ACT pairs overlap the previous transaction's critical path.",
    ..EXPERIMENT
};

/// Drives pre-planned transactions (`(address, is write)` lists) through a
/// memory controller over `geometry`, in order and as its queues take them;
/// returns the completion cycle of the last request and the scheduler's
/// counters.
fn drive_transactions(
    geometry: DramGeometry,
    policy: SchedulerPolicy,
    txns: &[Vec<(PhysAddr, bool)>],
) -> (u64, SchedulerStats) {
    let mapping = AddressMapping::hpca_default(&geometry);
    let dram = DramModule::new(geometry, TimingParams::ddr3_1600());
    let mut ctrl = MemoryController::new(dram, mapping, policy, 64);
    let requests = txns.iter().zip(0..).flat_map(|(requests, txn)| {
        let txn = TxnId(txn);
        requests.iter().map(move |&(addr, is_write)| RequestSpec {
            addr,
            is_write,
            txn,
        })
    });
    let (mut requests, mut cycle, mut finish) = (requests.peekable(), 0, 0);
    loop {
        while requests
            .next_if(|&spec| ctrl.try_enqueue(spec, cycle).is_ok())
            .is_some()
        {}
        if ctrl.pending() == 0 && requests.peek().is_none() {
            return (finish, ctrl.stats().clone());
        }
        ctrl.tick(cycle);
        for d in ctrl.drain_completed() {
            finish = finish.max(d.data_done_at);
        }
        cycle += 1;
        assert!(cycle < 1_000_000_000, "wedged");
    }
}

fn fig08_pb_timeline(_: &Scale) -> Computed {
    let geometry = DramGeometry {
        channels: 1,
        ranks_per_channel: 1,
        banks_per_rank: 4,
        bank_groups: 1,
        rows_per_bank: 64,
        columns_per_row: 64,
        column_bytes: 64,
    };
    // Six "ORAM read path" transactions, each touching all four banks twice
    // in a row that differs from what the previous transaction left open —
    // so every transaction opens with four inter-transaction row conflicts,
    // exactly the pattern of the paper's Fig. 6, which PB overlaps per Fig. 8.
    let mapping = AddressMapping::hpca_default(&geometry);
    let request = |txn: u64, i: u32| {
        let location = DramLocation {
            channel: 0,
            rank: 0,
            bank: i / 2,
            row: txn + 1,
            column: i,
        };
        (mapping.encode(&location), false)
    };
    let txns = (0..6).map(|txn| (0..8).map(|i| request(txn, i)).collect());
    let txns: Vec<Vec<(PhysAddr, bool)>> = txns.collect();
    let (base, _) = drive_transactions(geometry.clone(), SchedulerPolicy::TransactionBased, &txns);
    let (pb, early) = drive_transactions(geometry, SchedulerPolicy::proactive(), &txns);
    assert!(pb <= base, "PB must not lose on the didactic case");

    let title = "Figs. 6/8: 4-bank, 3-transaction timing example (DDR3-1600 cycles)";
    let mut t = Table::new(
        title,
        &["scheduler", "finish cycle", "early PRE", "early ACT"],
    );
    let counts = [
        ("txn-based", [base, 0, 0]),
        ("PB", [pb, early.early_precharges, early.early_activates]),
    ];
    for (label, counts) in counts {
        let cells = counts.map(|count| Integer.cell(count as f64));
        t.rows.push((label.to_string(), cells.into()));
    }
    let saved = (base - pb) as f64;
    (
        vec![t],
        vec![Integer.cell(saved), PERCENT.cell(saved / base as f64)],
    )
}

/// Fig. 10 — normalized execution time of Baseline / CB / PB / ALL across
/// the ten workloads, with the read/evict/reshuffle/other cycle breakdown.
///
/// The paper's averages: CB −11.72%, PB −18.87%, CB+PB −30.05%, with
/// < 0.38% variation across applications.
const FIG10_EXEC_TIME: Experiment = Experiment {
    name: "fig10_exec_time",
    series: SCHEMES,
    tables: &[
        per_workload(
            "Fig. 10: normalized execution time (vs Baseline), {n} accesses/core",
            &normalised(CYCLES, [0.883, 0.811, 0.700]),
        ),
        // Breakdown for one representative workload (paper stacks all bars).
        TableSpec {
            shape: BySeries {
                only: Some("black"),
            },
            ..variants(
                "Fig. 10 inset: cycle breakdown for 'black' (fraction of own total)",
                "scheme",
                &[
                    col("read", READ_SHARE, PERCENT),
                    col("evict", EVICT_SHARE, PERCENT),
                    col("reshuffle", RESHUFFLE_SHARE, PERCENT),
                    col("other", OTHER_SHARE, PERCENT),
                ],
            )
        },
    ],
    footer: "Paper reference: CB 0.883, PB 0.811, ALL 0.700 on average; variation across \
             workloads < 0.38%.",
    ..EXPERIMENT
};

const READ_SHARE: Extract = |r| cycle_share(r, r.report.cycles_by_kind.read);
const EVICT_SHARE: Extract = |r| cycle_share(r, r.report.cycles_by_kind.evict);
const RESHUFFLE_SHARE: Extract = |r| cycle_share(r, r.report.cycles_by_kind.reshuffle);
const OTHER_SHARE: Extract = |r| cycle_share(r, r.report.cycles_by_kind.other);
fn cycle_share(r: &Run, cycles: u64) -> f64 {
    cycles as f64 / r.report.cycles_by_kind.total() as f64
}

/// Fig. 11 — normalized memory-request queuing time (read and write
/// queues) for Baseline / CB / PB / ALL.
///
/// Paper averages: read queue CB −10.41%, PB −22.53%, ALL −32.87%;
/// write queue CB −11.83%, PB −19.46%, ALL −31.30%.
const FIG11_QUEUING: Experiment = Experiment {
    name: "fig11_queuing",
    // One simulation per (workload, scheme); both figures come from it.
    series: SCHEMES,
    tables: &[
        per_workload(
            "Fig. 11(a): normalized READ queue queuing time, {n} accesses/core",
            &normalised(|r| r.report.mean_read_queue_wait, [0.896, 0.775, 0.671]),
        ),
        per_workload(
            "Fig. 11(b): normalized WRITE queue queuing time, {n} accesses/core",
            &normalised(|r| r.report.mean_write_queue_wait, [0.882, 0.805, 0.687]),
        ),
    ],
    footer: "Paper reference: read queue CB 0.896 / PB 0.775 / ALL 0.671; write queue CB 0.882 \
             / PB 0.805 / ALL 0.687.",
    ..EXPERIMENT
};

/// Fig. 12 — (a) average bank idle-time proportion before/after PB, and
/// (b) the proportion of PRE/ACT commands PB manages to issue early.
///
/// Paper: idle time 65.99% → 40.72%; 59.31% of PREs and 56.93% of ACTs
/// issue ahead of their transaction.
const FIG12_BANK_IDLE: Experiment = Experiment {
    name: "fig12_bank_idle",
    series: &[BASE, WITH_PB],
    tables: &[
        per_workload(
            "Fig. 12(a): average bank idle time proportion, {n} accesses/core",
            &[
                col("Baseline", PENDING_IDLE, PERCENT).paper(65.99),
                col("PB", PENDING_IDLE, PERCENT).of(1).paper(40.72),
            ],
        ),
        per_workload(
            "Fig. 12(b): proportion of PRE/ACT issued ahead of their transaction (PB)",
            &[
                col("PRE early", EARLY_PRE, PERCENT).of(1).paper(59.31),
                col("ACT early", EARLY_ACT, PERCENT).of(1).paper(56.93),
            ],
        ),
    ],
    footer: "Paper reference: idle 65.99% -> 40.72% with PB; 59.31% of PREs and 56.93% of ACTs \
             issued early. Idle here is measured over bank-cycles with pending work, matching \
             the paper's 'stops receiving memory command due to the scheduling barrier'.",
    ..EXPERIMENT
};

const PENDING_IDLE: Extract = |r| r.report.pending_bank_idle_proportion;

/// Fig. 13 — CB sensitivity: execution time and green blocks fetched per
/// read for Y = 0 (baseline), 2, 4, 6, 8, both CB-only and CB+PB.
///
/// Paper: CB alone improves 2.02%..11.72% from Y=2..8; with PB the total
/// improvement grows 20.79%..30.05%. Greens fetched per read: 0.167,
/// 0.652, 1.638, 3.255 for Y = 2, 4, 6, 8 (stash 500, no background
/// eviction triggered).
///
/// Greens/read is measured over the **second half** of each run's measured
/// window: a bucket at tree level `l` only reaches its shuffle steady state
/// after ~2^l evictions, so early accesses under-count green availability.
const FIG13_CB_SENSITIVITY: Experiment = Experiment {
    name: "fig13_cb_sensitivity",
    compute: Some(fig13_cb_sensitivity),
    footer: "Paper reference: CB 0.980/0.961/0.928/0.883 for Y=2/4/6/8; CB+PB 0.792..0.700; \
             greens/read 0.167/0.652/1.638/3.255. Greens/read converges from below with run \
             length — raise STRING_ORAM_ACCESSES for deeper tree levels to reach shuffle steady \
             state.",
    ..EXPERIMENT
};

fn fig13_cb_sensitivity(scale: &Scale) -> Computed {
    // The paper's (CB time, CB+PB time, greens/read) per Y, where it
    // prints the number.
    let ys = [
        (0, [None, None, None]),
        (2, [Some(0.980), Some(0.792), Some(0.167)]),
        (4, [Some(0.961), None, Some(0.652)]),
        (6, [Some(0.928), None, Some(1.638)]),
        (8, [Some(0.883), Some(0.700), Some(3.255)]),
    ];
    let n = scale.accesses;
    let title = "Fig. 13: CB compact-rate sensitivity (geomean over 3 workloads)";
    let columns = ["Y", "CB time", "CB+PB time", "greens/read"];
    let mut t = Table::new(format!("{title}, {n} accesses/core"), &columns);
    // A 3-workload panel keeps the 33-run sweep affordable; the paper
    // itself notes workload insensitivity.
    let panel = WORKLOADS[..3].iter().map(|&(workload, ..)| workload);
    let panel: Vec<&str> = panel.collect();
    let run = |scheme: Scheme, y: Option<u32>, workload: &str| {
        let mut cfg = SystemConfig::hpca_default(scheme);
        cfg.ring.y = y.unwrap_or(cfg.ring.y);
        scale.simulate(&cfg, workload, n)
    };
    let base = panel.iter().map(|w| CYCLES(&run(Baseline, None, w)));
    let base: Vec<f64> = base.collect();
    for (y, paper) in ys {
        let (mut cb_norm, mut all_norm, mut greens) = (Vec::new(), Vec::new(), Vec::new());
        for (w, base) in panel.iter().zip(&base) {
            let cb = run(Cb, Some(y), w);
            cb_norm.push(CYCLES(&cb) / base);
            let (half, end) = (&cb.halfway.protocol, &cb.report.protocol);
            let reads = end.read_paths - half.read_paths;
            let fetched = (end.greens_fetched - half.greens_fetched) as f64;
            greens.push(if reads == 0 {
                0.0
            } else {
                fetched / reads as f64
            });
            all_norm.push(CYCLES(&run(All, Some(y), w)) / base);
        }
        let mean_greens = greens.iter().sum::<f64>() / greens.len() as f64;
        let values = [geomean(&cb_norm), geomean(&all_norm), mean_greens];
        let cells = values
            .iter()
            .zip(paper)
            .map(|(&v, paper)| RATIO.cell(v).paper(paper));
        t.rows.push((y.to_string(), cells.collect()));
    }
    (vec![t], vec![])
}

/// The stash sizes Figs. 14 and 15 sweep.
const STASH_SIZES: &[Row] = &[
    ("200", "black", |c| c.ring.stash_capacity = 200),
    ("300", "black", |c| c.ring.stash_capacity = 300),
    ("400", "black", |c| c.ring.stash_capacity = 400),
    ("500", "black", |c| c.ring.stash_capacity = 500),
];

/// The CB rates Figs. 14 and 15 sweep: the baseline, then CB at Y.
const CB_RATES: &[Series] = &[
    series("Y=0", Baseline, |c| c.ring.y = 0),
    series("Y=2", Cb, |c| c.ring.y = 2),
    series("Y=4", Cb, |c| c.ring.y = 4),
    series("Y=6", Cb, |c| c.ring.y = 6),
    series("Y=8", Cb, |c| c.ring.y = 8),
];

/// A column per CB rate of `value`, normalised to the baseline at stash 200.
const fn per_cb_rate(value: Extract) -> [Column; 5] {
    [
        col("Y=0", value, RATIO).over(Origin),
        col("Y=2", value, RATIO).of(1).over(Origin),
        col("Y=4", value, RATIO).of(2).over(Origin),
        col("Y=6", value, RATIO).of(3).over(Origin),
        col("Y=8", value, RATIO).of(4).over(Origin),
    ]
}

/// Fig. 14 — stash size vs performance and background-eviction overhead.
///
/// The paper sweeps stash sizes 200..500 against CB rates Y=2..8: small
/// stashes force background evictions for aggressive Y, costing extra
/// (leakage-free) dummy read paths and evictions; at 500 entries even Y=8
/// triggers none.
const FIG14_STASH_SIZE: Experiment = Experiment {
    name: "fig14_stash_size",
    // Stash dynamics need long runs: occupancy builds over thousands of
    // accesses (the paper plots 20 000).
    min_accesses: 2000,
    rows: STASH_SIZES,
    series: CB_RATES,
    tables: &[
        per_row(
            "Fig. 14(a): normalized execution time vs stash size (black, {n} accesses/core)",
            "stash",
            &per_cb_rate(CYCLES),
        ),
        per_row(
            "Fig. 14(b): eviction count (normalized to baseline, stash 200)",
            "stash",
            &per_cb_rate(|r| r.report.protocol.evictions as f64),
        ),
    ],
    footer: "Paper reference: at stash 200, Y >= 6 starts to trigger background evictions \
             (eviction count up to 1.62x / 2.28x for Y=6/8); at stash 500 even Y=8 triggers none \
             and Config-4 performs best.",
    ..EXPERIMENT
};

/// Fig. 15 — run-time stash occupancy under different stash sizes and CB
/// rates.
///
/// The paper plots occupancy over 20 000 accesses for stash sizes
/// 200/300/400/500 and configs Y = 0..8, showing occupancy grows with Y
/// but stays bounded thanks to reverse-lexicographic eviction (plus
/// background eviction when the bound is hit).
const FIG15_STASH_OCCUPANCY: Experiment = Experiment {
    name: "fig15_stash_occupancy",
    min_accesses: FIG14_STASH_SIZE.min_accesses,
    rows: STASH_SIZES,
    series: CB_RATES,
    tables: &[variants(
        "Fig. 15: stash occupancy, stash size {row} (black, {n} accesses/core)",
        "Y",
        &[
            col("mean", stash_mean, Fixed(1)),
            col("p95", |r| stash_sample(r, 95), Integer),
            col("max", |r| stash_sample(r, 100), Integer),
            col("bg evictions", BG_EVICTIONS, Integer),
        ],
    )],
    footer: "Paper reference: occupancy rises with Y but does not blow up; with stash 500 even \
             Y=8 never triggers background eviction during the simulated window.",
    ..EXPERIMENT
};

const BG_EVICTIONS: Extract = |r| r.report.protocol.background_evictions as f64;
fn stash_mean(r: &Run) -> f64 {
    let samples = &r.report.protocol.stash_samples;
    samples.iter().sum::<usize>() as f64 / samples.len().max(1) as f64
}

/// The stash occupancy sample `percent` of the way up the sorted samples
/// (100: the largest); 0 without samples.
fn stash_sample(r: &Run, percent: usize) -> f64 {
    let mut samples = r.report.protocol.stash_samples.clone();
    samples.sort_unstable();
    let at = (samples.len() * percent / 100).min(samples.len().saturating_sub(1));
    samples.get(at).copied().unwrap_or_default() as f64
}

/// Table V — CB configurations and corresponding space saving
/// (Z = 8, S = 12, L = 23).
const TABLE5_CB_SPACE: Experiment = Experiment {
    name: "table5_cb_space",
    compute: Some(table5_cb_space),
    footer: "Paper reference: totals 20/18/16/14/12 GB; dummy percentage 60/55.6/50/42.9/33.3% \
             — Y=8 reclaims 40% of the allocation.",
    ..EXPERIMENT
};

fn table5_cb_space(_: &Scale) -> Computed {
    let columns = [
        "config",
        "Y (CB rate)",
        "total GiB",
        "dummy %",
        "saved vs base",
    ];
    let title = "Table V: CB configurations and space saving (Z=8, S=12, L=23)";
    let mut t = Table::new(title, &columns);
    // The paper's (total GB, dummy %) per configuration.
    let paper = [
        (20.0, 60.0),
        (18.0, 55.6),
        (16.0, 50.0),
        (14.0, 42.9),
        (12.0, 33.3),
    ];
    let rows = table5_rows();
    let base = rows[0].total_bytes() as f64;
    for (row, (total, dummy)) in rows.iter().zip(paper) {
        let cells = vec![
            Cell::text(format!("Y={}", row.y)),
            Fixed(1).cell(row.total_gib()).paper(total),
            PERCENT.cell(row.dummy_percentage()).paper(dummy),
            Saving.cell(row.total_bytes() as f64 / base),
        ];
        t.rows.push((row.label.clone(), cells));
    }
    (vec![t], vec![])
}

/// Table IV — workloads and their MPKIs.
///
/// Verifies that each synthetic workload generator converges to the MPKI
/// the paper's Table IV lists, and reports the measured value alongside.
const TABLE4_WORKLOADS: Experiment = Experiment {
    name: "table4_workloads",
    compute: Some(table4_workloads),
    footer: "All synthesized MPKIs converge to Table IV within sampling noise.",
    ..EXPERIMENT
};

fn table4_workloads(_: &Scale) -> Computed {
    let columns = [
        "workload",
        "suite",
        "paper MPKI",
        "synth MPKI",
        "wr frac",
        "uniq blocks",
    ];
    let title = "Table IV: workloads and their MPKIs (paper value vs synthesized)";
    let mut t = Table::new(title, &columns);
    for spec in all_workloads() {
        let records = TraceGenerator::new(spec.clone(), 1234, 0).take_records(50_000);
        let s = summarize(&records);
        let cells = vec![
            Cell::text(spec.suite),
            Fixed(2).cell(spec.mpki),
            Fixed(2).cell(s.mpki),
            Fixed(2).cell(s.write_fraction),
            Integer.cell(s.unique_blocks as f64),
        ];
        t.rows.push((spec.name.to_string(), cells));
    }
    (vec![t], vec![])
}

/// Ablation — Ring ORAM vs Path ORAM bandwidth (the claim String ORAM
/// builds on: Ring ORAM cuts overall bandwidth 2.3–4x and online
/// bandwidth far more, Ren et al. [17]).
const ABLATION_RING_VS_PATH: Experiment = Experiment {
    name: "ablation_ring_vs_path",
    compute: Some(ablation_ring_vs_path),
    footer: "Overall bandwidth advantage: {}x; online advantage: {}x. Paper reference ([17]): \
             2.3-4x overall; online >> (with the XOR trick Ring ORAM's online cost drops to ~1 \
             block, which we do not model).",
    ..EXPERIMENT
};

/// `f` of every plan of `accesses` accesses to `oram`, cycling over
/// `blocks` blocks.
fn per_plan<T>(
    oram: &mut dyn ObliviousProtocol,
    accesses: u64,
    blocks: u64,
    f: impl Fn(&AccessPlan) -> T,
) -> Vec<T> {
    let mut all = Vec::new();
    for i in 0..accesses {
        let outcome = oram.access(BlockId(i % blocks));
        all.extend(outcome.plans.iter().map(&f));
        oram.recycle_outcome(outcome);
    }
    all
}

fn ablation_ring_vs_path(_: &Scale) -> Computed {
    let accesses = 4000u64;
    let moved = |oram: &mut dyn ObliviousProtocol| {
        let blocks = per_plan(oram, accesses, 1 << 12, |p| (p.reads() + p.writes()) as u64);
        blocks.iter().sum::<u64>() as f64 / accesses as f64
    };
    // Path ORAM with the standard Z=4 over the paper-sized tree.
    let path_cfg = RingConfig {
        z: 4,
        ..RingConfig::hpca_default()
    };
    let path = moved(&mut PathOram::from_ring(path_cfg.z_slot(), 3));
    let path_online = 4.0 * f64::from(24 - 6); // Z blocks per off-chip level

    // Ring ORAM with the paper's bandwidth-optimal Z=8/S=12/A=8.
    let ring = moved(&mut RingOram::new(RingConfig::hpca_baseline(), 3));
    let ring_online = f64::from(24 - 6); // 1 block per off-chip level

    let columns = [
        "scheme",
        "blocks/access",
        "online blocks",
        "total x64B KiB/access",
    ];
    let title = "Ablation: Ring ORAM vs Path ORAM bandwidth (L=23, 6 cached levels)";
    let mut t = Table::new(title, &columns);
    for (label, blocks, online) in [
        ("Path ORAM", path, path_online),
        ("Ring ORAM", ring, ring_online),
    ] {
        let kib = Fixed(1).cell(blocks * 64.0 / 1024.0);
        let cells = vec![Fixed(1).cell(blocks), Integer.cell(online), kib];
        t.rows.push((label.to_string(), cells));
    }
    assert!(path / ring > 1.0, "Ring ORAM must win overall");
    (
        vec![t],
        vec![
            Fixed(2).cell(path / ring),
            Fixed(1).cell(path_online / ring_online),
        ],
    )
}

/// The cycles / normalised cycles / read and eviction conflict columns the
/// layout and address-mapping ablations share.
const fn conflict_columns(versus: &'static str) -> [Column; 4] {
    [
        col("cycles", CYCLES, Integer),
        col(versus, CYCLES, RATIO).over(Reference),
        col("read-conflict", READ_CONFLICT, PERCENT),
        col("evict-conflict", EVICT_CONFLICT, PERCENT),
    ]
}

/// Ablation — subtree layout vs naive breadth-first layout.
///
/// The paper builds on the subtree layout [19] as the best-known address
/// mapping for tree ORAM; this ablation quantifies how much it actually
/// buys on this memory system, and how the PB scheduler interacts with it
/// (PB recovers some of the locality the naive layout wastes).
const ABLATION_SUBTREE_LAYOUT: Experiment = Experiment {
    name: "ablation_subtree_layout",
    rows: BLACK,
    series: &[
        reference("subtree", Baseline, |c| c.layout = Subtree),
        series("naive", Baseline, |c| c.layout = Naive),
        series("subtree+PB", Pb, |c| c.layout = Subtree),
        series("naive+PB", Pb, |c| c.layout = Naive),
    ],
    tables: &[variants(
        "Ablation: subtree vs naive layout (black, {n} accesses/core)",
        "config",
        &conflict_columns("vs subtree"),
    )],
    footer: "Expected shape: the naive layout destroys eviction locality (its eviction conflict \
             rate approaches the read-path one) and costs double-digit percent execution time; \
             PB claws back part of it.",
    ..EXPERIMENT
};

/// Ablation — tree-top cache depth.
///
/// Table III fixes 6 cached levels; this sweep shows the sensitivity: each
/// cached level removes one block read per read path (and a full bucket
/// read+write per eviction) at an on-chip SRAM cost of
/// `(2^c - 1) x bucket` bytes.
const ABLATION_TREE_TOP_CACHE: Experiment = Experiment {
    name: "ablation_tree_top_cache",
    rows: BLACK,
    series: &[
        series("0", Baseline, |c| c.ring.tree_top_cached_levels = 0),
        series("2", Baseline, |c| c.ring.tree_top_cached_levels = 2),
        series("4", Baseline, |c| c.ring.tree_top_cached_levels = 4),
        reference("6", Baseline, |c| c.ring.tree_top_cached_levels = 6),
        series("8", Baseline, |c| c.ring.tree_top_cached_levels = 8),
    ],
    tables: &[variants(
        "Ablation: tree-top cache depth (baseline scheme, black, {n} accesses/core)",
        "cached lvls",
        &[
            col("cycles", CYCLES, Integer),
            col("vs 6", CYCLES, RATIO).over(Reference),
            col("sram KiB", tree_top_sram_kib, Fixed(0)),
            col("reads/path", READS_PER_PATH, Integer),
        ],
    )],
    footer: "Expected shape: execution time falls roughly linearly with cached depth while SRAM \
             cost doubles per level — level 6 (the paper's choice) buys 25% of the path for ~79 \
             KiB.",
    ..EXPERIMENT
};

const READS_PER_PATH: Extract =
    |r| f64::from(r.cfg.ring.levels - r.cfg.ring.tree_top_cached_levels);
fn tree_top_sram_kib(r: &Run) -> f64 {
    let buckets = (1u64 << r.cfg.ring.tree_top_cached_levels) - 1;
    (buckets * r.cfg.ring.bucket_bytes()) as f64 / 1024.0
}

/// Ablation — PB lookahead depth.
///
/// Algorithm 2 looks exactly one transaction ahead. This sweep asks what
/// deeper lookahead buys: more PRE/ACT candidates, but also more chances
/// to precharge a bank some intermediate transaction still wants (the
/// guard then suppresses the early issue).
const ABLATION_PB_DEPTH: Experiment = Experiment {
    name: "ablation_pb_depth",
    rows: BLACK,
    series: &[
        reference("0 (base)", Baseline, NO_EDIT),
        series("1", Pb, |c| look_ahead(c, 1)),
        series("2", Pb, |c| look_ahead(c, 2)),
        series("4", Pb, |c| look_ahead(c, 4)),
        series("8", Pb, |c| look_ahead(c, 8)),
    ],
    tables: &[variants(
        "Ablation: PB lookahead depth (black, {n} accesses/core)",
        "lookahead",
        &[
            col("cycles", CYCLES, Integer),
            col("vs base", CYCLES, RATIO).over(Reference),
            col("early PRE", |r| under_pb(r, EARLY_PRE), PERCENT),
            col("early ACT", |r| under_pb(r, EARLY_ACT), PERCENT),
        ],
    )],
    footer: "Expected shape: lookahead 1 captures most of the benefit (the paper's choice); \
             deeper windows add little because only the next transaction's banks are predictably \
             idle.",
    ..EXPERIMENT
};

fn look_ahead(cfg: &mut SystemConfig, lookahead: u64) {
    cfg.sched_policy = SchedulerPolicy::ProactiveBank { lookahead };
    // Deeper lookahead needs more transactions in flight to matter.
    cfg.max_inflight_txns = (lookahead as usize + 2).max(6);
}

/// `value` under a PB scheduler; not a number under the baseline's, which
/// has no early commands to count.
fn under_pb(r: &Run, value: Extract) -> f64 {
    match r.cfg.sched_policy {
        SchedulerPolicy::TransactionBased => f64::NAN,
        _ => value(r),
    }
}

/// Ablation — open-page vs adaptive close-page row-buffer management.
///
/// The paper assumes the open-page policy (§II-C). The strongest fair
/// competitor to PB under that assumption is an *adaptive* close-page
/// policy (precharge banks whose open row no queued request wants): like
/// PB it removes PRE from the critical path of future conflicts, but
/// without looking at the next ORAM transaction. The ablation shows the
/// adaptive policy recovers part of PB's gain for the baseline — and that
/// PB subsumes it (closed+PB ~ open+PB).
const ABLATION_PAGE_POLICY: Experiment = Experiment {
    name: "ablation_page_policy",
    rows: BLACK,
    series: &[
        reference("open/base", Baseline, |c| c.page_policy = Open),
        series("closed/base", Baseline, |c| c.page_policy = Closed),
        series("open/PB", Pb, |c| c.page_policy = Open),
        series("closed/PB", Pb, |c| c.page_policy = Closed),
    ],
    tables: &[variants(
        "Ablation: open-page vs close-page policy (black, {n} accesses/core)",
        "config",
        &[
            col("cycles", CYCLES, Integer),
            col("vs open/base", CYCLES, RATIO).over(Reference),
            col("evict hits", |r| hit_rate(r, OpKind::Eviction), PERCENT),
            col("read hits", |r| hit_rate(r, OpKind::ReadPath), PERCENT),
        ],
    )],
    footer: "Expected shape: adaptive close-page preserves pending hits but pre-closes cold rows, \
             recovering a slice of PB's gain for the baseline; adding it to PB changes almost \
             nothing — PB subsumes it while also pre-activating the next transaction's rows.",
    ..EXPERIMENT
};

fn hit_rate(r: &Run, kind: OpKind) -> f64 {
    let class = r.report.row_class(kind);
    class.hits as f64 / class.total().max(1) as f64
}

/// Ablation — the cost of ORAM transaction atomicity.
///
/// ORAM security requires memory transactions to issue atomically and in
/// order (paper §III-C); that barrier is exactly what idles banks and what
/// PB partially recovers *without* breaking the guarantee. This ablation
/// adds an **insecure** unconstrained FR-FCFS scheduler as the lower bound
/// and asks: how much of the gap does PB close legally?
const ABLATION_ATOMICITY_COST: Experiment = Experiment {
    name: "ablation_atomicity_cost",
    rows: BLACK,
    series: &[
        reference("txn-based", Baseline, NO_EDIT),
        WITH_PB,
        series("unconstrained", Baseline, |c| {
            c.sched_policy = SchedulerPolicy::Unconstrained
        }),
    ],
    tables: &[variants(
        "Ablation: cost of ORAM transaction atomicity (black, {n} accesses/core)",
        "scheduler",
        &[
            col("cycles", CYCLES, Integer),
            col("vs base", CYCLES, RATIO).over(Reference),
            col("secure?", SECURE, YesNo),
        ],
    )],
    // The share of the base-to-unconstrained gap that PB closes.
    quotes: |grid| {
        let cycles = |series: usize| CYCLES(&grid[0].1[series]);
        let closed = (cycles(0) - cycles(1)) / (cycles(0) - cycles(2)).max(1.0);
        vec![Percent(0).cell(closed)]
    },
    footer: "PB legally recovers {} of the performance the atomicity barrier costs \
             (unconstrained FR-FCFS breaks the ORAM access-sequence guarantee and is shown only \
             as the bound).",
    ..EXPERIMENT
};

const SECURE: Extract = |r| f64::from(r.cfg.sched_policy != SchedulerPolicy::Unconstrained);
/// Ablation — core memory-level parallelism.
///
/// The paper's cores are 128-entry-ROB OoO machines; this reproduction's
/// default core blocks on every miss (the conservative end). Because ORAM
/// serializes transactions at the controller anyway, extra MLP mostly
/// keeps the ORAM request queue non-empty — this ablation shows how far
/// that matters, and that the String ORAM improvement is robust to the
/// core model.
const ABLATION_MLP: Experiment = Experiment {
    name: "ablation_mlp",
    // libq has the highest MPKI: most sensitive to MLP.
    rows: &[
        ("1c/mlp1", "libq", |c| core_model(c, 1, 1)),
        ("1c/mlp2", "libq", |c| core_model(c, 1, 2)),
        ("1c/mlp4", "libq", |c| core_model(c, 1, 4)),
        ("1c/mlp8", "libq", |c| core_model(c, 1, 8)),
        ("4c/mlp1", "libq", |c| core_model(c, 4, 1)),
        ("4c/mlp2", "libq", |c| core_model(c, 4, 2)),
        ("4c/mlp4", "libq", |c| core_model(c, 4, 4)),
        ("4c/mlp8", "libq", |c| core_model(c, 4, 8)),
    ],
    series: &[BASE, WITH_ALL],
    tables: &[per_row(
        "Ablation: core MLP sensitivity (libq, {n} accesses/core)",
        "MLP",
        &[
            col("base cycles", CYCLES, Integer),
            col("ALL cycles", CYCLES, Integer).of(1),
            col("ALL saving", CYCLES, Saving).of(1).over(Reference),
        ],
    )],
    footer: "Expected shape: with one core, MLP keeps the ORAM pipeline fed and shortens the run; \
             with four cores the controller is already saturated and MLP is immaterial — evidence \
             that the paper's results do not hinge on the core model. The String ORAM saving \
             persists throughout.",
    ..EXPERIMENT
};

fn core_model(cfg: &mut SystemConfig, cores: usize, mlp: usize) {
    cfg.cores = cores;
    cfg.core_mlp = mlp;
}

/// Ablation — physical address mapping (paper §III-B).
///
/// The paper notes that "different address bit stripping schemes could
/// result in distinct path access patterns" and fixes
/// `row:bank:column:rank:channel:offset`. This ablation compares it with a
/// channel-in-MSBs mapping that gives each channel a contiguous region:
/// subtree row sets then live in a single channel, serializing the path's
/// block reads on one data bus.
const ABLATION_ADDRESS_MAPPING: Experiment = Experiment {
    name: "ablation_address_mapping",
    rows: BLACK,
    series: &[
        reference("striped", Baseline, |c| c.mapping = PaperStriped),
        series("sequential", Baseline, |c| c.mapping = Sequential),
        series("striped+PB", Pb, |c| c.mapping = PaperStriped),
        series("sequential+PB", Pb, |c| c.mapping = Sequential),
    ],
    tables: &[variants(
        "Ablation: address mapping (black, {n} accesses/core)",
        "config",
        &conflict_columns("vs striped"),
    )],
    footer: "Expected shape: the sequential mapping trades channel parallelism for fewer \
             conflicts (a whole subtree shares one bank's rows), but serializing each path on one \
             data bus costs more than the conflicts saved — vindicating the paper's striped \
             choice.",
    ..EXPERIMENT
};

/// Extension — the cost of a realistic (recursive) position map.
///
/// The paper, like most architecture-track ORAM work, assumes the position
/// map is free and on-chip. At the default scale that map is tens of
/// megabytes — far beyond Table I's 4 MB LLC. This extension stores it the
/// standard way (a recursion stack of smaller Ring ORAMs, Shi et al.) and
/// measures what the assumption hides — and whether String ORAM's
/// optimizations also help the recursive traffic.
const EXTENSION_RECURSION_COST: Experiment = Experiment {
    name: "extension_recursion_cost",
    rows: BLACK,
    series: &[
        reference("flat/base", Baseline, NO_EDIT),
        series("recursive/base", Baseline, recursive),
        series("flat/ALL", All, NO_EDIT),
        series("recursive/ALL", All, recursive),
    ],
    tables: &[variants(
        "Extension: recursive position map cost (black, {n} accesses/core)",
        "config",
        &[
            col("cycles", CYCLES, Integer),
            col("vs flat/base", CYCLES, RATIO).over(Reference),
            col("read txns", READ_TXNS, Integer),
        ],
    )],
    footer: "Expected shape: recursion multiplies read-path transactions by the stack depth (3x \
             here) and execution time correspondingly; CB+PB's relative improvement carries over \
             to the recursive traffic.",
    ..EXPERIMENT
};

const READ_TXNS: Extract = |r| r.report.transactions_by_kind["read"] as f64;
fn recursive(cfg: &mut SystemConfig) {
    cfg.recursion = Some(RecursionSettings {
        tracked_blocks: 1 << 23,
        positions_per_block: 16,
        max_onchip_entries: 1 << 16,
    });
}

/// Extension — DRAM energy per scheme.
///
/// USIMM carries a Micron-style DRAM power model; the paper reports only
/// performance, but both optimizations should also cut energy through
/// different terms: CB moves fewer blocks (dynamic RD/WR and ACT energy),
/// PB shortens runtime (background energy). This harness quantifies that.
const EXTENSION_ENERGY: Experiment = Experiment {
    name: "extension_energy",
    rows: BLACK,
    series: SCHEMES,
    tables: &[variants(
        "Extension: DRAM energy per scheme (black, {n} accesses/core)",
        "scheme",
        &[
            col("total uJ", |r| r.report.energy.total_uj(), Fixed(1)),
            col("vs base", |r| r.report.energy.total_uj(), RATIO).over(Reference),
            col("ACT uJ", |r| r.report.energy.activate_uj, Fixed(1)),
            col("RD/WR uJ", DATA_UJ, Fixed(1)),
            col("bkgnd uJ", |r| r.report.energy.background_uj, Fixed(1)),
        ],
    )],
    footer: "Expected shape: CB cuts dynamic energy (fewer blocks per eviction), PB cuts \
             background energy (shorter runtime); ALL compounds both.",
    ..EXPERIMENT
};

const DATA_UJ: Extract = |r| r.report.energy.read_uj + r.report.energy.write_uj;
/// Extension — String ORAM on DDR4 with bank groups.
///
/// The paper evaluates on DDR3-1600. DDR4 adds bank groups (tCCD_L/tRRD_L
/// penalties within a group) but twice the banks and a faster bus; this
/// extension checks that the CB/PB wins carry over to the newer interface —
/// the kind of robustness question a reviewer would ask.
const EXTENSION_DDR4: Experiment = Experiment {
    name: "extension_ddr4",
    rows: BLACK,
    series: &[
        reference("ddr3/Baseline", Baseline, NO_EDIT),
        series("ddr3/CB", Cb, NO_EDIT),
        series("ddr3/PB", Pb, NO_EDIT),
        series("ddr3/ALL", All, NO_EDIT),
        reference("ddr4/Baseline", Baseline, ddr4),
        series("ddr4/CB", Cb, ddr4),
        series("ddr4/PB", Pb, ddr4),
        series("ddr4/ALL", All, ddr4),
    ],
    tables: &[variants(
        "Extension: DDR3-1600 vs DDR4-2400 with bank groups (black, {n} accesses/core)",
        "config",
        &[
            col("cycles", CYCLES, Integer),
            col("wall ns", WALL_NS, Fixed(0)),
            col("vs own base", CYCLES, RATIO).over(Reference),
            col("read-conflict", READ_CONFLICT, PERCENT),
        ],
    )],
    footer: "Expected shape: DDR4's extra banks absorb more of the read path's scatter and the \
             faster clock shortens wall time, but the conflict structure — and therefore the \
             CB/PB relative wins — persist.",
    ..EXPERIMENT
};

const WALL_NS: Extract = |r| r.cfg.timing.cycles_to_ns(r.report.total_cycles);
fn ddr4(cfg: &mut SystemConfig) {
    cfg.geometry = DramGeometry::ddr4_default();
    cfg.timing = TimingParams::ddr4_2400();
}

/// Extension — broader applicability (paper §VII-F): the Proactive Bank
/// scheduler applied to *Path ORAM* traffic.
///
/// PB is protocol-agnostic: it needs only transaction-tagged requests. Path
/// ORAM's full-path read+write transactions have high row locality under
/// the subtree layout (few inter-transaction conflicts to hide), so PB's
/// benefit should be smaller than on Ring ORAM's conflict-heavy selective
/// reads — quantifying exactly why the paper pairs PB with Ring ORAM.
const EXTENSION_PB_ON_PATH_ORAM: Experiment = Experiment {
    name: "extension_pb_on_path_oram",
    compute: Some(extension_pb_on_path_oram),
    footer: "Expected shape: Path ORAM's full-path transactions are row-friendly (low conflict \
             rate), leaving PB little to hide; Ring ORAM's selective reads conflict heavily and \
             PB pays off — the paper's rationale for pairing PB with Ring ORAM, quantified.",
    ..EXPERIMENT
};

fn extension_pb_on_path_oram(scale: &Scale) -> Computed {
    let accesses = scale.accesses;
    // The engine's transactions, lowered to addresses by the subtree layout.
    let txns = |oram: &mut dyn ObliviousProtocol, cfg: &RingConfig| {
        let layout = TreeLayout::subtree(cfg, 16384);
        per_plan(oram, accesses as u64, 4096, |plan| {
            let touches = plan.touches.iter();
            let lowered = touches.map(|t| (PhysAddr(layout.addr_of(t.bucket, t.slot)), t.write));
            lowered.collect::<Vec<_>>()
        })
    };
    // Ring ORAM transactions, and Path ORAM's — full path read + write per
    // access — at the same tree height.
    let ring_cfg = RingConfig {
        levels: 18,
        tree_top_cached_levels: 4,
        ..RingConfig::hpca_baseline()
    };
    // A Path ORAM bucket is exactly Z slots, for the engine and the layout.
    let path_cfg = RingConfig {
        z: 4,
        ..ring_cfg.clone()
    }
    .z_slot();
    let path_txns = txns(&mut PathOram::from_ring(path_cfg.clone(), 3), &path_cfg);
    let ring_txns = txns(&mut RingOram::new(ring_cfg.clone(), 3), &ring_cfg);

    let columns = [
        "traffic",
        "finish",
        "PB finish",
        "PB saving",
        "conflict",
        "early PRE",
    ];
    let title = format!("Extension: PB on Path ORAM vs Ring ORAM traffic ({accesses} accesses)");
    let mut t = Table::new(title, &columns);
    for (label, txns) in [("path-oram", &path_txns), ("ring-oram", &ring_txns)] {
        let drive = |policy| drive_transactions(DramGeometry::hpca_default(), policy, txns);
        let (base, stats) = drive(SchedulerPolicy::TransactionBased);
        let (pb, early) = drive(SchedulerPolicy::proactive());
        let cells = vec![
            Integer.cell(base as f64),
            Integer.cell(pb as f64),
            Saving.cell(pb as f64 / base as f64),
            PERCENT.cell(stats.conflict_rate()),
            PERCENT.cell(early.early_precharge_fraction()),
        ];
        t.rows.push((label.to_string(), cells));
    }
    (vec![t], vec![])
}

/// Every experiment, in the order `cargo bench --bench paper` runs them
/// (`DESIGN.md` §6).
pub const EXPERIMENTS: &[Experiment] = &[
    FIG04_SPACE,
    FIG05_ROW_BUFFER,
    FIG08_PB_TIMELINE,
    FIG10_EXEC_TIME,
    FIG11_QUEUING,
    FIG12_BANK_IDLE,
    FIG13_CB_SENSITIVITY,
    FIG14_STASH_SIZE,
    FIG15_STASH_OCCUPANCY,
    TABLE5_CB_SPACE,
    TABLE4_WORKLOADS,
    ABLATION_RING_VS_PATH,
    ABLATION_SUBTREE_LAYOUT,
    ABLATION_TREE_TOP_CACHE,
    ABLATION_PB_DEPTH,
    ABLATION_PAGE_POLICY,
    ABLATION_ATOMICITY_COST,
    ABLATION_MLP,
    ABLATION_ADDRESS_MAPPING,
    EXTENSION_RECURSION_COST,
    EXTENSION_ENERGY,
    EXTENSION_DDR4,
    EXTENSION_PB_ON_PATH_ORAM,
];
