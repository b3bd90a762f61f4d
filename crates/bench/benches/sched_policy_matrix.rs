//! Scheduler-policy arena: every command-scheduling policy in `mem-sched`'s
//! policy lab (FR-FCFS transaction baseline, Proactive Bank, read-over-write,
//! speculative window, fixed cadence) over the cycle-accurate backend and
//! two workload mixes, recorded to `BENCH_sched_policy.json` at the repo
//! root (format: `schema::SCHED_POLICY`; the committed copy is re-validated by
//! the bench lib's tests and the CI smoke step). The functional backend has
//! no command scheduler, so its points could not differ by policy and are
//! not measured; policy × backend digest agreement is pinned by
//! `tests/sched_policy_matrix.rs` and `tests/backend_differential.rs`.
//!
//! One simulated core keeps the access order a pure function of the trace,
//! so *every* policy point of a workload must agree on the access digest —
//! the command scheduler may move PRE/ACT and reorder within a
//! transaction, never change what the ORAM controller requests. The emitted
//! document carries the digests and the `SCHED_POLICY` schema enforces the
//! equality, making every regeneration a 5-way differential run.
//!
//! The numbers quantify the paper's §IV argument: the transaction-based
//! baseline leaves banks idle waiting for the next transaction's commands,
//! Proactive Bank fills those slots with early PRE/ACT, and the two
//! generalizations (deferred write drains, deeper speculation windows) trade
//! the same idle slots differently. At full size the run asserts the
//! headline inline: read-over-write or speculative-window beats Proactive
//! Bank on mean cycles for at least one workload mix.
//!
//! `STRING_ORAM_POLICY_ACCESSES` scales the per-core trace (default 1500);
//! `STRING_ORAM_BENCH_JSON` overrides the output path (CI smoke writes to a
//! scratch file instead of the committed matrix).

use std::time::Instant;

use mem_sched::SchedulerPolicy;
use string_oram::{Scheme, SimReport, Simulation, SystemConfig, VerifyConfig};
use string_oram_bench::json::Value;
use string_oram_bench::schema::{finite, hex_digest, SCHED_POLICY};
use string_oram_bench::{env_or, traces_for};

const WORKLOADS: [&str; 2] = ["black", "stream"];
const TRACE_SEED: u64 = 11;

/// Every order-preserving policy, baseline first (the insecure
/// unconstrained ablation is deliberately absent: it has no digest to pin).
const POLICIES: [SchedulerPolicy; 5] = [
    SchedulerPolicy::TransactionBased,
    SchedulerPolicy::ProactiveBank { lookahead: 1 },
    SchedulerPolicy::ReadOverWrite { drain_bound: 8 },
    SchedulerPolicy::SpeculativeWindow { window: 4 },
    SchedulerPolicy::FixedCadence { period: 2 },
];

fn records_per_core() -> usize {
    env_or("STRING_ORAM_POLICY_ACCESSES", 1500)
}

fn cfg_for(policy: SchedulerPolicy) -> SystemConfig {
    let mut cfg = SystemConfig::hpca_default(Scheme::All);
    cfg.sched_policy = policy;
    // One core: the access sequence is then a pure function of the trace,
    // so the digest must agree across every policy.
    cfg.cores = 1;
    // Four transactions in flight: with the blocking default (MLP 1) the
    // queue never holds more than the current and the next transaction, so
    // every k-lookahead policy collapses to Proactive Bank and fixed
    // cadence has nothing to pace. MLP 4 is inside the `ablation_mlp`
    // range and gives the lab a real speculation window.
    cfg.core_mlp = 4;
    // Measurement configuration: no conformance tracing on the hot path.
    cfg.verify = VerifyConfig::off();
    cfg
}

struct Point {
    policy: SchedulerPolicy,
    workload: &'static str,
    report: SimReport,
    digest: u64,
    wall_s: f64,
}

impl Point {
    fn mean_cycles(&self) -> f64 {
        self.report.total_cycles as f64 / self.report.oram_accesses as f64
    }
}

fn measure(policy: SchedulerPolicy, workload: &'static str) -> Point {
    let cfg = cfg_for(policy);
    let traces = traces_for(&cfg, workload, records_per_core(), TRACE_SEED);
    let mut sim = Simulation::new(cfg, traces);
    sim.set_label(format!("sched/{}/{workload}", policy.name()));
    let t = Instant::now();
    let report = sim.run(u64::MAX).expect("policy run completes");
    Point {
        policy,
        workload,
        report,
        digest: sim.access_digest(),
        wall_s: t.elapsed().as_secs_f64(),
    }
}

fn point_json(p: &Point) -> Value {
    Value::object(vec![
        ("policy", p.policy.name().into()),
        ("backend", "cycle-accurate".into()),
        ("workload", p.workload.into()),
        ("oram_accesses", p.report.oram_accesses.into()),
        ("run_wall_ms", finite(p.wall_s * 1e3)),
        ("mean_cycles_per_access", finite(p.mean_cycles())),
        (
            "bank_idle_proportion",
            finite(p.report.bank_idle_proportion),
        ),
        (
            "pending_bank_idle_proportion",
            finite(p.report.pending_bank_idle_proportion),
        ),
        (
            "early_precharge_fraction",
            finite(p.report.early_precharge_fraction),
        ),
        (
            "early_activate_fraction",
            finite(p.report.early_activate_fraction),
        ),
        ("deferred_writes", p.report.deferred_writes.into()),
        ("withheld_issue_slots", p.report.withheld_issue_slots.into()),
        ("digest", hex_digest(p.digest).into()),
    ])
}

fn main() {
    let records = records_per_core();
    println!("# sched_policy: {records} records, 1 core, ALL scheme, workloads {WORKLOADS:?}");
    println!(
        "{:>8} {:>18} {:>9} {:>10} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "workload",
        "policy",
        "wall ms",
        "mean cyc",
        "idle %",
        "pidle %",
        "ePRE %",
        "eACT %",
        "defer wr",
        "withheld"
    );

    let mut points = Vec::new();
    // (workload, policy name, mean cycles) for the headline.
    let mut means: Vec<(&str, &str, f64)> = Vec::new();
    for workload in WORKLOADS {
        for policy in POLICIES {
            let p = measure(policy, workload);
            println!(
                "{:>8} {:>18} {:>9.1} {:>10.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>9} {:>9}",
                p.workload,
                p.policy.name(),
                p.wall_s * 1e3,
                p.mean_cycles(),
                p.report.bank_idle_proportion * 100.0,
                p.report.pending_bank_idle_proportion * 100.0,
                p.report.early_precharge_fraction * 100.0,
                p.report.early_activate_fraction * 100.0,
                p.report.deferred_writes,
                p.report.withheld_issue_slots,
            );
            means.push((workload, policy.name(), p.mean_cycles()));
            points.push(point_json(&p));
        }
    }

    // The headline the policy lab exists to measure: on at least one
    // workload mix, one of the generalized policies beats Proactive Bank on
    // mean cycles. Only asserted at representative trace sizes — short
    // smoke runs are warm-up-dominated and legitimately noisy.
    if records >= 1000 {
        let mean_of = |workload: &str, policy: &str| -> f64 {
            means
                .iter()
                .find(|(w, p, _)| *w == workload && *p == policy)
                .map(|(_, _, m)| *m)
                .expect("point present")
        };
        let challenger_wins = WORKLOADS.iter().any(|w| {
            let pb = mean_of(w, "proactive-bank");
            mean_of(w, "read-over-write") < pb || mean_of(w, "speculative-window") < pb
        });
        assert!(
            challenger_wins,
            "neither read-over-write nor speculative-window beat proactive-bank \
             on any workload mix: {means:?}"
        );
    }

    // Aborts unless every policy of a workload carries the same digest.
    SCHED_POLICY.write(vec![
        ("scheme", "All".into()),
        ("records_per_core", records.into()),
        ("cores", 1usize.into()),
        (
            "master_seed",
            cfg_for(SchedulerPolicy::TransactionBased).seed.into(),
        ),
        ("points", Value::Array(points)),
    ]);
}
