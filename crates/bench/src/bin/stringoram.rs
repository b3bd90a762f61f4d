//! `stringoram` — command-line driver for one-off simulations.
//!
//! ```text
//! stringoram [--workload NAME] [--scheme baseline|cb|pb|all]
//!            [--accesses N] [--y N] [--stash N] [--levels N]
//!            [--seed N] [--layout subtree|naive] [--page open|closed]
//!            [--load FRACTION] [--trace FILE.usimm] [--list-workloads]
//!            [--help]
//! ```
//!
//! Runs the paper-default system with the given overrides and prints the
//! full report. `--load` sets the tree's initial load factor (the fraction
//! of real-block capacity filled before the run). `--trace` replaces the
//! synthetic workload with a USIMM format trace file (each core replays
//! the same trace).

use std::process::ExitCode;

use mem_sched::PagePolicy;
use ring_oram::OpKind;
use string_oram::{LayoutKind, Scheme, Simulation, SystemConfig};
use trace_synth::{all_workloads, by_name, usimm, TraceGenerator, TraceRecord};

struct Options {
    workload: String,
    scheme: Scheme,
    accesses: usize,
    y: Option<u32>,
    stash: Option<usize>,
    levels: Option<u32>,
    seed: u64,
    layout: LayoutKind,
    page: PagePolicy,
    trace: Option<String>,
    load: Option<f64>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            workload: "black".into(),
            scheme: Scheme::All,
            accesses: 400,
            y: None,
            stash: None,
            levels: None,
            seed: 42,
            layout: LayoutKind::Subtree,
            page: PagePolicy::Open,
            trace: None,
            load: None,
        }
    }
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--workload" | "-w" => opts.workload = value("--workload")?,
            "--scheme" | "-s" => {
                opts.scheme = match value("--scheme")?.to_lowercase().as_str() {
                    "baseline" => Scheme::Baseline,
                    "cb" => Scheme::Cb,
                    "pb" => Scheme::Pb,
                    "all" => Scheme::All,
                    other => return Err(format!("unknown scheme {other:?}")),
                }
            }
            "--accesses" | "-n" => {
                opts.accesses = value("--accesses")?
                    .parse()
                    .map_err(|e| format!("bad --accesses: {e}"))?;
            }
            "--y" => {
                opts.y = Some(value("--y")?.parse().map_err(|e| format!("bad --y: {e}"))?);
            }
            "--stash" => {
                opts.stash = Some(
                    value("--stash")?
                        .parse()
                        .map_err(|e| format!("bad --stash: {e}"))?,
                );
            }
            "--levels" => {
                opts.levels = Some(
                    value("--levels")?
                        .parse()
                        .map_err(|e| format!("bad --levels: {e}"))?,
                );
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--layout" => {
                opts.layout = match value("--layout")?.to_lowercase().as_str() {
                    "subtree" => LayoutKind::Subtree,
                    "naive" => LayoutKind::Naive,
                    other => return Err(format!("unknown layout {other:?}")),
                }
            }
            "--page" => {
                opts.page = match value("--page")?.to_lowercase().as_str() {
                    "open" => PagePolicy::Open,
                    "closed" => PagePolicy::Closed,
                    other => return Err(format!("unknown page policy {other:?}")),
                }
            }
            "--trace" => opts.trace = Some(value("--trace")?),
            "--load" => {
                opts.load = Some(
                    value("--load")?
                        .parse()
                        .map_err(|e| format!("bad --load: {e}"))?,
                );
            }
            "--list-workloads" => {
                for w in all_workloads() {
                    println!("{:<8} {:<9} MPKI {:.2}", w.name, w.suite, w.mpki);
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                println!(
                    "usage: stringoram [--workload NAME] [--scheme baseline|cb|pb|all]\n\
                     \x20                 [--accesses N] [--y N] [--stash N] [--levels N]\n\
                     \x20                 [--seed N] [--layout subtree|naive] [--page open|closed]\n\
                     \x20                 [--load FRACTION] [--trace FILE.usimm] [--list-workloads]\n\
                     \x20                 [--help]"
                );
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut cfg = SystemConfig::hpca_default(opts.scheme);
    cfg.seed = opts.seed;
    cfg.layout = opts.layout;
    cfg.page_policy = opts.page;
    if let Some(y) = opts.y {
        cfg.ring.y = y;
    }
    if let Some(stash) = opts.stash {
        cfg.ring.stash_capacity = stash;
    }
    if let Some(levels) = opts.levels {
        cfg.ring.levels = levels;
    }
    if let Some(load) = opts.load {
        cfg.load_factor = load;
    }
    if let Err(e) = cfg.validate() {
        eprintln!("error: invalid configuration: {e}");
        return ExitCode::FAILURE;
    }
    // `--scheme baseline|pb` selects plain Ring, which runs without Compact
    // Bucket whatever `y` says: refuse the pair rather than ignore `--y`.
    let effective_y = cfg.effective_ring().y;
    if cfg.ring.y != effective_y {
        eprintln!(
            "error: --y {} has no effect under --scheme {}, which runs with y = {effective_y} \
             (use --scheme cb or all)",
            cfg.ring.y,
            opts.scheme.label().to_lowercase()
        );
        return ExitCode::FAILURE;
    }

    let traces: Vec<Vec<TraceRecord>> = match &opts.trace {
        Some(path) => {
            let file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error: cannot open {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match usimm::parse(std::io::BufReader::new(file)) {
                Ok(t) => (0..cfg.cores).map(|_| t.clone()).collect(),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            let Some(spec) = by_name(&opts.workload) else {
                eprintln!(
                    "error: unknown workload {:?} (try --list-workloads)",
                    opts.workload
                );
                return ExitCode::FAILURE;
            };
            (0..cfg.cores)
                .map(|c| {
                    TraceGenerator::new(spec.clone(), opts.seed, c as u32)
                        .take_records(opts.accesses)
                })
                .collect()
        }
    };

    let mut sim = match Simulation::try_new(cfg, traces) {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    sim.set_label(format!("{}/{}", opts.workload, opts.scheme));
    let r = match sim.run(u64::MAX) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("run             {}", r.label);
    println!("cycles          {}", r.total_cycles);
    println!("instructions    {}", r.instructions);
    println!("oram accesses   {}", r.oram_accesses);
    println!("mem requests    {}", r.requests_completed);
    println!(
        "txns            {:?}",
        r.transactions_by_kind.iter().collect::<Vec<_>>()
    );
    println!(
        "cycles by kind  read {} | evict {} | reshuffle {} | other {}",
        r.cycles_by_kind.read,
        r.cycles_by_kind.evict,
        r.cycles_by_kind.reshuffle,
        r.cycles_by_kind.other
    );
    for kind in [OpKind::ReadPath, OpKind::Eviction, OpKind::EarlyReshuffle] {
        let c = r.row_class(kind);
        if c.total() > 0 {
            println!(
                "{:<15} hit {:>6.1}% | miss {:>6.1}% | conflict {:>6.1}%",
                format!("rowbuf {}", kind.label()),
                c.hits as f64 / c.total() as f64 * 100.0,
                c.misses as f64 / c.total() as f64 * 100.0,
                c.conflict_rate() * 100.0
            );
        }
    }
    println!(
        "queue waits     read {:.1} cyc | write {:.1} cyc | occupancy {:.1}",
        r.mean_read_queue_wait, r.mean_write_queue_wait, r.mean_queue_occupancy
    );
    println!(
        "bank idle       {:.1}% overall | {:.1}% while work pending",
        r.bank_idle_proportion * 100.0,
        r.pending_bank_idle_proportion * 100.0
    );
    println!(
        "PB early        PRE {:.1}% | ACT {:.1}%",
        r.early_precharge_fraction * 100.0,
        r.early_activate_fraction * 100.0
    );
    println!(
        "energy          {:.1} uJ total | channel imbalance {:.3}",
        r.energy.total_uj(),
        r.channel_imbalance
    );
    println!(
        "read latency    p50 {} | p95 {} | p99 {} | max {} cycles",
        r.read_latency.p50, r.read_latency.p95, r.read_latency.p99, r.read_latency.max
    );
    println!(
        "protocol        greens/read {:.3} | early reshuffles {} | bg evictions {} | stash peak {}",
        r.protocol.greens_per_read(),
        r.protocol.early_reshuffles,
        r.protocol.background_evictions,
        r.protocol.stash_samples.iter().max().copied().unwrap_or(0)
    );
    ExitCode::SUCCESS
}
