//! `stringoram` — command-line driver for one-off simulations.
//!
//! ```text
//! stringoram [--workload NAME] [--scheme baseline|cb|pb|all] [--accesses N]
//!            [--trace FILE.usimm] [--config FILE.json] [--set PATH=JSON]
//!            [--list-workloads] [--help]
//! ```
//!
//! Runs `SystemConfig::hpca_default(--scheme)` (seed 42) after `--config`
//! merges a JSON file into its tree (`string_oram_bench::config`) and each
//! `--set` sets one value: `--set ring.levels=20`, `--set protocol=path`.
//! `--trace` replays a USIMM trace.

use std::collections::BTreeMap;
use std::error::Error;
use std::process::ExitCode;

use ring_oram::OpKind;
use string_oram::{Scheme, ShardedSimulation, SimReport, SystemConfig};
use string_oram_bench::config::{self, Tree};
use string_oram_bench::json::{self, Value};
use string_oram_bench::traces_for;
use trace_synth::{all_workloads, by_name, usimm};

/// Every flag: long and short name and its value in the usage text (none:
/// it only prints).
const FLAGS: [(&str, &str, &str); 8] = [
    ("--workload", "-w", "NAME"),
    ("--scheme", "-s", "baseline|cb|pb|all"),
    ("--accesses", "-n", "N"),
    ("--trace", "", "FILE.usimm"),
    ("--config", "", "FILE.json"),
    ("--set", "", "PATH=JSON"),
    ("--list-workloads", "", ""),
    ("--help", "-h", ""),
];

/// The most trace records a run generates, `cores × --accesses`: 384 MiB of them.
const MAX_RECORDS: usize = 1 << 24;

fn run() -> Result<(), Box<dyn Error>> {
    // The command line as (long flag, value) pairs, in order.
    let (mut given, mut args) = (Vec::new(), std::env::args().skip(1));
    while let Some(arg) = args.next() {
        let flag = FLAGS
            .iter()
            .find(|f| arg == f.0 || (arg == f.1 && !arg.is_empty()));
        let Some(&(long, _, value)) = flag else {
            return Err(format!("unknown flag {arg:?} (try --help)").into());
        };
        if !value.is_empty() {
            given.push((long, args.next().ok_or(format!("{long} requires a value"))?));
            continue;
        }
        if long == "--help" {
            let flags: Vec<_> = FLAGS.iter().map(|f| format!("[{} {}]", f.0, f.2)).collect();
            let flags = flags.join("\n                  ").replace(" ]", "]");
            println!("usage: stringoram {flags}");
            return Ok(());
        }
        for w in all_workloads() {
            // `--list-workloads`, the other flag that only prints.
            println!("{:<8} {:<9} MPKI {:.2}", w.name, w.suite, w.mpki);
        }
        return Ok(());
    }
    // The run's own settings; the last one given wins.
    let run: BTreeMap<&str, &str> = given.iter().map(|(f, v)| (*f, v.as_str())).collect();
    let named = run.get("--scheme").copied().unwrap_or("all");
    let scheme = Scheme::ALL
        .into_iter()
        .find(|s| s.label().eq_ignore_ascii_case(named));
    let scheme = scheme.ok_or(format!("unknown scheme {named:?}"))?;
    let accesses: usize = match run.get("--accesses") {
        Some(n) => n.parse().map_err(|e| format!("bad --accesses: {e}"))?,
        None => 400,
    };
    let mut workload = run.get("--workload").copied().unwrap_or("black");

    let mut preset = SystemConfig::hpca_default(scheme);
    preset.seed = 42;
    let mut tree = preset.to_value();
    for (_, file) in given.iter().filter(|(f, _)| *f == "--config") {
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let from = json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        config::merge(&mut tree, from);
    }
    // Each value set on the command line: its path and the flag as typed.
    let mut edits = Vec::new();
    for (_, value) in given.iter().filter(|(f, _)| *f == "--set") {
        let (path, typed) = value
            .split_once('=')
            .ok_or(format!("--set {value}: no '='"))?;
        // `typed` is JSON, else a string; a decimal integer goes through
        // `u64`, so one above 2^53 stays exact.
        let leaf = typed.parse::<u64>().map(|n| n.to_value());
        let leaf = leaf.unwrap_or_else(|_| json::parse(typed).unwrap_or(Value::from(typed)));
        let nest = |v, key| Value::object(vec![(key, v)]);
        config::merge(&mut tree, path.rsplit('.').fold(leaf, nest));
        edits.push((path, format!("--set {value}")));
    }
    let cfg = SystemConfig::from_value(&tree)?;
    cfg.validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    // What the protocol runs with (`effective_ring`) must be what was set.
    let mut runs = cfg.clone();
    runs.ring = cfg.effective_ring();
    let (set, runs) = (cfg.to_value(), runs.to_value());
    let at = |v, path: &str| path.split('.').try_fold(v, Value::get);
    for (path, typed) in &edits {
        if let Some(runs) = at(&runs, path).filter(|&v| at(&set, path) != Some(v)) {
            let (scheme, protocol) = (scheme.label().to_lowercase(), cfg.protocol.label());
            let why = format!("--scheme {scheme} selects protocol {protocol}, which runs with");
            return Err(format!("{typed} has no effect: {why} {path} = {runs}").into());
        }
    }

    // A replay generates nothing, so a generator's flag beside it would be
    // ignored; the run is labelled by the file.
    let generator = given
        .iter()
        .find(|(f, _)| ["--workload", "--accesses"].contains(f));
    let traces = match (run.get("--trace"), generator) {
        (Some(path), Some((flag, value))) => {
            return Err(format!("{flag} {value} has no effect: --trace replays {path}").into());
        }
        (Some(path), None) => {
            let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            workload = path.rsplit_once('/').map_or(path, |(_, name)| name);
            vec![usimm::parse(std::io::BufReader::new(file))?; cfg.cores]
        }
        _ if cfg.cores.saturating_mul(accesses) > MAX_RECORDS => {
            let cores = cfg.cores;
            let most = format!("{cores} cores × --accesses must be at most {MAX_RECORDS}");
            return Err(format!("--accesses {accesses} is too many: {most}").into());
        }
        _ => {
            let unknown = format!("unknown workload {workload:?} (try --list-workloads)");
            by_name(workload).ok_or(unknown)?;
            traces_for(&cfg, workload, accesses, cfg.seed)
        }
    };
    let mut sim = ShardedSimulation::try_new(cfg, traces)?;
    sim.set_label(format!("{workload}/{scheme}"));
    let r = sim.run(u64::MAX)?;
    print_report(&r);
    if sim.config().verify.enabled {
        println!("violations      {}", r.violations.len());
    }
    match r.violations.first() {
        Some(first) => Err(format!("{} violations, the first: {first}", r.violations.len()).into()),
        None => Ok(()),
    }
}

fn print_report(r: &SimReport) {
    let (k, l, p) = (&r.cycles_by_kind, &r.read_latency, &r.protocol);
    let txns: Vec<_> = r.transactions_by_kind.iter().collect();
    println!("run             {}", r.label);
    println!("cycles          {}", r.total_cycles);
    println!("instructions    {}", r.instructions);
    println!("oram accesses   {}", r.oram_accesses);
    println!("mem requests    {}", r.requests_completed);
    println!("txns            {txns:?}");
    let (read, evict, reshuffle, other) = (k.read, k.evict, k.reshuffle, k.other);
    println!("cycles by kind  read {read} | evict {evict} | reshuffle {reshuffle} | other {other}");
    for kind in [OpKind::ReadPath, OpKind::Eviction, OpKind::EarlyReshuffle] {
        let (c, name) = (r.row_class(kind), format!("rowbuf {}", kind.label()));
        let share = |n: u64| n as f64 / c.total() as f64 * 100.0;
        let (hit, miss) = (share(c.hits), share(c.misses));
        let conflict = c.conflict_rate() * 100.0;
        if c.total() > 0 {
            println!("{name:<15} hit {hit:>6.1}% | miss {miss:>6.1}% | conflict {conflict:>6.1}%");
        }
    }
    let (read, write) = (r.mean_read_queue_wait, r.mean_write_queue_wait);
    print!("queue waits     read {read:.1} cyc | write {write:.1} cyc | ");
    println!("occupancy {:.1}", r.mean_queue_occupancy);
    let idle = r.bank_idle_proportion * 100.0;
    let pending = r.pending_bank_idle_proportion * 100.0;
    println!("bank idle       {idle:.1}% overall | {pending:.1}% while work pending");
    let pre = r.early_precharge_fraction * 100.0;
    let act = r.early_activate_fraction * 100.0;
    println!("PB early        PRE {pre:.1}% | ACT {act:.1}%");
    let (energy, imbalance) = (r.energy.total_uj(), r.channel_imbalance);
    println!("energy          {energy:.1} uJ total | channel imbalance {imbalance:.3}");
    let (p50, p95, p99, max) = (l.p50, l.p95, l.p99, l.max);
    println!("read latency    p50 {p50} | p95 {p95} | p99 {p99} | max {max} cycles");
    let (greens, early) = (p.greens_per_read(), p.early_reshuffles);
    print!("protocol        greens/read {greens:.3} | early reshuffles {early} | ");
    let peak = p.stash_samples.iter().max().copied().unwrap_or(0);
    println!(
        "bg evictions {} | stash peak {peak}",
        p.background_evictions
    );
}

fn main() -> ExitCode {
    let Err(e) = run() else {
        return ExitCode::SUCCESS;
    };
    eprintln!("error: {e}");
    ExitCode::FAILURE
}
