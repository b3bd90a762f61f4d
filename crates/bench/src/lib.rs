//! # string-oram-bench — experiment harnesses for the HPCA 2021 figures
//!
//! Each `[[bench]]` target regenerates one table or figure of the paper
//! (see `DESIGN.md` §5 for the index), printing paper-style rows to stdout.
//! Shared machinery lives here: workload runners, result tables and
//! normalization helpers.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod json;

use std::io::Write;
use std::sync::Mutex;

use json::Value;

use string_oram::{Scheme, SimReport, Simulation, SystemConfig};
use trace_synth::{by_name, TraceGenerator, TraceRecord};

/// Open CSV sink for the current table, when `STRING_ORAM_CSV_DIR` is set.
static CSV_SINK: Mutex<Option<std::fs::File>> = Mutex::new(None);

fn slugify(title: &str) -> String {
    title
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_")
        .chars()
        .take(60)
        .collect()
}

/// Default number of ORAM accesses (trace records) per core for figure
/// harness runs. Override with the `STRING_ORAM_ACCESSES` environment
/// variable to trade accuracy for time.
#[must_use]
pub fn accesses_per_core() -> usize {
    std::env::var("STRING_ORAM_ACCESSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400)
}

/// Generates the per-core traces for a workload under a config.
#[must_use]
pub fn traces_for(
    cfg: &SystemConfig,
    workload: &str,
    n: usize,
    seed: u64,
) -> Vec<Vec<TraceRecord>> {
    let spec = by_name(workload).unwrap_or_else(|| panic!("unknown workload {workload}"));
    (0..cfg.cores)
        .map(|c| TraceGenerator::new(spec.clone(), seed, c as u32).take_records(n))
        .collect()
}

/// Warm-up accesses per core before measurement begins (default 0).
/// Set `STRING_ORAM_WARMUP=<n>` to exclude the first `n` accesses per core
/// from every figure's counters — useful for steady-state rates such as
/// greens/read.
#[must_use]
pub fn warmup_per_core() -> usize {
    std::env::var("STRING_ORAM_WARMUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Runs `workload` under `cfg` for `n` accesses per core (plus any
/// configured warm-up, which is excluded from the report).
///
/// # Panics
///
/// Panics if the simulation exceeds its generous cycle budget (wedged).
#[must_use]
pub fn run_config(cfg: SystemConfig, workload: &str, n: usize, label: &str) -> SimReport {
    let warmup = warmup_per_core();
    let cores = cfg.cores;
    let traces = traces_for(&cfg, workload, n + warmup, 0xBEEF);
    let mut sim = Simulation::new(cfg, traces);
    sim.set_label(label);
    if warmup > 0 {
        let warm_accesses = (warmup * cores) as u64;
        while sim.oram_accesses() < warm_accesses && !sim.is_finished() {
            sim.step();
        }
        sim.begin_measurement();
    }
    while !sim.is_finished() {
        sim.step();
    }
    sim.report()
}

/// Runs `workload` under the paper's default configuration for a scheme.
/// When `STRING_ORAM_SEEDS=k` (k > 1) is set, the run is repeated over `k`
/// trace seeds and the report of the *median-cycles* run is returned, for
/// noise-robust figures.
#[must_use]
pub fn run_scheme(scheme: Scheme, workload: &str, n: usize) -> SimReport {
    let seeds: u64 = std::env::var("STRING_ORAM_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let mut reports: Vec<SimReport> = (0..seeds.max(1))
        .map(|s| {
            let cfg = SystemConfig::hpca_default(scheme);
            let traces = traces_for(&cfg, workload, n, 0xBEEF ^ (s * 0x9E37));
            let mut sim = Simulation::new(cfg, traces);
            sim.set_label(format!("{workload}/{scheme}"));
            sim.run(u64::MAX).expect("simulation completes")
        })
        .collect();
    reports.sort_by_key(|r| r.total_cycles);
    reports.swap_remove(reports.len() / 2)
}

/// The paper's ten workload names, figure order.
#[must_use]
pub fn workload_names() -> Vec<&'static str> {
    trace_synth::all_workloads()
        .iter()
        .map(|w| w.name)
        .collect()
}

/// Prints a separator + centered title, figure-style. When the
/// `STRING_ORAM_CSV_DIR` environment variable names a directory, every
/// subsequent [`print_row`] is also appended to
/// `<dir>/<slug-of-title>.csv` for plotting.
pub fn print_header(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
    let mut sink = CSV_SINK.lock().expect("csv sink");
    *sink = std::env::var("STRING_ORAM_CSV_DIR").ok().and_then(|dir| {
        std::fs::create_dir_all(&dir).ok()?;
        let path = std::path::Path::new(&dir).join(format!("{}.csv", slugify(title)));
        std::fs::File::create(path).ok()
    });
}

/// Prints one table row: a label column then fixed-width value columns.
/// Mirrored to the active CSV sink, if any (see [`print_header`]).
pub fn print_row(label: &str, values: &[String]) {
    print!("{label:<12}");
    for v in values {
        print!(" {v:>12}");
    }
    println!();
    if let Some(f) = CSV_SINK.lock().expect("csv sink").as_mut() {
        let mut line = String::from(label);
        for v in values {
            line.push(',');
            // Strip display-only decorations for machine consumption.
            line.push_str(v.trim().trim_end_matches('%'));
        }
        let _ = writeln!(f, "{line}");
    }
}

fn require<'a>(obj: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing \"{key}\""))
}

fn require_u64(obj: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    require(obj, key, ctx)?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: \"{key}\" is not a non-negative integer"))
}

fn require_positive(obj: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    match require(obj, key, ctx)?.as_f64() {
        Some(n) if n > 0.0 => Ok(n),
        _ => Err(format!("{ctx}: \"{key}\" is not a positive number")),
    }
}

/// Validates a parsed `BENCH_shard_scaling.json` document against the
/// schema documented in `EXPERIMENTS.md` — required keys, types, shard
/// counts that are powers of two, per-shard wall arrays of matching
/// length, and a well-formed 16-hex-digit merged digest. It does not judge
/// how *fast* the recorded numbers are, but it does enforce one physical
/// consistency bound: the measured threaded wall cannot exceed the summed
/// isolated shard walls beyond a noise allowance (`x1.25 + 2ms`), because
/// the threaded run does strictly no more simulation work than running
/// every shard back to back — a larger measured wall means the timers or
/// the threading are broken, not the machine slow.
///
/// # Errors
///
/// A message naming the first offending key or element.
pub fn validate_shard_scaling(doc: &Value) -> Result<(), String> {
    let ctx = "shard_scaling";
    match require(doc, "bench", ctx)?.as_str() {
        Some("shard_scaling") => {}
        _ => return Err(format!("{ctx}: \"bench\" must be \"shard_scaling\"")),
    }
    require_u64(doc, "schema_version", ctx)?;
    if require_u64(doc, "host_parallelism", ctx)? == 0 {
        return Err(format!("{ctx}: \"host_parallelism\" must be >= 1"));
    }
    require(doc, "workload", ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: \"workload\" is not a string"))?;
    require(doc, "scheme", ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: \"scheme\" is not a string"))?;
    require_u64(doc, "records_per_core", ctx)?;
    require_u64(doc, "cores", ctx)?;
    require_u64(doc, "master_seed", ctx)?;

    let backends = require(doc, "backends", ctx)?
        .as_array()
        .ok_or_else(|| format!("{ctx}: \"backends\" is not an array"))?;
    if backends.is_empty() {
        return Err(format!("{ctx}: \"backends\" is empty"));
    }
    for entry in backends {
        let name = require(entry, "backend", ctx)?
            .as_str()
            .ok_or_else(|| format!("{ctx}: backend name is not a string"))?
            .to_string();
        if !matches!(name.as_str(), "cycle-accurate" | "fast-functional") {
            return Err(format!("{ctx}: unknown backend \"{name}\""));
        }
        let points = require(entry, "points", &name)?
            .as_array()
            .ok_or_else(|| format!("{name}: \"points\" is not an array"))?;
        if points.is_empty() {
            return Err(format!("{name}: \"points\" is empty"));
        }
        for point in points {
            let shards = require_u64(point, "shards", &name)?;
            let pctx = format!("{name}/shards={shards}");
            if shards == 0 || !shards.is_power_of_two() {
                return Err(format!("{pctx}: shard count is not a power of two"));
            }
            require_u64(point, "oram_accesses", &pctx)?;
            require_u64(point, "total_cycles", &pctx)?;
            require_u64(point, "makespan_cycles", &pctx)?;
            require_positive(point, "setup_wall_ms", &pctx)?;
            require_positive(point, "run_wall_ms", &pctx)?;
            let measured = require_positive(point, "measured_wall_ms", &pctx)?;
            require_positive(point, "measured_speedup_vs_n1", &pctx)?;
            require_positive(point, "measured_accesses_per_sec", &pctx)?;
            require_positive(point, "projected_parallel_ms", &pctx)?;
            require_positive(point, "projected_accesses_per_sec", &pctx)?;
            let digest = require(point, "merged_digest", &pctx)?
                .as_str()
                .ok_or_else(|| format!("{pctx}: \"merged_digest\" is not a string"))?;
            let hex = digest
                .strip_prefix("0x")
                .ok_or_else(|| format!("{pctx}: digest lacks 0x prefix"))?;
            if hex.len() != 16 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
                return Err(format!("{pctx}: digest is not 16 hex digits"));
            }
            let walls = require(point, "shard_wall_ms", &pctx)?
                .as_array()
                .ok_or_else(|| format!("{pctx}: \"shard_wall_ms\" is not an array"))?;
            if walls.len() as u64 != shards {
                return Err(format!(
                    "{pctx}: {} per-shard walls for {shards} shards",
                    walls.len()
                ));
            }
            if !walls
                .iter()
                .all(|w| matches!(w.as_f64(), Some(n) if n > 0.0))
            {
                return Err(format!("{pctx}: non-positive per-shard wall"));
            }
            let wall_sum: f64 = walls.iter().filter_map(Value::as_f64).sum();
            let bound = wall_sum * 1.25 + 2.0;
            if measured > bound {
                return Err(format!(
                    "{pctx}: measured wall {measured:.3}ms exceeds the summed isolated shard \
                     walls {wall_sum:.3}ms beyond tolerance ({bound:.3}ms) — the threaded run \
                     does no more work than all shards serially"
                ));
            }
        }
    }
    Ok(())
}

/// Validates a parsed `BENCH_protocol_matrix.json` document against the
/// schema documented in `EXPERIMENTS.md`: every protocol × backend pair
/// present exactly once (4 protocols × 2 backends = 8 points), positive
/// finite rates and latencies (the hand-rolled JSON layer cannot even
/// represent NaN/inf, and the positivity checks reject any sentinel that
/// would stand in for one), well-formed 16-hex-digit access digests, and —
/// the protocol-layer security property — the same protocol's digest equal
/// across both backends, because memory timing may change *when* things
/// happen but never *what* the bus observes.
///
/// # Errors
///
/// A message naming the first offending key or element.
pub fn validate_protocol_matrix(doc: &Value) -> Result<(), String> {
    const PROTOCOLS: [&str; 4] = ["ring-cb", "ring", "path", "circuit"];
    const BACKENDS: [&str; 2] = ["cycle-accurate", "fast-functional"];
    let ctx = "protocol_matrix";
    match require(doc, "bench", ctx)?.as_str() {
        Some("protocol_matrix") => {}
        _ => return Err(format!("{ctx}: \"bench\" must be \"protocol_matrix\"")),
    }
    require_u64(doc, "schema_version", ctx)?;
    require(doc, "workload", ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: \"workload\" is not a string"))?;
    require(doc, "scheme", ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: \"scheme\" is not a string"))?;
    require_u64(doc, "records_per_core", ctx)?;
    require_u64(doc, "cores", ctx)?;
    require_u64(doc, "master_seed", ctx)?;

    let points = require(doc, "points", ctx)?
        .as_array()
        .ok_or_else(|| format!("{ctx}: \"points\" is not an array"))?;
    let mut seen: Vec<(String, String)> = Vec::new();
    let mut digests: Vec<(String, String)> = Vec::new();
    for point in points {
        let protocol = require(point, "protocol", ctx)?
            .as_str()
            .ok_or_else(|| format!("{ctx}: \"protocol\" is not a string"))?
            .to_string();
        if !PROTOCOLS.contains(&protocol.as_str()) {
            return Err(format!("{ctx}: unknown protocol \"{protocol}\""));
        }
        let backend = require(point, "backend", ctx)?
            .as_str()
            .ok_or_else(|| format!("{ctx}: \"backend\" is not a string"))?
            .to_string();
        if !BACKENDS.contains(&backend.as_str()) {
            return Err(format!("{ctx}: unknown backend \"{backend}\""));
        }
        let pctx = format!("{protocol}/{backend}");
        if seen.contains(&(protocol.clone(), backend.clone())) {
            return Err(format!("{pctx}: duplicate point"));
        }
        if require_u64(point, "oram_accesses", &pctx)? == 0 {
            return Err(format!("{pctx}: \"oram_accesses\" must be >= 1"));
        }
        require_positive(point, "run_wall_ms", &pctx)?;
        require_positive(point, "accesses_per_sec", &pctx)?;
        require_positive(point, "mean_latency_cycles", &pctx)?;
        let p99 = require_u64(point, "p99_latency_cycles", &pctx)?;
        if p99 == 0 {
            return Err(format!("{pctx}: \"p99_latency_cycles\" must be >= 1"));
        }
        let digest = require(point, "digest", &pctx)?
            .as_str()
            .ok_or_else(|| format!("{pctx}: \"digest\" is not a string"))?;
        let hex = digest
            .strip_prefix("0x")
            .ok_or_else(|| format!("{pctx}: digest lacks 0x prefix"))?;
        if hex.len() != 16 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(format!("{pctx}: digest is not 16 hex digits"));
        }
        if let Some((_, other)) = digests.iter().find(|(p, _)| *p == protocol) {
            if other != digest {
                return Err(format!(
                    "{pctx}: digest {digest} disagrees with the other backend's {other} — \
                     the bus-visible sequence must be timing-independent"
                ));
            }
        } else {
            digests.push((protocol.clone(), digest.to_string()));
        }
        seen.push((protocol, backend));
    }
    if seen.len() != PROTOCOLS.len() * BACKENDS.len() {
        return Err(format!(
            "{ctx}: {} points, expected exactly {} (every protocol x backend pair once)",
            seen.len(),
            PROTOCOLS.len() * BACKENDS.len()
        ));
    }
    Ok(())
}

fn require_fraction(obj: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    let v = require(obj, key, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: \"{key}\" is not a number"))?;
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("{ctx}: \"{key}\" must be in [0, 1], got {v}"));
    }
    Ok(v)
}

fn require_digest(obj: &Value, key: &str, ctx: &str) -> Result<String, String> {
    let digest = require(obj, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: \"{key}\" is not a string"))?;
    let hex = digest
        .strip_prefix("0x")
        .ok_or_else(|| format!("{ctx}: \"{key}\" lacks 0x prefix"))?;
    if hex.len() != 16 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!("{ctx}: \"{key}\" is not 16 hex digits"));
    }
    Ok(digest.to_string())
}

/// Validates a parsed `BENCH_service_load.json` document against the
/// schema documented in `EXPERIMENTS.md`: every submission mode × backend
/// pair present exactly once (2 × 2 = 4 points), per-tenant conservation
/// (each arrival resolved exactly once as completed, timed out or
/// rejected — the serving layer's exactly-once guarantee, checked in the
/// committed artifact itself), ordered latency percentiles, no padding
/// under best-effort, and — the timing-channel property — identical
/// fixed-rate schedule digests across backends, because the fixed-rate
/// submission envelope is a pure function of the clock and may not depend
/// on memory timing any more than on tenant load.
///
/// # Errors
///
/// A message naming the first offending key or element.
pub fn validate_service_load(doc: &Value) -> Result<(), String> {
    const MODES: [&str; 2] = ["best-effort", "fixed-rate"];
    const BACKENDS: [&str; 2] = ["cycle-accurate", "fast-functional"];
    let ctx = "service_load";
    match require(doc, "bench", ctx)?.as_str() {
        Some("service_load") => {}
        _ => return Err(format!("{ctx}: \"bench\" must be \"service_load\"")),
    }
    require_u64(doc, "schema_version", ctx)?;
    require_u64(doc, "master_seed", ctx)?;
    if require_u64(doc, "horizon", ctx)? == 0 {
        return Err(format!("{ctx}: \"horizon\" must be >= 1"));
    }
    let tenant_count = require_u64(doc, "tenants", ctx)?;
    if tenant_count == 0 {
        return Err(format!("{ctx}: \"tenants\" must be >= 1"));
    }

    let points = require(doc, "points", ctx)?
        .as_array()
        .ok_or_else(|| format!("{ctx}: \"points\" is not an array"))?;
    let mut seen: Vec<(String, String)> = Vec::new();
    let mut fixed_rate_digest: Option<String> = None;
    for point in points {
        let mode = require(point, "mode", ctx)?
            .as_str()
            .ok_or_else(|| format!("{ctx}: \"mode\" is not a string"))?
            .to_string();
        if !MODES.contains(&mode.as_str()) {
            return Err(format!("{ctx}: unknown mode \"{mode}\""));
        }
        let backend = require(point, "backend", ctx)?
            .as_str()
            .ok_or_else(|| format!("{ctx}: \"backend\" is not a string"))?
            .to_string();
        if !BACKENDS.contains(&backend.as_str()) {
            return Err(format!("{ctx}: unknown backend \"{backend}\""));
        }
        let pctx = format!("{mode}/{backend}");
        if seen.contains(&(mode.clone(), backend.clone())) {
            return Err(format!("{pctx}: duplicate point"));
        }
        require(point, "policy", &pctx)?
            .as_str()
            .ok_or_else(|| format!("{pctx}: \"policy\" is not a string"))?;
        if require_u64(point, "ticks", &pctx)? == 0 {
            return Err(format!("{pctx}: \"ticks\" must be >= 1"));
        }
        let real = require_u64(point, "real_accesses", &pctx)?;
        let padding = require_u64(point, "padding_accesses", &pctx)?;
        if real + padding == 0 {
            return Err(format!("{pctx}: no accesses were dispatched"));
        }
        if mode == "best-effort" && padding != 0 {
            return Err(format!(
                "{pctx}: best-effort submission never pads, got {padding} cover accesses"
            ));
        }
        require_fraction(point, "padding_overhead", &pctx)?;
        require_fraction(point, "shed_rate", &pctx)?;
        require_fraction(point, "timeout_rate", &pctx)?;
        require_positive(point, "run_wall_ms", &pctx)?;
        require_u64(point, "governor_degraded_entries", &pctx)?;
        require_u64(point, "governor_shed_entries", &pctx)?;
        require_u64(point, "governor_recoveries", &pctx)?;
        let digest = require_digest(point, "schedule_digest", &pctx)?;
        if mode == "fixed-rate" {
            match &fixed_rate_digest {
                Some(other) if *other != digest => {
                    return Err(format!(
                        "{pctx}: schedule digest {digest} disagrees with the other backend's \
                         {other} — the fixed-rate envelope must be a pure function of the clock"
                    ));
                }
                Some(_) => {}
                None => fixed_rate_digest = Some(digest),
            }
        }
        let tenants = require(point, "tenants", &pctx)?
            .as_array()
            .ok_or_else(|| format!("{pctx}: \"tenants\" is not an array"))?;
        if tenants.len() as u64 != tenant_count {
            return Err(format!(
                "{pctx}: {} tenant rows for {tenant_count} tenants",
                tenants.len()
            ));
        }
        for tenant in tenants {
            let name = require(tenant, "tenant", &pctx)?
                .as_str()
                .ok_or_else(|| format!("{pctx}: tenant name is not a string"))?
                .to_string();
            let tctx = format!("{pctx}/{name}");
            let arrivals = require_u64(tenant, "arrivals", &tctx)?;
            let completed = require_u64(tenant, "completed", &tctx)?;
            let timed_out = require_u64(tenant, "timed_out", &tctx)?;
            let rejected = require_u64(tenant, "rejected", &tctx)?;
            if completed + timed_out + rejected != arrivals {
                return Err(format!(
                    "{tctx}: {completed} completed + {timed_out} timed out + {rejected} \
                     rejected != {arrivals} arrivals — every request must resolve exactly once"
                ));
            }
            let p50 = require_u64(tenant, "p50", &tctx)?;
            let p99 = require_u64(tenant, "p99", &tctx)?;
            let p999 = require_u64(tenant, "p999", &tctx)?;
            if p50 > p99 || p99 > p999 {
                return Err(format!(
                    "{tctx}: percentiles out of order (p50 {p50}, p99 {p99}, p999 {p999})"
                ));
            }
            require_u64(tenant, "queue_high_water", &tctx)?;
        }
        seen.push((mode, backend));
    }
    if seen.len() != MODES.len() * BACKENDS.len() {
        return Err(format!(
            "{ctx}: {} points, expected exactly {} (every mode x backend pair once)",
            seen.len(),
            MODES.len() * BACKENDS.len()
        ));
    }
    Ok(())
}

/// Validates a parsed `BENCH_sched_policy.json` document against the
/// schema documented in `EXPERIMENTS.md`: every policy × workload pair
/// present exactly once (5 policies × 2 workloads = 10 points, all on the
/// cycle-accurate backend — the functional backend has no command
/// scheduler, so its points could not differ by policy), positive wall
/// times and mean cycles, rates inside `[0, 1]`, well-formed 16-hex-digit
/// access digests, and the scheduling-policy contract itself:
///
/// * within a workload, **every** point carries the same access digest —
///   command scheduling may never change what the ORAM controller requests;
/// * the transaction-based baseline never issues early prep;
/// * Proactive Bank's early-PRE rate sits inside the measured band
///   `[0.50, 0.85]` — the paper's Fig. 8 shape
///   (≈57–59 % of precharges issued early under its blocking-core
///   configuration) shifted up to ≈72–74 % by the bench's MLP-4 cores,
///   which keep the lookahead window occupied more often — while
///   speculative-window issues early prep, read-over-write defers writes,
///   and fixed-cadence withholds issue slots.
///
/// # Errors
///
/// A message naming the first offending key or element.
pub fn validate_sched_policy(doc: &Value) -> Result<(), String> {
    const POLICIES: [&str; 5] = [
        "fr-fcfs",
        "proactive-bank",
        "read-over-write",
        "speculative-window",
        "fixed-cadence",
    ];
    const BACKEND: &str = "cycle-accurate";
    const WORKLOADS: [&str; 2] = ["black", "stream"];
    const PB_EARLY_PRE_BAND: (f64, f64) = (0.50, 0.85);
    let ctx = "sched_policy";
    match require(doc, "bench", ctx)?.as_str() {
        Some("sched_policy") => {}
        _ => return Err(format!("{ctx}: \"bench\" must be \"sched_policy\"")),
    }
    require_u64(doc, "schema_version", ctx)?;
    require(doc, "scheme", ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: \"scheme\" is not a string"))?;
    require_u64(doc, "records_per_core", ctx)?;
    require_u64(doc, "cores", ctx)?;
    require_u64(doc, "master_seed", ctx)?;

    let points = require(doc, "points", ctx)?
        .as_array()
        .ok_or_else(|| format!("{ctx}: \"points\" is not an array"))?;
    let mut seen: Vec<(String, String)> = Vec::new();
    let mut digests: Vec<(String, String)> = Vec::new();
    for point in points {
        let policy = require(point, "policy", ctx)?
            .as_str()
            .ok_or_else(|| format!("{ctx}: \"policy\" is not a string"))?
            .to_string();
        if !POLICIES.contains(&policy.as_str()) {
            return Err(format!("{ctx}: unknown policy \"{policy}\""));
        }
        match require(point, "backend", ctx)?.as_str() {
            Some(BACKEND) => {}
            _ => return Err(format!("{ctx}: \"backend\" must be \"{BACKEND}\"")),
        }
        let workload = require(point, "workload", ctx)?
            .as_str()
            .ok_or_else(|| format!("{ctx}: \"workload\" is not a string"))?
            .to_string();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("{ctx}: unknown workload \"{workload}\""));
        }
        let pctx = format!("{workload}/{policy}");
        let pair = (workload.clone(), policy.clone());
        if seen.contains(&pair) {
            return Err(format!("{pctx}: duplicate point"));
        }
        if require_u64(point, "oram_accesses", &pctx)? == 0 {
            return Err(format!("{pctx}: \"oram_accesses\" must be >= 1"));
        }
        require_positive(point, "run_wall_ms", &pctx)?;
        require_positive(point, "mean_cycles_per_access", &pctx)?;
        require_fraction(point, "bank_idle_proportion", &pctx)?;
        require_fraction(point, "pending_bank_idle_proportion", &pctx)?;
        let early_pre = require_fraction(point, "early_precharge_fraction", &pctx)?;
        let early_act = require_fraction(point, "early_activate_fraction", &pctx)?;
        let deferred = require_u64(point, "deferred_writes", &pctx)?;
        let withheld = require_u64(point, "withheld_issue_slots", &pctx)?;
        let digest = require_digest(point, "digest", &pctx)?;
        if let Some((_, other)) = digests.iter().find(|(w, _)| *w == workload) {
            if *other != digest {
                return Err(format!(
                    "{pctx}: digest {digest} disagrees with the workload's {other} — \
                     a command-scheduling policy must not change the access sequence"
                ));
            }
        } else {
            digests.push((workload.clone(), digest));
        }
        if policy == "fr-fcfs" && early_pre + early_act != 0.0 {
            return Err(format!(
                "{pctx}: the transaction-based baseline cannot issue early prep"
            ));
        }
        match policy.as_str() {
            "proactive-bank" => {
                let (lo, hi) = PB_EARLY_PRE_BAND;
                if !(lo..=hi).contains(&early_pre) {
                    return Err(format!(
                        "{pctx}: early-PRE rate {early_pre:.3} outside the measured \
                         Proactive Bank band [{lo}, {hi}]"
                    ));
                }
            }
            "speculative-window" if early_pre + early_act == 0.0 => {
                return Err(format!(
                    "{pctx}: speculative-window never issued early prep"
                ));
            }
            "read-over-write" if deferred == 0 => {
                return Err(format!("{pctx}: read-over-write never deferred a write"));
            }
            "fixed-cadence" if withheld == 0 => {
                return Err(format!(
                    "{pctx}: fixed-cadence never withheld an issue slot"
                ));
            }
            _ => {}
        }
        seen.push(pair);
    }
    let expected = POLICIES.len() * WORKLOADS.len();
    if seen.len() != expected {
        return Err(format!(
            "{ctx}: {} points, expected exactly {expected} (every workload x policy \
             pair once)",
            seen.len()
        ));
    }
    Ok(())
}

/// Geometric mean of strictly positive values (the paper reports GEOMEAN
/// bars); returns 0.0 for an empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn workload_names_complete() {
        assert_eq!(workload_names().len(), 10);
    }

    #[test]
    fn small_run_smoke() {
        let cfg = SystemConfig::test_small(Scheme::Baseline);
        let r = run_config(cfg, "stream", 20, "smoke");
        assert_eq!(r.oram_accesses, 40);
    }

    fn minimal_trajectory() -> String {
        r#"{
            "bench": "shard_scaling", "schema_version": 2,
            "host_parallelism": 1, "workload": "black", "scheme": "All",
            "records_per_core": 2000, "cores": 2, "master_seed": 219966046,
            "backends": [{
                "backend": "fast-functional",
                "points": [{
                    "shards": 2, "oram_accesses": 4000,
                    "merged_digest": "0x8FEFA68912F2C2F5",
                    "total_cycles": 10, "makespan_cycles": 6,
                    "setup_wall_ms": 0.4, "run_wall_ms": 1.5,
                    "measured_wall_ms": 1.5, "measured_speedup_vs_n1": 1.9,
                    "measured_accesses_per_sec": 100.0,
                    "shard_wall_ms": [0.7, 0.8],
                    "projected_parallel_ms": 0.8,
                    "projected_accesses_per_sec": 200.0
                }]
            }]
        }"#
        .to_string()
    }

    #[test]
    fn shard_scaling_schema_accepts_the_documented_shape() {
        let doc = json::parse(&minimal_trajectory()).unwrap();
        validate_shard_scaling(&doc).unwrap();
    }

    #[test]
    fn shard_scaling_schema_rejects_structural_damage() {
        let good = minimal_trajectory();
        for (needle, replacement, why) in [
            ("\"shards\": 2", "\"shards\": 3", "non-power-of-two shards"),
            ("[0.7, 0.8]", "[0.7]", "wall array shorter than shards"),
            ("[0.7, 0.8]", "[0.7, 0.0]", "non-positive wall"),
            ("0x8FEFA68912F2C2F5", "8FEFA68912F2C2F5", "digest prefix"),
            ("0x8FEFA68912F2C2F5", "0x8FEF", "digest length"),
            (
                "\"host_parallelism\": 1",
                "\"host_parallelism\": 0",
                "zero parallelism",
            ),
            ("shard_scaling\"", "other_bench\"", "wrong bench name"),
            (
                "\"backend\": \"fast-functional\"",
                "\"backend\": \"gpu\"",
                "unknown backend",
            ),
            (
                "\"measured_wall_ms\": 1.5",
                "\"measured_wall_ms\": -1",
                "negative wall",
            ),
            (
                "\"setup_wall_ms\": 0.4",
                "\"setup_wall_ms\": 0",
                "zero setup wall",
            ),
            (
                "\"measured_speedup_vs_n1\": 1.9",
                "\"measured_speedup_vs_n1\": 0",
                "zero measured speedup",
            ),
            (
                "\"measured_wall_ms\": 1.5",
                "\"measured_wall_ms\": 4.0",
                "measured wall beyond summed shard walls",
            ),
        ] {
            let damaged = good.replacen(needle, replacement, 1);
            assert_ne!(damaged, good, "{why}: replacement did not apply");
            let doc = json::parse(&damaged).unwrap();
            assert!(
                validate_shard_scaling(&doc).is_err(),
                "{why} must be rejected"
            );
        }
        // Dropping any required point key is rejected too.
        let doc = json::parse(&good.replacen("\"total_cycles\": 10,", "", 1)).unwrap();
        assert!(validate_shard_scaling(&doc).is_err());
    }

    fn minimal_matrix() -> String {
        let point = |protocol: &str, backend: &str, digest: &str| {
            format!(
                r#"{{"protocol": "{protocol}", "backend": "{backend}",
                    "oram_accesses": 4000, "run_wall_ms": 12.5,
                    "accesses_per_sec": 320000.0, "mean_latency_cycles": 410.2,
                    "p99_latency_cycles": 1290, "digest": "{digest}"}}"#
            )
        };
        let mut points = Vec::new();
        for (protocol, digest) in [
            ("ring-cb", "0x8FEFA68912F2C2F5"),
            ("ring", "0x0235AE479E4FDF7D"),
            ("path", "0x2716F910C160FDEB"),
            ("circuit", "0x24AA6473F951AB26"),
        ] {
            for backend in ["cycle-accurate", "fast-functional"] {
                points.push(point(protocol, backend, digest));
            }
        }
        format!(
            r#"{{"bench": "protocol_matrix", "schema_version": 1,
                "workload": "black", "scheme": "All", "records_per_core": 2000,
                "cores": 1, "master_seed": 219966046,
                "points": [{}]}}"#,
            points.join(", ")
        )
    }

    #[test]
    fn protocol_matrix_schema_accepts_the_documented_shape() {
        let doc = json::parse(&minimal_matrix()).unwrap();
        validate_protocol_matrix(&doc).unwrap();
    }

    #[test]
    fn protocol_matrix_schema_rejects_structural_damage() {
        let good = minimal_matrix();
        for (needle, replacement, why) in [
            ("protocol_matrix\"", "other_bench\"", "wrong bench name"),
            ("\"ring-cb\"", "\"gpu-oram\"", "unknown protocol"),
            ("\"cycle-accurate\"", "\"gpu\"", "unknown backend"),
            (
                "\"backend\": \"fast-functional\"",
                "\"backend\": \"cycle-accurate\"",
                "duplicate protocol x backend pair",
            ),
            ("0x8FEFA68912F2C2F5", "8FEFA68912F2C2F5", "digest prefix"),
            ("0x0235AE479E4FDF7D", "0x0235", "digest length"),
            (
                "\"p99_latency_cycles\": 1290, \"digest\": \"0x2716F910C160FDEB\"",
                "\"p99_latency_cycles\": 1290, \"digest\": \"0x2716F910C160FDEC\"",
                "same-protocol digests diverging across backends",
            ),
            (
                "\"run_wall_ms\": 12.5",
                "\"run_wall_ms\": 0",
                "zero wall time",
            ),
            (
                "\"accesses_per_sec\": 320000.0",
                "\"accesses_per_sec\": -3.0",
                "negative rate",
            ),
            (
                "\"mean_latency_cycles\": 410.2",
                "\"mean_latency_cycles\": 0",
                "zero mean latency",
            ),
            (
                "\"p99_latency_cycles\": 1290",
                "\"p99_latency_cycles\": 0",
                "zero p99 latency",
            ),
            (
                "\"oram_accesses\": 4000",
                "\"oram_accesses\": 0",
                "zero accesses",
            ),
        ] {
            let damaged = good.replacen(needle, replacement, 1);
            assert_ne!(damaged, good, "{why}: replacement did not apply");
            let doc = json::parse(&damaged).unwrap();
            assert!(
                validate_protocol_matrix(&doc).is_err(),
                "{why} must be rejected"
            );
        }
        // A missing pair (7 points) and a missing required key are both
        // rejected.
        let last_point_start = good.rfind("{\"protocol\"").unwrap();
        let truncated = format!(
            "{}]}}",
            good[..last_point_start].trim_end().trim_end_matches(','),
        );
        let doc = json::parse(&truncated).unwrap();
        assert!(validate_protocol_matrix(&doc).is_err());
        let doc = json::parse(&good.replacen("\"oram_accesses\": 4000,", "", 1)).unwrap();
        assert!(validate_protocol_matrix(&doc).is_err());
    }

    /// The committed matrix at the repo root must always parse and satisfy
    /// the schema (regenerate with `cargo bench --bench protocol_matrix`
    /// after intentional changes).
    #[test]
    fn committed_protocol_matrix_is_valid() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_protocol_matrix.json"
        );
        let text = std::fs::read_to_string(path).expect("BENCH_protocol_matrix.json is committed");
        let doc = json::parse(&text).expect("matrix parses");
        validate_protocol_matrix(&doc).expect("matrix matches schema");
    }

    fn minimal_service_load() -> String {
        let point = |mode: &str, backend: &str, padding: u64, digest: &str| {
            format!(
                r#"{{
                    "mode": "{mode}", "backend": "{backend}",
                    "policy": "{mode}/batch=4", "ticks": 20000,
                    "real_accesses": 400, "padding_accesses": {padding},
                    "padding_overhead": 0.1, "shed_rate": 0.2,
                    "timeout_rate": 0.05, "run_wall_ms": 12.5,
                    "governor_degraded_entries": 1, "governor_shed_entries": 1,
                    "governor_recoveries": 1,
                    "schedule_digest": "{digest}",
                    "tenants": [{{
                        "tenant": "alpha", "arrivals": 100, "completed": 70,
                        "timed_out": 10, "rejected": 20,
                        "p50": 500, "p99": 900, "p999": 950,
                        "queue_high_water": 64
                    }}]
                }}"#
            )
        };
        format!(
            r#"{{
                "bench": "service_load", "schema_version": 1,
                "master_seed": 219966046, "horizon": 12000, "tenants": 1,
                "points": [{}, {}, {}, {}]
            }}"#,
            point("best-effort", "cycle-accurate", 0, "0x1111111111111111"),
            point("best-effort", "fast-functional", 0, "0x2222222222222222"),
            point("fixed-rate", "cycle-accurate", 40, "0x3333333333333333"),
            point("fixed-rate", "fast-functional", 40, "0x3333333333333333"),
        )
    }

    #[test]
    fn service_load_schema_accepts_the_documented_shape() {
        let doc = json::parse(&minimal_service_load()).unwrap();
        validate_service_load(&doc).unwrap();
    }

    #[test]
    fn service_load_schema_rejects_structural_damage() {
        let good = minimal_service_load();
        for (needle, replacement, why) in [
            (
                "\"completed\": 70",
                "\"completed\": 71",
                "broken exactly-once conservation",
            ),
            ("\"p99\": 900", "\"p99\": 9000", "percentiles out of order"),
            (
                "\"padding_accesses\": 0",
                "\"padding_accesses\": 7",
                "padding under best-effort",
            ),
            (
                "0x3333333333333333",
                "0x4444444444444444",
                "fixed-rate digest disagreement across backends",
            ),
            (
                "\"shed_rate\": 0.2",
                "\"shed_rate\": 1.5",
                "rate outside [0, 1]",
            ),
            (
                "\"tenants\": 1,",
                "\"tenants\": 2,",
                "tenant count mismatch",
            ),
            (
                "\"mode\": \"fixed-rate\", \"backend\": \"fast-functional\"",
                "\"mode\": \"best-effort\", \"backend\": \"cycle-accurate\"",
                "duplicate mode x backend pair",
            ),
        ] {
            let damaged = good.replacen(needle, replacement, 1);
            assert_ne!(good, damaged, "damage \"{why}\" did not apply");
            let doc = json::parse(&damaged).unwrap();
            assert!(
                validate_service_load(&doc).is_err(),
                "validator accepted {why}"
            );
        }
    }

    /// The committed service-load artifact at the repo root must always
    /// parse and satisfy the schema (regenerate with
    /// `cargo bench --bench service_load` after intentional changes).
    #[test]
    fn committed_service_load_is_valid() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service_load.json");
        let text = std::fs::read_to_string(path).expect("BENCH_service_load.json is committed");
        let doc = json::parse(&text).expect("service load parses");
        validate_service_load(&doc).expect("service load matches schema");
    }

    fn minimal_sched_policy() -> String {
        let point = |workload: &str, policy: &str| {
            let early_pre = match policy {
                "proactive-bank" => 0.58,
                "speculative-window" => 0.61,
                _ => 0.0,
            };
            let early_act = if early_pre > 0.0 { 0.55 } else { 0.0 };
            let deferred = u64::from(policy == "read-over-write") * 40;
            let withheld = u64::from(policy == "fixed-cadence") * 90;
            format!(
                r#"{{"policy": "{policy}", "backend": "cycle-accurate",
                    "workload": "{workload}", "oram_accesses": 400,
                    "run_wall_ms": 8.25, "mean_cycles_per_access": 410.2,
                    "bank_idle_proportion": 0.5,
                    "pending_bank_idle_proportion": 0.5,
                    "early_precharge_fraction": {early_pre},
                    "early_activate_fraction": {early_act},
                    "deferred_writes": {deferred},
                    "withheld_issue_slots": {withheld},
                    "digest": "0x8FEFA68912F2C2F5"}}"#
            )
        };
        let mut points = Vec::new();
        for workload in ["black", "stream"] {
            for policy in [
                "fr-fcfs",
                "proactive-bank",
                "read-over-write",
                "speculative-window",
                "fixed-cadence",
            ] {
                points.push(point(workload, policy));
            }
        }
        format!(
            r#"{{"bench": "sched_policy", "schema_version": 2,
                "scheme": "All", "records_per_core": 400, "cores": 1,
                "master_seed": 219966046, "points": [{}]}}"#,
            points.join(", ")
        )
    }

    #[test]
    fn sched_policy_schema_accepts_the_documented_shape() {
        let doc = json::parse(&minimal_sched_policy()).unwrap();
        validate_sched_policy(&doc).unwrap();
    }

    #[test]
    fn sched_policy_schema_rejects_structural_damage() {
        let good = minimal_sched_policy();
        for (needle, replacement, why) in [
            ("sched_policy\"", "other_bench\"", "wrong bench name"),
            ("\"fr-fcfs\"", "\"round-robin\"", "unknown policy"),
            (
                "\"cycle-accurate\"",
                "\"fast-functional\"",
                "a backend without a command scheduler",
            ),
            (
                "\"workload\": \"black\"",
                "\"workload\": \"mcf\"",
                "unknown workload",
            ),
            (
                "\"policy\": \"proactive-bank\"",
                "\"policy\": \"fr-fcfs\"",
                "duplicate workload x policy pair",
            ),
            (
                "0x8FEFA68912F2C2F5\"}, {\"policy\": \"proactive-bank\"",
                "0x8FEFA68912F2C2F6\"}, {\"policy\": \"proactive-bank\"",
                "digest diverging within a workload",
            ),
            ("0x8FEFA68912F2C2F5", "8FEFA68912F2C2F5", "digest prefix"),
            (
                "\"early_precharge_fraction\": 0.58",
                "\"early_precharge_fraction\": 0.13",
                "Proactive Bank early-PRE rate off the measured band",
            ),
            (
                "\"early_precharge_fraction\": 0,",
                "\"early_precharge_fraction\": 0.2,",
                "baseline issuing early prep",
            ),
            (
                "\"deferred_writes\": 40",
                "\"deferred_writes\": 0",
                "read-over-write never deferring",
            ),
            (
                "\"withheld_issue_slots\": 90",
                "\"withheld_issue_slots\": 0",
                "fixed-cadence never withholding",
            ),
            (
                "\"run_wall_ms\": 8.25",
                "\"run_wall_ms\": 0",
                "zero wall time",
            ),
            (
                "\"mean_cycles_per_access\": 410.2",
                "\"mean_cycles_per_access\": -1",
                "negative mean cycles",
            ),
            (
                "\"bank_idle_proportion\": 0.5",
                "\"bank_idle_proportion\": 1.5",
                "rate outside [0, 1]",
            ),
            (
                "\"oram_accesses\": 400",
                "\"oram_accesses\": 0",
                "zero accesses",
            ),
        ] {
            let damaged = good.replacen(needle, replacement, 1);
            assert_ne!(damaged, good, "{why}: replacement did not apply");
            let doc = json::parse(&damaged).unwrap();
            assert!(
                validate_sched_policy(&doc).is_err(),
                "{why} must be rejected"
            );
        }
        // A missing pair (9 points) and a missing required key are both
        // rejected.
        let last_point_start = good.rfind("{\"policy\"").unwrap();
        let truncated = format!(
            "{}]}}",
            good[..last_point_start].trim_end().trim_end_matches(','),
        );
        let doc = json::parse(&truncated).unwrap();
        assert!(validate_sched_policy(&doc).is_err());
        let doc = json::parse(&good.replacen("\"oram_accesses\": 400,", "", 1)).unwrap();
        assert!(validate_sched_policy(&doc).is_err());
    }

    /// The committed policy matrix at the repo root must always parse and
    /// satisfy the schema (regenerate with
    /// `cargo bench --bench sched_policy_matrix` after intentional changes).
    #[test]
    fn committed_sched_policy_is_valid() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched_policy.json");
        let text = std::fs::read_to_string(path).expect("BENCH_sched_policy.json is committed");
        let doc = json::parse(&text).expect("sched policy matrix parses");
        validate_sched_policy(&doc).expect("sched policy matrix matches schema");
    }

    /// The committed bench trajectory at the repo root must always parse
    /// and satisfy the schema the docs promise (regenerate with
    /// `cargo bench --bench shard_scaling` after intentional changes).
    #[test]
    fn committed_shard_scaling_trajectory_is_valid() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_shard_scaling.json"
        );
        let text = std::fs::read_to_string(path).expect("BENCH_shard_scaling.json is committed");
        let doc = json::parse(&text).expect("trajectory parses");
        validate_shard_scaling(&doc).expect("trajectory matches schema");
    }
}
