//! The names the harness emits: every end-to-end and per-layer metric, with
//! its unit, direction and (end to end) regression bound. `BENCHMARK.json`
//! lists the same names; a self-test keeps the two in step.

/// One metric the harness reports.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of the reference median by which the metric may worsen before
    /// that counts as a regression. 0 for per-layer metrics: they explain,
    /// they do not gate.
    pub bound: f64,
    /// Simulated (repeats exactly for a seed) rather than host-measured.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
        exact: false,
    }
}

const fn simulated(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
        exact: true,
    }
}

/// What a user of the simulator sees. "op" is one program ORAM access, or
/// one tenant request on the service workload.
///
/// The bounds are relative and sized from measured spreads (README,
/// "Bounds"). The simulated metrics repeat exactly for one seed — `compare`
/// demands bit-identity there — and their bounds only cover the spread
/// *between* seeds, which is what the repository driver samples.
pub const END_TO_END: [Metric; 7] = [
    host("ops_per_sec", "1/s", true, 0.25),
    host("setup_s", "s", false, 0.25),
    host("peak_rss_mb", "MB", false, 0.05),
    simulated("sim_cycles_per_op", "cycles", false, 0.05),
    simulated("sim_latency_p50_cycles", "cycles", false, 0.25),
    simulated("sim_latency_p99_cycles", "cycles", false, 0.10),
    // 1 − failed_share. Stated as the share that succeeded because the
    // benchmark contract compares metrics by ratio, and a ratio to the
    // healthy failed share (0) is undefined.
    simulated("ok_share", "share", true, 0.01),
];

const fn ns(name: &'static str) -> Metric {
    host(name, "ns", false, 0.0)
}

const fn count(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    simulated(name, unit, higher, 0.0)
}

/// One layer's numbers, from the traced pass. Layers are module names; the
/// README's table says which end-to-end metric each should move, on which
/// workload. A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [Metric; 57] = [
    // cpu (string_oram::cpu)
    ns("cpu.wake_ns_per_op"),
    ns("cpu.tick_ns_per_op"),
    // planner (string_oram::pipeline::planner) and ring-oram
    ns("planner.plan_ns_per_op"),
    ns("ring_oram.access_ns_per_op"),
    ns("planner.lowering_ns_per_op"),
    count("planner.txns_per_op", "count", false),
    count("planner.requests_per_op", "count", false),
    count("ring_oram.materialized_buckets_per_op", "count", false),
    count("ring_oram.stash_peak", "count", false),
    count("ring_oram.greens_per_read", "count", true),
    count("ring_oram.reshuffles_per_op", "count", false),
    count("ring_oram.bg_evictions_per_op", "count", false),
    // txns (string_oram::pipeline::txns)
    ns("txns.admit_ns_per_op"),
    ns("txns.enqueue_ns_per_op"),
    ns("txns.retire_ns_per_op"),
    // mem-sched and dram-sim behind MemoryBackend
    ns("backend.tick_ns_per_op"),
    ns("backend.tick_ns_per_step"),
    ns("mem_sched.self_ns_per_op"),
    ns("dram_sim.replay_ns_per_op"),
    count("dram_sim.commands_per_op", "count", false),
    count("mem_sched.queue_wait_read_cycles", "cycles", false),
    count("mem_sched.queue_wait_write_cycles", "cycles", false),
    count("mem_sched.queue_occupancy", "count", false),
    count("mem_sched.early_pre_share", "share", true),
    count("mem_sched.early_act_share", "share", true),
    count("dram_sim.row_conflict_share_read", "share", false),
    count("dram_sim.row_conflict_share_evict", "share", false),
    count("dram_sim.row_hit_share_read", "share", true),
    count("dram_sim.bank_idle_share", "share", false),
    count("dram_sim.bank_idle_pending_share", "share", false),
    // metrics (string_oram::pipeline::metrics)
    ns("metrics.attribute_ns_per_op"),
    count("metrics.read_cycle_share", "share", false),
    count("metrics.evict_cycle_share", "share", false),
    count("metrics.reshuffle_cycle_share", "share", false),
    // pipeline: the driver loop
    count("pipeline.steps_per_op", "count", false),
    count("pipeline.quiet_step_share", "share", false),
    ns("host.ns_per_sim_cycle"),
    // shard (string_oram::pipeline::shard)
    host("shard.depth_speedup", "ratio", true, 0.0),
    host("shard.parallel_speedup", "ratio", true, 0.0),
    host("shard.imbalance", "ratio", false, 0.0),
    host("shard.merge_ms", "ms", false, 0.0),
    // oram-service
    ns("oram_service.submit_ns_per_op"),
    ns("oram_service.tick_ns"),
    host("oram_service.engine_replay_share", "share", false, 0.0),
    host("oram_service.self_share", "share", false, 0.0),
    count("oram_service.padding_share", "share", false),
    count("oram_service.slot_utilisation", "share", true),
    count("oram_service.queue_high_water", "count", false),
    count("oram_service.retries", "count", false),
    count("oram_service.governor_transitions", "count", false),
    // sim-verify, trace-synth
    host("sim_verify.overhead_ratio", "ratio", false, 0.0),
    ns("trace_synth.gen_ns_per_record"),
    // the host and the harness itself
    host("host.sys_share", "share", false, 0.0),
    host("host.rss_kb_per_op", "kB", false, 0.0),
    ns("trace.timer_ns"),
    host("trace.overhead_ratio", "ratio", false, 0.0),
    host("trace.coverage", "share", true, 0.0),
];

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 11;
/// The default `--seconds`, and `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    fn benchmark_json() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    fn keys(v: &Json) -> Vec<&str> {
        v.as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    /// Every name the harness emits is in `BENCHMARK.json` and the other
    /// way round, with the same unit, direction and bound.
    #[test]
    fn benchmark_json_and_harness_agree() {
        let doc = benchmark_json();
        assert_eq!(
            keys(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(doc.num("run_seconds").unwrap(), RUN_SECONDS as f64);

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        let names: Vec<&str> = workloads.iter().map(|w| w.str("name").unwrap()).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        for w in workloads {
            assert_eq!(keys(w), ["name", "why"]);
            let why = w.str("why").unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }

        for (key, table, item_keys) in [
            (
                "end_to_end",
                &END_TO_END[..],
                &["name", "unit", "better", "bound"][..],
            ),
            ("per_layer", &PER_LAYER[..], &["name", "unit", "better"][..]),
        ] {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}: count");
            for (entry, metric) in listed.iter().zip(table) {
                assert_eq!(keys(entry), item_keys, "{key}: {}", metric.name);
                assert_eq!(entry.str("name").unwrap(), metric.name);
                assert_eq!(entry.str("unit").unwrap(), metric.unit, "{}", metric.name);
                let better = if metric.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(entry.str("better").unwrap(), better, "{}", metric.name);
                if key == "end_to_end" {
                    assert_eq!(entry.num("bound").unwrap(), metric.bound, "{}", metric.name);
                }
            }
        }
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        let workloads = Workload::ALL.iter().map(|w| w.name());
        let metrics = END_TO_END.iter().chain(&PER_LAYER);
        for name in workloads.chain(metrics.clone().map(|m| m.name)) {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in metrics {
            let ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(ok));
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("the contract requires setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0));
    }

    #[test]
    fn command_and_paths_stay_inside_the_benchmark() {
        let doc = benchmark_json();
        let paths: Vec<&str> = doc
            .get("paths")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect();
        assert_eq!(paths, ["benchmark"]);
        let command = doc.get("command").unwrap().as_arr().unwrap();
        assert!(command.len() <= 32);
        for arg in command {
            let arg = arg.as_str().unwrap();
            assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
            if arg.contains('/') {
                assert!(arg.starts_with("benchmark/"), "{arg} is outside paths");
            }
        }
    }
}
