//! # string-oram-bench — experiment harnesses for the HPCA 2021 evaluation
//!
//! The paper's tables and figures, the ablations and the extensions are the
//! rows of one table, [`paper::EXPERIMENTS`], read by one interpreter
//! ([`paper`]; `DESIGN.md` §6 is the index): `cargo bench --bench paper`
//! prints paper-style rows to stdout, mirrors them to CSV and records them
//! in `BENCH_paper.json`. The other `[[bench]]` targets measure the host or
//! an axis beyond the paper. Shared machinery lives here: trace synthesis,
//! the run-length variables, and — in [`schema`] over [`json`] — the format
//! of the committed `BENCH_*.json` documents: one table per document, one
//! interpreter that validates them, and the helpers the emitters write with.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod experiments;
pub mod json;
pub mod paper;
pub mod schema;

use string_oram::SystemConfig;
use trace_synth::{by_name, TraceGenerator, TraceRecord};

/// The environment variable `name`, parsed; `default` when it is unset.
/// Every run-length knob of the benches reads through here.
///
/// # Panics
///
/// When the variable is set to something that does not parse — a typo in a
/// CI smoke size must not silently run the full-size bench.
#[must_use]
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_or(name, value.as_deref(), default)
}

/// [`env_or`] on the variable's value (`None`: unset).
fn parse_or<T: std::str::FromStr>(name: &str, value: Option<&str>, default: T) -> T {
    let Some(value) = value else {
        return default;
    };
    value.parse().unwrap_or_else(|_| {
        let ty = std::any::type_name::<T>();
        panic!("{name}={value:?} does not parse as {ty}")
    })
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

#[cfg(test)]
mod tests {
    use super::experiments::WORKLOADS;
    use super::json::Value;
    use super::paper::{drive, geomean, Scale, EXPERIMENTS};
    use super::schema::{PAPER, PROTOCOL_MATRIX, SCHED_POLICY, SERVICE_LOAD, SHARD_SCALING};
    use super::*;
    use std::path::Path;
    use string_oram::Scheme;

    #[test]
    fn unset_variables_take_the_default_and_set_ones_parse() {
        assert_eq!(parse_or("STRING_ORAM_X", None, 7usize), 7);
        assert_eq!(parse_or("STRING_ORAM_X", Some("200"), 7usize), 200);
        // A name no bench reads: unset in any environment the tests run in.
        assert_eq!(env_or("STRING_ORAM_NEVER_SET_BY_ANYONE", 3u64), 3);
    }

    #[test]
    #[should_panic(expected = "STRING_ORAM_SHARD_ACCESSES=\"2e2\" does not parse as usize")]
    fn a_set_but_unparsable_variable_is_refused() {
        let _ = parse_or("STRING_ORAM_SHARD_ACCESSES", Some("2e2"), 25_000usize);
    }

    const SMOKE: Scale = Scale {
        accesses: 20,
        warmup: 0,
        seeds: 1,
    };

    /// A directory no other test or process uses.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("string-oram-bench-{name}-{}", std::process::id()))
    }

    #[test]
    fn an_unset_csv_dir_opens_no_sink() {
        let dir = scratch_dir("csv");
        let args = ["table5_cb_space".to_string()];
        drive(EXPERIMENTS, &args, &SMOKE, None, &mut Vec::new()).unwrap();
        assert!(!dir.exists());
        drive(EXPERIMENTS, &args, &SMOKE, Some(&dir), &mut Vec::new()).unwrap();
        let csv = dir.join("table_v_cb_configurations_and_space_saving_z_8_s_12_l_23.csv");
        let csv = std::fs::read_to_string(csv).expect("the table is mirrored");
        std::fs::remove_dir_all(&dir).unwrap();
        // The printed lines, comma-separated, without the display-only `%`.
        let mirrored = "config,Y (CB rate),total GiB,dummy ,saved vs base\n\
                        Baseline,Y=0,20.0,60.0,0.0\nConfig-1,Y=2,18.0,55.6,10.0\n\
                        Config-2,Y=4,16.0,50.0,20.0\nConfig-3,Y=6,14.0,42.9,30.0\n\
                        Config-4,Y=8,12.0,33.3,40.0\n";
        assert_eq!(csv, mirrored);
    }

    #[test]
    #[should_panic(expected = "STRING_ORAM_CSV_DIR=")]
    fn an_unusable_csv_dir_is_refused() {
        // A directory under a regular file can never be created.
        let under_a_file = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml/csv");
        let args = ["table5_cb_space".to_string()];
        let _ = drive(
            EXPERIMENTS,
            &args,
            &SMOKE,
            Some(&under_a_file),
            &mut Vec::new(),
        );
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn workload_names_complete() {
        let named = WORKLOADS
            .iter()
            .map(|&(label, workload, _)| (label, workload));
        let all = trace_synth::all_workloads();
        assert!(named.eq(all.iter().map(|w| (w.name, w.name))));
    }

    #[test]
    fn small_run_smoke() {
        let cfg = SystemConfig::test_small(Scheme::Baseline);
        let r = SMOKE.simulate(&cfg, "stream", 20).report;
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
        SHARD_SCALING.validate(&doc).unwrap();
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
                SHARD_SCALING.validate(&doc).is_err(),
                "{why} must be rejected"
            );
        }
        // Dropping any required point key is rejected too.
        let doc = json::parse(&good.replacen("\"total_cycles\": 10,", "", 1)).unwrap();
        assert!(SHARD_SCALING.validate(&doc).is_err());
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
        PROTOCOL_MATRIX.validate(&doc).unwrap();
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
                PROTOCOL_MATRIX.validate(&doc).is_err(),
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
        assert!(PROTOCOL_MATRIX.validate(&doc).is_err());
        let doc = json::parse(&good.replacen("\"oram_accesses\": 4000,", "", 1)).unwrap();
        assert!(PROTOCOL_MATRIX.validate(&doc).is_err());
    }

    /// The committed matrix at the repo root must always parse and satisfy
    /// the schema (regenerate with `cargo bench --bench protocol_matrix`
    /// after intentional changes).
    #[test]
    fn committed_protocol_matrix_is_valid() {
        let doc = json::parse(&repo_file("BENCH_protocol_matrix.json")).expect("matrix parses");
        PROTOCOL_MATRIX
            .validate(&doc)
            .expect("matrix matches schema");
    }

    fn minimal_service_load() -> String {
        let point = |load: &str, mode: &str, backend: &str, padding: u64, digest: &str| {
            format!(
                r#"{{
                    "load": "{load}", "mode": "{mode}", "backend": "{backend}",
                    "policy": "{mode}/batch=4", "ticks": 20000,
                    "real_accesses": 400, "padding_accesses": {padding},
                    "padding_overhead": 0.1, "shed_rate": 0.2,
                    "timeout_rate": 0.05, "run_wall_ms": 12.5,
                    "ns_per_tick": 625.0, "quiet_tick_share": 0.4,
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
                "bench": "service_load", "schema_version": 2,
                "master_seed": 219966046, "horizon": 12000, "tenants": 1,
                "points": [{}, {}, {}, {}, {}, {}, {}, {}]
            }}"#,
            point(
                "overload",
                "best-effort",
                "cycle-accurate",
                0,
                "0x1111111111111111"
            ),
            point(
                "overload",
                "best-effort",
                "fast-functional",
                0,
                "0x2222222222222222"
            ),
            point(
                "overload",
                "fixed-rate",
                "cycle-accurate",
                0,
                "0x3333333333333333"
            ),
            point(
                "overload",
                "fixed-rate",
                "fast-functional",
                0,
                "0x3333333333333333"
            ),
            point(
                "provisioned",
                "best-effort",
                "cycle-accurate",
                0,
                "0x5555555555555555"
            ),
            point(
                "provisioned",
                "best-effort",
                "fast-functional",
                0,
                "0x6666666666666666"
            ),
            point(
                "provisioned",
                "fixed-rate",
                "cycle-accurate",
                40,
                "0x3333333333333333"
            ),
            point(
                "provisioned",
                "fixed-rate",
                "fast-functional",
                41,
                "0x3333333333333333"
            ),
        )
    }

    #[test]
    fn service_load_schema_accepts_the_documented_shape() {
        let doc = json::parse(&minimal_service_load()).unwrap();
        SERVICE_LOAD.validate(&doc).unwrap();
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
                "fixed-rate digest disagreement across backends and loads",
            ),
            (
                "\"padding_accesses\": 41",
                "\"padding_accesses\": 0",
                "a provisioned fixed-rate point that never padded",
            ),
            (
                "\"quiet_tick_share\": 0.4",
                "\"quiet_tick_share\": 1.4",
                "quiet share outside [0, 1]",
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
                "duplicate load x mode x backend point",
            ),
        ] {
            let damaged = good.replacen(needle, replacement, 1);
            assert_ne!(good, damaged, "damage \"{why}\" did not apply");
            let doc = json::parse(&damaged).unwrap();
            assert!(
                SERVICE_LOAD.validate(&doc).is_err(),
                "validator accepted {why}"
            );
        }
    }

    /// The committed service-load artifact at the repo root must always
    /// parse and satisfy the schema (regenerate with
    /// `cargo bench --bench service_load` after intentional changes).
    #[test]
    fn committed_service_load_is_valid() {
        let doc = json::parse(&repo_file("BENCH_service_load.json")).expect("service load parses");
        SERVICE_LOAD
            .validate(&doc)
            .expect("service load matches schema");
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
        SCHED_POLICY.validate(&doc).unwrap();
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
                SCHED_POLICY.validate(&doc).is_err(),
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
        assert!(SCHED_POLICY.validate(&doc).is_err());
        let doc = json::parse(&good.replacen("\"oram_accesses\": 400,", "", 1)).unwrap();
        assert!(SCHED_POLICY.validate(&doc).is_err());
    }

    /// The committed policy matrix at the repo root must always parse and
    /// satisfy the schema (regenerate with
    /// `cargo bench --bench sched_policy_matrix` after intentional changes).
    #[test]
    fn committed_sched_policy_is_valid() {
        let doc =
            json::parse(&repo_file("BENCH_sched_policy.json")).expect("sched policy matrix parses");
        SCHED_POLICY
            .validate(&doc)
            .expect("sched policy matrix matches schema");
    }

    fn repo_file(name: &str) -> String {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// The committed evaluation at the repo root must always parse, satisfy
    /// the schema — every table rectangular, a paper's number only beside a
    /// measured one — and hold the experiments of the table, in its order
    /// (regenerate with `cargo bench --bench paper` after intentional
    /// changes; CI's `bench-smoke` job `cmp`s a fresh run against it).
    #[test]
    fn committed_paper_is_valid() {
        let doc = json::parse(&repo_file("BENCH_paper.json")).expect("the evaluation parses");
        PAPER
            .validate(&doc)
            .expect("the evaluation matches its schema");
        let recorded = doc.get("experiments").and_then(Value::as_array).unwrap();
        let names = recorded
            .iter()
            .map(|e| e.get("name").and_then(Value::as_str));
        assert!(names.eq(EXPERIMENTS.iter().map(|e| Some(e.name))));
    }

    #[test]
    fn paper_schema_rejects_structural_damage() {
        let good = repo_file("BENCH_paper.json");
        let cell = "\"column\": \"CB\",\n                  \"number\": 0.719,";
        for (needle, replacement, why) in [
            (
                "\"bench\": \"paper\"",
                "\"bench\": \"other\"",
                "wrong bench name",
            ),
            (
                "\"fig05_row_buffer\"",
                "\"fig04_space\"",
                "a repeated experiment",
            ),
            (
                "\"fig05_row_buffer\"",
                "\"fig05\"",
                "an experiment the table does not hold",
            ),
            ("\"dummy GiB\",\n", "", "a header fewer than cells"),
            (cell, &cell.replace("CB", "PB"), "cells out of column order"),
            (
                "\"number\": 4,\n                  \"paper\": null",
                "\"number\": null,\n                  \"paper\": 4",
                "the paper's number beside no measured one",
            ),
            ("\"seeds\": 1", "\"seeds\": 0", "zero seeds"),
        ] {
            let damaged = good.replacen(needle, replacement, 1);
            assert_ne!(damaged, good, "{why}: replacement did not apply");
            let doc = json::parse(&damaged).unwrap();
            assert!(PAPER.validate(&doc).is_err(), "{why} must be rejected");
        }
    }

    /// EXPERIMENTS.md's paper-vs-measured tables are held to the committed
    /// document: for every cell that carries the paper's number, some line
    /// quotes that number and the measured cell as printed (EXPERIMENTS.md
    /// sets a space before `%`).
    #[test]
    fn experiments_md_quotes_the_committed_numbers() {
        let text = repo_file("EXPERIMENTS.md").replace(" %", "%");
        let doc = json::parse(&repo_file("BENCH_paper.json")).unwrap();
        let list = |v: &Value, key: &str| v.get(key).and_then(Value::as_array).unwrap().to_vec();
        let mut checked = 0;
        for exp in list(&doc, "experiments") {
            let rows = list(&exp, "tables")
                .into_iter()
                .flat_map(|t| list(&t, "rows"));
            for cell in rows.flat_map(|row| list(&row, "cells")) {
                let Some(paper) = cell.get("paper").and_then(Value::as_f64) else {
                    continue;
                };
                let (paper, measured) = (
                    paper.to_string(),
                    cell.get("text").unwrap().as_str().unwrap(),
                );
                let quoted = |line: &str| line.contains(&paper) && line.contains(measured);
                let name = exp.get("name").unwrap();
                assert!(
                    text.lines().any(quoted),
                    "{name}: no line quotes {paper} and {measured}"
                );
                checked += 1;
            }
        }
        assert!(checked >= 40, "{checked} cells carry the paper's number");
    }

    /// Every experiment is indexed in DESIGN.md §6, in the table's order, and
    /// discussed in EXPERIMENTS.md.
    #[test]
    fn every_experiment_is_in_the_index_and_the_discussion() {
        let design = repo_file("DESIGN.md");
        let index = &design[design.find("## 6. Experiment index").unwrap()..];
        let index = &index[..index.find("## 7.").unwrap()];
        let discussion = repo_file("EXPERIMENTS.md");
        let mut last = 0;
        for exp in EXPERIMENTS {
            let at = index.find(&format!("`{}`", exp.name));
            let at = at.unwrap_or_else(|| panic!("{} is not in DESIGN.md §6", exp.name));
            assert!(at > last, "{} is out of order in DESIGN.md §6", exp.name);
            last = at;
            assert!(
                discussion.contains(exp.name),
                "{} is not in EXPERIMENTS.md",
                exp.name
            );
        }
    }

    /// The committed bench trajectory at the repo root must always parse
    /// and satisfy the schema the docs promise (regenerate with
    /// `cargo bench --bench shard_scaling` after intentional changes).
    #[test]
    fn committed_shard_scaling_trajectory_is_valid() {
        let doc = json::parse(&repo_file("BENCH_shard_scaling.json")).expect("trajectory parses");
        SHARD_SCALING
            .validate(&doc)
            .expect("trajectory matches schema");
    }
}
