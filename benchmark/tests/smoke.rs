//! Drives the built binary end to end at a twentieth of the measured size:
//! every workload, both passes, every output check, then `compare` of the
//! result set with itself.

use std::path::Path;
use std::process::Command;

use oram_benchmark::json::Json;
use oram_benchmark::spec::{END_TO_END, PER_LAYER};
use oram_benchmark::workloads::Workload;

const BIN: &str = env!("CARGO_BIN_EXE_oram-benchmark");

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN).args(args).output().expect("binary runs");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        eprintln!("{text}\n{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), text)
}

fn load(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).expect("file was written")).expect("valid JSON")
}

#[test]
fn smoke_run_passes_every_check_and_reports_every_metric() {
    let out = std::env::temp_dir().join(format!("oram-benchmark-smoke-{}", std::process::id()));
    let out_arg = out.to_str().expect("utf-8 temp dir");
    let started = std::time::Instant::now();
    let (ok, text) = run(&["run", "--smoke", "--seed", "12", "--out", out_arg]);
    assert!(ok, "smoke run failed an output check");
    assert!(
        started.elapsed().as_secs() < 15 || cfg!(debug_assertions),
        "smoke run took {:?}",
        started.elapsed()
    );

    // Every metric is printed by name as `workload metric value unit`.
    for w in Workload::ALL {
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let prefix = format!("{} {} ", w.name(), m.name);
            let line = text.lines().find(|l| l.starts_with(&prefix));
            let line = line.unwrap_or_else(|| panic!("no line for {prefix}"));
            let mut words = line[prefix.len()..].split_whitespace();
            let value: f64 = words.next().unwrap().parse().expect("numeric value");
            assert!(value.is_finite(), "{line}");
            assert_eq!(words.next(), Some(m.unit), "{line}");
        }
    }

    let results = load(&out.join("results.json"));
    assert_eq!(results.num("seed").unwrap(), 12.0);
    for key in ["nproc", "rustc", "profile", "kernel", "thp"] {
        assert!(
            results.get("host").unwrap().get(key).is_some(),
            "host.{key}"
        );
    }
    for w in Workload::ALL {
        let r = results.get("workloads").unwrap().get(w.name()).unwrap();
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{}", w.name());
        assert_eq!(r.num("ops_failed").unwrap(), 0.0);
        assert!(r.num("ops_attempted").unwrap() >= 1.0);
        assert!(r.str("sim_fingerprint").unwrap().starts_with("0x"));
        for m in &END_TO_END {
            let median = r
                .get("end_to_end")
                .unwrap()
                .get(m.name)
                .unwrap()
                .num("median");
            assert!(median.unwrap() > 0.0, "{} {} is never 0", w.name(), m.name);
        }
        // The traced pass ran the stages this workload exercises.
        let layer = |name: &str| {
            r.get("per_layer")
                .unwrap()
                .get(name)
                .unwrap()
                .num("value")
                .unwrap()
        };
        assert!(layer("planner.plan_ns_per_op") > 0.0, "{}", w.name());
        assert!(layer("pipeline.steps_per_op") > 0.0, "{}", w.name());
        assert!(layer("backend.tick_ns_per_op") > 0.0, "{}", w.name());
        assert_eq!(
            layer("dram_sim.replay_ns_per_op") > 0.0,
            w.is_cycle_accurate()
        );
        assert_eq!(layer("shard.imbalance") > 0.0, w.threads() > 1);
        assert_eq!(layer("oram_service.tick_ns") > 0.0, w.is_service());
    }
    let trace = load(&out.join("trace.json"));
    for w in Workload::ALL {
        let spans = trace.get(w.name()).unwrap().get("spans").unwrap();
        let first = &spans.as_arr().unwrap()[0];
        assert!(first.num("end_ns").unwrap() >= first.num("start_ns").unwrap());
        assert!(first.str("name").is_ok() && first.num("step").is_ok());
    }

    // A result set agrees with itself, bit for bit where it is simulated.
    let results_path = out.join("results.json");
    let results_arg = results_path.to_str().unwrap();
    let (ok, table) = run(&["compare", results_arg, results_arg]);
    assert!(ok, "{table}");
    assert!(!table.contains("MISMATCH") && !table.contains("regressed"));
    std::fs::remove_dir_all(&out).expect("temp dir is removable");
}

#[test]
fn driver_form_ends_with_the_contract_line() {
    let out = std::env::temp_dir().join(format!("oram-benchmark-line-{}", std::process::id()));
    let out_arg = out.to_str().expect("utf-8 temp dir");
    for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let args = [
            "run",
            "--workload",
            "hpca_functional",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
            "--out",
            out_arg,
        ];
        let (ok, text) = run(&args);
        assert!(ok);
        let line = Json::parse(text.lines().last().unwrap()).expect("last line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.num("attempted").unwrap() >= 1.0 && line.num("failed").unwrap() == 0.0);
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = table.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "--trace {trace}");
        for ((_, v), m) in metrics.iter().zip(table) {
            assert!(v.num("value").unwrap().is_finite());
            assert_eq!(v.str("unit").unwrap(), m.unit);
        }
    }
    std::fs::remove_dir_all(&out).expect("temp dir is removable");
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "2"],
        &["run", "--seed"],
        &["compare", "only-one.json"],
        &["frobnicate"],
        &[],
    ] {
        let out = Command::new(BIN).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
