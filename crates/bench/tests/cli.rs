//! The `stringoram` binary against outside input: hostile values, a hostile
//! trace file and a setting its protocol or trace would ignore end in
//! `error: …` and a failing exit status, never in a panic or a silently
//! different run; and every axis of the config tree is reachable through
//! `--set` or `--config`.

use std::process::{Command, Output};

fn stringoram(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stringoram"))
        .args(args)
        .output()
        .expect("stringoram runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Runs 20 accesses on each of the preset's four cores and returns the
/// report.
fn report(args: &[&str]) -> String {
    let out = stringoram(&[&["--accesses", "20"], args].concat());
    assert!(out.status.success(), "{args:?}: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("oram accesses   80"), "{args:?}: {stdout}");
    stdout
}

/// An invocation refused with `error: …` and a failing status, not a panic;
/// returns the message.
fn refused(args: &[&str]) -> String {
    let out = stringoram(args);
    let stderr = stderr(&out);
    assert!(!out.status.success(), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

/// A file under the temp directory, named for this process and `name`.
fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("stringoram-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("temp file written");
    path
}

#[test]
fn a_plain_run_succeeds() {
    report(&["--scheme", "all", "--set", "ring.y=4"]);
}

#[test]
fn a_trace_address_beyond_the_program_block_range_is_an_error_not_a_panic() {
    let path = temp_file("trace.usimm", "1 R 0xFFFFFFFFFFFFFFC0\n");
    refused(&["--trace", path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).expect("trace removed");
}

#[test]
fn a_trace_run_is_labelled_by_its_file() {
    let path = temp_file("replay.usimm", "1 R 0x40\n3 W 0x1000\n");
    let out = stringoram(&["--trace", path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).expect("trace removed");
    let name = path.file_name().expect("named").to_string_lossy();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let label = format!("run             {name}/ALL");
    assert!(stdout.contains(&label), "{stdout}");
}

#[test]
fn a_y_the_scheme_would_ignore_is_refused() {
    for scheme in ["baseline", "pb"] {
        let stderr = refused(&["--accesses", "20", "--scheme", scheme, "--set", "ring.y=4"]);
        assert!(
            stderr.contains("--set ring.y=4") && stderr.contains("--scheme"),
            "{stderr}"
        );
    }
    // Path rewrites `ring.y` too, and the error names what was typed...
    let stderr = refused(&["--set", "protocol=path", "--set", "ring.y=4"]);
    assert!(stderr.contains("--set ring.y=4"), "{stderr}");
    // ...but the protocol alone, or the same schemes without `ring.y`, run.
    report(&["--set", "protocol=path"]);
    report(&["--scheme", "baseline"]);
}

#[test]
fn every_parsed_flag_is_in_the_usage_text() {
    // The flags are the long names in the rows of the flag table.
    let source = include_str!("../src/bin/stringoram.rs");
    let flags: Vec<&str> = source
        .lines()
        .map(str::trim_start)
        .filter(|l| l.starts_with("(\"--"))
        .filter_map(|l| l.split('"').nth(1))
        .collect();
    assert!(flags.contains(&"--set") && flags.len() >= 8, "{flags:?}");

    let out = stringoram(&["--help"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let help = String::from_utf8_lossy(&out.stdout);
    let module_doc: String = source.lines().filter(|l| l.starts_with("//!")).collect();
    for flag in flags {
        let listed = format!("[{flag}");
        assert!(help.contains(&listed), "{flag} missing from --help");
        assert!(module_doc.contains(&listed), "{flag} missing from the docs");
    }
}

const RECURSION: &str = r#"recursion={
    "tracked_blocks": 8388608, "positions_per_block": 16, "max_onchip_entries": 65536}"#;

const FAULTS: &str = r#"faults={
    "resilience": {"fault_seed": 7, "bit_flip_rate": 0.01, "max_retries": 2,
                   "escalation_watermark": 300, "degrade_watermark": 400, "resume_watermark": 250},
    "dram": {"seed": 1, "storm_rate": 0.01, "storm_factor": 4, "weak_row_rate": 0.01,
             "weak_row_stall": 24},
    "memctrl": {"seed": "0xfedcba9876543210", "late_rate": 0.01, "late_delay": 32,
                "drop_rate": 0.01, "saturation_rate": 0.01}}"#;

#[test]
fn every_axis_is_reachable_through_set() {
    for set in [
        "protocol=path",
        "protocol=circuit",
        r#"sched_policy={"kind": "fixed-cadence", "period": 3}"#,
        r#"sched_policy={"kind": "proactive-bank", "lookahead": 4}"#,
        "backend=fast-functional",
        "shards=2",
        RECURSION,
        FAULTS,
    ] {
        report(&["--set", set]);
    }
    let checked = report(&["--set", "verify.enabled=true"]);
    assert!(checked.contains("violations      0"), "{checked}");
    // Each one moves the run: none of them is silently dropped.
    let plain = report(&[]);
    for set in [
        "protocol=path",
        "backend=fast-functional",
        "shards=2",
        FAULTS,
    ] {
        assert_ne!(report(&["--set", set]), plain, "{set}");
    }
}

#[test]
fn a_config_file_is_the_same_run_as_its_sets() {
    let path = temp_file(
        "config.json",
        r#"{"protocol": "path", "backend": "fast-functional", "ring": {"stash_capacity": 300}}"#,
    );
    let from_file = report(&["--config", path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).expect("config removed");
    let sets = [
        "protocol=path",
        "backend=fast-functional",
        "ring.stash_capacity=300",
    ];
    let from_sets = report(&sets.iter().flat_map(|s| ["--set", s]).collect::<Vec<_>>());
    assert_eq!(from_file, from_sets);
}

#[test]
fn hostile_values_are_errors_not_panics() {
    let bad_json = temp_file("bad.json", "{\"seed\": ");
    let bad_json = bad_json.to_str().expect("utf-8 path");
    for (args, names) in [
        (&["--set", "bogus=1"][..], "bogus: unknown key"),
        (
            &["--set", "ring.levels=abc"],
            "ring.levels: expected an integer",
        ),
        (&["--set", "protocol=raft"], "protocol: expected one of"),
        (
            &["--set", "layout=diagonal"],
            "layout: expected one of subtree, naive",
        ),
        (
            &["--set", "ring.levels=4294967296"],
            "ring.levels: 4294967296 is out of range",
        ),
        (&["--set", "seed=-1"], "seed: -1 is negative"),
        (
            &["--set", "load_factor=-0.5"],
            "load_factor must be in [0, 1]",
        ),
        (
            &["--set", "queue_capacity=2305843009213693952"],
            "queue_capacity must be in",
        ),
        (
            &["--set", "core_mlp=0x4000000000000000"],
            "core_mlp must be in",
        ),
        (&["--set", "cores=4294967295"], "cores must be in"),
        (
            &["--accesses", "18446744073709551615"],
            "--accesses 18446744073709551615 is too many",
        ),
        (
            &["--trace", "t", "-w", "face"],
            "--workload face has no effect",
        ),
        (&["--trace", "t", "-n", "5"], "--accesses 5 has no effect"),
        (&["--set", "shards=3"], "shard count (3)"),
        (&["--set", "ring.levels"], "--set ring.levels: no '='"),
        (&["--set"], "--set requires a value"),
        (&["--config", "/nonexistent/stringoram.json"], "cannot read"),
        (&["--config", bad_json], "bad.json: unexpected end of input"),
        (&["--bogus"], "unknown flag"),
        // Retired spellings are refused by name, not dropped.
        (
            &[
                "--set",
                r#"sched_policy={"kind": "speculative-window", "window": 4}"#,
            ],
            "sched_policy.kind: expected one of",
        ),
        (
            &["--set", "verify.fail_fast=true"],
            "verify.fail_fast: unknown key",
        ),
        (&["--y", "4"], "unknown flag"),
    ] {
        let stderr = refused(args);
        assert!(stderr.contains(names), "{args:?}: {stderr}");
    }
    std::fs::remove_file(bad_json).expect("config removed");
}
