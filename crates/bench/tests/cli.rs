//! The `stringoram` binary against outside input: a hostile trace file and
//! a flag combination it cannot honour end in `error: …` and a failing exit
//! status, never in a panic or a silently different run.

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

#[test]
fn a_plain_run_succeeds() {
    let out = stringoram(&["--accesses", "20", "--scheme", "all", "--y", "4"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("oram accesses   80"), "{stdout}");
}

#[test]
fn a_trace_address_beyond_the_program_block_range_is_an_error_not_a_panic() {
    let path = std::env::temp_dir().join(format!("stringoram-cli-{}.usimm", std::process::id()));
    std::fs::write(&path, "1 R 0xFFFFFFFFFFFFFFC0\n").expect("trace written");
    let out = stringoram(&["--trace", path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).expect("trace removed");
    let stderr = stderr(&out);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_y_the_scheme_would_ignore_is_refused() {
    for scheme in ["baseline", "pb"] {
        let out = stringoram(&["--accesses", "20", "--scheme", scheme, "--y", "4"]);
        let stderr = stderr(&out);
        assert!(!out.status.success(), "{scheme}: {stderr}");
        assert!(
            stderr.contains("--y") && stderr.contains("--scheme"),
            "{stderr}"
        );
    }
    // Without `--y` the same schemes run.
    let out = stringoram(&["--accesses", "20", "--scheme", "baseline"]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn every_parsed_flag_is_in_the_usage_text() {
    // The flags are the long names on the parser's match arms.
    let source = include_str!("../src/bin/stringoram.rs");
    let flags: Vec<&str> = source
        .lines()
        .map(str::trim_start)
        .filter(|l| l.starts_with("\"--") && l.contains("=>"))
        .filter_map(|l| l.split('"').nth(1))
        .collect();
    assert!(flags.contains(&"--load") && flags.len() >= 12, "{flags:?}");

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
