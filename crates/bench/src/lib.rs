//! # string-oram-bench — experiment harnesses for the HPCA 2021 evaluation
//!
//! The paper's tables and figures, the ablations and the extensions are the
//! rows of one table, `EXPERIMENTS` (`experiments.rs`), read by one interpreter
//! ([`paper`]; `DESIGN.md` §6 is the index): `cargo bench --bench paper`
//! prints paper-style rows to stdout and records them in
//! `BENCH_paper.json`. The documents beyond the paper (shard scaling,
//! the protocol matrix, service load, the scheduler-policy lab) and the
//! backend speed probe are entries of the same table, run by name; the
//! other `[[bench]]` target, `micro`, times single operations. Shared
//! machinery lives here: trace synthesis, the run-length variables, and —
//! in `schema` over [`json`] — the format of the committed `BENCH_*.json`
//! documents: one table per document, one interpreter that validates them,
//! and the helpers the entries write with.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod config;
mod documents;
mod experiments;
pub mod json;
pub mod paper;
pub(crate) mod schema;

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
    use super::experiments::EXPERIMENTS;
    use super::experiments::WORKLOADS;
    use super::json::Value;
    use super::paper::{geomean, Scale};
    use super::schema::tests::reject_cases;
    use super::schema::{
        Schema, PAPER, PROTOCOL_MATRIX, SCHED_POLICY, SERVICE_LOAD, SHARD_SCALING,
    };
    use super::*;
    use string_oram::Scheme;

    #[test]
    fn unset_variables_take_the_default_and_set_ones_parse() {
        assert_eq!(parse_or("STRING_ORAM_X", None, 7usize), 7);
        assert_eq!(parse_or("STRING_ORAM_X", Some("200"), 7usize), 200);
        // A name no bench reads: unset in any environment the tests run in.
        assert_eq!(env_or("STRING_ORAM_NEVER_SET_BY_ANYONE", 3u64), 3);
    }

    #[test]
    #[should_panic(expected = "STRING_ORAM_ACCESSES=\"2e2\" does not parse as usize")]
    fn a_set_but_unparsable_variable_is_refused() {
        let _ = parse_or("STRING_ORAM_ACCESSES", Some("2e2"), 400usize);
    }

    const SMOKE: Scale = Scale {
        accesses: 20,
        warmup: 0,
        seeds: 1,
    };

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
        let r = SMOKE.simulate(&cfg, "stream", 20, &[]).unwrap().report;
        assert_eq!(r.oram_accesses, 40);
    }

    fn repo_file(name: &str) -> String {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// The committed evaluation at the repo root must always parse, satisfy
    /// the schema — every table rectangular, a paper's number only beside a
    /// measured one — and hold the paper's experiments of the table, in its
    /// order (regenerate with `cargo bench --bench paper` after intentional
    /// changes; CI's `bench-smoke` job `cmp`s a fresh run against it).
    #[test]
    fn committed_paper_is_valid() {
        let doc = PAPER.committed().unwrap();
        PAPER
            .validate(&doc)
            .expect("the evaluation matches its schema");
        let recorded = doc.get("experiments").and_then(Value::as_array).unwrap();
        let names = recorded
            .iter()
            .map(|e| e.get("name").and_then(Value::as_str));
        let paper = EXPERIMENTS.iter().filter(|e| e.document.is_none());
        assert!(names.eq(paper.map(|e| Some(e.name))));
    }

    /// The committed document is one its entry could have written: valid
    /// under its table, and its entry's gate holds on it.
    fn committed_is_valid(schema: &Schema) {
        let doc = schema.committed().unwrap();
        schema.validate(&doc).expect("a document its table holds");
        let entry = EXPERIMENTS.iter().find(|e| e.name == schema.bench);
        let entry = entry
            .and_then(|e| e.document)
            .expect("an entry writes the document");
        (entry.gate)(&doc).expect("the gate holds on the committed document");
    }

    /// Every key of the committed document is a word of EXPERIMENTS.md's
    /// section on it (the document holds every key its table declares) —
    /// but the keys below a row's `run.config`: they are config paths,
    /// which the schema's `run` reader already refuses when unknown.
    fn documented(schema: &Schema) {
        fn keys<'a>(v: &'a Value, run: bool, out: &mut Vec<&'a str>) {
            match v {
                Value::Object(m) => {
                    for (key, v) in m {
                        out.push(key);
                        if !(run && key == "config") {
                            keys(v, key == "run", out);
                        }
                    }
                }
                Value::Array(items) => items.iter().for_each(|v| keys(v, false, out)),
                _ => {}
            }
        }
        let text = repo_file("EXPERIMENTS.md");
        let heading = format!("(`BENCH_{}.json`", schema.bench);
        let mut sections = text.split("\n## ");
        let section = sections.find(|s| s.lines().next().unwrap().contains(&heading));
        let section = section.expect("a section on the document");
        let word = |c: char| c.is_alphanumeric() || c == '_';
        let words: Vec<_> = section.split(|c| !word(c)).collect();
        let (doc, mut held) = (schema.committed().unwrap(), Vec::new());
        keys(&doc, false, &mut held);
        for key in held {
            let bench = schema.bench;
            assert!(words.contains(&key), "{bench}: undocumented {key:?}");
        }
    }

    /// One test per committed document and check, under the names the suite
    /// has always given them.
    macro_rules! per_document {
        ($($test:ident: $check:ident($schema:ident);)*) => {$(
            #[test]
            fn $test() {
                $check(&$schema);
            }
        )*};
    }

    per_document! {
        committed_shard_scaling_trajectory_is_valid: committed_is_valid(SHARD_SCALING);
        committed_protocol_matrix_is_valid: committed_is_valid(PROTOCOL_MATRIX);
        committed_service_load_is_valid: committed_is_valid(SERVICE_LOAD);
        committed_sched_policy_is_valid: committed_is_valid(SCHED_POLICY);
        shard_scaling_schema_rejects_structural_damage: reject_cases(SHARD_SCALING);
        protocol_matrix_schema_rejects_structural_damage: reject_cases(PROTOCOL_MATRIX);
        service_load_schema_rejects_structural_damage: reject_cases(SERVICE_LOAD);
        sched_policy_schema_rejects_structural_damage: reject_cases(SCHED_POLICY);
        paper_schema_rejects_structural_damage: reject_cases(PAPER);
        shard_scaling_schema_accepts_the_documented_shape: documented(SHARD_SCALING);
        protocol_matrix_schema_accepts_the_documented_shape: documented(PROTOCOL_MATRIX);
        service_load_schema_accepts_the_documented_shape: documented(SERVICE_LOAD);
        sched_policy_schema_accepts_the_documented_shape: documented(SCHED_POLICY);
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

    /// Every entry is indexed in DESIGN.md §6, in the table's order — a
    /// document entry on a line naming the document it writes — and
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
            if let Some(document) = exp.document.filter(|d| d.schema.bench == exp.name) {
                let line = index[at..].lines().next().unwrap();
                let file = format!("BENCH_{}.json", document.schema.bench);
                assert!(
                    line.contains(&file),
                    "DESIGN.md §6: {} without {file}",
                    exp.name
                );
            }
        }
    }
}
