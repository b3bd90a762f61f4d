//! The committed bench documents (`BENCH_*.json`) as data: one [`Schema`]
//! table per document and one interpreter, [`Schema::validate`], that walks
//! any of them. The emitting benches go through the same tables ([`finite`],
//! [`hex_digest`], [`Schema::write`]), so a document's format is written
//! down once, here; `EXPERIMENTS.md` says what the numbers mean and why each
//! claim must hold.
//!
//! A table gives, per kind of value (`Kind`), the keys that hold it, and
//! per array of rows (`Group`) the keys that identify a row, the other keys,
//! which rows must carry one digest, and — what a table cannot say —
//! relations between fields as plain `fn`s (`Rule`). The checks ask whether
//! a document is well formed and keeps its claims, never how *fast* it is.

use crate::json::Value;
use crate::paper::EXPERIMENTS;
use Kind::{AtLeast, Digest, Fraction, NumberOrNull, OneOf, Positive, PositivesPer, PowerOfTwo};
use Kind::{Rows, Str, Strs};

/// What a value must look like; a mismatch is reported under this name.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Any string.
    Str,
    /// An array of strings.
    Strs,
    /// One of the listed names.
    OneOf(&'static [&'static str]),
    /// A non-negative integer (exact, so at most 2^53) no smaller than this.
    AtLeast(u64),
    /// A power of two.
    PowerOfTwo,
    /// A number `> 0`: no NaN or infinity (the JSON layer cannot hold one),
    /// and no sentinel standing in for one.
    Positive,
    /// A number in `[0, 1]`.
    Fraction,
    /// A number, or `null` where there is none to give.
    NumberOrNull,
    /// `0x` and exactly 16 hex digits.
    Digest,
    /// An array of numbers `> 0`, as many as the sibling key under this name
    /// says.
    PositivesPer(&'static str),
    /// An array of objects, each one row of the group.
    Rows(&'static Group),
}

/// The keys of an object that hold one kind of value.
struct Keys(&'static [&'static str], Kind);

/// A relation between fields that holds on every row — checked once the
/// row's keys are typed — and the claim a failure breaks.
struct Rule(fn(row: &Value, doc: &Value) -> bool, &'static str);

/// The rows of one array.
struct Group {
    /// The keys that identify a row: their values name it in every message,
    /// and no two rows may share them.
    axes: &'static [(&'static str, Kind)],
    /// Whether every combination of the (enumerated) axes must be there —
    /// given membership and uniqueness, a matter of the row count. A group
    /// that is not complete must not be empty.
    complete: bool,
    /// Every other key of a row.
    fields: &'static [Keys],
    /// `(key, within, only)`: rows with one value under `within` carry one
    /// digest under `key` — with `only`, just the rows where it is that value.
    same_digest: Option<(&'static str, &'static str, Option<&'static str>)>,
    rules: &'static [Rule],
}

impl std::fmt::Debug for Group {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("..")
    }
}

/// The format of one bench document; see the module docs.
pub struct Schema {
    /// The document's `bench` tag, and the `<bench>` of `BENCH_<bench>.json`.
    pub bench: &'static str,
    /// The one `schema_version` this table describes.
    pub version: u64,
    /// The top-level keys after those two, in checking order.
    header: &'static [Keys],
}

impl Schema {
    /// Checks a parsed document against this table; the error names the
    /// first offending row and key.
    pub fn validate(&self, doc: &Value) -> Result<(), String> {
        let pinned = [
            ("bench", self.bench.into()),
            ("schema_version", self.version.into()),
        ];
        for (key, value) in pinned {
            if doc.get(key) != Some(&value) {
                return Err(format!("{}: \"{key}\" must be {value}", self.bench));
            }
        }
        check_fields(self.header, doc, doc, self.bench)
    }

    /// Completes `fields` to a document with this table's `bench` tag and
    /// `schema_version`, validates it, and writes it to
    /// `STRING_ORAM_BENCH_JSON` if that is set (CI smoke runs write to a
    /// scratch file), otherwise over the committed `BENCH_<bench>.json`.
    /// Panics if the document does not match the table or cannot be written.
    pub fn write(&self, mut fields: Vec<(&str, Value)>) {
        fields.push(("bench", self.bench.into()));
        fields.push(("schema_version", self.version.into()));
        let doc = Value::object(fields);
        if let Err(e) = self.validate(&doc) {
            panic!("emitted document does not match its schema: {e}");
        }
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let path = std::env::var("STRING_ORAM_BENCH_JSON")
            .unwrap_or_else(|_| format!("{root}/BENCH_{}.json", self.bench));
        std::fs::write(&path, format!("{doc}\n")).expect("the document is written");
        println!("\nwrote {path}");
    }
}

/// A measurement as a JSON number; panics on NaN or an infinity, which is
/// a harness bug, not a value to serialize.
#[must_use]
pub fn finite(n: f64) -> Value {
    Value::try_from(n).expect("bench measurements are finite")
}

/// A 64-bit digest as the documents carry it (`Kind::Digest`). Digests go
/// through here, never `Value::from(u64)`, which refuses above 2^53.
#[must_use]
pub fn hex_digest(digest: u64) -> String {
    format!("0x{digest:016X}")
}

fn check_key(key: &str, kind: Kind, obj: &Value, doc: &Value, ctx: &str) -> Result<(), String> {
    let Some(value) = obj.get(key) else {
        return Err(format!("{ctx}: missing \"{key}\""));
    };
    let positive = |v: &Value| v.as_f64().is_some_and(|n| n > 0.0);
    let hex16 = |h: &str| h.len() == 16 && h.bytes().all(|c| c.is_ascii_hexdigit());
    let ok = match kind {
        Str => value.as_str().is_some(),
        Strs => strings(value).is_some(),
        OneOf(names) => value.as_str().is_some_and(|s| names.contains(&s)),
        AtLeast(min) => value.as_u64().is_some_and(|n| n >= min),
        PowerOfTwo => value.as_u64().is_some_and(u64::is_power_of_two),
        Positive => positive(value),
        Fraction => value.as_f64().is_some_and(|n| (0.0..=1.0).contains(&n)),
        NumberOrNull => value.as_f64().is_some() || *value == Value::Null,
        Digest => value
            .as_str()
            .is_some_and(|s| s.strip_prefix("0x").is_some_and(hex16)),
        PositivesPer(count) => value.as_array().is_some_and(|a| {
            a.iter().all(positive) && obj.get(count).and_then(Value::as_u64) == Some(a.len() as u64)
        }),
        Rows(_) => value.as_array().is_some(),
    };
    if !ok {
        return Err(format!("{ctx}: \"{key}\" must be {kind:?}, got {value}"));
    }
    match kind {
        Rows(group) => check_rows(group, key, list(obj, key), doc, ctx),
        _ => Ok(()),
    }
}

fn check_fields(fields: &[Keys], obj: &Value, doc: &Value, ctx: &str) -> Result<(), String> {
    for Keys(keys, kind) in fields {
        for key in *keys {
            check_key(key, *kind, obj, doc, ctx)?;
        }
    }
    Ok(())
}

fn check_rows(
    group: &Group,
    key: &str,
    rows: &[Value],
    doc: &Value,
    ctx: &str,
) -> Result<(), String> {
    for (index, row) in rows.iter().enumerate() {
        // Axes first: once typed, their values name the row from here on.
        let mut name = Vec::new();
        for &(axis, kind) in group.axes {
            check_key(axis, kind, row, doc, ctx)?;
            name.push(format!("{axis}={}", row.get(axis).unwrap_or(&Value::Null)));
        }
        let ctx = format!("{ctx}/{key}[{}]", name.join(","));
        // The rows before this one are typed, and readable as such.
        let earlier = &rows[..index];
        let same = |r: &Value, at: &str| r.get(at) == row.get(at);
        let repeats = |r: &Value| group.axes.iter().all(|(axis, _)| same(r, axis));
        if earlier.iter().any(repeats) {
            return Err(format!("{ctx}: duplicate row"));
        }
        check_fields(group.fields, row, doc, &ctx)?;
        if let Some(Rule(_, claim)) = group.rules.iter().find(|Rule(holds, _)| !holds(row, doc)) {
            return Err(format!("{ctx}: {claim}, in {row}"));
        }
        if let Some((digest, within, only)) = group.same_digest {
            let scoped = only.is_none_or(|only| only == text(row, within));
            let first = earlier.iter().find(|r| scoped && same(r, within));
            if first.is_some_and(|first| !same(first, digest)) {
                return Err(format!("{ctx}: \"{digest}\" differs within a \"{within}\""));
            }
        }
    }
    let sizes = group.axes.iter().map(|(_, kind)| match kind {
        OneOf(names) => names.len(),
        _ => 1,
    });
    let (matrix, count) = (sizes.product::<usize>(), rows.len());
    if group.complete && count != matrix {
        return Err(format!(
            "{ctx}: {count} \"{key}\" rows, not each of {matrix} combinations once"
        ));
    }
    if rows.is_empty() {
        return Err(format!("{ctx}: \"{key}\" is empty"));
    }
    Ok(())
}

// Readers for rules. They run on keys the table has already typed, so a
// miss is a hole in the table, not bad input.
const TYPED: &str = "the table types this key before it is read";

fn uint(row: &Value, key: &str) -> u64 {
    row.get(key).and_then(Value::as_u64).expect(TYPED)
}

fn real(row: &Value, key: &str) -> f64 {
    row.get(key).and_then(Value::as_f64).expect(TYPED)
}

fn text<'a>(row: &'a Value, key: &str) -> &'a str {
    row.get(key).and_then(Value::as_str).expect(TYPED)
}

fn list<'a>(row: &'a Value, key: &str) -> &'a [Value] {
    row.get(key).and_then(Value::as_array).expect(TYPED)
}

/// The strings of an array of strings.
fn strings(value: &Value) -> Option<Vec<&str>> {
    value.as_array()?.iter().map(Value::as_str).collect()
}

const BACKENDS: Kind = OneOf(&["cycle-accurate", "fast-functional"]);
const COUNT: Kind = AtLeast(0);

/// `BENCH_shard_scaling.json`: per backend, the sharded engine's
/// throughput at each shard count (`benches/shard_scaling.rs`).
pub const SHARD_SCALING: Schema = Schema {
    bench: "shard_scaling",
    version: 2,
    header: &[
        Keys(&["host_parallelism"], AtLeast(1)),
        Keys(&["workload", "scheme"], Str),
        Keys(&["records_per_core", "cores", "master_seed"], COUNT),
        Keys(&["backends"], Rows(&SHARD_BACKENDS)),
    ],
};
const SHARD_BACKENDS: Group = Group {
    axes: &[("backend", BACKENDS)],
    complete: false,
    fields: &[Keys(&["points"], Rows(&SHARD_POINTS))],
    same_digest: None,
    rules: &[],
};
const SHARD_POINTS: Group = Group {
    axes: &[("shards", PowerOfTwo)],
    complete: false,
    fields: &[
        Keys(&["oram_accesses", "total_cycles", "makespan_cycles"], COUNT),
        Keys(&["setup_wall_ms", "run_wall_ms"], Positive),
        Keys(&["measured_wall_ms", "measured_speedup_vs_n1"], Positive),
        Keys(&["measured_accesses_per_sec"], Positive),
        Keys(&["projected_parallel_ms"], Positive),
        Keys(&["projected_accesses_per_sec"], Positive),
        Keys(&["merged_digest"], Digest),
        Keys(&["shard_wall_ms"], PositivesPer("shards")),
    ],
    same_digest: None,
    rules: &[
        // A physical bound: the threaded run does strictly no more work
        // than every shard back to back, so a measured wall beyond the
        // summed isolated walls plus a noise allowance means the timers or
        // the threading are broken, not the machine slow.
        Rule(
            |p, _| {
                let walls = list(p, "shard_wall_ms").iter().filter_map(Value::as_f64);
                real(p, "measured_wall_ms") <= walls.sum::<f64>() * 1.25 + 2.0
            },
            "the measured wall exceeds the summed isolated shard walls x1.25 + 2ms",
        ),
    ],
};

/// `BENCH_protocol_matrix.json`: every protocol on both backends
/// (`benches/protocol_matrix.rs`). One protocol's digest is the same on
/// both backends: memory timing may change *when* things happen but never
/// *what* the bus observes.
pub const PROTOCOL_MATRIX: Schema = Schema {
    bench: "protocol_matrix",
    version: 1,
    header: &[
        Keys(&["workload", "scheme"], Str),
        Keys(&["records_per_core", "cores", "master_seed"], COUNT),
        Keys(&["points"], Rows(&PROTOCOL_POINTS)),
    ],
};
const PROTOCOL_POINTS: Group = Group {
    axes: &[
        ("protocol", OneOf(&["ring-cb", "ring", "path", "circuit"])),
        ("backend", BACKENDS),
    ],
    complete: true,
    fields: &[
        Keys(&["oram_accesses", "p99_latency_cycles"], AtLeast(1)),
        Keys(&["run_wall_ms", "accesses_per_sec"], Positive),
        Keys(&["mean_latency_cycles"], Positive),
        Keys(&["digest"], Digest),
    ],
    same_digest: Some(("digest", "protocol", None)),
    rules: &[],
};

/// `BENCH_service_load.json`: the service front-end under an overload
/// storm and at a provisioned load, every submission mode on both backends
/// (`benches/service_load.rs`). The fixed-rate schedule digest is the same
/// on every fixed-rate point: the fixed-rate submission envelope is a pure
/// function of the clock and may depend on memory timing no more than on
/// tenant load.
pub const SERVICE_LOAD: Schema = Schema {
    bench: "service_load",
    version: 2,
    header: &[
        Keys(&["master_seed"], COUNT),
        // "tenants" before "points", whose last rule reads it.
        Keys(&["horizon", "tenants"], AtLeast(1)),
        Keys(&["points"], Rows(&SERVICE_POINTS)),
    ],
};
const SERVICE_POINTS: Group = Group {
    axes: &[
        ("load", OneOf(&["overload", "provisioned"])),
        ("mode", OneOf(&["best-effort", "fixed-rate"])),
        ("backend", BACKENDS),
    ],
    complete: true,
    fields: &[
        Keys(&["policy"], Str),
        Keys(&["ticks"], AtLeast(1)),
        Keys(&["real_accesses", "padding_accesses"], COUNT),
        Keys(&["padding_overhead", "shed_rate", "timeout_rate"], Fraction),
        Keys(&["run_wall_ms", "ns_per_tick"], Positive),
        // The share of shard steps that took the pipeline's O(1) path.
        Keys(&["quiet_tick_share"], Fraction),
        Keys(&["governor_degraded_entries"], COUNT),
        Keys(&["governor_shed_entries", "governor_recoveries"], COUNT),
        Keys(&["schedule_digest"], Digest),
        Keys(&["tenants"], Rows(&SERVICE_TENANTS)),
    ],
    same_digest: Some(("schedule_digest", "mode", Some("fixed-rate"))),
    rules: &[
        Rule(
            |p, _| uint(p, "real_accesses") + uint(p, "padding_accesses") > 0,
            "no accesses were dispatched",
        ),
        Rule(
            |p, _| text(p, "mode") != "best-effort" || uint(p, "padding_accesses") == 0,
            "best-effort submission never pads",
        ),
        // The point of the provisioned load: slots outnumber requests, so
        // the cadence's padding cost is on record, not just its envelope.
        Rule(
            |p, _| {
                text(p, "mode") != "fixed-rate"
                    || text(p, "load") != "provisioned"
                    || uint(p, "padding_accesses") > 0
            },
            "a provisioned fixed-rate cadence pads its idle slots",
        ),
        Rule(
            |p, doc| list(p, "tenants").len() as u64 == uint(doc, "tenants"),
            "one tenant row per tenant",
        ),
    ],
};
const SERVICE_TENANTS: Group = Group {
    axes: &[("tenant", Str)],
    complete: false,
    fields: &[
        Keys(&["arrivals", "completed", "timed_out", "rejected"], COUNT),
        Keys(&["p50", "p99", "p999", "queue_high_water"], COUNT),
    ],
    same_digest: None,
    rules: &[
        // The serving layer's exactly-once guarantee, checked in the
        // committed artifact itself.
        Rule(
            |t, _| {
                let resolved = uint(t, "completed") + uint(t, "timed_out") + uint(t, "rejected");
                resolved == uint(t, "arrivals")
            },
            "completed + timed_out + rejected != arrivals: every request resolves exactly once",
        ),
        Rule(
            |t, _| uint(t, "p50") <= uint(t, "p99") && uint(t, "p99") <= uint(t, "p999"),
            "latency percentiles out of order",
        ),
    ],
};

/// `BENCH_sched_policy.json`: every command-scheduling policy on two
/// workload mixes (`benches/sched_policy_matrix.rs`), all on the
/// cycle-accurate backend — the functional one has no command scheduler, so
/// its points could not differ by policy. Within a workload **every** point
/// carries the same access digest: command scheduling may never change what
/// the ORAM controller requests.
pub const SCHED_POLICY: Schema = Schema {
    bench: "sched_policy",
    version: 2,
    header: &[
        Keys(&["scheme"], Str),
        Keys(&["records_per_core", "cores", "master_seed"], COUNT),
        Keys(&["points"], Rows(&POLICY_POINTS)),
    ],
};
const POLICIES: Kind = OneOf(&[
    "fr-fcfs",
    "proactive-bank",
    "read-over-write",
    "speculative-window",
    "fixed-cadence",
]);
const POLICY_POINTS: Group = Group {
    axes: &[
        ("policy", POLICIES),
        ("backend", OneOf(&["cycle-accurate"])),
        ("workload", OneOf(&["black", "stream"])),
    ],
    complete: true,
    fields: &[
        Keys(&["oram_accesses"], AtLeast(1)),
        Keys(&["run_wall_ms", "mean_cycles_per_access"], Positive),
        Keys(&["bank_idle_proportion"], Fraction),
        Keys(&["pending_bank_idle_proportion"], Fraction),
        Keys(&["early_precharge_fraction"], Fraction),
        Keys(&["early_activate_fraction"], Fraction),
        Keys(&["deferred_writes", "withheld_issue_slots"], COUNT),
        Keys(&["digest"], Digest),
    ],
    same_digest: Some(("digest", "workload", None)),
    // Each policy's counters show its mechanism. Proactive Bank's band is
    // the paper's Fig. 8 shape (≈57–59 % of precharges issued early under
    // its blocking-core configuration) shifted up to ≈72–74 % by the bench's
    // MLP-4 cores, which keep the lookahead window occupied more often.
    rules: &[Rule(
        |p, _| {
            let early_pre = real(p, "early_precharge_fraction");
            let early = early_pre + real(p, "early_activate_fraction");
            match text(p, "policy") {
                "fr-fcfs" => early == 0.0,
                "proactive-bank" => (0.50..=0.85).contains(&early_pre),
                "speculative-window" => early > 0.0,
                "read-over-write" => uint(p, "deferred_writes") > 0,
                _ => uint(p, "withheld_issue_slots") > 0,
            }
        },
        "the counters do not show the policy's mechanism: the transaction-based baseline \
         issues no early prep, Proactive Bank's early-PRE rate sits in the measured band \
         [0.50, 0.85], speculative-window issues early prep, read-over-write defers writes, \
         fixed-cadence withholds issue slots",
    )],
};

/// `BENCH_paper.json`: every table `cargo bench --bench paper` prints at
/// the default size (`paper.rs`), cell by cell — the text as printed, the
/// number in it, and the paper's number where the paper prints the same
/// quantity. No wall-clock field: the document is the same on every host.
pub const PAPER: Schema = Schema {
    bench: "paper",
    version: 1,
    header: &[
        Keys(&["accesses_per_core", "seeds"], AtLeast(1)),
        Keys(&["warmup", "trace_seed"], COUNT),
        Keys(&["experiments"], Rows(&PAPER_EXPERIMENTS)),
    ],
};
/// The names of [`EXPERIMENTS`], for the `name` axis.
const PAPER_NAMES: [&str; EXPERIMENTS.len()] = {
    let mut names = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = EXPERIMENTS[i].name;
        i += 1;
    }
    names
};
const PAPER_EXPERIMENTS: Group = Group {
    axes: &[("name", OneOf(&PAPER_NAMES))],
    complete: true,
    fields: &[
        Keys(&["footer"], Str),
        Keys(&["tables"], Rows(&PAPER_TABLES)),
    ],
    same_digest: None,
    rules: &[],
};
const PAPER_TABLES: Group = Group {
    axes: &[("title", Str)],
    complete: false,
    fields: &[Keys(&["columns"], Strs), Keys(&["rows"], Rows(&PAPER_ROWS))],
    same_digest: None,
    rules: &[Rule(
        |table, _| {
            let columns = table.get("columns").and_then(strings).expect(TYPED);
            list(table, "rows").iter().all(|row| {
                let cells = list(row, "cells").iter().map(|cell| text(cell, "column"));
                cells.eq(columns.iter().skip(1).copied())
            })
        },
        "a row's cells are not the table's columns after the first, one each and in order",
    )],
};
const PAPER_ROWS: Group = Group {
    axes: &[("label", Str)],
    complete: false,
    fields: &[Keys(&["cells"], Rows(&PAPER_CELLS))],
    same_digest: None,
    rules: &[],
};
const PAPER_CELLS: Group = Group {
    axes: &[("column", Str)],
    complete: false,
    fields: &[
        Keys(&["text"], Str),
        Keys(&["number", "paper"], NumberOrNull),
    ],
    same_digest: None,
    rules: &[Rule(
        |cell, _| {
            cell.get("paper") == Some(&Value::Null) || cell.get("number") != Some(&Value::Null)
        },
        "the paper's number on a cell that holds none",
    )],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeMap;

    /// Each table with the number of keys it declares, all nesting levels
    /// and the two pinned ones included: the walk below must visit exactly
    /// that many, so a group it fails to descend into does not go unnoticed.
    const SCHEMAS: [(&Schema, usize); 5] = [
        (&PAPER, 19),
        (&SHARD_SCALING, 24),
        (&PROTOCOL_MATRIX, 16),
        (&SERVICE_LOAD, 33),
        (&SCHED_POLICY, 20),
    ];

    fn committed(schema: &Schema) -> Value {
        let path = format!(
            "{}/../../BENCH_{}.json",
            env!("CARGO_MANIFEST_DIR"),
            schema.bench
        );
        let text = std::fs::read_to_string(path).expect("the document is committed");
        json::parse(&text).expect("the document parses")
    }

    /// The object reached from `doc` by taking, per step of `path`, the
    /// first row of the array under that key.
    fn first_row<'a>(doc: &'a mut Value, path: &[&str]) -> &'a mut BTreeMap<String, Value> {
        let mut at = doc;
        for key in path {
            let Value::Object(map) = at else {
                panic!("{key}: parent is not an object")
            };
            let Some(Value::Array(rows)) = map.get_mut(*key) else {
                panic!("{key}: not an array")
            };
            at = &mut rows[0];
        }
        let Value::Object(map) = at else {
            panic!("{path:?}: not an object")
        };
        map
    }

    fn rows_mut<'a>(obj: &'a mut BTreeMap<String, Value>, key: &str) -> &'a mut Vec<Value> {
        let Some(Value::Array(rows)) = obj.get_mut(key) else {
            panic!("{key}: not an array")
        };
        rows
    }

    /// The validator's message for `doc` with `edit` applied at `path`.
    fn rejection(
        schema: &Schema,
        doc: &Value,
        path: &[&str],
        what: &str,
        edit: impl FnOnce(&mut BTreeMap<String, Value>),
    ) -> String {
        let mut damaged = doc.clone();
        edit(first_row(&mut damaged, path));
        match schema.validate(&damaged) {
            Err(message) => message,
            Ok(()) => panic!("{}: {what} under {path:?} was accepted", schema.bench),
        }
    }

    fn flat(fields: &[Keys]) -> Vec<(&'static str, Kind)> {
        let pairs =
            |Keys(keys, kind): &Keys| keys.iter().map(|key| (*key, *kind)).collect::<Vec<_>>();
        fields.iter().flat_map(pairs).collect()
    }

    /// A value of the right JSON type that the kind's bound refuses, where
    /// the kind has a bound.
    fn out_of_range(kind: Kind) -> Option<Value> {
        match kind {
            OneOf(_) => Some("no-such-name".into()),
            AtLeast(0) | Str | Strs | NumberOrNull | Rows(_) => None,
            AtLeast(min) => Some((min - 1).into()),
            PowerOfTwo => Some(3u64.into()),
            Positive => Some(Value::Number(0.0)),
            Fraction => Some(Value::Number(1.5)),
            Digest => Some("0x8FEF".into()),
            PositivesPer(_) => Some(Value::Array(vec![Value::Number(0.0)])),
        }
    }

    /// Damages every one of `keys` in the first row under `path`, then
    /// descends into nested groups; returns how many keys it visited.
    fn damage_keys(
        schema: &Schema,
        doc: &Value,
        path: &mut Vec<&'static str>,
        keys: &[(&'static str, Kind)],
    ) -> usize {
        let mut visited = 0;
        for &(key, kind) in keys {
            visited += 1;
            let quoted = format!("\"{key}\"");
            let message = rejection(schema, doc, path, &format!("removing {key}"), |row| {
                row.remove(key);
            });
            assert!(message.contains(&quoted), "{message} does not name {key}");
            let wrong_type = match kind {
                Str | OneOf(_) | Digest => Value::Number(1.0),
                _ => Value::from("x"),
            };
            let message = rejection(schema, doc, path, &format!("mistyping {key}"), |row| {
                row.insert(key.to_string(), wrong_type);
            });
            assert!(message.contains(&quoted), "{message} does not name {key}");
            if let Some(value) = out_of_range(kind) {
                let what = format!("{key} = {value}");
                let message = rejection(schema, doc, path, &what, |row| {
                    row.insert(key.to_string(), value);
                });
                assert!(message.contains(&quoted), "{message} does not name {key}");
            }
            if let Rows(group) = kind {
                let what = format!("a repeated {key} row");
                let message = rejection(schema, doc, path, &what, |row| {
                    let rows = rows_mut(row, key);
                    rows.push(rows[0].clone());
                });
                assert!(message.contains("duplicate"), "{message}");
                // A full matrix misses a dropped row; any group, all rows.
                let what = format!("dropping {key} rows");
                let message = rejection(schema, doc, path, &what, |row| {
                    let rows = rows_mut(row, key);
                    rows.truncate(if group.complete { rows.len() - 1 } else { 0 });
                });
                let expected = if group.complete {
                    "combinations once"
                } else {
                    "is empty"
                };
                assert!(message.contains(expected), "{message}");
                path.push(key);
                visited += damage_keys(schema, doc, path, group.axes);
                visited += damage_keys(schema, doc, path, &flat(group.fields));
                path.pop();
            }
        }
        visited
    }

    /// The mutation table: every committed document is accepted as it is,
    /// and for every key a table declares, at every nesting level, the
    /// document is rejected — by a message naming the key — without the
    /// key, with a value of the wrong JSON type, and with a value its bound
    /// or name list refuses; every row group is rejected with a row
    /// repeated and with rows dropped.
    #[test]
    fn every_declared_key_and_row_is_held() {
        for (schema, declared) in SCHEMAS {
            let doc = committed(schema);
            schema
                .validate(&doc)
                .expect("the committed document is valid");
            let pinned = [("bench", Str), ("schema_version", AtLeast(schema.version))];
            let visited = damage_keys(schema, &doc, &mut Vec::new(), &pinned)
                + damage_keys(schema, &doc, &mut Vec::new(), &flat(schema.header));
            assert_eq!(visited, declared, "{}", schema.bench);
            // The pinned values: another bench's tag and the version before
            // or after this one are refused, not just a missing key.
            for (key, value) in [
                ("bench", Value::from("other_bench")),
                ("schema_version", (schema.version + 1).into()),
            ] {
                let message = rejection(schema, &doc, &[], key, |row| {
                    row.insert(key.to_string(), value);
                });
                assert!(message.contains(key), "{message}");
            }
        }
    }

    /// The two plain-`fn` rules the hand-written damage lists in the crate
    /// root's tests do not reach.
    #[test]
    fn rules_the_tables_cannot_say_reject() {
        let message = rejection(
            &SERVICE_LOAD,
            &committed(&SERVICE_LOAD),
            &["points"],
            "a point that dispatched nothing",
            |point| {
                point.insert("real_accesses".to_string(), 0u64.into());
                point.insert("padding_accesses".to_string(), 0u64.into());
            },
        );
        assert!(message.contains("no accesses were dispatched"), "{message}");

        let mut doc = committed(&SCHED_POLICY);
        for point in rows_mut(first_row(&mut doc, &[]), "points") {
            if text(point, "policy") == "speculative-window" {
                let Value::Object(point) = point else {
                    panic!("point is not an object")
                };
                point.insert("early_precharge_fraction".to_string(), 0u64.into());
                point.insert("early_activate_fraction".to_string(), 0u64.into());
            }
        }
        let message = SCHED_POLICY.validate(&doc).expect_err("no early prep");
        assert!(
            message.contains("speculative-window issues early prep"),
            "{message}"
        );
    }

    #[test]
    fn digests_are_written_the_way_they_are_read() {
        for digest in [0, 0x8FEF, u64::MAX, (1 << 53) + 1] {
            let text = hex_digest(digest);
            let doc = Value::object(vec![("d", text.as_str().into())]);
            check_key("d", Digest, &doc, &doc, "t").expect("a digest");
            assert_eq!(u64::from_str_radix(&text[2..], 16), Ok(digest));
        }
        assert!(std::panic::catch_unwind(|| finite(f64::NAN)).is_err());
    }
}
