//! The committed bench documents (`BENCH_*.json`) as data: one [`Schema`]
//! table per document and one interpreter, [`Schema::validate`], that walks
//! any of them. The entries that emit them go through the same tables
//! ([`finite`], [`hex_digest`], [`Schema::write`]), and the driver prints a
//! document's rows by them, so a document's format is written down once,
//! here; `EXPERIMENTS.md` says what the numbers mean and why each claim must
//! hold.
//!
//! A table gives, per kind of value (`Kind`), the keys that hold it, and
//! per array of rows (`Group`) the keys that identify a row, the other keys,
//! which rows must carry one digest, and — what a table cannot say —
//! relations between fields as plain `fn`s (`Rule`). It also names its
//! *host* keys: the walls, rates and host facts a run on another machine
//! may change. The checks ask whether a document is well formed and keeps
//! its claims, never how *fast* it is; every other key is simulated, and a
//! regenerated document must repeat the committed one's. Every row records
//! what ran under `run`, read back by the entries' own reader (`Run`), so a
//! row whose config or trace no run could have is refused.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::config::TreeError;
use crate::documents::{read_service_run, TraceRun};
use crate::experiments::EXPERIMENTS;
use crate::json::{self, Value};
use crate::paper::{Cell, Table};
use Kind::{AtLeast, Digest, Fraction, NumberOrNull, OneOf, Positive, PositivesPer, PowerOfTwo};
use Kind::{Rows, Run, Str, Strs};

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
    /// What a row ran, as this reader of `documents.rs` accepts it; its
    /// error is reported with its path below the key.
    Run(fn(&Value) -> Result<(), TreeError>),
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
pub(crate) struct Schema {
    /// The document's `bench` tag, and the `<bench>` of `BENCH_<bench>.json`.
    pub bench: &'static str,
    /// The one `schema_version` this table describes.
    pub version: u64,
    /// The top-level keys after those two, in checking order.
    header: &'static [Keys],
    /// The keys, at any depth, whose values depend on the host that ran the
    /// document; the comparison with the committed copy skips them.
    pub(crate) host: &'static [&'static str],
}

impl Schema {
    /// Checks a parsed document against this table; the error names the
    /// first offending row and key.
    pub(crate) fn validate(&self, doc: &Value) -> Result<(), String> {
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

    /// `fields` completed to a document: this table's `bench` tag and
    /// `schema_version` added.
    pub(crate) fn document(&self, mut fields: Vec<(&str, Value)>) -> Value {
        fields.push(("bench", self.bench.into()));
        fields.push(("schema_version", self.version.into()));
        Value::object(fields)
    }

    /// Validates `doc` and writes it to `STRING_ORAM_BENCH_JSON` if that is
    /// set, otherwise over the committed `BENCH_<bench>.json`. A document
    /// written anywhere but the committed path is then compared with the
    /// committed copy: every key but the table's host keys must be equal.
    ///
    /// # Errors
    ///
    /// When the document does not match the table, cannot be written, or —
    /// written elsewhere — differs from the committed copy; the message
    /// names the first key that differs.
    pub(crate) fn write(&self, doc: &Value) -> Result<(), String> {
        self.validate(doc)
            .map_err(|e| format!("the document does not match its schema: {e}"))?;
        let committed = self.committed_path();
        let path =
            std::env::var_os("STRING_ORAM_BENCH_JSON").map_or(committed.clone(), PathBuf::from);
        let text = format!("{doc}\n");
        std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nwrote {}", path.display());
        let same = |a: &Path, b: &Path| a.canonicalize().ok() == b.canonicalize().ok();
        if same(&path, &committed) {
            return Ok(());
        }
        match self.first_difference(&json::parse(&text)?, &self.committed()?) {
            Some(difference) => Err(format!(
                "{}: not the committed BENCH_{}.json: {difference}",
                path.display(),
                self.bench
            )),
            None => Ok(()),
        }
    }

    /// `BENCH_<bench>.json` at the root of the repository.
    fn committed_path(&self) -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
        root.expect("the crate sits two levels below the root")
            .join(format!("BENCH_{}.json", self.bench))
    }

    /// The committed `BENCH_<bench>.json`, parsed; `Err` when it cannot be
    /// read or does not parse.
    pub(crate) fn committed(&self) -> Result<Value, String> {
        let path = self.committed_path();
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()));
        json::parse(&text?)
    }

    /// The first key, in key order, at which `fresh` differs from
    /// `committed` outside the host keys, with both values; `None` when the
    /// simulated parts are equal.
    pub(crate) fn first_difference(&self, fresh: &Value, committed: &Value) -> Option<String> {
        difference(fresh, committed, self.host, "")
    }

    /// The document as the driver prints it: per array of rows one table, a
    /// row per row labelled by its axes and a column per other key that
    /// holds one value; an array nested in a row gets a table per row.
    pub(crate) fn tables(&self, doc: &Value) -> Vec<Table> {
        let header = flat(self.header).into_iter();
        let setting = header.filter(|&(key, kind)| shown_as_cell(kind) && doc.get(key).is_some());
        let setting: Vec<String> = setting
            .map(|(key, _)| format!("{key} {}", shown(doc, key)))
            .collect();
        let title = match setting.is_empty() {
            true => self.bench.to_string(),
            false => format!("{} ({})", self.bench, setting.join(", ")),
        };
        let mut tables = Vec::new();
        for (key, kind) in flat(self.header) {
            if let Rows(group) = kind {
                tabulate(group, key, doc, &title, &mut tables);
            }
        }
        tables
    }
}

/// Where `fresh` and `committed` part, below `at`, outside `host`; a
/// missing key reads as `null`.
fn difference(fresh: &Value, committed: &Value, host: &[&str], at: &str) -> Option<String> {
    match (fresh, committed) {
        (Value::Object(fresh), Value::Object(committed)) => {
            let keys: BTreeSet<&String> = fresh.keys().chain(committed.keys()).collect();
            let mut keys = keys.into_iter().filter(|key| !host.contains(&key.as_str()));
            keys.find_map(|key| {
                let at = [at, key].join(if at.is_empty() { "" } else { "." });
                let (here, there, null) = (fresh.get(key), committed.get(key), Value::Null);
                difference(here.unwrap_or(&null), there.unwrap_or(&null), host, &at)
            })
        }
        (Value::Array(fresh), Value::Array(committed)) if fresh.len() == committed.len() => {
            let mut pairs = fresh.iter().zip(committed).enumerate();
            pairs.find_map(|(i, (a, b))| difference(a, b, host, &format!("{at}[{i}]")))
        }
        _ => (fresh != committed).then(|| format!("\"{at}\" is {fresh}, committed {committed}")),
    }
}

/// The tables of the rows under `key` of `parent` (see [`Schema::tables`]).
fn tabulate(group: &Group, key: &str, parent: &Value, title: &str, out: &mut Vec<Table>) {
    let rows = list(parent, key);
    let fields = flat(group.fields);
    let columns = fields.iter().filter(|&&(_, kind)| shown_as_cell(kind));
    let columns: Vec<&str> = columns.map(|&(key, _)| key).collect();
    let axes = || group.axes.iter().map(|&(axis, _)| axis);
    let label = |row: &Value| {
        axes()
            .map(|axis| shown(row, axis))
            .collect::<Vec<_>>()
            .join(" ")
    };
    if !columns.is_empty() {
        let corner = axes().collect::<Vec<_>>().join(" ");
        let mut table = Table::new(
            format!("{title}: {key}"),
            &[&[corner.as_str()], &columns[..]].concat(),
        );
        for row in rows {
            let cells = columns.iter().map(|column| Cell::text(shown(row, column)));
            table.rows.push((label(row), cells.collect()));
        }
        out.push(table);
    }
    for row in rows {
        for &(inner, kind) in &fields {
            if let Rows(group) = kind {
                tabulate(group, inner, row, &format!("{title}, {}", label(row)), out);
            }
        }
    }
}

/// Whether a key of this kind holds one value, printed as one cell.
fn shown_as_cell(kind: Kind) -> bool {
    !matches!(kind, Rows(_) | PositivesPer(_) | Strs | Run(_))
}

/// The value under `key` as a cell shows it: a whole number as it is, any
/// other to three decimals, a string without quotes.
fn shown(row: &Value, key: &str) -> String {
    match row.get(key) {
        Some(Value::Number(n)) if n.fract() == 0.0 => format!("{n}"),
        Some(Value::Number(n)) => format!("{n:.3}"),
        Some(Value::String(s)) => s.clone(),
        Some(other) => other.to_string(),
        None => "-".to_string(),
    }
}

/// Each key of `fields` with its kind.
fn flat(fields: &[Keys]) -> Vec<(&'static str, Kind)> {
    let pairs = |Keys(keys, kind): &Keys| keys.iter().map(|key| (*key, *kind)).collect::<Vec<_>>();
    fields.iter().flat_map(pairs).collect()
}

/// A measurement as a JSON number; panics on NaN or an infinity, which is
/// a harness bug, not a value to serialize.
#[must_use]
pub(crate) fn finite(n: f64) -> Value {
    Value::try_from(n).expect("bench measurements are finite")
}

/// A 64-bit digest as the documents carry it (`Kind::Digest`). Digests go
/// through here, never `Value::from(u64)`, which refuses above 2^53.
#[must_use]
pub(crate) fn hex_digest(digest: u64) -> String {
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
        Run(read) => {
            let error = |TreeError(path, message)| {
                let path = [&[key.to_string()][..], &path].concat().join(".");
                format!("{ctx}: \"{path}\": {message}")
            };
            return read(value).map_err(error);
        }
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
/// A trace-driven row's run: `{"config", "workload", "records_per_core",
/// "trace_seed"}`.
const TRACE_RUN: Kind = Run(|run| TraceRun::read(run).map(drop));
/// A service row's run: `{"config"}`.
const SERVICE_RUN: Kind = Run(|run| read_service_run(run).map(drop));

/// `BENCH_shard_scaling.json`: per backend, the sharded engine's
/// throughput at each shard count (the `shard_scaling` entry).
pub(crate) const SHARD_SCALING: Schema = Schema {
    bench: "shard_scaling",
    version: 4,
    header: &[
        Keys(&["host_parallelism"], AtLeast(1)),
        Keys(&["backends"], Rows(&SHARD_BACKENDS)),
    ],
    host: &[
        "host_parallelism",
        "setup_wall_ms",
        "run_wall_ms",
        "measured_speedup_vs_n1",
        "measured_accesses_per_sec",
        "shard_wall_ms",
        "projected_parallel_ms",
        "projected_accesses_per_sec",
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
        Keys(
            &["measured_speedup_vs_n1", "measured_accesses_per_sec"],
            Positive,
        ),
        Keys(&["projected_parallel_ms"], Positive),
        Keys(&["projected_accesses_per_sec"], Positive),
        Keys(&["merged_digest"], Digest),
        Keys(&["shard_wall_ms"], PositivesPer("shards")),
        Keys(&["run"], TRACE_RUN),
    ],
    same_digest: None,
    rules: &[
        // A physical bound: the threaded run does strictly no more work
        // than every shard back to back, so a run wall beyond the summed
        // isolated walls plus a noise allowance means the timers or the
        // threading are broken, not the machine slow.
        Rule(
            |p, _| {
                let walls = list(p, "shard_wall_ms").iter().filter_map(Value::as_f64);
                real(p, "run_wall_ms") <= walls.sum::<f64>() * 1.25 + 2.0
            },
            "the measured wall exceeds the summed isolated shard walls x1.25 + 2ms",
        ),
    ],
};

/// `BENCH_protocol_matrix.json`: every protocol on both backends
/// (the `protocol_matrix` entry). One protocol's digest is the same on
/// both backends: memory timing may change *when* things happen but never
/// *what* the bus observes.
pub(crate) const PROTOCOL_MATRIX: Schema = Schema {
    bench: "protocol_matrix",
    version: 2,
    header: &[Keys(&["points"], Rows(&PROTOCOL_POINTS))],
    host: &["run_wall_ms", "accesses_per_sec"],
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
        Keys(&["mean_cycles_per_access"], Positive),
        Keys(&["digest"], Digest),
        Keys(&["run"], TRACE_RUN),
    ],
    same_digest: Some(("digest", "protocol", None)),
    rules: &[],
};

/// `BENCH_service_load.json`: the service front-end under an overload
/// storm and at a provisioned load, every submission mode on both backends
/// (the `service_load` entry). The fixed-rate schedule digest is the same
/// on every fixed-rate point: the fixed-rate submission envelope is a pure
/// function of the clock and may depend on memory timing no more than on
/// tenant load.
pub(crate) const SERVICE_LOAD: Schema = Schema {
    bench: "service_load",
    version: 3,
    header: &[Keys(&["points"], Rows(&SERVICE_POINTS))],
    host: &["run_wall_ms", "ns_per_tick"],
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
        Keys(&["run"], SERVICE_RUN),
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
            |p, _| {
                let run = read_service_run(p.get("run").expect(TYPED)).expect(TYPED);
                list(p, "tenants").len() == run.tenants.len()
            },
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
/// workload mixes (the `sched_policy` entry), all on the
/// cycle-accurate backend — the functional one has no command scheduler, so
/// its points could not differ by policy. Within a workload **every** point
/// carries the same access digest: command scheduling may never change what
/// the ORAM controller requests.
pub(crate) const SCHED_POLICY: Schema = Schema {
    bench: "sched_policy",
    version: 4,
    header: &[Keys(&["points"], Rows(&POLICY_POINTS))],
    host: &["run_wall_ms"],
};
const POLICIES: Kind = OneOf(&[
    "fr-fcfs",
    "proactive-bank",
    "read-over-write",
    "proactive-bank/lookahead=4",
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
        Keys(&["run"], TRACE_RUN),
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
                "proactive-bank/lookahead=4" => early > 0.0,
                "read-over-write" => uint(p, "deferred_writes") > 0,
                _ => uint(p, "withheld_issue_slots") > 0,
            }
        },
        "the counters do not show the policy's mechanism: the transaction-based baseline \
         issues no early prep, Proactive Bank's early-PRE rate sits in the measured band \
         [0.50, 0.85], Proactive Bank at lookahead 4 issues early prep, read-over-write \
         defers writes, fixed-cadence withholds issue slots",
    )],
};

/// `BENCH_paper.json`: every table `cargo bench --bench paper` prints at
/// the default size when no entry is named (`paper.rs`), cell by cell — the text as printed, the
/// number in it, and the paper's number where the paper prints the same
/// quantity. No wall-clock field: the document is the same on every host.
pub(crate) const PAPER: Schema = Schema {
    bench: "paper",
    version: 1,
    header: &[
        Keys(&["accesses_per_core", "seeds"], AtLeast(1)),
        Keys(&["warmup", "trace_seed"], COUNT),
        Keys(&["experiments"], Rows(&PAPER_EXPERIMENTS)),
    ],
    host: &[],
};
/// How many of [`EXPERIMENTS`] are the paper's: those with no document of
/// their own.
const PAPER_COUNT: usize = {
    let (mut count, mut i) = (0, 0);
    while i < EXPERIMENTS.len() {
        count += EXPERIMENTS[i].document.is_none() as usize;
        i += 1;
    }
    count
};
/// The names of the paper's experiments, for the `name` axis.
const PAPER_NAMES: [&str; PAPER_COUNT] = {
    let mut names = [""; PAPER_COUNT];
    let (mut n, mut i) = (0, 0);
    while i < EXPERIMENTS.len() {
        if EXPERIMENTS[i].document.is_none() {
            names[n] = EXPERIMENTS[i].name;
            n += 1;
        }
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
pub(crate) mod tests {
    use super::*;
    use crate::config::merge;
    use std::collections::BTreeMap;

    /// Each table with the number of keys it declares, all nesting levels
    /// and the two pinned ones included: the walk below must visit exactly
    /// that many, so a group it fails to descend into does not go unnoticed.
    const SCHEMAS: [(&Schema, usize); 5] = [
        (&PAPER, 19),
        (&SHARD_SCALING, 19),
        (&PROTOCOL_MATRIX, 12),
        (&SERVICE_LOAD, 31),
        (&SCHED_POLICY, 17),
    ];

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

    /// Values of the right JSON type that the kind's bound refuses, where
    /// the kind has a bound.
    fn out_of_range(kind: Kind) -> Vec<Value> {
        let walls =
            |values: &[f64]| Value::Array(values.iter().map(|&v| Value::Number(v)).collect());
        match kind {
            OneOf(_) => vec!["no-such-name".into()],
            // A run's bad leaves are cases of their own (`RUN_CLAIMS`).
            AtLeast(0) | Str | Strs | NumberOrNull | Rows(_) | Run(_) => vec![],
            AtLeast(min) => vec![(min - 1).into()],
            PowerOfTwo => vec![3u64.into()],
            Positive => vec![Value::Number(0.0)],
            Fraction => vec![Value::Number(1.5)],
            Digest => vec!["0x8FEF".into(), "8FEFA68912F2C2F5".into()],
            // A wall of zero, and fewer walls than shards.
            PositivesPer(_) => vec![walls(&[0.0]), walls(&[])],
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
            // Changed, the key is named by the comparison with the committed
            // copy — unless it is a host key, which the comparison skips.
            let mut changed = doc.clone();
            first_row(&mut changed, path).insert(key.to_string(), "changed".into());
            let named = schema
                .first_difference(&changed, doc)
                .filter(|d| d.contains(key));
            let host = schema.host.contains(&key);
            assert_eq!(named.is_none(), host, "{}: changing {key}", schema.bench);
            let wrong_type = match kind {
                Str | OneOf(_) | Digest => Value::Number(1.0),
                _ => Value::from("x"),
            };
            let message = rejection(schema, doc, path, &format!("mistyping {key}"), |row| {
                row.insert(key.to_string(), wrong_type);
            });
            assert!(message.contains(&quoted), "{message} does not name {key}");
            for value in out_of_range(kind) {
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
            let doc = schema.committed().unwrap();
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

    type Row = BTreeMap<String, Value>;

    /// One damage of a committed document: in the rows under the path (the
    /// first row at each step before the last), edit the first row the
    /// picker picks; the document must then be refused by a message holding
    /// the claim.
    type Case = (
        &'static Schema,
        &'static [&'static str],
        Pick,
        fn(&mut Row),
        &'static str,
    );
    type Pick = fn(&Value) -> bool;

    const ANY: Pick = |_| true;
    const POINTS: &[&str] = &["points"];
    const TENANTS: &[&str] = &["points", "tenants"];
    const MECHANISM: &str = "the counters do not show the policy's mechanism";

    fn has(row: &Value, key: &str, value: &str) -> bool {
        row.get(key).and_then(Value::as_str) == Some(value)
    }

    fn set(row: &mut Row, key: &str, value: impl Into<Value>) {
        row.insert(key.to_string(), value.into());
    }

    fn number(row: &Row, key: &str) -> u64 {
        row.get(key).and_then(Value::as_u64).expect(TYPED)
    }

    fn provisioned_fixed_rate(p: &Value) -> bool {
        has(p, "mode", "fixed-rate") && has(p, "load", "provisioned")
    }

    /// Lays `tree` over the row's `run`, as `config::merge` does.
    fn rerun(row: &mut Row, tree: &str) {
        merge(row.get_mut("run").expect(TYPED), json::parse(tree).unwrap());
    }

    /// What the readers of a row's `run` refuse, each with one case in
    /// [`CASES`]: an unknown config path, a config `validate` refuses and an
    /// unknown workload.
    const RUN_CLAIMS: [&str; 3] = [
        "\"run.config.governor.bogus\": unknown key; expected one of degrade_enter",
        "\"run.config\": invalid SystemConfig: cores must be in 1..",
        "\"run.workload\": no workload \"nope\"",
    ];

    /// The rule cases: one per branch of every `Rule` and one per
    /// `same_digest` group of every table.
    #[rustfmt::skip]
    const CASES: &[Case] = &[
        (&SHARD_SCALING, &["backends", "points"], ANY,
            |p| set(p, "run_wall_ms", Value::Number(1e9)), "exceeds the summed isolated shard walls"),
        (&SERVICE_LOAD, POINTS, ANY,
            |p| { set(p, "real_accesses", 0u64); set(p, "padding_accesses", 0u64) },
            "no accesses were dispatched"),
        (&SERVICE_LOAD, POINTS, |p| has(p, "mode", "best-effort"),
            |p| set(p, "padding_accesses", 7u64), "best-effort submission never pads"),
        (&SERVICE_LOAD, POINTS, provisioned_fixed_rate,
            |p| set(p, "padding_accesses", 0u64), "a provisioned fixed-rate cadence pads its idle slots"),
        (&SERVICE_LOAD, POINTS, ANY, |p| drop(rows_mut(p, "tenants").pop()), "one tenant row per tenant"),
        (&SERVICE_LOAD, TENANTS, ANY,
            |t| set(t, "completed", number(t, "completed") + 1), "every request resolves exactly once"),
        (&SERVICE_LOAD, TENANTS, ANY,
            |t| set(t, "p50", number(t, "p999") + 1), "latency percentiles out of order"),
        (&SCHED_POLICY, POINTS, |p| has(p, "policy", "fr-fcfs"),
            |p| set(p, "early_activate_fraction", Value::Number(0.2)), MECHANISM),
        (&SCHED_POLICY, POINTS, |p| has(p, "policy", "proactive-bank"),
            |p| set(p, "early_precharge_fraction", Value::Number(0.13)), MECHANISM),
        (&SCHED_POLICY, POINTS, |p| has(p, "policy", "proactive-bank/lookahead=4"),
            |p| { set(p, "early_precharge_fraction", 0u64); set(p, "early_activate_fraction", 0u64) },
            MECHANISM),
        (&SCHED_POLICY, POINTS, |p| has(p, "policy", "read-over-write"),
            |p| set(p, "deferred_writes", 0u64), MECHANISM),
        (&SCHED_POLICY, POINTS, |p| has(p, "policy", "fixed-cadence"),
            |p| set(p, "withheld_issue_slots", 0u64), MECHANISM),
        (&PAPER, &["experiments", "tables"], ANY,
            |t| drop(rows_mut(t, "columns").pop()), "a row's cells are not the table's columns"),
        (&PAPER, &["experiments", "tables", "rows", "cells"], ANY,
            |c| { set(c, "number", Value::Null); set(c, "paper", 4u64) },
            "the paper's number on a cell that holds none"),
        (&PROTOCOL_MATRIX, POINTS, |p| has(p, "protocol", "ring") && has(p, "backend", "fast-functional"),
            |p| set(p, "digest", "0x0000000000000001"), "\"digest\" differs within a \"protocol\""),
        (&SERVICE_LOAD, POINTS, provisioned_fixed_rate,
            |p| set(p, "schedule_digest", "0x0000000000000001"),
            "\"schedule_digest\" differs within a \"mode\""),
        (&SCHED_POLICY, POINTS, |p| has(p, "policy", "fixed-cadence") && has(p, "workload", "stream"),
            |p| set(p, "digest", "0x0000000000000001"), "\"digest\" differs within a \"workload\""),
        (&SERVICE_LOAD, POINTS, ANY,
            |p| rerun(p, r#"{"config": {"governor": {"bogus": 1}}}"#), RUN_CLAIMS[0]),
        (&SCHED_POLICY, POINTS, ANY, |p| rerun(p, r#"{"config": {"cores": 0}}"#), RUN_CLAIMS[1]),
        (&PROTOCOL_MATRIX, POINTS, ANY, |p| rerun(p, r#"{"workload": "nope"}"#), RUN_CLAIMS[2]),
    ];

    /// Every group a table reaches, at every depth.
    fn groups(fields: &[Keys]) -> Vec<&'static Group> {
        let nested = flat(fields).into_iter().filter_map(|(_, kind)| match kind {
            Rows(group) => Some(group),
            _ => None,
        });
        nested
            .flat_map(|group| [vec![group], groups(group.fields)].concat())
            .collect()
    }

    /// The group of the rows under `path` (the keys of nested row arrays).
    fn group_at(schema: &Schema, path: &[&str]) -> &'static Group {
        let mut fields = schema.header;
        let mut found = None;
        for key in path {
            let kind = flat(fields).into_iter().find(|&(k, _)| k == *key);
            let Some((_, Rows(group))) = kind else {
                panic!("{key}: not a row array")
            };
            (fields, found) = (group.fields, Some(group));
        }
        found.expect("a path")
    }

    /// Each case of [`CASES`] on `schema`'s committed document is refused
    /// with its rule's message, which names the row by its axes.
    pub(crate) fn reject_cases(schema: &Schema) {
        let cases = CASES.iter().filter(|case| case.0.bench == schema.bench);
        for &(_, path, pick, edit, claim) in cases {
            let mut doc = schema.committed().unwrap();
            let (last, before) = path.split_last().expect("a path");
            let rows = rows_mut(first_row(&mut doc, before), last);
            let Some(Value::Object(row)) = rows.iter_mut().find(|row| pick(row)) else {
                panic!("{}: no row to damage under {path:?}", schema.bench)
            };
            let axes = group_at(schema, path).axes.iter();
            let name: Vec<String> = axes
                .map(|(axis, _)| format!("{axis}={}", row[*axis]))
                .collect();
            let name = format!("{last}[{}]", name.join(","));
            edit(row);
            let message = schema.validate(&doc).expect_err(claim);
            assert!(message.contains(claim), "{message}");
            assert!(message.contains(&name), "{message} does not name {name}");
        }
    }

    /// What a table cannot say has its cases: every `Rule` (the policy
    /// mechanism rule once per policy), every `same_digest` of every table
    /// and every claim of [`RUN_CLAIMS`] has exactly its cases in
    /// [`CASES`], so a rule added without one fails here; each document's
    /// test runs its own (`reject_cases`).
    #[test]
    fn rules_the_tables_cannot_say_reject() {
        let OneOf(policies) = POLICIES else {
            unreachable!("the policy axis names the policies")
        };
        let cases = |claim: &str| CASES.iter().filter(|case| claim.contains(case.4)).count();
        for claim in RUN_CLAIMS {
            assert_eq!(cases(claim), 1, "{claim}");
        }
        let mut expected = RUN_CLAIMS.len();
        for (schema, _) in SCHEMAS {
            for group in groups(schema.header) {
                for Rule(_, claim) in group.rules {
                    let branches = if claim.starts_with(MECHANISM) {
                        policies.len()
                    } else {
                        1
                    };
                    assert_eq!(cases(claim), branches, "{}: {claim}", schema.bench);
                    expected += branches;
                }
                if let Some((digest, within, _)) = group.same_digest {
                    let claim = format!("\"{digest}\" differs within a \"{within}\"");
                    assert_eq!(cases(&claim), 1, "{}: {claim}", schema.bench);
                    expected += 1;
                }
            }
        }
        assert_eq!(CASES.len(), expected, "a case for a rule no table holds");
    }

    /// A table per array of rows, an array nested in a row once per row.
    #[test]
    fn documents_print_a_table_per_array_of_rows() {
        let tables = SERVICE_LOAD.tables(&SERVICE_LOAD.committed().unwrap());
        let corners: Vec<&str> = tables.iter().map(|t| t.columns[0].as_str()).collect();
        let tenants = ["tenant"; 8];
        assert_eq!(corners, [&["load mode backend"][..], &tenants].concat());
        assert_eq!((tables[0].rows.len(), tables[1].rows.len()), (8, 3));
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
