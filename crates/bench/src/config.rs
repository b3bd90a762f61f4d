//! One lossless tree for a run's configuration, [`SystemConfig`] or
//! [`ServiceConfig`], as a JSON [`Value`]: paths are field names
//! (`ring.levels`), enums their labels, `None` is `null` and an integer from
//! 2^53 up a `"0x…"` string. A bad leaf is a [`TreeError`] naming its path.
//! A bench row records its config as the `delta` from the one base of its
//! type (`Recorded`; DESIGN.md §6 "The config tree").

use std::collections::BTreeMap;
use std::fmt;

use dram_sim::{DramFaultConfig, DramGeometry, TimingParams};
use mem_sched::{PagePolicy, ResponseFaultConfig, SchedulerPolicy};
use oram_service::{GovernorConfig, ServiceConfig, SubmissionPolicy, TenantSpec};
use ring_oram::{ProtocolKind, RecursiveConfig, ResilienceConfig, RingConfig};
use string_oram::VerifyConfig;
use string_oram::{BackendKind, FaultConfig, LayoutKind, MappingKind, Scheme, SystemConfig};
use trace_synth::ArrivalSpec;

use crate::json::Value;

/// A config value with one JSON tree: `T::from_value(&t.to_value()) == Ok(t)`.
pub trait Tree: Sized {
    /// The tree of `self`.
    fn to_value(&self) -> Value;

    /// The value `v` spells, or its first bad leaf with the path from `v`.
    fn from_value(v: &Value) -> Result<Self, TreeError>;
}

/// A bad leaf: its path from the root (keys, outermost first) and what is
/// wrong with the value there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeError(pub Vec<String>, pub String);

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.is_empty() {
            true => write!(f, "the config: {}", self.1),
            false => write!(f, "{}: {}", self.0.join("."), self.1),
        }
    }
}

impl std::error::Error for TreeError {}

/// An error at the value being read; the callers above prefix their keys.
fn bad<T>(message: String) -> Result<T, TreeError> {
    Err(TreeError(Vec::new(), message))
}

/// `e`, found under `key`.
pub(crate) fn under(key: String, TreeError(path, message): TreeError) -> TreeError {
    TreeError([vec![key], path].concat(), message)
}

/// `v` on one line, for an error message.
fn shown(v: &Value) -> String {
    let words: Vec<String> = v.to_string().split_whitespace().map(String::from).collect();
    words.join(" ")
}

/// Merges `from`'s leaves into `into`: objects merge key by key, anything
/// else replaces. An object with a `kind` key is one value (a scheduler
/// policy), so it replaces too.
pub fn merge(into: &mut Value, from: Value) {
    match (into, from) {
        (Value::Object(a), Value::Object(b)) if !b.contains_key("kind") => {
            for (k, v) in b {
                merge(a.entry(k).or_insert(Value::Null), v);
            }
        }
        (slot, v) => *slot = v,
    }
}

/// The smallest `d` with `merge(base, d)` equal to `tree`, the inverse of
/// [`merge`]: objects are compared key by key, and whatever `merge`
/// replaces whole — an object with a `kind` key, an array, a `null` that
/// became an object or back, any other leaf — is emitted whole where it
/// differs. Two equal objects give `{}`.
pub(crate) fn delta(base: &Value, tree: &Value) -> Value {
    match (base, tree) {
        (Value::Object(a), Value::Object(b)) if !b.contains_key("kind") => {
            let changed = b.iter().filter(|&(k, v)| a.get(k) != Some(v));
            let at = |k: &String| a.get(k).unwrap_or(&Value::Null);
            Value::Object(changed.map(|(k, v)| (k.clone(), delta(at(k), v))).collect())
        }
        _ => tree.clone(),
    }
}

/// A config a bench row records as its [`delta`] from the one base of its
/// type, so the row names what ran and replays from itself.
pub(crate) trait Recorded: Tree {
    /// The base every recorded value of the type is a delta from.
    fn base() -> Self;

    /// `self` as a row records it.
    fn recorded(&self) -> Value {
        delta(&Self::base().to_value(), &self.to_value())
    }

    /// The config a recorded delta spells: `from_value(merge(base, d))`.
    fn replayed(d: &Value) -> Result<Self, TreeError> {
        let mut tree = Self::base().to_value();
        merge(&mut tree, d.clone());
        Self::from_value(&tree)
    }
}

impl Recorded for SystemConfig {
    /// The paper's machine under ALL.
    fn base() -> Self {
        Self::hpca_default(Scheme::All)
    }
}

impl Recorded for ServiceConfig {
    /// The system base under `test_small`'s service fields, with no tenant
    /// and a zero horizon, so every valid config records both.
    fn base() -> Self {
        Self {
            system: SystemConfig::base(),
            ..Self::test_small(Vec::new(), 0)
        }
    }
}

/// `v`'s entries, when it is an object with no key outside `keys`.
pub(crate) fn object<'a>(
    v: &'a Value,
    keys: &[&str],
) -> Result<&'a BTreeMap<String, Value>, TreeError> {
    let Value::Object(m) = v else {
        return bad(format!("expected an object, got {}", shown(v)));
    };
    let expected = format!("unknown key; expected one of {}", keys.join(", "));
    let unknown = m.keys().find(|k| !keys.contains(&k.as_str()));
    unknown.map_or(Ok(m), |k| Err(TreeError(vec![k.clone()], expected)))
}

/// The field `key` of an object's entries.
pub(crate) fn field<T: Tree>(m: &BTreeMap<String, Value>, key: &str) -> Result<T, TreeError> {
    let v = m
        .get(key)
        .map_or_else(|| bad("missing".into()), T::from_value);
    v.map_err(|e| under(key.into(), e))
}

/// The entry of `table` whose label `v` spells, in any case.
fn label<T: Copy>(v: &Value, table: &[(T, &str)]) -> Result<T, TreeError> {
    let spells = |l: &str| v.as_str().is_some_and(|s| l.eq_ignore_ascii_case(s));
    if let Some(&(t, _)) = table.iter().find(|(_, l)| spells(l)) {
        return Ok(t);
    }
    let labels: Vec<&str> = table.iter().map(|&(_, l)| l).collect();
    let expected = labels.join(", ");
    bad(format!("expected one of {expected}, got {}", shown(v)))
}

/// An integer: a number below 2^53 (above, a decimal may be rounded) or `"0x…"`.
fn integer(v: &Value) -> Result<u64, TreeError> {
    match (v, v.as_str().and_then(|s| s.strip_prefix("0x"))) {
        (_, Some(hex)) => u64::from_str_radix(hex, 16).or_else(|e| bad(format!("{v}: {e}"))),
        (Value::Number(n), _) if *n < 0.0 => bad(format!("{n} is negative")),
        (Value::Number(n), _) if *n >= 2f64.powi(53) => bad(format!(
            "{n} is not below 2^53; write it as a \"0x…\" string"
        )),
        (v, _) => v
            .as_u64()
            .map_or_else(|| bad(format!("expected an integer, got {}", shown(v))), Ok),
    }
}

/// An integer in range for `T`.
fn narrow<T: TryFrom<u64>>(v: &Value) -> Result<T, TreeError> {
    let n = integer(v)?;
    let name = std::any::type_name::<T>();
    T::try_from(n).or_else(|_| bad(format!("{n} is out of range for {name}")))
}

/// The trees that are one leaf, or a list of trees: how each is written,
/// how it is read.
macro_rules! leaves {
    ($($t:ty $(where $g:ident: Tree)? => $to:expr, $from:expr;)*) => {$(
        impl $(<$g: Tree>)? Tree for $t {
            fn to_value(&self) -> Value { ($to)(self) }
            fn from_value(v: &Value) -> Result<Self, TreeError> { ($from)(v) }
        }
    )*};
}

leaves! {
    u64 => |&n: &u64| if n < 1 << 53 { Value::from(n) } else { Value::from(format!("{n:#x}")) },
        integer;
    u32 => |n: &u32| u64::from(*n).to_value(), narrow;
    usize => |n: &usize| (*n as u64).to_value(), narrow;
    // NaN and the infinities, which no valid config holds, are strings.
    f64 => |x: &f64| Value::try_from(*x).unwrap_or_else(|_| Value::String(x.to_string())),
        |v: &Value| match v.as_f64().or_else(|| v.as_str()?.parse().ok()) {
            Some(x) => Ok(x),
            None => bad(format!("expected a number, got {}", shown(v))),
        };
    bool => |b: &bool| Value::Bool(*b), |v: &Value| match v {
        Value::Bool(b) => Ok(*b),
        v => bad(format!("expected true or false, got {}", shown(v))),
    };
    ProtocolKind => |k: &ProtocolKind| Value::from(k.label()),
        |v| label(v, &ProtocolKind::ALL.map(|k| (k, k.label())));
    String => |s: &String| Value::from(s.as_str()), |v: &Value| match v.as_str() {
        Some(s) => Ok(s.to_string()),
        None => bad(format!("expected a string, got {}", shown(v))),
    };
    Vec<T> where T: Tree => |items: &Vec<T>| Value::Array(items.iter().map(T::to_value).collect()),
        |v: &Value| match v.as_array() {
            Some(items) => items.iter().enumerate()
                .map(|(i, item)| T::from_value(item).map_err(|e| under(i.to_string(), e)))
                .collect(),
            None => bad(format!("expected an array, got {}", shown(v))),
        };
}

impl<T: Tree> Tree for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_value)
    }

    fn from_value(v: &Value) -> Result<Self, TreeError> {
        match v {
            Value::Null => Ok(None),
            v => T::from_value(v).map(Some),
        }
    }
}

/// Each policy of a `kind`-tagged enum, named by the enum's label `fn`,
/// with its parameters' keys: `{"kind": name, <key>: n, …}`.
macro_rules! policies {
    ($($ty:ident by $name:ident { $($variant:ident $({ $($key:ident),* })?),* })*) => {$(
        impl Tree for $ty {
            fn to_value(&self) -> Value {
                let mut m = BTreeMap::from([("kind".to_string(), Value::from(self.$name()))]);
                match *self {
                    $(Self::$variant $({ $($key),* })? => {
                        $($(m.insert(stringify!($key).to_string(), $key.to_value());)*)?
                    })*
                }
                Value::Object(m)
            }

            fn from_value(v: &Value) -> Result<Self, TreeError> {
                let names = [$((Self::$variant $({ $($key: 0),* })?).$name()),*];
                let kind = label(v.get("kind").unwrap_or(&Value::Null), &names.map(|n| (n, n)));
                let kind = kind.map_err(|e| TreeError(vec!["kind".into()], e.1))?;
                $(if kind == (Self::$variant $({ $($key: 0),* })?).$name() {
                    #[allow(unused_variables)] // by the variants without a parameter
                    let m = object(v, &["kind" $($(, stringify!($key))*)?])?;
                    return Ok(Self::$variant $({ $($key: field(m, stringify!($key))?),* })?);
                })*
                unreachable!("{kind} is one of {names:?}")
            }
        }
    )*};
}

policies! {
    SchedulerPolicy by name {
        TransactionBased, ProactiveBank { lookahead }, Unconstrained, ReadOverWrite { drain_bound },
        FixedCadence { period }
    }
    SubmissionPolicy by label { BestEffort { batch }, FixedRate { interval, batch } }
}

/// The label tables of the enums that have no label of their own.
macro_rules! labels {
    ($($ty:ident { $($variant:ident = $label:literal),* })*) => {$(
        impl Tree for $ty {
            fn to_value(&self) -> Value {
                Value::from(match self { $(Self::$variant => $label),* })
            }
            fn from_value(v: &Value) -> Result<Self, TreeError> {
                label(v, &[$((Self::$variant, $label)),*])
            }
        }
    )*};
}

labels! {
    LayoutKind { Subtree = "subtree", Naive = "naive" }
    MappingKind { PaperStriped = "paper-striped", Sequential = "sequential" }
    BackendKind { CycleAccurate = "cycle-accurate", FastFunctional = "fast-functional" }
    PagePolicy { Open = "open", Closed = "closed" }
}

/// The field list. `to_value` destructures without `..` and `from_value`
/// builds a struct literal, so a field added to a struct and not here is a
/// compile error.
macro_rules! structs {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Tree for $ty {
            fn to_value(&self) -> Value {
                let Self { $($field),* } = self;
                Value::object(vec![$((stringify!($field), $field.to_value())),*])
            }

            fn from_value(v: &Value) -> Result<Self, TreeError> {
                let m = object(v, &[$(stringify!($field)),*])?;
                Ok(Self { $($field: field(m, stringify!($field))?),* })
            }
        }
    )*};
}

structs! {
    SystemConfig { protocol, ring, geometry, timing, sched_policy, queue_capacity, cores,
        max_inflight_txns, core_mlp, load_factor, seed,
        layout, page_policy, recursion, mapping, backend, shards, verify, faults }
    RingConfig { levels, z, s, a, y, block_bytes, stash_capacity, tree_top_cached_levels }
    DramGeometry { channels, ranks_per_channel, banks_per_rank, bank_groups, rows_per_bank,
        columns_per_row, column_bytes }
    TimingParams { t_rcd, t_rp, cl, cwl, t_ras, t_rc, t_burst, t_ccd, t_ccd_l, t_rrd, t_rrd_l,
        t_faw, t_wr, t_wtr, t_rtp, t_turnaround, t_refi, t_rfc, clock_ps }
    RecursiveConfig { tracked_blocks, positions_per_block, max_onchip_entries }
    VerifyConfig { enabled }
    FaultConfig { resilience, dram, memctrl }
    ResilienceConfig { fault_seed, bit_flip_rate, max_retries, escalation_watermark,
        degrade_watermark, resume_watermark }
    DramFaultConfig { seed, storm_rate, storm_factor, weak_row_rate, weak_row_stall }
    ResponseFaultConfig { seed, late_rate, late_delay, drop_rate, saturation_rate }
    ServiceConfig { system, tenants, policy, deadline_cycles, retry_budget, governor, horizon,
        max_cycles }
    TenantSpec { name, queue_cap, arrivals, blocks, write_fraction }
    GovernorConfig { degrade_enter, degrade_exit, shed_enter, shed_exit, degraded_quota }
    ArrivalSpec { base_per_ktick, burst_multiplier, burst_on, burst_off, diurnal_period,
        diurnal_amplitude }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use oram_rng::{Rng, StdRng};
    use string_oram::{Scheme, ShardedSimulation};
    use trace_synth::TraceRecord;

    use super::*;
    use crate::json::parse;

    /// `cfg` reads back from its tree, from the tree's JSON text, and from
    /// its delta merged over the base.
    fn round_trips<T: Recorded + PartialEq + fmt::Debug>(cfg: &T) {
        let tree = cfg.to_value();
        assert_eq!(T::from_value(&tree).as_ref(), Ok(cfg));
        let text = tree.to_string();
        let reread = parse(&text).expect("the emitted text parses");
        assert_eq!(T::from_value(&reread).as_ref(), Ok(cfg), "{text}");
        let recorded = cfg.recorded();
        assert_eq!(T::replayed(&recorded).as_ref(), Ok(cfg), "{recorded}");
    }

    /// A service over `system`: up to three tenants of each arrival shape
    /// and either submission policy, drawn from `rng`.
    fn serve(rng: &mut StdRng, system: &SystemConfig) -> ServiceConfig {
        let (rate, n) = (rng.gen::<f64>() * 10.0, rng.gen_range(1u32..16));
        let shapes = [
            ArrivalSpec::steady(rate),
            ArrivalSpec::bursty(rate, 4.0),
            ArrivalSpec::diurnal(rate, 4_000, 0.8),
        ];
        let tenants = (0..rng.gen_range(0..4)).map(|t| TenantSpec::new(format!("t{t}"), shapes[t]));
        ServiceConfig {
            system: system.clone(),
            tenants: tenants.collect(),
            policy: pick(
                rng,
                &[
                    SubmissionPolicy::BestEffort { batch: n },
                    SubmissionPolicy::FixedRate {
                        interval: n.into(),
                        batch: n,
                    },
                ],
            ),
            horizon: rng.gen(),
            ..ServiceConfig::base()
        }
    }

    fn pick<T: Copy>(rng: &mut StdRng, choices: &[T]) -> T {
        choices[rng.gen_range(0..choices.len())]
    }

    /// A config over a random preset with every enum, `recursion` and
    /// `faults` drawn, and the four seeds over the full `u64` range.
    fn draw(rng: &mut StdRng) -> SystemConfig {
        let scheme = pick(rng, &Scheme::ALL);
        let mut cfg = match rng.gen::<bool>() {
            true => SystemConfig::hpca_default(scheme),
            false => SystemConfig::test_small(scheme),
        };
        let n = rng.gen_range(1u64..16);
        cfg.protocol = pick(rng, &ProtocolKind::ALL);
        cfg.sched_policy = pick(
            rng,
            &[
                SchedulerPolicy::TransactionBased,
                SchedulerPolicy::ProactiveBank { lookahead: n },
                SchedulerPolicy::Unconstrained,
                SchedulerPolicy::ReadOverWrite { drain_bound: n },
                SchedulerPolicy::FixedCadence { period: n },
            ],
        );
        cfg.layout = pick(rng, &[LayoutKind::Subtree, LayoutKind::Naive]);
        cfg.mapping = pick(rng, &[MappingKind::PaperStriped, MappingKind::Sequential]);
        cfg.backend = pick(
            rng,
            &[BackendKind::CycleAccurate, BackendKind::FastFunctional],
        );
        cfg.page_policy = pick(rng, &[PagePolicy::Open, PagePolicy::Closed]);
        cfg.ring.y = rng.gen_range(0..cfg.ring.z + 1);
        cfg.ring.stash_capacity = rng.gen_range(100usize..600);
        cfg.queue_capacity = rng.gen_range(1usize..65);
        (cfg.cores, cfg.core_mlp) = (rng.gen_range(1usize..5), rng.gen_range(1usize..9));
        cfg.load_factor = rng.gen::<f64>();
        cfg.seed = rng.gen();
        cfg.shards = 1 << rng.gen_range(0u32..3);
        cfg.verify = VerifyConfig { enabled: rng.gen() };
        if rng.gen::<bool>() {
            cfg.recursion = Some(RecursiveConfig {
                tracked_blocks: rng.gen_range(1u64..1 << 24),
                ..RecursiveConfig::hpca_default()
            });
        }
        if rng.gen::<bool>() {
            let rate = rng.gen::<f64>() / 10.0;
            let mut faults = FaultConfig::smoke(rng.gen(), rate, cfg.ring.stash_capacity);
            (faults.dram.seed, faults.memctrl.seed) = (rng.gen(), rng.gen());
            cfg.faults = Some(faults);
        }
        cfg
    }

    #[test]
    fn random_valid_configs_round_trip() {
        let mut rng = StdRng::seed_from_u64(0x7AEE);
        let mut services = StdRng::seed_from_u64(0x5E4F);
        let (mut valid, mut spelled) = (0, BTreeSet::new());
        for _ in 0..600 {
            let cfg = draw(&mut rng);
            round_trips(&cfg);
            round_trips(&serve(&mut services, &cfg));
            if cfg.validate().is_ok() {
                valid += 1;
                let tree = cfg.to_value();
                for key in ["protocol", "layout", "mapping", "backend", "page_policy"] {
                    spelled.insert(tree.get(key).unwrap().to_string());
                }
                let policy = tree.get("sched_policy").and_then(|p| p.get("kind"));
                spelled.insert(policy.unwrap().to_string());
                spelled.insert(format!("recursion {}", cfg.recursion.is_some()));
                spelled.insert(format!("faults {}", cfg.faults.is_some()));
            }
        }
        assert!(valid >= 150, "{valid} of 600 draws validate");
        // Every variant of every enum, both `Option`s both ways: 4 + 5 +
        // 2 + 2 + 2 + 2 spellings and four more.
        assert_eq!(spelled.len(), 21, "{spelled:?}");
    }

    #[test]
    fn shard_configs_round_trip_with_seeds_past_2_pow_53() {
        let mut past = 0;
        for scheme in Scheme::ALL {
            for shards in [2, 4] {
                let cfg = SystemConfig {
                    shards,
                    ..SystemConfig::hpca_default(scheme)
                };
                for shard in cfg.shard_configs().unwrap().1 {
                    round_trips(&shard);
                    past += usize::from(shard.seed >= 1 << 53);
                }
            }
        }
        assert!(past > 0, "no derived seed needed the string form");
    }

    #[test]
    fn integers_take_the_string_form_from_2_pow_53() {
        for (n, written) in [
            (0, "0"),
            ((1 << 53) - 1, "9007199254740991"),
            (1 << 53, "\"0x20000000000000\""),
            (u64::MAX, "\"0xffffffffffffffff\""),
        ] {
            assert_eq!(n.to_value().to_string(), written);
            assert_eq!(u64::from_value(&parse(written).unwrap()), Ok(n));
        }
        // Either form reads back below 2^53 too.
        assert_eq!(u64::from_value(&Value::from("0x10")), Ok(16));
    }

    #[test]
    fn the_preset_tree_spells_labels_and_nulls() {
        let tree = SystemConfig::hpca_default(Scheme::All).to_value();
        let at = |path: &str| {
            path.split('.')
                .try_fold(&tree, Value::get)
                .unwrap()
                .to_string()
        };
        assert_eq!(at("ring.levels"), "24");
        assert_eq!(at("protocol"), "\"ring-cb\"");
        assert_eq!(at("sched_policy.kind"), "\"proactive-bank\"");
        assert_eq!(at("sched_policy.lookahead"), "1");
        assert_eq!(at("backend"), "\"cycle-accurate\"");
        assert_eq!(
            (at("recursion"), at("faults")),
            ("null".into(), "null".into())
        );
        assert_eq!(at("verify.enabled"), "false");
    }

    /// Each bad leaf, merged into a valid tree, is refused with its path.
    #[test]
    fn bad_leaves_are_errors_naming_their_path() {
        for (set, error) in [
            (
                r#"{"bogus": 1}"#,
                "bogus: unknown key; expected one of protocol, ring,",
            ),
            (r#"{"ring": {"bogus": 1}}"#, "ring.bogus: unknown key"),
            (r#"{"ring": 5}"#, "ring: expected an object, got 5"),
            (
                r#"{"ring": {"levels": "x"}}"#,
                "ring.levels: expected an integer, got \"x\"",
            ),
            (
                r#"{"ring": {"levels": 4294967296}}"#,
                "ring.levels: 4294967296 is out of range",
            ),
            (r#"{"seed": -1}"#, "seed: -1 is negative"),
            (r#"{"seed": 1.5}"#, "seed: expected an integer, got 1.5"),
            (
                r#"{"seed": 9007199254740993}"#,
                "seed: 9007199254740992 is not below 2^53",
            ),
            (r#"{"seed": "0xg"}"#, "seed: \"0xg\": invalid digit"),
            (
                r#"{"protocol": "raft"}"#,
                "protocol: expected one of ring-cb, ring, path, circuit",
            ),
            (
                r#"{"layout": 1}"#,
                "layout: expected one of subtree, naive, got 1",
            ),
            (
                r#"{"verify": {"enabled": 1}}"#,
                "verify.enabled: expected true or false, got 1",
            ),
            (
                r#"{"load_factor": [1]}"#,
                "load_factor: expected a number, got [ 1 ]",
            ),
            (
                r#"{"sched_policy": {"kind": "fifo"}}"#,
                "sched_policy.kind: expected one of",
            ),
            (
                r#"{"sched_policy": {"kind": "fr-fcfs", "lookahead": 1}}"#,
                "sched_policy.lookahead: unknown key; expected one of kind",
            ),
            (
                r#"{"sched_policy": {"kind": "fixed-cadence"}}"#,
                "sched_policy.period: missing",
            ),
            (r#"{"faults": {"dram": {}}}"#, "faults.resilience: missing"),
            (
                r#"{"recursion": 1}"#,
                "recursion: expected an object, got 1",
            ),
        ] {
            let mut tree = SystemConfig::test_small(Scheme::All).to_value();
            merge(&mut tree, parse(set).unwrap());
            let got = SystemConfig::from_value(&tree).expect_err(set).to_string();
            assert!(got.starts_with(error), "{set}: {got}");
        }
        let root = SystemConfig::from_value(&Value::Null).unwrap_err();
        assert_eq!(root.to_string(), "the config: expected an object, got null");
    }

    #[test]
    fn merge_takes_objects_key_by_key_and_a_policy_whole() {
        let mut tree = SystemConfig::hpca_default(Scheme::All).to_value();
        merge(
            &mut tree,
            parse(r#"{"ring": {"y": 4}, "seed": "0x10"}"#).unwrap(),
        );
        let policy = r#"{"sched_policy": {"kind": "fr-fcfs"}}"#;
        merge(&mut tree, parse(policy).unwrap());
        let cfg = SystemConfig::from_value(&tree).unwrap();
        let mut want = SystemConfig::hpca_default(Scheme::All);
        (want.ring.y, want.seed) = (4, 16);
        want.sched_policy = SchedulerPolicy::TransactionBased;
        assert_eq!(cfg, want);
    }

    /// `validate` accepted both values at the parent, and building the
    /// simulation then panicked (`capacity overflow`) instead of returning
    /// the error.
    #[test]
    fn huge_queue_and_mlp_settings_are_refused_by_name() {
        for (field, huge) in [("queue_capacity", 1u64 << 61), ("core_mlp", 1 << 62)] {
            let mut tree = SystemConfig::test_small(Scheme::All).to_value();
            merge(&mut tree, Value::object(vec![(field, huge.to_value())]));
            let cfg = SystemConfig::from_value(&tree).unwrap();
            let traces = vec![vec![TraceRecord::new(0, 1, false)]; cfg.cores];
            let error = ShardedSimulation::try_new(cfg, traces)
                .unwrap_err()
                .to_string();
            assert!(error.contains(field), "{error}");
        }
    }
}
