//! The harness side of `run`: spawns one fresh child per pass, turns their
//! lines into reported values and checks, prints every metric, and writes
//! `results.json` and `trace.json`.
//!
//! Two passes per workload, never mixed. The **end-to-end pass** repeats the
//! untraced program (checkers off) for `--seconds` and reports the best
//! repetition beside the median and quartiles (see [`crate::stats`]); its
//! outputs are checked every time, and a verify-on **check pass** re-runs a
//! prefix. The **layer pass** runs the traced child and explains the
//! end-to-end numbers; it needs a few untraced repetitions as its reference
//! but contributes nothing to them.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::host;
use crate::json::Json;
use crate::passes::Check;
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::Workload;

/// What `run` was asked to do.
#[derive(Debug)]
pub struct Options {
    /// One workload, or all five.
    pub workload: Option<Workload>,
    pub seed: u64,
    /// How long the end-to-end pass of one workload measures.
    pub seconds: f64,
    /// `Some(false)`: end-to-end pass only; `Some(true)`: layer pass only;
    /// `None`: both.
    pub trace: Option<bool>,
    pub smoke: bool,
    pub out: PathBuf,
}

/// Fewest timed repetitions behind a reported value.
const MIN_REPS: usize = 3;
/// `trace.coverage` outside this range means the spans do not add up to the
/// run they claim to explain.
const COVERAGE_RANGE: std::ops::RangeInclusive<f64> = 0.85..=1.20;

fn spawn(w: Workload, seed: u64, mode: &str, smoke: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["child", "--workload", w.name(), "--mode", mode])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child: none outlives the harness.
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let context = |what: String| format!("{} {mode} child: {what}", w.name());
    if !output.status.success() {
        return Err(context(format!("{}", output.status)));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty());
    Json::parse(line.ok_or_else(|| context("no output".to_string()))?).map_err(context)
}

/// The traced pass of `w`. The service's comes in two children (each must
/// stay under the resident size at which the host slows a process down); the
/// second's numbers are folded into the first's line.
fn spawn_traced(w: Workload, seed: u64, smoke: bool) -> Result<Json, String> {
    let mut traced = spawn(w, seed, "traced", smoke)?;
    if w.is_service() {
        let replay = spawn(w, seed, "replay", smoke)?;
        let same = |key: &str| traced.get(key).is_some() && traced.get(key) == replay.get(key);
        let agree = Check {
            name: "span-wrapped replay digest and cycles == ShardPipeline replay's".to_string(),
            ok: same("replay_digest") && same("replay_cycles"),
            seen: String::new(),
        };
        traced.merge(replay);
        traced.merge(Json::obj([("checks", Json::Arr(vec![agree.json()]))]));
    }
    Ok(traced)
}

/// The checks a child reported, named after its pass.
fn child_checks(pass: &str, child: &Json) -> Vec<Check> {
    let listed = child.get("checks").and_then(Json::as_arr).unwrap_or(&[]);
    listed
        .iter()
        .map(|c| {
            let check = Check::from_json(c);
            Check {
                name: format!("{pass}: {}", check.name),
                ..check
            }
        })
        .collect()
}

/// `{"value": …, "unit": …}`.
fn value_unit(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

fn f(child: &Json, key: &str) -> f64 {
    child.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn median_of(reps: &[Json], value: impl Fn(&Json) -> f64) -> f64 {
    Summary::of(reps.iter().map(value).collect()).median
}

/// Everything measured about one workload in one invocation.
#[derive(Debug, Default)]
struct Outcome {
    end_to_end: Vec<(&'static Metric, Summary)>,
    per_layer: Vec<(&'static Metric, f64)>,
    /// Per-layer metrics that could not be measured on this host.
    unresolved: Vec<&'static str>,
    fingerprint: Option<String>,
    /// The simulated outcome of the timed repetitions.
    sim: Option<Json>,
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    /// The check pass's line, once it has run.
    check_pass: Option<Json>,
    trace: Option<Json>,
}

impl Outcome {
    fn check(&mut self, name: impl Into<String>, ok: bool, seen: impl std::fmt::Display) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            seen: seen.to_string(),
        });
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// Runs passes and remembers each workload's timed repetitions, so a layer
/// pass can use the end-to-end pass's (or another workload's) as reference.
struct Harness<'a> {
    opts: &'a Options,
    reps: BTreeMap<&'static str, Vec<Json>>,
}

impl Harness<'_> {
    /// Timed repetitions of `w`, each in a fresh process, until `seconds`
    /// have been measured. Failures to run are returned beside the results.
    fn timed_reps(
        &mut self,
        w: Workload,
        seconds: f64,
        min_reps: usize,
    ) -> (Vec<Json>, Vec<String>) {
        let (mut reps, mut errors) = (Vec::new(), Vec::new());
        let min_reps = if self.opts.smoke { 1 } else { min_reps };
        let started = Instant::now();
        while errors.len() < MIN_REPS {
            match spawn(w, self.opts.seed, "timed", self.opts.smoke) {
                Ok(rep) => reps.push(rep),
                Err(e) => errors.push(e),
            }
            let measured = started.elapsed().as_secs_f64() >= seconds || self.opts.smoke;
            if measured && reps.len() + errors.len() >= min_reps {
                break;
            }
        }
        self.reps.insert(w.name(), reps.clone());
        (reps, errors)
    }

    /// Reference repetitions for a layer pass: the end-to-end pass's when it
    /// ran in this invocation, a shorter series otherwise.
    fn reference_reps(
        &mut self,
        w: Workload,
        seconds: f64,
        min_reps: usize,
    ) -> (Vec<Json>, Vec<String>) {
        match self.reps.get(w.name()) {
            Some(reps) if !reps.is_empty() => (reps.clone(), Vec::new()),
            _ => self.timed_reps(w, seconds, min_reps),
        }
    }

    /// The traced pass, repeated for half of `--seconds` (at least once), and
    /// the repetition the host disturbed least: the one whose untraced
    /// reference and traced run together took the least time. The same
    /// reasoning as for the best timed repetition, applied to the layer pass.
    fn least_disturbed_traced(&self, w: Workload) -> Result<Json, String> {
        let wall = |t: &Json| f(t, "reference_wall_s") + f(t, "traced_wall_s");
        let started = Instant::now();
        let mut best = spawn_traced(w, self.opts.seed, self.opts.smoke)?;
        while !self.opts.smoke && started.elapsed().as_secs_f64() < self.opts.seconds / 2.0 {
            let again = spawn_traced(w, self.opts.seed, self.opts.smoke)?;
            if wall(&again) < wall(&best) {
                best = again;
            }
        }
        Ok(best)
    }

    fn end_to_end(&mut self, w: Workload, out: &mut Outcome) {
        let (reps, errors) = self.timed_reps(w, self.opts.seconds, MIN_REPS);
        for e in &errors {
            out.check("timed repetition ran", false, e);
        }
        let Some(first) = reps.first() else {
            out.attempted = 1;
            out.failed = 1;
            return;
        };
        let sim = first.get("sim").cloned().unwrap_or(Json::Null);
        let repeatable = reps.iter().all(|r| r.get("sim") == Some(&sim));
        out.check(
            "simulated results identical in every repetition",
            repeatable,
            format!("{} repetitions", reps.len()),
        );
        match spawn(w, self.opts.seed, "check", self.opts.smoke) {
            Ok(child) => {
                out.checks.extend(child_checks("check pass", &child));
                out.check_pass = Some(child);
            }
            Err(e) => out.check("check pass ran", false, e),
        }
        let check_ok = out.checks.iter().all(|c| c.ok);

        // An op fails if it never completed, or if its repetition (or the
        // check pass, which vouches for all of them) failed a check.
        for rep in &reps {
            let rep_checks = child_checks("timed", rep);
            let attempted = f(rep, "ops_attempted") as u64;
            let completed = f(rep, "ops_completed") as u64;
            let rep_ok = check_ok && rep_checks.iter().all(|c| c.ok);
            out.attempted += attempted;
            out.failed += if rep_ok {
                attempted - completed.min(attempted)
            } else {
                attempted
            };
            out.checks.extend(rep_checks.into_iter().filter(|c| !c.ok));
        }
        out.attempted += errors.len() as u64;
        out.failed += errors.len() as u64;

        let host_metric =
            |value: &dyn Fn(&Json) -> f64| Summary::of(reps.iter().map(value).collect());
        let ops = f(&sim, "ops");
        let per_op = |cycles: f64| if ops > 0.0 { cycles / ops } else { 0.0 };
        let ok_share = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
        let values = [
            host_metric(&|r| f(r, "ops_completed") / f(r, "run_s")),
            host_metric(&|r| f(r, "setup_s")),
            host_metric(&|r| f(r, "vm_hwm_kb") / 1024.0),
            Summary::exact(per_op(f(&sim, "span_cycles"))),
            Summary::exact(f(&sim, "p50")),
            Summary::exact(f(&sim, "p99")),
            Summary::exact(ok_share),
        ];
        out.end_to_end = END_TO_END.iter().zip(values).collect();
        out.fingerprint = Some(format!(
            "{}/{}",
            sim.str("digest").unwrap_or("?"),
            f(&sim, "total_cycles")
        ));
        out.sim = Some(sim);
    }

    fn per_layer(&mut self, w: Workload, out: &mut Outcome) {
        let (reps, errors) = self.reference_reps(w, self.opts.seconds / 3.0, 2);
        let check_ran = out.check_pass.is_some();
        let children = [
            self.least_disturbed_traced(w),
            spawn(w, self.opts.seed, "unchecked", self.opts.smoke),
            match out.check_pass.take() {
                Some(child) => Ok(child),
                None => spawn(w, self.opts.seed, "check", self.opts.smoke),
            },
        ];
        for e in errors
            .iter()
            .chain(children.iter().filter_map(|c| c.as_ref().err()))
        {
            out.check("layer pass child ran", false, e);
        }
        let ([Ok(traced), Ok(unchecked), Ok(checked)], Some(reference)) = (&children, reps.first())
        else {
            out.attempted = out.attempted.max(1);
            out.failed = out.attempted;
            return;
        };
        out.checks.extend(child_checks("traced pass", traced));
        if !check_ran {
            out.checks.extend(child_checks("check pass", checked));
        }
        out.check(
            "traced pass ends on the program's cycles, digest and latencies",
            traced.get("sim") == reference.get("sim"),
            format!(
                "{} vs {}",
                traced.get("sim").unwrap_or(&Json::Null),
                reference.get("sim").unwrap_or(&Json::Null)
            ),
        );
        if out.end_to_end.is_empty() {
            // Layer pass alone: its ops are the traced pass's.
            out.attempted = f(traced, "ops_attempted") as u64;
            let traced_ok = out.checks.iter().all(|c| c.ok);
            let completed = (f(traced, "ops_completed") as u64).min(out.attempted);
            out.failed = if traced_ok {
                out.attempted - completed
            } else {
                out.attempted
            };
        }

        let run_s = median_of(&reps, |r| f(r, "run_s"));
        // The spans must add up to the untraced run the traced child made
        // itself just before tracing (same process, same host phase).
        let untraced_s = f(traced, "reference_wall_s");
        let mut derived: BTreeMap<&str, f64> = BTreeMap::new();
        derived.insert(
            "trace.overhead_ratio",
            f(traced, "traced_wall_s") / untraced_s,
        );
        derived.insert("trace.coverage", f(traced, "stage_ns") / 1e9 / untraced_s);
        derived.insert(
            "host.ns_per_sim_cycle",
            run_s * 1e9 / f(traced, "steps").max(1.0),
        );
        derived.insert(
            "host.sys_share",
            median_of(&reps, |r| {
                let (user, sys) = (f(r, "utime_ticks"), f(r, "stime_ticks"));
                if user + sys > 0.0 {
                    sys / (user + sys)
                } else {
                    0.0
                }
            }),
        );
        derived.insert(
            "host.rss_kb_per_op",
            median_of(&reps, |r| {
                (f(r, "vm_hwm_kb") - f(r, "rss_setup_kb")) / f(r, "ops_completed").max(1.0)
            }),
        );
        derived.insert(
            "sim_verify.overhead_ratio",
            f(checked, "run_s") / f(unchecked, "run_s"),
        );

        if w.threads() > 1 {
            // The shards one after another on one thread.
            let serial = untraced_s;
            // Shard gain split in two: shallower trees (one thread does all
            // shards faster than it does the unsharded tree) and threads
            // (the shards at once against one after another).
            let (unsharded, errors) = self.reference_reps(Workload::HpcaCycle, 0.0, 2);
            for e in &errors {
                out.check("hpca_cycle reference ran", false, e);
            }
            if !unsharded.is_empty() {
                derived.insert(
                    "shard.depth_speedup",
                    median_of(&unsharded, |r| f(r, "run_s")) / serial,
                );
            }
            if host::parallelism() >= w.threads() {
                derived.insert("shard.parallel_speedup", serial / run_s);
            } else {
                out.unresolved.push("shard.parallel_speedup");
            }
        }

        let layers = traced.get("layers");
        out.per_layer = PER_LAYER
            .iter()
            .map(|m| {
                let measured = derived.get(m.name).copied();
                let value = measured.or_else(|| layers?.get(m.name)?.as_f64());
                (m, value.filter(|v| v.is_finite()).unwrap_or(0.0))
            })
            .collect();
        let coverage = derived["trace.coverage"];
        if !COVERAGE_RANGE.contains(&coverage) && !self.opts.smoke {
            eprintln!(
                "warning: {}: trace.coverage {coverage:.3} is outside {COVERAGE_RANGE:?}; \
                 the stage times do not add up to the untraced run",
                w.name()
            );
        }
        out.trace = Some(Json::obj([
            (
                "timer_ns",
                layers
                    .and_then(|l| l.get("trace.timer_ns"))
                    .cloned()
                    .unwrap_or(Json::Null),
            ),
            ("spans", traced.get("spans").cloned().unwrap_or(Json::Null)),
        ]));
    }
}

fn print_outcome(w: Workload, out: &Outcome) {
    let name = w.name();
    for (m, s) in &out.end_to_end {
        if m.exact {
            println!("{name} {} {} {}", m.name, s.best(true), m.unit);
        } else {
            println!(
                "{name} {} {} {}  (best of {}; median {}, quartiles {} .. {})",
                m.name,
                s.best(m.higher_is_better),
                m.unit,
                s.values.len(),
                s.median,
                s.q1,
                s.q3
            );
        }
    }
    if let Some(sim) = &out.sim {
        println!(
            "{name} ops_attempted {} count  (ops_failed {}; {} latency samples behind p50/p99)",
            out.attempted,
            out.failed,
            f(sim, "lat_samples")
        );
    }
    if let Some(fp) = &out.fingerprint {
        println!("{name} sim_fingerprint {fp}");
    }
    for (m, v) in &out.per_layer {
        let note = if out.unresolved.contains(&m.name) {
            "  (unresolved on this host)"
        } else {
            ""
        };
        println!("{name} {} {v} {}{note}", m.name, m.unit);
    }
    for c in out.checks.iter().filter(|c| !c.ok) {
        println!("{name} CHECK FAILED {} ({})", c.name, c.seen);
    }
}

fn outcome_json(out: &Outcome) -> Json {
    Json::obj([
        (
            "end_to_end",
            Json::obj(
                out.end_to_end
                    .iter()
                    .map(|(m, s)| (m.name, s.json(m.unit, m.higher_is_better))),
            ),
        ),
        (
            "per_layer",
            Json::obj(
                out.per_layer
                    .iter()
                    .map(|(m, v)| (m.name, value_unit(*v, m.unit))),
            ),
        ),
        (
            "unresolved",
            Json::Arr(out.unresolved.iter().map(|&n| Json::from(n)).collect()),
        ),
        (
            "sim_fingerprint",
            out.fingerprint.clone().map_or(Json::Null, Json::from),
        ),
        ("sim", out.sim.clone().unwrap_or(Json::Null)),
        ("ops_attempted", Json::from(out.attempted)),
        ("ops_failed", Json::from(out.failed)),
        ("correct", Json::from(out.correct())),
        (
            "checks",
            Json::Arr(out.checks.iter().map(Check::json).collect()),
        ),
    ])
}

/// The line the repository driver reads: the end-to-end metrics after an
/// end-to-end pass, the per-layer ones after a layer pass.
fn contract_line(out: &Outcome, trace: Option<bool>) -> Json {
    let metric = |m: &Metric, v: f64| (m.name, value_unit(v, m.unit));
    let end_to_end = out
        .end_to_end
        .iter()
        .map(|(m, s)| metric(m, s.best(m.higher_is_better)));
    let per_layer = out.per_layer.iter().map(|(m, v)| metric(m, *v));
    let metrics = match trace {
        Some(false) => Json::obj(end_to_end),
        Some(true) => Json::obj(per_layer),
        None => Json::obj(end_to_end.chain(per_layer)),
    };
    Json::obj([
        ("correct", Json::from(out.correct())),
        ("attempted", Json::from(out.attempted.max(1))),
        ("failed", Json::from(out.failed)),
        ("metrics", metrics),
    ])
}

/// Runs the benchmark; `Ok(true)` when every output check passed.
pub fn run(opts: &Options) -> Result<bool, String> {
    let workloads = opts.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut harness = Harness {
        opts,
        reps: BTreeMap::new(),
    };
    let mut outcomes: Vec<(Workload, Outcome)> = Vec::new();
    for &w in &workloads {
        let mut out = Outcome::default();
        if opts.trace != Some(true) {
            harness.end_to_end(w, &mut out);
        }
        if opts.trace != Some(false) {
            harness.per_layer(w, &mut out);
        }
        print_outcome(w, &out);
        outcomes.push((w, out));
    }

    let results = Json::obj([
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::from(opts.seconds)),
        ("smoke", Json::from(opts.smoke)),
        ("host", host::facts()),
        (
            "workloads",
            Json::obj(
                outcomes
                    .iter()
                    .map(|(w, out)| (w.name(), outcome_json(out))),
            ),
        ),
    ]);
    let traces = Json::obj(
        outcomes
            .iter()
            .filter_map(|(w, out)| Some((w.name(), out.trace.clone()?))),
    );
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    for (file, doc) in [("results.json", &results), ("trace.json", &traces)] {
        let path = opts.out.join(file);
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let correct = outcomes.iter().all(|(_, out)| out.correct());
    println!(
        "{} workloads, seed {}, {}; wrote {}",
        outcomes.len(),
        opts.seed,
        if correct {
            "every output check passed"
        } else {
            "OUTPUT CHECKS FAILED"
        },
        opts.out.join("results.json").display()
    );
    if let [(_, out)] = outcomes.as_slice() {
        println!("{}", contract_line(out, opts.trace));
    }
    Ok(correct)
}
