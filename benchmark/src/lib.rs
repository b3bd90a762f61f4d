//! The repo benchmark. One command runs every workload in fresh child
//! processes, checks their outputs, prints every metric by name with its
//! unit, and writes `results.json` and `trace.json`:
//!
//! ```text
//! oram-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                    [--smoke] [--out DIR]
//! oram-benchmark compare A.json B.json
//! ```
//!
//! `run --workload W --trace T` is the form the repository driver calls: it
//! ends with one JSON line holding the end-to-end metrics (`--trace 0`) or
//! the per-layer ones (`--trace 1`). See `README.md` beside `Cargo.toml`.

pub mod compare;
pub mod host;
pub mod json;
pub mod passes;
pub mod pipeline;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod traced;
pub mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use passes::Mode;
use workloads::{Size, Workload};

const USAGE: &str = "usage:
  oram-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  oram-benchmark compare A.json B.json";

/// `--flag value` pairs and bare `--flag`s after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)?
            .map(|v| v.parse().map_err(|_| format!("bad value for {flag}: {v}")))
            .transpose()
    }

    fn switch(&mut self, flag: &str) -> bool {
        let found = self.0.iter().position(|a| a == flag);
        found.map(|i| self.0.remove(i)).is_some()
    }

    fn workload(&mut self) -> Result<Option<Workload>, String> {
        self.value("--workload")?
            .map(|name| Workload::from_name(&name).ok_or(format!("unknown workload: {name}")))
            .transpose()
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument: {extra}")),
        }
    }
}

fn dispatch(started: Instant) -> Result<bool, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or(USAGE)?;
    let mut flags = Flags(args.collect());
    match command.as_str() {
        "run" => {
            let trace = match flags.parsed::<u8>("--trace")? {
                None => None,
                Some(0) => Some(false),
                Some(1) => Some(true),
                Some(_) => return Err("--trace takes 0 or 1".to_string()),
            };
            let options = runner::Options {
                workload: flags.workload()?,
                seed: flags.parsed("--seed")?.unwrap_or(spec::DEFAULT_SEED),
                seconds: flags
                    .parsed::<f64>("--seconds")?
                    .unwrap_or(spec::RUN_SECONDS as f64),
                trace,
                smoke: flags.switch("--smoke"),
                out: flags
                    .value("--out")?
                    .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from),
            };
            flags.finish()?;
            runner::run(&options)
        }
        // One pass in this (fresh) process; spawned by `run`, not by people.
        "child" => {
            let workload = flags.workload()?.ok_or("child needs --workload")?;
            let seed = flags.parsed("--seed")?.ok_or("child needs --seed")?;
            let mode = match flags.value("--mode")?.as_deref() {
                Some("timed") => Mode::Timed,
                Some("check") => Mode::Prefix { verify: true },
                Some("unchecked") => Mode::Prefix { verify: false },
                Some("traced") => Mode::Traced,
                Some("replay") => Mode::Replay,
                other => return Err(format!("bad --mode: {other:?}")),
            };
            let size = if flags.switch("--smoke") {
                Size::SMOKE
            } else {
                Size::FULL
            };
            flags.finish()?;
            println!("{}", passes::run(workload, seed, size, mode, started));
            Ok(true)
        }
        "compare" => match flags.0.as_slice() {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.to_string()),
        },
        _ => Err(USAGE.to_string()),
    }
}

/// The command line. Exit code 0: ran, and every output check passed; 1: ran,
/// and one failed (or `compare` found a regression); 2: could not run.
pub fn main() -> ExitCode {
    // Taken first: a child's set-up time counts from here.
    let started = Instant::now();
    match dispatch(started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
