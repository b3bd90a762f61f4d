//! The paper's evaluation and the bench documents beyond it as one table,
//! `EXPERIMENTS`, and the one interpreter that reads it:
//! `cargo bench --bench paper [-- <name>...]`.
//!
//! An `Experiment` is data — one sweep of simulated points, evaluated
//! once, and tables over the resulting reports — or, for the entries that
//! do not go through [`Simulation`], a `fn` that hands back the same
//! `Table` value, or, for an entry beyond the paper, a `Document`: its
//! points at its committed size and its gate. What a table needs beyond its
//! numbers happens here and nowhere else: the loops over workloads, schemes
//! and variants, the division by the reference, the GEOMEAN row, the number
//! formats, the 12-wide columns, a document's tables (printed from its
//! rows), the documents a run writes (`Schema::write`: `BENCH_paper.json`
//! for a run that names nothing, `BENCH_<name>.json` for a named document
//! entry), and the failing exit of a gate that does not hold.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::process::ExitCode;

use string_oram::{Scheme, SimReport, Simulation, SystemConfig, VerifyConfig};

use crate::experiments::EXPERIMENTS;
use crate::json::Value;
use crate::schema::{finite, Schema, PAPER};
use crate::{env_or, traces_for};

/// The seed of a point's first trace; trace `s` of a multi-seed point uses
/// `TRACE_SEED ^ (s * 0x9E37)`.
const TRACE_SEED: u64 = 0xBEEF;

/// The run-length settings every simulated point honours.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Scale {
    /// `STRING_ORAM_ACCESSES` (default 400): measured accesses per core.
    pub accesses: usize,
    /// `STRING_ORAM_WARMUP` (default 0): accesses per core simulated before
    /// the counters start.
    pub warmup: usize,
    /// `STRING_ORAM_SEEDS` (default 1): trace seeds per point; the point
    /// reports its median-cycles run.
    pub seeds: u64,
}

/// One simulated point: the machine, its report, and the report as it
/// stood when half of the measured accesses had been planned (second-half
/// rates are `report − halfway`; Fig. 13 reads greens/read that way).
#[derive(Clone, Debug)]
pub(crate) struct Run {
    pub cfg: SystemConfig,
    pub halfway: SimReport,
    pub report: SimReport,
}

/// What decides a finished run: the machine, the workload, the measured
/// accesses per core and the scale (every run seeds its own traces).
type RunKey = (SystemConfig, String, usize, Scale);

thread_local! {
    /// Every run this thread has finished, by its key. The experiments
    /// share many points (each figure's baseline, the default machine on
    /// `black`), and a point runs once.
    static RUNS: RefCell<Vec<(RunKey, Run)>> = const { RefCell::new(Vec::new()) };
}

impl Scale {
    /// Runs `workload` on `cfg` for `accesses` measured accesses per core —
    /// the one place a table's traces are built and its `Simulation`s run
    /// — with every checker on. A point already run hands back a clone of
    /// its run.
    ///
    /// # Errors
    ///
    /// A violation of a rule `expects` does not name (as `[rule]` prints
    /// it; a series names the rules it breaks on purpose), quoting the
    /// first.
    pub(crate) fn simulate(
        &self,
        cfg: &SystemConfig,
        workload: &str,
        accesses: usize,
        expects: &[&str],
    ) -> Result<Run, String> {
        let key = (cfg.clone(), workload.to_string(), accesses, *self);
        let cached = RUNS.with_borrow(|runs| {
            let hit = runs.iter().find(|(k, _)| *k == key);
            hit.map(|(_, run)| run.clone())
        });
        let run = cached.unwrap_or_else(|| {
            let run = self.run(cfg, workload, accesses);
            RUNS.with_borrow_mut(|runs| runs.push((key, run.clone())));
            run
        });
        let violations = &run.report.violations;
        let expected = |v: &str| {
            let rule = v.strip_prefix('[').and_then(|v| v.split_once(']'));
            rule.is_some_and(|(rule, _)| expects.contains(&rule))
        };
        match violations.iter().find(|v| !expected(v)) {
            None => Ok(run),
            Some(first) => Err(format!(
                "{workload}: {first} ({} violations; expected rules: {expects:?})",
                violations.len()
            )),
        }
    }

    /// [`Self::simulate`]'s run itself, checked and uncached.
    fn run(&self, cfg: &SystemConfig, workload: &str, accesses: usize) -> Run {
        let cfg = &SystemConfig {
            verify: VerifyConfig::checked(),
            ..cfg.clone()
        };
        let planned = |per_core: usize| (per_core * cfg.cores) as u64;
        let step_to = |sim: &mut Simulation, planned: u64| {
            while sim.oram_accesses() < planned && !sim.is_finished() {
                sim.step();
            }
        };
        let run = |s: u64| {
            let seed = TRACE_SEED ^ (s * 0x9E37);
            let traces = traces_for(cfg, workload, accesses + self.warmup, seed);
            let mut sim = Simulation::new(cfg.clone(), traces);
            sim.set_label(workload);
            if self.warmup > 0 {
                step_to(&mut sim, planned(self.warmup));
                sim.begin_measurement();
            }
            step_to(&mut sim, planned(self.warmup) + planned(accesses) / 2);
            let halfway = sim.report();
            step_to(&mut sim, u64::MAX);
            (halfway, sim.report())
        };
        let mut runs: Vec<(SimReport, SimReport)> = (0..self.seeds.max(1)).map(run).collect();
        runs.sort_by_key(|(_, report)| report.total_cycles);
        let (halfway, report) = runs.swap_remove(runs.len() / 2);
        Run {
            cfg: cfg.clone(),
            halfway,
            report,
        }
    }
}

/// How a number becomes the text of a cell.
#[derive(Clone, Copy)]
pub(crate) enum Format {
    /// `{:.d}`.
    Fixed(usize),
    /// A fraction as `{:.d}%`.
    Percent(usize),
    /// A ratio `r` as the saving it is, `1 − r`, in `{:.1}%`.
    Saving,
    /// A count.
    Integer,
    /// Non-zero `yes`, zero `NO`.
    YesNo,
}

impl Format {
    /// The cell for `v`; `-` where the column does not apply to the row
    /// (`v` is NaN).
    pub(crate) fn cell(self, v: f64) -> Cell {
        Cell::text(match self {
            _ if v.is_nan() => "-".to_string(),
            Format::Fixed(d) => format!("{v:.d$}"),
            Format::Percent(d) => format!("{:.d$}%", v * 100.0),
            Format::Saving => format!("{:.1}%", (1.0 - v) * 100.0),
            Format::Integer => format!("{}", v as u64),
            Format::YesNo => if v == 0.0 { "NO" } else { "yes" }.to_string(),
        })
    }
}

/// One printed value and, where the paper prints the same quantity, the
/// paper's number in the unit of the printed one.
pub(crate) struct Cell {
    pub text: String,
    pub paper: Option<f64>,
}

impl Cell {
    pub(crate) fn text(text: impl Into<String>) -> Self {
        Self {
            text: text.into(),
            paper: None,
        }
    }

    pub(crate) fn paper(self, paper: impl Into<Option<f64>>) -> Self {
        Self {
            paper: paper.into(),
            ..self
        }
    }
}

/// A table as printed: `columns[0]` heads the label column.
pub(crate) struct Table {
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<(String, Vec<Cell>)>,
}

/// The separator-and-title block a table opens with.
#[must_use]
pub fn banner(title: &str) -> String {
    format!("\n{0}\n{title}\n{0}\n", "=".repeat(78))
}

/// One printed row: the label, then the values right-aligned in 12-wide
/// columns.
#[must_use]
pub fn line(label: &str, values: &[impl AsRef<str>]) -> String {
    let mut line = format!("{label:<12}");
    for v in values {
        write!(line, " {:>12}", v.as_ref()).expect("writing to a String");
    }
    line + "\n"
}

impl Table {
    pub(crate) fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// The banner, the header line, then each row: its label and its
    /// cells as printed.
    fn text(&self) -> String {
        let header = line(&self.columns[0], &self.columns[1..]);
        let rows = self.rows.iter().map(|(label, cells)| {
            let values: Vec<&str> = cells.iter().map(|c| c.text.as_str()).collect();
            line(label, &values)
        });
        banner(&self.title) + &header + &rows.collect::<String>()
    }

    /// The table for `BENCH_paper.json`: per cell the text as printed, its
    /// number without display-only decorations (`%`), and the paper's.
    fn json(&self) -> Value {
        let number = |n: Option<f64>| n.filter(|n| n.is_finite()).map_or(Value::Null, finite);
        let cell = |(column, cell): (&String, &Cell)| {
            Value::object(vec![
                ("column", column.as_str().into()),
                ("text", cell.text.as_str().into()),
                (
                    "number",
                    number(cell.text.trim_end_matches('%').parse().ok()),
                ),
                ("paper", number(cell.paper)),
            ])
        };
        let row = |(label, cells): &(String, Vec<Cell>)| {
            let cells = self.columns[1..].iter().zip(cells).map(cell).collect();
            Value::object(vec![
                ("label", label.as_str().into()),
                ("cells", Value::Array(cells)),
            ])
        };
        let columns = self.columns.iter().map(|c| c.as_str().into()).collect();
        Value::object(vec![
            ("title", self.title.as_str().into()),
            ("columns", Value::Array(columns)),
            ("rows", Value::Array(self.rows.iter().map(row).collect())),
        ])
    }
}

/// An edit to the paper's default machine.
pub(crate) type Edit = fn(&mut SystemConfig);
/// The edit that leaves the machine as it is.
pub(crate) const NO_EDIT: Edit = |_| {};
/// A column's number, read off one point.
pub(crate) type Extract = fn(&Run) -> f64;
/// The reports of a sweep: per sweep row its label and one run per series.
pub(crate) type Grid = [(String, Vec<Run>)];
/// What a `fn`-backed experiment hands back: its tables and the numbers
/// its footer quotes, or why a run failed.
pub(crate) type Computed = Result<(Vec<Table>, Vec<Cell>), String>;

/// One setting of a sweep's inner axis: a scheme of the paper's default
/// machine, edited.
#[derive(Clone, Copy)]
pub(crate) struct Series {
    pub label: &'static str,
    pub scheme: Scheme,
    pub edit: Edit,
    /// Whether [`Relative::Reference`] columns divide this series and the
    /// ones after it (up to the next reference) by this one.
    pub reference: bool,
    /// The checker rules the series breaks on purpose; a violation of any
    /// other fails the run.
    pub expects: &'static [&'static str],
}

impl Series {
    /// The series' machine on a sweep row that edits it by `row`.
    pub(crate) fn machine(&self, row: Edit) -> SystemConfig {
        let mut cfg = SystemConfig::hpca_default(self.scheme);
        row(&mut cfg);
        (self.edit)(&mut cfg);
        cfg
    }
}

/// One setting of a sweep's outer axis: its label, the workload, and an
/// edit of the machine.
pub(crate) type Row = (&'static str, &'static str, Edit);

/// What a column's number is divided by.
#[derive(Clone, Copy)]
pub(crate) enum Relative {
    /// Nothing.
    No,
    /// The same number at the nearest reference series at or before the
    /// point's own, on the same sweep row; a point before every reference
    /// prints `-`.
    Reference,
    /// The same number at the sweep's first point.
    Origin,
}

#[derive(Clone, Copy)]
pub(crate) struct Column {
    pub header: &'static str,
    /// In a [`Shape::ByRow`] table, the series the column reads.
    pub series: usize,
    pub value: Extract,
    pub format: Format,
    pub relative: Relative,
    /// The paper's number for the column's GEOMEAN.
    pub paper: Option<f64>,
}

/// A column of `value`s: of series 0, divided by nothing, with no number
/// from the paper — the methods below change one of those each.
pub(crate) const fn col(header: &'static str, value: Extract, format: Format) -> Column {
    Column {
        header,
        series: 0,
        value,
        format,
        relative: Relative::No,
        paper: None,
    }
}

impl Column {
    pub(crate) const fn of(mut self, series: usize) -> Self {
        self.series = series;
        self
    }

    pub(crate) const fn over(mut self, relative: Relative) -> Self {
        self.relative = relative;
        self
    }

    pub(crate) const fn paper(mut self, paper: f64) -> Self {
        self.paper = Some(paper);
        self
    }
}

/// Which way a table lies over its sweep.
#[derive(Clone, Copy)]
pub(crate) enum Shape {
    /// One table; a row per sweep row, each column reading the series it
    /// names; `geomean` closes it with the columns' geometric means.
    ByRow { geomean: bool },
    /// A row per series; one table per sweep row, or only for the row
    /// `only` names.
    BySeries { only: Option<&'static str> },
}

#[derive(Clone, Copy)]
pub(crate) struct TableSpec {
    /// `{n}` stands for the accesses per core, `{row}` for the sweep row's
    /// label.
    pub title: &'static str,
    /// The header of the label column.
    pub corner: &'static str,
    pub shape: Shape,
    pub columns: &'static [Column],
}

/// The fields of a bench document, before its `bench` tag and version.
pub(crate) type Fields = Vec<(&'static str, Value)>;

/// An entry beyond the paper whose rows are a bench document of their own.
/// It has no scale: it runs at the size its committed document records,
/// held as constants beside its points.
#[derive(Clone, Copy)]
pub(crate) struct Document {
    /// The format of what `points` returns, by which the driver prints it
    /// and — when the entry is named after the document, `BENCH_<name>.json`
    /// — writes it; an entry that only prints and gates borrows another
    /// document's format.
    pub schema: &'static Schema,
    /// The document's fields. `Err` when a run breaks a claim the document
    /// does not record (an audit violation, a re-run's digest).
    pub points: fn() -> Result<Fields, String>,
    /// The claim the run exits on, read off the document: what it measured,
    /// or why it does not hold.
    pub gate: fn(&Value) -> Result<String, String>,
}

/// One table or figure of the evaluation, or one document beyond it;
/// [`EXPERIMENTS`] lists them. The point at `(row, series)` of its sweep
/// runs the row's workload on `SystemConfig::hpca_default(series.scheme)`
/// after the row's and the series' edits.
#[derive(Clone, Copy)]
pub(crate) struct Experiment {
    /// What `cargo bench --bench paper -- <name>` selects.
    pub name: &'static str,
    /// The fewest accesses per core the sweep runs, whatever
    /// `STRING_ORAM_ACCESSES` says.
    pub(crate) min_accesses: usize,
    pub(crate) rows: &'static [Row],
    pub(crate) series: &'static [Series],
    pub(crate) tables: &'static [TableSpec],
    /// The numbers the footer quotes, read off the sweep.
    pub(crate) quotes: fn(&Grid) -> Vec<Cell>,
    /// In place of a sweep: an experiment that does not go through
    /// [`Simulation`] (analytic, or driven at the controller) or that
    /// aggregates over workloads (Fig. 13).
    pub(crate) compute: Option<fn(&Scale) -> Computed>,
    /// Printed after the last table; each `{}` takes the next quoted number.
    pub(crate) footer: &'static str,
    /// In place of all of the above: an entry beyond the paper. A run that
    /// names no entry runs exactly the entries without one.
    pub(crate) document: Option<Document>,
}

/// Geometric mean of strictly positive values (the paper reports GEOMEAN
/// bars); 0.0 for an empty slice.
pub(crate) fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// The tables `spec` lays over `grid`.
fn tabulate(spec: &TableSpec, series: &[Series], grid: &Grid, accesses: usize) -> Vec<Table> {
    let value = |col: &Column, row: usize, s: usize| {
        let at = |row: usize, s: usize| (col.value)(&grid[row].1[s]);
        match col.relative {
            Relative::No => at(row, s),
            Relative::Origin => at(row, s) / at(0, 0),
            Relative::Reference => match (0..=s).rev().find(|&r| series[r].reference) {
                Some(reference) => at(row, s) / at(row, reference),
                None => f64::NAN,
            },
        }
    };
    let cell = |col: &Column, label: &str, v: f64| {
        col.format
            .cell(v)
            .paper(col.paper.filter(|_| label == "GEOMEAN"))
    };
    let table = |row: &str| {
        let title = spec.title.replace("{n}", &accesses.to_string());
        let headers = spec.columns.iter().map(|c| c.header);
        let columns: Vec<&str> = std::iter::once(spec.corner).chain(headers).collect();
        Table::new(title.replace("{row}", row), &columns)
    };
    match spec.shape {
        Shape::ByRow { geomean: closing } => {
            let mut t = table("");
            let mut sums = vec![Vec::new(); spec.columns.len()];
            for (row, (label, _)) in grid.iter().enumerate() {
                let mut cells = Vec::new();
                for (col, sum) in spec.columns.iter().zip(&mut sums) {
                    let v = value(col, row, col.series);
                    sum.push(v);
                    cells.push(cell(col, label, v));
                }
                t.rows.push((label.clone(), cells));
            }
            if closing {
                let means = spec.columns.iter().zip(&sums);
                let cells = means.map(|(col, sum)| cell(col, "GEOMEAN", geomean(sum)));
                t.rows.push(("GEOMEAN".to_string(), cells.collect()));
            }
            vec![t]
        }
        Shape::BySeries { only } => {
            let rows = grid.iter().enumerate();
            let rows = rows.filter(|(_, (label, _))| only.is_none_or(|only| only == label));
            let per_row = rows.map(|(row, (label, _))| {
                let mut t = table(label);
                for (s, one) in series.iter().enumerate() {
                    let cells = spec.columns.iter();
                    let cells = cells.map(|col| cell(col, one.label, value(col, row, s)));
                    t.rows.push((one.label.to_string(), cells.collect()));
                }
                t
            });
            per_row.collect()
        }
    }
}

impl Scale {
    /// The experiment's tables and its footer.
    ///
    /// # Errors
    ///
    /// A run's violation its series does not expect.
    fn evaluate(&self, exp: &Experiment) -> Result<(Vec<Table>, String), String> {
        let sweep = || {
            let accesses = self.accesses.max(exp.min_accesses);
            let run = |workload: &str, edit: Edit, series: &Series| {
                self.simulate(&series.machine(edit), workload, accesses, series.expects)
                    .map_err(|e| format!("{}: {e}", series.label))
            };
            let grid = exp.rows.iter().map(|&(label, workload, edit)| {
                let runs = exp.series.iter().map(|s| run(workload, edit, s));
                Ok((label.to_string(), runs.collect::<Result<_, String>>()?))
            });
            let grid: Vec<(String, Vec<Run>)> = grid.collect::<Result<_, String>>()?;
            let tables = exp.tables.iter();
            let tables = tables.flat_map(|spec| tabulate(spec, exp.series, &grid, accesses));
            Ok((tables.collect(), (exp.quotes)(&grid)))
        };
        let (tables, quotes) = exp.compute.map_or_else(sweep, |compute| compute(self))?;
        let quoted = |footer: String, quote: Cell| footer.replacen("{}", &quote.text, 1);
        Ok((
            tables,
            quotes.into_iter().fold(exp.footer.to_string(), quoted),
        ))
    }
}

/// Runs the experiments `args` name — the paper's, in the table's order,
/// when they name none; arguments starting with `--` (cargo passes
/// `--bench`) are ignored — printing each to `out`. Returns the documents
/// to write: the [`PAPER`] document for a run that names none, each named
/// document entry's.
///
/// # Errors
///
/// An argument that names no experiment, before anything runs; a document
/// entry whose points or gate fail, naming it.
pub(crate) fn drive(
    table: &[Experiment],
    args: &[String],
    scale: &Scale,
    out: &mut dyn std::io::Write,
) -> Result<Vec<(&'static Schema, Value)>, String> {
    let names: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let find = |name: &&String| {
        table.iter().find(|e| e.name == **name).ok_or_else(|| {
            let known: Vec<&str> = table.iter().map(|e| e.name).collect();
            format!(
                "no experiment {name:?}; the experiments are:\n  {}",
                known.join("\n  ")
            )
        })
    };
    let selected: Vec<&Experiment> = if names.is_empty() {
        table.iter().filter(|e| e.document.is_none()).collect()
    } else {
        names.iter().map(find).collect::<Result<_, _>>()?
    };
    let (mut experiments, mut documents) = (Vec::new(), Vec::new());
    let mut print = |tables: &[Table], footer: &str| {
        let text: String = tables.iter().map(Table::text).collect();
        write!(out, "{text}\n{footer}\n").expect("the tables are printed");
    };
    for exp in selected {
        let failed = |e: String| format!("{}: {e}", exp.name);
        let Some(document) = exp.document else {
            let (tables, footer) = scale.evaluate(exp).map_err(failed)?;
            print(&tables, &footer);
            let tables = Value::Array(tables.iter().map(Table::json).collect());
            let footer = footer.into();
            experiments.push(Value::object(vec![
                ("name", exp.name.into()),
                ("tables", tables),
                ("footer", footer),
            ]));
            continue;
        };
        let doc = document
            .schema
            .document((document.points)().map_err(failed)?);
        let gate = (document.gate)(&doc);
        let (Ok(reading) | Err(reading)) = &gate;
        print(&document.schema.tables(&doc), reading);
        gate.map_err(failed)?;
        if document.schema.bench == exp.name {
            documents.push((document.schema, doc));
        }
    }
    if names.is_empty() {
        let paper = PAPER.document(vec![
            ("accesses_per_core", scale.accesses.into()),
            ("warmup", scale.warmup.into()),
            ("seeds", scale.seeds.into()),
            ("trace_seed", TRACE_SEED.into()),
            ("experiments", Value::Array(experiments)),
        ]);
        documents.push((&PAPER, paper));
    }
    Ok(documents)
}

/// `cargo bench --bench paper`: the paper's experiments at the size the
/// environment sets, or the named entries; writes the documents of the run
/// (`BENCH_paper.json` when it names none). An unknown name, a gate that
/// does not hold and a document that breaks its table or — written to a
/// scratch path — differs from the committed copy are `error: …` and a
/// failing exit.
#[must_use]
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale {
        accesses: env_or("STRING_ORAM_ACCESSES", 400),
        warmup: env_or("STRING_ORAM_WARMUP", 0),
        seeds: env_or("STRING_ORAM_SEEDS", 1),
    };
    let run = drive(EXPERIMENTS, &args, &scale, &mut std::io::stdout());
    let written = run.and_then(|documents| {
        let mut documents = documents.iter();
        documents.try_for_each(|(schema, doc)| schema.write(doc))
    });
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale {
        accesses: 20,
        warmup: 0,
        seeds: 1,
    };

    /// Whether `drive` returned a (valid) paper document for `args`, and what
    /// it printed.
    fn driven(table: &[Experiment], args: &[&str]) -> (Result<bool, String>, String) {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        let mut out = Vec::new();
        let complete = drive(table, &args, &SMOKE, &mut out).map(|documents| {
            let paper = documents
                .iter()
                .find(|(schema, _)| schema.bench == PAPER.bench);
            let valid = paper.map(|(_, doc)| PAPER.validate(doc));
            valid
                .map(|valid| valid.expect("the document is valid"))
                .is_some()
        });
        (complete, String::from_utf8(out).expect("text"))
    }

    /// The tables of the four experiments whose output does not depend on
    /// the run length, as the per-figure benches printed them before they
    /// became rows of the table.
    const RECORDED: [(&str, &str); 4] = [
        (
            "fig04_space",
            "
==============================================================================
Fig. 4: memory space utilization of Ring ORAM (L = 23, 64 B blocks)
==============================================================================
config                  Z            A            S     real GiB    dummy GiB    total GiB   space eff.
Config-1                4            3            5          4.0          5.0          9.0       44.44%
Config-2                8            8           12          8.0         12.0         20.0       40.00%
Config-3               16           20           27         16.0         27.0         43.0       37.21%
Config-4               32           46           58         32.0         58.0         90.0       35.56%
",
        ),
        (
            "table5_cb_space",
            "
==============================================================================
Table V: CB configurations and space saving (Z=8, S=12, L=23)
==============================================================================
config        Y (CB rate)    total GiB      dummy % saved vs base
Baseline              Y=0         20.0        60.0%         0.0%
Config-1              Y=2         18.0        55.6%        10.0%
Config-2              Y=4         16.0        50.0%        20.0%
Config-3              Y=6         14.0        42.9%        30.0%
Config-4              Y=8         12.0        33.3%        40.0%
",
        ),
        (
            "table4_workloads",
            "
==============================================================================
Table IV: workloads and their MPKIs (paper value vs synthesized)
==============================================================================
workload            suite   paper MPKI   synth MPKI      wr frac  uniq blocks
black              PARSEC         4.58         4.57         0.25        17243
face               PARSEC        10.37        10.42         0.30        31794
ferret             PARSEC        10.42        10.40         0.30        35051
fluid              PARSEC         4.72         4.74         0.35        37780
freq               PARSEC         4.42         4.41         0.25        14370
leslie               SPEC         9.45         9.50         0.35        44070
libq                 SPEC        20.20        20.16         0.25        45585
mummer           BIOBENCH        24.07        24.02         0.20        45585
stream               SPEC         5.57         5.56         0.45        50000
swapt              PARSEC         5.16         5.15         0.30        25821
",
        ),
        (
            "fig08_pb_timeline",
            "
==============================================================================
Figs. 6/8: 4-bank, 3-transaction timing example (DDR3-1600 cycles)
==============================================================================
scheduler    finish cycle    early PRE    early ACT
txn-based             309            0            0
PB                    254           15            0
",
        ),
    ];

    #[test]
    fn recorded_experiments_print_what_their_benches_printed() {
        for (name, tables) in RECORDED {
            let exp = EXPERIMENTS.iter().find(|e| e.name == name).expect(name);
            // Fig. 8's footer quotes its saving; the others quote nothing.
            let footer = exp
                .footer
                .replacen("{}", "55", 1)
                .replacen("{}", "17.8%", 1);
            let (document, printed) = driven(EXPERIMENTS, &[name]);
            assert_eq!(printed, format!("{tables}\n{footer}\n"));
            assert_eq!(document, Ok(false), "a filtered run writes no document");
        }
    }

    /// Every experiment at its own configuration, 20 accesses per core (the
    /// floor of Figs. 14/15 lowered): nothing panics and the document is
    /// valid — in particular every table is rectangular.
    #[test]
    fn every_experiment_runs_and_the_arguments_select() {
        let lower = |exp: &Experiment| Experiment {
            min_accesses: 0,
            ..*exp
        };
        let table: Vec<Experiment> = EXPERIMENTS.iter().map(lower).collect();
        let (document, printed) = driven(&table, &["--bench"]);
        assert_eq!(document, Ok(true), "`--bench` selects nothing: all run");
        let titles = printed.lines().filter(|l| l.contains("accesses/core"));
        assert!(titles.clone().count() >= 20, "{printed}");
        assert!(
            titles.clone().all(|l| l.contains("20 accesses/core")),
            "{printed}"
        );

        let (document, printed) = driven(&table, &["table5_cb_space", "--bench", "fig04_space"]);
        assert_eq!(document, Ok(false));
        let at = |title| printed.find(title).expect(title);
        assert!(
            at("Table V") < at("Fig. 4"),
            "named experiments run as named"
        );

        let (document, printed) = driven(&table, &["fig04_space", "no_such_figure"]);
        let error = document.expect_err("an unknown name");
        assert!(error.contains("\"no_such_figure\""), "{error}");
        assert!(
            EXPERIMENTS.iter().all(|e| error.contains(e.name)),
            "{error}"
        );
        assert_eq!(printed, "", "nothing runs before every name is known");
    }

    /// A point run twice is run once, and the clone it hands back equals
    /// a fresh run: for a point of a sweep by row (Fig. 10's default
    /// machine), of a sweep by series whose series expects violations (the
    /// unconstrained scheduler), and of a `fn` experiment (Fig. 13's
    /// machine at Y = 2). A violation a series does not expect is an
    /// error naming it.
    #[test]
    fn a_cached_run_equals_a_fresh_one() {
        let named = |name| EXPERIMENTS.iter().find(|e| e.name == name).expect(name);
        let all = named("fig10_exec_time").series[3];
        let unconstrained = named("ablation_atomicity_cost").series[2];
        let mut fig13 = SystemConfig::hpca_default(Scheme::Cb);
        fig13.ring.y = 2;
        let keys = [
            (all.machine(NO_EDIT), "black", all.expects),
            (
                unconstrained.machine(NO_EDIT),
                "black",
                unconstrained.expects,
            ),
            (fig13, "face", &[][..]),
        ];
        let cached = || RUNS.with_borrow(Vec::len);
        for (cfg, workload, expects) in &keys {
            let first = SMOKE.simulate(cfg, workload, 20, expects).unwrap();
            let before = cached();
            let hit = SMOKE.simulate(cfg, workload, 20, expects).unwrap();
            assert_eq!(cached(), before, "{workload}: a hit runs nothing");
            let fresh = format!("{:?}", SMOKE.run(cfg, workload, 20));
            assert_eq!(format!("{first:?}"), fresh, "{workload}");
            assert_eq!(format!("{hit:?}"), fresh, "{workload}");
        }
        let (cfg, ..) = &keys[1];
        let error = SMOKE.simulate(cfg, "black", 20, &[]).unwrap_err();
        assert!(error.starts_with("black: [txn-order] at "), "{error}");
    }

    fn single_seed(cfg: &SystemConfig, workload: &str, accesses: usize, s: u64) -> SimReport {
        let traces = traces_for(cfg, workload, accesses, TRACE_SEED ^ (s * 0x9E37));
        let mut sim = Simulation::new(cfg.clone(), traces);
        sim.set_label(workload);
        sim.run(u64::MAX).expect("completes")
    }

    #[test]
    fn the_runner_honours_warm_up_and_seeds_for_every_point() {
        let cfg = SystemConfig::test_small(Scheme::All);
        // At the defaults, what `run_scheme` and `run_config` both did.
        let plain = SMOKE.simulate(&cfg, "black", 30, &[]).unwrap();
        let expected = single_seed(&cfg, "black", 30, 0);
        assert_eq!(format!("{:?}", plain.report), format!("{expected:?}"));
        let unset = Scale { seeds: 0, ..SMOKE };
        assert_eq!(
            unset
                .simulate(&cfg, "black", 30, &[])
                .unwrap()
                .report
                .total_cycles,
            expected.total_cycles
        );

        // A warm-up prefix is simulated and then left out of every counter.
        let warm = Scale {
            warmup: 10,
            ..SMOKE
        }
        .simulate(&cfg, "black", 20, &[])
        .unwrap();
        assert!(warm.report.oram_accesses < plain.report.oram_accesses);
        assert!(warm.report.total_cycles < plain.report.total_cycles);
        assert!(warm.halfway.oram_accesses * 2 >= warm.report.oram_accesses);

        // `k` seeds: the median-cycles run.
        let mut cycles = [0, 1, 2].map(|s| single_seed(&cfg, "black", 30, s).total_cycles);
        cycles.sort_unstable();
        assert!(cycles[0] < cycles[2], "the seeds draw different traces");
        let median = Scale { seeds: 3, ..SMOKE }
            .simulate(&cfg, "black", 30, &[])
            .unwrap();
        assert_eq!(median.report.total_cycles, cycles[1]);
    }
}
