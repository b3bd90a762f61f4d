//! `compare A.json B.json`: do two sets of runs agree?
//!
//! Per workload × end-to-end metric it prints both reported values (the best
//! repetition of each side), how much worse B reads than A, the bound, and a
//! verdict:
//!
//! * `agree` — B is no worse than A by more than the bound;
//! * `regressed` — it is;
//! * `unresolved` — on either side the two halves of the repetitions
//!   disagree with each other by more than the bound, so the host was too
//!   noisy for these runs to tell (unless every repetition of B reads
//!   better than every one of A, which is agreement);
//! * `MISMATCH` — a simulated metric or the `sim_fingerprint` differs. For
//!   one seed those repeat bit for bit, so any difference is a behaviour
//!   change, whatever its size.

use std::path::Path;

use crate::json::Json;
use crate::spec::{Metric, END_TO_END};
use crate::stats::Summary;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    Regressed,
    Unresolved,
    Mismatch,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Self::Agree => "agree",
            Self::Regressed => "regressed",
            Self::Unresolved => "unresolved",
            Self::Mismatch => "MISMATCH",
        }
    }
}

/// Share of A's value by which B reads worse (negative: better).
pub fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a };
    // `+ 0.0` turns -0 into 0, which prints without a sign.
    (if m.higher_is_better { -change } else { change }) + 0.0
}

pub fn judge(m: &Metric, a: &Summary, b: &Summary) -> Verdict {
    let up = m.higher_is_better;
    if m.exact {
        return if a.best(up) == b.best(up) {
            Verdict::Agree
        } else {
            Verdict::Mismatch
        };
    }
    let better = |x: f64, y: f64| if m.higher_is_better { x > y } else { x < y };
    let b_always_better = b
        .values
        .iter()
        .all(|&y| a.values.iter().all(|&x| better(y, x)));
    let noise = a.halves_disagree_by(up).max(b.halves_disagree_by(up));
    if noise > m.bound && !b_always_better {
        Verdict::Unresolved
    } else if worsening(m, a.best(up), b.best(up)) > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Agree
    }
}

/// Prints the comparison; `Ok(true)` when nothing regressed or mismatched.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.num("seed")? != b.num("seed")? || a.get("smoke") != b.get("smoke") {
        return Err(
            "the two result sets used different seeds or sizes: simulated \
                    results are only comparable for the same inputs"
                .to_string(),
        );
    }
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
    };
    let a_workloads = workloads(&a).ok_or("A has no workloads")?;
    let mut all_good = true;
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (name, wa) in &a_workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<20} missing from B");
            all_good = false;
            continue;
        };
        for m in &END_TO_END {
            let side = |w: &Json| -> Result<Option<Summary>, String> {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .map(Summary::from_json)
                    .transpose()
            };
            let (Some(sa), Some(sb)) = (side(wa)?, side(wb)?) else {
                continue; // a layer-only result set has no end-to-end numbers
            };
            let verdict = judge(m, &sa, &sb);
            all_good &= matches!(verdict, Verdict::Agree | Verdict::Unresolved);
            println!(
                "{name:<20} {:<24} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}",
                m.name,
                sa.best(m.higher_is_better),
                sb.best(m.higher_is_better),
                worsening(m, sa.best(m.higher_is_better), sb.best(m.higher_is_better)) * 100.0,
                m.bound * 100.0,
                verdict.label()
            );
        }
        let same = wa.get("sim_fingerprint") == wb.get("sim_fingerprint");
        all_good &= same;
        println!(
            "{name:<20} {:<24} {:>14} {:>14} {:>9} {:>7}  {}",
            "sim_fingerprint",
            "",
            "",
            "",
            "exact",
            if same {
                Verdict::Agree
            } else {
                Verdict::Mismatch
            }
            .label()
        );
    }
    Ok(all_good)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let ops = end_to_end("ops_per_sec").unwrap(); // higher is better, 10 %
        let bound = ops.bound;
        let tight = |best: f64| Summary::of(vec![best * 0.999, best * 0.7, best, best * 0.998]);
        assert_eq!(
            judge(ops, &tight(100.0), &tight(100.0 * (1.0 - bound / 2.0))),
            Verdict::Agree
        );
        assert_eq!(
            judge(ops, &tight(100.0), &tight(100.0 * (1.0 - bound * 2.0))),
            Verdict::Regressed
        );
        assert_eq!(judge(ops, &tight(100.0), &tight(150.0)), Verdict::Agree);
        // The first half never came near what the second half reached.
        let noisy = Summary::of(vec![50.0, 55.0, 100.0, 98.0]);
        assert_eq!(judge(ops, &tight(100.0), &noisy), Verdict::Unresolved);
        // Noisy, but every repetition beats every repetition of A.
        let noisy_fast = Summary::of(vec![170.0, 200.0, 400.0, 390.0]);
        assert_eq!(judge(ops, &tight(100.0), &noisy_fast), Verdict::Agree);

        let rss = end_to_end("peak_rss_mb").unwrap(); // lower is better
        assert!(worsening(rss, 100.0, 110.0) > 0.0 && worsening(ops, 100.0, 110.0) < 0.0);

        let cycles = end_to_end("sim_cycles_per_op").unwrap(); // exact
        let (a, b) = (Summary::exact(136.5), Summary::exact(136.5000001));
        assert_eq!(judge(cycles, &a, &a.clone()), Verdict::Agree);
        assert_eq!(judge(cycles, &a, &b), Verdict::Mismatch);
    }
}
