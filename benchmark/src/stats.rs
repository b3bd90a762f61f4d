//! The repetitions of one measurement: the best of them, which the harness
//! reports, and the median and quartiles, which say how noisy the host was.
//!
//! Why the best and not the median: the simulator is deterministic, so its
//! repetitions differ only by what the host did to them, and the host only
//! ever slows a run down. On the two-vCPU sandbox this was sized on,
//! neighbours take 10–40 % off for seconds to minutes at a time; over the
//! same 150 s series of repetitions, the medians of ten-second windows
//! spread 11–32 % and their fastest repetitions 3–17 % (README, "Bounds").

use crate::json::Json;

fn best_of(values: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// The repetitions of one host-measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Every repetition, in the order run.
    pub values: Vec<f64>,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
    /// (the repository driver's rule), so a spread computed here reads the
    /// same there. A single value is its own quartiles.
    pub fn of(values: Vec<f64>) -> Self {
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let len = sorted.len();
        let cut = |i: usize| match len {
            0 => 0.0,
            1 => sorted[0],
            _ => {
                let j = (i * (len + 1) / 4).clamp(1, len - 1);
                let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            }
        };
        Self {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            values,
        }
    }

    /// A value that repeats exactly, seen once.
    pub fn exact(value: f64) -> Self {
        Self::of(vec![value])
    }

    /// The best repetition: the estimate of the undisturbed machine.
    pub fn best(&self, higher_is_better: bool) -> f64 {
        best_of(&self.values, higher_is_better)
    }

    /// How far the best of the first half of the repetitions is from the
    /// best of the second half, as a share of the best of all: what this
    /// run itself shows about how well its reported value repeats.
    pub fn halves_disagree_by(&self, higher_is_better: bool) -> f64 {
        let (first, second) = self.values.split_at(self.values.len() / 2);
        let best = self.best(higher_is_better);
        if first.is_empty() || best == 0.0 {
            return 0.0;
        }
        let (first, second) = (
            best_of(first, higher_is_better),
            best_of(second, higher_is_better),
        );
        ((first - second) / best).abs()
    }

    pub fn json(&self, unit: &str, higher_is_better: bool) -> Json {
        Json::obj([
            ("best", Json::from(self.best(higher_is_better))),
            ("median", Json::from(self.median)),
            ("q1", Json::from(self.q1)),
            ("q3", Json::from(self.q3)),
            ("n", Json::from(self.values.len())),
            ("unit", Json::from(unit)),
            (
                "values",
                Json::Arr(self.values.iter().map(|&v| Json::from(v)).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Self, String> {
        let values = v
            .get("values")
            .and_then(Json::as_arr)
            .ok_or("missing `values`")?
            .iter()
            .map(|x| x.as_f64().ok_or("non-numeric value"))
            .collect::<Result<Vec<f64>, _>>()?;
        Ok(Self::of(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of((1..=10).rev().map(f64::from).collect());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(vec![1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(s.values, [1.0, 2.0], "run order is kept");
        assert_eq!(Summary::from_json(&s.json("s", false)).unwrap(), s);
    }

    #[test]
    fn best_follows_the_direction_and_halves_are_compared() {
        let s = Summary::of(vec![90.0, 100.0, 80.0, 95.0]);
        assert_eq!((s.best(true), s.best(false)), (100.0, 80.0));
        // Halves [90, 100] and [80, 95]: bests 100 vs 95, or 90 vs 80.
        assert!((s.halves_disagree_by(true) - 0.05).abs() < 1e-12);
        assert!((s.halves_disagree_by(false) - 0.125).abs() < 1e-12);
        assert_eq!(Summary::exact(7.0).halves_disagree_by(true), 0.0);
        assert_eq!(Summary::exact(7.0).best(false), 7.0);
    }
}
