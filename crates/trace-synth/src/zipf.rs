//! Zipf-distributed sampling over a finite block population.
//!
//! Hot-set reuse in real workloads is heavy-tailed; a Zipf(θ) rank
//! distribution over the working set is the standard synthetic stand-in.

use std::cell::RefCell;
use std::sync::Arc;

use oram_rng::Rng;

/// A table with its `(n, theta bits)`.
type Keyed = ((u64, u64), Arc<[f64]>);

thread_local! {
    /// The last table this thread built: the per-core generators of one
    /// workload ask for the same table in a row, and a one-entry memo keeps
    /// one copy, however many specs pass.
    static LAST_TABLE: RefCell<Option<Keyed>> = const { RefCell::new(None) };
}

/// A Zipf sampler over ranks `0..n` with exponent `theta`.
///
/// Sampling uses a precomputed CDF and binary search: O(n) memory,
/// O(log n) per sample, exact (no rejection). The CDF is a pure function
/// of `(n, theta)`; samplers built one after another for the same pair
/// share one table.
///
/// # Examples
///
/// ```
/// use trace_synth::zipf::Zipf;
/// use oram_rng::StdRng;
///
/// let z = Zipf::new(1000, 0.99);
/// let mut rng = StdRng::seed_from_u64(7);
/// let rank = z.sample(&mut rng);
/// assert!(rank < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    pub(crate) cdf: Arc<[f64]>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `theta` (`theta = 0`
    /// degenerates to uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is negative or not finite.
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "population must be nonzero");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "theta must be finite and non-negative"
        );
        let key = (n, theta.to_bits());
        let cdf = LAST_TABLE.with_borrow_mut(|last| match last {
            Some((k, cdf)) if *k == key => Arc::clone(cdf),
            _ => {
                let cdf = Self::table(n, theta);
                *last = Some((key, Arc::clone(&cdf)));
                cdf
            }
        });
        Self { cdf }
    }

    /// The normalized CDF over `n` ranks.
    fn table(n: u64, theta: f64) -> Arc<[f64]> {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        cdf.into()
    }

    /// Number of ranks.
    #[must_use]
    pub fn population(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Draws one rank in `0..n`; rank 0 is the hottest.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        // partition_point returns the first index with cdf > u.
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_rng::StdRng;

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(100, 0.9);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn hot_ranks_dominate() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut head = 0;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Top-10 of Zipf(1.0) over 1000 holds ~39% of the mass.
        let frac = head as f64 / n as f64;
        assert!(frac > 0.30 && frac < 0.50, "head fraction {frac}");
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "rank {i}: {c}");
        }
    }

    #[test]
    fn a_shared_table_is_the_table_a_fresh_build_gives() {
        let (a, b) = (Zipf::new(300, 0.8), Zipf::new(300, 0.8));
        assert!(Arc::ptr_eq(&a.cdf, &b.cdf));
        assert_eq!(*a.cdf, *Zipf::table(300, 0.8));
        let c = Zipf::new(300, 0.9);
        assert!(!Arc::ptr_eq(&a.cdf, &c.cdf));
        assert!(Arc::ptr_eq(&Zipf::new(300, 0.9).cdf, &c.cdf));
    }

    #[test]
    #[should_panic(expected = "population must be nonzero")]
    fn zero_population_rejected() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "theta must be finite")]
    fn negative_theta_rejected() {
        let _ = Zipf::new(10, -1.0);
    }
}
