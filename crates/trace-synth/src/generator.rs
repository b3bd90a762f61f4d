//! Deterministic synthetic trace generation.

use oram_rng::{Rng, StdRng};

use crate::record::TraceRecord;
use crate::workloads::WorkloadSpec;
use crate::zipf::Zipf;

/// Shape of a workload's block-address stream.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalityModel {
    /// `streams` independent sequential walkers (streaming kernels).
    Streaming {
        /// Number of concurrent sequential streams.
        streams: u32,
    },
    /// Zipf(θ) reuse over a fixed working set (pointer-chasing / lookup
    /// codes with a hot core).
    WorkingSet {
        /// Working-set size in blocks.
        blocks: u64,
        /// Zipf exponent (0 = uniform).
        theta: f64,
    },
    /// Uniform random over a large footprint (irregular codes like `libq`
    /// and `mummer`).
    UniformRandom {
        /// Footprint in blocks.
        blocks: u64,
    },
    /// A probabilistic mix of streaming and working-set reuse.
    Mixed {
        /// Working-set size in blocks.
        blocks: u64,
        /// Zipf exponent for the working-set part.
        theta: f64,
        /// Probability that an access comes from a stream.
        stream_fraction: f64,
        /// Number of concurrent sequential streams.
        streams: u32,
    },
}

/// A deterministic generator of [`TraceRecord`]s for one core.
///
/// Gaps between memory operations are geometric with mean `1000 / MPKI`,
/// so the generated trace's MPKI converges to the spec's (verified by
/// tests within 5 %). Block addresses follow the spec's locality model,
/// offset by `core_id` so different cores touch disjoint footprints (as the
/// MSC multi-programmed traces do).
#[derive(Debug)]
pub struct TraceGenerator {
    spec: WorkloadSpec,
    rng: StdRng,
    /// Per-stream cursors for the streaming models.
    cursors: Vec<u64>,
    zipf: Option<Zipf>,
    /// Base offset separating cores' footprints.
    base: u64,
    /// `ln(1 - p)` for the probability `p` that any instruction is a
    /// memory op (the geometric gap's denominator).
    ln_no_miss: f64,
}

impl TraceGenerator {
    /// Footprint separation between cores, in blocks (64 MiB of 64 B
    /// blocks), comfortably larger than any workload footprint.
    pub const CORE_STRIDE: u64 = 1 << 20;

    /// Creates a generator for `spec` seeded by `(seed, core_id)`.
    ///
    /// # Panics
    ///
    /// Panics if the spec's MPKI is not in `(0, 1000]`.
    #[must_use]
    pub fn new(spec: WorkloadSpec, seed: u64, core_id: u32) -> Self {
        assert!(
            spec.mpki > 0.0 && spec.mpki <= 1000.0,
            "mpki must be in (0, 1000]"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(core_id) << 32));
        let base = u64::from(core_id) * Self::CORE_STRIDE;
        let (cursors, zipf) = match &spec.locality {
            LocalityModel::Streaming { streams } => {
                let cursors = (0..*streams)
                    .map(|s| u64::from(s) * (Self::CORE_STRIDE / u64::from(*streams)))
                    .collect();
                (cursors, None)
            }
            LocalityModel::WorkingSet { blocks, theta } => {
                (Vec::new(), Some(Zipf::new(*blocks, *theta)))
            }
            LocalityModel::UniformRandom { .. } => (Vec::new(), None),
            LocalityModel::Mixed {
                blocks,
                theta,
                streams,
                ..
            } => {
                let cursors = (0..*streams)
                    .map(|s| u64::from(s) * (Self::CORE_STRIDE / u64::from(*streams)))
                    .collect();
                (cursors, Some(Zipf::new(*blocks, *theta)))
            }
        };
        let ln_no_miss = (1.0 - spec.mpki / 1000.0).ln();
        let _ = rng.gen::<u64>(); // decorrelate seed mixing
        Self {
            spec,
            rng,
            cursors,
            zipf,
            base,
            ln_no_miss,
        }
    }

    /// The specification driving this generator.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn next_block(&mut self) -> u64 {
        let block = match &self.spec.locality {
            LocalityModel::Streaming { streams } => {
                let s = self.rng.gen_range(0..*streams) as usize;
                let b = self.cursors[s];
                self.cursors[s] = (self.cursors[s] + 1) % Self::CORE_STRIDE;
                b
            }
            LocalityModel::WorkingSet { .. } => {
                let z = self.zipf.as_ref().expect("working set has zipf");
                z.sample(&mut self.rng)
            }
            LocalityModel::UniformRandom { blocks } => self.rng.gen_range(0..*blocks),
            LocalityModel::Mixed {
                stream_fraction,
                streams,
                ..
            } => {
                if self.rng.gen_bool(*stream_fraction) {
                    let s = self.rng.gen_range(0..*streams) as usize;
                    let b = self.cursors[s];
                    self.cursors[s] = (self.cursors[s] + 1) % Self::CORE_STRIDE;
                    b
                } else {
                    let z = self.zipf.as_ref().expect("mixed has zipf");
                    z.sample(&mut self.rng)
                }
            }
        };
        self.base + block
    }

    /// Generates the next record: a geometric instruction gap followed by
    /// one memory operation.
    pub fn next_record(&mut self) -> TraceRecord {
        // Geometric(p) gap: number of non-memory instructions before the
        // next miss. Inverse-CDF sampling keeps it O(1).
        let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let gap = (u.ln() / self.ln_no_miss).floor() as u32;
        let block = self.next_block();
        let is_write = self.rng.gen_bool(self.spec.write_fraction);
        TraceRecord::new(gap, block, is_write)
    }

    /// Generates `n` records.
    pub fn take_records(&mut self, n: usize) -> Vec<TraceRecord> {
        (0..n).map(|_| self.next_record()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::summarize;
    use crate::workloads::{all_workloads, by_name};

    #[test]
    fn mpki_converges_to_spec() {
        for spec in all_workloads() {
            let target = spec.mpki;
            let name = spec.name;
            let mut g = TraceGenerator::new(spec, 7, 0);
            let records = g.take_records(20_000);
            let s = summarize(&records);
            let rel = (s.mpki - target).abs() / target;
            assert!(rel < 0.05, "{name}: mpki {} vs target {target}", s.mpki);
        }
    }

    #[test]
    fn write_fraction_converges() {
        let spec = by_name("stream").unwrap();
        let target = spec.write_fraction;
        let mut g = TraceGenerator::new(spec, 3, 0);
        let s = summarize(&g.take_records(20_000));
        assert!((s.write_fraction - target).abs() < 0.02);
    }

    #[test]
    fn deterministic_per_seed_and_core() {
        let spec = by_name("black").unwrap();
        let a = TraceGenerator::new(spec.clone(), 9, 0).take_records(100);
        let b = TraceGenerator::new(spec.clone(), 9, 0).take_records(100);
        assert_eq!(a, b);
        let c = TraceGenerator::new(spec, 10, 0).take_records(100);
        assert_ne!(a, c);
    }

    #[test]
    fn cores_have_disjoint_footprints() {
        let spec = by_name("freq").unwrap();
        let a = TraceGenerator::new(spec.clone(), 9, 0).take_records(1000);
        let b = TraceGenerator::new(spec, 9, 1).take_records(1000);
        let sa: std::collections::HashSet<u64> = a.iter().map(|r| r.op.block).collect();
        let sb: std::collections::HashSet<u64> = b.iter().map(|r| r.op.block).collect();
        assert!(sa.is_disjoint(&sb));
    }

    #[test]
    fn streaming_walks_sequentially() {
        let spec = WorkloadSpec {
            name: "seq",
            suite: "test",
            mpki: 10.0,
            write_fraction: 0.0,
            locality: LocalityModel::Streaming { streams: 1 },
        };
        let mut g = TraceGenerator::new(spec, 1, 0);
        let records = g.take_records(10);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.op.block, i as u64);
        }
    }

    #[test]
    fn working_set_reuses_blocks() {
        let spec = WorkloadSpec {
            name: "hot",
            suite: "test",
            mpki: 10.0,
            write_fraction: 0.0,
            locality: LocalityModel::WorkingSet {
                blocks: 64,
                theta: 0.9,
            },
        };
        let mut g = TraceGenerator::new(spec, 1, 0);
        let s = summarize(&g.take_records(5000));
        assert!(s.unique_blocks <= 64);
        assert!(s.unique_blocks > 32, "most of the set gets touched");
    }

    #[test]
    fn blocks_stay_below_cold_space() {
        // Program blocks must stay below RingOram::PROGRAM_ID_BOUND (2^30).
        for spec in all_workloads() {
            let mut g = TraceGenerator::new(spec, 5, 3);
            for r in g.take_records(2000) {
                assert!(r.op.block < (1 << 30));
            }
        }
    }

    #[test]
    fn generators_of_one_spec_share_one_zipf_table() {
        let spec = by_name("black").unwrap();
        let table = |g: &TraceGenerator| std::sync::Arc::clone(&g.zipf.as_ref().unwrap().cdf);
        let gens: Vec<TraceGenerator> = (0..4)
            .map(|c| TraceGenerator::new(spec.clone(), 11, c))
            .collect();
        let first = table(&gens[0]);
        assert_eq!(first.len(), 32_768);
        assert!(gens
            .iter()
            .all(|g| std::sync::Arc::ptr_eq(&table(g), &first)));
        // Another spec's table replaces the memo.
        let other = TraceGenerator::new(by_name("freq").unwrap(), 11, 0);
        assert!(!std::sync::Arc::ptr_eq(&table(&other), &first));
    }
}
