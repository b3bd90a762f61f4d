//! Adversarial stash-safety tests for the Compact Bucket optimization.
//!
//! CB trades per-bucket slack (`Y` fewer physical slots) for capacity, so
//! the risk it must be audited against is stash growth: a hot set hammered
//! with a Zipf skew maximizes early/forced reshuffles and green-block
//! traffic, which is exactly where a CB accounting bug would leak blocks
//! into the stash. Every access stream here is audited by the independent
//! `sim-verify` checkers and must finish with zero violations and a
//! bounded stash.

use oram_rng::{Rng, StdRng};
use ring_oram::{BlockId, ObliviousProtocol, RingConfig, RingOram};
use sim_verify::ProtocolAuditor;
use string_oram::{Scheme, Simulation, SystemConfig};
use trace_synth::generator::LocalityModel;
use trace_synth::{TraceGenerator, TraceRecord, WorkloadSpec};

const SEEDS: [u64; 4] = [2, 19, 31, 53];

/// Zipf(θ) sampler over ranks `0..n` via the inverse-CDF of precomputed
/// cumulative weights (exact, no rejection).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for w in &mut cdf {
            *w /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen::<f64>();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Protocol-level audit: a heavily skewed hot set (Zipf θ = 1.2 over 16
/// blocks, 90% of traffic) drives the CB protocol through thousands of
/// accesses while the independent auditor watches every plan. The stash
/// must stay within its configured bound the whole time.
#[test]
fn zipf_hot_set_keeps_cb_stash_bounded() {
    for &seed in &SEEDS {
        for config in [RingConfig::test_small_cb(), RingConfig::test_small()] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut oram = RingOram::new(config.clone(), seed ^ 0xCB);
            let mut auditor = ProtocolAuditor::new(oram.kind(), config.clone());
            let zipf = Zipf::new(16, 1.2);
            let cold_span = config.real_capacity_blocks() / 2;
            let mut peak_stash = 0usize;
            for _ in 0..2500 {
                let block = if rng.gen_bool(0.9) {
                    zipf.sample(&mut rng) as u64
                } else {
                    16 + rng.gen_range(0..cold_span.max(1))
                };
                let outcome = oram.access(BlockId(block));
                auditor.observe_access(&outcome.plans);
                auditor.observe_stash(oram.stash_len());
                peak_stash = peak_stash.max(oram.stash_len());
            }
            assert!(
                auditor.is_clean(),
                "seed {seed}: {:?}",
                auditor.violations().first()
            );
            assert!(
                peak_stash <= config.stash_capacity,
                "seed {seed}: peak stash {peak_stash} over bound {}",
                config.stash_capacity
            );
            oram.check_invariants();
        }
    }
}

/// System-level audit: CB and ALL run an adversarial working-set workload
/// (tight footprint, high Zipf skew) with every conformance checker
/// enabled, and must finish violation-free with a bounded stash.
#[test]
fn adversarial_workload_is_violation_free_for_cb_schemes() {
    let spec = WorkloadSpec {
        name: "hotset",
        suite: "adversarial",
        mpki: 60.0,
        write_fraction: 0.5,
        locality: LocalityModel::WorkingSet {
            blocks: 24,
            theta: 1.1,
        },
    };
    for scheme in [Scheme::Cb, Scheme::All] {
        for &seed in &SEEDS[..3] {
            let cfg = SystemConfig::test_small(scheme);
            assert!(cfg.verify.enabled, "audit must be on in test presets");
            let stash_capacity = cfg.ring.stash_capacity;
            let traces: Vec<Vec<TraceRecord>> = (0..cfg.cores)
                .map(|c| TraceGenerator::new(spec.clone(), seed, c as u32).take_records(80))
                .collect();
            let mut sim = Simulation::new(cfg, traces);
            sim.set_label(format!("hotset-{scheme:?}-{seed}"));
            let r = sim.run(50_000_000).expect("completes");
            assert!(
                r.violations.is_empty(),
                "{}: first violation: {}",
                r.label,
                r.violations[0]
            );
            let peak = r.protocol.stash_samples.iter().copied().max().unwrap_or(0);
            assert!(
                peak <= stash_capacity,
                "{}: peak stash {peak} over bound {stash_capacity}",
                r.label
            );
        }
    }
}
