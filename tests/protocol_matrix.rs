//! Cross-protocol differential matrix: every protocol the pipeline knows
//! (Ring+CB, plain Ring, Path, Circuit) must run end-to-end through both
//! the unsharded [`Simulation`] and the [`ShardedSimulation`], over both
//! memory backends, with zero conformance violations — and each produces a
//! pinned, protocol-distinct golden access digest.
//!
//! The golden pins serve two purposes:
//!
//! * **Bit-invisibility of the trait refactor** — the Ring+CB digest here
//!   is the same constant `shard_differential` pins; routing the engine
//!   through `dyn ObliviousProtocol` must not move a single address.
//! * **Protocol identity** — the four digests are pairwise distinct, so a
//!   config-plumbing bug that silently runs the wrong engine (e.g. `Path`
//!   falling back to Ring) fails loudly instead of vacuously passing.
//!
//! A seeded stash-occupancy property test rides along: Path and Circuit
//! ORAM stash peaks must stay within the small constant bounds the papers
//! prove (Stefanov et al. for Path, Wang et al. for Circuit) over a long
//! random workload — the empirical check that our eviction procedures are
//! the ones the bounds are proved for.

use ring_oram::{BlockId, CircuitOram, ObliviousProtocol, PathOram, ProtocolKind, RingConfig};
use string_oram::{BackendKind, Scheme, ShardedSimulation, Simulation, SystemConfig};
use trace_synth::{by_name, TraceGenerator, TraceRecord};

/// Golden digests for the canonical run (`test_small`, ALL scheme, one
/// core, workload `black`, trace seed 11, 200 records): per protocol, the
/// unsharded digest (which the one-shard merged digest must also equal)
/// and the four-shard merged digest.
///
/// The Ring+CB row must stay in lockstep with `shard_differential`'s
/// `GOLDEN_DIGEST` — both pin the same machine. To regenerate after an
/// *intentional* protocol change, run the ignored `print_golden_digests`
/// test below with `--ignored --nocapture`.
const GOLDEN: [(ProtocolKind, u64, u64); 4] = [
    (
        ProtocolKind::RingCb,
        0x8FEF_A689_12F2_C2F5,
        0xE0A9_729E_66A7_C001,
    ),
    (
        ProtocolKind::Ring,
        0x0235_AE47_9E4F_DF7D,
        0xFD8F_219C_6FEC_C2BC,
    ),
    (
        ProtocolKind::Path,
        0x2716_F910_C160_FDEB,
        0x01D2_D800_3536_9715,
    ),
    (
        ProtocolKind::Circuit,
        0x24AA_6473_F951_AB26,
        0x9612_44D5_D52D_8400,
    ),
];

fn canonical_cfg(protocol: ProtocolKind, shards: usize, backend: BackendKind) -> SystemConfig {
    let mut cfg = SystemConfig::test_small(Scheme::All);
    cfg.protocol = protocol;
    cfg.cores = 1;
    cfg.shards = shards;
    cfg.backend = backend;
    cfg
}

fn canonical_trace() -> Vec<Vec<TraceRecord>> {
    vec![TraceGenerator::new(by_name("black").unwrap(), 11, 0).take_records(200)]
}

fn run_unsharded(protocol: ProtocolKind, backend: BackendKind) -> Simulation {
    let mut sim = Simulation::new(canonical_cfg(protocol, 1, backend), canonical_trace());
    sim.set_label(format!("matrix-{protocol}"));
    sim.run(50_000_000).expect("unsharded run completes");
    sim
}

fn run_sharded(protocol: ProtocolKind, shards: usize, backend: BackendKind) -> ShardedSimulation {
    let mut sim =
        ShardedSimulation::new(canonical_cfg(protocol, shards, backend), canonical_trace());
    sim.set_label(format!("matrix-{protocol}-{shards}"));
    sim.run(50_000_000).expect("sharded run completes");
    sim
}

/// The matrix pin: per protocol, the unsharded digest, the one-shard
/// merged digest and the four-shard merged digest all sit on their golden
/// values, and every run is conformance-clean (the `test_small` preset
/// runs the full `sim-verify` checker stack).
#[test]
fn golden_digests_are_pinned_per_protocol() {
    for (protocol, unsharded_golden, four_shard_golden) in GOLDEN {
        let sim = run_unsharded(protocol, BackendKind::CycleAccurate);
        assert_eq!(
            sim.access_digest(),
            unsharded_golden,
            "{protocol}: unsharded digest moved off the golden value: 0x{:016X}",
            sim.access_digest()
        );
        assert!(
            sim.report().violations.is_empty(),
            "{protocol}: unsharded violations: {:?}",
            sim.report().violations
        );

        let one = run_sharded(protocol, 1, BackendKind::CycleAccurate);
        assert_eq!(
            one.merged_digest(),
            unsharded_golden,
            "{protocol}: one-shard merged digest diverges from unsharded: 0x{:016X}",
            one.merged_digest()
        );

        let four = run_sharded(protocol, 4, BackendKind::CycleAccurate);
        assert_eq!(
            four.merged_digest(),
            four_shard_golden,
            "{protocol}: four-shard merged digest moved off the golden value: 0x{:016X}",
            four.merged_digest()
        );
        assert!(
            four.report().violations.is_empty(),
            "{protocol}: sharded violations: {:?}",
            four.report().violations
        );
    }
}

/// The four protocols are genuinely different machines: pairwise-distinct
/// digests, or the pins above would not catch a protocol-selection bug.
#[test]
fn protocols_produce_distinct_digests() {
    for (i, a) in GOLDEN.iter().enumerate() {
        for b in &GOLDEN[i + 1..] {
            assert_ne!(a.1, b.1, "{} and {} share an unsharded digest", a.0, b.0);
            assert_ne!(a.2, b.2, "{} and {} share a four-shard digest", a.0, b.0);
        }
    }
}

/// Backend independence holds for every protocol: the planner never sees
/// timing, so the cycle-accurate and fast functional backends observe the
/// same access sequence — unsharded and merged across four shards.
#[test]
fn backends_agree_for_every_protocol() {
    for (protocol, ..) in GOLDEN {
        let slow = run_unsharded(protocol, BackendKind::CycleAccurate);
        let fast = run_unsharded(protocol, BackendKind::FastFunctional);
        assert_eq!(
            slow.access_digest(),
            fast.access_digest(),
            "{protocol}: unsharded backends diverge"
        );
        assert_eq!(slow.oram_accesses(), fast.oram_accesses());
        assert!(fast.report().violations.is_empty(), "{protocol}");

        let slow4 = run_sharded(protocol, 4, BackendKind::CycleAccurate);
        let fast4 = run_sharded(protocol, 4, BackendKind::FastFunctional);
        assert_eq!(
            slow4.merged_digest(),
            fast4.merged_digest(),
            "{protocol}: sharded backends diverge"
        );
        assert_eq!(slow4.shard_digests(), fast4.shard_digests(), "{protocol}");
    }
}

/// The sharded residency invariant is protocol-agnostic: after a four-shard
/// run of each protocol, no block is resident in two shards and none is
/// routed to the wrong shard.
#[test]
fn cross_shard_residency_is_clean_for_every_protocol() {
    for (protocol, ..) in GOLDEN {
        let sim = run_sharded(protocol, 4, BackendKind::FastFunctional);
        let violations = sim.check_cross_shard();
        assert!(
            violations.is_empty(),
            "{protocol}: cross-shard residency violations: {violations:?}"
        );
    }
}

/// Seeded stash-occupancy property: over 100k uniformly random accesses,
/// the Path ORAM stash peak stays within the constant bound of Stefanov et
/// al. (Z=4 ⇒ overflow probability decays exponentially past a few tens of
/// blocks) and Circuit ORAM's deterministic two-pass eviction keeps its
/// stash similarly small (Wang et al. prove O(1) w.h.p.). A peak beyond
/// these margins means the eviction procedure is no longer the one the
/// bounds are proved for.
#[test]
fn path_and_circuit_stash_peaks_stay_within_paper_bounds() {
    const ACCESSES: u64 = 100_000;
    let cfg = RingConfig {
        levels: 10,
        stash_capacity: 500,
        ..RingConfig::test_small()
    }
    .z_slot();
    // Half-full tree: 2^(levels-1) leaves * Z gives capacity headroom.
    let working_set = 1u64 << (cfg.levels - 1);

    let mut path = PathOram::from_ring(cfg.clone(), 0xA5A5);
    let mut rng_state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |modulus: u64| {
        // SplitMix64: deterministic, seedable, no external crates.
        rng_state = rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % modulus
    };
    for _ in 0..ACCESSES {
        let out = path.access(BlockId(next(working_set)));
        path.recycle_outcome(out);
    }
    assert!(
        path.stash_peak() <= 64,
        "Path ORAM stash peak {} exceeds the paper bound margin",
        path.stash_peak()
    );

    let mut circuit = CircuitOram::new(cfg, 0x5A5A);
    for _ in 0..ACCESSES {
        let out = circuit.access(BlockId(next(working_set)));
        circuit.recycle_outcome(out);
    }
    assert!(
        circuit.stash_peak() <= 64,
        "Circuit ORAM stash peak {} exceeds the paper bound margin",
        circuit.stash_peak()
    );
}

/// Regeneration helper (not part of the suite): prints the digest table to
/// paste into `GOLDEN` after an intentional protocol change.
#[test]
#[ignore = "regeneration helper, run with --ignored --nocapture"]
fn print_golden_digests() {
    for (protocol, ..) in GOLDEN {
        let unsharded = run_unsharded(protocol, BackendKind::CycleAccurate);
        let four = run_sharded(protocol, 4, BackendKind::CycleAccurate);
        println!(
            "    (ProtocolKind::{protocol:?}, 0x{:016X}, 0x{:016X}),",
            unsharded.access_digest(),
            four.merged_digest()
        );
    }
}
