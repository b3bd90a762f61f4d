//! The [`ObliviousProtocol`] trait: the pipeline contract every ORAM
//! protocol engine implements.
//!
//! The `string-oram` pipeline never needs to know *which* protocol it is
//! driving. Each stage consumes only three artifacts, and this trait
//! captures exactly that surface:
//!
//! * **plan an access** — position-map lookup expanded into per-level
//!   fetch requests plus any eviction/reshuffle write-backs, returned as
//!   one [`AccessOutcome`] (ordered [`crate::plan::AccessPlan`]s);
//! * **consume fetched blocks into the stash** — implicit in `access`:
//!   the engine owns its stash and exposes occupancy for auditing;
//! * **emit statistics and invariants** — [`ProtocolStats`], fault events,
//!   and a structural self-check.
//!
//! Four engines implement it: [`RingOram`] (serving both the Ring+CB and
//! plain-Ring design points, selected by `RingConfig::y`), the Path ORAM
//! baseline ([`crate::path_oram::PathOram`]) and the Circuit ORAM
//! implementation ([`crate::circuit::CircuitOram`]) — three schedules over
//! one shared engine frame (`crate::plain_tree`), which serves every other
//! method below from a single body. A new protocol plugs in by writing its
//! schedule over the frame and emitting well-formed plans; the pipeline's
//! lowering, transaction tracking, sharding and digesting all come for
//! free, and `sim-verify` audits the plan stream per [`ProtocolKind`].

use crate::circuit::CircuitOram;
use crate::config::RingConfig;
use crate::crypto::BlockCipher;
use crate::faults::{FaultEvent, ResilienceConfig};
use crate::path_oram::PathOram;
use crate::protocol::{AccessOutcome, ProtocolStats, RingOram};
use crate::types::{BlockId, PathId};

/// What a program access does with its block: the trace's two operations,
/// one and the same access on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op<'a> {
    /// Hand back the block's payload, `None` until its first write.
    Read,
    /// Replace the block's payload (exactly `block_bytes` long).
    Write(&'a [u8]),
}

/// The protocol design points the simulator can drive.
///
/// `RingCb` and `Ring` share the [`RingOram`] engine (the Compact Bucket
/// is a configuration of it); `Path` and `Circuit` are distinct engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Ring ORAM with the paper's Compact Bucket (`Y > 0`).
    RingCb,
    /// Plain Ring ORAM: CB substitution disabled (`Y` forced to 0).
    Ring,
    /// Path ORAM (Stefanov et al., CCS'13): full-path read + write-back.
    Path,
    /// Circuit ORAM (Wang et al., CCS'15 lineage): selective-remove read
    /// path plus two deterministic reverse-lexicographic evictions per
    /// access.
    Circuit,
}

impl ProtocolKind {
    /// All four protocols in comparison order (the EXPERIMENTS.md table).
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::RingCb,
        ProtocolKind::Ring,
        ProtocolKind::Path,
        ProtocolKind::Circuit,
    ];

    /// Stable label used in reports, bench JSON and CI matrices.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::RingCb => "ring-cb",
            Self::Ring => "ring",
            Self::Path => "path",
            Self::Circuit => "circuit",
        }
    }

    /// The configuration this design point's engine runs on over `ring`'s
    /// tree: Ring+CB on `ring` as given, plain Ring with `Y = 0`, Path and
    /// Circuit on its `Z`-slot encoding ([`RingConfig::z_slot`]).
    #[must_use]
    pub fn engine_config(self, ring: &RingConfig) -> RingConfig {
        match self {
            Self::RingCb => ring.clone(),
            Self::Ring => RingConfig {
                y: 0,
                ..ring.clone()
            },
            Self::Path | Self::Circuit => ring.z_slot(),
        }
    }

    /// This design point's engine on [`Self::engine_config`]`(ring)`,
    /// seeded with `seed`. Ring pre-loads every bucket it materializes at
    /// `load_factor` ([`RingOram::with_load_factor`]); Path and Circuit
    /// start empty.
    ///
    /// # Panics
    ///
    /// Panics if the engine's configuration is invalid or `load_factor` is
    /// outside `[0, 1]`.
    #[must_use]
    pub fn engine(
        self,
        ring: &RingConfig,
        seed: u64,
        load_factor: f64,
    ) -> Box<dyn ObliviousProtocol> {
        let cfg = self.engine_config(ring);
        match self {
            Self::RingCb | Self::Ring => {
                Box::new(RingOram::with_load_factor(cfg, seed, load_factor))
            }
            Self::Path => Box::new(PathOram::from_ring(cfg, seed)),
            Self::Circuit => Box::new(CircuitOram::new(cfg, seed)),
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The pipeline contract of an ORAM protocol engine.
///
/// An implementor turns logical block accesses into ordered
/// [`crate::plan::AccessPlan`]s (the bus-observable artifact), keeps its
/// own stash/position-map state, and exposes the counters and invariants
/// the pipeline's measurement and verification layers consume.
///
/// Engines are driven single-threaded per instance; `Send` lets the
/// sharded engine move each instance onto its worker thread.
pub trait ObliviousProtocol: std::fmt::Debug + Send {
    /// Which design point this engine instance realizes.
    fn kind(&self) -> ProtocolKind;

    /// The engine's configuration (for Path and Circuit, the `Z`-slot
    /// encoding).
    fn config(&self) -> &RingConfig;

    /// Performs one logical program access — position-map lookup, per-level
    /// fetch planning, stash update, and any eviction/reshuffle write-backs —
    /// and applies `op` to the block. A read's payload comes back as a
    /// borrow of a buffer the engine reuses.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not below `RingOram::PROGRAM_ID_BOUND`, if a write's
    /// data is not exactly `block_bytes` long, or if the engine cannot keep
    /// its stash bounded (an over-full tree).
    fn operate(&mut self, block: BlockId, op: Op<'_>) -> (AccessOutcome, Option<&[u8]>);

    /// [`Self::operate`] with [`Op::Read`], the value dropped: the access
    /// the timing layers plan.
    fn access(&mut self, block: BlockId) -> AccessOutcome {
        self.operate(block, Op::Read).0
    }

    /// Plans one **cover access**: the engine's own access with no target,
    /// on a uniformly drawn path — Ring's dummy read path, Path's read and
    /// write-back, Circuit's read-only read and its two evictions. It
    /// serves no program request, touches no block's mapping, and is
    /// indistinguishable on the bus from the engine's ordinary traffic, so
    /// serving layers use it to fill empty fixed-rate submission slots and
    /// request timing cannot leak through the access stream. Every engine
    /// has one: always `Some`.
    fn cover_access(&mut self) -> Option<AccessOutcome>;

    /// Returns an outcome's buffers to the engine's pools (the zero-alloc
    /// steady-state loop). Dropping an outcome instead is legal; the pools
    /// then refill lazily.
    fn recycle_outcome(&mut self, outcome: AccessOutcome);

    /// Pre-sizes per-access bookkeeping (stash samples; payload boxes once
    /// the program writes) for `n` further accesses: no steady-state growth.
    fn reserve_accesses(&mut self, n: usize);

    /// Enables encryption-at-rest emulation with the fast (insecure)
    /// splitmix keystream: every payload written to the tree is sealed
    /// under `key` with a fresh nonce, and unsealed when it re-enters the
    /// trusted boundary. See [`crate::crypto`].
    fn enable_encryption(&mut self, key: u64);

    /// Enables deterministic transit-fault injection and recovery: every
    /// real block a read path moves into the stash may arrive corrupted and
    /// is re-read up to `cfg.max_retries` times ([`crate::plan::OpKind::RetryRead`]
    /// plans). On Ring the watermarks also drive escalation and degraded
    /// mode.
    ///
    /// The fault schedule is drawn from a dedicated RNG seeded with
    /// `cfg.fault_seed`; it never touches the protocol RNG, so the access
    /// sequence of a faulty run is identical to the fault-free run with the
    /// same protocol seed. Detection of injected corruptions requires
    /// encryption to be enabled (the integrity tag lives in the sealed
    /// format); without a cipher, injected faults are logged but flow on
    /// undetected — which the `sim-verify` fault auditor flags.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ResilienceConfig::validate`] against the
    /// configured stash capacity.
    fn enable_resilience(&mut self, cfg: ResilienceConfig);

    /// Drains the engine's fault-event log (empty when the fault layer is
    /// off or no fault fired since the last drain).
    fn take_fault_events(&mut self) -> Vec<FaultEvent>;

    /// Accumulated protocol statistics.
    fn stats(&self) -> &ProtocolStats;

    /// Current stash occupancy.
    fn stash_len(&self) -> usize;

    /// Peak stash occupancy since creation.
    fn stash_peak(&self) -> usize;

    /// Tree buckets materialized so far (buckets are created on first
    /// touch; a fully materialized tree is the zero-alloc steady state).
    fn materialized_buckets(&self) -> usize;

    /// Verifies the engine's structural invariants (tests/debugging).
    ///
    /// # Panics
    ///
    /// Panics when an invariant is broken — e.g. a mapped block neither in
    /// the stash nor on its assigned path, or an over-full bucket.
    fn check_invariants(&self);

    /// Snapshot of `(block, path)` position-map entries, for cross-shard
    /// residency auditing.
    fn position_entries(&self) -> Vec<(BlockId, PathId)>;
}

/// Implements [`ObliviousProtocol`] for engines that are schedules over a
/// `tree` frame: the engine's `schedule` serves `operate` and
/// `cover_access`; everything else has its one body on the frame.
macro_rules! schedule_over_the_frame {
    ($($engine:ty),*) => {$(
        impl ObliviousProtocol for $engine {
            fn kind(&self) -> ProtocolKind {
                self.tree.kind
            }
            fn config(&self) -> &RingConfig {
                &self.tree.cfg
            }
            fn operate(&mut self, block: BlockId, op: Op<'_>) -> (AccessOutcome, Option<&[u8]>) {
                let (outcome, read) = self.schedule(Some((block, op)));
                (outcome, read.then_some(&self.tree.read_back[..]))
            }
            fn cover_access(&mut self) -> Option<AccessOutcome> {
                Some(self.schedule(None).0)
            }
            fn recycle_outcome(&mut self, outcome: AccessOutcome) {
                self.tree.pool.recycle(outcome.plans);
            }
            fn reserve_accesses(&mut self, n: usize) {
                self.tree.stats.stash_samples.reserve(n);
                self.tree.data.reserved += n;
            }
            fn enable_encryption(&mut self, key: u64) {
                self.tree.data.cipher = Some(BlockCipher::new(key));
            }
            fn enable_resilience(&mut self, cfg: ResilienceConfig) {
                self.tree.enable_resilience(cfg);
            }
            fn take_fault_events(&mut self) -> Vec<FaultEvent> {
                self.tree.data.take_events()
            }
            fn stats(&self) -> &ProtocolStats {
                &self.tree.stats
            }
            fn stash_len(&self) -> usize {
                self.tree.stash.len()
            }
            fn stash_peak(&self) -> usize {
                self.tree.stash.peak()
            }
            fn materialized_buckets(&self) -> usize {
                self.tree.buckets.materialized()
            }
            fn check_invariants(&self) {
                self.tree.check_invariants();
            }
            fn position_entries(&self) -> Vec<(BlockId, PathId)> {
                self.tree.position_map.entries()
            }
        }
    )*};
}

schedule_over_the_frame!(RingOram, PathOram, CircuitOram);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: std::collections::HashSet<&str> =
            ProtocolKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 4);
        assert_eq!(ProtocolKind::RingCb.to_string(), "ring-cb");
        assert_eq!(ProtocolKind::Circuit.to_string(), "circuit");
    }

    #[test]
    fn ring_engine_reports_kind_by_cb_configuration() {
        let cb = RingOram::new(RingConfig::test_small_cb(), 1);
        assert_eq!(ObliviousProtocol::kind(&cb), ProtocolKind::RingCb);
        let plain = RingOram::new(RingConfig::test_small(), 1);
        assert_eq!(ObliviousProtocol::kind(&plain), ProtocolKind::Ring);
    }

    #[test]
    fn ring_engine_supports_cover_accesses() {
        let mut oram: Box<dyn ObliviousProtocol> =
            Box::new(RingOram::new(RingConfig::test_small(), 3));
        let out = oram.cover_access().expect("ring supports cover accesses");
        assert!(!out.plans.is_empty());
        assert!(
            !out.served_from_tree(),
            "cover accesses serve no program data"
        );
        oram.recycle_outcome(out);
        assert_eq!(oram.stats().dummy_read_paths, 1);
        oram.check_invariants();
    }

    #[test]
    fn trait_object_drives_the_ring_engine() {
        let mut oram: Box<dyn ObliviousProtocol> =
            Box::new(RingOram::new(RingConfig::test_small(), 3));
        let out = oram.access(BlockId(5));
        assert!(!out.plans.is_empty());
        oram.recycle_outcome(out);
        assert!(oram.take_fault_events().is_empty());
        assert_eq!(oram.stats().read_paths, 1);
        oram.check_invariants();
    }

    /// Everything an engine exposes that the pipeline's plan digests do not
    /// cover, hashed after 20 000 seeded accesses: the full touch stream
    /// with sources and target indices, every counter and stash sample, the
    /// sorted position map, materialized buckets, stash length and peak.
    fn engine_fingerprint(mut oram: Box<dyn ObliviousProtocol>) -> u64 {
        use oram_rng::{Rng, StdRng};
        use std::hash::Hasher;
        let mut h = crate::fasthash::DetHasher::default();
        let mut blocks = StdRng::seed_from_u64(0xF1A9);
        oram.reserve_accesses(20_000);
        for _ in 0..20_000 {
            let out = oram.access(BlockId(blocks.gen_range(0..300)));
            h.write(format!("{:?}", out.source).as_bytes());
            for plan in &out.plans {
                h.write(plan.kind.label().as_bytes());
                h.write_u64(plan.target_index.map_or(u64::MAX, |i| i as u64));
                for t in &plan.touches {
                    h.write_u64(t.bucket.0);
                    h.write_u32(t.slot);
                    h.write_u32(u32::from(t.write));
                }
            }
            oram.recycle_outcome(out);
        }
        oram.check_invariants();
        h.write(format!("{:?}", oram.stats()).as_bytes());
        let mut entries = oram.position_entries();
        entries.sort();
        for (b, p) in entries {
            h.write_u64(b.0);
            h.write_u64(p.0);
        }
        h.write_usize(oram.materialized_buckets());
        h.write_usize(oram.stash_len());
        h.write_usize(oram.stash_peak());
        h.finish()
    }

    /// Every engine hands back what the program wrote, on a schedule whose
    /// expected bytes are closed-form, so the test keeps no model: every
    /// block is written, each round then reads every block (expecting the
    /// previous round's bytes) and rewrites it, with a cover access every
    /// ninth step, and a last pass reads the final round back. The referee
    /// over random interleavings is `sim_verify::MirrorOracle`. Rows: a
    /// 12-level tree with payloads in the clear, under the cipher, and
    /// under 5 % transit faults that up to six retries recover. Ring runs
    /// long enough for its tree to span three slab chunks; Path and Circuit
    /// move a whole path of payloads per access and run one round.
    #[test]
    fn mirror_oracle_holds_on_every_engine() {
        use crate::bucket::CHUNK_ROWS;
        const BLOCKS: u64 = 500;
        let ring = RingConfig {
            levels: 12,
            ..RingConfig::test_small_cb()
        };
        let payload = |block: u64, round: u64, bytes: usize| -> Vec<u8> {
            (0..bytes)
                .map(|i| (round * 31 + block * 7 + i as u64) as u8)
                .collect()
        };
        type Setup = fn(&mut dyn ObliviousProtocol);
        let variants: [(&str, Setup); 3] = [
            ("plain", |_| {}),
            ("splitmix", |o| o.enable_encryption(0x5EA1)),
            ("splitmix + faults", |o| {
                o.enable_encryption(0xF417);
                let mut r = ResilienceConfig::for_stash(o.config().stash_capacity);
                r.bit_flip_rate = 0.05;
                r.max_retries = 6;
                o.enable_resilience(r);
            }),
        ];
        for kind in ProtocolKind::ALL {
            for (name, setup) in variants {
                let mut o = kind.engine(&ring, 31, 0.5);
                setup(o.as_mut());
                let bytes = o.config().block_bytes as usize;
                let ring_engine = matches!(kind, ProtocolKind::RingCb | ProtocolKind::Ring);
                let rounds = if ring_engine { 2 } else { 1 };
                for b in 0..BLOCKS {
                    let out = o.operate(BlockId(b), Op::Write(&payload(b, 0, bytes))).0;
                    o.recycle_outcome(out);
                }
                for round in 1..=rounds + 1 {
                    for i in 0..BLOCKS {
                        let b = (i * 7 + round) % BLOCKS;
                        let want = payload(b, round - 1, bytes);
                        let (out, got) = o.operate(BlockId(b), Op::Read);
                        assert_eq!(
                            got,
                            Some(&want[..]),
                            "{kind} {name}: round {round}, block {b}"
                        );
                        o.recycle_outcome(out);
                        if round <= rounds {
                            let data = payload(b, round, bytes);
                            let out = o.operate(BlockId(b), Op::Write(&data)).0;
                            o.recycle_outcome(out);
                        }
                        if i % 9 == 0 {
                            let out = o.cover_access().expect("every engine has cover accesses");
                            o.recycle_outcome(out);
                        }
                    }
                }
                let s = o.stats();
                if ring_engine {
                    assert!(
                        o.materialized_buckets() > 2 * CHUNK_ROWS,
                        "{kind} {name}: {} buckets span fewer than three chunks",
                        o.materialized_buckets()
                    );
                }
                if kind == ProtocolKind::RingCb {
                    assert!(s.greens_fetched > 0, "{kind} {name}: CB moved no green");
                }
                if name != "plain" {
                    assert!(s.encryptions > 0 && s.decryptions > 0, "{kind} {name}");
                }
                if name.ends_with("faults") {
                    assert!(s.faults_recovered > 0, "{kind} {name}: no fault to recover");
                    assert_eq!(s.faults_unrecovered, 0, "{kind} {name}");
                }
                o.check_invariants();
            }
        }
    }

    /// Whether the program has written a block must not reach the bus: the
    /// transit-fault schedule, and with it every retry plan, is the same
    /// whether every third access writes or only reads, on every engine.
    #[test]
    fn payloads_do_not_move_the_fault_schedule() {
        use crate::plan::OpKind;
        use oram_rng::{Rng, StdRng};
        let run = |kind: ProtocolKind, writes: bool| {
            let mut o = kind.engine(&RingConfig::test_small_cb(), 7, 0.5);
            o.enable_encryption(0x5EA1);
            let mut r = ResilienceConfig::for_stash(o.config().stash_capacity);
            r.bit_flip_rate = 0.05;
            r.max_retries = 6;
            o.enable_resilience(r);
            let data = vec![0xA5; o.config().block_bytes as usize];
            let mut blocks = StdRng::seed_from_u64(0xFA17);
            let mut log = Vec::new();
            for i in 0..2_000 {
                let block = BlockId(blocks.gen_range(0..300));
                let op = if writes && i % 3 == 0 {
                    Op::Write(&data)
                } else {
                    Op::Read
                };
                let (out, _) = o.operate(block, op);
                log.extend(out.plans.iter().map(|p| (p.kind, p.touches.clone())));
                o.recycle_outcome(out);
            }
            (log, o.take_fault_events(), o.stats().faults_injected)
        };
        for kind in ProtocolKind::ALL {
            let (plans, faults, injected) = run(kind, true);
            assert!(injected > 0, "{kind}: no fault injected");
            assert!(plans.iter().any(|(k, _)| *k == OpKind::RetryRead), "{kind}");
            let (read_plans, read_faults, _) = run(kind, false);
            assert!(plans == read_plans, "{kind}: the plan streams diverge");
            assert_eq!(faults, read_faults, "{kind}");
        }
    }

    /// The eight values were recorded on the commit before Path and Circuit
    /// moved onto the shared plain-tree frame (and before the bucket tree
    /// and plan pool were shared with Ring); the engines are held to them.
    #[test]
    fn engine_fingerprints_match_the_recorded_values() {
        const RECORDED: [(ProtocolKind, [u64; 2]); 4] = [
            (
                ProtocolKind::RingCb,
                [0x9AC6_14FA_0D6B_9DF1, 0xDDB4_71FC_2515_05B8],
            ),
            (
                ProtocolKind::Ring,
                [0xE008_9DE3_8CBF_32AB, 0x0AC8_3DD8_FB81_523D],
            ),
            (
                ProtocolKind::Path,
                [0x873E_28AD_0570_14A4, 0xDEDA_DBEA_3DAD_64EB],
            ),
            (
                ProtocolKind::Circuit,
                [0x888E_8736_8215_354F, 0x9A6F_4B6A_0C8F_B73D],
            ),
        ];
        for (kind, recorded) in RECORDED {
            for (cached, want) in [0, 3].into_iter().zip(recorded) {
                let ring = RingConfig {
                    levels: 10,
                    tree_top_cached_levels: cached,
                    ..RingConfig::test_small_cb()
                };
                let oram = kind.engine(&ring, 11, RingOram::DEFAULT_LOAD_FACTOR);
                assert_eq!(oram.kind(), kind);
                let got = engine_fingerprint(oram);
                assert_eq!(got, want, "{kind} cached={cached}: 0x{got:016X}");
            }
        }
    }
}
