//! Ablation — Ring ORAM vs Path ORAM bandwidth (the claim String ORAM
//! builds on: Ring ORAM cuts overall bandwidth 2.3–4x and online
//! bandwidth far more, Ren et al. [17]).

use ring_oram::{BlockId, PathOram, RingConfig, RingOram};
use string_oram_bench::{print_header, print_row};

fn main() {
    let accesses = 4000u64;
    let working_set = 1u64 << 12;

    // Path ORAM with the standard Z=4 over the paper-sized tree.
    let path_cfg = RingConfig {
        z: 4,
        ..RingConfig::hpca_default()
    }
    .z_slot();
    let mut path = PathOram::from_ring(path_cfg, 3);
    let mut path_total = 0u64;
    for i in 0..accesses {
        let out = path.access(BlockId(i % working_set));
        path_total += out
            .plans
            .iter()
            .map(|p| (p.reads() + p.writes()) as u64)
            .sum::<u64>();
        path.recycle_outcome(out);
    }
    let path_online: u64 = 4 * (24 - 6); // Z blocks per off-chip level

    // Ring ORAM with the paper's bandwidth-optimal Z=8/S=12/A=8.
    let mut ring = RingOram::new(RingConfig::hpca_baseline(), 3);
    let mut ring_total = 0u64;
    for i in 0..accesses {
        let out = ring.access(BlockId(i % working_set));
        ring_total += out
            .plans
            .iter()
            .map(|p| (p.reads() + p.writes()) as u64)
            .sum::<u64>();
    }
    let ring_online: u64 = 24 - 6; // 1 block per off-chip level

    print_header("Ablation: Ring ORAM vs Path ORAM bandwidth (L=23, 6 cached levels)");
    print_row(
        "scheme",
        ["blocks/access", "online blocks", "total x64B KiB/access"]
            .map(String::from)
            .as_ref(),
    );
    let per = |t: u64| t as f64 / accesses as f64;
    print_row(
        "Path ORAM",
        &[
            format!("{:.1}", per(path_total)),
            path_online.to_string(),
            format!("{:.1}", per(path_total) * 64.0 / 1024.0),
        ],
    );
    print_row(
        "Ring ORAM",
        &[
            format!("{:.1}", per(ring_total)),
            ring_online.to_string(),
            format!("{:.1}", per(ring_total) * 64.0 / 1024.0),
        ],
    );
    let overall = per(path_total) / per(ring_total);
    let online = path_online as f64 / ring_online as f64;
    println!(
        "\nOverall bandwidth advantage: {overall:.2}x; online advantage: {online:.1}x. \
         Paper reference ([17]): 2.3-4x overall; online >> (with the XOR trick \
         Ring ORAM's online cost drops to ~1 block, which we do not model)."
    );
    assert!(overall > 1.0, "Ring ORAM must win overall");
}
