//! Fig. 13 — CB sensitivity: execution time and green blocks fetched per
//! read for Y = 0 (baseline), 2, 4, 6, 8, both CB-only and CB+PB.
//!
//! Paper: CB alone improves 2.02%..11.72% from Y=2..8; with PB the total
//! improvement grows 20.79%..30.05%. Greens fetched per read: 0.167,
//! 0.652, 1.638, 3.255 for Y = 2, 4, 6, 8 (stash 500, no background
//! eviction triggered).
//!
//! Greens/read is measured over the **second half** of each run: a bucket
//! at tree level `l` only reaches its shuffle steady state after ~2^l
//! evictions, so early accesses under-count green availability.

use string_oram::{Scheme, Simulation, SystemConfig};
use string_oram_bench::{
    accesses_per_core, geomean, print_header, print_row, traces_for, workload_names,
};

/// Runs to completion, returning (total cycles, second-half greens/read).
fn run_with_green_window(cfg: SystemConfig, workload: &str, n: usize) -> (u64, f64) {
    let traces = traces_for(&cfg, workload, n, 0xBEEF);
    let total_accesses = (n * cfg.cores) as u64;
    let mut sim = Simulation::new(cfg, traces);
    // Step to the halfway point, snapshot, then finish.
    while sim.oram_accesses() < total_accesses / 2 && !sim.is_finished() {
        sim.step();
    }
    let mid_greens = sim.protocol().stats().greens_fetched;
    let mid_reads = sim.protocol().stats().read_paths;
    while !sim.is_finished() {
        sim.step();
    }
    let end = sim.report();
    let d_greens = end.protocol.greens_fetched - mid_greens;
    let d_reads = end.protocol.read_paths - mid_reads;
    let greens = if d_reads == 0 {
        0.0
    } else {
        d_greens as f64 / d_reads as f64
    };
    (end.total_cycles, greens)
}

fn main() {
    let n = accesses_per_core();
    let ys = [0u32, 2, 4, 6, 8];
    print_header(&format!(
        "Fig. 13: CB compact-rate sensitivity (geomean over 3 workloads), {n} accesses/core"
    ));
    print_row(
        "Y",
        ["CB time", "CB+PB time", "greens/read"]
            .map(String::from)
            .as_ref(),
    );
    // A 3-workload panel keeps the 33-run sweep affordable; the paper
    // itself notes workload insensitivity.
    let panel: Vec<&str> = workload_names().into_iter().take(3).collect();
    let mut base_cycles = Vec::new();
    for w in &panel {
        let cfg = SystemConfig::hpca_default(Scheme::Baseline);
        base_cycles.push(run_with_green_window(cfg, w, n).0 as f64);
    }
    for y in ys {
        let mut cb_norm = Vec::new();
        let mut all_norm = Vec::new();
        let mut greens = Vec::new();
        for (i, w) in panel.iter().enumerate() {
            let mut cfg = SystemConfig::hpca_default(Scheme::Cb);
            cfg.ring.y = y;
            let (cycles, g) = run_with_green_window(cfg, w, n);
            cb_norm.push(cycles as f64 / base_cycles[i]);
            greens.push(g);

            let mut cfg = SystemConfig::hpca_default(Scheme::All);
            cfg.ring.y = y;
            let (cycles, _) = run_with_green_window(cfg, w, n);
            all_norm.push(cycles as f64 / base_cycles[i]);
        }
        print_row(
            &y.to_string(),
            &[
                format!("{:.3}", geomean(&cb_norm)),
                format!("{:.3}", geomean(&all_norm)),
                format!("{:.3}", greens.iter().sum::<f64>() / greens.len() as f64),
            ],
        );
    }
    println!(
        "\nPaper reference: CB 0.980/0.961/0.928/0.883 for Y=2/4/6/8; CB+PB \
         0.792..0.700; greens/read 0.167/0.652/1.638/3.255. Greens/read \
         converges from below with run length — raise STRING_ORAM_ACCESSES \
         for deeper tree levels to reach shuffle steady state."
    );
}
