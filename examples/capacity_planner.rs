//! Capacity planner: size an ORAM deployment with the paper's space model.
//!
//! Given a desired protected capacity, prints what each Ring ORAM
//! configuration (the paper's Fig. 4 sweep) actually costs in physical
//! memory, and how much the Compact Bucket claws back (Table V), including
//! the physical footprint after subtree-layout padding.
//!
//! Run with: `cargo run --release --example capacity_planner`

use ring_oram::layout::TreeLayout;
use ring_oram::RingConfig;
use string_oram::space::{fig4_rows, table5_rows};

fn main() {
    println!("Ring ORAM capacity planning, L = 23 (16.7M buckets), 64 B blocks");
    println!("\n-- Bandwidth-optimal configurations (paper Fig. 4) --");
    println!(
        "{:<10} {:>4} {:>4} {:>4} {:>10} {:>11} {:>10} {:>11}",
        "config", "Z", "A", "S", "real GiB", "dummy GiB", "total GiB", "efficiency"
    );
    for row in fig4_rows() {
        println!(
            "{:<10} {:>4} {:>4} {:>4} {:>10.1} {:>11.1} {:>10.1} {:>10.1}%",
            row.label,
            row.z,
            row.a,
            row.s,
            row.real_gib(),
            row.dummy_gib(),
            row.total_gib(),
            row.efficiency() * 100.0
        );
    }

    println!("\n-- Compact Bucket savings on the default tree (paper Table V) --");
    println!(
        "{:<10} {:>4} {:>10} {:>10} {:>12} {:>14}",
        "config", "Y", "total GiB", "dummy %", "layout GiB", "vs baseline"
    );
    let baseline_layout = layout_gib(&RingConfig::table5_config(0));
    for (i, row) in table5_rows().iter().enumerate() {
        let cfg = RingConfig::table5_config(i as u32);
        let layout = layout_gib(&cfg);
        println!(
            "{:<10} {:>4} {:>10.1} {:>9.1}% {:>12.1} {:>13.1}%",
            row.label,
            row.y,
            row.total_gib(),
            row.dummy_percentage() * 100.0,
            layout,
            (1.0 - layout / baseline_layout) * 100.0
        );
    }

    println!(
        "\nThe Y = 8 Compact Bucket stores the same 8 GiB of real data in 12 GiB \
         of blocks instead of 20 GiB — the paper's 'up to 40% memory space' saving. \
         The physical footprint column includes subtree-layout alignment padding \
         on the paper's 4-channel DDR3 module (16 KiB row sets)."
    );
}

fn layout_gib(cfg: &RingConfig) -> f64 {
    let layout = TreeLayout::subtree(cfg, 16384);
    layout.total_bytes() as f64 / (1u64 << 30) as f64
}
