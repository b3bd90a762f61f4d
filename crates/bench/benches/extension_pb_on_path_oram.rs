//! Extension — broader applicability (paper §VII-F): the Proactive Bank
//! scheduler applied to *Path ORAM* traffic.
//!
//! PB is protocol-agnostic: it needs only transaction-tagged requests. Path
//! ORAM's full-path read+write transactions have high row locality under
//! the subtree layout (few inter-transaction conflicts to hide), so PB's
//! benefit should be smaller than on Ring ORAM's conflict-heavy selective
//! reads — quantifying exactly why the paper pairs PB with Ring ORAM.

use dram_sim::geometry::DramGeometry;
use dram_sim::timing::TimingParams;
use dram_sim::{AddressMapping, DramModule, PhysAddr};
use mem_sched::{MemoryController, RequestSpec, SchedulerPolicy, TxnId};
use ring_oram::layout::TreeLayout;
use ring_oram::{BlockId, PathOram, RingConfig, RingOram};
use string_oram_bench::{accesses_per_core, print_header, print_row};

/// Drives pre-planned transactions through a memory controller; returns the
/// completion cycle of the last request.
fn drive(policy: SchedulerPolicy, txns: &[Vec<(u64, bool)>]) -> (u64, f64, f64) {
    let geometry = DramGeometry::hpca_default();
    let mapping = AddressMapping::hpca_default(&geometry);
    let dram = DramModule::new(geometry, TimingParams::ddr3_1600());
    let mut ctrl = MemoryController::new(dram, mapping, policy, 64);
    let mut cycle = 0u64;
    let mut finish = 0u64;
    let mut pending: std::collections::VecDeque<(u64, RequestSpec)> = txns
        .iter()
        .enumerate()
        .flat_map(|(t, reqs)| {
            reqs.iter().map(move |&(addr, is_write)| {
                (
                    t as u64,
                    RequestSpec {
                        addr: PhysAddr(addr),
                        is_write,
                        txn: TxnId(t as u64),
                    },
                )
            })
        })
        .collect();
    loop {
        while let Some(&(_, spec)) = pending.front() {
            if ctrl.try_enqueue(spec, cycle).is_ok() {
                pending.pop_front();
            } else {
                break;
            }
        }
        if ctrl.pending() == 0 && pending.is_empty() {
            break;
        }
        ctrl.tick(cycle);
        for d in ctrl.drain_completed() {
            finish = finish.max(d.data_done_at);
        }
        cycle += 1;
        assert!(cycle < 1_000_000_000, "wedged");
    }
    let s = ctrl.stats();
    (finish, s.conflict_rate(), s.early_precharge_fraction())
}

fn main() {
    let accesses = accesses_per_core();
    print_header(&format!(
        "Extension: PB on Path ORAM vs Ring ORAM traffic ({accesses} accesses)"
    ));
    print_row(
        "traffic",
        ["finish", "PB finish", "PB saving", "conflict", "early PRE"]
            .map(String::from)
            .as_ref(),
    );

    // Path ORAM transactions: full path read + write per access.
    let ring_equiv = RingConfig {
        levels: 18,
        tree_top_cached_levels: 4,
        ..RingConfig::hpca_baseline()
    };
    // A Path ORAM bucket is exactly Z slots, for the engine and the layout.
    let path_cfg = RingConfig {
        z: 4,
        ..ring_equiv.clone()
    }
    .z_slot();
    let path_layout = TreeLayout::subtree(&path_cfg, 16384);
    let mut path = PathOram::from_ring(path_cfg, 3);
    let mut path_txns = Vec::new();
    for i in 0..accesses as u64 {
        let out = path.access(BlockId(i % 4096));
        for plan in &out.plans {
            path_txns.push(
                plan.touches
                    .iter()
                    .map(|t| (path_layout.addr_of(t.bucket, t.slot), t.write))
                    .collect::<Vec<_>>(),
            );
        }
        path.recycle_outcome(out);
    }

    // Ring ORAM transactions at the same tree height.
    let ring_layout = TreeLayout::subtree(&ring_equiv, 16384);
    let mut ring = RingOram::new(ring_equiv, 3);
    let mut ring_txns = Vec::new();
    for i in 0..accesses as u64 {
        for plan in ring.access(BlockId(i % 4096)).plans {
            ring_txns.push(
                plan.touches
                    .iter()
                    .map(|t| (ring_layout.addr_of(t.bucket, t.slot), t.write))
                    .collect::<Vec<_>>(),
            );
        }
    }

    for (label, txns) in [("path-oram", &path_txns), ("ring-oram", &ring_txns)] {
        let (base, conflict, _) = drive(SchedulerPolicy::TransactionBased, txns);
        let (pb, _, early) = drive(SchedulerPolicy::proactive(), txns);
        print_row(
            label,
            &[
                base.to_string(),
                pb.to_string(),
                format!("{:.1}%", (1.0 - pb as f64 / base as f64) * 100.0),
                format!("{:.1}%", conflict * 100.0),
                format!("{:.1}%", early * 100.0),
            ],
        );
    }
    println!(
        "\nExpected shape: Path ORAM's full-path transactions are row-friendly \
         (low conflict rate), leaving PB little to hide; Ring ORAM's selective \
         reads conflict heavily and PB pays off — the paper's rationale for \
         pairing PB with Ring ORAM, quantified."
    );
}
