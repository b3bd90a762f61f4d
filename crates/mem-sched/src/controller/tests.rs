use super::*;
use crate::request::RowClass;
use dram_sim::geometry::DramGeometry;
use dram_sim::timing::TimingParams;
use dram_sim::PhysAddr;

fn controller(policy: SchedulerPolicy) -> MemoryController {
    let geometry = DramGeometry::test_small();
    let mapping = AddressMapping::hpca_default(&geometry);
    let dram = DramModule::new(geometry, TimingParams::test_fast());
    MemoryController::new(dram, mapping, policy, 16)
}

/// Builds an address that decodes to the given coordinates.
fn addr(c: &MemoryController, channel: u32, bank: u32, row: u64, column: u32) -> PhysAddr {
    c.mapping.encode(&dram_sim::DramLocation {
        channel,
        rank: 0,
        bank,
        row,
        column,
    })
}

fn run_until_done(c: &mut MemoryController, start: u64, limit: u64) -> (Vec<Completed>, u64) {
    let mut out = Vec::new();
    let mut cycle = start;
    while c.pending() > 0 {
        c.tick(cycle);
        out.extend(c.drain_completed());
        cycle += 1;
        assert!(cycle < start + limit, "scheduler wedged");
    }
    (out, cycle)
}

#[test]
fn single_read_completes() {
    let mut c = controller(SchedulerPolicy::TransactionBased);
    let a = addr(&c, 0, 0, 3, 1);
    c.try_enqueue(
        RequestSpec {
            addr: a,
            is_write: false,
            txn: TxnId(0),
        },
        0,
    )
    .unwrap();
    let (done, _) = run_until_done(&mut c, 0, 200);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].class, RowClass::Miss); // cold bank
    assert!(done[0].data_done_at > 0);
}

#[test]
fn same_row_requests_hit() {
    let mut c = controller(SchedulerPolicy::TransactionBased);
    for col in 0..3 {
        c.try_enqueue(
            RequestSpec {
                addr: addr(&c, 0, 0, 3, col),
                is_write: false,
                txn: TxnId(0),
            },
            0,
        )
        .unwrap();
    }
    let (done, _) = run_until_done(&mut c, 0, 400);
    let hits = done.iter().filter(|d| d.class == RowClass::Hit).count();
    let misses = done.iter().filter(|d| d.class == RowClass::Miss).count();
    assert_eq!(misses, 1);
    assert_eq!(hits, 2);
}

#[test]
fn conflicting_rows_classified_as_conflict() {
    let mut c = controller(SchedulerPolicy::TransactionBased);
    c.try_enqueue(
        RequestSpec {
            addr: addr(&c, 0, 0, 3, 0),
            is_write: false,
            txn: TxnId(0),
        },
        0,
    )
    .unwrap();
    c.try_enqueue(
        RequestSpec {
            addr: addr(&c, 0, 0, 9, 0),
            is_write: false,
            txn: TxnId(0),
        },
        0,
    )
    .unwrap();
    let (done, _) = run_until_done(&mut c, 0, 500);
    let classes: Vec<RowClass> = done.iter().map(|d| d.class).collect();
    assert!(classes.contains(&RowClass::Miss));
    assert!(classes.contains(&RowClass::Conflict));
}

#[test]
fn transactions_issue_in_order() {
    let mut c = controller(SchedulerPolicy::TransactionBased);
    // Transaction 1 is a fast row hit candidate; transaction 0 is a
    // conflict-heavy one. Ordering must still be 0 before 1.
    c.try_enqueue(
        RequestSpec {
            addr: addr(&c, 0, 0, 3, 0),
            is_write: false,
            txn: TxnId(0),
        },
        0,
    )
    .unwrap();
    c.try_enqueue(
        RequestSpec {
            addr: addr(&c, 0, 1, 5, 0),
            is_write: false,
            txn: TxnId(1),
        },
        0,
    )
    .unwrap();
    let (done, _) = run_until_done(&mut c, 0, 500);
    assert_eq!(done.len(), 2);
    let t0 = done.iter().find(|d| d.txn == TxnId(0)).unwrap();
    let t1 = done.iter().find(|d| d.txn == TxnId(1)).unwrap();
    assert!(
        t0.issue_at < t1.issue_at,
        "txn 0 data must be issued before txn 1 data"
    );
}

#[test]
fn pb_pulls_pre_act_forward() {
    // Transaction 0 occupies bank 0 with a long conflict chain while
    // transaction 1 wants bank 1 (inter-transaction conflict after a
    // previous row was opened there).
    let mk = |policy| {
        let mut c = controller(policy);
        // Pre-open a wrong row in bank 1 via a txn-0 request, then keep
        // txn 0 busy in bank 0.
        let reqs = [
            (addr(&c, 0, 1, 7, 0), TxnId(0)), // opens bank1 row7
            (addr(&c, 0, 0, 1, 0), TxnId(0)),
            (addr(&c, 0, 0, 2, 0), TxnId(0)), // conflict in bank0
            (addr(&c, 0, 0, 3, 0), TxnId(0)), // conflict in bank0
            (addr(&c, 0, 1, 9, 0), TxnId(1)), // future: bank1 row9 conflict
        ];
        for (a, t) in reqs {
            c.try_enqueue(
                RequestSpec {
                    addr: a,
                    is_write: false,
                    txn: t,
                },
                0,
            )
            .unwrap();
        }
        let (done, end) = run_until_done(&mut c, 0, 2000);
        let early = c.stats().early_precharges + c.stats().early_activates;
        (done, end, early)
    };
    let (done_base, end_base, early_base) = mk(SchedulerPolicy::TransactionBased);
    let (done_pb, end_pb, early_pb) = mk(SchedulerPolicy::proactive());
    assert_eq!(early_base, 0);
    assert!(early_pb > 0, "PB must issue some PRE/ACT early");
    assert!(
        end_pb <= end_base,
        "PB must not be slower: {end_pb} vs {end_base}"
    );
    // Row-buffer classification identical under both schedulers.
    let count = |v: &[Completed], cl: RowClass| v.iter().filter(|d| d.class == cl).count();
    for cl in [RowClass::Hit, RowClass::Miss, RowClass::Conflict] {
        assert_eq!(
            count(&done_base, cl),
            count(&done_pb, cl),
            "class {cl:?} count changed under PB"
        );
    }
    // Data commands remain transaction-ordered under PB.
    let t0_max = done_pb
        .iter()
        .filter(|d| d.txn == TxnId(0))
        .map(|d| d.issue_at)
        .max()
        .unwrap();
    let t1_min = done_pb
        .iter()
        .filter(|d| d.txn == TxnId(1))
        .map(|d| d.issue_at)
        .min()
        .unwrap();
    assert!(t0_max < t1_min, "PB reordered data commands");
}

#[test]
fn pb_respects_intra_transaction_guard() {
    let mut c = controller(SchedulerPolicy::proactive());
    // txn0 and txn1 both target bank 0 (different rows): PB must not
    // precharge bank 0 for txn1 while txn0 still needs it.
    c.try_enqueue(
        RequestSpec {
            addr: addr(&c, 0, 0, 1, 0),
            is_write: false,
            txn: TxnId(0),
        },
        0,
    )
    .unwrap();
    c.try_enqueue(
        RequestSpec {
            addr: addr(&c, 0, 0, 2, 0),
            is_write: false,
            txn: TxnId(1),
        },
        0,
    )
    .unwrap();
    let (done, _) = run_until_done(&mut c, 0, 500);
    let t0 = done.iter().find(|d| d.txn == TxnId(0)).unwrap();
    let t1 = done.iter().find(|d| d.txn == TxnId(1)).unwrap();
    assert!(t0.issue_at < t1.issue_at);
    // txn0's row must not have been precharged before its read: it was
    // a cold miss, not a conflict.
    assert_eq!(t0.class, RowClass::Miss);
}

#[test]
fn queue_full_reported() {
    let mut c = controller(SchedulerPolicy::TransactionBased);
    let a = addr(&c, 0, 0, 1, 0);
    for i in 0..16 {
        c.try_enqueue(
            RequestSpec {
                addr: a,
                is_write: false,
                txn: TxnId(i),
            },
            0,
        )
        .unwrap();
    }
    let mut offer = |is_write| {
        let txn = TxnId(99);
        c.try_enqueue(
            RequestSpec {
                addr: a,
                is_write,
                txn,
            },
            0,
        )
    };
    assert_eq!(offer(false), Err(QueueFull));
    assert!(offer(true).is_ok(), "writes have their own capacity");
}

#[test]
fn writes_and_reads_both_complete() {
    let mut c = controller(SchedulerPolicy::TransactionBased);
    c.try_enqueue(
        RequestSpec {
            addr: addr(&c, 0, 0, 1, 0),
            is_write: false,
            txn: TxnId(0),
        },
        0,
    )
    .unwrap();
    c.try_enqueue(
        RequestSpec {
            addr: addr(&c, 0, 0, 1, 1),
            is_write: true,
            txn: TxnId(0),
        },
        0,
    )
    .unwrap();
    let (done, _) = run_until_done(&mut c, 0, 500);
    assert_eq!(done.len(), 2);
    assert!(done.iter().any(|d| d.is_write));
    assert!(done.iter().any(|d| !d.is_write));
    assert_eq!(c.stats().reads_completed, 1);
    assert_eq!(c.stats().writes_completed, 1);
}

#[test]
fn unconstrained_interleaves_transactions() {
    // With the barrier removed, a fast row-hit of txn 1 may complete
    // before txn 0's conflict chain.
    let mut c = controller(SchedulerPolicy::Unconstrained);
    c.try_enqueue(
        RequestSpec {
            addr: addr(&c, 0, 0, 1, 0),
            is_write: false,
            txn: TxnId(0),
        },
        0,
    )
    .unwrap();
    c.try_enqueue(
        RequestSpec {
            addr: addr(&c, 0, 1, 5, 0),
            is_write: false,
            txn: TxnId(1),
        },
        0,
    )
    .unwrap();
    let (done, _) = run_until_done(&mut c, 0, 500);
    // Both are cold misses in different banks: they overlap fully, so
    // the unconstrained schedule finishes them back to back rather
    // than serializing txn 1 behind txn 0.
    let t0 = done.iter().find(|d| d.txn == TxnId(0)).unwrap();
    let t1 = done.iter().find(|d| d.txn == TxnId(1)).unwrap();
    assert!((t1.issue_at as i64 - t0.issue_at as i64).abs() <= 2);
    assert!(!SchedulerPolicy::Unconstrained.preserves_transaction_order());
    assert!(SchedulerPolicy::proactive().preserves_transaction_order());
}

#[test]
fn close_page_precharges_idle_rows() {
    let mut c = controller(SchedulerPolicy::TransactionBased);
    c.set_page_policy(PagePolicy::Closed);
    assert_eq!(c.page_policy(), PagePolicy::Closed);
    let a = addr(&c, 0, 0, 3, 1);
    c.try_enqueue(
        RequestSpec {
            addr: a,
            is_write: false,
            txn: TxnId(0),
        },
        0,
    )
    .unwrap();
    let mut cycle = 0;
    while c.pending() > 0 {
        c.tick(cycle);
        let _ = c.drain_completed();
        cycle += 1;
    }
    // Keep ticking: the close-page policy must precharge the row.
    let loc = c.mapping.decode(a);
    for _ in 0..100 {
        c.tick(cycle);
        cycle += 1;
    }
    assert_eq!(c.dram().open_row(&loc), None, "row should be closed");
    // A second access to the same row is now a miss, not a hit.
    c.try_enqueue(
        RequestSpec {
            addr: addr(&c, 0, 0, 3, 2),
            is_write: false,
            txn: TxnId(1),
        },
        cycle,
    )
    .unwrap();
    let (done, _) = run_until_done(&mut c, cycle, 500);
    assert_eq!(done[0].class, RowClass::Miss);
}

#[test]
fn open_page_keeps_rows_open() {
    let mut c = controller(SchedulerPolicy::TransactionBased);
    let a = addr(&c, 0, 0, 3, 1);
    c.try_enqueue(
        RequestSpec {
            addr: a,
            is_write: false,
            txn: TxnId(0),
        },
        0,
    )
    .unwrap();
    let (_, end) = run_until_done(&mut c, 0, 500);
    let loc = c.mapping.decode(a);
    for cycle in end..end + 100 {
        c.tick(cycle);
    }
    assert_eq!(c.dram().open_row(&loc), Some(3), "row stays open");
}

#[test]
fn channels_progress_in_parallel() {
    let mut c = controller(SchedulerPolicy::TransactionBased);
    c.try_enqueue(
        RequestSpec {
            addr: addr(&c, 0, 0, 1, 0),
            is_write: false,
            txn: TxnId(0),
        },
        0,
    )
    .unwrap();
    c.try_enqueue(
        RequestSpec {
            addr: addr(&c, 1, 0, 1, 0),
            is_write: false,
            txn: TxnId(0),
        },
        0,
    )
    .unwrap();
    let (done, _) = run_until_done(&mut c, 0, 200);
    // Both cold misses complete at the same cycle: full channel overlap.
    assert_eq!(done[0].data_done_at, done[1].data_done_at);
}

/// Runs one transaction-per-request workload under drop faults.
fn run_with_drops(seed: u64) -> (Vec<Completed>, SchedulerStats) {
    let mut c = controller(SchedulerPolicy::TransactionBased);
    c.enable_response_faults(ResponseFaultConfig {
        seed,
        drop_rate: 0.5,
        ..ResponseFaultConfig::default()
    });
    for i in 0..6u64 {
        c.try_enqueue(
            RequestSpec {
                addr: addr(&c, 0, (i % 4) as u32, i, 0),
                is_write: false,
                txn: TxnId(i),
            },
            0,
        )
        .unwrap();
    }
    let (done, _) = run_until_done(&mut c, 0, 20_000);
    (done, c.stats().clone())
}

#[test]
fn dropped_responses_eventually_complete_in_order() {
    let (done, stats) = run_with_drops(11);
    assert_eq!(done.len(), 6, "every request completes despite drops");
    assert!(stats.responses_dropped > 0, "seed 11 must drop something");
    // Completions (and hence data commands) stay in transaction order.
    for pair in done.windows(2) {
        assert!(pair[0].txn <= pair[1].txn, "transaction order violated");
    }
    // Each request completes exactly once even after reissues.
    let mut ids: Vec<u64> = done.iter().map(|d| d.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 6);
}

#[test]
fn fault_schedule_is_deterministic() {
    let (done_a, stats_a) = run_with_drops(11);
    let (done_b, stats_b) = run_with_drops(11);
    assert_eq!(done_a, done_b, "same seed must replay identically");
    assert_eq!(stats_a.responses_dropped, stats_b.responses_dropped);
    let (done_c, _) = run_with_drops(12);
    assert!(
        done_a != done_c || run_with_drops(13).0 != done_a,
        "different seeds should eventually differ"
    );
}

#[test]
fn zero_rates_match_fault_free_run() {
    let run = |faults: bool| {
        let mut c = controller(SchedulerPolicy::TransactionBased);
        if faults {
            c.enable_response_faults(ResponseFaultConfig {
                seed: 99,
                ..ResponseFaultConfig::default()
            });
        }
        for i in 0..4u64 {
            c.try_enqueue(
                RequestSpec {
                    addr: addr(&c, 0, (i % 2) as u32, i, 0),
                    is_write: i % 2 == 1,
                    txn: TxnId(i),
                },
                0,
            )
            .unwrap();
        }
        run_until_done(&mut c, 0, 10_000).0
    };
    assert_eq!(run(false), run(true), "zero rates must be a no-op");
}

#[test]
fn late_responses_shift_data_done_only() {
    let run = |late: bool| {
        let mut c = controller(SchedulerPolicy::TransactionBased);
        c.enable_response_faults(ResponseFaultConfig {
            seed: 7,
            late_rate: if late { 1.0 } else { 0.0 },
            late_delay: 100,
            ..ResponseFaultConfig::default()
        });
        c.try_enqueue(
            RequestSpec {
                addr: addr(&c, 0, 0, 3, 0),
                is_write: false,
                txn: TxnId(0),
            },
            0,
        )
        .unwrap();
        let (done, _) = run_until_done(&mut c, 0, 1_000);
        (done[0], c.stats().responses_delayed)
    };
    let (clean, delayed_clean) = run(false);
    let (late, delayed_late) = run(true);
    assert_eq!(delayed_clean, 0);
    assert_eq!(delayed_late, 1);
    assert_eq!(late.issue_at, clean.issue_at, "command timing unchanged");
    assert_eq!(late.data_done_at, clean.data_done_at + 100);
}

#[test]
fn queue_saturation_halves_capacity() {
    let mut c = controller(SchedulerPolicy::TransactionBased);
    c.enable_response_faults(ResponseFaultConfig {
        seed: 3,
        saturation_rate: 1.0,
        ..ResponseFaultConfig::default()
    });
    // Capacity is 16 per direction; a saturated window admits only 8.
    let a = addr(&c, 0, 0, 1, 0);
    let mut accepted = 0u32;
    loop {
        let spec = RequestSpec {
            addr: a,
            is_write: false,
            txn: TxnId(0),
        };
        match c.try_enqueue(spec, 5) {
            Ok(_) => accepted += 1,
            Err(QueueFull) => break,
        }
    }
    assert_eq!(accepted, 8, "saturation must halve the effective capacity");
    assert_eq!(c.stats().queue_saturation_windows, 1, "one window counted");
    let write = RequestSpec {
        addr: a,
        is_write: true,
        txn: TxnId(0),
    };
    assert!(
        c.try_enqueue(write, 5).is_ok(),
        "the write direction has its own (halved) capacity"
    );
}

#[test]
fn response_fault_config_validation() {
    assert!(ResponseFaultConfig::default().validate().is_ok());
    assert_eq!(
        ResponseFaultConfig {
            drop_rate: 1.0,
            ..ResponseFaultConfig::default()
        }
        .validate(),
        Err(FaultConfigError::CertainDrop),
        "certain drop means no forward progress"
    );
    let err = ResponseFaultConfig {
        late_rate: 1.5,
        ..ResponseFaultConfig::default()
    }
    .validate()
    .unwrap_err();
    assert_eq!(
        err,
        FaultConfigError::RateOutOfRange {
            field: "late_rate",
            value: 1.5
        }
    );
    assert!(err.to_string().contains("late_rate"), "{err}");
}

#[test]
fn policy_accessors_round_trip() {
    for tag in [
        SchedulerPolicy::TransactionBased,
        SchedulerPolicy::proactive(),
        SchedulerPolicy::Unconstrained,
        SchedulerPolicy::ReadOverWrite { drain_bound: 8 },
        SchedulerPolicy::FixedCadence { period: 2 },
    ] {
        let c = controller(tag);
        assert_eq!(c.policy(), tag);
        assert_eq!(c.policy_name(), tag.name());
    }
    // A tag's parameters survive the trip through the controller.
    let deep = SchedulerPolicy::ProactiveBank { lookahead: 2 };
    assert_eq!(controller(deep).policy(), deep);
}

#[test]
#[should_panic(expected = "period must be >= 1")]
fn fixed_cadence_without_slots_is_refused() {
    let _ = controller(SchedulerPolicy::FixedCadence { period: 0 });
}

#[test]
#[should_panic(expected = "drain_bound must be >= 1")]
fn read_over_write_without_drain_is_refused() {
    let _ = controller(SchedulerPolicy::ReadOverWrite { drain_bound: 0 });
}

#[test]
fn read_over_write_prefers_reads_then_drains() {
    // An older write hit and a younger read hit in the same row: the
    // baseline issues the write first (age order); read-over-write issues
    // the read first, defers the write, and — with drain_bound 1 — then
    // drains it.
    let run = |policy| {
        let mut c = controller(policy);
        c.try_enqueue(
            RequestSpec {
                addr: addr(&c, 0, 0, 3, 0),
                is_write: true,
                txn: TxnId(0),
            },
            0,
        )
        .unwrap();
        c.try_enqueue(
            RequestSpec {
                addr: addr(&c, 0, 0, 3, 1),
                is_write: false,
                txn: TxnId(0),
            },
            0,
        )
        .unwrap();
        let (done, _) = run_until_done(&mut c, 0, 1_000);
        let read = *done.iter().find(|d| !d.is_write).unwrap();
        let write = *done.iter().find(|d| d.is_write).unwrap();
        (read, write, c.policy_stats())
    };
    let (read_b, write_b, stats_b) = run(SchedulerPolicy::TransactionBased);
    assert!(
        write_b.issue_at < read_b.issue_at,
        "baseline is age-ordered"
    );
    assert_eq!(stats_b, PolicyStats::default());

    let (read_r, write_r, stats_r) = run(SchedulerPolicy::ReadOverWrite { drain_bound: 1 });
    assert!(
        read_r.issue_at < write_r.issue_at,
        "read priority must reorder within the transaction"
    );
    assert_eq!(stats_r.deferred_writes, 1, "one write bypass counted");
    assert_eq!(stats_r.write_drains, 1, "the deferred write drained");
}

#[test]
fn fixed_cadence_issues_only_on_slots() {
    let run = |policy| {
        let mut c = controller(policy);
        c.try_enqueue(
            RequestSpec {
                addr: addr(&c, 0, 0, 3, 0),
                is_write: false,
                txn: TxnId(0),
            },
            0,
        )
        .unwrap();
        let (done, end) = run_until_done(&mut c, 0, 1_000);
        (done[0], end, c.policy_stats())
    };
    let (done_base, end_base, _) = run(SchedulerPolicy::TransactionBased);
    let (done_fc, end_fc, stats_fc) = run(SchedulerPolicy::FixedCadence { period: 4 });
    assert_eq!(done_fc.first_cmd_at % 4, 0, "ACT must land on a slot");
    assert_eq!(done_fc.issue_at % 4, 0, "RD must land on a slot");
    assert!(end_fc >= end_base, "withholding slots cannot be faster");
    assert!(stats_fc.withheld_slots > 0, "off-slot ticks counted");
    assert_eq!(done_fc.class, done_base.class, "row outcome unchanged");
}

#[test]
fn speculative_window_prepares_deeper_than_pb() {
    // txn 0 grinds through a conflict chain in bank 0 while txns 1..=3
    // wait as cold misses in banks 1..=3. Both depths eventually prepare
    // every bank early; the depth shows in *when*: lookahead 3 may ACT
    // for txns 2 and 3 while txn 0 is still draining, the paper's
    // lookahead 1 cannot see past txn 1 until then.
    let run = |policy| {
        let mut c = controller(policy);
        c.enable_command_trace();
        let reqs = [
            (addr(&c, 0, 0, 1, 0), TxnId(0)),
            (addr(&c, 0, 0, 2, 0), TxnId(0)),
            (addr(&c, 0, 0, 3, 0), TxnId(0)),
            (addr(&c, 0, 1, 5, 0), TxnId(1)),
            (addr(&c, 0, 2, 5, 0), TxnId(2)),
            (addr(&c, 0, 3, 5, 0), TxnId(3)),
        ];
        for (a, t) in reqs {
            c.try_enqueue(
                RequestSpec {
                    addr: a,
                    is_write: false,
                    txn: t,
                },
                0,
            )
            .unwrap();
        }
        let (done, end) = run_until_done(&mut c, 0, 5_000);
        // Data commands stay transaction-ordered under any window depth.
        let mut by_issue: Vec<&Completed> = done.iter().collect();
        by_issue.sort_unstable_by_key(|d| d.issue_at);
        for pair in by_issue.windows(2) {
            assert!(pair[0].txn <= pair[1].txn, "data reordered");
        }
        let txn0_last_data = done
            .iter()
            .filter(|d| d.txn == TxnId(0))
            .map(|d| d.issue_at)
            .max()
            .unwrap();
        let deep_preps = c
            .take_command_events()
            .iter()
            .filter(|e| {
                e.cmd.kind == dram_sim::CommandKind::Activate
                    && e.txn.is_some_and(|t| t.0 >= 2)
                    && e.cycle < txn0_last_data
            })
            .count();
        (
            end,
            c.stats().early_precharges + c.stats().early_activates,
            deep_preps,
        )
    };
    let (end_pb, early_pb, deep_pb) = run(SchedulerPolicy::proactive());
    let (end_sw, early_sw, deep_sw) = run(SchedulerPolicy::ProactiveBank { lookahead: 3 });
    assert!(early_pb > 0);
    assert!(early_sw >= early_pb);
    assert_eq!(deep_pb, 0, "PB cannot prepare past the next transaction");
    assert!(
        deep_sw >= 2,
        "lookahead 3 must ACT for txns 2..=3 while txn 0 drains, got {deep_sw}"
    );
    assert!(end_sw <= end_pb, "extra preparation must not cost cycles");
}

// ---------------------------------------------------------------------
// Pinned scenarios: the full `CommandEvent` stream, every completion, the
// `SchedulerStats` at a mid-run tick and at the end, and the `PolicyStats`
// of each run are held to values recorded on the commit *before* the
// event-driven scheduling core (per-bank issue bounds, channel sleep,
// per-bank views) went in — the skip logic must be invisible in all of them.
// ---------------------------------------------------------------------

/// The machine a pinned run drives, and the stream it is offered.
#[derive(Clone, Copy)]
enum Machine {
    /// Short transactions ([`scenario_requests`]) on `test_small`.
    Small,
    /// The Path-shaped stream into deep queues ([`dense_requests`]) on the
    /// paper's machine.
    Dense,
    /// [`ranked_requests`] on two ranks of eight banks in four bank groups
    /// per channel with DDR4-2400 timing.
    TwoRanks,
}

/// One pinned run's configuration.
struct Scenario {
    policy: SchedulerPolicy,
    page: PagePolicy,
    /// Refresh interval (test_fast's 100 000 never fires in a short run).
    t_refi: u64,
    dram_faults: Option<dram_sim::DramFaultConfig>,
    response_faults: Option<ResponseFaultConfig>,
    seed: u64,
    machine: Machine,
    /// The tick at which the run reads `stats()` mid-run.
    mid_tick: u64,
}

impl Scenario {
    fn new(policy: SchedulerPolicy, seed: u64) -> Self {
        Self {
            policy,
            page: PagePolicy::Open,
            t_refi: 150,
            dram_faults: None,
            response_faults: None,
            seed,
            machine: Machine::Small,
            mid_tick: 137,
        }
    }

    /// The two-rank regime: DDR4-2400 timing (tCCD_L / tRRD_L inside a bank
    /// group, tWTR and refresh per rank), a refresh every 1 500 cycles.
    fn two_ranks(policy: SchedulerPolicy, seed: u64) -> Self {
        Self {
            t_refi: 1_500,
            machine: Machine::TwoRanks,
            mid_tick: 2_001,
            ..Self::new(policy, seed)
        }
    }

    /// The dense regime: `hpca_default` geometry, DDR3-1600 timing with its
    /// own refresh interval, 64-entry queues.
    fn dense(policy: SchedulerPolicy, seed: u64) -> Self {
        Self {
            t_refi: TimingParams::ddr3_1600().t_refi,
            machine: Machine::Dense,
            mid_tick: 4_001,
            ..Self::new(policy, seed)
        }
    }
}

/// What a pinned run produced, reduced to comparable values.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    /// Number of commands on the trace and FNV-1a over every field of each.
    events: (usize, u64),
    /// FNV-1a over every field of every completion, in drain order.
    completions: u64,
    /// FNV-1a over `SchedulerStats` as read at `Scenario::mid_tick`.
    mid_stats: u64,
    /// FNV-1a over the final `SchedulerStats`.
    end_stats: u64,
    policy: PolicyStats,
    /// Enqueue attempts refused with `QueueFull`.
    refused: u64,
    /// First cycle with nothing queued and nothing left to offer.
    end: u64,
}

/// A recorded [`Pinned`]; `policy` is (withheld, deferred, drains).
fn pin(
    events: (usize, u64),
    [completions, mid_stats, end_stats]: [u64; 3],
    policy: (u64, u64, u64),
    refused: u64,
    end: u64,
) -> Pinned {
    Pinned {
        events,
        completions,
        mid_stats,
        end_stats,
        policy: PolicyStats {
            withheld_slots: policy.0,
            deferred_writes: policy.1,
            write_drains: policy.2,
        },
        refused,
        end,
    }
}

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fnv_debug(v: &impl std::fmt::Debug) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for b in format!("{v:?}").bytes() {
        fnv(&mut h, u64::from(b));
    }
    h
}

fn digest_events(events: &[CommandEvent]) -> (usize, u64) {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for e in events {
        fnv(&mut h, e.cycle);
        fnv(&mut h, e.cmd.kind as u64);
        fnv(&mut h, u64::from(e.cmd.loc.channel));
        fnv(&mut h, u64::from(e.cmd.loc.rank));
        fnv(&mut h, u64::from(e.cmd.loc.bank));
        fnv(&mut h, e.cmd.loc.row);
        fnv(&mut h, u64::from(e.cmd.loc.column));
        fnv(&mut h, e.txn.map_or(u64::MAX, |t| t.0));
    }
    (events.len(), h)
}

fn scenario_controller(s: &Scenario) -> MemoryController {
    let (geometry, mut timing, capacity) = match s.machine {
        Machine::Small => (DramGeometry::test_small(), TimingParams::test_fast(), 16),
        Machine::Dense => (DramGeometry::hpca_default(), TimingParams::ddr3_1600(), 64),
        Machine::TwoRanks => {
            let geometry = DramGeometry {
                ranks_per_channel: 2,
                banks_per_rank: 8,
                bank_groups: 4,
                ..DramGeometry::test_small()
            };
            (geometry, TimingParams::ddr4_2400(), 32)
        }
    };
    let mapping = AddressMapping::hpca_default(&geometry);
    timing.t_refi = s.t_refi;
    let mut dram = DramModule::new(geometry, timing);
    if let Some(f) = s.dram_faults {
        dram.enable_faults(f);
    }
    let mut c = MemoryController::new(dram, mapping, s.policy, capacity);
    c.set_page_policy(s.page);
    if let Some(f) = s.response_faults {
        c.enable_response_faults(f);
    }
    c.enable_command_trace();
    c
}

/// A seeded ORAM-shaped workload: 48 transactions of 3–8 requests over both
/// channels, few rows per bank (hits and conflicts both occur), every third
/// transaction ending in writes; transaction `i` is offered from cycle
/// `14 * i`, two requests per cycle, head-of-line on `QueueFull`.
fn scenario_requests(c: &MemoryController, seed: u64) -> Vec<(u64, RequestSpec)> {
    let mut out = Vec::new();
    for txn in 0..48u64 {
        let n = 3 + mix64(seed ^ txn) % 6;
        for i in 0..n {
            let r = mix64(seed ^ (txn << 8) ^ i ^ 0x5EED);
            let a = addr(
                c,
                (r % 2) as u32,
                ((r >> 8) % 4) as u32,
                (r >> 16) % 3,
                ((r >> 24) % 8) as u32,
            );
            out.push((
                14 * txn,
                RequestSpec {
                    addr: a,
                    is_write: txn % 3 == 2 && i >= n / 2,
                    txn: TxnId(txn),
                },
            ));
        }
    }
    out
}

/// A seeded Path-ORAM-shaped stream: 64 transactions of 96–128 requests —
/// the reads of a path, then writes of the same addresses in the same order
/// — over all four channels, three rows per bank, two banks of each channel
/// taking half the traffic (so their lists run deep); transactions are
/// offered four at once, from cycle `300 * (i / 4)`, faster than they drain.
fn dense_requests(c: &MemoryController, seed: u64) -> Vec<(u64, RequestSpec)> {
    let mut out = Vec::new();
    for txn in 0..64u64 {
        let n = 48 + mix64(seed ^ txn) % 17;
        for is_write in [false, true] {
            for i in 0..n {
                let r = mix64(seed ^ (txn << 8) ^ i ^ 0x5EED);
                let k = (r >> 8) % 16;
                let bank = if k < 8 { k % 2 } else { k % 8 };
                let a = addr(
                    c,
                    (r % 4) as u32,
                    bank as u32,
                    100 * bank + (r >> 16) % 3,
                    ((r >> 24) % 64) as u32,
                );
                out.push((
                    300 * (txn / 4),
                    RequestSpec {
                        addr: a,
                        is_write,
                        txn: TxnId(txn),
                    },
                ));
            }
        }
    }
    out
}

/// A seeded stream for the two-rank machine: 96 transactions of 6–17
/// requests over both channels, both ranks and all eight banks (so every
/// bank group), three rows per bank; reads and writes mix inside every
/// second transaction, so a read hit can bypass an older write hit;
/// transaction `i` is offered from cycle `45 * i`.
fn ranked_requests(c: &MemoryController, seed: u64) -> Vec<(u64, RequestSpec)> {
    let mut out = Vec::new();
    for txn in 0..96u64 {
        let n = 6 + mix64(seed ^ txn) % 12;
        for i in 0..n {
            let r = mix64(seed ^ (txn << 8) ^ i ^ 0x5EED);
            let a = c.mapping.encode(&dram_sim::DramLocation {
                channel: (r % 2) as u32,
                rank: ((r >> 4) % 2) as u32,
                bank: ((r >> 8) % 8) as u32,
                row: (r >> 16) % 3,
                column: ((r >> 24) % 8) as u32,
            });
            out.push((
                45 * txn,
                RequestSpec {
                    addr: a,
                    is_write: txn % 2 == 1 && (r >> 32).is_multiple_of(3),
                    txn: TxnId(txn),
                },
            ));
        }
    }
    out
}

fn run_scenario(s: &Scenario) -> (Pinned, MemoryController) {
    let (pinned, c, _) = run_scenario_seen(s);
    (pinned, c)
}

/// What a pinned run passed through, for the scenarios that must show they
/// reached their regime.
#[derive(Debug, Default)]
struct Seen {
    /// The deepest per-bank list any tick saw.
    deepest: usize,
    /// Enqueues that refilled an empty bank inside its open busy window.
    refills_in_window: u64,
    /// The longest remainder of a busy window a tick found on a bank with
    /// work queued.
    longest_pending_window: u64,
    /// Refreshes that started while a bank with work queued was busy.
    refreshes_over_busy: u64,
    /// Housekeeping PREs (no transaction): the bank had nothing queued for
    /// its row.
    idle_precharges: usize,
}

/// [`run_scenario`], also returning what the run passed through.
fn run_scenario_seen(s: &Scenario) -> (Pinned, MemoryController, Seen) {
    let mut c = scenario_controller(s);
    let reqs = match s.machine {
        Machine::Small => scenario_requests(&c, s.seed),
        Machine::Dense => dense_requests(&c, s.seed),
        Machine::TwoRanks => ranked_requests(&c, s.seed),
    };
    let banks = c.banks_per_channel();
    let (mut next, mut cycle, mut refused) = (0, 0u64, 0u64);
    let mut seen = Seen::default();
    let mut done = Vec::new();
    let mut mid_stats = None;
    let mut end = None;
    // Run to completion, then 60 idle ticks (close-page housekeeping and
    // refresh keep going with empty queues).
    while end.is_none_or(|e| cycle < e + 60) {
        for _ in 0..2 {
            let Some(&(from, spec)) = reqs.get(next) else {
                break;
            };
            if cycle < from {
                break;
            }
            let loc = c.mapping.decode(spec.addr);
            let (ch, b) = (loc.channel as usize, c.bank_index(&loc));
            let was_empty = c.queues[ch].bank_is_empty(b);
            match c.try_enqueue(spec, cycle) {
                Ok(_) => {
                    next += 1;
                    let in_window = busy_until(&c, ch, b) > cycle;
                    seen.refills_in_window += u64::from(was_empty && in_window);
                }
                Err(QueueFull) => {
                    refused += 1;
                    break;
                }
            }
        }
        let mut busy_pending = false;
        for (ch, q) in c.queues.iter().enumerate() {
            for b in 0..banks {
                seen.deepest = seen.deepest.max(q.bank(b).count());
                if !q.bank_is_empty(b) {
                    let left = busy_until(&c, ch, b).saturating_sub(cycle);
                    seen.longest_pending_window = seen.longest_pending_window.max(left);
                    busy_pending |= left > 0;
                }
            }
        }
        let refreshes = c.dram().total_refreshes();
        c.tick(cycle);
        seen.refreshes_over_busy +=
            u64::from(busy_pending && c.dram().total_refreshes() > refreshes);
        c.drain_completed_into(&mut done);
        if cycle == s.mid_tick {
            mid_stats = Some(fnv_debug(c.stats()));
        }
        cycle += 1;
        if end.is_none() && next == reqs.len() && c.pending() == 0 {
            end = Some(cycle);
        }
        assert!(cycle < 400_000, "scheduler wedged");
    }
    assert_eq!(done.len(), reqs.len(), "every request completes once");
    let events = c.take_command_events();
    seen.idle_precharges = events.iter().filter(|e| e.txn.is_none()).count();
    let pinned = Pinned {
        events: digest_events(&events),
        completions: fnv_debug(&done),
        mid_stats: mid_stats.expect("runs are longer than the mid tick"),
        end_stats: fnv_debug(c.stats()),
        policy: c.policy_stats(),
        refused,
        end: end.expect("loop ends after the run does"),
    };
    (pinned, c, seen)
}

/// End of the busy window of channel `ch`'s bank `b`.
fn busy_until(c: &MemoryController, ch: usize, b: usize) -> u64 {
    dram_bank(&c.dram, c.banks_per_rank, ch, b).busy_until()
}

#[test]
fn pinned_refresh_fires_while_channels_sleep() {
    // PB with a refresh every 150 cycles: most refreshes land while a
    // channel waits out tRCD/tRAS/tRC with work queued.
    let (got, c) = run_scenario(&Scenario::new(SchedulerPolicy::proactive(), 0xA11CE));
    assert!(c.dram().total_refreshes() >= 6, "refreshes must fire");
    assert!(c.stats().early_precharges + c.stats().early_activates > 0);
    assert_eq!(
        got,
        pin(
            (555, 3404551030183975336),
            [
                7048535722070450387,
                5033307874852445451,
                9100071647890601650
            ],
            (0, 0, 0),
            12,
            730
        )
    );
}

#[test]
fn pinned_refresh_storms_and_weak_rows() {
    let mut s = Scenario::new(SchedulerPolicy::proactive(), 0xB0B);
    s.dram_faults = Some(dram_sim::DramFaultConfig {
        seed: 0xFA17,
        storm_rate: 0.5,
        storm_factor: 3,
        weak_row_rate: 0.3,
        weak_row_stall: 5,
    });
    let (got, c) = run_scenario(&s);
    assert!(c.dram().total_refresh_storms() > 0, "storms must fire");
    assert!(c.dram().weak_row_stalls() > 0, "weak rows must stall");
    assert_eq!(
        got,
        pin(
            (578, 9000240964141383802),
            [
                18365821334267179577,
                10964638672640185678,
                14585364768703146552
            ],
            (0, 0, 0),
            382,
            966
        )
    );
}

#[test]
fn pinned_response_faults() {
    // A dropped response stays queued and is reissued; a saturated window
    // refuses the enqueue; late responses only move `data_done_at`.
    let mut s = Scenario::new(SchedulerPolicy::TransactionBased, 0xD06);
    s.response_faults = Some(ResponseFaultConfig {
        seed: 0x5A7,
        late_rate: 0.2,
        late_delay: 40,
        drop_rate: 0.3,
        saturation_rate: 0.5,
    });
    let (got, c) = run_scenario(&s);
    assert!(c.stats().responses_dropped > 0);
    assert!(c.stats().responses_delayed > 0);
    assert!(c.stats().queue_saturation_windows > 0);
    assert!(got.refused > 0, "a saturated window must refuse an enqueue");
    assert_eq!(
        got,
        pin(
            (724, 4198568544365716634),
            [
                15407981528758777580,
                15546112613181205316,
                17618647732554519206
            ],
            (0, 0, 0),
            743,
            1016
        )
    );
}

#[test]
fn pinned_fixed_cadence_off_slots() {
    let (got, _) = run_scenario(&Scenario::new(
        SchedulerPolicy::FixedCadence { period: 2 },
        0xCADE,
    ));
    assert!(got.policy.withheld_slots > 0);
    assert_eq!(
        got,
        pin(
            (630, 8960573507926933759),
            [
                5403480806054734378,
                129166204733038389,
                16548455302361720299
            ],
            (648, 0, 0),
            880,
            1237
        )
    );
}

#[test]
fn pinned_read_over_write_flips_order_mid_stall() {
    let (got, _) = run_scenario(&Scenario::new(
        SchedulerPolicy::ReadOverWrite { drain_bound: 2 },
        0x0DD,
    ));
    assert!(got.policy.deferred_writes > 0, "reads must bypass writes");
    assert!(got.policy.write_drains > 0, "the order must flip to drain");
    assert_eq!(
        got,
        pin(
            (571, 11596089084527706610),
            [
                11060532419901834359,
                7905792805854137939,
                8003516433848747722
            ],
            (0, 16, 4),
            201,
            808
        )
    );
}

#[test]
fn pinned_speculative_window() {
    // A speculative window four transactions deep: Proactive Bank at
    // lookahead 4.
    let (got, c) = run_scenario(&Scenario::new(
        SchedulerPolicy::ProactiveBank { lookahead: 4 },
        0x5BEC,
    ));
    assert!(c.stats().early_precharges + c.stats().early_activates > 0);
    assert_eq!(
        got,
        pin(
            (539, 15744916650864579543),
            [
                8724241706708844101,
                2301417151862196999,
                7687044985697878258
            ],
            (0, 0, 0),
            23,
            744
        )
    );
}

#[test]
fn lookahead_policies_are_one_function_of_k() {
    // `k = 0` is the transaction-based baseline: command stream,
    // completions, mid-run and end stats all agree.
    let run = |policy| run_scenario(&Scenario::new(policy, 0x5BEC)).0;
    let baseline = run(SchedulerPolicy::TransactionBased);
    assert_eq!(
        run(SchedulerPolicy::ProactiveBank { lookahead: 0 }),
        baseline
    );
    // Not vacuous: the scenario tells the three lookaheads apart.
    let pb = run(SchedulerPolicy::proactive());
    assert_ne!(pb, run(SchedulerPolicy::ProactiveBank { lookahead: 4 }));
    assert_ne!(pb, baseline);
}

#[test]
fn pinned_unconstrained() {
    let (got, _) = run_scenario(&Scenario::new(SchedulerPolicy::Unconstrained, 0x0FF));
    assert_eq!(
        got,
        pin(
            (585, 852699327032854180),
            [7456960585912058761, 352703880814983977, 7771482054029967091],
            (0, 0, 0),
            0,
            685
        )
    );
}

#[test]
fn pinned_closed_page_command_stream() {
    // `close_idle_rows` answers "does anyone still want this row" from the
    // bank's own queue; the housekeeping PREs must land where the
    // whole-queue scan put them.
    for (policy, want) in [
        (
            SchedulerPolicy::TransactionBased,
            pin(
                (626, 4847984231426925843),
                [
                    8732676651167469219,
                    5426573157709590868,
                    3169683290184980187,
                ],
                (0, 0, 0),
                410,
                882,
            ),
        ),
        (
            SchedulerPolicy::proactive(),
            pin(
                (640, 11516383189385251300),
                [281492777339425014, 4069782668269225268, 5260925171706057537],
                (0, 0, 0),
                326,
                830,
            ),
        ),
    ] {
        let mut s = Scenario::new(policy, 0xC105ED);
        s.page = PagePolicy::Closed;
        let (got, _) = run_scenario(&s);
        assert_eq!(got, want, "{policy:?}");
    }
}

#[test]
fn pinned_dense_path_streams() {
    // The regime the short scenarios never reach: full-path transactions
    // into saturated 64-entry queues, per-bank lists tens deep, `QueueFull`
    // on most cycles. Recorded on the commit before the views were kept by
    // delta and the queues became ring buffers.
    let faults = ResponseFaultConfig {
        seed: 0x5A7,
        late_rate: 0.2,
        late_delay: 40,
        drop_rate: 0.1,
        saturation_rate: 0.3,
    };
    let pb = SchedulerPolicy::proactive();
    for (policy, page, response_faults, want) in [
        (
            pb,
            PagePolicy::Open,
            None,
            pin(
                (10358, 9418059272300337189),
                [
                    6632914124816187647,
                    9452194620663640188,
                    15495710858672218293,
                ],
                (0, 0, 0),
                9779,
                14028,
            ),
        ),
        (
            SchedulerPolicy::TransactionBased,
            PagePolicy::Open,
            None,
            pin(
                (10337, 12144064784642921605),
                [
                    10112748641214025618,
                    16694224889873180177,
                    2374044276705277918,
                ],
                (0, 0, 0),
                9838,
                14085,
            ),
        ),
        (
            SchedulerPolicy::ReadOverWrite { drain_bound: 8 },
            PagePolicy::Open,
            None,
            pin(
                (10334, 8426441969817059833),
                [
                    3368438804379641629,
                    17366711774120102868,
                    12434802057760923579,
                ],
                (0, 2532, 53),
                9838,
                14085,
            ),
        ),
        (
            SchedulerPolicy::ProactiveBank { lookahead: 3 },
            PagePolicy::Open,
            None,
            pin(
                (10376, 6808702514352216815),
                [
                    10878375916537912889,
                    10521044933303698234,
                    5229020197168926674,
                ],
                (0, 0, 0),
                9827,
                14088,
            ),
        ),
        (
            SchedulerPolicy::Unconstrained,
            PagePolicy::Open,
            None,
            pin(
                (8794, 9768521766555461200),
                [
                    1861762655816378731,
                    13368002593841616277,
                    12390042358422722122,
                ],
                (0, 0, 0),
                4194,
                8203,
            ),
        ),
        (
            pb,
            PagePolicy::Closed,
            None,
            pin(
                (10437, 13085996498032891924),
                [
                    14959273976137965552,
                    404950404265867453,
                    14226186138250567916,
                ],
                (0, 0, 0),
                9779,
                14028,
            ),
        ),
        (
            pb,
            PagePolicy::Open,
            Some(faults),
            pin(
                (11140, 715352142253827581),
                [
                    8871563854855778993,
                    15705865689270953095,
                    8401680932789983532,
                ],
                (0, 0, 0),
                11106,
                14958,
            ),
        ),
    ] {
        let mut s = Scenario::dense(policy, 0xDE45E);
        s.page = page;
        s.response_faults = response_faults;
        let (got, c, seen) = run_scenario_seen(&s);
        assert!(seen.deepest >= 16, "{policy:?}: lists only {seen:?}");
        assert!(got.refused > 0, "{policy:?}: the queues never filled");
        assert!(c.dram().total_refreshes() >= 4, "{policy:?}: no refresh");
        if response_faults.is_some() {
            let stats = c.stats();
            assert!(stats.responses_dropped > 0 && stats.responses_delayed > 0);
            assert!(stats.queue_saturation_windows > 0);
        }
        assert_eq!(got, want, "{policy:?} {page:?} {response_faults:?}");
    }
}

#[test]
fn pinned_busy_windows_outlast_any_horizon() {
    // Busy windows thousands of cycles long — a weak row stalls its bank for
    // 5 000 cycles, a storm stretches tRFC to 5 000 — under close-page
    // housekeeping: banks are counted busy for longer than any fixed horizon
    // could hold, run empty and are refilled inside an open window, take a
    // PRE with nothing queued, and a refresh starts while they are counted.
    // Recorded on the commit before the per-tick bank walk was replaced by
    // counting on transitions.
    for (policy, want) in [
        (
            SchedulerPolicy::proactive(),
            pin(
                (640, 11529491158214734135),
                [
                    1071658226501502922,
                    15595565376354770142,
                    9953016549924899270,
                ],
                (0, 0, 0),
                29900,
                55024,
            ),
        ),
        (
            SchedulerPolicy::TransactionBased,
            pin(
                (599, 12638469677332847165),
                [
                    14072401602784723234,
                    13606207717852672118,
                    2287031218323367537,
                ],
                (0, 0, 0),
                29977,
                30394,
            ),
        ),
    ] {
        let mut s = Scenario::new(policy, 0x10FF);
        s.page = PagePolicy::Closed;
        s.t_refi = 2_500;
        s.mid_tick = 9_001;
        s.dram_faults = Some(dram_sim::DramFaultConfig {
            seed: 0x5107,
            storm_rate: 0.3,
            storm_factor: 250,
            weak_row_rate: 0.02,
            weak_row_stall: 5_000,
        });
        let (got, c, seen) = run_scenario_seen(&s);
        assert!(c.dram().total_refresh_storms() > 0, "{policy:?}: no storm");
        assert!(c.dram().weak_row_stalls() > 0, "{policy:?}: no weak row");
        assert!(
            seen.longest_pending_window >= 4_000,
            "{policy:?}: windows only {} long",
            seen.longest_pending_window
        );
        assert!(
            seen.refills_in_window > 0,
            "{policy:?}: no refill in a window"
        );
        assert!(
            seen.refreshes_over_busy > 0,
            "{policy:?}: refreshes met no busy bank"
        );
        assert!(seen.idle_precharges > 0, "{policy:?}: no housekeeping PRE");
        assert_eq!(got, want, "{policy:?}");
    }
}

#[test]
fn pinned_two_ranks_four_bank_groups() {
    // The registers a per-bank view cannot see: tRRD_L / tCCD_L inside a
    // bank group, tWTR and refresh per rank, the data bus and the command
    // bus across ranks. Recorded on the commit before the issue bounds
    // became a copy of those registers.
    for (policy, page, want) in [
        (
            SchedulerPolicy::proactive(),
            PagePolicy::Open,
            pin(
                (2489, 7235095594747517051),
                [
                    8774343399759855852,
                    16279865430075269383,
                    14139867714693073411,
                ],
                (0, 0, 0),
                5621,
                7319,
            ),
        ),
        (
            SchedulerPolicy::ReadOverWrite { drain_bound: 2 },
            PagePolicy::Open,
            pin(
                (2473, 15976558350900279519),
                [
                    16530104549613133859,
                    17754368869826261829,
                    4332321289863149252,
                ],
                (0, 130, 48),
                7290,
                8943,
            ),
        ),
        (
            SchedulerPolicy::proactive(),
            PagePolicy::Closed,
            pin(
                (2667, 14199228615686281130),
                [
                    13916422710921887236,
                    10080433469689617046,
                    12502280142567966899,
                ],
                (0, 0, 0),
                5621,
                7320,
            ),
        ),
    ] {
        let mut s = Scenario::two_ranks(policy, 0x2A4B);
        s.page = page;
        let (got, c, seen) = run_scenario_seen(&s);
        assert!(
            c.dram().total_refreshes() >= 16,
            "{policy:?}: four per rank"
        );
        assert_eq!(seen.idle_precharges > 0, page == PagePolicy::Closed);
        assert_eq!(got, want, "{policy:?} {page:?}");
    }
}

/// Enqueues one read of `txn` for (channel 0, `bank`, `row`) at `cycle`.
fn enqueue_read(c: &mut MemoryController, bank: u32, row: u64, txn: u64, cycle: u64) {
    let a = addr(c, 0, bank, row, 0);
    c.try_enqueue(
        RequestSpec {
            addr: a,
            is_write: false,
            txn: TxnId(txn),
        },
        cycle,
    )
    .unwrap();
}

/// The (cycle, mnemonic, bank) triples of a command trace.
fn brief(events: &[CommandEvent]) -> Vec<(u64, &'static str, u32)> {
    events
        .iter()
        .map(|e| (e.cycle, e.cmd.kind.mnemonic(), e.cmd.loc.bank))
        .collect()
}

#[test]
fn refresh_closing_a_row_wakes_the_sleeping_channel() {
    // The ACT lands two cycles before the refresh, so the channel is
    // waiting out tRCD (its only candidate, the RD, is bounded at ACT +
    // tRCD) when the refresh closes the row without the controller issuing
    // anything. The request needs a fresh ACT, legal at exactly
    // `refresh_done`; a channel that kept sleeping on the RD's bound would
    // never re-probe.
    let mut s = Scenario::new(SchedulerPolicy::TransactionBased, 0);
    s.t_refi = 50;
    let mut c = scenario_controller(&s);
    let t = c.dram().timing().clone();
    enqueue_read(&mut c, 1, 5, 0, 48);
    let mut done = Vec::new();
    for cycle in 48..95 {
        c.tick(cycle);
        c.drain_completed_into(&mut done);
    }
    let refresh_done = t.t_refi + t.t_rfc;
    assert_eq!(
        brief(&c.take_command_events()),
        [
            (48, "ACT", 1),
            (refresh_done, "ACT", 1),
            (refresh_done + t.t_rcd, "RD", 1),
        ]
    );
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].class, RowClass::Miss, "classified at the first ACT");
    assert_eq!(c.dram().total_refreshes(), 2, "one per channel");
}

#[test]
fn enqueue_into_the_current_window_wakes_a_sleeping_channel() {
    // Channel 0 sleeps on bank 0's tRCD (ACT at 0, RD bounded at 3). A
    // request of the same transaction for bank 1 arrives before tick 2:
    // its ACT is legal at 2 (tRRD after the first ACT) and must issue that
    // same cycle, not when the RD's bound expires.
    for policy in [
        SchedulerPolicy::TransactionBased,
        SchedulerPolicy::proactive(),
    ] {
        let mut c = scenario_controller(&Scenario::new(policy, 0));
        enqueue_read(&mut c, 0, 1, 0, 0);
        c.tick(0);
        c.tick(1);
        enqueue_read(&mut c, 1, 1, 0, 2);
        for cycle in 2..20 {
            c.tick(cycle);
        }
        assert_eq!(
            brief(&c.take_command_events()),
            [(0, "ACT", 0), (2, "ACT", 1), (3, "RD", 0), (5, "RD", 1)],
            "{policy:?}"
        );
    }
    // Under PB the same holds for the lookahead window: a next-transaction
    // request for an idle bank is prepared the cycle it arrives.
    let mut c = scenario_controller(&Scenario::new(SchedulerPolicy::proactive(), 0));
    enqueue_read(&mut c, 0, 1, 0, 0);
    c.tick(0);
    c.tick(1);
    enqueue_read(&mut c, 1, 1, 1, 2);
    for cycle in 2..20 {
        c.tick(cycle);
    }
    let events = c.take_command_events();
    assert_eq!(
        brief(&events)[..3],
        [(0, "ACT", 0), (2, "ACT", 1), (3, "RD", 0)]
    );
    assert_eq!(c.stats().early_activates, 1);
}

#[test]
fn kept_views_equal_the_derivation_after_every_event() {
    // The one referee, called explicitly (debug builds also run it at the
    // end of every `tick` and `try_enqueue`; release builds only here):
    // seeded random interleavings of `try_enqueue` and `tick`, every policy
    // x both page policies x response faults off/on, few rows and banks so
    // lists run deep, hits and conflicts mix and the queues fill. And every
    // tick issues on exactly the channels where the probe finds a command
    // with nothing the controller keeps — a copy of the DRAM taken through
    // the tick's refresh, a copy of the policy asked for the plan, views
    // derived from the queues: the controller never sleeps through one and
    // never scans in vain.
    let faults = ResponseFaultConfig {
        seed: 0xFA57,
        late_rate: 0.2,
        late_delay: 9,
        drop_rate: 0.2,
        saturation_rate: 0.4,
    };
    let policies = [
        SchedulerPolicy::TransactionBased,
        SchedulerPolicy::proactive(),
        SchedulerPolicy::ReadOverWrite { drain_bound: 8 },
        SchedulerPolicy::ProactiveBank { lookahead: 3 },
        SchedulerPolicy::FixedCadence { period: 2 },
        SchedulerPolicy::Unconstrained,
    ];
    for (p, policy) in policies.into_iter().enumerate() {
        for page in [PagePolicy::Open, PagePolicy::Closed] {
            for response_faults in [None, Some(faults)] {
                let mut s = Scenario::new(policy, 0);
                s.page = page;
                s.response_faults = response_faults;
                let mut c = scenario_controller(&s);
                let mut view = ChannelCache::new(c.dram.geometry()).view;
                let seed = 0x5EED ^ (p as u64) << 8 ^ u64::from(page == PagePolicy::Closed) << 4;
                let (mut txn, mut cycle, mut accepted, mut slept) = (0u64, 0u64, 0u64, 0u64);
                for step in 0..6_000u64 {
                    let r = mix64(seed ^ step);
                    if r % 8 < 3 {
                        // Transactions of ~12 requests, the later ones writes.
                        txn += u64::from((r >> 4) % 12 == 11);
                        let a = addr(
                            &c,
                            ((r >> 8) % 2) as u32,
                            ((r >> 12) % 3) as u32,
                            (r >> 16) % 3,
                            ((r >> 24) % 8) as u32,
                        );
                        let spec = RequestSpec {
                            addr: a,
                            is_write: (r >> 32) % 3 == 2,
                            txn: TxnId(txn),
                        };
                        accepted += u64::from(c.try_enqueue(spec, cycle).is_ok());
                    } else {
                        let mut dram = c.dram.clone();
                        dram.tick(cycle);
                        let mut policy = c.policy;
                        let mut want = vec![false; c.queues.len()];
                        if let Some((current, order)) = c.current_txn().zip(policy.plan(cycle)) {
                            let window = (current, policy.lookahead());
                            for (ch, want) in want.iter_mut().enumerate() {
                                let open_row =
                                    |b| dram_bank(&dram, c.banks_per_rank, ch, b).open_row();
                                view.derive(
                                    &c.queues[ch],
                                    open_row,
                                    window,
                                    policy.unconstrained(),
                                );
                                let probe =
                                    schedule::probe(&view, &c.queues[ch], &dram, order, cycle);
                                *want = probe.is_some();
                            }
                        }
                        c.tick(cycle);
                        // The passes' commands carry their transaction;
                        // close-page housekeeping PREs do not.
                        let mut issued = vec![false; want.len()];
                        for e in c.take_command_events() {
                            assert_eq!(e.cycle, cycle);
                            issued[e.cmd.loc.channel as usize] |= e.txn.is_some();
                        }
                        assert_eq!(
                            issued, want,
                            "{policy:?} {page:?}: channels issuing at cycle {cycle}"
                        );
                        slept += u64::from(cycle < c.kept.sleep_until);
                        cycle += 1;
                    }
                    // Between ticks the counts hold as of the last tick.
                    assert!(
                        c.kept_is_derived(),
                        "{policy:?} {page:?} faults {}: step {step}, cycle {cycle}",
                        response_faults.is_some()
                    );
                }
                let retired = c.stats().reads_completed + c.stats().writes_completed;
                assert!(accepted > 800 && retired > 700, "{accepted} / {retired}");
                assert!(slept > 100, "the controller never slept as a whole");
            }
        }
    }
}

#[test]
fn the_referee_sees_each_kept_structure_corrupted() {
    // Not vacuous: each kept structure, corrupted in turn, fails the one
    // `==` — a window filed in the wrong wheel bucket too, which the
    // counts alone would show only when it expired.
    let mut c = scenario_controller(&Scenario::new(SchedulerPolicy::proactive(), 0));
    enqueue_read(&mut c, 1, 5, 0, 0);
    assert!(c.kept_is_derived(), "no window yet");
    c.tick(0);
    assert!(c.kept_is_derived(), "the ACT at 0 keeps bank 1 busy to 3");
    type Corruption = fn(&mut Kept);
    let corruptions: [(&str, Corruption); 7] = [
        ("a fact", |k| {
            k.caches[0].view.banks[1].oldest_current = None
        }),
        ("a list entry", |k| k.caches[0].view.order_current[0] += 1),
        ("a register", |k| k.caches[0].bounds.bank[1][0] += 1),
        ("a want", |k| k.caches[0].bounds.wanting[0][0] ^= 1 << 1),
        ("a window in the next bucket", |k| {
            let wheel = &mut k.ledger.wheel;
            let at = wheel.iter().position(|&n| n > 0).expect("a window");
            wheel[at] -= 1;
            let next = (at + 1) % wheel.len();
            wheel[next] += 1;
        }),
        ("a run's count", |k| k.txn_runs[0].1 += 1),
        ("the open banks", |k| k.open_banks += 1),
    ];
    for (what, corrupt) in corruptions {
        let kept = c.kept.clone();
        corrupt(&mut c.kept);
        assert!(!c.kept_is_derived(), "{what}");
        c.kept = kept;
    }
    assert!(c.kept_is_derived());
}

#[test]
fn the_referee_sees_a_stale_fact() {
    // Not vacuous: a kept view that misses what the queue holds fails.
    let mut c = scenario_controller(&Scenario::new(SchedulerPolicy::proactive(), 0));
    enqueue_read(&mut c, 1, 5, 0, 0);
    assert!(c.kept_is_derived(), "no window yet: nothing to hold");
    c.tick(0);
    assert!(c.kept_is_derived());
    let kept = c.kept.caches[0].view.banks[1];
    assert!(kept.oldest_current.is_some());
    c.kept.caches[0].view.banks[1].oldest_current = None;
    assert!(!c.kept_is_derived(), "a dropped fact");
    c.kept.caches[0].view.banks[1] = kept;
    assert!(c.kept_is_derived());
    c.kept.caches[0].view.order_current.clear();
    assert!(!c.kept_is_derived(), "a dropped list entry");
}

#[test]
fn the_count_referee_sees_a_miscount() {
    // Not vacuous either: each kept count, off by one, fails the referee.
    let mut c = scenario_controller(&Scenario::new(SchedulerPolicy::proactive(), 0));
    enqueue_read(&mut c, 1, 5, 0, 0);
    c.tick(0);
    let slot = c.slot(0, 1);
    assert!(c.kept_is_derived());
    assert_eq!((c.pending(), c.current_txn()), (1, Some(TxnId(0))));
    c.kept.ledger.enqueued(slot, false);
    assert!(!c.kept_is_derived(), "a request too many");
    c.kept.ledger.retired(slot, false);
    c.kept.ledger.retired(slot, true);
    assert!(!c.kept_is_derived(), "a bank (inside its ACT) dropped");
    c.kept.ledger.enqueued(slot, true);
    assert!(c.kept_is_derived());
    let runs = std::mem::take(&mut c.kept.txn_runs);
    assert!(!c.kept_is_derived(), "a transaction forgotten");
    c.kept.txn_runs = runs;
    assert!(c.kept_is_derived());
}

#[test]
#[should_panic(expected = "enqueued in transaction order")]
fn an_older_transaction_after_a_newer_one_panics_in_every_build() {
    // Different banks, so no bank list goes backwards: only the run-list
    // would, and `current_txn()` would then name the wrong transaction.
    let mut c = controller(SchedulerPolicy::proactive());
    enqueue_read(&mut c, 0, 1, 5, 0);
    enqueue_read(&mut c, 1, 1, 4, 0);
}

#[test]
fn counts_hold_when_ticks_skip_or_repeat_a_cycle() {
    // `tick` only requires non-decreasing cycles. A repeated cycle expires
    // nothing and accounts again; a gap expires every window that ended
    // inside it — across the end of the wheel's epoch too.
    let mut c = scenario_controller(&Scenario::new(SchedulerPolicy::proactive(), 0));
    let (mut cycle, mut txn) = (0u64, 0u64);
    for step in 0..4_000u64 {
        let r = mix64(0x6A9 ^ step);
        if r % 4 == 3 {
            txn += u64::from((r >> 4) % 5 == 4);
            let a = addr(
                &c,
                ((r >> 8) % 2) as u32,
                ((r >> 12) % 4) as u32,
                (r >> 16) % 3,
                0,
            );
            let spec = RequestSpec {
                addr: a,
                is_write: (r >> 32) % 3 == 2,
                txn: TxnId(txn),
            };
            let _ = c.try_enqueue(spec, cycle);
        } else {
            c.tick(cycle);
            cycle += match (r >> 40) % 16 {
                0 => 0,
                1 => 2 + (r >> 44) % 9,
                2 => 200 + (r >> 44) % 400,
                _ => 1,
            };
        }
        assert!(c.kept_is_derived(), "step {step}");
    }
    let stats = c.stats();
    let retired = stats.reads_completed + stats.writes_completed;
    assert!(retired > 200, "{retired}");
    assert!(stats.busy_pending_bank_cycles > 0 && stats.stalled_bank_cycles > 0);
}
