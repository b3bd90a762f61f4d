//! Property-style tests of the DRAM timing model: a random but legal
//! command driver must never observe a protocol violation, and latencies
//! must respect the JEDEC bounds. Cases come from the in-repo deterministic
//! PRNG so the suite runs identically offline.

use oram_rng::{Rng, StdRng};

use dram_sim::geometry::DramGeometry;
use dram_sim::timing::TimingParams;
use dram_sim::{CommandKind, DramCommand, DramFaultConfig, DramLocation, DramModule, IssueError};

const CASES: u64 = 64;

/// A randomized driver action: which bank to poke and what to attempt.
#[derive(Debug, Clone, Copy)]
struct Action {
    channel: u32,
    bank: u32,
    row: u64,
    column: u32,
    kind_sel: u8,
}

fn actions(rng: &mut StdRng) -> Vec<Action> {
    let n = rng.gen_range(1usize..200);
    (0..n)
        .map(|_| Action {
            channel: rng.gen_range(0u32..2),
            bank: rng.gen_range(0u32..4),
            row: rng.gen_range(0u64..8),
            column: rng.gen_range(0u32..8),
            kind_sel: rng.gen_range(0u8..4),
        })
        .collect()
}

fn kind_of(sel: u8) -> CommandKind {
    match sel {
        0 => CommandKind::Activate,
        1 => CommandKind::Precharge,
        2 => CommandKind::Read,
        _ => CommandKind::Write,
    }
}

/// Fuzz the module with arbitrary commands: `can_issue` gating must be
/// exact (an approved command must apply without panicking), errors must
/// carry usable `ready_at` hints, and time never goes backwards.
#[test]
fn can_issue_gating_is_exact() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let acts = actions(&mut rng);
        let mut dram = DramModule::new(DramGeometry::test_small(), TimingParams::test_fast());
        let mut cycle = 0u64;
        #[allow(clippy::explicit_counter_loop)]
        for a in acts {
            dram.tick(cycle);
            let loc = DramLocation {
                channel: a.channel,
                rank: 0,
                bank: a.bank,
                row: a.row,
                column: a.column,
            };
            let cmd = DramCommand {
                kind: kind_of(a.kind_sel),
                loc,
            };
            match dram.can_issue(&cmd, cycle) {
                Ok(()) => {
                    let out = dram.issue(cmd, cycle).expect("approved commands apply");
                    if cmd.kind.carries_data() {
                        let done = out.data_done_at.expect("data command returns time");
                        assert!(done > cycle);
                    } else {
                        assert!(out.data_done_at.is_none());
                    }
                }
                Err(e) => {
                    if let Some(ready) = e.ready_at() {
                        assert!(ready > cycle, "hint {ready} not in the future");
                    }
                }
            }
            cycle += 1;
        }
    }
}

/// Retrying a timing-blocked command at its `ready_at` hint must make
/// progress (the same constraint no longer fires).
#[test]
fn ready_at_hints_are_honest() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case ^ 0xA0A0);
        let acts = actions(&mut rng);
        let mut dram = DramModule::new(DramGeometry::test_small(), TimingParams::test_fast());
        let mut cycle = 0u64;
        for a in acts {
            dram.tick(cycle);
            let loc = DramLocation {
                channel: a.channel,
                rank: 0,
                bank: a.bank,
                row: a.row,
                column: a.column,
            };
            let cmd = DramCommand {
                kind: kind_of(a.kind_sel),
                loc,
            };
            if let Err(first) = dram.can_issue(&cmd, cycle) {
                if let Some(ready) = first.ready_at() {
                    // At the hinted cycle, the command is either legal or
                    // blocked by a *different* (or later-expiring) constraint.
                    dram.tick(ready);
                    if let Err(second) = dram.can_issue(&cmd, ready) {
                        if let Some(r2) = second.ready_at() {
                            assert!(r2 >= ready, "second hint {r2} before retry time {ready}");
                        }
                    }
                    cycle = ready;
                    continue;
                }
            }
            cycle += 1;
        }
    }
}

/// Data completion time for a read on an open row is exactly CL + BL/2.
#[test]
fn read_latency_is_exact() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case ^ 0xB0B0);
        let row = rng.gen_range(0u64..8);
        let column = rng.gen_range(0u32..8);
        let t = TimingParams::test_fast();
        let mut dram = DramModule::new(DramGeometry::test_small(), t.clone());
        let loc = DramLocation {
            channel: 0,
            rank: 0,
            bank: 0,
            row,
            column,
        };
        dram.issue(DramCommand::activate(loc), 0).unwrap();
        let rd_at = t.t_rcd;
        let out = dram.issue(DramCommand::read(loc), rd_at).unwrap();
        assert_eq!(out.data_done_at, Some(rd_at + t.cl + t.t_burst));
    }
}

/// Driving a full conflict sequence (ACT-RD-PRE-ACT-RD) to any pair of
/// rows always succeeds within the analytic worst-case latency bound.
#[test]
fn conflict_sequence_bounded() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case ^ 0xC0C0);
        let row_a = rng.gen_range(0u64..8);
        let mut row_b = rng.gen_range(0u64..8);
        if row_a == row_b {
            row_b = (row_b + 1) % 8;
        }
        let bank = rng.gen_range(0u32..4);
        let t = TimingParams::test_fast();
        let mut dram = DramModule::new(DramGeometry::test_small(), t.clone());
        let la = DramLocation {
            channel: 0,
            rank: 0,
            bank,
            row: row_a,
            column: 0,
        };
        let lb = DramLocation {
            channel: 0,
            rank: 0,
            bank,
            row: row_b,
            column: 0,
        };
        let mut cycle = 0;
        let issue = |dram: &mut DramModule, cmd: DramCommand, cycle: &mut u64| loop {
            dram.tick(*cycle);
            match dram.issue(cmd, *cycle) {
                Ok(out) => return out,
                Err(
                    IssueError::RowMismatch { .. }
                    | IssueError::BankNotPrecharged
                    | IssueError::BankClosed,
                ) => panic!("state error for {cmd}"),
                Err(_) => *cycle += 1,
            }
        };
        issue(&mut dram, DramCommand::activate(la), &mut cycle);
        issue(&mut dram, DramCommand::read(la), &mut cycle);
        issue(&mut dram, DramCommand::precharge(la), &mut cycle);
        issue(&mut dram, DramCommand::activate(lb), &mut cycle);
        let out = issue(&mut dram, DramCommand::read(lb), &mut cycle);
        // Analytic worst case: tRCD + tRTP gate the PRE, then tRP + tRCD +
        // CL + burst; allow tRAS/tRC slack.
        let bound = t.t_rc + t.t_rp + t.t_rcd + t.cl + t.t_burst + t.t_ras;
        assert!(
            out.data_done_at.unwrap() <= bound,
            "conflict latency {} exceeds bound {}",
            out.data_done_at.unwrap(),
            bound
        );
    }
}

/// Banks are independent: activity in one bank never makes a command in
/// another bank illegal for *bank-level* reasons (only rank/bus-level).
#[test]
fn cross_bank_interference_is_rank_level_only() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case ^ 0xD0D0);
        let n = rng.gen_range(1usize..20);
        let rows: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..8)).collect();
        let t = TimingParams::test_fast();
        let mut dram = DramModule::new(DramGeometry::test_small(), t.clone());
        let mut cycle = 0;
        #[allow(clippy::explicit_counter_loop)]
        for (i, &row) in rows.iter().enumerate() {
            let loc = DramLocation {
                channel: 0,
                rank: 0,
                bank: (i % 2) as u32,
                row,
                column: 0,
            };
            // Drive bank 0 and bank 1 alternately; bank 2 on the other
            // channel stays fresh and must always accept ACT modulo
            // rank-level constraints.
            let probe = DramLocation {
                channel: 1,
                rank: 0,
                bank: 2,
                row: 0,
                column: 0,
            };
            match dram.can_issue(&DramCommand::activate(probe), cycle) {
                Ok(())
                | Err(IssueError::RankTiming { .. })
                | Err(IssueError::RefreshInProgress { .. })
                | Err(IssueError::BankNotPrecharged) => {}
                Err(e) => panic!("unexpected cross-bank error {e:?}"),
            }
            dram.tick(cycle);
            let cmd = if dram.open_row(&loc) == Some(row) {
                DramCommand::read(loc)
            } else if dram.open_row(&loc).is_some() {
                DramCommand::precharge(loc)
            } else {
                DramCommand::activate(loc)
            };
            if dram.can_issue(&cmd, cycle).is_ok() {
                let _ = dram.issue(cmd, cycle);
            }
            cycle += 1;
        }
    }
}

// ---------------------------------------------------------------------
// The properties that make it legal for a scheduler to *sleep* on a
// `ready_at` hint instead of re-probing every cycle: the hint is a lower
// bound on the command cycle, other commands on the channel never make it
// stale, and fault injection only moves it later.
// ---------------------------------------------------------------------

/// The two machines the sleep properties are checked on, refresh on in
/// both: the unit-test geometry (with a refresh every 200 cycles instead
/// of `test_fast`'s never) and the paper's Table II machine.
fn machines() -> [(DramGeometry, TimingParams, usize); 2] {
    let mut fast = TimingParams::test_fast();
    fast.t_refi = 200;
    [
        (DramGeometry::test_small(), fast, 600),
        (
            DramGeometry::hpca_default(),
            TimingParams::ddr3_1600(),
            6_000,
        ),
    ]
}

/// A random location among a few banks, rows and columns of every channel
/// (few enough that hits, conflicts and same-bank sequences all occur).
fn random_loc(rng: &mut StdRng, g: &DramGeometry) -> DramLocation {
    DramLocation {
        channel: rng.gen_range(0..g.channels),
        rank: rng.gen_range(0..g.ranks_per_channel),
        bank: rng.gen_range(0..g.banks_per_rank.min(4)),
        row: rng.gen_range(0u64..3),
        column: rng.gen_range(0u32..4),
    }
}

/// The command a scheduler would try next for `loc`: a column command on
/// a row hit, PRE on a conflict, ACT on a closed bank.
fn useful_command(dram: &DramModule, loc: DramLocation, write: bool) -> DramCommand {
    match dram.open_row(&loc) {
        Some(row) if row == loc.row && write => DramCommand::write(loc),
        Some(row) if row == loc.row => DramCommand::read(loc),
        Some(_) => DramCommand::precharge(loc),
        None => DramCommand::activate(loc),
    }
}

/// Advances `dram` by one step of a seeded random *legal* history: tick,
/// then issue the useful command for a random location if it is legal.
/// Returns the command issued, if any.
fn history_step(dram: &mut DramModule, rng: &mut StdRng, cycle: u64) -> Option<DramCommand> {
    dram.tick(cycle);
    let loc = random_loc(rng, dram.geometry());
    let cmd = useful_command(dram, loc, rng.gen_bool(0.4));
    dram.can_issue(&cmd, cycle).ok()?;
    dram.issue(cmd, cycle).expect("approved commands apply");
    Some(cmd)
}

/// How far ahead a bound is checked cycle by cycle (a refresh storm on
/// the DDR3 machine blocks for 3 x 208 cycles).
const HORIZON: u64 = 700;

/// Asserts `cmd` stays illegal on `dram` for every cycle in `[from, to)`.
fn assert_blocked(dram: &DramModule, cmd: &DramCommand, from: u64, to: u64, why: &str) {
    for c in from..to.min(from + HORIZON) {
        assert!(
            dram.can_issue(cmd, c).is_err(),
            "{why}: {cmd} legal at {c}, before its bound {to}"
        );
    }
}

/// (i) *Lower bound*: if `can_issue(cmd, c)` fails with bound `r`, it fails
/// at every cycle in `[c, r)`. (ii) *Monotone*: a legal command issued to
/// another bank of the channel at some cycle in `[c, r)` never makes `cmd`
/// legal before `r` — nor does a refresh that falls inside the interval.
#[test]
fn ready_at_is_a_lower_bound_other_commands_cannot_undercut() {
    for (geometry, timing, steps) in machines() {
        for case in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(case ^ 0xE0E0);
            let mut dram = DramModule::new(geometry.clone(), timing.clone());
            let mut bounds_checked = 0u32;
            let mut cycle = 0u64;
            for _ in 0..steps {
                history_step(&mut dram, &mut rng, cycle);
                // Probe what a scheduler might want next, anywhere.
                let probe =
                    useful_command(&dram, random_loc(&mut rng, &geometry), rng.gen_bool(0.4));
                if let Err(e) = dram.can_issue(&probe, cycle) {
                    if let Some(r) = e.ready_at() {
                        assert!(r > cycle, "{e:?} at {cycle}");
                        assert_blocked(&dram, &probe, cycle, r, "untouched");
                        // Disturb a copy: advance it (refreshes included)
                        // to a cycle inside the interval and issue
                        // something legal to another bank there.
                        let mut other = dram.clone();
                        let at = rng.gen_range(cycle..r.min(cycle + HORIZON));
                        for c in cycle + 1..=at {
                            other.tick(c);
                        }
                        for _ in 0..8 {
                            let mut loc = random_loc(&mut rng, &geometry);
                            loc.channel = probe.loc.channel;
                            if (loc.rank, loc.bank) == (probe.loc.rank, probe.loc.bank) {
                                continue;
                            }
                            let cmd = useful_command(&other, loc, rng.gen_bool(0.4));
                            if other.can_issue(&cmd, at).is_ok() {
                                other.issue(cmd, at).expect("approved commands apply");
                                break;
                            }
                        }
                        assert_blocked(&other, &probe, at, r, "after another bank's command");
                        bounds_checked += 1;
                    }
                }
                cycle += rng.gen_range(1u64..4);
            }
            assert!(dram.total_refreshes() > 0, "refresh must be exercised");
            assert!(bounds_checked > 50, "only {bounds_checked} bounds met");
        }
    }
}

/// The first cycle from `from` on at which `cmd` is legal on `dram` as it
/// stands, found by following the hints; `None` for a state error.
fn earliest_legal(dram: &DramModule, cmd: &DramCommand, from: u64) -> Option<u64> {
    let mut cycle = from;
    loop {
        match dram.can_issue(cmd, cycle) {
            Ok(()) => return Some(cycle),
            Err(e) => cycle = e.ready_at()?,
        }
    }
}

/// (iii) Refresh storms and weak-row stalls only move bounds later: on the
/// same command history a faulty module refuses whatever the healthy one
/// refuses, a command's first legal cycle is never earlier than on the
/// healthy one, and the faulty module's hints are still lower bounds.
#[test]
fn faults_only_move_bounds_later() {
    for (geometry, timing, steps) in machines() {
        let (mut storms, mut stalls) = (0, 0);
        for case in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(case ^ 0xF0F0);
            let mut healthy = DramModule::new(geometry.clone(), timing.clone());
            let mut faulty = healthy.clone();
            faulty.enable_faults(DramFaultConfig {
                seed: case,
                storm_rate: 0.5,
                storm_factor: 3,
                weak_row_rate: 0.3,
                weak_row_stall: 7,
            });
            let mut cycle = 0u64;
            for _ in 0..steps {
                // The history is legal on the faulty module, hence (faults
                // only delay) legal on the healthy one: both stay in the
                // same bank states.
                healthy.tick(cycle);
                if let Some(cmd) = history_step(&mut faulty, &mut rng, cycle) {
                    healthy
                        .issue(cmd, cycle)
                        .expect("legal with faults implies legal without");
                }
                let probe =
                    useful_command(&faulty, random_loc(&mut rng, &geometry), rng.gen_bool(0.4));
                if healthy.can_issue(&probe, cycle).is_err() {
                    assert!(
                        faulty.can_issue(&probe, cycle).is_err(),
                        "faults made {probe} legal at {cycle}"
                    );
                }
                if let (Some(h), Some(f)) = (
                    earliest_legal(&healthy, &probe, cycle),
                    earliest_legal(&faulty, &probe, cycle),
                ) {
                    assert!(f >= h, "{probe} from {cycle}: legal at {f} < {h}");
                }
                if let Err(f) = faulty.can_issue(&probe, cycle) {
                    if let Some(r) = f.ready_at() {
                        assert_blocked(&faulty, &probe, cycle, r, "with faults");
                    }
                }
                cycle += rng.gen_range(1u64..4);
            }
            storms += faulty.total_refresh_storms();
            stalls += faulty.weak_row_stalls();
        }
        assert!(storms > 0, "storms must fire");
        assert!(stalls > 0, "weak rows must stall");
    }
}

// ---------------------------------------------------------------------
// The property that lets a scheduler *mirror* the timing registers instead
// of learning bounds from refusals: `bank_ready_at` and `class_ready_at`
// are all of `can_issue`'s timing, and they move only where documented.
// ---------------------------------------------------------------------

/// The machines the split is checked on, refresh on in all: the two of
/// [`machines`], DDR4-2400 with sixteen banks in four bank groups, and two
/// ranks of eight banks in four groups behind each channel.
fn split_machines() -> Vec<(DramGeometry, TimingParams, usize)> {
    let mut ddr4 = TimingParams::ddr4_2400();
    ddr4.t_refi = 2_000;
    let two_ranks = DramGeometry {
        ranks_per_channel: 2,
        banks_per_rank: 8,
        bank_groups: 4,
        ..DramGeometry::test_small()
    };
    let mut all = machines().to_vec();
    all.push((DramGeometry::ddr4_default(), ddr4.clone(), 3_000));
    all.push((two_ranks, ddr4, 3_000));
    all
}

/// Every bank part and every class part of one channel.
fn channel_parts(dram: &DramModule, channel: u32) -> Vec<[u64; 4]> {
    let g = dram.geometry();
    let mut parts = Vec::new();
    for rank in 0..g.ranks_per_channel {
        for bank in 0..g.banks_per_rank {
            parts.push(dram.bank_ready_at(channel, rank, bank));
        }
        for group in 0..g.bank_groups {
            parts.push(dram.class_ready_at(channel, rank, group));
        }
    }
    parts
}

/// Checks the split for every command kind the state of (`channel`,
/// `rank`, `bank`) admits — ACT on a closed bank; PRE, RD and WR of the open
/// row on an open one — at `now ..= now + 64` and around each bound.
/// Returns the number of (kind, cycle) points compared.
fn assert_split(dram: &DramModule, channel: u32, rank: u32, bank: u32, now: u64) -> u64 {
    let mut loc = DramLocation {
        channel,
        rank,
        bank,
        row: 0,
        column: 0,
    };
    let kinds: &[CommandKind] = match dram.open_row(&loc) {
        Some(row) => {
            loc.row = row;
            &[
                CommandKind::Precharge,
                CommandKind::Read,
                CommandKind::Write,
            ]
        }
        None => &[CommandKind::Activate],
    };
    let bank_part = dram.bank_ready_at(channel, rank, bank);
    let class_part = dram.class_ready_at(channel, rank, bank % dram.geometry().bank_groups);
    let mut points = 0;
    for &kind in kinds {
        let cmd = DramCommand { kind, loc };
        let (b, c) = (bank_part[kind as usize], class_part[kind as usize]);
        let around = [b, c].into_iter().flat_map(|r| r.saturating_sub(1)..=r + 1);
        for cycle in (now..=now + 64).chain(around.filter(|&at| at >= now)) {
            assert_eq!(
                dram.can_issue(&cmd, cycle).is_ok(),
                cycle >= b.max(c),
                "{cmd} at {cycle} (now {now}): bank part {b}, class part {c}"
            );
            points += 1;
        }
    }
    points
}

/// `can_issue(cmd, c).is_ok()` ⟺ state precondition ∧ `c ≥ max(bank part,
/// class part)`, from the present cycle on; and the parts of a channel do
/// not move across a `can_issue`, a `tick` that returns `false`, or a
/// command to another channel — healthy and with refresh storms and weak
/// rows.
#[test]
fn the_ready_at_split_is_all_of_can_issue() {
    for (geometry, timing, steps) in split_machines() {
        for faults in [false, true] {
            let (mut points, mut kinds_issued) = (0u64, [0u32; 4]);
            let (mut refreshes, mut storms, mut stalls) = (0, 0, 0);
            for case in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(case ^ 0x5117);
                let mut dram = DramModule::new(geometry.clone(), timing.clone());
                if faults {
                    dram.enable_faults(DramFaultConfig {
                        seed: case,
                        storm_rate: 0.5,
                        storm_factor: 3,
                        weak_row_rate: 0.3,
                        weak_row_stall: 7,
                    });
                }
                let mut cycle = 0u64;
                for step in 0..steps {
                    let before: Vec<_> = (0..geometry.channels)
                        .map(|ch| channel_parts(&dram, ch))
                        .collect();
                    let refreshed = dram.tick(cycle);
                    // Up to eight banks per rank, so banks of one group meet.
                    let mut loc = random_loc(&mut rng, &geometry);
                    loc.bank = rng.gen_range(0..geometry.banks_per_rank.min(8));
                    let cmd = useful_command(&dram, loc, rng.gen_bool(0.4));
                    let issued = dram.can_issue(&cmd, cycle).is_ok();
                    if issued {
                        dram.issue(cmd, cycle).expect("approved commands apply");
                        kinds_issued[cmd.kind as usize] += 1;
                    }
                    let after: Vec<_> = (0..geometry.channels)
                        .map(|ch| channel_parts(&dram, ch))
                        .collect();
                    for ch in 0..geometry.channels {
                        let commanded = issued && cmd.loc.channel == ch;
                        if !refreshed && !commanded {
                            assert_eq!(
                                before[ch as usize], after[ch as usize],
                                "channel {ch} moved without a command or a refresh at {cycle}"
                            );
                        }
                    }
                    // The bank just addressed and a random one on every
                    // step; every bank of the module on every 16th.
                    points += assert_split(&dram, loc.channel, loc.rank, loc.bank, cycle);
                    let other = random_loc(&mut rng, &geometry);
                    points += assert_split(&dram, other.channel, other.rank, other.bank, cycle);
                    if step % 16 == 0 {
                        for ch in 0..geometry.channels {
                            for rank in 0..geometry.ranks_per_channel {
                                for bank in 0..geometry.banks_per_rank {
                                    points += assert_split(&dram, ch, rank, bank, cycle);
                                }
                            }
                        }
                    }
                    for ch in 0..geometry.channels {
                        assert_eq!(
                            channel_parts(&dram, ch),
                            after[ch as usize],
                            "`can_issue` moved a register"
                        );
                    }
                    cycle += rng.gen_range(1u64..4);
                }
                refreshes += dram.total_refreshes();
                storms += dram.total_refresh_storms();
                stalls += dram.weak_row_stalls();
            }
            assert!(refreshes > 0, "refresh must be exercised");
            assert!(kinds_issued.iter().all(|&n| n > 20), "{kinds_issued:?}");
            assert!(points > 100_000, "only {points} points compared");
            if faults {
                assert!(storms > 0 && stalls > 0, "{storms} storms, {stalls} stalls");
            }
        }
    }
}
