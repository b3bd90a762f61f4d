//! The integrated DRAM module: geometry + timing + all channel state.

use crate::address::{AddressMapping, DramLocation, PhysAddr};
use crate::channel::Channel;
use crate::command::{CommandKind, DramCommand, IssueError};
use crate::faults::{mix64, u01, DramFaultConfig};
use crate::geometry::DramGeometry;
use crate::stats::DramStats;
use crate::timing::TimingParams;

/// Live DRAM fault-injection state.
#[derive(Debug, Clone, Copy)]
struct DramFaultState {
    cfg: DramFaultConfig,
    /// Monotone counter keying the weak-row draw for each ACT.
    act_draws: u64,
    /// Number of ACTs that hit an injected weak row.
    weak_row_stalls: u64,
}

/// Effect of successfully issuing a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOutcome {
    /// For RD/WR: the cycle at which the data burst completes. `None` for
    /// ACT/PRE, which carry no data.
    pub data_done_at: Option<u64>,
}

/// A frozen copy of every counter a [`DramModule`] exposes, taken with
/// [`DramModule::snapshot`].
///
/// Two snapshots subtract ([`DramSnapshot::delta`]) to give the activity of a
/// measurement window, so report builders do not have to mirror each counter
/// individually.
#[derive(Debug, Clone)]
pub struct DramSnapshot {
    /// Command counters at snapshot time.
    pub stats: DramStats,
    /// The module's timing parameters (copied so energy models can run on
    /// the snapshot alone).
    pub timing: TimingParams,
    /// Per-bank busy-cycle totals, indexed by bank key.
    pub bank_busy: Vec<u64>,
    /// Total refreshes performed across all ranks.
    pub refreshes: u64,
    /// Refreshes stretched into injected storms.
    pub refresh_storms: u64,
    /// ACTs that hit an injected weak row.
    pub weak_row_stalls: u64,
}

impl DramSnapshot {
    /// Counter-wise difference `self - earlier`, for measurement windows.
    #[must_use]
    pub fn delta(&self, earlier: &Self) -> Self {
        Self {
            stats: self.stats.delta(&earlier.stats),
            timing: self.timing.clone(),
            bank_busy: self
                .bank_busy
                .iter()
                .zip(&earlier.bank_busy)
                .map(|(a, b)| a - b)
                .collect(),
            refreshes: self.refreshes - earlier.refreshes,
            refresh_storms: self.refresh_storms - earlier.refresh_storms,
            weak_row_stalls: self.weak_row_stalls - earlier.weak_row_stalls,
        }
    }

    /// Folds a *disjoint* module's snapshot into `self`, for combining
    /// per-shard DRAM views: counters add, per-bank vectors concatenate
    /// (each shard owns physically distinct banks; callers merge in
    /// shard-id order). The timing parameters are kept from `self` — shards
    /// run identical timing, which the sharded engine guarantees by
    /// constructing every shard from one configuration.
    pub fn merge_from(&mut self, other: &Self) {
        self.stats.merge_from(&other.stats);
        self.bank_busy.extend_from_slice(&other.bank_busy);
        self.refreshes += other.refreshes;
        self.refresh_storms += other.refresh_storms;
        self.weak_row_stalls += other.weak_row_stalls;
    }

    /// Average bank idle proportion over `elapsed` cycles, computed from the
    /// snapshot's per-bank busy totals: `1 - busy/elapsed` averaged over all
    /// banks. Returns 0 when `elapsed` is 0 or the snapshot has no banks.
    #[must_use]
    pub fn average_bank_idle_proportion(&self, elapsed: u64) -> f64 {
        if elapsed == 0 || self.bank_busy.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .bank_busy
            .iter()
            .map(|&b| 1.0 - (b.min(elapsed) as f64 / elapsed as f64))
            .sum();
        total / self.bank_busy.len() as f64
    }
}

/// A cycle-accurate model of a multi-channel DRAM main memory.
///
/// The module is *passive*: it validates and applies commands that a memory
/// controller chooses to issue, enforcing JEDEC timing, bus occupancy and
/// refresh. It never reorders or generates work on its own, so scheduling
/// policy differences (the paper's topic) are entirely the controller's.
///
/// # Examples
///
/// ```
/// use dram_sim::{DramModule, DramCommand, DramLocation};
/// use dram_sim::geometry::DramGeometry;
/// use dram_sim::timing::TimingParams;
///
/// let mut dram = DramModule::new(DramGeometry::test_small(), TimingParams::test_fast());
/// let loc = DramLocation { channel: 0, rank: 0, bank: 0, row: 3, column: 1 };
/// dram.issue(DramCommand::activate(loc), 0).unwrap();
/// let t_rcd = dram.timing().t_rcd;
/// let out = dram.issue(DramCommand::read(loc), t_rcd).unwrap();
/// assert!(out.data_done_at.unwrap() > t_rcd);
/// ```
#[derive(Debug, Clone)]
pub struct DramModule {
    geometry: DramGeometry,
    timing: TimingParams,
    channels: Vec<Channel>,
    stats: DramStats,
    last_tick: u64,
    /// Earliest cycle any rank's refresh becomes due (`u64::MAX` with
    /// refresh disabled), so a tick without one is a single compare.
    next_refresh: u64,
    faults: Option<DramFaultState>,
}

impl DramModule {
    /// Creates a module with every bank precharged.
    ///
    /// # Panics
    ///
    /// Panics if the geometry or timing parameters fail validation.
    #[must_use]
    pub fn new(geometry: DramGeometry, timing: TimingParams) -> Self {
        if let Err(e) = geometry.validate() {
            panic!("invalid DramGeometry: {e}");
        }
        if let Err(e) = timing.validate() {
            panic!("invalid TimingParams: {e}");
        }
        let channels = (0..geometry.channels)
            .map(|_| {
                Channel::new(
                    geometry.ranks_per_channel,
                    geometry.banks_per_rank,
                    geometry.bank_groups,
                    &timing,
                )
            })
            .collect();
        let stats = DramStats::new(&geometry);
        let next_refresh = match timing.t_refi {
            0 => u64::MAX,
            t_refi => t_refi,
        };
        Self {
            geometry,
            timing,
            channels,
            stats,
            last_tick: 0,
            next_refresh,
            faults: None,
        }
    }

    /// Enables deterministic DRAM fault injection (refresh storms and
    /// weak-row stalls; see [`crate::faults`] for the model). Each rank gets
    /// its own storm stream derived from `cfg.seed` and its global index.
    ///
    /// Call before handing the module to a controller — the controller owns
    /// the module and exposes it read-only.
    ///
    /// # Panics
    ///
    /// If `cfg` fails [`DramFaultConfig::validate`].
    pub fn enable_faults(&mut self, cfg: DramFaultConfig) {
        if let Err(e) = cfg.validate() {
            panic!("invalid DramFaultConfig: {e}");
        }
        let ranks = self.geometry.ranks_per_channel;
        for (c, ch) in self.channels.iter_mut().enumerate() {
            for r in 0..ranks {
                let index = c as u64 * u64::from(ranks) + u64::from(r);
                ch.rank_mut(r).enable_refresh_storms(
                    mix64(cfg.seed ^ index),
                    cfg.storm_rate,
                    cfg.storm_factor,
                );
            }
        }
        self.faults = Some(DramFaultState {
            cfg,
            act_draws: 0,
            weak_row_stalls: 0,
        });
    }

    /// Total refreshes stretched into storms across all ranks.
    #[must_use]
    pub fn total_refresh_storms(&self) -> u64 {
        let mut total = 0;
        for ch in &self.channels {
            for r in 0..ch.rank_count() {
                total += ch.rank(r).refresh_storms();
            }
        }
        total
    }

    /// Total ACTs that hit an injected weak row.
    #[must_use]
    pub fn weak_row_stalls(&self) -> u64 {
        self.faults.map_or(0, |f| f.weak_row_stalls)
    }

    /// A module with the paper's Table II configuration.
    #[must_use]
    pub fn hpca_default() -> Self {
        Self::new(DramGeometry::hpca_default(), TimingParams::ddr3_1600())
    }

    /// Freezes every counter the module exposes into one value.
    ///
    /// Reporting layers that want measurement windows snapshot once at the
    /// window start and [`DramSnapshot::delta`] at the end, instead of
    /// tracking each counter separately.
    #[must_use]
    pub fn snapshot(&self) -> DramSnapshot {
        DramSnapshot {
            stats: self.stats.clone(),
            timing: self.timing.clone(),
            bank_busy: self.bank_busy_cycles(),
            refreshes: self.total_refreshes(),
            refresh_storms: self.total_refresh_storms(),
            weak_row_stalls: self.weak_row_stalls(),
        }
    }

    /// The module's geometry.
    #[must_use]
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// The module's timing parameters.
    #[must_use]
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Per-channel state (read-only, for schedulers that want to inspect
    /// open rows).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    #[must_use]
    pub fn channel(&self, channel: u32) -> &Channel {
        &self.channels[channel as usize]
    }

    /// The row currently open in the bank addressed by `loc`, if any.
    #[must_use]
    pub fn open_row(&self, loc: &DramLocation) -> Option<u64> {
        self.channels[loc.channel as usize]
            .rank(loc.rank)
            .bank(loc.bank)
            .open_row()
    }

    /// Total refreshes performed across all ranks.
    #[must_use]
    pub fn total_refreshes(&self) -> u64 {
        let mut total = 0;
        for ch in &self.channels {
            for r in 0..ch.rank_count() {
                total += ch.rank(r).refreshes();
            }
        }
        total
    }

    /// Advances refresh housekeeping to `cycle`. Must be called with
    /// monotonically non-decreasing cycles; typically once per controller
    /// cycle before issuing.
    ///
    /// Returns whether any rank started a refresh this cycle. A refresh
    /// closes every row of its rank and moves its timing registers without
    /// a command being issued, so a scheduler that caches open-row facts,
    /// sleeps on `ready_at` hints or keeps a copy of
    /// [`Self::bank_ready_at`] / [`Self::class_ready_at`] must re-read them
    /// when this is `true`.
    #[inline]
    pub fn tick(&mut self, cycle: u64) -> bool {
        debug_assert!(cycle >= self.last_tick, "time must not go backwards");
        self.last_tick = cycle;
        if cycle < self.next_refresh {
            return false;
        }
        let mut refreshed = false;
        let mut next = u64::MAX;
        for ch in &mut self.channels {
            refreshed |= ch.tick(cycle, &self.timing);
            next = next.min(ch.next_refresh());
        }
        self.next_refresh = next;
        refreshed
    }

    fn check_range(&self, loc: &DramLocation) -> Result<(), IssueError> {
        if loc.channel >= self.geometry.channels
            || loc.rank >= self.geometry.ranks_per_channel
            || loc.bank >= self.geometry.banks_per_rank
            || loc.row >= self.geometry.rows_per_bank
            || loc.column >= self.geometry.columns_per_row
        {
            Err(IssueError::OutOfRange)
        } else {
            Ok(())
        }
    }

    /// Checks whether `cmd` may legally issue at `cycle`, without applying
    /// it. All constraint layers are consulted: command bus, bank state,
    /// bank/rank timing, data-bus occupancy and refresh.
    ///
    /// # Errors
    ///
    /// The first violated constraint, with a `ready_at` hint where known.
    #[inline]
    pub fn can_issue(&self, cmd: &DramCommand, cycle: u64) -> Result<(), IssueError> {
        self.check_range(&cmd.loc)?;
        let ch = &self.channels[cmd.loc.channel as usize];
        ch.can_use_cmd_bus(cycle)?;
        let rank = ch.rank(cmd.loc.rank);
        let bank = rank.bank(cmd.loc.bank);
        match cmd.kind {
            CommandKind::Activate => {
                bank.can_activate(cycle)?;
                rank.can_activate(cycle, &self.timing, cmd.loc.bank)?;
            }
            CommandKind::Precharge => {
                bank.can_precharge(cycle)?;
                rank.can_other(cycle)?;
            }
            CommandKind::Read => {
                bank.can_column(cycle, cmd.loc.row, false)?;
                rank.can_read(cycle, cmd.loc.bank)?;
                ch.can_burst(cycle + self.timing.cl, false, &self.timing)?;
            }
            CommandKind::Write => {
                bank.can_column(cycle, cmd.loc.row, true)?;
                rank.can_write(cycle, cmd.loc.bank)?;
                ch.can_burst(cycle + self.timing.cwl, true, &self.timing)?;
            }
        }
        Ok(())
    }

    /// The timing registers of one bank — its earliest ACT, PRE, RD and WR
    /// cycle (tRC / tRP, tRAS / tRTP / tWR, tRCD / tCCD), indexed by
    /// `CommandKind as usize`.
    ///
    /// Together with [`Self::class_ready_at`] this is all of
    /// [`Self::can_issue`]'s timing: for a command whose *state*
    /// precondition holds (ACT: the bank is precharged; PRE: a row is open;
    /// RD / WR: its row is open) and a `cycle` not before the channel's
    /// last command, `can_issue(cmd, cycle).is_ok()` exactly when `cycle >=
    /// max(bank part, class part)` of the command's kind. The parts move
    /// only inside [`Self::issue`] (of that channel) and when
    /// [`Self::tick`] returns `true`, so a scheduler may keep a copy and
    /// re-read it at those two points instead of asking every cycle.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is out of range.
    #[must_use]
    #[inline]
    pub fn bank_ready_at(&self, channel: u32, rank: u32, bank: u32) -> [u64; 4] {
        self.channels[channel as usize]
            .rank(rank)
            .bank(bank)
            .ready_at()
    }

    /// The timing registers every bank of bank group `group` of a rank
    /// shares, as one bound per command kind (indexed by `CommandKind as
    /// usize`): the rank's refresh in progress, tRRD_S / tRRD_L / the tFAW
    /// window for ACT, tWTR for RD, the group's tCCD_L and the data bus
    /// (turnaround included, minus CL / CWL) for RD and WR, and the
    /// channel's command bus for all four. See [`Self::bank_ready_at`] for
    /// the equality the two hold.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is out of range.
    #[must_use]
    #[inline]
    pub fn class_ready_at(&self, channel: u32, rank: u32, group: u32) -> [u64; 4] {
        let ch = &self.channels[channel as usize];
        let [act, pre, rd, wr] = ch.rank(rank).class_ready_at(group as usize, &self.timing);
        [
            act,
            pre,
            rd.max(ch.burst_ready_at(false, &self.timing)),
            wr.max(ch.burst_ready_at(true, &self.timing)),
        ]
        .map(|r| r.max(ch.cmd_ready_at()))
    }

    /// Issues `cmd` at `cycle`, updating all state and statistics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::can_issue`]; on error no state changes.
    #[inline]
    pub fn issue(&mut self, cmd: DramCommand, cycle: u64) -> Result<IssueOutcome, IssueError> {
        self.can_issue(&cmd, cycle)?;
        let t = &self.timing;
        let key = cmd.loc.bank_key(&self.geometry);
        let ch = &mut self.channels[cmd.loc.channel as usize];
        ch.use_cmd_bus(cycle);
        let rank = ch.rank_mut(cmd.loc.rank);
        let outcome = match cmd.kind {
            CommandKind::Activate => {
                rank.apply_activate(cmd.loc.bank, cycle, cmd.loc.row, t);
                // Weak-row hook: with probability `weak_row_rate` this ACT
                // opened a marginal row that needs extra restore time. The
                // stall only delays later commands, never reorders them.
                if let Some(f) = &mut self.faults {
                    f.act_draws += 1;
                    if f.cfg.weak_row_rate > 0.0
                        && u01(mix64(f.cfg.seed ^ 0x7765_616B ^ f.act_draws)) < f.cfg.weak_row_rate
                    {
                        rank.bank_mut(cmd.loc.bank)
                            .inject_stall(cycle, f.cfg.weak_row_stall);
                        f.weak_row_stalls += 1;
                    }
                }
                IssueOutcome { data_done_at: None }
            }
            CommandKind::Precharge => {
                rank.apply_precharge(cmd.loc.bank, cycle, t);
                IssueOutcome { data_done_at: None }
            }
            CommandKind::Read => {
                let done = rank.apply_read(cmd.loc.bank, cycle, t);
                ch.reserve_burst(cycle + t.cl, false, t);
                IssueOutcome {
                    data_done_at: Some(done),
                }
            }
            CommandKind::Write => {
                let done = rank.apply_write(cmd.loc.bank, cycle, t);
                ch.reserve_burst(cycle + t.cwl, true, t);
                IssueOutcome {
                    data_done_at: Some(done),
                }
            }
        };
        self.stats.record_command(cmd.kind, key);
        Ok(outcome)
    }

    /// Snapshot of each bank's busy-cycle total, indexed by
    /// [`DramLocation::bank_key`]. Combined with elapsed cycles this yields
    /// the bank idle-time proportion of the paper's Fig. 12(a).
    #[must_use]
    pub(crate) fn bank_busy_cycles(&self) -> Vec<u64> {
        let mut v = Vec::with_capacity(self.geometry.total_banks() as usize);
        for ch in &self.channels {
            for r in 0..ch.rank_count() {
                let rank = ch.rank(r);
                for b in 0..rank.bank_count() {
                    v.push(rank.bank(b).busy_cycles());
                }
            }
        }
        v
    }

    /// Decodes `addr` with `mapping` and checks it addresses this module.
    ///
    /// # Errors
    ///
    /// [`IssueError::OutOfRange`] if the decoded coordinates exceed the
    /// geometry.
    pub fn locate(
        &self,
        mapping: &AddressMapping,
        addr: PhysAddr,
    ) -> Result<DramLocation, IssueError> {
        let loc = mapping.decode(addr);
        self.check_range(&loc)?;
        Ok(loc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module() -> DramModule {
        DramModule::new(DramGeometry::test_small(), TimingParams::test_fast())
    }

    fn loc(channel: u32, bank: u32, row: u64, column: u32) -> DramLocation {
        DramLocation {
            channel,
            rank: 0,
            bank,
            row,
            column,
        }
    }

    #[test]
    fn read_requires_open_row() {
        let mut m = module();
        let l = loc(0, 0, 1, 0);
        assert_eq!(
            m.issue(DramCommand::read(l), 0),
            Err(IssueError::BankClosed)
        );
    }

    #[test]
    fn act_then_read_returns_data() {
        let mut m = module();
        let l = loc(0, 0, 1, 0);
        m.issue(DramCommand::activate(l), 0).unwrap();
        let t = m.timing().clone();
        let out = m.issue(DramCommand::read(l), t.t_rcd).unwrap();
        assert_eq!(out.data_done_at, Some(t.t_rcd + t.cl + t.t_burst));
    }

    #[test]
    fn cmd_bus_conflict_across_banks_same_channel() {
        let mut m = module();
        m.issue(DramCommand::activate(loc(0, 0, 1, 0)), 0).unwrap();
        // Same cycle, same channel, different bank: command bus is taken.
        let err = m.can_issue(&DramCommand::activate(loc(0, 1, 1, 0)), 0);
        assert_eq!(err, Err(IssueError::RankTiming { ready_at: 1 }));
        // Different channel is independent.
        assert!(m
            .can_issue(&DramCommand::activate(loc(1, 0, 1, 0)), 0)
            .is_ok());
    }

    #[test]
    fn out_of_range_rejected() {
        let m = module();
        let l = loc(0, 0, m.geometry().rows_per_bank, 0);
        assert_eq!(
            m.can_issue(&DramCommand::activate(l), 0),
            Err(IssueError::OutOfRange)
        );
    }

    #[test]
    fn open_row_visibility() {
        let mut m = module();
        let l = loc(1, 2, 9, 0);
        assert_eq!(m.open_row(&l), None);
        m.issue(DramCommand::activate(l), 0).unwrap();
        assert_eq!(m.open_row(&l), Some(9));
    }

    #[test]
    fn row_conflict_needs_pre_act() {
        let mut m = module();
        let t = m.timing().clone();
        let l1 = loc(0, 0, 1, 0);
        let l2 = loc(0, 0, 2, 0);
        m.issue(DramCommand::activate(l1), 0).unwrap();
        m.issue(DramCommand::read(l1), t.t_rcd).unwrap();
        assert!(matches!(
            m.can_issue(&DramCommand::read(l2), t.t_rcd + 1),
            Err(IssueError::RowMismatch { .. })
        ));
        let pre_at = t.t_ras;
        m.issue(DramCommand::precharge(l2), pre_at).unwrap();
        let act_at = (pre_at + t.t_rp).max(t.t_rc);
        m.issue(DramCommand::activate(l2), act_at).unwrap();
        m.issue(DramCommand::read(l2), act_at + t.t_rcd).unwrap();
    }

    #[test]
    fn idle_proportion_reflects_activity() {
        let mut m = module();
        let t = m.timing().clone();
        // No activity: fully idle.
        assert!((m.snapshot().average_bank_idle_proportion(100) - 1.0).abs() < 1e-12);
        m.issue(DramCommand::activate(loc(0, 0, 1, 0)), 0).unwrap();
        m.issue(DramCommand::read(loc(0, 0, 1, 0)), t.t_rcd)
            .unwrap();
        let idle = m.snapshot().average_bank_idle_proportion(100);
        assert!(idle < 1.0);
        assert!(idle > 0.8, "only one of 8 banks was briefly busy: {idle}");
    }

    #[test]
    fn stats_count_commands() {
        let mut m = module();
        let t = m.timing().clone();
        let l = loc(0, 0, 1, 0);
        m.issue(DramCommand::activate(l), 0).unwrap();
        m.issue(DramCommand::read(l), t.t_rcd).unwrap();
        // The write must clear tCCD, the read burst and the bus turnaround.
        let mut wr_at = t.t_rcd + t.t_ccd;
        while m.can_issue(&DramCommand::write(l), wr_at).is_err() {
            wr_at += 1;
        }
        m.issue(DramCommand::write(l), wr_at).unwrap();
        assert_eq!(m.stats().commands(CommandKind::Activate), 1);
        assert_eq!(m.stats().commands(CommandKind::Read), 1);
        assert_eq!(m.stats().commands(CommandKind::Write), 1);
        assert_eq!(m.stats().commands(CommandKind::Precharge), 0);
    }

    #[test]
    fn locate_checks_geometry() {
        let m = module();
        let mapping = AddressMapping::hpca_default(m.geometry());
        assert!(m.locate(&mapping, PhysAddr(0)).is_ok());
        // Address past capacity wraps in decode but is still in range
        // because decode masks; construct an in-range check explicitly.
        let cap = m.geometry().capacity_bytes();
        let loc = m.locate(&mapping, PhysAddr(cap - 64)).unwrap();
        assert!(loc.row < m.geometry().rows_per_bank);
    }

    #[test]
    fn weak_row_stall_delays_columns_only() {
        let mut m = module();
        m.enable_faults(DramFaultConfig {
            seed: 5,
            weak_row_rate: 1.0,
            weak_row_stall: 10,
            ..DramFaultConfig::default()
        });
        let t = m.timing().clone();
        let l = loc(0, 0, 1, 0);
        m.issue(DramCommand::activate(l), 0).unwrap();
        assert_eq!(m.weak_row_stalls(), 1);
        assert_eq!(m.open_row(&l), Some(1), "row stays open through the stall");
        assert!(matches!(
            m.can_issue(&DramCommand::read(l), t.t_rcd),
            Err(IssueError::BankTiming { .. })
        ));
        assert!(m.can_issue(&DramCommand::read(l), t.t_rcd + 10).is_ok());
    }

    #[test]
    fn zero_rate_faults_are_a_noop() {
        let mut m = module();
        m.enable_faults(DramFaultConfig {
            seed: 5,
            ..DramFaultConfig::default()
        });
        let t = m.timing().clone();
        let l = loc(0, 0, 1, 0);
        m.issue(DramCommand::activate(l), 0).unwrap();
        assert!(m.can_issue(&DramCommand::read(l), t.t_rcd).is_ok());
        assert_eq!(m.weak_row_stalls(), 0);
        assert_eq!(m.total_refresh_storms(), 0);
    }

    #[test]
    fn write_then_read_waits_twtr() {
        let mut m = module();
        let t = m.timing().clone();
        let l = loc(0, 0, 1, 0);
        m.issue(DramCommand::activate(l), 0).unwrap();
        let out = m.issue(DramCommand::write(l), t.t_rcd).unwrap();
        let wr_end = out.data_done_at.unwrap();
        let rd_ready = wr_end + t.t_wtr;
        assert!(matches!(
            m.can_issue(&DramCommand::read(l), rd_ready - 1),
            Err(IssueError::RankTiming { .. })
        ));
        assert!(m.can_issue(&DramCommand::read(l), rd_ready).is_ok());
    }
}
