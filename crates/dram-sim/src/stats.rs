//! Aggregate DRAM-side statistics.

use crate::command::CommandKind;
use crate::geometry::DramGeometry;

/// Counters accumulated by [`crate::module::DramModule`] as commands issue.
///
/// Row-buffer hit/miss/conflict classification is intentionally *not* done
/// here: the paper classifies per memory *request* at scheduling time (so
/// that the proactive scheduler does not change the counts), which is the
/// memory controller's knowledge, not the DRAM's.
#[derive(Debug, Clone)]
pub struct DramStats {
    activates: u64,
    precharges: u64,
    reads: u64,
    writes: u64,
    per_bank_commands: Vec<u64>,
}

impl DramStats {
    /// Fresh counters sized for `geometry`.
    #[must_use]
    pub fn new(geometry: &DramGeometry) -> Self {
        Self {
            activates: 0,
            precharges: 0,
            reads: 0,
            writes: 0,
            per_bank_commands: vec![0; geometry.total_banks() as usize],
        }
    }

    /// Records one command of `kind` to the bank identified by `bank_key`.
    pub(crate) fn record_command(&mut self, kind: CommandKind, bank_key: u32) {
        match kind {
            CommandKind::Activate => self.activates += 1,
            CommandKind::Precharge => self.precharges += 1,
            CommandKind::Read => self.reads += 1,
            CommandKind::Write => self.writes += 1,
        }
        if let Some(c) = self.per_bank_commands.get_mut(bank_key as usize) {
            *c += 1;
        }
    }

    /// Number of commands of `kind` issued so far.
    #[must_use]
    pub fn commands(&self, kind: CommandKind) -> u64 {
        match kind {
            CommandKind::Activate => self.activates,
            CommandKind::Precharge => self.precharges,
            CommandKind::Read => self.reads,
            CommandKind::Write => self.writes,
        }
    }

    /// Total commands of all kinds.
    #[must_use]
    pub fn total_commands(&self) -> u64 {
        self.activates + self.precharges + self.reads + self.writes
    }

    /// Counter-wise difference `self - earlier`, for measurement windows.
    #[must_use]
    pub fn delta(&self, earlier: &Self) -> Self {
        Self {
            activates: self.activates - earlier.activates,
            precharges: self.precharges - earlier.precharges,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            per_bank_commands: self
                .per_bank_commands
                .iter()
                .zip(&earlier.per_bank_commands)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Folds the counters of a *disjoint* module into `self`, for combining
    /// per-shard DRAM statistics. Command counts add; `per_bank_commands`
    /// concatenates, since each shard owns physically distinct banks
    /// (callers merging shards do so in shard-id order, keeping the bank
    /// ordering deterministic).
    pub fn merge_from(&mut self, other: &Self) {
        self.activates += other.activates;
        self.precharges += other.precharges;
        self.reads += other.reads;
        self.writes += other.writes;
        self.per_bank_commands
            .extend_from_slice(&other.per_bank_commands);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_by_kind() {
        let mut s = DramStats::new(&DramGeometry::test_small());
        s.record_command(CommandKind::Activate, 0);
        s.record_command(CommandKind::Read, 0);
        s.record_command(CommandKind::Read, 1);
        s.record_command(CommandKind::Write, 2);
        s.record_command(CommandKind::Precharge, 0);
        assert_eq!(s.commands(CommandKind::Activate), 1);
        assert_eq!(s.commands(CommandKind::Read), 2);
        assert_eq!(s.commands(CommandKind::Write), 1);
        assert_eq!(s.commands(CommandKind::Precharge), 1);
        assert_eq!(s.total_commands(), 5);
    }

    #[test]
    fn per_bank_distribution() {
        let mut s = DramStats::new(&DramGeometry::test_small());
        s.record_command(CommandKind::Read, 3);
        s.record_command(CommandKind::Read, 3);
        assert_eq!(s.per_bank_commands[3], 2);
        assert_eq!(s.per_bank_commands[0], 0);
    }
}
