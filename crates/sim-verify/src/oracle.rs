//! Differential-run primitives.
//!
//! The paper's Proactive Bank scheduler is only secure if its *data*
//! command sequence (RD/WR — the commands an attacker on the memory bus can
//! attribute to transactions) is indistinguishable from the baseline
//! transaction-based scheduler's. This module extracts that sequence from a
//! recorded command trace, checks the transaction-order contract on it, and
//! locates the first divergence between two runs that must agree.

use dram_sim::{CommandKind, DramLocation};
use mem_sched::{CommandEvent, TxnId};

use crate::violation::{Rule, Violation};

/// One data (RD/WR) command from a trace, reduced to the fields an
/// on-bus observer can see and attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataCmd {
    /// Transaction the command served.
    pub txn: TxnId,
    /// The DRAM coordinates accessed.
    pub loc: DramLocation,
    /// `true` for WR, `false` for RD.
    pub is_write: bool,
    /// Issue cycle (informational; excluded from equality of *operations*).
    pub cycle: u64,
}

impl DataCmd {
    /// Whether two commands are the same *operation* — same transaction,
    /// same location, same direction — regardless of when they issued.
    /// Differential runs compare operations, since absolute cycles shift
    /// with scheduling.
    #[must_use]
    pub(crate) fn same_operation(&self, other: &Self) -> bool {
        self.txn == other.txn && self.loc == other.loc && self.is_write == other.is_write
    }

    /// A sortable/groupable key for the operation (ignores the cycle).
    #[must_use]
    pub fn operation_key(&self) -> (u64, u32, u32, u32, u64, u32, bool) {
        (
            self.txn.0,
            self.loc.channel,
            self.loc.rank,
            self.loc.bank,
            self.loc.row,
            self.loc.column,
            self.is_write,
        )
    }
}

/// Extracts the data-command sequence from a trace, in issue order.
///
/// PRE/ACT preparation commands are dropped: the security contract
/// deliberately lets the Proactive Bank scheduler move those. Data commands
/// are always transaction-attributed by the controller; an unattributed one
/// is a controller bug, which [`check_txn_order`] reports.
#[must_use]
pub fn data_commands(trace: &[CommandEvent]) -> Vec<DataCmd> {
    trace
        .iter()
        .filter(|ev| ev.cmd.kind.carries_data())
        .filter_map(|ev| {
            ev.txn.map(|txn| DataCmd {
                txn,
                loc: ev.cmd.loc,
                is_write: ev.cmd.kind == CommandKind::Write,
                cycle: ev.cycle,
            })
        })
        .collect()
}

/// Incremental form of [`check_txn_order`], for streaming a long run's
/// trace through without retaining it.
#[derive(Debug, Clone, Default)]
pub(crate) struct TxnOrderChecker {
    highest: Option<TxnId>,
    violations: Vec<Violation>,
}

impl TxnOrderChecker {
    /// Creates a checker with no history.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Observes one trace event (non-data commands are ignored).
    pub(crate) fn observe(&mut self, ev: &CommandEvent) {
        if !ev.cmd.kind.carries_data() {
            return;
        }
        match ev.txn {
            None => self.violations.push(Violation::new(
                ev.cycle,
                Rule::TxnOrder,
                format!("{} carries data but has no transaction attribution", ev.cmd),
            )),
            Some(txn) => {
                if let Some(h) = self.highest {
                    if txn < h {
                        self.violations.push(Violation::new(
                            ev.cycle,
                            Rule::TxnOrder,
                            format!(
                                "{} of txn {} issued after data traffic of txn {}",
                                ev.cmd, txn.0, h.0
                            ),
                        ));
                    }
                }
                self.highest = Some(self.highest.map_or(txn, |h| h.max(txn)));
            }
        }
    }

    /// Takes the accumulated violations, keeping the high-water mark.
    pub(crate) fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Whether no violation has been found.
    #[must_use]
    pub(crate) fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks the transaction-order security contract on a trace: every data
/// command must be attributed to a transaction, and the attributed
/// transaction ids must be non-decreasing in issue order — all of
/// transaction *t*'s data traffic finishes before transaction *t+1*'s
/// starts, exactly as under the baseline transaction-based scheduler.
#[must_use]
pub fn check_txn_order(trace: &[CommandEvent]) -> Vec<Violation> {
    let mut checker = TxnOrderChecker::new();
    for ev in trace {
        checker.observe(ev);
    }
    checker.take_violations()
}

/// Groups a data-command sequence by transaction, ordered by transaction
/// id. Within each group the commands keep their issue order.
#[must_use]
pub fn grouped_by_txn(cmds: &[DataCmd]) -> Vec<(TxnId, Vec<DataCmd>)> {
    let mut groups: std::collections::BTreeMap<TxnId, Vec<DataCmd>> =
        std::collections::BTreeMap::new();
    for &c in cmds {
        groups.entry(c.txn).or_default().push(c);
    }
    groups.into_iter().collect()
}

/// Finds the first position at which two data-command sequences stop being
/// the same operation stream (cycles are ignored; see
/// `DataCmd::same_operation`). Returns `None` when the sequences agree,
/// otherwise the diverging index and each side's command there (`None` for
/// a side that ran out).
#[must_use]
pub fn first_divergence(
    a: &[DataCmd],
    b: &[DataCmd],
) -> Option<(usize, Option<DataCmd>, Option<DataCmd>)> {
    let n = a.len().max(b.len());
    for i in 0..n {
        match (a.get(i), b.get(i)) {
            (Some(x), Some(y)) if x.same_operation(y) => {}
            (ga, gb) => return Some((i, ga.copied(), gb.copied())),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::DramCommand;

    fn loc(bank: u32, row: u64, column: u32) -> DramLocation {
        DramLocation {
            channel: 0,
            rank: 0,
            bank,
            row,
            column,
        }
    }

    fn ev(cycle: u64, cmd: DramCommand, txn: Option<u64>) -> CommandEvent {
        CommandEvent {
            cycle,
            cmd,
            txn: txn.map(TxnId),
        }
    }

    #[test]
    fn data_commands_drops_prep_and_keeps_order() {
        let trace = vec![
            ev(0, DramCommand::activate(loc(0, 1, 0)), Some(0)),
            ev(3, DramCommand::read(loc(0, 1, 0)), Some(0)),
            ev(4, DramCommand::precharge(loc(1, 2, 0)), None),
            ev(6, DramCommand::write(loc(0, 1, 1)), Some(1)),
        ];
        let data = data_commands(&trace);
        assert_eq!(data.len(), 2);
        assert!(!data[0].is_write);
        assert_eq!(data[0].txn, TxnId(0));
        assert!(data[1].is_write);
        assert_eq!(data[1].cycle, 6);
    }

    #[test]
    fn txn_order_accepts_monotone_and_rejects_interleaved() {
        let ok = vec![
            ev(0, DramCommand::read(loc(0, 1, 0)), Some(0)),
            ev(2, DramCommand::read(loc(1, 1, 0)), Some(0)),
            ev(4, DramCommand::write(loc(0, 1, 1)), Some(1)),
        ];
        assert!(check_txn_order(&ok).is_empty());

        let bad = vec![
            ev(0, DramCommand::read(loc(0, 1, 0)), Some(1)),
            ev(2, DramCommand::read(loc(1, 1, 0)), Some(0)), // regresses
        ];
        let v = check_txn_order(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::TxnOrder);

        let unattributed = vec![ev(0, DramCommand::read(loc(0, 1, 0)), None)];
        assert_eq!(check_txn_order(&unattributed).len(), 1);
    }

    #[test]
    fn prep_commands_may_interleave_across_txns() {
        // The PB scheduler's whole point: ACT/PRE of a later transaction
        // may issue early. The contract must not flag that.
        let trace = vec![
            ev(0, DramCommand::read(loc(0, 1, 0)), Some(0)),
            ev(1, DramCommand::activate(loc(1, 5, 0)), Some(1)), // early prep
            ev(2, DramCommand::read(loc(0, 1, 1)), Some(0)),
            ev(5, DramCommand::read(loc(1, 5, 0)), Some(1)),
        ];
        assert!(check_txn_order(&trace).is_empty());
    }

    #[test]
    fn grouping_and_divergence() {
        let a = data_commands(&[
            ev(0, DramCommand::read(loc(0, 1, 0)), Some(0)),
            ev(2, DramCommand::read(loc(1, 2, 0)), Some(0)),
            ev(4, DramCommand::write(loc(0, 1, 1)), Some(1)),
        ]);
        let groups = grouped_by_txn(&a);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1.len(), 2);

        // Same operations at different cycles: no divergence.
        let mut b = a.clone();
        for c in &mut b {
            c.cycle += 17;
        }
        assert!(first_divergence(&a, &b).is_none());

        // Flip a direction: diverges at index 2.
        b[2].is_write = false;
        let (i, ga, gb) = first_divergence(&a, &b).unwrap();
        assert_eq!(i, 2);
        assert!(ga.unwrap().is_write);
        assert!(!gb.unwrap().is_write);

        // Truncation diverges at the missing index.
        let (i, _, gb) = first_divergence(&a, &a[..2]).unwrap();
        assert_eq!(i, 2);
        assert!(gb.is_none());
    }
}
