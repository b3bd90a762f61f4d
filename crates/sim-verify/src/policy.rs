//! Policy-conformance auditing over the command-event stream.
//!
//! The scheduler-policy lab in `mem-sched` runs five command-scheduling
//! policies through the same controller. Every policy except the
//! explicitly insecure unconstrained ablation promises the same observable
//! contract: the **transaction-ordered data-command sequence** — the
//! multiset of RD/WR operations per transaction, with transactions in
//! non-decreasing id order — is exactly the baseline's. Policies may move
//! PRE/ACT preparation freely and may reorder data commands *within* one
//! transaction (read-priority does), but never across transactions.
//!
//! [`PolicyAuditor`] checks that contract from the outside. It delegates
//! cross-transaction ordering to the `TxnOrderChecker` oracle and folds
//! every data command into a **canonical digest**: per-transaction groups,
//! each sorted by [`DataCmd::operation_key`] before hashing, so two runs
//! that differ only in intra-transaction issue order (or in preparation
//! traffic) produce the same digest. Two policies are observably
//! equivalent iff their auditors report zero violations and equal digests.
//!
//! [`DataCmd::operation_key`]: crate::oracle::DataCmd::operation_key

use dram_sim::CommandKind;
use mem_sched::{CommandEvent, TxnId};
use oram_rng::mix64;

use crate::oracle::TxnOrderChecker;
use crate::violation::Violation;

/// Hashes the on-bus-observable identity of one data command (transaction,
/// location, direction — never the cycle).
fn operation_hash(txn: TxnId, ev: &CommandEvent) -> u64 {
    let loc = ev.cmd.loc;
    let mut h = mix64(txn.0 ^ 0x0BB0_5E55_0D1E_5EED);
    h = mix64(h ^ u64::from(loc.channel));
    h = mix64(h ^ u64::from(loc.rank));
    h = mix64(h ^ u64::from(loc.bank));
    h = mix64(h ^ loc.row);
    h = mix64(h ^ u64::from(loc.column));
    mix64(h ^ u64::from(ev.cmd.kind == CommandKind::Write))
}

/// Streaming auditor for one scheduling policy's observable contract:
/// transaction-ordered data commands plus the canonical (intra-transaction
/// order-insensitive) digest of the data-command sequence.
#[derive(Debug, Clone)]
pub struct PolicyAuditor {
    policy: String,
    order: TxnOrderChecker,
    digest: u64,
    pending_txn: Option<TxnId>,
    pending: Vec<u64>,
    data_commands: u64,
}

impl PolicyAuditor {
    /// An auditor with no history, labelled with the policy under audit.
    #[must_use]
    pub fn new(policy: &str) -> Self {
        Self {
            policy: policy.to_string(),
            order: TxnOrderChecker::new(),
            digest: 0x0BAC_C0DE_5EED_F00D,
            pending_txn: None,
            pending: Vec::new(),
            data_commands: 0,
        }
    }

    /// Name of the policy under audit.
    #[must_use]
    pub fn policy_name(&self) -> &str {
        &self.policy
    }

    /// Observes one trace event. PRE/ACT preparation is ignored — the
    /// contract deliberately lets policies move it.
    pub fn observe(&mut self, ev: &CommandEvent) {
        if !ev.cmd.kind.carries_data() {
            return;
        }
        self.order.observe(ev);
        let Some(txn) = ev.txn else {
            return; // unattributed data: the order checker flagged it
        };
        self.data_commands += 1;
        if self.pending_txn != Some(txn) {
            self.digest = Self::fold_group(self.digest, self.pending_txn, &mut self.pending);
            self.pending.clear();
            self.pending_txn = Some(txn);
        }
        self.pending.push(operation_hash(txn, ev));
    }

    /// Folds one transaction's sorted operation hashes into the chain. A
    /// transaction whose data traffic is split by another's (the ordering
    /// violation) forms two groups and therefore a different digest.
    fn fold_group(mut digest: u64, txn: Option<TxnId>, group: &mut [u64]) -> u64 {
        let Some(txn) = txn else {
            return digest;
        };
        group.sort_unstable();
        digest = mix64(digest ^ txn.0.rotate_left(17));
        for &h in group.iter() {
            digest = mix64(digest.rotate_left(1) ^ h);
        }
        digest
    }

    /// The canonical digest over everything observed so far: equal across
    /// runs iff the transaction-ordered data-command multisets are equal.
    #[must_use]
    pub fn canonical_digest(&self) -> u64 {
        Self::fold_group(self.digest, self.pending_txn, &mut self.pending.clone())
    }

    /// Data (RD/WR) commands observed.
    #[must_use]
    pub fn data_commands(&self) -> u64 {
        self.data_commands
    }

    /// Whether no ordering violation has been found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.order.is_clean()
    }

    /// Takes the accumulated ordering violations, keeping all digest state.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        self.order.take_violations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{DramCommand, DramLocation};

    fn loc(bank: u32, row: u64, column: u32) -> DramLocation {
        DramLocation {
            channel: 0,
            rank: 0,
            bank,
            row,
            column,
        }
    }

    fn rd(cycle: u64, l: DramLocation, txn: u64) -> CommandEvent {
        CommandEvent {
            cycle,
            cmd: DramCommand::read(l),
            txn: Some(TxnId(txn)),
        }
    }

    fn wr(cycle: u64, l: DramLocation, txn: u64) -> CommandEvent {
        CommandEvent {
            cycle,
            cmd: DramCommand::write(l),
            txn: Some(TxnId(txn)),
        }
    }

    #[test]
    fn intra_txn_reorder_keeps_the_digest() {
        let mut a = PolicyAuditor::new("proactive-bank");
        let mut b = PolicyAuditor::new("read-over-write");
        // Same operations; b issues txn 0's read before its write.
        for ev in [
            wr(0, loc(0, 1, 0), 0),
            rd(2, loc(1, 2, 0), 0),
            rd(5, loc(0, 3, 0), 1),
        ] {
            a.observe(&ev);
        }
        for ev in [
            rd(0, loc(1, 2, 0), 0),
            wr(3, loc(0, 1, 0), 0),
            rd(9, loc(0, 3, 0), 1),
        ] {
            b.observe(&ev);
        }
        assert!(a.is_clean() && b.is_clean());
        assert_eq!(a.canonical_digest(), b.canonical_digest());
        assert_eq!(a.data_commands(), 3);
    }

    #[test]
    fn cross_txn_reorder_is_flagged_and_changes_the_digest() {
        let mut ok = PolicyAuditor::new("fr-fcfs");
        let mut bad = PolicyAuditor::new("unconstrained");
        for ev in [rd(0, loc(0, 1, 0), 0), rd(2, loc(1, 2, 0), 1)] {
            ok.observe(&ev);
        }
        // Same operations with txn 1's data overtaking txn 0's.
        for ev in [rd(0, loc(1, 2, 0), 1), rd(2, loc(0, 1, 0), 0)] {
            bad.observe(&ev);
        }
        assert!(ok.take_violations().is_empty());
        let v = bad.take_violations();
        assert_eq!(v.len(), 1);
        assert_ne!(ok.canonical_digest(), bad.canonical_digest());
    }

    #[test]
    fn prep_traffic_and_operation_changes() {
        let mut a = PolicyAuditor::new("pb");
        a.observe(&rd(0, loc(0, 1, 0), 0));
        let before = a.canonical_digest();
        // Early prep for a later transaction: invisible to the contract.
        a.observe(&CommandEvent {
            cycle: 1,
            cmd: DramCommand::activate(loc(3, 9, 0)),
            txn: Some(TxnId(4)),
        });
        assert_eq!(a.canonical_digest(), before);
        // A different operation is visible.
        a.observe(&rd(2, loc(0, 1, 1), 0));
        assert_ne!(a.canonical_digest(), before);
        // The digest is a pure observer: reading it twice agrees.
        assert_eq!(a.canonical_digest(), a.canonical_digest());
    }
}
