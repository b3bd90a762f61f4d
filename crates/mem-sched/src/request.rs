//! Memory requests and their scheduling lifecycle.

use dram_sim::{DramLocation, PhysAddr};

/// Identifier of an ORAM transaction: all memory requests belonging to the
/// same ORAM operation (read path, eviction, reshuffle) share one id, and
/// ids are issued in strictly increasing protocol order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Row-buffer outcome of a request, classified at the moment the scheduler
/// issues the *first* command on the request's behalf:
///
/// * the bank already had the right row open → [`RowClass::Hit`];
/// * the bank was precharged → [`RowClass::Miss`] (ACT needed);
/// * another row was open → [`RowClass::Conflict`] (PRE + ACT needed).
///
/// Because classification happens when the need is *determined* rather than
/// when the data moves, the Proactive Bank scheduler reports identical
/// counts to the baseline — it only shifts PRE/ACT issue time, exactly as
/// the paper argues ("without reducing or changing the number of row buffer
/// conflicts").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowClass {
    /// Row already open: RD/WR only.
    Hit,
    /// Bank precharged: ACT + RD/WR.
    Miss,
    /// Wrong row open: PRE + ACT + RD/WR.
    Conflict,
}

/// A request as submitted by the ORAM controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpec {
    /// Physical byte address of the block.
    pub addr: PhysAddr,
    /// `true` for a write-back, `false` for a read.
    pub is_write: bool,
    /// Owning ORAM transaction.
    pub txn: TxnId,
}

/// Internal scheduling state of a queued request.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    /// Monotonic id assigned at enqueue (also the global age order).
    pub id: u64,
    pub txn: TxnId,
    pub loc: DramLocation,
    pub is_write: bool,
    /// Cycle the request entered the queue.
    pub arrival: u64,
    /// Cycle of the first command issued on this request's behalf.
    pub first_cmd_at: Option<u64>,
    /// Row-buffer classification (set with the first command).
    pub class: Option<RowClass>,
}

impl Request {
    /// Records the first command issued for this request, classifying it.
    pub(crate) fn record_first_command(&mut self, cycle: u64, class: RowClass) {
        if self.first_cmd_at.is_none() {
            self.first_cmd_at = Some(cycle);
            self.class = Some(class);
        }
    }
}

/// A finished request, handed back to the ORAM/system layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completed {
    /// Enqueue id.
    pub id: u64,
    /// Owning transaction.
    pub txn: TxnId,
    /// Direction.
    pub is_write: bool,
    /// Cycle the request entered the queue.
    pub arrival: u64,
    /// Cycle the first command was issued for it.
    pub first_cmd_at: u64,
    /// Cycle the RD/WR command was issued.
    pub issue_at: u64,
    /// Cycle the data burst completed.
    pub data_done_at: u64,
    /// Row-buffer outcome.
    pub class: RowClass,
}

impl Completed {
    /// Queueing delay: from arrival to the first command issued on the
    /// request's behalf (the paper's "memory request queuing time").
    #[must_use]
    pub(crate) fn queue_wait(&self) -> u64 {
        self.first_cmd_at.saturating_sub(self.arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_ids_order() {
        assert!(TxnId(1) < TxnId(2));
        assert_eq!(TxnId(3).to_string(), "T3");
    }

    #[test]
    fn first_command_classification_is_sticky() {
        let mut r = Request {
            id: 0,
            txn: TxnId(0),
            loc: DramLocation {
                channel: 0,
                rank: 0,
                bank: 0,
                row: 0,
                column: 0,
            },
            is_write: false,
            arrival: 5,
            first_cmd_at: None,
            class: None,
        };
        r.record_first_command(10, RowClass::Conflict);
        r.record_first_command(12, RowClass::Hit); // ignored
        assert_eq!(r.first_cmd_at, Some(10));
        assert_eq!(r.class, Some(RowClass::Conflict));
    }

    #[test]
    fn completed_derived_metrics() {
        let c = Completed {
            id: 1,
            txn: TxnId(2),
            is_write: false,
            arrival: 100,
            first_cmd_at: 130,
            issue_at: 150,
            data_done_at: 165,
            class: RowClass::Miss,
        };
        assert_eq!(c.queue_wait(), 30);
    }
}
