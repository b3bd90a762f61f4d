//! DRAM commands as issued on the command bus.

use crate::address::DramLocation;

/// The kind of a DRAM command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Open (`ACT`) a row: copy it into the bank's row buffer.
    Activate,
    /// Close (`PRE`) the open row: restore the row buffer to the array.
    Precharge,
    /// Read (`RD`) a column from the open row buffer.
    Read,
    /// Write (`WR`) a column into the open row buffer.
    Write,
}

impl CommandKind {
    /// Whether the command transfers data on the data bus.
    #[must_use]
    pub fn carries_data(self) -> bool {
        matches!(self, Self::Read | Self::Write)
    }

    /// Short mnemonic used in traces and reports (`ACT`, `PRE`, `RD`, `WR`).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Self::Activate => "ACT",
            Self::Precharge => "PRE",
            Self::Read => "RD",
            Self::Write => "WR",
        }
    }
}

impl std::fmt::Display for CommandKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A fully specified DRAM command: what to do and where.
///
/// For [`CommandKind::Precharge`] only the bank coordinates are meaningful;
/// for [`CommandKind::Activate`] the row is the row to open; for column
/// commands the row must match the bank's open row and `column` selects the
/// cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramCommand {
    /// Command type.
    pub kind: CommandKind,
    /// Target coordinates.
    pub loc: DramLocation,
}

impl DramCommand {
    /// Creates an ACT command opening `loc.row` in `loc`'s bank.
    #[must_use]
    pub fn activate(loc: DramLocation) -> Self {
        Self {
            kind: CommandKind::Activate,
            loc,
        }
    }

    /// Creates a PRE command closing `loc`'s bank.
    #[must_use]
    pub fn precharge(loc: DramLocation) -> Self {
        Self {
            kind: CommandKind::Precharge,
            loc,
        }
    }

    /// Creates a RD command for `loc`'s column.
    #[must_use]
    pub fn read(loc: DramLocation) -> Self {
        Self {
            kind: CommandKind::Read,
            loc,
        }
    }

    /// Creates a WR command for `loc`'s column.
    #[must_use]
    pub fn write(loc: DramLocation) -> Self {
        Self {
            kind: CommandKind::Write,
            loc,
        }
    }
}

impl std::fmt::Display for DramCommand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ch{} rk{} bk{} row{} col{}",
            self.kind,
            self.loc.channel,
            self.loc.rank,
            self.loc.bank,
            self.loc.row,
            self.loc.column
        )
    }
}

/// Why a command could not be issued at a given cycle.
///
/// Returned by `DramModule::can_issue`; schedulers treat any error as "try
/// again later (or try another command)".
///
/// Every `ready_at` is a lower bound on the **command cycle**: the same
/// command cannot issue before it, whatever else issues on the channel in
/// between (timing registers only ever move later). It is not a promise —
/// a different constraint may still hold at `ready_at` — and the variants
/// without one ([`Self::BankNotPrecharged`], [`Self::BankClosed`],
/// [`Self::RowMismatch`]) describe bank *state*, which only another
/// command (or a refresh) changes. Read it with [`Self::ready_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueError {
    /// The bank has a row open but ACT was requested.
    BankNotPrecharged,
    /// A column command or PRE targeted a closed bank.
    BankClosed,
    /// A column command targeted a bank whose open row differs.
    RowMismatch {
        /// The row currently latched in the row buffer.
        open_row: u64,
    },
    /// A bank-level timing parameter has not elapsed yet.
    BankTiming {
        /// Earliest cycle at which the command becomes legal.
        ready_at: u64,
    },
    /// A rank-level constraint (tRRD, tFAW, tWTR) has not elapsed.
    RankTiming {
        /// Earliest cycle at which the command becomes legal.
        ready_at: u64,
    },
    /// The shared data bus is occupied for the burst window.
    DataBusBusy {
        /// Earliest cycle at which the command may issue so that its data
        /// phase (CL / CWL later) clears the bus.
        ready_at: u64,
    },
    /// The rank is executing a refresh.
    RefreshInProgress {
        /// Cycle at which the refresh completes.
        ready_at: u64,
    },
    /// Coordinates exceed the configured geometry.
    OutOfRange,
}

impl IssueError {
    /// The earliest command cycle at which a retry can succeed, if the
    /// error is a timing one; `None` for state errors and
    /// [`Self::OutOfRange`].
    #[must_use]
    pub fn ready_at(&self) -> Option<u64> {
        match self {
            Self::BankTiming { ready_at }
            | Self::RankTiming { ready_at }
            | Self::DataBusBusy { ready_at }
            | Self::RefreshInProgress { ready_at } => Some(*ready_at),
            _ => None,
        }
    }
}

impl std::fmt::Display for IssueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BankNotPrecharged => write!(f, "bank already has an open row"),
            Self::BankClosed => write!(f, "bank has no open row"),
            Self::RowMismatch { open_row } => {
                write!(f, "open row {open_row} does not match command row")
            }
            Self::BankTiming { ready_at } => {
                write!(f, "bank timing not met (ready at cycle {ready_at})")
            }
            Self::RankTiming { ready_at } => {
                write!(f, "rank timing not met (ready at cycle {ready_at})")
            }
            Self::DataBusBusy { ready_at } => {
                write!(f, "data bus busy (ready at cycle {ready_at})")
            }
            Self::RefreshInProgress { ready_at } => {
                write!(f, "refresh in progress (done at cycle {ready_at})")
            }
            Self::OutOfRange => write!(f, "coordinates out of configured geometry"),
        }
    }
}

impl std::error::Error for IssueError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::DramLocation;

    fn loc() -> DramLocation {
        DramLocation {
            channel: 1,
            rank: 0,
            bank: 2,
            row: 7,
            column: 3,
        }
    }

    #[test]
    fn data_commands_carry_data() {
        assert!(CommandKind::Read.carries_data());
        assert!(CommandKind::Write.carries_data());
        assert!(!CommandKind::Activate.carries_data());
        assert!(!CommandKind::Precharge.carries_data());
    }

    #[test]
    fn constructors_set_kind() {
        assert_eq!(DramCommand::activate(loc()).kind, CommandKind::Activate);
        assert_eq!(DramCommand::precharge(loc()).kind, CommandKind::Precharge);
        assert_eq!(DramCommand::read(loc()).kind, CommandKind::Read);
        assert_eq!(DramCommand::write(loc()).kind, CommandKind::Write);
    }

    #[test]
    fn display_includes_coordinates() {
        let s = DramCommand::read(loc()).to_string();
        assert!(s.contains("RD"));
        assert!(s.contains("ch1"));
        assert!(s.contains("row7"));
    }

    #[test]
    fn ready_at_extraction() {
        assert_eq!(IssueError::BankTiming { ready_at: 5 }.ready_at(), Some(5));
        assert_eq!(IssueError::BankClosed.ready_at(), None);
    }

    #[test]
    fn errors_display_nonempty() {
        for e in [
            IssueError::BankNotPrecharged,
            IssueError::BankClosed,
            IssueError::RowMismatch { open_row: 1 },
            IssueError::BankTiming { ready_at: 2 },
            IssueError::RankTiming { ready_at: 3 },
            IssueError::DataBusBusy { ready_at: 4 },
            IssueError::RefreshInProgress { ready_at: 5 },
            IssueError::OutOfRange,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
