//! Deterministic response-fault injection: configuration, validation and
//! the draw domains (the splitmix64 draw itself is
//! [`dram_sim::faults::mix64`]).

/// Deterministic memory-controller fault injection: dropped and late data
/// responses plus transient queue-capacity saturation.
///
/// All decisions come from a stateless splitmix64 mix of `seed` and a draw
/// counter (or the cycle window, for saturation), so a given seed yields an
/// identical fault schedule on every run. Faults change *when* requests
/// complete, never *which* commands appear on the bus out of transaction
/// order — the ORAM security contract is timing-only affected.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResponseFaultConfig {
    /// Seed for the fault schedule (independent of every protocol RNG).
    pub seed: u64,
    /// Probability that a completed data command's response is delayed.
    pub late_rate: f64,
    /// Extra cycles added to `data_done_at` for a late response.
    pub late_delay: u64,
    /// Probability that a data command's response is dropped entirely: the
    /// DRAM command issues (bus and bank timing are consumed) but the
    /// request stays queued and is reissued by a later scheduling pass.
    pub drop_rate: f64,
    /// Probability that any given 1024-cycle window is *saturated*: the
    /// effective per-direction queue capacity is halved, forcing the ORAM
    /// front end to stall and retry (controller queue-saturation fault).
    pub saturation_rate: f64,
}

/// Why a [`ResponseFaultConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultConfigError {
    /// A rate field is NaN or outside `[0, 1]`.
    RateOutOfRange {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `drop_rate` is 1: every response would be dropped and no request
    /// could ever complete.
    CertainDrop,
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RateOutOfRange { field, value } => {
                write!(f, "{field} must be in [0, 1], got {value}")
            }
            Self::CertainDrop => {
                write!(f, "drop_rate must be < 1 or no response ever completes")
            }
        }
    }
}

impl std::error::Error for FaultConfigError {}

impl ResponseFaultConfig {
    /// Checks rates are probabilities and forward progress is possible.
    ///
    /// # Errors
    ///
    /// A structured [`FaultConfigError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        for (field, rate) in [
            ("late_rate", self.late_rate),
            ("drop_rate", self.drop_rate),
            ("saturation_rate", self.saturation_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(FaultConfigError::RateOutOfRange { field, value: rate });
            }
        }
        if self.drop_rate >= 1.0 {
            return Err(FaultConfigError::CertainDrop);
        }
        Ok(())
    }
}

/// Live response-fault state: the validated config plus the draw counter
/// and the last saturation window already counted in the statistics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResponseFaultState {
    pub(crate) cfg: ResponseFaultConfig,
    /// Monotone counter keying the drop/late draws for each data command.
    pub(crate) draws: u64,
    /// Last cycle window counted in `queue_saturation_windows`.
    pub(crate) last_saturated_window: Option<u64>,
}

/// Cycles are grouped into `1 << SATURATION_WINDOW_SHIFT`-cycle windows for
/// the queue-saturation fault (1024 cycles).
pub(crate) const SATURATION_WINDOW_SHIFT: u32 = 10;

/// Domain separators so the three fault kinds draw independent streams
/// from one seed.
pub(crate) const DOMAIN_DROP: u64 = 0x6472_6F70; // "drop"
pub(crate) const DOMAIN_LATE: u64 = 0x6C61_7465; // "late"
pub(crate) const DOMAIN_SAT: u64 = 0x7361_7475; // "satu"
