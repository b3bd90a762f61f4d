//! Seeded arrival processes: bursty/diurnal request-rate models.
//!
//! The trace generators in this crate model *what* a core accesses; this
//! module models *when* requests arrive at a serving front-end. The
//! process composes two classic traffic shapes:
//!
//! * **on/off Markov bursts** — each tick the process flips between a
//!   quiet and a bursting state with configured per-tick probabilities;
//!   while bursting, the rate is multiplied by `burst_multiplier`
//!   (interrupted-Poisson-style traffic);
//! * **sinusoidal base rate** — the base rate is modulated by a slow
//!   sine wave (`diurnal_period` ticks per cycle, `diurnal_amplitude`
//!   relative swing), the standard stand-in for day/night load curves.
//!
//! Everything is deterministic for a `(spec, seed)` pair. The sine is a
//! Bhaskara I rational approximation evaluated with only `+ − × ÷` —
//! IEEE-exact operations — so results are bit-identical across platforms,
//! unlike `f64::sin`, whose last-bit behavior is libm-dependent.

use oram_rng::{Rng, StdRng};

use crate::record::TraceRecord;

/// Shape of an arrival process, in requests per kilo-tick.
///
/// "Tick" is whatever unit the consumer advances the process by — the
/// service layer uses one memory-bus cycle per tick; a plain trace
/// consumer can treat ticks as instruction slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalSpec {
    /// Long-run base arrival rate, in requests per 1000 ticks, before
    /// burst and diurnal modulation.
    pub base_per_ktick: f64,
    /// Rate multiplier while the on/off process is in the *on* (bursting)
    /// state. `1.0` disables bursts.
    pub burst_multiplier: f64,
    /// Per-tick probability of entering the bursting state from quiet.
    pub burst_on: f64,
    /// Per-tick probability of leaving the bursting state back to quiet.
    pub burst_off: f64,
    /// Period of the sinusoidal base-rate modulation, in ticks. `0`
    /// disables the diurnal component.
    pub diurnal_period: u64,
    /// Relative amplitude of the diurnal swing in `[0, 1)`: the base rate
    /// oscillates in `base · (1 ± amplitude)`.
    pub diurnal_amplitude: f64,
}

impl ArrivalSpec {
    /// A steady trickle: no bursts, no diurnal swing.
    #[must_use]
    pub fn steady(base_per_ktick: f64) -> Self {
        Self {
            base_per_ktick,
            burst_multiplier: 1.0,
            burst_on: 0.0,
            burst_off: 1.0,
            diurnal_period: 0,
            diurnal_amplitude: 0.0,
        }
    }

    /// A bursty profile: quiet background load with `multiplier`× on/off
    /// bursts averaging ~200 ticks on, ~2000 ticks off.
    #[must_use]
    pub fn bursty(base_per_ktick: f64, multiplier: f64) -> Self {
        Self {
            base_per_ktick,
            burst_multiplier: multiplier,
            burst_on: 1.0 / 2000.0,
            burst_off: 1.0 / 200.0,
            diurnal_period: 0,
            diurnal_amplitude: 0.0,
        }
    }

    /// A diurnal profile: sinusoidal base rate with the given period and
    /// relative amplitude, no bursts.
    #[must_use]
    pub fn diurnal(base_per_ktick: f64, period: u64, amplitude: f64) -> Self {
        Self {
            base_per_ktick,
            burst_multiplier: 1.0,
            burst_on: 0.0,
            burst_off: 1.0,
            diurnal_period: period,
            diurnal_amplitude: amplitude,
        }
    }

    /// Validates the spec's numeric ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: rates and
    /// multipliers must be finite and non-negative, probabilities in
    /// `[0, 1]`, amplitude in `[0, 1)`, and a nonzero amplitude needs a
    /// nonzero period.
    pub fn validate(&self) -> Result<(), String> {
        let finite_nonneg = |v: f64, name: &str| -> Result<(), String> {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and >= 0, got {v}"));
            }
            Ok(())
        };
        finite_nonneg(self.base_per_ktick, "base_per_ktick")?;
        finite_nonneg(self.burst_multiplier, "burst_multiplier")?;
        for (v, name) in [(self.burst_on, "burst_on"), (self.burst_off, "burst_off")] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be a probability in [0, 1], got {v}"));
            }
        }
        if !self.diurnal_amplitude.is_finite() || !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return Err(format!(
                "diurnal_amplitude must be in [0, 1), got {}",
                self.diurnal_amplitude
            ));
        }
        if self.diurnal_amplitude > 0.0 && self.diurnal_period == 0 {
            return Err("diurnal_amplitude > 0 requires diurnal_period > 0".to_string());
        }
        Ok(())
    }

    /// Whether a process of this shape can never produce an arrival: with a
    /// base rate of 0 the rate envelope is identically 0 through every
    /// burst and diurnal factor (all finite), so no count is ever drawn. A
    /// consumer that only wants the counts need not advance such a process.
    #[must_use]
    pub fn is_silent(&self) -> bool {
        self.base_per_ktick == 0.0
    }

    /// The highest mean rate the envelope reaches, in requests per tick:
    /// the diurnal crest while bursting (a multiplier below 1 lowers the
    /// bursting rate, so the quiet state is the peak then).
    #[must_use]
    pub fn peak_per_tick(&self) -> f64 {
        self.base_per_ktick / 1000.0
            * (1.0 + self.diurnal_amplitude)
            * self.burst_multiplier.max(1.0)
    }
}

/// Deterministic sine of `turns` full cycles (i.e. `sin(2π·turns)`), via
/// the Bhaskara I approximation `sin(πx) ≈ 16x(1−x) / (5 − 4x(1−x))` for
/// `x ∈ [0, 1]`, mirrored for the negative half-cycle. Max absolute error
/// ~0.0016 — far below any traffic-modeling need — and built from
/// IEEE-exact operations only, so it is bit-identical everywhere. `turns`
/// must not be negative.
#[must_use]
fn det_sin_turns(turns: f64) -> f64 {
    let frac = turns - floor_nonneg(turns); // [0, 1): position within the cycle
    let (x, sign) = if frac < 0.5 {
        (frac * 2.0, 1.0)
    } else {
        ((frac - 0.5) * 2.0, -1.0)
    };
    let t = x * (1.0 - x);
    sign * (16.0 * t) / (5.0 - 4.0 * t)
}

/// `v.floor()` for `v >= 0` without the call: on the x86-64 baseline
/// `f64::floor` is an out-of-line libm function, and both per-tick callers
/// pass non-negative values, nearly always below 1. Below 2^53 the round
/// trip through `i64` (one instruction each way, unlike `u64`) truncates,
/// which is `floor` there; from 2^53 on every `f64` is already an integer,
/// and `floor` is kept for the range the cast would saturate.
fn floor_nonneg(v: f64) -> f64 {
    debug_assert!(v >= 0.0, "floor_nonneg({v})");
    if v < 1.0 {
        0.0
    } else if v < 9_007_199_254_740_992.0 {
        (v as i64) as f64
    } else {
        v.floor()
    }
}

/// A seeded arrival process: call [`ArrivalProcess::next_tick`] once per
/// tick to get that tick's arrival count.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    spec: ArrivalSpec,
    /// `spec.base_per_ktick / 1000.0`, divided once.
    base_per_tick: f64,
    rng: StdRng,
    bursting: bool,
    tick: u64,
}

impl ArrivalProcess {
    /// Creates the process. The spec is validated; see
    /// [`ArrivalSpec::validate`]. Validation bounds no rate from above:
    /// [`ArrivalProcess::next_tick`] returns a `u32`, so a shape whose
    /// [`ArrivalSpec::peak_per_tick`] reaches 2^32 has its count saturate
    /// there. A consumer that acts on every arrival should refuse such a
    /// shape long before that (the service layer does).
    ///
    /// # Panics
    ///
    /// Panics when the spec is invalid — arrival shapes are configuration,
    /// fixed before a run starts.
    #[must_use]
    pub fn new(spec: ArrivalSpec, seed: u64) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid ArrivalSpec: {e}");
        }
        Self {
            spec,
            base_per_tick: spec.base_per_ktick / 1000.0,
            rng: StdRng::seed_from_u64(seed),
            bursting: false,
            tick: 0,
        }
    }

    /// The process's current mean rate (requests per tick) at tick `t`,
    /// for the given burst state — the deterministic envelope the random
    /// draws are taken from. Exposed for tests and capacity planning.
    #[must_use]
    pub fn rate_at(&self, t: u64, bursting: bool) -> f64 {
        let mut rate = self.base_per_tick;
        if self.spec.diurnal_period > 0 {
            let turns = t as f64 / self.spec.diurnal_period as f64;
            rate *= 1.0 + self.spec.diurnal_amplitude * det_sin_turns(turns);
        }
        if bursting {
            rate *= self.spec.burst_multiplier;
        }
        rate
    }

    /// Advances one tick and returns how many requests arrive on it.
    ///
    /// The burst state transitions first (Markov on/off), then the count
    /// is drawn as `floor(rate)` plus a Bernoulli trial on the fractional
    /// part — mean exactly `rate`, deterministic for a seed.
    pub fn next_tick(&mut self) -> u32 {
        self.bursting = if self.bursting {
            !self.rng.gen_bool(self.spec.burst_off)
        } else {
            self.rng.gen_bool(self.spec.burst_on)
        };
        let rate = self.rate_at(self.tick, self.bursting);
        self.tick += 1;
        let whole = floor_nonneg(rate);
        let frac = rate - whole;
        let mut n = whole as u32;
        if frac > 0.0 && self.rng.gen_bool(frac) {
            n += 1;
        }
        n
    }

    /// Whether the process is currently in its bursting state.
    #[must_use]
    pub fn is_bursting(&self) -> bool {
        self.bursting
    }

    /// Ticks consumed so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Drains the process into inter-arrival gaps: the number of empty
    /// ticks before each of the next `n` arrivals. A tick carrying `k > 1`
    /// arrivals contributes `k − 1` zero gaps.
    pub fn take_gaps(&mut self, n: usize) -> Vec<u32> {
        let mut gaps = Vec::with_capacity(n);
        let mut idle = 0u32;
        while gaps.len() < n {
            let arrivals = self.next_tick();
            for _ in 0..arrivals {
                if gaps.len() == n {
                    break;
                }
                gaps.push(idle);
                idle = 0;
            }
            if arrivals == 0 {
                idle = idle.saturating_add(1);
            }
        }
        gaps
    }

    /// Renders the process as a plain trace: `n` records whose
    /// `gap_instructions` follow the arrival gaps (treating ticks as
    /// instruction slots), with uniformly random blocks in `[0, blocks)`
    /// and the given write fraction. This makes the bursty/diurnal shapes
    /// usable by the ordinary trace-driven simulation, not just the
    /// service layer.
    pub fn take_records(&mut self, n: usize, blocks: u64, write_fraction: f64) -> Vec<TraceRecord> {
        let gaps = self.take_gaps(n);
        gaps.into_iter()
            .map(|gap| {
                let block = self.rng.gen_range(0..blocks);
                let is_write = self.rng.gen_bool(write_fraction);
                TraceRecord::new(gap, block, is_write)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_arrivals() {
        let spec = ArrivalSpec::bursty(40.0, 8.0);
        let mut a = ArrivalProcess::new(spec, 7);
        let mut b = ArrivalProcess::new(spec, 7);
        let xs: Vec<u32> = (0..5000).map(|_| a.next_tick()).collect();
        let ys: Vec<u32> = (0..5000).map(|_| b.next_tick()).collect();
        assert_eq!(xs, ys);
        let mut c = ArrivalProcess::new(spec, 8);
        let zs: Vec<u32> = (0..5000).map(|_| c.next_tick()).collect();
        assert_ne!(xs, zs, "different seeds must differ");
    }

    #[test]
    fn bursts_raise_the_realized_rate() {
        // Force permanently-on vs permanently-off burst states and compare.
        let quiet = ArrivalSpec::steady(20.0);
        let mut loud = ArrivalSpec::steady(20.0);
        loud.burst_multiplier = 10.0;
        loud.burst_on = 1.0;
        loud.burst_off = 0.0;
        let mut q = ArrivalProcess::new(quiet, 11);
        let mut l = ArrivalProcess::new(loud, 11);
        let sum_q: u64 = (0..20_000).map(|_| u64::from(q.next_tick())).sum();
        let sum_l: u64 = (0..20_000).map(|_| u64::from(l.next_tick())).sum();
        assert!(l.is_bursting());
        assert!(
            sum_l > sum_q * 5,
            "bursting sum {sum_l} should dwarf quiet sum {sum_q}"
        );
    }

    #[test]
    fn diurnal_modulation_swings_the_envelope() {
        let spec = ArrivalSpec::diurnal(100.0, 1000, 0.5);
        let p = ArrivalProcess::new(spec, 0);
        let base = 100.0 / 1000.0;
        // Peak at a quarter period, trough at three quarters.
        let peak = p.rate_at(250, false);
        let trough = p.rate_at(750, false);
        assert!((peak - base * 1.5).abs() < base * 0.01, "peak {peak}");
        assert!((trough - base * 0.5).abs() < base * 0.01, "trough {trough}");
        // Zero crossings at 0 and half period.
        assert!((p.rate_at(0, false) - base).abs() < base * 0.001);
        assert!((p.rate_at(500, false) - base).abs() < base * 0.001);
    }

    #[test]
    fn det_sin_matches_libm_closely() {
        for i in 0..=1000 {
            let turns = i as f64 / 1000.0;
            let approx = det_sin_turns(turns);
            let exact = (2.0 * std::f64::consts::PI * turns).sin();
            assert!(
                (approx - exact).abs() < 2e-3,
                "turns {turns}: {approx} vs {exact}"
            );
        }
    }

    /// Counts and burst state of 200 000 ticks, per spec, as FNV-1a digests
    /// recorded before `floor` left the per-tick path (the benchmark's three
    /// tenants plus a heavy bursty one): the realisation is part of every
    /// pinned service digest, so it may not move by one draw.
    #[test]
    fn sequences_match_the_recorded_values() {
        let recorded = [
            (ArrivalSpec::steady(1.0), 0xF306_E6D5_BEE0_081B_u64),
            (ArrivalSpec::bursty(0.5, 4.0), 0x1EC0_25AF_52B0_D78A),
            (
                ArrivalSpec::diurnal(0.8, 400_000, 0.8),
                0x70FE_6A19_1096_1014,
            ),
            (ArrivalSpec::bursty(40.0, 8.0), 0x535A_D26E_AAB7_556D),
        ];
        for (i, (spec, want)) in recorded.into_iter().enumerate() {
            let mut p = ArrivalProcess::new(spec, 0xA221_7A15 + i as u64);
            let mut h = oram_rng::FNV_OFFSET;
            for _ in 0..200_000 {
                let n = p.next_tick();
                let bytes = [n as u8, (n >> 8) as u8, u8::from(p.is_bursting())];
                h = oram_rng::fnv1a_bytes(h, &bytes);
            }
            assert_eq!(h, want, "{spec:?}: 0x{h:016X}");
        }
    }

    #[test]
    fn truncation_is_floor_where_the_process_calls_it() {
        let two_53 = 9_007_199_254_740_992.0_f64;
        for v in [
            0.0,
            0.25,
            0.999_999,
            1.0,
            1.5,
            4_294_967_295.5,
            two_53 - 1.0,
        ] {
            assert_eq!(floor_nonneg(v), v.floor(), "{v}");
        }
        for v in [two_53, two_53 * 4.0, 1e300] {
            assert_eq!(floor_nonneg(v), v, "{v}");
        }
    }

    #[test]
    fn silent_shapes_never_arrive_whatever_their_modulation() {
        let mut loud_but_empty = ArrivalSpec::bursty(0.0, 1e9);
        loud_but_empty.burst_on = 0.5;
        loud_but_empty.diurnal_period = 64;
        loud_but_empty.diurnal_amplitude = 0.9;
        for spec in [ArrivalSpec::steady(0.0), loud_but_empty] {
            assert!(spec.is_silent());
            assert_eq!(spec.peak_per_tick(), 0.0);
            let mut p = ArrivalProcess::new(spec, 5);
            assert!((0..10_000).all(|_| p.next_tick() == 0));
        }
        assert!(!ArrivalSpec::steady(1e-9).is_silent());
    }

    #[test]
    fn the_peak_rate_bounds_the_envelope() {
        let mut spec = ArrivalSpec::diurnal(100.0, 1_000, 0.5);
        spec.burst_multiplier = 4.0;
        assert_eq!(spec.peak_per_tick(), 0.1 * 1.5 * 4.0);
        let p = ArrivalProcess::new(spec, 0);
        let highest = (0..1_000).map(|t| p.rate_at(t, true)).fold(0.0, f64::max);
        assert!(highest <= spec.peak_per_tick() && highest > 0.99 * spec.peak_per_tick());
        // A multiplier below 1 makes the quiet state the peak.
        spec.burst_multiplier = 0.5;
        assert_eq!(spec.peak_per_tick(), 0.1 * 1.5);
    }

    #[test]
    fn gaps_and_records_are_well_formed() {
        let spec = ArrivalSpec::bursty(50.0, 4.0);
        let mut p = ArrivalProcess::new(spec, 3);
        let gaps = p.take_gaps(500);
        assert_eq!(gaps.len(), 500);

        let mut p2 = ArrivalProcess::new(spec, 3);
        let records = p2.take_records(500, 1 << 12, 0.25);
        assert_eq!(records.len(), 500);
        assert!(records.iter().all(|r| r.op.block < (1 << 12)));
        let writes = records.iter().filter(|r| r.op.is_write).count();
        assert!(writes > 0 && writes < 500);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut s = ArrivalSpec::steady(10.0);
        s.burst_on = 1.5;
        assert!(s.validate().is_err());
        let mut s = ArrivalSpec::steady(10.0);
        s.diurnal_amplitude = 0.3; // period still 0
        assert!(s.validate().is_err());
        let mut s = ArrivalSpec::steady(-1.0);
        assert!(s.validate().is_err());
        s.base_per_ktick = 10.0;
        assert!(s.validate().is_ok());
    }
}
