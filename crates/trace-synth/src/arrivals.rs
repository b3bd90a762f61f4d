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
//!
//! A tick costs its random draws and an integer compare each. The
//! realisation is defined by Bernoulli trials `gen_bool(p)`, which is
//! exactly `(x >> 11) < oram_rng::threshold(p)` (the exactness argument is
//! there). [`ArrivalProcess::new`] turns every probability fixed for the
//! process into such a threshold once (the two burst switches, and a flat
//! envelope's per-state count), so `f64::ceil`, an out-of-line libm call on
//! the x86-64 baseline, never runs per tick.
//! A swinging envelope whose every rate in a burst state lies strictly
//! inside (0, 1) draws once per tick in that state; a draw at or above a
//! ceiling just over [`ArrivalSpec::peak_per_tick`] is a miss without the
//! envelope, and only a draw under it evaluates
//! `ArrivalProcess::rate_at` and compares exactly. Any other state
//! evaluates the envelope every tick. Each path makes the same draws and
//! the same decisions as `gen_bool` on `ArrivalProcess::rate_at`, so
//! every realisation is bit-identical to that definition.

use oram_rng::{threshold, Rng, StdRng};

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
#[inline]
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
/// `f64::floor` is an out-of-line libm function. The envelope's turn count
/// and the count of a state without a fast path (see the module doc) are
/// floored per tick, both non-negative and nearly always below 1. Below
/// 2^53 the round trip through `i64` (one instruction each way, unlike
/// `u64`) truncates, which is `floor` there; from 2^53 on every `f64` is
/// already an integer, and `floor` is kept for the range the cast would
/// saturate.
#[inline]
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

/// `2^53`: a `f64` draw is `(x >> 11) · 2^-53`, 53 random bits.
const TWO_53: f64 = 9_007_199_254_740_992.0;

/// A 53-bit draw as the `f64` in `[0, 1)` it stands for, exactly.
#[inline]
fn unit(draw: u64) -> f64 {
    draw as f64 * (1.0 / TWO_53)
}

/// Relative slack on the envelope's bounds for the fast path: far above the
/// few ulps by which `rate_at`'s rounding, and the sine's last bit, can
/// stray from the real-valued envelope.
const ENVELOPE_SLACK: f64 = 1.0 / 1_048_576.0;

/// How one burst state turns a tick into its count, fixed in
/// [`ArrivalProcess::new`].
#[derive(Debug, Clone, Copy)]
enum Count {
    /// A flat envelope: `whole` arrivals every tick, plus one when a draw
    /// lands under the threshold `frac` (0: the rate has no fraction, and
    /// nothing is drawn).
    Flat { whole: u32, frac: u64 },
    /// A swinging envelope whose every rate lies strictly inside (0, 1):
    /// one draw every tick, a miss at or above `ceiling` without the
    /// envelope, an exact compare with `rate_at` below it.
    Below { ceiling: u64 },
    /// Any other swinging state: `rate_at` every tick.
    Exact,
}

/// A seeded arrival process: call [`ArrivalProcess::next_tick`] once per
/// tick to get that tick's arrival count.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    spec: ArrivalSpec,
    /// `spec.base_per_ktick / 1000.0`, divided once.
    base_per_tick: f64,
    /// Per current burst state (quiet, bursting), the threshold of a draw
    /// that flips it: `burst_on`'s, then `burst_off`'s.
    flip: [u64; 2],
    /// Per burst state (quiet, bursting), how a tick's count is drawn.
    count: [Count; 2],
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
        let mut process = Self {
            spec,
            base_per_tick: spec.base_per_ktick / 1000.0,
            flip: [threshold(spec.burst_on), threshold(spec.burst_off)],
            count: [Count::Exact; 2],
            rng: StdRng::seed_from_u64(seed),
            bursting: false,
            tick: 0,
        };
        process.count = [false, true].map(|bursting| process.count_rule(bursting));
        process
    }

    /// The count rule of one burst state (see [`Count`]).
    fn count_rule(&self, bursting: bool) -> Count {
        if self.spec.diurnal_period == 0 {
            let rate = self.rate_at(0, bursting);
            let whole = floor_nonneg(rate);
            return Count::Flat {
                whole: whole as u32,
                frac: threshold(rate - whole),
            };
        }
        // Every rate of this state lies in `base · (1 ± amplitude)`, times
        // the multiplier while bursting. With the lower bound's every
        // partial product normal, no rate rounds to 0, so the exact rule
        // always draws; with the ceiling below 1, `whole` is always 0.
        let multiplier = if bursting {
            self.spec.burst_multiplier.min(1.0)
        } else {
            1.0
        };
        let lowest =
            self.base_per_tick * (1.0 - self.spec.diurnal_amplitude - ENVELOPE_SLACK) * multiplier;
        let ceiling = self.spec.peak_per_tick() * (1.0 + ENVELOPE_SLACK);
        if lowest >= f64::MIN_POSITIVE && ceiling < 1.0 {
            Count::Below {
                ceiling: threshold(ceiling),
            }
        } else {
            Count::Exact
        }
    }

    /// The process's current mean rate (requests per tick) at tick `t`,
    /// for the given burst state — the deterministic envelope the random
    /// draws are taken from. Exposed for tests and capacity planning.
    #[inline]
    #[must_use]
    pub(crate) fn rate_at(&self, t: u64, bursting: bool) -> f64 {
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
    /// part — mean exactly `rate`, deterministic for a seed. The draws
    /// and decisions are exactly those of `gen_bool(burst_on)` or
    /// `gen_bool(burst_off)`, then `gen_bool(frac)` when the fraction is
    /// nonzero; the module doc says how most ticks skip the envelope.
    #[inline]
    pub fn next_tick(&mut self) -> u32 {
        self.bursting ^= self.draw() < self.flip[usize::from(self.bursting)];
        let t = self.tick;
        self.tick += 1;
        match self.count[usize::from(self.bursting)] {
            Count::Flat { whole, frac } => whole + u32::from(frac != 0 && self.draw() < frac),
            Count::Below { ceiling } => {
                let draw = self.draw();
                u32::from(draw < ceiling && unit(draw) < self.rate_at(t, self.bursting))
            }
            Count::Exact => {
                let rate = self.rate_at(t, self.bursting);
                let whole = floor_nonneg(rate);
                let frac = rate - whole;
                whole as u32 + u32::from(frac > 0.0 && unit(self.draw()) < frac)
            }
        }
    }

    /// The 53 random bits of one `f64` draw.
    #[inline]
    fn draw(&mut self) -> u64 {
        self.rng.next_u64() >> 11
    }

    /// Whether no later tick can carry an arrival: every rate is 0 (a zero
    /// base, or one so small it underflows per tick), or the process is in
    /// (or certain to enter) a burst at rate 0 that it never leaves.
    fn never_arrives(&self) -> bool {
        // `burst_off` is 0, and the process bursts or `burst_on` is 1.
        let bursts_for_good = self.flip[1] == 0 && (self.bursting || self.flip[0] == 1 << 53);
        self.base_per_tick == 0.0 || (bursts_for_good && self.spec.burst_multiplier == 0.0)
    }

    /// Ticks consumed so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Drains the process into inter-arrival gaps: the number of empty
    /// ticks before each of the next `n` arrivals. A tick carrying `k > 1`
    /// arrivals contributes `k − 1` zero gaps. A process that can never
    /// arrive again has no next arrival, so the gaps stop there, fewer than
    /// `n`: a silent shape (see [`ArrivalSpec::is_silent`]) returns an empty
    /// `Vec` and consumes no tick, and so does one that has entered a burst
    /// at rate 0 with no way out.
    pub(crate) fn take_gaps(&mut self, n: usize) -> Vec<u32> {
        let mut gaps = Vec::with_capacity(n);
        let mut idle = 0u32;
        while gaps.len() < n && !self.never_arrives() {
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
    /// service layer. A process that can never arrive again yields fewer
    /// than `n` records, none for a silent shape (see
    /// `ArrivalProcess::take_gaps`).
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
        assert!(l.bursting);
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

    /// Counts and burst state of 200 000 ticks, per spec, as FNV-1a digests:
    /// the first four recorded before `floor` left the per-tick path (the
    /// benchmark's three tenants plus a heavy bursty one), the rest, the
    /// edge shapes of the count rules, before the per-tick probabilities
    /// became integer thresholds. The realisation is part of every pinned
    /// service digest, so it may not move by one draw.
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
            // A whole rate: no fraction, so no count draw.
            (ArrivalSpec::steady(1000.0), 0x9420_1A53_4206_6665),
            // No draw while bursting.
            (ArrivalSpec::bursty(40.0, 0.0), 0xA419_816E_2DA1_FB70),
            (ArrivalSpec::bursty(40.0, 0.5), 0x4849_494F_82B8_BE99),
            // The rate crosses 1: no ceiling.
            (
                ArrivalSpec::diurnal(1500.0, 1_000, 0.9),
                0x8F10_6FB8_77B9_24D9,
            ),
            (
                ArrivalSpec {
                    burst_multiplier: 10.0,
                    burst_on: 1.0,
                    burst_off: 0.0,
                    ..ArrivalSpec::steady(20.0)
                },
                0x927A_3BBC_2DD8_3BF6,
            ),
            // Diurnal × burst: a ceiling per burst state.
            (
                ArrivalSpec {
                    diurnal_period: 400_000,
                    diurnal_amplitude: 0.8,
                    ..ArrivalSpec::bursty(0.8, 4.0)
                },
                0x9709_36EF_F92F_1151,
            ),
        ];
        for (i, (spec, want)) in recorded.into_iter().enumerate() {
            let mut p = ArrivalProcess::new(spec, 0xA221_7A15 + i as u64);
            let mut h = oram_rng::FNV_OFFSET;
            for _ in 0..200_000 {
                let n = p.next_tick();
                let bytes = [n as u8, (n >> 8) as u8, u8::from(p.bursting)];
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

    /// The bound the fast path's ceiling trusts: no rate of either burst
    /// state exceeds the peak anywhere in a full diurnal period.
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

        for base in [0.8, 3.3, 100.0, 999.0] {
            for (period, amplitude) in [(997, 0.3), (1_000, 0.9), (7_919, 0.999), (400_000, 0.8)] {
                for multiplier in [0.0, 0.5, 1.0, 4.0, 8.0] {
                    let spec = ArrivalSpec {
                        burst_multiplier: multiplier,
                        diurnal_period: period,
                        diurnal_amplitude: amplitude,
                        ..ArrivalSpec::bursty(base, 1.0)
                    };
                    let p = ArrivalProcess::new(spec, 0);
                    for bursting in [false, true] {
                        let highest = (0..period)
                            .map(|t| p.rate_at(t, bursting))
                            .fold(0.0, f64::max);
                        assert!(highest <= spec.peak_per_tick(), "{spec:?} {bursting}");
                    }
                }
            }
        }
    }

    #[test]
    fn silent_shapes_yield_no_gaps() {
        let mut loud_but_empty = ArrivalSpec::bursty(0.0, 1e9);
        loud_but_empty.diurnal_period = 64;
        loud_but_empty.diurnal_amplitude = 0.9;
        let always_bursting_at_zero = ArrivalSpec {
            burst_multiplier: 0.0,
            burst_on: 1.0,
            burst_off: 0.0,
            ..ArrivalSpec::steady(50.0)
        };
        for spec in [
            ArrivalSpec::steady(0.0),
            ArrivalSpec::steady(1e-321),
            loud_but_empty,
            always_bursting_at_zero,
        ] {
            let mut p = ArrivalProcess::new(spec, 5);
            assert!(p.take_gaps(1).is_empty(), "{spec:?}");
            assert!(p.take_records(3, 1 << 12, 0.5).is_empty(), "{spec:?}");
            assert_eq!(p.ticks(), 0);
        }
        // Arrivals until the process falls into a burst at rate 0 for good.
        let mut trapped = ArrivalProcess::new(
            ArrivalSpec {
                burst_off: 0.0,
                ..ArrivalSpec::bursty(400.0, 0.0)
            },
            5,
        );
        let gaps = trapped.take_gaps(1_000_000);
        assert!(!gaps.is_empty() && gaps.len() < 1_000_000);
        assert!(trapped.bursting);
        assert!(trapped.take_gaps(1).is_empty());
    }

    /// The per-tick rule before the integer thresholds, as its definition
    /// reads: `gen_bool` on the burst switch, the envelope every tick, and
    /// `gen_bool` on the fraction of the rate.
    struct Reference {
        envelope: ArrivalProcess,
        rng: StdRng,
        bursting: bool,
        tick: u64,
    }

    impl Reference {
        fn new(spec: ArrivalSpec, seed: u64) -> Self {
            Self {
                envelope: ArrivalProcess::new(spec, 0),
                rng: StdRng::seed_from_u64(seed),
                bursting: false,
                tick: 0,
            }
        }

        fn next_tick(&mut self) -> u32 {
            let spec = self.envelope.spec;
            self.bursting = if self.bursting {
                !self.rng.gen_bool(spec.burst_off)
            } else {
                self.rng.gen_bool(spec.burst_on)
            };
            let rate = self.envelope.rate_at(self.tick, self.bursting);
            self.tick += 1;
            let whole = floor_nonneg(rate);
            let frac = rate - whole;
            let mut n = whole as u32;
            if frac > 0.0 && self.rng.gen_bool(frac) {
                n += 1;
            }
            n
        }

        /// `take_records(1, blocks, write_fraction)`'s one record.
        fn take_record(&mut self, blocks: u64, write_fraction: f64) -> TraceRecord {
            let mut idle = 0u32;
            while self.next_tick() == 0 {
                idle = idle.saturating_add(1);
            }
            let block = self.rng.gen_range(0..blocks);
            TraceRecord::new(idle, block, self.rng.gen_bool(write_fraction))
        }
    }

    /// A random valid shape that arrives: rates from far below to past one
    /// per tick, multipliers of 0 and below 1, probabilities at 0 and 1,
    /// and amplitudes near 1.
    fn random_shape(rng: &mut StdRng) -> ArrivalSpec {
        // One of `xs`, or a uniform draw times `scale` past their end.
        fn pick(rng: &mut StdRng, xs: &[f64], scale: f64) -> f64 {
            let i = rng.gen_range(0..xs.len() + 1);
            xs.get(i)
                .copied()
                .unwrap_or_else(|| rng.gen::<f64>() * scale)
        }
        let base_per_ktick = if rng.gen_bool(0.25) {
            pick(rng, &[0.5, 1.0, 40.0, 500.0, 1000.0], 1500.0)
        } else {
            10f64.powf(rng.gen::<f64>() * 4.0 - 1.0)
        };
        let diurnal_period = [0, 0, 97, 1_000, 7_919, 400_000][rng.gen_range(0..6)];
        let diurnal_amplitude = if diurnal_period == 0 {
            0.0
        } else {
            pick(rng, &[0.0, 0.3, 0.8, 0.9, 0.999_999], 1.0)
        };
        let mut spec = ArrivalSpec {
            base_per_ktick,
            burst_multiplier: pick(rng, &[0.0, 0.5, 1.0, 4.0, 8.0], 10.0),
            burst_on: pick(rng, &[0.0, 1.0 / 2000.0, 0.01, 0.3, 1.0], 1.0),
            burst_off: pick(rng, &[0.0, 1.0 / 200.0, 0.1, 1.0], 1.0),
            diurnal_period,
            diurnal_amplitude,
        };
        // A burst at rate 0 with no way out would end the arrivals.
        if spec.burst_off == 0.0 {
            spec.burst_multiplier = spec.burst_multiplier.max(0.5);
        }
        spec
    }

    #[test]
    fn every_tick_matches_the_reference_rule() {
        let mut shapes = StdRng::seed_from_u64(0x5AFE_7105);
        let mut fast_states = 0;
        for i in 0..64 {
            let spec = random_shape(&mut shapes);
            let seed = 0xD1FF + i;
            let mut p = ArrivalProcess::new(spec, seed);
            let mut r = Reference::new(spec, seed);
            fast_states += p
                .count
                .iter()
                .filter(|c| matches!(c, Count::Below { .. }))
                .count();
            for t in 0..20_000 {
                assert_eq!(p.next_tick(), r.next_tick(), "{spec:?} tick {t}");
                assert_eq!(p.bursting, r.bursting, "{spec:?} tick {t}");
            }
            // One more arrival and its block and write draws: a drift in
            // the number of draws shows here even where counts agreed.
            let record = p.take_records(1, 1 << 40, 0.5);
            assert_eq!(record, [r.take_record(1 << 40, 0.5)], "{spec:?}");
        }
        assert!(fast_states >= 16, "{fast_states} states on the fast path");
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
