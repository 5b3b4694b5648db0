use xbar_tensor::quant::round_half_away;

use crate::ConductanceRange;

/// Uniform `B`-bit conductance quantizer.
///
/// A `B`-bit device exposes `2^B` equally spaced programmable states across
/// its conductance range; the quantizer snaps an ideal conductance to the
/// nearest state. This models the paper's first non-ideality — *limited
/// weight precision* — in the same way as its reference \[17\] (DoReFa-style
/// uniform quantization).
///
/// # Example
///
/// ```
/// use xbar_device::{ConductanceRange, Quantizer};
///
/// let q = Quantizer::new(2, ConductanceRange::normalized());
/// // 2 bits -> 4 states: 0, 1/3, 2/3, 1.
/// assert_eq!(q.num_states(), 4);
/// assert!((q.quantize(0.4) - 1.0 / 3.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    bits: u8,
    range: ConductanceRange,
}

impl Quantizer {
    /// Maximum supported bit width. `f32` has a 24-bit mantissa, so state
    /// indices remain exactly representable up to this width.
    pub const MAX_BITS: u8 = 16;

    /// Creates a `bits`-bit quantizer over `range`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is `0` or exceeds [`Quantizer::MAX_BITS`].
    pub fn new(bits: u8, range: ConductanceRange) -> Self {
        assert!(bits >= 1, "a device needs at least 1 bit (2 states)");
        assert!(
            bits <= Self::MAX_BITS,
            "bit width {bits} exceeds supported maximum {}",
            Self::MAX_BITS
        );
        Self { bits, range }
    }

    /// The bit width `B`.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The conductance range being quantized.
    pub fn range(&self) -> ConductanceRange {
        self.range
    }

    /// Number of programmable states, `2^B`.
    pub fn num_states(&self) -> usize {
        1usize << self.bits
    }

    /// Spacing between adjacent states.
    pub fn step(&self) -> f32 {
        self.range.span() / self.levels()
    }

    /// Snaps `g` to the nearest programmable state (clamping to the range
    /// first): bitwise `state_value(state_index(g))`. NaN snaps to state 0.
    #[inline]
    pub fn quantize(&self, g: f32) -> f32 {
        let levels = self.levels();
        self.range
            .denormalize(self.nearest_state(g, levels) / levels)
    }

    /// Index of the nearest state to `g` in `0..num_states()`; a midpoint
    /// takes the upper state, and NaN takes state 0.
    pub fn state_index(&self, g: f32) -> usize {
        self.nearest_state(g, self.levels()) as usize
    }

    /// `2^B − 1`, the number of steps between the end states.
    fn levels(&self) -> f32 {
        (self.num_states() - 1) as f32
    }

    /// The one snap formula behind [`Quantizer::quantize`],
    /// [`Quantizer::quantize_slice`] and [`Quantizer::state_index`]: the
    /// nearest state's index as an exact `f32` in `0..=levels`.
    #[inline]
    fn nearest_state(&self, g: f32, levels: f32) -> f32 {
        let (lo, hi) = (self.range.g_min(), self.range.g_max());
        // Compares, not `max`/`min`, so NaN reaches the guard below.
        let clamped = if g < lo {
            lo
        } else if g > hi {
            hi
        } else {
            g
        };
        let y = self.range.normalize(clamped) * levels;
        round_half_away(if y.is_nan() { 0.0 } else { y })
    }

    /// Conductance of state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_states()`.
    pub fn state_value(&self, index: usize) -> f32 {
        assert!(index < self.num_states(), "state {index} out of range");
        self.range.denormalize(index as f32 / self.levels())
    }

    /// Quantizes every element of a slice in place, exactly as
    /// [`Quantizer::quantize`] does one.
    pub fn quantize_slice(&self, values: &mut [f32]) {
        for v in values {
            *v = self.quantize(*v);
        }
    }
}

/// Uniform fake-quantization of a *signed* value to `bits` over
/// `[-limit, limit]` — used for activation quantization (the paper uses
/// 8-bit activations throughout its Fig. 5 results). ±Inf clamps to
/// `±limit`; NaN stays NaN.
///
/// The arguments must satisfy `1 ≤ bits ≤` [`Quantizer::MAX_BITS`] and
/// `limit > 0` with `2·limit` finite. This runs once per activation, so
/// it leaves that check to its caller (`QuantAct::new` makes it once) and
/// only debug-asserts it; outside that domain the result is meaningless.
#[inline]
pub fn quantize_signed(x: f32, bits: u8, limit: f32) -> f32 {
    debug_assert!(
        (1..=Quantizer::MAX_BITS).contains(&bits) && limit > 0.0 && (2.0 * limit).is_finite(),
        "quantize_signed needs 1..={} bits and a positive limit with 2·limit finite",
        Quantizer::MAX_BITS
    );
    let levels = ((1u32 << bits) - 1) as f32;
    // Compares, not `max`/`min`, so NaN passes through.
    let clamped = if x < -limit {
        -limit
    } else if x > limit {
        limit
    } else {
        x
    };
    let unit = round_half_away((clamped + limit) / (2.0 * limit) * levels) / levels;
    unit * 2.0 * limit - limit
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_tensor::rng::XorShiftRng;

    fn q(bits: u8) -> Quantizer {
        Quantizer::new(bits, ConductanceRange::normalized())
    }

    /// `Quantizer::state_index` as it was when it rounded with
    /// `f32::round`, copied verbatim.
    fn roundf_state_index(q: &Quantizer, g: f32) -> usize {
        let levels = (q.num_states() - 1) as f32;
        let unit = q.range.normalize(q.range.clamp(g));
        (unit * levels).round() as usize
    }

    /// `Quantizer::quantize` as it was: `state_value(state_index(g))`.
    fn roundf_quantize(q: &Quantizer, g: f32) -> f32 {
        q.state_value(roundf_state_index(q, g))
    }

    /// ±0, subnormals of both signs, huge finite values, ±Inf and NaN.
    fn special_values() -> Vec<f32> {
        let sub = f32::from_bits(1);
        vec![
            0.0,
            -0.0,
            sub,
            -sub,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            3e9,
            -3e9,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ]
    }

    /// `v` and its two neighbouring floats.
    fn with_neighbours(v: f32) -> [f32; 3] {
        [v.next_down(), v, v.next_up()]
    }

    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Every tie `(k + ½)` of a `levels`-step grid (a sample of 4096 on
    /// the finer grids), mapped through `at`, with its neighbours.
    fn grid_ties(levels: u32, rng: &mut XorShiftRng, at: impl Fn(f32) -> f32) -> Vec<f32> {
        let ks: Vec<u32> = if levels <= 4096 {
            (0..levels).collect()
        } else {
            (0..4096)
                .map(|_| rng.below(levels as usize) as u32)
                .collect()
        };
        ks.into_iter()
            .flat_map(|k| with_neighbours(at((k as f32 + 0.5) / levels as f32)))
            .collect()
    }

    #[test]
    fn roundf_pin_state_snap() {
        let mut rng = XorShiftRng::new(0x5A);
        // The benchmark devices' grids (quantized_linear(4/5/8) over the
        // normalized range), every width, and random ranges.
        let mut quantizers: Vec<Quantizer> = [4, 5, 8].into_iter().map(q).collect();
        quantizers.extend((1..=Quantizer::MAX_BITS).map(q));
        for _ in 0..16 {
            let lo = rng.uniform(0.0, 2.0);
            let hi = lo + rng.uniform(1e-3, 3.0);
            let bits = 1 + rng.below(Quantizer::MAX_BITS as usize) as u8;
            quantizers.push(Quantizer::new(bits, ConductanceRange::new(lo, hi)));
        }
        let mut draws = 0usize;
        for (i, q) in quantizers.iter().enumerate() {
            let (lo, hi) = (q.range().g_min(), q.range().g_max());
            let levels = (q.num_states() - 1) as u32;
            let mut inputs = special_values();
            inputs.extend(with_neighbours(lo));
            inputs.extend(with_neighbours(hi));
            inputs.extend(grid_ties(levels, &mut rng, |u| q.range().denormalize(u)));
            // The three benchmark grids take most of the sweep.
            let sweep = if i < 3 { 250_000 } else { 8_000 };
            let span = hi - lo;
            inputs.extend((0..sweep).map(|_| rng.uniform(lo - 0.25 * span, hi + 0.25 * span)));
            let mut sliced = inputs.clone();
            q.quantize_slice(&mut sliced);
            for (&g, &s) in inputs.iter().zip(&sliced) {
                let want = roundf_quantize(q, g);
                assert!(same_bits(q.quantize(g), want), "{q:?} at {g:e}");
                assert!(same_bits(s, want), "{q:?} slice at {g:e}");
                assert_eq!(q.state_index(g), roundf_state_index(q, g), "{q:?} at {g:e}");
            }
            draws += inputs.len();
        }
        assert!(draws >= 1_000_000, "{draws} draws");
    }

    #[test]
    fn nan_snaps_to_the_lowest_state_and_infinities_clamp() {
        let q = Quantizer::new(3, ConductanceRange::new(0.25, 0.75));
        assert_eq!(q.state_index(f32::NAN), 0);
        assert_eq!(q.quantize(f32::NAN), 0.25);
        assert_eq!(q.quantize(f32::INFINITY), 0.75);
        assert_eq!(q.quantize(f32::NEG_INFINITY), 0.25);
        let mut v = [f32::NAN, f32::INFINITY];
        q.quantize_slice(&mut v);
        assert_eq!(v, [0.25, 0.75]);
    }

    #[test]
    fn one_bit_device_has_two_states() {
        let q = q(1);
        assert_eq!(q.num_states(), 2);
        assert_eq!(q.quantize(0.4), 0.0);
        assert_eq!(q.quantize(0.6), 1.0);
    }

    #[test]
    fn endpoints_are_states() {
        for bits in 1..=8 {
            let q = q(bits);
            assert_eq!(q.quantize(0.0), 0.0);
            assert_eq!(q.quantize(1.0), 1.0);
        }
    }

    #[test]
    fn quantize_is_idempotent() {
        let q = q(3);
        for i in 0..100 {
            let x = i as f32 / 99.0;
            let once = q.quantize(x);
            assert_eq!(q.quantize(once), once);
        }
    }

    #[test]
    fn quantize_is_monotone() {
        let q = q(4);
        let mut prev = f32::NEG_INFINITY;
        for i in 0..=1000 {
            let x = i as f32 / 1000.0;
            let v = q.quantize(x);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let q = q(5);
        let half = q.step() / 2.0;
        for i in 0..=1000 {
            let x = i as f32 / 1000.0;
            assert!((q.quantize(x) - x).abs() <= half + 1e-6);
        }
    }

    #[test]
    fn out_of_range_values_clamp() {
        let q = q(4);
        assert_eq!(q.quantize(-3.0), 0.0);
        assert_eq!(q.quantize(42.0), 1.0);
    }

    #[test]
    fn state_index_round_trips() {
        let q = q(6);
        for idx in 0..q.num_states() {
            assert_eq!(q.state_index(q.state_value(idx)), idx);
        }
    }

    #[test]
    fn step_matches_state_spacing() {
        let q = q(3);
        let diff = q.state_value(1) - q.state_value(0);
        assert!((diff - q.step()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least 1 bit")]
    fn rejects_zero_bits() {
        let _ = Quantizer::new(0, ConductanceRange::normalized());
    }

    #[test]
    #[should_panic(expected = "exceeds supported maximum")]
    fn rejects_excess_bits() {
        let _ = Quantizer::new(17, ConductanceRange::normalized());
    }

    #[test]
    fn non_unit_range_supported() {
        let q = Quantizer::new(2, ConductanceRange::new(0.5, 1.5));
        assert_eq!(q.state_value(0), 0.5);
        assert_eq!(q.state_value(3), 1.5);
        assert!((q.quantize(0.9) - (0.5 + 1.0 / 3.0)).abs() < 1e-6);
    }

    #[test]
    fn quantize_slice_touches_every_element() {
        let q = q(1);
        let mut v = vec![0.1, 0.9, 0.45, 0.55];
        q.quantize_slice(&mut v);
        assert_eq!(v, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn signed_quantization_is_symmetric_and_bounded() {
        for bits in [2u8, 4, 8] {
            for i in -50..=50 {
                let x = i as f32 / 25.0;
                let qx = quantize_signed(x, bits, 1.0);
                assert!(qx.abs() <= 1.0 + 1e-6);
                // Antisymmetric up to the level grid.
                let qnx = quantize_signed(-x, bits, 1.0);
                assert!((qx + qnx).abs() <= 2.0 / ((1u32 << bits) - 1) as f32 + 1e-6);
            }
        }
    }

    #[test]
    fn signed_quantization_high_bits_is_near_identity() {
        for i in -10..=10 {
            let x = i as f32 / 10.0;
            assert!((quantize_signed(x, 16, 1.0) - x).abs() < 1e-4);
        }
    }

    #[test]
    fn one_bit_grid_has_exactly_the_range_endpoints() {
        let q = Quantizer::new(1, ConductanceRange::new(0.25, 0.75));
        assert_eq!(q.num_states(), 2);
        assert_eq!(q.state_value(0), 0.25);
        assert_eq!(q.state_value(1), 0.75);
        assert_eq!(q.step(), 0.5);
        // Every input lands on one of the two states.
        for i in 0..=20 {
            let g = i as f32 / 20.0;
            assert!(q.quantize(g) == 0.25 || q.quantize(g) == 0.75);
        }
    }

    #[test]
    fn max_bits_grid_round_trips_every_state() {
        let q = q(Quantizer::MAX_BITS);
        assert_eq!(q.num_states(), 1 << 16);
        assert!(q.step() > 0.0);
        // All 2^16 states survive value → index → value exactly: state
        // indices stay inside f32's 24-bit exact-integer window.
        for idx in (0..q.num_states()).step_by(257).chain([q.num_states() - 1]) {
            let v = q.state_value(idx);
            assert_eq!(q.state_index(v), idx);
            assert_eq!(q.quantize(v), v);
        }
    }

    #[test]
    fn midpoints_round_half_to_the_upper_state() {
        // `state_index` uses `round()` (half away from zero), so an input
        // exactly between two states snaps to the higher one.
        for bits in [1u8, 2, 3, 4] {
            let q = q(bits);
            for idx in 0..q.num_states() - 1 {
                let mid = (idx as f32 + 0.5) / (q.num_states() - 1) as f32;
                assert_eq!(q.state_index(mid), idx + 1, "bits={bits} idx={idx}");
            }
        }
    }

    #[test]
    fn state_indices_round_trip_through_i8_codes() {
        // The quantized MVM stores state indices centered into i8
        // (`idx − 2^(B−1)`); for every B ≤ 8 the centering is lossless.
        for bits in 1..=8u8 {
            let q = q(bits);
            let half = 1i32 << (bits - 1);
            for idx in 0..q.num_states() {
                let code = (idx as i32 - half) as i8;
                assert_eq!((code as i32 + half) as usize, idx, "bits={bits}");
            }
        }
    }
}
