//! Quantized activations: unsigned affine i8 codes with their scale and
//! zero point, the DAC side of the crossbar's integer readout.
//!
//! Codes run over `0..=2^bits − 1` with a per-tensor scale and integer
//! zero point, `x ≈ scale · (code − zero_point)`. Bits are capped at 7 so
//! codes stay ≤ 127 — the [`crate::qgemm::QGEMM_A_MAX`] operand contract
//! that keeps the AVX2 `maddubs` kernel exact. The grid is the same
//! uniform round-to-nearest-state construction as the device `Quantizer`
//! (`2^bits` states spanning the clip range), with the range extended to
//! include zero so a zero activation is always exactly representable.
//!
//! Code buffers are scratch-pool backed ([`crate::scratch`]), so
//! steady-state quantized inference allocates nothing.
//!
//! [`round_half_away`] is the workspace's per-element rounding: bitwise
//! `f32::round`, without the library call that keeps a loop scalar. The
//! affine quantizer here and the device quantizers in `xbar-device` use
//! it.

use crate::{scratch, Tensor};

/// Maximum affine (activation) bit width — codes must fit the unsigned
/// 7-bit GEMM operand.
pub const AFFINE_BITS_MAX: u8 = 7;

/// Rounds half away from zero: bitwise `y.round()` for every `y`, with
/// NaN in giving NaN out.
///
/// On the baseline x86-64 target (SSE2, no rounding instruction)
/// `f32::round` is a `roundf` library call, and one call per element
/// keeps a quantizer loop from vectorising. This helper rounds the
/// magnitude as "integer part plus a compare" and puts the sign back,
/// all in operations SSE2 runs lane-wise:
///
/// * a magnitude of `2^23` or more (±Inf and NaN too) has no fractional
///   bits and passes through unchanged;
/// * below that, `t = trunc(|y|)` converts exactly through `i32`,
///   `|y| − t` is exact, and `t + (|y| − t ≥ ½)` is `round(|y|)`;
/// * `copysign` restores the sign, so `−0.3` gives `−0.0` as `round`
///   does.
#[inline]
pub fn round_half_away(y: f32) -> f32 {
    // The smallest magnitude at which every f32 is an integer.
    const INTEGRAL: f32 = 8_388_608.0;
    let mag = y.abs();
    // False for NaN and ±Inf as well.
    let fractional = mag < INTEGRAL;
    let m = if fractional { mag } else { 0.0 };
    // SAFETY: `m` is finite and in `[0, 2^23)`, so it fits an i32.
    let t = unsafe { m.to_int_unchecked::<i32>() } as f32;
    let r = if m - t >= 0.5 { t + 1.0 } else { t };
    (if fractional { r } else { mag }).copysign(y)
}

/// The unsigned affine i8 codes of a 2-D tensor, row-major like the
/// dense [`Tensor`] they code: `value = scale · (code − zero_point)`.
#[derive(Debug)]
pub struct QuantizedTensor {
    shape: [usize; 2],
    data: Vec<i8>,
    /// Step between adjacent codes.
    pub scale: f32,
    /// The code representing zero, in `0..=2^bits − 1`.
    pub zero_point: i32,
    /// Bit width, `1..=`[`AFFINE_BITS_MAX`].
    pub bits: u8,
}

impl Drop for QuantizedTensor {
    fn drop(&mut self) {
        scratch::give_i8(std::mem::take(&mut self.data));
    }
}

impl QuantizedTensor {
    /// Quantizes `x` onto the unsigned affine grid, deriving the clip
    /// range from the data. See
    /// [`quantize_affine_with_range`](Self::quantize_affine_with_range).
    pub fn quantize_affine(x: &Tensor, bits: u8) -> Self {
        Self::quantize_affine_with_range(x, bits, None)
    }

    /// Quantizes `x` onto the unsigned affine grid over `range` (e.g. a
    /// calibrated activation range); values outside clip. The range is
    /// extended to include zero, so zero is always a grid point
    /// (`code == zero_point` exactly). Each code is
    /// `clamp(round(v / scale) + zero_point)`, rounding half away from
    /// zero ([`round_half_away`]); ±Inf and any finite value past the
    /// range clip to the end code, and NaN codes as the zero point.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ bits ≤ 7` and `x` is 2-D.
    pub fn quantize_affine_with_range(x: &Tensor, bits: u8, range: Option<(f32, f32)>) -> Self {
        assert!(
            (1..=AFFINE_BITS_MAX).contains(&bits),
            "affine bits must be 1..={AFFINE_BITS_MAX}, got {bits}"
        );
        let shape = dims2(x);
        let d = x.data();
        let (mut lo, mut hi) = range.unwrap_or_else(|| {
            d.iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                })
        });
        lo = lo.min(0.0);
        hi = hi.max(0.0);
        let max_code = ((1u32 << bits) - 1) as i32;
        let span = hi - lo;
        let scale = if span > 0.0 && span.is_finite() {
            span / max_code as f32
        } else {
            1.0
        };
        let zero_point = ((-lo / scale).round() as i32).clamp(0, max_code);
        // Codes clamp to `0..=max_code`, so every `|v / scale| ≥ 2^24`
        // codes as ±2^24 does; bounding first keeps the conversion exact
        // and the zero-point add in range.
        const BOUND: f32 = 16_777_216.0;
        let mut data = scratch::take_filled_i8(d.len(), 0);
        for (c, &v) in data.iter_mut().zip(d) {
            // NaN codes as the zero point.
            let y = v / scale;
            let y = if y.is_nan() {
                0.0
            } else {
                y.clamp(-BOUND, BOUND)
            };
            // SAFETY: `y` is finite and within ±2^24, and so is its
            // rounded value, which therefore fits an i32.
            let code = unsafe { round_half_away(y).to_int_unchecked::<i32>() } + zero_point;
            *c = code.clamp(0, max_code) as i8;
        }
        Self {
            shape,
            data,
            scale,
            zero_point,
            bits,
        }
    }

    /// Raw i8 codes, row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// The codes reinterpreted as the unsigned GEMM operand (affine codes
    /// are non-negative by construction).
    pub fn as_unsigned(&self) -> &[u8] {
        debug_assert!(self.data.iter().all(|&c| c >= 0));
        // SAFETY: i8 and u8 have identical layout; all codes are ≥ 0, so
        // the reinterpretation preserves values.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast::<u8>(), self.data.len()) }
    }

    /// Reconstructs the f32 tensor the codes represent.
    pub fn dequantize(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.shape[0], self.shape[1]]);
        for (o, &c) in out.data_mut().iter_mut().zip(&self.data) {
            *o = self.scale * (c as i32 - self.zero_point) as f32;
        }
        out
    }
}

fn dims2(t: &Tensor) -> [usize; 2] {
    let s = t.shape();
    assert_eq!(s.len(), 2, "quantization expects a 2-D tensor");
    [s[0], s[1]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qgemm::QGEMM_A_MAX;
    use crate::rng::XorShiftRng;

    fn rand_tensor(rng: &mut XorShiftRng, shape: &[usize], lo: f32, hi: f32) -> Tensor {
        let mut t = Tensor::zeros(shape);
        for v in t.data_mut() {
            *v = lo + (hi - lo) * rng.next_f32();
        }
        t
    }

    #[test]
    fn affine_round_trip_within_half_step() {
        let mut rng = XorShiftRng::new(11);
        let x = rand_tensor(&mut rng, &[6, 40], -0.8, 1.3);
        let q = QuantizedTensor::quantize_affine(&x, 7);
        let back = q.dequantize();
        let step = q.scale;
        for (&a, &b) in x.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= 0.5 * step + 1e-6, "{a} vs {b} step {step}");
        }
        // Zero is exactly representable.
        let z = QuantizedTensor::quantize_affine(&Tensor::zeros(&[2, 70]), 7);
        assert!(z.dequantize().data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn affine_codes_respect_the_unsigned_bound() {
        let mut rng = XorShiftRng::new(3);
        let x = rand_tensor(&mut rng, &[4, 33], -5.0, 5.0);
        for bits in 1..=AFFINE_BITS_MAX {
            let q = QuantizedTensor::quantize_affine(&x, bits);
            let max_code = (1i32 << bits) - 1;
            assert!(q
                .data()
                .iter()
                .all(|&c| c >= 0 && (c as i32) <= max_code.min(QGEMM_A_MAX as i32)));
        }
    }

    /// The affine quantizer as it was when it rounded with `f32::round`,
    /// copied verbatim, returning `(codes, scale, zero_point)`. Its
    /// `+ zero_point` overflows when `round(v / scale) ≥ 2^31 − zp`
    /// (a panic in debug builds), so callers skip those inputs.
    fn roundf_affine(x: &Tensor, bits: u8, range: Option<(f32, f32)>) -> (Vec<i8>, f32, i32) {
        let d = x.data();
        let (mut lo, mut hi) = range.unwrap_or_else(|| {
            d.iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                })
        });
        lo = lo.min(0.0);
        hi = hi.max(0.0);
        let max_code = ((1u32 << bits) - 1) as i32;
        let span = hi - lo;
        let scale = if span > 0.0 && span.is_finite() {
            span / max_code as f32
        } else {
            1.0
        };
        let zero_point = ((-lo / scale).round() as i32).clamp(0, max_code);
        let mut data = vec![0i8; d.len()];
        for (c, &v) in data.iter_mut().zip(d) {
            let code = (v / scale).round() as i32 + zero_point;
            *c = code.clamp(0, max_code) as i8;
        }
        (data, scale, zero_point)
    }

    /// Whether `roundf_affine`'s zero-point add overflows on `v`.
    fn roundf_overflows(v: f32, scale: f32, zero_point: i32) -> bool {
        ((v / scale).round() as i32)
            .checked_add(zero_point)
            .is_none()
    }

    /// ±0, subnormals of both signs, the extremes of f32, ±Inf and NaN.
    fn special_values() -> Vec<f32> {
        let sub = f32::from_bits(1);
        vec![
            0.0,
            -0.0,
            sub,
            -sub,
            f32::MIN_POSITIVE.next_down(),
            -f32::MIN_POSITIVE.next_down(),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            3e9,
            -3e9,
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

    #[test]
    fn roundf_pin_round_half_away() {
        let mut inputs = special_values();
        // Every tie below 2^17 and a sample of those up to 2^23, each with
        // its neighbours; then the edges of the exact-integer range.
        let mut rng = XorShiftRng::new(0x0F);
        let ties = (0..1u32 << 17).chain((0..100_000).map(|_| rng.below(1 << 23) as u32));
        for k in ties {
            for v in with_neighbours(k as f32 + 0.5) {
                inputs.extend([v, -v]);
            }
        }
        for e in [22, 23, 24, 31] {
            let p = (1u64 << e) as f32;
            for v in with_neighbours(p) {
                inputs.extend([v, -v]);
            }
        }
        // A million draws: half over every bit pattern, half in ±2^24.
        for i in 0..1_000_000 {
            let bits = rng.next_u64() as u32;
            inputs.push(if i % 2 == 0 {
                f32::from_bits(bits)
            } else {
                rng.uniform(-16_777_216.0, 16_777_216.0)
            });
        }
        for &y in &inputs {
            let (got, want) = (round_half_away(y), y.round());
            assert!(same_bits(got, want), "{y:e}: {got:e} vs {want:e}");
        }
    }

    #[test]
    fn roundf_pin_affine_codes() {
        let mut rng = XorShiftRng::new(0xAF);
        let mut draws = 0usize;
        for case in 0..1024 {
            let bits = 1 + rng.below(AFFINE_BITS_MAX as usize) as u8;
            let max_code = (1i32 << bits) - 1;
            // A quarter of the ranges give a power-of-two scale, on which
            // every tie `(k + ½)·scale` divides back exactly.
            let range = match case % 4 {
                0 => {
                    let scale = 2f32.powi(rng.below(21) as i32 - 10);
                    let zp = rng.below(max_code as usize + 1) as f32;
                    Some((-zp * scale, (max_code as f32 - zp) * scale))
                }
                1 => None,
                _ => Some((rng.uniform(-8.0, 0.0), rng.uniform(0.0, 8.0))),
            };
            let (lo, hi) = range.unwrap_or((-3.0, 5.0));
            let mut values: Vec<f32> = (0..880)
                .map(|_| rng.uniform(1.25 * lo, 1.25 * hi))
                .collect();
            let (_, scale, zp) = roundf_affine(
                &Tensor::from_vec(vec![lo, hi], &[1, 2]).unwrap(),
                bits,
                range,
            );
            for k in -zp - 1..=max_code - zp + 1 {
                values.extend(with_neighbours((k as f32 + 0.5) * scale));
            }
            values.extend(with_neighbours(lo));
            values.extend(with_neighbours(hi));
            if range.is_some() {
                values.extend(special_values());
            }
            let cols = values.len();
            let x = Tensor::from_vec(values, &[1, cols]).unwrap();
            let q = QuantizedTensor::quantize_affine_with_range(&x, bits, range);
            let (scale, zero_point) = (q.scale, q.zero_point);
            // The old loop sees zero where it would overflow: such inputs
            // (only ever with a fixed range) must clip to the top code.
            let overflows = |v| roundf_overflows(v, scale, zero_point);
            let safe = x.map(|v| if overflows(v) { 0.0 } else { v });
            let (want, w_scale, w_zp) = roundf_affine(&safe, bits, range);
            assert_eq!((scale.to_bits(), zero_point), (w_scale.to_bits(), w_zp));
            for ((&v, &got), &want) in x.data().iter().zip(q.data()).zip(&want) {
                if overflows(v) {
                    assert_eq!(got as i32, max_code, "{v:e} must clip to the top code");
                } else {
                    assert_eq!(got, want, "{v:e} at scale {scale:e}, zp {zero_point}");
                }
            }
            draws += cols;
        }
        assert!(draws >= 1_000_000, "{draws} draws");
    }

    #[test]
    fn affine_codes_clip_overflowing_and_infinite_values() {
        // Range (-10, 117) at 7 bits: scale 1, zero point 10. Adding the
        // zero point after a saturating i32 conversion overflows on 3e9
        // and +Inf; both must clip to the top code.
        let x = Tensor::from_vec(vec![3e9, f32::INFINITY, -3e9, 5.0, f32::NAN], &[1, 5]).unwrap();
        let q = QuantizedTensor::quantize_affine_with_range(&x, 7, Some((-10.0, 117.0)));
        assert_eq!((q.scale, q.zero_point, q.bits), (1.0, 10, 7));
        assert_eq!(q.data(), &[127, 127, 0, 15, 10]);
    }

    #[test]
    fn dropped_codes_return_to_the_pool() {
        let x = Tensor::full(&[4, 64], 0.5);
        let q = QuantizedTensor::quantize_affine(&x, 7);
        let codes = q.data().as_ptr();
        drop(q);
        // The next tensor of the same size takes the parked buffer.
        let again = QuantizedTensor::quantize_affine(&x, 7);
        assert_eq!(again.data().as_ptr(), codes);
    }
}
