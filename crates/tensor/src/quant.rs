//! Quantized tensors: i8 codes plus scale/zero-point metadata, and the
//! integer matmul that consumes them.
//!
//! Two schemes cover the inference path:
//!
//! * **Affine** (activations): unsigned codes `0..=2^bits − 1` with a
//!   per-tensor scale and integer zero point, `x ≈ scale · (code − zp)`.
//!   Bits are capped at 7 so codes stay ≤ 127 — the
//!   [`crate::qgemm::QGEMM_A_MAX`] operand contract that keeps the AVX2
//!   `maddubs` kernel exact. The grid is the same uniform
//!   round-to-nearest-state construction as the device `Quantizer`
//!   (`2^bits` states spanning the clip range), with the range extended
//!   to include zero so a zero activation is always exactly
//!   representable.
//! * **Symmetric per-row** (weights): signed codes `−Q..=Q`,
//!   `Q = 2^(bits−1) − 1`, one scale per output row (the NT layout's
//!   row = one output channel), `w ≈ scale_row · code`.
//!
//! Code buffers are scratch-pool backed ([`crate::scratch`]), so
//! steady-state quantized inference allocates nothing.
//!
//! [`round_half_away`] is the workspace's per-element rounding: bitwise
//! `f32::round`, without the library call that keeps a loop scalar. The
//! affine quantizer here and the device quantizers in `xbar-device` use
//! it.

use crate::qgemm;
use crate::{scratch, Tensor};

/// Maximum affine (activation) bit width — codes must fit the unsigned
/// 7-bit GEMM operand.
pub const AFFINE_BITS_MAX: u8 = 7;

/// Maximum symmetric (weight) bit width — codes must fit i8.
pub const SYMMETRIC_BITS_MAX: u8 = 8;

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

/// Quantization scheme attached to a [`QuantizedTensor`].
#[derive(Debug, Clone, PartialEq)]
pub enum QScheme {
    /// Unsigned affine codes: `value = scale · (code − zero_point)`,
    /// codes in `0..=2^bits − 1`.
    Affine {
        /// Step between adjacent codes.
        scale: f32,
        /// The code representing zero, in `0..=2^bits − 1`.
        zero_point: i32,
        /// Bit width (≤ [`AFFINE_BITS_MAX`]).
        bits: u8,
    },
    /// Signed symmetric codes with one scale per row:
    /// `value = scales[row] · code`, codes in `−Q..=Q`.
    SymmetricPerRow {
        /// Per-row step (one entry per tensor row).
        scales: Vec<f32>,
        /// Bit width (≤ [`SYMMETRIC_BITS_MAX`]).
        bits: u8,
    },
}

/// An i8-coded tensor with its quantization scheme. 2-D row-major, like
/// the dense [`Tensor`] it mirrors.
#[derive(Debug, PartialEq)]
pub struct QuantizedTensor {
    shape: [usize; 2],
    data: Vec<i8>,
    scheme: QScheme,
}

impl Clone for QuantizedTensor {
    fn clone(&self) -> Self {
        let mut data = scratch::take_filled_i8(self.data.len(), 0);
        data.copy_from_slice(&self.data);
        Self {
            shape: self.shape,
            data,
            scheme: self.scheme.clone(),
        }
    }
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
            scheme: QScheme::Affine {
                scale,
                zero_point,
                bits,
            },
        }
    }

    /// Quantizes a 2-D weight matrix onto the signed symmetric grid with
    /// one scale per row (output channel).
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ bits ≤ 8` and `w` is 2-D.
    pub fn quantize_symmetric_per_row(w: &Tensor, bits: u8) -> Self {
        assert!(
            (2..=SYMMETRIC_BITS_MAX).contains(&bits),
            "symmetric bits must be 2..={SYMMETRIC_BITS_MAX}, got {bits}"
        );
        let shape = dims2(w);
        let (rows, cols) = (shape[0], shape[1]);
        let q = ((1u32 << (bits - 1)) - 1) as i32;
        let d = w.data();
        let mut scales = Vec::with_capacity(rows);
        let mut data = scratch::take_filled_i8(d.len(), 0);
        for r in 0..rows {
            let row = &d[r * cols..][..cols];
            let amax = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let scale = if amax > 0.0 && amax.is_finite() {
                amax / q as f32
            } else {
                1.0
            };
            scales.push(scale);
            for (c, &v) in data[r * cols..][..cols].iter_mut().zip(row) {
                *c = ((v / scale).round() as i32).clamp(-q, q) as i8;
            }
        }
        Self {
            shape,
            data,
            scheme: QScheme::SymmetricPerRow { scales, bits },
        }
    }

    /// `(rows, cols)` shape.
    pub fn shape(&self) -> [usize; 2] {
        self.shape
    }

    /// Raw i8 codes, row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// The attached scheme.
    pub fn scheme(&self) -> &QScheme {
        &self.scheme
    }

    /// The codes reinterpreted as the unsigned GEMM operand. Only valid
    /// for affine tensors, whose codes are non-negative by construction.
    pub fn as_unsigned(&self) -> &[u8] {
        debug_assert!(matches!(self.scheme, QScheme::Affine { .. }));
        debug_assert!(self.data.iter().all(|&c| c >= 0));
        // SAFETY: i8 and u8 have identical layout; all codes are ≥ 0, so
        // the reinterpretation preserves values.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast::<u8>(), self.data.len()) }
    }

    /// Per-row sums of the raw codes — the correction term an affine
    /// counterpart's zero point multiplies in [`qmatmul_nt`].
    pub fn row_code_sums(&self) -> Vec<i32> {
        let (rows, cols) = (self.shape[0], self.shape[1]);
        (0..rows)
            .map(|r| {
                self.data[r * cols..][..cols]
                    .iter()
                    .map(|&c| c as i32)
                    .sum()
            })
            .collect()
    }

    /// Reconstructs the f32 tensor the codes represent.
    pub fn dequantize(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.shape[0], self.shape[1]]);
        let od = out.data_mut();
        match &self.scheme {
            QScheme::Affine {
                scale, zero_point, ..
            } => {
                for (o, &c) in od.iter_mut().zip(&self.data) {
                    *o = scale * (c as i32 - zero_point) as f32;
                }
            }
            QScheme::SymmetricPerRow { scales, .. } => {
                let cols = self.shape[1];
                for (r, &s) in scales.iter().enumerate() {
                    for (o, &c) in od[r * cols..][..cols]
                        .iter_mut()
                        .zip(&self.data[r * cols..][..cols])
                    {
                        *o = s * c as f32;
                    }
                }
            }
        }
        out
    }

    /// Largest dequantization step of this tensor — "one quantization
    /// step" for parity tolerances.
    pub fn step(&self) -> f32 {
        match &self.scheme {
            QScheme::Affine { scale, .. } => *scale,
            QScheme::SymmetricPerRow { scales, .. } => scales.iter().fold(0.0f32, |m, &s| m.max(s)),
        }
    }
}

fn dims2(t: &Tensor) -> [usize; 2] {
    let s = t.shape();
    assert_eq!(s.len(), 2, "quantization expects a 2-D tensor");
    [s[0], s[1]]
}

/// Integer NT matmul of an affine activation tensor `a` (`m × k`)
/// against a per-row-symmetric weight tensor `b` (`n × k`), returning
/// the dequantized f32 product `dequant(a) · dequant(b)ᵀ` (`m × n`).
///
/// The products accumulate exactly in i32 through [`qgemm::qgemm_nt`];
/// the affine zero point is removed digitally with `b`'s row code sums:
/// `y[i,j] = s_a · s_b[j] · (acc[i,j] − zp_a · Σ_p b[j,p])`. The only
/// rounding is the final f32 scaling, identical for any thread count.
///
/// # Panics
///
/// Panics if inner dims disagree or the schemes are not
/// affine × symmetric-per-row.
pub fn qmatmul_nt(a: &QuantizedTensor, b: &QuantizedTensor) -> Tensor {
    let [m, k] = a.shape();
    let [n, kb] = b.shape();
    assert_eq!(k, kb, "qmatmul_nt: inner dims {k} vs {kb}");
    let QScheme::Affine {
        scale: sa,
        zero_point: zp,
        ..
    } = *a.scheme()
    else {
        panic!("qmatmul_nt: a must be affine-quantized");
    };
    let QScheme::SymmetricPerRow { scales, .. } = b.scheme() else {
        panic!("qmatmul_nt: b must be symmetric-per-row");
    };
    let mut acc = scratch::take_filled_i32(m * n, 0);
    qgemm::qgemm_nt(a.as_unsigned(), b.data(), &mut acc, m, k, n);
    let colsum = b.row_code_sums();
    let mut out = Tensor::zeros(&[m, n]);
    let od = out.data_mut();
    for i in 0..m {
        for j in 0..n {
            let corrected = acc[i * n + j] - zp * colsum[j];
            od[i * n + j] = sa * scales[j] * corrected as f32;
        }
    }
    scratch::give_i32(acc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::matmul_nt;
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
        let step = q.step();
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

    #[test]
    fn symmetric_per_row_scales_each_row_independently() {
        let mut w = Tensor::zeros(&[2, 64]);
        w.data_mut()[..64].iter_mut().for_each(|v| *v = 0.01);
        w.data_mut()[64..].iter_mut().for_each(|v| *v = 100.0);
        let q = QuantizedTensor::quantize_symmetric_per_row(&w, 8);
        // Both rows are at full scale despite a 10^4 magnitude gap.
        assert!(q.data().iter().all(|&c| c == 127));
        let back = q.dequantize();
        for (&a, &b) in w.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= 1e-4 * a.abs());
        }
    }

    #[test]
    fn qmatmul_matches_f32_on_dequantized_operands() {
        let mut rng = XorShiftRng::new(77);
        let x = rand_tensor(&mut rng, &[9, 48], -1.0, 1.0);
        let w = rand_tensor(&mut rng, &[13, 48], -0.5, 0.5);
        let qx = QuantizedTensor::quantize_affine(&x, 7);
        let qw = QuantizedTensor::quantize_symmetric_per_row(&w, 8);
        let got = qmatmul_nt(&qx, &qw);
        let want = matmul_nt(&qx.dequantize(), &qw.dequantize()).unwrap();
        // Same products, exact integer accumulation vs f32 accumulation:
        // agreement to f32 rounding, far inside one quantization step.
        for (&g, &e) in got.data().iter().zip(want.data()) {
            assert!((g - e).abs() <= 1e-4 + 1e-4 * e.abs(), "{g} vs {e}");
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
            let QScheme::Affine {
                scale, zero_point, ..
            } = *q.scheme()
            else {
                unreachable!("affine scheme")
            };
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
        assert_eq!(
            *q.scheme(),
            QScheme::Affine {
                scale: 1.0,
                zero_point: 10,
                bits: 7
            }
        );
        assert_eq!(q.data(), &[127, 127, 0, 15, 10]);
    }

    #[test]
    fn clone_and_drop_round_trip_through_the_pool() {
        let x = Tensor::full(&[4, 64], 0.5);
        let q = QuantizedTensor::quantize_affine(&x, 7);
        let q2 = q.clone();
        assert_eq!(q.data(), q2.data());
        assert_eq!(q.scheme(), q2.scheme());
        drop(q);
        drop(q2);
    }
}
