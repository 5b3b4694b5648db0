//! Integer (int8) crossbar readout: the ADC-exact quantized forward path.
//!
//! The fp32 forward path multiplies activations against the effective
//! conductance matrix in floating point. Real inference hardware does
//! neither: DACs drive the rows with a few bits of activation code, the
//! array accumulates charge, and a column ADC digitizes the sum. This
//! module models that pipeline as *exact integer arithmetic* end to end:
//!
//! 1. **Activations** quantize onto the unsigned affine grid
//!    (`x ≈ s_x · (c − zp)`, codes ≤ 127 — the
//!    [`xbar_tensor::qgemm`] operand contract).
//! 2. **Conductances** are read as their state indices on the device's
//!    `B`-bit grid, centered into i8 (`gsym = index − 2^(B−1)`, so
//!    `g = c₀ + step · gsym`). This requires `B ≤ 8`; conductances that
//!    sit off-grid (variation, drift, IR drop) snap to the nearest state
//!    — the read discretization a digital readout cannot avoid.
//! 3. Each tile computes `acc = Σ c · gsym` through the int8 GEMM
//!    kernels, removes the zero point digitally
//!    (`A = acc − zp · Σ gsym`, the analog zero-point compensation
//!    current), and digitizes `A` with the column [`AdcSpec`] — ranged
//!    from the worst-case tile-local magnitude, truncating and
//!    saturating exactly as the converter would.
//! 4. Digitized partial sums accumulate *as integers* across grid rows
//!    in fixed tile order; the only floating-point work is the final
//!    per-element reconstruction
//!    `y_dev = s_x · (c₀ · S + step · A)` (with `S = Σ (c − zp)` the
//!    input code sum), done serially on the calling thread.
//!
//! Step 2 depends only on the programmed array, so it lives in a
//! [`ReadoutImage`] built once per set of conductances; steps 1, 3 and 4
//! run per batch in [`ReadoutImage::raw_batch`]. Because every parallel
//! step is integer-exact and the commit order is pinned by
//! [`backend::ordered_stream`], the quantized forward is **bitwise
//! identical for any thread count** — stronger than the fp32 path's
//! tolerance-free determinism, and checked by `ci.sh`.

use xbar_device::{AdcSpec, DeviceConfig, Quantizer};
use xbar_tensor::backend;
use xbar_tensor::qgemm::{self, QGEMM_MAX_K};
use xbar_tensor::quant::{QScheme, QuantizedTensor, AFFINE_BITS_MAX};
use xbar_tensor::{scratch, Tensor};

use crate::crossbar::CrossbarArray;
use crate::error::MappingError;
use crate::tiling::{TileGrid, TiledCrossbar};

/// The operation the readout's errors name.
const OP: &str = "forward_quantized";

/// Configuration of the integer readout: activation DAC width, optional
/// calibrated activation clip range, and the column ADC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantReadout {
    /// Activation (DAC) bit width, `1..=7` — codes must respect the
    /// unsigned GEMM operand bound.
    pub act_bits: u8,
    /// Calibrated activation clip range `(lo, hi)`. `None` derives the
    /// range from the batch itself (min/max), which is convenient but
    /// makes the grid data-dependent; calibrated inference should pass
    /// the range observed during calibration.
    pub act_range: Option<(f32, f32)>,
    /// The column ADC model.
    pub adc: AdcSpec,
}

impl Default for QuantReadout {
    /// 7-bit activations (the widest exact configuration), data-derived
    /// range, effectively transparent ADC.
    fn default() -> Self {
        Self {
            act_bits: 7,
            act_range: None,
            adc: AdcSpec::lossless(),
        }
    }
}

impl QuantReadout {
    /// The readout with a `bits`-wide column ADC and defaults elsewhere.
    pub fn with_adc_bits(bits: u8) -> Self {
        Self {
            adc: AdcSpec::new(bits),
            ..Self::default()
        }
    }

    /// Checks that `x` can be read through this readout: an activation
    /// width the unsigned GEMM operand holds (`1..=7`), and finite values
    /// — the affine quantizer would otherwise code a NaN as the zero
    /// point and return finite garbage.
    ///
    /// # Errors
    ///
    /// [`MappingError::Unsupported`] for an activation width outside
    /// `1..=7`; [`MappingError::NonFiniteInput`] if `x` holds NaN or ±Inf.
    pub fn check_input(&self, x: &Tensor) -> Result<(), MappingError> {
        if !(1..=AFFINE_BITS_MAX).contains(&self.act_bits) {
            return Err(MappingError::Unsupported {
                op: OP,
                reason: format!(
                    "activation bit width {} outside 1..={AFFINE_BITS_MAX}; codes must fit \
                     the unsigned 7-bit GEMM operand",
                    self.act_bits
                ),
            });
        }
        if !x.data().iter().all(|v| v.is_finite()) {
            return Err(MappingError::NonFiniteInput { op: OP });
        }
        Ok(())
    }
}

/// Checks that `device` supports the integer readout: it must expose a
/// quantized state grid no wider than 8 bits (centered indices must fit
/// i8).
fn readout_quantizer(device: &DeviceConfig) -> Result<Quantizer, MappingError> {
    let q = device
        .quantizer_opt()
        .ok_or_else(|| MappingError::Unsupported {
            op: OP,
            reason: "device conductance is continuous; the integer readout needs a \
                     quantized state grid (set a bit width ≤ 8)"
                .into(),
        })?;
    if q.bits() > 8 {
        return Err(MappingError::Unsupported {
            op: OP,
            reason: format!(
                "device bit width {} exceeds 8; centered state codes must fit i8",
                q.bits()
            ),
        });
    }
    Ok(q)
}

/// One tile of a [`ReadoutImage`]: input rows `r0..r0 + rl` × device
/// rows `d0..d0 + dl`.
#[derive(Debug, Clone)]
struct TileImage {
    r0: usize,
    rl: usize,
    d0: usize,
    dl: usize,
    /// Centered state codes `gsym`, `dl × rl` row-major — the NT operand
    /// of the tile's int8 GEMM.
    codes: Vec<i8>,
    /// `Σ_i gsym[j, i]` per device row: the zero-point correction term.
    colsum: Vec<i32>,
}

/// The weight side of the integer readout of one conductance matrix
/// `(N_D × N_I)`: every tile's centered i8 state codes, packed as its
/// GEMM operand, and their column sums. It depends only on the
/// conductances, the tile grid and the device's state grid, so an array
/// read many times per programming builds it once; each batch then pays
/// only for [`ReadoutImage::raw_batch`].
#[derive(Debug, Clone)]
pub struct ReadoutImage {
    n_dev: usize,
    n_in: usize,
    /// `2^(B−1)`: the offset centering state indices into i8.
    half: i32,
    /// State spacing and the centered grid origin: `g = c0 + step · gsym`.
    step: f32,
    c0: f32,
    /// One entry per tile, in the grid's fixed commit order (row blocks
    /// outer, column groups inner).
    tiles: Vec<TileImage>,
}

impl ReadoutImage {
    /// Reads `conductances (N_D × N_I)` on `device`'s state grid and packs
    /// them per tile of `grid` (`None`: the whole array is one tile).
    /// Conductances that sit off-grid (variation, drift, IR drop) snap to
    /// the nearest state — the read discretization a digital readout
    /// cannot avoid.
    ///
    /// # Errors
    ///
    /// [`MappingError::Unsupported`] if the device has no quantizer or
    /// more than 8 bits, or `N_I` exceeds [`QGEMM_MAX_K`]; a shape error
    /// if `conductances` is not 2-D or disagrees with `grid`.
    pub fn new(
        conductances: &Tensor,
        grid: Option<&TileGrid>,
        device: &DeviceConfig,
    ) -> Result<Self, MappingError> {
        let q = readout_quantizer(device)?;
        let shape = conductances.shape();
        let grid_shape = grid.map(|g| [g.nd_total(), g.n_in()]);
        if shape.len() != 2 || grid_shape.is_some_and(|gs| gs != shape) {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                OP,
                format!("conductances {shape:?} do not match the tile grid {grid_shape:?}"),
            )));
        }
        let (nd, k) = (shape[0], shape[1]);
        if k > QGEMM_MAX_K {
            return Err(MappingError::Unsupported {
                op: OP,
                reason: format!("input width {k} exceeds the exact-i32 bound {QGEMM_MAX_K}"),
            });
        }
        // One tile per grid cell; the degenerate monolithic grid is a
        // single full-array tile.
        let spans: Vec<(usize, usize, usize, usize)> = match grid {
            Some(g) => g
                .row_blocks()
                .iter()
                .flat_map(|&(r0, rl)| {
                    g.col_groups()
                        .iter()
                        .map(move |cg| (r0, rl, cg.dev_start, cg.dev_len))
                })
                .collect(),
            None => vec![(0, k, 0, nd)],
        };
        let half = 1i32 << (q.bits() - 1);
        let g = conductances.data();
        let tiles = spans
            .into_iter()
            .map(|(r0, rl, d0, dl)| {
                let mut codes = Vec::with_capacity(dl * rl);
                for j in d0..d0 + dl {
                    codes.extend(
                        g[j * k + r0..][..rl]
                            .iter()
                            .map(|&v| (q.state_index(v) as i32 - half) as i8),
                    );
                }
                let colsum = (0..dl)
                    .map(|j| codes[j * rl..][..rl].iter().map(|&c| i32::from(c)).sum())
                    .collect();
                TileImage {
                    r0,
                    rl,
                    d0,
                    dl,
                    codes,
                    colsum,
                }
            })
            .collect();
        let step = q.step();
        Ok(Self {
            n_dev: nd,
            n_in: k,
            half,
            step,
            c0: q.state_value(0) + half as f32 * step,
            tiles,
        })
    }

    /// Raw dequantized column outputs `(batch × N_D)` of the readout of
    /// `x (batch × N_I)` — what the ADCs delivered, before the periphery
    /// combine. Activations quantize to `mode.act_bits`; each tile runs
    /// its own int8 GEMM, removes the zero point and digitizes through
    /// `mode.adc`, ranged for the tile's row depth; digitized partial sums
    /// accumulate as integers across row blocks in fixed tile order, so
    /// the result is bitwise identical for any thread count.
    ///
    /// # Errors
    ///
    /// A shape error unless `x` is `(batch, N_I)`; otherwise as
    /// [`QuantReadout::check_input`].
    pub fn raw_batch(&self, mode: &QuantReadout, x: &Tensor) -> Result<Tensor, MappingError> {
        let (nd, k) = (self.n_dev, self.n_in);
        if x.ndim() != 2 || x.shape()[1] != k {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                OP,
                format!("expected (batch, {k}) input, got {:?}", x.shape()),
            )));
        }
        mode.check_input(x)?;
        let batch = x.shape()[0];

        // Activation codes (unsigned affine, ≤ 127 by construction).
        let qx = QuantizedTensor::quantize_affine_with_range(x, mode.act_bits, mode.act_range);
        let QScheme::Affine {
            scale: sx,
            zero_point: zp,
            ..
        } = *qx.scheme()
        else {
            unreachable!("quantize_affine always returns an affine scheme")
        };
        let codes = qx.data();
        let max_code = ((1u32 << mode.act_bits) - 1) as i64;

        // Per-batch centered input code sums S[b] = Σ_i (c_i − zp): the term
        // the grid offset c0 multiplies. Row blocks partition the inputs, so
        // the total equals the sum of every tile's local S.
        let s_tot: Vec<i32> = (0..batch)
            .map(|b| codes[b * k..][..k].iter().map(|&c| c as i32 - zp).sum())
            .collect();

        // Digitized partial column sums, accumulated in i32: per-tile integer
        // GEMMs fan across the pool, the ordered stream commits them in
        // submission order, and every step is exact — bitwise identical at
        // any thread count.
        let mut a_tot = scratch::take_filled_i32(batch * nd, 0);
        let adc = mode.adc;
        let half = self.half as i64;
        backend::ordered_stream(
            self.tiles.iter().collect(),
            |_, t: &TileImage| {
                let (r0, rl, dl) = (t.r0, t.rl, t.dl);
                let mut a_blk = scratch::take_filled_i8(batch * rl, 0);
                for b in 0..batch {
                    a_blk[b * rl..][..rl].copy_from_slice(&codes[b * k + r0..][..rl]);
                }
                let mut acc = scratch::take_filled_i32(batch * dl, 0);
                // SAFETY: affine codes are non-negative (≤ 127), so the i8
                // buffer reinterprets to u8 value-preservingly.
                let a_u8 =
                    unsafe { std::slice::from_raw_parts(a_blk.as_ptr().cast::<u8>(), a_blk.len()) };
                qgemm::qgemm_nt(a_u8, &t.codes, &mut acc, batch, rl, dl);
                // Zero-point correction term, then the tile's ADC: ranged
                // from the worst-case tile-local centered sum
                // rl · max|c − zp| · max|gsym|.
                let shift = adc.shift_for(rl as i64 * max_code * half);
                for b in 0..batch {
                    for (a, &cs) in acc[b * dl..][..dl].iter_mut().zip(&t.colsum) {
                        *a = adc.convert(*a - zp * cs, shift);
                    }
                }
                scratch::give_i8(a_blk);
                (t.d0, dl, acc)
            },
            |_, (d0, dl, acc)| {
                for b in 0..batch {
                    let dst = &mut a_tot[b * nd + d0..][..dl];
                    for (d, &p) in dst.iter_mut().zip(&acc[b * dl..][..dl]) {
                        *d += p;
                    }
                }
                scratch::give_i32(acc);
            },
        );

        // Serial f32 reconstruction: y_dev = s_x · (c0 · S + step · A).
        let (step, c0) = (self.step, self.c0);
        let mut raw = Tensor::zeros(&[batch, nd]);
        let rd = raw.data_mut();
        for b in 0..batch {
            let base = sx * c0 * s_tot[b] as f32;
            for j in 0..nd {
                rd[b * nd + j] = base + sx * step * a_tot[b * nd + j] as f32;
            }
        }
        scratch::give_i32(a_tot);
        Ok(raw)
    }
}

impl CrossbarArray {
    /// Batched signed MVM through the integer readout:
    /// `X (batch × N_I) → Y (batch × N_O)`, with activations quantized to
    /// `mode.act_bits`, conductances read on the device state grid, and
    /// each column sum digitized by `mode.adc`. Builds a fresh
    /// [`ReadoutImage`] per call. Bitwise identical for any thread count.
    ///
    /// # Errors
    ///
    /// As [`ReadoutImage::new`] and [`ReadoutImage::raw_batch`].
    pub fn forward_quantized(
        &self,
        x: &Tensor,
        mode: &QuantReadout,
    ) -> Result<Tensor, MappingError> {
        let image = ReadoutImage::new(self.effective_conductances(), None, self.device())?;
        self.periphery().combine(&image.raw_batch(mode, x)?)
    }
}

impl TiledCrossbar {
    /// Batched signed MVM through the integer readout, tile by tile:
    /// each grid tile runs its own int8 GEMM and ADC (ranged for the
    /// tile's row depth), digitized partial sums accumulate as integers
    /// across row blocks, and the per-group periphery combines the
    /// result. Builds a fresh [`ReadoutImage`] per call. Bitwise identical
    /// for any thread count.
    ///
    /// # Errors
    ///
    /// As [`ReadoutImage::new`] and [`ReadoutImage::raw_batch`].
    pub fn forward_quantized(
        &self,
        x: &Tensor,
        mode: &QuantReadout,
    ) -> Result<Tensor, MappingError> {
        let image = ReadoutImage::new(
            self.effective_conductances(),
            Some(self.grid()),
            self.device(),
        )?;
        self.periphery().combine(&image.raw_batch(mode, x)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mapping;
    use xbar_device::TileShape;
    use xbar_tensor::rng::XorShiftRng;

    fn rand_tensor(rng: &mut XorShiftRng, shape: &[usize], lo: f32, hi: f32) -> Tensor {
        let mut t = Tensor::zeros(shape);
        for v in t.data_mut() {
            *v = lo + (hi - lo) * rng.next_f32();
        }
        t
    }

    fn ideal_device(bits: u8) -> DeviceConfig {
        DeviceConfig::builder().bits(bits).build()
    }

    #[test]
    fn monolithic_readout_matches_f32_on_the_quantized_input() {
        let mut rng = XorShiftRng::new(42);
        let w = rand_tensor(&mut rng, &[11, 37], -0.05, 0.05);
        let xbar =
            CrossbarArray::program_signed(&w, Mapping::Acm, ideal_device(6), &mut rng).unwrap();
        let x = rand_tensor(&mut rng, &[5, 37], -1.0, 1.0);
        let mode = QuantReadout::default();
        let got = xbar.forward_quantized(&x, &mode).unwrap();
        // The same product through the fp32 path, fed the dequantized
        // activations the integer path actually sees: identical math,
        // integer-exact vs f32 accumulation.
        let x_dq = QuantizedTensor::quantize_affine(&x, mode.act_bits).dequantize();
        let want = xbar.forward(&x_dq).unwrap();
        for (&g, &e) in got.data().iter().zip(want.data()) {
            assert!((g - e).abs() <= 1e-4 + 1e-3 * e.abs(), "{g} vs {e}");
        }
    }

    #[test]
    fn tiled_readout_matches_f32_on_the_quantized_input() {
        let mut rng = XorShiftRng::new(7);
        let w = rand_tensor(&mut rng, &[20, 50], -0.04, 0.04);
        let xbar = TiledCrossbar::program_signed(
            &w,
            Mapping::Acm,
            ideal_device(6),
            TileShape::new(16, 16),
            &mut rng,
        )
        .unwrap();
        assert!(xbar.num_tiles() > 1);
        let x = rand_tensor(&mut rng, &[4, 50], -1.0, 1.0);
        let mode = QuantReadout::default();
        let got = xbar.forward_quantized(&x, &mode).unwrap();
        let x_dq = QuantizedTensor::quantize_affine(&x, mode.act_bits).dequantize();
        let want = xbar.forward(&x_dq).unwrap();
        for (&g, &e) in got.data().iter().zip(want.data()) {
            assert!((g - e).abs() <= 1e-4 + 1e-3 * e.abs(), "{g} vs {e}");
        }
    }

    #[test]
    fn readout_is_bitwise_identical_serial_vs_parallel() {
        let mut rng = XorShiftRng::new(99);
        let w = rand_tensor(&mut rng, &[24, 60], -0.3, 0.3);
        let xbar = TiledCrossbar::program_signed(
            &w,
            Mapping::BiasColumn,
            ideal_device(5),
            TileShape::new(16, 16),
            &mut rng,
        )
        .unwrap();
        let x = rand_tensor(&mut rng, &[6, 60], -1.0, 1.0);
        let mode = QuantReadout::with_adc_bits(8);
        let parallel = xbar.forward_quantized(&x, &mode).unwrap();
        backend::force_serial(true);
        let serial = xbar.forward_quantized(&x, &mode).unwrap();
        backend::force_serial(false);
        assert_eq!(serial.data(), parallel.data());
    }

    #[test]
    fn narrow_adc_truncates_the_readout() {
        let mut rng = XorShiftRng::new(5);
        let w = rand_tensor(&mut rng, &[9, 64], -0.05, 0.05);
        let xbar =
            CrossbarArray::program_signed(&w, Mapping::Acm, ideal_device(6), &mut rng).unwrap();
        let x = rand_tensor(&mut rng, &[3, 64], -1.0, 1.0);
        let wide = xbar
            .forward_quantized(&x, &QuantReadout::default())
            .unwrap();
        let narrow = xbar
            .forward_quantized(&x, &QuantReadout::with_adc_bits(4))
            .unwrap();
        assert_ne!(wide.data(), narrow.data());
        // More resolution brings the readout closer to the transparent
        // converter.
        let mid = xbar
            .forward_quantized(&x, &QuantReadout::with_adc_bits(10))
            .unwrap();
        let err = |y: &Tensor| -> f32 {
            y.data()
                .iter()
                .zip(wide.data())
                .map(|(&a, &b)| (a - b).abs())
                .sum()
        };
        assert!(err(&mid) < err(&narrow));
    }

    #[test]
    fn unquantized_or_too_wide_devices_are_rejected() {
        let mut rng = XorShiftRng::new(1);
        let w = rand_tensor(&mut rng, &[4, 8], -0.05, 0.05);
        let x = rand_tensor(&mut rng, &[2, 8], -1.0, 1.0);
        let full_precision = CrossbarArray::program_signed(
            &w,
            Mapping::Acm,
            DeviceConfig::builder().build(),
            &mut rng,
        )
        .unwrap();
        let err = full_precision
            .forward_quantized(&x, &QuantReadout::default())
            .unwrap_err();
        assert!(matches!(err, MappingError::Unsupported { .. }), "{err}");
        let wide =
            CrossbarArray::program_signed(&w, Mapping::Acm, ideal_device(9), &mut rng).unwrap();
        let err = wide
            .forward_quantized(&x, &QuantReadout::default())
            .unwrap_err();
        assert!(err.to_string().contains("exceeds 8"), "{err}");
    }

    #[test]
    fn input_validation_mirrors_the_f32_path() {
        let mut rng = XorShiftRng::new(2);
        let w = rand_tensor(&mut rng, &[4, 8], -0.05, 0.05);
        let xbar =
            CrossbarArray::program_signed(&w, Mapping::Acm, ideal_device(4), &mut rng).unwrap();
        let bad_shape = Tensor::zeros(&[2, 9]);
        assert!(matches!(
            xbar.forward_quantized(&bad_shape, &QuantReadout::default()),
            Err(MappingError::Shape(_))
        ));
        let mut bad_value = Tensor::zeros(&[2, 8]);
        bad_value.data_mut()[3] = f32::NAN;
        assert!(matches!(
            xbar.forward_quantized(&bad_value, &QuantReadout::default()),
            Err(MappingError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn activation_width_outside_1_to_7_is_a_typed_error() {
        let mut rng = XorShiftRng::new(4);
        let w = rand_tensor(&mut rng, &[4, 8], -0.05, 0.05);
        let xbar =
            CrossbarArray::program_signed(&w, Mapping::Acm, ideal_device(4), &mut rng).unwrap();
        let x = rand_tensor(&mut rng, &[2, 8], -1.0, 1.0);
        for act_bits in [0, 8] {
            let mode = QuantReadout {
                act_bits,
                ..QuantReadout::default()
            };
            let err = xbar.forward_quantized(&x, &mode).unwrap_err();
            assert!(matches!(err, MappingError::Unsupported { .. }), "{err}");
            assert!(err.to_string().contains("activation bit width"), "{err}");
        }
    }

    #[test]
    fn an_image_reads_every_batch_like_a_fresh_one() {
        let mut rng = XorShiftRng::new(6);
        let w = rand_tensor(&mut rng, &[20, 50], -0.04, 0.04);
        let xbar = TiledCrossbar::program_signed(
            &w,
            Mapping::Acm,
            ideal_device(6),
            TileShape::new(16, 16),
            &mut rng,
        )
        .unwrap();
        let image = ReadoutImage::new(
            xbar.effective_conductances(),
            Some(xbar.grid()),
            xbar.device(),
        )
        .unwrap();
        let mode = QuantReadout::with_adc_bits(6);
        for _ in 0..3 {
            let x = rand_tensor(&mut rng, &[4, 50], -1.0, 1.0);
            let raw = image.raw_batch(&mode, &x).unwrap();
            let want = xbar.forward_quantized(&x, &mode).unwrap();
            assert_eq!(xbar.periphery().combine(&raw).unwrap().data(), want.data());
        }
        let mismatched =
            ReadoutImage::new(&Tensor::zeros(&[3, 50]), Some(xbar.grid()), xbar.device());
        assert!(matches!(mismatched, Err(MappingError::Shape(_))));
    }

    #[test]
    fn calibrated_activation_range_pins_the_grid() {
        let mut rng = XorShiftRng::new(3);
        let w = rand_tensor(&mut rng, &[6, 16], -0.05, 0.05);
        let xbar =
            CrossbarArray::program_signed(&w, Mapping::Acm, ideal_device(6), &mut rng).unwrap();
        let x = rand_tensor(&mut rng, &[3, 16], -0.5, 0.5);
        let mode = QuantReadout {
            act_range: Some((-1.0, 1.0)),
            ..QuantReadout::default()
        };
        let y = xbar.forward_quantized(&x, &mode).unwrap();
        // A batch-dependent subrange input produces the same grid when
        // the calibrated range is pinned: scaling the batch down must not
        // change the codes' meaning, only which codes fire.
        let x_half = {
            let mut t = x.clone();
            t.data_mut().iter_mut().for_each(|v| *v *= 0.5);
            t
        };
        let y_half = xbar.forward_quantized(&x_half, &mode).unwrap();
        assert_ne!(y.data(), y_half.data());
        assert!(y.data().iter().all(|v| v.is_finite()));
        assert!(y_half.data().iter().all(|v| v.is_finite()));
    }
}
