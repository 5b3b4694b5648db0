use xbar_core::{Mapping, QuantReadout};
use xbar_device::DeviceConfig;
use xbar_tensor::init::Init;
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::{linalg, Tensor};

use crate::{Layer, MappedParam, NnError, WeightKind};

/// A fully connected layer `y = x·Wᵀ + b`, with `W` optionally stored as a
/// crossbar conductance matrix via [`MappedParam`].
///
/// Biases stay in the digital domain (ordinary `f32` SGD) — the standard
/// assumption for crossbar accelerators, where the array computes the MVM
/// and bias addition happens in the periphery after the ADC.
///
/// # Example
///
/// ```
/// use xbar_core::Mapping;
/// use xbar_device::DeviceConfig;
/// use xbar_nn::{Dense, Layer, WeightKind};
/// use xbar_tensor::{rng::XorShiftRng, Tensor};
///
/// # fn main() -> Result<(), xbar_nn::NnError> {
/// let mut rng = XorShiftRng::new(5);
/// let mut fc = Dense::new(3, 2, WeightKind::Mapped(Mapping::Acm), DeviceConfig::ideal(), &mut rng)?;
/// let x = Tensor::zeros(&[4, 3]); // batch of 4
/// let y = fc.forward(&x, true)?;
/// assert_eq!(y.shape(), &[4, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Dense {
    weights: MappedParam,
    bias: Tensor,
    bias_grad: Tensor,
    /// Cached state from the last training forward: the input, plus the
    /// materialized effective weights for mapped parameters. `None`
    /// weights mean the parameter exposes a borrowable effective matrix
    /// ([`MappedParam::effective_weights_ref`]) which backward re-reads
    /// in place — sound because weights only change in `update`, after
    /// the backward pass.
    cache: Option<(Tensor, Option<Tensor>)>,
    /// Observed input range from [`Layer::calibrate`] passes — the
    /// activation clip range the quantized forward pins its grid to.
    /// Inference-only state: not persisted (re-run calibration after a
    /// checkpoint restore).
    act_range: Option<(f32, f32)>,
}

impl Dense {
    /// Creates a dense layer with He-normal initialization.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] if either dimension is zero.
    pub fn new(
        n_in: usize,
        n_out: usize,
        kind: WeightKind,
        device: DeviceConfig,
        rng: &mut XorShiftRng,
    ) -> Result<Self, NnError> {
        if n_in == 0 || n_out == 0 {
            return Err(NnError::Config(format!(
                "dense dimensions must be positive, got {n_in}x{n_out}"
            )));
        }
        let w_init = Init::HeNormal.sample(&[n_out, n_in], n_in, n_out, rng);
        let weights = MappedParam::from_signed(&w_init, kind, device)?;
        Ok(Self {
            weights,
            bias: Tensor::zeros(&[n_out]),
            bias_grad: Tensor::zeros(&[n_out]),
            cache: None,
            act_range: None,
        })
    }

    /// Input dimension.
    pub fn n_in(&self) -> usize {
        self.weights.n_in()
    }

    /// Output dimension.
    pub fn n_out(&self) -> usize {
        self.weights.n_out()
    }

    /// The weight parameter.
    pub fn weights(&self) -> &MappedParam {
        &self.weights
    }

    /// Mutable access to the weight parameter (e.g. for variation
    /// experiments).
    pub fn weights_mut(&mut self) -> &mut MappedParam {
        &mut self.weights
    }
}

impl Layer for Dense {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn describe(&self) -> String {
        let kind = match self.weights.mapping() {
            Some(m) => m.tag().to_string(),
            None => "signed".to_string(),
        };
        let tiles = match self.weights.tile_grid() {
            Some(g) if !g.is_monolithic() => {
                let (rows, cols) = g.grid();
                format!(" tiles={rows}x{cols}")
            }
            _ => String::new(),
        };
        format!("dense {}->{} [{kind}]{tiles}", self.n_in(), self.n_out())
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if x.ndim() != 2 || x.shape()[1] != self.n_in() {
            return Err(NnError::Shape(xbar_tensor::ShapeError::new(
                "dense forward",
                format!("expected (batch, {}), got {:?}", self.n_in(), x.shape()),
            )));
        }
        // Borrow the effective weights when the parameter allows it (the
        // zero-copy hot path); otherwise materialize once and keep the
        // tensor for backward.
        let (mut y, w_cached) = match self.weights.effective_weights_ref() {
            Some(w) => (linalg::matmul_nt(x, w)?, None),
            None => {
                let w_eff = self.weights.effective_weights();
                let y = linalg::matmul_nt(x, &w_eff)?;
                (y, Some(w_eff))
            }
        };
        let n_out = self.n_out();
        for (i, v) in y.data_mut().iter_mut().enumerate() {
            *v += self.bias.data()[i % n_out];
        }
        if train {
            self.cache = Some((x.clone(), w_cached));
        }
        Ok(y)
    }

    fn calibrate(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let (mut lo, mut hi) = self.act_range.unwrap_or((f32::INFINITY, f32::NEG_INFINITY));
        for &v in x.data() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo <= hi {
            self.act_range = Some((lo, hi));
        }
        self.forward(x, false)
    }

    fn forward_quantized(&mut self, x: &Tensor, mode: &QuantReadout) -> Result<Tensor, NnError> {
        if x.ndim() != 2 || x.shape()[1] != self.n_in() {
            return Err(NnError::Shape(xbar_tensor::ShapeError::new(
                "dense forward_quantized",
                format!("expected (batch, {}), got {:?}", self.n_in(), x.shape()),
            )));
        }
        // An explicit range in `mode` wins; otherwise use the calibrated
        // one; otherwise the integer path derives it from the batch.
        let mode = QuantReadout {
            act_range: mode.act_range.or(self.act_range),
            ..*mode
        };
        let mut y = self.weights.forward_quantized(x, &mode)?;
        // Digital bias add after the ADC, as in the fp32 periphery.
        let n_out = self.n_out();
        for (i, v) in y.data_mut().iter_mut().enumerate() {
            *v += self.bias.data()[i % n_out];
        }
        Ok(y)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let (x, w_cached) = self
            .cache
            .take()
            .ok_or_else(|| NnError::State("dense backward without forward".into()))?;
        if grad.ndim() != 2 || grad.shape() != [x.shape()[0], self.n_out()] {
            return Err(NnError::Shape(xbar_tensor::ShapeError::new(
                "dense backward",
                format!(
                    "expected ({}, {}), got {:?}",
                    x.shape()[0],
                    self.n_out(),
                    grad.shape()
                ),
            )));
        }
        // dW = gradᵀ · x, routed into the mapped parameter.
        let grad_w = linalg::matmul_tn(grad, &x)?;
        self.weights.accumulate_grad(&grad_w)?;
        // db = column sums of grad.
        let n_out = self.n_out();
        for (i, &g) in grad.data().iter().enumerate() {
            self.bias_grad.data_mut()[i % n_out] += g;
        }
        // dx = grad · W, against the forward-time effective weights:
        // either the cached materialization, or the still-unchanged
        // borrowable matrix (nothing mutates weights between forward and
        // backward; `update` runs after).
        let dx = match &w_cached {
            Some(w_eff) => linalg::matmul(grad, w_eff)?,
            None => match self.weights.effective_weights_ref() {
                Some(w) => linalg::matmul(grad, w)?,
                None => linalg::matmul(grad, &self.weights.effective_weights())?,
            },
        };
        Ok(dx)
    }

    fn update(&mut self, lr: f32) {
        self.weights.apply_update(lr);
        let bg = self.bias_grad.clone();
        self.bias
            .add_scaled(&bg, -lr)
            .expect("bias shapes fixed at construction");
    }

    fn zero_grad(&mut self) {
        self.weights.zero_grad();
        self.bias_grad.map_inplace(|_| 0.0);
    }

    fn num_params(&self) -> usize {
        self.weights.num_params() + self.bias.len()
    }

    fn visit_mapped(&mut self, visit: &mut dyn FnMut(&mut MappedParam)) {
        visit(&mut self.weights);
    }

    fn visit_grads(&mut self, visit: &mut dyn FnMut(&mut Tensor)) {
        self.weights.visit_grads(visit);
        visit(&mut self.bias_grad);
    }

    fn visit_state(&mut self, prefix: &str, visitor: &mut dyn crate::StateVisitor) {
        self.weights.visit_state(&format!("{prefix}w."), visitor);
        visitor.tensor(&format!("{prefix}bias"), &mut self.bias);
    }
}

/// Convenience constructor for a baseline (signed, full-precision) dense
/// layer.
pub fn dense_signed(n_in: usize, n_out: usize, rng: &mut XorShiftRng) -> Result<Dense, NnError> {
    Dense::new(n_in, n_out, WeightKind::Signed, DeviceConfig::ideal(), rng)
}

/// Convenience constructor for a crossbar-mapped dense layer.
pub fn dense_mapped(
    n_in: usize,
    n_out: usize,
    mapping: Mapping,
    device: DeviceConfig,
    rng: &mut XorShiftRng,
) -> Result<Dense, NnError> {
    Dense::new(n_in, n_out, WeightKind::Mapped(mapping), device, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> XorShiftRng {
        XorShiftRng::new(121)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut r = rng();
        let mut fc = dense_signed(3, 2, &mut r).unwrap();
        fc.bias = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let x = Tensor::zeros(&[2, 3]);
        let y = fc.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.data(), &[1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut r = rng();
        let mut fc = dense_signed(3, 2, &mut r).unwrap();
        assert!(fc.forward(&Tensor::zeros(&[2, 4]), true).is_err());
    }

    fn rand_input(r: &mut XorShiftRng, shape: &[usize]) -> Tensor {
        let mut x = Tensor::zeros(shape);
        for v in x.data_mut() {
            *v = 2.0 * r.next_f32() - 1.0;
        }
        x
    }

    #[test]
    fn signed_quantized_forward_tracks_fp32() {
        let mut r = rng();
        let mut fc = dense_signed(24, 6, &mut r).unwrap();
        fc.bias = Tensor::from_vec((0..6).map(|i| 0.1 * i as f32).collect(), &[6]).unwrap();
        let x = rand_input(&mut r, &[5, 24]);
        let want = fc.forward(&x, false).unwrap();
        let got = fc.forward_quantized(&x, &QuantReadout::default()).unwrap();
        // 7-bit activations × 8-bit weights: close, not exact.
        for (&g, &e) in got.data().iter().zip(want.data()) {
            assert!((g - e).abs() < 0.05, "{g} vs {e}");
        }
    }

    #[test]
    fn mapped_quantized_forward_tracks_fp32() {
        for mapping in [Mapping::Acm, Mapping::BiasColumn, Mapping::DoubleElement] {
            let mut r = rng();
            let mut fc =
                dense_mapped(24, 6, mapping, DeviceConfig::quantized_linear(8), &mut r).unwrap();
            let x = rand_input(&mut r, &[5, 24]);
            let want = fc.forward(&x, false).unwrap();
            let got = fc.forward_quantized(&x, &QuantReadout::default()).unwrap();
            let scale = want.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            for (&g, &e) in got.data().iter().zip(want.data()) {
                assert!(
                    (g - e).abs() < 0.02 + 0.05 * scale,
                    "{mapping:?}: {g} vs {e}"
                );
            }
        }
    }

    #[test]
    fn calibration_pins_the_activation_grid() {
        let mut r = rng();
        let mut fc = dense_mapped(
            16,
            4,
            Mapping::Acm,
            DeviceConfig::quantized_linear(8),
            &mut r,
        )
        .unwrap();
        let wide = rand_input(&mut r, &[8, 16]);
        fc.calibrate(&wide).unwrap();
        // A narrow batch now quantizes on the calibrated (wide) grid, not
        // its own: outputs differ from the uncalibrated layer's.
        let narrow = wide.scale(0.1);
        let calibrated = fc
            .forward_quantized(&narrow, &QuantReadout::default())
            .unwrap();
        let mut fresh = dense_mapped(
            16,
            4,
            Mapping::Acm,
            DeviceConfig::quantized_linear(8),
            &mut rng(),
        )
        .unwrap();
        let uncalibrated = fresh
            .forward_quantized(&narrow, &QuantReadout::default())
            .unwrap();
        assert_ne!(calibrated.data(), uncalibrated.data());
        // An explicit range in the mode overrides calibration.
        let pinned = fc
            .forward_quantized(
                &narrow,
                &QuantReadout {
                    act_range: Some((-1.0, 1.0)),
                    ..QuantReadout::default()
                },
            )
            .unwrap();
        assert!(pinned.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn quantized_forward_rejects_unquantizable_devices() {
        let mut r = rng();
        let mut fc = dense_mapped(8, 3, Mapping::Acm, DeviceConfig::ideal(), &mut r).unwrap();
        let x = rand_input(&mut r, &[2, 8]);
        assert!(fc.forward_quantized(&x, &QuantReadout::default()).is_err());
    }

    #[test]
    fn quantized_forward_returns_typed_errors_for_bad_widths_and_values() {
        use xbar_core::MappingError;
        let mut r = rng();
        let mut layers = vec![
            dense_signed(8, 3, &mut r).unwrap(),
            dense_mapped(
                8,
                3,
                Mapping::Acm,
                DeviceConfig::quantized_linear(8),
                &mut r,
            )
            .unwrap(),
        ];
        let x = rand_input(&mut r, &[2, 8]);
        let mut nan = x.clone();
        nan.data_mut()[5] = f32::NAN;
        for fc in &mut layers {
            for act_bits in [0, 8] {
                let mode = QuantReadout {
                    act_bits,
                    ..QuantReadout::default()
                };
                assert!(matches!(
                    fc.forward_quantized(&x, &mode),
                    Err(NnError::Mapping(MappingError::Unsupported { .. }))
                ));
            }
            assert!(matches!(
                fc.forward_quantized(&nan, &QuantReadout::default()),
                Err(NnError::Mapping(MappingError::NonFiniteInput { .. }))
            ));
            assert!(fc.forward_quantized(&x, &QuantReadout::default()).is_ok());
        }
    }

    #[test]
    fn backward_without_forward_is_state_error() {
        let mut r = rng();
        let mut fc = dense_signed(3, 2, &mut r).unwrap();
        let err = fc.backward(&Tensor::zeros(&[1, 2])).unwrap_err();
        assert!(matches!(err, NnError::State(_)));
    }

    #[test]
    fn gradients_match_finite_differences_baseline() {
        let mut r = rng();
        let mut fc = dense_signed(4, 3, &mut r).unwrap();
        let x = Tensor::rand_normal(&[2, 4], 0.0, 1.0, &mut r);
        let y = fc.forward(&x, true).unwrap();
        let grad_out = Tensor::ones(y.shape());
        let gx = fc.backward(&grad_out).unwrap();
        // Numeric check on input gradient.
        let eps = 1e-3;
        for &i in &[0usize, 3, 5] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = fc.forward(&xp, false).unwrap();
            let num = (yp.sum() - y.sum()) / eps;
            assert!(
                (num - gx.data()[i]).abs() < 0.05,
                "input grad {i}: numeric {num} vs {}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn preconditioned_update_moves_weights_by_exact_sgd_step() {
        // The preconditioned routing (Sᵀ·(S·Sᵀ)⁻¹) makes a step on M move
        // the *logical* weights by exactly −lr·∂L/∂W for every mapping
        // (absent clamping) — verify ΔW/lr == grad for each.
        let mut r = rng();
        for mapping in Mapping::ALL {
            let mut fc = dense_mapped(4, 3, mapping, DeviceConfig::ideal(), &mut r).unwrap();
            let x = Tensor::rand_normal(&[2, 4], 0.0, 1.0, &mut r);
            let y = fc.forward(&x, true).unwrap();
            fc.backward(&Tensor::ones(y.shape())).unwrap();
            // Loss = sum(y): dL/dW = 1ᵀ·x per output row.
            let ones = Tensor::ones(&[3, 2]);
            let grad_w = linalg::matmul(&ones, &x).unwrap();
            let w_before = fc.weights().effective_weights();
            let lr = 1e-4; // small enough that no conductance clamps
            fc.update(lr);
            let w_after = fc.weights().effective_weights();
            let delta = w_before.sub(&w_after).unwrap().scale(1.0 / lr);
            let tol = 0.02 * grad_w.abs_max().max(1.0);
            let exact = delta
                .data()
                .iter()
                .zip(grad_w.data())
                .filter(|(&d, &g)| (d - g).abs() <= tol)
                .count();
            // ACM's chained init inevitably leaves a few conductances at a
            // clamp boundary (the suffix walk saturates); those weights
            // receive a *smaller* step, never a larger or flipped one.
            let required = if mapping == Mapping::Acm {
                delta.len() * 2 / 3
            } else {
                delta.len()
            };
            assert!(
                exact >= required,
                "{mapping}: only {exact}/{} elements took the exact SGD step",
                delta.len()
            );
        }
    }

    #[test]
    fn training_step_reduces_quadratic_loss() {
        let mut r = rng();
        for kind in [
            WeightKind::Signed,
            WeightKind::Mapped(Mapping::Acm),
            WeightKind::Mapped(Mapping::DoubleElement),
            WeightKind::Mapped(Mapping::BiasColumn),
        ] {
            let mut fc = Dense::new(4, 2, kind, DeviceConfig::ideal(), &mut r).unwrap();
            let x = Tensor::rand_normal(&[8, 4], 0.0, 1.0, &mut r);
            let target = Tensor::rand_normal(&[8, 2], 0.0, 1.0, &mut r);
            let mut first_loss = None;
            let mut last_loss = 0.0;
            for _ in 0..60 {
                let y = fc.forward(&x, true).unwrap();
                let diff = y.sub(&target).unwrap();
                last_loss = diff.norm_sq();
                first_loss.get_or_insert(last_loss);
                fc.zero_grad();
                fc.backward(&diff.scale(2.0 / 8.0)).unwrap();
                fc.update(0.05);
            }
            let first = first_loss.unwrap();
            assert!(
                last_loss < first * 0.5,
                "{kind:?}: loss {first} -> {last_loss}"
            );
        }
    }

    #[test]
    fn visit_mapped_reaches_weights() {
        let mut r = rng();
        let mut fc = dense_mapped(3, 2, Mapping::Acm, DeviceConfig::ideal(), &mut r).unwrap();
        let mut count = 0;
        fc.visit_mapped(&mut |_p| count += 1);
        assert_eq!(count, 1);
    }

    #[test]
    fn describe_mentions_mapping() {
        let mut r = rng();
        let fc = dense_mapped(3, 2, Mapping::Acm, DeviceConfig::ideal(), &mut r).unwrap();
        assert!(fc.describe().contains("ACM"));
        let fcb = dense_signed(3, 2, &mut r).unwrap();
        assert!(fcb.describe().contains("signed"));
    }

    #[test]
    fn num_params_counts_elements_and_bias() {
        let mut r = rng();
        let fc = dense_mapped(4, 3, Mapping::Acm, DeviceConfig::ideal(), &mut r).unwrap();
        assert_eq!(fc.num_params(), 4 * 4 + 3); // (3+1) x 4 elements + 3 bias
    }
}
