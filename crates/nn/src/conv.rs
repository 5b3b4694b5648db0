use xbar_core::Mapping;
use xbar_device::DeviceConfig;
use xbar_tensor::conv::{conv2d_backward, conv2d_forward, ConvGeometry};
use xbar_tensor::init::Init;
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::Tensor;

use crate::{Layer, MappedParam, NnError, WeightKind};

/// A 2-D convolution whose flattened filter bank is stored on a crossbar.
///
/// The filter bank `(out_c, in_c·k·k)` is exactly the matrix a crossbar
/// tile holds when a convolution is run as matrix multiplication over
/// input patches, so the same [`MappedParam`] machinery as
/// [`crate::Dense`] applies — the paper notes "all linear transforms,
/// including convolutions, are possible through ACM" (Sec. III-B). The
/// kernels gather each sample's patches on the fly
/// ([`xbar_tensor::conv`]), so training caches the layer input, not a
/// patch matrix.
///
/// Stride and padding are fixed at construction; the spatial geometry is
/// derived from each input, and an input smaller than the window is a
/// [`NnError::Shape`].
#[derive(Clone)]
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    weights: MappedParam,
    bias: Tensor,
    bias_grad: Tensor,
    cache: Option<ConvCache>,
}

#[derive(Clone)]
struct ConvCache {
    x: Tensor,
    /// The forward-time effective weights, kept only when they had to be
    /// materialized (mapped weights); `None` means backward can re-borrow
    /// the still-unchanged matrix from the parameter.
    w_eff: Option<Tensor>,
    geom: ConvGeometry,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal initialization.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] on zero dimensions or a zero stride.
    #[allow(clippy::too_many_arguments)] // geometry + mapping + device are all load-bearing
    pub fn new(
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        kind: WeightKind,
        device: DeviceConfig,
        rng: &mut XorShiftRng,
    ) -> Result<Self, NnError> {
        if in_c == 0 || out_c == 0 || kernel == 0 {
            return Err(NnError::Config(format!(
                "conv dims must be positive: in_c={in_c} out_c={out_c} k={kernel}"
            )));
        }
        if stride == 0 {
            return Err(NnError::Config("conv stride must be positive".into()));
        }
        let fan_in = in_c * kernel * kernel;
        let w_init = Init::HeNormal.sample(&[out_c, fan_in], fan_in, out_c, rng);
        let weights = MappedParam::from_signed(&w_init, kind, device)?;
        Ok(Self {
            in_c,
            out_c,
            kernel,
            stride,
            pad,
            weights,
            bias: Tensor::zeros(&[out_c]),
            bias_grad: Tensor::zeros(&[out_c]),
            cache: None,
        })
    }

    /// Convenience: 3×3 "same" convolution (stride 1, pad 1).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] on zero dimensions.
    pub fn same3x3(
        in_c: usize,
        out_c: usize,
        kind: WeightKind,
        device: DeviceConfig,
        rng: &mut XorShiftRng,
    ) -> Result<Self, NnError> {
        Self::new(in_c, out_c, 3, 1, 1, kind, device, rng)
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// The weight parameter.
    pub fn weights(&self) -> &MappedParam {
        &self.weights
    }

    /// Mutable access to the weight parameter.
    pub fn weights_mut(&mut self) -> &mut MappedParam {
        &mut self.weights
    }
}

impl Layer for Conv2d {
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
        format!(
            "conv {}x{}x{}->{} s{} p{} [{kind}]{tiles}",
            self.kernel, self.kernel, self.in_c, self.out_c, self.stride, self.pad
        )
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if x.ndim() != 4 || x.shape()[1] != self.in_c {
            return Err(NnError::Shape(xbar_tensor::ShapeError::new(
                "conv forward",
                format!("expected (n, {}, h, w), got {:?}", self.in_c, x.shape()),
            )));
        }
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let geom = ConvGeometry::new(h, w, self.kernel, self.kernel, self.stride, self.pad)?;
        // Borrow the effective weights when the parameter allows it (the
        // zero-copy hot path, as in `Dense`); otherwise materialize once
        // and keep the tensor for backward.
        let (mut y, w_cached) = match self.weights.effective_weights_ref() {
            Some(w_eff) => (conv2d_forward(x, w_eff, &geom)?, None),
            None => {
                let w_eff = self.weights.effective_weights();
                (conv2d_forward(x, &w_eff, &geom)?, Some(w_eff))
            }
        };
        // Per-channel bias.
        let spatial = geom.out_h * geom.out_w;
        {
            let yd = y.data_mut();
            for ni in 0..n {
                for oc in 0..self.out_c {
                    let b = self.bias.data()[oc];
                    if b != 0.0 {
                        let base = (ni * self.out_c + oc) * spatial;
                        for v in &mut yd[base..base + spatial] {
                            *v += b;
                        }
                    }
                }
            }
        }
        if train {
            self.cache = Some(ConvCache {
                x: x.clone(),
                w_eff: w_cached,
                geom,
            });
        }
        Ok(y)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let ConvCache { x, w_eff, geom } = self
            .cache
            .take()
            .ok_or_else(|| NnError::State("conv backward without forward".into()))?;
        // Backward against the forward-time effective weights: either the
        // cached materialization, or the still-unchanged borrowable matrix
        // (nothing mutates weights between forward and backward). The
        // kernel rejects a `grad` that is not the forward output's shape.
        let (grad_input, grad_weight) = match &w_eff {
            Some(w_eff) => conv2d_backward(grad, &x, w_eff, &geom)?,
            None => match self.weights.effective_weights_ref() {
                Some(w_eff) => conv2d_backward(grad, &x, w_eff, &geom)?,
                None => {
                    let w_eff = self.weights.effective_weights();
                    conv2d_backward(grad, &x, &w_eff, &geom)?
                }
            },
        };
        let n = x.shape()[0];
        self.weights.accumulate_grad(&grad_weight)?;
        // Per-channel bias gradient: sum over batch and spatial dims.
        let spatial = geom.out_h * geom.out_w;
        for ni in 0..n {
            for oc in 0..self.out_c {
                let base = (ni * self.out_c + oc) * spatial;
                let s: f32 = grad.data()[base..base + spatial].iter().sum();
                self.bias_grad.data_mut()[oc] += s;
            }
        }
        Ok(grad_input)
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

    fn visit_grad_segments(&mut self, visit: &mut dyn FnMut(usize)) {
        self.weights.visit_grad_segments(visit);
        visit(self.bias_grad.len());
    }

    fn visit_state(&mut self, prefix: &str, visitor: &mut dyn crate::StateVisitor) {
        self.weights.visit_state(&format!("{prefix}w."), visitor);
        visitor.tensor(&format!("{prefix}bias"), &mut self.bias);
    }
}

/// Convenience constructor for a crossbar-mapped convolution.
#[allow(clippy::too_many_arguments)]
pub fn conv_mapped(
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    mapping: Mapping,
    device: DeviceConfig,
    rng: &mut XorShiftRng,
) -> Result<Conv2d, NnError> {
    Conv2d::new(
        in_c,
        out_c,
        kernel,
        stride,
        pad,
        WeightKind::Mapped(mapping),
        device,
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> XorShiftRng {
        XorShiftRng::new(131)
    }

    #[test]
    fn forward_shapes() {
        let mut r = rng();
        let mut c = Conv2d::new(
            2,
            4,
            3,
            1,
            1,
            WeightKind::Signed,
            DeviceConfig::ideal(),
            &mut r,
        )
        .unwrap();
        let x = Tensor::zeros(&[3, 2, 8, 8]);
        let y = c.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[3, 4, 8, 8]);
    }

    #[test]
    fn strided_forward_shapes() {
        let mut r = rng();
        let mut c = Conv2d::new(
            1,
            2,
            3,
            2,
            1,
            WeightKind::Signed,
            DeviceConfig::ideal(),
            &mut r,
        )
        .unwrap();
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        let y = c.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[1, 2, 4, 4]);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut r = rng();
        let mut c = Conv2d::new(
            2,
            4,
            3,
            1,
            1,
            WeightKind::Signed,
            DeviceConfig::ideal(),
            &mut r,
        )
        .unwrap();
        assert!(c.forward(&Tensor::zeros(&[1, 3, 8, 8]), true).is_err());
    }

    #[test]
    fn input_smaller_than_the_window_is_a_shape_error() {
        let mut r = rng();
        let mut c = Conv2d::new(
            1,
            1,
            3,
            1,
            0,
            WeightKind::Signed,
            DeviceConfig::ideal(),
            &mut r,
        )
        .unwrap();
        let err = c.forward(&Tensor::zeros(&[1, 1, 2, 2]), true).unwrap_err();
        assert!(matches!(err, NnError::Shape(_)), "{err}");
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut r = rng();
        let mut c = Conv2d::new(
            2,
            3,
            3,
            1,
            1,
            WeightKind::Signed,
            DeviceConfig::ideal(),
            &mut r,
        )
        .unwrap();
        let x = Tensor::rand_normal(&[1, 2, 5, 5], 0.0, 1.0, &mut r);
        let y = c.forward(&x, true).unwrap();
        let gx = c.backward(&Tensor::ones(y.shape())).unwrap();
        let eps = 1e-3;
        for &i in &[0usize, 11, 23, 49] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = c.forward(&xp, false).unwrap();
            let num = (yp.sum() - y.sum()) / eps;
            assert!(
                (num - gx.data()[i]).abs() < 0.05,
                "input grad {i}: {num} vs {}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn mapped_conv_trains_toward_target() {
        let mut r = rng();
        let mut c =
            conv_mapped(1, 2, 3, 1, 1, Mapping::Acm, DeviceConfig::ideal(), &mut r).unwrap();
        let x = Tensor::rand_normal(&[4, 1, 6, 6], 0.0, 1.0, &mut r);
        let target = Tensor::rand_normal(&[4, 2, 6, 6], 0.0, 0.5, &mut r);
        let mut first = None;
        let mut last = 0.0;
        // Gradients accumulate over all 36 spatial positions, so the
        // stable learning rate is correspondingly smaller than for dense.
        for _ in 0..120 {
            let y = c.forward(&x, true).unwrap();
            let diff = y.sub(&target).unwrap();
            last = diff.norm_sq() / x.shape()[0] as f32;
            first.get_or_insert(last);
            c.zero_grad();
            c.backward(&diff.scale(2.0 / x.shape()[0] as f32)).unwrap();
            c.update(0.001);
        }
        assert!(last < first.unwrap() * 0.7, "{:?} -> {last}", first);
    }

    #[test]
    fn bias_gradient_accumulates_spatially() {
        let mut r = rng();
        let mut c = Conv2d::new(
            1,
            1,
            1,
            1,
            0,
            WeightKind::Signed,
            DeviceConfig::ideal(),
            &mut r,
        )
        .unwrap();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        c.forward(&x, true).unwrap();
        c.backward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        assert_eq!(c.bias_grad.data(), &[4.0]);
    }

    #[test]
    fn num_params_and_describe() {
        let mut r = rng();
        let c = conv_mapped(
            2,
            4,
            3,
            1,
            1,
            Mapping::DoubleElement,
            DeviceConfig::ideal(),
            &mut r,
        )
        .unwrap();
        // DE: 2*4 = 8 device rows x (2*9) inputs + 4 bias.
        assert_eq!(c.num_params(), 8 * 18 + 4);
        assert!(c.describe().contains("DE"));
    }

    #[test]
    fn geometry_adapts_to_input_size() {
        let mut r = rng();
        let mut c =
            Conv2d::same3x3(1, 1, WeightKind::Signed, DeviceConfig::ideal(), &mut r).unwrap();
        assert_eq!(
            c.forward(&Tensor::zeros(&[1, 1, 8, 8]), false)
                .unwrap()
                .shape(),
            &[1, 1, 8, 8]
        );
        assert_eq!(
            c.forward(&Tensor::zeros(&[1, 1, 5, 5]), false)
                .unwrap()
                .shape(),
            &[1, 1, 5, 5]
        );
    }
}
