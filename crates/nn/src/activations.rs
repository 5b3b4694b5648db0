use xbar_device::{quantize_signed, Quantizer};
use xbar_tensor::Tensor;

use crate::{Layer, NnError};

/// Rectified linear unit, `y = max(x, 0)`.
#[derive(Clone, Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn describe(&self) -> String {
        "relu".into()
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if train {
            self.mask = Some(x.data().iter().map(|&v| v > 0.0).collect());
        }
        Ok(x.map(|v| v.max(0.0)))
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .mask
            .take()
            .ok_or_else(|| NnError::State("relu backward without forward".into()))?;
        if mask.len() != grad.len() {
            return Err(NnError::Shape(xbar_tensor::ShapeError::new(
                "relu backward",
                format!("cached {} elements, grad has {}", mask.len(), grad.len()),
            )));
        }
        let mut out = grad.clone();
        for (g, &m) in out.data_mut().iter_mut().zip(&mask) {
            if !m {
                *g = 0.0;
            }
        }
        Ok(out)
    }
}

/// Activation fake-quantization with a straight-through estimator.
///
/// Quantizes activations to `bits` uniform levels over `[-limit, limit]`
/// in the forward pass; the backward pass passes gradients through
/// unchanged inside the clip range and zeroes them outside (the clipped-STE
/// rule). The paper quantizes activations to 8 bits in all Fig. 5
/// experiments — place one of these after each activation.
///
/// NaN activations stay NaN and ±Inf clip to `±limit`.
#[derive(Clone, Debug)]
pub struct QuantAct {
    /// `1..=Quantizer::MAX_BITS`, checked at construction.
    bits: u8,
    /// Positive with `2·limit` finite, checked at construction.
    limit: f32,
    inside: Option<Vec<bool>>,
}

impl QuantAct {
    /// Creates an activation quantizer with `2^bits` levels over
    /// `[-limit, limit]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] unless `1 ≤ bits ≤`
    /// [`Quantizer::MAX_BITS`] and `limit` is positive with `2·limit`
    /// finite (the quantizer divides by `2·limit`).
    pub fn new(bits: u8, limit: f32) -> Result<Self, NnError> {
        if !(1..=Quantizer::MAX_BITS).contains(&bits) {
            return Err(NnError::Config(format!(
                "activation quantizer needs 1..={} bits, got {bits}",
                Quantizer::MAX_BITS
            )));
        }
        if !(limit > 0.0 && (2.0 * limit).is_finite()) {
            return Err(NnError::Config(format!(
                "activation clip limit must be positive with 2·limit finite, got {limit}"
            )));
        }
        Ok(Self {
            bits,
            limit,
            inside: None,
        })
    }

    /// The paper's standard 8-bit activation quantizer with a ReLU-friendly
    /// clip at 4.0.
    pub fn standard() -> Self {
        Self {
            bits: 8,
            limit: 4.0,
            inside: None,
        }
    }

    /// Bit width.
    pub fn bits(&self) -> u8 {
        self.bits
    }
}

impl Layer for QuantAct {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn describe(&self) -> String {
        format!("quant-act {}b clip {}", self.bits, self.limit)
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if train {
            self.inside = Some(x.data().iter().map(|&v| v.abs() <= self.limit).collect());
        }
        // Captured by value, so the per-element loop reads no memory but
        // the activations and vectorises.
        let (bits, limit) = (self.bits, self.limit);
        Ok(x.map(move |v| quantize_signed(v, bits, limit)))
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let inside = self
            .inside
            .take()
            .ok_or_else(|| NnError::State("quant-act backward without forward".into()))?;
        if inside.len() != grad.len() {
            return Err(NnError::Shape(xbar_tensor::ShapeError::new(
                "quant-act backward",
                format!("cached {} elements, grad has {}", inside.len(), grad.len()),
            )));
        }
        let mut out = grad.clone();
        for (g, &ok) in out.data_mut().iter_mut().zip(&inside) {
            if !ok {
                *g = 0.0;
            }
        }
        Ok(out)
    }
}

/// Flattens an NCHW tensor to `(batch, c·h·w)`; the backward pass restores
/// the original shape.
#[derive(Clone, Debug, Default)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn describe(&self) -> String {
        "flatten".into()
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if x.ndim() < 2 {
            return Err(NnError::Shape(xbar_tensor::ShapeError::new(
                "flatten",
                format!("need at least 2 dims, got {:?}", x.shape()),
            )));
        }
        let batch = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        if train {
            self.input_shape = Some(x.shape().to_vec());
        }
        Ok(x.reshape(&[batch, rest])?)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let shape = self
            .input_shape
            .take()
            .ok_or_else(|| NnError::State("flatten backward without forward".into()))?;
        Ok(grad.reshape(&shape)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_and_backward() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[1, 3]).unwrap();
        let y = r.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = r.backward(&Tensor::ones(&[1, 3])).unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_backward_requires_forward() {
        let mut r = Relu::new();
        assert!(r.backward(&Tensor::ones(&[1])).is_err());
    }

    #[test]
    fn quant_act_quantizes_and_clips() {
        let mut q = QuantAct::new(2, 1.0).unwrap(); // 4 levels over [-1, 1]
        let x = Tensor::from_vec(vec![-2.0, -0.4, 0.4, 2.0], &[1, 4]).unwrap();
        let y = q.forward(&x, true).unwrap();
        assert_eq!(y.data()[0], -1.0);
        assert_eq!(y.data()[3], 1.0);
        assert!(y.data()[1] > -1.0 && y.data()[1] < 0.0);
        // STE: gradient flows inside the clip range, blocked outside.
        let g = q.backward(&Tensor::ones(&[1, 4])).unwrap();
        assert_eq!(g.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn quant_act_8bit_is_nearly_transparent() {
        let mut q = QuantAct::standard();
        let x = Tensor::from_vec(vec![0.1, 1.3, -2.7], &[1, 3]).unwrap();
        let y = q.forward(&x, false).unwrap();
        assert!(y.all_close(&x, 4.0 * 2.0 / 255.0 + 1e-6));
    }

    #[test]
    fn quant_act_rejects_bad_limit() {
        let overflowing = f32::MAX / 2.0 * 1.0001;
        for limit in [
            0.0,
            -1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            overflowing,
        ] {
            let err = QuantAct::new(8, limit).unwrap_err();
            assert!(matches!(err, NnError::Config(_)), "{limit}: {err}");
        }
        assert!(QuantAct::new(8, f32::MIN_POSITIVE).is_ok());
        assert!(QuantAct::new(8, f32::MAX / 2.0).is_ok());
    }

    #[test]
    fn quant_act_rejects_bad_bits() {
        for bits in [0, Quantizer::MAX_BITS + 1, 31, 32, 33, u8::MAX] {
            let err = QuantAct::new(bits, 4.0).unwrap_err();
            assert!(matches!(err, NnError::Config(_)), "{bits}: {err}");
        }
        for bits in [1, Quantizer::MAX_BITS] {
            assert_eq!(QuantAct::new(bits, 4.0).unwrap().bits(), bits);
        }
    }

    /// `quantize_signed` as it was when it rounded with `f32::round`,
    /// copied verbatim.
    fn roundf_quantize_signed(x: f32, bits: u8, limit: f32) -> f32 {
        assert!(bits >= 1, "need at least 1 bit");
        assert!(limit > 0.0, "limit must be positive");
        let levels = ((1u32 << bits) - 1) as f32;
        let unit = ((x.clamp(-limit, limit) + limit) / (2.0 * limit) * levels).round() / levels;
        unit * 2.0 * limit - limit
    }

    #[test]
    fn roundf_pin_quant_act() {
        use xbar_tensor::rng::XorShiftRng;
        let mut rng = XorShiftRng::new(0x0A);
        let sub = f32::from_bits(1);
        let mut draws = 0usize;
        for case in 0..256 {
            let (bits, limit) = match case {
                0 => (8, 4.0),
                _ => (
                    1 + rng.below(Quantizer::MAX_BITS as usize) as u8,
                    2f32.powf(rng.uniform(-10.0, 10.0)),
                ),
            };
            let levels = (1u32 << bits) - 1;
            // NaN, +Inf and -Inf first: their outputs are checked by value
            // below as well as against the old form.
            let mut x = vec![
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
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
            ];
            // ±limit, and every tie of the grid (a sample on fine grids),
            // each with its neighbours.
            let ks: Vec<u32> = if levels <= 1024 {
                (0..levels).collect()
            } else {
                (0..1024)
                    .map(|_| rng.below(levels as usize) as u32)
                    .collect()
            };
            let ties = ks
                .iter()
                .map(|&k| (k as f32 + 0.5) / levels as f32 * 2.0 * limit - limit);
            for v in [limit, -limit].into_iter().chain(ties) {
                x.extend([v.next_down(), v, v.next_up()]);
            }
            x.extend((0..4000).map(|_| rng.uniform(-1.25 * limit, 1.25 * limit)));
            let len = x.len();
            let x = Tensor::from_vec(x, &[1, len]).unwrap();
            let y = QuantAct::new(bits, limit)
                .unwrap()
                .forward(&x, false)
                .unwrap();
            for (&v, &got) in x.data().iter().zip(y.data()) {
                let want = roundf_quantize_signed(v, bits, limit);
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{bits} bits, limit {limit:e}, x {v:e}: {got:e} vs {want:e}"
                );
            }
            // NaN stays NaN; ±Inf clips to ±limit.
            assert!(y.data()[0].is_nan(), "{bits} bits, limit {limit:e}");
            assert_eq!(&y.data()[1..3], &[limit, -limit]);
            draws += len;
        }
        assert!(draws >= 1_000_000, "{draws} draws");
    }

    #[test]
    fn flatten_round_trips() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let y = f.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 12]);
        let g = f.backward(&y).unwrap();
        assert_eq!(g.shape(), &[2, 3, 2, 2]);
        assert_eq!(g, x);
    }

    #[test]
    fn flatten_rejects_scalars() {
        let mut f = Flatten::new();
        assert!(f.forward(&Tensor::zeros(&[3]), true).is_err());
    }
}
