use xbar_nn::{Conv2d, Dense, Flatten, MaxPool2d, NnError, QuantAct, Relu, Sequential};
use xbar_tensor::rng::XorShiftRng;

use crate::{ModelConfig, ModelScale};

/// Builds the LeNet variant used for the paper's MNIST experiments:
/// two 5×5 convolution + pool stages followed by three fully connected
/// layers (LeNet-5 shape \[20\]).
///
/// `input` is `(channels, height, width)`; images must be at least 8×8
/// (two 2× poolings).
///
/// # Errors
///
/// Returns [`NnError::Config`] if the input is too small or
/// `cfg.act_bits` is out of range.
pub fn lenet(
    input: (usize, usize, usize),
    classes: usize,
    scale: ModelScale,
    cfg: &ModelConfig,
) -> Result<Sequential, NnError> {
    let (c, h, w) = input;
    if h < 8 || w < 8 {
        return Err(NnError::Config(format!(
            "lenet needs at least 8x8 input, got {h}x{w}"
        )));
    }
    if classes == 0 {
        return Err(NnError::Config("need at least one class".into()));
    }
    let mut rng = XorShiftRng::new(cfg.seed);
    let c1 = scale.width(6, 4, 2);
    let c2 = scale.width(16, 8, 4);
    let f1 = scale.width(120, 32, 16);
    let f2 = scale.width(84, 16, 8);
    let mut net = Sequential::new();
    // Conv stage 1: 5x5 "same" + 2x2 pool.
    net.push(Conv2d::new(c, c1, 5, 1, 2, cfg.kind, cfg.device, &mut rng)?);
    net.push(Relu::new());
    push_act_quant(&mut net, cfg)?;
    net.push(MaxPool2d::halving());
    // Conv stage 2.
    net.push(Conv2d::new(
        c1, c2, 5, 1, 2, cfg.kind, cfg.device, &mut rng,
    )?);
    net.push(Relu::new());
    push_act_quant(&mut net, cfg)?;
    net.push(MaxPool2d::halving());
    // Classifier.
    net.push(Flatten::new());
    let flat = c2 * (h / 4) * (w / 4);
    net.push(Dense::new(flat, f1, cfg.kind, cfg.device, &mut rng)?);
    net.push(Relu::new());
    push_act_quant(&mut net, cfg)?;
    net.push(Dense::new(f1, f2, cfg.kind, cfg.device, &mut rng)?);
    net.push(Relu::new());
    push_act_quant(&mut net, cfg)?;
    net.push(Dense::new(f2, classes, cfg.kind, cfg.device, &mut rng)?);
    Ok(net)
}

/// Appends the paper's 8-bit activation quantizer when configured.
///
/// # Errors
///
/// Returns [`NnError::Config`] if `cfg.act_bits` is outside
/// `1..=Quantizer::MAX_BITS`.
pub(crate) fn push_act_quant(net: &mut Sequential, cfg: &ModelConfig) -> Result<(), NnError> {
    if let Some(bits) = cfg.act_bits {
        net.push(QuantAct::new(bits, 4.0)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::Mapping;
    use xbar_device::DeviceConfig;
    use xbar_nn::Layer;
    use xbar_tensor::Tensor;

    #[test]
    fn forward_shapes_all_scales() {
        for scale in [ModelScale::Tiny, ModelScale::Small] {
            let mut net = lenet((1, 16, 16), 10, scale, &ModelConfig::baseline()).unwrap();
            let x = Tensor::zeros(&[2, 1, 16, 16]);
            assert_eq!(net.forward(&x, false).unwrap().shape(), &[2, 10]);
        }
    }

    #[test]
    fn paper_scale_has_published_widths() {
        let net = lenet((1, 28, 28), 10, ModelScale::Paper, &ModelConfig::baseline()).unwrap();
        let s = net.summary();
        assert!(s.contains("conv 5x5x1->6"), "{s}");
        assert!(s.contains("conv 5x5x6->16"), "{s}");
        assert!(s.contains("dense 784->120"), "{s}");
        assert!(s.contains("dense 120->84"), "{s}");
    }

    #[test]
    fn mapped_lenet_inserts_act_quant() {
        let cfg = ModelConfig::mapped(Mapping::Acm, DeviceConfig::quantized_linear(4));
        let net = lenet((1, 16, 16), 10, ModelScale::Tiny, &cfg).unwrap();
        assert!(net.summary().contains("quant-act 8b"));
    }

    #[test]
    fn baseline_has_no_act_quant() {
        let net = lenet((1, 16, 16), 10, ModelScale::Tiny, &ModelConfig::baseline()).unwrap();
        assert!(!net.summary().contains("quant-act"));
    }

    #[test]
    fn rejects_tiny_inputs() {
        assert!(lenet((1, 4, 4), 10, ModelScale::Tiny, &ModelConfig::baseline()).is_err());
        assert!(lenet((1, 16, 16), 0, ModelScale::Tiny, &ModelConfig::baseline()).is_err());
    }

    #[test]
    fn out_of_range_activation_bits_are_a_config_error() {
        for bits in [0, 17] {
            let cfg = ModelConfig::baseline().with_act_bits(Some(bits));
            let err = lenet((1, 16, 16), 10, ModelScale::Tiny, &cfg).unwrap_err();
            assert!(matches!(err, NnError::Config(_)), "{bits}: {err}");
        }
    }

    #[test]
    fn backward_runs_end_to_end() {
        let cfg = ModelConfig::mapped(Mapping::Acm, DeviceConfig::ideal());
        let mut net = lenet((1, 16, 16), 10, ModelScale::Tiny, &cfg).unwrap();
        let x = Tensor::zeros(&[2, 1, 16, 16]);
        let y = net.forward(&x, true).unwrap();
        let g = net.backward(&Tensor::ones(y.shape())).unwrap();
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn mapped_variant_counts_more_elements_for_de() {
        let acm = lenet(
            (1, 16, 16),
            10,
            ModelScale::Tiny,
            &ModelConfig::mapped(Mapping::Acm, DeviceConfig::ideal()),
        )
        .unwrap();
        let de = lenet(
            (1, 16, 16),
            10,
            ModelScale::Tiny,
            &ModelConfig::mapped(Mapping::DoubleElement, DeviceConfig::ideal()),
        )
        .unwrap();
        assert!(de.num_params() > acm.num_params());
    }
}
