use xbar_nn::{Dense, Flatten, NnError, Relu, Sequential};
use xbar_tensor::rng::XorShiftRng;

use crate::lenet::push_act_quant;
use crate::ModelConfig;

/// Builds the two-layer multi-layer perceptron used for the paper's
/// system-level evaluation (Table I): `inputs → hidden → classes` with a
/// ReLU in between. Input may be flat `(batch, inputs)` or image NCHW; a
/// flatten layer is always prepended for convenience.
///
/// The paper's Table I workload is an MNIST-scale MLP; the default
/// dimensions used by `xbar-neurosim` are 400-100-10.
///
/// # Errors
///
/// Returns [`NnError::Config`] on zero dimensions or an out-of-range
/// `cfg.act_bits`.
pub fn mlp2(
    inputs: usize,
    hidden: usize,
    classes: usize,
    cfg: &ModelConfig,
) -> Result<Sequential, NnError> {
    if inputs == 0 || hidden == 0 || classes == 0 {
        return Err(NnError::Config(format!(
            "mlp dimensions must be positive: {inputs}-{hidden}-{classes}"
        )));
    }
    let mut rng = XorShiftRng::new(cfg.seed);
    let mut net = Sequential::new();
    net.push(Flatten::new());
    net.push(Dense::new(inputs, hidden, cfg.kind, cfg.device, &mut rng)?);
    net.push(Relu::new());
    push_act_quant(&mut net, cfg)?;
    net.push(Dense::new(hidden, classes, cfg.kind, cfg.device, &mut rng)?);
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::Mapping;
    use xbar_device::DeviceConfig;
    use xbar_nn::Layer;
    use xbar_tensor::Tensor;

    #[test]
    fn forward_flat_and_image_inputs() {
        let mut net = mlp2(16, 8, 4, &ModelConfig::baseline()).unwrap();
        assert_eq!(
            net.forward(&Tensor::zeros(&[3, 16]), false)
                .unwrap()
                .shape(),
            &[3, 4]
        );
        assert_eq!(
            net.forward(&Tensor::zeros(&[3, 1, 4, 4]), false)
                .unwrap()
                .shape(),
            &[3, 4]
        );
    }

    #[test]
    fn mapped_mlp_element_counts() {
        let acm = mlp2(
            400,
            100,
            10,
            &ModelConfig::mapped(Mapping::Acm, DeviceConfig::ideal()),
        )
        .unwrap();
        let de = mlp2(
            400,
            100,
            10,
            &ModelConfig::mapped(Mapping::DoubleElement, DeviceConfig::ideal()),
        )
        .unwrap();
        // DE ~2x the crossbar elements (101*400+11*100 vs 200*400+20*100).
        let ratio = de.num_params() as f32 / acm.num_params() as f32;
        assert!(ratio > 1.8 && ratio < 2.1, "{ratio}");
    }

    #[test]
    fn rejects_zero_dims() {
        assert!(mlp2(0, 8, 4, &ModelConfig::baseline()).is_err());
        assert!(mlp2(16, 0, 4, &ModelConfig::baseline()).is_err());
        assert!(mlp2(16, 8, 0, &ModelConfig::baseline()).is_err());
    }
}
