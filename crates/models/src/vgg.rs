use xbar_nn::{Conv2d, Dense, Flatten, MaxPool2d, NnError, Relu, Sequential};
use xbar_tensor::rng::XorShiftRng;

use crate::lenet::push_act_quant;
use crate::{ModelConfig, ModelScale};

/// Builds the VGG-9 network of the paper's CIFAR-10 experiments: six 3×3
/// convolutional layers in three pooled stages, followed by three fully
/// connected layers \[21\].
///
/// `input` is `(channels, height, width)`; images must be at least 8×8
/// (three 2× poolings).
///
/// # Errors
///
/// Returns [`NnError::Config`] if the input is too small or
/// `cfg.act_bits` is out of range.
pub fn vgg9(
    input: (usize, usize, usize),
    classes: usize,
    scale: ModelScale,
    cfg: &ModelConfig,
) -> Result<Sequential, NnError> {
    let (c, h, w) = input;
    if h < 8 || w < 8 {
        return Err(NnError::Config(format!(
            "vgg9 needs at least 8x8 input, got {h}x{w}"
        )));
    }
    if classes == 0 {
        return Err(NnError::Config("need at least one class".into()));
    }
    let mut rng = XorShiftRng::new(cfg.seed);
    let stage_widths = [
        scale.width(64, 8, 4),
        scale.width(128, 16, 8),
        scale.width(256, 32, 16),
    ];
    let fc_width = scale.width(256, 48, 24);
    let mut net = Sequential::new();
    let mut in_c = c;
    for &out_c in &stage_widths {
        for _ in 0..2 {
            net.push(Conv2d::same3x3(
                in_c, out_c, cfg.kind, cfg.device, &mut rng,
            )?);
            net.push(Relu::new());
            push_act_quant(&mut net, cfg)?;
            in_c = out_c;
        }
        net.push(MaxPool2d::halving());
    }
    net.push(Flatten::new());
    let flat = in_c * (h / 8) * (w / 8);
    net.push(Dense::new(flat, fc_width, cfg.kind, cfg.device, &mut rng)?);
    net.push(Relu::new());
    push_act_quant(&mut net, cfg)?;
    net.push(Dense::new(
        fc_width, fc_width, cfg.kind, cfg.device, &mut rng,
    )?);
    net.push(Relu::new());
    push_act_quant(&mut net, cfg)?;
    net.push(Dense::new(
        fc_width, classes, cfg.kind, cfg.device, &mut rng,
    )?);
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
    fn forward_shape_tiny() {
        let mut net = vgg9((3, 16, 16), 10, ModelScale::Tiny, &ModelConfig::baseline()).unwrap();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        assert_eq!(net.forward(&x, false).unwrap().shape(), &[2, 10]);
    }

    #[test]
    fn has_six_convs_and_three_dense() {
        let net = vgg9((3, 16, 16), 10, ModelScale::Tiny, &ModelConfig::baseline()).unwrap();
        let s = net.summary();
        assert_eq!(s.matches("conv ").count(), 6, "{s}");
        assert_eq!(s.matches("dense ").count(), 3, "{s}");
        assert_eq!(s.matches("maxpool").count(), 3, "{s}");
    }

    #[test]
    fn paper_scale_widths() {
        let net = vgg9((3, 32, 32), 10, ModelScale::Paper, &ModelConfig::baseline()).unwrap();
        let s = net.summary();
        assert!(s.contains("conv 3x3x3->64"), "{s}");
        assert!(s.contains("conv 3x3x128->256"), "{s}");
    }

    #[test]
    fn backward_runs_mapped() {
        let cfg = ModelConfig::mapped(Mapping::BiasColumn, DeviceConfig::ideal());
        let mut net = vgg9((3, 16, 16), 10, ModelScale::Tiny, &cfg).unwrap();
        let x = Tensor::zeros(&[1, 3, 16, 16]);
        let y = net.forward(&x, true).unwrap();
        let g = net.backward(&Tensor::ones(y.shape())).unwrap();
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn rejects_small_inputs() {
        assert!(vgg9((3, 4, 4), 10, ModelScale::Tiny, &ModelConfig::baseline()).is_err());
    }

    #[test]
    fn vgg_is_heavier_than_lenet() {
        // The paper attributes VGG's nonlinearity resilience to
        // overparameterization; at matched scale our VGG has more params.
        let v = vgg9((3, 16, 16), 10, ModelScale::Tiny, &ModelConfig::baseline())
            .unwrap()
            .num_params();
        let l = crate::lenet((3, 16, 16), 10, ModelScale::Tiny, &ModelConfig::baseline())
            .unwrap()
            .num_params();
        assert!(v > l, "vgg {v} vs lenet {l}");
    }
}
