use xbar_nn::{
    BatchNorm2d, Conv2d, Dense, GlobalAvgPool, NnError, Relu, ResidualBlock, Sequential,
};
use xbar_tensor::rng::XorShiftRng;

use crate::lenet::push_act_quant;
use crate::{ModelConfig, ModelScale};

/// Builds ResNet-20 \[22\] as in the paper's CIFAR-10 experiments: an
/// initial 3×3 convolution, three stages of three residual blocks with
/// widths `(w, 2w, 4w)` (stride-2 downsampling entering stages 2 and 3),
/// global average pooling, and a final dense classifier.
///
/// Depth check: `1 + 3·3·2 + 1 = 20` weighted layers.
///
/// # Errors
///
/// Returns [`NnError::Config`] if the input is smaller than 8×8 or
/// `cfg.act_bits` is out of range.
pub fn resnet20(
    input: (usize, usize, usize),
    classes: usize,
    scale: ModelScale,
    cfg: &ModelConfig,
) -> Result<Sequential, NnError> {
    let (c, h, w) = input;
    if h < 8 || w < 8 {
        return Err(NnError::Config(format!(
            "resnet20 needs at least 8x8 input, got {h}x{w}"
        )));
    }
    if classes == 0 {
        return Err(NnError::Config("need at least one class".into()));
    }
    let mut rng = XorShiftRng::new(cfg.seed);
    let base = scale.width(16, 4, 2);
    let widths = [base, base * 2, base * 4];
    let mut net = Sequential::new();
    net.push(Conv2d::same3x3(
        c, widths[0], cfg.kind, cfg.device, &mut rng,
    )?);
    net.push(BatchNorm2d::new(widths[0]));
    net.push(Relu::new());
    push_act_quant(&mut net, cfg)?;
    let mut in_c = widths[0];
    for (stage, &out_c) in widths.iter().enumerate() {
        for block in 0..3 {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            net.push(basic_block(in_c, out_c, stride, cfg, &mut rng)?);
            in_c = out_c;
        }
    }
    net.push(GlobalAvgPool::new());
    net.push(Dense::new(in_c, classes, cfg.kind, cfg.device, &mut rng)?);
    Ok(net)
}

/// One ResNet basic block: conv-BN-relu-conv-BN plus identity or
/// 1×1-projection shortcut, joined by the block's output ReLU.
fn basic_block(
    in_c: usize,
    out_c: usize,
    stride: usize,
    cfg: &ModelConfig,
    rng: &mut XorShiftRng,
) -> Result<ResidualBlock, NnError> {
    let mut body = Sequential::new();
    body.push(Conv2d::new(
        in_c, out_c, 3, stride, 1, cfg.kind, cfg.device, rng,
    )?);
    body.push(BatchNorm2d::new(out_c));
    body.push(Relu::new());
    push_act_quant(&mut body, cfg)?;
    body.push(Conv2d::same3x3(out_c, out_c, cfg.kind, cfg.device, rng)?);
    body.push(BatchNorm2d::new(out_c));
    if in_c == out_c && stride == 1 {
        Ok(ResidualBlock::new(body))
    } else {
        let mut shortcut = Sequential::new();
        shortcut.push(Conv2d::new(
            in_c, out_c, 1, stride, 0, cfg.kind, cfg.device, rng,
        )?);
        shortcut.push(BatchNorm2d::new(out_c));
        Ok(ResidualBlock::with_projection(body, shortcut))
    }
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
        let mut net =
            resnet20((3, 16, 16), 10, ModelScale::Tiny, &ModelConfig::baseline()).unwrap();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        assert_eq!(net.forward(&x, false).unwrap().shape(), &[2, 10]);
    }

    #[test]
    fn has_nine_residual_blocks() {
        let net = resnet20((3, 16, 16), 10, ModelScale::Tiny, &ModelConfig::baseline()).unwrap();
        let s = net.summary();
        assert_eq!(s.matches("residual").count(), 9, "{s}");
        // Two projection blocks (entering stages 2 and 3).
        assert_eq!(s.matches("residual(project)").count(), 2, "{s}");
    }

    #[test]
    fn weighted_layer_count_is_twenty() {
        // 1 stem conv + 9 blocks x 2 convs + 1 dense = 20 (projections
        // excluded, per the ResNet convention).
        let mut net =
            resnet20((3, 16, 16), 10, ModelScale::Tiny, &ModelConfig::baseline()).unwrap();
        let mut mapped = 0;
        net.visit_mapped(&mut |_| mapped += 1);
        // Baseline is signed, so count via a mapped build instead.
        let cfg = ModelConfig::mapped(Mapping::Acm, DeviceConfig::ideal());
        let mut net = resnet20((3, 16, 16), 10, ModelScale::Tiny, &cfg).unwrap();
        let mut count = 0;
        net.visit_mapped(&mut |_| count += 1);
        // 20 weighted layers + 2 projection convs.
        assert_eq!(count, 22);
        let _ = mapped;
    }

    #[test]
    fn training_mode_backward_works() {
        let cfg = ModelConfig::mapped(Mapping::Acm, DeviceConfig::ideal());
        let mut net = resnet20((3, 16, 16), 10, ModelScale::Tiny, &cfg).unwrap();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = net.forward(&x, true).unwrap();
        let g = net.backward(&Tensor::ones(y.shape())).unwrap();
        assert_eq!(g.shape(), x.shape());
        net.update(0.01);
        net.zero_grad();
    }

    #[test]
    fn paper_scale_widths() {
        let net = resnet20((3, 32, 32), 10, ModelScale::Paper, &ModelConfig::baseline()).unwrap();
        let s = net.summary();
        assert!(s.contains("conv 3x3x3->16"), "{s}");
        assert!(s.contains("dense 64->10"), "{s}");
    }

    #[test]
    fn rejects_small_inputs() {
        assert!(resnet20((3, 4, 4), 10, ModelScale::Tiny, &ModelConfig::baseline()).is_err());
    }
}
