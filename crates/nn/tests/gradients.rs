//! Gradient-correctness property tests: every layer's backward pass is
//! checked against central finite differences on random shapes.

// Entire file is proptest-driven; compiled only with the non-default
// `slow-proptests` feature (the proptest dep is unavailable offline).
#![cfg(feature = "slow-proptests")]

use proptest::prelude::*;
use xbar_core::Mapping;
use xbar_device::DeviceConfig;
use xbar_nn::{
    AvgPool2d, BatchNorm2d, Conv2d, Dense, Flatten, GlobalAvgPool, Layer, MaxPool2d, QuantAct,
    Relu, WeightKind,
};
use xbar_tensor::{rng::XorShiftRng, Tensor};

/// Checks d(sum∘weighted)/dx of `layer` against central differences at a
/// few random coordinates.
fn check_input_gradient(
    layer: &mut dyn Layer,
    x: &Tensor,
    tol: f32,
    seed: u64,
) -> Result<(), String> {
    let mut rng = XorShiftRng::new(seed);
    let wts = Tensor::rand_normal(&[1], 0.0, 1.0, &mut rng); // placeholder to consume rng
    let _ = wts;
    let weights = Tensor::rand_normal(
        layer.forward(x, false).map_err(|e| e.to_string())?.shape(),
        0.0,
        1.0,
        &mut rng,
    );
    let y = layer.forward(x, true).map_err(|e| e.to_string())?;
    let loss0: f32 = y
        .data()
        .iter()
        .zip(weights.data())
        .map(|(&a, &b)| a * b)
        .sum();
    let gx = layer.backward(&weights).map_err(|e| e.to_string())?;
    let eps = 1e-2;
    for _ in 0..4 {
        let i = rng.below(x.len());
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let yp = layer.forward(&xp, false).map_err(|e| e.to_string())?;
        let lossp: f32 = yp
            .data()
            .iter()
            .zip(weights.data())
            .map(|(&a, &b)| a * b)
            .sum();
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let ym = layer.forward(&xm, false).map_err(|e| e.to_string())?;
        let lossm: f32 = ym
            .data()
            .iter()
            .zip(weights.data())
            .map(|(&a, &b)| a * b)
            .sum();
        let num = (lossp - lossm) / (2.0 * eps);
        let ana = gx.data()[i];
        let scale = gx.abs_max().max(1.0);
        if (num - ana).abs() > tol * scale {
            return Err(format!(
                "coord {i}: numeric {num} vs analytic {ana} (loss0 {loss0})"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dense_input_gradient(seed in any::<u64>(), n_in in 2usize..8, n_out in 2usize..8) {
        let mut rng = XorShiftRng::new(seed);
        let mut layer =
            Dense::new(n_in, n_out, WeightKind::Signed, DeviceConfig::ideal(), &mut rng).unwrap();
        let x = Tensor::rand_normal(&[3, n_in], 0.0, 1.0, &mut rng);
        prop_assert!(check_input_gradient(&mut layer, &x, 0.05, seed).is_ok());
    }

    #[test]
    fn mapped_dense_input_gradient(seed in any::<u64>(), n_in in 2usize..6) {
        for mapping in Mapping::ALL {
            let mut rng = XorShiftRng::new(seed);
            let mut layer = Dense::new(
                n_in, 4, WeightKind::Mapped(mapping), DeviceConfig::ideal(), &mut rng,
            ).unwrap();
            let x = Tensor::rand_normal(&[2, n_in], 0.0, 1.0, &mut rng);
            if let Err(e) = check_input_gradient(&mut layer, &x, 0.05, seed) {
                prop_assert!(false, "{}: {}", mapping, e);
            }
        }
    }

    #[test]
    fn conv_input_gradient(seed in any::<u64>(), c in 1usize..3, oc in 1usize..3) {
        let mut rng = XorShiftRng::new(seed);
        let mut layer = Conv2d::same3x3(c, oc, WeightKind::Signed, DeviceConfig::ideal(), &mut rng)
            .unwrap();
        let x = Tensor::rand_normal(&[1, c, 5, 5], 0.0, 1.0, &mut rng);
        prop_assert!(check_input_gradient(&mut layer, &x, 0.05, seed).is_ok());
    }

    #[test]
    fn relu_and_structural_layers(seed in any::<u64>()) {
        let mut rng = XorShiftRng::new(seed);
        // Keep inputs away from the ReLU kink and pooling ties where the
        // true gradient is undefined.
        let x4 = Tensor::from_fn(&[1, 2, 4, 4], |_| {
            let v = rng.normal();
            if v.abs() < 0.1 { v + 0.2 } else { v }
        });
        prop_assert!(check_input_gradient(&mut Relu::new(), &x4, 0.05, seed).is_ok());
        prop_assert!(check_input_gradient(&mut Flatten::new(), &x4, 0.02, seed).is_ok());
        prop_assert!(check_input_gradient(&mut GlobalAvgPool::new(), &x4, 0.02, seed).is_ok());
        prop_assert!(check_input_gradient(&mut AvgPool2d::new(2, 2).unwrap(), &x4, 0.02, seed).is_ok());
        // Max pooling needs well-separated values: the true gradient is
        // undefined at ties, so build inputs from a shuffled grid with
        // spacing comfortably above the finite-difference step.
        let mut perm: Vec<usize> = (0..32).collect();
        rng.shuffle(&mut perm);
        let x_sep = Tensor::from_fn(&[1, 2, 4, 4], |i| perm[i] as f32 * 0.07 - 1.0);
        prop_assert!(check_input_gradient(&mut MaxPool2d::halving(), &x_sep, 0.05, seed).is_ok());
    }

    #[test]
    fn batchnorm_gradient(seed in any::<u64>(), c in 1usize..3) {
        let mut rng = XorShiftRng::new(seed);
        let mut layer = BatchNorm2d::new(c);
        let x = Tensor::rand_normal(&[2, c, 3, 3], 0.0, 1.0, &mut rng);
        // BN in eval mode differs from train mode, so finite differences
        // must rerun in train mode: use a manual check instead.
        let weights = Tensor::rand_normal(&[2, c, 3, 3], 0.0, 1.0, &mut rng);
        let y = layer.forward(&x, true).unwrap();
        let loss0: f32 = y.data().iter().zip(weights.data()).map(|(&a, &b)| a * b).sum();
        let gx = layer.backward(&weights).unwrap();
        let eps = 1e-2;
        for _ in 0..3 {
            let i = rng.below(x.len());
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = layer.forward(&xp, true).unwrap();
            layer.backward(&weights).unwrap(); // clear cache
            let lossp: f32 = yp.data().iter().zip(weights.data()).map(|(&a, &b)| a * b).sum();
            let num = (lossp - loss0) / eps;
            let ana = gx.data()[i];
            prop_assert!(
                (num - ana).abs() < 0.1 * gx.abs_max().max(1.0),
                "coord {}: numeric {} vs analytic {}", i, num, ana
            );
        }
    }

    /// QuantAct implements the clipped straight-through estimator exactly:
    /// the gradient passes unchanged inside the clip range and is zeroed
    /// outside. (A finite-difference check is meaningless on a staircase.)
    #[test]
    fn quant_act_ste(seed in any::<u64>(), limit in 0.5f32..4.0) {
        let mut rng = XorShiftRng::new(seed);
        let mut layer = QuantAct::new(8, limit).unwrap();
        let x = Tensor::rand_normal(&[2, 6], 0.0, 2.0, &mut rng);
        layer.forward(&x, true).unwrap();
        let g_in = Tensor::rand_normal(&[2, 6], 0.0, 1.0, &mut rng);
        let g_out = layer.backward(&g_in).unwrap();
        for i in 0..x.len() {
            let expected = if x.data()[i].abs() <= limit { g_in.data()[i] } else { 0.0 };
            prop_assert_eq!(g_out.data()[i], expected, "coord {}", i);
        }
    }
}
