//! Integration tests of the crossbar array a mapped layer programs:
//! device variation perturbs it in proportion to sigma and re-draws
//! deterministically per seed, the variation model's clamp modes behave as
//! documented, and BC and ACM occupy the same number of cells.

use xbar_core::Mapping;
use xbar_device::{ClampMode, DeviceConfig, VariationModel};
use xbar_nn::{MappedParam, WeightKind};
use xbar_tensor::{rng::XorShiftRng, Tensor};

fn mapped(w: &Tensor, mapping: Mapping, device: DeviceConfig) -> MappedParam {
    MappedParam::from_signed(w, WeightKind::Mapped(mapping), device).unwrap()
}

#[test]
fn variation_noise_statistics_scale_with_sigma() {
    // Program the same array at two sigmas; the weight-space perturbation
    // RMS should roughly double when sigma doubles.
    let mut rng = XorShiftRng::new(97);
    let w = Tensor::rand_uniform(&[16, 64], -0.01, 0.01, &mut rng);
    let param = mapped(
        &w,
        Mapping::DoubleElement,
        DeviceConfig::quantized_linear(6),
    );
    let targets = param.effective_weights();
    let rms_at = |sigma: f32, rng: &mut XorShiftRng| {
        let mut chip = param.clone();
        chip.apply_variation(sigma, rng);
        let diff = chip.effective_weights().sub(&targets).unwrap();
        (diff.norm_sq() / diff.len() as f32).sqrt()
    };
    let r1 = rms_at(0.05, &mut rng);
    let r2 = rms_at(0.10, &mut rng);
    let ratio = r2 / r1;
    assert!(
        (1.6..=2.4).contains(&ratio),
        "noise should scale linearly with sigma, got ratio {ratio}"
    );
}

#[test]
fn unclamped_variation_model_is_unbiased() {
    let range = xbar_device::ConductanceRange::normalized();
    let var = VariationModel::new(0.2).with_clamp(ClampMode::None);
    let mut rng = XorShiftRng::new(98);
    let t = Tensor::full(&[64, 64], 0.5);
    let noisy = var.sample_tensor(&t, range, &mut rng);
    let mean = noisy.mean();
    assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
}

#[test]
fn clamp_mode_controls_out_of_range_conductances() {
    // Heavy noise around a target at the range ceiling: ToRange (the
    // default) must keep every programmed conductance inside the device
    // range, while None lets the noise spill past it — and the two modes
    // must agree on the draw sequence (clamping is a post-step).
    let range = xbar_device::ConductanceRange::normalized();
    let t = Tensor::full(&[32, 32], 1.0);
    let clamped = VariationModel::new(0.3).sample_tensor(&t, range, &mut XorShiftRng::new(100));
    let free = VariationModel::new(0.3)
        .with_clamp(ClampMode::None)
        .sample_tensor(&t, range, &mut XorShiftRng::new(100));
    assert!(clamped.data().iter().all(|&g| (0.0..=1.0).contains(&g)));
    assert!(
        free.data().iter().any(|&g| g > 1.0),
        "sigma 0.3 at g_max must overshoot"
    );
    for (c, f) in clamped.data().iter().zip(free.data()) {
        assert_eq!(
            *c,
            range.clamp(*f),
            "clamped draw must be the clamp of the free draw"
        );
    }
}

#[test]
fn resampling_is_deterministic_under_a_fixed_seed() {
    // Monte-Carlo studies re-seed per sample; two chips programmed with
    // equal seeds must agree bit-for-bit, and a different seed must not.
    let mut rng = XorShiftRng::new(101);
    let w = Tensor::rand_uniform(&[8, 16], -0.02, 0.02, &mut rng);
    let param = mapped(&w, Mapping::Acm, DeviceConfig::quantized_linear(5));
    let chip = |seed: u64| {
        let mut p = param.clone();
        p.apply_variation(0.08, &mut XorShiftRng::new(seed));
        assert_eq!(p.shadow(), param.shadow(), "variation moved the targets");
        p.effective_weights()
    };
    assert_eq!(chip(7).data(), chip(7).data());
    assert_ne!(chip(7).data(), chip(8).data());
}

#[test]
fn bc_and_acm_arrays_use_identical_element_counts() {
    // Table I's "same hardware" claim at the simulator level.
    let mut rng = XorShiftRng::new(99);
    let w = Tensor::rand_uniform(&[8, 16], -0.02, 0.02, &mut rng);
    let cells = |mapping| mapped(&w, mapping, DeviceConfig::ideal()).num_params();
    assert_eq!(cells(Mapping::BiasColumn), cells(Mapping::Acm));
    assert!(cells(Mapping::DoubleElement) > cells(Mapping::Acm) * 17 / 10);
}
