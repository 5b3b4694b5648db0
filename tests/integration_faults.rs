//! Integration tests of the fault-injection subsystem: closed-loop
//! programming that degrades gracefully on defective arrays, and
//! fault-aware null-space remapping recovering inference accuracy on the
//! synthetic-MNIST MLP workload.

use xbar_core::Mapping;
use xbar_data::SyntheticMnist;
use xbar_device::{DeviceConfig, FaultModel, ProgrammingModel};
use xbar_models::{mlp2, ModelConfig};
use xbar_nn::{evaluate, train, Layer, MappedParam, Sequential, TrainConfig, WeightKind};
use xbar_tensor::{linalg, rng::XorShiftRng, Tensor};

fn trained_net(mapping: Mapping, bits: u8, seed: u64) -> (Sequential, xbar_data::DatasetPair) {
    let data = SyntheticMnist::builder()
        .train(800)
        .test(400)
        .seed(seed)
        .build();
    let cfg = ModelConfig::mapped(mapping, DeviceConfig::quantized_linear(bits)).with_seed(seed);
    let mut net = mlp2(256, 32, 10, &cfg).unwrap();
    let tc = TrainConfig {
        epochs: 12,
        batch_size: 16,
        lr: 0.08,
        lr_decay: 0.95,
        seed,
        verbose: false,
        ..TrainConfig::default()
    };
    train(
        &mut net,
        data.train.as_split(),
        Some(data.test.as_split()),
        &tc,
    )
    .unwrap();
    (net, data)
}

#[test]
fn programming_a_defective_array_reports_instead_of_failing() {
    // 1% stuck-at cells plus a write-verify tolerance tighter than the
    // noise allows within budget: programming must complete, freeze the
    // stuck cells, and *report* the unconverged ones — never panic or
    // abort.
    let mut rng = XorShiftRng::new(61);
    let w = Tensor::rand_uniform(&[16, 64], -0.01, 0.01, &mut rng);
    let dev = DeviceConfig::quantized_linear(6)
        .with_programming(ProgrammingModel::write_verify(3, 0.005));
    let mut p = MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Acm), dev).unwrap();
    let (report, _) = p
        .apply_faults(FaultModel::uniform(0.01), 0.10, false, &mut rng)
        .unwrap();
    assert!(
        report.num_stuck() > 0,
        "1% of {} cells should stick",
        report.total_cells()
    );
    assert!(
        report.num_unconverged() > 0,
        "3 writes cannot hold 0.5% tolerance at sigma 10%"
    );
    assert!(report.worst_residual() > 0.0);
    assert!(!report.all_converged());
    assert_eq!(report.total_cells(), p.num_params());
    assert_eq!(
        report.num_converged() + report.num_unconverged() + report.num_stuck(),
        report.total_cells()
    );
    // The degraded array still computes finite results.
    let y = linalg::matmul_nt(&Tensor::full(&[1, 64], 0.5), &p.effective_weights()).unwrap();
    assert!(y.data().iter().all(|v| v.is_finite()));
}

#[test]
fn network_fault_injection_degrades_gracefully_at_one_percent() {
    // The acceptance scenario: a trained network programmed onto chips
    // with 1% stuck-at cells keeps evaluating — no panics, faults
    // reported per layer — and clearing the injection restores the clean
    // accuracy exactly.
    let (mut net, data) = trained_net(Mapping::Acm, 4, 62);
    let (_, clean) = evaluate(&mut net, data.test.features(), data.test.labels(), 32).unwrap();
    let mut rng = XorShiftRng::new(63);
    let mut layers = 0;
    let mut stuck = 0;
    net.visit_mapped(&mut |p| {
        let (prog, remap) = p
            .apply_faults(FaultModel::uniform(0.01), 0.0, false, &mut rng)
            .unwrap();
        assert!(remap.is_none());
        stuck += prog.num_stuck();
        layers += 1;
    });
    assert_eq!(layers, 2, "mlp2 has two mapped layers");
    assert!(stuck > 0, "1% of ~8.8k cells should stick");
    let (_, faulty) = evaluate(&mut net, data.test.features(), data.test.labels(), 32).unwrap();
    assert!((0.0..=1.0).contains(&faulty));
    net.visit_mapped(&mut |p| p.clear_variation());
    let (_, restored) = evaluate(&mut net, data.test.features(), data.test.labels(), 32).unwrap();
    assert_eq!(
        clean, restored,
        "clearing fault injection must restore exactly"
    );
}

#[test]
fn acm_remapping_recovers_at_least_half_the_accuracy_loss() {
    // Paired comparison over several defective chips: the same trained
    // ACM network, the same defect patterns, programmed naively vs with
    // null-space remapping. Remapping must win back at least half of the
    // accuracy the faults cost.
    let (mut net, data) = trained_net(Mapping::Acm, 4, 64);
    let (_, clean) = evaluate(&mut net, data.test.features(), data.test.labels(), 32).unwrap();
    let samples = 8;
    let model = FaultModel::uniform(0.01);
    let mut acc = [0.0f32; 2]; // [naive, remapped]
    for s in 0..samples {
        for (arm, remap) in [false, true].into_iter().enumerate() {
            // Re-fork per arm so both see the identical defect pattern.
            let mut rng = XorShiftRng::new(65).fork(s);
            net.visit_mapped(&mut |p| {
                p.apply_faults(model, 0.0, remap, &mut rng).unwrap();
            });
            let (_, a) = evaluate(&mut net, data.test.features(), data.test.labels(), 32).unwrap();
            net.visit_mapped(&mut |p| p.clear_variation());
            acc[arm] += a;
        }
    }
    let naive = acc[0] / samples as f32;
    let remapped = acc[1] / samples as f32;
    let lost = clean - naive;
    let recovered = remapped - naive;
    assert!(
        lost > 0.01,
        "1% stuck-at should visibly hurt (clean {clean}, naive {naive})"
    );
    assert!(
        recovered >= 0.5 * lost,
        "remapping recovered {recovered} of {lost} lost accuracy \
         (clean {clean}, naive {naive}, remapped {remapped})"
    );
}

#[test]
fn fault_patterns_and_programming_are_seed_deterministic() {
    let mut rng = XorShiftRng::new(66);
    let w = Tensor::rand_uniform(&[8, 16], -0.02, 0.02, &mut rng);
    let dev =
        DeviceConfig::quantized_linear(4).with_programming(ProgrammingModel::write_verify(4, 0.02));
    let param = MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Acm), dev).unwrap();
    let chip = |seed: u64| {
        let mut p = param.clone();
        let (report, _) = p
            .apply_faults(
                FaultModel::uniform(0.05),
                0.05,
                false,
                &mut XorShiftRng::new(seed),
            )
            .unwrap();
        (p.effective_weights(), report)
    };
    let (a, report_a) = chip(67);
    let (b, report_b) = chip(67);
    assert_eq!(a.data(), b.data());
    assert_eq!(report_a, report_b);
    assert!(report_a.num_stuck() > 0);
    let (c, report_c) = chip(68);
    assert_ne!(a.data(), c.data(), "another seed deals another chip");
    assert_ne!(report_a, report_c);
}
