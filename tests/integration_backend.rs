//! Cross-crate determinism tests for the compute backend: full training
//! runs, crossbar Monte-Carlo fan-outs, and clone-per-worker evaluation
//! sweeps must all be bitwise identical whether the pool is active or
//! forced serial.
//!
//! The binary pins the global pool to 4 lanes (via `XBAR_THREADS` before
//! first pool use) so parallel paths genuinely split work even on a
//! single-core CI host.

use std::sync::{Mutex, Once};

use xbar_core::{Mapping, QuantReadout};
use xbar_data::SyntheticMnist;
use xbar_device::DeviceConfig;
use xbar_models::{mlp2, ModelConfig};
use xbar_nn::{evaluate, train, Layer, MappedParam, Sequential, TrainConfig, WeightKind};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::{backend, Tensor};

/// Pins the global pool to 4 lanes, exactly once, before any test touches
/// it. Every test calls this first.
fn pool4() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        std::env::set_var("XBAR_THREADS", "4");
        assert_eq!(backend::threads(), 4, "pool must pick up XBAR_THREADS");
    });
}

/// Serializes tests that toggle the process-wide force_serial flag.
static SERIAL_TOGGLE: Mutex<()> = Mutex::new(());

/// Runs `f` twice — forced-serial and parallel — and returns both results.
fn both<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = SERIAL_TOGGLE.lock().unwrap();
    backend::force_serial(true);
    let serial = f();
    backend::force_serial(false);
    let parallel = f();
    (serial, parallel)
}

#[test]
fn training_run_is_bitwise_identical_serial_vs_parallel() {
    pool4();
    // A full train + evaluate cycle drives every rewritten kernel (GEMM
    // variants, convolution, pooling) through the pool; loss and
    // accuracy must not depend on the thread count.
    let run = || {
        let data = SyntheticMnist::builder()
            .train(200)
            .test(80)
            .seed(91)
            .build();
        let cfg =
            ModelConfig::mapped(Mapping::Acm, DeviceConfig::quantized_linear(4)).with_seed(91);
        let mut net = mlp2(256, 24, 10, &cfg).unwrap();
        let tc = TrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 0.08,
            lr_decay: 0.95,
            seed: 91,
            verbose: false,
            ..TrainConfig::default()
        };
        let history = train(&mut net, data.train.as_split(), None, &tc).unwrap();
        let (loss, acc) = evaluate(&mut net, data.test.features(), data.test.labels(), 32).unwrap();
        let probe = net.forward(data.test.features(), false).unwrap();
        (history.epochs()[2].train_loss, loss, acc, probe)
    };
    let (s, p) = both(run);
    assert_eq!(
        s.0.to_bits(),
        p.0.to_bits(),
        "train loss must match bitwise"
    );
    assert_eq!(s.1.to_bits(), p.1.to_bits(), "eval loss must match bitwise");
    assert_eq!(s.2.to_bits(), p.2.to_bits(), "accuracy must match bitwise");
    assert_eq!(s.3.data(), p.3.data(), "forward logits must match bitwise");
}

#[test]
fn crossbar_variation_trials_parity_and_rng_stream() {
    pool4();
    // Monte-Carlo variation trials of one mapped layer: trial `t` programs
    // a clone from the stream forked for it, in trial order, and reads a
    // batch through the int8 readout; the trials fan across the pool.
    let mut wrng = XorShiftRng::new(101);
    let w = Tensor::rand_uniform(&[24, 48], -0.05, 0.05, &mut wrng);
    let dev = DeviceConfig::quantized_linear(4);
    let param = MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Acm), dev).unwrap();
    let x = Tensor::rand_uniform(&[9, 48], -1.0, 1.0, &mut wrng);
    let trial = |mut rng: XorShiftRng| {
        let mut chip = param.clone();
        chip.apply_variation(0.1, &mut rng);
        chip.forward_quantized(&x, &QuantReadout::default())
            .unwrap()
    };

    let (mut s, mut p) = both(|| {
        let mut rng = XorShiftRng::new(777);
        // Fork serially, in trial order, before going parallel.
        let forks: Vec<XorShiftRng> = (0..12).map(|t| rng.fork(t)).collect();
        (backend::parallel_map(forks, |_, r| trial(r)), rng)
    });
    assert_eq!(s.0.len(), 12);
    let mut serial_loop = XorShiftRng::new(777);
    for (t, (a, b)) in s.0.iter().zip(&p.0).enumerate() {
        assert_eq!(a.data(), b.data(), "trial outputs must match bitwise");
        let want = trial(serial_loop.fork(t as u64));
        assert_eq!(a.data(), want.data(), "trial {t} left the serial loop");
    }
    // Variation is actually redrawn between trials.
    assert_ne!(s.0[0].data(), s.0[1].data());
    // The parent stream must advance identically too — callers may keep
    // drawing from it after the fan-out.
    let next = s.1.next_u64();
    assert_eq!(next, p.1.next_u64());
    assert_eq!(next, serial_loop.next_u64());
}

#[test]
fn clone_per_worker_evaluation_sweep_matches_serial_loop() {
    pool4();
    // The experiment harnesses fan Monte-Carlo variation samples across
    // the pool with one cloned network per worker task. That decomposition
    // must reproduce the documented serial loop bit for bit.
    let data = SyntheticMnist::builder()
        .train(150)
        .test(60)
        .seed(111)
        .build();
    let cfg = ModelConfig::mapped(Mapping::Acm, DeviceConfig::quantized_linear(4)).with_seed(111);
    let mut net = mlp2(256, 24, 10, &cfg).unwrap();
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: 0.08,
        lr_decay: 0.95,
        seed: 111,
        verbose: false,
        ..TrainConfig::default()
    };
    train(&mut net, data.train.as_split(), None, &tc).unwrap();

    let sigma = 0.15;
    let samples = 10u64;
    let sweep = |net: &Sequential| -> Vec<f32> {
        let mut rng = XorShiftRng::new(222);
        let sample_rngs: Vec<XorShiftRng> = (0..samples).map(|s| rng.fork(s)).collect();
        backend::parallel_map_with(
            || net.clone(),
            sample_rngs,
            |worker, _s, mut sample_rng| {
                worker.visit_mapped(&mut |p| p.apply_variation(sigma, &mut sample_rng));
                let (_, acc) =
                    evaluate(worker, data.test.features(), data.test.labels(), 32).unwrap();
                worker.visit_mapped(&mut |p| p.clear_variation());
                acc
            },
        )
    };
    let (s, p) = both(|| sweep(&net));
    assert_eq!(s.len(), samples as usize);
    for (a, b) in s.iter().zip(&p) {
        assert_eq!(a.to_bits(), b.to_bits(), "per-sample accuracy must match");
    }

    // Reference serial loop on the original network object.
    let mut rng = XorShiftRng::new(222);
    for (i, acc_par) in p.iter().enumerate() {
        let mut sample_rng = rng.fork(i as u64);
        net.visit_mapped(&mut |q| q.apply_variation(sigma, &mut sample_rng));
        let (_, acc) = evaluate(&mut net, data.test.features(), data.test.labels(), 32).unwrap();
        net.visit_mapped(&mut |q| q.clear_variation());
        assert_eq!(
            acc.to_bits(),
            acc_par.to_bits(),
            "sample {i} differs from serial loop"
        );
    }
}
