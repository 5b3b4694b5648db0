//! End-to-end training integration: every model type learns the synthetic
//! tasks through the full stack (datasets → models → mapped layers →
//! trainer), under FP32 and quantized/nonlinear devices.

use xbar_core::Mapping;
use xbar_data::SyntheticMnist;
use xbar_device::DeviceConfig;
use xbar_models::{lenet, mlp2, ModelConfig, ModelScale};
use xbar_nn::{
    evaluate, persist, train, Dense, Dropout, Flatten, Layer, Relu, Sequential,
    SoftmaxCrossEntropy, Split, TrainConfig, WeightKind,
};
use xbar_tensor::backend;
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::Tensor;

fn quick_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 16,
        lr: 0.08,
        lr_decay: 0.95,
        seed: 0x7357,
        verbose: false,
        ..TrainConfig::default()
    }
}

#[test]
fn all_model_types_learn_fp32() {
    let data = SyntheticMnist::builder()
        .train(300)
        .test(100)
        .seed(41)
        .build();
    for (label, cfg) in [
        ("baseline", ModelConfig::baseline()),
        (
            "acm",
            ModelConfig::mapped(Mapping::Acm, DeviceConfig::ideal()),
        ),
        (
            "de",
            ModelConfig::mapped(Mapping::DoubleElement, DeviceConfig::ideal()),
        ),
        (
            "bc",
            ModelConfig::mapped(Mapping::BiasColumn, DeviceConfig::ideal()),
        ),
    ] {
        let mut net = lenet((1, 16, 16), 10, ModelScale::Tiny, &cfg).unwrap();
        let hist = train(
            &mut net,
            data.train.as_split(),
            Some(data.test.as_split()),
            &quick_cfg(10),
        )
        .unwrap();
        let acc = hist.best_test_acc().unwrap();
        // Tiny-width nets on 300 samples are weak learners; the bar is
        // "clearly above 10% chance", not benchmark accuracy.
        assert!(acc > 0.4, "{label}: only reached {acc}");
    }
}

#[test]
fn quantized_training_learns_at_4_bits() {
    let data = SyntheticMnist::builder()
        .train(300)
        .test(100)
        .seed(42)
        .build();
    for mapping in Mapping::ALL {
        let cfg = ModelConfig::mapped(mapping, DeviceConfig::quantized_linear(4));
        let mut net = lenet((1, 16, 16), 10, ModelScale::Tiny, &cfg).unwrap();
        let hist = train(
            &mut net,
            data.train.as_split(),
            Some(data.test.as_split()),
            &quick_cfg(10),
        )
        .unwrap();
        let acc = hist.best_test_acc().unwrap();
        assert!(acc > 0.3, "{mapping}: only reached {acc}");
    }
}

#[test]
fn nonlinear_device_training_still_learns_at_high_bits() {
    let data = SyntheticMnist::builder()
        .train(300)
        .test(100)
        .seed(43)
        .build();
    let cfg = ModelConfig::mapped(Mapping::Acm, DeviceConfig::quantized_nonlinear(6, 5.0));
    let mut net = lenet((1, 16, 16), 10, ModelScale::Tiny, &cfg).unwrap();
    let hist = train(
        &mut net,
        data.train.as_split(),
        Some(data.test.as_split()),
        &quick_cfg(8),
    )
    .unwrap();
    let acc = hist.best_test_acc().unwrap();
    assert!(acc > 0.4, "nonlinear 6-bit only reached {acc}");
}

#[test]
fn conductances_stay_physical_throughout_training() {
    // After arbitrary amounts of SGD, every crossbar element must remain
    // inside the device range — the non-negativity constraint the whole
    // paper is built on.
    let data = SyntheticMnist::builder()
        .train(200)
        .test(50)
        .seed(44)
        .build();
    for device in [
        DeviceConfig::ideal(),
        DeviceConfig::quantized_linear(3),
        DeviceConfig::quantized_nonlinear(4, 5.0),
    ] {
        let cfg = ModelConfig::mapped(Mapping::Acm, device);
        let mut net = lenet((1, 16, 16), 10, ModelScale::Tiny, &cfg).unwrap();
        train(&mut net, data.train.as_split(), None, &quick_cfg(3)).unwrap();
        net.visit_mapped(&mut |p| {
            assert!(
                p.shadow().min() >= 0.0,
                "negative conductance after training"
            );
            assert!(
                p.shadow().max() <= 1.0,
                "conductance above g_max after training"
            );
        });
    }
}

#[test]
fn training_is_deterministic_given_seeds() {
    let data = SyntheticMnist::builder()
        .train(150)
        .test(50)
        .seed(45)
        .build();
    let run = || {
        let cfg = ModelConfig::mapped(Mapping::Acm, DeviceConfig::quantized_linear(4));
        let mut net = mlp2(256, 16, 10, &cfg).unwrap();
        train(
            &mut net,
            data.train.as_split(),
            Some(data.test.as_split()),
            &quick_cfg(3),
        )
        .unwrap()
        .last()
        .unwrap()
        .train_loss
    };
    assert_eq!(run(), run());
}

#[test]
fn evaluate_matches_history_test_accuracy() {
    let data = SyntheticMnist::builder()
        .train(200)
        .test(80)
        .seed(46)
        .build();
    let cfg = ModelConfig::mapped(Mapping::DoubleElement, DeviceConfig::ideal());
    let mut net = mlp2(256, 24, 10, &cfg).unwrap();
    let hist = train(
        &mut net,
        data.train.as_split(),
        Some(data.test.as_split()),
        &quick_cfg(4),
    )
    .unwrap();
    let (_, acc) = evaluate(&mut net, data.test.features(), data.test.labels(), 16).unwrap();
    let recorded = hist.final_test_acc().unwrap();
    assert!((acc - recorded).abs() < 1e-6, "{acc} vs {recorded}");
}

// ---------------------------------------------------------------------------
// Data-parallel (sharded) training: determinism and checkpoint contracts.
// ---------------------------------------------------------------------------

/// Restores pooled (parallel) execution when dropped, so a failing parity
/// assertion cannot leave the whole test process forced serial.
struct SerialGuard;

impl Drop for SerialGuard {
    fn drop(&mut self) {
        backend::force_serial(false);
    }
}

/// A small MLP with a dropout layer, so the per-shard RNG forking of the
/// data-parallel trainer is on the tested path.
fn dropout_net(kind: WeightKind) -> Sequential {
    let mut rng = XorShiftRng::new(0xD207);
    let mut net = Sequential::new();
    net.push(Flatten::new());
    net.push(Dense::new(256, 32, kind, DeviceConfig::ideal(), &mut rng).unwrap());
    net.push(Relu::new());
    net.push(Dropout::new(0.2, 0xF02C));
    net.push(Dense::new(32, 10, kind, DeviceConfig::ideal(), &mut rng).unwrap());
    net
}

/// Bitwise state comparison: every tensor element must match in bits (not
/// merely `==`, which would conflate `0.0` with `-0.0`), and every RNG
/// stream must sit at the same position.
fn assert_state_bitwise_eq(a: &[persist::StateItem], b: &[persist::StateItem], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: state item count");
    for (x, y) in a.iter().zip(b) {
        match (x, y) {
            (
                persist::StateItem::Tensor {
                    name: na,
                    value: va,
                },
                persist::StateItem::Tensor {
                    name: nb,
                    value: vb,
                },
            ) => {
                assert_eq!(na, nb, "{label}: item order");
                assert_eq!(va.shape(), vb.shape(), "{label}: {na} shape");
                for (i, (p, q)) in va.data().iter().zip(vb.data()).enumerate() {
                    assert_eq!(p.to_bits(), q.to_bits(), "{label}: {na}[{i}] {p} vs {q}");
                }
            }
            (
                persist::StateItem::Rng {
                    name: na,
                    value: va,
                },
                persist::StateItem::Rng {
                    name: nb,
                    value: vb,
                },
            ) => {
                assert_eq!(na, nb, "{label}: item order");
                assert_eq!(va, vb, "{label}: {na} rng stream position");
            }
            _ => panic!("{label}: state item kind mismatch"),
        }
    }
}

#[test]
fn sharded_training_parallel_matches_serial_bitwise() {
    // The headline determinism contract: with a fixed shard count, pooled
    // and guaranteed-serial execution (the in-process equivalent of
    // XBAR_THREADS=4 vs XBAR_THREADS=1) produce bitwise-identical weights,
    // biases, and RNG stream positions — for the baseline and for every
    // crossbar mapping, with dropout active.
    let data = SyntheticMnist::builder()
        .train(120)
        .test(40)
        .seed(51)
        .build();
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: 0.08,
        lr_decay: 0.9,
        seed: 0x5EED,
        shards: Some(4),
        ..TrainConfig::default()
    };
    let _guard = SerialGuard;
    for kind in [
        WeightKind::Signed,
        WeightKind::Mapped(Mapping::Acm),
        WeightKind::Mapped(Mapping::DoubleElement),
        WeightKind::Mapped(Mapping::BiasColumn),
    ] {
        let run = |serial: bool| {
            backend::force_serial(serial);
            let mut net = dropout_net(kind);
            let hist = train(&mut net, data.train.as_split(), None, &cfg).unwrap();
            (
                persist::collect_state(&mut net),
                hist.last().unwrap().train_loss,
            )
        };
        let (serial_state, serial_loss) = run(true);
        let (parallel_state, parallel_loss) = run(false);
        let label = format!("{kind:?}");
        assert_eq!(
            serial_loss.to_bits(),
            parallel_loss.to_bits(),
            "{label}: loss trajectory diverged"
        );
        assert_state_bitwise_eq(&serial_state, &parallel_state, &label);
    }
}

#[test]
fn shard_count_is_part_of_the_reduction_order() {
    // shards=1 and shards=4 are *different* gradient reduction orders and
    // are not expected to agree bitwise — but each must be internally
    // deterministic. This pins the documented contract so a future
    // "helpful" change that silently reorders the reduction gets caught.
    let data = SyntheticMnist::builder()
        .train(96)
        .test(32)
        .seed(52)
        .build();
    let state_for = |shards: Option<usize>| {
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 16,
            lr: 0.08,
            seed: 0x5EED,
            shards,
            ..TrainConfig::default()
        };
        let mut net = dropout_net(WeightKind::Mapped(Mapping::Acm));
        train(&mut net, data.train.as_split(), None, &cfg).unwrap();
        persist::collect_state(&mut net)
    };
    assert_state_bitwise_eq(&state_for(Some(4)), &state_for(Some(4)), "shards=4 repeat");
    let one = state_for(Some(1));
    let four = state_for(Some(4));
    let identical = one.iter().zip(&four).all(|(x, y)| match (x, y) {
        (
            persist::StateItem::Tensor { value: va, .. },
            persist::StateItem::Tensor { value: vb, .. },
        ) => va
            .data()
            .iter()
            .zip(vb.data())
            .all(|(p, q)| p.to_bits() == q.to_bits()),
        _ => true,
    });
    assert!(
        !identical,
        "shards=1 and shards=4 agreed bitwise; dropout forking or \
         shard-order reduction is not actually exercising the shard count"
    );
}

/// One sharded step written out by hand on clones of `net`: shuffle with
/// the trainer's seed, split the batch into `shards` contiguous row runs
/// (the first `len % shards` runs one row longer), run forward and
/// backward per shard with the loss divided by the whole batch, add the
/// shard gradients left to right in shard order (shard 0's copied, an
/// empty shard's zeros added too), and take one SGD step on the primary.
fn hand_sharded_step(
    net: &dyn Layer,
    x: &Tensor,
    labels: &[usize],
    shards: usize,
    seed: u64,
    lr: f32,
) -> Box<dyn Layer> {
    let mut order: Vec<usize> = (0..labels.len()).collect();
    XorShiftRng::new(seed).shuffle(&mut order);
    let features = x.shape()[1];
    let (base, rem) = (order.len() / shards, order.len() % shards);
    let mut sum: Vec<f32> = Vec::new();
    let mut start = 0;
    for r in 0..shards {
        let rows = &order[start..start + base + usize::from(r < rem)];
        start += rows.len();
        let mut replica = net.clone_box();
        replica.zero_grad();
        if !rows.is_empty() {
            let data: Vec<f32> = rows
                .iter()
                .flat_map(|&i| x.data()[i * features..(i + 1) * features].to_vec())
                .collect();
            let xb = Tensor::from_vec(data, &[rows.len(), features]).unwrap();
            let yb: Vec<usize> = rows.iter().map(|&i| labels[i]).collect();
            let logits = replica.forward(&xb, true).unwrap();
            let (_, grad) = SoftmaxCrossEntropy::forward_scaled(&logits, &yb, order.len()).unwrap();
            replica.backward(&grad).unwrap();
        }
        let mut flat = Vec::new();
        replica.visit_grads(&mut |g| flat.extend_from_slice(g.data()));
        if r == 0 {
            sum = flat;
        } else {
            for (s, g) in sum.iter_mut().zip(&flat) {
                *s += *g;
            }
        }
    }
    let mut primary = net.clone_box();
    let mut off = 0;
    primary.visit_grads(&mut |g| {
        let n = g.len();
        g.data_mut().copy_from_slice(&sum[off..off + n]);
        off += n;
    });
    primary.update(lr);
    primary
}

#[test]
fn sharded_step_adds_shard_gradients_in_shard_order() {
    // Pins the reduction formula itself, not only its determinism: one
    // epoch of one batch at 3 shards must equal the hand-written step
    // bit for bit, on a 3/2/2 split and on a split with an empty shard.
    for n in [7usize, 2] {
        let mut rng = XorShiftRng::new(0x5A4D + n as u64);
        let x = Tensor::rand_normal(&[n, 6], 0.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let kind = WeightKind::Mapped(Mapping::Acm);
        let mut net = Sequential::new();
        net.push(Dense::new(6, 8, kind, DeviceConfig::ideal(), &mut rng).unwrap());
        net.push(Relu::new());
        net.push(Dense::new(8, 3, kind, DeviceConfig::ideal(), &mut rng).unwrap());
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 8,
            lr: 0.1,
            seed: 0x0DE5,
            shards: Some(3),
            ..TrainConfig::default()
        };
        let mut want = hand_sharded_step(&net, &x, &labels, 3, cfg.seed, cfg.lr);
        train(&mut net, Split::new(&x, &labels).unwrap(), None, &cfg).unwrap();
        assert_state_bitwise_eq(
            &persist::collect_state(&mut net),
            &persist::collect_state(want.as_mut()),
            &format!("{n} rows over 3 shards"),
        );
    }
}

#[test]
fn sharded_checkpoint_resume_is_bitwise_identical() {
    // Simulated mid-run crash: run A trains 4 epochs straight through; run
    // B trains 2 epochs (checkpointing every epoch), "dies", and a fresh
    // process picks the checkpoint up for the remaining 2. Final state —
    // including dropout RNG positions — must match run A exactly, with the
    // resumed epochs executing data-parallel.
    let data = SyntheticMnist::builder()
        .train(96)
        .test(32)
        .seed(53)
        .build();
    let base = TrainConfig {
        epochs: 4,
        batch_size: 16,
        lr: 0.08,
        lr_decay: 0.95,
        seed: 0xC4A5,
        shards: Some(4),
        ..TrainConfig::default()
    };

    let mut straight = dropout_net(WeightKind::Mapped(Mapping::Acm));
    train(&mut straight, data.train.as_split(), None, &base).unwrap();
    let straight_state = persist::collect_state(&mut straight);

    let dir = std::env::temp_dir().join(format!("xbar_shard_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let killed = TrainConfig {
        epochs: 2,
        checkpoint_every: 1,
        checkpoint_dir: Some(dir.clone()),
        ..base.clone()
    };
    let mut net_b = dropout_net(WeightKind::Mapped(Mapping::Acm));
    train(&mut net_b, data.train.as_split(), None, &killed).unwrap();

    let resumed_cfg = TrainConfig {
        checkpoint_every: 1,
        checkpoint_dir: Some(dir.clone()),
        ..base.clone()
    };
    let mut resumed = dropout_net(WeightKind::Mapped(Mapping::Acm));
    train(&mut resumed, data.train.as_split(), None, &resumed_cfg).unwrap();
    let resumed_state = persist::collect_state(&mut resumed);
    std::fs::remove_dir_all(&dir).ok();

    assert_state_bitwise_eq(&straight_state, &resumed_state, "resume");
}

#[test]
fn baseline_weights_are_unconstrained_but_mapped_are_clipped() {
    let data = SyntheticMnist::builder()
        .train(200)
        .test(50)
        .seed(47)
        .build();
    // Train hard with a large lr to push weights around.
    let mut cfg = quick_cfg(4);
    cfg.lr = 0.3;
    let model_cfg = ModelConfig {
        kind: WeightKind::Mapped(Mapping::BiasColumn),
        device: DeviceConfig::ideal(),
        act_bits: None,
        seed: 48,
    };
    let mut net = mlp2(256, 16, 10, &model_cfg).unwrap();
    train(&mut net, data.train.as_split(), None, &cfg).unwrap();
    net.visit_mapped(&mut |p| {
        // BC reference column stays exactly at midpoint.
        let shadow = p.shadow();
        let nd = shadow.shape()[0];
        let n_in = shadow.shape()[1];
        for i in 0..n_in {
            assert_eq!(shadow.at(&[nd - 1, i]), 0.5, "reference column drifted");
        }
    });
}
