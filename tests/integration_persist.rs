//! Persistence integration: checkpoint codec round-trips, corruption
//! detection, and the headline crash-safety property — a training run
//! killed at epoch k and resumed from its checkpoint reproduces the
//! uninterrupted run bitwise (History and final weights).

use std::fs;
use std::path::PathBuf;

use xbar_core::Mapping;
use xbar_data::SyntheticMnist;
use xbar_device::DeviceConfig;
use xbar_nn::persist::{self, PersistError, KIND_MODEL, KIND_TENSOR, KIND_TRAIN, MAGIC};
use xbar_nn::{
    train, BatchNorm2d, Conv2d, Dense, Dropout, Flatten, Relu, Sequential, TrainConfig, WeightKind,
};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::Tensor;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xbar-persist-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small net exercising every kind of persistent state: mapped conv and
/// dense weights (with their stochastic-update RNGs), batch-norm running
/// statistics, and a dropout mask RNG.
fn make_net(seed: u64) -> Sequential {
    let device = DeviceConfig::quantized_linear(4);
    let kind = WeightKind::Mapped(Mapping::Acm);
    let mut rng = XorShiftRng::new(seed);
    let mut net = Sequential::new();
    net.push(Conv2d::new(1, 4, 3, 2, 1, kind, device, &mut rng).unwrap());
    net.push(BatchNorm2d::new(4));
    net.push(Relu::new());
    net.push(Flatten::new());
    net.push(Dense::new(256, 16, kind, device, &mut rng).unwrap());
    net.push(Relu::new());
    net.push(Dropout::new(0.2, seed ^ 0xD0));
    net.push(Dense::new(16, 10, kind, device, &mut rng).unwrap());
    net
}

fn train_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 16,
        lr: 0.08,
        lr_decay: 0.9,
        seed: 0xC4A5,
        verbose: false,
        ..TrainConfig::default()
    }
}

#[test]
fn tensor_round_trip_is_bitwise_and_leaves_no_temp_file() {
    let dir = tmp_dir("tensor");
    let path = dir.join("t.bin");
    let mut rng = XorShiftRng::new(7);
    let t = Tensor::rand_uniform(&[3, 5, 2], -2.0, 2.0, &mut rng);
    persist::save_tensor(&path, &t).unwrap();
    let back = persist::load_tensor(&path).unwrap();
    assert_eq!(t, back);
    // Atomic write must not leave its temporary file behind.
    let stray: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(stray.is_empty(), "stray temp files: {stray:?}");
}

#[test]
fn model_round_trip_restores_every_state_item() {
    let dir = tmp_dir("model");
    let path = dir.join("model.bin");
    let data = SyntheticMnist::builder()
        .train(80)
        .test(20)
        .seed(11)
        .build();

    // Train briefly so running stats, update RNGs, and dropout RNG all
    // move off their initial values.
    let mut net = make_net(3);
    train(&mut net, data.train.as_split(), None, &train_cfg(1)).unwrap();
    persist::save_model(&path, &mut net).unwrap();

    let mut fresh = make_net(999); // different seed: different initial state
    assert_ne!(
        persist::collect_state(&mut net),
        persist::collect_state(&mut fresh)
    );
    persist::load_model(&path, &mut fresh).unwrap();
    assert_eq!(
        persist::collect_state(&mut net),
        persist::collect_state(&mut fresh)
    );
}

#[test]
fn corrupted_files_are_rejected_with_typed_errors() {
    let dir = tmp_dir("corrupt");
    let path = dir.join("t.bin");
    let mut rng = XorShiftRng::new(9);
    let t = Tensor::rand_uniform(&[16, 16], -1.0, 1.0, &mut rng);
    persist::save_tensor(&path, &t).unwrap();
    let good = fs::read(&path).unwrap();

    // Truncation: cut the file mid-payload.
    fs::write(&path, &good[..good.len() / 2]).unwrap();
    match persist::load_tensor(&path) {
        Err(PersistError::Truncated { .. }) => {}
        other => panic!("truncated file: expected Truncated, got {other:?}"),
    }

    // Bit flip inside the payload: header parses, checksum must not.
    let mut flipped = good.clone();
    let payload_start = good.len() - 4; // flip within trailing payload bytes
    flipped[payload_start] ^= 0x10;
    fs::write(&path, &flipped).unwrap();
    match persist::load_tensor(&path) {
        Err(PersistError::ChecksumMismatch { .. }) => {}
        other => panic!("bit flip: expected ChecksumMismatch, got {other:?}"),
    }

    // Foreign file: wrong magic.
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    fs::write(&path, &bad_magic).unwrap();
    match persist::load_tensor(&path) {
        Err(PersistError::BadMagic) => {}
        other => panic!("bad magic: expected BadMagic, got {other:?}"),
    }

    // Future format version.
    let mut bad_version = good.clone();
    bad_version[MAGIC.len()] = 0xFE;
    fs::write(&path, &bad_version).unwrap();
    match persist::load_tensor(&path) {
        Err(PersistError::UnsupportedVersion(_)) => {}
        other => panic!("bad version: expected UnsupportedVersion, got {other:?}"),
    }

    // Right container, wrong kind: a tensor file is not a model file.
    fs::write(&path, &good).unwrap();
    let mut net = make_net(1);
    match persist::load_model(&path, &mut net) {
        Err(PersistError::WrongKind { expected, found }) => {
            assert_eq!((expected, found), (KIND_MODEL, KIND_TENSOR));
        }
        other => panic!("wrong kind: expected WrongKind, got {other:?}"),
    }
    let _ = (KIND_TRAIN,); // all three kinds are part of the public contract
}

#[test]
fn architecture_mismatch_is_rejected_and_leaves_net_untouched() {
    let dir = tmp_dir("mismatch");
    let path = dir.join("model.bin");
    let mut net = make_net(5);
    persist::save_model(&path, &mut net).unwrap();

    // A different architecture: one mapped dense layer, nothing else.
    let device = DeviceConfig::quantized_linear(4);
    let mut rng = XorShiftRng::new(77);
    let mut other = Sequential::new();
    other.push(Flatten::new());
    other.push(Dense::new(256, 10, WeightKind::Mapped(Mapping::Acm), device, &mut rng).unwrap());

    let before = persist::collect_state(&mut other);
    match persist::load_model(&path, &mut other) {
        Err(PersistError::StateMismatch(_)) => {}
        other => panic!("expected StateMismatch, got {other:?}"),
    }
    // Validation failed before application: the net must be unchanged.
    assert_eq!(before, persist::collect_state(&mut other));
}

#[test]
fn checkpoint_round_trip_is_exact() {
    let dir = tmp_dir("ckpt");
    let path = dir.join("train.ckpt");
    let data = SyntheticMnist::builder()
        .train(60)
        .test(20)
        .seed(13)
        .build();
    let mut net = make_net(2);
    let hist = train(
        &mut net,
        data.train.as_split(),
        Some(data.test.as_split()),
        &train_cfg(2),
    )
    .unwrap();

    let mut rng = XorShiftRng::new(0xFEED);
    rng.normal(); // leave a Box–Muller spare pending so it must round-trip
    let ckpt = persist::TrainCheckpoint {
        epochs_done: 2,
        lr: 0.0648,
        shards: 3,
        rng: rng.save_state(),
        order: vec![5, 3, 0, 1, 4, 2],
        history: hist.epochs().to_vec(),
        model: persist::collect_state(&mut net),
    };
    persist::save_checkpoint(&path, &ckpt).unwrap();
    assert_eq!(ckpt, persist::load_checkpoint(&path).unwrap());
}

#[test]
fn resumed_training_matches_uninterrupted_run_bitwise() {
    let dir = tmp_dir("resume");
    let data = SyntheticMnist::builder()
        .train(120)
        .test(40)
        .seed(17)
        .build();

    // Reference: 5 epochs straight through, no checkpointing.
    let mut full_net = make_net(21);
    let full_hist = train(
        &mut full_net,
        data.train.as_split(),
        Some(data.test.as_split()),
        &train_cfg(5),
    )
    .unwrap();

    // "Crashed" run: identical net trained 2 epochs with checkpointing on
    // — the process dies here — then a fresh process resumes from the
    // checkpoint directory and runs to 5.
    let ckpt_cfg = |epochs| TrainConfig {
        checkpoint_every: 2,
        checkpoint_dir: Some(dir.clone()),
        ..train_cfg(epochs)
    };
    let mut crashed = make_net(21);
    train(
        &mut crashed,
        data.train.as_split(),
        Some(data.test.as_split()),
        &ckpt_cfg(2),
    )
    .unwrap();
    drop(crashed); // the in-memory net is lost with the crash

    let mut resumed = make_net(21);
    let resumed_hist = train(
        &mut resumed,
        data.train.as_split(),
        Some(data.test.as_split()),
        &ckpt_cfg(5),
    )
    .unwrap();

    assert_eq!(full_hist, resumed_hist, "history diverged across resume");
    assert_eq!(
        persist::collect_state(&mut full_net),
        persist::collect_state(&mut resumed),
        "weights/RNG state diverged across resume"
    );
}

#[test]
fn resume_with_wrong_dataset_size_is_rejected() {
    let dir = tmp_dir("wrongsize");
    let data = SyntheticMnist::builder()
        .train(60)
        .test(20)
        .seed(19)
        .build();
    let cfg = TrainConfig {
        checkpoint_every: 1,
        checkpoint_dir: Some(dir.clone()),
        ..train_cfg(1)
    };
    let mut net = make_net(4);
    train(&mut net, data.train.as_split(), None, &cfg).unwrap();

    // Same checkpoint dir, different training-set size: the persisted
    // shuffle order no longer applies and must be rejected, not misused.
    let other = SyntheticMnist::builder()
        .train(80)
        .test(20)
        .seed(19)
        .build();
    let mut net2 = make_net(4);
    let err = train(&mut net2, other.train.as_split(), None, &cfg).unwrap_err();
    assert!(
        matches!(
            err,
            xbar_nn::NnError::Persist(PersistError::StateMismatch(_))
        ),
        "expected StateMismatch, got {err:?}"
    );
}

/// A dense 4→8→2 ACM network and a 16-sample, 4-feature set: the smallest
/// resumable run.
fn tiny_net(seed: u64) -> Sequential {
    let device = DeviceConfig::quantized_linear(4);
    let kind = WeightKind::Mapped(Mapping::Acm);
    let mut rng = XorShiftRng::new(seed);
    let mut net = Sequential::new();
    net.push(Dense::new(4, 8, kind, device, &mut rng).unwrap());
    net.push(Relu::new());
    net.push(Dense::new(8, 2, kind, device, &mut rng).unwrap());
    net
}

fn tiny_data() -> (Tensor, Vec<usize>) {
    let mut rng = XorShiftRng::new(0x7D);
    let x = Tensor::rand_uniform(&[16, 4], -1.0, 1.0, &mut rng);
    let labels = (0..16).map(|i| i % 2).collect();
    (x, labels)
}

/// Trains [`tiny_net`] for one epoch at two shards with a checkpoint in
/// `dir`, and returns the config that resumes it for a second epoch
/// (taking the shard count from the checkpoint, writing none).
fn tiny_checkpointed_run(dir: &std::path::Path, x: &Tensor, labels: &[usize]) -> TrainConfig {
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 8,
        shards: Some(2),
        checkpoint_every: 1,
        checkpoint_dir: Some(dir.to_path_buf()),
        ..TrainConfig::default()
    };
    let split = xbar_nn::Split::new(x, labels).unwrap();
    train(&mut tiny_net(5), split, None, &cfg).unwrap();
    TrainConfig {
        epochs: 2,
        shards: None,
        checkpoint_every: 0,
        ..cfg
    }
}

#[test]
fn resume_rejects_an_order_or_shard_count_it_cannot_replay() {
    let dir = tmp_dir("badorder");
    let path = dir.join("train.ckpt");
    let (x, labels) = tiny_data();
    let resume = tiny_checkpointed_run(&dir, &x, &labels);
    let good = persist::load_checkpoint(&path).unwrap();
    type Tamper = fn(&mut persist::TrainCheckpoint);
    let cases: [(&str, Tamper); 5] = [
        ("out-of-range sample index", |c| c.order[0] = 1_000_000),
        ("repeated sample index", |c| c.order[1] = c.order[0]),
        ("zero shards", |c| c.shards = 0),
        ("more shards than batch rows", |c| c.shards = 9),
        // Would size one model replica per shard before the first step.
        ("huge shard count", |c| c.shards = usize::MAX >> 1),
    ];
    let split = || xbar_nn::Split::new(&x, &labels).unwrap();
    for (name, tamper) in cases {
        let mut bad = good.clone();
        tamper(&mut bad);
        persist::save_checkpoint(&path, &bad).unwrap();
        let err = train(&mut tiny_net(5), split(), None, &resume).unwrap_err();
        assert!(
            matches!(
                err,
                xbar_nn::NnError::Persist(PersistError::StateMismatch(_))
            ),
            "{name}: expected StateMismatch, got {err:?}"
        );
    }
    persist::save_checkpoint(&path, &good).unwrap();
    let hist = train(&mut tiny_net(5), split(), None, &resume).unwrap();
    assert_eq!((hist.epochs().len(), hist.resolved_shards()), (2, 2));
    let _ = fs::remove_dir_all(&dir);
}

/// Applies one to three seeded corruptions to `bytes`: a flipped bit, a
/// byte overwritten, an 8-byte word overwritten with an edge value or
/// noise (at any offset, so it can straddle fields), a cut tail or an
/// appended one.
fn corrupt(bytes: &mut Vec<u8>, rng: &mut XorShiftRng) {
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(5) {
            0 => {
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= 1 << rng.below(8);
                }
            }
            1 => {
                if let Some(b) = bytes.get_mut(at) {
                    *b = rng.below(256) as u8;
                }
            }
            2 => {
                let edges = [0, 1, 2, 3, 9, 1 << 40, u64::MAX >> 1, u64::MAX];
                let word = match rng.below(edges.len() + 1) {
                    i if i < edges.len() => edges[i],
                    _ => rng.next_u64(),
                };
                for (dst, b) in bytes.iter_mut().skip(at).zip(word.to_le_bytes()) {
                    *dst = b;
                }
            }
            3 => bytes.truncate(at),
            _ => bytes.extend((0..1 + rng.below(16)).map(|_| rng.below(256) as u8)),
        }
    }
}

#[test]
fn corrupted_checkpoint_payloads_resume_or_fail_typed() {
    // Each draw corrupts a real checkpoint's payload and re-frames it
    // with a valid checksum, so the decoder and the resume checks (not
    // the CRC) must catch it. Every load and every resume returns Ok or
    // a typed error; a panic fails the test.
    let dir = tmp_dir("ckptfuzz");
    let path = dir.join("train.ckpt");
    let (x, labels) = tiny_data();
    let resume = tiny_checkpointed_run(&dir, &x, &labels);
    let clean = persist::read_container(&path, KIND_TRAIN).unwrap();
    let mut rng = XorShiftRng::new(0xC0BB);
    let (mut resumed, mut load_errors, mut resume_errors) = (0, 0, 0);
    for _ in 0..256 {
        let mut payload = clean.clone();
        corrupt(&mut payload, &mut rng);
        persist::write_container(&path, KIND_TRAIN, &payload).unwrap();
        if persist::load_checkpoint(&path).is_err() {
            load_errors += 1;
            continue;
        }
        let split = xbar_nn::Split::new(&x, &labels).unwrap();
        match train(&mut tiny_net(5), split, None, &resume) {
            Ok(_) => resumed += 1,
            Err(_) => resume_errors += 1,
        }
    }
    // The loop reaches all three outcomes.
    assert!(
        resumed > 0 && load_errors > 0 && resume_errors > 0,
        "resumed {resumed}, load errors {load_errors}, resume errors {resume_errors}"
    );
    let _ = fs::remove_dir_all(&dir);
}
