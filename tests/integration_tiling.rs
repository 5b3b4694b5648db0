//! Tile-granular execution integration: layers larger than a physical
//! tile train and infer through the tiled path, tiled inference agrees
//! with the monolithic reference for every mapping (including ragged
//! edge tiles), per-tile MVM fan-out is bitwise deterministic, and
//! checkpoint/resume of tiled state reproduces the uninterrupted run.

use std::fs;
use std::path::PathBuf;

use xbar_core::{CrossbarArray, Mapping};
use xbar_data::SyntheticMnist;
use xbar_device::{DeviceConfig, TileShape};
use xbar_models::{mlp2, ModelConfig};
use xbar_nn::persist;
use xbar_nn::{evaluate, train, Layer, TrainConfig};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::{backend, Tensor};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xbar-tiling-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn quick_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 16,
        lr: 0.08,
        lr_decay: 0.95,
        seed: 0x7117,
        verbose: false,
        ..TrainConfig::default()
    }
}

#[test]
fn layer_larger_than_standard_tile_trains_and_infers_tiled() {
    // 256 inputs × 140 hidden overflows a standard 128×128 tile in both
    // dimensions, so the hidden layer must span a genuine multi-tile grid.
    let data = SyntheticMnist::builder()
        .train(150)
        .test(50)
        .seed(51)
        .build();
    let cfg = ModelConfig::mapped(Mapping::Acm, DeviceConfig::ideal())
        .with_tile_shape(Some(TileShape::standard()));
    let mut net = mlp2(256, 140, 10, &cfg).unwrap();

    let mut grids = Vec::new();
    net.visit_mapped(&mut |p| {
        let grid = p.tile_grid().expect("mapped layer must carry a tile grid");
        grids.push((grid.grid(), grid.num_tiles()));
    });
    assert_eq!(grids.len(), 2);
    // 256 inputs → 2 row blocks; 140 ACM outputs at a 127-output cap → 2
    // column groups. The 10-class head fits one tile.
    assert_eq!(grids[0], ((2, 2), 4));
    assert_eq!(grids[1], ((2, 1), 2));

    let hist = train(
        &mut net,
        data.train.as_split(),
        Some(data.test.as_split()),
        &quick_cfg(6),
    )
    .unwrap();
    let acc = hist.best_test_acc().unwrap();
    assert!(acc > 0.4, "tiled net only reached {acc}");
}

#[test]
fn tiled_inference_matches_monolithic_for_every_mapping_on_ragged_grids() {
    // 13×21 on 8×8 tiles: ragged in both dimensions (21 = 8+8+5 row
    // blocks; the last column group of every mapping is short).
    let mut rng = XorShiftRng::new(61);
    // Keep weights small enough that every mapping can represent them
    // (ACM bounds the *cumulative* column spread, BC the half-span).
    let w = Tensor::rand_uniform(&[13, 21], -0.05, 0.05, &mut rng);
    let x1 = Tensor::rand_uniform(&[21], -1.0, 1.0, &mut rng);
    let xb = Tensor::rand_uniform(&[5, 21], -1.0, 1.0, &mut rng);
    for mapping in Mapping::ALL {
        let dev = DeviceConfig::ideal();
        let mut r1 = XorShiftRng::new(7);
        let mono = CrossbarArray::program_signed(&w, mapping, dev, &mut r1).unwrap();
        let mut r2 = XorShiftRng::new(7);
        let tiled_dev = dev.with_tile_shape(Some(TileShape::new(8, 8)));
        let tiled = CrossbarArray::program_signed(&w, mapping, tiled_dev, &mut r2).unwrap();
        assert!(tiled.num_tiles() > 1, "{mapping}: grid is not tiled");

        let mono_v = mono.mvm_signed(&x1).unwrap();
        let tiled_v = tiled.mvm_signed(&x1).unwrap();
        assert!(
            tiled_v.all_close(&mono_v, 1e-4),
            "{mapping}: tiled mvm_signed diverged"
        );
        let mono_b = mono.forward(&xb).unwrap();
        let tiled_b = tiled.forward(&xb).unwrap();
        assert!(
            tiled_b.all_close(&mono_b, 1e-4),
            "{mapping}: tiled forward diverged"
        );
    }
    // Seeded draws over the shape, tile, batch and mapping ranges of the
    // `slow-proptests` property `tiled_matches_monolithic`.
    let mut draw = XorShiftRng::new(0x711E);
    for case in 0..64 {
        let mapping = Mapping::ALL[draw.below(Mapping::ALL.len())];
        let n_out = 1 + draw.below(19);
        let n_in = 1 + draw.below(23);
        let tile = TileShape::new(1 + draw.below(9), 2 + draw.below(8));
        let batch = 1 + draw.below(4);
        let mut rng = XorShiftRng::new(draw.next_u64() | 1);
        // Small enough weights for every mapping's worst case (ACM bounds
        // the cumulative column spread over up to 19 outputs).
        let w = Tensor::rand_uniform(&[n_out, n_in], -0.02, 0.02, &mut rng);
        let x = Tensor::rand_uniform(&[batch, n_in], -1.0, 1.0, &mut rng);
        let dev = DeviceConfig::ideal();
        let mono =
            CrossbarArray::program_signed(&w, mapping, dev, &mut XorShiftRng::new(7)).unwrap();
        let tiled_dev = dev.with_tile_shape(Some(tile));
        let tiled = CrossbarArray::program_signed(&w, mapping, tiled_dev, &mut XorShiftRng::new(7))
            .unwrap();
        let tag = format!("case {case}: {mapping} {n_out}x{n_in} @{tile} batch {batch}");
        assert!(
            tiled
                .forward(&x)
                .unwrap()
                .all_close(&mono.forward(&x).unwrap(), 1e-3),
            "{tag}: forward diverged"
        );
        assert!(
            tiled.effective_weights().all_close(&w, 1e-3),
            "{tag}: effective weights diverged"
        );
    }
}

#[test]
fn parallel_tiled_inference_is_bitwise_identical_to_serial() {
    // Full-stack check: an entire tiled network evaluated with the worker
    // pool disabled and enabled must produce bit-identical loss/accuracy.
    let data = SyntheticMnist::builder()
        .train(60)
        .test(40)
        .seed(53)
        .build();
    let cfg = ModelConfig::mapped(Mapping::DoubleElement, DeviceConfig::ideal())
        .with_tile_shape(Some(TileShape::new(64, 64)));
    let mut net = mlp2(256, 48, 10, &cfg).unwrap();
    train(&mut net, data.train.as_split(), None, &quick_cfg(2)).unwrap();

    backend::force_serial(true);
    let serial = evaluate(&mut net, data.test.features(), data.test.labels(), 16).unwrap();
    backend::force_serial(false);
    let parallel = evaluate(&mut net, data.test.features(), data.test.labels(), 16).unwrap();
    assert_eq!(serial, parallel, "parallel evaluation diverged from serial");
}

#[test]
fn tiled_checkpoint_resume_is_bitwise_deterministic() {
    // The persist/resume invariant must survive tiling: a tiled net
    // trained 2 epochs, "killed", and resumed to 4 matches the
    // uninterrupted 4-epoch run bitwise (history and full state).
    let dir = tmp_dir("resume");
    let data = SyntheticMnist::builder()
        .train(120)
        .test(40)
        .seed(57)
        .build();
    let make = || {
        let cfg = ModelConfig::mapped(Mapping::Acm, DeviceConfig::quantized_linear(4))
            .with_tile_shape(Some(TileShape::new(32, 32)))
            .with_seed(0xB0B);
        mlp2(256, 40, 10, &cfg).unwrap()
    };

    let mut full_net = make();
    let full_hist = train(
        &mut full_net,
        data.train.as_split(),
        Some(data.test.as_split()),
        &quick_cfg(4),
    )
    .unwrap();

    let ckpt_cfg = |epochs| TrainConfig {
        checkpoint_every: 2,
        checkpoint_dir: Some(dir.clone()),
        ..quick_cfg(epochs)
    };
    let mut crashed = make();
    train(
        &mut crashed,
        data.train.as_split(),
        Some(data.test.as_split()),
        &ckpt_cfg(2),
    )
    .unwrap();
    drop(crashed);

    let mut resumed = make();
    let resumed_hist = train(
        &mut resumed,
        data.train.as_split(),
        Some(data.test.as_split()),
        &ckpt_cfg(4),
    )
    .unwrap();

    assert_eq!(full_hist, resumed_hist, "tiled history diverged on resume");
    assert_eq!(
        persist::collect_state(&mut full_net),
        persist::collect_state(&mut resumed),
        "tiled weights/RNG state diverged on resume"
    );
}
