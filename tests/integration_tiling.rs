//! Tile-granular execution integration: layers larger than a physical
//! tile train and infer through the tiled path, every tile grid reads the
//! same weights as the monolithic array for every mapping (including
//! ragged edge tiles), tiled evaluation is bitwise identical serial and
//! pooled, and checkpoint/resume of tiled state reproduces the
//! uninterrupted run.

use std::fs;
use std::path::PathBuf;

use xbar_core::{Mapping, TileGrid};
use xbar_data::SyntheticMnist;
use xbar_device::{DeviceConfig, TileShape};
use xbar_models::{mlp2, ModelConfig};
use xbar_nn::persist;
use xbar_nn::{evaluate, train, Layer, TrainConfig};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::{backend, linalg, Tensor};

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

/// The signed weights `S·M` the grid of `tile` reads out of its own
/// decomposition of `w`. A mapped layer's fp32 forward is
/// `x·(α·S·q(M))ᵀ`, so tiled ≡ 1×1 is the statement that every grid
/// reads the same weights.
fn read_weights(w: &Tensor, mapping: Mapping, tile: Option<TileShape>) -> Tensor {
    let grid = TileGrid::new(w.shape()[0], w.shape()[1], mapping, tile).unwrap();
    let m = grid.decompose(w, DeviceConfig::ideal().range()).unwrap();
    grid.periphery().apply(&m).unwrap()
}

#[test]
fn tiled_inference_matches_monolithic_for_every_mapping_on_ragged_grids() {
    // 13×21 on 8×8 tiles: ragged in both dimensions (21 = 8+8+5 row
    // blocks; the last column group of every mapping is short).
    let mut rng = XorShiftRng::new(61);
    // Keep weights small enough that every mapping can represent them
    // (ACM bounds the *cumulative* column spread, BC the half-span).
    let w = Tensor::rand_uniform(&[13, 21], -0.05, 0.05, &mut rng);
    let xb = Tensor::rand_uniform(&[5, 21], -1.0, 1.0, &mut rng);
    let tile = Some(TileShape::new(8, 8));
    for mapping in Mapping::ALL {
        let grid = TileGrid::new(13, 21, mapping, tile).unwrap();
        assert!(grid.num_tiles() > 1, "{mapping}: grid is not tiled");
        let mono = read_weights(&w, mapping, None);
        let tiled = read_weights(&w, mapping, tile);
        assert!(
            tiled.all_close(&mono, 1e-4),
            "{mapping}: tiled weights diverged"
        );
        let mono_b = linalg::matmul_nt(&xb, &mono).unwrap();
        let tiled_b = linalg::matmul_nt(&xb, &tiled).unwrap();
        assert!(
            tiled_b.all_close(&mono_b, 1e-4),
            "{mapping}: tiled forward diverged"
        );
    }
    // 64 seeded draws over ragged shapes, tiles, batches and mappings.
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
        let mono = read_weights(&w, mapping, None);
        let tiled = read_weights(&w, mapping, Some(tile));
        let tag = format!("case {case}: {mapping} {n_out}x{n_in} @{tile} batch {batch}");
        assert!(
            linalg::matmul_nt(&x, &tiled)
                .unwrap()
                .all_close(&linalg::matmul_nt(&x, &mono).unwrap(), 1e-3),
            "{tag}: forward diverged"
        );
        assert!(tiled.all_close(&w, 1e-3), "{tag}: weights diverged");
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
