//! Parasitic non-ideality integration: inactive line-resistance/drift
//! models are a bitwise no-op on a mapped layer's monolithic and tiled
//! arrays (the degenerate-point contract), a `Mapping::Perm` model
//! checkpoint round-trips bitwise through the file codec, and drift at a
//! fixed seed/time is invariant to the thread count.

use std::fs;
use std::path::PathBuf;

use xbar_core::Mapping;
use xbar_data::SyntheticMnist;
use xbar_device::{DeviceConfig, DriftModel, LineResistanceModel, TileShape};
use xbar_models::{mlp2, ModelConfig};
use xbar_nn::persist;
use xbar_nn::{evaluate, train, Layer, MappedParam, TrainConfig, WeightKind};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::{backend, linalg, Tensor};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xbar-parasitic-{tag}-{}", std::process::id()));
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
        seed: 0x9A7A,
        verbose: false,
        ..TrainConfig::default()
    }
}

#[test]
fn inactive_parasitics_are_a_bitwise_noop_on_monolithic_and_tiled() {
    // Parasitic models that are *carried* but inactive — zero line
    // resistance and a drift law read at t = 0 — must leave the programmed
    // array and its forward bit for bit as they were. This is the
    // degenerate-point contract the enlarged sweep grid relies on.
    let mut rng = XorShiftRng::new(71);
    let w = Tensor::rand_uniform(&[13, 21], -0.05, 0.05, &mut rng);
    let xb = Tensor::rand_uniform(&[5, 21], -1.0, 1.0, &mut rng);
    let forward = |p: &MappedParam| linalg::matmul_nt(&xb, &p.effective_weights()).unwrap();

    for mapping in Mapping::ALL {
        for tile in [None, Some(TileShape::new(8, 8))] {
            let dev = DeviceConfig::ideal().with_tile_shape(tile);
            let mut plain = MappedParam::from_signed(&w, WeightKind::Mapped(mapping), dev).unwrap();
            assert_eq!(plain.tile_grid().unwrap().num_tiles() > 1, tile.is_some());
            plain.apply_variation(0.05, &mut XorShiftRng::new(5));
            let mut loaded = plain.clone();
            loaded
                .apply_parasitics(
                    LineResistanceModel::none(),
                    DriftModel::new(0.05, 0.02, 0xD217).at_time(0),
                )
                .unwrap();
            assert_eq!(
                forward(&plain),
                forward(&loaded),
                "{mapping} {tile:?}: inactive parasitics perturbed the forward"
            );

            // Sanity: once the line model is live the output must move,
            // proving the comparison above exercises real plumbing.
            let mut dropping = plain.clone();
            dropping
                .apply_parasitics(LineResistanceModel::new(0.01), DriftModel::none())
                .unwrap();
            assert_ne!(
                forward(&plain),
                forward(&dropping),
                "{mapping} {tile:?}: a live IR-drop model left the forward unchanged"
            );
        }
    }
}

#[test]
fn perm_checkpoint_round_trips_bitwise_through_the_file_codec() {
    // Perm derives its column order from the constructor-time
    // initialisation, so restore targets an identically-constructed net
    // (same model seed) — the same contract training resume relies on.
    let dir = tmp_dir("perm");
    let path = dir.join("perm.bin");
    let data = SyntheticMnist::builder()
        .train(100)
        .test(40)
        .seed(73)
        .build();
    let make = || {
        let cfg = ModelConfig::mapped(Mapping::Perm, DeviceConfig::quantized_linear(4))
            .with_tile_shape(Some(TileShape::new(32, 32)))
            .with_seed(0x9E12);
        mlp2(256, 40, 10, &cfg).unwrap()
    };

    let mut net = make();
    train(&mut net, data.train.as_split(), None, &quick_cfg(2)).unwrap();
    persist::save_model(&path, &mut net).unwrap();

    let mut fresh = make();
    assert_ne!(
        persist::collect_state(&mut net),
        persist::collect_state(&mut fresh),
        "training never moved the Perm net off its initial state"
    );
    persist::load_model(&path, &mut fresh).unwrap();
    assert_eq!(
        persist::collect_state(&mut net),
        persist::collect_state(&mut fresh),
        "Perm state diverged across the file round-trip"
    );
    assert_eq!(
        evaluate(&mut net, data.test.features(), data.test.labels(), 16).unwrap(),
        evaluate(&mut fresh, data.test.features(), data.test.labels(), 16).unwrap(),
        "restored Perm net evaluates differently"
    );
}

#[test]
fn drift_at_fixed_seed_is_thread_count_invariant() {
    // Two identically-built nets, one loaded with parasitics and
    // evaluated serially, the other under the worker pool: the per-cell
    // drift streams are addressed by (row, col), not by visitation order,
    // so the results must be bit-identical.
    let data = SyntheticMnist::builder()
        .train(80)
        .test(40)
        .seed(79)
        .build();
    let make = || {
        let cfg = ModelConfig::mapped(Mapping::Acm, DeviceConfig::quantized_linear(4))
            .with_tile_shape(Some(TileShape::new(32, 32)))
            .with_seed(0xACDC);
        mlp2(256, 40, 10, &cfg).unwrap()
    };
    let line = LineResistanceModel::new(0.004);
    let drift = DriftModel::new(0.05, 0.02, 0x5EED).at_time(2000);
    let load_and_eval = |net: &mut xbar_nn::Sequential| {
        let mut applied = Ok(());
        net.visit_mapped(&mut |p| {
            if let Err(e) = p.apply_parasitics(line, drift) {
                applied = Err(e);
            }
        });
        applied.unwrap();
        evaluate(net, data.test.features(), data.test.labels(), 16).unwrap()
    };

    let mut clean = make();
    let clean_eval = evaluate(&mut clean, data.test.features(), data.test.labels(), 16).unwrap();

    backend::force_serial(true);
    let mut serial_net = make();
    let serial = load_and_eval(&mut serial_net);
    backend::force_serial(false);
    let mut pooled_net = make();
    let pooled = load_and_eval(&mut pooled_net);

    assert_eq!(
        serial, pooled,
        "drifted evaluation diverged across thread modes"
    );
    assert_ne!(
        serial, clean_eval,
        "an active drift+IR load left the evaluation unchanged"
    );
}
