//! Self-healing execution integration: scrubbed training (lifetime fault
//! arrivals + ABFT detection + staged repair) is bitwise identical across
//! the serial and pooled backends, and a training run killed during a
//! repair epoch resumes from its checkpoint bitwise — the health state
//! machine, quarantine set, and remap compensation all survive the crash.

use std::fs;
use std::path::PathBuf;

use xbar_core::{HealthMonitor, Mapping, RepairPolicy, RepairStage, TileHealth};
use xbar_data::SyntheticMnist;
use xbar_device::{DeviceConfig, LifetimeFaultModel, TileShape};
use xbar_nn::persist;
use xbar_nn::{
    scrub_network, train, Dense, Flatten, MappedParam, Relu, Sequential, StateVisitor, TrainConfig,
    WeightKind,
};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::Tensor;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xbar-selfheal-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A tiled device whose cells wear out over scrub epochs.
fn aging_device() -> DeviceConfig {
    DeviceConfig::quantized_linear(4)
        .with_tile_shape(Some(TileShape::new(8, 8)))
        .with_lifetime_faults(LifetimeFaultModel::new(0.002, 77).unwrap())
}

fn make_net(seed: u64) -> Sequential {
    let kind = WeightKind::Mapped(Mapping::Acm);
    let mut rng = XorShiftRng::new(seed);
    let mut net = Sequential::new();
    net.push(Flatten::new());
    net.push(Dense::new(256, 16, kind, aging_device(), &mut rng).unwrap());
    net.push(Relu::new());
    net.push(Dense::new(16, 10, kind, aging_device(), &mut rng).unwrap());
    net
}

fn scrub_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 16,
        lr: 0.08,
        lr_decay: 0.9,
        seed: 0x5E1F,
        verbose: false,
        scrub_every: 1,
        scrub_detect: true,
        ..TrainConfig::default()
    }
}

/// The fault process must actually exercise the detection/repair path at
/// this size and rate — otherwise the bitwise tests below would pass
/// vacuously on a quiet array.
#[test]
fn scrub_cycle_detects_and_repairs_at_this_scale() {
    let mut net = make_net(31);
    let policy = RepairPolicy::default();
    let (mut faults, mut detections, mut repairs) = (0, 0, 0);
    for _ in 0..4 {
        let rep = scrub_network(&mut net, true, &policy).unwrap().unwrap();
        faults += rep.new_faults;
        detections += rep.detections;
        repairs += rep.repairs.len();
    }
    assert!(faults > 0, "no lifetime faults arrived in 4 epochs");
    assert!(detections > 0, "stuck cells must trip the ABFT checksum");
    assert!(repairs > 0, "detections must escalate to repair attempts");
}

#[test]
fn scrubbed_training_is_serial_parallel_bitwise() {
    let data = SyntheticMnist::builder()
        .train(64)
        .test(32)
        .seed(23)
        .build();
    let run = |serial: bool| {
        xbar_tensor::backend::force_serial(serial);
        let mut net = make_net(31);
        let hist = train(
            &mut net,
            data.train.as_split(),
            Some(data.test.as_split()),
            &scrub_cfg(3),
        )
        .unwrap();
        xbar_tensor::backend::force_serial(false);
        (hist, persist::collect_state(&mut net))
    };
    let (h1, s1) = run(true);
    let (h2, s2) = run(false);
    assert_eq!(h1, h2, "history diverged between serial and pooled scrub");
    assert_eq!(s1, s2, "state diverged between serial and pooled scrub");
}

#[test]
fn resumed_training_through_a_repair_epoch_is_bitwise() {
    let dir = tmp_dir("resume");
    let data = SyntheticMnist::builder()
        .train(96)
        .test(32)
        .seed(29)
        .build();

    // Reference: 4 epochs straight through (scrubbing every epoch).
    let mut full_net = make_net(31);
    let full_hist = train(
        &mut full_net,
        data.train.as_split(),
        Some(data.test.as_split()),
        &scrub_cfg(4),
    )
    .unwrap();

    // "Crashed" run: killed right after the epoch-2 checkpoint — by which
    // point the fault process has already forced detections and repairs
    // (see scrub_cycle_detects_and_repairs_at_this_scale) — then a fresh
    // process resumes from disk and runs to 4.
    let ckpt_cfg = |epochs| TrainConfig {
        checkpoint_every: 2,
        checkpoint_dir: Some(dir.clone()),
        ..scrub_cfg(epochs)
    };
    let mut crashed = make_net(31);
    train(
        &mut crashed,
        data.train.as_split(),
        Some(data.test.as_split()),
        &ckpt_cfg(2),
    )
    .unwrap();
    drop(crashed); // the in-memory net (and its served array) dies here

    let mut resumed = make_net(31);
    let resumed_hist = train(
        &mut resumed,
        data.train.as_split(),
        Some(data.test.as_split()),
        &ckpt_cfg(4),
    )
    .unwrap();

    assert_eq!(full_hist, resumed_hist, "history diverged across resume");
    assert_eq!(
        persist::collect_state(&mut full_net),
        persist::collect_state(&mut resumed),
        "health/shift/weight state diverged across resume"
    );
}

/// The weights both ported ladder tests map: 12 outputs × 24 inputs, so
/// 8×8 tiles give several column groups and row blocks.
fn ladder_weights() -> Tensor {
    Tensor::rand_normal(&[12, 24], 0.0, 0.3, &mut XorShiftRng::new(404))
}

/// The parameter's persisted health monitor, read through the same
/// visitor a checkpoint uses.
fn health(p: &mut MappedParam) -> HealthMonitor {
    struct Grab(Option<Tensor>);
    impl StateVisitor for Grab {
        fn tensor(&mut self, name: &str, value: &mut Tensor) {
            if name == "scrub_health" {
                self.0 = Some(value.clone());
            }
        }
        fn rng(&mut self, _: &str, _: &mut XorShiftRng) {}
    }
    let mut grab = Grab(None);
    p.visit_state("", &mut grab);
    let flat = grab.0.expect("a scrubbing parameter persists its health");
    HealthMonitor::from_flat(flat.data(), RepairPolicy::default()).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Every cell fails at the first tick. No remap can absorb a fully stuck
/// tile, so the ladder runs dry, every tile quarantines, and the digital
/// fallback serves exactly the fault-free parameter's weights.
#[test]
fn total_wearout_quarantines_everything_and_falls_back_exactly() {
    let w = ladder_weights();
    let clean_device =
        DeviceConfig::quantized_linear(4).with_tile_shape(Some(TileShape::new(8, 8)));
    let worn_device = clean_device.with_lifetime_faults(LifetimeFaultModel::new(1.0, 3).unwrap());
    for mapping in Mapping::ALL {
        let kind = WeightKind::Mapped(mapping);
        let clean = MappedParam::from_signed(&w, kind, clean_device).unwrap();
        let mut p = MappedParam::from_signed(&w, kind, worn_device).unwrap();
        let (mut saw_quarantine, mut analog) = (false, usize::MAX);
        for _ in 0..12 {
            let rep = p
                .scrub_tick(true, &RepairPolicy::default())
                .unwrap()
                .unwrap();
            saw_quarantine |= rep.quarantined_now > 0;
            analog = rep.analog_tiles;
            if analog == 0 {
                break;
            }
        }
        assert!(saw_quarantine, "{mapping}: no quarantine event");
        assert_eq!(analog, 0, "{mapping}: tiles still analog after 12 ticks");
        assert!(p.scrub_fallback_parity(), "{mapping}: fallback parity");
        assert_eq!(
            bits(&p.effective_weights()),
            bits(&clean.effective_weights()),
            "{mapping}: a quarantined grid must serve the fault-free weights"
        );
    }
}

/// A few stuck cells arrive over the first epochs. The ladder detects
/// them and either remaps the damaged tiles back within the policy's
/// weight tolerance or quarantines them, until the array goes quiet.
#[test]
fn lifetime_fault_escalates_to_remap_and_recovers_weights() {
    let w = ladder_weights();
    let clean_device = DeviceConfig::ideal().with_tile_shape(Some(TileShape::new(8, 8)));
    let aging = clean_device.with_lifetime_faults(LifetimeFaultModel::new(0.002, 23).unwrap());
    let policy = RepairPolicy::default();
    for mapping in Mapping::ALL {
        let kind = WeightKind::Mapped(mapping);
        let clean = MappedParam::from_signed(&w, kind, clean_device).unwrap();
        let mut p = MappedParam::from_signed(&w, kind, aging).unwrap();
        // Tick until the array quiesces: three consecutive ticks with no
        // arrivals, no repair activity, and no tile pending.
        let (mut detections, mut remaps, mut quiet, mut ticks) = (0, 0, 0, 0);
        while quiet < 3 && ticks < 80 {
            let rep = p.scrub_tick(true, &policy).unwrap().unwrap();
            detections += rep.detections;
            remaps += rep
                .repairs
                .iter()
                .filter(|a| a.stage != RepairStage::Reprogram && a.healed)
                .count();
            let monitor = health(&mut p);
            let pending = (0..monitor.num_tiles()).any(|t| {
                matches!(
                    monitor.state(t),
                    TileHealth::Suspect | TileHealth::Repairing
                )
            });
            if rep.new_faults > 0 || rep.detections > 0 || !rep.repairs.is_empty() || pending {
                quiet = 0;
            } else {
                quiet += 1;
            }
            ticks += 1;
        }
        assert_eq!(quiet, 3, "{mapping}: wear never quiesced");
        assert!(detections > 0, "{mapping}: wear was never detected");
        if matches!(mapping, Mapping::DoubleElement | Mapping::Perm) {
            assert!(remaps > 0, "{mapping}: no successful remap repair");
        }
        // Quiescent means every tile is healthy (fault-free, or remapped
        // to within the weight tolerance) or quarantined (served exactly),
        // so the weight error is bounded by the tolerance, in weight units.
        let (healed, ideal) = (p.effective_weights(), clean.effective_weights());
        assert!(
            healed.all_close(&ideal, 1.5 * policy.weight_tolerance * p.alpha()),
            "{mapping}: weight error {} after healing",
            healed.sub(&ideal).unwrap().abs_max()
        );
    }
}
