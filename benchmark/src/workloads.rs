//! The three workloads. Each is set up from the workload seed alone, and
//! each operation is a pure function of the set-up state and its index,
//! so any operation can be replayed bit for bit (by the traced self-test,
//! and by the cross-process check at another thread count).

use xbar_bench::experiments::{drift_model, ModelType, NetKind, Setup, UpdateKind, DEFAULT_NU};
use xbar_core::Mapping;
use xbar_data::{DatasetPair, SyntheticMnist};
use xbar_device::{AdcSpec, DeviceConfig, FaultModel, LineResistanceModel, TileShape};
use xbar_models::{mlp2, ModelConfig};
use xbar_nn::persist::crc32;
use xbar_nn::{
    calibrate, evaluate, evaluate_quantized, train, Layer, NnError, QuantReadout, Sequential,
    StateVisitor, TrainConfig,
};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::{backend, Tensor};

use crate::trace::{self, timed, Traced};

/// The four mappings, in the order operations cycle through them.
const MAPPINGS: [Mapping; 4] = Mapping::ALL;
/// Operations per round: one per mapping.
pub const ROUND: usize = MAPPINGS.len();

/// Shard count for every `train` call, as `fig5_precision --quantized`
/// pins it, so trained weights do not depend on the pool width.
const SHARDS: usize = 2;

/// Samples per training call of `train_resnet20`.
const RESNET_TRAIN_N: usize = 256;
/// Weight bits and update non-linearity of the Fig. 5h cell.
const RESNET_BITS: u8 = 5;

/// The `mc_faults_vgg9` cell: 4-bit weights, 2% stuck-at, σ = 5%,
/// r_line = 0.005, drift read at t = 1000.
const MC_BITS: u8 = 4;
const MC_RATE: f32 = 0.02;
const MC_SIGMA: f32 = 0.05;
const MC_R_LINE: f32 = 0.005;
const MC_T_DRIFT: u32 = 1000;
/// The remap may not leave more weight-space error than programming the
/// defective chip as-is. Both residuals are f32 sums of squares over up
/// to hundreds of columns, so an excess below 1e-5 of the norm is within
/// their rounding and counts as equal. A larger excess is a real
/// shortfall: the projected Gauss–Seidel solve, warm-started from the
/// clamped null shift, can stop above a column's as-is error.
const REMAP_SLACK: f32 = 1.0 + 1e-5;
/// Chips fanned out across the pool per operation.
const MC_CHIPS_PER_OP: usize = 4;
/// Chip ids of the warm-up pass, far above any operation's.
const WARMUP_CHIP: usize = 1 << 24;
const MC_TRAIN_N: usize = 320;
const MC_TEST_N: usize = 96;

/// The Table I MLP (400-100-10 on 20×20 images) at 8-bit weights on
/// 128×128 tiles, read through an 8-bit ADC.
const MLP_SIZE: usize = 20;
const MLP_HIDDEN: usize = 100;
const MLP_BITS: u8 = 8;
const ACT_BITS: u8 = 7;
const ADC_BITS: u8 = 8;
const MLP_TRAIN_N: usize = 800;
const MLP_TEST_N: usize = 1280;
const MLP_EPOCHS: usize = 8;
const BATCH: usize = 32;

/// Simulated statistics of the modelled hardware. They depend only on
/// the seed and the operations run, so they must repeat exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Sim {
    pub cells: u64,
    pub stuck: u64,
    pub writes: u64,
    pub unconverged: u64,
    pub columns_shifted: u64,
    pub residual_after: f64,
    pub remaps: u64,
    pub exact: u64,
}

impl Sim {
    pub fn add(&mut self, o: &Sim) {
        self.cells += o.cells;
        self.stuck += o.stuck;
        self.writes += o.writes;
        self.unconverged += o.unconverged;
        self.columns_shifted += o.columns_shifted;
        self.residual_after += o.residual_after;
        self.remaps += o.remaps;
        self.exact += o.exact;
    }

    pub fn digest(&self) -> u64 {
        let mut h = Digest::default();
        for v in [
            self.cells,
            self.stuck,
            self.writes,
            self.unconverged,
            self.columns_shifted,
            self.residual_after.to_bits(),
            self.remaps,
            self.exact,
        ] {
            h.u64(v);
        }
        h.finish()
    }
}

/// What one operation did.
#[derive(Debug, Default)]
pub struct OpOut {
    /// Units of `work_per_s`: training samples, chips or inference samples.
    pub items: u64,
    /// Operations in the failure count's unit: train calls, chip arms or
    /// batches.
    pub attempted: u64,
    pub digest: u64,
    pub sim: Sim,
    /// One line per attempted operation that returned an error or failed
    /// the output check.
    pub errors: Vec<String>,
}

pub trait Workload {
    /// Runs operation `i`.
    fn op(&mut self, i: usize) -> OpOut;
    /// Leading operations whose digests are compared across processes.
    fn prefix(&self) -> usize;
    /// Digest of the set-up state every operation starts from.
    fn setup_digest(&mut self) -> u64;
    /// Output checks made during set-up that failed.
    fn setup_failures(&self) -> &[String];
    /// The networks operations run on.
    fn nets(&mut self) -> &mut [Box<dyn Layer>];
    /// A real input batch for the first mapped layer's
    /// [`xbar_nn::MappedParam::forward_quantized`], with the readout mode,
    /// where the workload's timed path runs the integer readout.
    fn readout_batch(&self) -> Option<(Tensor, QuantReadout)> {
        None
    }
    /// Mean fp32 − int8 accuracy over the mappings with the 8-bit ADC, in
    /// points, where the workload reads through one.
    fn adc8_gap_points(&self) -> f64 {
        0.0
    }
}

pub const NAMES: [&str; 3] = ["train_resnet20", "mc_faults_vgg9", "int8_mlp"];

/// Builds workload `name` from `seed`. With `traced`, every network is
/// wrapped in [`Traced`].
pub fn setup(name: &str, seed: u64, traced: bool) -> Result<Box<dyn Workload>, NnError> {
    match name {
        "train_resnet20" => Ok(Box::new(TrainResnet::new(seed, traced)?)),
        "mc_faults_vgg9" => Ok(Box::new(McFaults::new(seed, traced)?)),
        "int8_mlp" => Ok(Box::new(Int8Mlp::new(seed, traced)?)),
        other => Err(NnError::Config(format!("unknown workload {other}"))),
    }
}

fn wrap(net: Sequential, traced: bool) -> Box<dyn Layer> {
    if traced {
        Box::new(Traced::new(Box::new(net)))
    } else {
        Box::new(net)
    }
}

fn build_nets(
    traced: bool,
    mut build: impl FnMut(Mapping) -> Result<Sequential, NnError>,
) -> Result<Vec<Box<dyn Layer>>, NnError> {
    timed("models.build", || {
        MAPPINGS
            .iter()
            .map(|&m| build(m).map(|net| wrap(net, traced)))
            .collect()
    })
}

fn train_cfg(setup: &Setup, epochs: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        shards: Some(SHARDS),
        seed,
        ..setup.train_config()
    }
}

/// Set-up training of every network, in the `nn.train` span.
fn train_all(
    nets: &mut [Box<dyn Layer>],
    data: &DatasetPair,
    cfg: &TrainConfig,
) -> Result<(), NnError> {
    for net in nets.iter_mut() {
        timed("nn.train", || {
            train(net.as_mut(), data.train.as_split(), None, cfg)
        })?;
    }
    Ok(())
}

/// The bytes of everything an operation produced; their CRC-32 is its
/// digest.
#[derive(Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn tensor(&mut self, t: &Tensor) {
        for &v in t.data() {
            self.f32(v);
        }
    }

    pub fn finish(&self) -> u64 {
        u64::from(crc32(&self.0))
    }
}

impl StateVisitor for Digest {
    fn tensor(&mut self, _name: &str, value: &mut Tensor) {
        Digest::tensor(self, value);
    }

    fn rng(&mut self, _name: &str, value: &mut XorShiftRng) {
        self.u64(value.clone().next_u64());
    }
}

fn state_digest(nets: &mut [Box<dyn Layer>]) -> u64 {
    let mut h = Digest::default();
    for net in nets {
        net.visit_state("", &mut h);
    }
    h.finish()
}

fn finite_and_fraction(loss: f32, acc: f32) -> bool {
    loss.is_finite() && (0.0..=1.0).contains(&acc)
}

/// Rows `[start, start + n)` of a sample-major tensor.
fn rows(x: &Tensor, start: usize, n: usize) -> Tensor {
    let sample: usize = x.shape()[1..].iter().product();
    let mut shape = x.shape().to_vec();
    shape[0] = n;
    Tensor::from_vec(
        x.data()[start * sample..(start + n) * sample].to_vec(),
        &shape,
    )
    .expect("row slice keeps the sample shape")
}

/// `train_resnet20`: one epoch of ResNet-20 training per operation, the
/// mapping cycling ACM, DE, BC, Perm, each from the same initial network
/// with its own shuffling seed.
struct TrainResnet {
    setup: Setup,
    data: DatasetPair,
    nets: Vec<Box<dyn Layer>>,
}

impl TrainResnet {
    fn new(seed: u64, traced: bool) -> Result<Self, NnError> {
        let setup = Setup {
            train_n: RESNET_TRAIN_N,
            test_n: BATCH,
            seed,
            ..Setup::new(NetKind::Resnet20)
        };
        let data = timed("data.build", || setup.data());
        let device = UpdateKind::Nonlinear(DEFAULT_NU).device(RESNET_BITS);
        let nets = build_nets(traced, |m| setup.build(ModelType::Mapped(m), device))?;
        // Two full steps per mapping fill the dispatch table and the
        // scratch pools for every shape the timed calls use.
        let warm = data.train.truncated(2 * BATCH);
        timed("tensor.warmup", || -> Result<(), NnError> {
            for net in &nets {
                let mut net = net.clone_box();
                train(
                    net.as_mut(),
                    warm.as_split(),
                    None,
                    &train_cfg(&setup, 1, 0),
                )?;
            }
            Ok(())
        })?;
        Ok(Self { setup, data, nets })
    }
}

impl Workload for TrainResnet {
    fn op(&mut self, i: usize) -> OpOut {
        let mut net = self.nets[i % MAPPINGS.len()].clone_box();
        let cfg = train_cfg(&self.setup, 1, self.setup.seed ^ ((i as u64 + 1) << 16));
        let mut out = OpOut {
            items: RESNET_TRAIN_N as u64,
            attempted: 1,
            ..OpOut::default()
        };
        let hist = timed("nn.train", || {
            train(net.as_mut(), self.data.train.as_split(), None, &cfg)
        });
        let mut h = Digest::default();
        match hist {
            Ok(hist) => {
                for e in hist.epochs() {
                    if !finite_and_fraction(e.train_loss, e.train_acc) {
                        out.errors.push(format!(
                            "op {i}: loss {} / accuracy {} out of range",
                            e.train_loss, e.train_acc
                        ));
                    }
                    h.f32(e.train_loss);
                    h.f32(e.train_acc);
                }
                net.visit_state("", &mut h);
            }
            Err(e) => out.errors.push(format!("op {i}: train: {e}")),
        }
        out.digest = h.finish();
        out
    }

    fn prefix(&self) -> usize {
        MAPPINGS.len()
    }

    fn setup_digest(&mut self) -> u64 {
        state_digest(&mut self.nets)
    }

    fn setup_failures(&self) -> &[String] {
        &[]
    }

    fn nets(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.nets
    }
}

/// `mc_faults_vgg9`: per operation, [`MC_CHIPS_PER_OP`] defective chips of
/// one mapping fanned out across the pool, each programmed naively and
/// remapped on the same defect pattern, loaded with parasitics and
/// evaluated.
struct McFaults {
    setup: Setup,
    data: DatasetPair,
    nets: Vec<Box<dyn Layer>>,
}

/// What one chip did: `[naive, remapped]` loss/accuracy and statistics.
struct Chip {
    digest: u64,
    sim: Sim,
    failures: Vec<String>,
}

impl McFaults {
    fn new(seed: u64, traced: bool) -> Result<Self, NnError> {
        let setup = Setup {
            train_n: MC_TRAIN_N,
            test_n: MC_TEST_N,
            epochs: 1,
            seed,
            ..Setup::new(NetKind::Vgg9)
        };
        let data = timed("data.build", || setup.data());
        let device = DeviceConfig::quantized_linear(MC_BITS);
        let mut nets = build_nets(traced, |m| setup.build(ModelType::Mapped(m), device))?;
        train_all(
            &mut nets,
            &data,
            &train_cfg(&setup, setup.epochs, setup.seed ^ 0x444),
        )?;
        let w = Self { setup, data, nets };
        // One chip per mapping, on chip ids no operation uses.
        timed("tensor.warmup", || {
            for m in 0..MAPPINGS.len() {
                let mut net = w.nets[m].clone_box();
                w.chip(net.as_mut(), WARMUP_CHIP + m);
            }
        });
        Ok(w)
    }

    fn chip(&self, net: &mut dyn Layer, chip: usize) -> Chip {
        let faults = FaultModel::uniform(MC_RATE);
        let line = LineResistanceModel::new(MC_R_LINE);
        let drift = drift_model(self.setup.seed, chip, MC_T_DRIFT);
        let test = &self.data.test;
        let mut h = Digest::default();
        let mut sim = Sim::default();
        let mut failures = Vec::new();
        for remap in [false, true] {
            // Same stream for both arms: the same defect pattern.
            let mut rng = XorShiftRng::new(self.setup.seed ^ (u64::from(MC_BITS) << 8) ^ 0x666)
                .fork(chip as u64);
            let span = if remap {
                "nn.param.apply_faults_remap"
            } else {
                "nn.param.apply_faults_naive"
            };
            let mut err: Option<NnError> = None;
            // Everything wrong with this arm; a failed arm is one failed
            // operation however many checks it misses.
            let mut arm = Vec::new();
            timed(span, || {
                net.visit_mapped(
                    &mut |p| match p.apply_faults(faults, MC_SIGMA, remap, &mut rng) {
                        Ok((prog, rep)) => {
                            sim.cells += prog.total_cells() as u64;
                            sim.stuck += prog.num_stuck() as u64;
                            sim.writes += prog.total_writes();
                            sim.unconverged += prog.num_unconverged() as u64;
                            if let Some(r) = rep {
                                sim.columns_shifted += r.columns_shifted() as u64;
                                sim.residual_after += f64::from(r.residual_after());
                                sim.remaps += 1;
                                sim.exact += u64::from(r.is_exact());
                                if r.residual_after() > r.residual_before() * REMAP_SLACK {
                                    arm.push(format!(
                                        "remap residual {} above naive {}",
                                        r.residual_after(),
                                        r.residual_before()
                                    ));
                                }
                            }
                        }
                        Err(e) => err = Some(e),
                    },
                )
            });
            timed("nn.param.apply_parasitics", || {
                net.visit_mapped(&mut |p| {
                    if let Err(e) = p.apply_parasitics(line, drift) {
                        err = Some(e);
                    }
                })
            });
            let eval = timed("nn.evaluate", || {
                evaluate(net, test.features(), test.labels(), self.setup.batch)
            });
            timed("nn.param.clear_variation", || {
                net.visit_mapped(&mut |p| p.clear_variation())
            });
            match (err, eval) {
                (Some(e), _) | (None, Err(e)) => arm.push(e.to_string()),
                (None, Ok((loss, acc))) => {
                    if !finite_and_fraction(loss, acc) {
                        arm.push(format!("loss {loss} / accuracy {acc} out of range"));
                    }
                    h.f32(loss);
                    h.f32(acc);
                }
            }
            if !arm.is_empty() {
                let which = if remap { "remapped" } else { "naive" };
                failures.push(format!("chip {chip} {which}: {}", arm.join("; ")));
            }
        }
        h.u64(sim.digest());
        Chip {
            digest: h.finish(),
            sim,
            failures,
        }
    }
}

impl Workload for McFaults {
    fn op(&mut self, i: usize) -> OpOut {
        let base = &self.nets[i % MAPPINGS.len()];
        let chips: Vec<usize> = (i * MC_CHIPS_PER_OP..(i + 1) * MC_CHIPS_PER_OP).collect();
        let this = &*self;
        let join = trace::join();
        let results = backend::parallel_map_with(
            || base.clone_box(),
            chips,
            |net, _, chip| {
                let c = this.chip(net.as_mut(), chip);
                join.task_done();
                c
            },
        );
        drop(join);
        let mut out = OpOut {
            items: MC_CHIPS_PER_OP as u64,
            attempted: 2 * MC_CHIPS_PER_OP as u64,
            ..OpOut::default()
        };
        let mut h = Digest::default();
        for c in results {
            h.u64(c.digest);
            out.sim.add(&c.sim);
            out.errors.extend(c.failures);
        }
        out.digest = h.finish();
        out
    }

    fn prefix(&self) -> usize {
        MAPPINGS.len()
    }

    fn setup_digest(&mut self) -> u64 {
        state_digest(&mut self.nets)
    }

    fn setup_failures(&self) -> &[String] {
        &[]
    }

    fn nets(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.nets
    }
}

/// `int8_mlp`: back-to-back 32-sample batches through the integer
/// readout, the mapping cycling per batch.
struct Int8Mlp {
    nets: Vec<Box<dyn Layer>>,
    batches: Vec<Tensor>,
    mode: QuantReadout,
    failures: Vec<String>,
    /// Mean fp32 − int8 accuracy over the mappings with the 8-bit ADC,
    /// in points.
    adc_gap: f64,
}

impl Int8Mlp {
    fn new(seed: u64, traced: bool) -> Result<Self, NnError> {
        let setup = Setup {
            train_n: MLP_TRAIN_N,
            test_n: MLP_TEST_N,
            epochs: MLP_EPOCHS,
            seed,
            ..Setup::new(NetKind::Lenet)
        };
        let data = timed("data.build", || {
            SyntheticMnist::builder()
                .size(MLP_SIZE)
                .train(setup.train_n)
                .test(setup.test_n)
                .seed(setup.seed ^ 0x111)
                .build()
        });
        let device = DeviceConfig::quantized_linear(MLP_BITS);
        let mut nets = build_nets(traced, |m| {
            let cfg = ModelConfig::mapped(m, device)
                .with_tile_shape(Some(TileShape::standard()))
                .with_seed(setup.seed ^ 0x333);
            mlp2(MLP_SIZE * MLP_SIZE, MLP_HIDDEN, 10, &cfg)
        })?;
        train_all(
            &mut nets,
            &data,
            &train_cfg(&setup, setup.epochs, setup.seed ^ 0x444),
        )?;
        let mode = QuantReadout {
            act_bits: ACT_BITS,
            act_range: None,
            adc: AdcSpec::new(ADC_BITS),
        };
        let (train_x, test) = (data.train.features(), &data.test);
        // The quantized gate of the repository's CI, on its readout (7-bit
        // activations, lossless ADC): on the same calibrated network, int8
        // accuracy within 1 point of fp32. The 8-bit ADC the timed batches
        // use loses more than that on some seeds; its gap is reported, not
        // gated.
        let gate = QuantReadout {
            adc: AdcSpec::new(AdcSpec::MAX_BITS),
            ..mode
        };
        let mut failures = Vec::new();
        let mut adc_gap = 0.0;
        for (net, m) in nets.iter_mut().zip(MAPPINGS) {
            timed("nn.calibrate", || calibrate(net.as_mut(), train_x, BATCH))?;
            let (x, y) = (test.features(), test.labels());
            let (fl, fa) = evaluate(net.as_mut(), x, y, BATCH)?;
            let (gl, ga) = evaluate_quantized(net.as_mut(), x, y, BATCH, &gate)?;
            let (ql, qa) = evaluate_quantized(net.as_mut(), x, y, BATCH, &mode)?;
            for (loss, acc) in [(fl, fa), (gl, ga), (ql, qa)] {
                if !finite_and_fraction(loss, acc) {
                    failures.push(format!("{}: loss {loss} / accuracy {acc}", m.tag()));
                }
            }
            if (fa - ga).abs() > 0.01 {
                failures.push(format!(
                    "{}: int8 accuracy {ga} more than 1 point from fp32 {fa}",
                    m.tag()
                ));
            }
            adc_gap += f64::from(fa - qa) * 100.0 / MAPPINGS.len() as f64;
        }
        let batches = (0..test.len() / BATCH)
            .map(|b| rows(test.features(), b * BATCH, BATCH))
            .collect();
        let mut w = Self {
            nets,
            batches,
            mode,
            failures,
            adc_gap,
        };
        timed("tensor.warmup", || {
            for i in 0..MAPPINGS.len() {
                w.op(i);
            }
        });
        Ok(w)
    }
}

impl Workload for Int8Mlp {
    fn op(&mut self, i: usize) -> OpOut {
        let x = &self.batches[(i / MAPPINGS.len()) % self.batches.len()];
        let mut out = OpOut {
            items: BATCH as u64,
            attempted: 1,
            ..OpOut::default()
        };
        match self.nets[i % MAPPINGS.len()].forward_quantized(x, &self.mode) {
            Ok(y) => {
                if y.shape() != [BATCH, 10] || !y.data().iter().all(|v| v.is_finite()) {
                    out.errors
                        .push(format!("batch {i}: logits {:?} not finite", y.shape()));
                }
                let mut h = Digest::default();
                h.tensor(&y);
                out.digest = h.finish();
            }
            Err(e) => out.errors.push(format!("batch {i}: {e}")),
        }
        out
    }

    fn prefix(&self) -> usize {
        MAPPINGS.len() * self.batches.len()
    }

    fn setup_digest(&mut self) -> u64 {
        state_digest(&mut self.nets)
    }

    fn setup_failures(&self) -> &[String] {
        &self.failures
    }

    fn nets(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.nets
    }

    fn readout_batch(&self) -> Option<(Tensor, QuantReadout)> {
        let x = &self.batches[0];
        let flat = Tensor::from_vec(x.data().to_vec(), &[BATCH, MLP_SIZE * MLP_SIZE])
            .expect("a 20x20 image flattens to 400 features");
        Some((flat, self.mode))
    }

    fn adc8_gap_points(&self) -> f64 {
        self.adc_gap
    }
}
