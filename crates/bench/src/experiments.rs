//! Shared experiment runners behind the figure/table binaries.

use xbar_core::Mapping;
use xbar_data::{DatasetPair, SyntheticCifar, SyntheticMnist};
use xbar_device::DeviceConfig;
use xbar_models::{lenet, resnet20, vgg9, ModelConfig, ModelScale};
use xbar_nn::{
    calibrate, evaluate, evaluate_quantized, train, History, Layer, NnError, QuantReadout,
    Sequential, TrainConfig,
};
use xbar_tensor::backend;
use xbar_tensor::rng::XorShiftRng;

/// Which network architecture an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetKind {
    /// LeNet variant on the synthetic-MNIST task.
    Lenet,
    /// VGG-9 on the synthetic-CIFAR task.
    Vgg9,
    /// ResNet-20 on the synthetic-CIFAR task.
    Resnet20,
}

impl NetKind {
    /// Parses a CLI name (`lenet`, `vgg9`, `resnet20`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "lenet" => Some(Self::Lenet),
            "vgg9" | "vgg" => Some(Self::Vgg9),
            "resnet20" | "resnet" => Some(Self::Resnet20),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Lenet => "LeNet",
            Self::Vgg9 => "VGG-9",
            Self::Resnet20 => "ResNet20",
        }
    }

    /// Input image shape `(c, h, w)` at experiment scale.
    pub fn input(&self) -> (usize, usize, usize) {
        match self {
            Self::Lenet => (1, 16, 16),
            Self::Vgg9 | Self::Resnet20 => (3, 16, 16),
        }
    }
}

/// One of the four model types the paper trains (Sec. IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelType {
    /// Original network with signed FP weights.
    Baseline,
    /// Crossbar-mapped under a mapping.
    Mapped(Mapping),
}

impl ModelType {
    /// The four types, in the paper's legend order.
    pub const ALL: [ModelType; 4] = [
        ModelType::Baseline,
        ModelType::Mapped(Mapping::Acm),
        ModelType::Mapped(Mapping::DoubleElement),
        ModelType::Mapped(Mapping::BiasColumn),
    ];

    /// The mapped types (for quantized sweeps, where the baseline is not
    /// defined): the paper's three plus the permutation remap, appended
    /// last so the paper-ordered prefix (ACM, DE, BC) keeps its indices.
    pub const MAPPED: [ModelType; 4] = [
        ModelType::Mapped(Mapping::Acm),
        ModelType::Mapped(Mapping::DoubleElement),
        ModelType::Mapped(Mapping::BiasColumn),
        ModelType::Mapped(Mapping::Perm),
    ];

    /// Display label ("Baseline", "ACM", "DE", "BC").
    pub fn label(&self) -> &'static str {
        match self {
            Self::Baseline => "Baseline",
            Self::Mapped(m) => m.tag(),
        }
    }
}

/// Common experiment dimensions (dataset size, schedule, scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setup {
    /// Network architecture.
    pub net: NetKind,
    /// Width scale.
    pub scale: ModelScale,
    /// Training samples.
    pub train_n: usize,
    /// Test samples.
    pub test_n: usize,
    /// Epochs per run.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Master seed (data + init + shuffling).
    pub seed: u64,
}

impl Setup {
    /// Default experiment dimensions: small scale, 1500/400 samples,
    /// 12 epochs.
    pub fn new(net: NetKind) -> Self {
        Self {
            net,
            scale: ModelScale::Small,
            train_n: 1500,
            test_n: 400,
            epochs: 12,
            batch: 32,
            lr: 0.08,
            seed: 0xDAC2020,
        }
    }

    /// Generates the dataset pair for this setup's network.
    pub fn data(&self) -> DatasetPair {
        match self.net {
            NetKind::Lenet => SyntheticMnist::builder()
                .train(self.train_n)
                .test(self.test_n)
                .seed(self.seed ^ 0x111)
                .build(),
            NetKind::Vgg9 | NetKind::Resnet20 => SyntheticCifar::builder()
                .train(self.train_n)
                .test(self.test_n)
                .seed(self.seed ^ 0x222)
                .build(),
        }
    }

    /// Builds the network for a model type and device.
    ///
    /// # Errors
    ///
    /// Propagates model-construction errors.
    pub fn build(&self, model: ModelType, device: DeviceConfig) -> Result<Sequential, NnError> {
        let cfg = match model {
            ModelType::Baseline => ModelConfig::baseline().with_seed(self.seed ^ 0x333),
            ModelType::Mapped(m) => ModelConfig::mapped(m, device).with_seed(self.seed ^ 0x333),
        };
        match self.net {
            NetKind::Lenet => lenet(self.net.input(), 10, self.scale, &cfg),
            NetKind::Vgg9 => vgg9(self.net.input(), 10, self.scale, &cfg),
            NetKind::Resnet20 => resnet20(self.net.input(), 10, self.scale, &cfg),
        }
    }

    /// Training configuration for this setup.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch,
            lr: self.lr,
            lr_decay: 0.93,
            seed: self.seed ^ 0x444,
            verbose: false,
            ..TrainConfig::default()
        }
    }

    /// Trains one model type on the setup's data, returning the history.
    ///
    /// # Errors
    ///
    /// Propagates model-construction and training errors.
    pub fn train_model(
        &self,
        model: ModelType,
        device: DeviceConfig,
        data: &DatasetPair,
    ) -> Result<History, NnError> {
        let mut net = self.build(model, device)?;
        train(
            &mut net,
            data.train.as_split(),
            Some(data.test.as_split()),
            &self.train_config(),
        )
    }

    /// Trains and *returns the trained network* along with its history —
    /// used by the variation experiment which keeps inferring afterwards.
    ///
    /// # Errors
    ///
    /// Propagates model-construction and training errors.
    pub fn train_model_keep(
        &self,
        model: ModelType,
        device: DeviceConfig,
        data: &DatasetPair,
    ) -> Result<(Sequential, History), NnError> {
        let mut net = self.build(model, device)?;
        let history = train(
            &mut net,
            data.train.as_split(),
            Some(data.test.as_split()),
            &self.train_config(),
        )?;
        Ok((net, history))
    }
}

/// Weight-update model selection for the precision sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateKind {
    /// Ideal linear pulses (Fig. 5b–d).
    Linear,
    /// Symmetric nonlinear pulses with the given `ν` (Fig. 5f–h).
    Nonlinear(f32),
}

impl UpdateKind {
    /// Builds the device model for this update at `bits` precision.
    pub fn device(&self, bits: u8) -> DeviceConfig {
        match *self {
            Self::Linear => DeviceConfig::quantized_linear(bits),
            Self::Nonlinear(nu) => DeviceConfig::quantized_nonlinear(bits, nu),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Linear => "linear",
            Self::Nonlinear(_) => "nonlinear",
        }
    }
}

/// One point of the Fig. 5b–h sweeps: test error per mapping at one bit
/// width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionPoint {
    /// Weight bit precision.
    pub bits: u8,
    /// Test error (%) for ACM.
    pub acm: f32,
    /// Test error (%) for DE.
    pub de: f32,
    /// Test error (%) for BC.
    pub bc: f32,
    /// Test error (%) for the permutation remap.
    pub perm: f32,
}

/// Runs the Fig. 5b–h experiment: trains ACM/DE/BC at each bit width and
/// reports the best test error reached (mean over `seeds` repetitions —
/// short schedules at small scale are epoch-noisy, so single final-epoch
/// numbers would misrank mappings).
///
/// # Errors
///
/// Propagates training errors.
pub fn run_precision_sweep_seeds(
    setup: &Setup,
    update: UpdateKind,
    bits: impl IntoIterator<Item = u8>,
    seeds: usize,
) -> Result<Vec<PrecisionPoint>, NnError> {
    let seeds = seeds.max(1);
    let mut out = Vec::new();
    for b in bits {
        let device = update.device(b);
        let mut errs = [0.0f32; 4];
        for rep in 0..seeds {
            let mut s = *setup;
            s.seed = setup.seed.wrapping_add(rep as u64 * 0x9E37);
            let data = s.data();
            for (i, model) in ModelType::MAPPED.iter().enumerate() {
                let hist = s.train_model(*model, device, &data)?;
                let err = hist.best_test_acc().map_or(100.0, |a| 100.0 * (1.0 - a));
                errs[i] += err / seeds as f32;
            }
        }
        out.push(PrecisionPoint {
            bits: b,
            acm: errs[0],
            de: errs[1],
            bc: errs[2],
            perm: errs[3],
        });
    }
    Ok(out)
}

/// Single-seed convenience wrapper around [`run_precision_sweep_seeds`].
///
/// # Errors
///
/// Propagates training errors.
pub fn run_precision_sweep(
    setup: &Setup,
    update: UpdateKind,
    bits: impl IntoIterator<Item = u8>,
) -> Result<Vec<PrecisionPoint>, NnError> {
    run_precision_sweep_seeds(setup, update, bits, 1)
}

/// One point of the quantized-inference sweep: the *same trained network*
/// evaluated through fp32-emulated quantized inference and through the
/// int8 integer readout, per mapping. Honest comparison: both columns
/// score the final-epoch weights on the same test split, so the gap is
/// purely the integer path (activation quantization + ADC), not training
/// noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizedPrecisionPoint {
    /// Weight bit precision.
    pub bits: u8,
    /// fp32-emulated test error (%) per mapping, in
    /// [`ModelType::MAPPED`] order (ACM, DE, BC, PERM).
    pub fp32: [f32; 4],
    /// Integer-readout test error (%) in the same order.
    pub int8: [f32; 4],
}

impl QuantizedPrecisionPoint {
    /// Largest |int8 − fp32| error gap across the four mappings, in
    /// percentage points.
    pub fn worst_gap(&self) -> f32 {
        self.fp32
            .iter()
            .zip(&self.int8)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Runs the quantized arm of the Fig. 5 experiment: trains each mapping
/// at each bit width, calibrates activation ranges on the training
/// split, then scores the final network twice — through the fp32
/// emulation and through the int8 integer readout with `mode`'s
/// activation/ADC settings.
///
/// # Errors
///
/// Propagates training/evaluation errors (including unsupported devices
/// — the integer readout needs weight bits ≤ 8).
pub fn run_precision_sweep_quantized(
    setup: &Setup,
    update: UpdateKind,
    bits: impl IntoIterator<Item = u8>,
    mode: &QuantReadout,
) -> Result<Vec<QuantizedPrecisionPoint>, NnError> {
    let data = setup.data();
    let train_split = data.train.as_split();
    let test_split = data.test.as_split();
    // Pin the shard count: `shards: None` resolves against the live thread
    // pool, so the trained weights (and hence both error columns) would vary
    // with XBAR_THREADS. A fixed count keeps the whole sweep — training and
    // the integer readout alike — byte-identical at any thread count, which
    // the CI parity gate relies on.
    let cfg = TrainConfig {
        shards: Some(2),
        ..setup.train_config()
    };
    let mut out = Vec::new();
    for b in bits {
        let device = update.device(b);
        let mut fp32 = [0.0f32; 4];
        let mut int8 = [0.0f32; 4];
        for (i, model) in ModelType::MAPPED.iter().enumerate() {
            let mut net = setup.build(*model, device)?;
            train(
                &mut net,
                data.train.as_split(),
                Some(data.test.as_split()),
                &cfg,
            )?;
            calibrate(&mut net, train_split.x, setup.batch)?;
            let (_, fp_acc) = evaluate(&mut net, test_split.x, test_split.labels, setup.batch)?;
            let (_, q_acc) =
                evaluate_quantized(&mut net, test_split.x, test_split.labels, setup.batch, mode)?;
            fp32[i] = 100.0 * (1.0 - fp_acc);
            int8[i] = 100.0 * (1.0 - q_acc);
        }
        out.push(QuantizedPrecisionPoint {
            bits: b,
            fp32,
            int8,
        });
    }
    Ok(out)
}

/// One Monte-Carlo cell of the Fig. 6 experiment (optionally with the
/// parasitic line-resistance / drift axes of the enlarged grid).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationPoint {
    /// Weight bit precision.
    pub bits: u8,
    /// Device variation σ as a fraction of the conductance range.
    pub sigma: f32,
    /// Per-segment line resistance as a fraction of the device
    /// on-resistance (zero for the classic Fig. 6 grid).
    pub r_line: f32,
    /// Conductance-drift read time in arbitrary retention units (zero
    /// for the classic Fig. 6 grid).
    pub t_drift: u32,
    /// Mean inference accuracy (%) for ACM.
    pub acm: f32,
    /// Mean inference accuracy (%) for DE.
    pub de: f32,
    /// Mean inference accuracy (%) for BC.
    pub bc: f32,
    /// Mean inference accuracy (%) for the permutation remap.
    pub perm: f32,
}

impl VariationPoint {
    /// Mean inference accuracy (%) for `mapping` — lets consumers iterate
    /// [`Mapping::ALL`] instead of naming the per-mapping fields.
    pub fn accuracy(&self, mapping: Mapping) -> f32 {
        match mapping {
            Mapping::Acm => self.acm,
            Mapping::DoubleElement => self.de,
            Mapping::BiasColumn => self.bc,
            Mapping::Perm => self.perm,
        }
    }
}

/// Mean drift exponent ν for the parasitic sweeps: `g(t) = g_min +
/// (g(0) − g_min) · (1 + t)^(−ν)` per cell, with per-device spread
/// [`DRIFT_NU_SIGMA`]. A mid-range published retention figure; the sweep
/// axis is the read time, not ν.
pub const DRIFT_NU_MEAN: f32 = 0.05;

/// Per-device standard deviation of the drift exponent ν.
pub const DRIFT_NU_SIGMA: f32 = 0.02;

/// The drift model every parasitic sweep cell uses: bench-wide ν
/// statistics, a per-chip stream derived from `(seed, sample)`, read at
/// `t_drift`. Inactive (a guaranteed no-op) at `t_drift = 0`.
pub fn drift_model(seed: u64, sample: usize, t_drift: u32) -> xbar_device::DriftModel {
    xbar_device::DriftModel::new(
        DRIFT_NU_MEAN,
        DRIFT_NU_SIGMA,
        (seed ^ 0x777).wrapping_add(sample as u64 * 0x9E37_79B9),
    )
    .at_time(t_drift)
}

/// Trains the three mapped model types (ACM, DE, BC) at `bits` precision
/// on `data`, returning the trained networks in [`ModelType::MAPPED`]
/// order — the per-bit-width setup stage of the Fig. 6 sweep.
///
/// # Errors
///
/// Propagates model-construction and training errors.
pub fn train_mapped_nets(
    setup: &Setup,
    bits: u8,
    data: &DatasetPair,
) -> Result<Vec<Sequential>, NnError> {
    let device = DeviceConfig::quantized_linear(bits);
    let mut nets = Vec::new();
    for model in ModelType::MAPPED {
        let (net, _) = setup.train_model_keep(model, device, data)?;
        nets.push(net);
    }
    Ok(nets)
}

/// The parasitic coordinates of one sweep cell: a line-resistance
/// fraction and a drift read time. `Parasitics::default()` is the
/// degenerate point — both off, reproducing the parasitic-free path
/// bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Parasitics {
    /// Per-segment line resistance as a fraction of the device
    /// on-resistance.
    pub r_line: f32,
    /// Drift read time in arbitrary retention units.
    pub t_drift: u32,
}

impl Parasitics {
    /// The cross product of the two parasitic axes, line resistance
    /// outermost — the order the enlarged sweep grids iterate.
    pub fn grid(rlines: &[f32], times: &[u32]) -> Vec<Parasitics> {
        rlines
            .iter()
            .flat_map(|&r_line| {
                times
                    .iter()
                    .map(move |&t_drift| Parasitics { r_line, t_drift })
            })
            .collect()
    }

    /// Whether both axes sit at the degenerate zero point.
    pub fn is_off(&self) -> bool {
        self.r_line == 0.0 && self.t_drift == 0
    }
}

/// Evaluates one `(bits, sigma, parasitics)` cell of the Fig. 6
/// experiment on already-trained `nets` (from [`train_mapped_nets`]):
/// mean inference accuracy over `samples` Monte-Carlo variation draws per
/// mapping, no fine-tuning. Each chip is also loaded with IR-drop line
/// resistance and read after `t_drift` of conductance drift (per-chip ν
/// stream from [`drift_model`]); at the degenerate
/// `Parasitics::default()` point that pass is a guaranteed no-op.
/// Deterministic given `(setup.seed, bits, sigma, par, samples)` — the
/// per-sample RNG streams are derived from those alone, so a cell can be
/// retried or recomputed in any order with bitwise-identical results.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn run_variation_cell_parasitic(
    setup: &Setup,
    nets: &[Sequential],
    bits: u8,
    sigma: f32,
    par: Parasitics,
    samples: usize,
    data: &DatasetPair,
) -> Result<VariationPoint, NnError> {
    let line = xbar_device::LineResistanceModel::new(par.r_line);
    let mut accs = [0.0f32; 4];
    for (i, net) in nets.iter().enumerate() {
        let mut rng = XorShiftRng::new(setup.seed ^ (bits as u64) << 8 ^ 0x555);
        // Fork every per-sample stream serially (fork advances the
        // parent), then fan the Monte-Carlo draws across the
        // compute pool: each worker task clones the trained net
        // once and runs the apply→evaluate→clear cycle on its own
        // copy. Results come back in sample order and are summed
        // in that order, so the mean is bitwise identical to the
        // serial loop.
        let sample_rngs: Vec<(usize, XorShiftRng)> =
            (0..samples).map(|s| (s, rng.fork(s as u64))).collect();
        let results = backend::parallel_map_with(
            || net.clone(),
            sample_rngs,
            |worker, _idx, (s, mut sample_rng)| {
                worker.visit_mapped(&mut |p| p.apply_variation(sigma, &mut sample_rng));
                let drift = drift_model(setup.seed, s, par.t_drift);
                let mut parasitic = Ok(());
                worker.visit_mapped(&mut |p| {
                    if let Err(e) = p.apply_parasitics(line, drift) {
                        parasitic = Err(e);
                    }
                });
                parasitic?;
                let r = evaluate(
                    worker,
                    data.test.features(),
                    data.test.labels(),
                    setup.batch,
                );
                worker.visit_mapped(&mut |p| p.clear_variation());
                r.map(|(_, acc)| acc)
            },
        );
        let mut total = 0.0f32;
        for r in results {
            total += r?;
        }
        accs[i] = 100.0 * total / samples as f32;
    }
    Ok(VariationPoint {
        bits,
        sigma,
        r_line: par.r_line,
        t_drift: par.t_drift,
        acm: accs[0],
        de: accs[1],
        bc: accs[2],
        perm: accs[3],
    })
}

/// Runs the Fig. 6 experiment: trains each mapping once per bit width,
/// then evaluates inference accuracy under Gaussian device variation
/// (mean over `samples` Monte-Carlo draws per point, no fine-tuning).
///
/// # Errors
///
/// Propagates training/evaluation errors.
pub fn run_variation_sweep(
    setup: &Setup,
    bits: &[u8],
    sigmas: &[f32],
    samples: usize,
) -> Result<Vec<VariationPoint>, NnError> {
    let data = setup.data();
    let mut out = Vec::new();
    for &b in bits {
        let nets = train_mapped_nets(setup, b, &data)?;
        for &sigma in sigmas {
            out.push(run_variation_cell_parasitic(
                setup,
                &nets,
                b,
                sigma,
                Parasitics::default(),
                samples,
                &data,
            )?);
        }
    }
    Ok(out)
}

/// One cell of the fault-injection sweep: accuracy with and without
/// fault-aware remapping at one (stuck-at rate, variation σ,
/// line resistance, drift time) point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPoint {
    /// Total stuck-at rate (fraction of cells, 80/20 off/on split).
    pub rate: f32,
    /// Device variation σ as a fraction of the conductance range.
    pub sigma: f32,
    /// Per-segment line resistance as a fraction of the device
    /// on-resistance (zero for the classic grid).
    pub r_line: f32,
    /// Drift read time in arbitrary retention units (zero for the
    /// classic grid).
    pub t_drift: u32,
    /// Mean inference accuracy (%) programming onto the defective array
    /// as-is.
    pub naive: f32,
    /// Mean inference accuracy (%) with null-space fault remapping.
    pub remapped: f32,
    /// Mean stuck cells per Monte-Carlo sample across the network.
    pub mean_stuck: f32,
}

/// Runs the fault-injection experiment: trains one `mapping`-mapped
/// network at `bits` precision, then for every `(rate, parasitics, σ)`
/// cell programs the trained conductances onto `samples` randomly
/// defective chips — once naively and once with fault-aware null-space
/// remapping — loads each chip with IR-drop line resistance, reads it
/// after `t_drift` of conductance drift (stuck cells are frozen and do not
/// drift), and reports the mean inference accuracy of each arm. Both arms
/// of a sample share the defect pattern *and* the parasitic state, so the
/// comparison stays paired. `&[Parasitics::default()]` gives the classic
/// parasitic-free sweep.
///
/// # Errors
///
/// Propagates training/evaluation errors.
pub fn run_fault_sweep_parasitic(
    setup: &Setup,
    mapping: Mapping,
    bits: u8,
    rates: &[f32],
    sigmas: &[f32],
    parasitics: &[Parasitics],
    samples: usize,
) -> Result<Vec<FaultPoint>, NnError> {
    use xbar_device::FaultModel;
    let data = setup.data();
    let device = DeviceConfig::quantized_linear(bits);
    let (net, _) = setup.train_model_keep(ModelType::Mapped(mapping), device, &data)?;
    let mut out = Vec::new();
    for &rate in rates {
        let model = FaultModel::uniform(rate);
        for &par in parasitics {
            let line = xbar_device::LineResistanceModel::new(par.r_line);
            for &sigma in sigmas {
                // Fan the Monte-Carlo chips across the compute pool: one item
                // per defective chip, both arms evaluated by the same task so
                // they share the worker's cloned net. The per-(sample, arm)
                // RNG is rebuilt from constants exactly as in the serial
                // loop, and the in-order reduction below reproduces its
                // summation order bitwise.
                let results = backend::parallel_map_with(
                    || net.clone(),
                    (0..samples).collect::<Vec<usize>>(),
                    |worker, _idx, s| -> Result<([f32; 2], usize), NnError> {
                        let mut accs = [0.0f32; 2]; // [naive, remapped]
                        let mut stuck_naive = 0usize;
                        let drift = drift_model(setup.seed, s, par.t_drift);
                        for (arm, remap) in [false, true].into_iter().enumerate() {
                            // Re-fork per arm: identical defect pattern for both.
                            let mut rng =
                                XorShiftRng::new(setup.seed ^ u64::from(bits) << 8 ^ 0x666)
                                    .fork(s as u64);
                            let mut stuck = 0usize;
                            let mut result = Ok(());
                            worker.visit_mapped(&mut |p| match p
                                .apply_faults(model, sigma, remap, &mut rng)
                            {
                                Ok((prog, _)) => stuck += prog.num_stuck(),
                                Err(e) => result = Err(e),
                            });
                            result?;
                            let mut parasitic = Ok(());
                            worker.visit_mapped(&mut |p| {
                                if let Err(e) = p.apply_parasitics(line, drift) {
                                    parasitic = Err(e);
                                }
                            });
                            parasitic?;
                            let (_, a) = evaluate(
                                worker,
                                data.test.features(),
                                data.test.labels(),
                                setup.batch,
                            )?;
                            worker.visit_mapped(&mut |p| p.clear_variation());
                            accs[arm] = a;
                            if !remap {
                                stuck_naive = stuck;
                            }
                        }
                        Ok((accs, stuck_naive))
                    },
                );
                let mut acc = [0.0f32; 2];
                let mut stuck_total = 0usize;
                for r in results {
                    let (a, stuck) = r?;
                    acc[0] += a[0];
                    acc[1] += a[1];
                    stuck_total += stuck;
                }
                out.push(FaultPoint {
                    rate,
                    sigma,
                    r_line: par.r_line,
                    t_drift: par.t_drift,
                    naive: 100.0 * acc[0] / samples as f32,
                    remapped: 100.0 * acc[1] / samples as f32,
                    mean_stuck: stuck_total as f32 / samples as f32,
                });
            }
        }
    }
    Ok(out)
}

/// Per-epoch error curves for one model type (Fig. 5a / 5e).
#[derive(Debug, Clone)]
pub struct Fp32Curve {
    /// Model type label.
    pub model: ModelType,
    /// `(train_error_pct, test_error_pct)` per epoch.
    pub errors: Vec<(f32, f32)>,
}

/// Runs the Fig. 5a/5e experiment: all four model types at full precision.
///
/// # Errors
///
/// Propagates training errors.
pub fn run_fp32_curves(setup: &Setup) -> Result<Vec<Fp32Curve>, NnError> {
    let data = setup.data();
    let mut out = Vec::new();
    for model in ModelType::ALL {
        let hist = setup.train_model(model, DeviceConfig::ideal(), &data)?;
        let errors = hist
            .epochs()
            .iter()
            .map(|e| (e.train_error_pct(), e.test_error_pct().unwrap_or(100.0)))
            .collect();
        out.push(Fp32Curve { model, errors });
    }
    Ok(out)
}

/// One scrub epoch of the lifetime (self-healing) study: paired
/// detection-on / detection-off accuracy plus the epoch's health events.
#[derive(Debug, Clone)]
pub struct LifetimePoint {
    /// Scrub epoch (1-based).
    pub epoch: u32,
    /// Inference accuracy (%) of the self-healing arm after this scrub.
    pub detect_acc: f32,
    /// Inference accuracy (%) of the maintenance-free arm (same fault
    /// process, detection and repair bypassed).
    pub baseline_acc: f32,
    /// Lifetime faults that arrived this epoch.
    pub new_faults: usize,
    /// Tiles that newly crossed the detection threshold.
    pub detections: usize,
    /// Repair attempts run this epoch.
    pub repairs: usize,
    /// Total quarantined tiles after this epoch.
    pub quarantined: usize,
    /// Fraction of tiles still served by the analog array.
    pub analog_coverage: f32,
    /// Cells that blew the write-verify retry budget this epoch.
    pub exhausted_cells: usize,
}

/// Result of [`run_lifetime_arm`]: the full accuracy-over-lifetime curve
/// for both arms plus the end-state contracts.
#[derive(Debug, Clone)]
pub struct LifetimeStudy {
    /// Test accuracy (%) right after training, before any wear-out.
    pub trained_acc: f32,
    /// Tiles across the whole network.
    pub total_tiles: usize,
    /// Per-scrub-epoch curve.
    pub points: Vec<LifetimePoint>,
    /// Whether every quarantined tile serves the fault-free quantized
    /// conductances bitwise (the digital-fallback contract).
    pub fallback_parity: bool,
}

/// Runs the self-healing lifetime arm: trains one `mapping`-mapped
/// network on a tiled device whose cells wear out at `rate` per scrub
/// epoch, then ages two clones of the trained chip for `scrub_epochs`
/// epochs — one scrubbed with ABFT detection + staged repair under
/// `policy`, one refresh-programmed blindly — and records the paired
/// accuracy curve plus every detection/repair/quarantine event.
///
/// # Errors
///
/// Propagates training/evaluation errors; rejects an out-of-range fault
/// rate or a network with no scrub-capable parameters.
pub fn run_lifetime_arm(
    setup: &Setup,
    mapping: Mapping,
    bits: u8,
    rate: f32,
    tile: (usize, usize),
    scrub_epochs: u32,
    policy: &xbar_core::RepairPolicy,
) -> Result<LifetimeStudy, NnError> {
    use xbar_device::{LifetimeFaultModel, TileShape};
    use xbar_nn::scrub_network;
    let lifetime = LifetimeFaultModel::new(rate, setup.seed ^ 0x777)
        .map_err(|e| NnError::Config(e.to_string()))?;
    let device = DeviceConfig::quantized_linear(bits)
        .with_tile_shape(Some(TileShape::new(tile.0, tile.1)))
        .with_lifetime_faults(lifetime);
    let data = setup.data();
    let (net, hist) = setup.train_model_keep(ModelType::Mapped(mapping), device, &data)?;
    let trained_acc = 100.0 * hist.final_test_acc().unwrap_or(0.0);

    let mut healed = net.clone();
    let mut blind = net;
    let mut points = Vec::with_capacity(scrub_epochs as usize);
    let mut total_tiles = 0;
    for epoch in 1..=scrub_epochs {
        let rep = scrub_network(&mut healed, true, policy)?.ok_or_else(|| {
            NnError::Config("network has no scrub-capable mapped parameters".into())
        })?;
        scrub_network(&mut blind, false, policy)?;
        let (_, acc_on) = evaluate(
            &mut healed,
            data.test.features(),
            data.test.labels(),
            setup.batch,
        )?;
        let (_, acc_off) = evaluate(
            &mut blind,
            data.test.features(),
            data.test.labels(),
            setup.batch,
        )?;
        total_tiles = rep.total_tiles;
        points.push(LifetimePoint {
            epoch,
            detect_acc: 100.0 * acc_on,
            baseline_acc: 100.0 * acc_off,
            new_faults: rep.new_faults,
            detections: rep.detections,
            repairs: rep.repairs.len(),
            quarantined: rep.quarantined_total,
            analog_coverage: rep.analog_coverage(),
            exhausted_cells: rep.exhausted_cells,
        });
    }
    let mut fallback_parity = true;
    healed.visit_mapped(&mut |p| fallback_parity &= p.scrub_fallback_parity());
    Ok(LifetimeStudy {
        trained_acc,
        total_tiles,
        points,
        fallback_parity,
    })
}

/// Parses the setup flags shared by every experiment binary (`--net`,
/// `--epochs`, `--train`, `--test`, `--lr`, `--seed`, `--tiny`,
/// `--paper-scale`) into a [`Setup`].
///
/// # Errors
///
/// Returns [`BenchError::Usage`](crate::error::BenchError::Usage) on an
/// unknown network name or an unparsable flag value.
pub fn setup_from_args(
    args: &crate::cli::Args,
    default_net: &str,
) -> Result<Setup, crate::error::BenchError> {
    use crate::error::BenchError;
    let net = NetKind::from_name(&args.get_str("net", default_net))
        .ok_or_else(|| BenchError::Usage("--net must be lenet | vgg9 | resnet20".into()))?;
    let mut setup = Setup::new(net);
    setup.epochs = args.try_get("epochs", setup.epochs)?;
    setup.train_n = args.try_get("train", setup.train_n)?;
    setup.test_n = args.try_get("test", setup.test_n)?;
    setup.lr = args.try_get("lr", setup.lr)?;
    setup.seed = args.try_get("seed", setup.seed)?;
    if args.has("paper-scale") {
        setup.scale = ModelScale::Paper;
    } else if args.has("tiny") {
        setup.scale = ModelScale::Tiny;
    }
    Ok(setup)
}

/// Splits `lo..=hi` into the bit widths of a Fig. 5 sweep.
pub fn bit_range(lo: u8, hi: u8) -> Vec<u8> {
    (lo..=hi).collect()
}

/// The default nonlinearity used for the Fig. 5f–h experiments
/// (NeuroSim-style ν = 5, a mid-range published device nonlinearity).
pub const DEFAULT_NU: f32 = 5.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_setup(net: NetKind) -> Setup {
        Setup {
            scale: ModelScale::Tiny,
            train_n: 60,
            test_n: 30,
            epochs: 2,
            batch: 16,
            lr: 0.05,
            ..Setup::new(net)
        }
    }

    #[test]
    fn netkind_parsing() {
        assert_eq!(NetKind::from_name("lenet"), Some(NetKind::Lenet));
        assert_eq!(NetKind::from_name("VGG9"), Some(NetKind::Vgg9));
        assert_eq!(NetKind::from_name("resnet"), Some(NetKind::Resnet20));
        assert_eq!(NetKind::from_name("alexnet"), None);
    }

    #[test]
    fn labels() {
        assert_eq!(ModelType::Baseline.label(), "Baseline");
        assert_eq!(ModelType::Mapped(Mapping::Acm).label(), "ACM");
        assert_eq!(UpdateKind::Linear.name(), "linear");
        assert_eq!(UpdateKind::Nonlinear(5.0).name(), "nonlinear");
    }

    #[test]
    fn update_kind_builds_devices() {
        let d = UpdateKind::Linear.device(4);
        assert!(d.update().is_linear());
        assert_eq!(d.bits(), Some(4));
        let d = UpdateKind::Nonlinear(3.0).device(5);
        assert!(!d.update().is_linear());
    }

    #[test]
    fn smoke_precision_sweep_lenet() {
        let setup = tiny_setup(NetKind::Lenet);
        let points = run_precision_sweep(&setup, UpdateKind::Linear, [4u8]).unwrap();
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert!(p.acm >= 0.0 && p.acm <= 100.0);
        assert!(p.de >= 0.0 && p.bc <= 100.0);
    }

    #[test]
    fn smoke_fp32_curves() {
        let setup = tiny_setup(NetKind::Lenet);
        let curves = run_fp32_curves(&setup).unwrap();
        assert_eq!(curves.len(), 4);
        assert_eq!(curves[0].errors.len(), 2);
    }

    #[test]
    fn smoke_variation_sweep() {
        let setup = tiny_setup(NetKind::Lenet);
        let points = run_variation_sweep(&setup, &[2], &[0.0, 0.2], 2).unwrap();
        assert_eq!(points.len(), 2);
        // Zero variation accuracy should be >= heavy-variation accuracy
        // in expectation... but with 2 samples just check ranges.
        for p in &points {
            assert!(p.acm >= 0.0 && p.acm <= 100.0);
        }
    }

    #[test]
    fn bit_range_is_inclusive() {
        assert_eq!(bit_range(2, 5), vec![2, 3, 4, 5]);
    }

    #[test]
    fn parasitics_grid_crosses_axes_and_flags_the_zero_point() {
        let grid = Parasitics::grid(&[0.0, 0.002], &[0, 1000]);
        assert_eq!(grid.len(), 4);
        assert!(grid[0].is_off());
        assert_eq!(
            grid[1],
            Parasitics {
                r_line: 0.0,
                t_drift: 1000
            }
        );
        assert_eq!(
            grid[3],
            Parasitics {
                r_line: 0.002,
                t_drift: 1000
            }
        );
        assert!(!grid[3].is_off());
    }

    #[test]
    fn degenerate_parasitic_cell_is_bitwise_the_classic_fault_cell() {
        // The acceptance criterion of the enlarged grid: at
        // (R_line = 0, t = 0) every cell reproduces the classic sweep's
        // accuracies bit for bit.
        let setup = tiny_setup(NetKind::Lenet);
        let classic = run_fault_sweep_parasitic(
            &setup,
            Mapping::Acm,
            4,
            &[0.02],
            &[0.0, 0.1],
            &[Parasitics::default()],
            2,
        )
        .unwrap();
        let enlarged = run_fault_sweep_parasitic(
            &setup,
            Mapping::Acm,
            4,
            &[0.02],
            &[0.0, 0.1],
            &[
                Parasitics::default(),
                Parasitics {
                    r_line: 0.005,
                    t_drift: 1000,
                },
            ],
            2,
        )
        .unwrap();
        assert_eq!(classic.len(), 2);
        assert_eq!(enlarged.len(), 4);
        // Cells iterate rate → parasitics → sigma: the degenerate
        // parasitic point holds the first two enlarged cells.
        for (c, e) in classic.iter().zip(&enlarged[..2]) {
            assert_eq!(c.naive, e.naive);
            assert_eq!(c.remapped, e.remapped);
            assert_eq!(c.mean_stuck, e.mean_stuck);
        }
        // The parasitic cells carry their coordinates.
        assert_eq!(enlarged[2].r_line, 0.005);
        assert_eq!(enlarged[2].t_drift, 1000);
    }
}
