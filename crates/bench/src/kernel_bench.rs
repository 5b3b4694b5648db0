//! Criterion-free kernel/e2e benchmark harness behind the
//! `bench_kernels` binary.
//!
//! Measures the rewritten compute kernels against three arms:
//!
//! * **naive** — the seed's original single-threaded kernels, re-created
//!   here verbatim as the reference baseline (GEMM shapes only);
//! * **serial** — the new blocked/SIMD kernels under
//!   [`backend::force_serial`];
//! * **parallel** — the same kernels with the pool enabled.
//!
//! Every entry asserts the determinism contract (`parallel` bitwise equal
//! to `serial`) before timing, and the report carries both the headline
//! `speedup` (naive → parallel, i.e. versus the seed's serial kernels)
//! and `speedup_vs_serial` (threading only). GEMM sizes are drawn from
//! the LeNet/VGG/ResNet layer shapes the trainer actually hits, plus the
//! canonical 256×256×256 square.
//!
//! The `train_step` entry covers the data-parallel trainer end to end: a
//! full sharded epoch (dropout included) against a hand-rolled seed-style
//! epoch, with bitwise serial↔parallel state parity asserted. When run
//! through the `bench_kernels` binary the report also carries per-arm
//! heap-allocation counts (see [`crate::alloc_count`]).

use std::time::Instant;

use xbar_core::Mapping;
use xbar_device::DeviceConfig;
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::{backend, dispatch, linalg, simd_active, Tensor};

/// Benchmark scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tiny sizes for CI: asserts parity on every entry and still
    /// measures the acceptance-criterion 256³ square, in a few seconds.
    Smoke,
    /// The full shape suite including e2e crossbar entries.
    Full,
}

impl Mode {
    /// Mode tag used in the JSON report.
    pub fn tag(&self) -> &'static str {
        match self {
            Mode::Smoke => "smoke",
            Mode::Full => "full",
        }
    }
}

/// One benchmark row.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Entry name, e.g. `matmul_square_256`.
    pub name: String,
    /// Kernel kind (`matmul`, `matmul_tn`, `matmul_nt`, `qmatmul`,
    /// `conv2d`, `quant_mvm`, `train_step`, `sched_bag`).
    pub kind: &'static str,
    /// Human-readable problem dimensions.
    pub dims: String,
    /// Nominal floating-point operations per evaluation.
    pub flops: f64,
    /// Nominal bytes moved per evaluation (operand reads plus result
    /// write), set on quantized entries where memory bandwidth is the
    /// headline metric. `None` elsewhere.
    pub bytes: Option<f64>,
    /// Best-of-reps wall time of the seed's naive kernel, if applicable.
    pub naive_ms: Option<f64>,
    /// Best-of-reps wall time of the new kernels, forced serial.
    pub serial_ms: f64,
    /// Best-of-reps wall time of the new kernels with the pool enabled.
    pub parallel_ms: f64,
    /// Paired serial/parallel ratio: the median of per-rep
    /// `serial/parallel` quotients from interleaved arm sampling (see
    /// `time_arms_ms`). More drift-robust than the quotient of the two
    /// best-of times, whose minima may come from different noise windows.
    pub vs_serial: Option<f64>,
    /// Whether the parallel result was bitwise identical to serial.
    pub parity: bool,
    /// Name of the dispatched GEMM kernel (GEMM entries only).
    pub routine: Option<&'static str>,
    /// Heap `(allocations, bytes)` of one naive evaluation, when the
    /// counting allocator is installed (see [`crate::alloc_count`]).
    pub naive_allocs: Option<(u64, u64)>,
    /// Heap `(allocations, bytes)` of one steady-state serial evaluation.
    pub serial_allocs: Option<(u64, u64)>,
    /// Heap `(allocations, bytes)` of one steady-state parallel evaluation.
    pub parallel_allocs: Option<(u64, u64)>,
    /// Lane occupancy `(fork_join, per_item)` of the scheduler bag
    /// entry: summed per-task busy time divided by `lanes x wall`, one
    /// representative run per arm. `None` for kernel entries.
    pub occupancy: Option<(f64, f64)>,
    /// Makespan ratio of the modeled lane schedules behind `occupancy`
    /// (fork-join over one task per item): the speedup per-item tasks
    /// *would* deliver at the configured lane count if every lane had its
    /// own core. Kept separate from `speedup_vs_serial`, which stays the
    /// honest measured wall-clock ratio — on core-starved CI hosts the
    /// two legitimately disagree.
    pub modeled_speedup: Option<f64>,
}

impl Entry {
    /// Throughput of the parallel arm in GFLOP/s.
    pub fn gflops(&self) -> f64 {
        self.flops / (self.parallel_ms / 1e3) / 1e9
    }

    /// Memory throughput of the parallel arm in GB/s, when the entry
    /// carries a nominal byte count.
    pub fn gbps(&self) -> Option<f64> {
        self.bytes.map(|b| b / (self.parallel_ms / 1e3) / 1e9)
    }

    /// Headline speedup: seed's naive serial kernel → new parallel path.
    pub fn speedup(&self) -> Option<f64> {
        self.naive_ms.map(|n| n / self.parallel_ms)
    }

    /// Threading-only speedup: new kernel serial → parallel. Prefers the
    /// paired-median estimate when the entry was measured with
    /// interleaved arms; falls back to the best-of quotient.
    pub fn speedup_vs_serial(&self) -> f64 {
        self.vs_serial.unwrap_or(self.serial_ms / self.parallel_ms)
    }
}

/// A full benchmark report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Scale the suite ran at.
    pub mode: Mode,
    /// Pool lanes in the parallel arm.
    pub threads: usize,
    /// Whether the SIMD micro-kernel was active.
    pub simd: bool,
    /// All measured entries.
    pub entries: Vec<Entry>,
}

impl Report {
    /// Serializes the report as pretty-printed JSON (hand-rolled — the
    /// workspace is offline and dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"bench\": \"kernels\",\n");
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode.tag()));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"simd\": {},\n", self.simd));
        s.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!("\"name\": \"{}\", ", e.name));
            s.push_str(&format!("\"kind\": \"{}\", ", e.kind));
            s.push_str(&format!("\"dims\": \"{}\", ", e.dims));
            if let Some(naive) = e.naive_ms {
                s.push_str(&format!("\"naive_ms\": {naive:.4}, "));
            }
            s.push_str(&format!("\"serial_ms\": {:.4}, ", e.serial_ms));
            s.push_str(&format!("\"parallel_ms\": {:.4}, ", e.parallel_ms));
            s.push_str(&format!("\"gflops\": {:.3}, ", e.gflops()));
            if let Some(gbps) = e.gbps() {
                s.push_str(&format!("\"gbps\": {gbps:.3}, "));
            }
            if let Some(sp) = e.speedup() {
                s.push_str(&format!("\"speedup\": {sp:.3}, "));
            }
            for (arm, counts) in [
                ("naive", e.naive_allocs),
                ("serial", e.serial_allocs),
                ("parallel", e.parallel_allocs),
            ] {
                if let Some((allocs, bytes)) = counts {
                    s.push_str(&format!(
                        "\"{arm}_allocs\": {allocs}, \"{arm}_alloc_bytes\": {bytes}, "
                    ));
                }
            }
            // Two decimals, like the summary table: the serial and
            // parallel arms run identical kernels when the pool cannot
            // dispatch, so this ratio carries at most ~1% of real signal
            // and extra digits would only serialize sampling noise.
            s.push_str(&format!(
                "\"speedup_vs_serial\": {:.2}, ",
                e.speedup_vs_serial()
            ));
            if let Some((fj, ws)) = e.occupancy {
                s.push_str(&format!(
                    "\"fj_occupancy\": {fj:.3}, \"ws_occupancy\": {ws:.3}, "
                ));
            }
            if let Some(modeled) = e.modeled_speedup {
                s.push_str(&format!("\"modeled_speedup\": {modeled:.3}, "));
            }
            if let Some(routine) = e.routine {
                s.push_str(&format!("\"routine\": \"{routine}\", "));
            }
            s.push_str(&format!("\"parity\": {}", e.parity));
            s.push_str(if i + 1 == self.entries.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Plain-text summary table (one line per entry).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "kernel bench [{}] threads={} simd={}\n",
            self.mode.tag(),
            self.threads,
            self.simd
        );
        for e in &self.entries {
            let speedup = e
                .speedup()
                .map_or_else(|| "    -".into(), |v| format!("{v:5.2}"));
            let allocs = e
                .parallel_allocs
                .map_or_else(String::new, |(a, b)| format!("  {a} allocs/{b} B"));
            let routine = e.routine.map_or_else(String::new, |r| format!("  [{r}]"));
            s.push_str(&format!(
                "  {:<24} {:>18}  {:8.3} ms  {:7.2} GF/s  x{} vs naive  x{:.2} vs serial  parity={}{}{}\n",
                e.name,
                e.dims,
                e.parallel_ms,
                e.gflops(),
                speedup,
                e.speedup_vs_serial(),
                e.parity,
                routine,
                allocs
            ));
        }
        s
    }
}

/// Best-of-`reps` wall time in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = f();
        let dt = t.elapsed().as_secs_f64() * 1e3;
        drop(out);
        if dt < best {
            best = dt;
        }
    }
    best
}

/// Best-of-`reps` wall times of the serial and parallel arms of `f`,
/// plus a paired estimate of the serial/parallel ratio.
///
/// Arms are sampled in adjacent pairs, the order alternating every rep
/// (serial first on even reps, parallel first on odd). Block timing —
/// all serial reps, then all parallel reps later — biases the ratio on
/// hosts whose effective clock drifts over the suite (thermal
/// throttling, frequency governors, noisy neighbours); adjacent pairs
/// share one drift envelope, and the alternation cancels within-pair
/// position effects (cache warmth favouring whichever arm runs second).
/// The returned ratio is the median of the per-pair quotients — a paired
/// estimator that stays centred even when the best-of floors land in
/// different noise windows — while the per-arm times remain classic
/// best-of. Leaves the process in pooled (parallel) mode.
fn time_arms_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, f64, f64) {
    let mut serial = f64::MAX;
    let mut parallel = f64::MAX;
    let mut ratios = Vec::with_capacity(reps.max(1));
    let mut one_arm = |serial_mode: bool| {
        backend::force_serial(serial_mode);
        let t = Instant::now();
        let out = f();
        let dt = t.elapsed().as_secs_f64() * 1e3;
        drop(out);
        dt
    };
    for rep in 0..reps.max(1) {
        let (s, p) = if rep % 2 == 0 {
            let s = one_arm(true);
            let p = one_arm(false);
            (s, p)
        } else {
            let p = one_arm(false);
            let s = one_arm(true);
            (s, p)
        };
        serial = serial.min(s);
        parallel = parallel.min(p);
        ratios.push(s / p);
    }
    backend::force_serial(false);
    ratios.sort_by(f64::total_cmp);
    let vs_serial = ratios[ratios.len() / 2];
    (serial, parallel, vs_serial)
}

/// Heap `(allocations, bytes)` of one evaluation of `f`, or `None` when
/// the counting allocator is not installed (library tests).
///
/// Call *after* the timed reps so the scratch pool is warm — the number
/// reported is the steady-state hot-path cost, not first-touch growth.
fn arm_allocs<T>(mut f: impl FnMut() -> T) -> Option<(u64, u64)> {
    if !crate::alloc_count::installed() {
        return None;
    }
    let (a0, b0) = crate::alloc_count::snapshot();
    let out = f();
    let (a1, b1) = crate::alloc_count::snapshot();
    drop(out);
    Some((a1 - a0, b1 - b0))
}

/// The seed repository's original `matmul` kernel (`ikj`, zero-skip),
/// preserved as the performance baseline.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut od[i * n..(i + 1) * n];
        for (p, &aval) in arow.iter().enumerate() {
            if aval == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bval) in orow.iter_mut().zip(brow) {
                *o += aval * bval;
            }
        }
    }
    out
}

/// The seed's original `matmul_nt` kernel (scalar-accumulator dot loop).
fn naive_matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[0];
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0_f32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            od[i * n + j] = acc;
        }
    }
    out
}

/// The seed's original `matmul_tn` kernel (shared-dim-major, zero-skip).
fn naive_matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    for p in 0..k {
        let arow = &ad[p * m..(p + 1) * m];
        let brow = &bd[p * n..(p + 1) * n];
        for (i, &aval) in arow.iter().enumerate() {
            if aval == 0.0 {
                continue;
            }
            let orow = &mut od[i * n..(i + 1) * n];
            for (o, &bval) in orow.iter_mut().zip(brow) {
                *o += aval * bval;
            }
        }
    }
    out
}

/// Runs one GEMM-variant entry: parity check, then naive / serial /
/// parallel timings.
fn gemm_entry(
    name: &str,
    kind: &'static str,
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
    seed: u64,
) -> Entry {
    // Small problems finish in micro- to sub-milliseconds, where scheduler
    // noise swamps the signal (the 0.90x matmul_tn_smoke artefact of an
    // earlier report was exactly this); give them proportionally more reps
    // so best-of converges. Tiered so the cheaper the rep, the more
    // samples it gets: every boosted entry still costs the suite well
    // under a second.
    let macs = m * k * n;
    let reps = if macs < (1 << 21) {
        reps * 30
    } else if macs < (1 << 25) {
        reps * 10
    } else {
        reps
    };
    let mut rng = XorShiftRng::new(seed);
    let (a_shape, b_shape): ([usize; 2], [usize; 2]) = match kind {
        "matmul" => ([m, k], [k, n]),
        "matmul_tn" => ([k, m], [k, n]),
        "matmul_nt" => ([m, k], [n, k]),
        other => unreachable!("unknown GEMM kind {other}"),
    };
    let a = Tensor::rand_normal(&a_shape, 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal(&b_shape, 0.0, 1.0, &mut rng);
    let run = |a: &Tensor, b: &Tensor| match kind {
        "matmul" => linalg::matmul(a, b).unwrap(),
        "matmul_tn" => linalg::matmul_tn(a, b).unwrap(),
        "matmul_nt" => linalg::matmul_nt(a, b).unwrap(),
        other => unreachable!("unknown GEMM kind {other}"),
    };
    let naive = |a: &Tensor, b: &Tensor| match kind {
        "matmul" => naive_matmul(a, b),
        "matmul_tn" => naive_matmul_tn(a, b),
        "matmul_nt" => naive_matmul_nt(a, b),
        other => unreachable!("unknown GEMM kind {other}"),
    };

    backend::force_serial(true);
    let serial_out = run(&a, &b);
    backend::force_serial(false);
    let parallel_out = run(&a, &b);
    let parity = serial_out.data() == parallel_out.data();
    assert!(parity, "{name}: parallel result diverged from serial");

    let (serial_ms, parallel_ms, vs_serial) = time_arms_ms(reps, || run(&a, &b));
    backend::force_serial(true);
    let serial_allocs = arm_allocs(|| run(&a, &b));
    let naive_ms = time_ms(reps, || naive(&a, &b));
    let naive_allocs = arm_allocs(|| naive(&a, &b));
    backend::force_serial(false);
    let parallel_allocs = arm_allocs(|| run(&a, &b));
    let routine = selection_for_kind(kind, m, k, n);
    Entry {
        name: name.to_string(),
        kind,
        dims: format!("{m}x{k}x{n}"),
        flops: 2.0 * (m * k * n) as f64,
        bytes: None,
        naive_ms: Some(naive_ms),
        serial_ms,
        parallel_ms,
        vs_serial: Some(vs_serial),
        parity,
        routine: Some(routine),
        naive_allocs,
        serial_allocs,
        parallel_allocs,
        occupancy: None,
        modeled_speedup: None,
    }
}

/// Runs an int8 GEMM entry: [`xbar_tensor::qgemm::qgemm_nt`], the GEMM
/// every tile of the crossbar's integer readout runs, on 7-bit affine
/// activation codes × centred 8-bit state codes, against the fp32 kernel
/// on the same shape.
///
/// The fp32 arm lands in the `naive_ms` slot so the reported `speedup`
/// reads as "fp32 kernel → int8 kernel" — both arms run with the pool
/// enabled, so the ratio isolates the datatype, not threading. Before
/// timing, the entry asserts the kernel's i32 output bit for bit against
/// an exact integer reference, and the usual bitwise serial↔parallel
/// contract. `bytes` counts the operand reads plus the i32 result write,
/// giving the bandwidth headline `gbps()`.
fn qmatmul_entry(name: &str, m: usize, k: usize, n: usize, reps: usize, seed: u64) -> Entry {
    use xbar_tensor::{qgemm, scratch, QuantizedTensor};

    let mut rng = XorShiftRng::new(seed);
    let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
    let qa = QuantizedTensor::quantize_affine(&a, 7);
    // Centred state codes `index − 2^(B−1)` of an 8-bit device: all of i8.
    let b: Vec<i8> = (0..n * k).map(|_| rng.below(256) as u8 as i8).collect();
    let b_f32 = Tensor::from_vec(b.iter().map(|&c| f32::from(c)).collect(), &[n, k]).unwrap();
    let run = || {
        let mut out = scratch::take_filled_i32(m * n, 0);
        qgemm::qgemm_nt(qa.as_unsigned(), &b, &mut out, m, k, n);
        out
    };
    // Timed runs park each output in the pool, as the readout does with
    // its accumulators.
    let pooled = || scratch::give_i32(run());

    backend::force_serial(true);
    let serial_out = run();
    backend::force_serial(false);
    let parallel_out = run();
    let parity = serial_out == parallel_out;
    assert!(parity, "{name}: parallel int8 result diverged from serial");
    let codes = qa.as_unsigned();
    let exact: Vec<i32> = (0..m * n)
        .map(|ij| {
            let (ar, br) = (&codes[ij / n * k..][..k], &b[ij % n * k..][..k]);
            let dot: i64 = ar
                .iter()
                .zip(br)
                .map(|(&x, &y)| i64::from(x) * i64::from(y))
                .sum();
            i32::try_from(dot).expect("exact sum fits i32")
        })
        .collect();
    assert!(
        serial_out == exact,
        "{name}: int8 kernel diverged from the exact integer product"
    );

    let (serial_ms, parallel_ms, vs_serial) = time_arms_ms(reps, pooled);
    // fp32 arm, pool enabled (time_arms_ms leaves the process pooled).
    let fp32_ms = time_ms(reps, || linalg::matmul_nt(&a, &b_f32).unwrap());
    let naive_allocs = arm_allocs(|| linalg::matmul_nt(&a, &b_f32).unwrap());
    let parallel_allocs = arm_allocs(pooled);
    backend::force_serial(true);
    let serial_allocs = arm_allocs(pooled);
    backend::force_serial(false);
    let routine = dispatch::q_selection_for(m, k, n);
    Entry {
        name: name.to_string(),
        kind: "qmatmul",
        dims: format!("{m}x{k}x{n}"),
        flops: 2.0 * (m * k * n) as f64,
        // u8 activation codes + i8 state codes + i32 result.
        bytes: Some((m * k + n * k + 4 * m * n) as f64),
        naive_ms: Some(fp32_ms),
        serial_ms,
        parallel_ms,
        vs_serial: Some(vs_serial),
        parity,
        routine: Some(routine),
        naive_allocs,
        serial_allocs,
        parallel_allocs,
        occupancy: None,
        modeled_speedup: None,
    }
}

/// The `(trans_a, trans_b)` flags of a GEMM kind.
fn transposes(kind: &str) -> (bool, bool) {
    match kind {
        "matmul" => (false, false),
        "matmul_tn" => (true, false),
        "matmul_nt" => (false, true),
        other => unreachable!("unknown GEMM kind {other}"),
    }
}

/// Name of the kernel the dispatch rule runs for a GEMM kind/shape.
fn selection_for_kind(kind: &str, m: usize, k: usize, n: usize) -> &'static str {
    let (trans_a, trans_b) = transposes(kind);
    dispatch::selection_for(trans_a, trans_b, m, k, n)
}

/// Runs a serial/parallel e2e entry (no naive arm).
fn e2e_entry<T: PartialEq>(
    name: &str,
    kind: &'static str,
    dims: String,
    flops: f64,
    reps: usize,
    run: impl Fn() -> T,
) -> Entry {
    backend::force_serial(true);
    let serial_out = run();
    backend::force_serial(false);
    let parallel_out = run();
    let parity = serial_out == parallel_out;
    assert!(parity, "{name}: parallel result diverged from serial");

    let (serial_ms, parallel_ms, vs_serial) = time_arms_ms(reps, &run);
    backend::force_serial(true);
    let serial_allocs = arm_allocs(&run);
    backend::force_serial(false);
    let parallel_allocs = arm_allocs(&run);
    Entry {
        name: name.to_string(),
        kind,
        dims,
        flops,
        bytes: None,
        naive_ms: None,
        serial_ms,
        parallel_ms,
        vs_serial: Some(vs_serial),
        parity,
        routine: None,
        naive_allocs: None,
        serial_allocs,
        parallel_allocs,
        occupancy: None,
        modeled_speedup: None,
    }
}

/// Pre-initialized weights for [`naive_train_epoch`], built once so the
/// timed region covers training only (mirroring how the optimized arm
/// restores a snapshot instead of re-initializing).
struct NaiveMlp {
    w1: Tensor,
    b1: Vec<f32>,
    w2: Tensor,
    b2: Vec<f32>,
}

impl NaiveMlp {
    fn new(d_in: usize, d_h: usize, classes: usize) -> Self {
        let mut rng = XorShiftRng::new(97);
        Self {
            w1: Tensor::rand_normal(&[d_h, d_in], 0.0, (2.0 / d_in as f32).sqrt(), &mut rng),
            b1: vec![0.0f32; d_h],
            w2: Tensor::rand_normal(&[classes, d_h], 0.0, (2.0 / d_h as f32).sqrt(), &mut rng),
            b2: vec![0.0f32; classes],
        }
    }
}

/// One seed-style training epoch over an MLP, re-creating what the
/// pre-rewrite trainer did per step: gather into a fresh batch tensor,
/// forward with modulo-indexed bias adds, dropout mask drawn per
/// activation, full backward *including* the first layer's input gradient
/// (`Sequential::backward` always produced it), batch accuracy, and SGD
/// with freshly allocated buffers throughout — all on the naive GEMM
/// kernels above. The baseline the data-parallel trainer is measured
/// against.
///
/// Returns `(last loss, accuracy sum)` so the work cannot be optimized
/// away.
fn naive_train_epoch(x: &Tensor, labels: &[usize], init: &NaiveMlp, batch: usize, lr: f32) -> f32 {
    let n = x.shape()[0];
    let (d_h, d_in) = (init.w1.shape()[0], init.w1.shape()[1]);
    let classes = init.w2.shape()[0];
    let mut w1 = init.w1.clone();
    let mut b1 = init.b1.clone();
    let mut w2 = init.w2.clone();
    let mut b2 = init.b2.clone();
    let mut dropout_rng = XorShiftRng::new(64);
    let (keep, scale) = (0.9f32, 1.0 / 0.9f32);
    let mut last_loss = 0.0f32;
    let mut acc_hits = 0usize;
    let order: Vec<usize> = (0..n).collect();
    for chunk in order.chunks(batch) {
        let bsz = chunk.len();
        let mut xb = Tensor::zeros(&[bsz, d_in]);
        for (r, &i) in chunk.iter().enumerate() {
            xb.data_mut()[r * d_in..(r + 1) * d_in]
                .copy_from_slice(&x.data()[i * d_in..(i + 1) * d_in]);
        }
        // Forward: h = dropout(relu(x·W1ᵀ + b1)), logits = h·W2ᵀ + b2.
        let mut h = naive_matmul_nt(&xb, &w1);
        for (i, v) in h.data_mut().iter_mut().enumerate() {
            *v = (*v + b1[i % d_h]).max(0.0);
        }
        let mask: Vec<f32> = (0..h.len())
            .map(|_| {
                if dropout_rng.next_f32() < keep {
                    scale
                } else {
                    0.0
                }
            })
            .collect();
        for (v, &m) in h.data_mut().iter_mut().zip(&mask) {
            *v *= m;
        }
        let mut logits = naive_matmul_nt(&h, &w2);
        for (i, v) in logits.data_mut().iter_mut().enumerate() {
            *v += b2[i % classes];
        }
        // Softmax cross-entropy loss/grad and batch accuracy.
        let mut g = Tensor::zeros(&[bsz, classes]);
        let mut loss = 0.0f32;
        for r in 0..bsz {
            let label = labels[chunk[r]];
            let row = &logits.data()[r * classes..(r + 1) * classes];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let argmax = (0..classes)
                .max_by(|&a, &b| row[a].total_cmp(&row[b]))
                .unwrap();
            acc_hits += usize::from(argmax == label);
            let exp_sum: f32 = row.iter().map(|&v| (v - max).exp()).sum();
            loss += exp_sum.ln() + max - row[label];
            let gr = &mut g.data_mut()[r * classes..(r + 1) * classes];
            for (j, gv) in gr.iter_mut().enumerate() {
                let p = (row[j] - max).exp() / exp_sum;
                *gv = (p - if j == label { 1.0 } else { 0.0 }) / bsz as f32;
            }
        }
        last_loss = loss / bsz as f32;
        // Backward + SGD.
        let gw2 = naive_matmul_tn(&g, &h);
        for (j, bv) in b2.iter_mut().enumerate() {
            let gb: f32 = (0..bsz).map(|r| g.data()[r * classes + j]).sum();
            *bv -= lr * gb;
        }
        let mut gh = naive_matmul(&g, &w2);
        for (gv, &m) in gh.data_mut().iter_mut().zip(&mask) {
            *gv *= m;
        }
        for (gv, &hv) in gh.data_mut().iter_mut().zip(h.data()) {
            // relu mask; dropped units already zeroed by the mask multiply.
            if hv <= 0.0 {
                *gv = 0.0;
            }
        }
        let gw1 = naive_matmul_tn(&gh, &xb);
        for (j, bv) in b1.iter_mut().enumerate() {
            let gb: f32 = (0..bsz).map(|r| gh.data()[r * d_h + j]).sum();
            *bv -= lr * gb;
        }
        // dx through the first layer — the seed's Sequential::backward
        // always computed it, so the baseline pays for it too.
        let dx = naive_matmul(&gh, &w1);
        std::hint::black_box(dx.data().len());
        for (w, &gv) in w2.data_mut().iter_mut().zip(gw2.data()) {
            *w -= lr * gv;
        }
        for (w, &gv) in w1.data_mut().iter_mut().zip(gw1.data()) {
            *w -= lr * gv;
        }
    }
    last_loss + acc_hits as f32
}

/// Bitwise equality of two collected network states (tensor payloads
/// compared via `f32::to_bits`, RNG registers exactly).
fn state_eq(a: &[xbar_nn::persist::StateItem], b: &[xbar_nn::persist::StateItem]) -> bool {
    use xbar_nn::persist::StateItem;
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (
                StateItem::Tensor {
                    name: na,
                    value: va,
                },
                StateItem::Tensor {
                    name: nb,
                    value: vb,
                },
            ) => {
                na == nb
                    && va.shape() == vb.shape()
                    && va
                        .data()
                        .iter()
                        .zip(vb.data())
                        .all(|(p, q)| p.to_bits() == q.to_bits())
            }
            (
                StateItem::Rng {
                    name: na,
                    value: va,
                },
                StateItem::Rng {
                    name: nb,
                    value: vb,
                },
            ) => na == nb && va == vb,
            _ => false,
        })
}

/// Times one epoch of data-parallel training (`shards = 4`, dropout in
/// the net so RNG forking is on the measured path) against the naive
/// seed-style epoch, asserting that serial and parallel execution of the
/// sharded trainer leave bitwise-identical state behind.
fn train_step_entry(mode: Mode, reps: usize) -> Entry {
    use std::cell::RefCell;
    use xbar_nn::{
        persist, train, Dense, Dropout, Relu, Sequential, Split, TrainConfig, WeightKind,
    };

    // One epoch churns ~15 MB of tensor buffers; the first few reps run
    // against a cold allocator (glibc serves the large blocks via mmap
    // until its dynamic threshold adapts) and measure page faults, not
    // training. Enough reps push every arm past that into the warm steady
    // state, and give best-of a clean sample on oversubscribed hosts
    // where the parallel arm's wall time is scheduler-noisy.
    let reps = reps.max(16);

    // Sized so the per-step GEMMs dominate the epoch (at toy widths the
    // fixed trainer bookkeeping hides the kernel difference entirely);
    // batch 64 keeps the 16-row shard GEMMs out of the overhead-bound
    // regime.
    let (samples, d_in, d_h, classes, batch) = match mode {
        Mode::Smoke => (128, 256, 512, 10, 128),
        Mode::Full => (256, 256, 512, 10, 128),
    };
    let mut rng = XorShiftRng::new(61);
    let x = Tensor::rand_normal(&[samples, d_in], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..samples).map(|_| rng.below(classes)).collect();
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: batch,
        lr: 0.05,
        lr_decay: 1.0,
        seed: 62,
        shards: Some(4),
        ..TrainConfig::default()
    };
    // Build the net once and snapshot its initial state; every timed rep
    // restores the snapshot instead of re-running He init, so the arms
    // time *training*, not weight initialization.
    let mut init_rng = XorShiftRng::new(63);
    let mut built = Sequential::new();
    built.push(
        Dense::new(
            d_in,
            d_h,
            WeightKind::Signed,
            DeviceConfig::ideal(),
            &mut init_rng,
        )
        .unwrap(),
    );
    built.push(Relu::new());
    built.push(Dropout::new(0.1, 64));
    built.push(
        Dense::new(
            d_h,
            classes,
            WeightKind::Signed,
            DeviceConfig::ideal(),
            &mut init_rng,
        )
        .unwrap(),
    );
    let init_state = persist::collect_state(&mut built);
    let net = RefCell::new(built);
    let run = || {
        let mut net = net.borrow_mut();
        persist::restore_state(&mut *net, &init_state).unwrap();
        train(&mut *net, Split::new(&x, &labels).unwrap(), None, &cfg).unwrap();
        persist::collect_state(&mut *net)
    };
    let naive_init = NaiveMlp::new(d_in, d_h, classes);
    let naive = || naive_train_epoch(&x, &labels, &naive_init, batch, cfg.lr);

    backend::force_serial(true);
    let serial_out = run();
    backend::force_serial(false);
    let parallel_out = run();
    let parity = state_eq(&serial_out, &parallel_out);
    assert!(parity, "train_step: parallel training diverged from serial");

    let (serial_ms, parallel_ms, vs_serial) = time_arms_ms(reps, &run);
    backend::force_serial(true);
    let serial_allocs = arm_allocs(&run);
    let naive_ms = time_ms(reps, &naive);
    let naive_allocs = arm_allocs(&naive);
    backend::force_serial(false);
    let parallel_allocs = arm_allocs(&run);

    let steps = samples.div_ceil(batch);
    Entry {
        name: "train_step".to_string(),
        kind: "train_step",
        dims: format!("mlp {d_in}-{d_h}-{classes} x{steps}@{batch}"),
        // 3 GEMM passes (fwd, dW, dx) per layer per epoch.
        flops: 6.0 * (samples * (d_in * d_h + d_h * classes)) as f64,
        bytes: None,
        naive_ms: Some(naive_ms),
        serial_ms,
        parallel_ms,
        vs_serial: Some(vs_serial),
        parity,
        routine: None,
        naive_allocs,
        serial_allocs,
        parallel_allocs,
        occupancy: None,
        modeled_speedup: None,
    }
}

/// Times a heterogeneous power-of-two task bag under static fork-join
/// chunking against one queued task per item.
///
/// The *fork-join* arm splits the bag into one contiguous group per pool
/// lane — a static partition, where a group is one indivisible task and
/// the lane that draws the heavy tail becomes the critical path. The
/// *per-item* arm submits one task per bag item through
/// [`backend::ordered_stream`], so each lane takes the next item off the
/// pool's FIFO queue as soon as it is free and the bag balances. Both
/// arms run identical floating-point churn per item and must commit
/// bitwise-identical outputs.
///
/// Measured wall times go in the usual slots (fork-join in `naive_ms`,
/// per-item in `serial_ms`/`parallel_ms`). Lane *occupancy* is derived
/// from per-task busy times scheduled onto `backend::threads()` lanes —
/// static contiguous chunks for fork-join, greedy earliest-free-lane (what
/// a shared FIFO queue gives when every lane takes the next task the
/// moment it is free) for per-item — as `total_busy / (lanes ×
/// makespan)`. Deriving occupancy from the schedule model rather than
/// measured wall keeps the metric meaningful on core-starved CI hosts,
/// where both arms serialize onto one physical CPU and wall-clock
/// occupancy would degenerate to `1/lanes` for every scheduler; the
/// `per_item/fork_join` occupancy ratio equals the modeled makespan
/// speedup at the configured lane count.
fn sched_bag_entry(mode: Mode, reps: usize) -> Entry {
    use std::sync::atomic::{AtomicU64, Ordering};

    // Power-of-two sizes, sorted ascending so a contiguous split hands
    // the whole heavy tail to the last lane — the adversarial-but-common
    // shape for static partitions (tile grids and sweep cells are sorted
    // by construction too).
    let (n_tasks, max_pow, unit) = match mode {
        Mode::Smoke => (48usize, 6u32, 2_000usize),
        Mode::Full => (96, 7, 8_000),
    };
    let sizes: Vec<usize> = {
        let mut v: Vec<usize> = (0..n_tasks)
            .map(|i| 1usize << (i as u32 % (max_pow + 1)))
            .collect();
        v.sort_unstable();
        v
    };
    let total_iters: usize = sizes.iter().map(|s| s * unit).sum();
    // Deterministic float churn whose result feeds the output buffer, so
    // neither arm can have its loop optimized away.
    let work = |idx: usize, iters: usize| -> f32 {
        let mut acc = (idx as f32).mul_add(0.618_034, 1.0);
        for i in 0..iters as u32 {
            let x = (i.wrapping_mul(2_654_435_761) >> 16) as f32;
            acc = acc.mul_add(0.999_999, x * 1e-7);
        }
        acc
    };
    // Per-task busy times, written by whichever arm ran a task last.
    // Indices are unique within a run, so plain stores suffice.
    let busy_ns: Vec<AtomicU64> = (0..sizes.len()).map(|_| AtomicU64::new(0)).collect();
    let timed_work = |idx: usize, iters: usize| -> f32 {
        let t = Instant::now();
        let v = work(idx, iters);
        busy_ns[idx].store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        v
    };
    let lanes = backend::threads().max(1);
    let fork_join = || -> Vec<f32> {
        let chunk = sizes.len().div_ceil(lanes);
        let groups: Vec<(usize, &[usize])> = sizes.chunks(chunk).enumerate().collect();
        backend::parallel_map(groups, |_, (g, group)| {
            group
                .iter()
                .enumerate()
                .map(|(j, &s)| timed_work(g * chunk + j, s * unit))
                .collect::<Vec<f32>>()
        })
        .into_iter()
        .flatten()
        .collect()
    };
    let per_item = || -> Vec<f32> {
        let mut out = vec![0.0f32; sizes.len()];
        backend::ordered_stream(
            sizes.clone(),
            |i, s| timed_work(i, s * unit),
            |i, v| out[i] = v,
        );
        out
    };

    backend::force_serial(true);
    let serial_out = per_item();
    backend::force_serial(false);
    let parallel_out = per_item();
    let fj_out = fork_join();
    let parity = serial_out == parallel_out && serial_out == fj_out;
    assert!(parity, "sched_bag: arms diverged");

    let (serial_ms, parallel_ms, vs_serial) = time_arms_ms(reps, &per_item);
    let naive_ms = time_ms(reps, &fork_join);

    // Re-measure task busy times once, contention-free, then schedule
    // that one profile under both disciplines at `lanes` lanes.
    backend::force_serial(true);
    let _ = per_item();
    backend::force_serial(false);
    let busy: Vec<u64> = busy_ns.iter().map(|b| b.load(Ordering::Relaxed)).collect();
    let total_busy: u64 = busy.iter().sum();
    let chunk = busy.len().div_ceil(lanes);
    let fj_makespan = busy
        .chunks(chunk)
        .map(|c| c.iter().sum::<u64>())
        .max()
        .unwrap_or(0);
    let mut lane_free = vec![0u64; lanes];
    for &b in &busy {
        // Earliest-free lane takes the next submitted task.
        let l = (0..lanes).min_by_key(|&l| lane_free[l]).unwrap_or(0);
        lane_free[l] += b;
    }
    let ws_makespan = lane_free.into_iter().max().unwrap_or(0);
    let occ = |makespan: u64| total_busy as f64 / (lanes as f64 * makespan.max(1) as f64);
    let (fj_occ, ws_occ) = (occ(fj_makespan), occ(ws_makespan));

    Entry {
        name: "sched_bag".to_string(),
        kind: "sched_bag",
        dims: format!("{n_tasks} tasks 1..{}x{unit} iters", 1usize << max_pow),
        // One fused multiply-add per iteration.
        flops: 2.0 * total_iters as f64,
        bytes: None,
        naive_ms: Some(naive_ms),
        serial_ms,
        parallel_ms,
        vs_serial: Some(vs_serial),
        parity,
        routine: None,
        naive_allocs: None,
        serial_allocs: None,
        parallel_allocs: None,
        occupancy: Some((fj_occ, ws_occ)),
        modeled_speedup: Some(fj_makespan as f64 / ws_makespan.max(1) as f64),
    }
}

/// The GEMM shapes of the suite as `(name, kind, m, k, n, seed)` rows.
pub fn gemm_shapes(mode: Mode) -> Vec<(&'static str, &'static str, usize, usize, usize, u64)> {
    // The 256³ square is measured in BOTH modes: it carries the repo's
    // headline acceptance number, and smoke runs overwrite the JSON.
    let mut shapes = vec![("matmul_square_256", "matmul", 256, 256, 256, 11u64)];
    match mode {
        Mode::Smoke => {
            shapes.push(("matmul_smoke_odd", "matmul", 33, 65, 17, 12));
            shapes.push(("matmul_nt_smoke", "matmul_nt", 64, 64, 64, 13));
            shapes.push(("matmul_tn_smoke", "matmul_tn", 64, 64, 64, 14));
        }
        Mode::Full => {
            shapes.push(("matmul_tn_square_256", "matmul_tn", 256, 256, 256, 15));
            shapes.push(("matmul_nt_square_256", "matmul_nt", 256, 256, 256, 16));
            // LeNet fc1 forward at batch 32.
            shapes.push(("lenet_fc1_gemm", "matmul_nt", 32, 400, 120, 18));
            // Dense backward weight gradient (xᵀ·dy) shape.
            shapes.push(("dense_bwd_gemm", "matmul_tn", 400, 32, 120, 21));
        }
    }
    shapes
}

/// Runs the benchmark suite at `mode` scale.
pub fn run(mode: Mode) -> Report {
    let reps = match mode {
        Mode::Smoke => 3,
        Mode::Full => 7,
    };
    let mut entries = Vec::new();

    for (name, kind, m, k, n, seed) in gemm_shapes(mode) {
        entries.push(gemm_entry(name, kind, m, k, n, reps, seed));
    }

    // Int8 GEMM on the headline square: measured in both modes, like its
    // fp32 counterpart, since it carries the quantized-path acceptance
    // number (int8 at least 2x the fp32 kernel).
    entries.push(qmatmul_entry("qmatmul_square_256", 256, 256, 256, reps, 23));
    if mode == Mode::Full {
        // LeNet fc1 forward at batch 32, quantized.
        entries.push(qmatmul_entry("qmatmul_lenet_fc1", 32, 400, 120, reps, 24));
    }

    // E2E: conv2d forward (per-sample patch gather + channel-major GEMM).
    {
        use xbar_tensor::conv::{conv2d_forward, ConvGeometry};
        let (batch, in_c, hw, out_c) = match mode {
            Mode::Smoke => (4, 3, 8, 8),
            Mode::Full => (32, 64, 8, 128),
        };
        let geom = ConvGeometry::new(hw, hw, 3, 3, 1, 1).expect("3x3 same conv fits");
        let mut rng = XorShiftRng::new(31);
        let input = Tensor::rand_normal(&[batch, in_c, hw, hw], 0.0, 1.0, &mut rng);
        let weight = Tensor::rand_normal(&[out_c, in_c * 9], 0.0, 1.0, &mut rng);
        let flops = 2.0 * (batch * geom.out_h * geom.out_w * out_c * in_c * 9) as f64;
        entries.push(e2e_entry(
            "conv2d_forward",
            "conv2d",
            format!("{batch}x{in_c}x{hw}x{hw}->{out_c}"),
            flops,
            reps,
            || conv2d_forward(&input, &weight, &geom).unwrap(),
        ));
    }

    // E2E: tiled crossbar inference through a mapped parameter's integer
    // ADC-exact readout. Serial and parallel must agree *bitwise*
    // (asserted by `e2e_entry` — integer tile accumulation commits in
    // submission order), and the quantized output must track the fp32
    // forward of the same weights on the identically quantized input. The
    // parameter keeps its readout image between calls, so the timed arm
    // is the per-batch readout a workload pays.
    {
        use std::cell::RefCell;
        use xbar_core::{QuantReadout, TileShape};
        use xbar_nn::{MappedParam, WeightKind};
        use xbar_tensor::QuantizedTensor;
        let (n_out, n_in, batch, tile) = match mode {
            Mode::Smoke => (16, 32, 8, TileShape::new(8, 8)),
            Mode::Full => (128, 256, 64, TileShape::new(64, 64)),
        };
        let mut rng = XorShiftRng::new(47);
        let w = Tensor::rand_uniform(&[n_out, n_in], -0.02, 0.02, &mut rng);
        let x = Tensor::rand_uniform(&[batch, n_in], -1.0, 1.0, &mut rng);
        let dev = DeviceConfig::quantized_linear(4).with_tile_shape(Some(tile));
        let param = MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Acm), dev).unwrap();
        let grid = param.tile_grid().expect("mapped parameters carry a grid");
        let (n_dev, num_tiles) = (grid.nd_total(), grid.num_tiles());
        let qmode = QuantReadout::default();
        let param = RefCell::new(param);
        let q_out = param.borrow_mut().forward_quantized(&x, &qmode).unwrap();
        let x_deq = QuantizedTensor::quantize_affine(&x, qmode.act_bits).dequantize();
        let f_out = linalg::matmul_nt(&x_deq, &param.borrow().effective_weights()).unwrap();
        assert!(
            q_out.all_close(&f_out, 5e-3),
            "quant_mvm: integer readout diverged from the fp32 forward of the quantized input"
        );
        let flops = 2.0 * (batch * n_dev * n_in) as f64;
        let mut entry = e2e_entry(
            "quant_mvm",
            "quant_mvm",
            format!("{batch}x{n_in}->{n_out} @{tile} ({num_tiles} tiles)"),
            flops,
            reps,
            || param.borrow_mut().forward_quantized(&x, &qmode).unwrap(),
        );
        // u8 activation codes + i8 conductance codes + f32 result.
        entry.bytes = Some((batch * n_in + n_dev * n_in + 4 * batch * n_dev) as f64);
        entries.push(entry);
    }

    // E2E: one data-parallel training epoch (the ISSUE-5 headline arm).
    entries.push(train_step_entry(mode, reps));

    // Scheduler: heterogeneous task bag, fork-join vs one task per item.
    entries.push(sched_bag_entry(mode, reps));

    Report {
        mode,
        threads: backend::threads(),
        simd: simd_active(),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_runs_with_parity() {
        let report = run(Mode::Smoke);
        assert!(report.entries.len() >= 5);
        assert!(report.entries.iter().all(|e| e.parity));
        assert!(report.entries.iter().any(|e| e.name == "matmul_square_256"));
        // Every GEMM entry (fp32 and int8) carries its dispatched
        // routine; e2e entries don't.
        for e in &report.entries {
            let is_gemm = matches!(e.kind, "matmul" | "matmul_tn" | "matmul_nt" | "qmatmul");
            assert_eq!(e.routine.is_some(), is_gemm, "{}", e.name);
            if e.kind == "qmatmul" {
                assert!(
                    matches!(e.routine, Some("q_rowdot" | "q_maddubs")),
                    "{} dispatched an unknown int8 routine",
                    e.name
                );
            }
        }
        let qgemm = report
            .entries
            .iter()
            .find(|e| e.name == "qmatmul_square_256")
            .expect("qmatmul entry present");
        assert!(qgemm.parity);
        assert!(qgemm.speedup().is_some(), "fp32 arm missing");
        assert!(qgemm.gbps().is_some(), "int8 GEMM reports bandwidth");
        let qmvm = report
            .entries
            .iter()
            .find(|e| e.name == "quant_mvm")
            .expect("quant_mvm entry present");
        assert!(qmvm.parity);
        assert!(qmvm.gbps().is_some(), "quantized MVM reports bandwidth");
        let train = report
            .entries
            .iter()
            .find(|e| e.name == "train_step")
            .expect("train_step entry present");
        assert!(train.speedup().is_some());
        // No counting allocator in library tests.
        assert!(train.parallel_allocs.is_none());
        let sched = report
            .entries
            .iter()
            .find(|e| e.name == "sched_bag")
            .expect("sched_bag entry present");
        assert!(sched.parity);
        assert!(sched.speedup().is_some(), "fork-join arm missing");
        let (fj, ws) = sched.occupancy.expect("sched_bag reports occupancy");
        assert!((0.0..=1.0).contains(&fj), "fj occupancy {fj} out of range");
        assert!((0.0..=1.0).contains(&ws), "ws occupancy {ws} out of range");
        // Greedy per-item scheduling can never occupy lanes worse than a
        // static contiguous split of the same busy profile (equal at one
        // lane).
        assert!(ws >= fj - 1e-9, "ws occupancy {ws} below fj {fj}");
        let modeled = sched.modeled_speedup.expect("sched_bag models a speedup");
        assert!(modeled >= 1.0 - 1e-9, "modeled speedup {modeled} below 1");
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"kernels\""));
        assert!(json.contains("matmul_square_256"));
        assert!(json.contains("speedup_vs_serial"));
        assert!(json.contains("\"routine\": \""));
        assert!(json.contains("\"gbps\": "));
        assert!(json.contains("\"modeled_speedup\": "));
        assert!(!report.summary().is_empty());
    }

    #[test]
    fn every_gemm_shape_selects_a_supporting_routine() {
        // The blocked engine runs exactly the problems above the class
        // split; the rest keep their small kernel.
        for mode in [Mode::Smoke, Mode::Full] {
            for (name, kind, m, k, n, _) in gemm_shapes(mode) {
                let (trans_a, trans_b) = transposes(kind);
                let small = dispatch::Problem::new(trans_a, trans_b, m, k, n).small();
                let routine = selection_for_kind(kind, m, k, n);
                assert_eq!(
                    routine == "packed_blocked",
                    !small,
                    "{name} selected {routine} across the class split"
                );
            }
        }
    }

    #[test]
    fn naive_kernels_agree_with_linalg_within_tolerance() {
        let mut rng = XorShiftRng::new(7);
        let a = Tensor::rand_normal(&[33, 40], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[40, 21], 0.0, 1.0, &mut rng);
        assert!(naive_matmul(&a, &b).all_close(&linalg::matmul(&a, &b).unwrap(), 1e-4));
        let at = Tensor::rand_normal(&[40, 33], 0.0, 1.0, &mut rng);
        assert!(naive_matmul_tn(&at, &b).all_close(&linalg::matmul_tn(&at, &b).unwrap(), 1e-4));
        let bt = Tensor::rand_normal(&[21, 40], 0.0, 1.0, &mut rng);
        assert!(naive_matmul_nt(&a, &bt).all_close(&linalg::matmul_nt(&a, &bt).unwrap(), 1e-4));
    }
}
