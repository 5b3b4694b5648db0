//! Steal-order determinism for the persistent work-stealing scheduler.
//!
//! The pool's lane count is fixed at construction (`XBAR_THREADS` read on
//! first use), so a single process can only ever observe one width. These
//! tests therefore re-invoke the test binary as a child process per
//! configuration — `XBAR_THREADS ∈ {1, 2, 4, 8}`, and, when the
//! `sched-fuzz` feature is enabled, deterministic steal-order jitter
//! seeds on top — run the workload there, and compare an FNV-1a digest
//! of every bit the workload produced. The digest must be identical in
//! every child: the repo's determinism contract says results depend only
//! on inputs, never on lane count or which lane won a steal race.
//!
//! Run the fuzzed matrix with:
//! `cargo test -p xbar --test integration_sched --features sched-fuzz`.

use std::process::Command;

use xbar_core::{Mapping, QuantReadout, TileShape};
use xbar_data::SyntheticMnist;
use xbar_device::DeviceConfig;
use xbar_models::{mlp2, ModelConfig};
use xbar_nn::{train, Layer, MappedParam, TrainConfig, WeightKind};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::Tensor;

/// Selects the child workload; absent in the parent test process.
const WORKLOAD_VAR: &str = "XBAR_SCHED_WORKLOAD";

/// FNV-1a over a little-endian byte stream of `f32` bit patterns.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn push_f32s(&mut self, vals: &[f32]) {
        for v in vals {
            self.push_bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Tiled int8 readout of a mapped layer: a 4×3 tile grid, batched input —
/// every tile's integer GEMM and ADC is a separate stealable task.
fn tiled_digest() -> u64 {
    let mut rng = XorShiftRng::new(0x5EAD);
    let w = Tensor::rand_uniform(&[40, 56], -0.05, 0.05, &mut rng);
    let dev = DeviceConfig::quantized_linear(4).with_tile_shape(Some(TileShape::new(16, 16)));
    let mut param = MappedParam::from_signed(&w, WeightKind::Mapped(Mapping::Acm), dev).unwrap();
    let x = Tensor::rand_uniform(&[9, 56], -1.0, 1.0, &mut rng);
    let mode = QuantReadout::with_adc_bits(8);
    let mut d = Digest::new();
    for _ in 0..3 {
        let y = param.forward_quantized(&x, &mode).unwrap();
        d.push_f32s(y.data());
    }
    d.0
}

/// Sharded data-parallel training: a fixed 3-shard run whose gradient
/// reduction commits per column-group segment through deferred tasks.
/// The shard count is pinned (not auto-tuned) so every thread count
/// resolves the same reduction tree.
fn train_digest() -> u64 {
    let data = SyntheticMnist::builder()
        .train(120)
        .test(48)
        .seed(0xD1CE)
        .build();
    let cfg = ModelConfig::mapped(Mapping::Acm, DeviceConfig::quantized_linear(4)).with_seed(77);
    let mut net = mlp2(256, 20, 10, &cfg).unwrap();
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 12,
        lr: 0.08,
        lr_decay: 0.95,
        seed: 77,
        shards: Some(3),
        verbose: false,
        ..TrainConfig::default()
    };
    let history = train(&mut net, data.train.as_split(), None, &tc).unwrap();
    let probe = net.forward(data.test.features(), false).unwrap();
    let mut d = Digest::new();
    for e in history.epochs() {
        d.push_f32s(&[e.train_loss, e.train_acc]);
    }
    d.push_f32s(probe.data());
    d.0
}

/// Child entry point: a no-op in the parent process, the workload runner
/// in re-invoked children. Prints `DIGEST <hex>` for the parent to parse.
#[test]
fn child_emit_digest() {
    let Ok(workload) = std::env::var(WORKLOAD_VAR) else {
        return;
    };
    let digest = match workload.as_str() {
        "tiled" => tiled_digest(),
        "train" => train_digest(),
        other => panic!("unknown {WORKLOAD_VAR} {other:?}"),
    };
    println!("DIGEST {digest:016x}");
}

/// The fuzz matrix: jitter off always; two nonzero steal-order jitter
/// seeds when the `sched-fuzz` feature compiled the hook in.
fn jitter_seeds() -> &'static [u64] {
    #[cfg(feature = "sched-fuzz")]
    {
        &[0, 7, 23]
    }
    #[cfg(not(feature = "sched-fuzz"))]
    {
        &[0]
    }
}

/// Re-invokes this test binary running only [`child_emit_digest`] with
/// the given pool width and jitter seed, returning the child's digest.
fn child_digest(workload: &str, threads: usize, jitter: u64) -> u64 {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.args(["child_emit_digest", "--exact", "--nocapture"])
        .env(WORKLOAD_VAR, workload)
        .env("XBAR_THREADS", threads.to_string());
    if jitter != 0 {
        cmd.env("XBAR_SCHED_JITTER", jitter.to_string());
    } else {
        cmd.env_remove("XBAR_SCHED_JITTER");
    }
    let out = cmd.output().expect("spawn child test process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child {workload} t={threads} j={jitter} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // libtest prints `test child_emit_digest ... ` without a newline, so
    // the marker can land mid-line; match it anywhere.
    let hex = stdout
        .lines()
        .find_map(|l| l.find("DIGEST ").map(|p| &l[p + "DIGEST ".len()..]))
        .unwrap_or_else(|| panic!("no DIGEST line from child {workload}:\n{stdout}"));
    let hex = hex.split_whitespace().next().unwrap_or("");
    u64::from_str_radix(hex, 16).expect("digest parses as hex")
}

/// Asserts one digest across the full thread-count × jitter matrix.
fn assert_invariant(workload: &str) {
    let mut reference: Option<(u64, String)> = None;
    for &threads in &[1usize, 2, 4, 8] {
        for &jitter in jitter_seeds() {
            let digest = child_digest(workload, threads, jitter);
            let tag = format!("threads={threads} jitter={jitter}");
            match &reference {
                None => reference = Some((digest, tag)),
                Some((want, base)) => assert_eq!(
                    digest, *want,
                    "{workload}: {tag} diverged from {base} — scheduling order leaked into results"
                ),
            }
        }
    }
}

#[test]
fn tiled_forward_digest_is_thread_count_and_steal_order_invariant() {
    assert_invariant("tiled");
}

/// Nested submissions must drain, never deadlock: a pooled task that
/// fans out again through a parallel helper or a fresh scope runs that
/// work inline on its own lane, and a nested scope finishes every task
/// it spawned before its enclosing task goes on.
#[test]
fn nested_task_graph_submissions_drain_in_dependency_order() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use xbar_tensor::backend;

    let total = AtomicUsize::new(0);
    backend::scope(|s| {
        for i in 0..16usize {
            let total = &total;
            s.spawn(move || {
                // A parallel helper inside a pool task (inline on the lane).
                let parts = backend::parallel_map((0..8usize).collect(), |_, j| i * 8 + j);
                // A whole nested scope inside a pool task.
                let done = AtomicUsize::new(0);
                backend::scope(|inner| {
                    for part in parts {
                        let done = &done;
                        inner.spawn(move || {
                            total.fetch_add(part, Ordering::Relaxed);
                            done.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
                assert_eq!(
                    done.load(Ordering::Relaxed),
                    8,
                    "nested scope returned early"
                );
            });
        }
    });
    let expect: usize = (0..16 * 8).sum();
    assert_eq!(total.load(Ordering::Relaxed), expect);
}

#[test]
fn sharded_training_digest_is_thread_count_and_steal_order_invariant() {
    assert_invariant("train");
}
