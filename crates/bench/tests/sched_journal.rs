//! Sweep journal byte-determinism on the worker pool.
//!
//! The sweep runner journals completed cells on the *calling* thread in
//! submission order, so the JSONL bytes must be identical — not merely
//! set-equal — at every pool width and whatever order the cells finish
//! in. The pool's lane count is fixed at first use, so the test
//! re-invokes this binary as a child per `XBAR_THREADS ∈ {1, 2, 4}` (plus
//! per-task jitter seeds when built with `--features sched-fuzz`), points
//! each child at its own journal file, and compares the raw bytes.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use xbar_bench::json::Json;
use xbar_bench::sweep::{run_sweep, SweepConfig};
use xbar_core::{Mapping, QuantReadout};
use xbar_device::{DeviceConfig, TileShape};
use xbar_nn::{MappedParam, WeightKind};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::Tensor;

/// Tells a re-invoked child where to write its journal; absent in the
/// parent test process.
const CHILD_VAR: &str = "XBAR_SWEEP_CHILD_JOURNAL";

/// One sweep cell per mapping scheme: map a small layer onto 8×8 tiles,
/// run a fixed batch through its int8 readout (one pool task per tile),
/// report summary statistics. Pure in its key.
fn toy_mapping_sweep(journal: PathBuf) {
    let cells: Vec<(String, Mapping)> = [Mapping::DoubleElement, Mapping::BiasColumn, Mapping::Acm]
        .into_iter()
        .map(|m| (format!("{m:?}"), m))
        .collect();
    let cfg = SweepConfig {
        journal: Some(journal),
        ..SweepConfig::default()
    };
    let report = run_sweep(cells, &cfg, |_key, &mapping| {
        let mut rng = XorShiftRng::new(0xBEEF);
        let w = Tensor::rand_uniform(&[12, 20], -0.05, 0.05, &mut rng);
        let dev = DeviceConfig::quantized_linear(4).with_tile_shape(Some(TileShape::new(8, 8)));
        // Cells are pure: any failure here is a bug, and a panic degrades
        // to a FailureRecord that `all_ok()` below rejects.
        let mut param = MappedParam::from_signed(&w, WeightKind::Mapped(mapping), dev).unwrap();
        let x = Tensor::rand_uniform(&[6, 20], -1.0, 1.0, &mut rng);
        let y = param
            .forward_quantized(&x, &QuantReadout::with_adc_bits(8))
            .unwrap();
        let sum: f64 = y.data().iter().map(|&v| f64::from(v)).sum();
        let n_dev = param.tile_grid().expect("mapped").nd_total();
        Ok(Json::Obj(vec![
            ("n_dev".into(), Json::Num(n_dev as f64)),
            ("output_sum".into(), Json::Num(sum)),
        ]))
    })
    .expect("sweep infrastructure stays healthy");
    assert!(report.all_ok(), "toy sweep cells must all succeed");
}

/// Child entry point: a no-op in the parent process, the sweep runner in
/// re-invoked children.
#[test]
fn child_write_journal() {
    let Ok(path) = std::env::var(CHILD_VAR) else {
        return;
    };
    toy_mapping_sweep(PathBuf::from(path));
}

fn jitter_seeds() -> &'static [u64] {
    #[cfg(feature = "sched-fuzz")]
    {
        &[0, 11, 31]
    }
    #[cfg(not(feature = "sched-fuzz"))]
    {
        &[0]
    }
}

#[test]
fn journal_bytes_are_thread_count_and_steal_order_invariant() {
    let dir = std::env::temp_dir().join(format!("xbar-sched-journal-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let exe = std::env::current_exe().expect("test binary path");

    let mut reference: Option<(Vec<u8>, String)> = None;
    for &threads in &[1usize, 2, 4] {
        for &jitter in jitter_seeds() {
            let journal = dir.join(format!("t{threads}-j{jitter}.jsonl"));
            let mut cmd = Command::new(&exe);
            cmd.args(["child_write_journal", "--exact", "--nocapture"])
                .env(CHILD_VAR, &journal)
                .env("XBAR_THREADS", threads.to_string());
            if jitter != 0 {
                cmd.env("XBAR_SCHED_JITTER", jitter.to_string());
            } else {
                cmd.env_remove("XBAR_SCHED_JITTER");
            }
            let out = cmd.output().expect("spawn child test process");
            assert!(
                out.status.success(),
                "child t={threads} j={jitter} failed:\n{}\n{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            let bytes = fs::read(&journal).expect("child wrote its journal");
            assert!(!bytes.is_empty(), "journal must not be empty");
            let tag = format!("threads={threads} jitter={jitter}");
            match &reference {
                None => reference = Some((bytes, tag)),
                Some((want, base)) => assert_eq!(
                    bytes, *want,
                    "{tag}: journal bytes diverged from {base} — commit order leaked"
                ),
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
}
