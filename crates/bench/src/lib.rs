//! # xbar-bench
//!
//! Experiment harnesses reproducing every table and figure of the DAC 2020
//! ACM paper, plus Criterion micro-benchmarks of the underlying kernels.
//!
//! One binary per experiment (see DESIGN.md §3 for the full index):
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig5_fp32` | Fig. 5a / 5e — FP32 train & test error vs epoch |
//! | `fig5_precision` | Fig. 5b–d (linear) and 5f–h (nonlinear) — error vs weight bits |
//! | `fig6_variation` | Fig. 6 — inference accuracy vs device-variation σ |
//! | `table1_system` | Table I — system-level area / energy / delay |
//! | `ablation_regularization` | Sec. III-E constraint-count analysis |
//! | `ablation_order` | ACM column-order sensitivity (extension) |
//!
//! Each binary prints the same rows/series the paper reports and accepts
//! `--csv` for machine-readable output. Experiments run on the synthetic
//! datasets at `ModelScale::Small` by default; flags select network,
//! update model, scale, and sweep ranges.

#![deny(missing_docs)]

pub mod alloc_count;
pub mod cli;
pub mod error;
pub mod experiments;
pub mod kernel_bench;
pub mod output;
pub mod sweep;

// The canonical JSON value lives in `xbar-tensor`; the path
// `xbar_bench::json` is preserved for existing callers (sweep journal,
// result files).
pub use xbar_tensor::json;
