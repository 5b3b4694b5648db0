//! # xbar-nn
//!
//! A from-scratch neural-network training framework whose weight layers
//! live on simulated crossbar arrays.
//!
//! The framework exists to reproduce the training methodology of the DAC
//! 2020 ACM paper: a network's dense and convolution layers do **not** own
//! a signed weight matrix — they own a *non-negative* conductance matrix
//! `M` (via [`MappedParam`]) together with a fixed periphery matrix `S`
//! from [`xbar_core`], so the effective signed weights are `W = α·S·M`.
//! Training constrains `M ≥ 0` (clipping to the device range after every
//! update), quantizes `M` to the device's `2^B` states in the forward pass
//! (straight-through backward), and can route every SGD update through the
//! device's nonlinear pulse transfer curve — the exact simulation setup of
//! the paper's Sec. IV.
//!
//! Besides the mapped layers the crate provides the usual training stack:
//! activations (with 8-bit activation quantization), pooling, batch
//! normalization, residual blocks, softmax cross-entropy, vanilla SGD, and
//! a [`train`] driver with per-epoch history.
//!
//! # Example
//!
//! ```
//! use xbar_core::Mapping;
//! use xbar_device::DeviceConfig;
//! use xbar_nn::{Dense, Layer, Relu, Sequential, WeightKind};
//! use xbar_tensor::rng::XorShiftRng;
//!
//! # fn main() -> Result<(), xbar_nn::NnError> {
//! let mut rng = XorShiftRng::new(3);
//! let mut net = Sequential::new();
//! net.push(Dense::new(4, 8, WeightKind::Mapped(Mapping::Acm), DeviceConfig::ideal(), &mut rng)?);
//! net.push(Relu::new());
//! net.push(Dense::new(8, 2, WeightKind::Mapped(Mapping::Acm), DeviceConfig::ideal(), &mut rng)?);
//! assert!(net.num_params() > 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod activations;
mod conv;
mod crossbar;
mod dense;
mod dropout;
mod error;
mod layer;
mod loss;
mod metrics;
mod norm;
mod param;
pub mod persist;
mod pool;
mod residual;
mod tiling;
mod train;

pub use activations::{Flatten, QuantAct, Relu};
pub use conv::{conv_mapped, Conv2d};
pub use dense::{dense_mapped, dense_signed, Dense};
pub use dropout::Dropout;
pub use error::NnError;
pub use layer::{Layer, Sequential, StateVisitor};
pub use loss::SoftmaxCrossEntropy;
pub use metrics::{accuracy, confusion_matrix};
pub use norm::BatchNorm2d;
pub use param::{MappedParam, WeightKind};
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};
pub use residual::ResidualBlock;
pub use train::{
    auto_shards, calibrate, evaluate, evaluate_quantized, scrub_network, train, EpochStats,
    History, Split, TrainConfig,
};
// Re-exported so quantized-inference callers need only this crate.
pub use xbar_core::QuantReadout;
