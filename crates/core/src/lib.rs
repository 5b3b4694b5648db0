//! # xbar-core
//!
//! The primary contribution of the DAC 2020 paper *"A Device Non-Ideality
//! Resilient Approach for Mapping Neural Networks to Crossbar Arrays"*
//! (Kazemi et al.): the **adjacent connection matrix (ACM)** and the
//! periphery-matrix framework it lives in.
//!
//! A crossbar array stores weights as *non-negative* conductances, but DNN
//! weight matrices are signed. All practical mappings factor the signed
//! matrix `W` as
//!
//! ```text
//! W = S · M,    M ≥ 0
//! ```
//!
//! where `M` is the conductance matrix on the crossbar and `S` — the
//! *periphery matrix* — is a fixed signed matrix with entries in
//! `{−1, 0, +1}` implemented as additions/subtractions of digitized column
//! outputs at the array periphery (paper Sec. III-B).
//!
//! The crate provides:
//!
//! * [`Mapping`] — the three mappings the paper studies: double element
//!   (DE), bias column (BC), and the proposed ACM;
//! * [`PeripheryMatrix`] — construction and validation of periphery
//!   matrices, including the paper's two sufficient conditions
//!   (`rank(S) = N_O` and a strictly positive null vector, Sec. III-C);
//! * [`decompose`]/[`compose`] — constructive per-mapping decompositions
//!   plus a generic Gaussian-elimination solver for *any* valid `S`;
//! * [`TileGrid`] — the layout of one layer's `M` over the physical tiles
//!   of a device's tile bound (one array when it has none): per-group
//!   decomposition, the block-diagonal periphery and the tile-local
//!   parasitics; [`magnitude_permutation`] orders a group's rows for
//!   [`Mapping::Perm`];
//! * [`ReadoutImage`] and [`QuantReadout`] — the ADC-exact int8 readout of
//!   a programmed array, one integer GEMM and ADC per tile;
//! * [`remap_for_faults`] — fault-aware remapping: stuck-at defects are
//!   absorbed into the null-space slack of `W = S·M` (shifting a column by
//!   `c·x_h` changes no weight), with the unabsorbable residual reported;
//! * [`HealthMonitor`], [`RepairPolicy`] and [`checksum_residual`] — the
//!   self-healing primitives (checksum detection, staged repair, exact
//!   digital fallback) that `xbar_nn::MappedParam::scrub_tick` runs once
//!   per scrub epoch;
//! * [`analysis`] — the Sec. III-E regularization identity
//!   (`ΣW = M̄_1 − M̄_{N_D}`), representable-sum counting, weight-range and
//!   hardware-cost accounting.
//!
//! Programming those arrays (quantization, variation, write-verify,
//! faults, parasitics, scrubbing) is the job of `xbar_nn::MappedParam`,
//! the one owner of a layer's device state; this crate supplies the
//! pieces it composes.
//!
//! # Example
//!
//! ```
//! use xbar_core::{compose, decompose, Mapping};
//! use xbar_device::ConductanceRange;
//! use xbar_tensor::{rng::XorShiftRng, Tensor};
//!
//! # fn main() -> Result<(), xbar_core::MappingError> {
//! let mut rng = XorShiftRng::new(7);
//! let w = Tensor::rand_uniform(&[4, 6], -0.4, 0.4, &mut rng);
//! let range = ConductanceRange::normalized();
//!
//! let m = decompose(&w, Mapping::Acm, range)?;
//! assert!(m.min() >= 0.0);                    // crossbar-programmable
//! let back = compose(&m, Mapping::Acm)?;
//! assert!(back.all_close(&w, 1e-5));          // exact reconstruction
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod analysis;
mod balance;
mod decompose;
mod error;
mod healing;
mod mapping;
mod periphery;
mod quantized;
mod remap;
mod tiling;

pub use balance::{balance_profile, BalanceProfile};
pub use decompose::{compose, decompose, decompose_with_periphery, max_representable_scale};
pub use error::MappingError;
pub use healing::{
    checksum_residual, HealthAction, HealthMonitor, RepairAttempt, RepairPolicy, RepairStage,
    ScrubReport, TileHealth,
};
pub use mapping::{magnitude_permutation, Mapping, ParseMappingError};
pub use periphery::PeripheryMatrix;
pub use quantized::{QuantReadout, ReadoutImage};
pub use remap::{remap_for_faults, RemapReport};
pub use tiling::{ColGroup, TileGrid};
// Re-exported from `xbar_device` (where the physical array bound lives)
// so existing `xbar_core::TileShape` callers keep compiling.
pub use xbar_device::TileShape;
// Re-exported alongside the quantized readout that consumes it.
pub use xbar_device::AdcSpec;
