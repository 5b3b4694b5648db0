//! # xbar-tensor
//!
//! Minimal, dependency-free dense `f32` tensor library backing the
//! crossbar-array neural-network simulation stack.
//!
//! The crate provides exactly what a from-scratch DNN trainer needs:
//!
//! * [`Tensor`] — an owned, row-major, N-dimensional `f32` array with
//!   shape-checked elementwise arithmetic and reductions;
//! * [`backend`] — a dependency-free scoped worker pool (`XBAR_THREADS`,
//!   guaranteed-serial mode) with a strict determinism contract: every
//!   parallel kernel is bitwise identical to its serial execution;
//! * [`linalg`] — cache-blocked, SIMD-accelerated, row-parallel matrix
//!   multiplication kernels (plain, transposed operands, and GEMV);
//! * [`dispatch`] — GEMM routine registry and the shape rule that picks
//!   one per problem (every routine bitwise-identical within its class);
//! * [`tune`] — the routine-selection count the end-to-end benchmark
//!   reports (always 0: nothing is tuned at run time);
//! * [`json`] — dependency-free canonical JSON (shared with the bench
//!   sweep journal downstream);
//! * [`conv`] — `im2col`/`col2im` based 2-D convolution and pooling
//!   forward/backward kernels;
//! * [`rng`] — a small deterministic xorshift PRNG so every experiment in
//!   the workspace is reproducible from a single seed;
//! * [`init`] — common weight initializers (He, Xavier, uniform);
//! * [`scratch`] — thread-local buffer recycling behind
//!   `Tensor::zeros`/`Tensor::full`, making steady-state training loops
//!   (nearly) allocation-free;
//! * [`elementwise`] — bit-exact SIMD elementwise kernels (axpy update,
//!   batch-norm normalize, softmax row max).
//!
//! # Example
//!
//! ```
//! use xbar_tensor::{Tensor, linalg};
//!
//! # fn main() -> Result<(), xbar_tensor::ShapeError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = linalg::matmul(&a, &b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod error;
mod gemm;
mod sched;
mod tensor;

pub mod backend;
pub mod conv;
pub mod dispatch;
pub mod elementwise;
pub mod init;
pub mod json;
pub mod linalg;
pub mod qgemm;
pub mod quant;
pub mod rng;
pub mod scratch;
pub mod tune;

pub use error::ShapeError;
pub use gemm::simd_active;
pub use quant::{qmatmul_nt, QScheme, QuantizedTensor};
pub use tensor::Tensor;
