//! Kernel/e2e benchmark: times the blocked/SIMD/parallel compute kernels
//! against the seed's naive serial baselines and writes
//! `BENCH_kernels.json` (in the current directory — repo root when run
//! through `cargo run`).
//!
//! ```text
//! bench_kernels [--smoke | --full] [--out BENCH_kernels.json]
//! ```
//!
//! `--smoke` runs tiny shapes (plus the headline 256³ square) and is what
//! `ci.sh` invokes; `--full` (the default) runs the LeNet/VGG/ResNet GEMM
//! suite and the e2e crossbar entries. Every entry asserts bitwise parity
//! between serial and parallel execution before timing, so the binary
//! doubles as a determinism check.

use xbar_bench::cli::Args;
use xbar_bench::error::{exit_on_error, BenchError};
use xbar_bench::kernel_bench::{self, Mode};

/// Count heap traffic so the report can carry per-arm allocation numbers
/// (the zero-allocation hot-path audit). Binary-only: library tests run
/// on the plain system allocator.
#[global_allocator]
static GLOBAL: xbar_bench::alloc_count::CountingAlloc = xbar_bench::alloc_count::CountingAlloc;

fn main() {
    xbar_bench::alloc_count::mark_installed();
    exit_on_error(run(Args::from_env()));
}

fn run(args: Args) -> Result<(), BenchError> {
    let mode = if args.has("smoke") {
        Mode::Smoke
    } else {
        Mode::Full
    };
    let out_path = args.get_str("out", "BENCH_kernels.json");

    eprintln!(
        "bench_kernels: mode={} threads={} simd={}",
        mode.tag(),
        xbar_tensor::backend::threads(),
        xbar_tensor::simd_active()
    );

    let report = kernel_bench::run(mode);
    print!("{}", report.summary());

    let scratch = xbar_tensor::scratch::stats();
    eprintln!(
        "scratch pool (main thread): {} hits / {} misses, {} buffers ({} B) parked",
        scratch.hits, scratch.misses, scratch.cached_buffers, scratch.cached_bytes
    );

    std::fs::write(&out_path, report.to_json())
        .map_err(|e| BenchError::io(out_path.clone(), &e))?;
    eprintln!("wrote {out_path}");
    Ok(())
}
