//! GEMM engine primitives shared by the dispatched kernels and the
//! convolution GEMMs.
//!
//! One engine computes `C += op(A) · op(B)` for all of `matmul` (NN),
//! `matmul_tn` (TN) and `matmul_nt` (NT). This module owns the numeric
//! building blocks — packing, micro-kernels, the small-problem streaming
//! kernels and the SIMD feature gate — while [`crate::dispatch`] owns the
//! *routing*: which kernel runs a given problem, fixed by its class.
//!
//! The blocked path follows the classic pack-and-tile scheme:
//!
//! * the depth dimension is split into `KC`-deep blocks so one packed B
//!   panel stays resident in L1/L2 across a whole row sweep;
//! * B is packed into `KC × NR` column panels (zero-padded to `NR`), which
//!   confines all transposed/strided access to the packing step;
//! * A blocks are packed to row-major `rows × KC`, again hiding the TN
//!   stride from the inner loop;
//! * the micro-kernel updates an `MR × NR` register tile, with an
//!   AVX2+FMA variant selected at runtime (scalar fallback elsewhere,
//!   `XBAR_SIMD=0` forces the fallback). Per output element the
//!   accumulation is one sequential pass over the depth block into a
//!   private accumulator.
//!
//! Sub-threshold problems use simple serial kernels (`ikj` streaming
//! loops; four-way unrolled dot products for NT) where packing overhead
//! would dominate. The small/blocked boundary depends only on the problem
//! size, never on thread count, preserving the determinism contract (see
//! `dispatch` for the full argument).

use std::sync::OnceLock;

/// Depth of a packed panel: one panel is `KC × NR` floats (16 KiB).
pub(crate) const KC: usize = 256;
/// Panel width in columns; the micro-kernel's register-tile width.
pub(crate) const NR: usize = 16;
/// Micro-kernel register-tile height in rows.
pub(crate) const MR: usize = 4;
/// Rows per parallel chunk — the classic unit of row-range parallelism.
pub(crate) const MC: usize = 64;

/// Problems below this many multiply-adds (or narrower than `NR/2`
/// columns) skip the blocked machinery. This boundary is part of the
/// numeric contract: the small kernels accumulate in a different order
/// than the blocked ones, so the class split must be a fixed function of
/// the problem size alone.
pub(crate) const SMALL_MACS: usize = 16 * 1024;

/// Whether the AVX2+FMA micro-kernel is in use. False on non-x86_64
/// hosts, on CPUs without AVX2/FMA, or when `XBAR_SIMD=0` is set.
pub fn simd_active() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| {
        if std::env::var("XBAR_SIMD").is_ok_and(|v| v.trim() == "0") {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Computes `C += op(A) · op(B)` into `od` (row-major `m × n`, normally
/// freshly zeroed by the caller) via the dispatch layer.
///
/// Logical dims are `op(A): (m, k)`, `op(B): (k, n)`. Physically `A` is
/// `(m, k)` when `trans_a` is false and `(k, m)` when true; `B` is
/// `(k, n)` / `(n, k)` likewise. Callers validate shapes; slices must
/// match the implied sizes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    trans_a: bool,
    trans_b: bool,
    ad: &[f32],
    bd: &[f32],
    od: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    crate::dispatch::dispatch(trans_a, trans_b, ad, bd, od, m, k, n);
}

/// Packs A rows `i0..i0 + rows`, depth `p0..p0 + kc`, into row-major
/// `rows × kc` (leading dimension `KC`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_a(
    trans_a: bool,
    ad: &[f32],
    pa: &mut [f32],
    i0: usize,
    rows: usize,
    p0: usize,
    kc: usize,
    m: usize,
    k: usize,
) {
    if trans_a {
        // A is (k, m) row-major: column gather per depth element.
        for pp in 0..kc {
            let src = &ad[(p0 + pp) * m..(p0 + pp) * m + m];
            for r in 0..rows {
                pa[r * KC + pp] = src[i0 + r];
            }
        }
    } else {
        for r in 0..rows {
            let src = &ad[(i0 + r) * k + p0..(i0 + r) * k + p0 + kc];
            pa[r * KC..r * KC + kc].copy_from_slice(src);
        }
    }
    let _ = m;
}

/// Packs the `kc × nr` panel of op(B) at `(p0, j0)` into `panel`,
/// zero-padding columns `nr..NR`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_b(
    trans_b: bool,
    bd: &[f32],
    panel: &mut [f32],
    p0: usize,
    kc: usize,
    j0: usize,
    nr: usize,
    k: usize,
    n: usize,
) {
    if trans_b {
        // B is (n, k) row-major: op(B)[p][j] = B[j][p].
        for pp in 0..kc {
            let dst = &mut panel[pp * NR..(pp + 1) * NR];
            for (r, d) in dst[..nr].iter_mut().enumerate() {
                *d = bd[(j0 + r) * k + p0 + pp];
            }
            dst[nr..].fill(0.0);
        }
    } else {
        for pp in 0..kc {
            let src = &bd[(p0 + pp) * n + j0..(p0 + pp) * n + j0 + nr];
            let dst = &mut panel[pp * NR..(pp + 1) * NR];
            dst[..nr].copy_from_slice(src);
            dst[nr..].fill(0.0);
        }
    }
    let _ = k;
}

/// Runs the `MR`-row micro-kernel over one packed panel, picking the
/// AVX2+FMA variant when `simd` is set.
///
/// `pa` holds the A rows with leading dimension `astride` — `KC` for
/// packed panels, or the matrix's own row stride `k` when an NN-layout
/// A block is fed directly without packing. The element values the
/// kernel reads are identical either way (indexing is the only thing
/// that changes), so skipping the pack is bitwise-invariant. `panel` is
/// one packed `KC × NR` B panel, `oc` the output chunk (`rows × n`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn microkernel(
    pa: &[f32],
    astride: usize,
    panel: &[f32],
    oc: &mut [f32],
    rows: usize,
    kc: usize,
    n: usize,
    j0: usize,
    nr: usize,
    simd: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true when AVX2+FMA were detected.
        unsafe { kern_avx2(pa, astride, panel, oc, rows, kc, n, j0, nr) };
        return;
    }
    let _ = simd;
    kern_scalar(pa, astride, panel, oc, rows, kc, n, j0, nr);
}

/// Portable micro-kernel: `MR`-row register tiles over one packed panel.
///
/// Per output element the accumulation is a single in-order pass over
/// `pp = 0..kc` into a private accumulator, followed by one add into the
/// output.
#[allow(clippy::too_many_arguments)]
fn kern_scalar(
    pa: &[f32],
    astride: usize,
    panel: &[f32],
    oc: &mut [f32],
    rows: usize,
    kc: usize,
    n: usize,
    j0: usize,
    nr: usize,
) {
    let mut i = 0;
    while i + MR <= rows {
        let mut acc = [[0f32; NR]; MR];
        for pp in 0..kc {
            let pb = &panel[pp * NR..pp * NR + NR];
            for (mi, row) in acc.iter_mut().enumerate() {
                let av = pa[(i + mi) * astride + pp];
                for (o, &b) in row.iter_mut().zip(pb) {
                    *o += av * b;
                }
            }
        }
        for (mi, row) in acc.iter().enumerate() {
            let orow = &mut oc[(i + mi) * n + j0..(i + mi) * n + j0 + nr];
            for (o, &v) in orow.iter_mut().zip(row) {
                *o += v;
            }
        }
        i += MR;
    }
    while i < rows {
        let arow = &pa[i * astride..i * astride + kc];
        let mut acc = [0f32; NR];
        for (pp, &av) in arow.iter().enumerate() {
            let pb = &panel[pp * NR..pp * NR + NR];
            for (o, &b) in acc.iter_mut().zip(pb) {
                *o += av * b;
            }
        }
        let orow = &mut oc[i * n + j0..i * n + j0 + nr];
        for (o, &v) in orow.iter_mut().zip(&acc) {
            *o += v;
        }
        i += 1;
    }
}

/// AVX2+FMA micro-kernel; same tile structure as [`kern_scalar`] with the
/// `NR`-wide accumulators held in two `__m256` registers per row.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
unsafe fn kern_avx2(
    pa: &[f32],
    astride: usize,
    panel: &[f32],
    oc: &mut [f32],
    rows: usize,
    kc: usize,
    n: usize,
    j0: usize,
    nr: usize,
) {
    use std::arch::x86_64::*;
    let mut i = 0;
    while i + MR <= rows {
        let mut acc: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
        for pp in 0..kc {
            let pb = panel.as_ptr().add(pp * NR);
            let b0 = _mm256_loadu_ps(pb);
            let b1 = _mm256_loadu_ps(pb.add(8));
            for mi in 0..MR {
                let av = _mm256_set1_ps(*pa.get_unchecked((i + mi) * astride + pp));
                acc[mi][0] = _mm256_fmadd_ps(av, b0, acc[mi][0]);
                acc[mi][1] = _mm256_fmadd_ps(av, b1, acc[mi][1]);
            }
        }
        for mi in 0..MR {
            let mut tmp = [0f32; NR];
            _mm256_storeu_ps(tmp.as_mut_ptr(), acc[mi][0]);
            _mm256_storeu_ps(tmp.as_mut_ptr().add(8), acc[mi][1]);
            let orow = &mut oc[(i + mi) * n + j0..(i + mi) * n + j0 + nr];
            for (o, &v) in orow.iter_mut().zip(&tmp) {
                *o += v;
            }
        }
        i += MR;
    }
    while i < rows {
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        for pp in 0..kc {
            let pb = panel.as_ptr().add(pp * NR);
            let av = _mm256_set1_ps(*pa.get_unchecked(i * astride + pp));
            a0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pb), a0);
            a1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pb.add(8)), a1);
        }
        let mut tmp = [0f32; NR];
        _mm256_storeu_ps(tmp.as_mut_ptr(), a0);
        _mm256_storeu_ps(tmp.as_mut_ptr().add(8), a1);
        let orow = &mut oc[i * n + j0..i * n + j0 + nr];
        for (o, &v) in orow.iter_mut().zip(&tmp) {
            *o += v;
        }
        i += 1;
    }
}

/// Small-problem NN kernel: `ikj` streaming loop. Deliberately has no
/// zero-value skip so `0 · ±Inf → NaN` propagates exactly as in the
/// reference definition.
pub(crate) fn small_nn(ad: &[f32], bd: &[f32], od: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut od[i * n..(i + 1) * n];
        for (p, &aval) in arow.iter().enumerate() {
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bval) in orow.iter_mut().zip(brow) {
                *o += aval * bval;
            }
        }
    }
}

/// Small-problem TN kernel (`A: (k, m)`): depth-major loop so both B and
/// the touched output row stream contiguously. No zero-skip (see
/// [`small_nn`]).
pub(crate) fn small_tn(ad: &[f32], bd: &[f32], od: &mut [f32], m: usize, k: usize, n: usize) {
    for p in 0..k {
        let arow = &ad[p * m..(p + 1) * m];
        let brow = &bd[p * n..(p + 1) * n];
        for (i, &aval) in arow.iter().enumerate() {
            let orow = &mut od[i * n..(i + 1) * n];
            for (o, &bval) in orow.iter_mut().zip(brow) {
                *o += aval * bval;
            }
        }
    }
}

/// Small-problem NT kernel (`B: (n, k)`): row-dot-row with four
/// independent accumulators to break the serial FP dependency chain that
/// made the scalar-accumulator version ~2× slower than the other kernels.
pub(crate) fn small_nt(ad: &[f32], bd: &[f32], od: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = [0f32; 4];
            let mut p = 0;
            while p + 4 <= k {
                acc[0] += arow[p] * brow[p];
                acc[1] += arow[p + 1] * brow[p + 1];
                acc[2] += arow[p + 2] * brow[p + 2];
                acc[3] += arow[p + 3] * brow[p + 3];
                p += 4;
            }
            let mut tail = 0f32;
            while p < k {
                tail += arow[p] * brow[p];
                p += 1;
            }
            od[i * n + j] = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;
    use crate::Tensor;

    /// f64-accumulated reference for accuracy checks.
    fn reference(
        trans_a: bool,
        trans_b: bool,
        a: &Tensor,
        b: &Tensor,
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        let (ad, bd) = (a.data(), b.data());
        let mut out = vec![0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0f64;
                for p in 0..k {
                    let av = if trans_a {
                        ad[p * m + i]
                    } else {
                        ad[i * k + p]
                    };
                    let bv = if trans_b {
                        bd[j * k + p]
                    } else {
                        bd[p * n + j]
                    };
                    acc += f64::from(av) * f64::from(bv);
                }
                out[i * n + j] = acc as f32;
            }
        }
        out
    }

    fn check(trans_a: bool, trans_b: bool, m: usize, k: usize, n: usize, seed: u64) {
        let mut rng = XorShiftRng::new(seed);
        let a_shape = if trans_a { [k, m] } else { [m, k] };
        let b_shape = if trans_b { [n, k] } else { [k, n] };
        let a = Tensor::rand_normal(&a_shape, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&b_shape, 0.0, 1.0, &mut rng);
        let mut out = vec![0f32; m * n];
        gemm(trans_a, trans_b, a.data(), b.data(), &mut out, m, k, n);
        let want = reference(trans_a, trans_b, &a, &b, m, k, n);
        let scale = (k as f32).sqrt();
        for (got, want) in out.iter().zip(&want) {
            assert!(
                (got - want).abs() <= 1e-4 * scale,
                "({trans_a},{trans_b}) {m}x{k}x{n}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn blocked_paths_match_f64_reference() {
        // Sizes chosen to exercise the blocked path with full tiles,
        // remainder rows, remainder columns and multiple KC blocks.
        for &(m, k, n) in &[(64, 64, 64), (65, 300, 17), (33, 257, 48), (128, 512, 16)] {
            check(false, false, m, k, n, 0xA0 + m as u64);
            check(true, false, m, k, n, 0xB0 + m as u64);
            check(false, true, m, k, n, 0xC0 + m as u64);
        }
    }

    #[test]
    fn small_paths_match_f64_reference() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (16, 16, 7), (2, 300, 3)] {
            check(false, false, m, k, n, 0xD0 + m as u64);
            check(true, false, m, k, n, 0xE0 + m as u64);
            check(false, true, m, k, n, 0xF0 + m as u64);
        }
    }

    #[test]
    fn degenerate_dims_leave_output_zeroed() {
        let a = vec![1.0f32; 12];
        let b = vec![1.0f32; 12];
        let mut out = vec![0f32; 12];
        gemm(false, false, &a, &b, &mut out, 3, 0, 4);
        assert!(out.iter().all(|&v| v == 0.0));
        gemm(false, false, &[], &b, &mut out[..0], 0, 3, 4);
        gemm(false, false, &a, &[], &mut out[..0], 4, 3, 0);
    }

    #[test]
    fn inf_times_zero_propagates_nan() {
        // k=1: A column of zeros, B row containing an Inf. The reference
        // result is NaN in the Inf column; the old zero-skip kernels
        // returned 0 there.
        let m = 3;
        let n = 4;
        let a = vec![0f32; m];
        let mut b = vec![1f32; n];
        b[2] = f32::INFINITY;
        let mut out = vec![0f32; m * n];
        gemm(false, false, &a, &b, &mut out, m, 1, n);
        for i in 0..m {
            assert!(out[i * n + 2].is_nan(), "0 * Inf must produce NaN");
            assert_eq!(out[i * n], 0.0);
        }
    }
}
