//! Fixed-point GEMM kernels: `u8 × i8 → i32`, NT layout.
//!
//! These are the integer counterparts of the crate's f32 GEMM engine:
//! `out[i·n + j] = Σ_p a[i·k + p] · b[j·k + p]` with `a`
//! an `m × k` row-major matrix of *unsigned* codes and `b` an `n × k`
//! row-major matrix of *signed* codes. The NT (row-dot-row) layout is the
//! one every quantized consumer produces naturally: activations ×
//! weight-rows in `xbar-nn`, DAC codes × device-column conductance states
//! in `xbar-core`.
//!
//! **Operand contract.** Every element of `a` must be ≤ [`QGEMM_A_MAX`]
//! (127). With that bound the AVX2 micro-kernel's `maddubs` step — which
//! sums *pairs* of `u8 × i8` products into saturating i16 lanes — can
//! never saturate: `2 · 127 · 128 = 32512 < 32768`. The quantizers in
//! [`crate::quant`] produce ≤ 7-bit unsigned activation codes precisely
//! to keep this bound; the kernels `debug_assert` it.
//!
//! **Determinism.** All arithmetic is exact integer arithmetic, so every
//! kernel — scalar or SIMD, any blocking, any thread count — produces
//! bitwise-identical output. Routine selection (see the `q_*` half of
//! `dispatch`) is therefore free to pick purely on speed, and the
//! serial ≡ parallel contract of the f32 path holds trivially here.
//!
//! **Accumulator width.** `|acc| ≤ k · 127 · 128`, so i32 is exact for
//! `k ≤ 2^31 / 2^14 = 2^17`. [`QGEMM_MAX_K`] names the bound; callers
//! stay far below it (crossbar tiles are ≤ a few hundred rows).

/// Largest value allowed in the unsigned `a` operand (7-bit codes).
pub const QGEMM_A_MAX: u8 = 127;

/// Largest depth for which the i32 accumulator is exact under the
/// operand contract.
pub const QGEMM_MAX_K: usize = 1 << 17;

/// Row-chunk granularity of the parallel `maddubs` kernel. A fixed
/// constant: chunk boundaries cannot change results here, but keeping
/// them shape-only preserves the backend's reproducibility idiom.
#[cfg(target_arch = "x86_64")]
const QMC: usize = 64;

/// Quantized NT GEMM entry point: resolves a routine through the
/// quantized half of the dispatch registry and runs it.
///
/// # Panics
///
/// Panics if slice lengths do not match `m × k` / `n × k` / `m × n`, or
/// if `k` exceeds [`QGEMM_MAX_K`]. Debug builds also assert the
/// [`QGEMM_A_MAX`] operand bound.
pub fn qgemm_nt(a: &[u8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "qgemm_nt: a length");
    assert_eq!(b.len(), n * k, "qgemm_nt: b length");
    assert_eq!(out.len(), m * n, "qgemm_nt: out length");
    assert!(k <= QGEMM_MAX_K, "qgemm_nt: k {k} exceeds exact-i32 bound");
    debug_assert!(
        a.iter().all(|&v| v <= QGEMM_A_MAX),
        "qgemm_nt: unsigned operand exceeds 7-bit code bound"
    );
    if m == 0 || n == 0 {
        return;
    }
    crate::dispatch::q_dispatch(a, b, out, m, k, n);
}

#[inline]
fn dot_u8i8(a: &[u8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        s += x as i32 * y as i32;
    }
    s
}

/// Serial streaming kernel: one dot product per output element. The
/// small-class routine, and the reference every other kernel must match
/// bitwise (they all do, exactly — integer arithmetic).
pub(crate) fn qk_rowdot(a: &[u8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let ar = &a[i * k..][..k];
        let or = &mut out[i * n..][..n];
        for (j, o) in or.iter_mut().enumerate() {
            *o = dot_u8i8(ar, &b[j * k..][..k]);
        }
    }
}

/// AVX2 `maddubs` kernel, parallel over `QMC`-row chunks of the output.
/// Only reachable when [`crate::simd_active`] is true (the dispatch
/// `supports` gate), which implies AVX2 was detected at runtime.
#[cfg(target_arch = "x86_64")]
pub(crate) fn qk_maddubs(a: &[u8], b: &[i8], out: &mut [i32], _m: usize, k: usize, n: usize) {
    crate::backend::parallel_chunks_mut(out, QMC * n, |ci, chunk| {
        let rows = chunk.len() / n;
        // SAFETY: `supports` gating guarantees AVX2 is available.
        unsafe { maddubs_block(a, b, chunk, ci * QMC, rows, k, n) };
    });
}

/// Computes `rows × n` output rows starting at global row `i0`.
///
/// Register tile: 2 `a` rows × 4 `b` rows, eight `ymm` accumulators.
/// Each 32-byte step of the depth loop multiplies unsigned `a` bytes by
/// signed `b` bytes (`maddubs` → i16 pairs, exact under the
/// [`QGEMM_A_MAX`] contract), widens pairs to i32 (`madd` by ones), and
/// adds — all exact, so the horizontal reduction order is free.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn maddubs_block(
    a: &[u8],
    b: &[i8],
    out: &mut [i32],
    i0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    use std::arch::x86_64::*;

    // The last `k % 32` bytes of each dot go through `dot_u8i8` on the
    // tail slices, which LLVM vectorizes: an element-indexed tail loop is
    // slow enough to make shallow depths (k = 16, 48) lose to `q_rowdot`.
    let kv = k - k % 32;
    // Full 2×4 tiles run the fixed-bound kernel below; remainder rows and
    // columns fall back to a generic edge loop. The split matters: with
    // runtime-bounded register tiles LLVM keeps the accumulator array on
    // the stack, and the resulting spill traffic costs the kernel most of
    // its integer-throughput advantage over the f32 path.
    let mut i = 0;
    while i + 2 <= rows {
        let mut j = 0;
        while j + 4 <= n {
            tile_2x4(a, b, out, i0, i, j, k, kv, n);
            j += 4;
        }
        edge_tile(a, b, out, i0, i, 2, j, n - j, k, kv, n);
        i += 2;
    }
    if i < rows {
        edge_tile(a, b, out, i0, i, rows - i, 0, n, k, kv, n);
    }

    #[inline]
    unsafe fn hsum_epi32(v: __m256i) -> i32 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256(v, 1);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
        _mm_cvtsi128_si32(s)
    }

    /// One full register tile: 2 `a` rows × 4 `b` rows, eight *named*
    /// `ymm` accumulators (plus two `a` vectors, one `b` vector and the
    /// ones constant — 12 of the 16 architectural registers, no spills).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn tile_2x4(
        a: &[u8],
        b: &[i8],
        out: &mut [i32],
        i0: usize,
        i: usize,
        j: usize,
        k: usize,
        kv: usize,
        n: usize,
    ) {
        let ones = _mm256_set1_epi16(1);
        let a0 = a.as_ptr().add((i0 + i) * k);
        let a1 = a.as_ptr().add((i0 + i + 1) * k);
        let b0 = b.as_ptr().add(j * k);
        let b1 = b.as_ptr().add((j + 1) * k);
        let b2 = b.as_ptr().add((j + 2) * k);
        let b3 = b.as_ptr().add((j + 3) * k);
        let (mut c00, mut c01, mut c02, mut c03) = (
            _mm256_setzero_si256(),
            _mm256_setzero_si256(),
            _mm256_setzero_si256(),
            _mm256_setzero_si256(),
        );
        let (mut c10, mut c11, mut c12, mut c13) = (
            _mm256_setzero_si256(),
            _mm256_setzero_si256(),
            _mm256_setzero_si256(),
            _mm256_setzero_si256(),
        );
        let mut p = 0;
        while p < kv {
            let av0 = _mm256_loadu_si256(a0.add(p) as *const __m256i);
            let av1 = _mm256_loadu_si256(a1.add(p) as *const __m256i);
            let bv = _mm256_loadu_si256(b0.add(p) as *const __m256i);
            c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(_mm256_maddubs_epi16(av0, bv), ones));
            c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(_mm256_maddubs_epi16(av1, bv), ones));
            let bv = _mm256_loadu_si256(b1.add(p) as *const __m256i);
            c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(_mm256_maddubs_epi16(av0, bv), ones));
            c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(_mm256_maddubs_epi16(av1, bv), ones));
            let bv = _mm256_loadu_si256(b2.add(p) as *const __m256i);
            c02 = _mm256_add_epi32(c02, _mm256_madd_epi16(_mm256_maddubs_epi16(av0, bv), ones));
            c12 = _mm256_add_epi32(c12, _mm256_madd_epi16(_mm256_maddubs_epi16(av1, bv), ones));
            let bv = _mm256_loadu_si256(b3.add(p) as *const __m256i);
            c03 = _mm256_add_epi32(c03, _mm256_madd_epi16(_mm256_maddubs_epi16(av0, bv), ones));
            c13 = _mm256_add_epi32(c13, _mm256_madd_epi16(_mm256_maddubs_epi16(av1, bv), ones));
            p += 32;
        }
        let sums = [
            [
                hsum_epi32(c00),
                hsum_epi32(c01),
                hsum_epi32(c02),
                hsum_epi32(c03),
            ],
            [
                hsum_epi32(c10),
                hsum_epi32(c11),
                hsum_epi32(c12),
                hsum_epi32(c13),
            ],
        ];
        for (r, row) in sums.iter().enumerate() {
            let ar = &a[(i0 + i + r) * k..][..k];
            for (c, &partial) in row.iter().enumerate() {
                let tail = dot_u8i8(&ar[kv..], &b[(j + c) * k..][kv..k]);
                out[(i + r) * n + (j + c)] = partial + tail;
            }
        }
    }

    /// Remainder rows/columns: plain vector dots, one accumulator each.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn edge_tile(
        a: &[u8],
        b: &[i8],
        out: &mut [i32],
        i0: usize,
        i: usize,
        ir: usize,
        j: usize,
        jr: usize,
        k: usize,
        kv: usize,
        n: usize,
    ) {
        let ones = _mm256_set1_epi16(1);
        for r in 0..ir {
            let ar = a.as_ptr().add((i0 + i + r) * k);
            for c in 0..jr {
                let br = b.as_ptr().add((j + c) * k);
                let mut acc = _mm256_setzero_si256();
                let mut p = 0;
                while p < kv {
                    let av = _mm256_loadu_si256(ar.add(p) as *const __m256i);
                    let bv = _mm256_loadu_si256(br.add(p) as *const __m256i);
                    acc = _mm256_add_epi32(
                        acc,
                        _mm256_madd_epi16(_mm256_maddubs_epi16(av, bv), ones),
                    );
                    p += 32;
                }
                let tail = dot_u8i8(&a[(i0 + i + r) * k..][kv..k], &b[(j + c) * k..][kv..k]);
                out[(i + r) * n + (j + c)] = hsum_epi32(acc) + tail;
            }
        }
    }
}

/// Never selected off x86_64 (`simd_active` is false there); kept so the
/// registry compiles on every target.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn qk_maddubs(a: &[u8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    qk_rowdot(a, b, out, m, k, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(m: usize, k: usize, n: usize) -> (Vec<u8>, Vec<i8>) {
        let a: Vec<u8> = (0..m * k).map(|i| ((i * 37 + 11) % 128) as u8).collect();
        let b: Vec<i8> = (0..n * k)
            .map(|i| (((i * 53 + 7) % 256) as i32 - 128) as i8)
            .collect();
        (a, b)
    }

    #[test]
    fn all_kernels_match_rowdot_bitwise() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (7, 33, 9),
            (16, 64, 16),
            (13, 100, 21),
            (32, 16, 72),
            (32, 48, 128),
        ] {
            let (a, b) = fill(m, k, n);
            let mut reference = vec![0i32; m * n];
            qk_rowdot(&a, &b, &mut reference, m, k, n);
            if crate::gemm::simd_active() {
                let mut got = vec![0i32; m * n];
                qk_maddubs(&a, &b, &mut got, m, k, n);
                assert_eq!(got, reference, "qk_maddubs {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn maddubs_extreme_operands_do_not_saturate() {
        // The worst case of the operand contract: a = 127 against
        // b = −128 and +127. Pairs reach ±32512, inside i16.
        let k = 96;
        let a = vec![QGEMM_A_MAX; k];
        let mut b = vec![-128i8; k];
        b[k / 2..].fill(127);
        let mut reference = vec![0i32; 1];
        qk_rowdot(&a, &b, &mut reference, 1, k, 1);
        let expected: i32 = b.iter().map(|&y| 127 * y as i32).sum();
        assert_eq!(reference[0], expected);
        if crate::gemm::simd_active() {
            let mut got = vec![0i32; 1];
            qk_maddubs(&a, &b, &mut got, 1, k, 1);
            assert_eq!(got, reference);
        }
    }

    #[test]
    fn qgemm_nt_serial_parallel_bitwise() {
        let (m, k, n) = (130, 70, 40);
        let (a, b) = fill(m, k, n);
        let mut serial = vec![0i32; m * n];
        crate::backend::force_serial(true);
        qgemm_nt(&a, &b, &mut serial, m, k, n);
        crate::backend::force_serial(false);
        let mut parallel = vec![0i32; m * n];
        qgemm_nt(&a, &b, &mut parallel, m, k, n);
        assert_eq!(serial, parallel);
    }
}
