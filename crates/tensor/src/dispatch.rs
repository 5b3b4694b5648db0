//! GEMM kernel dispatch: the rule that picks the kernel for each problem.
//!
//! Every matmul variant enters through the crate-private `dispatch`
//! entry point. The kernel is a pure function of the problem's transpose
//! kind and dims, and [`selection_for`] names it:
//!
//! * **small class** — problems narrower than `NR/2` columns or with fewer
//!   than `SMALL_MACS` multiply-adds run the serial streaming kernels,
//!   `single_chunk` (NN and TN) and `small_nt_unrolled` (NT);
//! * **blocked class** — everything else runs `packed_blocked`, the
//!   pack-and-tile engine: per-chunk A/B packing into the `MR × NR`
//!   micro-kernel, parallel over fixed row chunks.
//!
//! The class split is part of the numeric contract: the small kernels
//! accumulate in a different order than the blocked engine, so crossing
//! it would change bits. Convolutions do not call `dispatch`; they take
//! the class of their whole-batch problem from [`Problem::small`] and
//! drive the micro-kernel themselves (see [`crate::conv`]).
//!
//! **Determinism.** Chunk boundaries depend only on the problem size, and
//! every output element's dot product accumulates row-locally, so the
//! blocked engine is bitwise identical at any thread count.
//!
//! The int8 (`u8 × i8 → i32`) GEMM has its own shape rule, named by
//! [`q_selection_for`]: `q_maddubs` (the AVX2 kernel) for blocked problems
//! at least `Q_MADDUBS_MIN_K` deep while AVX2 is active, `q_rowdot` (the
//! serial streaming kernel) for everything else. Its kernels are exact
//! integer arithmetic, so the choice never changes a result.

use crate::gemm::{
    microkernel, pack_a, pack_b, simd_active, small_nn, small_nt, small_tn, KC, MC, MR, NR,
    SMALL_MACS,
};
use crate::{backend, scratch};

/// Blocked int8 problems at least this deep run the AVX2 `maddubs`
/// kernel when it is active; shallower ones stream through `q_rowdot`.
const Q_MADDUBS_MIN_K: usize = 32;

/// Transpose kind of a GEMM problem. `TT` does not exist in this
/// workspace (no matmul variant produces it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `C += A · B`
    Nn,
    /// `C += Aᵀ · B` (weight-gradient shape)
    Tn,
    /// `C += A · Bᵀ` (input-gradient shape)
    Nt,
}

/// One GEMM problem: logical dims `op(A): (m, k)`, `op(B): (k, n)` plus
/// the operand transpose flags.
#[derive(Debug, Clone, Copy)]
pub struct Problem {
    /// A is stored `(k, m)` row-major and used transposed.
    pub trans_a: bool,
    /// B is stored `(n, k)` row-major and used transposed.
    pub trans_b: bool,
    /// Output rows.
    pub m: usize,
    /// Depth (dot-product length).
    pub k: usize,
    /// Output columns.
    pub n: usize,
}

impl Problem {
    /// Builds a problem description.
    pub fn new(trans_a: bool, trans_b: bool, m: usize, k: usize, n: usize) -> Self {
        Self {
            trans_a,
            trans_b,
            m,
            k,
            n,
        }
    }

    /// The transpose kind.
    pub fn kind(&self) -> Kind {
        match (self.trans_a, self.trans_b) {
            (false, false) => Kind::Nn,
            (true, false) => Kind::Tn,
            (false, true) => Kind::Nt,
            (true, true) => unreachable!("no TT matmul variant exists"),
        }
    }

    /// Total multiply-adds.
    pub fn macs(&self) -> usize {
        self.m * self.k * self.n
    }

    /// Whether this problem belongs to the small (streaming-kernel)
    /// class. Fixed function of the problem size — part of the numeric
    /// contract.
    pub fn small(&self) -> bool {
        self.n < NR / 2 || self.macs() < SMALL_MACS
    }
}

/// Name of the kernel that runs the given problem: `single_chunk`,
/// `small_nt_unrolled` or `packed_blocked`. `bench_kernels` reports it
/// per entry.
pub fn selection_for(trans_a: bool, trans_b: bool, m: usize, k: usize, n: usize) -> &'static str {
    let p = Problem::new(trans_a, trans_b, m, k, n);
    match (p.small(), p.kind()) {
        (true, Kind::Nt) => "small_nt_unrolled",
        (true, Kind::Nn | Kind::Tn) => "single_chunk",
        (false, _) => "packed_blocked",
    }
}

/// GEMM entry point: runs the kernel of the problem's class.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch(
    trans_a: bool,
    trans_b: bool,
    ad: &[f32],
    bd: &[f32],
    od: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let p = Problem::new(trans_a, trans_b, m, k, n);
    match (p.small(), p.kind()) {
        (true, Kind::Nn) => small_nn(ad, bd, od, m, k, n),
        (true, Kind::Tn) => small_tn(ad, bd, od, m, k, n),
        (true, Kind::Nt) => small_nt(ad, bd, od, m, k, n),
        (false, _) => blocked_run(&p, ad, bd, od),
    }
}

// ---------------------------------------------------------------------------
// The blocked engine
// ---------------------------------------------------------------------------

/// Row-chunk granularity of the blocked engine: `MC` rows for NN/NT; TN
/// aims for ~`2^20` multiply-adds per chunk with a single-chunk fallback
/// below `2^21`. A fixed function of the problem size only (determinism
/// contract rule 1).
fn classic_chunk_rows(trans_a: bool, m: usize, k: usize, n: usize) -> usize {
    if !trans_a {
        return MC;
    }
    const TN_PARALLEL_MIN_MACS: usize = 1 << 21;
    if m * k * n < TN_PARALLEL_MIN_MACS {
        return m.max(1);
    }
    const TN_CHUNK_MACS: usize = 1 << 20;
    let per_row = (k * n).max(1);
    let rows = (TN_CHUNK_MACS / per_row).max(1).div_ceil(MR) * MR;
    rows.clamp(MR, MC)
}

/// `packed_blocked`: the pack-and-tile engine, one pool task per row
/// chunk.
fn blocked_run(p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]) {
    let simd = simd_active();
    let rows_per_chunk = classic_chunk_rows(p.trans_a, p.m, p.k, p.n);
    let (trans_a, trans_b, m, k, n) = (p.trans_a, p.trans_b, p.m, p.k, p.n);
    backend::parallel_chunks_mut(od, rows_per_chunk * n, |ci, oc| {
        classic_chunk(
            trans_a,
            trans_b,
            ad,
            bd,
            oc,
            ci * rows_per_chunk,
            k,
            m,
            n,
            simd,
        );
    });
}

/// Blocked GEMM over one chunk of `oc.len() / n` consecutive output rows
/// starting at global row `i0`, packing its own A rows and B panels.
#[allow(clippy::too_many_arguments)]
fn classic_chunk(
    trans_a: bool,
    trans_b: bool,
    ad: &[f32],
    bd: &[f32],
    oc: &mut [f32],
    i0: usize,
    k: usize,
    m: usize,
    n: usize,
    simd: bool,
) {
    let rows = oc.len() / n;
    // Pack buffer comes from the thread-local scratch pool: steady-state
    // training steps repeat the same shapes, so after warmup this is
    // allocation-free.
    let mut pa = scratch::take_filled(rows * KC, 0.0);
    let mut panel = [0f32; KC * NR];
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        pack_a(trans_a, ad, &mut pa, i0, rows, p0, kc, m, k);
        let mut j0 = 0;
        while j0 < n {
            let nr = NR.min(n - j0);
            pack_b(trans_b, bd, &mut panel, p0, kc, j0, nr, k, n);
            microkernel(&pa, KC, &panel, oc, rows, kc, n, j0, nr, simd);
            j0 += NR;
        }
        p0 += KC;
    }
    scratch::give(pa);
}

/// Cache-blocked transpose (the conv weight and weight-gradient
/// layouts): `src` is `(k, m)` row-major, `dst` becomes `(m, k)`
/// row-major. Pure data movement — parallel over destination
/// row blocks with disjoint writes, so scheduling cannot affect values.
pub(crate) fn transpose_into(src: &[f32], dst: &mut [f32], k: usize, m: usize) {
    const TB: usize = 32;
    backend::parallel_chunks_mut(dst, TB * k, |bi, chunk| {
        let i0 = bi * TB;
        let rows = chunk.len() / k;
        let mut j0 = 0;
        while j0 < k {
            let jb = TB.min(k - j0);
            for r in 0..rows {
                let i = i0 + r;
                for j in j0..j0 + jb {
                    chunk[r * k + j] = src[j * m + i];
                }
            }
            j0 += TB;
        }
    });
}

// ---------------------------------------------------------------------------
// Quantized (u8 × i8 → i32) shape rule
// ---------------------------------------------------------------------------

/// Whether the int8 NT problem (`a` is `(m, k)` unsigned codes, `b` is
/// `(n, k)` signed codes) runs `q_maddubs`: outside the small class (the
/// fp32 threshold, [`Problem::small`] — here not a numeric contract, it
/// just keeps tiny problems out of the pool), at least
/// `Q_MADDUBS_MIN_K` deep, and with AVX2 active.
fn q_maddubs_runs(m: usize, k: usize, n: usize) -> bool {
    !Problem::new(false, true, m, k, n).small() && k >= Q_MADDUBS_MIN_K && simd_active()
}

/// Name of the kernel that runs the given int8 problem, `q_rowdot` or
/// `q_maddubs` — the integer twin of [`selection_for`].
pub fn q_selection_for(m: usize, k: usize, n: usize) -> &'static str {
    if q_maddubs_runs(m, k, n) {
        "q_maddubs"
    } else {
        "q_rowdot"
    }
}

/// Quantized GEMM entry point: runs the kernel the shape rule picks.
/// `od` is the row-major `m × n` output.
pub(crate) fn q_dispatch(ad: &[u8], bd: &[i8], od: &mut [i32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if q_maddubs_runs(m, k, n) {
        crate::qgemm::qk_maddubs(ad, bd, od, m, k, n);
    } else {
        crate::qgemm::qk_rowdot(ad, bd, od, m, k, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;
    use crate::Tensor;

    #[test]
    fn shape_rule_picks_the_timed_routine_on_workload_and_bench_shapes() {
        // (trans_a, trans_b, m, k, n, kernel): blocked shapes of every
        // kind, bench_kernels' full-mode and smoke shapes, and
        // sub-threshold problems, which keep the fixed small kernels.
        let table = [
            (false, false, 4096, 4, 36, "packed_blocked"),
            (false, false, 16, 17, 144, "packed_blocked"),
            (true, false, 4, 4096, 36, "packed_blocked"),
            (true, false, 17, 16, 144, "packed_blocked"),
            // bench_kernels full mode.
            (false, false, 256, 256, 256, "packed_blocked"),
            (true, false, 256, 256, 256, "packed_blocked"),
            (false, true, 256, 256, 256, "packed_blocked"),
            (false, true, 32, 400, 120, "packed_blocked"),
            (true, false, 400, 32, 120, "packed_blocked"),
            // bench_kernels smoke mode.
            (false, false, 33, 65, 17, "packed_blocked"),
            (false, true, 64, 64, 64, "packed_blocked"),
            (true, false, 64, 64, 64, "packed_blocked"),
            // Sub-threshold problems.
            (false, false, 4096, 36, 4, "single_chunk"),
            (true, false, 4, 5, 27, "single_chunk"),
            (false, true, 4096, 36, 4, "small_nt_unrolled"),
        ];
        for (ta, tb, m, k, n, want) in table {
            assert_eq!(
                selection_for(ta, tb, m, k, n),
                want,
                "({ta},{tb}) {m}x{k}x{n}"
            );
            let small_kernel = want != "packed_blocked";
            let p = Problem::new(ta, tb, m, k, n);
            assert_eq!(small_kernel, p.small(), "{want} crosses the class split");
        }
        // int8: (m, k, n, routine with AVX2 active).
        for (m, k, n, want) in [
            (32, 16, 101, "q_rowdot"),
            (32, 100, 11, "q_maddubs"),
            (32, Q_MADDUBS_MIN_K, 128, "q_maddubs"),
            (32, Q_MADDUBS_MIN_K - 1, 128, "q_rowdot"),
            (256, 256, 256, "q_maddubs"),
            (32, 400, 120, "q_maddubs"),
            (2, 8, 4, "q_rowdot"),
        ] {
            let want = if simd_active() { want } else { "q_rowdot" };
            assert_eq!(q_selection_for(m, k, n), want, "int8 {m}x{k}x{n}");
        }
    }

    #[test]
    fn tn_chunk_rows_depend_only_on_problem_size() {
        // Below the parallel threshold: one chunk covering every row.
        assert_eq!(classic_chunk_rows(true, 64, 64, 64), 64);
        // Above it: work-balanced, MR-aligned, clamped to [MR, MC].
        let r = classic_chunk_rows(true, 256, 256, 256);
        assert!(r.is_multiple_of(MR) && (MR..=MC).contains(&r));
        assert!(r < 256, "large TN must split into multiple chunks");
        // NN/NT keep the MC granularity.
        assert_eq!(classic_chunk_rows(false, 256, 256, 256), MC);
    }

    #[test]
    fn tn_multi_chunk_split_is_bitwise_identical_to_one_chunk() {
        // 160x160x160 = 4.1M MACs crosses the TN parallel threshold, so
        // the blocked engine runs multiple row chunks; the
        // single-chunk execution of the same blocked loop must agree bit
        // for bit (per-row accumulation is chunk-grouping independent).
        let (m, k, n) = (160, 160, 160);
        let mut rng = XorShiftRng::new(0x7171);
        let a = Tensor::rand_normal(&[k, m], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        assert!(
            classic_chunk_rows(true, m, k, n) < m,
            "test must exercise a split"
        );
        let p = Problem::new(true, false, m, k, n);
        let mut got = vec![0f32; m * n];
        blocked_run(&p, a.data(), b.data(), &mut got);
        let mut want = vec![0f32; m * n];
        classic_chunk(
            true,
            false,
            a.data(),
            b.data(),
            &mut want,
            0,
            k,
            m,
            n,
            simd_active(),
        );
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn transpose_into_round_trips() {
        let (k, m) = (37, 53);
        let mut rng = XorShiftRng::new(0xABCD);
        let src = Tensor::rand_normal(&[k, m], 0.0, 1.0, &mut rng);
        let mut dst = vec![0f32; m * k];
        transpose_into(src.data(), &mut dst, k, m);
        for i in 0..m {
            for j in 0..k {
                assert_eq!(dst[i * k + j].to_bits(), src.data()[j * m + i].to_bits());
            }
        }
    }
}
