//! GEMM kernel dispatch: the routine registry and the shape rule that
//! picks one routine per problem.
//!
//! Every matmul variant enters through the crate-private `dispatch`
//! entry point, which runs the registered [`Routine`] that
//! [`selection_for`] names for the problem. The choice is a pure
//! function of the problem's transpose kind and dims:
//!
//! 1. **Class split** — sub-threshold problems (`n < NR/2` or fewer than
//!    `SMALL_MACS` multiply-adds) always run the streaming small kernels.
//!    This boundary is part of the numeric contract: the small kernels
//!    accumulate in a different order than the blocked family, so
//!    crossing it would change bits.
//! 2. **Shape rule** — above the split, NN/NT problems with at least
//!    `DIRECT_A_MIN_M` rows read A in place (`direct_a`), TN problems
//!    with at least `TN_PACKED_MIN_M` rows or `TN_PACKED_MIN_K` depth
//!    transpose A once up front (`tn_packed`), and everything else runs
//!    the reference `packed_blocked`. The thresholds come from timing
//!    every routine on the shapes the paper's workloads dispatch
//!    (DESIGN.md §10).
//!
//! **Determinism.** The rule changes *which* routine runs, never the
//! result. All blocked-family routines are bitwise-identical to each
//! other because the two knobs they vary are bitwise-invariant:
//!
//! * *packing strategy* is pure data movement — per-chunk panels, a
//!   shared per-KC-block buffer, an explicit A-transpose, or reading A
//!   in place through a runtime stride all feed the micro-kernel the
//!   same values in the same order;
//! * *row-chunk granularity* regroups rows across pool jobs, and every
//!   output element's dot product accumulates row-locally.
//!
//! The serial≡parallel contract is likewise preserved: chunk boundaries
//! and the routine choice depend only on the problem size.

use crate::gemm::{
    microkernel, pack_a, pack_b, simd_active, small_nn, small_nt, small_tn, KC, MC, MR, NR,
    SMALL_MACS,
};
use crate::{backend, scratch};

/// Blocked NN/NT problems with at least this many output rows skip the
/// A-panel copy (`direct_a`); shorter ones run `packed_blocked`.
const DIRECT_A_MIN_M: usize = 64;
/// Blocked TN problems with at least this many output rows transpose A
/// up front (`tn_packed`)…
const TN_PACKED_MIN_M: usize = 128;
/// …as do those with at least this depth; the rest run `packed_blocked`.
const TN_PACKED_MIN_K: usize = 2048;
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

/// A named GEMM routine. All routines compute `C += op(A) · op(B)`;
/// routines supporting the same problem are bitwise-identical on it
/// (asserted by `tests/integration_dispatch.rs`).
pub trait Routine: Sync {
    /// Stable registry name (appears in bench JSON).
    fn name(&self) -> &'static str;
    /// Whether this routine can run `p`. Supports-sets never cross the
    /// small/blocked class boundary.
    fn supports(&self, p: &Problem) -> bool;
    /// Runs the routine. `od` is the row-major `m × n` accumulator.
    fn run(&self, p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]);
}

/// Streaming single-chunk kernel for sub-threshold NN/TN problems; runs
/// inline with no packing or pool dispatch.
struct SingleChunk;

impl Routine for SingleChunk {
    fn name(&self) -> &'static str {
        "single_chunk"
    }
    fn supports(&self, p: &Problem) -> bool {
        p.small() && p.kind() != Kind::Nt
    }
    fn run(&self, p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]) {
        match p.kind() {
            Kind::Nn => small_nn(ad, bd, od, p.m, p.k, p.n),
            Kind::Tn => small_tn(ad, bd, od, p.m, p.k, p.n),
            Kind::Nt => unreachable!("single_chunk does not support NT"),
        }
    }
}

/// Four-way unrolled row-dot-row kernel for sub-threshold NT problems.
struct SmallNtUnrolled;

impl Routine for SmallNtUnrolled {
    fn name(&self) -> &'static str {
        "small_nt_unrolled"
    }
    fn supports(&self, p: &Problem) -> bool {
        p.small() && p.kind() == Kind::Nt
    }
    fn run(&self, p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]) {
        small_nt(ad, bd, od, p.m, p.k, p.n);
    }
}

/// The reference pack-and-tile routine: per-chunk A/B packing, `MR = 4`
/// register tiles, classic chunk granularity. Reproduces the
/// pre-dispatch engine exactly.
struct PackedBlocked;

impl Routine for PackedBlocked {
    fn name(&self) -> &'static str {
        "packed_blocked"
    }
    fn supports(&self, p: &Problem) -> bool {
        !p.small()
    }
    fn run(&self, p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]) {
        blocked_run(p, ad, bd, od);
    }
}

/// TN-specialized routine: cache-blocked transpose of A into scratch,
/// then the direct-A NN path. Replaces the per-chunk strided column
/// gather (and the hand-tuned TN chunk constants) with one contiguous
/// pass.
struct TnPacked;

impl Routine for TnPacked {
    fn name(&self) -> &'static str {
        "tn_packed"
    }
    fn supports(&self, p: &Problem) -> bool {
        !p.small() && p.trans_a
    }
    fn run(&self, p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]) {
        let mut at = scratch::take_filled(p.m * p.k, 0.0);
        transpose_into(ad, &mut at, p.k, p.m);
        // The transpose left A in NN row-major layout, so the kernel can
        // read it directly — packing it again would be a second copy.
        direct_a_run(false, &at, bd, od, p.k, p.n);
        scratch::give(at);
    }
}

/// Zero-pack-A routine: each `KC` block of B is packed once into a
/// shared buffer, and the micro-kernel reads NN-layout A directly (row
/// stride `k`) instead of copying row panels first. The kernel consumes
/// the same values in the same order, so skipping the pack is
/// bitwise-invariant; it wins on tall problems where the A copy rivals
/// the compute.
struct DirectA;

impl Routine for DirectA {
    fn name(&self) -> &'static str {
        "direct_a"
    }
    fn supports(&self, p: &Problem) -> bool {
        !p.small() && !p.trans_a
    }
    fn run(&self, p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]) {
        direct_a_run(p.trans_b, ad, bd, od, p.k, p.n);
    }
}

/// The routine registry.
pub fn routines() -> &'static [&'static dyn Routine] {
    static REGISTRY: [&dyn Routine; 5] = [
        &SingleChunk,
        &SmallNtUnrolled,
        &PackedBlocked,
        &TnPacked,
        &DirectA,
    ];
    &REGISTRY
}

/// Names of the routines that support the given problem, in registry
/// order.
pub fn candidate_names(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<&'static str> {
    let p = Problem::new(trans_a, trans_b, m, k, n);
    routines()
        .iter()
        .filter(|r| r.supports(&p))
        .map(|r| r.name())
        .collect()
}

/// Runs one named routine directly, bypassing the shape rule (test
/// hook). Returns `false` if the routine is unknown or does not support
/// the problem. Zero-sized problems are a successful no-op.
#[allow(clippy::too_many_arguments)]
pub fn run_routine(
    name: &str,
    trans_a: bool,
    trans_b: bool,
    ad: &[f32],
    bd: &[f32],
    od: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) -> bool {
    let Some(r) = routines().iter().find(|r| r.name() == name) else {
        return false;
    };
    let p = Problem::new(trans_a, trans_b, m, k, n);
    if m == 0 || k == 0 || n == 0 {
        return true;
    }
    if !r.supports(&p) {
        return false;
    }
    r.run(&p, ad, bd, od);
    true
}

/// The shape rule: the routine that runs `p`.
fn select(p: &Problem) -> &'static dyn Routine {
    match p.kind() {
        Kind::Nt if p.small() => &SmallNtUnrolled,
        _ if p.small() => &SingleChunk,
        Kind::Tn if p.m >= TN_PACKED_MIN_M || p.k >= TN_PACKED_MIN_K => &TnPacked,
        Kind::Nn | Kind::Nt if p.m >= DIRECT_A_MIN_M => &DirectA,
        _ => &PackedBlocked,
    }
}

/// Registry name of the routine that runs the given problem — also used
/// by `bench_kernels` to report per-entry routine names.
pub fn selection_for(trans_a: bool, trans_b: bool, m: usize, k: usize, n: usize) -> &'static str {
    select(&Problem::new(trans_a, trans_b, m, k, n)).name()
}

/// GEMM entry point: runs the routine the shape rule picks.
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
    select(&p).run(&p, ad, bd, od);
}

// ---------------------------------------------------------------------------
// Execution engines shared by the blocked routines
// ---------------------------------------------------------------------------

/// Classic chunk granularity, retained verbatim for the reference
/// routine: `MC` rows for NN/NT; TN aims for ~`2^20` multiply-adds per
/// chunk with a single-chunk fallback below `2^21`. A fixed function of
/// the problem size only (determinism contract rule 1).
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

/// Per-chunk pack-and-tile engine (the pre-dispatch `gemm` body).
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

/// Direct-A engine: per `KC` depth block, B is packed once into a shared
/// panel run, the next block is packed into the inactive buffer before
/// the current block's row chunks are dispatched (double buffering), and
/// each `MC`-row chunk feeds the micro-kernel its A rows straight from
/// the NN-layout matrix (row stride `k`).
///
/// Iterating depth blocks *outside* the chunk dispatch is bitwise
/// identical to the per-chunk loop: each output element still receives
/// its block partials in increasing `p0` order, and each partial is the
/// same micro-kernel FMA chain.
fn direct_a_run(trans_b: bool, ad: &[f32], bd: &[f32], od: &mut [f32], k: usize, n: usize) {
    let simd = simd_active();
    let panels = n.div_ceil(NR);
    let blen = panels * KC * NR;
    let mut cur = scratch::take_filled(blen, 0.0);
    let mut nxt = scratch::take_filled(blen, 0.0);
    pack_block(trans_b, bd, &mut cur, 0, KC.min(k), k, n);
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        let next_p0 = p0 + KC;
        if next_p0 < k {
            pack_block(trans_b, bd, &mut nxt, next_p0, KC.min(k - next_p0), k, n);
        }
        let cur_ref: &[f32] = &cur;
        backend::parallel_chunks_mut(od, MC * n, |ci, oc| {
            let rows = oc.len() / n;
            let ablock = &ad[ci * MC * k + p0..];
            let mut j0 = 0;
            let mut ji = 0;
            while j0 < n {
                let nr = NR.min(n - j0);
                let panel = &cur_ref[ji * KC * NR..(ji + 1) * KC * NR];
                microkernel(ablock, k, panel, oc, rows, kc, n, j0, nr, simd);
                j0 += NR;
                ji += 1;
            }
        });
        std::mem::swap(&mut cur, &mut nxt);
        p0 += KC;
    }
    scratch::give(nxt);
    scratch::give(cur);
}

/// Packs all `NR`-wide panels of one `kc`-deep block of op(B) into a
/// contiguous panel run (`panels × KC × NR`, only the first `kc` rows of
/// each panel are meaningful).
fn pack_block(
    trans_b: bool,
    bd: &[f32],
    buf: &mut [f32],
    p0: usize,
    kc: usize,
    k: usize,
    n: usize,
) {
    let mut j0 = 0;
    let mut ji = 0;
    while j0 < n {
        let nr = NR.min(n - j0);
        let panel = &mut buf[ji * KC * NR..(ji + 1) * KC * NR];
        pack_b(trans_b, bd, panel, p0, kc, j0, nr, k, n);
        j0 += NR;
        ji += 1;
    }
}

/// Cache-blocked transpose: `src` is `(k, m)` row-major, `dst` becomes
/// `(m, k)` row-major. Pure data movement — parallel over destination
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
// Quantized (u8 × i8 → i32) routine registry and shape rule
// ---------------------------------------------------------------------------

/// One quantized NT GEMM problem: `a` is `(m, k)` unsigned codes, `b` is
/// `(n, k)` signed codes, output is `m × n` i32. There is only one
/// transpose kind (NT — every quantized consumer is row-dot-row), so the
/// problem is just its dims.
#[derive(Debug, Clone, Copy)]
pub struct QProblem {
    /// Output rows.
    pub m: usize,
    /// Depth (dot-product length).
    pub k: usize,
    /// Output columns.
    pub n: usize,
}

impl QProblem {
    /// Builds a problem description.
    pub fn new(m: usize, k: usize, n: usize) -> Self {
        Self { m, k, n }
    }

    /// Total multiply-adds.
    pub fn macs(&self) -> usize {
        self.m * self.k * self.n
    }

    /// Whether this problem runs the serial streaming kernel regardless
    /// of depth. Same threshold as the f32 split. Unlike the f32 boundary
    /// this one is *not* a numeric contract — integer kernels are all
    /// bitwise-identical — it just keeps tiny problems out of the pool.
    pub fn small(&self) -> bool {
        self.n < NR / 2 || self.macs() < SMALL_MACS
    }
}

/// A named quantized GEMM routine. All routines are exact integer
/// arithmetic and therefore bitwise-identical wherever they overlap.
pub trait QRoutine: Sync {
    /// Stable registry name (appears in bench JSON).
    fn name(&self) -> &'static str;
    /// Whether this routine can run `p`.
    fn supports(&self, p: &QProblem) -> bool;
    /// Runs the routine. `od` is the row-major `m × n` output.
    fn run(&self, p: &QProblem, ad: &[u8], bd: &[i8], od: &mut [i32]);
}

/// Serial streaming kernel: the small-class routine, and the blocked one
/// for shallow depths (or without AVX2).
struct QRowDot;

impl QRoutine for QRowDot {
    fn name(&self) -> &'static str {
        "q_rowdot"
    }
    fn supports(&self, _p: &QProblem) -> bool {
        true
    }
    fn run(&self, p: &QProblem, ad: &[u8], bd: &[i8], od: &mut [i32]) {
        crate::qgemm::qk_rowdot(ad, bd, od, p.m, p.k, p.n);
    }
}

/// AVX2 `maddubs` micro-kernel, parallel over row chunks.
struct QMaddubs;

impl QRoutine for QMaddubs {
    fn name(&self) -> &'static str {
        "q_maddubs"
    }
    fn supports(&self, p: &QProblem) -> bool {
        !p.small() && simd_active()
    }
    fn run(&self, p: &QProblem, ad: &[u8], bd: &[i8], od: &mut [i32]) {
        crate::qgemm::qk_maddubs(ad, bd, od, p.m, p.k, p.n);
    }
}

/// The quantized routine registry.
pub fn q_routines() -> &'static [&'static dyn QRoutine] {
    static REGISTRY: [&dyn QRoutine; 2] = [&QRowDot, &QMaddubs];
    &REGISTRY
}

/// Names of the quantized routines that support the given problem, in
/// registry order.
pub fn q_candidate_names(m: usize, k: usize, n: usize) -> Vec<&'static str> {
    let p = QProblem::new(m, k, n);
    q_routines()
        .iter()
        .filter(|r| r.supports(&p))
        .map(|r| r.name())
        .collect()
}

/// Runs one named quantized routine directly, bypassing the shape rule
/// (test hook). Returns `false` if the routine is unknown or does not
/// support the problem.
pub fn run_q_routine(
    name: &str,
    ad: &[u8],
    bd: &[i8],
    od: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
) -> bool {
    let Some(r) = q_routines().iter().find(|r| r.name() == name) else {
        return false;
    };
    let p = QProblem::new(m, k, n);
    if m == 0 || k == 0 || n == 0 {
        return true;
    }
    if !r.supports(&p) {
        return false;
    }
    r.run(&p, ad, bd, od);
    true
}

/// The quantized shape rule: the routine that runs `p`.
fn q_select(p: &QProblem) -> &'static dyn QRoutine {
    if QMaddubs.supports(p) && p.k >= Q_MADDUBS_MIN_K {
        &QMaddubs
    } else {
        &QRowDot
    }
}

/// Registry name of the routine that runs the given quantized problem —
/// the integer twin of [`selection_for`].
pub fn q_selection_for(m: usize, k: usize, n: usize) -> &'static str {
    q_select(&QProblem::new(m, k, n)).name()
}

/// Quantized GEMM entry point: runs the routine the shape rule picks.
pub(crate) fn q_dispatch(ad: &[u8], bd: &[i8], od: &mut [i32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let p = QProblem::new(m, k, n);
    q_select(&p).run(&p, ad, bd, od);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;
    use crate::Tensor;

    #[test]
    fn registry_names_are_unique_and_every_problem_has_candidates() {
        let names: Vec<_> = routines().iter().map(|r| r.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate routine name");
        for (ta, tb) in [(false, false), (true, false), (false, true)] {
            for (m, k, n) in [(2, 3, 4), (256, 256, 256)] {
                assert!(
                    !candidate_names(ta, tb, m, k, n).is_empty(),
                    "no candidate for ({ta},{tb}) {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn supports_sets_never_cross_the_class_boundary() {
        let small = Problem::new(false, false, 4, 5, 8);
        let blocked = Problem::new(false, false, 256, 256, 256);
        assert!(small.small() && !blocked.small());
        for r in routines() {
            assert!(
                !(r.supports(&small) && r.supports(&blocked)),
                "{} crosses the small/blocked boundary",
                r.name()
            );
        }
    }

    #[test]
    fn shape_rule_picks_the_timed_routine_on_workload_and_bench_shapes() {
        // (trans_a, trans_b, m, k, n, routine): the heaviest blocked
        // shapes of the three benchmark workloads, both sides of every
        // threshold, and bench_kernels' full-mode and smoke shapes.
        let table = [
            // train_resnet20 / mc_faults_vgg9 heavy shapes.
            (false, false, 4096, 4, 36, "direct_a"),
            (false, false, 16, 17, 144, "packed_blocked"),
            (true, false, 4, 4096, 36, "tn_packed"),
            (true, false, 17, 16, 144, "packed_blocked"),
            // Thresholds, one step either side.
            (false, false, DIRECT_A_MIN_M, 64, 64, "direct_a"),
            (false, true, DIRECT_A_MIN_M - 1, 64, 64, "packed_blocked"),
            (true, false, TN_PACKED_MIN_M, 64, 64, "tn_packed"),
            (true, false, TN_PACKED_MIN_M - 1, 64, 64, "packed_blocked"),
            (true, false, 8, TN_PACKED_MIN_K, 16, "tn_packed"),
            (true, false, 8, TN_PACKED_MIN_K - 1, 16, "packed_blocked"),
            // bench_kernels full mode.
            (false, false, 256, 256, 256, "direct_a"),
            (true, false, 256, 256, 256, "tn_packed"),
            (false, true, 256, 256, 256, "direct_a"),
            (false, true, 2048, 150, 16, "direct_a"),
            (false, true, 32, 400, 120, "packed_blocked"),
            (false, true, 2048, 576, 128, "direct_a"),
            (false, true, 8192, 288, 32, "direct_a"),
            (true, false, 400, 32, 120, "tn_packed"),
            // bench_kernels smoke mode.
            (false, false, 33, 65, 17, "packed_blocked"),
            (false, true, 64, 64, 64, "direct_a"),
            (true, false, 64, 64, 64, "packed_blocked"),
            // Sub-threshold problems keep the fixed small kernels.
            (false, false, 4096, 36, 4, "single_chunk"),
            (true, false, 4, 5, 27, "single_chunk"),
            (false, true, 4096, 36, 4, "small_nt_unrolled"),
        ];
        for (ta, tb, m, k, n, want) in table {
            let p = Problem::new(ta, tb, m, k, n);
            let r = select(&p);
            assert_eq!(r.name(), want, "({ta},{tb}) {m}x{k}x{n}");
            assert!(r.supports(&p), "{want} does not support {m}x{k}x{n}");
            let small_kernel = matches!(want, "single_chunk" | "small_nt_unrolled");
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
            let p = QProblem::new(m, k, n);
            let r = q_select(&p);
            let want = if simd_active() { want } else { "q_rowdot" };
            assert_eq!(r.name(), want, "int8 {m}x{k}x{n}");
            assert!(r.supports(&p), "{want} does not support int8 {m}x{k}x{n}");
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
        // the reference routine runs multiple row chunks; the
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
    fn every_blocked_routine_is_bitwise_identical_to_the_reference() {
        // Ragged blocked shapes per kind; the big bench shapes live in
        // tests/integration_dispatch.rs.
        for (ta, tb, m, k, n) in [
            (false, false, 70, 300, 33),
            (false, true, 70, 300, 33),
            (true, false, 70, 300, 33),
            (false, false, 97, 89, 83),
            (true, false, 97, 89, 83),
            (false, true, 97, 89, 83),
        ] {
            let p = Problem::new(ta, tb, m, k, n);
            assert!(!p.small());
            let mut rng = XorShiftRng::new(0x9000 + m as u64 + u64::from(ta) + 2 * u64::from(tb));
            let a_shape = if ta { [k, m] } else { [m, k] };
            let b_shape = if tb { [n, k] } else { [k, n] };
            let a = Tensor::rand_normal(&a_shape, 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(&b_shape, 0.0, 1.0, &mut rng);
            let mut want = vec![0f32; m * n];
            assert!(run_routine(
                "packed_blocked",
                ta,
                tb,
                a.data(),
                b.data(),
                &mut want,
                m,
                k,
                n
            ));
            for name in candidate_names(ta, tb, m, k, n) {
                let mut got = vec![0f32; m * n];
                assert!(run_routine(
                    name,
                    ta,
                    tb,
                    a.data(),
                    b.data(),
                    &mut got,
                    m,
                    k,
                    n
                ));
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{name} differs from reference on ({ta},{tb}) {m}x{k}x{n}"
                    );
                }
            }
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

    #[test]
    fn run_routine_rejects_unknown_and_unsupported() {
        let a = [1.0f32; 64];
        let mut o = [0f32; 64];
        assert!(!run_routine(
            "no_such", false, false, &a, &a, &mut o, 8, 8, 8
        ));
        // Blocked routine on a small problem is refused.
        assert!(!run_routine(
            "packed_blocked",
            false,
            false,
            &a,
            &a,
            &mut o,
            8,
            8,
            8
        ));
        // Zero dims are a successful no-op.
        assert!(run_routine(
            "packed_blocked",
            false,
            false,
            &a,
            &a,
            &mut o[..0],
            0,
            8,
            8
        ));
    }

    #[test]
    fn q_registry_names_unique_and_small_problems_have_the_fixed_kernel() {
        let mut names: Vec<_> = q_routines().iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), q_routines().len());
        // q_rowdot supports everything; the blocked candidate exists for
        // blocked shapes wherever its AVX2 kernel can run.
        assert_eq!(q_candidate_names(2, 8, 4), vec!["q_rowdot"]);
        if simd_active() {
            assert!(q_candidate_names(256, 256, 256).len() >= 2);
        }
    }

    #[test]
    fn run_q_routine_rejects_unknown_and_unsupported() {
        let (m, k, n) = (2, 8, 4);
        let a = vec![1u8; m * k];
        let b = vec![1i8; n * k];
        let mut out = vec![0i32; m * n];
        assert!(!run_q_routine("nope", &a, &b, &mut out, m, k, n));
        // Blocked-only routine on a small problem.
        assert!(!run_q_routine("q_maddubs", &a, &b, &mut out, m, k, n));
        assert!(run_q_routine("q_rowdot", &a, &b, &mut out, m, k, n));
        assert!(out.iter().all(|&v| v == k as i32));
    }
}
