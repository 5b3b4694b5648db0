use xbar_tensor::{linalg, ShapeError, Tensor};

use crate::MappingError;

/// A validated periphery matrix `S` (paper Sec. III-B/III-C).
///
/// `S` has shape `N_O × N_D`, entries restricted to `{−1, 0, +1}` (so it is
/// implementable as additions/subtractions of digitized column outputs),
/// and satisfies the paper's two sufficient conditions:
///
/// 1. `rank(S) = N_O` — any signed `W` lies in the column space of `S`;
/// 2. there exists `x_h > 0` with `S·x_h = 0` — any particular solution of
///    `S·m = w` can be shifted (`m + α·x_h`) into the non-negative orthant.
///
/// The three standard stencils are provided as constructors
/// ([`PeripheryMatrix::acm`], [`PeripheryMatrix::bias_column`],
/// [`PeripheryMatrix::double_element`]); arbitrary user matrices can be
/// validated through [`PeripheryMatrix::try_new`].
///
/// Besides the dense matrix, every constructor records each row's
/// non-zeros as (column, sign) pairs in ascending column order — the
/// ±1 stencil the hardware actually runs. Every product by `S`
/// ([`PeripheryMatrix::combine`], [`PeripheryMatrix::spread`],
/// [`PeripheryMatrix::apply`], [`PeripheryMatrix::apply_transposed`])
/// and the fault remap walk that stencil instead of the dense matrix.
///
/// # Example
///
/// ```
/// use xbar_core::PeripheryMatrix;
///
/// let s = PeripheryMatrix::acm(3);
/// assert_eq!(s.n_out(), 3);
/// assert_eq!(s.n_dev(), 4);
/// // Row i subtracts column i+1 from column i:
/// assert_eq!(s.matrix().at(&[0, 0]), 1.0);
/// assert_eq!(s.matrix().at(&[0, 1]), -1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PeripheryMatrix {
    s: Tensor,
    null_vector: Vec<f32>,
    /// `S`'s non-zeros as (column, sign) pairs, row after row, each row
    /// in ascending column order.
    taps: Vec<(usize, f32)>,
    /// Row `o`'s non-zeros are `taps[row_start[o]..row_start[o + 1]]`.
    row_start: Vec<usize>,
}

/// Tolerance used for rank and null-space computations. Periphery entries
/// are exactly representable integers so this only guards float roundoff.
const TOL: f32 = 1e-5;

impl PeripheryMatrix {
    /// The adjacent connection matrix of the paper (Fig. 2): row `j` is
    /// `+1` at column `j` and `−1` at column `j + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n_out == 0`.
    pub fn acm(n_out: usize) -> Self {
        assert!(n_out > 0, "periphery needs at least one output");
        let nd = n_out + 1;
        let mut s = Tensor::zeros(&[n_out, nd]);
        for j in 0..n_out {
            *s.at_mut(&[j, j]) = 1.0;
            *s.at_mut(&[j, j + 1]) = -1.0;
        }
        Self::from_dense(s, vec![1.0; nd])
    }

    /// The bias-column mapping (Fig. 1b): row `j` is `+1` at column `j` and
    /// `−1` at the shared reference column `N_O`.
    ///
    /// # Panics
    ///
    /// Panics if `n_out == 0`.
    pub fn bias_column(n_out: usize) -> Self {
        assert!(n_out > 0, "periphery needs at least one output");
        let nd = n_out + 1;
        let mut s = Tensor::zeros(&[n_out, nd]);
        for j in 0..n_out {
            *s.at_mut(&[j, j]) = 1.0;
            *s.at_mut(&[j, nd - 1]) = -1.0;
        }
        Self::from_dense(s, vec![1.0; nd])
    }

    /// The double-element mapping (Fig. 1a): row `j` is `+1` at column `2j`
    /// and `−1` at column `2j + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n_out == 0`.
    pub fn double_element(n_out: usize) -> Self {
        assert!(n_out > 0, "periphery needs at least one output");
        let nd = 2 * n_out;
        let mut s = Tensor::zeros(&[n_out, nd]);
        for j in 0..n_out {
            *s.at_mut(&[j, 2 * j]) = 1.0;
            *s.at_mut(&[j, 2 * j + 1]) = -1.0;
        }
        Self::from_dense(s, vec![1.0; nd])
    }

    /// Builds the block-diagonal composition of `blocks` — the periphery
    /// of a *tiled* layer, where each physical column-group of crossbar
    /// tiles carries its own local stencil (and, for BC/ACM, its own
    /// reference column).
    ///
    /// The composition inherits validity from its blocks without
    /// re-running the expensive rank check: the rank of a block-diagonal
    /// matrix is the sum of the block ranks, and the concatenation of the
    /// blocks' strictly positive null vectors is a strictly positive null
    /// vector of the whole.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty.
    pub fn block_diagonal(blocks: &[PeripheryMatrix]) -> Self {
        assert!(!blocks.is_empty(), "block-diagonal periphery needs blocks");
        if blocks.len() == 1 {
            return blocks[0].clone();
        }
        let n_out: usize = blocks.iter().map(PeripheryMatrix::n_out).sum();
        let nd: usize = blocks.iter().map(PeripheryMatrix::n_dev).sum();
        let mut s = Tensor::zeros(&[n_out, nd]);
        let mut null_vector = Vec::with_capacity(nd);
        let (mut r0, mut c0) = (0, 0);
        for b in blocks {
            s.write_block(r0, c0, &b.s);
            null_vector.extend_from_slice(b.null_vector());
            r0 += b.n_out();
            c0 += b.n_dev();
        }
        Self::from_dense(s, null_vector)
    }

    /// Folds a device-column permutation into this stencil: returns
    /// `S_p = S · Pᵀ`, the periphery of an array whose physical device
    /// column `p` stores logical device column `perm[p]`.
    ///
    /// Validity is inherited by construction (no rank recheck needed):
    /// permuting columns of a ternary matrix keeps it ternary, preserves
    /// row rank, and permutes the strictly positive null vector into
    /// another strictly positive null vector (`x_h_p[p] = x_h[perm[p]]`).
    /// This is how [`crate::Mapping::Perm`] keeps `W = S_p · (P·M)` exact:
    /// `S_p · P · M = S · Pᵀ · P · M = S · M`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n_dev()`.
    pub fn permuted(&self, perm: &[usize]) -> Self {
        let nd = self.n_dev();
        assert_eq!(perm.len(), nd, "permutation length must equal N_D");
        let mut seen = vec![false; nd];
        for &l in perm {
            assert!(l < nd && !seen[l], "not a permutation of 0..{nd}");
            seen[l] = true;
        }
        let n_out = self.n_out();
        let mut s = Tensor::zeros(&[n_out, nd]);
        let mut null_vector = Vec::with_capacity(nd);
        for (phys, &logical) in perm.iter().enumerate() {
            for i in 0..n_out {
                *s.at_mut(&[i, phys]) = self.s.at(&[i, logical]);
            }
            null_vector.push(self.null_vector[logical]);
        }
        Self::from_dense(s, null_vector)
    }

    /// The diagonal block of rows `r0..r0 + rows` and columns
    /// `c0..c0 + cols` as a periphery of its own — one column group's
    /// local stencil, cut out of a block-diagonal layer periphery (any
    /// folded-in row permutation comes along).
    ///
    /// Validity is inherited, so the rank computation of
    /// [`PeripheryMatrix::try_new`] is not rerun: the block's rows are
    /// rows of a full-rank `S`, and the parent's null vector restricted to
    /// the block's columns is a strictly positive null vector of the block
    /// — provided each of those rows keeps all its non-zeros inside the
    /// block's columns, which is checked in `O(nnz)`.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InvalidPeriphery`] if the block is empty or
    /// out of bounds, or if one of its rows has a non-zero outside its
    /// columns.
    pub fn diagonal_block(
        &self,
        r0: usize,
        rows: usize,
        c0: usize,
        cols: usize,
    ) -> Result<Self, MappingError> {
        let (n_out, nd) = (self.n_out(), self.n_dev());
        if rows == 0 || cols == 0 || r0 + rows > n_out || c0 + cols > nd {
            return Err(MappingError::InvalidPeriphery {
                reason: format!(
                    "block of {rows} x {cols} at ({r0}, {c0}) is empty or outside \
                     the {n_out} x {nd} matrix"
                ),
            });
        }
        let c_end = c0 + cols;
        if let Some(o) = (r0..r0 + rows).find(|&o| {
            self.row_taps(o)
                .iter()
                .any(|&(c, _)| !(c0..c_end).contains(&c))
        }) {
            return Err(MappingError::InvalidPeriphery {
                reason: format!("row {o} has a non-zero outside columns {c0}..{c_end}"),
            });
        }
        Ok(Self::from_dense(
            self.s.block(r0, rows, c0, cols),
            self.null_vector[c0..c_end].to_vec(),
        ))
    }

    /// Validates an arbitrary candidate periphery matrix against the
    /// paper's conditions.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InvalidPeriphery`] if any entry is outside
    /// `{−1, 0, +1}`, if `rank(S) < N_O`, or if no strictly positive null
    /// vector can be certified. The positive-null-vector search tries the
    /// paper's canonical certificate `x_h = 1` (rows summing to zero),
    /// then single-vector null bases; matrices needing a genuinely
    /// non-trivial positive combination are conservatively rejected.
    pub fn try_new(s: Tensor) -> Result<Self, MappingError> {
        if s.ndim() != 2 {
            return Err(MappingError::InvalidPeriphery {
                reason: format!("expected 2-D matrix, got shape {:?}", s.shape()),
            });
        }
        let (n_out, nd) = (s.shape()[0], s.shape()[1]);
        if n_out == 0 || nd == 0 {
            return Err(MappingError::InvalidPeriphery {
                reason: "empty matrix".into(),
            });
        }
        for (i, &v) in s.data().iter().enumerate() {
            if v != 0.0 && v != 1.0 && v != -1.0 {
                return Err(MappingError::InvalidPeriphery {
                    reason: format!("entry {i} is {v}, not in {{-1, 0, +1}}"),
                });
            }
        }
        // Condition 1: full row rank.
        let r = linalg::rank(&s, TOL).map_err(MappingError::from)?;
        if r != n_out {
            return Err(MappingError::InvalidPeriphery {
                reason: format!("rank(S) = {r} but N_O = {n_out}; W would not span"),
            });
        }
        // Condition 2: strictly positive null vector.
        let null_vector =
            find_positive_null_vector(&s).ok_or_else(|| MappingError::InvalidPeriphery {
                reason: "no strictly positive null vector found; \
                         non-negative decomposition not guaranteed"
                    .into(),
            })?;
        Ok(Self::from_dense(s, null_vector))
    }

    /// Wraps a valid dense `S` and its null vector, reading off the
    /// stencil every product runs on.
    fn from_dense(s: Tensor, null_vector: Vec<f32>) -> Self {
        let nd = s.shape()[1];
        let mut taps = Vec::new();
        let mut row_start = vec![0];
        for row in s.data().chunks_exact(nd) {
            taps.extend(
                row.iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0.0)
                    .map(|(c, &v)| (c, v)),
            );
            row_start.push(taps.len());
        }
        Self {
            s,
            null_vector,
            taps,
            row_start,
        }
    }

    /// Row `o`'s non-zeros as (column, sign) pairs, in ascending column
    /// order.
    pub(crate) fn row_taps(&self, o: usize) -> &[(usize, f32)] {
        &self.taps[self.row_start[o]..self.row_start[o + 1]]
    }

    /// The underlying `N_O × N_D` matrix. Products by `S` should use the
    /// stencil methods ([`PeripheryMatrix::apply`] and friends), which
    /// return the same bits in `O(nnz)`.
    pub fn matrix(&self) -> &Tensor {
        &self.s
    }

    /// Number of signed outputs `N_O`.
    pub fn n_out(&self) -> usize {
        self.s.shape()[0]
    }

    /// Number of crossbar (device) columns `N_D`.
    pub fn n_dev(&self) -> usize {
        self.s.shape()[1]
    }

    /// The certified strictly positive null vector `x_h` (`S·x_h = 0`).
    /// For all three standard mappings this is the all-ones vector.
    pub fn null_vector(&self) -> &[f32] {
        &self.null_vector
    }

    /// Applies the periphery combine to a batch of raw column outputs:
    /// `Y_dev (batch × N_D)  →  Y (batch × N_O)`, i.e. `Y = Y_dev · Sᵀ`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `y_dev` is not `(batch, N_D)`.
    pub fn combine(&self, y_dev: &Tensor) -> Result<Tensor, MappingError> {
        let (no, nd) = (self.n_out(), self.n_dev());
        expect_dim("combine", y_dev, 1, nd)?;
        let mut y = Tensor::zeros(&[y_dev.shape()[0], no]);
        for (src, dst) in y_dev
            .data()
            .chunks_exact(nd)
            .zip(y.data_mut().chunks_exact_mut(no))
        {
            for (o, d) in dst.iter_mut().enumerate() {
                for &(c, sign) in self.row_taps(o) {
                    *d += sign * src[c];
                }
            }
        }
        Ok(y)
    }

    /// Adjoint of [`PeripheryMatrix::combine`], used for gradient routing:
    /// `G (batch × N_O)  →  G_dev (batch × N_D)`, i.e. `G_dev = G · S`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `grad` is not `(batch, N_O)`.
    pub fn spread(&self, grad: &Tensor) -> Result<Tensor, MappingError> {
        let (no, nd) = (self.n_out(), self.n_dev());
        expect_dim("spread", grad, 1, no)?;
        let mut g_dev = Tensor::zeros(&[grad.shape()[0], nd]);
        for (src, dst) in grad
            .data()
            .chunks_exact(no)
            .zip(g_dev.data_mut().chunks_exact_mut(nd))
        {
            for (o, &g) in src.iter().enumerate() {
                for &(c, sign) in self.row_taps(o) {
                    dst[c] += sign * g;
                }
            }
        }
        Ok(g_dev)
    }

    /// The signed matrix a conductance matrix realises:
    /// `M (N_D × n)  →  W (N_O × n)`, i.e. `W = S · M`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `m` is not `(N_D, n)`.
    pub fn apply(&self, m: &Tensor) -> Result<Tensor, MappingError> {
        expect_dim("apply", m, 0, self.n_dev())?;
        let n = m.shape()[1];
        let mut w = Tensor::zeros(&[self.n_out(), n]);
        let (src, dst) = (m.data(), w.data_mut());
        for o in 0..self.n_out() {
            let row = &mut dst[o * n..(o + 1) * n];
            for &(c, sign) in self.row_taps(o) {
                for (d, &v) in row.iter_mut().zip(&src[c * n..(c + 1) * n]) {
                    *d += sign * v;
                }
            }
        }
        Ok(w)
    }

    /// Routes output-side rows back to the device columns:
    /// `G (N_O × n)  →  Sᵀ·G (N_D × n)`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `g` is not `(N_O, n)`.
    pub fn apply_transposed(&self, g: &Tensor) -> Result<Tensor, MappingError> {
        expect_dim("apply_transposed", g, 0, self.n_out())?;
        let n = g.shape()[1];
        let mut out = Tensor::zeros(&[self.n_dev(), n]);
        let (src, dst) = (g.data(), out.data_mut());
        for o in 0..self.n_out() {
            let row = &src[o * n..(o + 1) * n];
            for &(c, sign) in self.row_taps(o) {
                for (d, &v) in dst[c * n..(c + 1) * n].iter_mut().zip(row) {
                    *d += sign * v;
                }
            }
        }
        Ok(out)
    }

    /// Number of non-zero entries — the count of periphery add/sub
    /// operations per MVM.
    pub fn num_ops(&self) -> usize {
        self.taps.len()
    }
}

/// Checks that `t` is a 2-D operand whose `axis` dimension is `len`.
fn expect_dim(op: &'static str, t: &Tensor, axis: usize, len: usize) -> Result<(), MappingError> {
    if t.ndim() == 2 && t.shape()[axis] == len {
        return Ok(());
    }
    let what = if axis == 0 { "rows" } else { "columns" };
    Err(MappingError::Shape(ShapeError::new(
        op,
        format!(
            "expected a 2-D operand with {len} {what}, got {:?}",
            t.shape()
        ),
    )))
}

/// Searches for a strictly positive vector in the null space of `s`.
fn find_positive_null_vector(s: &Tensor) -> Option<Vec<f32>> {
    let (n_out, nd) = (s.shape()[0], s.shape()[1]);
    // Fast path — the paper's canonical certificate: rows sum to zero
    // means x_h = 1 is in the null space.
    let ones_works = (0..n_out).all(|i| {
        let row_sum: f32 = (0..nd).map(|j| s.at(&[i, j])).sum();
        row_sum.abs() <= TOL
    });
    if ones_works {
        return Some(vec![1.0; nd]);
    }
    // General path: compute a null-space basis by RREF and test each basis
    // vector (and its negation) for strict positivity.
    let basis = null_space_basis(s);
    for v in &basis {
        if v.iter().all(|&x| x > TOL) {
            return Some(v.clone());
        }
        if v.iter().all(|&x| x < -TOL) {
            return Some(v.iter().map(|&x| -x).collect());
        }
    }
    // Equal-weight combination of the basis occasionally certifies when no
    // single vector does.
    if basis.len() > 1 {
        let mut sum = vec![0.0f32; nd];
        for v in &basis {
            for (a, &b) in sum.iter_mut().zip(v) {
                *a += b;
            }
        }
        if sum.iter().all(|&x| x > TOL) {
            return Some(sum);
        }
    }
    None
}

/// Null-space basis of `s` via reduced row echelon form (f64 arithmetic).
fn null_space_basis(s: &Tensor) -> Vec<Vec<f32>> {
    let (m, n) = (s.shape()[0], s.shape()[1]);
    let mut a: Vec<f64> = s.data().iter().map(|&x| x as f64).collect();
    let tol = TOL as f64;
    let mut pivot_cols = Vec::new();
    let mut row = 0;
    for col in 0..n {
        if row >= m {
            break;
        }
        let mut pivot = row;
        for r in row + 1..m {
            if a[r * n + col].abs() > a[pivot * n + col].abs() {
                pivot = r;
            }
        }
        if a[pivot * n + col].abs() <= tol {
            continue;
        }
        if pivot != row {
            for c in 0..n {
                a.swap(row * n + c, pivot * n + c);
            }
        }
        let pv = a[row * n + col];
        for c in 0..n {
            a[row * n + c] /= pv;
        }
        for r in 0..m {
            if r != row {
                let f = a[r * n + col];
                if f != 0.0 {
                    for c in 0..n {
                        a[r * n + c] -= f * a[row * n + c];
                    }
                }
            }
        }
        pivot_cols.push(col);
        row += 1;
    }
    let free_cols: Vec<usize> = (0..n).filter(|c| !pivot_cols.contains(c)).collect();
    let mut basis = Vec::with_capacity(free_cols.len());
    for &fc in &free_cols {
        let mut v = vec![0.0f32; n];
        v[fc] = 1.0;
        for (r, &pc) in pivot_cols.iter().enumerate() {
            v[pc] = -a[r * n + fc] as f32;
        }
        basis.push(v);
    }
    basis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mapping, TileGrid};
    use xbar_device::TileShape;
    use xbar_tensor::rng::XorShiftRng;

    #[test]
    fn acm_stencil_matches_figure2() {
        let s = PeripheryMatrix::acm(3);
        let expected = Tensor::from_vec(
            vec![
                1.0, -1.0, 0.0, 0.0, //
                0.0, 1.0, -1.0, 0.0, //
                0.0, 0.0, 1.0, -1.0,
            ],
            &[3, 4],
        )
        .unwrap();
        assert_eq!(s.matrix(), &expected);
    }

    #[test]
    fn bias_column_stencil_matches_figure1b() {
        let s = PeripheryMatrix::bias_column(2);
        let expected = Tensor::from_vec(vec![1.0, 0.0, -1.0, 0.0, 1.0, -1.0], &[2, 3]).unwrap();
        assert_eq!(s.matrix(), &expected);
    }

    #[test]
    fn double_element_stencil_matches_figure1a() {
        let s = PeripheryMatrix::double_element(2);
        let expected =
            Tensor::from_vec(vec![1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0], &[2, 4]).unwrap();
        assert_eq!(s.matrix(), &expected);
    }

    #[test]
    fn standard_stencils_pass_validation() {
        for no in [1usize, 2, 5, 17] {
            for s in [
                PeripheryMatrix::acm(no),
                PeripheryMatrix::bias_column(no),
                PeripheryMatrix::double_element(no),
            ] {
                let revalidated = PeripheryMatrix::try_new(s.matrix().clone()).unwrap();
                assert_eq!(revalidated.n_out(), no);
            }
        }
    }

    #[test]
    fn standard_stencils_have_all_ones_null_vector() {
        // The paper's canonical x_h = 1 certificate (Sec. III-C).
        for s in [
            PeripheryMatrix::acm(4),
            PeripheryMatrix::bias_column(4),
            PeripheryMatrix::double_element(4),
        ] {
            assert!(s.null_vector().iter().all(|&x| x == 1.0));
            // Verify S * x_h = 0.
            let xh = Tensor::from_vec(s.null_vector().to_vec(), &[s.n_dev()]).unwrap();
            let prod = linalg::matvec(s.matrix(), &xh).unwrap();
            assert!(prod.abs_max() < 1e-6);
        }
    }

    #[test]
    fn each_row_has_one_plus_and_one_minus() {
        // Paper Sec. III-D: each periphery row has exactly two nonzeros,
        // +1 and -1.
        for s in [
            PeripheryMatrix::acm(5),
            PeripheryMatrix::bias_column(5),
            PeripheryMatrix::double_element(5),
        ] {
            for i in 0..s.n_out() {
                let row = s.matrix().row(i);
                let plus = row.data().iter().filter(|&&v| v == 1.0).count();
                let minus = row.data().iter().filter(|&&v| v == -1.0).count();
                assert_eq!((plus, minus), (1, 1));
            }
        }
    }

    #[test]
    fn identity_matrix_is_rejected() {
        // rank is fine but no positive null vector exists (square, full
        // rank => trivial null space): the identity cannot realise signed
        // weights with non-negative M.
        let err = PeripheryMatrix::try_new(Tensor::eye(3)).unwrap_err();
        assert!(matches!(err, MappingError::InvalidPeriphery { .. }));
    }

    #[test]
    fn rank_deficient_matrix_is_rejected() {
        // Two identical rows: rank 1 < N_O = 2.
        let s = Tensor::from_vec(vec![1.0, -1.0, 0.0, 1.0, -1.0, 0.0], &[2, 3]).unwrap();
        let err = PeripheryMatrix::try_new(s).unwrap_err();
        match err {
            MappingError::InvalidPeriphery { reason } => assert!(reason.contains("rank")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn non_ternary_entries_are_rejected() {
        let s = Tensor::from_vec(vec![0.5, -1.0, 0.5], &[1, 3]).unwrap();
        assert!(PeripheryMatrix::try_new(s).is_err());
    }

    #[test]
    fn reversed_acm_is_valid() {
        // Subtracting the *left* neighbour instead of the right one is an
        // equally valid periphery (used by the column-order ablation).
        let mut s = Tensor::zeros(&[3, 4]);
        for j in 0..3 {
            *s.at_mut(&[j, j]) = -1.0;
            *s.at_mut(&[j, j + 1]) = 1.0;
        }
        let p = PeripheryMatrix::try_new(s).unwrap();
        assert_eq!(p.n_dev(), 4);
    }

    #[test]
    fn combine_and_spread_are_adjoint() {
        let mut rng = XorShiftRng::new(61);
        let s = PeripheryMatrix::acm(4);
        let y_dev = Tensor::rand_normal(&[3, 5], 0.0, 1.0, &mut rng);
        let g = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng);
        let lhs: f32 = s
            .combine(&y_dev)
            .unwrap()
            .data()
            .iter()
            .zip(g.data())
            .map(|(&a, &b)| a * b)
            .sum();
        let rhs: f32 = y_dev
            .data()
            .iter()
            .zip(s.spread(&g).unwrap().data())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn combine_computes_adjacent_differences_for_acm() {
        let s = PeripheryMatrix::acm(2);
        let y_dev = Tensor::from_vec(vec![5.0, 3.0, 2.0], &[1, 3]).unwrap();
        let y = s.combine(&y_dev).unwrap();
        assert_eq!(y.data(), &[2.0, 1.0]); // 5-3, 3-2
    }

    #[test]
    fn num_ops_counts_nonzeros() {
        assert_eq!(PeripheryMatrix::acm(4).num_ops(), 8);
        assert_eq!(PeripheryMatrix::double_element(4).num_ops(), 8);
        assert_eq!(PeripheryMatrix::bias_column(4).num_ops(), 8);
    }

    #[test]
    fn block_diagonal_composes_and_revalidates() {
        let blocks = [PeripheryMatrix::acm(3), PeripheryMatrix::acm(2)];
        let s = PeripheryMatrix::block_diagonal(&blocks);
        assert_eq!(s.n_out(), 5);
        assert_eq!(s.n_dev(), 7);
        // Off-diagonal blocks are zero: row 0 never touches group 1.
        for j in 4..7 {
            assert_eq!(s.matrix().at(&[0, j]), 0.0);
        }
        // Still a valid periphery by the expensive check.
        let revalidated = PeripheryMatrix::try_new(s.matrix().clone()).unwrap();
        assert_eq!(revalidated.n_out(), 5);
        assert!(s.null_vector().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn block_diagonal_of_one_is_identityish() {
        let b = PeripheryMatrix::bias_column(4);
        let s = PeripheryMatrix::block_diagonal(std::slice::from_ref(&b));
        assert_eq!(s, b);
    }

    #[test]
    fn permuted_stencil_is_valid_and_undoes_the_row_shuffle() {
        let base = PeripheryMatrix::bias_column(4);
        // Physical row p stores logical row perm[p].
        let perm = [3usize, 0, 4, 1, 2];
        let sp = base.permuted(&perm);
        // Still a valid periphery by the expensive check.
        let revalidated = PeripheryMatrix::try_new(sp.matrix().clone()).unwrap();
        assert_eq!(revalidated.n_out(), 4);
        // S_p · (P·M) == S · M for any M.
        let mut rng = XorShiftRng::new(63);
        let m = Tensor::rand_uniform(&[5, 6], 0.0, 1.0, &mut rng);
        let mut m_phys = Tensor::zeros(&[5, 6]);
        for (phys, &logical) in perm.iter().enumerate() {
            for c in 0..6 {
                *m_phys.at_mut(&[phys, c]) = m.at(&[logical, c]);
            }
        }
        let want = linalg::matmul(base.matrix(), &m).unwrap();
        let got = linalg::matmul(sp.matrix(), &m_phys).unwrap();
        assert!(got.all_close(&want, 1e-6));
        // Identity permutation is a no-op.
        assert_eq!(base.permuted(&[0, 1, 2, 3, 4]), base);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permuted_rejects_duplicates() {
        let _ = PeripheryMatrix::bias_column(2).permuted(&[0, 0, 1]);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Values that probe every rounding corner a product by `S` has:
    /// signed zeros, subnormals of both signs, and a small pool of
    /// repeats so `+1`/`−1` pairs cancel exactly.
    fn tricky(rng: &mut XorShiftRng) -> f32 {
        match rng.below(8) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(1 + rng.below(0x007f_fffe) as u32),
            3 => -f32::from_bits(1 + rng.below(0x007f_fffe) as u32),
            4 | 5 => [0.375f32, -1.25, 3.0e-3, 7.5][rng.below(4)],
            _ => rng.uniform(-2.0, 2.0),
        }
    }

    /// Every mapping's layer periphery, untiled and on ragged tile grids,
    /// with a seeded row permutation folded into each Perm group.
    fn layer_peripheries(rng: &mut XorShiftRng) -> Vec<(Mapping, String, PeripheryMatrix)> {
        let mut out = Vec::new();
        for mapping in Mapping::ALL {
            for n_out in [1usize, 2, 7, 19, 40] {
                for tile in [
                    None,
                    Some(TileShape::new(8, 5)),
                    Some(TileShape::new(8, 16)),
                ] {
                    let grid = TileGrid::new(n_out, 3, mapping, tile).unwrap();
                    let blocks: Vec<PeripheryMatrix> = grid
                        .col_groups()
                        .iter()
                        .map(|g| {
                            let s = mapping.periphery(g.out_len);
                            if mapping == Mapping::Perm {
                                let mut perm: Vec<usize> = (0..s.n_dev()).collect();
                                rng.shuffle(&mut perm);
                                s.permuted(&perm)
                            } else {
                                s
                            }
                        })
                        .collect();
                    out.push((
                        mapping,
                        format!("{mapping} n_out={n_out} tile={tile:?}"),
                        PeripheryMatrix::block_diagonal(&blocks),
                    ));
                }
            }
        }
        out
    }

    /// Device columns of `s` with at most two non-zeros: every column
    /// except the BC/Perm reference columns.
    fn two_term_columns(s: &PeripheryMatrix) -> Vec<usize> {
        (0..s.n_dev())
            .filter(|&c| {
                (0..s.n_out())
                    .filter(|&o| s.matrix().at(&[o, c]) != 0.0)
                    .count()
                    <= 2
            })
            .collect()
    }

    #[test]
    fn stencil_products_match_the_dense_gemms_bit_for_bit() {
        let mut rng = XorShiftRng::new(0x57E4);
        for (mapping, tag, s) in layer_peripheries(&mut rng) {
            let (no, nd) = (s.n_out(), s.n_dev());
            let cols = two_term_columns(&s);
            if !matches!(mapping, Mapping::BiasColumn | Mapping::Perm) {
                assert_eq!(cols.len(), nd, "{tag}: only references exceed two terms");
            }
            // Batches small enough for the streaming kernels and large
            // enough for the blocked ones.
            for n in [1usize, 5, 70] {
                let y_dev = Tensor::from_fn(&[n, nd], |_| tricky(&mut rng));
                let want = linalg::matmul_nt(&y_dev, s.matrix()).unwrap();
                assert_eq!(
                    bits(&s.combine(&y_dev).unwrap()),
                    bits(&want),
                    "combine {tag}"
                );

                let g = Tensor::from_fn(&[nd, n], |_| tricky(&mut rng));
                let want = linalg::matmul(s.matrix(), &g).unwrap();
                assert_eq!(bits(&s.apply(&g).unwrap()), bits(&want), "S·G {tag}");

                let g = Tensor::from_fn(&[no, n], |_| tricky(&mut rng));
                let got = s.apply_transposed(&g).unwrap();
                let want = linalg::matmul_tn(s.matrix(), &g).unwrap();
                for &c in &cols {
                    assert_eq!(bits(&got.row(c)), bits(&want.row(c)), "Sᵀ·G {tag} row {c}");
                }

                let g = Tensor::from_fn(&[n, no], |_| tricky(&mut rng));
                let got = s.spread(&g).unwrap();
                let want = linalg::matmul(&g, s.matrix()).unwrap();
                for b in 0..n {
                    for &c in &cols {
                        let (x, y) = (got.at(&[b, c]), want.at(&[b, c]));
                        assert_eq!(x.to_bits(), y.to_bits(), "G·S {tag} at ({b}, {c})");
                    }
                }
            }
        }
    }

    #[test]
    fn products_reject_mismatched_shapes_with_typed_errors() {
        let s = PeripheryMatrix::acm(3);
        let wrong = Tensor::zeros(&[2, 3]);
        assert!(matches!(s.combine(&wrong), Err(MappingError::Shape(_))));
        assert!(matches!(
            s.spread(&Tensor::zeros(&[2, 4])),
            Err(MappingError::Shape(_))
        ));
        assert!(matches!(s.apply(&wrong), Err(MappingError::Shape(_))));
        assert!(matches!(
            s.apply_transposed(&Tensor::zeros(&[4, 2])),
            Err(MappingError::Shape(_))
        ));
        assert!(matches!(
            s.combine(&Tensor::zeros(&[4])),
            Err(MappingError::Shape(_))
        ));
    }

    #[test]
    fn diagonal_blocks_inherit_validity_from_the_layer() {
        let mut rng = XorShiftRng::new(0xB10C);
        for mapping in Mapping::ALL {
            for tile in [
                None,
                Some(TileShape::new(4, 5)),
                Some(TileShape::new(4, 16)),
            ] {
                let grid = TileGrid::new(23, 3, mapping, tile).unwrap();
                let layer = if mapping == Mapping::Perm {
                    let blocks: Vec<PeripheryMatrix> = grid
                        .col_groups()
                        .iter()
                        .map(|g| {
                            let mut perm: Vec<usize> = (0..g.dev_len).collect();
                            rng.shuffle(&mut perm);
                            mapping.periphery(g.out_len).permuted(&perm)
                        })
                        .collect();
                    PeripheryMatrix::block_diagonal(&blocks)
                } else {
                    grid.periphery()
                };
                for g in grid.col_groups() {
                    let block = layer
                        .diagonal_block(g.out_start, g.out_len, g.dev_start, g.dev_len)
                        .unwrap();
                    let dense =
                        layer
                            .matrix()
                            .block(g.out_start, g.out_len, g.dev_start, g.dev_len);
                    assert_eq!(block, PeripheryMatrix::try_new(dense).unwrap());
                }
            }
        }
    }

    #[test]
    fn a_block_that_cuts_a_row_is_rejected() {
        let s = PeripheryMatrix::acm(4);
        // Row 1 is +1 at column 1 and −1 at column 2: outside a 2-column block.
        let err = s.diagonal_block(0, 2, 0, 2).unwrap_err();
        assert!(matches!(err, MappingError::InvalidPeriphery { .. }));
        // Out of bounds and empty blocks are rejected, not panics.
        assert!(s.diagonal_block(3, 2, 0, 5).is_err());
        assert!(s.diagonal_block(0, 4, 1, 5).is_err());
        assert!(s.diagonal_block(0, 0, 0, 5).is_err());
        // The whole matrix is its own diagonal block.
        assert_eq!(s.diagonal_block(0, 4, 0, 5).unwrap(), s);
    }

    #[test]
    fn null_space_basis_dimension() {
        let s = PeripheryMatrix::acm(3);
        let basis = null_space_basis(s.matrix());
        // N_D - rank = 4 - 3 = 1.
        assert_eq!(basis.len(), 1);
    }
}
