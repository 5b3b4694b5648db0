//! Fault-aware remapping: absorbing stuck-at faults into the mapping's
//! representational slack.
//!
//! The decomposition `W = S·M` is never unique: every valid periphery
//! matrix certifies a strictly positive null vector `x_h` with
//! `S·x_h = 0` (paper Sec. III-C), so a whole family of conductance
//! matrices implements the same weights. A cell stuck at `g_min`/`g_max`
//! forces one entry of a column away from its target; instead of eating
//! that error, the remapper moves the *rest* of the column to compensate.
//!
//! Formally, per faulty column the remapper solves the box-constrained
//! least-squares problem
//!
//! ```text
//! minimise ‖S·δ‖²   over  δ_j ∈ [g_min − m_j, g_max − m_j]  (healthy j)
//!                   with  δ_j  fixed at  g_stuck − m_j       (stuck j)
//! ```
//!
//! — the weight-space error the defective, range-limited hardware must
//! keep. With one stuck cell and headroom the optimum is the exact null
//! shift `δ = c·x_h` and the fault disappears entirely; for ACM the
//! general solution diffuses the stuck-cell discrepancy along the ladder
//! of adjacent columns. The convex problem is solved by projected
//! Gauss–Seidel warm-started from the clamped null shift; a column whose
//! solve ends above the error of leaving it alone is left alone, so no
//! column ever ends worse than the naive programming. Whatever error
//! remains is reported in a [`RemapReport`] rather than silently ignored.

use xbar_device::{ConductanceRange, FaultMap};
use xbar_tensor::{linalg, Tensor};

use crate::{MappingError, PeripheryMatrix};

/// Gauss–Seidel sweeps per faulty column. The systems are small (one row
/// per device column) and warm-started, so convergence is fast; the cap
/// only bounds worst-case work.
const GS_SWEEPS: usize = 80;

/// Outcome of one [`remap_for_faults`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemapReport {
    stuck_cells: usize,
    columns_affected: usize,
    columns_shifted: usize,
    residual_before: f32,
    residual_after: f32,
}

impl RemapReport {
    /// Total stuck cells in the fault map.
    pub fn stuck_cells(&self) -> usize {
        self.stuck_cells
    }

    /// Input columns containing at least one stuck cell.
    pub fn columns_affected(&self) -> usize {
        self.columns_affected
    }

    /// Columns where healthy cells were moved to compensate.
    pub fn columns_shifted(&self) -> usize {
        self.columns_shifted
    }

    /// Frobenius norm of the weight-space error the faults would inflict
    /// on the *untouched* targets (the naive baseline).
    pub fn residual_before(&self) -> f32 {
        self.residual_before
    }

    /// Frobenius norm of the weight-space error remaining after
    /// remapping. Zero means every fault was absorbed exactly.
    pub fn residual_after(&self) -> f32 {
        self.residual_after
    }

    /// Whether remapping absorbed every fault (to float tolerance).
    pub fn is_exact(&self) -> bool {
        self.residual_after <= 1e-5
    }

    /// Fraction of the naive weight-space error removed, in `[0, 1]`.
    pub fn error_reduction(&self) -> f32 {
        if self.residual_before <= f32::EPSILON {
            return 1.0;
        }
        (1.0 - self.residual_after / self.residual_before).max(0.0)
    }

    /// Combines this report with another covering a *disjoint* region of
    /// the same array — used by tiled crossbars that remap each physical
    /// tile independently. Counts add; the Frobenius residuals combine in
    /// quadrature.
    pub fn merge(&self, other: &RemapReport) -> RemapReport {
        RemapReport {
            stuck_cells: self.stuck_cells + other.stuck_cells,
            columns_affected: self.columns_affected + other.columns_affected,
            columns_shifted: self.columns_shifted + other.columns_shifted,
            residual_before: self.residual_before.hypot(other.residual_before),
            residual_after: self.residual_after.hypot(other.residual_after),
        }
    }
}

/// Rewrites each faulty column of `m` so the healthy cells compensate, as
/// far as the device range allows, for the conductances the stuck cells
/// are frozen at, returning the remapped targets and a [`RemapReport`].
///
/// `m` is the `N_D × N_I` target conductance matrix. In the returned
/// tensor, stuck cells hold their forced value — the targets describe
/// what the defective hardware will actually realise — and healthy cells
/// hold the compensated targets, guaranteed inside the device range.
/// Fault-free columns are untouched.
///
/// # Errors
///
/// Returns [`MappingError::FaultMapMismatch`] if the fault map's shape
/// differs from `m`, a shape error if `m` is not `N_D × N_I` for this
/// periphery, and [`MappingError::NonFiniteInput`] if `m` contains
/// NaN/Inf.
pub fn remap_for_faults(
    m: &Tensor,
    periphery: &PeripheryMatrix,
    faults: &FaultMap,
    range: ConductanceRange,
) -> Result<(Tensor, RemapReport), MappingError> {
    if m.ndim() != 2 || m.shape()[0] != periphery.n_dev() {
        return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
            "remap_for_faults",
            format!(
                "expected a {} x N_I conductance matrix, got {:?}",
                periphery.n_dev(),
                m.shape()
            ),
        )));
    }
    if !m.data().iter().all(|v| v.is_finite()) {
        return Err(MappingError::NonFiniteInput {
            op: "remap_for_faults",
        });
    }
    let (nd, n_in) = (m.shape()[0], m.shape()[1]);
    if faults.shape() != (nd, n_in) {
        return Err(MappingError::FaultMapMismatch {
            expected: (nd, n_in),
            got: faults.shape(),
        });
    }

    let xh = periphery.null_vector();
    let s = periphery.matrix();
    let n_out = periphery.n_out();
    let mut out = m.clone();
    let mut report = RemapReport {
        stuck_cells: faults.num_stuck(),
        columns_affected: 0,
        columns_shifted: 0,
        residual_before: 0.0,
        residual_after: 0.0,
    };
    if report.stuck_cells == 0 {
        return Ok((out, report));
    }
    // Normal matrix of the per-column least-squares problem, shared by
    // every column: G = SᵀS (N_D × N_D).
    let gram = linalg::matmul_tn(s, s)?;
    let weight_norm_sq = |delta: &[f32]| {
        (0..n_out)
            .map(|o| {
                let e: f32 = (0..nd).map(|j| s.at(&[o, j]) * delta[j]).sum();
                e * e
            })
            .sum::<f32>()
    };

    let mut delta = vec![0.0f32; nd];
    let mut fixed = vec![false; nd];
    for i in 0..n_in {
        let mut any_stuck = false;
        for j in 0..nd {
            match faults.get(j, i) {
                Some(kind) => {
                    delta[j] = kind.forced_value(range) - m.at(&[j, i]);
                    fixed[j] = true;
                    any_stuck = true;
                }
                None => {
                    delta[j] = 0.0;
                    fixed[j] = false;
                }
            }
        }
        if !any_stuck {
            continue;
        }
        report.columns_affected += 1;
        // The as-is error: healthy cells left where they are.
        let as_is = weight_norm_sq(&delta);
        report.residual_before += as_is;

        // Warm start from the classical null shift: the single scalar c
        // minimising the stuck-cell mismatch along x_h, clamped per cell
        // to the device range.
        let mut num = 0.0f32;
        let mut den = 0.0f32;
        for j in 0..nd {
            if fixed[j] {
                num += xh[j] * delta[j];
                den += xh[j] * xh[j];
            }
        }
        let c = num / den;
        for j in 0..nd {
            if !fixed[j] {
                let lo = range.g_min() - m.at(&[j, i]);
                let hi = range.g_max() - m.at(&[j, i]);
                delta[j] = (c * xh[j]).clamp(lo, hi);
            }
        }

        // Projected Gauss–Seidel on min ‖S·δ‖²: each healthy coordinate
        // in turn moves to the unconstrained minimiser given the others —
        // δ_j = −Σ_{k≠j} G_jk·δ_k / G_jj — then projects onto its range
        // box. The objective is convex, so every step is a descent step.
        for _ in 0..GS_SWEEPS {
            let mut max_change = 0.0f32;
            for j in 0..nd {
                if fixed[j] {
                    continue;
                }
                let g_jj = gram.at(&[j, j]);
                if g_jj <= 1e-12 {
                    continue; // periphery ignores this device column
                }
                let mut acc = 0.0f32;
                for (k, &d) in delta.iter().enumerate() {
                    if k != j {
                        acc += gram.at(&[j, k]) * d;
                    }
                }
                let lo = range.g_min() - m.at(&[j, i]);
                let hi = range.g_max() - m.at(&[j, i]);
                let next = (-acc / g_jj).clamp(lo, hi);
                max_change = max_change.max((next - delta[j]).abs());
                delta[j] = next;
            }
            if max_change < 1e-7 * range.span() {
                break;
            }
        }

        // The warm-started solve can stop above the as-is error; leaving
        // the column untouched is then the better remap.
        let mut after = weight_norm_sq(&delta);
        if after > as_is {
            for (d, &f) in delta.iter_mut().zip(&fixed) {
                if !f {
                    *d = 0.0;
                }
            }
            after = as_is;
        }
        report.residual_after += after;
        if delta
            .iter()
            .zip(&fixed)
            .any(|(&d, &f)| !f && d.abs() > 1e-9)
        {
            report.columns_shifted += 1;
        }
        for j in 0..nd {
            *out.at_mut(&[j, i]) = if fixed[j] {
                m.at(&[j, i]) + delta[j] // the forced value
            } else {
                range.clamp(m.at(&[j, i]) + delta[j])
            };
        }
    }
    report.residual_before = report.residual_before.sqrt();
    report.residual_after = report.residual_after.sqrt();
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_device::FaultKind;

    fn range() -> ConductanceRange {
        ConductanceRange::normalized()
    }

    /// Effective weights implied by targets, with stuck cells already
    /// folded in by `remap_for_faults`.
    fn weights(m: &Tensor, p: &PeripheryMatrix) -> Tensor {
        linalg::matmul(p.matrix(), m).unwrap()
    }

    #[test]
    fn single_stuck_cell_is_absorbed_exactly() {
        let p = PeripheryMatrix::acm(3);
        // Mid-range targets leave headroom for the shift; one off-centre
        // entry keeps the implemented weights non-trivial.
        let mut m = Tensor::full(&[4, 2], 0.5);
        *m.at_mut(&[2, 0]) = 0.45;
        let ideal = weights(&m, &p);
        let mut map = FaultMap::pristine(4, 2);
        map.set(2, 0, FaultKind::StuckAtGMin);
        let (out, report) = remap_for_faults(&m, &p, &map, range()).unwrap();
        assert!(report.is_exact(), "residual {}", report.residual_after());
        assert!(report.residual_before() > 0.1);
        assert_eq!(report.columns_shifted(), 1);
        assert_eq!(out.at(&[2, 0]), 0.0, "stuck target holds forced value");
        // Column 0 slid down by 0.45 along x_h = 1; weights unchanged.
        assert!(weights(&out, &p).all_close(&ideal, 1e-5));
        assert!((out.at(&[0, 0]) - 0.05).abs() < 1e-5);
        // Untouched column stays put.
        assert_eq!(out.at(&[0, 1]), 0.5);
    }

    #[test]
    fn works_for_all_standard_peripheries() {
        for p in [
            PeripheryMatrix::acm(4),
            PeripheryMatrix::bias_column(4),
            PeripheryMatrix::double_element(4),
        ] {
            let m = Tensor::full(&[p.n_dev(), 3], 0.4);
            let ideal = weights(&m, &p);
            let mut map = FaultMap::pristine(p.n_dev(), 3);
            map.set(1, 1, FaultKind::StuckAtGMin);
            let (out, report) = remap_for_faults(&m, &p, &map, range()).unwrap();
            assert!(report.is_exact(), "{:?}", report);
            assert!(weights(&out, &p).all_close(&ideal, 1e-4));
        }
    }

    #[test]
    fn conflicting_faults_take_least_squares_compromise() {
        let p = PeripheryMatrix::acm(3);
        let m = Tensor::full(&[4, 1], 0.5);
        // One cell pulled up, one pulled down: no remap fixes both, but
        // diffusing the conflict along the ladder (δ = +0.5, +1/6, −1/6,
        // −0.5) spreads it over three weights instead of dumping it on
        // two.
        let mut map = FaultMap::pristine(4, 1);
        map.set(0, 0, FaultKind::StuckAtGMax);
        map.set(3, 0, FaultKind::StuckAtGMin);
        let (out, report) = remap_for_faults(&m, &p, &map, range()).unwrap();
        assert!(!report.is_exact());
        assert!(report.residual_after() < report.residual_before() - 1e-3);
        // The interior cells interpolate between the two frozen ends.
        assert!(out.at(&[1, 0]) > out.at(&[2, 0]));
    }

    #[test]
    fn range_limited_compensation_is_clamped_and_reported() {
        let p = PeripheryMatrix::acm(2);
        // Healthy cells already at g_max: no headroom to move up at all.
        let mut m = Tensor::full(&[3, 1], 1.0);
        *m.at_mut(&[1, 0]) = 0.0;
        let mut map = FaultMap::pristine(3, 1);
        map.set(1, 0, FaultKind::StuckAtGMax); // needs neighbours to rise
        let (out, report) = remap_for_faults(&m, &p, &map, range()).unwrap();
        // Nothing can move: the full fault error remains, honestly
        // reported, and no target leaves the device range.
        assert!(!report.is_exact());
        assert!((report.residual_after() - report.residual_before()).abs() < 1e-6);
        assert!(out.data().iter().all(|&g| (0.0..=1.0).contains(&g)));
    }

    #[test]
    fn partial_absorption_beats_naive_under_conflict() {
        let p = PeripheryMatrix::acm(3);
        // Two stuck-high cells with different gaps: the compensation
        // absorbs most of both.
        let mut m = Tensor::full(&[4, 1], 0.3);
        *m.at_mut(&[2, 0]) = 0.6;
        let mut map = FaultMap::pristine(4, 1);
        map.set(0, 0, FaultKind::StuckAtGMax);
        map.set(2, 0, FaultKind::StuckAtGMax);
        let (_, report) = remap_for_faults(&m, &p, &map, range()).unwrap();
        assert!(report.residual_after() < report.residual_before() * 0.6);
        assert!(report.error_reduction() > 0.4);
    }

    #[test]
    fn a_column_the_solve_cannot_improve_is_left_as_is() {
        // One stuck-on cell at the top of an 11-output ACM column on the
        // 4-bit grid: the warm-started solve used to stop at a weight
        // error of 0.93377, above the 0.93333 of leaving the column alone.
        let p = PeripheryMatrix::acm(11);
        let codes = [1u8, 15, 9, 13, 7, 9, 3, 5, 3, 1, 8, 4];
        let m = Tensor::from_vec(
            codes.iter().map(|&c| f32::from(c) / 15.0).collect(),
            &[12, 1],
        )
        .unwrap();
        let mut map = FaultMap::pristine(12, 1);
        map.set(0, 0, FaultKind::StuckAtGMax);
        let (out, report) = remap_for_faults(&m, &p, &map, range()).unwrap();
        assert_eq!(report.residual_after(), report.residual_before());
        assert_eq!(report.columns_shifted(), 0);
        assert_eq!(out.at(&[0, 0]), 1.0, "stuck target holds forced value");
        assert_eq!(&out.data()[1..], &m.data()[1..], "healthy cells untouched");
    }

    #[test]
    fn no_single_fault_column_ends_worse_than_as_is() {
        // Random single-fault columns on the 4-bit grid, for every
        // standard periphery: the remap may never add weight error.
        let mut rng = xbar_tensor::rng::XorShiftRng::new(408);
        for trial in 0..3000 {
            let n_out = 2 + (rng.next_u64() % 15) as usize;
            let p = match trial % 3 {
                0 => PeripheryMatrix::acm(n_out),
                1 => PeripheryMatrix::bias_column(n_out),
                _ => PeripheryMatrix::double_element(n_out),
            };
            let nd = p.n_dev();
            let m = Tensor::from_fn(&[nd, 1], |_| (rng.next_u64() % 16) as f32 / 15.0);
            let mut map = FaultMap::pristine(nd, 1);
            let kind = if rng.next_u64().is_multiple_of(2) {
                FaultKind::StuckAtGMin
            } else {
                FaultKind::StuckAtGMax
            };
            map.set((rng.next_u64() % nd as u64) as usize, 0, kind);
            let (_, report) = remap_for_faults(&m, &p, &map, range()).unwrap();
            assert!(
                report.residual_after() <= report.residual_before(),
                "trial {trial}: {report:?}"
            );
        }
    }

    #[test]
    fn pristine_map_is_identity() {
        let p = PeripheryMatrix::acm(3);
        let m = Tensor::full(&[4, 5], 0.2);
        let map = FaultMap::pristine(4, 5);
        let (out, report) = remap_for_faults(&m, &p, &map, range()).unwrap();
        assert_eq!(out, m);
        assert_eq!(report.columns_affected(), 0);
        assert_eq!(report.residual_before(), 0.0);
        assert!(report.is_exact());
        assert_eq!(report.error_reduction(), 1.0);
    }

    #[test]
    fn saturated_column_still_gains_from_partial_moves() {
        let p = PeripheryMatrix::acm(3);
        // Mixed column: some cells have headroom, some are pinned at the
        // ceiling. The solver moves what it can.
        let m = Tensor::from_vec(vec![1.0, 0.5, 0.4, 1.0], &[4, 1]).unwrap();
        let mut map = FaultMap::pristine(4, 1);
        map.set(1, 0, FaultKind::StuckAtGMax); // wants neighbours up by 0.5
        let (out, report) = remap_for_faults(&m, &p, &map, range()).unwrap();
        assert!(report.residual_after() < report.residual_before());
        assert!(out.data().iter().all(|&g| (0.0..=1.0).contains(&g)));
        // The cell with headroom moved toward the stuck value's level.
        assert!(out.at(&[2, 0]) > 0.4);
    }

    #[test]
    fn shape_mismatches_are_typed_errors() {
        let p = PeripheryMatrix::acm(3);
        let m = Tensor::full(&[4, 2], 0.5);
        let bad_map = FaultMap::pristine(3, 2);
        assert!(matches!(
            remap_for_faults(&m, &p, &bad_map, range()),
            Err(MappingError::FaultMapMismatch { .. })
        ));
        let bad_m = Tensor::full(&[5, 2], 0.5);
        assert!(matches!(
            remap_for_faults(&bad_m, &p, &FaultMap::pristine(5, 2), range()),
            Err(MappingError::Shape(_))
        ));
        let nan_m = Tensor::full(&[4, 2], f32::NAN);
        assert!(matches!(
            remap_for_faults(&nan_m, &p, &FaultMap::pristine(4, 2), range()),
            Err(MappingError::NonFiniteInput { .. })
        ));
    }
}
