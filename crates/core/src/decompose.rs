//! Constructive decompositions `W = S · M` (paper Sec. III-C).
//!
//! Each mapping admits a closed-form non-negative solution; additionally a
//! generic Gaussian-elimination solver handles *any* validated
//! [`PeripheryMatrix`], implementing the paper's existence proof
//! constructively: find a particular solution of `S·m = w`, then shift it
//! along the strictly positive null vector `x_h` until non-negative.

use xbar_device::ConductanceRange;
use xbar_tensor::Tensor;

use crate::{Mapping, MappingError, PeripheryMatrix};

fn expect_signed_matrix(op: &'static str, w: &Tensor) -> Result<(usize, usize), MappingError> {
    if w.ndim() != 2 || w.shape()[0] == 0 || w.shape()[1] == 0 {
        return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
            op,
            format!("expected non-empty 2-D weight matrix, got {:?}", w.shape()),
        )));
    }
    Ok((w.shape()[0], w.shape()[1]))
}

/// Reconstructs the signed matrix `W = S · M` from a conductance matrix
/// `M` of shape `(N_D, N_I)`.
///
/// # Errors
///
/// Returns an error if `M`'s row count does not match the mapping's
/// `N_D` for any `N_O`, or shapes are otherwise invalid.
pub fn compose(m: &Tensor, mapping: Mapping) -> Result<Tensor, MappingError> {
    let (nd, _) = expect_signed_matrix("compose", m)?;
    let n_out = match mapping {
        Mapping::DoubleElement => {
            if nd % 2 != 0 {
                return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                    "compose",
                    format!("DE conductance matrix needs even row count, got {nd}"),
                )));
            }
            nd / 2
        }
        Mapping::BiasColumn | Mapping::Acm | Mapping::Perm => {
            if nd < 2 {
                return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                    "compose",
                    format!("{mapping} needs at least 2 device columns, got {nd}"),
                )));
            }
            nd - 1
        }
    };
    mapping.periphery(n_out).apply(m)
}

/// Decomposes a signed `W` of shape `(N_O, N_I)` into the non-negative
/// conductance matrix `M` of shape `(N_D, N_I)` for the given mapping,
/// using the closed-form construction:
///
/// * **DE** — positive/negative part split:
///   `m_{2j} = g_min + max(w_j, 0)`, `m_{2j+1} = g_min + max(−w_j, 0)`;
/// * **BC** — midpoint shift: `m_j = mid + w_j`, reference column fixed at
///   `mid` (paper Sec. II);
/// * **ACM** — suffix sums `m_j = c + Σ_{t ≥ j} w_t` with `c` chosen so the
///   smallest element sits exactly at `g_min` (the paper's
///   `x_p + α·x_h` shift with `x_h = 1`).
///
/// # Errors
///
/// Returns [`MappingError::NotRepresentable`] when a weight (or, for ACM, a
/// column's cumulative spread) exceeds what the conductance range can hold,
/// with the offending value in the message.
pub fn decompose(
    w: &Tensor,
    mapping: Mapping,
    range: ConductanceRange,
) -> Result<Tensor, MappingError> {
    let (n_out, n_in) = expect_signed_matrix("decompose", w)?;
    let span = range.span();
    match mapping {
        Mapping::DoubleElement => {
            let mut m = Tensor::zeros(&[2 * n_out, n_in]);
            for j in 0..n_out {
                for i in 0..n_in {
                    let wv = w.at(&[j, i]);
                    if wv.abs() > span + 1e-6 {
                        return Err(MappingError::NotRepresentable {
                            mapping: "DE",
                            detail: format!("|{wv}| exceeds span {span}"),
                        });
                    }
                    *m.at_mut(&[2 * j, i]) = range.g_min() + wv.max(0.0).min(span);
                    *m.at_mut(&[2 * j + 1, i]) = range.g_min() + (-wv).max(0.0).min(span);
                }
            }
            Ok(m)
        }
        // Perm decomposes exactly like BC: the physical row permutation
        // is applied (and folded into the periphery) at program time, in
        // the logical→physical step — `M` here is in logical row order.
        Mapping::BiasColumn | Mapping::Perm => {
            let mid = range.midpoint();
            let mut m = Tensor::zeros(&[n_out + 1, n_in]);
            for j in 0..n_out {
                for i in 0..n_in {
                    let wv = w.at(&[j, i]);
                    if wv.abs() > span / 2.0 + 1e-6 {
                        return Err(MappingError::NotRepresentable {
                            mapping: mapping.tag(),
                            detail: format!("|{wv}| exceeds half-span {}", span / 2.0),
                        });
                    }
                    *m.at_mut(&[j, i]) = range.clamp(mid + wv);
                }
            }
            for i in 0..n_in {
                *m.at_mut(&[n_out, i]) = mid;
            }
            Ok(m)
        }
        Mapping::Acm => {
            let mut m = Tensor::zeros(&[n_out + 1, n_in]);
            for i in 0..n_in {
                // Suffix sums: s_j = sum_{t=j..n_out-1} w_t, s_{n_out} = 0.
                let mut suffix = vec![0.0f32; n_out + 1];
                for j in (0..n_out).rev() {
                    suffix[j] = suffix[j + 1] + w.at(&[j, i]);
                }
                let lo = suffix.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = suffix.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                if hi - lo > span + 1e-6 {
                    return Err(MappingError::NotRepresentable {
                        mapping: "ACM",
                        detail: format!(
                            "column {i} cumulative spread {} exceeds span {span}",
                            hi - lo
                        ),
                    });
                }
                let c = range.g_min() - lo;
                for (j, &sv) in suffix.iter().enumerate() {
                    *m.at_mut(&[j, i]) = range.clamp(sv + c);
                }
            }
            Ok(m)
        }
    }
}

/// Decomposes `W` against an *arbitrary* validated periphery matrix using
/// the constructive existence proof of Sec. III-C: per column, a particular
/// solution of `S·m = w` is found by Gaussian elimination (free variables
/// zero) and shifted along the positive null vector `x_h` until every
/// element is at least `g_min`.
///
/// Unlike [`decompose`], this does **not** check the `g_max` bound — the
/// paper's conditions guarantee non-negativity, not boundedness, for
/// arbitrary `S`. Callers that need range-fitting should rescale `W` first.
///
/// # Errors
///
/// Returns a shape error if `W` is not `(s.n_out(), N_I)`.
pub fn decompose_with_periphery(
    w: &Tensor,
    s: &PeripheryMatrix,
    range: ConductanceRange,
) -> Result<Tensor, MappingError> {
    let (n_out, n_in) = expect_signed_matrix("decompose_with_periphery", w)?;
    if n_out != s.n_out() {
        return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
            "decompose_with_periphery",
            format!("W has {n_out} rows but S expects {}", s.n_out()),
        )));
    }
    let nd = s.n_dev();
    let xh = s.null_vector();
    let mut m = Tensor::zeros(&[nd, n_in]);
    for i in 0..n_in {
        let w_col: Vec<f64> = (0..n_out).map(|j| w.at(&[j, i]) as f64).collect();
        let particular = solve_particular(s.matrix(), &w_col);
        // Shift: find the largest deficit below g_min relative to x_h.
        let mut alpha = 0.0f64;
        for (p, &h) in particular.iter().zip(xh) {
            let need = (range.g_min() as f64 - p) / h as f64;
            if need > alpha {
                alpha = need;
            }
        }
        for j in 0..nd {
            *m.at_mut(&[j, i]) = (particular[j] + alpha * xh[j] as f64) as f32;
        }
    }
    Ok(m)
}

/// Solves `S·m = w` for one particular solution (free variables = 0) by
/// Gaussian elimination with partial pivoting. `S` is assumed full row
/// rank (guaranteed by [`PeripheryMatrix`] validation).
fn solve_particular(s: &Tensor, w: &[f64]) -> Vec<f64> {
    let (m_rows, n) = (s.shape()[0], s.shape()[1]);
    let mut a: Vec<f64> = s.data().iter().map(|&x| x as f64).collect();
    let mut b: Vec<f64> = w.to_vec();
    let mut pivot_cols = Vec::with_capacity(m_rows);
    let mut row = 0;
    for col in 0..n {
        if row >= m_rows {
            break;
        }
        let mut pivot = row;
        for r in row + 1..m_rows {
            if a[r * n + col].abs() > a[pivot * n + col].abs() {
                pivot = r;
            }
        }
        if a[pivot * n + col].abs() <= 1e-9 {
            continue;
        }
        if pivot != row {
            for c in 0..n {
                a.swap(row * n + c, pivot * n + c);
            }
            b.swap(row, pivot);
        }
        let pv = a[row * n + col];
        for r in row + 1..m_rows {
            let f = a[r * n + col] / pv;
            if f != 0.0 {
                for c in col..n {
                    a[r * n + c] -= f * a[row * n + c];
                }
                b[r] -= f * b[row];
            }
        }
        pivot_cols.push((row, col));
        row += 1;
    }
    // Back substitution, free variables left at 0.
    let mut x = vec![0.0f64; n];
    for &(r, c) in pivot_cols.iter().rev() {
        let mut acc = b[r];
        for cc in c + 1..n {
            acc -= a[r * n + cc] * x[cc];
        }
        x[c] = acc / a[r * n + c];
    }
    x
}

/// The largest `scale` such that `scale · W` remains representable under
/// `mapping` within `range` — used to fit freshly initialized weights onto
/// the crossbar without violating conductance bounds.
///
/// Returns `f32::INFINITY` for an all-zero `W`.
///
/// # Errors
///
/// Returns a shape error for non-2-D input.
pub fn max_representable_scale(
    w: &Tensor,
    mapping: Mapping,
    range: ConductanceRange,
) -> Result<f32, MappingError> {
    let (n_out, n_in) = expect_signed_matrix("max_representable_scale", w)?;
    let span = range.span();
    let limit = match mapping {
        Mapping::DoubleElement => w.abs_max(),
        Mapping::BiasColumn | Mapping::Perm => 2.0 * w.abs_max(),
        Mapping::Acm => {
            let mut worst = 0.0f32;
            for i in 0..n_in {
                let mut suffix = 0.0f32;
                let (mut lo, mut hi) = (0.0f32, 0.0f32);
                for j in (0..n_out).rev() {
                    suffix += w.at(&[j, i]);
                    lo = lo.min(suffix);
                    hi = hi.max(suffix);
                }
                worst = worst.max(hi - lo);
            }
            worst
        }
    };
    if limit == 0.0 {
        Ok(f32::INFINITY)
    } else {
        Ok(span / limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_tensor::{linalg, rng::XorShiftRng};

    fn range() -> ConductanceRange {
        ConductanceRange::normalized()
    }

    fn small_random_w(rng: &mut XorShiftRng, no: usize, ni: usize, amp: f32) -> Tensor {
        Tensor::rand_uniform(&[no, ni], -amp, amp, rng)
    }

    #[test]
    fn de_round_trip_exact() {
        let mut rng = XorShiftRng::new(71);
        let w = small_random_w(&mut rng, 5, 7, 0.9);
        let m = decompose(&w, Mapping::DoubleElement, range()).unwrap();
        assert!(m.min() >= 0.0 && m.max() <= 1.0);
        assert!(compose(&m, Mapping::DoubleElement)
            .unwrap()
            .all_close(&w, 1e-5));
    }

    #[test]
    fn bc_round_trip_exact() {
        let mut rng = XorShiftRng::new(72);
        let w = small_random_w(&mut rng, 5, 7, 0.45);
        let m = decompose(&w, Mapping::BiasColumn, range()).unwrap();
        assert!(m.min() >= 0.0 && m.max() <= 1.0);
        assert!(compose(&m, Mapping::BiasColumn)
            .unwrap()
            .all_close(&w, 1e-5));
    }

    #[test]
    fn acm_round_trip_exact() {
        let mut rng = XorShiftRng::new(73);
        let w = small_random_w(&mut rng, 5, 7, 0.1);
        let m = decompose(&w, Mapping::Acm, range()).unwrap();
        assert!(m.min() >= 0.0 && m.max() <= 1.0);
        assert!(compose(&m, Mapping::Acm).unwrap().all_close(&w, 1e-5));
    }

    #[test]
    fn bc_bias_column_is_fixed_at_midpoint() {
        let mut rng = XorShiftRng::new(74);
        let w = small_random_w(&mut rng, 4, 3, 0.4);
        let m = decompose(&w, Mapping::BiasColumn, range()).unwrap();
        for i in 0..3 {
            assert_eq!(m.at(&[4, i]), 0.5);
        }
    }

    #[test]
    fn acm_touches_g_min_per_column() {
        // The shift construction places the smallest element of each column
        // exactly at g_min — maximal headroom.
        let mut rng = XorShiftRng::new(75);
        let w = small_random_w(&mut rng, 6, 4, 0.1);
        let m = decompose(&w, Mapping::Acm, range()).unwrap();
        for i in 0..4 {
            let col_min = (0..7).map(|j| m.at(&[j, i])).fold(f32::INFINITY, f32::min);
            assert!(col_min.abs() < 1e-6, "column {i} min {col_min}");
        }
    }

    #[test]
    fn bc_rejects_weights_beyond_half_span() {
        let w = Tensor::from_vec(vec![0.7], &[1, 1]).unwrap();
        let err = decompose(&w, Mapping::BiasColumn, range()).unwrap_err();
        assert!(matches!(
            err,
            MappingError::NotRepresentable { mapping: "BC", .. }
        ));
        // ...but DE and ACM accept the same weight.
        assert!(decompose(&w, Mapping::DoubleElement, range()).is_ok());
        assert!(decompose(&w, Mapping::Acm, range()).is_ok());
    }

    #[test]
    fn de_rejects_weights_beyond_span() {
        let w = Tensor::from_vec(vec![1.5], &[1, 1]).unwrap();
        assert!(decompose(&w, Mapping::DoubleElement, range()).is_err());
    }

    #[test]
    fn acm_rejects_unbalanced_columns() {
        // All-positive column: suffix spread = sum of weights = 1.5 > span.
        let w = Tensor::from_vec(vec![0.5, 0.5, 0.5], &[3, 1]).unwrap();
        let err = decompose(&w, Mapping::Acm, range()).unwrap_err();
        assert!(matches!(
            err,
            MappingError::NotRepresentable { mapping: "ACM", .. }
        ));
        // The same magnitudes with alternating signs fit easily — this is
        // the column-balance property the paper discusses in Sec. III-D.
        let w = Tensor::from_vec(vec![0.5, -0.5, 0.5], &[3, 1]).unwrap();
        assert!(decompose(&w, Mapping::Acm, range()).is_ok());
    }

    #[test]
    fn generic_solver_matches_all_standard_stencils() {
        let mut rng = XorShiftRng::new(76);
        let w = small_random_w(&mut rng, 4, 5, 0.1);
        for mapping in Mapping::ALL {
            let s = mapping.periphery(4);
            let m = decompose_with_periphery(&w, &s, range()).unwrap();
            assert!(m.min() >= -1e-6, "{mapping}: negative conductance");
            let back = linalg::matmul(s.matrix(), &m).unwrap();
            assert!(back.all_close(&w, 1e-4), "{mapping}: reconstruction failed");
        }
    }

    #[test]
    fn generic_solver_handles_custom_periphery() {
        // A hand-rolled valid periphery: reversed-ACM.
        let mut s = Tensor::zeros(&[3, 4]);
        for j in 0..3 {
            *s.at_mut(&[j, j]) = -1.0;
            *s.at_mut(&[j, j + 1]) = 1.0;
        }
        let p = PeripheryMatrix::try_new(s).unwrap();
        let mut rng = XorShiftRng::new(77);
        let w = small_random_w(&mut rng, 3, 4, 0.2);
        let m = decompose_with_periphery(&w, &p, range()).unwrap();
        assert!(m.min() >= -1e-6);
        let back = linalg::matmul(p.matrix(), &m).unwrap();
        assert!(back.all_close(&w, 1e-4));
    }

    #[test]
    fn compose_rejects_bad_row_counts() {
        let m = Tensor::zeros(&[5, 3]);
        assert!(compose(&m, Mapping::DoubleElement).is_err()); // odd rows
        let m1 = Tensor::zeros(&[1, 3]);
        assert!(compose(&m1, Mapping::Acm).is_err()); // < 2 rows
    }

    #[test]
    fn max_scale_makes_w_exactly_representable() {
        let mut rng = XorShiftRng::new(78);
        let w = small_random_w(&mut rng, 6, 6, 3.0);
        for mapping in Mapping::ALL {
            let s = max_representable_scale(&w, mapping, range()).unwrap();
            assert!(s.is_finite() && s > 0.0);
            let scaled = w.scale(s * 0.999); // margin for roundoff
            assert!(
                decompose(&scaled, mapping, range()).is_ok(),
                "{mapping} at scale {s}"
            );
            let too_big = w.scale(s * 1.05);
            assert!(
                decompose(&too_big, mapping, range()).is_err(),
                "{mapping} should reject 5% over the limit"
            );
        }
    }

    #[test]
    fn max_scale_of_zero_matrix_is_infinite() {
        let w = Tensor::zeros(&[3, 3]);
        for mapping in Mapping::ALL {
            assert_eq!(
                max_representable_scale(&w, mapping, range()).unwrap(),
                f32::INFINITY
            );
        }
    }

    #[test]
    fn acm_effective_range_beats_bc_at_resource_parity() {
        // A single weight of magnitude 0.9: BC (half-span limit 0.5) fails,
        // ACM (same element count) succeeds — the dynamic-range recovery
        // that drives the paper's Fig. 5 accuracy gap.
        let w = Tensor::from_vec(vec![0.9, -0.9], &[2, 1]).unwrap();
        assert!(decompose(&w, Mapping::BiasColumn, range()).is_err());
        assert!(decompose(&w, Mapping::Acm, range()).is_ok());
        assert_eq!(
            Mapping::Acm.num_elements(2, 1),
            Mapping::BiasColumn.num_elements(2, 1)
        );
    }

    #[test]
    fn non_unit_range_round_trips() {
        let r = ConductanceRange::new(0.2, 0.8);
        let mut rng = XorShiftRng::new(79);
        let w = small_random_w(&mut rng, 4, 4, 0.05);
        for mapping in Mapping::ALL {
            let m = decompose(&w, mapping, r).unwrap();
            assert!(m.min() >= 0.2 - 1e-6 && m.max() <= 0.8 + 1e-6, "{mapping}");
            assert!(compose(&m, mapping).is_ok());
        }
    }

    #[test]
    fn compose_matches_the_dense_product_bit_for_bit() {
        let mut rng = XorShiftRng::new(83);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for mapping in Mapping::ALL {
            for n_out in [1usize, 6, 40] {
                for n_in in [1usize, 9, 70] {
                    let nd = mapping.num_device_columns(n_out);
                    // Signed zeros, subnormals and repeats that cancel
                    // exactly, besides ordinary values.
                    let m = Tensor::from_fn(&[nd, n_in], |_| match rng.below(6) {
                        0 => 0.0,
                        1 => -0.0,
                        2 => f32::from_bits(1 + rng.below(1 << 20) as u32),
                        3 => 0.625,
                        _ => rng.next_f32(),
                    });
                    let want = linalg::matmul(mapping.periphery(n_out).matrix(), &m).unwrap();
                    let got = compose(&m, mapping).unwrap();
                    assert_eq!(bits(&got), bits(&want), "{mapping} {n_out}x{n_in}");
                }
            }
        }
    }
}
