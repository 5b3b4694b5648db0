//! Closed-loop (write-verify) conductance programming.
//!
//! One-shot programming — sample device variation once and accept whatever
//! conductance lands — is how the paper's Fig. 6 methodology perturbs a
//! trained model. Real programming controllers instead run a *write-verify*
//! loop: write, read back, and rewrite until the realised conductance is
//! within a tolerance of the target or a retry budget is exhausted.
//! [`ProgrammingModel`] captures both regimes; [`ProgrammingReport`] is the
//! typed outcome, listing the cells that failed to converge instead of
//! silently (or fatally) mis-programming them.

use crate::{ConductanceRange, FaultMap, VariationModel};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::Tensor;

/// How target conductances are written into the array.
///
/// # Example
///
/// ```
/// use xbar_device::{ConductanceRange, ProgrammingModel, VariationModel};
/// use xbar_tensor::{rng::XorShiftRng, Tensor};
///
/// let prog = ProgrammingModel::write_verify(8, 0.02); // ≤8 writes, ±2% of range
/// let targets = Tensor::full(&[4, 4], 0.5);
/// let var = VariationModel::new(0.1);
/// let mut rng = XorShiftRng::new(1);
/// let (realised, report) =
///     prog.program_tensor(&targets, &var, ConductanceRange::normalized(), None, &mut rng);
/// assert_eq!(realised.shape(), &[4, 4]);
/// assert_eq!(report.total_cells(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgrammingModel {
    max_writes: u32,
    tolerance_frac: f32,
}

impl ProgrammingModel {
    /// One-shot programming: a single write, any realised conductance
    /// accepted. This reproduces the paper's program-with-noise
    /// methodology exactly and is the [`Default`].
    pub fn one_shot() -> Self {
        Self {
            max_writes: 1,
            tolerance_frac: f32::INFINITY,
        }
    }

    /// Closed-loop write-verify: up to `max_writes` writes per cell, a cell
    /// converging once its conductance is within `tolerance_frac` of the
    /// range span from the target.
    ///
    /// # Panics
    ///
    /// Panics if `max_writes == 0`, or `tolerance_frac` is negative or NaN.
    pub fn write_verify(max_writes: u32, tolerance_frac: f32) -> Self {
        assert!(max_writes >= 1, "programming needs at least one write");
        assert!(
            tolerance_frac >= 0.0,
            "write-verify tolerance must be non-negative, got {tolerance_frac}"
        );
        Self {
            max_writes,
            tolerance_frac,
        }
    }

    /// Maximum writes per cell.
    pub fn max_writes(&self) -> u32 {
        self.max_writes
    }

    /// Acceptance tolerance, as a fraction of the conductance range span.
    pub fn tolerance_frac(&self) -> f32 {
        self.tolerance_frac
    }

    /// Whether this is plain one-shot programming.
    pub fn is_one_shot(&self) -> bool {
        self.max_writes == 1 && self.tolerance_frac.is_infinite()
    }

    /// Programs a tensor of target conductances through device variation
    /// and an optional stuck-at fault map, returning the realised
    /// conductances and a typed [`ProgrammingReport`].
    ///
    /// Per healthy cell: write (sample variation around the target), read
    /// back, accept if within tolerance, else rewrite — keeping the *best*
    /// attempt so an exhausted budget degrades gracefully rather than
    /// keeping the last (possibly worst) write. Stuck cells take their
    /// forced value without consuming writes or randomness.
    ///
    /// A noiseless device converges on the first write without touching
    /// the RNG, so ideal-device callers see bit-identical behaviour to
    /// direct target assignment.
    ///
    /// # Panics
    ///
    /// Panics if `faults` is present with a shape different from
    /// `targets` (callers in `xbar-core` shape-check first and surface a
    /// typed error).
    pub fn program_tensor(
        &self,
        targets: &Tensor,
        variation: &VariationModel,
        range: ConductanceRange,
        faults: Option<&FaultMap>,
        rng: &mut XorShiftRng,
    ) -> (Tensor, ProgrammingReport) {
        if let Some(map) = faults {
            assert_eq!(
                targets.shape(),
                [map.shape().0, map.shape().1],
                "fault map shape mismatch"
            );
        }
        let cols = if targets.ndim() == 2 {
            targets.shape()[1]
        } else {
            targets.len()
        };
        let tol = self.tolerance_frac * range.span();
        let mut out = targets.clone();
        let mut report = ProgrammingReport::new(targets.len());
        for (idx, g) in out.data_mut().iter_mut().enumerate() {
            let (row, col) = (idx / cols, idx % cols);
            if let Some(kind) = faults.and_then(|m| m.get(row, col)) {
                *g = kind.forced_value(range);
                report.stuck += 1;
                continue;
            }
            let target = *g;
            if variation.is_none() {
                // Exact write; no randomness consumed.
                report.converged += 1;
                report.total_writes += 1;
                continue;
            }
            let mut best = f32::NAN;
            let mut best_err = f32::INFINITY;
            let mut converged = false;
            for _ in 0..self.max_writes {
                report.total_writes += 1;
                let realised = variation.sample(target, range, rng);
                let err = (realised - target).abs();
                if err < best_err {
                    best = realised;
                    best_err = err;
                }
                if err <= tol {
                    converged = true;
                    break;
                }
            }
            *g = best;
            if converged {
                report.converged += 1;
            } else {
                report.unconverged.push(UnconvergedCell {
                    row,
                    col,
                    target,
                    realised: best,
                    residual: best_err,
                });
            }
        }
        (out, report)
    }
}

impl Default for ProgrammingModel {
    fn default() -> Self {
        Self::one_shot()
    }
}

/// One cell that exhausted its write budget without reaching tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnconvergedCell {
    /// Device-column (conductance-matrix row) index.
    pub row: usize,
    /// Input (conductance-matrix column) index.
    pub col: usize,
    /// The requested conductance.
    pub target: f32,
    /// The best conductance reached.
    pub realised: f32,
    /// `|realised − target|` in conductance units.
    pub residual: f32,
}

/// Typed outcome of programming one array — the graceful-degradation
/// contract: a partially failed programming pass *reports* its failures
/// instead of erroring or silently mis-writing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProgrammingReport {
    total_cells: usize,
    converged: usize,
    stuck: usize,
    total_writes: u64,
    unconverged: Vec<UnconvergedCell>,
}

impl ProgrammingReport {
    fn new(total_cells: usize) -> Self {
        Self {
            total_cells,
            ..Self::default()
        }
    }

    /// Cells in the array.
    pub fn total_cells(&self) -> usize {
        self.total_cells
    }

    /// Healthy cells that reached tolerance within the write budget.
    pub fn num_converged(&self) -> usize {
        self.converged
    }

    /// Cells frozen by stuck-at faults (not programmable at all).
    pub fn num_stuck(&self) -> usize {
        self.stuck
    }

    /// Healthy cells that exhausted the write budget out of tolerance.
    pub fn num_unconverged(&self) -> usize {
        self.unconverged.len()
    }

    /// The cells that failed to converge, with their residuals.
    pub fn unconverged(&self) -> &[UnconvergedCell] {
        &self.unconverged
    }

    /// Total write pulses issued across the array.
    pub fn total_writes(&self) -> u64 {
        self.total_writes
    }

    /// Mean writes per programmable (non-stuck) cell.
    pub fn mean_writes(&self) -> f32 {
        let programmable = self.total_cells.saturating_sub(self.stuck);
        if programmable == 0 {
            0.0
        } else {
            self.total_writes as f32 / programmable as f32
        }
    }

    /// The largest `|realised − target|` among unconverged cells (0 when
    /// everything converged).
    pub fn worst_residual(&self) -> f32 {
        self.unconverged
            .iter()
            .map(|c| c.residual)
            .fold(0.0, f32::max)
    }

    /// Whether every healthy cell converged.
    pub fn all_converged(&self) -> bool {
        self.unconverged.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;

    fn range() -> ConductanceRange {
        ConductanceRange::normalized()
    }

    #[test]
    fn one_shot_matches_plain_variation_sampling() {
        let targets = Tensor::full(&[3, 5], 0.4);
        let var = VariationModel::new(0.08);
        let expected = var.sample_tensor(&targets, range(), &mut XorShiftRng::new(21));
        let (got, report) = ProgrammingModel::one_shot().program_tensor(
            &targets,
            &var,
            range(),
            None,
            &mut XorShiftRng::new(21),
        );
        assert_eq!(
            got, expected,
            "one-shot must reproduce the legacy noise path"
        );
        assert!(report.all_converged());
        assert_eq!(report.total_writes(), 15);
    }

    #[test]
    fn noiseless_device_is_exact_and_consumes_no_rng() {
        let targets = Tensor::full(&[2, 2], 0.7);
        let mut a = XorShiftRng::new(22);
        let mut b = XorShiftRng::new(22);
        let (got, report) = ProgrammingModel::write_verify(5, 0.01).program_tensor(
            &targets,
            &VariationModel::none(),
            range(),
            None,
            &mut a,
        );
        assert_eq!(got, targets);
        assert!(report.all_converged());
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn write_verify_beats_one_shot_in_accuracy() {
        let targets = Tensor::full(&[32, 32], 0.5);
        let var = VariationModel::new(0.1);
        let rms = |prog: ProgrammingModel, seed: u64| {
            let (got, _) =
                prog.program_tensor(&targets, &var, range(), None, &mut XorShiftRng::new(seed));
            let d = got.sub(&targets).unwrap();
            (d.norm_sq() / d.len() as f32).sqrt()
        };
        let one = rms(ProgrammingModel::one_shot(), 23);
        let wv = rms(ProgrammingModel::write_verify(10, 0.02), 23);
        assert!(
            wv < one * 0.4,
            "write-verify rms {wv} should be far below one-shot rms {one}"
        );
    }

    #[test]
    fn exhausted_budget_reports_unconverged_cells() {
        let targets = Tensor::full(&[8, 8], 0.5);
        // Tolerance far tighter than the noise: most cells cannot converge
        // in 2 writes.
        let (got, report) = ProgrammingModel::write_verify(2, 1e-4).program_tensor(
            &targets,
            &VariationModel::new(0.2),
            range(),
            None,
            &mut XorShiftRng::new(24),
        );
        assert!(report.num_unconverged() > 0, "expected unconverged cells");
        assert!(report.worst_residual() > 1e-4);
        assert_eq!(
            report.num_converged() + report.num_unconverged(),
            report.total_cells()
        );
        // Graceful: realised values still present and in range.
        assert!(got.min() >= 0.0 && got.max() <= 1.0);
        for c in report.unconverged() {
            assert!((got.at(&[c.row, c.col]) - c.realised).abs() < 1e-7);
            assert!(c.residual > 0.0);
        }
    }

    #[test]
    fn best_attempt_is_kept_not_last() {
        // With an impossible tolerance every write is rejected; the kept
        // value must be the closest draw, so the residual can only shrink
        // as the budget grows.
        let targets = Tensor::full(&[1, 1], 0.5);
        let var = VariationModel::new(0.2);
        let residual_with = |writes: u32| {
            let (_, report) = ProgrammingModel::write_verify(writes, 0.0).program_tensor(
                &targets,
                &var,
                range(),
                None,
                &mut XorShiftRng::new(25),
            );
            report.worst_residual()
        };
        assert!(residual_with(16) <= residual_with(1));
    }

    #[test]
    fn stuck_cells_take_forced_values_and_skip_writes() {
        let targets = Tensor::full(&[2, 2], 0.5);
        let mut map = FaultMap::pristine(2, 2);
        map.set(0, 0, FaultKind::StuckAtGMax);
        map.set(1, 1, FaultKind::StuckAtGMin);
        let (got, report) = ProgrammingModel::write_verify(4, 0.01).program_tensor(
            &targets,
            &VariationModel::none(),
            range(),
            Some(&map),
            &mut XorShiftRng::new(26),
        );
        assert_eq!(got.at(&[0, 0]), 1.0);
        assert_eq!(got.at(&[1, 1]), 0.0);
        assert_eq!(report.num_stuck(), 2);
        assert_eq!(report.num_converged(), 2);
        assert_eq!(report.total_writes(), 2);
        assert_eq!(report.mean_writes(), 1.0);
    }

    #[test]
    fn default_is_one_shot() {
        assert!(ProgrammingModel::default().is_one_shot());
        assert!(!ProgrammingModel::write_verify(3, 0.05).is_one_shot());
    }

    #[test]
    #[should_panic(expected = "at least one write")]
    fn rejects_zero_writes() {
        let _ = ProgrammingModel::write_verify(0, 0.1);
    }
}
