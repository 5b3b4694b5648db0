//! Per-cell stuck-at fault modelling.
//!
//! Real crossbar arrays ship with (and develop) defective cells whose
//! conductance is frozen regardless of programming: *stuck-at-G_min*
//! (stuck-off — an open filament or broken access device) and
//! *stuck-at-G_max* (stuck-on — a shorted cell). Fault studies on RRAM
//! arrays report rates on the order of a percent, and the two polarities
//! are not symmetric (stuck-off is typically the more common defect).
//!
//! [`FaultModel`] draws i.i.d. per-cell faults at configurable rates;
//! [`FaultMap`] is one realised defect pattern for a concrete array, which
//! the programming path ([`crate::ProgrammingModel`]) and the fault-aware
//! remapper in `xbar-core` both consume.

use crate::ConductanceRange;
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::Tensor;

/// The polarity a defective cell is frozen at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Conductance frozen at `g_min` (stuck-off / open cell).
    StuckAtGMin,
    /// Conductance frozen at `g_max` (stuck-on / shorted cell).
    StuckAtGMax,
}

impl FaultKind {
    /// The conductance this fault forces, for a given device range.
    pub fn forced_value(&self, range: ConductanceRange) -> f32 {
        match self {
            Self::StuckAtGMin => range.g_min(),
            Self::StuckAtGMax => range.g_max(),
        }
    }
}

/// I.i.d. per-cell stuck-at fault statistics.
///
/// Each cell is independently stuck at `g_min` with probability
/// `rate_g_min`, stuck at `g_max` with probability `rate_g_max`, and
/// healthy otherwise. Sampling a concrete defect pattern for an array goes
/// through [`FaultModel::sample_map`] with a caller-provided
/// [`XorShiftRng`], so fault patterns are reproducible from a seed exactly
/// like every other stochastic component of the workspace.
///
/// # Example
///
/// ```
/// use xbar_device::FaultModel;
/// use xbar_tensor::rng::XorShiftRng;
///
/// let model = FaultModel::new(0.008, 0.002); // 0.8% stuck-off, 0.2% stuck-on
/// let mut rng = XorShiftRng::new(7);
/// let map = model.sample_map(64, 64, &mut rng);
/// assert!(map.num_stuck() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    rate_g_min: f32,
    rate_g_max: f32,
}

impl FaultModel {
    /// Creates a fault model with the given stuck-at-`g_min` and
    /// stuck-at-`g_max` rates.
    ///
    /// # Panics
    ///
    /// Panics if either rate is negative or non-finite, or if the rates sum
    /// beyond 1.
    pub fn new(rate_g_min: f32, rate_g_max: f32) -> Self {
        assert!(
            rate_g_min.is_finite() && rate_g_min >= 0.0,
            "stuck-at-g_min rate must be non-negative and finite, got {rate_g_min}"
        );
        assert!(
            rate_g_max.is_finite() && rate_g_max >= 0.0,
            "stuck-at-g_max rate must be non-negative and finite, got {rate_g_max}"
        );
        assert!(
            rate_g_min + rate_g_max <= 1.0,
            "fault rates sum to {} > 1",
            rate_g_min + rate_g_max
        );
        Self {
            rate_g_min,
            rate_g_max,
        }
    }

    /// The fault-free model (both rates zero).
    pub fn none() -> Self {
        Self::new(0.0, 0.0)
    }

    /// A total stuck-at rate split in the empirically reported ~80/20
    /// proportion between stuck-off and stuck-on cells.
    ///
    /// # Panics
    ///
    /// Panics if `total_rate` is outside `[0, 1]` or non-finite.
    pub fn uniform(total_rate: f32) -> Self {
        Self::new(0.8 * total_rate, 0.2 * total_rate)
    }

    /// The stuck-at-`g_min` rate.
    pub fn rate_g_min(&self) -> f32 {
        self.rate_g_min
    }

    /// The stuck-at-`g_max` rate.
    pub fn rate_g_max(&self) -> f32 {
        self.rate_g_max
    }

    /// The total per-cell fault probability.
    pub fn total_rate(&self) -> f32 {
        self.rate_g_min + self.rate_g_max
    }

    /// Whether this model produces no faults at all.
    pub fn is_none(&self) -> bool {
        self.total_rate() == 0.0
    }

    /// Draws one concrete defect pattern for a `rows × cols` array.
    ///
    /// A fault-free model consumes no randomness (and therefore leaves the
    /// caller's RNG stream untouched — the fault layer is a strict no-op
    /// when disabled).
    pub fn sample_map(&self, rows: usize, cols: usize, rng: &mut XorShiftRng) -> FaultMap {
        if self.is_none() {
            return FaultMap::pristine(rows, cols);
        }
        let mut faults = vec![None; rows * cols];
        for f in &mut faults {
            let u = rng.next_f32();
            if u < self.rate_g_min {
                *f = Some(FaultKind::StuckAtGMin);
            } else if u < self.rate_g_min + self.rate_g_max {
                *f = Some(FaultKind::StuckAtGMax);
            }
        }
        FaultMap { rows, cols, faults }
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        Self::none()
    }
}

/// One realised defect pattern for a concrete `rows × cols` crossbar.
///
/// Row/column indices follow the conductance-matrix convention used
/// throughout the workspace: `rows = N_D` device columns, `cols = N_I`
/// inputs, matching the shape of the tensors passed to
/// [`FaultMap::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMap {
    rows: usize,
    cols: usize,
    faults: Vec<Option<FaultKind>>,
}

impl FaultMap {
    /// A defect-free map.
    pub fn pristine(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            faults: vec![None; rows * cols],
        }
    }

    /// `(rows, cols)` of the array this map describes.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The fault at `(row, col)`, if any.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<FaultKind> {
        assert!(
            row < self.rows && col < self.cols,
            "fault index out of bounds"
        );
        self.faults[row * self.cols + col]
    }

    /// Marks `(row, col)` as stuck — for deterministic fault patterns in
    /// tests and targeted what-if studies.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, kind: FaultKind) {
        assert!(
            row < self.rows && col < self.cols,
            "fault index out of bounds"
        );
        self.faults[row * self.cols + col] = Some(kind);
    }

    /// Number of stuck cells.
    pub fn num_stuck(&self) -> usize {
        self.faults.iter().filter(|f| f.is_some()).count()
    }

    /// Whether the map has no stuck cells.
    pub fn is_pristine(&self) -> bool {
        self.faults.iter().all(|f| f.is_none())
    }

    /// Iterates over the stuck cells as `(row, col, kind)`.
    pub fn iter_stuck(&self) -> impl Iterator<Item = (usize, usize, FaultKind)> + '_ {
        let cols = self.cols;
        self.faults
            .iter()
            .enumerate()
            .filter_map(move |(i, f)| f.map(|k| (i / cols, i % cols, k)))
    }

    /// The sub-map of the `rows × cols` block whose top-left cell is
    /// `(r0, c0)`, in block-local coordinates — the defects of one tile of
    /// a stacked conductance matrix.
    ///
    /// # Panics
    ///
    /// Panics if the block runs past the map's edges.
    pub fn block(&self, r0: usize, rows: usize, c0: usize, cols: usize) -> Self {
        assert!(
            r0 + rows <= self.rows && c0 + cols <= self.cols,
            "fault block out of bounds"
        );
        let mut faults = Vec::with_capacity(rows * cols);
        for r in r0..r0 + rows {
            faults.extend_from_slice(&self.faults[r * self.cols + c0..][..cols]);
        }
        Self { rows, cols, faults }
    }

    /// Forces every stuck cell of a conductance tensor to its frozen value,
    /// returning the faulty copy.
    ///
    /// # Panics
    ///
    /// Panics if `conductances` is not a 2-D tensor of this map's shape
    /// (callers in `xbar-core` shape-check first and surface a typed
    /// error).
    pub fn apply(&self, conductances: &Tensor, range: ConductanceRange) -> Tensor {
        assert_eq!(
            conductances.shape(),
            [self.rows, self.cols],
            "fault map shape mismatch"
        );
        let mut out = conductances.clone();
        for (g, f) in out.data_mut().iter_mut().zip(&self.faults) {
            if let Some(kind) = f {
                *g = kind.forced_value(range);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_model_is_pristine_and_consumes_no_rng() {
        let model = FaultModel::none();
        assert!(model.is_none());
        let mut a = XorShiftRng::new(3);
        let mut b = XorShiftRng::new(3);
        let map = model.sample_map(8, 8, &mut a);
        assert!(map.is_pristine());
        assert_eq!(map.num_stuck(), 0);
        assert_eq!(a.next_u64(), b.next_u64(), "rng stream untouched");
    }

    #[test]
    fn sampled_rates_match_statistics() {
        let model = FaultModel::new(0.05, 0.02);
        let mut rng = XorShiftRng::new(4);
        let map = model.sample_map(200, 200, &mut rng);
        let (mut lo, mut hi) = (0usize, 0usize);
        for (_, _, k) in map.iter_stuck() {
            match k {
                FaultKind::StuckAtGMin => lo += 1,
                FaultKind::StuckAtGMax => hi += 1,
            }
        }
        let n = 200.0 * 200.0;
        assert!((lo as f32 / n - 0.05).abs() < 0.005, "g_min rate {lo}");
        assert!((hi as f32 / n - 0.02).abs() < 0.005, "g_max rate {hi}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = FaultModel::uniform(0.01);
        let a = model.sample_map(32, 32, &mut XorShiftRng::new(9));
        let b = model.sample_map(32, 32, &mut XorShiftRng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn apply_forces_only_stuck_cells() {
        let range = ConductanceRange::normalized();
        let mut map = FaultMap::pristine(2, 3);
        map.set(0, 1, FaultKind::StuckAtGMax);
        map.set(1, 2, FaultKind::StuckAtGMin);
        let g = Tensor::full(&[2, 3], 0.4);
        let faulty = map.apply(&g, range);
        assert_eq!(faulty.at(&[0, 1]), 1.0);
        assert_eq!(faulty.at(&[1, 2]), 0.0);
        assert_eq!(faulty.at(&[0, 0]), 0.4);
        assert_eq!(map.num_stuck(), 2);
    }

    #[test]
    fn block_keeps_only_the_tile_defects_in_local_coordinates() {
        let mut map = FaultMap::pristine(4, 5);
        map.set(0, 0, FaultKind::StuckAtGMin);
        map.set(2, 3, FaultKind::StuckAtGMax);
        map.set(3, 1, FaultKind::StuckAtGMin);
        let tile = map.block(1, 3, 2, 3);
        assert_eq!(tile.shape(), (3, 3));
        let stuck: Vec<_> = tile.iter_stuck().collect();
        assert_eq!(stuck, vec![(1, 1, FaultKind::StuckAtGMax)]);
        assert_eq!(map.block(0, 4, 0, 5), map);
    }

    #[test]
    fn forced_values_follow_range() {
        let r = ConductanceRange::new(0.2, 0.8);
        assert_eq!(FaultKind::StuckAtGMin.forced_value(r), 0.2);
        assert_eq!(FaultKind::StuckAtGMax.forced_value(r), 0.8);
    }

    #[test]
    fn uniform_splits_eighty_twenty() {
        let m = FaultModel::uniform(0.01);
        assert!((m.rate_g_min() - 0.008).abs() < 1e-7);
        assert!((m.rate_g_max() - 0.002).abs() < 1e-7);
        assert!((m.total_rate() - 0.01).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_rate() {
        let _ = FaultModel::new(-0.1, 0.0);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn rejects_rates_beyond_one() {
        let _ = FaultModel::new(0.6, 0.6);
    }
}
