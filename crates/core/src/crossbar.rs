use xbar_device::{DeviceConfig, FaultMap, ProgrammingReport, TileShape};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::{backend, Tensor};

use crate::tiling::raw_batch;
use crate::{remap_for_faults, Mapping, MappingError, PeripheryMatrix, RemapReport, TileGrid};

/// A behavioural simulator of a crossbar array plus its periphery, laid
/// out on the grid of physical tiles its device allows.
///
/// The array stores a non-negative conductance matrix `M` of shape
/// `(N_D, N_I)` — `N_I` rows driven by input voltages, `N_D` columns of
/// synapse elements. Programming goes through a
/// [`DeviceConfig`]: target conductances are snapped to the device's
/// quantized states and then perturbed by device variation, reproducing the
/// paper's inference-under-variation methodology (Sec. IV-B): *train,
/// program with noise, evaluate without fine-tuning*.
///
/// Physical arrays are bounded, so `M` is split over the [`TileGrid`] of
/// the device's tile bound ([`DeviceConfig::tile_shape`]). Each tile holds
/// one block of `M`, is dealt its own stuck-at defects, is programmed
/// through its own write-verify pass and is remapped against its own local
/// periphery stencil — as separate chips would be. A device with no tile
/// bound gives the 1×1 grid: one array holding all of `M`.
///
/// An MVM is evaluated in two stages, exactly as in hardware:
/// 1. the analog stage — raw column dot products `y_dev = M·x`, one
///    partial product per tile, summed digitally across grid rows in fixed
///    tile order (bitwise identical to serial execution);
/// 2. the digital periphery — the fixed signed combine `y = S·y_dev`.
///
/// The analog stage reads the *effective* conductances: the programmed
/// values composed with the device's parasitic read non-idealities
/// (conductance drift at the configured time index, then the
/// position-dependent line-resistance attenuation, which restarts at every
/// tile boundary). With both parasitic models off the effective matrix is
/// the programmed matrix, bitwise.
///
/// # Example
///
/// ```
/// use xbar_core::{CrossbarArray, Mapping};
/// use xbar_device::{DeviceConfig, TileShape};
/// use xbar_tensor::{rng::XorShiftRng, Tensor};
///
/// # fn main() -> Result<(), xbar_core::MappingError> {
/// let w = Tensor::from_vec(vec![0.4, -0.2, -0.3, 0.1], &[2, 2])?;
/// let mut rng = XorShiftRng::new(1);
/// // Ideal device: the crossbar result equals the mathematical MVM.
/// let xbar = CrossbarArray::program_signed(&w, Mapping::Acm, DeviceConfig::ideal(), &mut rng)?;
/// let x = Tensor::from_vec(vec![1.0, 2.0], &[2])?;
/// let y = xbar.mvm_signed(&x)?;
/// assert!((y.data()[0] - 0.0).abs() < 1e-6);   // 0.4·1 − 0.2·2
/// assert!((y.data()[1] - (-0.1)).abs() < 1e-6); // −0.3·1 + 0.1·2
///
/// // 16×16 tiles split a 20×50 layer over
/// // ceil(50/16) row blocks x ceil(20/15) column groups.
/// let w = Tensor::rand_uniform(&[20, 50], -0.01, 0.01, &mut rng);
/// let device = DeviceConfig::ideal().with_tile_shape(Some(TileShape::new(16, 16)));
/// let tiled = CrossbarArray::program_signed(&w, Mapping::Acm, device, &mut rng)?;
/// assert_eq!(tiled.tile_grid(), (4, 2));
/// let x = Tensor::rand_uniform(&[50], -1.0, 1.0, &mut rng);
/// assert_eq!(tiled.mvm_signed(&x)?.len(), 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarArray {
    grid: TileGrid,
    /// The block-diagonal layer periphery, with any `Perm` row order
    /// folded into its per-group stencils.
    periphery: PeripheryMatrix,
    device: DeviceConfig,
    /// Ideal (post-quantization, pre-variation, post-remap) conductance
    /// targets, stacked `(N_D, N_I)`.
    targets: Tensor,
    /// Realised conductances after per-tile programming.
    programmed: Tensor,
    /// What the read path sees: `programmed` composed with conductance
    /// drift (global stacked coordinates) and per-tile line-resistance
    /// attenuation. Equal to `programmed` when both parasitics are off.
    effective: Tensor,
    /// The stuck-at defects all tiles were dealt, in the stacked frame.
    faults: FaultMap,
    /// Merged outcome of the most recent per-tile programming passes.
    report: ProgrammingReport,
}

/// Stable descending order of the device rows of `M (N_D × N_I)` by total
/// deviation from `mid` (`Σᵢ |m[j,i] − mid|`) — the X-CHANGR-style
/// placement rule behind [`Mapping::Perm`]: the returned `perm` assigns
/// logical device column `perm[p]` to physical position `p`, so the
/// largest-magnitude rows land nearest the drivers where IR-drop
/// attenuation is smallest. The sort is stable, so a BC reference row
/// (all `mid`, deviation exactly zero, stored last) stays last.
pub fn magnitude_permutation(m: &Tensor, mid: f32) -> Vec<usize> {
    let (nd, n_in) = (m.shape()[0], m.shape()[1]);
    let key: Vec<f32> = (0..nd)
        .map(|j| {
            m.data()[j * n_in..(j + 1) * n_in]
                .iter()
                .map(|&g| (g - mid).abs())
                .sum()
        })
        .collect();
    let mut perm: Vec<usize> = (0..nd).collect();
    perm.sort_by(|&a, &b| {
        key[b]
            .partial_cmp(&key[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    perm
}

impl CrossbarArray {
    /// Decomposes a signed weight matrix `W (N_O × N_I)` under `mapping`,
    /// one column group of the device's tile grid at a time, and programs
    /// the resulting conductances through `device`, tile by tile.
    ///
    /// # Errors
    ///
    /// Returns an error if the decomposition fails (weights outside the
    /// representable range — see [`crate::decompose`]) or the device's
    /// tile is too narrow for `mapping`.
    pub fn program_signed(
        w: &Tensor,
        mapping: Mapping,
        device: DeviceConfig,
        rng: &mut XorShiftRng,
    ) -> Result<Self, MappingError> {
        let grid = Self::grid_for(w, mapping, device.tile_shape())?;
        let m = grid.decompose(w, device.range())?;
        Self::program_inner(&m, grid, device, false, rng).map(|(xbar, _)| xbar)
    }

    /// Like [`CrossbarArray::program_signed`], but absorbs each tile's
    /// sampled stuck-at faults into its local periphery's null-space
    /// slack before programming (see [`remap_for_faults`]); the returned
    /// [`RemapReport`] merges the per-tile reports and carries the
    /// residual weight error that could not be absorbed.
    ///
    /// # Errors
    ///
    /// Returns an error if the decomposition fails.
    pub fn program_signed_remapped(
        w: &Tensor,
        mapping: Mapping,
        device: DeviceConfig,
        rng: &mut XorShiftRng,
    ) -> Result<(Self, RemapReport), MappingError> {
        let grid = Self::grid_for(w, mapping, device.tile_shape())?;
        let m = grid.decompose(w, device.range())?;
        Self::program_inner(&m, grid, device, true, rng)
            .map(|(xbar, report)| (xbar, report.expect("remap requested")))
    }

    /// Programs an explicit stacked non-negative conductance matrix
    /// `M (N_D × N_I)` — the path used after training, where the trainer
    /// owns `M` directly. The logical output count is inferred from the
    /// row count, `mapping` and the device's tile bound.
    ///
    /// # Errors
    ///
    /// Returns an error if `M` is negative anywhere, exceeds the device
    /// range, or its row count is inconsistent with `mapping` and the
    /// tile bound.
    pub fn program_conductances(
        m: &Tensor,
        mapping: Mapping,
        device: DeviceConfig,
        rng: &mut XorShiftRng,
    ) -> Result<Self, MappingError> {
        let grid = Self::grid_for_conductances(m, mapping, device.tile_shape())?;
        Self::program_inner(m, grid, device, false, rng).map(|(xbar, _)| xbar)
    }

    /// Like [`CrossbarArray::program_conductances`], but fault-aware:
    /// each tile's frozen cells are compensated by shifting its healthy
    /// cells along the local periphery's null direction (see
    /// [`remap_for_faults`]).
    ///
    /// # Errors
    ///
    /// Same validation as [`CrossbarArray::program_conductances`].
    pub fn program_conductances_remapped(
        m: &Tensor,
        mapping: Mapping,
        device: DeviceConfig,
        rng: &mut XorShiftRng,
    ) -> Result<(Self, RemapReport), MappingError> {
        let grid = Self::grid_for_conductances(m, mapping, device.tile_shape())?;
        Self::program_inner(m, grid, device, true, rng)
            .map(|(xbar, report)| (xbar, report.expect("remap requested")))
    }

    fn grid_for(
        w: &Tensor,
        mapping: Mapping,
        tile: Option<TileShape>,
    ) -> Result<TileGrid, MappingError> {
        if w.ndim() != 2 {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                "program_signed",
                format!("expected 2-D weights, got {:?}", w.shape()),
            )));
        }
        TileGrid::new(w.shape()[0], w.shape()[1], mapping, tile)
    }

    fn grid_for_conductances(
        m: &Tensor,
        mapping: Mapping,
        tile: Option<TileShape>,
    ) -> Result<TileGrid, MappingError> {
        if m.ndim() != 2 {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                "program_conductances",
                format!("expected 2-D conductance matrix, got {:?}", m.shape()),
            )));
        }
        let nd = m.shape()[0];
        let n_out = match mapping {
            Mapping::DoubleElement => {
                if !nd.is_multiple_of(2) || nd == 0 {
                    return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                        "program_conductances",
                        format!("DE needs a positive even device-column count, got {nd}"),
                    )));
                }
                nd / 2
            }
            Mapping::BiasColumn | Mapping::Acm | Mapping::Perm => {
                // Outputs per column group; an untiled array is one group.
                let cap = match tile {
                    Some(t) => TileGrid::outputs_per_tile(mapping, t)?,
                    None => usize::MAX,
                };
                // nd = n_out + ceil(n_out / cap) is strictly increasing in
                // n_out, so the group count k with nd = n_out + k is
                // unique when it exists.
                (1..nd)
                    .map(|k| nd - k)
                    .find(|&n_out| n_out.div_ceil(cap) == nd - n_out)
                    .ok_or_else(|| {
                        MappingError::Shape(xbar_tensor::ShapeError::new(
                            "program_conductances",
                            format!(
                                "{nd} device columns are inconsistent with {mapping}{}",
                                tile.map_or(String::new(), |t| format!(" on {t} tiles"))
                            ),
                        ))
                    })?
            }
        };
        TileGrid::new(n_out, m.shape()[1], mapping, tile)
    }

    fn program_inner(
        m: &Tensor,
        grid: TileGrid,
        device: DeviceConfig,
        remap: bool,
        rng: &mut XorShiftRng,
    ) -> Result<(Self, Option<RemapReport>), MappingError> {
        if !m.data().iter().all(|v| v.is_finite()) {
            return Err(MappingError::NonFiniteInput {
                op: "program_conductances",
            });
        }
        let range = device.range();
        if m.min() < range.g_min() - 1e-6 || m.max() > range.g_max() + 1e-6 {
            return Err(MappingError::NotRepresentable {
                mapping: grid.mapping().tag(),
                detail: format!(
                    "conductances [{}, {}] outside device range [{}, {}]",
                    m.min(),
                    m.max(),
                    range.g_min(),
                    range.g_max()
                ),
            });
        }
        let (nd, n_in) = (grid.nd_total(), grid.n_in());
        debug_assert_eq!(m.shape(), [nd, n_in]);
        // Snap to the device's programmable states (non-uniform in
        // conductance for nonlinear devices — states sit at equal pulse
        // spacing along the transfer curve); every per-tile stage below
        // starts from the snapped targets.
        let mut snapped = m.map(|g| device.snap(g));
        let mut targets = Tensor::zeros(&[nd, n_in]);
        let mut programmed = Tensor::zeros(&[nd, n_in]);
        let mut faults = FaultMap::pristine(nd, n_in);
        let mut report = ProgrammingReport::default();
        let mut remap_report: Option<RemapReport> = None;
        // Per-group local stencils, reused across the grid rows.
        let mut peripheries: Vec<PeripheryMatrix> = grid
            .col_groups()
            .iter()
            .map(|g| grid.mapping().periphery(g.out_len))
            .collect();
        // Perm: each group derives its physical row order from the
        // *pre-snap* conductances over the full input width (so every row
        // block of the group agrees on one order), folds the inverse into
        // the group's local stencil (`S_p · (P·M) = S · M` exactly), and
        // rearranges the group's snapped rows into physical order. The
        // stable descending sort keeps the group's all-mid reference row in
        // the last position.
        if grid.mapping() == Mapping::Perm {
            let mid = range.midpoint();
            for (g, periphery) in grid.col_groups().iter().zip(peripheries.iter_mut()) {
                let perm = magnitude_permutation(&m.block(g.dev_start, g.dev_len, 0, n_in), mid);
                *periphery = periphery.permuted(&perm);
                let snapped_group = snapped.block(g.dev_start, g.dev_len, 0, n_in);
                snapped.write_block(g.dev_start, 0, &snapped_group.permute_rows(&perm));
            }
        }
        // Deterministic tile order: row blocks outer, column groups inner.
        // Each tile is an independent physical array: it draws its own
        // defect pattern and runs its own write-verify pass.
        for &(r0, rl) in grid.row_blocks() {
            for (g, periphery) in grid.col_groups().iter().zip(&peripheries) {
                let mut tile_targets = snapped.block(g.dev_start, g.dev_len, r0, rl);
                let tile_faults = device.faults().sample_map(g.dev_len, rl, rng);
                // Absorb the tile's faults into its stencil's slack. The
                // compensated targets stay analog — closed-loop programming
                // can trim a cell to any in-range conductance; the state
                // ladder only constrains training-time weight updates.
                if remap {
                    let (shifted, tile_remap) =
                        remap_for_faults(&tile_targets, periphery, &tile_faults, range)?;
                    tile_targets = shifted;
                    remap_report = Some(match remap_report {
                        Some(acc) => acc.merge(&tile_remap),
                        None => tile_remap,
                    });
                }
                // Variation per write, stuck cells frozen, unconverged
                // cells reported rather than silently mis-written.
                let (tile_programmed, tile_report) = device.programming().program_tensor(
                    &tile_targets,
                    &device.variation(),
                    range,
                    Some(&tile_faults),
                    rng,
                );
                targets.write_block(g.dev_start, r0, &tile_targets);
                programmed.write_block(g.dev_start, r0, &tile_programmed);
                for (row, col, kind) in tile_faults.iter_stuck() {
                    faults.set(g.dev_start + row, r0 + col, kind);
                }
                report.merge(tile_report, g.dev_start, r0);
            }
        }
        // Block-diagonal over the (possibly permuted) per-group stencils;
        // identical to `grid.periphery()` for the non-permuted mappings.
        let periphery = PeripheryMatrix::block_diagonal(&peripheries);
        let mut effective = programmed.clone();
        grid.apply_parasitics(&mut effective, &device, &faults);
        Ok((
            Self {
                grid,
                periphery,
                device,
                targets,
                programmed,
                effective,
                faults,
                report,
            },
            remap_report,
        ))
    }

    /// The mapping this array was programmed with.
    pub fn mapping(&self) -> Mapping {
        self.grid.mapping()
    }

    /// The device model.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// The block-diagonal layer-level periphery matrix.
    pub fn periphery(&self) -> &PeripheryMatrix {
        &self.periphery
    }

    /// The tile layout.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Grid dimensions `(row blocks, column groups)`.
    pub fn tile_grid(&self) -> (usize, usize) {
        self.grid.grid()
    }

    /// Total number of physical arrays.
    pub fn num_tiles(&self) -> usize {
        self.grid.num_tiles()
    }

    /// Number of inputs (crossbar rows).
    pub fn n_in(&self) -> usize {
        self.grid.n_in()
    }

    /// Number of signed outputs.
    pub fn n_out(&self) -> usize {
        self.grid.n_out()
    }

    /// Number of device columns (`N_D`) across all column groups.
    pub fn n_dev(&self) -> usize {
        self.grid.nd_total()
    }

    /// Total synapse elements across all tiles (occupied cells).
    pub fn num_elements(&self) -> usize {
        self.programmed.len()
    }

    /// The realised conductances (after quantization and variation),
    /// stacked `(n_dev, n_in)`.
    pub fn conductances(&self) -> &Tensor {
        &self.programmed
    }

    /// The conductances the read path sees: [`CrossbarArray::conductances`]
    /// composed with drift (at the device's configured time index) and
    /// per-tile line-resistance attenuation. Equal to the programmed
    /// matrix when both parasitic models are off.
    pub fn effective_conductances(&self) -> &Tensor {
        &self.effective
    }

    /// The ideal conductance targets (after quantization and any remap,
    /// before variation).
    pub fn targets(&self) -> &Tensor {
        &self.targets
    }

    /// The effective signed weight matrix `S · G` realised by the array,
    /// including the parasitic read non-idealities.
    pub fn effective_weights(&self) -> Tensor {
        self.periphery
            .apply(&self.effective)
            .expect("periphery and conductances are dimension-checked at construction")
    }

    /// The stuck-at defects every tile was dealt at programming time, in
    /// the stacked conductance-matrix frame (pristine under the default
    /// fault-free device).
    pub fn fault_map(&self) -> &FaultMap {
        &self.faults
    }

    /// Merged outcome of the most recent per-tile programming passes:
    /// converged / stuck / unconverged cell counts and write statistics.
    pub fn programming_report(&self) -> &ProgrammingReport {
        &self.report
    }

    /// Returns a typed error if the last programming pass left any cell
    /// out of tolerance — for callers that need strict convergence rather
    /// than the default graceful degradation.
    ///
    /// # Errors
    ///
    /// [`MappingError::ProgrammingFailed`] with the unconverged-cell count
    /// and worst residual.
    pub fn require_converged(&self) -> Result<(), MappingError> {
        if self.report.all_converged() {
            Ok(())
        } else {
            Err(MappingError::ProgrammingFailed {
                unconverged: self.report.num_unconverged(),
                worst_residual: self.report.worst_residual(),
            })
        }
    }

    /// Re-programs every tile around the stored targets, modelling a fresh
    /// chip written with the same weights — one Monte-Carlo sample of the
    /// paper's Fig. 6 loop. Each tile's defect pattern is part of its
    /// chip, so it is kept; variation (and write-verify retries) are
    /// re-drawn tile by tile in grid order.
    pub fn resample_variation(&mut self, rng: &mut XorShiftRng) {
        let mut programmed = Tensor::zeros(self.targets.shape());
        let mut report = ProgrammingReport::default();
        for &(r0, rl) in self.grid.row_blocks() {
            for g in self.grid.col_groups() {
                let (tile_programmed, tile_report) = self.device.programming().program_tensor(
                    &self.targets.block(g.dev_start, g.dev_len, r0, rl),
                    &self.device.variation(),
                    self.device.range(),
                    Some(&self.faults.block(g.dev_start, g.dev_len, r0, rl)),
                    rng,
                );
                programmed.write_block(g.dev_start, r0, &tile_programmed);
                report.merge(tile_report, g.dev_start, r0);
            }
        }
        self.effective = programmed.clone();
        self.grid
            .apply_parasitics(&mut self.effective, &self.device, &self.faults);
        self.programmed = programmed;
        self.report = report;
    }

    /// Raw analog column outputs `y_dev = G · x` for a 1-D input of length
    /// `n_in()` — what the ADCs digitize across all tiles, before the
    /// periphery combine, accumulated digitally across grid rows.
    ///
    /// # Errors
    ///
    /// Returns a shape error on input-length mismatch, or
    /// [`MappingError::NonFiniteInput`] if `x` contains NaN/Inf — a DAC
    /// has no encoding for either, and letting them through would poison
    /// every column sum.
    pub fn mvm_raw(&self, x: &Tensor) -> Result<Tensor, MappingError> {
        if x.ndim() != 1 || x.len() != self.n_in() {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                "mvm_raw",
                format!(
                    "expected 1-D input of length {}, got {:?}",
                    self.n_in(),
                    x.shape()
                ),
            )));
        }
        if !x.data().iter().all(|v| v.is_finite()) {
            return Err(MappingError::NonFiniteInput { op: "mvm_raw" });
        }
        let raw = raw_batch(&self.grid, &self.effective, &x.reshape(&[1, x.len()])?);
        Ok(raw.reshape(&[self.n_dev()])?)
    }

    /// Signed MVM `y = S · (G · x)` for a 1-D input: each tile produces
    /// partial column currents, partial sums accumulate digitally across
    /// tile rows, then the per-group periphery combine produces the
    /// signed outputs.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` is not 1-D of length `n_in()`.
    pub fn mvm_signed(&self, x: &Tensor) -> Result<Tensor, MappingError> {
        let raw = self.mvm_raw(x)?;
        let y = self.periphery.combine(&raw.reshape(&[1, self.n_dev()])?)?;
        Ok(y.reshape(&[self.n_out()])?)
    }

    /// Batched signed MVM: `X (batch × N_I) → Y (batch × N_O)`, with the
    /// per-tile partial products fanned across the compute pool.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` is not `(batch, n_in())`, or
    /// [`MappingError::NonFiniteInput`] if `x` contains NaN/Inf.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor, MappingError> {
        if x.ndim() != 2 || x.shape()[1] != self.n_in() {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                "forward",
                format!(
                    "expected (batch, {}) input, got {:?}",
                    self.n_in(),
                    x.shape()
                ),
            )));
        }
        if !x.data().iter().all(|v| v.is_finite()) {
            return Err(MappingError::NonFiniteInput { op: "forward" });
        }
        self.periphery
            .combine(&raw_batch(&self.grid, &self.effective, x))
    }

    /// Monte-Carlo fan-out: evaluates `trials` freshly re-programmed
    /// copies of this array on the same batch `X (batch × N_I)`, fanning
    /// the trials across the compute pool. Trial `t` behaves exactly like
    /// `{ let mut c = self.clone(); c.resample_variation(&mut rng.fork(t)); c.forward(x) }`
    /// run serially in trial order — per-trial RNG streams are forked from
    /// `rng` up front, so the returned outputs are bitwise identical for
    /// any thread count.
    ///
    /// # Errors
    ///
    /// Returns the first trial's error on input-shape or non-finite-input
    /// failures (all trials share `x`, so all fail alike).
    pub fn variation_trials(
        &self,
        x: &Tensor,
        trials: usize,
        rng: &mut XorShiftRng,
    ) -> Result<Vec<Tensor>, MappingError> {
        // Fork serially, in trial order, before going parallel: forking
        // advances the parent stream, so this is the step that must not
        // race.
        let trial_rngs: Vec<XorShiftRng> = (0..trials).map(|t| rng.fork(t as u64)).collect();
        backend::parallel_map(trial_rngs, |_, mut trial_rng| {
            let mut chip = self.clone();
            chip.resample_variation(&mut trial_rng);
            chip.forward(x)
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    // Each tile-aware test has one body, `<name>_on(tile)`: the test here
    // runs it untiled, and a twin test in `tiling.rs` runs it on a grid of
    // 8×8 tiles.

    use super::*;
    use crate::decompose;
    use xbar_device::{DeviceConfig, UpdateModel};
    use xbar_tensor::linalg;

    fn rng() -> XorShiftRng {
        XorShiftRng::new(81)
    }

    fn test_w() -> Tensor {
        Tensor::from_vec(vec![0.3, -0.2, 0.1, -0.4, 0.25, 0.05], &[2, 3]).unwrap()
    }

    #[test]
    fn ideal_crossbar_equals_mathematical_mvm_all_mappings() {
        let w = test_w();
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[3]).unwrap();
        let expected = linalg::matvec(&w, &x).unwrap();
        for mapping in Mapping::ALL {
            let mut r = rng();
            let xb =
                CrossbarArray::program_signed(&w, mapping, DeviceConfig::ideal(), &mut r).unwrap();
            let y = xb.mvm_signed(&x).unwrap();
            assert!(y.all_close(&expected, 1e-5), "{mapping}: {:?}", y.data());
        }
    }

    #[test]
    fn batched_forward_matches_per_sample_mvm() {
        let w = test_w();
        let mut r = rng();
        let xb =
            CrossbarArray::program_signed(&w, Mapping::Acm, DeviceConfig::ideal(), &mut r).unwrap();
        let x = Tensor::from_vec(vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5], &[2, 3]).unwrap();
        let batch = xb.forward(&x).unwrap();
        for b in 0..2 {
            let single = xb.mvm_signed(&x.row(b)).unwrap();
            for j in 0..2 {
                assert!((batch.at(&[b, j]) - single.data()[j]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn quantized_program_snaps_to_states() {
        let w = test_w();
        let dev = DeviceConfig::quantized_linear(2); // states 0, 1/3, 2/3, 1
        let mut r = rng();
        let xb = CrossbarArray::program_signed(&w, Mapping::DoubleElement, dev, &mut r).unwrap();
        let q = dev.quantizer();
        for &g in xb.conductances().data() {
            assert!(
                (g - q.quantize(g)).abs() < 1e-6,
                "{g} is not a device state"
            );
        }
    }

    #[test]
    fn variation_perturbs_but_targets_stay() {
        let w = test_w();
        let dev = DeviceConfig::quantized_linear(4).with_variation_sigma(0.1);
        let mut r = rng();
        let xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
        assert!(!xb.conductances().all_close(xb.targets(), 1e-4));
        // Targets are still exact device states.
        let q = dev.quantizer();
        for &g in xb.targets().data() {
            assert!((g - q.quantize(g)).abs() < 1e-6);
        }
    }

    #[test]
    fn resample_variation_changes_programmed_not_targets() {
        let w = test_w();
        let dev = DeviceConfig::quantized_linear(4).with_variation_sigma(0.1);
        let mut r = rng();
        let mut xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
        let before = xb.conductances().clone();
        let targets = xb.targets().clone();
        xb.resample_variation(&mut r);
        assert!(!xb.conductances().all_close(&before, 1e-6));
        assert!(xb.targets().all_close(&targets, 0.0));
    }

    #[test]
    fn effective_weights_approximate_w_under_quantization() {
        let w = test_w();
        let dev = DeviceConfig::quantized_linear(6);
        let mut r = rng();
        let xb = CrossbarArray::program_signed(&w, Mapping::DoubleElement, dev, &mut r).unwrap();
        let eff = xb.effective_weights();
        // 6-bit quantization: max error per element <= step (two elements).
        let step = dev.quantizer().step();
        assert!(eff.all_close(&w, step * 1.01), "{:?}", eff.data());
    }

    #[test]
    fn dimensions_reported_correctly() {
        let w = test_w();
        let mut r = rng();
        let xb =
            CrossbarArray::program_signed(&w, Mapping::Acm, DeviceConfig::ideal(), &mut r).unwrap();
        assert_eq!(xb.n_in(), 3);
        assert_eq!(xb.n_out(), 2);
        assert_eq!(xb.n_dev(), 3);
        assert_eq!(xb.num_elements(), 9);
        assert_eq!(xb.mapping(), Mapping::Acm);
    }

    #[test]
    fn rejects_negative_conductances() {
        let m = Tensor::from_vec(vec![-0.1, 0.2, 0.3, 0.4, 0.5, 0.6], &[3, 2]).unwrap();
        let mut r = rng();
        let err =
            CrossbarArray::program_conductances(&m, Mapping::Acm, DeviceConfig::ideal(), &mut r)
                .unwrap_err();
        assert!(matches!(err, MappingError::NotRepresentable { .. }));
    }

    #[test]
    fn rejects_bad_input_length() {
        rejects_bad_input_length_on(None);
    }

    pub(crate) fn rejects_bad_input_length_on(tile: Option<TileShape>) {
        let dev = DeviceConfig::ideal().with_tile_shape(tile);
        let xb = CrossbarArray::program_signed(&test_w(), Mapping::Acm, dev, &mut rng()).unwrap();
        assert!(xb.mvm_signed(&Tensor::zeros(&[5])).is_err());
        let mut r = XorShiftRng::new(171);
        let w = Tensor::rand_uniform(&[4, 10], -0.05, 0.05, &mut r);
        let xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
        assert!(xb.mvm_signed(&Tensor::zeros(&[11])).is_err());
        assert!(xb.forward(&Tensor::zeros(&[2, 11])).is_err());
        let bad = Tensor::from_vec(vec![f32::NAN; 10], &[10]).unwrap();
        assert!(matches!(
            xb.mvm_raw(&bad),
            Err(MappingError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn rejects_non_finite_inputs_and_conductances() {
        let w = test_w();
        let mut r = rng();
        let xb =
            CrossbarArray::program_signed(&w, Mapping::Acm, DeviceConfig::ideal(), &mut r).unwrap();
        let bad = Tensor::from_vec(vec![1.0, f32::NAN, 0.0], &[3]).unwrap();
        assert!(matches!(
            xb.mvm_raw(&bad),
            Err(MappingError::NonFiniteInput { op: "mvm_raw" })
        ));
        assert!(matches!(
            xb.mvm_signed(&bad),
            Err(MappingError::NonFiniteInput { .. })
        ));
        let bad_batch = Tensor::from_vec(vec![0.5, 0.5, f32::INFINITY], &[1, 3]).unwrap();
        assert!(matches!(
            xb.forward(&bad_batch),
            Err(MappingError::NonFiniteInput { op: "forward" })
        ));
        let bad_m = Tensor::from_vec(vec![0.1, f32::NAN, 0.2, 0.3, 0.4, 0.5], &[3, 2]).unwrap();
        assert!(matches!(
            CrossbarArray::program_conductances(
                &bad_m,
                Mapping::Acm,
                DeviceConfig::ideal(),
                &mut r
            ),
            Err(MappingError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn fault_free_device_reports_pristine_map_and_full_convergence() {
        let w = test_w();
        let mut r = rng();
        let xb =
            CrossbarArray::program_signed(&w, Mapping::Acm, DeviceConfig::ideal(), &mut r).unwrap();
        assert!(xb.fault_map().is_pristine());
        assert!(xb.programming_report().all_converged());
        assert!(xb.require_converged().is_ok());
        assert_eq!(xb.programming_report().total_cells(), xb.num_elements());
    }

    #[test]
    fn fault_model_freezes_cells_through_programming() {
        fault_model_freezes_cells_through_programming_on(None);
    }

    pub(crate) fn fault_model_freezes_cells_through_programming_on(tile: Option<TileShape>) {
        use xbar_device::FaultModel;
        let dev = DeviceConfig::ideal()
            .with_faults(FaultModel::uniform(0.05))
            .with_tile_shape(tile);
        for (seed, shape) in [(81, [8, 16]), (171, [12, 24])] {
            let mut r = XorShiftRng::new(seed);
            let w = Tensor::rand_uniform(&shape, -0.02, 0.02, &mut r);
            let xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
            let stuck = xb.fault_map().num_stuck();
            assert!(stuck > 0, "{tile:?} {shape:?}: a 5% rate should hit");
            // Per-tile reports merge into one covering every cell.
            assert_eq!(xb.programming_report().num_stuck(), stuck);
            assert_eq!(xb.programming_report().total_cells(), xb.num_elements());
            assert!(xb.require_converged().is_ok());
            // Frozen cells hold their forced value in the stacked frame.
            let range = dev.range();
            for (row, col, kind) in xb.fault_map().iter_stuck() {
                assert_eq!(xb.conductances().at(&[row, col]), kind.forced_value(range));
            }
        }
    }

    #[test]
    fn remapped_programming_recovers_weight_accuracy() {
        remapped_programming_recovers_weight_accuracy_on(None);
    }

    pub(crate) fn remapped_programming_recovers_weight_accuracy_on(tile: Option<TileShape>) {
        use xbar_device::FaultModel;
        let dev = DeviceConfig::ideal()
            .with_faults(FaultModel::uniform(0.02))
            .with_tile_shape(tile);
        for (seed, shape) in [(81, [8, 16]), (171, [12, 24])] {
            let w = Tensor::rand_uniform(&shape, -0.02, 0.02, &mut XorShiftRng::new(seed));
            // Same seed for both arrays → identical fault pattern.
            let naive =
                CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut XorShiftRng::new(5))
                    .unwrap();
            let (remapped, report) = CrossbarArray::program_signed_remapped(
                &w,
                Mapping::Acm,
                dev,
                &mut XorShiftRng::new(5),
            )
            .unwrap();
            assert_eq!(naive.fault_map(), remapped.fault_map());
            assert!(naive.fault_map().num_stuck() > 0);
            let err = |xb: &CrossbarArray| xb.effective_weights().sub(&w).unwrap().norm_sq().sqrt();
            assert!(
                err(&remapped) < err(&naive) * 0.5,
                "{tile:?} {shape:?}: remapped error {} vs naive {}",
                err(&remapped),
                err(&naive)
            );
            assert!(report.residual_after() <= report.residual_before());
            assert_eq!(report.stuck_cells(), naive.fault_map().num_stuck());
        }
    }

    #[test]
    fn resample_keeps_fault_pattern_but_redraws_noise() {
        resample_keeps_fault_pattern_but_redraws_noise_on(None);
    }

    pub(crate) fn resample_keeps_fault_pattern_but_redraws_noise_on(tile: Option<TileShape>) {
        use xbar_device::FaultModel;
        let dev = DeviceConfig::ideal()
            .with_faults(FaultModel::uniform(0.05))
            .with_variation_sigma(0.05)
            .with_tile_shape(tile);
        for (seed, shape) in [(81, [6, 10]), (171, [10, 20])] {
            let mut r = XorShiftRng::new(seed);
            let w = Tensor::rand_uniform(&shape, -0.02, 0.02, &mut r);
            let mut xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
            let map_before = xb.fault_map().clone();
            let prog_before = xb.conductances().clone();
            let targets_before = xb.targets().clone();
            xb.resample_variation(&mut r);
            assert_eq!(xb.fault_map(), &map_before, "defects belong to the chip");
            assert!(xb.targets().all_close(&targets_before, 0.0));
            assert!(!xb.conductances().all_close(&prog_before, 1e-7));
            for (row, col, kind) in xb.fault_map().iter_stuck() {
                assert_eq!(
                    xb.conductances().at(&[row, col]),
                    kind.forced_value(dev.range())
                );
            }
        }
    }

    #[test]
    fn variation_trials_match_serial_resample_loop() {
        variation_trials_match_serial_resample_loop_on(None);
    }

    pub(crate) fn variation_trials_match_serial_resample_loop_on(tile: Option<TileShape>) {
        let dev = DeviceConfig::quantized_linear(4)
            .with_variation_sigma(0.05)
            .with_tile_shape(tile);
        let small =
            CrossbarArray::program_signed(&test_w(), Mapping::Acm, dev, &mut rng()).unwrap();
        let x_small = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, 0.2, 0.3], &[2, 3]).unwrap();
        let mut r = XorShiftRng::new(171);
        let w = Tensor::rand_uniform(&[10, 20], -0.02, 0.02, &mut r);
        let large = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
        let x_large = Tensor::rand_uniform(&[3, 20], -1.0, 1.0, &mut r);
        for (xb, x, trials) in [(&small, &x_small, 5), (&large, &x_large, 4)] {
            let mut rng_a = XorShiftRng::new(99);
            let got = xb.variation_trials(x, trials, &mut rng_a).unwrap();
            assert_eq!(got.len(), trials);
            // Reference: the documented serial loop with the same fork
            // order.
            let mut rng_b = XorShiftRng::new(99);
            let forks: Vec<_> = (0..trials as u64).map(|t| rng_b.fork(t)).collect();
            for (t, mut fr) in forks.into_iter().enumerate() {
                let mut chip = xb.clone();
                chip.resample_variation(&mut fr);
                let want = chip.forward(x).unwrap();
                assert_eq!(got[t].data(), want.data(), "{tile:?} trial {t}");
            }
            // Variation is actually redrawn between trials.
            assert!(!got[0].all_close(&got[1], 1e-7));
            // The parent stream advanced exactly as the serial loop's did.
            assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        }
    }

    #[test]
    fn strict_convergence_check_surfaces_programming_failure() {
        use xbar_device::ProgrammingModel;
        let w = test_w();
        // Impossible tolerance with heavy noise: nothing converges.
        let dev = DeviceConfig::ideal()
            .with_variation_sigma(0.2)
            .with_programming(ProgrammingModel::write_verify(2, 1e-6));
        let mut r = rng();
        let xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
        assert!(xb.programming_report().num_unconverged() > 0);
        let err = xb.require_converged().unwrap_err();
        assert!(matches!(err, MappingError::ProgrammingFailed { .. }));
    }

    #[test]
    fn write_verify_tightens_programmed_weights() {
        use xbar_device::ProgrammingModel;
        let mut r = rng();
        let w = Tensor::rand_uniform(&[8, 16], -0.02, 0.02, &mut r);
        let err_with = |prog: ProgrammingModel| {
            let dev = DeviceConfig::ideal()
                .with_variation_sigma(0.1)
                .with_programming(prog);
            let xb =
                CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut XorShiftRng::new(17))
                    .unwrap();
            xb.effective_weights().sub(&w).unwrap().norm_sq().sqrt()
        };
        let one_shot = err_with(ProgrammingModel::one_shot());
        let verified = err_with(ProgrammingModel::write_verify(8, 0.02));
        assert!(
            verified < one_shot * 0.5,
            "write-verify {verified} vs one-shot {one_shot}"
        );
    }

    #[test]
    fn nonlinear_update_device_still_programs_correctly() {
        // Programming (as opposed to in-situ training) is a write-verify
        // operation: the nonlinearity affects training updates, not the
        // final programmed states.
        let w = test_w();
        let dev = DeviceConfig::builder()
            .bits(4)
            .update(UpdateModel::symmetric_nonlinear(5.0))
            .build();
        let mut r = rng();
        let xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
        let eff = xb.effective_weights();
        assert!(eff.all_close(&w, dev.quantizer().step() * 2.0));
    }

    #[test]
    fn parasitics_off_effective_is_bitwise_programmed() {
        parasitics_off_effective_is_bitwise_programmed_on(None);
    }

    pub(crate) fn parasitics_off_effective_is_bitwise_programmed_on(tile: Option<TileShape>) {
        let dev = DeviceConfig::quantized_linear(4)
            .with_variation_sigma(0.03)
            .with_tile_shape(tile);
        let mut r = XorShiftRng::new(171);
        let w = Tensor::rand_uniform(&[12, 30], -0.02, 0.02, &mut r);
        for mapping in Mapping::ALL {
            for xb in [
                CrossbarArray::program_signed(&test_w(), mapping, dev, &mut rng()).unwrap(),
                CrossbarArray::program_signed(&w, mapping, dev, &mut r).unwrap(),
            ] {
                assert_eq!(
                    xb.effective_conductances().data(),
                    xb.conductances().data(),
                    "{mapping} {tile:?}: parasitics off must be a pure pass-through"
                );
            }
        }
    }

    #[test]
    fn line_resistance_attenuates_every_live_cell() {
        use xbar_device::LineResistanceModel;
        let w = test_w();
        let dev = DeviceConfig::ideal().with_line_resistance(LineResistanceModel::new(0.01));
        let xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut rng()).unwrap();
        let (prog, eff) = (xb.conductances(), xb.effective_conductances());
        for (p, e) in prog.data().iter().zip(eff.data()) {
            if *p > 0.0 {
                assert!(*e < *p, "attenuation must strictly shrink {p} -> {e}");
            } else {
                assert_eq!(*e, *p);
            }
        }
        // Output error grows with the wire resistance.
        let x = Tensor::ones(&[w.shape()[1]]);
        let err = |r_frac: f32| {
            let dev = DeviceConfig::ideal().with_line_resistance(LineResistanceModel::new(r_frac));
            let xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut rng()).unwrap();
            let ideal = linalg::matvec(&w, &x).unwrap();
            xb.mvm_signed(&x).unwrap().sub(&ideal).unwrap().abs_max()
        };
        assert!(err(0.02) > err(0.002));
    }

    #[test]
    fn drift_decays_toward_g_min_but_skips_stuck_cells() {
        use xbar_device::{DriftModel, FaultModel};
        let w = test_w();
        let dev = DeviceConfig::ideal()
            .with_faults(FaultModel::uniform(0.1))
            .with_drift(DriftModel::new(0.1, 0.02, 99).at_time(1000));
        let xb = CrossbarArray::program_signed(&w, Mapping::BiasColumn, dev, &mut rng()).unwrap();
        assert!(xb.fault_map().num_stuck() > 0);
        let g_min = dev.range().g_min();
        let cols = xb.conductances().shape()[1];
        let mut decayed = 0usize;
        for (idx, (p, e)) in xb
            .conductances()
            .data()
            .iter()
            .zip(xb.effective_conductances().data())
            .enumerate()
        {
            let (r, c) = (idx / cols, idx % cols);
            if xb.fault_map().get(r, c).is_some() {
                assert_eq!(*e, *p, "stuck cells are frozen and must not drift");
            } else {
                assert!(*e <= *p && *e >= g_min);
                if *e < *p {
                    decayed += 1;
                }
            }
        }
        assert!(decayed > 0, "drift at t=1000 must move some live cells");
    }

    #[test]
    fn perm_reorders_conductance_rows_but_weights_are_exact() {
        let w = test_w();
        let mut r = rng();
        let bc = CrossbarArray::program_signed(
            &w,
            Mapping::BiasColumn,
            DeviceConfig::ideal(),
            &mut rng(),
        )
        .unwrap();
        let perm =
            CrossbarArray::program_signed(&w, Mapping::Perm, DeviceConfig::ideal(), &mut rng())
                .unwrap();
        // Same multiset of device rows, different order.
        assert_eq!(bc.conductances().shape(), perm.conductances().shape());
        assert_ne!(
            bc.conductances().data(),
            perm.conductances().data(),
            "the magnitude sort should move rows for a generic W"
        );
        // The folded-in inverse permutation keeps the map exact.
        assert!(perm.effective_weights().all_close(&w, 1e-5));
        let x = Tensor::rand_uniform(&[w.shape()[1]], -1.0, 1.0, &mut r);
        let yb = bc.mvm_signed(&x).unwrap();
        let yp = perm.mvm_signed(&x).unwrap();
        assert!(yp.all_close(&yb, 1e-4));
    }

    #[test]
    fn perm_places_large_magnitude_rows_near_the_driver() {
        perm_places_large_magnitude_rows_near_the_driver_on(None);
    }

    pub(crate) fn perm_places_large_magnitude_rows_near_the_driver_on(tile: Option<TileShape>) {
        let dev = DeviceConfig::ideal().with_tile_shape(tile);
        let mut r = XorShiftRng::new(171);
        let w = Tensor::rand_uniform(&[13, 21], -0.02, 0.02, &mut r);
        for (w, mut r) in [(test_w(), rng()), (w, r)] {
            let xb = CrossbarArray::program_signed(&w, Mapping::Perm, dev, &mut r).unwrap();
            assert!(xb.effective_weights().all_close(&w, 1e-4), "{tile:?}");
            // Within every column group the physical rows are in
            // descending mid-deviation order.
            let mid = xb.device().range().midpoint();
            let n_in = xb.n_in();
            for g in xb.grid().col_groups() {
                let dev: Vec<f32> = (g.dev_start..g.dev_start + g.dev_len)
                    .map(|j| {
                        xb.conductances().data()[j * n_in..(j + 1) * n_in]
                            .iter()
                            .map(|&v| (v - mid).abs())
                            .sum()
                    })
                    .collect();
                for pair in dev.windows(2) {
                    assert!(
                        pair[0] >= pair[1] - 1e-6,
                        "physical rows must be sorted by descending mid-deviation: {dev:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn untiled_array_is_bitwise_the_hand_built_reference() {
        // With no tile bound the array is one whole-matrix tile: rebuilding
        // it stage by stage from the same seed must reproduce every bit.
        use xbar_device::{DriftModel, FaultModel, LineResistanceModel, ProgrammingModel};
        let dev = DeviceConfig::quantized_linear(4)
            .with_variation_sigma(0.05)
            .with_faults(FaultModel::uniform(0.05))
            .with_programming(ProgrammingModel::write_verify(4, 0.02))
            .with_drift(DriftModel::new(0.1, 0.02, 99).at_time(1000))
            .with_line_resistance(LineResistanceModel::new(0.01));
        let range = dev.range();
        let mut r = rng();
        let w = Tensor::rand_uniform(&[7, 13], -0.02, 0.02, &mut r);
        let x = Tensor::rand_uniform(&[3, 13], -1.0, 1.0, &mut r);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for mapping in Mapping::ALL {
            for remap in [false, true] {
                let tag = format!("{mapping} remap={remap}");
                let mut ref_rng = XorShiftRng::new(23);
                let m = decompose(&w, mapping, range).unwrap();
                let (periphery, m) = match mapping {
                    Mapping::Perm => {
                        let perm = magnitude_permutation(&m, range.midpoint());
                        (
                            mapping.periphery(w.shape()[0]).permuted(&perm),
                            m.permute_rows(&perm),
                        )
                    }
                    _ => (mapping.periphery(w.shape()[0]), m),
                };
                let mut targets = m.map(|g| dev.snap(g));
                let (nd, n_in) = (m.shape()[0], m.shape()[1]);
                let faults = dev.faults().sample_map(nd, n_in, &mut ref_rng);
                if remap {
                    targets = remap_for_faults(&targets, &periphery, &faults, range)
                        .unwrap()
                        .0;
                }
                let (programmed, report) = dev.programming().program_tensor(
                    &targets,
                    &dev.variation(),
                    range,
                    Some(&faults),
                    &mut ref_rng,
                );
                let mut effective = programmed.clone();
                for (idx, g) in effective.data_mut().iter_mut().enumerate() {
                    let (row, col) = (idx / n_in, idx % n_in);
                    if faults.get(row, col).is_none() {
                        *g = dev.drift().decayed(*g, row, col, range);
                    }
                }
                dev.line_resistance().apply_tile(&mut effective);

                let mut xb_rng = XorShiftRng::new(23);
                let xb = if remap {
                    CrossbarArray::program_signed_remapped(&w, mapping, dev, &mut xb_rng)
                        .unwrap()
                        .0
                } else {
                    CrossbarArray::program_signed(&w, mapping, dev, &mut xb_rng).unwrap()
                };
                assert!(faults.num_stuck() > 0, "{tag}: the device must be faulty");
                assert_eq!(xb.periphery(), &periphery, "{tag}");
                assert_eq!(bits(xb.targets()), bits(&targets), "{tag}: targets");
                assert_eq!(bits(xb.conductances()), bits(&programmed), "{tag}");
                assert_eq!(bits(xb.effective_conductances()), bits(&effective), "{tag}");
                assert_eq!(xb.fault_map(), &faults, "{tag}");
                assert_eq!(xb.programming_report(), &report, "{tag}");
                assert_eq!(xb_rng.next_u64(), ref_rng.next_u64(), "{tag}: rng stream");
                let raw = linalg::matmul_nt(&x, &effective).unwrap();
                assert_eq!(
                    bits(&xb.forward(&x).unwrap()),
                    bits(&periphery.combine(&raw).unwrap()),
                    "{tag}: forward"
                );
            }
        }
    }

    #[test]
    fn stencil_reads_match_the_dense_periphery_products_bit_for_bit() {
        use xbar_device::{DriftModel, FaultModel, LineResistanceModel};
        let dev = DeviceConfig::quantized_linear(4)
            .with_variation_sigma(0.05)
            .with_faults(FaultModel::uniform(0.05))
            .with_drift(DriftModel::new(0.1, 0.02, 99).at_time(1000))
            .with_line_resistance(LineResistanceModel::new(0.01));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut r = rng();
        let w = Tensor::rand_uniform(&[19, 11], -0.02, 0.02, &mut r);
        // Signed zeros and subnormals on the read side too.
        let mut x = Tensor::rand_uniform(&[11], -1.0, 1.0, &mut r);
        x.data_mut()[..4].copy_from_slice(&[0.0, -0.0, f32::from_bits(3), -f32::from_bits(9)]);
        for mapping in Mapping::ALL {
            for tile in [
                None,
                Some(TileShape::new(4, 5)),
                Some(TileShape::new(8, 16)),
            ] {
                let tag = format!("{mapping} tile={tile:?}");
                let xb =
                    CrossbarArray::program_signed(&w, mapping, dev.with_tile_shape(tile), &mut r)
                        .unwrap();
                let s = xb.periphery().matrix();
                let dense = linalg::matmul(s, xb.effective_conductances()).unwrap();
                assert_eq!(bits(&xb.effective_weights()), bits(&dense), "{tag}: S·G");
                let raw = xb.mvm_raw(&x).unwrap();
                let want = linalg::matvec(s, &raw).unwrap();
                assert_eq!(bits(&xb.mvm_signed(&x).unwrap()), bits(&want), "{tag}: mvm");
            }
        }
    }

    #[test]
    fn magnitude_permutation_is_stable_for_ties() {
        // Identical rows keep their original order (stable sort), which
        // is what pins BC's all-mid reference row to the last slot.
        let m = Tensor::from_vec(vec![0.5, 0.5, 0.9, 0.1, 0.5, 0.5], &[3, 2]).unwrap();
        assert_eq!(magnitude_permutation(&m, 0.5), vec![1, 0, 2]);
    }
}
