//! Tiled crossbar execution for layers larger than one physical array.
//!
//! Physical crossbar arrays are bounded (128×128 is a typical fabricated
//! size; the paper's VGG-9 layers are far larger), so a real accelerator
//! splits a layer across a grid of tiles: input rows are partitioned
//! across tile *rows* (partial sums added digitally after the ADC) and
//! output columns across tile *column-groups*, each of which carries its
//! own local periphery stencil — and, for BC/ACM, its own reference
//! column, since a reference must sit in the same physical array as the
//! columns it serves. The layer-level periphery is therefore
//! block-diagonal ([`PeripheryMatrix::block_diagonal`]), and the per-group
//! `N_D = outputs + 1` accounting replicates one reference column per
//! group.
//!
//! Tiling interacts with the mapping: the column count being split is the
//! mapping's `N_D`, so DE fits `cols/2` outputs per tile against BC/ACM's
//! `cols − 1` — the physical origin of Table I's area gap.
//! [`TileGrid`] exposes the grid so system-level models can count arrays.
//! `xbar_nn::MappedParam` lays its conductances out on the grid of its
//! device's tile bound (a device with no tile bound gives the 1×1 grid)
//! and reads them through it: [`TileGrid::apply_parasitics`] restarts the
//! line-resistance attenuation at every tile boundary, and the int8
//! readout ([`crate::ReadoutImage`]) runs one integer GEMM and ADC per
//! tile.

use xbar_device::TileShape;
use xbar_tensor::Tensor;

use crate::{decompose, Mapping, MappingError, PeripheryMatrix};

/// One column-group of a [`TileGrid`]: a contiguous run of logical
/// outputs whose device columns (including any local reference column)
/// fit one physical tile width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColGroup {
    /// First logical output in the group.
    pub out_start: usize,
    /// Logical outputs in the group.
    pub out_len: usize,
    /// First device column in the stacked conductance matrix.
    pub dev_start: usize,
    /// Device columns the group occupies (`mapping.num_device_columns(out_len)`).
    pub dev_len: usize,
}

/// The tile decomposition of one mapped layer: how `n_in` inputs and
/// `n_out` outputs split across a grid of `TileShape`-bounded physical
/// arrays.
///
/// With `tile = None` the grid is the degenerate 1×1 monolithic case —
/// one row block, one column group, the classic `N_D = N_O + 1`
/// accounting — which preserves the untiled behaviour exactly.
///
/// # Example
///
/// ```
/// use xbar_core::{Mapping, TileGrid};
/// use xbar_device::TileShape;
///
/// # fn main() -> Result<(), xbar_core::MappingError> {
/// // 20 outputs under ACM with 16-wide tiles: 15 outputs (+1 reference)
/// // per group -> 2 groups; 50 inputs over 16-row tiles -> 4 row blocks.
/// let grid = TileGrid::new(20, 50, Mapping::Acm, Some(TileShape::new(16, 16)))?;
/// assert_eq!(grid.grid(), (4, 2));
/// assert_eq!(grid.num_tiles(), 8);
/// assert_eq!(grid.nd_total(), 22); // 20 outputs + one reference per group
/// assert_eq!(grid.replicated_reference_columns(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileGrid {
    mapping: Mapping,
    n_out: usize,
    n_in: usize,
    tile: Option<TileShape>,
    /// `(start, len)` input runs, one per grid row.
    row_blocks: Vec<(usize, usize)>,
    col_groups: Vec<ColGroup>,
}

impl TileGrid {
    /// Computes the grid for an `n_out × n_in` layer under `mapping`,
    /// bounded by `tile` (or monolithic when `None`).
    ///
    /// # Errors
    ///
    /// Returns a shape error if either dimension is zero or the tile is
    /// too narrow to hold even one output under `mapping` (every mapping
    /// needs at least two device columns per tile).
    pub fn new(
        n_out: usize,
        n_in: usize,
        mapping: Mapping,
        tile: Option<TileShape>,
    ) -> Result<Self, MappingError> {
        if n_out == 0 || n_in == 0 {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                "tile_grid",
                format!("layer dimensions must be positive, got {n_out} x {n_in}"),
            )));
        }
        let (row_blocks, col_groups) = match tile {
            None => (
                vec![(0, n_in)],
                vec![ColGroup {
                    out_start: 0,
                    out_len: n_out,
                    dev_start: 0,
                    dev_len: mapping.num_device_columns(n_out),
                }],
            ),
            Some(t) => {
                let cap = Self::outputs_per_tile(mapping, t)?;
                let mut col_groups = Vec::with_capacity(n_out.div_ceil(cap));
                let (mut out, mut dev) = (0, 0);
                while out < n_out {
                    let out_len = cap.min(n_out - out);
                    let dev_len = mapping.num_device_columns(out_len);
                    col_groups.push(ColGroup {
                        out_start: out,
                        out_len,
                        dev_start: dev,
                        dev_len,
                    });
                    out += out_len;
                    dev += dev_len;
                }
                let mut row_blocks = Vec::with_capacity(n_in.div_ceil(t.rows));
                let mut row = 0;
                while row < n_in {
                    let len = t.rows.min(n_in - row);
                    row_blocks.push((row, len));
                    row += len;
                }
                (row_blocks, col_groups)
            }
        };
        Ok(Self {
            mapping,
            n_out,
            n_in,
            tile,
            row_blocks,
            col_groups,
        })
    }

    /// Logical outputs one `tile`-wide physical array can carry under
    /// `mapping`: `cols − 1` for BC/ACM (one local reference column),
    /// `cols / 2` for DE (an element pair per output).
    ///
    /// # Errors
    ///
    /// Returns a shape error if the tile is narrower than two columns.
    fn outputs_per_tile(mapping: Mapping, tile: TileShape) -> Result<usize, MappingError> {
        let cap = match mapping {
            Mapping::DoubleElement => tile.cols / 2,
            Mapping::BiasColumn | Mapping::Acm | Mapping::Perm => tile.cols.saturating_sub(1),
        };
        if cap == 0 {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                "tile_grid",
                format!(
                    "{mapping} needs tiles at least 2 device columns wide, got {}",
                    tile.cols
                ),
            )));
        }
        Ok(cap)
    }

    /// The mapping the grid was laid out for.
    pub fn mapping(&self) -> Mapping {
        self.mapping
    }

    /// Logical outputs.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Logical inputs.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// The physical tile bound (`None` for the monolithic grid).
    pub fn tile_shape(&self) -> Option<TileShape> {
        self.tile
    }

    /// Grid dimensions `(row blocks, column groups)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.row_blocks.len(), self.col_groups.len())
    }

    /// Total physical arrays.
    pub fn num_tiles(&self) -> usize {
        self.row_blocks.len() * self.col_groups.len()
    }

    /// Whether this is the degenerate 1×1 (monolithic) grid.
    pub fn is_monolithic(&self) -> bool {
        self.num_tiles() == 1
    }

    /// `(start, len)` input runs, one per grid row.
    pub fn row_blocks(&self) -> &[(usize, usize)] {
        &self.row_blocks
    }

    /// The output column-groups, one per grid column.
    pub fn col_groups(&self) -> &[ColGroup] {
        &self.col_groups
    }

    /// Total device columns across all groups (`ND`): per group
    /// `outputs + 1` for BC/ACM and `2·outputs` for DE.
    pub fn nd_total(&self) -> usize {
        self.col_groups
            .last()
            .map(|g| g.dev_start + g.dev_len)
            .unwrap_or(0)
    }

    /// Reference columns added *because of tiling*: the device columns
    /// beyond what the monolithic mapping would need. Zero for DE (no
    /// shared reference to replicate) and for any monolithic grid; one
    /// per extra column-group for BC/ACM.
    pub fn replicated_reference_columns(&self) -> usize {
        self.nd_total() - self.mapping.num_device_columns(self.n_out)
    }

    /// The layer-level periphery: block-diagonal over the per-group
    /// stencils (a single plain stencil for the monolithic grid).
    pub fn periphery(&self) -> PeripheryMatrix {
        let blocks: Vec<PeripheryMatrix> = self
            .col_groups
            .iter()
            .map(|g| self.mapping.periphery(g.out_len))
            .collect();
        PeripheryMatrix::block_diagonal(&blocks)
    }

    /// Decomposes a signed `W (n_out × n_in)` into the stacked per-group
    /// non-negative conductance matrix `M (nd_total × n_in)`: each
    /// column-group's row-slice of `W` is decomposed independently under
    /// the group's local stencil, which is exact for all three mappings.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `w` is not `(n_out, n_in)`, or
    /// [`MappingError::NotRepresentable`] if any group's weights exceed
    /// the device range.
    pub fn decompose(
        &self,
        w: &Tensor,
        range: xbar_device::ConductanceRange,
    ) -> Result<Tensor, MappingError> {
        if w.ndim() != 2 || w.shape() != [self.n_out, self.n_in] {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                "tile_grid decompose",
                format!(
                    "expected ({}, {}) weights, got {:?}",
                    self.n_out,
                    self.n_in,
                    w.shape()
                ),
            )));
        }
        if self.col_groups.len() == 1 {
            return decompose(w, self.mapping, range);
        }
        let mut m = Tensor::zeros(&[self.nd_total(), self.n_in]);
        for g in &self.col_groups {
            let w_group = w.block(g.out_start, g.out_len, 0, self.n_in);
            m.write_block(g.dev_start, 0, &decompose(&w_group, self.mapping, range)?);
        }
        Ok(m)
    }

    /// Composes the parasitic read non-idealities of `device` onto a
    /// stacked `(nd_total × n_in)` conductance tensor in place: drift
    /// first (cell state decays where it sits; cells stuck in `faults`
    /// are physically frozen and do not drift), then line-resistance
    /// attenuation applied *tile-locally* — each physical array has its
    /// own wire runs, so the IR drop restarts at every tile boundary.
    /// Drift coordinates are the global stacked `(row, col)`, making the
    /// decay a pure function of the cell's position in the layer
    /// regardless of the tile grid. Leaves the tensor bitwise untouched
    /// when both models are off.
    pub fn apply_parasitics(
        &self,
        conductances: &mut Tensor,
        device: &xbar_device::DeviceConfig,
        faults: &xbar_device::FaultMap,
    ) {
        let drift = device.drift();
        let line = device.line_resistance();
        if drift.is_active() {
            let range = device.range();
            let cols = conductances.shape()[1];
            for (idx, g) in conductances.data_mut().iter_mut().enumerate() {
                let (r, c) = (idx / cols, idx % cols);
                if faults.get(r, c).is_none() {
                    *g = drift.decayed(*g, r, c, range);
                }
            }
        }
        if !line.is_none() {
            for &(r0, rl) in self.row_blocks() {
                for g in self.col_groups() {
                    let mut tile_block = conductances.block(g.dev_start, g.dev_len, r0, rl);
                    line.apply_tile(&mut tile_block);
                    conductances.write_block(g.dev_start, r0, &tile_block);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{magnitude_permutation, remap_for_faults, QuantReadout, ReadoutImage};
    use xbar_device::{ConductanceRange, DeviceConfig, FaultMap, FaultModel, LineResistanceModel};
    use xbar_tensor::{backend, linalg, rng::XorShiftRng};

    fn rng() -> XorShiftRng {
        XorShiftRng::new(171)
    }

    fn tiles(rows: usize, cols: usize) -> Option<TileShape> {
        Some(TileShape::new(rows, cols))
    }

    /// The signed outputs `x · (S·M)ᵀ` of a batch read through `grid`'s
    /// periphery: a mapped layer's fp32 forward, up to its scale `α`.
    fn forward(grid: &TileGrid, m: &Tensor, x: &Tensor) -> Tensor {
        let raw = linalg::matmul_nt(x, m).unwrap();
        grid.periphery().combine(&raw).unwrap()
    }

    /// `W` laid out on `grid` the way a [`Mapping::Perm`] layer stores it:
    /// each column group's rows in descending mid-deviation order, with
    /// the group's inverse permutation folded into its stencil.
    fn perm_layout(
        grid: &TileGrid,
        w: &Tensor,
        range: ConductanceRange,
    ) -> (PeripheryMatrix, Tensor) {
        let mut m = grid.decompose(w, range).unwrap();
        let blocks: Vec<PeripheryMatrix> = grid
            .col_groups()
            .iter()
            .map(|g| {
                let group = m.block(g.dev_start, g.dev_len, 0, grid.n_in());
                let perm = magnitude_permutation(&group, range.midpoint());
                m.write_block(g.dev_start, 0, &group.permute_rows(&perm));
                grid.mapping().periphery(g.out_len).permuted(&perm)
            })
            .collect();
        (PeripheryMatrix::block_diagonal(&blocks), m)
    }

    /// Weight-space error `‖S·G − W‖` of `m` programmed over `faults`,
    /// naively and after remapping each column group against its own
    /// stencil and its own defects (as separate physical arrays would),
    /// with the summed residuals the remap reported.
    fn group_remap_errors(
        grid: &TileGrid,
        periphery: &PeripheryMatrix,
        m: &Tensor,
        faults: &FaultMap,
        w: &Tensor,
    ) -> (f32, f32, f32, f32) {
        let range = DeviceConfig::ideal().range();
        let n_in = grid.n_in();
        let mut remapped = m.clone();
        let (mut before, mut after) = (0.0f32, 0.0f32);
        for g in grid.col_groups() {
            let stencil = periphery
                .diagonal_block(g.out_start, g.out_len, g.dev_start, g.dev_len)
                .unwrap();
            let (shifted, report) = remap_for_faults(
                &m.block(g.dev_start, g.dev_len, 0, n_in),
                &stencil,
                &faults.block(g.dev_start, g.dev_len, 0, n_in),
                range,
            )
            .unwrap();
            remapped.write_block(g.dev_start, 0, &shifted);
            before += report.residual_before().powi(2);
            after += report.residual_after().powi(2);
        }
        let err = |g: &Tensor| {
            let programmed = faults.apply(g, range);
            let read = periphery.apply(&programmed).unwrap();
            read.sub(w).unwrap().norm_sq().sqrt()
        };
        (err(m), err(&remapped), before.sqrt(), after.sqrt())
    }

    #[test]
    fn tiled_matches_monolithic_ideal() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 30], -0.02, 0.02, &mut r);
        let x = Tensor::rand_uniform(&[1, 30], -1.0, 1.0, &mut r);
        let range = DeviceConfig::ideal().range();
        for mapping in Mapping::ALL {
            let mono = TileGrid::new(12, 30, mapping, None).unwrap();
            let tiled = TileGrid::new(12, 30, mapping, tiles(8, 8)).unwrap();
            assert!(tiled.num_tiles() > 1, "{mapping}");
            let ym = forward(&mono, &mono.decompose(&w, range).unwrap(), &x);
            let yt = forward(&tiled, &tiled.decompose(&w, range).unwrap(), &x);
            let exact = linalg::matmul_nt(&x, &w).unwrap();
            assert!(ym.all_close(&exact, 1e-5), "{mapping}: ideal array != W·x");
            assert!(yt.all_close(&ym, 1e-4), "{mapping}: tiled != monolithic");
        }
    }

    #[test]
    fn tiled_forward_matches_monolithic_on_ragged_grid() {
        // 13 outputs x 21 inputs on 8x8 tiles: ragged in both directions
        // for every mapping (ACM/BC groups of 7, DE groups of 4).
        let mut r = rng();
        let w = Tensor::rand_uniform(&[13, 21], -0.02, 0.02, &mut r);
        let x = Tensor::rand_uniform(&[5, 21], -1.0, 1.0, &mut r);
        let range = DeviceConfig::ideal().range();
        for mapping in Mapping::ALL {
            let mono = TileGrid::new(13, 21, mapping, None).unwrap();
            let tiled = TileGrid::new(13, 21, mapping, tiles(8, 8)).unwrap();
            let m = tiled.decompose(&w, range).unwrap();
            let ym = forward(&mono, &mono.decompose(&w, range).unwrap(), &x);
            let yt = forward(&tiled, &m, &x);
            assert!(yt.all_close(&ym, 1e-4), "{mapping}: tiled != monolithic");
            let weights = tiled.periphery().apply(&m).unwrap();
            assert_eq!(weights.shape(), w.shape());
            assert!(weights.all_close(&w, 1e-4), "{mapping}");
        }
    }

    #[test]
    fn parallel_forward_is_bitwise_identical_to_serial() {
        // The int8 readout is the per-tile fan-out left: one integer GEMM
        // and ADC per tile, committed in tile order.
        let mut r = rng();
        let w = Tensor::rand_uniform(&[40, 70], -0.01, 0.01, &mut r);
        let x = Tensor::rand_uniform(&[9, 70], -1.0, 1.0, &mut r);
        let dev = DeviceConfig::quantized_linear(4);
        let grid = TileGrid::new(40, 70, Mapping::Acm, tiles(16, 16)).unwrap();
        let g = grid
            .decompose(&w, dev.range())
            .unwrap()
            .map(|v| dev.snap(v));
        let image = ReadoutImage::new(&g, &grid, &dev).unwrap();
        let mode = QuantReadout::with_adc_bits(8);
        backend::force_serial(true);
        let serial = image.raw_batch(&mode, &x).unwrap();
        backend::force_serial(false);
        let parallel = image.raw_batch(&mode, &x).unwrap();
        assert_eq!(serial.data(), parallel.data(), "per-tile fan-out raced");
    }

    #[test]
    fn grid_dimensions_are_ceilings() {
        // ACM on 16x16 tiles: 15 outputs per group -> ceil(20/15) = 2
        // groups; ceil(50/16) = 4 row blocks.
        let grid = TileGrid::new(20, 50, Mapping::Acm, tiles(16, 16)).unwrap();
        assert_eq!(grid.grid(), (4, 2));
        assert_eq!(grid.num_tiles(), 8);
        assert_eq!(grid.n_in(), 50);
        assert_eq!(grid.n_out(), 20);
        // Per-group ND accounting: 20 outputs + one reference per group.
        assert_eq!(grid.nd_total(), 22);
        assert_eq!(grid.replicated_reference_columns(), 1);
    }

    #[test]
    fn grid_partitions_are_exact() {
        // The grid covers every logical output and input exactly once,
        // and the per-group `N_D` accounting sums to the grid total: 64
        // seeded draws over shapes up to 39x39 and tiles up to 11x11.
        let mut draw = XorShiftRng::new(0x6E1D);
        for case in 0..64 {
            let mapping = Mapping::ALL[draw.below(Mapping::ALL.len())];
            let (n_out, n_in) = (1 + draw.below(39), 1 + draw.below(39));
            let tile = TileShape::new(1 + draw.below(11), 2 + draw.below(10));
            let tag = format!("case {case}: {mapping} {n_out}x{n_in} @{tile}");
            let grid = TileGrid::new(n_out, n_in, mapping, Some(tile)).unwrap();
            let rows: usize = grid.row_blocks().iter().map(|&(_, len)| len).sum();
            assert_eq!(rows, n_in, "{tag}");
            let outs: usize = grid.col_groups().iter().map(|g| g.out_len).sum();
            assert_eq!(outs, n_out, "{tag}");
            let nd: usize = grid.col_groups().iter().map(|g| g.dev_len).sum();
            assert_eq!(nd, grid.nd_total(), "{tag}");
            assert_eq!(
                grid.nd_total(),
                mapping.num_device_columns(n_out) + grid.replicated_reference_columns(),
                "{tag}"
            );
        }
    }

    #[test]
    fn de_needs_more_tiles_than_acm() {
        let tiles_for = |n_out, mapping| {
            TileGrid::new(n_out, 100, mapping, Some(TileShape::standard()))
                .unwrap()
                .num_tiles()
        };
        assert!(tiles_for(60, Mapping::DoubleElement) >= tiles_for(60, Mapping::Acm));
        // DE fits 64 outputs per 128-wide tile -> 2 groups; ACM fits 127 -> 1.
        assert_eq!(
            tiles_for(100, Mapping::DoubleElement),
            2 * tiles_for(100, Mapping::Acm)
        );
    }

    #[test]
    fn quantization_and_variation_apply_per_tile() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[8, 20], -0.02, 0.02, &mut r);
        let dev = DeviceConfig::quantized_linear(4).with_variation_sigma(0.05);
        let grid = TileGrid::new(8, 20, Mapping::DoubleElement, tiles(8, 8)).unwrap();
        assert!(grid.num_tiles() > 1);
        let targets = grid
            .decompose(&w, dev.range())
            .unwrap()
            .map(|v| dev.snap(v));
        let g = dev.variation().sample_tensor(&targets, dev.range(), &mut r);
        let x = Tensor::ones(&[1, 20]);
        // Must still approximate the ideal result. Per-output noise std is
        // ~sigma*sqrt(2*n_in) ~ 0.32, so 1.0 is a ~3-sigma bound on the
        // worst of 8 outputs.
        let ideal = linalg::matmul_nt(&x, &w).unwrap();
        let y = forward(&grid, &g, &x);
        assert!(y.sub(&ideal).unwrap().abs_max() < 1.0);
    }

    #[test]
    fn tile_too_narrow_is_rejected() {
        assert!(TileGrid::new(4, 4, Mapping::Acm, Some(TileShape::new(4, 1))).is_err());
        assert!(TileGrid::new(4, 4, Mapping::DoubleElement, Some(TileShape::new(4, 1))).is_err());
        assert!(TileGrid::new(4, 4, Mapping::BiasColumn, Some(TileShape::new(4, 2))).is_ok());
    }

    #[test]
    fn monolithic_grid_is_degenerate_case() {
        let grid = TileGrid::new(10, 30, Mapping::Acm, None).unwrap();
        assert!(grid.is_monolithic());
        assert_eq!(grid.grid(), (1, 1));
        assert_eq!(grid.nd_total(), 11);
        assert_eq!(grid.replicated_reference_columns(), 0);
        assert_eq!(grid.periphery(), Mapping::Acm.periphery(10));
        // A huge tile is monolithic too.
        let big = TileGrid::new(10, 30, Mapping::Acm, Some(TileShape::standard())).unwrap();
        assert!(big.is_monolithic());
        assert_eq!(big.nd_total(), 11);
    }

    #[test]
    fn grid_decompose_matches_whole_matrix_per_group() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 6], -0.02, 0.02, &mut r);
        let range = DeviceConfig::ideal().range();
        for mapping in Mapping::ALL {
            let grid = TileGrid::new(12, 6, mapping, Some(TileShape::new(8, 8))).unwrap();
            let m = grid.decompose(&w, range).unwrap();
            assert_eq!(m.shape(), [grid.nd_total(), 6]);
            for g in grid.col_groups() {
                let w_group = w.block(g.out_start, g.out_len, 0, 6);
                let m_group = decompose(&w_group, mapping, range).unwrap();
                let got = m.block(g.dev_start, g.dev_len, 0, 6);
                assert!(got.all_close(&m_group, 0.0), "{mapping}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn tile_shape_rejects_zero() {
        let _ = TileShape::new(0, 4);
    }

    #[test]
    fn tiled_line_resistance_restarts_at_tile_boundaries() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 30], 0.005, 0.02, &mut r);
        let dev = DeviceConfig::ideal().with_line_resistance(LineResistanceModel::new(0.01));
        let layout = |tile: usize| {
            let grid = TileGrid::new(12, 30, Mapping::Acm, tiles(tile, tile)).unwrap();
            let m = grid.decompose(&w, dev.range()).unwrap();
            let mut g = m.clone();
            grid.apply_parasitics(&mut g, &dev, &FaultMap::pristine(grid.nd_total(), 30));
            (grid, m, g)
        };
        // Every tile is its own array: its block attenuates exactly as a
        // whole array of the block's size would.
        let (grid, m, g) = layout(8);
        assert!(grid.num_tiles() > 1);
        for &(r0, rl) in grid.row_blocks() {
            for cg in grid.col_groups() {
                let mut want = m.block(cg.dev_start, cg.dev_len, r0, rl);
                dev.line_resistance().apply_tile(&mut want);
                let got = g.block(cg.dev_start, cg.dev_len, r0, rl);
                assert_eq!(got.data(), want.data(), "tile at ({r0}, {})", cg.dev_start);
            }
        }
        // So the same layer split over smaller tiles has shorter wire
        // runs, and a milder worst-case error than monolithic.
        let x = Tensor::ones(&[1, 30]);
        let ideal = linalg::matmul_nt(&x, &w).unwrap();
        let err = |tile: usize| {
            let (grid, _, g) = layout(tile);
            forward(&grid, &g, &x).sub(&ideal).unwrap().abs_max()
        };
        assert!(err(8) < err(128));
    }

    #[test]
    fn tiled_perm_remap_still_recovers_faults() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 24], -0.02, 0.02, &mut r);
        let range = DeviceConfig::ideal().range();
        let grid = TileGrid::new(12, 24, Mapping::Perm, tiles(8, 8)).unwrap();
        let (periphery, m) = perm_layout(&grid, &w, range);
        let faults = FaultModel::uniform(0.02).sample_map(grid.nd_total(), 24, &mut r);
        assert!(faults.num_stuck() > 0);
        let (naive, remapped, before, after) =
            group_remap_errors(&grid, &periphery, &m, &faults, &w);
        assert!(
            remapped < naive,
            "null-space slack survives the permutation"
        );
        assert!(after <= before);
    }

    #[test]
    fn rejects_bad_input_length() {
        let dev = DeviceConfig::quantized_linear(4);
        let mut r = XorShiftRng::new(171);
        let w = Tensor::rand_uniform(&[4, 10], -0.05, 0.05, &mut r);
        let grid = TileGrid::new(4, 10, Mapping::Acm, tiles(8, 8)).unwrap();
        assert!(grid
            .decompose(&Tensor::zeros(&[4, 11]), dev.range())
            .is_err());
        let g = grid
            .decompose(&w, dev.range())
            .unwrap()
            .map(|v| dev.snap(v));
        let image = ReadoutImage::new(&g, &grid, &dev).unwrap();
        let mode = QuantReadout::default();
        assert!(image.raw_batch(&mode, &Tensor::zeros(&[2, 11])).is_err());
        let bad = Tensor::from_vec(vec![f32::NAN; 10], &[1, 10]).unwrap();
        assert!(matches!(
            image.raw_batch(&mode, &bad),
            Err(MappingError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn tile_local_remap_recovers_weight_accuracy() {
        let range = DeviceConfig::ideal().range();
        for (seed, [n_out, n_in]) in [(81, [8, 16]), (171, [12, 24])] {
            let w = Tensor::rand_uniform(&[n_out, n_in], -0.02, 0.02, &mut XorShiftRng::new(seed));
            let grid = TileGrid::new(n_out, n_in, Mapping::Acm, tiles(8, 8)).unwrap();
            assert!(grid.num_tiles() > 1);
            let m = grid.decompose(&w, range).unwrap();
            let faults = FaultModel::uniform(0.02).sample_map(
                grid.nd_total(),
                n_in,
                &mut XorShiftRng::new(5),
            );
            assert!(faults.num_stuck() > 0);
            let (naive, remapped, before, after) =
                group_remap_errors(&grid, &grid.periphery(), &m, &faults, &w);
            assert!(
                remapped < naive * 0.5,
                "{n_out}x{n_in}: remapped error {remapped} vs naive {naive}"
            );
            assert!(after <= before);
        }
    }

    #[test]
    fn tiled_parasitics_off_effective_is_bitwise_programmed() {
        let dev = DeviceConfig::quantized_linear(4).with_variation_sigma(0.03);
        let mut r = XorShiftRng::new(171);
        let w = Tensor::rand_uniform(&[12, 30], -0.02, 0.02, &mut r);
        for mapping in Mapping::ALL {
            let grid = TileGrid::new(12, 30, mapping, tiles(8, 8)).unwrap();
            let targets = grid
                .decompose(&w, dev.range())
                .unwrap()
                .map(|v| dev.snap(v));
            let programmed = dev.variation().sample_tensor(&targets, dev.range(), &mut r);
            let faults = FaultModel::uniform(0.05).sample_map(grid.nd_total(), 30, &mut r);
            let mut effective = programmed.clone();
            grid.apply_parasitics(&mut effective, &dev, &faults);
            assert_eq!(
                effective.data(),
                programmed.data(),
                "{mapping}: parasitics off must be a pure pass-through"
            );
        }
    }

    #[test]
    fn tiled_perm_sorts_each_group_and_stays_exact() {
        let range = DeviceConfig::ideal().range();
        let mut r = XorShiftRng::new(171);
        let small = Tensor::from_vec(vec![0.3, -0.2, 0.1, -0.4, 0.25, 0.05], &[2, 3]).unwrap();
        for w in [small, Tensor::rand_uniform(&[13, 21], -0.02, 0.02, &mut r)] {
            let (n_out, n_in) = (w.shape()[0], w.shape()[1]);
            let grid = TileGrid::new(n_out, n_in, Mapping::Perm, tiles(8, 8)).unwrap();
            let (periphery, m) = perm_layout(&grid, &w, range);
            assert!(periphery.apply(&m).unwrap().all_close(&w, 1e-4));
            // Within every column group the physical rows are in
            // descending mid-deviation order.
            let mid = range.midpoint();
            for g in grid.col_groups() {
                let dev: Vec<f32> = (g.dev_start..g.dev_start + g.dev_len)
                    .map(|j| {
                        m.data()[j * n_in..(j + 1) * n_in]
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
}
