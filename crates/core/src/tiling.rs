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
//! [`crate::CrossbarArray`] lays every array out on the grid of its
//! device's tile bound and applies every operation (programming, fault
//! sampling, fault-aware remapping, Monte-Carlo resampling, reads)
//! tile-locally; a device with no tile bound gives the 1×1 grid.

use xbar_device::TileShape;
use xbar_tensor::{backend, linalg, Tensor};

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
    pub fn outputs_per_tile(mapping: Mapping, tile: TileShape) -> Result<usize, MappingError> {
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

/// Raw accumulated column outputs `X · Gᵀ (batch × N_D)` of a batch
/// `X (batch × N_I)` read through the tiles of `grid`, where
/// `conductances` is the stacked `(N_D × N_I)` matrix the tiles hold. Each
/// tile's partial product is a pool task; the partial products are
/// summed digitally across grid rows on the calling thread in submission
/// order, so the result is bitwise identical at any thread count and
/// under any steal interleaving. Callers check the input shape.
pub(crate) fn raw_batch(grid: &TileGrid, conductances: &Tensor, x: &Tensor) -> Tensor {
    let batch = x.shape()[0];
    let nd = grid.nd_total();
    let mut items = Vec::with_capacity(grid.num_tiles());
    for &(r0, rl) in grid.row_blocks() {
        for g in grid.col_groups() {
            items.push(((r0, rl), *g));
        }
    }
    let mut raw = Tensor::zeros(&[batch, nd]);
    let raw_data = raw.data_mut();
    backend::ordered_stream(
        items,
        |_, ((r0, rl), g)| {
            let x_block = x.block(0, batch, r0, rl);
            let m_block = conductances.block(g.dev_start, g.dev_len, r0, rl);
            let partial = linalg::matmul_nt(&x_block, &m_block)
                .expect("tile dimensions agree by construction");
            (g, partial)
        },
        |_, (g, partial)| {
            for b in 0..batch {
                let dst = &mut raw_data[b * nd + g.dev_start..b * nd + g.dev_start + g.dev_len];
                for (d, &p) in dst.iter_mut().zip(&partial.data()[b * g.dev_len..]) {
                    *d += p;
                }
            }
        },
    );
    raw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::tests as twins;
    use crate::CrossbarArray;
    use xbar_device::DeviceConfig;
    use xbar_tensor::rng::XorShiftRng;

    fn rng() -> XorShiftRng {
        XorShiftRng::new(171)
    }

    /// `device` bounded to `rows × cols` tiles.
    fn on_tiles(device: DeviceConfig, rows: usize, cols: usize) -> DeviceConfig {
        device.with_tile_shape(Some(TileShape::new(rows, cols)))
    }

    #[test]
    fn tiled_matches_monolithic_ideal() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 30], -0.02, 0.02, &mut r);
        let x = Tensor::rand_uniform(&[30], -1.0, 1.0, &mut r);
        for mapping in Mapping::ALL {
            let mono =
                CrossbarArray::program_signed(&w, mapping, DeviceConfig::ideal(), &mut r).unwrap();
            let tiled = CrossbarArray::program_signed(
                &w,
                mapping,
                on_tiles(DeviceConfig::ideal(), 8, 8),
                &mut r,
            )
            .unwrap();
            let ym = mono.mvm_signed(&x).unwrap();
            let yt = tiled.mvm_signed(&x).unwrap();
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
        for mapping in Mapping::ALL {
            let mono =
                CrossbarArray::program_signed(&w, mapping, DeviceConfig::ideal(), &mut r).unwrap();
            let tiled = CrossbarArray::program_signed(
                &w,
                mapping,
                on_tiles(DeviceConfig::ideal(), 8, 8),
                &mut r,
            )
            .unwrap();
            let ym = mono.forward(&x).unwrap();
            let yt = tiled.forward(&x).unwrap();
            assert!(yt.all_close(&ym, 1e-4), "{mapping}: tiled != monolithic");
            assert_eq!(tiled.effective_weights().shape(), w.shape());
            assert!(tiled.effective_weights().all_close(&w, 1e-4), "{mapping}");
        }
    }

    #[test]
    fn parallel_forward_is_bitwise_identical_to_serial() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[40, 70], -0.01, 0.01, &mut r);
        let x = Tensor::rand_uniform(&[9, 70], -1.0, 1.0, &mut r);
        let dev = on_tiles(DeviceConfig::ideal(), 16, 16);
        let tiled = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
        backend::force_serial(true);
        let serial = tiled.forward(&x).unwrap();
        backend::force_serial(false);
        let parallel = tiled.forward(&x).unwrap();
        assert_eq!(serial.data(), parallel.data(), "per-tile fan-out raced");
    }

    #[test]
    fn grid_dimensions_are_ceilings() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[20, 50], -0.01, 0.01, &mut r);
        // ACM on 16x16 tiles: 15 outputs per group -> ceil(20/15) = 2
        // groups; ceil(50/16) = 4 row blocks.
        let dev = on_tiles(DeviceConfig::ideal(), 16, 16);
        let t = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
        assert_eq!(t.tile_grid(), (4, 2));
        assert_eq!(t.num_tiles(), 8);
        assert_eq!(t.n_in(), 50);
        assert_eq!(t.n_out(), 20);
        // Per-group ND accounting: 20 outputs + one reference per group.
        assert_eq!(t.n_dev(), 22);
        assert_eq!(t.grid().replicated_reference_columns(), 1);
    }

    #[test]
    fn de_needs_more_tiles_than_acm() {
        let mut r = rng();
        let dev = DeviceConfig::ideal().with_tile_shape(Some(TileShape::standard()));
        let w = Tensor::rand_uniform(&[60, 100], -0.002, 0.002, &mut r);
        let tiles = |mapping| {
            CrossbarArray::program_signed(&w, mapping, dev, &mut XorShiftRng::new(1))
                .unwrap()
                .num_tiles()
        };
        assert!(tiles(Mapping::DoubleElement) >= tiles(Mapping::Acm));
        let w2 = Tensor::rand_uniform(&[100, 100], -0.002, 0.002, &mut r);
        let tiles2 = |mapping| {
            CrossbarArray::program_signed(&w2, mapping, dev, &mut XorShiftRng::new(2))
                .unwrap()
                .num_tiles()
        };
        // DE fits 64 outputs per 128-wide tile -> 2 groups; ACM fits 127 -> 1.
        assert_eq!(tiles2(Mapping::DoubleElement), 2 * tiles2(Mapping::Acm));
    }

    #[test]
    fn quantization_and_variation_apply_per_tile() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[8, 20], -0.02, 0.02, &mut r);
        let dev = on_tiles(
            DeviceConfig::quantized_linear(4).with_variation_sigma(0.05),
            8,
            8,
        );
        let tiled = CrossbarArray::program_signed(&w, Mapping::DoubleElement, dev, &mut r).unwrap();
        let x = Tensor::ones(&[20]);
        // Must still approximate the ideal result. Per-output noise std is
        // ~sigma*sqrt(2*n_in) ~ 0.32, so 1.0 is a ~3-sigma bound on the
        // worst of 8 outputs.
        let ideal = linalg::matvec(&w, &x).unwrap();
        let y = tiled.mvm_signed(&x).unwrap();
        assert!(y.sub(&ideal).unwrap().abs_max() < 1.0);
    }

    #[test]
    fn remap_never_crosses_tile_boundaries() {
        use xbar_device::FaultModel;
        // A fault in one tile must leave every fault-free tile region's
        // targets untouched: the compensation is tile-local. Compare a
        // faulty remapped grid against the same grid with no fault model.
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 8], -0.02, 0.02, &mut r);
        let dev = on_tiles(DeviceConfig::ideal(), 8, 8);
        let clean =
            CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut XorShiftRng::new(7)).unwrap();
        let (remapped, _) = CrossbarArray::program_signed_remapped(
            &w,
            Mapping::Acm,
            dev.with_faults(FaultModel::uniform(0.04)),
            &mut XorShiftRng::new(7),
        )
        .unwrap();
        assert!(remapped.fault_map().num_stuck() > 0);
        // Any group with no faults anywhere in a given input column must
        // hold exactly the clean targets in that column.
        for g in remapped.grid().col_groups() {
            for col in 0..remapped.n_in() {
                let group_has_fault = remapped.fault_map().iter_stuck().any(|(row, c, _)| {
                    c == col && (g.dev_start..g.dev_start + g.dev_len).contains(&row)
                });
                if group_has_fault {
                    continue;
                }
                for row in g.dev_start..g.dev_start + g.dev_len {
                    assert_eq!(
                        remapped.targets().at(&[row, col]),
                        clean.targets().at(&[row, col]),
                        "remap leaked into fault-free tile region ({row}, {col})"
                    );
                }
            }
        }
    }

    #[test]
    fn program_conductances_infers_output_count() {
        let mut r = rng();
        let w = Tensor::rand_uniform(&[13, 10], -0.02, 0.02, &mut r);
        let dev = on_tiles(DeviceConfig::ideal(), 8, 8);
        for mapping in Mapping::ALL {
            let grid = TileGrid::new(13, 10, mapping, dev.tile_shape()).unwrap();
            let m = grid.decompose(&w, dev.range()).unwrap();
            let tiled = CrossbarArray::program_conductances(&m, mapping, dev, &mut r).unwrap();
            assert_eq!(tiled.n_out(), 13, "{mapping}");
            assert!(tiled.effective_weights().all_close(&w, 1e-4), "{mapping}");
        }
        // An inconsistent stacked row count is rejected (ACM on 8-wide
        // tiles: nd = n_out + ceil(n_out/7); nd = 9 has no solution).
        let bad = Tensor::zeros(&[9, 10]);
        assert!(CrossbarArray::program_conductances(&bad, Mapping::Acm, dev, &mut r).is_err());
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
        use xbar_device::LineResistanceModel;
        // The same layer split over smaller tiles has shorter wire runs,
        // so the worst-case attenuation is milder than monolithic.
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 30], 0.005, 0.02, &mut r);
        let x = Tensor::ones(&[30]);
        let dev = DeviceConfig::ideal().with_line_resistance(LineResistanceModel::new(0.01));
        let ideal = linalg::matvec(&w, &x).unwrap();
        let err = |tile: usize| {
            let t = CrossbarArray::program_signed(
                &w,
                Mapping::Acm,
                on_tiles(dev, tile, tile),
                &mut rng(),
            )
            .unwrap();
            t.mvm_signed(&x).unwrap().sub(&ideal).unwrap().abs_max()
        };
        assert!(err(8) < err(128));
    }

    #[test]
    fn tiled_perm_remap_still_recovers_faults() {
        use xbar_device::FaultModel;
        let mut r = rng();
        let w = Tensor::rand_uniform(&[12, 24], -0.02, 0.02, &mut r);
        let dev = on_tiles(
            DeviceConfig::ideal().with_faults(FaultModel::uniform(0.02)),
            8,
            8,
        );
        let naive = CrossbarArray::program_signed(&w, Mapping::Perm, dev, &mut XorShiftRng::new(5))
            .unwrap();
        let (remapped, report) = CrossbarArray::program_signed_remapped(
            &w,
            Mapping::Perm,
            dev,
            &mut XorShiftRng::new(5),
        )
        .unwrap();
        assert!(naive.fault_map().num_stuck() > 0);
        let err = |xb: &CrossbarArray| xb.effective_weights().sub(&w).unwrap().norm_sq().sqrt();
        assert!(
            err(&remapped) < err(&naive),
            "null-space slack survives the permutation"
        );
        assert!(report.residual_after() <= report.residual_before());
    }

    // Twins of the untiled tests in `crossbar.rs`, on a grid of 8×8 tiles.
    #[test]
    fn rejects_bad_input_length() {
        twins::rejects_bad_input_length_on(Some(TileShape::new(8, 8)));
    }

    #[test]
    fn per_tile_fault_maps_and_programming_reports_merge() {
        twins::fault_model_freezes_cells_through_programming_on(Some(TileShape::new(8, 8)));
    }

    #[test]
    fn tile_local_remap_recovers_weight_accuracy() {
        twins::remapped_programming_recovers_weight_accuracy_on(Some(TileShape::new(8, 8)));
    }

    #[test]
    fn resample_keeps_fault_pattern_but_redraws_noise() {
        twins::resample_keeps_fault_pattern_but_redraws_noise_on(Some(TileShape::new(8, 8)));
    }

    #[test]
    fn variation_trials_match_serial_resample_loop() {
        twins::variation_trials_match_serial_resample_loop_on(Some(TileShape::new(8, 8)));
    }

    #[test]
    fn tiled_parasitics_off_effective_is_bitwise_programmed() {
        twins::parasitics_off_effective_is_bitwise_programmed_on(Some(TileShape::new(8, 8)));
    }

    #[test]
    fn tiled_perm_sorts_each_group_and_stays_exact() {
        twins::perm_places_large_magnitude_rows_near_the_driver_on(Some(TileShape::new(8, 8)));
    }
}
