//! The tile-aware tests of [`crate::crossbar`] on a grid of 8×8 tiles,
//! and the tile locality of the fault remap.

#[cfg(test)]
mod tests {
    use xbar_core::Mapping;
    use xbar_device::{DeviceConfig, FaultModel, TileShape};
    use xbar_tensor::rng::XorShiftRng;
    use xbar_tensor::Tensor;

    use crate::crossbar::tests::{
        fault_model_freezes_cells_through_programming_on, program,
        variation_trials_match_serial_resample_loop_on,
    };

    fn tiles() -> Option<TileShape> {
        Some(TileShape::new(8, 8))
    }

    #[test]
    fn per_tile_fault_maps_and_programming_reports_merge() {
        // Stuck cells freeze in every tile, and one programming report
        // covers the cells of all tiles.
        fault_model_freezes_cells_through_programming_on(tiles());
    }

    #[test]
    fn variation_trials_match_serial_resample_loop() {
        variation_trials_match_serial_resample_loop_on(tiles());
    }

    #[test]
    fn remap_never_crosses_tile_boundaries() {
        // A fault in one tile must leave every fault-free tile region's
        // conductances untouched: the compensation is tile-local. Compare a
        // faulty remapped layer against the same layer served clean.
        let mut r = XorShiftRng::new(171);
        let w = Tensor::rand_uniform(&[12, 8], -0.02, 0.02, &mut r);
        let dev = DeviceConfig::ideal().with_tile_shape(tiles());
        for mapping in Mapping::ALL {
            let mut p = program(&w, mapping, dev);
            let clean = p.served_conductances();
            p.apply_faults(
                FaultModel::uniform(0.04),
                0.0,
                true,
                &mut XorShiftRng::new(7),
            )
            .unwrap();
            let map = p.fault_map().unwrap();
            assert!(map.num_stuck() > 0, "{mapping}");
            let served = p.served_conductances();
            let groups = p.tile_grid().unwrap().col_groups();
            assert!(groups.len() > 1, "{mapping}");
            // Any group with no fault in a given input column must hold
            // exactly the clean conductances in that column.
            for g in groups {
                let rows = g.dev_start..g.dev_start + g.dev_len;
                for col in 0..p.n_in() {
                    let group_has_fault = map
                        .iter_stuck()
                        .any(|(row, c, _)| c == col && rows.contains(&row));
                    if group_has_fault {
                        continue;
                    }
                    for row in rows.clone() {
                        assert_eq!(
                            served.at(&[row, col]),
                            clean.at(&[row, col]),
                            "{mapping}: remap leaked into fault-free tile region ({row}, {col})"
                        );
                    }
                }
            }
        }
    }
}
