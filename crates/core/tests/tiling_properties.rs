//! Property-based tests of tile-granular execution: for any weight
//! shape, tile shape, and mapping, an array on a tiled device agrees with
//! the same array on an untiled one.

// Entire file is proptest-driven; compiled only with the non-default
// `slow-proptests` feature (the proptest dep is unavailable offline).
#![cfg(feature = "slow-proptests")]

use proptest::prelude::*;
use xbar_core::{CrossbarArray, Mapping, TileGrid};
use xbar_device::{DeviceConfig, TileShape};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::Tensor;

fn mapping_strategy() -> impl Strategy<Value = Mapping> {
    prop::sample::select(Mapping::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tiled MVM and batched forward agree with the monolithic array for
    /// any shape/tile/mapping combination, including ragged edge tiles.
    #[test]
    fn tiled_matches_monolithic(
        mapping in mapping_strategy(),
        n_out in 1usize..20,
        n_in in 1usize..24,
        tile_rows in 1usize..10,
        tile_cols in 2usize..10,
        batch in 1usize..5,
        seed in 0u64..1024,
    ) {
        let mut rng = XorShiftRng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        // Keep weights small enough that every mapping can represent them
        // even in the worst case (ACM bounds the cumulative column spread
        // over up to 20 outputs, BC the per-element half-span).
        let w = Tensor::rand_uniform(&[n_out, n_in], -0.02, 0.02, &mut rng);
        let x = Tensor::rand_uniform(&[batch, n_in], -1.0, 1.0, &mut rng);
        let tile = TileShape::new(tile_rows, tile_cols);
        let dev = DeviceConfig::ideal();

        let mut r1 = XorShiftRng::new(7);
        let mono = CrossbarArray::program_signed(&w, mapping, dev, &mut r1).unwrap();
        let mut r2 = XorShiftRng::new(7);
        let tiled =
            CrossbarArray::program_signed(&w, mapping, dev.with_tile_shape(Some(tile)), &mut r2)
                .unwrap();

        let mono_out = mono.forward(&x).unwrap();
        let tiled_out = tiled.forward(&x).unwrap();
        prop_assert!(
            tiled_out.all_close(&mono_out, 1e-3),
            "{mapping} {n_out}x{n_in} @{tile}: forward diverged"
        );
        prop_assert!(
            tiled.effective_weights().all_close(&w, 1e-3),
            "{mapping} {n_out}x{n_in} @{tile}: effective weights diverged"
        );
    }

    /// The grid covers every logical output and input exactly once, and
    /// per-group `N_D` accounting sums to the grid total.
    #[test]
    fn grid_partitions_are_exact(
        mapping in mapping_strategy(),
        n_out in 1usize..40,
        n_in in 1usize..40,
        tile_rows in 1usize..12,
        tile_cols in 2usize..12,
    ) {
        let tile = TileShape::new(tile_rows, tile_cols);
        let grid = TileGrid::new(n_out, n_in, mapping, Some(tile)).unwrap();
        let rows: usize = grid.row_blocks().iter().map(|&(_, len)| len).sum();
        prop_assert_eq!(rows, n_in);
        let outs: usize = grid.col_groups().iter().map(|g| g.out_len).sum();
        prop_assert_eq!(outs, n_out);
        let nd: usize = grid.col_groups().iter().map(|g| g.dev_len).sum();
        prop_assert_eq!(nd, grid.nd_total());
        prop_assert_eq!(
            grid.nd_total(),
            mapping.num_device_columns(n_out) + grid.replicated_reference_columns()
        );
    }
}
