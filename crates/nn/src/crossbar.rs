//! Device-level tests of the programmed crossbar array a
//! [`crate::MappedParam`] owns: programming onto the device's states,
//! variation, stuck-at faults and their remap, the parasitic read
//! non-idealities, and the read.

#[cfg(test)]
pub(crate) mod tests {
    // Each tile-aware test has one body, `<name>_on(tile)`: the test here
    // runs it untiled, and a twin test in `tiling.rs` runs it on a grid of
    // 8×8 tiles.

    use xbar_core::{remap_for_faults, Mapping, MappingError};
    use xbar_device::{
        DeviceConfig, DriftModel, FaultKind, FaultMap, FaultModel, LineResistanceModel,
        ProgrammingModel, TileShape, UpdateModel, VariationModel,
    };
    use xbar_tensor::rng::XorShiftRng;
    use xbar_tensor::{backend, linalg, Tensor};

    use crate::{MappedParam, NnError, QuantReadout, WeightKind};

    pub(crate) fn rng() -> XorShiftRng {
        XorShiftRng::new(81)
    }

    pub(crate) fn test_w() -> Tensor {
        Tensor::from_vec(vec![0.3, -0.2, 0.1, -0.4, 0.25, 0.05], &[2, 3]).unwrap()
    }

    /// `w` laid out under `mapping` on `device`'s crossbar.
    pub(crate) fn program(w: &Tensor, mapping: Mapping, device: DeviceConfig) -> MappedParam {
        MappedParam::from_signed(w, WeightKind::Mapped(mapping), device).unwrap()
    }

    pub(crate) fn fault_model_freezes_cells_through_programming_on(tile: Option<TileShape>) {
        let dev = DeviceConfig::quantized_linear(4).with_tile_shape(tile);
        for (seed, shape) in [(81, [8, 16]), (171, [12, 24])] {
            let mut r = XorShiftRng::new(seed);
            let w = Tensor::rand_uniform(&shape, -0.02, 0.02, &mut r);
            let mut p = program(&w, Mapping::Acm, dev);
            assert_eq!(p.tile_grid().unwrap().num_tiles() > 1, tile.is_some());
            let (report, _) = p
                .apply_faults(FaultModel::uniform(0.05), 0.0, false, &mut r)
                .unwrap();
            let map = p.fault_map().unwrap();
            let stuck = map.num_stuck();
            assert!(stuck > 0, "{tile:?} {shape:?}: a 5% rate should hit");
            // One report covers every cell of every tile.
            assert_eq!(report.num_stuck(), stuck);
            assert_eq!(report.total_cells(), p.num_params());
            assert!(report.all_converged());
            // Frozen cells hold their forced value in the stacked frame.
            let served = p.served_conductances();
            for (row, col, kind) in map.iter_stuck() {
                assert_eq!(served.at(&[row, col]), kind.forced_value(dev.range()));
            }
        }
    }

    pub(crate) fn variation_trials_match_serial_resample_loop_on(tile: Option<TileShape>) {
        // Monte-Carlo variation trials: trial `t` programs a clone of the
        // layer from the stream forked for it, in trial order, and reads a
        // batch. Fanned across the pool they must be the serial loop's trials.
        let dev = DeviceConfig::quantized_linear(4).with_tile_shape(tile);
        let small = program(&test_w(), Mapping::Acm, dev);
        let x_small = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, 0.2, 0.3], &[2, 3]).unwrap();
        let mut r = XorShiftRng::new(171);
        let w = Tensor::rand_uniform(&[10, 20], -0.02, 0.02, &mut r);
        let large = program(&w, Mapping::Acm, dev);
        let x_large = Tensor::rand_uniform(&[3, 20], -1.0, 1.0, &mut r);
        for (param, x, trials) in [(&small, &x_small, 5), (&large, &x_large, 4)] {
            let trial = |mut fork: XorShiftRng| {
                let mut chip = param.clone();
                chip.apply_variation(0.05, &mut fork);
                linalg::matmul_nt(x, &chip.effective_weights()).unwrap()
            };
            let mut rng_a = XorShiftRng::new(99);
            let forks: Vec<_> = (0..trials as u64).map(|t| rng_a.fork(t)).collect();
            let got = backend::parallel_map(forks, |_, fork| trial(fork));
            assert_eq!(got.len(), trials);
            // Reference: the serial loop with the same fork order.
            let mut rng_b = XorShiftRng::new(99);
            for (t, y) in got.iter().enumerate() {
                let want = trial(rng_b.fork(t as u64));
                assert_eq!(y.data(), want.data(), "{tile:?} trial {t}");
            }
            // Variation is actually redrawn between trials.
            assert!(!got[0].all_close(&got[1], 1e-7));
            // The parent stream advanced exactly as the serial loop's did.
            assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn ideal_crossbar_equals_mathematical_mvm_all_mappings() {
        // The exact decomposition of W programmed onto an ideal device
        // reads back as the mathematical W·x.
        let w = test_w();
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[1, 3]).unwrap();
        let expected = linalg::matmul_nt(&x, &w).unwrap();
        for mapping in Mapping::ALL {
            let mut p = program(&w, mapping, DeviceConfig::ideal());
            let range = p.device().range();
            let mut g = p
                .tile_grid()
                .unwrap()
                .decompose(&w.scale(1.0 / p.alpha()), range)
                .unwrap();
            if let Some(perm) = p.permutation() {
                let order: Vec<usize> = perm.data().iter().map(|&v| v as usize).collect();
                g = g.permute_rows(&order);
            }
            p.set_inference_override(g);
            let y = linalg::matmul_nt(&x, &p.effective_weights()).unwrap();
            assert!(y.all_close(&expected, 1e-5), "{mapping}: {:?}", y.data());
        }
    }

    #[test]
    fn batched_forward_matches_per_sample_mvm() {
        // A calibrated readout codes every activation on one fixed grid
        // and accumulates in integers, so a batch reads as its rows do.
        let mut p = program(&test_w(), Mapping::Acm, DeviceConfig::quantized_linear(4));
        p.apply_variation(0.05, &mut rng());
        let mode = QuantReadout {
            act_range: Some((-1.0, 1.0)),
            ..QuantReadout::default()
        };
        let x = Tensor::from_vec(vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5], &[2, 3]).unwrap();
        let batch = p.forward_quantized(&x, &mode).unwrap();
        for b in 0..2 {
            let single = p.forward_quantized(&x.block(b, 1, 0, 3), &mode).unwrap();
            assert_eq!(&batch.data()[b * 2..(b + 1) * 2], single.data(), "row {b}");
        }
    }

    #[test]
    fn quantized_program_snaps_to_states() {
        let dev = DeviceConfig::quantized_linear(2); // states 0, 1/3, 2/3, 1
        let mut p = program(&test_w(), Mapping::DoubleElement, dev);
        let q = dev.quantizer();
        // As trained, and after a noiseless programming pass.
        let trained = p.served_conductances();
        p.apply_faults(FaultModel::none(), 0.0, false, &mut rng())
            .unwrap();
        for g in [trained, p.served_conductances()] {
            for &v in g.data() {
                assert!(
                    (v - q.quantize(v)).abs() < 1e-6,
                    "{v} is not a device state"
                );
            }
        }
    }

    #[test]
    fn variation_perturbs_but_targets_stay() {
        let dev = DeviceConfig::quantized_linear(4);
        let mut p = program(&test_w(), Mapping::Acm, dev);
        p.apply_variation(0.1, &mut rng());
        let targets = p.conductances().unwrap();
        assert!(!p.served_conductances().all_close(&targets, 1e-4));
        // Targets are still exact device states.
        let q = dev.quantizer();
        for &g in targets.data() {
            assert!((g - q.quantize(g)).abs() < 1e-6);
        }
    }

    #[test]
    fn resample_variation_changes_programmed_not_targets() {
        let mut p = program(&test_w(), Mapping::Acm, DeviceConfig::quantized_linear(4));
        let mut r = rng();
        p.apply_variation(0.1, &mut r);
        let before = p.served_conductances();
        let targets = p.conductances().unwrap();
        // Each draw programs a fresh chip around the same targets.
        p.apply_variation(0.1, &mut r);
        assert!(!p.served_conductances().all_close(&before, 1e-6));
        assert!(p.conductances().unwrap().all_close(&targets, 0.0));
    }

    #[test]
    fn effective_weights_approximate_w_under_quantization() {
        let w = test_w();
        let dev = DeviceConfig::quantized_linear(6);
        let p = program(&w, Mapping::DoubleElement, dev);
        // 6-bit quantization: max error per element <= step (two elements).
        let step = p.alpha() * dev.quantizer().step();
        let eff = p.effective_weights();
        assert!(eff.all_close(&w, step * 1.01), "{:?}", eff.data());
    }

    #[test]
    fn dimensions_reported_correctly() {
        let p = program(&test_w(), Mapping::Acm, DeviceConfig::ideal());
        assert_eq!(p.n_in(), 3);
        assert_eq!(p.n_out(), 2);
        // N_D = n_out + 1 device rows.
        assert_eq!(p.served_conductances().shape(), [3, 3]);
        assert_eq!(p.num_params(), 9);
        assert_eq!(p.mapping(), Some(Mapping::Acm));
    }

    #[test]
    fn rejects_bad_input_length() {
        let dev = DeviceConfig::quantized_linear(4);
        let mode = QuantReadout::default();
        let mut p = program(&test_w(), Mapping::Acm, dev);
        assert!(p.forward_quantized(&Tensor::zeros(&[1, 5]), &mode).is_err());
        let mut r = XorShiftRng::new(171);
        let w = Tensor::rand_uniform(&[4, 10], -0.05, 0.05, &mut r);
        let mut p = program(&w, Mapping::Acm, dev);
        assert!(p
            .forward_quantized(&Tensor::zeros(&[2, 11]), &mode)
            .is_err());
        assert!(p.forward_quantized(&Tensor::zeros(&[10]), &mode).is_err());
        let bad = Tensor::from_vec(vec![f32::NAN; 10], &[1, 10]).unwrap();
        assert!(matches!(
            p.forward_quantized(&bad, &mode),
            Err(NnError::Mapping(MappingError::NonFiniteInput { .. }))
        ));
    }

    #[test]
    fn rejects_non_finite_inputs_and_conductances() {
        let dev = DeviceConfig::quantized_linear(4);
        let mut p = program(&test_w(), Mapping::Acm, dev);
        let mode = QuantReadout::default();
        let bad = Tensor::from_vec(vec![1.0, f32::NAN, 0.0], &[1, 3]).unwrap();
        assert!(matches!(
            p.forward_quantized(&bad, &mode),
            Err(NnError::Mapping(MappingError::NonFiniteInput {
                op: "forward_quantized"
            }))
        ));
        // A calibrated clip range would code ±Inf as a finite edge code.
        let calibrated = QuantReadout {
            act_range: Some((-1.0, 1.0)),
            ..mode
        };
        let bad_batch =
            Tensor::from_vec(vec![0.5, 0.5, 0.5, 0.5, 0.5, f32::INFINITY], &[2, 3]).unwrap();
        assert!(matches!(
            p.forward_quantized(&bad_batch, &calibrated),
            Err(NnError::Mapping(MappingError::NonFiniteInput { .. }))
        ));
        assert!(p.forward_quantized(&Tensor::ones(&[2, 3]), &mode).is_ok());
        // Non-finite conductances never reach the array: the fault remap,
        // the step that reshapes them before programming, rejects them.
        let mut bad_g = p.conductances().unwrap();
        bad_g.data_mut()[1] = f32::NAN;
        let faults = FaultMap::pristine(3, 3);
        assert!(matches!(
            remap_for_faults(&bad_g, p.periphery(), &faults, dev.range()),
            Err(MappingError::NonFiniteInput {
                op: "remap_for_faults"
            })
        ));
    }

    #[test]
    fn fault_free_device_reports_pristine_map_and_full_convergence() {
        let mut p = program(&test_w(), Mapping::Acm, DeviceConfig::ideal());
        let (report, remap) = p
            .apply_faults(FaultModel::none(), 0.0, false, &mut rng())
            .unwrap();
        assert!(remap.is_none());
        assert!(p.fault_map().unwrap().is_pristine());
        assert!(report.all_converged());
        assert_eq!(report.num_unconverged(), 0);
        assert_eq!(report.total_cells(), p.num_params());
    }

    #[test]
    fn fault_model_freezes_cells_through_programming() {
        fault_model_freezes_cells_through_programming_on(None);
    }

    #[test]
    fn remapped_programming_recovers_weight_accuracy() {
        let dev = DeviceConfig::ideal();
        for (seed, shape) in [(81, [8, 16]), (171, [12, 24])] {
            let w = Tensor::rand_uniform(&shape, -0.02, 0.02, &mut XorShiftRng::new(seed));
            let clean = program(&w, Mapping::Acm, dev).effective_weights();
            // Same seed for both arrays → identical fault pattern.
            let run = |remap: bool| {
                let mut p = program(&w, Mapping::Acm, dev);
                let (_, report) = p
                    .apply_faults(
                        FaultModel::uniform(0.02),
                        0.0,
                        remap,
                        &mut XorShiftRng::new(5),
                    )
                    .unwrap();
                let err = p.effective_weights().sub(&clean).unwrap().norm_sq().sqrt();
                (p.fault_map().unwrap().clone(), report, err)
            };
            let (naive_map, no_report, naive) = run(false);
            let (map, report, remapped) = run(true);
            assert!(no_report.is_none());
            assert_eq!(naive_map, map);
            assert!(map.num_stuck() > 0);
            // The layer's conductances fill the device span, so some
            // compensating shifts clamp at its limits and recovery is
            // partial (see `param`'s `fault_remap_recovers_effective_weights`).
            assert!(
                remapped < naive * 0.75,
                "{shape:?}: remapped error {remapped} vs naive {naive}"
            );
            let report = report.unwrap();
            assert!(report.residual_after() <= report.residual_before());
            assert_eq!(report.stuck_cells(), map.num_stuck());
        }
    }

    #[test]
    fn variation_trials_match_serial_resample_loop() {
        variation_trials_match_serial_resample_loop_on(None);
    }

    #[test]
    fn strict_convergence_check_surfaces_programming_failure() {
        // Impossible tolerance with heavy noise: nothing converges, and the
        // report says so instead of the programming pass failing.
        let dev = DeviceConfig::ideal().with_programming(ProgrammingModel::write_verify(2, 1e-6));
        let mut p = program(&test_w(), Mapping::Acm, dev);
        let (report, _) = p
            .apply_faults(FaultModel::none(), 0.2, false, &mut rng())
            .unwrap();
        assert!(report.num_unconverged() > 0);
        assert!(!report.all_converged());
        assert_eq!(report.total_cells(), p.num_params());
    }

    #[test]
    fn write_verify_tightens_programmed_weights() {
        let w = Tensor::rand_uniform(&[8, 16], -0.02, 0.02, &mut rng());
        let err_with = |prog: ProgrammingModel| {
            let mut p = program(
                &w,
                Mapping::Acm,
                DeviceConfig::ideal().with_programming(prog),
            );
            let clean = p.effective_weights();
            p.apply_faults(FaultModel::none(), 0.1, false, &mut XorShiftRng::new(17))
                .unwrap();
            p.effective_weights().sub(&clean).unwrap().norm_sq().sqrt()
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
        // programmed states.
        let w = test_w();
        let dev = DeviceConfig::builder()
            .bits(4)
            .update(UpdateModel::symmetric_nonlinear(5.0))
            .build();
        let mut p = program(&w, Mapping::DoubleElement, dev);
        let mut linear = program(
            &w,
            Mapping::DoubleElement,
            DeviceConfig::quantized_linear(4),
        );
        p.apply_faults(FaultModel::none(), 0.0, false, &mut rng())
            .unwrap();
        linear
            .apply_faults(FaultModel::none(), 0.0, false, &mut rng())
            .unwrap();
        assert_eq!(
            bits(&p.served_conductances()),
            bits(&linear.served_conductances())
        );
        let step = p.alpha() * dev.quantizer().step();
        assert!(p.effective_weights().all_close(&w, step * 2.0));
    }

    #[test]
    fn parasitics_off_effective_is_bitwise_programmed() {
        let mut r = XorShiftRng::new(171);
        let small = test_w();
        let large = Tensor::rand_uniform(&[12, 30], -0.02, 0.02, &mut r);
        for tile in [None, Some(TileShape::new(8, 8))] {
            let dev = DeviceConfig::quantized_linear(4).with_tile_shape(tile);
            for mapping in Mapping::ALL {
                for w in [&small, &large] {
                    let mut p = program(w, mapping, dev);
                    p.apply_variation(0.03, &mut r);
                    let programmed = p.served_conductances();
                    p.apply_parasitics(LineResistanceModel::none(), DriftModel::none())
                        .unwrap();
                    assert_eq!(
                        p.served_conductances().data(),
                        programmed.data(),
                        "{mapping} {tile:?}: parasitics off must be a pure pass-through"
                    );
                }
            }
        }
    }

    #[test]
    fn line_resistance_attenuates_every_live_cell() {
        let w = test_w();
        let mut p = program(&w, Mapping::Acm, DeviceConfig::ideal());
        let programmed = p.served_conductances();
        p.apply_parasitics(LineResistanceModel::new(0.01), DriftModel::none())
            .unwrap();
        for (prog, eff) in programmed.data().iter().zip(p.served_conductances().data()) {
            if *prog > 0.0 {
                assert!(
                    *eff < *prog,
                    "attenuation must strictly shrink {prog} -> {eff}"
                );
            } else {
                assert_eq!(*eff, *prog);
            }
        }
        // Output error grows with the wire resistance.
        let x = Tensor::ones(&[1, w.shape()[1]]);
        let read = |p: &MappedParam| linalg::matmul_nt(&x, &p.effective_weights()).unwrap();
        let ideal = read(&program(&w, Mapping::Acm, DeviceConfig::ideal()));
        let err = |r_frac: f32| {
            let mut p = program(&w, Mapping::Acm, DeviceConfig::ideal());
            p.apply_parasitics(LineResistanceModel::new(r_frac), DriftModel::none())
                .unwrap();
            read(&p).sub(&ideal).unwrap().abs_max()
        };
        assert!(err(0.02) > err(0.002));
    }

    #[test]
    fn drift_decays_toward_g_min_but_skips_stuck_cells() {
        let dev = DeviceConfig::ideal();
        let mut r = rng();
        let w = Tensor::rand_uniform(&[8, 16], -0.02, 0.02, &mut r);
        let mut p = program(&w, Mapping::BiasColumn, dev);
        p.apply_faults(FaultModel::uniform(0.1), 0.0, false, &mut r)
            .unwrap();
        let map = p.fault_map().unwrap().clone();
        // Drift would move a cell stuck at g_max; one stuck at g_min would
        // read the same either way.
        assert!(map
            .iter_stuck()
            .any(|(_, _, kind)| kind == FaultKind::StuckAtGMax));
        let programmed = p.served_conductances();
        p.apply_parasitics(
            LineResistanceModel::none(),
            DriftModel::new(0.1, 0.02, 99).at_time(1000),
        )
        .unwrap();
        let g_min = dev.range().g_min();
        let cols = programmed.shape()[1];
        let mut decayed = 0usize;
        for (idx, (prog, eff)) in programmed
            .data()
            .iter()
            .zip(p.served_conductances().data())
            .enumerate()
        {
            let (r, c) = (idx / cols, idx % cols);
            if map.get(r, c).is_some() {
                assert_eq!(*eff, *prog, "stuck cells are frozen and must not drift");
            } else {
                assert!(*eff <= *prog && *eff >= g_min);
                if *eff < *prog {
                    decayed += 1;
                }
            }
        }
        assert!(decayed > 0, "drift at t=1000 must move some live cells");
    }

    #[test]
    fn perm_reorders_conductance_rows_but_weights_are_exact() {
        let w = test_w();
        let bc = program(&w, Mapping::BiasColumn, DeviceConfig::ideal());
        let perm = program(&w, Mapping::Perm, DeviceConfig::ideal());
        // Same multiset of device rows, different order.
        let rows = |g: &Tensor| {
            let mut rows: Vec<Vec<u32>> = g
                .data()
                .chunks(w.shape()[1])
                .map(|row| row.iter().map(|v| v.to_bits()).collect())
                .collect();
            rows.sort();
            rows
        };
        let (gb, gp) = (bc.served_conductances(), perm.served_conductances());
        assert_eq!(gb.shape(), gp.shape());
        assert_ne!(
            gb.data(),
            gp.data(),
            "the magnitude sort should move rows for a generic W"
        );
        assert_eq!(rows(&gb), rows(&gp));
        // The folded-in inverse permutation keeps the map exact.
        assert!(perm.effective_weights().all_close(&w, 1e-5));
        let x = Tensor::rand_uniform(&[1, w.shape()[1]], -1.0, 1.0, &mut rng());
        let yb = linalg::matmul_nt(&x, &bc.effective_weights()).unwrap();
        let yp = linalg::matmul_nt(&x, &perm.effective_weights()).unwrap();
        assert!(yp.all_close(&yb, 1e-4));
    }

    #[test]
    fn perm_places_large_magnitude_rows_near_the_driver() {
        let mut r = XorShiftRng::new(171);
        let small = test_w();
        let large = Tensor::rand_uniform(&[13, 21], -0.02, 0.02, &mut r);
        for tile in [None, Some(TileShape::new(8, 8))] {
            for w in [&small, &large] {
                let p = program(
                    w,
                    Mapping::Perm,
                    DeviceConfig::ideal().with_tile_shape(tile),
                );
                assert!(p.effective_weights().all_close(w, 1e-4), "{tile:?}");
                // Within every column group the physical rows are in
                // descending mid-deviation order.
                let g = p.served_conductances();
                let mid = p.device().range().midpoint();
                let n_in = p.n_in();
                for group in p.tile_grid().unwrap().col_groups() {
                    let dev: Vec<f32> = (group.dev_start..group.dev_start + group.dev_len)
                        .map(|j| {
                            g.data()[j * n_in..(j + 1) * n_in]
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

    #[test]
    fn untiled_array_is_bitwise_the_hand_built_reference() {
        // Rebuilding the served array stage by stage from the same seed —
        // faults, remap, write-verify with variation, then drift and line
        // resistance — must reproduce every bit `apply_faults` followed by
        // `apply_parasitics` serves.
        let dev = DeviceConfig::quantized_linear(4)
            .with_programming(ProgrammingModel::write_verify(4, 0.02));
        let (faults, sigma) = (FaultModel::uniform(0.05), 0.05);
        let drift = DriftModel::new(0.1, 0.02, 99).at_time(1000);
        let line = LineResistanceModel::new(0.01);
        let range = dev.range();
        let w = Tensor::rand_uniform(&[7, 13], -0.02, 0.02, &mut rng());
        for mapping in Mapping::ALL {
            for remap in [false, true] {
                let tag = format!("{mapping} remap={remap}");
                let mut p = program(&w, mapping, dev);
                let s = p.periphery().clone();
                let mut ref_rng = XorShiftRng::new(23);
                let mut targets = p.conductances().unwrap();
                let (nd, n_in) = (targets.shape()[0], targets.shape()[1]);
                let map = faults.sample_map(nd, n_in, &mut ref_rng);
                if remap {
                    targets = remap_for_faults(&targets, &s, &map, range).unwrap().0;
                }
                let (programmed, report) = dev.programming().program_tensor(
                    &targets,
                    &VariationModel::new(sigma),
                    range,
                    Some(&map),
                    &mut ref_rng,
                );
                let mut effective = programmed.clone();
                for (idx, g) in effective.data_mut().iter_mut().enumerate() {
                    let (row, col) = (idx / n_in, idx % n_in);
                    if map.get(row, col).is_none() {
                        *g = drift.decayed(*g, row, col, range);
                    }
                }
                line.apply_tile(&mut effective);

                let mut rng = XorShiftRng::new(23);
                let (got_report, _) = p.apply_faults(faults, sigma, remap, &mut rng).unwrap();
                assert!(map.num_stuck() > 0, "{tag}: the device must be faulty");
                assert_eq!(p.fault_map(), Some(&map), "{tag}");
                assert_eq!(got_report, report, "{tag}");
                assert_eq!(
                    bits(&p.served_conductances()),
                    bits(&programmed),
                    "{tag}: programmed"
                );
                assert_eq!(rng.next_u64(), ref_rng.next_u64(), "{tag}: rng stream");
                p.apply_parasitics(line, drift).unwrap();
                assert_eq!(
                    bits(&p.served_conductances()),
                    bits(&effective),
                    "{tag}: effective"
                );
                let want = s.apply(&effective).unwrap().scale(p.alpha());
                assert_eq!(bits(&p.effective_weights()), bits(&want), "{tag}: S·G");
            }
        }
    }

    #[test]
    fn stencil_reads_match_the_dense_periphery_products_bit_for_bit() {
        // After faults, variation, drift and line resistance, the stencil
        // periphery still computes exactly the dense products with `S`:
        // `S·G` for the weights, and `Sᵀ` over the raw column sums of a read.
        let dev = DeviceConfig::quantized_linear(4);
        let drift = DriftModel::new(0.1, 0.02, 99).at_time(1000);
        let line = LineResistanceModel::new(0.01);
        let mut r = rng();
        let w = Tensor::rand_uniform(&[19, 11], -0.02, 0.02, &mut r);
        // Signed zeros and subnormals on the read side too.
        let mut x = Tensor::rand_uniform(&[3, 11], -1.0, 1.0, &mut r);
        x.data_mut()[..4].copy_from_slice(&[0.0, -0.0, f32::from_bits(3), -f32::from_bits(9)]);
        for mapping in Mapping::ALL {
            for tile in [
                None,
                Some(TileShape::new(4, 5)),
                Some(TileShape::new(8, 16)),
            ] {
                let tag = format!("{mapping} tile={tile:?}");
                let mut p = program(&w, mapping, dev.with_tile_shape(tile));
                p.apply_faults(FaultModel::uniform(0.05), 0.05, false, &mut r)
                    .unwrap();
                p.apply_parasitics(line, drift).unwrap();
                let g = p.served_conductances();
                let s = p.periphery().matrix();
                let dense = linalg::matmul(s, &g).unwrap().scale(p.alpha());
                assert_eq!(bits(&p.effective_weights()), bits(&dense), "{tag}: S·G");
                let raw = linalg::matmul_nt(&x, &g).unwrap();
                let read = p.periphery().combine(&raw).unwrap();
                for b in 0..3 {
                    let want = linalg::matvec(s, &raw.row(b)).unwrap();
                    assert_eq!(bits(&read.row(b)), bits(&want), "{tag}: read of sample {b}");
                }
            }
        }
    }
}
