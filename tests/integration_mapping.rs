//! Cross-crate integration tests of the mapping layer: periphery matrices,
//! decomposition, and the paper's formal claims (Sec. II / III), driven
//! through seeded property loops.

use xbar_core::{
    analysis, compose, decompose, decompose_with_periphery, max_representable_scale, Mapping,
    PeripheryMatrix,
};
use xbar_device::ConductanceRange;
use xbar_tensor::{linalg, rng::XorShiftRng, Tensor};

fn range() -> ConductanceRange {
    ConductanceRange::normalized()
}

/// Cases per property below: each is a seeded loop of this many draws,
/// every draw with its own seed and sizes.
const DRAWS: usize = 64;

/// A size in `lo..hi`.
fn size_in(rng: &mut XorShiftRng, lo: usize, hi: usize) -> usize {
    lo + rng.below(hi - lo)
}

/// W = S·M round-trips exactly for every mapping, for any signed W small
/// enough to be representable.
#[test]
fn decomposition_round_trips() {
    let mut cases = XorShiftRng::new(0xDEC0);
    for _ in 0..DRAWS {
        let mut rng = XorShiftRng::new(cases.next_u64());
        let n_out = size_in(&mut cases, 1, 12);
        let n_in = size_in(&mut cases, 1, 12);
        // Amplitude low enough that even ACM's cumulative spread fits.
        let amp = 0.4 / n_out as f32;
        let w = Tensor::rand_uniform(&[n_out, n_in], -amp, amp, &mut rng);
        for mapping in Mapping::ALL {
            let m = decompose(&w, mapping, range()).expect("representable by construction");
            assert!(m.min() >= 0.0, "{mapping}: negative conductance");
            assert!(m.max() <= 1.0 + 1e-6, "{mapping}: conductance above range");
            let back = compose(&m, mapping).expect("composition never fails on valid M");
            assert!(back.all_close(&w, 1e-4), "{mapping}: reconstruction error");
        }
    }
}

/// The generic Gaussian-elimination solver agrees with the closed-form
/// constructions in reconstruction (not necessarily in M itself — the
/// decomposition is not unique).
#[test]
fn generic_solver_reconstructs() {
    let mut cases = XorShiftRng::new(0x6E0);
    for _ in 0..DRAWS {
        let mut rng = XorShiftRng::new(cases.next_u64());
        let n_out = size_in(&mut cases, 1, 10);
        let n_in = size_in(&mut cases, 1, 8);
        let amp = 0.3 / n_out as f32;
        let w = Tensor::rand_uniform(&[n_out, n_in], -amp, amp, &mut rng);
        for mapping in Mapping::ALL {
            let s = mapping.periphery(n_out);
            let m = decompose_with_periphery(&w, &s, range()).expect("solvable");
            assert!(
                m.min() >= -1e-5,
                "{mapping}: negative M from generic solver"
            );
            let back = linalg::matmul(s.matrix(), &m).expect("dims agree");
            assert!(
                back.all_close(&w, 1e-3),
                "{mapping}: generic reconstruction"
            );
        }
    }
}

/// Every standard periphery matrix passes the paper's sufficient
/// conditions at any size: full row rank and the all-ones null vector.
#[test]
fn periphery_conditions_hold() {
    let mut cases = XorShiftRng::new(0x9E4);
    for _ in 0..DRAWS {
        let n_out = size_in(&mut cases, 1, 32);
        for mapping in Mapping::ALL {
            let s = mapping.periphery(n_out);
            // rank(S) = N_O.
            let r = linalg::rank(s.matrix(), 1e-5).expect("2-D");
            assert_eq!(r, n_out, "{mapping} rank deficient");
            // S · 1 = 0.
            let ones = Tensor::ones(&[s.n_dev()]);
            let prod = linalg::matvec(s.matrix(), &ones).expect("dims");
            assert!(prod.abs_max() < 1e-6, "{mapping} rows do not sum to zero");
            // Revalidation through the public checker agrees.
            assert!(PeripheryMatrix::try_new(s.matrix().clone()).is_ok());
        }
    }
}

/// Paper Eq. (4): for ACM the total weight sum telescopes to the
/// first-minus-last device column totals.
#[test]
fn acm_telescoping_identity() {
    let mut cases = XorShiftRng::new(0xAC4);
    for _ in 0..DRAWS {
        let mut rng = XorShiftRng::new(cases.next_u64());
        let n_out = size_in(&mut cases, 2, 10);
        let n_in = size_in(&mut cases, 1, 10);
        let amp = 0.3 / n_out as f32;
        let w = Tensor::rand_uniform(&[n_out, n_in], -amp, amp, &mut rng);
        let m = decompose(&w, Mapping::Acm, range()).expect("representable");
        assert!(analysis::verify_acm_sum_identity(&m, 1e-3).expect("valid shape"));
    }
}

/// `max_representable_scale` is exact: scaling W right up to the limit
/// decomposes, 5% beyond fails.
#[test]
fn representable_scale_is_sharp() {
    let mut cases = XorShiftRng::new(0x5CA);
    for _ in 0..DRAWS {
        let mut rng = XorShiftRng::new(cases.next_u64());
        let n_out = size_in(&mut cases, 1, 8);
        let n_in = size_in(&mut cases, 1, 8);
        let w = Tensor::rand_uniform(&[n_out, n_in], -1.0, 1.0, &mut rng);
        if w.abs_max() <= 1e-3 {
            continue;
        }
        for mapping in Mapping::ALL {
            let s = max_representable_scale(&w, mapping, range()).expect("2-D");
            assert!(s.is_finite());
            assert!(decompose(&w.scale(s * 0.999), mapping, range()).is_ok());
            assert!(decompose(&w.scale(s * 1.05), mapping, range()).is_err());
        }
    }
}

#[test]
fn hardware_cost_relationships_match_paper_sec2() {
    // DE uses ~2x elements; BC and ACM are at exact resource parity.
    for (n_out, n_in) in [(10usize, 20usize), (100, 400), (7, 3)] {
        let de = analysis::resource_summary(Mapping::DoubleElement, n_in, n_out);
        let bc = analysis::resource_summary(Mapping::BiasColumn, n_in, n_out);
        let acm = analysis::resource_summary(Mapping::Acm, n_in, n_out);
        assert_eq!(bc.elements, acm.elements);
        assert_eq!(bc.columns, acm.columns);
        assert!(de.elements > acm.elements);
        // Operational overhead (periphery add/subs) identical.
        assert_eq!(de.periphery_ops, acm.periphery_ops);
        assert_eq!(bc.periphery_ops, acm.periphery_ops);
        // Dynamic range: DE == ACM == 2x BC.
        assert_eq!(de.weight_range, acm.weight_range);
        assert_eq!(bc.weight_range.1 * 2.0, acm.weight_range.1);
    }
}

#[test]
fn acm_dynamic_range_advantage_is_column_coupled() {
    // A lone large weight fits ACM but not BC; an unbalanced column fits
    // neither ACM nor BC but does fit DE — the paper's Sec. III-D nuance.
    let single = Tensor::from_vec(vec![0.9, -0.9], &[2, 1]).unwrap();
    assert!(decompose(&single, Mapping::Acm, range()).is_ok());
    assert!(decompose(&single, Mapping::BiasColumn, range()).is_err());

    let unbalanced = Tensor::from_vec(vec![0.9, 0.9], &[2, 1]).unwrap();
    assert!(decompose(&unbalanced, Mapping::Acm, range()).is_err());
    assert!(decompose(&unbalanced, Mapping::DoubleElement, range()).is_ok());
}

#[test]
fn regularization_count_shrinks_with_bits_and_outputs() {
    // Sec. III-E: the ACM constraint is tighter (fewer reachable sums) at
    // lower precision; relative tightness scales as 1/N_O.
    let c2 = analysis::representable_sum_count(Mapping::Acm, 2, 64, 16);
    let c6 = analysis::representable_sum_count(Mapping::Acm, 6, 64, 16);
    assert!(c2 < c6);
    let t_small = analysis::constraint_tightness(4, 64, 4);
    let t_large = analysis::constraint_tightness(4, 64, 64);
    assert!(t_large < t_small);
    assert!((t_large * 64.0 - t_small * 4.0).abs() < 0.1);
}
