//! Property-based tests of the tensor kernels: algebraic identities that
//! must hold for arbitrary shapes and values.

// Entire file is proptest-driven; compiled only with the non-default
// `slow-proptests` feature (the proptest dep is unavailable offline).
#![cfg(feature = "slow-proptests")]

use proptest::prelude::*;
use xbar_tensor::{linalg, rng::XorShiftRng, Tensor};

fn tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = XorShiftRng::new(seed);
    Tensor::rand_normal(shape, 0.0, 1.0, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn matmul_transpose_identity(
        seed in any::<u64>(),
        m in 1usize..8, k in 1usize..8, n in 1usize..8,
    ) {
        let a = tensor(&[m, k], seed);
        let b = tensor(&[k, n], seed ^ 1);
        let left = linalg::matmul(&a, &b).unwrap().transpose().unwrap();
        let right = linalg::matmul(&b.transpose().unwrap(), &a.transpose().unwrap()).unwrap();
        prop_assert!(left.all_close(&right, 1e-4));
    }

    /// Matmul distributes over addition: A·(B + C) = A·B + A·C.
    #[test]
    fn matmul_distributes(
        seed in any::<u64>(),
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
    ) {
        let a = tensor(&[m, k], seed);
        let b = tensor(&[k, n], seed ^ 2);
        let c = tensor(&[k, n], seed ^ 3);
        let left = linalg::matmul(&a, &b.add(&c).unwrap()).unwrap();
        let right = linalg::matmul(&a, &b)
            .unwrap()
            .add(&linalg::matmul(&a, &c).unwrap())
            .unwrap();
        prop_assert!(left.all_close(&right, 1e-3));
    }

    /// matmul_tn and matmul_nt agree with explicit transposes.
    #[test]
    fn transposed_kernels_agree(
        seed in any::<u64>(),
        m in 1usize..7, k in 1usize..7, n in 1usize..7,
    ) {
        let a = tensor(&[k, m], seed);
        let b = tensor(&[k, n], seed ^ 4);
        let tn = linalg::matmul_tn(&a, &b).unwrap();
        let explicit = linalg::matmul(&a.transpose().unwrap(), &b).unwrap();
        prop_assert!(tn.all_close(&explicit, 1e-4));

        let c = tensor(&[m, k], seed ^ 5);
        let d = tensor(&[n, k], seed ^ 6);
        let nt = linalg::matmul_nt(&c, &d).unwrap();
        let explicit = linalg::matmul(&c, &d.transpose().unwrap()).unwrap();
        prop_assert!(nt.all_close(&explicit, 1e-4));
    }

    /// rank(A) ≤ min(m, n); rank of a product ≤ min of ranks.
    #[test]
    fn rank_bounds(seed in any::<u64>(), m in 1usize..6, n in 1usize..6) {
        let a = tensor(&[m, n], seed);
        let r = linalg::rank(&a, 1e-5).unwrap();
        prop_assert!(r <= m.min(n));
    }

    /// Reshape preserves data; transpose twice is identity.
    #[test]
    fn structural_round_trips(seed in any::<u64>(), m in 1usize..8, n in 1usize..8) {
        let a = tensor(&[m, n], seed);
        let r = a.reshape(&[n, m]).unwrap();
        prop_assert_eq!(r.data(), a.data());
        let tt = a.transpose().unwrap().transpose().unwrap();
        prop_assert_eq!(&tt, &a);
    }
}
