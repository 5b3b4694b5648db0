//! Algebraic identities of the tensor kernels that must hold for arbitrary
//! shapes and values, as seeded loops: every draw has its own seed and
//! dimensions.

use xbar_tensor::{linalg, rng::XorShiftRng, Tensor};

/// Draws per property.
const DRAWS: usize = 64;

fn tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = XorShiftRng::new(seed);
    Tensor::rand_normal(shape, 0.0, 1.0, &mut rng)
}

/// A size in `1..hi`.
fn size_below(rng: &mut XorShiftRng, hi: usize) -> usize {
    1 + rng.below(hi - 1)
}

/// (A·B)ᵀ = Bᵀ·Aᵀ.
#[test]
fn matmul_transpose_identity() {
    let mut cases = XorShiftRng::new(0x7A05);
    for _ in 0..DRAWS {
        let seed = cases.next_u64();
        let (m, k, n) = (
            size_below(&mut cases, 8),
            size_below(&mut cases, 8),
            size_below(&mut cases, 8),
        );
        let a = tensor(&[m, k], seed);
        let b = tensor(&[k, n], seed ^ 1);
        let left = linalg::matmul(&a, &b).unwrap().transpose().unwrap();
        let right = linalg::matmul(&b.transpose().unwrap(), &a.transpose().unwrap()).unwrap();
        assert!(left.all_close(&right, 1e-4), "seed {seed}, {m}x{k}x{n}");
    }
}

/// Matmul distributes over addition: A·(B + C) = A·B + A·C.
#[test]
fn matmul_distributes() {
    let mut cases = XorShiftRng::new(0xD157);
    for _ in 0..DRAWS {
        let seed = cases.next_u64();
        let (m, k, n) = (
            size_below(&mut cases, 6),
            size_below(&mut cases, 6),
            size_below(&mut cases, 6),
        );
        let a = tensor(&[m, k], seed);
        let b = tensor(&[k, n], seed ^ 2);
        let c = tensor(&[k, n], seed ^ 3);
        let left = linalg::matmul(&a, &b.add(&c).unwrap()).unwrap();
        let right = linalg::matmul(&a, &b)
            .unwrap()
            .add(&linalg::matmul(&a, &c).unwrap())
            .unwrap();
        assert!(left.all_close(&right, 1e-3), "seed {seed}, {m}x{k}x{n}");
    }
}

/// matmul_tn and matmul_nt agree with explicit transposes.
#[test]
fn transposed_kernels_agree() {
    let mut cases = XorShiftRng::new(0x7247);
    for _ in 0..DRAWS {
        let seed = cases.next_u64();
        let (m, k, n) = (
            size_below(&mut cases, 7),
            size_below(&mut cases, 7),
            size_below(&mut cases, 7),
        );
        let a = tensor(&[k, m], seed);
        let b = tensor(&[k, n], seed ^ 4);
        let tn = linalg::matmul_tn(&a, &b).unwrap();
        let explicit = linalg::matmul(&a.transpose().unwrap(), &b).unwrap();
        assert!(tn.all_close(&explicit, 1e-4), "TN seed {seed}, {m}x{k}x{n}");

        let c = tensor(&[m, k], seed ^ 5);
        let d = tensor(&[n, k], seed ^ 6);
        let nt = linalg::matmul_nt(&c, &d).unwrap();
        let explicit = linalg::matmul(&c, &d.transpose().unwrap()).unwrap();
        assert!(nt.all_close(&explicit, 1e-4), "NT seed {seed}, {m}x{k}x{n}");
    }
}

/// rank(A) ≤ min(m, n).
#[test]
fn rank_bounds() {
    let mut cases = XorShiftRng::new(0x4A2C);
    for _ in 0..DRAWS {
        let seed = cases.next_u64();
        let (m, n) = (size_below(&mut cases, 6), size_below(&mut cases, 6));
        let a = tensor(&[m, n], seed);
        let r = linalg::rank(&a, 1e-5).unwrap();
        assert!(r <= m.min(n), "seed {seed}: rank {r} of a {m}x{n} matrix");
    }
}

/// Reshape preserves data; transpose twice is identity.
#[test]
fn structural_round_trips() {
    let mut cases = XorShiftRng::new(0x5720);
    for _ in 0..DRAWS {
        let seed = cases.next_u64();
        let (m, n) = (size_below(&mut cases, 8), size_below(&mut cases, 8));
        let a = tensor(&[m, n], seed);
        let r = a.reshape(&[n, m]).unwrap();
        assert_eq!(r.data(), a.data(), "seed {seed}");
        let tt = a.transpose().unwrap().transpose().unwrap();
        assert_eq!(tt, a, "seed {seed}");
    }
}
