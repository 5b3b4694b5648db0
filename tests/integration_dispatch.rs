//! Integration suite for the GEMM dispatch layer: every registered
//! routine must be bitwise-identical to the reference on every problem
//! it supports.

use xbar_tensor::dispatch;
use xbar_tensor::rng::XorShiftRng;

/// Deterministic operand data: non-trivial values with mixed signs.
fn operand(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = XorShiftRng::new(seed);
    (0..len).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
}

/// Shapes chosen to hit ragged tails in every blocking dimension:
/// degenerate, prime, the headline square, and the two dense training
/// shapes (forward and weight-gradient orientation).
const SHAPES: [(usize, usize, usize); 6] = [
    (1, 1, 1),
    (97, 89, 83),
    (256, 256, 256),
    (32, 400, 120),
    (400, 32, 120),
    (64, 150, 16),
];

/// Storage length of A for the given transpose flag (stored `(k, m)`
/// when transposed, `(m, k)` otherwise) — same element count either way.
fn run_all_candidates(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<(&'static str, Vec<f32>)> {
    let a = operand(m * k, 11 + m as u64);
    let b = operand(k * n, 23 + n as u64);
    let acc = operand(m * n, 31 + k as u64);
    dispatch::candidate_names(trans_a, trans_b, m, k, n)
        .into_iter()
        .map(|name| {
            let mut out = acc.clone();
            let ok = dispatch::run_routine(name, trans_a, trans_b, &a, &b, &mut out, m, k, n);
            assert!(ok, "{name} must accept a problem it reported supporting");
            (name, out)
        })
        .collect()
}

#[test]
fn every_candidate_routine_is_bitwise_identical_on_every_shape() {
    for &(m, k, n) in &SHAPES {
        for (ta, tb) in [(false, false), (true, false), (false, true)] {
            let runs = run_all_candidates(ta, tb, m, k, n);
            assert!(
                !runs.is_empty(),
                "no candidate supports ta={ta} tb={tb} {m}x{k}x{n}"
            );
            let (ref_name, ref_out) = &runs[0];
            for (name, out) in &runs[1..] {
                assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    ref_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{name} differs from {ref_name} on ta={ta} tb={tb} {m}x{k}x{n}"
                );
            }
        }
    }
}
