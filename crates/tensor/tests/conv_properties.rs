//! Algebraic properties of the convolution kernels, as seeded loops:
//! every draw has its own seed and channel counts.

use xbar_tensor::conv::{conv2d_backward, conv2d_forward, ConvGeometry};
use xbar_tensor::{rng::XorShiftRng, Tensor};

/// Draws per property.
const DRAWS: usize = 64;

fn tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = XorShiftRng::new(seed);
    Tensor::rand_normal(shape, 0.0, 1.0, &mut rng)
}

/// A size in `lo..hi`.
fn size_in(rng: &mut XorShiftRng, lo: usize, hi: usize) -> usize {
    lo + rng.below(hi - lo)
}

/// Convolution is linear in its input: conv(x1 + x2) = conv(x1) + conv(x2).
#[test]
fn conv_is_linear_in_input() {
    let mut cases = XorShiftRng::new(0xC011);
    let geom = ConvGeometry::new(5, 5, 3, 3, 1, 1).unwrap();
    for _ in 0..DRAWS {
        let seed = cases.next_u64();
        let c = size_in(&mut cases, 1, 3);
        let oc = size_in(&mut cases, 1, 3);
        let x1 = tensor(&[1, c, 5, 5], seed);
        let x2 = tensor(&[1, c, 5, 5], seed ^ 7);
        let w = tensor(&[oc, c * 9], seed ^ 8);
        let y1 = conv2d_forward(&x1, &w, &geom).unwrap();
        let y2 = conv2d_forward(&x2, &w, &geom).unwrap();
        let ysum = conv2d_forward(&x1.add(&x2).unwrap(), &w, &geom).unwrap();
        assert!(ysum.all_close(&y1.add(&y2).unwrap(), 1e-3), "seed {seed}");
    }
}

/// The conv backward pass is the adjoint of the forward pass:
/// <conv(x), g> == <x, conv_backward(g)>.
#[test]
fn conv_backward_is_adjoint() {
    let mut cases = XorShiftRng::new(0xAD70);
    let geom = ConvGeometry::new(4, 4, 3, 3, 1, 1).unwrap();
    for _ in 0..DRAWS {
        let seed = cases.next_u64();
        let c = size_in(&mut cases, 1, 3);
        let x = tensor(&[1, c, 4, 4], seed);
        let w = tensor(&[2, c * 9], seed ^ 9);
        let y = conv2d_forward(&x, &w, &geom).unwrap();
        let g = tensor(y.shape(), seed ^ 10);
        let (gx, _) = conv2d_backward(&g, &x, &w, &geom).unwrap();
        let lhs: f32 = y.data().iter().zip(g.data()).map(|(&a, &b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(gx.data()).map(|(&a, &b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "seed {seed}: {lhs} vs {rhs}"
        );
    }
}
