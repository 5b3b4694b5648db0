//! Determinism-contract tests for the compute backend: every parallel
//! kernel must produce results bitwise identical to its serial execution.
//!
//! The whole binary pins the global pool to 4 lanes (via `XBAR_THREADS`
//! before first pool use) so the parallel paths genuinely split work even
//! on a single-core CI host; the serial arm of each comparison runs under
//! [`backend::force_serial`].

use std::sync::{Mutex, Once};

use xbar_tensor::conv::{
    avgpool2d_backward, avgpool2d_forward, conv2d_backward, conv2d_forward, maxpool2d_backward,
    maxpool2d_forward, ConvGeometry,
};
use xbar_tensor::dispatch::Problem;
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::{backend, linalg, Tensor};

/// Pins the global pool to 4 lanes, exactly once, before any test touches
/// it. Every test calls this first.
fn pool4() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        std::env::set_var("XBAR_THREADS", "4");
        assert_eq!(backend::threads(), 4, "pool must pick up XBAR_THREADS");
    });
}

/// Serializes tests that toggle the process-wide force_serial flag.
static SERIAL_TOGGLE: Mutex<()> = Mutex::new(());

/// Runs `f` twice — forced-serial and parallel — and returns both results.
fn both<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = SERIAL_TOGGLE.lock().unwrap();
    backend::force_serial(true);
    let serial = f();
    backend::force_serial(false);
    let parallel = f();
    (serial, parallel)
}

fn rand_t(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = XorShiftRng::new(seed);
    Tensor::rand_normal(shape, 0.0, 1.0, &mut rng)
}

#[test]
fn matmul_variants_bitwise_parity_across_shapes() {
    pool4();
    // Odd shapes: 1×N, N×1, empty dims, non-divisible-by-block, and
    // sizes crossing the small/blocked threshold and KC/NR/MC remainders.
    let shapes: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 300, 40), // 1×N
        (300, 40, 1), // N×1
        (0, 5, 7),    // empty m
        (5, 0, 7),    // empty k
        (5, 7, 0),    // empty n
        (3, 5, 7),
        (65, 129, 17), // non-divisible by MR/NR/MC
        (64, 256, 16), // exact tile multiples
        (67, 300, 33), // KC remainder + row/col remainders
        (130, 64, 70), // multiple MC chunks
    ];
    for &(m, k, n) in shapes {
        let a = rand_t(&[m, k], 1000 + m as u64);
        let b = rand_t(&[k, n], 2000 + n as u64);
        let (s, p) = both(|| linalg::matmul(&a, &b).unwrap());
        assert_eq!(s.data(), p.data(), "matmul {m}x{k}x{n}");

        let at = rand_t(&[k, m], 3000 + m as u64);
        let (s, p) = both(|| linalg::matmul_tn(&at, &b).unwrap());
        assert_eq!(s.data(), p.data(), "matmul_tn {m}x{k}x{n}");

        let bt = rand_t(&[n, k], 4000 + n as u64);
        let (s, p) = both(|| linalg::matmul_nt(&a, &bt).unwrap());
        assert_eq!(s.data(), p.data(), "matmul_nt {m}x{k}x{n}");
    }
}

#[test]
fn matvec_bitwise_parity() {
    pool4();
    for &(m, k) in &[(1usize, 7usize), (700, 13), (33, 1), (2048, 64)] {
        let a = rand_t(&[m, k], 5000 + m as u64);
        let x = rand_t(&[k], 6000 + k as u64);
        let (s, p) = both(|| linalg::matvec(&a, &x).unwrap());
        assert_eq!(s.data(), p.data(), "matvec {m}x{k}");
    }
}

/// Asserts two tensors are bitwise equal (`to_bits`, so `-0.0 ≠ +0.0`).
fn assert_bits(s: &Tensor, p: &Tensor, what: &str) {
    assert_eq!(s.shape(), p.shape(), "{what}: shape");
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(s), bits(p), "{what}");
}

#[test]
fn conv_and_pool_kernels_bitwise_parity() {
    pool4();
    // `(n, c, h, w, out_c, k, stride, pad)`: the ragged stride-2 geometry
    // (every GEMM small), then shapes that put each of the forward, `dW`
    // and `dX` GEMMs in the other class — the last one with `dW` blocks
    // that split a sample.
    let cases = [
        (5, 3, 9, 7, 4, 3, 2, 1),
        (4, 4, 16, 16, 4, 3, 1, 1),
        (3, 1, 12, 12, 16, 2, 1, 0),
        (8, 4, 7, 7, 12, 3, 1, 1),
    ];
    // (forward, dW, dX) × (small, blocked) classes the cases reach.
    let mut classes = [[false; 2]; 3];
    for (i, &(n, c, h, w, out_c, k, stride, pad)) in cases.iter().enumerate() {
        let geom = ConvGeometry::new(h, w, k, k, stride, pad).unwrap();
        let (rows, depth) = (n * geom.out_h * geom.out_w, c * k * k);
        classes[0][usize::from(Problem::new(false, true, rows, depth, out_c).small())] = true;
        classes[1][usize::from(Problem::new(true, false, out_c, rows, depth).small())] = true;
        classes[2][usize::from(Problem::new(false, false, rows, out_c, depth).small())] = true;
        let seed = 7000 + 10 * i as u64;
        let input = rand_t(&[n, c, h, w], seed);
        let weight = rand_t(&[out_c, depth], seed + 1);

        let (s, p) = both(|| conv2d_forward(&input, &weight, &geom).unwrap());
        assert_bits(&s, &p, &format!("conv2d_forward case {i}"));

        let grad_out = rand_t(s.shape(), seed + 2);
        let (s, p) = both(|| conv2d_backward(&grad_out, &input, &weight, &geom).unwrap());
        assert_bits(&s.0, &p.0, &format!("conv2d_backward grad_in case {i}"));
        assert_bits(&s.1, &p.1, &format!("conv2d_backward grad_w case {i}"));
    }
    assert_eq!(
        classes, [[true; 2]; 3],
        "each GEMM must run in both classes"
    );

    let input = rand_t(&[5, 3, 9, 7], 7000);
    let pool_geom = ConvGeometry::new(9, 7, 2, 2, 2, 1).unwrap();
    let (s, p) = both(|| maxpool2d_forward(&input, &pool_geom).unwrap());
    assert_eq!(s.0.data(), p.0.data(), "maxpool fwd");
    assert_eq!(s.1, p.1, "maxpool indices");

    let (mp_out, mp_idx) = s;
    let g = rand_t(mp_out.shape(), 7300);
    let (s, p) = both(|| maxpool2d_backward(&g, &mp_idx, input.shape()).unwrap());
    assert_eq!(s.data(), p.data(), "maxpool bwd");

    let (s, p) = both(|| avgpool2d_forward(&input, &pool_geom).unwrap());
    assert_eq!(s.data(), p.data(), "avgpool fwd");

    let ag = rand_t(s.shape(), 7400);
    let (s, p) = both(|| avgpool2d_backward(&ag, 5, 3, &pool_geom).unwrap());
    assert_eq!(s.data(), p.data(), "avgpool bwd");
}

#[test]
fn xbar_threads_env_controls_configured_lanes() {
    pool4(); // global pool already built at 4 — env changes below only
             // affect `configured_threads`, never the live pool.
    std::env::set_var("XBAR_THREADS", "1");
    assert_eq!(backend::configured_threads(), 1, "serial-mode request");
    std::env::set_var("XBAR_THREADS", "3");
    assert_eq!(backend::configured_threads(), 3);
    std::env::set_var("XBAR_THREADS", "not-a-number");
    assert!(backend::configured_threads() >= 1, "falls back to hardware");
    std::env::set_var("XBAR_THREADS", "0");
    assert!(backend::configured_threads() >= 1, "zero is rejected");
    std::env::set_var("XBAR_THREADS", "4");
    assert_eq!(backend::threads(), 4, "live pool unchanged throughout");
}

#[test]
fn serial_pool_runs_everything_inline() {
    pool4();
    let serial = backend::Pool::new(1);
    assert_eq!(serial.threads(), 1);
    let order = Mutex::new(Vec::new());
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
        .map(|i| {
            let order = &order;
            Box::new(move || order.lock().unwrap().push(i)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    serial.run_scoped(tasks);
    assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
}

#[test]
fn nested_parallel_kernels_do_not_deadlock() {
    pool4();
    // Hold the toggle lock so no concurrent test forces serial mode while
    // this test is specifically exercising the parallel path.
    let _guard = SERIAL_TOGGLE.lock().unwrap();
    // Kernels launched from inside pool tasks must run inline rather than
    // re-enter the pool. parallel_map items each run a full (internally
    // parallel) matmul; with 4 lanes and 8 outer items, any inner
    // re-entry that blocked on a worker would deadlock the pool.
    let a = rand_t(&[65, 70], 8000);
    let b = rand_t(&[70, 33], 8100);
    let expect = linalg::matmul(&a, &b).unwrap();
    let results = backend::parallel_map((0..8).collect::<Vec<usize>>(), |_, _| {
        linalg::matmul(&a, &b).unwrap()
    });
    for r in results {
        assert_eq!(r.data(), expect.data());
    }
}
