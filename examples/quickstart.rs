//! Quickstart: map a signed weight matrix onto a non-negative crossbar
//! array with the ACM periphery, program it onto a noisy 4-bit device and
//! run a matrix-vector multiply.
//!
//! ```text
//! cargo run --release -p xbar --example quickstart
//! ```

use xbar_core::{analysis, decompose, Mapping};
use xbar_device::{ConductanceRange, DeviceConfig};
use xbar_tensor::{linalg, rng::XorShiftRng, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small signed weight matrix W (4 outputs x 6 inputs).
    let mut rng = XorShiftRng::new(2020);
    let w = Tensor::rand_uniform(&[4, 6], -0.15, 0.15, &mut rng);
    println!("signed W: 4x6, range [{:.3}, {:.3}]", w.min(), w.max());

    // 1. Decompose W = S * M with the adjacent connection matrix. M is
    //    non-negative, so it can be stored as conductances.
    let range = ConductanceRange::normalized();
    let m = decompose(&w, Mapping::Acm, range)?;
    println!(
        "ACM conductance matrix M: {}x{} (one extra column), min {:.3} >= 0",
        m.shape()[0],
        m.shape()[1],
        m.min()
    );

    // 2. The periphery matrix S satisfies the paper's two sufficient
    //    conditions; the Eq. (4) telescoping identity holds.
    let s = Mapping::Acm.periphery(4);
    println!(
        "periphery S: {}x{}, x_h = 1 certificate: {:?}",
        s.n_out(),
        s.n_dev(),
        &s.null_vector()[..2]
    );
    let (lhs, rhs) = analysis::acm_sum_identity(&m)?;
    println!("Eq.(4): sum(W) = {lhs:.4} vs M1 - M_nd = {rhs:.4}");

    // 3. Program M onto a 4-bit device with 5% variation: snap every
    //    conductance to its nearest device state, write the states through
    //    the device's programming model, and read the signed weights the
    //    array realises through the periphery, S·G. Then evaluate an MVM
    //    against the exact result.
    let device = DeviceConfig::builder()
        .bits(4)
        .variation_sigma(0.05)
        .build();
    let targets = m.map(|g| device.snap(g));
    let (g, _report) = device.programming().program_tensor(
        &targets,
        &device.variation(),
        device.range(),
        None,
        &mut rng,
    );
    let w_xbar = s.apply(&g)?;
    let x = Tensor::rand_uniform(&[6], -1.0, 1.0, &mut rng);
    let y_ideal = linalg::matvec(&w, &x)?;
    let y_xbar = linalg::matvec(&w_xbar, &x)?;
    println!("\n   input x: {:?}", x.data());
    println!(" ideal W.x: {:?}", y_ideal.data());
    println!("crossbar y: {:?}", y_xbar.data());
    println!(
        "max |error| from 4-bit quantization + 5% variation: {:.4}",
        y_xbar.sub(&y_ideal)?.abs_max()
    );

    // 4. Resource comparison at a glance.
    println!("\nhardware for a 100x400 layer:");
    for mapping in Mapping::ALL {
        let r = analysis::resource_summary(mapping, 400, 100);
        println!(
            "  {:>3}: {:>6} elements, {:>3} columns, weight range [{:+.1}, {:+.1}]",
            mapping.tag(),
            r.elements,
            r.columns,
            r.weight_range.0,
            r.weight_range.1
        );
    }
    Ok(())
}
