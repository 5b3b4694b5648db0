//! Extension ablation: non-uniform device state ladders.
//!
//! A pulse-programmed nonlinear device exposes 2^B states at equal *pulse*
//! spacing along its transfer curve — non-uniform in conductance (sparse
//! near g_min for the symmetric model). The paper quantizes uniformly
//! (write-verify programming, ref \[17\]); this ablation measures what
//! happens when a network trained with uniform QAT is deployed onto
//! blind-pulse-programmed devices whose realised states follow the ladder
//! (`DeviceConfig::snap`), with no fine-tuning — a deployment-time
//! mismatch study per mapping.
//!
//! ```text
//! cargo run -p xbar-bench --release --bin ablation_ladder -- --bits 3 --nu 5
//! ```

use xbar_bench::cli::Args;
use xbar_bench::error::{exit_on_error, BenchError};
use xbar_bench::experiments::{ModelType, NetKind, Setup};
use xbar_bench::output::{pct, ResultsTable};
use xbar_device::{DeviceConfig, UpdateModel};
use xbar_nn::{evaluate, Layer};
use xbar_tensor::Tensor;

fn main() {
    exit_on_error(run(Args::from_env()));
}

fn run(args: Args) -> Result<(), BenchError> {
    let nu: f32 = args.try_get("nu", 5.0)?;
    let mut setup = Setup::new(NetKind::Lenet);
    setup.epochs = args.try_get("epochs", 10)?;
    setup.train_n = args.try_get("train", 1000)?;
    setup.test_n = args.try_get("test", 300)?;
    setup.seed = args.try_get("seed", setup.seed)?;
    if args.has("tiny") {
        setup.scale = xbar_models::ModelScale::Tiny;
    }
    let bits_list: Vec<u8> = match args.try_get::<i64>("bits", -1)? {
        -1 => vec![2, 3, 4, 6],
        b => vec![b as u8],
    };

    eprintln!("nonuniform-ladder deployment ablation: LeNet, nu={nu}");
    let data = setup.data();

    // Two columns per mapping, so the header follows `ModelType::MAPPED`.
    let accs: Vec<String> = ModelType::MAPPED
        .iter()
        .flat_map(|m| {
            [
                format!("{} uni%", m.label()),
                format!("{} ladder%", m.label()),
            ]
        })
        .collect();
    let header: Vec<&str> = std::iter::once("bits")
        .chain(accs.iter().map(String::as_str))
        .collect();
    let mut table = ResultsTable::new(&header);
    for &bits in &bits_list {
        let device = DeviceConfig::quantized_linear(bits);
        // Deployment device: same bit count, states on the nonlinear curve.
        let ladder_dev = DeviceConfig::builder()
            .bits(bits)
            .update(UpdateModel::symmetric_nonlinear(nu))
            .build();
        let mut row = vec![bits.to_string()];
        for model in ModelType::MAPPED {
            let (mut net, _) = setup.train_model_keep(model, device, &data)?;
            let (_, uni_acc) = evaluate(
                &mut net,
                data.test.features(),
                data.test.labels(),
                setup.batch,
            )?;
            // Redeploy: snap every trained conductance onto the ladder by
            // overriding with the ladder-snapped shadow (variation
            // override doubles as a deployment-override mechanism).
            net.visit_mapped(&mut |p| {
                let snapped: Vec<f32> = p
                    .shadow()
                    .data()
                    .iter()
                    .map(|&g| ladder_dev.snap(g))
                    .collect();
                let t = Tensor::from_vec(snapped, p.shadow().shape()).expect("same shape");
                p.set_inference_override(t);
            });
            let (_, ladder_acc) = evaluate(
                &mut net,
                data.test.features(),
                data.test.labels(),
                setup.batch,
            )?;
            net.visit_mapped(&mut |p| p.clear_variation());
            row.push(pct(100.0 * uni_acc));
            row.push(pct(100.0 * ladder_acc));
        }
        table.push(row);
    }
    table.print(args.has("csv"));
    Ok(())
}
