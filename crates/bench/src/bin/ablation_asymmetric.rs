//! Extension ablation: asymmetric weight-update nonlinearity.
//!
//! The paper trains with *symmetric* up/down nonlinearity to isolate the
//! nonlinearity's effect from learning-rule asymmetry (Sec. IV), noting
//! that ACM, being a linear transform, is also compatible with rules
//! tailored for asymmetric devices. This experiment quantifies what the
//! symmetric assumption hides: it repeats the Fig. 5f sweep with an
//! asymmetric device (potentiation and depression each following their own
//! exponential, the common RRAM behaviour, paper ref \[8\]).
//!
//! ```text
//! cargo run -p xbar-bench --release --bin ablation_asymmetric -- --bits 4
//! ```

use xbar_bench::cli::Args;
use xbar_bench::error::{exit_on_error, BenchError};
use xbar_bench::experiments::{ModelType, NetKind, Setup};
use xbar_bench::output::{pct, ResultsTable};
use xbar_device::{DeviceConfig, UpdateModel};
use xbar_models::ModelScale;

fn main() {
    exit_on_error(run(Args::from_env()));
}

fn run(args: Args) -> Result<(), BenchError> {
    let bits: u8 = args.try_get("bits", 4)?;
    let nu: f32 = args.try_get("nu", 5.0)?;
    let mut setup = Setup::new(NetKind::Lenet);
    setup.epochs = args.try_get("epochs", 10)?;
    setup.train_n = args.try_get("train", 1000)?;
    setup.test_n = args.try_get("test", 300)?;
    setup.seed = args.try_get("seed", setup.seed)?;
    if args.has("tiny") {
        setup.scale = ModelScale::Tiny;
    }

    eprintln!(
        "asymmetric-update ablation: LeNet, {bits}-bit, nu={nu}, {} epochs",
        setup.epochs
    );
    let data = setup.data();

    let devices = [
        ("linear", DeviceConfig::quantized_linear(bits)),
        ("symmetric", DeviceConfig::quantized_nonlinear(bits, nu)),
        (
            "asymmetric",
            DeviceConfig::builder()
                .bits(bits)
                .update(UpdateModel::asymmetric_nonlinear(nu, nu))
                .build(),
        ),
    ];

    // One column per mapping, so the header follows `ModelType::MAPPED`.
    let errs: Vec<String> = ModelType::MAPPED
        .iter()
        .map(|m| format!("{}-err%", m.label()))
        .collect();
    let header: Vec<&str> = std::iter::once("update")
        .chain(errs.iter().map(String::as_str))
        .collect();
    let mut table = ResultsTable::new(&header);
    for (name, device) in devices {
        let mut row = vec![name.to_string()];
        for model in ModelType::MAPPED {
            let hist = setup.train_model(model, device, &data)?;
            let err = hist.best_test_acc().map_or(100.0, |a| 100.0 * (1.0 - a));
            row.push(pct(err));
        }
        table.push(row);
    }
    table.print(args.has("csv"));
    eprintln!(
        "expectation: asymmetric >= symmetric >= linear error for every mapping; \
         the gap quantifies what the paper's symmetric assumption isolates away"
    );
    Ok(())
}
