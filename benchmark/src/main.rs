//! End-to-end and per-layer benchmark of the paper's workloads.
//!
//! ```text
//! xbar-e2e-bench --workload <train_resnet20|mc_faults_vgg9|int8_mlp> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one closed-loop client: operation `i + 1` is issued when
//! operation `i` returns, and the only parallelism is the library's own
//! worker pool. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` every network is wrapped in a
//! span-recording `Layer` and the line carries the per-layer metrics.
//! Either way the run re-executes its leading operations in a child
//! process at `XBAR_THREADS=1` with tracing flipped, and counts every
//! digest that differs as a failed operation. Two internal modes serve
//! those child processes: `--check` prints the digests, `--setup-only`
//! the time of one set-up in a fresh process.

mod trace;
mod workloads;

use std::collections::HashMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use xbar_bench::alloc_count::{self, CountingAlloc};
use xbar_core::Mapping;
use xbar_device::TileShape;
use xbar_neurosim::{evaluate_tiled, LayerDims, TechParams};
use xbar_tensor::json::Json;
use xbar_tensor::{backend, tune};

use trace::SpanRec;
use workloads::{Sim, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups per untraced run, each in a fresh process: the run's own and
/// `SETUP_REPS - 1` children. `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Repetitions of each per-layer replay; the median is reported.
const REPLAY_REPS: usize = 7;
/// Leading operations the traced run replays with recording off and on.
const MAX_REPLAYS: usize = 64;

/// Spans recorded during set-up, reported from the last set-up.
const SETUP_SPANS: [&str; 4] = [
    "data.build",
    "models.build",
    "tensor.warmup",
    "nn.calibrate",
];
/// Spans recorded in the timed window.
const TIMED_SPANS: [&str; 14] = [
    "bench.op",
    "nn.train",
    "nn.clone_box",
    "nn.forward",
    "nn.backward",
    "nn.update",
    "nn.zero_grad",
    "nn.evaluate",
    "nn.forward_quantized",
    "nn.param.apply_faults_naive",
    "nn.param.apply_faults_remap",
    "nn.param.apply_parasitics",
    "nn.param.clear_variation",
    "sched.join_wait",
];
/// Largest share of the caller lane's timed wall that the named layer
/// spans (`nn.*`, `nn.param.*`, `sched.join_wait`) may leave uncovered.
const RECONCILE_BOUND: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let cli = xbar_bench::cli::Args::from_env();
    let workload = cli.get_str("workload", "");
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    let seconds: f64 = cli.try_get("seconds", 10.0).map_err(|e| e.to_string())?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace: u8 = cli.try_get("trace", 0).map_err(|e| e.to_string())?;
    if trace > 1 {
        return Err(format!("--trace must be 0 or 1, got {trace}"));
    }
    Ok(Args {
        workload,
        seed: cli.try_get("seed", 1).map_err(|e| e.to_string())?,
        seconds,
        trace: trace == 1,
        check: cli.has("check"),
        setup_only: cli.has("setup-only"),
    })
}

fn main() -> ExitCode {
    alloc_count::mark_installed();
    trace::init();
    let result = parse_args().and_then(|args| {
        if args.check {
            check_run(&args)
        } else if args.setup_only {
            setup_only_run(&args)
        } else {
            full_run(&args)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn setup(args: &Args) -> Result<Box<dyn Workload>, String> {
    workloads::setup(&args.workload, args.seed, args.trace).map_err(|e| format!("set-up: {e}"))
}

/// The leading operations, their digests and their summed simulated
/// statistics, as a child process prints them for the parent to compare.
fn check_run(args: &Args) -> Result<(), String> {
    trace::set_enabled(args.trace);
    let mut w = setup(args)?;
    let setup_digest = w.setup_digest();
    let mut sim = Sim::default();
    let mut ops = Vec::new();
    for i in 0..w.prefix() {
        let out = w.op(i);
        sim.add(&out.sim);
        ops.push(hex(out.digest));
    }
    let report = Json::Obj(vec![
        ("setup".into(), hex(setup_digest)),
        ("ops".into(), Json::Arr(ops)),
        ("sim".into(), hex(sim.digest())),
    ]);
    println!("{}", report.render());
    Ok(())
}

/// Times one set-up of this fresh process, as the child of a run prints
/// it for the parent's `setup_s`.
fn setup_only_run(args: &Args) -> Result<(), String> {
    trace::set_enabled(args.trace);
    let t = Instant::now();
    setup(args)?;
    let took = t.elapsed().as_secs_f64();
    println!(
        "{}",
        Json::Obj(vec![("setup_s".into(), Json::Num(took))]).render()
    );
    Ok(())
}

/// Runs this binary on the run's workload and seed with `extra`
/// arguments and returns the JSON of its last stdout line.
fn child(args: &Args, extra: &[&str], env: &[(&str, &str)]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(extra)
        .envs(env.iter().copied())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("child process: {e}"))?;
    if !out.status.success() {
        return Err(format!("child process {extra:?} failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line).map_err(|e| format!("child process {extra:?} output: {e}"))
}

/// One set-up timed in a fresh child process, in seconds.
fn child_setup_s(args: &Args) -> Result<f64, String> {
    let report = child(args, &["--trace", "0", "--setup-only"], &[])?;
    report
        .get("setup_s")
        .and_then(Json::as_f64)
        .ok_or_else(|| "set-up child printed no setup_s".into())
}

/// Runs the leading operations again in a child at one thread with
/// tracing flipped; returns how many of the set-up, operation and
/// statistics digests differ.
fn cross_check(args: &Args, setup_digest: u64, digests: &[u64], sim: &Sim) -> Result<u64, String> {
    let flipped = if args.trace { "0" } else { "1" };
    let report = child(
        args,
        &["--trace", flipped, "--check"],
        &[("XBAR_THREADS", "1")],
    )?;
    let field = |k: &str| report.get(k).and_then(Json::as_str).map(str::to_owned);
    let mut mismatches = 0;
    if field("setup") != Some(format!("{setup_digest:016x}")) {
        eprintln!("check: set-up digest differs at XBAR_THREADS=1");
        mismatches += 1;
    }
    if field("sim") != Some(format!("{:016x}", sim.digest())) {
        eprintln!("check: simulated statistics differ at XBAR_THREADS=1");
        mismatches += 1;
    }
    let ops = report.get("ops").and_then(Json::as_arr).unwrap_or_default();
    for (i, d) in digests.iter().enumerate() {
        if ops.get(i).and_then(Json::as_str) != Some(format!("{d:016x}").as_str()) {
            eprintln!("check: operation {i} digest differs at XBAR_THREADS=1");
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Linear-interpolated percentile `p` of `v`.
fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let pos = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Throughput as the median over rounds — consecutive runs of one
/// operation per mapping — of a round's items over its time, so a
/// transient stall moves one round and not the figure.
fn work_per_s(items: &[f64], lat_ms: &[f64]) -> f64 {
    let rates: Vec<f64> = items
        .chunks_exact(workloads::ROUND)
        .zip(lat_ms.chunks_exact(workloads::ROUND))
        .map(|(n, t)| n.iter().sum::<f64>() / t.iter().sum::<f64>() * 1e3)
        .collect();
    median(&rates)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process, from the kernel's high-water mark.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Per-span totals: calls, busy time summed over lanes, and self time
/// (busy minus the direct children recorded on the same lane).
#[derive(Default, Clone, Copy)]
struct Agg {
    calls: u64,
    busy_ns: i64,
    self_ns: i64,
}

struct Layers {
    by_name: HashMap<&'static str, Agg>,
    /// Time covered by the named layer spans (`nn.*`, `sched.*`) on the
    /// caller's lane, overlaps counted once.
    lane0_layer_ns: i64,
    /// How much of the caller's `sched.join_wait` time overlaps its `nn.*`
    /// spans. A wait starts after the lane's last task, so anything but 0
    /// means the wait was mis-measured and may hide uncovered work.
    lane0_wait_overlap_ns: i64,
    /// Time covered by the `nn.*` spans, summed over every lane: the time
    /// the lanes were busy in the library.
    nn_busy_ns: i64,
}

/// Time covered by the spans `keep` selects, lane by lane, overlaps
/// counted once.
fn covered(spans: &[SpanRec], keep: impl Fn(&str) -> bool) -> HashMap<u32, i64> {
    let mut iv: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| keep(s.name))
        .map(|s| (s.lane, s.start_ns, s.end_ns))
        .collect();
    iv.sort_unstable();
    let mut covered: HashMap<u32, i64> = HashMap::new();
    let mut cur: Option<(u32, u64, u64)> = None;
    for (lane, start, end) in iv {
        match cur {
            Some((l, cs, ce)) if l == lane && start <= ce => cur = Some((l, cs, ce.max(end))),
            _ => {
                if let Some((l, cs, ce)) = cur {
                    *covered.entry(l).or_default() += (ce - cs) as i64;
                }
                cur = Some((lane, start, end));
            }
        }
    }
    if let Some((l, cs, ce)) = cur {
        *covered.entry(l).or_default() += (ce - cs) as i64;
    }
    covered
}

fn layers(spans: &[SpanRec]) -> Layers {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let dur = |s: &SpanRec| (s.end_ns - s.start_ns) as i64;
    let mut self_ns: Vec<i64> = spans.iter().map(dur).collect();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            if spans[p].lane == s.lane {
                self_ns[p] -= dur(s);
            }
        }
    }
    let mut by_name: HashMap<&'static str, Agg> = HashMap::new();
    for (s, &own) in spans.iter().zip(&self_ns) {
        let a = by_name.entry(s.name).or_default();
        a.calls += 1;
        a.busy_ns += dur(s);
        a.self_ns += own;
    }
    let nn = covered(spans, |n| n.starts_with("nn."));
    let layer = covered(spans, |n| n.starts_with("nn.") || n.starts_with("sched."));
    let lane0 = |c: &HashMap<u32, i64>| c.get(&0).copied().unwrap_or(0);
    let lane0_wait_ns: i64 = spans
        .iter()
        .filter(|s| s.lane == 0 && s.name.starts_with("sched."))
        .map(dur)
        .sum();
    Layers {
        by_name,
        lane0_layer_ns: lane0(&layer),
        lane0_wait_overlap_ns: lane0(&nn) + lane0_wait_ns - lane0(&layer),
        nn_busy_ns: nn.values().sum(),
    }
}

/// Writes the recorded spans, one JSON object a line, to
/// `.bench_trace/<workload>-seed<seed>.jsonl` under the working directory.
fn dump_spans(args: &Args, phases: &[(&str, &[SpanRec])]) -> Result<String, String> {
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let mut text = String::new();
    for (phase, spans) in phases {
        for s in *spans {
            let rec = Json::Obj(vec![
                ("phase".into(), Json::Str((*phase).into())),
                ("name".into(), Json::Str(s.name.into())),
                ("id".into(), Json::Num(s.id as f64)),
                ("parent".into(), Json::Num(s.parent as f64)),
                ("lane".into(), Json::Num(f64::from(s.lane))),
                ("op".into(), Json::Num(s.op as f64)),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
            ]);
            text.push_str(&rec.render());
            text.push('\n');
        }
    }
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// A named metric for the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Calls, busy time and self time of each span; the times as shares of
/// the lane time (`threads` × the window's wall) they were recorded in.
fn span_metrics(out: &mut Vec<Metric>, names: &[&'static str], l: &Layers, lane_ns: f64) {
    for &name in names {
        let a = l.by_name.get(name).copied().unwrap_or_default();
        out.push(metric(format!("{name}.calls"), a.calls as f64, "count"));
        out.push(metric(
            format!("{name}.busy_frac"),
            a.busy_ns as f64 / lane_ns,
            "fraction",
        ));
        out.push(metric(
            format!("{name}.self_frac"),
            a.self_ns as f64 / lane_ns,
            "fraction",
        ));
    }
}

/// Median time (ms) of one `effective_weights()` over every mapped
/// parameter of a network, averaged over the workload's networks.
fn effective_weights_ms(w: &mut dyn Workload) -> f64 {
    let nets = w.nets();
    let n = nets.len() as f64;
    let times: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let t = Instant::now();
            for net in nets.iter_mut() {
                net.visit_mapped(&mut |p| {
                    std::hint::black_box(p.effective_weights());
                });
            }
            ms(t.elapsed()) / n
        })
        .collect();
    median(&times)
}

/// Median time (ms) of the first mapped layer's integer readout on a real
/// batch, averaged over the workload's networks; 0 where the workload
/// runs no integer readout.
fn forward_quantized_ms(w: &mut dyn Workload) -> Result<f64, String> {
    let Some((x, mode)) = w.readout_batch() else {
        return Ok(0.0);
    };
    let nets = w.nets();
    let n = nets.len() as f64;
    let mut err = None;
    let mut times = Vec::new();
    for _ in 0..REPLAY_REPS {
        let mut total = 0.0;
        for net in nets.iter_mut() {
            let mut first = true;
            net.visit_mapped(&mut |p| {
                if std::mem::take(&mut first) {
                    let t = Instant::now();
                    match p.forward_quantized(&x, &mode) {
                        Ok(y) => {
                            std::hint::black_box(y);
                        }
                        Err(e) => err = Some(e),
                    }
                    total += ms(t.elapsed());
                }
            });
        }
        times.push(total / n);
    }
    match err {
        Some(e) => Err(format!("forward_quantized replay: {e}")),
        None => Ok(median(&times)),
    }
}

/// The cost model's read delay (ms) and energy (µJ) of the workload's
/// mapped layers on 128×128 tiles, summed over the mappings.
fn modelled_cost(w: &mut dyn Workload) -> Result<(f64, f64), String> {
    let mut dims = Vec::new();
    w.nets()[0].visit_mapped(&mut |p| dims.push(LayerDims::new(p.n_in(), p.n_out())));
    let workload = xbar_neurosim::Workload::new(dims, "benchmark network");
    let (mut delay, mut energy) = (0.0, 0.0);
    for m in Mapping::ALL {
        let r = evaluate_tiled(&workload, m, TileShape::standard(), &TechParams::default())
            .map_err(|e| format!("cost model: {e}"))?;
        delay += r.read_delay_ms;
        energy += r.read_energy_uj;
    }
    Ok((delay, energy))
}

fn full_run(args: &Args) -> Result<(), String> {
    let threads = backend::threads();
    trace::set_enabled(args.trace);
    let t = Instant::now();
    let mut w = setup(args)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let (setup_spans, _, _) = trace::take();
    let tune_entries = tune::entry_count();
    let setup_digest = w.setup_digest();
    let prefix = w.prefix();
    let setup_failures = w.setup_failures().len() as u64;
    for f in w.setup_failures() {
        eprintln!("check: {f}");
    }

    // The timed window: at least `prefix` operations, then whole rounds
    // until the clock runs out.
    let window = Duration::from_secs_f64(args.seconds);
    let mut lat_ms = Vec::new();
    let mut op_items = Vec::new();
    let (mut attempted, mut failed) = (0u64, setup_failures);
    let mut digests = Vec::with_capacity(prefix);
    let mut sim = Sim::default();
    let (allocs0, bytes0) = alloc_count::snapshot();
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < prefix || !i.is_multiple_of(workloads::ROUND) || t0.elapsed() < window {
        trace::set_op(i as u64);
        let t = Instant::now();
        let out = trace::timed("bench.op", || w.op(i));
        lat_ms.push(ms(t.elapsed()));
        op_items.push(out.items as f64);
        attempted += out.attempted;
        failed += out.errors.len() as u64;
        for e in &out.errors {
            eprintln!("check: {e}");
        }
        if i < prefix {
            digests.push(out.digest);
            sim.add(&out.sim);
        }
        i += 1;
    }
    let wall = t0.elapsed();
    let (allocs1, bytes1) = alloc_count::snapshot();
    let (spans, scratch_hits, scratch_misses) = trace::take();
    let ops = lat_ms.len();
    let wall_s = wall.as_secs_f64();

    let mut correct = true;
    let mut per_layer = Vec::new();
    if args.trace {
        let setup_layers = layers(&setup_spans);
        let l = layers(&spans);
        // The traced self-test: each leading operation replayed with
        // recording off and on must give the timed digest.
        let replays = prefix.min(MAX_REPLAYS);
        let (mut off_s, mut on_s) = (0.0, 0.0);
        for (j, &want) in digests.iter().enumerate().take(replays) {
            // Alternate which side runs first, so warm caches favour neither.
            for traced in [j % 2 == 0, j % 2 != 0] {
                trace::set_enabled(traced);
                let t = Instant::now();
                let out = trace::timed("bench.op", || w.op(j));
                let took = t.elapsed().as_secs_f64();
                *(if traced { &mut on_s } else { &mut off_s }) += took;
                if out.digest != want {
                    eprintln!("check: operation {j} digest changes with tracing");
                    failed += 1;
                }
            }
        }
        trace::set_enabled(false);
        trace::take();
        let overhead = on_s / off_s - 1.0;
        let wall_ns = wall.as_nanos() as f64;
        // Whatever the caller's lane spent outside the named layers: the
        // harness, and any work no layer span covers.
        let unattributed_ns = wall_ns - l.lane0_layer_ns as f64;
        let unattributed = unattributed_ns / wall_ns;
        if unattributed > RECONCILE_BOUND {
            eprintln!(
                "check: the layer spans leave {:.2}% of the caller's wall unattributed",
                100.0 * unattributed
            );
            correct = false;
        }
        if l.lane0_wait_overlap_ns != 0 {
            eprintln!(
                "check: sched.join_wait overlaps the layer spans by {:.3} ms",
                l.lane0_wait_overlap_ns as f64 / 1e6
            );
            correct = false;
        }
        let dumped = dump_spans(args, &[("setup", &setup_spans), ("timed", &spans)])?;
        eprintln!("spans written to {dumped}");
        let lookups = scratch_hits + scratch_misses;
        span_metrics(
            &mut per_layer,
            &SETUP_SPANS,
            &setup_layers,
            threads as f64 * setup_s[0] * 1e9,
        );
        span_metrics(&mut per_layer, &TIMED_SPANS, &l, threads as f64 * wall_ns);
        let per_op = |v: u64| v as f64 / attempted.max(1) as f64;
        let (delay, energy) = modelled_cost(w.as_mut())?;
        per_layer.extend([
            metric("sched.threads", threads as f64, "count"),
            metric(
                "sched.busy_frac",
                l.nn_busy_ns as f64 / (threads as f64 * wall_ns),
                "fraction",
            ),
            metric(
                "tensor.scratch.hit_frac",
                if lookups > 0 {
                    scratch_hits as f64 / lookups as f64
                } else {
                    0.0
                },
                "fraction",
            ),
            metric("tensor.scratch.misses", scratch_misses as f64, "count"),
            metric("tensor.allocs_per_op", per_op(allocs1 - allocs0), "count"),
            metric("tensor.alloc_bytes_per_op", per_op(bytes1 - bytes0), "B"),
            metric("tensor.tune.entries", tune_entries as f64, "count"),
            metric(
                "nn.param.effective_weights_ms",
                effective_weights_ms(w.as_mut()),
                "ms",
            ),
            // A share, not milliseconds: the conv workloads run no integer
            // readout, and a duration reading 0 on every run cannot be told
            // apart from one never measured. The replay is averaged over
            // the mappings, and so is the mean operation it is set against.
            metric(
                "nn.param.forward_quantized.op_frac",
                forward_quantized_ms(w.as_mut())? / (lat_ms.iter().sum::<f64>() / ops as f64),
                "fraction",
            ),
            metric("device.programming.cells", sim.cells as f64, "count"),
            metric("device.programming.stuck", sim.stuck as f64, "count"),
            metric("device.programming.writes", sim.writes as f64, "count"),
            metric(
                "device.programming.unconverged",
                sim.unconverged as f64,
                "count",
            ),
            metric(
                "core.remap.columns_shifted",
                sim.columns_shifted as f64,
                "count",
            ),
            metric("core.remap.residual_after", sim.residual_after, "norm"),
            metric(
                "core.remap.exact_frac",
                if sim.remaps > 0 {
                    sim.exact as f64 / sim.remaps as f64
                } else {
                    0.0
                },
                "fraction",
            ),
            metric("neurosim.read_delay_ms", delay, "sim_ms"),
            metric("neurosim.read_energy_uj", energy, "sim_uJ"),
            metric(
                "nn.quantized.adc8_gap_points",
                w.adc8_gap_points(),
                "points",
            ),
            metric("bench.ops", ops as f64, "count"),
            metric("bench.unattributed_ms", unattributed_ns / 1e6, "ms"),
            metric("bench.unattributed_frac", unattributed, "fraction"),
            metric("bench.trace_overhead_frac", overhead, "fraction"),
        ]);
    }

    let rss = peak_rss_mb()?;
    if !args.trace {
        for _ in 1..SETUP_REPS {
            setup_s.push(child_setup_s(args)?);
        }
    }
    failed += cross_check(args, setup_digest, &digests, &sim)?;
    correct &= failed == 0;

    let end_to_end = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("work_per_s", work_per_s(&op_items, &lat_ms), "items/s"),
        metric("op_p50_ms", percentile(&lat_ms, 50.0), "ms"),
        metric("op_p90_ms", percentile(&lat_ms, 90.0), "ms"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    println!(
        "workload {} seed {} threads {} trace {} ops {ops} wall {wall_s:.3} s",
        args.workload, args.seed, threads, args.trace as u8
    );
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("  setup runs (s): {}", setups.join(" "));
    for m in end_to_end.iter().chain(&per_layer) {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<40} {:>16.6} fraction ({failed} of {attempted})",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    let shown = if args.trace { &per_layer } else { &end_to_end };
    let metrics = shown
        .iter()
        .map(|m| {
            let v = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(())
}
