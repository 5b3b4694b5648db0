//! Vanilla-SGD training driver.
//!
//! The paper trains every model "using a vanilla stochastic gradient
//! descent" (Sec. IV); this module provides exactly that — shuffled
//! mini-batches, a constant or step-decayed learning rate, per-epoch
//! train/test statistics — over any [`Layer`] (normally a
//! [`crate::Sequential`]) with [`crate::SoftmaxCrossEntropy`] loss.
//!
//! # Data-parallel training
//!
//! With a resolved shard count > 1 ([`TrainConfig::shards`], auto-tuned
//! from the batch size and worker-pool width when unset) every mini-batch
//! is split into that many fixed, contiguous row shards; each shard runs
//! forward/backward on its own model replica as one
//! [`xbar_tensor::backend::parallel_map`] task. After the shards join, the
//! calling thread sums the replicas' gradients ([`Layer::visit_grads`]) in
//! fixed shard-index order and takes one SGD step on the primary. Shard
//! boundaries, dropout streams (forked per shard from the primary's
//! persisted streams) and the reduction order depend only on the shard
//! count and model shape — never on the thread count or which lane ran
//! which shard — so an `XBAR_THREADS=N` sharded run is bitwise identical
//! to the same run executed serially, and checkpoint/resume keeps working
//! unchanged (all state lives in the primary network; the resolved shard
//! count is recorded in the checkpoint and [`History`]).

use std::path::PathBuf;

use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::{backend, elementwise, Tensor};

use xbar_core::{QuantReadout, RepairPolicy, ScrubReport};

use crate::persist::{self, TrainCheckpoint};
use crate::{accuracy, Layer, NnError, SoftmaxCrossEntropy};

/// Hyper-parameters for [`train`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Multiplicative learning-rate decay applied after every epoch
    /// (`1.0` = constant).
    pub lr_decay: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Print one line per epoch to stdout.
    pub verbose: bool,
    /// Write a crash-safe checkpoint every this many epochs (`0` = never).
    /// Requires [`TrainConfig::checkpoint_dir`].
    pub checkpoint_every: usize,
    /// Directory for the training checkpoint (`train.ckpt`). When the file
    /// already exists, [`train`] resumes from it and reproduces the
    /// uninterrupted run bitwise.
    pub checkpoint_dir: Option<PathBuf>,
    /// Number of data-parallel shards per mini-batch (`Some(1)` = classic
    /// single-replica training), at most [`TrainConfig::batch_size`].
    /// `None` auto-tunes the count from the batch size and the
    /// worker-pool width at [`train`] start (see [`auto_shards`]); the
    /// resolved value is recorded in the [`History`] and in checkpoints,
    /// and a resumed run reuses the recorded count.
    /// The *sharding* changes the floating-point reduction order relative
    /// to one shard, but for a fixed shard count the run is bitwise
    /// independent of the thread count (`XBAR_THREADS`) and fully
    /// checkpoint/resumable.
    pub shards: Option<usize>,
    /// Run one self-healing scrub pass ([`scrub_network`]) every this many
    /// epochs (`0` = never). Only does anything for networks whose mapped
    /// devices carry an active [`xbar_device::LifetimeFaultModel`]; a tick
    /// on a wear-free network is a bitwise no-op. When checkpointing is
    /// also on, `checkpoint_every` must be a multiple of `scrub_every` so
    /// every checkpoint lands on a tick boundary and a resumed run replays
    /// the scrub schedule bitwise.
    pub scrub_every: usize,
    /// Whether scrub passes run the checksum detection + staged repair +
    /// quarantine loop (`true`), or only the refresh programming the
    /// maintenance-free baseline gets (`false`).
    pub scrub_detect: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 32,
            lr: 0.05,
            lr_decay: 0.95,
            seed: 0x7EA1,
            verbose: false,
            checkpoint_every: 0,
            checkpoint_dir: None,
            shards: None,
            scrub_every: 0,
            scrub_detect: true,
        }
    }
}

/// Runs one self-healing scrub tick over every crossbar-mapped parameter
/// of `net` (see [`crate::MappedParam::scrub_tick`]) and merges the
/// per-array [`ScrubReport`]s. Returns `None` when no parameter has
/// scrubbing active — in which case nothing was touched, bitwise.
///
/// # Errors
///
/// Propagates the first per-parameter failure (invalid health state or a
/// failed tile-local remap).
pub fn scrub_network(
    net: &mut dyn Layer,
    detect: bool,
    policy: &RepairPolicy,
) -> Result<Option<ScrubReport>, NnError> {
    let mut merged: Option<ScrubReport> = None;
    let mut first_err: Option<NnError> = None;
    net.visit_mapped(&mut |p| {
        if first_err.is_some() {
            return;
        }
        match p.scrub_tick(detect, policy) {
            Ok(Some(r)) => {
                merged = Some(match merged.take() {
                    None => r,
                    Some(mut acc) => {
                        acc.epoch = acc.epoch.max(r.epoch);
                        acc.new_faults += r.new_faults;
                        acc.detections += r.detections;
                        acc.repairs.extend(r.repairs);
                        acc.quarantined_now += r.quarantined_now;
                        acc.quarantined_total += r.quarantined_total;
                        acc.analog_tiles += r.analog_tiles;
                        acc.total_tiles += r.total_tiles;
                        acc.exhausted_cells += r.exhausted_cells;
                        acc
                    }
                });
            }
            Ok(None) => {}
            Err(e) => first_err = Some(e),
        }
    });
    match first_err {
        Some(e) => Err(e),
        None => Ok(merged),
    }
}

/// Statistics for one training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f32,
    /// Training accuracy over the epoch (running, pre-update batches).
    pub train_acc: f32,
    /// Test accuracy after the epoch (if a test set was provided).
    pub test_acc: Option<f32>,
    /// Learning rate used this epoch.
    pub lr: f32,
}

impl EpochStats {
    /// Training error percentage, `100·(1 − train_acc)` — the paper's
    /// Fig. 5a/5e y-axis.
    pub fn train_error_pct(&self) -> f32 {
        100.0 * (1.0 - self.train_acc)
    }

    /// Test error percentage, if a test set was provided.
    pub fn test_error_pct(&self) -> Option<f32> {
        self.test_acc.map(|a| 100.0 * (1.0 - a))
    }
}

/// Per-epoch history of a training run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    epochs: Vec<EpochStats>,
    resolved_shards: usize,
}

impl History {
    /// Builds a history from pre-recorded epoch statistics (e.g. a resumed
    /// checkpoint).
    pub fn from_epochs(epochs: Vec<EpochStats>) -> Self {
        Self {
            epochs,
            resolved_shards: 0,
        }
    }

    /// The data-parallel shard count the run actually used — either the
    /// explicit [`TrainConfig::shards`] value or the [`auto_shards`]
    /// resolution recorded at [`train`] start. `0` when the history was
    /// built outside [`train`] and the count is unknown.
    pub fn resolved_shards(&self) -> usize {
        self.resolved_shards
    }

    /// All epoch records, in order.
    pub fn epochs(&self) -> &[EpochStats] {
        &self.epochs
    }

    /// The final epoch's statistics.
    pub fn last(&self) -> Option<&EpochStats> {
        self.epochs.last()
    }

    /// Final test accuracy, if recorded.
    pub fn final_test_acc(&self) -> Option<f32> {
        self.last().and_then(|e| e.test_acc)
    }

    /// Best (maximum) test accuracy across epochs, if recorded.
    pub fn best_test_acc(&self) -> Option<f32> {
        self.epochs
            .iter()
            .filter_map(|e| e.test_acc)
            .fold(None, |best, a| Some(best.map_or(a, |b: f32| b.max(a))))
    }
}

/// A labelled dataset split: images/features plus integer class labels.
///
/// The feature tensor's first dimension is the sample index; the rest is
/// the per-sample shape (e.g. `(n, c, h, w)` images or `(n, d)` features).
#[derive(Debug, Clone)]
pub struct Split<'a> {
    /// Feature tensor, sample-major.
    pub x: &'a Tensor,
    /// One label per sample.
    pub labels: &'a [usize],
}

impl<'a> Split<'a> {
    /// Creates a split, validating that counts agree.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] if the label count disagrees with the
    /// first tensor dimension.
    pub fn new(x: &'a Tensor, labels: &'a [usize]) -> Result<Self, NnError> {
        if x.ndim() == 0 || x.shape()[0] != labels.len() {
            return Err(NnError::Config(format!(
                "{} samples but {} labels",
                x.shape().first().copied().unwrap_or(0),
                labels.len()
            )));
        }
        Ok(Self { x, labels })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the split is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Copies the rows at `idxs` (first-dimension indices) into a new tensor.
pub(crate) fn gather_rows(x: &Tensor, idxs: &[usize]) -> Tensor {
    let sample: usize = x.shape()[1..].iter().product();
    let mut shape = x.shape().to_vec();
    shape[0] = idxs.len();
    let mut out = Tensor::zeros(&shape);
    for (row, &i) in idxs.iter().enumerate() {
        out.data_mut()[row * sample..(row + 1) * sample]
            .copy_from_slice(&x.data()[i * sample..(i + 1) * sample]);
    }
    out
}

/// Trains `net` with softmax cross-entropy under vanilla SGD.
///
/// Returns the per-epoch [`History`]. When `test` is provided, test
/// accuracy is evaluated after each epoch (inference mode — batch norm uses
/// running statistics, caches are not retained).
///
/// # Crash safety
///
/// With [`TrainConfig::checkpoint_every`] set and a
/// [`TrainConfig::checkpoint_dir`], the full training state (model,
/// shuffling RNG, sample order, learning rate, history) is written
/// atomically to `<dir>/train.ckpt` every `checkpoint_every` epochs. When
/// that file already exists at the next call, training *resumes* from it —
/// a run killed at epoch *k* and restarted reproduces the uninterrupted
/// run's [`History`] and final weights bitwise (given the same network
/// construction, data, and config).
///
/// # Errors
///
/// Returns an error on empty data, a zero batch size, any layer
/// shape/state failure, or a corrupt/incompatible checkpoint.
pub fn train(
    net: &mut dyn Layer,
    train_split: Split<'_>,
    test: Option<Split<'_>>,
    cfg: &TrainConfig,
) -> Result<History, NnError> {
    if train_split.is_empty() {
        return Err(NnError::Config("empty training set".into()));
    }
    if cfg.batch_size == 0 {
        return Err(NnError::Config("batch size must be positive".into()));
    }
    if cfg.lr <= 0.0 || !cfg.lr.is_finite() {
        return Err(NnError::Config(format!("bad learning rate {}", cfg.lr)));
    }
    if cfg.checkpoint_every > 0 && cfg.checkpoint_dir.is_none() {
        return Err(NnError::Config(
            "checkpoint_every set without checkpoint_dir".into(),
        ));
    }
    if let Some(k) = cfg.shards {
        // A shard past the batch size only ever gets zero rows.
        if k == 0 || k > cfg.batch_size {
            return Err(NnError::Config(format!(
                "shard count {k} must be in 1..={} (the batch size)",
                cfg.batch_size
            )));
        }
    }
    if cfg.scrub_every > 0
        && cfg.checkpoint_every > 0
        && !cfg.checkpoint_every.is_multiple_of(cfg.scrub_every)
    {
        // A checkpoint between two ticks of the same scrub interval would
        // resume with a scrub due at a different epoch than the
        // uninterrupted run ran it, breaking bitwise resume.
        return Err(NnError::Config(format!(
            "checkpoint_every ({}) must be a multiple of scrub_every ({}) \
             so every checkpoint lands on a scrub boundary",
            cfg.checkpoint_every, cfg.scrub_every
        )));
    }
    let mut rng = XorShiftRng::new(cfg.seed);
    let n = train_split.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut lr = cfg.lr;
    let mut history = History::default();
    let mut start_epoch = 0usize;
    let mut ckpt_shards: Option<usize> = None;
    let ckpt_path = cfg.checkpoint_dir.as_ref().map(|d| d.join("train.ckpt"));
    if let Some(path) = &ckpt_path {
        if cfg.checkpoint_every > 0 {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| {
                    NnError::Persist(crate::persist::PersistError::Io {
                        path: dir.to_path_buf(),
                        op: "mkdir",
                        detail: e.to_string(),
                    })
                })?;
            }
        }
        if path.exists() {
            let ckpt = persist::load_checkpoint(path)?;
            let mismatch = |msg: String| {
                Err(NnError::Persist(
                    crate::persist::PersistError::StateMismatch(msg),
                ))
            };
            if ckpt.order.len() != n {
                return mismatch(format!(
                    "checkpoint was taken with {} training samples, run has {n}",
                    ckpt.order.len()
                ));
            }
            let mut seen = vec![false; n];
            if !ckpt
                .order
                .iter()
                .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
            {
                return mismatch(format!(
                    "checkpoint sample order is not a permutation of 0..{n}"
                ));
            }
            // Checked before the shard count sizes the replica set.
            if ckpt.shards == 0 || ckpt.shards > cfg.batch_size {
                return mismatch(format!(
                    "checkpoint shard count {} is outside 1..={} (the batch size)",
                    ckpt.shards, cfg.batch_size
                ));
            }
            if ckpt.epochs_done > cfg.epochs {
                return Err(NnError::Config(format!(
                    "checkpoint already has {} epochs done, run asks for {}",
                    ckpt.epochs_done, cfg.epochs
                )));
            }
            persist::restore_state(net, &ckpt.model)?;
            net.zero_grad();
            rng.restore_state(ckpt.rng);
            order = ckpt.order;
            lr = ckpt.lr;
            start_epoch = ckpt.epochs_done;
            history = History::from_epochs(ckpt.history);
            ckpt_shards = Some(ckpt.shards);
            if cfg.verbose {
                println!("resumed from {} at epoch {start_epoch}", path.display());
            }
        }
    }
    // Resolve the shard count. The checkpointed value wins on resume (the
    // reduction order is part of the bitwise trajectory, so an auto-tuned
    // resume must replay the original count even on a different machine);
    // an explicit config value that disagrees with it is an error rather
    // than a silent divergence.
    let shards = match (cfg.shards, ckpt_shards) {
        (Some(k), Some(c)) if k != c => {
            return Err(NnError::Persist(
                crate::persist::PersistError::StateMismatch(format!(
                    "checkpoint was taken with {c} shards, config asks for {k}"
                )),
            ));
        }
        (Some(k), _) => k,
        (None, Some(c)) => c,
        (None, None) => auto_shards(cfg.batch_size, backend::threads()),
    };
    history.resolved_shards = shards;
    // Data-parallel state: one replica per shard and one flat reduced
    // gradient buffer — allocated once (after a possible resume restored
    // the primary) and reused across every step of the run.
    let mut replicas: Vec<Box<dyn Layer>> = Vec::new();
    let mut reduced: Vec<f32> = Vec::new();
    if shards > 1 {
        replicas = (0..shards).map(|_| net.clone_box()).collect();
        net.visit_grads(&mut |g| reduced.resize(reduced.len() + g.len(), 0.0));
    }
    for epoch in start_epoch..cfg.epochs {
        rng.shuffle(&mut order);
        let mut loss_sum = 0.0f64;
        let mut acc_sum = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            if shards > 1 {
                let (loss, acc) = sharded_step(
                    net,
                    &mut replicas,
                    &mut reduced,
                    train_split.x,
                    train_split.labels,
                    chunk,
                    lr,
                )?;
                loss_sum += loss;
                acc_sum += acc;
                batches += 1;
                continue;
            }
            let xb = gather_rows(train_split.x, chunk);
            let yb: Vec<usize> = chunk.iter().map(|&i| train_split.labels[i]).collect();
            let logits = net.forward(&xb, true)?;
            let (loss, grad) = SoftmaxCrossEntropy::forward(&logits, &yb)?;
            loss_sum += f64::from(loss);
            acc_sum += f64::from(accuracy(&logits, &yb)?);
            batches += 1;
            net.zero_grad();
            net.backward(&grad)?;
            net.update(lr);
        }
        if cfg.scrub_every > 0 && (epoch + 1).is_multiple_of(cfg.scrub_every) {
            if let Some(rep) = scrub_network(net, cfg.scrub_detect, &RepairPolicy::default())? {
                if cfg.verbose {
                    println!(
                        "scrub {:>3}: +{} faults, {} detections, {} repairs, \
                         {} quarantined ({:.1}% analog)",
                        rep.epoch,
                        rep.new_faults,
                        rep.detections,
                        rep.repairs.len(),
                        rep.quarantined_total,
                        100.0 * rep.analog_coverage()
                    );
                }
            }
        }
        let test_acc = match &test {
            Some(t) => Some(evaluate(net, t.x, t.labels, cfg.batch_size)?.1),
            None => None,
        };
        let stats = EpochStats {
            epoch,
            train_loss: (loss_sum / batches as f64) as f32,
            train_acc: (acc_sum / batches as f64) as f32,
            test_acc,
            lr,
        };
        if cfg.verbose {
            match test_acc {
                Some(a) => println!(
                    "epoch {:>3}: loss {:.4} train-acc {:.3} test-acc {:.3} (lr {:.4})",
                    epoch, stats.train_loss, stats.train_acc, a, lr
                ),
                None => println!(
                    "epoch {:>3}: loss {:.4} train-acc {:.3} (lr {:.4})",
                    epoch, stats.train_loss, stats.train_acc, lr
                ),
            }
        }
        history.epochs.push(stats);
        lr *= cfg.lr_decay;
        if cfg.checkpoint_every > 0 && (epoch + 1) % cfg.checkpoint_every == 0 {
            let path = ckpt_path.as_ref().expect("validated above");
            let ckpt = TrainCheckpoint {
                epochs_done: epoch + 1,
                lr,
                shards,
                rng: rng.save_state(),
                order: order.clone(),
                history: history.epochs.clone(),
                model: persist::collect_state(net),
            };
            persist::save_checkpoint(path, &ckpt)?;
        }
    }
    Ok(history)
}

/// Resolves the data-parallel shard count when [`TrainConfig::shards`] is
/// unset: one shard per worker-pool lane, capped so a shard never gets
/// fewer than eight rows of the mini-batch, and always at least one.
/// Depends only on the config and the pool width (`XBAR_THREADS` or
/// hardware), never on runtime timing, so a given machine + config
/// resolves the same count every run; the resolved value is recorded in
/// checkpoints so a resume replays it even where the pool width differs.
pub fn auto_shards(batch_size: usize, lanes: usize) -> usize {
    lanes.max(1).min((batch_size / 8).max(1))
}

/// One shard's slice of a data-parallel step: its model replica, its
/// forked forward-RNG streams, and its batch rows.
struct ShardRun<'a> {
    replica: &'a mut Box<dyn Layer>,
    rngs: Vec<XorShiftRng>,
    rows: Vec<usize>,
}

/// Runs one data-parallel training step over `chunk` (the shuffled row
/// indices of one mini-batch), returning `(mean_loss, mean_accuracy)` for
/// the step.
///
/// Determinism: shard boundaries are a fixed contiguous row split by
/// shard count only; each shard's dropout streams are forked from the
/// primary's persisted streams (`fork(r)` in shard order, advancing the
/// primary so resume replays the same forks); per-row CE gradients are
/// divided by the *total* batch size inside each shard
/// ([`SoftmaxCrossEntropy::forward_scaled`]), making them independent of
/// the split; and once every shard's backward pass has finished, the
/// caller sums the replicas' gradients into `reduced` in fixed shard
/// order (shard 0 copied, each later shard added with
/// [`elementwise::axpy`]). The reduced bytes depend only on the shard
/// count — never on how many worker threads run the shards or in what
/// order they finish.
fn sharded_step(
    net: &mut dyn Layer,
    replicas: &mut [Box<dyn Layer>],
    reduced: &mut [f32],
    x: &Tensor,
    labels: &[usize],
    chunk: &[usize],
    lr: f32,
) -> Result<(f64, f64), NnError> {
    let shards = replicas.len();
    let b_total = chunk.len();
    // Broadcast: every replica starts the step as an exact copy of the
    // primary (weights, biases, BN parameters and running statistics).
    let state = persist::collect_state(net);
    for rep in replicas.iter_mut() {
        persist::restore_state(rep.as_mut(), &state)?;
    }
    // Pre-fork one dropout stream per (layer stream, shard). Forking
    // advances the primary stream, so the draws are part of the persisted
    // trajectory and a resumed run replays them identically.
    let mut forked: Vec<Vec<XorShiftRng>> = (0..shards).map(|_| Vec::new()).collect();
    net.visit_forward_rngs(&mut |rng| {
        for (r, shard_streams) in forked.iter_mut().enumerate() {
            shard_streams.push(rng.fork(r as u64));
        }
    });
    // Fixed contiguous row split: shard r takes base + (r < rem) rows.
    let base = b_total / shards;
    let rem = b_total % shards;
    let mut offset = 0usize;
    let mut tasks: Vec<ShardRun<'_>> = Vec::with_capacity(shards);
    for (r, replica) in replicas.iter_mut().enumerate() {
        let cnt = base + usize::from(r < rem);
        let rows = chunk[offset..offset + cnt].to_vec();
        offset += cnt;
        tasks.push(ShardRun {
            replica,
            rngs: std::mem::take(&mut forked[r]),
            rows,
        });
    }
    let shard_counts: Vec<usize> = tasks.iter().map(|t| t.rows.len()).collect();
    // Fan out forward and backward, one task per shard; each task touches
    // only its own replica.
    let results = backend::parallel_map(tasks, |_, task| -> Result<(f64, f64), NnError> {
        let ShardRun {
            replica,
            rngs,
            rows,
        } = task;
        let mut streams = rngs.into_iter();
        replica.visit_forward_rngs(&mut |rng| {
            if let Some(st) = streams.next() {
                *rng = st;
            }
        });
        // An empty shard still takes part in the reduction below, adding
        // zeros.
        replica.zero_grad();
        if rows.is_empty() {
            return Ok((0.0, 0.0));
        }
        let xb = gather_rows(x, &rows);
        let yb: Vec<usize> = rows.iter().map(|&i| labels[i]).collect();
        let logits = replica.forward(&xb, true)?;
        let (sum_loss, grad) = SoftmaxCrossEntropy::forward_scaled(&logits, &yb, b_total)?;
        let weighted_acc = f64::from(accuracy(&logits, &yb)?) * rows.len() as f64;
        replica.backward(&grad)?;
        Ok((sum_loss, weighted_acc))
    });
    let mut loss_sum = 0.0f64;
    let mut acc_sum = 0.0f64;
    for result in results {
        let (l, a) = result?;
        loss_sum += l;
        acc_sum += a;
    }
    // Reduce in fixed shard order: shard 0's gradient, then each later
    // shard's added on top.
    for (k, rep) in replicas.iter_mut().enumerate() {
        let mut off = 0usize;
        rep.visit_grads(&mut |g| {
            let dst = &mut reduced[off..off + g.len()];
            if k == 0 {
                dst.copy_from_slice(g.data());
            } else {
                elementwise::axpy(dst, g.data(), 1.0);
            }
            off += g.len();
        });
    }
    // Scatter the reduced gradient into the primary and take the single
    // SGD step there (the update RNG for nonlinear devices is consumed by
    // the primary only).
    let mut off = 0usize;
    net.visit_grads(&mut |g| {
        let n = g.len();
        g.data_mut().copy_from_slice(&reduced[off..off + n]);
        off += n;
    });
    net.update(lr);
    // Combine batch statistics (BN running mean/var): shard-weighted sum
    // in fixed shard order, written back into the primary.
    let mut stat_len = 0usize;
    net.visit_batch_stats(&mut |t| stat_len += t.len());
    if stat_len > 0 {
        let mut combined = vec![0.0f32; stat_len];
        for (rep, &cnt) in replicas.iter_mut().zip(&shard_counts) {
            if cnt == 0 {
                continue;
            }
            let w = cnt as f32 / b_total as f32;
            let mut off = 0usize;
            rep.visit_batch_stats(&mut |t| {
                for (c, &v) in combined[off..off + t.len()].iter_mut().zip(t.data()) {
                    *c += w * v;
                }
                off += t.len();
            });
        }
        let mut off = 0usize;
        net.visit_batch_stats(&mut |t| {
            let n = t.len();
            t.data_mut().copy_from_slice(&combined[off..off + n]);
            off += n;
        });
    }
    Ok((loss_sum / b_total as f64, acc_sum / b_total as f64))
}

/// Evaluates `net` in inference mode, returning `(mean_loss, accuracy)`.
///
/// # Errors
///
/// Returns an error on shape mismatches or a zero batch size.
pub fn evaluate(
    net: &mut dyn Layer,
    x: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<(f32, f32), NnError> {
    if batch_size == 0 {
        return Err(NnError::Config("batch size must be positive".into()));
    }
    if labels.is_empty() {
        return Ok((0.0, 0.0));
    }
    let idxs: Vec<usize> = (0..labels.len()).collect();
    let mut loss_sum = 0.0f64;
    let mut correct = 0.0f64;
    for chunk in idxs.chunks(batch_size) {
        let xb = gather_rows(x, chunk);
        let yb: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
        let logits = net.forward(&xb, false)?;
        let (loss, _) = SoftmaxCrossEntropy::forward(&logits, &yb)?;
        loss_sum += f64::from(loss) * chunk.len() as f64;
        correct += f64::from(accuracy(&logits, &yb)?) * chunk.len() as f64;
    }
    let n = labels.len() as f64;
    Ok(((loss_sum / n) as f32, (correct / n) as f32))
}

/// Runs `x` through `net` in calibration mode (batched), recording
/// activation ranges for post-training quantization — run this on a few
/// representative batches before [`evaluate_quantized`].
///
/// # Errors
///
/// Returns an error on shape mismatches or a zero batch size.
pub fn calibrate(net: &mut dyn Layer, x: &Tensor, batch_size: usize) -> Result<(), NnError> {
    if batch_size == 0 {
        return Err(NnError::Config("batch size must be positive".into()));
    }
    let n = x.shape()[0];
    let idxs: Vec<usize> = (0..n).collect();
    for chunk in idxs.chunks(batch_size) {
        let xb = gather_rows(x, chunk);
        net.calibrate(&xb)?;
    }
    Ok(())
}

/// Evaluates `net` through the quantized inference path
/// ([`Layer::forward_quantized`]), returning `(mean_loss, accuracy)` —
/// the int8 counterpart of [`evaluate`].
///
/// # Errors
///
/// Returns an error on shape mismatches, a zero batch size, or an
/// unsupported device, and [`NnError::State`] for a baseline network,
/// whose signed-weight `Dense` layers have no crossbar to read out (see
/// [`crate::MappedParam::forward_quantized`]).
pub fn evaluate_quantized(
    net: &mut dyn Layer,
    x: &Tensor,
    labels: &[usize],
    batch_size: usize,
    mode: &QuantReadout,
) -> Result<(f32, f32), NnError> {
    if batch_size == 0 {
        return Err(NnError::Config("batch size must be positive".into()));
    }
    if labels.is_empty() {
        return Ok((0.0, 0.0));
    }
    let idxs: Vec<usize> = (0..labels.len()).collect();
    let mut loss_sum = 0.0f64;
    let mut correct = 0.0f64;
    for chunk in idxs.chunks(batch_size) {
        let xb = gather_rows(x, chunk);
        let yb: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
        let logits = net.forward_quantized(&xb, mode)?;
        let (loss, _) = SoftmaxCrossEntropy::forward(&logits, &yb)?;
        loss_sum += f64::from(loss) * chunk.len() as f64;
        correct += f64::from(accuracy(&logits, &yb)?) * chunk.len() as f64;
    }
    let n = labels.len() as f64;
    Ok(((loss_sum / n) as f32, (correct / n) as f32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Relu, Sequential, WeightKind};
    use xbar_core::Mapping;
    use xbar_device::{DeviceConfig, TileShape};

    /// Asserts two collected state dumps are bitwise identical (plain
    /// `==` would treat `0.0` and `-0.0` as equal).
    fn assert_state_bitwise(s1: &[persist::StateItem], s2: &[persist::StateItem]) {
        assert_eq!(s1.len(), s2.len());
        for (a, b) in s1.iter().zip(s2) {
            match (a, b) {
                (
                    persist::StateItem::Tensor {
                        name: na,
                        value: va,
                    },
                    persist::StateItem::Tensor {
                        name: nb,
                        value: vb,
                    },
                ) => {
                    assert_eq!(na, nb);
                    for (x, y) in va.data().iter().zip(vb.data()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{na}");
                    }
                }
                (
                    persist::StateItem::Rng {
                        name: na,
                        value: va,
                    },
                    persist::StateItem::Rng {
                        name: nb,
                        value: vb,
                    },
                ) => {
                    assert_eq!(na, nb);
                    assert_eq!(va, vb);
                }
                _ => panic!("state item kind mismatch"),
            }
        }
    }

    /// Two-Gaussian-blob binary classification problem.
    fn blobs(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = XorShiftRng::new(seed);
        let mut x = Tensor::zeros(&[n, 2]);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let (cx, cy) = if class == 0 { (-1.0, -1.0) } else { (1.0, 1.0) };
            *x.at_mut(&[i, 0]) = rng.normal_with(cx, 0.4);
            *x.at_mut(&[i, 1]) = rng.normal_with(cy, 0.4);
            labels.push(class);
        }
        (x, labels)
    }

    fn mlp(kind: WeightKind, seed: u64) -> Sequential {
        let mut rng = XorShiftRng::new(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 16, kind, DeviceConfig::ideal(), &mut rng).unwrap());
        net.push(Relu::new());
        net.push(Dense::new(16, 2, kind, DeviceConfig::ideal(), &mut rng).unwrap());
        net
    }

    #[test]
    fn training_learns_blobs_baseline() {
        let (x, labels) = blobs(200, 161);
        let (tx, tlabels) = blobs(100, 162);
        let mut net = mlp(WeightKind::Signed, 163);
        let cfg = TrainConfig {
            epochs: 15,
            batch_size: 16,
            lr: 0.1,
            ..TrainConfig::default()
        };
        let hist = train(
            &mut net,
            Split::new(&x, &labels).unwrap(),
            Some(Split::new(&tx, &tlabels).unwrap()),
            &cfg,
        )
        .unwrap();
        assert!(hist.final_test_acc().unwrap() > 0.95, "{:?}", hist.last());
    }

    #[test]
    fn quantized_evaluation_tracks_fp32_after_calibration() {
        let (x, labels) = blobs(200, 181);
        let (tx, tlabels) = blobs(100, 182);
        // Mapped MLP on an 8-bit device — the configuration the fig5
        // quantized arm and the ci.sh parity gate run.
        let mut rng = XorShiftRng::new(183);
        let mut net = Sequential::new();
        let dev = DeviceConfig::quantized_linear(8);
        net.push(Dense::new(2, 16, WeightKind::Mapped(Mapping::Acm), dev, &mut rng).unwrap());
        net.push(Relu::new());
        net.push(Dense::new(16, 2, WeightKind::Mapped(Mapping::Acm), dev, &mut rng).unwrap());
        let cfg = TrainConfig {
            epochs: 15,
            batch_size: 16,
            lr: 0.1,
            ..TrainConfig::default()
        };
        train(&mut net, Split::new(&x, &labels).unwrap(), None, &cfg).unwrap();
        calibrate(&mut net, &x, 32).unwrap();
        let (_, fp32_acc) = evaluate(&mut net, &tx, &tlabels, 32).unwrap();
        let mode = QuantReadout::default();
        let (_, int8_acc) = evaluate_quantized(&mut net, &tx, &tlabels, 32, &mode).unwrap();
        assert!(fp32_acc > 0.9, "fp32 {fp32_acc}");
        assert!(
            (fp32_acc - int8_acc).abs() <= 0.01 + f32::EPSILON,
            "int8 {int8_acc} vs fp32 {fp32_acc}"
        );
        // The integer path is bitwise thread-invariant.
        backend::force_serial(true);
        let (_, serial_acc) = evaluate_quantized(&mut net, &tx, &tlabels, 32, &mode).unwrap();
        backend::force_serial(false);
        assert_eq!(serial_acc.to_bits(), int8_acc.to_bits());
    }

    #[test]
    fn training_learns_blobs_all_mappings() {
        let (x, labels) = blobs(200, 164);
        let (tx, tlabels) = blobs(100, 165);
        for mapping in Mapping::ALL {
            let mut net = mlp(WeightKind::Mapped(mapping), 166);
            let cfg = TrainConfig {
                epochs: 15,
                batch_size: 16,
                lr: 0.1,
                ..TrainConfig::default()
            };
            let hist = train(
                &mut net,
                Split::new(&x, &labels).unwrap(),
                Some(Split::new(&tx, &tlabels).unwrap()),
                &cfg,
            )
            .unwrap();
            assert!(
                hist.final_test_acc().unwrap() > 0.9,
                "{mapping}: {:?}",
                hist.last()
            );
        }
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let (x, labels) = blobs(100, 167);
        let mut net = mlp(WeightKind::Signed, 168);
        let cfg = TrainConfig {
            epochs: 8,
            batch_size: 10,
            lr: 0.05,
            ..TrainConfig::default()
        };
        let hist = train(&mut net, Split::new(&x, &labels).unwrap(), None, &cfg).unwrap();
        let first = hist.epochs().first().unwrap().train_loss;
        let last = hist.last().unwrap().train_loss;
        assert!(last < first, "{first} -> {last}");
        assert!(hist.last().unwrap().test_acc.is_none());
    }

    #[test]
    fn history_accessors() {
        let (x, labels) = blobs(60, 169);
        let (tx, tl) = blobs(30, 170);
        let mut net = mlp(WeightKind::Signed, 171);
        let cfg = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        let hist = train(
            &mut net,
            Split::new(&x, &labels).unwrap(),
            Some(Split::new(&tx, &tl).unwrap()),
            &cfg,
        )
        .unwrap();
        assert_eq!(hist.epochs().len(), 3);
        assert!(hist.best_test_acc().unwrap() >= hist.final_test_acc().unwrap() - 1e-6);
        let e = hist.last().unwrap();
        assert!((e.train_error_pct() - 100.0 * (1.0 - e.train_acc)).abs() < 1e-5);
    }

    #[test]
    fn config_validation() {
        let (x, labels) = blobs(10, 172);
        let mut net = mlp(WeightKind::Signed, 173);
        let bad_batch = TrainConfig {
            batch_size: 0,
            ..TrainConfig::default()
        };
        assert!(train(&mut net, Split::new(&x, &labels).unwrap(), None, &bad_batch).is_err());
        let bad_lr = TrainConfig {
            lr: -1.0,
            ..TrainConfig::default()
        };
        assert!(train(&mut net, Split::new(&x, &labels).unwrap(), None, &bad_lr).is_err());
        assert!(Split::new(&x, &labels[..5]).is_err());
        // A checkpoint cadence that is not a multiple of the scrub cadence
        // would break bitwise resume; it must be rejected up front.
        let bad_cadence = TrainConfig {
            scrub_every: 3,
            checkpoint_every: 4,
            checkpoint_dir: Some(std::env::temp_dir().join("xbar-cadence-test")),
            ..TrainConfig::default()
        };
        let err = train(
            &mut net,
            Split::new(&x, &labels).unwrap(),
            None,
            &bad_cadence,
        );
        match err {
            Err(NnError::Config(msg)) => assert!(msg.contains("scrub_every"), "{msg}"),
            other => panic!("cadence mismatch must be a config error, got {other:?}"),
        }
    }

    #[test]
    fn evaluate_on_empty_set() {
        let mut net = mlp(WeightKind::Signed, 174);
        let x = Tensor::zeros(&[0, 2]);
        assert_eq!(evaluate(&mut net, &x, &[], 8).unwrap(), (0.0, 0.0));
    }

    #[test]
    fn gather_rows_copies_selected_samples() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[4, 3]).unwrap();
        let g = gather_rows(&x, &[2, 0]);
        assert_eq!(g.shape(), &[2, 3]);
        assert_eq!(g.data(), &[6.0, 7.0, 8.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn sharded_training_learns_blobs() {
        let (x, labels) = blobs(200, 180);
        let (tx, tlabels) = blobs(100, 181);
        let mut net = mlp(WeightKind::Signed, 182);
        let cfg = TrainConfig {
            epochs: 15,
            batch_size: 16,
            lr: 0.1,
            shards: Some(4),
            ..TrainConfig::default()
        };
        let hist = train(
            &mut net,
            Split::new(&x, &labels).unwrap(),
            Some(Split::new(&tx, &tlabels).unwrap()),
            &cfg,
        )
        .unwrap();
        assert!(hist.final_test_acc().unwrap() > 0.95, "{:?}", hist.last());
        assert_eq!(hist.resolved_shards(), 4);
    }

    #[test]
    fn sharded_training_is_serial_parallel_bitwise() {
        // The determinism contract: for a fixed shard count, training is
        // bitwise identical whether the fan-out runs serially or on the
        // pool. (Forced-serial vs pooled toggling is safe here because the
        // contract says results never change — only wall-clock.)
        let (x, labels) = blobs(64, 183);
        let run = |serial: bool| {
            xbar_tensor::backend::force_serial(serial);
            let mut net = mlp(WeightKind::Mapped(Mapping::Acm), 184);
            let cfg = TrainConfig {
                epochs: 3,
                batch_size: 16,
                shards: Some(4),
                ..TrainConfig::default()
            };
            let hist = train(&mut net, Split::new(&x, &labels).unwrap(), None, &cfg).unwrap();
            xbar_tensor::backend::force_serial(false);
            (hist, persist::collect_state(&mut net))
        };
        let (h1, s1) = run(true);
        let (h2, s2) = run(false);
        assert_eq!(h1, h2);
        assert_state_bitwise(&s1, &s2);
    }

    #[test]
    fn sharded_run_is_repeatable() {
        let (x, labels) = blobs(60, 185);
        let run = || {
            let mut net = mlp(WeightKind::Mapped(Mapping::DoubleElement), 186);
            let cfg = TrainConfig {
                epochs: 2,
                batch_size: 10,
                shards: Some(3),
                ..TrainConfig::default()
            };
            train(&mut net, Split::new(&x, &labels).unwrap(), None, &cfg)
                .unwrap()
                .last()
                .unwrap()
                .train_loss
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn more_shards_than_batch_rows_is_ok() {
        // 6 samples in batches of 4 on 4 shards: each epoch's last batch
        // has 2 rows and leaves two shards empty.
        let (x, labels) = blobs(6, 187);
        let mut net = mlp(WeightKind::Signed, 188);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            shards: Some(4),
            ..TrainConfig::default()
        };
        let hist = train(&mut net, Split::new(&x, &labels).unwrap(), None, &cfg).unwrap();
        assert_eq!(hist.epochs().len(), 2);
        assert!(hist.last().unwrap().train_loss.is_finite());
    }

    #[test]
    fn zero_shards_is_rejected() {
        let (x, labels) = blobs(10, 189);
        let mut net = mlp(WeightKind::Signed, 190);
        let cfg = TrainConfig {
            shards: Some(0),
            ..TrainConfig::default()
        };
        assert!(train(&mut net, Split::new(&x, &labels).unwrap(), None, &cfg).is_err());
    }

    #[test]
    fn shard_count_past_the_batch_size_is_rejected() {
        let (x, labels) = blobs(10, 189);
        let mut net = mlp(WeightKind::Signed, 190);
        let cfg = |shards| TrainConfig {
            epochs: 1,
            batch_size: 4,
            shards: Some(shards),
            ..TrainConfig::default()
        };
        let err = train(&mut net, Split::new(&x, &labels).unwrap(), None, &cfg(5));
        assert!(matches!(err, Err(NnError::Config(_))), "{err:?}");
        assert!(train(&mut net, Split::new(&x, &labels).unwrap(), None, &cfg(4)).is_ok());
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, labels) = blobs(80, 175);
        let run = |seed| {
            let mut net = mlp(WeightKind::Mapped(Mapping::Acm), 176);
            let cfg = TrainConfig {
                epochs: 3,
                seed,
                ..TrainConfig::default()
            };
            train(&mut net, Split::new(&x, &labels).unwrap(), None, &cfg)
                .unwrap()
                .last()
                .unwrap()
                .train_loss
        };
        assert_eq!(run(1), run(1));
        // Different shuffling order almost surely gives a different loss.
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn auto_shards_caps_by_rows_and_lanes() {
        assert_eq!(auto_shards(32, 8), 4); // at least 8 rows per shard
        assert_eq!(auto_shards(256, 4), 4); // lane-bound
        assert_eq!(auto_shards(4, 8), 1); // tiny batch stays single-shard
        assert_eq!(auto_shards(0, 0), 1); // degenerate inputs stay positive
    }

    #[test]
    fn auto_shards_resolution_is_recorded() {
        let (x, labels) = blobs(60, 191);
        let mut net = mlp(WeightKind::Signed, 192);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 16,
            ..TrainConfig::default()
        };
        assert_eq!(cfg.shards, None);
        let hist = train(&mut net, Split::new(&x, &labels).unwrap(), None, &cfg).unwrap();
        assert_eq!(
            hist.resolved_shards(),
            auto_shards(16, xbar_tensor::backend::threads())
        );
        assert!(hist.resolved_shards() >= 1);
    }

    /// Random 64-feature two-class data plus a tiled crossbar MLP whose
    /// first layer spans several `TileGrid` column groups (16-column tiles
    /// over 64 outputs).
    fn tiled_net_and_data(seed: u64) -> (Tensor, Vec<usize>, Sequential) {
        let mut rng = XorShiftRng::new(seed);
        let n = 48;
        let mut x = Tensor::zeros(&[n, 64]);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let mean = if class == 0 { -0.5 } else { 0.5 };
            for j in 0..64 {
                *x.at_mut(&[i, j]) = rng.normal_with(mean, 1.0);
            }
            labels.push(class);
        }
        let dev = DeviceConfig::ideal().with_tile_shape(Some(TileShape::new(16, 16)));
        let mut wrng = XorShiftRng::new(seed ^ 0xA5);
        let mut net = Sequential::new();
        net.push(Dense::new(64, 64, WeightKind::Mapped(Mapping::Acm), dev, &mut wrng).unwrap());
        net.push(Relu::new());
        net.push(Dense::new(64, 2, WeightKind::Mapped(Mapping::Acm), dev, &mut wrng).unwrap());
        (x, labels, net)
    }

    #[test]
    fn tiled_sharded_training_is_serial_parallel_bitwise() {
        // Tiled variant of the determinism contract: the shards of a
        // multi-tile network finish in any order, but the bytes must
        // match the forced-serial run exactly.
        let (x, labels, _) = tiled_net_and_data(201);
        let run = |serial: bool| {
            xbar_tensor::backend::force_serial(serial);
            let (_, _, mut net) = tiled_net_and_data(201);
            let cfg = TrainConfig {
                epochs: 2,
                batch_size: 12,
                shards: Some(3),
                ..TrainConfig::default()
            };
            let hist = train(&mut net, Split::new(&x, &labels).unwrap(), None, &cfg).unwrap();
            xbar_tensor::backend::force_serial(false);
            (hist, persist::collect_state(&mut net))
        };
        let (h1, s1) = run(true);
        let (h2, s2) = run(false);
        assert_eq!(h1, h2);
        assert_state_bitwise(&s1, &s2);
    }

    #[test]
    fn resume_replays_recorded_shards_and_rejects_mismatch() {
        let (x, labels) = blobs(40, 195);
        let dir = std::env::temp_dir().join(format!("xbar-shards-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base_cfg = TrainConfig {
            epochs: 2,
            batch_size: 10,
            checkpoint_every: 1,
            checkpoint_dir: Some(dir.clone()),
            shards: Some(2),
            ..TrainConfig::default()
        };
        let mut net = mlp(WeightKind::Signed, 196);
        train(&mut net, Split::new(&x, &labels).unwrap(), None, &base_cfg).unwrap();
        // A conflicting explicit count must be rejected…
        let conflict = TrainConfig {
            epochs: 3,
            shards: Some(3),
            ..base_cfg.clone()
        };
        let err = train(&mut net, Split::new(&x, &labels).unwrap(), None, &conflict);
        assert!(matches!(err, Err(NnError::Persist(_))), "{err:?}");
        // …while an unset count adopts the checkpointed one instead of
        // re-running the auto-tune on the resuming machine.
        let auto = TrainConfig {
            epochs: 3,
            shards: None,
            ..base_cfg
        };
        let hist = train(&mut net, Split::new(&x, &labels).unwrap(), None, &auto).unwrap();
        assert_eq!(hist.resolved_shards(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
