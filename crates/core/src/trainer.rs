//! Joint training of the foundation model and the microarchitecture
//! representation table (Section IV).
//!
//! The gradient step is **batch-major by default**: each lane chunk of
//! the minibatch runs one `forward_batch`/`backward_batch` pair, so the
//! foundation's weight matrices are traversed once per timestep for the
//! whole chunk on vectorizable batch-major kernels, while the chunk's
//! representations are still *reused* across all `k` microarchitectures
//! (Section IV-B). The reuse × batch product is the training-cost win:
//! per-step cost stays near-constant in `k` *and* is amortized across
//! lanes. A scalar per-window step (`TrainConfig::batched = false`)
//! remains for ablation — by construction it produces **byte-identical
//! checkpoints** to the batched step at equal seeds, because both
//! accumulate gradients through the same deterministic lane-chunk tree
//! ([`BatchStep`]) and the batched kernels are bit-identical per
//! sequence to the scalar passes.
//!
//! Orthogonally, two training *procedures* are implemented:
//!
//! * **representation reuse** (the paper's optimization, Section IV-B):
//!   each sampled instruction window runs one forward/backward pass of
//!   the foundation model, and its representation is *reused* across all
//!   `k` microarchitectures — per-window cost is near-constant in `k`;
//! * **naive** (kept for the `train_opt` ablation): one forward/backward
//!   per (window, microarchitecture) pair — cost linear in `k`. The two
//!   procedures compute identical gradients (backward is linear in the
//!   upstream gradient), which a unit test asserts. The naive ablation
//!   always runs the scalar step.
//!
//! A run whose training or validation loss or whose gradient norm goes
//! non-finite stops at that epoch, keeps the best finite parameters,
//! and records the epoch in [`TrainReport::diverged_epoch`] — a `NaN`
//! validation loss would otherwise never beat the best one and silently
//! freeze a stale model, and a non-finite gradient is never applied.
//!
//! Long runs snapshot-and-resume: `TrainConfig::snapshot` writes a
//! [`crate::checkpoint::TrainSnapshot`] (model + table + Adam moments +
//! RNG state) at an epoch cadence, and `TrainConfig::resume_from`
//! restarts from one bit-identically.

use crate::compose::forward_windows;
use crate::foundation::{ArchSpec, Foundation};
use crate::march_table::MarchTable;
use perfvec_ml::adam::Adam;
use perfvec_ml::parallel::BatchStep;
use perfvec_ml::schedule::StepDecay;
use perfvec_ml::tensor::{axpy, dot};
use perfvec_ml::window::{fill_windows, Window};
use perfvec_trace::{fill_window, ProgramData, NUM_FEATURES};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Foundation architecture.
    pub arch: ArchSpec,
    /// Lookback context `c` (window = `c + 1`). Paper full scale: 255.
    pub context: usize,
    /// Training epochs (paper: 50).
    pub epochs: u32,
    /// Windows per gradient step.
    pub batch_size: usize,
    /// Instruction windows sampled per epoch.
    pub windows_per_epoch: usize,
    /// Windows used for validation (model selection).
    pub val_windows: usize,
    /// Learning-rate schedule (paper: 1e-3, x0.1 every 10 epochs).
    pub schedule: StepDecay,
    /// RNG seed (sampling + initialization).
    pub seed: u64,
    /// Representation reuse on (paper) or off (naive ablation mode).
    pub reuse: bool,
    /// Target scale: incremental latencies are multiplied by this during
    /// training for conditioning (0.1 converts 0.1 ns units to ns).
    pub target_scale: f32,
    /// Global-norm gradient clipping (rare cache-miss latency spikes
    /// produce outlier MSE gradients; clipping keeps LSTM training
    /// stable). `None` disables.
    pub clip_norm: Option<f32>,
    /// Batch-major gradient step (default) vs the scalar per-window
    /// step. Both produce byte-identical checkpoints at equal seeds;
    /// batched is faster. The naive (`reuse = false`) ablation always
    /// uses the scalar step.
    pub batched: bool,
    /// `(every, path)`: write a resumable epoch snapshot to `path`
    /// every `every` epochs (`None` disables).
    pub snapshot: Option<(u32, std::path::PathBuf)>,
    /// Resume a run from a snapshot written by a previous invocation
    /// with the same data, architecture, and hyperparameters; the
    /// resumed run continues bit-identically.
    pub resume_from: Option<std::path::PathBuf>,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            arch: ArchSpec::default_lstm(32),
            context: 12,
            epochs: 12,
            batch_size: 32,
            windows_per_epoch: 4_000,
            val_windows: 1_500,
            // The paper uses 1e-3 with x0.1 decay every 10 epochs on an
            // LSTM-2-256 trained for 50 epochs over 737M instructions;
            // at this reproduction's scale (far fewer steps, far smaller
            // models) a proportionally higher initial rate converges to
            // the same place.
            schedule: StepDecay {
                initial: 3e-3,
                gamma: 0.1,
                every: 10,
            },
            seed: 0xbeef,
            reuse: true,
            target_scale: 1.0,
            clip_norm: Some(5.0),
            batched: true,
            snapshot: None,
            resume_from: None,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f64>,
    /// Validation loss per epoch.
    pub val_loss: Vec<f64>,
    /// Epoch whose parameters were kept (lowest validation loss).
    pub best_epoch: u32,
    /// Epoch at which a training or validation loss, or a gradient norm,
    /// went non-finite.
    /// Training stops there and keeps the best finite parameters seen
    /// before it (the initial ones if no epoch validated). `None` for a
    /// run that finished every epoch.
    pub diverged_epoch: Option<u32>,
    /// Wall-clock seconds spent in training.
    pub wall_seconds: f64,
    /// Per-gradient-step wall-time distribution in microseconds
    /// (sample + gradients + optimizer update), from a log-bucketed
    /// [`perfvec_obs::Histogram`]. Observational only: timestamps are
    /// taken around the step, never inside the numeric path. All-zero
    /// when obs recording is globally disabled.
    pub step_time_us: perfvec_obs::HistogramSummary,
    /// Gradient steps per second over time spent inside steps (excludes
    /// validation and snapshot I/O; 0.0 when no steps ran).
    pub steps_per_sec: f64,
}

/// A trained foundation model plus the learned microarchitecture table.
pub struct TrainedFoundation {
    /// The instruction-representation model.
    pub foundation: Foundation,
    /// Representations of the `k` training microarchitectures.
    pub march_table: MarchTable,
    /// Training history.
    pub report: TrainReport,
}

/// A `(program, instruction)` window reference into the dataset pool.
type Item = (usize, usize);

fn build_pool(data: &[ProgramData]) -> Vec<Item> {
    let mut pool = Vec::new();
    for (p, d) in data.iter().enumerate() {
        for i in 0..d.len() {
            pool.push((p, i));
        }
    }
    pool
}

/// The scalar per-window loss and gradient computation. Returns the mean
/// squared error over the k machines on normalized targets
/// (`t_ij * target_scale * inv_scale[j]`), accumulating model gradients
/// into `grads[..model_len]` and table gradients into the remainder.
#[allow(clippy::too_many_arguments)]
fn window_pass(
    foundation: &Foundation,
    table: &MarchTable,
    data: &ProgramData,
    i: usize,
    inv_scale: &[f32],
    buf: &mut [f32],
    preds: &mut [f32],
    grads: &mut [f32],
    model_len: usize,
    reuse: bool,
) -> f64 {
    let w = foundation.window();
    let k = table.k;
    let dim = table.dim;
    fill_window(&data.features, i, foundation.context, buf);
    let scale = foundation.target_scale;
    let targets = data.targets.row(i);
    let mut loss = 0.0f64;
    let inv_k = 2.0 / k as f32;
    let (g_model, g_table) = grads.split_at_mut(model_len);
    if reuse {
        // Representation reuse: one forward, shared by all k machines.
        let (r, cache) = foundation.model.forward(buf, w);
        table.predict_all(&r, preds);
        let mut dr = vec![0.0f32; dim];
        for j in 0..k {
            let err = preds[j] - targets[j] * scale * inv_scale[j];
            loss += (err * err) as f64;
            // dL/dM_j and the reused dL/dR contribution
            axpy(inv_k * err, &r, &mut g_table[j * dim..(j + 1) * dim]);
            axpy(inv_k * err, table.rep(j), &mut dr);
        }
        foundation.model.backward(buf, &cache, &dr, g_model);
    } else {
        // Naive: a full forward/backward per microarchitecture.
        for j in 0..k {
            let (r, cache) = foundation.model.forward(buf, w);
            let pred = dot(&r, table.rep(j));
            let err = pred - targets[j] * scale * inv_scale[j];
            loss += (err * err) as f64;
            axpy(inv_k * err, &r, &mut g_table[j * dim..(j + 1) * dim]);
            let mut dr = vec![0.0f32; dim];
            axpy(inv_k * err, table.rep(j), &mut dr);
            foundation.model.backward(buf, &cache, &dr, g_model);
        }
    }
    loss / k as f64
}

/// The batch-major twin of [`window_pass`] (reuse mode): one lane chunk
/// of windows through a single `forward_batch`/`backward_batch` pair,
/// with each lane's representation reused across all `k` machines.
///
/// Accumulates exactly the gradients of per-item `window_pass` calls in
/// item order — bit-identically: the batched forward/backward are
/// bit-identical per sequence to the scalar passes, the table gradients
/// and upstream `dR` are computed lane-by-lane in the scalar order, and
/// the disjoint model/table gradient regions make the interleaving
/// difference invisible.
fn batched_chunk_pass(
    foundation: &Foundation,
    table: &MarchTable,
    data: &[ProgramData],
    items: &[Item],
    inv_scale: &[f32],
    grads: &mut [f32],
    model_len: usize,
) -> f64 {
    let w = foundation.window();
    let k = table.k;
    let dim = table.dim;
    let b = items.len();
    let scale = foundation.target_scale;
    let windows: Vec<Window<'_>> = items
        .iter()
        .map(|&(p, i)| (data[p].features.data.as_slice(), i))
        .collect();
    let mut xs = Vec::new();
    fill_windows(&windows, w, NUM_FEATURES, &mut xs);
    let (reps, cache) = foundation.model.forward_batch_cached(&xs, w, b);
    let mut douts = vec![0.0f32; b * dim];
    let mut preds = vec![0.0f32; k];
    let mut loss = 0.0f64;
    let inv_k = 2.0 / k as f32;
    let (g_model, g_table) = grads.split_at_mut(model_len);
    for (li, &(p, i)) in items.iter().enumerate() {
        let r = &reps[li * dim..(li + 1) * dim];
        table.predict_all(r, &mut preds);
        let targets = data[p].targets.row(i);
        let dr = &mut douts[li * dim..(li + 1) * dim];
        let mut item_loss = 0.0f64;
        for j in 0..k {
            let err = preds[j] - targets[j] * scale * inv_scale[j];
            item_loss += (err * err) as f64;
            axpy(inv_k * err, r, &mut g_table[j * dim..(j + 1) * dim]);
            axpy(inv_k * err, table.rep(j), dr);
        }
        loss += item_loss / k as f64;
    }
    foundation
        .model
        .backward_batch(&xs, w, b, &cache, &douts, g_model);
    loss
}

/// Train a foundation model + microarchitecture table on the given
/// per-program datasets (all sharing the same `k` machines).
pub fn train_foundation(data: &[ProgramData], cfg: &TrainConfig) -> TrainedFoundation {
    assert!(!data.is_empty(), "training requires at least one program");
    let k = data[0].num_marches();
    assert!(
        data.iter().all(|d| d.num_marches() == k),
        "inconsistent microarchitecture count"
    );

    let start = std::time::Instant::now();
    let mut foundation = Foundation::new(cfg.arch, cfg.context, cfg.target_scale, cfg.seed);
    let mut table = MarchTable::new(k, cfg.arch.dim, cfg.seed ^ 0x7ab1e);
    let model_len = foundation.model.num_params();
    let total_len = model_len + table.num_params();

    let mut params = foundation.model.get_params();
    params.extend_from_slice(&table.reps);
    let mut opt = Adam::new(total_len);

    let pool = build_pool(data);
    // Per-machine target normalization: machines differ wildly in mean
    // incremental latency (frequency, IPC, memory technology), so each
    // target column is normalized by its mean magnitude for training and
    // the scale is baked back into the learned table rows afterwards —
    // `R . (s_j M'_j) = s_j (R . M'_j)`, so compositionality and the
    // prediction contract are untouched.
    let col_scale = column_scales(data, cfg.target_scale);
    let inv_scale: Vec<f32> = col_scale.iter().map(|s| 1.0 / s).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5a5a);
    // Held-out validation windows (fixed for the whole run).
    let mut shuffled = pool.clone();
    shuffled.shuffle(&mut rng);
    let val_n = cfg.val_windows.min(shuffled.len() / 10);
    let val_items: Vec<Item> = shuffled[..val_n].to_vec();
    let train_items: Vec<Item> = shuffled[val_n..].to_vec();

    let mut report = TrainReport {
        train_loss: Vec::new(),
        val_loss: Vec::new(),
        best_epoch: 0,
        diverged_epoch: None,
        wall_seconds: 0.0,
        step_time_us: perfvec_obs::HistogramSummary::default(),
        steps_per_sec: 0.0,
    };
    let step_hist = perfvec_obs::Histogram::new();
    let mut step_secs = 0.0f64;
    let mut steps_taken = 0u64;
    let mut best_val = f64::INFINITY;
    let mut best_params = params.clone();
    let mut start_epoch = 0u32;

    // Resume: overwrite the freshly-initialized state with the
    // snapshot's. The pool/validation split above was already rebuilt
    // deterministically from the seed; the RNG state restore then
    // places the sampling stream exactly where the snapshot run left
    // it, so the continued run is bit-identical to an uninterrupted
    // one.
    if let Some(path) = &cfg.resume_from {
        let snap = crate::checkpoint::load_snapshot(path)
            .unwrap_or_else(|e| panic!("cannot resume from {}: {e}", path.display()));
        assert_eq!(
            snap.spec, cfg.arch,
            "snapshot architecture differs from TrainConfig::arch"
        );
        assert_eq!(
            snap.foundation.context, cfg.context,
            "snapshot context differs from TrainConfig::context"
        );
        assert_eq!(
            snap.foundation.model.num_params() + snap.table.num_params(),
            total_len,
            "snapshot parameter count mismatch"
        );
        assert!(
            snap.next_epoch <= cfg.epochs,
            "snapshot is beyond this run's epoch budget"
        );
        params[..model_len].copy_from_slice(&snap.foundation.model.get_params());
        params[model_len..].copy_from_slice(&snap.table.reps);
        foundation.model.set_params(&params[..model_len]);
        table.reps.copy_from_slice(&params[model_len..]);
        opt = Adam::from_state(snap.adam_m, snap.adam_v, snap.adam_t);
        rng = StdRng::from_state(snap.rng_state);
        start_epoch = snap.next_epoch;
        best_val = snap.best_val;
        best_params = snap.best_params;
        report.best_epoch = snap.best_epoch;
        report.train_loss = snap.train_loss;
        report.val_loss = snap.val_loss;
    }

    let w = foundation.window();
    let step = BatchStep::new();
    let mut mean_grads = vec![0.0f32; total_len];
    // The naive (no-reuse) ablation has no batched form: it exists to
    // measure the per-(window, machine) cost the paper optimizes away.
    let use_batched = cfg.batched && cfg.reuse;
    for epoch in start_epoch..cfg.epochs {
        let lr = cfg.schedule.lr(epoch);
        // Sample this epoch's windows.
        let mut epoch_items: Vec<Item> = Vec::with_capacity(cfg.windows_per_epoch);
        for _ in 0..cfg.windows_per_epoch {
            epoch_items.push(train_items[rand::Rng::gen_range(&mut rng, 0..train_items.len())]);
        }
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        let mut grads_diverged = false;
        for batch in epoch_items.chunks(cfg.batch_size) {
            let t_step = std::time::Instant::now();
            let (loss, grads) = if use_batched {
                step.accumulate(batch.len(), total_len, |range, grads| {
                    batched_chunk_pass(
                        &foundation,
                        &table,
                        data,
                        &batch[range],
                        &inv_scale,
                        grads,
                        model_len,
                    )
                })
            } else {
                step.accumulate_items(batch.len(), total_len, |b, grads| {
                    let (p, i) = batch[b];
                    let mut buf = vec![0.0f32; w * NUM_FEATURES];
                    let mut preds = vec![0.0f32; k];
                    window_pass(
                        &foundation,
                        &table,
                        &data[p],
                        i,
                        &inv_scale,
                        &mut buf,
                        &mut preds,
                        grads,
                        model_len,
                        cfg.reuse,
                    )
                })
            };
            let grads_finite =
                mean_clipped_grads(&grads, batch.len(), cfg.clip_norm, &mut mean_grads);
            if grads_finite {
                opt.step(&mut params, &mean_grads, lr);
                foundation.model.set_params(&params[..model_len]);
                table.reps.copy_from_slice(&params[model_len..]);
            }
            epoch_loss += loss / batch.len() as f64;
            batches += 1;
            let dt = t_step.elapsed();
            step_hist.record(dt.as_micros() as u64);
            step_secs += dt.as_secs_f64();
            steps_taken += 1;
            if !grads_finite {
                grads_diverged = true;
                break;
            }
            if !loss.is_finite() {
                break;
            }
        }
        let train_loss = epoch_loss / batches.max(1) as f64;
        report.train_loss.push(train_loss);
        if grads_diverged || !train_loss.is_finite() {
            report.diverged_epoch = Some(epoch);
            break;
        }

        // Validation.
        let val_loss = validation_loss(&foundation, &table, data, &val_items, &inv_scale);
        report.val_loss.push(val_loss);
        if !val_loss.is_finite() {
            report.diverged_epoch = Some(epoch);
            break;
        }
        if val_loss < best_val {
            best_val = val_loss;
            best_params = params.clone();
            report.best_epoch = epoch;
        }

        // Epoch snapshot (end-of-epoch state: next run continues at
        // `epoch + 1` with the RNG exactly where it stands now).
        if let Some((every, path)) = &cfg.snapshot {
            if *every > 0 && (epoch + 1) % every == 0 {
                let (m, v, t) = opt.state();
                let mut snap_foundation =
                    Foundation::new(cfg.arch, cfg.context, cfg.target_scale, 0);
                snap_foundation.model.set_params(&params[..model_len]);
                let snap = crate::checkpoint::TrainSnapshot {
                    foundation: snap_foundation,
                    spec: cfg.arch,
                    table: MarchTable::from_rows(k, cfg.arch.dim, params[model_len..].to_vec()),
                    next_epoch: epoch + 1,
                    adam_m: m.to_vec(),
                    adam_v: v.to_vec(),
                    adam_t: t,
                    rng_state: rng.state(),
                    best_val,
                    best_params: best_params.clone(),
                    best_epoch: report.best_epoch,
                    train_loss: report.train_loss.clone(),
                    val_loss: report.val_loss.clone(),
                };
                crate::checkpoint::save_snapshot(&snap, path)
                    .unwrap_or_else(|e| panic!("cannot write snapshot {}: {e}", path.display()));
            }
        }
    }

    foundation.model.set_params(&best_params[..model_len]);
    table.reps.copy_from_slice(&best_params[model_len..]);
    // Bake the normalization scales into the table rows so that
    // `dot(R, M_j) = target_scale * t_tenths` downstream.
    for (j, &s) in col_scale.iter().enumerate() {
        for v in table.rep_mut(j) {
            *v *= s;
        }
    }
    report.wall_seconds = start.elapsed().as_secs_f64();
    report.step_time_us = step_hist.summary();
    report.steps_per_sec = if step_secs > 0.0 {
        steps_taken as f64 / step_secs
    } else {
        0.0
    };
    TrainedFoundation {
        foundation,
        march_table: table,
        report,
    }
}

/// Scale a step's summed gradients `grads` to the mean over `batch`
/// windows into `out`, then clip them to global norm `clip` if given.
///
/// Returns `false` when the gradient norm is not finite; `out` must then
/// not reach the optimizer. A NaN norm never compares above the clip
/// bound, so without this check a NaN or infinite gradient would be
/// applied unclipped and only show up in the next step's loss.
fn mean_clipped_grads(grads: &[f32], batch: usize, clip: Option<f32>, out: &mut [f32]) -> bool {
    let inv = 1.0 / batch as f32;
    for (o, g) in out.iter_mut().zip(grads) {
        *o = g * inv;
    }
    let norm = out
        .iter()
        .map(|g| (*g as f64) * (*g as f64))
        .sum::<f64>()
        .sqrt() as f32;
    if !norm.is_finite() {
        return false;
    }
    if let Some(max_norm) = clip {
        if norm > max_norm {
            let s = max_norm / norm;
            for g in out.iter_mut() {
                *g *= s;
            }
        }
    }
    true
}

/// Mean magnitude of each target column over the dataset (after
/// `target_scale`), floored away from zero.
pub fn column_scales(data: &[ProgramData], target_scale: f32) -> Vec<f32> {
    let k = data[0].num_marches();
    let mut sums = vec![0.0f64; k];
    let mut n = 0u64;
    for d in data {
        for i in 0..d.len() {
            for (j, &t) in d.targets.row(i).iter().enumerate() {
                sums[j] += (t * target_scale).abs() as f64;
            }
            n += 1;
        }
    }
    sums.iter()
        .map(|s| ((s / n.max(1) as f64) as f32).max(1e-3))
        .collect()
}

/// Mean per-window validation loss (on normalized targets).
///
/// Each [`LANE_WIDTH`](perfvec_ml::parallel::LANE_WIDTH) lane chunk of
/// `items` runs through one batched forward pass, and its per-window
/// losses are summed in item order; the chunk sums reduce in chunk
/// order, so the result is bit-identical to a per-item scalar loop
/// over the same lane chunks.
pub fn validation_loss(
    foundation: &Foundation,
    table: &MarchTable,
    data: &[ProgramData],
    items: &[Item],
    inv_scale: &[f32],
) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let k = table.k;
    let dim = table.dim;
    let scale = foundation.target_scale;
    let (loss, _) = BatchStep::new().accumulate(items.len(), 0, |range, _| {
        let chunk = &items[range];
        let reps = forward_windows(
            foundation,
            chunk.iter().map(|&(p, i)| (&data[p].features, i)),
        );
        let mut preds = vec![0.0f32; k];
        let mut loss = 0.0f64;
        for (r, &(p, i)) in reps.chunks_exact(dim).zip(chunk) {
            table.predict_all(r, &mut preds);
            let targets = data[p].targets.row(i);
            let mut item_loss = 0.0f64;
            for j in 0..k {
                let err = preds[j] - targets[j] * scale * inv_scale[j];
                item_loss += (err * err) as f64;
            }
            loss += item_loss / k as f64;
        }
        loss
    });
    loss / items.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::build_program_data;
    use perfvec_sim::sample::predefined_configs;
    use perfvec_trace::features::FeatureMask;
    use perfvec_workloads::by_name;

    fn tiny_dataset() -> Vec<ProgramData> {
        let configs = predefined_configs();
        ["specrand", "xz"]
            .iter()
            .map(|n| {
                let t = by_name(n).unwrap().trace(1_500);
                build_program_data(n, &t, &configs, FeatureMask::Full)
            })
            .collect()
    }

    fn tiny_cfg() -> TrainConfig {
        TrainConfig {
            arch: ArchSpec::default_lstm(8),
            context: 4,
            epochs: 3,
            batch_size: 16,
            windows_per_epoch: 300,
            val_windows: 100,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn training_learns_program_totals() {
        // Window-level MSE is dominated by rare latency spikes and
        // improves slowly; what PerfVec needs is accurate program
        // *totals*, where MSE's bias-correctness makes per-window errors
        // cancel. Train briefly and check totals beat the untrained
        // model by a wide margin.
        use crate::compose::program_representation;
        use crate::predict::predict_total_tenths;
        let data = tiny_dataset();
        let mut cfg = tiny_cfg();
        cfg.epochs = 16;
        cfg.windows_per_epoch = 1_000;
        cfg.schedule = StepDecay {
            initial: 1e-2,
            gamma: 0.5,
            every: 6,
        };
        let trained = train_foundation(&data, &cfg);

        let mean_total_err = |f: &Foundation, table: &MarchTable| -> f64 {
            let mut errs = Vec::new();
            for d in &data {
                let rp = program_representation(f, &d.features);
                for j in 0..table.k {
                    let truth = d.total_time(j);
                    let pred = predict_total_tenths(&rp, table.rep(j), f.target_scale);
                    errs.push((pred - truth).abs() / truth);
                }
            }
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        let untrained = Foundation::new(cfg.arch, cfg.context, cfg.target_scale, cfg.seed);
        let untrained_table = MarchTable::new(data[0].num_marches(), cfg.arch.dim, 1);
        let base_err = mean_total_err(&untrained, &untrained_table);
        let err = mean_total_err(&trained.foundation, &trained.march_table);
        assert!(
            err < 0.35 && err < 0.5 * base_err,
            "trained total error {err:.3} should beat untrained {base_err:.3}"
        );
        // And the fixed validation loss must not diverge.
        let v = &trained.report.val_loss;
        assert!(v.last().unwrap().is_finite());
        assert!(v.iter().cloned().fold(f64::INFINITY, f64::min) <= v[0]);
    }

    #[test]
    fn reuse_and_naive_compute_identical_gradients() {
        let data = tiny_dataset();
        let foundation = Foundation::new(ArchSpec::default_lstm(8), 4, 0.1, 3);
        let table = MarchTable::new(data[0].num_marches(), 8, 5);
        let model_len = foundation.model.num_params();
        let total = model_len + table.num_params();
        let w = foundation.window();
        let mut buf = vec![0.0f32; w * NUM_FEATURES];
        let mut preds = vec![0.0f32; table.k];
        let mut g_reuse = vec![0.0f32; total];
        let mut g_naive = vec![0.0f32; total];
        let inv_scale = vec![1.0f32; table.k];
        let l1 = window_pass(
            &foundation,
            &table,
            &data[0],
            42,
            &inv_scale,
            &mut buf,
            &mut preds,
            &mut g_reuse,
            model_len,
            true,
        );
        let l2 = window_pass(
            &foundation,
            &table,
            &data[0],
            42,
            &inv_scale,
            &mut buf,
            &mut preds,
            &mut g_naive,
            model_len,
            false,
        );
        assert!((l1 - l2).abs() < 1e-9 * (1.0 + l1.abs()));
        for (a, b) in g_reuse.iter().zip(&g_naive) {
            assert!((a - b).abs() < 1e-4 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn gradients_are_averaged_and_clipped() {
        let mut out = vec![0.0f32; 3];
        assert!(mean_clipped_grads(&[2.0, 4.0, -8.0], 2, None, &mut out));
        assert_eq!(out, [1.0, 2.0, -4.0]);
        // Norm sqrt(21) > 1: scaled down to unit norm.
        assert!(mean_clipped_grads(
            &[2.0, 4.0, -8.0],
            2,
            Some(1.0),
            &mut out
        ));
        let norm: f32 = out.iter().map(|g| g * g).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-6, "clipped norm {norm}");
        // Under the bound: untouched.
        assert!(mean_clipped_grads(
            &[2.0, 4.0, -8.0],
            2,
            Some(10.0),
            &mut out
        ));
        assert_eq!(out, [1.0, 2.0, -4.0]);
    }

    #[test]
    fn nan_and_infinite_gradients_never_pass_the_check() {
        let mut out = vec![0.0f32; 3];
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for clip in [None, Some(5.0)] {
                assert!(
                    !mean_clipped_grads(&[0.5, bad, -0.25], 4, clip, &mut out),
                    "{bad} with clip {clip:?}"
                );
            }
        }
        // Finite entries whose norm overflows f32 are caught too.
        assert!(!mean_clipped_grads(
            &[f32::MAX, f32::MAX],
            1,
            Some(5.0),
            &mut out[..2]
        ));
    }

    /// A top-level 32-window step of an LSTM-2-32 runs as two lane
    /// halves on two threads; inside a parallel region the same step
    /// stays on one thread. Both must give byte-identical checkpoints.
    #[test]
    fn two_thread_and_one_thread_steps_produce_byte_identical_checkpoints() {
        use crate::checkpoint::encode;
        use crate::foundation::ArchKind;
        use perfvec_ml::parallel::parallel_map;
        let data = tiny_dataset();
        for kind in [ArchKind::Lstm, ArchKind::BiLstm, ArchKind::Gru] {
            let cfg = TrainConfig {
                arch: ArchSpec {
                    kind,
                    layers: 2,
                    dim: 32,
                },
                context: 12,
                epochs: 1,
                batch_size: 32,
                windows_per_epoch: 96,
                val_windows: 64,
                ..TrainConfig::default()
            };
            let top = train_foundation(&data, &cfg);
            let nested = parallel_map(2, |i| (i == 0).then(|| train_foundation(&data, &cfg)))
                .swap_remove(0)
                .expect("item 0 trains");
            assert_eq!(top.report.train_loss, nested.report.train_loss);
            assert_eq!(
                encode(&top.foundation, cfg.arch, Some(&top.march_table)),
                encode(&nested.foundation, cfg.arch, Some(&nested.march_table)),
                "{kind:?}: two-thread and one-thread checkpoints differ"
            );
        }
    }

    #[test]
    fn validation_selects_best_epoch() {
        let data = tiny_dataset();
        let trained = train_foundation(&data, &tiny_cfg());
        let best = trained.report.best_epoch as usize;
        let v = &trained.report.val_loss;
        assert_eq!(v.iter().cloned().fold(f64::INFINITY, f64::min), v[best]);
    }

    #[test]
    fn diverging_run_stops_and_keeps_the_best_finite_parameters() {
        use crate::checkpoint::encode;
        let data = tiny_dataset();
        let mut cfg = tiny_cfg();
        cfg.epochs = 4;
        cfg.clip_norm = None;
        // Epoch 0 trains at a sane rate and validates; from epoch 1 the
        // rate is absurd, so the loss overflows to a non-finite value.
        cfg.schedule = StepDecay {
            initial: 1e-3,
            gamma: 1e30,
            every: 1,
        };
        let trained = train_foundation(&data, &cfg);
        let r = &trained.report;
        assert_eq!(r.diverged_epoch, Some(1));
        assert_eq!(r.best_epoch, 0);
        assert_eq!(
            r.train_loss.len(),
            2,
            "training must stop at the diverged epoch"
        );
        assert!(r.train_loss[0].is_finite() && r.val_loss[0].is_finite());
        assert!(!r.train_loss[1].is_finite() || !r.val_loss[1].is_finite());
        // The kept parameters are epoch 0's: finite, and byte-identical
        // to those of a run that stops after epoch 0.
        assert!(trained
            .foundation
            .model
            .get_params()
            .iter()
            .all(|v| v.is_finite()));
        assert!(trained.march_table.reps.iter().all(|v| v.is_finite()));
        let mut first = cfg.clone();
        first.epochs = 1;
        let one = train_foundation(&data, &first);
        assert_eq!(one.report.diverged_epoch, None);
        assert_eq!(
            encode(&one.foundation, cfg.arch, Some(&one.march_table)),
            encode(&trained.foundation, cfg.arch, Some(&trained.march_table))
        );
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let data = tiny_dataset();
        let mut cfg = tiny_cfg();
        cfg.epochs = 2;
        let a = train_foundation(&data, &cfg);
        let b = train_foundation(&data, &cfg);
        assert_eq!(a.report.train_loss, b.report.train_loss);
        assert_eq!(a.march_table.reps, b.march_table.reps);
    }

    /// Full train() runs through the batched and the scalar step must
    /// produce byte-identical checkpoints at the same seed — the
    /// refactor's core acceptance criterion.
    #[test]
    fn batched_and_scalar_steps_produce_byte_identical_checkpoints() {
        use crate::checkpoint::encode;
        let data = tiny_dataset();
        let mut cfg = tiny_cfg();
        cfg.epochs = 2;
        cfg.windows_per_epoch = 200;
        // A batch size above the lane width and not a multiple of it,
        // so full chunks, a partial chunk, and the cross-chunk
        // reduction are all exercised.
        cfg.batch_size = 40;
        cfg.batched = true;
        let batched = train_foundation(&data, &cfg);
        cfg.batched = false;
        let scalar = train_foundation(&data, &cfg);
        assert_eq!(
            batched.report.train_loss, scalar.report.train_loss,
            "training losses diverged between steps"
        );
        assert_eq!(batched.report.val_loss, scalar.report.val_loss);
        assert_eq!(batched.report.best_epoch, scalar.report.best_epoch);
        let b_bytes = encode(&batched.foundation, cfg.arch, Some(&batched.march_table));
        let s_bytes = encode(&scalar.foundation, cfg.arch, Some(&scalar.march_table));
        assert_eq!(b_bytes, s_bytes, "checkpoints must match byte-for-byte");
    }

    /// The batched/scalar byte-identity must hold for a fallback
    /// (window-only) architecture riding the per-sequence batch path
    /// too, not just the recurrent kernels.
    #[test]
    fn batched_scalar_identity_holds_for_fallback_architectures() {
        use crate::checkpoint::encode;
        use crate::foundation::ArchKind;
        let data = tiny_dataset();
        let mut cfg = tiny_cfg();
        cfg.arch = ArchSpec {
            kind: ArchKind::Mlp,
            layers: 2,
            dim: 8,
        };
        cfg.epochs = 1;
        cfg.windows_per_epoch = 120;
        cfg.batched = true;
        let batched = train_foundation(&data, &cfg);
        cfg.batched = false;
        let scalar = train_foundation(&data, &cfg);
        assert_eq!(
            encode(&batched.foundation, cfg.arch, Some(&batched.march_table)),
            encode(&scalar.foundation, cfg.arch, Some(&scalar.march_table))
        );
    }

    /// Snapshot at epoch 2 of 4, resume, and compare against an
    /// uninterrupted 4-epoch run: the final checkpoint and the full
    /// report history must be bit-identical.
    #[test]
    fn snapshot_resume_restarts_bit_identically() {
        use crate::checkpoint::encode;
        let data = tiny_dataset();
        let dir = std::env::temp_dir().join("perfvec_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap_path = dir.join("epoch.pfs");

        let mut straight_cfg = tiny_cfg();
        straight_cfg.epochs = 4;
        straight_cfg.windows_per_epoch = 200;
        let straight = train_foundation(&data, &straight_cfg);

        // Phase 1: stop after 2 epochs, snapshotting every 2.
        let mut phase1 = straight_cfg.clone();
        phase1.epochs = 2;
        phase1.snapshot = Some((2, snap_path.clone()));
        train_foundation(&data, &phase1);

        // Phase 2: resume to the full 4 epochs.
        let mut phase2 = straight_cfg.clone();
        phase2.resume_from = Some(snap_path.clone());
        let resumed = train_foundation(&data, &phase2);

        assert_eq!(resumed.report.train_loss, straight.report.train_loss);
        assert_eq!(resumed.report.val_loss, straight.report.val_loss);
        assert_eq!(resumed.report.best_epoch, straight.report.best_epoch);
        assert_eq!(
            encode(
                &resumed.foundation,
                straight_cfg.arch,
                Some(&resumed.march_table)
            ),
            encode(
                &straight.foundation,
                straight_cfg.arch,
                Some(&straight.march_table)
            ),
            "resumed checkpoint must be byte-identical to the uninterrupted run"
        );
        std::fs::remove_file(&snap_path).ok();
    }
}
