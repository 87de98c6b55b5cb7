//! Learning representations of *unseen* microarchitectures
//! (Section V-A, Figure 5).
//!
//! The pre-trained foundation model is frozen; only new rows of the
//! microarchitecture table are learned, from a small tuning dataset
//! obtained by simulating a few *seen* programs on the target machines.
//! Because the foundation never changes, instruction representations are
//! computed once and cached — fine-tuning is orders of magnitude cheaper
//! than foundation training.

use crate::compose::represent_windows;
use crate::foundation::Foundation;
use crate::march_table::MarchTable;
use crate::refit::{try_solve_table, NormalEq};
use perfvec_ml::adam::Adam;
use perfvec_ml::parallel::BatchStep;
use perfvec_ml::tensor::{axpy, dot};
use perfvec_trace::ProgramData;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Fine-tuning hyperparameters.
#[derive(Debug, Clone)]
pub struct FinetuneConfig {
    /// Training epochs over the cached representations.
    pub epochs: u32,
    /// Windows per gradient step.
    pub batch_size: usize,
    /// Number of instruction windows sampled from the tuning set.
    pub windows: usize,
    /// Learning rate (fixed; the run is short).
    pub lr: f32,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for FinetuneConfig {
    fn default() -> FinetuneConfig {
        FinetuneConfig {
            epochs: 30,
            batch_size: 64,
            windows: 4_000,
            lr: 5e-3,
            seed: 0xf1e7,
        }
    }
}

/// Cached instruction representations and their targets for fine-tuning.
pub struct CachedReps {
    /// `n x d` representations (frozen foundation outputs).
    pub reps: Vec<Vec<f32>>,
    /// `n x k_new` scaled targets.
    pub targets: Vec<Vec<f32>>,
}

/// Sample windows from the tuning programs and compute their (frozen)
/// representations once, in parallel batched blocks.
pub fn cache_representations(
    foundation: &Foundation,
    tuning: &[ProgramData],
    windows: usize,
    seed: u64,
) -> CachedReps {
    let mut pool: Vec<(usize, usize)> = Vec::new();
    for (p, d) in tuning.iter().enumerate() {
        for i in 0..d.len() {
            pool.push((p, i));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    pool.shuffle(&mut rng);
    pool.truncate(windows.min(pool.len()));

    let scale = foundation.target_scale;
    let rows = represent_windows(foundation, pool.len(), |n| {
        let (p, i) = pool[n];
        (&tuning[p].features, i)
    });
    let reps = rows
        .chunks_exact(foundation.dim())
        .map(<[f32]>::to_vec)
        .collect();
    let targets = pool
        .iter()
        .map(|&(p, i)| {
            tuning[p]
                .targets
                .row(i)
                .iter()
                .map(|&t| t * scale)
                .collect()
        })
        .collect();
    CachedReps { reps, targets }
}

/// Closed-form ridge solution of the fine-tuning least squares over the
/// cached windows, against the *normalized* targets (`t_j / s_j`).
/// Returns `None` if the factorization fails (degenerate Gram matrix).
fn warm_start_table(
    reps: &[Vec<f32>],
    targets: &[Vec<f32>],
    col_scale: &[f32],
    k: usize,
    d: usize,
) -> Option<MarchTable> {
    let mut eq = NormalEq::zeros(d, k);
    let mut scaled = vec![0.0f32; k];
    for (r, t) in reps.iter().zip(targets) {
        for (s, (&tv, &cs)) in scaled.iter_mut().zip(t.iter().zip(col_scale)) {
            *s = tv / cs;
        }
        eq.accumulate(r, &scaled, 1.0);
    }
    try_solve_table(&eq, 1e-6)
}

/// Learn a fresh microarchitecture table (one row per tuning-target
/// machine) against the frozen foundation model. Returns the table and
/// the final training loss.
pub fn learn_march_reps(
    foundation: &Foundation,
    tuning: &[ProgramData],
    cfg: &FinetuneConfig,
) -> (MarchTable, f64) {
    assert!(!tuning.is_empty());
    let k = tuning[0].num_marches();
    let d = foundation.dim();
    let cached = cache_representations(foundation, tuning, cfg.windows, cfg.seed);
    let n = cached.reps.len();
    assert!(n > 0, "no tuning windows");

    // Per-machine target normalization (same conditioning trick as the
    // main trainer): train against t_j / s_j, then bake s_j back into
    // the learned row so the prediction contract is unchanged.
    let mut col_scale = vec![0.0f64; k];
    for t in &cached.targets {
        for (j, &v) in t.iter().enumerate() {
            col_scale[j] += v.abs() as f64;
        }
    }
    let col_scale: Vec<f32> = col_scale
        .iter()
        .map(|s| ((s / n as f64) as f32).max(1e-3))
        .collect();

    // Warm start: with the foundation frozen the problem is linear least
    // squares, so the closed-form ridge solution over the cached windows
    // is (nearly) the answer; the SGD epochs below only polish it. This
    // is what makes fine-tuning "orders of magnitude cheaper" in
    // practice — without it, the correlated representations of the
    // tuning windows condition the problem badly enough that Adam needs
    // thousands of epochs from a random start.
    let mut table = warm_start_table(&cached.reps, &cached.targets, &col_scale, k, d)
        .unwrap_or_else(|| MarchTable::new(k, d, cfg.seed ^ 0xf00d));
    let mut opt = Adam::new(table.num_params());
    let mut last_loss = f64::INFINITY;
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0dd);
    // The same deterministic lane-chunked gradient step the trainer
    // uses: fine-tuning results are bit-reproducible on any core count.
    let step = BatchStep::new();
    for _epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for batch in order.chunks(cfg.batch_size) {
            let (loss, grads) =
                step.accumulate_items(batch.len(), table.num_params(), |b, grads| {
                    let i = batch[b];
                    let r = &cached.reps[i];
                    let t = &cached.targets[i];
                    let mut loss = 0.0f64;
                    let inv_k = 2.0 / k as f32;
                    for j in 0..k {
                        let err = dot(r, table.rep(j)) - t[j] / col_scale[j];
                        loss += (err * err) as f64;
                        axpy(inv_k * err, r, &mut grads[j * d..(j + 1) * d]);
                    }
                    loss / k as f64
                });
            let inv = 1.0 / batch.len() as f32;
            let mean_grads: Vec<f32> = grads.iter().map(|g| g * inv).collect();
            opt.step(&mut table.reps, &mean_grads, cfg.lr);
            epoch_loss += loss / batch.len() as f64;
            batches += 1;
        }
        last_loss = epoch_loss / batches.max(1) as f64;
    }
    for (j, &s) in col_scale.iter().enumerate() {
        for v in table.rep_mut(j) {
            *v *= s;
        }
    }
    (table, last_loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foundation::ArchSpec;
    use perfvec_ml::init::seeded_rng;
    use perfvec_trace::features::Matrix;
    use perfvec_trace::NUM_FEATURES;
    use rand::Rng;

    /// Synthetic tuning data whose targets are exactly linear in the
    /// (frozen, random) foundation representations: fine-tuning must
    /// recover the generating vectors.
    fn synthetic_tuning(
        foundation: &Foundation,
        k: usize,
        n: usize,
    ) -> (Vec<ProgramData>, Vec<Vec<f32>>) {
        let d = foundation.dim();
        let mut rng = seeded_rng(99);
        let true_reps: Vec<Vec<f32>> = (0..k)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0f32)).collect())
            .collect();
        let mut features = Matrix::zeros(n, NUM_FEATURES);
        for i in 0..n {
            for j in 0..8 {
                features.row_mut(i)[j * 6] = rng.gen_range(0.0..1.0f32);
            }
        }
        let mut targets = Matrix::zeros(n, k);
        for i in 0..n {
            let r = foundation.repr_at(&features, i);
            for (j, tr) in true_reps.iter().enumerate() {
                // target in tenths; trainer rescales by target_scale
                targets.row_mut(i)[j] = dot(&r, tr) / foundation.target_scale;
            }
        }
        (
            vec![ProgramData {
                name: "synthetic".into(),
                features,
                targets,
            }],
            true_reps,
        )
    }

    #[test]
    fn recovers_linear_generating_behaviour() {
        // The learned rows need only match the generating vectors on the
        // subspace spanned by real representations, so the meaningful
        // check is *prediction* agreement on held-out windows.
        let foundation = Foundation::new(ArchSpec::default_lstm(8), 3, 0.5, 17);
        let (tuning, true_reps) = synthetic_tuning(&foundation, 3, 400);
        let cfg = FinetuneConfig {
            epochs: 60,
            windows: 300,
            lr: 1e-2,
            ..Default::default()
        };
        let (table, loss) = learn_march_reps(&foundation, &tuning, &cfg);
        assert!(
            loss < 0.3,
            "fine-tuning should fit a linear target, loss {loss}"
        );
        // Held-out windows: the last 50 instructions (sampling may have
        // seen some; representations still generalize within-distribution).
        let feats = &tuning[0].features;
        for i in 350..400 {
            let r = foundation.repr_at(feats, i);
            for (j, tr) in true_reps.iter().enumerate() {
                let truth = dot(&r, tr) as f64;
                let pred = dot(&r, table.rep(j)) as f64;
                assert!(
                    (pred - truth).abs() < 0.15 * (1.0 + truth.abs()),
                    "window {i} march {j}: pred {pred} vs truth {truth}"
                );
            }
        }
    }

    #[test]
    fn cache_respects_window_budget() {
        let foundation = Foundation::new(ArchSpec::default_lstm(8), 2, 0.1, 3);
        let (tuning, _) = synthetic_tuning(&foundation, 2, 300);
        let cached = cache_representations(&foundation, &tuning, 100, 1);
        assert_eq!(cached.reps.len(), 100);
        assert_eq!(cached.targets[0].len(), 2);
    }
}
