//! Ithemal-like baseline (Mendis et al., ICML'19).
//!
//! An LSTM that predicts the latency of a **basic block** (a handful of
//! instructions between branches) from the instruction sequence, trained
//! per microarchitecture. As the paper notes (Table III), this family
//! cannot scale past basic blocks — ML models cannot ingest billions of
//! tokens — so whole-program prediction means running the model per
//! block, and dynamic effects across blocks (caches!) are invisible.

use perfvec_ml::adam::Adam;
use perfvec_ml::parallel::BatchStep;
use perfvec_ml::seq::SeqModel;
use perfvec_trace::features::Matrix;
use perfvec_trace::NUM_FEATURES;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A dynamic basic block: a run of instructions ending at a taken-or-not
/// branch boundary.
#[derive(Debug, Clone)]
pub struct Block {
    /// First instruction index (inclusive).
    pub start: usize,
    /// Last instruction index (exclusive).
    pub end: usize,
}

/// Split a trace into dynamic basic blocks using the branch flag of the
/// feature matrix (feature 9 = is-branch), capped at `max_len`.
pub fn split_blocks(features: &Matrix, max_len: usize) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut start = 0usize;
    for i in 0..features.rows {
        let is_branch = features.row(i)[9] > 0.5;
        let len = i + 1 - start;
        if is_branch || len >= max_len {
            blocks.push(Block { start, end: i + 1 });
            start = i + 1;
        }
    }
    if start < features.rows {
        blocks.push(Block {
            start,
            end: features.rows,
        });
    }
    blocks
}

/// Per-microarchitecture basic-block latency model.
pub struct Ithemal {
    lstm: SeqModel,
    scale: f32,
    max_len: usize,
}

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct IthemalConfig {
    /// Hidden width.
    pub hidden: usize,
    /// Max block length.
    pub max_len: usize,
    /// Epochs.
    pub epochs: u32,
    /// Batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for IthemalConfig {
    fn default() -> IthemalConfig {
        IthemalConfig {
            hidden: 24,
            max_len: 16,
            epochs: 40,
            batch: 32,
            lr: 1e-2,
            seed: 0x17e,
        }
    }
}

/// One lane chunk of basic blocks through the batch-major kernels:
/// blocks are grouped by (equal) length — a `forward_batch`
/// requirement — in stable first-appearance order, and each group runs
/// one `forward_batch_cached`/`backward_batch` pair. Each block's
/// forward/backward is bit-identical to its scalar pass; the chunk's
/// gradient accumulates group-major, so the step is deterministic but
/// claims no bit-parity with a per-block (item-major) sum.
fn batched_block_pass(
    lstm: &SeqModel,
    features: &Matrix,
    blocks: &[Block],
    targets: &[f32],
    scale: f32,
    items: &[usize],
    grads: &mut [f32],
) -> f64 {
    let d = lstm.out_dim();
    let mut loss = 0.0f64;
    let mut lengths: Vec<usize> = Vec::new();
    for &b in items {
        let t = blocks[b].end - blocks[b].start;
        if !lengths.contains(&t) {
            lengths.push(t);
        }
    }
    let mut xs: Vec<f32> = Vec::new();
    let mut group: Vec<usize> = Vec::new();
    for &t in &lengths {
        group.clear();
        group.extend(
            items
                .iter()
                .copied()
                .filter(|&b| blocks[b].end - blocks[b].start == t),
        );
        let bn = group.len();
        xs.clear();
        for &b in &group {
            xs.extend_from_slice(
                &features.data[blocks[b].start * NUM_FEATURES..blocks[b].end * NUM_FEATURES],
            );
        }
        let (ys, cache) = lstm.forward_batch_cached(&xs, t, bn);
        let mut douts = vec![0.0f32; bn * d];
        for (li, &b) in group.iter().enumerate() {
            let pred: f32 = ys[li * d..(li + 1) * d].iter().sum();
            let err = pred - targets[b] / scale;
            loss += (err * err) as f64;
            douts[li * d..(li + 1) * d].fill(2.0 * err);
        }
        lstm.backward_batch(&xs, t, bn, &cache, &douts, grads);
    }
    loss
}

impl Ithemal {
    /// Train on one machine: block targets are the summed incremental
    /// latencies of the block's instructions.
    pub fn train(features: &Matrix, latencies: &[f32], cfg: &IthemalConfig) -> Ithemal {
        let blocks = split_blocks(features, cfg.max_len);
        let targets: Vec<f32> = blocks
            .iter()
            .map(|b| latencies[b.start..b.end].iter().sum::<f32>())
            .collect();
        let mean = (targets.iter().map(|t| t.abs() as f64).sum::<f64>()
            / targets.len().max(1) as f64) as f32;
        let scale = mean.max(1e-3);

        let mut lstm = SeqModel::lstm(NUM_FEATURES, cfg.hidden, 1, cfg.seed);
        // Readout: the sum over hidden units (each tanh-bounded), which
        // gives the head enough range without a separate linear layer.
        let mut opt = Adam::new(lstm.num_params());
        let mut order: Vec<usize> = (0..blocks.len()).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let step = BatchStep::new();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch) {
                let (_, grads) = step.accumulate(chunk.len(), lstm.num_params(), |range, grads| {
                    batched_block_pass(
                        &lstm,
                        features,
                        &blocks,
                        &targets,
                        scale,
                        &chunk[range],
                        grads,
                    )
                });
                let inv = 1.0 / chunk.len() as f32;
                let g: Vec<f32> = grads.iter().map(|v| v * inv).collect();
                let mut p = lstm.get_params();
                opt.step(&mut p, &g, cfg.lr);
                lstm.set_params(&p);
            }
        }
        Ithemal {
            lstm,
            scale,
            max_len: cfg.max_len,
        }
    }

    /// Predict one block's latency (0.1 ns).
    pub fn predict_block(&self, features: &Matrix, block: &Block) -> f64 {
        let t = block.end - block.start;
        let xs = &features.data[block.start * NUM_FEATURES..block.end * NUM_FEATURES];
        (self.lstm.forward(xs, t).0.iter().sum::<f32>() * self.scale) as f64
    }

    /// Whole-program prediction by summing per-block predictions — the
    /// block-at-a-time cost profile of Table III.
    pub fn predict_total_tenths(&self, features: &Matrix) -> f64 {
        split_blocks(features, self.max_len)
            .iter()
            .map(|b| self.predict_block(features, b))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvec_sim::sample::predefined_configs;
    use perfvec_sim::simulate;
    use perfvec_trace::features::{extract_features, FeatureMask};
    use perfvec_workloads::by_name;

    #[test]
    fn blocks_partition_the_trace() {
        let trace = by_name("deepsjeng").unwrap().trace(3_000);
        let f = extract_features(&trace, FeatureMask::Full);
        let blocks = split_blocks(&f, 16);
        assert_eq!(
            blocks.iter().map(|b| b.end - b.start).sum::<usize>(),
            f.rows
        );
        assert!(blocks.windows(2).all(|w| w[0].end == w[1].start));
        assert!(blocks.iter().all(|b| b.end - b.start <= 16));
        // A branchy kernel has many short blocks.
        assert!(blocks.len() > f.rows / 16);
    }

    #[test]
    fn ithemal_fits_blocks_on_its_machine() {
        let trace = by_name("specrand").unwrap().trace(4_000);
        let cfg = &predefined_configs()[1];
        let sim = simulate(&trace, cfg);
        let f = extract_features(&trace, FeatureMask::Full);
        let model = Ithemal::train(&f, &sim.inc_latency_tenths, &IthemalConfig::default());
        let pred = model.predict_total_tenths(&f);
        let err = (pred - sim.total_tenths).abs() / sim.total_tenths;
        assert!(err < 0.30, "Ithemal-like total error {err:.3}");
    }
}
