//! Bidirectional LSTM (the `biLSTM-2-d` ablation architecture of
//! Figure 6): a forward stack and a backward stack, each of hidden size
//! `d/2`, concatenated into a `d`-dimensional representation.

use crate::lstm::{Lstm, LstmBatchCache, LstmCache};

/// Bidirectional LSTM: two independent stacks over the window, one
/// reading forward and one reading the reversed window.
#[derive(Debug, Clone)]
pub struct BiLstm {
    fwd: Lstm,
    bwd: Lstm,
    in_dim: usize,
    half: usize,
}

/// Cache for [`BiLstm::forward`].
#[derive(Debug, Clone)]
pub struct BiLstmCache {
    fwd: LstmCache,
    bwd: LstmCache,
    rev_xs: Vec<f32>,
    t_steps: usize,
}

fn reverse_steps(xs: &[f32], t: usize, dim: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; xs.len()];
    for s in 0..t {
        out[s * dim..(s + 1) * dim].copy_from_slice(&xs[(t - 1 - s) * dim..(t - s) * dim]);
    }
    out
}

/// Per-sequence step reversal of a sequence-major batch block (pure
/// data movement: each sequence's steps are mirrored exactly as
/// [`reverse_steps`] would for the scalar path).
fn reverse_steps_batch(xs: &[f32], t: usize, dim: usize, batch: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; xs.len()];
    let n = t * dim;
    for s in 0..batch {
        let src = &xs[s * n..(s + 1) * n];
        let dst = &mut out[s * n..(s + 1) * n];
        for step in 0..t {
            dst[step * dim..(step + 1) * dim]
                .copy_from_slice(&src[(t - 1 - step) * dim..(t - step) * dim]);
        }
    }
    out
}

/// Batched forward cache: both directions' lane-blocked batch-major
/// activations, plus the shared reversed input block the backward stack
/// consumed.
#[derive(Debug, Clone)]
pub struct BiLstmBatchCache {
    fwd: LstmBatchCache,
    bwd: LstmBatchCache,
    rev_xs: Vec<f32>,
}

impl BiLstmBatchCache {
    /// Number of timesteps the cache covers.
    pub fn t_steps(&self) -> usize {
        self.fwd.t_steps()
    }

    /// Number of sequences in the batch.
    pub fn batch(&self) -> usize {
        self.fwd.batch()
    }

    /// Lane parts each direction stack ran as (both stacks have the same
    /// shape, so they split alike).
    pub fn lane_parts(&self) -> usize {
        self.fwd.lane_parts()
    }
}

impl BiLstm {
    /// Build a bidirectional LSTM whose concatenated output has `out_dim`
    /// dimensions (`out_dim` must be even).
    pub fn new(in_dim: usize, out_dim: usize, n_layers: usize, seed: u64) -> BiLstm {
        assert!(out_dim.is_multiple_of(2), "biLSTM output dim must be even");
        let half = out_dim / 2;
        BiLstm {
            fwd: Lstm::new(in_dim, half, n_layers, seed),
            bwd: Lstm::new(in_dim, half, n_layers, seed ^ 0xb1d1),
            in_dim,
            half,
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality (both directions concatenated).
    pub fn out_dim(&self) -> usize {
        2 * self.half
    }

    /// Layer count of each direction stack.
    pub fn num_layers(&self) -> usize {
        self.fwd.num_layers()
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.fwd.params().len() + self.bwd.params().len()
    }

    /// Flat parameters: forward stack then backward stack.
    pub fn params(&self) -> Vec<f32> {
        let mut p = self.fwd.params().to_vec();
        p.extend_from_slice(self.bwd.params());
        p
    }

    /// Overwrite parameters from a flat slice (same layout as
    /// [`BiLstm::params`]).
    pub fn set_params(&mut self, p: &[f32]) {
        let nf = self.fwd.params().len();
        self.fwd.params_mut().copy_from_slice(&p[..nf]);
        self.bwd.params_mut().copy_from_slice(&p[nf..]);
    }

    /// Full-window forward; returns the concatenated representation.
    pub fn forward(&self, xs: &[f32], t_steps: usize) -> (Vec<f32>, BiLstmCache) {
        let rev_xs = reverse_steps(xs, t_steps, self.in_dim);
        let (of, cf) = self.fwd.forward(xs, t_steps);
        let (ob, cb) = self.bwd.forward(&rev_xs, t_steps);
        let mut out = of;
        out.extend_from_slice(&ob);
        (
            out,
            BiLstmCache {
                fwd: cf,
                bwd: cb,
                rev_xs,
                t_steps,
            },
        )
    }

    /// Batched forward over `batch` independent sequences: both
    /// direction stacks run fully batched (lane-blocked batch-major
    /// kernels) over the shared window block — the forward stack on
    /// `xs` directly, the backward stack on one per-sequence-reversed
    /// copy — and the per-sequence outputs are concatenated. Each
    /// sequence's result is bit-identical to [`BiLstm::forward`].
    pub fn forward_batch(&self, xs: &[f32], t_steps: usize, batch: usize) -> Vec<f32> {
        let rev_xs = reverse_steps_batch(xs, t_steps, self.in_dim, batch);
        let of = self.fwd.forward_batch(xs, t_steps, batch);
        let ob = self.bwd.forward_batch(&rev_xs, t_steps, batch);
        self.concat_outputs(&of, &ob, batch)
    }

    /// Batched forward retaining both stacks' batch-major activations
    /// for [`BiLstm::backward_batch`].
    pub fn forward_batch_cached(
        &self,
        xs: &[f32],
        t_steps: usize,
        batch: usize,
    ) -> (Vec<f32>, BiLstmBatchCache) {
        let rev_xs = reverse_steps_batch(xs, t_steps, self.in_dim, batch);
        let (of, cf) = self.fwd.forward_batch_cached(xs, t_steps, batch);
        let (ob, cb) = self.bwd.forward_batch_cached(&rev_xs, t_steps, batch);
        let out = self.concat_outputs(&of, &ob, batch);
        (
            out,
            BiLstmBatchCache {
                fwd: cf,
                bwd: cb,
                rev_xs,
            },
        )
    }

    fn concat_outputs(&self, of: &[f32], ob: &[f32], batch: usize) -> Vec<f32> {
        let half = self.half;
        let d = 2 * half;
        let mut out = vec![0.0f32; batch * d];
        for s in 0..batch {
            out[s * d..s * d + half].copy_from_slice(&of[s * half..(s + 1) * half]);
            out[s * d + half..(s + 1) * d].copy_from_slice(&ob[s * half..(s + 1) * half]);
        }
        out
    }

    /// Batched backward from per-sequence upstream gradients `douts`
    /// (sequence-major `batch x out_dim`), accumulating into `grads`.
    ///
    /// The split halves go through each stack's batch-major BPTT
    /// ([`Lstm::backward_batch`]), whose parameter accumulation is
    /// already sequence-ascending in scalar order; the two stacks' grad
    /// regions are disjoint, so the result is bit-identical to calling
    /// [`BiLstm::backward`] once per sequence in batch order.
    pub fn backward_batch(
        &self,
        xs: &[f32],
        cache: &BiLstmBatchCache,
        douts: &[f32],
        grads: &mut [f32],
    ) {
        let batch = cache.batch();
        let half = self.half;
        let d = 2 * half;
        debug_assert_eq!(douts.len(), batch * d);
        let mut douts_f = vec![0.0f32; batch * half];
        let mut douts_b = vec![0.0f32; batch * half];
        for s in 0..batch {
            douts_f[s * half..(s + 1) * half].copy_from_slice(&douts[s * d..s * d + half]);
            douts_b[s * half..(s + 1) * half].copy_from_slice(&douts[s * d + half..(s + 1) * d]);
        }
        let nf = self.fwd.params().len();
        let (gf, gb) = grads.split_at_mut(nf);
        self.fwd.backward_batch(xs, &cache.fwd, &douts_f, gf);
        self.bwd
            .backward_batch(&cache.rev_xs, &cache.bwd, &douts_b, gb);
    }

    /// Backward; `grads` has [`BiLstm::num_params`] entries laid out as
    /// forward-stack grads then backward-stack grads.
    pub fn backward(&self, xs: &[f32], cache: &BiLstmCache, dout: &[f32], grads: &mut [f32]) {
        let nf = self.fwd.params().len();
        let (gf, gb) = grads.split_at_mut(nf);
        self.fwd.backward(xs, &cache.fwd, &dout[..self.half], gf);
        self.bwd
            .backward(&cache.rev_xs, &cache.bwd, &dout[self.half..], gb);
        let _ = cache.t_steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::tensor::dot;
    use rand::Rng;

    #[test]
    fn output_concatenates_both_directions() {
        let m = BiLstm::new(3, 8, 1, 5);
        let xs = vec![0.3f32; 4 * 3];
        let (out, _) = m.forward(&xs, 4);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn backward_direction_sees_reversed_sequence() {
        let m = BiLstm::new(2, 4, 1, 9);
        let t = 5;
        let mut rng = seeded_rng(1);
        let xs: Vec<f32> = (0..t * 2).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let rev = reverse_steps(&xs, t, 2);
        let rev_rev = reverse_steps(&rev, t, 2);
        assert_eq!(xs, rev_rev);
        // Perturbing the LAST input changes the backward stack's view of
        // its FIRST step, so the full output must change substantially.
        let mut xs2 = xs.clone();
        xs2[(t - 1) * 2] += 1.0;
        let (o1, _) = m.forward(&xs, t);
        let (o2, _) = m.forward(&xs2, t);
        let back_diff: f32 = o1[2..]
            .iter()
            .zip(&o2[2..])
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(back_diff > 1e-4);
    }

    #[test]
    fn gradient_check() {
        let mut m = BiLstm::new(3, 6, 1, 21);
        let t = 4;
        let mut rng = seeded_rng(4);
        let xs: Vec<f32> = (0..t * 3).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let dout: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let (_, cache) = m.forward(&xs, t);
        let mut grads = vec![0.0f32; m.num_params()];
        m.backward(&xs, &cache, &dout, &mut grads);

        let loss = |m: &BiLstm| {
            let (o, _) = m.forward(&xs, t);
            dot(&o, &dout)
        };
        let flat = m.params();
        let mut idx = 3usize;
        let mut checked = 0;
        while idx < flat.len() && checked < 16 {
            let eps = 3e-3;
            let mut p = flat.clone();
            p[idx] += eps;
            m.set_params(&p);
            let lp = loss(&m);
            p[idx] -= 2.0 * eps;
            m.set_params(&p);
            let lm = loss(&m);
            p[idx] += eps;
            m.set_params(&p);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grads[idx]).abs() < 2e-2 * (1.0 + num.abs().max(grads[idx].abs())),
                "param {idx}: numeric {num} vs analytic {}",
                grads[idx]
            );
            checked += 1;
            idx = idx * 2 + 5;
        }
    }
}
