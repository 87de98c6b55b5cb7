//! Unified sequence-model interface over every architecture the paper's
//! Figure 6 ablation compares: linear regression, MLP, GRU, LSTM,
//! biLSTM, and a Transformer encoder.
//!
//! All models map a `T x in_dim` instruction window to a `d`-dimensional
//! representation, expose flat parameters for the optimizer, and provide
//! manual backward passes.

use crate::bilstm::{BiLstm, BiLstmBatchCache, BiLstmCache};
use crate::gru::{Gru, GruBatchCache, GruCache, GruState};
use crate::linear::LinearShape;
use crate::lstm::{Lstm, LstmBatchCache, LstmCache, LstmState};
use crate::mlp::{Mlp, MlpBatchCache, MlpCache};
use crate::tensor::{bm_to_seq, seq_to_bm};
use crate::transformer::{TransformerBatchCache, TransformerCache, TransformerEncoder};
use crate::window::{fill_windows, Window};

/// A sequence model (one of the Figure 6 architectures).
pub enum SeqModel {
    /// `Linear-1-d`: flatten the window, single linear map.
    Linear {
        /// The linear shape (over the flattened window).
        shape: LinearShape,
        /// Flat parameters.
        params: Vec<f32>,
        /// Window length the model was built for.
        window: usize,
    },
    /// `MLP-2-d`: flatten the window, two-layer perceptron.
    Mlp {
        /// Inner model.
        model: Mlp,
        /// Window length the model was built for.
        window: usize,
    },
    /// `LSTM-l-d` (the paper's default foundation model is `LSTM-2-256`).
    Lstm(Lstm),
    /// `biLSTM-l-d`.
    BiLstm(BiLstm),
    /// `GRU-l-d`.
    Gru(Gru),
    /// `Transformer-l-d`.
    Transformer(TransformerEncoder),
}

/// Recurrent state for the architectures that support one-step
/// streaming (stateful-by-construction models: LSTM and GRU).
///
/// Obtained from [`SeqModel::stream_state`] and advanced with
/// [`SeqModel::stream_step`]; window-only architectures (Linear, MLP,
/// biLSTM, Transformer) have no streaming state.
pub enum StreamState {
    /// LSTM hidden + cell state.
    Lstm(LstmState),
    /// GRU hidden state.
    Gru(GruState),
}

/// Opaque batched forward cache from [`SeqModel::forward_batch_cached`],
/// consumed by [`SeqModel::backward_batch`].
///
/// Every architecture retains lane-blocked batch-major activations —
/// there is exactly one batched code path per architecture, no
/// per-sequence fallback. (A linear map needs no activations beyond the
/// input, which the caller still holds.)
pub enum BatchCache {
    /// The linear model caches nothing (backward needs only the input).
    Linear,
    /// Batch-major MLP activations.
    Mlp(MlpBatchCache),
    /// Batch-major LSTM activations.
    Lstm(LstmBatchCache),
    /// Batch-major activations for both biLSTM direction stacks.
    BiLstm(BiLstmBatchCache),
    /// Batch-major GRU activations.
    Gru(GruBatchCache),
    /// Batch-major Transformer activations.
    Transformer(TransformerBatchCache),
}

impl BatchCache {
    /// Lane parts the batched forward ran as: 2 when a recurrent model
    /// ran its chunk as two lane halves on two threads (see
    /// [`crate::parallel::lane_split`]), else 1.
    pub fn lane_parts(&self) -> usize {
        match self {
            BatchCache::Lstm(c) | BatchCache::Gru(c) => c.lane_parts(),
            BatchCache::BiLstm(c) => c.lane_parts(),
            _ => 1,
        }
    }
}

/// Opaque forward cache matching the architecture.
pub enum SeqCache {
    /// No intermediate state needed.
    Linear,
    /// MLP activations.
    Mlp(MlpCache),
    /// LSTM activations.
    Lstm(LstmCache),
    /// biLSTM activations.
    BiLstm(BiLstmCache),
    /// GRU activations.
    Gru(GruCache),
    /// Transformer activations.
    Transformer(TransformerCache),
}

impl SeqModel {
    /// `Linear-1-d` over a fixed window.
    pub fn linear(in_dim: usize, out_dim: usize, window: usize, seed: u64) -> SeqModel {
        let shape = LinearShape::new(in_dim * window, out_dim, true);
        let mut params = vec![0.0f32; shape.param_len()];
        shape.init(&mut params, &mut crate::init::seeded_rng(seed));
        SeqModel::Linear {
            shape,
            params,
            window,
        }
    }

    /// `MLP-2-d` over a fixed window (`hidden` = d).
    pub fn mlp(in_dim: usize, out_dim: usize, window: usize, seed: u64) -> SeqModel {
        SeqModel::Mlp {
            model: Mlp::new(&[in_dim * window, out_dim, out_dim], seed),
            window,
        }
    }

    /// `LSTM-layers-d`.
    pub fn lstm(in_dim: usize, out_dim: usize, layers: usize, seed: u64) -> SeqModel {
        SeqModel::Lstm(Lstm::new(in_dim, out_dim, layers, seed))
    }

    /// `biLSTM-layers-d`.
    pub fn bilstm(in_dim: usize, out_dim: usize, layers: usize, seed: u64) -> SeqModel {
        SeqModel::BiLstm(BiLstm::new(in_dim, out_dim, layers, seed))
    }

    /// `GRU-layers-d`.
    pub fn gru(in_dim: usize, out_dim: usize, layers: usize, seed: u64) -> SeqModel {
        SeqModel::Gru(Gru::new(in_dim, out_dim, layers, seed))
    }

    /// `Transformer-layers-d` with [`SeqModel::transformer_heads`] heads.
    ///
    /// Panics when `out_dim` has no head count (it is odd).
    pub fn transformer(in_dim: usize, out_dim: usize, layers: usize, seed: u64) -> SeqModel {
        let heads = SeqModel::transformer_heads(out_dim).expect("Transformer width must be even");
        SeqModel::Transformer(TransformerEncoder::new(
            in_dim, out_dim, layers, heads, seed,
        ))
    }

    /// The attention heads of a width-`d` Transformer: 4 when `d` is a
    /// multiple of 4 and at least 16, else 2; `None` when `d` does not
    /// split evenly into them (an odd `d`).
    pub fn transformer_heads(d: usize) -> Option<usize> {
        let heads = if d.is_multiple_of(4) && d >= 16 { 4 } else { 2 };
        d.is_multiple_of(heads).then_some(heads)
    }

    /// A short architecture name in the paper's `Arch-layers-dim` format.
    pub fn describe(&self) -> String {
        match self {
            SeqModel::Linear { shape, .. } => format!("Linear-1-{}", shape.out_dim),
            SeqModel::Mlp { model, .. } => {
                format!("MLP-{}-{}", model.num_layers(), model.out_dim())
            }
            SeqModel::Lstm(m) => format!("LSTM-{}-{}", m.num_layers(), m.out_dim()),
            SeqModel::BiLstm(m) => format!("biLSTM-{}-{}", m.num_layers(), m.out_dim()),
            SeqModel::Gru(m) => format!("GRU-{}-{}", m.num_layers(), m.out_dim()),
            SeqModel::Transformer(m) => format!("Transformer-{}-{}", m.num_layers(), m.out_dim()),
        }
    }

    /// Representation dimensionality.
    pub fn out_dim(&self) -> usize {
        match self {
            SeqModel::Linear { shape, .. } => shape.out_dim,
            SeqModel::Mlp { model, .. } => model.out_dim(),
            SeqModel::Lstm(m) => m.out_dim(),
            SeqModel::BiLstm(m) => m.out_dim(),
            SeqModel::Gru(m) => m.out_dim(),
            SeqModel::Transformer(m) => m.out_dim(),
        }
    }

    /// Per-step input feature count.
    pub fn in_dim(&self) -> usize {
        match self {
            SeqModel::Linear { shape, window, .. } => shape.in_dim / window,
            SeqModel::Mlp { model, window } => model.in_dim() / window,
            SeqModel::Lstm(m) => m.in_dim(),
            SeqModel::BiLstm(m) => m.in_dim(),
            SeqModel::Gru(m) => m.in_dim(),
            SeqModel::Transformer(m) => m.in_dim(),
        }
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        match self {
            SeqModel::Linear { params, .. } => params.len(),
            SeqModel::Mlp { model, .. } => model.params().len(),
            SeqModel::Lstm(m) => m.params().len(),
            SeqModel::BiLstm(m) => m.num_params(),
            SeqModel::Gru(m) => m.params().len(),
            SeqModel::Transformer(m) => m.params().len(),
        }
    }

    /// Copy the flat parameter vector out.
    pub fn get_params(&self) -> Vec<f32> {
        match self {
            SeqModel::Linear { params, .. } => params.clone(),
            SeqModel::Mlp { model, .. } => model.params().to_vec(),
            SeqModel::Lstm(m) => m.params().to_vec(),
            SeqModel::BiLstm(m) => m.params(),
            SeqModel::Gru(m) => m.params().to_vec(),
            SeqModel::Transformer(m) => m.params().to_vec(),
        }
    }

    /// Overwrite parameters from a flat vector.
    pub fn set_params(&mut self, p: &[f32]) {
        match self {
            SeqModel::Linear { params, .. } => params.copy_from_slice(p),
            SeqModel::Mlp { model, .. } => model.params_mut().copy_from_slice(p),
            SeqModel::Lstm(m) => m.params_mut().copy_from_slice(p),
            SeqModel::BiLstm(m) => m.set_params(p),
            SeqModel::Gru(m) => m.params_mut().copy_from_slice(p),
            SeqModel::Transformer(m) => m.params_mut().copy_from_slice(p),
        }
    }

    /// Forward over a `t x in_dim` window; returns the representation
    /// and a cache for backward.
    pub fn forward(&self, xs: &[f32], t: usize) -> (Vec<f32>, SeqCache) {
        match self {
            SeqModel::Linear {
                shape,
                params,
                window,
            } => {
                debug_assert_eq!(t, *window, "linear window model has a fixed window");
                let mut y = vec![0.0f32; shape.out_dim];
                shape.forward(params, xs, &mut y);
                (y, SeqCache::Linear)
            }
            SeqModel::Mlp { model, window } => {
                debug_assert_eq!(t, *window);
                let (y, c) = model.forward(xs);
                (y, SeqCache::Mlp(c))
            }
            SeqModel::Lstm(m) => {
                let (y, c) = m.forward(xs, t);
                (y, SeqCache::Lstm(c))
            }
            SeqModel::BiLstm(m) => {
                let (y, c) = m.forward(xs, t);
                (y, SeqCache::BiLstm(c))
            }
            SeqModel::Gru(m) => {
                let (y, c) = m.forward(xs, t);
                (y, SeqCache::Gru(c))
            }
            SeqModel::Transformer(m) => {
                let (y, c) = m.forward(xs, t);
                (y, SeqCache::Transformer(c))
            }
        }
    }

    /// Backward; accumulates into `grads` (length [`Self::num_params`]).
    pub fn backward(&self, xs: &[f32], cache: &SeqCache, dout: &[f32], grads: &mut [f32]) {
        match (self, cache) {
            (SeqModel::Linear { shape, params, .. }, SeqCache::Linear) => {
                let mut dx = vec![0.0f32; shape.in_dim];
                shape.backward(params, xs, dout, grads, &mut dx);
            }
            (SeqModel::Mlp { model, .. }, SeqCache::Mlp(c)) => {
                model.backward(xs, c, dout, grads);
            }
            (SeqModel::Lstm(m), SeqCache::Lstm(c)) => m.backward(xs, c, dout, grads),
            (SeqModel::BiLstm(m), SeqCache::BiLstm(c)) => m.backward(xs, c, dout, grads),
            (SeqModel::Gru(m), SeqCache::Gru(c)) => m.backward(xs, c, dout, grads),
            (SeqModel::Transformer(m), SeqCache::Transformer(c)) => m.backward(xs, c, dout, grads),
            _ => panic!("cache does not match model architecture"),
        }
    }

    /// Batched forward over `batch` independent `t x in_dim` sequences.
    ///
    /// `xs` is sequence-major (`batch` consecutive `t x in_dim` blocks);
    /// the result is sequence-major (`batch x out_dim`). Every
    /// architecture runs all sequences in lockstep over batch-major
    /// buffers so each weight matrix is traversed once per use for the
    /// whole batch, with lane-blocked (vectorizable) inner loops — and
    /// each sequence's output is bit-identical to an independent
    /// `forward` call, so batching is invisible to results.
    pub fn forward_batch(&self, xs: &[f32], t: usize, batch: usize) -> Vec<f32> {
        debug_assert_eq!(xs.len(), batch * t * self.in_dim());
        match self {
            SeqModel::Linear { shape, params, .. } => {
                let mut x_bm = vec![0.0f32; shape.in_dim * batch];
                seq_to_bm(xs, &mut x_bm, shape.in_dim, batch);
                let mut y_bm = vec![0.0f32; shape.out_dim * batch];
                let mut acc = vec![0.0f32; batch];
                shape.forward_bm(params, &x_bm, &mut y_bm, batch, &mut acc);
                let mut out = vec![0.0f32; batch * shape.out_dim];
                bm_to_seq(&y_bm, &mut out, shape.out_dim, batch);
                out
            }
            SeqModel::Mlp { model, .. } => model.forward_batch(xs, batch),
            SeqModel::Lstm(m) => m.forward_batch(xs, t, batch),
            SeqModel::BiLstm(m) => m.forward_batch(xs, t, batch),
            SeqModel::Gru(m) => m.forward_batch(xs, t, batch),
            SeqModel::Transformer(m) => m.forward_batch(xs, t, batch),
        }
    }

    /// Batched forward over instruction windows: `windows[s]` names the
    /// `t`-step window ending at one row of a row-major feature matrix
    /// (see [`crate::window`]); the result is `windows.len() x out_dim`,
    /// sequence-major, each row bit-identical to [`SeqModel::forward`]
    /// on the filled window.
    ///
    /// LSTM and GRU project each distinct row of the block through
    /// their bottom layer's input weights once and run the recurrence
    /// from those columns; the other architectures fill the windows and
    /// run [`SeqModel::forward_batch`].
    pub fn forward_windows(&self, windows: &[Window<'_>], t: usize) -> Vec<f32> {
        if windows.is_empty() {
            return Vec::new();
        }
        match self {
            SeqModel::Lstm(m) => m.forward_windows(windows, t),
            SeqModel::Gru(m) => m.forward_windows(windows, t),
            _ => {
                let mut xs = Vec::new();
                fill_windows(windows, t, self.in_dim(), &mut xs);
                self.forward_batch(&xs, t, windows.len())
            }
        }
    }

    /// Batched forward that also retains the activations needed for
    /// [`SeqModel::backward_batch`] — the training twin of
    /// [`SeqModel::forward_batch`].
    ///
    /// Layouts match `forward_batch` (`xs` sequence-major, result
    /// sequence-major `batch x out_dim`), and every sequence's output
    /// is bit-identical to an independent [`SeqModel::forward`] call.
    /// Every architecture keeps lane-blocked batch-major caches.
    pub fn forward_batch_cached(
        &self,
        xs: &[f32],
        t: usize,
        batch: usize,
    ) -> (Vec<f32>, BatchCache) {
        match self {
            SeqModel::Linear { .. } => (self.forward_batch(xs, t, batch), BatchCache::Linear),
            SeqModel::Mlp { model, .. } => {
                let (out, c) = model.forward_batch_cached(xs, batch);
                (out, BatchCache::Mlp(c))
            }
            SeqModel::Lstm(m) => {
                let (out, c) = m.forward_batch_cached(xs, t, batch);
                (out, BatchCache::Lstm(c))
            }
            SeqModel::BiLstm(m) => {
                let (out, c) = m.forward_batch_cached(xs, t, batch);
                (out, BatchCache::BiLstm(c))
            }
            SeqModel::Gru(m) => {
                let (out, c) = m.forward_batch_cached(xs, t, batch);
                (out, BatchCache::Gru(c))
            }
            SeqModel::Transformer(m) => {
                let (out, c) = m.forward_batch_cached(xs, t, batch);
                (out, BatchCache::Transformer(c))
            }
        }
    }

    /// Batched backward: BPTT over all `batch` sequences from
    /// per-sequence upstream gradients `douts` (sequence-major
    /// `batch x out_dim`), accumulating into `grads`.
    ///
    /// The accumulated gradients are bit-identical to calling the
    /// scalar [`SeqModel::backward`] once per sequence, in batch order,
    /// into the same buffer — so a batched training step computes
    /// exactly the scalar step's gradient sum, only on batch-major
    /// (vectorizable, weight-reusing) kernels. Each recurrent cell's
    /// replay (the LSTM's, the GRU's and the biLSTM stacks') leaves out
    /// layer 0's zero input features and the `W_hh` update over the
    /// zero initial state, which needs `grads` to hold no −0.0 (zeroed
    /// or accumulated gradients never do; see
    /// [`crate::rnn::Recurrent::backward_batch`]).
    ///
    /// Panics if `cache` does not match the architecture.
    pub fn backward_batch(
        &self,
        xs: &[f32],
        t: usize,
        batch: usize,
        cache: &BatchCache,
        douts: &[f32],
        grads: &mut [f32],
    ) {
        debug_assert_eq!(douts.len(), batch * self.out_dim());
        match (self, cache) {
            (SeqModel::Linear { shape, .. }, BatchCache::Linear) => {
                // A linear map's whole backward IS parameter
                // accumulation (the input gradient is discarded), so the
                // scalar-order replay is the complete batched backward.
                debug_assert_eq!(xs.len(), batch * shape.in_dim);
                for s in 0..batch {
                    shape.backward_params(
                        &xs[s * shape.in_dim..(s + 1) * shape.in_dim],
                        &douts[s * shape.out_dim..(s + 1) * shape.out_dim],
                        grads,
                    );
                }
            }
            (SeqModel::Mlp { model, .. }, BatchCache::Mlp(c)) => {
                debug_assert_eq!(c.batch(), batch);
                model.backward_batch(xs, c, douts, grads);
            }
            (SeqModel::Lstm(m), BatchCache::Lstm(c)) => {
                debug_assert_eq!((c.t_steps(), c.batch()), (t, batch));
                m.backward_batch(xs, c, douts, grads);
            }
            (SeqModel::BiLstm(m), BatchCache::BiLstm(c)) => {
                debug_assert_eq!((c.t_steps(), c.batch()), (t, batch));
                m.backward_batch(xs, c, douts, grads);
            }
            (SeqModel::Gru(m), BatchCache::Gru(c)) => {
                debug_assert_eq!((c.t_steps(), c.batch()), (t, batch));
                m.backward_batch(xs, c, douts, grads);
            }
            (SeqModel::Transformer(m), BatchCache::Transformer(c)) => {
                debug_assert_eq!((c.t_steps(), c.batch()), (t, batch));
                m.backward_batch(xs, c, douts, grads);
            }
            _ => panic!("batch cache does not match model architecture"),
        }
    }

    /// Whether this architecture supports one-step streaming (a
    /// stateful recurrence: LSTM and GRU).
    pub fn supports_streaming(&self) -> bool {
        matches!(self, SeqModel::Lstm(_) | SeqModel::Gru(_))
    }

    /// Fresh zeroed streaming state, or `None` for window-only
    /// architectures.
    pub fn stream_state(&self) -> Option<StreamState> {
        match self {
            SeqModel::Lstm(m) => Some(StreamState::Lstm(m.zero_state())),
            SeqModel::Gru(m) => Some(StreamState::Gru(m.zero_state())),
            _ => None,
        }
    }

    /// One streaming step: feed `x` (length [`SeqModel::in_dim`]),
    /// update `state`, and write the representation into `out` (length
    /// [`SeqModel::out_dim`]).
    ///
    /// Panics if `state` does not match the architecture.
    pub fn stream_step(&self, state: &mut StreamState, x: &[f32], out: &mut [f32]) {
        match (self, state) {
            (SeqModel::Lstm(m), StreamState::Lstm(s)) => m.step(s, x, out),
            (SeqModel::Gru(m), StreamState::Gru(s)) => m.step(s, x, out),
            _ => panic!("stream state does not match model architecture"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_models(in_dim: usize, d: usize, window: usize) -> Vec<SeqModel> {
        vec![
            SeqModel::linear(in_dim, d, window, 1),
            SeqModel::mlp(in_dim, d, window, 2),
            SeqModel::lstm(in_dim, d, 2, 3),
            SeqModel::bilstm(in_dim, d, 1, 4),
            SeqModel::gru(in_dim, d, 2, 5),
            SeqModel::transformer(in_dim, d, 2, 6),
        ]
    }

    #[test]
    fn every_architecture_roundtrips_params() {
        for mut m in all_models(6, 8, 4) {
            let p = m.get_params();
            assert_eq!(p.len(), m.num_params(), "{}", m.describe());
            let mut p2 = p.clone();
            for v in &mut p2 {
                *v += 0.001;
            }
            m.set_params(&p2);
            assert_eq!(m.get_params(), p2, "{}", m.describe());
        }
    }

    #[test]
    fn every_architecture_produces_d_dimensional_output() {
        let (in_dim, d, w) = (6, 8, 4);
        let xs = vec![0.1f32; w * in_dim];
        for m in all_models(in_dim, d, w) {
            let (y, _) = m.forward(&xs, w);
            assert_eq!(y.len(), d, "{}", m.describe());
            assert!(y.iter().all(|v| v.is_finite()), "{}", m.describe());
        }
    }

    #[test]
    fn every_architecture_accumulates_gradients() {
        let (in_dim, d, w) = (5, 8, 3);
        let xs = vec![0.2f32; w * in_dim];
        // The probe gradient must vary across features: a uniform dout
        // is in the null space of post-LN architectures (the sum of a
        // LayerNorm's outputs is the constant sum(beta) when gamma is
        // uniform), which would make the transformer's upstream
        // gradients *exactly* zero rather than reveal a bug.
        let dout: Vec<f32> = (0..d)
            .map(|k| if k % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        for m in all_models(in_dim, d, w) {
            let (_, cache) = m.forward(&xs, w);
            let mut grads = vec![0.0f32; m.num_params()];
            m.backward(&xs, &cache, &dout, &mut grads);
            let nonzero = grads.iter().filter(|g| **g != 0.0).count();
            assert!(
                nonzero > grads.len() / 10,
                "{}: only {nonzero}/{} gradient entries nonzero",
                m.describe(),
                grads.len()
            );
        }
    }

    #[test]
    fn describe_uses_paper_naming() {
        assert_eq!(SeqModel::lstm(51, 256, 2, 0).describe(), "LSTM-2-256");
        assert_eq!(SeqModel::linear(51, 256, 16, 0).describe(), "Linear-1-256");
        assert_eq!(
            SeqModel::transformer(51, 32, 2, 0).describe(),
            "Transformer-2-32"
        );
        assert_eq!(SeqModel::bilstm(51, 64, 2, 0).describe(), "biLSTM-2-64");
        assert_eq!(SeqModel::gru(51, 32, 3, 0).describe(), "GRU-3-32");
    }

    #[test]
    fn exactly_the_recurrent_architectures_stream() {
        for m in all_models(4, 8, 3) {
            let expect = matches!(m, SeqModel::Lstm(_) | SeqModel::Gru(_));
            assert_eq!(m.supports_streaming(), expect, "{}", m.describe());
            assert_eq!(m.stream_state().is_some(), expect, "{}", m.describe());
        }
    }

    #[test]
    fn stream_steps_match_windowed_forward_for_recurrent_models() {
        let (in_dim, d, t) = (5, 8, 6);
        let xs: Vec<f32> = (0..t * in_dim)
            .map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.07)
            .collect();
        for m in [
            SeqModel::lstm(in_dim, d, 2, 3),
            SeqModel::gru(in_dim, d, 2, 5),
        ] {
            let (win, _) = m.forward(&xs, t);
            let mut state = m.stream_state().unwrap();
            let mut out = vec![0.0f32; d];
            for step in 0..t {
                m.stream_step(
                    &mut state,
                    &xs[step * in_dim..(step + 1) * in_dim],
                    &mut out,
                );
            }
            assert_eq!(win, out, "{}", m.describe());
        }
    }
}
