//! Long short-term memory layers — the paper's default foundation-model
//! architecture (a 2-layer unidirectional LSTM, Section III-D).
//!
//! Provides full-sequence forward/backward (training) and a stateful
//! streaming step (fast trace-wide representation generation).

use crate::init::seeded_rng;
use crate::parallel::lane_split;
use crate::window::{Columns, InputWeights, Window};
use std::panic::resume_unwind;
use std::sync::{Barrier, OnceLock};
// The fast activations are deliberate: every path (scalar step,
// full-sequence forward, batched forward, backward's cell-tanh
// recomputation) must call the *same* straight-line-arithmetic
// functions so batched inference stays bit-identical to scalar
// inference while its inner loops vectorize (see `tensor::tanh_apx`).
use crate::tensor::{
    for_lane_chunks, gemm_bm_acc, gemm_bm_t_acc, gemv_acc, gemv_t_acc, outer_acc, outer_acc_seq,
    outer_acc_sparse, sigmoid_apx, tanh_apx, Nonzeros,
};

/// Shape of one LSTM layer with input size `in_dim` and hidden size `h`.
///
/// Flat parameter layout: `[W_ih (4h x in) | W_hh (4h x h) | b (4h)]`,
/// with gate order `i, f, g, o`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LstmLayerShape {
    /// Input features per step.
    pub in_dim: usize,
    /// Hidden size.
    pub hidden: usize,
}

/// Per-layer forward activations retained for backward.
#[derive(Debug, Clone)]
pub struct LstmLayerCache {
    /// Post-activation gates per step: `T x 4h` (`i, f, g, o`).
    pub gates: Vec<f32>,
    /// Cell states per step: `T x h`.
    pub cells: Vec<f32>,
    /// Hidden states per step: `T x h` (inputs to the next layer).
    pub hs: Vec<f32>,
}

impl LstmLayerShape {
    /// Number of parameters.
    pub fn param_len(&self) -> usize {
        4 * self.hidden * (self.in_dim + self.hidden) + 4 * self.hidden
    }

    fn split<'a>(&self, w: &'a [f32]) -> (&'a [f32], &'a [f32], &'a [f32]) {
        let (h, i) = (self.hidden, self.in_dim);
        let (w_ih, rest) = w.split_at(4 * h * i);
        let (w_hh, b) = rest.split_at(4 * h * h);
        (w_ih, w_hh, b)
    }

    fn split_mut<'a>(&self, w: &'a mut [f32]) -> (&'a mut [f32], &'a mut [f32], &'a mut [f32]) {
        let (h, i) = (self.hidden, self.in_dim);
        let (w_ih, rest) = w.split_at_mut(4 * h * i);
        let (w_hh, b) = rest.split_at_mut(4 * h * h);
        (w_ih, w_hh, b)
    }

    /// Initialize parameters (Xavier weights, zero bias except the
    /// forget gate, which starts at 1.0 per standard practice).
    pub fn init(&self, w: &mut [f32], rng: &mut rand::rngs::StdRng) {
        let h = self.hidden;
        let (w_ih, w_hh, b) = self.split_mut(w);
        crate::init::xavier_uniform(w_ih, self.in_dim, 4 * h, rng);
        crate::init::xavier_uniform(w_hh, h, 4 * h, rng);
        b.fill(0.0);
        b[h..2 * h].fill(1.0); // forget-gate bias
    }

    /// One streaming step: updates `(h_state, c_state)` from input `x`.
    pub fn step(&self, w: &[f32], x: &[f32], h_state: &mut [f32], c_state: &mut [f32]) {
        let h = self.hidden;
        let (w_ih, w_hh, b) = self.split(w);
        let mut z = b.to_vec();
        gemv_acc(w_ih, x, &mut z, 4 * h, self.in_dim);
        gemv_acc(w_hh, h_state, &mut z, 4 * h, h);
        for k in 0..h {
            let ig = sigmoid_apx(z[k]);
            let fg = sigmoid_apx(z[h + k]);
            let gg = tanh_apx(z[2 * h + k]);
            let og = sigmoid_apx(z[3 * h + k]);
            let c = fg * c_state[k] + ig * gg;
            c_state[k] = c;
            h_state[k] = og * tanh_apx(c);
        }
    }

    /// Full-sequence forward: `xs` is `T x in_dim`; returns the cache
    /// (which contains all hidden states).
    pub fn forward(&self, w: &[f32], xs: &[f32], t_steps: usize) -> LstmLayerCache {
        let h = self.hidden;
        let (w_ih, w_hh, b) = self.split(w);
        let mut cache = LstmLayerCache {
            gates: vec![0.0; t_steps * 4 * h],
            cells: vec![0.0; t_steps * h],
            hs: vec![0.0; t_steps * h],
        };
        let mut h_prev = vec![0.0f32; h];
        let mut c_prev = vec![0.0f32; h];
        for t in 0..t_steps {
            let x = &xs[t * self.in_dim..(t + 1) * self.in_dim];
            let mut z = b.to_vec();
            gemv_acc(w_ih, x, &mut z, 4 * h, self.in_dim);
            gemv_acc(w_hh, &h_prev, &mut z, 4 * h, h);
            let gates = &mut cache.gates[t * 4 * h..(t + 1) * 4 * h];
            let cells = &mut cache.cells[t * h..(t + 1) * h];
            let hs = &mut cache.hs[t * h..(t + 1) * h];
            for k in 0..h {
                let ig = sigmoid_apx(z[k]);
                let fg = sigmoid_apx(z[h + k]);
                let gg = tanh_apx(z[2 * h + k]);
                let og = sigmoid_apx(z[3 * h + k]);
                let c = fg * c_prev[k] + ig * gg;
                gates[k] = ig;
                gates[h + k] = fg;
                gates[2 * h + k] = gg;
                gates[3 * h + k] = og;
                cells[k] = c;
                hs[k] = og * tanh_apx(c);
            }
            h_prev.copy_from_slice(hs);
            c_prev.copy_from_slice(cells);
        }
        cache
    }

    /// Full-sequence backward.
    ///
    /// `dh` is `T x h`: the gradient w.r.t. each step's hidden output
    /// injected from above (consumed in place). Parameter gradients are
    /// accumulated into `grads`; input gradients into `dxs` (`T x in`)
    /// when given (the bottom layer's input gradient has no reader).
    #[allow(clippy::too_many_arguments)]
    pub fn backward(
        &self,
        w: &[f32],
        xs: &[f32],
        t_steps: usize,
        cache: &LstmLayerCache,
        dh: &mut [f32],
        grads: &mut [f32],
        mut dxs: Option<&mut [f32]>,
    ) {
        let h = self.hidden;
        let i_dim = self.in_dim;
        let (w_ih, w_hh, _) = self.split(w);
        let wn_ih = 4 * h * i_dim;
        let wn_hh = 4 * h * h;
        let (g_ih, rest) = grads.split_at_mut(wn_ih);
        let (g_hh, g_b) = rest.split_at_mut(wn_hh);

        let mut dc_next = vec![0.0f32; h];
        let mut dh_rec = vec![0.0f32; h];
        let mut dz = vec![0.0f32; 4 * h];
        for t in (0..t_steps).rev() {
            let gates = &cache.gates[t * 4 * h..(t + 1) * 4 * h];
            let cells = &cache.cells[t * h..(t + 1) * h];
            let c_prev: &[f32] = if t == 0 {
                &[]
            } else {
                &cache.cells[(t - 1) * h..t * h]
            };
            let h_prev: &[f32] = if t == 0 {
                &[]
            } else {
                &cache.hs[(t - 1) * h..t * h]
            };
            // total dh at step t = injected + recurrent
            let dh_t = &mut dh[t * h..(t + 1) * h];
            for (d, r) in dh_t.iter_mut().zip(&dh_rec) {
                *d += r;
            }
            for k in 0..h {
                let ig = gates[k];
                let fg = gates[h + k];
                let gg = gates[2 * h + k];
                let og = gates[3 * h + k];
                let tc = tanh_apx(cells[k]);
                let dh_k = dh_t[k];
                let mut dc = dc_next[k] + dh_k * og * (1.0 - tc * tc);
                let d_o = dh_k * tc;
                let d_i = dc * gg;
                let d_g = dc * ig;
                let cp = if t == 0 { 0.0 } else { c_prev[k] };
                let d_f = dc * cp;
                dc *= fg;
                dc_next[k] = dc;
                dz[k] = d_i * ig * (1.0 - ig);
                dz[h + k] = d_f * fg * (1.0 - fg);
                dz[2 * h + k] = d_g * (1.0 - gg * gg);
                dz[3 * h + k] = d_o * og * (1.0 - og);
            }
            let x = &xs[t * i_dim..(t + 1) * i_dim];
            outer_acc(g_ih, &dz, x);
            for (g, &d) in g_b.iter_mut().zip(&dz) {
                *g += d;
            }
            if let Some(dxs) = dxs.as_deref_mut() {
                gemv_t_acc(
                    w_ih,
                    &dz,
                    &mut dxs[t * i_dim..(t + 1) * i_dim],
                    4 * h,
                    i_dim,
                );
            }
            dh_rec.fill(0.0);
            if t > 0 {
                outer_acc(g_hh, &dz, h_prev);
                gemv_t_acc(w_hh, &dz, &mut dh_rec, 4 * h, h);
            }
        }
    }
}

/// One LSTM gate-activation chunk of compile-time width `L` (all
/// slices have length `L`). The element math is exactly the scalar
/// path's: `i,f,g,o` gates through the shared fast activations, then
/// `c = f·c + i·g`, `h = o·tanh(c)`.
#[inline]
fn gates_chunk<const L: usize>(
    zi: &[f32],
    zf: &[f32],
    zg: &[f32],
    zo: &[f32],
    c_row: &mut [f32],
    h_row: &mut [f32],
) {
    for s in 0..L {
        let ig = sigmoid_apx(zi[s]);
        let fg = sigmoid_apx(zf[s]);
        let gg = tanh_apx(zg[s]);
        let og = sigmoid_apx(zo[s]);
        let c = fg * c_row[s] + ig * gg;
        c_row[s] = c;
        h_row[s] = og * tanh_apx(c);
    }
}

/// One LSTM gate-activation chunk that also records the post-activation
/// gates (the training variant of [`gates_chunk`]): element math is
/// identical, `c_prev` is read separately from the written `c_new`
/// (the cache keeps every timestep), and the four gate rows are stored
/// for backward.
#[allow(clippy::too_many_arguments)]
#[inline]
fn gates_chunk_cached<const L: usize>(
    zi: &[f32],
    zf: &[f32],
    zg: &[f32],
    zo: &[f32],
    c_prev: &[f32],
    c_new: &mut [f32],
    h_new: &mut [f32],
    gi: &mut [f32],
    gf: &mut [f32],
    gg_row: &mut [f32],
    go: &mut [f32],
) {
    for s in 0..L {
        let ig = sigmoid_apx(zi[s]);
        let fg = sigmoid_apx(zf[s]);
        let gg = tanh_apx(zg[s]);
        let og = sigmoid_apx(zo[s]);
        let c = fg * c_prev[s] + ig * gg;
        gi[s] = ig;
        gf[s] = fg;
        gg_row[s] = gg;
        go[s] = og;
        c_new[s] = c;
        h_new[s] = og * tanh_apx(c);
    }
}

/// One batch-major LSTM backward chunk of compile-time width `L`: the
/// per-element math is exactly [`LstmLayerShape::backward`]'s gate
/// loop, applied lane-wise (each lane follows the scalar operation
/// sequence, so batched deltas are bit-identical per sequence).
#[allow(clippy::too_many_arguments)]
#[inline]
fn lstm_bwd_chunk<const L: usize>(
    gi: &[f32],
    gf: &[f32],
    gg: &[f32],
    go: &[f32],
    cl: &[f32],
    cp: &[f32],
    dht: &[f32],
    dcn: &mut [f32],
    dzi: &mut [f32],
    dzf: &mut [f32],
    dzg: &mut [f32],
    dzo: &mut [f32],
) {
    for s in 0..L {
        let ig = gi[s];
        let fg = gf[s];
        let ggv = gg[s];
        let og = go[s];
        let tc = tanh_apx(cl[s]);
        let dh_k = dht[s];
        let mut dc = dcn[s] + dh_k * og * (1.0 - tc * tc);
        let d_o = dh_k * tc;
        let d_i = dc * ggv;
        let d_g = dc * ig;
        let d_f = dc * cp[s];
        dc *= fg;
        dcn[s] = dc;
        dzi[s] = d_i * ig * (1.0 - ig);
        dzf[s] = d_f * fg * (1.0 - fg);
        dzg[s] = d_g * (1.0 - ggv * ggv);
        dzo[s] = d_o * og * (1.0 - og);
    }
}

/// Batch-major forward activations of one LSTM layer, retained for the
/// batched backward pass. Row `r` of step `t` lives at
/// `t * rows * batch + r * batch + s` for sequence `s` (the same
/// lane-blocked layout the batched kernels compute in).
#[derive(Debug, Clone)]
pub struct LstmLayerBatchCache {
    /// `T x 4h x batch`: post-activation gates (`i, f, g, o`).
    pub gates: Vec<f32>,
    /// `T x h x batch`: cell states.
    pub cells: Vec<f32>,
    /// `T x h x batch`: hidden states (inputs to the next layer).
    pub hs: Vec<f32>,
}

/// The activations of one lane part of a batched pass: lanes
/// `start..start + batch` of the caller's batch, laid out exactly as a
/// standalone batch of those lanes.
#[derive(Debug, Clone)]
struct LanePart {
    start: usize,
    batch: usize,
    layers: Vec<LstmLayerBatchCache>,
}

/// Forward cache for [`Lstm::forward_batch_cached`].
#[derive(Debug, Clone)]
pub struct LstmBatchCache {
    /// One lane part, or two when the pass ran as two lane halves.
    parts: Vec<LanePart>,
    t_steps: usize,
    batch: usize,
}

impl LstmBatchCache {
    /// Number of timesteps the cache covers.
    pub fn t_steps(&self) -> usize {
        self.t_steps
    }

    /// Number of sequences in the batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Lane parts the forward pass ran as: 2 when it ran as two lane
    /// halves on two threads (see [`lane_split`]), else 1.
    pub fn lane_parts(&self) -> usize {
        self.parts.len()
    }
}

/// What one lane part's delta recursion leaves for the parameter
/// replay, indexed by layer: the pre-activation deltas and the hidden
/// states, sequence-major (`batch x T x h`). The deltas are
/// `T x 4h x batch`, except layer 0's: sequence-major (`batch x T x 4h`)
/// for its sparse `W_ih` replay, which also reads the nonzero features
/// of the part's inputs, one list per feature (`x0`, entry
/// `(s * T + t, x)` in the canonical order: sequence ascending,
/// timestep descending).
struct PartDeltas {
    dz: Vec<Vec<f32>>,
    hs: Vec<Vec<f32>>,
    x0: Nonzeros,
}

/// A layer's input, as its `W_ih` replay reads it.
enum ReplayInput<'a> {
    /// Sequence-major `batch x T x in_dim`, replayed densely; the
    /// deltas are `T x 4h x batch`.
    Dense(&'a [f32]),
    /// Layer 0: [`PartDeltas`]'s `x0`; the deltas are sequence-major.
    Sparse(&'a Nonzeros),
}

/// One thread's share of a layer's parameter gradients: gate rows
/// `first..first + b.len()` of `W_ih`, `W_hh` and `b`.
struct GradRows<'a> {
    first: usize,
    ih: &'a mut [f32],
    hh: &'a mut [f32],
    b: &'a mut [f32],
}

impl LstmLayerShape {
    /// Split a layer's gradient buffer into gate rows `..mid` and `mid..`.
    fn grad_rows<'a>(&self, g: &'a mut [f32], mid: usize) -> (GradRows<'a>, GradRows<'a>) {
        let (ih, hh, b) = self.split_mut(g);
        let (ih0, ih1) = ih.split_at_mut(mid * self.in_dim);
        let (hh0, hh1) = hh.split_at_mut(mid * self.hidden);
        let (b0, b1) = b.split_at_mut(mid);
        (
            GradRows {
                first: 0,
                ih: ih0,
                hh: hh0,
                b: b0,
            },
            GradRows {
                first: mid,
                ih: ih1,
                hh: hh1,
                b: b1,
            },
        )
    }

    /// Batch-major delta recursion over a [`LstmLayerBatchCache`] (the
    /// lockstep mirror of the recursion in [`LstmLayerShape::backward`]).
    ///
    /// `dh` is `T x h x batch` (consumed in place); input gradients are
    /// accumulated into `dxs` (`T x in x batch`) when given. Returns
    /// every timestep's pre-activation deltas for
    /// [`LstmLayerShape::replay_rows`]: `T x 4h x batch`, or with
    /// `seq_major` `batch x T x 4h` (one contiguous delta vector per
    /// update, transposed a step at a time while the step is in cache).
    /// Lane deltas follow the scalar operation sequence exactly.
    #[allow(clippy::too_many_arguments)]
    fn deltas_batch(
        &self,
        w: &[f32],
        t_steps: usize,
        batch: usize,
        cache: &LstmLayerBatchCache,
        dh: &mut [f32],
        mut dxs: Option<&mut [f32]>,
        seq_major: bool,
    ) -> Vec<f32> {
        let h = self.hidden;
        let i_dim = self.in_dim;
        let (w_ih, w_hh, _) = self.split(w);
        let mut dc_next = vec![0.0f32; h * batch];
        let mut dh_rec = vec![0.0f32; h * batch];
        let rows = 4 * h;
        let mut dzs = vec![0.0f32; t_steps * rows * batch];
        let mut step_dz = vec![0.0f32; if seq_major { rows * batch } else { 0 }];
        let zero_row = vec![0.0f32; batch];
        for t in (0..t_steps).rev() {
            let gates = &cache.gates[t * 4 * h * batch..(t + 1) * 4 * h * batch];
            let cells = &cache.cells[t * h * batch..(t + 1) * h * batch];
            let dh_t = &mut dh[t * h * batch..(t + 1) * h * batch];
            for (d, r) in dh_t.iter_mut().zip(&dh_rec) {
                *d += r;
            }
            let dz = if seq_major {
                &mut step_dz[..]
            } else {
                &mut dzs[t * rows * batch..(t + 1) * rows * batch]
            };
            let (dz_i, dz_rest) = dz.split_at_mut(h * batch);
            let (dz_f, dz_rest) = dz_rest.split_at_mut(h * batch);
            let (dz_g, dz_o) = dz_rest.split_at_mut(h * batch);
            for k in 0..h {
                let row = |r: usize| &gates[r * batch..(r + 1) * batch];
                let (gi, gf, gg, go) = (row(k), row(h + k), row(2 * h + k), row(3 * h + k));
                let cl = &cells[k * batch..(k + 1) * batch];
                let cp: &[f32] = if t == 0 {
                    &zero_row
                } else {
                    &cache.cells
                        [(t - 1) * h * batch + k * batch..(t - 1) * h * batch + (k + 1) * batch]
                };
                let dht = &dh_t[k * batch..(k + 1) * batch];
                let dcn = &mut dc_next[k * batch..(k + 1) * batch];
                let dzi = &mut dz_i[k * batch..(k + 1) * batch];
                let dzf = &mut dz_f[k * batch..(k + 1) * batch];
                let dzg = &mut dz_g[k * batch..(k + 1) * batch];
                let dzo = &mut dz_o[k * batch..(k + 1) * batch];
                for_lane_chunks!(batch, s, LW => lstm_bwd_chunk::<LW>(
                    &gi[s..s + LW],
                    &gf[s..s + LW],
                    &gg[s..s + LW],
                    &go[s..s + LW],
                    &cl[s..s + LW],
                    &cp[s..s + LW],
                    &dht[s..s + LW],
                    &mut dcn[s..s + LW],
                    &mut dzi[s..s + LW],
                    &mut dzf[s..s + LW],
                    &mut dzg[s..s + LW],
                    &mut dzo[s..s + LW],
                ));
            }
            if let Some(dxs) = dxs.as_deref_mut() {
                gemm_bm_t_acc(
                    w_ih,
                    dz,
                    &mut dxs[t * i_dim * batch..(t + 1) * i_dim * batch],
                    4 * h,
                    i_dim,
                    batch,
                );
            }
            dh_rec.fill(0.0);
            if t > 0 {
                gemm_bm_t_acc(w_hh, dz, &mut dh_rec, 4 * h, h, batch);
            }
            if seq_major {
                for s in 0..batch {
                    let at = (s * t_steps + t) * rows;
                    for (r, d) in dzs[at..at + rows].iter_mut().enumerate() {
                        *d = step_dz[r * batch + s];
                    }
                }
            }
        }
        dzs
    }

    /// Accumulate one lane part's parameter gradients for the gate rows
    /// of `g`, given the part's deltas from
    /// [`LstmLayerShape::deltas_batch`], its layer inputs `x` and its
    /// hidden states `hs` (sequence-major, `batch x T x h`): per
    /// sequence (ascending), per timestep (descending), exactly the
    /// scalar path's rank-1 updates ([`outer_acc`] order, zero-skip
    /// included, replayed by [`outer_acc_seq`]) and bias adds. A sparse
    /// input leaves out the `W_ih` terms of its zero features
    /// ([`outer_acc_sparse`], exact while no `W_ih` gradient entry
    /// starts at −0.0).
    ///
    /// Every gradient entry is its own accumulation chain, so replaying
    /// a subset of the rows, or the lane parts one after the other,
    /// leaves each entry bit-identical to the scalar backward run once
    /// per sequence in batch order.
    fn replay_rows(
        &self,
        x: ReplayInput<'_>,
        hs: &[f32],
        t_steps: usize,
        batch: usize,
        dzs: &[f32],
        g: &mut GradRows<'_>,
    ) {
        let (h, i_dim) = (self.hidden, self.in_dim);
        // Update (s, t) reads delta row `r` at `dz_at(s, t) + r * stride`.
        let seq_major = matches!(x, ReplayInput::Sparse(_));
        let stride = if seq_major { 1 } else { batch };
        let dz_at = |s: usize, t: usize| {
            if seq_major {
                (s * t_steps + t) * 4 * h + g.first
            } else {
                (t * 4 * h + g.first) * batch + s
            }
        };
        let mut ih_items = Vec::with_capacity(batch * t_steps);
        let mut hh_items = Vec::with_capacity(batch * t_steps);
        for s in 0..batch {
            for t in (0..t_steps).rev() {
                ih_items.push((dz_at(s, t), (s * t_steps + t) * i_dim));
                if t > 0 {
                    hh_items.push((dz_at(s, t), (s * t_steps + t - 1) * h));
                }
            }
        }
        match x {
            ReplayInput::Dense(xs) => outer_acc_seq(g.ih, i_dim, &ih_items, dzs, batch, xs),
            ReplayInput::Sparse(x) => outer_acc_sparse(g.ih, i_dim, x, &dzs[g.first..], 4 * h),
        }
        outer_acc_seq(g.hh, h, &hh_items, dzs, stride, hs);
        // Eight bias rows per pass keep eight independent chains busy.
        for (r8, gb) in g.b.chunks_mut(8).enumerate() {
            let mut acc = [0.0f32; 8];
            let acc = &mut acc[..gb.len()];
            acc.copy_from_slice(gb);
            for &(a, _) in &ih_items {
                let a = a + r8 * 8 * stride;
                for (ri, v) in acc.iter_mut().enumerate() {
                    *v += dzs[a + ri * stride];
                }
            }
            gb.copy_from_slice(acc);
        }
    }
}

/// Streaming hidden state for a multi-layer LSTM.
#[derive(Debug, Clone)]
pub struct LstmState {
    /// Per-layer hidden vectors.
    pub h: Vec<Vec<f32>>,
    /// Per-layer cell vectors.
    pub c: Vec<Vec<f32>>,
}

impl LstmState {
    /// Reset all state to zero.
    pub fn reset(&mut self) {
        for v in self.h.iter_mut().chain(self.c.iter_mut()) {
            v.fill(0.0);
        }
    }
}

/// Multi-layer unidirectional LSTM with contiguous parameters.
#[derive(Debug, Clone)]
pub struct Lstm {
    layers: Vec<LstmLayerShape>,
    params: Vec<f32>,
}

/// Forward cache for [`Lstm::forward`].
#[derive(Debug, Clone)]
pub struct LstmCache {
    layer_caches: Vec<LstmLayerCache>,
    t_steps: usize,
}

impl Lstm {
    /// Build an `n_layers`-deep LSTM mapping `in_dim` inputs to a
    /// `hidden`-dimensional final state.
    pub fn new(in_dim: usize, hidden: usize, n_layers: usize, seed: u64) -> Lstm {
        assert!(n_layers >= 1);
        let mut layers = Vec::with_capacity(n_layers);
        for l in 0..n_layers {
            layers.push(LstmLayerShape {
                in_dim: if l == 0 { in_dim } else { hidden },
                hidden,
            });
        }
        let total: usize = layers.iter().map(|l| l.param_len()).sum();
        let mut params = vec![0.0f32; total];
        let mut rng = seeded_rng(seed);
        let mut off = 0;
        for l in &layers {
            l.init(&mut params[off..off + l.param_len()], &mut rng);
            off += l.param_len();
        }
        Lstm { layers, params }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output (hidden) dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().hidden
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Flat parameters.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Flat parameters, mutable (for the optimizer).
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    fn layer_param(&self, l: usize) -> &[f32] {
        let off: usize = self.layers[..l].iter().map(|s| s.param_len()).sum();
        &self.params[off..off + self.layers[l].param_len()]
    }

    /// Fresh zeroed streaming state.
    pub fn zero_state(&self) -> LstmState {
        LstmState {
            h: self.layers.iter().map(|l| vec![0.0; l.hidden]).collect(),
            c: self.layers.iter().map(|l| vec![0.0; l.hidden]).collect(),
        }
    }

    /// One streaming step: feed `x`, update `state`, and write the top
    /// layer's hidden vector into `out`.
    pub fn step(&self, state: &mut LstmState, x: &[f32], out: &mut [f32]) {
        let mut input = x.to_vec();
        for (l, shape) in self.layers.iter().enumerate() {
            let w = self.layer_param(l);
            let (hs, cs) = (&mut state.h[l], &mut state.c[l]);
            shape.step(w, &input, hs, cs);
            input.clear();
            input.extend_from_slice(hs);
        }
        out.copy_from_slice(&input);
    }

    /// Full-sequence forward over `xs` (`T x in_dim`); returns the final
    /// hidden vector and the cache for backward.
    pub fn forward(&self, xs: &[f32], t_steps: usize) -> (Vec<f32>, LstmCache) {
        let mut layer_caches = Vec::with_capacity(self.layers.len());
        let mut input: Vec<f32> = xs.to_vec();
        for (l, shape) in self.layers.iter().enumerate() {
            let cache = shape.forward(self.layer_param(l), &input, t_steps);
            input = cache.hs.clone();
            layer_caches.push(cache);
        }
        let h = self.out_dim();
        let out = input[(t_steps - 1) * h..t_steps * h].to_vec();
        (
            out,
            LstmCache {
                layer_caches,
                t_steps,
            },
        )
    }

    /// Batched full-sequence forward over `batch` independent sequences
    /// in lockstep.
    ///
    /// `xs` is sequence-major (`batch` consecutive `t_steps x in_dim`
    /// blocks); the result is sequence-major (`batch x hidden`). All
    /// sequences advance one timestep at a time, so each weight matrix
    /// is traversed once per timestep for the whole batch (see
    /// [`gemm_bm_acc`]) instead of once per sequence — the inference
    /// server's micro-batching win. Every sequence's arithmetic is
    /// performed in exactly the order of [`Lstm::forward`], so each
    /// output is bit-identical to an independent `forward` call.
    pub fn forward_batch(&self, xs: &[f32], t_steps: usize, batch: usize) -> Vec<f32> {
        assert!(batch >= 1);
        self.recur(
            &Columns::every_slot(xs, t_steps, batch, self.in_dim()),
            t_steps,
        )
    }

    /// [`Lstm::forward_batch`] over `windows` of `t_steps` steps each
    /// (see [`crate::window`]), without copying them out: each distinct
    /// row is projected through layer 0's input weights once, and every
    /// window containing it reads the projected column. Each output is
    /// bit-identical to [`Lstm::forward`] on the filled window.
    pub(crate) fn forward_windows(&self, windows: &[Window<'_>], t_steps: usize) -> Vec<f32> {
        assert!(!windows.is_empty());
        self.recur(&Columns::distinct(windows, t_steps, self.in_dim()), t_steps)
    }

    /// The batched recurrence over layer-0 input columns `cols`.
    ///
    /// Per lane, a scalar step computes `z = (b + W_ih x) + W_hh h`,
    /// each product sum its own chain from +0.0. Layer 0's `b + W_ih x`
    /// is [`Columns::project`]ed once per column and gathered per step,
    /// which is that chain's exact prefix. At `t = 0`, where `h` is
    /// zero, the `W_hh h` term is skipped: with finite weights it is
    /// +0.0, and `z` is never −0.0 (in round-to-nearest a sum is −0.0
    /// only when both terms are, and the product sum starts from +0.0),
    /// so adding it changes no bit.
    fn recur(&self, cols: &Columns<'_>, t_steps: usize) -> Vec<f32> {
        let batch = cols.batch;
        // Batch-major per-layer states: entry `k * batch + s`.
        let mut h_st: Vec<Vec<f32>> = self
            .layers
            .iter()
            .map(|l| vec![0.0f32; l.hidden * batch])
            .collect();
        let mut c_st = h_st.clone();
        let h_max = self.layers.iter().map(|l| l.hidden).max().unwrap();
        let proj = cols.project(&self.input_weights());
        let mut z = vec![0.0f32; 4 * h_max * batch];
        let mut acc = vec![0.0f32; batch];
        for t in 0..t_steps {
            for (l, shape) in self.layers.iter().enumerate() {
                let h = shape.hidden;
                let (w_ih, w_hh, b) = shape.split(self.layer_param(l));
                let z = &mut z[..4 * h * batch];
                let (below, cur_h) = h_st.split_at_mut(l);
                if l == 0 {
                    cols.gather(&proj, 4 * h, t, z);
                } else {
                    for (r, &bv) in b.iter().enumerate() {
                        z[r * batch..(r + 1) * batch].fill(bv);
                    }
                    gemm_bm_acc(w_ih, &below[l - 1], z, 4 * h, shape.in_dim, batch, &mut acc);
                }
                if t > 0 {
                    gemm_bm_acc(w_hh, &cur_h[0], z, 4 * h, h, batch, &mut acc);
                }
                let (h_cur, c_cur) = (&mut cur_h[0], &mut c_st[l]);
                // Per-k row slices, processed in fixed-width chunks:
                // the const-width inner body reliably compiles to SIMD
                // (a runtime-trip-count loop over this much straight-
                // line math does not survive every pass pipeline). The
                // math per element is identical at every width, so
                // results never depend on the chunking.
                for k in 0..h {
                    let zi = &z[k * batch..(k + 1) * batch];
                    let zf = &z[(h + k) * batch..(h + k + 1) * batch];
                    let zg = &z[(2 * h + k) * batch..(2 * h + k + 1) * batch];
                    let zo = &z[(3 * h + k) * batch..(3 * h + k + 1) * batch];
                    let c_row = &mut c_cur[k * batch..(k + 1) * batch];
                    let h_row = &mut h_cur[k * batch..(k + 1) * batch];
                    for_lane_chunks!(batch, s, LW => gates_chunk::<LW>(
                        &zi[s..s + LW],
                        &zf[s..s + LW],
                        &zg[s..s + LW],
                        &zo[s..s + LW],
                        &mut c_row[s..s + LW],
                        &mut h_row[s..s + LW],
                    ));
                }
            }
        }
        let d = self.out_dim();
        let top = &h_st[self.layers.len() - 1];
        let mut out = vec![0.0f32; batch * d];
        for s in 0..batch {
            for k in 0..d {
                out[s * d + k] = top[k * batch + s];
            }
        }
        out
    }

    /// Forward multiply-adds of a batched pass (the work [`lane_split`]
    /// weighs).
    fn forward_macs(&self, t_steps: usize, batch: usize) -> usize {
        let per_step: usize = self
            .layers
            .iter()
            .map(|l| 4 * l.hidden * (l.in_dim + l.hidden))
            .sum();
        batch * t_steps * per_step
    }

    /// Batched full-sequence forward that also retains every layer's
    /// batch-major activations for [`Lstm::backward_batch`].
    ///
    /// Same layouts and — per sequence — the same arithmetic order as
    /// [`Lstm::forward_batch`], so each output (and every cached
    /// activation) is bit-identical to an independent [`Lstm::forward`]
    /// call on that sequence. When [`lane_split`] says so, the two lane
    /// halves run on two threads; lanes never interact, so the split
    /// changes no result.
    pub fn forward_batch_cached(
        &self,
        xs: &[f32],
        t_steps: usize,
        batch: usize,
    ) -> (Vec<f32>, LstmBatchCache) {
        assert_eq!(xs.len(), batch * t_steps * self.in_dim());
        assert!(batch >= 1);
        let w_ih0 = self.input_weights();
        let parts = match lane_split(batch, self.forward_macs(t_steps, batch)) {
            None => vec![self.forward_part(&w_ih0, xs, t_steps, 0, batch)],
            Some(mid) => std::thread::scope(|sc| {
                let hi = sc.spawn(|| self.forward_part(&w_ih0, xs, t_steps, mid, batch - mid));
                let lo = self.forward_part(&w_ih0, xs, t_steps, 0, mid);
                vec![lo, hi.join().unwrap_or_else(|e| resume_unwind(e))]
            }),
        };
        let d = self.out_dim();
        let top = self.layers.len() - 1;
        let mut out = vec![0.0f32; batch * d];
        for p in &parts {
            let top_hs = &p.layers[top].hs[(t_steps - 1) * d * p.batch..];
            for s in 0..p.batch {
                for k in 0..d {
                    out[(p.start + s) * d + k] = top_hs[k * p.batch + s];
                }
            }
        }
        (
            out,
            LstmBatchCache {
                parts,
                t_steps,
                batch,
            },
        )
    }

    /// Layer 0's input weights and bias, as the projection reads them.
    fn input_weights(&self) -> InputWeights<'_> {
        let (w_ih, _, b) = self.layers[0].split(self.layer_param(0));
        InputWeights::new(w_ih, b)
    }

    /// The cached forward of lanes `start..start + batch` of the
    /// sequence-major block `xs`; `w_ih0` is [`Lstm::input_weights`].
    fn forward_part(
        &self,
        w_ih0: &InputWeights<'_>,
        xs: &[f32],
        t_steps: usize,
        start: usize,
        batch: usize,
    ) -> LanePart {
        let in_dim = self.in_dim();
        let xs = &xs[start * t_steps * in_dim..(start + batch) * t_steps * in_dim];
        let mut layer_caches: Vec<LstmLayerBatchCache> = self
            .layers
            .iter()
            .map(|l| LstmLayerBatchCache {
                gates: vec![0.0; t_steps * 4 * l.hidden * batch],
                cells: vec![0.0; t_steps * l.hidden * batch],
                hs: vec![0.0; t_steps * l.hidden * batch],
            })
            .collect();
        let h_max = self.layers.iter().map(|l| l.hidden).max().unwrap();
        // Layer 0's `b + W_ih x`, projected per step from each input's
        // nonzero features only (see [`Columns::project_step`]).
        let cols = Columns::every_slot(xs, t_steps, batch, in_dim);
        let mut z = vec![0.0f32; 4 * h_max * batch];
        let mut acc = vec![0.0f32; batch];
        let zeros = vec![0.0f32; h_max * batch];
        for t in 0..t_steps {
            for (l, shape) in self.layers.iter().enumerate() {
                let h = shape.hidden;
                let (w_ih, w_hh, b) = shape.split(self.layer_param(l));
                let z = &mut z[..4 * h * batch];
                let (below, cur) = layer_caches.split_at_mut(l);
                if l == 0 {
                    cols.project_step(w_ih0, t, z);
                } else {
                    for (r, &bv) in b.iter().enumerate() {
                        z[r * batch..(r + 1) * batch].fill(bv);
                    }
                    let x_bm =
                        &below[l - 1].hs[t * shape.in_dim * batch..(t + 1) * shape.in_dim * batch];
                    gemm_bm_acc(w_ih, x_bm, z, 4 * h, shape.in_dim, batch, &mut acc);
                }
                let cache = &mut cur[0];
                let h_prev: &[f32] = if t == 0 {
                    &zeros[..h * batch]
                } else {
                    &cache.hs[(t - 1) * h * batch..t * h * batch]
                };
                gemm_bm_acc(w_hh, h_prev, z, 4 * h, h, batch, &mut acc);
                let (c_prev_all, c_new_all) = cache.cells.split_at_mut(t * h * batch);
                let c_prev_all: &[f32] = if t == 0 {
                    &zeros[..h * batch]
                } else {
                    &c_prev_all[(t - 1) * h * batch..]
                };
                let c_new = &mut c_new_all[..h * batch];
                let h_new_off = t * h * batch;
                let gates_off = t * 4 * h * batch;
                for k in 0..h {
                    let zi = &z[k * batch..(k + 1) * batch];
                    let zf = &z[(h + k) * batch..(h + k + 1) * batch];
                    let zg = &z[(2 * h + k) * batch..(2 * h + k + 1) * batch];
                    let zo = &z[(3 * h + k) * batch..(3 * h + k + 1) * batch];
                    let cp = &c_prev_all[k * batch..(k + 1) * batch];
                    let cn = &mut c_new[k * batch..(k + 1) * batch];
                    let hn = &mut cache.hs[h_new_off + k * batch..h_new_off + (k + 1) * batch];
                    let (g_i, g_rest) =
                        cache.gates[gates_off..gates_off + 4 * h * batch].split_at_mut(h * batch);
                    let (g_f, g_rest) = g_rest.split_at_mut(h * batch);
                    let (g_g, g_o) = g_rest.split_at_mut(h * batch);
                    let gi = &mut g_i[k * batch..(k + 1) * batch];
                    let gf = &mut g_f[k * batch..(k + 1) * batch];
                    let gg = &mut g_g[k * batch..(k + 1) * batch];
                    let go = &mut g_o[k * batch..(k + 1) * batch];
                    for_lane_chunks!(batch, s, LW => gates_chunk_cached::<LW>(
                        &zi[s..s + LW],
                        &zf[s..s + LW],
                        &zg[s..s + LW],
                        &zo[s..s + LW],
                        &cp[s..s + LW],
                        &mut cn[s..s + LW],
                        &mut hn[s..s + LW],
                        &mut gi[s..s + LW],
                        &mut gf[s..s + LW],
                        &mut gg[s..s + LW],
                        &mut go[s..s + LW],
                    ));
                }
            }
        }
        LanePart {
            start,
            batch,
            layers: layer_caches,
        }
    }

    /// Batch-major BPTT from per-sequence gradients `douts`
    /// (sequence-major `batch x hidden`, the gradient w.r.t. each
    /// sequence's final hidden vector); accumulates into `grads`.
    ///
    /// The accumulated gradients are bit-identical to running the
    /// scalar [`Lstm::backward`] once per sequence, in batch order,
    /// into the same buffer. Each lane part runs its delta recursion
    /// through every layer; then the parameter gradients are replayed
    /// in the scalar order ([`LstmLayerShape::replay_rows`]). A forward
    /// pass that ran as two lane halves runs its backward on the same
    /// two threads: each recurses through its own half, and after one
    /// barrier each replays half of every layer's gate rows over both
    /// halves.
    ///
    /// Layer 0's `W_ih` replay visits only the nonzero input features
    /// ([`outer_acc_sparse`]). That is exact under one precondition,
    /// which every caller meets by passing zeroed or accumulated
    /// gradients: no layer-0 `W_ih` entry of `grads` starts at −0.0.
    pub fn backward_batch(
        &self,
        xs: &[f32],
        cache: &LstmBatchCache,
        douts: &[f32],
        grads: &mut [f32],
    ) {
        let t = cache.t_steps;
        // Checked before any thread starts: a panic inside one half
        // would leave the other waiting at the barrier.
        assert_eq!(xs.len(), cache.batch * t * self.in_dim());
        assert_eq!(douts.len(), cache.batch * self.out_dim());
        assert_eq!(grads.len(), self.params.len());
        match &cache.parts[..] {
            [part] => {
                let deltas = self.part_deltas(part, xs, t, douts);
                let (mut rows, _) = self.layer_grad_rows(grads, false);
                self.replay_parts(cache, &[&deltas], &mut rows);
            }
            [lo, hi] => {
                let (mut rows_lo, mut rows_hi) = self.layer_grad_rows(grads, true);
                let (dz_lo, dz_hi) = (OnceLock::new(), OnceLock::new());
                let barrier = Barrier::new(2);
                let half =
                    |part: &LanePart, mine: &OnceLock<PartDeltas>, rows: &mut [GradRows<'_>]| {
                        let _ = mine.set(self.part_deltas(part, xs, t, douts));
                        barrier.wait();
                        let both = [&dz_lo, &dz_hi].map(|d| d.get().expect("both halves recursed"));
                        self.replay_parts(cache, &both, rows);
                    };
                std::thread::scope(|sc| {
                    let helper = sc.spawn(|| half(hi, &dz_hi, &mut rows_hi));
                    half(lo, &dz_lo, &mut rows_lo);
                    helper.join().unwrap_or_else(|e| resume_unwind(e));
                });
            }
            _ => unreachable!("a batched pass runs as one or two lane parts"),
        }
    }

    /// The delta recursion of one lane part through every layer. The
    /// bottom layer's input gradient is never computed (no caller reads
    /// it).
    fn part_deltas(&self, part: &LanePart, xs: &[f32], t: usize, douts: &[f32]) -> PartDeltas {
        let batch = part.batch;
        let in_dim = self.in_dim();
        let h_top = self.out_dim();
        let douts = &douts[part.start * h_top..(part.start + batch) * h_top];
        // dh for the top layer, batch-major: only the last step receives
        // the injected gradient.
        let mut dh = vec![0.0f32; t * h_top * batch];
        let last = &mut dh[(t - 1) * h_top * batch..];
        for s in 0..batch {
            for k in 0..h_top {
                last[k * batch + s] = douts[s * h_top + k];
            }
        }
        let mut dz = vec![Vec::new(); self.layers.len()];
        for l in (0..self.layers.len()).rev() {
            let shape = self.layers[l];
            let mut dxs = vec![0.0f32; if l > 0 { t * shape.in_dim * batch } else { 0 }];
            dz[l] = shape.deltas_batch(
                self.layer_param(l),
                t,
                batch,
                &part.layers[l],
                &mut dh,
                (l > 0).then_some(dxs.as_mut_slice()),
                l == 0,
            );
            dh = dxs;
        }
        // The replay reads each (sequence, timestep) hidden vector whole.
        let hs = part
            .layers
            .iter()
            .zip(&self.layers)
            .map(|(c, shape)| {
                let h = shape.hidden;
                let mut seq = vec![0.0f32; batch * t * h];
                for ti in 0..t {
                    let bm = &c.hs[ti * h * batch..(ti + 1) * h * batch];
                    for s in 0..batch {
                        for (k, v) in seq[(s * t + ti) * h..(s * t + ti + 1) * h]
                            .iter_mut()
                            .enumerate()
                        {
                            *v = bm[k * batch + s];
                        }
                    }
                }
                seq
            })
            .collect();
        let x0 = Nonzeros::by_column(
            &xs[part.start * t * in_dim..(part.start + batch) * t * in_dim],
            in_dim,
            (0..batch).flat_map(|s| (0..t).rev().map(move |ti| s * t + ti)),
        );
        PartDeltas { dz, hs, x0 }
    }

    /// Every layer's gradient buffer, split at half its gate rows when
    /// `split` (else the second share of each layer is empty).
    fn layer_grad_rows<'a>(
        &self,
        grads: &'a mut [f32],
        split: bool,
    ) -> (Vec<GradRows<'a>>, Vec<GradRows<'a>>) {
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        let mut rest = grads;
        for shape in &self.layers {
            let (g, tail) = rest.split_at_mut(shape.param_len());
            rest = tail;
            let rows = 4 * shape.hidden;
            let (a, b) = shape.grad_rows(g, if split { rows / 2 } else { rows });
            lo.push(a);
            hi.push(b);
        }
        (lo, hi)
    }

    /// Replay every layer's parameter gradients for the gate rows in
    /// `rows` (one share per layer) over the lane parts in lane order;
    /// `deltas[p]` is part `p`'s [`Lstm::part_deltas`].
    fn replay_parts(
        &self,
        cache: &LstmBatchCache,
        deltas: &[&PartDeltas],
        rows: &mut [GradRows<'_>],
    ) {
        let t = cache.t_steps;
        for (l, (shape, g)) in self.layers.iter().zip(rows.iter_mut()).enumerate() {
            for (p, d) in cache.parts.iter().zip(deltas) {
                let x = if l == 0 {
                    ReplayInput::Sparse(&d.x0)
                } else {
                    ReplayInput::Dense(&d.hs[l - 1])
                };
                shape.replay_rows(x, &d.hs[l], t, p.batch, &d.dz[l], g);
            }
        }
    }

    /// Backward from a gradient `dout` w.r.t. the final hidden vector;
    /// accumulates into `grads` (same length as [`Lstm::params`]).
    pub fn backward(&self, xs: &[f32], cache: &LstmCache, dout: &[f32], grads: &mut [f32]) {
        let t = cache.t_steps;
        let top = self.layers.len() - 1;
        let h_top = self.layers[top].hidden;
        // dh for the top layer: only the last step receives dout.
        let mut dh = vec![0.0f32; t * h_top];
        dh[(t - 1) * h_top..].copy_from_slice(dout);

        let mut grad_off_ends: Vec<usize> = Vec::with_capacity(self.layers.len());
        let mut acc = 0;
        for s in &self.layers {
            acc += s.param_len();
            grad_off_ends.push(acc);
        }

        for l in (0..self.layers.len()).rev() {
            let shape = self.layers[l];
            let xs_l: &[f32] = if l == 0 {
                xs
            } else {
                &cache.layer_caches[l - 1].hs
            };
            // The bottom layer's input gradient has no reader.
            let mut dxs = vec![0.0f32; if l > 0 { t * shape.in_dim } else { 0 }];
            let g_start = grad_off_ends[l] - shape.param_len();
            shape.backward(
                self.layer_param(l),
                xs_l,
                t,
                &cache.layer_caches[l],
                &mut dh,
                &mut grads[g_start..grad_off_ends[l]],
                (l > 0).then_some(dxs.as_mut_slice()),
            );
            dh = dxs; // becomes the injected dh for the layer below
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::dot;

    fn numeric_check(in_dim: usize, hidden: usize, layers: usize, t: usize) {
        let mut model = Lstm::new(in_dim, hidden, layers, 42);
        let mut rng = seeded_rng(7);
        use rand::Rng;
        let xs: Vec<f32> = (0..t * in_dim)
            .map(|_| rng.gen_range(-1.0..1.0f32))
            .collect();
        let dout: Vec<f32> = (0..hidden).map(|_| rng.gen_range(-1.0..1.0f32)).collect();

        let (_, cache) = model.forward(&xs, t);
        let mut grads = vec![0.0f32; model.params().len()];
        model.backward(&xs, &cache, &dout, &mut grads);

        // Spot-check a deterministic sample of parameters.
        let n = model.params().len();
        let loss = |m: &Lstm| {
            let (out, _) = m.forward(&xs, t);
            dot(&out, &dout)
        };
        let mut checked = 0;
        let mut idx = 1usize;
        while idx < n && checked < 24 {
            let eps = 3e-3;
            let orig = model.params()[idx];
            model.params_mut()[idx] = orig + eps;
            let lp = loss(&model);
            model.params_mut()[idx] = orig - eps;
            let lm = loss(&model);
            model.params_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads[idx];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs().max(ana.abs())),
                "param {idx}: numeric {num} vs analytic {ana}"
            );
            checked += 1;
            idx = idx * 2 + 3; // pseudo-random walk over parameters
        }
    }

    #[test]
    fn gradient_check_single_layer() {
        numeric_check(5, 6, 1, 4);
    }

    #[test]
    fn gradient_check_two_layers() {
        numeric_check(4, 5, 2, 5);
    }

    #[test]
    fn streaming_matches_windowed_forward() {
        let model = Lstm::new(3, 8, 2, 9);
        let t = 6;
        let mut rng = seeded_rng(3);
        use rand::Rng;
        let xs: Vec<f32> = (0..t * 3).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let (win_out, _) = model.forward(&xs, t);
        let mut state = model.zero_state();
        let mut out = vec![0.0f32; 8];
        for step in 0..t {
            model.step(&mut state, &xs[step * 3..(step + 1) * 3], &mut out);
        }
        for (a, b) in win_out.iter().zip(&out) {
            assert!((a - b).abs() < 1e-5, "windowed {a} vs streaming {b}");
        }
    }

    #[test]
    fn state_reset_restores_determinism() {
        let model = Lstm::new(2, 4, 1, 1);
        let x = [0.5f32, -0.25];
        let mut out1 = vec![0.0f32; 4];
        let mut out2 = vec![0.0f32; 4];
        let mut state = model.zero_state();
        model.step(&mut state, &x, &mut out1);
        state.reset();
        model.step(&mut state, &x, &mut out2);
        assert_eq!(out1, out2);
    }

    #[test]
    fn deeper_models_have_more_parameters() {
        let p1 = Lstm::new(51, 32, 1, 0).params().len();
        let p2 = Lstm::new(51, 32, 2, 0).params().len();
        let p3 = Lstm::new(51, 32, 3, 0).params().len();
        assert!(p2 > p1);
        assert_eq!(p3 - p2, p2 - p1); // each extra layer adds hidden->hidden
    }

    #[test]
    fn output_depends_on_whole_sequence() {
        let model = Lstm::new(2, 4, 2, 5);
        let t = 5;
        let xs1 = vec![0.1f32; t * 2];
        let mut xs2 = xs1.clone();
        xs2[0] = 0.9; // perturb the FIRST step only
        let (o1, _) = model.forward(&xs1, t);
        let (o2, _) = model.forward(&xs2, t);
        let diff: f32 = o1.iter().zip(&o2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6, "early inputs must influence the final state");
    }
}
