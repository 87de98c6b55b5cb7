//! Gated recurrent unit layers (one of the Figure 6 ablation
//! architectures).

use crate::init::seeded_rng;
use crate::window::{Columns, InputWeights, Window};
// Fast activations by design: scalar and batched paths share the same
// straight-line-arithmetic functions so batched inference stays
// bit-identical to scalar inference while its inner loops vectorize
// (see `tensor::tanh_apx`).
use crate::tensor::{for_lane_chunks, BatchInput};
use crate::tensor::{
    gemm_bm_acc, gemm_bm_t_acc, gemv_acc, gemv_t_acc, outer_acc, sigmoid_apx, tanh_apx,
};

/// Shape of one GRU layer.
///
/// Flat layout: `[W_ih (3h x in) | W_hh (3h x h) | b (3h)]` with gate
/// order `r, z, n`; the candidate gate uses the standard
/// `n = tanh(W_n x + r * (U_n h) + b_n)` coupling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GruLayerShape {
    /// Input features per step.
    pub in_dim: usize,
    /// Hidden size.
    pub hidden: usize,
}

/// Per-layer activations kept for backward.
#[derive(Debug, Clone)]
pub struct GruLayerCache {
    /// `T x 3h`: post-activation `r, z, n`.
    gates: Vec<f32>,
    /// `T x h`: `U_n h_{t-1}` pre-products (needed for dr).
    un_h: Vec<f32>,
    /// `T x h`: hidden states.
    hs: Vec<f32>,
}

impl GruLayerShape {
    /// Number of parameters.
    pub fn param_len(&self) -> usize {
        3 * self.hidden * (self.in_dim + self.hidden) + 3 * self.hidden
    }

    fn split<'a>(&self, w: &'a [f32]) -> (&'a [f32], &'a [f32], &'a [f32]) {
        let (h, i) = (self.hidden, self.in_dim);
        let (w_ih, rest) = w.split_at(3 * h * i);
        let (w_hh, b) = rest.split_at(3 * h * h);
        (w_ih, w_hh, b)
    }

    /// Initialize parameters.
    pub fn init(&self, w: &mut [f32], rng: &mut rand::rngs::StdRng) {
        let (h, i) = (self.hidden, self.in_dim);
        crate::init::xavier_uniform(&mut w[..3 * h * i], i, 3 * h, rng);
        let end = 3 * h * i + 3 * h * h;
        crate::init::xavier_uniform(&mut w[3 * h * i..end], h, 3 * h, rng);
        w[end..].fill(0.0);
    }

    /// One streaming step: updates `h_state` in place from input `x`.
    ///
    /// Arithmetic mirrors one timestep of [`GruLayerShape::forward`]
    /// exactly (same gate order, same accumulation order), so a step
    /// sequence reproduces the full-sequence forward bit-for-bit.
    pub fn step(&self, w: &[f32], x: &[f32], h_state: &mut [f32]) {
        let h = self.hidden;
        let (w_ih, w_hh, b) = self.split(w);
        let (w_hr, rest) = w_hh.split_at(h * h);
        let (w_hz, w_hn) = rest.split_at(h * h);
        let mut zx = b.to_vec();
        gemv_acc(w_ih, x, &mut zx, 3 * h, self.in_dim);
        gemv_acc(w_hr, h_state, &mut zx[..h], h, h);
        gemv_acc(w_hz, h_state, &mut zx[h..2 * h], h, h);
        let mut un_h = vec![0.0f32; h];
        gemv_acc(w_hn, h_state, &mut un_h, h, h);
        for k in 0..h {
            let r = sigmoid_apx(zx[k]);
            let z = sigmoid_apx(zx[h + k]);
            let n = tanh_apx(zx[2 * h + k] + r * un_h[k]);
            h_state[k] = (1.0 - z) * n + z * h_state[k];
        }
    }

    /// Full-sequence forward.
    pub fn forward(&self, w: &[f32], xs: &[f32], t_steps: usize) -> GruLayerCache {
        let h = self.hidden;
        let (w_ih, w_hh, b) = self.split(w);
        let (w_hr, rest) = w_hh.split_at(h * h);
        let (w_hz, w_hn) = rest.split_at(h * h);
        let mut cache = GruLayerCache {
            gates: vec![0.0; t_steps * 3 * h],
            un_h: vec![0.0; t_steps * h],
            hs: vec![0.0; t_steps * h],
        };
        let mut h_prev = vec![0.0f32; h];
        let mut zx = vec![0.0f32; 3 * h];
        for t in 0..t_steps {
            let x = &xs[t * self.in_dim..(t + 1) * self.in_dim];
            zx.copy_from_slice(b);
            gemv_acc(w_ih, x, &mut zx, 3 * h, self.in_dim);
            // recurrent contributions (r and z direct; n kept separate)
            gemv_acc(w_hr, &h_prev, &mut zx[..h], h, h);
            gemv_acc(w_hz, &h_prev, &mut zx[h..2 * h], h, h);
            let un_h = &mut cache.un_h[t * h..(t + 1) * h];
            un_h.fill(0.0);
            gemv_acc(w_hn, &h_prev, un_h, h, h);
            let gates = &mut cache.gates[t * 3 * h..(t + 1) * 3 * h];
            let hs = &mut cache.hs[t * h..(t + 1) * h];
            for k in 0..h {
                let r = sigmoid_apx(zx[k]);
                let z = sigmoid_apx(zx[h + k]);
                let n = tanh_apx(zx[2 * h + k] + r * un_h[k]);
                gates[k] = r;
                gates[h + k] = z;
                gates[2 * h + k] = n;
                hs[k] = (1.0 - z) * n + z * h_prev[k];
            }
            h_prev.copy_from_slice(hs);
        }
        cache
    }

    /// Full-sequence backward (mirrors [`crate::lstm::LstmLayerShape::backward`];
    /// input gradients go to `dxs` only when given).
    #[allow(clippy::too_many_arguments)]
    pub fn backward(
        &self,
        w: &[f32],
        xs: &[f32],
        t_steps: usize,
        cache: &GruLayerCache,
        dh: &mut [f32],
        grads: &mut [f32],
        mut dxs: Option<&mut [f32]>,
    ) {
        let h = self.hidden;
        let i_dim = self.in_dim;
        let (w_ih, w_hh, _) = self.split(w);
        let (w_hr, rest) = w_hh.split_at(h * h);
        let (w_hz, w_hn) = rest.split_at(h * h);
        let wn_ih = 3 * h * i_dim;
        let (g_ih, rest_g) = grads.split_at_mut(wn_ih);
        let (g_hh, g_b) = rest_g.split_at_mut(3 * h * h);
        let (g_hr, rest_g2) = g_hh.split_at_mut(h * h);
        let (g_hz, g_hn) = rest_g2.split_at_mut(h * h);

        let mut dh_rec = vec![0.0f32; h];
        let mut dz_pre = vec![0.0f32; 3 * h]; // gradients w.r.t. pre-activations
        let mut dn_un = vec![0.0f32; h]; // gradient w.r.t. (U_n h_prev)
        for t in (0..t_steps).rev() {
            let gates = &cache.gates[t * 3 * h..(t + 1) * 3 * h];
            let un_h = &cache.un_h[t * h..(t + 1) * h];
            let zero_h;
            let h_prev: &[f32] = if t == 0 {
                zero_h = vec![0.0f32; h];
                &zero_h
            } else {
                &cache.hs[(t - 1) * h..t * h]
            };
            let dh_t = &mut dh[t * h..(t + 1) * h];
            for (d, r) in dh_t.iter_mut().zip(&dh_rec) {
                *d += r;
            }
            dh_rec.fill(0.0);
            for k in 0..h {
                let r = gates[k];
                let z = gates[h + k];
                let n = gates[2 * h + k];
                let dht = dh_t[k];
                // h = (1-z) n + z h_prev
                let dn = dht * (1.0 - z);
                let dz = dht * (h_prev[k] - n);
                dh_rec[k] += dht * z;
                let dn_pre = dn * (1.0 - n * n);
                let dr = dn_pre * un_h[k];
                dn_un[k] = dn_pre * r;
                dz_pre[k] = dr * r * (1.0 - r);
                dz_pre[h + k] = dz * z * (1.0 - z);
                dz_pre[2 * h + k] = dn_pre;
            }
            let x = &xs[t * i_dim..(t + 1) * i_dim];
            outer_acc(g_ih, &dz_pre, x);
            for (g, &d) in g_b.iter_mut().zip(&dz_pre) {
                *g += d;
            }
            if let Some(dxs) = dxs.as_deref_mut() {
                gemv_t_acc(
                    w_ih,
                    &dz_pre,
                    &mut dxs[t * i_dim..(t + 1) * i_dim],
                    3 * h,
                    i_dim,
                );
            }
            // recurrent weight grads + recurrent dh contributions
            outer_acc(g_hr, &dz_pre[..h], h_prev);
            outer_acc(g_hz, &dz_pre[h..2 * h], h_prev);
            outer_acc(g_hn, &dn_un, h_prev);
            gemv_t_acc(w_hr, &dz_pre[..h], &mut dh_rec, h, h);
            gemv_t_acc(w_hz, &dz_pre[h..2 * h], &mut dh_rec, h, h);
            gemv_t_acc(w_hn, &dn_un, &mut dh_rec, h, h);
        }
    }
}

/// One GRU gate-activation chunk of compile-time width `L` (all slices
/// have length `L`); element math identical to the scalar path:
/// `r,z` sigmoids, `n = tanh(z_n + r·(U_n h))`, `h = (1-z)n + z·h`.
#[inline]
fn gru_gates_chunk<const L: usize>(
    zr: &[f32],
    zz: &[f32],
    zn: &[f32],
    un_row: &[f32],
    h_row: &mut [f32],
) {
    for s in 0..L {
        let r = sigmoid_apx(zr[s]);
        let z = sigmoid_apx(zz[s]);
        let n = tanh_apx(zn[s] + r * un_row[s]);
        h_row[s] = (1.0 - z) * n + z * h_row[s];
    }
}

/// The training variant of [`gru_gates_chunk`]: identical element math,
/// with `h_prev` read separately from the written `h_new` (the cache
/// keeps every timestep) and the post-activation gates stored for
/// backward.
#[allow(clippy::too_many_arguments)]
#[inline]
fn gru_gates_chunk_cached<const L: usize>(
    zr: &[f32],
    zz: &[f32],
    zn: &[f32],
    un_row: &[f32],
    h_prev: &[f32],
    h_new: &mut [f32],
    gr: &mut [f32],
    gz: &mut [f32],
    gn: &mut [f32],
) {
    for s in 0..L {
        let r = sigmoid_apx(zr[s]);
        let z = sigmoid_apx(zz[s]);
        let n = tanh_apx(zn[s] + r * un_row[s]);
        gr[s] = r;
        gz[s] = z;
        gn[s] = n;
        h_new[s] = (1.0 - z) * n + z * h_prev[s];
    }
}

/// One batch-major GRU backward chunk of compile-time width `L`: the
/// per-element math is exactly [`GruLayerShape::backward`]'s gate loop,
/// applied lane-wise (each lane follows the scalar operation sequence,
/// so batched deltas are bit-identical per sequence).
#[allow(clippy::too_many_arguments)]
#[inline]
fn gru_bwd_chunk<const L: usize>(
    gr: &[f32],
    gz: &[f32],
    gn: &[f32],
    un_row: &[f32],
    h_prev: &[f32],
    dht: &[f32],
    dh_rec: &mut [f32],
    dn_un: &mut [f32],
    dzr: &mut [f32],
    dzz: &mut [f32],
    dzn: &mut [f32],
) {
    for s in 0..L {
        let r = gr[s];
        let z = gz[s];
        let n = gn[s];
        let dhtv = dht[s];
        // h = (1-z) n + z h_prev
        let dn = dhtv * (1.0 - z);
        let dz = dhtv * (h_prev[s] - n);
        dh_rec[s] += dhtv * z;
        let dn_pre = dn * (1.0 - n * n);
        let dr = dn_pre * un_row[s];
        dn_un[s] = dn_pre * r;
        dzr[s] = dr * r * (1.0 - r);
        dzz[s] = dz * z * (1.0 - z);
        dzn[s] = dn_pre;
    }
}

/// Batch-major forward activations of one GRU layer (layout as in
/// [`crate::lstm::LstmLayerBatchCache`]: row `r` of step `t` at
/// `t * rows * batch + r * batch + s`).
#[derive(Debug, Clone)]
pub struct GruLayerBatchCache {
    /// `T x 3h x batch`: post-activation `r, z, n`.
    pub gates: Vec<f32>,
    /// `T x h x batch`: `U_n h_{t-1}` pre-products.
    pub un_h: Vec<f32>,
    /// `T x h x batch`: hidden states.
    pub hs: Vec<f32>,
}

/// Forward cache for [`Gru::forward_batch_cached`].
#[derive(Debug, Clone)]
pub struct GruBatchCache {
    layer_caches: Vec<GruLayerBatchCache>,
    t_steps: usize,
    batch: usize,
}

impl GruBatchCache {
    /// Number of timesteps the cache covers.
    pub fn t_steps(&self) -> usize {
        self.t_steps
    }

    /// Number of sequences in the batch.
    pub fn batch(&self) -> usize {
        self.batch
    }
}

impl GruLayerShape {
    /// Batch-major full-sequence backward over a [`GruLayerBatchCache`]
    /// (the lockstep mirror of [`GruLayerShape::backward`]; same
    /// bit-identity contract as
    /// [`crate::lstm::LstmLayerShape::backward_batch`]).
    #[allow(clippy::too_many_arguments)]
    pub fn backward_batch(
        &self,
        w: &[f32],
        x: &BatchInput<'_>,
        t_steps: usize,
        batch: usize,
        cache: &GruLayerBatchCache,
        dh: &mut [f32],
        grads: &mut [f32],
        mut dxs: Option<&mut [f32]>,
    ) {
        let h = self.hidden;
        let i_dim = self.in_dim;
        let (w_ih, w_hh, _) = self.split(w);
        let (w_hr, rest) = w_hh.split_at(h * h);
        let (w_hz, w_hn) = rest.split_at(h * h);
        let (g_ih, rest_g) = grads.split_at_mut(3 * h * i_dim);
        let (g_hh, g_b) = rest_g.split_at_mut(3 * h * h);
        let (g_hr, rest_g2) = g_hh.split_at_mut(h * h);
        let (g_hz, g_hn) = rest_g2.split_at_mut(h * h);

        let mut dh_rec = vec![0.0f32; h * batch];
        // All timesteps' pre-activation deltas and candidate-gate
        // recurrent deltas, batch-major, for the canonical parameter
        // accumulation below.
        let mut dzs = vec![0.0f32; t_steps * 3 * h * batch];
        let mut dn_uns = vec![0.0f32; t_steps * h * batch];
        let zero_row = vec![0.0f32; batch];
        for t in (0..t_steps).rev() {
            let gates = &cache.gates[t * 3 * h * batch..(t + 1) * 3 * h * batch];
            let un_h = &cache.un_h[t * h * batch..(t + 1) * h * batch];
            let dh_t = &mut dh[t * h * batch..(t + 1) * h * batch];
            for (d, r) in dh_t.iter_mut().zip(&dh_rec) {
                *d += r;
            }
            dh_rec.fill(0.0);
            let dz = &mut dzs[t * 3 * h * batch..(t + 1) * 3 * h * batch];
            let (dz_r, dz_rest) = dz.split_at_mut(h * batch);
            let (dz_z, dz_n) = dz_rest.split_at_mut(h * batch);
            let dn_un = &mut dn_uns[t * h * batch..(t + 1) * h * batch];
            for k in 0..h {
                let row = |r: usize| &gates[r * batch..(r + 1) * batch];
                let (gr, gz, gn) = (row(k), row(h + k), row(2 * h + k));
                let un_row = &un_h[k * batch..(k + 1) * batch];
                let hp: &[f32] = if t == 0 {
                    &zero_row
                } else {
                    &cache.hs
                        [(t - 1) * h * batch + k * batch..(t - 1) * h * batch + (k + 1) * batch]
                };
                let dht = &dh_t[k * batch..(k + 1) * batch];
                let dhr = &mut dh_rec[k * batch..(k + 1) * batch];
                let dnu = &mut dn_un[k * batch..(k + 1) * batch];
                let dzr = &mut dz_r[k * batch..(k + 1) * batch];
                let dzz = &mut dz_z[k * batch..(k + 1) * batch];
                let dzn = &mut dz_n[k * batch..(k + 1) * batch];
                for_lane_chunks!(batch, s, LW => gru_bwd_chunk::<LW>(
                    &gr[s..s + LW],
                    &gz[s..s + LW],
                    &gn[s..s + LW],
                    &un_row[s..s + LW],
                    &hp[s..s + LW],
                    &dht[s..s + LW],
                    &mut dhr[s..s + LW],
                    &mut dnu[s..s + LW],
                    &mut dzr[s..s + LW],
                    &mut dzz[s..s + LW],
                    &mut dzn[s..s + LW],
                ));
            }
            let dz = &dzs[t * 3 * h * batch..(t + 1) * 3 * h * batch];
            if let Some(dxs) = dxs.as_deref_mut() {
                gemm_bm_t_acc(
                    w_ih,
                    dz,
                    &mut dxs[t * i_dim * batch..(t + 1) * i_dim * batch],
                    3 * h,
                    i_dim,
                    batch,
                );
            }
            // dh_rec feeds step t-1, so the recurrent products are dead
            // work at t == 0 (the scalar backward computes them anyway,
            // but never reads them — skipping is parity-safe).
            if t > 0 {
                gemm_bm_t_acc(w_hr, &dz[..h * batch], &mut dh_rec, h, h, batch);
                gemm_bm_t_acc(
                    w_hz,
                    &dz[h * batch..2 * h * batch],
                    &mut dh_rec,
                    h,
                    h,
                    batch,
                );
                gemm_bm_t_acc(w_hn, dn_un, &mut dh_rec, h, h, batch);
            }
        }
        // Canonical parameter accumulation: per sequence (ascending),
        // per timestep (descending), exactly the scalar path's rank-1
        // updates and bias adds (h_prev is the zero vector at t = 0,
        // matching the scalar backward).
        let mut dz_s = vec![0.0f32; 3 * h];
        let mut dn_s = vec![0.0f32; h];
        let mut x_s = vec![0.0f32; i_dim];
        let mut hp_s = vec![0.0f32; h];
        for s in 0..batch {
            for t in (0..t_steps).rev() {
                let dz = &dzs[t * 3 * h * batch..(t + 1) * 3 * h * batch];
                for (r, d) in dz_s.iter_mut().enumerate() {
                    *d = dz[r * batch + s];
                }
                let dn = &dn_uns[t * h * batch..(t + 1) * h * batch];
                for (k, d) in dn_s.iter_mut().enumerate() {
                    *d = dn[k * batch + s];
                }
                if t == 0 {
                    hp_s.fill(0.0);
                } else {
                    let hs = &cache.hs[(t - 1) * h * batch..t * h * batch];
                    for (k, hp) in hp_s.iter_mut().enumerate() {
                        *hp = hs[k * batch + s];
                    }
                }
                x.gather(t, s, t_steps, batch, &mut x_s);
                outer_acc(g_ih, &dz_s, &x_s);
                for (g, &d) in g_b.iter_mut().zip(&dz_s) {
                    *g += d;
                }
                outer_acc(g_hr, &dz_s[..h], &hp_s);
                outer_acc(g_hz, &dz_s[h..2 * h], &hp_s);
                outer_acc(g_hn, &dn_s, &hp_s);
            }
        }
    }
}

/// Streaming hidden state for a multi-layer GRU (the GRU is stateful by
/// construction, so it supports the same single-pass fast path as the
/// LSTM; see [`crate::lstm::LstmState`]).
#[derive(Debug, Clone)]
pub struct GruState {
    /// Per-layer hidden vectors.
    pub h: Vec<Vec<f32>>,
}

impl GruState {
    /// Reset all state to zero.
    pub fn reset(&mut self) {
        for v in self.h.iter_mut() {
            v.fill(0.0);
        }
    }
}

/// Multi-layer GRU with contiguous parameters.
#[derive(Debug, Clone)]
pub struct Gru {
    layers: Vec<GruLayerShape>,
    params: Vec<f32>,
}

/// Forward cache for [`Gru::forward`].
#[derive(Debug, Clone)]
pub struct GruCache {
    layer_caches: Vec<GruLayerCache>,
    t_steps: usize,
}

impl Gru {
    /// Build an `n_layers` GRU.
    pub fn new(in_dim: usize, hidden: usize, n_layers: usize, seed: u64) -> Gru {
        assert!(n_layers >= 1);
        let mut layers = Vec::with_capacity(n_layers);
        for l in 0..n_layers {
            layers.push(GruLayerShape {
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
        Gru { layers, params }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output dimensionality.
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

    /// Flat parameters, mutable.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    fn layer_param(&self, l: usize) -> &[f32] {
        let off: usize = self.layers[..l].iter().map(|s| s.param_len()).sum();
        &self.params[off..off + self.layers[l].param_len()]
    }

    /// Full-sequence forward; returns the final hidden vector and cache.
    pub fn forward(&self, xs: &[f32], t_steps: usize) -> (Vec<f32>, GruCache) {
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
            GruCache {
                layer_caches,
                t_steps,
            },
        )
    }

    /// Fresh zeroed streaming state.
    pub fn zero_state(&self) -> GruState {
        GruState {
            h: self.layers.iter().map(|l| vec![0.0; l.hidden]).collect(),
        }
    }

    /// One streaming step: feed `x`, update `state`, and write the top
    /// layer's hidden vector into `out`.
    pub fn step(&self, state: &mut GruState, x: &[f32], out: &mut [f32]) {
        let mut input = x.to_vec();
        for (l, shape) in self.layers.iter().enumerate() {
            let w = self.layer_param(l);
            shape.step(w, &input, &mut state.h[l]);
            input.clear();
            input.extend_from_slice(&state.h[l]);
        }
        out.copy_from_slice(&input);
    }

    /// Batched full-sequence forward over `batch` independent sequences
    /// in lockstep (see [`crate::lstm::Lstm::forward_batch`]; same
    /// layouts, same bit-identical-per-sequence guarantee).
    pub fn forward_batch(&self, xs: &[f32], t_steps: usize, batch: usize) -> Vec<f32> {
        assert!(batch >= 1);
        self.recur(
            &Columns::every_slot(xs, t_steps, batch, self.in_dim()),
            t_steps,
        )
    }

    /// [`Gru::forward_batch`] over `windows` of `t_steps` steps each,
    /// projecting each distinct row once (see
    /// [`crate::lstm::Lstm::forward_windows`]; same guarantee).
    pub(crate) fn forward_windows(&self, windows: &[Window<'_>], t_steps: usize) -> Vec<f32> {
        assert!(!windows.is_empty());
        self.recur(&Columns::distinct(windows, t_steps, self.in_dim()), t_steps)
    }

    /// The batched recurrence over layer-0 input columns `cols`: layer
    /// 0's `b + W_ih x` comes projected per column, and the recurrent
    /// gemms are skipped at `t = 0` (exact for the reasons given on
    /// [`crate::lstm::Lstm`]'s recurrence; `U_n h` is then the +0.0 a
    /// zero-state gemm leaves).
    fn recur(&self, cols: &Columns<'_>, t_steps: usize) -> Vec<f32> {
        let batch = cols.batch;
        let mut h_st: Vec<Vec<f32>> = self
            .layers
            .iter()
            .map(|l| vec![0.0f32; l.hidden * batch])
            .collect();
        let h_max = self.layers.iter().map(|l| l.hidden).max().unwrap();
        let (w_ih0, _, b0) = self.layers[0].split(self.layer_param(0));
        let proj = cols.project(&InputWeights::new(w_ih0, b0));
        let mut zx = vec![0.0f32; 3 * h_max * batch];
        let mut un = vec![0.0f32; h_max * batch];
        let mut acc = vec![0.0f32; batch];
        for t in 0..t_steps {
            for (l, shape) in self.layers.iter().enumerate() {
                let h = shape.hidden;
                let (w_ih, w_hh, b) = shape.split(self.layer_param(l));
                let (w_hr, rest) = w_hh.split_at(h * h);
                let (w_hz, w_hn) = rest.split_at(h * h);
                let zx = &mut zx[..3 * h * batch];
                let (below, cur) = h_st.split_at_mut(l);
                if l == 0 {
                    cols.gather(&proj, 3 * h, t, zx);
                } else {
                    for (r, &bv) in b.iter().enumerate() {
                        zx[r * batch..(r + 1) * batch].fill(bv);
                    }
                    gemm_bm_acc(
                        w_ih,
                        &below[l - 1],
                        zx,
                        3 * h,
                        shape.in_dim,
                        batch,
                        &mut acc,
                    );
                }
                let h_cur = &mut cur[0];
                let un = &mut un[..h * batch];
                un.fill(0.0);
                if t > 0 {
                    let (zr, zz) = zx[..2 * h * batch].split_at_mut(h * batch);
                    gemm_bm_acc(w_hr, h_cur, zr, h, h, batch, &mut acc);
                    gemm_bm_acc(w_hz, h_cur, zz, h, h, batch, &mut acc);
                    gemm_bm_acc(w_hn, h_cur, un, h, h, batch, &mut acc);
                }
                // Per-k row slices, processed in fixed-width chunks so
                // the gate math reliably compiles to SIMD (see the
                // LSTM's `gates_chunk`); identical math at any width.
                for k in 0..h {
                    let zr = &zx[k * batch..(k + 1) * batch];
                    let zz = &zx[(h + k) * batch..(h + k + 1) * batch];
                    let zn = &zx[(2 * h + k) * batch..(2 * h + k + 1) * batch];
                    let un_row = &un[k * batch..(k + 1) * batch];
                    let h_row = &mut h_cur[k * batch..(k + 1) * batch];
                    for_lane_chunks!(batch, s, LW => gru_gates_chunk::<LW>(
                        &zr[s..s + LW],
                        &zz[s..s + LW],
                        &zn[s..s + LW],
                        &un_row[s..s + LW],
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

    /// Batched full-sequence forward that also retains every layer's
    /// batch-major activations for [`Gru::backward_batch`] (same
    /// bit-identity contract as
    /// [`crate::lstm::Lstm::forward_batch_cached`]).
    pub fn forward_batch_cached(
        &self,
        xs: &[f32],
        t_steps: usize,
        batch: usize,
    ) -> (Vec<f32>, GruBatchCache) {
        let in_dim = self.in_dim();
        debug_assert_eq!(xs.len(), batch * t_steps * in_dim);
        assert!(batch >= 1);
        let mut layer_caches: Vec<GruLayerBatchCache> = self
            .layers
            .iter()
            .map(|l| GruLayerBatchCache {
                gates: vec![0.0; t_steps * 3 * l.hidden * batch],
                un_h: vec![0.0; t_steps * l.hidden * batch],
                hs: vec![0.0; t_steps * l.hidden * batch],
            })
            .collect();
        let h_max = self.layers.iter().map(|l| l.hidden).max().unwrap();
        let mut x0 = vec![0.0f32; in_dim * batch];
        let mut zx = vec![0.0f32; 3 * h_max * batch];
        let mut acc = vec![0.0f32; batch];
        let zeros = vec![0.0f32; h_max * batch];
        for t in 0..t_steps {
            for k in 0..in_dim {
                for (s, x) in x0[k * batch..(k + 1) * batch].iter_mut().enumerate() {
                    *x = xs[s * t_steps * in_dim + t * in_dim + k];
                }
            }
            for (l, shape) in self.layers.iter().enumerate() {
                let h = shape.hidden;
                let (w_ih, w_hh, b) = shape.split(self.layer_param(l));
                let (w_hr, rest) = w_hh.split_at(h * h);
                let (w_hz, w_hn) = rest.split_at(h * h);
                let zx = &mut zx[..3 * h * batch];
                for (r, &bv) in b.iter().enumerate() {
                    zx[r * batch..(r + 1) * batch].fill(bv);
                }
                let (below, cur) = layer_caches.split_at_mut(l);
                let x_bm: &[f32] = if l == 0 {
                    &x0
                } else {
                    &below[l - 1].hs[t * shape.in_dim * batch..(t + 1) * shape.in_dim * batch]
                };
                let cache = &mut cur[0];
                let h_prev: &[f32] = if t == 0 {
                    &zeros[..h * batch]
                } else {
                    &cache.hs[(t - 1) * h * batch..t * h * batch]
                };
                gemm_bm_acc(w_ih, x_bm, zx, 3 * h, shape.in_dim, batch, &mut acc);
                gemm_bm_acc(w_hr, h_prev, &mut zx[..h * batch], h, h, batch, &mut acc);
                gemm_bm_acc(
                    w_hz,
                    h_prev,
                    &mut zx[h * batch..2 * h * batch],
                    h,
                    h,
                    batch,
                    &mut acc,
                );
                let un = &mut cache.un_h[t * h * batch..(t + 1) * h * batch];
                gemm_bm_acc(w_hn, h_prev, un, h, h, batch, &mut acc);
                let un = &cache.un_h[t * h * batch..(t + 1) * h * batch];
                let h_new_off = t * h * batch;
                let gates_off = t * 3 * h * batch;
                for k in 0..h {
                    let zr = &zx[k * batch..(k + 1) * batch];
                    let zz = &zx[(h + k) * batch..(h + k + 1) * batch];
                    let zn = &zx[(2 * h + k) * batch..(2 * h + k + 1) * batch];
                    let un_row = &un[k * batch..(k + 1) * batch];
                    // Split hs so h_prev (shared) and h_new (mutable)
                    // can coexist: everything before step t is frozen.
                    let (hs_prev, hs_new) = cache.hs.split_at_mut(h_new_off);
                    let hp: &[f32] = if t == 0 {
                        &zeros[k * batch..(k + 1) * batch]
                    } else {
                        &hs_prev
                            [(t - 1) * h * batch + k * batch..(t - 1) * h * batch + (k + 1) * batch]
                    };
                    let hn = &mut hs_new[k * batch..(k + 1) * batch];
                    let (g_r, g_rest) =
                        cache.gates[gates_off..gates_off + 3 * h * batch].split_at_mut(h * batch);
                    let (g_z, g_n) = g_rest.split_at_mut(h * batch);
                    let gr = &mut g_r[k * batch..(k + 1) * batch];
                    let gz = &mut g_z[k * batch..(k + 1) * batch];
                    let gn = &mut g_n[k * batch..(k + 1) * batch];
                    for_lane_chunks!(batch, s, LW => gru_gates_chunk_cached::<LW>(
                        &zr[s..s + LW],
                        &zz[s..s + LW],
                        &zn[s..s + LW],
                        &un_row[s..s + LW],
                        &hp[s..s + LW],
                        &mut hn[s..s + LW],
                        &mut gr[s..s + LW],
                        &mut gz[s..s + LW],
                        &mut gn[s..s + LW],
                    ));
                }
            }
        }
        let d = self.out_dim();
        let top = &layer_caches[self.layers.len() - 1];
        let top_hs = &top.hs[(t_steps - 1) * d * batch..t_steps * d * batch];
        let mut out = vec![0.0f32; batch * d];
        for s in 0..batch {
            for k in 0..d {
                out[s * d + k] = top_hs[k * batch + s];
            }
        }
        (
            out,
            GruBatchCache {
                layer_caches,
                t_steps,
                batch,
            },
        )
    }

    /// Batch-major BPTT from per-sequence gradients `douts`
    /// (sequence-major `batch x hidden`); accumulates into `grads`,
    /// bit-identically to running the scalar [`Gru::backward`] once per
    /// sequence in batch order.
    pub fn backward_batch(
        &self,
        xs: &[f32],
        cache: &GruBatchCache,
        douts: &[f32],
        grads: &mut [f32],
    ) {
        let t = cache.t_steps;
        let batch = cache.batch;
        let top = self.layers.len() - 1;
        let h_top = self.layers[top].hidden;
        debug_assert_eq!(douts.len(), batch * h_top);
        let mut dh = vec![0.0f32; t * h_top * batch];
        let last = &mut dh[(t - 1) * h_top * batch..];
        for s in 0..batch {
            for k in 0..h_top {
                last[k * batch + s] = douts[s * h_top + k];
            }
        }
        let mut ends: Vec<usize> = Vec::with_capacity(self.layers.len());
        let mut acc = 0;
        for s in &self.layers {
            acc += s.param_len();
            ends.push(acc);
        }
        for l in (0..self.layers.len()).rev() {
            let shape = self.layers[l];
            let x = if l == 0 {
                BatchInput::Seq(xs)
            } else {
                BatchInput::Bm(&cache.layer_caches[l - 1].hs)
            };
            // The bottom layer's input gradient has no reader.
            let mut dxs = vec![0.0f32; if l > 0 { t * shape.in_dim * batch } else { 0 }];
            let start = ends[l] - shape.param_len();
            shape.backward_batch(
                self.layer_param(l),
                &x,
                t,
                batch,
                &cache.layer_caches[l],
                &mut dh,
                &mut grads[start..ends[l]],
                (l > 0).then_some(dxs.as_mut_slice()),
            );
            dh = dxs;
        }
    }

    /// Backward from `dout` (gradient w.r.t. the final hidden vector).
    pub fn backward(&self, xs: &[f32], cache: &GruCache, dout: &[f32], grads: &mut [f32]) {
        let t = cache.t_steps;
        let top = self.layers.len() - 1;
        let h_top = self.layers[top].hidden;
        let mut dh = vec![0.0f32; t * h_top];
        dh[(t - 1) * h_top..].copy_from_slice(dout);
        let mut ends: Vec<usize> = Vec::with_capacity(self.layers.len());
        let mut acc = 0;
        for s in &self.layers {
            acc += s.param_len();
            ends.push(acc);
        }
        for l in (0..self.layers.len()).rev() {
            let shape = self.layers[l];
            let xs_l: &[f32] = if l == 0 {
                xs
            } else {
                &cache.layer_caches[l - 1].hs
            };
            let mut dxs = vec![0.0f32; if l > 0 { t * shape.in_dim } else { 0 }];
            let start = ends[l] - shape.param_len();
            shape.backward(
                self.layer_param(l),
                xs_l,
                t,
                &cache.layer_caches[l],
                &mut dh,
                &mut grads[start..ends[l]],
                (l > 0).then_some(dxs.as_mut_slice()),
            );
            dh = dxs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::dot;

    #[test]
    fn gradient_check_two_layers() {
        let mut model = Gru::new(4, 5, 2, 11);
        let t = 5;
        let mut rng = seeded_rng(2);
        use rand::Rng;
        let xs: Vec<f32> = (0..t * 4).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let dout: Vec<f32> = (0..5).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let (_, cache) = model.forward(&xs, t);
        let mut grads = vec![0.0f32; model.params().len()];
        model.backward(&xs, &cache, &dout, &mut grads);

        let loss = |m: &Gru| {
            let (out, _) = m.forward(&xs, t);
            dot(&out, &dout)
        };
        let n = model.params().len();
        let mut idx = 1usize;
        let mut checked = 0;
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
            idx = idx * 2 + 3;
        }
    }

    #[test]
    fn gru_has_three_quarters_of_lstm_params() {
        let gru = Gru::new(8, 16, 1, 0).params().len();
        let lstm = crate::lstm::Lstm::new(8, 16, 1, 0).params().len();
        assert_eq!(gru * 4, lstm * 3);
    }

    #[test]
    fn forward_is_deterministic() {
        let m = Gru::new(3, 6, 2, 77);
        let xs = vec![0.25f32; 4 * 3];
        let (a, _) = m.forward(&xs, 4);
        let (b, _) = m.forward(&xs, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn streaming_matches_windowed_forward_bit_exactly() {
        let model = Gru::new(3, 8, 2, 9);
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
        assert_eq!(win_out, out);
    }

    #[test]
    fn state_reset_restores_determinism() {
        let model = Gru::new(2, 4, 1, 1);
        let x = [0.5f32, -0.25];
        let mut out1 = vec![0.0f32; 4];
        let mut out2 = vec![0.0f32; 4];
        let mut state = model.zero_state();
        model.step(&mut state, &x, &mut out1);
        state.reset();
        model.step(&mut state, &x, &mut out2);
        assert_eq!(out1, out2);
    }
}
