//! Gated recurrent unit layers (one of the Figure 6 ablation
//! architectures).
//!
//! [`Gru`] is the shared multi-layer model of [`crate::rnn`] over the
//! GRU cell: this file holds only the cell's math, the scalar
//! full-sequence passes and streaming step (the oracle), and the gate
//! and delta chunks of the batched passes.

use crate::rnn::{Cell, Recurrent, RecurrentBatchCache, RecurrentCache, RecurrentState, StepView};
// Fast activations by design: scalar and batched paths share the same
// straight-line-arithmetic functions so batched inference stays
// bit-identical to scalar inference while its inner loops vectorize
// (see `tensor::tanh_apx`).
use crate::tensor::{
    for_lane_chunks, gemm_bm_acc, gemv_acc, gemv_t_acc, outer_acc, sigmoid_apx, tanh_apx,
};

/// Multi-layer GRU with contiguous parameters.
pub type Gru = Recurrent<GruLayerShape>;
/// Forward cache for [`Gru::forward`].
pub type GruCache = RecurrentCache<GruLayerShape>;
/// Forward cache for [`Gru::forward_batch_cached`].
pub type GruBatchCache = RecurrentBatchCache;
/// Streaming hidden state for a multi-layer GRU (the GRU is stateful by
/// construction, so it supports the same single-pass fast path as the
/// LSTM).
pub type GruState = RecurrentState;

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

impl Cell for GruLayerShape {
    const GATES: usize = 3;
    /// The hidden vector.
    const CARRIES: usize = 1;
    /// The `W_hn` rows take `dn·r`, not the candidate's pre-activation
    /// delta.
    const HH_DELTAS: bool = true;
    type LayerCache = GruLayerCache;

    fn shape(in_dim: usize, hidden: usize) -> GruLayerShape {
        GruLayerShape { in_dim, hidden }
    }

    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn hidden(&self) -> usize {
        self.hidden
    }

    /// Initialize parameters.
    fn init(&self, w: &mut [f32], rng: &mut rand::rngs::StdRng) {
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
    fn step(&self, w: &[f32], x: &[f32], h_state: &mut [f32]) {
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
    fn forward(&self, w: &[f32], xs: &[f32], t_steps: usize) -> GruLayerCache {
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

    fn hs(cache: &GruLayerCache) -> &[f32] {
        &cache.hs
    }

    #[allow(clippy::too_many_arguments)]
    fn backward(
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

    /// The second state is `U_n h`.
    fn recur_step<const ALL: bool>(
        &self,
        w_hh: &[f32],
        t: usize,
        batch: usize,
        z: &mut [f32],
        [_, un]: [&mut [f32]; 2],
        [h_prev, h_new]: [&mut [f32]; 2],
        acc: &mut [f32],
    ) {
        let (h, n) = (self.hidden, self.hidden * batch);
        let (w_hr, rest) = w_hh.split_at(h * h);
        let (w_hz, w_hn) = rest.split_at(h * h);
        un.fill(0.0);
        let (zr, rest) = z.split_at_mut(n);
        let (zz, zn) = rest.split_at_mut(n);
        if t > 0 {
            gemm_bm_acc(w_hr, h_prev, zr, h, h, batch, acc);
            gemm_bm_acc(w_hz, h_prev, zz, h, h, batch, acc);
            gemm_bm_acc(w_hn, h_prev, un, h, h, batch, acc);
        }
        // Per-k row slices, processed in fixed-width chunks so the gate
        // math reliably compiles to SIMD (see the LSTM's `gates_chunk`);
        // identical math at any width.
        for k in 0..h {
            let row = k * batch..(k + 1) * batch;
            let (zr, zz) = (&mut zr[row.clone()], &mut zz[row.clone()]);
            let zn = &mut zn[row.clone()];
            let (un_row, hp) = (&un[row.clone()], &h_prev[row.clone()]);
            let hn = &mut h_new[row];
            for_lane_chunks!(batch, s, LW => gru_gates_chunk::<LW, ALL>(
                &mut zr[s..s + LW],
                &mut zz[s..s + LW],
                &mut zn[s..s + LW],
                &un_row[s..s + LW],
                &hp[s..s + LW],
                &mut hn[s..s + LW],
            ));
        }
    }

    /// `dh_rec` takes the direct `z·dh` term and `dhh` is
    /// `[dz_r, dz_z, dn·r]`; `carry` is unused.
    fn delta_step(
        &self,
        at: &StepView<'_>,
        batch: usize,
        dh_t: &[f32],
        _carry: &mut [f32],
        dh_rec: &mut [f32],
        dz: &mut [f32],
        dhh: &mut [f32],
    ) {
        let (h, n) = (self.hidden, self.hidden * batch);
        let (dz_r, dz_rest) = dz.split_at_mut(n);
        let (dz_z, dz_n) = dz_rest.split_at_mut(n);
        let dn_un = &mut dhh[2 * n..];
        let row = |r: usize| r * batch..(r + 1) * batch;
        for k in 0..h {
            let g = at.gates;
            let (gr, gz, gn) = (&g[row(k)], &g[row(h + k)], &g[row(2 * h + k)]);
            let (un_row, hp) = (&at.aux[row(k)], &at.hs_prev[row(k)]);
            let (dht, dhr, dnu) = (&dh_t[row(k)], &mut dh_rec[row(k)], &mut dn_un[row(k)]);
            let (dzr, dzz, dzn) = (&mut dz_r[row(k)], &mut dz_z[row(k)], &mut dz_n[row(k)]);
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
        dhh[..2 * n].copy_from_slice(&dz[..2 * n]);
    }
}

/// One GRU gate-activation chunk of compile-time width `L` (all slices
/// have length `L`); element math identical to the scalar path:
/// `r,z` sigmoids, `n = tanh(z_n + r·(U_n h_prev))`,
/// `h = (1-z)n + z·h_prev`. With `KEEP` (a pass that keeps every step
/// for backward) the post-activation gates overwrite their
/// pre-activations in place.
#[inline]
fn gru_gates_chunk<const L: usize, const KEEP: bool>(
    zr: &mut [f32],
    zz: &mut [f32],
    zn: &mut [f32],
    un_row: &[f32],
    h_prev: &[f32],
    h_new: &mut [f32],
) {
    for s in 0..L {
        let r = sigmoid_apx(zr[s]);
        let z = sigmoid_apx(zz[s]);
        let n = tanh_apx(zn[s] + r * un_row[s]);
        if KEEP {
            zr[s] = r;
            zz[s] = z;
            zn[s] = n;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
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
