//! Long short-term memory layers — the paper's default foundation-model
//! architecture (a 2-layer unidirectional LSTM, Section III-D).
//!
//! [`Lstm`] is the shared multi-layer model of [`crate::rnn`] over the
//! LSTM cell: this file holds only the cell's math, the scalar
//! full-sequence passes and streaming step (the oracle), and the gate
//! and delta chunks of the batched passes.

use crate::rnn::{Cell, Recurrent, RecurrentBatchCache, RecurrentCache, RecurrentState, StepView};
// The fast activations are deliberate: every path (scalar step,
// full-sequence forward, batched forward, backward's cell-tanh
// recomputation) must call the *same* straight-line-arithmetic
// functions so batched inference stays bit-identical to scalar
// inference while its inner loops vectorize (see `tensor::tanh_apx`).
use crate::tensor::{
    for_lane_chunks, gemm_bm_acc, gemv_acc, gemv_t_acc, outer_acc, sigmoid_apx, tanh_apx,
};

/// Multi-layer unidirectional LSTM with contiguous parameters.
pub type Lstm = Recurrent<LstmLayerShape>;
/// Forward cache for [`Lstm::forward`].
pub type LstmCache = RecurrentCache<LstmLayerShape>;
/// Forward cache for [`Lstm::forward_batch_cached`].
pub type LstmBatchCache = RecurrentBatchCache;
/// Streaming state for a multi-layer LSTM: per layer, the hidden vector
/// and then the cell vector.
pub type LstmState = RecurrentState;

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

impl Cell for LstmLayerShape {
    const GATES: usize = 4;
    /// The hidden and the cell vector.
    const CARRIES: usize = 2;
    const HH_DELTAS: bool = false;
    type LayerCache = LstmLayerCache;

    fn shape(in_dim: usize, hidden: usize) -> LstmLayerShape {
        LstmLayerShape { in_dim, hidden }
    }

    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn hidden(&self) -> usize {
        self.hidden
    }

    /// Xavier weights, zero bias except the forget gate, which starts at
    /// 1.0 per standard practice.
    fn init(&self, w: &mut [f32], rng: &mut rand::rngs::StdRng) {
        let h = self.hidden;
        let (w_ih, w_hh, b) = self.split_mut(w);
        crate::init::xavier_uniform(w_ih, self.in_dim, 4 * h, rng);
        crate::init::xavier_uniform(w_hh, h, 4 * h, rng);
        b.fill(0.0);
        b[h..2 * h].fill(1.0); // forget-gate bias
    }

    fn step(&self, w: &[f32], x: &[f32], carry: &mut [f32]) {
        let h = self.hidden;
        let (h_state, c_state) = carry.split_at_mut(h);
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
    fn forward(&self, w: &[f32], xs: &[f32], t_steps: usize) -> LstmLayerCache {
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

    #[allow(clippy::too_many_arguments)]
    fn backward(
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

    fn hs(cache: &LstmLayerCache) -> &[f32] {
        &cache.hs
    }

    fn recur_step<const ALL: bool>(
        &self,
        w_hh: &[f32],
        t: usize,
        batch: usize,
        z: &mut [f32],
        [c_prev, c_new]: [&mut [f32]; 2],
        [h_prev, h_new]: [&mut [f32]; 2],
        acc: &mut [f32],
    ) {
        let (h, n) = (self.hidden, self.hidden * batch);
        if t > 0 {
            gemm_bm_acc(w_hh, h_prev, z, 4 * h, h, batch, acc);
        }
        let (zi, rest) = z.split_at_mut(n);
        let (zf, rest) = rest.split_at_mut(n);
        let (zg, zo) = rest.split_at_mut(n);
        // Per-k row slices, processed in fixed-width chunks: the
        // const-width inner body reliably compiles to SIMD (a
        // runtime-trip-count loop over this much straight-line math
        // does not survive every pass pipeline). The math per element
        // is identical at every width, so results never depend on the
        // chunking.
        for k in 0..h {
            let row = k * batch..(k + 1) * batch;
            let (zi, zf) = (&mut zi[row.clone()], &mut zf[row.clone()]);
            let (zg, zo) = (&mut zg[row.clone()], &mut zo[row.clone()]);
            let (cp, cn) = (&c_prev[row.clone()], &mut c_new[row.clone()]);
            let hn = &mut h_new[row];
            for_lane_chunks!(batch, s, LW => gates_chunk::<LW, ALL>(
                &mut zi[s..s + LW],
                &mut zf[s..s + LW],
                &mut zg[s..s + LW],
                &mut zo[s..s + LW],
                &cp[s..s + LW],
                &mut cn[s..s + LW],
                &mut hn[s..s + LW],
            ));
        }
    }

    /// The carried delta is the cell-state delta `dc`; `dh_rec` and `dhh`
    /// are unused.
    fn delta_step(
        &self,
        at: &StepView<'_>,
        batch: usize,
        dh_t: &[f32],
        dc_next: &mut [f32],
        _dh_rec: &mut [f32],
        dz: &mut [f32],
        _dhh: &mut [f32],
    ) {
        let (h, n) = (self.hidden, self.hidden * batch);
        let (dz_i, dz_rest) = dz.split_at_mut(n);
        let (dz_f, dz_rest) = dz_rest.split_at_mut(n);
        let (dz_g, dz_o) = dz_rest.split_at_mut(n);
        let row = |r: usize| r * batch..(r + 1) * batch;
        for k in 0..h {
            let g = at.gates;
            let (gi, gf) = (&g[row(k)], &g[row(h + k)]);
            let (gg, go) = (&g[row(2 * h + k)], &g[row(3 * h + k)]);
            let (cl, cp) = (&at.aux[row(k)], &at.aux_prev[row(k)]);
            let (dht, dcn) = (&dh_t[row(k)], &mut dc_next[row(k)]);
            let (dzi, dzf) = (&mut dz_i[row(k)], &mut dz_f[row(k)]);
            let (dzg, dzo) = (&mut dz_g[row(k)], &mut dz_o[row(k)]);
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
    }
}

/// One LSTM gate-activation chunk of compile-time width `L` (all
/// slices have length `L`). The element math is exactly the scalar
/// path's: `i,f,g,o` gates through the shared fast activations, then
/// `c = f·c_prev + i·g`, `h = o·tanh(c)`. With `KEEP` (a pass that keeps
/// every step for backward) the post-activation gates overwrite their
/// pre-activations in place.
#[inline]
fn gates_chunk<const L: usize, const KEEP: bool>(
    zi: &mut [f32],
    zf: &mut [f32],
    zg: &mut [f32],
    zo: &mut [f32],
    c_prev: &[f32],
    c_new: &mut [f32],
    h_new: &mut [f32],
) {
    for s in 0..L {
        let ig = sigmoid_apx(zi[s]);
        let fg = sigmoid_apx(zf[s]);
        let gg = tanh_apx(zg[s]);
        let og = sigmoid_apx(zo[s]);
        let c = fg * c_prev[s] + ig * gg;
        if KEEP {
            zi[s] = ig;
            zf[s] = fg;
            zg[s] = gg;
            zo[s] = og;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
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
