//! One multi-layer recurrent model over a cell: the LSTM and the GRU
//! (the recurrent architectures of the Figure 6 ablation) run the same
//! machinery and differ only in their cell's math.
//!
//! A [`Cell`] is one layer's shape and arithmetic: its gate count, its
//! parameter init, the scalar per-layer `step`/`forward`/`backward` (the
//! oracle every batched pass is bit-identical to), one layer-step of the
//! batched recurrence after the input projection, and one step of the
//! batch-major delta recursion. [`Recurrent`] is written once over it:
//! - the flat parameters and the scalar multi-layer passes;
//! - `recur`, the one batched forward kernel. Inference
//!   ([`Recurrent::forward_batch`], `Recurrent::forward_windows`) and
//!   training ([`Recurrent::forward_batch_cached`]) differ only in the
//!   `Columns` they pass and the depth of the step store;
//! - the lane split: a top-level training chunk runs its forward pass
//!   and its delta recursion as two lane halves on two threads
//!   ([`lane_split`]), then the two threads replay the parameter
//!   gradients split by gate rows;
//! - that replay, in the scalar order, skipping layer 0's zero input
//!   features.

use crate::init::seeded_rng;
use crate::parallel::lane_split;
use crate::tensor::{
    bm_to_seq, fill_rows_bm, gemm_bm_acc, gemm_bm_t_acc, outer_acc_seq, outer_acc_sparse,
    seq_to_bm, Nonzeros,
};
use crate::window::{store_slots, Columns, InputWeights, Window};
use std::panic::resume_unwind;
use std::sync::{Barrier, OnceLock};

/// One recurrent layer: its shape and its math. A layer's flat
/// parameters are `[W_ih (G·h x in) | W_hh (G·h x h) | b (G·h)]` with
/// `G =` [`Cell::GATES`] gate blocks of `h` rows each.
pub trait Cell: Copy + std::fmt::Debug + Send + Sync {
    /// Gate blocks per layer.
    const GATES: usize;
    /// State vectors of `h` entries a streaming step carries: the
    /// hidden state, then any the cell adds.
    const CARRIES: usize;
    /// Whether the `W_hh` gradient takes its own deltas, which
    /// [`Cell::delta_step`] writes to `dhh`, rather than the gate
    /// pre-activation deltas.
    const HH_DELTAS: bool;
    /// The activations [`Cell::forward`] keeps for [`Cell::backward`].
    type LayerCache: Clone + std::fmt::Debug;

    /// A layer of `hidden` units reading `in_dim` inputs per step.
    fn shape(in_dim: usize, hidden: usize) -> Self;
    /// Input features per step.
    fn in_dim(&self) -> usize;
    /// Hidden size.
    fn hidden(&self) -> usize;

    /// Number of parameters.
    fn param_len(&self) -> usize {
        let rows = Self::GATES * self.hidden();
        rows * (self.in_dim() + self.hidden()) + rows
    }

    /// `(W_ih, W_hh, b)` of a layer's parameters.
    fn split<'a>(&self, w: &'a [f32]) -> (&'a [f32], &'a [f32], &'a [f32]) {
        let rows = Self::GATES * self.hidden();
        let (w_ih, rest) = w.split_at(rows * self.in_dim());
        let (w_hh, b) = rest.split_at(rows * self.hidden());
        (w_ih, w_hh, b)
    }

    /// [`Cell::split`] of a mutable buffer (parameters or gradients).
    fn split_mut<'a>(&self, w: &'a mut [f32]) -> (&'a mut [f32], &'a mut [f32], &'a mut [f32]) {
        let rows = Self::GATES * self.hidden();
        let (w_ih, rest) = w.split_at_mut(rows * self.in_dim());
        let (w_hh, b) = rest.split_at_mut(rows * self.hidden());
        (w_ih, w_hh, b)
    }

    /// Initialize a layer's parameters.
    fn init(&self, w: &mut [f32], rng: &mut rand::rngs::StdRng);

    /// One streaming step from input `x`: `carry` holds the
    /// [`Cell::CARRIES`] state vectors, the hidden state first.
    fn step(&self, w: &[f32], x: &[f32], carry: &mut [f32]);

    /// Full-sequence forward over `xs` (`T x in_dim`).
    fn forward(&self, w: &[f32], xs: &[f32], t_steps: usize) -> Self::LayerCache;

    /// The hidden states (`T x h`) in a [`Cell::forward`] cache.
    fn hs(cache: &Self::LayerCache) -> &[f32];

    /// Full-sequence backward. `dh` is `T x h`: the gradient w.r.t. each
    /// step's hidden output injected from above (consumed in place).
    /// Parameter gradients are accumulated into `grads`; input gradients
    /// into `dxs` (`T x in`) when given (the bottom layer's input
    /// gradient has no reader).
    #[allow(clippy::too_many_arguments)]
    fn backward(
        &self,
        w: &[f32],
        xs: &[f32],
        t_steps: usize,
        cache: &Self::LayerCache,
        dh: &mut [f32],
        grads: &mut [f32],
        dxs: Option<&mut [f32]>,
    );

    /// Step `t` of this layer in the batched recurrence, all matrices
    /// batch-major (`rows x batch`). `z` holds the step's `b + W_ih x`;
    /// the step adds its recurrent term (skipped at `t = 0`, see
    /// [`Recurrent`]'s `recur`) and writes the new second state and
    /// hidden state into the second slices of `aux` and `hs`, whose
    /// first slices hold the previous step's. With `ALL` (a pass that
    /// keeps every step for backward) the post-activation gates
    /// overwrite `z`. `acc` is a `batch`-long gemm scratch row.
    #[allow(clippy::too_many_arguments)]
    fn recur_step<const ALL: bool>(
        &self,
        w_hh: &[f32],
        t: usize,
        batch: usize,
        z: &mut [f32],
        aux: [&mut [f32]; 2],
        hs: [&mut [f32]; 2],
        acc: &mut [f32],
    );

    /// One step of the batch-major delta recursion (the lockstep mirror
    /// of [`Cell::backward`]'s step): from the step's activations `at`
    /// and its total hidden-state gradient `dh_t`, write the gate
    /// pre-activation deltas `dz` (and with [`Cell::HH_DELTAS`] the
    /// `W_hh` deltas `dhh`). `carry` (`h x batch`, zero at the last
    /// step) is the cell's own running delta; `dh_rec` arrives zeroed
    /// and takes any direct part of the previous step's hidden-state
    /// gradient (the `W_hh` part is added after the call). Each lane
    /// follows the scalar operation sequence exactly.
    #[allow(clippy::too_many_arguments)]
    fn delta_step(
        &self,
        at: &StepView<'_>,
        batch: usize,
        dh_t: &[f32],
        carry: &mut [f32],
        dh_rec: &mut [f32],
        dz: &mut [f32],
        dhh: &mut [f32],
    );
}

/// Batch-major activations of one layer of a batched pass: its step
/// store. Row `r` of step slot `t` lives at
/// `t * rows * batch + r * batch + s` for lane `s`. Training keeps
/// every step, inference a ring of two (see [`store_slots`]).
#[derive(Debug, Clone)]
struct LayerStore {
    /// `slots x G·h x batch`: post-activation gates (kept only with
    /// every step).
    gates: Vec<f32>,
    /// `slots x h x batch`: the cell's second state (the LSTM's cell
    /// states, the GRU's `U_n h` products).
    aux: Vec<f32>,
    /// `slots x h x batch`: hidden states (the next layer's inputs).
    hs: Vec<f32>,
}

/// Step `t` of a training pass's step store as [`Cell::delta_step`]
/// reads it, each slice batch-major; the previous step's states are all
/// zero at `t = 0`.
pub struct StepView<'a> {
    /// Post-activation gates (`G·h x batch`).
    pub gates: &'a [f32],
    /// The second state (`h x batch`).
    pub aux: &'a [f32],
    /// The previous step's second state.
    pub aux_prev: &'a [f32],
    /// The previous step's hidden state.
    pub hs_prev: &'a [f32],
}

/// Multi-layer unidirectional recurrent model with contiguous
/// parameters (layer 0 first).
#[derive(Debug, Clone)]
pub struct Recurrent<C: Cell> {
    layers: Vec<C>,
    params: Vec<f32>,
}

/// Forward cache for [`Recurrent::forward`].
#[derive(Debug, Clone)]
pub struct RecurrentCache<C: Cell> {
    layer_caches: Vec<C::LayerCache>,
    t_steps: usize,
}

/// Streaming state of a multi-layer recurrent model: per layer, the
/// [`Cell::CARRIES`] state vectors, the hidden state first.
#[derive(Debug, Clone)]
pub struct RecurrentState {
    layers: Vec<Vec<f32>>,
}

impl RecurrentState {
    /// Reset all state to zero.
    pub fn reset(&mut self) {
        for v in &mut self.layers {
            v.fill(0.0);
        }
    }
}

/// The activations of one lane part of a batched pass: lanes
/// `start..start + batch` of the caller's batch, laid out exactly as a
/// standalone batch of those lanes.
#[derive(Debug, Clone)]
struct LanePart {
    start: usize,
    batch: usize,
    layers: Vec<LayerStore>,
}

/// Forward cache for [`Recurrent::forward_batch_cached`].
#[derive(Debug, Clone)]
pub struct RecurrentBatchCache {
    /// One lane part, or two when the pass ran as two lane halves.
    parts: Vec<LanePart>,
    t_steps: usize,
    batch: usize,
}

impl RecurrentBatchCache {
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
/// replay, indexed by layer: the pre-activation deltas, the `W_hh`
/// deltas when the cell has its own ([`Cell::HH_DELTAS`], else empty),
/// and the hidden states, sequence-major (`batch x T x h`). The deltas
/// are `T x G·h x batch`, except layer 0's: sequence-major
/// (`batch x T x G·h`) for its sparse `W_ih` replay, which also reads
/// the nonzero features of the part's inputs, one list per feature
/// (`x0`, entry `(s * T + t, x)` in the canonical order: sequence
/// ascending, timestep descending).
struct PartDeltas {
    dz: Vec<Vec<f32>>,
    dhh: Vec<Vec<f32>>,
    hs: Vec<Vec<f32>>,
    x0: Nonzeros,
}

/// A layer's input, as its `W_ih` replay reads it.
enum ReplayInput<'a> {
    /// Sequence-major `batch x T x in_dim`, replayed densely; the
    /// deltas are `T x G·h x batch`.
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

impl<C: Cell> Recurrent<C> {
    /// Build an `n_layers`-deep model mapping `in_dim` inputs to a
    /// `hidden`-dimensional final state.
    pub fn new(in_dim: usize, hidden: usize, n_layers: usize, seed: u64) -> Recurrent<C> {
        assert!(n_layers >= 1);
        let layers: Vec<C> = (0..n_layers)
            .map(|l| C::shape(if l == 0 { in_dim } else { hidden }, hidden))
            .collect();
        let total: usize = layers.iter().map(|l| l.param_len()).sum();
        let mut params = vec![0.0f32; total];
        let mut rng = seeded_rng(seed);
        let mut off = 0;
        for l in &layers {
            l.init(&mut params[off..off + l.param_len()], &mut rng);
            off += l.param_len();
        }
        Recurrent { layers, params }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output (hidden) dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().hidden()
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

    /// Layer `l`'s share of the flat parameters (and of a gradient).
    fn layer_range(&self, l: usize) -> std::ops::Range<usize> {
        let off: usize = self.layers[..l].iter().map(|s| s.param_len()).sum();
        off..off + self.layers[l].param_len()
    }

    fn layer_param(&self, l: usize) -> &[f32] {
        &self.params[self.layer_range(l)]
    }

    /// Fresh zeroed streaming state.
    pub fn zero_state(&self) -> RecurrentState {
        let carry = |l: &C| vec![0.0; C::CARRIES * l.hidden()];
        RecurrentState {
            layers: self.layers.iter().map(carry).collect(),
        }
    }

    /// One streaming step: feed `x`, update `state`, and write the top
    /// layer's hidden vector into `out`.
    pub fn step(&self, state: &mut RecurrentState, x: &[f32], out: &mut [f32]) {
        let mut input = x.to_vec();
        for (l, (shape, carry)) in self.layers.iter().zip(&mut state.layers).enumerate() {
            shape.step(self.layer_param(l), &input, carry);
            input.clear();
            input.extend_from_slice(&carry[..shape.hidden()]);
        }
        out.copy_from_slice(&input);
    }

    /// Full-sequence forward over `xs` (`T x in_dim`); returns the final
    /// hidden vector and the cache for backward.
    pub fn forward(&self, xs: &[f32], t_steps: usize) -> (Vec<f32>, RecurrentCache<C>) {
        let mut layer_caches = Vec::with_capacity(self.layers.len());
        let mut input: Vec<f32> = xs.to_vec();
        for (l, shape) in self.layers.iter().enumerate() {
            let cache = shape.forward(self.layer_param(l), &input, t_steps);
            input = C::hs(&cache).to_vec();
            layer_caches.push(cache);
        }
        let h = self.out_dim();
        let out = input[(t_steps - 1) * h..t_steps * h].to_vec();
        (
            out,
            RecurrentCache {
                layer_caches,
                t_steps,
            },
        )
    }

    /// Backward from a gradient `dout` w.r.t. the final hidden vector;
    /// accumulates into `grads` (same length as [`Recurrent::params`]).
    pub fn backward(&self, xs: &[f32], cache: &RecurrentCache<C>, dout: &[f32], grads: &mut [f32]) {
        let t = cache.t_steps;
        let h_top = self.out_dim();
        // dh for the top layer: only the last step receives dout.
        let mut dh = vec![0.0f32; t * h_top];
        dh[(t - 1) * h_top..].copy_from_slice(dout);
        for l in (0..self.layers.len()).rev() {
            let shape = self.layers[l];
            let xs_l: &[f32] = if l == 0 {
                xs
            } else {
                C::hs(&cache.layer_caches[l - 1])
            };
            // The bottom layer's input gradient has no reader.
            let mut dxs = vec![0.0f32; if l > 0 { t * shape.in_dim() } else { 0 }];
            shape.backward(
                self.layer_param(l),
                xs_l,
                t,
                &cache.layer_caches[l],
                &mut dh,
                &mut grads[self.layer_range(l)],
                (l > 0).then_some(dxs.as_mut_slice()),
            );
            dh = dxs; // becomes the injected dh for the layer below
        }
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
    /// performed in exactly the order of [`Recurrent::forward`], so each
    /// output is bit-identical to an independent `forward` call.
    pub fn forward_batch(&self, xs: &[f32], t_steps: usize, batch: usize) -> Vec<f32> {
        assert!(batch >= 1);
        let cols = Columns::every_slot(xs, t_steps, batch, self.in_dim());
        self.recur::<false>(&self.input_weights(), &cols, t_steps).0
    }

    /// [`Recurrent::forward_batch`] over `windows` of `t_steps` steps
    /// each (see [`crate::window`]), without copying them out: each
    /// distinct row is projected through layer 0's input weights once,
    /// and every window containing it reads the projected column. Each
    /// output is bit-identical to [`Recurrent::forward`] on the filled
    /// window.
    pub(crate) fn forward_windows(&self, windows: &[Window<'_>], t_steps: usize) -> Vec<f32> {
        assert!(!windows.is_empty());
        let cols = Columns::distinct(windows, t_steps, self.in_dim());
        self.recur::<false>(&self.input_weights(), &cols, t_steps).0
    }

    /// Layer 0's input weights and bias, as the projection reads them.
    fn input_weights(&self) -> InputWeights<'_> {
        let (w_ih, _, b) = self.layers[0].split(self.layer_param(0));
        InputWeights::new(w_ih, b)
    }

    /// The batched recurrence: the one forward kernel of
    /// [`Recurrent::forward_batch`], [`Recurrent::forward_windows`] and
    /// each lane part of [`Recurrent::forward_batch_cached`]. Returns the
    /// top layer's last hidden state (sequence-major, `batch x hidden`)
    /// and the step store: every step with `ALL` (training), else a ring
    /// of two steps' second and hidden states. Layer 0 reads `cols`,
    /// which choose how its `b + W_ih x` is projected (`w_ih0` is
    /// [`Recurrent::input_weights`]); each cell's
    /// [`Cell::recur_step`] does the rest of a layer's step.
    ///
    /// Per lane, a scalar step computes `z = (b + W_ih x) + W_hh h`,
    /// each product sum its own chain from +0.0; layer 0's projection
    /// is that chain's exact prefix. At `t = 0`, where `h` is zero, the
    /// `W_hh h` term is skipped: with finite weights it is +0.0, and `z`
    /// is never −0.0 (in round-to-nearest a sum is −0.0 only when both
    /// terms are, and the product sum starts from +0.0), so adding it
    /// changes no bit; a product the GRU keeps apart (`U_n h`) is then
    /// the +0.0 a zero-state gemm leaves.
    fn recur<const ALL: bool>(
        &self,
        w_ih0: &InputWeights<'_>,
        cols: &Columns<'_>,
        t_steps: usize,
    ) -> (Vec<f32>, Vec<LayerStore>) {
        let batch = cols.batch;
        let slots = store_slots(ALL, t_steps);
        let mut store: Vec<LayerStore> = self
            .layers
            .iter()
            .map(|l| {
                let n = l.hidden() * batch;
                LayerStore {
                    gates: vec![0.0; if ALL { slots * C::GATES * n } else { 0 }],
                    aux: vec![0.0; slots * n],
                    hs: vec![0.0; slots * n],
                }
            })
            .collect();
        // Step `t`'s pre-activations are computed in its gate slot, or
        // for a ring store in one scratch buffer all layers share.
        let h_max = self.layers.iter().map(|l| l.hidden()).max().unwrap();
        let mut scratch = vec![0.0f32; if ALL { 0 } else { C::GATES * h_max * batch }];
        let x0 = cols.input(w_ih0);
        let mut acc = vec![0.0f32; batch];
        for t in 0..t_steps {
            let (prev, cur) = ((t + slots - 1) % slots, t % slots);
            for (l, shape) in self.layers.iter().enumerate() {
                let rows = C::GATES * shape.hidden();
                let (n, m) = (shape.hidden() * batch, rows * batch);
                let (w_ih, w_hh, b) = shape.split(self.layer_param(l));
                let (below, this) = store.split_at_mut(l);
                let LayerStore { gates, aux, hs } = &mut this[0];
                let z = if ALL {
                    &mut gates[cur * m..][..m]
                } else {
                    &mut scratch[..m]
                };
                if l == 0 {
                    x0.step(t, z);
                } else {
                    let k = shape.in_dim() * batch;
                    fill_rows_bm(z, b, batch);
                    let x = &below[l - 1].hs[cur * k..][..k];
                    gemm_bm_acc(w_ih, x, z, rows, shape.in_dim(), batch, &mut acc);
                }
                let slot = || [prev * n..(prev + 1) * n, cur * n..(cur + 1) * n];
                let two = "a store keeps at least two slots";
                let aux = aux.get_disjoint_mut(slot()).expect(two);
                let hs = hs.get_disjoint_mut(slot()).expect(two);
                shape.recur_step::<ALL>(w_hh, t, batch, z, aux, hs, &mut acc);
            }
        }
        let d = self.out_dim();
        let last = (t_steps - 1) % slots;
        let top = &store[self.layers.len() - 1].hs[last * d * batch..][..d * batch];
        let mut out = vec![0.0f32; batch * d];
        bm_to_seq(top, &mut out, d, batch);
        (out, store)
    }

    /// Forward multiply-adds of a batched pass (the work [`lane_split`]
    /// weighs).
    fn forward_macs(&self, t_steps: usize, batch: usize) -> usize {
        let per_step: usize = self
            .layers
            .iter()
            .map(|l| C::GATES * l.hidden() * (l.in_dim() + l.hidden()))
            .sum();
        batch * t_steps * per_step
    }

    /// Batched full-sequence forward that also retains every layer's
    /// batch-major activations for [`Recurrent::backward_batch`].
    ///
    /// The same recurrence as [`Recurrent::forward_batch`], keeping
    /// every step, so each output (and every cached activation) is
    /// bit-identical to an independent [`Recurrent::forward`] call on
    /// that sequence. When [`lane_split`] says so, the two lane halves
    /// run on two threads; lanes never interact, so the split changes
    /// no result.
    pub fn forward_batch_cached(
        &self,
        xs: &[f32],
        t_steps: usize,
        batch: usize,
    ) -> (Vec<f32>, RecurrentBatchCache) {
        let in_dim = self.in_dim();
        assert_eq!(xs.len(), batch * t_steps * in_dim);
        assert!(batch >= 1);
        let w_ih0 = self.input_weights();
        // Lanes `start..start + batch`, each step projected from its own
        // column of `xs`.
        let part = |start: usize, batch: usize| {
            let xs = &xs[start * t_steps * in_dim..(start + batch) * t_steps * in_dim];
            let cols = Columns::every_slot(xs, t_steps, batch, in_dim);
            let (out, layers) = self.recur::<true>(&w_ih0, &cols, t_steps);
            (
                out,
                LanePart {
                    start,
                    batch,
                    layers,
                },
            )
        };
        let (out, parts) = match lane_split(batch, self.forward_macs(t_steps, batch)) {
            None => {
                let (out, p) = part(0, batch);
                (out, vec![p])
            }
            Some(mid) => std::thread::scope(|sc| {
                let hi = sc.spawn(|| part(mid, batch - mid));
                let (mut out, lo) = part(0, mid);
                let (out_hi, hi) = hi.join().unwrap_or_else(|e| resume_unwind(e));
                out.extend_from_slice(&out_hi);
                (out, vec![lo, hi])
            }),
        };
        (
            out,
            RecurrentBatchCache {
                parts,
                t_steps,
                batch,
            },
        )
    }

    /// Batch-major BPTT from per-sequence gradients `douts`
    /// (sequence-major `batch x hidden`, the gradient w.r.t. each
    /// sequence's final hidden vector); accumulates into `grads`.
    ///
    /// The accumulated gradients are bit-identical to running the
    /// scalar [`Recurrent::backward`] once per sequence, in batch order,
    /// into the same buffer. Each lane part runs its delta recursion
    /// through every layer; then the parameter gradients are replayed
    /// in the scalar order (`Recurrent::replay_rows`). A forward pass
    /// that ran as two lane halves runs its backward on the same two
    /// threads: each recurses through its own half, and after one
    /// barrier each replays half of every layer's gate rows over both
    /// halves.
    ///
    /// The replay leaves out updates whose every term is ±0.0: layer
    /// 0's `W_ih` terms of zero input features
    /// (`tensor::outer_acc_sparse`), and the `W_hh` update at `t = 0`
    /// over the zero initial state, which the LSTM oracle skips and the
    /// GRU oracle adds. That is exact under one precondition, which
    /// every caller meets by passing zeroed or accumulated gradients: no
    /// entry of `grads` starts at −0.0.
    pub fn backward_batch(
        &self,
        xs: &[f32],
        cache: &RecurrentBatchCache,
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
        seq_to_bm(douts, &mut dh[(t - 1) * h_top * batch..], h_top, batch);
        let mut dz = vec![Vec::new(); self.layers.len()];
        let mut dhh = vec![Vec::new(); self.layers.len()];
        for l in (0..self.layers.len()).rev() {
            let in_l = self.layers[l].in_dim();
            let mut dxs = vec![0.0f32; if l > 0 { t * in_l * batch } else { 0 }];
            (dz[l], dhh[l]) = self.layer_deltas(
                l,
                t,
                batch,
                &part.layers[l],
                &mut dh,
                (l > 0).then_some(dxs.as_mut_slice()),
            );
            dh = dxs;
        }
        // The replay reads each (sequence, timestep) hidden vector whole.
        let hs = part
            .layers
            .iter()
            .zip(&self.layers)
            .map(|(c, shape)| {
                let h = shape.hidden();
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
        PartDeltas { dz, dhh, hs, x0 }
    }

    /// Batch-major delta recursion of layer `l` over its step `store`
    /// (the lockstep mirror of [`Cell::backward`]'s recursion).
    ///
    /// `dh` is `T x h x batch` (consumed in place); input gradients are
    /// accumulated into `dxs` (`T x in x batch`) when given. Returns
    /// every timestep's pre-activation deltas and, with
    /// [`Cell::HH_DELTAS`], its `W_hh` deltas (else an empty vector),
    /// for [`Recurrent::replay_rows`]: `T x G·h x batch`, or for layer 0
    /// `batch x T x G·h` (one contiguous delta vector per update,
    /// transposed a step at a time while the step is in cache). Lane
    /// deltas follow the scalar operation sequence exactly.
    fn layer_deltas(
        &self,
        l: usize,
        t_steps: usize,
        batch: usize,
        store: &LayerStore,
        dh: &mut [f32],
        mut dxs: Option<&mut [f32]>,
    ) -> (Vec<f32>, Vec<f32>) {
        let shape = self.layers[l];
        let (h, i_dim) = (shape.hidden(), shape.in_dim());
        let (w_ih, w_hh, _) = shape.split(self.layer_param(l));
        let rows = C::GATES * h;
        let (n, m) = (h * batch, rows * batch);
        let seq_major = l == 0;
        let hh = if C::HH_DELTAS { m } else { 0 };
        let (mut dzs, mut dhhs) = (vec![0.0f32; t_steps * m], vec![0.0f32; t_steps * hh]);
        // A sequence-major pass computes each step in `step` first.
        let mut step = vec![0.0f32; if seq_major { m + hh } else { 0 }];
        let (mut carry, mut dh_rec, zeros) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
        for t in (0..t_steps).rev() {
            let dh_t = &mut dh[t * n..(t + 1) * n];
            for (d, r) in dh_t.iter_mut().zip(&dh_rec) {
                *d += r;
            }
            dh_rec.fill(0.0);
            let (dz, dhh) = if seq_major {
                step.split_at_mut(m)
            } else {
                (
                    &mut dzs[t * m..(t + 1) * m],
                    &mut dhhs[t * hh..(t + 1) * hh],
                )
            };
            let (aux_prev, hs_prev) = match t {
                0 => (&zeros[..], &zeros[..]),
                _ => (
                    &store.aux[(t - 1) * n..t * n],
                    &store.hs[(t - 1) * n..t * n],
                ),
            };
            let at = StepView {
                gates: &store.gates[t * m..(t + 1) * m],
                aux: &store.aux[t * n..(t + 1) * n],
                aux_prev,
                hs_prev,
            };
            shape.delta_step(&at, batch, dh_t, &mut carry, &mut dh_rec, dz, dhh);
            if let Some(dxs) = dxs.as_deref_mut() {
                let dx = &mut dxs[t * i_dim * batch..(t + 1) * i_dim * batch];
                gemm_bm_t_acc(w_ih, dz, dx, rows, i_dim, batch);
            }
            if t > 0 {
                let d = if C::HH_DELTAS { &*dhh } else { &*dz };
                gemm_bm_t_acc(w_hh, d, &mut dh_rec, rows, h, batch);
            }
            if seq_major {
                let (dz, dhh) = step.split_at(m);
                for s in 0..batch {
                    let at = (s * t_steps + t) * rows;
                    for (r, d) in dzs[at..at + rows].iter_mut().enumerate() {
                        *d = dz[r * batch + s];
                    }
                    if C::HH_DELTAS {
                        for (r, d) in dhhs[at..at + rows].iter_mut().enumerate() {
                            *d = dhh[r * batch + s];
                        }
                    }
                }
            }
        }
        (dzs, dhhs)
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
            let (h, i_dim) = (shape.hidden(), shape.in_dim());
            let rows = C::GATES * h;
            let mid = if split { rows / 2 } else { rows };
            let (ih, hh, b) = shape.split_mut(g);
            let (ih0, ih1) = ih.split_at_mut(mid * i_dim);
            let (hh0, hh1) = hh.split_at_mut(mid * h);
            let (b0, b1) = b.split_at_mut(mid);
            lo.push(GradRows {
                first: 0,
                ih: ih0,
                hh: hh0,
                b: b0,
            });
            hi.push(GradRows {
                first: mid,
                ih: ih1,
                hh: hh1,
                b: b1,
            });
        }
        (lo, hi)
    }

    /// Replay every layer's parameter gradients for the gate rows in
    /// `rows` (one share per layer) over the lane parts in lane order;
    /// `deltas[p]` is part `p`'s [`Recurrent::part_deltas`].
    fn replay_parts(
        &self,
        cache: &RecurrentBatchCache,
        deltas: &[&PartDeltas],
        rows: &mut [GradRows<'_>],
    ) {
        let t = cache.t_steps;
        for (l, g) in rows.iter_mut().enumerate() {
            for (p, d) in cache.parts.iter().zip(deltas) {
                let x = if l == 0 {
                    ReplayInput::Sparse(&d.x0)
                } else {
                    ReplayInput::Dense(&d.hs[l - 1])
                };
                let dhh = if C::HH_DELTAS { &d.dhh[l] } else { &d.dz[l] };
                self.replay_rows(l, x, &d.hs[l], t, p.batch, &d.dz[l], dhh, g);
            }
        }
    }

    /// Accumulate one lane part's parameter gradients of layer `l` for
    /// the gate rows of `g`, given the part's deltas from
    /// [`Recurrent::layer_deltas`] (`dzs`, and the `W_hh` deltas `dhhs`,
    /// laid out alike), its layer inputs `x` and its hidden states `hs`
    /// (sequence-major, `batch x T x h`): per sequence (ascending), per
    /// timestep (descending), exactly the scalar path's rank-1 updates
    /// ([`crate::tensor::outer_acc`] order, zero-skip included, replayed
    /// by [`outer_acc_seq`]) and bias adds. A sparse input leaves out
    /// the `W_ih` terms of its zero features ([`outer_acc_sparse`]), and
    /// the `W_hh` update at `t = 0` is left out (both exact while no
    /// gradient entry starts at −0.0).
    ///
    /// Every gradient entry is its own accumulation chain, so replaying
    /// a subset of the rows, or the lane parts one after the other,
    /// leaves each entry bit-identical to the scalar backward run once
    /// per sequence in batch order.
    #[allow(clippy::too_many_arguments)]
    fn replay_rows(
        &self,
        l: usize,
        x: ReplayInput<'_>,
        hs: &[f32],
        t_steps: usize,
        batch: usize,
        dzs: &[f32],
        dhhs: &[f32],
        g: &mut GradRows<'_>,
    ) {
        let shape = self.layers[l];
        let (h, i_dim) = (shape.hidden(), shape.in_dim());
        let rows = C::GATES * h;
        // Update (s, t) reads delta row `r` at `dz_at(s, t) + r * stride`.
        let seq_major = matches!(x, ReplayInput::Sparse(_));
        let stride = if seq_major { 1 } else { batch };
        let dz_at = |s: usize, t: usize| {
            if seq_major {
                (s * t_steps + t) * rows + g.first
            } else {
                (t * rows + g.first) * batch + s
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
            ReplayInput::Sparse(x) => outer_acc_sparse(g.ih, i_dim, x, &dzs[g.first..], rows),
        }
        outer_acc_seq(g.hh, h, &hh_items, dhhs, stride, hs);
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
