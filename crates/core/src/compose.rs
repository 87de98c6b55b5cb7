//! Composing program representations from instruction representations
//! (Section III-B).
//!
//! The paper's central theorem: with a bias-free linear predictor and an
//! integrable target (incremental latency), the representation of a
//! program is the **sum** of the representations of its executed
//! instructions, so total time is `R_p . M`.
//!
//! Instruction representations are independent of one another, so
//! representing instructions is batch-shaped inference. Every windowed
//! consumer — program representations, serving's coalesced batches,
//! the table refit ([`crate::refit`]), the trainer's validation loss
//! and fine-tuning's representation cache — runs through one block
//! generator: up to [`LANE_WIDTH`] windows, named as `(features,
//! instruction)` pairs and never copied out, go through a single
//! [`perfvec_ml::seq::SeqModel::forward_windows`], blocks run in
//! parallel, and the rows come back in instruction order. Each batched
//! row is bit-identical to a scalar `forward` call
//! ([`Foundation::repr_at`], the oracle the tests compare against),
//! and each caller folds the rows in its fixed order, so every sum is
//! reproducible bit-for-bit on any core count.
//!
//! **Project once, recur per window.** Each instruction sits in
//! `context + 1` overlapping windows. For LSTM and GRU the block's
//! distinct instructions (plus one all-zero column for the padding
//! slots before instruction 0) are projected through layer 0's input
//! weights once, `b + W_ih·x`, and each window's recurrence reads those
//! columns and adds only `W_hh·h`; a block of consecutive windows
//! projects `block + context` columns instead of
//! `block × (context + 1)`. Two facts keep this exact:
//! - *Projection.* Per lane, a scalar step's pre-activation is one
//!   fixed chain, `b + Σ_k w·x` (ascending `k`, from +0.0), then
//!   `+ Σ_k w·h`. The batched gemm's per-lane result depends on neither
//!   batch width nor lane position, so a projected column is exactly
//!   that chain's prefix.
//! - *Skip at `t = 0`.* The recurrent gemm is skipped where `h` is zero.
//!   In round-to-nearest a sum is −0.0 only when both terms are. The
//!   product sum starts from +0.0, so neither it nor `b +` it is ever
//!   −0.0, and adding the zero-state gemm's +0.0 (finite weights)
//!   changes no bit.
//!
//! The other architectures fill their windows and run the plain batched
//! forward.
//!
//! A stateful streaming generator (LSTM and GRU only) is an
//! approximation with different semantics: one recurrent step per
//! instruction, with chunk-level parallelism and warmup context.

use crate::foundation::Foundation;
use perfvec_ml::parallel::{parallel_map, LANE_WIDTH};
use perfvec_ml::window::Window;
use perfvec_trace::features::Matrix;

/// Instructions summed per accumulator before folding into the total.
///
/// Shared by the parallel and the coalesced generators: identical
/// chunking (and therefore identical floating-point summation order) is
/// what makes their results bit-identical to one another.
pub const SUM_CHUNK: usize = 2_048;

/// The block generator: run the windows named by `(features,
/// instruction)` pairs through one
/// [`perfvec_ml::seq::SeqModel::forward_windows`] and return the
/// `len x d` representation rows in input order.
pub(crate) fn forward_windows<'a>(
    foundation: &Foundation,
    windows: impl Iterator<Item = (&'a Matrix, usize)>,
) -> Vec<f32> {
    let windows: Vec<Window<'_>> = windows.map(|(m, i)| (m.data.as_slice(), i)).collect();
    foundation
        .model
        .forward_windows(&windows, foundation.window())
}

/// Representations of `n` windows (`window(k)` names the `k`-th) as
/// `n x d` rows in order: [`LANE_WIDTH`] windows per batched pass, the
/// blocks in parallel (sequentially when the caller is itself a worker
/// of a parallel region).
pub(crate) fn represent_windows<'a, F>(foundation: &Foundation, n: usize, window: F) -> Vec<f32>
where
    F: Fn(usize) -> (&'a Matrix, usize) + Sync,
{
    parallel_map(n.div_ceil(LANE_WIDTH), |b| {
        let lo = b * LANE_WIDTH;
        let hi = (lo + LANE_WIDTH).min(n);
        forward_windows(foundation, (lo..hi).map(&window))
    })
    .concat()
}

/// Per-instruction representations for `range` (windowed, exact
/// training-time semantics); returns an `len x d` matrix.
pub fn instruction_representations(
    foundation: &Foundation,
    features: &Matrix,
    range: std::ops::Range<usize>,
) -> Matrix {
    let rows = range.len();
    let data = represent_windows(foundation, rows, |k| (features, range.start + k));
    Matrix {
        rows,
        cols: foundation.dim(),
        data,
    }
}

fn add_into(acc: &mut [f32], row: &[f32]) {
    for (a, &v) in acc.iter_mut().zip(row) {
        *a += v;
    }
}

/// The program representation `R_p = sum_i R_i` over the whole trace,
/// computed with the exact windowed semantics: each [`SUM_CHUNK`] of
/// instructions is summed in order into its own accumulator, and the
/// chunk sums fold into the total in chunk order. Chunks run one after
/// another, each with its blocks in parallel, so only one chunk's rows
/// are held at a time and a short last chunk cannot leave a core idle.
pub fn program_representation(foundation: &Foundation, features: &Matrix) -> Vec<f32> {
    let d = foundation.dim();
    let n = features.rows;
    let mut total = vec![0.0f32; d];
    for lo in (0..n).step_by(SUM_CHUNK) {
        let hi = (lo + SUM_CHUNK).min(n);
        let rows = represent_windows(foundation, hi - lo, |k| (features, lo + k));
        let mut acc = vec![0.0f32; d];
        for r in rows.chunks_exact(d) {
            add_into(&mut acc, r);
        }
        add_into(&mut total, &acc);
    }
    total
}

/// Coalesced batched representations for several programs at once: the
/// windows of all `programs` form one stream (program-major,
/// instructions ascending), cut into blocks of `block` windows for the
/// block generator — one batched pass can carry windows from several
/// programs, which is the inference server's micro-batching coalescing
/// itself.
///
/// Single-threaded by design (the server's worker pool provides the
/// parallelism). Per-program windows are visited in ascending order
/// and the summation replays [`program_representation`]'s exact
/// [`SUM_CHUNK`] structure, so every returned representation is
/// **bit-identical** to `program_representation` on that program alone
/// — for any `block` size and any grouping of programs.
pub fn program_representations_coalesced(
    foundation: &Foundation,
    programs: &[&Matrix],
    block: usize,
) -> Vec<Vec<f32>> {
    let d = foundation.dim();
    let block = block.max(1);
    let mut totals = vec![vec![0.0f32; d]; programs.len()];
    let mut accs = totals.clone();
    let mut stream = programs
        .iter()
        .enumerate()
        .flat_map(|(p, m)| (0..m.rows).map(move |i| (p, i)));
    let mut pending: Vec<(usize, usize)> = Vec::with_capacity(block);
    loop {
        pending.clear();
        pending.extend(stream.by_ref().take(block));
        if pending.is_empty() {
            return totals;
        }
        let rows = forward_windows(foundation, pending.iter().map(|&(p, i)| (programs[p], i)));
        for (r, &(p, i)) in rows.chunks_exact(d).zip(&pending) {
            add_into(&mut accs[p], r);
            // Fold the chunk accumulator into the total at chunk
            // boundaries and at the end of the program's trace.
            if (i + 1) % SUM_CHUNK == 0 || i + 1 == programs[p].rows {
                add_into(&mut totals[p], &accs[p]);
                accs[p].fill(0.0);
            }
        }
    }
}

/// Fast single-pass streaming representation (stateful recurrent
/// foundation models — LSTM and GRU): one stateful step per instruction
/// instead of a full window.
///
/// The trace is split into chunks processed in parallel; each chunk
/// replays `warmup` preceding instructions to rebuild recurrent state
/// before contributing, so the result approaches the windowed sum as
/// `warmup` grows past the training context. Returns `None` for
/// window-only architectures (see
/// [`perfvec_ml::seq::SeqModel::supports_streaming`]).
pub fn program_representation_streaming(
    foundation: &Foundation,
    features: &Matrix,
    chunk: usize,
    warmup: usize,
) -> Option<Vec<f32>> {
    let model = &foundation.model;
    model.supports_streaming().then_some(())?;
    let d = foundation.dim();
    let n = features.rows;
    if n == 0 {
        return Some(vec![0.0; d]);
    }
    let chunk = chunk.max(1);
    let n_chunks = n.div_ceil(chunk);
    let partials = parallel_map(n_chunks, |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        let start = lo.saturating_sub(warmup);
        let mut state = model
            .stream_state()
            .expect("streaming support checked above");
        let mut out = vec![0.0f32; d];
        let mut acc = vec![0.0f32; d];
        for i in start..hi {
            model.stream_step(&mut state, features.row(i), &mut out);
            if i >= lo {
                add_into(&mut acc, &out);
            }
        }
        acc
    });
    let mut total = vec![0.0f32; d];
    for p in &partials {
        add_into(&mut total, p);
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foundation::{ArchKind, ArchSpec};
    use perfvec_trace::NUM_FEATURES;

    fn toy_features(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, NUM_FEATURES);
        for i in 0..n {
            m.row_mut(i)[i % 7] = 1.0;
            m.row_mut(i)[45] = (i as f32 * 0.01).fract();
        }
        m
    }

    fn lstm_foundation() -> Foundation {
        Foundation::new(ArchSpec::default_lstm(8), 3, 0.1, 11)
    }

    #[test]
    fn program_representation_is_sum_of_instruction_representations() {
        let f = lstm_foundation();
        let feats = toy_features(100);
        let rp = program_representation(&f, &feats);
        let per = instruction_representations(&f, &feats, 0..100);
        let mut sum = vec![0.0f32; 8];
        for i in 0..100 {
            for (s, &v) in sum.iter_mut().zip(per.row(i)) {
                *s += v;
            }
        }
        for (a, b) in rp.iter().zip(&sum) {
            assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn empty_trace_has_zero_representation() {
        let f = lstm_foundation();
        let feats = Matrix::zeros(0, NUM_FEATURES);
        assert_eq!(program_representation(&f, &feats), vec![0.0; 8]);
    }

    #[test]
    fn streaming_approaches_windowed_with_enough_warmup() {
        // The window must cover the LSTM's effective memory for the two
        // modes to agree: with the standard forget-gate-bias init the
        // per-step retention is ~sigmoid(1) ≈ 0.73, so a context of 12
        // leaves < 3% of long-range state outside the window, while the
        // module-default context of 3 would leave ~40%.
        let f = Foundation::new(ArchSpec::default_lstm(8), 12, 0.1, 11);
        let feats = toy_features(400);
        let windowed = program_representation(&f, &feats);
        let streamed = program_representation_streaming(&f, &feats, 64, 32).unwrap();
        // Streaming carries longer context than the window, so the two
        // differ, but they must be strongly correlated in scale/sign.
        let dot: f32 = windowed.iter().zip(&streamed).map(|(a, b)| a * b).sum();
        let na: f32 = windowed.iter().map(|a| a * a).sum::<f32>().sqrt();
        let nb: f32 = streamed.iter().map(|b| b * b).sum::<f32>().sqrt();
        assert!(
            dot / (na * nb) > 0.9,
            "cosine similarity too low: {}",
            dot / (na * nb)
        );
    }

    #[test]
    fn streaming_chunking_is_consistent() {
        // With warmup >= the full prefix, chunked == single-chunk.
        let f = lstm_foundation();
        let feats = toy_features(120);
        let one = program_representation_streaming(&f, &feats, 400, 0).unwrap();
        let many = program_representation_streaming(&f, &feats, 30, 120).unwrap();
        for (a, b) in one.iter().zip(&many) {
            assert!((a - b).abs() < 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn window_only_models_do_not_stream_but_recurrent_ones_do() {
        for (kind, streams) in [
            (ArchKind::Mlp, false),
            (ArchKind::Transformer, false),
            (ArchKind::BiLstm, false),
            (ArchKind::Lstm, true),
            (ArchKind::Gru, true),
        ] {
            let f = Foundation::new(
                ArchSpec {
                    kind,
                    layers: 1,
                    dim: 8,
                },
                3,
                0.1,
                1,
            );
            assert_eq!(
                program_representation_streaming(&f, &toy_features(10), 4, 2).is_some(),
                streams,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn gru_streaming_chunking_is_consistent() {
        // The GRU fast path must show the same chunk-invariance as the
        // LSTM one: with warmup >= the full prefix, chunked == one pass.
        let f = Foundation::new(
            ArchSpec {
                kind: ArchKind::Gru,
                layers: 2,
                dim: 8,
            },
            3,
            0.1,
            11,
        );
        let feats = toy_features(120);
        let one = program_representation_streaming(&f, &feats, 400, 0).unwrap();
        let many = program_representation_streaming(&f, &feats, 30, 120).unwrap();
        for (a, b) in one.iter().zip(&many) {
            assert!((a - b).abs() < 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn gru_streaming_approaches_windowed_with_enough_warmup() {
        let f = Foundation::new(
            ArchSpec {
                kind: ArchKind::Gru,
                layers: 2,
                dim: 8,
            },
            12,
            0.1,
            11,
        );
        let feats = toy_features(400);
        let windowed = program_representation(&f, &feats);
        let streamed = program_representation_streaming(&f, &feats, 64, 48).unwrap();
        let dot: f32 = windowed.iter().zip(&streamed).map(|(a, b)| a * b).sum();
        let na: f32 = windowed.iter().map(|a| a * a).sum::<f32>().sqrt();
        let nb: f32 = streamed.iter().map(|b| b * b).sum::<f32>().sqrt();
        assert!(
            dot / (na * nb) > 0.9,
            "cosine similarity too low: {}",
            dot / (na * nb)
        );
    }

    #[test]
    fn coalesced_representations_are_bit_identical_per_program() {
        // Windows of several programs share forward_windows blocks; each
        // program's representation must still equal the parallel
        // generator's exactly — the serving engine's parity foundation.
        // The programs include an empty trace and one longer than
        // SUM_CHUNK, so the chunk fold runs mid-stream; block sizes that
        // do not divide the chunk exercise ragged block tails.
        for kind in [ArchKind::Lstm, ArchKind::Gru, ArchKind::Transformer] {
            let f = Foundation::new(
                ArchSpec {
                    kind,
                    layers: 2,
                    dim: 8,
                },
                3,
                0.1,
                7,
            );
            let mut feats: Vec<Matrix> = (0..4).map(|s| toy_features(40 + 13 * s)).collect();
            feats.insert(2, toy_features(0));
            feats.push(toy_features(SUM_CHUNK + 513));
            let refs: Vec<&Matrix> = feats.iter().collect();
            let singles: Vec<Vec<f32>> = feats
                .iter()
                .map(|m| program_representation(&f, m))
                .collect();
            for block in [1usize, 3, 32, 256] {
                let reps = program_representations_coalesced(&f, &refs, block);
                assert_eq!(reps, singles, "{kind:?} block {block}");
                for (m, single) in feats.iter().zip(&singles) {
                    let alone = program_representations_coalesced(&f, &[m], block);
                    assert_eq!(&alone[0], single, "{kind:?} block {block}");
                }
            }
        }
    }

    #[test]
    fn representation_is_additive_over_trace_concatenation() {
        // R(ab) == R(a) + R(b) when the window is fully contained (no
        // cross-boundary context): verify with context 0.
        let f = Foundation::new(ArchSpec::default_lstm(8), 0, 0.1, 2);
        let a = toy_features(37);
        let b = toy_features(53);
        let mut ab = Matrix::zeros(90, NUM_FEATURES);
        for i in 0..37 {
            ab.row_mut(i).copy_from_slice(a.row(i));
        }
        for i in 0..53 {
            ab.row_mut(37 + i).copy_from_slice(b.row(i));
        }
        let ra = program_representation(&f, &a);
        let rb = program_representation(&f, &b);
        let rab = program_representation(&f, &ab);
        for i in 0..8 {
            assert!(
                (rab[i] - ra[i] - rb[i]).abs() < 1e-3 * (1.0 + rab[i].abs()),
                "dim {i}: {} vs {} + {}",
                rab[i],
                ra[i],
                rb[i]
            );
        }
    }
}
