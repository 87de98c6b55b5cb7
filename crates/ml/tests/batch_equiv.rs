//! Batched equivalence: batching must be invisible to results.
//!
//! Forward: every sequence of a `forward_batch` (and of its caching
//! twin `forward_batch_cached`) produces *bit-identical* output to an
//! independent `forward` call, for every architecture and any batch
//! size — the contract the inference server's micro-batching engine is
//! built on.
//!
//! Backward: `backward_batch` accumulates gradients *bit-identical* to
//! running the scalar `backward` once per sequence in batch order into
//! the same buffer — the contract the batched training step is built
//! on (it is what makes a batched trainer checkpoint byte-identical to
//! a scalar one).

use perfvec_ml::seq::SeqModel;
use perfvec_ml::window::Window;

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

/// Deterministic, feature-varying pseudo-random inputs (no RNG needed:
/// the values just have to differ across sequences and steps).
fn batch_inputs(batch: usize, t: usize, in_dim: usize) -> Vec<f32> {
    (0..batch * t * in_dim)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            ((x >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Step counts: the default 5, and 1 to 3 (context 0 to 2), the edges
/// of a recurrent pass's step store: a one-step pass (whose training
/// store keeps a spare zero step), and passes that end just before and
/// just after the two-step inference ring first wraps.
const STEPS: [usize; 4] = [1, 2, 3, 5];

#[test]
fn batch_of_one_is_bit_identical_to_forward() {
    let (in_dim, d, t) = (6, 8, 5);
    let xs = batch_inputs(1, t, in_dim);
    for m in all_models(in_dim, d, t) {
        let (single, _) = m.forward(&xs, t);
        let batched = m.forward_batch(&xs, t, 1);
        assert_eq!(single, batched, "{}", m.describe());
    }
}

#[test]
fn every_sequence_of_a_batch_is_bit_identical_to_forward() {
    let (in_dim, d) = (6, 8);
    for t in STEPS {
        // 32 exercises the widest (32-lane) gemm block, 7 every tail path.
        for batch in [2usize, 3, 7, 8, 17, 32] {
            let xs = batch_inputs(batch, t, in_dim);
            for m in all_models(in_dim, d, t) {
                let batched = m.forward_batch(&xs, t, batch);
                assert_eq!(batched.len(), batch * d, "{}", m.describe());
                for s in 0..batch {
                    let (single, _) = m.forward(&xs[s * t * in_dim..(s + 1) * t * in_dim], t);
                    assert_eq!(
                        &batched[s * d..(s + 1) * d],
                        single.as_slice(),
                        "{} sequence {s} of batch {batch}, {t} steps",
                        m.describe()
                    );
                }
            }
        }
    }
}

/// Deterministic upstream gradients, distinct per sequence and feature
/// (alternating signs so post-LN architectures see non-null probes).
fn batch_douts(batch: usize, d: usize) -> Vec<f32> {
    (0..batch * d)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0xd134_2543_de82_ef95)
                .wrapping_add(0x9e37);
            ((x >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

#[test]
fn cached_batched_forward_is_bit_identical_to_forward_batch() {
    let (in_dim, d) = (6, 8);
    for t in STEPS {
        for batch in [1usize, 2, 3, 7, 8, 17, 32] {
            let xs = batch_inputs(batch, t, in_dim);
            for m in all_models(in_dim, d, t) {
                let plain = m.forward_batch(&xs, t, batch);
                let (cached, _) = m.forward_batch_cached(&xs, t, batch);
                assert_eq!(plain, cached, "{} batch {batch}, {t} steps", m.describe());
            }
        }
    }
}

#[test]
fn backward_batch_is_bit_identical_to_per_sequence_backward() {
    let (in_dim, d) = (6, 8);
    for t in STEPS {
        // 32 exercises the widest (32-lane) gemm block, 7 and 17 every
        // tail path, 1 the degenerate single-lane batch.
        for batch in [1usize, 2, 3, 7, 8, 17, 32] {
            let xs = batch_inputs(batch, t, in_dim);
            let douts = batch_douts(batch, d);
            for m in all_models(in_dim, d, t) {
                // Reference: scalar backward per sequence, in batch order,
                // accumulating into one shared buffer.
                let mut g_ref = vec![0.0f32; m.num_params()];
                for s in 0..batch {
                    let seq = &xs[s * t * in_dim..(s + 1) * t * in_dim];
                    let (_, cache) = m.forward(seq, t);
                    m.backward(seq, &cache, &douts[s * d..(s + 1) * d], &mut g_ref);
                }
                // Batched: one cached forward + one batch-major backward.
                let (_, bcache) = m.forward_batch_cached(&xs, t, batch);
                let mut g_bat = vec![0.0f32; m.num_params()];
                m.backward_batch(&xs, t, batch, &bcache, &douts, &mut g_bat);
                for (p, (a, b)) in g_ref.iter().zip(&g_bat).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} batch {batch}, {t} steps, param {p}: scalar {a} vs batched {b}",
                        m.describe()
                    );
                }
            }
        }
    }
}

#[test]
fn backward_batch_of_deeper_recurrent_stacks_stays_bit_identical() {
    let (in_dim, d, t, batch) = (4, 6, 7, 5);
    let xs = batch_inputs(batch, t, in_dim);
    let douts = batch_douts(batch, d);
    for m in [
        SeqModel::lstm(in_dim, d, 3, 11),
        SeqModel::gru(in_dim, d, 3, 13),
    ] {
        let mut g_ref = vec![0.0f32; m.num_params()];
        for s in 0..batch {
            let seq = &xs[s * t * in_dim..(s + 1) * t * in_dim];
            let (_, cache) = m.forward(seq, t);
            m.backward(seq, &cache, &douts[s * d..(s + 1) * d], &mut g_ref);
        }
        let (_, bcache) = m.forward_batch_cached(&xs, t, batch);
        let mut g_bat = vec![0.0f32; m.num_params()];
        m.backward_batch(&xs, t, batch, &bcache, &douts, &mut g_bat);
        assert_eq!(
            g_ref.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
            g_bat.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
            "{}",
            m.describe()
        );
    }
}

#[test]
fn deeper_recurrent_stacks_stay_bit_identical() {
    // Lockstep layer interleaving must not change results for stacks
    // deeper than the default two layers.
    let (in_dim, d, t, batch) = (4, 6, 7, 5);
    let xs = batch_inputs(batch, t, in_dim);
    for m in [
        SeqModel::lstm(in_dim, d, 3, 11),
        SeqModel::gru(in_dim, d, 3, 13),
    ] {
        let batched = m.forward_batch(&xs, t, batch);
        for s in 0..batch {
            let (single, _) = m.forward(&xs[s * t * in_dim..(s + 1) * t * in_dim], t);
            assert_eq!(
                &batched[s * d..(s + 1) * d],
                single.as_slice(),
                "{}",
                m.describe()
            );
        }
    }
}

/// Recurrent models big enough that a top-level chunk of 32 or more
/// lanes clears the work floor and runs as two lane halves on two
/// threads (where the machine has two cores).
fn split_sized_models(in_dim: usize, d: usize) -> Vec<SeqModel> {
    vec![
        SeqModel::lstm(in_dim, d, 2, 21),
        SeqModel::gru(in_dim, d, 2, 22),
        SeqModel::bilstm(in_dim, d, 2, 23),
    ]
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

#[test]
fn two_lane_halves_stay_bit_identical_to_per_sequence_passes() {
    let (in_dim, d, t) = (24usize, 32usize, 13usize);
    for batch in [16usize, 31, 32, 33, 48, 64] {
        let xs = batch_inputs(batch, t, in_dim);
        let douts = batch_douts(batch, d);
        for m in split_sized_models(in_dim, d) {
            let (out, bcache) = m.forward_batch_cached(&xs, t, batch);
            // The shape really takes the split path: two lane halves
            // from 32 lanes up on a multi-core machine, one part
            // otherwise, for each recurrent cell.
            let want = if batch >= 32 && cores() >= 2 { 2 } else { 1 };
            assert_eq!(bcache.lane_parts(), want, "{} batch {batch}", m.describe());
            let mut g_bat = vec![0.0f32; m.num_params()];
            m.backward_batch(&xs, t, batch, &bcache, &douts, &mut g_bat);
            let mut g_ref = vec![0.0f32; m.num_params()];
            for s in 0..batch {
                let seq = &xs[s * t * in_dim..(s + 1) * t * in_dim];
                let (single, cache) = m.forward(seq, t);
                assert_eq!(
                    &out[s * d..(s + 1) * d],
                    single.as_slice(),
                    "{} sequence {s} of batch {batch}",
                    m.describe()
                );
                m.backward(seq, &cache, &douts[s * d..(s + 1) * d], &mut g_ref);
            }
            for (p, (a, b)) in g_ref.iter().zip(&g_bat).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} batch {batch} param {p}: scalar {a} vs batched {b}",
                    m.describe()
                );
            }
        }
    }
}

/// The `t`-step window ending at row `i` of the row-major matrix
/// `rows`, zero-padded before row 0 — written out here independently of
/// the library's own window fill.
fn window(rows: &[f32], in_dim: usize, i: usize, t: usize) -> Vec<f32> {
    let mut w = vec![0.0f32; t * in_dim];
    for step in 0..t {
        if let Some(r) = (i + 1 + step).checked_sub(t) {
            w[step * in_dim..(step + 1) * in_dim]
                .copy_from_slice(&rows[r * in_dim..(r + 1) * in_dim]);
        }
    }
    w
}

/// `forward_windows` must equal `forward` on each filled window, bit
/// for bit.
fn assert_windows_match_forward(m: &SeqModel, windows: &[Window<'_>], t: usize, what: &str) {
    let (in_dim, d) = (m.in_dim(), m.out_dim());
    let out = m.forward_windows(windows, t);
    assert_eq!(out.len(), windows.len() * d, "{} {what}", m.describe());
    for (s, &(rows, i)) in windows.iter().enumerate() {
        let (single, _) = m.forward(&window(rows, in_dim, i, t), t);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&out[s * d..(s + 1) * d]),
            bits(&single),
            "{} {what}: window {s} (row {i})",
            m.describe()
        );
    }
}

/// Window blocks of `batch` windows over two row-major matrices `a`
/// and `b`: consecutive from row 0 (the first windows reach before row
/// 0), consecutive across the end of `a` into `b` (the coalesced case),
/// and scattered rows of both (validation's random items).
fn window_blocks<'a>(
    a: &'a [f32],
    b: &'a [f32],
    in_dim: usize,
    batch: usize,
) -> Vec<(&'static str, Vec<Window<'a>>)> {
    let (na, nb) = (a.len() / in_dim, b.len() / in_dim);
    let scattered = (0..batch)
        .map(|s| {
            let x = (s as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            if s % 3 == 0 {
                (b, x as usize % nb)
            } else {
                (a, x as usize % na)
            }
        })
        .collect();
    let split = batch.min(na) / 2;
    vec![
        ("from row 0", (0..batch).map(|i| (a, i % na)).collect()),
        (
            "across two matrices",
            (na - split..na)
                .map(|i| (a, i))
                .chain((0..batch - split).map(|i| (b, i % nb)))
                .collect(),
        ),
        ("scattered", scattered),
    ]
}

#[test]
fn forward_windows_is_bit_identical_to_forward_per_window() {
    let (in_dim, d) = (6, 8);
    for t in STEPS {
        let a = batch_inputs(40, 1, in_dim);
        let b: Vec<f32> = batch_inputs(65, 1, in_dim)[40 * in_dim..].to_vec();
        for batch in [1usize, 7, 32, 33] {
            for m in all_models(in_dim, d, t) {
                for (what, windows) in window_blocks(&a, &b, in_dim, batch) {
                    assert_windows_match_forward(
                        &m,
                        &windows,
                        t,
                        &format!("{what}, batch {batch}"),
                    );
                }
            }
        }
    }
}

#[test]
fn forward_windows_keeps_negative_zero_bias_rows_exact() {
    // One row of every gate in layer 0 with zero weights and a −0.0
    // bias, the edge case of the exactness argument: the scalar chain
    // turns −0.0 + (+0.0) into +0.0, and the projected padding column
    // and the skipped zero-state gemm at t = 0 must agree with it. (The
    // activations absorb the sign of a zero before the output, so this
    // pins the values along the edge case, not the sign itself.)
    let (in_dim, d, t) = (5, 6, 4);
    let a = batch_inputs(30, 1, in_dim);
    let b: Vec<f32> = batch_inputs(50, 1, in_dim)[30 * in_dim..].to_vec();
    for (mut m, gates) in [
        (SeqModel::lstm(in_dim, d, 2, 31), 4),
        (SeqModel::gru(in_dim, d, 2, 32), 3),
    ] {
        let mut p = m.get_params();
        let (w_ih, w_hh) = (gates * d * in_dim, gates * d * d);
        for g in 0..gates {
            let r = g * d + 1;
            p[r * in_dim..(r + 1) * in_dim].fill(0.0);
            p[w_ih + r * d..w_ih + (r + 1) * d].fill(0.0);
            p[w_ih + w_hh + r] = -0.0;
        }
        m.set_params(&p);
        for t in [1, 2, 3, t] {
            for batch in [1usize, 7, 32, 33] {
                for (what, windows) in window_blocks(&a, &b, in_dim, batch) {
                    let what = format!("{what}, {t} steps, batch {batch}");
                    assert_windows_match_forward(&m, &windows, t, &what);
                }
            }
        }
    }
}

/// Table-I-like inputs (`batch` sequences of `t` steps): per real step
/// three one-hot fields, one or two small register slots among 16, two
/// flags, feature `ONCE` set at exactly one step, −0.0 in a slot of
/// every third step, and all other features zero — about 85% zeros
/// overall. Each lane starts with `s % 4` all-zero padding steps, and
/// lane 1's last step is fully dense. Odd lanes repeat the lane before
/// them (their upstream gradients are negated, see
/// [`paired_douts`]), so gradients that one step of each lane feeds
/// cancel to exactly +0.0 pair by pair.
fn table_i_inputs(batch: usize, t: usize, in_dim: usize) -> Vec<f32> {
    const ONCE: usize = 30;
    let mut xs = vec![0.0f32; batch * t * in_dim];
    for s in 0..batch {
        let src = s - s % 2;
        for step in src % 4..t {
            let h = (src * 31 + step * 17) as u64;
            let x = &mut xs[(s * t + step) * in_dim..(s * t + step + 1) * in_dim];
            x[(h % 8) as usize] = 1.0;
            x[8 + (h % 16) as usize] = (h % 5 + 1) as f32 * 0.25;
            if h.is_multiple_of(3) {
                x[8 + ((h / 3) % 16) as usize] = 2.0;
            }
            x[20 + (h % 4) as usize] = 1.0;
            x[32 + (h % 6) as usize] = 1.0;
            x[45] = 1.0;
            x[46] = (h % 3) as f32;
            x[47 + (h % 4) as usize] = 0.5;
            if step.is_multiple_of(3) {
                x[24 + (h % 4) as usize] = -0.0;
            }
            if step == t - 1 {
                x[ONCE] = 0.75;
            }
            if src == 0 && step == t - 1 {
                for (k, v) in x.iter_mut().enumerate() {
                    *v = 0.5 + (k % 7) as f32 * 0.125;
                }
            }
        }
    }
    xs
}

/// [`batch_douts`] with every odd lane the negation of the lane before.
fn paired_douts(batch: usize, d: usize) -> Vec<f32> {
    let mut douts = batch_douts(batch, d);
    for s in (1..batch).step_by(2) {
        for k in 0..d {
            douts[s * d + k] = -douts[(s - 1) * d + k];
        }
    }
    douts
}

/// Give gate row 1 of every gate in the bottom layer of `m` (the first
/// stack's, for a biLSTM) zero weights and a −0.0 bias.
fn negative_zero_bias_rows(m: &mut SeqModel, gates: usize, hidden: usize) {
    let in_dim = m.in_dim();
    let mut p = m.get_params();
    let (w_ih, w_hh) = (gates * hidden * in_dim, gates * hidden * hidden);
    for g in 0..gates {
        let r = g * hidden + 1;
        p[r * in_dim..(r + 1) * in_dim].fill(0.0);
        p[w_ih + r * hidden..w_ih + (r + 1) * hidden].fill(0.0);
        p[w_ih + w_hh + r] = -0.0;
    }
    m.set_params(&p);
}

#[test]
fn sparse_inputs_stay_bit_identical_to_per_sequence_passes() {
    // Layer 0 skips zero features in the training passes (and in the
    // projection of inference): every shape of zero must leave the
    // batched results equal to the dense scalar passes, bit for bit.
    // 32 and more lanes run as two lane halves on a multi-core machine.
    let (in_dim, d, t) = (51usize, 32usize, 12usize);
    for batch in [7usize, 16, 32, 33, 64] {
        let xs = table_i_inputs(batch, t, in_dim);
        let zeros = xs.iter().filter(|&&v| v == 0.0).count() as f64 / xs.len() as f64;
        assert!((0.8..0.92).contains(&zeros), "zero share {zeros}");
        let douts = paired_douts(batch, d);
        let mut models = split_sized_models(in_dim, d);
        negative_zero_bias_rows(&mut models[0], 4, d);
        negative_zero_bias_rows(&mut models[1], 3, d);
        negative_zero_bias_rows(&mut models[2], 4, d / 2);
        // Gate blocks of the LSTM's and the GRU's layer 0.
        for (m, gates) in models.iter().zip([Some(4), Some(3), None]) {
            let (out, bcache) = m.forward_batch_cached(&xs, t, batch);
            let mut g_bat = vec![0.0f32; m.num_params()];
            m.backward_batch(&xs, t, batch, &bcache, &douts, &mut g_bat);
            let mut g_ref = vec![0.0f32; m.num_params()];
            for s in 0..batch {
                let seq = &xs[s * t * in_dim..(s + 1) * t * in_dim];
                let (single, cache) = m.forward(seq, t);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&out[s * d..(s + 1) * d]),
                    bits(&single),
                    "{} sequence {s} of batch {batch}",
                    m.describe()
                );
                m.backward(seq, &cache, &douts[s * d..(s + 1) * d], &mut g_ref);
            }
            for (p, (a, b)) in g_ref.iter().zip(&g_bat).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} batch {batch} param {p}: scalar {a} vs batched {b}",
                    m.describe()
                );
            }
            if let Some(gates) = gates.filter(|_| batch.is_multiple_of(2)) {
                // The pairs cancel: the `ONCE` column of layer 0's
                // `W_ih` gradient ends at exactly +0.0.
                for r in 0..gates * d {
                    let what = format!("{} row {r}", m.describe());
                    assert_eq!(g_bat[r * in_dim + 30].to_bits(), 0, "{what}");
                }
            }
        }
    }
}
