//! Finite-difference verification of every hand-written backward pass —
//! the guarantee the crate docs promise ("flat-parameter layers with
//! hand-written backward passes, verified by finite-difference tests").
//!
//! For each architecture, the analytic gradient of the scalar probe loss
//! `L = dout . forward(xs)` is compared against central differences
//! `(L(θ+ε) - L(θ-ε)) / 2ε` over an exhaustive stride of the parameter
//! vector. The test fails if any checked parameter diverges beyond
//! `1e-4 * (1 + max(|numeric|, |analytic|))` — `1e-4` relative with a
//! unit absolute floor, which sits well above f32 central-difference
//! noise (~2e-5 for unit-scale losses at ε = 1e-2) while catching any
//! genuinely wrong derivative term, whose error would be O(gradient).

use perfvec_ml::seq::SeqModel;

/// Deterministic pseudo-random stream for probe inputs (keeps the test
/// independent of any RNG crate details).
fn lcg_stream(seed: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = ((state >> 40) as f32) / (1u64 << 24) as f32;
            lo + unit * (hi - lo)
        })
        .collect()
}

/// Check analytic vs central-difference gradients for `model` on a
/// random window, sampling every `stride`-th parameter (at least 64 and
/// the first/last parameters, so every layer block is touched).
fn finite_difference_check(mut model: SeqModel, t: usize, seed: u64) {
    let name = model.describe();
    let in_dim = model.in_dim();
    let d = model.out_dim();
    let xs = lcg_stream(seed, t * in_dim, -1.0, 1.0);
    let dout = lcg_stream(seed ^ 0x5a5a, d, -0.5, 0.5);

    let (_, cache) = model.forward(&xs, t);
    let mut grads = vec![0.0f32; model.num_params()];
    model.backward(&xs, &cache, &dout, &mut grads);

    let loss = |m: &SeqModel| -> f64 {
        let (y, _) = m.forward(&xs, t);
        y.iter()
            .zip(&dout)
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum()
    };

    let n = model.num_params();
    let stride = (n / 64).max(1);
    let mut params = model.get_params();
    let mut checked = 0usize;
    let mut worst: (f64, usize) = (0.0, 0);
    for idx in (0..n).step_by(stride).chain([n - 1]) {
        let eps = 1e-2f32;
        let orig = params[idx];
        params[idx] = orig + eps;
        model.set_params(&params);
        let lp = loss(&model);
        params[idx] = orig - eps;
        model.set_params(&params);
        let lm = loss(&model);
        params[idx] = orig;
        model.set_params(&params);

        let numeric = (lp - lm) / (2.0 * eps as f64);
        let analytic = grads[idx] as f64;
        let tol = 1e-4 * (1.0 + numeric.abs().max(analytic.abs()));
        let err = (numeric - analytic).abs();
        assert!(
            err <= tol,
            "{name}: param {idx}: numeric {numeric:.6e} vs analytic {analytic:.6e} \
             (err {err:.2e} > tol {tol:.2e})"
        );
        if err > worst.0 {
            worst = (err, idx);
        }
        checked += 1;
    }
    assert!(
        checked >= 64 || checked >= n,
        "{name}: only {checked} params checked"
    );
    println!(
        "{name}: {checked} params checked, worst abs err {:.2e} (param {})",
        worst.0, worst.1
    );
}

/// The batched twin of [`finite_difference_check`]: the analytic
/// gradient comes from one `forward_batch_cached`/`backward_batch`
/// pair over a batch of sequences, the numeric one from central
/// differences of the summed batch probe loss. Verifies the batch-major
/// BPTT against ground truth directly (not just against the scalar
/// backward it mirrors), at the same `1e-4` tolerance.
fn finite_difference_check_batched(mut model: SeqModel, t: usize, batch: usize, seed: u64) {
    let name = model.describe();
    let in_dim = model.in_dim();
    let d = model.out_dim();
    let xs = lcg_stream(seed, batch * t * in_dim, -1.0, 1.0);
    let douts = lcg_stream(seed ^ 0x5a5a, batch * d, -0.5, 0.5);

    let (_, cache) = model.forward_batch_cached(&xs, t, batch);
    let mut grads = vec![0.0f32; model.num_params()];
    model.backward_batch(&xs, t, batch, &cache, &douts, &mut grads);

    let loss = |m: &SeqModel| -> f64 {
        let y = m.forward_batch(&xs, t, batch);
        y.iter()
            .zip(&douts)
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum()
    };

    let n = model.num_params();
    let stride = (n / 64).max(1);
    let mut params = model.get_params();
    let mut checked = 0usize;
    for idx in (0..n).step_by(stride).chain([n - 1]) {
        let eps = 1e-2f32;
        let orig = params[idx];
        params[idx] = orig + eps;
        model.set_params(&params);
        let lp = loss(&model);
        params[idx] = orig - eps;
        model.set_params(&params);
        let lm = loss(&model);
        params[idx] = orig;
        model.set_params(&params);

        let numeric = (lp - lm) / (2.0 * eps as f64);
        let analytic = grads[idx] as f64;
        let tol = 1e-4 * (1.0 + numeric.abs().max(analytic.abs()));
        let err = (numeric - analytic).abs();
        assert!(
            err <= tol,
            "{name} (batch {batch}): param {idx}: numeric {numeric:.6e} vs analytic \
             {analytic:.6e} (err {err:.2e} > tol {tol:.2e})"
        );
        checked += 1;
    }
    assert!(
        checked >= 64 || checked >= n,
        "{name}: only {checked} params checked"
    );
}

#[test]
fn linear_gradients_match_finite_differences() {
    finite_difference_check(SeqModel::linear(6, 8, 4, 11), 4, 1);
}

#[test]
fn mlp_gradients_match_finite_differences() {
    finite_difference_check(SeqModel::mlp(6, 8, 4, 12), 4, 2);
}

#[test]
fn lstm_gradients_match_finite_differences() {
    finite_difference_check(SeqModel::lstm(6, 8, 2, 13), 5, 3);
}

#[test]
fn bilstm_gradients_match_finite_differences() {
    finite_difference_check(SeqModel::bilstm(5, 6, 1, 14), 4, 4);
}

#[test]
fn gru_gradients_match_finite_differences() {
    finite_difference_check(SeqModel::gru(6, 8, 2, 15), 5, 5);
}

#[test]
fn transformer_attention_gradients_match_finite_differences() {
    // The transformer check exercises the attention path end to end:
    // q/k/v/o projections, softmax backward, layer norms, and FFN.
    finite_difference_check(SeqModel::transformer(6, 8, 2, 16), 4, 6);
}

#[test]
fn batched_lstm_gradients_match_finite_differences() {
    // A batch wider than one lane block (8), so both the chunked and
    // tail paths of the batch-major BPTT are exercised.
    finite_difference_check_batched(SeqModel::lstm(6, 8, 2, 23), 5, 11, 7);
}

#[test]
fn batched_gru_gradients_match_finite_differences() {
    finite_difference_check_batched(SeqModel::gru(6, 8, 2, 24), 5, 11, 8);
}

#[test]
fn batched_linear_gradients_match_finite_differences() {
    finite_difference_check_batched(SeqModel::linear(6, 8, 4, 27), 4, 5, 11);
}

#[test]
fn batched_mlp_gradients_match_finite_differences() {
    finite_difference_check_batched(SeqModel::mlp(6, 8, 4, 25), 4, 5, 9);
}

#[test]
fn batched_transformer_gradients_match_finite_differences() {
    // End to end through the batch-major attention backward: lane-wise
    // score dots, softmax backward, the zero-skip dq/dk recursion, and
    // the scalar-order parameter replays. The post-LN transformer's
    // curvature makes the summed probe loss's O(ε²·L''') truncation
    // grow with batch, so batch 3 keeps the FD noise inside the 1e-4
    // tolerance; wide-batch lane-block coverage comes from the
    // batch_equiv suite (bit-exact at batch 32, no FD noise budget).
    finite_difference_check_batched(SeqModel::transformer(6, 8, 2, 26), 4, 3, 10);
}

#[test]
fn batched_bilstm_gradients_match_finite_differences() {
    // Both direction stacks' batch-major BPTT over the shared reversed
    // window block.
    finite_difference_check_batched(SeqModel::bilstm(5, 6, 1, 28), 4, 11, 12);
}
