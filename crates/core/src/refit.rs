//! Closed-form refit of the microarchitecture table.
//!
//! With the foundation frozen, the optimal table row for machine `j` is
//! the least-squares solution of `R_i . M_j = t_ij` over every training
//! instruction — the fixed point the paper's long SGD schedule converges
//! to. At this reproduction's scale it is cheaper and exact: one pass to
//! accumulate the normal equations (instruction representations are
//! generated once, in parallel batched blocks), one Cholesky
//! factorization shared by all machines.

use crate::compose::{represent_windows, SUM_CHUNK};
use crate::foundation::Foundation;
use crate::march_table::MarchTable;
use perfvec_ml::linalg::ridge_solve;
use perfvec_ml::parallel::parallel_map;
use perfvec_trace::ProgramData;

/// Accumulated normal equations for a linear head of width `d` with `k`
/// right-hand sides.
pub struct NormalEq {
    /// `d x d` Gram matrix `sum R R^T`.
    pub xtx: Vec<f64>,
    /// `d x k` cross products `sum R t^T`.
    pub xty: Vec<f64>,
    /// Representation dimensionality.
    pub d: usize,
    /// Number of target machines.
    pub k: usize,
    /// Rows accumulated.
    pub count: u64,
}

impl NormalEq {
    /// Empty accumulator for a `d`-wide head with `k` right-hand sides.
    pub fn zeros(d: usize, k: usize) -> NormalEq {
        NormalEq {
            xtx: vec![0.0; d * d],
            xty: vec![0.0; d * k],
            d,
            k,
            count: 0,
        }
    }

    fn merge(mut self, other: NormalEq) -> NormalEq {
        for (a, b) in self.xtx.iter_mut().zip(&other.xtx) {
            *a += b;
        }
        for (a, b) in self.xty.iter_mut().zip(&other.xty) {
            *a += b;
        }
        self.count += other.count;
        self
    }

    /// Add one `(representation, targets)` row; each target is
    /// multiplied by `scale` before accumulation.
    pub fn accumulate(&mut self, r: &[f32], targets: &[f32], scale: f32) {
        let d = self.d;
        for i in 0..d {
            let ri = r[i] as f64;
            if ri == 0.0 {
                continue;
            }
            for (j, &rj) in r.iter().enumerate() {
                self.xtx[i * d + j] += ri * rj as f64;
            }
            for (j, &t) in targets.iter().enumerate() {
                self.xty[i * self.k + j] += ri * (t * scale) as f64;
            }
        }
        self.count += 1;
    }
}

/// Accumulate the normal equations over every instruction of every
/// program. Work items are [`SUM_CHUNK`]-instruction chunks, each
/// accumulated in instruction order from the block generator's rows
/// into its own [`NormalEq`]; chunks run in parallel and merge in item
/// order, so the sums are bit-reproducible on any core count.
pub fn accumulate_normal_equations(foundation: &Foundation, data: &[ProgramData]) -> NormalEq {
    let d = foundation.dim();
    let k = data[0].num_marches();
    let scale = foundation.target_scale;
    // Flatten (program, chunk start) work items.
    let items: Vec<(usize, usize)> = data
        .iter()
        .enumerate()
        .flat_map(|(p, dset)| (0..dset.len()).step_by(SUM_CHUNK).map(move |lo| (p, lo)))
        .collect();
    let partials = parallel_map(items.len(), |n| {
        let (p, lo) = items[n];
        let dset = &data[p];
        let hi = (lo + SUM_CHUNK).min(dset.len());
        let rows = represent_windows(foundation, hi - lo, |j| (&dset.features, lo + j));
        let mut eq = NormalEq::zeros(d, k);
        for (i, r) in (lo..hi).zip(rows.chunks_exact(d)) {
            eq.accumulate(r, dset.targets.row(i), scale);
        }
        eq
    });
    partials
        .into_iter()
        .fold(NormalEq::zeros(d, k), NormalEq::merge)
}

/// Solve the accumulated system into a fresh table, or `None` if the
/// (ridge-regularized) Gram matrix is not positive definite. `ridge`
/// regularizes against rank-deficient representation spans.
pub fn try_solve_table(eq: &NormalEq, ridge: f64) -> Option<MarchTable> {
    let (d, k) = (eq.d, eq.k);
    // Effective per-row ridge scales with the sample count so the prior
    // stays weak relative to the data.
    let lambda = ridge * (eq.count.max(1) as f64);
    let mut reps = vec![0.0f32; k * d];
    for j in 0..k {
        let xty_j: Vec<f64> = (0..d).map(|i| eq.xty[i * k + j]).collect();
        let m = ridge_solve(&eq.xtx, &xty_j, d, lambda)?;
        for i in 0..d {
            reps[j * d + i] = m[i] as f32;
        }
    }
    Some(MarchTable::from_rows(k, d, reps))
}

/// Solve the accumulated system into a fresh table. `ridge` regularizes
/// against rank-deficient representation spans.
pub fn solve_table(eq: &NormalEq, ridge: f64) -> MarchTable {
    try_solve_table(eq, ridge).expect("gram matrix must be positive definite after ridge")
}

/// Refit the table against the frozen foundation over all training data.
pub fn refit_march_table(foundation: &Foundation, data: &[ProgramData], ridge: f64) -> MarchTable {
    let eq = accumulate_normal_equations(foundation, data);
    solve_table(&eq, ridge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foundation::ArchSpec;
    use perfvec_ml::init::seeded_rng;
    use perfvec_ml::tensor::dot;
    use perfvec_trace::features::Matrix;
    use perfvec_trace::NUM_FEATURES;
    use rand::Rng;

    fn synthetic(foundation: &Foundation, k: usize, n: usize) -> (Vec<ProgramData>, Vec<Vec<f32>>) {
        let d = foundation.dim();
        let mut rng = seeded_rng(31);
        let true_reps: Vec<Vec<f32>> = (0..k)
            .map(|_| (0..d).map(|_| rng.gen_range(-0.5..0.5f32)).collect())
            .collect();
        let mut features = Matrix::zeros(n, NUM_FEATURES);
        for i in 0..n {
            for j in 0..6 {
                features.row_mut(i)[j * 7] = rng.gen_range(0.0..1.0f32);
            }
        }
        let mut targets = Matrix::zeros(n, k);
        for i in 0..n {
            let r = foundation.repr_at(&features, i);
            for (j, tr) in true_reps.iter().enumerate() {
                targets.row_mut(i)[j] = dot(&r, tr) / foundation.target_scale;
            }
        }
        (
            vec![ProgramData {
                name: "syn".into(),
                features,
                targets,
            }],
            true_reps,
        )
    }

    #[test]
    fn refit_recovers_exact_linear_targets() {
        let foundation = Foundation::new(ArchSpec::default_lstm(8), 2, 1.0, 5);
        let (data, true_reps) = synthetic(&foundation, 4, 300);
        let table = refit_march_table(&foundation, &data, 1e-10);
        // Predictions on every instruction must match near-exactly.
        for i in 0..data[0].len() {
            let r = foundation.repr_at(&data[0].features, i);
            for (j, tr) in true_reps.iter().enumerate() {
                let truth = dot(&r, tr);
                let pred = dot(&r, table.rep(j));
                assert!(
                    (pred - truth).abs() < 1e-3 * (1.0 + truth.abs()),
                    "i={i} j={j}: {pred} vs {truth}"
                );
            }
        }
    }

    #[test]
    fn normal_equations_count_every_instruction() {
        let foundation = Foundation::new(ArchSpec::default_lstm(8), 2, 1.0, 5);
        let (data, _) = synthetic(&foundation, 2, 123);
        let eq = accumulate_normal_equations(&foundation, &data);
        assert_eq!(eq.count, 123);
        // Gram matrix must be symmetric.
        for i in 0..8 {
            for j in 0..8 {
                assert!((eq.xtx[i * 8 + j] - eq.xtx[j * 8 + i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn heavier_ridge_shrinks_solutions() {
        let foundation = Foundation::new(ArchSpec::default_lstm(8), 2, 1.0, 5);
        let (data, _) = synthetic(&foundation, 2, 200);
        let eq = accumulate_normal_equations(&foundation, &data);
        let light = solve_table(&eq, 1e-10);
        let heavy = solve_table(&eq, 1e3);
        let norm = |t: &MarchTable| t.reps.iter().map(|v| (v * v) as f64).sum::<f64>();
        assert!(norm(&heavy) < 0.5 * norm(&light));
    }
}
