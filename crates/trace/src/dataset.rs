//! Training-dataset containers: per-program feature/target matrices
//! and context windows.

use crate::features::{Matrix, NUM_FEATURES};

/// All learning data for one program: the `n x 51` feature matrix and an
/// `n x k` target matrix of incremental latencies (0.1 ns) on `k`
/// sampled microarchitectures.
#[derive(Debug, Clone)]
pub struct ProgramData {
    /// Program name (matches the workload suite).
    pub name: String,
    /// `n x NUM_FEATURES` microarchitecture-independent features.
    pub features: Matrix,
    /// `n x k` incremental latencies; column `j` belongs to sampled
    /// microarchitecture `j`.
    pub targets: Matrix,
}

impl ProgramData {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.features.rows
    }

    /// True when the program contributed no instructions.
    pub fn is_empty(&self) -> bool {
        self.features.rows == 0
    }

    /// Number of target microarchitectures.
    pub fn num_marches(&self) -> usize {
        self.targets.cols
    }

    /// Total simulated time (0.1 ns) on microarchitecture `j` — the sum
    /// of the incremental-latency column.
    pub fn total_time(&self, j: usize) -> f64 {
        (0..self.len()).map(|i| self.targets.row(i)[j] as f64).sum()
    }

    /// Keep only the first `n` instructions (used by the data-volume
    /// ablation).
    pub fn truncated(&self, n: usize) -> ProgramData {
        let n = n.min(self.len());
        ProgramData {
            name: self.name.clone(),
            features: Matrix {
                rows: n,
                cols: self.features.cols,
                data: self.features.data[..n * self.features.cols].to_vec(),
            },
            targets: Matrix {
                rows: n,
                cols: self.targets.cols,
                data: self.targets.data[..n * self.targets.cols].to_vec(),
            },
        }
    }

    /// Keep only the target columns in `keep` (used by the
    /// microarchitecture-count ablation).
    pub fn with_march_subset(&self, keep: &[usize]) -> ProgramData {
        let mut t = Matrix::zeros(self.len(), keep.len());
        for i in 0..self.len() {
            let src = self.targets.row(i);
            let dst = t.row_mut(i);
            for (jj, &j) in keep.iter().enumerate() {
                dst[jj] = src[j];
            }
        }
        ProgramData {
            name: self.name.clone(),
            features: self.features.clone(),
            targets: t,
        }
    }
}

/// Copy the `(context+1) x NUM_FEATURES` window ending at instruction
/// `i` into `out`, zero-padding rows that fall before the start of the
/// trace. `out.len()` must equal `(context+1) * NUM_FEATURES`.
pub fn fill_window(features: &Matrix, i: usize, context: usize, out: &mut [f32]) {
    let w = context + 1;
    debug_assert_eq!(out.len(), w * NUM_FEATURES);
    debug_assert_eq!(features.cols, NUM_FEATURES);
    for (slot, row_out) in out.chunks_exact_mut(NUM_FEATURES).enumerate() {
        // slot 0 is the oldest instruction in the window; slot w-1 is i.
        let offset = (w - 1) - slot;
        if i >= offset {
            row_out.copy_from_slice(features.row(i - offset));
        } else {
            row_out.fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data(n: usize, k: usize) -> ProgramData {
        let mut features = Matrix::zeros(n, NUM_FEATURES);
        let mut targets = Matrix::zeros(n, k);
        for i in 0..n {
            features.row_mut(i)[0] = i as f32;
            for j in 0..k {
                targets.row_mut(i)[j] = (i * 10 + j) as f32;
            }
        }
        ProgramData {
            name: "toy".into(),
            features,
            targets,
        }
    }

    #[test]
    fn total_time_sums_target_column() {
        let d = toy_data(4, 2);
        // column 1: 1 + 11 + 21 + 31
        assert_eq!(d.total_time(1), 64.0);
    }

    #[test]
    fn window_is_zero_padded_at_trace_start() {
        let d = toy_data(10, 1);
        let c = 3;
        let mut out = vec![0f32; (c + 1) * NUM_FEATURES];
        fill_window(&d.features, 1, c, &mut out);
        // slots: [pad, pad, row0, row1]
        assert_eq!(out[0], 0.0);
        assert_eq!(out[NUM_FEATURES], 0.0);
        assert_eq!(out[2 * NUM_FEATURES], 0.0); // row 0 has feature[0] = 0
        assert_eq!(out[3 * NUM_FEATURES], 1.0); // row 1
    }

    #[test]
    fn window_slots_are_oldest_first() {
        let d = toy_data(10, 1);
        let c = 2;
        let mut out = vec![0f32; (c + 1) * NUM_FEATURES];
        fill_window(&d.features, 5, c, &mut out);
        assert_eq!(out[0], 3.0);
        assert_eq!(out[NUM_FEATURES], 4.0);
        assert_eq!(out[2 * NUM_FEATURES], 5.0);
    }

    #[test]
    fn truncation_limits_rows() {
        let d = toy_data(10, 3).truncated(4);
        assert_eq!(d.len(), 4);
        assert_eq!(d.num_marches(), 3);
        assert_eq!(d.features.row(3)[0], 3.0);
    }

    #[test]
    fn march_subset_selects_columns() {
        let d = toy_data(5, 4).with_march_subset(&[3, 1]);
        assert_eq!(d.num_marches(), 2);
        assert_eq!(d.targets.row(2), &[23.0, 21.0]);
    }
}
