//! Instruction windows as the input of batched inference.
//!
//! A window `(rows, i)` names row `i` of a row-major `n x in_dim`
//! feature matrix `rows`. Its `t` steps are rows `i + 1 - t ..= i`,
//! oldest first; steps before row 0 are all-zero padding. Windows of
//! neighbouring instructions overlap in all but one row, so a
//! recurrent model projects each distinct row through its bottom
//! layer's input weights once per block (`Columns::distinct`) and
//! lets every window that contains the row read the projected column.

use crate::tensor::gemm_bm_acc;

/// One window: a row-major `n x in_dim` feature matrix and the row the
/// window ends at.
pub type Window<'a> = (&'a [f32], usize);

/// Fill `windows` of `t` steps each into `xs`, sequence-major
/// (`windows.len()` consecutive `t x in_dim` blocks): the input layout
/// of [`crate::seq::SeqModel::forward_batch`].
pub fn fill_windows(windows: &[Window<'_>], t: usize, in_dim: usize, xs: &mut Vec<f32>) {
    xs.clear();
    xs.resize(windows.len() * t * in_dim, 0.0);
    for (lane, &(rows, i)) in xs.chunks_exact_mut(t * in_dim).zip(windows) {
        assert!(
            (i + 1) * in_dim <= rows.len(),
            "window row {i} out of range"
        );
        // The newest `len` steps are real rows; older ones stay zero.
        let len = (i + 1).min(t);
        lane[(t - len) * in_dim..].copy_from_slice(&rows[(i + 1 - len) * in_dim..(i + 1) * in_dim]);
    }
}

/// The bottom-layer input of a batched recurrent pass, as columns: `x`
/// holds `n` input vectors batch-major (`in_dim x n`, entry
/// `k * n + c`), and step `t` of lane `s` reads column
/// `slot[t * batch + s]`.
pub(crate) struct Columns {
    x: Vec<f32>,
    in_dim: usize,
    n: usize,
    /// Lanes per step.
    pub(crate) batch: usize,
    slot: Vec<usize>,
    /// Per step, the first column when that step's lanes read
    /// consecutive columns (the gather is then a row copy).
    run: Vec<Option<usize>>,
}

impl Columns {
    /// One column per distinct row of `windows`, plus one all-zero
    /// column when some window reaches before row 0. A window whose
    /// rows continue the previous window's (same matrix, first row
    /// inside or right after the rows seen so far) reuses their
    /// columns, so a block of consecutive windows projects
    /// `batch + t - 1` columns instead of `batch * t`; any other window
    /// starts fresh columns.
    pub(crate) fn distinct(windows: &[Window<'_>], t: usize, in_dim: usize) -> Columns {
        let batch = windows.len();
        // Runs of distinct rows: (matrix, first row, end row, first column).
        let mut runs: Vec<(&[f32], usize, usize, usize)> = Vec::new();
        let mut n = 0;
        let mut slot = vec![usize::MAX; t * batch];
        for (s, &(rows, i)) in windows.iter().enumerate() {
            assert!(
                (i + 1) * in_dim <= rows.len(),
                "window row {i} out of range"
            );
            let lo = (i + 1).saturating_sub(t);
            let run = match runs.last_mut() {
                Some(r) if std::ptr::eq(r.0, rows) && r.1 <= lo && lo <= r.2 && r.2 <= i + 1 => {
                    n += i + 1 - r.2;
                    r.2 = i + 1;
                    *r
                }
                _ => {
                    runs.push((rows, lo, i + 1, n));
                    n += i + 1 - lo;
                    runs[runs.len() - 1]
                }
            };
            // Step `step` reads row `i + 1 - t + step`, padding when negative.
            for step in (t - (i + 1 - lo))..t {
                slot[step * batch + s] = run.3 + (i + 1 + step - t - run.1);
            }
        }
        if slot.contains(&usize::MAX) {
            for c in slot.iter_mut().filter(|c| **c == usize::MAX) {
                *c = n;
            }
            n += 1;
        }
        let mut x = vec![0.0f32; in_dim * n];
        for &(rows, lo, hi, c0) in &runs {
            for (j, row) in rows[lo * in_dim..hi * in_dim]
                .chunks_exact(in_dim)
                .enumerate()
            {
                for (k, &v) in row.iter().enumerate() {
                    x[k * n + c0 + j] = v;
                }
            }
        }
        Columns::new(x, in_dim, n, batch, slot)
    }

    /// One column per (step, lane) slot of the sequence-major block
    /// `xs` (`batch` consecutive `t x in_dim` sequences), step-major so
    /// every step's lanes read consecutive columns.
    pub(crate) fn every_slot(xs: &[f32], t: usize, batch: usize, in_dim: usize) -> Columns {
        assert_eq!(xs.len(), batch * t * in_dim);
        let n = t * batch;
        let mut x = vec![0.0f32; in_dim * n];
        for (s, seq) in xs.chunks_exact(t * in_dim).enumerate() {
            for (step, row) in seq.chunks_exact(in_dim).enumerate() {
                for (k, &v) in row.iter().enumerate() {
                    x[k * n + step * batch + s] = v;
                }
            }
        }
        Columns::new(x, in_dim, n, batch, (0..n).collect())
    }

    fn new(x: Vec<f32>, in_dim: usize, n: usize, batch: usize, slot: Vec<usize>) -> Columns {
        let run = slot
            .chunks_exact(batch)
            .map(|lanes| {
                let c0 = lanes[0];
                lanes
                    .iter()
                    .enumerate()
                    .all(|(s, &c)| c == c0 + s)
                    .then_some(c0)
            })
            .collect();
        Columns {
            x,
            in_dim,
            n,
            batch,
            slot,
            run,
        }
    }

    /// `b + W x` for every column: a `rows x n` batch-major matrix. Each
    /// entry is the bias plus one ascending-`k` sum started from +0.0
    /// ([`gemm_bm_acc`], whose per-lane result depends on neither the
    /// batch width nor the lane position) — exactly the prefix a scalar
    /// step computes before it adds its recurrent term.
    pub(crate) fn project(&self, w: &[f32], b: &[f32], rows: usize) -> Vec<f32> {
        let mut p = vec![0.0f32; rows * self.n];
        for (row, &bv) in p.chunks_exact_mut(self.n).zip(b) {
            row.fill(bv);
        }
        let mut acc = vec![0.0f32; self.n];
        gemm_bm_acc(w, &self.x, &mut p, rows, self.in_dim, self.n, &mut acc);
        p
    }

    /// Copy step `t`'s columns of the projection `p` (`rows x n`) into
    /// the batch-major `rows x batch` matrix `z`.
    pub(crate) fn gather(&self, p: &[f32], rows: usize, t: usize, z: &mut [f32]) {
        let (n, batch) = (self.n, self.batch);
        let dst = z[..rows * batch].chunks_exact_mut(batch);
        match self.run[t] {
            Some(c0) => {
                for (zr, pr) in dst.zip(p.chunks_exact(n)) {
                    zr.copy_from_slice(&pr[c0..c0 + batch]);
                }
            }
            None => {
                let lanes = &self.slot[t * batch..(t + 1) * batch];
                for (zr, pr) in dst.zip(p.chunks_exact(n)) {
                    for (zv, &c) in zr.iter_mut().zip(lanes) {
                        *zv = pr[c];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(n: usize, in_dim: usize, salt: f32) -> Vec<f32> {
        (0..n * in_dim).map(|v| v as f32 + salt).collect()
    }

    /// The input vector lane `s` reads at step `t`, through the columns.
    fn column_of(c: &Columns, in_dim: usize, t: usize, s: usize) -> Vec<f32> {
        let col = c.slot[t * c.batch + s];
        (0..in_dim).map(|k| c.x[k * c.n + col]).collect()
    }

    #[test]
    fn distinct_columns_read_exactly_the_filled_windows() {
        let (in_dim, t) = (3, 4);
        let (a, b) = (matrix(9, in_dim, 0.5), matrix(6, in_dim, 100.5));
        let windows: Vec<Window<'_>> = vec![
            (&a, 0),
            (&a, 1),
            (&a, 2),
            (&a, 3),
            (&a, 4),
            (&a, 8),
            (&a, 6),
            (&b, 1),
            (&b, 2),
            (&b, 5),
        ];
        let mut xs = Vec::new();
        fill_windows(&windows, t, in_dim, &mut xs);
        let c = Columns::distinct(&windows, t, in_dim);
        for s in 0..windows.len() {
            for step in 0..t {
                let want = &xs[(s * t + step) * in_dim..(s * t + step + 1) * in_dim];
                assert_eq!(column_of(&c, in_dim, step, s), want, "lane {s} step {step}");
            }
        }
        // a: rows 0..=8 once (row 8's window continues row 4's), then
        // 3..=6 fresh; b: 0..=5 once; plus the padding column.
        assert_eq!(c.n, 9 + 4 + 6 + 1);
        assert!(c.run[0].is_none());
    }

    #[test]
    fn consecutive_windows_gather_by_row_copy() {
        let (in_dim, t) = (2, 3);
        let a = matrix(40, in_dim, 0.0);
        let windows: Vec<Window<'_>> = (10..42 - 2).map(|i| (a.as_slice(), i)).collect();
        let c = Columns::distinct(&windows, t, in_dim);
        assert_eq!(c.n, windows.len() + t - 1);
        assert!(c.run.iter().all(Option::is_some));
        let every = Columns::every_slot(&vec![1.0; 5 * t * in_dim], t, 5, in_dim);
        assert!(every.run.iter().all(Option::is_some));
    }
}
