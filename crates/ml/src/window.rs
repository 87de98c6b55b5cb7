//! Instruction windows as the input of batched inference, and the
//! layer-0 input and step store of the batched recurrence.
//!
//! A window `(rows, i)` names row `i` of a row-major `n x in_dim`
//! feature matrix `rows`. Its `t` steps are rows `i + 1 - t ..= i`,
//! oldest first; steps before row 0 are all-zero padding. Windows of
//! neighbouring instructions overlap in all but one row, so a
//! recurrent model projects each distinct row through its bottom
//! layer's input weights once per block (`Columns::distinct`) and
//! lets every window that contains the row read the projected column.
//!
//! Instruction features are mostly zero (one-hot fields and empty
//! register slots), so the projection visits only each column's nonzero
//! features.

use crate::tensor::compact_nonzeros;

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

/// The bottom-layer input of a batched recurrent pass, as columns:
/// column `c` is the input vector `x[c]` (an empty slice is the all-zero
/// padding column), and step `t` of lane `s` reads column
/// `slot[t * batch + s]`.
pub(crate) struct Columns<'a> {
    x: Vec<&'a [f32]>,
    /// Lanes per step.
    pub(crate) batch: usize,
    slot: Vec<usize>,
    /// Per step, the first column when that step's lanes read
    /// consecutive columns (the gather is then a row copy).
    run: Vec<Option<usize>>,
}

/// A layer's input weights `W` (`rows x in_dim`) and bias, as the
/// projection reads them: `W` column-major (`W[:, k]` at `k * rows`).
pub(crate) struct InputWeights<'w> {
    w_cols: Vec<f32>,
    b: &'w [f32],
    in_dim: usize,
}

impl<'w> InputWeights<'w> {
    /// Copy the row-major `w` (`b.len()` rows) column-major.
    pub(crate) fn new(w: &[f32], b: &'w [f32]) -> InputWeights<'w> {
        let rows = b.len();
        let in_dim = w.len() / rows;
        assert_eq!(w.len(), rows * in_dim);
        let mut w_cols = vec![0.0f32; in_dim * rows];
        for (r, wr) in w.chunks_exact(in_dim).enumerate() {
            for (k, &v) in wr.iter().enumerate() {
                w_cols[k * rows + r] = v;
            }
        }
        InputWeights { w_cols, b, in_dim }
    }

    fn rows(&self) -> usize {
        self.b.len()
    }
}

impl<'a> Columns<'a> {
    /// One column per distinct row of `windows`, plus one all-zero
    /// column when some window reaches before row 0. A window whose
    /// rows continue the previous window's (same matrix, first row
    /// inside or right after the rows seen so far) reuses their
    /// columns, so a block of consecutive windows projects
    /// `batch + t - 1` columns instead of `batch * t`; any other window
    /// starts fresh columns.
    pub(crate) fn distinct(windows: &[Window<'a>], t: usize, in_dim: usize) -> Columns<'a> {
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
        // The runs number their columns consecutively, in run order.
        let mut x: Vec<&[f32]> = runs
            .iter()
            .flat_map(|&(rows, lo, hi, _)| rows[lo * in_dim..hi * in_dim].chunks_exact(in_dim))
            .collect();
        if slot.contains(&usize::MAX) {
            for c in slot.iter_mut().filter(|c| **c == usize::MAX) {
                *c = n;
            }
            x.push(&[]);
        }
        Columns::new(x, batch, slot)
    }

    /// One column per (step, lane) slot of the sequence-major block
    /// `xs` (`batch` consecutive `t x in_dim` sequences), step-major so
    /// every step's lanes read consecutive columns.
    pub(crate) fn every_slot(xs: &'a [f32], t: usize, batch: usize, in_dim: usize) -> Columns<'a> {
        assert_eq!(xs.len(), batch * t * in_dim);
        let x = (0..t)
            .flat_map(|step| (0..batch).map(move |s| (s * t + step) * in_dim))
            .map(|at| &xs[at..at + in_dim])
            .collect();
        Columns::new(x, batch, (0..t * batch).collect())
    }

    fn new(x: Vec<&'a [f32]>, batch: usize, slot: Vec<usize>) -> Columns<'a> {
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
            batch,
            slot,
            run,
        }
    }

    /// Layer 0's input term `b + W x` of a pass over these columns. When
    /// some column is read more than once (overlapping windows, padding)
    /// every column is projected ahead, once, and each step gathers its
    /// columns; when each is read once, each step projects its columns
    /// straight into its pre-activations, where projecting ahead would
    /// only add a copy. Both give the same bits.
    pub(crate) fn input<'s>(&'s self, w: &'s InputWeights<'s>) -> Layer0<'s> {
        let ahead = (self.x.len() < self.slot.len()).then(|| self.project(w));
        Layer0 {
            cols: self,
            w,
            ahead,
        }
    }

    /// `b + W x` for every column: a `rows x n` batch-major matrix
    /// ([`Columns::project_into`]).
    fn project(&self, w: &InputWeights<'_>) -> Vec<f32> {
        let n = self.x.len();
        let mut p = vec![0.0f32; w.rows() * n];
        self.project_into(w, n, |j| j, &mut p);
        p
    }

    /// `out[r][j] = b[r] + (W x[col(j)])[r]` for `j < count`, `out`
    /// batch-major (`rows x count`).
    ///
    /// Per column, an accumulator over the `rows` outputs starts at
    /// +0.0 and adds `W[:, k] * x_k` for the column's nonzero features,
    /// `k` ascending; the bias is then added. That is the chain a
    /// scalar step computes before it adds its recurrent term
    /// ([`crate::tensor::gemv_acc`]: one ascending-`k` sum from +0.0,
    /// added to the bias) with its `w * 0` terms left out, and leaving
    /// them out changes no bit: each is ±0.0 for a finite weight, and a
    /// sum started from +0.0 is never −0.0 in round-to-nearest (a sum
    /// is −0.0 only when both terms are), so adding ±0.0 to it is a
    /// no-op.
    fn project_into(
        &self,
        w: &InputWeights<'_>,
        count: usize,
        col: impl Fn(usize) -> usize,
        out: &mut [f32],
    ) {
        let rows = w.rows();
        debug_assert_eq!(out.len(), rows * count);
        // Columns are projected a block at a time into `q` (one column
        // per `rows`-long row) and written out transposed, a contiguous
        // run of `out` per output row (a fixed-width run for a full
        // block, which compiles to far faster code).
        const BLOCK: usize = 16;
        let mut q = vec![0.0f32; BLOCK * rows];
        let (mut ks, mut vs) = (vec![0u32; w.in_dim], vec![0.0f32; w.in_dim]);
        for j0 in (0..count).step_by(BLOCK) {
            let width = BLOCK.min(count - j0);
            for (j, qc) in q.chunks_exact_mut(rows).take(width).enumerate() {
                let m = compact_nonzeros(self.x[col(j0 + j)], &mut ks, &mut vs);
                sparse_column(&w.w_cols, &ks[..m], &vs[..m], qc);
            }
            let out_rows = out.chunks_exact_mut(count).zip(w.b).enumerate();
            if width == BLOCK {
                for (r, (or, &bv)) in out_rows {
                    let run: &mut [f32; BLOCK] = (&mut or[j0..j0 + BLOCK]).try_into().unwrap();
                    for j in 0..BLOCK {
                        run[j] = bv + q[j * rows + r];
                    }
                }
            } else {
                for (r, (or, &bv)) in out_rows {
                    for (j, ov) in or[j0..j0 + width].iter_mut().enumerate() {
                        *ov = bv + q[j * rows + r];
                    }
                }
            }
        }
    }

    /// Copy step `t`'s columns of the projection `p` (`rows x n`) into
    /// the batch-major `rows x batch` matrix `z`.
    fn gather(&self, p: &[f32], rows: usize, t: usize, z: &mut [f32]) {
        let (n, batch) = (self.x.len(), self.batch);
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

/// Layer 0's `b + W x` over [`Columns`], step by step
/// ([`Columns::input`]).
pub(crate) struct Layer0<'s> {
    cols: &'s Columns<'s>,
    w: &'s InputWeights<'s>,
    /// Every column projected, when the columns are shared.
    ahead: Option<Vec<f32>>,
}

impl Layer0<'_> {
    /// Step `t`'s `b + W x`, one lane per column of the batch-major
    /// `rows x batch` matrix `z`.
    pub(crate) fn step(&self, t: usize, z: &mut [f32]) {
        let (c, batch) = (self.cols, self.cols.batch);
        match &self.ahead {
            Some(p) => c.gather(p, self.w.rows(), t, z),
            None => {
                let lanes = &c.slot[t * batch..(t + 1) * batch];
                c.project_into(self.w, batch, |s| lanes[s], z);
            }
        }
    }
}

/// Slots in the step store of a batched recurrent pass: how many steps
/// of its states each layer keeps. Training keeps every step (`all`),
/// as its backward pass reads them all; inference keeps a ring of two,
/// as a step reads only the step before. Step `t` lives in slot
/// `t % slots`, and the slot before it is, at `t = 0`, still the
/// all-zero initial state, so a store has at least two slots.
pub(crate) fn store_slots(all: bool, t_steps: usize) -> usize {
    if all {
        t_steps.max(2)
    } else {
        2
    }
}

/// `out = W x` for one column `x` given by its nonzero features
/// `(ks, vs)`: `w_cols` is `W` column-major (`W[:, k]` at
/// `k * out.len()`). Blocks of output rows stay in registers across all
/// of the column's features.
fn sparse_column(w_cols: &[f32], ks: &[u32], vs: &[f32], out: &mut [f32]) {
    let rows = out.len();
    let mut r0 = 0;
    while r0 + 32 <= rows {
        sparse_column_block::<32>(w_cols, ks, vs, r0, out);
        r0 += 32;
    }
    while r0 + 8 <= rows {
        sparse_column_block::<8>(w_cols, ks, vs, r0, out);
        r0 += 8;
    }
    while r0 < rows {
        sparse_column_block::<1>(w_cols, ks, vs, r0, out);
        r0 += 1;
    }
}

#[inline]
fn sparse_column_block<const R: usize>(
    w_cols: &[f32],
    ks: &[u32],
    vs: &[f32],
    r0: usize,
    out: &mut [f32],
) {
    let rows = out.len();
    let mut a = [0.0f32; R];
    for (&k, &v) in ks.iter().zip(vs) {
        let at = k as usize * rows + r0;
        let w = &w_cols[at..at + R];
        for i in 0..R {
            a[i] += w[i] * v;
        }
    }
    out[r0..r0 + R].copy_from_slice(&a);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(n: usize, in_dim: usize, salt: f32) -> Vec<f32> {
        (0..n * in_dim).map(|v| v as f32 + salt).collect()
    }

    /// The input vector lane `s` reads at step `t`, through the columns.
    fn column_of(c: &Columns<'_>, in_dim: usize, t: usize, s: usize) -> Vec<f32> {
        let x = c.x[c.slot[t * c.batch + s]];
        if x.is_empty() {
            vec![0.0; in_dim]
        } else {
            x.to_vec()
        }
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
        assert_eq!(c.x.len(), 9 + 4 + 6 + 1);
        assert!(c.run[0].is_none());
    }

    #[test]
    fn consecutive_windows_gather_by_row_copy() {
        let (in_dim, t) = (2, 3);
        let a = matrix(40, in_dim, 0.0);
        let windows: Vec<Window<'_>> = (10..42 - 2).map(|i| (a.as_slice(), i)).collect();
        let c = Columns::distinct(&windows, t, in_dim);
        assert_eq!(c.x.len(), windows.len() + t - 1);
        assert!(c.run.iter().all(Option::is_some));
        let ones = vec![1.0; 5 * t * in_dim];
        let every = Columns::every_slot(&ones, t, 5, in_dim);
        assert!(every.run.iter().all(Option::is_some));
    }

    #[test]
    fn sparse_projection_is_bit_identical_to_gemm_bm_acc() {
        // 45 output rows run the 32-, 8- and 1-wide blocks; 8 lanes of 3
        // steps give 24 columns (one full block of 16 and a part block).
        // Lane 0 is all zeros, lane 1's first step has no zero, the rest
        // are three quarters zeros, some of them −0.0; a −0.0 bias row
        // meets the all-zero columns. The same rows also run as windows,
        // whose padding column is empty.
        let (in_dim, rows, t, batch) = (7usize, 45usize, 3usize, 8usize);
        let xs: Vec<f32> = (0..batch * t * in_dim)
            .map(|i| {
                let (s, k) = (i / (t * in_dim), i % in_dim);
                let v = ((i * 37 % 23) as f32 - 11.0) * 0.13 + 0.01;
                match s {
                    0 => 0.0,
                    1 if i / in_dim == t => v,
                    _ if (i * 7 + k) % 4 != 0 => [0.0, -0.0][i % 2],
                    _ => v,
                }
            })
            .collect();
        let w: Vec<f32> = (0..rows * in_dim)
            .map(|i| ((i * 29 % 31) as f32 - 15.0) * 0.071)
            .collect();
        let b: Vec<f32> = (0..rows)
            .map(|r| if r == 3 { -0.0 } else { r as f32 * 0.1 - 2.0 })
            .collect();
        let weights = InputWeights::new(&w, &b);
        let n = t * batch;
        let dense = |cols: &Columns<'_>| {
            let n = cols.x.len();
            let mut x_bm = vec![0.0f32; in_dim * n];
            for (c, x) in cols.x.iter().enumerate() {
                for (k, &v) in x.iter().enumerate() {
                    x_bm[k * n + c] = v;
                }
            }
            let mut want = vec![0.0f32; rows * n];
            for (row, &bv) in want.chunks_exact_mut(n).zip(&b) {
                row.fill(bv);
            }
            let mut acc = vec![0.0f32; n];
            crate::tensor::gemm_bm_acc(&w, &x_bm, &mut want, rows, in_dim, n, &mut acc);
            want
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let c = Columns::every_slot(&xs, t, batch, in_dim);
        assert!(c.x[0].iter().all(|&v| v == 0.0));
        assert!(c.x[1].iter().all(|&v| v != 0.0));
        let want = dense(&c);
        assert_eq!(bits(&c.project(&weights)), bits(&want));
        // Step by step, straight into a batch-major `z`.
        let mut z = vec![0.0f32; rows * batch];
        let input = c.input(&weights);
        assert!(input.ahead.is_none());
        for step in 0..t {
            input.step(step, &mut z);
            for r in 0..rows {
                let at = r * n + step * batch;
                assert_eq!(
                    bits(&z[r * batch..(r + 1) * batch]),
                    bits(&want[at..at + batch])
                );
            }
        }
        // Windows over the same rows, with the empty padding column.
        let windows: Vec<Window<'_>> = (0..batch).map(|i| (xs.as_slice(), i)).collect();
        let c = Columns::distinct(&windows, t, in_dim);
        assert!(c.x.last().is_some_and(|x| x.is_empty()));
        assert!(c.input(&weights).ahead.is_some());
        assert_eq!(bits(&c.project(&weights)), bits(&dense(&c)));
    }
}
