//! Dense math kernels: the small set of BLAS-1/2 routines every layer's
//! forward and backward pass is built from, plus the shared batch-major
//! substrate all six architectures' batched paths are ported onto
//! (layout helpers, lane-chunk driver, lane-replayed softmax).
//!
//! All matrices are row-major `rows x cols` slices. These routines are
//! deliberately scalar-simple — the parallelism in this library lives at
//! the batch level (see [`crate::parallel`]), matching how the paper
//! trains: many independent instruction windows at once.
//!
//! ## The batch-major substrate
//!
//! A batch-major matrix stores entry `[k][s]` (feature `k` of sequence
//! `s`) at `k * batch + s`: the batch dimension is contiguous, so inner
//! loops run over lanes with loop-invariant weights and vectorize. The
//! bit-identity contract every batched path obeys: per *memory
//! location*, the batched kernels perform exactly the scalar path's
//! sequence of floating-point operations (each lane replays the scalar
//! op order; parameter gradients are accumulated post-recursion in
//! scalar order, sequence-ascending). See [`gemm_bm_acc`],
//! [`softmax_bm_inplace`], and the `for_lane_chunks!` driver.

/// `y += W x` for row-major `W: rows x cols`, `x: cols`, `y: rows`.
#[inline]
pub fn gemv_acc(w: &[f32], x: &[f32], y: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(x.len(), cols);
    debug_assert_eq!(y.len(), rows);
    for (r, yr) in y.iter_mut().enumerate() {
        let row = &w[r * cols..(r + 1) * cols];
        let mut acc = 0.0f32;
        for (a, b) in row.iter().zip(x) {
            acc += a * b;
        }
        *yr += acc;
    }
}

/// Batch-major `Z += W X` for row-major `W: rows x cols` and
/// batch-major `X: cols x batch`, `Z: rows x batch` (entry `[k][s]` of a
/// batch-major matrix is sequence `s`'s value of feature `k`, stored at
/// `k * batch + s`).
///
/// This is [`gemv_acc`] amortized over a batch: each weight row is
/// traversed once for all `batch` sequences instead of once per
/// sequence, and the inner loop runs over the contiguous batch dimension
/// with a loop-invariant weight — a form the compiler can vectorize,
/// unlike `gemv_acc`'s dot-product reduction (float adds cannot be
/// reordered). Per sequence, products are accumulated in the same
/// ascending-`k` order into a separate accumulator that is added to `Z`
/// once, exactly mirroring `gemv_acc`, so results are bit-identical to
/// `batch` independent `gemv_acc` calls.
///
/// `acc` is caller-provided scratch of length >= `batch`.
#[inline]
pub fn gemm_bm_acc(
    w: &[f32],
    x_bm: &[f32],
    z_bm: &mut [f32],
    rows: usize,
    cols: usize,
    batch: usize,
    acc: &mut [f32],
) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(x_bm.len(), cols * batch);
    debug_assert_eq!(z_bm.len(), rows * batch);
    debug_assert!(acc.len() >= batch);
    // Lane blocking: fixed-width accumulator arrays live in vector
    // registers across the whole k loop (one x load + one multiply-add
    // per element), instead of bouncing a scratch row through memory
    // per (r, k). Each lane's per-sequence chain is a *serial* sum over
    // k (FP order fixed), so wide blocks matter: every extra lane is an
    // independent dependency chain hiding the add latency of the
    // others. A 16-lane block carries two weight rows at once to keep
    // as many chains in flight as the 32-lane block (the width of one
    // lane half of a split training chunk). Each lane still sums
    // k-ascending — bit-identical to [`gemv_acc`] per sequence, whatever
    // the block width or row pairing.
    let mut b0 = 0;
    while b0 + 32 <= batch {
        for r in 0..rows {
            lane_block::<32>(&w[r * cols..(r + 1) * cols], x_bm, z_bm, r, batch, b0);
        }
        b0 += 32;
    }
    while b0 + 16 <= batch {
        let mut r = 0;
        while r + 2 <= rows {
            lane_block_pair::<16>(&w[r * cols..(r + 2) * cols], x_bm, z_bm, r, batch, b0);
            r += 2;
        }
        if r < rows {
            lane_block::<16>(&w[r * cols..(r + 1) * cols], x_bm, z_bm, r, batch, b0);
        }
        b0 += 16;
    }
    while b0 + 8 <= batch {
        for r in 0..rows {
            lane_block::<8>(&w[r * cols..(r + 1) * cols], x_bm, z_bm, r, batch, b0);
        }
        b0 += 8;
    }
    if b0 < batch {
        let tail = batch - b0;
        let a = &mut acc[..tail];
        for r in 0..rows {
            a.fill(0.0);
            for (k, &wv) in w[r * cols..(r + 1) * cols].iter().enumerate() {
                let x = &x_bm[k * batch + b0..k * batch + b0 + tail];
                for (av, &xv) in a.iter_mut().zip(x) {
                    *av += wv * xv;
                }
            }
            for (z, &av) in z_bm[r * batch + b0..(r + 1) * batch]
                .iter_mut()
                .zip(a.iter())
            {
                *z += av;
            }
        }
    }
}

#[inline]
fn lane_block<const L: usize>(
    wrow: &[f32],
    x_bm: &[f32],
    z_bm: &mut [f32],
    r: usize,
    batch: usize,
    b0: usize,
) {
    let mut a = [0.0f32; L];
    for (k, &wv) in wrow.iter().enumerate() {
        let x = &x_bm[k * batch + b0..k * batch + b0 + L];
        for l in 0..L {
            a[l] += wv * x[l];
        }
    }
    let z = &mut z_bm[r * batch + b0..r * batch + b0 + L];
    for l in 0..L {
        z[l] += a[l];
    }
}

/// [`lane_block`] over weight rows `r` and `r + 1` (`wrows` holds both):
/// each x load feeds two independent accumulator sets.
#[inline]
fn lane_block_pair<const L: usize>(
    wrows: &[f32],
    x_bm: &[f32],
    z_bm: &mut [f32],
    r: usize,
    batch: usize,
    b0: usize,
) {
    let (w0, w1) = wrows.split_at(wrows.len() / 2);
    let mut a0 = [0.0f32; L];
    let mut a1 = [0.0f32; L];
    for (k, (&u, &v)) in w0.iter().zip(w1).enumerate() {
        let x = &x_bm[k * batch + b0..k * batch + b0 + L];
        for l in 0..L {
            a0[l] += u * x[l];
            a1[l] += v * x[l];
        }
    }
    let z = &mut z_bm[r * batch + b0..r * batch + b0 + L];
    for l in 0..L {
        z[l] += a0[l];
    }
    let z = &mut z_bm[(r + 1) * batch + b0..(r + 1) * batch + b0 + L];
    for l in 0..L {
        z[l] += a1[l];
    }
}

/// `x_grad += W^T y` for row-major `W: rows x cols`.
///
/// Deliberately dense (no skip of `y[r] == 0.0` rows): the batch-major
/// [`gemm_bm_t_acc`] must be bit-identical to this routine per
/// sequence, and zero entries in `y` *do* occur structurally (saturated
/// gates make backward deltas exactly zero), so a zero-skip here would
/// make the two paths diverge on `-0.0` accumulator states. Adding the
/// `w * 0.0` terms keeps both paths on the same addition sequence.
#[inline]
pub fn gemv_t_acc(w: &[f32], y: &[f32], x_grad: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(y.len(), rows);
    debug_assert_eq!(x_grad.len(), cols);
    for (r, &yr) in y.iter().enumerate() {
        let row = &w[r * cols..(r + 1) * cols];
        for (g, &wv) in x_grad.iter_mut().zip(row) {
            *g += wv * yr;
        }
    }
}

/// Batch-major `X_grad += W^T Y` for row-major `W: rows x cols`,
/// batch-major `Y: rows x batch` and `X_grad: cols x batch` (entry
/// `[k][s]` at `k * batch + s`, as in [`gemm_bm_acc`]).
///
/// This is [`gemv_t_acc`] amortized over a batch: the inner loop runs
/// over the contiguous batch dimension with a loop-invariant weight, so
/// it vectorizes. Each lane receives exactly the addition sequence of
/// `gemv_t_acc` (rows ascending, accumulating onto `X_grad`'s entry),
/// so results are bit-identical to `batch` independent `gemv_t_acc`
/// calls — the contract the batched backward pass is built on. Lane
/// blocks of an `X_grad` row stay in registers across all rows of `W`
/// (a 16-lane block carries two `X_grad` rows, as in [`gemm_bm_acc`]).
#[inline]
pub fn gemm_bm_t_acc(
    w: &[f32],
    y_bm: &[f32],
    x_grad_bm: &mut [f32],
    rows: usize,
    cols: usize,
    batch: usize,
) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(y_bm.len(), rows * batch);
    debug_assert_eq!(x_grad_bm.len(), cols * batch);
    let src = TSrc {
        w,
        y_bm,
        rows,
        cols,
        batch,
    };
    let mut b0 = 0;
    while b0 + 32 <= batch {
        for c in 0..cols {
            t_block::<1, 32>(x_grad_bm, &src, c, b0);
        }
        b0 += 32;
    }
    while b0 + 16 <= batch {
        let mut c = 0;
        while c + 2 <= cols {
            t_block::<2, 16>(x_grad_bm, &src, c, b0);
            c += 2;
        }
        if c < cols {
            t_block::<1, 16>(x_grad_bm, &src, c, b0);
        }
        b0 += 16;
    }
    while b0 + 8 <= batch {
        for c in 0..cols {
            t_block::<1, 8>(x_grad_bm, &src, c, b0);
        }
        b0 += 8;
    }
    if b0 < batch {
        // Fewer than 8 lanes left: one serial chain per entry would be
        // latency-bound, so sweep W row by row as `gemv_t_acc` does (the
        // entries of a row are independent chains).
        for r in 0..rows {
            let y = &y_bm[r * batch + b0..(r + 1) * batch];
            for (c, &wv) in w[r * cols..(r + 1) * cols].iter().enumerate() {
                let xg = &mut x_grad_bm[c * batch + b0..(c + 1) * batch];
                for (g, &yv) in xg.iter_mut().zip(y) {
                    *g += wv * yv;
                }
            }
        }
    }
}

/// Operands of one [`gemm_bm_t_acc`] call.
struct TSrc<'a> {
    w: &'a [f32],
    y_bm: &'a [f32],
    rows: usize,
    cols: usize,
    batch: usize,
}

/// Lanes `b0..b0 + L` of `X_grad` rows `c0..c0 + C`, summed over every
/// row of `W` in ascending order.
#[inline]
fn t_block<const C: usize, const L: usize>(
    x_grad_bm: &mut [f32],
    src: &TSrc<'_>,
    c0: usize,
    b0: usize,
) {
    let batch = src.batch;
    let mut acc = [[0.0f32; L]; C];
    for (ci, a) in acc.iter_mut().enumerate() {
        let at = (c0 + ci) * batch + b0;
        a.copy_from_slice(&x_grad_bm[at..at + L]);
    }
    for r in 0..src.rows {
        let y = &src.y_bm[r * batch + b0..r * batch + b0 + L];
        let wrow = &src.w[r * src.cols + c0..r * src.cols + c0 + C];
        for (a, &wv) in acc.iter_mut().zip(wrow) {
            for l in 0..L {
                a[l] += wv * y[l];
            }
        }
    }
    for (ci, a) in acc.iter().enumerate() {
        let at = (c0 + ci) * batch + b0;
        x_grad_bm[at..at + L].copy_from_slice(a);
    }
}

/// Rank-1 update `W_grad += a b^T` (`a: rows`, `b: cols`).
#[inline]
pub fn outer_acc(w_grad: &mut [f32], a: &[f32], b: &[f32]) {
    debug_assert_eq!(w_grad.len(), a.len() * b.len());
    let cols = b.len();
    for (r, &av) in a.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let row = &mut w_grad[r * cols..(r + 1) * cols];
        for (g, &bv) in row.iter_mut().zip(b) {
            *g += av * bv;
        }
    }
}

/// A sequence of rank-1 updates `W_grad += a_j b_j^T`, replayed exactly
/// as one [`outer_acc`] call per update in `items` order would — every
/// entry receives the same additions in the same order, and a zero
/// `a_j[r]` skips row `r` of update `j` — but by register blocks: each
/// block of gradient entries stays in registers across all updates
/// instead of being loaded and stored once per update.
///
/// `g` is `rows x cols` row-major. Update `j` is `items[j] = (a, b)`:
/// entry `r` of its `a` vector is `coefs[a + r * row_stride]`, and its
/// `b` vector is `vecs[b..b + cols]`.
pub fn outer_acc_seq(
    g: &mut [f32],
    cols: usize,
    items: &[(usize, usize)],
    coefs: &[f32],
    row_stride: usize,
    vecs: &[f32],
) {
    let rows = g.len().checked_div(cols).unwrap_or(0);
    debug_assert_eq!(rows * cols, g.len());
    let src = ReplaySrc {
        items,
        coefs,
        row_stride,
        vecs,
        cols,
    };
    // Every block keeps eight vector registers of independent chains in
    // flight (each entry's chain is serial over the updates).
    let mut c0 = 0;
    while c0 + 32 <= cols {
        for r in 0..rows {
            replay_block::<1, 32>(g, &src, r, c0);
        }
        c0 += 32;
    }
    while c0 + 16 <= cols {
        replay_rows_by::<2, 16>(g, &src, rows, c0);
        c0 += 16;
    }
    while c0 + 8 <= cols {
        replay_rows_by::<4, 8>(g, &src, rows, c0);
        c0 += 8;
    }
    while c0 + 4 <= cols {
        replay_rows_by::<8, 4>(g, &src, rows, c0);
        c0 += 4;
    }
    while c0 < cols {
        replay_rows_by::<8, 1>(g, &src, rows, c0);
        c0 += 1;
    }
}

/// The update sequence of one [`outer_acc_seq`] call.
struct ReplaySrc<'a> {
    items: &'a [(usize, usize)],
    coefs: &'a [f32],
    row_stride: usize,
    vecs: &'a [f32],
    cols: usize,
}

/// Columns `c0..c0 + W` of all rows, `R` rows per block, then one row
/// at a time for the rows left over.
#[inline]
fn replay_rows_by<const R: usize, const W: usize>(
    g: &mut [f32],
    src: &ReplaySrc<'_>,
    rows: usize,
    c0: usize,
) {
    let mut r = 0;
    while r + R <= rows {
        replay_block::<R, W>(g, src, r, c0);
        r += R;
    }
    while r < rows {
        replay_block::<1, W>(g, src, r, c0);
        r += 1;
    }
}

#[inline]
fn replay_block<const R: usize, const W: usize>(
    g: &mut [f32],
    src: &ReplaySrc<'_>,
    r0: usize,
    c0: usize,
) {
    let cols = src.cols;
    let mut acc = [[0.0f32; W]; R];
    for (ri, a) in acc.iter_mut().enumerate() {
        let at = (r0 + ri) * cols + c0;
        a.copy_from_slice(&g[at..at + W]);
    }
    for &(a_at, b_at) in src.items {
        let v = &src.vecs[b_at + c0..b_at + c0 + W];
        for (ri, acc_r) in acc.iter_mut().enumerate() {
            let a = src.coefs[a_at + (r0 + ri) * src.row_stride];
            if a != 0.0 {
                for l in 0..W {
                    acc_r[l] += a * v[l];
                }
            }
        }
    }
    for (ri, a) in acc.iter().enumerate() {
        let at = (r0 + ri) * cols + c0;
        g[at..at + W].copy_from_slice(a);
    }
}

/// Write the nonzero entries of `row` (not +0.0 or −0.0) to the front of
/// `ks` (their positions, ascending) and `vs` (their values), both at
/// least `row.len()` long; returns how many there are. Branch-free, as
/// feature vectors mix zeros and nonzeros unpredictably.
#[inline]
pub(crate) fn compact_nonzeros(row: &[f32], ks: &mut [u32], vs: &mut [f32]) -> usize {
    let (ks, vs) = (&mut ks[..row.len()], &mut vs[..row.len()]);
    let mut m = 0;
    for (k, &v) in row.iter().enumerate() {
        ks[m] = k as u32;
        vs[m] = v;
        m += usize::from(v != 0.0);
    }
    m
}

/// The nonzero entries of a matrix, one flat list per column: list `k`
/// holds `(row, value)` pairs in the order the rows were visited, and
/// an entry equal to zero (+0.0 or −0.0) is never stored. The input of
/// a gradient replay that skips zero features ([`outer_acc_sparse`]).
#[derive(Debug, Clone)]
pub(crate) struct Nonzeros {
    at: Vec<usize>,
    idx: Vec<u32>,
    val: Vec<f32>,
}

impl Nonzeros {
    /// One list per column of the row-major `rows` (`dim` entries per
    /// row): list `k` holds `(j, rows[j][k])` for every nonzero entry,
    /// rows visited in `order`, which must name every row once.
    pub(crate) fn by_column(
        rows: &[f32],
        dim: usize,
        order: impl Iterator<Item = usize>,
    ) -> Nonzeros {
        let mut at = vec![0usize; dim + 1];
        for row in rows.chunks_exact(dim) {
            for (n, &v) in at[1..].iter_mut().zip(row) {
                *n += usize::from(v != 0.0);
            }
        }
        for k in 0..dim {
            at[k + 1] += at[k];
        }
        let nnz = at[dim];
        let mut next = at[..dim].to_vec();
        let (mut idx, mut val) = (vec![0u32; nnz], vec![0.0f32; nnz]);
        let mut seen = 0;
        for j in order {
            for (e, &v) in next.iter_mut().zip(&rows[j * dim..(j + 1) * dim]) {
                if v != 0.0 {
                    idx[*e] = j as u32;
                    val[*e] = v;
                    *e += 1;
                }
            }
            seen += 1;
        }
        assert_eq!(seen * dim, rows.len(), "order must name every row once");
        Nonzeros { at, idx, val }
    }

    /// Number of lists.
    pub(crate) fn lists(&self) -> usize {
        self.at.len() - 1
    }

    /// List `i`: its indices and values.
    #[inline]
    pub(crate) fn list(&self, i: usize) -> (&[u32], &[f32]) {
        let (a, b) = (self.at[i], self.at[i + 1]);
        (&self.idx[a..b], &self.val[a..b])
    }
}

/// [`outer_acc_seq`] for updates whose `b` vectors are mostly zero,
/// given as lists: `g` (`rows x cols` row-major) receives, for every
/// column `k` and every entry `(j, v)` of `bs.list(k)` in list order,
/// `g[r][k] += a_j[r] * v` for each row `r` with `a_j[r] != 0`, where
/// `a_j` is `a[j * a_stride..][..rows]`.
///
/// This is exactly one [`outer_acc`] call per update in list order
/// (zero-`a` skip included) with the `b` entries that are zero left
/// out. Leaving out a term `a * 0` is exact when no entry of `g` starts
/// at −0.0 and every `a` is finite: the term is ±0.0, and an
/// accumulator that is not −0.0 never becomes −0.0 in round-to-nearest
/// (a sum is −0.0 only when both terms are), so adding ±0.0 leaves it
/// unchanged.
///
/// Each register block of gate rows stays in registers across all of a
/// column's updates.
pub(crate) fn outer_acc_sparse(
    g: &mut [f32],
    cols: usize,
    bs: &Nonzeros,
    a: &[f32],
    a_stride: usize,
) {
    let rows = g.len().checked_div(cols).unwrap_or(0);
    debug_assert_eq!(rows * cols, g.len());
    debug_assert!(bs.lists() >= cols);
    let mut r0 = 0;
    while r0 + 32 <= rows {
        sparse_replay_block::<32>(g, cols, bs, a, a_stride, r0);
        r0 += 32;
    }
    while r0 + 8 <= rows {
        sparse_replay_block::<8>(g, cols, bs, a, a_stride, r0);
        r0 += 8;
    }
    while r0 < rows {
        sparse_replay_block::<1>(g, cols, bs, a, a_stride, r0);
        r0 += 1;
    }
}

#[inline]
fn sparse_replay_block<const R: usize>(
    g: &mut [f32],
    cols: usize,
    bs: &Nonzeros,
    a: &[f32],
    a_stride: usize,
    r0: usize,
) {
    for k in 0..cols {
        let (js, vs) = bs.list(k);
        if js.is_empty() {
            continue;
        }
        let mut acc = [0.0f32; R];
        for (ri, v) in acc.iter_mut().enumerate() {
            *v = g[(r0 + ri) * cols + k];
        }
        for (&j, &v) in js.iter().zip(vs) {
            let at = j as usize * a_stride + r0;
            let av = &a[at..at + R];
            for i in 0..R {
                // The zero-`a` skip as a masked term, so the block
                // vectorizes: adding +0.0 instead is a no-op on an
                // accumulator that is not −0.0.
                let p = av[i] * v;
                acc[i] += if av[i] != 0.0 { p } else { 0.0 };
            }
        }
        for (ri, &v) in acc.iter().enumerate() {
            g[(r0 + ri) * cols + k] = v;
        }
    }
}

/// Dot product.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Fast `tanh`: the Padé(7,6) continued-fraction approximant on a
/// clamped input, with the output clamped to `[-1, 1]`.
///
/// Accuracy vs libm `tanh` is ~1e-6 absolute over the core range and
/// ~1e-4 at the clamp boundary — far below f32 training noise. What
/// libm cannot offer is *vectorizability*: this is straight-line
/// arithmetic (one division, no calls, no branches), so loops over a
/// batch dimension compile to SIMD. The recurrent layers (LSTM, GRU)
/// use it in **both** their scalar and batched paths; since every lane
/// performs the identical operation sequence, batched results stay
/// bit-identical to per-sequence results — which a scalar-libm
/// fallback in one path would break.
#[inline]
pub fn tanh_apx(x: f32) -> f32 {
    let x = x.clamp(-4.97, 4.97);
    let x2 = x * x;
    let p = x * (135135.0 + x2 * (17325.0 + x2 * (378.0 + x2)));
    let q = 135135.0 + x2 * (62370.0 + x2 * (3150.0 + x2 * 28.0));
    (p / q).clamp(-1.0, 1.0)
}

/// Fast logistic sigmoid via [`tanh_apx`]
/// (`σ(x) = (1 + tanh(x/2)) / 2`); same vectorizability and
/// bit-identity rationale.
#[inline]
pub fn sigmoid_apx(x: f32) -> f32 {
    0.5 + 0.5 * tanh_apx(0.5 * x)
}

/// In-place softmax over a slice (numerically stabilized).
#[inline]
pub fn softmax_inplace(v: &mut [f32]) {
    let max = v.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in v.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    let inv = 1.0 / sum;
    for x in v.iter_mut() {
        *x *= inv;
    }
}

/// Backward through a softmax that produced `p`: given `dp`, overwrite
/// `dp` with the gradient w.r.t. the logits.
#[inline]
pub fn softmax_backward_inplace(p: &[f32], dp: &mut [f32]) {
    let inner = dot(p, dp);
    for (d, &pv) in dp.iter_mut().zip(p) {
        *d = pv * (*d - inner);
    }
}

/// Run a `<const L>` chunk helper over the whole batch: fixed-width
/// blocks of 8 lanes, then a width-1 tail (identical math at any
/// width, so the blocking never changes results).
macro_rules! for_lane_chunks {
    ($batch:expr, $s:ident, $w:ident => $body:expr) => {{
        let mut $s = 0usize;
        while $s + 8 <= $batch {
            const $w: usize = 8;
            $body;
            $s += 8;
        }
        while $s < $batch {
            const $w: usize = 1;
            $body;
            $s += 1;
        }
    }};
}
pub(crate) use for_lane_chunks;

/// Batch-major input view for the batched backward passes: layer 0 reads
/// the caller's sequence-major window block, higher layers read the
/// batch-major hidden states of the layer below.
pub enum BatchInput<'a> {
    /// Sequence-major `batch x T x in_dim` (the `forward_batch` input).
    Seq(&'a [f32]),
    /// Batch-major `T x in_dim x batch` (a layer cache's activations).
    Bm(&'a [f32]),
}

impl BatchInput<'_> {
    /// Copy sequence `s`'s step-`t` input vector into `out`
    /// (`out.len() == in_dim`). Pure data movement — no arithmetic —
    /// so the gathered values are exactly the scalar path's inputs.
    pub fn gather(&self, t: usize, s: usize, t_steps: usize, batch: usize, out: &mut [f32]) {
        let in_dim = out.len();
        match self {
            BatchInput::Seq(xs) => {
                let base = s * t_steps * in_dim + t * in_dim;
                out.copy_from_slice(&xs[base..base + in_dim]);
            }
            BatchInput::Bm(x_bm) => {
                let base = t * in_dim * batch;
                for (k, o) in out.iter_mut().enumerate() {
                    *o = x_bm[base + k * batch + s];
                }
            }
        }
    }
}

/// Transpose `batch` consecutive sequence-major vectors of length `n`
/// into one batch-major `n x batch` matrix. Pure data movement.
#[inline]
pub fn seq_to_bm(xs: &[f32], bm: &mut [f32], n: usize, batch: usize) {
    debug_assert_eq!(xs.len(), batch * n);
    debug_assert_eq!(bm.len(), n * batch);
    for s in 0..batch {
        let x = &xs[s * n..(s + 1) * n];
        for (k, &v) in x.iter().enumerate() {
            bm[k * batch + s] = v;
        }
    }
}

/// Inverse of [`seq_to_bm`]: scatter a batch-major `n x batch` matrix
/// back into `batch` consecutive sequence-major vectors.
#[inline]
pub fn bm_to_seq(bm: &[f32], xs: &mut [f32], n: usize, batch: usize) {
    debug_assert_eq!(bm.len(), n * batch);
    debug_assert_eq!(xs.len(), batch * n);
    for s in 0..batch {
        let x = &mut xs[s * n..(s + 1) * n];
        for (k, v) in x.iter_mut().enumerate() {
            *v = bm[k * batch + s];
        }
    }
}

/// Broadcast a per-row value into a batch-major `rows x batch` matrix
/// (the batched form of initializing an output vector with a bias).
#[inline]
pub fn fill_rows_bm(z_bm: &mut [f32], vals: &[f32], batch: usize) {
    debug_assert_eq!(z_bm.len(), vals.len() * batch);
    for (r, &v) in vals.iter().enumerate() {
        z_bm[r * batch..(r + 1) * batch].fill(v);
    }
}

/// One lane chunk of the batch-major softmax: each lane replays
/// [`softmax_inplace`]'s exact operation sequence (ascending max fold,
/// `exp`, ascending sum, one reciprocal, multiply), so every lane's
/// result is bit-identical to the scalar softmax of its column.
#[inline]
fn softmax_lanes_chunk<const L: usize>(v: &mut [f32], n: usize, batch: usize, s0: usize) {
    let mut max = [f32::NEG_INFINITY; L];
    for i in 0..n {
        let row = &v[i * batch + s0..i * batch + s0 + L];
        for l in 0..L {
            max[l] = max[l].max(row[l]);
        }
    }
    let mut sum = [0.0f32; L];
    for i in 0..n {
        let row = &mut v[i * batch + s0..i * batch + s0 + L];
        for l in 0..L {
            row[l] = (row[l] - max[l]).exp();
            sum[l] += row[l];
        }
    }
    let mut inv = [0.0f32; L];
    for l in 0..L {
        inv[l] = 1.0 / sum[l];
    }
    for i in 0..n {
        let row = &mut v[i * batch + s0..i * batch + s0 + L];
        for l in 0..L {
            row[l] *= inv[l];
        }
    }
}

/// Batch-major in-place softmax over `n` entries per lane (`v` is
/// `n x batch`): lane `s`'s column gets exactly [`softmax_inplace`]'s
/// result bits (libm `exp` is deterministic for a given input, and each
/// lane's fold/sum orders match the scalar routine).
#[inline]
pub fn softmax_bm_inplace(v: &mut [f32], n: usize, batch: usize) {
    debug_assert_eq!(v.len(), n * batch);
    for_lane_chunks!(batch, s, LW => softmax_lanes_chunk::<LW>(v, n, batch, s));
}

#[inline]
fn softmax_bwd_lanes_chunk<const L: usize>(
    p: &[f32],
    dp: &mut [f32],
    n: usize,
    batch: usize,
    s0: usize,
) {
    let mut inner = [0.0f32; L];
    for i in 0..n {
        let pr = &p[i * batch + s0..i * batch + s0 + L];
        let dr = &dp[i * batch + s0..i * batch + s0 + L];
        for l in 0..L {
            inner[l] += pr[l] * dr[l];
        }
    }
    for i in 0..n {
        let pr = &p[i * batch + s0..i * batch + s0 + L];
        let dr = &mut dp[i * batch + s0..i * batch + s0 + L];
        for l in 0..L {
            dr[l] = pr[l] * (dr[l] - inner[l]);
        }
    }
}

/// Batch-major twin of [`softmax_backward_inplace`] (`p`, `dp` are
/// `n x batch`); each lane replays the scalar inner-product order.
#[inline]
pub fn softmax_backward_bm_inplace(p: &[f32], dp: &mut [f32], n: usize, batch: usize) {
    debug_assert_eq!(p.len(), n * batch);
    debug_assert_eq!(dp.len(), n * batch);
    for_lane_chunks!(batch, s, LW => softmax_bwd_lanes_chunk::<LW>(p, dp, n, batch, s));
}

#[inline]
fn lane_dot_scaled_chunk<const L: usize>(
    a_bm: &[f32],
    b_bm: &[f32],
    out: &mut [f32],
    nk: usize,
    batch: usize,
    s0: usize,
    scale: f32,
) {
    let mut acc = [0.0f32; L];
    for k in 0..nk {
        let ar = &a_bm[k * batch + s0..k * batch + s0 + L];
        let br = &b_bm[k * batch + s0..k * batch + s0 + L];
        for l in 0..L {
            acc[l] += ar[l] * br[l];
        }
    }
    for l in 0..L {
        out[s0 + l] = scale * acc[l];
    }
}

/// Per-lane scaled dot product over batch-major `nk x batch` operands:
/// `out[s] = scale * dot(a[:, s], b[:, s])`, each lane summing in the
/// exact ascending order of [`dot`] before the single scale multiply —
/// the batched form of an attention score row.
#[inline]
pub fn lane_dot_scaled_bm(
    a_bm: &[f32],
    b_bm: &[f32],
    out: &mut [f32],
    nk: usize,
    batch: usize,
    scale: f32,
) {
    debug_assert_eq!(a_bm.len(), nk * batch);
    debug_assert_eq!(b_bm.len(), nk * batch);
    debug_assert_eq!(out.len(), batch);
    for_lane_chunks!(batch, s, LW => lane_dot_scaled_chunk::<LW>(a_bm, b_bm, out, nk, batch, s, scale));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemv_matches_hand_computation() {
        // W = [[1,2],[3,4],[5,6]], x = [10, 100]
        let w = [1., 2., 3., 4., 5., 6.];
        let x = [10., 100.];
        let mut y = [1.0f32; 3];
        gemv_acc(&w, &x, &mut y, 3, 2);
        assert_eq!(y, [211., 431., 651.]);
    }

    #[test]
    fn gemm_bm_is_bit_identical_to_per_sequence_gemv() {
        // 3x2 weights, batch of 4 inputs with distinct values.
        let w = [0.37f32, -1.2, 2.25, 0.11, -0.6, 0.93];
        let (rows, cols, batch) = (3usize, 2usize, 4usize);
        let xs: Vec<[f32; 2]> = vec![[0.1, -0.2], [1.5, 0.33], [-0.7, 0.9], [2.0, -1.25]];
        // batch-major X and bias-initialized batch-major Z
        let mut x_bm = vec![0.0f32; cols * batch];
        for (s, x) in xs.iter().enumerate() {
            for (k, &v) in x.iter().enumerate() {
                x_bm[k * batch + s] = v;
            }
        }
        let bias = [0.5f32, -0.25, 1.0];
        let mut z_bm = vec![0.0f32; rows * batch];
        for r in 0..rows {
            z_bm[r * batch..(r + 1) * batch].fill(bias[r]);
        }
        let mut acc = vec![0.0f32; batch];
        gemm_bm_acc(&w, &x_bm, &mut z_bm, rows, cols, batch, &mut acc);
        for (s, x) in xs.iter().enumerate() {
            let mut y = bias.to_vec();
            gemv_acc(&w, x, &mut y, rows, cols);
            for r in 0..rows {
                assert_eq!(z_bm[r * batch + s], y[r], "row {r} seq {s}");
            }
        }
    }

    #[test]
    fn every_lane_block_is_bit_identical_to_per_sequence_gemv() {
        // 16 runs the two-row 16-lane block alone, 24 adds an 8-lane
        // block, 40 a 32-lane block plus an 8-lane one, and 5 rows leave
        // one row of every 16-lane block unpaired. The tails (27, 53)
        // run the scalar-width remainder after the blocks.
        let (rows, cols) = (5usize, 7usize);
        let w: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 29 % 17) as f32 - 8.0) * 0.173)
            .collect();
        let bias: Vec<f32> = (0..rows).map(|r| r as f32 * 0.5 - 1.0).collect();
        for batch in [16usize, 24, 27, 40, 53] {
            let xs: Vec<Vec<f32>> = (0..batch)
                .map(|s| {
                    (0..cols)
                        .map(|k| ((s * 13 + k * 7) % 23) as f32 * 0.091 - 1.0)
                        .collect()
                })
                .collect();
            let mut x_bm = vec![0.0f32; cols * batch];
            for (s, x) in xs.iter().enumerate() {
                for (k, &v) in x.iter().enumerate() {
                    x_bm[k * batch + s] = v;
                }
            }
            let mut z_bm = vec![0.0f32; rows * batch];
            fill_rows_bm(&mut z_bm, &bias, batch);
            let mut acc = vec![0.0f32; batch];
            gemm_bm_acc(&w, &x_bm, &mut z_bm, rows, cols, batch, &mut acc);
            for (s, x) in xs.iter().enumerate() {
                let mut y = bias.clone();
                gemv_acc(&w, x, &mut y, rows, cols);
                for r in 0..rows {
                    assert_eq!(
                        z_bm[r * batch + s].to_bits(),
                        y[r].to_bits(),
                        "batch {batch} row {r} seq {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn outer_acc_seq_replays_outer_acc_bit_for_bit() {
        // 55 columns run the 32-, 16-, 8- and 4-wide blocks and a
        // 1-wide tail; 11 rows leave rows over in every row grouping.
        // Zero coefficients against infinite vector entries and -0.0
        // starting entries pin the zero-skip: adding 0 * x would turn
        // them into NaN and +0.0.
        let (rows, cols, n) = (11usize, 55usize, 9usize);
        let coefs: Vec<f32> = (0..rows * n)
            .map(|i| {
                if i % 4 == 1 {
                    0.0
                } else {
                    ((i * 37 % 23) as f32 - 11.0) * 0.07
                }
            })
            .collect();
        let vecs: Vec<f32> = (0..n * cols)
            .map(|i| {
                if i % 13 == 5 {
                    f32::INFINITY
                } else {
                    ((i * 19 % 29) as f32 - 14.0) * 0.05
                }
            })
            .collect();
        let start: Vec<f32> = (0..rows * cols)
            .map(|i| if i % 3 == 0 { -0.0 } else { i as f32 * 0.01 })
            .collect();
        let mut want = start.clone();
        let mut a = vec![0.0f32; rows];
        for j in 0..n {
            for (r, av) in a.iter_mut().enumerate() {
                *av = coefs[j + r * n];
            }
            outer_acc(&mut want, &a, &vecs[j * cols..(j + 1) * cols]);
        }
        let items: Vec<(usize, usize)> = (0..n).map(|j| (j, j * cols)).collect();
        let mut got = start;
        outer_acc_seq(&mut got, cols, &items, &coefs, n, &vecs);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "entry {i}: {g} vs {w}");
        }
    }

    #[test]
    fn nonzeros_by_column_lists_rows_in_the_given_order() {
        // Rows 0..3 of width 3, visited 2, 0, 1; −0.0 is a zero.
        let rows = [1.0f32, 0.0, -0.0, 0.0, 0.0, 0.0, 3.0, -0.0, 4.0];
        let nz = Nonzeros::by_column(&rows, 3, [2, 0, 1].into_iter());
        assert_eq!(nz.lists(), 3);
        assert_eq!(nz.list(0), (&[2u32, 0][..], &[3.0f32, 1.0][..]));
        assert_eq!(nz.list(1), (&[][..], &[][..]));
        assert_eq!(nz.list(2), (&[2u32][..], &[4.0f32][..]));
        let (mut ks, mut vs) = ([9u32; 3], [9.0f32; 3]);
        assert_eq!(compact_nonzeros(&rows[6..], &mut ks, &mut vs), 2);
        assert_eq!((&ks[..2], &vs[..2]), (&[0u32, 2][..], &[3.0f32, 4.0][..]));
        assert_eq!(compact_nonzeros(&rows[3..6], &mut ks, &mut vs), 0);
    }

    #[test]
    fn outer_acc_sparse_replays_outer_acc_bit_for_bit() {
        // A share of 45 gate rows starting at row 7 of 60-row update
        // vectors (45 = 32 + 8 + 5 runs every block width); 6 columns,
        // column 1 all zeros (+0.0 and −0.0) and column 4 with no zero
        // entry. Zero `a` entries against an infinite `b` entry pin the
        // zero-`a` skip; starting entries are +0.0 or nonzero, never
        // −0.0 (the documented precondition).
        let (all_rows, first, rows, cols, n) = (60usize, 7usize, 45usize, 6usize, 23usize);
        let a: Vec<f32> = (0..n * all_rows)
            .map(|i| {
                if i % 5 == 2 {
                    0.0
                } else {
                    ((i * 37 % 41) as f32 - 20.0) * 0.031
                }
            })
            .collect();
        let b: Vec<f32> = (0..n * cols)
            .map(|i| {
                let (j, k) = (i / cols, i % cols);
                match k {
                    1 => [0.0, -0.0][j % 2],
                    4 => ((i * 7 % 13) as f32 + 1.0) * 0.25,
                    _ if i == 5 * cols + 2 => f32::INFINITY,
                    _ if (i * 11) % 7 < 5 => [0.0, -0.0][j % 2],
                    _ => ((i * 19 % 29) as f32 - 14.0) * 0.05,
                }
            })
            .collect();
        let start: Vec<f32> = (0..rows * cols)
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    i as f32 * 0.01 - 1.0
                }
            })
            .collect();
        // Updates replayed in a scrambled order, as the canonical
        // (sequence ascending, timestep descending) order is.
        let order: Vec<usize> = (0..n).map(|j| (j * 7) % n).collect();
        let mut want = start.clone();
        for &j in &order {
            let aj = &a[j * all_rows + first..j * all_rows + first + rows];
            outer_acc(&mut want, aj, &b[j * cols..(j + 1) * cols]);
        }
        let nz = Nonzeros::by_column(&b, cols, order.iter().copied());
        assert_eq!(nz.list(1).0.len(), 0);
        assert_eq!(nz.list(4).0.len(), n);
        let mut got = start;
        outer_acc_sparse(&mut got, cols, &nz, &a[first..], all_rows);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "entry {i}: {g} vs {w}");
        }
    }

    #[test]
    fn gemv_t_is_transpose_of_gemv() {
        let w = [1., -2., 0.5, 3., 4., -1.];
        let y = [2., -1.];
        let mut xg = [0.0f32; 3];
        gemv_t_acc(&w, &y, &mut xg, 2, 3);
        // W^T y = [1*2+3*(-1), -2*2+4*(-1), 0.5*2 -1*(-1)]
        assert_eq!(xg, [-1., -8., 2.]);
    }

    #[test]
    fn gemm_bm_t_is_bit_identical_to_per_sequence_gemv_t() {
        // 3x5 weights; include exact zeros in Y (the saturated-gate
        // case) to pin the dense-accumulation contract. Batch 5 runs the
        // narrow tail alone; 16, 24 and 45 the 16-lane two-row block
        // (its fifth `X_grad` row unpaired), the 8-lane and the 32-lane
        // blocks.
        let w: Vec<f32> = (0..15).map(|i| (i as f32 - 5.5) * 0.27).collect();
        let (rows, cols) = (3usize, 5usize);
        let base: Vec<Vec<f32>> = vec![
            vec![0.3, -1.1, 0.0],
            vec![0.0, 0.0, 0.0],
            vec![-0.5, 2.0, 1.5],
            vec![1e-4, -1e-4, 0.0],
            vec![0.9, 0.9, -0.9],
        ];
        for batch in [5usize, 16, 24, 45] {
            let ys: Vec<Vec<f32>> = (0..batch)
                .map(|s| {
                    base[s % 5]
                        .iter()
                        .map(|v| v * (1.0 + s as f32 * 0.1))
                        .collect()
                })
                .collect();
            let mut y_bm = vec![0.0f32; rows * batch];
            for (s, y) in ys.iter().enumerate() {
                for (r, &v) in y.iter().enumerate() {
                    y_bm[r * batch + s] = v;
                }
            }
            let mut xg_bm: Vec<f32> = (0..cols * batch).map(|i| i as f32 * 0.01).collect();
            let start = xg_bm.clone();
            gemm_bm_t_acc(&w, &y_bm, &mut xg_bm, rows, cols, batch);
            for (s, y) in ys.iter().enumerate() {
                let mut xg: Vec<f32> = (0..cols).map(|c| start[c * batch + s]).collect();
                gemv_t_acc(&w, y, &mut xg, rows, cols);
                for c in 0..cols {
                    assert_eq!(
                        xg_bm[c * batch + s].to_bits(),
                        xg[c].to_bits(),
                        "batch {batch} col {c} seq {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn outer_product_accumulates() {
        let a = [1., 2.];
        let b = [3., 4., 5.];
        let mut g = [1.0f32; 6];
        outer_acc(&mut g, &a, &b);
        assert_eq!(g, [4., 5., 6., 7., 9., 11.]);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut v = [1.0f32, 2.0, 3.0];
        softmax_inplace(&mut v);
        let s: f32 = v.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(v[2] > v[1] && v[1] > v[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = [1.0f32, 2.0, 3.0];
        let mut b = [101.0f32, 102.0, 103.0];
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let logits = [0.3f32, -0.7, 1.1, 0.2];
        let upstream = [0.5f32, -1.0, 0.25, 0.0];
        // analytic
        let mut p = logits;
        softmax_inplace(&mut p);
        let mut dp = upstream;
        softmax_backward_inplace(&p, &mut dp);
        // numeric
        let f = |l: &[f32; 4]| {
            let mut q = *l;
            softmax_inplace(&mut q);
            dot(&q, &upstream)
        };
        for i in 0..4 {
            let eps = 1e-3;
            let mut lp = logits;
            lp[i] += eps;
            let mut lm = logits;
            lm[i] -= eps;
            let num = (f(&lp) - f(&lm)) / (2.0 * eps);
            assert!(
                (num - dp[i]).abs() < 1e-3,
                "dim {i}: numeric {num} vs analytic {}",
                dp[i]
            );
        }
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(10.0) > 0.9999);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tanh_apx_tracks_libm_and_stays_bounded() {
        let mut max_err = 0.0f32;
        for i in -2000..=2000 {
            let x = i as f32 * 0.01; // [-20, 20]
            let a = tanh_apx(x);
            assert!(
                (-1.0..=1.0).contains(&a),
                "tanh_apx({x}) = {a} out of range"
            );
            max_err = max_err.max((a - x.tanh()).abs());
        }
        assert!(max_err < 2e-4, "max |tanh_apx - tanh| = {max_err}");
        // Odd symmetry is exact (every operation is sign-symmetric).
        assert_eq!(tanh_apx(1.234), -tanh_apx(-1.234));
        assert_eq!(tanh_apx(0.0), 0.0);
    }

    #[test]
    fn sigmoid_apx_tracks_sigmoid() {
        let mut max_err = 0.0f32;
        for i in -1500..=1500 {
            let x = i as f32 * 0.01;
            let a = sigmoid_apx(x);
            assert!((0.0..=1.0).contains(&a));
            max_err = max_err.max((a - sigmoid(x)).abs());
        }
        assert!(max_err < 2e-4, "max |sigmoid_apx - sigmoid| = {max_err}");
        assert_eq!(sigmoid_apx(0.0), 0.5);
    }
}
