//! Deterministic data-parallel gradient accumulation.
//!
//! Training parallelism in this library lives at the batch level: a
//! gradient step's items are split into fixed-width **lane chunks**
//! ([`LANE_WIDTH`]), the chunks run in parallel (rayon's ordered
//! `chunk_ranges`), and the per-chunk partial gradients are reduced
//! left-to-right in chunk order. Because the chunk boundaries depend
//! only on the lane width — never on the core count — the float
//! accumulation tree is identical on every machine, so a seeded
//! training run is bit-reproducible anywhere, and the scalar and
//! batch-major step implementations (which share the chunking) produce
//! byte-identical checkpoints.
//!
//! A step of one chunk (the default 32-window batch) would leave every
//! core but one idle, so a chunk that runs at top level is itself split
//! ([`lane_split`]): each recurrent cell (the LSTM and the GRU, through
//! their shared `rnn::Recurrent`, and so the biLSTM's two stacks) runs
//! its forward pass and its delta recursion as two lane halves on two
//! threads, then the two threads replay the parameter gradients split
//! by gate rows, each row in the canonical order. Neither split moves a
//! floating-point operation to another accumulation chain, so results
//! stay bit-identical to the one-thread pass.
//!
//! [`BatchStep`] supersedes the old per-item-closure `batch_gradients`:
//! consumers either hand it a per-item closure
//! ([`BatchStep::accumulate_items`], the scalar path) or a per-chunk
//! closure ([`BatchStep::accumulate`]) that drives one batch-major
//! `forward_batch`/`backward_batch` pair per lane chunk.

use rayon::prelude::*;
use std::sync::OnceLock;

pub use rayon::in_parallel_worker;

/// Canonical lane-chunk width for gradient steps.
///
/// Thirty-two lanes is the batch-major kernels' widest SIMD block
/// (see `tensor::gemm_bm_acc`), so a default 32-window batch runs as
/// **one** `forward_batch`/`backward_batch` pair at full vector width
/// (measured ~25% faster per step than 8-lane chunking on one core).
/// Batches larger than the lane width split into 32-lane chunks that
/// fan out across cores, and a chunk at top level splits into two lane
/// halves ([`lane_split`]); the chunk tree depends only on this
/// constant.
pub const LANE_WIDTH: usize = 32;

/// Forward multiply-adds a lane chunk must do before [`lane_split`]
/// runs it on two threads: below this, thread start-up (tens of
/// microseconds per pass) eats the gain, as for the small models the
/// tests train.
pub const SPLIT_MIN_MACS: usize = 1 << 20;

/// Cores this process may run on (read once).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1)
    })
}

/// Whether a batched recurrent pass over `batch` lanes that does `macs`
/// forward multiply-adds runs as two lane halves on two threads, and
/// where (for each recurrent cell alike, see [`crate::rnn`]):
/// `Some(mid)` runs lanes `..mid` and `mid..` apart. It splits only a
/// chunk of at least [`LANE_WIDTH`] lanes, at top level (inside a
/// parallel region each chunk already has its core), on a machine with
/// two or more cores, when `macs` clears [`SPLIT_MIN_MACS`].
pub fn lane_split(batch: usize, macs: usize) -> Option<usize> {
    let split =
        batch >= LANE_WIDTH && macs >= SPLIT_MIN_MACS && !in_parallel_worker() && cores() >= 2;
    split.then_some(batch / 2)
}

/// One deterministic gradient step over a batch of items.
#[derive(Debug, Clone, Copy)]
pub struct BatchStep {
    lane: usize,
}

impl Default for BatchStep {
    fn default() -> BatchStep {
        BatchStep::new()
    }
}

impl BatchStep {
    /// A step with the canonical [`LANE_WIDTH`].
    pub fn new() -> BatchStep {
        BatchStep { lane: LANE_WIDTH }
    }

    /// A step with an explicit lane width (changing it changes the
    /// accumulation tree, so compare runs only at equal widths).
    pub fn with_lane(lane: usize) -> BatchStep {
        assert!(lane >= 1, "lane width must be at least 1");
        BatchStep { lane }
    }

    /// The lane-chunk width.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Run one gradient step over `0..n_items`: `chunk_fn` computes one
    /// lane chunk's summed loss, accumulating its gradients into a
    /// zeroed buffer of `param_len` entries **in ascending item order**.
    /// Chunks run in parallel; their partial losses and gradients are
    /// reduced left-to-right in chunk order, so the result is
    /// bit-deterministic for a given lane width regardless of core
    /// count.
    pub fn accumulate<F>(&self, n_items: usize, param_len: usize, chunk_fn: F) -> (f64, Vec<f32>)
    where
        F: Fn(std::ops::Range<usize>, &mut [f32]) -> f64 + Sync,
    {
        if n_items == 0 {
            return (0.0, vec![0.0; param_len]);
        }
        let partials: Vec<(f64, Vec<f32>)> = (0..n_items)
            .into_par_iter()
            .chunk_ranges(self.lane)
            .map(|range| {
                let mut grads = vec![0.0f32; param_len];
                let loss = chunk_fn(range, &mut grads);
                (loss, grads)
            })
            .collect();
        let mut it = partials.into_iter();
        let (mut loss, mut grads) = it.next().expect("at least one chunk");
        for (l, g) in it {
            loss += l;
            for (a, b) in grads.iter_mut().zip(&g) {
                *a += b;
            }
        }
        (loss, grads)
    }

    /// Per-item convenience over [`BatchStep::accumulate`]: the scalar
    /// step. `item_fn(i, grads)` accumulates item `i`'s gradients and
    /// returns its loss; items run in ascending order within each lane
    /// chunk.
    pub fn accumulate_items<F>(
        &self,
        n_items: usize,
        param_len: usize,
        item_fn: F,
    ) -> (f64, Vec<f32>)
    where
        F: Fn(usize, &mut [f32]) -> f64 + Sync,
    {
        self.accumulate(n_items, param_len, |range, grads| {
            let mut loss = 0.0f64;
            for i in range {
                loss += item_fn(i, grads);
            }
            loss
        })
    }
}

/// Map each item of `0..n_items` to a vector and collect in order
/// (parallel map preserving indices).
pub fn parallel_map<T: Send, F>(n_items: usize, f: F) -> Vec<T>
where
    F: Fn(usize) -> T + Sync + Send,
{
    (0..n_items).into_par_iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_accumulation() {
        let item = |i: usize, g: &mut [f32]| {
            g[i % 4] += i as f32;
            i as f64 * 0.5
        };
        let (loss_p, grads_p) = BatchStep::new().accumulate_items(100, 4, item);
        let mut grads_s = vec![0.0f32; 4];
        let mut loss_s = 0.0f64;
        for i in 0..100 {
            loss_s += item(i, &mut grads_s);
        }
        assert_eq!(loss_p, loss_s);
        assert_eq!(grads_p, grads_s);
    }

    #[test]
    fn empty_batch_is_zero() {
        let (loss, grads) = BatchStep::new().accumulate_items(0, 3, |_, _| 1.0);
        assert_eq!(loss, 0.0);
        assert_eq!(grads, vec![0.0; 3]);
    }

    #[test]
    fn chunk_closure_sees_canonical_lane_ranges() {
        let seen = std::sync::Mutex::new(Vec::new());
        BatchStep::with_lane(8).accumulate(19, 0, |range, _| {
            seen.lock().unwrap().push(range);
            0.0
        });
        let mut got = seen.into_inner().unwrap();
        got.sort_by_key(|r| r.start);
        assert_eq!(got, vec![0..8, 8..16, 16..19]);

        let seen = std::sync::Mutex::new(Vec::new());
        BatchStep::new().accumulate(70, 0, |range, _| {
            seen.lock().unwrap().push(range);
            0.0
        });
        let mut got = seen.into_inner().unwrap();
        got.sort_by_key(|r| r.start);
        assert_eq!(got, vec![0..32, 32..64, 64..70]);
    }

    #[test]
    fn item_and_chunk_forms_agree_bitwise() {
        // The scalar/batched parity contract in miniature: a per-item
        // closure and a per-chunk closure doing the same in-order work
        // must reduce to bit-identical float sums.
        let contribution = |i: usize| ((i * 37 % 19) as f32 - 9.0) * 1e-3;
        let (_, a) = BatchStep::new().accumulate_items(45, 2, |i, g| {
            g[0] += contribution(i);
            g[1] += contribution(i) * 0.5;
            0.0
        });
        let (_, b) = BatchStep::new().accumulate(45, 2, |range, g| {
            for i in range {
                g[0] += contribution(i);
                g[1] += contribution(i) * 0.5;
            }
            0.0
        });
        assert_eq!(a[0].to_bits(), b[0].to_bits());
        assert_eq!(a[1].to_bits(), b[1].to_bits());
    }

    #[test]
    fn custom_lane_width_changes_chunking_only() {
        let item = |i: usize, g: &mut [f32]| {
            g[0] += i as f32;
            1.0
        };
        let (l8, g8) = BatchStep::new().accumulate_items(30, 1, item);
        let (l3, g3) = BatchStep::with_lane(3).accumulate_items(30, 1, item);
        assert_eq!(l8, 30.0);
        assert_eq!(l3, 30.0);
        // Integer-valued sums are exact at any tree shape.
        assert_eq!(g8, g3);
    }

    #[test]
    fn lane_split_needs_a_full_chunk_enough_work_and_top_level() {
        let big = SPLIT_MIN_MACS;
        assert_eq!(lane_split(LANE_WIDTH - 1, big), None);
        assert_eq!(lane_split(LANE_WIDTH, big - 1), None);
        let top = lane_split(LANE_WIDTH, big);
        if cores() >= 2 {
            assert_eq!(top, Some(LANE_WIDTH / 2));
            assert_eq!(lane_split(33, big), Some(16));
        } else {
            assert_eq!(top, None);
        }
        // Inside a parallel region every chunk already has its core.
        let nested = parallel_map(2, |_| lane_split(LANE_WIDTH, big));
        if cores() >= 2 {
            assert_eq!(nested, vec![None, None]);
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let v = parallel_map(10, |i| i * i);
        assert_eq!(v, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
    }
}
