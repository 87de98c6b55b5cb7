//! Log-bucketed histogram over `u64` values.
//!
//! # Bucket layout (bit-pinned)
//!
//! The layout is log-linear with 8 sub-buckets per octave:
//!
//! - values `0..=7` each get their own exact bucket (`index == value`);
//! - a value `v >= 8` with most-significant bit `m = 63 - v.leading_zeros()`
//!   lands in `index = 8 + (m - 3) * 8 + ((v >> (m - 3)) & 7)`.
//!
//! Every bucket therefore spans an inclusive `[lower, upper]` range
//! whose width is `2^(m-3)`: the worst-case relative error of reporting
//! a bucket upper bound is ≤ 12.5%. The full `u64` domain fits in
//! [`NUM_BUCKETS`] (496) buckets; there is no underflow or overflow
//! bucket because index 0 holds exactly the value 0 and the last bucket
//! ends exactly at `u64::MAX`.
//!
//! # Quantile semantics (bit-pinned)
//!
//! `quantile(q)` over `n` recorded values computes the 1-based rank
//! `r = ceil(q * n)` clamped to `[1, n]`, walks cumulative bucket counts
//! to the first bucket whose cumulative count reaches `r`, and reports
//! `min(bucket_upper_bound, recorded_max)`. With `n == 0` it reports 0.
//! These semantics are frozen: bench reports pin their p50/p95/p99 to
//! them and `tests` assert exact edge values.
//!
//! Recording is lock-free (one relaxed `fetch_add` per bucket plus
//! count/sum/max updates). Reads taken while writers are active are
//! internally consistent per-bucket but not a point-in-time snapshot;
//! quiesce writers for exact totals.

use std::sync::atomic::{AtomicU64, Ordering};

/// Total number of buckets covering the whole `u64` domain.
pub const NUM_BUCKETS: usize = 496;

/// Sub-buckets per octave for values `>= 8`.
const SUBS: u64 = 8;

/// Summary statistics derived from a histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub mean: f64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
}

impl HistogramSummary {
    /// The summary as a JSON object (bench reports embed these).
    pub fn to_json(&self) -> perfvec_json::Json {
        use perfvec_json::{obj, Json};
        obj(vec![
            ("count", Json::Num(self.count as f64)),
            ("mean", Json::Num(self.mean)),
            ("p50", Json::Num(self.p50 as f64)),
            ("p95", Json::Num(self.p95 as f64)),
            ("p99", Json::Num(self.p99 as f64)),
            ("max", Json::Num(self.max as f64)),
        ])
    }
}

/// Fixed-layout concurrent histogram. See the module docs for the
/// bucket and quantile contracts.
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

/// Bucket index for a value. Total over all of `u64`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        v as usize
    } else {
        let m = 63 - v.leading_zeros() as u64;
        let shift = m - 3;
        (SUBS + shift * SUBS + ((v >> shift) & (SUBS - 1))) as usize
    }
}

/// Inclusive `[lower, upper]` value range of bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < NUM_BUCKETS, "bucket index out of range");
    let i = index as u64;
    if i < SUBS {
        (i, i)
    } else {
        let shift = (i - SUBS) / SUBS;
        let sub = (i - SUBS) % SUBS;
        let width = 1u64 << shift;
        let lower = (SUBS << shift) + sub * width;
        // `lower + (width - 1)`: the naive `lower + width - 1` would
        // overflow u64 on the final bucket, whose upper bound is MAX.
        (lower, lower + (width - 1))
    }
}

impl Histogram {
    pub fn new() -> Self {
        // Box the bucket array directly; [AtomicU64; N] has no Copy
        // initializer, so build it from a Vec of default atomics.
        let v: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> = match v.into_boxed_slice().try_into() {
            Ok(b) => b,
            Err(_) => unreachable!("NUM_BUCKETS-sized vec converts exactly"),
        };
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Lock-free; no-op while recording is disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Time `f` and record its wall duration in microseconds.
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.record(start.elapsed().as_micros() as u64);
        out
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Exact count in the bucket holding `v`-like values, by index.
    pub fn bucket_count(&self, index: usize) -> u64 {
        self.buckets[index].load(Ordering::Relaxed)
    }

    /// Visit `(lower, upper, count)` for every non-empty bucket in
    /// ascending value order.
    pub fn for_each_nonzero(&self, mut f: impl FnMut(u64, u64, u64)) {
        for i in 0..NUM_BUCKETS {
            let c = self.buckets[i].load(Ordering::Relaxed);
            if c > 0 {
                let (lo, hi) = bucket_bounds(i);
                f(lo, hi, c);
            }
        }
    }

    /// Quantile estimate per the module-level contract.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for i in 0..NUM_BUCKETS {
            cum += self.buckets[i].load(Ordering::Relaxed);
            if cum >= rank {
                let (_, hi) = bucket_bounds(i);
                return hi.min(self.max());
            }
        }
        // Writers raced count ahead of bucket updates; fall back to max.
        self.max()
    }

    /// Count, sum, mean, p50/p95/p99, max in one pass-per-quantile.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let sum = self.sum();
        HistogramSummary {
            count,
            sum,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn layout_is_total_and_monotone() {
        // Spot-check edges of every octave plus neighbours.
        let mut probes = vec![0u64, 1, 7, 8, 9, 15, 16, 17];
        for shift in 3..=60u32 {
            let lo = 8u64 << (shift - 3);
            probes.extend_from_slice(&[lo - 1, lo, lo + 1]);
        }
        probes.extend_from_slice(&[u64::MAX - 1, u64::MAX]);
        probes.sort_unstable();
        let mut last = 0usize;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            assert!(i >= last, "index not monotone at {v}");
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo},{hi}]");
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn bounds_partition_the_domain() {
        // Consecutive buckets tile u64 with no gaps or overlaps.
        let mut expect_lo = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expect_lo, "gap/overlap at bucket {i}");
            assert!(hi >= lo);
            if i + 1 < NUM_BUCKETS {
                expect_lo = hi + 1;
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    #[test]
    fn octave_edges() {
        // First bucket of the (m=4) octave: [16, 17].
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_bounds(16), (16, 17));
        assert_eq!(bucket_index(17), 16);
        assert_eq!(bucket_index(18), 17);
        // 1024 starts an octave: width 128.
        let i = bucket_index(1024);
        assert_eq!(bucket_bounds(i), (1024, 1151));
        assert_eq!(bucket_index(1151), i);
        assert_eq!(bucket_index(1152), i + 1);
    }

    #[test]
    fn quantiles_follow_documented_semantics() {
        let h = Histogram::new();
        // 100 values: 1..=100. Bucket uppers cap the estimate; max caps p100.
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        // rank(0.5, 100) = 50 -> value 50 lives in bucket [48,51].
        assert_eq!(h.quantile(0.50), 51);
        // rank(0.95) = 95 -> bucket [88,95] -> 95.
        assert_eq!(h.quantile(0.95), 95);
        // rank(0.99) = 99 -> bucket [96,103] -> min(103, max=100) = 100.
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.quantile(0.0), 1); // rank clamps to 1
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn exact_small_value_counts() {
        let h = Histogram::new();
        for _ in 0..3 {
            h.record(0);
        }
        h.record(7);
        h.record(u64::MAX);
        assert_eq!(h.bucket_count(0), 3);
        assert_eq!(h.bucket_count(7), 1);
        assert_eq!(h.bucket_count(NUM_BUCKETS - 1), 1);
        let mut seen = Vec::new();
        h.for_each_nonzero(|lo, hi, c| seen.push((lo, hi, c)));
        assert_eq!(seen[0], (0, 0, 3));
        assert_eq!(seen[1], (7, 7, 1));
        assert_eq!(seen[2].2, 1);
        assert_eq!(seen[2].1, u64::MAX);
    }
}
