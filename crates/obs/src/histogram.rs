//! A log-bucketed value histogram for latencies and sizes.
//!
//! Values are binned by bit length: bucket 0 holds exactly the value 0,
//! and bucket `i` (1 ≤ i ≤ 64) holds `2^(i-1) ≤ v < 2^i`. 65 fixed
//! buckets cover the whole `u64` range, so recording is a constant-time
//! relaxed bump with no allocation and no lock — cheap enough for probe
//! chains and per-op latencies on the hot path. Single-writer recording
//! ([`Histogram::observe_single_writer`]) drops the locked instruction
//! too.

use crate::metrics::Counter;
use sepe_stats::BoxplotSummary;

/// Number of log buckets: one for zero plus one per bit length.
pub const BUCKETS: usize = 65;

/// Cap on the reconstructed sample count fed to [`Histogram::boxplot`].
const BOXPLOT_SAMPLE_CAP: u64 = 4096;

/// Bucket index of a value: 0 for 0, else the value's bit length.
#[inline]
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `(lo, hi)` value range of bucket `i`.
///
/// # Panics
///
/// Panics when `i >= BUCKETS`.
#[must_use]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    match i {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (i - 1), (1 << i) - 1),
    }
}

/// A fixed-shape log histogram with saturating counters throughout.
#[derive(Debug)]
pub struct Histogram {
    buckets: [Counter; BUCKETS],
    count: Counter,
    sum: Counter,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| Counter::new()),
            count: Counter::new(),
            sum: Counter::new(),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].inc();
        self.count.inc();
        self.sum.add(v);
    }

    /// Records one observation with [`Counter::add_single_writer`]
    /// bumps: no locked instruction, the same result as
    /// [`observe`](Histogram::observe) from one writer at a time.
    /// Concurrent writers may lose observations (bucket counts, `count`
    /// and `sum` each fall short independently), never add phantom ones.
    #[inline]
    pub fn observe_single_writer(&self, v: u64) {
        self.buckets[bucket_index(v)].add_single_writer(1);
        self.count.add_single_writer(1);
        self.sum.add_single_writer(v);
    }

    /// Total observations recorded.
    #[inline]
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Saturating sum of all observed values.
    #[inline]
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.get()
    }

    /// Per-bucket observation counts.
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].get())
    }

    /// An upper bound on the `q`-quantile (0 ≤ q ≤ 1): the inclusive top
    /// of the first bucket whose cumulative count reaches `q · count`.
    /// `None` when the histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().fold(0, |a, &c| a.saturating_add(c));
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(bucket_bounds(i).1);
            }
        }
        Some(u64::MAX)
    }

    /// A five-number summary via [`sepe_stats`], reconstructed from
    /// bucket midpoints. At most [`BOXPLOT_SAMPLE_CAP`] representative
    /// samples are materialized (proportionally thinned, at least one per
    /// occupied bucket), so the cost is bounded no matter how many
    /// observations were recorded. `None` when empty.
    #[must_use]
    pub fn boxplot(&self) -> Option<BoxplotSummary> {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().fold(0, |a, &c| a.saturating_add(c));
        if total == 0 {
            return None;
        }
        let mut samples = Vec::new();
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = bucket_bounds(i);
            let mid = (lo + (hi - lo) / 2) as f64;
            let reps = if total <= BOXPLOT_SAMPLE_CAP {
                c
            } else {
                ((u128::from(c) * u128::from(BOXPLOT_SAMPLE_CAP) / u128::from(total)) as u64).max(1)
            };
            samples.extend(std::iter::repeat_n(mid, reps as usize));
        }
        BoxplotSummary::of(&samples)
    }

    /// Clears every bucket. Racing observes may survive; snapshot-minded
    /// callers should diff instead.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.reset();
        }
        self.count.reset();
        self.sum.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_covers_the_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
        }
    }

    #[test]
    fn observations_land_in_their_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 7, 9, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1042);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 2);
        assert_eq!(counts[3], 1); // 7
        assert_eq!(counts[4], 1); // 9
        assert_eq!(counts[11], 1); // 1024
    }

    #[test]
    fn single_writer_observations_equal_observe_from_one_thread() {
        let locked = Histogram::new();
        let single = Histogram::new();
        for v in [0u64, 1, 1, 7, 9, 1024, u64::MAX, u64::MAX, 3] {
            locked.observe(v);
            single.observe_single_writer(v);
        }
        assert_eq!(single.bucket_counts(), locked.bucket_counts());
        assert_eq!(single.count(), locked.count());
        assert_eq!(single.sum(), u64::MAX, "the sum saturates");
        assert_eq!(single.sum(), locked.sum());
    }

    #[test]
    fn quantiles_walk_the_cumulative_buckets() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..90 {
            h.observe(3);
        }
        for _ in 0..10 {
            h.observe(1000);
        }
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(0.99), Some(1023));
        assert_eq!(h.quantile(0.0), Some(3));
    }

    #[test]
    fn boxplot_summarizes_without_unbounded_memory() {
        let h = Histogram::new();
        assert!(h.boxplot().is_none());
        for _ in 0..100_000 {
            h.observe(8);
        }
        let s = h.boxplot().expect("non-empty");
        assert_eq!(s.median, 11.0); // midpoint of [8, 15]
        assert_eq!(s.min, s.max);
    }
}
