//! Bucket index policies.
//!
//! libstdc++ indexes buckets with `hash % bucket_count`, which consumes the
//! *entire* hash value — the reason the paper's low-dispersion synthesized
//! functions still spread keys across buckets (Example 4.1). RQ7 stresses
//! the opposite design: a "low-mixing" container that uses only the most
//! significant bits, under which Naive/OffXor degrade while Pext/Aes
//! resist (Figures 17 and 18).

/// How a 64-bit hash value selects a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BucketPolicy {
    /// `hash % bucket_count` — the libstdc++ policy.
    #[default]
    Modulo,
    /// `(hash >> discard_low) % bucket_count` — a low-mixing container that
    /// discards the `discard_low` least significant bits and indexes with
    /// the remaining most significant ones (Figure 17's X axis).
    HighBits {
        /// Number of least-significant bits discarded before indexing.
        discard_low: u32,
    },
}

impl BucketPolicy {
    /// The bucket for `hash` among `bucket_count` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_count` is zero.
    #[inline]
    #[must_use]
    pub fn bucket_of(self, hash: u64, bucket_count: u64) -> u64 {
        assert!(bucket_count > 0, "bucket_count must be non-zero");
        match self {
            BucketPolicy::Modulo => hash % bucket_count,
            BucketPolicy::HighBits { discard_low } => (hash >> discard_low.min(63)) % bucket_count,
        }
    }

    /// [`BucketPolicy::bucket_of`] without a divide, given
    /// `recip = reciprocal(bucket_count)`: the remainder by direct
    /// computation of Lemire, Kaser & Kurz ("Faster Remainder by Direct
    /// Computation", 2019). The low 128 bits of `recip · n` are the
    /// fractional part of `n / d`, and their product with `d`, shifted
    /// down 128 bits, is the remainder, exact for every 64-bit `n` and
    /// `d ≥ 1` with a 128-bit reciprocal.
    #[inline]
    pub(crate) fn bucket_in(self, hash: u64, bucket_count: u64, recip: u128) -> usize {
        let n = match self {
            BucketPolicy::Modulo => hash,
            BucketPolicy::HighBits { discard_low } => hash >> discard_low.min(63),
        };
        let frac = recip.wrapping_mul(u128::from(n));
        let d = u128::from(bucket_count);
        // The top 64 bits of the 192-bit product `frac · d`; the sum
        // cannot overflow (it stays below 2^128 − 2^64).
        let low = ((frac & u128::from(u64::MAX)) * d) >> 64;
        let high = (frac >> 64) * d;
        ((low + high) >> 64) as usize
    }
}

/// `⌈2^128 / d⌉` for `d ≥ 1`, the reciprocal [`BucketPolicy::bucket_in`]
/// indexes `d` buckets by; it wraps to 0 for `d = 1`, whose remainder is
/// 0 anyway.
#[inline]
pub(crate) fn reciprocal(bucket_count: u64) -> u128 {
    assert!(bucket_count > 0, "bucket_count must be non-zero");
    (u128::MAX / u128::from(bucket_count)).wrapping_add(1)
}

/// When a guarded container's format has drifted: the signal that its
/// specialized hash should be resynthesized.
///
/// A [`sepe_core::GuardedHash`] counts how many observed keys fell outside
/// the trained format. The container judges the off-format fraction over a
/// *sliding window* of the most recent `window` observations (lifetime
/// counters would let a long clean prefix dilute a later drift burst
/// forever): once the windowed fraction crosses `threshold` — after at
/// least `min_samples` observations in the window, so a handful of stray
/// keys cannot trip a fresh table — the container's drift judgment trips.
/// The trip is held on the guarded route (off-format keys already take the
/// fallback) until a resynthesis widens the plan.
///
/// # Examples
///
/// ```
/// use sepe_containers::DriftPolicy;
///
/// let policy = DriftPolicy::default();
/// assert!(!policy.should_degrade(1, 10));       // below min_samples
/// assert!(policy.should_degrade(30, 100));      // 30% drift
/// assert!(!policy.should_degrade(2, 100));      // 2% drift tolerated
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftPolicy {
    /// Off-format fraction above which the drift judgment trips.
    pub threshold: f64,
    /// Minimum number of observed keys before the threshold applies.
    pub min_samples: u64,
    /// Observation-window length: once a window accumulates this many keys
    /// without tripping the threshold, the counters snapshot and the next
    /// window starts fresh.
    pub window: u64,
}

impl Default for DriftPolicy {
    /// Trip at 10% off-format traffic, judged over at least 64 keys in
    /// sliding windows of 1024.
    fn default() -> Self {
        DriftPolicy {
            threshold: 0.10,
            min_samples: 64,
            window: 1024,
        }
    }
}

impl DriftPolicy {
    /// Creates a policy with `threshold` and the default sample floor.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= threshold <= 1.0`.
    #[must_use]
    pub fn with_threshold(threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "drift threshold must be a fraction, got {threshold}"
        );
        DriftPolicy {
            threshold,
            ..DriftPolicy::default()
        }
    }

    /// Whether `off_format` failures out of `total` observed keys trip the
    /// drift judgment. Callers pass the counts of the *current window*
    /// ([`sepe_core::guard::GuardStats::window_counts`]); lifetime totals
    /// would reintroduce the dilution bug this policy exists to avoid.
    #[must_use]
    pub fn should_degrade(&self, off_format: u64, total: u64) -> bool {
        total >= self.min_samples.max(1) && off_format as f64 / total as f64 > self.threshold
    }

    /// Whether a window holding `total` observations is full and should be
    /// snapshot before the next one starts.
    #[must_use]
    pub fn window_full(&self, total: u64) -> bool {
        total >= self.window.max(self.min_samples).max(1)
    }
}

/// One observation of the signals the collision-storm detector consumes.
///
/// Everything here is already maintained by the containers: the longest
/// bucket chain and table shape from `RawTable`, the drift-window counts
/// from [`sepe_core::guard::GuardStats`], and the p99 of the probe-length
/// histogram's window since the previous observation (recorded in every
/// build). [`AttackPolicy::storm`] is a pure function of one such snapshot.
///
/// The containers' maintenance ticks (`maybe_escalate`,
/// `maybe_deescalate`) gather one per call. While the table's insert-time
/// chain bound fails [`AttackPolicy::chain_skewed`], `max_bucket_len`
/// holds that bound instead of a walked count, which yields the same
/// verdict; otherwise it is the exact longest chain.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AttackSignals {
    /// Length of the longest live bucket chain (exact, or an upper bound
    /// that is not skewed — see above).
    pub max_bucket_len: usize,
    /// Number of entries in the table.
    pub len: usize,
    /// Number of buckets in the table.
    pub bucket_count: usize,
    /// Off-format keys in the current drift window.
    pub window_off: u64,
    /// Total keys observed in the current drift window.
    pub window_total: u64,
    /// Upper bound on the p99 probe length since the previous
    /// observation; `None` when no lookup ran in between.
    pub probe_p99: Option<u64>,
}

/// When a container should treat collisions as an *attack* rather than
/// bad luck or format drift.
///
/// [`DriftPolicy`] watches the guard's format verdicts; this policy
/// watches the *shape of the table*. A HashDoS flood is visible as
/// bucket-occupancy skew — one chain growing far beyond the expected
/// `len / bucket_count` — and as a heavy probe-length tail, long before
/// lookups degenerate to O(n). A single snapshot tripping the detector is
/// not enough: callers escalate only after [`AttackPolicy::trip_streak`]
/// consecutive stormy observations, and de-escalate only after
/// [`AttackPolicy::quiet_streak`] consecutive calm ones, so benign churn
/// (a resize racing a burst of inserts, a short-lived hot bucket) never
/// flips the hasher.
///
/// # Examples
///
/// ```
/// use sepe_containers::{AttackPolicy, AttackSignals};
///
/// let policy = AttackPolicy::default();
/// let benign = AttackSignals {
///     max_bucket_len: 4,
///     len: 1000,
///     bucket_count: 1543,
///     ..AttackSignals::default()
/// };
/// assert!(!policy.storm(&benign));
///
/// let flooded = AttackSignals {
///     max_bucket_len: 64, // one bucket holds 64 of 200 keys
///     len: 200,
///     bucket_count: 1543,
///     ..AttackSignals::default()
/// };
/// assert!(policy.storm(&flooded));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackPolicy {
    /// A chain this many times the expected length counts as skewed.
    pub skew_factor: f64,
    /// Absolute chain-length floor below which skew is never an attack —
    /// healthy tables keep their longest chain in the single digits, so a
    /// floor of 32 leaves orders of magnitude of headroom for benign
    /// clustering.
    pub min_chain: usize,
    /// Minimum table size before the detector judges anything: tiny
    /// tables have noisy shapes.
    pub min_len: usize,
    /// Consecutive stormy observations required before escalating.
    pub trip_streak: u32,
    /// Consecutive calm observations required before de-escalating. A
    /// streak that ends with the flood still stored does not de-escalate
    /// and doubles the next one (see `UnorderedMap::maybe_deescalate`).
    pub quiet_streak: u32,
    /// A probe-length p99 above this is stormy regardless of chain shape.
    pub probe_p99_limit: u64,
}

impl Default for AttackPolicy {
    /// Escalate on a chain ≥ 32 entries *and* ≥ 8× the expected length
    /// (or a probe p99 past 32), observed twice in a row in a table of at
    /// least 128 entries; de-escalate after 3 calm observations.
    fn default() -> Self {
        AttackPolicy {
            skew_factor: 8.0,
            min_chain: 32,
            min_len: 128,
            trip_streak: 2,
            quiet_streak: 3,
            probe_p99_limit: 32,
        }
    }
}

impl AttackPolicy {
    /// Whether one snapshot of the table looks like a collision storm.
    ///
    /// Pure and stateless — the hysteresis streaks live with the caller
    /// (every guarded container keeps one maintenance controller per
    /// table, `ShardedMap` one per shard).
    #[must_use]
    pub fn storm(&self, signals: &AttackSignals) -> bool {
        if signals.len < self.min_len.max(1) || signals.bucket_count == 0 {
            return false;
        }
        let heavy_tail = signals
            .probe_p99
            .is_some_and(|p99| p99 > self.probe_p99_limit);
        self.chain_skewed(signals.max_bucket_len, signals.len, signals.bucket_count) || heavy_tail
    }

    /// The occupancy-skew half of [`AttackPolicy::storm`]: whether a
    /// longest chain of `max` entries in a table of `len` entries over
    /// `buckets` buckets counts as an attack. Monotone in `max` — a longer
    /// chain is never less skewed — so a table that knows only an upper
    /// bound on its longest chain can skip the exact count whenever the
    /// bound itself is not skewed.
    ///
    /// ```
    /// use sepe_containers::AttackPolicy;
    ///
    /// let policy = AttackPolicy::default();
    /// assert!(!policy.chain_skewed(31, 1000, 100_000)); // under min_chain
    /// assert!(policy.chain_skewed(32, 1000, 100_000));
    /// assert!(!policy.chain_skewed(64, 64, 97)); // under min_len
    /// ```
    #[must_use]
    pub fn chain_skewed(&self, max: usize, len: usize, buckets: usize) -> bool {
        if len < self.min_len.max(1) || buckets == 0 {
            return false;
        }
        let expected = (len as f64 / buckets as f64).max(1.0);
        max >= self.min_chain && max as f64 >= self.skew_factor * expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::grow_bucket_count;
    use proptest::prelude::*;

    /// Every bucket count a table growing from its first one by doubling
    /// reaches, up to the arena's 2^31 slots at load factor 1/2.
    fn doubling_primes() -> Vec<u64> {
        let mut counts = vec![1, 2, 13];
        while *counts.last().unwrap() < 1 << 32 {
            let next = grow_bucket_count(*counts.last().unwrap(), 0, 1.0);
            counts.push(next);
        }
        counts
    }

    const POLICIES: [BucketPolicy; 4] = [
        BucketPolicy::Modulo,
        BucketPolicy::HighBits { discard_low: 0 },
        BucketPolicy::HighBits { discard_low: 17 },
        BucketPolicy::HighBits { discard_low: 63 },
    ];

    /// The hashes every remainder is checked at besides random ones: 0,
    /// `u64::MAX`, and multiples of `d` and their neighbours.
    fn edge_hashes(d: u64) -> Vec<u64> {
        let mut hashes = vec![0, 1, u64::MAX, u64::MAX - 1];
        for m in [
            d,
            d.wrapping_mul(2),
            (u64::MAX / d) * d,
            (u64::MAX / d - 1) * d,
        ] {
            hashes.extend([m, m.wrapping_sub(1), m.wrapping_add(1)]);
        }
        hashes
    }

    proptest! {
        /// The divide-free index equals `%` for random and edge hashes over
        /// every doubling prime, and over the primes a load-driven growth
        /// picks.
        #[test]
        fn the_divide_free_index_is_the_remainder(
            hashes in proptest::collection::vec(any::<u64>(), 64),
            required in 0usize..(1 << 31),
            load in 1u32..64,
        ) {
            let by_load = grow_bucket_count(13, required, f64::from(load) / 16.0);
            for d in doubling_primes().into_iter().chain([by_load]) {
                let recip = reciprocal(d);
                for policy in POLICIES {
                    for hash in hashes.iter().copied().chain(edge_hashes(d)) {
                        prop_assert_eq!(
                            policy.bucket_in(hash, d, recip) as u64,
                            policy.bucket_of(hash, d)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn modulo_uses_low_bits() {
        assert_eq!(BucketPolicy::Modulo.bucket_of(123_456_789, 100), 89);
        assert_eq!(BucketPolicy::Modulo.bucket_of(123_456_790, 100), 90);
    }

    #[test]
    fn high_bits_discard_low_ones() {
        let p = BucketPolicy::HighBits { discard_low: 48 };
        // Hashes differing only below bit 48 land in the same bucket.
        assert_eq!(
            p.bucket_of(0x0000_1234_5678_9ABC, 97),
            p.bucket_of(0x0000_FFFF_FFFF_FFFF, 97)
        );
        assert_ne!(
            p.bucket_of(0x0001_0000_0000_0000, 97),
            p.bucket_of(0x0002_0000_0000_0000, 97)
        );
    }

    #[test]
    fn example_4_1_successive_ssns_fall_in_different_buckets() {
        // 123456789 % 100 = 89 and 123456790 % 100 = 90.
        let p = BucketPolicy::Modulo;
        assert_eq!(p.bucket_of(123_456_789, 100), 89);
        assert_eq!(p.bucket_of(123_456_790, 100), 90);
    }

    #[test]
    fn discard_is_clamped_at_63() {
        let p = BucketPolicy::HighBits { discard_low: 200 };
        assert_eq!(p.bucket_of(u64::MAX, 97), (u64::MAX >> 63));
    }

    #[test]
    fn drift_policy_waits_for_samples() {
        let p = DriftPolicy::with_threshold(0.5);
        assert!(!p.should_degrade(63, 63), "under the sample floor");
        assert!(p.should_degrade(64, 64));
        assert!(!p.should_degrade(32, 64), "exactly at threshold tolerated");
        assert!(p.should_degrade(33, 64));
    }

    #[test]
    fn zero_threshold_degrades_on_any_drift() {
        let p = DriftPolicy {
            threshold: 0.0,
            min_samples: 1,
            ..DriftPolicy::default()
        };
        assert!(p.should_degrade(1, 1));
        assert!(!p.should_degrade(0, 100));
    }

    #[test]
    fn attack_policy_ignores_small_tables() {
        let p = AttackPolicy::default();
        let s = AttackSignals {
            max_bucket_len: 60,
            len: 64, // below min_len
            bucket_count: 250,
            ..AttackSignals::default()
        };
        assert!(!p.storm(&s));
        assert!(p.storm(&AttackSignals { len: 128, ..s }));
    }

    #[test]
    fn attack_policy_requires_both_floor_and_skew() {
        let p = AttackPolicy::default();
        // Skewed relative to expectation but under the absolute floor.
        let short_chain = AttackSignals {
            max_bucket_len: 31,
            len: 1000,
            bucket_count: 100_000,
            ..AttackSignals::default()
        };
        assert!(!p.storm(&short_chain));
        // Long chain but plausible for a dense table: 40 ≈ 4× expected 10.
        let dense = AttackSignals {
            max_bucket_len: 40,
            len: 10_000,
            bucket_count: 1_000,
            ..AttackSignals::default()
        };
        assert!(!p.storm(&dense));
        // Long *and* skewed.
        let flooded = AttackSignals {
            max_bucket_len: 80,
            len: 10_000,
            bucket_count: 10_000,
            ..AttackSignals::default()
        };
        assert!(p.storm(&flooded));
    }

    #[test]
    fn probe_tail_alone_can_trip_the_detector() {
        let p = AttackPolicy::default();
        let s = AttackSignals {
            max_bucket_len: 2,
            len: 1000,
            bucket_count: 1543,
            probe_p99: Some(33),
            ..AttackSignals::default()
        };
        assert!(p.storm(&s));
        assert!(!p.storm(&AttackSignals {
            probe_p99: Some(32),
            ..s
        }));
        assert!(!p.storm(&AttackSignals {
            probe_p99: None,
            ..s
        }));
    }

    #[test]
    fn window_fills_at_the_larger_of_window_and_min_samples() {
        let p = DriftPolicy {
            threshold: 0.10,
            min_samples: 200,
            window: 100,
        };
        assert!(!p.window_full(199), "min_samples dominates a small window");
        assert!(p.window_full(200));
        let q = DriftPolicy::default();
        assert!(!q.window_full(1023));
        assert!(q.window_full(1024));
    }
}
