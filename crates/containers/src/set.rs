//! `UnorderedSet` — the analog of `std::unordered_set`.

use crate::map::UnorderedMap;
use crate::policy::{BucketPolicy, DriftPolicy};
use sepe_core::guard::{GuardMode, GuardStats, GuardedHash, Resynth};
use sepe_core::hash::ByteHash;
use sepe_core::SynthesizedHash;
use std::borrow::Borrow;

/// A chained hash set: an [`UnorderedMap`] with unit values.
///
/// # Examples
///
/// ```
/// use sepe_baselines::StlHash;
/// use sepe_containers::UnorderedSet;
///
/// let mut s = UnorderedSet::with_hasher(StlHash::new());
/// assert!(s.insert("a".to_owned()));
/// assert!(!s.insert("a".to_owned()));
/// assert!(s.contains("a"));
/// assert!(s.remove("a"));
/// assert!(s.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct UnorderedSet<K, H> {
    inner: UnorderedMap<K, (), H>,
}

impl<K, H> UnorderedSet<K, H>
where
    K: Eq + AsRef<[u8]>,
    H: ByteHash,
{
    /// Creates an empty set using `hasher`.
    pub fn with_hasher(hasher: H) -> Self {
        UnorderedSet {
            inner: UnorderedMap::with_hasher(hasher),
        }
    }

    /// Creates an empty set with an explicit bucket-index policy.
    pub fn with_hasher_and_policy(hasher: H, policy: BucketPolicy) -> Self {
        UnorderedSet {
            inner: UnorderedMap::with_hasher_and_policy(hasher, policy),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inserts an element; returns whether it was newly added.
    pub fn insert(&mut self, key: K) -> bool {
        self.inner.insert(key, ()).is_none()
    }

    /// Whether the set contains `key`.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.inner.contains_key(key)
    }

    /// Removes an element; returns whether it was present.
    pub fn remove<Q>(&mut self, key: &Q) -> bool
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.inner.remove(key).is_some()
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Iterates over the elements in arena order.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.inner.iter().map(|(k, ())| k)
    }

    /// Current number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.inner.bucket_count()
    }

    /// Number of live entries in bucket `i`.
    pub fn bucket_len(&self, i: usize) -> usize {
        self.inner.bucket_len(i)
    }

    /// The paper's bucket-collision count (Section 4.2).
    pub fn bucket_collisions(&self) -> u64 {
        self.inner.bucket_collisions()
    }
}

impl<K, H> UnorderedSet<K, H>
where
    K: Eq + AsRef<[u8]>,
    H: sepe_core::hash::HashBatch,
{
    /// Batched membership: `result[i] == self.contains(keys[i])`, with the
    /// hashing and bucket prefetching of [`UnorderedMap::get_batch`].
    pub fn contains_batch(&self, keys: &[&[u8]]) -> Vec<bool> {
        self.inner
            .get_batch(keys)
            .into_iter()
            .map(|v| v.is_some())
            .collect()
    }

    /// Batched insert; returns how many elements were newly added.
    pub fn insert_batch(&mut self, keys: Vec<K>) -> usize {
        self.inner
            .insert_batch(keys.into_iter().map(|k| (k, ())).collect())
            .into_iter()
            .filter(Option::is_none)
            .count()
    }
}

impl<K, F, G> UnorderedSet<K, GuardedHash<F, G>>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash,
    G: ByteHash,
{
    /// The drift counters of the guarded hasher.
    pub fn drift_stats(&self) -> &GuardStats {
        self.inner.drift_stats()
    }

    /// The guarded hasher's current routing mode.
    pub fn guard_mode(&self) -> GuardMode {
        self.inner.guard_mode()
    }

    /// The held drift trip: `(off_format, total)` of the window that
    /// tripped, or `None` when no trip is held.
    pub fn drift_trip(&self) -> Option<(u64, u64)> {
        self.inner.drift_trip()
    }
}

impl<K, F, G> UnorderedSet<K, GuardedHash<F, G>>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash + Clone,
    G: ByteHash + Clone,
{
    /// Degrades from [`GuardMode::Guarded`] and opens a migration epoch.
    pub fn degrade_now(&mut self) {
        self.inner.degrade_now();
    }

    /// Judges the windowed drift counters against `policy`; returns
    /// whether the window tripped during this call. The trip is held on
    /// the guarded route: no routing changes and no epoch opens. First
    /// drains an open migration epoch by its share of the operations
    /// served since the last call, as
    /// [`UnorderedMap::maybe_degrade`](crate::UnorderedMap::maybe_degrade) does.
    pub fn maybe_degrade(&mut self, policy: &DriftPolicy) -> bool {
        self.inner.maybe_degrade(policy)
    }
}

impl<K, G> UnorderedSet<K, GuardedHash<SynthesizedHash, G>>
where
    K: Eq + AsRef<[u8]>,
    G: ByteHash + Clone,
{
    /// Re-synthesizes the specialized hash from the sampled off-format
    /// keys and opens one migration epoch, clearing a held drift trip, as
    /// [`UnorderedMap::resynthesize`](crate::UnorderedMap::resynthesize)
    /// does.
    pub fn resynthesize(&mut self) -> Resynth {
        self.inner.resynthesize()
    }
}

impl<K, H> UnorderedSet<K, H>
where
    K: Eq + AsRef<[u8]>,
    H: ByteHash,
{
    /// Moves up to `budget` elements out of the in-flight migration epoch.
    pub fn migrate(&mut self, budget: usize) {
        self.inner.migrate(budget);
    }

    /// Drains any in-flight migration epoch completely.
    pub fn finish_migration(&mut self) {
        self.inner.finish_migration();
    }

    /// Whether a migration epoch is currently in flight.
    pub fn migration_in_flight(&self) -> bool {
        self.inner.migration_in_flight()
    }

    /// Fraction of the in-flight epoch already drained (`1.0` when idle).
    pub fn migration_progress(&self) -> f64 {
        self.inner.migration_progress()
    }

    /// Opportunistic migration drain for read-heavy callers — see
    /// [`UnorderedMap::drain_on_read`](crate::UnorderedMap::drain_on_read).
    pub fn drain_on_read(&mut self) {
        self.inner.drain_on_read();
    }

    /// Read-only lookups served while a migration epoch was in flight.
    pub fn stale_reads(&self) -> u64 {
        self.inner.stale_reads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_baselines::StlHash;

    #[test]
    fn a_tripped_set_resynthesizes_and_trips_again() {
        let pattern = sepe_core::regex::Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("compiles");
        let hasher = GuardedHash::from_pattern(&pattern, sepe_core::Family::Pext, StlHash::new());
        let mut s = UnorderedSet::with_hasher(hasher);
        let policy = DriftPolicy {
            threshold: 0.10,
            min_samples: 16,
            ..DriftPolicy::default()
        };
        let ssn = |i: u32| format!("{:03}-{:02}-{:04}", i, i % 100, i * 7 % 10_000);
        let slashed = |i: u32| format!("{:03}/{:02}/{:04}", i, i % 100, i);
        for i in 0..64u32 {
            s.insert(ssn(i));
        }
        for i in 0..40u32 {
            s.insert(slashed(i));
        }
        assert!(s.maybe_degrade(&policy), "the drifted window trips");
        let trip = s.drift_trip().expect("the trip is held");
        assert_eq!(trip.0, 40);
        assert!(!s.maybe_degrade(&policy), "a held trip does not trip again");

        assert_eq!(s.resynthesize(), Resynth::Applied);
        assert_eq!((s.guard_mode(), s.drift_trip()), (GuardMode::Guarded, None));
        s.finish_migration();
        for i in 0..64u32 {
            assert!(s.contains(ssn(i).as_str()), "{}", ssn(i));
        }
        for i in 0..40u32 {
            assert!(s.contains(slashed(i).as_str()), "{}", slashed(i));
        }

        // The widened guard admits the slashed keys; a later drift away
        // from both formats trips again.
        assert!(!s.maybe_degrade(&policy), "no drift since the resynthesis");
        for i in 0..40u32 {
            s.insert(format!("off-format key {i}"));
        }
        assert!(
            s.maybe_degrade(&policy),
            "a later drifted window trips again"
        );
        assert!(s.drift_trip().is_some());
    }

    #[test]
    fn set_semantics() {
        let mut s = UnorderedSet::with_hasher(StlHash::new());
        for i in 0..2000u32 {
            assert!(s.insert(format!("{i:05}")));
        }
        for i in 0..2000u32 {
            assert!(!s.insert(format!("{i:05}")));
        }
        assert_eq!(s.len(), 2000);
        assert!(s.contains("00042"));
        assert!(!s.contains("99999"));
        assert!(s.remove("00042"));
        assert!(!s.remove("00042"));
        assert_eq!(s.len(), 1999);
        assert_eq!(s.iter().count(), 1999);
    }

    #[test]
    fn batch_ops_agree_with_scalar() {
        let mut s = UnorderedSet::with_hasher(StlHash::new());
        let keys: Vec<String> = (0..300u32).map(|i| format!("{:05}", i % 250)).collect();
        assert_eq!(s.insert_batch(keys.clone()), 250, "250 distinct keys");
        assert_eq!(s.len(), 250);
        let queries: Vec<String> = (0..400u32).map(|i| format!("{i:05}")).collect();
        let refs: Vec<&[u8]> = queries.iter().map(String::as_bytes).collect();
        for (q, got) in queries.iter().zip(s.contains_batch(&refs)) {
            assert_eq!(got, s.contains(q.as_str()), "{q}");
        }
    }
}
