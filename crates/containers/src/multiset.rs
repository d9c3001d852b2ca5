//! `UnorderedMultiSet` — the analog of `std::unordered_multiset`.

use crate::multimap::UnorderedMultiMap;
use crate::policy::{BucketPolicy, DriftPolicy};
use sepe_core::guard::{GuardMode, GuardStats, GuardedHash, Resynth};
use sepe_core::hash::ByteHash;
use sepe_core::SynthesizedHash;
use std::borrow::Borrow;

/// A chained hash multiset: an [`UnorderedMultiMap`] with unit values.
///
/// # Examples
///
/// ```
/// use sepe_baselines::StlHash;
/// use sepe_containers::UnorderedMultiSet;
///
/// let mut s = UnorderedMultiSet::with_hasher(StlHash::new());
/// s.insert("x".to_owned());
/// s.insert("x".to_owned());
/// assert_eq!(s.count("x"), 2);
/// assert_eq!(s.remove_all("x"), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnorderedMultiSet<K, H> {
    inner: UnorderedMultiMap<K, (), H>,
}

impl<K, H> UnorderedMultiSet<K, H>
where
    K: Eq + AsRef<[u8]>,
    H: ByteHash,
{
    /// Creates an empty multiset using `hasher`.
    pub fn with_hasher(hasher: H) -> Self {
        UnorderedMultiSet {
            inner: UnorderedMultiMap::with_hasher(hasher),
        }
    }

    /// Creates an empty multiset with an explicit bucket-index policy.
    pub fn with_hasher_and_policy(hasher: H, policy: BucketPolicy) -> Self {
        UnorderedMultiSet {
            inner: UnorderedMultiMap::with_hasher_and_policy(hasher, policy),
        }
    }

    /// Number of elements (counting duplicates).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the multiset is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inserts an element; duplicates accumulate.
    pub fn insert(&mut self, key: K) {
        self.inner.insert(key, ());
    }

    /// Number of copies of `key`.
    pub fn count<Q>(&self, key: &Q) -> usize
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.inner.count(key)
    }

    /// Whether at least one copy of `key` is present.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.inner.contains_key(key)
    }

    /// Removes one copy of `key`; returns whether one was present.
    pub fn remove_one<Q>(&mut self, key: &Q) -> bool
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.inner.remove_one(key).is_some()
    }

    /// Removes every copy of `key`, returning how many were removed.
    pub fn remove_all<Q>(&mut self, key: &Q) -> usize
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.inner.remove_all(key)
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

    /// Advances any in-flight hash-function migration by up to `n` entries.
    pub fn migrate(&mut self, n: usize) {
        self.inner.migrate(n);
    }

    /// Drains an in-flight migration completely.
    pub fn finish_migration(&mut self) {
        self.inner.finish_migration();
    }

    /// Whether a hash-function migration epoch is currently being drained.
    pub fn migration_in_flight(&self) -> bool {
        self.inner.migration_in_flight()
    }

    /// Fraction of the current migration already drained (`1.0` when idle).
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

impl<K, F, G> UnorderedMultiSet<K, GuardedHash<F, G>>
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

impl<K, F, G> UnorderedMultiSet<K, GuardedHash<F, G>>
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

impl<K, G> UnorderedMultiSet<K, GuardedHash<SynthesizedHash, G>>
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

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_baselines::StlHash;

    #[test]
    fn a_tripped_set_resynthesizes_and_trips_again() {
        let pattern = sepe_core::regex::Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("compiles");
        let hasher = GuardedHash::from_pattern(&pattern, sepe_core::Family::Pext, StlHash::new());
        let mut s = UnorderedMultiSet::with_hasher(hasher);
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
    fn multiset_semantics() {
        let mut s = UnorderedMultiSet::with_hasher(StlHash::new());
        s.insert("a".to_owned());
        s.insert("a".to_owned());
        s.insert("b".to_owned());
        assert_eq!(s.len(), 3);
        assert_eq!(s.count("a"), 2);
        assert!(s.contains("b"));
        assert!(s.remove_one("a"));
        assert_eq!(s.count("a"), 1);
        assert_eq!(s.remove_all("a"), 1);
        assert!(!s.contains("a"));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn degrading_from_the_keyed_rung_keeps_every_key() {
        use crate::multimap::tests::{keyed_ssn_hasher, ssn};
        let mut s = UnorderedMultiSet::with_hasher(keyed_ssn_hasher());
        for i in 0..500u32 {
            s.insert(ssn(i));
        }
        s.degrade_now();
        let missing = (0..500u32).filter(|&i| s.count(&ssn(i)) != 1).count();
        assert_eq!(
            missing, 0,
            "{missing} of 500 keys missing after degrade_now"
        );
        assert_eq!(s.guard_mode(), GuardMode::Keyed);
        assert!(!s.migration_in_flight(), "no epoch opened");
    }
}
