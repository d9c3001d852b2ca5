//! `UnorderedMultiMap` — the analog of `std::unordered_multimap`.

use crate::maintenance::Maintenance;
use crate::policy::{BucketPolicy, DriftPolicy};
use crate::table::RawTable;
use sepe_core::guard::{GuardMode, GuardStats, GuardedHash, Resynth};
use sepe_core::hash::ByteHash;
use std::borrow::Borrow;

/// A chained hash multimap: multiple pairs may share a key. As in
/// `std::unordered_multimap`, `remove_all` mirrors `erase(key)` (drops every
/// pair with that key), and `get` returns *some* pair with the key.
///
/// # Examples
///
/// ```
/// use sepe_baselines::StlHash;
/// use sepe_containers::UnorderedMultiMap;
///
/// let mut m = UnorderedMultiMap::with_hasher(StlHash::new());
/// m.insert("k".to_owned(), 1);
/// m.insert("k".to_owned(), 2);
/// assert_eq!(m.count("k"), 2);
/// assert_eq!(m.remove_all("k"), 2);
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct UnorderedMultiMap<K, V, H> {
    table: RawTable<K, V, H>,
    maint: Maintenance,
}

impl<K, V, H> UnorderedMultiMap<K, V, H>
where
    K: Eq + AsRef<[u8]>,
    H: ByteHash,
{
    /// Creates an empty multimap using `hasher`.
    pub fn with_hasher(hasher: H) -> Self {
        Self::with_hasher_and_policy(hasher, BucketPolicy::Modulo)
    }

    /// Creates an empty multimap with an explicit bucket-index policy.
    pub fn with_hasher_and_policy(hasher: H, policy: BucketPolicy) -> Self {
        UnorderedMultiMap {
            table: RawTable::new(hasher, policy),
            maint: Maintenance::default(),
        }
    }

    /// Number of pairs (counting duplicates).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the multimap is empty.
    pub fn is_empty(&self) -> bool {
        self.table.len() == 0
    }

    /// Inserts a pair; equal keys accumulate.
    pub fn insert(&mut self, key: K, value: V) {
        self.table.insert_multi(key, value);
    }

    /// Some value stored under `key`, if any.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.table.find(key).map(|i| &self.table.get_kv(i).1)
    }

    /// Number of pairs stored under `key`.
    pub fn count<Q>(&self, key: &Q) -> usize
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.table.count(key)
    }

    /// Whether any pair is stored under `key`.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.table.find(key).is_some()
    }

    /// Removes one pair stored under `key`.
    pub fn remove_one<Q>(&mut self, key: &Q) -> Option<V>
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.table.remove_one(key).map(|(_, v)| v)
    }

    /// Removes every pair stored under `key` (like `erase(key)`), returning
    /// how many were removed.
    pub fn remove_all<Q>(&mut self, key: &Q) -> usize
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.table.remove_all(key)
    }

    /// Removes every pair.
    pub fn clear(&mut self) {
        self.table.clear();
    }

    /// Iterates over pairs in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.table.iter()
    }

    /// Current number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.table.bucket_count()
    }

    /// Number of live entries in bucket `i`.
    pub fn bucket_len(&self, i: usize) -> usize {
        self.table.bucket_len(i)
    }

    /// The paper's bucket-collision count (Section 4.2).
    pub fn bucket_collisions(&self) -> u64 {
        self.table.bucket_collisions()
    }

    /// Advances any in-flight hash-function migration by up to `n` entries.
    pub fn migrate(&mut self, n: usize) {
        self.table.migrate(n);
    }

    /// Drains an in-flight migration completely.
    pub fn finish_migration(&mut self) {
        self.table.finish_migration();
    }

    /// Whether a hash-function migration epoch is currently being drained.
    pub fn migration_in_flight(&self) -> bool {
        self.table.migration_in_flight()
    }

    /// Fraction of the current migration already drained (`1.0` when idle).
    pub fn migration_progress(&self) -> f64 {
        self.table.migration_progress()
    }

    /// Opportunistic migration drain for read-heavy callers — see
    /// [`UnorderedMap::drain_on_read`](crate::UnorderedMap::drain_on_read).
    pub fn drain_on_read(&mut self) {
        self.table.drain_on_read();
    }

    /// Read-only lookups served while a migration epoch was in flight.
    pub fn stale_reads(&self) -> u64 {
        self.table.stale_reads()
    }
}

impl<K, V, F, G> UnorderedMultiMap<K, V, GuardedHash<F, G>>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash,
    G: ByteHash,
{
    /// The drift counters of the guarded hasher.
    pub fn drift_stats(&self) -> &GuardStats {
        self.table.hasher().stats()
    }

    /// The guarded hasher's current routing mode.
    pub fn guard_mode(&self) -> GuardMode {
        self.table.hasher().mode()
    }

    /// The held drift trip: `(off_format, total)` of the window that
    /// tripped, or `None` when no trip is held.
    pub fn drift_trip(&self) -> Option<(u64, u64)> {
        self.maint.drift_trip()
    }
}

impl<K, V, F, G> UnorderedMultiMap<K, V, GuardedHash<F, G>>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash + Clone,
    G: ByteHash + Clone,
{
    /// Judges the windowed drift counters against `policy`; returns whether
    /// the window tripped during this call. A trip is held on the guarded
    /// route, changes no routing and opens no epoch, as
    /// [`UnorderedMap::maybe_degrade`](crate::UnorderedMap::maybe_degrade)'s
    /// does. First drains an open migration epoch by its share of the
    /// operations served since the last call.
    pub fn maybe_degrade(&mut self, policy: &DriftPolicy) -> bool {
        self.maint
            .on(&mut self.table)
            .maybe_degrade(policy)
            .is_some()
    }
}

impl<K, V, G> UnorderedMultiMap<K, V, GuardedHash<sepe_core::SynthesizedHash, G>>
where
    K: Eq + AsRef<[u8]>,
    G: ByteHash + Clone,
{
    /// Re-synthesizes the specialized hash from the sampled off-format
    /// keys and opens one migration epoch, clearing a held drift trip, as
    /// [`UnorderedMap::resynthesize`](crate::UnorderedMap::resynthesize)
    /// does.
    pub fn resynthesize(&mut self) -> Resynth {
        self.maint.on(&mut self.table).resynthesize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::DRAIN_PER_OP;
    use sepe_baselines::StlHash;

    #[test]
    fn duplicates_accumulate_and_erase_together() {
        let mut m = UnorderedMultiMap::with_hasher(StlHash::new());
        for i in 0..100u32 {
            m.insert("dup".to_owned(), i);
            m.insert(format!("unique-{i}"), i);
        }
        assert_eq!(m.len(), 200);
        assert_eq!(m.count("dup"), 100);
        assert_eq!(m.count("unique-5"), 1);
        assert_eq!(m.remove_all("dup"), 100);
        assert_eq!(m.len(), 100);
        assert_eq!(m.count("dup"), 0);
    }

    #[test]
    fn remove_one_peels_duplicates() {
        let mut m = UnorderedMultiMap::with_hasher(StlHash::new());
        m.insert("k".to_owned(), 1);
        m.insert("k".to_owned(), 2);
        assert!(m.remove_one("k").is_some());
        assert_eq!(m.count("k"), 1);
        assert!(m.remove_one("k").is_some());
        assert_eq!(m.remove_one("k"), None);
    }

    #[test]
    fn grows_under_duplicates() {
        let mut m = UnorderedMultiMap::with_hasher(StlHash::new());
        for i in 0..5000u32 {
            m.insert("same".to_owned(), i);
        }
        assert_eq!(m.len(), 5000);
        assert_eq!(m.count("same"), 5000);
        assert!(m.bucket_count() >= 5000);
    }

    fn ssn(i: u32) -> String {
        format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i)
    }

    #[test]
    fn a_drift_trip_holds_the_guarded_route_until_a_resynthesis() {
        let pattern = sepe_core::regex::Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("compiles");
        let hasher = GuardedHash::from_pattern(&pattern, sepe_core::Family::Pext, StlHash::new());
        let mut m = UnorderedMultiMap::with_hasher(hasher);
        let policy = DriftPolicy {
            threshold: 0.10,
            min_samples: 16,
            window: 1024,
        };
        let off = |i: u32| format!("{:03}/{:02}/{:04}", i % 1000, i % 100, i);
        for i in 0..100u32 {
            m.insert(ssn(i), i);
        }
        for i in 0..20u32 {
            m.insert(off(i), i);
        }
        let keys: Vec<String> = (0..100).map(ssn).chain((0..20).map(off)).collect();
        let routes_now = |m: &UnorderedMultiMap<String, u32, _>| -> Vec<(u64, bool)> {
            let live: &GuardedHash<_, StlHash> = m.table.hasher();
            let silent = live.epoch_frozen(live.mode());
            keys.iter()
                .map(|k| silent.hash_routed(k.as_bytes()))
                .collect()
        };
        let (routes, opened) = (routes_now(&m), m.table.obs().epochs_opened.get());
        assert!(routes[..100].iter().all(|r| r.1) && routes[100..].iter().all(|r| !r.1));

        let window = m.drift_stats().window_counts();
        assert!(m.maybe_degrade(&policy));
        assert_eq!(m.drift_trip(), Some(window));
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        assert!(!m.migration_in_flight());
        assert_eq!(m.table.obs().epochs_opened.get(), opened, "no epoch opened");
        assert_eq!(routes_now(&m), routes, "every route and vouch is unchanged");

        let counted = m.drift_stats().off_format();
        for i in 20..40u32 {
            m.insert(off(i), i);
        }
        assert_eq!(m.drift_stats().off_format(), counted + 20);
        assert!(m
            .table
            .hasher()
            .reservoir_keys()
            .contains(&off(39).into_bytes()));
        let (off_format, total) = m.drift_stats().window_counts();
        assert!(policy.should_degrade(off_format, total));
        assert!(!m.maybe_degrade(&policy), "a held trip does not trip again");
        assert_eq!(m.drift_trip(), Some(window));

        assert!(m.resynthesize().is_applied());
        assert_eq!(m.table.obs().epochs_opened.get(), opened + 1);
        assert!(m.migration_in_flight());
        assert_eq!((m.guard_mode(), m.drift_trip()), (GuardMode::Guarded, None));
        m.finish_migration();
        for key in &keys {
            assert_eq!(m.count(key), 1, "{key}");
        }
    }

    /// A guarded SSN multimap of `len` keys, the last one drifted, then
    /// the resynthesis epoch that drift opens over them.
    fn resynthesized_ssn_multimap(
        len: u32,
    ) -> UnorderedMultiMap<String, u32, GuardedHash<sepe_core::SynthesizedHash, StlHash>> {
        let pattern = sepe_core::regex::Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("compiles");
        let hasher = GuardedHash::from_pattern(&pattern, sepe_core::Family::Pext, StlHash::new());
        let mut m = UnorderedMultiMap::with_hasher(hasher);
        for i in 0..len - 1 {
            m.insert(ssn(i), i);
        }
        m.insert("123/45/6789".to_owned(), len - 1);
        assert!(m.resynthesize().is_applied());
        assert!(m.migration_in_flight());
        m
    }

    #[test]
    fn ticked_insert_only_traffic_drains_twice_the_per_op_share() {
        // A multimap insert probes nothing, so the maintenance clock
        // counts it at its drain: each insert pays `DRAIN_PER_OP` entries
        // itself and owes as many to the next tick.
        let len = 3000u32;
        let mut m = resynthesized_ssn_multimap(len);
        let (window, policy) = (64u32, DriftPolicy::default());
        let mut ops = 0u32;
        while m.migration_in_flight() {
            for _ in 0..window {
                m.insert(ssn(len + ops), ops);
                ops += 1;
            }
            m.maybe_degrade(&policy);
        }
        let bound = (len as usize).div_ceil(2 * DRAIN_PER_OP) + window as usize;
        assert!(
            ops as usize <= bound,
            "closed after {ops} inserts, bound {bound}"
        );
        assert_eq!(m.count(&ssn(7)), 1);
    }

    #[test]
    fn counts_and_removals_served_mid_epoch_are_owed_to_the_next_tick() {
        let len = 3000u32;
        let mut m = resynthesized_ssn_multimap(len);
        for i in 0..50 {
            assert_eq!(m.count(&ssn(i)), 1);
        }
        for i in 100..110 {
            assert_eq!(m.remove_one(&ssn(i)), Some(i));
        }
        let left = |m: &UnorderedMultiMap<_, _, _>| {
            ((1.0 - m.migration_progress()) * f64::from(len)).round() as usize
        };
        let before = left(&m);
        m.maybe_degrade(&DriftPolicy::default());
        assert_eq!(before - left(&m), 60 * DRAIN_PER_OP);
    }
}
