//! `UnorderedMap` — the analog of `std::unordered_map`.

use crate::maintenance::{Controller, Maintenance};
use crate::policy::{AttackPolicy, BucketPolicy, DriftPolicy};
use crate::table::RawTable;
use sepe_core::guard::{GuardMode, GuardStats, GuardedHash, Resynth};
use sepe_core::hash::keyed::SeedSource;
use sepe_core::hash::{ByteHash, HashBatch};
use std::borrow::Borrow;

/// A chained hash map with prime bucket counts and bucket introspection,
/// hashing keys through a [`ByteHash`].
///
/// # Examples
///
/// ```
/// use sepe_baselines::StlHash;
/// use sepe_containers::UnorderedMap;
///
/// let mut m = UnorderedMap::with_hasher(StlHash::new());
/// m.insert("alpha".to_owned(), 1);
/// m.insert("beta".to_owned(), 2);
/// assert_eq!(m.get("alpha"), Some(&1));
/// assert_eq!(m.remove("beta"), Some(2));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct UnorderedMap<K, V, H> {
    table: RawTable<K, V, H>,
    maint: Maintenance,
}

impl<K, V, H> UnorderedMap<K, V, H>
where
    K: Eq + AsRef<[u8]>,
    H: ByteHash,
{
    /// Creates an empty map using `hasher` and modulo bucket indexing.
    pub fn with_hasher(hasher: H) -> Self {
        Self::with_hasher_and_policy(hasher, BucketPolicy::Modulo)
    }

    /// Creates an empty map with an explicit bucket-index policy (used by
    /// the RQ7 low-mixing experiments).
    pub fn with_hasher_and_policy(hasher: H, policy: BucketPolicy) -> Self {
        UnorderedMap {
            table: RawTable::new(hasher, policy),
            maint: Maintenance::default(),
        }
    }

    /// The hash function in use.
    pub fn hasher(&self) -> &H {
        self.table.hasher()
    }

    /// The bucket-index policy in use.
    pub fn policy(&self) -> BucketPolicy {
        self.table.policy()
    }

    /// Number of key-value pairs.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.table.len() == 0
    }

    /// Inserts a pair, returning the previous value for an equal key.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.table.insert_unique(key, value)
    }

    /// Looks up a key.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.table.find(key).map(|i| &self.table.get_kv(i).1)
    }

    /// Looks up a key, returning a mutable value reference.
    ///
    /// Having mutable access anyway, this also drains an in-flight
    /// hash-function migration by the few entries a mutating operation
    /// pays (see [`UnorderedMap::drain_on_read`]), so lookup-only workloads
    /// that go through `get_mut` still converge out of the dual-epoch
    /// state.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.table.drain_on_read();
        self.table
            .find(key)
            .map(|i| &mut self.table.get_kv_mut(i).1)
    }

    /// Whether the map contains `key`.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.table.find(key).is_some()
    }

    /// Removes a key, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.table.remove_one(key).map(|(_, v)| v)
    }

    /// Removes every pair.
    pub fn clear(&mut self) {
        self.table.clear();
    }

    /// Iterates over the pairs in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.table.iter()
    }

    /// Current number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.table.bucket_count()
    }

    /// Number of live entries in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.bucket_count()`.
    pub fn bucket_len(&self, i: usize) -> usize {
        self.table.bucket_len(i)
    }

    /// Σ over buckets of `max(0, bucket_len − 1)` — the paper's bucket
    /// collision count (Section 4.2).
    pub fn bucket_collisions(&self) -> u64 {
        self.table.bucket_collisions()
    }

    /// Length of the longest live bucket chain — the occupancy-skew
    /// signal the collision-storm detector judges, and the quantity the
    /// adversarial harness bounds (a lookup's probe length never exceeds
    /// its bucket's chain length).
    pub fn max_bucket_len(&self) -> usize {
        self.table.max_bucket_len()
    }

    /// Upper bound on [`UnorderedMap::max_bucket_len`] that the table
    /// keeps from its inserts and migration drains, or `None` while
    /// unknown: after a rehash, until the next exact count. The storm
    /// detector's ticks read it instead of walking every chain whenever it
    /// is too short to look skewed.
    pub fn chain_bound(&self) -> Option<usize> {
        self.table.chain_bound()
    }

    /// Current load factor.
    pub fn load_factor(&self) -> f64 {
        self.table.load_factor()
    }

    /// Maximum load factor before rehashing (1.0, like libstdc++).
    pub fn max_load_factor(&self) -> f64 {
        self.table.max_load_factor()
    }

    /// Changes the maximum load factor, rehashing if already exceeded.
    ///
    /// # Panics
    ///
    /// Panics if `mlf` is not positive.
    pub fn set_max_load_factor(&mut self, mlf: f64) {
        self.table.set_max_load_factor(mlf);
    }

    /// Rehashes into at least `bucket_count` buckets.
    pub fn rehash(&mut self, bucket_count: usize) {
        self.table.rehash(bucket_count);
    }

    /// Ensures `additional` more pairs fit without rehashing or growing
    /// the entry arena, as `std`'s `HashMap::reserve` does: grows to a
    /// prime bucket count if necessary, and reserves `additional` arena
    /// slots past the last one in use, so the inserts never reallocate
    /// even mid-epoch, when none of them may reuse a freed slot.
    pub fn reserve(&mut self, additional: usize) {
        self.table.reserve(additional);
    }

    /// The 64-bit hash of `key` under this map's hash function.
    pub fn hash_of(&self, key: &[u8]) -> u64 {
        self.table.hash_of(key)
    }

    /// Advances any in-flight hash-function migration by up to `n` entries
    /// (a no-op otherwise). Mutating operations already drain 4 entries
    /// each, and every maintenance judgment (`maybe_degrade`,
    /// `maybe_escalate`, `maybe_deescalate`) 4 more per data operation
    /// served since the last one; this lets idle callers drain faster.
    pub fn migrate(&mut self, n: usize) {
        self.table.migrate(n);
    }

    /// Drains an in-flight migration completely, so every entry is filed
    /// under the live hash function.
    pub fn finish_migration(&mut self) {
        self.table.finish_migration();
    }

    /// Whether a hash-function migration epoch is currently being drained.
    pub fn migration_in_flight(&self) -> bool {
        self.table.migration_in_flight()
    }

    /// Fraction of the current migration already drained: 1.0 when no
    /// migration is in flight, monotone non-decreasing while one is.
    pub fn migration_progress(&self) -> f64 {
        self.table.migration_progress()
    }

    /// Opportunistic migration drain for read-heavy callers.
    ///
    /// `get` takes `&self` and cannot drain. A ticked map drains for its
    /// reads at the next maintenance judgment; for callers that never
    /// tick, read-only lookups record their starvation (each `get` that
    /// probes an open epoch bumps an internal relaxed counter), and this
    /// call — a no-op when no migration is in flight — drains the 4
    /// entries a mutating operation pays, or the *whole* epoch once the
    /// staleness threshold has been crossed. `get_mut` calls it
    /// automatically; `ShardedMap` calls it from plain `get`s whenever it
    /// can take a shard's write lock without blocking readers.
    pub fn drain_on_read(&mut self) {
        self.table.drain_on_read();
    }

    /// Read-only lookups served while a migration epoch was in flight
    /// (resets to 0 when the epoch drains).
    pub fn stale_reads(&self) -> u64 {
        self.table.stale_reads()
    }

    /// Registers this map's table metrics under `labels`: the
    /// `table_probe_len` histogram plus the `table_drain_ops`,
    /// `table_epochs_opened`, `table_epochs_finished`,
    /// `table_stale_probes`, `table_batch_chunks` and `table_batch_keys`
    /// counters, and the `table_escalations`, `table_deescalations` and
    /// `table_seed_rotations` ladder counters. The registry reads the live
    /// shared handles; nothing is copied and the map's hot paths are
    /// unaffected.
    ///
    /// # Errors
    ///
    /// Propagates [`sepe_obs::RegistryError`] on duplicate registration
    /// (export each map under distinct labels).
    pub fn export_table_metrics(
        &self,
        registry: &sepe_obs::Registry,
        labels: &[(&str, &str)],
    ) -> Result<(), sepe_obs::RegistryError> {
        self.table.obs().export(registry, labels)
    }
}

/// Width of a lookup/insert batch chunk: matches the widest hash kernel, and
/// eight outstanding prefetches sit comfortably within the fill buffers of
/// any recent core.
const BATCH_CHUNK: usize = 8;

impl<K, V, H> UnorderedMap<K, V, H>
where
    K: Eq + AsRef<[u8]>,
    H: HashBatch,
{
    /// Batched lookup: hashes up to eight keys with one [`HashBatch`] call,
    /// prefetches every target bucket, then probes. `result[i]` is the value
    /// for `keys[i]`, as if by [`UnorderedMap::get`]. A batch hash carries
    /// no route, so every hash match compares key bytes, even where a
    /// scalar `get` would let an injective plan's hash decide.
    pub fn get_batch(&self, keys: &[&[u8]]) -> Vec<Option<&V>> {
        let mut results = Vec::with_capacity(keys.len());
        let mut hashes = [0u64; BATCH_CHUNK];
        for chunk in keys.chunks(BATCH_CHUNK) {
            self.table.obs().batch_chunks.inc();
            self.table.obs().batch_keys.add(chunk.len() as u64);
            let hashes = &mut hashes[..chunk.len()];
            self.table.hasher().hash_batch(chunk, hashes);
            for &h in hashes.iter() {
                self.table.prefetch_bucket(h);
            }
            for (&h, &key) in hashes.iter().zip(chunk) {
                results.push(
                    self.table
                        .find_hashed(h, key)
                        .map(|i| &self.table.get_kv(i).1),
                );
            }
        }
        results
    }

    /// Batched insert: reserves room for the whole batch, then hashes eight
    /// pairs at a time before probing. `result[i]` is the previous value for
    /// `pairs[i].0`, as if by [`UnorderedMap::insert`] in order. With no
    /// route to go on, the entries it files are not vouched for: lookups
    /// compare their key bytes until a migration re-files them.
    pub fn insert_batch(&mut self, pairs: Vec<(K, V)>) -> Vec<Option<V>> {
        // Reserving up front keeps the bucket array stable across the batch;
        // the cached hashes are bucket-count independent either way.
        self.reserve(pairs.len());
        let mut results = Vec::with_capacity(pairs.len());
        let mut hashes = [0u64; BATCH_CHUNK];
        let mut chunk: Vec<(K, V)> = Vec::with_capacity(BATCH_CHUNK);
        let mut iter = pairs.into_iter();
        loop {
            chunk.extend(iter.by_ref().take(BATCH_CHUNK));
            if chunk.is_empty() {
                break;
            }
            self.table.obs().batch_chunks.inc();
            self.table.obs().batch_keys.add(chunk.len() as u64);
            {
                let keyrefs: Vec<&[u8]> = chunk.iter().map(|(k, _)| k.as_ref()).collect();
                let hashes = &mut hashes[..keyrefs.len()];
                self.table.hasher().hash_batch(&keyrefs, hashes);
            }
            for &h in &hashes[..chunk.len()] {
                self.table.prefetch_bucket(h);
            }
            for (i, (key, value)) in chunk.drain(..).enumerate() {
                results.push(self.table.insert_unique_hashed(hashes[i], key, value));
            }
        }
        results
    }
}

impl<K, V, F, G> UnorderedMap<K, V, GuardedHash<F, G>>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash,
    G: ByteHash,
{
    /// The drift counters of the guarded hasher.
    pub fn drift_stats(&self) -> &GuardStats {
        self.hasher().stats()
    }

    /// The guarded hasher's current routing mode.
    pub fn guard_mode(&self) -> GuardMode {
        self.hasher().mode()
    }

    /// The held drift trip: `(off_format, total)` of the window that
    /// tripped [`UnorderedMap::maybe_degrade`], or `None` when no trip is
    /// held.
    pub fn drift_trip(&self) -> Option<(u64, u64)> {
        self.maint.drift_trip()
    }

    /// Registers the map's table metrics *and* its guard drift counters
    /// (`guard_in_format` / `guard_off_format`) under `labels`. The drift
    /// counters are exported as live reads of the shared [`GuardStats`],
    /// so a snapshot always agrees with [`UnorderedMap::drift_stats`].
    ///
    /// # Errors
    ///
    /// Propagates [`sepe_obs::RegistryError`] on duplicate registration.
    pub fn export_metrics(
        &self,
        registry: &sepe_obs::Registry,
        labels: &[(&str, &str)],
    ) -> Result<(), sepe_obs::RegistryError> {
        self.export_table_metrics(registry, labels)?;
        self.hasher()
            .stats_handle()
            .export_metrics(registry, labels)
    }
}

impl<K, V, F, G> UnorderedMap<K, V, GuardedHash<F, G>>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash + Clone,
    G: ByteHash + Clone,
{
    /// Degrades without consulting the drift window: flips the hasher to
    /// fallback-for-all-keys and opens a migration epoch so stored entries
    /// re-file incrementally instead of in one stop-the-world rebuild.
    /// Lookups stay consistent throughout — they probe both epochs until
    /// the drain completes. This is the only way drift reaches
    /// [`GuardMode::Degraded`]: a tripped drift window holds the guarded
    /// route instead (see [`UnorderedMap::maybe_degrade`]).
    ///
    /// A no-op unless the map is on [`GuardMode::Guarded`]: a degraded map
    /// has nothing to do, and a keyed map is already above this rung. The
    /// rung is held for drift: storm quiet never leaves it, only an
    /// applied [`UnorderedMap::resynthesize`] does.
    pub fn degrade_now(&mut self) {
        self.controller().degrade();
    }

    /// Checks the *windowed* drift counters against `policy`; full clean
    /// windows are rolled away, so early clean traffic cannot mask a later
    /// drift burst. Returns whether the window tripped during this call.
    ///
    /// A trip changes no routing and opens no epoch: off-format keys
    /// already take the tagged fallback (counted and sampled), and
    /// in-format keys keep the specialized route, vouched where the plan
    /// is injective. The trip is recorded ([`UnorderedMap::drift_trip`]),
    /// its window rolled, and then held: later windows do not trip again
    /// until a transition clears it, usually the
    /// [`UnorderedMap::resynthesize`] that widens the plan over the
    /// sampled keys (any storm transition clears it too).
    ///
    /// Judges only a map on [`GuardMode::Guarded`]; on any other rung it
    /// returns `false` and leaves the window alone. On the keyed rung the
    /// drift window is still the one frozen at escalation.
    ///
    /// On every rung it first drains an open migration epoch by 4 entries
    /// per data operation the map served since the last maintenance
    /// judgment drained, in one batched sweep; `maybe_escalate` and
    /// `maybe_deescalate` do the same, so one tick drains once however
    /// many judgments it makes, and the bulk of an epoch's drain runs on
    /// the maintenance clock instead of inside data operations.
    pub fn maybe_degrade(&mut self, policy: &DriftPolicy) -> bool {
        self.controller().maybe_degrade(policy).is_some()
    }

    /// Takes one upward rung on the escalation ladder, opening a
    /// migration epoch so the re-keying is an incremental rehash:
    ///
    /// * `Guarded` or `Degraded` → `Keyed(seed)` — the specialized route
    ///   and the fallback are both unkeyed and precomputable, so a
    ///   detected storm moves to a secret seed in one step;
    /// * `Keyed` → `Keyed(rotated seed)` — a storm *while keyed* means
    ///   the seed leaked; rotate it.
    ///
    /// Each call bumps the `table_escalations` counter (rotations also
    /// bump `table_seed_rotations`), which the adversarial
    /// harness checks against its own transcript.
    pub fn escalate_now(&mut self, seeds: &impl SeedSource) {
        self.controller().escalate(seeds);
    }

    /// Gathers one [`AttackSignals`](crate::AttackSignals) snapshot from
    /// the table's own accounting and escalates when `policy` has judged
    /// it stormy [`AttackPolicy::trip_streak`] times in a row. Returns
    /// whether an escalation happened during this call.
    ///
    /// Call this from the same maintenance cadence as
    /// [`UnorderedMap::maybe_degrade`]; the streak state makes the cadence
    /// itself part of the hysteresis. Each call advances the per-tick
    /// probe window. It first drains the epoch's share of the
    /// operations served since the last drain, as `maybe_degrade` does.
    pub fn maybe_escalate(&mut self, policy: &AttackPolicy, seeds: &impl SeedSource) -> bool {
        self.controller().maybe_escalate(policy, seeds).is_some()
    }

    /// Counts one calm observation on a storm rung and, at the end of a
    /// quiet streak, de-escalates all the way back to the specialized
    /// hasher (guard re-armed, counters reset, reservoir cleared) under an
    /// incremental migration. Returns whether the de-escalation happened.
    ///
    /// A streak is [`AttackPolicy::quiet_streak`] calm ticks, doubled (up
    /// to 16×) each time one ends with the guarded routing still skewed on
    /// the stored entries: a rung stays while its flood is resident, since
    /// the specialized and fallback routes are adversary-computable. A
    /// storm rung re-arms even if a drift degrade sat below it; the
    /// reservoir, filled during the attack, is cleared with it (a drift
    /// trip held before the storm was cleared by the escalation). A rung
    /// held for drift ([`UnorderedMap::degrade_now`]) is neither counted
    /// nor left: the degraded hasher counts no drift, so only
    /// [`UnorderedMap::resynthesize`] leaves it. On every rung it first
    /// drains the epoch's share of the operations served since the last
    /// drain, as `maybe_degrade` does.
    pub fn maybe_deescalate(&mut self, policy: &AttackPolicy) -> bool {
        self.controller().maybe_deescalate(policy).is_some()
    }

    /// Escalation-ladder rungs taken (lifetime).
    pub fn escalations(&self) -> u64 {
        self.table.obs().escalations.get()
    }

    /// Quiet-window de-escalations (lifetime).
    pub fn deescalations(&self) -> u64 {
        self.table.obs().deescalations.get()
    }

    /// Keyed-rung seed rotations (lifetime).
    pub fn seed_rotations(&self) -> u64 {
        self.table.obs().seed_rotations.get()
    }

    /// The ladder controller of this map's table (`ShardedMap` reads each
    /// shard's transitions from it).
    pub(crate) fn controller(&mut self) -> Controller<'_, K, V, F, G> {
        self.maint.on(&mut self.table)
    }
}

impl<K, V, G> UnorderedMap<K, V, GuardedHash<sepe_core::SynthesizedHash, G>>
where
    K: Eq + AsRef<[u8]>,
    G: ByteHash + Clone,
{
    /// Re-synthesizes the specialized hash from the reservoir of off-format
    /// keys the guard sampled, re-arms the guard (counters and reservoir
    /// reset), and opens a migration epoch that re-files stored entries
    /// incrementally. An applied resynthesis clears a held drift trip.
    /// Returns the typed outcome: [`Resynth::NoDrift`] (and changes
    /// nothing) when no off-format keys were observed,
    /// [`Resynth::SynthFailed`] (and changes nothing) when synthesis or
    /// plan validation rejected the widened pattern.
    pub fn resynthesize(&mut self) -> Resynth {
        self.controller().resynthesize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintenance::MAX_HOLD_DOUBLINGS;
    use crate::table::DRAIN_PER_OP;
    use sepe_baselines::StlHash;

    fn map() -> UnorderedMap<String, u32, StlHash> {
        UnorderedMap::with_hasher(StlHash::new())
    }

    #[test]
    fn insert_get_remove_cycle() {
        let mut m = map();
        assert!(m.is_empty());
        for i in 0..5000u32 {
            assert_eq!(m.insert(format!("key-{i:06}"), i), None);
        }
        assert_eq!(m.len(), 5000);
        for i in 0..5000u32 {
            assert_eq!(m.get(&format!("key-{i:06}")), Some(&i));
        }
        for i in (0..5000u32).step_by(2) {
            assert_eq!(m.remove(&format!("key-{i:06}")), Some(i));
        }
        assert_eq!(m.len(), 2500);
        for i in 0..5000u32 {
            let expect = if i % 2 == 0 { None } else { Some(&i) };
            assert_eq!(m.get(&format!("key-{i:06}")), expect);
        }
    }

    #[test]
    fn insert_replaces_existing() {
        let mut m = map();
        assert_eq!(m.insert("k".to_owned(), 1), None);
        assert_eq!(m.insert("k".to_owned(), 2), Some(1));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get("k"), Some(&2));
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut m = map();
        m.insert("k".to_owned(), 10);
        *m.get_mut("k").expect("present") += 5;
        assert_eq!(m.get("k"), Some(&15));
    }

    #[test]
    fn load_factor_stays_bounded() {
        let mut m = map();
        for i in 0..10_000u32 {
            m.insert(format!("{i:08}"), i);
        }
        assert!(m.load_factor() <= m.max_load_factor() + f64::EPSILON);
        assert!(m.bucket_count() >= 10_000);
        assert!(crate::primes::is_prime(m.bucket_count() as u64));
    }

    #[test]
    fn bucket_lens_sum_to_len() {
        let mut m = map();
        for i in 0..3000u32 {
            m.insert(format!("{i:07}"), i);
        }
        let total: usize = (0..m.bucket_count()).map(|b| m.bucket_len(b)).sum();
        assert_eq!(total, m.len());
    }

    #[test]
    fn clear_resets() {
        let mut m = map();
        for i in 0..100u32 {
            m.insert(format!("{i}"), i);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get("50"), None);
        m.insert("50".to_owned(), 1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut m = map();
        for round in 0..10u32 {
            for i in 0..500u32 {
                m.insert(format!("{i:05}"), round);
            }
            for i in 0..500u32 {
                assert_eq!(m.remove(&format!("{i:05}")), Some(round));
            }
        }
        assert!(m.is_empty());
    }

    #[test]
    fn low_mixing_policy_is_honored() {
        let mut m: UnorderedMap<String, u32, StlHash> = UnorderedMap::with_hasher_and_policy(
            StlHash::new(),
            BucketPolicy::HighBits { discard_low: 32 },
        );
        for i in 0..1000u32 {
            m.insert(format!("{i:06}"), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&format!("{i:06}")), Some(&i));
        }
    }

    #[test]
    fn reserve_prevents_rehashes() {
        let mut m = map();
        m.reserve(10_000);
        let (buckets, slots) = (m.bucket_count(), m.table.arena_capacity());
        assert!(buckets >= 10_000 && slots >= 10_000);
        for i in 0..10_000u32 {
            m.insert(format!("{i:08}"), i);
        }
        assert_eq!(m.bucket_count(), buckets, "no rehash after reserve");
        assert_eq!(m.table.arena_capacity(), slots, "no arena growth either");
        assert_eq!(m.len(), 10_000);
    }

    fn guarded_ssn_map(
        family: sepe_core::Family,
    ) -> UnorderedMap<String, u32, GuardedHash<sepe_core::SynthesizedHash, StlHash>> {
        let pattern = sepe_core::regex::Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("compiles");
        UnorderedMap::with_hasher(GuardedHash::from_pattern(&pattern, family, StlHash::new()))
    }

    /// The SSN plan, counting the keys it hashes.
    #[derive(Debug, Clone)]
    struct Counted {
        plan: sepe_core::SynthesizedHash,
        calls: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl ByteHash for Counted {
        fn hash_bytes(&self, key: &[u8]) -> u64 {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.plan.hash_bytes(key)
        }

        fn injective_over(&self, pattern: &sepe_core::KeyPattern) -> bool {
            self.plan.injective_over(pattern)
        }
    }

    #[test]
    fn storm_transitions_refile_vouched_entries_from_their_cached_hashes() {
        use std::sync::atomic::Ordering::Relaxed;
        let pattern = sepe_core::regex::Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("compiles");
        let plan = sepe_core::SynthesizedHash::from_pattern(&pattern, sepe_core::Family::OffXor);
        assert!(plan.injective_over(&pattern), "the SSN OffXor plan vouches");
        let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counted = Counted {
            plan,
            calls: calls.clone(),
        };
        let filled = || {
            let hasher = GuardedHash::new(&pattern, counted.clone(), StlHash::new());
            let mut m: UnorderedMap<String, u32, _> = UnorderedMap::with_hasher(hasher);
            for i in 0..2_000u32 {
                m.insert(ssn_key(i), i);
            }
            for i in 0..20u32 {
                m.insert(format!("off-format key {i}"), i);
            }
            m
        };
        // Only the debug build's check of each mapped hash reads the key.
        let checked = if cfg!(debug_assertions) { 2_000 } else { 0 };
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(7);
        let mut m = filled();

        // The drain, Guarded to Keyed.
        let before = calls.load(Relaxed);
        m.escalate_now(&seeds);
        m.migrate(500);
        // The sweep runs down from the arena's end: the 20 off-format
        // keys, filed last, are among the 500 it takes, and their
        // fallback hash is not the plan's.
        let swept = 500 - 20;
        // A rotation merged into the half-drained epoch re-files the
        // swept side from Keyed to Keyed under the new seed.
        m.escalate_now(&seeds);
        m.finish_migration();
        assert_eq!(calls.load(Relaxed) - before, checked + swept.min(checked));

        // The storm hold's scan and the de-escalation's drain, from Keyed.
        let policy = AttackPolicy {
            quiet_streak: 1,
            ..AttackPolicy::default()
        };
        // Start the probe window here: the fill's probes are no storm.
        m.controller().exact_signals();
        let before = calls.load(Relaxed);
        assert!(m.maybe_deescalate(&policy));
        m.finish_migration();
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        assert_eq!(calls.load(Relaxed) - before, 2 * checked);
        for i in 0..2_000u32 {
            assert_eq!(m.get(ssn_key(i).as_str()), Some(&i));
        }
        for i in 0..20u32 {
            assert_eq!(m.get(format!("off-format key {i}").as_str()), Some(&i));
        }

        // Off the degraded rung nothing is vouched for: every in-format
        // key is hashed from its bytes.
        let mut d = filled();
        d.degrade_now();
        d.finish_migration();
        let before = calls.load(Relaxed);
        d.escalate_now(&seeds);
        d.finish_migration();
        assert_eq!(calls.load(Relaxed) - before, 2_000);
    }

    #[test]
    fn drift_threshold_trips_and_holds_the_guarded_route() {
        let mut m = guarded_ssn_map(sepe_core::Family::Pext);
        let policy = DriftPolicy {
            threshold: 0.10,
            min_samples: 16,
            ..DriftPolicy::default()
        };
        for i in 0..64u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i, i % 100, i * 7 % 10_000), i);
        }
        assert!(!m.maybe_degrade(&policy), "no drift yet");
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        // 20% of subsequent traffic is off-format.
        for i in 0..40u32 {
            m.insert(format!("off-format key {i}"), i);
        }
        assert!(m.drift_stats().off_rate() > policy.threshold);
        let window = m.drift_stats().window_counts();
        assert!(m.maybe_degrade(&policy), "the window trips exactly once");
        assert_eq!(m.drift_trip(), Some(window), "the trip keeps its evidence");
        assert_eq!(m.guard_mode(), GuardMode::Guarded, "the route is held");
        assert!(!m.migration_in_flight(), "no epoch opened");
        assert!(!m.maybe_degrade(&policy), "idempotent while held");
        for i in 0..64u32 {
            let key = format!("{:03}-{:02}-{:04}", i, i % 100, i * 7 % 10_000);
            assert_eq!(m.get(key.as_str()), Some(&i), "{key}");
        }
        for i in 0..40u32 {
            assert_eq!(m.get(format!("off-format key {i}").as_str()), Some(&i));
        }
    }

    #[test]
    fn a_drift_trip_changes_no_route_and_holds_until_a_resynthesis() {
        let mut m = guarded_ssn_map(sepe_core::Family::Pext);
        let policy = DriftPolicy {
            threshold: 0.10,
            min_samples: 16,
            window: 1024,
        };
        let off = |i: u32| format!("{:03}/{:02}/{:04}", i % 1000, i % 100, i);
        for i in 0..100u32 {
            m.insert(ssn_key(i), i);
        }
        for i in 0..20u32 {
            m.insert(off(i), i);
        }
        let keys: Vec<String> = (0..100).map(ssn_key).chain((0..20).map(off)).collect();
        // Routes read through counter-silent copies of the live routing.
        let routes_now = |m: &UnorderedMap<String, u32, _>| -> Vec<(u64, bool)> {
            let live: &GuardedHash<_, StlHash> = m.hasher();
            let silent = live.epoch_frozen(live.mode());
            keys.iter()
                .map(|k| silent.hash_routed(k.as_bytes()))
                .collect()
        };
        let routes = routes_now(&m);
        assert!(routes[..100].iter().all(|r| r.1), "in-format keys vouch");
        assert!(routes[100..].iter().all(|r| !r.1), "off-format keys do not");
        let opened = m.table.obs().epochs_opened.get();

        assert!(m.maybe_degrade(&policy));
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        assert!(!m.migration_in_flight());
        assert_eq!(m.table.obs().epochs_opened.get(), opened, "no epoch opened");
        assert_eq!(routes_now(&m), routes, "every route and vouch is unchanged");

        // Off-format keys are still counted and sampled; the next window
        // trips the policy but not the held judgment.
        let counted = m.drift_stats().off_format();
        for i in 20..40u32 {
            m.insert(off(i), i);
        }
        assert_eq!(m.drift_stats().off_format(), counted + 20);
        let sampled = m.hasher().reservoir_keys();
        assert!(sampled.contains(&off(39).into_bytes()), "{sampled:?}");
        let (off_format, total) = m.drift_stats().window_counts();
        assert!(policy.should_degrade(off_format, total));
        let held = m.drift_trip();
        assert!(!m.maybe_degrade(&policy), "a held trip does not trip again");
        assert_eq!(m.drift_trip(), held);

        // The resynthesis is the one epoch, and it clears the hold.
        assert!(m.resynthesize().is_applied());
        assert_eq!(m.table.obs().epochs_opened.get(), opened + 1);
        assert!(m.migration_in_flight());
        assert_eq!((m.guard_mode(), m.drift_trip()), (GuardMode::Guarded, None));
        assert!(m.hasher().guard().matches(off(0).as_bytes()));
        m.finish_migration();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(m.get(key.as_str()), Some(&(i as u32 % 100)), "{key}");
        }
    }

    #[test]
    fn a_storm_transition_clears_a_held_trip() {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..64u32 {
            m.insert(ssn_key(i), i);
            m.insert(format!("off-format key {i}"), i);
        }
        assert!(m.maybe_degrade(&DriftPolicy::default()));
        assert!(m.drift_trip().is_some());
        m.escalate_now(&sepe_core::hash::keyed::FixedSeedSource::new(7));
        assert_eq!((m.guard_mode(), m.drift_trip()), (GuardMode::Keyed, None));
    }

    #[test]
    fn degraded_map_keeps_working_through_growth() {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..100u32 {
            m.insert(format!("{i:03}-00-0000"), i);
        }
        m.degrade_now();
        // Inserts after the flip use the fallback hash; growth rehashes mix
        // cached pre-flip and post-flip hashes only if rebuild missed one.
        for i in 0..5_000u32 {
            m.insert(format!("post-{i:06}"), i);
        }
        for i in 0..100u32 {
            assert_eq!(m.get(format!("{i:03}-00-0000").as_str()), Some(&i));
        }
        for i in 0..5_000u32 {
            assert_eq!(m.get(format!("post-{i:06}").as_str()), Some(&i));
        }
    }

    #[test]
    fn resynthesis_rearms_the_guard_and_preserves_contents() {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..50u32 {
            m.insert(format!("{i:03}-11-2222"), i);
        }
        // Drifted keys share the SSN shape except for a trailing letter.
        for i in 0..50u32 {
            m.insert(format!("{i:03}-11-222x"), i);
        }
        assert!(m.resynthesize().is_applied());
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        assert_eq!(m.drift_stats().total(), 0, "counters reset");
        // The widened guard accepts the previously drifted shape...
        assert!(m.hasher().guard().matches(b"123-11-222x"));
        // ...and every pair survived the rebuild.
        for i in 0..50u32 {
            assert_eq!(m.get(format!("{i:03}-11-2222").as_str()), Some(&i));
            assert_eq!(m.get(format!("{i:03}-11-222x").as_str()), Some(&i));
        }
    }

    #[test]
    fn resynthesis_without_drift_reports_no_drift() {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        m.insert("123-45-6789".to_owned(), 1);
        assert_eq!(m.resynthesize(), sepe_core::guard::Resynth::NoDrift);
    }

    #[test]
    fn get_batch_agrees_with_scalar_get() {
        let mut m = guarded_ssn_map(sepe_core::Family::Pext);
        for i in 0..500u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
        }
        let queries: Vec<String> = (0..137u32)
            .map(|i| {
                if i % 4 == 1 {
                    format!("missing query {i}")
                } else {
                    format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i)
                }
            })
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(String::as_bytes).collect();
        let batched = m.get_batch(&refs);
        assert_eq!(batched.len(), queries.len());
        for (q, got) in queries.iter().zip(batched) {
            assert_eq!(got, m.get(q.as_str()), "{q}");
        }
    }

    #[test]
    fn insert_batch_agrees_with_scalar_insert() {
        let mut batched = guarded_ssn_map(sepe_core::Family::OffXor);
        let mut scalar = guarded_ssn_map(sepe_core::Family::OffXor);
        // Duplicates inside the batch (i % 150) exercise the replace path;
        // off-format keys exercise the guard inside the batch hasher.
        let pairs: Vec<(String, u32)> = (0..300u32)
            .map(|i| {
                let key = if i % 7 == 3 {
                    format!("off format {}", i % 150)
                } else {
                    format!("{:03}-{:02}-{:04}", i % 150, i % 100, i % 150)
                };
                (key, i)
            })
            .collect();
        let scalar_results: Vec<Option<u32>> = pairs
            .iter()
            .map(|(k, v)| scalar.insert(k.clone(), *v))
            .collect();
        let batch_results = batched.insert_batch(pairs.clone());
        assert_eq!(batch_results, scalar_results);
        assert_eq!(batched.len(), scalar.len());
        for (k, _) in &pairs {
            assert_eq!(batched.get(k.as_str()), scalar.get(k.as_str()), "{k}");
        }
    }

    #[test]
    fn batch_ops_work_through_growth_and_plain_hashers() {
        let mut m = map();
        let pairs: Vec<(String, u32)> = (0..10_000u32).map(|i| (format!("{i:08}"), i)).collect();
        let prev = m.insert_batch(pairs);
        assert!(prev.iter().all(Option::is_none));
        assert_eq!(m.len(), 10_000);
        let queries: Vec<String> = (0..10_000u32)
            .step_by(97)
            .map(|i| format!("{i:08}"))
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(String::as_bytes).collect();
        for (q, got) in queries.iter().zip(m.get_batch(&refs)) {
            assert_eq!(got.copied(), q.parse::<u32>().ok(), "{q}");
        }
    }

    #[test]
    fn degradation_migrates_incrementally_not_stop_the_world() {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..500u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
        }
        assert!((m.migration_progress() - 1.0).abs() < 1e-12);
        m.degrade_now();
        assert!(m.migration_in_flight(), "degrade opens an epoch");
        assert!(m.migration_progress() < 1.0);
        // Every key is visible mid-migration, from either epoch.
        for i in 0..500u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
            assert_eq!(m.get(key.as_str()), Some(&i), "{key} mid-migration");
        }
        // Mutating traffic drains the epoch a bounded stride at a time.
        let mut last = m.migration_progress();
        let mut i = 0u32;
        while m.migration_in_flight() {
            m.insert(format!("new-{i:05}"), i);
            let now = m.migration_progress();
            assert!(now >= last, "progress is monotone");
            last = now;
            i += 1;
        }
        assert!(i > 1, "the drain took more than one operation");
        for i in 0..500u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
            assert_eq!(m.get(key.as_str()), Some(&i), "{key} after drain");
        }
    }

    #[test]
    fn removals_reach_entries_still_in_the_old_epoch() {
        let mut m = guarded_ssn_map(sepe_core::Family::Pext);
        for i in 0..300u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
        }
        m.degrade_now();
        assert!(m.migration_in_flight());
        // Remove from the tail of the key space so some targets are still
        // in the old epoch when their removal arrives.
        for i in (0..300u32).rev() {
            let key = format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
            assert_eq!(m.remove(key.as_str()), Some(i), "{key}");
        }
        assert!(m.is_empty());
        assert!(!m.migration_in_flight(), "empty old epoch is dropped");
    }

    #[test]
    fn finish_migration_drains_explicitly() {
        let mut m = guarded_ssn_map(sepe_core::Family::Naive);
        for i in 0..200u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
        }
        m.degrade_now();
        m.migrate(7);
        assert!(m.migration_in_flight());
        m.finish_migration();
        assert!(!m.migration_in_flight());
        assert!((m.migration_progress() - 1.0).abs() < 1e-12);
        let total: usize = (0..m.bucket_count()).map(|b| m.bucket_len(b)).sum();
        assert_eq!(total, m.len(), "all entries re-filed in the live epoch");
    }

    #[test]
    fn growth_mid_migration_keeps_both_epochs_consistent() {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..100u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
        }
        m.degrade_now();
        // Force a live-epoch resize while most entries still sit in the old
        // epoch; old-epoch chains must survive untouched.
        m.rehash(4099);
        for i in 0..100u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
            assert_eq!(
                m.get(key.as_str()),
                Some(&i),
                "{key} after mid-migration rehash"
            );
        }
        m.finish_migration();
        for i in 0..100u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
            assert_eq!(m.get(key.as_str()), Some(&i), "{key} after drain");
        }
    }

    #[test]
    fn sliding_window_catches_drift_after_a_long_clean_prefix() {
        // Regression: with lifetime counters, 10 000 clean observations
        // pinned the off-rate so low that sustained 100% off-format traffic
        // could never push it over a 10% threshold until the table had
        // absorbed over a thousand bad keys. The windowed policy reacts
        // within ~one window regardless of history length.
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        let policy = DriftPolicy {
            threshold: 0.10,
            min_samples: 64,
            window: 512,
        };
        for i in 0..5_000u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
            assert!(!m.maybe_degrade(&policy), "clean traffic never trips");
        }
        let clean_total = m.drift_stats().total();
        let mut flipped_after = None;
        for i in 0..2_000u32 {
            m.insert(format!("drifted key {i}"), i);
            if m.maybe_degrade(&policy) {
                flipped_after = Some(i + 1);
                break;
            }
        }
        let flipped_after = flipped_after.expect("windowed policy must trip");
        // Lifetime rate at the flip stays under the threshold — the old
        // lifetime-counter policy would still be waiting.
        let stats = m.drift_stats();
        assert!(
            stats.off_rate() < policy.threshold,
            "lifetime rate {} should still be below the threshold (clean prefix {clean_total})",
            stats.off_rate()
        );
        assert!(
            u64::from(flipped_after) * 2 <= policy.window * 2,
            "trip came within ~one window of off-format traffic, got {flipped_after}"
        );
        assert_eq!(
            m.guard_mode(),
            GuardMode::Guarded,
            "the trip holds the route"
        );
        assert!(m.drift_trip().is_some());
    }

    #[test]
    fn read_only_lookups_drain_a_starving_migration() {
        // Regression: `RawTable::migrate` used to run only from mutating
        // ops, so a read-heavy table kept its old epoch (and paid the
        // dual-epoch probe) forever. Lookup-shaped calls with mutable
        // access now drain a small stride each.
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..300u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
        }
        m.degrade_now();
        assert!(m.migration_in_flight());
        let mut last = m.migration_progress();
        let mut lookups = 0u32;
        while m.migration_in_flight() && lookups < 100_000 {
            let key = format!(
                "{:03}-{:02}-{:04}",
                lookups % 1000,
                lookups % 100,
                lookups % 300
            );
            let _ = m.get_mut(key.as_str());
            let now = m.migration_progress();
            assert!(now >= last, "progress is monotone under lookups");
            last = now;
            lookups += 1;
        }
        assert!(
            !m.migration_in_flight(),
            "read-only traffic drained the epoch"
        );
        for i in 0..300u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
            assert_eq!(m.get(key.as_str()), Some(&i), "{key} after read drain");
        }
    }

    #[test]
    fn stale_reads_trigger_a_full_drain() {
        // Pure `&self` gets cannot drain, but they record starvation; once
        // the staleness threshold is crossed, the next drain opportunity
        // finishes the epoch outright instead of amortizing.
        let mut m = guarded_ssn_map(sepe_core::Family::Pext);
        for i in 0..200u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
        }
        m.degrade_now();
        assert!(m.migration_in_flight());
        assert_eq!(m.stale_reads(), 0);
        for round in 0..6u32 {
            for i in 0..200u32 {
                let key = format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
                assert_eq!(m.get(key.as_str()), Some(&i), "round {round} {key}");
            }
        }
        assert!(
            m.migration_in_flight(),
            "immutable gets alone cannot relink chains"
        );
        assert!(m.stale_reads() >= 1024, "starvation was recorded");
        m.drain_on_read();
        assert!(
            !m.migration_in_flight(),
            "a stale epoch is drained outright, not stride by stride"
        );
        assert_eq!(m.stale_reads(), 0, "counter resets with the epoch");
    }

    #[test]
    fn matches_std_hashmap_under_random_ops() {
        // Model-based check against std::collections::HashMap.
        let mut ours = map();
        let mut model: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        for step in 0..20_000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = format!("{:04}", (state >> 33) % 3000);
            match state % 3 {
                0 => {
                    assert_eq!(ours.insert(key.clone(), step), model.insert(key, step));
                }
                1 => {
                    assert_eq!(ours.get(&key), model.get(&key));
                }
                _ => {
                    assert_eq!(ours.remove(&key), model.remove(&key));
                }
            }
            assert_eq!(ours.len(), model.len());
        }
        let mut ours_sorted: Vec<(String, u32)> =
            ours.iter().map(|(k, v)| (k.clone(), *v)).collect();
        ours_sorted.sort();
        let mut model_sorted: Vec<(String, u32)> =
            model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        model_sorted.sort();
        assert_eq!(ours_sorted, model_sorted);
    }

    #[test]
    fn escalation_ladder_climbs_rung_by_rung() {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(0x5E9E);
        for i in 0..200u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 900, i % 90, i), i);
        }
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        // A storm takes one rung: the guarded route goes straight to keyed.
        m.escalate_now(&seeds);
        assert_eq!(m.guard_mode(), GuardMode::Keyed);
        let seed_before = m.hasher().current_seed();
        m.escalate_now(&seeds);
        assert_eq!(m.guard_mode(), GuardMode::Keyed);
        assert_ne!(m.hasher().current_seed(), seed_before, "rotation rung");
        assert_eq!(m.escalations(), 2);
        assert_eq!(m.seed_rotations(), 1);
        // Contents survive every rung; lookups probe both epochs.
        for i in 0..200u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 900, i % 90, i);
            assert_eq!(m.get(&key), Some(&i), "{key} lost during escalation");
        }
        m.finish_migration();
        assert_eq!(m.len(), 200);

        // From the drift rung `degrade_now` leaves, a storm also goes to
        // keyed in one step.
        let mut d = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..200u32 {
            d.insert(format!("{:03}-{:02}-{:04}", i % 900, i % 90, i), i);
        }
        d.degrade_now();
        assert_eq!(d.guard_mode(), GuardMode::Degraded);
        d.escalate_now(&seeds);
        assert_eq!(d.guard_mode(), GuardMode::Keyed);
        assert_eq!((d.escalations(), d.seed_rotations()), (1, 0));
        for i in 0..200u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 900, i % 90, i);
            assert_eq!(d.get(&key), Some(&i), "{key} lost during escalation");
        }
    }

    #[test]
    fn storm_trips_the_detector_and_quiet_rearms_it() {
        let mut m = guarded_ssn_map(sepe_core::Family::Pext);
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(7);
        let policy = AttackPolicy {
            min_len: 32,
            trip_streak: 2,
            quiet_streak: 2,
            ..AttackPolicy::default()
        };
        // Benign fill: detector stays quiet on every tick.
        for i in 0..200u32 {
            m.insert(format!("{:03}-{:02}-{:04}", i % 900, i % 90, i), i);
            assert!(!m.maybe_escalate(&policy, &seeds));
        }
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        // Flood one bucket, brute-forcing collisions against the live
        // (adversary-computable) hash — family-agnostic forgery.
        let target = m.hash_of(b"000-00-0000!") % m.bucket_count() as u64;
        let mut attack_keys = Vec::new();
        let mut i = 0u64;
        while attack_keys.len() < 48 {
            let key = format!("atk-{i:016x}");
            if m.hash_of(key.as_bytes()) % m.bucket_count() as u64 == target {
                m.insert(key.clone(), 0);
                attack_keys.push(key);
            }
            i += 1;
        }
        // First stormy tick arms the streak, second trips it.
        assert!(!m.maybe_escalate(&policy, &seeds));
        assert!(m.maybe_escalate(&policy, &seeds));
        assert_eq!(m.guard_mode(), GuardMode::Keyed);
        // The storm subsides: the crafted keys age out of the table and
        // the escalation migration drains. Quiet ticks then de-escalate.
        for key in &attack_keys {
            m.remove(key);
        }
        m.finish_migration();
        assert!(!m.maybe_deescalate(&policy));
        assert!(m.maybe_deescalate(&policy));
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        m.finish_migration();
        assert_eq!(m.escalations(), 1);
        assert_eq!(m.deescalations(), 1);
        // The drift counters were reset by the re-arm.
        assert_eq!(m.drift_stats().total(), 0);
    }

    #[test]
    fn degrading_from_the_keyed_rung_is_a_no_op() {
        // Regression: on the keyed rung `maybe_degrade` judged the drift
        // window frozen at escalation and degraded, filing the old epoch
        // under the guarded routing, so every stored key missed until
        // the epoch drained.
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(0x5E9E);
        let policy = DriftPolicy {
            threshold: 0.10,
            min_samples: 16,
            ..DriftPolicy::default()
        };
        let key = |i: u32| {
            if i % 10 < 3 {
                format!("off-format key {i}")
            } else {
                format!("{:03}-{:02}-{:04}", i % 900, i % 90, i)
            }
        };
        for i in 0..300u32 {
            m.insert(key(i), i);
        }
        m.escalate_now(&seeds);
        assert_eq!(m.guard_mode(), GuardMode::Keyed);
        m.finish_migration();
        assert!(!m.maybe_degrade(&policy), "no degrade from the keyed rung");
        m.degrade_now();
        assert_eq!(m.guard_mode(), GuardMode::Keyed);
        assert!(!m.migration_in_flight(), "no epoch opened");
        for i in 0..300u32 {
            assert_eq!(m.get(&key(i)), Some(&i), "{} lost", key(i));
        }
    }

    #[test]
    fn probe_tail_catches_a_flood_hidden_in_an_open_epoch() {
        // A flood filed before a migration epoch opened sits in the old
        // epoch's chains, where the live-epoch chain scan cannot see it;
        // lookups that keep hammering it while the epoch drains show up
        // only in the probe-length window. The epoch drains the arena
        // from its end, so the flood is filed before the residents, in
        // the slots that drain last.
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(7);
        let policy = AttackPolicy::default();
        m.reserve(4_200);
        let buckets = m.bucket_count() as u64;
        let target = m.hash_of(b"flood target") % buckets;
        let flood: Vec<String> = (0u64..)
            .map(|i| format!("atk-{i:016x}"))
            .filter(|k| m.hash_of(k.as_bytes()) % buckets == target)
            .take(64)
            .collect();
        for key in &flood {
            m.insert(key.clone(), 0);
        }
        let resident: Vec<String> = (0..4_000u32)
            .map(|i| format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i))
            .collect();
        for (i, key) in resident.iter().enumerate() {
            m.insert(key.clone(), i as u32);
        }
        assert_eq!(
            m.bucket_count() as u64,
            buckets,
            "no resize moved the flood"
        );
        m.degrade_now();
        assert!(m.migration_in_flight());
        // Start the probe window after the epoch opened.
        let signals = m.controller().exact_signals();
        assert!(
            signals.max_bucket_len < policy.min_chain,
            "the chain scan sees the flood: {signals:?}"
        );
        let mut escalated = false;
        for tick in 0..policy.trip_streak {
            for key in resident.iter().take(640) {
                assert!(m.get(key).is_some());
            }
            for key in &flood {
                assert_eq!(m.get(key), Some(&0));
            }
            assert!(m.migration_in_flight(), "tick {tick}: epoch still open");
            assert!(m.max_bucket_len() < policy.min_chain);
            escalated = m.maybe_escalate(&policy, &seeds);
        }
        assert!(escalated, "the probe tail tripped the detector");
        assert_eq!(m.guard_mode(), GuardMode::Keyed);
        assert_eq!(m.escalations(), 1);
    }

    #[test]
    fn calm_ticks_read_the_chain_bound_and_floods_trip_on_schedule() {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(7);
        let policy = AttackPolicy::default();
        let ssn = |i: u32| format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
        m.reserve(4_200);
        for i in 0..4_096u32 {
            m.insert(ssn(i), i);
        }
        let buckets = m.bucket_count();
        // The reserve resized an empty table, which keeps its bound of 0,
        // and every insert's miss raised it: even the first tick reads the
        // bound instead of walking, and the churn between ticks keeps it
        // an upper bound.
        let bound = m.chain_bound().expect("reserve and inserts keep the bound");
        assert!(bound >= m.max_bucket_len(), "bound {bound} after the fill");
        for tick in 0..100u32 {
            assert!(!m.maybe_escalate(&policy, &seeds), "calm tick {tick}");
            let bound = m.chain_bound().expect("known while no epoch is open");
            assert!(bound < policy.min_chain, "tick {tick}: bound {bound}");
            assert!(bound >= m.max_bucket_len(), "tick {tick}: bound {bound}");
            m.remove(&ssn(tick));
            m.insert(ssn(4_096 + tick), tick);
        }
        assert_eq!(m.bucket_count(), buckets, "no rehash reset the bound");

        let target = m.hash_of(b"flood target") % buckets as u64;
        let flood: Vec<String> = (0u64..)
            .map(|i| format!("atk-{i:016x}"))
            .filter(|k| m.hash_of(k.as_bytes()) % buckets as u64 == target)
            .take(64)
            .collect();
        for key in &flood {
            m.insert(key.clone(), 0);
        }
        assert!(m.chain_bound() >= Some(64), "the inserts raised the bound");
        assert!(!m.maybe_escalate(&policy, &seeds), "first stormy tick arms");
        // Removing the flood leaves a stale bound; one walk resets it.
        for key in &flood {
            m.remove(key);
        }
        assert!(m.chain_bound() >= Some(64), "removals leave the bound");
        assert!(!m.maybe_escalate(&policy, &seeds), "calm again");
        assert_eq!(m.chain_bound(), Some(m.max_bucket_len()));

        // A flood landing between two ticks trips on the second one, as
        // it did when every tick walked the table.
        for key in &flood {
            m.insert(key.clone(), 0);
        }
        assert!(!m.maybe_escalate(&policy, &seeds));
        assert!(m.maybe_escalate(&policy, &seeds));
        assert_eq!(m.guard_mode(), GuardMode::Keyed);
        assert!(m.migration_in_flight());
        let bound = m.chain_bound().expect("an open epoch keeps the bound");
        assert!(bound >= m.max_bucket_len(), "bound {bound} mid-drain");

        // The flood leaves; de-escalation follows after `quiet_streak`.
        for key in &flood {
            m.remove(key);
        }
        m.finish_migration();
        for tick in 1..policy.quiet_streak {
            assert!(!m.maybe_deescalate(&policy), "quiet tick {tick}");
            assert!(m.chain_bound() >= Some(m.max_bucket_len()));
        }
        assert!(m.maybe_deescalate(&policy));
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        assert_eq!((m.escalations(), m.deescalations()), (1, 1));

        // The re-arm opened an epoch; its drain keeps a bound at least the
        // walk. A burst into one live bucket, gone again before the tick,
        // leaves the bound above the walk, so a calm tick that kept the
        // bound read it instead of walking.
        assert!(m.migration_in_flight(), "the re-arm opened an epoch");
        let burst: Vec<String> = (0u64..)
            .map(|i| format!("burst-{i:016x}"))
            .filter(|k| m.hash_of(k.as_bytes()) % buckets as u64 == target)
            .take(policy.min_chain / 2)
            .collect();
        let mut ticks = 0u32;
        while m.migration_in_flight() {
            for key in &burst {
                m.insert(key.clone(), 0);
            }
            for key in &burst {
                m.remove(key);
            }
            let bound = m.chain_bound().expect("an open epoch keeps the bound");
            assert!(bound > m.max_bucket_len(), "tick {ticks}: bound {bound}");
            assert!(!m.maybe_escalate(&policy, &seeds), "calm tick {ticks}");
            assert_eq!(m.chain_bound(), Some(bound), "tick {ticks} walked");
            m.remove(&ssn(ticks));
            m.insert(ssn(8_192 + ticks), ticks);
            ticks += 1;
        }
        assert!(ticks > 1, "the drain spanned several ticks");
    }

    /// A guarded SSN map holding `n` resident SSNs plus a 64-key flood
    /// forged against its live routing (off-format keys, so the
    /// specialized, degraded and re-armed routings all pile them up).
    fn flooded_ssn_map(
        n: u32,
    ) -> (
        UnorderedMap<String, u32, GuardedHash<sepe_core::SynthesizedHash, StlHash>>,
        Vec<String>,
    ) {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        m.reserve(n as usize + 64);
        for i in 0..n {
            m.insert(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i), i);
        }
        let buckets = m.bucket_count() as u64;
        let target = m.hash_of(b"flood target") % buckets;
        let flood: Vec<String> = (0u64..)
            .map(|i| format!("atk-{i:016x}"))
            .filter(|k| m.hash_of(k.as_bytes()) % buckets == target)
            .take(64)
            .collect();
        for key in &flood {
            m.insert(key.clone(), 0);
        }
        (m, flood)
    }

    #[test]
    fn a_drift_degrade_is_left_only_by_resynthesis() {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(7);
        let (drift, attack) = (DriftPolicy::default(), AttackPolicy::default());
        let ssn = |i: u32| format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
        for i in 0..2_000u32 {
            m.insert(ssn(i), i);
        }
        for i in 0..400u32 {
            m.insert(format!("{:03}/{:02}/{:04}", i % 1000, i % 100, i), i);
        }
        assert!(m.maybe_degrade(&drift));
        assert_eq!(
            m.guard_mode(),
            GuardMode::Guarded,
            "the trip holds the route"
        );
        // Only an explicit degrade flips a drifting map to the fallback.
        m.degrade_now();
        assert_eq!(m.guard_mode(), GuardMode::Degraded);
        assert_eq!(m.drift_trip(), None, "the flip clears the held trip");
        // Calm ticks see no storm, and the degraded hasher counts no
        // drift: neither signal can say the drift is over.
        for tick in 0..64u32 {
            m.remove(&ssn(tick));
            m.insert(ssn(tick), tick);
            assert!(!m.maybe_degrade(&drift), "tick {tick}");
            assert!(!m.maybe_escalate(&attack, &seeds), "tick {tick}");
            assert!(
                !m.maybe_deescalate(&attack),
                "tick {tick} left the drift rung"
            );
            assert_eq!(m.guard_mode(), GuardMode::Degraded, "tick {tick}");
        }
        assert_eq!((m.escalations(), m.deescalations()), (0, 0));
        // The reservoir kept the drifted keys sampled before the degrade.
        assert!(m.resynthesize().is_applied());
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        assert!(m.hasher().guard().matches(b"123/45/6789"));
        for tick in 0..8u32 {
            assert!(!m.maybe_deescalate(&attack), "guarded tick {tick}");
        }
        for i in 0..2_000u32 {
            assert_eq!(m.get(&ssn(i)), Some(&i), "{}", ssn(i));
        }
        for i in 0..400u32 {
            let key = format!("{:03}/{:02}/{:04}", i % 1000, i % 100, i);
            assert_eq!(m.get(&key), Some(&i), "{key}");
        }
    }

    #[test]
    fn a_storm_rung_holds_while_its_flood_is_resident() {
        let (mut m, flood) = flooded_ssn_map(4_000);
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(7);
        let policy = AttackPolicy::default();
        for _ in 0..8 {
            if m.guard_mode() == GuardMode::Keyed {
                break;
            }
            m.maybe_escalate(&policy, &seeds);
            m.finish_migration();
        }
        assert_eq!(m.guard_mode(), GuardMode::Keyed);
        assert_eq!(m.escalations(), 1, "guarded, then keyed in one step");
        // The keyed rung spreads the flood, so every tick is quiet; but
        // the guarded routing it would return to piles the flood up again.
        for tick in 0..64u32 {
            assert!(!m.maybe_escalate(&policy, &seeds), "tick {tick}");
            assert!(
                !m.maybe_deescalate(&policy),
                "tick {tick} re-armed onto the flood"
            );
        }
        assert_eq!(m.guard_mode(), GuardMode::Keyed);
        assert_eq!(
            m.maint.hold(),
            MAX_HOLD_DOUBLINGS,
            "each failed check doubled"
        );
        for key in &flood {
            assert_eq!(m.remove(key), Some(0));
        }
        let streak = policy.quiet_streak << MAX_HOLD_DOUBLINGS;
        let after = (1..=streak).find(|_| m.maybe_deescalate(&policy));
        assert!(after.is_some(), "no re-arm within one {streak}-tick streak");
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        assert_eq!((m.escalations(), m.deescalations()), (1, 1));
        assert_eq!(m.maint.hold(), 0, "the transition reset the hold");
        m.finish_migration();
        assert_eq!(m.len(), 4_000);
        for i in 0..4_000u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
            assert_eq!(m.get(&key), Some(&i), "{key}");
        }
    }

    #[test]
    fn the_hold_check_stops_early_with_the_full_counts_verdict() {
        let policy = AttackPolicy::default();
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(7);
        let ssn = |i: u32| format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
        let residents: Vec<String> = (0..2_000).map(ssn).collect();
        let build = || {
            let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
            m.reserve(2_000 + 64);
            m
        };
        let guarded = build().hasher().epoch_frozen(GuardMode::Guarded);
        let buckets = build().bucket_count() as u64;
        let bucket = |k: &str| guarded.hash_bytes(k.as_bytes()) % buckets;
        let target = bucket("flood target");
        let base = residents.iter().filter(|k| bucket(k) == target).count();
        let floods: Vec<String> = (0u64..)
            .map(|i| format!("atk-{i:016x}"))
            .filter(|k| bucket(k) == target)
            .take(64)
            .collect();
        // Flood first (the newest-first scan meets it last), interleaved,
        // and last; target chains of `min_chain - 1` and `min_chain`.
        let near = policy.min_chain - base;
        for at in [0, 1_000, 2_000] {
            for size in [0, 16, near - 1, near, 64] {
                let mut m = build();
                let mut keys = residents.clone();
                keys.splice(at..at, floods[..size].iter().cloned());
                for (i, key) in keys.into_iter().enumerate() {
                    m.insert(key, i as u32);
                }
                assert_eq!(m.bucket_count() as u64, buckets);
                m.escalate_now(&seeds);
                m.finish_migration();
                // Start the probe window here: the flood's own inserts
                // walked its chain, and that tail would read as a storm.
                m.controller().exact_signals();
                let full = m.table.longest_chain_under(&guarded);
                if size > 0 {
                    assert_eq!(full, base + size, "the flood's bucket is the longest");
                }
                let held = policy.chain_skewed(full, m.len(), m.bucket_count());
                assert_eq!(
                    held,
                    base + size >= policy.min_chain,
                    "at {at}, {size} keys"
                );
                let ticks: Vec<bool> = (0..policy.quiet_streak)
                    .map(|_| m.maybe_deescalate(&policy))
                    .collect();
                let last = ticks.len() - 1;
                assert!(!ticks[..last].contains(&true), "at {at}, {size} keys");
                assert_eq!(ticks[last], !held, "at {at}, {size} keys: chain {full}");
                assert_eq!(m.maint.hold(), u32::from(held));
            }
        }
    }

    #[test]
    fn a_storm_rung_above_a_drift_degrade_rearms_and_clears_the_reservoir() {
        let (mut m, flood) = flooded_ssn_map(2_000);
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(7);
        let policy = AttackPolicy::default();
        // The flood keys are off-format, so the reservoir sampled them.
        assert!(!m.hasher().reservoir_keys().is_empty());
        m.degrade_now();
        m.finish_migration();
        for _ in 0..policy.trip_streak {
            m.maybe_escalate(&policy, &seeds);
        }
        assert_eq!(
            m.guard_mode(),
            GuardMode::Keyed,
            "the storm climbs past the drift rung"
        );
        for key in &flood {
            m.remove(key);
        }
        m.finish_migration();
        let after = (1..=policy.quiet_streak).find(|_| m.maybe_deescalate(&policy));
        assert!(after.is_some(), "quiet with the flood gone re-arms");
        assert_eq!(m.guard_mode(), GuardMode::Guarded);
        assert!(
            m.hasher().reservoir_keys().is_empty(),
            "attack samples dropped"
        );
        assert_eq!((m.escalations(), m.deescalations()), (1, 1));
    }

    #[test]
    fn a_degrade_sweep_survives_removes_reserve_and_clear() {
        let ssn = |i: u32| format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i);
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..4000u32 {
            m.insert(ssn(i), i);
        }
        m.degrade_now();
        m.migrate(500);
        let mid = m.migration_progress();
        assert!(m.migration_in_flight() && mid > 0.0);
        // Swept (low) and unswept (high) entries leave alike.
        for i in (0..4000u32).step_by(31) {
            assert_eq!(m.remove(ssn(i).as_str()), Some(i), "{i}");
        }
        m.reserve(8000);
        assert!(m.migration_in_flight(), "a resize keeps the epoch open");
        assert!(m.migration_progress() >= mid, "progress is monotone");
        for i in 4000..4050u32 {
            m.insert(ssn(i), i);
        }
        for i in 0..4050u32 {
            let want = (i % 31 != 0 || i >= 4000).then_some(i);
            assert_eq!(m.get(ssn(i).as_str()).copied(), want, "{i}");
        }
        assert!(m.migration_in_flight());
        assert!(m.chain_bound().is_none_or(|b| b >= m.max_bucket_len()));
        m.clear();
        assert!(!m.migration_in_flight() && m.is_empty());
        m.insert(ssn(1), 1);
        assert_eq!(m.get(ssn(1).as_str()), Some(&1));
    }

    type GuardedMap = UnorderedMap<String, u32, GuardedHash<sepe_core::SynthesizedHash, StlHash>>;

    /// A guarded SSN map of `len` keys, then a degrade epoch over them.
    fn degraded_ssn_map(len: u32) -> GuardedMap {
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..len {
            m.insert(ssn_key(i), i);
        }
        m.degrade_now();
        assert!(m.migration_in_flight());
        m
    }

    fn ssn_key(i: u32) -> String {
        format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i)
    }

    /// Entries still filed in an epoch opened over `len` entries, with
    /// nothing inserted or removed since.
    fn left_in_epoch(m: &GuardedMap, len: u32) -> usize {
        ((1.0 - m.migration_progress()) * f64::from(len)).round() as usize
    }

    /// `n` hits, each counted on the maintenance clock while an epoch is
    /// open.
    fn serve_gets(m: &GuardedMap, len: u32, n: u32) {
        for i in 0..n {
            assert_eq!(m.get(ssn_key(i % len).as_str()), Some(&(i % len)));
        }
    }

    #[test]
    fn read_only_ticked_traffic_closes_its_epoch() {
        // Regression: `get` takes `&self` and never drains, and no
        // maintenance call drained either, so a ticked map that served
        // only reads after a degrade kept its epoch open for good.
        let len = 3000u32;
        let window = 64u32;
        let mut m = degraded_ssn_map(len);
        let (policy, seeds) = (
            AttackPolicy::default(),
            sepe_core::hash::keyed::FixedSeedSource::new(7),
        );
        let bound = (len as usize).div_ceil(DRAIN_PER_OP * window as usize) + 1;
        let mut ticks = 0;
        while m.migration_in_flight() && ticks <= bound {
            serve_gets(&m, len, window);
            m.maybe_escalate(&policy, &seeds);
            m.maybe_deescalate(&policy);
            ticks += 1;
        }
        assert!(!m.migration_in_flight(), "still open after {ticks} ticks");
        assert!(ticks <= bound, "{ticks} ticks, bound {bound}");
        serve_gets(&m, len, len);
    }

    #[test]
    fn two_judgments_in_one_tick_drain_once() {
        let len = 3000u32;
        let mut m = degraded_ssn_map(len);
        let (policy, seeds) = (
            AttackPolicy::default(),
            sepe_core::hash::keyed::FixedSeedSource::new(7),
        );
        serve_gets(&m, len, 50);
        m.maybe_escalate(&policy, &seeds);
        let left = len as usize - 50 * DRAIN_PER_OP;
        assert_eq!(
            left_in_epoch(&m, len),
            left,
            "the first judgment drains the share"
        );
        m.maybe_deescalate(&policy);
        m.maybe_degrade(&DriftPolicy::default());
        assert_eq!(left_in_epoch(&m, len), left, "later judgments owe nothing");
    }

    #[test]
    fn a_late_tick_drains_only_the_share_of_ops_since_the_epoch_opened() {
        let len = 3000u32;
        let mut m = guarded_ssn_map(sepe_core::Family::OffXor);
        for i in 0..len {
            m.insert(ssn_key(i), i);
        }
        // Calm reads before any epoch never reach the clock.
        serve_gets(&m, len, 500);
        m.degrade_now();
        serve_gets(&m, len, 20);
        // The escalation finishes the degrade epoch and opens its own; the
        // reads served inside the first one are not owed to the second.
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(7);
        m.escalate_now(&seeds);
        assert!(m.migration_in_flight());
        serve_gets(&m, len, 10);
        m.maybe_escalate(&AttackPolicy::default(), &seeds);
        assert_eq!(left_in_epoch(&m, len), len as usize - 10 * DRAIN_PER_OP);
    }
}
