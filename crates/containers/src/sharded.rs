//! Lock-striped concurrent containers: [`ShardedMap`] and [`ShardedSet`].
//!
//! A [`ShardedMap`] splits a guarded [`UnorderedMap`] into `N` independent
//! shards, each behind its own [`RwLock`]. The shard for a key is chosen by
//! the **high bits of a routing hash**, so the low bits — the ones the
//! modulo bucket policy consumes — stay fully mixed within every shard.
//!
//! Two design points keep the sharding correct under drift:
//!
//! * **The router never moves.** Routing goes through an epoch-frozen,
//!   counter-silent copy of the guarded hasher pinned to
//!   [`GuardMode::Guarded`]. A live guarded hash changes its output when a
//!   shard escalates or resynthesizes; if shard selection followed it, a
//!   transition would silently re-route keys to a *different* shard and
//!   orphan everything already stored. The frozen router hashes every key
//!   the same way forever, and it bumps no drift counters, so routing is
//!   invisible to the drift policies.
//! * **Each shard drifts alone.** Every shard owns a
//!   [`detached`](GuardedHash::detached) copy of the hasher — same guard
//!   and hash functions, private statistics, mode, and reservoir. One
//!   shard's off-format burst trips *that shard's* drift window only, and
//!   its resynthesis (or an escalation) re-files that shard only;
//!   its siblings keep their plans and counters, which is the entire
//!   point of bounding the blast radius of drift.
//!
//! Reads take a shard read lock; writes take the shard write lock. Batched
//! operations group keys by shard first, lock each touched shard once, and
//! reuse the single-shard batch kernels (one [`HashBatch`] call and one
//! prefetch sweep per chunk) inside the lock.

use crate::maintenance::{Controller, Transition};
use crate::map::UnorderedMap;
use crate::policy::{AttackPolicy, BucketPolicy, DriftPolicy};
use sepe_core::guard::{GuardMode, GuardedHash};
use sepe_core::hash::keyed::SeedSource;
use sepe_core::hash::{ByteHash, HashBatch};
use sepe_obs::{Counter, EventTrace, ObsEvent};
use std::borrow::Borrow;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Maximum shard count: 64 shards consume 6 high hash bits, leaving 58
/// well-mixed bits for bucket indexing inside each shard.
pub const MAX_SHARDS: usize = 64;

/// Ring capacity for a sharded map's transition event trace: generous
/// for `MAX_SHARDS` shards tripping and re-arming many times over.
const SHARD_EVENT_CAPACITY: usize = 1024;

/// One shard's lock acquisitions, on cache lines of their own: client
/// threads locking different shards bump different lines, so no line
/// bounces between their cores.
#[derive(Debug, Default)]
#[repr(align(128))]
struct LockCounts {
    /// Read locks taken (including non-blocking upgrade probes).
    read: Counter,
    /// Write locks taken.
    write: Counter,
}

/// Map-wide observability: lock acquisitions and a bounded trace of
/// per-shard drift trips and transition events. Shared handles so an
/// exported [`sepe_obs::Registry`] reads live values. The ladder counts
/// are the shards' own table counters, not kept here.
#[derive(Debug)]
struct ShardObs {
    /// Each shard's lock counts; the exported totals are their sums.
    locks: Arc<[LockCounts]>,
    /// Drift-trip and ladder transition events, oldest first.
    events: Arc<EventTrace<ObsEvent>>,
}

impl ShardObs {
    fn new(shards: usize) -> Self {
        ShardObs {
            locks: (0..shards).map(|_| LockCounts::default()).collect(),
            events: Arc::new(EventTrace::new(SHARD_EVENT_CAPACITY)),
        }
    }
}

/// A lock-striped concurrent hash map over guarded hashers.
///
/// All operations take `&self`; interior mutability lives in the per-shard
/// [`RwLock`]s, so a `ShardedMap` can be shared across threads (it is
/// `Send + Sync` whenever its pieces are).
///
/// # Examples
///
/// ```
/// use sepe_baselines::StlHash;
/// use sepe_containers::ShardedMap;
/// use sepe_core::guard::GuardedHash;
/// use sepe_core::hash::SynthesizedHash;
/// use sepe_core::regex::Regex;
/// use sepe_core::synth::Family;
///
/// let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}")?;
/// let hash = SynthesizedHash::from_pattern(&pattern, Family::Pext);
/// let guarded = GuardedHash::new(&pattern, hash, StlHash::new());
/// let map = ShardedMap::with_hasher(guarded, 8);
///
/// std::thread::scope(|s| {
///     for t in 0..4u32 {
///         let map = &map;
///         s.spawn(move || {
///             for i in (t..100).step_by(4) {
///                 map.insert(format!("{:03}-{:02}-{:04}", i, i % 100, i), i);
///             }
///         });
///     }
/// });
/// assert_eq!(map.len(), 100);
/// assert_eq!(map.get("007-07-0007"), Some(7));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ShardedMap<K, V, F, G> {
    /// Epoch-frozen, silent, `Guarded`-pinned router (see module docs).
    router: GuardedHash<F, G>,
    shards: Box<[Shard<K, V, F, G>]>,
    /// `log2(shards.len())`; shard index = top `shard_bits` of the hash.
    shard_bits: u32,
    obs: ShardObs,
}

/// One lock-striped shard: a self-healing map behind its own `RwLock`.
type Shard<K, V, F, G> = RwLock<UnorderedMap<K, V, GuardedHash<F, G>>>;

impl<K, V, F, G> ShardedMap<K, V, F, G>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash + Clone,
    G: ByteHash + Clone,
{
    /// Creates an empty map striped across `shards` locks (rounded up to a
    /// power of two, clamped to `1..=`[`MAX_SHARDS`]), with modulo bucket
    /// indexing inside each shard.
    pub fn with_hasher(hasher: GuardedHash<F, G>, shards: usize) -> Self {
        Self::with_hasher_and_policy(hasher, shards, BucketPolicy::Modulo)
    }

    /// As [`ShardedMap::with_hasher`], with an explicit bucket-index policy
    /// for the shards.
    pub fn with_hasher_and_policy(
        hasher: GuardedHash<F, G>,
        shards: usize,
        policy: BucketPolicy,
    ) -> Self {
        let count = shards.clamp(1, MAX_SHARDS).next_power_of_two();
        let shards: Vec<_> = (0..count)
            .map(|_| {
                RwLock::new(UnorderedMap::with_hasher_and_policy(
                    hasher.detached(),
                    policy,
                ))
            })
            .collect();
        ShardedMap {
            router: hasher.epoch_frozen(GuardMode::Guarded),
            shards: shards.into_boxed_slice(),
            shard_bits: count.trailing_zeros(),
            obs: ShardObs::new(count),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of_hash(&self, hash: u64) -> usize {
        if self.shard_bits == 0 {
            0 // `hash >> 64` would overflow the shift, not return 0.
        } else {
            (hash >> (64 - self.shard_bits)) as usize
        }
    }

    /// The shard index `key` routes to — stable for the lifetime of the
    /// map, across shard escalations and resynthesis.
    #[inline]
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.shard_of_hash(self.router.hash_bytes(key))
    }

    #[inline]
    fn read(&self, i: usize) -> RwLockReadGuard<'_, UnorderedMap<K, V, GuardedHash<F, G>>> {
        // A poisoned shard saw a panic mid-operation; its chains are still
        // structurally sound (no unsafe in the table), so recover rather
        // than cascade the panic through every thread touching the map.
        self.obs.locks[i].read.inc();
        self.shards[i]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[inline]
    fn write(&self, i: usize) -> RwLockWriteGuard<'_, UnorderedMap<K, V, GuardedHash<F, G>>> {
        self.obs.locks[i].write.inc();
        self.shards[i]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Total number of pairs across all shards. Taken shard by shard, so
    /// under concurrent writers the value is a moment-to-moment estimate.
    pub fn len(&self) -> usize {
        self.sum(UnorderedMap::len)
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        (0..self.shards.len()).all(|i| self.read(i).is_empty())
    }

    /// Inserts a pair, returning the previous value for an equal key.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        let idx = self.shard_of(key.as_ref());
        self.write(idx).insert(key, value)
    }

    /// Looks up a key, cloning the value out (references cannot outlive
    /// the shard lock).
    ///
    /// When the shard has a migration epoch in flight, the lookup also
    /// tries a non-blocking write-lock upgrade afterwards and drains the
    /// few entries a write pays ([`UnorderedMap::drain_on_read`]) — read-heavy
    /// workloads converge out of the dual-epoch state instead of paying
    /// the double probe forever, but never block behind other readers.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
        V: Clone,
    {
        let idx = self.shard_of(key.as_ref().as_ref());
        let (hit, migrating) = {
            let shard = self.read(idx);
            (shard.get(key).cloned(), shard.migration_in_flight())
        };
        if migrating {
            if let Ok(mut shard) = self.shards[idx].try_write() {
                shard.drain_on_read();
            }
        }
        hit
    }

    /// Whether the map contains `key`.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        let idx = self.shard_of(key.as_ref().as_ref());
        self.read(idx).contains_key(key)
    }

    /// Removes a key, returning its value.
    pub fn remove<Q>(&self, key: &Q) -> Option<V>
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        let idx = self.shard_of(key.as_ref().as_ref());
        self.write(idx).remove(key)
    }

    /// Removes every pair from every shard.
    pub fn clear(&self) {
        for i in 0..self.shards.len() {
            self.write(i).clear();
        }
    }

    /// Calls `f` on every pair, shard by shard in shard order (arena order
    /// within a shard). Holds one shard read lock at a time.
    pub fn for_each<Func>(&self, mut f: Func)
    where
        Func: FnMut(&K, &V),
    {
        for i in 0..self.shards.len() {
            let shard = self.read(i);
            for (k, v) in shard.iter() {
                f(k, v);
            }
        }
    }

    /// Σ over all shards of the paper's bucket-collision count.
    pub fn bucket_collisions(&self) -> u64 {
        self.sum(UnorderedMap::bucket_collisions)
    }

    /// Lifetime drift counters summed across shards: `(in_format,
    /// off_format)`. The router is silent, so these match what a single
    /// unsharded map would have counted for the same operations.
    pub fn drift_counts(&self) -> (u64, u64) {
        let mut in_f = 0u64;
        let mut off_f = 0u64;
        for i in 0..self.shards.len() {
            let shard = self.read(i);
            let stats = shard.drift_stats();
            in_f = in_f.saturating_add(stats.in_format());
            off_f = off_f.saturating_add(stats.off_format());
        }
        (in_f, off_f)
    }

    /// Stale reads recorded across shards (see
    /// [`UnorderedMap::stale_reads`]).
    pub fn stale_reads(&self) -> u64 {
        self.sum(UnorderedMap::stale_reads)
    }

    /// The routing mode of shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn shard_mode(&self, i: usize) -> GuardMode {
        self.read(i).guard_mode()
    }

    /// The bucket count of shard `i`'s live epoch — a diagnostic for
    /// harnesses and capacity planning (the adversarial suite uses it to
    /// craft worst-case key streams with full knowledge of the layout).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn shard_bucket_count(&self, i: usize) -> usize {
        self.read(i).bucket_count()
    }

    /// The longest live bucket chain in shard `i` — the per-shard twin of
    /// [`UnorderedMap::max_bucket_len`], and the detector's skew signal.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn shard_max_bucket_len(&self, i: usize) -> usize {
        self.read(i).max_bucket_len()
    }

    /// Shard `i`'s held drift trip, `(off_format, total)` of the window
    /// that tripped (see [`UnorderedMap::drift_trip`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn shard_drift_trip(&self, i: usize) -> Option<(u64, u64)> {
        self.read(i).drift_trip()
    }

    /// Applies `policy` to each shard's *own* windowed drift counters.
    /// A shard whose window exceeds it trips and holds its guarded route
    /// (see [`UnorderedMap::maybe_degrade`]): no routing changes and no
    /// epoch opens, so the trip is recorded as an [`ObsEvent::ShardDrift`]
    /// carrying the window's counts. Returns how many shards tripped
    /// during this call.
    pub fn maybe_degrade(&self, policy: &DriftPolicy) -> usize {
        (0..self.shards.len())
            .filter(|&i| self.transition(i, |c| c.maybe_degrade(policy)))
            .count()
    }

    /// Takes one upward escalation rung on shard `i` — see
    /// [`UnorderedMap::escalate_now`] for the ladder — leaving its
    /// siblings untouched. The per-shard blast radius that bounds drift
    /// bounds HashDoS escalation the same way: a flood aimed at one shard
    /// re-keys that shard only.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn escalate_shard(&self, i: usize, seeds: &impl SeedSource) {
        self.transition(i, |c| Some(c.escalate(seeds)));
    }

    /// Applies `policy` to each shard's own collision-storm signals,
    /// escalating the shards whose streaks tripped it. Returns how many
    /// shards escalated during this call.
    pub fn maybe_escalate(&self, policy: &AttackPolicy, seeds: &impl SeedSource) -> usize {
        (0..self.shards.len())
            .filter(|&i| self.transition(i, |c| c.maybe_escalate(policy, seeds)))
            .count()
    }

    /// Counts one calm observation per shard and de-escalates the shards
    /// whose quiet streaks satisfied `policy`. Returns how many shards
    /// re-armed during this call.
    pub fn maybe_deescalate(&self, policy: &AttackPolicy) -> usize {
        (0..self.shards.len())
            .filter(|&i| self.transition(i, |c| c.maybe_deescalate(policy)))
            .count()
    }

    /// Runs `call` on shard `i` under its write lock; after the lock is
    /// released, records its transition, if it took one.
    fn transition(
        &self,
        i: usize,
        call: impl FnOnce(Controller<'_, K, V, F, G>) -> Option<Transition>,
    ) -> bool {
        let Some(t) = call(self.write(i).controller()) else {
            return false;
        };
        let shard = i as u64;
        let event = match t {
            Transition::Drift { off_format, total } => ObsEvent::ShardDrift {
                shard,
                off_format,
                total,
            },
            Transition::Escalate => ObsEvent::ShardEscalate { shard },
            Transition::Rotate => ObsEvent::SeedRotation { shard },
            Transition::Deescalate => ObsEvent::ShardDeescalate { shard },
            Transition::Resynth => return true,
        };
        self.obs.events.push(event);
        true
    }

    /// `f` summed over the shards, one read lock at a time.
    fn sum<T: std::iter::Sum>(&self, f: impl Fn(&UnorderedMap<K, V, GuardedHash<F, G>>) -> T) -> T {
        (0..self.shards.len()).map(|i| f(&self.read(i))).sum()
    }

    /// Lifetime count of escalation rungs taken across shards: the sum of
    /// the shards' `table_escalations`.
    pub fn shard_escalation_count(&self) -> u64 {
        self.sum(UnorderedMap::escalations)
    }

    /// Lifetime count of quiet-window de-escalations across shards: the
    /// sum of the shards' `table_deescalations`.
    pub fn shard_deescalation_count(&self) -> u64 {
        self.sum(UnorderedMap::deescalations)
    }

    /// Lifetime count of keyed-rung seed rotations across shards: the sum
    /// of the shards' `table_seed_rotations`.
    pub fn shard_seed_rotation_count(&self) -> u64 {
        self.sum(UnorderedMap::seed_rotations)
    }

    /// Advances in-flight migrations by up to `budget` entries total,
    /// split evenly across the shards still draining. A budget smaller
    /// than the number of draining shards drains one entry in each of the
    /// first `budget` of them; `migrate(0)` does nothing.
    pub fn migrate(&self, budget: usize) {
        let draining: Vec<usize> = (0..self.shards.len())
            .filter(|&i| self.read(i).migration_in_flight())
            .collect();
        if draining.is_empty() {
            return;
        }
        let per_shard = (budget / draining.len()).max(1);
        for i in draining.into_iter().take(budget) {
            self.write(i).migrate(per_shard);
        }
    }

    /// Drains every in-flight migration completely.
    pub fn finish_migrations(&self) {
        for i in 0..self.shards.len() {
            self.write(i).finish_migration();
        }
    }

    /// How many shards currently have a migration epoch in flight.
    pub fn migrations_in_flight(&self) -> usize {
        self.sum(|s| usize::from(s.migration_in_flight()))
    }

    /// Mean migration progress across shards: 1.0 when fully drained
    /// (idle shards count as 1.0, matching
    /// [`UnorderedMap::migration_progress`]).
    pub fn migration_progress(&self) -> f64 {
        self.sum(UnorderedMap::migration_progress) / self.shards.len() as f64
    }

    /// The recorded per-shard events ([`ObsEvent::ShardDrift`],
    /// escalations, rotations and de-escalations), oldest first.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.obs.events.snapshot()
    }

    /// Registers the map-wide families (`shard_read_locks`,
    /// `shard_write_locks`) plus, per shard `i` under
    /// label `shard="i"`, the shard's table metrics and guard drift
    /// counters (see [`UnorderedMap::export_metrics`]).
    ///
    /// Takes each shard's read lock once to reach its shared handles;
    /// snapshots afterwards read live values without locking shards.
    ///
    /// # Errors
    ///
    /// Propagates [`sepe_obs::RegistryError`] on duplicate registration
    /// (export each map into its own registry, or label them apart).
    pub fn export_metrics(
        &self,
        registry: &sepe_obs::Registry,
    ) -> Result<(), sepe_obs::RegistryError> {
        let locks = self.obs.locks.clone();
        registry.export_counter("shard_read_locks", &[], move || {
            locks.iter().fold(0, |n, l| n.saturating_add(l.read.get()))
        })?;
        let locks = self.obs.locks.clone();
        registry.export_counter("shard_write_locks", &[], move || {
            locks.iter().fold(0, |n, l| n.saturating_add(l.write.get()))
        })?;
        for i in 0..self.shards.len() {
            let label = i.to_string();
            let labels = [("shard", label.as_str())];
            self.read(i).export_metrics(registry, &labels)?;
        }
        Ok(())
    }
}

impl<K, V, F, G> ShardedMap<K, V, F, G>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash + Clone,
    G: ByteHash + Clone,
    GuardedHash<F, G>: HashBatch,
{
    /// Batched lookup across shards: routes all keys first, then locks
    /// each touched shard once and runs the single-shard batch kernel
    /// (chunked [`HashBatch`] hashing + bucket prefetch) inside the lock.
    /// `result[i]` corresponds to `keys[i]`, as if by [`ShardedMap::get`].
    pub fn get_batch(&self, keys: &[&[u8]]) -> Vec<Option<V>>
    where
        V: Clone,
    {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (pos, key) in keys.iter().enumerate() {
            by_shard[self.shard_of(key)].push(pos);
        }
        let mut results: Vec<Option<V>> = vec![None; keys.len()];
        for (idx, positions) in by_shard.iter().enumerate() {
            if positions.is_empty() {
                continue;
            }
            let shard_keys: Vec<&[u8]> = positions.iter().map(|&p| keys[p]).collect();
            let migrating = {
                let shard = self.read(idx);
                for (&pos, value) in positions.iter().zip(shard.get_batch(&shard_keys)) {
                    results[pos] = value.cloned();
                }
                shard.migration_in_flight()
            };
            if migrating {
                if let Ok(mut shard) = self.shards[idx].try_write() {
                    shard.drain_on_read();
                }
            }
        }
        results
    }

    /// Batched insert across shards: groups pairs by shard (preserving
    /// batch order within each shard, so duplicate keys resolve exactly as
    /// sequential [`ShardedMap::insert`] calls would), locks each touched
    /// shard once, and runs the single-shard batch kernel. `result[i]` is
    /// the previous value for `pairs[i].0`.
    pub fn insert_batch(&self, pairs: Vec<(K, V)>) -> Vec<Option<V>> {
        let total = pairs.len();
        let mut by_shard: Vec<Vec<(usize, (K, V))>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (pos, pair) in pairs.into_iter().enumerate() {
            let idx = self.shard_of(pair.0.as_ref());
            by_shard[idx].push((pos, pair));
        }
        let mut results: Vec<Option<V>> = Vec::with_capacity(total);
        results.resize_with(total, || None);
        for (idx, group) in by_shard.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let (positions, shard_pairs): (Vec<usize>, Vec<(K, V)>) = group.into_iter().unzip();
            let mut shard = self.write(idx);
            for (pos, prev) in positions.into_iter().zip(shard.insert_batch(shard_pairs)) {
                results[pos] = prev;
            }
        }
        results
    }
}

impl<K, V, G> ShardedMap<K, V, sepe_core::SynthesizedHash, G>
where
    K: Eq + AsRef<[u8]>,
    G: ByteHash + Clone,
{
    /// Re-synthesizes shard `i` inline, under the shard write lock (see
    /// [`UnorderedMap::resynthesize`]). Synthesis is one linear pass over
    /// the widened pattern, so the lock is held for microseconds; stored
    /// entries move to the new plan incrementally through a migration
    /// epoch. Other shards keep serving throughout.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn resynthesize_shard(&self, i: usize) -> sepe_core::Resynth {
        self.write(i).resynthesize()
    }
}

/// A lock-striped concurrent hash set: a [`ShardedMap`] with unit values.
///
/// # Examples
///
/// ```
/// use sepe_baselines::StlHash;
/// use sepe_containers::ShardedSet;
/// use sepe_core::guard::GuardedHash;
/// use sepe_core::hash::SynthesizedHash;
/// use sepe_core::regex::Regex;
/// use sepe_core::synth::Family;
///
/// let pattern = Regex::compile(r"\d{4}")?;
/// let hash = SynthesizedHash::from_pattern(&pattern, Family::OffXor);
/// let set = ShardedSet::with_hasher(GuardedHash::new(&pattern, hash, StlHash::new()), 4);
/// assert!(set.insert("1234".to_owned()));
/// assert!(!set.insert("1234".to_owned()));
/// assert!(set.contains("1234"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ShardedSet<K, F, G> {
    inner: ShardedMap<K, (), F, G>,
}

impl<K, F, G> ShardedSet<K, F, G>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash + Clone,
    G: ByteHash + Clone,
{
    /// Creates an empty set striped across `shards` locks (rounded up to a
    /// power of two, clamped to `1..=`[`MAX_SHARDS`]).
    pub fn with_hasher(hasher: GuardedHash<F, G>, shards: usize) -> Self {
        ShardedSet {
            inner: ShardedMap::with_hasher(hasher, shards),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    /// The shard index `key` routes to.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.inner.shard_of(key)
    }

    /// Number of elements across all shards.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inserts an element; returns whether it was newly added.
    pub fn insert(&self, key: K) -> bool {
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
    pub fn remove<Q>(&self, key: &Q) -> bool
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.inner.remove(key).is_some()
    }

    /// Removes every element.
    pub fn clear(&self) {
        self.inner.clear();
    }

    /// Lifetime drift counters summed across shards: `(in_format,
    /// off_format)`.
    pub fn drift_counts(&self) -> (u64, u64) {
        self.inner.drift_counts()
    }

    /// Applies `policy` per shard; returns how many shards tripped (see
    /// [`ShardedMap::maybe_degrade`]).
    pub fn maybe_degrade(&self, policy: &DriftPolicy) -> usize {
        self.inner.maybe_degrade(policy)
    }

    /// Drains every in-flight migration completely.
    pub fn finish_migrations(&self) {
        self.inner.finish_migrations();
    }

    /// Mean migration progress across shards.
    pub fn migration_progress(&self) -> f64 {
        self.inner.migration_progress()
    }
}

impl<K, F, G> ShardedSet<K, F, G>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash + Clone,
    G: ByteHash + Clone,
    GuardedHash<F, G>: HashBatch,
{
    /// Batched membership with per-shard lock and prefetch grouping:
    /// `result[i] == self.contains(keys[i])`.
    pub fn contains_batch(&self, keys: &[&[u8]]) -> Vec<bool> {
        self.inner
            .get_batch(keys)
            .into_iter()
            .map(|v| v.is_some())
            .collect()
    }

    /// Batched insert; returns how many elements were newly added.
    pub fn insert_batch(&self, keys: Vec<K>) -> usize {
        self.inner
            .insert_batch(keys.into_iter().map(|k| (k, ())).collect())
            .into_iter()
            .filter(Option::is_none)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_baselines::StlHash;
    use sepe_core::hash::SynthesizedHash;
    use sepe_core::regex::Regex;
    use sepe_core::synth::Family;

    type Map = ShardedMap<String, u32, SynthesizedHash, StlHash>;
    type Set = ShardedSet<String, SynthesizedHash, StlHash>;

    fn ssn(i: u32) -> String {
        format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i % 10_000)
    }

    fn sharded(shards: usize) -> Map {
        let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("pattern");
        let hash = SynthesizedHash::from_pattern(&pattern, Family::Pext);
        ShardedMap::with_hasher(GuardedHash::new(&pattern, hash, StlHash::new()), shards)
    }

    /// Escalates every shard, opening an epoch on each.
    fn escalate_all(m: &Map) {
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(7);
        for i in 0..m.shard_count() {
            m.escalate_shard(i, &seeds);
        }
    }

    fn keyed_shards(m: &Map) -> usize {
        (0..m.shard_count())
            .filter(|&i| m.shard_mode(i) == GuardMode::Keyed)
            .count()
    }

    #[test]
    fn lock_counts_are_kept_per_shard_and_exported_as_sums() {
        assert_eq!(std::mem::align_of::<LockCounts>(), 128, "a line pair each");
        let m = sharded(8);
        let registry = sepe_obs::Registry::new();
        m.export_metrics(&registry).expect("export");
        let totals = || {
            let snap = registry.snapshot();
            (
                snap.counter("shard_read_locks").expect("exported"),
                snap.counter("shard_write_locks").expect("exported"),
            )
        };
        let (reads, writes) = totals();
        for i in 0..200 {
            m.insert(ssn(i), i);
        }
        let key = ssn(7);
        let shard = m.shard_of(key.as_bytes());
        let before = m.obs.locks[shard].read.get();
        assert_eq!(m.get(key.as_str()), Some(7));
        assert_eq!(m.obs.locks[shard].read.get(), before + 1, "the key's shard");
        let sum = |f: fn(&LockCounts) -> u64| m.obs.locks.iter().map(f).sum::<u64>();
        let (read_sum, write_sum) = (sum(|l| l.read.get()), sum(|l| l.write.get()));
        assert_eq!(totals(), (read_sum, write_sum));
        assert!(
            read_sum > reads && write_sum >= writes + 200,
            "{:?}",
            totals()
        );
        let touched = m.obs.locks.iter().filter(|l| l.write.get() > 0).count();
        assert!(touched > 1, "200 keys spread over the shards");
    }

    #[test]
    fn migrate_drains_at_most_its_budget_across_shards() {
        // Regression: every draining shard drained at least one entry, so
        // a budget below the shard count overshot it.
        let m = sharded(8);
        for i in 0..800 {
            m.insert(format!("key-{i}"), i);
        }
        escalate_all(&m);
        assert_eq!(m.migrations_in_flight(), 8);
        let left = |m: &Map| -> usize {
            (0..m.shard_count())
                .map(|i| {
                    let shard = m.read(i);
                    let left = (1.0 - shard.migration_progress()) * shard.len() as f64;
                    left.round() as usize
                })
                .sum()
        };
        let before = left(&m);
        m.migrate(0);
        assert_eq!(left(&m), before, "migrate(0) is a no-op");
        m.migrate(3);
        assert_eq!(before - left(&m), 3, "migrate(3) over 8 draining shards");
        // A budget of at least one entry per shard keeps the even split.
        m.migrate(16);
        assert_eq!(before - left(&m), 3 + 16);
    }

    #[test]
    fn sharded_map_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Map>();
        assert_send_sync::<Set>();
    }

    #[test]
    fn shard_count_is_clamped_power_of_two() {
        assert_eq!(sharded(0).shard_count(), 1);
        assert_eq!(sharded(1).shard_count(), 1);
        assert_eq!(sharded(3).shard_count(), 4);
        assert_eq!(sharded(8).shard_count(), 8);
        assert_eq!(sharded(1000).shard_count(), MAX_SHARDS);
    }

    #[test]
    fn insert_get_remove_across_shards() {
        let m = sharded(8);
        for i in 0..2000 {
            assert_eq!(m.insert(ssn(i), i), None);
        }
        assert_eq!(m.len(), 2000);
        for i in 0..2000 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{}", ssn(i));
        }
        for i in (0..2000).step_by(2) {
            assert_eq!(m.remove(ssn(i).as_str()), Some(i));
        }
        assert_eq!(m.len(), 1000);
        assert!(!m.contains_key(ssn(0).as_str()));
        assert!(m.contains_key(ssn(1).as_str()));
    }

    #[test]
    fn routing_is_stable_across_escalation() {
        let m = sharded(8);
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(7);
        for i in 0..500 {
            m.insert(ssn(i), i);
        }
        let homes: Vec<usize> = (0..500).map(|i| m.shard_of(ssn(i).as_bytes())).collect();
        // Escalate a couple of shards; every key must still route home.
        m.escalate_shard(homes[0], &seeds);
        m.escalate_shard(homes[499], &seeds);
        m.finish_migrations();
        for i in 0..500 {
            assert_eq!(
                m.shard_of(ssn(i).as_bytes()),
                homes[i as usize],
                "routing moved for {}",
                ssn(i)
            );
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{} lost", ssn(i));
        }
    }

    #[test]
    fn escalating_one_shard_leaves_siblings_guarded() {
        let m = sharded(8);
        for i in 0..1000 {
            m.insert(ssn(i), i);
        }
        m.escalate_shard(3, &sepe_core::hash::keyed::FixedSeedSource::new(7));
        assert_eq!(keyed_shards(&m), 1);
        assert_eq!(m.shard_mode(3), GuardMode::Keyed);
        for i in 0..8 {
            if i != 3 {
                assert_eq!(m.shard_mode(i), GuardMode::Guarded, "shard {i}");
            }
        }
        // The keyed shard still answers correctly mid-migration.
        for i in 0..1000 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{}", ssn(i));
        }
    }

    #[test]
    fn concurrent_writers_on_disjoint_keys() {
        let m = sharded(8);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let m = &m;
                s.spawn(move || {
                    for i in (t..4000).step_by(4) {
                        m.insert(ssn(i), i);
                    }
                });
            }
        });
        assert_eq!(m.len(), 4000); // ssn() wraps at 10k, so all 4000 are distinct
        for i in 0..4000 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{}", ssn(i));
        }
    }

    #[test]
    fn concurrent_readers_during_shard_escalation() {
        let m = sharded(4);
        for i in 0..2000 {
            m.insert(ssn(i), i);
        }
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let m = &m;
                s.spawn(move || {
                    for round in 0..5u32 {
                        for i in (t..2000).step_by(2) {
                            assert_eq!(m.get(ssn(i).as_str()), Some(i), "round {round}");
                        }
                    }
                });
            }
            let m = &m;
            s.spawn(move || {
                let seeds = sepe_core::hash::keyed::FixedSeedSource::new(7);
                for shard in 0..2 {
                    m.escalate_shard(shard, &seeds);
                }
            });
        });
        m.finish_migrations();
        assert_eq!(keyed_shards(&m), 2);
        for i in 0..2000 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{} after drain", ssn(i));
        }
    }

    #[test]
    fn batches_straddle_shards() {
        let m = sharded(8);
        let keys: Vec<String> = (0..600).map(ssn).collect();
        let pairs: Vec<(String, u32)> = keys.iter().cloned().zip(0..600).collect();
        let prev = m.insert_batch(pairs);
        assert!(prev.iter().all(Option::is_none));
        // Re-insert with shifted values: every previous value must come back.
        let pairs: Vec<(String, u32)> = keys.iter().cloned().zip(1000..1600).collect();
        let prev = m.insert_batch(pairs);
        for (i, p) in prev.iter().enumerate() {
            assert_eq!(*p, Some(i as u32), "slot {i}");
        }
        let refs: Vec<&[u8]> = keys.iter().map(String::as_bytes).collect();
        let got = m.get_batch(&refs);
        for (i, g) in got.iter().enumerate() {
            assert_eq!(*g, Some(1000 + i as u32), "slot {i}");
        }
    }

    #[test]
    fn insert_batch_duplicate_keys_resolve_in_order() {
        let m = sharded(4);
        let pairs: Vec<(String, u32)> = vec![(ssn(7), 1), (ssn(8), 2), (ssn(7), 3), (ssn(7), 4)];
        let prev = m.insert_batch(pairs);
        assert_eq!(prev, vec![None, None, Some(1), Some(3)]);
        assert_eq!(m.get(ssn(7).as_str()), Some(4));
    }

    #[test]
    fn reads_drain_migrations_without_writers() {
        let m = sharded(2);
        for i in 0..600 {
            m.insert(ssn(i), i);
        }
        escalate_all(&m);
        assert_eq!(m.migrations_in_flight(), 2);
        let mut spins = 0u32;
        while m.migrations_in_flight() > 0 && spins < 100_000 {
            let key = ssn(spins % 600);
            assert_eq!(m.get(key.as_str()), Some(spins % 600));
            spins += 1;
        }
        assert_eq!(
            m.migrations_in_flight(),
            0,
            "gets alone drained both shards"
        );
        assert!((m.migration_progress() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn drift_counts_match_an_unsharded_twin() {
        // The router is silent and every key hashes in exactly one shard,
        // so summed shard counters must equal what a single unsharded map
        // counts for the identical operation sequence.
        let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("pattern");
        let hash = SynthesizedHash::from_pattern(&pattern, Family::Pext);
        let m = sharded(8);
        let mut twin =
            crate::UnorderedMap::with_hasher(GuardedHash::new(&pattern, hash, StlHash::new()));
        for i in 0..300 {
            m.insert(ssn(i), i); // in-format
            twin.insert(ssn(i), i);
        }
        for i in 0..40u32 {
            m.insert(format!("not-an-ssn-{i}"), i); // off-format
            twin.insert(format!("not-an-ssn-{i}"), i);
        }
        for i in 0..500 {
            let key = ssn(i);
            assert_eq!(m.get(key.as_str()), twin.get(key.as_str()).copied());
        }
        let (in_f, off_f) = m.drift_counts();
        assert_eq!(in_f, twin.drift_stats().in_format());
        assert_eq!(off_f, twin.drift_stats().off_format());
        assert!(off_f > 0, "off-format traffic was observed");
    }

    #[test]
    fn shard_resynthesis_round_trip() {
        let m = sharded(4);
        for i in 0..400 {
            m.insert(ssn(i), i);
        }
        // Drift exactly one shard: keep only the off-format keys the
        // router sends there, so sibling reservoirs stay empty.
        let drifted = 0usize;
        let mut off_format: Vec<(String, u32)> = Vec::new();
        let mut i = 0u32;
        while off_format.len() < 40 {
            let key = format!("drifted-{i:05}");
            if m.shard_of(key.as_bytes()) == drifted {
                m.insert(key.clone(), i);
                off_format.push((key, i));
            }
            i += 1;
        }

        // Undrifted shards have nothing to resynthesize.
        let clean = (0..4).find(|&i| i != drifted).unwrap();
        assert_eq!(m.resynthesize_shard(clean), sepe_core::Resynth::NoDrift);

        // Off the guarded rung first, with the keys filed across a drain.
        m.escalate_shard(drifted, &sepe_core::hash::keyed::FixedSeedSource::new(7));
        m.finish_migrations();
        assert_eq!(m.shard_mode(drifted), GuardMode::Keyed);
        assert!(m.resynthesize_shard(drifted).is_applied());
        assert_eq!(m.shard_mode(drifted), GuardMode::Guarded, "shard re-armed");
        m.finish_migrations();
        for i in 0..400 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{} preserved", ssn(i));
        }
        for (key, v) in &off_format {
            assert_eq!(m.get(key.as_str()), Some(*v), "{key} preserved");
        }
    }

    #[test]
    fn escalation_is_contained_to_the_targeted_shard() {
        let m = sharded(8);
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(0x5E9E);
        for i in 0..400 {
            m.insert(ssn(i), i);
        }
        let target = m.shard_of(ssn(0).as_bytes());
        // Climb the whole ladder on one shard: key, then rotate.
        m.escalate_shard(target, &seeds);
        assert_eq!(m.shard_mode(target), GuardMode::Keyed);
        m.escalate_shard(target, &seeds);
        assert_eq!(m.shard_mode(target), GuardMode::Keyed);
        for i in 0..m.shard_count() {
            if i != target {
                assert_eq!(m.shard_mode(i), GuardMode::Guarded, "sibling {i} flipped");
            }
        }
        assert_eq!(m.shard_escalation_count(), 2);
        assert_eq!(m.shard_seed_rotation_count(), 1);
        let names: Vec<&str> = m.events().iter().map(ObsEvent::name).collect();
        assert_eq!(names, vec!["shard_escalate", "seed_rotation"]);
        // Contents survive; de-escalation restores the specialized hash.
        m.finish_migrations();
        for i in 0..400 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{} lost", ssn(i));
        }
        let policy = AttackPolicy {
            quiet_streak: 2,
            ..AttackPolicy::default()
        };
        assert_eq!(m.maybe_deescalate(&policy), 0, "first calm tick arms only");
        assert_eq!(m.maybe_deescalate(&policy), 1, "second calm tick re-arms");
        assert_eq!(m.shard_mode(target), GuardMode::Guarded);
        m.finish_migrations();
        for i in 0..400 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{} lost", ssn(i));
        }
        assert_eq!(m.shard_deescalation_count(), 1);
    }

    #[test]
    fn a_drift_trip_and_a_storm_rung_hold_on_their_shards_alone() {
        let m = sharded(4);
        let seeds = sepe_core::hash::keyed::FixedSeedSource::new(0xD1F7);
        let policy = AttackPolicy::default();
        for i in 0..2_000 {
            m.insert(ssn(i), i);
        }
        let (drifted, flooded) = (0usize, 2usize);
        // Off-format keys routed to the drifted shard, sampled by its
        // reservoir, trip its drift window.
        let drift: Vec<String> = (0u32..)
            .map(|i| format!("{:03}/{:02}/{:04}", i % 1000, i % 100, i))
            .filter(|k| m.shard_of(k.as_bytes()) == drifted)
            .take(64)
            .collect();
        for (i, key) in drift.iter().enumerate() {
            m.insert(key.clone(), i as u32);
        }
        let drift_policy = DriftPolicy {
            threshold: 0.05,
            ..DriftPolicy::default()
        };
        assert_eq!(m.maybe_degrade(&drift_policy), 1);
        let trip = m.shard_drift_trip(drifted);
        assert!(trip.is_some());

        // Pre-grow the flooded shard so the flood's bucket stays put, then
        // forge it against that shard's guarded routing.
        let filler: Vec<String> = (0u32..)
            .map(|i| format!("filler-{i:08}"))
            .filter(|k| m.shard_of(k.as_bytes()) == flooded)
            .take(256)
            .collect();
        for key in &filler {
            m.insert(key.clone(), 0);
        }
        for key in &filler {
            m.remove(key.as_str());
        }
        let buckets = m.shard_bucket_count(flooded) as u64;
        let bucket_of = |k: &str| m.read(flooded).hash_of(k.as_bytes()) % buckets;
        let target = bucket_of("flood target");
        let flood: Vec<String> = (0u64..)
            .map(|i| format!("atk-{i:016x}"))
            .filter(|k| m.shard_of(k.as_bytes()) == flooded && bucket_of(k) == target)
            .take(64)
            .collect();
        for key in &flood {
            m.insert(key.clone(), 0);
        }
        for _ in 0..8 {
            if m.shard_mode(flooded) == GuardMode::Keyed {
                break;
            }
            m.maybe_escalate(&policy, &seeds);
            m.finish_migrations();
        }
        assert_eq!(m.shard_bucket_count(flooded) as u64, buckets);
        assert_eq!(m.shard_mode(flooded), GuardMode::Keyed);
        assert_eq!(m.shard_escalation_count(), 1);

        // Calm ticks leave neither the drift trip nor the resident flood.
        for tick in 0..64 {
            assert_eq!(m.maybe_escalate(&policy, &seeds), 0, "tick {tick}");
            assert_eq!(m.maybe_deescalate(&policy), 0, "tick {tick}");
        }
        assert_eq!(m.shard_drift_trip(drifted), trip);
        assert_eq!(m.shard_mode(flooded), GuardMode::Keyed);
        for i in [drifted, 1, 3] {
            assert_eq!(m.shard_mode(i), GuardMode::Guarded, "shard {i}");
        }

        // Resynthesis clears the drift trip; the flood's removal the storm.
        assert!(m.resynthesize_shard(drifted).is_applied());
        assert_eq!(m.shard_drift_trip(drifted), None);
        for key in &flood {
            assert_eq!(m.remove(key.as_str()), Some(0));
        }
        let streak = policy.quiet_streak << crate::maintenance::MAX_HOLD_DOUBLINGS;
        let after = (1..=streak).find(|_| m.maybe_deescalate(&policy) == 1);
        assert!(after.is_some(), "no re-arm within one {streak}-tick streak");
        for i in 0..4 {
            assert_eq!(m.shard_mode(i), GuardMode::Guarded, "shard {i}");
        }
        assert_eq!(m.shard_deescalation_count(), 1);
        m.finish_migrations();
        for i in 0..2_000 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{} lost", ssn(i));
        }
        for (i, key) in drift.iter().enumerate() {
            assert_eq!(m.get(key.as_str()), Some(i as u32), "{key} lost");
        }
    }

    #[test]
    fn a_shard_drift_trip_is_held_recorded_and_confined() {
        let m = sharded(4);
        let policy = DriftPolicy {
            threshold: 0.10,
            min_samples: 16,
            window: 1024,
        };
        let drifted = 1usize;
        let off = |i: u32| format!("{:03}/{:02}/{:04}", i % 1000, i % 100, i);
        let drift: Vec<String> = (0u32..)
            .map(off)
            .filter(|k| m.shard_of(k.as_bytes()) == drifted)
            .take(40)
            .collect();
        for i in 0..400 {
            m.insert(ssn(i), i);
        }
        for (i, key) in drift[..20].iter().enumerate() {
            m.insert(key.clone(), i as u32);
        }
        let registry = sepe_obs::Registry::new();
        m.export_metrics(&registry).expect("export");
        let opened = || {
            registry
                .snapshot()
                .counter_family_total("table_epochs_opened")
        };
        let keys: Vec<String> = (0..400).map(ssn).chain(drift.iter().cloned()).collect();
        // Each shard's routes of every key, through counter-silent copies,
        // and its drift window.
        let shard_state = |i: usize| {
            let shard = m.read(i);
            let silent = shard.hasher().epoch_frozen(shard.guard_mode());
            let routes: Vec<(u64, bool)> = keys
                .iter()
                .map(|k| silent.hash_routed(k.as_bytes()))
                .collect();
            (
                shard.guard_mode(),
                shard.drift_stats().window_counts(),
                routes,
            )
        };
        let (before, epochs) = ((0..4).map(shard_state).collect::<Vec<_>>(), opened());
        let window = before[drifted].1;

        assert_eq!(m.maybe_degrade(&policy), 1, "only the drifted shard trips");
        assert_eq!(m.shard_drift_trip(drifted), Some(window));
        let (off_format, total) = window;
        assert_eq!(
            m.events(),
            vec![ObsEvent::ShardDrift {
                shard: drifted as u64,
                off_format,
                total
            }]
        );
        assert_eq!((opened(), m.migrations_in_flight()), (epochs, 0));
        for (i, was) in before.iter().enumerate() {
            let (mode, window_now, routes) = shard_state(i);
            assert_eq!(mode, GuardMode::Guarded, "shard {i}");
            assert_eq!(routes, was.2, "shard {i}'s routes moved");
            if i != drifted {
                assert_eq!(window_now, was.1, "sibling {i}'s window moved");
                assert_eq!(m.shard_drift_trip(i), None, "sibling {i}");
            }
        }

        // Held: the drifted shard keeps counting, but does not trip again.
        for (i, key) in drift[20..].iter().enumerate() {
            m.insert(key.clone(), 20 + i as u32);
        }
        let (off_now, total_now) = m.read(drifted).drift_stats().window_counts();
        assert!(policy.should_degrade(off_now, total_now));
        assert_eq!(m.maybe_degrade(&policy), 0);
        assert_eq!(m.events().len(), 1);

        // Its resynthesis is the one epoch, on that shard alone.
        assert!(m.resynthesize_shard(drifted).is_applied());
        assert_eq!(m.shard_drift_trip(drifted), None);
        assert_eq!((opened(), m.migrations_in_flight()), (epochs + 1, 1));
        assert!(m.read(drifted).migration_in_flight());
        m.finish_migrations();
        for (i, key) in drift.iter().enumerate() {
            assert_eq!(m.get(key.as_str()), Some(i as u32), "{key}");
        }
        for i in 0..400 {
            assert_eq!(m.get(ssn(i).as_str()), Some(i), "{}", ssn(i));
        }
    }

    #[test]
    fn sharded_set_semantics() {
        let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("pattern");
        let hash = SynthesizedHash::from_pattern(&pattern, Family::OffXor);
        let s: Set = ShardedSet::with_hasher(GuardedHash::new(&pattern, hash, StlHash::new()), 4);
        for i in 0..500 {
            assert!(s.insert(ssn(i)));
        }
        for i in 0..500 {
            assert!(!s.insert(ssn(i)));
        }
        assert_eq!(s.len(), 500);
        assert!(s.contains(ssn(9).as_str()));
        assert!(s.remove(ssn(9).as_str()));
        assert!(!s.contains(ssn(9).as_str()));
        let keys: Vec<String> = (500..800).map(ssn).collect();
        let refs: Vec<&[u8]> = keys.iter().map(String::as_bytes).collect();
        assert_eq!(s.insert_batch(keys.clone()), 300);
        assert!(s.contains_batch(&refs).iter().all(|&b| b));
    }
}
