//! The shared chained hash table behind all four public containers.
//!
//! Layout follows libstdc++: an array of bucket heads pointing into an
//! entry arena; each entry caches its full 64-bit hash (so rehashing never
//! re-hashes keys) and links to the next entry of its bucket. Removed slots
//! go on a free list; outside a migration epoch they are reused before the
//! arena grows, and a slot freed during an epoch waits for it to close.
//!
//! When the hash *function* changes (a guarded hasher degrades or
//! resynthesizes), the table does not pause the world to rebuild: it opens
//! a migration epoch. The superseded bucket array is set aside, lookups
//! consult both epochs, and entries drain into the new chains a bounded
//! number at a time — the amortized rehash of Redis and hashbrown, applied
//! to a change of hash function rather than of capacity. Every mutating
//! operation drains a few entries itself; the bulk drains on the
//! maintenance controller's calls, a share per data operation served
//! since its last drain. The drain sweeps the arena downward from its end
//! rather than popping old chains, so each drained entry costs one
//! sequential arena read, its key, and the live chain it joins; a batch's
//! key and head misses are prefetched together.
//!
//! Every live chain keeps its entries in the order they were filed, unlike
//! libstdc++, which inserts at the start of a bucket. A new key is appended
//! after the last entry its miss probe walked. A resize, a drain and a
//! re-target link slots highest first at the chain heads, so each chain
//! they build lists its slots in ascending order, ahead of the keys
//! appended since. An entry filed earlier is met earlier, so resident keys
//! keep their probe cost when newer, colder keys join their buckets.
//! [`RawTable::insert_multi`] does not probe, so it links at the head.
//!
//! Equality is decided by hash wherever the hasher vouches for it
//! ([`ByteHash::hash_routed`]): a guarded hasher vouches for an in-format
//! key under a plan injective over its format, and no two keys it vouches
//! for share a hash. Each entry keeps, in the top bit of its first link
//! (which caps the arena at 2^31 − 1 slots), whether the hasher of the
//! epoch it is filed in vouched for it, and every chain walk routes
//! the probe through that epoch's hasher: the live one for the live
//! chain, the old one for the old chain. A hash match between a vouched
//! probe and a vouched entry of the same epoch is a key match without
//! reading the stored key; every other hash match compares the key bytes
//! word by word ([`key_eq`]). The batched paths (`get_batch`,
//! `insert_batch`) hash through `HashBatch`, which carries no route, so
//! they probe and file without vouching: they compare bytes, and
//! the entries they file are compared by bytes until a drain re-files
//! them.

use crate::policy::{reciprocal, BucketPolicy};
use crate::primes::grow_bucket_count;
use sepe_core::hash::ByteHash;
use sepe_core::RouteMap;
use sepe_obs::{Counter, Histogram, Registry, RegistryError};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The end of a chain or of the free list. Slot indices stay below it,
/// which caps the arena at 2^31 − 1 slots and frees the top bit of a link
/// for [`VOUCHED`].
const NONE: u32 = 0x7FFF_FFFF;

/// Top bit of `links[0]`: the entry's hash was vouched for by the hasher
/// of the epoch it is filed in.
const VOUCHED: u32 = !NONE;

/// Byte equality of two keys, inlined into the chain walks: 8-byte words
/// plus an overlapping final word from 8 bytes up, two overlapping 4-byte
/// words from 4 to 7 bytes, and a plain slice compare below that.
#[inline]
fn key_eq(a: &[u8], b: &[u8]) -> bool {
    let n = a.len();
    if n != b.len() {
        return false;
    }
    if n >= 8 {
        let word =
            |s: &[u8], at: usize| u64::from_ne_bytes(s[at..at + 8].try_into().expect("8 bytes"));
        let mut at = 0;
        while at + 8 < n {
            if word(a, at) != word(b, at) {
                return false;
            }
            at += 8;
        }
        word(a, n - 8) == word(b, n - 8)
    } else if n >= 4 {
        let word =
            |s: &[u8], at: usize| u32::from_ne_bytes(s[at..at + 4].try_into().expect("4 bytes"));
        word(a, 0) == word(b, 0) && word(a, n - 4) == word(b, n - 4)
    } else {
        a == b
    }
}

/// `len` zeroed counts, in `spare`'s allocation when there is one: an
/// epoch's bucket counts are rebuilt in place rather than reallocated.
fn zeroed(spare: Option<Vec<u32>>, len: usize) -> Vec<u32> {
    let mut counts = spare.unwrap_or_default();
    counts.clear();
    counts.resize(len, 0);
    counts
}

/// Hints the cache line holding `at` into L1; a no-op off x86-64.
#[inline]
fn prefetch<T>(at: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: prefetch has no memory effects; any address is safe.
        unsafe { _mm_prefetch(at.cast::<i8>(), _MM_HINT_T0) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = at;
    }
}

/// Initial bucket count (the first prime of libstdc++'s table is 13 once a
/// table grows beyond its singleton state).
const INITIAL_BUCKETS: u64 = 13;

/// Entries of an open epoch each data operation pays for: a mutating
/// operation drains this many itself, and so does
/// [`RawTable::drain_on_read`]; the maintenance controller drains this
/// many more per data operation served since it last drained (see
/// [`RawTable::epoch_ops`]). The per-operation share keeps any single
/// `insert`/`remove` O(`DRAIN_PER_OP`) and is the floor that lets a table
/// nobody ticks converge: under write traffic alone an epoch of `len`
/// entries closes after about `len / DRAIN_PER_OP` operations; ticked,
/// after about `len / (2 * DRAIN_PER_OP)` writes or `len / DRAIN_PER_OP`
/// reads.
pub(crate) const DRAIN_PER_OP: usize = 4;

/// Widest batch one drain gathers, hashes and links at a time: it sizes
/// the prefetch arrays in [`RawTable::migrate`]'s body, not how much a
/// call drains.
const DRAIN_BATCH: usize = 16;

/// Arena slots one drain may scan per entry of its budget. Slots freed
/// before or during the epoch are dead weight to the sweep; the cap keeps
/// a drain of `budget` entries O(`budget`) however many it meets.
const SWEEP_SLOTS_PER_ENTRY: usize = 4;

/// Read-only lookups observed while a migration was in flight before the
/// epoch is declared *stale*: the next operation with mutable access stops
/// amortizing and drains it outright. Bounds the dual-epoch tax of a
/// read-dominated workload to one bounded burst instead of forever.
pub(crate) const STALE_READ_LIMIT: u64 = 1024;

/// An interior-mutable count of operations, bumped from `&self` lookups.
/// Relaxed ordering suffices: the counts only pace heuristics. Recording
/// is a load and a store, not a locked add, so concurrent readers of one
/// table may lose increments; that only delays a drain. Cloning a table
/// snapshots the current value.
#[derive(Debug, Default)]
struct OpCount(AtomicU64);

impl OpCount {
    #[inline]
    fn record(&self) {
        self.0
            .store(self.get().saturating_add(1), Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Clone for OpCount {
    fn clone(&self) -> Self {
        OpCount(AtomicU64::new(self.get()))
    }
}

/// Interior-mutable observability channel of one table: probe-length
/// distribution, migration-epoch accounting, batch-kernel usage and
/// escalation-ladder counts. Handles are shared (`Arc`) so a [`Registry`]
/// export reads live values without the hot path paying registry
/// indirection.
///
/// The storm detector judges the probe-length window and the harnesses
/// check the ladder counters; the rest is read only by exports and the
/// harnesses' cross-checks.
#[derive(Debug)]
pub(crate) struct TableObs {
    /// Entries examined per lookup, across both epochs. Recorded with
    /// single-writer bumps (see [`RawTable::find_hashed`]).
    pub(crate) probe_len: Arc<Histogram>,
    /// Entries drained out of migration epochs (monotone lifetime total).
    pub(crate) drain_ops: Arc<Counter>,
    /// Migration epochs opened.
    pub(crate) epochs_opened: Arc<Counter>,
    /// Migration epochs retired — fully drained, or discarded by `clear`.
    pub(crate) epochs_finished: Arc<Counter>,
    /// Lookups that probed a still-open epoch (monotone, unlike the
    /// resettable starvation count [`RawTable::stale_reads`]).
    pub(crate) stale_probes: Arc<Counter>,
    /// Batch-kernel chunks hashed (`get_batch` / `insert_batch`).
    pub(crate) batch_chunks: Arc<Counter>,
    /// Keys that went through those chunks.
    pub(crate) batch_keys: Arc<Counter>,
    /// Upward storm rungs taken on the escalation ladder (to keyed and
    /// rotations both count; a drift degrade does not).
    pub(crate) escalations: Arc<Counter>,
    /// Quiet-window de-escalations back to the specialized hasher.
    pub(crate) deescalations: Arc<Counter>,
    /// Seed rotations on the keyed rung (a subset of `escalations`).
    pub(crate) seed_rotations: Arc<Counter>,
    /// Last sampled probe-length p99, published by the storm detector.
    pub(crate) probe_tail: Arc<AtomicU64>,
}

impl Default for TableObs {
    fn default() -> Self {
        TableObs {
            probe_len: Arc::new(Histogram::new()),
            drain_ops: Arc::new(Counter::new()),
            epochs_opened: Arc::new(Counter::new()),
            epochs_finished: Arc::new(Counter::new()),
            stale_probes: Arc::new(Counter::new()),
            batch_chunks: Arc::new(Counter::new()),
            batch_keys: Arc::new(Counter::new()),
            escalations: Arc::new(Counter::new()),
            deescalations: Arc::new(Counter::new()),
            seed_rotations: Arc::new(Counter::new()),
            probe_tail: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Clone for TableObs {
    /// A cloned table gets a *fresh* channel: twins and snapshots must
    /// not bump the counters an exported registry reads from the
    /// original.
    fn clone(&self) -> Self {
        TableObs::default()
    }
}

impl TableObs {
    /// Registers every family under `labels`. Ids follow the repo scheme:
    /// `table_probe_len`, `table_drain_ops`, `table_epochs_opened`,
    /// `table_epochs_finished`, `table_stale_probes`,
    /// `table_batch_chunks`, `table_batch_keys`, the ladder counters
    /// `table_escalations`, `table_deescalations` and
    /// `table_seed_rotations`, and the `table_probe_tail` gauge.
    pub(crate) fn export(
        &self,
        registry: &Registry,
        labels: &[(&str, &str)],
    ) -> Result<(), RegistryError> {
        registry.register_histogram("table_probe_len", labels, self.probe_len.clone())?;
        registry.register_counter("table_drain_ops", labels, self.drain_ops.clone())?;
        registry.register_counter("table_epochs_opened", labels, self.epochs_opened.clone())?;
        registry.register_counter(
            "table_epochs_finished",
            labels,
            self.epochs_finished.clone(),
        )?;
        registry.register_counter("table_stale_probes", labels, self.stale_probes.clone())?;
        registry.register_counter("table_batch_chunks", labels, self.batch_chunks.clone())?;
        registry.register_counter("table_batch_keys", labels, self.batch_keys.clone())?;
        registry.register_counter("table_escalations", labels, self.escalations.clone())?;
        registry.register_counter("table_deescalations", labels, self.deescalations.clone())?;
        registry.register_counter("table_seed_rotations", labels, self.seed_rotations.clone())?;
        // The probe tail is a point-in-time sample, not a monotone count:
        // exported as a gauge reading the latest detector snapshot.
        let tail = self.probe_tail.clone();
        registry.export_gauge("table_probe_tail", labels, move || {
            tail.load(Ordering::Relaxed)
        })?;
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct Entry<K, V> {
    /// The cached full hash of an occupied slot; on a free slot, the index
    /// of the next free slot. The free list threads through this field so
    /// a freed slot keeps both chain links intact.
    hash: u64,
    /// Next entry of the bucket, one link per epoch parity: `links[live]`
    /// threads the live epoch's chains, the other link the old epoch's
    /// while a migration is in flight. The top bit of `links[0]` is the
    /// [`VOUCHED`] flag, not part of a link.
    links: [u32; 2],
    kv: Option<(K, V)>,
}

impl<K, V> Entry<K, V> {
    /// The next entry of this one's chain in the epoch `link` threads.
    #[inline]
    fn next(&self, link: bool) -> u32 {
        self.links[usize::from(link)] & NONE
    }

    #[inline]
    fn set_next(&mut self, link: bool, at: u32) {
        let l = &mut self.links[usize::from(link)];
        *l = (*l & VOUCHED) | at;
    }

    /// Whether the hasher of this entry's epoch vouched for its hash.
    #[inline]
    fn vouched(&self) -> bool {
        self.links[0] & VOUCHED != 0
    }

    #[inline]
    fn set_vouched(&mut self, vouched: bool) {
        self.links[0] = (self.links[0] & NONE) | if vouched { VOUCHED } else { 0 };
    }

    /// Whether this entry, whose hash matched `probe`'s in the probe's
    /// epoch, holds the probed key: by the hash alone when both are
    /// vouched for, by the key bytes otherwise. A free slot never does.
    #[inline]
    fn holds(&self, probe: Probe<'_>) -> bool
    where
        K: AsRef<[u8]>,
    {
        match &self.kv {
            Some((k, _)) => (probe.vouched && self.vouched()) || key_eq(k.as_ref(), probe.key),
            None => false,
        }
    }
}

/// A bucket chain to walk (see [`RawTable::live_chain`]).
#[derive(Debug, Clone, Copy)]
struct Chain {
    bucket: usize,
    head: u32,
    link: bool,
    swept: u32,
}

/// Where a walk of one chain stopped ([`RawTable::walk`]).
#[derive(Debug, Clone, Copy)]
struct Walk {
    /// The first entry holding the probed key, if any.
    found: Option<u32>,
    /// The entry visited before the walk stopped (`NONE` when it stopped
    /// at the head): the match's predecessor on a hit, the chain's last
    /// entry on a miss.
    prev: u32,
    /// Entries examined, passed-over swept ones included.
    probes: u64,
}

/// A key to look for in one epoch: its hash under that epoch's hasher,
/// and whether that hasher vouched for it.
#[derive(Debug, Clone, Copy)]
struct Probe<'k> {
    hash: u64,
    vouched: bool,
    key: &'k [u8],
}

/// One in-flight migration epoch: the superseded bucket array plus the two
/// frozen hashers needed to probe it and to drain it.
///
/// The drain sweeps the arena downward: `cursor` starts at the arena's
/// length when the epoch opened and falls to 0. Occupied slots below
/// `cursor` are filed in the old epoch, under their old-epoch cached hash;
/// every slot from `cursor` on, swept or inserted after the epoch opened,
/// is filed in the live one. A swept entry stays threaded in its old chain
/// through the other link, so old chains never need unlinking; old-epoch
/// probes skip slots from `cursor` on. No slot is reused while the epoch
/// is open, which keeps the prefix partition exact.
///
/// A transition requested while the epoch is open re-targets it (see
/// [`RawTable::begin_migration`]): the unswept slots keep their old
/// filing and drain straight to the newest routing.
#[derive(Debug, Clone)]
struct Migration<H> {
    /// The hash function of the superseded epoch, pinned so lookups can
    /// locate entries still filed under the old plan.
    old_hasher: H,
    /// A counter-silent copy of the live hash function, so draining does
    /// not pollute drift accounting (an amortized migration must leave the
    /// same observable counters as a stop-the-world rebuild).
    rehasher: H,
    /// `rehasher`'s [`ByteHash::refile_map`] from `old_hasher`: the drain
    /// re-files the old epoch's vouched entries from their cached hashes.
    refile: Option<RouteMap>,
    old_heads: Vec<u32>,
    /// [`reciprocal`] of `old_heads.len()`, which old-epoch probes index
    /// by.
    old_recip: u128,
    /// Occupied slots below `cursor`: entries still filed in the old
    /// epoch.
    old_len: usize,
    /// `old_len` when the epoch opened, for progress reporting.
    initial: usize,
    /// One past the next arena slot the sweep will inspect.
    cursor: u32,
    /// Arena length when the epoch opened: the partition checks verify
    /// that no slot appended since sits in an old chain.
    #[cfg(test)]
    opened_at: u32,
    /// Entries in each live bucket's chain, kept so a drain or an insert
    /// bounds the chain it joins without walking it: raised by every entry
    /// linked into the live epoch, lowered by every live removal. `None`
    /// once a resize relinked the live chains uncounted, until
    /// [`RawTable::longest_chain`] walks them again.
    counts: Option<Vec<u32>>,
}

/// A separate-chaining hash table with cached hashes, bucket introspection
/// and incremental hash-function migration. `K` must expose its bytes for
/// hashing.
#[derive(Debug, Clone)]
pub(crate) struct RawTable<K, V, H> {
    heads: Vec<u32>,
    /// [`reciprocal`] of `heads.len()`: every bucket index is a remainder
    /// by multiplication ([`BucketPolicy::bucket_in`]). Recomputed
    /// wherever the bucket array is replaced by one of another length.
    recip: u128,
    entries: Vec<Entry<K, V>>,
    /// Which of [`Entry::links`] threads the live epoch; flips each time
    /// an epoch opens.
    live: bool,
    free_head: u32,
    len: usize,
    hasher: H,
    policy: BucketPolicy,
    max_load_factor: f64,
    migration: Option<Migration<H>>,
    /// Upper bound on the longest live-epoch chain, `None` when unknown.
    /// Inserts of new keys raise it from the chain their miss just walked,
    /// and a migration drain from the epoch's count of the chain each
    /// drained entry joins ([`Migration::counts`]); removals leave it
    /// standing (still a bound); a resize of a non-empty table, which
    /// relinks every chain without probing it, forgets it until
    /// [`RawTable::longest_chain`] walks the table again. Opening an
    /// epoch restarts it at 0; re-targeting one sets it to the longest
    /// chain the re-filed entries form.
    chain_bound: Option<usize>,
    /// Lookups that probed an open epoch since the last one closed. `&self`
    /// lookups cannot drain (draining relinks chains), but they record
    /// starvation, so the next `&mut` caller knows the old epoch has
    /// overstayed.
    stale_reads: OpCount,
    /// The maintenance clock: data operations served while an epoch was
    /// open, over the table's life. Bumped only in branches that already
    /// run only mid-epoch, so a calm table never touches it.
    epoch_ops: OpCount,
    obs: TableObs,
}

impl<K, V, H> RawTable<K, V, H>
where
    K: Eq + AsRef<[u8]>,
    H: ByteHash,
{
    pub(crate) fn new(hasher: H, policy: BucketPolicy) -> Self {
        RawTable {
            heads: vec![NONE; INITIAL_BUCKETS as usize],
            recip: reciprocal(INITIAL_BUCKETS),
            entries: Vec::new(),
            live: false,
            free_head: NONE,
            len: 0,
            hasher,
            policy,
            max_load_factor: 1.0,
            migration: None,
            chain_bound: Some(0),
            stale_reads: OpCount::default(),
            epoch_ops: OpCount::default(),
            obs: TableObs::default(),
        }
    }

    pub(crate) fn hasher(&self) -> &H {
        &self.hasher
    }

    /// The table's observability channel.
    pub(crate) fn obs(&self) -> &TableObs {
        &self.obs
    }

    pub(crate) fn hasher_mut(&mut self) -> &mut H {
        &mut self.hasher
    }

    /// Opens a migration epoch: the current bucket array becomes the old
    /// epoch (probed with `old_hasher`), a fresh one takes live traffic,
    /// and entries drain into it by rehashing with `rehasher`:
    /// [`DRAIN_PER_OP`] per mutating operation, and the maintenance
    /// controller's share on each of its calls.
    ///
    /// `old_hasher` must reproduce the hashes the stored entries were filed
    /// under; `rehasher` must reproduce the live hasher's values without
    /// observable side effects (see `GuardedHash::epoch_frozen`).
    ///
    /// The fresh live epoch starts empty, so its chain bound and bucket
    /// counts are 0; the drain and the inserts after it raise them as
    /// they link. Opening touches no entry: the live chains become the old
    /// epoch's simply by flipping which link is live.
    ///
    /// `old_hasher` is needed only when an epoch opens
    /// ([`RawTable::opens_epoch`]), and must be `None` otherwise, so a
    /// caller builds it only then. An epoch already in flight is not
    /// finished but re-targeted ([`RawTable::retarget`]): the unswept
    /// entries are still filed under the open epoch's own old routing. An
    /// empty table opens no epoch.
    pub(crate) fn begin_migration(&mut self, old_hasher: Option<H>, rehasher: H) {
        debug_assert_eq!(
            old_hasher.is_some(),
            self.opens_epoch(),
            "the old routing is built exactly when an epoch opens"
        );
        if let Some(mig) = self.migration.take() {
            self.retarget(mig, rehasher);
            return;
        }
        let Some(old_hasher) = old_hasher.filter(|_| self.len > 0) else {
            return;
        };
        self.obs.epochs_opened.inc();
        let buckets = self.heads.len();
        let old_heads = std::mem::replace(&mut self.heads, vec![NONE; buckets]);
        self.live = !self.live;
        self.chain_bound = Some(0);
        self.migration = Some(Migration {
            refile: rehasher.refile_map(&old_hasher),
            old_hasher,
            rehasher,
            old_heads,
            old_recip: self.recip,
            old_len: self.len,
            initial: self.len,
            cursor: self.entries.len() as u32,
            #[cfg(test)]
            opened_at: self.entries.len() as u32,
            counts: Some(vec![0; buckets]),
        });
    }

    /// Whether [`RawTable::begin_migration`] would open a new epoch: none
    /// is open, and there are entries to move.
    pub(crate) fn opens_epoch(&self) -> bool {
        self.migration.is_none() && self.len > 0
    }

    /// Merges a transition into the open epoch `mig`: the slots the
    /// superseded live routing owns (from the cursor on) are re-filed
    /// under `rehasher` into a fresh live bucket array, highest first and
    /// in prefetched batches like a drain, the vouched ones from their
    /// cached hashes where `rehasher` maps from the superseded routing;
    /// the unswept slots stay filed in the old epoch and will drain
    /// straight to `rehasher`. Only the swept side moves now, and every
    /// entry moves at most once more before the epoch closes. The
    /// re-filed chains are counted as they link, so the epoch's counts and
    /// the chain bound come out exact. The epoch keeps its counters: no
    /// epoch opens or closes, and nothing drains out of the old one.
    fn retarget(&mut self, mut mig: Migration<H>, rehasher: H) {
        self.heads.fill(NONE);
        let mut counts = Some(zeroed(mig.counts.take(), self.heads.len()));
        self.chain_bound = Some(0);
        let refile = rehasher.refile_map(&mig.rehasher);
        let mut slots = [0u32; DRAIN_BATCH];
        let mut n = 0;
        for idx in (mig.cursor..self.entries.len() as u32).rev() {
            if self.gather(idx, refile.is_some()) {
                slots[n] = idx;
                n += 1;
            }
            if n == DRAIN_BATCH {
                self.file_batch(&slots, &rehasher, refile, &mut counts);
                n = 0;
            }
        }
        self.file_batch(&slots[..n], &rehasher, refile, &mut counts);
        mig.refile = rehasher.refile_map(&mig.old_hasher);
        mig.rehasher = rehasher;
        mig.counts = counts;
        self.stale_reads.reset();
        self.migration = Some(mig);
    }

    /// Drains up to `budget` entries from the old epoch into the live one,
    /// sweeping at most `SWEEP_SLOTS_PER_ENTRY * budget` arena slots: the
    /// maintenance controller's batched sweep, and the explicit
    /// `migrate`/`finish_migration` calls. It advances no clock.
    #[inline]
    pub(crate) fn migrate(&mut self, budget: usize) {
        if self.migration.is_some() {
            self.drain(budget);
        }
    }

    /// A mutating operation's share of an open epoch: counts the operation
    /// on the maintenance clock and drains [`DRAIN_PER_OP`] entries.
    #[inline]
    fn pay_drain(&mut self) {
        if self.migration.is_some() {
            self.epoch_ops.record();
            self.drain(DRAIN_PER_OP);
        }
    }

    /// The maintenance clock: data operations served while an epoch was
    /// open, over the table's life. Lookups and map inserts count at their
    /// probe, multimap inserts and removals at their drain, and multimap
    /// counts at their old-epoch probe. The controller drains
    /// [`DRAIN_PER_OP`] entries per tick of it.
    pub(crate) fn epoch_ops(&self) -> u64 {
        self.epoch_ops.get()
    }

    /// The body of [`RawTable::migrate`], out of line so the calm-table
    /// check stays small in every mutating operation.
    ///
    /// Works in batches of up to [`DRAIN_BATCH`] occupied slots, highest
    /// first: gather them and prefetch the key bytes of those that must be
    /// hashed, then file them ([`RawTable::file_batch`]). The chains come
    /// out exactly as one-at-a-time linking leaves them: the drained
    /// entries in ascending slot order, ahead of the keys appended since
    /// the epoch opened.
    #[inline(never)]
    fn drain(&mut self, budget: usize) {
        let mut mig = self.migration.take().expect("epoch in flight");
        let scan = budget.saturating_mul(SWEEP_SLOTS_PER_ENTRY);
        let stop = (mig.cursor as usize).saturating_sub(scan) as u32;
        let want = budget.min(mig.old_len);
        let mut slots = [0u32; DRAIN_BATCH];
        let mut moved = 0usize;
        while moved < want && mig.cursor > stop {
            let room = (want - moved).min(DRAIN_BATCH);
            let mut n = 0;
            while n < room && mig.cursor > stop {
                mig.cursor -= 1;
                let idx = mig.cursor;
                if self.gather(idx, mig.refile.is_some()) {
                    slots[n] = idx;
                    n += 1;
                }
            }
            self.file_batch(&slots[..n], &mig.rehasher, mig.refile, &mut mig.counts);
            moved += n;
        }
        mig.old_len -= moved;
        if moved > 0 {
            self.obs.drain_ops.add(moved as u64);
        }
        self.keep_or_close(mig);
    }

    /// Whether slot `idx` is occupied, so a drain or re-file takes it;
    /// prefetches its key bytes unless `refile` will map its cached hash
    /// instead (a vouched entry under a route map).
    #[inline]
    fn gather(&self, idx: u32, refile: bool) -> bool {
        let e = &self.entries[idx as usize];
        let Some((key, _)) = &e.kv else {
            return false;
        };
        if !(refile && e.vouched()) {
            prefetch(key.as_ref().as_ptr());
        }
        true
    }

    /// Files the occupied `slots` (at most [`DRAIN_BATCH`], gathered by
    /// [`RawTable::gather`]) in the live epoch under `hasher`'s routes, in
    /// the order given, each at its chain's head: hashes them all and
    /// prefetches their bucket heads before linking any, so the head
    /// misses of a batch overlap instead of serializing. A vouched entry
    /// takes `refile`'s map of its cached hash when there is one (`refile`
    /// must map from the routing its hash was filed under to `hasher`),
    /// and stays vouched; every other entry hashes its key, and its
    /// vouched bit is recomputed from the route, since it now speaks for
    /// the live epoch. Each joined chain's count raises the chain bound,
    /// walk-free.
    #[inline]
    fn file_batch(
        &mut self,
        slots: &[u32],
        hasher: &H,
        refile: Option<RouteMap>,
        counts: &mut Option<Vec<u32>>,
    ) {
        let live = self.live;
        let mut buckets = [0usize; DRAIN_BATCH];
        let mut hashes = [0u64; DRAIN_BATCH];
        let mut vouched = [false; DRAIN_BATCH];
        for (i, &idx) in slots.iter().enumerate() {
            let e = &self.entries[idx as usize];
            let (key, _) = e.kv.as_ref().expect("live entry");
            (hashes[i], vouched[i]) = match refile {
                Some(map) if e.vouched() => {
                    let h = map.map(e.hash);
                    debug_assert_eq!(
                        hasher.hash_routed(key.as_ref()),
                        (h, true),
                        "a mapped hash is the route's hash of the key"
                    );
                    (h, true)
                }
                _ => hasher.hash_routed(key.as_ref()),
            };
            buckets[i] = self.bucket_of(hashes[i]);
            prefetch(&self.heads[buckets[i]]);
        }
        for (i, &idx) in slots.iter().enumerate() {
            let bucket = buckets[i];
            let e = &mut self.entries[idx as usize];
            e.hash = hashes[i];
            e.set_vouched(vouched[i]);
            e.set_next(live, self.heads[bucket]);
            self.heads[bucket] = idx;
            if let Some(counts) = counts {
                counts[bucket] += 1;
                self.note_chain(counts[bucket] as usize);
            }
        }
    }

    /// Puts `mig` back while it still files entries; otherwise retires the
    /// epoch, which makes the slots freed during it reusable.
    fn keep_or_close(&mut self, mig: Migration<H>) {
        if mig.old_len > 0 {
            self.migration = Some(mig);
        } else {
            self.stale_reads.reset();
            self.obs.epochs_finished.inc();
        }
    }

    /// Drains the old epoch completely; afterwards
    /// [`RawTable::migration_in_flight`] is false.
    pub(crate) fn finish_migration(&mut self) {
        self.migrate(usize::MAX);
        debug_assert!(self.migration.is_none());
    }

    /// Opportunistic drain for lookup-shaped callers that happen to hold
    /// mutable access: a no-op when no epoch is in flight; a full
    /// [`RawTable::finish_migration`] once [`STALE_READ_LIMIT`] read-only
    /// lookups have probed both epochs (the migration is starving — no
    /// mutating traffic or maintenance is coming to amortize it); the
    /// [`DRAIN_PER_OP`] entries a mutating operation pays otherwise.
    pub(crate) fn drain_on_read(&mut self) {
        if self.migration.is_none() {
            return;
        }
        if self.stale_reads.get() >= STALE_READ_LIMIT {
            self.finish_migration();
        } else {
            self.migrate(DRAIN_PER_OP);
        }
    }

    /// Read-only lookups that probed a still-open epoch (0 when none is in
    /// flight — the counter resets when the epoch drains).
    pub(crate) fn stale_reads(&self) -> u64 {
        self.stale_reads.get()
    }

    /// Whether an epoch is currently being drained.
    pub(crate) fn migration_in_flight(&self) -> bool {
        self.migration.is_some()
    }

    /// Fraction of the opened epoch already drained: 1.0 when no migration
    /// is in flight, monotone non-decreasing while one is.
    pub(crate) fn migration_progress(&self) -> f64 {
        match &self.migration {
            None => 1.0,
            Some(m) => 1.0 - m.old_len as f64 / m.initial.max(1) as f64,
        }
    }

    pub(crate) fn policy(&self) -> BucketPolicy {
        self.policy
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn bucket_count(&self) -> usize {
        self.heads.len()
    }

    pub(crate) fn load_factor(&self) -> f64 {
        self.len as f64 / self.heads.len() as f64
    }

    pub(crate) fn max_load_factor(&self) -> f64 {
        self.max_load_factor
    }

    pub(crate) fn set_max_load_factor(&mut self, mlf: f64) {
        assert!(mlf > 0.0, "max load factor must be positive");
        self.max_load_factor = mlf;
        if self.load_factor() > mlf {
            let target = grow_bucket_count(self.heads.len() as u64, self.len, mlf);
            self.rehash(target as usize);
        }
    }

    #[inline]
    pub(crate) fn hash_of(&self, key: &[u8]) -> u64 {
        self.hasher.hash_bytes(key)
    }

    #[inline]
    fn bucket_of(&self, hash: u64) -> usize {
        self.policy
            .bucket_in(hash, self.heads.len() as u64, self.recip)
    }

    /// Issues a software prefetch for the bucket `hash` maps to: the head
    /// slot and, when already resident, the first chain entry. Batched
    /// lookups hash a whole batch first, prefetch every target bucket, then
    /// probe — by probe time the cache misses have overlapped instead of
    /// serializing.
    #[inline]
    pub(crate) fn prefetch_bucket(&self, hash: u64) {
        let bucket = self.bucket_of(hash);
        prefetch(&self.heads[bucket]);
        let at = self.heads[bucket];
        if at != NONE {
            prefetch(&self.entries[at as usize]);
        }
    }

    /// One bucket chain to walk: its bucket and head, the link that
    /// threads it, and the slots from `swept` on, which belong to the live
    /// epoch and so are passed over (none for a live chain, those from the
    /// sweep cursor on for an old one).
    #[inline]
    fn live_chain(&self, hash: u64) -> Chain {
        let bucket = self.bucket_of(hash);
        Chain {
            bucket,
            head: self.heads[bucket],
            link: self.live,
            swept: NONE,
        }
    }

    /// Walks `chain` to its first entry with the probe's hash that holds
    /// its key, or to its end: the one walk behind lookups, inserts (which
    /// append after a miss's last entry) and removals (which unlink after
    /// a hit's predecessor).
    #[inline]
    fn walk(&self, chain: Chain, probe: Probe<'_>) -> Walk {
        let mut prev = NONE;
        let mut at = chain.head;
        let mut probes = 0;
        while at != NONE {
            probes += 1;
            let e = &self.entries[at as usize];
            if e.hash == probe.hash && at < chain.swept && e.holds(probe) {
                return Walk {
                    found: Some(at),
                    prev,
                    probes,
                };
            }
            prev = at;
            at = e.next(chain.link);
        }
        Walk {
            found: None,
            prev,
            probes,
        }
    }

    /// The probe for `key` in the live epoch: its live hash and route.
    #[inline]
    fn live_probe<'k>(&self, key: &'k [u8]) -> Probe<'k> {
        let (hash, vouched) = self.hasher.hash_routed(key);
        Probe { hash, vouched, key }
    }

    /// The old-epoch chain for `key` and the probe routed through the old
    /// epoch's hasher, when a migration is in flight.
    #[inline]
    fn old_epoch_probe<'k>(&self, key: &'k [u8]) -> Option<(Chain, Probe<'k>)> {
        let mig = self.migration.as_ref()?;
        let (hash, vouched) = mig.old_hasher.hash_routed(key);
        let bucket = self
            .policy
            .bucket_in(hash, mig.old_heads.len() as u64, mig.old_recip);
        let chain = Chain {
            bucket,
            head: mig.old_heads[bucket],
            link: !self.live,
            swept: mig.cursor,
        };
        Some((chain, Probe { hash, vouched, key }))
    }

    /// [`RawTable::find`] with the hash already computed (batched lookups
    /// hash up front). The hash carries no route, so every hash match
    /// compares key bytes, which agrees with `Eq` for every key type the
    /// containers accept. While a migration is in flight, a miss in the
    /// live epoch falls through to the old one.
    ///
    /// Every lookup records its probe length into `probe_len`, in every
    /// build: the storm detector's probe-tail signal reads that window.
    /// All per-lookup bumps here are single-writer (a load and a store, no
    /// locked instruction), so the counts are exact whenever one thread
    /// drives the table. Concurrent readers of one table (a `ShardedMap`
    /// shard under its read lock, or a map shared by reference across
    /// threads) may lose increments; the detector judges a quantile of the
    /// window, which a few lost observations do not move.
    #[inline]
    pub(crate) fn find_hashed(&self, hash: u64, key_bytes: &[u8]) -> Option<u32> {
        let probe = Probe {
            hash,
            vouched: false,
            key: key_bytes,
        };
        self.find_probed(probe).0
    }

    /// Finds `probe`'s key, live epoch first, and also returns the walk of
    /// the live chain: on a miss, its length and last entry are those of
    /// the chain a new entry for the key joins.
    #[inline]
    fn find_probed(&self, probe: Probe<'_>) -> (Option<u32>, Walk) {
        if self.migration.is_some() {
            self.stale_reads.record();
            self.epoch_ops.record();
            self.obs.stale_probes.add_single_writer(1);
        }
        let live = self.walk(self.live_chain(probe.hash), probe);
        let mut probes = live.probes;
        let found = live.found.or_else(|| {
            let (chain, old) = self.old_epoch_probe(probe.key)?;
            let walk = self.walk(chain, old);
            probes += walk.probes;
            walk.found
        });
        self.obs.probe_len.observe_single_writer(probes);
        (found, live)
    }

    /// Number of entries in the live chain starting at `at`: the walk
    /// the epoch's bucket counts replaced, kept as their reference.
    #[cfg(test)]
    fn chain_len(&self, mut at: u32) -> usize {
        let mut n = 0;
        while at != NONE {
            n += 1;
            at = self.entries[at as usize].next(self.live);
        }
        n
    }

    /// Raises the chain bound to cover a live chain of `len` entries.
    #[inline]
    fn note_chain(&mut self, len: usize) {
        if let Some(bound) = &mut self.chain_bound {
            *bound = (*bound).max(len);
        }
    }

    /// [`RawTable::insert_unique`] with the hash already computed (batched
    /// inserts hash up front). The caller must have computed `hash` with
    /// this table's hasher; with no route to go on, the probe compares
    /// bytes and a new entry is filed unvouched.
    pub(crate) fn insert_unique_hashed(&mut self, hash: u64, key: K, value: V) -> Option<V> {
        self.insert_probed(hash, false, key, value)
    }

    /// Map-semantics insert of `key` under `hash`, vouched for or not. A
    /// new key is appended after the last entry its miss walked, so its
    /// chain keeps insertion order.
    ///
    /// Drains once, before the probe: a drain between the probe and the
    /// link could grow the probed chain unseen, and the new entry joins
    /// exactly the chain its miss walked. A resize in between relinks
    /// every chain, so the insert walks its new chain to the end again
    /// (the resize forgets the bound anyway). The probe, not the drain,
    /// counts the insert on the maintenance clock.
    fn insert_probed(&mut self, hash: u64, vouched: bool, key: K, value: V) -> Option<V> {
        self.migrate(DRAIN_PER_OP);
        let probe = Probe {
            hash,
            vouched,
            key: key.as_ref(),
        };
        let (found, live) = self.find_probed(probe);
        if let Some(idx) = found {
            let slot = &mut self.get_kv_mut(idx).1;
            return Some(std::mem::replace(slot, value));
        }
        let tail = if self.reserve_one() {
            self.walk(self.live_chain(hash), probe).prev
        } else {
            live.prev
        };
        self.link_new(hash, vouched, key, value, tail);
        self.note_chain(live.probes as usize + 1);
        None
    }

    /// Finds the arena index of the first entry matching `key`, in either
    /// epoch. Keys compare by their bytes, which agrees with `Eq` for every
    /// key type the containers accept.
    #[inline]
    pub(crate) fn find<Q>(&self, key: &Q) -> Option<u32>
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.find_probed(self.live_probe(key.as_ref())).0
    }

    pub(crate) fn get_kv(&self, idx: u32) -> &(K, V) {
        self.entries[idx as usize].kv.as_ref().expect("live entry")
    }

    pub(crate) fn get_kv_mut(&mut self, idx: u32) -> &mut (K, V) {
        self.entries[idx as usize].kv.as_mut().expect("live entry")
    }

    /// Inserts without checking for an existing equal key (multimap
    /// semantics). Nothing walks the chain, so the entry is linked at its
    /// head, not appended: a rehash or a drain later puts it in slot order.
    pub(crate) fn insert_multi(&mut self, key: K, value: V) {
        self.pay_drain();
        self.reserve_one();
        let (hash, vouched) = self.hasher.hash_routed(key.as_ref());
        if !self.link_new(hash, vouched, key, value, NONE) {
            // No probe and no epoch's count, so no chain length to bound
            // with.
            self.chain_bound = None;
        }
    }

    /// Map semantics: replaces the value of an existing equal key. Hashes
    /// the key once, so a guarded hasher counts it once.
    pub(crate) fn insert_unique(&mut self, key: K, value: V) -> Option<V> {
        let (hash, vouched) = self.hasher.hash_routed(key.as_ref());
        self.insert_probed(hash, vouched, key, value)
    }

    /// Makes room for `additional` more entries: a prime bucket count that
    /// holds them under the maximum load factor, and as many arena slots.
    /// Counting slots from the arena's end covers the worst case, an open
    /// epoch, where every insert appends; outside one, freed slots are
    /// reused first and the reserve is slack.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let required = self.len + additional;
        if required as f64 > self.max_load_factor * self.heads.len() as f64 {
            let target = grow_bucket_count(self.heads.len() as u64, required, self.max_load_factor);
            self.rehash(target as usize);
        }
        self.entries.reserve(additional);
    }

    /// Arena slots allocated, occupied or not.
    #[cfg(test)]
    pub(crate) fn arena_capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Resizes for one more entry when it would exceed the maximum load
    /// factor; returns whether it did, which relinks every live chain.
    fn reserve_one(&mut self) -> bool {
        let grow = (self.len + 1) as f64 > self.max_load_factor * self.heads.len() as f64;
        if grow {
            let target =
                grow_bucket_count(self.heads.len() as u64, self.len + 1, self.max_load_factor);
            self.rehash(target as usize);
        }
        grow
    }

    /// Files a new entry in the live epoch, vouched for or not as the
    /// live hasher routed it: after the entry `after` of its chain, or at
    /// the chain's head when `after` is `NONE`. A free slot is reused only
    /// while no epoch is open: mid-epoch, a freed slot may still be
    /// threaded in an old chain, and the sweep reads every occupied slot
    /// below its cursor as an old-epoch entry. Returns whether an open
    /// epoch's count of the joined chain bounded it.
    fn link_new(&mut self, hash: u64, vouched: bool, key: K, value: V, after: u32) -> bool {
        let bucket = self.bucket_of(hash);
        let mut entry = Entry {
            hash,
            links: [NONE; 2],
            kv: Some((key, value)),
        };
        entry.set_vouched(vouched);
        let next = match after {
            NONE => self.heads[bucket],
            at => self.entries[at as usize].next(self.live),
        };
        entry.set_next(self.live, next);
        let idx = if self.free_head != NONE && self.migration.is_none() {
            let idx = self.free_head;
            self.free_head = self.entries[idx as usize].hash as u32;
            self.entries[idx as usize] = entry;
            idx
        } else {
            let idx = u32::try_from(self.entries.len())
                .ok()
                .filter(|&idx| idx < NONE)
                .expect("a table holds at most 2^31 - 1 entry slots");
            self.entries.push(entry);
            idx
        };
        match after {
            NONE => self.heads[bucket] = idx,
            at => self.entries[at as usize].set_next(self.live, idx),
        }
        self.len += 1;
        let Some(counts) = self.live_counts() else {
            return false;
        };
        counts[bucket] += 1;
        let n = counts[bucket] as usize;
        self.note_chain(n);
        true
    }

    /// The open epoch's live bucket counts, when it keeps them.
    #[inline]
    fn live_counts(&mut self) -> Option<&mut Vec<u32>> {
        self.migration.as_mut()?.counts.as_mut()
    }

    /// Removes the first entry matching `key`, returning its pair. Probes
    /// the live epoch, then (during a migration) the old one.
    pub(crate) fn remove_one<Q>(&mut self, key: &Q) -> Option<(K, V)>
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        self.pay_drain();
        let probe = self.live_probe(key.as_ref());
        let chain = self.live_chain(probe.hash);
        let walk = self.walk(chain, probe);
        let (prev, Some(at)) = (walk.prev, walk.found) else {
            return self.remove_one_old_epoch(key);
        };
        let next = self.entries[at as usize].next(chain.link);
        if prev == NONE {
            self.heads[chain.bucket] = next;
        } else {
            self.entries[prev as usize].set_next(chain.link, next);
        }
        if let Some(counts) = self.live_counts() {
            counts[chain.bucket] -= 1;
        }
        Some(self.free_entry(at))
    }

    /// Puts the (already unlinked) slot `at` on the free list and returns
    /// its pair. The slot keeps its links, so an old chain that still
    /// threads it stays walkable, and loses its vouched bit.
    fn free_entry(&mut self, at: u32) -> (K, V) {
        let e = &mut self.entries[at as usize];
        let kv = e.kv.take().expect("live entry");
        e.set_vouched(false);
        e.hash = u64::from(self.free_head);
        self.free_head = at;
        self.len -= 1;
        kv
    }

    /// The old-epoch leg of [`RawTable::remove_one`]: only unswept slots
    /// (below the cursor) match, since a swept entry would have been found
    /// in the live epoch.
    fn remove_one_old_epoch<Q>(&mut self, key: &Q) -> Option<(K, V)>
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        let (chain, probe) = self.old_epoch_probe(key.as_ref())?;
        let walk = self.walk(chain, probe);
        let (prev, at) = (walk.prev, walk.found?);
        let next = self.entries[at as usize].next(chain.link);
        let mut mig = self.migration.take().expect("epoch in flight");
        if prev == NONE {
            mig.old_heads[chain.bucket] = next;
        } else {
            self.entries[prev as usize].set_next(chain.link, next);
        }
        mig.old_len -= 1;
        let kv = self.free_entry(at);
        self.keep_or_close(mig);
        Some(kv)
    }

    /// Removes every entry matching `key` (multimap `erase(key)`), returning
    /// how many were removed.
    pub(crate) fn remove_all<Q>(&mut self, key: &Q) -> usize
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        let mut removed = 0;
        while self.remove_one(key).is_some() {
            removed += 1;
        }
        removed
    }

    /// Counts the entries of `chain` holding `probe`'s key.
    fn count_in_chain(&self, chain: Chain, probe: Probe<'_>) -> usize {
        let mut n = 0;
        let mut at = chain.head;
        while at != NONE {
            let e = &self.entries[at as usize];
            if e.hash == probe.hash && at < chain.swept && e.holds(probe) {
                n += 1;
            }
            at = e.next(chain.link);
        }
        n
    }

    /// Number of live entries equal to `key`, summed over both epochs.
    pub(crate) fn count<Q>(&self, key: &Q) -> usize
    where
        Q: ?Sized + Eq + AsRef<[u8]>,
        K: Borrow<Q>,
    {
        let probe = self.live_probe(key.as_ref());
        let mut n = self.count_in_chain(self.live_chain(probe.hash), probe);
        if let Some((chain, old)) = self.old_epoch_probe(key.as_ref()) {
            self.epoch_ops.record();
            n += self.count_in_chain(chain, old);
        }
        n
    }

    pub(crate) fn clear(&mut self) {
        self.heads.iter_mut().for_each(|h| *h = NONE);
        self.entries.clear();
        self.free_head = NONE;
        self.len = 0;
        // A discarded epoch still counts as retired, so opened/finished
        // stay balanced for metric cross-checks.
        if self.migration.is_some() {
            self.obs.epochs_finished.inc();
        }
        self.migration = None;
        self.chain_bound = Some(0);
        self.stale_reads.reset();
    }

    /// Resizes the live epoch to `bucket_count` buckets, relinking slots
    /// highest first at the chain heads, so every chain lists its slots in
    /// ascending order. Mid-epoch, the unswept slots keep their old-plan
    /// hashes and old chains; only the slots the live epoch owns (from the
    /// cursor on) relink, and the epoch drops its bucket counts. An empty
    /// table relinks nothing and keeps its bound of 0, so a `reserve`
    /// ahead of the first insert costs no tick a walk.
    pub(crate) fn rehash(&mut self, bucket_count: usize) {
        self.chain_bound = if self.len == 0 { Some(0) } else { None };
        let bucket_count = bucket_count.max(1);
        self.heads = vec![NONE; bucket_count];
        self.recip = reciprocal(bucket_count as u64);
        let recip = self.recip;
        let (policy, live) = (self.policy, self.live);
        let swept = self.migration.as_mut().map_or(0, |m| {
            m.counts = None;
            m.cursor as usize
        });
        for idx in (swept..self.entries.len()).rev() {
            let e = &mut self.entries[idx];
            if e.kv.is_none() {
                continue;
            }
            let bucket = policy.bucket_in(e.hash, bucket_count as u64, recip);
            e.set_next(live, self.heads[bucket]);
            self.heads[bucket] = idx as u32;
        }
        // Rebuild the free list over dead slots, lowest first.
        self.free_head = NONE;
        for idx in (0..self.entries.len()).rev() {
            if self.entries[idx].kv.is_none() {
                self.entries[idx].hash = u64::from(self.free_head);
                self.free_head = idx as u32;
            }
        }
    }

    /// Number of live entries in bucket `i` of the *live* epoch (entries
    /// still awaiting migration are not counted — finish the migration
    /// first for whole-table bucket statistics).
    pub(crate) fn bucket_len(&self, i: usize) -> usize {
        let mut at = self.heads[i];
        let mut n = 0;
        while at != NONE {
            let e = &self.entries[at as usize];
            if e.kv.is_some() {
                n += 1;
            }
            at = e.next(self.live);
        }
        n
    }

    /// Length of the longest live bucket chain — the bucket-occupancy
    /// skew signal of the collision-storm detector. A flood lands its
    /// crafted keys in the live epoch (they are fresh inserts), so
    /// ignoring a draining old epoch keeps the signal honest during an
    /// escalation migration.
    pub(crate) fn max_bucket_len(&self) -> usize {
        (0..self.heads.len())
            .map(|i| self.bucket_len(i))
            .max()
            .unwrap_or(0)
    }

    /// The longest live chain as the storm detector needs it: the O(1)
    /// chain bound while it is known and `could_trip(bound)` is false,
    /// otherwise the exact [`RawTable::max_bucket_len`] walk, whose result
    /// becomes the new bound. Mid-epoch the walk's per-bucket lengths
    /// become the epoch's counts, which the drain raises the bound from.
    /// `could_trip` must be monotone in the chain length, so a bound that
    /// cannot trip means the exact length cannot.
    pub(crate) fn longest_chain(&mut self, could_trip: impl Fn(usize) -> bool) -> usize {
        if let Some(bound) = self.chain_bound {
            if !could_trip(bound) {
                return bound;
            }
        }
        let exact = if let Some(mut mig) = self.migration.take() {
            let mut lens = zeroed(mig.counts.take(), self.heads.len());
            for (i, n) in lens.iter_mut().enumerate() {
                *n = self.bucket_len(i) as u32;
            }
            let exact = lens.iter().max().map_or(0, |&n| n as usize);
            mig.counts = Some(lens);
            self.migration = Some(mig);
            exact
        } else {
            self.max_bucket_len()
        };
        self.chain_bound = Some(exact);
        exact
    }

    /// Whether the stored entries, in both epochs, filed under `hasher` in
    /// the live bucket array, would form a chain whose length `skewed`
    /// accepts. The storm detector asks it once per quiet streak, to learn
    /// whether a routing it would return to still looks flooded.
    ///
    /// Scans the arena newest slot first, counting per bucket, and stops
    /// at the first count `skewed` accepts: a flood is the newest thing in
    /// a table, so a resident one is found after a few dozen hashes. The
    /// verdict is that of the longest chain whenever `skewed` is monotone
    /// in the length (a bucket that trips it on the way to its full count
    /// trips it at that count too); only a table that is not skewed
    /// hashes every key, and none does when even a chain of every entry
    /// would not be. A vouched entry whose epoch's routing `hasher` maps
    /// from ([`ByteHash::refile_map`]) takes the map of its cached hash,
    /// without reading its key.
    pub(crate) fn chain_skewed_under(&self, hasher: &H, skewed: impl Fn(usize) -> bool) -> bool {
        if !skewed(self.len) {
            return false;
        }
        let live_map = hasher.refile_map(&self.hasher);
        let (old_map, old_slots) = self.migration.as_ref().map_or((None, 0..0), |m| {
            (hasher.refile_map(&m.old_hasher), 0..m.cursor)
        });
        let buckets = self.heads.len();
        let mut counts = vec![0u32; buckets];
        self.entries.iter().enumerate().rev().any(|(idx, e)| {
            e.kv.as_ref().is_some_and(|(key, _)| {
                let map = if old_slots.contains(&(idx as u32)) {
                    old_map
                } else {
                    live_map
                };
                let hash = match map {
                    Some(map) if e.vouched() => {
                        let h = map.map(e.hash);
                        debug_assert_eq!(h, hasher.hash_bytes(key.as_ref()), "a mapped hash");
                        h
                    }
                    _ => hasher.hash_bytes(key.as_ref()),
                };
                let n = &mut counts[self.bucket_of(hash)];
                *n += 1;
                skewed(*n as usize)
            })
        })
    }

    /// Length of the longest chain the stored entries would form under
    /// `hasher`: the full count [`RawTable::chain_skewed_under`] stops
    /// short of, kept as the reference its verdict is tested against.
    #[cfg(test)]
    pub(crate) fn longest_chain_under(&self, hasher: &H) -> usize {
        let buckets = self.heads.len();
        let mut counts = vec![0usize; buckets];
        for (key, _) in self.iter() {
            let bucket = self
                .policy
                .bucket_of(hasher.hash_bytes(key.as_ref()), buckets as u64);
            counts[bucket as usize] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// The current chain bound (`None` when unknown).
    pub(crate) fn chain_bound(&self) -> Option<usize> {
        self.chain_bound
    }

    /// Σ over buckets of `max(0, bucket_len - 1)` — the bucket-collision
    /// count of Section 4.2 ("iterate over the buckets logging the number
    /// of keys inside the same bucket").
    pub(crate) fn bucket_collisions(&self) -> u64 {
        (0..self.heads.len())
            .map(|i| self.bucket_len(i).saturating_sub(1) as u64)
            .sum()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries
            .iter()
            .filter_map(|e| e.kv.as_ref().map(|(k, v)| (k, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hasher whose chains a test can steer: `Const` files every key in
    /// one bucket, `Fnv` spreads them (FNV-1a of the bytes, xor a salt);
    /// neither vouches. `Word` hashes an 8-byte key to its bytes as a word
    /// (xor a salt) and vouches for it, which is sound, and every other
    /// key like `Fnv`. `Claim` files every key in one bucket *and* vouches
    /// for all of them, which is unsound: a test uses it to see which
    /// matches the hash alone decides.
    #[derive(Debug, Clone, Copy)]
    enum TestHash {
        Const(u64),
        Fnv(u64),
        Word(u64),
        Claim(u64),
    }

    fn fnv(key: &[u8]) -> u64 {
        key.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    impl ByteHash for TestHash {
        fn hash_bytes(&self, key: &[u8]) -> u64 {
            self.hash_routed(key).0
        }

        fn hash_routed(&self, key: &[u8]) -> (u64, bool) {
            match *self {
                TestHash::Const(h) => (h, false),
                TestHash::Fnv(salt) => (fnv(key) ^ salt, false),
                TestHash::Word(salt) => match <[u8; 8]>::try_from(key) {
                    Ok(word) => (u64::from_le_bytes(word) ^ salt, true),
                    Err(_) => (fnv(key) ^ salt, false),
                },
                TestHash::Claim(h) => (h, true),
            }
        }
    }

    type Table = RawTable<Vec<u8>, u32, TestHash>;

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:04}").into_bytes()
    }

    /// A table of `n` keys, all in one bucket chain, with an epoch open
    /// that re-files them under a spreading hasher.
    fn colliding_epoch(n: u32) -> Table {
        let mut t = RawTable::new(TestHash::Const(7), BucketPolicy::Modulo);
        for i in 0..n {
            t.insert_unique(key(i), i);
        }
        *t.hasher_mut() = TestHash::Fnv(1);
        t.begin_migration(Some(TestHash::Const(7)), TestHash::Fnv(1));
        t
    }

    /// Appends key `i` to its live chain under the live hasher's route
    /// without draining first.
    fn link(t: &mut Table, i: u32) {
        let k = key(i);
        let (hash, vouched) = t.hasher.hash_routed(&k);
        let probe = Probe {
            hash,
            vouched,
            key: &k,
        };
        let tail = t.walk(t.live_chain(hash), probe).prev;
        t.link_new(hash, vouched, key(i), i, tail);
    }

    /// Slots a chain array threads through link `link`, with multiplicity.
    fn threaded(t: &Table, heads: &[u32], link: bool) -> Vec<u32> {
        let mut seen = vec![0u32; t.entries.len()];
        for &head in heads {
            let mut at = head;
            while at != NONE {
                seen[at as usize] += 1;
                at = t.entries[at as usize].next(link);
            }
        }
        seen
    }

    /// An entry's cached hash is its epoch hasher's, and it is vouched for
    /// only if that hasher vouches for its key (a batched insert files a
    /// vouched key unvouched).
    fn assert_filed(e: &Entry<Vec<u8>, u32>, (hash, vouched): (u64, bool), idx: usize) {
        assert_eq!(e.hash, hash, "slot {idx}");
        assert!(
            vouched || !e.vouched(),
            "slot {idx} is vouched for unrouted"
        );
    }

    /// The sweep's prefix partition, checked slot by slot: an occupied
    /// slot from the cursor on sits exactly once in the live chains under
    /// its live hash; one below the cursor sits exactly once in the old
    /// chains under its old hash; no slot appended since the epoch opened
    /// sits in an old chain; dead slots sit in no live chain, exactly once
    /// on the free list, and unvouched.
    fn assert_partition(t: &Table) {
        let live = threaded(t, &t.heads, t.live);
        let (old, swept) = match &t.migration {
            Some(m) => (threaded(t, &m.old_heads, !t.live), m.cursor as usize),
            None => (vec![0; t.entries.len()], 0),
        };
        let mut free = vec![0u32; t.entries.len()];
        let mut at = t.free_head;
        while at != NONE {
            free[at as usize] += 1;
            at = t.entries[at as usize].hash as u32;
        }
        let mut occupied = 0;
        let mut unswept = 0;
        for (idx, e) in t.entries.iter().enumerate() {
            let Some((k, _)) = &e.kv else {
                assert_eq!((live[idx], free[idx]), (0, 1), "dead slot {idx}");
                assert!(!e.vouched(), "dead slot {idx} is vouched for");
                continue;
            };
            occupied += 1;
            assert_eq!(free[idx], 0, "occupied slot {idx} on the free list");
            if idx < swept {
                unswept += 1;
                let m = t.migration.as_ref().unwrap();
                assert_eq!((live[idx], old[idx]), (0, 1), "old-epoch slot {idx}");
                assert_filed(e, m.old_hasher.hash_routed(k), idx);
            } else {
                assert_eq!(live[idx], 1, "live-epoch slot {idx}");
                assert_filed(e, t.hasher.hash_routed(k), idx);
            }
        }
        assert_eq!(t.len, occupied);
        if let Some(m) = &t.migration {
            assert_eq!(m.old_len, unswept);
            assert!(
                old[m.opened_at as usize..].iter().all(|&n| n == 0),
                "an old chain reaches a slot appended since the epoch opened"
            );
            // The epoch's bucket counts are the live chains' lengths, and
            // a known bound mid-epoch always has counts to grow from.
            match &m.counts {
                Some(counts) => {
                    for (i, &n) in counts.iter().enumerate() {
                        assert_eq!(n as usize, t.bucket_len(i), "count of bucket {i}");
                    }
                }
                None => assert_eq!(t.chain_bound, None, "a bound without counts"),
            }
        }
        if let Some(bound) = t.chain_bound {
            assert!(bound >= t.max_bucket_len(), "bound {bound} is not a bound");
        }
    }

    /// The one-entry-at-a-time drain the batched one replaced: the
    /// reference its chains, hashes, cursor and bound are checked against.
    fn drain_one_by_one(t: &mut Table, budget: usize) {
        let Some(mut mig) = t.migration.take() else {
            return;
        };
        let live = t.live;
        let stop = (mig.cursor as usize)
            .saturating_sub(budget.saturating_mul(SWEEP_SLOTS_PER_ENTRY)) as u32;
        let want = budget.min(mig.old_len);
        let mut moved = 0;
        while moved < want && mig.cursor > stop {
            mig.cursor -= 1;
            let idx = mig.cursor;
            let Some((key, _)) = &t.entries[idx as usize].kv else {
                continue;
            };
            let (hash, vouched) = mig.rehasher.hash_routed(key);
            let bucket = t.bucket_of(hash);
            let e = &mut t.entries[idx as usize];
            e.hash = hash;
            e.set_vouched(vouched);
            e.set_next(live, t.heads[bucket]);
            t.heads[bucket] = idx;
            if t.chain_bound.is_some() {
                t.note_chain(t.chain_len(idx));
            }
            moved += 1;
        }
        mig.old_len -= moved;
        t.keep_or_close(mig);
    }

    /// The live chain from `head`, as its slot sequence.
    fn slots_from(t: &Table, head: u32) -> Vec<u32> {
        let mut chain = Vec::new();
        let mut at = head;
        while at != NONE {
            assert!(chain.len() < t.entries.len(), "a live chain cycles");
            chain.push(at);
            at = t.entries[at as usize].next(t.live);
        }
        chain
    }

    /// Every live chain of `t`, as the slot sequence from its head.
    fn live_chains(t: &Table) -> Vec<Vec<u32>> {
        t.heads.iter().map(|&head| slots_from(t, head)).collect()
    }

    #[test]
    fn a_batched_drain_links_exactly_as_one_at_a_time() {
        for budget in [1, 3, 16, 17, usize::MAX] {
            // A high load factor makes every chain a drained entry joins
            // long enough to move the bound; dead slots, a run of them
            // longer than a small batch's scan, and mid-epoch inserts sit
            // in the sweep's way.
            let mut t = RawTable::new(TestHash::Fnv(0), BucketPolicy::Modulo);
            t.set_max_load_factor(24.0);
            for i in 0..600 {
                t.insert_unique(key(i), i);
            }
            for i in (0..600).filter(|i| i % 7 == 2 || (200..230).contains(i)) {
                t.remove_one(&key(i)[..]);
            }
            // The new hasher vouches for every key: the drain must set
            // each entry's bit as it re-files it.
            *t.hasher_mut() = TestHash::Word(1);
            t.begin_migration(Some(TestHash::Fnv(0)), TestHash::Word(1));
            for i in 600..620 {
                t.insert_unique(key(i), i);
            }
            let mut reference = t.clone();
            let mut calls = 0;
            while t.migration_in_flight() {
                t.migrate(budget);
                drain_one_by_one(&mut reference, budget);
                calls += 1;
                assert_eq!(
                    threaded(&t, &t.heads, t.live),
                    threaded(&reference, &reference.heads, reference.live),
                    "budget {budget}, call {calls}"
                );
                assert_eq!(live_chains(&t), live_chains(&reference), "budget {budget}");
                let hashes = |t: &Table| {
                    t.entries
                        .iter()
                        .map(|e| (e.hash, e.vouched()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(hashes(&t), hashes(&reference), "budget {budget}");
                assert_eq!(
                    t.migration.as_ref().map(|m| (m.cursor, m.old_len)),
                    reference.migration.as_ref().map(|m| (m.cursor, m.old_len)),
                    "budget {budget}, call {calls}"
                );
                assert_eq!(t.chain_bound(), reference.chain_bound(), "budget {budget}");
                let bound = t.chain_bound().expect("a drain keeps the bound");
                assert!(bound >= t.max_bucket_len(), "budget {budget}, call {calls}");
                assert_partition(&t);
            }
            assert!(!reference.migration_in_flight());
            assert_eq!(
                calls == 1,
                budget == usize::MAX,
                "budget {budget}: {calls} calls"
            );
        }
    }

    #[test]
    fn a_transition_over_a_half_drained_epoch_refiles_only_its_swept_side() {
        let mut t = colliding_epoch(300);
        t.migrate(40);
        for i in 300..310 {
            t.insert_unique(key(i), i);
        }
        t.remove_one(&key(3)[..]);
        t.remove_one(&key(305)[..]);
        let mig = t.migration.as_ref().expect("epoch in flight");
        let (cursor, old_len) = (mig.cursor, mig.old_len);
        assert!(old_len < 300 && cursor > 0, "the epoch is half drained");
        let opened = t.obs.epochs_opened.get();
        let drained = t.obs.drain_ops.get();
        // The next routing vouches for every 8-byte key: the re-filed
        // entries must take its route, the unswept ones keep the old one.
        *t.hasher_mut() = TestHash::Word(2);
        assert!(!t.opens_epoch(), "the transition merges");
        t.begin_migration(None, TestHash::Word(2));
        let mig = t.migration.as_ref().expect("the epoch stays open");
        assert_eq!((mig.cursor, mig.old_len), (cursor, old_len));
        assert!(
            matches!(mig.old_hasher, TestHash::Const(7)),
            "old filing kept"
        );
        assert!(matches!(mig.rehasher, TestHash::Word(2)), "re-targeted");
        assert_eq!(t.obs.epochs_opened.get(), opened, "no epoch opened");
        assert_eq!(t.obs.drain_ops.get(), drained, "nothing left the old epoch");
        // The swept side and the inserts since `end`, minus the removed
        // ones, are the whole live epoch, exactly counted.
        let live_len: usize = (0..t.bucket_count()).map(|i| t.bucket_len(i)).sum();
        assert_eq!(live_len, t.len() - old_len);
        assert_eq!(t.chain_bound(), Some(t.max_bucket_len()));
        assert_partition(&t);
        // The unswept entries drain straight to the newest routing, once.
        t.finish_migration();
        assert_partition(&t);
        assert_eq!(t.obs.drain_ops.get(), drained + old_len as u64);
        assert_eq!(t.obs.epochs_finished.get(), opened);
        for i in (0..310).filter(|&i| i != 3 && i != 305) {
            assert_eq!(t.find(&key(i)[..]).map(|at| t.get_kv(at).1), Some(i));
        }
        // An empty table opens no epoch and keeps its bound.
        let mut empty: Table = RawTable::new(TestHash::Fnv(0), BucketPolicy::Modulo);
        assert!(!empty.opens_epoch());
        empty.begin_migration(None, TestHash::Fnv(1));
        assert!(!empty.migration_in_flight());
        assert_eq!(empty.chain_bound(), Some(0));
    }

    #[test]
    fn the_epoch_counts_bound_every_chain_through_removes_resizes_and_walks() {
        let mut t = RawTable::new(TestHash::Const(7), BucketPolicy::Modulo);
        t.reserve(1400);
        for i in 0..1000 {
            t.insert_unique(key(i), i);
        }
        *t.hasher_mut() = TestHash::Fnv(1);
        t.begin_migration(Some(TestHash::Const(7)), TestHash::Fnv(1));
        t.migrate(30);
        assert_partition(&t);
        for i in 1000..1040 {
            t.insert_unique(key(i), i);
            t.insert_multi(key(i + 1000), i);
            assert!(t.migration_in_flight());
            assert!(t.chain_bound().is_some(), "the counts bound insert {i}");
        }
        for i in (0..1040).step_by(11) {
            t.remove_one(&key(i)[..]);
        }
        assert_partition(&t);
        // A resize drops the counts and forgets the bound; a walk brings
        // both back, and the drain keeps them from there.
        t.rehash(2 * t.bucket_count() + 1);
        assert_eq!(t.chain_bound(), None);
        assert!(t.migration.as_ref().unwrap().counts.is_none());
        t.migrate(20);
        assert_partition(&t);
        let exact = t.longest_chain(|_| true);
        assert_eq!(exact, t.max_bucket_len());
        assert_partition(&t);
        while t.migration_in_flight() {
            t.migrate(7);
            assert!(t.chain_bound().is_some());
            assert_partition(&t);
        }
    }

    #[test]
    fn a_reserve_ahead_of_the_first_insert_keeps_the_bound() {
        let mut t: Table = RawTable::new(TestHash::Fnv(0), BucketPolicy::Modulo);
        t.reserve(1000);
        assert_eq!(t.chain_bound(), Some(0), "an empty resize keeps the bound");
        for i in 0..1000 {
            t.insert_unique(key(i), i);
        }
        let bound = t.chain_bound().expect("inserts keep the bound");
        assert!(bound >= t.max_bucket_len());
        // A resize of a filled table still forgets it.
        t.reserve(5000);
        assert_eq!(t.chain_bound(), None);
    }

    #[test]
    fn inserts_after_reserve_never_grow_the_arena() {
        let mut t = RawTable::new(TestHash::Fnv(0), BucketPolicy::Modulo);
        t.reserve(1000);
        let (cap, buckets) = (t.arena_capacity(), t.bucket_count());
        assert!(cap >= 1000);
        for i in 0..1000 {
            t.insert_unique(key(i), i);
            assert_eq!(t.arena_capacity(), cap, "insert {i} regrew the arena");
        }
        assert_eq!(t.bucket_count(), buckets);
        // Mid-epoch every insert appends, freed slots or not.
        for i in 0..300 {
            t.remove_one(&key(i)[..]);
        }
        *t.hasher_mut() = TestHash::Fnv(1);
        t.begin_migration(Some(TestHash::Fnv(0)), TestHash::Fnv(1));
        t.reserve(500);
        let cap = t.arena_capacity();
        for i in 1000..1500 {
            t.insert_unique(key(i), i);
            assert_eq!(t.arena_capacity(), cap, "insert {i} regrew the arena");
        }
        assert_partition(&t);
    }

    #[test]
    fn reserve_mid_epoch_reuses_no_slot_freed_during_it() {
        let mut t = colliding_epoch(100);
        t.migrate(4);
        // One swept and one unswept slot freed mid-epoch, then a reserve
        // that resizes, which rebuilds the free list over both.
        t.remove_one(&key(98)[..]);
        t.remove_one(&key(40)[..]);
        let fresh = t.entries.len() as u32;
        t.reserve(4 * t.bucket_count());
        assert!(t.migration_in_flight());
        assert_partition(&t);
        link(&mut t, 100);
        link(&mut t, 101);
        assert_eq!(
            t.find(&key(100)[..]),
            Some(fresh),
            "mid-epoch inserts append"
        );
        assert_eq!(t.find(&key(101)[..]), Some(fresh + 1));
        assert_partition(&t);
        t.finish_migration();
        t.insert_unique(key(102), 102);
        assert_eq!(
            t.find(&key(102)[..]),
            Some(40),
            "a closed epoch frees its slots"
        );
        assert_partition(&t);
    }

    #[test]
    fn the_skew_check_stops_early_with_the_full_counts_verdict() {
        let mut t = RawTable::new(TestHash::Fnv(0), BucketPolicy::Modulo);
        for i in 0..200 {
            t.insert_unique(key(i), i);
        }
        let spread = TestHash::Fnv(0);
        let pile = TestHash::Const(3);
        let longest = t.longest_chain_under(&spread);
        for min in [1, longest, longest + 1, 200, 201] {
            let skewed = |n: usize| n >= min;
            assert_eq!(
                t.chain_skewed_under(&spread, skewed),
                longest >= min,
                "{min}"
            );
            assert_eq!(t.chain_skewed_under(&pile, skewed), 200 >= min, "{min}");
        }
        // The newest-first scan trips after `min` keys of a pile-up.
        let hashed = std::cell::Cell::new(0);
        let counted = |n: usize| {
            hashed.set(hashed.get() + 1);
            n >= 8
        };
        assert!(t.chain_skewed_under(&pile, counted));
        assert_eq!(hashed.get(), 1 + 8, "one bound check, then eight keys");
    }

    #[test]
    fn an_entry_keeps_to_forty_bytes_with_its_second_link() {
        // The second link fills the padding after the first one.
        assert_eq!(std::mem::size_of::<Entry<Box<[u8]>, u64>>(), 40);
    }

    #[test]
    fn key_eq_agrees_with_slice_equality_at_every_length_and_position() {
        for n in 0..=40usize {
            let a: Vec<u8> = (0..n as u8).map(|b| b.wrapping_mul(37)).collect();
            assert!(key_eq(&a, &a.clone()), "{n}");
            assert!(!key_eq(&a, &a[..n.saturating_sub(1)]) || n == 0, "{n}");
            for at in 0..n {
                for flip in [0x01, 0x10, 0x80] {
                    let mut b = a.clone();
                    b[at] ^= flip;
                    assert!(!key_eq(&a, &b), "{n} bytes, byte {at} ^ {flip:#x}");
                }
            }
        }
    }

    #[test]
    fn only_routes_of_the_same_epoch_let_a_hash_match_decide() {
        // `Claim` vouches for every key under one hash: wherever the hash
        // decides, a lookup of an absent key finds the stored one. A
        // batched insert files its entry unvouched, first in the chain: a
        // vouched probe compares it by bytes, and still finds its own key.
        let mut t = RawTable::new(TestHash::Claim(5), BucketPolicy::Modulo);
        assert_eq!(t.insert_unique_hashed(5, key(3), 3), None);
        assert_eq!(t.find(&key(3)[..]), Some(0));
        t.insert_unique(key(1), 1);
        assert_eq!(t.find(&key(2)[..]), Some(1), "vouched probe and entry");
        assert_eq!(
            t.find_hashed(5, &key(2)),
            None,
            "an unrouted probe compares bytes"
        );
        assert_eq!(t.find(&key(3)[..]), Some(0));
        assert_eq!(
            t.count(&key(3)[..]),
            2,
            "its own entry, and key 1's by hash"
        );
        assert_partition(&t);
        // Mid-epoch, the old chain is probed through the old hasher's
        // route: its vouched entry still decides there, while the live
        // epoch's hasher vouches for nothing.
        *t.hasher_mut() = TestHash::Fnv(0);
        t.begin_migration(Some(TestHash::Claim(5)), TestHash::Fnv(0));
        assert_eq!(t.find(&key(9)[..]), Some(1), "old-epoch route");
        assert_partition(&t);
        // The drain re-files both entries under the live route: no match
        // is decided by hash any more.
        t.finish_migration();
        assert_partition(&t);
        assert!(t.entries.iter().all(|e| !e.vouched()));
        assert_eq!(t.find(&key(9)[..]), None);
        assert_eq!(t.find(&key(1)[..]), Some(1));
        // Freeing a vouched slot clears its bit.
        let mut t = RawTable::new(TestHash::Word(0), BucketPolicy::Modulo);
        t.insert_unique(key(4), 4);
        assert!(t.entries[0].vouched());
        assert_eq!(t.remove_one(&key(4)[..]), Some((key(4), 4)));
        assert!(!t.entries[0].vouched());
        assert_partition(&t);
    }

    #[test]
    fn only_a_nonempty_table_without_an_open_epoch_opens_one() {
        let mut t: Table = RawTable::new(TestHash::Fnv(0), BucketPolicy::Modulo);
        assert!(!t.opens_epoch(), "nothing to move");
        t.insert_unique(key(1), 1);
        t.insert_unique(key(2), 2);
        assert!(t.opens_epoch());
        t.begin_migration(Some(TestHash::Fnv(0)), TestHash::Fnv(1));
        assert!(t.migration_in_flight());
        assert!(!t.opens_epoch(), "a transition now merges");
        t.finish_migration();
        assert!(t.opens_epoch());
    }

    #[test]
    fn opening_an_epoch_touches_no_entry() {
        let mut t = RawTable::new(TestHash::Fnv(0), BucketPolicy::Modulo);
        for i in 0..50 {
            t.insert_unique(key(i), i);
        }
        let before: Vec<(u64, [u32; 2])> = t.entries.iter().map(|e| (e.hash, e.links)).collect();
        *t.hasher_mut() = TestHash::Fnv(1);
        t.begin_migration(Some(TestHash::Fnv(0)), TestHash::Fnv(1));
        let after: Vec<(u64, [u32; 2])> = t.entries.iter().map(|e| (e.hash, e.links)).collect();
        assert_eq!(before, after);
        assert_partition(&t);
    }

    #[test]
    fn a_drain_moves_and_scans_within_its_budget() {
        let mut t = colliding_epoch(400);
        // A run of dead slots ahead of the cursor (through the old-epoch
        // leg directly: `remove_one` would drain a stride first).
        for i in 300..340 {
            assert_eq!(t.remove_one_old_epoch(&key(i)[..]).map(|(_, v)| v), Some(i));
        }
        assert_partition(&t);
        let mut capped = false;
        while let Some(m) = &t.migration {
            let (cursor, left) = (m.cursor, m.old_len);
            t.migrate(2);
            let (swept, moved) = match &t.migration {
                Some(m) => (cursor - m.cursor, left - m.old_len),
                None => break,
            };
            assert!(moved <= 2 && swept as usize <= 2 * SWEEP_SLOTS_PER_ENTRY);
            capped |= moved == 0 && swept as usize == 2 * SWEEP_SLOTS_PER_ENTRY;
        }
        assert!(capped, "the dead run stopped a drain at its scan cap");
        assert_partition(&t);
        for i in (0..400).filter(|i| !(300..340).contains(i)) {
            assert_eq!(t.find(&key(i)[..]).map(|x| t.get_kv(x).1), Some(i));
        }
    }

    #[test]
    fn removing_a_swept_entry_leaves_its_old_chain_walkable() {
        // Slots 0..3 are freed and refilled behind slot 3, so the highest
        // slot heads the one old chain (slot 3, then 2, 1, 0): the sweep's
        // first slot sits in front of every unswept entry of that chain.
        let mut t = RawTable::new(TestHash::Const(7), BucketPolicy::Modulo);
        for i in 0..4 {
            t.insert_unique(key(i), i);
        }
        for i in 0..3 {
            t.remove_one(&key(i)[..]);
        }
        for i in 5..8 {
            t.insert_unique(key(i), i);
        }
        assert_eq!(live_chains(&t)[7], [3, 2, 1, 0]);
        *t.hasher_mut() = TestHash::Fnv(1);
        t.begin_migration(Some(TestHash::Const(7)), TestHash::Fnv(1));
        t.migrate(1);
        assert_eq!(t.migration.as_ref().unwrap().cursor, 3, "swept slot 3 only");
        assert_partition(&t);
        // The swept entry leaves through the live epoch; its slot stays
        // threaded at the head of the old chain.
        assert_eq!(t.remove_one(&key(3)[..]), Some((key(3), 3)));
        assert_partition(&t);
        assert_eq!(t.find(&key(3)[..]), None);
        assert_eq!(t.count(&key(3)[..]), 0);
        // Unswept keys behind it are found and removed through the old epoch.
        assert_eq!(t.find(&key(6)[..]), Some(1));
        assert_eq!(t.remove_one(&key(5)[..]), Some((key(5), 5)));
        assert_partition(&t);
        assert_eq!(t.remove_one(&key(5)[..]), None);
        assert_eq!(t.find(&key(7)[..]), Some(0));
        t.finish_migration();
        assert_partition(&t);
        assert_eq!(t.len(), 2);
        assert_eq!(t.find(&key(6)[..]).map(|x| t.get_kv(x).1), Some(6));
        assert_eq!(t.find(&key(7)[..]).map(|x| t.get_kv(x).1), Some(7));
    }

    #[test]
    fn a_slot_freed_mid_epoch_waits_for_the_epoch_to_close() {
        let mut t = colliding_epoch(100);
        t.migrate(4);
        // One swept and one unswept slot freed mid-epoch.
        t.remove_one(&key(98)[..]);
        t.remove_one(&key(40)[..]);
        assert!(t.migration.as_ref().unwrap().cursor > 40);
        let fresh = t.entries.len() as u32;
        // Link directly: `insert_unique` would drain a stride first.
        link(&mut t, 100);
        assert_eq!(
            t.find(&key(100)[..]),
            Some(fresh),
            "mid-epoch inserts append"
        );
        assert!(t.migration_in_flight());
        assert_partition(&t);
        t.finish_migration();
        assert_partition(&t);
        t.insert_unique(key(101), 101);
        t.insert_unique(key(102), 102);
        let mut reused = [t.find(&key(101)[..]), t.find(&key(102)[..])];
        reused.sort();
        assert_eq!(
            reused,
            [Some(40), Some(98)],
            "a closed epoch frees its slots"
        );
        assert_eq!(t.entries.len() as u32, fresh + 1);
        assert_partition(&t);
    }

    #[test]
    fn rehash_mid_sweep_relinks_only_the_live_epoch() {
        let mut t = colliding_epoch(400);
        t.migrate(10);
        t.remove_one(&key(3)[..]);
        t.remove_one(&key(350)[..]);
        for i in 400..415 {
            t.insert_unique(key(i), i);
        }
        assert!(t.migration_in_flight());
        let grown = t.bucket_count() * 4 + 1;
        t.rehash(grown);
        assert_eq!(t.bucket_count(), grown);
        assert_eq!(t.chain_bound(), None, "a resize forgets the bound");
        assert!(t.migration_in_flight());
        assert_partition(&t);
        let kept = || (0..415).filter(|&i| i != 3 && i != 350);
        for i in kept() {
            assert_eq!(t.find(&key(i)[..]).map(|x| t.get_kv(x).1), Some(i), "{i}");
        }
        t.finish_migration();
        assert_partition(&t);
        assert_eq!(t.len(), 413);
        for i in kept() {
            assert_eq!(t.find(&key(i)[..]).map(|x| t.get_kv(x).1), Some(i), "{i}");
        }
    }

    #[test]
    fn clear_mid_sweep_discards_the_epoch_and_reuses_nothing_stale() {
        let mut t = colliding_epoch(100);
        t.migrate(5);
        t.remove_one(&key(2)[..]);
        assert!(t.migration_in_flight());
        t.clear();
        assert!(!t.migration_in_flight());
        assert_eq!((t.len(), t.entries.len(), t.free_head), (0, 0, NONE));
        for i in 0..10 {
            t.insert_unique(key(i), i);
        }
        assert_partition(&t);
        for i in 0..10 {
            assert_eq!(t.find(&key(i)[..]).map(|x| t.get_kv(x).1), Some(i));
        }
    }

    #[test]
    fn multimap_count_sums_both_epochs_without_double_counting_swept_entries() {
        // The transition keeps every hash, as a degrade keeps an
        // off-format key's: a swept entry then matches its old chain's
        // probe too, and only the sweep cursor tells the epochs apart.
        let mut t = RawTable::new(TestHash::Fnv(1), BucketPolicy::Modulo);
        for v in 0..4 {
            t.insert_multi(b"dup".to_vec(), v);
            t.insert_multi(key(v), v);
        }
        t.begin_migration(Some(TestHash::Fnv(1)), TestHash::Fnv(1));
        t.migrate(3);
        assert!(t.migration_in_flight());
        // Swept duplicates sit in both epochs' chains; count sees each once.
        assert_eq!(t.count(&b"dup"[..]), 4);
        t.insert_multi(b"dup".to_vec(), 4);
        assert_eq!(t.count(&b"dup"[..]), 5);
        assert!(t.remove_one(&b"dup"[..]).is_some());
        assert_eq!(t.count(&b"dup"[..]), 4);
        assert_partition(&t);
        t.finish_migration();
        assert_eq!(t.count(&b"dup"[..]), 4);
        assert_eq!(t.remove_all(&b"dup"[..]), 4);
        assert_eq!(t.len(), 4);
        assert_partition(&t);
    }

    /// The live chain `key` hashes to under the live hasher, as slots.
    fn chain_of(t: &Table, key: &[u8]) -> Vec<u32> {
        let (hash, _) = t.hasher.hash_routed(key);
        slots_from(t, t.live_chain(hash).head)
    }

    /// Entries a lookup of `key` examines in its live chain, when it is
    /// filed in the live epoch: the test-only walk behind the probe
    /// length the `table_probe_len` histogram records.
    fn live_probe_len(t: &Table, key: &[u8]) -> Option<u64> {
        let (hash, vouched) = t.hasher.hash_routed(key);
        let walk = t.walk(t.live_chain(hash), Probe { hash, vouched, key });
        walk.found.map(|_| walk.probes)
    }

    /// Whether every live chain lists its slots in ascending order,
    /// passing over `skip`.
    fn chains_ascend(t: &Table, skip: Option<u32>) -> bool {
        live_chains(t).iter().all(|chain| {
            let slots: Vec<u32> = chain
                .iter()
                .copied()
                .filter(|&at| Some(at) != skip)
                .collect();
            slots.windows(2).all(|w| w[0] < w[1])
        })
    }

    #[derive(Debug, Clone)]
    enum OrderOp {
        /// A map insert of key `n`, new or already stored.
        Insert(u8),
        Remove(u8),
        /// A `reserve` past the next resize.
        Reserve,
        /// A change of hasher: opens an epoch, or re-targets the open one.
        Transition,
        Migrate(usize),
        Finish,
    }

    fn arb_order_op() -> impl proptest::strategy::Strategy<Value = OrderOp> {
        use proptest::prelude::*;
        prop_oneof![
            10 => any::<u8>().prop_map(OrderOp::Insert),
            4 => any::<u8>().prop_map(OrderOp::Remove),
            1 => Just(OrderOp::Reserve),
            1 => Just(OrderOp::Transition),
            3 => (1usize..24).prop_map(OrderOp::Migrate),
            1 => Just(OrderOp::Finish),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Chains keep insertion order through inserts, removes, resizes,
        /// epochs, drains and re-targets, checked against a twin: a new
        /// key is its live chain's last entry; an insert lengthens no
        /// other key's probe except by the older entries its drain filed
        /// ahead of it; and a resize, a re-target, an open epoch and a
        /// closed one each leave every live chain in ascending slot order.
        #[test]
        fn chains_keep_insertion_order(ops in proptest::collection::vec(arb_order_op(), 1..400)) {
            let mut t: Table = RawTable::new(TestHash::Fnv(0), BucketPolicy::Modulo);
            t.set_max_load_factor(3.0);
            let mut twin = std::collections::BTreeMap::new();
            let mut routings = 0u64;
            for op in ops {
                let buckets = t.bucket_count();
                let cursor = t.migration.as_ref().map(|m| m.cursor);
                let mut inserted = None;
                match op {
                    OrderOp::Insert(k) => {
                        let k = u32::from(k);
                        let fresh = !twin.contains_key(&k);
                        let before: Vec<(u32, u64)> = twin
                            .keys()
                            .filter_map(|&j| live_probe_len(&t, &key(j)).map(|n| (j, n)))
                            .collect();
                        assert_eq!(t.insert_unique(key(k), k), twin.insert(k, k));
                        let at = t.find(&key(k)[..]).expect("inserted");
                        if fresh {
                            inserted = Some(at);
                            assert_eq!(
                                chain_of(&t, &key(k)).last(),
                                Some(&at),
                                "new key {k} is not its chain's last entry"
                            );
                        }
                        if t.bucket_count() == buckets {
                            // Only entries this insert's drain moved out of
                            // the old epoch may now sit ahead of a key.
                            let low = t.migration.as_ref().map_or(0, |m| m.cursor);
                            let drained = low..cursor.unwrap_or(0);
                            for (j, n) in before {
                                let chain = chain_of(&t, &key(j));
                                let at = t.find(&key(j)[..]).expect("kept");
                                let pos = chain.iter().position(|&x| x == at).expect("live");
                                let moved_ahead =
                                    chain[..pos].iter().filter(|x| drained.contains(x)).count();
                                assert_eq!(
                                    live_probe_len(&t, &key(j)),
                                    Some(n + moved_ahead as u64),
                                    "inserting key {k} moved key {j}"
                                );
                            }
                        }
                    }
                    OrderOp::Remove(k) => {
                        let k = u32::from(k);
                        assert_eq!(
                            t.remove_one(&key(k)[..]).map(|(_, v)| v),
                            twin.remove(&k)
                        );
                    }
                    // Each resize at least doubles the buckets: stop at a
                    // few thousand.
                    OrderOp::Reserve if buckets < 2048 => {
                        t.reserve(3 * buckets + 1 - t.len());
                        assert_ne!(t.bucket_count(), buckets, "the reserve resized");
                    }
                    OrderOp::Reserve => {}
                    OrderOp::Transition => {
                        routings += 1;
                        let next = if routings.is_multiple_of(2) {
                            TestHash::Fnv(routings)
                        } else {
                            TestHash::Word(routings)
                        };
                        let old = t.opens_epoch().then(|| *t.hasher());
                        *t.hasher_mut() = next;
                        t.begin_migration(old, next);
                        assert!(chains_ascend(&t, None), "a re-target or an epoch opened");
                    }
                    OrderOp::Migrate(k) => t.migrate(k),
                    OrderOp::Finish => t.finish_migration(),
                }
                let closed = cursor.is_some() && !t.migration_in_flight();
                let relinked = t.bucket_count() != buckets || closed || t.migration_in_flight();
                if relinked {
                    assert!(chains_ascend(&t, inserted), "after {op:?}");
                }
                assert_eq!(t.len(), twin.len());
                assert_partition(&t);
            }
            if t.migration_in_flight() {
                t.finish_migration();
                assert!(chains_ascend(&t, None), "a closed epoch");
            }
            for (&k, &v) in &twin {
                assert_eq!(t.find(&key(k)[..]).map(|at| t.get_kv(at).1), Some(v));
            }
        }
    }
}
