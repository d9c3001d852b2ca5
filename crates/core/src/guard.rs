//! Format guards: cheap membership checks compiled from a [`KeyPattern`],
//! and a [`GuardedHash`] wrapper that degrades gracefully on format drift.
//!
//! A synthesized hash (Section 3.2 of the paper) is only well-dispersed on
//! keys of its trained format: a Pext plan discards the byte positions and
//! bits the lattice proved constant, so one off-format key silently
//! collapses onto a small hash subset or aliases with in-format keys.
//! [`FormatGuard`] validates the format constraints at hash time — a length
//! check plus the per-byte constant-bit test of [`BytePattern::matches`],
//! evaluated word-at-a-time over the same clamped load schedule the plans
//! use — and [`GuardedHash`] routes keys that fail the guard to a general
//! fallback hasher under a distinct domain tag, while counting drift so a
//! container can flip wholesale to the fallback once the mismatch rate
//! crosses a threshold.

use crate::bits::load_u64_le;
use crate::fused::{for_lanes, FusedKernel};
use crate::hash::keyed::{siphash13, SeedSource};
use crate::hash::{ByteHash, SynthError};
use crate::infer::infer_pattern;
use crate::pattern::KeyPattern;
use crate::synth::Family;
use crate::SynthesizedHash;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

/// One precompiled 8-byte membership check: the conjunction of eight
/// [`BytePattern::matches`] tests, evaluated as
/// `(load_u64_le(key, offset) & mask) ^ bits == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GuardWord {
    offset: u32,
    mask: u64,
    bits: u64,
}

/// A compiled membership test for a key format.
///
/// `matches` returns exactly [`KeyPattern::matches`] — the guard is an
/// implementation of the same predicate, not an approximation — but the
/// mandatory prefix (`0..min_len`) is checked eight bytes at a time with
/// the clamped, possibly overlapping load schedule synthesized plans use,
/// so the common in-format case costs a handful of masked loads. Words
/// whose eight positions are all fully variable compile away entirely.
///
/// # Examples
///
/// ```
/// use sepe_core::guard::FormatGuard;
/// use sepe_core::regex::Regex;
///
/// let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}")?;
/// let guard = FormatGuard::compile(&pattern);
/// assert!(guard.matches(b"123-45-6789"));
/// assert!(!guard.matches(b"123-45-678"));   // wrong length
/// assert!(!guard.matches(b"123_45-6789"));  // '_' breaks the '-' literal
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatGuard {
    pattern: KeyPattern,
    words: Vec<GuardWord>,
    /// Whether the word schedule covers the whole mandatory prefix (always
    /// true when `min_len >= 8`; short formats fall back to bytes).
    words_cover_prefix: bool,
}

impl FormatGuard {
    /// Compiles a guard for `pattern`.
    #[must_use]
    pub fn compile(pattern: &KeyPattern) -> Self {
        let min_len = pattern.min_len();
        let mut words = Vec::new();
        let words_cover_prefix = min_len >= 8;
        if words_cover_prefix {
            // The plans' load schedule: words at 0, 8, 16, … with a final
            // clamped (overlapping) load so no position past min_len is read.
            let mut offset = 0usize;
            loop {
                let off = offset.min(min_len - 8);
                let (mask, bits) = word_test(pattern, off);
                if mask != 0 {
                    words.push(GuardWord {
                        offset: off as u32,
                        mask,
                        bits,
                    });
                }
                if off + 8 >= min_len {
                    break;
                }
                offset += 8;
            }
        }
        FormatGuard {
            pattern: pattern.clone(),
            words,
            words_cover_prefix,
        }
    }

    /// The pattern this guard was compiled from.
    #[must_use]
    pub fn pattern(&self) -> &KeyPattern {
        &self.pattern
    }

    /// Whether `key` belongs to the format. Agrees bit-for-bit with
    /// [`KeyPattern::matches`] on the source pattern.
    #[inline]
    #[must_use]
    pub fn matches(&self, key: &[u8]) -> bool {
        let min_len = self.pattern.min_len();
        if key.len() < min_len || key.len() > self.pattern.max_len() {
            return false;
        }
        let mut tail_start = 0usize;
        if self.words_cover_prefix {
            // Every load offset is <= min_len - 8 <= key.len() - 8, so the
            // loads stay in bounds. Accumulate branchlessly: in the expected
            // in-format case no early exit is worth a branch per word.
            let mut acc = 0u64;
            for w in &self.words {
                acc |= (load_u64_le(key, w.offset as usize) & w.mask) ^ w.bits;
            }
            if acc != 0 {
                return false;
            }
            tail_start = min_len;
        }
        key[tail_start..]
            .iter()
            .zip(&self.pattern.bytes()[tail_start..])
            .all(|(&b, p)| p.matches(b))
    }

    /// The key length of a fixed-length format of at least eight bytes,
    /// whose membership word tests decide alone (no byte tail); `None` for
    /// every other format.
    pub(crate) fn fixed_len(&self) -> Option<usize> {
        let len = self.pattern.min_len();
        (self.words_cover_prefix && len == self.pattern.max_len()).then_some(len)
    }

    /// Number of word-level checks the fast path performs.
    #[must_use]
    pub fn word_checks(&self) -> usize {
        self.words.len()
    }
}

/// Builds the `(mask, bits)` pair testing the eight byte patterns at
/// `offset..offset + 8` against a little-endian load.
pub(crate) fn word_test(pattern: &KeyPattern, offset: usize) -> (u64, u64) {
    let mut mask = 0u64;
    let mut bits = 0u64;
    for i in 0..8 {
        let p = pattern.bytes()[offset + i];
        mask |= u64::from(p.const_mask()) << (8 * i);
        bits |= u64::from(p.const_bits()) << (8 * i);
    }
    // The fused kernel's SSE2 pass masks once per word, after the xor.
    debug_assert_eq!(bits & !mask, 0, "constant bits lie within the mask");
    (mask, bits)
}

/// Drift counters shared by every clone of a [`GuardedHash`].
///
/// The counters are lock-free atomics updated with relaxed `fetch_add`, so
/// any number of concurrent readers (the sharded containers hash under a
/// shared read lock) can record drift without losing increments; relaxed
/// ordering is enough because no other memory depends on a counter value.
///
/// **Overflow semantics are pinned as *saturating*:** a counter that
/// reaches `u64::MAX` stays there, [`GuardStats::total`] saturates instead
/// of wrapping, and [`GuardStats::window_counts`] subtracts saturating — a
/// long-lived process can never report a wrapped (tiny) lifetime count or
/// an underflowed window delta. Under concurrent increments right at the
/// saturation boundary a racing add may briefly be visible before the
/// clamp lands, but counters are monotone non-decreasing below `u64::MAX`
/// either way, which is the property the drift policies rely on.
///
/// Since the observability layer landed, the counters *are*
/// [`sepe_obs`] primitives — [`Counter`](sepe_obs::Counter) carries the
/// exact saturating semantics this type pinned when it went lock-free,
/// and a registry can export the live values without copying (see
/// [`GuardStats::export_metrics`]). The public accessors are unchanged.
#[derive(Debug, Default)]
pub struct GuardStats {
    in_format: sepe_obs::Counter,
    off_format: sepe_obs::Counter,
    /// Lifetime totals at the start of the current observation window —
    /// [`GuardStats::window_counts`] judges drift over the delta, so early
    /// clean traffic cannot dilute a later burst forever.
    win_in_base: sepe_obs::Gauge,
    win_off_base: sepe_obs::Gauge,
}

impl GuardStats {
    /// Keys that passed the guard.
    #[must_use]
    pub fn in_format(&self) -> u64 {
        self.in_format.get()
    }

    /// Keys that failed the guard and were routed to the fallback.
    #[must_use]
    pub fn off_format(&self) -> u64 {
        self.off_format.get()
    }

    /// Total keys observed (saturating, like the counters themselves).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.in_format().saturating_add(self.off_format())
    }

    /// Fraction of observed keys that were off-format (0 when none seen).
    #[must_use]
    pub fn off_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.off_format() as f64 / total as f64
        }
    }

    /// Off-format and total counts observed since the last
    /// [`GuardStats::roll_window`] (or reset). Saturating: a racing reset
    /// can only shrink the deltas, never underflow them.
    #[must_use]
    pub fn window_counts(&self) -> (u64, u64) {
        let in_delta = self.in_format().saturating_sub(self.win_in_base.get());
        let off_delta = self.off_format().saturating_sub(self.win_off_base.get());
        (off_delta, in_delta + off_delta)
    }

    /// Starts a new observation window at the current lifetime totals.
    pub fn roll_window(&self) {
        self.win_in_base.set(self.in_format());
        self.win_off_base.set(self.off_format());
    }

    /// Resets all counters, window bases included (used after a
    /// degradation or resynthesis).
    pub fn reset(&self) {
        self.in_format.reset();
        self.off_format.reset();
        self.win_in_base.set(0);
        self.win_off_base.set(0);
    }

    /// Exports the live drift counters into `registry` as the
    /// `guard_in_format` / `guard_off_format` families with `labels`.
    /// The snapshot reads this very instance — the hot path pays nothing.
    ///
    /// # Errors
    ///
    /// Propagates [`sepe_obs::RegistryError`] on duplicate ids or
    /// malformed label fragments.
    pub fn export_metrics(
        self: &std::sync::Arc<Self>,
        registry: &sepe_obs::Registry,
        labels: &[(&str, &str)],
    ) -> Result<(), sepe_obs::RegistryError> {
        let stats = self.clone();
        registry.export_counter("guard_in_format", labels, move || stats.in_format())?;
        let stats = self.clone();
        registry.export_counter("guard_off_format", labels, move || stats.off_format())?;
        Ok(())
    }
}

/// The routing state of a [`GuardedHash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum GuardMode {
    /// In-format keys use the specialized hash; off-format keys use the
    /// tagged fallback.
    Guarded = 0,
    /// Every key uses the tagged fallback (the table has flipped).
    Degraded = 1,
    /// Every key uses a secret-keyed hash — the HashDoS rung. Unlike
    /// [`GuardMode::Degraded`], which still evaluates an *unkeyed*
    /// fallback an adversary with the binary can precompute collisions
    /// against, this mode is parameterized by a 128-bit seed held only in
    /// process memory (see [`GuardedHash::escalate_keyed`]). Under a plan
    /// injective over the guard's pattern, an in-format key hashes as a
    /// seeded bijection of its specialized hash; every other key as tagged
    /// SipHash-1-3 of its bytes.
    Keyed = 2,
}

/// Typed outcome of a resynthesis attempt, so callers can distinguish
/// "nothing to do" from "synthesis failed" — a bare `bool` conflated the
/// two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resynth {
    /// A widened plan was synthesized, validated and installed; the guard
    /// is re-armed and the container must rebuild stored hashes.
    Applied,
    /// The reservoir holds no off-format keys: there is no drift to
    /// resynthesize for, and nothing was changed.
    NoDrift,
    /// Synthesis (or plan validation) failed; the hasher's mode, stats and
    /// reservoir are untouched.
    SynthFailed(SynthError),
}

impl Resynth {
    /// Whether a new plan was installed.
    #[must_use]
    pub fn is_applied(&self) -> bool {
        matches!(self, Resynth::Applied)
    }
}

/// Capacity of the off-format reservoir sample.
const RESERVOIR_CAP: usize = 64;

/// A bounded uniform sample of recently observed off-format keys, kept so a
/// degraded table can re-synthesize a widened pattern that covers the
/// drifted traffic.
#[derive(Debug, Default)]
struct Reservoir {
    keys: Vec<Vec<u8>>,
    seen: u64,
}

impl Reservoir {
    fn clear(&mut self) {
        self.keys.clear();
        self.seen = 0;
    }

    fn offer(&mut self, key: &[u8]) {
        self.seen += 1;
        if self.keys.len() < RESERVOIR_CAP {
            self.keys.push(key.to_vec());
            return;
        }
        // Algorithm R with a splitmix-style hash of the arrival index as
        // the randomness source, so sampling is deterministic per sequence.
        let mut z = self.seen.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let slot = z % self.seen;
        if (slot as usize) < RESERVOIR_CAP {
            self.keys[slot as usize] = key.to_vec();
        }
    }
}

/// Domain-separation tag xored into fallback hashes so an off-format key can
/// never be engineered to collide with a chosen in-format key's specialized
/// hash (the two domains go through different finalizers).
const OFF_FORMAT_TAG: u64 = 0x0FF0_F0E5_EC7E_D000;

/// Domain-separation tag for the keyed escalation rung, distinct from
/// [`OFF_FORMAT_TAG`] so keyed hashes live in their own domain even if a
/// seed were ever (0, 0).
const KEYED_TAG: u64 = 0x5EED_5EED_5EED_5EED;

/// The multipliers of [`fmix64`] and their inverses modulo 2^64.
const FMIX_C1: u64 = 0xFF51_AFD7_ED55_8CCD;
const FMIX_C2: u64 = 0xC4CE_B9FE_1A85_EC53;
const FMIX_C1_INV: u64 = inverse_odd(FMIX_C1);
const FMIX_C2_INV: u64 = inverse_odd(FMIX_C2);

/// Murmur3-style finalizer applied to tagged fallback hashes.
#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(FMIX_C1);
    h ^= h >> 33;
    h = h.wrapping_mul(FMIX_C2);
    h ^= h >> 33;
    h
}

/// The inverse of [`fmix64`]: a xor-shift by 33 ≥ 32 bits undoes itself,
/// and each multiplier is odd.
#[inline]
fn unfmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(FMIX_C2_INV);
    h ^= h >> 33;
    h = h.wrapping_mul(FMIX_C1_INV);
    h ^= h >> 33;
    h
}

/// The multiplicative inverse of an odd `c` modulo 2^64. Newton's step
/// doubles the correct low bits, from the 3 of `c` itself (`c·c ≡ 1 mod
/// 8`) to 96 after five.
const fn inverse_odd(c: u64) -> u64 {
    let mut x = c;
    let mut step = 0;
    while step < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)));
        step += 1;
    }
    x
}

/// The keyed rung's seeded bijection of an in-format key's specialized
/// hash `x` under the seed `(k0, k1)`.
#[inline]
fn keyed_bijection(x: u64, (k0, k1): (u64, u64)) -> u64 {
    fmix64((x ^ k0).wrapping_mul(k1 | 1))
}

/// Lineages handed out so far: each names one (guard, specialized hash)
/// pair as [`GuardedHash::new`] or an applied resynthesis installed it.
static LINEAGES: AtomicU64 = AtomicU64::new(0);

fn next_lineage() -> u64 {
    LINEAGES.fetch_add(1, Ordering::Relaxed)
}

/// How an entry's cached hash under one vouching route of a
/// [`GuardedHash`] becomes its hash under another route of the same
/// specialized function and guard, without reading the key (see
/// [`ByteHash::refile_map`]).
///
/// Both vouching routes are bijections of the specialized hash `x` of an
/// in-format key: the guarded route is `x` itself, the keyed one
/// `fmix64((x ^ k0) · (k1 | 1))`. The map undoes the source route (the
/// finalizer's inverse, then the multiplier's inverse, computed once per
/// map, then the xor) and applies the target one.
///
/// # Examples
///
/// ```
/// use sepe_core::guard::{GuardMode, GuardedHash};
/// use sepe_core::hash::{ByteHash, FixedSeedSource, SynthesizedHash};
/// use sepe_core::regex::Regex;
/// use sepe_core::synth::Family;
///
/// let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}")?;
/// let plan = SynthesizedHash::from_pattern(&pattern, Family::OffXor);
/// let live = GuardedHash::new(&pattern, plan.clone(), plan);
/// let guarded = live.epoch_frozen(GuardMode::Guarded);
/// live.escalate_keyed(&FixedSeedSource::new(7));
/// let keyed = live.epoch_frozen(GuardMode::Keyed);
///
/// let key = b"123-45-6789";
/// let (cached, vouched) = guarded.hash_routed(key);
/// assert!(vouched, "an injective plan vouches for an in-format key");
/// let map = keyed.refile_map(&guarded).expect("same plan and guard");
/// assert_eq!(keyed.hash_routed(key), (map.map(cached), true));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteMap {
    /// `(k0, (k1 | 1)⁻¹)` of a keyed source route; `None` when the source
    /// is the guarded route, whose hash is `x` itself.
    unkey: Option<(u64, u64)>,
    /// The seed of a keyed target route; `None` for the guarded one.
    rekey: Option<(u64, u64)>,
}

impl RouteMap {
    /// The target route's hash of a key whose source route hash is `h`.
    /// Meaningful only for a hash the source route vouched for.
    #[inline]
    #[must_use]
    pub fn map(&self, h: u64) -> u64 {
        let x = match self.unkey {
            Some((k0, inv)) => unfmix64(h).wrapping_mul(inv) ^ k0,
            None => h,
        };
        match self.rekey {
            Some(seed) => keyed_bijection(x, seed),
            None => x,
        }
    }
}

/// A hasher that validates each key against a [`FormatGuard`] and routes it
/// to either the specialized function `F` (in-format) or a safe general
/// fallback `G` (off-format), with drift accounting.
///
/// Clones share their statistics, mode and reservoir through [`Arc`]s: a
/// container can own one clone while the caller keeps another to observe
/// drift, and flipping the mode on any clone flips all of them.
///
/// # Examples
///
/// ```
/// use sepe_core::guard::GuardedHash;
/// use sepe_core::hash::{stl_hash_bytes, ByteHash, SynthesizedHash};
/// use sepe_core::regex::Regex;
/// use sepe_core::synth::Family;
///
/// struct Stl;
/// impl ByteHash for Stl {
///     fn hash_bytes(&self, key: &[u8]) -> u64 {
///         stl_hash_bytes(key, 0)
///     }
/// }
///
/// let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}")?;
/// let inner = SynthesizedHash::from_pattern(&pattern, Family::Pext);
/// let guarded = GuardedHash::new(&pattern, inner.clone(), Stl);
///
/// // In-format keys hash exactly as the unguarded specialized function.
/// assert_eq!(guarded.hash_bytes(b"123-45-6789"), inner.hash_bytes(b"123-45-6789"));
/// // Off-format keys are rerouted instead of mis-hashed.
/// let _ = guarded.hash_bytes(b"not an ssn");
/// assert_eq!(guarded.stats().off_format(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GuardedHash<F, G> {
    guard: FormatGuard,
    specialized: F,
    fallback: G,
    stats: Arc<GuardStats>,
    mode: Arc<AtomicU8>,
    reservoir: Arc<Mutex<Reservoir>>,
    /// When set, routing ignores the shared mode — an epoch-frozen copy
    /// must keep reproducing the hashes of the epoch it was taken in even
    /// after the live hasher flips (see [`GuardedHash::epoch_frozen`]).
    forced_mode: Option<GuardMode>,
    /// When set, hashing skips the drift counters and the reservoir, so an
    /// incremental migration rehashing old entries leaves the observable
    /// drift accounting identical to a stop-the-world rebuild.
    silent: bool,
    /// The 128-bit key of the [`GuardMode::Keyed`] rung, shared by every
    /// clone. Stored as two atomics so `&self` rotation works through the
    /// shared containers; the pair is only ever written under the owning
    /// container's exclusive access (a shard write lock or `&mut self`),
    /// so readers cannot observe a torn (half-rotated) pair.
    seed: Arc<(AtomicU64, AtomicU64)>,
    /// When set, keyed hashing ignores the shared seed — an epoch-frozen
    /// copy taken in a keyed epoch must keep reproducing that epoch's
    /// hashes even after the live seed rotates.
    forced_seed: Option<(u64, u64)>,
    /// Whether `specialized` is injective over the guard's own pattern
    /// ([`ByteHash::injective_over`]), judged whenever either changes: the
    /// in-format route vouches for its hashes only then (see
    /// [`ByteHash::hash_routed`]).
    injective: bool,
    /// The guard and `specialized` compiled into one load schedule
    /// ([`ByteHash::fused_with`]), rebuilt whenever either changes; `None`
    /// for plan shapes without one, which check the guard and then hash.
    fused: Option<FusedKernel>,
    /// Names the guard and `specialized` pair: fresh from `new` and every
    /// applied resynthesis, kept by clones, frozen and detached copies.
    /// Two copies of one lineage hash in-format keys identically, which
    /// is what [`ByteHash::refile_map`] needs to hold.
    lineage: u64,
}

impl<F: ByteHash, G> GuardedHash<F, G> {
    /// Wraps `specialized` (synthesized for `pattern`) with a format guard
    /// that reroutes non-matching keys to `fallback`.
    #[must_use]
    pub fn new(pattern: &KeyPattern, specialized: F, fallback: G) -> Self {
        let guard = FormatGuard::compile(pattern);
        GuardedHash {
            fused: specialized.fused_with(&guard),
            guard,
            lineage: next_lineage(),
            injective: specialized.injective_over(pattern),
            specialized,
            fallback,
            stats: Arc::new(GuardStats::default()),
            mode: Arc::new(AtomicU8::new(GuardMode::Guarded as u8)),
            reservoir: Arc::new(Mutex::new(Reservoir::default())),
            forced_mode: None,
            silent: false,
            seed: Arc::new((AtomicU64::new(0), AtomicU64::new(0))),
            forced_seed: None,
        }
    }
}

impl<F, G> GuardedHash<F, G> {
    /// The compiled guard.
    #[must_use]
    pub fn guard(&self) -> &FormatGuard {
        &self.guard
    }

    /// The fused guard-and-hash kernel the in-format route runs, or `None`
    /// when the plan shape has none (see [`crate::fused`]).
    #[must_use]
    pub fn fused(&self) -> Option<&FusedKernel> {
        self.fused.as_ref()
    }

    /// The specialized (in-format) hasher.
    #[must_use]
    pub fn specialized(&self) -> &F {
        &self.specialized
    }

    /// The fallback (off-format) hasher.
    #[must_use]
    pub fn fallback(&self) -> &G {
        &self.fallback
    }

    /// The drift counters, shared with every clone.
    #[must_use]
    pub fn stats(&self) -> &GuardStats {
        &self.stats
    }

    /// An owning handle to the shared drift counters, suitable for
    /// exporting into a [`sepe_obs::Registry`] that outlives this view
    /// (see [`GuardStats::export_metrics`]).
    #[must_use]
    pub fn stats_handle(&self) -> Arc<GuardStats> {
        self.stats.clone()
    }

    /// The current routing mode (the pinned one for epoch-frozen copies).
    #[must_use]
    pub fn mode(&self) -> GuardMode {
        if let Some(m) = self.forced_mode {
            return m;
        }
        match self.mode.load(Ordering::Relaxed) {
            m if m == GuardMode::Degraded as u8 => GuardMode::Degraded,
            m if m == GuardMode::Keyed as u8 => GuardMode::Keyed,
            _ => GuardMode::Guarded,
        }
    }

    /// A copy of this hasher pinned to `mode`, with drift accounting and
    /// reservoir sampling disabled.
    ///
    /// The copy owns the current guard and specialized function (clones do
    /// not track later `resynthesize` calls), so it reproduces this epoch's
    /// hash of every key forever — exactly what an incremental migration
    /// needs to locate entries stored under a superseded plan, without
    /// double-counting them as live traffic.
    #[must_use]
    pub fn epoch_frozen(&self, mode: GuardMode) -> Self
    where
        F: Clone,
        G: Clone,
    {
        let mut frozen = self.clone();
        frozen.forced_mode = Some(mode);
        frozen.silent = true;
        // Pin the seed too: a frozen keyed epoch must survive later
        // rotations of the live key.
        frozen.forced_seed = Some(self.current_seed());
        frozen
    }

    /// A copy with *private* drift state: the same guard, specialized and
    /// fallback hashers, but fresh statistics, mode and reservoir shared
    /// with no one (ordinary clones share all three through [`Arc`]s).
    ///
    /// The sharded containers hand each shard a detached copy so one
    /// shard's drift accounting — and its degradation decision — cannot
    /// flip its siblings.
    #[must_use]
    pub fn detached(&self) -> Self
    where
        F: Clone,
        G: Clone,
    {
        GuardedHash {
            guard: self.guard.clone(),
            specialized: self.specialized.clone(),
            fallback: self.fallback.clone(),
            stats: Arc::new(GuardStats::default()),
            mode: Arc::new(AtomicU8::new(self.mode() as u8)),
            reservoir: Arc::new(Mutex::new(Reservoir::default())),
            forced_mode: self.forced_mode,
            silent: self.silent,
            seed: {
                let (k0, k1) = self.current_seed();
                Arc::new((AtomicU64::new(k0), AtomicU64::new(k1)))
            },
            forced_seed: self.forced_seed,
            injective: self.injective,
            fused: self.fused,
            lineage: self.lineage,
        }
    }

    /// Whether the hasher has flipped to fallback-for-everything.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.mode() == GuardMode::Degraded
    }

    /// Flips this hasher (and every clone) to the fallback for all keys.
    ///
    /// Callers holding a container keyed by this hasher must rebuild the
    /// stored hashes afterwards — see `UnorderedMap::degrade_now` in
    /// `sepe-containers`, which performs the flip and opens the re-filing
    /// epoch together.
    pub fn degrade(&self) {
        self.mode
            .store(GuardMode::Degraded as u8, Ordering::Relaxed);
    }

    /// Whether the hasher is on a secret-keyed rung.
    #[must_use]
    pub fn is_keyed(&self) -> bool {
        self.mode() == GuardMode::Keyed
    }

    /// The seed the keyed rung hashes under (the pinned one for
    /// epoch-frozen copies). Meaningful only in [`GuardMode::Keyed`]; other
    /// modes never consult it.
    #[must_use]
    pub fn current_seed(&self) -> (u64, u64) {
        if let Some(s) = self.forced_seed {
            return s;
        }
        // Two relaxed loads: rotation only happens under the owning
        // container's exclusive access, so the pair is never torn in
        // practice (see the `seed` field docs).
        (
            self.seed.0.load(Ordering::Relaxed),
            self.seed.1.load(Ordering::Relaxed),
        )
    }

    /// This copy's vouching route as a [`RouteMap`] end: `Some(None)` on
    /// the guarded rung (the specialized hash itself), `Some(Some(seed))`
    /// on the keyed rung (its seeded bijection), `None` when degraded,
    /// where nothing is vouched for.
    fn vouching_route(&self) -> Option<Option<(u64, u64)>> {
        match self.mode() {
            GuardMode::Guarded => Some(None),
            GuardMode::Keyed => Some(Some(self.current_seed())),
            GuardMode::Degraded => None,
        }
    }

    /// Escalates this hasher (and every clone) to the secret-keyed rung
    /// under a fresh seed from `seeds`.
    ///
    /// Like [`GuardedHash::degrade`], this only flips the routing —
    /// callers owning a container keyed by this hasher must rebuild stored
    /// hashes afterwards (`UnorderedMap::escalate_now` pairs the flip with
    /// an incremental migration). Call only with exclusive access to the
    /// owning container, so no reader observes a torn seed pair.
    pub fn escalate_keyed(&self, seeds: &impl SeedSource) {
        let (k0, k1) = seeds.next_seed();
        self.seed.0.store(k0, Ordering::Relaxed);
        self.seed.1.store(k1, Ordering::Relaxed);
        self.mode.store(GuardMode::Keyed as u8, Ordering::Relaxed);
    }

    /// Rotates the keyed rung's seed in place (mode stays
    /// [`GuardMode::Keyed`]) — the response to a suspected seed leak. The
    /// same exclusive-access and rebuild obligations as
    /// [`GuardedHash::escalate_keyed`] apply.
    pub fn rotate_seed(&self, seeds: &impl SeedSource) {
        let (k0, k1) = seeds.next_seed();
        self.seed.0.store(k0, Ordering::Relaxed);
        self.seed.1.store(k1, Ordering::Relaxed);
    }

    /// De-escalates back to [`GuardMode::Guarded`]: the specialized hash
    /// takes over again, the drift counters reset, and the reservoir is
    /// cleared.
    ///
    /// Clearing the reservoir is deliberate: during an attack it fills
    /// with the attacker's crafted keys, and resynthesizing a widened
    /// pattern over those would hand the adversary control of the next
    /// plan. The quiet window that justifies re-arming also invalidates
    /// the sample.
    pub fn rearm(&self) {
        self.lock_reservoir().clear();
        self.stats.reset();
        self.mode.store(GuardMode::Guarded as u8, Ordering::Relaxed);
    }

    /// The keyed rung's hash of a key it cannot vouch for: SipHash-1-3
    /// over the raw key bytes under the current seed, tag-separated and
    /// finalized like the other routing domains. Deliberately *not*
    /// layered over the fallback hash — collapsing first through an
    /// unkeyed function would let precomputed fallback collisions survive
    /// into the keyed domain.
    #[inline]
    fn keyed_hash(&self, key: &[u8]) -> u64 {
        let (k0, k1) = self.current_seed();
        fmix64(siphash13(k0, k1, key) ^ KEYED_TAG)
    }

    /// Locks the reservoir, recovering from poison: a panic elsewhere
    /// (e.g. in synthesis code sharing the mutex through a clone) must not
    /// silently disable drift sampling forever. The reservoir's state is a
    /// bag of sampled keys plus counters — every update leaves it
    /// structurally valid, so the poisoned contents are safe to keep using.
    fn lock_reservoir(&self) -> MutexGuard<'_, Reservoir> {
        self.reservoir
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Off-format keys sampled since the last reset, oldest-biased uniform.
    #[must_use]
    pub fn reservoir_keys(&self) -> Vec<Vec<u8>> {
        self.lock_reservoir().keys.clone()
    }

    /// A pattern widened to cover both the original format and the sampled
    /// off-format keys, read under one reservoir lock, or `None` when the
    /// reservoir is empty.
    #[must_use]
    pub fn resynthesize_pattern(&self) -> Option<KeyPattern> {
        let r = self.lock_reservoir();
        if r.keys.is_empty() {
            return None;
        }
        let mut widened = self.guard.pattern().clone();
        for key in &r.keys {
            widened.join_key(key);
        }
        Some(widened)
    }

    /// Offers one off-format key to the reservoir. Sampling must never
    /// block the hash path, so contention skips the offer — but a
    /// *poisoned* lock is recovered, not skipped: treating poison as
    /// "busy" would silently disable sampling forever after one panic.
    #[inline]
    fn offer_to_reservoir(&self, key: &[u8]) {
        match self.reservoir.try_lock() {
            Ok(mut r) => r.offer(key),
            Err(TryLockError::Poisoned(p)) => p.into_inner().offer(key),
            Err(TryLockError::WouldBlock) => {}
        }
    }

    /// The hash used for off-format keys (and, in degraded mode, for all
    /// keys): the fallback mixed under [`OFF_FORMAT_TAG`] and finalized, so
    /// the two routing domains cannot alias by construction.
    #[inline]
    fn off_format_hash(&self, key: &[u8]) -> u64
    where
        G: ByteHash,
    {
        fmix64(self.fallback.hash_bytes(key) ^ OFF_FORMAT_TAG)
    }
}

impl<G> GuardedHash<SynthesizedHash, G> {
    /// Re-synthesizes the specialized hash from the reservoir-widened
    /// pattern and arms the guard again (mode returns to
    /// [`GuardMode::Guarded`], counters reset).
    ///
    /// The synthesized plan is validated before anything is mutated, so a
    /// failure leaves the hasher exactly as it was. As with
    /// [`GuardedHash::degrade`], containers must rebuild stored hashes
    /// after this returns [`Resynth::Applied`].
    pub fn resynthesize(&mut self) -> Resynth {
        let family = self.specialized.family();
        let isa = self.specialized.isa();
        let seed = self.specialized.seed();
        self.resynthesize_with(|widened| {
            let plan = crate::synth::synthesize(widened, family);
            crate::plan_io::validate_plan(&plan)?;
            Ok(SynthesizedHash::new(plan, family, isa).with_seed(seed))
        })
    }

    /// [`GuardedHash::resynthesize`] with a caller-supplied synthesis
    /// function — the hook the failure-path tests and custom synthesis
    /// strategies use. `synth` sees the reservoir-widened pattern; an `Err`
    /// leaves mode, stats and reservoir untouched.
    pub fn resynthesize_with<S>(&mut self, synth: S) -> Resynth
    where
        S: FnOnce(&KeyPattern) -> Result<SynthesizedHash, SynthError>,
    {
        let Some(widened) = self.resynthesize_pattern() else {
            return Resynth::NoDrift;
        };
        let hash = match synth(&widened) {
            Err(e) => return Resynth::SynthFailed(e),
            Ok(hash) => hash,
        };
        // Swap the specialized hash, recompile the guard, judge the new
        // plan against it, fuse the two, clear the reservoir, reset the
        // counters, and re-arm.
        self.injective = hash.injective_over(&widened);
        self.lineage = next_lineage();
        self.guard = FormatGuard::compile(&widened);
        self.fused = hash.fused_with(&self.guard);
        self.specialized = hash;
        self.lock_reservoir().clear();
        self.stats.reset();
        self.mode.store(GuardMode::Guarded as u8, Ordering::Relaxed);
        Resynth::Applied
    }

    /// Builds a guarded hash by synthesizing `family` for `pattern`.
    #[must_use]
    pub fn from_pattern(pattern: &KeyPattern, family: Family, fallback: G) -> Self {
        GuardedHash::new(
            pattern,
            SynthesizedHash::from_pattern(pattern, family),
            fallback,
        )
    }

    /// Builds a guarded hash by inferring a pattern from example keys.
    ///
    /// # Errors
    ///
    /// Returns [`crate::hash::SynthError::EmptyExampleSet`] when `keys` is
    /// empty.
    pub fn from_examples<'a, I>(
        keys: I,
        family: Family,
        fallback: G,
    ) -> Result<Self, crate::hash::SynthError>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let pattern = infer_pattern(keys).map_err(|_| crate::hash::SynthError::EmptyExampleSet)?;
        Ok(GuardedHash::from_pattern(&pattern, family, fallback))
    }
}

impl<F: ByteHash, G: ByteHash> ByteHash for GuardedHash<F, G> {
    #[inline]
    fn hash_bytes(&self, key: &[u8]) -> u64 {
        self.hash_routed(key).0
    }

    /// Routes `key` and hashes it. Vouches only for an in-format key
    /// under a plan injective over the guard's pattern, in
    /// [`GuardMode::Guarded`] or [`GuardMode::Keyed`] (whose in-format
    /// route is a bijection of the specialized hash): two such keys with
    /// equal hashes are equal. Degraded hashes, off-format keys and every
    /// key under a non-injective plan never vouch — the fallback and
    /// SipHash are not injective.
    #[inline]
    fn hash_routed(&self, key: &[u8]) -> (u64, bool) {
        match self.mode() {
            GuardMode::Degraded => (self.off_format_hash(key), false),
            GuardMode::Keyed => self.keyed_routed(key),
            GuardMode::Guarded => self.guarded_routed(key),
        }
    }

    /// Maps between the guarded and keyed routes (either way, or between
    /// two seeds) of one lineage under an injective plan: the keys either
    /// route vouches for are the in-format ones, and both route them as
    /// bijections of the same specialized hash. `None` when `from` and
    /// `self` differ in plan or guard (another lineage), when the plan is
    /// not injective, or when either side is degraded.
    fn refile_map(&self, from: &Self) -> Option<RouteMap> {
        if !self.injective || self.lineage != from.lineage {
            return None;
        }
        let unkey = from
            .vouching_route()?
            .map(|(k0, k1)| (k0, inverse_odd(k1 | 1)));
        let rekey = self.vouching_route()?;
        Some(RouteMap { unkey, rekey })
    }
}

impl<F: ByteHash, G> GuardedHash<F, G> {
    /// The specialized hash of `key` and whether it is in format: one
    /// fused pass when the plan has a kernel, otherwise the guard and then
    /// the specialized hash. The hash is meaningful only in format.
    #[inline]
    fn specialized_routed(&self, key: &[u8]) -> (u64, bool) {
        match &self.fused {
            Some(k) => k.eval(key),
            None if self.guard.matches(key) => (self.specialized.hash_bytes(key), true),
            None => (0, false),
        }
    }

    /// The [`GuardMode::Guarded`] route: the specialized hash in format,
    /// the tagged fallback off it, with drift accounting.
    #[inline]
    fn guarded_routed(&self, key: &[u8]) -> (u64, bool)
    where
        G: ByteHash,
    {
        let (h, in_format) = self.specialized_routed(key);
        if in_format {
            self.count_in_format(1);
            (h, self.injective)
        } else {
            (self.off_format_routed(key), false)
        }
    }

    /// Counts `n` in-format keys, unless this copy is silent.
    #[inline]
    fn count_in_format(&self, n: u64) {
        if !self.silent {
            self.stats.in_format.add(n);
        }
    }

    /// Counts and samples one off-format key (unless this copy is silent)
    /// and returns its tagged fallback hash.
    #[inline]
    fn off_format_routed(&self, key: &[u8]) -> u64
    where
        G: ByteHash,
    {
        if !self.silent {
            self.stats.off_format.inc();
            self.offer_to_reservoir(key);
        }
        self.off_format_hash(key)
    }

    /// The [`GuardMode::Keyed`] route, out of line so the guarded fast
    /// path does not grow. An in-format key under an injective plan
    /// hashes as a seeded bijection of its specialized hash `x`: xor, an
    /// odd multiplier and the finalizer each permute the 64-bit words, so
    /// two keys the plan tells apart stay apart and the route vouches,
    /// while which keys share a *bucket* depends on the seed, so a flood
    /// forged against the plan, or under another seed, scatters. Every
    /// other key takes tagged SipHash. Keyed traffic is presumed
    /// adversarial, not drifted, so it bumps no drift counter and samples
    /// nothing.
    #[inline(never)]
    fn keyed_routed(&self, key: &[u8]) -> (u64, bool) {
        if self.injective {
            let (x, in_format) = self.specialized_routed(key);
            if in_format {
                return (keyed_bijection(x, self.current_seed()), true);
            }
        }
        (self.keyed_hash(key), false)
    }
}

impl<F: crate::hash::HashBatch, G: ByteHash> crate::hash::HashBatch for GuardedHash<F, G> {
    /// Batched guarded hashing with scalar-identical observable behavior:
    /// the same keys take the same routes, the drift counters advance by
    /// the same amounts, and the reservoir sees the same offers in the same
    /// order as `keys.iter().map(|k| self.hash_bytes(k))` would produce.
    ///
    /// With a fused kernel, chunks of eight and then four keys take one
    /// interleaved pass that yields every lane's hash and verdict; a chunk
    /// wholly in format costs that pass and one counter update. Without
    /// one, a chunk the guard passes whole takes one specialized
    /// `hash_batch` call. Chunks containing an off-format key, and the last
    /// few keys, fall back to per-key routing, so reservoir sampling and
    /// tagging are exactly the scalar path's.
    fn hash_batch(&self, keys: &[&[u8]], out: &mut [u64]) {
        assert_eq!(keys.len(), out.len(), "batch output length mismatch");
        match self.mode() {
            GuardMode::Degraded => {
                for (key, slot) in keys.iter().zip(out.iter_mut()) {
                    *slot = self.off_format_hash(key);
                }
            }
            GuardMode::Keyed => match &self.fused {
                Some(k) if self.injective => for_lanes(keys, out, |chunk, out| match chunk.len() {
                    8 => self.keyed_lanes::<8>(k, chunk, out),
                    4 => self.keyed_lanes::<4>(k, chunk, out),
                    _ => out[0] = self.keyed_routed(chunk[0]).0,
                }),
                _ => {
                    for (key, slot) in keys.iter().zip(out.iter_mut()) {
                        *slot = self.keyed_routed(key).0;
                    }
                }
            },
            GuardMode::Guarded => match &self.fused {
                Some(k) => for_lanes(keys, out, |chunk, out| match chunk.len() {
                    8 => self.guarded_lanes::<8>(k, chunk, out),
                    4 => self.guarded_lanes::<4>(k, chunk, out),
                    _ => out[0] = self.guarded_routed(chunk[0]).0,
                }),
                None => {
                    for (chunk, out) in keys.chunks(8).zip(out.chunks_mut(8)) {
                        self.guarded_chunk(chunk, out);
                    }
                }
            },
        }
    }
}

impl<F: crate::hash::HashBatch, G: ByteHash> GuardedHash<F, G> {
    /// One interleaved chunk of `W` keys on the guarded route: one pass
    /// and one counter update when every key is in format, per-key
    /// routing otherwise.
    #[inline]
    fn guarded_lanes<const W: usize>(&self, k: &FusedKernel, keys: &[&[u8]], out: &mut [u64]) {
        match k.lanes::<W>(keys) {
            Some(l) if l.all_in_format() => {
                self.count_in_format(W as u64);
                out.copy_from_slice(&l.hash);
            }
            _ => {
                for (key, slot) in keys.iter().zip(out.iter_mut()) {
                    *slot = self.guarded_routed(key).0;
                }
            }
        }
    }

    /// One interleaved chunk of `W` keys on the keyed route, under an
    /// injective plan.
    #[inline]
    fn keyed_lanes<const W: usize>(&self, k: &FusedKernel, keys: &[&[u8]], out: &mut [u64]) {
        match k.lanes::<W>(keys) {
            Some(l) if l.all_in_format() => {
                let seed = self.current_seed();
                for (slot, &x) in out.iter_mut().zip(&l.hash) {
                    *slot = keyed_bijection(x, seed);
                }
            }
            _ => {
                for (key, slot) in keys.iter().zip(out.iter_mut()) {
                    *slot = self.keyed_routed(key).0;
                }
            }
        }
    }

    /// A chunk of up to eight keys on the guarded route without a fused
    /// kernel: the guard per key, then one specialized `hash_batch` call
    /// when every key passes.
    fn guarded_chunk(&self, keys: &[&[u8]], out: &mut [u64]) {
        let mut verdicts = [false; 8];
        for (v, key) in verdicts.iter_mut().zip(keys) {
            *v = self.guard.matches(key);
        }
        let verdicts = &verdicts[..keys.len()];
        if verdicts.iter().all(|&v| v) {
            self.count_in_format(keys.len() as u64);
            self.specialized.hash_batch(keys, out);
            return;
        }
        for ((key, slot), &ok) in keys.iter().zip(out.iter_mut()).zip(verdicts) {
            *slot = if ok {
                self.count_in_format(1);
                self.specialized.hash_bytes(key)
            } else {
                self.off_format_routed(key)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::stl_hash_bytes;
    use crate::regex::Regex;
    use crate::synth::Family;

    #[derive(Clone)]
    struct Stl;
    impl ByteHash for Stl {
        fn hash_bytes(&self, key: &[u8]) -> u64 {
            stl_hash_bytes(key, 0)
        }
    }

    fn guard_of(regex: &str) -> (KeyPattern, FormatGuard) {
        let pattern = Regex::compile(regex).expect("compiles");
        let guard = FormatGuard::compile(&pattern);
        (pattern, guard)
    }

    #[test]
    fn guard_agrees_with_pattern_on_ssns() {
        let (pattern, guard) = guard_of(r"\d{3}-\d{2}-\d{4}");
        let cases: [&[u8]; 8] = [
            b"123-45-6789",
            b"000-00-0000",
            b"123-45-678",
            b"123-45-67890",
            b"123_45-6789",
            b"abc-de-fghi",
            b"",
            b"123-45-678\xFF",
        ];
        for key in cases {
            assert_eq!(guard.matches(key), pattern.matches(key), "{key:?}");
        }
    }

    #[test]
    fn guard_checks_every_prefix_position() {
        // Mutating any single byte to a value outside its class must flip
        // the verdict, including positions only covered by the clamped load.
        let (pattern, guard) = guard_of(r"(([0-9]{3})\.){3}[0-9]{3}");
        let base = b"192.168.001.017".to_vec();
        assert!(guard.matches(&base));
        for i in 0..base.len() {
            let mut k = base.clone();
            k[i] = 0xFF; // outside both the digit and the '.' classes
            assert!(!pattern.matches(&k), "position {i} should be constrained");
            assert_eq!(guard.matches(&k), pattern.matches(&k), "position {i}");
        }
    }

    #[test]
    fn guard_handles_variable_length_tails() {
        let (pattern, guard) = guard_of(r"[a-z]{8}[0-9]{0,4}");
        for key in [
            &b"abcdefgh"[..],
            b"abcdefgh1",
            b"abcdefgh1234",
            b"abcdefgh12345",
            b"abcdefg",
            b"abcdefgh123x",
        ] {
            assert_eq!(guard.matches(key), pattern.matches(key), "{key:?}");
        }
    }

    #[test]
    fn short_formats_use_the_byte_path() {
        let (pattern, guard) = guard_of(r"\d{4}");
        assert_eq!(guard.word_checks(), 0);
        assert!(guard.matches(b"1234"));
        assert!(!guard.matches(b"123a"));
        assert!(!guard.matches(b"12345"));
        assert_eq!(guard.matches(b"0000"), pattern.matches(b"0000"));
    }

    #[test]
    fn fully_variable_words_compile_away() {
        // 16 fully variable bytes: no constant bits anywhere, so the word
        // list is empty and only the length check remains.
        let pattern = KeyPattern::fixed(vec![crate::BytePattern::ANY; 16]);
        let guard = FormatGuard::compile(&pattern);
        assert_eq!(guard.word_checks(), 0);
        assert!(guard.matches(&[0xFF; 16]));
        assert!(!guard.matches(&[0xFF; 15]));
    }

    #[test]
    fn guarded_hash_routes_and_counts() {
        let pattern =
            Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("test regex is valid by construction");
        let inner = SynthesizedHash::from_pattern(&pattern, Family::OffXor);
        let guarded = GuardedHash::new(&pattern, inner.clone(), Stl);
        assert_eq!(
            guarded.hash_bytes(b"123-45-6789"),
            inner.hash_bytes(b"123-45-6789")
        );
        let off = guarded.hash_bytes(b"drifted key!");
        assert_ne!(off, inner.hash_bytes(b"drifted key!"));
        assert_eq!(guarded.stats().in_format(), 1);
        assert_eq!(guarded.stats().off_format(), 1);
        assert!((guarded.stats().off_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn off_format_domain_is_tagged() {
        let pattern = Regex::compile(r"\d{11}").expect("test regex is valid by construction");
        let guarded = GuardedHash::from_pattern(&pattern, Family::Naive, Stl);
        let key = b"hello world"; // same length as the format, off-format bytes
        assert_ne!(guarded.hash_bytes(key), stl_hash_bytes(key, 0));
    }

    #[test]
    fn degraded_mode_uses_the_fallback_for_everything() {
        let pattern =
            Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("test regex is valid by construction");
        let inner = SynthesizedHash::from_pattern(&pattern, Family::Pext);
        let guarded = GuardedHash::new(&pattern, inner.clone(), Stl);
        let clone = guarded.clone();
        guarded.degrade();
        assert!(clone.is_degraded(), "mode is shared across clones");
        assert_ne!(
            clone.hash_bytes(b"123-45-6789"),
            inner.hash_bytes(b"123-45-6789")
        );
        // Degraded hashing is still deterministic.
        assert_eq!(
            clone.hash_bytes(b"123-45-6789"),
            guarded.hash_bytes(b"123-45-6789")
        );
    }

    #[test]
    fn reservoir_samples_off_format_keys() {
        let pattern = Regex::compile(r"\d{8}").expect("test regex is valid by construction");
        let guarded = GuardedHash::from_pattern(&pattern, Family::Naive, Stl);
        for i in 0..200u32 {
            let key = format!("drift-{i:04}");
            let _ = guarded.hash_bytes(key.as_bytes());
        }
        let sample = guarded.reservoir_keys();
        assert_eq!(sample.len(), RESERVOIR_CAP);
        assert!(sample.iter().all(|k| k.starts_with(b"drift-")));
    }

    #[test]
    fn resynthesis_widens_the_pattern_and_rearms() {
        let pattern = Regex::compile(r"\d{8}").expect("test regex is valid by construction");
        let mut guarded = GuardedHash::from_pattern(&pattern, Family::OffXor, Stl);
        for i in 0..50u32 {
            let _ = guarded.hash_bytes(format!("{i:07}x").as_bytes());
        }
        guarded.degrade();
        assert_eq!(guarded.resynthesize(), Resynth::Applied);
        assert!(!guarded.is_degraded());
        assert_eq!(guarded.stats().total(), 0);
        // Both the original and the drifted shape now pass the guard.
        assert!(guarded.guard().matches(b"12345678"));
        assert!(guarded.guard().matches(b"0000000x"));
    }

    #[test]
    fn fused_batch_verdicts_agree_with_scalar_matches() {
        for regex in [
            r"\d{3}-\d{2}-\d{4}",
            r"(([0-9]{3})\.){3}[0-9]{3}",
            r"[a-z]{8}[0-9]{0,4}",
            r"\d{4}",
        ] {
            let (pattern, guard) = guard_of(regex);
            let keys: Vec<Vec<u8>> = vec![
                b"123-45-6789".to_vec(),
                b"192.168.001.017".to_vec(),
                b"abcdefgh12".to_vec(),
                b"1234".to_vec(),
                b"".to_vec(),
                b"totally off format!".to_vec(),
                b"123-45-678".to_vec(),
                vec![0xFF; 11],
                b"abcdefgh123x".to_vec(),
                b"999-99-9999".to_vec(),
                b"12345".to_vec(),
            ];
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            let fixed = pattern.min_len() == pattern.max_len() && pattern.min_len() >= 8;
            for family in Family::ALL {
                let guarded = GuardedHash::from_pattern(&pattern, family, Stl);
                let Some(kernel) = guarded.fused() else {
                    assert!(!fixed || family == Family::Aes, "{regex} {family}");
                    continue;
                };
                for width in [1usize, 3, 7, 8, 11] {
                    let batch = &refs[..width];
                    let mut hashes = vec![0u64; width];
                    let mut verdicts = vec![false; width];
                    kernel.eval_batch(batch, &mut hashes, &mut verdicts);
                    for ((key, &v), &h) in batch.iter().zip(&verdicts).zip(&hashes) {
                        assert_eq!(v, guard.matches(key), "{regex} {family} {key:?}");
                        assert_eq!(v, pattern.matches(key), "{regex} {family} {key:?}");
                        if v {
                            assert_eq!(h, guarded.specialized().hash_bytes(key), "{regex}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn guarded_hash_batch_matches_scalar_routing_and_counters() {
        use crate::hash::HashBatch;
        let pattern =
            Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("test regex is valid by construction");
        let keys: Vec<Vec<u8>> = (0..23)
            .map(|i: u32| {
                if i % 5 == 3 {
                    format!("drifted-{i}").into_bytes()
                } else if i % 7 == 6 {
                    // Right length, a constant bit off: only the verdict,
                    // not the length compare, can route it.
                    format!("{:03}_{:02}-{:04}", i, i % 97, i * 7).into_bytes()
                } else {
                    format!("{:03}-{:02}-{:04}", i, i % 97, i * 7).into_bytes()
                }
            })
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        for family in Family::ALL {
            let inner = SynthesizedHash::from_pattern(&pattern, family);
            let batched = GuardedHash::new(&pattern, inner.clone(), Stl);
            let scalar = GuardedHash::new(&pattern, inner, Stl);
            // Every family but Aes takes the fused batch verdict.
            assert_eq!(batched.fused().is_some(), family != Family::Aes, "{family}");
            for width in [3usize, 8, refs.len()] {
                for chunk in refs.chunks(width) {
                    let mut out = vec![0u64; chunk.len()];
                    batched.hash_batch(chunk, &mut out);
                    let expect: Vec<u64> = chunk.iter().map(|k| scalar.hash_bytes(k)).collect();
                    assert_eq!(out, expect, "{family} width {width}");
                }
            }
            assert_eq!(batched.stats().in_format(), scalar.stats().in_format());
            assert_eq!(batched.stats().off_format(), scalar.stats().off_format());
            assert_eq!(batched.reservoir_keys(), scalar.reservoir_keys());
        }
    }

    #[test]
    fn degraded_hash_batch_uses_the_fallback_for_everything() {
        use crate::hash::HashBatch;
        let pattern =
            Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("test regex is valid by construction");
        let guarded = GuardedHash::from_pattern(&pattern, Family::OffXor, Stl);
        guarded.degrade();
        let keys: [&[u8]; 2] = [b"123-45-6789", b"off format"];
        let mut out = [0u64; 2];
        guarded.hash_batch(&keys, &mut out);
        for (key, h) in keys.iter().zip(out) {
            assert_eq!(h, guarded.hash_bytes(key));
        }
        assert_eq!(guarded.stats().total(), 0, "degraded mode does not count");
    }

    #[test]
    fn resynthesize_without_drift_is_a_no_op() {
        let pattern = Regex::compile(r"\d{8}").expect("test regex is valid by construction");
        let mut guarded = GuardedHash::from_pattern(&pattern, Family::OffXor, Stl);
        let _ = guarded.hash_bytes(b"12345678");
        assert_eq!(guarded.resynthesize(), Resynth::NoDrift);
    }

    #[test]
    fn failed_resynthesis_leaves_mode_stats_and_reservoir_untouched() {
        // Satellite regression: a reservoir whose widened pattern the
        // synthesis function rejects must not half-apply anything.
        let pattern = Regex::compile(r"\d{8}").expect("test regex is valid by construction");
        let mut guarded = GuardedHash::from_pattern(&pattern, Family::Pext, Stl);
        for i in 0..50u32 {
            let _ = guarded.hash_bytes(format!("{i:07}x").as_bytes());
        }
        guarded.degrade();
        let keys_before = guarded.reservoir_keys();
        assert!(!keys_before.is_empty(), "drift was sampled");
        let stats_before = (guarded.stats().in_format(), guarded.stats().off_format());
        let guard_before = guarded.guard().clone();
        let out = guarded.resynthesize_with(|widened| {
            // Simulate from_examples rejecting the widened pattern with an
            // out-of-bounds-load shape error.
            Err(SynthError::PlanLoadOutOfBounds {
                offset: widened.max_len() as u32,
                width: 8,
                key_len: widened.max_len(),
            })
        });
        assert!(matches!(out, Resynth::SynthFailed(_)), "{out:?}");
        assert!(guarded.is_degraded(), "mode untouched");
        assert_eq!(
            (guarded.stats().in_format(), guarded.stats().off_format()),
            stats_before,
            "stats untouched"
        );
        assert_eq!(guarded.reservoir_keys(), keys_before, "reservoir untouched");
        assert_eq!(guarded.guard(), &guard_before, "guard untouched");
        // The same reservoir still resynthesizes fine with a working
        // synthesizer afterwards.
        assert_eq!(guarded.resynthesize(), Resynth::Applied);
    }

    #[test]
    fn poisoned_reservoir_recovers_instead_of_disabling_sampling() {
        // Satellite regression: after a panic poisons the reservoir mutex,
        // sampling, snapshots and resynthesis must all keep working.
        let pattern = Regex::compile(r"\d{8}").expect("test regex is valid by construction");
        let mut guarded = GuardedHash::from_pattern(&pattern, Family::OffXor, Stl);
        let _ = guarded.hash_bytes(b"0000000x"); // one sampled key
        let poisoner = guarded.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner
                .reservoir
                .lock()
                .expect("first lock of a not-yet-poisoned mutex");
            panic!("poison the reservoir");
        })
        .join();
        assert!(guarded.reservoir.is_poisoned(), "setup: mutex is poisoned");
        // Scalar and batched sampling still record keys.
        let _ = guarded.hash_bytes(b"1111111x");
        use crate::hash::HashBatch;
        let keys: [&[u8]; 1] = [b"2222222x"];
        let mut out = [0u64; 1];
        guarded.hash_batch(&keys, &mut out);
        let sampled = guarded.reservoir_keys();
        assert!(sampled.contains(&b"1111111x".to_vec()), "{sampled:?}");
        assert!(sampled.contains(&b"2222222x".to_vec()), "{sampled:?}");
        // Widening and resynthesis recover the guard too.
        assert!(guarded.resynthesize_pattern().is_some());
        assert_eq!(guarded.resynthesize(), Resynth::Applied);
        assert!(guarded.guard().matches(b"1111111x"));
    }

    /// The keyed rung's contract, exactly: an in-format key under an
    /// injective plan hashes as the seeded bijection of its specialized
    /// hash and is vouched for; every other key hashes as tagged SipHash
    /// of its bytes and is not.
    fn expected_keyed(
        guarded: &GuardedHash<SynthesizedHash, Stl>,
        injective: bool,
        key: &[u8],
    ) -> (u64, bool) {
        let (k0, k1) = guarded.current_seed();
        if injective && guarded.guard().matches(key) {
            let x = guarded.specialized().hash_bytes(key);
            (fmix64((x ^ k0).wrapping_mul(k1 | 1)), true)
        } else {
            (fmix64(siphash13(k0, k1, key) ^ KEYED_TAG), false)
        }
    }

    #[test]
    fn keyed_mode_vouches_exactly_for_in_format_keys_under_an_injective_plan() {
        let pattern =
            Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("test regex is valid by construction");
        let key: &[u8] = b"123-45-6789";
        let off: &[u8] = b"attack key!";
        for family in Family::ALL {
            let inner = SynthesizedHash::from_pattern(&pattern, family);
            let injective = inner.injective_over(&pattern);
            assert_eq!(injective, family != Family::Aes, "{family}");
            let guarded = GuardedHash::new(&pattern, inner.clone(), Stl);
            let clone = guarded.clone();
            let seeds = crate::hash::keyed::FixedSeedSource::new(0x5E9E);
            guarded.escalate_keyed(&seeds);
            assert!(clone.is_keyed(), "mode is shared across clones");
            let want = expected_keyed(&guarded, injective, key);
            assert_eq!(want.1, injective, "{family}");
            assert_eq!(clone.hash_routed(key), want, "{family} in format");
            let want_off = expected_keyed(&guarded, injective, off);
            assert_eq!(clone.hash_routed(off), want_off, "{family} off format");
            assert!(!want_off.1, "{family}");
            assert_ne!(clone.hash_bytes(key), inner.hash_bytes(key), "{family}");
            // Keyed hashing bumps no drift counters and samples nothing: the
            // traffic is presumed adversarial, not drifted.
            assert_eq!(clone.stats().total(), 0, "{family}");
            assert!(clone.reservoir_keys().is_empty(), "{family}");
            // A rotation moves the bijection with the seed.
            guarded.rotate_seed(&seeds);
            assert_eq!(
                guarded.hash_routed(key),
                expected_keyed(&guarded, injective, key),
                "{family} rotated"
            );
            assert_ne!(guarded.hash_bytes(key), want.0, "{family} rotated");
        }
    }

    #[test]
    fn keyed_batch_agrees_with_scalar() {
        use crate::hash::HashBatch;
        let pattern = Regex::compile(r"\d{8}").expect("test regex is valid by construction");
        let in_format: Vec<Vec<u8>> = (0..19u32)
            .map(|i| format!("{:08}", i * 7919).into_bytes())
            .collect();
        for family in Family::ALL {
            let guarded = GuardedHash::from_pattern(&pattern, family, Stl);
            let injective = guarded.specialized().injective_over(&pattern);
            guarded.escalate_keyed(&crate::hash::keyed::FixedSeedSource::new(9));
            // All in format (whole chunks take the batched kernel), then
            // in- and off-format keys mixed at every lane.
            let mut keys: Vec<&[u8]> = in_format.iter().map(Vec::as_slice).collect();
            for (i, extra) in [&b"attack!"[..], b"x", b"1234567", b"123456789", b"abcdefgh"]
                .into_iter()
                .enumerate()
            {
                keys.insert(8 + 3 * i, extra);
            }
            for width in [1, 3, 8, keys.len()] {
                for batch in keys.chunks(width) {
                    let mut out = vec![0u64; batch.len()];
                    guarded.hash_batch(batch, &mut out);
                    for (key, code) in batch.iter().zip(&out) {
                        let want = expected_keyed(&guarded, injective, key);
                        assert_eq!(guarded.hash_routed(key), want, "{family} {key:?}");
                        assert_eq!(*code, want.0, "{family} width {width} {key:?}");
                    }
                }
            }
            assert_eq!(guarded.stats().total(), 0, "{family}");
        }
    }

    #[test]
    fn epoch_frozen_pins_the_keyed_seed_across_rotation() {
        let pattern = Regex::compile(r"\d{8}").expect("test regex is valid by construction");
        let guarded = GuardedHash::from_pattern(&pattern, Family::OffXor, Stl);
        let seeds = crate::hash::keyed::FixedSeedSource::new(42);
        guarded.escalate_keyed(&seeds);
        let before = guarded.hash_bytes(b"12345678");
        let frozen = guarded.epoch_frozen(GuardMode::Keyed);
        guarded.rotate_seed(&seeds);
        assert_ne!(
            guarded.hash_bytes(b"12345678"),
            before,
            "rotation must change live hashes"
        );
        assert_eq!(
            frozen.hash_bytes(b"12345678"),
            before,
            "frozen epoch must reproduce the pre-rotation hashes"
        );
    }

    #[test]
    fn rearm_restores_the_specialized_route() {
        let pattern =
            Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("test regex is valid by construction");
        let inner = SynthesizedHash::from_pattern(&pattern, Family::Pext);
        let guarded = GuardedHash::new(&pattern, inner.clone(), Stl);
        let _ = guarded.hash_bytes(b"not an ssn"); // sampled + counted
        guarded.escalate_keyed(&crate::hash::keyed::FixedSeedSource::new(7));
        guarded.rearm();
        assert_eq!(guarded.mode(), GuardMode::Guarded);
        assert_eq!(
            guarded.hash_bytes(b"123-45-6789"),
            inner.hash_bytes(b"123-45-6789")
        );
        // Counters reset and the (possibly attacker-filled) sample is gone.
        assert_eq!(guarded.stats().off_format(), 0);
        assert!(guarded.reservoir_keys().is_empty());
    }

    #[test]
    fn escalation_path_survives_a_poisoned_reservoir() {
        // Satellite regression: the ladder must work even after a panic
        // poisons the reservoir mutex — `rearm` clears it through the
        // recovering lock, and sampling resumes afterwards.
        let pattern = Regex::compile(r"\d{8}").expect("test regex is valid by construction");
        let guarded = GuardedHash::from_pattern(&pattern, Family::Naive, Stl);
        let poisoner = guarded.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner
                .reservoir
                .lock()
                .expect("first lock of a not-yet-poisoned mutex");
            panic!("poison the reservoir");
        })
        .join();
        assert!(guarded.reservoir.is_poisoned(), "setup: mutex is poisoned");
        let seeds = crate::hash::keyed::FixedSeedSource::new(3);
        guarded.escalate_keyed(&seeds);
        guarded.rotate_seed(&seeds);
        let keyed = guarded.hash_bytes(b"12345678");
        assert_eq!(keyed, guarded.hash_bytes(b"12345678"));
        guarded.rearm();
        assert_eq!(guarded.mode(), GuardMode::Guarded);
        let _ = guarded.hash_bytes(b"off format"); // sampling works again
        assert!(guarded.reservoir_keys().contains(&b"off format".to_vec()));
    }

    #[test]
    fn window_counts_cover_only_traffic_since_the_last_roll() {
        let stats = GuardStats::default();
        stats.in_format.add(100);
        stats.off_format.add(3);
        assert_eq!(stats.window_counts(), (3, 103));
        stats.roll_window();
        assert_eq!(stats.window_counts(), (0, 0));
        stats.off_format.add(7);
        stats.in_format.add(13);
        assert_eq!(stats.window_counts(), (7, 20));
        assert_eq!(stats.total(), 123, "lifetime totals are untouched");
        stats.reset();
        assert_eq!(stats.window_counts(), (0, 0));
        assert_eq!(stats.total(), 0);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        // Pinned semantics: every counter saturates at u64::MAX. A wrapped
        // counter would report a near-zero lifetime total after centuries
        // of uptime — worse, a wrapped window base could make the window
        // delta exceed the lifetime count.
        let stats = GuardStats::default();
        stats.in_format.add(u64::MAX - 1);
        assert_eq!(stats.in_format(), u64::MAX - 1);
        stats.in_format.inc();
        assert_eq!(stats.in_format(), u64::MAX);
        stats.in_format.inc();
        assert_eq!(stats.in_format(), u64::MAX, "bump saturates");
        stats.in_format.add(1 << 40);
        assert_eq!(stats.in_format(), u64::MAX, "bump_many saturates");
        // total() saturates instead of wrapping past 2^64.
        stats.off_format.add(7);
        assert_eq!(stats.total(), u64::MAX);
        // Window deltas never underflow, even against a saturated base.
        stats.roll_window();
        assert_eq!(stats.window_counts(), (0, 0));
        stats.off_format.add(5);
        assert_eq!(stats.window_counts(), (5, 5));
    }

    #[test]
    fn concurrent_bumps_are_not_lost() {
        // The counters are true atomic read-modify-writes: N threads each
        // recording M keys must account for exactly N*M observations.
        let stats = std::sync::Arc::new(GuardStats::default());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let stats = std::sync::Arc::clone(&stats);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        stats.in_format.inc();
                    }
                });
            }
        });
        assert_eq!(stats.in_format(), 40_000);
    }

    #[test]
    fn detached_copies_share_no_drift_state() {
        let pattern =
            Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("test regex is valid by construction");
        let inner = SynthesizedHash::from_pattern(&pattern, Family::OffXor);
        let original = GuardedHash::new(&pattern, inner.clone(), Stl);
        let detached = original.detached();
        // Hashes agree; accounting does not flow between the copies.
        let key: &[u8] = b"123-45-6789";
        assert_eq!(original.hash_bytes(key), detached.hash_bytes(key));
        let _ = original.hash_bytes(b"off-format!");
        assert_eq!(original.stats().total(), 2);
        assert_eq!(detached.stats().total(), 1);
        // Degrading one side leaves the other guarded.
        original.degrade();
        assert!(original.is_degraded());
        assert!(!detached.is_degraded(), "detached copy keeps its own mode");
        assert_eq!(detached.hash_bytes(key), inner.hash_bytes(key));
    }

    #[test]
    fn only_an_in_format_key_under_an_injective_plan_is_vouched_for() {
        let pattern =
            Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("test regex is valid by construction");
        let key: &[u8] = b"123-45-6789";
        let off: &[u8] = b"123/45/6789";
        for family in Family::ALL {
            let inner = SynthesizedHash::from_pattern(&pattern, family).with_seed(0xABCD);
            let guarded = GuardedHash::new(&pattern, inner.clone(), Stl);
            let injective = family != Family::Aes;
            // The route never changes the hash, and vouches only in format.
            assert_eq!(guarded.hash_routed(key), (inner.hash_bytes(key), injective));
            assert_eq!(guarded.hash_routed(off), (guarded.hash_bytes(off), false));
            // An unguarded hash never checks the format, so never vouches.
            assert!(!inner.hash_routed(key).1);
            assert_eq!(inner.injective_over(&pattern), injective, "{family}");
            // Frozen and detached copies of the guarded routing keep the
            // verdict; a copy pinned to the degraded mode never vouches, one
            // pinned to the keyed mode vouches as the guarded routing does.
            let frozen = guarded.epoch_frozen(GuardMode::Guarded);
            assert_eq!(frozen.hash_routed(key).1, injective, "{family}");
            assert_eq!(guarded.detached().hash_routed(key).1, injective, "{family}");
            let frozen_degraded = guarded.epoch_frozen(GuardMode::Degraded);
            let frozen_keyed = guarded.epoch_frozen(GuardMode::Keyed);
            guarded.degrade();
            assert!(!guarded.hash_routed(key).1, "{family} degraded");
            assert!(
                !frozen_degraded.hash_routed(key).1,
                "{family} frozen degraded"
            );
            guarded.escalate_keyed(&crate::hash::keyed::FixedSeedSource::new(1));
            assert_eq!(guarded.hash_routed(key).1, injective, "{family} keyed");
            assert!(!guarded.hash_routed(off).1, "{family} keyed off format");
            assert_eq!(
                frozen_keyed.hash_routed(key).1,
                injective,
                "{family} frozen keyed"
            );
            assert_eq!(
                frozen.hash_routed(key).1,
                injective,
                "the frozen copy ignores flips"
            );
            guarded.rearm();
            assert_eq!(guarded.hash_routed(key).1, injective, "{family} rearmed");
        }
    }

    #[test]
    fn resynthesize_with_judges_whatever_plan_it_installs() {
        let pattern =
            Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("test regex is valid by construction");
        let key: &[u8] = b"123-45-6789";
        let mut guarded = GuardedHash::from_pattern(&pattern, Family::Pext, Stl);
        assert!(guarded.hash_routed(key).1);
        // An Aes plan over the widened pattern: not injective.
        let _ = guarded.hash_bytes(b"123/45/6789");
        let out = guarded
            .resynthesize_with(|widened| Ok(SynthesizedHash::from_pattern(widened, Family::Aes)));
        assert_eq!(out, Resynth::Applied);
        assert!(guarded.guard().matches(key));
        assert!(!guarded.hash_routed(key).1, "an Aes plan never vouches");
        // The original SSN plan, stale against the widened guard: its masks
        // skip separator bits the guard now lets vary.
        let _ = guarded.hash_bytes(b"123_45_6789");
        let stale = SynthesizedHash::from_pattern(&pattern, Family::Pext);
        assert_eq!(guarded.resynthesize_with(|_| Ok(stale)), Resynth::Applied);
        assert!(!guarded.hash_routed(key).1, "a stale plan never vouches");
        // A Pext plan synthesized for the widened pattern vouches again.
        let _ = guarded.hash_bytes(b"123 45 6789");
        let out = guarded
            .resynthesize_with(|widened| Ok(SynthesizedHash::from_pattern(widened, Family::Pext)));
        assert_eq!(out, Resynth::Applied);
        assert!(guarded.hash_routed(key).1);
        assert!(guarded.hash_routed(b"123_45 6789").1);
    }

    #[test]
    fn epoch_frozen_copies_pin_routing_and_stay_silent() {
        let pattern =
            Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("test regex is valid by construction");
        let inner = SynthesizedHash::from_pattern(&pattern, Family::OffXor);
        let live = GuardedHash::new(&pattern, inner.clone(), Stl);
        let frozen_guarded = live.epoch_frozen(GuardMode::Guarded);
        let frozen_degraded = live.epoch_frozen(GuardMode::Degraded);
        let key: &[u8] = b"123-45-6789";
        let off: &[u8] = b"not an ssn!";

        // The pinned copies ignore the shared flip.
        live.degrade();
        assert_eq!(frozen_guarded.mode(), GuardMode::Guarded);
        assert_eq!(frozen_guarded.hash_bytes(key), inner.hash_bytes(key));
        assert_eq!(
            frozen_degraded.hash_bytes(key),
            live.hash_bytes(key),
            "degraded-pinned copy matches the live degraded hash"
        );

        // Silent copies never touch the shared counters or the reservoir.
        let before = live.stats().total();
        let _ = frozen_guarded.hash_bytes(off);
        let _ = frozen_degraded.hash_bytes(off);
        use crate::hash::HashBatch;
        let mut out = [0u64; 2];
        frozen_guarded.hash_batch(&[key, off], &mut out);
        assert_eq!(out[0], inner.hash_bytes(key));
        assert_eq!(live.stats().total(), before);
        assert!(frozen_guarded.reservoir_keys().is_empty());
    }
}
