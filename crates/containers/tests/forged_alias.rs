//! A hash match decides equality only between keys the hasher vouches
//! for. These tests forge the one collision that could fool a table that
//! trusted any vouched hash match, on both rungs that vouch.
//!
//! On the guarded rung: an off-format key whose tagged fallback hash
//! equals an in-format key's specialized hash. The forging fallback
//! inverts the guard's finalizer and tag, and it hashes the in-format key
//! to the same code too, so the pair still collides after a degrade.
//!
//! On the keyed rung, under a known seed: an in-format key whose seeded
//! bijection equals an off-format key's tagged SipHash. SipHash cannot be
//! inverted, so the specialized hash is aimed instead: the bijection and
//! its finalizer are inverted to find the code the in-format key must
//! hash to, and the fallback sends both keys to the same code on the
//! degraded rung below.
//!
//! With the two keys split across a migration's old and live epochs, in
//! both orders, no lookup, insert, removal or multimap count may confuse
//! them.

use sepe_baselines::StlHash;
use sepe_containers::{UnorderedMap, UnorderedMultiMap};
use sepe_core::guard::{GuardMode, GuardedHash};
use sepe_core::hash::{siphash13, ByteHash, FixedSeedSource, SeedSource, SynthesizedHash};
use sepe_core::pattern::KeyPattern;
use sepe_core::regex::Regex;
use sepe_core::synth::Family;

/// The guard's off-format domain tag, keyed domain tag and finalizer
/// constants.
const OFF_FORMAT_TAG: u64 = 0x0FF0_F0E5_EC7E_D000;
const KEYED_TAG: u64 = 0x5EED_5EED_5EED_5EED;
const C1: u64 = 0xFF51_AFD7_ED55_8CCD;
const C2: u64 = 0xC4CE_B9FE_1A85_EC53;

/// The multiplicative inverse of an odd `c` modulo 2^64 (Newton).
fn inverse(c: u64) -> u64 {
    let mut x = c;
    for _ in 0..6 {
        x = x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)));
    }
    assert_eq!(c.wrapping_mul(x), 1);
    x
}

/// The guard's Murmur3 finalizer.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(C1);
    h ^= h >> 33;
    h = h.wrapping_mul(C2);
    h ^= h >> 33;
    h
}

/// The inverse of the guard's Murmur3 finalizer.
fn unfmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(inverse(C2));
    h ^= h >> 33;
    h = h.wrapping_mul(inverse(C1));
    h ^= h >> 33;
    h
}

const IN_FORMAT: &[u8] = b"123-45-6789";
const FORGED: &[u8] = b"forged key!";

/// The seed stream the keyed rung draws from: the attacker knows it.
const SEED: u64 = 0x5EED;

/// The rung a forged pair collides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// Guarded and degraded: split by a degrade.
    Guarded,
    /// Degraded and keyed: split by the escalation to the keyed rung.
    Keyed,
}

/// The SSN plan, except that it hashes [`IN_FORMAT`] to `aim` when set.
/// It claims the plan's injectivity; aiming one key at a fresh 64-bit
/// code keeps that true over the keys these tests file (checked in
/// [`forged_hasher`]).
#[derive(Debug, Clone)]
struct Aimed {
    plan: SynthesizedHash,
    aim: Option<u64>,
}

impl ByteHash for Aimed {
    fn hash_bytes(&self, key: &[u8]) -> u64 {
        match self.aim {
            Some(code) if key == IN_FORMAT => code,
            _ => self.plan.hash_bytes(key),
        }
    }

    fn injective_over(&self, pattern: &KeyPattern) -> bool {
        self.plan.injective_over(pattern)
    }
}

/// A fallback that sends both keys of the pair to the tagged code `target`
/// and every other key through the STL hash.
#[derive(Debug, Clone)]
struct Forger {
    preimage: u64,
}

impl Forger {
    fn aiming_at(target: u64) -> Self {
        Forger {
            preimage: unfmix64(target) ^ OFF_FORMAT_TAG,
        }
    }
}

impl ByteHash for Forger {
    fn hash_bytes(&self, key: &[u8]) -> u64 {
        if key == IN_FORMAT || key == FORGED {
            self.preimage
        } else {
            StlHash::new().hash_bytes(key)
        }
    }
}

type Hasher = GuardedHash<Aimed, Forger>;

/// A guarded SSN hasher under `family` whose forged key collides with
/// [`IN_FORMAT`] on every rung of `rung`'s pair: vouched for in format,
/// unvouched off format.
fn forged_hasher(family: Family, rung: Rung) -> Hasher {
    let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("compiles");
    let plan = SynthesizedHash::from_pattern(&pattern, family);
    let (target, aim) = match rung {
        Rung::Guarded => (plan.hash_bytes(IN_FORMAT), None),
        Rung::Keyed => {
            // The forged key's keyed code under the known seed, and the
            // specialized code whose seeded bijection lands on it.
            let (k0, k1) = FixedSeedSource::new(SEED).next_seed();
            let target = fmix64(siphash13(k0, k1, FORGED) ^ KEYED_TAG);
            let aim = unfmix64(target).wrapping_mul(inverse(k1 | 1)) ^ k0;
            assert_eq!(fmix64((aim ^ k0).wrapping_mul(k1 | 1)), target);
            (target, Some(aim))
        }
    };
    let specialized = Aimed { plan, aim };
    assert!(
        filler().all(|k| specialized.hash_bytes(&k) != specialized.hash_bytes(IN_FORMAT)),
        "{family}: the aimed code stays unique among the filed keys"
    );
    let hasher = GuardedHash::new(&pattern, specialized, Forger::aiming_at(target));
    let degraded = hasher.epoch_frozen(GuardMode::Degraded);
    assert_eq!(degraded.hash_routed(IN_FORMAT), (target, false), "{family}");
    assert_eq!(degraded.hash_routed(FORGED), (target, false), "{family}");
    let vouching = match rung {
        Rung::Guarded => hasher.epoch_frozen(GuardMode::Guarded),
        Rung::Keyed => {
            let keyed = hasher.detached();
            keyed.escalate_keyed(&FixedSeedSource::new(SEED));
            keyed
        }
    };
    assert_eq!(vouching.hash_routed(IN_FORMAT), (target, true), "{family}");
    assert_eq!(
        vouching.hash_routed(FORGED),
        (target, false),
        "{family}: the forge"
    );
    hasher
}

/// In-format keys filed ahead of the pair, so the handful of mutating ops
/// after the degrade drains none of the pair out of the old epoch.
fn filler() -> impl Iterator<Item = Vec<u8>> {
    (0..400u32).map(|i| format!("{:03}-{:02}-{:04}", i % 997, i % 89, i).into_bytes())
}

/// Files `old` before the transition that splits `rung`'s pair of routings
/// and `live` after it, then checks every map operation against the pair
/// while the epoch is open.
fn check_map(family: Family, rung: Rung, old: &[u8], live: &[u8]) {
    let what = format!("{family} {rung:?}, {old:?} old and {live:?} live");
    let seeds = FixedSeedSource::new(SEED);
    let mut m: UnorderedMap<Vec<u8>, u32, _> =
        UnorderedMap::with_hasher(forged_hasher(family, rung));
    if rung == Rung::Keyed {
        // Onto the degraded rung while empty: no epoch, and no seed drawn.
        // A storm goes from there to keyed, as from the guarded rung.
        m.degrade_now();
        assert_eq!(m.guard_mode(), GuardMode::Degraded, "{what}");
    }
    for (i, key) in filler().enumerate() {
        m.insert(key, 1000 + i as u32);
    }
    assert_eq!(m.insert(old.to_vec(), 1), None, "{what}");
    match rung {
        Rung::Guarded => m.degrade_now(),
        Rung::Keyed => {
            m.escalate_now(&seeds);
            assert_eq!(m.guard_mode(), GuardMode::Keyed, "{what}");
            assert_eq!(
                m.hasher().current_seed(),
                FixedSeedSource::new(SEED).next_seed(),
                "{what}: the known seed"
            );
        }
    }
    assert_eq!(
        m.insert(live.to_vec(), 2),
        None,
        "{what}: aliased on insert"
    );
    assert!(m.migration_in_flight(), "{what}");
    assert_eq!(m.len(), 402, "{what}");
    assert_eq!(m.get(old), Some(&1), "{what}");
    assert_eq!(m.get(live), Some(&2), "{what}");
    // Overwrites find each key's own entry, in either epoch.
    assert_eq!(m.insert(old.to_vec(), 3), Some(1), "{what}");
    assert_eq!(m.insert(live.to_vec(), 4), Some(2), "{what}");
    assert_eq!(m.len(), 402, "{what}");
    // Removing one leaves the other, and the removed one stays absent
    // although its hash still matches the other's entry.
    assert_eq!(m.remove(live), Some(4), "{what}");
    assert_eq!(
        m.get(live),
        None,
        "{what}: aliased after removing the live key"
    );
    assert_eq!(m.remove(live), None, "{what}");
    assert_eq!(m.get(old), Some(&3), "{what}");
    assert_eq!(m.remove(old), Some(3), "{what}");
    assert_eq!(m.get(old), None, "{what}");
    assert!(m.migration_in_flight(), "{what}: the pair was never split");
    // Once more the other way round: the old key goes first.
    assert_eq!(m.insert(live.to_vec(), 5), None, "{what}");
    m.finish_migration();
    assert_eq!(m.insert(old.to_vec(), 6), None, "{what}");
    assert_eq!(m.remove(old), Some(6), "{what}");
    assert_eq!(m.get(old), None, "{what}");
    assert_eq!(m.get(live), Some(&5), "{what}");
}

#[test]
fn a_forged_fallback_collision_never_aliases_in_a_map() {
    for family in [Family::OffXor, Family::Pext] {
        check_map(family, Rung::Guarded, IN_FORMAT, FORGED);
        check_map(family, Rung::Guarded, FORGED, IN_FORMAT);
    }
}

#[test]
fn a_forged_keyed_collision_never_aliases_in_a_map() {
    for family in [Family::OffXor, Family::Pext] {
        check_map(family, Rung::Keyed, IN_FORMAT, FORGED);
        check_map(family, Rung::Keyed, FORGED, IN_FORMAT);
    }
}

#[test]
fn a_forged_fallback_collision_never_aliases_in_a_multimap_count() {
    for family in [Family::OffXor, Family::Pext] {
        for (old, live) in [(IN_FORMAT, FORGED), (FORGED, IN_FORMAT)] {
            let what = format!("{family}, {old:?} old and {live:?} live");
            let mut m: UnorderedMultiMap<Vec<u8>, u32, _> =
                UnorderedMultiMap::with_hasher(forged_hasher(family, Rung::Guarded));
            for (i, key) in filler().enumerate() {
                m.insert(key, i as u32);
            }
            m.insert(old.to_vec(), 1);
            m.insert(old.to_vec(), 2);
            m.degrade_now();
            m.insert(live.to_vec(), 3);
            assert!(m.migration_in_flight(), "{what}");
            assert_eq!(m.count(old), 2, "{what}");
            assert_eq!(m.count(live), 1, "{what}");
            assert_eq!(m.remove_one(live), Some(3), "{what}");
            assert_eq!(m.count(live), 0, "{what}");
            assert_eq!(m.count(old), 2, "{what}");
            m.insert(live.to_vec(), 4);
            assert_eq!(m.remove_all(old), 2, "{what}");
            assert_eq!((m.count(old), m.count(live)), (0, 1), "{what}");
            assert!(m.migration_in_flight(), "{what}: the pair was never split");
        }
    }
}

#[test]
fn a_forged_keyed_collision_never_aliases_in_a_multimap_count() {
    for family in [Family::OffXor, Family::Pext] {
        let hasher = forged_hasher(family, Rung::Keyed);
        hasher.escalate_keyed(&FixedSeedSource::new(SEED));
        let mut m: UnorderedMultiMap<Vec<u8>, u32, _> = UnorderedMultiMap::with_hasher(hasher);
        for (i, key) in filler().enumerate() {
            m.insert(key, i as u32);
        }
        m.insert(IN_FORMAT.to_vec(), 1);
        m.insert(IN_FORMAT.to_vec(), 2);
        m.insert(FORGED.to_vec(), 3);
        assert_eq!((m.count(IN_FORMAT), m.count(FORGED)), (2, 1), "{family}");
        assert_eq!(m.remove_one(FORGED), Some(3), "{family}");
        assert_eq!((m.count(IN_FORMAT), m.count(FORGED)), (2, 0), "{family}");
        m.insert(FORGED.to_vec(), 4);
        assert_eq!(m.remove_all(IN_FORMAT), 2, "{family}");
        assert_eq!((m.count(IN_FORMAT), m.count(FORGED)), (0, 1), "{family}");
        assert_eq!(m.get(FORGED), Some(&4), "{family}");
    }
}
