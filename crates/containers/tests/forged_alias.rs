//! A hash match decides equality only between keys the hasher vouches
//! for. These tests forge the one collision that could fool a table that
//! trusted any specialized-hash match: an off-format key whose tagged
//! fallback hash equals an in-format key's specialized hash. The forging
//! fallback inverts the guard's finalizer and tag, and it hashes the
//! in-format key to the same code too, so the pair still collides after
//! a degrade. With the two keys split across a migration's old and live
//! epochs, in both orders, no lookup, insert, removal or multimap count
//! may confuse them.

use sepe_baselines::StlHash;
use sepe_containers::{UnorderedMap, UnorderedMultiMap};
use sepe_core::guard::{GuardMode, GuardedHash};
use sepe_core::hash::{ByteHash, SynthesizedHash};
use sepe_core::regex::Regex;
use sepe_core::synth::Family;

/// The guard's off-format domain tag and finalizer constants.
const OFF_FORMAT_TAG: u64 = 0x0FF0_F0E5_EC7E_D000;
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

type Hasher = GuardedHash<SynthesizedHash, Forger>;

/// A guarded SSN hasher under `family` whose forged key collides with
/// [`IN_FORMAT`] on every rung the test takes.
fn forged_hasher(family: Family) -> Hasher {
    let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("compiles");
    let specialized = SynthesizedHash::from_pattern(&pattern, family);
    let target = specialized.hash_bytes(IN_FORMAT);
    let hasher = GuardedHash::new(&pattern, specialized, Forger::aiming_at(target));
    let frozen = hasher.epoch_frozen(GuardMode::Guarded);
    assert_eq!(frozen.hash_routed(IN_FORMAT), (target, true), "{family}");
    assert_eq!(
        frozen.hash_routed(FORGED),
        (target, false),
        "{family}: the forge"
    );
    let degraded = hasher.epoch_frozen(GuardMode::Degraded);
    assert_eq!(degraded.hash_routed(IN_FORMAT), (target, false), "{family}");
    assert_eq!(degraded.hash_routed(FORGED), (target, false), "{family}");
    hasher
}

/// In-format keys filed ahead of the pair, so the handful of mutating ops
/// after the degrade drains none of the pair out of the old epoch.
fn filler() -> impl Iterator<Item = Vec<u8>> {
    (0..400u32).map(|i| format!("{:03}-{:02}-{:04}", i % 997, i % 89, i).into_bytes())
}

/// Files `old` before a degrade and `live` after it, then checks every map
/// operation against the pair while the epoch is open.
fn check_map(family: Family, old: &[u8], live: &[u8]) {
    let what = format!("{family}, {old:?} old and {live:?} live");
    let mut m: UnorderedMap<Vec<u8>, u32, _> = UnorderedMap::with_hasher(forged_hasher(family));
    for (i, key) in filler().enumerate() {
        m.insert(key, 1000 + i as u32);
    }
    assert_eq!(m.insert(old.to_vec(), 1), None, "{what}");
    m.degrade_now();
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
        check_map(family, IN_FORMAT, FORGED);
        check_map(family, FORGED, IN_FORMAT);
    }
}

#[test]
fn a_forged_fallback_collision_never_aliases_in_a_multimap_count() {
    for family in [Family::OffXor, Family::Pext] {
        for (old, live) in [(IN_FORMAT, FORGED), (FORGED, IN_FORMAT)] {
            let what = format!("{family}, {old:?} old and {live:?} live");
            let mut m: UnorderedMultiMap<Vec<u8>, u32, _> =
                UnorderedMultiMap::with_hasher(forged_hasher(family));
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
