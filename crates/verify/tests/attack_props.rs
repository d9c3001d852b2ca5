//! Property-based pins for the collision-storm detector's hysteresis:
//! benign keygen workloads never escalate under the production
//! [`AttackPolicy`], a full escalation → de-escalation round trip
//! restores the specialized hasher with contents and counters intact, the
//! chain bound the detector's ticks read in place of a full walk never
//! changes a decision, and neither does the storm hold's early exit. On
//! the keyed rung an in-format flood trips the detector only under the
//! seed it was forged with.

use proptest::prelude::*;
use sepe_containers::{AttackPolicy, UnorderedMap};
use sepe_core::guard::{GuardMode, GuardedHash};
use sepe_core::hash::{ByteHash, FixedSeedSource};
use sepe_core::regex::Regex;
use sepe_core::synth::Family;
use sepe_keygen::{Distribution, KeyFormat, KeySampler};
use sepe_verify::{adversarial, attacker};

use std::collections::HashMap;

fn cell(seed: u64) -> (KeyFormat, Distribution, Family) {
    let format = KeyFormat::EVALUATED[(seed % 8) as usize];
    let dist = Distribution::ALL[((seed / 8) % 3) as usize];
    let family = Family::ALL[((seed / 24) % Family::ALL.len() as u64) as usize];
    (format, dist, family)
}

fn keygen_pool(format: KeyFormat, dist: Distribution, seed: u64, n: usize) -> Vec<Vec<u8>> {
    KeySampler::new(format, dist, seed)
        .distinct_pool(n)
        .into_iter()
        .map(String::into_bytes)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Hysteresis, across the whole evaluation grid: a benign workload —
    /// any paper format, any distribution, any family, pools large enough
    /// for the production detector to be live — must never climb a single
    /// rung of the escalation ladder.
    #[test]
    fn benign_keygen_workloads_never_escalate(seed in any::<u64>()) {
        let (format, dist, family) = cell(seed);
        let pattern = Regex::compile(&format.regex()).expect("evaluated formats compile");
        let pool = keygen_pool(format, dist, seed, 160);
        let ticks = adversarial::check_benign_stays_specialized(
            &pattern,
            family,
            sepe_baselines::CityHash::new(),
            &pool,
            seed,
        )
        .map_err(|e| TestCaseError(format!("{format:?} {dist:?} {family}: {e}")))?;
        prop_assert!(ticks > 0, "the detector must actually have been ticked");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The ladder round trip is lossless: climb both storm rungs (key,
    /// rotate), come back down through a quiet window, and
    /// the map must hold the same contents, route in-format keys through
    /// the same specialized hash as before, and report counters that
    /// exactly match the transcript.
    #[test]
    fn escalation_round_trip_restores_the_specialized_hasher(seed in any::<u64>()) {
        let (format, dist, family) = cell(seed);
        let pattern = Regex::compile(&format.regex()).expect("evaluated formats compile");
        let pool = keygen_pool(format, dist, seed, 96);
        let hasher = GuardedHash::from_pattern(&pattern, family, sepe_baselines::CityHash::new());
        let mut map: UnorderedMap<Vec<u8>, u64, _> = UnorderedMap::with_hasher(hasher);
        let mut twin: HashMap<Vec<u8>, u64> = HashMap::new();
        for (i, k) in pool.iter().enumerate() {
            map.insert(k.clone(), i as u64);
            twin.insert(k.clone(), i as u64);
        }
        let probes: Vec<&Vec<u8>> = pool.iter().step_by(13).collect();
        let before: Vec<u64> = probes.iter().map(|k| map.hash_of(k)).collect();

        // Up: key, rotate — each rung an incremental re-key.
        let seeds = FixedSeedSource::new(seed | 1);
        let mut keys_seen = Vec::new();
        for _ in 0..2 {
            map.escalate_now(&seeds);
            prop_assert_eq!(map.guard_mode(), GuardMode::Keyed);
            keys_seen.push(map.hasher().current_seed());
            map.finish_migration();
        }
        prop_assert_ne!(keys_seen[0], keys_seen[1], "the second rung rotates the seed");
        for k in &pool {
            prop_assert_eq!(map.get(k.as_slice()), twin.get(k.as_slice()), "keyed rung lost {:?}", k);
        }

        // Down: a quiet window re-arms the specialized route in one step.
        let policy = AttackPolicy { quiet_streak: 2, ..AttackPolicy::default() };
        let mut rearmed = false;
        for _ in 0..4 {
            if map.maybe_deescalate(&policy) {
                rearmed = true;
                break;
            }
        }
        prop_assert!(rearmed, "quiet window never re-armed the hasher");
        prop_assert_eq!(map.guard_mode(), GuardMode::Guarded);
        map.finish_migration();

        let after: Vec<u64> = probes.iter().map(|k| map.hash_of(k)).collect();
        prop_assert_eq!(before, after, "de-escalation must restore the specialized routing");
        prop_assert_eq!(map.len(), twin.len());
        for (k, v) in &twin {
            prop_assert_eq!(map.get(k.as_slice()), Some(v), "round trip lost {:?}", k);
        }
        prop_assert_eq!(
            (map.escalations(), map.seed_rotations(), map.deescalations()),
            (2, 1, 1),
            "counters must match the transcript"
        );
    }
}

/// The chain-bound invariants after one step: a known bound is at least
/// the walked longest chain, and every policy's skew verdict as a tick
/// judges it (the bound when that is not skewed, else the walk) equals the
/// verdict on the walk.
fn check_chain_bound<H: ByteHash>(
    map: &UnorderedMap<Vec<u8>, u64, H>,
    policies: &[AttackPolicy],
    step: usize,
) -> Result<(), TestCaseError> {
    let exact = map.max_bucket_len();
    let (len, buckets) = (map.len(), map.bucket_count());
    let bound = map.chain_bound();
    if let Some(b) = bound {
        prop_assert!(b >= exact, "step {step}: bound {b} below the walk {exact}");
    }
    for policy in policies {
        let walked = policy.chain_skewed(exact, len, buckets);
        let judged = match bound {
            Some(b) if !policy.chain_skewed(b, len, buckets) => false,
            _ => walked,
        };
        prop_assert_eq!(
            judged,
            walked,
            "step {step}: {policy:?} bound {bound:?} walk {exact}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random op sequences over a guarded map — new and existing inserts,
    /// removes, batches, reserves that rehash, forced transitions that
    /// open epochs, drains, clears, 64-key bucket floods (some removed
    /// again before the next tick), bursts of new keys inserted while an
    /// epoch drains, and detector ticks — keep the chain bound sound after
    /// every step. A twin that
    /// receives the same ops but forgets its bound before every tick (so
    /// each tick walks, as before the bound existed) must take exactly the
    /// same transitions. The twin's ticks ignore the probe tail, which a
    /// relinked chain order can shift; the skew half is what the bound
    /// replaces.
    #[test]
    fn chain_bound_never_changes_a_detector_decision(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..17, any::<u64>()), 1..160),
    ) {
        let (format, dist, family) = cell(seed);
        let pattern = Regex::compile(&format.regex()).expect("evaluated formats compile");
        let pool = keygen_pool(format, dist, seed, 300);
        let build = || {
            let hasher = GuardedHash::from_pattern(&pattern, family, sepe_baselines::CityHash::new());
            UnorderedMap::<Vec<u8>, u64, _>::with_hasher(hasher)
        };
        let (mut map, mut twin) = (build(), build());
        // Room for the pool and a few floods, so growth rarely forgets the
        // bound and ticks often judge a known one.
        map.reserve(pool.len() + 4 * 64);
        twin.reserve(pool.len() + 4 * 64);
        let (map_seeds, twin_seeds) = (FixedSeedSource::new(seed | 1), FixedSeedSource::new(seed | 1));
        let random = AttackPolicy {
            skew_factor: 1.0 + (seed >> 8) as f64 % 16.0,
            min_chain: 1 + (seed >> 16) as usize % 48,
            min_len: (seed >> 24) as usize % 300,
            trip_streak: 1 + (seed >> 32) as u32 % 3,
            quiet_streak: 1 + (seed >> 40) as u32 % 4,
            ..AttackPolicy::default()
        };
        let policies = [AttackPolicy::default(), random];
        let tick_policy = AttackPolicy {
            probe_p99_limit: u64::MAX,
            ..policies[(seed & 1) as usize]
        };
        let mut flooded: Vec<Vec<u8>> = Vec::new();
        for (step, &(op, arg)) in ops.iter().enumerate() {
            let key = |arg: u64| pool[(arg % pool.len() as u64) as usize].clone();
            match op {
                0..=4 => {
                    prop_assert_eq!(map.insert(key(arg), arg), twin.insert(key(arg), arg));
                }
                5 | 6 => {
                    let k = if arg & 1 == 1 && !flooded.is_empty() {
                        flooded[(arg as usize >> 1) % flooded.len()].clone()
                    } else {
                        key(arg)
                    };
                    prop_assert_eq!(map.remove(&k), twin.remove(&k));
                }
                7 => {
                    let pairs: Vec<(Vec<u8>, u64)> =
                        (0..arg % 16 + 1).map(|i| (key(arg.wrapping_add(i)), i)).collect();
                    prop_assert_eq!(map.insert_batch(pairs.clone()), twin.insert_batch(pairs));
                }
                8 => {
                    map.reserve((arg % 600) as usize);
                    twin.reserve((arg % 600) as usize);
                }
                9 if arg & 1 == 0 => {
                    prop_assert_eq!(map.resynthesize(), twin.resynthesize());
                }
                9 => {
                    map.escalate_now(&map_seeds);
                    twin.escalate_now(&twin_seeds);
                }
                10 => {
                    map.migrate((arg % 64) as usize);
                    twin.migrate((arg % 64) as usize);
                }
                11 if arg % 8 == 0 => {
                    map.clear();
                    twin.clear();
                    flooded.clear();
                }
                11 => {
                    map.finish_migration();
                    twin.finish_migration();
                }
                12 | 13 => {
                    // Forged against a counter-silent copy of the live hash.
                    let frozen = map.hasher().epoch_frozen(map.guard_mode());
                    let buckets = map.bucket_count() as u64;
                    let flood = attacker::bucket_flood(|k| frozen.hash_bytes(k), buckets, 64, arg);
                    for k in &flood {
                        prop_assert_eq!(map.insert(k.clone(), 0), twin.insert(k.clone(), 0));
                    }
                    if op == 12 {
                        flooded.extend(flood);
                    } else {
                        // A flood gone before the next tick leaves a stale
                        // bound that only a walk can correct.
                        for k in &flood {
                            prop_assert_eq!(map.remove(k), twin.remove(k));
                        }
                    }
                }
                14 => {
                    // New keys joining live chains mid-drain: each insert
                    // drains a stride, then links, and the bound must cover
                    // the chains the drain grew as well as the new key's.
                    if !map.migration_in_flight() {
                        map.escalate_now(&map_seeds);
                        twin.escalate_now(&twin_seeds);
                    }
                    for i in 0..arg % 32 + 1 {
                        let k = if i % 2 == 0 {
                            key(arg.wrapping_add(i))
                        } else {
                            format!("new-{arg:016x}-{i:02}").into_bytes()
                        };
                        prop_assert_eq!(map.insert(k.clone(), i), twin.insert(k, i));
                        check_chain_bound(&map, &policies, step)?;
                    }
                }
                _ => {
                    // An empty table's resize keeps its exact bound of 0.
                    twin.rehash(twin.bucket_count());
                    prop_assert_eq!(twin.chain_bound(), twin.is_empty().then_some(0));
                    let map_moves = (
                        map.maybe_escalate(&tick_policy, &map_seeds),
                        map.maybe_deescalate(&tick_policy),
                    );
                    let twin_moves = (
                        twin.maybe_escalate(&tick_policy, &twin_seeds),
                        twin.maybe_deescalate(&tick_policy),
                    );
                    prop_assert_eq!(map_moves, twin_moves, "step {step}: transitions diverged");
                    prop_assert_eq!(map.guard_mode(), twin.guard_mode());
                }
            }
            prop_assert_eq!(map.len(), twin.len());
            check_chain_bound(&map, &policies, step)?;
        }
    }
}

/// The full-count reference of the storm hold: whether every stored key,
/// filed under the guarded routing in the live bucket array, leaves a
/// chain `policy` calls skewed.
fn guarded_routing_skewed<F, G>(
    map: &UnorderedMap<Vec<u8>, u64, GuardedHash<F, G>>,
    policy: &AttackPolicy,
) -> bool
where
    F: ByteHash + Clone,
    G: ByteHash + Clone,
{
    let guarded = map.hasher().epoch_frozen(GuardMode::Guarded);
    let buckets = map.bucket_count();
    let mut counts = vec![0usize; buckets];
    for (key, _) in map.iter() {
        let bucket = map
            .policy()
            .bucket_of(guarded.hash_bytes(key), buckets as u64);
        counts[bucket as usize] += 1;
    }
    let longest = counts.into_iter().max().unwrap_or(0);
    policy.chain_skewed(longest, map.len(), buckets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The storm hold stops hashing at the first bucket the policy calls
    /// skewed, scanning the newest entries first. Whatever the flood's
    /// size (0 to 96 keys forged against the guarded routing) and wherever
    /// it sits in the arena (inserted first, the early exit's worst case,
    /// interleaved with benign keys, or last), the quiet streak's end must
    /// hold the keyed rung exactly when a full count of the guarded
    /// routing finds a skewed chain, and de-escalate otherwise.
    #[test]
    fn the_storm_holds_early_exit_matches_a_full_count(
        seed in any::<u64>(),
        flood_len in 0usize..97,
        order in 0u8..3,
    ) {
        let (format, dist, family) = cell(seed);
        let pattern = Regex::compile(&format.regex()).expect("evaluated formats compile");
        let pool = keygen_pool(format, dist, seed, 300);
        let hasher = GuardedHash::from_pattern(&pattern, family, sepe_baselines::CityHash::new());
        let mut map: UnorderedMap<Vec<u8>, u64, _> = UnorderedMap::with_hasher(hasher);
        map.reserve(pool.len() + flood_len);
        let guarded = map.hasher().epoch_frozen(GuardMode::Guarded);
        let buckets = map.bucket_count() as u64;
        let flood = attacker::bucket_flood(|k| guarded.hash_bytes(k), buckets, flood_len, seed);
        let keys: Vec<&Vec<u8>> = match order {
            0 => flood.iter().chain(&pool).collect(),
            1 => {
                let mut flood = flood.iter();
                let mut keys = Vec::new();
                for (i, key) in pool.iter().enumerate() {
                    keys.push(key);
                    if i % 3 == 0 {
                        keys.extend(flood.next());
                    }
                }
                keys.extend(flood);
                keys
            }
            _ => pool.iter().chain(&flood).collect(),
        };
        for (i, key) in keys.into_iter().enumerate() {
            map.insert(key.clone(), i as u64);
        }
        prop_assert_eq!(map.bucket_count() as u64, buckets, "the flood's bucket count held");

        let policy = AttackPolicy {
            min_chain: 8 + (seed >> 8) as usize % 48,
            quiet_streak: 1 + (seed >> 16) as u32 % 3,
            probe_p99_limit: u64::MAX,
            ..AttackPolicy::default()
        };
        let seeds = FixedSeedSource::new(seed | 1);
        map.escalate_now(&seeds);
        map.finish_migration();
        prop_assert_eq!(map.guard_mode(), GuardMode::Keyed);
        // A keyed routing that itself looks skewed is a storm, not a hold.
        prop_assume!(!policy.chain_skewed(map.max_bucket_len(), map.len(), map.bucket_count()));
        let held = guarded_routing_skewed(&map, &policy);
        for tick in 1..policy.quiet_streak {
            prop_assert!(!map.maybe_deescalate(&policy), "tick {} ended the streak", tick);
        }
        prop_assert_eq!(
            map.maybe_deescalate(&policy),
            !held,
            "{} flood keys, order {}, {:?}",
            flood_len,
            order,
            policy
        );
        let expect = if held { GuardMode::Keyed } else { GuardMode::Guarded };
        prop_assert_eq!(map.guard_mode(), expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The keyed rung against in-format floods, across the evaluation
    /// grid. Where the plan is injective an in-format key hashes as a
    /// seeded bijection of its specialized hash, elsewhere as SipHash;
    /// either way a flood forged under one seed must not trip the
    /// detector on a table keyed under another, and a flood forged under
    /// the live seed (a leak) must trip it and rotate the seed, after
    /// which the chains are back near the benign ones.
    #[test]
    fn an_in_format_flood_trips_the_keyed_rung_only_under_its_own_seed(seed in any::<u64>()) {
        let (format, dist, family) = cell(seed);
        let pattern = Regex::compile(&format.regex()).expect("evaluated formats compile");
        let pool = keygen_pool(format, dist, seed, 300);
        let hasher = GuardedHash::from_pattern(&pattern, family, sepe_baselines::CityHash::new());
        let mut map: UnorderedMap<Vec<u8>, u64, _> = UnorderedMap::with_hasher(hasher);
        for (i, key) in pool.iter().enumerate() {
            map.insert(key.clone(), i as u64);
        }
        map.reserve(3 * 64);
        let seeds = FixedSeedSource::new(seed | 1);
        map.escalate_now(&seeds);
        map.finish_migration();
        prop_assert_eq!(map.guard_mode(), GuardMode::Keyed);
        prop_assert_eq!(map.seed_rotations(), 0, "one storm rung up is keyed");
        let benign = map.max_bucket_len();
        let policy = AttackPolicy::default();
        let buckets = map.bucket_count() as u64;
        let guard = map.hasher().guard().clone();
        let in_format = |flood: &[Vec<u8>]| flood.iter().all(|k| guard.matches(k));

        // Forged under seed A, served to a table keyed under seed B.
        let mut other = map.hasher().detached();
        other.rotate_seed(&FixedSeedSource::new(!seed));
        prop_assert_ne!(other.current_seed(), map.hasher().current_seed());
        let flood = attacker::format_flood(format, |k| other.hash_bytes(k), buckets, 64, seed);
        prop_assert!(in_format(&flood), "the flood is in format");
        for key in &flood {
            map.insert(key.clone(), 0);
        }
        prop_assert_eq!(map.bucket_count() as u64, buckets, "the flood's bucket count held");
        for tick in 0..2 * policy.trip_streak {
            prop_assert!(!map.maybe_escalate(&policy, &seeds), "seed-A flood tripped at tick {}", tick);
        }
        prop_assert!(map.max_bucket_len() < 64, "chain {} under seed B", map.max_bucket_len());

        // Forged under the live seed: the detector must rotate it.
        let live = map.hasher().epoch_frozen(GuardMode::Keyed);
        let leak = attacker::format_flood(format, |k| live.hash_bytes(k), buckets, 64, !seed);
        prop_assert!(in_format(&leak), "the leak flood is in format");
        for key in &leak {
            map.insert(key.clone(), 1);
        }
        prop_assert!(map.max_bucket_len() >= 64, "the leak flood piled up");
        let mut rotated = false;
        for _ in 0..2 * policy.trip_streak {
            if map.maybe_escalate(&policy, &seeds) {
                rotated = true;
                break;
            }
        }
        prop_assert!(rotated, "the leak flood never tripped the detector");
        prop_assert_eq!(map.guard_mode(), GuardMode::Keyed);
        prop_assert_eq!(map.seed_rotations(), 1);
        map.finish_migration();
        let bound = (4 * benign.max(1)).max(8);
        prop_assert!(map.max_bucket_len() <= bound, "chain {} after rotating (bound {})", map.max_bucket_len(), bound);
        for (i, key) in pool.iter().enumerate() {
            prop_assert_eq!(map.get(key), Some(&(i as u64)));
        }
    }
}
