//! Property-based tests for the epoch migration machinery: `resynthesize`
//! must reset the drift counters and the reservoir *exactly* (a guard that
//! keeps stale counts re-degrades on phantom drift) and be total over
//! arbitrary off-format bytes (it runs inline, with no deadline or panic
//! isolation around it), and `hash_of` must
//! agree with a freshly constructed scalar [`SynthesizedHash`] across an
//! epoch boundary — the live hasher routes through the new plan even while
//! stored entries still sit in the old epoch's buckets. Two model checks
//! drive the arena sweep that drains an epoch through random operation
//! sequences against a `HashMap` twin: contents and `len` agree after
//! every step, `migration_progress` never falls within an epoch, and a
//! known chain bound covers the longest live chain. Two more drive traffic
//! while both epochs are live across a change of equality path: a degrade
//! out of an injective plan, whose old-epoch hits are decided by hash, and
//! a resynthesis from a stale Pext plan, which colliding in-format keys
//! must not fool, into an injective one. The last two request
//! transitions while an earlier epoch is still open, which merge into it,
//! at maintenance ticks, which drain, and between arbitrary operations,
//! against a `HashMap` twin and an eagerly drained twin.

use proptest::prelude::*;
use sepe_containers::{AttackPolicy, UnorderedMap, UnorderedMultiMap};
use sepe_core::guard::{GuardMode, GuardedHash};
use sepe_core::hash::{stl_hash_bytes, ByteHash, FixedSeedSource};
use sepe_core::plan_io::validate_plan;
use sepe_core::regex::Regex;
use sepe_core::synth::{synthesize_with_stats, Family};
use sepe_core::{KeyPattern, SynthesizedHash};
use sepe_keygen::{Distribution, KeyFormat, KeySampler, SplitMix64};
use sepe_verify::faults::mutate_off_format;
use sepe_verify::formats::RandomFormat;
use std::collections::HashMap;

#[derive(Clone)]
struct Stl;
impl ByteHash for Stl {
    fn hash_bytes(&self, key: &[u8]) -> u64 {
        stl_hash_bytes(key, 0)
    }
}

/// In-format keys of a random format, and off-format mutations of some
/// of them, so the guard sees drift.
fn key_pool(seed: u64) -> (RandomFormat, Vec<Vec<u8>>) {
    let mut rng = SplitMix64::new(seed);
    let format = RandomFormat::generate(&mut rng);
    let pattern = format.pattern();
    let mut keys = format.sample_keys(&mut rng, 480);
    let off: Vec<Vec<u8>> = keys
        .iter()
        .take(120)
        .map(|k| mutate_off_format(&pattern, k, &mut rng))
        .collect();
    keys.extend(off);
    keys.sort();
    keys.dedup();
    (format, keys)
}

/// Drives `ops` against `map` and a `HashMap` twin over `pool`, with
/// small drains in between, checking every pair after each step. Returns
/// the number of steps taken with an epoch in flight.
fn twin_traffic(
    map: &mut UnorderedMap<Vec<u8>, u64, GuardedHash<SynthesizedHash, Stl>>,
    twin: &mut HashMap<Vec<u8>, u64>,
    pool: &[Vec<u8>],
    ops: &[(u8, u64)],
) -> Result<usize, TestCaseError> {
    let mut mid_epoch = 0;
    for (step, &(op, arg)) in ops.iter().enumerate() {
        mid_epoch += usize::from(map.migration_in_flight());
        let key = pool[(arg % pool.len() as u64) as usize].clone();
        match op % 8 {
            0..=2 => prop_assert_eq!(map.insert(key.clone(), arg), twin.insert(key, arg)),
            3 | 4 => prop_assert_eq!(map.remove(&key), twin.remove(&key)),
            5 | 6 => prop_assert_eq!(map.get(&key), twin.get(&key)),
            _ => map.migrate((arg % 4) as usize),
        }
        prop_assert_eq!(map.len(), twin.len(), "len after step {}", step);
        for k in pool {
            prop_assert_eq!(map.get(k), twin.get(k), "{:?} after step {}", k, step);
        }
    }
    Ok(mid_epoch)
}

type Map = UnorderedMap<Vec<u8>, u64, GuardedHash<SynthesizedHash, Stl>>;

/// Mode, ladder counters, keyed seed and lifetime drift counts: what an
/// eagerly drained twin must agree on.
type Ladder = (GuardMode, (u64, u64, u64), Option<(u64, u64)>, (u64, u64));

fn ladder(m: &Map) -> Ladder {
    let h = m.hasher();
    (
        h.mode(),
        (m.escalations(), m.deescalations(), m.seed_rotations()),
        (h.mode() == GuardMode::Keyed).then(|| h.current_seed()),
        (h.stats().in_format(), h.stats().off_format()),
    )
}

/// One data operation on both maps and the `HashMap` twin; the eager map
/// then finishes any epoch its operation left open.
fn both_traffic(
    lazy: &mut Map,
    eager: &mut Map,
    twin: &mut HashMap<Vec<u8>, u64>,
    key: Vec<u8>,
    (op, arg): (u8, u64),
) -> Result<(), TestCaseError> {
    match op % 4 {
        0 | 1 => {
            let want = twin.insert(key.clone(), arg);
            prop_assert_eq!(lazy.insert(key.clone(), arg), want);
            prop_assert_eq!(eager.insert(key, arg), want);
        }
        2 => {
            let want = twin.remove(&key);
            prop_assert_eq!(lazy.remove(&key), want);
            prop_assert_eq!(eager.remove(&key), want);
        }
        _ => {
            prop_assert_eq!(lazy.get(&key), twin.get(&key));
            prop_assert_eq!(eager.get(&key), twin.get(&key));
        }
    }
    eager.finish_migration();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A degrade, traffic with two calm ticks that each drain part of its
    /// epoch, then an escalation requested while that epoch is still open
    /// (it merges into the epoch), then traffic with a tick
    /// every eight operations, where a de-escalation comes due at a tick
    /// that may itself land inside the escalation's epoch. After every
    /// step the map holds its `HashMap` twin's pairs and agrees with an
    /// eagerly drained twin on mode, ladder counters, seed and drift.
    #[test]
    fn a_transition_at_a_tick_over_an_open_epoch_matches_both_twins(
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..120),
    ) {
        let family = Family::ALL[(seed % Family::ALL.len() as u64) as usize];
        let pattern = Regex::compile(&KeyFormat::Ssn.regex()).expect("compiles");
        let hasher = GuardedHash::from_pattern(&pattern, family, Stl);
        let mut rng = SplitMix64::new(seed);
        let mut pool: Vec<Vec<u8>> = KeySampler::new(KeyFormat::Ssn, Distribution::Normal, seed)
            .distinct_pool(600)
            .into_iter()
            .map(String::into_bytes)
            .collect();
        let off: Vec<Vec<u8>> =
            pool.iter().take(60).map(|k| mutate_off_format(&pattern, k, &mut rng)).collect();
        pool.extend(off);
        let (mut lazy, mut eager) = (Map::with_hasher(hasher.detached()), Map::with_hasher(hasher));
        let mut twin = HashMap::new();
        for (i, key) in pool.iter().enumerate().filter(|(i, _)| i % 6 != 5) {
            lazy.insert(key.clone(), i as u64);
            eager.insert(key.clone(), i as u64);
            twin.insert(key.clone(), i as u64);
        }
        let (lazy_seeds, eager_seeds) = (FixedSeedSource::new(seed | 1), FixedSeedSource::new(seed | 1));
        let policy = AttackPolicy::default();
        let key = |arg: u64| pool[(arg % pool.len() as u64) as usize].clone();
        let tick = |lazy: &mut Map, eager: &mut Map| -> Result<(), TestCaseError> {
            prop_assert_eq!(
                lazy.maybe_escalate(&policy, &lazy_seeds),
                eager.maybe_escalate(&policy, &eager_seeds)
            );
            prop_assert_eq!(lazy.maybe_deescalate(&policy), eager.maybe_deescalate(&policy));
            eager.finish_migration();
            Ok(())
        };
        lazy.degrade_now();
        eager.degrade_now();
        eager.finish_migration();
        let (head, tail) = ops.split_at(ops.len().min(16));
        let (first, second) = head.split_at(head.len() / 2);
        for part in [first, second] {
            for &(op, arg) in part {
                both_traffic(&mut lazy, &mut eager, &mut twin, key(arg), (op, arg))?;
            }
            let before = lazy.migration_progress();
            tick(&mut lazy, &mut eager)?;
            prop_assert!(lazy.migration_progress() >= before, "a tick undid drain progress");
        }
        prop_assert!(lazy.migration_in_flight(), "the degrade epoch closed before the escalation");
        let before = lazy.migration_progress();
        lazy.escalate_now(&lazy_seeds);
        prop_assert!(lazy.migration_in_flight(), "the escalation finished the open epoch");
        prop_assert_eq!(lazy.migration_progress(), before, "the merge moved unswept entries");
        eager.escalate_now(&eager_seeds);
        eager.finish_migration();
        prop_assert_eq!(ladder(&lazy), ladder(&eager), "after the escalation");
        for (step, &(op, arg)) in tail.iter().enumerate() {
            both_traffic(&mut lazy, &mut eager, &mut twin, key(arg), (op, arg))?;
            if step % 8 == 7 {
                tick(&mut lazy, &mut eager)?;
            }
            prop_assert_eq!(ladder(&lazy), ladder(&eager), "ladder after step {}", step);
            prop_assert_eq!(lazy.len(), twin.len(), "len after step {}", step);
        }
        for k in &pool {
            prop_assert_eq!(lazy.get(k), twin.get(k));
            prop_assert_eq!(eager.get(k), twin.get(k));
        }
    }

    /// Transitions requested between arbitrary operations, most of them
    /// over an open epoch: degrades, escalations up to the keyed rung and
    /// through seed rotations, and resyntheses, with partial drains in
    /// between. Each one over an open epoch merges into it: the epoch stays
    /// open, its progress does not move, and the unswept entries drain
    /// straight to the newest routing. After every step the map holds its
    /// `HashMap` twin's pairs and agrees with an eagerly drained twin.
    #[test]
    fn transitions_merged_into_an_open_epoch_match_both_twins(
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..160),
    ) {
        let family = Family::ALL[(seed % Family::ALL.len() as u64) as usize];
        let pattern = Regex::compile(&KeyFormat::Ssn.regex()).expect("compiles");
        let hasher = GuardedHash::from_pattern(&pattern, family, Stl);
        let mut rng = SplitMix64::new(seed);
        let mut pool: Vec<Vec<u8>> = KeySampler::new(KeyFormat::Ssn, Distribution::Normal, seed)
            .distinct_pool(400)
            .into_iter()
            .map(String::into_bytes)
            .collect();
        let off: Vec<Vec<u8>> =
            pool.iter().take(40).map(|k| mutate_off_format(&pattern, k, &mut rng)).collect();
        pool.extend(off);
        let (mut lazy, mut eager) = (Map::with_hasher(hasher.detached()), Map::with_hasher(hasher));
        let mut twin = HashMap::new();
        for (i, key) in pool.iter().enumerate().filter(|(i, _)| i % 5 != 4) {
            lazy.insert(key.clone(), i as u64);
            eager.insert(key.clone(), i as u64);
            twin.insert(key.clone(), i as u64);
        }
        let (lazy_seeds, eager_seeds) = (FixedSeedSource::new(seed | 1), FixedSeedSource::new(seed | 1));
        for (step, &(op, arg)) in ops.iter().enumerate() {
            let key = pool[(arg % pool.len() as u64) as usize].clone();
            let (open, progress) = (lazy.migration_in_flight(), lazy.migration_progress());
            let before = ladder(&lazy);
            let transition = match op % 16 {
                0 => {
                    lazy.degrade_now();
                    eager.degrade_now();
                    true
                }
                1 | 2 => {
                    lazy.escalate_now(&lazy_seeds);
                    eager.escalate_now(&eager_seeds);
                    true
                }
                3 => {
                    let out = lazy.resynthesize();
                    prop_assert_eq!(&out, &eager.resynthesize());
                    out.is_applied()
                }
                4 => {
                    lazy.migrate((arg % 64) as usize);
                    false
                }
                _ => {
                    both_traffic(&mut lazy, &mut eager, &mut twin, key, (op, arg))?;
                    false
                }
            };
            eager.finish_migration();
            let after = ladder(&lazy);
            prop_assert_eq!(after, ladder(&eager), "ladder after step {}", step);
            if transition && open && after != before {
                prop_assert!(lazy.migration_in_flight(), "step {} finished the open epoch", step);
                prop_assert_eq!(lazy.migration_progress(), progress, "step {}", step);
            }
            prop_assert_eq!(lazy.len(), twin.len(), "len after step {}", step);
            if step % 16 == 15 {
                // Both maps look up every key, so their drift counts agree.
                for k in &pool {
                    prop_assert_eq!(lazy.get(k), twin.get(k), "{:?} after step {}", k, step);
                    prop_assert_eq!(eager.get(k), twin.get(k), "{:?} after step {}", k, step);
                }
            }
        }
        for k in &pool {
            prop_assert_eq!(lazy.get(k), twin.get(k));
            prop_assert_eq!(eager.get(k), twin.get(k));
        }
        lazy.finish_migration();
        for k in &pool {
            prop_assert_eq!(lazy.get(k), twin.get(k));
        }
    }

    /// A degrade out of an injective plan: old-epoch entries stay vouched
    /// for under the frozen guarded routing while the live epoch vouches
    /// for nothing, and off-format keys sit in both.
    #[test]
    fn a_degrade_out_of_an_injective_plan_keeps_both_epochs_apart(
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..160),
    ) {
        let format = [KeyFormat::Ssn, KeyFormat::Cpf, KeyFormat::Ipv4][(seed % 3) as usize];
        let family = [Family::Naive, Family::OffXor, Family::Pext][(seed / 3 % 3) as usize];
        let pattern = Regex::compile(&format.regex()).expect("compiles");
        let hasher = GuardedHash::from_pattern(&pattern, family, Stl);
        let mut rng = SplitMix64::new(seed);
        let mut pool: Vec<Vec<u8>> = KeySampler::new(format, Distribution::Normal, seed)
            .distinct_pool(160)
            .into_iter()
            .map(String::into_bytes)
            .collect();
        let off: Vec<Vec<u8>> =
            pool.iter().take(40).map(|k| mutate_off_format(&pattern, k, &mut rng)).collect();
        pool.extend(off);
        prop_assert!(hasher.epoch_frozen(GuardMode::Guarded).hash_routed(&pool[0]).1);
        let mut map: UnorderedMap<Vec<u8>, u64, _> = UnorderedMap::with_hasher(hasher);
        let mut twin = HashMap::new();
        for (i, key) in pool.iter().enumerate().filter(|(i, _)| i % 4 != 1) {
            map.insert(key.clone(), i as u64);
            twin.insert(key.clone(), i as u64);
        }
        map.degrade_now();
        prop_assert!(map.migration_in_flight());
        prop_assert!(!map.hasher().epoch_frozen(map.guard_mode()).hash_routed(&pool[0]).1);
        let mid_epoch = twin_traffic(&mut map, &mut twin, &pool, &ops)?;
        prop_assert!(mid_epoch > 0);
    }

    /// A resynthesis from a plan that does not read the guard's separator
    /// bits (so `123-45-6789` and `123/45/6789` collide in format) into a
    /// Pext plan for the widened pattern, which reads them all.
    #[test]
    fn a_resynthesis_into_an_injective_plan_keeps_both_epochs_apart(
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..160),
    ) {
        let ssn = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("compiles");
        let mut guard: KeyPattern = ssn.clone();
        guard.join_key(b"123/45/6789");
        let stale = SynthesizedHash::from_pattern(&ssn, Family::Pext);
        let hasher = GuardedHash::new(&guard, stale, Stl);
        let mut rng = SplitMix64::new(seed);
        let ssns: Vec<Vec<u8>> = KeySampler::new(KeyFormat::Ssn, Distribution::Normal, seed)
            .distinct_pool(120)
            .into_iter()
            .map(String::into_bytes)
            .collect();
        let mut pool = Vec::new();
        for key in ssns {
            let mut slashed = key.clone();
            let mut underscored = key.clone();
            for at in [3, 6] {
                slashed[at] = b'/';
                underscored[at] = b'_';
            }
            pool.push(key);
            pool.push(slashed);
            if rng.next_u64().is_multiple_of(4) {
                pool.push(underscored);
            }
        }
        let router = hasher.epoch_frozen(GuardMode::Guarded);
        prop_assert_eq!(router.hash_bytes(&pool[0]), router.hash_bytes(&pool[1]));
        prop_assert!(!router.hash_routed(&pool[0]).1);
        let mut map: UnorderedMap<Vec<u8>, u64, _> = UnorderedMap::with_hasher(hasher);
        let mut twin = HashMap::new();
        for (i, key) in pool.iter().enumerate().filter(|(i, _)| i % 5 != 2) {
            map.insert(key.clone(), i as u64);
            twin.insert(key.clone(), i as u64);
        }
        prop_assert!(map.resynthesize().is_applied());
        prop_assert!(map.migration_in_flight());
        let live = map.hasher().epoch_frozen(GuardMode::Guarded);
        prop_assert!(live.hash_routed(&pool[0]).1 && live.hash_routed(&pool[1]).1);
        let mid_epoch = twin_traffic(&mut map, &mut twin, &pool, &ops)?;
        prop_assert!(mid_epoch > 0);
    }

    /// Random map traffic across sweep-drained epochs opened by every
    /// ladder transition: after each step the map holds exactly its
    /// twin's pairs, progress is monotone unless the step opened an
    /// epoch, and a known chain bound is at least the longest chain. The
    /// map starts with most of the pool, so an epoch spans dozens of
    /// steps, each draining a stride of its own.
    #[test]
    fn map_sweep_matches_a_hashmap_twin(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..24, any::<u64>()), 1..240),
    ) {
        let (format, pool) = key_pool(seed);
        let family = Family::ALL[(seed % Family::ALL.len() as u64) as usize];
        let hasher = GuardedHash::from_pattern(&format.pattern(), family, Stl);
        let mut map: UnorderedMap<Vec<u8>, u64, _> = UnorderedMap::with_hasher(hasher);
        let mut twin: HashMap<Vec<u8>, u64> = HashMap::new();
        let seeds = FixedSeedSource::new(seed | 1);
        let calm = AttackPolicy { quiet_streak: 1, ..AttackPolicy::default() };
        for (i, key) in pool.iter().enumerate().filter(|(i, _)| (seed >> (i % 64)) & 3 != 0) {
            map.insert(key.clone(), i as u64);
            twin.insert(key.clone(), i as u64);
        }
        for (step, &(op, arg)) in ops.iter().enumerate() {
            let key = pool[(arg % pool.len() as u64) as usize].clone();
            let progress = map.migration_progress();
            let mut opens_epoch = false;
            match op {
                0..=5 => prop_assert_eq!(map.insert(key.clone(), arg), twin.insert(key, arg)),
                6..=10 => prop_assert_eq!(map.remove(&key), twin.remove(&key)),
                11 | 12 => prop_assert_eq!(map.get(&key), twin.get(&key)),
                13 => prop_assert_eq!(map.get_mut(&key).copied(), twin.get(&key).copied()),
                14 => map.reserve((arg % 1200) as usize),
                15..=17 => map.migrate((arg % 24) as usize),
                18 => {
                    opens_epoch = true;
                    map.degrade_now();
                }
                19 | 20 => {
                    opens_epoch = true;
                    map.escalate_now(&seeds);
                }
                21 => {
                    opens_epoch = true;
                    map.maybe_deescalate(&calm);
                }
                22 => {}
                _ if arg % 4 == 0 => {
                    map.clear();
                    twin.clear();
                }
                _ => map.finish_migration(),
            }
            prop_assert_eq!(map.len(), twin.len(), "len after step {} (op {})", step, op);
            if !opens_epoch {
                prop_assert!(
                    map.migration_progress() >= progress,
                    "progress fell at step {step} (op {op})"
                );
            }
            if let Some(bound) = map.chain_bound() {
                prop_assert!(bound >= map.max_bucket_len(), "bound {} at step {}", bound, step);
            }
            let mut ours: Vec<(&Vec<u8>, &u64)> = map.iter().collect();
            let mut theirs: Vec<(&Vec<u8>, &u64)> = twin.iter().collect();
            ours.sort();
            theirs.sort();
            prop_assert_eq!(&ours, &theirs, "contents after step {} (op {})", step, op);
            for k in twin.keys() {
                prop_assert_eq!(map.get(k), twin.get(k), "lookup after step {}", step);
            }
        }
        map.finish_migration();
        for (k, v) in &twin {
            prop_assert_eq!(map.get(k), Some(v));
        }
    }

    /// The multimap's `insert` links duplicates without a probe, and its
    /// `count` sums both epochs: under random traffic across sweep-drained
    /// degrade epochs, every key's multiset of values matches the twin's.
    #[test]
    fn multimap_sweep_matches_a_counting_twin(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..10, any::<u64>()), 1..240),
    ) {
        let (format, pool) = key_pool(seed);
        let pool = &pool[..pool.len().min(64)];
        let family = Family::ALL[(seed % Family::ALL.len() as u64) as usize];
        let hasher = GuardedHash::from_pattern(&format.pattern(), family, Stl);
        let mut map: UnorderedMultiMap<Vec<u8>, u64, _> = UnorderedMultiMap::with_hasher(hasher);
        let mut twin: HashMap<Vec<u8>, Vec<u64>> = HashMap::new();
        for v in 0..400u64 {
            let key = pool[(v.wrapping_mul(seed | 1) >> 7) as usize % pool.len()].clone();
            map.insert(key.clone(), v);
            twin.entry(key).or_default().push(v);
        }
        for (step, &(op, arg)) in ops.iter().enumerate() {
            let key = pool[(arg % pool.len() as u64) as usize].clone();
            let progress = map.migration_progress();
            let mut opens_epoch = false;
            match op {
                0..=2 => {
                    map.insert(key.clone(), arg);
                    twin.entry(key).or_default().push(arg);
                }
                3 | 4 => match map.remove_one(&key) {
                    Some(v) => {
                        let values = twin.get_mut(&key).expect("twin holds the key");
                        let at = values.iter().position(|&x| x == v);
                        prop_assert!(at.is_some(), "removed a value the twin lacks");
                        values.swap_remove(at.unwrap());
                    }
                    None => prop_assert!(twin.get(&key).is_none_or(Vec::is_empty)),
                },
                5 => map.migrate((arg % 24) as usize),
                6 => {
                    opens_epoch = true;
                    map.degrade_now();
                }
                7 if arg % 8 == 0 => {
                    map.clear();
                    twin.clear();
                }
                _ => {
                    prop_assert_eq!(
                        map.count(&key),
                        twin.get(&key).map_or(0, Vec::len),
                        "count at step {}", step
                    );
                }
            }
            let total: usize = twin.values().map(Vec::len).sum();
            prop_assert_eq!(map.len(), total, "len after step {} (op {})", step, op);
            if !opens_epoch {
                prop_assert!(map.migration_progress() >= progress, "progress fell at step {step}");
            }
            let mut ours: Vec<(&Vec<u8>, &u64)> = map.iter().collect();
            let mut theirs: Vec<(&Vec<u8>, &u64)> =
                twin.iter().flat_map(|(k, vs)| vs.iter().map(move |v| (k, v))).collect();
            ours.sort();
            theirs.sort();
            prop_assert_eq!(&ours, &theirs, "contents after step {} (op {})", step, op);
            for (k, vs) in &twin {
                prop_assert_eq!(map.count(k), vs.len(), "count after step {}", step);
            }
        }
    }

    /// `resynthesize()` rearms the guard completely: lifetime counters,
    /// window counters, reservoir and mode all return to their fresh
    /// state, no matter what traffic preceded the call. It is also total:
    /// with arbitrary off-format bytes in the reservoir (the empty key,
    /// keys up to 4x the format length, non-ASCII bytes) it still applies
    /// a valid plan in linear synthesis work and keeps every stored key.
    #[test]
    fn resynthesize_resets_stats_and_reservoir_exactly(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        for family in Family::ALL {
            let hasher = GuardedHash::from_pattern(&pattern, family, Stl);
            let mut map: UnorderedMap<Vec<u8>, u64, _> = UnorderedMap::with_hasher(hasher);
            let mut inserted = std::collections::HashMap::new();
            let mut i = 0u64;
            // Half the seeds add the empty key, which shrinks the widened
            // minimum length to 0 (no word loads at all); the other half
            // keep every off-format key at least as long as the format's
            // minimum, so the loads cover junk-widened bytes.
            let with_empty = seed.is_multiple_of(2);
            let shortest = if with_empty { 0 } else { pattern.min_len() };
            let longest = 4 * pattern.max_len();
            for (n, key) in format.sample_keys(&mut rng, 24).into_iter().enumerate() {
                map.insert(key.clone(), i);
                inserted.insert(key.clone(), i);
                i += 1;
                // Off-format traffic populates both counters and reservoir.
                let off = mutate_off_format(&pattern, &key, &mut rng);
                if off.len() >= shortest {
                    inserted.insert(off.clone(), i);
                    map.insert(off, i);
                    i += 1;
                }
                // Arbitrary bytes on every other key (so all 60 offers fit
                // the reservoir): the shortest key, a 4x-long key, then
                // any length in between.
                if n % 2 == 0 {
                    let len = match n {
                        0 => shortest,
                        2 => longest,
                        _ => shortest + (rng.next_u64() % (longest - shortest + 1) as u64) as usize,
                    };
                    let junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    inserted.insert(junk.clone(), i);
                    map.insert(junk, i);
                    i += 1;
                }
            }
            let sampled = map.hasher().reservoir_keys();
            prop_assert!(
                sampled.iter().any(|k| k.len() == shortest)
                    && sampled.iter().any(|k| k.len() == longest),
                "{family}: the reservoir lacks the shortest or the 4x-long key"
            );
            prop_assert!(map.drift_stats().off_format() > 0, "{family}: no drift recorded");
            prop_assert!(
                !map.hasher().reservoir_keys().is_empty(),
                "{family}: empty reservoir"
            );
            prop_assert!(map.resynthesize().is_applied(), "{family}: resynthesize refused");
            let stats = map.drift_stats();
            prop_assert_eq!(stats.in_format(), 0, "{} lifetime in_format survived", family);
            prop_assert_eq!(stats.off_format(), 0, "{} lifetime off_format survived", family);
            prop_assert_eq!(stats.window_counts(), (0, 0), "{} window survived", family);
            prop_assert!(
                map.hasher().reservoir_keys().is_empty(),
                "{family}: reservoir survived resynthesize"
            );
            prop_assert_eq!(map.guard_mode(), GuardMode::Guarded, "{} mode", family);
            let plan = map.hasher().specialized().plan();
            let valid = validate_plan(plan);
            prop_assert!(valid.is_ok(), "{family}: invalid plan: {valid:?}");
            let widened = map.hasher().guard().pattern().clone();
            let (again, stats) = synthesize_with_stats(&widened, family);
            prop_assert_eq!(&again, plan, "{} plan is not synthesize's", family);
            prop_assert!(
                stats.nodes_expanded <= widened.max_len() as u64,
                "{family}: {stats:?} for a {}-byte pattern",
                widened.max_len()
            );
            // The epoch the resynthesize opened must drain losslessly.
            map.finish_migration();
            prop_assert_eq!(map.len(), inserted.len(), "{} entries lost across the epoch", family);
            for (key, v) in &inserted {
                prop_assert_eq!(map.get(key), Some(v), "{} lost {:?}", family, key);
            }
        }
    }

    /// Mid-migration, `hash_of` agrees with an independently constructed
    /// scalar `SynthesizedHash` over the widened pattern, for every family:
    /// the epoch boundary changes where entries *live*, never how live
    /// traffic is hashed.
    #[test]
    fn hash_of_matches_scalar_hash_across_an_epoch_boundary(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let clean = format.sample_keys(&mut rng, 24);
        for family in Family::ALL {
            let hasher = GuardedHash::from_pattern(&pattern, family, Stl);
            let mut map: UnorderedMap<Vec<u8>, u64, _> = UnorderedMap::with_hasher(hasher);
            for (i, key) in clean.iter().enumerate() {
                map.insert(key.clone(), i as u64);
                map.insert(mutate_off_format(&pattern, key, &mut rng), i as u64);
            }
            prop_assert!(map.resynthesize().is_applied(), "{family}: resynthesize refused");
            prop_assert!(map.migration_in_flight(), "{family}: no epoch in flight");

            // The widened pattern the guard now enforces, and a scalar
            // hash built from scratch for it, must reproduce `hash_of` on
            // every in-format key while the old epoch still holds entries.
            let widened = map.hasher().guard().pattern().clone();
            let scalar = SynthesizedHash::from_pattern(&widened, family);
            for key in &clean {
                prop_assert!(widened.matches(key), "{family}: widening dropped {key:?}");
                prop_assert_eq!(
                    map.hash_of(key),
                    scalar.hash_bytes(key),
                    "{} diverged from the scalar hash mid-migration on {:?}",
                    family,
                    key
                );
            }
            // Same agreement after the drain: the boundary is invisible.
            map.finish_migration();
            for key in &clean {
                prop_assert_eq!(
                    map.hash_of(key),
                    scalar.hash_bytes(key),
                    "{} diverged from the scalar hash after the drain on {:?}",
                    family,
                    key
                );
            }
        }
    }
}
