//! Property-based pins for the collision-storm detector's hysteresis:
//! benign keygen workloads never escalate under the production
//! [`AttackPolicy`], and a full escalation → de-escalation round trip
//! restores the specialized hasher with contents and counters intact.

use proptest::prelude::*;
use sepe_containers::{AttackPolicy, UnorderedMap};
use sepe_core::guard::{GuardMode, GuardedHash};
use sepe_core::hash::FixedSeedSource;
use sepe_core::regex::Regex;
use sepe_core::synth::Family;
use sepe_keygen::{Distribution, KeyFormat, KeySampler};
use sepe_verify::adversarial;

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

    /// The ladder round trip is lossless: climb all three rungs
    /// (degrade, key, rotate), come back down through a quiet window, and
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

        // Up: degrade, key, rotate — each rung an incremental re-key.
        let seeds = FixedSeedSource::new(seed | 1);
        for expect in [GuardMode::Degraded, GuardMode::Keyed, GuardMode::Keyed] {
            map.escalate_now(&seeds);
            prop_assert_eq!(map.guard_mode(), expect);
            map.finish_migration();
        }
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
            (3, 1, 1),
            "counters must match the transcript"
        );
    }
}
