//! Property tests for re-filing from a cached hash: a vouched entry's
//! hash under one in-format route of a guarded hasher maps to its hash
//! under another route of the same plan and guard without reading the
//! key (`ByteHash::refile_map`). Across every evaluated format under
//! OffXor, Pext and Naive, and every pair of routes among the guarded one
//! and the keyed one under two seeds, the mapped hash must be the new
//! route's hash of the stored key, scalar and batched. Where the map must
//! not exist (another plan or guard, a degraded side, a plan that is not
//! injective) it must be `None`, so the table hashes key bytes there.

use proptest::prelude::*;
use sepe_baselines::CityHash;
use sepe_core::guard::{GuardMode, GuardedHash};
use sepe_core::hash::{ByteHash, FixedSeedSource, HashBatch, SynthesizedHash};
use sepe_core::regex::Regex;
use sepe_core::synth::Family;
use sepe_keygen::{Distribution, KeyFormat, KeySampler, SplitMix64};
use sepe_verify::faults::mutate_off_format;

type Guarded = GuardedHash<SynthesizedHash, CityHash>;

const FAMILIES: [Family; 3] = [Family::OffXor, Family::Pext, Family::Naive];

fn keygen_pool(format: KeyFormat, dist: Distribution, seed: u64, n: usize) -> Vec<Vec<u8>> {
    KeySampler::new(format, dist, seed)
        .distinct_pool(n)
        .into_iter()
        .map(String::into_bytes)
        .collect()
}

/// The three vouching routes of one lineage: guarded, keyed under a
/// seed, and keyed under the rotated seed, as frozen copies.
fn routes(live: &Guarded, seed: u64) -> [Guarded; 3] {
    let seeds = FixedSeedSource::new(seed);
    let guarded = live.epoch_frozen(GuardMode::Guarded);
    live.escalate_keyed(&seeds);
    let keyed = live.epoch_frozen(GuardMode::Keyed);
    live.rotate_seed(&seeds);
    let rotated = live.epoch_frozen(GuardMode::Keyed);
    live.rearm();
    [guarded, keyed, rotated]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_mapped_hash_is_the_new_routes_hash_of_the_stored_key(seed in any::<u64>()) {
        let dist = Distribution::ALL[(seed % 3) as usize];
        let mut rng = SplitMix64::new(seed);
        let mut mapped = 0;
        for format in KeyFormat::EVALUATED {
            let pattern = Regex::compile(&format.regex()).expect("evaluated formats compile");
            let keys = keygen_pool(format, dist, seed, 21);
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            let off: Vec<Vec<u8>> = keys
                .iter()
                .take(4)
                .map(|k| mutate_off_format(&pattern, k, &mut rng))
                .collect();
            for family in FAMILIES {
                let what = format!("{format:?} {family}");
                let live = GuardedHash::from_pattern(&pattern, family, CityHash::new());
                let injective = live.specialized().injective_over(&pattern);
                let routes = routes(&live, seed | 1);
                prop_assert_ne!(routes[1].current_seed(), routes[2].current_seed());
                for (i, from) in routes.iter().enumerate() {
                    for (j, to) in routes.iter().enumerate() {
                        let map = to.refile_map(from);
                        prop_assert_eq!(map.is_some(), injective, "{} {}→{}", what, i, j);
                        let Some(map) = map else { continue };
                        mapped += 1;
                        let mut cached = vec![0u64; refs.len()];
                        from.hash_batch(&refs, &mut cached);
                        let mut want = vec![0u64; refs.len()];
                        to.hash_batch(&refs, &mut want);
                        for (k, key) in refs.iter().enumerate() {
                            let (h, vouched) = from.hash_routed(key);
                            prop_assert!(vouched, "{} {}: in format, injective {:?}", what, i, key);
                            prop_assert_eq!(cached[k], h, "{} {}: batch {:?}", what, i, key);
                            prop_assert_eq!((map.map(h), true), to.hash_routed(key), "{} {}→{} {:?}", what, i, j, key);
                            prop_assert_eq!(map.map(cached[k]), want[k], "{} {}→{} batched {:?}", what, i, j, key);
                        }
                        for key in &off {
                            prop_assert!(!from.hash_routed(key).1, "{} {}: off format {:?}", what, i, key);
                        }
                    }
                }

                // A degraded side vouches for nothing.
                let degraded = live.epoch_frozen(GuardMode::Degraded);
                for route in &routes {
                    prop_assert!(route.refile_map(&degraded).is_none(), "{}", what);
                    prop_assert!(degraded.refile_map(route).is_none(), "{}", what);
                }

                // Another plan behind the same guard, and the same plan
                // behind another guard.
                let other = FAMILIES.into_iter().find(|&f| f != family).expect("three families");
                let replanned = GuardedHash::from_pattern(&pattern, other, CityHash::new());
                let mut wider = pattern.clone();
                wider.join_key(&off[0]);
                prop_assert_ne!(&wider, &pattern);
                let reguarded = GuardedHash::new(&wider, live.specialized().clone(), CityHash::new());
                for route in &routes {
                    for changed in [&replanned, &reguarded] {
                        prop_assert!(changed.refile_map(route).is_none(), "{}", what);
                        prop_assert!(route.refile_map(changed).is_none(), "{}", what);
                    }
                }

                // A resynthesis installs another plan and guard.
                let mut resynth = GuardedHash::from_pattern(&pattern, family, CityHash::new());
                let before = resynth.epoch_frozen(GuardMode::Guarded);
                for key in &off {
                    resynth.hash_bytes(key);
                }
                prop_assert!(resynth.resynthesize().is_applied(), "{}", what);
                let after = resynth.epoch_frozen(GuardMode::Guarded);
                prop_assert!(after.refile_map(&before).is_none(), "{}", what);
                prop_assert!(before.refile_map(&after).is_none(), "{}", what);
                prop_assert_eq!(before.refile_map(&before).is_some(), injective, "{}", what);
            }
        }
        prop_assert!(mapped >= 9, "some plan of the grid is injective");
    }
}
