//! Property-based test for the greedy word cover: over seeded random
//! formats, every family's plan must be valid, cover every target byte,
//! and use exactly as many loads as the minimum-cover reference.

use proptest::prelude::*;
use sepe_keygen::SplitMix64;
use sepe_verify::formats::RandomFormat;
use sepe_verify::synthesis::check_minimal_cover;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plans_hit_the_minimum_cover(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let pattern = RandomFormat::generate(&mut rng).pattern();
        let checked = check_minimal_cover(&format!("seed {seed:#x}"), &pattern);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}
