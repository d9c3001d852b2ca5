//! Property-based tests for synthesis: over seeded random formats, every
//! family's plan must be valid, cover every target byte, and use exactly
//! as many loads as the minimum-cover reference; and wherever
//! `Plan::injective_over` judges a plan injective, the oracles agree.

use proptest::prelude::*;
use sepe_core::regex::Regex;
use sepe_core::synth::{synthesize, synthesize_unchecked, Family, Plan};
use sepe_core::KeyPattern;
use sepe_keygen::SplitMix64;
use sepe_verify::formats::RandomFormat;
use sepe_verify::invariants::{check_pext_roundtrip, check_sampled_injectivity};
use sepe_verify::synthesis::check_minimal_cover;

/// Keys of `format`, plus one neighbour of each that differs from it in a
/// single position: the small differences a cancellation would need.
fn keys_and_neighbours(format: &RandomFormat, rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    let keys = format.sample_keys(rng, 160);
    let mut out = keys.clone();
    for key in &keys {
        let other = format.sample_key(rng);
        let at = (rng.next_u64() % key.len().min(other.len()) as u64) as usize;
        let mut neighbour = key.clone();
        neighbour[at] = other[at];
        out.push(neighbour);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plans_hit_the_minimum_cover(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let pattern = RandomFormat::generate(&mut rng).pattern();
        let checked = check_minimal_cover(&format!("seed {seed:#x}"), &pattern);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// Wherever the core property judges a plan injective over its own
    /// pattern, no two sampled keys share a seedless hash, and a Pext plan
    /// also inverts every key exactly. Aes and variable-length plans are
    /// never judged injective.
    #[test]
    fn injective_plans_pass_the_oracles(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let keys = keys_and_neighbours(&format, &mut rng);
        for family in Family::ALL {
            let plan = synthesize(&pattern, family);
            let injective = plan.injective_over(family, &pattern);
            if family == Family::Aes || !pattern.is_fixed_len() {
                prop_assert!(!injective, "{family} judged injective over {pattern:?}");
                continue;
            }
            if injective {
                let sampled = check_sampled_injectivity(&plan, family, &keys);
                prop_assert!(sampled.is_ok(), "{}", sampled.unwrap_err());
                if family == Family::Pext {
                    let inverted = check_pext_roundtrip(&pattern, &plan, &keys);
                    prop_assert!(inverted.is_ok(), "{}", inverted.unwrap_err());
                }
            }
        }
    }
}

/// The judgment is not vacuous on random formats: every word family is
/// judged injective on some fixed-length formats and not on others.
#[test]
fn random_formats_exercise_both_verdicts_for_every_word_family() {
    let mut rng = SplitMix64::new(0x1A7E);
    for family in [Family::Naive, Family::OffXor, Family::Pext] {
        let (mut yes, mut no) = (0, 0);
        for _ in 0..400 {
            let pattern = RandomFormat::generate(&mut rng).pattern();
            if !pattern.is_fixed_len() {
                continue;
            }
            if synthesize(&pattern, family).injective_over(family, &pattern) {
                yes += 1;
            } else {
                no += 1;
            }
        }
        assert!(yes >= 10 && no >= 10, "{family}: {yes} injective, {no} not");
    }
}

/// Sub-word formats fall back to the STL hash, which is never judged
/// injective, whatever family it stands in for.
#[test]
fn stl_fallback_plans_are_never_injective() {
    let short = Regex::compile(r"\d{4}").expect("compiles");
    for family in Family::ALL {
        let plan = synthesize(&short, family);
        assert_eq!(plan, Plan::StlFallback);
        assert!(!plan.injective_over(family, &short), "{family}");
    }
}

/// A plan is judged against the pattern a guard enforces, not the one it
/// was synthesized for: over a guard pattern wider than SSN, the SSN plan
/// of every family either reads too few bits or lets a high-nibble
/// difference cancel.
#[test]
fn an_ssn_plan_is_not_injective_over_a_wider_guard_pattern() {
    let ssn = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("compiles");
    let mut wider: KeyPattern = ssn.clone();
    wider.join_key(b"12a-45-6789");
    for family in Family::ALL {
        let plan = synthesize(&ssn, family);
        assert_eq!(
            plan.injective_over(family, &ssn),
            family != Family::Aes,
            "{family} over SSN"
        );
        assert!(
            !plan.injective_over(family, &wider),
            "{family} over {wider:?}"
        );
    }
    // A widening that stays in low nibbles still defeats Pext, whose masks
    // skip the separator bits that now vary.
    let mut slashed = ssn.clone();
    slashed.join_key(b"123/45/6789");
    assert!(!synthesize(&ssn, Family::Pext).injective_over(Family::Pext, &slashed));
    // A forced sub-word plan is fixed-length but still judged on coverage.
    let short = Regex::compile(r"\d{4}").expect("compiles");
    let forced = synthesize_unchecked(&short, Family::Pext);
    assert!(forced.injective_over(Family::Pext, &short));
    assert!(!forced.injective_over(Family::Aes, &short));
}
