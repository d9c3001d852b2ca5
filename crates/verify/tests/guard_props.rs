//! Property-based tests for the format-guard layer: for seeded-random
//! formats, `FormatGuard::matches` agrees with the interpreter's
//! independent notion of format membership, every generated in-format key
//! is accepted, and every single-byte out-of-range mutation is rejected.
//! The fused guard-and-hash kernel gives the same verdicts and the
//! interpreter's hashes, for every family, with hardware and portable
//! `pext`, on the guarded and the keyed route.

use proptest::prelude::*;
use sepe_core::guard::{FormatGuard, GuardedHash};
use sepe_core::hash::{siphash13, stl_hash_bytes, ByteHash, FixedSeedSource, SynthesizedHash};
use sepe_core::synth::{synthesize, Family};
use sepe_core::{Isa, KeyPattern};
use sepe_keygen::{KeyFormat, SplitMix64};
use sepe_verify::faults::mutate_off_format;
use sepe_verify::formats::RandomFormat;
use sepe_verify::interp::{interpret, spec_matches};

#[derive(Clone)]
struct Stl;
impl ByteHash for Stl {
    fn hash_bytes(&self, key: &[u8]) -> u64 {
        stl_hash_bytes(key, 0)
    }
}

/// A random fixed-length format: the only shape the fused kernel serves.
fn fixed_format(rng: &mut SplitMix64) -> RandomFormat {
    loop {
        let format = RandomFormat::generate(rng);
        if format.is_fixed_len() {
            return format;
        }
    }
}

/// The guarded hashers of `pattern` under every family, with the hardware
/// `pext` and with the portable one, under `seed`.
fn every_kernel(
    pattern: &KeyPattern,
    seed: u64,
) -> Vec<(Family, Isa, GuardedHash<SynthesizedHash, Stl>)> {
    let mut out = Vec::new();
    for family in Family::ALL {
        let plan = synthesize(pattern, family);
        for isa in [Isa::Native, Isa::Portable] {
            let inner = SynthesizedHash::new(plan.clone(), family, isa).with_seed(seed);
            out.push((family, isa, GuardedHash::new(pattern, inner, Stl)));
        }
    }
    out
}

/// Keys to judge: sampled in-format keys, each with an off-format
/// mutation, and arbitrary bytes of the format's length.
fn judged_keys(format: &RandomFormat, pattern: &KeyPattern, rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    let mut keys = Vec::new();
    for key in format.sample_keys(rng, 6) {
        keys.push(mutate_off_format(pattern, &key, rng));
        keys.push(key);
    }
    for _ in 0..4 {
        keys.push(
            (0..pattern.min_len())
                .map(|_| (rng.next_u64() & 0xFF) as u8)
                .collect(),
        );
    }
    keys
}

/// The murmur3 finalizer of the keyed route, re-declared.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// The keyed rung's domain tag, re-declared.
const KEYED_TAG: u64 = 0x5EED_5EED_5EED_5EED;

proptest! {
    #[test]
    fn the_fused_verdict_and_hash_match_the_guard_and_the_interpreter(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let format = fixed_format(&mut rng);
        let pattern = format.pattern();
        let guard = FormatGuard::compile(&pattern);
        let keys = judged_keys(&format, &pattern, &mut rng);
        let hash_seed = rng.next_u64();
        for (family, isa, guarded) in every_kernel(&pattern, hash_seed) {
            let Some(kernel) = guarded.fused() else {
                // Every word plan of a format up to 64 bytes fits.
                prop_assert!(family == Family::Aes || pattern.min_len() > 64, "{} {:?}", family, isa);
                continue;
            };
            let plan = guarded.specialized().plan();
            for key in &keys {
                let (hash, in_format) = kernel.eval(key);
                prop_assert_eq!(in_format, guard.matches(key), "{} {:?} {:?}", family, isa, key);
                prop_assert_eq!(in_format, spec_matches(&pattern, key), "{} {:?} {:?}", family, isa, key);
                if in_format {
                    prop_assert_eq!(hash, interpret(plan, family, hash_seed, key), "{} {:?}", family, isa);
                    prop_assert_eq!(guarded.hash_routed(key).0, hash, "{} {:?}", family, isa);
                }
            }
        }
    }

    #[test]
    fn a_flip_the_plan_never_loads_or_a_length_edit_routes_off_format(seed in any::<u64>()) {
        // The URL formats' constant prefix lies outside every plan load:
        // only the fused kernel's guard-only words can catch a flip there.
        let mut rng = SplitMix64::new(seed);
        let url = rng.next_u64().is_multiple_of(2);
        let (pattern, key) = if url {
            let f = [KeyFormat::Url1, KeyFormat::Url2][(rng.next_u64() % 2) as usize];
            let pattern = sepe_core::regex::Regex::compile(&f.regex()).expect("paper formats compile");
            (pattern, f.materialize(u128::from(rng.next_u64())).into_bytes())
        } else {
            let format = fixed_format(&mut rng);
            let key = format.sample_key(&mut rng);
            (format.pattern(), key)
        };
        for family in [Family::Naive, Family::OffXor, Family::Pext] {
            let guarded = GuardedHash::from_pattern(&pattern, family, Stl);
            let plan = guarded.specialized().plan();
            let loaded = |at: usize| {
                plan.word_ops()
                    .is_some_and(|ops| ops.iter().any(|op| (op.offset as usize..op.offset as usize + 8).contains(&at)))
            };
            let mut edits: Vec<Vec<u8>> = (0..key.len())
                .filter(|&at| pattern.bytes()[at].const_mask() != 0 && !loaded(at))
                .map(|at| {
                    let mut k = key.clone();
                    k[at] ^= 1 << pattern.bytes()[at].const_mask().trailing_zeros();
                    k
                })
                .collect();
            // Naive loads every word; OffXor and Pext skip the prefix.
            let skips = url && family != Family::Naive;
            prop_assert!(!skips || !edits.is_empty(), "{} loads the URL prefix", family);
            edits.push(key[..key.len() - 1].to_vec());
            let mut longer = key.clone();
            longer.push(key[0]);
            edits.push(longer);
            prop_assert_eq!(guarded.hash_routed(&key).1, guarded.specialized().injective_over(&pattern));
            for (i, edit) in edits.iter().enumerate() {
                prop_assert!(!spec_matches(&pattern, edit));
                if let Some(kernel) = guarded.fused() {
                    prop_assert!(!kernel.eval(edit).1, "{} {:?}", family, edit);
                }
                let (_, vouched) = guarded.hash_routed(edit);
                prop_assert!(!vouched);
                prop_assert_eq!(guarded.stats().off_format(), i as u64 + 1, "{} {:?}", family, edit);
            }
        }
    }

    #[test]
    fn the_keyed_rungs_in_format_route_is_unchanged(seed in any::<u64>()) {
        use sepe_core::hash::HashBatch;
        let mut rng = SplitMix64::new(seed);
        let format = fixed_format(&mut rng);
        let pattern = format.pattern();
        let keys = judged_keys(&format, &pattern, &mut rng);
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        for (family, isa, guarded) in every_kernel(&pattern, rng.next_u64()) {
            let injective = guarded.specialized().injective_over(&pattern);
            guarded.escalate_keyed(&FixedSeedSource::new(seed));
            let (k0, k1) = guarded.current_seed();
            let s = guarded.specialized();
            let mut batch = vec![0u64; refs.len()];
            guarded.hash_batch(&refs, &mut batch);
            for (key, &batched) in refs.iter().zip(&batch) {
                let want = if injective && spec_matches(&pattern, key) {
                    let x = interpret(s.plan(), family, s.seed(), key);
                    (fmix64((x ^ k0).wrapping_mul(k1 | 1)), true)
                } else {
                    (fmix64(siphash13(k0, k1, key) ^ KEYED_TAG), false)
                };
                prop_assert_eq!(guarded.hash_routed(key), want, "{} {:?} {:?}", family, isa, key);
                prop_assert_eq!(batched, want.0, "{} {:?} batch {:?}", family, isa, key);
            }
            prop_assert_eq!(guarded.stats().total(), 0);
        }
    }

    #[test]
    fn guard_agrees_with_the_spec_on_random_formats(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let guard = FormatGuard::compile(&pattern);
        for key in format.sample_keys(&mut rng, 8) {
            prop_assert!(spec_matches(&pattern, &key), "sampled key must be in-format");
            prop_assert!(guard.matches(&key), "guard must accept in-format key {key:?}");
        }
        // Arbitrary byte strings of plausible lengths: the guard and the
        // spec must agree whatever the verdict is.
        for _ in 0..8 {
            let len = (rng.next_u64() % (pattern.max_len() as u64 + 3)) as usize;
            let key: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            prop_assert_eq!(guard.matches(&key), spec_matches(&pattern, &key), "{:?}", key);
        }
    }

    #[test]
    fn single_byte_out_of_range_mutations_are_rejected(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let guard = FormatGuard::compile(&pattern);
        let key = format.sample_key(&mut rng);
        for i in 0..key.len() {
            let p = pattern.bytes()[i];
            if p.const_mask() == 0 {
                continue; // fully variable position: no out-of-range value exists
            }
            // Flip one constant bit — the smallest possible range violation.
            let mut mutated = key.clone();
            mutated[i] ^= 1 << p.const_mask().trailing_zeros();
            prop_assert!(!spec_matches(&pattern, &mutated));
            prop_assert!(
                !guard.matches(&mutated),
                "guard must reject out-of-range byte at {i} in {mutated:?}"
            );
        }
    }

    #[test]
    fn length_edits_are_rejected(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let guard = FormatGuard::compile(&pattern);
        let mut long = format.sample_key(&mut rng);
        long.resize(pattern.max_len() + 1, b'0');
        prop_assert!(!guard.matches(&long));
        let key = format.sample_key(&mut rng);
        if pattern.min_len() > 0 {
            let short = &key[..pattern.min_len() - 1];
            prop_assert!(!guard.matches(short));
        }
    }

    #[test]
    fn guarded_hash_preserves_in_format_hashes(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        for family in Family::ALL {
            let guarded = GuardedHash::from_pattern(&pattern, family, Stl);
            for key in format.sample_keys(&mut rng, 4) {
                prop_assert_eq!(
                    guarded.hash_bytes(&key),
                    guarded.specialized().hash_bytes(&key),
                    "{} on {:?}", family, key
                );
            }
        }
    }
}
