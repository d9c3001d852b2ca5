//! Property-based tests for the batched hashing kernels: for seeded-random
//! formats and keys, `hash_batch` is bit-identical to the scalar path and
//! to the plan interpreter at every width (ragged tails included), with
//! hardware `pext` dispatch forced both on and off. A guarded batch takes
//! the same routes as the scalar path, down to the drift counters and the
//! order of reservoir offers.

use proptest::prelude::*;
use sepe_core::guard::GuardedHash;
use sepe_core::hash::{stl_hash_bytes, ByteHash, HashBatch, SynthesizedHash};
use sepe_core::synth::{synthesize, Family};
use sepe_core::Isa;
use sepe_keygen::SplitMix64;
use sepe_verify::batch::{with_forced_software_pext, WIDTHS};
use sepe_verify::faults::mutate_off_format;
use sepe_verify::formats::RandomFormat;
use sepe_verify::interp;

#[derive(Clone)]
struct Stl;
impl ByteHash for Stl {
    fn hash_bytes(&self, key: &[u8]) -> u64 {
        stl_hash_bytes(key, 0)
    }
}

proptest! {
    #[test]
    fn a_guarded_batch_routes_counts_and_samples_like_the_scalar_path(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        // Runs of in-format keys (whole chunks take the fused pass) broken
        // by off-format ones at random lanes.
        let keys: Vec<Vec<u8>> = format
            .sample_keys(&mut rng, 29)
            .into_iter()
            .map(|k| {
                if rng.next_u64().is_multiple_of(5) {
                    mutate_off_format(&pattern, &k, &mut rng)
                } else {
                    k
                }
            })
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        for family in Family::ALL {
            let plan = synthesize(&pattern, family);
            for isa in [Isa::Native, Isa::Portable] {
                let inner = SynthesizedHash::new(plan.clone(), family, isa);
                for width in WIDTHS.into_iter().chain([refs.len()]) {
                    let batched = GuardedHash::new(&pattern, inner.clone(), Stl);
                    let scalar = GuardedHash::new(&pattern, inner.clone(), Stl);
                    for chunk in refs.chunks(width) {
                        let mut got = vec![0u64; chunk.len()];
                        batched.hash_batch(chunk, &mut got);
                        for (&key, &actual) in chunk.iter().zip(&got) {
                            prop_assert_eq!(actual, scalar.hash_bytes(key), "{} {:?} width {} {:?}", family, isa, width, key);
                        }
                    }
                    let (b, s) = (batched.stats(), scalar.stats());
                    prop_assert_eq!((b.in_format(), b.off_format()), (s.in_format(), s.off_format()), "{} {:?} width {}", family, isa, width);
                    prop_assert_eq!(batched.reservoir_keys(), scalar.reservoir_keys(), "{} {:?} width {}", family, isa, width);
                    if let Some(kernel) = batched.fused() {
                        let mut hashes = vec![0u64; refs.len()];
                        let mut verdicts = vec![false; refs.len()];
                        kernel.eval_batch(&refs, &mut hashes, &mut verdicts);
                        for (i, key) in refs.iter().enumerate() {
                            prop_assert_eq!(verdicts[i], batched.guard().matches(key), "{} {:?} {:?}", family, isa, key);
                            if verdicts[i] {
                                prop_assert_eq!(hashes[i], interp::interpret(&plan, family, 0, key), "{} {:?}", family, isa);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hash_batch_equals_scalar_and_interpreter(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let keys = format.sample_keys(&mut rng, 11);
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let hash_seed = rng.next_u64();
        for family in Family::ALL {
            let plan = synthesize(&pattern, family);
            for isa in [Isa::Native, Isa::Portable] {
                let tuned =
                    SynthesizedHash::new(plan.clone(), family, isa).with_seed(hash_seed);
                for &width in &WIDTHS {
                    for chunk in refs.chunks(width) {
                        let mut got = vec![0u64; chunk.len()];
                        tuned.hash_batch(chunk, &mut got);
                        for (&key, &actual) in chunk.iter().zip(&got) {
                            prop_assert_eq!(
                                actual,
                                tuned.hash_bytes(key),
                                "{} {:?} width {} scalar mismatch on {:?}",
                                family, isa, width, key
                            );
                            prop_assert_eq!(
                                actual,
                                interp::interpret(&plan, family, hash_seed, key),
                                "{} {:?} width {} interpreter mismatch on {:?}",
                                family, isa, width, key
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hash_batch_is_dispatch_independent(seed in any::<u64>()) {
        // The same keys, hashed with hardware pext allowed and then with
        // the software kernels forced, must agree lane for lane. Hashes
        // are constructed inside each arm because dispatch is cached at
        // construction time.
        let mut rng = SplitMix64::new(seed);
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let keys = format.sample_keys(&mut rng, 9);
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let plan = synthesize(&pattern, Family::Pext);
        let hash_seed = rng.next_u64();

        let run = |_: ()| {
            let tuned = SynthesizedHash::new(plan.clone(), Family::Pext, Isa::Native)
                .with_seed(hash_seed);
            let mut out = vec![0u64; refs.len()];
            // Width 7 exercises the 4-wide kernel plus a ragged tail.
            for (chunk, slot) in refs.chunks(7).zip(out.chunks_mut(7)) {
                tuned.hash_batch(chunk, slot);
            }
            out
        };
        let native = run(());
        let soft = with_forced_software_pext(|| run(()));
        for (i, (&n, &s)) in native.iter().zip(&soft).enumerate() {
            prop_assert_eq!(n, s, "lane {} differs across pext dispatch", i);
            prop_assert_eq!(
                n,
                interp::interpret(&plan, Family::Pext, hash_seed, &keys[i]),
                "lane {} disagrees with the interpreter",
                i
            );
        }
    }

    #[test]
    fn ragged_tails_match_full_batches(seed in any::<u64>()) {
        // Hashing a pool in one call must equal hashing it in uneven
        // chunks: the chunk boundary never leaks into the values.
        let mut rng = SplitMix64::new(seed);
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let keys = format.sample_keys(&mut rng, 13);
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        for family in Family::ALL {
            let tuned = SynthesizedHash::from_pattern(&pattern, family);
            let mut whole = vec![0u64; refs.len()];
            tuned.hash_batch(&refs, &mut whole);
            for &width in &WIDTHS {
                let mut chunked = vec![0u64; refs.len()];
                for (chunk, slot) in refs.chunks(width).zip(chunked.chunks_mut(width)) {
                    tuned.hash_batch(chunk, slot);
                }
                prop_assert_eq!(&whole, &chunked, "{} width {}", family, width);
            }
        }
    }
}
