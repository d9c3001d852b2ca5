//! Fault injection: mutate keys off-format and verify guarded containers
//! survive.
//!
//! The guard layer promises two things: a [`GuardedHash`]-backed container
//! stays semantically a map no matter how many keys fall outside the
//! trained format, and the drift threshold really trips, and holds the
//! guarded route until a resynthesis acts on it. This module checks both
//! the hard way — it *manufactures* drift. [`mutate_off_format`] edits a
//! valid key so it provably leaves the format (length edits past the
//! bounds, byte flips out of the allowed ranges); [`mutate_in_format`]
//! resamples a byte inside its range as a control. [`check_guarded_container`] replays random operation
//! sequences with a configurable fraction of injected faults against
//! `std::collections::HashMap`, and [`check_degradation`] drives a guarded
//! map over the drift threshold and asserts the held trip, the resynthesis
//! that acts on it, and the explicit degrade.

use crate::interp::spec_matches;
use sepe_containers::{DriftPolicy, UnorderedMap};
use sepe_core::fused::FusedKernel;
use sepe_core::guard::{FormatGuard, GuardMode, GuardedHash};
use sepe_core::hash::ByteHash;
use sepe_core::pattern::KeyPattern;
use sepe_core::synth::Family;
use sepe_core::SynthesizedHash;
use sepe_keygen::SplitMix64;
use std::collections::HashMap;

/// Mutates `key` so that it no longer matches `pattern`.
///
/// Three fault classes, chosen by the rng: grow past `max_len`, truncate
/// below `min_len` (when the format has a nonempty minimum), or flip one
/// constrained byte to a value outside its allowed range. The result is
/// checked against the pattern before being returned, so callers may rely
/// on it being off-format.
#[must_use]
pub fn mutate_off_format(pattern: &KeyPattern, key: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let constrained: Vec<usize> = key
        .iter()
        .zip(pattern.bytes())
        .enumerate()
        .filter(|(_, (_, p))| p.const_mask() != 0)
        .map(|(i, _)| i)
        .collect();
    let mut choices = vec![FaultKind::Lengthen];
    if pattern.min_len() > 0 {
        choices.push(FaultKind::Truncate);
    }
    if !constrained.is_empty() {
        choices.push(FaultKind::ByteFlip);
    }
    let fault = choices[(rng.next_u64() % choices.len() as u64) as usize];
    let mutated = match fault {
        FaultKind::Lengthen => {
            let mut k = key.to_vec();
            let extra = 1 + (rng.next_u64() % 4) as usize;
            k.resize(pattern.max_len() + extra, b'!');
            k
        }
        FaultKind::Truncate => key[..(rng.next_u64() % pattern.min_len() as u64) as usize].to_vec(),
        FaultKind::ByteFlip => {
            let i = constrained[(rng.next_u64() % constrained.len() as u64) as usize];
            let p = pattern.bytes()[i];
            let mut k = key.to_vec();
            // Invert one constant bit: the byte now disagrees with the
            // pattern at exactly that position.
            let bit = p.const_mask().trailing_zeros();
            k[i] ^= 1 << bit;
            k
        }
    };
    debug_assert!(
        !pattern.matches(&mutated),
        "{fault:?} left {mutated:?} in-format"
    );
    mutated
}

#[derive(Debug, Clone, Copy)]
enum FaultKind {
    Lengthen,
    Truncate,
    ByteFlip,
}

/// Resamples one byte of `key` to a different value still inside its
/// allowed range, when the position admits one — an in-format mutation that
/// must *not* trip the guard.
#[must_use]
pub fn mutate_in_format(pattern: &KeyPattern, key: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut k = key.to_vec();
    if k.is_empty() {
        return k;
    }
    let i = (rng.next_u64() % k.len() as u64) as usize;
    let choices: Vec<u8> = pattern.bytes()[i]
        .possible_bytes()
        .filter(|&b| b != k[i])
        .collect();
    if let Some(&b) = choices.get((rng.next_u64() % choices.len().max(1) as u64) as usize) {
        k[i] = b;
    }
    k
}

/// Checks that [`FormatGuard`] decides membership exactly like the
/// independent quad-level specification ([`spec_matches`]) on `keys`,
/// their single-byte out-of-range mutations, and their in-format
/// mutations. Returns the number of membership decisions compared.
///
/// # Errors
///
/// Describes the first key the guard and the specification disagree on.
pub fn check_guard_agreement(
    pattern: &KeyPattern,
    keys: &[Vec<u8>],
    rng: &mut SplitMix64,
) -> Result<usize, String> {
    let guard = FormatGuard::compile(pattern);
    let mut checked = 0usize;
    let verdict = |key: &[u8], expect: Option<bool>| -> Result<(), String> {
        let spec = spec_matches(pattern, key);
        if let Some(e) = expect {
            if spec != e {
                return Err(format!("spec_matches({key:?}) = {spec}, expected {e}"));
            }
        }
        if guard.matches(key) != spec {
            return Err(format!(
                "guard.matches({key:?}) = {}, spec says {spec}",
                guard.matches(key)
            ));
        }
        Ok(())
    };
    for key in keys {
        verdict(key, Some(true))?;
        verdict(&mutate_off_format(pattern, key, rng), Some(false))?;
        verdict(&mutate_in_format(pattern, key, rng), Some(true))?;
        checked += 3;
    }
    Ok(checked)
}

/// Checks that the *batched* guard path treats injected faults exactly
/// like the scalar one.
///
/// Builds mixed batches (clean keys interleaved with [`mutate_off_format`]
/// mutations) and asserts, across batch widths 1/3/4/7/8:
///
/// * the fused batch verdict ([`FusedKernel::eval_batch`]) of every
///   family whose plan has a kernel flags exactly the indices that
///   `guard.matches` and [`spec_matches`] flag, and its hash of each
///   in-format key is the specialized hash;
/// * the same verdict flags exactly the one lane of an interleaved chunk
///   (width 4 or 8) of in-format keys in which a constant bit of a
///   guard-only byte (constrained, loaded by no plan op) was flipped, for
///   every lane and every such byte;
/// * driving a [`GuardedHash`] through `hash_batch` yields the same hash
///   values as a scalar twin, and leaves the drift counters (`in_format`,
///   `off_format`) with the same increments.
///
/// Returns the number of membership decisions compared: one per key and
/// width, each checked against every family's kernel, plus one per lane of
/// every aimed chunk.
///
/// # Errors
///
/// Describes the first batch index where the batched and scalar guards
/// diverge.
pub fn check_batch_guard_agreement(
    pattern: &KeyPattern,
    keys: &[Vec<u8>],
    rng: &mut SplitMix64,
) -> Result<usize, String> {
    use sepe_baselines::CityHash;
    use sepe_core::hash::HashBatch;

    let guard = FormatGuard::compile(pattern);
    // Mixed pool: every third key mutated off-format, the rest clean.
    let pool: Vec<Vec<u8>> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            if i % 3 == 2 {
                mutate_off_format(pattern, k, rng)
            } else {
                k.clone()
            }
        })
        .collect();
    let refs: Vec<&[u8]> = pool.iter().map(Vec::as_slice).collect();
    let fused: Vec<(Family, SynthesizedHash, FusedKernel)> = Family::ALL
        .into_iter()
        .filter_map(|family| {
            let guarded = GuardedHash::from_pattern(pattern, family, CityHash::new());
            let kernel = *guarded.fused()?;
            Some((family, guarded.specialized().clone(), kernel))
        })
        .collect();

    let mut checked = 0usize;
    for width in [1usize, 3, 4, 7, 8] {
        for chunk in refs.chunks(width) {
            let mut hashes = vec![0u64; chunk.len()];
            let mut verdicts = vec![false; chunk.len()];
            for (i, &key) in chunk.iter().enumerate() {
                let scalar = guard.matches(key);
                let spec = spec_matches(pattern, key);
                if scalar != spec {
                    return Err(format!(
                        "width {width} lane {i}: guard.matches says {scalar}, \
                         spec says {spec} on {key:?}"
                    ));
                }
                checked += 1;
            }
            for (family, specialized, kernel) in &fused {
                kernel.eval_batch(chunk, &mut hashes, &mut verdicts);
                for (i, &key) in chunk.iter().enumerate() {
                    let (batched, spec) = (verdicts[i], spec_matches(pattern, key));
                    if batched != spec {
                        return Err(format!(
                            "{family} width {width} lane {i}: the fused batch verdict \
                             says {batched}, spec says {spec} on {key:?}"
                        ));
                    }
                    let want = specialized.hash_bytes(key);
                    if batched && hashes[i] != want {
                        return Err(format!(
                            "{family} width {width} lane {i}: fused batch hash {:#x} \
                             != specialized {want:#x} on {key:?}",
                            hashes[i]
                        ));
                    }
                }
            }
        }
    }

    // Mutations aimed at the guard-only words (constrained bytes no plan
    // load covers, such as a URL's constant prefix), one lane per chunk:
    // only the guard's pass over those words can see them, and a mixed
    // pool rarely puts its one off-format key there.
    let clean: Vec<&[u8]> = refs.iter().copied().filter(|k| guard.matches(k)).collect();
    let (mut hashes, mut verdicts) = ([0u64; 8], [false; 8]);
    for (family, specialized, kernel) in &fused {
        let ops = specialized.plan().word_ops().unwrap_or_default();
        let guard_only: Vec<usize> = (0..pattern.min_len())
            .filter(|&at| {
                pattern.bytes()[at].const_mask() != 0
                    && !ops
                        .iter()
                        .any(|op| (op.offset as usize..op.offset as usize + 8).contains(&at))
            })
            .collect();
        for width in [4usize, 8] {
            let Some(base) = clean.get(..width) else {
                continue;
            };
            for (lane, &at) in (0..width).flat_map(|l| guard_only.iter().map(move |a| (l, a))) {
                let mut chunk: Vec<Vec<u8>> = base.iter().map(|k| k.to_vec()).collect();
                chunk[lane][at] ^= 1 << pattern.bytes()[at].const_mask().trailing_zeros();
                let chunk: Vec<&[u8]> = chunk.iter().map(Vec::as_slice).collect();
                kernel.eval_batch(&chunk, &mut hashes[..width], &mut verdicts[..width]);
                for (i, &key) in chunk.iter().enumerate() {
                    let spec = spec_matches(pattern, key);
                    if verdicts[i] != spec || spec == (i == lane) {
                        return Err(format!(
                            "{family} width {width} lane {i}: the fused batch verdict says \
                             {}, spec says {spec} on {key:?} (guard-only byte {at} flipped \
                             in lane {lane})",
                            verdicts[i]
                        ));
                    }
                }
                checked += width;
            }
        }
    }

    // Same drift accounting: a batched GuardedHash vs. a scalar twin.
    for family in Family::ALL {
        let batched = GuardedHash::from_pattern(pattern, family, CityHash::new());
        let scalar = GuardedHash::from_pattern(pattern, family, CityHash::new());
        for width in [3usize, 8] {
            for chunk in refs.chunks(width) {
                let mut out = vec![0u64; chunk.len()];
                batched.hash_batch(chunk, &mut out);
                for (i, (&key, &got)) in chunk.iter().zip(&out).enumerate() {
                    let want = scalar.hash_bytes(key);
                    if got != want {
                        return Err(format!(
                            "{family} width {width} lane {i}: batched guarded hash \
                             {got:#x} != scalar {want:#x} on {key:?}"
                        ));
                    }
                }
            }
        }
        let (b, s) = (batched.stats(), scalar.stats());
        if b.in_format() != s.in_format() || b.off_format() != s.off_format() {
            return Err(format!(
                "{family}: batched drift counters ({} in, {} off) != scalar \
                 ({} in, {} off)",
                b.in_format(),
                b.off_format(),
                s.in_format(),
                s.off_format()
            ));
        }
    }
    Ok(checked)
}

/// Checks that a [`GuardedHash`] equals its specialized hash on every
/// in-format key (the guard reroutes, it must never *change* an in-format
/// hash).
///
/// # Errors
///
/// Describes the first in-format key the two hashes disagree on.
pub fn check_in_format_identity<G: ByteHash>(
    guarded: &GuardedHash<SynthesizedHash, G>,
    keys: &[Vec<u8>],
) -> Result<(), String> {
    for key in keys {
        let g = guarded.hash_bytes(key);
        let s = guarded.specialized().hash_bytes(key);
        if g != s {
            return Err(format!(
                "guarded hash {g:#x} != specialized hash {s:#x} on in-format key {key:?}"
            ));
        }
    }
    Ok(())
}

/// Statistics of one fault-injected model-checking run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultStats {
    /// Operations replayed.
    pub ops: usize,
    /// Off-format keys injected into the pool.
    pub injected: usize,
    /// Degradation transitions observed.
    pub transitions: usize,
    /// Full-content checkpoints passed.
    pub checkpoints: usize,
}

/// Builds a key pool with `fault_fraction` of the entries mutated
/// off-format.
#[must_use]
pub fn faulted_pool(
    pattern: &KeyPattern,
    clean: &[Vec<u8>],
    fault_fraction: f64,
    rng: &mut SplitMix64,
) -> (Vec<Vec<u8>>, usize) {
    let mut pool = Vec::with_capacity(clean.len());
    let mut injected = 0usize;
    for key in clean {
        // Threshold comparison on the raw 64-bit draw keeps the fraction
        // exact in expectation without floats in the loop.
        if (rng.next_u64() as f64 / u64::MAX as f64) < fault_fraction {
            pool.push(mutate_off_format(pattern, key, rng));
            injected += 1;
        } else {
            pool.push(key.clone());
        }
    }
    (pool, injected)
}

/// Replays `n_ops` random operations against a [`GuardedHash`]-backed
/// [`UnorderedMap`] and `std::collections::HashMap` simultaneously, drawing
/// keys from `pool` (which may contain off-format, non-UTF-8 keys — the
/// model uses `Vec<u8>` keys for exactly that reason). Every 512 steps the
/// drift policy is consulted, so a pool over the threshold exercises the
/// degradation transition mid-sequence.
///
/// # Errors
///
/// Returns a description of the first divergence from the model.
pub fn check_guarded_container<G: ByteHash + Clone>(
    hasher: GuardedHash<SynthesizedHash, G>,
    pool: &[Vec<u8>],
    policy: &DriftPolicy,
    n_ops: usize,
    seed: u64,
) -> Result<FaultStats, String> {
    let mut rng = SplitMix64::new(seed);
    let mut sut: UnorderedMap<Vec<u8>, u64, _> = UnorderedMap::with_hasher(hasher);
    let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
    let mut stats = FaultStats::default();
    let mut next_value = 0u64;

    for step in 0..n_ops {
        let key = &pool[(rng.next_u64() % pool.len() as u64) as usize];
        match rng.next_u64() % 100 {
            0..=39 => {
                next_value += 1;
                let a = sut.insert(key.clone(), next_value);
                let b = model.insert(key.clone(), next_value);
                if a != b {
                    return Err(format!(
                        "step {step}: insert({key:?}) -> {a:?}, model {b:?}"
                    ));
                }
            }
            40..=64 => {
                let a = sut.get(key.as_slice()).copied();
                let b = model.get(key).copied();
                if a != b {
                    return Err(format!("step {step}: get({key:?}) -> {a:?}, model {b:?}"));
                }
            }
            65..=74 => {
                if sut.contains_key(key.as_slice()) != model.contains_key(key) {
                    return Err(format!("step {step}: contains({key:?}) diverged"));
                }
            }
            75..=89 => {
                let a = sut.remove(key.as_slice());
                let b = model.remove(key);
                if a != b {
                    return Err(format!(
                        "step {step}: remove({key:?}) -> {a:?}, model {b:?}"
                    ));
                }
            }
            90..=93 => {
                sut.rehash(1 + (rng.next_u64() % 512) as usize);
            }
            94..=96 => {
                sut.reserve((rng.next_u64() % 256) as usize);
            }
            97 => {
                sut.clear();
                model.clear();
            }
            _ => {
                check_contents(step, &sut, &model)?;
                stats.checkpoints += 1;
            }
        }
        if sut.len() != model.len() {
            return Err(format!(
                "step {step}: len {} != model {}",
                sut.len(),
                model.len()
            ));
        }
        if step % 512 == 511 && sut.maybe_degrade(policy) {
            stats.transitions += 1;
            check_contents(step, &sut, &model).map_err(|e| format!("after degradation: {e}"))?;
        }
        stats.ops += 1;
    }
    check_contents(n_ops, &sut, &model)?;
    stats.checkpoints += 1;
    Ok(stats)
}

fn check_contents<H: ByteHash>(
    step: usize,
    sut: &UnorderedMap<Vec<u8>, u64, H>,
    model: &HashMap<Vec<u8>, u64>,
) -> Result<(), String> {
    let mut seen = 0usize;
    for (k, v) in sut.iter() {
        match model.get(k) {
            Some(mv) if mv == v => seen += 1,
            Some(mv) => return Err(format!("step {step}: {k:?} holds {v}, model holds {mv}")),
            None => return Err(format!("step {step}: {k:?} present but absent from model")),
        }
    }
    if seen != model.len() {
        return Err(format!(
            "step {step}: iterated {seen} pairs, model holds {}",
            model.len()
        ));
    }
    Ok(())
}

/// Drives a guarded map over the drift threshold with ≥10% injected
/// off-format keys and asserts the drift state machine: `Guarded` before
/// the threshold; then exactly one trip, held on the guarded route (mode
/// unchanged, no epoch opened, every stored key's route unchanged); an
/// applied resynthesis that opens the one epoch and clears the hold; and
/// an explicit `degrade_now` that flips to `Degraded`. No key may be lost
/// at any step, mid-migration or after the drain.
///
/// # Errors
///
/// Describes the first violated transition or lost key.
pub fn check_degradation<G: ByteHash + Clone>(
    pattern: &KeyPattern,
    family: Family,
    fallback: G,
    clean: &[Vec<u8>],
    seed: u64,
) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed);
    let policy = DriftPolicy {
        threshold: 0.10,
        min_samples: 32,
        ..DriftPolicy::default()
    };
    let hasher = GuardedHash::from_pattern(pattern, family, fallback);
    let mut map: UnorderedMap<Vec<u8>, u64, _> = UnorderedMap::with_hasher(hasher);
    let registry = sepe_obs::Registry::new();
    map.export_table_metrics(&registry, &[])
        .map_err(|e| format!("metrics export failed: {e}"))?;
    let epochs = || registry.snapshot().counter("table_epochs_opened");
    if map.guard_mode() != GuardMode::Guarded {
        return Err("fresh guarded map is not in Guarded mode".to_owned());
    }
    for (i, key) in clean.iter().enumerate() {
        map.insert(key.clone(), i as u64);
    }
    if map.maybe_degrade(&policy) {
        return Err("drift tripped on purely in-format traffic".to_owned());
    }
    // 25% injected faults pushes drift well past the 10% threshold.
    let (pool, injected) = faulted_pool(pattern, clean, 0.25, &mut rng);
    if (injected as f64) < 0.10 * pool.len() as f64 {
        return Err(format!(
            "injection produced only {injected}/{} off-format keys",
            pool.len()
        ));
    }
    for (i, key) in pool.iter().enumerate() {
        map.insert(key.clone(), (clean.len() + i) as u64);
    }
    let keys: Vec<&Vec<u8>> = clean.iter().chain(&pool).collect();
    // The live routing of every key, read through a counter-silent copy.
    let routes = |map: &UnorderedMap<Vec<u8>, u64, GuardedHash<SynthesizedHash, G>>| {
        let silent = map.hasher().epoch_frozen(map.guard_mode());
        keys.iter()
            .map(|k| silent.hash_routed(k))
            .collect::<Vec<_>>()
    };
    let (routed, opened) = (routes(&map), epochs());
    let window = map.drift_stats().window_counts();
    if !map.maybe_degrade(&policy) {
        return Err(format!(
            "drift {:.1}% did not trip (threshold {:.1}%)",
            map.drift_stats().off_rate() * 100.0,
            policy.threshold * 100.0
        ));
    }
    if map.guard_mode() != GuardMode::Guarded || map.drift_trip() != Some(window) {
        return Err(format!(
            "the trip left the map {:?} holding {:?}, not Guarded holding {window:?}",
            map.guard_mode(),
            map.drift_trip()
        ));
    }
    if map.migration_in_flight() || epochs() != opened {
        return Err("the trip opened a migration epoch".to_owned());
    }
    if routes(&map) != routed {
        return Err("the trip changed a stored key's route".to_owned());
    }
    if map.maybe_degrade(&policy) {
        return Err("a held trip tripped again".to_owned());
    }
    check_keys(&map, &keys, "the held trip")?;
    // The resynthesis is the one epoch that changes the plan.
    if !map.resynthesize().is_applied() {
        return Err("resynthesis over the sampled drift was not applied".to_owned());
    }
    if map.drift_trip().is_some() || epochs() != opened.map(|n| n + 1) {
        return Err(format!(
            "resynthesis left the trip {:?} and {:?} epochs opened (was {opened:?})",
            map.drift_trip(),
            epochs()
        ));
    }
    check_keys(&map, &keys, "mid-migration after the resynthesis")?;
    map.finish_migration();
    // The explicit flip is still the only way to `Degraded`.
    map.degrade_now();
    if map.guard_mode() != GuardMode::Degraded {
        return Err("degrade_now did not flip the map to Degraded".to_owned());
    }
    check_keys(&map, &keys, "mid-migration after degrade_now")?;
    map.finish_migration();
    if map.migration_in_flight() {
        return Err("finish_migration left the epoch in flight".to_owned());
    }
    check_keys(&map, &keys, "across the degradation drain")
}

/// Every key of `keys` is still present in `map`.
fn check_keys<H: ByteHash>(
    map: &UnorderedMap<Vec<u8>, u64, H>,
    keys: &[&Vec<u8>],
    when: &str,
) -> Result<(), String> {
    match keys.iter().find(|k| !map.contains_key(k.as_slice())) {
        Some(key) => Err(format!("key {key:?} lost {when}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::RandomFormat;
    use sepe_core::hash::stl_hash_bytes;

    #[derive(Clone)]
    struct Stl;
    impl ByteHash for Stl {
        fn hash_bytes(&self, key: &[u8]) -> u64 {
            stl_hash_bytes(key, 0)
        }
    }

    #[test]
    fn mutations_leave_and_keep_the_format() {
        let mut rng = SplitMix64::new(0xFA_017);
        for _ in 0..100 {
            let format = RandomFormat::generate(&mut rng);
            let pattern = format.pattern();
            for key in format.sample_keys(&mut rng, 10) {
                let off = mutate_off_format(&pattern, &key, &mut rng);
                assert!(!pattern.matches(&off), "{pattern} accepted {off:?}");
                let on = mutate_in_format(&pattern, &key, &mut rng);
                assert!(pattern.matches(&on), "{pattern} rejected {on:?}");
            }
        }
    }

    #[test]
    fn guarded_container_model_holds_under_faults() {
        let mut rng = SplitMix64::new(0xBAD_C0DE);
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let clean = format.sample_keys(&mut rng, 48);
        let (pool, injected) = faulted_pool(&pattern, &clean, 0.25, &mut rng);
        assert!(injected > 0);
        for family in Family::ALL {
            let hasher = GuardedHash::from_pattern(&pattern, family, Stl);
            let stats =
                check_guarded_container(hasher, &pool, &DriftPolicy::default(), 3_000, 0x5EED)
                    .unwrap_or_else(|e| panic!("{family}: {e}"));
            assert!(stats.checkpoints > 0);
        }
    }

    #[test]
    fn degradation_state_machine_is_exercised() {
        let mut rng = SplitMix64::new(0xD1F7);
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let clean = format.sample_keys(&mut rng, 200);
        check_degradation(&pattern, Family::Pext, Stl, &clean, 0x0FF).expect("state machine");
    }
}
