//! Running one experiment and collecting the paper's four metrics.

use crate::config::{ContainerKind, ExperimentConfig, Mode, COLLISION_KEYS};
use sepe_containers::{
    BucketPolicy, UnorderedMap, UnorderedMultiMap, UnorderedMultiSet, UnorderedSet,
};
use sepe_core::hash::HashBatch;
use sepe_core::ByteHash;
use sepe_keygen::{KeySampler, SplitMix64};
use std::time::{Duration, Instant};

/// The metrics of one experiment, matching Table 1's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measurement {
    /// Wall time of the whole affectation loop (**B-Time**).
    pub b_time: Duration,
    /// Wall time of hashing the affectation keys alone (**H-Time**).
    pub h_time: Duration,
    /// Bucket collisions of a container filled with
    /// [`COLLISION_KEYS`] keys (**B-Coll**).
    pub bucket_collisions: u64,
    /// Distinct keys sharing a 64-bit hash code among
    /// [`COLLISION_KEYS`] distinct keys (**T-Coll**).
    pub true_collisions: u64,
}

/// One of the four containers, erased behind a common op interface.
enum Container<'h> {
    Map(UnorderedMap<String, u64, &'h dyn ByteHash>),
    Set(UnorderedSet<String, &'h dyn ByteHash>),
    MultiMap(UnorderedMultiMap<String, u64, &'h dyn ByteHash>),
    MultiSet(UnorderedMultiSet<String, &'h dyn ByteHash>),
}

impl<'h> Container<'h> {
    fn new(kind: ContainerKind, hash: &'h dyn ByteHash, policy: BucketPolicy) -> Self {
        match kind {
            ContainerKind::Map => {
                Container::Map(UnorderedMap::with_hasher_and_policy(hash, policy))
            }
            ContainerKind::Set => {
                Container::Set(UnorderedSet::with_hasher_and_policy(hash, policy))
            }
            ContainerKind::MultiMap => {
                Container::MultiMap(UnorderedMultiMap::with_hasher_and_policy(hash, policy))
            }
            ContainerKind::MultiSet => {
                Container::MultiSet(UnorderedMultiSet::with_hasher_and_policy(hash, policy))
            }
        }
    }

    #[inline]
    fn insert(&mut self, key: &str, value: u64) {
        match self {
            Container::Map(c) => {
                c.insert(key.to_owned(), value);
            }
            Container::Set(c) => {
                c.insert(key.to_owned());
            }
            Container::MultiMap(c) => c.insert(key.to_owned(), value),
            Container::MultiSet(c) => c.insert(key.to_owned()),
        }
    }

    #[inline]
    fn search(&self, key: &str) -> bool {
        match self {
            Container::Map(c) => c.get(key).is_some(),
            Container::Set(c) => c.contains(key),
            Container::MultiMap(c) => c.get(key).is_some(),
            Container::MultiSet(c) => c.contains(key),
        }
    }

    /// `erase(key)` semantics: maps/sets remove the one entry, multi
    /// containers remove every entry with the key.
    #[inline]
    fn remove(&mut self, key: &str) {
        match self {
            Container::Map(c) => {
                c.remove(key);
            }
            Container::Set(c) => {
                c.remove(key);
            }
            Container::MultiMap(c) => {
                c.remove_all(key);
            }
            Container::MultiSet(c) => {
                c.remove_all(key);
            }
        }
    }
}

/// Runs one experiment: times the affectation loop (B-Time), times hashing
/// alone (H-Time), and counts bucket and true collisions over
/// [`COLLISION_KEYS`] keys.
#[must_use]
pub fn run_experiment(cfg: &ExperimentConfig, hash: &dyn ByteHash) -> Measurement {
    let mut sampler = KeySampler::new(cfg.format, cfg.distribution, cfg.seed);
    let pool = sampler.pool(cfg.spread.max(1));

    let b_time = time_affectations(cfg, hash, &pool);
    let h_time = time_hashing(cfg, hash, &pool);
    let (bucket_collisions, true_collisions) = count_collisions(
        cfg.format,
        cfg.distribution,
        hash,
        cfg.policy,
        COLLISION_KEYS,
        cfg.seed,
    );

    Measurement {
        b_time,
        h_time,
        bucket_collisions,
        true_collisions,
    }
}

/// Times the affectation loop: `cfg.affectations` operations against a
/// fresh container (the **B-Time** of RQ1).
#[must_use]
pub fn time_affectations(cfg: &ExperimentConfig, hash: &dyn ByteHash, pool: &[String]) -> Duration {
    let mut container = Container::new(cfg.container, hash, cfg.policy);
    let mut rng = SplitMix64::new(cfg.seed ^ 0x5EED);
    let n = cfg.affectations;

    let start = Instant::now();
    match cfg.mode {
        Mode::Batched => {
            // Batches: insertions, then searches, then eliminations, keys
            // taken in pool order (ascending for the incremental
            // distribution).
            let third = n / 3;
            for i in 0..third {
                container.insert(&pool[i % pool.len()], i as u64);
            }
            for i in third..2 * third {
                std::hint::black_box(container.search(&pool[i % pool.len()]));
            }
            for i in 2 * third..n {
                container.remove(&pool[i % pool.len()]);
            }
        }
        Mode::Interweaved { p_insert, p_search } => {
            // First 50% of the insertions, then the random mix.
            let half = n / 2;
            for i in 0..half {
                container.insert(&pool[i % pool.len()], i as u64);
            }
            for i in half..n {
                let key = &pool[(rng.next_u64() as usize) % pool.len()];
                let p = rng.next_f64();
                if p < p_insert {
                    container.insert(key, i as u64);
                } else if p < p_insert + p_search {
                    std::hint::black_box(container.search(key));
                } else {
                    container.remove(key);
                }
            }
        }
    }
    start.elapsed()
}

/// Times hashing alone: `cfg.affectations` hash computations over the pool
/// (the **H-Time** of RQ1), along one [`chained_hashes`] chain.
#[must_use]
pub fn time_hashing(cfg: &ExperimentConfig, hash: &dyn ByteHash, pool: &[String]) -> Duration {
    let keys: Vec<&[u8]> = pool.iter().map(|s| s.as_bytes()).collect();
    let start = Instant::now();
    std::hint::black_box(chained_hashes(hash, &keys, cfg.affectations));
    start.elapsed()
}

/// Hashes `iterations` keys along one dependency chain and returns the xor
/// of the hashes: each key's index is the previous hash masked to the
/// largest power of two that fits in `keys`, exactly as a hash-table
/// consumer depends on the hash to pick a bucket. Without the chain,
/// out-of-order execution pipelines the calls and the measurement
/// collapses into call-overhead throughput, hiding the differences RQ1 is
/// after. Every latency-chained timing (H-Time, `keybench`, the criterion
/// benches) runs this loop; the caller owns the clock.
///
/// # Panics
///
/// Panics if `keys` is empty and `iterations` is not zero.
#[inline]
#[must_use]
pub fn chained_hashes<H: ByteHash + ?Sized>(hash: &H, keys: &[&[u8]], iterations: usize) -> u64 {
    // A power-of-two mask, so the chain costs one AND.
    let mask = (1usize << keys.len().max(1).ilog2()) - 1;
    let mut idx = 0usize;
    let mut acc = 0u64;
    for _ in 0..iterations {
        let h = hash.hash_bytes(std::hint::black_box(keys[idx]));
        acc ^= h;
        idx = (h as usize) & mask;
    }
    acc
}

/// Batched throughput in ns per key: `width` independent chains, each
/// indexed like [`chained_hashes`], advance together through one
/// [`HashBatch::hash_batch`] call per step, so the interleaved kernels
/// have independent work for the out-of-order window.
///
/// # Panics
///
/// Panics if `width` is zero or larger than `pool`.
#[must_use]
pub fn batched_ns_per_key<H: HashBatch>(
    hash: &H,
    pool: &[&[u8]],
    width: usize,
    iterations: usize,
) -> f64 {
    let mask = (1u64 << pool.len().max(1).ilog2()) - 1;
    let steps = (iterations / width).max(1);
    let mut idx: Vec<usize> = (0..width).collect();
    let mut out = vec![0u64; width];
    let mut keys: Vec<&[u8]> = vec![pool[0]; width];
    let start = Instant::now();
    for _ in 0..steps {
        for lane in 0..width {
            keys[lane] = pool[idx[lane]];
        }
        hash.hash_batch(&keys, &mut out);
        for lane in 0..width {
            idx[lane] = (out[lane] & mask) as usize;
        }
    }
    let elapsed = start.elapsed();
    std::hint::black_box(&out);
    elapsed.as_secs_f64() * 1e9 / (steps * width) as f64
}

/// Runs `measure` on each of `points` once to warm up, then `samples`
/// rounds over all of them, and returns each point's median. A round
/// visits every point, so a slow phase of the machine lands on every point
/// of the rounds it spans, where the medians discard it, instead of on a
/// run of consecutive points, where it would bend a curve.
#[must_use]
pub fn median_of_rounds(
    points: usize,
    samples: usize,
    mut measure: impl FnMut(usize) -> f64,
) -> Vec<f64> {
    for point in 0..points {
        let _warmup = measure(point);
    }
    let mut runs = vec![Vec::with_capacity(samples.max(1)); points];
    for _ in 0..samples.max(1) {
        for (point, run) in runs.iter_mut().enumerate() {
            run.push(measure(point));
        }
    }
    runs.into_iter()
        .map(|mut run| {
            run.sort_by(f64::total_cmp);
            run[run.len() / 2]
        })
        .collect()
}

/// The distinct key pool the collision counts of an experiment measure.
///
/// Deterministic in `(format, distribution, seed)`, and `distinct_pool`
/// yields keys in encounter order — so the pool for a smaller `n` is a
/// prefix of the pool for a larger one. Data-dependent baselines (Gperf)
/// train on such a prefix via [`crate::registry::HashId::build_trained`],
/// mirroring how GNU gperf is handed the key set it will actually serve.
#[must_use]
pub fn collision_pool(
    format: sepe_keygen::KeyFormat,
    distribution: sepe_keygen::Distribution,
    n: usize,
    seed: u64,
) -> Vec<String> {
    let n = n.min(usize::try_from(format.space()).unwrap_or(usize::MAX));
    let mut sampler = KeySampler::new(format, distribution, seed ^ 0xC011);
    sampler.distinct_pool(n)
}

/// Counts bucket collisions (container-level, Section 4.2) and true
/// collisions (64-bit hash duplicates) over `n` distinct keys.
#[must_use]
pub fn count_collisions(
    format: sepe_keygen::KeyFormat,
    distribution: sepe_keygen::Distribution,
    hash: &dyn ByteHash,
    policy: BucketPolicy,
    n: usize,
    seed: u64,
) -> (u64, u64) {
    let keys = collision_pool(format, distribution, n, seed);
    collisions_of(hash, &keys, policy)
}

/// Bucket and true collisions of an explicit key set.
#[must_use]
pub fn collisions_of(
    hash: &dyn ByteHash,
    distinct_keys: &[String],
    policy: BucketPolicy,
) -> (u64, u64) {
    let mut map: UnorderedMap<String, (), &dyn ByteHash> =
        UnorderedMap::with_hasher_and_policy(hash, policy);
    for k in distinct_keys {
        map.insert(k.clone(), ());
    }
    let bucket = map.bucket_collisions();

    let mut hashes: Vec<u64> = distinct_keys
        .iter()
        .map(|k| hash.hash_bytes(k.as_bytes()))
        .collect();
    hashes.sort_unstable();
    let true_coll = hashes.windows(2).filter(|w| w[0] == w[1]).count() as u64;
    (bucket, true_coll)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::registry::HashId;
    use sepe_core::Isa;
    use sepe_keygen::{Distribution, KeyFormat};

    #[test]
    fn quick_experiment_produces_sane_measurements() {
        let cfg = ExperimentConfig::quick(KeyFormat::Ssn, Distribution::Normal);
        for id in [HashId::Stl, HashId::Pext, HashId::Gperf] {
            let hash = id.build(cfg.format, Isa::Native);
            let m = run_experiment(&cfg, hash.as_ref());
            assert!(m.b_time.as_nanos() > 0, "{id}");
            assert!(m.h_time.as_nanos() > 0, "{id}");
        }
    }

    #[test]
    fn pext_has_zero_true_collisions_on_ssn() {
        let hash = HashId::Pext.build(KeyFormat::Ssn, Isa::Native);
        let (_, t_coll) = count_collisions(
            KeyFormat::Ssn,
            Distribution::Uniform,
            hash.as_ref(),
            sepe_containers::BucketPolicy::Modulo,
            5000,
            1,
        );
        assert_eq!(t_coll, 0);
    }

    #[test]
    fn gperf_has_many_true_collisions() {
        // The paper's Table 1 reports tens of thousands; anything large
        // confirms the mechanism.
        let hash = HashId::Gperf.build(KeyFormat::Ssn, Isa::Native);
        let (b_coll, t_coll) = count_collisions(
            KeyFormat::Ssn,
            Distribution::Uniform,
            hash.as_ref(),
            sepe_containers::BucketPolicy::Modulo,
            5000,
            1,
        );
        assert!(t_coll > 1000, "gperf t_coll {t_coll}");
        assert!(b_coll > 1000, "gperf b_coll {b_coll}");
    }

    #[test]
    fn gperf_trained_on_the_measured_pool_no_longer_degenerates() {
        // Regression for the seed's repro_output.txt Gperf row: a constant
        // hash (empty position set, trained on a detached pool) put all
        // 10,000 keys of every format into one bucket — 9,999 B-Coll and
        // 8 × 9,999 = 79,992 T-Coll. Trained on a prefix of the measured
        // pool, gperf hashes that prefix (near-)perfectly and degrades to
        // ordinary heavy collisions — not a single value — beyond it.
        let n = 5000;
        let pool = collision_pool(KeyFormat::Ssn, Distribution::Normal, n, 42);
        let hash = HashId::Gperf.build_trained(KeyFormat::Ssn, Isa::Native, &pool);

        let train = &pool[..crate::registry::GPERF_TRAINING_KEYS];
        let mut trained: Vec<u64> = train
            .iter()
            .map(|k| hash.hash_bytes(k.as_bytes()))
            .collect();
        trained.sort_unstable();
        trained.dedup();
        // Keys permuting the same characters at the selected positions
        // collide unavoidably under a per-value table, so "near-perfect"
        // on random training keys means "mostly distinct", not perfect.
        assert!(
            trained.len() > train.len() * 3 / 4,
            "training prefix should be mostly distinct, got {} of {}",
            trained.len(),
            train.len()
        );

        let (b_coll, t_coll) =
            collisions_of(hash.as_ref(), &pool, sepe_containers::BucketPolicy::Modulo);
        assert!(
            t_coll < (n as u64) - u64::try_from(trained.len()).unwrap() + 1,
            "hash must not be constant on the pool: t_coll {t_coll}"
        );
        assert!(
            b_coll < (n as u64) - 1,
            "keys must spread over buckets: b_coll {b_coll}"
        );
    }

    #[test]
    fn every_mode_and_container_runs() {
        let hash = HashId::OffXor.build(KeyFormat::Ipv4, Isa::Native);
        for container in ContainerKind::ALL {
            for mode in Mode::ALL {
                let cfg = ExperimentConfig {
                    container,
                    mode,
                    ..ExperimentConfig::quick(KeyFormat::Ipv4, Distribution::Uniform)
                };
                let pool = KeySampler::new(cfg.format, cfg.distribution, cfg.seed).pool(cfg.spread);
                let t = time_affectations(&cfg, hash.as_ref(), &pool);
                assert!(t.as_nanos() > 0, "{container} {mode:?}");
            }
        }
    }

    #[test]
    fn interweaved_probabilities_shape_the_final_container() {
        // With a higher insert probability the container ends up fuller.
        // Run the loop manually so we can inspect the container afterwards.
        let format = KeyFormat::Ssn;
        let hash = HashId::Stl.build(format, Isa::Native);
        let final_len = |p_insert: f64, p_search: f64| -> usize {
            let cfg = ExperimentConfig {
                mode: Mode::Interweaved { p_insert, p_search },
                spread: 5000,
                affectations: 8000,
                ..ExperimentConfig::quick(format, Distribution::Uniform)
            };
            let pool = KeySampler::new(cfg.format, cfg.distribution, cfg.seed).pool(cfg.spread);
            // Reproduce the loop with an inspectable container.
            let mut c: sepe_containers::UnorderedMap<String, u64, &dyn ByteHash> =
                sepe_containers::UnorderedMap::with_hasher(hash.as_ref());
            let mut rng = SplitMix64::new(cfg.seed ^ 0x5EED);
            let (p_insert, p_search) = match cfg.mode {
                Mode::Interweaved { p_insert, p_search } => (p_insert, p_search),
                Mode::Batched => unreachable!("configured interweaved"),
            };
            let half = cfg.affectations / 2;
            for i in 0..half {
                c.insert(pool[i % pool.len()].clone(), i as u64);
            }
            for i in half..cfg.affectations {
                let key = &pool[(rng.next_u64() as usize) % pool.len()];
                let p = rng.next_f64();
                if p < p_insert {
                    c.insert(key.clone(), i as u64);
                } else if p >= p_insert + p_search {
                    c.remove(key.as_str());
                }
            }
            c.len()
        };
        let heavy_insert = final_len(0.7, 0.2);
        let heavy_remove = final_len(0.4, 0.3);
        assert!(
            heavy_insert > heavy_remove,
            "(0.7,0.2) -> {heavy_insert} should exceed (0.4,0.3) -> {heavy_remove}"
        );
    }

    #[test]
    fn measurement_helpers_accept_any_hasher() {
        let keys: Vec<String> = (0..64).map(|i| format!("{i:03}-00-0000")).collect();
        let pool: Vec<&[u8]> = keys.iter().map(String::as_bytes).collect();
        let hash = sepe_core::SynthesizedHash::from_regex(
            r"\d{3}-\d{2}-\d{4}",
            sepe_core::synth::Family::OffXor,
        )
        .unwrap();
        let boxed: &dyn ByteHash = &hash;
        assert_eq!(
            chained_hashes(&hash, &pool, 512),
            chained_hashes(boxed, &pool, 512)
        );
        assert!(batched_ns_per_key(&hash, &pool, 8, 512) > 0.0);
    }

    #[test]
    fn median_of_rounds_drops_the_warm_up_and_visits_points_round_robin() {
        let mut order = Vec::new();
        // Each point's first call, the warm-up, reads far off; point 1's
        // third timed sample is an outlier the median must discard.
        let medians = median_of_rounds(2, 3, |point| {
            order.push(point);
            let nth = order.iter().filter(|&&p| p == point).count();
            match (point, nth) {
                (_, 1) => 1e9,
                (1, 4) => 1e6,
                _ => point as f64 + nth as f64,
            }
        });
        assert_eq!(order, [0, 1, 0, 1, 0, 1, 0, 1]);
        assert_eq!(medians, [3.0, 4.0]);
    }

    #[test]
    fn collision_counter_caps_at_the_key_space() {
        let hash = HashId::Stl.build(KeyFormat::FourDigits, Isa::Native);
        // FourDigits has only 10 000 keys; asking for COLLISION_KEYS must
        // not hang.
        let (b, t) = count_collisions(
            KeyFormat::FourDigits,
            Distribution::Uniform,
            hash.as_ref(),
            sepe_containers::BucketPolicy::Modulo,
            COLLISION_KEYS,
            3,
        );
        assert_eq!(t, 0, "STL should not collide on 10k keys");
        let _ = b;
    }
}
