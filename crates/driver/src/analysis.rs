//! Higher-level analyses: the computations behind each table and figure,
//! shared by the `sepe-repro` binary and the criterion benches.

use crate::config::{ExperimentConfig, Mode, SPREADS};
use crate::measure::{collisions_of, run_experiment, time_affectations, Measurement};
use crate::registry::HashId;
use sepe_baselines::CityHash;
use sepe_containers::{BucketPolicy, UnorderedMap};
use sepe_core::codegen::{emit, Language};
use sepe_core::guard::GuardedHash;
use sepe_core::hash::SynthesizedHash;
use sepe_core::infer::infer_pattern;
use sepe_core::regex::Regex;
use sepe_core::synth::{synthesize, Family};
use sepe_core::{ByteHash, Isa};
use sepe_keygen::{Distribution, KeyFormat, KeySampler, SplitMix64};
use sepe_stats::{chi_square_gof, geometric_mean, hash_histogram_range};
use std::time::{Duration, Instant};

/// Scale knobs for the reproduction runs. The paper's full grid (10 000
/// affectations × 144 experiments × 10 samples × 8 key types × 10 hashes)
/// runs for hours; the default scale keeps every dimension but shrinks the
/// counts so the shapes reproduce in minutes.
#[derive(Debug, Clone)]
pub struct RunScale {
    /// Affectations per experiment (paper: 10 000).
    pub affectations: usize,
    /// Samples per experiment (paper: 10).
    pub samples: usize,
    /// Key formats to include (paper: all eight).
    pub formats: Vec<KeyFormat>,
    /// Keys for collision counting (paper: 10 000).
    pub collision_keys: usize,
    /// Keys for the uniformity analysis (paper: 100 000).
    pub uniformity_keys: usize,
    /// Instruction set for the synthesized functions.
    pub isa: Isa,
}

impl Default for RunScale {
    fn default() -> Self {
        RunScale {
            affectations: 10_000,
            samples: 3,
            formats: KeyFormat::EVALUATED.to_vec(),
            collision_keys: 10_000,
            uniformity_keys: 100_000,
            isa: Isa::Native,
        }
    }
}

impl RunScale {
    /// A fast scale for tests: one sample, two key formats, small counts.
    #[must_use]
    pub fn smoke() -> Self {
        RunScale {
            affectations: 2_000,
            samples: 1,
            formats: vec![KeyFormat::Ssn, KeyFormat::Ipv4],
            collision_keys: 2_000,
            uniformity_keys: 10_000,
            isa: Isa::Native,
        }
    }
}

/// Aggregate of one hash function over (a slice of) the grid — one row of
/// Table 1 / one box of Figure 13.
#[derive(Debug, Clone)]
pub struct GridAggregate {
    /// Which function was measured.
    pub id: HashId,
    /// Every per-experiment B-Time, in milliseconds.
    pub b_times_ms: Vec<f64>,
    /// Every per-experiment H-Time, in milliseconds.
    pub h_times_ms: Vec<f64>,
    /// Geometric-mean bucket collisions.
    pub b_coll: f64,
    /// Total true collisions (summed over formats, as Table 1 reports one
    /// number per function).
    pub t_coll: u64,
}

impl GridAggregate {
    /// Geometric-mean B-Time in milliseconds.
    #[must_use]
    pub fn b_time_geomean(&self) -> f64 {
        geometric_mean(&self.b_times_ms).unwrap_or(f64::NAN)
    }

    /// Geometric-mean H-Time in milliseconds.
    #[must_use]
    pub fn h_time_geomean(&self) -> f64 {
        geometric_mean(&self.h_times_ms).unwrap_or(f64::NAN)
    }
}

/// Runs the grid for one hash function, optionally restricted to one key
/// distribution (Table 1 uses the normal slice; Figure 13 uses all).
#[must_use]
pub fn run_grid(
    id: HashId,
    scale: &RunScale,
    only_distribution: Option<Distribution>,
) -> GridAggregate {
    let mut b_times_ms = Vec::new();
    let mut h_times_ms = Vec::new();
    let mut b_colls = Vec::new();
    let mut t_coll_total = 0u64;

    for &format in &scale.formats {
        // Collision counts depend only on (hash, format, distribution):
        // counted once per format, over distinct keys. The pool doubles as
        // the training set for the data-dependent Gperf baseline, the way
        // GNU gperf is handed the keywords it will serve.
        let dist = only_distribution.unwrap_or(Distribution::Normal);
        let n = scale
            .collision_keys
            .min(usize::try_from(format.space()).unwrap_or(usize::MAX));
        let mut sampler = KeySampler::new(format, dist, 0xC011);
        let keys = sampler.distinct_pool(n);
        let hash = id.build_trained(format, scale.isa, &keys);
        for cfg in ExperimentConfig::grid(format, scale.affectations, 7) {
            if only_distribution.is_some_and(|d| d != cfg.distribution) {
                continue;
            }
            for sample in 0..scale.samples {
                let cfg = ExperimentConfig {
                    seed: cfg.seed ^ (sample as u64) << 32,
                    ..cfg.clone()
                };
                let mut sampler = KeySampler::new(cfg.format, cfg.distribution, cfg.seed);
                let pool = sampler.pool(cfg.spread);
                let b = time_affectations(&cfg, hash.as_ref(), &pool);
                b_times_ms.push(b.as_secs_f64() * 1e3);
                let h = crate::measure::time_hashing(&cfg, hash.as_ref(), &pool);
                h_times_ms.push(h.as_secs_f64() * 1e3);
            }
        }
        let (b, t) = collisions_of(hash.as_ref(), &keys, BucketPolicy::Modulo);
        b_colls.push(b.max(1) as f64);
        t_coll_total += t;
    }

    GridAggregate {
        id,
        b_times_ms,
        h_times_ms,
        b_coll: geometric_mean(&b_colls).unwrap_or(f64::NAN),
        t_coll: t_coll_total,
    }
}

/// The χ² statistic of a hash function's output distribution over `bins`
/// equal slices of the 64-bit range (RQ3 methodology). Table 2 normalizes
/// these by the STL value.
#[must_use]
pub fn uniformity_chi2(
    hash: &dyn ByteHash,
    format: KeyFormat,
    distribution: Distribution,
    n_keys: usize,
    bins: usize,
    seed: u64,
) -> f64 {
    let mut sampler = KeySampler::new(format, distribution, seed);
    let hashes: Vec<u64> = (0..n_keys)
        .map(|_| hash.hash_bytes(sampler.next_key().as_bytes()))
        .collect();
    let histogram = hash_histogram_range(&hashes, bins);
    chi_square_gof(&histogram).statistic
}

/// Times one complete synthesis — example inference, plan construction and
/// C++ emission — for all-digit keys of `size` bytes (RQ6, Figure 16:
/// "keys are sequences of digits without constant subsequences").
#[must_use]
pub fn synthesis_time(family: Family, size: usize) -> Duration {
    let format = KeyFormat::Digits(size);
    let examples = format.good_examples();
    let refs: Vec<&[u8]> = examples.iter().map(String::as_bytes).collect();
    let start = Instant::now();
    let pattern = infer_pattern(refs.iter().copied()).expect("examples exist");
    let plan = synthesize(&pattern, family);
    let code = emit(&plan, family, Language::Cpp, "SynthesizedHash");
    std::hint::black_box(code);
    start.elapsed()
}

/// Times `iterations` hash computations over all-digit keys of `size`
/// bytes (RQ8, Figure 19).
#[must_use]
pub fn hashing_time(hash: &dyn ByteHash, size: usize, iterations: usize) -> Duration {
    let format = KeyFormat::Digits(size);
    let keys: Vec<String> = (0..64u128).map(|i| format.materialize(i * 997)).collect();
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..iterations {
        acc ^= hash.hash_bytes(keys[i % keys.len()].as_bytes());
    }
    std::hint::black_box(acc);
    start.elapsed()
}

/// One point of the RQ7 low-mixing sweep: bucket and true collisions when
/// buckets are indexed by the `64 - discard_low` most significant bits.
#[must_use]
pub fn low_mixing_point(
    hash: &dyn ByteHash,
    format: KeyFormat,
    discard_low: u32,
    n_keys: usize,
    seed: u64,
) -> (u64, u64) {
    let n = n_keys.min(usize::try_from(format.space()).unwrap_or(usize::MAX));
    let mut sampler = KeySampler::new(format, Distribution::Uniform, seed);
    let keys = sampler.distinct_pool(n);
    // True collisions under a low-mixing container are collisions of the
    // *retained* bits: hash >> discard_low (Figure 18).
    let mut truncated: Vec<u64> = keys
        .iter()
        .map(|k| hash.hash_bytes(k.as_bytes()) >> discard_low)
        .collect();
    truncated.sort_unstable();
    let t_coll = truncated.windows(2).filter(|w| w[0] == w[1]).count() as u64;
    let (b_coll, _) = collisions_of(hash, &keys, BucketPolicy::HighBits { discard_low });
    (b_coll, t_coll)
}

/// A [`SynthesizedHash`] for all-digit keys of `size` bytes, used by the
/// scaling experiments.
#[must_use]
pub fn digits_hash(family: Family, size: usize, isa: Isa) -> SynthesizedHash {
    SynthesizedHash::from_regex(&format!("[0-9]{{{size}}}"), family)
        .expect("digit regex compiles")
        .with_isa(isa)
}

type GuardedMap = UnorderedMap<String, u64, GuardedHash<SynthesizedHash, CityHash>>;

/// Runs `ops` mixed operations against `map`: 50% lookups, 30% value
/// overwrites, 20% remove-then-reinsert, all over the shared key pool.
fn churn(map: &mut GuardedMap, keys: &[String], rng: &mut SplitMix64, ops: usize) {
    for _ in 0..ops {
        let r = rng.next_u64();
        let key = &keys[(r >> 8) as usize % keys.len()];
        match r % 10 {
            0..=4 => {
                std::hint::black_box(map.get(key));
            }
            5..=7 => {
                map.insert(key.clone(), r);
            }
            _ => {
                map.remove(key);
                map.insert(key.clone(), r);
            }
        }
    }
}

/// Distinct keys per format in the [`metrics_snapshot`] workload.
const METRICS_POOL: usize = 1024;

/// Deterministic observability counts from a seeded, single-threaded
/// workload: per format, a guarded map is filled from the key pool,
/// churned at steady state, degraded (opening one epoch migration),
/// drained with seeded random strides, and churned again — with the
/// table and guard metrics exported into one [`sepe_obs::Registry`]
/// under a `format` label. Because the workload is single-threaded and
/// every input is seeded, the resulting [`sepe_obs::Snapshot`] is
/// byte-identical across runs at the same scale.
#[must_use]
pub fn metrics_snapshot(scale: &RunScale) -> sepe_obs::Snapshot {
    let registry = sepe_obs::Registry::new();
    let ops = (scale.affectations * 16).clamp(1024, 4096);
    for &format in &scale.formats {
        let cap = usize::try_from(format.space()).unwrap_or(usize::MAX).max(1);
        let mut sampler = KeySampler::new(format, Distribution::Normal, 0x0B5E);
        let keys = sampler.distinct_pool(METRICS_POOL.min(cap));
        let pattern = Regex::compile(&format.regex()).expect("paper formats compile");
        let hasher = GuardedHash::from_pattern(&pattern, Family::OffXor, CityHash::new());
        let mut map: GuardedMap = UnorderedMap::with_hasher(hasher);
        map.export_metrics(&registry, &[("format", format.name())])
            .expect("format labels are distinct");
        for (i, key) in keys.iter().enumerate() {
            map.insert(key.clone(), i as u64);
        }
        let mut rng = SplitMix64::new(0x0B5E_C0DE);
        churn(&mut map, &keys, &mut rng, ops);
        map.degrade_now();
        while map.migration_in_flight() {
            map.migrate(1 + (rng.next_u64() % 32) as usize);
        }
        churn(&mut map, &keys, &mut rng, ops);
    }
    registry.snapshot()
}

/// Runs one full experiment per (container, mode) pair — the data behind
/// Figure 20 (RQ9).
#[must_use]
pub fn per_container_times(
    id: HashId,
    format: KeyFormat,
    scale: &RunScale,
) -> Vec<(crate::config::ContainerKind, Vec<f64>)> {
    let hash = id.build(format, scale.isa);
    crate::config::ContainerKind::ALL
        .iter()
        .map(|&container| {
            let mut times = Vec::new();
            for distribution in Distribution::ALL {
                for mode in Mode::ALL {
                    for spread in SPREADS {
                        let cfg = ExperimentConfig {
                            container,
                            distribution,
                            spread,
                            mode,
                            format,
                            affectations: scale.affectations,
                            policy: BucketPolicy::Modulo,
                            seed: 11,
                        };
                        let m: Measurement = run_fast(&cfg, hash.as_ref());
                        times.push(m.b_time.as_secs_f64() * 1e3);
                    }
                }
            }
            (container, times)
        })
        .collect()
}

/// Like [`run_experiment`] but skips the collision counting (which the
/// timing figures do not need).
fn run_fast(cfg: &ExperimentConfig, hash: &dyn ByteHash) -> Measurement {
    let mut sampler = KeySampler::new(cfg.format, cfg.distribution, cfg.seed);
    let pool = sampler.pool(cfg.spread);
    let b_time = time_affectations(cfg, hash, &pool);
    Measurement {
        b_time,
        h_time: Duration::ZERO,
        bucket_collisions: 0,
        true_collisions: 0,
    }
}

/// Convenience wrapper running the complete [`run_experiment`] for tests.
///
/// Gperf is trained on the prefix of the very key pool the experiment's
/// collision counts measure (see [`crate::measure::collision_pool`]).
#[must_use]
pub fn run_one(cfg: &ExperimentConfig, id: HashId, isa: Isa) -> Measurement {
    let training = crate::measure::collision_pool(
        cfg.format,
        cfg.distribution,
        crate::registry::GPERF_TRAINING_KEYS,
        cfg.seed,
    );
    let hash = id.build_trained(cfg.format, isa, &training);
    run_experiment(cfg, hash.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_produces_full_vectors() {
        let mut scale = RunScale::smoke();
        scale.affectations = 300;
        scale.collision_keys = 500;
        let agg = run_grid(HashId::OffXor, &scale, Some(Distribution::Normal));
        // 2 formats x (4 containers x 1 dist x 3 spreads x 4 modes) x 1 sample.
        assert_eq!(agg.b_times_ms.len(), 2 * 48);
        assert!(agg.b_time_geomean() > 0.0);
        assert!(agg.h_time_geomean() > 0.0);
        assert!(agg.b_coll >= 1.0);
    }

    #[test]
    fn uniformity_ranks_stl_far_better_than_pext_on_incremental_keys() {
        let stl = HashId::Stl.build(KeyFormat::Ssn, Isa::Native);
        let pext = HashId::Pext.build(KeyFormat::Ssn, Isa::Native);
        let c_stl = uniformity_chi2(
            stl.as_ref(),
            KeyFormat::Ssn,
            Distribution::Normal,
            20_000,
            256,
            1,
        );
        let c_pext = uniformity_chi2(
            pext.as_ref(),
            KeyFormat::Ssn,
            Distribution::Normal,
            20_000,
            256,
            1,
        );
        assert!(
            c_pext > c_stl * 10.0,
            "pext chi2 {c_pext} should dwarf stl chi2 {c_stl}"
        );
    }

    #[test]
    fn synthesis_time_is_positive_and_grows() {
        let small = synthesis_time(Family::Pext, 16);
        let large = synthesis_time(Family::Pext, 1 << 12);
        assert!(small.as_nanos() > 0);
        assert!(large > small);
    }

    #[test]
    fn low_mixing_hurts_offxor_more_than_stl() {
        let stl = HashId::Stl.build(KeyFormat::Ssn, Isa::Native);
        let offxor = HashId::OffXor.build(KeyFormat::Ssn, Isa::Native);
        let (_, t_stl) = low_mixing_point(stl.as_ref(), KeyFormat::Ssn, 48, 4000, 5);
        let (_, t_off) = low_mixing_point(offxor.as_ref(), KeyFormat::Ssn, 48, 4000, 5);
        assert!(
            t_off > t_stl,
            "offxor truncated collisions {t_off} should exceed stl {t_stl}"
        );
    }

    #[test]
    fn metrics_snapshot_is_deterministic_and_balanced() {
        let mut scale = RunScale::smoke();
        scale.affectations = 32;
        scale.formats = vec![KeyFormat::Ssn];
        let a = metrics_snapshot(&scale);
        let b = metrics_snapshot(&scale);
        assert_eq!(
            a.render(),
            b.render(),
            "same scale, same seeds, same snapshot bytes"
        );
        // One degrade per format: the epoch opened, drained completely,
        // and every resident entry moved.
        let opened = a.counter_family_total("table_epochs_opened");
        let finished = a.counter_family_total("table_epochs_finished");
        assert_eq!(opened, scale.formats.len() as u64, "{a:?}");
        assert_eq!(opened, finished, "quiescent snapshot balances epochs");
        assert!(a.counter_family_total("table_drain_ops") > 0);
        assert!(a.counter_family_total("guard_in_format") > 0);
    }

    #[test]
    fn per_container_times_cover_all_kinds() {
        let mut scale = RunScale::smoke();
        scale.affectations = 200;
        let rows = per_container_times(HashId::Naive, KeyFormat::Ssn, &scale);
        assert_eq!(rows.len(), 4);
        for (_, times) in rows {
            assert_eq!(times.len(), 3 * 4 * 3);
            assert!(times.iter().all(|&t| t > 0.0));
        }
    }
}
