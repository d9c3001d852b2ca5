//! Machine-readable benchmark pipeline: batched vs scalar hashing
//! throughput, emitted as `BENCH_<date>.json` so the perf trajectory of the
//! repository is diffable across commits.
//!
//! The scalar measurement is latency-chained (the next key index depends on
//! the previous hash), the way the H-Time measurements chain affectations:
//! it reports the true serial latency of one hash. The batched measurement
//! runs `width` independent chains that advance together through
//! [`HashBatch::hash_batch`], so it reports the throughput the interleaved
//! kernels reach when the out-of-order window has independent work. The
//! ratio of the two is the headline number of this subsystem.

use crate::analysis::RunScale;
use sepe_baselines::CityHash;
use sepe_containers::{AttackPolicy, ShardedMap, UnorderedMap};
use sepe_core::guard::{GuardMode, GuardedHash};
use sepe_core::hash::{ByteHash, FixedSeedSource, HashBatch};
use sepe_core::regex::Regex;
use sepe_core::synth::Family;
use sepe_core::SynthesizedHash;
use sepe_keygen::{Distribution, KeySampler, SplitMix64};
use sepe_obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One (family, format, width) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Hash family name (`naive`, `offxor`, `aes`, `pext`).
    pub family: String,
    /// Key format name (`ssn`, `ipv4`, …).
    pub format: String,
    /// Batch width; 1 is the scalar latency-chained reference.
    pub width: usize,
    /// Nanoseconds per hashed key, median over the sample runs.
    pub ns_per_key: f64,
    /// Million keys per second (1000 / ns_per_key).
    pub throughput_mkeys: f64,
}

/// Iteration budget and sampling plan, derived from a [`RunScale`].
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Batch widths to measure (1 = scalar reference).
    pub widths: Vec<usize>,
    /// Thread counts for the concurrency scenario (1 = serial reference).
    pub threads: Vec<usize>,
    /// Shards of the [`ShardedMap`] in the concurrency scenario.
    pub shards: usize,
    /// Distinct keys in the measurement pool (power of two, so chaining can
    /// mask instead of mod).
    pub pool_size: usize,
    /// Keys hashed per sample run.
    pub iterations: usize,
    /// Timed sample runs per cell; the median is reported.
    pub samples: usize,
}

impl BenchConfig {
    /// Maps a reproduction scale onto an iteration budget: `smoke` stays
    /// under a second for the whole suite, `default` gives stable medians.
    #[must_use]
    pub fn from_scale(scale: &RunScale) -> Self {
        BenchConfig {
            widths: vec![1, 4, 8, 32],
            threads: vec![1, 2, 4, 8],
            shards: 8,
            pool_size: 1024,
            iterations: (scale.affectations * 16).max(1024),
            samples: (scale.samples * 2).clamp(3, 9) | 1,
        }
    }
}

/// Serial latency: nanoseconds per key when each lookup depends on the
/// previous hash (one dependency chain).
#[must_use]
pub fn scalar_ns_per_key<H: ByteHash>(hash: &H, pool: &[&[u8]], iterations: usize) -> f64 {
    debug_assert!(pool.len().is_power_of_two());
    let mask = (pool.len() - 1) as u64;
    let mut idx = 0usize;
    let mut acc = 0u64;
    let start = Instant::now();
    for _ in 0..iterations {
        let h = hash.hash_bytes(pool[idx]);
        acc ^= h;
        idx = (h & mask) as usize;
    }
    let elapsed = start.elapsed();
    std::hint::black_box(acc);
    elapsed.as_secs_f64() * 1e9 / iterations as f64
}

/// Batched throughput: `width` independent chains advance together through
/// one [`HashBatch::hash_batch`] call per step.
#[must_use]
pub fn batched_ns_per_key<H: HashBatch>(
    hash: &H,
    pool: &[&[u8]],
    width: usize,
    iterations: usize,
) -> f64 {
    debug_assert!(pool.len().is_power_of_two());
    let mask = (pool.len() - 1) as u64;
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

/// Runs `measure` with one warmup pass plus `samples` timed passes and
/// returns the median.
fn median_of_k(samples: usize, mut measure: impl FnMut() -> f64) -> f64 {
    let _warmup = measure();
    let mut runs: Vec<f64> = (0..samples.max(1)).map(|_| measure()).collect();
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

/// Measures every (family, format, width) cell of `config` over
/// `scale.formats`.
#[must_use]
pub fn run_suite(scale: &RunScale, config: &BenchConfig) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for &format in &scale.formats {
        let cap = usize::try_from(format.space()).unwrap_or(usize::MAX).max(1);
        let mut pool_size = config.pool_size.next_power_of_two().max(1);
        while pool_size > cap {
            pool_size /= 2;
        }
        let mut sampler = KeySampler::new(format, Distribution::Normal, 0xBE7C);
        let keys = sampler.distinct_pool(pool_size);
        let pool: Vec<&[u8]> = keys.iter().map(String::as_bytes).collect();
        for family in Family::ALL {
            let hash = SynthesizedHash::from_regex(&format.regex(), family)
                .map(|h| h.with_isa(scale.isa))
                .unwrap_or_else(|_| {
                    SynthesizedHash::from_examples(
                        format.good_examples().iter().map(String::as_bytes),
                        family,
                    )
                    .expect("formats have examples")
                });
            for &width in &config.widths {
                let ns = median_of_k(config.samples, || {
                    if width <= 1 {
                        scalar_ns_per_key(&hash, &pool, config.iterations)
                    } else {
                        batched_ns_per_key(&hash, &pool, width, config.iterations)
                    }
                });
                records.push(BenchRecord {
                    family: family.to_string().to_ascii_lowercase(),
                    format: format.name().to_string(),
                    width,
                    ns_per_key: ns,
                    throughput_mkeys: if ns > 0.0 { 1e3 / ns } else { 0.0 },
                });
            }
        }
    }
    records
}

/// One (format, phase) measurement of the migration scenario: the same
/// mixed get/insert/remove workload timed at steady state, while an epoch
/// migration is draining entries to the fallback hasher, and after the
/// drain completes. `migrating` vs `steady` is the amortization tax the
/// incremental scheme pays instead of a stop-the-world rebuild.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRecord {
    /// Key format name (`ssn`, `ipv4`, …).
    pub format: String,
    /// `steady`, `migrating` (epoch drain in flight) or `drained`.
    pub phase: String,
    /// Nanoseconds per map operation, median over the sample runs.
    pub ns_per_op: f64,
    /// Million operations per second (1000 / ns_per_op).
    pub throughput_mops: f64,
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

fn churn_ns_per_op(map: &mut GuardedMap, keys: &[String], rng: &mut SplitMix64, ops: usize) -> f64 {
    let start = Instant::now();
    churn(map, keys, rng, ops);
    start.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// Measures the three phases of the migration scenario for every format in
/// `scale.formats`. A migration is observable exactly once per degrade, so
/// every sample rebuilds the map and re-triggers the epoch flip; the
/// `migrating` phase times operations only while the drain is in flight.
#[must_use]
pub fn migration_records(scale: &RunScale, config: &BenchConfig) -> Vec<MigrationRecord> {
    let mut records = Vec::new();
    for &format in &scale.formats {
        let cap = usize::try_from(format.space()).unwrap_or(usize::MAX).max(1);
        let pool_size = config.pool_size.min(cap).max(1);
        let mut sampler = KeySampler::new(format, Distribution::Normal, 0x517A);
        let keys = sampler.distinct_pool(pool_size);
        let pattern = Regex::compile(&format.regex()).expect("paper formats compile");
        let mut phases: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for sample in 0..config.samples.max(1) {
            let hasher = GuardedHash::from_pattern(&pattern, Family::OffXor, CityHash::new());
            let mut map: GuardedMap = UnorderedMap::with_hasher(hasher);
            let mut rng = SplitMix64::new(0x9E1C ^ sample as u64);
            for (i, key) in keys.iter().enumerate() {
                map.insert(key.clone(), i as u64);
            }
            churn(&mut map, &keys, &mut rng, config.iterations.min(4096));
            phases[0].push(churn_ns_per_op(
                &mut map,
                &keys,
                &mut rng,
                config.iterations,
            ));
            map.degrade_now();
            let start = Instant::now();
            let mut ops = 0usize;
            while map.migration_in_flight() && ops < config.iterations {
                churn(&mut map, &keys, &mut rng, 64);
                ops += 64;
            }
            phases[1].push(start.elapsed().as_secs_f64() * 1e9 / ops as f64);
            map.finish_migration();
            phases[2].push(churn_ns_per_op(
                &mut map,
                &keys,
                &mut rng,
                config.iterations,
            ));
        }
        for (phase, runs) in ["steady", "migrating", "drained"]
            .iter()
            .zip(phases.iter_mut())
        {
            runs.sort_by(f64::total_cmp);
            let ns = runs[runs.len() / 2];
            records.push(MigrationRecord {
                format: format.name().to_string(),
                phase: (*phase).to_string(),
                ns_per_op: ns,
                throughput_mops: if ns > 0.0 { 1e3 / ns } else { 0.0 },
            });
        }
    }
    records
}

/// One format's measurement of the resynthesis scenario: per-op latency
/// of a mutating workload across an inline resynthesis trigger. The op
/// that triggers it pays for widening, synthesis, the guard rebuild and
/// opening the migration epoch, so `max_ns` is the cost of resynthesis on
/// the serving thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ResynthRecord {
    /// Key format name (`ssn`, `ipv4`, …).
    pub format: String,
    /// Median mutating-op latency in nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile mutating-op latency in nanoseconds.
    pub p99_ns: f64,
    /// Worst single mutating-op latency in nanoseconds — normally the op
    /// that ran the resynthesis.
    pub max_ns: f64,
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One timed pass of the resynthesis scenario: mutating ops over a guarded
/// map with sampled drift, with an inline resynthesis triggered halfway
/// through. Returns the per-op latencies in nanoseconds.
fn resynth_latency_pass(
    keys: &[String],
    pattern: &sepe_core::pattern::KeyPattern,
    rng: &mut SplitMix64,
    ops: usize,
) -> Vec<f64> {
    let hasher = GuardedHash::from_pattern(pattern, Family::OffXor, CityHash::new());
    let mut map: GuardedMap = UnorderedMap::with_hasher(hasher);
    for (i, key) in keys.iter().enumerate() {
        map.insert(key.clone(), i as u64);
    }
    // Sampled drift: shadow keys one byte off-format, so the reservoir has
    // something for the resynthesis to widen over (setup, untimed).
    for key in keys.iter().take(32) {
        map.insert(format!("{key}~"), 0);
    }
    let trigger_at = ops / 2;
    let mut latencies = Vec::with_capacity(ops);
    for op in 0..ops {
        let r = rng.next_u64();
        let key = &keys[(r >> 8) as usize % keys.len()];
        let start = Instant::now();
        if r.is_multiple_of(2) {
            map.insert(key.clone(), r);
        } else {
            map.remove(key);
            map.insert(key.clone(), r);
        }
        if op == trigger_at {
            std::hint::black_box(map.resynthesize());
        }
        latencies.push(start.elapsed().as_secs_f64() * 1e9);
    }
    latencies
}

/// Measures the resynthesis scenario over `keys` (which `pattern` must
/// accept): `samples` passes of `ops` mutating ops each, latencies pooled
/// before the percentiles are taken. `sepe-repro bench-json` runs it per
/// paper format and `keybench --resynth` over the user's keys.
///
/// # Panics
///
/// Panics if `keys` is empty.
#[must_use]
pub fn resynth_record(
    format: &str,
    pattern: &sepe_core::pattern::KeyPattern,
    keys: &[String],
    ops: usize,
    samples: usize,
) -> ResynthRecord {
    let mut pooled = Vec::new();
    for sample in 0..samples.max(1) {
        let mut rng = SplitMix64::new(0xB0A7 ^ sample as u64);
        pooled.extend(resynth_latency_pass(keys, pattern, &mut rng, ops));
    }
    pooled.sort_by(f64::total_cmp);
    ResynthRecord {
        format: format.to_string(),
        p50_ns: percentile(&pooled, 0.50),
        p99_ns: percentile(&pooled, 0.99),
        max_ns: pooled.last().copied().unwrap_or(0.0),
    }
}

/// Measures the resynthesis scenario ([`resynth_record`]) for every
/// format in `scale.formats`.
#[must_use]
pub fn resynth_records(scale: &RunScale, config: &BenchConfig) -> Vec<ResynthRecord> {
    scale
        .formats
        .iter()
        .map(|&format| {
            let cap = usize::try_from(format.space()).unwrap_or(usize::MAX).max(1);
            let pool_size = config.pool_size.min(cap).max(1);
            let mut sampler = KeySampler::new(format, Distribution::Normal, 0x4E5F);
            let keys = sampler.distinct_pool(pool_size);
            let pattern = Regex::compile(&format.regex()).expect("paper formats compile");
            let ops = config.iterations.clamp(256, 4096);
            resynth_record(format.name(), &pattern, &keys, ops, config.samples)
        })
        .collect()
}

/// One (format, family) measurement of synthesis: wall time per
/// [`synthesize`](sepe_core::synth::synthesize) call.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisRecord {
    /// Key format name (`ssn`, `ipv4`, …).
    pub format: String,
    /// Family name, lowercase (`naive`, `offxor`, `aes`, `pext`).
    pub family: String,
    /// Wall time per synthesis, in nanoseconds.
    pub ns_per_synth: f64,
}

/// Times synthesis for every format in `scale.formats` and all four
/// families.
#[must_use]
pub fn synthesis_records(scale: &RunScale, config: &BenchConfig) -> Vec<SynthesisRecord> {
    let reps = (config.samples.max(1) * 8).clamp(8, 128);
    let mut records = Vec::new();
    for &format in &scale.formats {
        let pattern = Regex::compile(&format.regex()).expect("paper formats compile");
        for family in Family::ALL {
            let start = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(sepe_core::synth::synthesize(&pattern, family));
            }
            records.push(SynthesisRecord {
                format: format.name().to_string(),
                family: family.to_string().to_ascii_lowercase(),
                ns_per_synth: start.elapsed().as_secs_f64() * 1e9 / reps as f64,
            });
        }
    }
    records
}

/// One (format, threads) measurement of the concurrency scenario: the
/// migration-style churn workload fanned across `threads` workers over a
/// shared [`ShardedMap`]. `speedup` is relative to the single-thread cell
/// of the same format; on a single-core runner it hovers near (or below)
/// 1.0 — the scenario is about lock-striping overhead and correctness
/// under contention, and the JSON records whatever the machine actually
/// delivers.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrencyRecord {
    /// Key format name (`ssn`, `ipv4`, …).
    pub format: String,
    /// Worker threads churning the shared map.
    pub threads: usize,
    /// Shard (lock stripe) count of the map.
    pub shards: usize,
    /// Nanoseconds per map operation across all threads, median over the
    /// sample runs.
    pub ns_per_op: f64,
    /// Million operations per second aggregate (1000 / ns_per_op).
    pub throughput_mops: f64,
    /// Aggregate throughput relative to the 1-thread cell.
    pub speedup: f64,
}

type GuardedSharded = ShardedMap<String, u64, SynthesizedHash, CityHash>;

/// The [`churn`] workload against a shared sharded map: same op mix, same
/// key-pool addressing, but through `&self` (lock-striped) entry points.
fn sharded_churn(map: &GuardedSharded, keys: &[String], seed: u64, ops: usize) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..ops {
        let r = rng.next_u64();
        let key = &keys[(r >> 8) as usize % keys.len()];
        match r % 10 {
            0..=4 => {
                std::hint::black_box(map.get(key.as_str()));
            }
            5..=7 => {
                map.insert(key.clone(), r);
            }
            _ => {
                map.remove(key.as_str());
                map.insert(key.clone(), r);
            }
        }
    }
}

/// Measures the concurrency scenario for every format in `scale.formats`
/// and every thread count in `config.threads`.
#[must_use]
pub fn concurrency_records(scale: &RunScale, config: &BenchConfig) -> Vec<ConcurrencyRecord> {
    let mut records = Vec::new();
    for &format in &scale.formats {
        let cap = usize::try_from(format.space()).unwrap_or(usize::MAX).max(1);
        let pool_size = config.pool_size.min(cap).max(1);
        let mut sampler = KeySampler::new(format, Distribution::Normal, 0xC0CC);
        let keys = sampler.distinct_pool(pool_size);
        let pattern = Regex::compile(&format.regex()).expect("paper formats compile");
        let mut baseline_ns = None;
        for &threads in &config.threads {
            let threads = threads.max(1);
            let per_thread_ops = (config.iterations / threads).max(256);
            let mut runs: Vec<f64> = Vec::with_capacity(config.samples.max(1));
            for sample in 0..config.samples.max(1) {
                let hasher = GuardedHash::from_pattern(&pattern, Family::OffXor, CityHash::new());
                let map: GuardedSharded = ShardedMap::with_hasher(hasher, config.shards);
                for (i, key) in keys.iter().enumerate() {
                    map.insert(key.clone(), i as u64);
                }
                let start = Instant::now();
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let map = &map;
                        let keys = keys.as_slice();
                        let seed = 0xCAB1 ^ (sample as u64) << 8 ^ t as u64;
                        s.spawn(move || sharded_churn(map, keys, seed, per_thread_ops));
                    }
                });
                let elapsed = start.elapsed();
                runs.push(elapsed.as_secs_f64() * 1e9 / (per_thread_ops * threads) as f64);
            }
            runs.sort_by(f64::total_cmp);
            let ns = runs[runs.len() / 2];
            let baseline = *baseline_ns.get_or_insert(ns);
            records.push(ConcurrencyRecord {
                format: format.name().to_string(),
                threads,
                shards: config.shards,
                ns_per_op: ns,
                throughput_mops: if ns > 0.0 { 1e3 / ns } else { 0.0 },
                speedup: if ns > 0.0 { baseline / ns } else { 0.0 },
            });
        }
    }
    records
}

/// One (format, phase) measurement of the HashDoS scenario: churn ns/op
/// and worst bucket-chain length at three points of the attack timeline —
/// `benign` (steady state before the flood), `attack` (a brute-forced
/// collision flood resident, the specialized route still serving), and
/// `escalated` (the collision-storm detector climbed the ladder to the
/// keyed hasher and the incremental re-key drained). The `attack` and
/// `escalated` phases churn over the benign pool *plus* the forged keys,
/// so their ns/op compare directly: the gap is what the defense buys
/// back. The keyed-fallback overhead is the `escalated` vs `benign` gap.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarialRecord {
    /// Key format name (`ssn`, `ipv4`, …).
    pub format: String,
    /// `benign`, `attack`, or `escalated`.
    pub phase: String,
    /// Nanoseconds per map operation, median over the sample runs.
    pub ns_per_op: f64,
    /// Longest bucket chain at the end of the phase, median over samples.
    pub max_chain: usize,
    /// Wall-clock microseconds from the first detector tick under attack
    /// to the drained keyed table — median over samples, and zero on the
    /// `benign` and `attack` rows (nothing escalates there).
    pub escalation_us: f64,
}

/// Measures the HashDoS scenario for every format in `scale.formats`:
/// fill, churn at steady state, land a collision flood brute-forced
/// against the map's own hash with [`sepe_verify::attacker::bucket_flood`]
/// (the strongest attacker model for the unkeyed rungs), churn under
/// attack, then let the collision-storm detector escalate to the keyed
/// hasher and churn once more.
#[must_use]
pub fn adversarial_records(scale: &RunScale, config: &BenchConfig) -> Vec<AdversarialRecord> {
    const FLOOD_KEYS: usize = 64;
    let policy = AttackPolicy {
        min_len: 32,
        trip_streak: 2,
        quiet_streak: 2,
        ..AttackPolicy::default()
    };
    let mut records = Vec::new();
    for &format in &scale.formats {
        let cap = usize::try_from(format.space()).unwrap_or(usize::MAX).max(1);
        let pool_size = config.pool_size.min(cap).max(1);
        let mut sampler = KeySampler::new(format, Distribution::Normal, 0xADE5);
        let keys = sampler.distinct_pool(pool_size);
        let pattern = Regex::compile(&format.regex()).expect("paper formats compile");
        let mut phases: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut chains: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut esc_us: Vec<f64> = Vec::new();
        for sample in 0..config.samples.max(1) {
            let hasher = GuardedHash::from_pattern(&pattern, Family::OffXor, CityHash::new());
            let mut map: GuardedMap = UnorderedMap::with_hasher(hasher);
            let mut rng = SplitMix64::new(0xADE5 ^ sample as u64);
            for (i, key) in keys.iter().enumerate() {
                map.insert(key.clone(), i as u64);
            }
            // Pin the bucket count before forging: the flood collides
            // modulo the *current* table size, so the attack inserts must
            // never trigger a resize.
            map.reserve(FLOOD_KEYS + 16);
            churn(&mut map, &keys, &mut rng, config.iterations.min(4096));
            phases[0].push(churn_ns_per_op(
                &mut map,
                &keys,
                &mut rng,
                config.iterations,
            ));
            chains[0].push(map.max_bucket_len());

            let flood: Vec<String> = sepe_verify::attacker::bucket_flood(
                |k| map.hash_of(k),
                map.bucket_count() as u64,
                FLOOD_KEYS,
                0xADE5 ^ sample as u64,
            )
            .into_iter()
            .map(|k| String::from_utf8(k).expect("forged keys are ascii"))
            .collect();
            for (i, key) in flood.iter().enumerate() {
                map.insert(key.clone(), i as u64);
            }
            let mut attacked = keys.clone();
            attacked.extend(flood.iter().cloned());
            phases[1].push(churn_ns_per_op(
                &mut map,
                &attacked,
                &mut rng,
                config.iterations,
            ));
            chains[1].push(map.max_bucket_len());

            let seeds = FixedSeedSource::new(0x5EED_0001 ^ sample as u64);
            let start = Instant::now();
            let mut ticks = 0usize;
            while map.guard_mode() != GuardMode::Keyed && ticks < 16 {
                ticks += 1;
                if map.maybe_escalate(&policy, &seeds) {
                    while map.migration_in_flight() {
                        map.migrate(1024);
                    }
                }
            }
            esc_us.push(start.elapsed().as_secs_f64() * 1e6);
            assert_eq!(
                map.guard_mode(),
                GuardMode::Keyed,
                "the flood must force the keyed rung"
            );
            phases[2].push(churn_ns_per_op(
                &mut map,
                &attacked,
                &mut rng,
                config.iterations,
            ));
            chains[2].push(map.max_bucket_len());
        }
        esc_us.sort_by(f64::total_cmp);
        let esc_median = esc_us[esc_us.len() / 2];
        for (i, phase) in ["benign", "attack", "escalated"].iter().enumerate() {
            phases[i].sort_by(f64::total_cmp);
            chains[i].sort_unstable();
            records.push(AdversarialRecord {
                format: format.name().to_string(),
                phase: (*phase).to_string(),
                ns_per_op: phases[i][phases[i].len() / 2],
                max_chain: chains[i][chains[i].len() / 2],
                escalation_us: if *phase == "escalated" {
                    esc_median
                } else {
                    0.0
                },
            });
        }
    }
    records
}

/// Deterministic observability counts from a seeded, single-threaded
/// workload: per format, a guarded map is filled from the key pool,
/// churned at steady state, degraded (opening one epoch migration),
/// drained with seeded random strides, and churned again — with the
/// table and guard metrics exported into one [`sepe_obs::Registry`]
/// under a `format` label. Because the workload is single-threaded and
/// every input is seeded, the resulting [`sepe_obs::Snapshot`] is
/// byte-identical across runs at the same scale.
#[must_use]
pub fn metrics_snapshot(scale: &RunScale, config: &BenchConfig) -> sepe_obs::Snapshot {
    let registry = sepe_obs::Registry::new();
    for &format in &scale.formats {
        let cap = usize::try_from(format.space()).unwrap_or(usize::MAX).max(1);
        let pool_size = config.pool_size.min(cap).max(1);
        let mut sampler = KeySampler::new(format, Distribution::Normal, 0x0B5E);
        let keys = sampler.distinct_pool(pool_size);
        let pattern = Regex::compile(&format.regex()).expect("paper formats compile");
        let hasher = GuardedHash::from_pattern(&pattern, Family::OffXor, CityHash::new());
        let mut map: GuardedMap = UnorderedMap::with_hasher(hasher);
        map.export_metrics(&registry, &[("format", format.name())])
            .expect("format labels are distinct");
        for (i, key) in keys.iter().enumerate() {
            map.insert(key.clone(), i as u64);
        }
        let ops = config.iterations.clamp(256, 4096);
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

/// Renders records as the `sepe-bench/v1` JSON document.
///
/// Every section is emitted in a **canonical sort order** — `records` by
/// (family, format, width), `migration` by (format, phase), `concurrency`
/// by (format, threads), `resynthesis` by format, `adversarial`
/// by (format, phase), `synthesis` by (format, family), `metrics` in the
/// canonical `sepe-metrics/v1` spelling — and object keys
/// are alphabetical (`BTreeMap`),
/// so two runs over the same measurements produce byte-identical documents
/// regardless of measurement order, and dated bench files diff cleanly
/// across commits.
#[must_use]
// One positional slice per document section; a params struct would just
// restate the schema with extra ceremony.
#[allow(clippy::too_many_arguments)]
pub fn to_json(
    date: &str,
    records: &[BenchRecord],
    migration: &[MigrationRecord],
    concurrency: &[ConcurrencyRecord],
    resynthesis: &[ResynthRecord],
    adversarial: &[AdversarialRecord],
    synthesis: &[SynthesisRecord],
    metrics: &sepe_obs::Snapshot,
) -> Json {
    let mut records: Vec<&BenchRecord> = records.iter().collect();
    records.sort_by(|a, b| (&a.family, &a.format, a.width).cmp(&(&b.family, &b.format, b.width)));
    let mut migration: Vec<&MigrationRecord> = migration.iter().collect();
    migration.sort_by(|a, b| (&a.format, &a.phase).cmp(&(&b.format, &b.phase)));
    let mut concurrency: Vec<&ConcurrencyRecord> = concurrency.iter().collect();
    concurrency.sort_by(|a, b| (&a.format, a.threads).cmp(&(&b.format, b.threads)));
    let mut resynthesis: Vec<&ResynthRecord> = resynthesis.iter().collect();
    resynthesis.sort_by(|a, b| a.format.cmp(&b.format));
    let mut adversarial: Vec<&AdversarialRecord> = adversarial.iter().collect();
    adversarial.sort_by(|a, b| (&a.format, &a.phase).cmp(&(&b.format, &b.phase)));
    let mut synthesis: Vec<&SynthesisRecord> = synthesis.iter().collect();
    synthesis.sort_by(|a, b| (&a.format, &a.family).cmp(&(&b.format, &b.family)));
    let rows: Vec<Json> = records
        .iter()
        .map(|r| {
            let mut obj = BTreeMap::new();
            obj.insert("family".to_string(), Json::Str(r.family.clone()));
            obj.insert("format".to_string(), Json::Str(r.format.clone()));
            obj.insert("width".to_string(), Json::Num(r.width as f64));
            obj.insert("ns_per_key".to_string(), Json::Num(r.ns_per_key));
            obj.insert(
                "throughput_mkeys".to_string(),
                Json::Num(r.throughput_mkeys),
            );
            Json::Obj(obj)
        })
        .collect();
    let migration_rows: Vec<Json> = migration
        .iter()
        .map(|m| {
            let mut obj = BTreeMap::new();
            obj.insert("format".to_string(), Json::Str(m.format.clone()));
            obj.insert("phase".to_string(), Json::Str(m.phase.clone()));
            obj.insert("ns_per_op".to_string(), Json::Num(m.ns_per_op));
            obj.insert("throughput_mops".to_string(), Json::Num(m.throughput_mops));
            Json::Obj(obj)
        })
        .collect();
    let concurrency_rows: Vec<Json> = concurrency
        .iter()
        .map(|c| {
            let mut obj = BTreeMap::new();
            obj.insert("format".to_string(), Json::Str(c.format.clone()));
            obj.insert("threads".to_string(), Json::Num(c.threads as f64));
            obj.insert("shards".to_string(), Json::Num(c.shards as f64));
            obj.insert("ns_per_op".to_string(), Json::Num(c.ns_per_op));
            obj.insert("throughput_mops".to_string(), Json::Num(c.throughput_mops));
            obj.insert("speedup".to_string(), Json::Num(c.speedup));
            Json::Obj(obj)
        })
        .collect();
    let resynthesis_rows: Vec<Json> = resynthesis
        .iter()
        .map(|r| {
            let mut obj = BTreeMap::new();
            obj.insert("format".to_string(), Json::Str(r.format.clone()));
            obj.insert("p50_ns".to_string(), Json::Num(r.p50_ns));
            obj.insert("p99_ns".to_string(), Json::Num(r.p99_ns));
            obj.insert("max_ns".to_string(), Json::Num(r.max_ns));
            Json::Obj(obj)
        })
        .collect();
    let adversarial_rows: Vec<Json> = adversarial
        .iter()
        .map(|a| {
            let mut obj = BTreeMap::new();
            obj.insert("format".to_string(), Json::Str(a.format.clone()));
            obj.insert("phase".to_string(), Json::Str(a.phase.clone()));
            obj.insert("ns_per_op".to_string(), Json::Num(a.ns_per_op));
            obj.insert("max_chain".to_string(), Json::Num(a.max_chain as f64));
            obj.insert("escalation_us".to_string(), Json::Num(a.escalation_us));
            Json::Obj(obj)
        })
        .collect();
    let synthesis_rows: Vec<Json> = synthesis
        .iter()
        .map(|s| {
            let mut obj = BTreeMap::new();
            obj.insert("format".to_string(), Json::Str(s.format.clone()));
            obj.insert("family".to_string(), Json::Str(s.family.clone()));
            obj.insert("ns_per_synth".to_string(), Json::Num(s.ns_per_synth));
            Json::Obj(obj)
        })
        .collect();
    let mut doc = BTreeMap::new();
    doc.insert("schema".to_string(), Json::Str("sepe-bench/v1".to_string()));
    doc.insert("date".to_string(), Json::Str(date.to_string()));
    doc.insert("records".to_string(), Json::Arr(rows));
    doc.insert("migration".to_string(), Json::Arr(migration_rows));
    doc.insert("concurrency".to_string(), Json::Arr(concurrency_rows));
    doc.insert("resynthesis".to_string(), Json::Arr(resynthesis_rows));
    doc.insert("adversarial".to_string(), Json::Arr(adversarial_rows));
    doc.insert("synthesis".to_string(), Json::Arr(synthesis_rows));
    doc.insert("metrics".to_string(), metrics.to_json());
    Json::Obj(doc)
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock (no chrono
/// dependency; Howard Hinnant's `civil_from_days`).
#[must_use]
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_core::Isa;
    use sepe_keygen::KeyFormat;

    fn tiny_scale() -> RunScale {
        RunScale {
            affectations: 64,
            samples: 1,
            formats: vec![KeyFormat::Ssn],
            collision_keys: 64,
            uniformity_keys: 64,
            isa: Isa::Native,
        }
    }

    #[test]
    fn suite_covers_every_cell_with_positive_numbers() {
        let scale = tiny_scale();
        let config = BenchConfig::from_scale(&scale);
        let records = run_suite(&scale, &config);
        assert_eq!(records.len(), Family::ALL.len() * config.widths.len());
        for r in &records {
            assert!(r.ns_per_key > 0.0, "{r:?}");
            assert!(r.throughput_mkeys > 0.0, "{r:?}");
        }
    }

    #[test]
    fn json_document_round_trips() {
        let records = vec![BenchRecord {
            family: "pext".to_string(),
            format: "ssn".to_string(),
            width: 8,
            ns_per_key: 1.25,
            throughput_mkeys: 800.0,
        }];
        let migration = vec![MigrationRecord {
            format: "ssn".to_string(),
            phase: "migrating".to_string(),
            ns_per_op: 42.0,
            throughput_mops: 1e3 / 42.0,
        }];
        let concurrency = vec![ConcurrencyRecord {
            format: "ssn".to_string(),
            threads: 4,
            shards: 8,
            ns_per_op: 100.0,
            throughput_mops: 10.0,
            speedup: 2.5,
        }];
        let resynthesis = vec![ResynthRecord {
            format: "ssn".to_string(),
            p50_ns: 120.0,
            p99_ns: 480.0,
            max_ns: 950.0,
        }];
        let adversarial = vec![AdversarialRecord {
            format: "ssn".to_string(),
            phase: "escalated".to_string(),
            ns_per_op: 90.0,
            max_chain: 4,
            escalation_us: 35.0,
        }];
        let synthesis = vec![SynthesisRecord {
            format: "ssn".to_string(),
            family: "pext".to_string(),
            ns_per_synth: 5_000.0,
        }];
        let mut metrics = sepe_obs::Snapshot::default();
        metrics.counters.insert("table_drain_ops".to_string(), 64);
        let doc = to_json(
            "2026-01-01",
            &records,
            &migration,
            &concurrency,
            &resynthesis,
            &adversarial,
            &synthesis,
            &metrics,
        );
        let parsed = Json::parse(&doc.to_string()).expect("emitted JSON parses");
        assert_eq!(parsed.get("schema").as_str(), Some("sepe-bench/v1"));
        assert_eq!(parsed.get("date").as_str(), Some("2026-01-01"));
        let rows = parsed.get("records").as_arr().expect("records array");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("width").as_u64(), Some(8));
        assert_eq!(rows[0].get("family").as_str(), Some("pext"));
        let migr = parsed.get("migration").as_arr().expect("migration array");
        assert_eq!(migr.len(), 1);
        assert_eq!(migr[0].get("phase").as_str(), Some("migrating"));
        assert_eq!(migr[0].get("format").as_str(), Some("ssn"));
        let conc = parsed
            .get("concurrency")
            .as_arr()
            .expect("concurrency array");
        assert_eq!(conc.len(), 1);
        assert_eq!(conc[0].get("threads").as_u64(), Some(4));
        assert_eq!(conc[0].get("shards").as_u64(), Some(8));
        assert_eq!(conc[0].get("format").as_str(), Some("ssn"));
        let resy = parsed
            .get("resynthesis")
            .as_arr()
            .expect("resynthesis array");
        assert_eq!(resy.len(), 1);
        assert_eq!(resy[0].get("format").as_str(), Some("ssn"));
        assert_eq!(resy[0].get("p99_ns").as_u64(), Some(480));
        let adv = parsed
            .get("adversarial")
            .as_arr()
            .expect("adversarial array");
        assert_eq!(adv.len(), 1);
        assert_eq!(adv[0].get("phase").as_str(), Some("escalated"));
        assert_eq!(adv[0].get("format").as_str(), Some("ssn"));
        assert_eq!(adv[0].get("max_chain").as_u64(), Some(4));
        assert_eq!(adv[0].get("escalation_us").as_u64(), Some(35));
        let synth = parsed.get("synthesis").as_arr().expect("synthesis array");
        assert_eq!(synth.len(), 1);
        assert_eq!(synth[0].get("format").as_str(), Some("ssn"));
        assert_eq!(synth[0].get("family").as_str(), Some("pext"));
        assert_eq!(synth[0].get("ns_per_synth").as_u64(), Some(5_000));
        let met = parsed.get("metrics");
        assert_eq!(met.get("schema").as_str(), Some("sepe-metrics/v1"));
        assert_eq!(
            met.get("counters").get("table_drain_ops").as_str(),
            Some("64"),
            "counters ride as decimal strings for full u64 range"
        );
    }

    #[test]
    fn json_row_order_is_independent_of_measurement_order() {
        let mk = |family: &str, width: usize| BenchRecord {
            family: family.to_string(),
            format: "ssn".to_string(),
            width,
            ns_per_key: 1.0,
            throughput_mkeys: 1000.0,
        };
        let mkc = |threads: usize| ConcurrencyRecord {
            format: "ssn".to_string(),
            threads,
            shards: 8,
            ns_per_op: 1.0,
            throughput_mops: 1000.0,
            speedup: 1.0,
        };
        let mkr = |format: &str| ResynthRecord {
            format: format.to_string(),
            p50_ns: 10.0,
            p99_ns: 20.0,
            max_ns: 30.0,
        };
        let mka = |phase: &str| AdversarialRecord {
            format: "ssn".to_string(),
            phase: phase.to_string(),
            ns_per_op: 10.0,
            max_chain: 3,
            escalation_us: 0.0,
        };
        let mks = |format: &str, family: &str| SynthesisRecord {
            format: format.to_string(),
            family: family.to_string(),
            ns_per_synth: 100.0,
        };
        let metrics = sepe_obs::Snapshot::default();
        let forward = to_json(
            "2026-01-01",
            &[mk("aes", 1), mk("aes", 8), mk("pext", 1)],
            &[],
            &[mkc(1), mkc(2), mkc(8)],
            &[mkr("ipv4"), mkr("ssn")],
            &[mka("benign"), mka("attack"), mka("escalated")],
            &[mks("ipv4", "aes"), mks("ssn", "aes"), mks("ssn", "naive")],
            &metrics,
        );
        let shuffled = to_json(
            "2026-01-01",
            &[mk("pext", 1), mk("aes", 8), mk("aes", 1)],
            &[],
            &[mkc(8), mkc(1), mkc(2)],
            &[mkr("ssn"), mkr("ipv4")],
            &[mka("escalated"), mka("attack"), mka("benign")],
            &[mks("ssn", "naive"), mks("ssn", "aes"), mks("ipv4", "aes")],
            &metrics,
        );
        assert_eq!(
            forward.to_string(),
            shuffled.to_string(),
            "canonical order makes the document byte-identical"
        );
    }

    #[test]
    fn concurrency_scenario_covers_every_thread_count() {
        let scale = tiny_scale();
        let mut config = BenchConfig::from_scale(&scale);
        config.threads = vec![1, 2];
        config.iterations = 2048;
        config.samples = 1;
        let records = concurrency_records(&scale, &config);
        assert_eq!(records.len(), scale.formats.len() * config.threads.len());
        for r in &records {
            assert!(r.ns_per_op > 0.0 && r.ns_per_op.is_finite(), "{r:?}");
            assert!(r.throughput_mops > 0.0, "{r:?}");
            assert!(r.speedup > 0.0, "{r:?}");
            assert_eq!(r.shards, config.shards);
        }
        let single = records.iter().find(|r| r.threads == 1).expect("1-thread");
        assert!((single.speedup - 1.0).abs() < f64::EPSILON, "{single:?}");
    }

    #[test]
    fn migration_scenario_measures_all_three_phases_per_format() {
        let scale = tiny_scale();
        let config = BenchConfig::from_scale(&scale);
        let records = migration_records(&scale, &config);
        assert_eq!(records.len(), scale.formats.len() * 3);
        for phase in ["steady", "migrating", "drained"] {
            let row = records
                .iter()
                .find(|r| r.phase == phase)
                .unwrap_or_else(|| panic!("missing phase {phase}"));
            assert!(row.ns_per_op > 0.0 && row.ns_per_op.is_finite(), "{row:?}");
            assert!(row.throughput_mops > 0.0, "{row:?}");
        }
    }

    #[test]
    fn synthesis_scenario_covers_every_format_and_family() {
        let scale = tiny_scale();
        let mut config = BenchConfig::from_scale(&scale);
        config.samples = 1;
        let records = synthesis_records(&scale, &config);
        assert_eq!(records.len(), scale.formats.len() * Family::ALL.len());
        for r in &records {
            assert!(r.ns_per_synth > 0.0 && r.ns_per_synth.is_finite(), "{r:?}");
        }
    }

    #[test]
    fn resynth_scenario_measures_one_row_per_format() {
        let scale = tiny_scale();
        let mut config = BenchConfig::from_scale(&scale);
        config.iterations = 512;
        config.samples = 1;
        let records = resynth_records(&scale, &config);
        assert_eq!(records.len(), scale.formats.len());
        for (row, format) in records.iter().zip(&scale.formats) {
            assert_eq!(row.format, format.name());
            assert!(row.p50_ns > 0.0 && row.p50_ns.is_finite(), "{row:?}");
            assert!(row.p99_ns >= row.p50_ns, "{row:?}");
            assert!(row.max_ns >= row.p99_ns, "{row:?}");
        }
    }

    #[test]
    fn adversarial_scenario_measures_all_three_phases_per_format() {
        let scale = tiny_scale();
        let mut config = BenchConfig::from_scale(&scale);
        config.iterations = 1024;
        config.samples = 1;
        let records = adversarial_records(&scale, &config);
        assert_eq!(records.len(), scale.formats.len() * 3);
        for phase in ["benign", "attack", "escalated"] {
            let row = records
                .iter()
                .find(|r| r.phase == phase)
                .unwrap_or_else(|| panic!("missing phase {phase}"));
            assert!(row.ns_per_op > 0.0 && row.ns_per_op.is_finite(), "{row:?}");
        }
        let benign = records.iter().find(|r| r.phase == "benign").unwrap();
        let attack = records.iter().find(|r| r.phase == "attack").unwrap();
        let escalated = records.iter().find(|r| r.phase == "escalated").unwrap();
        assert!(
            attack.max_chain >= 64,
            "the flood must land in one bucket: {attack:?}"
        );
        assert!(
            escalated.max_chain <= (benign.max_chain.max(1) * 4).max(8),
            "the keyed rung must break the flood apart: {escalated:?}"
        );
        assert!(
            escalated.escalation_us > 0.0,
            "escalation latency rides on the escalated row: {escalated:?}"
        );
        assert_eq!(benign.escalation_us, 0.0, "{benign:?}");
        assert_eq!(attack.escalation_us, 0.0, "{attack:?}");
    }

    #[test]
    fn metrics_snapshot_is_deterministic_and_balanced() {
        let scale = tiny_scale();
        let mut config = BenchConfig::from_scale(&scale);
        config.iterations = 512;
        let a = metrics_snapshot(&scale, &config);
        let b = metrics_snapshot(&scale, &config);
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
    fn today_utc_is_well_formed() {
        let d = today_utc();
        assert_eq!(d.len(), 10);
        assert_eq!(&d[4..5], "-");
        assert_eq!(&d[7..8], "-");
        assert!(d[..4].parse::<u32>().expect("year") >= 2024);
    }

    #[test]
    fn measurement_helpers_accept_any_hasher() {
        let keys: Vec<String> = (0..64).map(|i| format!("{i:03}-00-0000")).collect();
        let pool: Vec<&[u8]> = keys.iter().map(String::as_bytes).collect();
        let hash = SynthesizedHash::from_regex(r"\d{3}-\d{2}-\d{4}", Family::OffXor).unwrap();
        assert!(scalar_ns_per_key(&hash, &pool, 512) > 0.0);
        assert!(batched_ns_per_key(&hash, &pool, 8, 512) > 0.0);
    }
}
