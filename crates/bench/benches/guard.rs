//! **Robustness overhead** — guarded vs. unguarded hashing speed.
//!
//! Two kinds of rows:
//!
//! * `guard/<FORMAT>`: all four synthesized families, latency-chained as
//!   a hash-table consumer would be (each key's index comes from the last
//!   hash), on three formats.
//! * `guard-throughput/<FORMAT>/<family>`: the eight evaluated formats,
//!   OffXor and Pext, over 4,096 independent keys per iteration, bare
//!   `SynthesizedHash` against `GuardedHash`, scalar `hash_bytes` and
//!   `hash_batch` calls of 8. After each pair the bench prints guarded ÷
//!   bare and marks ratios over the 1.3x target.
//!
//! Run with `cargo bench -p sepe-bench --bench guard`.

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use sepe_baselines::CityHash;
use sepe_bench::key_pool;
use sepe_core::guard::GuardedHash;
use sepe_core::hash::{HashBatch, SynthesizedHash};
use sepe_core::regex::Regex;
use sepe_core::synth::Family;
use sepe_core::ByteHash;
use sepe_keygen::KeyFormat;
use std::hint::black_box;
use std::time::Duration;

/// Independent keys per throughput iteration.
const POOL: usize = 4096;
/// Keys per `hash_batch` call, as `hash-stream` issues them.
const BATCH: usize = 8;
/// The guarded ÷ bare throughput ratio the guard aims to stay under.
const TARGET: f64 = 1.3;

fn chain(hash: &dyn ByteHash, keys: &[&[u8]]) -> u64 {
    // Dependent chain across 256 keys per iteration.
    let mut idx = 0usize;
    let mut acc = 0u64;
    for _ in 0..256 {
        let h = hash.hash_bytes(black_box(keys[idx]));
        acc ^= h;
        idx = (h as usize) & 1023;
    }
    acc
}

fn bench_guard(c: &mut Criterion) {
    for format in [KeyFormat::Ssn, KeyFormat::Ipv4, KeyFormat::Uuid] {
        let mut group = c.benchmark_group(format!("guard/{}", format.name()));
        group
            .sample_size(20)
            .measurement_time(Duration::from_millis(800))
            .warm_up_time(Duration::from_millis(300));
        let pattern = Regex::compile(&format.regex()).expect("paper formats compile");
        let pool = key_pool(format, 1024);
        let keys: Vec<&[u8]> = pool.iter().map(|s| s.as_bytes()).collect();
        for family in Family::ALL {
            let plain = SynthesizedHash::from_pattern(&pattern, family);
            group.bench_function(BenchmarkId::from_parameter(format!("{family}")), |b| {
                b.iter(|| chain(&plain, &keys));
            });
            let guarded = GuardedHash::from_pattern(&pattern, family, CityHash::new());
            group.bench_function(
                BenchmarkId::from_parameter(format!("{family}+guard")),
                |b| {
                    b.iter(|| chain(&guarded, &keys));
                },
            );
        }
        group.finish();
    }
}

/// Every key hashed on its own; no hash feeds the next key's choice.
fn scalar(hash: &impl ByteHash, keys: &[&[u8]]) -> u64 {
    keys.iter().fold(0u64, |acc, k| {
        acc.rotate_left(5) ^ hash.hash_bytes(black_box(k))
    })
}

/// The keys in `hash_batch` calls of [`BATCH`].
fn batched(hash: &impl HashBatch, keys: &[&[u8]]) -> u64 {
    let mut out = [0u64; BATCH];
    let mut acc = 0u64;
    for chunk in keys.chunks_exact(BATCH) {
        hash.hash_batch(black_box(chunk), &mut out);
        acc = out.iter().fold(acc, |a, &h| a.rotate_left(5) ^ h);
    }
    acc
}

/// Runs one row and returns its median in ns per key.
fn row(group: &mut BenchmarkGroup<'_>, id: &str, mut f: impl FnMut() -> u64) -> f64 {
    group.bench_function(BenchmarkId::from_parameter(id), |b| b.iter(&mut f));
    let median = group.last_median().unwrap_or(Duration::ZERO);
    median.as_secs_f64() * 1e9 / POOL as f64
}

fn bench_throughput(c: &mut Criterion) {
    for format in KeyFormat::EVALUATED {
        let pattern = Regex::compile(&format.regex()).expect("paper formats compile");
        let pool = key_pool(format, POOL);
        let keys: Vec<&[u8]> = pool.iter().map(|s| s.as_bytes()).collect();
        for family in [Family::OffXor, Family::Pext] {
            let mut group =
                c.benchmark_group(format!("guard-throughput/{}/{family}", format.name()));
            group
                .sample_size(9)
                .measurement_time(Duration::from_millis(450))
                .warm_up_time(Duration::from_millis(150))
                .throughput(Throughput::Elements(keys.len() as u64));
            let bare = SynthesizedHash::from_pattern(&pattern, family);
            let guarded = GuardedHash::new(&pattern, bare.clone(), CityHash::new());
            let bare_scalar = row(&mut group, "bare", || scalar(&bare, &keys));
            let guarded_scalar = row(&mut group, "guarded", || scalar(&guarded, &keys));
            let bare_batch = row(&mut group, "bare-batch8", || batched(&bare, &keys));
            let guarded_batch = row(&mut group, "guarded-batch8", || batched(&guarded, &keys));
            group.finish();
            let ratio = |guarded: f64, bare: f64| {
                let r = guarded / bare.max(f64::MIN_POSITIVE);
                let mark = if r > TARGET { "  over target" } else { "" };
                format!("{r:.2}x{mark}")
            };
            println!(
                "guard-throughput/{}/{family} ns/key: scalar {bare_scalar:.1} -> \
                 {guarded_scalar:.1} ({}), batch8 {bare_batch:.1} -> {guarded_batch:.1} ({}); \
                 fused kernel: {}",
                format.name(),
                ratio(guarded_scalar, bare_scalar),
                ratio(guarded_batch, bare_batch),
                if guarded.fused().is_some() {
                    "yes"
                } else {
                    "no"
                },
            );
        }
    }
}

criterion_group!(benches, bench_guard, bench_throughput);
criterion_main!(benches);
