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
//!   `hash_batch` calls of 8. Bare and guarded samples are timed
//!   alternately, and each line prints both sides' median ns/key and the
//!   median of the per-sample guarded ÷ bare ratios with their quartiles,
//!   marking ratios over the 1.3x target. A machine slowdown then lands on
//!   both sides of a ratio instead of one.
//!
//! Run with `cargo bench -p sepe-bench --bench guard`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sepe_baselines::CityHash;
use sepe_bench::key_pool;
use sepe_core::guard::GuardedHash;
use sepe_core::hash::{HashBatch, SynthesizedHash};
use sepe_core::regex::Regex;
use sepe_core::synth::Family;
use sepe_core::ByteHash;
use sepe_driver::measure::chained_hashes;
use sepe_keygen::KeyFormat;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Independent keys per throughput iteration.
const POOL: usize = 4096;
/// Keys per `hash_batch` call, as `hash-stream` issues them.
const BATCH: usize = 8;
/// The guarded ÷ bare throughput ratio the guard aims to stay under.
const TARGET: f64 = 1.3;

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
                b.iter(|| chained_hashes::<dyn ByteHash>(&plain, &keys, 256));
            });
            let guarded = GuardedHash::from_pattern(&pattern, family, CityHash::new());
            group.bench_function(
                BenchmarkId::from_parameter(format!("{family}+guard")),
                |b| {
                    b.iter(|| chained_hashes::<dyn ByteHash>(&guarded, &keys, 256));
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

/// Samples per side of one ratio.
const SAMPLES: usize = 15;
/// Time one side of one sample runs for.
const SAMPLE_TIME: Duration = Duration::from_millis(40);

/// Each side's median and the per-sample guarded ÷ bare ratios, ns per key.
struct Paired {
    bare_ns: f64,
    guarded_ns: f64,
    /// The ratios' lower quartile, median and upper quartile.
    ratio: [f64; 3],
}

fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    [xs[n / 4], xs[n / 2], xs[(3 * n) / 4]]
}

/// Times `bare` and `guarded` in alternating samples (the side that goes
/// first alternates too), in ns per key.
fn paired(mut bare: impl FnMut() -> u64, mut guarded: impl FnMut() -> u64) -> Paired {
    let time = |f: &mut dyn FnMut() -> u64, iters: u32| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed().as_secs_f64() * 1e9 / (f64::from(iters) * POOL as f64)
    };
    // The first runs warm both sides up and size a sample.
    let per_iter = time(&mut bare, 1).max(time(&mut guarded, 1)) * POOL as f64;
    let iters = (SAMPLE_TIME.as_secs_f64() * 1e9 / per_iter.max(1.0)).clamp(1.0, 1e6) as u32;
    let (mut b, mut g, mut r) = (Vec::new(), Vec::new(), Vec::new());
    for sample in 0..SAMPLES {
        let (bare_ns, guarded_ns) = if sample % 2 == 0 {
            let x = time(&mut bare, iters);
            (x, time(&mut guarded, iters))
        } else {
            let y = time(&mut guarded, iters);
            (time(&mut bare, iters), y)
        };
        b.push(bare_ns);
        g.push(guarded_ns);
        r.push(guarded_ns / bare_ns.max(f64::MIN_POSITIVE));
    }
    Paired {
        bare_ns: quartiles(b)[1],
        guarded_ns: quartiles(g)[1],
        ratio: quartiles(r),
    }
}

impl std::fmt::Display for Paired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [lo, mid, hi] = self.ratio;
        let mark = if mid > TARGET { "  over target" } else { "" };
        write!(
            f,
            "{:.1} -> {:.1} ({mid:.2}x [{lo:.2}, {hi:.2}]{mark})",
            self.bare_ns, self.guarded_ns
        )
    }
}

fn bench_throughput(_: &mut Criterion) {
    for format in KeyFormat::EVALUATED {
        let pattern = Regex::compile(&format.regex()).expect("paper formats compile");
        let pool = key_pool(format, POOL);
        let keys: Vec<&[u8]> = pool.iter().map(|s| s.as_bytes()).collect();
        for family in [Family::OffXor, Family::Pext] {
            let bare = SynthesizedHash::from_pattern(&pattern, family);
            let guarded = GuardedHash::new(&pattern, bare.clone(), CityHash::new());
            let scalar_pair = paired(|| scalar(&bare, &keys), || scalar(&guarded, &keys));
            let batch_pair = paired(|| batched(&bare, &keys), || batched(&guarded, &keys));
            println!(
                "guard-throughput/{}/{family} ns/key: scalar {scalar_pair}, batch8 {batch_pair}; \
                 fused kernel: {}",
                format.name(),
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
