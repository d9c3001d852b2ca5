//! Ablations over the design choices DESIGN.md calls out:
//!
//! * hardware vs software parallel bit extraction (the `pext` substitution
//!   story of RQ4);
//! * hardware vs software AES rounds;
//! * the gradual-specialization ladder Naive → OffXor → Pext on one format
//!   (RQ7's closing discussion);
//! * gperf training cost as the keyword-set size grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sepe_baselines::GperfHash;
use sepe_core::hash::SynthesizedHash;
use sepe_core::synth::Family;
use sepe_core::{ByteHash, Isa};
use sepe_driver::measure::chained_hashes;
use sepe_keygen::{Distribution, KeyFormat, KeySampler};

fn bench_isa_ablation(c: &mut Criterion) {
    let pool: Vec<String> =
        KeySampler::new(KeyFormat::Ints, Distribution::Uniform, 3).distinct_pool(256);
    let keys: Vec<&[u8]> = pool.iter().map(|s| s.as_bytes()).collect();

    let mut group = c.benchmark_group("ablation/isa");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(300));
    for family in [Family::Pext, Family::Aes] {
        for (label, isa) in [("hw", Isa::Native), ("sw", Isa::Portable)] {
            let hash = SynthesizedHash::from_regex(&KeyFormat::Ints.regex(), family)
                .expect("ints regex compiles")
                .with_isa(isa);
            group.bench_function(
                BenchmarkId::from_parameter(format!("{family}/{label}")),
                |b| b.iter(|| chained_hashes::<dyn ByteHash>(&hash, &keys, 256)),
            );
        }
    }
    group.finish();
}

fn bench_gradual_ladder(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/gradual");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(300));
    for format in [KeyFormat::Ssn, KeyFormat::Url2] {
        let pool: Vec<String> =
            KeySampler::new(format, Distribution::Uniform, 3).distinct_pool(256);
        let keys: Vec<&[u8]> = pool.iter().map(|s| s.as_bytes()).collect();
        for family in Family::ALL {
            let hash = SynthesizedHash::from_regex(&format.regex(), family)
                .expect("format regex compiles");
            group.bench_function(
                BenchmarkId::from_parameter(format!("{}/{family}", format.name())),
                |b| b.iter(|| chained_hashes::<dyn ByteHash>(&hash, &keys, 256)),
            );
        }
    }
    group.finish();
}

fn bench_gperf_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/gperf-training");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(300));
    for n in [50usize, 200, 1000] {
        let pool: Vec<String> =
            KeySampler::new(KeyFormat::Ssn, Distribution::Uniform, 3).distinct_pool(n);
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| GperfHash::train(pool.iter().map(String::as_bytes)));
        });
    }
    group.finish();
}

fn bench_related_work(c: &mut Criterion) {
    // SEPE's OffXor vs entropy-learned hashing vs the general STL hash on
    // the URL workload both specializations are built for (long constant
    // prefix, short variable suffix).
    use sepe_baselines::{EntropyLearnedHash, StlHash};
    let pool: Vec<String> =
        KeySampler::new(KeyFormat::Url1, Distribution::Uniform, 3).distinct_pool(256);
    let keys: Vec<&[u8]> = pool.iter().map(|s| s.as_bytes()).collect();
    let offxor = SynthesizedHash::from_regex(&KeyFormat::Url1.regex(), Family::OffXor)
        .expect("url regex compiles");
    let elh = EntropyLearnedHash::train(&keys, 16);
    let stl = StlHash::new();

    let mut group = c.benchmark_group("ablation/related-work");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(300));
    group.bench_function(BenchmarkId::from_parameter("sepe-offxor"), |b| {
        b.iter(|| chained_hashes::<dyn ByteHash>(&offxor, &keys, 256));
    });
    group.bench_function(BenchmarkId::from_parameter("entropy-learned"), |b| {
        b.iter(|| chained_hashes::<dyn ByteHash>(&elh, &keys, 256));
    });
    group.bench_function(BenchmarkId::from_parameter("stl"), |b| {
        b.iter(|| chained_hashes::<dyn ByteHash>(&stl, &keys, 256));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_isa_ablation,
    bench_gradual_ladder,
    bench_gperf_training,
    bench_related_work
);
criterion_main!(benches);
