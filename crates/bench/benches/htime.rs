//! **Table 1, H-Time column** — pure hashing speed per function, on the
//! SSN and URL1 key formats, latency-chained as a hash-table consumer
//! would be.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sepe_bench::{build, key_pool, TIMED_HASHES};
use sepe_driver::measure::chained_hashes;
use sepe_driver::HashId;
use sepe_keygen::KeyFormat;

fn bench_htime(c: &mut Criterion) {
    for format in [KeyFormat::Ssn, KeyFormat::Url1, KeyFormat::Ints] {
        let mut group = c.benchmark_group(format!("htime/{}", format.name()));
        group
            .sample_size(20)
            .measurement_time(std::time::Duration::from_millis(800))
            .warm_up_time(std::time::Duration::from_millis(300));
        let pool = key_pool(format, 1024);
        let keys: Vec<&[u8]> = pool.iter().map(|s| s.as_bytes()).collect();
        for id in TIMED_HASHES.into_iter().chain([HashId::Gperf]) {
            let hash = build(id, format);
            group.bench_function(BenchmarkId::from_parameter(id.name()), |b| {
                // Dependent chain across 256 keys per iteration.
                b.iter(|| chained_hashes(hash.as_ref(), &keys, 256));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_htime);
criterion_main!(benches);
