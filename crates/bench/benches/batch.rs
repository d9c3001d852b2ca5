//! **Batch hashing** — batched vs scalar ns/key for every synthesized
//! family on the paper's key formats, across batch widths 1/4/8/32.
//!
//! Width 1 is the latency-chained scalar reference (one dependency chain);
//! wider groups run that many independent chains through
//! `HashBatch::hash_batch`, the interleaved multi-stream kernels. The
//! ratio between the two is the win this subsystem exists to deliver.
//! Both sides run the shared timing loops of `sepe_driver::measure`. The
//! serving stack's batched rate is `hash-stream`'s `hash.batch_ns_per_key`
//! in the `benchmark/` package.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sepe_bench::key_pool;
use sepe_core::synth::Family;
use sepe_core::SynthesizedHash;
use sepe_driver::measure::{batched_ns_per_key, chained_hashes};
use sepe_keygen::KeyFormat;

const POOL: usize = 1024;
/// Keys hashed per timed iteration: enough that the three width-sized
/// buffers `batched_ns_per_key` allocates cost well under 0.1 ns per key.
const KEYS_PER_ITER: usize = 4096;
const WIDTHS: [usize; 3] = [4, 8, 32];

fn bench_batch(c: &mut Criterion) {
    for format in [
        KeyFormat::Ssn,
        KeyFormat::Ipv4,
        KeyFormat::Mac,
        KeyFormat::Url1,
    ] {
        let pool = key_pool(format, POOL);
        let keys: Vec<&[u8]> = pool.iter().map(|s| s.as_bytes()).collect();
        for family in Family::ALL {
            let Ok(hash) = SynthesizedHash::from_regex(&format.regex(), family) else {
                continue;
            };
            let mut group = c.benchmark_group(format!("batch/{}/{family}", format.name()));
            group
                .sample_size(20)
                .measurement_time(std::time::Duration::from_millis(800))
                .warm_up_time(std::time::Duration::from_millis(300));
            group.throughput(Throughput::Elements(KEYS_PER_ITER as u64));
            // Scalar reference: one dependency chain.
            group.bench_function(BenchmarkId::from_parameter("width-1"), |b| {
                b.iter(|| chained_hashes(&hash, &keys, KEYS_PER_ITER));
            });
            for width in WIDTHS {
                group.bench_function(BenchmarkId::from_parameter(format!("width-{width}")), |b| {
                    b.iter(|| batched_ns_per_key(&hash, &keys, width, KEYS_PER_ITER));
                });
            }
            group.finish();
        }
    }
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
