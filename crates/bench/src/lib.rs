//! # sepe-bench
//!
//! Shared plumbing for the criterion benchmarks under `benches/`:
//!
//! | bench       | measures |
//! |-------------|----------|
//! | `htime`     | Table 1 H-Time (latency-chained hashing speed) |
//! | `batch`     | batched vs scalar ns/key, widths 1/4/8/32 |
//! | `synthesis` | Figure 16 (synthesis time vs key size) |
//! | `guard`     | guarded vs bare hashing, chained and per format |
//! | `ablation`  | ISA, gradual-ladder, gperf-training and related-work ablations |
//! | `direct`    | direct-addressed vs bucketed lookups |
//!
//! Every latency-chained row runs `sepe_driver::measure::chained_hashes`,
//! the loop behind `sepe-repro`'s H-Time. The container and statistics
//! artifacts (B-Time in Table 1 and Figures 13, 15 and 20, Figure 19,
//! Table 2) have no bench here: `sepe-repro` prints them from the same
//! functions. The absolute numbers of the paper were measured on a
//! different machine and through compiled C++; only the relative ordering
//! is expected to transfer.

use sepe_core::Isa;
use sepe_driver::HashId;
use sepe_keygen::{Distribution, KeyFormat, KeySampler};

/// The hash functions benched head-to-head in the timing benches. Gperf is
/// excluded from container benches (the paper excludes it from Figure 13
/// for being two orders of magnitude slower).
pub const TIMED_HASHES: [HashId; 9] = [
    HashId::Abseil,
    HashId::Aes,
    HashId::City,
    HashId::Fnv,
    HashId::Gpt,
    HashId::Naive,
    HashId::OffXor,
    HashId::Pext,
    HashId::Stl,
];

/// A deterministic pool of distinct keys for a format.
#[must_use]
pub fn key_pool(format: KeyFormat, n: usize) -> Vec<String> {
    let n = n.min(usize::try_from(format.space()).unwrap_or(usize::MAX));
    KeySampler::new(format, Distribution::Uniform, 0xBEEF).distinct_pool(n)
}

/// Builds a hash for benching, with native instructions.
#[must_use]
pub fn build(id: HashId, format: KeyFormat) -> Box<dyn sepe_core::ByteHash> {
    id.build(format, Isa::Native)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_distinct_and_sized() {
        let pool = key_pool(KeyFormat::Ssn, 100);
        assert_eq!(pool.len(), 100);
        let set: std::collections::BTreeSet<_> = pool.iter().collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn timed_hashes_exclude_gperf() {
        assert!(!TIMED_HASHES.contains(&HashId::Gperf));
    }
}
