//! What draining a migration epoch costs per entry.
//!
//! A guarded SSN map (boxed byte keys, `u64` values, the OffXor plan with
//! a CityHash fallback) degrades, which opens an epoch, and then drains it
//! two ways: in `migrate(4)` calls, the 4 entries every mutating operation
//! pays; and on the maintenance clock, by calm ticks
//! (`maybe_escalate`, `maybe_deescalate`) after every 1024 `get`s, each of
//! which drains 4 entries per lookup served since the last one in one
//! batched sweep. The ticked row also reports how many ticks closed the
//! epoch, and its time covers only the ticks. Two rows price the chain
//! bound: a whole epoch drained in one `finish_migration` call
//! (`migrate(usize::MAX)`) while the bound is known, so every drained
//! entry raises it from its bucket's count, and the same drain after a
//! resize forgot it. The merge row times `escalate_now` on a map whose
//! degrade epoch is half drained: the escalation merges into that epoch
//! and re-files its swept half at once, per entry re-filed. The two
//! de-escalation rows drain the epoch a quiet keyed map opens back to the
//! guarded route, in `migrate(4)` calls: once with every entry filed by
//! `insert`, vouched for, so the drain maps each cached keyed hash back to
//! the plan's hash without reading the key; once with the same keys filed
//! by `insert_batch`, unvouched, so the drain hashes every key's bytes.
//! For scale it times hashing every key once and a cached-hash `rehash` of
//! the same table. Each round builds a fresh map; the output is the median
//! and range over the rounds.
//!
//! ```text
//! cargo run --release --example migration_drain [keys] [rounds]
//! ```

use sepe::baselines::CityHash;
use sepe::containers::{AttackPolicy, UnorderedMap};
use sepe::core::guard::GuardedHash;
use sepe::core::hash::{FixedSeedSource, SynthesizedHash};
use sepe::core::regex::Regex;
use sepe::core::synth::Family;
use sepe::keygen::{Distribution, KeyFormat, KeySampler};
use std::hint::black_box;
use std::time::Instant;

type Map = UnorderedMap<Box<[u8]>, u64, GuardedHash<SynthesizedHash, CityHash>>;

fn empty(keys: &[Box<[u8]>]) -> Map {
    let pattern = Regex::compile(&KeyFormat::Ssn.regex()).expect("the SSN regex compiles");
    let hasher = GuardedHash::new(
        &pattern,
        SynthesizedHash::from_pattern(&pattern, Family::OffXor),
        CityHash::new(),
    );
    let mut map = UnorderedMap::with_hasher(hasher);
    map.reserve(keys.len());
    map
}

fn build(keys: &[Box<[u8]>]) -> Map {
    let mut map = empty(keys);
    for (i, key) in keys.iter().enumerate() {
        map.insert(key.clone(), i as u64);
    }
    map
}

/// A map on the keyed rung holding `keys`, filed by `insert` (vouched
/// for) or by `insert_batch` (not), with the epoch back to the guarded
/// route open: the ns per entry its drain takes in `migrate(4)` calls.
fn deescalation_drain(keys: &[Box<[u8]>], seeds: &FixedSeedSource, batched: bool) -> f64 {
    let mut map = empty(keys);
    map.escalate_now(seeds);
    if batched {
        map.insert_batch(keys.iter().cloned().zip(0..).collect());
    } else {
        for (i, key) in keys.iter().enumerate() {
            map.insert(key.clone(), i as u64);
        }
    }
    // Quiet at once: no probe tail, one calm tick per streak.
    let quiet = AttackPolicy {
        quiet_streak: 1,
        probe_p99_limit: u64::MAX,
        ..AttackPolicy::default()
    };
    assert!(map.maybe_deescalate(&quiet), "the quiet keyed map re-arms");
    let start = Instant::now();
    while map.migration_in_flight() {
        map.migrate(4);
    }
    let spent = start.elapsed().as_nanos() as f64 / keys.len() as f64;
    assert_eq!(map.len(), keys.len());
    spent
}

/// Median, minimum and maximum of `samples`.
fn summary(mut samples: Vec<f64>) -> String {
    samples.sort_by(f64::total_cmp);
    format!(
        "{:6.1} ns/entry (range {:.1}–{:.1})",
        samples[samples.len() / 2],
        samples[0],
        samples[samples.len() - 1]
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map_or(36_864, |a| a.parse().expect("keys"));
    let rounds: usize = args.next().map_or(9, |a| a.parse().expect("rounds"));
    let keys: Vec<Box<[u8]>> = KeySampler::new(KeyFormat::Ssn, Distribution::Uniform, 1)
        .distinct_pool(n)
        .into_iter()
        .map(|k| k.into_bytes().into_boxed_slice())
        .collect();

    let (mut drain, mut hash, mut rehash) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ticked, mut ticks, mut merge) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bounded, mut unbounded) = (Vec::new(), Vec::new());
    let (mut from_cache, mut from_bytes) = (Vec::new(), Vec::new());
    let seeds = FixedSeedSource::new(1);
    let calm = AttackPolicy::default();
    for _ in 0..rounds {
        let mut map = build(&keys);
        let start = Instant::now();
        let mut sum = 0u64;
        for key in &keys {
            sum = sum.wrapping_add(map.hash_of(key));
        }
        black_box(sum);
        hash.push(start.elapsed().as_nanos() as f64 / n as f64);

        let start = Instant::now();
        map.degrade_now();
        while map.migration_in_flight() {
            map.migrate(4);
        }
        drain.push(start.elapsed().as_nanos() as f64 / n as f64);
        assert_eq!(map.len(), n);

        let buckets = map.bucket_count();
        let start = Instant::now();
        map.rehash(2 * buckets + 1);
        rehash.push(start.elapsed().as_nanos() as f64 / n as f64);

        let mut map = build(&keys);
        map.degrade_now();
        let (mut spent, mut count, mut served) = (0u128, 0usize, 0usize);
        while map.migration_in_flight() {
            for _ in 0..1024 {
                black_box(map.get(&keys[served % n]));
                served += 1;
            }
            let start = Instant::now();
            map.maybe_escalate(&calm, &seeds);
            map.maybe_deescalate(&calm);
            spent += start.elapsed().as_nanos();
            count += 1;
        }
        ticked.push(spent as f64 / n as f64);
        ticks.push(count as f64);

        for (forget, samples) in [(false, &mut bounded), (true, &mut unbounded)] {
            let mut map = build(&keys);
            map.degrade_now();
            if forget {
                // A resize before the sweep relinks nothing, but forgets
                // the bound and drops the bucket counts.
                map.rehash(map.bucket_count());
            }
            assert_eq!(map.chain_bound().is_none(), forget);
            let start = Instant::now();
            map.finish_migration();
            samples.push(start.elapsed().as_nanos() as f64 / n as f64);
            assert_eq!(map.chain_bound().is_none(), forget);
        }

        let mut map = build(&keys);
        map.degrade_now();
        while map.migration_progress() < 0.5 {
            map.migrate(4);
        }
        let swept = (map.migration_progress() * n as f64).round();
        let start = Instant::now();
        map.escalate_now(&seeds);
        merge.push(start.elapsed().as_nanos() as f64 / swept);
        assert!(
            map.migration_in_flight(),
            "the escalation merged into the epoch"
        );
        assert!(
            map.migration_progress() >= 0.5,
            "the unswept half stays put"
        );

        from_cache.push(deescalation_drain(&keys, &seeds, false));
        from_bytes.push(deescalation_drain(&keys, &seeds, true));
    }
    println!("{n} SSN keys, {rounds} rounds");
    ticks.sort_by(f64::total_cmp);
    println!("drain an epoch, migrate(4) calls:  {}", summary(drain));
    println!(
        "ticked, a tick per 1024 gets:      {} in {} ticks",
        summary(ticked),
        ticks[ticks.len() / 2]
    );
    println!("finish_migration, bound kept:      {}", summary(bounded));
    println!("finish_migration, bound forgotten: {}", summary(unbounded));
    println!(
        "escalation merged into a half-drained epoch: {} re-filed",
        summary(merge)
    );
    println!("de-escalation drain, cached hash:  {}", summary(from_cache));
    println!("de-escalation drain, key bytes:    {}", summary(from_bytes));
    println!("hash every key once:               {}", summary(hash));
    println!("cached-hash rehash:                {}", summary(rehash));
}
