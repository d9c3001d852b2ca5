//! What chain order costs a resident key.
//!
//! A guarded SSN map (boxed byte keys, `u64` values, the OffXor plan with
//! a CityHash fallback), reserved for 36,448 entries so its bucket count
//! never changes, takes three steps: 16,384 resident SSNs; then 20,000
//! cold keys, SSNs written with slashes (`123/45/6789`), which are off
//! the format and so hashed by the fallback; then the resynthesis those
//! cold keys call for, whose epoch is drained at once with
//! `finish_migration`. After each step the example times `get`s of every
//! resident key in shuffled order.
//!
//! Chains keep insertion order: a new key is appended behind the keys
//! already in its bucket, and the drain re-files the arena from its end,
//! so the residents, filed first, come out ahead of the cold keys. The
//! three numbers should then stay close; with new keys linked at the head
//! of their chain, the last two would rise by the cold keys filed in front
//! of each resident. The output is the median and range over the rounds.
//!
//! ```text
//! cargo run --release --example chain_order [rounds]
//! ```

use sepe::baselines::CityHash;
use sepe::containers::UnorderedMap;
use sepe::core::guard::{GuardedHash, Resynth};
use sepe::core::hash::SynthesizedHash;
use sepe::core::regex::Regex;
use sepe::core::synth::Family;
use sepe::keygen::{Distribution, KeyFormat, KeySampler, SplitMix64};
use std::hint::black_box;
use std::time::Instant;

type Map = UnorderedMap<Box<[u8]>, u64, GuardedHash<SynthesizedHash, CityHash>>;

const RESIDENT: usize = 1 << 14;
const COLD: usize = 20_000;
const RESERVED: usize = 36_448;
/// Timed passes over the residents per sample.
const PASSES: usize = 4;

/// ns per `get` of every key of `order`, `PASSES` times over.
fn time_gets(map: &Map, order: &[Box<[u8]>]) -> f64 {
    let start = Instant::now();
    for _ in 0..PASSES {
        for key in order {
            black_box(map.get(black_box(&key[..])));
        }
    }
    start.elapsed().as_nanos() as f64 / (PASSES * order.len()) as f64
}

/// Median, minimum and maximum of `samples`.
fn summary(mut samples: Vec<f64>) -> String {
    samples.sort_by(f64::total_cmp);
    format!(
        "{:6.1} ns/get (range {:.1}–{:.1})",
        samples[samples.len() / 2],
        samples[0],
        samples[samples.len() - 1]
    )
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .map_or(9, |a| a.parse().expect("rounds"));
    let pool =
        KeySampler::new(KeyFormat::Ssn, Distribution::Uniform, 1).distinct_pool(RESIDENT + COLD);
    let mut keys: Vec<Box<[u8]>> = pool
        .into_iter()
        .map(|k| k.into_bytes().into_boxed_slice())
        .collect();
    for key in &mut keys[RESIDENT..] {
        key.iter_mut()
            .filter(|b| **b == b'-')
            .for_each(|b| *b = b'/');
    }
    let (resident, cold) = keys.split_at(RESIDENT);
    let mut order = resident.to_vec();
    let mut rng = SplitMix64::new(7);
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }

    let pattern = Regex::compile(&KeyFormat::Ssn.regex()).expect("the SSN regex compiles");
    let mut steps: [Vec<f64>; 3] = Default::default();
    for _ in 0..rounds {
        let mut map: Map = UnorderedMap::with_hasher(GuardedHash::new(
            &pattern,
            SynthesizedHash::from_pattern(&pattern, Family::OffXor),
            CityHash::new(),
        ));
        map.reserve(RESERVED);
        let buckets = map.bucket_count();
        for (i, key) in resident.iter().enumerate() {
            map.insert(key.clone(), i as u64);
        }
        steps[0].push(time_gets(&map, &order));
        for (i, key) in cold.iter().enumerate() {
            map.insert(key.clone(), i as u64);
        }
        steps[1].push(time_gets(&map, &order));
        assert_eq!(
            map.resynthesize(),
            Resynth::Applied,
            "the cold keys drifted"
        );
        map.finish_migration();
        steps[2].push(time_gets(&map, &order));
        assert_eq!(map.bucket_count(), buckets, "the reserve held");
        assert_eq!(map.len(), RESIDENT + COLD);
    }
    println!("{RESIDENT} resident SSN keys, {COLD} cold keys, {rounds} rounds");
    let [resident_only, with_cold, resynthesized] = steps;
    println!("residents only:                 {}", summary(resident_only));
    println!("after the cold inserts:         {}", summary(with_cold));
    println!("after the resynthesis epoch:    {}", summary(resynthesized));
}
