//! Property tests: a [`ShardedMap`] must be observably equivalent to a
//! single guarded [`UnorderedMap`] fed the identical operation sequence —
//! same contents, same lookup answers, same drift counters (the shard
//! router is counter-silent), and a sane aggregate migration progress —
//! for any shard count and for batches that straddle shard boundaries.

use proptest::collection::vec;
use proptest::prelude::*;
use sepe_baselines::StlHash;
use sepe_containers::{ShardedMap, UnorderedMap};
use sepe_core::guard::GuardedHash;
use sepe_core::hash::{FixedSeedSource, SynthesizedHash};
use sepe_core::regex::Regex;
use sepe_core::synth::Family;
use std::collections::BTreeMap;

type Guarded = GuardedHash<SynthesizedHash, StlHash>;
type Sharded = ShardedMap<String, u32, SynthesizedHash, StlHash>;
type Single = UnorderedMap<String, u32, Guarded>;

const PATTERN: &str = r"\d{3}-\d{2}-\d{4}";

fn guarded() -> Guarded {
    let pattern = Regex::compile(PATTERN).expect("pattern compiles");
    let hash = SynthesizedHash::from_pattern(&pattern, Family::Pext);
    GuardedHash::new(&pattern, hash, StlHash::new())
}

fn pair() -> (Sharded, Single) {
    (
        ShardedMap::with_hasher(guarded(), 8),
        UnorderedMap::with_hasher(guarded()),
    )
}

/// Mostly in-format keys with a deterministic off-format minority, so the
/// guard sees both routes.
fn key_of(k: u16) -> String {
    let k = k % 600;
    if k.is_multiple_of(7) {
        format!("off-format-{k}")
    } else {
        format!("{:03}-{:02}-{:04}", k % 1000, k % 100, k)
    }
}

fn contents(m: &Sharded) -> BTreeMap<String, u32> {
    let mut out = BTreeMap::new();
    m.for_each(|k, v| {
        out.insert(k.clone(), *v);
    });
    out
}

fn single_contents(m: &Single) -> BTreeMap<String, u32> {
    m.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u32),
    Get(u16),
    Remove(u16),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        3 => any::<u16>().prop_map(Op::Get),
        3 => any::<u16>().prop_map(Op::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_matches_unsharded_twin(ops in vec(arb_op(), 1..300)) {
        let (sharded, mut single) = pair();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(
                        sharded.insert(key_of(k), v),
                        single.insert(key_of(k), v)
                    );
                }
                Op::Get(k) => {
                    let key = key_of(k);
                    prop_assert_eq!(
                        sharded.get(key.as_str()),
                        single.get(key.as_str()).copied()
                    );
                    // Mirror the sharded read-path drain so migration-drain
                    // hashing stays identical on both sides (both are
                    // silent rehashers, but entry counts must track).
                    single.drain_on_read();
                }
                Op::Remove(k) => {
                    let key = key_of(k);
                    prop_assert_eq!(sharded.remove(key.as_str()), single.remove(key.as_str()));
                }
            }
            prop_assert_eq!(sharded.len(), single.len());
        }
        prop_assert_eq!(contents(&sharded), single_contents(&single));
        // The router hashes silently, so shard-summed drift counters equal
        // the single map's for the same operation sequence.
        let (in_f, off_f) = sharded.drift_counts();
        prop_assert_eq!(in_f, single.drift_stats().in_format());
        prop_assert_eq!(off_f, single.drift_stats().off_format());
    }

    #[test]
    fn batches_straddling_shards_agree(
        inserts in vec((any::<u16>(), any::<u32>()), 1..200),
        queries in vec(any::<u16>(), 1..200),
    ) {
        let (sharded, mut single) = pair();
        let pairs: Vec<(String, u32)> =
            inserts.iter().map(|&(k, v)| (key_of(k), v)).collect();
        // Batch against batch: both sides hash each key once per batch op.
        let ours = sharded.insert_batch(pairs.clone());
        let theirs = single.insert_batch(pairs);
        prop_assert_eq!(ours, theirs);

        let keys: Vec<String> = queries.iter().map(|&k| key_of(k)).collect();
        let refs: Vec<&[u8]> = keys.iter().map(String::as_bytes).collect();
        let ours = sharded.get_batch(&refs);
        let theirs: Vec<Option<u32>> =
            single.get_batch(&refs).into_iter().map(|v| v.copied()).collect();
        prop_assert_eq!(ours, theirs);

        prop_assert_eq!(contents(&sharded), single_contents(&single));
        let (in_f, off_f) = sharded.drift_counts();
        prop_assert_eq!(in_f, single.drift_stats().in_format());
        prop_assert_eq!(off_f, single.drift_stats().off_format());
    }

    #[test]
    fn contents_agree_across_shard_escalations(
        ops in vec(arb_op(), 1..250),
        escalate_at in vec(any::<u16>(), 1..4),
    ) {
        // Escalating arbitrary shards mid-stream (and the twin alongside)
        // must never change what lookups observe. Counters are *not*
        // compared here: a keyed hasher stops counting, and which keys
        // land in a keyed shard is exactly what sharding changes.
        let (sharded, mut single) = pair();
        let seeds = FixedSeedSource::new(7);
        let marks: Vec<usize> = escalate_at.iter().map(|&d| d as usize % ops.len()).collect();
        for (step, op) in ops.into_iter().enumerate() {
            if let Some(pos) = marks.iter().position(|&m| m == step) {
                sharded.escalate_shard(pos * 2 % sharded.shard_count(), &seeds);
                single.escalate_now(&seeds);
            }
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(
                        sharded.insert(key_of(k), v),
                        single.insert(key_of(k), v)
                    );
                }
                Op::Get(k) => {
                    let key = key_of(k);
                    prop_assert_eq!(
                        sharded.get(key.as_str()),
                        single.get(key.as_str()).copied()
                    );
                }
                Op::Remove(k) => {
                    let key = key_of(k);
                    prop_assert_eq!(sharded.remove(key.as_str()), single.remove(key.as_str()));
                }
            }
        }
        prop_assert!(sharded.migration_progress() >= 0.0);
        prop_assert!(sharded.migration_progress() <= 1.0);
        sharded.finish_migrations();
        single.finish_migration();
        prop_assert_eq!(sharded.migrations_in_flight(), 0);
        prop_assert!((sharded.migration_progress() - 1.0).abs() < f64::EPSILON);
        prop_assert_eq!(contents(&sharded), single_contents(&single));
    }

    #[test]
    fn migration_progress_aggregates_monotonically(
        seed_keys in vec(any::<u16>(), 50..200),
        budget in 1usize..40,
    ) {
        let sharded = ShardedMap::with_hasher(guarded(), 4);
        for (i, &k) in seed_keys.iter().enumerate() {
            sharded.insert(key_of(k), i as u32);
        }
        let seeds = FixedSeedSource::new(7);
        for i in 0..sharded.shard_count() {
            sharded.escalate_shard(i, &seeds);
        }
        let mut last = sharded.migration_progress();
        prop_assert!(last >= 0.0);
        let mut spins = 0u32;
        while sharded.migrations_in_flight() > 0 && spins < 100_000 {
            sharded.migrate(budget);
            let now = sharded.migration_progress();
            prop_assert!(now >= last, "aggregate progress is monotone");
            last = now;
            spins += 1;
        }
        prop_assert_eq!(sharded.migrations_in_flight(), 0);
        prop_assert!((sharded.migration_progress() - 1.0).abs() < f64::EPSILON);
        // Nothing was lost in the drain.
        for (i, &k) in seed_keys.iter().enumerate() {
            let last_value = seed_keys
                .iter()
                .rposition(|&other| key_of(other) == key_of(k))
                .unwrap_or(i) as u32;
            prop_assert_eq!(sharded.get(key_of(k).as_str()), Some(last_value));
        }
    }
}
