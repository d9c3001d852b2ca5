//! Concurrent model checking for the lock-striped containers.
//!
//! A [`ShardedMap`] is exercised by several real OS threads at once and
//! model-checked against a `Mutex<HashMap>` twin fed the identical
//! operations. Determinism under true interleaving comes from **disjoint
//! key partitions**: thread `t` owns the pool keys with `index % threads
//! == t`, so every per-key observation (the previous value an insert
//! returns, what a get sees, what a remove yields) is decided by its owner
//! thread alone — any disagreement with the twin is a real bug, not a
//! race in the test. The *interleaving* is still genuinely concurrent:
//! threads contend on the shard locks and the twin mutex continuously.
//!
//! The chaos variant adds a drift-burst thread that hammers one shard at a
//! time with off-format keys, lets the per-shard drift policy trip it (the
//! trip is held on the guarded route), escalates a target that did not
//! trip to the keyed rung, and then resynthesizes each tripped or
//! escalated shard inline while the other threads keep serving — the blast
//! radius of drift must stay confined to its shard, and every such shard
//! must be re-armed on its widened plan.

use sepe_containers::sharded::ShardedMap;
use sepe_containers::DriftPolicy;
use sepe_core::guard::{GuardMode, GuardedHash};
use sepe_core::hash::{ByteHash, FixedSeedSource};
use sepe_core::pattern::KeyPattern;
use sepe_core::synth::Family;
use sepe_core::SynthesizedHash;
use sepe_keygen::SplitMix64;
use sepe_obs::ObsEvent;
use std::collections::HashMap;
use std::sync::Mutex;

/// Aggregate statistics of one concurrent model-checking run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConcurrentStats {
    /// Map operations executed across all threads.
    pub ops: usize,
    /// Worker threads that ran.
    pub threads: usize,
    /// Shards escalated by `escalate_shard` after a burst did not trip.
    pub escalations: usize,
    /// Drift trips the per-shard policy took (held on the guarded route).
    pub drift_trips: usize,
    /// Tripped or escalated shards re-armed by inline resynthesis under load.
    pub resyntheses: usize,
    /// Full-content comparisons against the twin (and `HashMap` union).
    pub checkpoints: usize,
}

impl ConcurrentStats {
    /// Accumulates another run's counters into this one.
    pub fn absorb(&mut self, other: ConcurrentStats) {
        self.ops += other.ops;
        self.threads += other.threads;
        self.escalations += other.escalations;
        self.drift_trips += other.drift_trips;
        self.resyntheses += other.resyntheses;
        self.checkpoints += other.checkpoints;
    }
}

type Guarded<G> = GuardedHash<SynthesizedHash, G>;

/// Shape of one concurrent model-checking run: how many threads, how much
/// work per thread, which seed, and whether drift-burst chaos is on.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentRun {
    /// Worker threads to spawn (clamped to at least 1).
    pub threads: usize,
    /// Map operations each thread executes over its key partition.
    pub ops_per_thread: usize,
    /// Seed for the per-thread operation streams.
    pub seed: u64,
    /// Fire drift bursts from thread 0 that trip or escalate individual
    /// shards.
    pub chaos: bool,
}

/// Key partition owned by thread `t`: every key whose pool index is
/// congruent to `t` modulo the thread count.
fn partition(pool: &[Vec<u8>], t: usize, threads: usize) -> Vec<Vec<u8>> {
    pool.iter()
        .enumerate()
        .filter(|(i, _)| i % threads == t)
        .map(|(_, k)| k.clone())
        .collect()
}

/// Runs [`ConcurrentRun::threads`] worker threads over one shared
/// [`ShardedMap`] and a shared `Mutex<HashMap>` twin, each thread
/// interleaving inserts, gets and removes over its own key partition and
/// asserting per-operation agreement with the twin. When
/// [`ConcurrentRun::chaos`] is set, thread 0 additionally fires drift
/// bursts — off-format traffic aimed at one shard, the per-shard drift
/// judgment (a trip holds the guarded route), an escalation of the target
/// when it did not trip, then [`ShardedMap::resynthesize_shard`] on every
/// tripped or escalated shard — while the others keep serving reads.
///
/// # Errors
///
/// Returns the first disagreement between the sharded map and the twin
/// (or a structural violation) as a human-readable message.
pub fn check_concurrent_map<G>(
    pattern: &KeyPattern,
    family: Family,
    fallback: G,
    pool: &[Vec<u8>],
    run: ConcurrentRun,
) -> Result<ConcurrentStats, String>
where
    G: ByteHash + Clone + Send + Sync,
{
    let ConcurrentRun {
        threads,
        ops_per_thread,
        seed,
        chaos,
    } = run;
    let threads = threads.max(1);
    let hasher: Guarded<G> = GuardedHash::from_pattern(pattern, family, fallback);
    let map: ShardedMap<Vec<u8>, u64, SynthesizedHash, G> = ShardedMap::with_hasher(hasher, 8);
    let twin: Mutex<HashMap<Vec<u8>, u64>> = Mutex::new(HashMap::new());
    let policy = DriftPolicy::default();

    let worker = |t: usize| -> Result<ConcurrentStats, String> {
        let mine = partition(pool, t, threads);
        let mut stats = ConcurrentStats::default();
        if mine.is_empty() {
            return Ok(stats);
        }
        let mut rng = SplitMix64::new(seed ^ (t as u64) << 16);
        let mut ops = 0usize;
        let mut bursts = 0usize;
        for step in 0..ops_per_thread {
            let r = rng.next_u64();
            let chaos_burst = chaos && t == 0 && step % 97 == 96;
            if chaos_burst {
                // Off-format shadows of this thread's keys, '~'-padded
                // ('~' is outside every byte class the formats admit) to a
                // length no earlier burst reached: a resynthesis widens
                // the shard's pattern to the shadows it sampled, so only
                // a longer key is off-format for it again.
                bursts += 1;
                let shadow_len = pattern.max_len() + bursts;
                let shadows: Vec<Vec<u8>> = mine
                    .iter()
                    .map(|k| {
                        let mut s = k.clone();
                        s.resize(shadow_len, b'~');
                        s
                    })
                    .collect();
                // Drift burst: hammer one owned shard with off-format
                // traffic, then let the per-shard policy pull the trigger.
                // Bursts only ever target the lower half of the stripes, so
                // the untouched upper half sees zero off-format traffic and
                // the blast-radius check at the end proves confinement
                // structurally, at any seed.
                let half = (map.shard_count() / 2).max(1);
                let pick = map.shard_of(&shadows[(r % shadows.len() as u64) as usize]);
                let target = if pick < half {
                    Some(pick)
                } else {
                    shadows.iter().map(|s| map.shard_of(s)).find(|&s| s < half)
                };
                let Some(target) = target else {
                    continue; // no shadow routes into the burstable half
                };
                for s in &shadows {
                    if map.shard_of(s) == target {
                        let prev = map.insert(s.clone(), r);
                        let expected = twin
                            .lock()
                            .map_err(|_| "twin mutex poisoned".to_string())?
                            .insert(s.clone(), r);
                        if prev != expected {
                            return Err(format!(
                                "burst insert disagreed on {:?}: {prev:?} vs {expected:?}",
                                String::from_utf8_lossy(s)
                            ));
                        }
                        ops += 1;
                    }
                }
                // The windowed per-shard policy gets first shot at the
                // trigger, and a trip holds the shard's guarded route; a
                // target that did not trip is escalated explicitly, so the
                // burst always lands. Only lower-half shards ever see
                // off-format keys, so neither path can reach the upper half.
                // Every shard is guarded here: each burst re-arms what it
                // tripped or escalated.
                stats.drift_trips += map.maybe_degrade(&policy);
                if (0..map.shard_count()).any(|i| map.shard_mode(i) != GuardMode::Guarded) {
                    return Err("a drift trip flipped a shard off its guarded route".into());
                }
                if map.shard_drift_trip(target).is_none() {
                    map.escalate_shard(target, &FixedSeedSource::new(r));
                    stats.escalations += 1;
                }
                // Win the specialized hash back inline, under the shard
                // write lock, while the other threads keep serving.
                for shard in 0..map.shard_count() {
                    let held = map.shard_drift_trip(shard).is_some();
                    if !held && map.shard_mode(shard) == GuardMode::Guarded {
                        continue;
                    }
                    let out = map.resynthesize_shard(shard);
                    if !out.is_applied()
                        || map.shard_mode(shard) != GuardMode::Guarded
                        || map.shard_drift_trip(shard).is_some()
                    {
                        return Err(format!(
                            "inline resynthesis of shard {shard} returned {out:?} and left \
                             it {:?} holding {:?}",
                            map.shard_mode(shard),
                            map.shard_drift_trip(shard)
                        ));
                    }
                    stats.resyntheses += 1;
                }
                // The burst's keys read back mid-migration.
                let twin = twin.lock().map_err(|_| "twin mutex poisoned".to_string())?;
                for s in shadows.iter().filter(|s| map.shard_of(s) == target) {
                    let got = map.get(s.as_slice());
                    if got != twin.get(s).copied() {
                        return Err(format!(
                            "get after resynthesis disagreed on {:?}: {got:?} vs {:?}",
                            String::from_utf8_lossy(s),
                            twin.get(s)
                        ));
                    }
                    ops += 1;
                }
                continue;
            }
            let key = &mine[((r >> 8) % mine.len() as u64) as usize];
            match r % 10 {
                0..=4 => {
                    let got = map.get(key.as_slice());
                    let expected = twin
                        .lock()
                        .map_err(|_| "twin mutex poisoned".to_string())?
                        .get(key)
                        .copied();
                    if got != expected {
                        return Err(format!(
                            "get disagreed on {:?}: {got:?} vs {expected:?}",
                            String::from_utf8_lossy(key)
                        ));
                    }
                }
                5..=7 => {
                    let prev = map.insert(key.clone(), r);
                    let expected = twin
                        .lock()
                        .map_err(|_| "twin mutex poisoned".to_string())?
                        .insert(key.clone(), r);
                    if prev != expected {
                        return Err(format!(
                            "insert disagreed on {:?}: {prev:?} vs {expected:?}",
                            String::from_utf8_lossy(key)
                        ));
                    }
                }
                _ => {
                    let removed = map.remove(key.as_slice());
                    let expected = twin
                        .lock()
                        .map_err(|_| "twin mutex poisoned".to_string())?
                        .remove(key);
                    if removed != expected {
                        return Err(format!(
                            "remove disagreed on {:?}: {removed:?} vs {expected:?}",
                            String::from_utf8_lossy(key)
                        ));
                    }
                }
            }
            ops += 1;
        }
        stats.ops = ops;
        Ok(stats)
    };

    let mut stats = ConcurrentStats {
        threads,
        ..ConcurrentStats::default()
    };
    let results: Vec<Result<ConcurrentStats, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|t| s.spawn(move || worker(t))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("worker thread panicked".to_string()))
            })
            .collect()
    });
    for r in results {
        stats.absorb(r?);
    }

    // Quiescent checkpoint: drain the epochs, then the sharded contents
    // must equal the twin exactly — count, keys, and values.
    map.finish_migrations();
    let twin = twin
        .into_inner()
        .map_err(|_| "twin mutex poisoned at checkpoint".to_string())?;
    if map.len() != twin.len() {
        return Err(format!(
            "length diverged at checkpoint: sharded {} vs twin {}",
            map.len(),
            twin.len()
        ));
    }
    let mut mismatch = None;
    let mut seen = 0usize;
    map.for_each(|k, v| {
        seen += 1;
        if mismatch.is_none() && twin.get(k) != Some(v) {
            mismatch = Some(format!(
                "content diverged on {:?}: sharded {v} vs twin {:?}",
                String::from_utf8_lossy(k),
                twin.get(k)
            ));
        }
    });
    if let Some(m) = mismatch {
        return Err(m);
    }
    if seen != twin.len() {
        return Err(format!(
            "iteration saw {seen} entries, twin holds {}",
            twin.len()
        ));
    }
    if chaos && stats.escalations + stats.drift_trips == 0 {
        return Err(
            "chaos run tripped or escalated no shard — bursts were ineffective".to_string(),
        );
    }
    if chaos {
        // Bursts only ever aim at the lower half of the stripes, and a
        // shard that never saw an off-format key must not trip or leave
        // its guarded route: any in the upper half means drift leaked
        // across shards (via routing, shared counters, or the policy).
        // Every lower-half trip and escalation was followed by an inline
        // resynthesis of its shard.
        if stats.resyntheses != stats.escalations + stats.drift_trips {
            return Err(format!(
                "{} shards escalated and {} tripped but {} were resynthesized",
                stats.escalations, stats.drift_trips, stats.resyntheses
            ));
        }
        let half = (map.shard_count() / 2).max(1);
        let tripped_above = map.events().into_iter().find_map(|e| match e {
            ObsEvent::ShardDrift { shard, .. } if shard >= half as u64 => Some(shard),
            _ => None,
        });
        if let Some(shard) = tripped_above {
            return Err(format!(
                "shard {shard} tripped without ever seeing off-format traffic — \
                 blast radius was not confined"
            ));
        }
        for shard in 0..map.shard_count() {
            let mode = map.shard_mode(shard);
            if mode == GuardMode::Guarded && map.shard_drift_trip(shard).is_none() {
                continue;
            }
            return Err(if shard >= half {
                format!(
                    "shard {shard} left its guarded route without ever seeing off-format traffic — \
                     blast radius was not confined"
                )
            } else {
                format!("shard {shard} is {mode:?} after its resynthesis drained")
            });
        }
    }
    check_metrics_against_ground_truth(&map, &stats, &policy)?;
    stats.checkpoints = 1;
    Ok(stats)
}

/// Cross-checks an exported metrics snapshot against the model-checked
/// ground truth the run itself established: guard drift totals must equal
/// [`ShardedMap::drift_counts`], the shards' `table_escalations` family
/// and the trace's `ShardEscalate` events must equal the worker-observed
/// escalations, its `ShardDrift` events the worker-observed trips (each
/// carrying a window over the policy's threshold), and after the
/// quiescent drain every opened migration epoch must be finished.
fn check_metrics_against_ground_truth<G>(
    map: &ShardedMap<Vec<u8>, u64, SynthesizedHash, G>,
    stats: &ConcurrentStats,
    policy: &DriftPolicy,
) -> Result<(), String>
where
    G: ByteHash + Clone + Send + Sync,
{
    let registry = sepe_obs::Registry::new();
    map.export_metrics(&registry)
        .map_err(|e| format!("metrics export failed: {e}"))?;
    let snap = registry.snapshot();
    let (in_f, off_f) = map.drift_counts();
    let exported_in = snap.counter_family_total("guard_in_format");
    if exported_in != in_f {
        return Err(format!(
            "metrics drift: guard_in_format family totals {exported_in}, \
             drift_counts says {in_f}"
        ));
    }
    let exported_off = snap.counter_family_total("guard_off_format");
    if exported_off != off_f {
        return Err(format!(
            "metrics drift: guard_off_format family totals {exported_off}, \
             drift_counts says {off_f}"
        ));
    }
    let escalations = snap.counter_family_total("table_escalations");
    if escalations != stats.escalations as u64 {
        return Err(format!(
            "metrics drift: the table_escalations family totals {escalations}, \
             workers observed {} escalations",
            stats.escalations
        ));
    }
    let events = map.events();
    let escalate_events = events
        .iter()
        .filter(|e| matches!(e, ObsEvent::ShardEscalate { .. }))
        .count();
    if escalate_events != stats.escalations {
        return Err(format!(
            "metrics drift: the event trace holds {escalate_events} escalate events, \
             workers observed {} escalations",
            stats.escalations
        ));
    }
    let trips: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match *e {
            ObsEvent::ShardDrift {
                off_format, total, ..
            } => Some((off_format, total)),
            _ => None,
        })
        .collect();
    if trips.len() != stats.drift_trips {
        return Err(format!(
            "metrics drift: the event trace holds {} drift trips, workers observed {}",
            trips.len(),
            stats.drift_trips
        ));
    }
    if let Some(&(off, total)) = trips.iter().find(|&&(o, t)| !policy.should_degrade(o, t)) {
        return Err(format!(
            "a drift trip recorded a window of {off} off-format in {total}, under the policy"
        ));
    }
    let opened = snap.counter_family_total("table_epochs_opened");
    let finished = snap.counter_family_total("table_epochs_finished");
    if opened != finished {
        return Err(format!(
            "metrics drift: {opened} epochs opened but {finished} finished \
             after the quiescent drain"
        ));
    }
    if stats.resyntheses > 0 && opened == 0 {
        return Err("metrics drift: shards re-armed but no epoch was counted".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_baselines::CityHash;
    use sepe_core::regex::Regex;

    fn ssn_pool(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i % 10_000).into_bytes())
            .collect()
    }

    #[test]
    fn concurrent_run_agrees_with_twin() {
        let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("pattern");
        let pool = ssn_pool(240);
        let stats = check_concurrent_map(
            &pattern,
            Family::Pext,
            CityHash::new(),
            &pool,
            ConcurrentRun {
                threads: 4,
                ops_per_thread: 2_000,
                seed: 0xC0C0,
                chaos: false,
            },
        )
        .expect("clean run agrees");
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.ops, 8_000);
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(stats.escalations, 0);
    }

    #[test]
    fn chaos_run_trips_or_escalates_some_but_not_all_shards() {
        let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("pattern");
        let pool = ssn_pool(240);
        let stats = check_concurrent_map(
            &pattern,
            Family::OffXor,
            CityHash::new(),
            &pool,
            ConcurrentRun {
                threads: 3,
                ops_per_thread: 4_000,
                seed: 0xD1F7,
                chaos: true,
            },
        )
        .expect("chaos run agrees");
        assert!(stats.escalations + stats.drift_trips >= 1, "{stats:?}");
        assert_eq!(
            stats.resyntheses,
            stats.escalations + stats.drift_trips,
            "{stats:?}"
        );
    }
}
