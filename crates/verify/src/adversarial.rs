//! HashDoS chaos harness: scripted attackers vs. the escalation ladder.
//!
//! The checks in this module drive the collision-storm detector and the
//! `Specialized → Keyed(seed) → Keyed(rotated seed)`
//! escalation ladder with the strongest attacker the threat model admits:
//! one who holds the binary, knows the synthesized plan and the fallback
//! hash, and (for the seed-leak phase) has read the current seed. Every
//! run keeps a `std::collections::HashMap` twin and a transcript of the
//! transitions the harness provoked, and requires:
//!
//! * **bounded damage** — once escalated, the longest bucket chain drops
//!   back to within a small factor of the benign baseline, however many
//!   crafted keys the attacker streams;
//! * **content integrity** — contents always match the twin, through
//!   escalations, incremental re-key migrations, and de-escalation;
//! * **counter discipline** — the escalation / de-escalation /
//!   seed-rotation counters exactly equal the harness transcript;
//! * **hysteresis** — benign workloads never trip the detector;
//! * **cause-aware exits** — a held drift trip never trips again before
//!   the resynthesis that acts on it, and a storm rung is never left while
//!   its flood is resident.

use std::collections::HashMap;
use std::sync::Mutex;

use sepe_containers::{AttackPolicy, DriftPolicy, ShardedMap, UnorderedMap};
use sepe_core::guard::{GuardMode, GuardedHash};
use sepe_core::hash::{ByteHash, FixedSeedSource, HashBatch, SynthesizedHash};
use sepe_core::pattern::KeyPattern;
use sepe_core::synth::Family;
use sepe_keygen::SplitMix64;
use sepe_obs::ObsEvent;

use crate::attacker;

/// Colliding keys each attack wave streams at the container.
const FLOOD_KEYS: usize = 48;

/// Post-escalation bound: the longest chain must come back to within this
/// factor of the benign baseline (with a small absolute floor so tiny
/// baselines don't make the bound vacuous or flaky).
const CHAIN_BOUND_FACTOR: usize = 4;
const CHAIN_BOUND_FLOOR: usize = 8;

/// Detector policy used by the attack checks: the production skew and
/// chain thresholds, but sized for harness pools and ticked twice per
/// decision so the hysteresis streaks are exercised, not bypassed.
fn harness_policy() -> AttackPolicy {
    AttackPolicy {
        min_len: 32,
        trip_streak: 2,
        quiet_streak: 2,
        ..AttackPolicy::default()
    }
}

fn chain_bound(benign_chain: usize) -> usize {
    (benign_chain.max(1) * CHAIN_BOUND_FACTOR).max(CHAIN_BOUND_FLOOR)
}

/// Tallies of one ladder run, for the suite summary line.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdversarialStats {
    /// Container operations driven (inserts, lookups, removals).
    pub ops: u64,
    /// Escalation rungs the harness provoked and verified.
    pub escalations: u64,
    /// Quiet-window de-escalations provoked and verified.
    pub deescalations: u64,
    /// Keyed-rung seed rotations provoked and verified.
    pub rotations: u64,
    /// Full-content comparisons against the `HashMap` twin.
    pub checkpoints: u64,
    /// Worker threads spawned (sharded check only).
    pub threads: u64,
}

impl AdversarialStats {
    /// Accumulates another run's tallies.
    pub fn absorb(&mut self, other: AdversarialStats) {
        self.ops += other.ops;
        self.escalations += other.escalations;
        self.deescalations += other.deescalations;
        self.rotations += other.rotations;
        self.checkpoints += other.checkpoints;
        self.threads += other.threads;
    }
}

type GuardedMap<G> = UnorderedMap<Vec<u8>, u64, GuardedHash<SynthesizedHash, G>>;

fn check_twin<G: ByteHash>(
    map: &GuardedMap<G>,
    twin: &HashMap<Vec<u8>, u64>,
    when: &str,
) -> Result<(), String> {
    if map.len() != twin.len() {
        return Err(format!(
            "{when}: map holds {} entries, twin {}",
            map.len(),
            twin.len()
        ));
    }
    for (k, v) in twin {
        if map.get(k.as_slice()) != Some(v) {
            return Err(format!(
                "{when}: key {:?} is {:?} in the map, {v} in the twin",
                String::from_utf8_lossy(k),
                map.get(k.as_slice())
            ));
        }
    }
    Ok(())
}

/// Ticks the detector until it takes exactly one rung (the rotation rung
/// does not change the mode, so "one trip" is the unit, not "mode
/// changed"), then drains the re-key migration so the caller sees live
/// chains. `from` labels the failure message.
fn escalate_one_rung<G: ByteHash + Clone>(
    map: &mut GuardedMap<G>,
    policy: &AttackPolicy,
    seeds: &FixedSeedSource,
    from: GuardMode,
) -> Result<u64, String> {
    for _ in 0..8 {
        if map.maybe_escalate(policy, seeds) {
            map.finish_migration();
            return Ok(1);
        }
    }
    Err(format!(
        "detector never escalated off {from:?} under a sustained storm"
    ))
}

/// Drives one `UnorderedMap` up the full ladder and back down.
///
/// Phases: benign fill (must not escalate) → unkeyed flood forged against
/// `hash_of` (must reach `Keyed` in one rung, where the chain bound is
/// restored) → a second flood forged against the *keyed* hash,
/// simulating a seed leak (must rotate the seed and restore the bound) →
/// attack traffic removed (must de-escalate back to the specialized hash).
/// The twin is consulted at every phase boundary, and the ladder counters
/// must equal the transcript at the end.
pub fn check_escalation_ladder<G>(
    pattern: &KeyPattern,
    family: Family,
    fallback: G,
    benign: &[Vec<u8>],
    seed: u64,
) -> Result<AdversarialStats, String>
where
    G: ByteHash + Clone,
{
    if benign.len() < 64 {
        return Err(format!("need ≥ 64 benign keys, got {}", benign.len()));
    }
    let hasher = GuardedHash::from_pattern(pattern, family, fallback);
    let mut map: GuardedMap<G> = UnorderedMap::with_hasher(hasher);
    let mut twin: HashMap<Vec<u8>, u64> = HashMap::new();
    let seeds = FixedSeedSource::new(seed | 1);
    let policy = harness_policy();
    let mut stats = AdversarialStats::default();

    for (i, k) in benign.iter().enumerate() {
        map.insert(k.clone(), i as u64);
        twin.insert(k.clone(), i as u64);
        stats.ops += 1;
    }
    // Headroom so the floods below cannot grow the table: the attacker
    // forges against the *current* bucket count, and a resize mid-stream
    // would dilute the storm (and test less than the worst case).
    map.reserve(4 * FLOOD_KEYS + benign.len());
    for _ in 0..4 {
        if map.maybe_escalate(&policy, &seeds) {
            return Err("benign fill escalated the specialized hasher".into());
        }
    }
    let bound = chain_bound(map.max_bucket_len());
    check_twin(&map, &twin, "after benign fill")?;
    stats.checkpoints += 1;

    // Phase 1: flood forged against the live routing (specialized hash /
    // off-format fallback — both adversary-computable).
    let flood = {
        let buckets = map.bucket_count() as u64;
        attacker::bucket_flood(|k| map.hash_of(k), buckets, FLOOD_KEYS, seed)
    };
    for (i, k) in flood.iter().enumerate() {
        map.insert(k.clone(), 1_000_000 + i as u64);
        twin.insert(k.clone(), 1_000_000 + i as u64);
        stats.ops += 1;
    }
    if map.max_bucket_len() < FLOOD_KEYS {
        return Err("unkeyed flood failed to pile onto one bucket".into());
    }
    // The fallback is as unkeyed as the specialized route, so one storm
    // rung goes straight to the secret seed.
    stats.escalations += escalate_one_rung(&mut map, &policy, &seeds, GuardMode::Guarded)?;
    if map.guard_mode() != GuardMode::Keyed {
        return Err(format!(
            "first rung should be Keyed, got {:?}",
            map.guard_mode()
        ));
    }
    if map.max_bucket_len() > bound {
        return Err(format!(
            "keyed re-hash left a chain of {} (bound {bound})",
            map.max_bucket_len()
        ));
    }
    check_twin(&map, &twin, "after escalating to Keyed")?;
    stats.checkpoints += 1;

    // Phase 2: the seed leaks — the attacker forges against the *keyed*
    // hash. The detector must respond by rotating the seed.
    let leak_flood = {
        let buckets = map.bucket_count() as u64;
        attacker::bucket_flood(|k| map.hash_of(k), buckets, FLOOD_KEYS, seed ^ 0xB00)
    };
    let probe = leak_flood[0].clone();
    let hash_before = map.hash_of(&probe);
    for (i, k) in leak_flood.iter().enumerate() {
        map.insert(k.clone(), 2_000_000 + i as u64);
        twin.insert(k.clone(), 2_000_000 + i as u64);
        stats.ops += 1;
    }
    if map.max_bucket_len() < FLOOD_KEYS {
        return Err("leaked-seed flood failed to pile onto one bucket".into());
    }
    let rotations_before = map.seed_rotations();
    stats.escalations += escalate_one_rung(&mut map, &policy, &seeds, GuardMode::Keyed)?;
    stats.rotations += 1;
    if map.guard_mode() != GuardMode::Keyed {
        return Err(format!(
            "rotation must stay on the keyed rung, got {:?}",
            map.guard_mode()
        ));
    }
    if map.hash_of(&probe) == hash_before {
        return Err("seed rotation did not change the keyed routing".into());
    }
    if map.seed_rotations() != rotations_before + 1 {
        return Err(format!(
            "seed rotation counter went {rotations_before} -> {} across one rotation",
            map.seed_rotations()
        ));
    }
    if map.max_bucket_len() > bound {
        return Err(format!(
            "rotated re-hash left a chain of {} (bound {bound})",
            map.max_bucket_len()
        ));
    }
    check_twin(&map, &twin, "after rotating the seed")?;
    stats.checkpoints += 1;

    // Phase 3: attack stops; a quiet window must re-arm the specialized
    // hasher (all the way down, not rung by rung).
    for k in flood.iter().chain(leak_flood.iter()) {
        if map.remove(k.as_slice()) != twin.remove(k.as_slice()) {
            return Err("map and twin disagreed while clearing attack keys".into());
        }
        stats.ops += 1;
    }
    let mut rearmed = false;
    for _ in 0..8 {
        if map.maybe_deescalate(&policy) {
            rearmed = true;
            break;
        }
    }
    if !rearmed || map.guard_mode() != GuardMode::Guarded {
        return Err(format!(
            "quiet window never re-armed the specialized hasher (mode {:?})",
            map.guard_mode()
        ));
    }
    map.finish_migration();
    stats.deescalations += 1;
    check_twin(&map, &twin, "after de-escalating")?;
    stats.checkpoints += 1;

    let (esc, deesc, rot) = (map.escalations(), map.deescalations(), map.seed_rotations());
    if (esc, deesc, rot) != (stats.escalations, stats.deescalations, stats.rotations) {
        return Err(format!(
            "ladder counters (esc {esc}, deesc {deesc}, rot {rot}) disagree with the \
             transcript (esc {}, deesc {}, rot {})",
            stats.escalations, stats.deescalations, stats.rotations
        ));
    }
    Ok(stats)
}

/// Operations served between two maintenance ticks in
/// [`check_drift_flood_calm`].
const TICK_OPS: usize = 32;

/// One map served the way a server runs it: a burst of traffic, then one
/// maintenance tick (`maybe_degrade`, `maybe_escalate`, `maybe_deescalate`,
/// in that order), with every transition the tick reports written to the
/// transcript.
struct Served<G: ByteHash> {
    map: GuardedMap<G>,
    twin: HashMap<Vec<u8>, u64>,
    seeds: FixedSeedSource,
    attack: AttackPolicy,
    drift: DriftPolicy,
    rng: SplitMix64,
    stats: AdversarialStats,
    trips: u64,
}

impl<G: ByteHash + Clone> Served<G> {
    /// [`TICK_OPS`] lookups and overwrites of `keys`, each checked
    /// against the twin.
    fn serve(&mut self, keys: &[&[u8]]) -> Result<(), String> {
        for _ in 0..TICK_OPS {
            let r = self.rng.next_u64();
            let k = keys[(r >> 1) as usize % keys.len()];
            if r & 1 == 1 {
                self.insert(k, r >> 8)?;
            } else if self.map.get(k) != self.twin.get(k) {
                return Err(format!("get {:?} disagreed", String::from_utf8_lossy(k)));
            } else {
                self.stats.ops += 1;
            }
        }
        Ok(())
    }

    fn insert(&mut self, k: &[u8], v: u64) -> Result<(), String> {
        self.stats.ops += 1;
        if self.map.insert(k.to_vec(), v) != self.twin.insert(k.to_vec(), v) {
            return Err(format!("insert {:?} disagreed", String::from_utf8_lossy(k)));
        }
        Ok(())
    }

    fn remove(&mut self, k: &[u8]) -> Result<(), String> {
        self.stats.ops += 1;
        if self.map.remove(k) != self.twin.remove(k) {
            return Err(format!("remove {:?} disagreed", String::from_utf8_lossy(k)));
        }
        Ok(())
    }

    /// One maintenance tick; returns whether its drift window tripped,
    /// and whether it escalated and de-escalated.
    fn tick(&mut self) -> (bool, bool, bool) {
        let tripped = self.map.maybe_degrade(&self.drift);
        let from = self.map.guard_mode();
        let escalated = self.map.maybe_escalate(&self.attack, &self.seeds);
        let deescalated = self.map.maybe_deescalate(&self.attack);
        self.trips += u64::from(tripped);
        self.stats.escalations += u64::from(escalated);
        self.stats.rotations += u64::from(escalated && from == GuardMode::Keyed);
        self.stats.deescalations += u64::from(deescalated);
        (tripped, escalated, deescalated)
    }

    /// A tick that must take no transition.
    fn calm_tick(&mut self, when: &str) -> Result<(), String> {
        match self.tick() {
            (false, false, false) => Ok(()),
            moves => Err(format!(
                "{when}: a tick took (drift trip, escalate, de-escalate) {moves:?} on {:?}",
                self.map.guard_mode()
            )),
        }
    }

    fn checkpoint(&mut self, when: &str) -> Result<(), String> {
        self.stats.checkpoints += 1;
        check_twin(&self.map, &self.twin, when)
    }
}

/// Drift, then a flood, then calm, on one `UnorderedMap` ticked like a
/// serving map: the sequence that makes a ladder flap if a held drift trip
/// can trip again, or a keyed rung can re-arm onto a flood that is still
/// stored.
///
/// The transcript must read: one drift trip, held on the guarded route
/// (no epoch opened) through calm ticks until an inline resynthesis widens
/// the guard; a flood forged against
/// the re-armed routing, answered by the keyed rung in one escalation
/// and held there while the flood stays resident; exactly one
/// de-escalation once the flood is removed, and no transition after it.
/// The ladder counters must equal the transcript and the twin must agree
/// at every checkpoint.
pub fn check_drift_flood_calm<G>(
    pattern: &KeyPattern,
    family: Family,
    fallback: G,
    benign: &[Vec<u8>],
    seed: u64,
) -> Result<AdversarialStats, String>
where
    G: ByteHash + Clone,
{
    if benign.len() < 64 {
        return Err(format!("need ≥ 64 benign keys, got {}", benign.len()));
    }
    // Drifted keys keep the format's length but put a byte the pattern
    // does not admit at its first constrained position, so a resynthesis
    // can widen the pattern to them.
    let (at, stray) = (0..pattern.min_len())
        .find_map(|i| {
            let admitted: Vec<u8> = pattern.bytes()[i].possible_bytes().collect();
            (0..=u8::MAX)
                .find(|b| !admitted.contains(b))
                .map(|b| (i, b))
        })
        .ok_or("the pattern admits every byte at every position")?;
    let drift: Vec<Vec<u8>> = {
        let mut seen = std::collections::HashSet::new();
        benign
            .iter()
            .map(|k| {
                let mut k = k.clone();
                k[at] = stray;
                k
            })
            .filter(|k| seen.insert(k.clone()))
            .take(benign.len() / 2)
            .collect()
    };
    let mut s = Served {
        map: UnorderedMap::with_hasher(GuardedHash::from_pattern(pattern, family, fallback)),
        twin: HashMap::new(),
        seeds: FixedSeedSource::new(seed | 1),
        attack: harness_policy(),
        drift: DriftPolicy {
            threshold: 0.10,
            min_samples: 32,
            window: 256,
        },
        rng: SplitMix64::new(seed ^ 0xD21F),
        stats: AdversarialStats::default(),
        trips: 0,
    };
    let quiet = s.attack.quiet_streak.max(1);
    for (i, k) in benign.iter().enumerate() {
        s.insert(k, i as u64)?;
    }
    // Room for the drift and the flood: the flood is forged against the
    // bucket count it must find.
    s.map.reserve(drift.len() + FLOOD_KEYS);
    let benign_refs: Vec<&[u8]> = benign.iter().map(Vec::as_slice).collect();
    for _ in 0..8 {
        s.serve(&benign_refs)?;
        s.calm_tick("benign prefix")?;
    }
    s.checkpoint("after the benign prefix")?;

    // Drift: a third of each burst is new off-format keys.
    for chunk in drift.chunks(TICK_OPS / 3) {
        for (i, k) in chunk.iter().enumerate() {
            s.insert(k, 500_000 + i as u64)?;
        }
        s.serve(&benign_refs)?;
        let (_, escalated, deescalated) = s.tick();
        if escalated || deescalated {
            return Err(format!(
                "drift moved the storm ladder ({:?})",
                s.map.guard_mode()
            ));
        }
    }
    if s.trips != 1 || s.map.guard_mode() != GuardMode::Guarded || s.map.drift_trip().is_none() {
        return Err(format!(
            "drift took {} trips, left the map {:?} holding {:?}",
            s.trips,
            s.map.guard_mode(),
            s.map.drift_trip()
        ));
    }
    if s.map.migration_in_flight() {
        return Err("the drift trip opened a migration epoch".into());
    }
    for _ in 0..8 * quiet {
        s.serve(&benign_refs)?;
        s.calm_tick("calm after the drift trip")?;
    }
    s.checkpoint("drift trip held through calm ticks")?;
    if !s.map.resynthesize().is_applied()
        || s.map.guard_mode() != GuardMode::Guarded
        || s.map.drift_trip().is_some()
    {
        return Err(format!(
            "resynthesis did not clear the drift trip ({:?}, holding {:?})",
            s.map.guard_mode(),
            s.map.drift_trip()
        ));
    }
    s.checkpoint("after the resynthesis")?;

    // A flood forged against the live, re-armed routing, one key per
    // tick inside traffic that looks the flood up too, so its off-format
    // share stays under the drift threshold and only the storm signals
    // can see it.
    let flood = {
        // Forged offline: a counter-silent copy, so the forgery's hash
        // evaluations do not count as drift.
        let frozen = s.map.hasher().epoch_frozen(GuardMode::Guarded);
        let buckets = s.map.bucket_count() as u64;
        attacker::bucket_flood(|k| frozen.hash_bytes(k), buckets, FLOOD_KEYS, seed ^ 0xF10D)
    };
    let mut hammered: Vec<&[u8]> = benign_refs.repeat(8);
    let mut flood_keys = flood.iter().enumerate();
    for _ in 0..FLOOD_KEYS + 16 {
        if let Some((i, k)) = flood_keys.next() {
            s.insert(k, 1_000_000 + i as u64)?;
            hammered.push(k);
        } else if s.map.guard_mode() == GuardMode::Keyed {
            break;
        }
        s.serve(&hammered)?;
        let (tripped, _, deescalated) = s.tick();
        if tripped || deescalated {
            return Err(format!(
                "the flood tripped drift or de-escalated the map ({:?})",
                s.map.guard_mode()
            ));
        }
    }
    if s.map.guard_mode() != GuardMode::Keyed || s.stats.escalations != 1 {
        return Err(format!(
            "the flood took {} escalations and left the map {:?}",
            s.stats.escalations,
            s.map.guard_mode()
        ));
    }
    s.checkpoint("flood answered by the keyed rung")?;
    for _ in 0..16 * quiet {
        s.serve(&hammered)?;
        s.calm_tick("keyed rung with the flood resident")?;
    }
    s.checkpoint("keyed rung held while the flood is resident")?;

    // Calm: the flood leaves, and one streak later so does the keyed rung.
    for k in &flood {
        s.remove(k)?;
    }
    for _ in 0..32 * quiet {
        s.serve(&benign_refs)?;
        let (tripped, escalated, deescalated) = s.tick();
        if tripped || escalated {
            return Err("calm traffic tripped drift or escalated the map".into());
        }
        if deescalated {
            break;
        }
    }
    if s.stats.deescalations != 1 || s.map.guard_mode() != GuardMode::Guarded {
        return Err(format!(
            "calm took {} de-escalations and left the map {:?}",
            s.stats.deescalations,
            s.map.guard_mode()
        ));
    }
    s.checkpoint("after de-escalating, mid-drain")?;
    for _ in 0..8 * quiet {
        s.serve(&benign_refs)?;
        s.calm_tick("calm after the de-escalation")?;
    }
    s.map.finish_migration();
    s.checkpoint("after calm")?;

    let (esc, deesc, rot) = (
        s.map.escalations(),
        s.map.deescalations(),
        s.map.seed_rotations(),
    );
    if (esc, deesc, rot)
        != (
            s.stats.escalations,
            s.stats.deescalations,
            s.stats.rotations,
        )
    {
        return Err(format!(
            "ladder counters (esc {esc}, deesc {deesc}, rot {rot}) disagree with the \
             transcript (esc {}, deesc {}, rot {})",
            s.stats.escalations, s.stats.deescalations, s.stats.rotations
        ));
    }
    Ok(s.stats)
}

/// Runs a benign insert/lookup/remove churn workload with the *default*
/// (production) [`AttackPolicy`] ticked throughout, and fails if the
/// detector ever escalates: hysteresis must make benign traffic, including
/// its natural longest chains and churn-induced drift, invisible to the
/// ladder. Returns the number of detector ticks survived.
pub fn check_benign_stays_specialized<G>(
    pattern: &KeyPattern,
    family: Family,
    fallback: G,
    benign: &[Vec<u8>],
    seed: u64,
) -> Result<u64, String>
where
    G: ByteHash + Clone,
{
    let hasher = GuardedHash::from_pattern(pattern, family, fallback);
    let mut map: GuardedMap<G> = UnorderedMap::with_hasher(hasher);
    let seeds = FixedSeedSource::new(seed | 1);
    let policy = AttackPolicy::default();
    let mut rng = SplitMix64::new(seed ^ 0xBE9);
    let mut ticks = 0u64;

    let tick = |map: &mut GuardedMap<G>, ticks: &mut u64| -> Result<(), String> {
        if map.maybe_escalate(&policy, &seeds) {
            return Err(format!(
                "benign workload escalated after {ticks} calm ticks (chain {}, {} entries)",
                map.max_bucket_len(),
                map.len()
            ));
        }
        *ticks += 1;
        Ok(())
    };

    for round in 0..3u64 {
        for (i, k) in benign.iter().enumerate() {
            map.insert(k.clone(), round * 100_000 + i as u64);
            if i % 16 == 0 {
                tick(&mut map, &mut ticks)?;
            }
        }
        for k in benign {
            let _ = map.get(k.as_slice());
        }
        tick(&mut map, &mut ticks)?;
        for (i, k) in benign.iter().enumerate() {
            if rng.next_u64().is_multiple_of(2) || i.is_multiple_of(3) {
                map.remove(k.as_slice());
            }
        }
        tick(&mut map, &mut ticks)?;
    }
    if map.guard_mode() != GuardMode::Guarded {
        return Err(format!(
            "benign workload left the map in {:?}",
            map.guard_mode()
        ));
    }
    if map.escalations() != 0 {
        return Err(format!(
            "benign workload bumped the escalation counter to {}",
            map.escalations()
        ));
    }
    Ok(ticks)
}

/// The batched twin of [`check_escalation_ladder`]: the flood arrives via
/// `insert_batch`, lookups go through `get_batch` (benign, attack, and
/// missing keys interleaved), and both are re-checked *mid-migration*
/// while an escalation re-key is still draining. Returns ops driven.
pub fn check_batched_attack<G>(
    pattern: &KeyPattern,
    family: Family,
    fallback: G,
    benign: &[Vec<u8>],
    seed: u64,
) -> Result<u64, String>
where
    G: ByteHash + Clone,
    GuardedHash<SynthesizedHash, G>: HashBatch,
{
    let hasher = GuardedHash::from_pattern(pattern, family, fallback);
    let mut map: GuardedMap<G> = UnorderedMap::with_hasher(hasher);
    let mut twin: HashMap<Vec<u8>, u64> = HashMap::new();
    let seeds = FixedSeedSource::new(seed | 1);
    let policy = harness_policy();
    let mut ops = 0u64;

    let pairs: Vec<(Vec<u8>, u64)> = benign
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), i as u64))
        .collect();
    twin.extend(pairs.iter().cloned());
    ops += pairs.len() as u64;
    map.insert_batch(pairs);
    map.reserve(4 * FLOOD_KEYS + benign.len());
    let bound = chain_bound(map.max_bucket_len());

    let flood = {
        let buckets = map.bucket_count() as u64;
        attacker::bucket_flood(|k| map.hash_of(k), buckets, FLOOD_KEYS, seed ^ 0xBA7)
    };
    let flood_pairs: Vec<(Vec<u8>, u64)> = flood
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), 1_000_000 + i as u64))
        .collect();
    let prev = map.insert_batch(flood_pairs.clone());
    if prev.iter().any(Option::is_some) {
        return Err("batched flood reported phantom previous values".into());
    }
    twin.extend(flood_pairs);
    ops += flood.len() as u64;
    if map.max_bucket_len() < FLOOD_KEYS {
        return Err("batched flood failed to pile onto one bucket".into());
    }

    let missing: Vec<Vec<u8>> = (0..16)
        .map(|i| format!("mss-{seed:08x}-{i:04x}").into_bytes())
        .collect();
    let batch_agree = |map: &GuardedMap<G>,
                       twin: &HashMap<Vec<u8>, u64>,
                       when: &str,
                       ops: &mut u64|
     -> Result<(), String> {
        let keys: Vec<&[u8]> = benign
            .iter()
            .chain(flood.iter())
            .chain(missing.iter())
            .map(Vec::as_slice)
            .collect();
        let got = map.get_batch(&keys);
        *ops += keys.len() as u64;
        for (k, g) in keys.iter().zip(&got) {
            if g.copied() != twin.get(*k).copied() {
                return Err(format!(
                    "{when}: get_batch disagreed with the twin on {:?}",
                    String::from_utf8_lossy(k)
                ));
            }
        }
        Ok(())
    };
    batch_agree(&map, &twin, "under flood, before escalation", &mut ops)?;

    // Trip the first rung but do NOT drain: the batched paths must stay
    // correct while the re-key migration is in flight.
    for _ in 0..4 {
        if map.maybe_escalate(&policy, &seeds) {
            break;
        }
    }
    if map.guard_mode() != GuardMode::Keyed || !map.migration_in_flight() {
        return Err(format!(
            "expected an in-flight Keyed migration, got {:?} (in flight: {})",
            map.guard_mode(),
            map.migration_in_flight()
        ));
    }
    batch_agree(&map, &twin, "mid-migration", &mut ops)?;
    let wave: Vec<(Vec<u8>, u64)> = (0..16)
        .map(|i| {
            (
                format!("mid-{seed:08x}-{i:04x}").into_bytes(),
                3_000_000 + i as u64,
            )
        })
        .collect();
    twin.extend(wave.iter().cloned());
    ops += wave.len() as u64;
    map.insert_batch(wave);
    batch_agree(
        &map,
        &twin,
        "mid-migration, after batched inserts",
        &mut ops,
    )?;

    // The one storm rung was the keyed one.
    map.finish_migration();
    if map.max_bucket_len() > bound {
        return Err(format!(
            "keyed re-hash left a chain of {} (bound {bound})",
            map.max_bucket_len()
        ));
    }
    batch_agree(&map, &twin, "after the keyed re-hash", &mut ops)?;
    Ok(ops)
}

/// Configuration for [`check_sharded_attack`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedAttackRun {
    /// Benign worker threads (each owns a disjoint key partition).
    pub threads: usize,
    /// Operations per worker thread.
    pub ops_per_thread: usize,
    /// Seed for key partitioning, per-thread RNGs, and the seed source.
    pub seed: u64,
}

fn sharded_twin_check<G>(
    map: &ShardedMap<Vec<u8>, u64, SynthesizedHash, G>,
    twin: &Mutex<HashMap<Vec<u8>, u64>>,
    when: &str,
) -> Result<(), String>
where
    G: ByteHash + Clone,
    GuardedHash<SynthesizedHash, G>: HashBatch,
{
    let twin = twin
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if map.len() != twin.len() {
        return Err(format!(
            "{when}: sharded map holds {} entries, twin {}",
            map.len(),
            twin.len()
        ));
    }
    // Batched lookups across shards double as the sharded batch-path
    // coverage: every twin key must come back with the twin's value.
    let keys: Vec<&[u8]> = twin.keys().map(Vec::as_slice).collect();
    let got = map.get_batch(&keys);
    for (k, g) in keys.iter().zip(&got) {
        if g.as_ref() != twin.get(*k) {
            return Err(format!(
                "{when}: get_batch disagreed with the twin on {:?}",
                String::from_utf8_lossy(k)
            ));
        }
    }
    Ok(())
}

/// A crafted flood against one shard of a live, concurrently hammered
/// [`ShardedMap`] — the integration check for the whole defense.
///
/// Worker threads churn disjoint benign partitions against a
/// `Mutex<HashMap>` twin while the attacker (who can compute the routing
/// hash and read the shard layout) streams keys that all land in one
/// bucket of one shard. The detector must escalate *that shard only*
/// to `Keyed`, in one rung, and restore the chain bound; a scripted
/// seed rotation and a quiet-window de-escalation follow. Shard routing is
/// frozen at construction, so every rung leaves the attack keys in the
/// same shard — the blast radius stays one shard by design. Counters and
/// the per-shard event transcript must match the harness transcript
/// exactly.
pub fn check_sharded_attack<G>(
    pattern: &KeyPattern,
    family: Family,
    fallback: G,
    benign: &[Vec<u8>],
    run: ShardedAttackRun,
) -> Result<AdversarialStats, String>
where
    G: ByteHash + Clone + Send + Sync,
    GuardedHash<SynthesizedHash, G>: HashBatch,
{
    const SHARDS: usize = 8;
    let hasher = GuardedHash::from_pattern(pattern, family, fallback);
    // The attacker's oracle: a clone pinned (by never being escalated) to
    // the same Guarded routing the map's frozen shard router uses, so it
    // predicts both the shard and the in-shard bucket of off-format keys.
    let oracle = hasher.clone();
    let map: ShardedMap<Vec<u8>, u64, SynthesizedHash, G> = ShardedMap::with_hasher(hasher, SHARDS);
    let twin: Mutex<HashMap<Vec<u8>, u64>> = Mutex::new(HashMap::new());
    let seeds = FixedSeedSource::new(run.seed | 1);
    let policy = harness_policy();
    let mut stats = AdversarialStats::default();

    for (i, k) in benign.iter().enumerate() {
        map.insert(k.clone(), i as u64);
        twin.lock().unwrap().insert(k.clone(), i as u64);
        stats.ops += 1;
    }

    // Pre-grow the target shard with throwaway keys so its bucket count
    // is stable while the flood streams in (the attacker forges against
    // the final layout; a mid-stream resize would dilute the storm).
    let shard_bits = map.shard_count().trailing_zeros();
    let target = 3 % map.shard_count();
    let mut filler = Vec::new();
    let mut i = 0u64;
    while filler.len() < 512 {
        let k = format!("flr-{i:08x}").into_bytes();
        i += 1;
        if map.shard_of(&k) == target {
            filler.push(k);
        }
    }
    for k in &filler {
        map.insert(k.clone(), u64::MAX);
    }
    for k in &filler {
        map.remove(k.as_slice());
    }
    let buckets = map.shard_bucket_count(target) as u64;
    let bound = chain_bound(map.shard_max_bucket_len(target));

    // Forge the flood with full layout knowledge: same shard (top bits of
    // the frozen router hash) and same bucket (hash mod bucket count).
    let flood = {
        let mut keys = Vec::with_capacity(FLOOD_KEYS);
        let mut bucket = None;
        let mut i = 0u64;
        while keys.len() < FLOOD_KEYS {
            let k = format!("atk-{:08x}-{i:016x}", run.seed).into_bytes();
            i += 1;
            let h = oracle.hash_bytes(&k);
            if (h >> (64 - shard_bits)) as usize != target {
                continue;
            }
            let b = *bucket.get_or_insert(h % buckets);
            if h % buckets == b {
                keys.push(k);
            }
        }
        keys
    };

    let worker_errors: Vec<String> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..run.threads {
            let partition: Vec<&Vec<u8>> = benign
                .iter()
                .enumerate()
                .filter(|(i, _)| i % run.threads == t)
                .map(|(_, k)| k)
                .collect();
            let (map, twin) = (&map, &twin);
            handles.push(scope.spawn(move || -> Result<u64, String> {
                let mut rng = SplitMix64::new(run.seed ^ (t as u64) << 8);
                let mut ops = 0u64;
                for _ in 0..run.ops_per_thread {
                    let k = partition[(rng.next_u64() % partition.len() as u64) as usize];
                    // Disjoint partitions make each per-key history
                    // single-writer, so op results are comparable even
                    // though the twin lock and the shard lock are taken
                    // separately.
                    match rng.next_u64() % 3 {
                        0 => {
                            let v = rng.next_u64() >> 1;
                            let got = map.insert(k.clone(), v);
                            let want = twin.lock().unwrap().insert(k.clone(), v);
                            if got != want {
                                return Err(format!("insert saw {got:?}, twin {want:?}"));
                            }
                        }
                        1 => {
                            let got = map.get(k.as_slice());
                            let want = twin.lock().unwrap().get(k.as_slice()).copied();
                            if got != want {
                                return Err(format!("get saw {got:?}, twin {want:?}"));
                            }
                        }
                        _ => {
                            let got = map.remove(k.as_slice());
                            let want = twin.lock().unwrap().remove(k.as_slice());
                            if got != want {
                                return Err(format!("remove saw {got:?}, twin {want:?}"));
                            }
                        }
                    }
                    ops += 1;
                }
                Ok(ops)
            }));
        }

        // The attack runs while the workers churn: stream the flood, then
        // tick the detector (and drain re-key migrations) until the
        // target shard reaches the keyed rung.
        let mut flood_it = flood.iter().enumerate();
        let mut err = None;
        let mut escalated = 0u64;
        'attack: {
            for (i, k) in &mut flood_it {
                map.insert(k.clone(), 1_000_000 + i as u64);
                twin.lock().unwrap().insert(k.clone(), 1_000_000 + i as u64);
                stats.ops += 1;
            }
            for _ in 0..16 {
                escalated += map.maybe_escalate(&policy, &seeds) as u64;
                map.migrate(2048);
                if map.shard_mode(target) == GuardMode::Keyed {
                    break;
                }
            }
            if map.shard_mode(target) != GuardMode::Keyed {
                err = Some(format!(
                    "target shard never reached Keyed (mode {:?}, {escalated} rungs)",
                    map.shard_mode(target)
                ));
                break 'attack;
            }
            if escalated != 1 {
                err = Some(format!("expected 1 detector rung, saw {escalated}"));
                break 'attack;
            }
            stats.escalations += escalated;

            // Scripted seed rotation on the keyed rung (the operator's
            // response to a suspected leak), then the storm ends.
            map.escalate_shard(target, &seeds);
            stats.escalations += 1;
            stats.rotations += 1;
            map.finish_migrations();
            if map.shard_max_bucket_len(target) > bound {
                err = Some(format!(
                    "keyed shard still has a chain of {} (bound {bound})",
                    map.shard_max_bucket_len(target)
                ));
                break 'attack;
            }
            for k in &flood {
                map.remove(k.as_slice());
                twin.lock().unwrap().remove(k.as_slice());
                stats.ops += 1;
            }
            for _ in 0..8 {
                if map.maybe_deescalate(&policy) > 0 {
                    stats.deescalations += 1;
                    break;
                }
            }
            if map.shard_mode(target) != GuardMode::Guarded {
                err = Some(format!(
                    "quiet window never re-armed shard {target} (mode {:?})",
                    map.shard_mode(target)
                ));
            }
        }

        let mut errors: Vec<String> = err.into_iter().collect();
        for (t, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(Ok(ops)) => {
                    stats.ops += ops;
                    stats.threads += 1;
                }
                Ok(Err(e)) => errors.push(format!("worker {t}: {e}")),
                Err(_) => errors.push(format!("worker {t} panicked")),
            }
        }
        errors
    });
    if let Some(e) = worker_errors.first() {
        return Err(format!("{e} ({} errors total)", worker_errors.len()));
    }

    map.finish_migrations();
    for i in 0..map.shard_count() {
        if i != target && map.shard_mode(i) != GuardMode::Guarded {
            return Err(format!(
                "escalation leaked to sibling shard {i} ({:?})",
                map.shard_mode(i)
            ));
        }
    }
    sharded_twin_check(&map, &twin, "after the attack")?;
    stats.checkpoints += 1;

    let (esc, deesc, rot) = (
        map.shard_escalation_count(),
        map.shard_deescalation_count(),
        map.shard_seed_rotation_count(),
    );
    if (esc, deesc, rot) != (stats.escalations, stats.deescalations, stats.rotations) {
        return Err(format!(
            "shard counters (esc {esc}, deesc {deesc}, rot {rot}) disagree with the \
             transcript (esc {}, deesc {}, rot {})",
            stats.escalations, stats.deescalations, stats.rotations
        ));
    }
    let names: Vec<&str> = map
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                ObsEvent::ShardEscalate { shard }
                | ObsEvent::ShardDeescalate { shard }
                | ObsEvent::SeedRotation { shard } if *shard == target as u64
            )
        })
        .map(ObsEvent::name)
        .collect();
    let want = ["shard_escalate", "seed_rotation", "shard_deescalate"];
    if names != want {
        return Err(format!(
            "target-shard event transcript {names:?} != expected {want:?}"
        ));
    }
    Ok(stats)
}
