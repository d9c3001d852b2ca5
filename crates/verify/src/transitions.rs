//! Exhaustive check of the maintenance ladder's transitions.
//!
//! The random suites sample long operation sequences; this one enumerates
//! *every* sequence up to a small depth over a tiny guarded SSN table, so
//! no interleaving of transitions, drains and data operations near the
//! start of a table's life goes unchecked. The alphabet is the data
//! operations over a four-key universe (three in-format SSNs and one
//! off-format key) plus every maintenance call:
//!
//! * [`check_map`] drives an [`UnorderedMap`] through insert, remove and
//!   get, `escalate_now`, a calm `maybe_escalate` tick (which drains the
//!   epoch's share of the operations served since the last one), a calm
//!   `maybe_deescalate`, a `maybe_degrade` under a policy that trips on
//!   any off-format key in the window, `resynthesize`, `migrate(1)` and
//!   `finish_migration`;
//! * [`check_multimap`] drives an [`UnorderedMultiMap`] through insert,
//!   `remove_one` and count, `resynthesize`, `migrate(1)` and
//!   `finish_migration`, from a guarded and from a keyed start.
//!
//! After every step the table must hold exactly what a
//! `std::collections::HashMap` twin holds, and its mode, ladder counters,
//! keyed seed and drift counts must equal those of an *eager* twin that
//! takes the same calls but finishes every migration epoch at once: an
//! amortized drain never changes a transition. A drift trip must be held:
//! it leaves the map guarded with its counters unchanged, opens no epoch,
//! and does not trip again until a transition clears it; every transition
//! does. A transition requested while an epoch is open (`escalate_now` or
//! an applied `resynthesize`) must merge into it: the epoch stays open and
//! its drain progress does not move, since only the swept side is
//! re-filed and the unswept entries drain straight to the new routing.

use sepe_baselines::CityHash;
use sepe_containers::{AttackPolicy, DriftPolicy, UnorderedMap, UnorderedMultiMap};
use sepe_core::guard::{GuardMode, GuardedHash};
use sepe_core::hash::keyed::FixedSeedSource;
use sepe_core::regex::Regex;
use sepe_core::synth::Family;
use sepe_core::SynthesizedHash;
use std::collections::HashMap;

/// The guarded hasher under test.
pub type Hasher = GuardedHash<SynthesizedHash, CityHash>;

/// The SSN hasher a run at `seed` checks: one family per seed, as in the
/// adversarial suite, so the CI seed matrix covers several specialized
/// plans — among them injective ones, whose in-format hits the tables
/// decide by hash, and Aes, whose hits they decide by bytes.
#[must_use]
pub fn seeded_template(seed: u64) -> Hasher {
    let family = Family::ALL[seed as usize % Family::ALL.len()];
    let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("compiles");
    GuardedHash::from_pattern(&pattern, family, CityHash::new())
}

/// The key universe: three SSNs and one key a byte outside the format,
/// so a resynthesis can widen the plan over it.
pub const KEYS: [&[u8]; 4] = [
    b"123-45-6789",
    b"987-65-4321",
    b"555-00-1234",
    b"123-45-678x",
];

/// One step of a map sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOp {
    /// `insert(KEYS[i], step)`.
    Insert(usize),
    /// `remove(KEYS[i])`.
    Remove(usize),
    /// `get(KEYS[i])`.
    Get(usize),
    /// `escalate_now(seeds)`.
    Escalate,
    /// `maybe_escalate(calm, seeds)`: a tick that judges no storm in a
    /// four-key table, so it only drains.
    Tick,
    /// `maybe_deescalate(calm)`: no storm is visible in a four-key table.
    Deescalate,
    /// `maybe_degrade(`[`TRIP`]`)`: trips on any off-format key in the
    /// window, unless a trip is already held.
    DriftTrip,
    /// `resynthesize()`.
    Resynthesize,
    /// `migrate(1)`.
    Migrate,
    /// `finish_migration()`.
    Finish,
}

/// The drift policy of [`MapOp::DriftTrip`]: any off-format observation
/// in the window trips it.
pub const TRIP: DriftPolicy = DriftPolicy {
    threshold: 0.0,
    min_samples: 1,
    window: 1024,
};

/// Every map operation: 19 in all.
pub const MAP_OPS: [MapOp; 19] = [
    MapOp::Insert(0),
    MapOp::Insert(1),
    MapOp::Insert(2),
    MapOp::Insert(3),
    MapOp::Remove(0),
    MapOp::Remove(1),
    MapOp::Remove(2),
    MapOp::Remove(3),
    MapOp::Get(0),
    MapOp::Get(1),
    MapOp::Get(2),
    MapOp::Get(3),
    MapOp::Escalate,
    MapOp::Tick,
    MapOp::Deescalate,
    MapOp::DriftTrip,
    MapOp::Resynthesize,
    MapOp::Migrate,
    MapOp::Finish,
];

/// One step of a multimap sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiOp {
    /// `insert(KEYS[i], step)`.
    Insert(usize),
    /// `remove_one(KEYS[i])`.
    RemoveOne(usize),
    /// `count(KEYS[i])`.
    Count(usize),
    /// `resynthesize()`: the multimap's one transition, applied once the
    /// off-format key has been sampled on the guarded rung.
    Resynthesize,
    /// `migrate(1)`.
    Migrate,
    /// `finish_migration()`.
    Finish,
}

/// Every multimap operation: 15 in all.
pub const MULTI_OPS: [MultiOp; 15] = [
    MultiOp::Insert(0),
    MultiOp::Insert(1),
    MultiOp::Insert(2),
    MultiOp::Insert(3),
    MultiOp::RemoveOne(0),
    MultiOp::RemoveOne(1),
    MultiOp::RemoveOne(2),
    MultiOp::RemoveOne(3),
    MultiOp::Count(0),
    MultiOp::Count(1),
    MultiOp::Count(2),
    MultiOp::Count(3),
    MultiOp::Resynthesize,
    MultiOp::Migrate,
    MultiOp::Finish,
];

/// What one exhaustive run covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransitionStats {
    /// Sequences replayed (every one of exactly `depth` operations, so
    /// every shorter one is checked as a prefix).
    pub sequences: usize,
    /// Steps checked.
    pub steps: usize,
    /// Steps that began with a migration epoch in flight.
    pub mid_epoch: usize,
    /// Steps that changed the mode, a ladder counter, or the plan.
    pub transitions: usize,
    /// Maintenance ticks that drained part of an open epoch.
    pub tick_drains: usize,
    /// Transitions requested over an open epoch and merged into it.
    pub merges: usize,
    /// Drift trips taken, each checked to be held.
    pub drift_trips: usize,
}

impl TransitionStats {
    /// Accumulates another run's statistics into this one.
    pub fn absorb(&mut self, other: TransitionStats) {
        self.sequences += other.sequences;
        self.steps += other.steps;
        self.mid_epoch += other.mid_epoch;
        self.transitions += other.transitions;
        self.tick_drains += other.tick_drains;
        self.merges += other.merges;
        self.drift_trips += other.drift_trips;
    }
}

/// Calls `check` on every sequence of exactly `depth` operations from
/// `ops`, in lexicographic order; returns how many there were.
fn for_each_sequence<T: Copy>(
    ops: &[T],
    depth: usize,
    mut check: impl FnMut(&[T]) -> Result<(), String>,
) -> Result<usize, String> {
    let mut digits = vec![0usize; depth];
    let mut seq = Vec::with_capacity(depth);
    let mut count = 0usize;
    loop {
        seq.clear();
        seq.extend(digits.iter().map(|&d| ops[d]));
        check(&seq)?;
        count += 1;
        let mut pos = depth;
        loop {
            if pos == 0 {
                return Ok(count);
            }
            pos -= 1;
            digits[pos] += 1;
            if digits[pos] < ops.len() {
                break;
            }
            digits[pos] = 0;
        }
    }
}

/// The observable maintenance state of a guarded table: what an eager
/// twin must agree on (`ladder`), plus the epoch a merge must not move.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Observed {
    ladder: Ladder,
    in_flight: bool,
    progress: f64,
}

/// Mode, ladder counters (escalations, de-escalations, rotations), the
/// keyed seed, the lifetime drift counts (in-format, off-format) and the
/// held drift trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ladder {
    mode: GuardMode,
    counters: (u64, u64, u64),
    seed: Option<(u64, u64)>,
    drift: (u64, u64),
    trip: Option<(u64, u64)>,
}

type Map = UnorderedMap<Vec<u8>, u64, Hasher>;
type MultiMap = UnorderedMultiMap<Vec<u8>, u64, Hasher>;

fn observe_map(m: &Map) -> Observed {
    let h = m.hasher();
    Observed {
        ladder: Ladder {
            mode: h.mode(),
            counters: (m.escalations(), m.deescalations(), m.seed_rotations()),
            seed: (h.mode() == GuardMode::Keyed).then(|| h.current_seed()),
            drift: (h.stats().in_format(), h.stats().off_format()),
            trip: m.drift_trip(),
        },
        in_flight: m.migration_in_flight(),
        progress: m.migration_progress(),
    }
}

/// The multimap exposes no ladder counters or seed: mode and drift only.
fn observe_multimap(m: &MultiMap) -> Observed {
    let stats = m.drift_stats();
    Observed {
        ladder: Ladder {
            mode: m.guard_mode(),
            counters: (0, 0, 0),
            seed: None,
            drift: (stats.in_format(), stats.off_format()),
            trip: m.drift_trip(),
        },
        in_flight: m.migration_in_flight(),
        progress: m.migration_progress(),
    }
}

/// The after-step checks both sides share: a `requested` transition over
/// an open epoch merged into it, a transition that clears a held drift
/// trip, agreement with the eager twin, and the step's statistics.
fn check_step(
    stats: &mut TransitionStats,
    requested: bool,
    applied: bool,
    before: Observed,
    after: Observed,
    twin: Observed,
) -> Result<(), String> {
    if after.ladder != twin.ladder {
        return Err(format!("lazy {:?}, eager {:?}", after.ladder, twin.ladder));
    }
    if twin.in_flight {
        return Err("the eager twin kept an epoch open".into());
    }
    stats.steps += 1;
    stats.mid_epoch += usize::from(before.in_flight);
    let moved =
        after.ladder.mode != before.ladder.mode || after.ladder.counters != before.ladder.counters;
    stats.transitions += usize::from(moved || applied);
    if (moved || applied) && after.ladder.trip.is_some() {
        return Err(format!("a transition kept a drift trip held: {after:?}"));
    }
    if requested && (moved || applied) && before.in_flight {
        if !after.in_flight || after.progress != before.progress {
            return Err(format!(
                "a transition over an open epoch did not merge into it: {before:?} -> {after:?}"
            ));
        }
        stats.merges += 1;
    }
    Ok(())
}

/// A drift judgment that `tripped` must leave the map guarded with its
/// counters unchanged, hold the trip, and open no epoch; one that did not
/// must keep a held trip held.
fn check_held_trip(tripped: bool, before: Observed, after: Observed) -> Result<(), String> {
    let (b, a) = (before.ladder, after.ladder);
    let held = if tripped {
        b.trip.is_none()
            && b.mode == GuardMode::Guarded
            && a.mode == GuardMode::Guarded
            && a.counters == b.counters
            && a.trip.is_some()
            && (before.in_flight || !after.in_flight)
    } else {
        b.trip.is_none() || a.trip == b.trip
    };
    if held {
        Ok(())
    } else {
        Err(format!(
            "the drift judgment (tripped: {tripped}) did not hold: {before:?} -> {after:?}"
        ))
    }
}

fn map_contents_match(m: &Map, model: &HashMap<Vec<u8>, u64>) -> bool {
    m.len() == model.len() && KEYS.iter().all(|k| m.get(*k) == model.get(*k))
}

/// Replays every sequence of `depth` [`MAP_OPS`] on a fresh map over a
/// private copy of `template` (a guarded SSN hasher on its guarded rung),
/// against a `HashMap` twin and an eager twin. Escalations draw seeds from
/// `FixedSeedSource::new(seed)`; the calm de-escalation policy leaves a
/// storm rung after two calm ticks.
///
/// # Errors
///
/// The first divergence, with the sequence and step that produced it.
pub fn check_map(template: &Hasher, depth: usize, seed: u64) -> Result<TransitionStats, String> {
    let calm = AttackPolicy {
        quiet_streak: 2,
        ..AttackPolicy::default()
    };
    let mut stats = TransitionStats::default();
    stats.sequences = for_each_sequence(&MAP_OPS, depth, |seq| {
        let (lazy_seeds, eager_seeds) = (FixedSeedSource::new(seed), FixedSeedSource::new(seed));
        let mut lazy = Map::with_hasher(template.detached());
        let mut eager = Map::with_hasher(template.detached());
        let mut model = HashMap::new();
        for (step, &op) in seq.iter().enumerate() {
            let fail = |what: String| format!("{seq:?} step {step} ({op:?}): {what}");
            let before = observe_map(&lazy);
            let value = step as u64;
            let (mut applied, mut tripped) = (false, false);
            let agree = match op {
                MapOp::Insert(k) => {
                    let want = model.insert(KEYS[k].to_vec(), value);
                    lazy.insert(KEYS[k].to_vec(), value) == want
                        && eager.insert(KEYS[k].to_vec(), value) == want
                }
                MapOp::Remove(k) => {
                    let want = model.remove(KEYS[k]);
                    lazy.remove(KEYS[k]) == want && eager.remove(KEYS[k]) == want
                }
                MapOp::Get(k) => {
                    let want = model.get(KEYS[k]);
                    lazy.get(KEYS[k]) == want && eager.get(KEYS[k]) == want
                }
                MapOp::Escalate => {
                    lazy.escalate_now(&lazy_seeds);
                    eager.escalate_now(&eager_seeds);
                    true
                }
                MapOp::Tick => {
                    lazy.maybe_escalate(&calm, &lazy_seeds)
                        == eager.maybe_escalate(&calm, &eager_seeds)
                }
                MapOp::Deescalate => lazy.maybe_deescalate(&calm) == eager.maybe_deescalate(&calm),
                MapOp::DriftTrip => {
                    tripped = lazy.maybe_degrade(&TRIP);
                    tripped == eager.maybe_degrade(&TRIP)
                }
                MapOp::Resynthesize => {
                    let out = lazy.resynthesize();
                    applied = out.is_applied();
                    out == eager.resynthesize()
                }
                MapOp::Migrate => {
                    lazy.migrate(1);
                    eager.migrate(1);
                    true
                }
                MapOp::Finish => {
                    lazy.finish_migration();
                    eager.finish_migration();
                    true
                }
            };
            eager.finish_migration();
            if !agree {
                return Err(fail("the call's result differs between the twins".into()));
            }
            let (after, twin) = (observe_map(&lazy), observe_map(&eager));
            let drained =
                before.in_flight && (!after.in_flight || after.progress > before.progress);
            stats.tick_drains += usize::from(op == MapOp::Tick && drained);
            if op == MapOp::DriftTrip {
                check_held_trip(tripped, before, after).map_err(fail)?;
                stats.drift_trips += usize::from(tripped);
            }
            check_step(
                &mut stats,
                matches!(op, MapOp::Escalate | MapOp::Resynthesize),
                applied,
                before,
                after,
                twin,
            )
            .map_err(fail)?;
            if !map_contents_match(&lazy, &model) || !map_contents_match(&eager, &model) {
                return Err(fail(format!("contents diverge from the model {model:?}")));
            }
        }
        Ok(())
    })?;
    Ok(stats)
}

fn multimap_contents_match(m: &MultiMap, model: &HashMap<Vec<u8>, usize>) -> bool {
    m.len() == model.values().sum::<usize>()
        && KEYS
            .iter()
            .all(|k| m.count(*k) == model.get(*k).copied().unwrap_or(0))
}

/// Replays every sequence of `depth` [`MULTI_OPS`] on a fresh multimap
/// over a private copy of `template`, against a `HashMap<key, count>`
/// twin and an eager twin. With `keyed`, both start on the keyed rung
/// (seeded from `FixedSeedSource::new(seed)`), which samples no drift, so
/// every `resynthesize` there finds none.
///
/// # Errors
///
/// The first divergence, with the sequence and step that produced it.
pub fn check_multimap(
    template: &Hasher,
    keyed: bool,
    depth: usize,
    seed: u64,
) -> Result<TransitionStats, String> {
    let start = || {
        let mut hasher = template.detached();
        if keyed {
            hasher.escalate_keyed(&FixedSeedSource::new(seed));
        }
        MultiMap::with_hasher(hasher)
    };
    let mut stats = TransitionStats::default();
    stats.sequences = for_each_sequence(&MULTI_OPS, depth, |seq| {
        let (mut lazy, mut eager) = (start(), start());
        let mut model: HashMap<Vec<u8>, usize> = HashMap::new();
        for (step, &op) in seq.iter().enumerate() {
            let fail = |what: String| format!("{seq:?} step {step} ({op:?}): {what}");
            let before = observe_multimap(&lazy);
            let mut applied = false;
            let agree = match op {
                MultiOp::Insert(k) => {
                    *model.entry(KEYS[k].to_vec()).or_default() += 1;
                    lazy.insert(KEYS[k].to_vec(), step as u64);
                    eager.insert(KEYS[k].to_vec(), step as u64);
                    true
                }
                MultiOp::RemoveOne(k) => {
                    let want = match model.get_mut(KEYS[k]) {
                        Some(n) if *n > 0 => {
                            *n -= 1;
                            true
                        }
                        _ => false,
                    };
                    lazy.remove_one(KEYS[k]).is_some() == want
                        && eager.remove_one(KEYS[k]).is_some() == want
                }
                MultiOp::Count(k) => {
                    let want = model.get(KEYS[k]).copied().unwrap_or(0);
                    lazy.count(KEYS[k]) == want && eager.count(KEYS[k]) == want
                }
                MultiOp::Resynthesize => {
                    let out = lazy.resynthesize();
                    applied = out.is_applied();
                    out == eager.resynthesize()
                }
                MultiOp::Migrate => {
                    lazy.migrate(1);
                    eager.migrate(1);
                    true
                }
                MultiOp::Finish => {
                    lazy.finish_migration();
                    eager.finish_migration();
                    true
                }
            };
            eager.finish_migration();
            if !agree {
                return Err(fail("the call's result differs between the twins".into()));
            }
            let (after, twin) = (observe_multimap(&lazy), observe_multimap(&eager));
            check_step(
                &mut stats,
                op == MultiOp::Resynthesize,
                applied,
                before,
                after,
                twin,
            )
            .map_err(fail)?;
            if !multimap_contents_match(&lazy, &model) || !multimap_contents_match(&eager, &model) {
                return Err(fail(format!("contents diverge from the model {model:?}")));
            }
        }
        Ok(())
    })?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_core::hash::ByteHash;

    fn template(family: Family) -> Hasher {
        let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("compiles");
        GuardedHash::from_pattern(&pattern, family, CityHash::new())
    }

    #[test]
    fn the_ci_seeds_cover_both_equality_paths() {
        for (seed, family, injective) in [
            (0x5E9E, Family::Aes, false),
            (0xC4A05, Family::OffXor, true),
            (0xD1F7, Family::Pext, true),
        ] {
            let t = seeded_template(seed);
            assert_eq!(t.specialized().family(), family, "{seed:#x}");
            let pattern = t.guard().pattern();
            assert_eq!(
                t.specialized().injective_over(pattern),
                injective,
                "{seed:#x}"
            );
            assert_eq!(t.hash_routed(KEYS[0]).1, injective, "{seed:#x}");
        }
    }

    #[test]
    fn every_sequence_of_three_maintenance_and_data_ops_matches_the_twins() {
        for family in [Family::Pext, Family::OffXor] {
            let map = check_map(&template(family), 3, 7).expect("map");
            assert_eq!(map.sequences, MAP_OPS.len().pow(3));
            assert!(map.transitions > 0 && map.mid_epoch > 0 && map.merges > 0);
            assert!(map.drift_trips > 0);
            for keyed in [false, true] {
                let multi = check_multimap(&template(family), keyed, 3, 7).expect("multimap");
                assert_eq!(multi.sequences, MULTI_OPS.len().pow(3));
                // Only the guarded start samples drift to resynthesize over.
                assert_eq!(multi.transitions > 0 && multi.mid_epoch > 0, !keyed);
            }
        }
    }

    #[test]
    fn depth_zero_checks_the_empty_sequence() {
        let stats = check_map(&template(Family::Pext), 0, 7).expect("map");
        assert_eq!((stats.sequences, stats.steps), (1, 0));
    }
}
