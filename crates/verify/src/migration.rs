//! Chaos harness for the incremental migration state machine and the
//! hardened plan trust boundary.
//!
//! An escalation or resynthesis on a guarded container no longer rebuilds
//! stored hashes stop-the-world: it opens an *epoch* — old-plan and
//! new-plan bucket arrays coexist, every mutating operation drains a
//! bounded number of entries, and lookups consult both epochs until the
//! drain completes. That buys bounded per-op latency at the price of a
//! much larger state space, which is exactly what this module attacks:
//!
//! * [`check_interrupted_migration`] replays a random operation sequence
//!   with drift bursts against three peers at once — the SUT (whose
//!   migrations are interrupted at randomized points and drained only by
//!   amortization), a *twin* that performs every transition eagerly via
//!   `finish_migration()` (the stop-the-world reference), and a
//!   `std::collections::HashMap` model. Contents must match the model and
//!   drift counters must match the twin *exactly* at every checkpoint: an
//!   amortized drain is observationally identical to an eager rebuild.
//! * [`check_batched_epoch_boundary`] drives `insert_batch`/`get_batch`
//!   across an epoch flip, so whole batches straddle the two bucket
//!   arrays, lane order intact.
//! * [`check_corrupted_plans_rejected`] takes a pristine plan bundle and
//!   derives corrupted variants (truncation, version flip, checksum and
//!   payload tampering, out-of-bounds load offsets and constant-bit pext
//!   masks re-signed with a *valid* checksum) and asserts each is rejected
//!   with the right typed [`SynthError`] before any hash is evaluated.

use crate::faults::{faulted_pool, mutate_off_format};
use sepe_containers::UnorderedMap;
use sepe_core::guard::{GuardStats, GuardedHash};
use sepe_core::hash::{ByteHash, FixedSeedSource, SynthError};
use sepe_core::pattern::KeyPattern;
use sepe_core::plan_io::{bundle_from_str, bundle_to_string, SynthBundle};
use sepe_core::synth::{synthesize, Family, Plan, WordOp};
use sepe_core::SynthesizedHash;
use sepe_keygen::SplitMix64;
use std::collections::HashMap;

/// A guarded map under test.
type Guarded<G> = UnorderedMap<Vec<u8>, u64, GuardedHash<SynthesizedHash, G>>;

/// Statistics of one interrupted-migration run.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrationStats {
    /// Operations replayed against all three peers.
    pub ops: usize,
    /// Randomized partial `migrate(n)` drains issued to the SUT.
    pub interruptions: usize,
    /// Epoch transitions (escalation + resynthesis) exercised.
    pub transitions: usize,
    /// Full content + counter checkpoints passed.
    pub checkpoints: usize,
    /// Off-format keys injected as drift bursts mid-migration.
    pub bursts: usize,
}

impl MigrationStats {
    /// Accumulates another run's statistics into this one.
    pub fn absorb(&mut self, other: MigrationStats) {
        self.ops += other.ops;
        self.interruptions += other.interruptions;
        self.transitions += other.transitions;
        self.checkpoints += other.checkpoints;
        self.bursts += other.bursts;
    }
}

fn check_contents<G: ByteHash + Clone>(
    step: usize,
    who: &str,
    map: &Guarded<G>,
    model: &HashMap<Vec<u8>, u64>,
) -> Result<(), String> {
    let mut seen = 0usize;
    for (k, v) in map.iter() {
        match model.get(k) {
            Some(mv) if mv == v => seen += 1,
            Some(mv) => {
                return Err(format!(
                    "step {step}: {who} {k:?} holds {v}, model holds {mv}"
                ))
            }
            None => return Err(format!("step {step}: {who} {k:?} absent from model")),
        }
    }
    if seen != model.len() {
        return Err(format!(
            "step {step}: {who} iterated {seen} pairs, model holds {}",
            model.len()
        ));
    }
    Ok(())
}

fn check_counters<G: ByteHash + Clone>(
    step: usize,
    sut: &Guarded<G>,
    twin: &Guarded<G>,
) -> Result<(), String> {
    let compare = |what: &str, a: u64, b: u64| -> Result<(), String> {
        if a != b {
            return Err(format!(
                "step {step}: {what} counter diverged — interrupted migration \
                 says {a}, eager twin says {b}"
            ));
        }
        Ok(())
    };
    let (a, b): (&GuardStats, &GuardStats) = (sut.drift_stats(), twin.drift_stats());
    compare("in_format", a.in_format(), b.in_format())?;
    compare("off_format", a.off_format(), b.off_format())?;
    let (aw, bw) = (a.window_counts(), b.window_counts());
    compare("window off", aw.0, bw.0)?;
    compare("window total", aw.1, bw.1)?;
    if sut.guard_mode() != twin.guard_mode() {
        return Err(format!(
            "step {step}: mode diverged — SUT {:?}, twin {:?}",
            sut.guard_mode(),
            twin.guard_mode()
        ));
    }
    Ok(())
}

/// Model-checks an incrementally migrating guarded map against an eagerly
/// rebuilt twin and `std::collections::HashMap`.
///
/// The run seeds all three peers with `clean`, then replays `n_ops` random
/// operations from a fault-injected pool. A third of the way in, both
/// guarded maps `escalate_now()` under one fixed seed; two thirds in, both
/// `resynthesize()` from their (identical) reservoirs, sampled before the
/// escalation. The resynthesis installs a new plan, so its epoch re-files
/// every entry from its key bytes. The twin finishes each migration on the
/// spot; the SUT drains only through per-op amortization plus randomized
/// `migrate(n)` interruptions, with extra off-format drift bursts injected
/// while its epoch is in flight. Contents are checked against the model
/// and drift counters against the twin, both at random checkpoints and
/// after the final explicit drain.
///
/// # Errors
///
/// Describes the first divergence between the SUT, the twin and the model.
pub fn check_interrupted_migration<G: ByteHash + Clone>(
    pattern: &KeyPattern,
    family: Family,
    fallback: G,
    clean: &[Vec<u8>],
    n_ops: usize,
    seed: u64,
) -> Result<MigrationStats, String> {
    let mut rng = SplitMix64::new(seed);
    let mut sut: Guarded<G> =
        UnorderedMap::with_hasher(GuardedHash::from_pattern(pattern, family, fallback.clone()));
    let mut twin: Guarded<G> =
        UnorderedMap::with_hasher(GuardedHash::from_pattern(pattern, family, fallback));
    let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
    let mut stats = MigrationStats::default();

    for (i, key) in clean.iter().enumerate() {
        sut.insert(key.clone(), i as u64);
        twin.insert(key.clone(), i as u64);
        model.insert(key.clone(), i as u64);
    }
    // 20% of the pool starts off-format so the reservoir is populated well
    // before the resynthesize transition.
    let (mut pool, _) = faulted_pool(pattern, clean, 0.20, &mut rng);
    if pool.is_empty() {
        return Err("empty key pool".to_owned());
    }

    let escalate_at = n_ops / 3;
    let resynth_at = 2 * n_ops / 3;
    let mut next_value = clean.len() as u64;

    for step in 0..n_ops {
        if step == escalate_at {
            sut.escalate_now(&FixedSeedSource::new(seed));
            twin.escalate_now(&FixedSeedSource::new(seed));
            twin.finish_migration();
            if !sut.migration_in_flight() {
                return Err(format!(
                    "step {step}: escalate_now on a {}-entry map left no epoch in flight",
                    sut.len()
                ));
            }
            if twin.migration_in_flight() {
                return Err(format!(
                    "step {step}: finish_migration left the twin in flight"
                ));
            }
            check_counters(step, &sut, &twin)?;
            stats.transitions += 1;
        }
        if step == resynth_at {
            let a = sut.resynthesize();
            let b = twin.resynthesize();
            if a != b {
                return Err(format!(
                    "step {step}: resynthesize diverged — SUT {a:?}, twin {b:?} \
                     (reservoirs were fed identical traffic)"
                ));
            }
            if a.is_applied() {
                twin.finish_migration();
                check_counters(step, &sut, &twin)?;
                stats.transitions += 1;
            }
        }

        // Drift bursts land specifically while the SUT's epoch is open, so
        // off-format traffic crosses the migration boundary.
        if sut.migration_in_flight() && rng.next_u64().is_multiple_of(8) {
            let base = &clean[(rng.next_u64() % clean.len() as u64) as usize];
            pool.push(mutate_off_format(pattern, base, &mut rng));
            stats.bursts += 1;
        }

        let key = pool[(rng.next_u64() % pool.len() as u64) as usize].clone();
        match rng.next_u64() % 100 {
            0..=39 => {
                next_value += 1;
                let a = sut.insert(key.clone(), next_value);
                let b = twin.insert(key.clone(), next_value);
                let m = model.insert(key.clone(), next_value);
                if a != m || b != m {
                    return Err(format!(
                        "step {step}: insert({key:?}) -> SUT {a:?}, twin {b:?}, model {m:?}"
                    ));
                }
            }
            40..=62 => {
                let a = sut.get(key.as_slice()).copied();
                let b = twin.get(key.as_slice()).copied();
                let m = model.get(&key).copied();
                if a != m || b != m {
                    return Err(format!(
                        "step {step}: get({key:?}) -> SUT {a:?}, twin {b:?}, model {m:?}"
                    ));
                }
            }
            63..=72 => {
                let a = sut.contains_key(key.as_slice());
                let b = twin.contains_key(key.as_slice());
                let m = model.contains_key(&key);
                if a != m || b != m {
                    return Err(format!("step {step}: contains({key:?}) diverged"));
                }
            }
            73..=87 => {
                let a = sut.remove(key.as_slice());
                let b = twin.remove(key.as_slice());
                let m = model.remove(&key);
                if a != m || b != m {
                    return Err(format!(
                        "step {step}: remove({key:?}) -> SUT {a:?}, twin {b:?}, model {m:?}"
                    ));
                }
            }
            88..=92 => {
                // Randomized interruption point: drain a few entries, or
                // none at all, then go straight back to traffic.
                sut.migrate((rng.next_u64() % 23) as usize);
                stats.interruptions += 1;
            }
            93..=94 => {
                // Resizing the live epoch mid-migration must not disturb
                // the parked one.
                let buckets = 1 + (rng.next_u64() % 256) as usize;
                sut.rehash(buckets);
                twin.rehash(buckets);
            }
            _ => {
                check_contents(step, "SUT", &sut, &model)?;
                check_contents(step, "twin", &twin, &model)?;
                check_counters(step, &sut, &twin)?;
                stats.checkpoints += 1;
            }
        }
        let progress = sut.migration_progress();
        if !(0.0..=1.0).contains(&progress) {
            return Err(format!(
                "step {step}: migration_progress {progress} out of range"
            ));
        }
        if sut.len() != model.len() || twin.len() != model.len() {
            return Err(format!(
                "step {step}: len SUT {} / twin {} / model {}",
                sut.len(),
                twin.len(),
                model.len()
            ));
        }
        stats.ops += 1;
    }

    check_contents(n_ops, "SUT", &sut, &model)?;
    check_contents(n_ops, "twin", &twin, &model)?;
    check_counters(n_ops, &sut, &twin)?;
    sut.finish_migration();
    if sut.migration_in_flight() {
        return Err("finish_migration left the epoch in flight".to_owned());
    }
    if (sut.migration_progress() - 1.0).abs() > f64::EPSILON {
        return Err(format!(
            "drained map reports progress {}",
            sut.migration_progress()
        ));
    }
    check_contents(n_ops, "SUT (drained)", &sut, &model)?;
    check_counters(n_ops, &sut, &twin)?;
    stats.checkpoints += 1;
    Ok(stats)
}

/// Drives the batched container API (`insert_batch`/`get_batch`) across an
/// epoch flip, so batches straddle the old and new bucket arrays, and
/// checks lane-exact agreement with an eagerly drained twin and the
/// `HashMap` model. Returns the number of lanes compared.
///
/// # Errors
///
/// Describes the first lane where the three peers disagree.
pub fn check_batched_epoch_boundary<G: ByteHash + Clone>(
    pattern: &KeyPattern,
    family: Family,
    fallback: G,
    clean: &[Vec<u8>],
    seed: u64,
) -> Result<usize, String> {
    let mut rng = SplitMix64::new(seed ^ 0xBA7C_E90C);
    let mut sut: Guarded<G> =
        UnorderedMap::with_hasher(GuardedHash::from_pattern(pattern, family, fallback.clone()));
    let mut twin: Guarded<G> =
        UnorderedMap::with_hasher(GuardedHash::from_pattern(pattern, family, fallback));
    let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
    let (pool, _) = faulted_pool(pattern, clean, 0.25, &mut rng);
    if pool.is_empty() {
        return Err("empty key pool".to_owned());
    }

    let rounds = 48usize;
    let width = 8usize;
    let mut lanes = 0usize;
    let mut next_value = 0u64;
    for round in 0..rounds {
        if round == rounds / 3 {
            sut.escalate_now(&FixedSeedSource::new(seed));
            twin.escalate_now(&FixedSeedSource::new(seed));
            twin.finish_migration();
        }
        if round == 2 * rounds / 3 && sut.resynthesize().is_applied() {
            if !twin.resynthesize().is_applied() {
                return Err(format!("round {round}: only the SUT could resynthesize"));
            }
            twin.finish_migration();
        }

        let batch: Vec<(Vec<u8>, u64)> = (0..width)
            .map(|_| {
                next_value += 1;
                let key = pool[(rng.next_u64() % pool.len() as u64) as usize].clone();
                (key, next_value)
            })
            .collect();
        let a = sut.insert_batch(batch.clone());
        let b = twin.insert_batch(batch.clone());
        let m: Vec<Option<u64>> = batch
            .iter()
            .map(|(k, v)| model.insert(k.clone(), *v))
            .collect();
        for (lane, ((a, b), m)) in a.iter().zip(&b).zip(&m).enumerate() {
            if a != m || b != m {
                return Err(format!(
                    "round {round} lane {lane}: insert_batch -> SUT {a:?}, twin {b:?}, \
                     model {m:?} on {:?}",
                    batch[lane].0
                ));
            }
            lanes += 1;
        }

        // Interrupt mid-round so the next batch meets a different drain
        // frontier.
        sut.migrate((rng.next_u64() % 5) as usize);

        let probes: Vec<Vec<u8>> = (0..width)
            .map(|_| pool[(rng.next_u64() % pool.len() as u64) as usize].clone())
            .collect();
        let refs: Vec<&[u8]> = probes.iter().map(Vec::as_slice).collect();
        let a = sut.get_batch(&refs);
        let b = twin.get_batch(&refs);
        for (lane, key) in probes.iter().enumerate() {
            let m = model.get(key);
            if a[lane] != m || b[lane] != m {
                return Err(format!(
                    "round {round} lane {lane}: get_batch({key:?}) -> SUT {:?}, \
                     twin {:?}, model {m:?}",
                    a[lane], b[lane]
                ));
            }
            lanes += 1;
        }
        check_counters(round, &sut, &twin)?;
    }

    check_contents(rounds, "SUT", &sut, &model)?;
    sut.finish_migration();
    check_contents(rounds, "SUT (drained)", &sut, &model)?;
    check_counters(rounds, &sut, &twin)?;
    Ok(lanes)
}

/// Cross-checks the table's exported drain metrics against exact ground
/// truth on a deterministic scenario: seed a map with `clean`, escalate it
/// (one epoch over exactly `len` entries), drain it in seeded random
/// strides, then probe every key once. The registry snapshot must show
/// exactly one epoch opened and finished, exactly `len` entries drained,
/// and exactly `len` additional probe-length observations. Returns the
/// number of metric assertions checked.
///
/// # Errors
///
/// Describes the first counter that disagrees with the ground truth.
pub fn check_drain_accounting<G: ByteHash + Clone>(
    pattern: &KeyPattern,
    family: Family,
    fallback: G,
    clean: &[Vec<u8>],
    seed: u64,
) -> Result<usize, String> {
    let mut rng = SplitMix64::new(seed ^ 0xD8A1_4ACC);
    let mut map: Guarded<G> =
        UnorderedMap::with_hasher(GuardedHash::from_pattern(pattern, family, fallback));
    for (i, key) in clean.iter().enumerate() {
        map.insert(key.clone(), i as u64);
    }
    let registry = sepe_obs::Registry::new();
    map.export_metrics(&registry, &[])
        .map_err(|e| format!("metrics export failed: {e}"))?;
    let entries = map.len() as u64;
    if entries == 0 {
        return Err("empty clean pool".to_owned());
    }
    map.escalate_now(&FixedSeedSource::new(seed));
    let expect = |what: &str, got: Option<u64>, want: u64| -> Result<(), String> {
        if got != Some(want) {
            return Err(format!(
                "drain accounting: {what} reads {got:?}, ground truth {want}"
            ));
        }
        Ok(())
    };
    let snap = registry.snapshot();
    expect(
        "table_epochs_opened",
        snap.counter("table_epochs_opened"),
        1,
    )?;
    expect(
        "table_epochs_finished",
        snap.counter("table_epochs_finished"),
        0,
    )?;
    while map.migration_in_flight() {
        map.migrate(1 + (rng.next_u64() % 16) as usize);
    }
    let snap = registry.snapshot();
    expect("table_drain_ops", snap.counter("table_drain_ops"), entries)?;
    expect(
        "table_epochs_finished",
        snap.counter("table_epochs_finished"),
        1,
    )?;
    let probes_before = snap
        .histograms
        .get("table_probe_len")
        .map_or(0, |h| h.count);
    // Probe each *stored* key once (the pool may hold duplicates).
    let keys: Vec<Vec<u8>> = map.iter().map(|(k, _)| k.clone()).collect();
    for key in &keys {
        if map.get(key.as_slice()).is_none() {
            return Err(format!(
                "drain accounting: key {:?} lost across the drain",
                String::from_utf8_lossy(key)
            ));
        }
    }
    let snap = registry.snapshot();
    let probes_after = snap
        .histograms
        .get("table_probe_len")
        .map_or(0, |h| h.count);
    if probes_after != probes_before + entries {
        return Err(format!(
            "drain accounting: probe histogram grew {} for {entries} lookups",
            probes_after - probes_before
        ));
    }
    // Epochs opened, finished twice, entries drained, probe growth.
    Ok(5)
}

/// Synthesizes a pristine plan bundle for `pattern`/`family`, derives
/// corrupted variants, and asserts every one is rejected by
/// [`bundle_from_str`] with the *right* typed error — never a panic, and
/// always before the plan could reach a hash kernel. Returns the number of
/// corrupted variants rejected.
///
/// The variants: truncated JSON (three cut points), a flipped schema
/// version, a tampered checksum, a tampered payload under the original
/// checksum, and — re-signed with a *valid* checksum, so only semantic
/// validation can catch them — an out-of-bounds load offset and (for Pext)
/// a mask claiming constant bits.
///
/// # Errors
///
/// Describes the first variant that was accepted or rejected with the
/// wrong error type.
pub fn check_corrupted_plans_rejected(
    pattern: &KeyPattern,
    family: Family,
) -> Result<usize, String> {
    let plan = synthesize(pattern, family);
    let bundle = SynthBundle {
        pattern: pattern.clone(),
        family,
        plan,
    };
    let text = bundle_to_string(&bundle);
    bundle_from_str(&text).map_err(|e| format!("pristine bundle rejected: {e}"))?;
    let mut rejected = 0usize;

    // Truncation at several cut points: always a parse (malformed) error.
    for cut in [text.len() / 3, text.len() / 2, text.len() - 1] {
        match bundle_from_str(&text[..cut]) {
            Err(SynthError::MalformedPlan { .. }) => rejected += 1,
            Err(e) => {
                return Err(format!(
                    "truncation at {cut}: expected MalformedPlan, got {e}"
                ))
            }
            Ok(_) => return Err(format!("truncation at {cut} was accepted")),
        }
    }

    // Version flip: rejected before the checksum is even consulted.
    let flipped = text.replace("\"version\":2", "\"version\":99");
    if flipped == text {
        return Err("bundle text carries no version field to flip".to_owned());
    }
    match bundle_from_str(&flipped) {
        Err(SynthError::PlanVersion { found: 99, .. }) => rejected += 1,
        Err(e) => return Err(format!("version flip: expected PlanVersion, got {e}")),
        Ok(_) => return Err("version flip was accepted".to_owned()),
    }

    // Checksum tamper: decrement a nonzero digit of the stored checksum
    // (decrementing keeps the tampered value inside u64 range, so the
    // rejection is the checksum comparison, not integer parsing).
    let tampered = lower_digit_after(&text, "\"checksum\":\"")
        .ok_or("bundle text carries no nonzero checksum digit")?;
    match bundle_from_str(&tampered) {
        Err(SynthError::PlanChecksum { .. }) => rejected += 1,
        Err(e) => return Err(format!("checksum tamper: expected PlanChecksum, got {e}")),
        Ok(_) => return Err("checksum tamper was accepted".to_owned()),
    }

    // Payload tamper under the original checksum: bump a digit inside the
    // plan body. The mismatch must be caught by the checksum, not by luck.
    let tampered = bump_digit_after(&text, "\"plan\":").ok_or("plan body carries no digits")?;
    match bundle_from_str(&tampered) {
        Err(SynthError::PlanChecksum { .. }) => rejected += 1,
        Err(e) => return Err(format!("payload tamper: expected PlanChecksum, got {e}")),
        Ok(_) => return Err("payload tamper was accepted".to_owned()),
    }

    // Semantically hostile plans re-signed with a VALID checksum: only the
    // semantic validation layer stands between them and the unchecked
    // batch kernels.
    if let Plan::FixedWords { len, ops } = &bundle.plan {
        if *len >= 8 {
            let mut hostile = bundle.clone();
            if let Plan::FixedWords { ops: h_ops, .. } = &mut hostile.plan {
                h_ops.push(WordOp {
                    offset: (*len - 4) as u32,
                    mask: if family == Family::Pext { 1 } else { u64::MAX },
                    shift: 0,
                });
            }
            match bundle_from_str(&bundle_to_string(&hostile)) {
                Err(SynthError::PlanLoadOutOfBounds { .. }) => rejected += 1,
                Err(e) => {
                    return Err(format!(
                        "out-of-bounds offset: expected PlanLoadOutOfBounds, got {e}"
                    ))
                }
                Ok(_) => return Err("out-of-bounds load offset was accepted".to_owned()),
            }
        }
        // Widen a pext mask that excludes constant bits to the full word
        // (loads over fully variable bytes already carry the full mask, so
        // only a partial mask can be made hostile this way).
        let partial = if family == Family::Pext {
            ops.iter().position(|op| op.mask != u64::MAX)
        } else {
            None
        };
        if let Some(i) = partial {
            let mut hostile = bundle.clone();
            if let Plan::FixedWords { ops: h_ops, .. } = &mut hostile.plan {
                h_ops[i].mask = u64::MAX;
            }
            match bundle_from_str(&bundle_to_string(&hostile)) {
                Err(SynthError::PlanMaskConstBits) => rejected += 1,
                Err(e) => {
                    return Err(format!(
                        "constant-bit pext mask: expected PlanMaskConstBits, got {e}"
                    ))
                }
                Ok(_) => return Err("constant-bit pext mask was accepted".to_owned()),
            }
        }
    }

    Ok(rejected)
}

/// Returns `text` with the first ASCII digit after `anchor` bumped to a
/// different digit, or `None` when the anchor or a digit is missing.
fn bump_digit_after(text: &str, anchor: &str) -> Option<String> {
    let start = text.find(anchor)? + anchor.len();
    let rel = text[start..].find(|c: char| c.is_ascii_digit())?;
    let at = start + rel;
    let old = text.as_bytes()[at];
    let new = b'0' + (old - b'0' + 1) % 10;
    let mut bytes = text.as_bytes().to_vec();
    bytes[at] = new;
    String::from_utf8(bytes).ok()
}

/// Returns `text` with the last *nonzero* digit of the quoted decimal
/// after `anchor` decremented, so the tampered number strictly shrinks
/// and is still a canonical decimal `u64` (a leading `1` would become a
/// leading zero, which the codec rejects as malformed). `None` when the
/// anchor or such a digit is missing.
fn lower_digit_after(text: &str, anchor: &str) -> Option<String> {
    let start = text.find(anchor)? + anchor.len();
    let len = text[start..].find('"')?;
    let rel = text[start..start + len].rfind(|c: char| ('1'..='9').contains(&c))?;
    let at = start + rel;
    let mut bytes = text.as_bytes().to_vec();
    bytes[at] -= 1;
    String::from_utf8(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::RandomFormat;
    use sepe_core::hash::stl_hash_bytes;
    use sepe_core::regex::Regex;
    use sepe_keygen::KeyFormat;

    #[derive(Clone)]
    struct Stl;
    impl ByteHash for Stl {
        fn hash_bytes(&self, key: &[u8]) -> u64 {
            stl_hash_bytes(key, 0)
        }
    }

    fn sample(pattern: &KeyPattern, rng: &mut SplitMix64, n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| {
                (0..pattern.max_len())
                    .map(|i| {
                        let choices: Vec<u8> = pattern.bytes()[i].possible_bytes().collect();
                        choices[(rng.next_u64() % choices.len() as u64) as usize]
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn interrupted_migration_matches_eager_twin() {
        let pattern = Regex::compile(&KeyFormat::Ssn.regex()).unwrap();
        let mut rng = SplitMix64::new(0xE90C);
        let clean = sample(&pattern, &mut rng, 64);
        for family in Family::ALL {
            let stats = check_interrupted_migration(&pattern, family, Stl, &clean, 3_000, 0x5EED)
                .unwrap_or_else(|e| panic!("{family}: {e}"));
            assert!(stats.transitions >= 2, "{family}: {stats:?}");
            assert!(stats.interruptions > 0, "{family}: {stats:?}");
            assert!(stats.bursts > 0, "{family}: {stats:?}");
        }
    }

    #[test]
    fn interrupted_migration_over_random_formats() {
        let mut rng = SplitMix64::new(0x0DD_E90C);
        for i in 0..3 {
            let format = RandomFormat::generate(&mut rng);
            let pattern = format.pattern();
            let clean = format.sample_keys(&mut rng, 48);
            let family = Family::ALL[i % Family::ALL.len()];
            check_interrupted_migration(&pattern, family, Stl, &clean, 2_000, 0x5EED + i as u64)
                .unwrap_or_else(|e| panic!("random format {i} {family}: {e}"));
        }
    }

    #[test]
    fn batched_ops_cross_the_epoch_boundary() {
        let pattern = Regex::compile(&KeyFormat::Ipv4.regex()).unwrap();
        let mut rng = SplitMix64::new(0xBA7C);
        let clean = sample(&pattern, &mut rng, 64);
        for family in Family::ALL {
            let lanes = check_batched_epoch_boundary(&pattern, family, Stl, &clean, 0x5EED)
                .unwrap_or_else(|e| panic!("{family}: {e}"));
            assert!(lanes > 0);
        }
    }

    #[test]
    fn corrupted_bundles_are_rejected_with_typed_errors() {
        for format in [KeyFormat::Ssn, KeyFormat::Ipv4, KeyFormat::Uuid] {
            let pattern = Regex::compile(&format.regex()).unwrap();
            for family in Family::ALL {
                let n = check_corrupted_plans_rejected(&pattern, family)
                    .unwrap_or_else(|e| panic!("{} {family}: {e}", format.name()));
                assert!(n >= 5, "{} {family}: only {n} variants", format.name());
            }
        }
    }
}
