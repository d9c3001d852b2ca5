//! Chaos and replay harness for the background resynthesis supervisor.
//!
//! The supervisor's contract has two halves, and this module attacks both:
//!
//! * **Liveness of the serving path.** Synthesis that hangs, panics,
//!   errors, or produces invalid plans must never stall a container
//!   operation: degradation enqueues a job and returns, attempts run on
//!   detached worker threads, and a completed plan lands through the same
//!   migration-epoch swap an inline resynthesis would use. The chaos
//!   check ([`check_supervised_chaos`]) runs real worker threads over a
//!   [`ShardedMap`] (the [`crate::concurrent`] idiom: disjoint key
//!   partitions against a `Mutex<HashMap>` twin) while a scripted fault
//!   runner mistreats the supervisor — one shard's synthesis hangs for
//!   the whole run, one panics before succeeding, one fails with typed
//!   errors until its circuit breaker opens, one returns a plan that
//!   validation rejects before recovering. Worker ops must all complete
//!   while the hang is still in flight, with the worst mutating-op stall
//!   orders of magnitude under the hang's deadline — the structural
//!   witness that no operation ever waits on synthesis.
//! * **Determinism of the state machine.** Every transition — backoff
//!   schedule, deadline expiry, breaker open/half-open/close — is driven
//!   by an injected clock and a seeded jitter, so the whole transcript
//!   must replay identically from the same seed and the same mock clock.
//!   [`check_replay_transcripts`] runs a seeded fault script twice in
//!   [`ExecMode::Inline`] and demands event-for-event equality, and
//!   audits the breaker discipline inside the transcript: a breaker may
//!   only open after *exactly* the configured number of consecutive
//!   failures.

use sepe_containers::sharded::ShardedMap;
use sepe_containers::ResynthPolicy;
use sepe_core::guard::{GuardMode, GuardedHash};
use sepe_core::hash::ByteHash;
use sepe_core::pattern::KeyPattern;
use sepe_core::plan_io::validate_plan;
use sepe_core::regex::Regex;
use sepe_core::supervisor::{
    ExecMode, MockClock, ResynthSupervisor, SupervisorConfig, SynthRequest, SynthRunner,
    SystemClock, Transition,
};
use sepe_core::synth::{synthesize, Family, Plan};
use sepe_core::{Isa, SynthError, SynthesizedHash};
use sepe_keygen::SplitMix64;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Aggregate statistics of the supervisor checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct SupervisorStats {
    /// Map operations executed across all worker threads.
    pub ops: usize,
    /// Worker threads that ran.
    pub threads: usize,
    /// Shards degraded at the start of chaos runs.
    pub degradations: usize,
    /// Background plans applied through the migration-epoch machinery.
    pub applied: usize,
    /// Injected synthesis faults the supervisor absorbed (panics, typed
    /// errors, invalid plans, hangs).
    pub faults: usize,
    /// Supervisor transcript events recorded.
    pub events: usize,
    /// Quiescent full-content checkpoints passed.
    pub checkpoints: usize,
    /// Worst single mutating-op latency observed, in nanoseconds.
    pub max_mutating_ns: u64,
}

impl SupervisorStats {
    /// Accumulates another run's counters into this one.
    pub fn absorb(&mut self, other: SupervisorStats) {
        self.ops += other.ops;
        self.threads += other.threads;
        self.degradations += other.degradations;
        self.applied += other.applied;
        self.faults += other.faults;
        self.events += other.events;
        self.checkpoints += other.checkpoints;
        self.max_mutating_ns = self.max_mutating_ns.max(other.max_mutating_ns);
    }
}

/// Shape of one supervised chaos run.
#[derive(Debug, Clone, Copy)]
pub struct SupervisedRun {
    /// Worker threads to spawn (clamped to at least 1).
    pub threads: usize,
    /// Map operations each thread executes over its key partition.
    pub ops_per_thread: usize,
    /// Seed for the per-thread operation streams.
    pub seed: u64,
    /// Arm the scripted fault runner (hang/panic/error/invalid-plan). When
    /// off, the production runner resynthesizes every degraded shard for
    /// real and all of them must re-arm.
    pub faults: bool,
}

/// One scripted misbehaviour of the synthesis runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Spin (cooperatively, watching the token) until released — models
    /// synthesis that never terminates.
    Hang,
    /// Panic mid-synthesis; the supervisor must catch and count it.
    Panic,
    /// Fail with a typed error.
    Error,
    /// Produce a plan that [`validate_plan`] rejects — the typed failure
    /// an invalid plan must become, never an installed hash.
    InvalidPlan,
    /// Run real synthesis and succeed.
    Success,
}

/// Runs `f` with the default panic hook silenced, so the injected panics
/// the supervisor is *supposed* to absorb do not spray backtraces over the
/// harness output. The hook is restored before returning.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// The typed error a corrupted plan must turn into: synthesize a real plan
/// for the request, break one load offset, and push it through the same
/// [`validate_plan`] gate the production runner uses.
fn invalid_plan_error(req: &SynthRequest) -> SynthError {
    let mut plan = synthesize(&req.widened, req.family);
    match &mut plan {
        Plan::FixedWords { ops, .. } | Plan::VarWords { ops, .. } => {
            if let Some(op) = ops.first_mut() {
                op.offset = u32::MAX / 2;
            }
        }
        Plan::FixedBlocks { offsets, .. } | Plan::VarBlocks { offsets, .. } => {
            if let Some(o) = offsets.first_mut() {
                *o = u32::MAX / 2;
            }
        }
        Plan::StlFallback => {}
    }
    match validate_plan(&plan) {
        Err(e) => e,
        // A fallback plan has no load to break; reject it by hand so the
        // fault still yields a typed failure.
        Ok(()) => SynthError::PlanPatternMismatch {
            detail: "injected invalid plan".to_owned(),
        },
    }
}

/// Builds a runner that executes the per-tag fault script, one entry per
/// attempt; attempts past the end of a script (and tags without one) run
/// real synthesis. `release` lets the harness end a [`Fault::Hang`] after
/// its assertions — the hang is cooperative, so no thread leaks past the
/// check.
fn scripted_runner(scripts: HashMap<u64, Vec<Fault>>, release: Arc<AtomicBool>) -> SynthRunner {
    let attempts: Mutex<HashMap<u64, usize>> = Mutex::new(HashMap::new());
    Arc::new(move |req, token| {
        let attempt = {
            let mut seen = attempts
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let slot = seen.entry(req.tag).or_insert(0);
            let current = *slot;
            *slot += 1;
            current
        };
        let fault = scripts
            .get(&req.tag)
            .and_then(|script| script.get(attempt).copied())
            .unwrap_or(Fault::Success);
        match fault {
            Fault::Hang => {
                while !token.is_cancelled() && !release.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(SynthError::Cancelled)
            }
            Fault::Panic => panic!("injected synthesis panic (tag {})", req.tag),
            Fault::Error => Err(SynthError::PlanMaskConstBits),
            Fault::InvalidPlan => Err(invalid_plan_error(req)),
            Fault::Success => {
                let (plan, _) =
                    sepe_core::synth::synthesize_with_cancel(&req.widened, req.family, token)?;
                validate_plan(&plan)?;
                Ok(SynthesizedHash::new(plan, req.family, req.isa).with_seed(req.seed))
            }
        }
    })
}

/// Key partition owned by thread `t` (the [`crate::concurrent`] idiom).
fn partition(pool: &[Vec<u8>], t: usize, threads: usize) -> Vec<Vec<u8>> {
    pool.iter()
        .enumerate()
        .filter(|(i, _)| i % threads == t)
        .map(|(_, k)| k.clone())
        .collect()
}

/// How long the hanging synthesis attempt is allowed to run: long past the
/// whole chaos run, so the attempt is still in flight when the workers
/// finish — which is the point of the check.
const HANG_DEADLINE_MS: u64 = 120_000;

/// Upper bound asserted on any single mutating op. Generous against
/// scheduler noise, yet 60× under [`HANG_DEADLINE_MS`]: an op that waited
/// on the hung synthesis (or on any synthesis attempt at all) would blow
/// through it immediately.
const STALL_BOUND_NS: u64 = 2_000_000_000;

/// Runs worker threads over one shared [`ShardedMap`] and a
/// `Mutex<HashMap>` twin while the resynthesis supervisor — fed by a
/// scripted fault runner when [`SupervisedRun::faults`] is set — recovers
/// the degraded lower-half shards in the background.
///
/// With faults armed, the lower four shards get one misbehaviour each:
/// shard 0 panics once then succeeds, shard 1 fails until its breaker
/// opens (and must settle permanently on the guarded fallback), shard 2
/// returns an invalid plan once then succeeds, and shard 3 hangs for the
/// entire run. The run asserts: every worker op completes while the hang
/// is still in flight; the worst mutating-op stall stays bounded; the
/// breaker opens after *exactly* the configured failure count; recovered
/// shards re-arm to [`GuardMode::Guarded`]; untouched upper-half shards
/// never degrade; and the final contents equal the twin exactly.
///
/// # Errors
///
/// Returns the first violated assertion as a human-readable message.
pub fn check_supervised_chaos<G>(
    pattern: &KeyPattern,
    family: Family,
    fallback: G,
    pool: &[Vec<u8>],
    run: SupervisedRun,
) -> Result<SupervisorStats, String>
where
    G: ByteHash + Clone + Send + Sync,
{
    with_quiet_panics(|| check_supervised_chaos_inner(pattern, family, fallback, pool, run))
}

fn check_supervised_chaos_inner<G>(
    pattern: &KeyPattern,
    family: Family,
    fallback: G,
    pool: &[Vec<u8>],
    run: SupervisedRun,
) -> Result<SupervisorStats, String>
where
    G: ByteHash + Clone + Send + Sync,
{
    let SupervisedRun {
        threads,
        ops_per_thread,
        seed,
        faults,
    } = run;
    let threads = threads.max(1);
    let hasher: GuardedHash<SynthesizedHash, G> =
        GuardedHash::from_pattern(pattern, family, fallback);
    let map: ShardedMap<Vec<u8>, u64, SynthesizedHash, G> = ShardedMap::with_hasher(hasher, 8);
    let twin: Mutex<HashMap<Vec<u8>, u64>> = Mutex::new(HashMap::new());
    let half = map.shard_count() / 2;

    // Seed the clean pool, then plant off-format keys into each lower-half
    // shard so its reservoir samples real drift, and degrade those shards.
    // The upper half never sees an off-format key: any degradation there
    // is a blast-radius leak.
    for (i, key) in pool.iter().enumerate() {
        map.insert(key.clone(), i as u64);
        twin.lock()
            .map_err(|_| "twin mutex poisoned".to_owned())?
            .insert(key.clone(), i as u64);
    }
    for shard in 0..half {
        let mut planted = 0usize;
        let mut j = 0u64;
        while planted < 8 {
            if j >= 100_000 {
                return Err(format!("could not route off-format keys to shard {shard}"));
            }
            let mut k = pool[(j as usize) % pool.len()].clone();
            k.push(b'~');
            k.extend_from_slice(j.to_string().as_bytes());
            if map.shard_of(&k) == shard {
                map.insert(k.clone(), j);
                twin.lock()
                    .map_err(|_| "twin mutex poisoned".to_owned())?
                    .insert(k, j);
                planted += 1;
            }
            j += 1;
        }
        map.degrade_shard(shard);
    }

    // The fault script: one misbehaviour per lower-half shard.
    let breaker_failures = 3u32;
    let (panic_tag, breaker_tag, invalid_tag, hang_tag) = (0u64, 1u64, 2u64, 3u64);
    let release = Arc::new(AtomicBool::new(false));
    let mut scripts: HashMap<u64, Vec<Fault>> = HashMap::new();
    if faults {
        scripts.insert(panic_tag, vec![Fault::Panic, Fault::Success]);
        scripts.insert(breaker_tag, vec![Fault::Error; breaker_failures as usize]);
        scripts.insert(invalid_tag, vec![Fault::InvalidPlan, Fault::Success]);
        scripts.insert(hang_tag, vec![Fault::Hang]);
    }
    let config = SupervisorConfig {
        deadline_ms: HANG_DEADLINE_MS,
        backoff: sepe_core::supervisor::BackoffPolicy {
            base_ms: 1,
            cap_ms: 8,
        },
        breaker_failures,
        // Permanent: once the breaker opens, the shard settles on the
        // guarded fallback for good.
        breaker_cooldown_ms: None,
        seed,
    };
    let mut supervisor = ResynthSupervisor::with_runner(
        config,
        Arc::new(SystemClock::new()),
        scripted_runner(scripts, release.clone()),
        ExecMode::Thread,
    );

    let finished = AtomicUsize::new(0);
    let worker = |t: usize| -> Result<(usize, u64), String> {
        let mine = partition(pool, t, threads);
        let out = (|| -> Result<(usize, u64), String> {
            if mine.is_empty() {
                return Ok((0, 0));
            }
            let mut rng = SplitMix64::new(seed ^ (t as u64) << 16);
            let mut ops = 0usize;
            let mut max_mutating_ns = 0u64;
            for _ in 0..ops_per_thread {
                let r = rng.next_u64();
                let key = &mine[((r >> 8) % mine.len() as u64) as usize];
                match r % 10 {
                    0..=4 => {
                        let got = map.get(key.as_slice());
                        let expected = twin
                            .lock()
                            .map_err(|_| "twin mutex poisoned".to_owned())?
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
                        let t0 = Instant::now();
                        let prev = map.insert(key.clone(), r);
                        max_mutating_ns = max_mutating_ns.max(t0.elapsed().as_nanos() as u64);
                        let expected = twin
                            .lock()
                            .map_err(|_| "twin mutex poisoned".to_owned())?
                            .insert(key.clone(), r);
                        if prev != expected {
                            return Err(format!(
                                "insert disagreed on {:?}: {prev:?} vs {expected:?}",
                                String::from_utf8_lossy(key)
                            ));
                        }
                    }
                    _ => {
                        let t0 = Instant::now();
                        let removed = map.remove(key.as_slice());
                        max_mutating_ns = max_mutating_ns.max(t0.elapsed().as_nanos() as u64);
                        let expected = twin
                            .lock()
                            .map_err(|_| "twin mutex poisoned".to_owned())?
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
            Ok((ops, max_mutating_ns))
        })();
        finished.fetch_add(1, Ordering::Relaxed);
        out
    };

    let mut stats = SupervisorStats {
        threads,
        degradations: half,
        ..SupervisorStats::default()
    };
    let workers_done_with_hang_in_flight = AtomicBool::new(false);
    let results: Vec<Result<(usize, u64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|t| s.spawn(move || worker(t))).collect();
        // The driver: poll degraded shards into the supervisor, pump it,
        // and apply whatever completed — all while the workers hammer the
        // map. This loop holds no shard lock across a pump, so a hung or
        // slow synthesis can only ever delay *itself*.
        let mut settle_spins = 0u32;
        loop {
            let workers_done = finished.load(Ordering::Relaxed) >= threads;
            for shard in 0..half {
                if map.shard_mode(shard) == GuardMode::Degraded
                    && !supervisor.breaker_open(shard as u64)
                {
                    if let Some(req) = map.resynth_request(shard) {
                        supervisor.enqueue(req);
                    }
                }
            }
            supervisor.pump();
            for ready in supervisor.take_ready() {
                if map.apply_ready(&ready) {
                    stats.applied += 1;
                }
            }
            if workers_done {
                if !workers_done_with_hang_in_flight.load(Ordering::Relaxed) {
                    // Sampled exactly when the last worker finished: the
                    // hanging attempt must still be running.
                    workers_done_with_hang_in_flight
                        .store(supervisor.active_jobs() > 0, Ordering::Relaxed);
                }
                let settled = if faults {
                    supervisor.breaker_open(breaker_tag)
                        && map.shard_mode(panic_tag as usize) == GuardMode::Guarded
                        && map.shard_mode(invalid_tag as usize) == GuardMode::Guarded
                } else {
                    (0..half).all(|i| map.shard_mode(i) == GuardMode::Guarded)
                };
                settle_spins += 1;
                if settled || settle_spins > 8_000 {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        release.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("worker thread panicked".to_owned()))
            })
            .collect()
    });
    for r in results {
        let (ops, max_mutating_ns) = r?;
        stats.ops += ops;
        stats.max_mutating_ns = stats.max_mutating_ns.max(max_mutating_ns);
    }

    // Liveness: every planned op ran, and none of them stalled anywhere
    // near a synthesis deadline.
    let planned: usize = (0..threads)
        .map(|t| {
            if partition(pool, t, threads).is_empty() {
                0
            } else {
                ops_per_thread
            }
        })
        .sum();
    if stats.ops != planned {
        return Err(format!(
            "workers completed {} of {planned} planned ops",
            stats.ops
        ));
    }
    if stats.max_mutating_ns >= STALL_BOUND_NS {
        return Err(format!(
            "worst mutating op stalled {} ms — an op waited on synthesis",
            stats.max_mutating_ns / 1_000_000
        ));
    }

    let transcript = supervisor.transcript();
    stats.events = transcript.len();
    stats.faults = transcript
        .iter()
        .filter(|e| {
            matches!(
                e.transition,
                Transition::Failed(..) | Transition::Panicked(_) | Transition::TimedOut(_)
            )
        })
        .count();

    if faults {
        if !workers_done_with_hang_in_flight.load(Ordering::Relaxed) {
            return Err(
                "the hanging synthesis was not in flight when the workers finished — \
                 the liveness check proved nothing"
                    .to_owned(),
            );
        }
        // The breaker opened after exactly `breaker_failures` consecutive
        // failures, and its shard settled permanently on the fallback.
        if !supervisor.breaker_open(breaker_tag) {
            return Err("the failing tag's breaker never opened".to_owned());
        }
        let failures_before_open = transcript
            .iter()
            .filter(|e| e.tag == breaker_tag)
            .take_while(|e| !matches!(e.transition, Transition::BreakerOpened(_)))
            .filter(|e| matches!(e.transition, Transition::Failed(..)))
            .count();
        if failures_before_open != breaker_failures as usize {
            return Err(format!(
                "breaker opened after {failures_before_open} failures, configured for \
                 {breaker_failures}"
            ));
        }
        if map.shard_mode(breaker_tag as usize) != GuardMode::Degraded {
            return Err("the breaker-open shard left the guarded fallback".to_owned());
        }
        // The panic and the invalid plan were absorbed as typed failures,
        // then their shards recovered.
        if !transcript
            .iter()
            .any(|e| e.tag == panic_tag && matches!(e.transition, Transition::Panicked(_)))
        {
            return Err("the injected panic left no Panicked transition".to_owned());
        }
        if !transcript
            .iter()
            .any(|e| e.tag == invalid_tag && matches!(e.transition, Transition::Failed(..)))
        {
            return Err("the invalid plan left no typed failure".to_owned());
        }
        for tag in [panic_tag, invalid_tag] {
            if map.shard_mode(tag as usize) != GuardMode::Guarded {
                return Err(format!("shard {tag} did not recover after its fault"));
            }
        }
        if stats.applied != 2 {
            return Err(format!(
                "expected exactly the panic and invalid-plan shards to apply plans, got {}",
                stats.applied
            ));
        }
        // The hang never completed: no terminal transition for its tag.
        if transcript.iter().any(|e| {
            e.tag == hang_tag
                && matches!(
                    e.transition,
                    Transition::Succeeded(_) | Transition::TimedOut(_)
                )
        }) {
            return Err("the hanging synthesis terminated during the run".to_owned());
        }
    } else {
        for shard in 0..half {
            if map.shard_mode(shard) != GuardMode::Guarded {
                return Err(format!("shard {shard} was not resynthesized in time"));
            }
        }
        if stats.applied != half {
            return Err(format!(
                "expected {half} background plans applied, got {}",
                stats.applied
            ));
        }
    }

    // Blast radius: the upper half saw no off-format key and must still be
    // fully armed.
    for shard in half..map.shard_count() {
        if map.shard_mode(shard) != GuardMode::Guarded {
            return Err(format!(
                "shard {shard} degraded without ever seeing off-format traffic"
            ));
        }
    }

    // Quiescent checkpoint: identical contents, entry for entry.
    map.finish_migrations();
    let twin = twin
        .into_inner()
        .map_err(|_| "twin mutex poisoned at checkpoint".to_owned())?;
    if map.len() != twin.len() {
        return Err(format!(
            "length diverged at checkpoint: sharded {} vs twin {}",
            map.len(),
            twin.len()
        ));
    }
    let mut mismatch = None;
    map.for_each(|k, v| {
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

    // Metrics cross-check: the per-kind transition counters exported via
    // the registry must agree, kind for kind, with the transcript all of
    // the structural checks above were made against — and the ring
    // accounting must add up. A no-op in `obs`-off builds.
    if sepe_obs::enabled() {
        let registry = sepe_obs::Registry::new();
        supervisor
            .export_metrics(&registry)
            .map_err(|e| format!("metrics export failed: {e}"))?;
        let snap = registry.snapshot();
        for kind in sepe_obs::TransitionKind::ALL {
            let derived = transcript
                .iter()
                .filter(|e| e.transition.kind() == kind)
                .count() as u64;
            let id = sepe_obs::metric_id("supervisor_transitions", &[("kind", kind.name())])
                .map_err(|e| format!("metric id: {e}"))?;
            if snap.counter(&id) != Some(derived) {
                return Err(format!(
                    "metrics drift: {id} reads {:?}, transcript holds {derived}",
                    snap.counter(&id)
                ));
            }
        }
        let pushed = transcript.len() as u64 + supervisor.transcript_dropped();
        if snap.counter("supervisor_transcript_events") != Some(pushed) {
            return Err(format!(
                "metrics drift: supervisor_transcript_events reads {:?}, \
                 ring accounting says {pushed}",
                snap.counter("supervisor_transcript_events")
            ));
        }
    }
    stats.checkpoints = 1;
    Ok(stats)
}

/// Replays a seeded fault script through an [`ExecMode::Inline`]
/// supervisor twice, on two independently constructed instances sharing
/// only the seed and the mock clock schedule, and demands event-for-event
/// transcript equality — the determinism claim behind "every transition
/// replays from seed + clock". Along the way it audits the transcript:
/// every `BreakerOpened(n)` must carry exactly the configured failure
/// count, preceded by that many consecutive failures for its tag.
///
/// Returns the transcript length.
///
/// # Errors
///
/// Returns the first divergence or discipline violation as a message.
pub fn check_replay_transcripts(seed: u64) -> Result<usize, String> {
    with_quiet_panics(|| {
        let first = replay_once(seed)?;
        let second = replay_once(seed)?;
        if first != second {
            let at = first
                .iter()
                .zip(second.iter())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| first.len().min(second.len()));
            return Err(format!(
                "transcripts diverged at event {at}: {:?} vs {:?} \
                 (lengths {} and {})",
                first.get(at),
                second.get(at),
                first.len(),
                second.len()
            ));
        }
        Ok(first.len())
    })
}

const REPLAY_TAGS: u64 = 6;
const REPLAY_BREAKER_FAILURES: u32 = 2;

fn replay_once(seed: u64) -> Result<Vec<sepe_core::supervisor::Event>, String> {
    let widened = Regex::compile(r"[0-9]{8}").map_err(|e| e.to_string())?;
    let config = SupervisorConfig {
        deadline_ms: 50,
        backoff: sepe_core::supervisor::BackoffPolicy {
            base_ms: 2,
            cap_ms: 16,
        },
        breaker_failures: REPLAY_BREAKER_FAILURES,
        breaker_cooldown_ms: Some(100),
        seed,
    };
    // The fault script is a pure function of (seed, tag): 0–3 leading
    // faults drawn from {Error, Panic, InvalidPlan}, then success. Tags
    // with two or more faults trip the breaker, cool down, and win on the
    // half-open probe.
    let mut scripts: HashMap<u64, Vec<Fault>> = HashMap::new();
    let mut rng = SplitMix64::new(seed ^ 0x5C71);
    for tag in 0..REPLAY_TAGS {
        let n = (rng.next_u64() % 4) as usize;
        let script = (0..n)
            .map(|_| match rng.next_u64() % 3 {
                0 => Fault::Error,
                1 => Fault::Panic,
                _ => Fault::InvalidPlan,
            })
            .collect();
        scripts.insert(tag, script);
    }
    let clock = Arc::new(MockClock::new());
    let mut supervisor = ResynthSupervisor::with_runner(
        config,
        clock.clone(),
        scripted_runner(scripts, Arc::new(AtomicBool::new(false))),
        ExecMode::Inline,
    );
    let request = |tag: u64| SynthRequest {
        tag,
        widened: widened.clone(),
        family: Family::ALL[(tag % Family::ALL.len() as u64) as usize],
        isa: Isa::Native,
        seed: tag,
        snapshot_generation: 0,
    };
    for tag in 0..REPLAY_TAGS {
        supervisor.enqueue(request(tag));
    }
    for step in 0u64..600 {
        supervisor.pump();
        // Periodic re-offers exercise coalescing, rejection while open,
        // and the half-open probe after the cooldown — deterministically,
        // since the clock only moves when we move it.
        if step % 50 == 49 {
            for tag in 0..REPLAY_TAGS {
                supervisor.enqueue(request(tag));
            }
        }
        clock.advance(1);
    }
    let transcript = supervisor.transcript().to_vec();

    // Breaker discipline: exactly the configured number of consecutive
    // failures before every open.
    for (i, event) in transcript.iter().enumerate() {
        if let Transition::BreakerOpened(n) = event.transition {
            if n != REPLAY_BREAKER_FAILURES {
                return Err(format!(
                    "BreakerOpened carried {n}, configured for {REPLAY_BREAKER_FAILURES}"
                ));
            }
            // Walk back to the last success or breaker-state boundary for
            // this tag, counting failures in between. A breaker opening
            // from the closed state needs exactly the configured count; a
            // failed half-open probe legitimately re-opens after one.
            let mut consecutive = 0usize;
            let mut after_half_open = false;
            for prior in transcript[..i].iter().rev().filter(|e| e.tag == event.tag) {
                match prior.transition {
                    Transition::Failed(..) | Transition::Panicked(_) | Transition::TimedOut(_) => {
                        consecutive += 1
                    }
                    Transition::BreakerHalfOpen => {
                        after_half_open = true;
                        break;
                    }
                    Transition::Succeeded(_) | Transition::BreakerClosed => break,
                    _ => {}
                }
            }
            let expected = if after_half_open {
                1
            } else {
                REPLAY_BREAKER_FAILURES as usize
            };
            if consecutive != expected {
                return Err(format!(
                    "tag {} breaker opened after {consecutive} consecutive failures, \
                     expected {expected}",
                    event.tag
                ));
            }
        }
    }
    Ok(transcript)
}

/// Smoke-checks that [`ResynthPolicy`] really parameterizes a supervisor:
/// a policy with a tiny failure budget must open the breaker at that
/// budget, not at the default.
///
/// # Errors
///
/// Returns a message when the policy-configured breaker misbehaves.
pub fn check_policy_breaker(seed: u64) -> Result<(), String> {
    with_quiet_panics(|| {
        let widened = Regex::compile(r"[0-9]{8}").map_err(|e| e.to_string())?;
        let policy = ResynthPolicy {
            deadline_ms: 50,
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            breaker_failures: 1,
            breaker_cooldown_ms: None,
            seed,
        };
        let clock = Arc::new(MockClock::new());
        let mut scripts = HashMap::new();
        scripts.insert(0u64, vec![Fault::Error; 8]);
        let mut supervisor = ResynthSupervisor::with_runner(
            policy.config(),
            clock.clone(),
            scripted_runner(scripts, Arc::new(AtomicBool::new(false))),
            ExecMode::Inline,
        );
        supervisor.enqueue(SynthRequest {
            tag: 0,
            widened,
            family: Family::OffXor,
            isa: Isa::Native,
            seed,
            snapshot_generation: 0,
        });
        for _ in 0..20 {
            supervisor.pump();
            clock.advance(1);
        }
        if !supervisor.breaker_open(0) {
            return Err("a breaker_failures=1 policy did not open after one failure".to_owned());
        }
        let failures = supervisor
            .transcript()
            .iter()
            .filter(|e| matches!(e.transition, Transition::Failed(..)))
            .count();
        if failures != 1 {
            return Err(format!(
                "breaker_failures=1 policy allowed {failures} attempts"
            ));
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_baselines::CityHash;

    fn ssn_pool(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i % 10_000).into_bytes())
            .collect()
    }

    #[test]
    fn fault_injected_supervised_run_settles() {
        let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("pattern");
        let pool = ssn_pool(240);
        let stats = check_supervised_chaos(
            &pattern,
            Family::Pext,
            CityHash::new(),
            &pool,
            SupervisedRun {
                threads: 3,
                ops_per_thread: 1_500,
                seed: 0x5E9E,
                faults: true,
            },
        )
        .expect("chaos run settles");
        assert_eq!(stats.ops, 4_500);
        assert_eq!(stats.applied, 2);
        assert!(stats.faults >= 5, "{stats:?}");
        assert_eq!(stats.checkpoints, 1);
    }

    #[test]
    fn clean_supervised_run_rearms_every_shard() {
        let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("pattern");
        let pool = ssn_pool(200);
        let stats = check_supervised_chaos(
            &pattern,
            Family::OffXor,
            CityHash::new(),
            &pool,
            SupervisedRun {
                threads: 2,
                ops_per_thread: 1_000,
                seed: 0xC4A05,
                faults: false,
            },
        )
        .expect("clean run re-arms");
        assert_eq!(stats.applied, 4);
        assert_eq!(stats.faults, 0);
    }

    #[test]
    fn replay_transcripts_are_deterministic() {
        for seed in [0x5E9E, 0xD1F7, 0xC4A05u64] {
            let events = check_replay_transcripts(seed).expect("replay agrees");
            assert!(events > REPLAY_TAGS as usize, "seed {seed:#x}: {events}");
        }
    }

    #[test]
    fn policy_breaker_budget_is_respected() {
        check_policy_breaker(0x5E9E).expect("policy breaker");
    }
}
