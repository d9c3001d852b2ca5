//! `drift-attack`: one SSN map walked through format drift, a bucket
//! flood and the calm after it, with maintenance ticks and an inline
//! resynthesis on the serving thread. Every episode starts from a freshly
//! built map and replays the same op stream, so every episode must take
//! the same transitions. The reference replays each episode's ops on a
//! fresh `std` `HashMap`, without maintenance.

use crate::inputs::{below, Keys};
use crate::measure::{another_window, window_traced, ClientLog};
use crate::stack::{
    build_hasher, timed_build, Census, Cfg, GuardTally, Maintenance, Map, Run, StdMap, Table,
    Transitions, LATENCY_EVERY, SETUP_BUILDS, SPAN_CAPACITY, SPAN_EVERY,
};
use crate::trace::Tracer;
use sepe::containers::UnorderedMap;
use sepe::core::guard::GuardMode;
use sepe::keygen::{KeyFormat, SplitMix64};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Keys in the flood: enough to trip the storm detector's chain floor.
pub const FLOOD: usize = 64;

/// Marks "no value" in the twin and in expected results.
const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Hit,
    Miss,
    Overwrite,
    InsertDrift,
    InsertFlood,
    RemoveFlood,
}

const KINDS: [Kind; 6] = [
    Kind::Hit,
    Kind::Miss,
    Kind::Overwrite,
    Kind::InsertDrift,
    Kind::InsertFlood,
    Kind::RemoveFlood,
];

const ID_BITS: u32 = 29;

fn pack(kind: Kind, id: usize) -> u32 {
    (KINDS.iter().position(|&k| k == kind).expect("listed") as u32) << ID_BITS | id as u32
}

fn unpack(op: u32) -> (Kind, usize) {
    (
        KINDS[(op >> ID_BITS) as usize],
        (op & ((1 << ID_BITS) - 1)) as usize,
    )
}

pub struct Inputs {
    /// Resident keys, then absent keys, then off-format drift keys.
    ssn: Keys,
    resident: usize,
    phase: usize,
    /// One episode: benign, drift, flood, calm phases of `phase` ops.
    stream: Vec<u32>,
    /// Per op: the value the op must find (or replace, or remove), or
    /// [`NONE`].
    expected: Vec<u32>,
}

impl Inputs {
    pub fn generate(seed: u64, smoke: bool) -> Inputs {
        let mut rng = SplitMix64::new(seed ^ 0xD21F_7A77);
        let (resident, absent, phase) = if smoke {
            (4096, 512, 8192)
        } else {
            (1 << 14, 8192, 100_000)
        };
        let drift = phase / 5;
        let mut ssn = Keys::generate(KeyFormat::Ssn, resident + absent + drift, &mut rng);
        // Drifted traffic: SSNs written with slashes, e.g. `123/45/6789`.
        ssn.rewrite(resident + absent..resident + absent + drift, |k| {
            k.iter_mut().filter(|b| **b == b'-').for_each(|b| *b = b'/');
        });
        let benign = |rng: &mut SplitMix64| match below(rng, 10) {
            0 => pack(Kind::Miss, resident + below(rng, absent)),
            1 => pack(Kind::Overwrite, below(rng, resident)),
            _ => pack(Kind::Hit, below(rng, resident)),
        };
        let mut stream = Vec::with_capacity(4 * phase);
        let mut drifted = 0;
        for _ in 0..phase {
            stream.push(benign(&mut rng));
        }
        for _ in 0..phase {
            if below(&mut rng, 5) == 0 && drifted < drift {
                stream.push(pack(Kind::InsertDrift, resident + absent + drifted));
                drifted += 1;
            } else {
                stream.push(benign(&mut rng));
            }
        }
        let mut flooded = 0;
        for _ in 0..phase {
            if below(&mut rng, 10) == 0 {
                stream.push(pack(Kind::InsertFlood, flooded % FLOOD));
                flooded += 1;
            } else {
                stream.push(benign(&mut rng));
            }
        }
        for j in 0..phase {
            stream.push(if j < FLOOD {
                pack(Kind::RemoveFlood, j)
            } else {
                benign(&mut rng)
            });
        }
        // Twin over every key the stream touches: key ids, then the flood.
        let flood_base = resident + absent + drift;
        let mut twin: Vec<u32> = (0..flood_base + FLOOD)
            .map(|id| if id < resident { id as u32 } else { NONE })
            .collect();
        let expected = stream
            .iter()
            .enumerate()
            .map(|(pos, &op)| {
                let (kind, id) = unpack(op);
                let slot = if matches!(kind, Kind::InsertFlood | Kind::RemoveFlood) {
                    flood_base + id
                } else {
                    id
                };
                let before = twin[slot];
                match kind {
                    Kind::Hit | Kind::Miss => {}
                    Kind::Overwrite | Kind::InsertDrift | Kind::InsertFlood => {
                        twin[slot] = value_written(pos);
                    }
                    Kind::RemoveFlood => twin[slot] = NONE,
                }
                before
            })
            .collect();
        Inputs {
            ssn,
            resident,
            phase,
            stream,
            expected,
        }
    }

    pub fn bytes(&self) -> usize {
        self.ssn.bytes() + 4 * (self.stream.len() + self.expected.len())
    }

    /// A fresh episode map: every resident key at its initial value, with
    /// room reserved for the drift and flood inserts, so the bucket count
    /// the flood is forged against never changes.
    pub fn build(&self, tracer: &mut Tracer, synth_ns: &mut Vec<f64>) -> Map {
        let mut map = UnorderedMap::with_hasher(build_hasher(KeyFormat::Ssn, tracer, synth_ns));
        map.reserve(self.resident + self.phase / 5 + FLOOD);
        for id in 0..self.resident {
            map.insert(Box::from(self.ssn.key(id)), id as u64);
        }
        map
    }

    /// The reference's episode map: a `std` `HashMap` in the state an
    /// episode map starts in.
    pub fn reference_map(&self) -> StdMap {
        let mut map: StdMap = (0..self.resident)
            .map(|id| (Box::from(self.ssn.key(id)), id as u64))
            .collect();
        map.reserve(self.phase / 5 + FLOOD);
        map
    }
}

/// The inputs plus the flood forged against them.
pub struct Scenario {
    pub inputs: Inputs,
    flood: Vec<Vec<u8>>,
    /// The bucket count the flood was forged for.
    flood_buckets: usize,
}

/// Where an episode's measurements go.
pub struct Meters<'a> {
    pub tracer: &'a mut Tracer,
    pub log: &'a mut ClientLog,
    pub tally: &'a mut GuardTally,
    pub synth_ns: &'a mut Vec<f64>,
    pub migrating: &'a mut (u64, u64),
}

/// What one episode did; identical for every episode of a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    pub transitions: Transitions,
    pub recover_ops: u64,
    pub reached_keyed: bool,
    pub resynth_applied: bool,
    /// The bucket count differed from the one the flood was forged for.
    pub bucket_moved: bool,
}

impl Scenario {
    /// Generates the inputs and forges the flood the way an attacker
    /// holding the binary would: brute force against the hash of a map
    /// built like the episode maps. The flood keys are off-format, so
    /// they take the guard's fallback route, which no resynthesis changes.
    pub fn new(seed: u64, smoke: bool) -> Scenario {
        let inputs = Inputs::generate(seed, smoke);
        let probe = inputs.build(&mut Tracer::new(Instant::now(), 0, 0), &mut Vec::new());
        let flood_buckets = probe.bucket_count();
        let flood = sepe::verify::attacker::bucket_flood(
            |k| probe.hash_of(k),
            flood_buckets as u64,
            FLOOD,
            seed,
        );
        Scenario {
            inputs,
            flood,
            flood_buckets,
        }
    }

    /// Serves op `pos` of the episode from `table`; returns whether the
    /// result was the expected one.
    #[inline]
    fn op(&self, table: &mut impl Table, pos: usize) -> bool {
        let inputs = &self.inputs;
        let (kind, id) = unpack(inputs.stream[pos]);
        let value = u64::from(value_written(pos));
        let found = match kind {
            Kind::Hit | Kind::Miss => table.get(inputs.ssn.key(id)),
            Kind::Overwrite | Kind::InsertDrift => table.insert(inputs.ssn.key(id), value),
            Kind::InsertFlood => table.insert(&self.flood[id], value),
            Kind::RemoveFlood => table.remove(&self.flood[id]),
        };
        matches_expected(found, inputs.expected[pos])
    }

    /// Serves ops `range` of the episode from the reference, sampling
    /// latencies like the program's; returns the wrong results.
    fn reference_ops(&self, map: &mut StdMap, range: Range<usize>, log: &mut ClientLog) -> u64 {
        let mut failed = 0;
        for pos in range {
            let t0 = (pos as u64)
                .is_multiple_of(LATENCY_EVERY)
                .then(Instant::now);
            failed += u64::from(!self.op(map, pos));
            if let Some(t0) = t0 {
                log.ref_latencies.record(t0.elapsed().as_nanos() as f64);
            }
        }
        failed
    }

    /// Plays one episode on `map` with a fresh `maint`. With a
    /// `reference`, each phase is also served from it right after the
    /// program's, so both see the machine in the same state. Returns the
    /// episode, the time of the benchmark's own bookkeeping inside the
    /// program's part (to exclude), and the reference's time.
    pub fn episode(
        &self,
        map: &mut Map,
        maint: &mut Maintenance,
        m: Meters<'_>,
        mut reference: Option<&mut StdMap>,
    ) -> (Episode, Duration, Duration) {
        let inputs = &self.inputs;
        let mut ep = Episode::default();
        let mut excluded = Duration::ZERO;
        let mut ref_time = Duration::ZERO;
        let interval = maint.interval() as usize;
        let traced = m.tracer.is_on();
        let mut benign_chain = 0usize;
        let mut first_flood = None;
        let mut recovered = false;
        let len = inputs.stream.len();
        let mut served = 0;
        for pos in 0..len {
            if pos == inputs.phase {
                let t = Instant::now();
                benign_chain = map.max_bucket_len();
                excluded += t.elapsed();
            }
            if pos == 2 * inputs.phase {
                // The drift phase ends in an inline resynthesis.
                m.tally.read(map);
                m.tracer.open("resynthesize");
                let t = Instant::now();
                ep.resynth_applied = map.resynthesize().is_applied();
                m.synth_ns.push(t.elapsed().as_nanos() as f64);
                m.tracer.close();
                m.tally.rebase(map);
                ep.transitions.resynths += u64::from(ep.resynth_applied);
                ep.bucket_moved = map.bucket_count() != self.flood_buckets;
            }
            let (kind, _) = unpack(inputs.stream[pos]);
            let i = pos as u64;
            let span = traced && i.is_multiple_of(SPAN_EVERY);
            if span {
                m.migrating.0 += u64::from(map.migrating());
                m.migrating.1 += 1;
                m.tracer.open(match kind {
                    Kind::Hit | Kind::Miss => "get",
                    Kind::RemoveFlood => "remove",
                    _ => "insert",
                });
            }
            let t0 = i.is_multiple_of(LATENCY_EVERY).then(Instant::now);
            let ok = self.op(map, pos);
            if let Some(t0) = t0 {
                m.log.latency(t0.elapsed().as_nanos() as f64);
            }
            if span {
                m.tracer.close();
            }
            m.log.failed += u64::from(!ok);
            if kind == Kind::InsertFlood && first_flood.is_none() {
                first_flood = Some(pos);
            }
            if let Some(r) = reference.as_deref_mut() {
                if (pos + 1) % inputs.phase == 0 {
                    let t = Instant::now();
                    m.log.ref_failed += self.reference_ops(r, served..pos + 1, m.log);
                    ref_time += t.elapsed();
                    excluded += t.elapsed();
                    served = pos + 1;
                }
            }
            if (pos + 1) % interval == 0 {
                m.tally.read(map);
                maint.tick(map, m.tracer);
                m.tally.rebase(map);
                ep.reached_keyed |= map.guard_mode() == GuardMode::Keyed;
                if let (Some(first), false) = (first_flood, recovered) {
                    let t = Instant::now();
                    if map.max_bucket_len() <= 2 * benign_chain.max(1) && !map.migration_in_flight()
                    {
                        recovered = true;
                        ep.recover_ops = (pos + 1 - first) as u64;
                    }
                    excluded += t.elapsed();
                }
            }
        }
        m.tally.read(map);
        ep.transitions = Transitions {
            resynths: ep.transitions.resynths,
            ..maint.transitions
        };
        m.log.ops += len as u64;
        (ep, excluded, ref_time)
    }
}

/// Whether an op's result is the value the twin expects ([`NONE`]: none).
fn matches_expected(found: Option<u64>, want: u32) -> bool {
    match found {
        Some(v) => want != NONE && v == u64::from(want),
        None => want == NONE,
    }
}

/// The value an insert at stream position `pos` writes.
fn value_written(pos: usize) -> u32 {
    (1 << 31) | pos as u32
}

/// Checks that an episode took the whole ladder: degrade under drift,
/// resynthesis, escalation to the keyed rung under the flood, recovery,
/// and de-escalation once calm.
pub fn ladder_violations(ep: &Episode) -> Vec<String> {
    let mut v = Vec::new();
    let t = &ep.transitions;
    if t.degrades == 0 {
        v.push("drift never degraded the map".to_owned());
    }
    if !ep.resynth_applied {
        v.push("the inline resynthesis was not applied".to_owned());
    }
    if !ep.reached_keyed {
        v.push("the flood never drove the map to the keyed rung".to_owned());
    }
    if ep.recover_ops == 0 {
        v.push("the map never recovered from the flood".to_owned());
    }
    if t.deescalations == 0 {
        v.push("the map never de-escalated".to_owned());
    }
    if ep.bucket_moved {
        v.push("the bucket count moved, so the flood missed its bucket".to_owned());
    }
    v
}

pub fn run(cfg: &Cfg) -> Run {
    let scenario = Scenario::new(cfg.seed, cfg.smoke);
    let inputs = &scenario.inputs;
    let mut run = Run {
        inputs_mb: inputs.bytes() as f64 / (1 << 20) as f64,
        ..Run::default()
    };
    let mut tracer = Tracer::new(cfg.epoch, 0, if cfg.trace { SPAN_CAPACITY } else { 0 });
    tracer.set_on(cfg.trace);
    let mut map = None;
    for _ in 0..SETUP_BUILDS {
        drop(map.take());
        map = Some(timed_build(&mut run.setup_s, &mut tracer, |t| {
            inputs.build(t, &mut run.synth_ns)
        }));
    }
    tracer.set_on(false);

    let mut log = ClientLog::new();
    let mut tally = GuardTally::default();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut transitions = Transitions::default();
    let start = Instant::now();
    let mut w = 0;
    while another_window(start, cfg.seconds, cfg.trace, w) {
        // Each episode starts from fresh maps, built outside the timing;
        // the build counts towards `setup_s` like the ones before the run.
        if w > 0 {
            drop(map.take());
            map = Some(timed_build(&mut run.setup_s, &mut tracer, |t| {
                inputs.build(t, &mut run.synth_ns)
            }));
        }
        let mut reference = (!cfg.trace).then(|| inputs.reference_map());
        let m = map.as_mut().expect("built above");
        tally.rebase(m);
        // A fresh seed stream per episode keeps the episodes identical.
        let mut maint = Maintenance::new(cfg.seed, 1 << 12);
        let clock = log.open_window(&mut tracer, window_traced(cfg.trace, w));
        let meters = Meters {
            tracer: &mut tracer,
            log: &mut log,
            tally: &mut tally,
            synth_ns: &mut run.synth_ns,
            migrating: &mut run.migrating,
        };
        let (ep, excluded, ref_time) = scenario.episode(m, &mut maint, meters, reference.as_mut());
        let ops = inputs.stream.len() as u64;
        log.close_window_excluding(clock, ops, excluded);
        if reference.is_some() {
            log.reference_window(ops, ref_time);
        }
        run.tick_ns.extend_from_slice(&maint.tick_ns);
        transitions.add(&ep.transitions);
        episodes.push(ep);
        w += 1;
    }
    tracer.set_on(false);

    for v in ladder_violations(&episodes[0]) {
        run.violations.push(format!("episode 1: {v}"));
    }
    if let Some(other) = episodes.iter().find(|e| **e != episodes[0]) {
        run.violations
            .push(format!("episodes differ: {:?} vs {:?}", episodes[0], other));
    }
    let ep = episodes[0];
    run.recover_ops = ep.recover_ops;
    run.fingerprint
        .push(("episode_degrades", ep.transitions.degrades));
    run.fingerprint
        .push(("episode_escalations", ep.transitions.escalations));
    run.fingerprint
        .push(("episode_deescalations", ep.transitions.deescalations));
    run.fingerprint
        .push(("episode_rotations", ep.transitions.rotations));
    run.fingerprint.push(("recover_ops", ep.recover_ops));
    run.transitions = transitions;
    run.guard = tally.seen;
    run.census = Census::of_maps([map.as_ref().expect("built")]);
    run.clients.push(log);
    run.tracers.push(tracer);
    run
}

/// Transition counts of one episode, untimed: what the traced run compares
/// between the `obs` and the `obs`-off build.
pub fn episode_counts(seed: u64, smoke: bool) -> Episode {
    let scenario = Scenario::new(seed, smoke);
    let mut tracer = Tracer::new(Instant::now(), 0, 0);
    let mut synth_ns = Vec::new();
    let mut map = scenario.inputs.build(&mut tracer, &mut synth_ns);
    let meters = Meters {
        tracer: &mut tracer,
        log: &mut ClientLog::new(),
        tally: &mut GuardTally::default(),
        synth_ns: &mut synth_ns,
        migrating: &mut (0, 0),
    };
    scenario
        .episode(&mut map, &mut Maintenance::new(seed, 1 << 12), meters, None)
        .0
}
