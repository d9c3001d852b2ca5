//! The serving stack as the workloads use it, reached only through the
//! library's public items: one guarded OffXor hasher per format with a
//! CityHash fallback, maps and sharded maps over it, and the maintenance
//! tick that drives the map's policies inline.

use crate::measure::ClientLog;
use crate::trace::Tracer;
use sepe::baselines::CityHash;
use sepe::containers::{AttackPolicy, DriftPolicy, ShardedMap, UnorderedMap};
use sepe::core::guard::{GuardMode, GuardedHash};
use sepe::core::hash::{ByteHash, FixedSeedSource, SynthesizedHash};
use sepe::core::regex::Regex;
use sepe::core::synth::Family;
use sepe::keygen::KeyFormat;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

pub type Guarded = GuardedHash<SynthesizedHash, CityHash>;
pub type Map = UnorderedMap<Box<[u8]>, u64, Guarded>;
pub type Sharded = ShardedMap<Box<[u8]>, u64, SynthesizedHash, CityHash>;

/// The reference map: the standard library's, with its default SipHash
/// under fixed keys, so its layout repeats from run to run.
pub type StdMap = HashMap<Box<[u8]>, u64, BuildHasherDefault<DefaultHasher>>;

/// The data ops every table here serves, the program's maps and the
/// `std` references alike, so one op stream drives both.
pub trait Table {
    fn get(&mut self, key: &[u8]) -> Option<u64>;
    fn insert(&mut self, key: &[u8], value: u64) -> Option<u64>;
    fn remove(&mut self, key: &[u8]) -> Option<u64>;
    /// Whether a migration epoch is in flight; references never migrate.
    fn migrating(&self) -> bool {
        false
    }
}

impl<H: ByteHash> Table for UnorderedMap<Box<[u8]>, u64, H> {
    fn get(&mut self, key: &[u8]) -> Option<u64> {
        UnorderedMap::get(self, key).copied()
    }
    fn insert(&mut self, key: &[u8], value: u64) -> Option<u64> {
        UnorderedMap::insert(self, Box::from(key), value)
    }
    fn remove(&mut self, key: &[u8]) -> Option<u64> {
        UnorderedMap::remove(self, key)
    }
    fn migrating(&self) -> bool {
        self.migration_in_flight()
    }
}

/// Shared by reference: the sharded map serves concurrent clients.
impl Table for &Sharded {
    fn get(&mut self, key: &[u8]) -> Option<u64> {
        ShardedMap::get(*self, key)
    }
    fn insert(&mut self, key: &[u8], value: u64) -> Option<u64> {
        ShardedMap::insert(*self, Box::from(key), value)
    }
    fn remove(&mut self, key: &[u8]) -> Option<u64> {
        ShardedMap::remove(*self, key)
    }
    fn migrating(&self) -> bool {
        self.migrations_in_flight() > 0
    }
}

impl Table for StdMap {
    fn get(&mut self, key: &[u8]) -> Option<u64> {
        HashMap::get(self, key).copied()
    }
    fn insert(&mut self, key: &[u8], value: u64) -> Option<u64> {
        HashMap::insert(self, Box::from(key), value)
    }
    fn remove(&mut self, key: &[u8]) -> Option<u64> {
        HashMap::remove(self, key)
    }
}

/// Everything a workload needs to know about the run it is part of.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes for the self-test.
    pub smoke: bool,
    /// Time origin of every span.
    pub epoch: Instant,
}

impl Cfg {
    /// `full` normally, `small` under `--smoke`.
    pub fn size(&self, full: usize, small: usize) -> usize {
        if self.smoke {
            small
        } else {
            full
        }
    }
}

/// Span capacity per client thread in a traced run.
pub const SPAN_CAPACITY: usize = 1 << 16;

/// One data op in this many is wrapped in a span in traced windows. Odd,
/// like [`LATENCY_EVERY`], so the samples rotate through the four ops of
/// a `flow-churn` step instead of always landing on the same one.
pub const SPAN_EVERY: u64 = 63;

/// One data op in this many has its latency sampled.
pub const LATENCY_EVERY: u64 = 31;

/// Builds the guarded hasher for `format` from its regular expression:
/// the `synth` layer (regex → pattern → plan) plus the guard.
pub fn build_hasher(format: KeyFormat, tracer: &mut Tracer, synth_ns: &mut Vec<f64>) -> Guarded {
    tracer.open("synth");
    let start = Instant::now();
    let pattern = Regex::compile(&format.regex()).expect("paper format regexes compile");
    let hasher = GuardedHash::new(
        &pattern,
        SynthesizedHash::from_pattern(&pattern, Family::OffXor),
        CityHash::new(),
    );
    synth_ns.push(start.elapsed().as_nanos() as f64);
    tracer.close();
    hasher
}

/// Transitions taken by maintenance, counted from the `maybe_*` and
/// `resynthesize` return values (the maps' own counters read 0 without
/// the `obs` feature).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Transitions {
    pub degrades: u64,
    pub escalations: u64,
    pub deescalations: u64,
    pub rotations: u64,
    pub resynths: u64,
}

impl Transitions {
    pub fn total(&self) -> u64 {
        self.degrades + self.escalations + self.deescalations + self.resynths
    }

    pub fn add(&mut self, o: &Transitions) {
        self.degrades += o.degrades;
        self.escalations += o.escalations;
        self.deescalations += o.deescalations;
        self.rotations += o.rotations;
        self.resynths += o.resynths;
    }
}

/// The map policies every tick applies, with their defaults.
pub struct Maintenance {
    drift: DriftPolicy,
    attack: AttackPolicy,
    seeds: FixedSeedSource,
    pub transitions: Transitions,
    /// Duration of every tick, ns.
    pub tick_ns: Vec<f64>,
}

impl Maintenance {
    pub fn new(seed: u64, ticks: usize) -> Maintenance {
        Maintenance {
            drift: DriftPolicy::default(),
            attack: AttackPolicy::default(),
            seeds: FixedSeedSource::new(seed | 1),
            transitions: Transitions::default(),
            tick_ns: Vec::with_capacity(ticks),
        }
    }

    /// The tick interval in data ops: one drift window.
    pub fn interval(&self) -> u64 {
        self.drift.window
    }

    /// One maintenance tick on `map`: drift check, storm check, calm
    /// check, each as a child span of `tick`.
    pub fn tick(&mut self, map: &mut Map, tracer: &mut Tracer) {
        let start = Instant::now();
        tracer.open("tick");
        tracer.open("maybe_degrade");
        // Only on the guarded rung: on the keyed rung, `maybe_degrade`
        // still judges the drift window frozen at escalation, and a
        // degrade from there files the old epoch under the guarded
        // routing, so lookups of stored keys miss (README, findings).
        let degraded = map.guard_mode() == GuardMode::Guarded && map.maybe_degrade(&self.drift);
        tracer.close();
        tracer.open("maybe_escalate");
        let from = map.guard_mode();
        let escalated = map.maybe_escalate(&self.attack, &self.seeds);
        tracer.close();
        tracer.open("maybe_deescalate");
        let deescalated = map.maybe_deescalate(&self.attack);
        tracer.close();
        tracer.close();
        if self.tick_ns.len() < self.tick_ns.capacity() {
            self.tick_ns.push(start.elapsed().as_nanos() as f64);
        }
        let t = &mut self.transitions;
        t.degrades += u64::from(degraded);
        t.escalations += u64::from(escalated);
        t.rotations += u64::from(escalated && from == GuardMode::Keyed);
        t.deescalations += u64::from(deescalated);
    }
}

/// Guard verdicts of one map summed across the counter resets that
/// transitions make: read before a transition can happen, rebase after.
#[derive(Debug, Default, Clone, Copy)]
pub struct GuardTally {
    /// `(in_format, off_format)` counted so far.
    pub seen: (u64, u64),
    base: (u64, u64),
}

impl GuardTally {
    fn now(map: &Map) -> (u64, u64) {
        let s = map.drift_stats();
        (s.in_format(), s.off_format())
    }

    pub fn read(&mut self, map: &Map) {
        let (i, o) = Self::now(map);
        self.seen.0 += i.saturating_sub(self.base.0);
        self.seen.1 += o.saturating_sub(self.base.1);
        self.base = (i, o);
    }

    pub fn rebase(&mut self, map: &Map) {
        self.base = Self::now(map);
    }
}

/// The paper's bucket census over the maps a workload ends with.
#[derive(Debug, Default, Clone, Copy)]
pub struct Census {
    pub collisions: u64,
    pub max_chain: u64,
    pub len: u64,
    pub buckets: u64,
    pub stale_reads: u64,
}

impl Census {
    pub fn of_maps<'a>(maps: impl IntoIterator<Item = &'a Map>) -> Census {
        let mut c = Census::default();
        for m in maps {
            c.collisions += m.bucket_collisions();
            c.max_chain = c.max_chain.max(m.max_bucket_len() as u64);
            c.len += m.len() as u64;
            c.buckets += m.bucket_count() as u64;
            c.stale_reads += m.stale_reads();
        }
        c
    }

    pub fn of_sharded(map: &Sharded) -> Census {
        let mut c = Census {
            collisions: map.bucket_collisions(),
            len: map.len() as u64,
            stale_reads: map.stale_reads(),
            ..Census::default()
        };
        for i in 0..map.shard_count() {
            c.max_chain = c.max_chain.max(map.shard_max_bucket_len(i) as u64);
            c.buckets += map.shard_bucket_count(i) as u64;
        }
        c
    }

    pub fn load_factor(&self) -> f64 {
        if self.buckets == 0 {
            0.0
        } else {
            self.len as f64 / self.buckets as f64
        }
    }
}

/// What one workload run produced, before it is turned into metrics.
#[derive(Default)]
pub struct Run {
    pub clients: Vec<ClientLog>,
    /// Wall time of each serving-structure build, s.
    pub setup_s: Vec<f64>,
    /// Duration of every hasher construction and resynthesis, ns.
    pub synth_ns: Vec<f64>,
    pub tick_ns: Vec<f64>,
    pub transitions: Transitions,
    pub guard: (u64, u64),
    pub census: Census,
    /// Sampled data ops in traced windows that found a migration in
    /// flight, and all sampled ops there.
    pub migrating: (u64, u64),
    pub recover_ops: u64,
    pub tracers: Vec<Tracer>,
    /// Broken workload invariants; any entry fails the run.
    pub violations: Vec<String>,
    /// Counts that must repeat exactly for one seed.
    pub fingerprint: Vec<(&'static str, u64)>,
    /// MiB the generated inputs occupy.
    pub inputs_mb: f64,
}

impl Run {
    pub fn ops(&self) -> u64 {
        self.clients.iter().map(|c| c.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }
}

/// Times `f` as one serving-structure build: records its wall time in
/// `setup_s` under a `setup` span.
pub fn timed_build<T>(
    setup_s: &mut Vec<f64>,
    tracer: &mut Tracer,
    f: impl FnOnce(&mut Tracer) -> T,
) -> T {
    tracer.open("setup");
    let start = Instant::now();
    let out = f(tracer);
    setup_s.push(start.elapsed().as_secs_f64());
    tracer.close();
    out
}

/// Serving structures are built this many times; `setup_s` is the median.
pub const SETUP_BUILDS: usize = 5;
