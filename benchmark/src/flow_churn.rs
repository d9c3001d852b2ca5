//! `flow-churn`: an IPv4 flow table far larger than the last-level cache,
//! with writes beside reads. Two client threads share an 8-shard map; each
//! keeps its own flows in FIFO order, so every expected result follows
//! from the flow number alone: flow `g` holds value `g`. The reference
//! serves the same steps from `std` `HashMap`s behind 8 `RwLock`s.

use crate::inputs::{below, Keys};
use crate::measure::{another_window, window_traced, ClientLog, LatencyHist};
use crate::stack::{
    build_hasher, timed_build, Census, Cfg, Run, Sharded, StdMap, Table, LATENCY_EVERY,
    SETUP_BUILDS, SPAN_CAPACITY, SPAN_EVERY,
};
use crate::trace::Tracer;
use sepe::containers::ShardedMap;
use sepe::keygen::{KeyFormat, SplitMix64};
use std::hash::{DefaultHasher, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, RwLock};
use std::time::Instant;

pub const CLIENTS: usize = 2;
pub const SHARDS: usize = 8;

pub struct Inputs {
    /// Flow keys; flow `g` uses key `g % pool.len()`.
    pub pool: Keys,
    /// Live flows per client.
    pub live: usize,
    /// Per client: offsets into its live window for the lookups.
    pub offsets: Vec<Vec<u32>>,
}

impl Inputs {
    pub fn generate(seed: u64, smoke: bool) -> Inputs {
        let mut rng = SplitMix64::new(seed ^ 0xF10C_4A11);
        let (pool, live, offsets) = if smoke {
            (1 << 15, 1 << 12, 1 << 12)
        } else {
            // 2 x 2^19 = 1,048,576 live flows. A key comes back only after
            // 2^21 flows, long after its previous flow was removed.
            (1 << 21, 1 << 19, 1 << 20)
        };
        let pool = Keys::generate(KeyFormat::Ipv4, pool, &mut rng);
        let offsets = (0..CLIENTS)
            .map(|_| (0..offsets).map(|_| below(&mut rng, live) as u32).collect())
            .collect();
        Inputs {
            pool,
            live,
            offsets,
        }
    }

    pub fn bytes(&self) -> usize {
        self.pool.bytes() + self.offsets.iter().map(|o| 4 * o.len()).sum::<usize>()
    }

    /// Global number of client `t`'s `k`-th flow.
    #[inline]
    pub fn flow(t: usize, k: u64) -> u64 {
        k * CLIENTS as u64 + t as u64
    }

    #[inline]
    pub fn key(&self, flow: u64) -> &[u8] {
        self.pool.key((flow % self.pool.len() as u64) as usize)
    }

    /// Inserts client `t`'s first `live` flows; returns failed inserts.
    fn load(&self, mut table: impl Table, t: usize) -> u64 {
        let mut failed = 0;
        for k in 0..self.live as u64 {
            let g = Self::flow(t, k);
            failed += u64::from(table.insert(self.key(g), g).is_some());
        }
        failed
    }

    /// Loads every client's first flows into `table`, the clients
    /// concurrently; returns failed inserts.
    pub fn load_all(&self, table: impl Table + Copy + Send) -> u64 {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|t| s.spawn(move || self.load(table, t)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a loading client panicked"))
                .sum()
        })
    }

    /// Builds the sharded table and grows it to full size.
    pub fn build(
        &self,
        shards: usize,
        tracer: &mut Tracer,
        synth_ns: &mut Vec<f64>,
    ) -> (Sharded, u64) {
        let map = ShardedMap::with_hasher(build_hasher(KeyFormat::Ipv4, tracer, synth_ns), shards);
        tracer.open("load");
        let failed = self.load_all(&map);
        tracer.close();
        (map, failed)
    }
}

/// The reference: `std` `HashMap`s behind `RwLock`s, one per shard, with
/// the shard chosen by the top bits of the standard hasher.
pub struct StdSharded(Vec<RwLock<StdMap>>);

impl StdSharded {
    fn new(shards: usize) -> StdSharded {
        StdSharded((0..shards).map(|_| RwLock::default()).collect())
    }

    fn shard(&self, key: &[u8]) -> &RwLock<StdMap> {
        let mut h = DefaultHasher::new();
        h.write(key);
        &self.0[(h.finish() >> 61) as usize % self.0.len()]
    }
}

/// Shared by reference, like the program's sharded map.
impl Table for &StdSharded {
    fn get(&mut self, key: &[u8]) -> Option<u64> {
        let shard = self.shard(key).read();
        shard
            .expect("no client panics holding a shard")
            .get(key)
            .copied()
    }
    fn insert(&mut self, key: &[u8], value: u64) -> Option<u64> {
        let shard = self.shard(key).write();
        shard
            .expect("no client panics holding a shard")
            .insert(Box::from(key), value)
    }
    fn remove(&mut self, key: &[u8]) -> Option<u64> {
        let shard = self.shard(key).write();
        shard.expect("no client panics holding a shard").remove(key)
    }
}

/// Where one client is in its FIFO of flows.
#[derive(Default, Clone, Copy)]
struct Fifo {
    oldest: u64,
    /// Cursor into the client's lookup offsets.
    o: usize,
    /// Ops served so far: drives latency sampling and spans.
    i: u64,
}

/// Serves `steps` churn steps of client `t` from `table`: insert the
/// newest flow, remove the oldest, look up two live ones. Returns the
/// failed ops.
#[allow(clippy::too_many_arguments)]
fn churn(
    mut table: impl Table,
    inputs: &Inputs,
    t: usize,
    fifo: &mut Fifo,
    steps: u64,
    hist: &mut LatencyHist,
    tracer: &mut Tracer,
    migrating: &mut (u64, u64),
) -> u64 {
    let offsets = &inputs.offsets[t];
    let live = inputs.live as u64;
    let traced = tracer.is_on();
    let mut failed = 0;
    for _ in 0..steps {
        for op in 0..4usize {
            let span = traced && fifo.i.is_multiple_of(SPAN_EVERY);
            if span {
                migrating.0 += u64::from(table.migrating());
                migrating.1 += 1;
                tracer.open(["insert", "remove", "get", "get"][op]);
            }
            let t0 = fifo.i.is_multiple_of(LATENCY_EVERY).then(Instant::now);
            let ok = match op {
                0 => {
                    let g = Inputs::flow(t, fifo.oldest + live);
                    table.insert(inputs.key(g), g).is_none()
                }
                1 => {
                    let g = Inputs::flow(t, fifo.oldest);
                    fifo.oldest += 1;
                    table.remove(inputs.key(g)) == Some(g)
                }
                _ => {
                    let g = Inputs::flow(t, fifo.oldest + u64::from(offsets[fifo.o]));
                    fifo.o = (fifo.o + 1) % offsets.len();
                    table.get(inputs.key(g)) == Some(g)
                }
            };
            if let Some(t0) = t0 {
                hist.record(t0.elapsed().as_nanos() as f64);
            }
            if span {
                tracer.close();
            }
            failed += u64::from(!ok);
            fifo.i += 1;
        }
    }
    failed
}

/// The clients step through windows in lockstep, so the program and the
/// reference never overlap: a barrier, then the leader decides for both
/// whether another window runs.
struct Lockstep {
    barrier: Barrier,
    go: AtomicBool,
}

impl Lockstep {
    fn sync(&self) {
        self.barrier.wait();
    }

    fn another(&self, start: Instant, cfg: &Cfg, w: usize) -> bool {
        if self.barrier.wait().is_leader() {
            self.go.store(
                another_window(start, cfg.seconds, cfg.trace, w),
                Ordering::SeqCst,
            );
        }
        self.barrier.wait();
        self.go.load(Ordering::SeqCst)
    }
}

/// One client's timed part: program windows, each followed (untraced)
/// by the same steps on the reference.
#[allow(clippy::too_many_arguments)]
fn client(
    cfg: &Cfg,
    inputs: &Inputs,
    map: &Sharded,
    reference: &StdSharded,
    t: usize,
    start: Instant,
    lockstep: &Lockstep,
) -> (ClientLog, Tracer, (u64, u64)) {
    let mut tracer = Tracer::new(
        cfg.epoch,
        t as u32 + 1,
        if cfg.trace { SPAN_CAPACITY } else { 0 },
    );
    let mut off = Tracer::new(cfg.epoch, 0, 0);
    let mut log = ClientLog::new();
    let mut migrating = (0u64, 0u64);
    let (mut fifo, mut ref_fifo) = (Fifo::default(), Fifo::default());
    let steps = cfg.size(1 << 11, 1 << 10) as u64;
    let mut w = 0;
    while lockstep.another(start, cfg, w) {
        let clock = log.open_window(&mut tracer, window_traced(cfg.trace, w));
        log.failed += churn(
            map,
            inputs,
            t,
            &mut fifo,
            steps,
            &mut log.latencies,
            &mut tracer,
            &mut migrating,
        );
        log.ops += 4 * steps;
        log.close_window(clock, 4 * steps);
        if !cfg.trace {
            lockstep.sync();
            let t0 = Instant::now();
            log.ref_failed += churn(
                reference,
                inputs,
                t,
                &mut ref_fifo,
                steps,
                &mut log.ref_latencies,
                &mut off,
                &mut (0, 0),
            );
            log.reference_window(4 * steps, t0.elapsed());
        }
        w += 1;
    }
    tracer.set_on(false);
    (log, tracer, migrating)
}

pub fn run(cfg: &Cfg) -> Run {
    let inputs = Inputs::generate(cfg.seed, cfg.smoke);
    let mut run = Run {
        inputs_mb: inputs.bytes() as f64 / (1 << 20) as f64,
        ..Run::default()
    };
    // Traced runs have no reference; an empty one costs nothing.
    let reference = StdSharded::new(SHARDS);
    if !cfg.trace && inputs.load_all(&reference) > 0 {
        run.violations
            .push("the reference's bulk load found a live key".to_owned());
    }
    let mut tracer = Tracer::new(cfg.epoch, 0, if cfg.trace { SPAN_CAPACITY } else { 0 });
    tracer.set_on(cfg.trace);
    let mut map = None;
    let mut collisions = Vec::new();
    for _ in 0..SETUP_BUILDS {
        // Free the previous build first, so two tables never coexist.
        drop(map.take());
        let (built, failed) = timed_build(&mut run.setup_s, &mut tracer, |t| {
            inputs.build(SHARDS, t, &mut run.synth_ns)
        });
        if failed > 0 {
            run.violations
                .push(format!("{failed} bulk-load inserts found a live key"));
        }
        collisions.push(built.bucket_collisions());
        map = Some(built);
    }
    let map = map.expect("at least one build");
    tracer.set_on(false);
    // The clients' inserts race for shard locks, so the load order, and
    // with it the chain order, varies; the set of keys and the bucket
    // census do not.
    if collisions.iter().any(|&c| c != collisions[0]) {
        run.violations.push(format!(
            "B-Coll differs between identical builds: {collisions:?}"
        ));
    }
    run.fingerprint
        .push(("setup_bucket_collisions", collisions[0]));

    let lockstep = Lockstep {
        barrier: Barrier::new(CLIENTS),
        go: AtomicBool::new(true),
    };
    let start = Instant::now();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (inputs, map, reference, lockstep) = (&inputs, &map, &reference, &lockstep);
                s.spawn(move || client(cfg, inputs, map, reference, t, start, lockstep))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a churn client panicked"))
            .collect::<Vec<_>>()
    });
    run.tracers.push(tracer);
    for (log, tracer, migrating) in results {
        run.clients.push(log);
        run.tracers.push(tracer);
        run.migrating.0 += migrating.0;
        run.migrating.1 += migrating.1;
    }
    let live = (CLIENTS * inputs.live) as u64;
    if map.len() as u64 != live {
        run.violations
            .push(format!("{} flows live, expected {live}", map.len()));
    }
    run.guard = map.drift_counts();
    run.census = Census::of_sharded(&map);
    run
}
