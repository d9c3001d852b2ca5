//! The layer ladder: one recorded op stream replayed through the stack
//! one layer at a time, so each layer's cost is the difference between
//! its rung and the rung below. Two streams: the cache-resident
//! `serve-mixed` stream and the cache-missing `flow-churn` FIFO.
//!
//! Rungs, in order: `SynthesizedHash::hash_bytes` (`hash`),
//! `GuardedHash::hash_bytes` (`guard`), `UnorderedMap` over the plain
//! synthesized hash (`table`), the guarded `UnorderedMap` (`map`), and a
//! 1-shard `ShardedMap` (`sharded`). The serve stream also runs the guarded
//! map with a maintenance tick per drift window, for the tick cost on
//! workloads that have no ticks of their own.

use crate::drift_attack;
use crate::flow_churn;
use crate::inputs::Keys;
use crate::json::Json;
use crate::measure::median;
use crate::serve_mixed::{self, Kind};
use crate::stack::{build_hasher, Guarded, Maintenance, Map, Sharded, Table};
use crate::trace::Tracer;
use sepe::containers::{ShardedMap, UnorderedMap};
use sepe::core::hash::{ByteHash, HashBatch, SynthesizedHash};
use std::hint::black_box;
use std::time::Instant;

/// Median of `reps` timings of `f`, in ns per op for `ops` ops each.
fn time_per_op(reps: usize, ops: usize, mut f: impl FnMut()) -> f64 {
    let t: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&t)
}

const REPS: usize = 5;

fn hashers(formats: &[Keys]) -> Vec<Guarded> {
    let mut t = Tracer::new(Instant::now(), 0, 0);
    let mut synth = Vec::new();
    formats
        .iter()
        .map(|k| build_hasher(k.format, &mut t, &mut synth))
        .collect()
}

/// A rung: its name, the ops one replay serves, and the replay.
type Rung<'a> = (&'static str, usize, Box<dyn FnMut() + 'a>);

/// Times each rung `REPS` times, the rungs taking turns, so a change in
/// the machine's speed falls on every rung alike; `(name, ns per op)`.
fn round_robin(rungs: &mut [Rung<'_>]) -> Vec<(&'static str, f64)> {
    let mut times = vec![Vec::new(); rungs.len()];
    for _ in 0..REPS {
        for ((_, ops, f), t) in rungs.iter_mut().zip(&mut times) {
            let start = Instant::now();
            f();
            t.push(start.elapsed().as_nanos() as f64 / *ops as f64);
        }
    }
    rungs
        .iter()
        .zip(&mut times)
        .map(|((name, _, _), t)| (*name, median(t)))
        .collect()
}

/// Replays `ops` on one table per format; `tick` runs after every op.
fn replay<T: Table>(
    tables: &mut [T],
    ops: &[(usize, Kind, &[u8])],
    mut tick: impl FnMut(&mut T, usize),
) {
    let mut acc = 0u64;
    for (i, &(f, kind, key)) in ops.iter().enumerate() {
        acc ^= match kind {
            Kind::Overwrite => tables[f].insert(key, i as u64),
            _ => tables[f].get(key),
        }
        .unwrap_or(0);
        tick(&mut tables[(i >> 10) % tables.len()], i);
    }
    black_box(acc);
}

/// One table per format from `new`, holding every resident key.
fn loaded<T: Table>(inputs: &serve_mixed::Inputs, new: impl Fn(usize) -> T) -> Vec<T> {
    (0..inputs.keys.len())
        .map(|f| {
            let mut t = new(f);
            for k in 0..inputs.resident {
                t.insert(inputs.keys[f].key(k), k as u64);
            }
            t
        })
        .collect()
}

/// The serve stream's rungs, ns per op (per key for the batch rung), and
/// the tick durations of the ticking rung.
fn serve(seed: u64, smoke: bool, out: &mut Json, tick_ns: &mut Vec<f64>) {
    let inputs = serve_mixed::Inputs::generate(seed, smoke);
    let ops: Vec<(usize, Kind, &[u8])> = inputs
        .stream
        .iter()
        .take(if smoke { 1 << 12 } else { 1 << 18 })
        .map(|&op| {
            let (f, kind, k) = serve_mixed::unpack(op);
            (f, kind, inputs.keys[f].key(k))
        })
        .collect();
    let n = ops.len();
    let guarded = hashers(&inputs.keys);
    let plain: Vec<SynthesizedHash> = guarded.iter().map(|g| g.specialized().clone()).collect();
    let pools: Vec<Vec<&[u8]>> = inputs.keys.iter().map(Keys::refs).collect();
    let pool_keys: usize = pools.iter().map(|p| p.len() / 8 * 8).sum();
    // Every map rung gets hashers with drift state of its own.
    let mut r3 = loaded(&inputs, |f| UnorderedMap::with_hasher(plain[f].clone()));
    let mut r4: Vec<Map> = loaded(&inputs, |f| {
        UnorderedMap::with_hasher(guarded[f].detached())
    });
    let mut r4t: Vec<Map> = loaded(&inputs, |f| {
        UnorderedMap::with_hasher(guarded[f].detached())
    });
    let sharded: Vec<Sharded> = (0..inputs.keys.len())
        .map(|f| ShardedMap::with_hasher(guarded[f].detached(), 1))
        .collect();
    let mut r5: Vec<&Sharded> = loaded(&inputs, |f| &sharded[f]);
    let mut maint = Maintenance::new(seed, 1 << 16);
    let interval = maint.interval() as usize;
    let mut tracer = Tracer::new(Instant::now(), 0, 0);
    let ops = &ops;
    let mut rungs: Vec<Rung<'_>> = vec![
        (
            "hash",
            n,
            Box::new(|| {
                let acc = ops
                    .iter()
                    .fold(0u64, |a, &(f, _, key)| a ^ plain[f].hash_bytes(key));
                black_box(acc);
            }),
        ),
        (
            "hash_batch",
            pool_keys,
            Box::new(|| {
                let mut out = [0u64; 8];
                let mut acc = 0u64;
                for (h, pool) in plain.iter().zip(&pools) {
                    for chunk in pool.chunks_exact(8) {
                        h.hash_batch(chunk, &mut out);
                        acc ^= out[0] ^ out[7];
                    }
                }
                black_box(acc);
            }),
        ),
        (
            "guard",
            n,
            Box::new(|| {
                let acc = ops
                    .iter()
                    .fold(0u64, |a, &(f, _, key)| a ^ guarded[f].hash_bytes(key));
                black_box(acc);
            }),
        ),
        ("table", n, Box::new(|| replay(&mut r3, ops, |_, _| {}))),
        ("map", n, Box::new(|| replay(&mut r4, ops, |_, _| {}))),
        (
            "map_ticked",
            n,
            Box::new(|| {
                replay(&mut r4t, ops, |m, i| {
                    if (i + 1) % interval == 0 {
                        maint.tick(m, &mut tracer);
                    }
                })
            }),
        ),
        ("sharded", n, Box::new(|| replay(&mut r5, ops, |_, _| {}))),
    ];
    for (name, v) in round_robin(&mut rungs) {
        out.set(name, v);
    }
    drop(rungs);
    tick_ns.extend_from_slice(&maint.tick_ns);
}

/// The flow stream's rungs, ns per op: a single-client FIFO of flows
/// (insert the newest, remove the oldest, look up two live ones).
fn flow(seed: u64, smoke: bool, out: &mut Json) {
    let inputs = flow_churn::Inputs::generate(seed, smoke);
    let steps = if smoke { 1 << 10 } else { 1 << 16 };
    let guarded = hashers(std::slice::from_ref(&inputs.pool)).remove(0);
    let plain = guarded.specialized().clone();
    let fifo = Fifo::new(&inputs);
    let hash_rung = |h: &dyn ByteHash| {
        let mut fifo = Fifo::new(&inputs);
        time_per_op(REPS, 4 * steps, || {
            let mut acc = 0u64;
            for _ in 0..steps {
                for key in fifo.step() {
                    acc ^= h.hash_bytes(key);
                }
            }
            black_box(acc);
        })
    };
    let r1 = hash_rung(&plain);
    let r2 = hash_rung(&guarded);
    let r3 = fifo.run(&mut UnorderedMap::with_hasher(plain), steps);
    let r4 = fifo.run(&mut UnorderedMap::with_hasher(guarded.clone()), steps);
    let r5 = fifo.run(&mut &ShardedMap::with_hasher(guarded, 1), steps);
    for (name, v) in [
        ("hash", r1),
        ("guard", r2),
        ("table", r3),
        ("map", r4),
        ("sharded", r5),
    ] {
        out.set(name, v);
    }
}

/// One client's flow FIFO over every live flow of `flow-churn`.
#[derive(Clone, Copy)]
struct Fifo<'a> {
    inputs: &'a flow_churn::Inputs,
    live: u64,
    oldest: u64,
    o: usize,
}

impl<'a> Fifo<'a> {
    fn new(inputs: &'a flow_churn::Inputs) -> Fifo<'a> {
        Fifo {
            inputs,
            live: (flow_churn::CLIENTS * inputs.live) as u64,
            oldest: 0,
            o: 0,
        }
    }

    /// The keys of the next step: newest flow, oldest flow, two live ones.
    fn step(&mut self) -> [&'a [u8]; 4] {
        let offsets = &self.inputs.offsets[0];
        let mut live_flow = || {
            // Offsets cover one client's window; spread them over all.
            let off = u64::from(offsets[self.o % offsets.len()]) * flow_churn::CLIENTS as u64;
            self.o += 1;
            self.oldest + 1 + (off + self.o as u64 % 2) % (self.live - 1)
        };
        let (a, b) = (live_flow(), live_flow());
        let keys = [self.oldest + self.live, self.oldest, a, b].map(|g| self.inputs.key(g));
        self.oldest += 1;
        keys
    }

    /// Loads the live flows into `table`, then times the churn.
    fn run<T: Table>(mut self, table: &mut T, steps: usize) -> f64 {
        for g in 0..self.live {
            table.insert(self.inputs.key(g), g);
        }
        time_per_op(REPS, 4 * steps, || {
            let mut acc = 0u64;
            for _ in 0..steps {
                let newest = self.oldest + self.live;
                let [new, old, a, b] = self.step();
                acc ^= table.insert(new, newest).unwrap_or(0);
                acc ^= table.remove(old).unwrap_or(0);
                acc ^= table.get(a).unwrap_or(0) ^ table.get(b).unwrap_or(0);
            }
            black_box(acc);
        })
    }
}

/// Every rung of both streams plus one drift-attack episode's transition
/// count, as one JSON object. Run in-process by the `obs` build and in a
/// child process by the `obs`-off build.
pub fn run(seed: u64, smoke: bool) -> (Json, Vec<f64>) {
    let mut tick_ns = Vec::new();
    let mut s = Json::obj();
    serve(seed, smoke, &mut s, &mut tick_ns);
    let mut f = Json::obj();
    flow(seed, smoke, &mut f);
    let ep = drift_attack::episode_counts(seed, smoke);
    let mut out = Json::obj();
    out.set("obs_enabled", sepe_obs::enabled());
    out.set("serve", s);
    out.set("flow", f);
    out.set("drift_transitions", ep.transitions.total());
    (out, tick_ns)
}
