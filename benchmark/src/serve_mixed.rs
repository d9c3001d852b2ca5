//! `serve-mixed`: steady, read-heavy serving from cache-resident maps.
//! Each op hashes, guards, probes and (with `obs`) instruments; a
//! maintenance tick runs on one map per drift window and must never fire.
//! The reference serves the same ops from `std` `HashMap`s.

use crate::inputs::{below, Keys};
use crate::measure::{another_window, window_traced, ClientLog};
use crate::stack::{
    build_hasher, timed_build, Census, Cfg, Maintenance, Map, Run, StdMap, Table, LATENCY_EVERY,
    SETUP_BUILDS, SPAN_CAPACITY, SPAN_EVERY,
};
use crate::trace::Tracer;
use sepe::containers::UnorderedMap;
use sepe::keygen::{KeyFormat, SplitMix64};
use std::time::Instant;

pub const RESIDENT: usize = 4096;
pub const ABSENT: usize = 1024;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Hit,
    Miss,
    Overwrite,
}

/// The generated inputs: keys per format and one op stream replayed
/// cyclically, with the result each op must return.
pub struct Inputs {
    pub keys: Vec<Keys>,
    pub resident: usize,
    /// Packed ops: format in bits 29.., kind in 27..29, key index below.
    pub stream: Vec<u32>,
    /// Per op: the value a hit must read, or an overwrite must replace.
    pub expected: Vec<u32>,
    /// The value each resident key holds at the start of every pass.
    pub initial: Vec<u32>,
}

const KEY_BITS: u32 = 27;

#[inline]
pub fn unpack(op: u32) -> (usize, Kind, usize) {
    let kind = match (op >> KEY_BITS) & 3 {
        0 => Kind::Hit,
        1 => Kind::Miss,
        _ => Kind::Overwrite,
    };
    (
        (op >> 29) as usize,
        kind,
        (op & ((1 << KEY_BITS) - 1)) as usize,
    )
}

/// The value an overwrite at stream position `pos` writes.
#[inline]
pub fn written(pos: usize) -> u32 {
    (1 << 31) | pos as u32
}

impl Inputs {
    pub fn generate(seed: u64, smoke: bool) -> Inputs {
        let mut rng = SplitMix64::new(seed ^ 0x5E4E_E000);
        let (resident, absent, len) = if smoke {
            (512, 128, 1 << 14)
        } else {
            (RESIDENT, ABSENT, 1 << 20)
        };
        let keys: Vec<Keys> = KeyFormat::EVALUATED
            .iter()
            .map(|&f| Keys::generate(f, resident + absent, &mut rng))
            .collect();
        let formats = keys.len();
        let mut stream = Vec::with_capacity(len);
        for _ in 0..len {
            let f = below(&mut rng, formats) as u32;
            let roll = below(&mut rng, 10);
            let (kind, key) = match roll {
                0 => (1, resident + below(&mut rng, absent)),
                1 => (2, below(&mut rng, resident)),
                _ => (0, below(&mut rng, resident)),
            };
            stream.push(f << 29 | kind << KEY_BITS | key as u32);
        }
        // Twin: after one pass every key the stream overwrites holds its
        // last write of the pass, the rest their build value; call that S.
        // A pass from S ends in S again, so maps built in S expect on
        // every pass what the twin records on its second.
        let mut twin: Vec<u32> = (0..formats * resident).map(|i| i as u32).collect();
        let mut expected = vec![0u32; len];
        for _pass in 0..2 {
            for (pos, &op) in stream.iter().enumerate() {
                let (f, kind, k) = unpack(op);
                let slot = f * resident + k;
                match kind {
                    Kind::Hit => expected[pos] = twin[slot],
                    Kind::Miss => {}
                    Kind::Overwrite => {
                        expected[pos] = twin[slot];
                        twin[slot] = written(pos);
                    }
                }
            }
        }
        Inputs {
            keys,
            resident,
            stream,
            expected,
            initial: twin,
        }
    }

    pub fn bytes(&self) -> usize {
        self.keys.iter().map(Keys::bytes).sum::<usize>()
            + 4 * (self.stream.len() + self.expected.len() + self.initial.len())
    }

    /// The reference: one `std` `HashMap` per format, in the same state
    /// as the maps.
    pub fn build_reference(&self) -> Vec<StdMap> {
        self.keys
            .iter()
            .enumerate()
            .map(|(f, keys)| {
                (0..self.resident)
                    .map(|k| {
                        (
                            Box::from(keys.key(k)),
                            u64::from(self.initial[f * self.resident + k]),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// Serves op `i` of the cyclic stream from `tables`, one per format;
    /// returns whether the result was the expected one.
    #[inline]
    pub fn op(&self, tables: &mut [impl Table], i: u64) -> bool {
        let pos = (i as usize) % self.stream.len();
        let (f, kind, k) = unpack(self.stream[pos]);
        let (table, key) = (&mut tables[f], self.keys[f].key(k));
        let expected = u64::from(self.expected[pos]);
        match kind {
            Kind::Hit => table.get(key) == Some(expected),
            Kind::Miss => table.get(key).is_none(),
            Kind::Overwrite => table.insert(key, u64::from(written(pos))) == Some(expected),
        }
    }

    /// One map per format, holding every resident key at its pass-start
    /// value.
    pub fn build_maps(&self, tracer: &mut Tracer, synth_ns: &mut Vec<f64>) -> Vec<Map> {
        self.keys
            .iter()
            .enumerate()
            .map(|(f, keys)| {
                let mut map =
                    UnorderedMap::with_hasher(build_hasher(keys.format, tracer, synth_ns));
                for k in 0..self.resident {
                    let v = self.initial[f * self.resident + k];
                    map.insert(Box::from(keys.key(k)), u64::from(v));
                }
                map
            })
            .collect()
    }
}

pub fn run(cfg: &Cfg) -> Run {
    let inputs = Inputs::generate(cfg.seed, cfg.smoke);
    let mut run = Run {
        inputs_mb: inputs.bytes() as f64 / (1 << 20) as f64,
        ..Run::default()
    };
    let mut reference = inputs.build_reference();
    let mut tracer = Tracer::new(cfg.epoch, 0, if cfg.trace { SPAN_CAPACITY } else { 0 });
    tracer.set_on(cfg.trace);
    let mut maps = Vec::new();
    let mut collisions = Vec::new();
    for _ in 0..SETUP_BUILDS {
        // Free the previous build first, so two builds never coexist.
        drop(std::mem::take(&mut maps));
        maps = timed_build(&mut run.setup_s, &mut tracer, |t| {
            inputs.build_maps(t, &mut run.synth_ns)
        });
        collisions.push(Census::of_maps(&maps).collisions);
    }
    if collisions.iter().any(|&c| c != collisions[0]) {
        run.violations.push(format!(
            "B-Coll differs between identical builds: {collisions:?}"
        ));
    }
    run.fingerprint
        .push(("setup_bucket_collisions", collisions[0]));

    let mut maint = Maintenance::new(cfg.seed, 1 << 17);
    let interval = maint.interval();
    let len = inputs.stream.len();
    let window_ops = cfg.size(1 << 15, 1 << 13) as u64;
    let mut log = ClientLog::new();
    let mut i = 0u64;
    let mut ticks = 0usize;
    let start = Instant::now();
    let mut w = 0;
    while another_window(start, cfg.seconds, cfg.trace, w) {
        let clock = log.open_window(&mut tracer, window_traced(cfg.trace, w));
        let traced = tracer.is_on();
        for _ in 0..window_ops {
            let span = traced && i.is_multiple_of(SPAN_EVERY);
            if span {
                let (f, kind, _) = unpack(inputs.stream[(i as usize) % len]);
                run.migrating.0 += u64::from(maps[f].migrating());
                run.migrating.1 += 1;
                tracer.open(match kind {
                    Kind::Overwrite => "insert",
                    _ => "get",
                });
            }
            let t0 = i.is_multiple_of(LATENCY_EVERY).then(Instant::now);
            let ok = inputs.op(&mut maps, i);
            if let Some(t0) = t0 {
                log.latency(t0.elapsed().as_nanos() as f64);
            }
            if span {
                tracer.close();
            }
            log.failed += u64::from(!ok);
            i += 1;
            if i.is_multiple_of(interval) {
                let n = maps.len();
                maint.tick(&mut maps[ticks % n], &mut tracer);
                ticks += 1;
            }
        }
        log.ops += window_ops;
        log.close_window(clock, window_ops);
        if !cfg.trace {
            let t = Instant::now();
            for j in i - window_ops..i {
                let t0 = j.is_multiple_of(LATENCY_EVERY).then(Instant::now);
                log.ref_failed += u64::from(!inputs.op(&mut reference, j));
                if let Some(t0) = t0 {
                    log.ref_latencies.record(t0.elapsed().as_nanos() as f64);
                }
            }
            log.reference_window(window_ops, t.elapsed());
        }
        // A spare build between every few windows, so `setup_s` samples
        // the whole run rather than the moment before it.
        if w % 16 == 15 {
            drop(timed_build(&mut run.setup_s, &mut tracer, |t| {
                inputs.build_maps(t, &mut run.synth_ns)
            }));
        }
        w += 1;
    }
    tracer.set_on(false);

    if maint.transitions.total() > 0 {
        run.violations.push(format!(
            "serve-mixed must take no transitions, took {:?}",
            maint.transitions
        ));
    }
    for m in &maps {
        run.guard.0 += m.drift_stats().in_format();
        run.guard.1 += m.drift_stats().off_format();
    }
    run.census = Census::of_maps(&maps);
    run.fingerprint
        .push(("bucket_collisions", run.census.collisions));
    run.tick_ns = maint.tick_ns;
    run.transitions = maint.transitions;
    run.clients.push(log);
    run.tracers.push(tracer);
    run
}
