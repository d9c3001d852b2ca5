//! `hash-stream`: the paper's H-Time. Keys of the eight evaluated formats
//! go through each format's guarded hasher in `hash_batch` calls of 8, so
//! `hash` and `guard` do nearly all the work and no container runs. The
//! reference hashes the same keys with the standard library's hasher.

use crate::inputs::Keys;
use crate::measure::{another_window, window_traced, ClientLog};
use crate::stack::{build_hasher, timed_build, Cfg, Run, SETUP_BUILDS, SPAN_CAPACITY};
use crate::trace::Tracer;
use sepe::core::hash::HashBatch;
use sepe::keygen::{KeyFormat, SplitMix64};
use sepe::verify::interp::interpret;
use std::hash::{DefaultHasher, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// Keys per `hash_batch` call.
const BATCH: usize = 8;
/// Batch calls timed together as one latency sample: one clock read costs
/// about as much as a whole batch, so single calls cannot be timed.
const GROUP_CALLS: usize = 64;
/// Keys the reference hashes per latency sample: about as long as the
/// program's group of calls, so an interruption lengthens a sample on
/// both sides alike and the tail ratio measures the hashers, not the
/// interruptions.
const REF_GROUP_KEYS: usize = 128;
/// One hash in this many is compared with the plan interpreter.
const CHECK_EVERY: usize = 1024;

pub fn run(cfg: &Cfg) -> Run {
    let mut rng = SplitMix64::new(cfg.seed ^ 0x4A54_5354);
    let pool = cfg.size(4096, 512);
    let keys: Vec<Keys> = KeyFormat::EVALUATED
        .iter()
        .map(|&f| Keys::generate(f, pool, &mut rng))
        .collect();
    let key_refs: Vec<Vec<&[u8]>> = keys.iter().map(Keys::refs).collect();

    let mut run = Run {
        inputs_mb: keys.iter().map(Keys::bytes).sum::<usize>() as f64 / (1 << 20) as f64,
        ..Run::default()
    };
    let mut tracer = Tracer::new(cfg.epoch, 0, if cfg.trace { SPAN_CAPACITY } else { 0 });
    tracer.set_on(cfg.trace);
    let build = |run: &mut Run, tracer: &mut Tracer| {
        timed_build(&mut run.setup_s, tracer, |t| {
            KeyFormat::EVALUATED
                .iter()
                .map(|&f| build_hasher(f, t, &mut run.synth_ns))
                .collect::<Vec<_>>()
        })
    };
    let mut hashers = Vec::new();
    for _ in 0..SETUP_BUILDS {
        hashers = build(&mut run, &mut tracer);
    }
    // Expected hashes from the independent plan interpreter, untimed.
    let expected: Vec<Vec<u64>> = hashers
        .iter()
        .zip(&key_refs)
        .map(|(h, r)| {
            let s = h.specialized();
            r.iter()
                .map(|k| interpret(s.plan(), s.family(), s.seed(), k))
                .collect()
        })
        .collect();

    let group_keys = GROUP_CALLS * BATCH;
    let passes = (cfg.size(1 << 18, 1 << 15) / (KeyFormat::EVALUATED.len() * pool)).max(1);
    let window_keys = (passes * KeyFormat::EVALUATED.len() * pool) as u64;
    let mut log = ClientLog::new();
    let mut out = [0u64; BATCH];
    let mut sink = 0u64;
    let start = Instant::now();
    let mut w = 0;
    while another_window(start, cfg.seconds, cfg.trace, w) {
        let clock = log.open_window(&mut tracer, window_traced(cfg.trace, w));
        let traced = tracer.is_on();
        for _ in 0..passes {
            for (f, hasher) in hashers.iter().enumerate() {
                let r = &key_refs[f];
                for group in (0..pool).step_by(group_keys) {
                    let t0 = Instant::now();
                    for b in (group..group + group_keys).step_by(BATCH) {
                        // One span per 8 calls (64 keys).
                        let span = traced && b % (8 * BATCH) == 0;
                        if span {
                            tracer.open("hash_batch");
                        }
                        hasher.hash_batch(&r[b..b + BATCH], &mut out);
                        if span {
                            tracer.close();
                        }
                        sink = out.iter().fold(sink, |acc, &h| acc.rotate_left(5) ^ h);
                        if (b + BATCH).is_multiple_of(CHECK_EVERY)
                            && out[BATCH - 1] != expected[f][b + BATCH - 1]
                        {
                            log.failed += 1;
                        }
                    }
                    log.latency(t0.elapsed().as_nanos() as f64 / group_keys as f64);
                }
            }
        }
        log.ops += window_keys;
        log.close_window(clock, window_keys);
        if !cfg.trace {
            // The reference: the standard library's default hasher over
            // the same keys, grouped and sampled alike.
            let t = Instant::now();
            for _ in 0..passes {
                for r in &key_refs {
                    for group in r.chunks_exact(REF_GROUP_KEYS) {
                        let t0 = Instant::now();
                        for key in group {
                            let mut h = DefaultHasher::new();
                            h.write(key);
                            sink = sink.rotate_left(5) ^ h.finish();
                        }
                        log.ref_latencies
                            .record(t0.elapsed().as_nanos() as f64 / REF_GROUP_KEYS as f64);
                    }
                }
            }
            log.reference_window(window_keys, t.elapsed());
        }
        // A spare build between every few windows, so `setup_s` samples
        // the whole run rather than the moment before it.
        if w % 16 == 15 {
            drop(build(&mut run, &mut tracer));
        }
        w += 1;
    }
    black_box(sink);
    tracer.set_on(false);

    for h in &hashers {
        run.guard.0 += h.stats().in_format();
        run.guard.1 += h.stats().off_format();
    }
    run.fingerprint.push((
        "plan_ops",
        hashers
            .iter()
            .map(|h| plan_size(h.specialized().plan()))
            .sum(),
    ));
    run.clients.push(log);
    run.tracers.push(tracer);
    run
}

fn plan_size(plan: &sepe::core::synth::Plan) -> u64 {
    plan.word_ops().map_or(0, |ops| ops.len() as u64)
}
