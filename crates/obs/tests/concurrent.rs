//! Concurrency audits: no lost updates in a shared [`Registry`], no
//! phantom updates from racing single-writer bumps, and exact drop
//! accounting in the [`EventTrace`] ring under contended,
//! seed-matrix-scheduled interleavings.

use sepe_obs::{Counter, EventTrace, Histogram, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The chaos seed matrix used across the repo's concurrency suites.
const SEEDS: [u64; 3] = [0x5E9E, 0xC4A05, 0xD1F7];

/// SplitMix64, inlined to keep this crate dependency-light.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn registry_totals_equal_per_thread_sums() {
    let threads = 8usize;
    let ops = 5_000usize;
    for seed in SEEDS {
        let reg = Arc::new(Registry::new());
        let per_thread: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let reg = reg.clone();
                    s.spawn(move || {
                        // Each thread re-resolves its handles mid-run to
                        // exercise the get-or-create path under
                        // contention, not just the bump path.
                        let counter = reg.counter("hits", &[("kind", "all")]).expect("counter");
                        let hist = reg.histogram("sizes", &[]).expect("histogram");
                        let mut rng = seed ^ (t as u64) << 16;
                        let mut counted = 0u64;
                        let mut observed = 0u64;
                        let mut summed = 0u64;
                        for i in 0..ops {
                            let r = splitmix(&mut rng);
                            let n = r % 7;
                            counter.add(n);
                            counted += n;
                            let v = r >> 32;
                            hist.observe(v);
                            observed += 1;
                            summed += v;
                            if i % 512 == 0 {
                                let again =
                                    reg.counter("hits", &[("kind", "all")]).expect("counter");
                                again.inc();
                                counted += 1;
                            }
                        }
                        (counted, observed, summed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let counted: u64 = per_thread.iter().map(|t| t.0).sum();
        let observed: u64 = per_thread.iter().map(|t| t.1).sum();
        let summed: u64 = per_thread.iter().map(|t| t.2).sum();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("hits{kind=\"all\"}"),
            Some(counted),
            "seed {seed:#x}: lost counter updates"
        );
        let hist = &snap.histograms["sizes"];
        assert_eq!(hist.count, observed, "seed {seed:#x}: lost observations");
        assert_eq!(hist.sum, summed, "seed {seed:#x}: lost sums");
        let bucket_total: u64 = hist.buckets.values().sum();
        assert_eq!(bucket_total, observed, "seed {seed:#x}: bucket drift");
    }
}

#[test]
fn racing_single_writer_bumps_never_exceed_the_true_count() {
    let threads = 4usize;
    let ops = 20_000u64;
    for seed in SEEDS {
        let counter = Counter::new();
        let hist = Histogram::new();
        let go = AtomicBool::new(false);
        let summed: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (counter, hist, go) = (&counter, &hist, &go);
                    s.spawn(move || {
                        while !go.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                        let mut rng = seed ^ (t as u64) << 16;
                        let mut summed = 0u64;
                        for _ in 0..ops {
                            let v = splitmix(&mut rng) % 64;
                            counter.add_single_writer(1);
                            hist.observe_single_writer(v);
                            summed += v;
                        }
                        summed
                    })
                })
                .collect();
            go.store(true, Ordering::Relaxed);
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let attempted = threads as u64 * ops;
        assert!(
            counter.get() <= attempted,
            "seed {seed:#x}: counter overshot"
        );
        assert!(counter.get() > 0, "seed {seed:#x}");
        assert!(hist.count() <= attempted, "seed {seed:#x}: count overshot");
        assert!(hist.sum() <= summed, "seed {seed:#x}: sum overshot");
        let buckets: u64 = hist.bucket_counts().iter().sum();
        assert!(buckets <= attempted, "seed {seed:#x}: buckets overshot");
        // Reading a quantile off racy counts must still work.
        assert!(hist.quantile(0.99).is_some_and(|q| q <= 63));
    }
}

#[test]
fn event_trace_drop_accounting_is_exact_under_interleaving() {
    let threads = 6usize;
    let ops = 2_000usize;
    let capacity = 512usize;
    for seed in SEEDS {
        let trace = Arc::new(EventTrace::new(capacity));
        let go = Arc::new(AtomicBool::new(false));
        let accepted: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let trace = trace.clone();
                    let go = go.clone();
                    s.spawn(move || {
                        while !go.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                        let mut rng = seed.wrapping_mul(t as u64 + 1);
                        let mut accepted = 0u64;
                        for _ in 0..ops {
                            // Seeded jitter shifts the interleaving per
                            // seed without changing the invariants.
                            if splitmix(&mut rng).is_multiple_of(64) {
                                std::thread::yield_now();
                            }
                            if trace.push((t as u64) << 32) {
                                accepted += 1;
                            }
                        }
                        accepted
                    })
                })
                .collect();
            go.store(true, Ordering::Relaxed);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let accepted_total: u64 = accepted.iter().sum();
        let attempted = (threads * ops) as u64;
        assert_eq!(trace.pushed(), attempted, "seed {seed:#x}");
        assert_eq!(
            trace.dropped(),
            attempted - accepted_total,
            "seed {seed:#x}: drop counter disagrees with rejected pushes"
        );
        assert_eq!(
            trace.len() as u64,
            accepted_total,
            "seed {seed:#x}: retained events disagree with accepted pushes"
        );
        assert!(trace.len() <= capacity, "seed {seed:#x}: ring overfilled");
        assert_eq!(trace.len(), capacity, "seed {seed:#x}: ring should fill");
    }
}
