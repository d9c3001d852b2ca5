//! Property tests for the observability primitives.
//!
//! The pinned contracts: counters are monotone and saturate exactly like
//! the historical `GuardStats` atomics; histograms never lose an
//! observation (bucket counts sum to the observation count and every
//! value lands in the bucket whose bounds contain it); snapshots of the
//! same op sequence render byte-identically and round-trip through the
//! strict parser. The parser is a trust boundary, so it is also fuzzed
//! from a canonical render: every truncation, single-byte flips,
//! duplicated keys and deep nesting must parse or return a typed error,
//! never panic, and whatever parses must re-render to a document that
//! parses back to the same snapshot. These test the snapshot's shape
//! checks above the JSON codec, whose own properties are in
//! `json_fuzz.rs`.

use proptest::prelude::*;
use sepe_obs::histogram::{bucket_bounds, bucket_index};
use sepe_obs::{Counter, Histogram, Registry, Snapshot, SnapshotError, BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The verbatim pre-migration `GuardStats::bump_many` semantics, kept
/// here as the reference the shared [`Counter`] must match bump for bump.
fn reference_bump(counter: &AtomicU64, n: u64) {
    let prev = counter.fetch_add(n, Ordering::Relaxed);
    if prev > u64::MAX - n {
        counter.store(u64::MAX, Ordering::Relaxed);
    }
}

/// A canonical render with every section populated and labeled ids.
fn canonical_snapshot() -> String {
    let reg = Registry::new();
    reg.counter("drift", &[]).expect("counter").add(u64::MAX);
    reg.counter("ops", &[("shard", "0")])
        .expect("counter")
        .add(7);
    reg.gauge("depth", &[]).expect("gauge").set(3);
    let h = reg
        .histogram("probe_len", &[("shard", "1")])
        .expect("histogram");
    for v in [0, 1, 5, 900] {
        h.observe(v);
    }
    reg.snapshot().render()
}

/// `doc` may be rejected (the error is typed by construction), but must
/// not panic, and what parses must survive a render and re-parse.
fn parses_or_rejects(doc: &str) {
    if let Ok(snap) = Snapshot::parse(doc) {
        assert_eq!(Snapshot::parse(&snap.render()), Ok(snap), "{doc}");
    }
}

#[test]
fn every_truncation_of_a_snapshot_is_rejected() {
    let doc = canonical_snapshot();
    assert!(Snapshot::parse(&doc).is_ok());
    for cut in 0..doc.len() {
        assert!(Snapshot::parse(&doc[..cut]).is_err(), "{}", &doc[..cut]);
    }
}

#[test]
fn duplicated_snapshot_keys_are_rejected() {
    let doc = canonical_snapshot();
    let first_counter = {
        let open = doc.find("\"counters\":{").expect("counters") + "\"counters\":{".len();
        &doc[open..open + doc[open..].find(',').expect("two counters")]
    };
    let dups = [
        doc.replacen('{', "{\"counters\":{},", 1),
        doc.replacen('{', "{\"schema\":\"sepe-metrics/v1\",", 1),
        doc.replacen("\"count\":", "\"count\":\"4\",\"count\":", 1),
        doc.replacen(
            first_counter,
            &format!("{first_counter},{first_counter}"),
            1,
        ),
    ];
    for dup in dups {
        assert_ne!(dup, doc);
        assert!(
            matches!(Snapshot::parse(&dup), Err(SnapshotError::Malformed { .. })),
            "{dup}"
        );
    }
}

#[test]
fn a_megabyte_metric_id_parses_in_linear_time() {
    // A counter id of 1,000,001 characters ending in a two-byte one; a
    // parser that re-validated the rest of the input at every character
    // takes tens of seconds here.
    let id = "ab".repeat(500_000) + "\u{e9}";
    let doc = format!(
        r#"{{"counters":{{"{id}":"1"}},"gauges":{{}},"histograms":{{}},"schema":"sepe-metrics/v1"}}"#
    );
    let start = Instant::now();
    let snap = Snapshot::parse(&doc);
    let took = start.elapsed();
    assert_eq!(snap.expect("parses").counter(&id), Some(1));
    assert!(took < Duration::from_secs(1), "took {took:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn single_byte_flips_parse_or_reject(at in any::<usize>(), byte in any::<u8>()) {
        let mut bytes = canonical_snapshot().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        parses_or_rejects(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn nested_snapshots_parse_or_reject(n in 0usize..200) {
        let doc = "{\"a\":".repeat(n) + &canonical_snapshot() + &"}".repeat(n);
        parses_or_rejects(&doc);
        prop_assert_eq!(Snapshot::parse(&doc).is_ok(), n == 0);
    }
}

proptest! {
    #[test]
    fn counters_are_monotone(increments in prop::collection::vec(0u64..1 << 40, 0..64)) {
        let counter = Counter::new();
        let mut last = 0u64;
        let mut expected = 0u64;
        for n in increments {
            counter.add(n);
            expected = expected.saturating_add(n);
            let now = counter.get();
            prop_assert!(now >= last, "counter moved backwards: {last} -> {now}");
            prop_assert_eq!(now, expected);
            last = now;
        }
    }

    #[test]
    fn counter_saturation_matches_pinned_guardstats_semantics(
        start in prop_oneof![Just(0u64), Just(u64::MAX - 16), Just(u64::MAX)],
        increments in prop::collection::vec(any::<u64>(), 1..32),
    ) {
        let counter = Counter::new();
        counter.add(start);
        let reference = AtomicU64::new(0);
        reference_bump(&reference, start);
        for n in increments {
            counter.add(n);
            reference_bump(&reference, n);
            prop_assert_eq!(counter.get(), reference.load(Ordering::Relaxed));
        }
    }

    #[test]
    fn histogram_bucket_sums_equal_observation_counts(
        values in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        let counts = h.bucket_counts();
        let total: u64 = counts.iter().sum();
        prop_assert_eq!(total, values.len() as u64);
        prop_assert_eq!(h.count(), values.len() as u64);
        let expected_sum = values.iter().fold(0u64, |a, &v| a.saturating_add(v));
        prop_assert_eq!(h.sum(), expected_sum);
        for &v in &values {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            prop_assert!(lo <= v && v <= hi, "{v} outside bucket {i} [{lo}, {hi}]");
            prop_assert!(counts[i] > 0);
        }
    }

    #[test]
    fn snapshots_are_deterministic_for_a_fixed_op_sequence(
        ops in prop::collection::vec((0u8..3, 0u64..4, any::<u64>()), 0..128),
    ) {
        // Replay the same typed op sequence into two independent
        // registries; the rendered exports must be byte-identical, and
        // the strict parser must round-trip them losslessly.
        let render = |reg: &Registry| -> String {
            for (kind, slot, value) in &ops {
                let label = slot.to_string();
                let labels = [("slot", label.as_str())];
                match kind {
                    0 => reg.counter("ops", &labels).expect("counter").add(*value),
                    1 => reg.gauge("depth", &labels).expect("gauge").set(*value),
                    _ => reg.histogram("sizes", &labels).expect("histogram").observe(*value),
                }
            }
            reg.snapshot().render()
        };
        let first = render(&Registry::new());
        let second = render(&Registry::new());
        prop_assert_eq!(&first, &second);
        let parsed = Snapshot::parse(&first).expect("canonical render parses");
        prop_assert_eq!(parsed.render(), first);
    }

    #[test]
    fn parsed_histograms_validate_their_bucket_sums(
        values in prop::collection::vec(0u64..1 << 20, 1..64),
    ) {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[]).expect("histogram");
        for &v in &values {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let parsed = Snapshot::parse(&snap.render()).expect("parses");
        let hist = &parsed.histograms["lat"];
        prop_assert_eq!(hist.count, values.len() as u64);
        prop_assert!(hist.buckets.len() <= BUCKETS);
        let total: u64 = hist.buckets.values().sum();
        prop_assert_eq!(total, hist.count);
    }
}
