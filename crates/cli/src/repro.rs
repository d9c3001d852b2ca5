//! Generators for every table and figure of the paper's evaluation.
//!
//! Each function returns the rendered text (the `sepe-repro` binary prints
//! it), and each corresponds to one artifact of Section 4 / Appendix A.
//! Boxplot figures print five-number summaries plus the mean — the exact
//! data the paper draws.

use sepe_core::synth::Family;
use sepe_core::{ByteHash, Isa};
use sepe_driver::analysis::{
    digits_hash, hashing_time, low_mixing_point, per_container_times, run_grid, synthesis_time,
    uniformity_chi2, RunScale,
};
use sepe_driver::HashId;
use sepe_keygen::{Distribution, KeyFormat};
use sepe_stats::{pearson_correlation, BoxplotSummary};
use std::fmt::Write as _;

/// Key sizes of the scaling experiments (2⁴ … 2¹⁴, Figures 16 and 19).
pub const SCALING_SIZES: [usize; 11] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384];

fn boxplot_row(name: &str, values: &[f64]) -> String {
    match BoxplotSummary::of(values) {
        Some(s) => format!(
            "{name:<8} min {:>9.4}  q1 {:>9.4}  med {:>9.4}  q3 {:>9.4}  max {:>9.4}  mean {:>9.4}\n",
            s.min, s.q1, s.median, s.q3, s.max, s.mean
        ),
        None => format!("{name:<8} (no data)\n"),
    }
}

/// **Table 1** — B-Time, H-Time, B-Coll and T-Coll per hash function under
/// the normal key distribution.
#[must_use]
pub fn table1(scale: &RunScale) -> String {
    let mut out = String::from(
        "Table 1: performance under normal key distribution\n\
         Function  B-Time(ms)  H-Time(ms)     B-Coll      T-Coll\n",
    );
    for id in HashId::ALL {
        let agg = run_grid(id, scale, Some(Distribution::Normal));
        let _ = writeln!(
            out,
            "{:<9} {:>10.3} {:>11.4} {:>10.1} {:>11}",
            id.name(),
            agg.b_time_geomean(),
            agg.h_time_geomean(),
            agg.b_coll,
            agg.t_coll
        );
    }
    out
}

/// **Figure 13** — boxplot of B-Time over the full grid, per function
/// (x86 / native ISA). Gperf is included as a row even though the paper
/// excludes it from the plot for being two orders of magnitude slower.
#[must_use]
pub fn fig13(scale: &RunScale) -> String {
    let mut out = String::from("Figure 13: B-Time distribution over the full grid (ms)\n");
    for id in HashId::ALL {
        let agg = run_grid(id, scale, None);
        out.push_str(&boxplot_row(id.name(), &agg.b_times_ms));
    }
    out
}

/// **Figure 14** — collision-count boxplots per function (bucket
/// collisions across key formats).
#[must_use]
pub fn fig14(scale: &RunScale) -> String {
    let mut out = String::from("Figure 14: bucket collisions per function (across key formats)\n");
    for id in HashId::ALL {
        let mut per_format = Vec::new();
        for &format in &scale.formats {
            let n = scale
                .collision_keys
                .min(usize::try_from(format.space()).unwrap_or(usize::MAX));
            let mut sampler = sepe_keygen::KeySampler::new(format, Distribution::Normal, 0xC011);
            let keys = sampler.distinct_pool(n);
            // Gperf trains on a prefix of the measured pool, like the tool.
            let hash = id.build_trained(format, scale.isa, &keys);
            let (b, _) = sepe_driver::measure::collisions_of(
                hash.as_ref(),
                &keys,
                sepe_containers::BucketPolicy::Modulo,
            );
            per_format.push(b as f64);
        }
        out.push_str(&boxplot_row(id.name(), &per_format));
    }
    out
}

/// **Figure 15** — the Figure 13 boxplot in the paper's aarch64
/// configuration: portable code paths only (no hardware `pext`/AES) and no
/// Pext family, since the evaluated machine lacks a bit-extract
/// instruction.
#[must_use]
pub fn fig15(scale: &RunScale) -> String {
    let mut portable = scale.clone();
    portable.isa = Isa::Portable;
    let mut out = String::from(
        "Figure 15: B-Time distribution, portable ISA (paper: aarch64; Pext excluded)\n",
    );
    for id in HashId::ALL {
        if id == HashId::Pext {
            continue;
        }
        let agg = run_grid(id, &portable, None);
        out.push_str(&boxplot_row(id.name(), &agg.b_times_ms));
    }
    out
}

/// **Table 2** — χ² uniformity, normalized by STL, per key distribution.
/// Values near 1 match STL's uniformity; large values mean a skewed
/// distribution.
#[must_use]
pub fn table2(scale: &RunScale) -> String {
    const BINS: usize = 1024;
    let mut out = String::from(
        "Table 2: chi-square uniformity normalized by STL (geomean over key formats)\n\
         Function        Inc      Normal     Uniform\n",
    );
    // Unlike the timing artifacts (which must run alone on the machine),
    // the uniformity analysis is pure computation: fan one thread out per
    // hash function.
    let chi_cells = |id: HashId| -> Vec<Vec<f64>> {
        Distribution::ALL
            .iter()
            .map(|&dist| {
                scale
                    .formats
                    .iter()
                    .map(|&format| {
                        let hash = id.build(format, scale.isa);
                        uniformity_chi2(
                            hash.as_ref(),
                            format,
                            dist,
                            scale.uniformity_keys,
                            BINS,
                            17,
                        )
                        .max(f64::MIN_POSITIVE)
                    })
                    .collect()
            })
            .collect()
    };
    let all: Vec<(HashId, Vec<Vec<f64>>)> = std::thread::scope(|s| {
        let handles: Vec<_> = HashId::ALL
            .iter()
            .map(|&id| s.spawn(move || (id, chi_cells(id))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chi2 worker joins"))
            .collect()
    });
    let stl_cells = &all
        .iter()
        .find(|(id, _)| *id == HashId::Stl)
        .expect("STL is in ALL")
        .1;
    for (id, cells) in &all {
        let normalized: Vec<f64> = cells
            .iter()
            .zip(stl_cells.iter())
            .map(|(per_format, stl_per_format)| {
                let ratios: Vec<f64> = per_format
                    .iter()
                    .zip(stl_per_format)
                    .map(|(c, s)| (c / s).max(1e-6))
                    .collect();
                sepe_stats::geometric_mean(&ratios).unwrap_or(f64::NAN)
            })
            .collect();
        let _ = writeln!(
            out,
            "{:<9} {:>10.2} {:>10.2} {:>10.2}",
            id.name(),
            normalized[0],
            normalized[2], // Normal is the third of Distribution::ALL
            normalized[1]
        );
    }
    out
}

/// **Table 3** — B-Time and T-Coll per key distribution (RQ5).
#[must_use]
pub fn table3(scale: &RunScale) -> String {
    let mut out = String::from(
        "Table 3: key-distribution impact\n\
         Function     Inc BT(ms)    Inc TC   Norm BT(ms)   Norm TC   Unif BT(ms)   Unif TC\n",
    );
    for id in HashId::ALL {
        let mut cells = String::new();
        for dist in [
            Distribution::Incremental,
            Distribution::Normal,
            Distribution::Uniform,
        ] {
            let agg = run_grid(id, scale, Some(dist));
            let _ = write!(cells, " {:>12.3} {:>9}", agg.b_time_geomean(), agg.t_coll);
        }
        let _ = writeln!(out, "{:<9}{}", id.name(), cells);
    }
    out
}

/// **Figure 16** — synthesis time versus key size (RQ6), with the Pearson
/// correlation that establishes linearity.
#[must_use]
pub fn fig16() -> String {
    let mut out = String::from(
        "Figure 16: synthesis time vs key size (seconds)\n\
         size        Pext        OffXor      Aes\n",
    );
    let families = [Family::Pext, Family::OffXor, Family::Aes];
    let mut per_family: Vec<Vec<f64>> = vec![Vec::new(); families.len()];
    for size in SCALING_SIZES {
        let mut row = format!("{size:<8}");
        for (fi, &family) in families.iter().enumerate() {
            // Median of a few runs to steady the tiny timings.
            let mut times: Vec<f64> = (0..5)
                .map(|_| synthesis_time(family, size).as_secs_f64())
                .collect();
            times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let t = times[times.len() / 2];
            per_family[fi].push(t);
            let _ = write!(row, " {t:>11.6}");
        }
        let _ = writeln!(out, "{row}");
    }
    let sizes_f: Vec<f64> = SCALING_SIZES.iter().map(|&s| s as f64).collect();
    for (fi, &family) in families.iter().enumerate() {
        let r = pearson_correlation(&sizes_f, &per_family[fi]).unwrap_or(f64::NAN);
        let _ = writeln!(out, "Pearson(size, time) {family}: {r:.4}");
    }
    out
}

/// **Figures 17 and 18** — bucket and true collisions under a low-mixing
/// container, as a function of the number X of discarded low bits, plus
/// the four-digit-integer worst case of RQ7.
#[must_use]
pub fn fig17_18(scale: &RunScale) -> String {
    let discards = [0u32, 8, 16, 24, 32, 40, 48, 56];
    let format = KeyFormat::Ssn;
    let n = scale.collision_keys;
    let mut out = format!(
        "Figures 17/18: low-mixing container, {} distinct {} keys\n\
         Function   X:      {}\n",
        n,
        format.name(),
        discards.map(|d| format!("{d:>8}")).join(" ")
    );
    let mut rows_bc = String::new();
    let mut rows_tc = String::new();
    // The low-mixing sweep measures a uniform distinct pool with seed 23
    // (see `low_mixing_point`); Gperf trains on a prefix of the same pool.
    let training = sepe_keygen::KeySampler::new(format, Distribution::Uniform, 23)
        .distinct_pool(sepe_driver::registry::GPERF_TRAINING_KEYS.min(n));
    for id in HashId::ALL {
        let hash = id.build_trained(format, scale.isa, &training);
        let mut bc_row = format!("{:<9} BC:", id.name());
        let mut tc_row = format!("{:<9} TC:", id.name());
        for &x in &discards {
            let (bc, tc) = low_mixing_point(hash.as_ref(), format, x, n, 23);
            let _ = write!(bc_row, " {bc:>8}");
            let _ = write!(tc_row, " {tc:>8}");
        }
        rows_bc.push_str(&bc_row);
        rows_bc.push('\n');
        rows_tc.push_str(&tc_row);
        rows_tc.push('\n');
    }
    out.push_str("-- Figure 17 (bucket collisions) --\n");
    out.push_str(&rows_bc);
    out.push_str("-- Figure 18 (true collisions of the retained bits) --\n");
    out.push_str(&rows_tc);
    out.push_str(&four_digit_worst_case());
    out
}

/// The four-digit-integer worst case of RQ7: keys below eight bytes with
/// high-bit bucket indexing. SEPE normally refuses such keys (it falls
/// back to STL), so the Pext plan is force-synthesized here, exactly as
/// the paper's experiment does.
#[must_use]
pub fn four_digit_worst_case() -> String {
    use sepe_core::hash::SynthesizedHash;
    use sepe_core::regex::Regex;
    use sepe_core::synth::synthesize_unchecked;

    let pattern = Regex::compile(r"\d{4}").expect("regex compiles");
    let plan = synthesize_unchecked(&pattern, Family::Pext);
    let pext = SynthesizedHash::new(plan, Family::Pext, Isa::Native);
    let stl = HashId::Stl.build(KeyFormat::FourDigits, Isa::Native);

    let mut out = String::from("-- RQ7 worst case: four-digit keys, 32 discarded bits --\n");
    for (name, hash) in [("STL", stl.as_ref()), ("Pext", &pext as &dyn ByteHash)] {
        let (bc_hi, tc_hi) = low_mixing_point(hash, KeyFormat::FourDigits, 32, 10_000, 29);
        let (bc_lo, tc_lo) = low_mixing_point(hash, KeyFormat::FourDigits, 0, 10_000, 29);
        let _ = writeln!(
            out,
            "{name:<5} top-32-bit indexing: BC {bc_hi:>6}, TC {tc_hi:>6}; \
             full-hash indexing: BC {bc_lo:>6}, TC {tc_lo:>6}"
        );
    }
    out
}

/// **Figure 19** — hashing time versus key size (RQ8), with Pearson
/// correlations establishing linearity.
#[must_use]
pub fn fig19(scale: &RunScale) -> String {
    const ITERS: usize = 20_000;
    let ids = [
        HashId::Pext,
        HashId::Stl,
        HashId::City,
        HashId::Fnv,
        HashId::Abseil,
    ];
    let mut out = format!(
        "Figure 19: hashing time vs key size ({ITERS} hashes, seconds)\n\
         size     {}\n",
        ids.map(|i| format!("{:>11}", i.name())).join(" ")
    );
    let mut per_id: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
    for size in SCALING_SIZES {
        let mut row = format!("{size:<8}");
        for (ii, &id) in ids.iter().enumerate() {
            let hash: Box<dyn ByteHash> = match id.family() {
                Some(family) => Box::new(digits_hash(family, size, scale.isa)),
                None => id.build(KeyFormat::Digits(size), scale.isa),
            };
            let t = hashing_time(hash.as_ref(), size, ITERS).as_secs_f64();
            per_id[ii].push(t);
            let _ = write!(row, " {t:>11.6}");
        }
        let _ = writeln!(out, "{row}");
    }
    let sizes_f: Vec<f64> = SCALING_SIZES.iter().map(|&s| s as f64).collect();
    for (ii, &id) in ids.iter().enumerate() {
        let r = pearson_correlation(&sizes_f, &per_id[ii]).unwrap_or(f64::NAN);
        let _ = writeln!(out, "Pearson(size, time) {id}: {r:.4}");
    }
    out
}

/// **Figure 20** — B-Time grouped by container (RQ9), aggregated over a
/// representative set of hash functions.
#[must_use]
pub fn fig20(scale: &RunScale) -> String {
    let ids = [HashId::Stl, HashId::OffXor, HashId::Pext, HashId::City];
    let format = scale.formats.first().copied().unwrap_or(KeyFormat::Ssn);
    let mut per_container: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for id in ids {
        for (container, times) in per_container_times(id, format, scale) {
            per_container
                .entry(container.name())
                .or_default()
                .extend(times);
        }
    }
    let mut out = format!(
        "Figure 20: B-Time by container ({} keys, ms)\n",
        format.name()
    );
    for (name, times) in per_container {
        out.push_str(&boxplot_row(name, &times));
    }
    out
}

/// **Per-key-type B-Time improvement** over STL — the paper's RQ1 claim
/// "performance improvements ranging from 3.78% to 9.5% for MAC/SSN and
/// URL1, respectively", regenerated per format.
#[must_use]
pub fn bykey(scale: &RunScale) -> String {
    let mut out = String::from(
        "Per-key-type B-Time (geomean ms) and improvement of the best synthetic over STL\n\
         Key      STL        Naive      OffXor     Pext       best-improvement\n",
    );
    for &format in &scale.formats {
        let mut fscale = scale.clone();
        fscale.formats = vec![format];
        let stl = run_grid(HashId::Stl, &fscale, None).b_time_geomean();
        let naive = run_grid(HashId::Naive, &fscale, None).b_time_geomean();
        let offxor = run_grid(HashId::OffXor, &fscale, None).b_time_geomean();
        let pext = run_grid(HashId::Pext, &fscale, None).b_time_geomean();
        let best = naive.min(offxor).min(pext);
        let improvement = (stl - best) / stl * 100.0;
        let _ = writeln!(
            out,
            "{:<8} {stl:<10.4} {naive:<10.4} {offxor:<10.4} {pext:<10.4} {improvement:>6.2}%",
            format.name()
        );
    }
    out
}

/// **Avalanche analysis** (Section 2's property list): how far each hash
/// function is from the cryptographic ideal of flipping half the output
/// bits per input-bit flip. SEPE functions trade this away by design.
#[must_use]
pub fn avalanche(scale: &RunScale) -> String {
    use sepe_stats::avalanche as run_avalanche;
    let format = scale.formats.first().copied().unwrap_or(KeyFormat::Ssn);
    let mut sampler = sepe_keygen::KeySampler::new(format, Distribution::Uniform, 41);
    let keys: Vec<Vec<u8>> = sampler
        .distinct_pool(64)
        .into_iter()
        .map(String::into_bytes)
        .collect();
    let mut out = format!(
        "Avalanche on {} keys (ideal: bias 0, flip rate 0.5, no dead bits)\n\
         Function      bias   flip-rate   dead-output-bits\n",
        format.name()
    );
    for id in HashId::ALL {
        let hash = id.build(format, scale.isa);
        let s = run_avalanche(|k| hash.hash_bytes(k), &keys);
        let _ = writeln!(
            out,
            "{:<9} {:>8.3} {:>11.3} {:>15.0}",
            id.name(),
            s.bias,
            s.mean_flip_rate,
            s.dead_output_fraction * 64.0
        );
    }
    out
}

/// **RQ1 significance tests** — pairwise Mann–Whitney U on the B-Time
/// samples, reproducing the paper's claims that OffXor ≈ Naive (p ≈ 0.51),
/// City ≈ STL (p ≈ 0.44), and synthesized ≠ STL (significant).
#[must_use]
pub fn significance(scale: &RunScale) -> String {
    use sepe_stats::mann_whitney_u;
    let pairs = [
        (HashId::OffXor, HashId::Naive),
        (HashId::City, HashId::Stl),
        (HashId::OffXor, HashId::Stl),
        (HashId::Naive, HashId::Stl),
        (HashId::Pext, HashId::Stl),
        (HashId::Aes, HashId::City),
        (HashId::OffXor, HashId::Pext),
    ];
    let mut cache: std::collections::BTreeMap<HashId, Vec<f64>> = Default::default();
    let mut out = String::from(
        "Mann-Whitney U tests on B-Time samples (two-sided)\n\
         Pair                      U            z       p-value   verdict\n",
    );
    for (a, b) in pairs {
        for id in [a, b] {
            cache
                .entry(id)
                .or_insert_with(|| run_grid(id, scale, None).b_times_ms);
        }
        let r = mann_whitney_u(&cache[&a], &cache[&b]);
        let verdict = if r.is_significant_at(0.05) {
            "different"
        } else {
            "equivalent"
        };
        let _ = writeln!(
            out,
            "{:<8} vs {:<8} {:>12.1} {:>12.3} {:>12.4}   {verdict}",
            a.name(),
            b.name(),
            r.u,
            r.z,
            r.p_value
        );
    }
    out
}

/// **RQ7, "Gradual Specialization"** — the Naive → OffXor → Pext ladder:
/// under ordinary modulo containers the three run alike, so the simpler
/// OffXor suffices; only low-mixing containers justify Pext/Aes.
#[must_use]
pub fn gradual(scale: &RunScale) -> String {
    let format = scale.formats.first().copied().unwrap_or(KeyFormat::Ssn);
    let ids = [HashId::Naive, HashId::OffXor, HashId::Pext, HashId::Aes];
    let mut out = format!(
        "Gradual specialization ({} keys): each row adds one constraint\n\
         Family    B-Time(ms)  H-Time(ms)   TC(mod)   TC(top-16-bits)\n",
        format.name()
    );
    for id in ids {
        let mut fscale = scale.clone();
        fscale.formats = vec![format];
        let agg = run_grid(id, &fscale, Some(Distribution::Uniform));
        let hash = id.build(format, scale.isa);
        let (_, tc_mod) = low_mixing_point(hash.as_ref(), format, 0, scale.collision_keys, 3);
        let (_, tc_low) = low_mixing_point(hash.as_ref(), format, 48, scale.collision_keys, 3);
        let _ = writeln!(
            out,
            "{:<9} {:>10.3} {:>11.4} {:>9} {:>16}",
            id.name(),
            agg.b_time_geomean(),
            agg.h_time_geomean(),
            tc_mod,
            tc_low
        );
    }
    out.push_str(
        "(Paper: \"except for low-mixing containers, there is no performance benefit\n\
         from using our most constrained function, Pext, over the simpler OffXor\".)\n",
    );
    out
}

/// **Robustness artifact** — the format-drift state machine: per key
/// format, a guarded OffXor map absorbs clean traffic, then off-format
/// traffic (one marker byte appended) until its drift window trips. The
/// table reports the trip point, the tripping window's off-format and
/// total counts, and that the trip held the guarded route: off-format keys
/// already take the CityHash fallback, so no routing changes and no epoch
/// opens until a resynthesis.
///
/// When a validated [`SynthBundle`] is supplied (`sepe-repro --plan FILE
/// guard`), an extra row drives the *loaded* plan — specialized hash,
/// guard pattern and family all from the bundle — through the same drill,
/// on keys sampled from the bundle's own pattern.
///
/// [`SynthBundle`]: sepe_core::plan_io::SynthBundle
#[must_use]
pub fn guard(
    scale: &RunScale,
    threshold: f64,
    bundle: Option<&sepe_core::plan_io::SynthBundle>,
) -> String {
    use sepe_baselines::CityHash;
    use sepe_containers::{DriftPolicy, UnorderedMap};
    use sepe_core::guard::GuardedHash;
    use sepe_core::regex::Regex;

    let policy = DriftPolicy::with_threshold(threshold);
    let clean_keys = scale.collision_keys.clamp(64, 4096);
    let mut out = format!(
        "Format-drift trip (threshold {:.0}%, {clean_keys} clean keys per format)\n\
         Format    clean-drift  trip-after  trip-window (off/total)  mode-after  epoch\n",
        threshold * 100.0
    );
    /// Streams `off` into `map` until its drift window trips, then writes
    /// the format's row.
    fn drill<K, F, G>(
        out: &mut String,
        name: &str,
        map: &mut UnorderedMap<K, u64, GuardedHash<F, G>>,
        off: impl Iterator<Item = K>,
        policy: &DriftPolicy,
    ) where
        K: Eq + AsRef<[u8]>,
        F: sepe_core::ByteHash + Clone,
        G: sepe_core::ByteHash + Clone,
    {
        let clean_drift = map.drift_stats().off_rate();
        let mut trip_after = None;
        for (i, key) in off.enumerate() {
            map.insert(key, i as u64);
            if map.maybe_degrade(policy) {
                trip_after = Some(i + 1);
                break;
            }
        }
        let window = map
            .drift_trip()
            .map_or_else(|| "-".to_owned(), |(off, total)| format!("{off}/{total}"));
        let epoch = if map.migration_in_flight() {
            "open"
        } else {
            "none"
        };
        let _ = writeln!(
            out,
            "{name:<9} {:>10.1}% {:>11} {window:>24} {:>11} {epoch:>6}",
            clean_drift * 100.0,
            trip_after.map_or_else(|| "never".to_owned(), |n| n.to_string()),
            format!("{:?}", map.guard_mode())
        );
    }
    for format in &scale.formats {
        let pattern = Regex::compile(&format.regex()).expect("paper formats compile");
        let hasher = GuardedHash::from_pattern(&pattern, Family::OffXor, CityHash::new());
        let mut map: UnorderedMap<String, u64, _> = UnorderedMap::with_hasher(hasher);
        let step = (format.space() / clean_keys as u128).max(1);
        for i in 0..clean_keys {
            map.insert(format.materialize(i as u128 * step), i as u64);
        }
        let off = (0..clean_keys * 2).map(|i| {
            format!(
                "{}!",
                format.materialize((i as u128 * step) % format.space())
            )
        });
        drill(&mut out, format.name(), &mut map, off, &policy);
    }
    if let Some(b) = bundle {
        use sepe_core::hash::SynthesizedHash;
        let spec = SynthesizedHash::new(b.plan.clone(), b.family, Isa::Native);
        let hasher = GuardedHash::new(&b.pattern, spec, CityHash::new());
        let mut map: UnorderedMap<Vec<u8>, u64, _> = UnorderedMap::with_hasher(hasher);
        let mut rng = sepe_keygen::SplitMix64::new(0x91A4);
        let mut sample = move || -> Vec<u8> {
            (0..b.pattern.max_len())
                .map(|i| {
                    let choices: Vec<u8> = b.pattern.bytes()[i].possible_bytes().collect();
                    choices[(rng.next_u64() % choices.len() as u64) as usize]
                })
                .collect()
        };
        for i in 0..clean_keys {
            map.insert(sample(), i as u64);
        }
        // Lengthening past the pattern's maximum is off-format for any
        // loaded bundle, whatever bytes its format admits.
        let off = (0..clean_keys * 2).map(|i| {
            let mut key = sample();
            key.resize(b.pattern.max_len() + 1 + i % 3, b'!');
            key
        });
        drill(
            &mut out,
            &format!("plan/{}", b.family),
            &mut map,
            off,
            &policy,
        );
    }
    out.push_str(
        "(Off-format keys route to CityHash under a separated tag from the first one.\n\
         A trip records the window that crossed the threshold and holds the guarded\n\
         route: no key is re-filed until a resynthesis widens the plan.)\n",
    );
    out
}

/// **Benchmark baseline** — the `sepe-bench/v1` JSON document: batched vs
/// scalar ns/key for every family × format × width cell, plus the
/// migration scenario (churn ops/sec at steady state, while an epoch
/// drain is in flight, and after it completes) and the concurrency
/// scenario (the same churn fanned over a lock-striped [`ShardedMap`] at
/// 1/2/4/8 threads) and the resynthesis scenario (p50/p99/max mutating-op
/// latency across an inline resynthesis on the serving thread) and the
/// adversarial
/// scenario (churn ns/op and worst chain length benign, under a
/// brute-forced collision flood, and after the collision-storm detector
/// escalates to the keyed hasher, plus the escalation latency) and the
/// synthesis scenario (ns per `synthesize` call per format and family).
/// `sepe-repro` writes it as `BENCH_<date>.json`, the machine-readable
/// perf trajectory.
///
/// [`ShardedMap`]: sepe_containers::ShardedMap
#[must_use]
pub fn bench_json(scale: &RunScale) -> String {
    use sepe_driver::bench_json::{
        adversarial_records, concurrency_records, metrics_snapshot, migration_records,
        resynth_records, run_suite, synthesis_records, to_json, today_utc, BenchConfig,
    };
    let config = BenchConfig::from_scale(scale);
    let records = run_suite(scale, &config);
    let migration = migration_records(scale, &config);
    let concurrency = concurrency_records(scale, &config);
    let resynthesis = resynth_records(scale, &config);
    let adversarial = adversarial_records(scale, &config);
    let synthesis = synthesis_records(scale, &config);
    let metrics = metrics_snapshot(scale, &config);
    to_json(
        &today_utc(),
        &records,
        &migration,
        &concurrency,
        &resynthesis,
        &adversarial,
        &synthesis,
        &metrics,
    )
    .to_string()
}

/// **Metrics snapshot** — the `sepe-metrics/v1` registry export of a
/// deterministic, seeded, single-threaded workload (fill, churn, degrade,
/// drain, churn again — per paper format). Two runs at the same scale
/// print byte-identical snapshots; `sepe-repro --check-metrics FILE`
/// re-parses a saved snapshot through the strict typed parser.
#[must_use]
pub fn metrics(scale: &RunScale) -> String {
    use sepe_driver::bench_json::{metrics_snapshot, BenchConfig};
    let config = BenchConfig::from_scale(scale);
    metrics_snapshot(scale, &config).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> RunScale {
        let mut s = RunScale::smoke();
        s.affectations = 300;
        s.collision_keys = 400;
        s.uniformity_keys = 3000;
        s.formats = vec![KeyFormat::Ssn];
        s
    }

    #[test]
    fn table1_lists_all_functions() {
        let t = table1(&tiny_scale());
        for id in HashId::ALL {
            assert!(t.contains(id.name()), "{t}");
        }
    }

    #[test]
    fn fig15_excludes_pext() {
        let t = fig15(&tiny_scale());
        assert!(!t.lines().any(|l| l.starts_with("Pext")), "{t}");
        assert!(t.contains("OffXor"));
    }

    #[test]
    fn table2_normalizes_stl_to_one() {
        let t = table2(&tiny_scale());
        let stl_line = t.lines().find(|l| l.starts_with("STL")).expect("STL row");
        for cell in stl_line.split_whitespace().skip(1) {
            let v: f64 = cell.parse().expect("numeric cell");
            assert!((v - 1.0).abs() < 1e-9, "{stl_line}");
        }
    }

    #[test]
    fn four_digit_worst_case_shows_pext_collapse() {
        let t = four_digit_worst_case();
        assert!(t.contains("Pext"));
        assert!(t.contains("STL"));
        // Pext with top-32-bit indexing must collide on essentially all
        // 10 000 four-digit keys (the paper reports 9 999 TCs).
        let pext_line = t.lines().find(|l| l.starts_with("Pext")).expect("Pext row");
        let tc: u64 = pext_line
            .split("TC")
            .nth(1)
            .and_then(|s| s.split([',', ';']).next())
            .and_then(|s| s.trim().parse().ok())
            .expect("TC value");
        assert!(tc > 9000, "{pext_line}");
    }

    #[test]
    fn guard_artifact_reports_a_held_trip_for_every_format() {
        let mut s = tiny_scale();
        s.formats = vec![KeyFormat::Ssn, KeyFormat::Ipv4];
        s.collision_keys = 200;
        let t = guard(&s, 0.10, None);
        assert!(t.contains("Format-drift trip"), "{t}");
        let rows: Vec<&str> = t
            .lines()
            .filter(|l| l.starts_with("SSN") || l.starts_with("IPv4"))
            .collect();
        assert_eq!(rows.len(), 2, "{t}");
        for row in rows {
            assert!(!row.contains("never"), "{row}");
            assert!(row.contains('/'), "the trip's window counts: {row}");
            assert!(row.contains("Guarded") && row.ends_with("none"), "{row}");
        }
        assert!(!t.contains("Degraded"), "{t}");
    }

    #[test]
    fn fig17_18_has_rows_for_each_function() {
        let mut s = tiny_scale();
        s.collision_keys = 300;
        let t = fig17_18(&s);
        assert!(t.contains("OffXor    BC:"));
        assert!(t.contains("OffXor    TC:"));
    }
}
