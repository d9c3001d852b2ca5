//! `keybench` — benchmark synthesized and baseline hash functions on *your*
//! keys: the end-to-end tool a downstream user actually wants.
//!
//! ```text
//! keybench my_keys.txt             # one key per line
//! keybench --iterations 200000 my_keys.txt
//! ```
//!
//! Infers the key format, synthesizes all four SEPE families, and reports
//! hashing time (latency-chained), true collisions and bucket collisions
//! against the general-purpose baselines.

use sepe_baselines::CityHash;
use sepe_containers::{DriftPolicy, UnorderedMap};
use sepe_core::guard::GuardedHash;
use sepe_core::hash::SynthesizedHash;
use sepe_core::infer::{infer_pattern, infer_regex};
use sepe_core::multi::LengthDispatchHash;
use sepe_core::synth::Family;
use sepe_core::{ByteHash, Isa, KeyPattern};
use sepe_driver::measure::{chained_hashes, collisions_of};
use sepe_driver::HashId;
use std::io::Read;
use std::process::ExitCode;
use std::time::Instant;

struct Options {
    iterations: usize,
    guard: bool,
    drift_threshold: Option<f64>,
    path: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut iterations = 100_000;
    let mut guard = false;
    let mut drift_threshold = None;
    let mut path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--iterations" | "-n" => {
                iterations = args
                    .next()
                    .ok_or("--iterations needs a value")?
                    .parse()
                    .map_err(|e| format!("bad iteration count: {e}"))?;
            }
            "--guard" | "-g" => guard = true,
            "--drift-threshold" => {
                let t: f64 = args
                    .next()
                    .ok_or("--drift-threshold needs a value")?
                    .parse()
                    .map_err(|e| format!("bad drift threshold: {e}"))?;
                if !(0.0..=1.0).contains(&t) {
                    return Err(format!("drift threshold {t} is outside 0..=1"));
                }
                drift_threshold = Some(t);
            }
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(other.to_owned());
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Options {
        iterations,
        guard,
        drift_threshold,
        path,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("keybench: {msg}");
            }
            eprintln!(
                "usage: keybench [-h|--help] [-n|--iterations N] [-g|--guard] \
                 [--drift-threshold T] [FILE]\n\
                 \x20      (keys on stdin or FILE, one per line)"
            );
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };

    let mut input = String::new();
    let read = match &opts.path {
        Some(p) => std::fs::read_to_string(p).map(|s| {
            input = s;
        }),
        None => std::io::stdin()
            .lock()
            .read_to_string(&mut input)
            .map(|_| ()),
    };
    if let Err(e) = read {
        eprintln!("keybench: cannot read keys: {e}");
        return ExitCode::FAILURE;
    }

    let mut keys: Vec<&str> = input
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    if keys.is_empty() {
        eprintln!("keybench: no keys given");
        return ExitCode::FAILURE;
    }
    let key_bytes: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
    let key_strings: Vec<String> = keys.iter().map(|k| (*k).to_owned()).collect();

    let pattern = match infer_pattern(key_bytes.iter().copied()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("keybench: cannot infer a key format: {e}");
            return ExitCode::FAILURE;
        }
    };
    let regex = match infer_regex(key_bytes.iter().copied()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("keybench: cannot infer a key format: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{} distinct keys, inferred format: {}", keys.len(), regex);
    println!(
        "length {}..={}, {} variable bits{}\n",
        pattern.min_len(),
        pattern.max_len(),
        pattern.variable_bits(),
        if pattern.variable_bits() <= 64 && pattern.is_fixed_len() {
            " (Pext bijection possible)"
        } else {
            ""
        }
    );

    println!(
        "{:<22} {:>12} {:>10} {:>12}",
        "function", "ns/hash", "T-Coll", "B-Coll"
    );
    let report = |name: &str, hash: &dyn ByteHash| {
        let start = Instant::now();
        std::hint::black_box(chained_hashes(hash, &key_bytes, opts.iterations));
        let ns = start.elapsed().as_secs_f64() * 1e9 / opts.iterations as f64;
        let (b_coll, t_coll) =
            collisions_of(hash, &key_strings, sepe_containers::BucketPolicy::Modulo);
        println!("{name:<22} {ns:>12.1} {t_coll:>10} {b_coll:>12}");
    };

    for family in Family::ALL {
        let hash = SynthesizedHash::from_pattern(&pattern, family);
        report(&format!("sepe/{family}"), &hash);
    }
    let mut drift_line = None;
    if opts.guard {
        for family in Family::ALL {
            let hash = GuardedHash::from_pattern(&pattern, family, CityHash::new());
            report(&format!("sepe/{family}+guard"), &hash);
            if family == Family::OffXor {
                let stats = hash.stats();
                drift_line = Some(format!(
                    "guard drift: {} in-format, {} off-format of {} keys seen ({:.1}% drift)",
                    stats.in_format(),
                    stats.off_format(),
                    stats.total(),
                    stats.off_rate() * 100.0
                ));
            }
        }
    }
    if !pattern.is_fixed_len() {
        if let Ok(dispatch) =
            LengthDispatchHash::from_examples(key_bytes.iter().copied(), Family::OffXor)
        {
            report("sepe/OffXor+dispatch", &dispatch);
        }
    }
    // Related work: entropy-learned hashing (Hentschel et al.), trained on
    // the same keys with a byte budget matching the variable region.
    let budget = key_bytes
        .iter()
        .map(|k| k.len())
        .max()
        .unwrap_or(1)
        .clamp(1, 16);
    let elh = sepe_baselines::EntropyLearnedHash::train(&key_bytes, budget);
    report(
        &format!("related/ELH({} bytes)", elh.positions().len()),
        &elh,
    );

    for id in [HashId::Stl, HashId::City, HashId::Abseil, HashId::Fnv] {
        // Baselines are format-independent; any format argument works.
        let hash = id.build(sepe_keygen::KeyFormat::Ssn, Isa::Native);
        report(&format!("baseline/{}", id.name()), hash.as_ref());
    }
    if let Some(line) = drift_line {
        println!("\n{line}");
    }
    if let Some(threshold) = opts.drift_threshold {
        println!();
        drift_demo(&pattern, &key_strings, threshold);
    }
    ExitCode::SUCCESS
}

/// Demonstrates the drift state machine: fills a guarded map with the
/// user's keys, then streams progressively off-format traffic through it
/// until the drift window trips, and reports the trip with the tripping
/// window's counts. The trip holds the guarded route: no table re-filing.
fn drift_demo(pattern: &KeyPattern, keys: &[String], threshold: f64) {
    let policy = DriftPolicy::with_threshold(threshold);
    let hasher = GuardedHash::from_pattern(pattern, Family::OffXor, CityHash::new());
    let mut map: UnorderedMap<String, usize, _> = UnorderedMap::with_hasher(hasher);
    for (i, key) in keys.iter().enumerate() {
        map.insert(key.clone(), i);
    }
    println!(
        "drift demo: {} keys inserted, mode {:?}, threshold {:.0}%",
        map.len(),
        map.guard_mode(),
        threshold * 100.0
    );
    // Off-format traffic: the same keys with a marker byte appended.
    let mut tripped_at = None;
    for (i, key) in keys.iter().enumerate() {
        map.insert(format!("{key}!"), i);
        if map.maybe_degrade(&policy) {
            tripped_at = Some(i + 1);
            break;
        }
    }
    let stats = map.drift_stats();
    match (tripped_at, map.drift_trip()) {
        (Some(n), Some((off, total))) => println!(
            "drift window tripped after {n} off-format keys ({off} off-format of {total} in \
             the tripping window); guarded route held, mode {:?}, epoch {}",
            map.guard_mode(),
            if map.migration_in_flight() {
                "open"
            } else {
                "none"
            }
        ),
        _ => println!(
            "threshold never exceeded ({:.1}% drift over {} observations); mode {:?}",
            stats.off_rate() * 100.0,
            stats.total(),
            map.guard_mode()
        ),
    }
}
