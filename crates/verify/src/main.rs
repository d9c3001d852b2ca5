//! `sepe-verify` — run the differential-correctness harness from the
//! command line.
//!
//! ```text
//! sepe-verify [--formats N] [--keys N] [--ops N] [--seed S] [--suite NAME] [--inject-faults]
//! ```
//!
//! The suites, with what each checks, are the `SUITES` table below;
//! `--help` prints it and `--suite all` (the default) runs it in order.
//! `--inject-faults` alone is a shorthand for `--suite faults`; combined
//! with an explicit `--suite` it keeps that suite (the concurrent suite
//! uses it to arm its drift bursts). Exits 1 if any suite fails and 2 on
//! bad arguments, including an unknown suite name.

use sepe_baselines::CityHash;
use sepe_core::guard::GuardedHash;
use sepe_core::pattern::KeyPattern;
use sepe_core::regex::Regex;
use sepe_core::synth::{synthesize, Family};
use sepe_core::{ByteHash, Isa};
use sepe_keygen::{KeyFormat, SplitMix64};
use sepe_verify::{
    adversarial, batch, concurrent, differential, faults, formats::RandomFormat, invariants,
    migration, model, synthesis, transitions,
};

type Suite = fn(&Options) -> Result<String, String>;

/// Every suite, in the order `--suite all` runs them: name, what it
/// checks (printed by `--help`), and its runner.
const SUITES: &[(&str, &str, Suite)] = &[
    (
        "differential",
        "tuned hashes vs. the plan interpreter over random and paper formats",
        run_differential,
    ),
    (
        "batch",
        "hash_batch vs. the scalar path and the interpreter at widths 1/3/4/7/8, \
         hardware pext forced on and off",
        run_batch,
    ),
    (
        "invariants",
        "structural plan checks, Pext bijection inversion, lattice soundness",
        run_invariants,
    ),
    (
        "model",
        "container operations vs. std::collections::HashMap",
        run_model,
    ),
    (
        "faults",
        "fault-injected guarded containers and the drift state machine (held trip, \
         resynthesis), batched guard checks included",
        run_faults,
    ),
    (
        "migration",
        "interrupted incremental migrations with drift bursts vs. an eagerly drained \
         twin (contents and counters), typed rejection of corrupted plan bundles",
        run_migration,
    ),
    (
        "concurrent",
        "threaded ShardedMap ops vs. a Mutex<HashMap> twin; with --inject-faults, \
         drift bursts trip or escalate shards and each is resynthesized inline under load",
        run_concurrent,
    ),
    (
        "adversarial",
        "HashDoS collision storms drive the escalation ladder on maps, batches and \
         a hammered ShardedMap; benign churn never escalates",
        run_adversarial,
    ),
    (
        "synthesis",
        "every corpus plan valid, minimal against a reference cover, and linear work",
        run_synthesis,
    ),
    (
        "transitions",
        "every op sequence up to --depth on tiny guarded maps and multimaps vs. a \
         HashMap twin and an eagerly drained twin's mode and ladder counters",
        run_transitions,
    ),
];

/// The valid `--suite` values, for usage and error messages.
fn suite_names() -> String {
    let names: Vec<&str> = SUITES.iter().map(|(name, _, _)| *name).collect();
    format!("{}|all", names.join("|"))
}

struct Options {
    formats: usize,
    keys: usize,
    ops: usize,
    seed: u64,
    suite: String,
    inject_faults: bool,
    depth: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        formats: 100,
        keys: 40,
        ops: 4_000,
        seed: 0x5E9E,
        suite: "all".to_owned(),
        inject_faults: false,
        depth: 4,
    };
    let mut suite_chosen = false;
    let mut inject_faults = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--formats" => {
                opts.formats = value("--formats")?
                    .parse()
                    .map_err(|e| format!("--formats: {e}"))?
            }
            "--keys" => {
                opts.keys = value("--keys")?
                    .parse()
                    .map_err(|e| format!("--keys: {e}"))?
            }
            "--ops" => opts.ops = value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--depth" => {
                opts.depth = value("--depth")?
                    .parse()
                    .map_err(|e| format!("--depth: {e}"))?
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = parse_u64(&v).map_err(|e| format!("--seed: {e}"))?;
            }
            "--suite" => {
                opts.suite = value("--suite")?;
                suite_chosen = true;
            }
            "--inject-faults" => inject_faults = true,
            "--help" | "-h" => {
                println!(
                    "usage: sepe-verify [--formats N] [--keys N] [--ops N] [--seed S] \
                     [--depth K] [--suite {}] [--inject-faults]\n\nsuites:",
                    suite_names()
                );
                for (name, about, _) in SUITES {
                    println!("  {name:<14}{about}");
                }
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // `--inject-faults` alone selects the faults suite; next to an explicit
    // `--suite` (e.g. `--suite migration --inject-faults`) it must not
    // clobber the choice — the migration suite injects faults regardless,
    // and the concurrent suite uses the flag to arm its drift bursts.
    if inject_faults && !suite_chosen {
        opts.suite = "faults".to_owned();
    }
    if opts.suite != "all" && !SUITES.iter().any(|(name, _, _)| *name == opts.suite) {
        return Err(format!(
            "unknown suite {} (valid: {})",
            opts.suite,
            suite_names()
        ));
    }
    opts.inject_faults = inject_faults;
    Ok(opts)
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|e| e.to_string())
}

fn paper_patterns() -> Vec<(String, KeyPattern)> {
    KeyFormat::EVALUATED
        .iter()
        .map(|f| {
            let pattern = Regex::compile(&f.regex()).expect("evaluated formats compile");
            (f.name().to_owned(), pattern)
        })
        .collect()
}

fn sample_pattern_keys(pattern: &KeyPattern, rng: &mut SplitMix64, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| {
            let len = if pattern.is_fixed_len() || rng.next_u64().is_multiple_of(2) {
                pattern.max_len()
            } else {
                pattern.min_len()
            };
            (0..len)
                .map(|i| {
                    let choices: Vec<u8> = pattern.bytes()[i].possible_bytes().collect();
                    choices[(rng.next_u64() % choices.len() as u64) as usize]
                })
                .collect()
        })
        .collect()
}

fn run_differential(opts: &Options) -> Result<String, String> {
    let mut rng = SplitMix64::new(opts.seed);
    let mut checked = 0usize;
    let mut hashes = 0usize;
    for (name, pattern) in paper_patterns() {
        let keys = sample_pattern_keys(&pattern, &mut rng, opts.keys);
        let mismatches = differential::check_pattern(&pattern, &keys, &differential::DEFAULT_SEEDS);
        if let Some(m) = mismatches.first() {
            return Err(format!("{name}: {m} ({} total)", mismatches.len()));
        }
        checked += 1;
        hashes += keys.len() * Family::ALL.len() * differential::DEFAULT_SEEDS.len() * 2;
    }
    for i in 0..opts.formats {
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let keys = format.sample_keys(&mut rng, opts.keys);
        let mismatches = differential::check_pattern(&pattern, &keys, &differential::DEFAULT_SEEDS);
        if let Some(m) = mismatches.first() {
            return Err(format!(
                "random format {i} ({format:?}): {m} ({} total)",
                mismatches.len()
            ));
        }
        checked += 1;
        hashes += keys.len() * Family::ALL.len() * differential::DEFAULT_SEEDS.len() * 2;
    }
    Ok(format!(
        "{checked} formats, {hashes} hash evaluations, 0 mismatches"
    ))
}

fn run_batch(opts: &Options) -> Result<String, String> {
    let mut rng = SplitMix64::new(opts.seed ^ 0xBA7C);
    let mut format_set: Vec<(String, KeyPattern, Vec<Vec<u8>>)> = paper_patterns()
        .into_iter()
        .map(|(name, p)| {
            let keys = sample_pattern_keys(&p, &mut rng, opts.keys);
            (name, p, keys)
        })
        .collect();
    // Random formats are cheaper per key than the full differential run,
    // so a quarter of the differential's format budget keeps the suite
    // proportionate while still covering formats nobody hand-picked.
    for i in 0..(opts.formats / 4).max(4) {
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let keys = format.sample_keys(&mut rng, opts.keys);
        format_set.push((format!("random format {i}"), pattern, keys));
    }

    let mut checked = 0usize;
    let mut hashes = 0usize;
    for (name, pattern, keys) in &format_set {
        let mismatches = batch::check_pattern_batched(pattern, keys, &differential::DEFAULT_SEEDS);
        if let Some(m) = mismatches.first() {
            return Err(format!("{name}: {m} ({} total)", mismatches.len()));
        }
        let soft = batch::with_forced_software_pext(|| {
            batch::check_pattern_batched(pattern, keys, &differential::DEFAULT_SEEDS)
        });
        if let Some(m) = soft.first() {
            return Err(format!(
                "{name} (software pext forced): {m} ({} total)",
                soft.len()
            ));
        }
        checked += 1;
        hashes += 2
            * keys.len()
            * Family::ALL.len()
            * differential::DEFAULT_SEEDS.len()
            * 2
            * batch::WIDTHS.len();
    }
    Ok(format!(
        "{checked} formats, {hashes} batched hash evaluations across widths {:?} \
         (hardware and software pext), 0 mismatches",
        batch::WIDTHS
    ))
}

fn run_invariants(opts: &Options) -> Result<String, String> {
    let mut rng = SplitMix64::new(opts.seed ^ 0x17F);
    let mut plans = 0usize;
    let mut roundtrips = 0usize;
    let mut format_set: Vec<(String, KeyPattern, Vec<Vec<u8>>)> = paper_patterns()
        .into_iter()
        .map(|(name, p)| {
            let keys = sample_pattern_keys(&p, &mut rng, opts.keys);
            (name, p, keys)
        })
        .collect();
    for i in 0..opts.formats {
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let keys = format.sample_keys(&mut rng, opts.keys);
        format_set.push((format!("random format {i}"), pattern, keys));
    }

    for (name, pattern, keys) in &format_set {
        for family in Family::ALL {
            let plan = synthesize(pattern, family);
            let violations = invariants::plan_violations(pattern, family, &plan);
            if let Some(v) = violations.first() {
                return Err(format!("{name}: {v} ({} total)", violations.len()));
            }
            plans += 1;
            if plan.injective_over(family, pattern) {
                invariants::check_sampled_injectivity(&plan, family, keys)
                    .map_err(|e| format!("{name}: {e}"))?;
                if family == Family::Pext {
                    invariants::check_pext_roundtrip(pattern, &plan, keys)
                        .map_err(|e| format!("{name}: Pext inversion: {e}"))?;
                    roundtrips += 1;
                }
            }
        }
        invariants::check_lattice_soundness(keys).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(format!(
        "{plans} plans structurally sound, {roundtrips} Pext inversions exact"
    ))
}

fn run_model(opts: &Options) -> Result<String, String> {
    use sepe_core::hash::SynthesizedHash;
    let mut total = model::ModelStats::default();
    for format in [KeyFormat::Ssn, KeyFormat::Ipv4, KeyFormat::Uuid] {
        let pattern = Regex::compile(&format.regex()).expect("compiles");
        for family in Family::ALL {
            for isa in [Isa::Native, Isa::Portable] {
                let hasher = SynthesizedHash::from_pattern(&pattern, family).with_isa(isa);
                let stats = model::check_container(hasher, format, opts.ops, opts.seed)
                    .map_err(|e| format!("{} {family} {isa:?}: {e}", format.name()))?;
                total.inserts += stats.inserts;
                total.lookups += stats.lookups;
                total.erases += stats.erases;
                total.structural += stats.structural;
                total.checkpoints += stats.checkpoints;
            }
        }
    }
    Ok(format!(
        "{} inserts, {} lookups, {} erases, {} structural ops, {} checkpoints — all agreed with std::collections::HashMap",
        total.inserts, total.lookups, total.erases, total.structural, total.checkpoints
    ))
}

fn run_faults(opts: &Options) -> Result<String, String> {
    let mut rng = SplitMix64::new(opts.seed ^ 0xFA17);
    let mut agreement_checks = 0usize;
    let mut identity_keys = 0usize;

    // Guard/spec agreement and in-format hash identity, over the paper
    // formats and the seeded random ones.
    let mut format_set: Vec<(String, KeyPattern, Vec<Vec<u8>>)> = paper_patterns()
        .into_iter()
        .map(|(name, p)| {
            let keys = sample_pattern_keys(&p, &mut rng, opts.keys);
            (name, p, keys)
        })
        .collect();
    for i in 0..opts.formats {
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let keys = format.sample_keys(&mut rng, opts.keys);
        format_set.push((format!("random format {i}"), pattern, keys));
    }
    let mut batch_checks = 0usize;
    for (name, pattern, keys) in &format_set {
        agreement_checks += faults::check_guard_agreement(pattern, keys, &mut rng)
            .map_err(|e| format!("{name}: {e}"))?;
        batch_checks += faults::check_batch_guard_agreement(pattern, keys, &mut rng)
            .map_err(|e| format!("{name} (batched): {e}"))?;
        for family in Family::ALL {
            let guarded = GuardedHash::from_pattern(pattern, family, CityHash::new());
            faults::check_in_format_identity(&guarded, keys)
                .map_err(|e| format!("{name} {family}: {e}"))?;
            identity_keys += keys.len();
        }
    }

    // Fault-injected container model checks: ≥10% of pool keys mutated
    // off-format, all four families, paper formats.
    let mut stats = faults::FaultStats::default();
    let policy = sepe_containers::DriftPolicy::default();
    for format in [KeyFormat::Ssn, KeyFormat::Ipv4, KeyFormat::Uuid] {
        let pattern = Regex::compile(&format.regex()).expect("compiles");
        let clean = sample_pattern_keys(&pattern, &mut rng, 48);
        let (pool, injected) = faults::faulted_pool(&pattern, &clean, 0.25, &mut rng);
        if (injected as f64) < 0.10 * pool.len() as f64 {
            return Err(format!(
                "{}: only {injected}/{} keys injected",
                format.name(),
                pool.len()
            ));
        }
        for family in Family::ALL {
            let hasher = GuardedHash::from_pattern(&pattern, family, CityHash::new());
            let s = faults::check_guarded_container(hasher, &pool, &policy, opts.ops, opts.seed)
                .map_err(|e| format!("{} {family}: {e}", format.name()))?;
            stats.ops += s.ops;
            stats.transitions += s.transitions;
            stats.checkpoints += s.checkpoints;
            stats.injected += injected;
        }
    }

    // The drift state machine, end to end.
    let mut machines = 0usize;
    for i in 0..3usize {
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let clean = format.sample_keys(&mut rng, 200);
        for family in Family::ALL {
            faults::check_drift_trip(&pattern, family, CityHash::new(), &clean, opts.seed)
                .map_err(|e| format!("drift format {i} {family}: {e}"))?;
            machines += 1;
        }
    }

    Ok(format!(
        "{agreement_checks} guard/spec agreements, {batch_checks} batched guard verdicts, \
         {identity_keys} in-format hash identities, \
         {} faulted container ops ({} transitions, {} checkpoints), \
         {machines} drift state machines — all agreed with std::collections::HashMap",
        stats.ops, stats.transitions, stats.checkpoints
    ))
}

fn run_migration(opts: &Options) -> Result<String, String> {
    let mut rng = SplitMix64::new(opts.seed ^ 0xE90C);
    let mut stats = migration::MigrationStats::default();
    let mut lanes = 0usize;
    let mut rejected = 0usize;
    let mut drain_metrics = 0usize;

    // Interrupted migrations, batched epoch crossings and corrupted-bundle
    // rejection over the paper formats, all four families.
    for format in [KeyFormat::Ssn, KeyFormat::Ipv4, KeyFormat::Uuid] {
        let pattern = Regex::compile(&format.regex()).expect("compiles");
        let clean = sample_pattern_keys(&pattern, &mut rng, 64);
        for (i, family) in Family::ALL.into_iter().enumerate() {
            let s = migration::check_interrupted_migration(
                &pattern,
                family,
                CityHash::new(),
                &clean,
                opts.ops,
                opts.seed ^ (i as u64) << 8,
            )
            .map_err(|e| format!("{} {family}: {e}", format.name()))?;
            stats.absorb(s);
            lanes += migration::check_batched_epoch_boundary(
                &pattern,
                family,
                CityHash::new(),
                &clean,
                opts.seed ^ (i as u64) << 8,
            )
            .map_err(|e| format!("{} {family} (batched): {e}", format.name()))?;
            rejected += migration::check_corrupted_plans_rejected(&pattern, family)
                .map_err(|e| format!("{} {family} (corrupted plans): {e}", format.name()))?;
            drain_metrics += migration::check_drain_accounting(
                &pattern,
                family,
                CityHash::new(),
                &clean,
                opts.seed ^ (i as u64) << 8,
            )
            .map_err(|e| format!("{} {family} (drain metrics): {e}", format.name()))?;
        }
    }

    // A slice of seeded random formats, families rotated.
    for i in 0..(opts.formats / 10).max(3) {
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let clean = format.sample_keys(&mut rng, 48);
        let family = Family::ALL[i % Family::ALL.len()];
        let s = migration::check_interrupted_migration(
            &pattern,
            family,
            CityHash::new(),
            &clean,
            opts.ops / 2,
            opts.seed ^ (i as u64),
        )
        .map_err(|e| format!("random format {i} {family}: {e}"))?;
        stats.absorb(s);
        rejected += migration::check_corrupted_plans_rejected(&pattern, family)
            .map_err(|e| format!("random format {i} {family} (corrupted plans): {e}"))?;
    }

    Ok(format!(
        "{} ops across interrupted migrations ({} interruptions, {} epoch transitions, \
         {} drift bursts, {} checkpoints), {lanes} batched lanes across epoch boundaries, \
         {rejected} corrupted bundles rejected with typed errors, {drain_metrics} drain-metric \
         assertions against registry snapshots — contents and drift counters matched the \
         eagerly drained twin and std::collections::HashMap throughout",
        stats.ops, stats.interruptions, stats.transitions, stats.bursts, stats.checkpoints
    ))
}

fn run_concurrent(opts: &Options) -> Result<String, String> {
    let mut rng = SplitMix64::new(opts.seed ^ 0xC0C);
    let mut stats = concurrent::ConcurrentStats::default();
    let mut runs = 0usize;

    // Paper formats × families × thread counts; each cell is one shared
    // map hammered by real threads against a Mutex<HashMap> twin. With
    // `--inject-faults`, every cell also fires shard-tripping drift
    // bursts from one thread while the others keep reading.
    for format in [KeyFormat::Ssn, KeyFormat::Ipv4, KeyFormat::Uuid] {
        let pattern = Regex::compile(&format.regex()).expect("compiles");
        let pool = sample_pattern_keys(&pattern, &mut rng, opts.keys.max(48) * 4);
        for (i, family) in Family::ALL.into_iter().enumerate() {
            for threads in [2usize, 4] {
                let s = concurrent::check_concurrent_map(
                    &pattern,
                    family,
                    CityHash::new(),
                    &pool,
                    concurrent::ConcurrentRun {
                        threads,
                        ops_per_thread: (opts.ops / 2).max(500),
                        seed: opts.seed ^ (i as u64) << 8 ^ (threads as u64),
                        chaos: opts.inject_faults,
                    },
                )
                .map_err(|e| format!("{} {family} x{threads}: {e}", format.name()))?;
                stats.absorb(s);
                runs += 1;
            }
        }
    }

    // A slice of seeded random formats, families rotated, chaos always on
    // (random formats are where the off-format shadows get adversarial).
    for i in 0..(opts.formats / 20).max(2) {
        let rf = RandomFormat::generate(&mut rng);
        let pattern = rf.pattern();
        let pool = rf.sample_keys(&mut rng, 96);
        let family = Family::ALL[i % Family::ALL.len()];
        let s = concurrent::check_concurrent_map(
            &pattern,
            family,
            CityHash::new(),
            &pool,
            concurrent::ConcurrentRun {
                threads: 3,
                ops_per_thread: (opts.ops / 4).max(500),
                seed: opts.seed ^ (i as u64) << 4,
                chaos: true,
            },
        )
        .map_err(|e| format!("random format {i} {family}: {e}"))?;
        stats.absorb(s);
        runs += 1;
    }

    Ok(format!(
        "{} threaded ops across {runs} runs ({} worker threads total, {} shard drift \
         trips held, {} shard escalations, {} inline shard resyntheses under load, {} \
         quiescent checkpoints) — every per-key observation and final content matched \
         the Mutex<HashMap> twin",
        stats.ops,
        stats.threads,
        stats.drift_trips,
        stats.escalations,
        stats.resyntheses,
        stats.checkpoints
    ))
}

fn run_adversarial(opts: &Options) -> Result<String, String> {
    let mut rng = SplitMix64::new(opts.seed ^ 0xADE);
    let mut stats = adversarial::AdversarialStats::default();
    let mut ladders = 0usize;

    // The full ladder — storm, keyed re-hash, seed leak, rotation, quiet
    // re-arm — over the paper formats, families rotated so each seed in a
    // matrix exercises a different specialized plan.
    for (i, format) in [KeyFormat::Ssn, KeyFormat::Ipv4, KeyFormat::Uuid]
        .into_iter()
        .enumerate()
    {
        let pattern = Regex::compile(&format.regex()).expect("compiles");
        let pool = sample_pattern_keys(&pattern, &mut rng, opts.keys.max(48) * 4);
        let family = Family::ALL[(i + opts.seed as usize) % Family::ALL.len()];
        let s = adversarial::check_escalation_ladder(
            &pattern,
            family,
            CityHash::new(),
            &pool,
            opts.seed ^ (i as u64) << 8,
        )
        .map_err(|e| format!("{} {family}: {e}", format.name()))?;
        stats.absorb(s);
        ladders += 1;
    }

    // Drift, then a flood, then calm, ticked like a serving map: each
    // transition is left only for its own cause.
    let mut transcripts = 0usize;
    for (i, format) in [KeyFormat::Ssn, KeyFormat::Ipv4, KeyFormat::Uuid]
        .into_iter()
        .enumerate()
    {
        let pattern = Regex::compile(&format.regex()).expect("compiles");
        let pool = sample_pattern_keys(&pattern, &mut rng, opts.keys.max(48) * 4);
        let family = Family::ALL[(i + 1 + opts.seed as usize) % Family::ALL.len()];
        let s = adversarial::check_drift_flood_calm(
            &pattern,
            family,
            CityHash::new(),
            &pool,
            opts.seed ^ (i as u64) << 12,
        )
        .map_err(|e| format!("{} {family} (drift, flood, calm): {e}", format.name()))?;
        stats.absorb(s);
        transcripts += 1;
    }

    // Hysteresis: benign churn over paper and random keygen formats with
    // the production policy must never escalate.
    let mut calm_ticks = 0u64;
    for format in [KeyFormat::Ssn, KeyFormat::Ipv4, KeyFormat::Uuid] {
        let pattern = Regex::compile(&format.regex()).expect("compiles");
        let pool = sample_pattern_keys(&pattern, &mut rng, opts.keys.max(40) * 5);
        calm_ticks += adversarial::check_benign_stays_specialized(
            &pattern,
            Family::Pext,
            CityHash::new(),
            &pool,
            opts.seed,
        )
        .map_err(|e| format!("{} (benign): {e}", format.name()))?;
    }
    for i in 0..(opts.formats / 10).max(3) {
        let rf = RandomFormat::generate(&mut rng);
        let pattern = rf.pattern();
        let pool = rf.sample_keys(&mut rng, 160);
        let family = Family::ALL[i % Family::ALL.len()];
        calm_ticks += adversarial::check_benign_stays_specialized(
            &pattern,
            family,
            CityHash::new(),
            &pool,
            opts.seed ^ (i as u64),
        )
        .map_err(|e| format!("random format {i} {family} (benign): {e}"))?;
    }

    // Batched paths under flood, including mid-migration batches.
    let mut batched_ops = 0u64;
    for (format, family) in [
        (KeyFormat::Ipv4, Family::OffXor),
        (KeyFormat::Ssn, Family::Pext),
    ] {
        let pattern = Regex::compile(&format.regex()).expect("compiles");
        let pool = sample_pattern_keys(&pattern, &mut rng, opts.keys.max(48) * 3);
        batched_ops +=
            adversarial::check_batched_attack(&pattern, family, CityHash::new(), &pool, opts.seed)
                .map_err(|e| format!("{} {family} (batched): {e}", format.name()))?;
    }

    // The concurrent integration check: one shard flooded while worker
    // threads churn the rest against a Mutex<HashMap> twin.
    let pattern = Regex::compile(&KeyFormat::Ipv4.regex()).expect("compiles");
    let pool = sample_pattern_keys(&pattern, &mut rng, opts.keys.max(48) * 6);
    let s = adversarial::check_sharded_attack(
        &pattern,
        Family::OffXor,
        CityHash::new(),
        &pool,
        adversarial::ShardedAttackRun {
            threads: 3,
            ops_per_thread: (opts.ops / 2).max(500),
            seed: opts.seed,
        },
    )
    .map_err(|e| format!("ipv4 OffXor (sharded): {e}"))?;
    stats.absorb(s);

    Ok(format!(
        "{ladders} full ladders + {transcripts} drift-flood-calm transcripts + 1 sharded \
         attack ({} ops, {} escalations, {} seed rotations, {} de-escalations, {} twin \
         checkpoints, {} worker threads), \
         {calm_ticks} benign detector ticks without an escalation, {batched_ops} batched \
         ops under flood — chains stayed bounded and every counter matched the transcript",
        stats.ops,
        stats.escalations,
        stats.rotations,
        stats.deescalations,
        stats.checkpoints,
        stats.threads
    ))
}

fn run_synthesis(opts: &Options) -> Result<String, String> {
    let mut rng = SplitMix64::new(opts.seed ^ 0x5717);
    // The seed corpus: every paper-evaluated format plus seeded random
    // ones, so the minimality claim is checked over formats nobody
    // hand-picked.
    let mut corpus = paper_patterns();
    for i in 0..(opts.formats / 10).max(4) {
        let format = RandomFormat::generate(&mut rng);
        corpus.push((format!("random format {i}"), format.pattern()));
    }

    let mut checked = 0usize;
    for (name, pattern) in &corpus {
        checked += synthesis::check_minimal_cover(name, pattern)?;
    }

    Ok(format!(
        "{} patterns × {} families: {checked} plans valid, exactly as short as the \
         minimum cover, and synthesized in at most one step per pattern byte",
        corpus.len(),
        Family::ALL.len(),
    ))
}

fn run_transitions(opts: &Options) -> Result<String, String> {
    let template = transitions::seeded_template(opts.seed);
    let family = template.specialized().family();
    let injective = if template
        .specialized()
        .injective_over(template.guard().pattern())
    {
        "injective"
    } else {
        "not injective"
    };
    let map = transitions::check_map(&template, opts.depth, opts.seed)
        .map_err(|e| format!("{family} map: {e}"))?;
    let mut multi = transitions::TransitionStats::default();
    for keyed in [false, true] {
        let s = transitions::check_multimap(&template, keyed, opts.depth, opts.seed)
            .map_err(|e| format!("{family} multimap (keyed start: {keyed}): {e}"))?;
        multi.absorb(s);
    }
    // Insert, escalate, escalate (a rotation over the open epoch) is the
    // shortest sequence that merges.
    if opts.depth >= 3 && map.merges == 0 {
        return Err(format!(
            "{family} map: no transition merged into an open epoch"
        ));
    }
    // Inserting the off-format key, then judging, is the shortest trip.
    if opts.depth >= 2 && map.drift_trips == 0 {
        return Err(format!("{family} map: no drift trip was taken"));
    }
    Ok(format!(
        "depth {} over {family} ({injective} plan): {} map sequences ({} steps, {} mid-epoch, {} transitions, \
         {} tick drains, {} merged into an open epoch, {} drift trips held) and {} multimap sequences from guarded and keyed starts ({} steps, {} mid-epoch) — \
         contents matched the HashMap twin, mode and ladder counters the eager twin",
        opts.depth,
        map.sequences,
        map.steps,
        map.mid_epoch,
        map.transitions,
        map.tick_drains,
        map.merges,
        map.drift_trips,
        multi.sequences,
        multi.steps,
        multi.mid_epoch,
    ))
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sepe-verify: {e}");
            std::process::exit(2);
        }
    };
    let mut failed = false;
    for (name, _, run) in SUITES {
        if opts.suite != "all" && opts.suite != *name {
            continue;
        }
        match run(&opts) {
            Ok(summary) => println!("PASS {name}: {summary}"),
            Err(e) => {
                println!("FAIL {name}: {e}");
                failed = true;
            }
        }
    }
    std::process::exit(i32::from(failed));
}
