//! Bounded end-to-end runs of the verification harness — these are the
//! tier-1 differential-correctness gates.

use sepe_core::regex::Regex;
use sepe_core::synth::{synthesize, Family};
use sepe_keygen::{Distribution, KeyFormat, KeySampler, SplitMix64};
use sepe_verify::formats::RandomFormat;
use sepe_verify::{differential, invariants};

/// All four families, both ISA paths, three seeds, 120 seeded-random
/// formats: the tuned hashes and the specification interpreter must agree
/// on every key.
#[test]
fn tuned_hashes_match_the_interpreter_on_random_formats() {
    let mut rng = SplitMix64::new(0xD1FF_E2E2);
    for i in 0..120 {
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let keys = format.sample_keys(&mut rng, 24);
        let mismatches = differential::check_pattern(&pattern, &keys, &differential::DEFAULT_SEEDS);
        assert!(
            mismatches.is_empty(),
            "random format {i} ({format:?}): {}",
            mismatches[0]
        );
    }
}

/// The eight evaluated formats of the paper, with keys drawn the way the
/// experiments draw them.
#[test]
fn tuned_hashes_match_the_interpreter_on_paper_formats() {
    for format in KeyFormat::EVALUATED {
        let pattern = Regex::compile(&format.regex()).expect("evaluated formats compile");
        for dist in Distribution::ALL {
            let keys: Vec<Vec<u8>> = KeySampler::new(format, dist, 0xC0DE)
                .pool(60)
                .into_iter()
                .map(String::into_bytes)
                .collect();
            let mismatches =
                differential::check_pattern(&pattern, &keys, &differential::DEFAULT_SEEDS);
            assert!(
                mismatches.is_empty(),
                "{} {}: {}",
                format.name(),
                dist.name(),
                mismatches[0]
            );
        }
    }
}

/// Structural invariants and the constructive Pext bijection over random
/// formats.
#[test]
fn plans_satisfy_the_paper_invariants_on_random_formats() {
    let mut rng = SplitMix64::new(0x1337_BEEF);
    let mut inversions = 0usize;
    for i in 0..120 {
        let format = RandomFormat::generate(&mut rng);
        let pattern = format.pattern();
        let keys = format.sample_keys(&mut rng, 24);
        for family in Family::ALL {
            let plan = synthesize(&pattern, family);
            let violations = invariants::plan_violations(&pattern, family, &plan);
            assert!(
                violations.is_empty(),
                "random format {i} {family}: {violations:?}"
            );
            if plan.injective_over(family, &pattern) {
                invariants::check_sampled_injectivity(&plan, family, &keys)
                    .unwrap_or_else(|e| panic!("random format {i}: {e}"));
                if family == Family::Pext {
                    invariants::check_pext_roundtrip(&pattern, &plan, &keys)
                        .unwrap_or_else(|e| panic!("random format {i}: {e}"));
                    inversions += 1;
                }
            }
        }
        invariants::check_lattice_soundness(&keys)
            .unwrap_or_else(|e| panic!("random format {i}: {e}"));
    }
    assert!(
        inversions > 10,
        "expected plenty of bijective Pext plans, got {inversions}"
    );
}

/// The fixed small-space paper formats are where the seed's Naive/OffXor
/// collisions lived: with the clamp rotation they must be injective, and
/// Pext must invert exactly.
#[test]
fn small_paper_formats_are_injective_for_every_word_family() {
    for format in [KeyFormat::Ssn, KeyFormat::Cpf, KeyFormat::Ipv4] {
        let pattern = Regex::compile(&format.regex()).expect("compiles");
        let keys: Vec<Vec<u8>> = KeySampler::new(format, Distribution::Normal, 0xFEED)
            .distinct_pool(3_000)
            .into_iter()
            .map(String::into_bytes)
            .collect();
        for family in [Family::Naive, Family::OffXor] {
            let plan = synthesize(&pattern, family);
            assert!(
                plan.injective_over(family, &pattern),
                "{} {family}",
                format.name()
            );
            invariants::check_sampled_injectivity(&plan, family, &keys)
                .unwrap_or_else(|e| panic!("{}: {e}", format.name()));
        }
        let plan = synthesize(&pattern, Family::Pext);
        invariants::check_pext_roundtrip(&pattern, &plan, &keys)
            .unwrap_or_else(|e| panic!("{}: {e}", format.name()));
    }
}

/// Of the eight evaluated formats, exactly SSN, CPF and IPv4 get plans
/// judged injective, for every word family; MAC, IPv6, INTS and the URLs
/// have too many variable bits or letters' high nibbles. Aes never does.
#[test]
fn only_the_small_paper_formats_are_judged_injective() {
    for format in KeyFormat::EVALUATED {
        let pattern = Regex::compile(&format.regex()).expect("compiles");
        let small = matches!(format, KeyFormat::Ssn | KeyFormat::Cpf | KeyFormat::Ipv4);
        for family in Family::ALL {
            let injective = synthesize(&pattern, family).injective_over(family, &pattern);
            assert_eq!(
                injective,
                small && family != Family::Aes,
                "{} {family}",
                format.name()
            );
        }
    }
}

/// `--suite` names outside the suite table (such as the removed
/// `supervisor` suite) are a usage error: exit 2, naming every valid
/// suite. `--help` lists the same table.
#[test]
fn unknown_suites_exit_2_and_name_the_valid_ones() {
    let valid = [
        "differential",
        "batch",
        "invariants",
        "model",
        "faults",
        "migration",
        "concurrent",
        "adversarial",
        "synthesis",
        "all",
    ];
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sepe-verify"))
        .args(["--suite", "supervisor"])
        .output()
        .expect("sepe-verify runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no suite ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown suite supervisor"), "{stderr}");
    for name in valid {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }

    let help = std::process::Command::new(env!("CARGO_BIN_EXE_sepe-verify"))
        .arg("--help")
        .output()
        .expect("sepe-verify runs");
    assert!(help.status.success());
    let stdout = String::from_utf8_lossy(&help.stdout);
    for name in valid {
        assert!(
            stdout.contains(name),
            "{name} missing from --help: {stdout}"
        );
    }
    assert!(!stdout.contains("supervisor"), "{stdout}");
}
