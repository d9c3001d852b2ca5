//! Robustness fuzzing for the two parsers that read untrusted text. The
//! regex parser and expander must be total (return `Ok` or a structured
//! error, never panic) on arbitrary input, and everything they accept must
//! go through synthesis and hashing without trouble. The plan-bundle
//! decoder is fuzzed from canonical bundles: every truncation, single-byte
//! flips, duplicated keys, non-canonical decimal strings, deep nesting and
//! megabyte strings must decode or return a typed error (fast), and
//! whatever decodes must re-encode to a bundle that decodes. The largest
//! regex expansions the expander accepts must compile fast too. The JSON
//! codec underneath has its own fuzz properties in `sepe-obs`.

use proptest::prelude::*;
use sepe_core::hash::{ByteHash, SynthError, SynthesizedHash};
use sepe_core::plan_io::{bundle_from_str, bundle_to_string, plan_from_str, SynthBundle};
use sepe_core::regex::{parse, Regex};
use sepe_core::synth::{synthesize, Family};
use sepe_obs::json::Json;
use std::time::{Duration, Instant};

/// Strings biased toward regex metacharacters so the parser's corners get
/// hit far more often than uniform ASCII would manage.
fn regexish() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        4 => prop::char::range('a', 'z').prop_map(|c| c.to_string()),
        4 => prop::char::range('0', '9').prop_map(|c| c.to_string()),
        1 => Just(r"\d".to_owned()),
        1 => Just(r"\.".to_owned()),
        1 => Just(r"\x4a".to_owned()),
        2 => Just("[0-9]".to_owned()),
        2 => Just("[a-f0-9]".to_owned()),
        1 => Just("[^,]".to_owned()),
        1 => Just(".".to_owned()),
        1 => Just("(".to_owned()),
        1 => Just(")".to_owned()),
        1 => Just("{2}".to_owned()),
        1 => Just("{1,3}".to_owned()),
        1 => Just("?".to_owned()),
        1 => Just("[".to_owned()),
        1 => Just("]".to_owned()),
        1 => Just("-".to_owned()),
        1 => Just("^".to_owned()),
        1 => Just("\\".to_owned()),
        1 => Just("|".to_owned()),
        1 => Just("*".to_owned()),
    ];
    prop::collection::vec(atom, 0..24).prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parser_is_total_on_metacharacter_soup(src in regexish()) {
        // Must not panic; errors are fine.
        let _ = parse(&src);
    }

    #[test]
    fn parser_is_total_on_arbitrary_ascii(src in "[ -~]{0,40}") {
        let _ = parse(&src);
    }

    #[test]
    fn accepted_expressions_synthesize_and_hash(src in regexish()) {
        let Ok(pattern) = Regex::compile(&src) else {
            return Ok(());
        };
        prop_assume!(pattern.max_len() <= 512);
        for family in Family::ALL {
            let hash = SynthesizedHash::from_pattern(&pattern, family);
            // Hash a key of minimum and maximum plausible length.
            let short = vec![b'0'; pattern.min_len().max(1)];
            let long = vec![b'z'; pattern.max_len().max(1)];
            prop_assert_eq!(hash.hash_bytes(&short), hash.hash_bytes(&short));
            prop_assert_eq!(hash.hash_bytes(&long), hash.hash_bytes(&long));
        }
    }

    #[test]
    fn expansion_respects_declared_length_bounds(src in regexish()) {
        let Ok(regex) = parse(&src) else {
            return Ok(());
        };
        let Ok(expansion) = regex.expand() else {
            return Ok(());
        };
        prop_assert!(expansion.min_len <= expansion.classes.len());
        // Every class an accepted expression produced is non-empty.
        for c in &expansion.classes {
            prop_assert!(!c.is_empty());
        }
    }
}

/// Canonical bundles: a fixed-length and a variable-length format under
/// every family.
fn canonical_bundles() -> Vec<String> {
    let mut out = Vec::new();
    for src in [r"\d{3}-\d{2}-\d{4}", r"user-[a-z0-9]{4,12}"] {
        let pattern = Regex::compile(src).expect("format compiles");
        for family in Family::ALL {
            let plan = synthesize(&pattern, family);
            out.push(bundle_to_string(&SynthBundle {
                pattern: pattern.clone(),
                family,
                plan,
            }));
        }
    }
    out
}

/// `text` may be rejected (the error is typed by construction), but must
/// not panic, and a decoded bundle must re-encode to one that decodes.
fn decodes_or_rejects(text: &str) {
    if let Ok(bundle) = bundle_from_str(text) {
        assert_eq!(
            bundle_from_str(&bundle_to_string(&bundle)),
            Ok(bundle),
            "{text}"
        );
    }
}

#[test]
fn every_truncation_of_a_bundle_is_rejected() {
    for text in canonical_bundles() {
        assert!(bundle_from_str(&text).is_ok(), "{text}");
        for cut in 0..text.len() {
            assert!(bundle_from_str(&text[..cut]).is_err(), "{}", &text[..cut]);
        }
    }
}

#[test]
fn duplicated_bundle_keys_are_rejected() {
    for text in canonical_bundles() {
        // Split at the top level's commas (bundle strings hold no
        // brackets or commas) and repeat each member at the front.
        let mut depth = 0;
        let mut cuts = vec![0];
        for (i, b) in text.bytes().enumerate() {
            match b {
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                b',' if depth == 1 => cuts.push(i),
                _ => {}
            }
        }
        cuts.push(text.len() - 1);
        for w in cuts.windows(2) {
            let member = &text[w[0] + 1..w[1]];
            let dup = text.replacen('{', &format!("{{{member},"), 1);
            assert!(
                matches!(bundle_from_str(&dup), Err(SynthError::MalformedPlan { .. })),
                "{dup}"
            );
        }
    }
}

#[test]
fn masks_and_checksums_take_only_canonical_decimals() {
    let plan = |mask: &str| {
        plan_from_str(&format!(
            r#"{{"FixedWords":{{"len":8,"ops":[{{"offset":0,"mask":"{mask}","shift":0}}]}}}}"#
        ))
    };
    assert!(plan("5").is_ok());
    for bad in ["+5", "007", "-5", " 5", ""] {
        assert!(
            matches!(plan(bad), Err(SynthError::MalformedPlan { .. })),
            "{bad:?}"
        );
    }
    let text = &canonical_bundles()[0];
    let checksum = Json::parse(text).expect("canonical bundle parses");
    let checksum = checksum.get("checksum").as_str().expect("checksum string");
    for bad in [format!("+{checksum}"), format!("00{checksum}")] {
        let respelled = text.replacen(checksum, &bad, 1);
        assert!(
            matches!(
                bundle_from_str(&respelled),
                Err(SynthError::MalformedPlan { .. })
            ),
            "{respelled}"
        );
    }
}

#[test]
fn a_megabyte_string_decodes_in_linear_time() {
    // A family name of 1,000,001 characters ending in a two-byte one. The
    // decoder reads it, prints it again for the checksum and rejects the
    // bundle; a parser that re-validated the rest of the input at every
    // character takes tens of seconds here.
    let long = "ab".repeat(500_000) + "\u{e9}";
    let text = canonical_bundles()[0].replacen(r#""family":""#, &format!(r#""family":"{long}"#), 1);
    let start = Instant::now();
    let got = bundle_from_str(&text);
    let took = start.elapsed();
    assert!(
        matches!(got, Err(SynthError::PlanChecksum { .. })),
        "{got:?}"
    );
    assert!(took < Duration::from_secs(1), "took {took:?}");
}

#[test]
fn the_largest_accepted_expansions_compile_in_linear_time() {
    // One class per byte position, a million positions: the lattice pattern
    // of each is O(1) in its bit set. Joining each class's members one at a
    // time takes 1.4–1.8 s in a release build.
    for src in [".{1048576}", "[^,]{1048576}"] {
        let start = Instant::now();
        let got = Regex::compile(src);
        let took = start.elapsed();
        let pattern = got.unwrap_or_else(|e| panic!("{src}: {e}"));
        assert_eq!(pattern.max_len(), 1 << 20);
        assert!(took < Duration::from_secs(1), "{src} took {took:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn single_byte_flips_decode_or_reject(which in any::<usize>(), at in any::<usize>(), byte in any::<u8>()) {
        let bundles = canonical_bundles();
        let mut bytes = bundles[which % bundles.len()].clone().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        decodes_or_rejects(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn nested_bundles_decode_or_reject(n in 0usize..200, object in any::<bool>()) {
        let (open, close) = if object { ("{\"a\":", "}") } else { ("[", "]") };
        let text = open.repeat(n) + &canonical_bundles()[0] + &close.repeat(n);
        decodes_or_rejects(&text);
        prop_assert_eq!(bundle_from_str(&text).is_ok(), n == 0);
    }
}
