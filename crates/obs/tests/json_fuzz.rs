//! Fuzz properties of the JSON codec every trust boundary reads through
//! (plan bundles, metrics snapshots, bench reports).
//!
//! The pinned contract: `Json::parse` is total — every input parses or
//! returns a typed `ParseError`, never a panic — and print∘parse is the
//! identity on whatever parses. The properties start from a canonical
//! document (every truncation, byte flips, nesting past the cap), from
//! generated values (print then parse), and from generated number
//! spellings (huge, negative, exponent, and non-JSON ones).

use proptest::prelude::*;
use sepe_obs::json::{Json, MAX_DEPTH};

/// A compact document with every value kind; it nests [`DOC_DEPTH`]
/// levels deep (`{"b":{"d":[]}}`).
const DOC: &str =
    r#"{"a":[0,-2.5,1000000,0.001,true,false,null],"b":{"c":"x\n\"y\\z\u0001\/","d":[]},"e":{}}"#;
const DOC_DEPTH: usize = 3;

/// `text` may be rejected (the error is typed by construction), but must
/// not panic, and what parses must print to a document that parses back
/// to the same value.
fn parses_or_rejects(text: &str) {
    if let Ok(value) = Json::parse(text) {
        assert_eq!(Json::parse(&value.to_string()), Ok(value), "{text}");
    }
}

#[test]
fn the_canonical_document_prints_as_itself() {
    let value = Json::parse(DOC).expect("canonical document parses");
    let printed = value.to_string();
    assert_eq!(Json::parse(&printed), Ok(value));
    // Only the escapes' spelling differs from the hand-written source.
    assert_eq!(printed, DOC.replace(r"\/", "/"));
}

#[test]
fn every_truncation_of_a_document_is_rejected() {
    for cut in 0..DOC.len() {
        assert!(Json::parse(&DOC[..cut]).is_err(), "{}", &DOC[..cut]);
    }
}

/// SplitMix64: a self-contained generator for the value trees below.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_string(rng: &mut u64) -> String {
    const POOL: [char; 12] = [
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\u{1}', '\u{7f}', 'é', '😀',
    ];
    (0..next(rng) % 6)
        .map(|_| POOL[(next(rng) % POOL.len() as u64) as usize])
        .collect()
}

fn random_number(rng: &mut u64) -> f64 {
    let bits = next(rng);
    match bits % 3 {
        0 => (bits >> 12) as f64 - (1u64 << 51) as f64,
        1 if f64::from_bits(bits).is_finite() => f64::from_bits(bits),
        _ => (bits >> 40) as f64 / 1000.0,
    }
}

fn random_value(rng: &mut u64, depth: usize) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match next(rng) % kinds {
        0 => Json::Null,
        1 => Json::Bool(next(rng) & 1 == 1),
        2 => Json::Num(random_number(rng)),
        3 => Json::Str(random_string(rng)),
        4 => Json::Arr(
            (0..next(rng) % 4)
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..next(rng) % 4)
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn single_byte_flips_parse_or_reject(at in any::<usize>(), byte in any::<u8>()) {
        let mut bytes = DOC.as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        parses_or_rejects(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn nesting_past_the_cap_is_rejected(n in 0usize..200, object in any::<bool>()) {
        let (open, close) = if object { ("{\"a\":", "}") } else { ("[", "]") };
        let text = open.repeat(n) + DOC + &close.repeat(n);
        parses_or_rejects(&text);
        prop_assert_eq!(Json::parse(&text).is_ok(), n + DOC_DEPTH <= MAX_DEPTH);
    }

    #[test]
    fn print_then_parse_is_the_identity(seed in any::<u64>()) {
        let mut rng = seed;
        let value = random_value(&mut rng, 5);
        let printed = value.to_string();
        prop_assert_eq!(&printed, &value.to_string());
        prop_assert_eq!(Json::parse(&printed), Ok(value));
    }

    #[test]
    fn numbers_parse_to_finite_values_or_reject(
        negative in any::<bool>(),
        int in prop_oneof!["[0-9]{1,3}", "[0-9]{1,400}"],
        frac in (any::<bool>(), "[0-9]{0,20}"),
        exp in (any::<bool>(), "[eE][+-]?[0-9]{0,4}"),
    ) {
        let mut text = String::from(if negative { "-" } else { "" });
        text.push_str(&int);
        let mut grammatical = int.len() == 1 || !int.starts_with('0');
        if frac.0 {
            text.push('.');
            text.push_str(&frac.1);
            grammatical &= !frac.1.is_empty();
        }
        if exp.0 {
            text.push_str(&exp.1);
            grammatical &= exp.1.ends_with(|c: char| c.is_ascii_digit());
        }
        match Json::parse(&text) {
            Ok(Json::Num(n)) => {
                prop_assert!(grammatical, "accepted {text}");
                prop_assert!(n.is_finite(), "{text} parsed to {n}");
                prop_assert_eq!(text.parse::<f64>(), Ok(n));
                let printed = Json::Num(n).to_string();
                prop_assert_eq!(Json::parse(&printed), Ok(Json::Num(n)), "{}", printed);
            }
            Ok(other) => panic!("{text} parsed to {other:?}"),
            Err(e) => prop_assert!(
                !grammatical || text.parse::<f64>().is_ok_and(|n| !n.is_finite()),
                "rejected {text}: {e}"
            ),
        }
    }

    #[test]
    fn every_f64_prints_as_json(n in any::<f64>(), special in 0u8..4) {
        let n = [n, f64::INFINITY, f64::NEG_INFINITY, f64::NAN][usize::from(special)];
        let printed = Json::Num(n).to_string();
        let expected = if n.is_finite() { Json::Num(n) } else { Json::Null };
        prop_assert_eq!(Json::parse(&printed), Ok(expected), "{}", printed);
    }
}
