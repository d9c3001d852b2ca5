//! Property-based tests for the SEPE core: lattice laws, inference
//! soundness, regex round-trips, bit-extraction correctness and the Pext
//! bijection guarantee.

use proptest::collection::vec;
use proptest::prelude::*;
use sepe_core::bits::{pdep_reference, pdep_soft, pext_reference, pext_soft, pext_u64, Isa};
use sepe_core::hash::{ByteHash, SynthesizedHash};
use sepe_core::infer::infer_pattern;
use sepe_core::lattice::{join_bytes, quads_of_byte, Quad};
use sepe_core::pattern::{BytePattern, KeyPattern};
use sepe_core::regex::render::render;
use sepe_core::regex::{ByteClass, Regex};
use sepe_core::synth::Family;

fn arb_quad() -> impl Strategy<Value = Quad> {
    prop_oneof![(0u8..4).prop_map(Quad::new), Just(Quad::Top),]
}

proptest! {
    #[test]
    fn quad_join_is_a_semilattice(a in arb_quad(), b in arb_quad(), c in arb_quad()) {
        prop_assert_eq!(a.join(a), a);
        prop_assert_eq!(a.join(b), b.join(a));
        prop_assert_eq!(a.join(b).join(c), a.join(b.join(c)));
        prop_assert_eq!(a.join(Quad::Top), Quad::Top);
    }

    #[test]
    fn quads_of_byte_are_consistent_with_byte_pattern(byte in any::<u8>()) {
        let p = BytePattern::literal(byte);
        prop_assert_eq!(p.quads(), quads_of_byte(byte));
        prop_assert!(p.matches(byte));
        prop_assert_eq!(p.cardinality(), 1);
    }

    #[test]
    fn byte_pattern_join_is_upper_bound(a in any::<u8>(), b in any::<u8>()) {
        let j = BytePattern::literal(a).join_byte(b);
        prop_assert!(j.matches(a));
        prop_assert!(j.matches(b));
        // Join never invents constants: cardinality is a power of 4 of the
        // number of top pairs.
        prop_assert!(j.cardinality().is_power_of_two());
    }

    #[test]
    fn inferred_pattern_accepts_every_example(
        keys in vec(vec(any::<u8>(), 0..24), 1..12)
    ) {
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let p = infer_pattern(refs.iter().copied()).expect("non-empty key set");
        for k in &refs {
            prop_assert!(p.matches(k), "pattern {p} must accept example {k:?}");
        }
    }

    #[test]
    fn render_round_trips_through_the_parser(
        keys in vec(vec(any::<u8>(), 1..24), 1..8)
    ) {
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let p = infer_pattern(refs.iter().copied()).expect("non-empty key set");
        let rendered = render(&p);
        let reparsed = Regex::compile(&rendered)
            .unwrap_or_else(|e| panic!("unparseable render {rendered:?}: {e}"));
        prop_assert_eq!(reparsed, p);
    }

    #[test]
    fn soft_pext_matches_the_figure_11_reference(src in any::<u64>(), mask in any::<u64>()) {
        prop_assert_eq!(pext_soft(src, mask), pext_reference(src, mask));
    }

    #[test]
    fn soft_pdep_matches_the_reference(src in any::<u64>(), mask in any::<u64>()) {
        prop_assert_eq!(pdep_soft(src, mask), pdep_reference(src, mask));
    }

    #[test]
    fn dispatched_pext_is_isa_independent(src in any::<u64>(), mask in any::<u64>()) {
        prop_assert_eq!(pext_u64(src, mask, Isa::Native), pext_u64(src, mask, Isa::Portable));
    }

    #[test]
    fn pext_pdep_are_inverse_on_masked_values(src in any::<u64>(), mask in any::<u64>()) {
        let extracted = pext_soft(src, mask);
        prop_assert_eq!(pdep_soft(extracted, mask), src & mask);
    }

    #[test]
    fn pext_preserves_popcount_of_masked_bits(src in any::<u64>(), mask in any::<u64>()) {
        prop_assert_eq!(pext_soft(src, mask).count_ones(), (src & mask).count_ones());
    }

    #[test]
    fn pext_family_is_injective_when_bits_fit(
        digits in vec(0u8..10, 16..=16),
        other in vec(0u8..10, 16..=16)
    ) {
        // 16 digits = 64 variable bits: Section 4.2 promises a bijection.
        let to_key = |ds: &[u8]| -> Vec<u8> { ds.iter().map(|d| b'0' + d).collect() };
        let h = SynthesizedHash::from_regex(r"[0-9]{16}", Family::Pext)
            .expect("regex compiles");
        let (a, b) = (to_key(&digits), to_key(&other));
        if a != b {
            prop_assert_ne!(h.hash_bytes(&a), h.hash_bytes(&b));
        } else {
            prop_assert_eq!(h.hash_bytes(&a), h.hash_bytes(&b));
        }
    }

    #[test]
    fn families_are_deterministic_and_isa_independent(
        digits in vec(0u8..10, 11..=11)
    ) {
        let key: Vec<u8> = format!(
            "{}{}{}-{}{}-{}{}{}{}",
            digits[0], digits[1], digits[2], digits[3], digits[4],
            digits[5], digits[6], digits[7], digits[8]
        ).into_bytes();
        for family in Family::ALL {
            let native = SynthesizedHash::from_regex(r"\d{3}-\d{2}-\d{4}", family)
                .expect("regex compiles");
            let portable = native.clone().with_isa(Isa::Portable);
            prop_assert_eq!(native.hash_bytes(&key), portable.hash_bytes(&key));
        }
    }

    #[test]
    fn matching_is_stable_under_join(
        keys in vec(vec(any::<u8>(), 1..16), 2..6),
        extra in vec(any::<u8>(), 1..16)
    ) {
        // Joining one more key never makes previously matching keys fail.
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let mut p = infer_pattern(refs.iter().copied()).expect("non-empty");
        let before: Vec<bool> = refs.iter().map(|k| p.matches(k)).collect();
        prop_assert!(before.iter().all(|&m| m));
        p.join_key(&extra);
        for k in &refs {
            prop_assert!(p.matches(k));
        }
        prop_assert!(p.matches(&extra));
    }

    #[test]
    fn key_pattern_of_key_matches_only_that_length(key in vec(any::<u8>(), 1..32)) {
        let p = KeyPattern::of_key(&key);
        prop_assert!(p.matches(&key));
        prop_assert!(p.is_fixed_len());
        let mut longer = key.clone();
        longer.push(0);
        prop_assert!(!p.matches(&longer));
    }
}

// The lattice as mask arithmetic (`BytePattern::join`,
// `ByteClass::to_byte_pattern`, `KeyPattern::join_key`) against the
// quad-wise reference (`Quad::join`, `BytePattern::from_bytes`).

/// Every byte pattern: each of the four quads is one of five elements.
fn all_byte_patterns() -> Vec<BytePattern> {
    let elements = [
        Quad::new(0b00),
        Quad::new(0b01),
        Quad::new(0b10),
        Quad::new(0b11),
        Quad::Top,
    ];
    let mut out = Vec::with_capacity(625);
    for a in elements {
        for b in elements {
            for c in elements {
                for d in elements {
                    out.push(BytePattern::from_quads([a, b, c, d]));
                }
            }
        }
    }
    out
}

fn quad_wise_join(a: BytePattern, b: BytePattern) -> BytePattern {
    let (qa, qb) = (a.quads(), b.quads());
    BytePattern::from_quads([
        qa[0].join(qb[0]),
        qa[1].join(qb[1]),
        qa[2].join(qb[2]),
        qa[3].join(qb[3]),
    ])
}

/// The members of `class`, found by testing all 256 byte values.
fn members(class: &ByteClass) -> Vec<u8> {
    (0..=255u8).filter(|&b| class.contains(b)).collect()
}

fn assert_class_joins_its_members(class: &ByteClass) {
    let members = members(class);
    assert_eq!(class.iter().collect::<Vec<_>>(), members, "{class:?}");
    let reference = BytePattern::from_bytes(members).unwrap_or(BytePattern::ANY);
    assert_eq!(class.to_byte_pattern(), reference, "{class:?}");
}

#[test]
fn lattice_mask_join_is_the_quad_join_on_every_pair() {
    let patterns = all_byte_patterns();
    assert_eq!(patterns.len(), 625);
    for &a in &patterns {
        for &b in &patterns {
            assert_eq!(a.join(b), quad_wise_join(a, b), "{a} ∨ {b}");
        }
        for byte in 0..=255u8 {
            let reference = quad_wise_join(a, BytePattern::literal(byte));
            assert_eq!(a.join_byte(byte), reference, "{a} ∨ {byte:#04x}");
            assert_eq!(join_bytes(a.quads(), byte), reference.quads());
        }
    }
}

#[test]
fn lattice_class_pattern_is_the_join_of_every_range_and_the_extremes() {
    for lo in 0..=255u8 {
        for hi in lo..=255u8 {
            assert_class_joins_its_members(&ByteClass::range(lo, hi));
        }
    }
    assert_class_joins_its_members(&ByteClass::EMPTY);
    assert_eq!(ByteClass::EMPTY.to_byte_pattern(), BytePattern::ANY);
    assert_class_joins_its_members(&ByteClass::ANY);
    let dot = Regex::compile(".").expect("compiles");
    assert_eq!(dot.bytes(), [BytePattern::ANY]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn lattice_class_pattern_is_the_join_of_random_members(
        bytes in vec(any::<u8>(), 1..12),
        words in vec(any::<u64>(), 4..=4),
        negate in any::<bool>(),
    ) {
        // A few members, their complement, and four random words.
        let mut sparse = ByteClass::EMPTY;
        for &b in &bytes {
            sparse.insert(b);
        }
        let mut dense = ByteClass::EMPTY;
        for (w, &word) in words.iter().enumerate() {
            for bit in 0..64 {
                if word >> bit & 1 == 1 {
                    dense.insert((w * 64 + bit) as u8);
                }
            }
        }
        let sparse = if negate { sparse.complement() } else { sparse };
        assert_class_joins_its_members(&sparse);
        assert_class_joins_its_members(&dense);
        assert_class_joins_its_members(&sparse.union(&dense));
    }

    #[test]
    fn lattice_join_key_is_the_quad_wise_fold(
        keys in vec(vec(any::<u8>(), 0..20), 1..10),
        narrow in any::<bool>(),
    ) {
        // Narrow keys share most bits, so constant quads survive the join.
        let keys: Vec<Vec<u8>> = if narrow {
            keys.iter().map(|k| k.iter().map(|b| 0x30 | (b & 0x05)).collect()).collect()
        } else {
            keys
        };
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let joined = infer_pattern(refs.iter().copied()).expect("non-empty key set");
        let max_len = refs.iter().map(|k| k.len()).max().unwrap_or(0);
        let min_len = refs.iter().map(|k| k.len()).min().unwrap_or(0);
        // A position some key lacks joins to ⊤ (s_j[i] = ⊤).
        let reference: Vec<BytePattern> = (0..max_len)
            .map(|i| {
                let column: Option<Vec<u8>> = refs.iter().map(|k| k.get(i).copied()).collect();
                column
                    .and_then(BytePattern::from_bytes)
                    .unwrap_or(BytePattern::ANY)
            })
            .collect();
        prop_assert_eq!(joined, KeyPattern::with_min_len(reference, min_len));
    }
}
