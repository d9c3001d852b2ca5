//! Paper-derived structural invariants on synthesized plans.
//!
//! These checks do not compare two implementations — they compare a plan
//! against properties the paper promises:
//!
//! * **coverage** (Sections 3.2.1–3.2.2): Naive loads every byte, OffXor and
//!   Pext load every byte with a variable bit, the AES family covers every
//!   variable byte with a block; variable-length plans may defer bytes to
//!   the tail loop instead;
//! * **extraction discipline** (Section 3.2.3, Figure 12): Pext masks select
//!   exactly the variable bits, each exactly once across loads;
//! * **bijectivity** (Section 4.2: "Pext always generates a bijection for
//!   key types that have equal or less than 64 relevant bits") — checked
//!   *constructively* by [`invert_pext`]: the hash code is inverted back
//!   into the key through the reference `pdep` loop;
//! * **lattice soundness**: the pattern inferred from a key set matches
//!   every key that produced it.

use crate::interp;
use sepe_core::bits::pdep_reference;
use sepe_core::infer::infer_pattern;
use sepe_core::pattern::KeyPattern;
use sepe_core::synth::{Family, Plan, WordOp, OVERLAP_ROTATION};

/// Checks the structural invariants of `plan` against the pattern it was
/// synthesized from, returning one message per violation (empty = sound).
#[must_use]
pub fn plan_violations(pattern: &KeyPattern, family: Family, plan: &Plan) -> Vec<String> {
    let mut out = Vec::new();
    match plan {
        Plan::StlFallback => {
            if pattern.max_len() >= 8 {
                out.push(format!(
                    "fallback plan for a {}-byte format (synthesis refused a synthesizable format)",
                    pattern.max_len()
                ));
            }
        }
        Plan::FixedWords { len, ops } => {
            if *len != pattern.max_len() {
                out.push(format!(
                    "plan len {len} != pattern len {}",
                    pattern.max_len()
                ));
            }
            check_word_ops(pattern, family, ops, *len, None, &mut out);
        }
        Plan::VarWords {
            min_len,
            ops,
            tail_start,
        } => {
            if *min_len != pattern.min_len() {
                out.push(format!(
                    "plan min_len {min_len} != pattern min_len {}",
                    pattern.min_len()
                ));
            }
            check_word_ops(pattern, family, ops, *min_len, Some(*tail_start), &mut out);
        }
        Plan::FixedBlocks { len, offsets } => {
            check_block_offsets(pattern, offsets, *len, None, &mut out);
        }
        Plan::VarBlocks {
            min_len,
            offsets,
            tail_start,
        } => {
            check_block_offsets(pattern, offsets, *min_len, Some(*tail_start), &mut out);
        }
    }
    out
}

fn check_word_ops(
    pattern: &KeyPattern,
    family: Family,
    ops: &[WordOp],
    region_len: usize,
    tail_start: Option<usize>,
    out: &mut Vec<String>,
) {
    // Coverage: which bytes must some load (or the tail loop) read?
    for pos in 0..region_len {
        let needed = match family {
            Family::Naive => true,
            _ => !pattern.bytes()[pos].is_const(),
        };
        if !needed {
            continue;
        }
        let in_ops = ops.iter().any(|op| {
            let o = op.offset as usize;
            pos >= o && pos < o + 8
        });
        let in_tail = tail_start.is_some_and(|t| pos >= t);
        if !in_ops && !in_tail {
            out.push(format!("{family}: byte {pos} is variable but never loaded"));
        }
    }

    // Loads must advance; at most the final (clamped) load may re-read
    // earlier bytes.
    let mut covered_until = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let o = op.offset as usize;
        let overlaps = o < covered_until;
        if overlaps && i != ops.len() - 1 {
            out.push(format!(
                "{family}: non-final load {i} at {o} overlaps earlier coverage"
            ));
        }
        match family {
            Family::Pext => check_pext_op(pattern, op, covered_until, region_len, out),
            _ => {
                if op.mask != u64::MAX {
                    out.push(format!("{family}: load {i} has a non-identity mask"));
                }
                let expected = if overlaps { OVERLAP_ROTATION } else { 0 };
                if op.shift != expected {
                    out.push(format!(
                        "{family}: load {i} rotation {} (expected {expected})",
                        op.shift
                    ));
                }
            }
        }
        covered_until = covered_until.max(o + 8);
    }

    if family == Family::Pext {
        check_pext_extraction_once(pattern, ops, region_len, out);
        // Section 4.2: at most 64 relevant bits => the plan guarantees a
        // bijection (fixed-length formats only).
        if tail_start.is_none() {
            let var_bits: u32 = (0..region_len)
                .map(|i| pattern.bytes()[i].variable_mask().count_ones())
                .sum();
            if var_bits <= 64 {
                let plan = Plan::FixedWords {
                    len: region_len,
                    ops: ops.to_vec(),
                };
                if plan.bijection_bits() != Some(var_bits) {
                    out.push(format!(
                        "Pext: {var_bits} variable bits fit in 64 but the plan is not a bijection"
                    ));
                }
            }
        }
    }
}

/// One Pext load: the mask must select exactly the variable bits of the
/// bytes this load is responsible for (those not covered earlier), and
/// nothing outside the region.
fn check_pext_op(
    pattern: &KeyPattern,
    op: &WordOp,
    covered_until: usize,
    region_len: usize,
    out: &mut Vec<String>,
) {
    for i in 0..8 {
        let pos = op.offset as usize + i;
        let lane = ((op.mask >> (8 * i)) & 0xFF) as u8;
        let expected = if pos >= covered_until && pos < region_len {
            pattern.bytes()[pos].variable_mask()
        } else {
            0
        };
        if lane != expected {
            out.push(format!(
                "Pext: load at {} lane {i} mask {lane:#04x} != variable mask {expected:#04x}",
                op.offset
            ));
        }
    }
}

/// Across all loads, every variable bit of the region is extracted exactly
/// once (Figure 12's `mk1` zeroes the overlap with `mk0`).
fn check_pext_extraction_once(
    pattern: &KeyPattern,
    ops: &[WordOp],
    region_len: usize,
    out: &mut Vec<String>,
) {
    let mut seen = vec![0u8; region_len];
    for op in ops {
        for i in 0..8 {
            let pos = op.offset as usize + i;
            let lane = ((op.mask >> (8 * i)) & 0xFF) as u8;
            if pos >= region_len {
                continue;
            }
            if seen[pos] & lane != 0 {
                out.push(format!(
                    "Pext: byte {pos} bits {:#04x} extracted twice",
                    seen[pos] & lane
                ));
            }
            seen[pos] |= lane;
        }
    }
    for (pos, &got) in seen.iter().enumerate().take(region_len) {
        let var = pattern.bytes()[pos].variable_mask();
        if got != var {
            out.push(format!(
                "Pext: byte {pos} extracted bits {got:#04x} != variable bits {var:#04x}"
            ));
        }
    }
}

fn check_block_offsets(
    pattern: &KeyPattern,
    offsets: &[u32],
    region_len: usize,
    tail_start: Option<usize>,
    out: &mut Vec<String>,
) {
    if offsets.is_empty() && tail_start.is_none() && region_len >= 16 {
        out.push(format!("Aes: {region_len}-byte region with no block loads"));
        return;
    }
    for pos in 0..region_len {
        if pattern.bytes()[pos].is_const() {
            continue;
        }
        let in_blocks = offsets.iter().any(|&o| {
            let o = o as usize;
            pos >= o && pos < o + 16
        });
        // Replicated short keys (no offsets, fixed length) cover everything.
        let replicated = offsets.is_empty() && tail_start.is_none();
        let in_tail = tail_start.is_some_and(|t| pos >= t);
        if !in_blocks && !in_tail && !replicated {
            out.push(format!("Aes: variable byte {pos} is in no block"));
        }
    }
    if offsets.windows(2).any(|w| w[0] >= w[1]) {
        out.push("Aes: block offsets are not strictly increasing".to_owned());
    }
}

/// Inverts a fixed-length Pext hash code back into its key.
///
/// Only valid when [`Plan::bijection_bits`] is `Some` (disjoint extraction
/// fields): each field is unpacked with the reference `pdep` loop and
/// scattered back over the pattern's constant bits. `code` must be the
/// seedless hash (seed 0). Returns `None` when the plan offers no bijection.
#[must_use]
pub fn invert_pext(plan: &Plan, pattern: &KeyPattern, code: u64) -> Option<Vec<u8>> {
    let Plan::FixedWords { len, ops } = plan else {
        return None;
    };
    plan.bijection_bits()?;
    let mut key: Vec<u8> = (0..*len).map(|i| pattern.bytes()[i].const_bits()).collect();
    for op in ops {
        let bits = op.mask.count_ones();
        if bits == 0 {
            continue;
        }
        let ones = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let w = pdep_reference((code >> op.shift) & ones, op.mask);
        for i in 0..8 {
            let pos = op.offset as usize + i;
            if pos < *len {
                key[pos] |= ((w >> (8 * i)) & 0xFF) as u8;
            }
        }
    }
    Some(key)
}

/// Round-trips every key through hash-then-invert; the recovered bytes must
/// equal the original (the constructive form of the Section 4.2 bijection).
///
/// # Errors
///
/// Returns the first key whose inversion does not reproduce it.
pub fn check_pext_roundtrip(
    pattern: &KeyPattern,
    plan: &Plan,
    keys: &[Vec<u8>],
) -> Result<(), String> {
    for key in keys {
        let code = interp::interpret(plan, Family::Pext, 0, key);
        let recovered = invert_pext(plan, pattern, code)
            .ok_or_else(|| "plan offers no bijection to invert".to_owned())?;
        if &recovered != key {
            return Err(format!(
                "inversion of {code:#018x} gave {recovered:?}, expected {key:?}"
            ));
        }
    }
    Ok(())
}

/// Distinct keys must produce distinct (seedless) interpreter hashes.
///
/// # Errors
///
/// Returns the first colliding pair found.
pub fn check_sampled_injectivity(
    plan: &Plan,
    family: Family,
    keys: &[Vec<u8>],
) -> Result<(), String> {
    let mut seen: std::collections::BTreeMap<u64, &Vec<u8>> = std::collections::BTreeMap::new();
    for key in keys {
        let code = interp::interpret(plan, family, 0, key);
        match seen.get(&code) {
            Some(&other) if other != key => {
                return Err(format!(
                    "{family}: {other:?} and {key:?} both hash to {code:#018x}"
                ));
            }
            _ => {
                seen.insert(code, key);
            }
        }
    }
    Ok(())
}

/// The lattice join is sound: the pattern inferred from a key set matches
/// every key that fed it, and its length bounds are tight enough to admit
/// them.
///
/// # Errors
///
/// Returns a description of the first unsound join found.
pub fn check_lattice_soundness(keys: &[Vec<u8>]) -> Result<(), String> {
    let pattern = infer_pattern(keys.iter().map(Vec::as_slice))
        .map_err(|_| "no keys to infer from".to_owned())?;
    for key in keys {
        if key.len() < pattern.min_len() || key.len() > pattern.max_len() {
            return Err(format!(
                "inferred bounds [{}, {}] exclude key of length {}",
                pattern.min_len(),
                pattern.max_len(),
                key.len()
            ));
        }
        if !pattern.matches(key) {
            return Err(format!("inferred pattern rejects its own example {key:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_core::regex::Regex;
    use sepe_core::synth::synthesize;

    fn pattern(re: &str) -> KeyPattern {
        Regex::compile(re).expect("test regex compiles")
    }

    #[test]
    fn evaluated_shapes_satisfy_the_invariants() {
        for re in [
            r"\d{3}-\d{2}-\d{4}",
            r"(([0-9]{3})\.){3}[0-9]{3}",
            r"[0-9]{100}",
            r"[0-9]{16}([a-z]{4})?",
        ] {
            let p = pattern(re);
            for family in Family::ALL {
                let plan = synthesize(&p, family);
                let violations = plan_violations(&p, family, &plan);
                assert!(violations.is_empty(), "{re} {family}: {violations:?}");
            }
        }
    }

    #[test]
    fn ssn_pext_inverts_exactly() {
        let p = pattern(r"\d{3}-\d{2}-\d{4}");
        let plan = synthesize(&p, Family::Pext);
        let keys: Vec<Vec<u8>> = (0..500u32)
            .map(|i| format!("{:03}-{:02}-{:04}", i % 999, i % 97, i).into_bytes())
            .collect();
        check_pext_roundtrip(&p, &plan, &keys).expect("bijective");
    }

    #[test]
    fn a_corrupted_mask_is_caught() {
        let p = pattern(r"\d{3}-\d{2}-\d{4}");
        let Plan::FixedWords { len, mut ops } = synthesize(&p, Family::Pext) else {
            panic!("fixed plan");
        };
        ops[0].mask ^= 1 << 8; // claim a dash bit is variable
        let bad = Plan::FixedWords { len, ops };
        assert!(!plan_violations(&p, Family::Pext, &bad).is_empty());
    }

    #[test]
    fn rotation_argument_applies_to_the_small_formats() {
        for re in [r"\d{3}-\d{2}-\d{4}", r"(([0-9]{3})\.){3}[0-9]{3}"] {
            let p = pattern(re);
            for family in [Family::Naive, Family::OffXor] {
                let plan = synthesize(&p, family);
                assert!(plan.injective_over(family, &p), "{re} {family}");
            }
        }
        // Two disjoint loads offer no such guarantee ("16 digits" keys can
        // swap their halves).
        let p = pattern(r"[0-9]{16}");
        let plan = synthesize(&p, Family::Naive);
        assert!(!plan.injective_over(Family::Naive, &p));
    }
}
