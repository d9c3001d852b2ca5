//! JSON serialization for patterns and plans, with no external
//! dependencies.
//!
//! Synthesized plans are cheap to recompute but caching them to disk (and
//! shipping them between processes) keeps cold starts off the profile and
//! makes plans reviewable in code review. The encoding matches what
//! serde's derive would produce so cached files stay readable:
//!
//! * [`KeyPattern`] — `{"bytes":[{"const_mask":240,"const_bits":48},…],"min_len":11}`
//! * [`Plan`] — externally tagged enum, e.g.
//!   `{"FixedWords":{"len":11,"ops":[{"offset":0,"mask":…,"shift":0},…]}}`,
//!   with the unit variant as the bare string `"StlFallback"`.
//!
//! The JSON itself — value type, strict parser, canonical printer — is
//! the workspace's one codec, [`sepe_obs::json`]; this module holds only
//! the pattern, plan and bundle encoders on top of it. The codec rejects
//! duplicate keys, non-JSON numbers and non-canonical decimal strings, so
//! a 64-bit mask or checksum has exactly one accepted spelling.
//!
//! Plans cross a trust boundary when they come back from disk: the batched
//! kernels and the emitted C++ perform raw loads at the plan's offsets, so
//! deserialization is hardened. Bundles carry a schema version
//! ([`BUNDLE_VERSION`]) and an FNV-1a checksum of the payload, and every
//! decoded plan passes [`validate_plan`] / [`validate_bundle`] — load
//! bounds, family/plan agreement, and mask-vs-constant-bit consistency —
//! before a caller can hash a single key with it.

use crate::hash::SynthError;
use crate::pattern::{BytePattern, KeyPattern};
use crate::synth::{Family, Plan, WordOp};
use sepe_obs::json::{Json, ParseError};

/// Schema version stamped into every serialized [`SynthBundle`].
///
/// Version 2 added the version stamp itself plus a payload checksum;
/// version-1 bundles (no stamp) are rejected rather than guessed at,
/// because a plan that reaches the unchecked batch kernels must have
/// passed the validation this version introduces.
pub const BUNDLE_VERSION: u64 = 2;

impl From<ParseError> for SynthError {
    fn from(e: ParseError) -> Self {
        SynthError::MalformedPlan {
            at: e.at,
            message: e.message,
        }
    }
}

fn shape_err(message: impl Into<String>) -> ParseError {
    ParseError {
        at: 0,
        message: message.into(),
    }
}

fn num(n: usize) -> Json {
    Json::Num(n as f64)
}

fn obj(entries: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Encodes a [`KeyPattern`] as a JSON value.
#[must_use]
pub fn key_pattern_to_json(pattern: &KeyPattern) -> Json {
    let bytes = pattern
        .bytes()
        .iter()
        .map(|b| {
            obj([
                ("const_mask", num(usize::from(b.const_mask()))),
                ("const_bits", num(usize::from(b.const_bits()))),
            ])
        })
        .collect();
    obj([
        ("bytes", Json::Arr(bytes)),
        ("min_len", num(pattern.min_len())),
    ])
}

/// Decodes a [`KeyPattern`] from a JSON value.
///
/// # Errors
///
/// Returns a shape error when required members are missing or malformed.
pub fn key_pattern_from_json(json: &Json) -> Result<KeyPattern, ParseError> {
    let bytes = json
        .get("bytes")
        .as_arr()
        .ok_or_else(|| shape_err("KeyPattern: missing 'bytes' array"))?;
    let mut out = Vec::with_capacity(bytes.len());
    for b in bytes {
        let mask = b
            .get("const_mask")
            .as_u64()
            .ok_or_else(|| shape_err("BytePattern: missing 'const_mask'"))?;
        let bits = b
            .get("const_bits")
            .as_u64()
            .ok_or_else(|| shape_err("BytePattern: missing 'const_bits'"))?;
        if mask > 0xFF || bits > 0xFF {
            return Err(shape_err("BytePattern: byte out of range"));
        }
        out.push(byte_pattern_from_parts(mask as u8, bits as u8)?);
    }
    let min_len = json
        .get("min_len")
        .as_u64()
        .ok_or_else(|| shape_err("KeyPattern: missing 'min_len'"))? as usize;
    if min_len > out.len() {
        return Err(shape_err("KeyPattern: min_len exceeds byte count"));
    }
    Ok(KeyPattern::with_min_len(out, min_len))
}

/// Rebuilds a [`BytePattern`] from its mask/bits representation, validating
/// the lattice invariants (whole two-bit groups; no constant bits outside
/// the mask).
fn byte_pattern_from_parts(const_mask: u8, const_bits: u8) -> Result<BytePattern, ParseError> {
    if const_bits & !const_mask != 0 {
        return Err(shape_err("BytePattern: const_bits outside const_mask"));
    }
    let mut quads = [crate::lattice::Quad::Top; 4];
    for (i, q) in quads.iter_mut().enumerate() {
        let shift = 6 - 2 * i as u8;
        match (const_mask >> shift) & 0b11 {
            0b11 => *q = crate::lattice::Quad::Const((const_bits >> shift) & 0b11),
            0b00 => {}
            _ => return Err(shape_err("BytePattern: const_mask not pair-aligned")),
        }
    }
    let rebuilt = BytePattern::from_quads(quads);
    if rebuilt.const_mask() != const_mask || rebuilt.const_bits() != const_bits {
        return Err(shape_err("BytePattern: inconsistent mask/bits"));
    }
    Ok(rebuilt)
}

fn word_op_to_json(op: &WordOp) -> Json {
    obj([
        ("offset", num(op.offset as usize)),
        // 64-bit masks exceed f64's exact integer range; keep them as
        // decimal strings so round-trips are lossless.
        ("mask", Json::Str(op.mask.to_string())),
        ("shift", num(usize::from(op.shift))),
    ])
}

fn word_op_from_json(json: &Json) -> Result<WordOp, ParseError> {
    let offset = json
        .get("offset")
        .as_u64()
        .ok_or_else(|| shape_err("WordOp: missing 'offset'"))?;
    let mask = json
        .get("mask")
        .as_u64()
        .ok_or_else(|| shape_err("WordOp: missing 'mask'"))?;
    let shift = json
        .get("shift")
        .as_u64()
        .ok_or_else(|| shape_err("WordOp: missing 'shift'"))?;
    if offset > u64::from(u32::MAX) || shift > 63 {
        return Err(shape_err("WordOp: field out of range"));
    }
    Ok(WordOp {
        offset: offset as u32,
        mask,
        shift: shift as u8,
    })
}

fn word_ops_to_json(ops: &[WordOp]) -> Json {
    Json::Arr(ops.iter().map(word_op_to_json).collect())
}

fn word_ops_from_json(json: &Json) -> Result<Vec<WordOp>, ParseError> {
    json.as_arr()
        .ok_or_else(|| shape_err("Plan: 'ops' is not an array"))?
        .iter()
        .map(word_op_from_json)
        .collect()
}

fn offsets_to_json(offsets: &[u32]) -> Json {
    Json::Arr(offsets.iter().map(|&o| num(o as usize)).collect())
}

fn offsets_from_json(json: &Json) -> Result<Vec<u32>, ParseError> {
    json.as_arr()
        .ok_or_else(|| shape_err("Plan: 'offsets' is not an array"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .filter(|&o| o <= u64::from(u32::MAX))
                .map(|o| o as u32)
                .ok_or_else(|| shape_err("Plan: bad offset"))
        })
        .collect()
}

/// Encodes a [`Plan`] as a JSON value (externally tagged, like serde).
#[must_use]
pub fn plan_to_json(plan: &Plan) -> Json {
    match plan {
        Plan::FixedWords { len, ops } => obj([(
            "FixedWords",
            obj([("len", num(*len)), ("ops", word_ops_to_json(ops))]),
        )]),
        Plan::FixedBlocks { len, offsets } => obj([(
            "FixedBlocks",
            obj([("len", num(*len)), ("offsets", offsets_to_json(offsets))]),
        )]),
        Plan::VarWords {
            min_len,
            ops,
            tail_start,
        } => obj([(
            "VarWords",
            obj([
                ("min_len", num(*min_len)),
                ("ops", word_ops_to_json(ops)),
                ("tail_start", num(*tail_start)),
            ]),
        )]),
        Plan::VarBlocks {
            min_len,
            offsets,
            tail_start,
        } => obj([(
            "VarBlocks",
            obj([
                ("min_len", num(*min_len)),
                ("offsets", offsets_to_json(offsets)),
                ("tail_start", num(*tail_start)),
            ]),
        )]),
        Plan::StlFallback => Json::Str("StlFallback".to_string()),
    }
}

/// Decodes a [`Plan`] from a JSON value and validates it (see
/// [`validate_plan`]).
///
/// # Errors
///
/// Returns [`SynthError::MalformedPlan`] for unknown variants or malformed
/// members, and the validation errors of [`validate_plan`] for a
/// well-formed plan that would read past its own keys.
pub fn plan_from_json(json: &Json) -> Result<Plan, SynthError> {
    let plan = plan_shape_from_json(json)?;
    validate_plan(&plan)?;
    Ok(plan)
}

/// Syntactic decode only — shared by [`plan_from_json`] and the bundle
/// decoder, which validates the plan against its pattern afterwards.
fn plan_shape_from_json(json: &Json) -> Result<Plan, ParseError> {
    if json.as_str() == Some("StlFallback") {
        return Ok(Plan::StlFallback);
    }
    let Json::Obj(map) = json else {
        return Err(shape_err("Plan: expected an object or 'StlFallback'"));
    };
    if map.len() != 1 {
        return Err(shape_err("Plan: expected exactly one variant tag"));
    }
    let (tag, body) = map.iter().next().unwrap();
    let usize_member = |name: &str| -> Result<usize, ParseError> {
        body.get(name)
            .as_u64()
            .map(|v| v as usize)
            .ok_or_else(|| shape_err(format!("Plan::{tag}: missing '{name}'")))
    };
    match tag.as_str() {
        "FixedWords" => Ok(Plan::FixedWords {
            len: usize_member("len")?,
            ops: word_ops_from_json(body.get("ops"))?,
        }),
        "FixedBlocks" => Ok(Plan::FixedBlocks {
            len: usize_member("len")?,
            offsets: offsets_from_json(body.get("offsets"))?,
        }),
        "VarWords" => Ok(Plan::VarWords {
            min_len: usize_member("min_len")?,
            ops: word_ops_from_json(body.get("ops"))?,
            tail_start: usize_member("tail_start")?,
        }),
        "VarBlocks" => Ok(Plan::VarBlocks {
            min_len: usize_member("min_len")?,
            offsets: offsets_from_json(body.get("offsets"))?,
            tail_start: usize_member("tail_start")?,
        }),
        other => Err(shape_err(format!("Plan: unknown variant '{other}'"))),
    }
}

/// Encodes a plan to a JSON string.
#[must_use]
pub fn plan_to_string(plan: &Plan) -> String {
    plan_to_json(plan).to_string()
}

/// Decodes a plan from a JSON string and validates it.
///
/// # Errors
///
/// Returns a typed [`SynthError`] for malformed or semantically invalid
/// input.
pub fn plan_from_str(text: &str) -> Result<Plan, SynthError> {
    plan_from_json(&Json::parse(text)?)
}

/// Checks a plan's internal load-bounds invariants: every word load stays
/// within the fixed length (or the guaranteed minimum length, for
/// variable-length plans), every block load likewise, and tail loops start
/// within the guaranteed prefix. The one sanctioned exception is the RQ7
/// force-synthesized sub-word plan — a single zero-padded load at offset 0
/// of a fixed format shorter than a word.
///
/// The interpreted [`crate::hash::SynthesizedHash`] clamps loads and the
/// batched kernels length-check keys before their unchecked loads, so an
/// invalid plan cannot corrupt memory *here* — but the emitted C++ performs
/// the loads verbatim, so a plan that fails this check must never be
/// accepted from disk.
///
/// # Errors
///
/// [`SynthError::PlanLoadOutOfBounds`] for an overreaching load;
/// [`SynthError::PlanPatternMismatch`] for an inconsistent tail start.
pub fn validate_plan(plan: &Plan) -> Result<(), SynthError> {
    let oob = |offset: u32, width: u32, key_len: usize| SynthError::PlanLoadOutOfBounds {
        offset,
        width,
        key_len,
    };
    let bad_tail = |detail: &str| SynthError::PlanPatternMismatch {
        detail: detail.to_string(),
    };
    match plan {
        Plan::FixedWords { len, ops } => {
            let sub_word = *len < 8 && ops.len() == 1 && ops[0].offset == 0;
            if !sub_word {
                for op in ops {
                    if op.offset as usize + 8 > *len {
                        return Err(oob(op.offset, 8, *len));
                    }
                }
            }
        }
        Plan::VarWords {
            min_len,
            ops,
            tail_start,
        } => {
            if *min_len < 8 {
                if let Some(op) = ops.first() {
                    return Err(oob(op.offset, 8, *min_len));
                }
                if *tail_start != 0 {
                    return Err(bad_tail("sub-word VarWords must start its tail at 0"));
                }
            } else {
                for op in ops {
                    if op.offset as usize + 8 > *min_len {
                        return Err(oob(op.offset, 8, *min_len));
                    }
                }
                if *tail_start > *min_len {
                    return Err(bad_tail("tail_start past the guaranteed prefix"));
                }
            }
        }
        Plan::FixedBlocks { len, offsets } => {
            for &offset in offsets {
                if offset as usize + 16 > *len {
                    return Err(oob(offset, 16, *len));
                }
            }
        }
        Plan::VarBlocks {
            min_len,
            offsets,
            tail_start,
        } => {
            for &offset in offsets {
                if offset as usize + 16 > *min_len {
                    return Err(oob(offset, 16, *min_len));
                }
            }
            if *tail_start > *min_len {
                return Err(bad_tail("tail_start past the guaranteed prefix"));
            }
        }
        Plan::StlFallback => {}
    }
    Ok(())
}

/// Encodes a key pattern to a JSON string.
#[must_use]
pub fn key_pattern_to_string(pattern: &KeyPattern) -> String {
    key_pattern_to_json(pattern).to_string()
}

/// Decodes a key pattern from a JSON string.
///
/// # Errors
///
/// Returns a parse or shape error for malformed input.
pub fn key_pattern_from_str(text: &str) -> Result<KeyPattern, ParseError> {
    key_pattern_from_json(&Json::parse(text)?)
}

/// Everything one synthesis run produces: the inferred pattern, the family
/// chosen, and the plan — enough to reconstruct both the specialized hash
/// and its [`crate::guard::FormatGuard`] in another process.
///
/// This is the payload `keysynth --emit-plan` writes and `keysynth --plan`
/// reads back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthBundle {
    /// The key format the plan was synthesized for.
    pub pattern: KeyPattern,
    /// The hash family of the plan.
    pub family: Family,
    /// The synthesized plan itself.
    pub plan: Plan,
}

/// 64-bit FNV-1a over the canonical payload encoding. Not cryptographic —
/// it catches truncation, bit rot and hand-edits, not a deliberate forger
/// (who could regenerate it; the semantic validation is what stops a
/// hostile plan).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checksummed portion of a bundle: everything except the version and
/// the checksum itself, in the deterministic [`Json`] object encoding.
fn bundle_payload_to_json(bundle: &SynthBundle) -> Json {
    obj([
        ("pattern", key_pattern_to_json(&bundle.pattern)),
        ("family", Json::Str(bundle.family.name().to_string())),
        ("plan", plan_to_json(&bundle.plan)),
    ])
}

/// Encodes a [`SynthBundle`] as a JSON value, stamped with
/// [`BUNDLE_VERSION`] and an FNV-1a checksum of the payload (as a decimal
/// string, like the 64-bit masks).
#[must_use]
pub fn bundle_to_json(bundle: &SynthBundle) -> Json {
    let payload = bundle_payload_to_json(bundle);
    let checksum = fnv1a64(payload.to_string().as_bytes());
    let Json::Obj(mut map) = payload else {
        unreachable!("bundle payload is always an object")
    };
    map.insert("version".to_string(), num(BUNDLE_VERSION as usize));
    map.insert("checksum".to_string(), Json::Str(checksum.to_string()));
    Json::Obj(map)
}

/// Decodes a [`SynthBundle`] from a JSON value, enforcing the trust
/// boundary in order: schema version, payload checksum, shape, then
/// semantic validation ([`validate_plan`] + [`validate_bundle`]) — so no
/// corrupted or hostile plan survives to hash a single key.
///
/// # Errors
///
/// [`SynthError::PlanVersion`] / [`SynthError::PlanChecksum`] for a stale
/// or damaged envelope, [`SynthError::MalformedPlan`] for shape problems,
/// and the validation errors for a plan inconsistent with its pattern.
pub fn bundle_from_json(json: &Json) -> Result<SynthBundle, SynthError> {
    let Json::Obj(map) = json else {
        return Err(shape_err("SynthBundle: expected an object").into());
    };
    match map.get("version").and_then(Json::as_u64) {
        None => return Err(shape_err("SynthBundle: missing 'version'").into()),
        Some(v) if v != BUNDLE_VERSION => {
            return Err(SynthError::PlanVersion {
                found: v,
                supported: BUNDLE_VERSION,
            })
        }
        Some(_) => {}
    }
    let stored = map
        .get("checksum")
        .and_then(Json::as_u64)
        .ok_or_else(|| SynthError::from(shape_err("SynthBundle: missing 'checksum'")))?;
    let mut payload = map.clone();
    payload.remove("version");
    payload.remove("checksum");
    let computed = fnv1a64(Json::Obj(payload).to_string().as_bytes());
    if stored != computed {
        return Err(SynthError::PlanChecksum { stored, computed });
    }
    let pattern = key_pattern_from_json(json.get("pattern"))
        .map_err(|e| SynthError::from(shape_err(format!("SynthBundle: {}", e.message))))?;
    let family_name = json
        .get("family")
        .as_str()
        .ok_or_else(|| SynthError::from(shape_err("SynthBundle: missing 'family'")))?;
    let family = Family::ALL
        .into_iter()
        .find(|f| f.name() == family_name)
        .ok_or_else(|| {
            SynthError::from(shape_err(format!(
                "SynthBundle: unknown family '{family_name}'"
            )))
        })?;
    let plan = plan_from_json(json.get("plan"))?;
    let bundle = SynthBundle {
        pattern,
        family,
        plan,
    };
    validate_bundle(&bundle)?;
    Ok(bundle)
}

/// Checks that a bundle's plan could have been synthesized for its pattern
/// and family: plan kind matches the family (blocks for Aes, words
/// otherwise), lengths agree with the pattern, pext masks select only
/// variable bits, and non-pext word loads use the identity mask.
///
/// # Errors
///
/// [`SynthError::PlanPatternMismatch`] or [`SynthError::PlanMaskConstBits`],
/// plus everything [`validate_plan`] rejects.
pub fn validate_bundle(bundle: &SynthBundle) -> Result<(), SynthError> {
    validate_plan(&bundle.plan)?;
    let mismatch = |detail: &str| SynthError::PlanPatternMismatch {
        detail: detail.to_string(),
    };
    let pattern = &bundle.pattern;
    match (bundle.family, &bundle.plan) {
        (_, Plan::StlFallback) => return Ok(()),
        (Family::Aes, Plan::FixedBlocks { .. } | Plan::VarBlocks { .. }) => {}
        (
            Family::Naive | Family::OffXor | Family::Pext,
            Plan::FixedWords { .. } | Plan::VarWords { .. },
        ) => {}
        _ => return Err(mismatch("plan kind does not belong to the declared family")),
    }
    match &bundle.plan {
        Plan::FixedWords { len, .. } | Plan::FixedBlocks { len, .. } => {
            if !pattern.is_fixed_len() || *len != pattern.max_len() {
                return Err(mismatch(
                    "fixed-length plan disagrees with the pattern's length",
                ));
            }
        }
        Plan::VarWords { min_len, .. } | Plan::VarBlocks { min_len, .. } => {
            if pattern.is_fixed_len() || *min_len != pattern.min_len() {
                return Err(mismatch(
                    "variable-length plan disagrees with the pattern's minimum length",
                ));
            }
        }
        Plan::StlFallback => unreachable!("handled above"),
    }
    if let Plan::FixedWords { len: region, ops }
    | Plan::VarWords {
        min_len: region,
        ops,
        ..
    } = &bundle.plan
    {
        for op in ops {
            if bundle.family == Family::Pext {
                let mut variable = 0u64;
                for i in 0..8 {
                    let pos = op.offset as usize + i;
                    if pos < *region {
                        variable |= u64::from(pattern.bytes()[pos].variable_mask()) << (8 * i);
                    }
                }
                if op.mask & !variable != 0 {
                    return Err(SynthError::PlanMaskConstBits);
                }
            } else if op.mask != u64::MAX {
                return Err(SynthError::PlanMaskConstBits);
            }
        }
    }
    Ok(())
}

/// Encodes a synthesis bundle to a JSON string.
#[must_use]
pub fn bundle_to_string(bundle: &SynthBundle) -> String {
    bundle_to_json(bundle).to_string()
}

/// Decodes a synthesis bundle from a JSON string, enforcing version,
/// checksum and semantic validation (see [`bundle_from_json`]).
///
/// # Errors
///
/// Returns a typed [`SynthError`] for malformed, stale, damaged or
/// semantically invalid input.
pub fn bundle_from_str(text: &str) -> Result<SynthBundle, SynthError> {
    bundle_from_json(&Json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_round_trip_exactly() {
        let op = WordOp {
            offset: 3,
            mask: u64::MAX - 1,
            shift: 52,
        };
        let back = word_op_from_json(&word_op_to_json(&op)).unwrap();
        assert_eq!(back, op);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        assert!(plan_from_str(r#"{"NoSuchPlan":{}}"#).is_err());
        assert!(plan_from_str(r#"{"FixedWords":{"len":4}}"#).is_err());
        assert!(plan_from_str(r#"{"FixedWords":{"len":4,"ops":[]},"Extra":1}"#).is_err());
        // shift out of range
        assert!(plan_from_str(
            r#"{"FixedWords":{"len":8,"ops":[{"offset":0,"mask":"1","shift":64}]}}"#
        )
        .is_err());
    }

    #[test]
    fn out_of_bounds_loads_are_rejected_with_a_typed_error() {
        // A load at offset 8 of an 11-byte key reads bytes 8..16 — three
        // bytes past the end. The synthesizer clamps to offset 3; a plan
        // that didn't was corrupted or forged.
        let got = plan_from_str(
            r#"{"FixedWords":{"len":11,"ops":[{"offset":8,"mask":"18446744073709551615","shift":0}]}}"#,
        );
        assert_eq!(
            got,
            Err(SynthError::PlanLoadOutOfBounds {
                offset: 8,
                width: 8,
                key_len: 11
            })
        );
        // Sub-word RQ7 plans stay accepted: one zero-padded load at 0.
        assert!(plan_from_str(
            r#"{"FixedWords":{"len":4,"ops":[{"offset":0,"mask":"255","shift":0}]}}"#
        )
        .is_ok());
        // Block loads are bounded the same way.
        assert!(matches!(
            plan_from_str(r#"{"FixedBlocks":{"len":20,"offsets":[8]}}"#),
            Err(SynthError::PlanLoadOutOfBounds { width: 16, .. })
        ));
        // Variable-length loads must fit the guaranteed minimum.
        assert!(matches!(
            plan_from_str(
                r#"{"VarWords":{"min_len":9,"ops":[{"offset":2,"mask":"18446744073709551615","shift":0}],"tail_start":9}}"#
            ),
            Err(SynthError::PlanLoadOutOfBounds { offset: 2, .. })
        ));
    }

    #[test]
    fn bundle_envelope_is_versioned_and_checksummed() {
        let pattern = crate::regex::Regex::compile(r"\d{3}-\d{2}-\d{4}").unwrap();
        let bundle = SynthBundle {
            plan: crate::synth::synthesize(&pattern, Family::Pext),
            pattern,
            family: Family::Pext,
        };
        let text = bundle_to_string(&bundle);
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("version").as_u64(), Some(BUNDLE_VERSION));
        assert!(parsed.get("checksum").as_u64().is_some());

        // Wrong version: typed rejection naming both versions.
        let stale = text.replacen(r#""version":2"#, r#""version":1"#, 1);
        assert_eq!(
            bundle_from_str(&stale),
            Err(SynthError::PlanVersion {
                found: 1,
                supported: BUNDLE_VERSION
            })
        );
        // Missing version (a v1 file): shape rejection, not a guess.
        let unversioned = text.replacen(r#","version":2"#, "", 1);
        assert!(matches!(
            bundle_from_str(&unversioned),
            Err(SynthError::MalformedPlan { .. })
        ));
        // Payload edited without refreshing the checksum.
        let tampered = text.replacen(r#""min_len":11"#, r#""min_len":10"#, 1);
        assert!(matches!(
            bundle_from_str(&tampered),
            Err(SynthError::PlanChecksum { .. })
        ));
    }

    #[test]
    fn semantic_validation_rejects_plans_that_do_not_fit_their_pattern() {
        let pattern = crate::regex::Regex::compile(r"\d{3}-\d{2}-\d{4}").unwrap();
        let good = SynthBundle {
            plan: crate::synth::synthesize(&pattern, Family::Pext),
            pattern: pattern.clone(),
            family: Family::Pext,
        };
        assert_eq!(validate_bundle(&good), Ok(()));

        // A block plan under a word family.
        let wrong_kind = SynthBundle {
            plan: crate::synth::synthesize(&pattern, Family::Aes),
            pattern: pattern.clone(),
            family: Family::OffXor,
        };
        assert!(matches!(
            validate_bundle(&wrong_kind),
            Err(SynthError::PlanPatternMismatch { .. })
        ));

        // A pext mask that selects bits the pattern marks constant (the
        // dashes of an SSN are constant bytes).
        let mut bad_mask = good.clone();
        if let Plan::FixedWords { ops, .. } = &mut bad_mask.plan {
            ops[0].mask |= 0xFF00_0000; // byte 3 is the first '-'
        }
        assert_eq!(
            validate_bundle(&bad_mask),
            Err(SynthError::PlanMaskConstBits)
        );

        // A non-pext word load with a partial mask.
        let mut partial = SynthBundle {
            plan: crate::synth::synthesize(&pattern, Family::OffXor),
            pattern: pattern.clone(),
            family: Family::OffXor,
        };
        if let Plan::FixedWords { ops, .. } = &mut partial.plan {
            ops[0].mask = 0x00FF_FFFF_FFFF_FFFF;
        }
        assert_eq!(
            validate_bundle(&partial),
            Err(SynthError::PlanMaskConstBits)
        );

        // A length that disagrees with the pattern (12, so the loads still
        // fit and the mismatch — not an OOB load — is what's reported).
        let mut long = good;
        if let Plan::FixedWords { len, .. } = &mut long.plan {
            *len = 12;
        }
        assert!(matches!(
            validate_bundle(&long),
            Err(SynthError::PlanPatternMismatch { .. })
        ));
    }

    #[test]
    fn bad_byte_patterns_are_rejected() {
        // Constant bit outside the mask.
        assert!(byte_pattern_from_parts(0x00, 0x01).is_err());
        // Mask not aligned to two-bit lattice groups.
        assert!(byte_pattern_from_parts(0x01, 0x00).is_err());
        // Valid digit byte.
        let p = byte_pattern_from_parts(0xF0, 0x30).unwrap();
        assert_eq!(p.variable_mask(), 0x0F);
    }

    #[test]
    fn bundles_round_trip_for_every_family() {
        let pattern = crate::regex::Regex::compile(r"\d{3}-\d{2}-\d{4}").unwrap();
        for family in Family::ALL {
            let bundle = SynthBundle {
                plan: crate::synth::synthesize(&pattern, family),
                pattern: pattern.clone(),
                family,
            };
            let back = bundle_from_str(&bundle_to_string(&bundle)).unwrap();
            assert_eq!(back, bundle, "{family}");
        }
    }

    #[test]
    fn malformed_bundles_are_rejected() {
        assert!(bundle_from_str("not json").is_err());
        assert!(bundle_from_str(r#"{"pattern":{"bytes":[],"min_len":0}}"#).is_err());
        assert!(bundle_from_str(
            r#"{"pattern":{"bytes":[],"min_len":0},"family":"Md5","plan":"StlFallback"}"#
        )
        .is_err());
    }
}
