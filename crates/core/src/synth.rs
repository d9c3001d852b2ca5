//! The code-generation back end of SEPE (Section 3.2 of the paper).
//!
//! Synthesis turns a [`KeyPattern`] into a [`Plan`]: the exact sequence of
//! word loads, extraction masks and shifts that the emitted hash function
//! performs. The same plan drives both
//!
//! * the runtime-executable hash functions of [`crate::hash`], and
//! * the C++/Rust source emitters of [`crate::codegen`].
//!
//! Mirroring Figure 7 of the paper, synthesis proceeds as:
//!
//! 1. `parseRanges` — split the pattern into constant words and variable
//!    segments ([`KeyPattern::constant_runs`]);
//! 2. `ignoreConstantSubsequences` — choose the word loads, skipping
//!    constant words and overlapping the final load of each segment
//!    (Sections 3.2.1–3.2.2);
//! 3. `calculateMasks` / `removeConstBits` — compute a `pext` mask and a
//!    packing shift per load (Section 3.2.3);
//! 4. `unrollSequences` — fixed-length formats become straight-line plans;
//!    variable-length formats keep a skip-table prefix plus a word/byte tail
//!    loop (Figure 8).

use crate::pattern::KeyPattern;

/// The four synthesized hash families of the paper, in increasing order of
/// exploited constraints (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Xor of *all* key bytes, eight at a time, fully unrolled for
    /// fixed-length keys. Exploits only the length constraint.
    Naive,
    /// Like [`Family::Naive`] but loads only words containing variable
    /// bytes: constant subsequences are skipped (Section 3.2.1).
    OffXor,
    /// Like [`Family::OffXor`] but combines 16-byte blocks with an AES
    /// encode round instead of xor; slower, better distribution.
    Aes,
    /// Like [`Family::OffXor`] but additionally removes constant *bits*
    /// with parallel bit extraction and repacks the survivors across the
    /// 64-bit range (Section 3.2.3).
    Pext,
}

impl Family {
    /// All four families, in the paper's order.
    pub const ALL: [Family; 4] = [Family::Naive, Family::OffXor, Family::Aes, Family::Pext];

    /// The family name as used in the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Naive => "Naive",
            Family::OffXor => "OffXor",
            Family::Aes => "Aes",
            Family::Pext => "Pext",
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One eight-byte load plus its bit-extraction mask and packing shift.
///
/// For the Naive and OffXor families `mask` is all-ones and `shift` is a
/// *left-rotation* applied to the loaded word before xor-ing it in. It is
/// zero on every load except a clamped final load (one that re-reads bytes
/// an earlier load covered), which is rotated by [`OVERLAP_ROTATION`] to
/// break nibble alignment with the loads it overlaps — without the
/// rotation, every pair of positions read by two loads into the same
/// result lane forms an xor-cancellation kernel: two keys differing by the
/// same nibble flip at both positions collide, which is where the seed's
/// spurious Naive/OffXor T-Coll on small-space formats came from.
///
/// For Pext, `mask` selects the variable bits (excluding bytes already
/// covered by earlier loads, exactly as the `mk1` mask of Figure 12 does)
/// and `shift` packs the extracted bits towards the top of the 64-bit
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordOp {
    /// Byte offset of the load within the key.
    pub offset: u32,
    /// `pext` mask applied to the loaded word.
    pub mask: u64,
    /// Left shift applied to the extracted bits (Pext), or left rotation
    /// applied to the loaded word (Naive/OffXor).
    pub shift: u8,
}

/// Left rotation applied to a clamped Naive/OffXor load.
///
/// Half a byte: on byte formats whose per-byte variance lives in one nibble
/// (digits, lowercase hex), the rotation aligns the variable nibbles of the
/// overlapping load with the *constant* nibbles of the loads under it, so
/// no in-format key difference can cancel across the overlap. A whole-byte
/// rotation would merely re-pair the cancellation kernels.
pub const OVERLAP_ROTATION: u8 = 4;

/// The shape of a synthesized hash function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// Fixed-length key, word-combining families (Naive, OffXor, Pext):
    /// a fully unrolled sequence of loads (Section 3.2.2, Figure 10/12).
    FixedWords {
        /// The fixed key length.
        len: usize,
        /// The unrolled loads.
        ops: Vec<WordOp>,
    },
    /// Fixed-length key, AES family: a sequence of 16-byte block loads.
    FixedBlocks {
        /// The fixed key length.
        len: usize,
        /// Block offsets. Empty means "replicate the whole (short) key
        /// into one block".
        offsets: Vec<u32>,
    },
    /// Variable-length key, word-combining families: a skip-table prefix
    /// over the mandatory region plus a word-then-byte tail loop
    /// (Section 3.2.1, Figure 8).
    VarWords {
        /// Length of the mandatory prefix all keys share.
        min_len: usize,
        /// Unrolled loads over the mandatory prefix.
        ops: Vec<WordOp>,
        /// First byte position the tail loop starts at.
        tail_start: usize,
    },
    /// Variable-length key, AES family.
    VarBlocks {
        /// Length of the mandatory prefix all keys share.
        min_len: usize,
        /// Block offsets over the mandatory prefix.
        offsets: Vec<u32>,
        /// First byte position the tail loop starts at.
        tail_start: usize,
    },
    /// Keys shorter than eight bytes: SEPE "defaults to the standard STL
    /// function" (footnote 5 of the paper).
    StlFallback,
}

impl Plan {
    /// Whether this plan fell back to the general-purpose STL hash.
    #[must_use]
    pub fn is_fallback(&self) -> bool {
        matches!(self, Plan::StlFallback)
    }

    /// When this is a fixed-length Pext plan whose extraction fields land
    /// in pairwise-disjoint bit ranges, the hash is a *bijection* from
    /// format keys to `total_bits`-bit integers (Section 4.2: "Pext always
    /// generates a bijection for key types that have equal or less than 64
    /// relevant bits"). Returns the number of significant bits, or `None`
    /// when the plan offers no bijection guarantee.
    #[must_use]
    pub fn bijection_bits(&self) -> Option<u32> {
        let Plan::FixedWords { ops, .. } = self else {
            return None;
        };
        if ops.is_empty() {
            return Some(0);
        }
        // Field i occupies bits [shift_i, shift_i + popcount(mask_i)).
        // Overlapping bytes are already excluded from later masks, so
        // distinct keys differ in at least one extracted field; disjoint
        // placement then keeps them distinct in the combined word.
        let mut fields: Vec<(u32, u32)> = ops
            .iter()
            .map(|op| (u32::from(op.shift), op.mask.count_ones()))
            .collect();
        fields.sort_unstable();
        let mut end = 0u32;
        for (start, bits) in fields {
            if start < end || start + bits > 64 {
                return None;
            }
            end = start + bits;
        }
        let total: u32 = ops.iter().map(|op| op.mask.count_ones()).sum();
        Some(total)
    }

    /// Whether this plan, evaluated as `family`, maps distinct keys of
    /// `pattern` to distinct hashes, so that on keys of the format a hash
    /// match is a key match.
    ///
    /// True only for a [`Plan::FixedWords`] plan over a fixed-length
    /// `pattern` of the plan's length, whose loads read every variable bit
    /// of `pattern`, and then for one of two reasons:
    ///
    /// * **Pext** with pairwise-disjoint fields
    ///   ([`Plan::bijection_bits`]): a key difference survives in the field
    ///   of every load that extracts it.
    /// * **Naive/OffXor** under the clamped-load rotation argument: one
    ///   load, or two of which the second carries [`OVERLAP_ROTATION`],
    ///   over a pattern whose variable bits all sit in low nibbles. The
    ///   unrotated load's key differences then live in low nibbles and the
    ///   rotated load's in high nibbles, so no difference cancels.
    ///
    /// Aes, variable-length and [`Plan::StlFallback`] plans are never
    /// judged injective. The hash seed is xored in after the combine, so
    /// seeded hashes keep the property.
    ///
    /// # Examples
    ///
    /// ```
    /// use sepe_core::regex::Regex;
    /// use sepe_core::synth::{synthesize, Family};
    ///
    /// let ssn = Regex::compile(r"\d{3}-\d{2}-\d{4}")?;
    /// for family in [Family::Naive, Family::OffXor, Family::Pext] {
    ///     assert!(synthesize(&ssn, family).injective_over(family, &ssn));
    /// }
    /// assert!(!synthesize(&ssn, Family::Aes).injective_over(Family::Aes, &ssn));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn injective_over(&self, family: Family, pattern: &KeyPattern) -> bool {
        let Plan::FixedWords { len, ops } = self else {
            return false;
        };
        if !pattern.is_fixed_len() || pattern.max_len() != *len {
            return false;
        }
        let variable = |i: usize| pattern.bytes()[i].variable_mask();
        // The bits of byte `i` that `op` reads into the hash.
        let read = |op: &WordOp, i: usize| -> u8 {
            let lane = i.wrapping_sub(op.offset as usize);
            match (lane < 8, family) {
                (false, _) => 0,
                (true, Family::Pext) => (op.mask >> (8 * lane)) as u8,
                (true, _) => 0xFF,
            }
        };
        let covered = (0..*len).all(|i| {
            let read = ops.iter().fold(0u8, |acc, op| acc | read(op, i));
            variable(i) & !read == 0
        });
        covered
            && match family {
                Family::Pext => self.bijection_bits().is_some(),
                Family::Naive | Family::OffXor => {
                    let nibble_confined = (0..*len).all(|i| variable(i) & 0xF0 == 0);
                    let rotation_shape = match ops.as_slice() {
                        [] | [_] => true,
                        [a, b] => a.shift == 0 && b.shift == OVERLAP_ROTATION,
                        _ => false,
                    };
                    nibble_confined && rotation_shape
                }
                Family::Aes => false,
            }
    }

    /// The word operations of the plan, if it is a word plan.
    #[must_use]
    pub fn word_ops(&self) -> Option<&[WordOp]> {
        match self {
            Plan::FixedWords { ops, .. } | Plan::VarWords { ops, .. } => Some(ops),
            _ => None,
        }
    }
}

/// Synthesizes a plan of the given family for a key format.
///
/// This is the `synthesize(key)` entry point of Figure 7. Formats whose
/// maximum length is below eight bytes yield [`Plan::StlFallback`].
///
/// # Examples
///
/// The SSN plan of Figure 12 — two overlapping loads with nibble masks:
///
/// ```
/// use sepe_core::regex::Regex;
/// use sepe_core::synth::{synthesize, Family, Plan};
///
/// let ssn = Regex::compile(r"\d{3}\.\d{2}\.\d{4}")?;
/// let plan = synthesize(&ssn, Family::Pext);
/// let Plan::FixedWords { len, ops } = plan else { panic!("fixed plan") };
/// assert_eq!(len, 11);
/// assert_eq!(ops.len(), 2);
/// assert_eq!(ops[0].offset, 0);
/// assert_eq!(ops[0].mask, 0x0F00_0F0F_000F_0F0F);
/// assert_eq!(ops[1].offset, 3);
/// assert_eq!(ops[1].mask, 0x0F0F_0F00_0000_0000);
/// assert_eq!(ops[1].shift, 64 - 12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn synthesize(pattern: &KeyPattern, family: Family) -> Plan {
    if pattern.max_len() < 8 {
        return Plan::StlFallback;
    }
    synthesize_unchecked(pattern, family)
}

/// [`synthesize`] that also returns the [`SearchStats`] of the run — the
/// entry point `sepe-verify`'s synthesis suite bounds the work counters of.
#[must_use]
pub fn synthesize_with_stats(pattern: &KeyPattern, family: Family) -> (Plan, SearchStats) {
    let mut stats = SearchStats::default();
    if pattern.max_len() < 8 {
        return (Plan::StlFallback, stats);
    }
    let plan = synthesize_impl(pattern, family, &mut stats);
    (plan, stats)
}

/// Work counters of one synthesis run. Both are pure functions of the
/// pattern and family, and both grow linearly with the pattern length.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Byte positions the target scan expanded (one per candidate
    /// position examined, across every synthesis loop).
    pub nodes_expanded: u64,
    /// Target bytes the greedy cover skipped because an earlier load
    /// already covered them.
    pub candidates_rejected: u64,
}

/// Synthesizes a plan *without* the eight-byte minimum-length guard.
///
/// SEPE normally refuses formats shorter than a machine word (footnote 5
/// of the paper); the RQ7 worst-case experiment force-synthesizes a Pext
/// hash for four-digit keys anyway. Loads past the end of a key read as
/// zero, so the resulting plan is safe — merely low-quality, which is the
/// point of that experiment.
#[must_use]
pub fn synthesize_unchecked(pattern: &KeyPattern, family: Family) -> Plan {
    synthesize_impl(pattern, family, &mut SearchStats::default())
}

fn synthesize_impl(pattern: &KeyPattern, family: Family, stats: &mut SearchStats) -> Plan {
    match family {
        Family::Aes => synthesize_blocks(pattern, stats),
        Family::Naive | Family::OffXor | Family::Pext => synthesize_words(pattern, family, stats),
    }
}

/// Greedy word cover: repeatedly place a `width`-byte load over the first
/// uncovered byte we care about, clamping the final load so it never reads
/// past `region_len` (this produces the overlapping loads of Section 3.2.2:
/// "the last load of a non-constant sequence of n bits always starts at
/// position n − 8").
///
/// The cover uses the fewest loads possible: every cover needs some load
/// over the first uncovered target, and no such load reaches further right
/// than the one placed here, so whatever the rest of the cover must still
/// reach is never more than what remains after the greedy load (the
/// classic interval point-cover argument, DESIGN §17).
fn cover_with_loads(
    targets: &[usize],
    region_len: usize,
    width: usize,
    stats: &mut SearchStats,
) -> Vec<u32> {
    debug_assert!(region_len >= width);
    let mut loads = Vec::new();
    let mut covered_until = 0usize; // everything below this is covered
    for &t in targets {
        if t < covered_until {
            stats.candidates_rejected += 1;
            continue;
        }
        let offset = t.min(region_len - width);
        loads.push(offset as u32);
        covered_until = offset + width;
    }
    loads
}

fn synthesize_words(pattern: &KeyPattern, family: Family, stats: &mut SearchStats) -> Plan {
    let min_len = pattern.min_len();
    let fixed = pattern.is_fixed_len();
    // The region word loads may cover. For variable-length formats, loads
    // are placed within the mandatory prefix only; if that prefix is shorter
    // than a word, everything goes through the tail loop.
    let region_len = if fixed { pattern.max_len() } else { min_len };

    let mut targets: Vec<usize> = Vec::new();
    for i in 0..region_len {
        stats.nodes_expanded += 1;
        match family {
            // Naive ignores the const constraint: every byte is a target.
            Family::Naive => targets.push(i),
            // OffXor/Pext: only bytes with at least one variable bit.
            _ => {
                if !pattern.bytes()[i].is_const() {
                    targets.push(i);
                }
            }
        }
    }

    let (offsets, tail_start) = if region_len >= 8 {
        let offsets = cover_with_loads(&targets, region_len, 8, stats);
        let tail = offsets
            .last()
            .map_or(0, |&o| o as usize + 8)
            .max(region_len.min(min_len));
        (offsets, tail)
    } else if fixed && !targets.is_empty() {
        // Force-synthesized sub-word format (synthesize_unchecked): one
        // zero-padded load covers the whole key.
        (vec![0u32], region_len)
    } else {
        (Vec::new(), 0)
    };

    // Masks: Pext keeps only variable bits of bytes not already covered by
    // an earlier load (Figure 12's mk1 zeroes the overlap). Other families
    // use the identity mask and rotate clamped (overlapping) loads by a
    // half byte so the overlap cannot cancel against the earlier load.
    let mut ops = Vec::with_capacity(offsets.len());
    let mut covered_until = 0usize;
    for &offset in &offsets {
        let offset_us = offset as usize;
        let overlaps = offset_us < covered_until;
        let (mask, shift) = if family == Family::Pext {
            let mut m = 0u64;
            for i in 0..8 {
                let pos = offset_us + i;
                if pos >= covered_until && pos < region_len {
                    m |= u64::from(pattern.bytes()[pos].variable_mask()) << (8 * i);
                }
            }
            (m, 0)
        } else {
            (u64::MAX, if overlaps { OVERLAP_ROTATION } else { 0 })
        };
        covered_until = covered_until.max(offset_us + 8);
        ops.push(WordOp {
            offset,
            mask,
            shift,
        });
    }

    if family == Family::Pext {
        assign_shifts(&mut ops);
    }

    if fixed {
        Plan::FixedWords {
            len: pattern.max_len(),
            ops,
        }
    } else {
        Plan::VarWords {
            min_len,
            ops,
            tail_start,
        }
    }
}

/// Packs extracted bits: the first load stays at the bottom of the range,
/// later loads stack downward from bit 63 ("shift significant bits as far to
/// the left as possible", Figure 12 step 3). When the variable bits total at
/// most 64 this makes the extraction a bijection.
fn assign_shifts(ops: &mut [WordOp]) {
    let mut used_from_top = 0u32;
    for op in ops.iter_mut().skip(1) {
        let bits = op.mask.count_ones();
        used_from_top += bits;
        op.shift = 64u32.saturating_sub(used_from_top).min(63) as u8;
    }
}

fn synthesize_blocks(pattern: &KeyPattern, stats: &mut SearchStats) -> Plan {
    let min_len = pattern.min_len();
    let fixed = pattern.is_fixed_len();
    let region_len = if fixed { pattern.max_len() } else { min_len };

    if region_len < 16 {
        // Keys shorter than one AES block: the key is replicated to fill a
        // block (the paper: "Aes requires two 16 byte values; thus, we
        // replicate the key").
        return if fixed {
            Plan::FixedBlocks {
                len: pattern.max_len(),
                offsets: Vec::new(),
            }
        } else {
            Plan::VarBlocks {
                min_len,
                offsets: Vec::new(),
                tail_start: 0,
            }
        };
    }

    let mut targets: Vec<usize> = Vec::new();
    for i in 0..region_len {
        stats.nodes_expanded += 1;
        if !pattern.bytes()[i].is_const() {
            targets.push(i);
        }
    }
    let offsets = cover_with_loads(&targets, region_len, 16, stats);
    let tail_start = offsets
        .last()
        .map_or(0, |&o| o as usize + 16)
        .max(min_len.min(region_len));

    if fixed {
        Plan::FixedBlocks {
            len: pattern.max_len(),
            offsets,
        }
    } else {
        Plan::VarBlocks {
            min_len,
            offsets,
            tail_start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer_pattern;
    use crate::regex::Regex;

    fn pattern(re: &str) -> KeyPattern {
        Regex::compile(re).expect("test regex compiles")
    }

    #[test]
    fn short_keys_fall_back_to_stl() {
        let p = pattern(r"\d{4}");
        for f in Family::ALL {
            assert!(synthesize(&p, f).is_fallback());
        }
    }

    #[test]
    fn ssn_offxor_matches_figure_5() {
        // Figure 5: OffXor for a 15-byte IPv4 loads at 0 and 7.
        let p = pattern(r"(([0-9]{3})\.){3}[0-9]{3}");
        let Plan::FixedWords { len, ops } = synthesize(&p, Family::OffXor) else {
            panic!("expected fixed plan");
        };
        assert_eq!(len, 15);
        assert_eq!(ops.iter().map(|o| o.offset).collect::<Vec<_>>(), vec![0, 7]);
        assert!(ops.iter().all(|o| o.mask == u64::MAX));
        // The final load is clamped to 15 - 8 = 7 and re-reads byte 7, so
        // it carries the anti-cancellation rotation; the first does not.
        assert_eq!(ops[0].shift, 0);
        assert_eq!(ops[1].shift, OVERLAP_ROTATION);
    }

    #[test]
    fn only_clamped_loads_are_rotated() {
        // 16 digits tile exactly: no clamp, no rotation anywhere.
        let p = pattern(r"[0-9]{16}");
        let Plan::FixedWords { ops, .. } = synthesize(&p, Family::Naive) else {
            panic!("expected fixed plan");
        };
        assert_eq!(ops.iter().map(|o| o.offset).collect::<Vec<_>>(), vec![0, 8]);
        assert!(ops.iter().all(|o| o.shift == 0));
        // 20 digits clamp the final load to 12 (overlapping 12..16).
        let p = pattern(r"[0-9]{20}");
        let Plan::FixedWords { ops, .. } = synthesize(&p, Family::Naive) else {
            panic!("expected fixed plan");
        };
        assert_eq!(
            ops.iter().map(|o| o.shift).collect::<Vec<_>>(),
            vec![0, 0, OVERLAP_ROTATION]
        );
    }

    #[test]
    fn naive_covers_every_byte() {
        let p = pattern(r"[0-9]{20}");
        let Plan::FixedWords { ops, .. } = synthesize(&p, Family::Naive) else {
            panic!("expected fixed plan");
        };
        assert_eq!(
            ops.iter().map(|o| o.offset).collect::<Vec<_>>(),
            vec![0, 8, 12]
        );
    }

    #[test]
    fn offxor_skips_long_constant_prefix() {
        // 23 constant bytes, then 20 variable, then constant ".html".
        let p = infer_pattern([
            &b"https://siteexample.us/aaaaaaaaaaaaaaaaaaaa.html"[..],
            b"https://siteexample.us/z9z9z9z9z9z9z9z9z9z9.html",
        ])
        .unwrap();
        let Plan::FixedWords { ops, .. } = synthesize(&p, Family::OffXor) else {
            panic!("expected fixed plan");
        };
        assert_eq!(
            ops.iter().map(|o| o.offset).collect::<Vec<_>>(),
            vec![23, 31, 39]
        );
    }

    #[test]
    fn pext_masks_exclude_constant_bytes_and_overlap() {
        let p = pattern(r"\d{3}\.\d{2}\.\d{4}"); // SSN with dots
        let Plan::FixedWords { ops, .. } = synthesize(&p, Family::Pext) else {
            panic!("expected fixed plan");
        };
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].mask, 0x0F00_0F0F_000F_0F0F, "Figure 12 mk0");
        assert_eq!(ops[1].mask, 0x0F0F_0F00_0000_0000, "Figure 12 mk1");
        assert_eq!(ops[0].shift, 0);
        assert_eq!(ops[1].shift, 52, "Figure 12 shifts by 64 - 12");
    }

    #[test]
    fn pext_bijection_bit_budget() {
        // 16 digits = 64 variable bits: masks must cover exactly 64 bits.
        let p = pattern(r"[0-9]{16}");
        let Plan::FixedWords { ops, .. } = synthesize(&p, Family::Pext) else {
            panic!("expected fixed plan");
        };
        let total: u32 = ops.iter().map(|o| o.mask.count_ones()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn aes_blocks_cover_variable_region() {
        let p = pattern(r"[0-9]{40}");
        let Plan::FixedBlocks { len, offsets } = synthesize(&p, Family::Aes) else {
            panic!("expected block plan");
        };
        assert_eq!(len, 40);
        assert_eq!(offsets, vec![0, 16, 24]);
    }

    #[test]
    fn aes_short_key_replicates() {
        let p = pattern(r"\d{3}-\d{2}-\d{4}"); // 11 bytes
        let Plan::FixedBlocks { offsets, .. } = synthesize(&p, Family::Aes) else {
            panic!("expected block plan");
        };
        assert!(offsets.is_empty());
    }

    #[test]
    fn variable_length_yields_var_plan() {
        let p = infer_pattern([
            &b"prefix=0000000000"[..],
            b"prefix=9999999999......tail-bytes",
        ])
        .unwrap();
        let plan = synthesize(&p, Family::OffXor);
        let Plan::VarWords {
            min_len,
            ops,
            tail_start,
        } = plan
        else {
            panic!("expected var plan, got {plan:?}");
        };
        assert_eq!(min_len, 17);
        assert!(!ops.is_empty());
        assert!(tail_start >= min_len.min(ops.last().unwrap().offset as usize + 8));
    }

    #[test]
    fn no_variable_bytes_yields_empty_ops() {
        // A fully constant format: nothing to load for OffXor/Pext.
        let p = KeyPattern::of_key(b"always-the-same!");
        let Plan::FixedWords { ops, .. } = synthesize(&p, Family::OffXor) else {
            panic!("expected fixed plan");
        };
        assert!(ops.is_empty());
    }

    #[test]
    fn synthesis_with_stats_agrees_with_plain_synthesis() {
        for re in [
            r"\d{3}-\d{2}-\d{4}",
            r"(([0-9]{3})\.){3}[0-9]{3}",
            r"[a-z]{8}[0-9]{0,4}",
            r"[0-9]{100}",
            r"\d{4}",
        ] {
            let p = pattern(re);
            for f in Family::ALL {
                assert_eq!(
                    synthesize_with_stats(&p, f).0,
                    synthesize(&p, f),
                    "{re} {f}"
                );
            }
        }
    }

    #[test]
    fn ints_100_digits_pext_plan_is_linear_cover() {
        let p = pattern(r"[0-9]{100}");
        let Plan::FixedWords { ops, .. } = synthesize(&p, Family::Pext) else {
            panic!("expected fixed plan");
        };
        // ceil(100 / 8) = 13 loads, last overlapping at 92.
        assert_eq!(ops.len(), 13);
        assert_eq!(ops.last().unwrap().offset, 92);
        // 400 variable bits total (the paper's "key-types with 400 relevant
        // bits").
        let total: u32 = ops.iter().map(|o| o.mask.count_ones()).sum();
        assert_eq!(total, 400);
    }
}
