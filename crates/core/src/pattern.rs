//! Byte-level key patterns: the intermediate representation between format
//! inference (Section 3.1 of the paper) and code generation (Section 3.2).
//!
//! A [`KeyPattern`] records, for every byte position of a key format, which
//! bit pairs are constant and what their constant values are. It is produced
//! either by joining example keys in the quad-semilattice ([`crate::infer`])
//! or by expanding a regular expression ([`crate::regex`]), and it is the
//! sole input of the synthesis pipeline ([`crate::synth`]).

use crate::lattice::{join_masks, quads_of_byte, whole_quads, Quad};
use std::fmt;

/// The constant/variable structure of a single byte position.
///
/// `const_mask` has a bit set for every bit that is constant across all keys;
/// `const_bits` holds the constant values (and is zero on variable bits).
/// Because the lattice works on bit pairs, `const_mask` is always composed of
/// whole two-bit groups (`0b11`, `0b1100`, ...).
///
/// # Examples
///
/// ```
/// use sepe_core::pattern::BytePattern;
///
/// // An ASCII digit: upper nibble constant 0011, lower nibble variable.
/// let digit = BytePattern::from_bytes(b"0123456789".iter().copied()).unwrap();
/// assert_eq!(digit.const_mask(), 0xF0);
/// assert_eq!(digit.const_bits(), 0x30);
/// assert_eq!(digit.variable_mask(), 0x0F);
/// assert!(!digit.is_const());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BytePattern {
    const_mask: u8,
    const_bits: u8,
}

impl BytePattern {
    /// A fully variable byte (all four bit pairs are `⊤`).
    pub const ANY: BytePattern = BytePattern {
        const_mask: 0,
        const_bits: 0,
    };

    /// Creates a pattern for a fully constant byte.
    #[must_use]
    pub fn literal(byte: u8) -> Self {
        BytePattern {
            const_mask: 0xFF,
            const_bits: byte,
        }
    }

    /// Creates a pattern from four lattice quads, most significant first.
    #[must_use]
    pub fn from_quads(quads: [Quad; 4]) -> Self {
        let mut mask = 0u8;
        let mut bits = 0u8;
        for (i, q) in quads.iter().enumerate() {
            let shift = 6 - 2 * i as u8;
            if let Quad::Const(v) = q {
                mask |= 0b11 << shift;
                bits |= v << shift;
            }
        }
        BytePattern {
            const_mask: mask,
            const_bits: bits,
        }
    }

    /// The pattern of a position whose bits are judged one at a time:
    /// `constant` marks the bits that never vary and `ones` holds their
    /// values. Only quads with both bits constant stay constant.
    #[must_use]
    pub(crate) fn from_constant_bits(constant: u8, ones: u8) -> Self {
        let const_mask = whole_quads(constant);
        BytePattern {
            const_mask,
            const_bits: ones & const_mask,
        }
    }

    /// Joins an iterator of example bytes in the quad-semilattice.
    ///
    /// Returns `None` when the iterator is empty (the join of zero keys is
    /// undefined; the paper always starts from at least one example).
    ///
    /// This folds [`Quad::join`] one quad at a time and is the reference
    /// the mask arithmetic of [`BytePattern::join`] and
    /// [`crate::regex::ByteClass::to_byte_pattern`] is tested against.
    pub fn from_bytes<I: IntoIterator<Item = u8>>(bytes: I) -> Option<Self> {
        let mut iter = bytes.into_iter();
        let mut quads = quads_of_byte(iter.next()?);
        for b in iter {
            for (q, o) in quads.iter_mut().zip(quads_of_byte(b)) {
                *q = q.join(o);
            }
        }
        Some(BytePattern::from_quads(quads))
    }

    /// The four lattice quads of this pattern, most significant first.
    #[must_use]
    pub fn quads(self) -> [Quad; 4] {
        let mut out = [Quad::Top; 4];
        for (i, slot) in out.iter_mut().enumerate() {
            let shift = 6 - 2 * i as u8;
            if (self.const_mask >> shift) & 0b11 == 0b11 {
                *slot = Quad::Const((self.const_bits >> shift) & 0b11);
            }
        }
        out
    }

    /// Joins two byte patterns pairwise in the lattice.
    ///
    /// All four quads at once: a quad stays constant where both masks hold
    /// it and the constants agree, and a differing bit makes its whole
    /// quad `⊤`.
    #[must_use]
    pub fn join(self, other: BytePattern) -> BytePattern {
        let (const_mask, const_bits) = join_masks(
            (self.const_mask, self.const_bits),
            (other.const_mask, other.const_bits),
        );
        BytePattern {
            const_mask,
            const_bits,
        }
    }

    /// Joins this pattern with a concrete byte.
    #[must_use]
    pub fn join_byte(self, byte: u8) -> BytePattern {
        self.join(BytePattern::literal(byte))
    }

    /// Mask of bits that are constant across all example keys.
    #[must_use]
    pub fn const_mask(self) -> u8 {
        self.const_mask
    }

    /// The values of the constant bits (zero on variable bits).
    #[must_use]
    pub fn const_bits(self) -> u8 {
        self.const_bits
    }

    /// Mask of bits that vary between keys — exactly the bits a `pext`
    /// extraction keeps (Section 3.2.3).
    #[must_use]
    pub fn variable_mask(self) -> u8 {
        !self.const_mask
    }

    /// Whether every bit of this byte is constant.
    #[must_use]
    pub fn is_const(self) -> bool {
        self.const_mask == 0xFF
    }

    /// Whether every bit of this byte varies.
    #[must_use]
    pub fn is_any(self) -> bool {
        self.const_mask == 0
    }

    /// Whether `byte` is compatible with this pattern (its constant bits
    /// match).
    #[must_use]
    pub fn matches(self, byte: u8) -> bool {
        byte & self.const_mask == self.const_bits
    }

    /// Number of distinct byte values compatible with this pattern.
    #[must_use]
    pub fn cardinality(self) -> u16 {
        1u16 << self.const_mask.count_zeros()
    }

    /// Iterates over every byte value compatible with this pattern, in
    /// ascending order.
    pub fn possible_bytes(self) -> impl Iterator<Item = u8> {
        (0u16..=255)
            .map(|b| b as u8)
            .filter(move |&b| self.matches(b))
    }
}

impl Default for BytePattern {
    fn default() -> Self {
        BytePattern::ANY
    }
}

impl fmt::Display for BytePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for q in self.quads() {
            write!(f, "{q}")?;
        }
        Ok(())
    }
}

/// The inferred or declared format of a whole key.
///
/// `bytes[i]` describes byte position `i`. Positions `min_len..` are present
/// only in the longer keys of a variable-length format; the paper treats the
/// missing bytes of shorter keys as `⊤` quads when *joining*, but remembers
/// the length range so that code generation can dispatch between the
/// fixed-length strategy (Section 3.2.2) and the skip-table strategy
/// (Section 3.2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPattern {
    bytes: Vec<BytePattern>,
    min_len: usize,
}

impl KeyPattern {
    /// Creates a fixed-length pattern from per-byte patterns.
    #[must_use]
    pub fn fixed(bytes: Vec<BytePattern>) -> Self {
        let min_len = bytes.len();
        KeyPattern { bytes, min_len }
    }

    /// Creates a variable-length pattern.
    ///
    /// # Panics
    ///
    /// Panics if `min_len > bytes.len()`.
    #[must_use]
    pub fn with_min_len(bytes: Vec<BytePattern>, min_len: usize) -> Self {
        assert!(
            min_len <= bytes.len(),
            "min_len {min_len} exceeds pattern length {}",
            bytes.len()
        );
        KeyPattern { bytes, min_len }
    }

    /// Per-byte patterns; the slice length is the maximum key length.
    #[must_use]
    pub fn bytes(&self) -> &[BytePattern] {
        &self.bytes
    }

    /// Maximum key length, in bytes.
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.bytes.len()
    }

    /// Minimum key length, in bytes.
    #[must_use]
    pub fn min_len(&self) -> usize {
        self.min_len
    }

    /// Whether every key of this format has the same length — the *length*
    /// constraint of Figure 3, which enables full unrolling.
    #[must_use]
    pub fn is_fixed_len(&self) -> bool {
        self.min_len == self.bytes.len()
    }

    /// Whether this pattern is empty (matches only the empty key).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Total number of variable (`⊤`) bits — the "relevant bits" of the
    /// paper's Section 4.2. A format with at most 64 relevant bits admits a
    /// `pext` bijection.
    #[must_use]
    pub fn variable_bits(&self) -> usize {
        self.bytes
            .iter()
            .map(|b| b.variable_mask().count_ones() as usize)
            .sum()
    }

    /// Whether `key` matches this pattern: its length is within range and
    /// every byte agrees with the constant bits.
    #[must_use]
    pub fn matches(&self, key: &[u8]) -> bool {
        if key.len() < self.min_len || key.len() > self.bytes.len() {
            return false;
        }
        key.iter().zip(&self.bytes).all(|(&b, p)| p.matches(b))
    }

    /// Joins another key into this pattern, extending it if the key is
    /// longer. Mirrors the `k_j[i] = ⊤` convention for missing bytes.
    pub fn join_key(&mut self, key: &[u8]) {
        if key.len() > self.bytes.len() {
            // Positions the pattern has never seen were absent from every
            // previous key, which contributes ⊤ there (s_j[i] = ⊤); joining
            // the new byte with ⊤ stays ⊤.
            self.bytes.resize(key.len(), BytePattern::ANY);
        }
        for (i, slot) in self.bytes.iter_mut().enumerate() {
            match key.get(i) {
                Some(&b) => *slot = slot.join_byte(b),
                // Missing byte: the paper sets s_j[i] = ⊤.
                None => *slot = BytePattern::ANY,
            }
        }
        self.min_len = self.min_len.min(key.len());
    }

    /// Starts a pattern from a single example key.
    #[must_use]
    pub fn of_key(key: &[u8]) -> Self {
        KeyPattern::fixed(key.iter().map(|&b| BytePattern::literal(b)).collect())
    }

    /// Maximal runs of fully constant bytes, as `(start, len)` pairs — the
    /// "constant words" of Section 3.2.1. Only positions below `min_len`
    /// count: bytes that may be absent cannot be skipped unconditionally.
    #[must_use]
    pub fn constant_runs(&self) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < self.min_len {
            if self.bytes[i].is_const() {
                let start = i;
                while i < self.min_len && self.bytes[i].is_const() {
                    i += 1;
                }
                runs.push((start, i - start));
            } else {
                i += 1;
            }
        }
        runs
    }
}

impl fmt::Display for KeyPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.bytes.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            if i == self.min_len {
                write!(f, "| ")?;
            }
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_matches_only_itself() {
        let p = BytePattern::literal(b'x');
        assert!(p.matches(b'x'));
        assert!(!p.matches(b'y'));
        assert!(p.is_const());
        assert_eq!(p.cardinality(), 1);
        assert_eq!(p.possible_bytes().collect::<Vec<_>>(), vec![b'x']);
    }

    #[test]
    fn any_matches_everything() {
        assert_eq!(BytePattern::ANY.cardinality(), 256);
        for b in 0..=255u8 {
            assert!(BytePattern::ANY.matches(b));
        }
    }

    #[test]
    fn digits_share_the_upper_nibble() {
        let p = BytePattern::from_bytes(b"0123456789".iter().copied()).unwrap();
        assert_eq!(p.const_mask(), 0xF0);
        assert_eq!(p.const_bits(), 0x30);
        // The pattern over-approximates: 0x3A..0x3F also match. This is the
        // deliberate compromise of Section 3.1 (the expression must accept
        // keys outside the example set).
        assert_eq!(p.cardinality(), 16);
        assert!(p.matches(b';'));
    }

    #[test]
    fn upper_and_lower_letters_share_one_pair() {
        // Example 3.5: mixing cases leaves only the leading 01 pair constant.
        let p = BytePattern::from_bytes([b'J', b'a']).unwrap();
        assert_eq!(p.const_mask() & 0xC0, 0xC0);
        assert_eq!(p.const_bits() & 0xC0, 0x40);
        assert!(p.const_mask() < 0xFF);
    }

    #[test]
    fn join_is_monotone_in_cardinality() {
        let digit = BytePattern::from_bytes(b"09".iter().copied()).unwrap();
        let joined = digit.join_byte(b'a');
        assert!(joined.cardinality() >= digit.cardinality());
        assert!(joined.matches(b'a'));
        assert!(joined.matches(b'0'));
    }

    #[test]
    fn quads_round_trip() {
        for mask_pairs in 0..16u8 {
            // Build a pattern with an arbitrary selection of constant pairs.
            let mut quads = [Quad::Top; 4];
            for (i, q) in quads.iter_mut().enumerate() {
                if mask_pairs & (1 << i) != 0 {
                    *q = Quad::new((i as u8) & 0b11);
                }
            }
            let p = BytePattern::from_quads(quads);
            assert_eq!(p.quads(), quads);
        }
    }

    #[test]
    fn key_pattern_joins_examples() {
        let mut p = KeyPattern::of_key(b"000.000.000.000");
        p.join_key(b"555.555.555.555");
        assert_eq!(p.max_len(), 15);
        assert!(p.is_fixed_len());
        assert!(p.matches(b"123.456.789.012"));
        assert!(!p.matches(b"123.456.789.01"));
        // Dots are constant.
        assert!(p.bytes()[3].is_const());
        assert!(p.bytes()[7].is_const());
        assert!(p.bytes()[11].is_const());
        // Digits are not.
        assert!(!p.bytes()[0].is_const());
    }

    #[test]
    fn variable_length_join_marks_missing_bytes_top() {
        // IATA (3 letters) joined with ICAO (4 letters), Example 3.4.
        let mut p = KeyPattern::of_key(b"JFK");
        p.join_key(b"LAX");
        p.join_key(b"RJTT");
        assert_eq!(p.min_len(), 3);
        assert_eq!(p.max_len(), 4);
        assert!(!p.is_fixed_len());
        // Keys built from byte values the examples exercised.
        assert!(p.matches(b"KAX"));
        assert!(p.matches(b"JFKT"));
        assert!(!p.matches(b"TOOLONG"));
    }

    #[test]
    fn constant_runs_found() {
        let mut p = KeyPattern::of_key(b"https://x.com/000");
        p.join_key(b"https://x.com/999");
        let runs = p.constant_runs();
        assert_eq!(runs, vec![(0, 14)]);
    }

    #[test]
    fn variable_bits_of_ssn_fit_a_pext_bijection() {
        // SSN digits: 9 digits x 4 variable bits = 36 relevant bits <= 64.
        let mut p = KeyPattern::of_key(b"000-00-0000");
        p.join_key(b"555-55-5555");
        assert_eq!(p.variable_bits(), 9 * 4);
    }
}
