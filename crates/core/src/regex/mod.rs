//! The regular-expression front end of SEPE.
//!
//! Users can drive synthesis with a regular expression describing their key
//! format instead of example keys (Figure 5 of the paper,
//! `make_hash_from_regex.sh "(([0-9]{3})\.){3}[0-9]{3}"`). The supported
//! subset is the one the paper's key formats need: literals, escapes,
//! character classes, `\d`/`\w`-style shorthands, `.`, grouping, bounded
//! repetition `{n}` / `{n,m}`, and a trailing `?` for optional suffix bytes.
//! Unbounded repetition (`*`, `+`) and alternation (`|`) are rejected with a
//! descriptive error: they do not pin byte positions, so there is nothing to
//! specialize on.
//!
//! A parsed expression *expands* into one [`ByteClass`] per byte position
//! ([`Regex::expand`]), which converts into the [`KeyPattern`] consumed by
//! the synthesizer. The inverse direction — rendering a pattern back into a
//! regex string — lives in [`render`] and backs the `keybuilder` tool.

mod parser;
pub mod render;

pub use parser::{parse, ParseRegexError};

use crate::pattern::{BytePattern, KeyPattern};
use std::fmt;

/// Upper bound on the expanded length of a regular expression, guarding
/// against `[0-9]{999999999}`-style blowups.
pub const MAX_EXPANDED_LEN: usize = 1 << 20;

/// `IN_WORD_PLANES[j]` marks the bytes with bit `j` set within one word
/// of [`ByteClass`]'s layout (byte `b` is bit `b % 64` of word `b / 64`).
/// Bits 6 and 7 pick the word instead.
const IN_WORD_PLANES: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A set of byte values, the exact (non-lattice) description of one byte
/// position of a key format.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteClass {
    bits: [u64; 4],
}

impl ByteClass {
    /// The empty class.
    pub const EMPTY: ByteClass = ByteClass { bits: [0; 4] };

    /// The class containing every byte.
    pub const ANY: ByteClass = ByteClass {
        bits: [u64::MAX; 4],
    };

    /// The class containing a single byte.
    #[must_use]
    pub fn literal(byte: u8) -> Self {
        let mut c = ByteClass::EMPTY;
        c.insert(byte);
        c
    }

    /// The class containing an inclusive range of bytes.
    #[must_use]
    pub fn range(lo: u8, hi: u8) -> Self {
        let mut c = ByteClass::EMPTY;
        for b in lo..=hi {
            c.insert(b);
        }
        c
    }

    /// Inserts a byte into the class.
    pub fn insert(&mut self, byte: u8) {
        self.bits[(byte >> 6) as usize] |= 1u64 << (byte & 63);
    }

    /// Whether the class contains `byte`.
    #[must_use]
    pub fn contains(&self, byte: u8) -> bool {
        self.bits[(byte >> 6) as usize] >> (byte & 63) & 1 == 1
    }

    /// The union of two classes.
    #[must_use]
    pub fn union(&self, other: &ByteClass) -> ByteClass {
        let mut bits = self.bits;
        for (b, o) in bits.iter_mut().zip(other.bits.iter()) {
            *b |= o;
        }
        ByteClass { bits }
    }

    /// The complement of the class (every byte not in it) — the semantics
    /// of a negated class `[^…]`.
    #[must_use]
    pub fn complement(&self) -> ByteClass {
        let mut bits = self.bits;
        for b in &mut bits {
            *b = !*b;
        }
        ByteClass { bits }
    }

    /// Number of bytes in the class.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the class is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits == [0; 4]
    }

    /// Iterates over the members of the class in ascending order, one set
    /// bit at a time.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.bits.iter().zip(0u8..).flat_map(|(&word, w)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as u8;
                rest &= rest - 1;
                Some(w << 6 | bit)
            })
        })
    }

    /// The single member, if the class is a singleton.
    #[must_use]
    pub fn as_literal(&self) -> Option<u8> {
        if self.len() == 1 {
            self.iter().next()
        } else {
            None
        }
    }

    /// Joins every member in the quad-semilattice, giving the (possibly
    /// over-approximating) [`BytePattern`] of this position.
    ///
    /// Computed from the bit set in O(1), not member by member: bit `j` is
    /// constant when the class has no member with bit `j` set, or none
    /// with it clear. For bits 0–5 that is one AND of the OR of the four
    /// words against bit `j`'s plane and one against its complement; bits
    /// 6 and 7 pick words, so they test which words are non-zero. A quad
    /// is constant when both of its bits are. The join of the members
    /// ([`BytePattern::from_bytes`]) is the reference.
    ///
    /// Returns [`BytePattern::ANY`] for the empty class, which never arises
    /// from a successfully parsed expression.
    #[must_use]
    pub fn to_byte_pattern(&self) -> BytePattern {
        if self.is_empty() {
            return BytePattern::ANY;
        }
        let [w0, w1, w2, w3] = self.bits;
        let any = w0 | w1 | w2 | w3;
        let (mut set, mut clear) = (0u8, 0u8);
        for (j, plane) in IN_WORD_PLANES.iter().enumerate() {
            set |= u8::from(any & plane != 0) << j;
            clear |= u8::from(any & !plane != 0) << j;
        }
        set |= u8::from(w1 | w3 != 0) << 6 | u8::from(w2 | w3 != 0) << 7;
        clear |= u8::from(w0 | w2 != 0) << 6 | u8::from(w0 | w1 != 0) << 7;
        BytePattern::from_constant_bits(!(set & clear), set)
    }

    /// The members of the class as maximal inclusive ranges.
    #[must_use]
    pub fn ranges(&self) -> Vec<(u8, u8)> {
        let mut out = Vec::new();
        let mut cur: Option<(u8, u8)> = None;
        for b in self.iter() {
            match cur {
                Some((lo, hi)) if hi + 1 == b => cur = Some((lo, b)),
                Some(done) => {
                    out.push(done);
                    cur = Some((b, b));
                }
                None => cur = Some((b, b)),
            }
        }
        if let Some(done) = cur {
            out.push(done);
        }
        out
    }
}

impl fmt::Debug for ByteClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ByteClass(")?;
        for (i, (lo, hi)) in self.ranges().into_iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if lo == hi {
                write!(f, "{lo:#04x}")?;
            } else {
                write!(f, "{lo:#04x}-{hi:#04x}")?;
            }
        }
        write!(f, ")")
    }
}

/// A parsed regular expression over the supported fixed-shape subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Regex {
    /// The empty expression.
    Empty,
    /// One byte drawn from a class.
    Class(ByteClass),
    /// Concatenation of sub-expressions.
    Concat(Vec<Regex>),
    /// Bounded repetition: between `min` and `max` copies of the body.
    /// `{n}` parses as `min == max == n`; a trailing `?` as `{0,1}`.
    Repeat {
        /// The repeated sub-expression.
        body: Box<Regex>,
        /// Minimum number of copies.
        min: usize,
        /// Maximum number of copies.
        max: usize,
    },
}

/// Error produced when an expression expands past [`MAX_EXPANDED_LEN`] bytes
/// or has an ambiguous shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// The expanded byte sequence would exceed [`MAX_EXPANDED_LEN`].
    TooLong,
    /// Optional parts occur before mandatory parts, so byte positions are
    /// not pinned (e.g. `a?b`). SEPE only supports optional *suffixes*.
    OptionalPrefix,
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::TooLong => {
                write!(f, "expanded key format exceeds {MAX_EXPANDED_LEN} bytes")
            }
            ExpandError::OptionalPrefix => write!(
                f,
                "optional parts are only supported at the end of the key format"
            ),
        }
    }
}

impl std::error::Error for ExpandError {}

/// Error produced by [`Regex::compile`]: the source did not parse, or it
/// parsed but does not expand into pinned byte positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileRegexError {
    /// Syntax outside the supported subset.
    Parse(ParseRegexError),
    /// An oversized or ambiguous shape.
    Expand(ExpandError),
}

impl fmt::Display for CompileRegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileRegexError::Parse(e) => e.fmt(f),
            CompileRegexError::Expand(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CompileRegexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileRegexError::Parse(e) => Some(e),
            CompileRegexError::Expand(e) => Some(e),
        }
    }
}

impl From<ParseRegexError> for CompileRegexError {
    fn from(e: ParseRegexError) -> Self {
        CompileRegexError::Parse(e)
    }
}

impl From<ExpandError> for CompileRegexError {
    fn from(e: ExpandError) -> Self {
        CompileRegexError::Expand(e)
    }
}

/// The expansion of a regex: one class per byte position plus the minimum
/// key length (positions `min_len..` are optional).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expansion {
    /// One byte class per position, `max_len` entries.
    pub classes: Vec<ByteClass>,
    /// Minimum key length in bytes.
    pub min_len: usize,
}

impl Regex {
    /// Expands the expression into per-position byte classes.
    ///
    /// # Errors
    ///
    /// Returns [`ExpandError::TooLong`] if the expansion exceeds
    /// [`MAX_EXPANDED_LEN`] and [`ExpandError::OptionalPrefix`] if an
    /// optional part is followed by a mandatory one.
    pub fn expand(&self) -> Result<Expansion, ExpandError> {
        let mut classes = Vec::new();
        let mut min_len = 0usize;
        self.expand_into(&mut classes, &mut min_len, true)?;
        Ok(Expansion { classes, min_len })
    }

    fn expand_into(
        &self,
        classes: &mut Vec<ByteClass>,
        min_len: &mut usize,
        mandatory: bool,
    ) -> Result<(), ExpandError> {
        match self {
            Regex::Empty => Ok(()),
            Regex::Class(c) => {
                if classes.len() >= MAX_EXPANDED_LEN {
                    return Err(ExpandError::TooLong);
                }
                if mandatory {
                    if *min_len != classes.len() {
                        return Err(ExpandError::OptionalPrefix);
                    }
                    *min_len += 1;
                }
                classes.push(*c);
                Ok(())
            }
            Regex::Concat(parts) => {
                for p in parts {
                    p.expand_into(classes, min_len, mandatory)?;
                }
                Ok(())
            }
            Regex::Repeat { body, min, max } => {
                for _ in 0..*min {
                    body.expand_into(classes, min_len, mandatory)?;
                }
                for _ in *min..*max {
                    body.expand_into(classes, min_len, false)?;
                }
                Ok(())
            }
        }
    }

    /// Parses and expands `source`, producing the [`KeyPattern`] that drives
    /// synthesis.
    ///
    /// # Errors
    ///
    /// Returns [`CompileRegexError::Parse`] for unsupported syntax, or
    /// [`CompileRegexError::Expand`] for oversized or ambiguous shapes.
    ///
    /// # Examples
    ///
    /// ```
    /// use sepe_core::regex::Regex;
    ///
    /// let pattern = Regex::compile(r"(([0-9]{3})\.){3}[0-9]{3}")?;
    /// assert_eq!(pattern.max_len(), 15);
    /// assert!(pattern.matches(b"192.168.001.001"));
    /// # Ok::<(), sepe_core::regex::CompileRegexError>(())
    /// ```
    pub fn compile(source: &str) -> Result<KeyPattern, CompileRegexError> {
        let regex = parse(source)?;
        let expansion = regex.expand()?;
        Ok(expansion.to_key_pattern())
    }
}

impl Expansion {
    /// Converts the exact per-position classes into the lattice pattern the
    /// synthesizer consumes.
    #[must_use]
    pub fn to_key_pattern(&self) -> KeyPattern {
        let bytes: Vec<BytePattern> = self
            .classes
            .iter()
            .map(ByteClass::to_byte_pattern)
            .collect();
        KeyPattern::with_min_len(bytes, self.min_len)
    }

    /// Whether `key` is a member of the expanded language (exact check, not
    /// the lattice over-approximation).
    #[must_use]
    pub fn matches(&self, key: &[u8]) -> bool {
        if key.len() < self.min_len || key.len() > self.classes.len() {
            return false;
        }
        key.iter().zip(&self.classes).all(|(&b, c)| c.contains(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_class_basics() {
        let c = ByteClass::range(b'0', b'9');
        assert_eq!(c.len(), 10);
        assert!(c.contains(b'5'));
        assert!(!c.contains(b'a'));
        assert_eq!(c.ranges(), vec![(b'0', b'9')]);
        assert_eq!(ByteClass::literal(b'x').as_literal(), Some(b'x'));
        assert_eq!(c.as_literal(), None);
    }

    #[test]
    fn union_and_ranges() {
        let c = ByteClass::range(b'a', b'f').union(&ByteClass::range(b'0', b'9'));
        assert_eq!(c.len(), 16);
        assert_eq!(c.ranges(), vec![(b'0', b'9'), (b'a', b'f')]);
    }

    #[test]
    fn digit_class_patterns_match_the_paper() {
        let p = ByteClass::range(b'0', b'9').to_byte_pattern();
        assert_eq!(p.const_mask(), 0xF0);
        assert_eq!(p.const_bits(), 0x30);
    }

    #[test]
    fn expansion_of_repeat() {
        let r = Regex::Repeat {
            body: Box::new(Regex::Class(ByteClass::range(b'0', b'9'))),
            min: 3,
            max: 3,
        };
        let e = r.expand().unwrap();
        assert_eq!(e.classes.len(), 3);
        assert_eq!(e.min_len, 3);
        assert!(e.matches(b"123"));
        assert!(!e.matches(b"12"));
        assert!(!e.matches(b"12a"));
    }

    #[test]
    fn optional_suffix_is_allowed() {
        let r = Regex::Concat(vec![
            Regex::Class(ByteClass::literal(b'a')),
            Regex::Repeat {
                body: Box::new(Regex::Class(ByteClass::literal(b'b'))),
                min: 0,
                max: 2,
            },
        ]);
        let e = r.expand().unwrap();
        assert_eq!(e.min_len, 1);
        assert_eq!(e.classes.len(), 3);
        assert!(e.matches(b"a"));
        assert!(e.matches(b"ab"));
        assert!(e.matches(b"abb"));
        assert!(!e.matches(b"abbb"));
    }

    #[test]
    fn optional_prefix_is_rejected() {
        let r = Regex::Concat(vec![
            Regex::Repeat {
                body: Box::new(Regex::Class(ByteClass::literal(b'a'))),
                min: 0,
                max: 1,
            },
            Regex::Class(ByteClass::literal(b'b')),
        ]);
        assert_eq!(r.expand().unwrap_err(), ExpandError::OptionalPrefix);
    }

    #[test]
    fn oversized_expansion_is_rejected() {
        let r = Regex::Repeat {
            body: Box::new(Regex::Class(ByteClass::ANY)),
            min: MAX_EXPANDED_LEN + 1,
            max: MAX_EXPANDED_LEN + 1,
        };
        assert_eq!(r.expand().unwrap_err(), ExpandError::TooLong);
    }
}
