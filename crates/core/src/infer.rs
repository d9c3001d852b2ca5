//! Format inference from example keys — the `keybuilder` of Figure 5.
//!
//! Given a set `S` of example keys, SEPE computes the regular expression
//! `f = c₀c₁…cₙ₋₁` where `cᵢ` is the least upper bound, in the
//! quad-semilattice, of the `i`-th bit pair of every key (Section 3.1).
//! Keys shorter than `i` contribute `⊤` at position `i`.
//!
//! The result is deliberately a compromise: specific enough to expose
//! constant bits, general enough to accept keys outside the example set.
//! The caller is responsible for providing *good* examples (Example 3.6):
//! for each quad, every bit combination that can occur at that position
//! should occur in some example.

use crate::pattern::KeyPattern;
use crate::regex::render::render;
use std::fmt;

/// Error returned when inference is attempted on an empty example set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyExampleSetError;

impl fmt::Display for EmptyExampleSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot infer a key format from zero example keys")
    }
}

impl std::error::Error for EmptyExampleSetError {}

/// Joins every example key in the quad-semilattice, yielding the inferred
/// [`KeyPattern`].
///
/// # Errors
///
/// Returns [`EmptyExampleSetError`] when `keys` yields no items.
///
/// # Examples
///
/// ```
/// use sepe_core::infer::infer_pattern;
///
/// // All-0s and all-5s exercise every digit quad (Example 3.6).
/// let pattern = infer_pattern([&b"000.000.000.000"[..], b"555.555.555.555"])?;
/// assert!(pattern.matches(b"127.000.000.001"));
/// assert!(pattern.bytes()[3].is_const()); // the dots are constant
/// # Ok::<(), sepe_core::infer::EmptyExampleSetError>(())
/// ```
pub fn infer_pattern<'a, I>(keys: I) -> Result<KeyPattern, EmptyExampleSetError>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut iter = keys.into_iter();
    let first = iter.next().ok_or(EmptyExampleSetError)?;
    let mut pattern = KeyPattern::of_key(first);
    for key in iter {
        pattern.join_key(key);
    }
    Ok(pattern)
}

/// Infers a pattern and renders it as a regular expression — the exact
/// behaviour of the `keybuilder` command-line tool
/// (`keysynth "$(keybuilder < keys.txt)"`, Figure 5a).
///
/// # Errors
///
/// Returns [`EmptyExampleSetError`] when `keys` yields no items.
pub fn infer_regex<'a, I>(keys: I) -> Result<String, EmptyExampleSetError>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    infer_pattern(keys).map(|p| render(&p))
}

/// Diagnostic for one byte position of an inferred pattern, supporting the
/// "good examples" guidance of Example 3.6: for each quad, every possible
/// bit combination should occur in some example, or the inferred format
/// will be narrower than the real one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PositionReport {
    /// Byte position within the key.
    pub position: usize,
    /// Number of distinct byte values observed across the examples.
    pub distinct_examples: usize,
    /// Number of byte values the inferred pattern accepts.
    pub cardinality: u16,
    /// Whether this position looks under-exercised: the examples show more
    /// than one value (so the position varies) but so few that additional
    /// real keys would likely widen the pattern — a risk of rejecting
    /// legitimate keys (and of masks that mis-classify variable bits,
    /// footnote 2 of the paper).
    pub suspicious: bool,
}

/// Analyzes how well a set of example keys exercises each byte position.
///
/// Positions where the examples show 2–3 distinct values are flagged: a
/// single value legitimately means "constant", and four or more spread
/// values usually saturate the quads, but a pair of values rarely covers
/// every bit pair that can vary (Example 3.6 needs e.g. both an all-0s and
/// an all-5s key to cover a digit).
///
/// # Errors
///
/// Returns [`EmptyExampleSetError`] when `keys` yields no items.
pub fn example_quality<'a, I>(keys: I) -> Result<Vec<PositionReport>, EmptyExampleSetError>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let keys: Vec<&[u8]> = keys.into_iter().collect();
    let pattern = infer_pattern(keys.iter().copied())?;
    let mut reports = Vec::with_capacity(pattern.max_len());
    for (position, byte_pattern) in pattern.bytes().iter().enumerate() {
        let mut seen = [false; 256];
        let mut distinct = 0usize;
        for k in &keys {
            if let Some(&b) = k.get(position) {
                if !seen[b as usize] {
                    seen[b as usize] = true;
                    distinct += 1;
                }
            }
        }
        let cardinality = byte_pattern.cardinality();
        let suspicious = (2..4).contains(&distinct) && cardinality < 256;
        reports.push(PositionReport {
            position,
            distinct_examples: distinct,
            cardinality,
            suspicious,
        });
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_is_an_error() {
        assert_eq!(infer_pattern(std::iter::empty()), Err(EmptyExampleSetError));
    }

    #[test]
    fn single_key_infers_all_literals() {
        let p = infer_pattern([&b"abc"[..]]).unwrap();
        assert!(p.bytes().iter().all(|b| b.is_const()));
        assert!(p.matches(b"abc"));
        assert!(!p.matches(b"abd"));
    }

    #[test]
    fn inferred_pattern_accepts_all_examples() {
        let keys: [&[u8]; 4] = [
            b"123-45-6789",
            b"000-00-0000",
            b"999-99-9999",
            b"555-55-5555",
        ];
        let p = infer_pattern(keys).unwrap();
        for k in keys {
            assert!(p.matches(k), "pattern must accept example {:?}", k);
        }
    }

    #[test]
    fn two_good_examples_suffice_for_ipv4() {
        // Example 3.6: all-0s and all-5s exercise every digit quad.
        let p = infer_pattern([&b"000.000.000.000"[..], b"555.555.555.555"]).unwrap();
        assert!(p.matches(b"192.168.001.001"));
        assert_eq!(p.variable_bits(), 12 * 4);
    }

    #[test]
    fn infer_regex_matches_render() {
        let r = infer_regex([&b"000-00-0000"[..], b"555-55-5555"]).unwrap();
        assert_eq!(r, r"[0-9]{3}-[0-9]{2}-[0-9]{4}");
    }

    #[test]
    fn quality_flags_underexercised_positions() {
        // Two digit examples per Example 3.6: all-0s and all-5s saturate
        // the digit quads, yet still only show 2 distinct bytes; the flag
        // is advisory.
        let reports = example_quality([&b"000"[..], b"555", b"912", b"384"]).unwrap();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(r.distinct_examples, 4);
            assert!(!r.suspicious);
        }
        // With only two close examples the middle digit looks suspicious.
        let reports = example_quality([&b"101"[..], b"121"]).unwrap();
        assert!(!reports[0].suspicious, "constant position is fine");
        assert!(reports[1].suspicious, "two-value variable position flagged");
        assert_eq!(reports[0].distinct_examples, 1);
        assert_eq!(reports[0].cardinality, 1);
    }

    #[test]
    fn quality_counts_missing_bytes_gracefully() {
        let reports = example_quality([&b"ab"[..], b"abcd"]).unwrap();
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[3].distinct_examples, 1);
        assert_eq!(reports[3].cardinality, 256, "missing bytes join to top");
    }

    #[test]
    fn mixed_lengths_infer_min_and_max() {
        let p = infer_pattern([&b"ab"[..], b"abcd"]).unwrap();
        assert_eq!(p.min_len(), 2);
        assert_eq!(p.max_len(), 4);
        assert!(p.matches(b"ab"));
        assert!(p.matches(b"abZZ"));
        assert!(!p.matches(b"a"));
    }
}
