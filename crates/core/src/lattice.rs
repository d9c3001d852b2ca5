//! The quad-semilattice of Definition 3.2.
//!
//! SEPE identifies the format of a set of keys by joining the keys, bit pair
//! by bit pair, in a semilattice whose elements are the four two-bit values
//! (`00`, `01`, `10`, `11`) plus a top element `⊤`. Two equal bit pairs join
//! to themselves; two different bit pairs join to `⊤`. A position that joins
//! to a constant across every example key is a *constant bit pair* and can be
//! discarded by the synthesized hash function.
//!
//! The paper calls the two-bit values "quads" (there are four of them), and
//! groups bits in pairs because pairs are the coarsest granularity that still
//! captures the constant bits shared by ASCII digits (four constant bits,
//! `0011`), upper-case letters and lower-case letters (two constant bits,
//! `01`). See Example 3.5 of the paper.
//!
//! [`Quad`] spells the lattice out one element at a time and is the
//! reference. The pipeline joins four quads at once as mask arithmetic on a
//! byte's `(const_mask, const_bits)` pair ([`crate::pattern::BytePattern`]):
//! a quad stays constant where both masks hold it and the constants agree.

use crate::pattern::BytePattern;
use std::fmt;

/// An element of the quad-semilattice: a constant two-bit value or `⊤`.
///
/// # Examples
///
/// ```
/// use sepe_core::lattice::Quad;
///
/// let a = Quad::new(0b01);
/// let b = Quad::new(0b01);
/// assert_eq!(a.join(b), Quad::new(0b01));
/// assert_eq!(a.join(Quad::new(0b10)), Quad::Top);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Quad {
    /// A constant bit pair; the payload is one of `0b00..=0b11`.
    Const(u8),
    /// The top element: the bit pair varies across the example keys.
    #[default]
    Top,
}

impl Quad {
    /// Creates a constant quad from a two-bit value.
    ///
    /// # Panics
    ///
    /// Panics if `bits` does not fit in two bits.
    #[must_use]
    pub fn new(bits: u8) -> Self {
        assert!(
            bits <= 0b11,
            "quad value {bits:#04b} does not fit in two bits"
        );
        Quad::Const(bits)
    }

    /// The least upper bound of two quads (the `∨` of Definition 3.2).
    ///
    /// Equal constants join to themselves; anything else joins to [`Quad::Top`].
    #[must_use]
    pub fn join(self, other: Quad) -> Quad {
        match (self, other) {
            (Quad::Const(a), Quad::Const(b)) if a == b => Quad::Const(a),
            _ => Quad::Top,
        }
    }

    /// Whether this quad is a constant bit pair.
    #[must_use]
    pub fn is_const(self) -> bool {
        matches!(self, Quad::Const(_))
    }

    /// Whether this quad is the top element.
    #[must_use]
    pub fn is_top(self) -> bool {
        matches!(self, Quad::Top)
    }

    /// The partial order induced by the join: `a ≤ b` iff `a ∨ b = b`.
    #[must_use]
    pub fn le(self, other: Quad) -> bool {
        self.join(other) == other
    }
}

impl fmt::Display for Quad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Quad::Const(v) => write!(f, "{}{}", (v >> 1) & 1, v & 1),
            Quad::Top => write!(f, "⊤⊤"),
        }
    }
}

/// Decomposes a byte into its four bit pairs, most significant pair first.
///
/// `quads_of_byte(0x4A)` (ASCII `'J'`, `0b0100_1010`) yields
/// `[01, 00, 10, 10]`.
///
/// # Examples
///
/// ```
/// use sepe_core::lattice::{quads_of_byte, Quad};
///
/// assert_eq!(
///     quads_of_byte(b'J'),
///     [Quad::new(0b01), Quad::new(0b00), Quad::new(0b10), Quad::new(0b10)]
/// );
/// ```
#[must_use]
pub fn quads_of_byte(byte: u8) -> [Quad; 4] {
    [
        Quad::Const((byte >> 6) & 0b11),
        Quad::Const((byte >> 4) & 0b11),
        Quad::Const((byte >> 2) & 0b11),
        Quad::Const(byte & 0b11),
    ]
}

/// Joins the quad decompositions of two bytes pairwise.
///
/// Computed with [`BytePattern::join`]'s mask arithmetic; the quad-wise
/// [`Quad::join`] is the reference the tests check it against.
#[must_use]
pub fn join_bytes(quads: [Quad; 4], byte: u8) -> [Quad; 4] {
    BytePattern::from_quads(quads).join_byte(byte).quads()
}

/// The low bit of every quad of a byte.
const QUAD_LOW_BITS: u8 = 0x55;

/// Narrows a bit mask to the quads whose two bits it both holds.
///
/// A quad is a constant only when both of its bits are, so a single
/// varying bit makes its whole quad `⊤`.
#[must_use]
pub(crate) fn whole_quads(mask: u8) -> u8 {
    let both = mask & (mask >> 1) & QUAD_LOW_BITS;
    both | (both << 1)
}

/// The join of two bytes' worth of quads held as `(const_mask,
/// const_bits)` pairs, four quads at a time.
///
/// A quad stays constant only where both masks hold it and the two
/// constants agree; a differing bit spreads over its whole quad. Bits
/// outside the returned mask are zero.
#[must_use]
pub(crate) fn join_masks((mask_a, bits_a): (u8, u8), (mask_b, bits_b): (u8, u8)) -> (u8, u8) {
    let mask = whole_quads(mask_a & mask_b & !(bits_a ^ bits_b));
    (mask, bits_a & mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_quads() -> Vec<Quad> {
        vec![
            Quad::new(0b00),
            Quad::new(0b01),
            Quad::new(0b10),
            Quad::new(0b11),
            Quad::Top,
        ]
    }

    #[test]
    fn join_of_equal_constants_is_identity() {
        for v in 0..4u8 {
            assert_eq!(Quad::new(v).join(Quad::new(v)), Quad::new(v));
        }
    }

    #[test]
    fn join_of_distinct_constants_is_top() {
        for a in 0..4u8 {
            for b in 0..4u8 {
                if a != b {
                    assert_eq!(Quad::new(a).join(Quad::new(b)), Quad::Top);
                }
            }
        }
    }

    #[test]
    fn top_is_absorbing() {
        for q in all_quads() {
            assert_eq!(q.join(Quad::Top), Quad::Top);
            assert_eq!(Quad::Top.join(q), Quad::Top);
        }
    }

    #[test]
    fn join_is_idempotent_commutative_associative() {
        let qs = all_quads();
        for &a in &qs {
            assert_eq!(a.join(a), a, "idempotence");
            for &b in &qs {
                assert_eq!(a.join(b), b.join(a), "commutativity");
                for &c in &qs {
                    assert_eq!(a.join(b).join(c), a.join(b.join(c)), "associativity");
                }
            }
        }
    }

    #[test]
    fn partial_order_matches_theorem_3_3() {
        // b ≤ ⊤ and b ≤ b for any b; distinct constants are incomparable.
        for q in all_quads() {
            assert!(q.le(Quad::Top));
            assert!(q.le(q));
        }
        assert!(!Quad::new(0b01).le(Quad::new(0b10)));
        assert!(!Quad::new(0b10).le(Quad::new(0b01)));
        assert!(!Quad::Top.le(Quad::new(0b00)));
    }

    #[test]
    fn byte_decomposition_round_trips() {
        for byte in 0..=255u8 {
            let qs = quads_of_byte(byte);
            let mut rebuilt = 0u8;
            for (i, q) in qs.iter().enumerate() {
                match q {
                    Quad::Const(v) => rebuilt |= v << (6 - 2 * i),
                    Quad::Top => panic!("decomposition of a byte has no top"),
                }
            }
            assert_eq!(rebuilt, byte);
        }
    }

    #[test]
    fn iata_example_from_figure_6() {
        // JFK ∨ LaX ∨ GRu: first byte keeps only its top bit pair constant
        // (01, the letter prefix), everything else varies except where the
        // three example bytes agree.
        let keys: [&[u8]; 3] = [b"JFK", b"LaX", b"GRu"];
        let mut joined = [
            quads_of_byte(keys[0][0]),
            quads_of_byte(keys[0][1]),
            quads_of_byte(keys[0][2]),
        ];
        for key in &keys[1..] {
            for (i, q) in joined.iter_mut().enumerate() {
                *q = join_bytes(*q, key[i]);
            }
        }
        // Figure 6: 0100 ⊤⊤ 01 ⊤⊤ ⊤ 01 ⊤ ⊤⊤ ⊤⊤.
        assert_eq!(joined[0][0], Quad::new(0b01));
        assert_eq!(joined[0][1], Quad::new(0b00));
        assert_eq!(joined[0][2], Quad::Top);
        assert_eq!(joined[0][3], Quad::Top);
        assert_eq!(joined[1][0], Quad::new(0b01));
        assert_eq!(joined[2][0], Quad::new(0b01));
    }
}
