//! Seeded input generation.
//!
//! Every key set is one arena of fixed-length keys, materialized from
//! deduplicated format indices. Generation allocates one index vector and
//! one arena per key set and frees nothing piecemeal, so it leaves no heap
//! garbage behind for the measured program to trip over (a pool built
//! from a million separately freed strings slowed the next synthesis from
//! 0.03 ms to as much as 330 ms).

use sepe::keygen::{KeyFormat, SplitMix64};

/// `count` distinct keys of one fixed-length format, in random order.
pub struct Keys {
    pub format: KeyFormat,
    len: usize,
    bytes: Vec<u8>,
}

impl Keys {
    pub fn generate(format: KeyFormat, count: usize, rng: &mut SplitMix64) -> Keys {
        let space = format.space();
        let mut indices: Vec<u128> = Vec::with_capacity(count + count / 8 + 16);
        while indices.len() < count {
            while indices.len() < indices.capacity() {
                indices.push(rng.below_u128(space));
            }
            indices.sort_unstable();
            indices.dedup();
        }
        // Shuffle before truncating, so the kept keys are not the smallest.
        for i in (1..indices.len()).rev() {
            indices.swap(i, rng.below_u128(i as u128 + 1) as usize);
        }
        indices.truncate(count);
        let len = format.len();
        let mut bytes = Vec::with_capacity(count * len);
        for &index in &indices {
            bytes.extend_from_slice(format.materialize(index).as_bytes());
        }
        assert_eq!(bytes.len(), count * len, "{format:?} keys are fixed-length");
        Keys { format, len, bytes }
    }

    pub fn len(&self) -> usize {
        self.bytes.len() / self.len
    }

    #[inline]
    pub fn key(&self, i: usize) -> &[u8] {
        &self.bytes[i * self.len..(i + 1) * self.len]
    }

    /// Rewrites keys `range` in place with `f` (used to make off-format
    /// keys from in-format ones).
    pub fn rewrite(&mut self, range: std::ops::Range<usize>, f: impl Fn(&mut [u8])) {
        for i in range {
            f(&mut self.bytes[i * self.len..(i + 1) * self.len]);
        }
    }

    pub fn refs(&self) -> Vec<&[u8]> {
        self.bytes.chunks_exact(self.len).collect()
    }

    pub fn bytes(&self) -> usize {
        self.bytes.len()
    }
}

/// A uniform draw below `bound` (which must be non-zero).
#[inline]
pub fn below(rng: &mut SplitMix64, bound: usize) -> usize {
    ((u128::from(rng.next_u64()) * bound as u128) >> 64) as usize
}
