//! Batch hashing: many keys in, many hashes out, per call.
//!
//! Production tables do lookups in batches, not singles, and hashing one
//! key at a time leaves most of the load ports of a modern core idle: a
//! synthesized fixed-word plan is a short dependency chain of loads and
//! xors, so its latency — not its throughput — bounds a scalar loop.
//! [`HashBatch`] extends [`ByteHash`] with a batched entry point, and the
//! kernels in this module evaluate the *same* plan over `W` independent
//! keys with the loop order inverted (operations outer, lanes inner), the
//! multi-stream schedule of HighwayHash: every iteration issues `W`
//! independent loads, so the out-of-order window fills the load ports
//! instead of waiting on one chain.
//!
//! Every kernel computes bit-for-bit the hashes of the scalar
//! [`ByteHash::hash_bytes`] path (xor is commutative, so reassociating
//! per-lane is exact); `sepe-verify --suite batch` and the proptests in
//! `crates/verify` enforce the equivalence against the plan interpreter.

use crate::bits::{load_u64_le, pext_soft};
use crate::synth::WordOp;

/// A hash function that can evaluate a whole batch of keys per call.
///
/// The default implementation is the scalar loop; specialized
/// implementations ([`crate::SynthesizedHash`],
/// [`crate::guard::GuardedHash`]) override it with interleaved kernels.
/// Either way the results are identical to calling
/// [`ByteHash::hash_bytes`] per key — batching is an execution schedule,
/// never a different function.
///
/// # Examples
///
/// ```
/// use sepe_core::hash::{ByteHash, HashBatch, SynthesizedHash};
/// use sepe_core::synth::Family;
///
/// let hash = SynthesizedHash::from_regex(r"\d{3}-\d{2}-\d{4}", Family::Pext)?;
/// let keys: [&[u8]; 3] = [b"123-45-6789", b"000-00-0000", b"999-99-9999"];
/// let mut out = [0u64; 3];
/// hash.hash_batch(&keys, &mut out);
/// for (key, h) in keys.iter().zip(out) {
///     assert_eq!(h, hash.hash_bytes(key));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait HashBatch: ByteHash {
    /// Hashes `keys[i]` into `out[i]` for every `i`.
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() != out.len()`.
    fn hash_batch(&self, keys: &[&[u8]], out: &mut [u64]) {
        assert_eq!(keys.len(), out.len(), "batch output length mismatch");
        for (key, slot) in keys.iter().zip(out.iter_mut()) {
            *slot = self.hash_bytes(key);
        }
    }
}

use crate::hash::ByteHash;

// The forwarding impls delegate to the inner `hash_batch`, not to the
// default body — going through the default body would silently fall back
// to the scalar loop on `Box<dyn HashBatch>` and `&H`.

impl<T: HashBatch + ?Sized> HashBatch for &T {
    fn hash_batch(&self, keys: &[&[u8]], out: &mut [u64]) {
        (**self).hash_batch(keys, out);
    }
}

impl<T: HashBatch + ?Sized> HashBatch for Box<T> {
    fn hash_batch(&self, keys: &[&[u8]], out: &mut [u64]) {
        (**self).hash_batch(keys, out);
    }
}

impl<T: HashBatch + ?Sized> HashBatch for std::sync::Arc<T> {
    fn hash_batch(&self, keys: &[&[u8]], out: &mut [u64]) {
        (**self).hash_batch(keys, out);
    }
}

/// The first byte past the furthest word load of `ops`, or `None` for an
/// empty op list. When every key in a batch is at least this long, all
/// loads are fully in range and the zero-padding branch of
/// [`load_u64_le`] can be skipped.
#[inline]
fn loads_end(ops: &[WordOp]) -> Option<usize> {
    ops.iter().map(|op| op.offset as usize + 8).max()
}

/// One unaligned little-endian word, no range check.
///
/// # Safety
///
/// `offset + 8 <= key.len()` must hold.
#[inline]
pub(crate) unsafe fn load_u64_le_unchecked(key: &[u8], offset: usize) -> u64 {
    debug_assert!(offset + 8 <= key.len());
    u64::from_le(unsafe { key.as_ptr().add(offset).cast::<u64>().read_unaligned() })
}

/// Interleaved xor kernel (Naive / OffXor): `W` lanes advance through the
/// op list together, so each op issues `W` independent loads.
///
/// When every lane covers the furthest load — always true for in-format
/// keys of a fixed-length plan, whose offsets are clamped to `len - 8` —
/// the loads are branch-free; otherwise the zero-padding
/// [`load_u64_le`] handles short keys.
#[inline]
pub(crate) fn xor_lanes<const W: usize>(
    seed: u64,
    ops: &[WordOp],
    keys: &[&[u8]],
    out: &mut [u64],
) {
    debug_assert!(keys.len() == W && out.len() == W);
    let mut h = [seed; W];
    if let Some(end) = loads_end(ops) {
        if keys.iter().all(|k| k.len() >= end) {
            for op in ops {
                let off = op.offset as usize;
                let rot = u32::from(op.shift);
                for lane in 0..W {
                    // SAFETY: every lane was checked to hold `end >= off + 8` bytes.
                    let w = unsafe { load_u64_le_unchecked(keys[lane], off) };
                    h[lane] ^= w.rotate_left(rot);
                }
            }
            out.copy_from_slice(&h);
            return;
        }
    }
    for op in ops {
        let off = op.offset as usize;
        let rot = u32::from(op.shift);
        for lane in 0..W {
            h[lane] ^= load_u64_le(keys[lane], off).rotate_left(rot);
        }
    }
    out.copy_from_slice(&h);
}

/// Interleaved portable-pext kernel.
#[inline]
pub(crate) fn pext_soft_lanes<const W: usize>(
    seed: u64,
    ops: &[WordOp],
    keys: &[&[u8]],
    out: &mut [u64],
) {
    debug_assert!(keys.len() == W && out.len() == W);
    let mut h = [seed; W];
    for op in ops {
        let off = op.offset as usize;
        for lane in 0..W {
            let w = load_u64_le(keys[lane], off);
            h[lane] ^= pext_soft(w, op.mask) << op.shift;
        }
    }
    out.copy_from_slice(&h);
}

/// Interleaved hardware-pext kernel: one `pext` per lane per op, all `W`
/// extractions independent.
///
/// # Safety
///
/// The caller must have verified BMI2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
pub(crate) unsafe fn pext_hw_lanes<const W: usize>(
    seed: u64,
    ops: &[WordOp],
    keys: &[&[u8]],
    out: &mut [u64],
) {
    use std::arch::x86_64::_pext_u64;
    debug_assert!(keys.len() == W && out.len() == W);
    let mut h = [seed; W];
    if let Some(end) = loads_end(ops) {
        if keys.iter().all(|k| k.len() >= end) {
            for op in ops {
                let off = op.offset as usize;
                for lane in 0..W {
                    // SAFETY: every lane was checked to hold `end >= off + 8` bytes.
                    let w = unsafe { load_u64_le_unchecked(keys[lane], off) };
                    h[lane] ^= _pext_u64(w, op.mask) << op.shift;
                }
            }
            out.copy_from_slice(&h);
            return;
        }
    }
    for op in ops {
        let off = op.offset as usize;
        for lane in 0..W {
            let w = load_u64_le(keys[lane], off);
            h[lane] ^= _pext_u64(w, op.mask) << op.shift;
        }
    }
    out.copy_from_slice(&h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::SynthesizedHash;
    use crate::synth::Family;

    struct Plain;
    impl ByteHash for Plain {
        fn hash_bytes(&self, key: &[u8]) -> u64 {
            key.len() as u64
        }
    }
    impl HashBatch for Plain {}

    #[test]
    fn default_body_is_the_scalar_loop() {
        let keys: [&[u8]; 3] = [b"a", b"bb", b"ccc"];
        let mut out = [0u64; 3];
        Plain.hash_batch(&keys, &mut out);
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "batch output length mismatch")]
    fn mismatched_lengths_panic() {
        let keys: [&[u8]; 2] = [b"a", b"b"];
        let mut out = [0u64; 3];
        Plain.hash_batch(&keys, &mut out);
    }

    #[test]
    fn forwarding_impls_reach_the_specialized_kernels() {
        let hash = SynthesizedHash::from_regex(r"\d{3}-\d{2}-\d{4}", Family::OffXor).unwrap();
        let keys: Vec<Vec<u8>> = (0..16)
            .map(|i| format!("{:03}-{:02}-{:04}", i, i % 97, i * 7).into_bytes())
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let mut direct = vec![0u64; refs.len()];
        hash.hash_batch(&refs, &mut direct);

        let boxed: Box<dyn HashBatch> = Box::new(hash.clone());
        let mut through_box = vec![0u64; refs.len()];
        boxed.hash_batch(&refs, &mut through_box);
        assert_eq!(direct, through_box);

        let arc = std::sync::Arc::new(hash);
        let mut through_arc = vec![0u64; refs.len()];
        arc.hash_batch(&refs, &mut through_arc);
        assert_eq!(direct, through_arc);
    }

    #[test]
    fn kernels_match_scalar_on_every_family_and_width() {
        for family in Family::ALL {
            let hash = SynthesizedHash::from_regex(r"(([0-9]{3})\.){3}[0-9]{3}", family).unwrap();
            let keys: Vec<Vec<u8>> = (0..37)
                .map(|i: u32| {
                    format!(
                        "{:03}.{:03}.{:03}.{:03}",
                        i % 256,
                        i * 3 % 256,
                        i,
                        i * 7 % 256
                    )
                    .into_bytes()
                })
                .collect();
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            for width in [1usize, 3, 4, 7, 8, 13, 37] {
                let batch = &refs[..width];
                let mut out = vec![0u64; width];
                hash.hash_batch(batch, &mut out);
                for (key, h) in batch.iter().zip(&out) {
                    assert_eq!(*h, hash.hash_bytes(key), "{family} width {width}");
                }
            }
        }
    }
}
