//! The fused in-format kernel: one pass over a fixed-length key that both
//! checks the format guard and computes the plan's hash.
//!
//! A [`crate::guard::GuardedHash`] used to load every word of a key twice:
//! once in [`FormatGuard::matches`] and once more in the specialized hash.
//! Both walk the same clamped load schedule (the guard mirrors the plans,
//! DESIGN §10), and under the quad lattice the bits a Pext plan drops are
//! exactly the constant bits the guard checks. So one load can feed both
//! steps:
//!
//! ```text
//! acc |= (w & const_mask) ^ const_bits     // the guard: 0 while in format
//! h   ^= pext(w, mask) << shift            // Pext
//! h   ^= w.rotate_left(shift)              // Naive / OffXor
//! ```
//!
//! [`FusedKernel`] holds the plan's word operations, each with the guard's
//! test of the eight bytes it loads, plus guard-only words for the
//! constrained bytes no plan load covers, in one inline array, so the hot
//! path touches no `Vec` and no [`crate::pattern::KeyPattern`]. One length
//! compare puts every load in bounds. The batched form interleaves independent keys
//! (operations outer, lanes inner), the multi-stream schedule of the batch
//! kernels in [`crate::hash::HashBatch`]. On x86-64 the Naive/OffXor
//! batched pass holds two keys per SSE2 register (DESIGN §10); the
//! portable pass is the only one elsewhere, and the reference the vector
//! pass is tested against.
//!
//! Only plan shape decides whether a kernel exists: a fixed-length format
//! of at least eight bytes, a fixed-word plan (Naive, OffXor or Pext) whose
//! loads fit the key, and at most [`FUSED_WORDS`] distinct loads. Every
//! other shape keeps [`FormatGuard::matches`] plus the specialized hash,
//! and `matches` stays the reference the kernel is tested against.

use crate::bits::pext_soft;
use crate::guard::{word_test, FormatGuard};
use crate::hash::batch::load_u64_le_unchecked;
use crate::synth::WordOp;

/// Most loads a fused kernel holds: the plan's, plus the guard-only ones.
pub const FUSED_WORDS: usize = 16;

/// One load of the fused schedule: the guard's constant-bit test on the
/// word, and the plan's step on it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    offset: u32,
    /// Rotation (Naive/OffXor) or shift (Pext) of the plan's step.
    shift: u8,
    const_mask: u64,
    const_bits: u64,
    /// The Pext extraction mask; unused by the xor families.
    extract: u64,
}

const NO_ENTRY: Entry = Entry {
    offset: 0,
    shift: 0,
    const_mask: 0,
    const_bits: 0,
    extract: 0,
};

/// How a loaded word folds into the hash.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `h ^= w.rotate_left(shift)` (Naive, OffXor).
    Xor,
    /// `h ^= pext(w, extract) << shift` with the BMI2 instruction.
    PextHw,
    /// The same with the portable bit-extraction routine.
    PextSoft,
}

/// A format guard and a fixed-word plan compiled into one load schedule.
///
/// [`FusedKernel::eval`] returns `(hash, in_format)`: `in_format` is
/// exactly [`FormatGuard::matches`], and when it holds, `hash` is exactly
/// the plan's hash of the key. Built by
/// [`ByteHash::fused_with`](crate::hash::ByteHash::fused_with).
///
/// # Examples
///
/// ```
/// use sepe_core::guard::FormatGuard;
/// use sepe_core::hash::{ByteHash, SynthesizedHash};
/// use sepe_core::regex::Regex;
/// use sepe_core::synth::Family;
///
/// let pattern = Regex::compile(r"\d{3}-\d{2}-\d{4}")?;
/// let guard = FormatGuard::compile(&pattern);
/// let hash = SynthesizedHash::from_pattern(&pattern, Family::Pext);
/// let kernel = hash.fused_with(&guard).expect("a fixed-word plan fuses");
/// let key = b"123-45-6789";
/// assert_eq!(kernel.eval(key), (hash.hash_bytes(key), true));
/// assert!(!kernel.eval(b"123_45-6789").1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FusedKernel {
    key_len: u32,
    seed: u64,
    step: Step,
    /// `entries[..hashed]` feed the hash and the guard.
    hashed: u8,
    /// `entries[hashed..n]` are guard words the plan never loads.
    n: u8,
    entries: [Entry; FUSED_WORDS],
}

/// The interleaved result of [`FusedKernel::lanes`]: per lane, the plan's
/// hash, and the guard's mismatch bits of all lanes OR-ed together (zero
/// when every lane is in format). The verdict is the chunk's, not each
/// lane's: a chunk with a miss is re-judged one key at a time, which is
/// also what routing it takes, so per-lane verdicts would buy nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lanes<const W: usize> {
    pub(crate) hash: [u64; W],
    miss: u64,
}

impl<const W: usize> Lanes<W> {
    /// Whether every lane is in format.
    #[inline]
    pub(crate) fn all_in_format(&self) -> bool {
        self.miss == 0
    }
}

impl FusedKernel {
    /// Compiles `guard` and a fixed-word plan into one schedule, or `None`
    /// when the shape has no fused kernel (see the module docs). `ops` are
    /// the plan's loads, `pext` says whether they extract (`Some(hw)`,
    /// with the hardware instruction when `hw`) or xor-rotate (`None`).
    pub(crate) fn compile(
        guard: &FormatGuard,
        ops: &[WordOp],
        pext: Option<bool>,
        seed: u64,
    ) -> Option<FusedKernel> {
        let key_len = guard.fixed_len()?;
        if ops.len() > FUSED_WORDS || ops.iter().any(|op| op.offset as usize + 8 > key_len) {
            return None;
        }
        let pattern = guard.pattern();
        let mut entries = [NO_ENTRY; FUSED_WORDS];
        let loaded = |at: usize| {
            ops.iter()
                .any(|op| (op.offset as usize..op.offset as usize + 8).contains(&at))
        };
        // The plan's loads carry the guard's test of the bytes they load...
        for (e, op) in entries.iter_mut().zip(ops) {
            let (const_mask, const_bits) = word_test(pattern, op.offset as usize);
            *e = Entry {
                offset: op.offset,
                shift: op.shift,
                const_mask,
                const_bits,
                extract: op.mask,
            };
        }
        // ...and guard-only loads test every constrained byte no plan load
        // covers, each from the first such byte on (clamped into the key).
        let mut n = ops.len();
        let mut at = 0;
        while at < key_len {
            if pattern.bytes()[at].const_mask() == 0 || loaded(at) {
                at += 1;
                continue;
            }
            let offset = at.min(key_len - 8);
            let (const_mask, const_bits) = word_test(pattern, offset);
            *entries.get_mut(n)? = Entry {
                offset: u32::try_from(offset).ok()?,
                const_mask,
                const_bits,
                ..NO_ENTRY
            };
            n += 1;
            at = offset + 8;
        }
        let step = match pext {
            None => Step::Xor,
            Some(true) => Step::PextHw,
            Some(false) => Step::PextSoft,
        };
        Some(FusedKernel {
            key_len: u32::try_from(key_len).ok()?,
            seed,
            step,
            hashed: ops.len() as u8,
            n: n as u8,
            entries,
        })
    }

    /// Distinct loads per key: the plan's, plus the guard words the plan
    /// never loads.
    #[must_use]
    pub fn loads(&self) -> usize {
        usize::from(self.n)
    }

    /// `(hash, in_format)` of one key. `in_format` equals
    /// [`FormatGuard::matches`]; when it holds, `hash` is the plan's hash.
    #[inline]
    #[must_use]
    pub fn eval(&self, key: &[u8]) -> (u64, bool) {
        if key.len() != self.key_len as usize {
            return (0, false);
        }
        // SAFETY: the key length was checked above; `PextHw` is compiled in
        // only when BMI2 was detected.
        unsafe {
            match self.step {
                Step::Xor => scalar::<Rotate>(self, key),
                #[cfg(target_arch = "x86_64")]
                Step::PextHw => scalar_pext_hw(self, key),
                #[cfg(not(target_arch = "x86_64"))]
                Step::PextHw => scalar::<SoftPext>(self, key),
                Step::PextSoft => scalar::<SoftPext>(self, key),
            }
        }
    }

    /// [`FusedKernel::eval`] over a batch: `hashes[i], in_format[i]` are
    /// `eval(keys[i])`. Chunks of eight, then four, take the interleaved
    /// pass; a chunk with an off-format key, and the last few keys, go one
    /// at a time.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length.
    pub fn eval_batch(&self, keys: &[&[u8]], hashes: &mut [u64], in_format: &mut [bool]) {
        assert!(
            keys.len() == hashes.len() && keys.len() == in_format.len(),
            "batch output length mismatch"
        );
        let mut i = 0;
        for_lanes(keys, hashes, |chunk, out| {
            let verdicts = &mut in_format[i..i + chunk.len()];
            i += chunk.len();
            let interleaved = match chunk.len() {
                8 => self.write_lanes::<8>(chunk, out, verdicts),
                4 => self.write_lanes::<4>(chunk, out, verdicts),
                _ => false,
            };
            if !interleaved {
                for ((key, h), v) in chunk.iter().zip(out).zip(verdicts) {
                    (*h, *v) = self.eval(key);
                }
            }
        });
    }

    /// [`FusedKernel::lanes`] into output slices; `false` when the chunk
    /// must go one key at a time.
    fn write_lanes<const W: usize>(
        &self,
        keys: &[&[u8]],
        hashes: &mut [u64],
        in_format: &mut [bool],
    ) -> bool {
        match self.lanes::<W>(keys) {
            Some(l) if l.all_in_format() => {
                hashes.copy_from_slice(&l.hash);
                in_format.fill(true);
                true
            }
            _ => false,
        }
    }

    /// The interleaved pass over exactly `W` keys, or `None` when one of
    /// them has the wrong length (its loads would leave the key).
    #[inline]
    pub(crate) fn lanes<const W: usize>(&self, keys: &[&[u8]]) -> Option<Lanes<W>> {
        let keys: &[&[u8]; W] = keys.try_into().ok()?;
        if keys.iter().any(|k| k.len() != self.key_len as usize) {
            return None;
        }
        // SAFETY: every key's length was checked above; `PextHw` is
        // compiled in only when BMI2 was detected.
        Some(unsafe {
            match self.step {
                #[cfg(target_arch = "x86_64")]
                Step::Xor => lanes_xor_sse2::<W>(self, keys),
                #[cfg(not(target_arch = "x86_64"))]
                Step::Xor => lanes::<Rotate, W>(self, keys),
                #[cfg(target_arch = "x86_64")]
                Step::PextHw => lanes_pext_hw::<W>(self, keys),
                #[cfg(not(target_arch = "x86_64"))]
                Step::PextHw => lanes::<SoftPext, W>(self, keys),
                Step::PextSoft => lanes::<SoftPext, W>(self, keys),
            }
        })
    }

    /// The loads feeding the hash and the guard, then the guard-only ones.
    #[inline]
    fn split(&self) -> (&[Entry], &[Entry]) {
        self.entries[..usize::from(self.n)].split_at(usize::from(self.hashed))
    }
}

/// Splits a batch into chunks of eight, then four, then single keys, and
/// hands each chunk to `chunk` with its output slots.
#[inline]
pub(crate) fn for_lanes(
    keys: &[&[u8]],
    out: &mut [u64],
    mut chunk: impl FnMut(&[&[u8]], &mut [u64]),
) {
    debug_assert_eq!(keys.len(), out.len());
    let mut i = 0;
    while i < keys.len() {
        let n = match keys.len() - i {
            r if r >= 8 => 8,
            r if r >= 4 => 4,
            _ => 1,
        };
        chunk(&keys[i..i + n], &mut out[i..i + n]);
        i += n;
    }
}

/// How one plan step folds a loaded word into the hash.
trait Fold {
    fn fold(w: u64, e: &Entry) -> u64;
}

struct Rotate;
impl Fold for Rotate {
    #[inline(always)]
    fn fold(w: u64, e: &Entry) -> u64 {
        w.rotate_left(u32::from(e.shift))
    }
}

struct SoftPext;
impl Fold for SoftPext {
    #[inline(always)]
    fn fold(w: u64, e: &Entry) -> u64 {
        pext_soft(w, e.extract) << e.shift
    }
}

#[cfg(target_arch = "x86_64")]
struct HwPext;
#[cfg(target_arch = "x86_64")]
impl Fold for HwPext {
    #[inline(always)]
    fn fold(w: u64, e: &Entry) -> u64 {
        // SAFETY: `HwPext` is only instantiated inside the `bmi2` kernels
        // below, which run only when BMI2 was detected.
        unsafe { std::arch::x86_64::_pext_u64(w, e.extract) << e.shift }
    }
}

/// One key, every load once: the guard's mismatch bits and the hash.
///
/// # Safety
///
/// `key.len()` must equal the kernel's key length.
#[inline(always)]
unsafe fn scalar<S: Fold>(k: &FusedKernel, key: &[u8]) -> (u64, bool) {
    let (hashed, checked) = k.split();
    let mut h = k.seed;
    let mut miss = 0u64;
    for e in hashed {
        // SAFETY: the caller guarantees `key.len() == key_len`, and
        // `compile` admitted only loads with `offset + 8 <= key_len`.
        let w = unsafe { load_u64_le_unchecked(key, e.offset as usize) };
        miss |= (w & e.const_mask) ^ e.const_bits;
        h ^= S::fold(w, e);
    }
    for e in checked {
        // SAFETY: as above; guard words lie in `0..key_len`.
        let w = unsafe { load_u64_le_unchecked(key, e.offset as usize) };
        miss |= (w & e.const_mask) ^ e.const_bits;
    }
    (h, miss == 0)
}

/// `W` keys at once, operations outer and lanes inner, so each load
/// issues `W` independent reads.
///
/// # Safety
///
/// Every key's length must equal the kernel's key length.
#[inline(always)]
unsafe fn lanes<S: Fold, const W: usize>(k: &FusedKernel, keys: &[&[u8]; W]) -> Lanes<W> {
    let (hashed, checked) = k.split();
    let mut hash = [k.seed; W];
    let mut miss = 0u64;
    for e in hashed {
        let off = e.offset as usize;
        for (key, h) in keys.iter().zip(hash.iter_mut()) {
            // SAFETY: the caller guarantees every key is `key_len` long, and
            // `compile` admitted only loads with `offset + 8 <= key_len`.
            let w = unsafe { load_u64_le_unchecked(key, off) };
            miss |= (w & e.const_mask) ^ e.const_bits;
            *h ^= S::fold(w, e);
        }
    }
    for e in checked {
        let off = e.offset as usize;
        for key in keys {
            // SAFETY: as above.
            let w = unsafe { load_u64_le_unchecked(key, off) };
            miss |= (w & e.const_mask) ^ e.const_bits;
        }
    }
    Lanes { hash, miss }
}

/// Most register pairs [`lanes_xor_sse2`] holds: chunks of up to eight keys.
#[cfg(target_arch = "x86_64")]
const MAX_PAIRS: usize = 4;

/// [`lanes`] with [`Rotate`] in SSE2, two keys per 128-bit register: key
/// `2p` in the low half of pair `p`, key `2p + 1` in the high half. The
/// guard's mismatch bits of every lane OR into one register, whose two
/// halves OR into `miss`, so hashes and `miss` are bit for bit the portable
/// pass's. SSE2 is part of the x86-64 baseline: no detection is needed,
/// and every caller may inline it.
///
/// # Safety
///
/// Every key's length must equal the kernel's key length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
unsafe fn lanes_xor_sse2<const W: usize>(k: &FusedKernel, keys: &[&[u8]; W]) -> Lanes<W> {
    use std::arch::x86_64::{
        _mm_and_si128, _mm_cvtsi128_si64, _mm_cvtsi32_si128, _mm_or_si128, _mm_set1_epi64x,
        _mm_set_epi64x, _mm_setzero_si128, _mm_sll_epi64, _mm_srl_epi64, _mm_storeu_si128,
        _mm_unpackhi_epi64, _mm_xor_si128,
    };
    const { assert!(W.is_multiple_of(2) && W <= 2 * MAX_PAIRS) };
    let pairs = keys.as_chunks::<2>().0;
    // SAFETY: `[key_lo, key_hi]` are `key_len` long (the caller's
    // guarantee), and `compile` admitted only loads with
    // `offset + 8 <= key_len`.
    let load = |[lo, hi]: &[&[u8]; 2], off| unsafe {
        _mm_set_epi64x(
            load_u64_le_unchecked(hi, off) as i64,
            load_u64_le_unchecked(lo, off) as i64,
        )
    };
    let (hashed, checked) = k.split();
    let mut hash = [_mm_set1_epi64x(k.seed as i64); MAX_PAIRS];
    // The guard's `(w & mask) ^ bits` OR-ed over the lanes equals
    // `(w_0 ^ bits | w_1 ^ bits | ...) & mask`, since `bits` lies within
    // `mask`: one AND per word, not one per pair.
    let mut g = _mm_setzero_si128();
    for e in hashed {
        let (off, bits) = (e.offset as usize, _mm_set1_epi64x(e.const_bits as i64));
        let mut t = _mm_setzero_si128();
        let s = i32::from(e.shift) & 63;
        if s == 0 {
            // Most xor-plan loads are not rotated, and a vector rotation
            // costs three operations where a scalar one costs one.
            for (h, pair) in hash.iter_mut().zip(pairs) {
                let w = load(pair, off);
                t = _mm_or_si128(t, _mm_xor_si128(w, bits));
                *h = _mm_xor_si128(*h, w);
            }
        } else {
            // A rotation by `s` is `(w << s) | (w >> (64 - s))`.
            let (left, right) = (_mm_cvtsi32_si128(s), _mm_cvtsi32_si128(64 - s));
            for (h, pair) in hash.iter_mut().zip(pairs) {
                let w = load(pair, off);
                t = _mm_or_si128(t, _mm_xor_si128(w, bits));
                let rotated = _mm_or_si128(_mm_sll_epi64(w, left), _mm_srl_epi64(w, right));
                *h = _mm_xor_si128(*h, rotated);
            }
        }
        g = _mm_or_si128(g, _mm_and_si128(t, _mm_set1_epi64x(e.const_mask as i64)));
    }
    for e in checked {
        let (off, bits) = (e.offset as usize, _mm_set1_epi64x(e.const_bits as i64));
        let mut t = _mm_setzero_si128();
        for pair in pairs {
            t = _mm_or_si128(t, _mm_xor_si128(load(pair, off), bits));
        }
        g = _mm_or_si128(g, _mm_and_si128(t, _mm_set1_epi64x(e.const_mask as i64)));
    }
    let mut out = Lanes {
        hash: [0; W],
        miss: (_mm_cvtsi128_si64(g) | _mm_cvtsi128_si64(_mm_unpackhi_epi64(g, g))) as u64,
    };
    for (dst, h) in out.hash.as_chunks_mut::<2>().0.iter_mut().zip(hash) {
        // SAFETY: `dst` is 16 writable bytes; the store takes any alignment.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), h) };
    }
    out
}

/// # Safety
///
/// The caller must have verified BMI2 support, and `key.len()` must equal
/// the kernel's key length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
unsafe fn scalar_pext_hw(k: &FusedKernel, key: &[u8]) -> (u64, bool) {
    // SAFETY: forwarded from the caller.
    unsafe { scalar::<HwPext>(k, key) }
}

/// # Safety
///
/// The caller must have verified BMI2 support, and every key's length
/// must equal the kernel's key length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
unsafe fn lanes_pext_hw<const W: usize>(k: &FusedKernel, keys: &[&[u8]; W]) -> Lanes<W> {
    // SAFETY: forwarded from the caller.
    unsafe { lanes::<HwPext, W>(k, keys) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::Isa;
    use crate::hash::{ByteHash, SynthesizedHash};
    use crate::pattern::KeyPattern;
    use crate::regex::Regex;
    use crate::synth::Family;

    fn kernel(pattern: &KeyPattern, hash: &SynthesizedHash) -> Option<FusedKernel> {
        hash.fused_with(&FormatGuard::compile(pattern))
    }

    #[test]
    fn only_fixed_word_plans_over_fixed_formats_fuse() {
        let ssn = Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("valid regex");
        for family in Family::ALL {
            let hash = SynthesizedHash::from_pattern(&ssn, family);
            assert_eq!(
                kernel(&ssn, &hash).is_some(),
                family != Family::Aes,
                "{family}"
            );
        }
        let var = Regex::compile(r"[a-z]{8}[0-9]{0,4}").expect("valid regex");
        let short = Regex::compile(r"\d{4}").expect("valid regex");
        for (pattern, what) in [(&var, "variable length"), (&short, "fallback")] {
            for family in Family::ALL {
                let hash = SynthesizedHash::from_pattern(pattern, family);
                assert!(kernel(pattern, &hash).is_none(), "{what} {family}");
            }
        }
    }

    #[test]
    fn a_pext_plan_keeps_the_guard_words_it_never_loads() {
        // The constant prefix is never extracted, but the guard must still
        // load it: the kernel carries it as a guard-only word.
        let pattern = Regex::compile(r"https://www\.[a-z]{8}\.com").expect("valid regex");
        let hash = SynthesizedHash::from_pattern(&pattern, Family::Pext);
        let k = kernel(&pattern, &hash).expect("fixed-word plan");
        let ops = hash.plan().word_ops().expect("word plan").len();
        assert!(k.loads() > ops, "{} loads, {ops} plan ops", k.loads());
        let key = b"https://www.abcdefgh.com";
        assert_eq!(k.eval(key), (hash.hash_bytes(key), true));
        let mut flipped = key.to_vec();
        flipped[2] ^= 0x40;
        assert!(!k.eval(&flipped).1);
        assert!(!k.eval(&key[1..]).1, "a length edit is off format");
    }

    #[test]
    fn scalar_batch_and_both_pext_dispatches_agree() {
        let pattern = Regex::compile(r"(([0-9]{3})\.){3}[0-9]{3}").expect("valid regex");
        let keys: Vec<Vec<u8>> = (0..21u32)
            .map(|i| {
                let mut k = format!(
                    "{:03}.{:03}.{:03}.{:03}",
                    i % 256,
                    i * 3 % 256,
                    i,
                    i * 7 % 256
                )
                .into_bytes();
                match i % 5 {
                    3 => k[i as usize % 15] = b'x',
                    4 if i > 10 => k.truncate(14),
                    _ => {}
                }
                k
            })
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let guard = FormatGuard::compile(&pattern);
        for family in [Family::Naive, Family::OffXor, Family::Pext] {
            for isa in [Isa::Native, Isa::Portable] {
                let hash = SynthesizedHash::from_pattern(&pattern, family).with_isa(isa);
                let k = kernel(&pattern, &hash).expect("fixed-word plan");
                let mut hashes = vec![0u64; refs.len()];
                let mut verdicts = vec![false; refs.len()];
                k.eval_batch(&refs, &mut hashes, &mut verdicts);
                for (i, key) in refs.iter().enumerate() {
                    let (h, ok) = k.eval(key);
                    assert_eq!(ok, guard.matches(key), "{family} {isa:?} {key:?}");
                    assert_eq!(verdicts[i], ok, "{family} {isa:?} batch {key:?}");
                    if ok {
                        assert_eq!(h, hash.hash_bytes(key), "{family} {isa:?}");
                        assert_eq!(hashes[i], h, "{family} {isa:?} batch");
                    }
                }
            }
        }
    }

    /// The x86-64 SSE2 batched pass against the portable one.
    #[cfg(target_arch = "x86_64")]
    mod sse2 {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestRng;

        /// The eight evaluated formats and UUID, as the key generator writes
        /// them.
        const FORMATS: [&str; 9] = [
            r"\d{3}-\d{2}-\d{4}",
            r"\d{3}\.\d{3}\.\d{3}-\d{2}",
            r"([0-9a-f]{2}-){5}[0-9a-f]{2}",
            r"(([0-9]{3})\.){3}[0-9]{3}",
            r"([0-9a-f]{4}:){7}[0-9a-f]{4}",
            r"[0-9]{100}",
            r"https://www\.example\.us/[a-z0-9]{20}\.html",
            r"https://www\.longer-example-site\.us/p[a-z0-9]{20}\.html",
            r"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}",
        ];

        /// `W` in-format keys, then 0 to `W` lanes pushed off format by one
        /// flipped constant bit of a plan word or a guard-only word, and with
        /// probability 1/4 one lane a byte short or long. Returns the keys and
        /// whether a length changed.
        fn chunk<const W: usize>(
            k: &FusedKernel,
            allowed: &[Vec<u8>],
            rng: &mut TestRng,
        ) -> (Vec<Vec<u8>>, bool) {
            let mut pick = |n: usize| rng.below(n as u64) as usize;
            let mut keys: Vec<Vec<u8>> = (0..W)
                .map(|_| allowed.iter().map(|a| a[pick(a.len())]).collect())
                .collect();
            let testable = |words: &[Entry]| -> Vec<Entry> {
                words
                    .iter()
                    .copied()
                    .filter(|e| e.const_mask != 0)
                    .collect()
            };
            let (plan, guard_only) = k.split();
            let (plan, guard_only) = (testable(plan), testable(guard_only));
            let mut lanes: Vec<usize> = (0..W).collect();
            for i in (1..W).rev() {
                lanes.swap(i, pick(i + 1));
            }
            let off = pick(W + 1);
            for &lane in &lanes[..off] {
                let words = if guard_only.is_empty() || pick(2) == 0 {
                    &plan
                } else {
                    &guard_only
                };
                let e = words[pick(words.len())];
                let bits: Vec<usize> = (0..64).filter(|b| e.const_mask >> b & 1 == 1).collect();
                let bit = bits[pick(bits.len())];
                keys[lane][e.offset as usize + bit / 8] ^= 1 << (bit % 8);
            }
            let wrong_len = pick(4) == 0;
            if wrong_len {
                let lane = pick(W);
                if pick(2) == 0 {
                    keys[lane].pop();
                } else {
                    keys[lane].push(b'0');
                }
            }
            (keys, wrong_len)
        }

        /// One chunk of `W` keys through both passes, and through the keyed
        /// route's `hash_batch` against its `hash_routed`.
        fn passes_agree<const W: usize>(
            k: &FusedKernel,
            guard: &FormatGuard,
            keyed: &crate::guard::GuardedHash<SynthesizedHash, SynthesizedHash>,
            allowed: &[Vec<u8>],
            rng: &mut TestRng,
        ) -> Result<(), TestCaseError> {
            use crate::hash::HashBatch;
            let (keys, wrong_len) = chunk::<W>(k, allowed, rng);
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            let in_format = refs.iter().all(|key| guard.matches(key));
            match k.lanes::<W>(&refs) {
                None => prop_assert!(wrong_len, "only a length edit refuses the pass"),
                Some(dispatched) => {
                    prop_assert!(!wrong_len, "a length edit must refuse the pass");
                    let keys: &[&[u8]; W] = refs.as_slice().try_into().expect("W keys");
                    // SAFETY: `lanes` checked that every key is `key_len` long.
                    let (portable, sse2) =
                        unsafe { (lanes::<Rotate, W>(k, keys), lanes_xor_sse2::<W>(k, keys)) };
                    prop_assert_eq!(sse2.hash, portable.hash);
                    prop_assert_eq!(sse2.miss, portable.miss);
                    prop_assert_eq!(sse2.all_in_format(), in_format, "{:?}", refs);
                    prop_assert_eq!(dispatched.hash, portable.hash);
                    prop_assert_eq!(dispatched.miss, portable.miss);
                }
            }
            let mut out = [0u64; W];
            keyed.hash_batch(&refs, &mut out);
            for (key, h) in refs.iter().zip(out) {
                prop_assert_eq!(h, keyed.hash_routed(key).0, "{:?}", key);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The SSE2 pass is the portable pass, bit for bit, over the
            /// evaluated formats under Naive and OffXor, random kernel seeds,
            /// and chunks of 4 and 8 with any number of off-format lanes in
            /// either half of a register pair.
            #[test]
                fn the_sse2_pass_is_the_portable_pass(
                format in 0..FORMATS.len(),
                offxor in any::<bool>(),
                seed in any::<u64>(),
                draw in any::<u64>(),
            ) {
                let pattern = Regex::compile(FORMATS[format]).expect("valid regex");
                let family = if offxor { Family::OffXor } else { Family::Naive };
                let hash = SynthesizedHash::from_pattern(&pattern, family).with_seed(seed);
                let guard = FormatGuard::compile(&pattern);
                let k = hash.fused_with(&guard).expect("a fixed-word plan fuses");
                let mut keyed = crate::guard::GuardedHash::new(&pattern, hash.clone(), hash);
                keyed.escalate_keyed(&crate::hash::FixedSeedSource::new(seed));
                let allowed: Vec<Vec<u8>> = pattern
                    .bytes()
                    .iter()
                    .map(|b| b.possible_bytes().collect())
                    .collect();
                let mut rng = TestRng::from_seed(draw);
                passes_agree::<4>(&k, &guard, &keyed, &allowed, &mut rng)?;
                passes_agree::<8>(&k, &guard, &keyed, &allowed, &mut rng)?;
            }
        }
    }
}
