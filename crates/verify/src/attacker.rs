//! Scripted HashDoS attackers: deterministic collision forgeries.
//!
//! Two attacker models, both implementable by anyone holding the binary:
//!
//! * **Linear forgery** ([`forged_ipv4_pair`], [`offxor_flood_keys`]) —
//!   the xor-combining families are linear over GF(2), so flipping
//!   rotation-compensated bit pairs cancels exactly. No search needed;
//!   the collisions are constructed. Promoted here from the repository's
//!   `tests/adversarial.rs` so the chaos suites and property tests can
//!   reuse them.
//! * **Brute-force bucket flood** ([`bucket_flood`]) — family-agnostic:
//!   evaluate the container's (unkeyed, hence adversary-computable) hash
//!   offline and keep the keys that land in one chosen bucket. ~one
//!   bucket-count of trials per colliding key, entirely practical. This
//!   is the attacker the escalation ladder must defeat: it works against
//!   the guarded fallback too, which is why a storm skips `Degraded` and
//!   goes straight to `Keyed(seed)`.
//!   [`format_flood`] is the same search over keys of one format, which
//!   the keyed rung hashes through the seeded bijection of the specialized
//!   hash instead of SipHash: it pays only against the seed it was forged
//!   under.

use sepe_keygen::KeyFormat;

/// A pair of distinct 15-byte keys that collide under the IPv4 OffXor
/// plan (loads at offsets 0 and 7, the second rotated left by 4 for being
/// clamped): the rotation stops *in-format* differences from cancelling,
/// but the combination stays linear over GF(2), so an adversary free to
/// flip arbitrary bits simply pre-rotates the second flip — bit 4 of
/// byte 1 (lane 1 of load 0) cancels against bit 0 of byte 8 (lane 1 of
/// load 1, rotated onto the same position).
#[must_use]
pub fn forged_ipv4_pair() -> (Vec<u8>, Vec<u8>) {
    let base = b"000.000.000.000".to_vec();
    let mut forged = base.clone();
    forged[1] ^= 0x10; // '0' -> ' ' — bit 12 of load 0
    forged[8] ^= 0x01; // '0' -> '1' — bit 8 of load 1, bit 12 after rotation
    (base, forged)
}

/// 64 distinct 15-byte keys that all hash identically under the IPv4
/// OffXor plan: every combination of flipping the rotation-compensated
/// bit pairs across bytes `1..=6` (bit 4 of byte `p` cancels bit 0 of
/// byte `p + 7`; byte 7 sits in both overlapping loads, so byte 0's pair
/// is unusable). Inserting them into a container floods one bucket —
/// `bucket_collisions()` reports 63.
#[must_use]
pub fn offxor_flood_keys() -> Vec<Vec<u8>> {
    let base = b"000.000.000.000".to_vec();
    let mut keys: Vec<Vec<u8>> = (0..64u32)
        .map(|mask| {
            let mut k = base.clone();
            for bit in 0..6 {
                if (mask >> bit) & 1 == 1 {
                    let p = bit + 1;
                    k[p] ^= 0x10;
                    k[p + 7] ^= 0x01;
                }
            }
            k
        })
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

/// Brute-forces `count` distinct keys that `hash_of` sends to a single
/// bucket of a `bucket_count`-bucket table — the generic HashDoS stream.
///
/// `hash_of` stands for whatever the adversary can compute offline: a
/// synthesized plan, the unkeyed fallback, or (after a seed leak) the
/// keyed hash under the stolen seed. `tag` varies the key namespace so
/// independent streams don't collide with each other. The target bucket
/// is whichever bucket the first candidate lands in.
///
/// Cost is ~`bucket_count` hash evaluations per key; callers should
/// pre-reserve their table so `bucket_count` stays stable while the
/// stream is inserted.
///
/// # Panics
///
/// Panics if `bucket_count` is zero.
#[must_use]
pub fn bucket_flood<H>(hash_of: H, bucket_count: u64, count: usize, tag: u64) -> Vec<Vec<u8>>
where
    H: Fn(&[u8]) -> u64,
{
    let candidates = (0u64..).map(|i| format!("atk-{tag:08x}-{i:016x}").into_bytes());
    flood_from(candidates, hash_of, bucket_count, count)
}

/// [`bucket_flood`] over keys of `format`: `count` distinct in-format keys
/// that `hash_of` sends to a single bucket of a `bucket_count`-bucket
/// table. `tag` picks where in the format's key space the search starts.
///
/// # Panics
///
/// Panics if `bucket_count` is zero, or if the format's key space runs
/// out before `count` keys share a bucket.
#[must_use]
pub fn format_flood<H>(
    format: KeyFormat,
    hash_of: H,
    bucket_count: u64,
    count: usize,
    tag: u64,
) -> Vec<Vec<u8>>
where
    H: Fn(&[u8]) -> u64,
{
    let space = format.space();
    let start = u128::from(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % space;
    let candidates = (0..space).map(|i| format.materialize(start + i).into_bytes());
    flood_from(candidates, hash_of, bucket_count, count)
}

/// The search both floods share: the first `count` candidates that land
/// in the bucket the first one lands in.
fn flood_from<H>(
    candidates: impl Iterator<Item = Vec<u8>>,
    hash_of: H,
    bucket_count: u64,
    count: usize,
) -> Vec<Vec<u8>>
where
    H: Fn(&[u8]) -> u64,
{
    assert!(bucket_count > 0, "bucket_count must be non-zero");
    let mut target = None;
    let keys: Vec<Vec<u8>> = candidates
        .filter(|key| {
            let bucket = hash_of(key) % bucket_count;
            *target.get_or_insert(bucket) == bucket
        })
        .take(count)
        .collect();
    assert_eq!(keys.len(), count, "the key space ran out");
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_baselines::CityHash;
    use sepe_core::hash::{ByteHash, SynthesizedHash};
    use sepe_core::synth::Family;
    use sepe_keygen::KeyFormat;

    #[test]
    fn the_forged_pair_collides_under_offxor() {
        let hash = SynthesizedHash::from_regex(&KeyFormat::Ipv4.regex(), Family::OffXor)
            .expect("ipv4 regex compiles");
        let (a, b) = forged_ipv4_pair();
        assert_ne!(a, b);
        assert_eq!(hash.hash_bytes(&a), hash.hash_bytes(&b));
    }

    #[test]
    fn the_flood_keys_are_64_distinct_one_hash() {
        let hash = SynthesizedHash::from_regex(&KeyFormat::Ipv4.regex(), Family::OffXor)
            .expect("ipv4 regex compiles");
        let keys = offxor_flood_keys();
        assert_eq!(keys.len(), 64);
        let h0 = hash.hash_bytes(&keys[0]);
        assert!(keys.iter().all(|k| hash.hash_bytes(k) == h0));
    }

    #[test]
    fn bucket_flood_defeats_an_unkeyed_hash() {
        let city = CityHash::new();
        let keys = bucket_flood(|k| city.hash_bytes(k), 1543, 32, 7);
        assert_eq!(keys.len(), 32);
        let target = city.hash_bytes(&keys[0]) % 1543;
        assert!(keys.iter().all(|k| city.hash_bytes(k) % 1543 == target));
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 32, "keys are distinct");
    }
}
