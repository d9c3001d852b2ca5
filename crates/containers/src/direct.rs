//! `DirectMap` — specialized *storage*, the paper's future-work direction.
//!
//! The conclusion of the paper notes: "our techniques specialize hashing,
//! but not storage and retrieval; we see room for generating code for
//! specialized data structures". This container takes that step for the
//! strongest case the synthesizer certifies: when the Pext plan is a
//! *bijection* from format keys to `b`-bit integers
//! ([`Plan::bijection_bits`](sepe_core::synth::Plan::bijection_bits)), the hash value *is* the element's address —
//! Kraska et al.'s "the key itself can be used as an offset", which the
//! paper quotes twice.
//!
//! No buckets, no chains, no stored keys, no collision handling: a lookup
//! is one hash and one paged-array access. The trade-off is the same one
//! SEPE itself makes: correctness is only guaranteed for keys of the
//! synthesized format (checked with `debug_assert!` in debug builds).

use sepe_core::hash::SynthesizedHash;
use sepe_core::pattern::KeyPattern;
use sepe_core::synth::{synthesize, Family};
use sepe_core::{ByteHash, Isa};
use std::collections::BTreeMap;
use std::fmt;

/// Slots per page (2¹² values per allocated page).
const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Index widths up to this use one flat array (2²² slots) instead of the
/// paged directory: for dense or narrow key spaces, a lookup is literally
/// `array[hash]`.
const FLAT_BITS: u32 = 22;

/// Error returned when a key format does not admit a bijective index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectMapError {
    /// The format's variable bits exceed 64, or the synthesized fields
    /// overlap, so distinct keys could share an index.
    NotBijective {
        /// Variable bits the format actually has.
        variable_bits: usize,
    },
    /// The format is variable-length or shorter than a machine word; the
    /// synthesizer produced no fixed-word plan.
    UnsupportedShape,
}

impl fmt::Display for DirectMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirectMapError::NotBijective { variable_bits } => write!(
                f,
                "key format has {variable_bits} variable bits; a direct index needs a \
                 bijection into 64 bits"
            ),
            DirectMapError::UnsupportedShape => {
                write!(f, "key format is not a fixed-length word-hashable shape")
            }
        }
    }
}

impl std::error::Error for DirectMapError {}

/// A map indexed directly by the Pext bijection of its key format.
///
/// # Examples
///
/// ```
/// use sepe_containers::direct::DirectMap;
/// use sepe_core::regex::Regex;
///
/// let ssn = Regex::compile(r"\d{3}-\d{2}-\d{4}")?;
/// let mut m: DirectMap<&str> = DirectMap::new(&ssn)?;
/// m.insert(b"123-45-6789", "alice");
/// assert_eq!(m.get(b"123-45-6789"), Some(&"alice"));
/// assert_eq!(m.get(b"123-45-6780"), None);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DirectMap<V> {
    hash: SynthesizedHash,
    pattern: KeyPattern,
    store: Store<V>,
    len: usize,
    bits: u32,
}

/// Backing storage: flat for narrow index spaces, paged for wide ones.
#[derive(Debug)]
enum Store<V> {
    Flat(Vec<Option<V>>),
    Paged(BTreeMap<u64, Box<[Option<V>]>>),
}

impl<V> Store<V> {
    fn slot_mut(&mut self, idx: u64) -> &mut Option<V> {
        match self {
            Store::Flat(v) => &mut v[idx as usize],
            Store::Paged(pages) => {
                let page = pages
                    .entry(idx >> PAGE_BITS)
                    .or_insert_with(|| (0..PAGE_SIZE).map(|_| None).collect());
                &mut page[(idx as usize) & (PAGE_SIZE - 1)]
            }
        }
    }

    fn slot(&self, idx: u64) -> Option<&Option<V>> {
        match self {
            Store::Flat(v) => v.get(idx as usize),
            Store::Paged(pages) => pages
                .get(&(idx >> PAGE_BITS))
                .map(|p| &p[(idx as usize) & (PAGE_SIZE - 1)]),
        }
    }

    fn existing_slot_mut(&mut self, idx: u64) -> Option<&mut Option<V>> {
        match self {
            Store::Flat(v) => v.get_mut(idx as usize),
            Store::Paged(pages) => pages
                .get_mut(&(idx >> PAGE_BITS))
                .map(|p| &mut p[(idx as usize) & (PAGE_SIZE - 1)]),
        }
    }
}

impl<V> DirectMap<V> {
    /// Builds a direct map for a key format.
    ///
    /// # Errors
    ///
    /// Returns [`DirectMapError`] when the format does not admit a
    /// bijective Pext index (more than 64 variable bits, variable length,
    /// or a sub-word key that SEPE refuses).
    pub fn new(pattern: &KeyPattern) -> Result<Self, DirectMapError> {
        let plan = synthesize(pattern, Family::Pext);
        if plan.is_fallback() || !pattern.is_fixed_len() {
            return Err(DirectMapError::UnsupportedShape);
        }
        // The plan must read every variable bit into disjoint fields, or two
        // distinct keys could still coincide.
        let bits = match plan.bijection_bits() {
            Some(bits) if plan.injective_over(Family::Pext, pattern) => bits,
            _ => {
                return Err(DirectMapError::NotBijective {
                    variable_bits: pattern.variable_bits(),
                })
            }
        };
        let store = if bits <= FLAT_BITS {
            Store::Flat((0..1usize << bits).map(|_| None).collect())
        } else {
            Store::Paged(BTreeMap::new())
        };
        Ok(DirectMap {
            hash: SynthesizedHash::new(plan, Family::Pext, Isa::Native),
            pattern: pattern.clone(),
            store,
            len: 0,
            bits,
        })
    }

    /// Whether the map uses one flat array (narrow index spaces) rather
    /// than the paged directory.
    #[must_use]
    pub fn is_flat(&self) -> bool {
        matches!(self.store, Store::Flat(_))
    }

    /// Number of significant index bits (the format's variable bits).
    #[must_use]
    pub fn index_bits(&self) -> u32 {
        self.bits
    }

    /// Number of stored values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated pages (each 2¹²-slot wide); flat maps
    /// count as one page.
    #[must_use]
    pub fn page_count(&self) -> usize {
        match &self.store {
            Store::Flat(_) => 1,
            Store::Paged(pages) => pages.len(),
        }
    }

    #[inline]
    fn index_of(&self, key: &[u8]) -> u64 {
        debug_assert!(
            self.pattern.matches(key),
            "DirectMap key {key:?} does not match the synthesized format"
        );
        self.hash.hash_bytes(key)
    }

    /// Inserts a value for a format key, returning the previous value.
    pub fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        let idx = self.index_of(key);
        let prev = self.store.slot_mut(idx).replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Looks up a format key.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<&V> {
        let idx = self.index_of(key);
        self.store.slot(idx)?.as_ref()
    }

    /// Looks up a format key, mutably.
    pub fn get_mut(&mut self, key: &[u8]) -> Option<&mut V> {
        let idx = self.index_of(key);
        self.store.existing_slot_mut(idx)?.as_mut()
    }

    /// Removes a format key, returning its value.
    pub fn remove(&mut self, key: &[u8]) -> Option<V> {
        let idx = self.index_of(key);
        let removed = self.store.existing_slot_mut(idx)?.take();
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Removes every value (paged storage is released; flat storage is
    /// reset in place).
    pub fn clear(&mut self) {
        match &mut self.store {
            Store::Flat(v) => v.iter_mut().for_each(|s| *s = None),
            Store::Paged(pages) => pages.clear(),
        }
        self.len = 0;
    }

    /// Iterates over stored values in index order.
    pub fn values(&self) -> Box<dyn Iterator<Item = &V> + '_> {
        match &self.store {
            Store::Flat(v) => Box::new(v.iter().filter_map(Option::as_ref)),
            Store::Paged(pages) => Box::new(
                pages
                    .values()
                    .flat_map(|p| p.iter().filter_map(Option::as_ref)),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_core::regex::Regex;

    fn ssn_pattern() -> KeyPattern {
        Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("ssn regex compiles")
    }

    #[test]
    fn insert_get_remove() {
        let mut m: DirectMap<u32> = DirectMap::new(&ssn_pattern()).expect("ssn is bijective");
        assert_eq!(m.index_bits(), 36);
        for i in 0..5000u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 997, i % 89, i);
            assert_eq!(m.insert(key.as_bytes(), i), None);
        }
        assert_eq!(m.len(), 5000);
        for i in 0..5000u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 997, i % 89, i);
            assert_eq!(m.get(key.as_bytes()), Some(&i));
        }
        for i in 0..5000u32 {
            let key = format!("{:03}-{:02}-{:04}", i % 997, i % 89, i);
            assert_eq!(m.remove(key.as_bytes()), Some(i));
        }
        assert!(m.is_empty());
    }

    #[test]
    fn replaces_like_a_map() {
        let mut m: DirectMap<&str> = DirectMap::new(&ssn_pattern()).expect("bijective");
        assert_eq!(m.insert(b"111-11-1111", "a"), None);
        assert_eq!(m.insert(b"111-11-1111", "b"), Some("a"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(b"111-11-1111"), Some(&"b"));
    }

    #[test]
    fn distinct_keys_never_clash() {
        // Exhaustive over a dense sub-space: the bijection guarantee.
        let mut m: DirectMap<u32> = DirectMap::new(&ssn_pattern()).expect("bijective");
        for i in 0..10_000u32 {
            let key = format!("000-00-{i:04}");
            assert_eq!(m.insert(key.as_bytes(), i), None, "index clash at {i}");
        }
        assert_eq!(m.len(), 10_000);
    }

    #[test]
    fn rejects_wide_formats() {
        // IPv6: 8 x 16 fully-variable hex bytes >> 64 variable bits.
        let p = Regex::compile(r"([0-9a-f]{4}:){7}[0-9a-f]{4}").expect("regex compiles");
        match DirectMap::<u32>::new(&p) {
            Err(DirectMapError::NotBijective { variable_bits }) => {
                assert!(variable_bits > 64);
            }
            other => panic!("expected NotBijective, got {other:?}"),
        }
    }

    #[test]
    fn rejects_variable_length_formats() {
        let p = Regex::compile(r"[0-9]{8}([0-9]{4})?").expect("regex compiles");
        assert!(matches!(
            DirectMap::<u32>::new(&p),
            Err(DirectMapError::UnsupportedShape)
        ));
    }

    #[test]
    fn rejects_short_formats() {
        let p = Regex::compile(r"\d{4}").expect("regex compiles");
        assert!(matches!(
            DirectMap::<u32>::new(&p),
            Err(DirectMapError::UnsupportedShape)
        ));
    }

    #[test]
    fn narrow_formats_use_flat_storage() {
        // 5 digits + 3 constant bytes: 20 variable bits -> flat array.
        let p = Regex::compile(r"\d{5}-us").expect("regex compiles");
        let mut m: DirectMap<u16> = DirectMap::new(&p).expect("bijective");
        assert!(m.is_flat());
        assert_eq!(m.index_bits(), 20);
        for i in 0..10_000u16 {
            let key = format!("{:05}-us", u32::from(i) * 7 % 100_000);
            m.insert(key.as_bytes(), i);
        }
        assert!(m.len() <= 10_000);
        assert_eq!(m.get(b"00000-us"), Some(&0));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(b"00000-us"), None);
    }

    #[test]
    fn wide_formats_use_paged_storage() {
        let m: DirectMap<u16> = DirectMap::new(&ssn_pattern()).expect("bijective");
        assert!(!m.is_flat());
    }

    #[test]
    fn pages_stay_sparse() {
        let mut m: DirectMap<u8> = DirectMap::new(&ssn_pattern()).expect("bijective");
        // Keys varying only in the first three digits map to the low bits
        // of the extraction, so they cluster into one or two pages.
        for i in 0..1000u32 {
            let key = format!("{i:03}-00-0000");
            m.insert(key.as_bytes(), 1);
        }
        assert_eq!(m.len(), 1000);
        assert!(
            m.page_count() <= 2,
            "clustered keys share pages, got {}",
            m.page_count()
        );
        assert_eq!(m.values().count(), m.len());
    }
}
