//! Runtime-executable hash functions.
//!
//! [`ByteHash`] is the common interface of every hash function in this
//! repository — synthesized and baseline alike. [`SynthesizedHash`] executes
//! a [`crate::synth::Plan`] directly: the same loads, masks and shifts the
//! emitted C++/Rust source performs, so measurements on the plan transfer to
//! the generated code. [`adapter`] bridges to `std::hash` so synthesized
//! functions drop into `HashMap`/`HashSet` the way SEPE's C++ functors drop
//! into `std::unordered_map` (Figure 5d).

pub mod adapter;
pub(crate) mod batch;
pub mod keyed;
mod stl;
mod synthesized;

pub use batch::HashBatch;
pub use keyed::{siphash13, EntropySeedSource, FixedSeedSource, SeedSource};
pub use stl::{stl_hash_bytes, DEFAULT_STL_SEED};
pub use synthesized::{SynthError, SynthesizedHash};

use crate::fused::FusedKernel;
use crate::guard::{FormatGuard, RouteMap};
use crate::pattern::KeyPattern;

/// A hash function over byte strings.
///
/// This is the shape of every function the paper evaluates: keys go in as
/// bytes, a 64-bit hash code comes out. Implementations are expected to be
/// deterministic and cheap to call.
///
/// # Examples
///
/// ```
/// use sepe_core::hash::{stl_hash_bytes, ByteHash, DEFAULT_STL_SEED};
///
/// struct Stl;
/// impl ByteHash for Stl {
///     fn hash_bytes(&self, key: &[u8]) -> u64 {
///         stl_hash_bytes(key, DEFAULT_STL_SEED)
///     }
/// }
/// assert_eq!(Stl.hash_bytes(b"abc"), Stl.hash_bytes(b"abc"));
/// ```
pub trait ByteHash {
    /// Hashes `key` to a 64-bit code.
    fn hash_bytes(&self, key: &[u8]) -> u64;

    /// Hashes `key` and says whether the hash *vouches* for it: `true`
    /// promises that any other key this hasher vouches for has a different
    /// hash, so a table may take a hash match between two vouched keys as
    /// a key match. The default never vouches; only a format-checking
    /// hasher over an injective plan can (`GuardedHash` in `Guarded` or
    /// `Keyed` mode).
    #[inline]
    fn hash_routed(&self, key: &[u8]) -> (u64, bool) {
        (self.hash_bytes(key), false)
    }

    /// Whether distinct keys of `pattern` always get distinct hashes.
    /// Defaults to `false`; [`SynthesizedHash`] answers with
    /// [`Plan::injective_over`](crate::synth::Plan::injective_over). The
    /// answer says nothing about keys outside `pattern`, so an unguarded
    /// hasher never vouches through [`ByteHash::hash_routed`].
    fn injective_over(&self, pattern: &KeyPattern) -> bool {
        let _ = pattern;
        false
    }

    /// This hash and `guard` compiled into one load schedule that returns
    /// the hash and the guard's verdict in one pass (see
    /// [`crate::fused`]), or `None` when the shape has none. Defaults to
    /// `None`; [`SynthesizedHash`] fuses its fixed-word plans.
    fn fused_with(&self, guard: &FormatGuard) -> Option<FusedKernel> {
        let _ = guard;
        None
    }

    /// A map that re-files the keys `from` vouches for under this
    /// hasher's routes from their cached hashes alone: for every key
    /// `from.hash_routed` vouches for with hash `h`, `self.hash_routed`
    /// returns `(map.map(h), true)`. A table moving its entries from one
    /// routing to the next uses it instead of reading and hashing their
    /// key bytes. Defaults to `None`, as do the `&T`, `Box` and `Arc`
    /// forwarders; a `GuardedHash` answers between its guarded and keyed
    /// routes of one plan and guard (see [`RouteMap`]).
    fn refile_map(&self, from: &Self) -> Option<RouteMap>
    where
        Self: Sized,
    {
        let _ = from;
        None
    }
}

impl<T: ByteHash + ?Sized> ByteHash for &T {
    fn hash_bytes(&self, key: &[u8]) -> u64 {
        (**self).hash_bytes(key)
    }

    #[inline]
    fn hash_routed(&self, key: &[u8]) -> (u64, bool) {
        (**self).hash_routed(key)
    }

    fn injective_over(&self, pattern: &KeyPattern) -> bool {
        (**self).injective_over(pattern)
    }

    fn fused_with(&self, guard: &FormatGuard) -> Option<FusedKernel> {
        (**self).fused_with(guard)
    }
}

impl<T: ByteHash + ?Sized> ByteHash for Box<T> {
    fn hash_bytes(&self, key: &[u8]) -> u64 {
        (**self).hash_bytes(key)
    }

    #[inline]
    fn hash_routed(&self, key: &[u8]) -> (u64, bool) {
        (**self).hash_routed(key)
    }

    fn injective_over(&self, pattern: &KeyPattern) -> bool {
        (**self).injective_over(pattern)
    }

    fn fused_with(&self, guard: &FormatGuard) -> Option<FusedKernel> {
        (**self).fused_with(guard)
    }
}

impl<T: ByteHash + ?Sized> ByteHash for std::sync::Arc<T> {
    fn hash_bytes(&self, key: &[u8]) -> u64 {
        (**self).hash_bytes(key)
    }

    #[inline]
    fn hash_routed(&self, key: &[u8]) -> (u64, bool) {
        (**self).hash_routed(key)
    }

    fn injective_over(&self, pattern: &KeyPattern) -> bool {
        (**self).injective_over(pattern)
    }

    fn fused_with(&self, guard: &FormatGuard) -> Option<FusedKernel> {
        (**self).fused_with(guard)
    }
}
