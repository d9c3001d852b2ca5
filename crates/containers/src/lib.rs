//! # sepe-containers
//!
//! Bucketed unordered containers modeled on libstdc++'s `std::unordered_*`:
//! separate chaining, prime bucket counts, and `hash % bucket_count`
//! indexing. The paper's evaluation needs three things `std::collections`
//! hides, so these containers expose them:
//!
//! * **bucket introspection** — Section 4.2 counts *bucket collisions* by
//!   iterating over buckets;
//! * **pluggable index policies** — RQ7 (Figures 17/18) studies
//!   "low-mixing" containers that index buckets with only the most
//!   significant hash bits ([`BucketPolicy::HighBits`]);
//! * **multi variants** — RQ9 (Figure 20) compares `unordered_map/set`
//!   against their `multimap/multiset` counterparts.
//!
//! All four containers hash through [`sepe_core::ByteHash`], the same
//! interface the synthesized and baseline functions implement.
//!
//! ## Examples
//!
//! ```
//! use sepe_containers::UnorderedMap;
//! use sepe_core::hash::SynthesizedHash;
//! use sepe_core::synth::Family;
//!
//! let hash = SynthesizedHash::from_regex(r"\d{3}-\d{2}-\d{4}", Family::Pext)?;
//! let mut map = UnorderedMap::with_hasher(hash);
//! map.insert("123-45-6789".to_owned(), "alice");
//! assert_eq!(map.get("123-45-6789"), Some(&"alice"));
//! assert!(map.bucket_count() >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod direct;
mod maintenance;
mod map;
mod multimap;
mod multiset;
pub mod policy;
pub mod primes;
mod set;
pub mod sharded;
mod table;

pub use direct::DirectMap;
pub use map::UnorderedMap;
pub use multimap::UnorderedMultiMap;
pub use multiset::UnorderedMultiSet;
pub use policy::{AttackPolicy, AttackSignals, BucketPolicy, DriftPolicy};
pub use set::UnorderedSet;
pub use sharded::{ShardedMap, ShardedSet};
