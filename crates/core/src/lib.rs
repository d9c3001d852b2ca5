//! # sepe-core
//!
//! A from-scratch Rust implementation of **SEPE** — *Automatic Synthesis of
//! Specialized Hash Functions* (CGO 2025). SEPE generates hash functions
//! specialized to particular byte formats, exploiting three constraints
//! (Figure 3 of the paper):
//!
//! * **length** — fixed-length keys allow fully unrolled loads;
//! * **const** — constant subsequences at fixed positions can be skipped;
//! * **range** — bytes ranging over restricted value sets have constant
//!   *bits*, removable with parallel bit extraction (`pext`).
//!
//! ## Pipeline
//!
//! 1. [`infer`] joins example keys in the quad-semilattice of [`lattice`]
//!    (or [`regex`] compiles a user-written expression) into a
//!    [`pattern::KeyPattern`];
//! 2. [`synth`] turns the pattern into a [`synth::Plan`] — the loads, masks
//!    and shifts of the specialized function;
//! 3. [`hash::SynthesizedHash`] executes the plan directly, and
//!    [`codegen`] emits equivalent C++ or Rust source.
//!
//! ## Quick start
//!
//! ```
//! use sepe_core::hash::{ByteHash, SynthesizedHash};
//! use sepe_core::synth::Family;
//!
//! // From examples (Figure 5a)...
//! let examples: [&[u8]; 2] = [b"000.000.000.000", b"555.255.912.803"];
//! let hash = SynthesizedHash::from_examples(examples, Family::Pext)?;
//! assert_ne!(
//!     hash.hash_bytes(b"192.168.000.001"),
//!     hash.hash_bytes(b"192.168.000.002"),
//! );
//!
//! // ...or from a regular expression (Figure 5b).
//! let hash = SynthesizedHash::from_regex(r"(([0-9]{3})\.){3}[0-9]{3}", Family::OffXor)?;
//! let _ = hash.hash_bytes(b"010.020.030.040");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod aes;
pub mod bits;
pub mod codegen;
pub mod fused;
pub mod guard;
pub mod hash;
pub mod infer;
pub mod lattice;
pub mod multi;
pub mod pattern;
pub mod plan_io;
pub mod regex;
pub mod synth;

pub use bits::Isa;
pub use guard::{FormatGuard, GuardMode, GuardedHash, Resynth, RouteMap};
pub use hash::{ByteHash, HashBatch, SynthError, SynthesizedHash};
pub use pattern::{BytePattern, KeyPattern};
pub use synth::{synthesize, Family, Plan, SearchStats};
