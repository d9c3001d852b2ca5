//! # sepe-driver
//!
//! The experiment driver of the SEPE evaluation (Section 4, "Benchmarks"):
//! "a program that generates keys and operates on them, using some data
//! structure; an experiment is a parameterization of the driver".
//!
//! The driver grid multiplies four containers, three key distributions,
//! three spreads and four execution modes into the paper's 144 experiments
//! per (hash function × key type); every experiment runs 10 000
//! *affectations* (generate a key, then insert / search / remove it).
//!
//! Measurements mirror the paper's metrics:
//!
//! * **B-Time** — wall time of the whole affectation loop (hashing plus
//!   container work);
//! * **H-Time** — wall time of hashing alone;
//! * **B-Coll** — bucket collisions of a container filled with 10 000 keys;
//! * **T-Coll** — pairs of distinct keys sharing a 64-bit hash code.
//!
//! ## Examples
//!
//! ```
//! use sepe_driver::{ExperimentConfig, HashId, run_experiment};
//! use sepe_keygen::{Distribution, KeyFormat};
//!
//! let cfg = ExperimentConfig::quick(KeyFormat::Ssn, Distribution::Normal);
//! let hash = HashId::Pext.build(KeyFormat::Ssn, sepe_core::Isa::Native);
//! let m = run_experiment(&cfg, hash.as_ref());
//! assert!(m.b_time.as_nanos() > 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analysis;
pub mod config;
pub mod measure;
pub mod registry;

pub use config::{ContainerKind, ExperimentConfig, Mode};
pub use measure::{run_experiment, Measurement};
pub use registry::HashId;
