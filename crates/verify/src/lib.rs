//! # sepe-verify
//!
//! Differential-correctness harness for the SEPE reproduction.
//!
//! The fast hash implementations in `sepe-core` are tuned code: fully
//! unrolled fast paths, hardware `pext`/AES-NI dispatch, clamped overlapping
//! loads. This crate re-derives what each synthesized [`Plan`] *means* from
//! first principles and checks the tuned code against that meaning:
//!
//! * [`interp`] — an independent, deliberately slow plan interpreter built
//!   on the bit-level reference loops (`pext_reference`, `pdep_reference`)
//!   and the table-driven AES round primitives, with every spec constant
//!   re-declared locally so a typo in `sepe-core` cannot silently agree
//!   with itself;
//! * [`invariants`] — paper-derived structural checks on plans: load
//!   coverage, mask/shift disjointness, the Pext bijection of Section 4.2
//!   (verified constructively, by inverting hashes back into keys), and
//!   soundness of the inference lattice;
//! * [`formats`] — a seeded random key-format generator, so the checks run
//!   over hundreds of formats nobody hand-picked;
//! * [`differential`] — the cross-check driver: tuned hash vs. interpreter,
//!   over both ISA paths and multiple seeds;
//! * [`batch`] — the batched twin of `differential`: `hash_batch` vs. the
//!   scalar path vs. the interpreter at widths 1/3/4/7/8 (ragged tails
//!   included), with hardware `pext` dispatch forced both on and off;
//! * [`model`] — a model checker replaying random operation sequences
//!   against `std::collections::HashMap` to validate the container layer;
//! * [`faults`] — a fault injector that mutates pool keys off-format
//!   (length edits, byte flips out of the allowed ranges) and model-checks
//!   `GuardedHash`-backed containers, including the drift-triggered
//!   degradation transition, under injected faults;
//! * [`migration`] — a chaos harness for the incremental migration state
//!   machine: interrupted epochs with drift bursts model-checked against an
//!   eagerly drained twin and `std::collections::HashMap` (contents *and*
//!   drift counters must agree exactly), batched operations across epoch
//!   boundaries, and typed rejection of corrupted plan bundles;
//! * [`concurrent`] — a multi-threaded model checker for the lock-striped
//!   `ShardedMap`: real OS threads over disjoint key partitions against a
//!   `Mutex<HashMap>` twin, with chaos-mode drift bursts that degrade one
//!   shard and resynthesize it inline while its siblings keep serving;
//! * [`attacker`] — scripted HashDoS attackers: the linear OffXor
//!   forgeries promoted from the repository's adversarial tests, plus a
//!   brute-force bucket-flood generator that works against any
//!   adversary-computable hash;
//! * [`adversarial`] — the HashDoS chaos harness: crafted collision
//!   storms (including a simulated seed leak) against single maps, the
//!   batched paths, and a concurrently hammered `ShardedMap`, asserting
//!   bounded chains after escalation, twin agreement throughout, exact
//!   escalation-counter transcripts, and that benign churn never trips
//!   the detector;
//! * [`synthesis`] — the minimality suite: every plan must be valid, use
//!   exactly as many loads as an independent minimum-cover reference, and
//!   take at most one step per pattern byte.
//! * [`transitions`] — the exhaustive transition check: every sequence of
//!   data operations and maintenance calls up to a small depth on a tiny
//!   guarded map and multimap, against a `HashMap` twin and an eagerly
//!   drained twin's mode and ladder counters.
//!
//! [`Plan`]: sepe_core::synth::Plan

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adversarial;
pub mod attacker;
pub mod batch;
pub mod concurrent;
pub mod differential;
pub mod faults;
pub mod formats;
pub mod interp;
pub mod invariants;
pub mod migration;
pub mod model;
pub mod synthesis;
pub mod transitions;
