//! Unified observability for the SEPE runtime.
//!
//! The synthesize → guard → degrade → resynthesize pipeline spans several
//! subsystems — format guards, migration epochs, lock-striped shards, the
//! HashDoS escalation ladder — and each of them grew its own ad-hoc
//! telemetry. This crate gives them one dependency-light surface:
//!
//! * [`Counter`] / [`Gauge`] — relaxed-atomic primitives with the pinned
//!   saturating-overflow semantics the drift counters have relied on since
//!   they became lock-free: a counter that would wrap is stored as
//!   `u64::MAX` and stays there.
//! * [`Histogram`] — a log-bucketed (powers of two, 65 buckets) value
//!   histogram for latencies and sizes, summarizable through
//!   [`sepe_stats`] boxplots.
//! * [`Registry`] — labeled metric families with canonical ids
//!   (`name{k="v",...}`, labels sorted), owning counters handed to hot
//!   paths and *exporting* read-only views of state that lives elsewhere
//!   (a guard's drift counters, a table's epoch counters) through
//!   closures.
//! * [`EventTrace`] — a bounded ring of typed events ([`ObsEvent`]) that
//!   never blocks the recording side beyond one short mutex hold, and
//!   counts what it had to drop.
//! * [`Snapshot`] — a deterministic export: canonical ordering, values as
//!   decimal strings (exact for the full `u64` range), schema
//!   [`SCHEMA`](snapshot::SCHEMA) = `sepe-metrics/v1`, and a strict parser
//!   that rejects corruption with typed [`SnapshotError`]s.
//!
//! # The `obs` façade
//!
//! The metric primitives are always compiled and always correct — guard
//! drift counters and a table's probe-length window are load-bearing
//! (the degradation and storm policies read them), so they cannot be
//! compiled away. What *can* be compiled away is the pure observability
//! instrumentation layered on the hot paths: lock-acquisition counters,
//! batch chunk counters, epoch accounting. Call sites gate those bumps
//! on [`enabled()`], a `const fn` on `cfg!(feature = "obs")`, so an
//! `obs`-off build folds the whole branch to nothing.
//!
//! Locking discipline: counters, gauges, and histograms are wait-free on
//! the write path. [`Counter::add`] and [`Histogram::observe`] are one
//! relaxed RMW per counter and exact under any number of writers;
//! [`Counter::add_single_writer`] and [`Histogram::observe_single_writer`]
//! are a relaxed load and store with no locked instruction, exact from
//! one writer at a time and lossy (never inflating) under racing
//! writers. The registry and trace use a mutex, but only on
//! registration, snapshot, and event push — never inside a per-key hot
//! loop.

pub mod event;
pub mod histogram;
pub mod metrics;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use event::ObsEvent;
pub use histogram::{Histogram, BUCKETS};
pub use metrics::{Counter, Gauge};
pub use registry::{metric_id, Registry, RegistryError};
pub use snapshot::{HistogramSnapshot, Snapshot, SnapshotError, SCHEMA};
pub use trace::EventTrace;

/// Whether pure-observability instrumentation is compiled in.
///
/// This is `const`, so `if sepe_obs::enabled() { ... }` disappears
/// entirely from `obs`-off builds — the near-zero-cost façade the hot
/// paths are instrumented behind. Load-bearing counters (guard drift,
/// the probe-length window, escalation-ladder counts) must *not* be
/// gated on this.
#[inline(always)]
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}
