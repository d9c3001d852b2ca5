//! Unified observability for the SEPE runtime.
//!
//! The synthesize → guard → escalate → resynthesize pipeline spans several
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
//! * [`json`] — the workspace's one JSON codec ([`json::Json`], a strict
//!   parser and a canonical printer), shared by snapshots, plan bundles
//!   and bench reports.
//!
//! # One build
//!
//! There is no feature that compiles instrumentation out: every metric is
//! always recorded. Some are load-bearing: the
//! guard drift counters and a table's probe-length window drive the
//! drift and storm policies. The rest (lock-acquisition counters,
//! batch chunk counters, epoch accounting) are observability, kept on
//! because they are cheap and the harnesses reconcile them.
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
pub mod json;
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

/// Always `true`: instrumentation is compiled into every build.
///
/// Kept only because the `benchmark/` package prints it as
/// `obs_enabled`; nothing in the workspace calls it.
#[must_use]
pub const fn enabled() -> bool {
    true
}
