//! The drift and storm ladder every guarded container shares: the one
//! home of DESIGN §16's rung × cause table. [`Maintenance`] is a table's
//! ladder state; a [`Controller`] pairs it with the table, takes every
//! transition through one private `step`, and returns each judgment's
//! [`Transition`]. `UnorderedMap` and `UnorderedMultiMap` delegate here.
//! A drift trip is the one judgment that takes no step: off-format keys
//! already route to the tagged fallback, so the trip is recorded and held
//! on the guarded rung, and only an applied resynthesis acts on it.
//!
//! The controller also owns the bulk of every migration epoch's drain:
//! each judgment first drains [`DRAIN_PER_OP`] entries per data operation
//! the table served since the controller last drained, in one batched
//! sweep, so an epoch closes on the maintenance clock rather than on
//! whichever data operations land inside it.

use crate::policy::{AttackPolicy, AttackSignals, DriftPolicy};
use crate::table::{RawTable, DRAIN_PER_OP};
use sepe_core::guard::{GuardMode, GuardedHash, Resynth};
use sepe_core::hash::keyed::SeedSource;
use sepe_core::hash::ByteHash;
use sepe_core::SynthesizedHash;
use sepe_obs::histogram::BUCKETS;
use std::sync::atomic::Ordering;

/// Doublings of [`AttackPolicy::quiet_streak`] a storm rung can accrue
/// while its flood stays resident: the longest streak is 16× the policy's.
pub(crate) const MAX_HOLD_DOUBLINGS: u32 = 4;

/// One judgment a maintenance call took: a rung change, or a drift trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transition {
    /// The drift window tripped on `Guarded` and the trip is now held:
    /// the routing, the stored entries and the rung are unchanged. Carries
    /// the tripping window's counts, the only evidence the trip leaves.
    Drift {
        /// Off-format keys in the window that tripped.
        off_format: u64,
        /// Keys observed in that window.
        total: u64,
    },
    /// `Guarded` → `Degraded` on request (`degrade_now`), held for drift.
    Degrade,
    /// One storm rung up: `Guarded` or `Degraded` → `Keyed`.
    Escalate,
    /// A storm on the keyed rung: the same rung under a fresh seed.
    Rotate,
    /// A storm rung left after a quiet streak: back to `Guarded`.
    Deescalate,
    /// An applied resynthesis: back to `Guarded` under a widened plan.
    Resynth,
}

/// Why a table left [`GuardMode::Guarded`]: the signal that took it off,
/// and so the only evidence that may bring it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cause {
    /// `degrade_now` flipped the table. The degraded hasher counts no
    /// drift, so only an applied resynthesis leaves.
    Drift,
    /// The storm detector escalated. A quiet window leaves, once the
    /// routing it returns to would not itself look flooded.
    Storm,
}

/// A table's ladder state: why it left the guarded rung, the held drift
/// trip, the stormy and calm streaks that keep one noisy snapshot from
/// flipping the hasher, and the probe-histogram baseline of the per-tick
/// window.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Maintenance {
    /// Why the current rung was entered; `None` on the guarded rung (and
    /// on one reached outside this controller, treated as a storm's).
    cause: Option<Cause>,
    /// The held drift trip: `(off_format, total)` of the window that
    /// tripped on the guarded rung. While it is held the drift judgment
    /// does not trip again; every transition clears it.
    trip: Option<(u64, u64)>,
    /// Consecutive observations that looked like a storm.
    storm_streak: u32,
    /// Consecutive calm observations on a storm rung.
    quiet_streak: u32,
    /// Times the current storm rung's quiet streak ended with the guarded
    /// routing still skewed on the stored entries; each doubles the next
    /// streak, up to [`MAX_HOLD_DOUBLINGS`]. Reset by every transition.
    hold: u32,
    /// Probe-length bucket counts at the previous tick: each tick judges
    /// only the probes since, so a long-past storm does not stay visible.
    probe_baseline: [u64; BUCKETS],
    /// [`RawTable::epoch_ops`] at the controller's last drain, or when it
    /// last opened an epoch: the drain owes a share of the operations
    /// since, never of those before the epoch.
    drained_at: u64,
}

impl Default for Maintenance {
    fn default() -> Self {
        Maintenance {
            cause: None,
            trip: None,
            storm_streak: 0,
            quiet_streak: 0,
            hold: 0,
            probe_baseline: [0; BUCKETS],
            drained_at: 0,
        }
    }
}

/// Upper bound on the `q`-quantile of the probe-length observations
/// between two bucket-count snapshots (same semantics as
/// [`sepe_obs::Histogram::quantile`], over the delta). `None` when the
/// window saw nothing.
fn windowed_quantile(before: &[u64; BUCKETS], after: &[u64; BUCKETS], q: f64) -> Option<u64> {
    let mut total = 0u64;
    for (b, a) in before.iter().zip(after.iter()) {
        total = total.saturating_add(a.saturating_sub(*b));
    }
    if total == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, (b, a)) in before.iter().zip(after.iter()).enumerate() {
        seen = seen.saturating_add(a.saturating_sub(*b));
        if seen >= rank {
            return Some(sepe_obs::histogram::bucket_bounds(i).1);
        }
    }
    Some(u64::MAX)
}

impl Maintenance {
    /// The held drift trip's window counts, `(off_format, total)`.
    pub(crate) fn drift_trip(&self) -> Option<(u64, u64)> {
        self.trip
    }

    /// The controller of `table`, whose ladder state this is.
    pub(crate) fn on<'a, K, V, F, G>(
        &'a mut self,
        table: &'a mut RawTable<K, V, GuardedHash<F, G>>,
    ) -> Controller<'a, K, V, F, G> {
        Controller { state: self, table }
    }
}

/// A guarded table and its ladder state, borrowed together.
pub(crate) struct Controller<'a, K, V, F, G> {
    state: &'a mut Maintenance,
    table: &'a mut RawTable<K, V, GuardedHash<F, G>>,
}

impl<K, V, F, G> Controller<'_, K, V, F, G>
where
    K: Eq + AsRef<[u8]>,
    F: ByteHash + Clone,
    G: ByteHash + Clone,
{
    fn mode(&self) -> GuardMode {
        self.table.hasher().mode()
    }

    /// Drains the open epoch's share of the data operations served since
    /// the last drain, [`DRAIN_PER_OP`] entries each, in one batched sweep.
    /// Every judgment calls it first, so two judgments in one tick drain
    /// once, and a tick after a long stretch without one drains at most
    /// the share of the operations served since the epoch opened.
    fn drain_served(&mut self) {
        let clock = self.table.epoch_ops();
        let served = clock - self.state.drained_at;
        self.state.drained_at = clock;
        if served > 0 {
            let budget = usize::try_from(served).unwrap_or(usize::MAX);
            self.table.migrate(budget.saturating_mul(DRAIN_PER_OP));
        }
    }

    /// The one transition mechanism: freezes the routing the entries are
    /// filed under (only when an epoch opens), lets `flip` change the
    /// hasher (`false`: nothing happens), opens a migration epoch from the
    /// frozen routing to the new one or merges into the open one, restarts
    /// the drain clock there, bumps `t`'s ladder counter, records the cause,
    /// clears a held drift trip and restarts the quiet streak and hold.
    /// Frozen copies are counter-silent and keep a keyed seed through a
    /// rotation.
    fn step(
        &mut self,
        t: Transition,
        flip: impl FnOnce(&mut GuardedHash<F, G>) -> bool,
    ) -> Option<Transition> {
        // The routing the entries are filed under is frozen only when an
        // epoch opens: a merge into an open epoch keeps that epoch's own.
        let old = self
            .table
            .opens_epoch()
            .then(|| self.table.hasher().epoch_frozen(self.mode()));
        if !flip(self.table.hasher_mut()) {
            return None;
        }
        let rehasher = self.table.hasher().epoch_frozen(self.mode());
        self.table.begin_migration(old, rehasher);
        self.state.drained_at = self.table.epoch_ops();
        let obs = self.table.obs();
        self.state.cause = match t {
            Transition::Drift { .. } | Transition::Degrade => Some(Cause::Drift),
            Transition::Escalate => {
                obs.escalations.inc();
                Some(Cause::Storm)
            }
            Transition::Rotate => {
                obs.escalations.inc();
                obs.seed_rotations.inc();
                Some(Cause::Storm)
            }
            Transition::Deescalate => {
                obs.deescalations.inc();
                None
            }
            Transition::Resynth => None,
        };
        self.state.trip = None;
        self.state.quiet_streak = 0;
        self.state.hold = 0;
        Some(t)
    }

    /// `UnorderedMap::degrade_now`: only a guarded table degrades.
    pub(crate) fn degrade(mut self) -> Option<Transition> {
        if self.mode() != GuardMode::Guarded {
            return None;
        }
        self.step(Transition::Degrade, |h| {
            h.degrade();
            true
        })
    }

    /// `UnorderedMap::maybe_degrade`: the one drift-window judgment, after
    /// the drain on every rung. A trip on the guarded rung is held, not
    /// acted on: off-format keys already take the tagged fallback, so it
    /// records the window, rolls it and changes no routing. While it is
    /// held, full windows roll without tripping again.
    pub(crate) fn maybe_degrade(mut self, policy: &DriftPolicy) -> Option<Transition> {
        self.drain_served();
        if self.mode() != GuardMode::Guarded {
            return None;
        }
        let stats = self.table.hasher().stats();
        let (off_format, total) = stats.window_counts();
        let trips = self.state.trip.is_none() && policy.should_degrade(off_format, total);
        if trips || policy.window_full(total) {
            stats.roll_window();
        }
        trips.then(|| {
            self.state.trip = Some((off_format, total));
            Transition::Drift { off_format, total }
        })
    }

    /// `UnorderedMap::escalate_now`: to the keyed rung in one step, from
    /// `Guarded` or from the drift rung `Degraded` alike (both are
    /// unkeyed and share the off-format route), or a rotation on the
    /// keyed rung.
    pub(crate) fn escalate(mut self, seeds: &impl SeedSource) -> Transition {
        let mode = self.mode();
        let t = match mode {
            GuardMode::Keyed => Transition::Rotate,
            GuardMode::Guarded | GuardMode::Degraded => Transition::Escalate,
        };
        self.step(t, |h| {
            match mode {
                GuardMode::Guarded | GuardMode::Degraded => h.escalate_keyed(seeds),
                GuardMode::Keyed => h.rotate_seed(seeds),
            }
            true
        });
        t
    }

    /// `UnorderedMap::maybe_escalate`: drains, then escalates once
    /// [`AttackPolicy::trip_streak`] ticks in a row looked stormy.
    pub(crate) fn maybe_escalate(
        mut self,
        policy: &AttackPolicy,
        seeds: &impl SeedSource,
    ) -> Option<Transition> {
        self.drain_served();
        let signals = self.judged_signals(policy);
        let state = &mut *self.state;
        if !policy.storm(&signals) {
            state.storm_streak = 0;
            return None;
        }
        state.quiet_streak = 0;
        state.storm_streak += 1;
        if state.storm_streak < policy.trip_streak.max(1) {
            return None;
        }
        state.storm_streak = 0;
        Some(self.escalate(seeds))
    }

    /// `UnorderedMap::maybe_deescalate`, after the drain on every rung.
    /// The storm hold scans the stored keys under the guarded routing
    /// newest first and stops at the first skewed bucket, a few dozen
    /// hashes over a resident flood; the skew test is monotone, so the
    /// verdict is the full count's.
    pub(crate) fn maybe_deescalate(mut self, policy: &AttackPolicy) -> Option<Transition> {
        self.drain_served();
        if self.mode() == GuardMode::Guarded || self.state.cause == Some(Cause::Drift) {
            return None;
        }
        if policy.storm(&self.judged_signals(policy)) {
            self.state.quiet_streak = 0;
            return None;
        }
        let state = &mut *self.state;
        state.quiet_streak += 1;
        let streak = policy.quiet_streak.max(1).saturating_mul(1 << state.hold);
        if state.quiet_streak < streak {
            return None;
        }
        state.quiet_streak = 0;
        let guarded = self.table.hasher().epoch_frozen(GuardMode::Guarded);
        let (len, buckets) = (self.table.len(), self.table.bucket_count());
        let skewed = |n| policy.chain_skewed(n, len, buckets);
        if self.table.chain_skewed_under(&guarded, skewed) {
            state.hold = (state.hold + 1).min(MAX_HOLD_DOUBLINGS);
            return None;
        }
        self.step(Transition::Deescalate, |h| {
            h.rearm();
            true
        })
    }

    /// The signals `policy` judges on a tick: the longest chain is exact
    /// unless the chain bound proves the skew test false. On the keyed
    /// rung, while its re-key epoch drains, the probe tail is dropped: its
    /// long probes walk chains filed under the routing the rung just left,
    /// so they say nothing about whether the current seed leaked. (Below
    /// the keyed rung the tail counts: the unkeyed fallback is forgeable.)
    fn judged_signals(&mut self, policy: &AttackPolicy) -> AttackSignals {
        let (len, buckets) = (self.table.len(), self.table.bucket_count());
        let mut signals = self.signals_with(|max| policy.chain_skewed(max, len, buckets));
        if self.mode() == GuardMode::Keyed && self.table.migration_in_flight() {
            signals.probe_p99 = None;
        }
        signals
    }

    /// One signal snapshot; walks the chains when `could_trip` holds for
    /// the chain bound (see [`RawTable::longest_chain`]). `probe_p99`
    /// covers the probes since the previous snapshot.
    fn signals_with(&mut self, could_trip: impl Fn(usize) -> bool) -> AttackSignals {
        let table = &mut *self.table;
        let (window_off, window_total) = table.hasher().stats().window_counts();
        let counts = table.obs().probe_len.bucket_counts();
        let probe_p99 = windowed_quantile(&self.state.probe_baseline, &counts, 0.99);
        self.state.probe_baseline = counts;
        if let Some(p) = probe_p99 {
            table.obs().probe_tail.store(p, Ordering::Relaxed);
        }
        AttackSignals {
            max_bucket_len: table.longest_chain(could_trip),
            len: table.len(),
            bucket_count: table.bucket_count(),
            window_off,
            window_total,
            probe_p99,
        }
    }
}

impl<K, V, G> Controller<'_, K, V, SynthesizedHash, G>
where
    K: Eq + AsRef<[u8]>,
    G: ByteHash + Clone,
{
    /// `UnorderedMap::resynthesize`, from whatever rung the table is on.
    pub(crate) fn resynthesize(mut self) -> Resynth {
        let mut out = Resynth::NoDrift;
        self.step(Transition::Resynth, |h| {
            out = h.resynthesize();
            out.is_applied()
        });
        out
    }
}

/// Test-only views of the controller, for the container tests.
#[cfg(test)]
mod tests {
    use super::*;

    impl Maintenance {
        /// The storm hold's current doublings.
        pub(crate) fn hold(&self) -> u32 {
            self.hold
        }
    }

    impl<K, V, F, G> Controller<'_, K, V, F, G>
    where
        K: Eq + AsRef<[u8]>,
        F: ByteHash + Clone,
        G: ByteHash + Clone,
    {
        /// An exact snapshot (the chains always walked), which also
        /// starts a fresh probe window.
        pub(crate) fn exact_signals(mut self) -> AttackSignals {
            self.signals_with(|_| true)
        }
    }
}
