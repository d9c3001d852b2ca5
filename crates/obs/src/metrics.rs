//! Relaxed-atomic metric primitives.
//!
//! Both primitives are a single `AtomicU64` and are wait-free on the
//! write path. [`Counter`] pins the saturating-overflow contract the
//! guard drift counters have always had: a bump that would wrap stores
//! `u64::MAX` instead, and every later bump re-pins it, so a saturated
//! counter can never be observed small again. The transient where another
//! thread reads the wrapped value before the pinning store lands is
//! accepted — drift policy treats any huge count identically.
//!
//! [`Counter::add_single_writer`] is the unlocked variant for per-lookup
//! paths: a relaxed load and a relaxed store, no read-modify-write. It
//! is exact while one thread writes the counter at a time; concurrent
//! writers may lose increments (never invent them).

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone (except for explicit [`reset`](Counter::reset)) event
/// counter with relaxed ordering and saturating overflow.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` observations, saturating at `u64::MAX` instead of
    /// wrapping — the pinned `GuardStats` semantics.
    #[inline]
    pub fn add(&self, n: u64) {
        let prev = self.value.fetch_add(n, Ordering::Relaxed);
        if prev > u64::MAX - n {
            self.value.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Adds `n` with a relaxed load and a relaxed store instead of a
    /// locked read-modify-write, saturating at `u64::MAX` like
    /// [`add`](Counter::add).
    ///
    /// From one writer at a time the result equals `add` for the same
    /// inputs. Writers racing on the same counter may overwrite each
    /// other's bumps, so the value can fall short of the true count (and
    /// a reader may even see it step back) but never exceed it. Use it
    /// where the counter is logically owned by one thread and losing a
    /// few bumps under contention is acceptable.
    #[inline]
    pub fn add_single_writer(&self, n: u64) {
        let prev = self.value.load(Ordering::Relaxed);
        self.value.store(prev.saturating_add(n), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero. Racing bumps may survive the reset;
    /// callers that need exact windows should record bases instead (see
    /// the guard's windowed drift counters).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins instantaneous value (window bases, queue depths).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge starting at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Stores a new value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn zero_sized_bumps_are_noops() {
        let c = Counter::new();
        c.add(0);
        assert_eq!(c.get(), 0);
        c.add(u64::MAX);
        c.add(0);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn single_writer_bumps_equal_add_from_one_thread() {
        let steps = [
            0u64,
            1,
            41,
            7,
            u64::MAX / 2,
            u64::MAX / 2,
            3,
            0,
            u64::MAX,
            1,
        ];
        let locked = Counter::new();
        let single = Counter::new();
        for n in steps {
            locked.add(n);
            single.add_single_writer(n);
            assert_eq!(single.get(), locked.get(), "after adding {n}");
        }
        assert_eq!(single.get(), u64::MAX, "saturated, not wrapped");
    }

    #[test]
    fn gauges_take_the_last_write() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }
}
