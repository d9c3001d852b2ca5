//! A bounded ring buffer of typed events.
//!
//! The trace favors the recording side: a push is one short mutex hold
//! (no allocation after the ring fills) and never blocks on a reader
//! longer than a `VecDeque` push. When the ring is full the *incoming*
//! event is dropped and counted, so the retained prefix stays a faithful,
//! gap-free transcript of the run's beginning — the property transcript
//! comparisons rely on. Lock poisoning is recovered: a
//! panicking reader must not take the transcript down with it.

use crate::metrics::Counter;
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A bounded, thread-safe event ring with drop accounting.
#[derive(Debug)]
pub struct EventTrace<T> {
    ring: Mutex<VecDeque<T>>,
    capacity: usize,
    pushed: Counter,
    dropped: Counter,
}

impl<T> EventTrace<T> {
    /// An empty trace holding at most `capacity` events (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
            pushed: Counter::new(),
            dropped: Counter::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records an event. Returns `false` (and counts the drop) when the
    /// ring is already full.
    pub fn push(&self, event: T) -> bool {
        self.pushed.inc();
        let mut ring = self.lock();
        if ring.len() >= self.capacity {
            drop(ring);
            self.dropped.inc();
            return false;
        }
        ring.push_back(event);
        true
    }

    /// Events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Maximum retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total push attempts, including dropped ones.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.pushed.get()
    }

    /// Events rejected because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Discards all retained events (the counters keep their totals).
    pub fn clear(&self) {
        self.lock().clear();
    }
}

impl<T: Clone> EventTrace<T> {
    /// A copy of the retained events, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<T> {
        self.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_the_oldest_events_when_full() {
        let trace = EventTrace::new(3);
        for i in 0..5u32 {
            trace.push(i);
        }
        assert_eq!(trace.snapshot(), vec![0, 1, 2]);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.pushed(), 5);
        assert_eq!(trace.dropped(), 2);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let trace = EventTrace::new(0);
        assert_eq!(trace.capacity(), 1);
        assert!(trace.push('a'));
        assert!(!trace.push('b'));
        assert_eq!(trace.snapshot(), vec!['a']);
    }

    #[test]
    fn clear_keeps_the_accounting() {
        let trace = EventTrace::new(2);
        trace.push(1u8);
        trace.push(2);
        trace.push(3);
        trace.clear();
        assert!(trace.is_empty());
        assert_eq!(trace.pushed(), 3);
        assert_eq!(trace.dropped(), 1);
        assert!(trace.push(4));
    }

    #[test]
    fn survives_a_poisoned_lock() {
        let trace = std::sync::Arc::new(EventTrace::new(4));
        let t2 = trace.clone();
        let _ = std::thread::spawn(move || {
            let _guard = t2.lock();
            panic!("poison the ring");
        })
        .join();
        assert!(trace.push(7u64));
        assert_eq!(trace.snapshot(), vec![7]);
    }
}
