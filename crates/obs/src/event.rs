//! The typed event taxonomy recorded into [`EventTrace`](crate::EventTrace)s.
//!
//! Events carry only primitive fields so this crate stays at the bottom
//! of the dependency graph: the runtime crates map their richer types
//! (supervisor transitions, epoch handles) down to these.

/// The kind of a supervisor state-machine transition, mirroring the
/// variants of `sepe-core`'s `Transition` without its payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TransitionKind {
    /// A resynthesis request entered the queue.
    Enqueued,
    /// An attempt started running.
    Started,
    /// An attempt produced a validated plan.
    Succeeded,
    /// An attempt failed with a typed error.
    Failed,
    /// An attempt blew its deadline and was cancelled.
    TimedOut,
    /// An attempt panicked and was absorbed.
    Panicked,
    /// A retry was scheduled with backoff.
    BackoffScheduled,
    /// A tag's circuit breaker opened.
    BreakerOpened,
    /// A breaker moved to half-open for a probe attempt.
    BreakerHalfOpen,
    /// A breaker closed after a successful probe.
    BreakerClosed,
    /// A request was rejected (breaker open or queue discipline).
    Rejected,
}

impl TransitionKind {
    /// Every kind, in declaration order — the canonical label order for
    /// per-kind counter families.
    pub const ALL: [TransitionKind; 11] = [
        TransitionKind::Enqueued,
        TransitionKind::Started,
        TransitionKind::Succeeded,
        TransitionKind::Failed,
        TransitionKind::TimedOut,
        TransitionKind::Panicked,
        TransitionKind::BackoffScheduled,
        TransitionKind::BreakerOpened,
        TransitionKind::BreakerHalfOpen,
        TransitionKind::BreakerClosed,
        TransitionKind::Rejected,
    ];

    /// Number of kinds (the size of a per-kind counter array).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name, used as a metric label value.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TransitionKind::Enqueued => "enqueued",
            TransitionKind::Started => "started",
            TransitionKind::Succeeded => "succeeded",
            TransitionKind::Failed => "failed",
            TransitionKind::TimedOut => "timed_out",
            TransitionKind::Panicked => "panicked",
            TransitionKind::BackoffScheduled => "backoff_scheduled",
            TransitionKind::BreakerOpened => "breaker_opened",
            TransitionKind::BreakerHalfOpen => "breaker_half_open",
            TransitionKind::BreakerClosed => "breaker_closed",
            TransitionKind::Rejected => "rejected",
        }
    }

    /// Dense index into [`TransitionKind::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One observable runtime event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// A guard saw a burst of off-format keys.
    DriftBurst {
        /// Off-format observations in the burst.
        off_format: u64,
    },
    /// A migration epoch opened (degrade or resynthesis swap).
    EpochOpen,
    /// A mutating op drained entries from an old epoch.
    EpochDrain {
        /// Entries moved by this drain step.
        entries: u64,
    },
    /// A migration epoch fully drained and closed.
    EpochFinish,
    /// A shard fell back to its guarded fallback hash.
    ShardDegrade {
        /// Index of the degraded shard.
        shard: u64,
    },
    /// A shard's collision-storm detector took an upward rung on the
    /// HashDoS escalation ladder (degrade or keyed; seed rotations are
    /// recorded as [`ObsEvent::SeedRotation`]).
    ShardEscalate {
        /// Index of the escalated shard.
        shard: u64,
    },
    /// A shard de-escalated back to its specialized hash after a quiet
    /// window.
    ShardDeescalate {
        /// Index of the re-armed shard.
        shard: u64,
    },
    /// A shard rotated the secret seed of its keyed hash (the response to
    /// a storm persisting on the keyed rung).
    SeedRotation {
        /// Index of the rotating shard.
        shard: u64,
    },
    /// The resynthesis supervisor recorded a state transition.
    SupervisorTransition {
        /// Tag (shard id) the transition belongs to.
        tag: u64,
        /// Kind of transition.
        kind: TransitionKind,
    },
    /// A synthesis run completed, with its work counters.
    SynthSearch {
        /// Candidate positions the target scan expanded.
        nodes_expanded: u64,
        /// Candidate targets rejected as already covered.
        candidates_rejected: u64,
        /// Wall-clock time to the final plan, in nanoseconds.
        time_to_plan_ns: u64,
    },
}

impl ObsEvent {
    /// Stable snake_case name of the event variant.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ObsEvent::DriftBurst { .. } => "drift_burst",
            ObsEvent::EpochOpen => "epoch_open",
            ObsEvent::EpochDrain { .. } => "epoch_drain",
            ObsEvent::EpochFinish => "epoch_finish",
            ObsEvent::ShardDegrade { .. } => "shard_degrade",
            ObsEvent::ShardEscalate { .. } => "shard_escalate",
            ObsEvent::ShardDeescalate { .. } => "shard_deescalate",
            ObsEvent::SeedRotation { .. } => "seed_rotation",
            ObsEvent::SupervisorTransition { .. } => "supervisor_transition",
            ObsEvent::SynthSearch { .. } => "synth_search",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_are_dense_and_stable() {
        for (i, kind) in TransitionKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        let mut names: Vec<_> = TransitionKind::ALL.iter().map(|k| k.name()).collect();
        names.dedup();
        assert_eq!(names.len(), TransitionKind::COUNT);
    }

    #[test]
    fn event_names_are_distinct() {
        let events = [
            ObsEvent::DriftBurst { off_format: 1 },
            ObsEvent::EpochOpen,
            ObsEvent::EpochDrain { entries: 2 },
            ObsEvent::EpochFinish,
            ObsEvent::ShardDegrade { shard: 0 },
            ObsEvent::ShardEscalate { shard: 0 },
            ObsEvent::ShardDeescalate { shard: 0 },
            ObsEvent::SeedRotation { shard: 0 },
            ObsEvent::SupervisorTransition {
                tag: 0,
                kind: TransitionKind::Enqueued,
            },
            ObsEvent::SynthSearch {
                nodes_expanded: 1,
                candidates_rejected: 0,
                time_to_plan_ns: 3,
            },
        ];
        let mut names: Vec<_> = events.iter().map(ObsEvent::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), events.len());
    }
}
