//! The typed event taxonomy recorded into [`EventTrace`](crate::EventTrace)s.
//!
//! Events carry only primitive fields so this crate stays at the bottom
//! of the dependency graph: the runtime crates map their richer types
//! (epoch handles, shard indices) down to these.

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
    /// A shard's drift window tripped. The trip is held on the guarded
    /// route and changes no routing, so the window's counts are its only
    /// evidence.
    ShardDrift {
        /// Index of the tripped shard.
        shard: u64,
        /// Off-format keys in the window that tripped.
        off_format: u64,
        /// Keys observed in that window.
        total: u64,
    },
    /// A shard was flipped to its guarded fallback hash for every key.
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
            ObsEvent::ShardDrift { .. } => "shard_drift",
            ObsEvent::ShardDegrade { .. } => "shard_degrade",
            ObsEvent::ShardEscalate { .. } => "shard_escalate",
            ObsEvent::ShardDeescalate { .. } => "shard_deescalate",
            ObsEvent::SeedRotation { .. } => "seed_rotation",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_names_are_distinct() {
        let events = [
            ObsEvent::DriftBurst { off_format: 1 },
            ObsEvent::EpochOpen,
            ObsEvent::EpochDrain { entries: 2 },
            ObsEvent::EpochFinish,
            ObsEvent::ShardDrift {
                shard: 0,
                off_format: 3,
                total: 4,
            },
            ObsEvent::ShardDegrade { shard: 0 },
            ObsEvent::ShardEscalate { shard: 0 },
            ObsEvent::ShardDeescalate { shard: 0 },
            ObsEvent::SeedRotation { shard: 0 },
        ];
        let mut names: Vec<_> = events.iter().map(ObsEvent::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), events.len());
    }
}
