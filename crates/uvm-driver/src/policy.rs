//! Replay and eviction policy types (paper §III-E, §V-A, §VI-B3).

use serde::{Deserialize, Serialize};

/// When the driver notifies the GPU to replay far-faults (paper §III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ReplayPolicy {
    /// Replay as soon as each VABlock within a batch is serviced: earliest
    /// resume, most replays.
    Block,
    /// Replay once per serviced batch; the buffer is *not* flushed, so
    /// stale entries for resumed-but-unserviced warps linger and duplicate.
    Batch,
    /// Stock default: replay once per batch after flushing the fault
    /// buffer, preventing duplicates at the cost of remote queue
    /// management.
    #[default]
    BatchFlush,
    /// Replay only once every outstanding fault in the buffer has been
    /// serviced: simplest, longest latency.
    Once,
}

impl ReplayPolicy {
    /// True if the policy flushes the fault buffer before replaying.
    pub fn flushes(self) -> bool {
        matches!(self, ReplayPolicy::BatchFlush | ReplayPolicy::Once)
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ReplayPolicy::Block => "block",
            ReplayPolicy::Batch => "batch",
            ReplayPolicy::BatchFlush => "batch_flush",
            ReplayPolicy::Once => "once",
        }
    }
}

/// How eviction victims are aged (stock driver vs the paper's §VI-B3
/// access-counter suggestion) or selected outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EvictionPolicy {
    /// Stock: LRU updated only by serviced faults.
    #[default]
    FaultLru,
    /// Extension: Volta-style access counters also refresh LRU position
    /// for blocks the GPU touches without faulting, fixing the
    /// hot-data-evicted-first pathology.
    AccessCounterLru,
    /// Baseline: victim drawn uniformly from the resident set with a
    /// deterministic seeded PRNG (derived from the simulation seed, so
    /// runs stay bit-identical at any `--threads` value).
    Random,
    /// Extension: victim is the resident VABlock with the fewest
    /// serviced faults so far (ties broken toward the LRU end), i.e. a
    /// frequency ranking over the per-block fault counts the driver
    /// already tracks for attribution.
    AccessFrequency,
}

impl EvictionPolicy {
    /// Every policy, in canonical report order.
    pub const ALL: [EvictionPolicy; 4] = [
        EvictionPolicy::FaultLru,
        EvictionPolicy::AccessCounterLru,
        EvictionPolicy::Random,
        EvictionPolicy::AccessFrequency,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            EvictionPolicy::FaultLru => "fault_lru",
            EvictionPolicy::AccessCounterLru => "access_counter_lru",
            EvictionPolicy::Random => "random",
            EvictionPolicy::AccessFrequency => "access_frequency",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_stock_driver() {
        assert_eq!(ReplayPolicy::default(), ReplayPolicy::BatchFlush);
        assert_eq!(EvictionPolicy::default(), EvictionPolicy::FaultLru);
    }

    #[test]
    fn flush_semantics() {
        assert!(ReplayPolicy::BatchFlush.flushes());
        assert!(ReplayPolicy::Once.flushes());
        assert!(!ReplayPolicy::Batch.flushes());
        assert!(!ReplayPolicy::Block.flushes());
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            ReplayPolicy::Block.label(),
            ReplayPolicy::Batch.label(),
            ReplayPolicy::BatchFlush.label(),
            ReplayPolicy::Once.label(),
        ];
        let mut dedup = labels.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn eviction_all_covers_every_policy_with_distinct_labels() {
        let labels: Vec<&str> = EvictionPolicy::ALL.iter().map(|p| p.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(EvictionPolicy::ALL[0], EvictionPolicy::default());
    }
}
