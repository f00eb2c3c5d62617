//! The benchmark's workloads, each a fixed list of simulation points.
//!
//! Every point runs on the 768 MiB platform (`SimConfig::scaled(1/16)`,
//! the `repro` default scale) with the default cost model; only the seed
//! comes from the command line.

use bench::Scale;
use uvm_sim::metrics::{LineageConfig, TimeseriesConfig, DEFAULT_SPAN_CAPACITY};
use uvm_sim::{EvictionPolicy, PrefetchPolicy, SimConfig, Workload, WorkloadKind};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["undersub", "thrash", "observed"];

/// Per-point cap on captured fault instants, as `repro --trace-out` arms it.
const FAULT_EVENT_CAPACITY: usize = 1 << 14;

/// One simulation point: a configured run of one workload.
pub struct Point {
    /// Stable name, e.g. `random/r1.25/fault_lru`; keys the reference digests.
    pub label: String,
    /// Full configuration, seed included.
    pub config: SimConfig,
    /// The generated-trace description.
    pub workload: Workload,
}

impl Point {
    fn new(kind: WorkloadKind, ratio: f64, config: SimConfig, policy: &str) -> Point {
        Point {
            label: format!("{}/r{ratio:.2}/{policy}", kind.label()),
            config,
            workload: Scale::DEFAULT.workload(kind, ratio),
        }
    }

    /// True when the point's recorders are armed, so its artefacts are
    /// rendered and validated.
    pub fn observed(&self) -> bool {
        self.config.driver.record_spans
    }
}

fn base(seed: u64) -> SimConfig {
    Scale::DEFAULT.config().with_seed(seed)
}

/// The Table I sweep: every workload at ratio 0.6, prefetch off then on.
fn undersub(seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for kind in WorkloadKind::ALL {
        let mut off = base(seed);
        off.driver.prefetch = PrefetchPolicy::Disabled;
        points.push(Point::new(kind, 0.6, off, "disabled"));
        let on = base(seed);
        let label = on.driver.prefetch.label();
        points.push(Point::new(kind, 0.6, on, label));
    }
    points
}

/// Oversubscribed points: random under every eviction policy at two
/// ratios, regular at 1.5 under the two LRU policies.
fn thrash(seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for ratio in [1.25, 1.5] {
        for policy in EvictionPolicy::ALL {
            let config = base(seed).with_eviction(policy);
            points.push(Point::new(
                WorkloadKind::Random,
                ratio,
                config,
                policy.label(),
            ));
        }
    }
    for policy in [EvictionPolicy::FaultLru, EvictionPolicy::AccessCounterLru] {
        let config = base(seed).with_eviction(policy);
        points.push(Point::new(
            WorkloadKind::Regular,
            1.5,
            config,
            policy.label(),
        ));
    }
    points
}

/// Arm every recorder the way `repro --trace-out --metrics-out` does.
fn armed(mut config: SimConfig) -> SimConfig {
    config.driver.record_spans = true;
    config.driver.span_capacity = DEFAULT_SPAN_CAPACITY;
    config.driver.capture_trace = true;
    config.driver.trace_capacity = FAULT_EVENT_CAPACITY;
    config.driver.timeseries = TimeseriesConfig {
        enabled: true,
        ..TimeseriesConfig::default()
    };
    config.driver.lineage = LineageConfig {
        enabled: true,
        ..LineageConfig::default()
    };
    config
}

/// The undersubscribed workloads with prefetch on plus one evicting
/// point, every recorder armed.
fn observed(seed: u64) -> Vec<Point> {
    let mut points: Vec<Point> = WorkloadKind::ALL
        .into_iter()
        .map(|kind| {
            let config = armed(base(seed));
            let label = config.driver.prefetch.label();
            Point::new(kind, 0.6, config, label)
        })
        .collect();
    let config = armed(base(seed).with_eviction(EvictionPolicy::FaultLru));
    points.push(Point::new(WorkloadKind::Random, 1.25, config, "fault_lru"));
    points
}

/// The points of workload `name` at `seed`, or `None` for an unknown name.
pub fn points(name: &str, seed: u64) -> Option<Vec<Point>> {
    match name {
        "undersub" => Some(undersub(seed)),
        "thrash" => Some(thrash(seed)),
        "observed" => Some(observed(seed)),
        _ => None,
    }
}

/// Points sharing a workload share one prepared trace, as `run_sweep`
/// dedups them. Returns the index of each distinct workload's first
/// point, and for each point the index of its workload in that list.
pub fn dedup(points: &[Point]) -> (Vec<usize>, Vec<usize>) {
    let mut first: Vec<usize> = Vec::new();
    let of = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            first
                .iter()
                .position(|&j| points[j].workload == p.workload)
                .unwrap_or_else(|| {
                    first.push(i);
                    first.len() - 1
                })
        })
        .collect();
    (first, of)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sizes_and_labels_are_fixed() {
        let sizes: Vec<usize> = WORKLOADS
            .iter()
            .map(|w| points(w, 1).expect("known workload").len())
            .collect();
        assert_eq!(sizes, [16, 10, 9]);
        assert!(points("nope", 1).is_none());
        for w in WORKLOADS {
            let ps = points(w, 1).unwrap();
            for (i, p) in ps.iter().enumerate() {
                assert!(ps[..i].iter().all(|q| q.label != p.label), "{}", p.label);
                assert_eq!(p.observed(), w == "observed", "{}", p.label);
            }
        }
    }

    #[test]
    fn shared_workloads_are_prepared_once() {
        for (w, distinct) in [("undersub", 8), ("thrash", 3), ("observed", 9)] {
            let ps = points(w, 1).unwrap();
            let (first, of) = dedup(&ps);
            assert_eq!(first.len(), distinct, "{w}");
            for (p, &k) in ps.iter().zip(&of) {
                assert!(ps[first[k]].workload == p.workload, "{}", p.label);
            }
        }
    }
}
