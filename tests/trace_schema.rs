//! Schema and round-trip tests for the Chrome-trace exporter: a traced
//! run's exported JSON must parse, satisfy every trace-event-format
//! invariant [`metrics::chrome::validate`] checks, and reconcile exactly
//! — the span leaf durations per category must sum to the driver's
//! `Timers`, with dropped leaf time still accounted when the span buffer
//! is bounded below the run's event count. A property test checks the
//! writer's bytes against the vendored JSON parser and writer on random
//! span captures.

use bench::experiments::Scale;
use metrics::{
    chrome, Category, ChromePoint, EventKind, SpanCat, SpanKind, SpanRecorder, SpanTrace, Timers,
    TraceEvent,
};
use proptest::prelude::*;
use sim_engine::{SimDuration, SimTime};
use uvm_sim::{SimReport, WorkloadKind};

/// One oversubscribed QUICK-scale run (faults, migrations, evictions and
/// replays all exercised) with span recording at `span_capacity`.
fn traced_report(span_capacity: usize) -> SimReport {
    let scale = Scale::QUICK;
    let mut cfg = scale.config();
    cfg.driver.record_spans = true;
    cfg.driver.span_capacity = span_capacity;
    cfg.driver.capture_trace = true;
    uvm_sim::run(&cfg, &scale.workload(WorkloadKind::Random, 1.3))
}

fn point(r: &SimReport) -> ChromePoint {
    ChromePoint {
        label: format!("{} r={:.2}", r.workload, r.subscription_ratio),
        spans: r.span_trace.clone(),
        faults: r.trace.clone(),
        fault_drops: r.trace_dropped,
        timers: r.timers,
    }
}

#[test]
fn exported_trace_parses_and_validates() {
    let r = traced_report(1 << 20);
    assert_eq!(r.span_trace.dropped, 0, "capacity ample for QUICK scale");
    let json = chrome::render(&[point(&r)]);

    // Round-trip through the JSON parser: the export is a plain JSON
    // object, not a viewer-only dialect.
    let parsed: serde::Value = serde_json::from_str(&json).expect("export parses as JSON");
    assert!(matches!(parsed, serde::Value::Map(_)));

    let stats = chrome::validate(&json).expect("export satisfies trace-event invariants");
    assert_eq!(stats.processes, 1);
    assert_eq!(stats.dropped, 0);
    assert!(stats.leaf_spans > 0, "driver work recorded as leaf spans");
    assert!(stats.container_spans > 0, "pass containers recorded");
    assert!(stats.instants > 0, "fault instants recorded");
    // `events` counts the raw traceEvents array: each container is a B+E
    // pair, plus the metadata records naming processes/threads.
    assert!(
        stats.events >= stats.leaf_spans + 2 * stats.container_spans + stats.instants,
        "event count covers spans, pairs and metadata"
    );
}

#[test]
fn span_categories_sum_to_driver_timers() {
    let r = traced_report(1 << 20);
    assert_eq!(r.span_trace.dropped, 0);
    assert_eq!(
        r.span_trace.leaf_totals(),
        r.timers,
        "per-category leaf durations sum exactly to the driver timers"
    );
}

#[test]
fn bounded_capture_drops_events_but_never_time() {
    let r = traced_report(256);
    assert!(r.span_trace.dropped > 0, "tiny buffer must overflow");
    assert!(r.span_trace.events.len() <= 256 + 64, "capacity bounds capture");
    // Dropped leaves carry their sim-time into `dropped_time`, so the
    // reconciliation invariant survives the bound…
    assert_eq!(r.span_trace.reconciled_totals(), r.timers);
    // …and the export still validates (the validator checks
    // captured + dropped_ns == timers_ns per category).
    let json = chrome::render(&[point(&r)]);
    let stats = chrome::validate(&json).expect("bounded export still validates");
    assert_eq!(stats.dropped, r.span_trace.dropped);
}

#[test]
fn span_trace_serde_round_trips() {
    let r = traced_report(1 << 20);
    let body = serde_json::to_string(&r.span_trace).expect("serialize span trace");
    let back: SpanTrace = serde_json::from_str(&body).expect("deserialize span trace");
    assert_eq!(back.events, r.span_trace.events);
    assert_eq!(back.dropped, r.span_trace.dropped);
    assert_eq!(back.dropped_time, r.span_trace.dropped_time);
}

#[test]
fn multi_point_export_keeps_processes_separate() {
    let a = traced_report(1 << 20);
    let scale = Scale::QUICK;
    let mut cfg = scale.config();
    cfg.driver.record_spans = true;
    cfg.driver.span_capacity = 1 << 20;
    let b = uvm_sim::run(&cfg, &scale.workload(WorkloadKind::Regular, 0.5));
    let json = chrome::render(&[point(&a), point(&b)]);
    let stats = chrome::validate(&json).expect("two-point export validates");
    assert_eq!(stats.processes, 2);
}

/// Leaf kind recorded for each [`Category::ALL`] entry.
const LEAF_KINDS: [SpanKind; 6] = [
    SpanKind::FetchSort,
    SpanKind::PmaAlloc,
    SpanKind::MigrateH2d,
    SpanKind::MapPages,
    SpanKind::ReplayIssue,
    SpanKind::Evict,
];

/// Decode random words into a span capture recorded through a recorder
/// bounded at `cap` events, so small caps drop. Each word is one step of
/// a run of `pass` containers: a leaf of one of the six categories
/// (zero durations give equal timestamps), an instant, opening or
/// closing a nested `vablock_service` container, or a pass boundary.
/// Returns the capture and the timer totals its leaves charged.
fn capture(words: &[u64], cap: usize, start_ns: u64) -> (SpanTrace, Timers) {
    let mut r = SpanRecorder::bounded(cap);
    let mut timers = Timers::default();
    let mut t = SimTime::ZERO + SimDuration::from_nanos(start_ns);
    let mut vablock_open = false;
    r.begin(SpanKind::Pass, SpanCat::Batch, t, 0, 0);
    for &w in words {
        let (a, b) = (w >> 16, w.rotate_left(29));
        match w % 10 {
            k @ 0..=5 => {
                let dur = SimDuration::from_nanos(((w >> 8) % 40).saturating_sub(8));
                let cat = Category::ALL[k as usize];
                r.leaf_args(LEAF_KINDS[k as usize], cat, t, dur, a, b);
                timers.charge(cat, dur);
                t += dur;
            }
            6 => r.instant(SpanKind::Replay, t, a, b),
            7 => {
                if vablock_open {
                    r.end(SpanKind::VablockService, SpanCat::Vablock, t, a, b);
                } else {
                    r.begin(SpanKind::VablockService, SpanCat::Vablock, t, a, b);
                }
                vablock_open = !vablock_open;
            }
            _ => {
                if vablock_open {
                    r.end(SpanKind::VablockService, SpanCat::Vablock, t, a, b);
                    vablock_open = false;
                }
                r.end(SpanKind::Pass, SpanCat::Batch, t, a, b);
                t += SimDuration::from_nanos(w >> 58);
                r.begin(SpanKind::Pass, SpanCat::Batch, t, a, b);
            }
        }
    }
    if vablock_open {
        r.end(SpanKind::VablockService, SpanCat::Vablock, t, 0, 0);
    }
    r.end(SpanKind::Pass, SpanCat::Batch, t, 0, 0);
    (r.to_trace(), timers)
}

/// Fault instants in non-decreasing time order, all three kinds.
fn page_events(words: &[u64], start_ns: u64) -> Vec<TraceEvent> {
    let mut ns = start_ns;
    let kinds = [EventKind::Fault, EventKind::Prefetch, EventKind::Eviction];
    words
        .iter()
        .enumerate()
        .map(|(order, &w)| {
            ns += (w >> 4) % 6;
            TraceEvent {
                order: order as u64,
                page: w >> 12,
                time: SimTime::ZERO + SimDuration::from_nanos(ns),
                kind: kinds[(w % 3) as usize],
            }
        })
        .collect()
}

/// Label characters: JSON escapes, raw control characters and
/// multi-byte UTF-8 alongside plain ASCII.
fn label() -> impl Strategy<Value = String> {
    let chars = vec![
        'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{8}', '\u{1f}', '\u{7f}',
        'é', '→', '𝄞',
    ];
    proptest::collection::vec(proptest::sample::select(chars), 0..12)
        .prop_map(|cs| cs.into_iter().collect::<String>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The vendored parser keeps integers and floats apart and its writer
    /// is insertion-ordered, so parsing the export and writing it back
    /// reproduces it byte for byte exactly when the export is what
    /// `serde_json` itself writes for that document.
    #[test]
    fn export_round_trips_through_the_json_parser_byte_for_byte(
        labels in proptest::collection::vec(label(), 1..4),
        steps in proptest::collection::vec(any::<u64>(), 0..240),
        faults in proptest::collection::vec(any::<u64>(), 0..60),
        cap in 4usize..320,
        start_ns in 0u64..(1 << 60),
        fault_drops in 0u64..3,
    ) {
        let n = labels.len();
        let points: Vec<ChromePoint> = labels
            .into_iter()
            .enumerate()
            .map(|(i, label)| {
                let slice = |w: &[u64]| w[i * w.len() / n..(i + 1) * w.len() / n].to_vec();
                let (spans, timers) = capture(&slice(&steps), cap, start_ns >> i);
                ChromePoint {
                    label,
                    spans,
                    faults: page_events(&slice(&faults), start_ns >> (2 * i)),
                    fault_drops,
                    timers,
                }
            })
            .collect();
        let json = chrome::render(&points);
        let parsed: serde::Value = serde_json::from_str(&json)
            .map_err(|e| TestCaseError::fail(format!("export does not parse: {e}")))?;
        prop_assert_eq!(serde_json::to_string(&parsed).expect("serialize Value"), json);
        let stats = chrome::validate(&json).map_err(TestCaseError::fail)?;
        prop_assert_eq!(stats.processes, n as u64);
    }
}
