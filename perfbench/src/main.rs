//! `perfbench` — the simulator's benchmark.
//!
//! ```text
//! perfbench --workload <undersub|thrash|observed> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --bless
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off:
//! set-up rounds and serial passes over every point of the workload
//! alternate for most of `--seconds`, and host times are calibrated to a
//! reference host speed (`calibrate.rs`) and reported as medians. `--trace 1`
//! alternates the same plain passes with passes of the traced mirror
//! (`mirror.rs`) and prints the per-layer metrics. Either way every point
//! run is checked (`check.rs`), the process ends about `--seconds` after
//! it started, and the last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! `--bless` rewrites `reference_digests.tsv` from the current program at
//! the reference seed; run it only for a deliberate change of simulated
//! output.

mod calibrate;
mod check;
mod mirror;
mod points;
mod stats;

use calibrate::{Calibrator, Span};
use check::{Artefacts, Digest, Verifier};
use mirror::{Generated, Layers};
use points::Point;
use stats::{median, quartiles, ratio};
use std::time::{Duration, Instant};
use uvm_sim::gpu_model::engine::EngineCounters;
use uvm_sim::metrics::Attribution;
use uvm_sim::{prepare, run_prepared, Category, Counters, PreparedWorkload, SimReport, Timers};

/// The seed the reference digests and `table1_mae_pp` are pinned at
/// (`SimConfig::default().seed`, what `repro` uses).
const REFERENCE_SEED: u64 = 0xC0FFEE;
/// Held-out seed for Table I when the run's own seed is the reference.
const HELDOUT_SEED: u64 = 1;
/// Set-ups before each pass repeat until they have taken this long, so
/// the median of a millisecond set-up is steady too.
const SETUP_ROUND: Duration = Duration::from_millis(200);
/// Fewest passes a run measures, however long they take.
const MIN_PASSES: usize = 3;
/// Slack kept before the deadline for the report after the last pass.
const REPORT_SLACK: Duration = Duration::from_millis(250);
/// Time kept free at the end of a `--trace 0` run for its untimed Table I
/// pass: 2.2–2.8 s on the 2-vCPU host the benchmark was sized on.
const TABLE1_RESERVE: Duration = Duration::from_secs(3);
/// Per-point reference digests at [`REFERENCE_SEED`].
const REFERENCE: &str = include_str!("../reference_digests.tsv");
/// Table I of the paper: fault reduction from prefetching, percent, in
/// `WorkloadKind::ALL` order.
const PAPER_TABLE1: [f64; 8] = [82.3, 98.0, 96.6, 84.4, 90.1, 67.0, 64.1, 73.9];

/// End-to-end metrics `(name, unit)`, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("faults_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("table1_mae_pp", "pp"),
];

/// Per-layer metrics `(name, unit)`, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 60] = [
    ("workloads.generate_s", "s"),
    ("workloads.trace_accesses", "count"),
    ("gpu_model.engine_run_s", "s"),
    ("gpu_model.engine_run_pct", "%"),
    ("gpu_model.engine_run_calls", "count"),
    ("gpu_model.ns_per_step", "ns"),
    ("gpu_model.replay_s", "s"),
    ("gpu_model.replay_pct", "%"),
    ("gpu_model.faults_raised", "count"),
    ("gpu_model.faults_coalesced", "count"),
    ("gpu_model.faults_throttled", "count"),
    ("gpu_model.faults_dropped", "count"),
    ("gpu_model.steps_completed", "count"),
    ("gpu_model.retries_skipped", "count"),
    ("gpu_model.wakeups", "count"),
    ("gpu_model.raise_yield", "ratio"),
    ("access_counters.notify_s", "s"),
    ("access_counters.notify_pct", "%"),
    ("fault_buffer.written", "count"),
    ("fault_buffer.fetched", "count"),
    ("fault_buffer.flushed", "count"),
    ("fault_buffer.dropped", "count"),
    ("fault_buffer.replay_rounds", "count"),
    ("uvm_driver.process_pass_s", "s"),
    ("uvm_driver.process_pass_pct", "%"),
    ("uvm_driver.passes", "count"),
    ("uvm_driver.pass_us_p50", "us"),
    ("uvm_driver.pass_us_p99", "us"),
    ("uvm_driver.ns_per_fault", "ns"),
    ("uvm_driver.sim_preprocess_ms", "ms"),
    ("uvm_driver.sim_pma_alloc_ms", "ms"),
    ("uvm_driver.sim_migrate_ms", "ms"),
    ("uvm_driver.sim_map_ms", "ms"),
    ("uvm_driver.sim_replay_policy_ms", "ms"),
    ("uvm_driver.sim_eviction_ms", "ms"),
    ("uvm_driver.faults_fetched", "count"),
    ("uvm_driver.duplicate_faults", "count"),
    ("uvm_driver.batches", "count"),
    ("uvm_driver.vablocks_serviced", "count"),
    ("uvm_driver.pages_prefetched", "count"),
    ("uvm_driver.evictions", "count"),
    ("uvm_driver.pages_evicted_clean", "count"),
    ("uvm_driver.pages_evicted_migrated", "count"),
    ("uvm_driver.evict_shortfall_bytes", "bytes"),
    ("uvm_driver.dup_ratio", "ratio"),
    ("uvm_driver.prefetch_waste_ratio", "ratio"),
    ("uvm_driver.evict_before_use_ratio", "ratio"),
    ("metrics.render_s", "s"),
    ("metrics.render_pct", "%"),
    ("metrics.artefact_bytes", "bytes"),
    ("metrics.span_events", "count"),
    ("metrics.lineage_events", "count"),
    ("metrics.timeseries_samples", "count"),
    ("metrics.dropped", "count"),
    ("uvm_sim.plain_wall_s", "s"),
    ("uvm_sim.traced_wall_s", "s"),
    ("uvm_sim.loop_self_s", "s"),
    ("uvm_sim.loop_self_pct", "%"),
    ("uvm_sim.trace_overhead_pct", "%"),
    ("uvm_sim.calibration_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <undersub|thrash|observed> --seed <n> \
                     --seconds <s> --trace <0|1>\n       perfbench --bless";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !points::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => return bless(),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let points = points::points(&args.workload, args.seed).expect("workload name checked");
    println!(
        "perfbench: workload {} ({} points), seed {}, {} s, trace {}",
        args.workload,
        points.len(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let deadline = start + Duration::from_secs(args.seconds);
    let mut v = verifier_for(&args.workload, &points, args.seed);
    let (defs, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, traced_run(&points, deadline, &mut v))
    } else {
        (&END_TO_END, plain_run(&args, &points, deadline, &mut v))
    };
    emit(defs, &values);
    println!(
        "fail_frac {} ({} of {} point runs failed)",
        v.fail_frac(),
        v.failed,
        v.attempted
    );
    println!("{}", result_json(&v, defs, &values));
}

/// The prepared workloads of a point list, one per distinct workload.
struct Setup {
    prepared: Vec<PreparedWorkload>,
    /// Index into `prepared` for each point.
    of: Vec<usize>,
}

/// Prepare every distinct workload once, as `run_sweep` does.
fn setup(points: &[Point]) -> Setup {
    let (first, of) = points::dedup(points);
    Setup {
        prepared: first
            .iter()
            .map(|&j| prepare(&points[j].config, &points[j].workload))
            .collect(),
        of,
    }
}

/// Set up `points` at least once and until [`SETUP_ROUND`] has passed,
/// recording each set-up's calibrated host time; returns the last set-up.
fn timed_setups(points: &[Point], cal: &mut Calibrator, times: &mut Vec<f64>) -> Setup {
    let before = cal.measure();
    let round = Instant::now();
    let mut raw = Vec::new();
    let s = loop {
        let t0 = Instant::now();
        let s = setup(points);
        raw.push(secs(t0.elapsed()));
        if round.elapsed() >= SETUP_ROUND {
            break s;
        }
    };
    let scale = calibrate::scale(before, cal.measure());
    times.extend(raw.iter().map(|t| t * scale));
    s
}

/// A verifier holding the reference digests when `seed` is the reference seed.
fn verifier_for(workload: &str, points: &[Point], seed: u64) -> Verifier {
    if seed != REFERENCE_SEED {
        return Verifier::new(points.len(), None);
    }
    let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
    match check::reference_for(REFERENCE, workload, &labels) {
        Ok(refs) => Verifier::new(points.len(), Some(refs)),
        Err(e) => {
            let mut v = Verifier::new(points.len(), None);
            v.record("reference", vec![e]);
            v
        }
    }
}

fn render(p: &Point, report: &SimReport) -> Option<Artefacts> {
    p.observed()
        .then(|| Artefacts::render(&p.label, p.config.driver.prefetch.label(), report))
}

/// Host seconds and fetched faults of one plain pass.
struct PlainPass {
    /// Calibrated host seconds (see `calibrate`).
    calibrated: f64,
    /// Raw host seconds.
    raw: f64,
    /// Fetched faults per point.
    faults: Vec<u64>,
}

/// One plain pass: host time of `run_prepared` plus artefact rendering
/// over every point. Each point is timed on its own between calibration
/// kernel runs; checks run outside the timed spans.
fn plain_pass(points: &[Point], s: &Setup, cal: &mut Calibrator, v: &mut Verifier) -> PlainPass {
    let mut spans: Vec<Span> = Vec::with_capacity(points.len());
    let mut faults = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        let ((report, art), span) = cal.time(|| {
            let report = run_prepared(&p.config, &s.prepared[s.of[i]]);
            let art = render(p, &report);
            (report, art)
        });
        spans.push(span);
        faults.push(report.counters.faults_fetched);
        v.plain(i, &p.label, &report, art.as_ref());
    }
    PlainPass {
        calibrated: calibrate::calibrated(&spans),
        raw: spans.iter().map(|s| s.raw).sum(),
        faults,
    }
}

/// Simulated totals of one pass, summed over its points.
#[derive(Default)]
struct Sums {
    counters: Counters,
    engine: EngineCounters,
    timers: Timers,
    attribution: Attribution,
    artefact_bytes: u64,
    span_events: u64,
    lineage_events: u64,
    samples: u64,
    dropped: u64,
}

impl Sums {
    fn add(&mut self, r: &SimReport, art: Option<&Artefacts>) {
        self.counters.merge(&r.counters);
        let (e, o) = (&mut self.engine, &r.engine);
        e.faults_raised += o.faults_raised;
        e.faults_coalesced += o.faults_coalesced;
        e.faults_throttled += o.faults_throttled;
        e.faults_dropped += o.faults_dropped;
        e.steps_completed += o.steps_completed;
        e.retries_skipped += o.retries_skipped;
        e.wakeups += o.wakeups;
        self.timers += r.timers;
        self.attribution.merge(&r.attribution);
        self.artefact_bytes += art.map_or(0, Artefacts::bytes);
        self.span_events += r.span_trace.events.len() as u64;
        self.lineage_events += r.lineage.events_total();
        self.samples += r.timeseries.samples.len() as u64;
        self.dropped += r.span_trace.dropped + r.trace_dropped + r.lineage.dropped;
    }
}

/// One pass of the traced mirror: host time, per-layer times and
/// simulated totals. Checks run outside the timed spans.
fn traced_pass(
    points: &[Point],
    generated: &[Generated],
    of: &[usize],
    v: &mut Verifier,
) -> (Duration, Layers, Sums) {
    let mut wall = Duration::ZERO;
    let mut layers = Layers::default();
    let mut sums = Sums::default();
    for (i, p) in points.iter().enumerate() {
        let t0 = Instant::now();
        let report = mirror::run_traced(&p.config, &generated[of[i]], &mut layers);
        let t_render = Instant::now();
        let art = render(p, &report);
        if art.is_some() {
            layers.render += t_render.elapsed();
        }
        wall += t0.elapsed();
        sums.add(&report, art.as_ref());
        v.mirrored(i, &p.label, &report, art.as_ref());
    }
    (wall, layers, sums)
}

/// Generate every distinct workload through the mirror's copy of `prepare`.
fn generate(points: &[Point], layers: &mut Layers) -> (Vec<Generated>, Vec<usize>) {
    let (first, of) = points::dedup(points);
    let generated = first
        .iter()
        .map(|&j| Generated::new(&points[j].config, &points[j].workload, layers))
        .collect();
    (generated, of)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run `iteration` at least [`MIN_PASSES`] times, then again while one
/// more, as long as the last, ends before `deadline`.
fn repeat_until(deadline: Instant, mut iteration: impl FnMut()) {
    let mut done = 0;
    let mut last = Duration::ZERO;
    while done < MIN_PASSES || Instant::now() + last + REPORT_SLACK < deadline {
        let t0 = Instant::now();
        iteration();
        last = t0.elapsed();
        done += 1;
    }
}

/// Print a median with its quartiles and sample count.
fn describe(name: &str, values: &[f64]) {
    let [q1, q2, q3] = quartiles(values);
    println!(
        "  {name}: median {q2:.4} s, quartiles {q1:.4}..{q3:.4} s over {} samples",
        values.len()
    );
}

/// Mean absolute error, in percentage points, of the simulated Table I
/// fault reductions against the paper's. `faults` is in `undersub` point
/// order: prefetch off then on, per workload kind.
fn table1_mae(faults: &[u64]) -> f64 {
    assert_eq!(faults.len(), 2 * PAPER_TABLE1.len(), "undersub point order");
    let total: f64 = faults
        .chunks(2)
        .zip(PAPER_TABLE1)
        .map(|(pair, paper)| ((1.0 - ratio(pair[1] as f64, pair[0] as f64)) * 100.0 - paper).abs())
        .sum();
    total / PAPER_TABLE1.len() as f64
}

/// Table I error at `seed`, from one untimed `undersub` pass whose point
/// runs are checked too.
fn table1_at(seed: u64, cal: &mut Calibrator, v: &mut Verifier) -> f64 {
    let points = points::points("undersub", seed).expect("undersub exists");
    let mut own = verifier_for("undersub", &points, seed);
    let pass = plain_pass(&points, &setup(&points), cal, &mut own);
    v.absorb(&own);
    table1_mae(&pass.faults)
}

/// High-water resident memory of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0);
    kib / 1024.0
}

/// End-to-end metrics, tracing off.
fn plain_run(args: &Args, points: &[Point], deadline: Instant, v: &mut Verifier) -> Vec<f64> {
    // Set-ups and passes interleave, so both sample the whole run window.
    // The one untimed Table I pass comes after them, so that it does not
    // raise the workload's peak RSS; its time is kept free at the end.
    let mut cal = Calibrator::new();
    let mut setup_times = Vec::new();
    let mut walls = Vec::new();
    let mut raw_walls = Vec::new();
    let mut faults = Vec::new();
    let timed_until = deadline.checked_sub(TABLE1_RESERVE).unwrap_or(deadline);
    repeat_until(timed_until, || {
        let s = timed_setups(points, &mut cal, &mut setup_times);
        let pass = plain_pass(points, &s, &mut cal, v);
        walls.push(pass.calibrated);
        raw_walls.push(pass.raw);
        faults = pass.faults;
    });
    let peak = peak_rss_mib();
    describe("calibrated wall per pass", &walls);
    describe("raw wall per pass", &raw_walls);
    describe("calibrated set-up", &setup_times);
    describe("calibration kernel", &cal.samples);

    let reference_mae;
    if args.workload == "undersub" {
        let own = table1_mae(&faults);
        let (heldout_seed, heldout) = if args.seed == REFERENCE_SEED {
            reference_mae = own;
            (HELDOUT_SEED, table1_at(HELDOUT_SEED, &mut cal, v))
        } else {
            reference_mae = table1_at(REFERENCE_SEED, &mut cal, v);
            (args.seed, own)
        };
        println!(
            "  table1_mae_pp: {reference_mae:.4} at reference seed {REFERENCE_SEED}, \
             {heldout:.4} at held-out seed {heldout_seed}"
        );
    } else {
        reference_mae = table1_at(REFERENCE_SEED, &mut cal, v);
    }

    let wall = median(&walls);
    let total_faults: u64 = faults.iter().sum();
    vec![
        wall,
        total_faults as f64 / wall,
        median(&setup_times),
        peak,
        reference_mae,
    ]
}

/// Per-layer metrics from interleaved plain and traced passes.
fn traced_run(points: &[Point], deadline: Instant, v: &mut Verifier) -> Vec<f64> {
    let s = setup(points);
    let mut gen = Layers::default();
    let (generated, of) = generate(points, &mut gen);

    let mut plain_walls = Vec::new();
    let mut passes = Vec::new();
    let mut cal = Calibrator::new();
    repeat_until(deadline, || {
        plain_walls.push(plain_pass(points, &s, &mut cal, v).raw);
        passes.push(traced_pass(points, &generated, &of, v));
    });
    let traced_walls: Vec<f64> = passes.iter().map(|(w, _, _)| secs(*w)).collect();
    describe("plain wall per pass", &plain_walls);
    describe("traced wall per pass", &traced_walls);

    let layer = |f: fn(&Layers) -> Duration| -> f64 {
        median(
            &passes
                .iter()
                .map(|(_, l, _)| secs(f(l)))
                .collect::<Vec<_>>(),
        )
    };
    let plain = median(&plain_walls);
    let traced = median(&traced_walls);
    let pct = |x: f64| 100.0 * ratio(x, traced);
    let engine_run = layer(|l| l.engine_run);
    let replay = layer(|l| l.replay);
    let notify = layer(|l| l.notify);
    let process_pass = layer(|l| l.process_pass);
    let render = layer(|l| l.render);
    let loop_self = median(
        &passes
            .iter()
            .map(|(w, l, _)| secs(w.saturating_sub(l.inside())))
            .collect::<Vec<_>>(),
    );

    let (_, last, sums) = passes.last().expect("at least one traced pass");
    let pass_ns: Vec<u64> = passes
        .iter()
        .flat_map(|(_, l, _)| l.pass_ns.iter().copied())
        .collect();
    let tail = stats::tail_percentile(pass_ns.len()).unwrap_or(50.0);
    if tail < 99.0 {
        println!(
            "  pass_us_p99 reports p{tail}: {} passes leave fewer than 10 beyond p99",
            pass_ns.len()
        );
    }
    let pass_us = |p: f64| {
        if pass_ns.is_empty() {
            0.0
        } else {
            stats::percentile(&pass_ns, p) as f64 / 1e3
        }
    };
    let (c, e, a) = (&sums.counters, &sums.engine, &sums.attribution);
    let sim_ms = |cat| sums.timers.get(cat).as_millis_f64();
    let raise_attempts = e.faults_raised + e.faults_coalesced + e.faults_throttled;
    let b = &last.buffer;
    vec![
        secs(gen.generate),
        gen.trace_accesses as f64,
        engine_run,
        pct(engine_run),
        last.engine_run_calls as f64,
        ratio(engine_run * 1e9, e.steps_completed as f64),
        replay,
        pct(replay),
        e.faults_raised as f64,
        e.faults_coalesced as f64,
        e.faults_throttled as f64,
        e.faults_dropped as f64,
        e.steps_completed as f64,
        e.retries_skipped as f64,
        e.wakeups as f64,
        ratio(e.faults_raised as f64, raise_attempts as f64),
        notify,
        pct(notify),
        b.written as f64,
        b.fetched as f64,
        b.flushed as f64,
        b.dropped as f64,
        b.replay_rounds as f64,
        process_pass,
        pct(process_pass),
        last.pass_ns.len() as f64,
        pass_us(50.0),
        pass_us(tail),
        ratio(process_pass * 1e9, c.faults_fetched as f64),
        sim_ms(Category::Preprocess),
        sim_ms(Category::ServicePma),
        sim_ms(Category::ServiceMigrate),
        sim_ms(Category::ServiceMap),
        sim_ms(Category::ReplayPolicy),
        sim_ms(Category::Eviction),
        c.faults_fetched as f64,
        c.duplicate_faults as f64,
        c.batches as f64,
        c.vablocks_serviced as f64,
        c.pages_prefetched as f64,
        c.evictions as f64,
        c.pages_evicted_clean as f64,
        c.pages_evicted_migrated as f64,
        c.evict_shortfall_bytes as f64,
        ratio(c.duplicate_faults as f64, c.faults_fetched as f64),
        ratio(a.prefetch_evicted_pages as f64, a.prefetch_pages as f64),
        ratio(a.refault_unused_faults as f64, c.faults_fetched as f64),
        render,
        pct(render),
        sums.artefact_bytes as f64,
        sums.span_events as f64,
        sums.lineage_events as f64,
        sums.samples as f64,
        sums.dropped as f64,
        plain,
        traced,
        loop_self,
        pct(loop_self),
        100.0 * (ratio(traced, plain) - 1.0),
        1e3 * median(&cal.samples),
    ]
}

/// Print one `name value unit` line per metric.
fn emit(defs: &[(&str, &str)], values: &[f64]) {
    assert_eq!(defs.len(), values.len(), "one value per defined metric");
    for ((name, unit), value) in defs.iter().zip(values) {
        assert!(stats::valid_name(name), "illegal metric name {name}");
        println!("{name} {value} {unit}");
    }
}

/// The final stdout line.
fn result_json(v: &Verifier, defs: &[(&str, &str)], values: &[f64]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .zip(values)
        .map(|((name, unit), value)| {
            // JSON has no NaN or infinity; neither can arise from the
            // guarded ratios, but never print one.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.failed == 0 && v.attempted > 0,
        v.attempted,
        v.failed,
        metrics.join(", ")
    )
}

/// Rewrite the reference digests from one pass of every workload at the
/// reference seed.
fn bless() {
    let mut rows: Vec<(String, String, Digest)> = Vec::new();
    for workload in points::WORKLOADS {
        let points = points::points(workload, REFERENCE_SEED).expect("known workload");
        let mut v = Verifier::new(points.len(), None);
        plain_pass(&points, &setup(&points), &mut Calibrator::new(), &mut v);
        assert_eq!(
            v.failed, 0,
            "artefacts of {workload} must validate before blessing"
        );
        for (p, d) in points.iter().zip(v.first_digests()) {
            rows.push((workload.to_string(), p.label.clone(), d));
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference_digests.tsv");
    std::fs::write(path, check::render_reference(REFERENCE_SEED, &rows))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {} reference digests to {path}", rows.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Option<Args>, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "thrash",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("thrash", 7, 10, true)
        );
        assert!(args(&["--bless"]).unwrap().is_none());
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "thrash",
                "--seed",
                "-1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "thrash",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "thrash",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "thrash", "--seed", "1", "--seconds", "1"],
            &["--workload"],
            &["--frobnicate", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// Every `"name": "…"` value in `BENCHMARK.json`, in file order.
    fn benchmark_names() -> Vec<(String, Option<String>)> {
        let text = include_str!("../../BENCHMARK.json");
        let field = |obj: &str, key: &str| {
            let start = obj.find(&format!("\"{key}\": \""))? + key.len() + 5;
            Some(obj[start..start + obj[start..].find('"')?].to_string())
        };
        text.split('{')
            .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit"))))
            .collect()
    }

    #[test]
    fn metric_names_are_legal_unique_and_match_benchmark_json() {
        let ours: Vec<(String, Option<String>)> = points::WORKLOADS
            .iter()
            .map(|w| (w.to_string(), None))
            .chain(
                END_TO_END
                    .iter()
                    .chain(&PER_LAYER)
                    .map(|(n, u)| (n.to_string(), Some(u.to_string()))),
            )
            .collect();
        for (i, (name, _)) in ours.iter().enumerate() {
            assert!(stats::valid_name(name), "illegal name {name}");
            assert!(ours[..i].iter().all(|(n, _)| n != name), "duplicate {name}");
        }
        assert_eq!(benchmark_names(), ours);
    }

    #[test]
    fn reference_digests_cover_every_point() {
        for w in points::WORKLOADS {
            let labels: Vec<String> = points::points(w, REFERENCE_SEED)
                .unwrap()
                .into_iter()
                .map(|p| p.label)
                .collect();
            check::reference_for(REFERENCE, w, &labels).unwrap();
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut v = Verifier::new(1, None);
        v.record("p", vec![]);
        let line = result_json(&v, &END_TO_END, &[1.5, 2.0, 0.25, 10.0, f64::NAN]);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"table1_mae_pp\": {\"value\": 0, \"unit\": \"pp\"}"));
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn table1_mae_against_the_paper() {
        // Reductions equal to the paper's give no error; 10 points off on
        // one workload of eight gives 1.25.
        let mut faults = Vec::new();
        for paper in PAPER_TABLE1 {
            faults.extend([100_000, (100_000.0 * (1.0 - paper / 100.0)).round() as u64]);
        }
        assert!(table1_mae(&faults) < 1e-9);
        faults[1] += 10_000;
        assert!((table1_mae(&faults) - 1.25).abs() < 1e-9);
    }
}
