//! The traced run: the benchmark's own copy of `uvm_sim::run_prepared`,
//! with a host timer around each public call into a layer.
//!
//! The copy must stay the same program as the original — every branch,
//! livelock assert and span instant included — and the benchmark proves
//! it after each point by comparing the copy's report digest with the
//! plain `run_prepared` report (see `check`). Timers wrap whole calls
//! (one engine run, one driver pass), never per-page work.

use std::sync::Arc;
use std::time::{Duration, Instant};
use uvm_sim::gpu_model::dma::{explicit_transfer, TransferLog};
use uvm_sim::gpu_model::{FaultBuffer, GpuEngine, WorkloadTrace};
use uvm_sim::sim_engine::units::PAGE_SIZE;
use uvm_sim::{
    CostModel, ManagedSpace, SimConfig, SimReport, SimRng, SimTime, SpanKind, UvmDriver, Workload,
};

/// `uvm_sim`'s report keeps this many offending VABlocks.
const TOP_OFFENDERS_K: usize = 8;

/// A workload generated through the public `Workload::generate` call: the
/// mirror's copy of `uvm_sim::prepare`.
pub struct Generated {
    space: ManagedSpace,
    trace: Arc<WorkloadTrace>,
}

impl Generated {
    /// Generate `workload` for `config`'s seed, timing the call into
    /// `layers.generate`.
    pub fn new(config: &SimConfig, workload: &Workload, layers: &mut Layers) -> Generated {
        let root = SimRng::from_seed(config.seed);
        let mut space = ManagedSpace::new();
        let t0 = Instant::now();
        let trace = workload.generate(&mut space, &mut root.derive(1));
        layers.generate += t0.elapsed();
        layers.trace_accesses += trace.total_accesses();
        Generated {
            space,
            trace: Arc::new(trace),
        }
    }
}

/// Host time and work counts per layer, summed over the points of one pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `Workload::generate`.
    pub generate: Duration,
    /// Accesses in the generated traces.
    pub trace_accesses: u64,
    /// `GpuEngine::run`.
    pub engine_run: Duration,
    /// Calls of `GpuEngine::run`.
    pub engine_run_calls: u64,
    /// `GpuEngine::replay`.
    pub replay: Duration,
    /// `GpuEngine::drain_access_notifications` + `UvmDriver::note_access_notifications`.
    pub notify: Duration,
    /// `UvmDriver::process_pass`.
    pub process_pass: Duration,
    /// Host nanoseconds of each `process_pass` call.
    pub pass_ns: Vec<u64>,
    /// The `metrics` renderers.
    pub render: Duration,
    /// `FaultBuffer` getters, summed at the end of each point.
    pub buffer: BufferTotals,
}

/// The fault buffer's own counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferTotals {
    pub written: u64,
    pub fetched: u64,
    pub flushed: u64,
    pub dropped: u64,
    pub replay_rounds: u64,
}

impl Layers {
    /// Host time spent inside the timed layer calls of the loop.
    pub fn inside(&self) -> Duration {
        self.engine_run + self.replay + self.notify + self.process_pass + self.render
    }
}

/// Same as `uvm_sim::resolve_service_workers`: auto (0) runs serial.
fn resolve_service_workers(mut driver: uvm_sim::DriverConfig) -> uvm_sim::DriverConfig {
    if driver.service_workers == 0 {
        driver.service_workers = 1;
    }
    driver
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed();
    out
}

/// `uvm_sim::run_prepared` with layer timers. Returns the same report.
pub fn run_traced(config: &SimConfig, prepared: &Generated, layers: &mut Layers) -> SimReport {
    let cost = CostModel::new(config.cost.clone());
    let root = SimRng::from_seed(config.seed);

    let space = prepared.space.clone();
    let footprint_bytes = space.ranges().iter().map(|r| r.num_pages).sum::<u64>() * PAGE_SIZE;
    let subscription_ratio = footprint_bytes as f64 / config.driver.gpu_memory_bytes as f64;

    let mut driver = UvmDriver::new(
        resolve_service_workers(config.driver.clone()),
        cost.clone(),
        space,
        root.derive(2),
    );
    let mut engine = GpuEngine::launch(
        config.gpu.clone(),
        Arc::clone(&prepared.trace),
        root.derive(3),
    );
    let mut buffer = FaultBuffer::new(config.fault_buffer.clone());

    let mut clock = SimTime::ZERO + cost.kernel_launch();
    let mut passes: u64 = 0;
    let mut stuck_passes: u64 = 0;
    let mut last_steps: u64 = 0;
    let mut last_buffer_drops: u64 = 0;

    loop {
        timed(&mut layers.engine_run, || {
            engine.run(driver.space(), &mut buffer, clock)
        });
        layers.engine_run_calls += 1;
        let ec = *engine.counters();
        driver.note_engine_retry_stats(ec.retries_skipped, ec.retry_pages_skipped, ec.wakeups);
        if engine.is_done() {
            break;
        }
        let buffer_drops = engine.counters().faults_dropped;
        if buffer_drops > last_buffer_drops {
            driver.spans_mut().instant(
                SpanKind::BufferOverflow,
                clock,
                buffer_drops - last_buffer_drops,
                0,
            );
            last_buffer_drops = buffer_drops;
        }
        if config.gpu.access_counters.enabled {
            clock += timed(&mut layers.notify, || {
                let notifs = engine.drain_access_notifications();
                driver.note_access_notifications(
                    &notifs,
                    config.gpu.access_counters.granularity_pages,
                    clock,
                )
            });
        }
        loop {
            let t0 = Instant::now();
            let pass = driver.process_pass(&mut buffer, clock);
            let took = t0.elapsed();
            layers.process_pass += took;
            layers.pass_ns.push(took.as_nanos() as u64);
            clock += pass.time;
            passes += 1;
            assert!(
                passes <= config.max_passes,
                "exceeded max_passes = {} — livelock?",
                config.max_passes
            );
            if pass.replays > 0 {
                break;
            }
        }
        clock += cost.replay_latency();
        timed(&mut layers.replay, || engine.replay());

        let steps = engine.counters().steps_completed;
        if steps == last_steps {
            stuck_passes += 1;
            assert!(
                stuck_passes < 10_000,
                "no GPU progress over {stuck_passes} replays"
            );
        } else {
            stuck_passes = 0;
            last_steps = steps;
        }
    }

    let driver_time = clock - SimTime::ZERO;
    let compute_time = cost.kernel_launch() + engine.compute_time();
    let total_time = driver_time + engine.compute_time();
    driver.finalize_timeseries(clock);

    let mut xfer_explicit = TransferLog::default();
    let explicit_time = cost.kernel_launch()
        + explicit_transfer(&cost, footprint_bytes, &mut xfer_explicit)
        + engine.compute_time();
    let prefetched_unused_pages = config.gpu.track_page_use.then(|| {
        driver
            .prefetched_pages()
            .filter(|&p| !engine.page_was_used(p))
            .count() as u64
    });

    let b = &mut layers.buffer;
    b.written += buffer.written();
    b.fetched += buffer.fetched();
    b.flushed += buffer.flushed();
    b.dropped += buffer.dropped();
    b.replay_rounds += buffer.replay_rounds();

    SimReport {
        workload: engine.trace().name.clone(),
        footprint_bytes,
        subscription_ratio,
        total_time,
        driver_time,
        compute_time,
        explicit_time,
        timers: *driver.timers(),
        counters: *driver.counters(),
        engine: *engine.counters(),
        transfers: *driver.transfer_log(),
        trace: driver.trace().events().to_vec(),
        trace_dropped: driver.trace().dropped(),
        span_trace: driver.spans().to_trace(),
        faults_per_batch: driver.faults_per_batch().clone(),
        vablocks_per_batch: driver.vablocks_per_batch().clone(),
        timeseries: driver.take_timeseries(),
        prefetched_unused_pages,
        attribution: *driver.attribution(),
        top_offenders: driver.top_offenders(TOP_OFFENDERS_K),
        lineage: driver.take_lineage(),
    }
}
