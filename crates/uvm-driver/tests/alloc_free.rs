//! Proof that steady-state batch pre-processing is allocation-free: after
//! one warm-up pass sizes the arena, `gather_into` must not touch the
//! heap again. A counting global allocator makes the claim checkable
//! instead of aspirational — if someone reintroduces a per-batch map or
//! a `collect()`, this test fails with the allocation count.
//!
//! The count is per thread: each test reads only the allocations its own
//! thread made, so the libtest harness and the other tests running in
//! parallel cannot leak into its measuring window.

use gpu_model::{AccessType, FaultBuffer, FaultBufferConfig, FaultEntry, GlobalPage};
use sim_engine::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use uvm_driver::batch::{gather_into, BatchArena};
use uvm_driver::ManagedSpace;

/// Passes allocations through to the system allocator, counting them
/// per thread.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Heap allocations (including reallocations) this thread has made.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Driver passes run before a measuring window opens. Besides sizing the
/// arena, warm-up must fill the space's residency change log: a ring of
/// fixed capacity that grows by `push` until it reaches that capacity,
/// which takes a few hundred passes of the thrash scenarios below.
const WARM_UP_PASSES: u64 = 512;

/// A full batch of faults shaped like the thrash steady state: many
/// VABlocks, unsorted arrival order, duplicates across µTLBs.
fn fill_buffer(buffer: &mut FaultBuffer, batch: u64) {
    for i in 0..256u64 {
        let page = (i * 193 + batch * 7) % 4096;
        buffer.push(FaultEntry {
            page: GlobalPage(page),
            access: if i % 3 == 0 {
                AccessType::Write
            } else {
                AccessType::Read
            },
            timestamp: SimTime::ZERO + SimDuration::from_nanos(batch * 1000 + i),
            utlb: (i % 80) as u32,
        });
    }
}

#[test]
fn steady_state_batch_preprocessing_does_not_allocate() {
    let mut space = ManagedSpace::new();
    space.alloc(4096 * 4096, "alloc-free");
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    let mut arena = BatchArena::default();

    // Warm-up: the first gathers size the arena's entry and group vectors.
    for batch in 0..4 {
        fill_buffer(&mut buffer, batch);
        gather_into(
            &mut buffer,
            256,
            SimTime::ZERO + SimDuration::from_millis(batch + 1),
            &mut space,
            &mut arena,
        );
        assert!(!arena.batch.groups.is_empty(), "warm-up produced no groups");
    }

    // Steady state: zero heap allocations over many batches. Buffer
    // fills happen inside the window too; they must not allocate either
    // once the buffer is sized.
    let before = allocs();
    for batch in 0..60 {
        fill_buffer(&mut buffer, 4 + batch);
        gather_into(
            &mut buffer,
            256,
            SimTime::ZERO + SimDuration::from_millis(batch + 1),
            &mut space,
            &mut arena,
        );
        assert!(!arena.batch.groups.is_empty());
    }
    let n = allocs() - before;
    assert_eq!(n, 0, "steady-state gather_into allocated {n} times");
}

/// The same claim for the whole service path: once the arena and the
/// planning scratch tree are sized, a full pass — gather, per-group
/// planning, ordered commit with evictions — must not touch the heap.
#[test]
fn steady_state_service_does_not_allocate() {
    use sim_engine::units::VABLOCK_SIZE;
    use sim_engine::{CostModel, SimRng};
    use uvm_driver::{DriverConfig, UvmDriver};

    let cfg = DriverConfig {
        gpu_memory_bytes: 4 * VABLOCK_SIZE,
        ..DriverConfig::default()
    };
    let mut space = ManagedSpace::new();
    space.alloc(16 * VABLOCK_SIZE, "svc");
    let mut driver = UvmDriver::new(cfg, CostModel::default(), space, SimRng::from_seed(3));
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    let clock = SimTime::ZERO + SimDuration::from_millis(1);

    // 12 faulting blocks per pass, 3× the GPU's capacity, so evictions
    // churn every pass — the thrash steady state.
    let fill = |buffer: &mut FaultBuffer, round: u64| {
        for b in 0..12u64 {
            buffer.push(FaultEntry {
                page: GlobalPage(b * 512 + (round * 13) % 512),
                access: if b % 3 == 0 {
                    AccessType::Write
                } else {
                    AccessType::Read
                },
                timestamp: SimTime::ZERO,
                utlb: (b % 4) as u32,
            });
        }
    };

    for round in 0..WARM_UP_PASSES {
        fill(&mut buffer, round);
        driver.process_pass(&mut buffer, clock);
    }

    let before = allocs();
    for round in 0..40u64 {
        fill(&mut buffer, WARM_UP_PASSES + round);
        let r = driver.process_pass(&mut buffer, clock);
        assert!(r.fetched > 0);
    }
    let n = allocs() - before;
    assert_eq!(n, 0, "steady-state service allocated {n} times");
    assert!(driver.counters().evictions > 0, "the scenario must thrash");
    // The provenance ledger rode along through every one of those passes
    // (fixed-size counters + preallocated per-block stats), so a thrashing
    // steady state proves the attribution path is allocation-free too —
    // and the ledger it built must be a real one: refaults observed and
    // every partition equation intact.
    let a = driver.attribution();
    assert!(
        a.refault_used_faults + a.refault_unused_faults > 0,
        "thrash must produce refaults"
    );
    a.reconcile(
        driver.counters(),
        driver.transfer_log().h2d_bytes,
        driver.transfer_log().d2h_bytes,
    )
    .expect("attribution reconciles after the allocation-free window");
}

/// Steady-state telemetry sampling is allocation-free: the sample buffer
/// is preallocated at its capacity and compaction is in place, so a
/// driver with the timeseries armed — sampling on (almost) every pass,
/// including through multiple buffer compactions — allocates exactly as
/// much as one with it off: nothing.
#[test]
fn steady_state_sampling_does_not_allocate() {
    use metrics::TimeseriesConfig;
    use sim_engine::units::VABLOCK_SIZE;
    use sim_engine::{CostModel, SimRng};
    use uvm_driver::{DriverConfig, UvmDriver};

    let cfg = DriverConfig {
        gpu_memory_bytes: 4 * VABLOCK_SIZE,
        timeseries: TimeseriesConfig {
            enabled: true,
            // A 1 ns grid makes every pass due; capacity 32 forces a
            // compaction every 32 samples — both paths in the window.
            interval_ns: 1,
            capacity: 32,
        },
        ..DriverConfig::default()
    };
    let mut space = ManagedSpace::new();
    space.alloc(16 * VABLOCK_SIZE, "sampled");
    let mut driver = UvmDriver::new(cfg, CostModel::default(), space, SimRng::from_seed(3));
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    let mut clock = SimTime::ZERO + SimDuration::from_millis(1);

    let fill = |buffer: &mut FaultBuffer, round: u64| {
        for b in 0..12u64 {
            buffer.push(FaultEntry {
                page: GlobalPage(b * 512 + (round * 13) % 512),
                access: if b % 3 == 0 {
                    AccessType::Write
                } else {
                    AccessType::Read
                },
                timestamp: SimTime::ZERO,
                utlb: (b % 4) as u32,
            });
        }
    };

    // Warm-up sizes the arena and fills the sample buffer once.
    for round in 0..WARM_UP_PASSES {
        fill(&mut buffer, round);
        let r = driver.process_pass(&mut buffer, clock);
        clock += r.time;
    }

    let before = allocs();
    for round in 0..40u64 {
        fill(&mut buffer, WARM_UP_PASSES + round);
        let r = driver.process_pass(&mut buffer, clock);
        clock += r.time;
        assert!(r.fetched > 0);
    }
    let n = allocs() - before;
    assert_eq!(n, 0, "steady-state sampling allocated {n} times");
    driver.finalize_timeseries(clock);
    let ts = driver.take_timeseries();
    assert!(
        ts.compactions > 0,
        "the window must have exercised in-place compaction"
    );
    assert!(ts.samples.len() <= 32);
}

/// Steady-state lineage recording is allocation-free: the event log, the
/// flight-recorder ring, and the dump storage are all preallocated at
/// construction, so a driver emitting lifecycle events on every pass —
/// first-touches, refaults, migrations, evictions, writebacks — costs
/// zero heap traffic once warm.
#[test]
fn steady_state_lineage_recording_does_not_allocate() {
    use metrics::LineageConfig;
    use sim_engine::units::VABLOCK_SIZE;
    use sim_engine::{CostModel, SimRng};
    use uvm_driver::{DriverConfig, UvmDriver};

    let cfg = DriverConfig {
        gpu_memory_bytes: 4 * VABLOCK_SIZE,
        lineage: LineageConfig {
            enabled: true,
            ..LineageConfig::default()
        },
        ..DriverConfig::default()
    };
    let mut space = ManagedSpace::new();
    space.alloc(16 * VABLOCK_SIZE, "lineage");
    let mut driver = UvmDriver::new(cfg, CostModel::default(), space, SimRng::from_seed(3));
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());
    let mut clock = SimTime::ZERO + SimDuration::from_millis(1);

    let fill = |buffer: &mut FaultBuffer, round: u64| {
        for b in 0..12u64 {
            buffer.push(FaultEntry {
                page: GlobalPage(b * 512 + (round * 13) % 512),
                access: if b % 3 == 0 {
                    AccessType::Write
                } else {
                    AccessType::Read
                },
                timestamp: SimTime::ZERO,
                utlb: (b % 4) as u32,
            });
        }
    };

    // Warm-up: the arena sizes itself; the lineage buffers were already
    // reserved in full at construction.
    for round in 0..WARM_UP_PASSES {
        fill(&mut buffer, round);
        let r = driver.process_pass(&mut buffer, clock);
        clock += r.time;
    }

    let before = allocs();
    for round in 0..40u64 {
        fill(&mut buffer, WARM_UP_PASSES + round);
        let r = driver.process_pass(&mut buffer, clock);
        clock += r.time;
        assert!(r.fetched > 0);
    }
    let n = allocs() - before;
    assert_eq!(n, 0, "steady-state lineage recording allocated {n} times");
    // The window emitted real events (thrash => refaults and evictions),
    // and the log it produced reconciles against the ledgers.
    let lineage = driver.take_lineage();
    assert!(!lineage.is_empty(), "the window must have recorded events");
    assert!(
        lineage.total(metrics::LineageEventKind::Refault).pages > 0,
        "thrash must produce refault events"
    );
    lineage
        .reconcile(driver.counters(), driver.attribution())
        .expect("lineage reconciles after the allocation-free window");
}

/// Steady-state event-driven replay is allocation-free AND capacity-
/// bounded: two stalled blocks share one full µTLB against a real
/// `ManagedSpace`, so every replay round resolves one block by the
/// raise-only closed form and the other arithmetically. Once warm, the
/// retry hot path must touch neither the heap (no stamp or scratch
/// growth) nor exceed the engine's steady-state scratch cap.
#[test]
fn steady_state_event_replay_does_not_allocate() {
    use gpu_model::{BlockTrace, GpuConfig, GpuEngine, WorkloadTrace};
    use sim_engine::units::VABLOCK_SIZE;
    use sim_engine::SimRng;

    let mut space = ManagedSpace::new();
    space.alloc(VABLOCK_SIZE, "retry-steady");

    // Two blocks, fingerprint-disjoint pending sets sized exactly to the
    // µTLB capacity: each round one refills the set, the other skips.
    let mk_block = |pages: std::ops::Range<u64>| {
        let mut bt = BlockTrace::new(SimDuration::from_nanos(100));
        bt.push_step(pages.map(GlobalPage), false);
        bt
    };
    let trace = WorkloadTrace {
        name: "retry-steady".into(),
        blocks: vec![mk_block(0..4), mk_block(68..72)],
        footprint_pages: 8,
    };
    let cfg = GpuConfig {
        num_utlbs: 1,
        max_outstanding_per_utlb: 4,
        ..GpuConfig::default()
    };
    let mut eng = GpuEngine::launch(cfg, trace, SimRng::from_seed(7));
    let mut buffer = FaultBuffer::new(FaultBufferConfig::default());

    // Warm-up: first run subscribes both blocks and sizes the buffer.
    eng.run(&space, &mut buffer, SimTime::ZERO);
    for _ in 0..8 {
        buffer.flush();
        eng.replay();
        eng.run(&space, &mut buffer, SimTime::ZERO);
    }

    let before = allocs();
    for _ in 0..40 {
        buffer.flush();
        eng.replay();
        eng.run(&space, &mut buffer, SimTime::ZERO);
    }
    let n = allocs() - before;
    assert_eq!(n, 0, "steady-state event-driven replay allocated {n} times");
    let c = eng.counters();
    assert!(
        c.retries_skipped > 0,
        "the window must have taken the arithmetic skip path"
    );
    assert!(c.retry_pages_skipped > 0);
    assert!(
        eng.retry_scratch_capacity() <= 4096,
        "miss scratch exceeded the steady-state cap: {}",
        eng.retry_scratch_capacity()
    );
    assert!(
        eng.max_pending_capacity() <= 4096,
        "a pending list exceeded the steady-state cap: {}",
        eng.max_pending_capacity()
    );
}
