//! Loosely-timed GPU execution model.
//!
//! A workload is a grid of thread blocks; each block carries a
//! page-granularity access trace organised into *steps* (the set of pages
//! the block's warps touch concurrently). The engine keeps up to
//! `max_blocks_resident` blocks active (SM occupancy), issues steps
//! round-robin across active blocks (modelling the interleaved,
//! nondeterministic fault order the paper observes in Fig. 7), raises
//! far-faults for non-resident pages into the [`FaultBuffer`] with per-µTLB
//! deduplication, and stalls blocks until the driver issues a *replay*.
//!
//! Replay semantics follow the hardware (paper §III-E): a replay resumes
//! **all** stalled warps; accesses whose pages are now resident proceed,
//! the rest fault again — generating duplicate faults if their old entries
//! are still in the buffer (which is exactly why the default policy
//! flushes).

use crate::access_counters::{AccessCounterConfig, AccessCounters, AccessNotification};
use crate::addr::{AccessType, GlobalPage};
use crate::fault::{FaultBuffer, FaultEntry};
use serde::{Deserialize, Serialize};
use sim_engine::{SimDuration, SimRng, SimTime};
use std::sync::Arc;

/// Read-only residency oracle: "is this page currently mapped on the GPU?"
///
/// Implemented by the UVM driver's address-space bookkeeping; the GPU
/// engine is oblivious to how residency is managed.
pub trait Residency {
    /// True if `page` is resident (mapped) in GPU memory.
    fn is_resident(&self, page: GlobalPage) -> bool;

    /// The 64-page residency word covering `page`: bit `p % 64` holds
    /// the residency of page `(page & !63) + p % 64`. The retry scan
    /// caches this word across consecutive accesses, so streaming
    /// workloads pay one load per 64 pages instead of one per page;
    /// oracles without a dense index inherit this per-bit assembly.
    fn resident_word(&self, page: GlobalPage) -> u64 {
        let base = page.0 & !63;
        let mut w = 0u64;
        for b in 0..64 {
            if self.is_resident(GlobalPage(base + b)) {
                w |= 1 << b;
            }
        }
        w
    }

    /// Monotone change stamp over the whole residency map: bumped once
    /// for every 64-page residency word whose *value* changed (commit,
    /// eviction, host migration). `None` (the default) means the oracle
    /// does not publish change events, and the engine must rescan every
    /// pending list on every replay — always correct, never fast.
    fn change_seq(&self) -> Option<u64> {
        None
    }

    /// Enumerate the dense word indices (`page / 64`) whose residency
    /// word changed in `(since, change_seq()]`, oldest first, repeats
    /// allowed. Returns `false` when the oracle's change log no longer
    /// reaches back to `since` (the caller must then treat *every* word
    /// as changed). Only meaningful when [`change_seq`](Self::change_seq)
    /// returns `Some`.
    fn changed_words_since(&self, since: u64, visit: &mut dyn FnMut(u64)) -> bool {
        let _ = (since, visit);
        false
    }
}

/// How the engine re-checks a stalled block's pending list after a
/// replay (paper §III-E retry semantics — all three produce bit-identical
/// simulated output; they differ only in host work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RetryMode {
    /// Event-driven: skip the residency walk for blocks whose covering
    /// residency words provably did not change since they stalled, and
    /// apply the retry's counter/buffer effects in closed form.
    #[default]
    Event,
    /// Always rescan every pending entry against the residency oracle
    /// (the pre-event-driven behaviour; reference semantics).
    Scan,
    /// Run the event-driven bookkeeping *and* the full scan, asserting
    /// at every skip opportunity that the closed form reproduces the
    /// scan's exact counter deltas and buffer writes. CI gate mode.
    CrossCheck,
}

/// GPU hardware configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Number of SMs (Titan V: 80).
    pub num_sms: usize,
    /// Maximum thread blocks concurrently resident across all SMs.
    pub max_blocks_resident: usize,
    /// Number of µTLBs (fault-dedup domains). Faults for the same page
    /// from the same µTLB coalesce into one buffer entry; from different
    /// µTLBs they duplicate.
    pub num_utlbs: usize,
    /// Maximum outstanding (unserviced) faults a single µTLB tracks;
    /// beyond this the µTLB stalls accesses without recording new faults.
    pub max_outstanding_per_utlb: usize,
    /// Volta-style access counters (paper §VI-B3): when enabled the
    /// hardware counts non-faulting accesses per region and raises
    /// notifications an access-counter-aware eviction policy can use.
    pub access_counters: AccessCounterConfig,
    /// Omniscient per-page use tracking (simulator-level analysis, not a
    /// hardware feature): records every page the kernel actually reads or
    /// writes, enabling prefetch-waste accounting (pages prefetched but
    /// never used — paper §VI-A).
    pub track_page_use: bool,
    /// Replay-retry strategy (see [`RetryMode`]); simulated output is
    /// identical for every mode.
    #[serde(default)]
    pub retry: RetryMode,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            num_sms: 80,
            max_blocks_resident: 1280,
            num_utlbs: 80,
            max_outstanding_per_utlb: 16,
            access_counters: AccessCounterConfig::default(),
            track_page_use: false,
            retry: RetryMode::default(),
        }
    }
}

/// Access trace of one thread block.
///
/// `pages`/`writes` are flat arrays over all accesses; `step_ends[i]` is
/// the exclusive end index of step `i`. All pages of a step are issued
/// concurrently; the block can only advance past a step when every page of
/// the step is resident.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BlockTrace {
    pages: Vec<GlobalPage>,
    writes: Vec<bool>,
    step_ends: Vec<u32>,
    /// GPU wall-time contribution of one completed step assuming ideal
    /// whole-GPU utilisation (workload generators compute this as
    /// step FLOPs ÷ aggregate GPU FLOP rate, or bytes ÷ device memory
    /// bandwidth for bandwidth-bound kernels). Drives the compute-rate
    /// figures.
    pub step_cost: SimDuration,
}

impl BlockTrace {
    /// Create an empty trace with the given per-step compute cost.
    pub fn new(step_cost: SimDuration) -> Self {
        BlockTrace {
            pages: Vec::new(),
            writes: Vec::new(),
            step_ends: Vec::new(),
            step_cost,
        }
    }

    /// Append a step touching `pages` (true in `write` marks dirtying
    /// accesses; one flag applied to all pages of the step).
    pub fn push_step(&mut self, pages: impl IntoIterator<Item = GlobalPage>, write: bool) {
        let before = self.pages.len();
        self.pages.extend(pages);
        self.writes
            .extend(std::iter::repeat_n(write, self.pages.len() - before));
        assert!(
            self.pages.len() > before,
            "a step must touch at least one page"
        );
        assert!(self.pages.len() <= u32::MAX as usize, "trace too long");
        self.step_ends.push(self.pages.len() as u32);
    }

    /// Append a step with per-page write flags.
    pub fn push_step_mixed(&mut self, accesses: impl IntoIterator<Item = (GlobalPage, bool)>) {
        let before = self.pages.len();
        for (p, w) in accesses {
            self.pages.push(p);
            self.writes.push(w);
        }
        assert!(
            self.pages.len() > before,
            "a step must touch at least one page"
        );
        self.step_ends.push(self.pages.len() as u32);
    }

    /// Number of steps.
    pub fn num_steps(&self) -> usize {
        self.step_ends.len()
    }

    /// Total page accesses in the trace.
    pub fn num_accesses(&self) -> usize {
        self.pages.len()
    }

    /// The accesses of step `i` as `(page, is_write)` pairs.
    pub fn step(&self, i: usize) -> impl Iterator<Item = (GlobalPage, bool)> + '_ {
        let start = if i == 0 {
            0
        } else {
            self.step_ends[i - 1] as usize
        };
        let end = self.step_ends[i] as usize;
        self.pages[start..end]
            .iter()
            .copied()
            .zip(self.writes[start..end].iter().copied())
    }
}

/// A full grid: the blocks of one kernel launch, plus metadata.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkloadTrace {
    /// Human-readable workload name (e.g. "sgemm").
    pub name: String,
    /// Per-block traces, in block-ID order.
    pub blocks: Vec<BlockTrace>,
    /// Total distinct pages the workload touches (its memory footprint).
    pub footprint_pages: u64,
}

impl WorkloadTrace {
    /// Total accesses across all blocks.
    pub fn total_accesses(&self) -> u64 {
        self.blocks.iter().map(|b| b.num_accesses() as u64).sum()
    }

    /// Total steps across all blocks.
    pub fn total_steps(&self) -> u64 {
        self.blocks.iter().map(|b| b.num_steps() as u64).sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockStatus {
    /// Waiting for an SM slot.
    Pending,
    /// On an SM, able to issue.
    Runnable,
    /// On an SM, waiting for a replay.
    Stalled,
    /// Finished its trace.
    Done,
}

/// Result of letting the GPU run until it can make no further progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStatus {
    /// Every block has completed its trace.
    Done,
    /// All resident blocks are stalled on faults; the driver must act.
    Stalled,
}

/// Counters the engine accumulates (device-side view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineCounters {
    /// Page accesses that hit resident pages.
    pub resident_accesses: u64,
    /// Faults written into the buffer.
    pub faults_raised: u64,
    /// Faults coalesced away by per-µTLB dedup.
    pub faults_coalesced: u64,
    /// Faults suppressed by µTLB outstanding-limit flow control.
    pub faults_throttled: u64,
    /// Faults lost to a full fault buffer.
    pub faults_dropped: u64,
    /// Replays received.
    pub replays: u64,
    /// Completed block steps.
    pub steps_completed: u64,
    /// Retries resolved arithmetically (no residency loads): the block's
    /// covering residency words were unchanged and its µTLB was full with
    /// a disjoint fingerprint, so the whole pending list throttled in
    /// closed form. Zero under [`RetryMode::Scan`].
    #[serde(default)]
    pub retries_skipped: u64,
    /// Pending entries covered by `retries_skipped` (the pages whose
    /// retry effects were applied without touching them).
    #[serde(default)]
    pub retry_pages_skipped: u64,
    /// Dirty retries: retries of a subscribed block whose covering
    /// residency words changed since it last checked them, or after a
    /// drain that had to assume every word changed. Each one is a real
    /// rescan. Zero under [`RetryMode::Scan`].
    #[serde(default)]
    pub wakeups: u64,
}

impl EngineCounters {
    /// This counter set with the host-side retry-path telemetry
    /// (`retries_skipped` / `retry_pages_skipped` / `wakeups`) zeroed:
    /// the simulated-semantics view, which is equal across every
    /// [`RetryMode`] for the same `(config, workload)`.
    pub fn semantic(&self) -> EngineCounters {
        EngineCounters {
            retries_skipped: 0,
            retry_pages_skipped: 0,
            wakeups: 0,
            ..*self
        }
    }
}

/// The GPU execution engine.
#[derive(Debug)]
pub struct GpuEngine {
    cfg: GpuConfig,
    /// Shared so repeated launches of one kernel (and sweep harnesses that
    /// run the same trace under several configs) skip the deep copy.
    trace: Arc<WorkloadTrace>,
    status: Vec<BlockStatus>,
    cursor: Vec<u32>,
    /// Remaining missing accesses of each stalled block's current step —
    /// retries after a replay only re-check what was missing, not the
    /// whole step. Non-empty exactly while the block is stalled mid-step;
    /// the vectors trade places with `miss_scratch` so their capacity is
    /// reused across the whole launch (no steady-state allocation).
    /// Entries are page numbers with the write flag packed into the top
    /// bit ([`WRITE_BIT`]) — the retry scan is bandwidth-bound, and all
    /// live pending lists together must stay L2-resident.
    pending: Vec<Vec<u64>>,
    active: Vec<u32>,
    next_pending: u32,
    /// Outstanding faulted pages per µTLB (dedup + flow-control domain).
    /// Sorted, at most `max_outstanding_per_utlb` entries — small enough
    /// that binary-search + ordered insert beats hashing.
    outstanding: Vec<Vec<GlobalPage>>,
    /// 64-bit fingerprint of each µTLB's outstanding set (bit
    /// `page % 64`): a clear bit proves the page is not outstanding,
    /// short-circuiting the membership probe on the dominant
    /// full-set/throttled retry path.
    outstanding_filter: Vec<u64>,
    counters: EngineCounters,
    compute_work: SimDuration,
    access_counters: AccessCounters,
    /// One bit per page: set when the kernel actually used the page
    /// (only populated when `track_page_use` is enabled).
    accessed: Vec<u64>,
    rng: SimRng,
    /// Reusable buffer for the current step's missing accesses (same
    /// packed encoding as `pending`).
    miss_scratch: Vec<u64>,
    /// 64-bit fingerprint of each block's pending list (bit `page % 64`),
    /// computed when the block subscribes. Disjointness against the
    /// µTLB's `outstanding_filter` proves no pending page can coalesce.
    pending_fp: Vec<u64>,
    /// True once the block has stalled under live change events: its
    /// pending list then has a fingerprint and its covering words lie
    /// inside `word_stamp` (every later stall resubscribes). A block may
    /// only be treated as clean while subscribed.
    subscribed: Vec<bool>,
    /// Drain number at which each block last observed residency for its
    /// pending list (set on every stall). A retry is clean iff no drain
    /// after it stamped a covering word or dirtied every word.
    checked_at: Vec<u64>,
    /// µTLB drain epoch observed when the block last stalled. A retry
    /// only ever happens after at least one drain (`replay()` clears all
    /// outstanding sets), which is what makes "apply the whole pending
    /// list's effects once" the complete retry outcome.
    stall_drain: Vec<u64>,
    /// Change stamp per dense residency word (`page / 64`): the drain
    /// number at which the oracle's change log last reported the word.
    /// Grown on subscribe to cover every subscribed word; a word past its
    /// end has no subscriber, and a later subscriber checks after the
    /// change, so leaving it unstamped is exact.
    word_stamp: Vec<u64>,
    /// Residency drains so far (one per [`run`](Self::run) under a
    /// change-publishing oracle).
    drain_no: u64,
    /// Last drain that had to assume every word changed: first contact,
    /// a truncated change log or a sequence regression.
    all_dirty_at: u64,
    /// Oracle change stamp up to which events have been consumed.
    seen_seq: u64,
    /// Set once a change-publishing oracle has been observed; until then
    /// (and always under [`RetryMode::Scan`]) every retry rescans.
    events_live: bool,
    /// Drain epoch shared by every µTLB: bumped each [`replay`](Self::replay)
    /// when the outstanding sets are consumed/cleared. All µTLBs drain
    /// together, so one counter serves them all — it advances exactly
    /// with `counters.replays`, and is kept separate only because it is
    /// hardware-ordering state, not telemetry.
    drain_epoch: u64,
}

/// Capacity cap applied to the retry scratch and per-block pending
/// vectors at replay boundaries: one pathological step (a huge miss
/// list) must not pin its peak allocation for the rest of the launch.
/// 4096 packed entries = 32 KB, comfortably L2-resident.
const RETRY_SCRATCH_CAP: usize = 4096;

/// Top bit of a packed pending entry: set when the access is a write.
/// Page numbers occupy the low 63 bits (a 4 KB-page address space of
/// 2^63 pages is unreachable by construction).
const WRITE_BIT: u64 = 1 << 63;

/// Raise a far-fault for `page` through one µTLB: coalesce against the
/// outstanding set, throttle when the set is full, else write a buffer
/// entry. `filter` is the set's 64-bit fingerprint (bit `page % 64`): a
/// clear bit proves the page is not outstanding, so the dominant
/// full-set/throttled retry path exits on one AND instead of a probe.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn raise_fault(
    set: &mut Vec<GlobalPage>,
    filter: &mut u64,
    counters: &mut EngineCounters,
    buffer: &mut FaultBuffer,
    max_out: usize,
    page: GlobalPage,
    write: bool,
    utlb: u32,
    now: SimTime,
) {
    let bit = 1u64 << (page.0 % 64);
    let pos = if *filter & bit == 0 {
        if set.len() >= max_out {
            counters.faults_throttled += 1;
            return;
        }
        set.binary_search(&page).unwrap_err()
    } else {
        match set.binary_search(&page) {
            Ok(_) => {
                counters.faults_coalesced += 1;
                return;
            }
            Err(pos) => {
                if set.len() >= max_out {
                    counters.faults_throttled += 1;
                    return;
                }
                pos
            }
        }
    };
    let entry = FaultEntry {
        page,
        access: if write {
            AccessType::Write
        } else {
            AccessType::Read
        },
        timestamp: now,
        utlb,
    };
    if buffer.push(entry) {
        set.insert(pos, page);
        *filter |= bit;
        counters.faults_raised += 1;
    } else {
        counters.faults_dropped += 1;
    }
}

impl GpuEngine {
    /// Launch `trace` on a GPU with configuration `cfg`. Accepts an owned
    /// trace or an `Arc` (repeated launches share one without copying).
    pub fn launch(cfg: GpuConfig, trace: impl Into<Arc<WorkloadTrace>>, rng: SimRng) -> Self {
        let trace = trace.into();
        assert!(cfg.num_sms > 0 && cfg.max_blocks_resident > 0 && cfg.num_utlbs > 0);
        let n = trace.blocks.len();
        let accessed = if cfg.track_page_use {
            let max_page = trace
                .blocks
                .iter()
                .flat_map(|b| (0..b.num_steps()).flat_map(|s| b.step(s).map(|(p, _)| p.0)))
                .max()
                .unwrap_or(0);
            vec![0u64; (max_page as usize + 64) / 64]
        } else {
            Vec::new()
        };
        let access_counters = AccessCounters::new(cfg.access_counters.clone());
        let mut eng = GpuEngine {
            outstanding: (0..cfg.num_utlbs)
                .map(|_| Vec::with_capacity(cfg.max_outstanding_per_utlb))
                .collect(),
            outstanding_filter: vec![0; cfg.num_utlbs],
            cfg,
            status: vec![BlockStatus::Pending; n],
            cursor: vec![0; n],
            pending: vec![Vec::new(); n],
            active: Vec::new(),
            next_pending: 0,
            trace,
            counters: EngineCounters::default(),
            compute_work: SimDuration::ZERO,
            access_counters,
            accessed,
            rng,
            miss_scratch: Vec::new(),
            pending_fp: vec![0; n],
            subscribed: vec![false; n],
            checked_at: vec![0; n],
            stall_drain: vec![0; n],
            word_stamp: Vec::new(),
            drain_no: 0,
            all_dirty_at: 0,
            seen_seq: 0,
            events_live: false,
            drain_epoch: 0,
        };
        eng.refill_active();
        eng
    }

    fn refill_active(&mut self) {
        // The block scheduler prefers lower-numbered blocks (paper §IV-B)
        // but fills slots as they free, so late blocks interleave with
        // stragglers.
        while self.active.len() < self.cfg.max_blocks_resident
            && (self.next_pending as usize) < self.status.len()
        {
            let b = self.next_pending;
            self.next_pending += 1;
            if self.trace.blocks[b as usize].num_steps() == 0 {
                self.status[b as usize] = BlockStatus::Done;
                continue;
            }
            self.status[b as usize] = BlockStatus::Runnable;
            self.active.push(b);
        }
    }

    #[inline]
    fn utlb_of(&self, block: u32) -> usize {
        (block as usize) % self.cfg.num_utlbs
    }

    /// Attempt the current step of `block`; returns true if it advanced.
    fn attempt_step<R: Residency>(
        &mut self,
        block: u32,
        residency: &R,
        buffer: &mut FaultBuffer,
        now: SimTime,
    ) -> bool {
        let utlb = self.utlb_of(block) as u32;
        let idx = block as usize;
        let track = self.access_counters.is_enabled();
        let use_tracking = !self.accessed.is_empty();

        // Take the block's pending list (non-empty exactly when this is a
        // post-replay retry) and the shared miss buffer; both come back at
        // the end, so their capacity is reused across steps and blocks.
        let mut pending = std::mem::take(&mut self.pending[idx]);
        let mut misses = std::mem::take(&mut self.miss_scratch);
        misses.clear();

        // Event-driven fast path: a retry is *clean* when the oracle
        // publishes change events and no residency word covering
        // `pending` changed since the block last checked it — the scan
        // would provably see zero hits, so its exact effects can be
        // replayed without loading a single residency word. A dirty
        // retry is one wakeup. (`events_live` is never set under
        // `RetryMode::Scan`, so `clean` is false there.)
        let live_retry = !pending.is_empty() && self.events_live;
        let clean = live_retry && self.pending_unchanged(idx, &pending);
        if live_retry && !clean {
            self.counters.wakeups += 1;
        }
        let skip = clean && matches!(self.cfg.retry, RetryMode::Event);
        let check = clean && matches!(self.cfg.retry, RetryMode::CrossCheck);
        let fp = self.pending_fp[idx];

        {
            // Split borrows so one pass over the accesses can check
            // residency and raise faults together: all of a block's misses
            // go through the same µTLB, so interleaving the fault-raising
            // with the scan leaves buffer/counter order unchanged.
            let max_out = self.cfg.max_outstanding_per_utlb;
            let set = &mut self.outstanding[utlb as usize];
            let filter = &mut self.outstanding_filter[utlb as usize];
            let counters = &mut self.counters;
            let access_counters = &mut self.access_counters;
            let accessed = &mut self.accessed;

            // Residency is immutable for the whole engine run, so one
            // dense-index word can answer 64 consecutive pages. Streaming
            // workloads walk pages in ascending runs; caching the current
            // word turns their scans word-parallel (one load per 64
            // pages) while costing random scans a single compare.
            let mut cur_word_of: u64 = u64::MAX;
            let mut cur_word: u64 = 0;
            macro_rules! resident_cached {
                ($page:expr) => {{
                    let w = $page.0 / 64;
                    if w != cur_word_of {
                        cur_word_of = w;
                        cur_word = residency.resident_word($page);
                    }
                    cur_word & (1u64 << ($page.0 % 64)) != 0
                }};
            }

            if pending.is_empty() {
                // Fresh attempt: walk the trace step.
                let step = self.cursor[idx] as usize;
                for (page, write) in self.trace.blocks[idx].step(step) {
                    if resident_cached!(page) {
                        counters.resident_accesses += 1;
                        if track {
                            access_counters.record(page.0);
                        }
                        if use_tracking {
                            accessed[page.0 as usize / 64] |= 1 << (page.0 % 64);
                        }
                    } else {
                        misses.push(page.0 | (write as u64) * WRITE_BIT);
                        raise_fault(set, filter, counters, buffer, max_out, page, write, utlb, now);
                    }
                }
            } else if skip {
                // Clean retry, no rescan. If the µTLB is already full and
                // the pending fingerprint is disjoint from the outstanding
                // filter, no entry can coalesce or insert: every single one
                // takes the throttle branch, and the whole retry collapses
                // to one add — zero loads, zero stores beyond the counter.
                // Otherwise re-issue the pending list through the identical
                // `raise_fault` call sequence the scan would emit (same
                // counter deltas, same buffer writes, still no residency
                // loads). Either way the pending list is unchanged, so the
                // subscription and fingerprint stay valid.
                debug_assert!(
                    self.stall_drain[idx] < self.drain_epoch,
                    "retry without an intervening µTLB drain"
                );
                if set.len() >= max_out && fp & *filter == 0 {
                    let pages = pending.len() as u64;
                    counters.faults_throttled += pages;
                    counters.retries_skipped += 1;
                    counters.retry_pages_skipped += pages;
                } else {
                    for &packed in pending.iter() {
                        let page = GlobalPage(packed & !WRITE_BIT);
                        let write = packed & WRITE_BIT != 0;
                        raise_fault(set, filter, counters, buffer, max_out, page, write, utlb, now);
                    }
                }
                self.pending[idx] = pending;
                self.miss_scratch = misses;
                self.park(idx);
                return false;
            } else {
                // Retry: only re-check what was missing last time. The miss
                // list is copied out lazily: in the thrash steady state no
                // pending page became resident, and then `pending` already
                // IS the miss list — the retry writes nothing at all.
                //
                // CrossCheck: snapshot the would-be closed form so the real
                // scan can certify it below. Real asserts (not debug_)
                // so the ci.sh gate bites in release builds too.
                let chk = if check {
                    Some((
                        set.len() >= max_out && fp & *filter == 0,
                        counters.faults_throttled,
                        counters.faults_raised + counters.faults_coalesced + counters.faults_dropped,
                        buffer.len(),
                    ))
                } else {
                    None
                };
                let mut had_hit = false;
                for i in 0..pending.len() {
                    let packed = pending[i];
                    let page = GlobalPage(packed & !WRITE_BIT);
                    let write = packed & WRITE_BIT != 0;
                    if resident_cached!(page) {
                        counters.resident_accesses += 1;
                        if track {
                            access_counters.record(page.0);
                        }
                        if use_tracking {
                            accessed[page.0 as usize / 64] |= 1 << (page.0 % 64);
                        }
                        if !had_hit {
                            had_hit = true;
                            misses.extend_from_slice(&pending[..i]);
                        }
                    } else {
                        if had_hit {
                            misses.push(packed);
                        }
                        raise_fault(set, filter, counters, buffer, max_out, page, write, utlb, now);
                    }
                }
                if !had_hit {
                    if let Some((arith, throttled0, other0, buflen0)) = chk {
                        if arith {
                            assert_eq!(
                                counters.faults_throttled - throttled0,
                                pending.len() as u64,
                                "retry cross-check: arithmetic skip would miscount throttles"
                            );
                            assert_eq!(
                                counters.faults_raised
                                    + counters.faults_coalesced
                                    + counters.faults_dropped,
                                other0,
                                "retry cross-check: arithmetic skip would hide raise/coalesce/drop"
                            );
                            assert_eq!(
                                buffer.len(),
                                buflen0,
                                "retry cross-check: arithmetic skip would hide buffer writes"
                            );
                        }
                    }
                    // Nothing became resident: keep `pending` as-is. The
                    // pending list (and so the subscription fingerprint)
                    // is unchanged — only build the missing subscription
                    // for a block that stalled before change events went
                    // live.
                    debug_assert!(!pending.is_empty());
                    self.pending[idx] = pending;
                    self.miss_scratch = misses;
                    self.park(idx);
                    if self.events_live && !self.subscribed[idx] {
                        self.subscribe(idx);
                    }
                    return false;
                }
                assert!(
                    chk.is_none(),
                    "retry cross-check: clean block found a newly-resident page — \
                     a residency mutation was not published as a change event"
                );
                pending.clear();
            }
        }

        if misses.is_empty() {
            self.pending[idx] = pending;
            // Pass the scratch-capacity cap point: a pathological step's
            // huge miss list parks its capacity in the (now empty) pending
            // slot when the step finally completes — release it here so one
            // outlier can't pin its peak allocation for the whole launch.
            if self.pending[idx].capacity() > RETRY_SCRATCH_CAP {
                self.pending[idx].shrink_to(RETRY_SCRATCH_CAP);
            }
            self.miss_scratch = misses;
            self.counters.steps_completed += 1;
            self.compute_work += self.trace.blocks[idx].step_cost;
            self.cursor[idx] += 1;
            if self.cursor[idx] as usize == self.trace.blocks[idx].num_steps() {
                self.status[idx] = BlockStatus::Done;
            }
            return true;
        }

        // The miss list becomes the block's pending list; the emptied old
        // pending vector becomes the next step's scratch. No copies.
        self.pending[idx] = misses;
        self.miss_scratch = pending;
        self.park(idx);
        if self.events_live {
            self.subscribe(idx);
        }
        false
    }

    /// Run until every resident block is stalled or the grid completes.
    ///
    /// Visits active blocks starting from a random rotation (modelling the
    /// GPU scheduler's nondeterminism, seeded) and lets each runnable
    /// block issue steps until it stalls on a fault or finishes; freed SM
    /// slots are refilled and newly activated blocks get their turn. `now`
    /// is the virtual time stamped onto raised faults.
    pub fn run<R: Residency>(
        &mut self,
        residency: &R,
        buffer: &mut FaultBuffer,
        now: SimTime,
    ) -> EngineStatus {
        // Residency is immutable for the duration of one run, so the
        // change events the driver produced since the last run are
        // consumed once, up front, as word stamps. Scan mode never
        // drains, keeping `events_live` false and every retry on the
        // reference path.
        if !matches!(self.cfg.retry, RetryMode::Scan) {
            self.drain_residency_events(residency);
        }
        let mut any_done = true;
        loop {
            // Done blocks only appear via attempt_step, so the sweep can be
            // skipped on iterations where no block finished.
            if any_done {
                self.active
                    .retain(|&b| !matches!(self.status[b as usize], BlockStatus::Done));
            }
            let before_refill = self.active.len();
            self.refill_active();
            let refilled = self.active.len() > before_refill;
            if self.active.is_empty() {
                return EngineStatus::Done;
            }

            let mut progressed = false;
            any_done = false;
            let n = self.active.len();
            let rot = if n > 1 { self.rng.index(n) } else { 0 };
            for i in 0..n {
                let b = self.active[(i + rot) % n];
                // Run this block to its next stall (or completion).
                while matches!(self.status[b as usize], BlockStatus::Runnable) {
                    if self.attempt_step(b, residency, buffer, now) {
                        progressed = true;
                    }
                }
                if matches!(self.status[b as usize], BlockStatus::Done) {
                    any_done = true;
                }
            }
            if !progressed && !refilled {
                // Every active block was visited and left Stalled (a Done
                // block would have progressed; no refill means no fresh
                // Runnable block) — the driver must act.
                debug_assert!(self
                    .active
                    .iter()
                    .all(|&b| matches!(self.status[b as usize], BlockStatus::Stalled)));
                return EngineStatus::Stalled;
            }
        }
    }

    /// Deliver a replay: all stalled warps resume and will retry their
    /// accesses on the next [`run`](Self::run). Outstanding µTLB fault
    /// tracking is cleared — retried misses raise fresh faults.
    pub fn replay(&mut self) {
        self.counters.replays += 1;
        // Every µTLB's outstanding set is consumed by this drain: bump
        // the shared drain epoch before clearing, so a subsequent retry
        // can prove it runs against a drained set.
        self.drain_epoch += 1;
        for set in &mut self.outstanding {
            set.clear(); // capacity retained
        }
        self.outstanding_filter.fill(0);
        // Pass boundary: cap the shared retry scratch (its pending-slot
        // twin is capped on step completion) so a pathological step's
        // allocation cannot outlive the pass that needed it.
        self.miss_scratch.shrink_to(RETRY_SCRATCH_CAP);
        // Only blocks on an SM can be Stalled, so the grid is not walked.
        for &b in &self.active {
            let s = &mut self.status[b as usize];
            if matches!(s, BlockStatus::Stalled) {
                *s = BlockStatus::Runnable;
            }
        }
    }

    /// Leave `block` Stalled after an attempt that observed residency as
    /// of the current drain.
    fn park(&mut self, block: usize) {
        self.status[block] = BlockStatus::Stalled;
        self.stall_drain[block] = self.drain_epoch;
        self.checked_at[block] = self.drain_no;
    }

    /// Consume the oracle's residency change events as word stamps, in
    /// O(changed words): each changed word is stamped with this drain's
    /// number, and a retry whose covering words all carry older stamps
    /// than its block's `checked_at` is clean.
    fn drain_residency_events<R: Residency + ?Sized>(&mut self, residency: &R) {
        let Some(seq) = residency.change_seq() else {
            // Oracle without change events: `events_live` stays false and
            // every retry takes the (always-correct) rescan path.
            return;
        };
        self.drain_no += 1;
        let drain = self.drain_no;
        if !self.events_live || seq < self.seen_seq {
            // First contact with a publishing oracle, or a different (or
            // reset) oracle instance: its history is unknowable, so treat
            // every word as changed.
            self.events_live = true;
            self.seen_seq = seq;
            self.all_dirty_at = drain;
            return;
        }
        let since = std::mem::replace(&mut self.seen_seq, seq);
        if since == seq {
            return;
        }
        let word_stamp = &mut self.word_stamp;
        let complete = residency.changed_words_since(since, &mut |word| {
            if let Some(stamp) = word_stamp.get_mut(word as usize) {
                *stamp = drain;
            }
        });
        if !complete {
            // The oracle's change log was truncated: every word may have
            // changed. Correctness first — dirty everything.
            self.all_dirty_at = drain;
        }
    }

    /// True when `block` is subscribed and no drain since it last checked
    /// residency reported a word covering `pending` (or every word) as
    /// changed: the retry would provably find nothing newly resident.
    fn pending_unchanged(&self, block: usize, pending: &[u64]) -> bool {
        let since = self.checked_at[block];
        if !self.subscribed[block] || self.all_dirty_at > since {
            return false;
        }
        let mut last_word = u64::MAX;
        pending.iter().all(|&packed| {
            let word = (packed & !WRITE_BIT) / 64;
            let same = word == last_word;
            last_word = word;
            same || self.word_stamp[word as usize] <= since
        })
    }

    /// Subscribe `block`'s pending list: build its 64-bit fingerprint for
    /// the arithmetic-throttle proof and grow `word_stamp` to cover its
    /// words. Called right after [`park`](Self::park) set `checked_at`.
    fn subscribe(&mut self, block: usize) {
        let mut fp = 0u64;
        let mut max_word = 0;
        for &packed in &self.pending[block] {
            let page = packed & !WRITE_BIT;
            fp |= 1u64 << (page % 64);
            max_word = max_word.max(page / 64);
        }
        if self.word_stamp.len() <= max_word as usize {
            self.word_stamp.resize(max_word as usize + 1, 0);
        }
        self.pending_fp[block] = fp;
        self.subscribed[block] = true;
    }

    /// Capacity of the shared retry scratch buffer (test/bench hook for
    /// the pass-boundary shrink cap).
    #[doc(hidden)]
    pub fn retry_scratch_capacity(&self) -> usize {
        self.miss_scratch.capacity()
    }

    /// Largest per-block pending-list capacity (test/bench hook for the
    /// pass-boundary shrink cap).
    #[doc(hidden)]
    pub fn max_pending_capacity(&self) -> usize {
        self.pending.iter().map(Vec::capacity).max().unwrap_or(0)
    }

    /// True once every block has completed: none is left on an SM or
    /// waiting for a slot (`run` drops Done blocks from `active` before
    /// it returns).
    pub fn is_done(&self) -> bool {
        self.active.is_empty() && self.next_pending as usize == self.status.len()
    }

    /// Accumulated GPU compute time (sum of completed step costs; step
    /// costs are already normalised to ideal whole-GPU utilisation).
    pub fn compute_time(&self) -> SimDuration {
        self.compute_work
    }

    /// Device-side counters.
    pub fn counters(&self) -> &EngineCounters {
        &self.counters
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The launched workload trace.
    pub fn trace(&self) -> &WorkloadTrace {
        &self.trace
    }

    /// True if the kernel actually used `page` (requires
    /// `track_page_use`; always false otherwise).
    pub fn page_was_used(&self, page: GlobalPage) -> bool {
        let w = page.0 as usize / 64;
        w < self.accessed.len() && self.accessed[w] & (1 << (page.0 % 64)) != 0
    }

    /// Drain pending access-counter notifications (empty unless the
    /// counters are enabled). Models the driver reading the
    /// notification buffer.
    pub fn drain_access_notifications(&mut self) -> Vec<AccessNotification> {
        self.access_counters.drain()
    }

    /// The access-counter unit (for drop/notify statistics).
    pub fn access_counters(&self) -> &AccessCounters {
        &self.access_counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultBufferConfig;

    /// Residency stub: pages below a threshold are resident.
    struct Below(u64);
    impl Residency for Below {
        fn is_resident(&self, page: GlobalPage) -> bool {
            page.0 < self.0
        }
    }

    fn single_page_trace(pages: &[u64]) -> WorkloadTrace {
        let mut bt = BlockTrace::new(SimDuration::from_nanos(100));
        for &p in pages {
            bt.push_step([GlobalPage(p)], false);
        }
        WorkloadTrace {
            name: "test".into(),
            blocks: vec![bt],
            footprint_pages: pages.len() as u64,
        }
    }

    fn engine(trace: WorkloadTrace) -> (GpuEngine, FaultBuffer) {
        (
            GpuEngine::launch(GpuConfig::default(), trace, SimRng::from_seed(1)),
            FaultBuffer::new(FaultBufferConfig::default()),
        )
    }

    #[test]
    fn all_resident_runs_to_completion() {
        let (mut eng, mut buf) = engine(single_page_trace(&[0, 1, 2, 3]));
        let st = eng.run(&Below(100), &mut buf, SimTime::ZERO);
        assert_eq!(st, EngineStatus::Done);
        assert!(eng.is_done());
        assert_eq!(eng.counters().resident_accesses, 4);
        assert_eq!(eng.counters().faults_raised, 0);
        assert_eq!(eng.counters().steps_completed, 4);
        assert_eq!(eng.compute_time(), SimDuration::from_nanos(400));
    }

    #[test]
    fn miss_raises_fault_and_stalls() {
        let (mut eng, mut buf) = engine(single_page_trace(&[0, 50]));
        let st = eng.run(&Below(10), &mut buf, SimTime::ZERO);
        assert_eq!(st, EngineStatus::Stalled);
        assert_eq!(buf.len(), 1);
        assert_eq!(eng.counters().faults_raised, 1);
        // Replay without fixing residency: refaults (duplicate).
        eng.replay();
        let st = eng.run(&Below(10), &mut buf, SimTime::ZERO);
        assert_eq!(st, EngineStatus::Stalled);
        assert_eq!(buf.len(), 2, "refault after replay duplicates the entry");
        // Now make it resident: completes.
        eng.replay();
        let st = eng.run(&Below(100), &mut buf, SimTime::ZERO);
        assert_eq!(st, EngineStatus::Done);
        assert_eq!(eng.counters().replays, 2);
    }

    #[test]
    fn utlb_dedup_coalesces_same_page() {
        // Two steps in one block both missing the same page: second access
        // does not write a second entry while the first is outstanding.
        let mut bt = BlockTrace::new(SimDuration::ZERO);
        bt.push_step([GlobalPage(50), GlobalPage(50)], false);
        let trace = WorkloadTrace {
            name: "t".into(),
            blocks: vec![bt],
            footprint_pages: 1,
        };
        let (mut eng, mut buf) = engine(trace);
        eng.run(&Below(10), &mut buf, SimTime::ZERO);
        assert_eq!(buf.len(), 1);
        assert_eq!(eng.counters().faults_coalesced, 1);
    }

    #[test]
    fn different_utlbs_duplicate_same_page() {
        // Two blocks (different µTLBs since num_utlbs > 1) fault the same
        // page: two entries appear — the cross-SM duplication the paper
        // describes.
        let mut b0 = BlockTrace::new(SimDuration::ZERO);
        b0.push_step([GlobalPage(50)], false);
        let mut b1 = BlockTrace::new(SimDuration::ZERO);
        b1.push_step([GlobalPage(50)], false);
        let trace = WorkloadTrace {
            name: "t".into(),
            blocks: vec![b0, b1],
            footprint_pages: 1,
        };
        let (mut eng, mut buf) = engine(trace);
        eng.run(&Below(10), &mut buf, SimTime::ZERO);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn occupancy_limits_active_blocks() {
        let cfg = GpuConfig {
            max_blocks_resident: 2,
            ..GpuConfig::default()
        };
        // 4 blocks each stalling on a distinct non-resident page: only the
        // first 2 get SM slots, so only 2 faults are raised.
        let blocks: Vec<BlockTrace> = (0..4)
            .map(|i| {
                let mut bt = BlockTrace::new(SimDuration::ZERO);
                bt.push_step([GlobalPage(100 + i)], false);
                bt
            })
            .collect();
        let trace = WorkloadTrace {
            name: "t".into(),
            blocks,
            footprint_pages: 4,
        };
        let mut eng = GpuEngine::launch(cfg, trace, SimRng::from_seed(1));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        eng.run(&Below(10), &mut buf, SimTime::ZERO);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn throttle_limits_outstanding_per_utlb() {
        let cfg = GpuConfig {
            num_utlbs: 1,
            max_outstanding_per_utlb: 4,
            max_blocks_resident: 8,
            ..GpuConfig::default()
        };
        // One block whose single step misses 10 pages through one µTLB.
        let mut bt = BlockTrace::new(SimDuration::ZERO);
        bt.push_step((100..110).map(GlobalPage), false);
        let trace = WorkloadTrace {
            name: "t".into(),
            blocks: vec![bt],
            footprint_pages: 10,
        };
        let mut eng = GpuEngine::launch(cfg, trace, SimRng::from_seed(1));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        eng.run(&Below(10), &mut buf, SimTime::ZERO);
        assert_eq!(buf.len(), 4);
        assert_eq!(eng.counters().faults_throttled, 6);
    }

    #[test]
    fn step_gates_on_all_pages() {
        // A step touching pages 5 (resident) and 50 (not): block stalls,
        // then completes once 50 is resident; page 5 is not re-counted.
        let mut bt = BlockTrace::new(SimDuration::ZERO);
        bt.push_step([GlobalPage(5), GlobalPage(50)], false);
        let trace = WorkloadTrace {
            name: "t".into(),
            blocks: vec![bt],
            footprint_pages: 2,
        };
        let (mut eng, mut buf) = engine(trace);
        assert_eq!(
            eng.run(&Below(10), &mut buf, SimTime::ZERO),
            EngineStatus::Stalled
        );
        eng.replay();
        assert_eq!(
            eng.run(&Below(100), &mut buf, SimTime::ZERO),
            EngineStatus::Done
        );
    }

    #[test]
    fn trace_step_iteration() {
        let mut bt = BlockTrace::new(SimDuration::ZERO);
        bt.push_step([GlobalPage(1), GlobalPage(2)], true);
        bt.push_step([GlobalPage(3)], false);
        assert_eq!(bt.num_steps(), 2);
        assert_eq!(bt.num_accesses(), 3);
        let s0: Vec<_> = bt.step(0).collect();
        assert_eq!(s0, vec![(GlobalPage(1), true), (GlobalPage(2), true)]);
        let s1: Vec<_> = bt.step(1).collect();
        assert_eq!(s1, vec![(GlobalPage(3), false)]);
    }

    #[test]
    fn empty_grid_is_done_immediately() {
        let trace = WorkloadTrace {
            name: "empty".into(),
            blocks: vec![],
            footprint_pages: 0,
        };
        let mut eng = GpuEngine::launch(GpuConfig::default(), trace, SimRng::from_seed(1));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        assert_eq!(
            eng.run(&Below(0), &mut buf, SimTime::ZERO),
            EngineStatus::Done
        );
        assert!(eng.is_done());
    }

    #[test]
    fn zero_step_blocks_complete_without_running() {
        let trace = WorkloadTrace {
            name: "noop".into(),
            blocks: vec![BlockTrace::new(SimDuration::ZERO)],
            footprint_pages: 0,
        };
        let mut eng = GpuEngine::launch(GpuConfig::default(), trace, SimRng::from_seed(1));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        assert_eq!(
            eng.run(&Below(0), &mut buf, SimTime::ZERO),
            EngineStatus::Done
        );
    }

    #[test]
    fn access_counters_notify_on_hot_regions() {
        let cfg = GpuConfig {
            access_counters: crate::access_counters::AccessCounterConfig {
                enabled: true,
                threshold: 4,
                ..Default::default()
            },
            ..GpuConfig::default()
        };
        // One block re-reading the same resident page 8 times.
        let mut bt = BlockTrace::new(SimDuration::ZERO);
        for _ in 0..8 {
            bt.push_step([GlobalPage(3)], false);
        }
        let trace = WorkloadTrace {
            name: "hot".into(),
            blocks: vec![bt],
            footprint_pages: 1,
        };
        let mut eng = GpuEngine::launch(cfg, trace, SimRng::from_seed(1));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        eng.run(&Below(100), &mut buf, SimTime::ZERO);
        let notifs = eng.drain_access_notifications();
        assert_eq!(notifs.len(), 2, "8 accesses at threshold 4");
        assert!(notifs.iter().all(|n| n.region == 0));
    }

    #[test]
    fn page_use_tracking_records_only_used_pages() {
        let cfg = GpuConfig {
            track_page_use: true,
            ..GpuConfig::default()
        };
        let mut bt = BlockTrace::new(SimDuration::ZERO);
        bt.push_step([GlobalPage(7)], false);
        let trace = WorkloadTrace {
            name: "one".into(),
            blocks: vec![bt],
            footprint_pages: 1,
        };
        let mut eng = GpuEngine::launch(cfg, trace, SimRng::from_seed(1));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        eng.run(&Below(100), &mut buf, SimTime::ZERO);
        assert!(eng.page_was_used(GlobalPage(7)));
        assert!(!eng.page_was_used(GlobalPage(6)));
        assert!(
            !eng.page_was_used(GlobalPage(10_000)),
            "out of range is false"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let blocks: Vec<BlockTrace> = (0..20)
                .map(|i| {
                    let mut bt = BlockTrace::new(SimDuration::ZERO);
                    for s in 0..5 {
                        bt.push_step([GlobalPage(100 + i * 5 + s)], false);
                    }
                    bt
                })
                .collect();
            WorkloadTrace {
                name: "t".into(),
                blocks,
                footprint_pages: 100,
            }
        };
        let run = |seed| {
            let mut eng = GpuEngine::launch(GpuConfig::default(), mk(), SimRng::from_seed(seed));
            let mut buf = FaultBuffer::new(FaultBufferConfig::default());
            eng.run(&Below(0), &mut buf, SimTime::ZERO);
            let (entries, _) = buf.fetch(usize::MAX, SimTime::ZERO + SimDuration::from_secs(1));
            entries.iter().map(|e| e.page.0).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same fault order");
    }

    /// Event-publishing residency stub mirroring `ManagedSpace`'s
    /// contract: word-granular *value* diffs behind a monotone stamp.
    struct EventSpace {
        words: Vec<u64>,
        seq: u64,
        log: Vec<u32>,
        /// When set, the change log claims truncation on every drain.
        truncated: bool,
    }
    impl EventSpace {
        fn new(num_pages: u64) -> Self {
            EventSpace {
                words: vec![0; ((num_pages + 63) / 64) as usize],
                seq: 0,
                log: Vec::new(),
                truncated: false,
            }
        }
        fn set_page(&mut self, page: u64, resident: bool) {
            let w = (page / 64) as usize;
            let old = self.words[w];
            if resident {
                self.words[w] |= 1 << (page % 64);
            } else {
                self.words[w] &= !(1 << (page % 64));
            }
            if self.words[w] != old {
                self.log.push(w as u32);
                self.seq += 1;
            }
        }
        fn fill_resident(&mut self, pages: std::ops::Range<u64>) {
            for p in pages {
                self.set_page(p, true);
            }
        }
    }
    impl Residency for EventSpace {
        fn is_resident(&self, page: GlobalPage) -> bool {
            let w = (page.0 / 64) as usize;
            w < self.words.len() && self.words[w] >> (page.0 % 64) & 1 == 1
        }
        fn resident_word(&self, page: GlobalPage) -> u64 {
            self.words
                .get((page.0 / 64) as usize)
                .copied()
                .unwrap_or(0)
        }
        fn change_seq(&self) -> Option<u64> {
            Some(self.seq)
        }
        fn changed_words_since(&self, since: u64, visit: &mut dyn FnMut(u64)) -> bool {
            if self.truncated {
                return false;
            }
            for s in since..self.seq {
                visit(self.log[s as usize] as u64);
            }
            true
        }
    }

    const MODES: [RetryMode; 3] = [RetryMode::Event, RetryMode::Scan, RetryMode::CrossCheck];

    /// Fetch and discard the buffered faults, returning `(page, utlb)`.
    fn take_faults(buf: &mut FaultBuffer) -> Vec<(u64, u32)> {
        let (entries, _) = buf.fetch(usize::MAX, SimTime::ZERO + SimDuration::from_secs(1));
        entries.iter().map(|e| (e.page.0, e.utlb)).collect()
    }

    /// Run `scenario` under every retry mode and assert equal semantic
    /// counters and fault streams; returns the Event-mode counters.
    fn assert_modes_agree(
        scenario: impl Fn(RetryMode) -> (EngineCounters, Vec<(u64, u32)>),
    ) -> EngineCounters {
        let [event, scan, check] = MODES.map(&scenario);
        assert_eq!(
            scan.0.wakeups + scan.0.retries_skipped,
            0,
            "scan mode keeps no stamps"
        );
        assert_eq!(
            event.0.semantic(),
            scan.0.semantic(),
            "event vs scan counters"
        );
        assert_eq!(
            check.0.semantic(),
            scan.0.semantic(),
            "cross-check vs scan counters"
        );
        assert_eq!(event.1, scan.1, "event vs scan fault stream");
        assert_eq!(check.1, scan.1, "cross-check vs scan fault stream");
        event.0
    }

    /// Drive `trace` to completion: after every stalled run the buffered
    /// faults join the stream, `change(round, space)` edits residency,
    /// and a replay follows.
    fn drive(
        cfg: GpuConfig,
        trace: &WorkloadTrace,
        mut space: EventSpace,
        change: impl Fn(u64, &mut EventSpace),
    ) -> (EngineCounters, Vec<(u64, u32)>) {
        let mut eng = GpuEngine::launch(cfg, trace.clone(), SimRng::from_seed(11));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let mut stream = Vec::new();
        let mut round = 0;
        while eng.run(&space, &mut buf, SimTime::ZERO) == EngineStatus::Stalled {
            stream.extend(take_faults(&mut buf));
            change(round, &mut space);
            eng.replay();
            round += 1;
            assert!(round < 1_000, "scenario made no progress");
        }
        (*eng.counters(), stream)
    }

    #[test]
    fn many_blocks_on_one_shared_word_agree_across_modes() {
        // 300 blocks all pending on pages of residency word 1 — the case
        // where subscribing must not cost more per block as more wait.
        // Odd rounds make one shared-word page resident (every block
        // wakes); even rounds flip a page of unrelated word 5 (no block
        // wakes, so full-µTLB disjoint retries take the closed form).
        let blocks: Vec<Vec<u64>> = (0..300u64)
            .map(|i| vec![64 + i % 64, 64 + (i * 7 + 3) % 64])
            .collect();
        let refs: Vec<&[u64]> = blocks.iter().map(Vec::as_slice).collect();
        let trace = multi_block_trace(&refs);
        let c = assert_modes_agree(|retry| {
            drive(
                retry_cfg(retry),
                &trace,
                EventSpace::new(512),
                |round, space| {
                    if round % 2 == 1 {
                        space.set_page(64 + round / 2, true);
                    } else {
                        space.set_page(320, round % 4 == 0);
                    }
                },
            )
        });
        assert!(c.wakeups >= 300, "every shared-word change wakes the grid");
        assert!(c.retries_skipped > 0, "unrelated-word rounds must skip");
    }

    /// One block stalls on word 0; word 0 changes before each of two
    /// runs with no replay between them, then a replay retries it.
    fn two_runs_one_replay(retry: RetryMode) -> (EngineCounters, Vec<(u64, u32)>) {
        let trace = multi_block_trace(&[&[0, 1, 2, 3]]);
        let mut eng = GpuEngine::launch(retry_cfg(retry), trace, SimRng::from_seed(3));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let mut space = EventSpace::new(128);
        assert_eq!(
            eng.run(&space, &mut buf, SimTime::ZERO),
            EngineStatus::Stalled
        );
        for resident in [true, false] {
            space.set_page(63, resident);
            assert_eq!(
                eng.run(&space, &mut buf, SimTime::ZERO),
                EngineStatus::Stalled
            );
        }
        eng.replay();
        assert_eq!(
            eng.run(&space, &mut buf, SimTime::ZERO),
            EngineStatus::Stalled
        );
        let woken = *eng.counters();
        space.fill_resident(0..4);
        eng.replay();
        assert_eq!(eng.run(&space, &mut buf, SimTime::ZERO), EngineStatus::Done);
        (woken, take_faults(&mut buf))
    }

    #[test]
    fn changes_before_two_runs_without_replay_wake_once() {
        let c = assert_modes_agree(two_runs_one_replay);
        assert_eq!(c.wakeups, 1, "two drains before one retry are one wakeup");
        assert_eq!(c.retries_skipped, 0);
    }

    #[test]
    fn truncated_change_log_wakes_every_stalled_block() {
        // Four blocks on four words. Before the first replay one of block
        // 0's pages becomes resident behind a log that reports
        // truncation: no word can be trusted, so every retry must rescan
        // (CrossCheck would assert on a clean block finding the page).
        let trace = multi_block_trace(&[&[0, 1], &[64, 65], &[128, 129], &[192, 193]]);
        let scenario = |retry| {
            let mut space = EventSpace::new(256);
            space.truncated = true;
            drive(
                retry_cfg(retry),
                &trace,
                space,
                |round, space| match round {
                    0 => space.set_page(0, true),
                    _ => space.fill_resident(0..256),
                },
            )
        };
        let c = assert_modes_agree(scenario);
        assert_eq!(c.retries_skipped, 0);
        // Block 0 still waits on page 1 after round 0, so both rounds
        // retry all four blocks.
        assert_eq!(
            c.wakeups,
            4 + 4,
            "every retry after a truncated drain is a wakeup"
        );
    }

    #[test]
    fn is_done_and_replay_match_full_grid_reference() {
        // 40 blocks through 3 SM slots; every third block has no steps.
        let blocks: Vec<BlockTrace> = (0..40u64)
            .map(|i| {
                let mut bt = BlockTrace::new(SimDuration::ZERO);
                if i % 3 != 1 {
                    bt.push_step([GlobalPage(i * 64), GlobalPage(i * 64 + 1)], false);
                    bt.push_step([GlobalPage(i * 64 + 2)], false);
                }
                bt
            })
            .collect();
        let trace = WorkloadTrace {
            name: "grid".into(),
            blocks,
            footprint_pages: 80,
        };
        let cfg = GpuConfig {
            max_blocks_resident: 3,
            ..GpuConfig::default()
        };
        let mut eng = GpuEngine::launch(cfg, trace, SimRng::from_seed(5));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let mut space = EventSpace::new(40 * 64);
        let all_done = |e: &GpuEngine| e.status.iter().all(|s| *s == BlockStatus::Done);
        assert_eq!(eng.is_done(), all_done(&eng));
        let mut runs = 0;
        loop {
            let st = eng.run(&space, &mut buf, SimTime::ZERO);
            runs += 1;
            assert_eq!(eng.is_done(), all_done(&eng), "is_done after run {runs}");
            assert_eq!(st == EngineStatus::Done, eng.is_done());
            if eng.is_done() {
                break;
            }
            let want: Vec<BlockStatus> = eng
                .status
                .iter()
                .map(|&s| match s {
                    BlockStatus::Stalled => BlockStatus::Runnable,
                    s => s,
                })
                .collect();
            for (page, _) in take_faults(&mut buf) {
                space.set_page(page, true);
            }
            eng.replay();
            assert_eq!(eng.status, want, "replay after run {runs}");
            assert!(runs < 200);
        }
        assert!(runs > 10, "the grid must cycle through its SM slots");
    }

    fn multi_block_trace(blocks_pages: &[&[u64]]) -> WorkloadTrace {
        let blocks = blocks_pages
            .iter()
            .map(|pages| {
                let mut bt = BlockTrace::new(SimDuration::from_nanos(100));
                bt.push_step(pages.iter().map(|&p| GlobalPage(p)), false);
                bt
            })
            .collect();
        WorkloadTrace {
            name: "test".into(),
            blocks,
            footprint_pages: blocks_pages.iter().map(|p| p.len() as u64).sum(),
        }
    }

    fn retry_cfg(retry: RetryMode) -> GpuConfig {
        GpuConfig {
            num_utlbs: 1,
            max_outstanding_per_utlb: 4,
            retry,
            ..GpuConfig::default()
        }
    }

    /// Two stalled blocks share one full µTLB; on replay, one refills
    /// the set by re-raising (raise-only path) and the other — whose
    /// fingerprint is disjoint from the refilled filter — resolves
    /// arithmetically without touching the residency oracle.
    fn run_skip_scenario(retry: RetryMode) -> (GpuEngine, FaultBuffer) {
        let trace = multi_block_trace(&[&[0, 1, 2, 3], &[68, 69, 70, 71]]);
        let mut eng = GpuEngine::launch(retry_cfg(retry), trace, SimRng::from_seed(3));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let space = EventSpace::new(128);
        // Pass 1: first-visited block raises 4 faults (set full), the
        // other throttles all 4 of its pages.
        assert_eq!(eng.run(&space, &mut buf, SimTime::ZERO), EngineStatus::Stalled);
        assert_eq!(buf.len(), 4);
        assert_eq!(eng.counters().faults_raised, 4);
        assert_eq!(eng.counters().faults_throttled, 4);
        // Replay without any residency change: both pending lists are
        // clean, so pass 2 must reproduce pass 1 exactly.
        eng.replay();
        assert_eq!(eng.run(&space, &mut buf, SimTime::ZERO), EngineStatus::Stalled);
        (eng, buf)
    }

    #[test]
    fn clean_retry_resolves_arithmetically() {
        let (eng, buf) = run_skip_scenario(RetryMode::Event);
        let c = eng.counters();
        assert_eq!(buf.len(), 8, "raise-only path re-raised the same 4 entries");
        assert_eq!(c.faults_raised, 8);
        assert_eq!(c.faults_throttled, 8);
        assert_eq!(c.retries_skipped, 1, "exactly one block took the closed form");
        assert_eq!(c.retry_pages_skipped, 4);
        assert_eq!(c.wakeups, 0, "no residency word changed");
    }

    #[test]
    fn skip_counters_match_scan_semantics() {
        let (ev, mut ev_buf) = run_skip_scenario(RetryMode::Event);
        let (sc, mut sc_buf) = run_skip_scenario(RetryMode::Scan);
        let (ck, mut ck_buf) = run_skip_scenario(RetryMode::CrossCheck);
        assert_eq!(sc.counters().retries_skipped, 0, "scan mode never skips");
        assert_eq!(ev.counters().semantic(), sc.counters().semantic());
        assert_eq!(ck.counters().semantic(), sc.counters().semantic());
        let want = take_faults(&mut sc_buf);
        assert_eq!(take_faults(&mut ev_buf), want, "bit-identical fault stream");
        assert_eq!(take_faults(&mut ck_buf), want);
    }

    #[test]
    fn residency_change_wakes_subscriber_and_rescans() {
        let trace = multi_block_trace(&[&[0, 1, 2, 3]]);
        let mut eng = GpuEngine::launch(retry_cfg(RetryMode::Event), trace, SimRng::from_seed(3));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let mut space = EventSpace::new(128);
        assert_eq!(eng.run(&space, &mut buf, SimTime::ZERO), EngineStatus::Stalled);
        // Eviction-style invalidation on the subscribed word: flipping
        // any bit of word 0 changes its value, so the stalled block must
        // be woken and rescanned even though its own pages are untouched.
        space.set_page(63, true);
        space.set_page(63, false);
        eng.replay();
        assert_eq!(eng.run(&space, &mut buf, SimTime::ZERO), EngineStatus::Stalled);
        let c = eng.counters();
        assert!(c.wakeups >= 1, "word-value change must dirty the subscriber");
        assert_eq!(c.retries_skipped, 0, "dirty block must rescan, not skip");
        assert_eq!(buf.len(), 8, "rescan re-raised the real refaults");
        // Service the faults: the wake leads to forward progress.
        space.fill_resident(0..4);
        eng.replay();
        assert_eq!(eng.run(&space, &mut buf, SimTime::ZERO), EngineStatus::Done);
    }

    #[test]
    fn unrelated_word_change_does_not_wake() {
        let trace = multi_block_trace(&[&[0, 1, 2, 3]]);
        let mut eng = GpuEngine::launch(retry_cfg(RetryMode::Event), trace, SimRng::from_seed(3));
        let mut buf = FaultBuffer::new(FaultBufferConfig::default());
        let mut space = EventSpace::new(512);
        assert_eq!(eng.run(&space, &mut buf, SimTime::ZERO), EngineStatus::Stalled);
        // Change a word the block is not subscribed to (page 400 lives in
        // word 6; the block's pending pages all live in word 0).
        space.set_page(400, true);
        eng.replay();
        assert_eq!(eng.run(&space, &mut buf, SimTime::ZERO), EngineStatus::Stalled);
        let c = eng.counters();
        assert_eq!(c.wakeups, 0, "change to an unsubscribed word is not a wakeup");
        // The set drained at replay and the filter cleared, so the clean
        // block re-raises (raise-only closed form), identical to a scan.
        assert_eq!(buf.len(), 8);
        assert_eq!(c.faults_raised, 8);
    }

    #[test]
    fn retry_scratch_capacity_stays_capped() {
        // One pathological step touching 100k distinct non-resident
        // pages balloons the pending list; once the step completes the
        // parked capacity must be released back to the steady-state cap.
        let pages: Vec<u64> = (0..100_000).collect();
        let trace = multi_block_trace(&[&pages]);
        let mut eng = GpuEngine::launch(
            GpuConfig {
                num_utlbs: 1,
                max_outstanding_per_utlb: 200_000,
                ..GpuConfig::default()
            },
            trace,
            SimRng::from_seed(3),
        );
        let mut buf = FaultBuffer::new(FaultBufferConfig {
            capacity: 200_000,
            ..FaultBufferConfig::default()
        });
        let mut space = EventSpace::new(100_000);
        assert_eq!(eng.run(&space, &mut buf, SimTime::ZERO), EngineStatus::Stalled);
        assert!(
            eng.max_pending_capacity() > RETRY_SCRATCH_CAP,
            "pathological step must first balloon the pending list"
        );
        space.fill_resident(0..100_000);
        eng.replay();
        assert_eq!(eng.run(&space, &mut buf, SimTime::ZERO), EngineStatus::Done);
        assert!(
            eng.max_pending_capacity() <= RETRY_SCRATCH_CAP,
            "completed step must release parked pending capacity, got {}",
            eng.max_pending_capacity()
        );
        assert!(
            eng.retry_scratch_capacity() <= RETRY_SCRATCH_CAP,
            "miss scratch must shrink at replay, got {}",
            eng.retry_scratch_capacity()
        );
    }
}
