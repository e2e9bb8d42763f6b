//! The execution engine.
//!
//! [`VirtualGpu::launch`] runs one kernel iteration: every phase once,
//! with a software global barrier after each. The `do { … } while
//! (changed)` loop of the paper's Figure 3 is the host's
//! (`morph_core::runtime::drive_recovering`), one launch per trip.
//!
//! Scheduling model: the grid's blocks are dealt round-robin to
//! `min(num_sms, blocks)` host workers. A worker runs phase `p` of every
//! thread of every block it owns (warp by warp, lane by lane — lockstep
//! within a warp is the sequential order), then crosses the global barrier.
//! Because a block never splits across workers, `__syncthreads()` is
//! implied at each phase boundary and [`crate::BlockLocal`] state is
//! race-free by construction.
//!
//! ## Failure containment
//!
//! A panicking virtual thread takes its worker down; the worker poisons the
//! global barrier so its siblings fail fast instead of hanging, and the
//! engine reports *where* execution died as a structured [`LaunchError`]
//! from [`VirtualGpu::try_launch`] (the panicking wrapper
//! [`VirtualGpu::launch`] remains for code that treats kernel failure as
//! fatal). Faults can be injected deterministically via
//! [`crate::fault::FaultPlan`], and a
//! [barrier watchdog](VirtualGpu::set_barrier_watchdog) turns a stalled
//! worker into a [`LaunchError::BarrierStall`] instead of a hang.

use crate::barrier::{make_barrier, GlobalBarrier, BARRIER_POISON_MSG, BARRIER_TIMEOUT_MSG};
use crate::cancel::CancelToken;
use crate::config::GpuConfig;
use crate::costmodel::{WarpDists, WarpTape};
use crate::counters::{LaunchStats, WorkerCounters};
use crate::fault::FaultPlan;
use crate::kernel::{Kernel, ThreadCtx};
use crate::lens::{LensCells, LensHub};
use morph_metrics::MetricsHub;
use morph_trace::{CountersSnapshot, ProfilerScope, TraceEvent, Tracer};
use morph_tune::AutoTuner;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Structured description of a failed launch: which worker died, where it
/// was in the grid when it died, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// A virtual thread panicked; the worker running its block reports the
    /// site. Sibling workers that died on the poisoned barrier are not
    /// reported — only the primary fault is.
    KernelPanic {
        worker: usize,
        block: usize,
        phase: usize,
        iteration: usize,
        message: String,
    },
    /// The barrier watchdog expired: at least one worker failed to arrive
    /// within the configured timeout (a wedged or stalled SM).
    BarrierStall {
        worker: usize,
        phase: usize,
        iteration: usize,
        timeout: Duration,
    },
    /// The virtual device died out from under the launch (injected via
    /// [`crate::FaultPlan::with_device_loss`]): the slot itself is suspect,
    /// not the kernel. Serving layers treat this as an eviction — move the
    /// job to another slot and debit this slot's health — rather than a
    /// retryable kernel failure.
    DeviceLost {
        worker: usize,
        phase: usize,
        iteration: usize,
    },
}

impl LaunchError {
    /// Is this failure a device loss (slot death) rather than a kernel
    /// fault? Drives eviction-vs-retry decisions in serving layers.
    pub fn is_device_loss(&self) -> bool {
        matches!(self, LaunchError::DeviceLost { .. })
    }
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::KernelPanic {
                worker,
                block,
                phase,
                iteration,
                message,
            } => write!(
                f,
                "kernel panic on worker {worker} (block {block}, phase {phase}, iteration {iteration}): {message}"
            ),
            LaunchError::BarrierStall {
                worker,
                phase,
                iteration,
                timeout,
            } => write!(
                f,
                "barrier stall detected by worker {worker} (phase {phase}, iteration {iteration}): a participant failed to arrive within {timeout:?}"
            ),
            LaunchError::DeviceLost {
                worker,
                phase,
                iteration,
            } => write!(
                f,
                "device lost under worker {worker} (phase {phase}, iteration {iteration}): the slot died mid-launch"
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Result of a fallible launch.
pub type LaunchOutcome = Result<LaunchStats, LaunchError>;

/// Where a worker was when it died (updated with plain stores as execution
/// advances; read only after the worker's panic has been caught).
#[derive(Clone, Copy, Default)]
struct Progress {
    phase: usize,
    block: usize,
}

/// Every field of a [`CountersSnapshot`], once. [`PhaseAccum`] is an array
/// of atomics over this table.
const COUNTER_FIELDS: [fn(&mut CountersSnapshot) -> &mut u64; 14] = [
    |c| &mut c.active_threads,
    |c| &mut c.idle_threads,
    |c| &mut c.warps,
    |c| &mut c.divergent_warps,
    |c| &mut c.atomics,
    |c| &mut c.aborts,
    |c| &mut c.commits,
    |c| &mut c.barriers,
    |c| &mut c.gmem_accesses,
    |c| &mut c.gmem_transactions,
    |c| &mut c.smem_accesses,
    |c| &mut c.smem_conflicts,
    |c| &mut c.atomic_serial,
    |c| &mut c.active_warps,
];

/// Grid-wide counter accumulator of one phase. Workers add their phase
/// delta before arriving at the phase barrier; worker 0 reads the totals
/// after it. Each phase runs once per launch, so the post-barrier read
/// sees every worker's add and nothing else.
#[derive(Default)]
struct PhaseAccum([AtomicU64; COUNTER_FIELDS.len()]);

impl PhaseAccum {
    fn add(&self, delta: &CountersSnapshot) {
        let mut delta = *delta;
        for (slot, field) in self.0.iter().zip(COUNTER_FIELDS) {
            slot.fetch_add(*field(&mut delta), Ordering::Relaxed);
        }
    }

    fn totals(&self) -> CountersSnapshot {
        let mut out = CountersSnapshot::default();
        for (slot, field) in self.0.iter().zip(COUNTER_FIELDS) {
            *field(&mut out) = slot.load(Ordering::Relaxed);
        }
        out
    }
}

/// Registry handles for the engine's cost-model series, resolved once per
/// launch so the warp loop never sees a registry lock, and the launch's
/// per-warp distributions pending publication.
struct WarpMetrics {
    /// What the workers that left have buffered; published into the
    /// `*_per_warp` series only if the launch completes.
    pending: WarpDists,
    txn_per_warp: Arc<morph_metrics::Histogram>,
    conflicts_per_warp: Arc<morph_metrics::Histogram>,
    serial_per_warp: Arc<morph_metrics::Histogram>,
    occupancy_pct: Arc<morph_metrics::Histogram>,
    gmem_accesses: Arc<morph_metrics::Counter>,
    gmem_transactions: Arc<morph_metrics::Counter>,
    smem_conflicts: Arc<morph_metrics::Counter>,
    atomic_serial: Arc<morph_metrics::Counter>,
}

impl WarpMetrics {
    fn new(hub: &MetricsHub) -> Self {
        let h = |name: &str, help: &str| hub.histogram(name, help).expect("hub is enabled");
        let c = |name: &str, help: &str| hub.counter(name, help).expect("hub is enabled");
        WarpMetrics {
            pending: WarpDists::default(),
            txn_per_warp: h(
                "morph_warp_gmem_transactions",
                "Global-memory transactions per warp per phase (32-byte segment model)",
            ),
            conflicts_per_warp: h(
                "morph_warp_smem_conflicts",
                "Shared-memory bank conflicts per warp per phase (warp_size banks, word-interleaved)",
            ),
            serial_per_warp: h(
                "morph_warp_atomic_serial",
                "Same-address atomic serialization steps per warp per phase",
            ),
            occupancy_pct: h(
                "morph_launch_occupancy_pct",
                "Achieved occupancy per launch: percent of warp executions with an active lane",
            ),
            gmem_accesses: c(
                "morph_gmem_accesses_total",
                "Metered global-memory accesses (loads, stores, atomics)",
            ),
            gmem_transactions: c(
                "morph_gmem_transactions_total",
                "32-byte global-memory transactions after warp coalescing",
            ),
            smem_conflicts: c(
                "morph_smem_conflicts_total",
                "Shared-memory bank conflicts",
            ),
            atomic_serial: c(
                "morph_atomic_serial_total",
                "Serialization steps from same-address atomics within a warp",
            ),
        }
    }

    /// Publish a completed launch's per-warp distributions and totals
    /// into the live registry series.
    fn finish(&self, stats: &LaunchStats) {
        self.txn_per_warp.merge(&self.pending.transactions);
        self.conflicts_per_warp.merge(&self.pending.conflicts);
        self.serial_per_warp.merge(&self.pending.serial);
        self.gmem_accesses.add(stats.gmem_accesses);
        self.gmem_transactions.add(stats.gmem_transactions);
        self.smem_conflicts.add(stats.smem_conflicts);
        self.atomic_serial.add(stats.atomic_serial);
        if let Some(pct) = (100 * stats.active_warps).checked_div(stats.warps) {
            self.occupancy_pct.record(pct);
        }
    }
}

/// Everything that can watch or steer the launches of one [`VirtualGpu`],
/// attached in one place ([`VirtualGpu::set_observers`]). Every handle
/// defaults to its detached form, which costs nothing. An attached tracer,
/// metrics hub, profiler, tuner or lens arms the cost-model tape
/// ([`Observers::needs_tape`]); the heartbeat and the cancel token never
/// touch the kernel loop.
#[derive(Clone, Default)]
pub struct Observers {
    /// Receives `LaunchBegin`, one `PhaseSpan` per phase (grid-wide
    /// counter delta + worker-0 wall time including the barrier wait) and
    /// `LaunchEnd`. Pipelines emit their algorithm-level events through
    /// the same handle.
    pub tracer: Tracer,
    /// Receives per-warp cost-model distributions (coalescing, bank
    /// conflicts, atomic serialization) and launch totals.
    pub metrics: MetricsHub,
    /// Continuous phase profiler: each phase's modelled cycles and wall
    /// time land in the scope's `algo;iteration-class;phase` cells — the
    /// flamegraph source — with or without a tracer. Recovering host loops
    /// keep the scope's host-iteration base in step with their own count.
    pub profiler: Option<ProfilerScope>,
    /// Closed-loop autotuner handle (`morph-tune`). The engine never
    /// consults the controller — recovering host loops do — but its
    /// inputs (occupancy, coalescing, divergence) must be measured, not
    /// guessed, so an enabled tuner arms the tape.
    pub tuner: AutoTuner,
    /// morph-lens attribution hub: buckets every metered global access
    /// per phase × registered structure and exports each launch's delta
    /// (see [`crate::lens`]). Pipelines register their device structures'
    /// address windows on it.
    pub lens: LensHub,
    /// Progress heartbeat, bumped by every completed launch and by
    /// recovering host loops at every host-action boundary. A watchdog
    /// (e.g. `morph-serve`) that sees it stand still knows the job is
    /// wedged, not merely slow.
    pub heartbeat: Option<Arc<AtomicU64>>,
    /// Cancellation token. The engine never aborts a launch mid-kernel;
    /// host loops consult the token at host-action boundaries and unwind
    /// with a structured error, so a cancelled job releases the device
    /// with quiescent buffers.
    pub cancel: CancelToken,
}

impl Observers {
    /// Does anything attached consume what the cost-model tape measures?
    /// The one place that decides whether a launch is metered.
    pub fn needs_tape(&self) -> bool {
        self.tracer.enabled()
            || self.metrics.enabled()
            || self.profiler.is_some()
            || self.tuner.is_enabled()
            || self.lens.is_enabled()
    }

    /// Bump the heartbeat, if one is attached.
    #[inline]
    pub fn beat(&self) {
        if let Some(b) = &self.heartbeat {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One launch as its observers see it. Exists only when
/// [`Observers::needs_tape`]; called at launch begin, per scored warp, at
/// each phase barrier, as each worker leaves and at launch end or abort.
/// Each attempt of a retried launch gets its own.
struct LaunchObs<'a> {
    on: &'a Observers,
    /// This GPU's observed-launch sequence number (the trace's launch id).
    launch: u64,
    /// One accumulator per phase; empty unless a tracer or profiler
    /// consumes phase spans.
    accums: Vec<PhaseAccum>,
    warp_metrics: Option<WarpMetrics>,
    /// Zeroed lens cells over the launch's snapshot of the region index,
    /// cloned into every worker's tape; `None` without a lens.
    lens: Option<LensCells>,
}

impl<'a> LaunchObs<'a> {
    /// Launch begin.
    fn begin(on: &'a Observers, seq: &AtomicU64, cfg: &GpuConfig, phases: usize) -> Option<Self> {
        if !on.needs_tape() {
            return None;
        }
        let spanned = if on.tracer.enabled() || on.profiler.is_some() {
            phases
        } else {
            0
        };
        let obs = LaunchObs {
            on,
            launch: seq.fetch_add(1, Ordering::Relaxed),
            accums: (0..spanned).map(|_| PhaseAccum::default()).collect(),
            warp_metrics: on.metrics.enabled().then(|| WarpMetrics::new(&on.metrics)),
            lens: on.lens.launch_cells(phases),
        };
        on.tracer.emit(|| TraceEvent::LaunchBegin {
            launch: obs.launch,
            blocks: cfg.blocks as u64,
            threads_per_block: cfg.threads_per_block as u64,
            phases: phases as u64,
        });
        Some(obs)
    }

    /// A worker's tape: its meters for this launch, lens cells and
    /// per-warp distributions as attached.
    fn tape(&self) -> WarpTape {
        let dists = self.warp_metrics.as_ref().map(|_| Box::default());
        WarpTape::new(self.lens.clone(), dists)
    }

    /// Warp scored: drain one warp's tape into the worker's cost-model
    /// counters and the tape's own lens cells and per-warp distributions.
    fn warp_scored(&self, phase: usize, tape: &WarpTape, warp_size: usize, c: &mut WorkerCounters) {
        let score = tape.score_and_clear(phase, warp_size);
        c.gmem_accesses += score.gmem_accesses;
        c.gmem_transactions += score.gmem_transactions;
        c.smem_accesses += score.smem_accesses;
        c.smem_conflicts += score.smem_conflicts;
        c.atomic_serial += score.atomic_serial;
    }

    /// Phase barrier, arriving side (every worker): publish what this
    /// worker counted since its last published snapshot.
    fn phase_arrive(&self, phase: usize, c: &WorkerCounters, published: &mut CountersSnapshot) {
        if let Some(accum) = self.accums.get(phase) {
            let now = c.snapshot();
            accum.add(&now.delta_since(published));
            *published = now;
        }
    }

    /// Phase barrier, far side (worker 0 only): cut the phase's span from
    /// the grid-wide delta and worker 0's wall time, barrier wait included.
    fn phase_crossed(&self, phase: usize, wall: Duration) {
        let Some(accum) = self.accums.get(phase) else {
            return;
        };
        let delta = accum.totals();
        let wall_us = wall.as_micros() as u64;
        if let Some(p) = &self.on.profiler {
            p.record(0, phase as u64, wall_us, &delta);
        }
        self.on.tracer.emit(|| TraceEvent::PhaseSpan {
            launch: self.launch,
            iteration: 0,
            phase: phase as u64,
            wall_us,
            delta,
        });
    }

    /// Worker left the launch, finished or unwound: its lens cells join
    /// the hub's totals and pending delta under the worker's one lock, and
    /// its per-warp distributions join the launch's pending ones.
    fn worker_left(&self, tape: WarpTape) {
        let (cells, dists) = tape.into_meters();
        if let Some(cells) = cells {
            self.on.lens.merge(&cells);
        }
        if let (Some(m), Some(d)) = (&self.warp_metrics, dists) {
            m.pending.absorb(&d);
        }
    }

    /// Launch end (`completed` carries the stats) or abort (`None`): close
    /// the span either way. A dead attempt's counters are discarded (see
    /// [`VirtualGpu::try_launch`]), so its `LaunchEnd` reports zero
    /// iterations and zero totals, and its lens delta and per-warp
    /// distributions are dropped rather than left pending for the retry's
    /// export to pick up.
    fn end(&self, wall: Duration, completed: Option<&LaunchStats>) {
        self.on.tracer.emit(|| TraceEvent::LaunchEnd {
            launch: self.launch,
            iterations: completed.map_or(0, |s| s.iterations),
            wall_us: wall.as_micros() as u64,
            totals: completed.map(LaunchStats::snapshot).unwrap_or_default(),
        });
        match completed {
            Some(stats) => {
                if let Some(m) = &self.warp_metrics {
                    m.finish(stats);
                }
                self.on.lens.export_launch(self.launch, &self.on.tracer, &self.on.metrics);
            }
            None => drop(self.on.lens.drain_launch()),
        }
    }
}

/// What the workers of one launch share.
struct Launch<'a> {
    cfg: &'a GpuConfig,
    workers: usize,
    phases: usize,
    barrier: &'a dyn GlobalBarrier,
    faults: Option<&'a FaultPlan>,
    watchdog: Option<Duration>,
    /// Barrier-epoch nonce for the data-race shadow logs: epochs from
    /// different launches must never collide.
    #[cfg(feature = "morph-check")]
    check_nonce: u64,
    obs: Option<&'a LaunchObs<'a>>,
}

/// A virtual GPU: a launch configuration plus the machinery to run
/// [`Kernel`]s under the SIMT execution model.
pub struct VirtualGpu {
    cfg: GpuConfig,
    faults: Option<Arc<FaultPlan>>,
    barrier_watchdog: Option<Duration>,
    observers: Observers,
    launch_seq: AtomicU64,
    /// True while a launch is executing on this GPU. Host-side exclusive
    /// access to device buffers (`SharedSlice::as_mut_slice`/`to_vec`) is
    /// only legal while this is false — the quiescence contract.
    in_flight: AtomicBool,
}

impl VirtualGpu {
    pub fn new(cfg: GpuConfig) -> Self {
        assert!(cfg.warp_size >= 1, "warp size must be at least 1");
        Self {
            cfg,
            faults: None,
            barrier_watchdog: None,
            observers: Observers::default(),
            launch_seq: AtomicU64::new(0),
            in_flight: AtomicBool::new(false),
        }
    }

    /// Is a launch currently executing on this GPU? Host code must see
    /// `false` before touching device buffers non-atomically.
    pub fn launch_in_flight(&self) -> bool {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Attach the observers of every subsequent launch, replacing
    /// whatever was attached before.
    pub fn set_observers(&mut self, observers: Observers) {
        self.observers = observers;
    }

    /// What is attached (everything detached by default).
    pub fn observers(&self) -> &Observers {
        &self.observers
    }

    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Replace the launch geometry (used by the adaptive-parallelism
    /// controller between launches, paper §7.4).
    pub fn set_geometry(&mut self, blocks: usize, threads_per_block: usize) {
        self.cfg = self.cfg.clone().with_geometry(blocks, threads_per_block);
    }

    /// Attach a fault-injection plan; subsequent launches advance its
    /// launch counter and consult it. See [`crate::fault::FaultPlan`].
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Detach the fault plan, returning it (e.g. to assert it fired).
    pub fn clear_fault_plan(&mut self) -> Option<Arc<FaultPlan>> {
        self.faults.take()
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Arm (or disarm, with `None`) the barrier watchdog: if any barrier
    /// participant spins longer than `timeout` waiting for the others, the
    /// launch fails with [`LaunchError::BarrierStall`] instead of hanging.
    pub fn set_barrier_watchdog(&mut self, timeout: Option<Duration>) {
        self.barrier_watchdog = timeout;
    }

    /// Run one kernel iteration (all phases once).
    ///
    /// # Panics
    /// Panics if a virtual thread panics; use [`VirtualGpu::try_launch`]
    /// for structured error recovery.
    pub fn launch<K: Kernel + ?Sized>(&self, kernel: &K) -> LaunchStats {
        self.drive(kernel)
            .unwrap_or_else(|e| panic!("virtual GPU launch failed: {e}"))
    }

    /// Fallible [`VirtualGpu::launch`]: worker panics are caught and
    /// returned as a [`LaunchError`] naming the failed block/phase. Partial
    /// counter state from a failed launch is discarded.
    pub fn try_launch<K: Kernel + ?Sized>(&self, kernel: &K) -> LaunchOutcome {
        self.drive(kernel)
    }

    fn drive<K: Kernel + ?Sized>(&self, kernel: &K) -> LaunchOutcome {
        // Launch-in-flight flag: overlapping launches on one GPU would
        // break the quiescence contract that host-side bulk accessors rely
        // on, so flag entry and clear on every exit path via the guard.
        let was_in_flight = self.in_flight.swap(true, Ordering::AcqRel);
        debug_assert!(
            !was_in_flight,
            "overlapping launches on one VirtualGpu: host-side exclusive access \
             to device buffers is only legal between launches"
        );
        let _in_flight = InFlightGuard(&self.in_flight);

        let cfg = &self.cfg;
        if let Some(plan) = &self.faults {
            plan.begin_launch();
        }
        let watchdog = self.barrier_watchdog;
        let workers = cfg.effective_workers();
        let phases = kernel.phases().max(1);
        let barrier = make_barrier(cfg.barrier, workers, watchdog);
        let obs = LaunchObs::begin(&self.observers, &self.launch_seq, cfg, phases);
        let launch = Launch {
            cfg,
            workers,
            phases,
            barrier: barrier.as_ref(),
            faults: self.faults.as_deref(),
            watchdog,
            #[cfg(feature = "morph-check")]
            check_nonce: morph_check::next_launch_nonce(),
            obs: obs.as_ref(),
        };
        let start = Instant::now();

        let mut stats = LaunchStats::default();
        let failure = if workers == 1 {
            // Degenerate single-worker grid: run inline, no threads.
            match run_contained(kernel, &launch, 0) {
                Ok(counters) => {
                    counters.merge_into(&mut stats);
                    None
                }
                Err(cause) => {
                    Some(cause.expect("a single worker cannot be a secondary barrier casualty"))
                }
            }
        } else {
            // First failure wins; secondary barrier-poison casualties are
            // not recorded (they are consequences, not causes).
            let failure: Mutex<Option<LaunchError>> = Mutex::new(None);
            let collected = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let (launch, failure) = (&launch, &failure);
                        scope.spawn(move || match run_contained(kernel, launch, w) {
                            Ok(counters) => Some(counters),
                            Err(cause) => {
                                // Record the cause before waking siblings so
                                // their poison panics can never win the race.
                                if let Some(err) = cause {
                                    failure
                                        .lock()
                                        .unwrap_or_else(|e| e.into_inner())
                                        .get_or_insert(err);
                                }
                                launch.barrier.poison();
                                None
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .expect("worker bookkeeping panicked outside catch_unwind")
                    })
                    .collect::<Vec<_>>()
            });
            for counters in collected.into_iter().flatten() {
                counters.merge_into(&mut stats);
            }
            failure.into_inner().unwrap_or_else(|e| e.into_inner())
        };

        let wall = start.elapsed();
        let outcome = match failure {
            Some(err) => Err(err),
            None => {
                stats.iterations = 1;
                stats.phases = phases as u64;
                stats.barrier_rmws = barrier.rmw_traffic();
                stats.blocks = cfg.blocks;
                stats.threads_per_block = cfg.threads_per_block;
                stats.wall = wall;
                Ok(stats)
            }
        };
        if let Some(o) = &obs {
            o.end(wall, outcome.as_ref().ok());
        }
        // A failed launch does not beat: a watchdog must see a wedged
        // slot as silent.
        if outcome.is_ok() {
            self.observers.beat();
        }
        outcome
    }
}

/// Clears [`VirtualGpu::in_flight`] on every exit path of `drive`,
/// including unwinding.
struct InFlightGuard<'a>(&'a AtomicBool);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Turn a caught worker panic into a [`LaunchError`], or `None` if the
/// panic is a secondary casualty of barrier poisoning (the primary fault is
/// reported by the worker that caused it).
fn classify_failure(
    worker: usize,
    at: Progress,
    payload: Box<dyn std::any::Any + Send>,
    watchdog: Option<Duration>,
) -> Option<LaunchError> {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string());
    if message == BARRIER_POISON_MSG {
        return None;
    }
    if message == BARRIER_TIMEOUT_MSG {
        return Some(LaunchError::BarrierStall {
            worker,
            phase: at.phase,
            iteration: 0,
            timeout: watchdog.unwrap_or_default(),
        });
    }
    if message == crate::fault::INJECTED_DEVICE_LOSS_MSG {
        return Some(LaunchError::DeviceLost {
            worker,
            phase: at.phase,
            iteration: 0,
        });
    }
    Some(LaunchError::KernelPanic {
        worker,
        block: at.block,
        phase: at.phase,
        iteration: 0,
        message,
    })
}

/// One worker's whole launch, panics contained: its counters, or why it
/// died (`None` for a secondary casualty of barrier poisoning).
///
/// Never inlined: the worker's counters then live in this frame, on the
/// worker's own stack, and the kernel loop below compiles the same
/// whichever launch path calls it. Folded into the spawning closure it
/// cost `pta-solve` 20 % wall.
#[inline(never)]
fn run_contained<K: Kernel + ?Sized>(
    kernel: &K,
    l: &Launch<'_>,
    worker: usize,
) -> Result<WorkerCounters, Option<LaunchError>> {
    let mut counters = WorkerCounters::default();
    let progress = Cell::new(Progress::default());
    // The cost-model tape records memory accesses on observed launches
    // only; detached ones skip both the allocation and the per-access
    // pushes.
    let tape = l.obs.map(LaunchObs::tape);
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_worker(kernel, l, worker, &mut counters, &progress, tape.as_ref())
    }));
    if let (Some(o), Some(t)) = (l.obs, tape) {
        o.worker_left(t);
    }
    run.map_err(|payload| classify_failure(worker, progress.get(), payload, l.watchdog))?;
    Ok(counters)
}

/// The per-worker loop: each phase of every block this worker owns, then
/// the global barrier.
fn run_worker<K: Kernel + ?Sized>(
    kernel: &K,
    l: &Launch<'_>,
    worker: usize,
    counters: &mut WorkerCounters,
    progress: &Cell<Progress>,
    tape: Option<&WarpTape>,
) {
    let my_blocks: Vec<usize> = (worker..l.cfg.blocks).step_by(l.workers).collect();
    let my_vthreads = my_blocks.len() * l.cfg.threads_per_block;

    // What this worker last published to the phase accumulators, so each
    // barrier publishes a per-phase delta.
    let mut published = CountersSnapshot::default();

    for phase in 0..l.phases {
        let phase_start = l.obs.filter(|_| worker == 0).map(|_| Instant::now());
        // Device loss is a per-(phase, worker) event: the whole slot
        // dies before it touches any of its blocks this phase, so a
        // half-run phase looks exactly like a kernel-panic retry to
        // the host — but is classified as the slot's fault.
        if let Some(plan) = l.faults {
            if plan.lose_device(phase, worker) {
                progress.set(Progress {
                    phase,
                    block: my_blocks.first().copied().unwrap_or(0),
                });
                panic!("{}", crate::fault::INJECTED_DEVICE_LOSS_MSG);
            }
        }
        for &block in &my_blocks {
            progress.set(Progress { phase, block });
            run_block_phase(kernel, l, block, phase, counters, tape);
        }
        counters.barriers += 1;
        if let Some(o) = l.obs {
            o.phase_arrive(phase, counters, &mut published);
        }
        if let Some(plan) = l.faults {
            if let Some(delay) = plan.stall_before_barrier(phase, worker) {
                std::thread::sleep(delay);
            }
        }
        l.barrier.wait(worker, my_vthreads, my_blocks.len());
        if let (Some(o), Some(t)) = (l.obs, phase_start) {
            o.phase_crossed(phase, t.elapsed());
        }
    }
}

/// Run one phase of one block: warp by warp, lane by lane.
fn run_block_phase<K: Kernel + ?Sized>(
    kernel: &K,
    l: &Launch<'_>,
    block: usize,
    phase: usize,
    counters: &mut WorkerCounters,
    tape: Option<&WarpTape>,
) {
    let tpb = l.cfg.threads_per_block;
    let warp_size = l.cfg.warp_size;
    let nthreads = l.cfg.total_threads();
    // Barrier epoch for the data-race shadow logs: unique per (launch,
    // phase) barrier interval.
    #[cfg(feature = "morph-check")]
    let check_epoch = l.check_nonce.wrapping_mul(1 << 24).wrapping_add(phase as u64);
    let mut tib = 0usize;
    while tib < tpb {
        let lanes = warp_size.min(tpb - tib);
        let warp = (block * tpb + tib) / warp_size;
        let mut active = 0u64;
        for lane in 0..lanes {
            let thread_in_block = tib + lane;
            let tid = block * tpb + thread_in_block;
            if let Some(plan) = l.faults {
                if plan.should_panic(phase, block, thread_in_block) {
                    panic!("{}", crate::fault::INJECTED_PANIC_MSG);
                }
            }
            let mut ctx = ThreadCtx {
                tid,
                nthreads,
                block,
                nblocks: l.cfg.blocks,
                thread_in_block,
                threads_per_block: tpb,
                warp,
                lane,
                iteration: 0,
                counters,
                faults: l.faults,
                tape,
            };
            // Mark this OS thread as executing virtual thread `tid` in the
            // current barrier interval, so shadow checkers can attribute
            // accesses; the guard unwinds cleanly with a trapping kernel.
            #[cfg(feature = "morph-check")]
            let _scope = morph_check::KernelScope::enter(tid as u64, check_epoch);
            if kernel.run(phase, &mut ctx) {
                active += 1;
            }
        }
        counters.warps += 1;
        if active > 0 {
            counters.active_warps += 1;
            if active < lanes as u64 {
                counters.divergent_warps += 1;
            }
        }
        counters.active_threads += active;
        counters.idle_threads += lanes as u64 - active;
        if let (Some(o), Some(t)) = (l.obs, tape) {
            o.warp_scored(phase, t, warp_size, counters);
        }
        tib += lanes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::AtomicU32Slice;
    use crate::shared::BlockLocal;
    use std::sync::atomic::AtomicU64;

    /// Histogram via counted atomics, strided partition.
    struct Histogram<'a> {
        data: &'a [u32],
        bins: AtomicU32Slice,
    }

    impl Kernel for Histogram<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
            let mut did = false;
            for i in ctx.strided(self.data.len()) {
                let b = (self.data[i] as usize) % self.bins.len();
                ctx.atomic_add_u32(self.bins.at(b), 1);
                did = true;
            }
            did
        }
    }

    #[test]
    fn histogram_kernel_counts_correctly() {
        let data: Vec<u32> = (0..10_000).collect();
        let k = Histogram {
            data: &data,
            bins: AtomicU32Slice::new(7, 0),
        };
        let gpu = VirtualGpu::new(GpuConfig::small());
        let stats = gpu.launch(&k);
        let bins = k.bins.to_vec();
        assert_eq!(bins.iter().sum::<u32>(), 10_000);
        for (b, &count) in bins.iter().enumerate() {
            let expected = (0..10_000u32).filter(|x| (*x as usize) % 7 == b).count() as u32;
            assert_eq!(count, expected);
        }
        assert_eq!(stats.iterations, 1);
        assert_eq!(stats.atomics, 10_000);
    }

    /// Two-phase kernel: phase 0 writes per-thread values, phase 1 reads
    /// *other* threads' values — only correct if the global barrier between
    /// phases is real.
    struct PhaseOrdering {
        scratch: AtomicU32Slice,
        errors: AtomicU32Slice,
    }

    impl Kernel for PhaseOrdering {
        fn phases(&self) -> usize {
            2
        }
        fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
            match phase {
                0 => self.scratch.store(ctx.tid, ctx.tid as u32 + 1),
                _ => {
                    let peer = (ctx.tid + ctx.nthreads / 2) % ctx.nthreads;
                    if self.scratch.load(peer) != peer as u32 + 1 {
                        ctx.atomic_add_u32(self.errors.at(0), 1);
                    }
                }
            }
            true
        }
    }

    #[test]
    fn phases_are_globally_ordered() {
        for kind in [
            crate::BarrierKind::NaiveAtomic,
            crate::BarrierKind::Hierarchical,
            crate::BarrierKind::SenseReversing,
        ] {
            let cfg = GpuConfig {
                num_sms: 4,
                warp_size: 8,
                blocks: 8,
                threads_per_block: 32,
                barrier: kind,
            };
            let gpu = VirtualGpu::new(cfg.clone());
            let k = PhaseOrdering {
                scratch: AtomicU32Slice::new(cfg.total_threads(), 0),
                errors: AtomicU32Slice::new(1, 0),
            };
            let stats = gpu.launch(&k);
            assert_eq!(k.errors.load(0), 0, "{kind:?}");
            assert_eq!(stats.phases, 2);
        }
    }

    /// Thread 0 bumps a counter once per launch; every other lane idles.
    #[derive(Default)]
    struct CountTo {
        total: AtomicU64,
    }

    impl Kernel for CountTo {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
            if ctx.tid == 0 {
                ctx.atomic_add_u64(&self.total, 1);
                true
            } else {
                false
            }
        }
    }

    /// The host loop of Fig. 3 in its smallest form: `n` launches of one
    /// kernel, stats absorbed.
    fn launch_n<K: Kernel>(gpu: &VirtualGpu, k: &K, n: usize) -> LaunchStats {
        let mut total = LaunchStats::default();
        for _ in 0..n {
            total.absorb(&gpu.try_launch(k).expect("no faults configured"));
        }
        total
    }

    /// Divergence accounting: odd lanes work, even lanes don't.
    struct HalfActive;
    impl Kernel for HalfActive {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
            ctx.lane % 2 == 1
        }
    }

    #[test]
    fn divergence_is_detected() {
        let gpu = VirtualGpu::new(GpuConfig::small());
        let stats = gpu.launch(&HalfActive);
        assert_eq!(stats.divergent_warps, stats.warps);
        assert!(stats.divergence_ratio() > 0.99);
        assert_eq!(stats.active_threads, stats.idle_threads);
    }

    /// Block-local worklists: each block collects its own ids in shared
    /// memory in phase 0 (lane 0 builds the list) and drains it in phase 1.
    /// The queue is a plain `Vec<u32>`, the shape DMR keeps per block.
    struct BlockQueues<'a> {
        queues: &'a BlockLocal<Vec<u32>>,
        drained: AtomicU32Slice,
    }

    impl Kernel for BlockQueues<'_> {
        fn phases(&self) -> usize {
            2
        }
        fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
            match phase {
                0 => {
                    if ctx.thread_in_block == 0 {
                        let base = (ctx.block * ctx.threads_per_block) as u32;
                        self.queues.with(ctx, |q| {
                            q.clear();
                            for i in 0..ctx.threads_per_block as u32 {
                                q.push(base + i);
                            }
                        });
                    }
                    true
                }
                _ => {
                    let item = self.queues.with(ctx, |q| q.get(ctx.thread_in_block).copied());
                    if let Some(it) = item {
                        self.drained.store(it as usize, 1);
                        true
                    } else {
                        false
                    }
                }
            }
        }
    }

    #[test]
    fn block_local_worklists_work_under_the_engine() {
        let cfg = GpuConfig::small();
        let queues = BlockLocal::new(cfg.blocks, |_| Vec::with_capacity(8));
        let k = BlockQueues {
            queues: &queues,
            drained: AtomicU32Slice::new(cfg.total_threads(), 0),
        };
        let gpu = VirtualGpu::new(cfg);
        gpu.launch(&k);
        assert!(k.drained.to_vec().iter().all(|&v| v == 1));
    }

    struct Panicker;
    impl Kernel for Panicker {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
            if ctx.tid == 3 {
                panic!("kernel fault");
            }
            true
        }
    }

    #[test]
    fn kernel_panic_propagates_without_hanging() {
        let gpu = VirtualGpu::new(GpuConfig::small());
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| gpu.launch(&Panicker)));
        assert!(result.is_err());
    }

    #[test]
    fn try_launch_reports_the_failing_site() {
        let gpu = VirtualGpu::new(GpuConfig::small());
        match gpu.try_launch(&Panicker) {
            Err(LaunchError::KernelPanic {
                block,
                phase,
                iteration,
                message,
                ..
            }) => {
                // tid 3 lives in block 0 under `small()` (tpb = 8).
                assert_eq!(block, 0);
                assert_eq!(phase, 0);
                assert_eq!(iteration, 0);
                assert_eq!(message, "kernel fault");
            }
            other => panic!("expected KernelPanic, got {other:?}"),
        }
    }

    #[test]
    fn try_launch_succeeds_like_launch() {
        let data: Vec<u32> = (0..100).collect();
        let k = Histogram {
            data: &data,
            bins: AtomicU32Slice::new(3, 0),
        };
        let gpu = VirtualGpu::new(GpuConfig::small());
        let stats = gpu.try_launch(&k).expect("no faults configured");
        assert_eq!(k.bins.to_vec().iter().sum::<u32>(), 100);
        assert_eq!(stats.iterations, 1);
        assert_eq!(stats.blocks, 4);
        assert_eq!(stats.threads_per_block, 8);
    }

    #[test]
    fn injected_panic_is_contained_and_sited() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let plan = Arc::new(FaultPlan::new().with_kernel_panic(0, 0, 2, 5));
        gpu.set_fault_plan(Arc::clone(&plan));
        let k = CountTo::default();
        match gpu.try_launch(&k) {
            Err(LaunchError::KernelPanic { block, phase, message, .. }) => {
                assert_eq!(block, 2);
                assert_eq!(phase, 0);
                assert_eq!(message, crate::fault::INJECTED_PANIC_MSG);
            }
            other => panic!("expected injected KernelPanic, got {other:?}"),
        }
        assert!(plan.exhausted());
        // The plan fired once; the next launch is clean.
        let stats = gpu.try_launch(&k).expect("fault already consumed");
        assert_eq!(stats.iterations, 1);
    }

    #[test]
    fn injected_device_loss_is_classified_and_fires_once() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let plan = Arc::new(FaultPlan::new().with_device_loss(0, 0, 1));
        gpu.set_fault_plan(Arc::clone(&plan));
        let k = CountTo::default();
        match gpu.try_launch(&k) {
            Err(e @ LaunchError::DeviceLost { worker, phase, iteration }) => {
                assert!(e.is_device_loss());
                assert_eq!(worker, 1);
                assert_eq!(phase, 0);
                assert_eq!(iteration, 0);
            }
            other => panic!("expected DeviceLost, got {other:?}"),
        }
        assert!(plan.exhausted());
        // Fires once: the "new slot" (same gpu here) runs clean — a
        // resumed job must not re-lose its replacement device.
        let stats = gpu.try_launch(&k).expect("loss already consumed");
        assert_eq!(stats.iterations, 1);
    }

    #[test]
    fn heartbeat_counts_completed_launches() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let beat = Arc::new(AtomicU64::new(0));
        gpu.set_observers(Observers {
            heartbeat: Some(Arc::clone(&beat)),
            ..Observers::default()
        });
        let k = CountTo::default();
        gpu.try_launch(&k).unwrap();
        gpu.try_launch(&k).unwrap();
        assert_eq!(beat.load(Ordering::Relaxed), 2);
        // A failed launch does not beat: the watchdog must see a wedged
        // slot as silent.
        gpu.set_fault_plan(Arc::new(FaultPlan::new().with_device_loss(0, 0, 0)));
        let _ = gpu.try_launch(&k);
        assert_eq!(beat.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn injected_stall_trips_the_watchdog() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        gpu.set_barrier_watchdog(Some(Duration::from_millis(50)));
        gpu.set_fault_plan(Arc::new(FaultPlan::new().with_barrier_stall(
            0,
            0,
            1,
            Duration::from_secs(2),
        )));
        let k = CountTo::default();
        let start = Instant::now();
        match gpu.try_launch(&k) {
            Err(LaunchError::BarrierStall { timeout, .. }) => {
                assert_eq!(timeout, Duration::from_millis(50));
            }
            other => panic!("expected BarrierStall, got {other:?}"),
        }
        // Detection must not wait out the full 2 s stall... but the scope
        // joins the stalled worker, so the wall clock includes its sleep.
        // What matters is that we got a structured error, not a hang.
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn watchdog_quiet_when_no_stall() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        gpu.set_barrier_watchdog(Some(Duration::from_secs(5)));
        let k = CountTo::default();
        let stats = launch_n(&gpu, &k, 7);
        assert_eq!(stats.iterations, 7);
        assert_eq!(k.total.load(Ordering::Acquire), 7);
    }

    #[test]
    fn degenerate_geometries_work() {
        // warp bigger than block, single block, single thread, more SMs
        // than blocks — all must execute every thread exactly once.
        for (sms, warp, blocks, tpb) in [
            (4usize, 64usize, 1usize, 8usize),
            (1, 1, 3, 5),
            (8, 32, 2, 1),
            (2, 7, 5, 13),
        ] {
            let cfg = GpuConfig {
                num_sms: sms,
                warp_size: warp,
                blocks,
                threads_per_block: tpb,
                barrier: crate::BarrierKind::SenseReversing,
            };
            let hits = AtomicU32Slice::new(cfg.total_threads(), 0);
            struct Once<'a>(&'a AtomicU32Slice);
            impl Kernel for Once<'_> {
                fn run(&self, _p: usize, ctx: &mut ThreadCtx<'_>) -> bool {
                    ctx.atomic_add_u32(self.0.at(ctx.tid), 1);
                    true
                }
            }
            VirtualGpu::new(cfg).launch(&Once(&hits));
            assert!(
                hits.to_vec().iter().all(|&h| h == 1),
                "({sms},{warp},{blocks},{tpb})"
            );
        }
    }

    #[test]
    fn single_worker_failures_are_structured_too() {
        let cfg = GpuConfig::small().with_geometry(1, 8).with_sms(1);
        let gpu = VirtualGpu::new(cfg);
        match gpu.try_launch(&Panicker) {
            Err(LaunchError::KernelPanic { worker, message, .. }) => {
                assert_eq!(worker, 0);
                assert_eq!(message, "kernel fault");
            }
            other => panic!("expected KernelPanic, got {other:?}"),
        }
    }

    #[test]
    fn iterations_are_counted_by_the_host_loop() {
        // A launch is one iteration: threads always see iteration 0 and
        // the trip count is the host's, summed by `absorb`.
        struct IterCheck {
            max_seen: AtomicU64,
        }
        impl Kernel for IterCheck {
            fn run(&self, _p: usize, ctx: &mut ThreadCtx<'_>) -> bool {
                self.max_seen
                    .fetch_max(ctx.iteration as u64, Ordering::AcqRel);
                true
            }
        }
        let k = IterCheck {
            max_seen: AtomicU64::new(0),
        };
        let stats = launch_n(&VirtualGpu::new(GpuConfig::small()), &k, 5);
        assert_eq!(k.max_seen.load(Ordering::Acquire), 0);
        assert_eq!(stats.iterations, 5);
        assert_eq!(stats.phases, 5);
    }

    /// Every thread launches exactly one speculative activity; some abort,
    /// some commit, some lanes idle.
    struct Speculator;
    impl Kernel for Speculator {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
            if ctx.tid.is_multiple_of(3) {
                ctx.abort();
            } else {
                ctx.commit();
            }
            ctx.tid.is_multiple_of(2)
        }
    }

    #[test]
    fn counters_are_conserved() {
        // Satellite: with warp-aligned geometry (tpb divisible by
        // warp_size, so no partial warps) the lane accounting must balance
        // exactly — every lane of every warp execution is either active or
        // idle — and every speculative activity either aborts or commits.
        let cfg = GpuConfig {
            num_sms: 3,
            warp_size: 8,
            blocks: 4,
            threads_per_block: 16,
            barrier: crate::BarrierKind::SenseReversing,
        };
        let total_threads = cfg.total_threads() as u64;
        let warp_size = cfg.warp_size as u64;
        let stats = VirtualGpu::new(cfg).launch(&Speculator);
        assert_eq!(
            stats.active_threads + stats.idle_threads,
            stats.warps * warp_size,
            "every lane of every warp execution is exactly one of active/idle"
        );
        assert_eq!(
            stats.aborts + stats.commits,
            total_threads,
            "each thread launched exactly one speculative activity"
        );
    }

    fn metered_gpu(cfg: GpuConfig) -> (VirtualGpu, Arc<morph_metrics::MetricsRegistry>) {
        let mut gpu = VirtualGpu::new(cfg);
        let registry = Arc::new(morph_metrics::MetricsRegistry::new());
        gpu.set_observers(Observers {
            metrics: MetricsHub::new(registry.clone()),
            ..Observers::default()
        });
        (gpu, registry)
    }

    /// Copies `src[f(tid)]` to `dst[f(tid)]` through the metered access
    /// path; `stride` plants the coalescing behaviour.
    struct StridedCopy<'a> {
        src: &'a crate::mem::SharedSlice<u64>,
        dst: &'a crate::mem::SharedSlice<u64>,
        stride: usize,
    }
    impl Kernel for StridedCopy<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
            let i = (ctx.tid * self.stride) % self.src.len();
            let v = ctx.global_load(self.src, i);
            ctx.global_store(self.dst, i, v);
            true
        }
    }

    fn copy_stats(stride: usize) -> LaunchStats {
        let cfg = GpuConfig {
            num_sms: 1,
            warp_size: 8,
            blocks: 1,
            threads_per_block: 8,
            barrier: crate::BarrierKind::SenseReversing,
        };
        let src = crate::mem::SharedSlice::<u64>::from_vec((0..64).collect());
        let dst = crate::mem::SharedSlice::<u64>::new(64, 0);
        let (gpu, _reg) = metered_gpu(cfg);
        gpu.launch(&StridedCopy {
            src: &src,
            dst: &dst,
            stride,
        })
    }

    #[test]
    fn planted_stride_degrades_coalescing() {
        // Acceptance gate: the cost model must discriminate. A warp of 8
        // lanes reading consecutive u64s touches 2 segments (64 bytes);
        // with stride 8 every lane is 64 bytes apart and pays its own
        // segment. Same access counts, different transaction counts.
        let contiguous = copy_stats(1);
        let strided = copy_stats(8);
        assert_eq!(contiguous.gmem_accesses, 16, "8 loads + 8 stores");
        assert_eq!(contiguous.gmem_accesses, strided.gmem_accesses);
        // 64 contiguous bytes span 2 segments when aligned, 3 when the heap
        // buffer straddles a boundary — per array.
        assert!(
            (4..=6).contains(&contiguous.gmem_transactions),
            "contiguous warp should need 2-3 segments per array, got {}",
            contiguous.gmem_transactions
        );
        assert_eq!(strided.gmem_transactions, 16, "one segment per access");
        assert!(
            contiguous.coalescing_factor() > 2.5
                && strided.coalescing_factor() < 1.1,
            "coalescing factor must separate the planted pathologies: \
             contiguous {} vs strided {}",
            contiguous.coalescing_factor(),
            strided.coalescing_factor()
        );
    }

    /// Every lane increments either one shared bin (pathological) or its
    /// own bin (clean).
    struct ContendedCounter {
        bins: AtomicU32Slice,
        same_address: bool,
    }
    impl Kernel for ContendedCounter {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
            let b = if self.same_address {
                0
            } else {
                ctx.tid % self.bins.len()
            };
            ctx.atomic_add_u32(self.bins.at(b), 1);
            true
        }
    }

    #[test]
    fn planted_same_address_atomics_raise_contention() {
        let cfg = GpuConfig {
            num_sms: 1,
            warp_size: 8,
            blocks: 2,
            threads_per_block: 8,
            barrier: crate::BarrierKind::SenseReversing,
        };
        let run = |same_address: bool| {
            let (gpu, _reg) = metered_gpu(cfg.clone());
            gpu.launch(&ContendedCounter {
                bins: AtomicU32Slice::new(16, 0),
                same_address,
            })
        };
        let hot = run(true);
        let spread = run(false);
        assert_eq!(hot.atomics, 16);
        assert_eq!(spread.atomics, 16);
        // 2 warps of 8 lanes hammering one address: 7 extra serialized
        // steps each. Distinct bins per lane: none.
        assert_eq!(hot.atomic_serial, 14);
        assert_eq!(spread.atomic_serial, 0);
    }

    #[test]
    fn cost_model_counters_are_conserved_and_published() {
        let cfg = GpuConfig {
            num_sms: 2,
            warp_size: 8,
            blocks: 4,
            threads_per_block: 16,
            barrier: crate::BarrierKind::SenseReversing,
        };
        let (gpu, registry) = metered_gpu(cfg);
        let stats = gpu.launch(&ContendedCounter {
            bins: AtomicU32Slice::new(8, 0),
            same_address: false,
        });

        // Structural invariants of the model.
        assert!(stats.gmem_transactions <= stats.gmem_accesses);
        assert!(stats.gmem_transactions > 0, "atomics are global accesses");
        assert!(stats.active_warps <= stats.warps);
        assert!(stats.occupancy() > 0.0 && stats.occupancy() <= 1.0);
        assert!(stats.coalescing_factor() >= 1.0);

        // The same totals must have landed in the live registry.
        let snap = registry.snapshot();
        let series = |name: &str| {
            snap.series
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("series {name} not published"))
        };
        match &series("morph_gmem_accesses_total").value {
            morph_metrics::SampleValue::Counter(v) => assert_eq!(*v, stats.gmem_accesses),
            other => panic!("expected counter, got {other:?}"),
        }
        match &series("morph_gmem_transactions_total").value {
            morph_metrics::SampleValue::Counter(v) => {
                assert_eq!(*v, stats.gmem_transactions)
            }
            other => panic!("expected counter, got {other:?}"),
        }
        match &series("morph_launch_occupancy_pct").value {
            morph_metrics::SampleValue::Histogram(h) => {
                assert_eq!(h.count, 1, "one launch, one occupancy sample");
                assert_eq!(h.max, 100 * stats.active_warps / stats.warps);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    /// Fixed traffic at logical addresses, so every counter repeats exactly:
    /// per lane a strided global access, a shared-memory word in bank 0 and
    /// an atomic on one of two words; odd lanes sit out phase 1.
    struct Metered {
        hits: AtomicU32Slice,
    }
    impl Kernel for Metered {
        fn phases(&self) -> usize {
            2
        }
        fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
            if phase == 1 && ctx.lane % 2 == 1 {
                return false;
            }
            ctx.gmem_addr(0x1000 + ctx.tid * 8 * (phase + 1));
            ctx.smem_word(ctx.lane * METERED_WARP);
            ctx.atomic_add_u32_at(self.hits.at(0), 1, 0x9000 + (ctx.tid % 2) * 4);
            true
        }
    }
    const METERED_WARP: usize = 8;

    fn metered_cfg(sms: usize) -> GpuConfig {
        GpuConfig {
            num_sms: sms,
            warp_size: METERED_WARP,
            blocks: 4,
            threads_per_block: 16,
            barrier: crate::BarrierKind::SenseReversing,
        }
    }

    #[test]
    fn every_armed_set_meters_alike_and_the_detached_launch_not_at_all() {
        use morph_trace::{PhaseProfiler, RingSink};
        use morph_tune::TuneConfig;

        let all = Observers {
            tracer: Tracer::new(Arc::new(RingSink::new(4096))),
            metrics: MetricsHub::new(Arc::new(morph_metrics::MetricsRegistry::new())),
            profiler: Some(ProfilerScope::new(Arc::new(PhaseProfiler::new()), "t")),
            tuner: AutoTuner::enabled(TuneConfig::default()),
            lens: LensHub::enabled(),
            ..Observers::default()
        };
        let d = Observers::default;
        let sets = [
            ("none", d()),
            ("tracer", Observers { tracer: all.tracer.clone(), ..d() }),
            ("metrics", Observers { metrics: all.metrics.clone(), ..d() }),
            ("profiler", Observers { profiler: all.profiler.clone(), ..d() }),
            ("tuner", Observers { tuner: all.tuner.clone(), ..d() }),
            ("lens", Observers { lens: all.lens.clone(), ..d() }),
            ("all", all.clone()),
        ];
        let cost_model = |s: &LaunchStats| {
            [s.gmem_accesses, s.gmem_transactions, s.smem_accesses, s.smem_conflicts, s.atomic_serial]
        };
        let always = |s: &LaunchStats| [s.active_warps, s.warps, s.atomics, s.active_threads];
        let mut armed_ref = None;
        let mut always_ref = None;
        // One worker runs inline, two run scoped: both paths share one
        // `Launch`, so the table must not care.
        for sms in [1, 2] {
            for (name, set) in &sets {
                let mut gpu = VirtualGpu::new(metered_cfg(sms));
                gpu.set_observers(set.clone());
                let stats = gpu.launch(&Metered {
                    hits: AtomicU32Slice::new(1, 0),
                });
                let tag = format!("{name}, {sms} worker(s)");
                if *name == "none" {
                    assert!(!set.needs_tape());
                    assert_eq!(cost_model(&stats), [0; 5], "{tag}");
                } else {
                    assert!(set.needs_tape(), "{tag}");
                    let want = *armed_ref.get_or_insert(cost_model(&stats));
                    assert!(want.iter().all(|&v| v > 0), "{tag}: {want:?}");
                    assert_eq!(cost_model(&stats), want, "{tag}");
                }
                let want = *always_ref.get_or_insert(always(&stats));
                assert_eq!(always(&stats), want, "{tag}");
            }
        }
    }

    #[test]
    fn aborted_launch_closes_its_span_and_keeps_its_lens_delta_out_of_the_retry() {
        use morph_trace::RingSink;

        let mut gpu = VirtualGpu::new(metered_cfg(2));
        let sink = Arc::new(RingSink::new(4096));
        gpu.set_observers(Observers {
            tracer: Tracer::new(sink.clone()),
            lens: LensHub::enabled(),
            ..Observers::default()
        });
        // Launch 0 dies in phase 1, after phase 0's traffic was attributed.
        gpu.set_fault_plan(Arc::new(FaultPlan::new().with_kernel_panic(0, 1, 2, 5)));
        let k = Metered {
            hits: AtomicU32Slice::new(1, 0),
        };
        assert!(matches!(
            gpu.try_launch(&k),
            Err(LaunchError::KernelPanic { phase: 1, block: 2, .. })
        ));
        let retry = gpu.try_launch(&k).expect("the fault fires once");

        let events = sink.events();
        let end_of = |id: u64| {
            events.iter().find_map(|e| match e {
                TraceEvent::LaunchEnd { launch, iterations, totals, .. } if *launch == id => {
                    Some((*iterations, *totals))
                }
                _ => None,
            })
        };
        let lens_accesses = |id: u64| -> u64 {
            events
                .iter()
                .map(|e| match e {
                    TraceEvent::Lens { launch, accesses, .. } if *launch == id => *accesses,
                    _ => 0,
                })
                .sum()
        };
        assert_eq!(
            end_of(0),
            Some((0, CountersSnapshot::default())),
            "the dead attempt's span is closed, with its counters discarded"
        );
        assert_eq!(lens_accesses(0), 0, "and it exports no lens rows");
        let (iterations, totals) = end_of(1).expect("the retry ends");
        assert_eq!(iterations, 1);
        assert_eq!(totals.gmem_accesses, retry.gmem_accesses);
        assert!(totals.gmem_accesses > 0);
        assert_eq!(
            lens_accesses(1),
            totals.gmem_accesses,
            "the retry's lens rows cover the retry's traffic and nothing else"
        );
    }

    #[test]
    fn an_aborted_launch_keeps_its_scored_warps_in_the_cumulative_lens_totals() {
        let lens = LensHub::enabled();
        let mut gpu = VirtualGpu::new(metered_cfg(1));
        gpu.set_observers(Observers {
            lens: lens.clone(),
            ..Observers::default()
        });
        gpu.set_fault_plan(Arc::new(FaultPlan::new().with_kernel_panic(0, 1, 2, 5)));
        let k = Metered {
            hits: AtomicU32Slice::new(1, 0),
        };
        assert!(gpu.try_launch(&k).is_err());
        let retry = gpu.try_launch(&k).expect("the fault fires once");
        let total: u64 = lens.snapshot().rows.iter().map(|r| r.accesses).sum();
        // Phase 0 ran whole (64 lanes × 2 accesses); in phase 1 blocks 0
        // and 1 were scored (8 active lanes × 2 each) before block 2's
        // first warp died unscored. The unwinding worker still merged.
        assert_eq!(total - retry.gmem_accesses, 128 + 2 * 16);
    }

    #[test]
    fn a_lensed_launch_locks_the_hub_once_per_worker_plus_begin_and_end() {
        let lens = LensHub::enabled();
        lens.register("metered.gmem", 0x1000, 0x8000);
        let workers = 2;
        let mut gpu = VirtualGpu::new(GpuConfig {
            blocks: 64,
            threads_per_block: 64,
            ..metered_cfg(workers)
        });
        gpu.set_observers(Observers {
            lens: lens.clone(),
            ..Observers::default()
        });
        let before = lens.lock_count();
        let stats = gpu.launch(&Metered {
            hits: AtomicU32Slice::new(1, 0),
        });
        let locks = lens.lock_count() - before;
        assert!(stats.warps >= 1000, "{} warps", stats.warps);
        assert!(
            locks <= workers as u64 + 2,
            "{locks} hub locks for {} warps",
            stats.warps
        );
        let attributed: u64 = lens.snapshot().rows.iter().map(|r| r.accesses).sum();
        assert_eq!(
            attributed, stats.gmem_accesses,
            "every warp still reached the hub"
        );
    }

    #[test]
    fn traced_launches_emit_spans_that_sum_to_totals() {
        use morph_trace::RingSink;

        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let sink = Arc::new(RingSink::new(1024));
        gpu.set_observers(Observers {
            tracer: Tracer::new(sink.clone()),
            ..Observers::default()
        });
        let stats = launch_n(&gpu, &CountTo::default(), 3);
        assert_eq!(stats.iterations, 3);

        let events = sink.events();
        let begins: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::LaunchBegin { .. }))
            .collect();
        assert_eq!(begins.len(), 3);
        match begins[0] {
            TraceEvent::LaunchBegin {
                blocks,
                threads_per_block,
                phases,
                ..
            } => {
                assert_eq!(*blocks, 4);
                assert_eq!(*threads_per_block, 8);
                assert_eq!(*phases, 1);
            }
            _ => unreachable!(),
        }

        // One span per (launch, phase); the deltas sum back to the launch
        // totals for every counter, barriers included.
        let mut summed = CountersSnapshot::default();
        let mut ended = CountersSnapshot::default();
        let mut spans = 0;
        for e in &events {
            match e {
                TraceEvent::PhaseSpan { delta, .. } => {
                    summed.add(delta);
                    spans += 1;
                }
                TraceEvent::LaunchEnd { iterations, totals, .. } => {
                    assert_eq!(*iterations, 1);
                    ended.add(totals);
                }
                _ => {}
            }
        }
        assert_eq!(spans, 3, "one span per launch of a 1-phase kernel");
        assert_eq!(summed, stats.snapshot());
        assert_eq!(ended, stats.snapshot());
        assert!(
            summed.gmem_accesses > 0,
            "a traced launch arms the cost model, and this kernel issues atomics"
        );
        assert!(matches!(events.last(), Some(TraceEvent::LaunchEnd { .. })));
    }

    #[test]
    fn profiler_only_launch_fills_the_phase_profile() {
        use morph_trace::PhaseProfiler;

        // A profiler with no tracer must still arm the tape and attribute
        // per-phase cycles — the introspection plane samples continuously
        // even when full event streaming is off.
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let profiler = Arc::new(PhaseProfiler::new());
        let scope = ProfilerScope::new(Arc::clone(&profiler), "dmr");
        gpu.set_observers(Observers {
            profiler: Some(scope.clone()),
            ..Observers::default()
        });
        let k = CountTo::default();
        // The host loop owns the iteration count (as `drive_recovering`
        // does): each launch lands in its host iteration's class.
        let mut stats = LaunchStats::default();
        for host_iteration in 0..3 {
            scope.set_host_iteration(host_iteration);
            stats.absorb(&gpu.launch(&k));
        }
        assert!(
            stats.gmem_accesses > 0,
            "a profiled launch arms the cost model"
        );
        assert!(!profiler.is_empty());
        let folded = profiler.to_folded();
        assert!(folded.contains("dmr;it0;phase0 "), "{folded}");
        assert!(folded.contains("dmr;it2-3;phase0 "), "{folded}");
        // Detaching the scope and launching again records nothing new.
        gpu.set_observers(Observers::default());
        let before = folded.len();
        gpu.launch(&k);
        assert_eq!(profiler.to_folded().len(), before);
    }

    #[test]
    fn launch_ids_increment_per_gpu() {
        use morph_trace::RingSink;

        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let sink = Arc::new(RingSink::new(64));
        gpu.set_observers(Observers {
            tracer: Tracer::new(sink.clone()),
            ..Observers::default()
        });
        launch_n(&gpu, &CountTo::default(), 2);
        let ids: Vec<u64> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::LaunchBegin { launch, .. } => Some(*launch),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn geometry_can_be_reconfigured() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        gpu.set_geometry(2, 16);
        assert_eq!(gpu.config().total_threads(), 32);
        let k = Histogram {
            data: &[1, 2, 3],
            bins: AtomicU32Slice::new(4, 0),
        };
        let stats = gpu.launch(&k);
        assert_eq!(k.bins.to_vec().iter().sum::<u32>(), 3);
        assert_eq!(stats.blocks, 2);
        assert_eq!(stats.threads_per_block, 16);
    }
}
