//! The host-side driver loop (paper Fig. 3).
//!
//! ```text
//! main():
//!     transfer initial graph            // CPU → GPU
//!     initialize_kernel()               // GPU
//!     do {
//!         refine_kernel()               // GPU
//!         transfer changed              // GPU → CPU
//!     } while changed
//!     transfer refined graph            // GPU → CPU
//! ```
//!
//! [`crate::run_morph`] runs that loop through `drive_recovering`:
//! launch, let the pipeline's [`Morph::step`] inspect device state (the
//! `changed` flag, allocator overflow, …), regrow through
//! [`Morph::regrow`], apply the adaptive-parallelism schedule, repeat.
//! Launches go through [`morph_gpu_sim::VirtualGpu::try_launch`]: failed
//! launches are retried a bounded number of times, allocator overflow
//! triggers capacity growth without losing the iteration, and a livelock
//! watchdog escalates through a rescue ladder (priority reshuffle → serial
//! fallback → structured error) when the algorithm stops making forward
//! progress — the paper's §7.3 observation that 2-phase conflict
//! resolution can livelock, turned into a runtime safety net.

use crate::adaptive::AdaptiveParallelism;
use crate::checkpoint::{CheckpointCtl, PayloadWriter};
use crate::pipeline::{register_lens, Morph};
use morph_gpu_sim::{
    CancelToken, FaultPlan, LaunchError, LaunchStats, LensHub, MetricsHub, Observers, VirtualGpu,
};
use morph_trace::{ProfilerScope, RecoveryKind, TraceEvent, Tracer};
use morph_tune::{AutoTuner, ConflictPolicy, Controller, TuneDecision, TuneInput};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the host decides after each kernel launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostAction {
    /// Launch another iteration.
    Continue,
    /// The algorithm converged (or failed); stop the loop.
    Stop,
    /// Device pools overflowed: grow to (at least) the given capacity and
    /// re-run the *same* iteration. The capacity is advisory — the driver
    /// hands it to [`Morph::regrow`] before the re-run.
    Regrow(usize),
}

/// Bounds on the recovery machinery of [`crate::run_morph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Consecutive failed/retried attempts of one iteration before the
    /// loop gives up with [`DriveError::Launch`].
    pub max_retries: u32,
    /// Total capacity regrows across the whole run before
    /// [`DriveError::RegrowsExhausted`] (guards against a growth loop that
    /// never satisfies the kernel).
    pub max_regrows: u32,
    /// Consecutive zero-progress iterations tolerated before the livelock
    /// watchdog escalates the rescue ladder.
    pub livelock_patience: u32,
    /// Total rescue escalations across the run before the watchdog stops
    /// re-arming and reports [`DriveError::Livelock`].
    pub max_rescues: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            max_regrows: 32,
            livelock_patience: 3,
            max_rescues: 8,
        }
    }
}

/// Per-run recovery configuration a pipeline entry point accepts: the
/// retry/regrow/livelock budgets plus what [`RecoveryOpts::arm`] attaches
/// to the [`VirtualGpu`] the pipeline builds — the fault-injection plan,
/// the barrier watchdog and the observers. Each observer field lands in
/// the like-named field of [`Observers`], which documents what the engine
/// does with it; every default is the detached handle and costs nothing.
#[derive(Clone, Default)]
pub struct RecoveryOpts {
    pub policy: RecoveryPolicy,
    /// Fault plan to attach before the first launch (tests, chaos runs).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Barrier watchdog timeout; stalled launches surface as
    /// [`morph_gpu_sim::LaunchError::BarrierStall`] and are retried.
    pub barrier_watchdog: Option<Duration>,
    /// Launch spans are emitted by the engine; [`crate::run_morph`] emits
    /// one `Recovery` event per retry/regrow/rescue decision and one
    /// `Tune` event per decision change through the same handle.
    pub tracer: Tracer,
    /// The engine's cost-model series land here, and so do
    /// [`crate::run_morph`]'s `morph_tune_*` series.
    pub metrics: MetricsHub,
    /// Cooperative cancellation token. [`crate::run_morph`] checks it at
    /// every host-action boundary (before each launch attempt) and unwinds
    /// with [`DriveError::Cancelled`] when raised — the owner of the other
    /// handle (a job scheduler, a signal handler) gets the device back with
    /// quiescent buffers. Cloning `RecoveryOpts` shares the token.
    pub cancel: CancelToken,
    /// Checkpoint control for this run. `None` (the default) means
    /// [`crate::run_morph`] never builds a snapshot payload.
    pub checkpoint: Option<CheckpointCtl>,
    /// Progress heartbeat shared with an external watchdog: each completed
    /// launch beats, and so does [`crate::run_morph`] at every host-action
    /// boundary.
    pub heartbeat: Option<Arc<AtomicU64>>,
    /// Phase-profiler scope. [`crate::run_morph`] sets its host iteration
    /// to the run's absolute iteration before each step, so samples land
    /// in the right iteration class, also after a resume.
    pub profiler: Option<ProfilerScope>,
    /// Autotuner handle (`morph-tune`). Detached, the paper's fixed §7.4
    /// schedules apply; enabled, [`crate::run_morph`] builds one
    /// [`Controller`] per run and follows its per-iteration
    /// [`TuneDecision`]s (geometry, conflict policy, compaction/reordering
    /// requests) instead.
    pub tuner: AutoTuner,
    /// morph-lens attribution hub. When enabled, [`crate::run_morph`]
    /// registers each pipeline's device structures on it.
    pub lens: LensHub,
}

impl RecoveryOpts {
    /// Arm a freshly built GPU with everything these options carry for
    /// it: the fault plan, the barrier watchdog and every observer
    /// (tracer, metrics hub, profiler scope, tuner, lens hub, heartbeat,
    /// cancellation token). The checkpoint control stays with
    /// [`crate::run_morph`].
    pub fn arm(&self, gpu: &mut VirtualGpu) {
        if let Some(plan) = &self.fault_plan {
            gpu.set_fault_plan(Arc::clone(plan));
        }
        gpu.set_barrier_watchdog(self.barrier_watchdog);
        gpu.set_observers(Observers {
            tracer: self.tracer.clone(),
            metrics: self.metrics.clone(),
            profiler: self.profiler.clone(),
            tuner: self.tuner.clone(),
            lens: self.lens.clone(),
            heartbeat: self.heartbeat.clone(),
            cancel: self.cancel.clone(),
        });
    }
}

/// The livelock-rescue ladder: each rung trades parallelism for guaranteed
/// progress. `Serial` (one block, one thread) cannot conflict with anyone,
/// so any algorithm whose serial execution terminates is livelock-free
/// under this ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RescueLevel {
    /// Normal execution.
    None,
    /// Ask the pipeline to perturb conflict priorities (see
    /// `ConflictTable::reshuffle_priorities`) so a pathological
    /// priority ordering stops repeating.
    Reshuffle,
    /// Degrade to a 1×1 grid: conflict-free by construction.
    Serial,
}

/// Everything a pipeline's [`Morph::step`] needs to know about the
/// attempt it is asked to run.
#[derive(Clone, Copy, Debug)]
pub struct StepCtx {
    /// Absolute host-loop iteration: a resumed run starts at the restored
    /// completed count. Advances only on [`HostAction::Continue`].
    pub iteration: u64,
    /// 0 for the first attempt of this iteration; >0 for retries after a
    /// launch failure — the step must repair any partial device state
    /// before relaunching.
    pub attempt: u32,
    /// Current rung of the rescue ladder. At [`RescueLevel::Serial`] the
    /// driver has already set a 1×1 geometry; the step must not
    /// override it.
    pub rescue: RescueLevel,
    /// The autotuner's decision for this attempt, when a tuner is
    /// attached ([`RecoveryOpts::tuner`]). Geometry and conflict policy
    /// are already actuated by the driver; the step honours the
    /// `compact` / `reorder` requests where its pipeline supports them.
    /// `None` when the tuner is detached — the fixed schedules apply.
    pub tune: Option<TuneDecision>,
}

/// What one recovering step produced.
#[derive(Debug)]
pub struct StepReport {
    /// Stats of the launch this step performed.
    pub stats: LaunchStats,
    /// The host decision.
    pub action: HostAction,
    /// Whether the iteration made forward progress (e.g. committed at
    /// least one activity). Feeds the livelock watchdog: `false` for
    /// [`RecoveryPolicy::livelock_patience`] consecutive iterations
    /// escalates the rescue ladder.
    pub progressed: bool,
}

/// Why a recovering drive gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriveError {
    /// An iteration kept failing after `attempts` tries; `error` is the
    /// last failure.
    Launch {
        iteration: u64,
        attempts: u32,
        error: LaunchError,
    },
    /// The pipeline asked for more than [`RecoveryPolicy::max_regrows`]
    /// capacity growths.
    RegrowsExhausted { iteration: u64, regrows: u32 },
    /// Zero-progress iterations persisted through the whole rescue ladder.
    Livelock { iteration: u64, rescues: u32 },
    /// The run's [`CancelToken`] was raised; the loop unwound at the next
    /// host-action boundary. Not a failure of the algorithm — the caller
    /// asked for the device back.
    Cancelled { iteration: u64 },
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::Launch {
                iteration,
                attempts,
                error,
            } => write!(
                f,
                "iteration {iteration} failed after {attempts} attempts: {error}"
            ),
            DriveError::RegrowsExhausted { iteration, regrows } => write!(
                f,
                "capacity regrowth budget exhausted at iteration {iteration} ({regrows} regrows)"
            ),
            DriveError::Livelock { iteration, rescues } => write!(
                f,
                "livelock at iteration {iteration}: no progress through {rescues} rescue escalations"
            ),
            DriveError::Cancelled { iteration } => {
                write!(f, "cancelled at iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for DriveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DriveError::Launch { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Summary of a completed recovering drive.
#[derive(Debug, Default, Clone)]
pub struct DriveOutcome {
    /// Accumulated launch statistics (successful attempts only). Its
    /// `iterations` counts only the iterations this run executed.
    pub stats: LaunchStats,
    /// Absolute host-loop iterations completed, including those a
    /// restored checkpoint had completed.
    pub iterations: u64,
    /// Attempts that were retries after a launch failure.
    pub retries: u32,
    /// Capacity regrows performed.
    pub regrows: u32,
    /// Rescue-ladder escalations (reshuffles + serial fallbacks).
    pub rescues: u32,
}

/// The host loop of Figure 3, fault-tolerant: bounded retry, overflow
/// regrow, and a livelock watchdog. [`crate::run_morph`] is its only
/// caller; `base` is the completed-iteration count a restored checkpoint
/// carried, and the loop's one counter starts there, so geometry, tuner
/// decisions, errors, events, markers, checkpoints and profiler classes
/// all see the absolute iteration.
///
/// Each attempt: grow pools through [`Morph::regrow`] if the previous
/// attempt asked for it, run [`Morph::step`] (one launch plus its host
/// work), then emit the step's markers, run the oracle gate and save a
/// due checkpoint. A step that returns `Err` died in its launch — the
/// driver retries the same iteration up to [`RecoveryPolicy::max_retries`]
/// times; the step sees `attempt > 0` and must restore any invariants a
/// half-run kernel may have broken.
///
/// Geometry precedence, highest first:
///
/// 1. **Rescue** — while the rescue ladder is at [`RescueLevel::Serial`]
///    the driver pins a 1×1 grid until progress resumes. A serial rescue
///    overrides *any* tuner decision: the watchdog saw zero progress, and
///    a controller that keeps reshaping the grid under it would mask the
///    livelock the ladder exists to break. The tuner resumes control only
///    once the rescue window closes (progress clears the rescue level).
/// 2. **Tuner** — with an enabled [`RecoveryOpts::tuner`], the
///    [`Controller`]'s latest [`TuneDecision`] sets the geometry: a
///    [`ConflictPolicy::SerialPin`] decision runs a 1×1 grid, otherwise
///    `blocks × decision.tpb`. The controller is seeded from the
///    `adaptive` schedule's bounds (`[initial_tpb, max_tpb]`), so tuned
///    runs start exactly where the fixed schedule starts.
/// 3. **Adaptive schedule** — the paper's fixed §7.4 doubling schedule.
///    With the tuner detached (the default) this path is byte-identical
///    to pre-tuner behaviour (regression-tested below).
/// 4. **Configured geometry** — neither given: the GPU's configured
///    `blocks × threads_per_block`.
pub(crate) fn drive_recovering<M: Morph>(
    gpu: &mut VirtualGpu,
    m: &mut M,
    adaptive: Option<AdaptiveParallelism>,
    recovery: &RecoveryOpts,
    base: u64,
) -> Result<DriveOutcome, DriveError> {
    let policy = &recovery.policy;
    let mut out = DriveOutcome::default();
    let tracer = gpu.observers().tracer.clone();
    let blocks = gpu.config().blocks;
    let normal_tpb = gpu.config().threads_per_block;
    let mut iteration = base;
    let mut attempt = 0u32;
    let mut regrow_to: Option<usize> = None;
    let mut stagnant = 0u32;
    let mut rescue = RescueLevel::None;
    // The oracle gate: the oracle runs after every recovery escalation
    // (the first step at a higher rescue level — the retried or relaid-out
    // state is where recycling and ownership bugs surface) and at Stop.
    #[cfg(feature = "morph-check")]
    let mut last_rescue = None;
    // Each checkpoint payload is presized to the previous one's length.
    let mut payload_len = 0;

    // Closed-loop autotuning: one controller per run, bounded by the
    // adaptive schedule's band (or pinned to the configured geometry when
    // no schedule is given). Detached tuner ⇒ everything below is None
    // and the fixed schedules run untouched.
    let mut tuner: Option<Controller> = gpu.observers().tuner.config().map(|cfg| {
        let (initial, max) = match adaptive {
            Some(a) => (a.initial_tpb, a.max_tpb),
            None => (normal_tpb, normal_tpb),
        };
        Controller::new(cfg, initial, max)
    });
    let mut decision: Option<TuneDecision> = tuner.as_ref().map(Controller::initial_decision);
    let tune_decisions = tuner.as_ref().and_then(|_| {
        gpu.observers().metrics.counter(
            "morph_tune_decisions_total",
            "Autotuner decision changes actuated by the recovering driver",
        )
    });
    let tune_tpb = tuner.as_ref().and_then(|_| {
        gpu.observers().metrics.gauge(
            "morph_tune_tpb",
            "Threads per block the autotuner chose for the next iteration",
        )
    });

    loop {
        // Host-action boundary: the loop is provably alive here, so an
        // attached watchdog heartbeat advances even when individual
        // launches are slow.
        gpu.observers().beat();
        // A raised cancellation token wins over everything else. No
        // launch is in flight here, so device buffers are quiescent and
        // the caller gets the GPU back immediately.
        if gpu.observers().cancel.is_cancelled() {
            // A cancellation landing while a regrow is pending would
            // otherwise leave the trace claiming a grown buffer that
            // never materialised, attributed to the overflowed launch's
            // geometry; and a rescue/adaptive schedule would leave its
            // geometry pinned on the device. Revoke the pending regrow
            // visibly and restore the configured geometry so whoever
            // reuses the device sees consistent accounting.
            let abandoned = regrow_to.take();
            gpu.set_geometry(blocks, normal_tpb);
            tracer.emit(|| TraceEvent::Recovery {
                iteration,
                attempt: attempt as u64,
                kind: RecoveryKind::Cancelled,
                capacity: abandoned.unwrap_or(0) as u64,
                detail: match abandoned {
                    Some(cap) => {
                        format!("cancellation token raised; abandoned pending regrow to {cap}")
                    }
                    None => "cancellation token raised".into(),
                },
            });
            return Err(DriveError::Cancelled { iteration });
        }
        // Geometry precedence: rescue > tuner > adaptive > configured
        // (see the function docs — a serial rescue must override any
        // tuner decision until the rescue window closes).
        if rescue == RescueLevel::Serial {
            gpu.set_geometry(1, 1);
        } else if let Some(d) = decision {
            if d.policy == ConflictPolicy::SerialPin {
                gpu.set_geometry(1, 1);
            } else {
                gpu.set_geometry(blocks, d.tpb);
            }
        } else if let Some(sched) = adaptive {
            gpu.set_geometry(blocks, sched.tpb_for_iteration(iteration));
        } else {
            gpu.set_geometry(blocks, normal_tpb);
        }

        if let Some(capacity) = regrow_to.take() {
            m.regrow(capacity);
            register_lens(gpu, m);
        }
        if let Some(p) = &gpu.observers().profiler {
            p.set_host_iteration(iteration);
        }
        let ctx = StepCtx {
            iteration,
            attempt,
            rescue,
            tune: decision,
        };
        let step_start = Instant::now();
        let report = match m.step(gpu, &ctx) {
            Ok(report) => report,
            Err(error) => {
                // A failed attempt is pure recovery overhead: the whole
                // wall time of the dead launch is retry-attributed.
                out.stats.retry_wall += step_start.elapsed();
                attempt += 1;
                out.retries += 1;
                // Device loss is never retried in-driver: the slot itself
                // is suspect, so the error surfaces immediately and the
                // serving layer decides whether to resume elsewhere.
                if error.is_device_loss() || attempt > policy.max_retries {
                    tracer.emit(|| TraceEvent::Recovery {
                        iteration,
                        attempt: attempt as u64,
                        kind: RecoveryKind::GiveUp,
                        capacity: 0,
                        detail: error.to_string(),
                    });
                    return Err(DriveError::Launch {
                        iteration,
                        attempts: attempt,
                        error,
                    });
                }
                tracer.emit(|| TraceEvent::Recovery {
                    iteration,
                    attempt: attempt as u64,
                    kind: RecoveryKind::Retry,
                    capacity: 0,
                    detail: error.to_string(),
                });
                continue;
            }
        };
        if tracer.enabled() {
            for event in m.markers(iteration, report.action) {
                tracer.emit(|| event);
            }
        }
        #[cfg(feature = "morph-check")]
        {
            let escalated = last_rescue.is_some_and(|prev| rescue > prev);
            last_rescue = Some(rescue);
            let done = report.action == HostAction::Stop;
            if escalated || done {
                if let Some(result) = m.oracle(done) {
                    crate::pipeline::report_oracle(&tracer, M::CHECK, result);
                }
            }
        }
        // Only a `Continue` step completed its iteration: a `Regrow` step
        // re-runs it and a `Stop` step ends the run.
        if let Some(ck) = &recovery.checkpoint {
            if report.action == HostAction::Continue && ck.due(iteration) {
                ck.save(&tracer, M::ALGO, iteration, || {
                    let mut w = PayloadWriter::with_capacity(payload_len);
                    w.u32(M::TAG);
                    w.u64(iteration + 1);
                    m.encode(&mut w);
                    let bytes = w.finish();
                    payload_len = bytes.len();
                    bytes
                });
            }
        }
        if ctx.attempt > 0 {
            // The successful re-run of a retried iteration would not have
            // happened on a clean run either: its launch time is part of
            // the recovery bill.
            out.stats.retry_wall += report.stats.wall;
        }

        out.stats.absorb(&report.stats);

        // Close the loop: feed the controller the counters the completed
        // launch measured and adopt its decision for the next attempt. A
        // decision *change* is observable (trace event + counter); the
        // tpb gauge tracks every decision so a scrape sees the live knob.
        if let Some(c) = tuner.as_mut() {
            let s = &report.stats;
            let input = TuneInput {
                aborts: s.aborts,
                commits: s.commits,
                warps: s.warps,
                active_warps: s.active_warps,
                divergent_warps: s.divergent_warps,
                gmem_accesses: s.gmem_accesses,
                gmem_transactions: s.gmem_transactions,
            };
            let next = c.decide(iteration, &input);
            if decision != Some(next) {
                if let Some(cnt) = &tune_decisions {
                    cnt.inc();
                }
                tracer.emit(|| TraceEvent::Tune {
                    iteration,
                    tpb: next.tpb as u64,
                    policy: next.policy.as_str().to_string(),
                    compact: next.compact,
                    reorder: next.reorder,
                    detail: format!(
                        "occupancy {:.3}, abort ratio {:.3}, divergence {:.3}, coalescing {:.2}",
                        input.occupancy(),
                        s.abort_ratio(),
                        input.divergence_ratio(),
                        input.coalescing_factor(),
                    ),
                });
            }
            if let Some(g) = &tune_tpb {
                g.set(next.tpb as i64);
            }
            decision = Some(next);
        }

        if report.progressed {
            stagnant = 0;
            // Progress under a rescue resolves the livelock; resume normal
            // execution (further stagnation restarts the ladder, bounded
            // by max_rescues across the whole run).
            rescue = RescueLevel::None;
        } else {
            stagnant += 1;
        }

        match report.action {
            HostAction::Stop => {
                out.iterations = iteration + 1;
                out.stats.iterations = out.iterations - base;
                return Ok(out);
            }
            HostAction::Continue => {
                iteration += 1;
                attempt = 0;
            }
            HostAction::Regrow(capacity) => {
                out.regrows += 1;
                if out.regrows > policy.max_regrows {
                    tracer.emit(|| TraceEvent::Recovery {
                        iteration,
                        attempt: attempt as u64,
                        kind: RecoveryKind::GiveUp,
                        capacity: capacity as u64,
                        detail: "regrow budget exhausted".into(),
                    });
                    return Err(DriveError::RegrowsExhausted {
                        iteration,
                        regrows: out.regrows,
                    });
                }
                tracer.emit(|| TraceEvent::Recovery {
                    iteration,
                    attempt: attempt as u64,
                    kind: RecoveryKind::Regrow,
                    capacity: capacity as u64,
                    detail: String::new(),
                });
                regrow_to = Some(capacity);
                // Same iteration runs again with the bigger pool; this is
                // recovery, not a retry, so the attempt budget is unspent.
            }
        }

        if stagnant >= policy.livelock_patience {
            stagnant = 0;
            out.rescues += 1;
            if out.rescues > policy.max_rescues {
                tracer.emit(|| TraceEvent::Recovery {
                    iteration,
                    attempt: attempt as u64,
                    kind: RecoveryKind::GiveUp,
                    capacity: 0,
                    detail: "rescue budget exhausted".into(),
                });
                return Err(DriveError::Livelock {
                    iteration,
                    rescues: out.rescues,
                });
            }
            rescue = match rescue {
                RescueLevel::None => RescueLevel::Reshuffle,
                RescueLevel::Reshuffle | RescueLevel::Serial => RescueLevel::Serial,
            };
            let kind = match rescue {
                RescueLevel::Reshuffle => RecoveryKind::Reshuffle,
                _ => RecoveryKind::SerialPin,
            };
            tracer.emit(move || TraceEvent::Recovery {
                iteration,
                attempt: attempt as u64,
                kind,
                capacity: 0,
                detail: String::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::PayloadReader;
    use morph_gpu_sim::{FaultPlan, GpuConfig, Kernel, ThreadCtx};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    /// A test pipeline on [`GpuConfig::small`]: `step` runs each attempt
    /// and `regrow` sees each granted capacity.
    struct Steps<F, G> {
        step: F,
        regrow: G,
    }

    impl<F, G> Morph for Steps<F, G>
    where
        F: FnMut(&mut VirtualGpu, &StepCtx) -> Result<StepReport, LaunchError>,
        G: FnMut(usize),
    {
        const ALGO: &'static str = "test";
        const TAG: u32 = 0;
        const CHECK: &'static str = "oracle.test";
        type Snapshot = ();

        fn config(&mut self) -> (GpuConfig, Option<AdaptiveParallelism>) {
            (GpuConfig::small(), None)
        }
        fn lens_regions(&self) -> Vec<(&'static str, usize, usize)> {
            Vec::new()
        }
        fn regrow(&mut self, capacity: usize) {
            (self.regrow)(capacity)
        }
        fn step(&mut self, gpu: &mut VirtualGpu, ctx: &StepCtx) -> Result<StepReport, LaunchError> {
            (self.step)(gpu, ctx)
        }
        fn markers(&self, _: u64, _: HostAction) -> Vec<TraceEvent> {
            Vec::new()
        }
        fn encode(&self, _: &mut PayloadWriter) {}
        fn decode(&self, _: &mut PayloadReader<'_>) -> Option<()> {
            Some(())
        }
        fn restore(&mut self, _: (), _: u64) {}
    }

    /// Drive `step` on `gpu` under `policy`, from iteration 0.
    fn drive(
        gpu: &mut VirtualGpu,
        adaptive: Option<AdaptiveParallelism>,
        policy: &RecoveryPolicy,
        step: impl FnMut(&mut VirtualGpu, &StepCtx) -> Result<StepReport, LaunchError>,
    ) -> Result<DriveOutcome, DriveError> {
        let recovery = RecoveryOpts {
            policy: *policy,
            ..RecoveryOpts::default()
        };
        drive_recovering(
            gpu,
            &mut Steps {
                step,
                regrow: |_| {},
            },
            adaptive,
            &recovery,
            0,
        )
    }

    /// A toy morph loop: each iteration "refines" by adding tid to a sum;
    /// the kernel raises `changed` until the sum crosses a threshold.
    struct ToyKernel {
        sum: AtomicU64,
        changed: AtomicBool,
        threshold: u64,
    }

    impl Kernel for ToyKernel {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
            if ctx.tid == 0 {
                let s = ctx.atomic_add_u64(&self.sum, 10) + 10;
                if s < self.threshold {
                    self.changed.store(true, Ordering::Release);
                }
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn recovering_drive_runs_the_plain_loop() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 55,
        };
        let out = drive(&mut gpu, None, &RecoveryPolicy::default(), |gpu, _ctx| {
            let stats = gpu.try_launch(&k)?;
            let changed = k.changed.swap(false, Ordering::AcqRel);
            Ok(StepReport {
                stats,
                action: if changed {
                    HostAction::Continue
                } else {
                    HostAction::Stop
                },
                progressed: true,
            })
        })
        .expect("no faults");
        // 10,20,30,40,50 set changed; 60 does not → 6 iterations.
        assert_eq!(out.iterations, 6);
        assert_eq!(out.retries, 0);
        assert_eq!(k.sum.load(Ordering::Acquire), 60);
        // Stats accumulate across launches: one counted atomic each.
        assert_eq!(out.stats.iterations, 6);
        assert_eq!(out.stats.atomics, 6);
    }

    #[test]
    fn recovering_drive_retries_injected_panics() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        // Launch 1 (= first attempt of iteration 1) dies; the retry runs
        // clean because the fault fires once.
        gpu.set_fault_plan(Arc::new(FaultPlan::new().with_kernel_panic(1, 0, 0, 0)));
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 35,
        };
        let mut repairs = 0u32;
        let out = drive(&mut gpu, None, &RecoveryPolicy::default(), |gpu, ctx| {
            if ctx.attempt > 0 {
                repairs += 1;
            }
            let stats = gpu.try_launch(&k)?;
            let changed = k.changed.swap(false, Ordering::AcqRel);
            Ok(StepReport {
                stats,
                action: if changed {
                    HostAction::Continue
                } else {
                    HostAction::Stop
                },
                progressed: true,
            })
        })
        .expect("one retry must absorb one injected panic");
        assert_eq!(out.retries, 1);
        assert_eq!(repairs, 1, "retry attempt must be visible to the callback");
        assert_eq!(out.iterations, 4);
        // ToyKernel's increment is idempotent per *successful* launch, and
        // the failed launch died before thread 0 ran (fault at block 0,
        // thread 0, phase 0) — the result matches a fault-free run.
        assert_eq!(k.sum.load(Ordering::Acquire), 40);
    }

    #[test]
    fn recovering_drive_gives_up_after_max_retries() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let plan = FaultPlan::new()
            .with_kernel_panic(0, 0, 0, 0)
            .with_kernel_panic(1, 0, 0, 0)
            .with_kernel_panic(2, 0, 0, 0);
        gpu.set_fault_plan(Arc::new(plan));
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 0,
        };
        let policy = RecoveryPolicy {
            max_retries: 2,
            ..RecoveryPolicy::default()
        };
        let err = drive(&mut gpu, None, &policy, |gpu, _ctx| {
            let stats = gpu.try_launch(&k)?;
            Ok(StepReport {
                stats,
                action: HostAction::Stop,
                progressed: true,
            })
        })
        .expect_err("three consecutive faults exceed two retries");
        match err {
            DriveError::Launch {
                iteration,
                attempts,
                ..
            } => {
                assert_eq!(iteration, 0);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected Launch error, got {other:?}"),
        }
    }

    #[test]
    fn device_loss_is_never_retried_in_driver() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        // The loss fires once, so an in-driver retry *would* succeed —
        // which is exactly why the driver must not take it: the slot is
        // suspect and the serving layer owns the reschedule decision.
        gpu.set_fault_plan(Arc::new(FaultPlan::new().with_device_loss(0, 0, 0)));
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 0,
        };
        let err = drive(
            &mut gpu,
            None,
            &RecoveryPolicy {
                max_retries: 5,
                ..RecoveryPolicy::default()
            },
            |gpu, _ctx| {
                let stats = gpu.try_launch(&k)?;
                Ok(StepReport {
                    stats,
                    action: HostAction::Stop,
                    progressed: true,
                })
            },
        )
        .expect_err("device loss must surface despite retry budget");
        match err {
            DriveError::Launch {
                attempts, error, ..
            } => {
                assert_eq!(attempts, 1, "no second attempt on a lost device");
                assert!(error.is_device_loss());
            }
            other => panic!("expected Launch error, got {other:?}"),
        }
    }

    #[test]
    fn regrow_reruns_the_same_iteration() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 0,
        };
        let capacity = Cell::new(4usize);
        let mut log = Vec::new();
        let mut m = Steps {
            step: |gpu: &mut VirtualGpu, ctx: &StepCtx| {
                log.push((ctx.iteration, capacity.get()));
                let stats = gpu.try_launch(&k)?;
                let action = if ctx.iteration == 1 && capacity.get() < 16 {
                    HostAction::Regrow(16)
                } else if ctx.iteration < 2 {
                    HostAction::Continue
                } else {
                    HostAction::Stop
                };
                Ok(StepReport {
                    stats,
                    action,
                    progressed: true,
                })
            },
            regrow: |cap| capacity.set(cap),
        };
        let out = drive_recovering(&mut gpu, &mut m, None, &RecoveryOpts::default(), 0)
            .expect("regrow path");
        assert_eq!(out.regrows, 1);
        assert_eq!(out.iterations, 3);
        // Iteration 1 ran twice: once overflowing at capacity 4, once
        // regrown to 16.
        assert_eq!(log, vec![(0, 4), (1, 4), (1, 16), (2, 16)]);
    }

    #[test]
    fn regrow_budget_is_bounded() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 0,
        };
        let policy = RecoveryPolicy {
            max_regrows: 3,
            ..RecoveryPolicy::default()
        };
        let err = drive(&mut gpu, None, &policy, |gpu, _ctx| {
            let stats = gpu.try_launch(&k)?;
            Ok(StepReport {
                stats,
                action: HostAction::Regrow(usize::MAX),
                progressed: true,
            })
        })
        .expect_err("unbounded growth demand must be cut off");
        assert!(matches!(
            err,
            DriveError::RegrowsExhausted { regrows: 4, .. }
        ));
    }

    #[test]
    fn livelock_watchdog_escalates_then_errors() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 0,
        };
        let policy = RecoveryPolicy {
            livelock_patience: 2,
            max_rescues: 2,
            ..RecoveryPolicy::default()
        };
        let mut ladder = Vec::new();
        let err = drive(&mut gpu, None, &policy, |gpu, ctx| {
            ladder.push(ctx.rescue);
            let stats = gpu.try_launch(&k)?;
            Ok(StepReport {
                stats,
                action: HostAction::Continue,
                progressed: false, // never makes progress
            })
        })
        .expect_err("permanent stagnation must not loop forever");
        assert!(matches!(err, DriveError::Livelock { rescues: 3, .. }));
        // 2 stagnant iterations at each rung: None,None → Reshuffle,
        // Reshuffle → Serial, Serial → error.
        assert_eq!(
            ladder,
            vec![
                RescueLevel::None,
                RescueLevel::None,
                RescueLevel::Reshuffle,
                RescueLevel::Reshuffle,
                RescueLevel::Serial,
                RescueLevel::Serial,
            ]
        );
    }

    #[test]
    fn serial_rescue_pins_a_1x1_grid_until_progress() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 0,
        };
        let policy = RecoveryPolicy {
            livelock_patience: 1,
            max_rescues: 8,
            ..RecoveryPolicy::default()
        };
        let mut geometries = Vec::new();
        let out = drive(&mut gpu, None, &policy, |gpu, ctx| {
            let stats = gpu.try_launch(&k)?;
            geometries.push((stats.blocks, stats.threads_per_block, ctx.rescue));
            // Progress only once the driver has degraded to serial.
            let serial = ctx.rescue == RescueLevel::Serial;
            Ok(StepReport {
                stats,
                action: if serial {
                    HostAction::Stop
                } else {
                    HostAction::Continue
                },
                progressed: serial,
            })
        })
        .expect("serial fallback must resolve the livelock");
        assert_eq!(out.rescues, 2);
        let (b, t, rescue) = *geometries.last().unwrap();
        assert_eq!((b, t), (1, 1), "serial rescue must pin a 1×1 grid");
        assert_eq!(rescue, RescueLevel::Serial);
        // Non-serial launches kept the configured geometry.
        assert!(geometries
            .iter()
            .filter(|(_, _, r)| *r != RescueLevel::Serial)
            .all(|&(b, t, _)| (b, t) == (4, 8)));
    }

    #[test]
    fn retries_emit_recovery_events_and_bill_retry_wall() {
        use morph_trace::{RecoveryKind, RingSink, TraceEvent, Tracer};

        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let sink = Arc::new(RingSink::new(256));
        let opts = RecoveryOpts {
            fault_plan: Some(Arc::new(FaultPlan::new().with_kernel_panic(1, 0, 0, 0))),
            tracer: Tracer::new(sink.clone()),
            ..RecoveryOpts::default()
        };
        opts.arm(&mut gpu);
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 35,
        };
        let out = drive(&mut gpu, None, &opts.policy, |gpu, _ctx| {
            let stats = gpu.try_launch(&k)?;
            let changed = k.changed.swap(false, Ordering::AcqRel);
            Ok(StepReport {
                stats,
                action: if changed {
                    HostAction::Continue
                } else {
                    HostAction::Stop
                },
                progressed: true,
            })
        })
        .expect("one retry absorbs the injected panic");
        assert_eq!(out.retries, 1);
        assert!(
            out.stats.retry_wall > Duration::ZERO,
            "failed attempt + re-run must be billed to retry_wall"
        );
        assert!(
            out.stats.retry_wall <= out.stats.wall + out.stats.retry_wall,
            "sanity"
        );
        let recoveries: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Recovery {
                    iteration,
                    attempt,
                    kind,
                    ..
                } => Some((iteration, attempt, kind)),
                _ => None,
            })
            .collect();
        assert_eq!(recoveries, vec![(1, 1, RecoveryKind::Retry)]);
        // The engine's launch spans ride the same armed tracer.
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::LaunchBegin { .. })));
    }

    #[test]
    fn rescue_ladder_emits_reshuffle_then_serial_pin() {
        use morph_trace::{RecoveryKind, RingSink, TraceEvent, Tracer};

        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let sink = Arc::new(RingSink::new(256));
        gpu.set_observers(Observers {
            tracer: Tracer::new(sink.clone()),
            ..Observers::default()
        });
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 0,
        };
        let policy = RecoveryPolicy {
            livelock_patience: 1,
            max_rescues: 2,
            ..RecoveryPolicy::default()
        };
        let _ = drive(&mut gpu, None, &policy, |gpu, _ctx| {
            let stats = gpu.try_launch(&k)?;
            Ok(StepReport {
                stats,
                action: HostAction::Continue,
                progressed: false,
            })
        })
        .expect_err("permanent stagnation");
        let kinds: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Recovery { kind, .. } => Some(kind),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                RecoveryKind::Reshuffle,
                RecoveryKind::SerialPin,
                RecoveryKind::GiveUp,
            ]
        );
    }

    #[test]
    fn cancellation_unwinds_at_the_next_host_boundary() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let token = CancelToken::new();
        let opts = RecoveryOpts {
            cancel: token.clone(),
            ..RecoveryOpts::default()
        };
        opts.arm(&mut gpu);
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 0,
        };
        let mut steps = 0u64;
        let err = drive(&mut gpu, None, &opts.policy, |gpu, _ctx| {
            steps += 1;
            if steps == 3 {
                // Raised mid-step: the driver must still finish this step
                // and only unwind at the next host-action boundary.
                token.cancel();
            }
            let stats = gpu.try_launch(&k)?;
            Ok(StepReport {
                stats,
                action: HostAction::Continue,
                progressed: true,
            })
        })
        .expect_err("cancellation must surface as a DriveError");
        assert_eq!(steps, 3, "no launch after the token was raised");
        match err {
            DriveError::Cancelled { iteration } => assert_eq!(iteration, 3),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_before_the_first_launch_runs_nothing() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let token = CancelToken::new();
        token.cancel();
        gpu.set_observers(Observers {
            cancel: token,
            ..Observers::default()
        });
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 0,
        };
        let err = drive(&mut gpu, None, &RecoveryPolicy::default(), |gpu, _ctx| {
            let stats = gpu.try_launch(&k)?;
            Ok(StepReport {
                stats,
                action: HostAction::Stop,
                progressed: true,
            })
        })
        .expect_err("pre-cancelled token must stop the loop before launch 0");
        assert_eq!(err, DriveError::Cancelled { iteration: 0 });
        assert_eq!(k.sum.load(Ordering::Acquire), 0, "no kernel may have run");
    }

    #[test]
    fn cancellation_emits_a_recovery_event() {
        use morph_trace::{RecoveryKind, RingSink, TraceEvent, Tracer};

        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let sink = Arc::new(RingSink::new(64));
        let token = CancelToken::new();
        token.cancel();
        gpu.set_observers(Observers {
            tracer: Tracer::new(sink.clone()),
            cancel: token,
            ..Observers::default()
        });
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 0,
        };
        let _ = drive(&mut gpu, None, &RecoveryPolicy::default(), |gpu, _ctx| {
            let stats = gpu.try_launch(&k)?;
            Ok(StepReport {
                stats,
                action: HostAction::Stop,
                progressed: true,
            })
        });
        assert!(sink.events().iter().any(|e| matches!(
            e,
            TraceEvent::Recovery {
                kind: RecoveryKind::Cancelled,
                ..
            }
        )));
    }

    #[test]
    fn cancellation_during_pending_regrow_revokes_it_and_restores_geometry() {
        use morph_trace::{RecoveryKind, RingSink, TraceEvent, Tracer};

        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let sink = Arc::new(RingSink::new(64));
        let token = CancelToken::new();
        let opts = RecoveryOpts {
            tracer: Tracer::new(sink.clone()),
            cancel: token.clone(),
            ..RecoveryOpts::default()
        };
        opts.arm(&mut gpu);
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 0,
        };
        let err = drive(&mut gpu, None, &opts.policy, |gpu, _ctx| {
            let stats = gpu.try_launch(&k)?;
            // The step overflows and asks for growth — then the owner of
            // the other token handle (a watchdog) cancels mid-regrow.
            token.cancel();
            Ok(StepReport {
                stats,
                action: HostAction::Regrow(512),
                progressed: true,
            })
        })
        .expect_err("cancellation during regrow must unwind");
        assert_eq!(err, DriveError::Cancelled { iteration: 0 });
        // Regression: the granted-but-never-executed regrow is revoked in
        // the trace (the Cancelled event carries the abandoned capacity),
        // so reports cannot attribute a grown buffer to the old launch.
        let recoveries: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Recovery {
                    kind,
                    capacity,
                    detail,
                    ..
                } => Some((kind, capacity, detail)),
                _ => None,
            })
            .collect();
        assert_eq!(recoveries.len(), 2, "{recoveries:?}");
        assert_eq!(recoveries[0].0, RecoveryKind::Regrow);
        assert_eq!(recoveries[0].1, 512);
        assert_eq!(recoveries[1].0, RecoveryKind::Cancelled);
        assert_eq!(recoveries[1].1, 512);
        assert!(
            recoveries[1].2.contains("abandoned pending regrow to 512"),
            "{:?}",
            recoveries[1].2
        );
        // And the device geometry is back to its configured value, not
        // whatever the cancelled run last set.
        assert_eq!(
            (gpu.config().blocks, gpu.config().threads_per_block),
            (4, 8),
            "cancelled run must not leave stale geometry on the device"
        );
    }

    #[test]
    fn cancellation_under_serial_rescue_restores_geometry() {
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let token = CancelToken::new();
        gpu.set_observers(Observers {
            cancel: token.clone(),
            ..Observers::default()
        });
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 0,
        };
        let policy = RecoveryPolicy {
            livelock_patience: 1,
            max_rescues: 8,
            ..RecoveryPolicy::default()
        };
        let _ = drive(&mut gpu, None, &policy, |gpu, ctx| {
            if ctx.rescue == RescueLevel::Serial {
                token.cancel();
            }
            let stats = gpu.try_launch(&k)?;
            Ok(StepReport {
                stats,
                action: HostAction::Continue,
                progressed: false,
            })
        })
        .expect_err("cancelled under rescue");
        assert_eq!(
            (gpu.config().blocks, gpu.config().threads_per_block),
            (4, 8),
            "serial 1×1 pin must not outlive the cancelled run"
        );
    }

    #[test]
    fn heartbeat_advances_at_host_action_boundaries() {
        use std::sync::atomic::AtomicU64 as Beat;

        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let beat = Arc::new(Beat::new(0));
        let opts = RecoveryOpts {
            heartbeat: Some(beat.clone()),
            ..RecoveryOpts::default()
        };
        opts.arm(&mut gpu);
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 35,
        };
        let out = drive(&mut gpu, None, &opts.policy, |gpu, _ctx| {
            let stats = gpu.try_launch(&k)?;
            let changed = k.changed.swap(false, Ordering::AcqRel);
            Ok(StepReport {
                stats,
                action: if changed {
                    HostAction::Continue
                } else {
                    HostAction::Stop
                },
                progressed: true,
            })
        })
        .expect("clean run");
        // One boundary beat per step plus one engine beat per completed
        // launch: 4 iterations ⇒ exactly 8.
        assert_eq!(out.iterations, 4);
        assert_eq!(beat.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn checkpoint_opts_default_to_disabled() {
        let opts = RecoveryOpts::default();
        assert!(opts.checkpoint.is_none(), "zero-cost default");
        assert!(opts.heartbeat.is_none());
    }

    #[test]
    fn detached_tuner_keeps_the_fixed_schedule_byte_identical() {
        // The §7.4 regression: with the tuner detached (the default),
        // the driver's geometry decisions must be exactly the fixed
        // adaptive schedule — iteration for iteration.
        let sched = AdaptiveParallelism {
            initial_tpb: 2,
            growth_iters: 2,
            max_tpb: 64,
        };
        let run = |opts: &RecoveryOpts| {
            let mut gpu = VirtualGpu::new(GpuConfig::small());
            opts.arm(&mut gpu);
            let k = ToyKernel {
                sum: AtomicU64::new(0),
                changed: AtomicBool::new(false),
                threshold: 0,
            };
            let mut seen = Vec::new();
            drive(&mut gpu, Some(sched), &opts.policy, |gpu, ctx| {
                assert!(
                    ctx.tune.is_none(),
                    "detached tuner must surface no decision"
                );
                let stats = gpu.try_launch(&k)?;
                seen.push(stats.threads_per_block);
                Ok(StepReport {
                    stats,
                    action: if ctx.iteration < 3 {
                        HostAction::Continue
                    } else {
                        HostAction::Stop
                    },
                    progressed: true,
                })
            })
            .expect("clean run");
            seen
        };
        let seen = run(&RecoveryOpts::default());
        assert_eq!(seen, vec![2, 4, 8, 8], "the paper's doubling schedule");
        // And the schedule the plain (pre-tuner) driver would produce is
        // the same sequence: the fixed path is untouched.
        assert_eq!(
            seen,
            (0..4)
                .map(|i| sched.tpb_for_iteration(i))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn enabled_tuner_overrides_the_fixed_schedule() {
        use morph_tune::TuneConfig;

        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let opts = RecoveryOpts {
            tuner: AutoTuner::enabled(TuneConfig::default()),
            ..RecoveryOpts::default()
        };
        opts.arm(&mut gpu);
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 0,
        };
        let sched = AdaptiveParallelism {
            initial_tpb: 2,
            growth_iters: 2,
            max_tpb: 64,
        };
        let mut seen = Vec::new();
        drive(&mut gpu, Some(sched), &opts.policy, |gpu, ctx| {
            let d = ctx.tune.expect("enabled tuner must surface a decision");
            let stats = gpu.try_launch(&k)?;
            seen.push((stats.threads_per_block, d.tpb));
            Ok(StepReport {
                stats,
                action: if ctx.iteration < 3 {
                    HostAction::Continue
                } else {
                    HostAction::Stop
                },
                progressed: true,
            })
        })
        .expect("clean run");
        // ToyKernel leaves almost every warp idle, so the controller never
        // grows: the doubling schedule is replaced by a held floor.
        assert_eq!(seen.len(), 4);
        for (ran_tpb, decided_tpb) in seen {
            assert_eq!(ran_tpb, decided_tpb, "driver must actuate the decision");
            assert_eq!(decided_tpb, 2, "idle kernel must hold the tpb floor");
        }
    }

    #[test]
    fn serial_rescue_overrides_any_tuner_decision() {
        use morph_tune::TuneConfig;

        // Satellite regression: even with an enabled tuner whose decision
        // asks for a wide grid, a serial rescue pins 1×1 until the rescue
        // window closes — the watchdog outranks the controller.
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let opts = RecoveryOpts {
            tuner: AutoTuner::enabled(TuneConfig::default()),
            policy: RecoveryPolicy {
                livelock_patience: 1,
                max_rescues: 8,
                ..RecoveryPolicy::default()
            },
            ..RecoveryOpts::default()
        };
        opts.arm(&mut gpu);
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 0,
        };
        let mut geometries = Vec::new();
        let out = drive(&mut gpu, None, &opts.policy, |gpu, ctx| {
            let stats = gpu.try_launch(&k)?;
            geometries.push((stats.blocks, stats.threads_per_block, ctx.rescue, ctx.tune));
            let serial = ctx.rescue == RescueLevel::Serial;
            Ok(StepReport {
                stats,
                action: if serial {
                    HostAction::Stop
                } else {
                    HostAction::Continue
                },
                progressed: serial,
            })
        })
        .expect("serial rescue resolves the stagnation");
        assert_eq!(out.rescues, 2);
        let (b, t, rescue, tune) = geometries.last().copied().unwrap();
        assert_eq!(rescue, RescueLevel::Serial);
        assert_eq!((b, t), (1, 1), "rescue wins over the tuner's geometry");
        // The tuner still surfaced its decision (the pipeline may honour
        // compact/reorder) but its geometry was not actuated.
        assert!(tune.is_some());
    }

    #[test]
    fn tuner_serial_pin_runs_a_1x1_grid_and_emits_tune_events() {
        use morph_trace::{RingSink, TraceEvent, Tracer};
        use morph_tune::TuneConfig;

        // A kernel that aborts far more than it commits: thread 0 records
        // 9 aborts and 1 commit per launch, pushing the cumulative abort
        // ratio over abort_high so the controller pins a serial window.
        struct AbortStorm;
        impl Kernel for AbortStorm {
            fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
                if ctx.tid == 0 {
                    for _ in 0..9 {
                        ctx.abort();
                    }
                    ctx.commit();
                    true
                } else {
                    false
                }
            }
        }

        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let sink = Arc::new(RingSink::new(256));
        let opts = RecoveryOpts {
            tuner: AutoTuner::enabled(TuneConfig::default()),
            tracer: Tracer::new(sink.clone()),
            ..RecoveryOpts::default()
        };
        opts.arm(&mut gpu);
        let mut pinned_geometries = Vec::new();
        drive(&mut gpu, None, &opts.policy, |gpu, ctx| {
            let stats = gpu.try_launch(&AbortStorm)?;
            if ctx
                .tune
                .is_some_and(|d| d.policy == ConflictPolicy::SerialPin)
            {
                pinned_geometries.push((stats.blocks, stats.threads_per_block));
            }
            Ok(StepReport {
                stats,
                action: if ctx.iteration < 4 {
                    HostAction::Continue
                } else {
                    HostAction::Stop
                },
                progressed: true,
            })
        })
        .expect("clean run");
        assert!(
            !pinned_geometries.is_empty(),
            "a 90% abort share must pin a serial window"
        );
        assert!(
            pinned_geometries.iter().all(|&g| g == (1, 1)),
            "SerialPin decisions must run 1×1: {pinned_geometries:?}"
        );
        let tunes: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Tune { policy, .. } => Some(policy),
                _ => None,
            })
            .collect();
        assert!(
            tunes.iter().any(|p| p == "serial_pin"),
            "decision change must emit a Tune event: {tunes:?}"
        );
    }

    #[test]
    fn a_resumed_drive_counts_from_its_base() {
        // A run restored after 2 completed iterations: the schedule, the
        // outcome and errors all read absolute iterations; the launch
        // stats count only this run's launches.
        let sched = AdaptiveParallelism {
            initial_tpb: 2,
            growth_iters: 3,
            max_tpb: 64,
        };
        let k = ToyKernel {
            sum: AtomicU64::new(0),
            changed: AtomicBool::new(false),
            threshold: 0,
        };
        let mut seen = Vec::new();
        let mut m = Steps {
            step: |gpu: &mut VirtualGpu, ctx: &StepCtx| {
                let stats = gpu.try_launch(&k)?;
                seen.push((ctx.iteration, stats.threads_per_block));
                Ok(StepReport {
                    stats,
                    action: if ctx.iteration < 4 {
                        HostAction::Continue
                    } else {
                        HostAction::Stop
                    },
                    progressed: true,
                })
            },
            regrow: |_| {},
        };
        let opts = RecoveryOpts::default();
        let mut gpu = VirtualGpu::new(GpuConfig::small());
        let out = drive_recovering(&mut gpu, &mut m, Some(sched), &opts, 2).expect("clean run");
        assert_eq!((out.iterations, out.stats.iterations), (5, 3));

        let mut gpu = VirtualGpu::new(GpuConfig::small());
        gpu.set_fault_plan(Arc::new(FaultPlan::new().with_kernel_panic(1, 0, 0, 0)));
        let killed = RecoveryOpts {
            policy: RecoveryPolicy {
                max_retries: 0,
                ..RecoveryPolicy::default()
            },
            ..RecoveryOpts::default()
        };
        let err = drive_recovering(&mut gpu, &mut m, Some(sched), &killed, 2)
            .expect_err("no retry budget");
        assert!(
            matches!(err, DriveError::Launch { iteration: 3, .. }),
            "{err}"
        );
        assert_eq!(seen, vec![(2, 8), (3, 16), (4, 16), (2, 8)]);
    }
}
