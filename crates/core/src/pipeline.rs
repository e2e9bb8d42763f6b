//! The pipeline contract (DESIGN.md §7 "The pipeline contract").
//!
//! Each of the paper's four morph algorithms is the same Fig. 3 host
//! do–while around a different kernel. A pipeline implements [`Morph`]:
//! only what differs between pipelines. [`run_morph`] owns the rest, once:
//! build and arm the GPU, register lens regions, resume from a checkpoint,
//! drive the recovering loop, emit the algorithm markers, run the
//! end-state oracle and save checkpoints.

use crate::adaptive::AdaptiveParallelism;
use crate::checkpoint::{PayloadReader, PayloadWriter};
use crate::runtime::{
    drive_recovering, DriveError, DriveOutcome, HostAction, RecoveryOpts, StepCtx, StepReport,
};
use morph_gpu_sim::{GpuConfig, LaunchError, VirtualGpu};
use morph_trace::TraceEvent;

/// The hooks one morph pipeline supplies to [`run_morph`].
pub trait Morph {
    /// Pipeline name: the checkpoint store's algo key and the `algo` of
    /// the pipeline's markers.
    const ALGO: &'static str;
    /// Checkpoint payload schema tag.
    const TAG: u32;
    /// Name of the end-state oracle's `sanitizer` trace events.
    const CHECK: &'static str;
    /// A decoded, validated checkpoint body not yet applied to the run.
    type Snapshot;

    /// Launch geometry and §7.4 schedule. Called once, after any
    /// checkpoint was restored, so it may size per-launch state from the
    /// restored input. Without a schedule an attached autotuner's tpb band
    /// collapses to the configured value: it acts only inside the loop,
    /// pinning serial windows on abort storms.
    fn config(&mut self) -> (GpuConfig, Option<AdaptiveParallelism>);

    /// Device structures as `(name, base, len)` logical address windows
    /// for morph-lens. Registered only on an enabled hub, and again after
    /// every [`regrow`](Self::regrow).
    fn lens_regions(&self) -> Vec<(&'static str, usize, usize)>;

    /// Grow device pools to at least `capacity` before the step that
    /// re-runs an overflowed iteration ([`HostAction::Regrow`]).
    fn regrow(&mut self, _capacity: usize) {}

    /// One launch attempt plus the host work around it. `ctx.iteration`
    /// is absolute: a resumed run starts at the restored completed count.
    fn step(&mut self, gpu: &mut VirtualGpu, ctx: &StepCtx) -> Result<StepReport, LaunchError>;

    /// Algorithm-level trace events for the step just run, at absolute
    /// `iteration`. Called only when a tracer is attached.
    fn markers(&self, iteration: u64, action: HostAction) -> Vec<TraceEvent>;

    /// End-state oracle verdict; `done` is true at [`HostAction::Stop`].
    /// `None` means this build carries no oracle for the pipeline.
    fn oracle(&mut self, _done: bool) -> Option<Result<(), String>> {
        None
    }

    /// Write the checkpoint body (the runner writes the tag and the
    /// completed-iteration count before it).
    fn encode(&self, w: &mut PayloadWriter);

    /// Read and validate a checkpoint body without touching the run.
    fn decode(&self, r: &mut PayloadReader<'_>) -> Option<Self::Snapshot>;

    /// Apply a snapshot that `completed` iterations produced.
    fn restore(&mut self, snapshot: Self::Snapshot, completed: u64);
}

/// An `AlgoIteration` marker of pipeline `M`, for [`Morph::markers`].
pub fn marker<M: Morph>(iteration: u64, metric: &str, value: f64) -> TraceEvent {
    TraceEvent::AlgoIteration {
        algo: M::ALGO.into(),
        iteration,
        metric: metric.into(),
        value,
    }
}

/// Run `m` to completion under `recovery`: resume from a stored
/// checkpoint if there is one, build and arm the GPU, register lens
/// regions, then drive the recovering loop from the restored iteration.
/// The outcome's `iterations` is absolute; its `stats.iterations` counts
/// only this run's iterations.
pub fn run_morph<M: Morph>(m: &mut M, recovery: &RecoveryOpts) -> Result<DriveOutcome, DriveError> {
    let base = recovery
        .checkpoint
        .as_ref()
        .and_then(|ck| ck.resume(M::ALGO))
        .and_then(|saved| resume(m, &saved.payload))
        .unwrap_or(0);
    let (config, adaptive) = m.config();
    let mut gpu = VirtualGpu::new(config);
    recovery.arm(&mut gpu);
    register_lens(&gpu, m);
    drive_recovering(&mut gpu, m, adaptive, recovery, base)
}

/// Restore `payload` into `m` if it is this pipeline's: tag, completed
/// count, body and no trailing bytes must all check out before
/// [`Morph::restore`] runs. Returns the completed count; `None` leaves
/// `m` untouched (the run starts fresh).
pub fn resume<M: Morph>(m: &mut M, payload: &[u8]) -> Option<u64> {
    let mut r = PayloadReader::new(payload);
    if r.u32()? != M::TAG {
        return None;
    }
    let completed = r.u64()?;
    let snapshot = m.decode(&mut r).filter(|_| r.exhausted())?;
    m.restore(snapshot, completed);
    Some(completed)
}

pub(crate) fn register_lens<M: Morph>(gpu: &VirtualGpu, m: &M) {
    let lens = &gpu.observers().lens;
    if lens.is_enabled() {
        for (name, base, len) in m.lens_regions() {
            lens.register(name, base, len);
        }
    }
}

/// Publish an oracle verdict as a `sanitizer` trace event; on violation,
/// flush the trace and trap with the diagnostic, failing the pipeline the
/// way an in-kernel sanitizer trap would.
#[cfg(feature = "morph-check")]
pub(crate) fn report_oracle(tracer: &morph_trace::Tracer, check: &str, result: Result<(), String>) {
    let (status, detail) = match &result {
        Ok(()) => ("ok", String::new()),
        Err(detail) => ("violation", detail.clone()),
    };
    tracer.emit(|| TraceEvent::Sanitizer {
        check: check.to_string(),
        status: status.into(),
        index: 0,
        detail,
    });
    if let Err(detail) = result {
        tracer.flush();
        morph_check::fail(check, &detail);
    }
}
