//! # morph-trace — structured tracing & per-phase profiling
//!
//! The paper's evaluation is *observational*: Fig. 2 is a parallelism
//! profile over time, and the §7 ablations argue about divergence, aborts,
//! atomic traffic and barrier cost per optimisation. The workspace's
//! `LaunchStats` only reports end-of-launch aggregates; this crate adds the
//! time dimension — a low-overhead structured event layer threaded through
//! the simulator (`morph-gpu-sim`), the recovering runtime (`morph-core`)
//! and all four pipelines.
//!
//! * [`event::TraceEvent`] — the typed schema, one per event kind the
//!   workspace emits: launch/phase spans with wall time and counter
//!   deltas, recovery decisions, allocator occupancy, algorithm-level
//!   iteration markers, serving lifecycle and resilience records,
//!   sanitizer verdicts, alerts, autotuner actuations and lens cells.
//!   The JSONL encoding is that schema and nothing else: a line decodes
//!   to the current kind it names, with every field present, or
//!   [`sink::parse_jsonl`] reports it by line number.
//! * [`sink::TraceSink`] — where events go: [`sink::RingSink`] (bounded
//!   in-memory flight recorder) or [`sink::JsonlSink`] (streamed JSON
//!   Lines). [`sink::Tracer`] is the cheap handle producers emit through;
//!   disabled, an emit is a single branch and the event is never built.
//! * [`report::TraceReport`] — folds an event stream into per-phase
//!   aggregates, a per-launch timeline (Fig. 2 shape) and a §7-style
//!   waste breakdown; rendered by `morph-bench`'s `trace-report` binary.
//! * [`profile::PhaseProfiler`] — the live phase profiler: modelled
//!   cycles per `algo;iteration-class;phase`, rendered as folded stacks
//!   for flamegraphs.
//!
//! Dependency-wise this crate sits *below* `morph-gpu-sim` (events carry a
//! plain [`event::CountersSnapshot`], not `LaunchStats`), so every layer of
//! the workspace can emit without cycles.

pub mod event;
pub mod flight;
pub mod json;
pub mod profile;
pub mod report;
pub mod sink;

pub use event::{CountersSnapshot, JobEventKind, RecoveryKind, RestoreOutcome, TraceEvent};
pub use flight::{FlightConfig, FlightRecorder};
pub use profile::{iteration_class, model_cycles, PhaseProfiler, ProfilerScope};
pub use report::{
    partition_by_job, AlertRow, HealthRow, JobRow, LensAgg, RestoreRow, TenantAgg, TraceReport,
    TuneRow, WasteBreakdown,
};
pub use sink::{parse_jsonl, parse_jsonl_tagged, JsonlSink, RingSink, TeeSink, TraceSink, Tracer};
