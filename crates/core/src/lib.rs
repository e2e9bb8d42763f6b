//! # morph-core — reusable techniques for morph algorithms
//!
//! The primary contribution of *Morph Algorithms on GPUs* (PPoPP 2013) is
//! not any single algorithm but a toolkit of techniques for running graph
//! algorithms that **add and remove nodes and edges** on a bulk-synchronous
//! SIMT machine. This crate packages those techniques as a library on top
//! of [`morph_gpu_sim`]:
//!
//! | Paper section | Module |
//! |---|---|
//! | §7.3 probabilistic 3-phase conflict resolution | [`conflict`] |
//! | §7.1 subgraph addition (pre-allocate / host-only / kernel-host / kernel-only) | [`addition`] |
//! | §7.2 subgraph deletion (marking / explicit / recycle) | [`deletion`] |
//! | §7.4 adaptive parallelism | [`adaptive`] |
//! | §7.5 local worklists (and the centralized baseline) | [`worklist`] |
//! | §7.6 thread-divergence reduction by compaction | [`compact`] |
//! | §6.4 push- vs. pull-based propagation | [`propagate`] |
//! | Fig. 3 host do–while driver | [`runtime`] |
//! | one pipeline contract around that driver | [`pipeline`] |
//!
//! The four algorithm crates (`morph-dmr`, `morph-sp`, `morph-pta`,
//! `morph-mst`) are built from these pieces.

pub mod adaptive;
pub mod addition;
pub mod checkpoint;
pub mod compact;
pub mod conflict;
pub mod deletion;
pub mod pipeline;
pub mod propagate;
pub mod runtime;
pub mod worklist;

pub use adaptive::AdaptiveParallelism;
pub use addition::BumpAllocator;
pub use checkpoint::{
    crc32, load_jsonl as load_checkpoint_jsonl, Checkpoint, CheckpointCtl, CheckpointStore,
    PayloadReader, PayloadWriter, StoreRecovery, SNAPSHOT_SCHEMA_VERSION,
};
pub use conflict::ConflictTable;
pub use deletion::{DeletionMarks, RecyclePool};
pub use morph_gpu_sim::CancelToken;
// Metrics surface, re-exported so pipelines and servers can attach a hub
// through `RecoveryOpts` without a direct morph-metrics dependency.
pub use morph_gpu_sim::{MetricsHub, MetricsRegistry, MetricsSnapshot};
// Re-exported so pipelines and serving code can attach / consult the
// autotuner without depending on morph-tune directly.
pub use morph_tune::{AutoTuner, ConflictPolicy, Controller, TuneConfig, TuneDecision, TuneInput};
pub use pipeline::{run_morph, Morph};
pub use runtime::{
    drive_recovering, DriveError, DriveOutcome, HostAction, RecoveryOpts, RecoveryPolicy,
    RescueLevel, StepCtx, StepReport,
};
pub use worklist::{GlobalWorklist, WorklistFull};
