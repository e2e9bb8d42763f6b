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
//! | §7.2 subgraph deletion (marking / explicit compaction) | [`deletion`] |
//! | §7.4 adaptive parallelism | [`adaptive`] |
//! | §7.6 thread-divergence reduction by compaction | [`compact`] |
//! | Fig. 3 host do–while: recovery options, policy and outcomes | [`runtime`] |
//! | one pipeline contract and its one host loop, [`run_morph`] | [`pipeline`] |
//!
//! The four algorithm crates (`morph-dmr`, `morph-sp`, `morph-pta`,
//! `morph-mst`) are built from these pieces. Two §7 techniques have no
//! module here because each lives where its one user keeps its data:
//! §7.5 local worklists are a `Vec<u32>` per block in
//! [`morph_gpu_sim::BlockLocal`] (DMR), and §6.4 pull-based propagation
//! is PTA's own kernel.

pub mod adaptive;
pub mod addition;
pub mod checkpoint;
pub mod compact;
pub mod conflict;
pub mod deletion;
pub mod pipeline;
pub mod runtime;

pub use adaptive::AdaptiveParallelism;
pub use addition::BumpAllocator;
pub use checkpoint::{
    crc32, Checkpoint, CheckpointCtl, CheckpointStore, PayloadReader, PayloadWriter,
    StoreRecovery, SNAPSHOT_SCHEMA_VERSION,
};
pub use conflict::ConflictTable;
pub use deletion::DeletionMarks;
pub use morph_gpu_sim::CancelToken;
// Metrics surface, re-exported so pipelines and servers can attach a hub
// through `RecoveryOpts` without a direct morph-metrics dependency.
pub use morph_gpu_sim::{MetricsHub, MetricsRegistry, MetricsSnapshot};
// Re-exported so pipelines and serving code can attach / consult the
// autotuner without depending on morph-tune directly.
pub use morph_tune::{AutoTuner, ConflictPolicy, Controller, TuneConfig, TuneDecision, TuneInput};
pub use pipeline::{run_morph, Morph};
pub use runtime::{
    DriveError, DriveOutcome, HostAction, RecoveryOpts, RecoveryPolicy, RescueLevel, StepCtx,
    StepReport,
};
