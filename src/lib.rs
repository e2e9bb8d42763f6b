//! # morphgpu — facade over the morph-gpu workspace
//!
//! A Rust reproduction of *Morph Algorithms on GPUs* (Nasre, Burtscher,
//! Pingali — PPoPP 2013). Morph algorithms add and delete nodes and edges
//! while they run; this workspace implements the paper's four algorithms
//! and its reusable toolkit on a simulated SIMT GPU:
//!
//! * [`dmr`] — Delaunay Mesh Refinement,
//! * [`sp`] — Survey Propagation (approximate SAT),
//! * [`pta`] — Andersen-style points-to analysis,
//! * [`mst`] — Boruvka's minimum spanning tree,
//! * [`core`] — the generic morph techniques (conflict resolution,
//!   addition/deletion strategies, adaptive parallelism, divergence
//!   compaction) and the recovering host loop and pipeline runner the
//!   four algorithms share,
//! * [`gpu_sim`] — the virtual GPU those run on,
//! * [`trace`] — structured tracing: sinks, JSONL streams, the report
//!   aggregator behind `trace-report`, and the phase profiler,
//! * [`metrics`] — the live metrics registry: sharded counters, gauges,
//!   mergeable log₂ histograms, Prometheus-style + JSON exposition,
//! * [`tune`] — the closed-loop autotuner: a feedback controller over
//!   the live cost-model counters, attached per run through
//!   `core::runtime::RecoveryOpts::tuner`,
//! * [`serve`] — the multi-tenant serving layer: job specs over all four
//!   pipelines, a bounded fair-share scheduler, and a pool of virtual
//!   devices with cancellation and retry (the `morph-serve` binary),
//! * [`graph`], [`geometry`] — substrates,
//! * [`workloads`] — deterministic generators for every evaluation input.
//!
//! ```
//! use morphgpu::{dmr, workloads};
//!
//! let mut mesh = workloads::mesh::random_mesh::<f64>(500, 42);
//! assert!(mesh.stats().bad > 0);
//! dmr::gpu::refine_gpu(&mut mesh, dmr::DmrOpts::default(), 2);
//! assert_eq!(mesh.stats().bad, 0);
//! mesh.validate(true).unwrap();
//! ```

pub use morph_core as core;
pub use morph_dmr as dmr;
pub use morph_geometry as geometry;
pub use morph_gpu_sim as gpu_sim;
pub use morph_graph as graph;
pub use morph_metrics as metrics;
pub use morph_mst as mst;
pub use morph_pta as pta;
pub use morph_serve as serve;
pub use morph_sp as sp;
pub use morph_trace as trace;
pub use morph_tune as tune;
pub use morph_workloads as workloads;
