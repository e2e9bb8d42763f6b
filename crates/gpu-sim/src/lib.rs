//! # morph-gpu-sim — a SIMT virtual GPU
//!
//! This crate is the hardware substitute for the NVIDIA Fermi GPU used in
//! *Morph Algorithms on GPUs* (Nasre, Burtscher, Pingali — PPoPP 2013).
//! It provides the **bulk-synchronous SIMT execution model** the paper's
//! techniques are designed for:
//!
//! * a grid / block / warp / lane thread hierarchy ([`ThreadCtx`]),
//! * kernels expressed as **barrier-separated phases** ([`Kernel`]) — the
//!   direct analogue of CUDA code split by `global_sync()` as in the paper's
//!   Figure 3,
//! * software **global barriers** in three flavours (naive atomic-spin,
//!   hierarchical, and atomic-free sense-reversing à la Xiao–Feng)
//!   ([`barrier`]),
//! * **global memory** buffers with CUDA-like aliasing rules
//!   ([`mem::SharedSlice`]) and atomic views ([`mem`]),
//! * per-block **shared memory** ([`shared::BlockLocal`]) in which local
//!   worklists live (paper §7.5),
//! * and **performance counters** for the quantities the paper studies:
//!   warp divergence, aborted work, atomic traffic, barrier crossings
//!   ([`counters::LaunchStats`]).
//!
//! Blocks are multiplexed over a pool of host worker threads (the "SMs");
//! within a block, warps and lanes execute sequentially on one worker, so
//! `__syncthreads()` is implied at every phase boundary and block-shared
//! state needs no synchronisation. Across workers, phases are separated by
//! a real software global barrier, so all cross-block communication
//! patterns (and bugs) of the GPU model are preserved.
//!
//! ## Example
//!
//! ```
//! use morph_gpu_sim::{GpuConfig, Kernel, ThreadCtx, VirtualGpu};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! struct SumKernel<'a> {
//!     data: &'a [u64],
//!     total: AtomicU64,
//! }
//! impl Kernel for SumKernel<'_> {
//!     fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
//!         let mut local = 0;
//!         for i in ctx.strided(self.data.len()) {
//!             local += self.data[i];
//!         }
//!         ctx.atomic_add_u64(&self.total, local);
//!         true
//!     }
//! }
//!
//! let gpu = VirtualGpu::new(GpuConfig::small());
//! let data: Vec<u64> = (0..1000).collect();
//! let k = SumKernel { data: &data, total: AtomicU64::new(0) };
//! let stats = gpu.launch(&k);
//! assert_eq!(k.total.load(Ordering::Relaxed), 1000 * 999 / 2);
//! assert!(stats.atomics > 0);
//! ```

pub mod barrier;
pub mod cancel;
pub mod config;
mod costmodel;
pub mod counters;
pub mod engine;
pub mod fault;
pub mod kernel;
pub mod lens;
pub mod mem;
pub mod shared;

pub use cancel::CancelToken;
pub use config::{BarrierKind, GpuConfig, WorkPartition};
pub use counters::{LaunchStats, WorkerCounters};
pub use engine::{LaunchError, LaunchOutcome, Observers, VirtualGpu};
pub use costmodel::SEGMENT_BYTES;
// Re-exported so kernels and pipelines can emit trace events without
// depending on morph-trace directly.
pub use morph_trace::{CountersSnapshot, TraceEvent, Tracer};
// Re-exported so pipelines can attach a metrics hub without depending on
// morph-metrics directly.
pub use morph_metrics::{
    Histogram, HistogramSnapshot, MetricsHub, MetricsRegistry, MetricsSnapshot,
};
// Re-exported so host loops and pipelines can attach / consult the
// autotuner without depending on morph-tune directly.
pub use morph_tune::{
    AutoTuner, ConflictPolicy, Controller, TuneConfig, TuneDecision, TuneInput,
};
pub use fault::{AppendFault, FaultPlan, INJECTED_DEVICE_LOSS_MSG, INJECTED_PANIC_MSG};
pub use kernel::{Kernel, ThreadCtx};
pub use lens::{LensHot, LensHub, LensRegion, LensRow, LensSnapshot, LENS_UNATTRIBUTED};
pub use mem::{AtomicF32Slice, AtomicF64Slice, AtomicU32Slice, AtomicU64Slice, SharedSlice};
pub use shared::BlockLocal;
