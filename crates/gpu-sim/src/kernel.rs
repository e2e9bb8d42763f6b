//! The kernel programming model.
//!
//! A [`Kernel`] is the analogue of a CUDA `__global__` function whose body
//! is split at `global_sync()` calls into numbered *phases* — exactly the
//! structure of the paper's Figure 3 pseudo-code (race / prioritycheck /
//! check / commit). The engine runs phase `p` for every virtual thread in
//! the grid, crosses a global barrier, then runs phase `p+1`. One launch
//! is one pass over the phases; the paper's `do { refine_kernel() } while
//! changed` loop belongs to the host.

use crate::config::WorkPartition;
use crate::costmodel::WarpTape;
use crate::counters::WorkerCounters;
use crate::mem::SharedSlice;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A virtual-GPU kernel. See the [module docs](self) for the model.
pub trait Kernel: Sync {
    /// Number of barrier-separated phases per launch (≥ 1).
    fn phases(&self) -> usize {
        1
    }

    /// Execute one phase for one virtual thread.
    ///
    /// Returns `true` if the thread performed useful work in this phase;
    /// the engine uses the per-warp pattern of these flags to account SIMT
    /// divergence (paper §7.6).
    fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>) -> bool;
}

/// Per-virtual-thread execution context: thread coordinates plus counted
/// atomic primitives (the paper's evaluation meters atomic traffic, aborts
/// and commits; route those operations through this context so they are
/// recorded in [`crate::LaunchStats`]).
pub struct ThreadCtx<'a> {
    /// Global thread id in `0..nthreads`.
    pub tid: usize,
    /// Total virtual threads in the grid.
    pub nthreads: usize,
    /// Block id in `0..nblocks`.
    pub block: usize,
    /// Total blocks in the grid.
    pub nblocks: usize,
    /// Thread index within the block.
    pub thread_in_block: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Global warp id.
    pub warp: usize,
    /// Lane within the warp.
    pub lane: usize,
    pub(crate) counters: &'a mut WorkerCounters,
    /// Fault plan attached to the launching [`crate::VirtualGpu`], if any.
    pub(crate) faults: Option<&'a crate::fault::FaultPlan>,
    /// Cost-model tape for the currently executing warp. `None` on a
    /// launch no observer meters ([`crate::engine::Observers::needs_tape`]).
    /// Shared (the tape is interior-mutable) so `&ThreadCtx` paths like
    /// [`crate::BlockLocal::with`] can record through it.
    pub(crate) tape: Option<&'a WarpTape>,
}

/// Iterator over the work items assigned to one thread.
pub enum ItemIter {
    Strided { next: usize, stride: usize, n: usize },
    Chunked { next: usize, end: usize },
}

impl Iterator for ItemIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            ItemIter::Strided { next, stride, n } => {
                if *next < *n {
                    let i = *next;
                    *next += *stride;
                    Some(i)
                } else {
                    None
                }
            }
            ItemIter::Chunked { next, end } => {
                if *next < *end {
                    let i = *next;
                    *next += 1;
                    Some(i)
                } else {
                    None
                }
            }
        }
    }
}

impl<'a> ThreadCtx<'a> {
    /// Grid-stride assignment: items `tid, tid+N, tid+2N, …` of `0..n`.
    #[inline]
    pub fn strided(&self, n: usize) -> ItemIter {
        ItemIter::Strided {
            next: self.tid,
            stride: self.nthreads,
            n,
        }
    }

    /// Contiguous-chunk assignment of `0..n` (the per-thread local
    /// worklist of paper §7.5). Chunks differ in size by at most one.
    #[inline]
    pub fn chunked(&self, n: usize) -> ItemIter {
        let (start, end) = chunk_bounds(n, self.tid, self.nthreads);
        ItemIter::Chunked { next: start, end }
    }

    /// Assignment per the configured [`WorkPartition`].
    #[inline]
    pub fn items(&self, n: usize, part: WorkPartition) -> ItemIter {
        match part {
            WorkPartition::Strided => self.strided(n),
            WorkPartition::Chunked => self.chunked(n),
        }
    }

    /// Record a speculative activity that detected a conflict and backed
    /// off (paper §7.3).
    #[inline]
    pub fn abort(&mut self) {
        self.counters.aborts += 1;
    }

    /// Record a speculative activity that committed.
    #[inline]
    pub fn commit(&mut self) {
        self.counters.commits += 1;
    }

    /// Metered read of global memory: records the element's byte address
    /// on the warp's cost-model tape (when armed), then delegates to
    /// [`SharedSlice::get`]. Kernels route hot loads through this so the
    /// coalescing factor reflects their real access pattern; unmetered
    /// `slice.get(i)` stays available and simply goes uncounted.
    #[inline]
    pub fn global_load<T: Copy + Send>(&mut self, slice: &SharedSlice<T>, i: usize) -> T {
        if let Some(t) = self.tape {
            t.record_global(slice.element_addr(i));
        }
        slice.get(i)
    }

    /// Metered write of global memory; counterpart of
    /// [`global_load`](Self::global_load).
    #[inline]
    pub fn global_store<T: Copy + Send>(&mut self, slice: &SharedSlice<T>, i: usize, v: T) {
        if let Some(t) = self.tape {
            t.record_global(slice.element_addr(i));
        }
        slice.set(i, v)
    }

    /// Record a global-memory access at a raw byte address on the warp's
    /// cost-model tape (when armed). This is the metering hook for data
    /// structures that manage their own atomic storage — chunked
    /// adjacency arenas, sparse bitmaps — whose loads never pass through
    /// a [`SharedSlice`] and would otherwise be invisible to the
    /// coalescing meter. Takes `&self` (like [`smem_word`](Self::smem_word))
    /// so shared structures can meter from non-`mut` contexts; the tape
    /// itself is interior-mutable.
    #[inline]
    pub fn gmem_addr(&self, addr: usize) {
        if let Some(t) = self.tape {
            t.record_global(addr);
        }
    }

    /// Record a shared-memory access at word index `word` for the bank
    /// conflict model (banks are word-interleaved, `warp_size` of them).
    /// [`crate::BlockLocal::with`] records its cell automatically; kernels
    /// that index *within* a block-local structure lane-by-lane call this
    /// to expose the intra-structure pattern.
    #[inline]
    pub fn smem_word(&self, word: usize) {
        if let Some(t) = self.tape {
            t.record_smem(word);
        }
    }

    #[inline]
    fn count_atomic(&mut self, addr: usize) {
        self.counters.atomics += 1;
        if let Some(t) = self.tape {
            t.record_atomic(addr);
        }
    }

    /// Counted `atomicAdd` on a 32-bit word; returns the previous value.
    #[inline]
    pub fn atomic_add_u32(&mut self, a: &AtomicU32, v: u32) -> u32 {
        self.count_atomic(a as *const AtomicU32 as usize);
        a.fetch_add(v, Ordering::AcqRel)
    }

    /// Counted `atomicAdd` on a 64-bit word; returns the previous value.
    #[inline]
    pub fn atomic_add_u64(&mut self, a: &AtomicU64, v: u64) -> u64 {
        self.count_atomic(a as *const AtomicU64 as usize);
        a.fetch_add(v, Ordering::AcqRel)
    }

    /// Counted `atomicMin`; returns the previous value.
    #[inline]
    pub fn atomic_min_u32(&mut self, a: &AtomicU32, v: u32) -> u32 {
        self.count_atomic(a as *const AtomicU32 as usize);
        a.fetch_min(v, Ordering::AcqRel)
    }

    /// Counted `atomicMax`; returns the previous value.
    #[inline]
    pub fn atomic_max_u32(&mut self, a: &AtomicU32, v: u32) -> u32 {
        self.count_atomic(a as *const AtomicU32 as usize);
        a.fetch_max(v, Ordering::AcqRel)
    }

    /// Counted `atomicMin` on a 64-bit word; returns the previous value.
    #[inline]
    pub fn atomic_min_u64(&mut self, a: &AtomicU64, v: u64) -> u64 {
        self.count_atomic(a as *const AtomicU64 as usize);
        a.fetch_min(v, Ordering::AcqRel)
    }

    /// Counted `atomicMax` on a 64-bit word; returns the previous value.
    #[inline]
    pub fn atomic_max_u64(&mut self, a: &AtomicU64, v: u64) -> u64 {
        self.count_atomic(a as *const AtomicU64 as usize);
        a.fetch_max(v, Ordering::AcqRel)
    }

    /// Counted `atomicCAS`; returns `Ok(previous)` on success.
    #[inline]
    pub fn atomic_cas_u32(&mut self, a: &AtomicU32, current: u32, new: u32) -> Result<u32, u32> {
        self.count_atomic(a as *const AtomicU32 as usize);
        a.compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Counted `atomicExch`; returns the previous value.
    #[inline]
    pub fn atomic_exchange_u32(&mut self, a: &AtomicU32, v: u32) -> u32 {
        self.count_atomic(a as *const AtomicU32 as usize);
        a.swap(v, Ordering::AcqRel)
    }

    /// Counted `atomicOr` on a 64-bit word; returns the previous value.
    #[inline]
    pub fn atomic_or_u64(&mut self, a: &AtomicU64, v: u64) -> u64 {
        self.count_atomic(a as *const AtomicU64 as usize);
        a.fetch_or(v, Ordering::AcqRel)
    }

    // The `_at` variants below record an explicit *logical* device
    // address instead of the word's host address. Structures that live
    // at a registered lens window (DESIGN.md §17) route their atomics
    // through these so contention attributes to the structure even when
    // the backing storage is rebuilt between launches (host addresses
    // are unstable across allocations; logical windows are not).

    /// Counted `atomicAdd` on a 32-bit word, recorded at logical
    /// address `addr`; returns the previous value.
    #[inline]
    pub fn atomic_add_u32_at(&mut self, a: &AtomicU32, v: u32, addr: usize) -> u32 {
        self.count_atomic(addr);
        a.fetch_add(v, Ordering::AcqRel)
    }

    /// Counted `atomicAdd` on a 64-bit word, recorded at logical
    /// address `addr`; returns the previous value.
    #[inline]
    pub fn atomic_add_u64_at(&mut self, a: &AtomicU64, v: u64, addr: usize) -> u64 {
        self.count_atomic(addr);
        a.fetch_add(v, Ordering::AcqRel)
    }

    /// Counted `atomicMin` on a 64-bit word, recorded at logical
    /// address `addr`; returns the previous value.
    #[inline]
    pub fn atomic_min_u64_at(&mut self, a: &AtomicU64, v: u64, addr: usize) -> u64 {
        self.count_atomic(addr);
        a.fetch_min(v, Ordering::AcqRel)
    }

    /// Counted `atomicMax` on a 64-bit word, recorded at logical
    /// address `addr`; returns the previous value.
    #[inline]
    pub fn atomic_max_u64_at(&mut self, a: &AtomicU64, v: u64, addr: usize) -> u64 {
        self.count_atomic(addr);
        a.fetch_max(v, Ordering::AcqRel)
    }

    /// Counted `atomicCAS`, recorded at logical address `addr`; returns
    /// `Ok(previous)` on success.
    #[inline]
    pub fn atomic_cas_u32_at(
        &mut self,
        a: &AtomicU32,
        current: u32,
        new: u32,
        addr: usize,
    ) -> Result<u32, u32> {
        self.count_atomic(addr);
        a.compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// True if the attached [`crate::fault::FaultPlan`] denies a
    /// device-side allocation issued right now. Allocators (e.g.
    /// `morph_core`'s bump allocator) consult this in their `try_alloc`
    /// path so an injected denial is indistinguishable from genuine pool
    /// exhaustion to the rest of the pipeline.
    #[inline]
    pub fn fault_deny_alloc(&self) -> bool {
        self.faults.is_some_and(|p| p.deny_allocation())
    }
}

/// Bounds of chunk `t` of `n` items split over `nt` threads: the first
/// `n % nt` chunks get one extra item.
#[inline]
pub fn chunk_bounds(n: usize, t: usize, nt: usize) -> (usize, usize) {
    debug_assert!(t < nt);
    let base = n / nt;
    let extra = n % nt;
    let start = t * base + t.min(extra);
    let len = base + usize::from(t < extra);
    (start, (start + len).min(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with(tid: usize, nthreads: usize, counters: &mut WorkerCounters) -> ThreadCtx<'_> {
        ThreadCtx {
            tid,
            nthreads,
            block: 0,
            nblocks: 1,
            thread_in_block: tid,
            threads_per_block: nthreads,
            warp: 0,
            lane: tid,
            counters,
            faults: None,
            tape: None,
        }
    }

    #[test]
    fn chunk_bounds_cover_exactly() {
        for n in [0usize, 1, 7, 32, 100, 101] {
            for nt in [1usize, 2, 3, 7, 32, 150] {
                let mut covered = vec![false; n];
                let mut prev_end = 0;
                for t in 0..nt {
                    let (s, e) = chunk_bounds(n, t, nt);
                    assert_eq!(s, prev_end.min(n), "gap at thread {t} (n={n}, nt={nt})");
                    prev_end = e;
                    for x in covered.iter_mut().take(e).skip(s) {
                        assert!(!*x);
                        *x = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "n={n} nt={nt}");
            }
        }
    }

    #[test]
    fn chunk_sizes_balanced() {
        let (n, nt) = (103, 10);
        let sizes: Vec<usize> = (0..nt).map(|t| {
            let (s, e) = chunk_bounds(n, t, nt);
            e - s
        }).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
        assert_eq!(sizes.iter().sum::<usize>(), n);
    }

    #[test]
    fn strided_and_chunked_cover() {
        let n = 57;
        let nthreads = 8;
        for part in [WorkPartition::Strided, WorkPartition::Chunked] {
            let mut seen = vec![0u32; n];
            for tid in 0..nthreads {
                let mut c = WorkerCounters::default();
                let ctx = ctx_with(tid, nthreads, &mut c);
                for i in ctx.items(n, part) {
                    seen[i] += 1;
                }
            }
            assert!(seen.iter().all(|&s| s == 1), "{part:?}");
        }
    }

    #[test]
    fn atomics_are_counted() {
        let a = AtomicU32::new(5);
        let mut c = WorkerCounters::default();
        let mut ctx = ctx_with(0, 1, &mut c);
        assert_eq!(ctx.atomic_add_u32(&a, 3), 5);
        assert_eq!(ctx.atomic_min_u32(&a, 2), 8);
        assert_eq!(ctx.atomic_max_u32(&a, 100), 2);
        assert_eq!(ctx.atomic_exchange_u32(&a, 1), 100);
        assert!(ctx.atomic_cas_u32(&a, 1, 9).is_ok());
        assert!(ctx.atomic_cas_u32(&a, 1, 9).is_err());
        ctx.abort();
        ctx.commit();
        assert_eq!(c.atomics, 6);
        assert_eq!(c.aborts, 1);
        assert_eq!(c.commits, 1);
    }
}
