//! Per-block shared memory (paper §7.5, "Local Worklists").
//!
//! On the GPU, each thread block has a fast scratchpad shared by its
//! threads. In this simulator every block executes on exactly one worker at
//! a time (warps of a block run sequentially), so block-shared state needs
//! no synchronisation at all — which is precisely why the paper's local
//! worklists are cheap: "work items can be dequeued and newly generated
//! work enqueued without synchronization".

use crate::kernel::ThreadCtx;
use crossbeam::utils::CachePadded;
use std::cell::UnsafeCell;

struct Cell<T>(UnsafeCell<T>);

// SAFETY: access is marshalled through `BlockLocal::with`, which only hands
// out the cell belonging to the calling thread's own block; the engine
// guarantees that all virtual threads of one block run sequentially on a
// single worker, so there is never a concurrent access to one cell.
unsafe impl<T: Send> Sync for Cell<T> {}

/// One `T` per thread block, accessible without synchronisation from the
/// block's own threads — the analogue of `__shared__` memory.
pub struct BlockLocal<T> {
    cells: Vec<CachePadded<Cell<T>>>,
}

impl<T: Send> BlockLocal<T> {
    /// One cell per block, initialised by `init(block_id)`.
    pub fn new(blocks: usize, mut init: impl FnMut(usize) -> T) -> Self {
        Self {
            cells: (0..blocks)
                .map(|b| CachePadded::new(Cell(UnsafeCell::new(init(b)))))
                .collect(),
        }
    }

    /// Number of blocks this shared memory was sized for.
    pub fn blocks(&self) -> usize {
        self.cells.len()
    }

    /// Access the calling thread's block cell. The block id is taken from
    /// `ctx`, so a kernel can never reach another block's shared memory —
    /// the same isolation `__shared__` gives on hardware.
    #[inline]
    pub fn with<R>(&self, ctx: &ThreadCtx<'_>, f: impl FnOnce(&mut T) -> R) -> R {
        debug_assert!(ctx.block < self.cells.len());
        if let Some(tape) = ctx.tape {
            // One shared-memory access per `with`, at the cell's word
            // address. Finer-grained intra-cell patterns are the kernel's
            // to report via `ThreadCtx::smem_word`.
            tape.record_smem((&self.cells[ctx.block] as *const _ as usize) >> 2);
        }
        // SAFETY: see the `Sync` impl above — one block never runs on two
        // workers concurrently, and `ctx.block` scopes access to the
        // caller's own block.
        f(unsafe { &mut *self.cells[ctx.block].0.get() })
    }

    /// Host-side exclusive access to one block's cell.
    pub fn get_mut(&mut self, block: usize) -> &mut T {
        self.cells[block].0.get_mut()
    }

    /// Host-side iteration over all cells.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.cells.iter_mut().map(|c| c.0.get_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::WorkerCounters;

    fn ctx_for_block(block: usize, counters: &mut WorkerCounters) -> ThreadCtx<'_> {
        ThreadCtx {
            tid: block * 4,
            nthreads: 16,
            block,
            nblocks: 4,
            thread_in_block: 0,
            threads_per_block: 4,
            warp: block,
            lane: 0,
            iteration: 0,
            counters,
            faults: None,
            tape: None,
        }
    }

    #[test]
    fn block_local_is_per_block() {
        let bl = BlockLocal::new(4, |b| b * 10);
        let mut c = WorkerCounters::default();
        for b in 0..4 {
            let ctx = ctx_for_block(b, &mut c);
            let v = bl.with(&ctx, |x| {
                *x += 1;
                *x
            });
            assert_eq!(v, b * 10 + 1);
        }
        let mut bl = bl;
        assert_eq!(*bl.get_mut(3), 31);
        assert_eq!(bl.iter_mut().map(|x| *x).collect::<Vec<_>>(), vec![1, 11, 21, 31]);
    }
}
