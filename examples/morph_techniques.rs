//! A tour of the paper's generic morph techniques, used directly —
//! without any of the four algorithms. Shows what `morph-core` +
//! `morph-gpu-sim` give you for building a *new* morph algorithm.
//!
//! ```sh
//! cargo run --release --example morph_techniques
//! ```

use morphgpu::core::addition::{BumpAllocator, GrowthPolicy};
use morphgpu::core::deletion::DeletionMarks;
use morphgpu::core::ConflictTable;
use morphgpu::gpu_sim::{BarrierKind, GpuConfig, Kernel, ThreadCtx, VirtualGpu};
use std::sync::atomic::{AtomicU32, Ordering};

/// A synthetic morph workload over an array of "elements": every thread
/// repeatedly claims a random neighborhood via 3-phase conflict
/// resolution, then — if it wins — deletes one element and allocates a
/// replacement. This is the skeleton every algorithm in this repository
/// instantiates.
struct DemoMorph<'a> {
    hoods: &'a [Vec<u32>],
    conflict: &'a ConflictTable,
    marks: &'a DeletionMarks,
    alloc: &'a BumpAllocator,
    won: &'a [AtomicU32],
}

impl Kernel for DemoMorph<'_> {
    fn phases(&self) -> usize {
        4
    }

    fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
        let me = ctx.tid as u32;
        let hood = &self.hoods[ctx.tid];
        match phase {
            0 => {
                // §7.3 phase 1: optimistic racy marking.
                self.conflict.race(hood.iter().copied(), me);
                true
            }
            1 => {
                // §7.3 phase 2: priority arbitration (higher id wins).
                let ok = self.conflict.priority_check(hood.iter().copied(), me);
                self.won[ctx.tid].store(ok as u32, Ordering::Release);
                true
            }
            2 => {
                // §7.3 phase 3: read-only verification.
                if self.won[ctx.tid].load(Ordering::Acquire) == 1
                    && !self.conflict.check(hood.iter().copied(), me)
                {
                    self.won[ctx.tid].store(0, Ordering::Release);
                }
                true
            }
            _ => {
                // Commit: §7.2 deletion by marking, §7.1 bump
                // allocation for the replacement.
                if self.won[ctx.tid].load(Ordering::Acquire) != 1 {
                    ctx.abort();
                    return true;
                }
                ctx.commit();
                let victim = hood[0];
                self.marks.mark_deleted(victim);
                let _slot = self.alloc.try_alloc(ctx, 1).expect("provisioned");
                true
            }
        }
    }
}

fn main() {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let elements = 512;
    let cfg = GpuConfig::detect(4, 64);
    let nthreads = cfg.total_threads();

    let hoods: Vec<Vec<u32>> = (0..nthreads)
        .map(|_| {
            let mut h: Vec<u32> = (0..rng.gen_range(2..6))
                .map(|_| rng.gen_range(0..elements as u32))
                .collect();
            h.sort_unstable();
            h.dedup();
            h
        })
        .collect();

    // §7.1: plan capacity with the on-demand policy.
    let policy = GrowthPolicy::OnDemand { over_alloc: 1.5 };
    let capacity = policy.plan_capacity(elements, elements, nthreads);
    println!("provisioning {capacity} slots for {elements} elements + ≤{nthreads} additions");

    let conflict = ConflictTable::new(elements);
    let marks = DeletionMarks::new(capacity);
    let won: Vec<AtomicU32> = (0..nthreads).map(|_| AtomicU32::new(0)).collect();

    for kind in [
        BarrierKind::NaiveAtomic,
        BarrierKind::Hierarchical,
        BarrierKind::SenseReversing,
    ] {
        let gpu = VirtualGpu::new(cfg.clone().with_barrier(kind));
        let alloc = BumpAllocator::new(elements, capacity);
        let k = DemoMorph {
            hoods: &hoods,
            conflict: &conflict,
            marks: &marks,
            alloc: &alloc,
            won: &won,
        };
        let stats = gpu.launch(&k);
        println!(
            "{kind:?}: {} commits, {} aborts (abort ratio {:.0}%), \
             {} barrier crossings, {} barrier RMWs, bump high-water {} of {}, wall {:?}",
            stats.commits,
            stats.aborts,
            100.0 * stats.abort_ratio(),
            stats.barriers,
            stats.barrier_rmws,
            alloc.len(),
            alloc.capacity(),
            stats.wall,
        );
    }
}
