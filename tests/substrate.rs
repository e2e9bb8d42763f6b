//! Integration tests of the generic substrate through the facade:
//! conflict resolution + allocation + deletion composed the way the
//! algorithm crates use them.

use morphgpu::core::addition::BumpAllocator;
use morphgpu::core::deletion::DeletionMarks;
use morphgpu::core::ConflictTable;
use morphgpu::gpu_sim::{GpuConfig, Kernel, ThreadCtx, VirtualGpu};
use std::sync::atomic::{AtomicU32, Ordering};

/// A miniature morph workload: each thread claims a random neighborhood
/// of "elements" via the 3-phase protocol; winners delete one element and
/// bump-allocate a replacement slot. Invariants: no element is deleted
/// twice, and allocations never collide.
struct MiniMorph<'a> {
    hoods: &'a [Vec<u32>],
    conflict: &'a ConflictTable,
    marks: &'a DeletionMarks,
    alloc: &'a BumpAllocator,
    deleted_by: &'a [AtomicU32],
    owned: &'a [AtomicU32],
    won: &'a [AtomicU32],
}

impl Kernel for MiniMorph<'_> {
    fn phases(&self) -> usize {
        4
    }

    fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
        let me = ctx.tid as u32;
        let Some(hood) = self.hoods.get(ctx.tid) else {
            return false;
        };
        match phase {
            0 => {
                self.conflict.race(hood.iter().copied(), me);
                true
            }
            1 => {
                let ok = self.conflict.priority_check(hood.iter().copied(), me);
                self.won[ctx.tid].store(ok as u32, Ordering::Release);
                true
            }
            2 => {
                if self.won[ctx.tid].load(Ordering::Acquire) == 1
                    && !self.conflict.check(hood.iter().copied(), me)
                {
                    self.won[ctx.tid].store(0, Ordering::Release);
                }
                true
            }
            _ => {
                if self.won[ctx.tid].load(Ordering::Acquire) != 1 {
                    ctx.abort();
                    return true;
                }
                ctx.commit();
                // Delete the first owned element…
                let victim = hood[0];
                assert_eq!(
                    self.deleted_by[victim as usize].swap(me + 1, Ordering::AcqRel),
                    0,
                    "element {victim} deleted twice"
                );
                self.marks.mark_deleted(victim);
                // …and allocate a replacement slot.
                let slot = self.alloc.try_alloc(ctx, 1).expect("capacity provisioned");
                assert_eq!(
                    self.owned[slot as usize].swap(me + 1, Ordering::AcqRel),
                    0,
                    "slot {slot} allocated twice"
                );
                true
            }
        }
    }
}

#[test]
fn mini_morph_composition_holds_invariants() {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let elements = 256usize;
    let capacity = 4096usize;
    let cfg = GpuConfig {
        num_sms: 4,
        warp_size: 8,
        blocks: 8,
        threads_per_block: 16,
        barrier: morphgpu::gpu_sim::BarrierKind::SenseReversing,
    };
    let nthreads = cfg.total_threads();
    let hoods: Vec<Vec<u32>> = (0..nthreads)
        .map(|_| {
            let mut h: Vec<u32> = (0..rng.gen_range(1..5))
                .map(|_| rng.gen_range(0..elements as u32))
                .collect();
            h.sort_unstable();
            h.dedup();
            h
        })
        .collect();

    let conflict = ConflictTable::new(elements);
    let marks = DeletionMarks::new(capacity);
    let alloc = BumpAllocator::new(elements, capacity);
    let deleted_by: Vec<AtomicU32> = (0..capacity).map(|_| AtomicU32::new(0)).collect();
    let owned: Vec<AtomicU32> = (0..capacity).map(|_| AtomicU32::new(0)).collect();
    let won: Vec<AtomicU32> = (0..nthreads).map(|_| AtomicU32::new(0)).collect();

    let k = MiniMorph {
        hoods: &hoods,
        conflict: &conflict,
        marks: &marks,
        alloc: &alloc,
        deleted_by: &deleted_by,
        owned: &owned,
        won: &won,
    };
    let gpu = VirtualGpu::new(cfg);
    let stats = gpu.launch(&k);

    // Winners and losers sum to the thread count.
    assert_eq!(stats.commits + stats.aborts, nthreads as u64);
    // Deleted elements were each claimed by exactly one winner and every
    // winner got exactly one slot.
    let deletions = deleted_by.iter().filter(|d| d.load(Ordering::Acquire) != 0).count();
    let allocations = owned.iter().filter(|o| o.load(Ordering::Acquire) != 0).count();
    assert_eq!(deletions as u64, stats.commits);
    assert_eq!(allocations as u64, stats.commits);
    // Every replacement came from the bump region past the live prefix.
    assert_eq!(alloc.len() as u64, elements as u64 + stats.commits);
    // Overlapping-hood winners must be disjoint: check pairwise.
    let winners: Vec<usize> = won
        .iter()
        .enumerate()
        .filter(|(_, w)| w.load(Ordering::Acquire) == 1)
        .map(|(i, _)| i)
        .collect();
    for (i, &a) in winners.iter().enumerate() {
        for &b in &winners[i + 1..] {
            let ha: std::collections::HashSet<u32> = hoods[a].iter().copied().collect();
            assert!(
                hoods[b].iter().all(|e| !ha.contains(e)),
                "winners {a} and {b} overlap"
            );
        }
    }
}

#[test]
fn all_barriers_agree_on_the_composition() {
    // The same workload must hold its invariants under every barrier kind
    // (the kernel asserts internally).
    for kind in [
        morphgpu::gpu_sim::BarrierKind::NaiveAtomic,
        morphgpu::gpu_sim::BarrierKind::Hierarchical,
        morphgpu::gpu_sim::BarrierKind::SenseReversing,
    ] {
        let cfg = GpuConfig {
            num_sms: 3,
            warp_size: 4,
            blocks: 6,
            threads_per_block: 8,
            barrier: kind,
        };
        let nthreads = cfg.total_threads();
        let hoods: Vec<Vec<u32>> = (0..nthreads).map(|t| vec![(t % 24) as u32]).collect();
        let conflict = ConflictTable::new(24);
        let marks = DeletionMarks::new(1024);
        let alloc = BumpAllocator::new(24, 1024);
        let deleted_by: Vec<AtomicU32> = (0..1024).map(|_| AtomicU32::new(0)).collect();
        let owned: Vec<AtomicU32> = (0..1024).map(|_| AtomicU32::new(0)).collect();
        let won: Vec<AtomicU32> = (0..nthreads).map(|_| AtomicU32::new(0)).collect();
        let k = MiniMorph {
            hoods: &hoods,
            conflict: &conflict,
            marks: &marks,
            alloc: &alloc,
            deleted_by: &deleted_by,
            owned: &owned,
            won: &won,
        };
        let stats = VirtualGpu::new(cfg).launch(&k);
        // 24 distinct elements, each contended by 2 threads ⇒ exactly 24
        // commits.
        assert_eq!(stats.commits, 24, "{kind:?}");
    }
}
