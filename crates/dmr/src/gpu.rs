//! The virtual-GPU refinement kernel — the paper's Figure 3.
//!
//! Each host-loop iteration launches one kernel of four barrier-separated
//! phases:
//!
//! 0. **select & race** — lane 0 of every block compacts the bad triangles
//!    of the block's chunk into a shared-memory worklist (§7.5/§7.6; with
//!    `divergence_sort` off, each thread instead scans its own fixed
//!    sub-region and warps diverge); each thread expands the cavity of its candidate and
//!    race-marks the conflict set (§7.3 phase 1);
//! 1. **prioritycheck** (§7.3 phase 2; skipped in 2-phase mode);
//! 2. **check** (§7.3 phase 3);
//! 3. **commit** — winners delete the old cavity (recycling its slots,
//!    §7.2), bump-allocate any extra slots (§7.1), insert the new point
//!    and re-triangulate; losers back off and set `changed`.
//!
//! The host loop ([`refine_gpu`]) applies the adaptive-parallelism
//! schedule (§7.4), grows device storage on overflow (§7.1) and falls back
//! to a single-threaded launch if a live-lock is detected (§7.3:
//! "the next iteration can be invoked with just a single thread").

use crate::cavity::{build_cavity, retriangulate, Cavity, CavityOutcome, CavityScratch};
use crate::mesh::{Mesh, MeshState};
use crate::opts::DmrOpts;
use crate::serial::RefineStats;
use morph_core::addition::GrowthPolicy;
use morph_core::pipeline::marker;
use morph_core::runtime::{DriveError, HostAction, RecoveryOpts, RescueLevel, StepCtx, StepReport};
use morph_core::{
    run_morph, AdaptiveParallelism, ConflictTable, Morph, PayloadReader, PayloadWriter,
};
use morph_geometry::Coord;
use morph_gpu_sim::kernel::chunk_bounds;
use morph_gpu_sim::{
    BlockLocal, GpuConfig, Kernel, LaunchError, LaunchStats, ThreadCtx, TraceEvent, VirtualGpu,
};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::Instant;

/// Logical device window for the conflict-mark table (one `u32` per
/// triangle slot), disjoint from the mesh windows in `crate::mesh`.
const CONFLICT_DEV_BASE: usize = 0x3030_0000_0000;

struct ThreadSlot<C: Coord> {
    cavity: Option<Cavity<C>>,
    won: bool,
}

impl<C: Coord> Default for ThreadSlot<C> {
    fn default() -> Self {
        Self {
            cavity: None,
            won: false,
        }
    }
}

struct BlockState<C: Coord> {
    /// Compacted bad-triangle ids (shared-memory worklist, §7.5).
    queue: Vec<u32>,
    scratch: CavityScratch,
    slots: Vec<ThreadSlot<C>>,
}

impl<C: Coord> BlockState<C> {
    fn new() -> Self {
        Self {
            queue: Vec::new(),
            scratch: CavityScratch::default(),
            slots: Vec::new(),
        }
    }
}

struct RefineKernel<'a, C: Coord> {
    mesh: &'a Mesh<C>,
    conflict: &'a ConflictTable,
    state: &'a BlockLocal<BlockState<C>>,
    opts: DmrOpts,
    /// Triangle-slot high-water at launch time (fixes chunk partitioning
    /// for this launch; slots created during the launch are scanned next
    /// launch).
    slots_hint: usize,
    changed: AtomicBool,
    overflow: AtomicBool,
    refined: AtomicU32,
    frozen: AtomicU32,
}

impl<C: Coord> RefineKernel<'_, C> {
    fn chunk(&self, ctx: &ThreadCtx<'_>) -> (usize, usize) {
        chunk_bounds(self.slots_hint, ctx.block, ctx.nblocks)
    }

    /// Report the conflict-mark words a neighborhood touches (race /
    /// prioritycheck / check all walk the same set).
    fn meter_conflict(&self, ctx: &ThreadCtx<'_>, elems: &[u32]) {
        for &e in elems {
            ctx.gmem_addr(CONFLICT_DEV_BASE + e as usize * 4);
        }
    }

    /// Report the mesh rows a built cavity read: triangle + neighbor rows
    /// for every cavity member, and the coordinate pairs of the seed.
    fn meter_cavity(&self, ctx: &ThreadCtx<'_>, c: &Cavity<C>, seed: u32) {
        for &t in &c.tris {
            self.mesh.meter_tri(ctx, t);
            self.mesh.meter_nbrs(ctx, t);
        }
        for v in self.mesh.tri(seed) {
            self.mesh.meter_coords(ctx, v);
        }
    }
}

impl<C: Coord> Kernel for RefineKernel<'_, C> {
    fn phases(&self) -> usize {
        4
    }

    fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
        let tib = ctx.thread_in_block;
        match phase {
            // -- select & race ------------------------------------------
            0 => {
                let (lo, hi) = self.chunk(ctx);
                if tib == 0 {
                    self.state.with(ctx, |st| {
                        if st.slots.len() < ctx.threads_per_block {
                            st.slots.resize_with(ctx.threads_per_block, ThreadSlot::default);
                        }
                        st.queue.clear();
                        for t in lo as u32..hi as u32 {
                            self.mesh.meter_flags(ctx, t);
                            if self.mesh.is_bad(t) {
                                st.queue.push(t);
                            }
                        }
                        if !st.queue.is_empty() {
                            self.changed.store(true, Ordering::Release);
                        }
                    });
                }
                let me = ctx.tid as u32;
                self.state.with(ctx, |st| {
                    let slot = &mut st.slots[tib];
                    slot.cavity = None;
                    slot.won = false;
                    let candidate = if self.opts.divergence_sort {
                        let q = st.queue.len();
                        if q <= ctx.threads_per_block {
                            st.queue.get(tib).copied()
                        } else {
                            // Spread candidates across the whole queue:
                            // bad triangles cluster spatially (cascades),
                            // and adjacent candidates mean overlapping
                            // cavities, i.e. aborts. Evenly-spaced picks
                            // keep the abort ratio down (§7.3/§7.5's
                            // pseudo-partitioning intuition).
                            st.queue.get(tib * q / ctx.threads_per_block).copied()
                        }
                    } else {
                        // Topology-driven without compaction: each thread
                        // scans its fixed sub-region of the block's chunk
                        // for its next bad triangle. Threads whose region
                        // is clean idle out ⇒ divergent warps — exactly
                        // the behaviour the §7.6 compaction (row 6) fixes.
                        let (slo, shi) =
                            chunk_bounds(hi - lo, tib, ctx.threads_per_block);
                        ((lo + slo) as u32..(lo + shi) as u32).find(|&t| {
                            self.mesh.meter_flags(ctx, t);
                            self.mesh.is_bad(t)
                        })
                    };
                    let Some(t) = candidate else { return false };
                    if !self.mesh.is_bad(t) {
                        return false;
                    }
                    match build_cavity(self.mesh, t, &mut st.scratch) {
                        CavityOutcome::Freeze => {
                            self.mesh.freeze(t);
                            self.frozen.fetch_add(1, Ordering::AcqRel);
                            false
                        }
                        CavityOutcome::Built(c) => {
                            self.meter_cavity(ctx, &c, t);
                            self.meter_conflict(ctx, &c.conflict);
                            self.conflict.race(c.conflict.iter().copied(), me);
                            slot.cavity = Some(c);
                            true
                        }
                    }
                })
            }
            // -- prioritycheck -------------------------------------------
            1 => {
                let me = ctx.tid as u32;
                self.state.with(ctx, |st| {
                    let slot = &mut st.slots[tib];
                    match &slot.cavity {
                        Some(c) => {
                            slot.won = if self.opts.three_phase {
                                self.meter_conflict(ctx, &c.conflict);
                                self.conflict.priority_check(c.conflict.iter().copied(), me)
                            } else {
                                true // 2-phase mode: decided in `check`
                            };
                            true
                        }
                        None => false,
                    }
                })
            }
            // -- check ---------------------------------------------------
            2 => {
                let me = ctx.tid as u32;
                self.state.with(ctx, |st| {
                    let slot = &mut st.slots[tib];
                    match &slot.cavity {
                        Some(c) => {
                            if slot.won {
                                self.meter_conflict(ctx, &c.conflict);
                                slot.won = self.conflict.check(c.conflict.iter().copied(), me);
                            }
                            true
                        }
                        None => false,
                    }
                })
            }
            // -- commit --------------------------------------------------
            _ => {
                let (cavity, won) = self.state.with(ctx, |st| {
                    let slot = &mut st.slots[tib];
                    (slot.cavity.take(), slot.won)
                });
                let Some(c) = cavity else { return false };
                if !won {
                    ctx.abort();
                    self.changed.store(true, Ordering::Release);
                    return true;
                }
                let need = c.num_new_tris();
                let recycled = need.min(c.tris.len());
                let extra = need - recycled;
                let extra_base = if extra > 0 {
                    match self.mesh.alloc.try_alloc(ctx, extra as u32) {
                        Some(b) => b,
                        None => {
                            self.overflow.store(true, Ordering::Release);
                            self.changed.store(true, Ordering::Release);
                            ctx.abort();
                            return true;
                        }
                    }
                } else {
                    0
                };
                let Some(vid) = self.mesh.add_vertex(ctx, c.center) else {
                    self.overflow.store(true, Ordering::Release);
                    self.changed.store(true, Ordering::Release);
                    ctx.abort();
                    return true;
                };
                let mut slots: Vec<u32> = c.tris[..recycled].to_vec();
                slots.extend((0..extra as u32).map(|i| extra_base + i));
                for &s in &slots {
                    self.mesh.meter_tri(ctx, s);
                    self.mesh.meter_nbrs(ctx, s);
                    self.mesh.meter_flags(ctx, s);
                }
                let new_bad = retriangulate(self.mesh, &c, vid, &slots);
                if new_bad > 0 {
                    self.changed.store(true, Ordering::Release);
                }
                self.refined.fetch_add(1, Ordering::AcqRel);
                ctx.commit();
                true
            }
        }
    }
}

/// Outcome of a GPU refinement run.
#[derive(Debug, Clone)]
pub struct GpuRefineOutcome {
    pub stats: RefineStats,
    /// Accumulated virtual-GPU counters over all launches.
    pub launch: LaunchStats,
    /// Host-loop iterations (kernel launches).
    pub iterations: u64,
    /// Livelock-rescue escalations (§7.3; only the 2-phase protocol should
    /// ever need them).
    pub rescues: u64,
    /// Launch attempts retried after a kernel failure.
    pub retries: u32,
    /// Capacity regrows performed (§7.1 Kernel-Host reallocations).
    pub regrows: u32,
    /// Final provisioned triangle capacity (the §7.1 memory-footprint
    /// metric: pre-allocation trades this for speed).
    pub peak_tri_capacity: usize,
}

/// Refine `mesh` on the virtual GPU with `sms` worker threads.
///
/// # Panics
/// Panics if refinement fails past the default recovery budgets; use
/// [`try_refine_gpu`] for structured error handling or fault injection.
pub fn refine_gpu<C: Coord>(mesh: &mut Mesh<C>, opts: DmrOpts, sms: usize) -> GpuRefineOutcome {
    try_refine_gpu(mesh, opts, sms, &RecoveryOpts::default())
        .unwrap_or_else(|e| panic!("GPU refinement failed: {e}"))
}

/// Refinement as a [`Morph`] pipeline: one launch per host iteration.
struct DmrMorph<'a, C: Coord> {
    mesh: &'a mut Mesh<C>,
    opts: DmrOpts,
    sms: usize,
    /// Triangle slots before the run; sizes on-demand regrows.
    initial: usize,
    /// Sized by [`Morph::config`] from the (possibly restored) mesh.
    conflict: ConflictTable,
    state: BlockLocal<BlockState<C>>,
    stats: RefineStats,
}

impl<'a, C: Coord> DmrMorph<'a, C> {
    /// Lay out and provision `mesh` for the run (§6.1, §7.1).
    fn new(mesh: &'a mut Mesh<C>, opts: DmrOpts, sms: usize) -> Self {
        if opts.layout_opt {
            mesh.reorder_for_locality();
        }
        let initial = mesh.num_slots();
        if !opts.on_demand_alloc {
            // §7.1 pre-allocation: one big provision up front.
            mesh.grow_tris(initial * 10 + 1024);
            mesh.grow_verts(mesh.num_verts() * 6 + 1024);
        } else {
            mesh.grow_tris(initial + initial / 4 + 256);
            mesh.grow_verts(mesh.num_verts() + mesh.num_verts() / 4 + 256);
        }
        Self {
            initial,
            mesh,
            opts,
            sms,
            conflict: ConflictTable::new(0),
            state: BlockLocal::new(0, |_| BlockState::new()),
            stats: RefineStats::default(),
        }
    }
}

impl<C: Coord> Morph for DmrMorph<'_, C> {
    const ALGO: &'static str = "dmr";
    /// `"DM"` + layout version.
    const TAG: u32 = 0x444d_0001;
    const CHECK: &'static str = "oracle.dmr.end_state";
    /// The host-accumulated refine/freeze counters and the full device
    /// mesh (see [`Mesh::encode_state`]). The conflict table and
    /// block-local scratch are per-launch state, rebuilt on resume.
    type Snapshot = (u64, u64, MeshState);

    fn config(&mut self) -> (GpuConfig, Option<AdaptiveParallelism>) {
        let blocks = AdaptiveParallelism::blocks_for_input(self.sms, self.mesh.num_slots(), 1024);
        self.conflict = ConflictTable::new(self.mesh.tri_capacity());
        self.state = BlockLocal::new(blocks, |_| BlockState::new());
        let sched = AdaptiveParallelism {
            initial_tpb: self.opts.base_tpb,
            growth_iters: if self.opts.adaptive { 3 } else { 0 },
            max_tpb: 1024,
        };
        let config = GpuConfig {
            num_sms: self.sms,
            warp_size: 32,
            blocks,
            threads_per_block: self.opts.base_tpb,
            barrier: self.opts.barrier,
        };
        (config, Some(sched))
    }

    fn lens_regions(&self) -> Vec<(&'static str, usize, usize)> {
        let mut regions = self.mesh.lens_regions().to_vec();
        regions.push(("dmr.conflict", CONFLICT_DEV_BASE, self.conflict.len() * 4));
        regions
    }

    /// §7.1 Kernel-Host: the kernel reported exhaustion; the host
    /// reallocates sized by the current bad count.
    fn regrow(&mut self, capacity: usize) {
        self.mesh.alloc.clear_overflow();
        let bad = self.mesh.bad_triangles().len();
        self.mesh.grow_tris(capacity);
        self.mesh.grow_verts(self.mesh.num_verts() + bad.max(64) * 2);
        self.conflict.grow(self.mesh.tri_capacity());
    }

    fn step(&mut self, gpu: &mut VirtualGpu, ctx: &StepCtx) -> Result<StepReport, LaunchError> {
        match ctx.rescue {
            // Perturb the priority order so a repeating winner pattern
            // breaks up; restore the paper's order once progress resumes.
            RescueLevel::Reshuffle => self
                .conflict
                .reshuffle_priorities(((ctx.iteration as u32).wrapping_mul(0x9E37_79B9) >> 1) | 1),
            RescueLevel::None => self.conflict.reshuffle_priorities(0),
            RescueLevel::Serial => {}
        }

        // §7.6 actuation point: untuned runs keep the static compaction
        // switch (row 6 of the opt ladder); with an autotuner attached the
        // controller's per-iteration `compact` request drives the
        // block-level queue compaction instead. The static switch still
        // acts as a master enable so ablation rows without compaction stay
        // comparable under `--autotune`.
        let mut step_opts = self.opts;
        if let Some(d) = ctx.tune {
            step_opts.divergence_sort = self.opts.divergence_sort && d.compact;
        }
        let mesh = &*self.mesh;
        let kernel = RefineKernel {
            mesh,
            conflict: &self.conflict,
            state: &self.state,
            opts: step_opts,
            slots_hint: mesh.num_slots(),
            changed: AtomicBool::new(false),
            overflow: AtomicBool::new(false),
            refined: AtomicU32::new(0),
            frozen: AtomicU32::new(0),
        };
        let launch = gpu.try_launch(&kernel)?;
        let changed = kernel.changed.load(Ordering::Acquire);
        let overflow = kernel.overflow.load(Ordering::Acquire)
            || mesh.alloc.overflowed()
            || mesh.vert_overflowed();
        let refined = kernel.refined.load(Ordering::Acquire) as u64;
        let frozen = kernel.frozen.load(Ordering::Acquire) as u64;
        self.stats.refined += refined;
        self.stats.frozen += frozen;

        let action = if overflow {
            let bad = mesh.bad_triangles().len();
            let policy = GrowthPolicy::OnDemand { over_alloc: 1.5 };
            HostAction::Regrow(policy.plan_capacity(
                self.initial,
                mesh.num_slots(),
                bad.max(64) * 8,
            ))
        } else if changed {
            HostAction::Continue
        } else {
            HostAction::Stop
        };
        Ok(StepReport {
            stats: launch,
            // A regrow is itself progress; only commit-free, overflow-free
            // iterations feed the livelock watchdog.
            progressed: refined > 0 || frozen > 0 || overflow,
            action,
        })
    }

    /// The paper's "bad triangles remaining" curve plus the triangle-pool
    /// high-water mark, on every step (a regrow step's too).
    fn markers(&self, iteration: u64, _action: HostAction) -> Vec<TraceEvent> {
        vec![
            marker::<Self>(
                iteration,
                "bad_triangles",
                self.mesh.bad_triangles().len() as f64,
            ),
            TraceEvent::Alloc {
                name: "dmr.tri_pool".into(),
                used: self.mesh.alloc.len() as u64,
                capacity: self.mesh.alloc.capacity() as u64,
            },
        ]
    }

    /// §6.1: adjacency must stay mutually consistent with no deleted-slot
    /// references at every recovery escalation, and at completion no bad
    /// triangle may remain.
    #[cfg(feature = "morph-check")]
    fn oracle(&mut self, done: bool) -> Option<Result<(), String>> {
        Some(self.mesh.validate(done))
    }

    fn encode(&self, w: &mut PayloadWriter) {
        w.u64(self.stats.refined);
        w.u64(self.stats.frozen);
        self.mesh.encode_state(w);
    }

    fn decode(&self, r: &mut PayloadReader<'_>) -> Option<Self::Snapshot> {
        Some((r.u64()?, r.u64()?, Mesh::<C>::read_state(r)?))
    }

    /// The mesh is overwritten, so an evicted refinement continues from its
    /// last iteration boundary on a freshly built mesh.
    fn restore(&mut self, (refined, frozen, state): Self::Snapshot, _completed: u64) {
        self.mesh.apply_state(state);
        self.stats.refined = refined;
        self.stats.frozen = frozen;
    }
}

/// Fault-tolerant [`refine_gpu`]: drives the host loop through
/// [`morph_core::run_morph`], so failed launches are retried (refinement
/// is idempotent over surviving bad triangles — a retried launch simply
/// re-scans the mesh), allocator overflow regrows capacity without losing
/// the iteration, and livelock escalates reshuffle → serial → error.
pub fn try_refine_gpu<C: Coord>(
    mesh: &mut Mesh<C>,
    opts: DmrOpts,
    sms: usize,
    recovery: &RecoveryOpts,
) -> Result<GpuRefineOutcome, DriveError> {
    let start = Instant::now();
    let mut m = DmrMorph::new(mesh, opts, sms);
    let outcome = run_morph(&mut m, recovery)?;

    let mut stats = m.stats;
    stats.aborted = outcome.stats.aborts;
    stats.wall = start.elapsed();
    Ok(GpuRefineOutcome {
        stats,
        launch: outcome.stats,
        iterations: outcome.iterations,
        rescues: outcome.rescues as u64,
        retries: outcome.retries,
        regrows: outcome.regrows,
        peak_tri_capacity: m.mesh.tri_capacity(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::OptLevel;
    use crate::serial::random_mesh;

    #[test]
    fn gpu_refines_to_quality() {
        let mut mesh = random_mesh(400, 21);
        assert!(mesh.stats().bad > 0);
        let out = refine_gpu(&mut mesh, DmrOpts::default(), 4);
        assert_eq!(mesh.stats().bad, 0);
        mesh.validate(true).unwrap_or_else(|e| panic!("{e}"));
        assert!(out.stats.refined > 0);
        assert!(out.iterations >= 1);
        assert!(out.launch.commits >= out.stats.refined);
        assert_eq!(out.rescues, 0, "3-phase must never live-lock");
    }

    #[test]
    fn every_ablation_level_is_correct() {
        for level in OptLevel::ALL {
            let mut mesh = random_mesh(150, 33);
            let out = refine_gpu(&mut mesh, level.opts(), 2);
            assert_eq!(
                mesh.stats().bad,
                0,
                "{}: bad triangles remain",
                level.label()
            );
            mesh.validate(true)
                .unwrap_or_else(|e| panic!("{}: {e}", level.label()));
            assert!(out.stats.refined > 0, "{}", level.label());
        }
    }

    #[test]
    fn f32_mesh_refines() {
        use morph_geometry::{triangulate, Point, TriQuality};
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let pts: Vec<Point<f32>> = (0..200)
            .map(|_| Point::snapped(rng.gen_range(0.0..400.0), rng.gen_range(0.0..400.0)))
            .collect();
        let t = triangulate(&pts).unwrap();
        let mut mesh = Mesh::from_triangulation(&t, TriQuality::scaled(28.0), 4.0, 4.0);
        refine_gpu(&mut mesh, DmrOpts::default(), 2);
        assert_eq!(mesh.stats().bad, 0);
        mesh.validate(true).unwrap();
    }

    #[test]
    fn on_demand_allocation_grows_less_memory() {
        let mut pre = random_mesh(300, 44);
        let mut od = random_mesh(300, 44);
        let o1 = refine_gpu(&mut pre, OptLevel::L7SinglePrecision.opts(), 2);
        let o2 = refine_gpu(&mut od, OptLevel::L8OnDemandAlloc.opts(), 2);
        assert!(
            o2.peak_tri_capacity < o1.peak_tri_capacity,
            "on-demand ({}) must provision less than pre-allocation ({})",
            o2.peak_tri_capacity,
            o1.peak_tri_capacity
        );
        assert_eq!(pre.stats().bad, 0);
        assert_eq!(od.stats().bad, 0);
    }

    #[test]
    fn conflicts_are_observed_under_contention() {
        // Many threads on a small mesh ⇒ overlapping cavities ⇒ aborts.
        let mut mesh = random_mesh(120, 55);
        let out = refine_gpu(&mut mesh, DmrOpts::default(), 4);
        assert_eq!(mesh.stats().bad, 0);
        // Abort counter is wired through (may legitimately be 0 on tiny
        // runs, but commits must be exact).
        assert_eq!(out.launch.commits, out.stats.refined);
    }

    #[test]
    fn checkpoint_resume_finishes_on_a_fresh_mesh() {
        use morph_core::runtime::RecoveryPolicy;
        use morph_core::{CheckpointCtl, CheckpointStore};
        use morph_gpu_sim::FaultPlan;
        use std::sync::Arc;

        // First attempt: zero retry budget and a panic at launch 2
        // (0-based) — dies after checkpointing iterations 0 and 1.
        let mut first_mesh = random_mesh(400, 77);
        let store = Arc::new(CheckpointStore::in_memory());
        let ctl = CheckpointCtl::new(store.clone(), 21);
        let first = RecoveryOpts {
            policy: RecoveryPolicy {
                max_retries: 0,
                ..RecoveryPolicy::default()
            },
            fault_plan: Some(Arc::new(FaultPlan::new().with_kernel_panic(2, 0, 0, 0))),
            checkpoint: Some(ctl.clone()),
            ..RecoveryOpts::default()
        };
        try_refine_gpu(&mut first_mesh, DmrOpts::default(), 4, &first)
            .expect_err("zero retry budget must surface the panic");
        let saved = store.load(21).expect("early iterations were checkpointed");
        assert_eq!(saved.algo, "dmr");
        let refined_at_ckpt = {
            let mut r = PayloadReader::new(&saved.payload);
            r.u32();
            r.u64();
            r.u64().unwrap()
        };

        // Resume on a *fresh* mesh built from the same problem — the
        // cross-slot scenario: nothing survives from the first device but
        // the checkpoint payload.
        let mut resumed_mesh = random_mesh(400, 77);
        let second = RecoveryOpts {
            checkpoint: Some(ctl),
            ..RecoveryOpts::default()
        };
        let out = try_refine_gpu(&mut resumed_mesh, DmrOpts::default(), 4, &second)
            .expect("clean resume");
        assert_eq!(resumed_mesh.stats().bad, 0);
        resumed_mesh.validate(true).unwrap_or_else(|e| panic!("{e}"));
        assert!(out.iterations > 2, "resume must credit replayed iterations");
        assert!(
            out.stats.refined >= refined_at_ckpt,
            "refine counter resumes from the snapshot ({} < {refined_at_ckpt})",
            out.stats.refined
        );
    }

    #[test]
    fn foreign_checkpoint_payload_is_refused() {
        use morph_core::pipeline::resume;

        let mut mesh = random_mesh(50, 5);
        let before = mesh.stats();
        let slots = mesh.num_slots();
        let mut m = DmrMorph::new(&mut mesh, DmrOpts::default(), 1);
        assert_eq!(resume(&mut m, &[]), None);
        assert_eq!(resume(&mut m, &[9; 7]), None);
        // Right tag, truncated body.
        let mut w = PayloadWriter::new();
        w.u32(DmrMorph::<f64>::TAG);
        w.u64(3);
        assert_eq!(resume(&mut m, &w.finish()), None);
        // A real payload plus one trailing byte.
        let mut donor = random_mesh(200, 6);
        let mut w = PayloadWriter::new();
        w.u32(DmrMorph::<f64>::TAG);
        w.u64(1);
        DmrMorph::new(&mut donor, DmrOpts::default(), 1).encode(&mut w);
        let mut payload = w.finish();
        payload.push(0);
        assert_eq!(resume(&mut m, &payload), None);
        assert_eq!(m.stats.refined, 0);
        assert_eq!(mesh.stats(), before, "no partial mutation");
        assert_eq!(mesh.num_slots(), slots);
    }

    #[test]
    fn gpu_result_matches_serial_quality() {
        let mut g = random_mesh(250, 66);
        let mut s = random_mesh(250, 66);
        refine_gpu(&mut g, DmrOpts::default(), 4);
        crate::serial::refine(&mut s);
        // Orders differ, meshes differ — but both are fully refined and
        // structurally valid ("different orders … lead to different
        // meshes, but all satisfy the quality constraints").
        assert_eq!(g.stats().bad, 0);
        assert_eq!(s.stats().bad, 0);
        g.validate(true).unwrap();
        s.validate(true).unwrap();
    }
}
