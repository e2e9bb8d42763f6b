//! Virtual-GPU **pull-based two-phase** solver (paper §4 "GPU
//! Implementation", §6.4).
//!
//! "Processing of each constraint happens in two phases. In the first
//! phase, the constraints add edges to the graph. In the second phase,
//! the points-to information is propagated along these edges." Each node
//! keeps a chunked list of **incoming** neighbors (§7.1 Kernel-Only
//! allocation) and pulls from them, so "no synchronization is needed to
//! update the points-to information" — stale reads are safe because the
//! analysis is monotone.
//!
//! The §7.6 divergence optimisation ("we similarly move all pointer nodes
//! with enabled incoming edges to one side of the array") is applied by
//! the host between iterations.
//!
//! The chunk arena starts lean and grows under the §7.1 kernel-host
//! protocol: a denied chunk allocation raises an overflow flag, the host
//! regrows the arena between launches (via [`morph_core::run_morph`])
//! and the next phase-0 constraint re-scan re-derives any dropped edge —
//! safe because the analysis is monotone.

use crate::constraints::{Constraint, PtaProblem};
use crate::Solution;
use morph_core::compact::partition_active;
use morph_core::pipeline::marker;
use morph_core::runtime::{DriveError, HostAction, RecoveryOpts, StepCtx, StepReport};
use morph_core::{run_morph, AdaptiveParallelism, Morph, PayloadReader, PayloadWriter};
use morph_graph::sparse_bits::AtomicBitmap;
use morph_graph::ChunkedAdjacency;
use morph_gpu_sim::{
    AtomicU32Slice, BarrierKind, GpuConfig, Kernel, LaunchError, LaunchStats, ThreadCtx,
    TraceEvent, VirtualGpu,
};
use std::sync::atomic::{AtomicBool, Ordering};

/// Engine switches.
#[derive(Clone, Copy, Debug)]
pub struct PtaOpts {
    /// Apply the adaptive threads-per-block schedule (§7.4: 128 doubling
    /// to 1024 over the first three iterations).
    pub adaptive: bool,
    /// Host-side compaction of nodes with changed inputs (§7.6).
    pub divergence_sort: bool,
    /// Chunk size for the incoming-edge lists (paper: input-dependent,
    /// 512–4096; our graphs are smaller).
    pub chunk_size: usize,
}

impl Default for PtaOpts {
    fn default() -> Self {
        Self {
            adaptive: true,
            divergence_sort: true,
            chunk_size: 64,
        }
    }
}

/// Logical device windows for the solver's auxiliary arrays (disjoint
/// from the bitmap window `0x1000_0000_0000` and the chunk-arena window
/// `0x2000_0000_0000`), so morph-lens attributes their traffic per
/// structure.
const ORDER_DEV_BASE: usize = 0x6000_0000_0000;
const DIRTY_DEV_BASE: usize = 0x6010_0000_0000;

struct PtaKernel<'a> {
    prob: &'a PtaProblem,
    complex: &'a [Constraint],
    pts: &'a AtomicBitmap,
    incoming: &'a ChunkedAdjacency,
    /// Node processing order (compacted by the host when enabled).
    order: &'a AtomicU32Slice,
    /// 1 when the node's points-to set changed in the previous iteration.
    dirty: &'a AtomicU32Slice,
    changed: &'a AtomicBool,
    /// Raised when an edge was dropped because the chunk arena denied an
    /// allocation (genuine or fault-injected); tells the host to regrow.
    denied: &'a AtomicBool,
}

impl PtaKernel<'_> {
    /// Meter one points-to row's word loads: the bitmap owns its storage,
    /// so without this the solver's dominant global-memory traffic never
    /// reaches the coalescing meter (BENCH_5 reported a 0.0 coalescing
    /// factor for PTA for exactly this reason).
    fn meter_row(&self, ctx: &ThreadCtx<'_>, row: usize) {
        for w in 0..self.pts.words_per_row() {
            ctx.gmem_addr(self.pts.word_addr(row, w));
        }
    }

    /// Add `src → dst` unless present. On a denied chunk allocation the
    /// edge is simply dropped this round: the host regrows the arena and
    /// the next phase-0 re-scan re-derives it (monotone analysis).
    fn add_edge(&self, ctx: &ThreadCtx<'_>, dst: u32, src: u32) {
        // Metered membership walk over dst's chunk list (the arena's
        // slot loads are global-memory accesses too).
        let mut present = false;
        self.incoming.for_each_addr(dst, |x, addr| {
            ctx.gmem_addr(addr);
            if x == src {
                present = true;
            }
        });
        if present {
            return;
        }
        if ctx.fault_deny_alloc() || self.incoming.try_push(dst, src).is_err() {
            self.denied.store(true, Ordering::Release);
            return;
        }
        ctx.gmem_addr(DIRTY_DEV_BASE + src as usize * 4);
        self.dirty.store_relaxed(src as usize, 1);
        self.changed.store(true, Ordering::Release);
    }
}

impl Kernel for PtaKernel<'_> {
    fn phases(&self) -> usize {
        2
    }

    fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
        match phase {
            // Phase 1: constraints add incoming edges.
            0 => {
                let mut any = false;
                for i in ctx.chunked(self.complex.len()) {
                    any = true;
                    match self.complex[i] {
                        Constraint::Load { p, q } => {
                            // p = *q: each pointee v of q feeds p.
                            self.meter_row(ctx, q as usize);
                            self.pts.for_each(q as usize, |v| self.add_edge(ctx, p, v));
                        }
                        Constraint::Store { p, q } => {
                            // *p = q: q feeds each pointee v of p.
                            self.meter_row(ctx, p as usize);
                            self.pts.for_each(p as usize, |v| self.add_edge(ctx, v, q));
                        }
                        _ => unreachable!("complex holds only loads/stores"),
                    }
                }
                any
            }
            // Phase 2: pull along incoming edges.
            _ => {
                let n = self.prob.num_vars;
                let mut any = false;
                for oi in ctx.chunked(n) {
                    ctx.gmem_addr(ORDER_DEV_BASE + oi * 4);
                    let node = self.order.load_relaxed(oi);
                    let mut grew = false;
                    self.incoming.for_each_addr(node, |src, addr| {
                        ctx.gmem_addr(addr);
                        ctx.gmem_addr(DIRTY_DEV_BASE + src as usize * 4);
                        if src != node && self.dirty.load_relaxed(src as usize) != 0 {
                            // The word-parallel union reads every source
                            // word; attribute those loads too.
                            self.meter_row(ctx, src as usize);
                            if self.pts.union_rows(node as usize, src as usize) {
                                grew = true;
                            }
                        }
                    });
                    if grew {
                        any = true;
                        // Publish for the *next* iteration (phase barrier
                        // separates marking from this iteration's reads —
                        // a missed same-iteration read re-pulls next time).
                        ctx.gmem_addr(DIRTY_DEV_BASE + node as usize * 4);
                        self.dirty.store(node as usize, 2);
                        self.changed.store(true, Ordering::Release);
                    }
                }
                any
            }
        }
    }
}

/// Outcome with virtual-GPU counters.
#[derive(Debug)]
pub struct GpuSolveOutcome {
    pub solution: Solution,
    pub launch: LaunchStats,
    pub iterations: u64,
    /// Bytes allocated kernel-side for incoming-edge chunks.
    pub edge_bytes: usize,
    /// Failed launches that were re-run.
    pub retries: u32,
    /// Host-side chunk-arena regrows (§7.1 kernel-host round trips).
    pub regrows: u32,
}

/// Solve on the virtual GPU with `sms` workers.
///
/// # Panics
/// Panics if launches keep failing past the default recovery budgets; use
/// [`try_solve_with`] for structured errors or fault injection.
pub fn solve_with(prob: &PtaProblem, opts: PtaOpts, sms: usize) -> GpuSolveOutcome {
    try_solve_with(prob, opts, sms, &RecoveryOpts::default())
        .unwrap_or_else(|e| panic!("GPU points-to analysis failed: {e}"))
}

/// The two-phase solver as a [`Morph`] pipeline: one launch per
/// iteration.
struct PtaMorph<'a> {
    prob: &'a PtaProblem,
    opts: PtaOpts,
    sms: usize,
    complex: Vec<Constraint>,
    pts: AtomicBitmap,
    incoming: ChunkedAdjacency,
    /// 1 when the node's points-to set changed in the previous iteration.
    dirty: AtomicU32Slice,
    /// Node processing order (compacted by the host when enabled).
    order: AtomicU32Slice,
    /// The serial fixpoint, computed on the oracle's first run.
    #[cfg(feature = "morph-check")]
    reference: Option<Solution>,
}

impl<'a> PtaMorph<'a> {
    /// Seed the points-to sets from the address-of constraints, build the
    /// copy edges on the host and keep the loads and stores for phase 0.
    fn new(prob: &'a PtaProblem, opts: PtaOpts, sms: usize) -> Self {
        let n = prob.num_vars;
        let pts = AtomicBitmap::new(n, n.max(1));
        // Start the chunk arena lean (§7.1 kernel-host: "allocate a little
        // more than half of the available memory…and grow on overflow"):
        // the recovering driver regrows it on demand, so no worst-case
        // O(n²) pre-allocation is needed.
        let mut incoming = ChunkedAdjacency::new(n, opts.chunk_size, n + 64);
        let dirty = AtomicU32Slice::new(n, 0);
        let mut complex: Vec<Constraint> = Vec::new();
        for &c in &prob.constraints {
            match c {
                Constraint::AddressOf { p, q } => {
                    pts.set(p as usize, q);
                    dirty.store_relaxed(p as usize, 1);
                }
                Constraint::Copy { p, q } => {
                    if p != q {
                        // Host-side setup may outgrow the lean arena; regrow
                        // inline (host code never needs the overflow
                        // protocol).
                        while incoming.try_push(p, q).is_err() {
                            incoming.clear_overflow();
                            incoming.grow_chunks(incoming.max_chunks() * 2);
                        }
                        dirty.store_relaxed(q as usize, 1);
                    }
                }
                c => complex.push(c),
            }
        }
        Self {
            prob,
            opts,
            sms,
            complex,
            pts,
            incoming,
            dirty,
            order: AtomicU32Slice::from_vec((0..n as u32).collect()),
            #[cfg(feature = "morph-check")]
            reference: None,
        }
    }
}

impl Morph for PtaMorph<'_> {
    const ALGO: &'static str = "pta";
    /// `"PT"` + layout version.
    const TAG: u32 = 0x5054_0001;
    const CHECK: &'static str = "oracle.pta.fixpoint";
    /// The raw points-to words: the whole fixpoint state. Incoming-edge
    /// lists are not saved — the host rebuilds copy edges and phase 0
    /// re-derives load/store edges (kernel-only allocation makes them pure
    /// cache, §7.1).
    type Snapshot = Vec<u64>;

    fn config(&mut self) -> (GpuConfig, Option<AdaptiveParallelism>) {
        let n = self.prob.num_vars;
        let sched = if self.opts.adaptive {
            AdaptiveParallelism::pta()
        } else {
            AdaptiveParallelism::fixed(512)
        };
        let config = GpuConfig {
            num_sms: self.sms,
            warp_size: 32,
            blocks: AdaptiveParallelism::blocks_for_input(
                self.sms,
                n.max(self.complex.len()),
                2048,
            ),
            threads_per_block: sched.initial_tpb,
            barrier: BarrierKind::SenseReversing,
        };
        (config, Some(sched))
    }

    fn lens_regions(&self) -> Vec<(&'static str, usize, usize)> {
        let n = self.prob.num_vars;
        let (pts_base, pts_len) = self.pts.dev_extent();
        let (arena_base, arena_len) = self.incoming.dev_extent();
        vec![
            ("pta.pts_bitmap", pts_base, pts_len),
            ("pta.chunk_arena", arena_base, arena_len),
            ("pta.node_order", ORDER_DEV_BASE, n * 4),
            ("pta.dirty_worklist", DIRTY_DEV_BASE, n * 4),
        ]
    }

    fn regrow(&mut self, capacity: usize) {
        self.incoming.clear_overflow();
        self.incoming.grow_chunks(capacity);
    }

    fn step(&mut self, gpu: &mut VirtualGpu, ctx: &StepCtx) -> Result<StepReport, LaunchError> {
        let n = self.prob.num_vars;
        let changed = AtomicBool::new(false);
        let denied = AtomicBool::new(false);
        let k = PtaKernel {
            prob: self.prob,
            complex: &self.complex,
            pts: &self.pts,
            incoming: &self.incoming,
            order: &self.order,
            dirty: &self.dirty,
            changed: &changed,
            denied: &denied,
        };
        let stats = gpu.try_launch(&k)?;

        if self.incoming.overflowed() || denied.load(Ordering::Acquire) {
            // A dropped edge means the iteration is incomplete: regrow and
            // re-run it. Dirty marks are left un-aged so already-published
            // growth stays visible to the re-run.
            return Ok(StepReport {
                stats,
                action: HostAction::Regrow(self.incoming.max_chunks() * 2),
                progressed: true,
            });
        }

        // Host: age dirty marks (2 → 1 → 0) so a node stays enabled for
        // exactly one iteration after its set changed.
        let mut any_dirty = false;
        for v in 0..n {
            match self.dirty.load_relaxed(v) {
                2 => {
                    self.dirty.store_relaxed(v, 1);
                    any_dirty = true;
                }
                1 => self.dirty.store_relaxed(v, 0),
                _ => {}
            }
        }
        let action = if !changed.load(Ordering::Acquire) && !any_dirty {
            HostAction::Stop
        } else {
            HostAction::Continue
        };
        // §7.6: nodes with enabled incoming edges to one side. Untuned,
        // this runs every iteration; under an attached autotuner it runs
        // only when the controller requests a layout fix (its reorder /
        // compact flags), so well-coalesced iterations skip the sort.
        let reorder_due = ctx.tune.is_none_or(|d| d.reorder || d.compact);
        if self.opts.divergence_sort && reorder_due && action == HostAction::Continue {
            let mut ids = self.order.to_vec();
            partition_active(&mut ids, |v| self.dirty.load_relaxed(v as usize) != 0);
            for (i, v) in ids.into_iter().enumerate() {
                self.order.store_relaxed(i, v);
            }
        }
        Ok(StepReport {
            stats,
            action,
            // Fixpoint iterations terminate by running out of change, which
            // is exactly the Stop condition above — a livelock rescue is
            // never needed, only retry/regrow.
            progressed: true,
        })
    }

    /// How many nodes still have enabled incoming edges (the §7.6
    /// divergence-sort population) and the chunk-arena footprint (§7.1
    /// Kernel-Only allocation high water). None on a regrow step, whose
    /// iteration re-runs.
    fn markers(&self, iteration: u64, action: HostAction) -> Vec<TraceEvent> {
        if matches!(action, HostAction::Regrow(_)) {
            return Vec::new();
        }
        let n = self.prob.num_vars;
        let dirty_nodes = (0..n).filter(|&v| self.dirty.load_relaxed(v) != 0).count();
        vec![
            marker::<Self>(iteration, "dirty_nodes", dirty_nodes as f64),
            TraceEvent::Alloc {
                name: "pta.chunk_arena".into(),
                used: self.incoming.chunks_allocated() as u64,
                capacity: self.incoming.max_chunks() as u64,
            },
        ]
    }

    /// §6.4 fixpoint oracle against the serial CPU solver, guarded to
    /// small inputs (the reference is cubic-ish). `done` selects strict
    /// equality (at Stop) versus monotone soundness (mid-run, after a
    /// recovery escalation: every derived points-to bit must already be in
    /// the CPU fixpoint).
    #[cfg(feature = "morph-check")]
    fn oracle(&mut self, done: bool) -> Option<Result<(), String>> {
        if self.prob.num_vars > 256 {
            return Some(Ok(()));
        }
        let prob = self.prob;
        let want = self
            .reference
            .get_or_insert_with(|| crate::serial::solve(prob));
        for (v, want_row) in want.iter().enumerate() {
            let got = self.pts.row_to_vec(v);
            if done && got != *want_row {
                return Some(Err(format!(
                    "fixpoint mismatch at node {v}: gpu points-to {got:?} differs from CPU reference {want_row:?}"
                )));
            }
            if let Some(&q) = got.iter().find(|q| !want_row.contains(q)) {
                return Some(Err(format!(
                    "unsound points-to bit at node {v}: {q} is not in the CPU fixpoint"
                )));
            }
        }
        Some(Ok(()))
    }

    fn encode(&self, w: &mut PayloadWriter) {
        w.u64_slice(&self.pts.words_snapshot());
    }

    fn decode(&self, r: &mut PayloadReader<'_>) -> Option<Vec<u64>> {
        let words = r.u64_slice()?;
        (words.len() == self.pts.rows() * self.pts.words_per_row()).then_some(words)
    }

    /// Every node is marked dirty so the first resumed iteration re-pulls
    /// everything and phase 0 re-derives any load/store edge the snapshot
    /// pre-dates — both safe because the analysis is monotone.
    fn restore(&mut self, words: Vec<u64>, _completed: u64) {
        self.pts.restore_words(&words);
        for v in 0..self.prob.num_vars {
            self.dirty.store_relaxed(v, 1);
        }
    }
}

/// Fault-tolerant [`solve_with`] under the recovering driver: failed
/// launches are retried (safe — the analysis is monotone, so a half-run
/// kernel only leaves behind valid edges and points-to bits) and chunk-
/// arena exhaustion triggers a host regrow + re-scan.
pub fn try_solve_with(
    prob: &PtaProblem,
    opts: PtaOpts,
    sms: usize,
    recovery: &RecoveryOpts,
) -> Result<GpuSolveOutcome, DriveError> {
    let mut m = PtaMorph::new(prob, opts, sms);
    let outcome = run_morph(&mut m, recovery)?;
    Ok(GpuSolveOutcome {
        solution: (0..prob.num_vars).map(|v| m.pts.row_to_vec(v)).collect(),
        launch: outcome.stats,
        iterations: outcome.iterations,
        edge_bytes: m.incoming.bytes_allocated(),
        retries: outcome.retries,
        regrows: outcome.regrows,
    })
}

/// Solve with default options.
pub fn solve(prob: &PtaProblem, sms: usize) -> Solution {
    solve_with(prob, PtaOpts::default(), sms).solution
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_matches_serial() {
        let (prob, _) = PtaProblem::fig5();
        assert_eq!(solve(&prob, 2), crate::serial::solve(&prob));
    }

    #[test]
    fn random_problems_match_serial_all_option_combos() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..4 {
            let n = 50;
            let mut prob = PtaProblem::new(n);
            for _ in 0..140 {
                let p = rng.gen_range(0..n as u32);
                let q = rng.gen_range(0..n as u32);
                prob.add(match rng.gen_range(0..4) {
                    0 => Constraint::AddressOf { p, q },
                    1 => Constraint::Copy { p, q },
                    2 => Constraint::Load { p, q },
                    _ => Constraint::Store { p, q },
                });
            }
            let want = crate::serial::solve(&prob);
            for adaptive in [false, true] {
                for sort in [false, true] {
                    let opts = PtaOpts {
                        adaptive,
                        divergence_sort: sort,
                        chunk_size: 8,
                    };
                    let got = solve_with(&prob, opts, 3);
                    assert_eq!(
                        got.solution, want,
                        "trial {trial} adaptive={adaptive} sort={sort}"
                    );
                    assert!(got.edge_bytes > 0);
                }
            }
        }
    }

    #[test]
    fn injected_alloc_denials_regrow_and_match_serial() {
        use morph_gpu_sim::FaultPlan;
        use std::sync::Arc;

        // Load/store constraints force kernel-side edge allocations.
        let mut prob = PtaProblem::new(8);
        for i in 0..7u32 {
            prob.add(Constraint::AddressOf { p: i, q: i + 1 });
        }
        prob.add(Constraint::Load { p: 6, q: 0 });
        prob.add(Constraint::Store { p: 0, q: 5 });
        prob.add(Constraint::Load { p: 7, q: 6 });
        let want = crate::serial::solve(&prob);

        let recovery = RecoveryOpts {
            fault_plan: Some(Arc::new(FaultPlan::new().with_alloc_denial(0, 2))),
            ..RecoveryOpts::default()
        };
        let got = try_solve_with(&prob, PtaOpts::default(), 2, &recovery)
            .expect("denials must be absorbed by regrows");
        assert_eq!(got.solution, want);
        assert!(got.regrows >= 1, "a denied alloc must trigger a regrow");
    }

    #[test]
    fn tiny_arena_grows_on_demand() {
        use rand::prelude::*;
        // A dense-ish random instance overflowing the lean initial arena
        // exercises the genuine (non-injected) regrow path.
        let mut rng = StdRng::seed_from_u64(99);
        let n = 40;
        let mut prob = PtaProblem::new(n);
        for _ in 0..400 {
            let p = rng.gen_range(0..n as u32);
            let q = rng.gen_range(0..n as u32);
            prob.add(match rng.gen_range(0..4) {
                0 => Constraint::AddressOf { p, q },
                1 => Constraint::Copy { p, q },
                2 => Constraint::Load { p, q },
                _ => Constraint::Store { p, q },
            });
        }
        let opts = PtaOpts {
            chunk_size: 1, // one edge per chunk ⇒ maximal arena pressure
            ..PtaOpts::default()
        };
        let got = solve_with(&prob, opts, 3);
        assert_eq!(got.solution, crate::serial::solve(&prob));
    }

    #[test]
    fn checkpoint_resume_reaches_the_same_fixpoint() {
        use morph_core::runtime::RecoveryPolicy;
        use morph_core::{CheckpointCtl, CheckpointStore};
        use morph_gpu_sim::FaultPlan;
        use rand::prelude::*;
        use std::sync::Arc;

        let mut rng = StdRng::seed_from_u64(123);
        let n = 50;
        let mut prob = PtaProblem::new(n);
        for _ in 0..140 {
            let p = rng.gen_range(0..n as u32);
            let q = rng.gen_range(0..n as u32);
            prob.add(match rng.gen_range(0..4) {
                0 => Constraint::AddressOf { p, q },
                1 => Constraint::Copy { p, q },
                2 => Constraint::Load { p, q },
                _ => Constraint::Store { p, q },
            });
        }
        let want = crate::serial::solve(&prob);

        // First attempt: zero retry budget and a panic at launch 2
        // (0-based) — dies after checkpointing iterations 0 and 1.
        let store = Arc::new(CheckpointStore::in_memory());
        let ctl = CheckpointCtl::new(store.clone(), 11);
        let first = RecoveryOpts {
            policy: RecoveryPolicy {
                max_retries: 0,
                ..RecoveryPolicy::default()
            },
            fault_plan: Some(Arc::new(FaultPlan::new().with_kernel_panic(2, 0, 0, 0))),
            checkpoint: Some(ctl.clone()),
            ..RecoveryOpts::default()
        };
        try_solve_with(&prob, PtaOpts::default(), 3, &first)
            .expect_err("zero retry budget must surface the panic");
        let saved = store.load(11).expect("early iterations were checkpointed");
        assert_eq!(saved.algo, "pta");

        // Resume: restored bits + all-dirty re-pull reach the identical
        // fixpoint, with the replayed iterations credited.
        let second = RecoveryOpts {
            checkpoint: Some(ctl),
            ..RecoveryOpts::default()
        };
        let got = try_solve_with(&prob, PtaOpts::default(), 3, &second).expect("clean resume");
        assert_eq!(got.solution, want);
        assert!(got.iterations > 2, "resume must credit replayed iterations");
    }

    #[test]
    fn foreign_checkpoint_payload_is_refused() {
        use morph_core::pipeline::resume;

        let mut prob = PtaProblem::new(4);
        prob.add(Constraint::AddressOf { p: 0, q: 3 });
        let mut m = PtaMorph::new(&prob, PtaOpts::default(), 1);
        assert_eq!(resume(&mut m, &[]), None);
        // Right tag, wrong shape.
        let tiny = PtaProblem::new(1);
        let mut w = PayloadWriter::new();
        w.u32(PtaMorph::TAG);
        w.u64(9);
        PtaMorph::new(&tiny, PtaOpts::default(), 1).encode(&mut w);
        assert_eq!(resume(&mut m, &w.finish()), None);
        assert!(m.pts.get(0, 3), "no partial mutation");
    }

    #[test]
    fn self_loops_and_duplicates_are_safe() {
        let mut prob = PtaProblem::new(3);
        prob.add(Constraint::AddressOf { p: 0, q: 2 });
        prob.add(Constraint::Copy { p: 0, q: 0 });
        prob.add(Constraint::Copy { p: 1, q: 0 });
        prob.add(Constraint::Copy { p: 1, q: 0 });
        assert_eq!(solve(&prob, 2), crate::serial::solve(&prob));
    }
}
