//! The virtual-GPU Boruvka pipeline (paper §5 "GPU Implementation").
//!
//! "The first kernel identifies the minimum edge of each node whose other
//! endpoint is in another component. The second kernel isolates the
//! minimum inter-component edge for each component. … All components in a
//! cycle are then merged … The process repeats until there is a single
//! component." Components are a partition maintained in a union-find
//! (§6.5: "the newly formed components can be handled by reshuffling the
//! nodes in an array" — pre-allocation, nothing grows); the original
//! adjacency lists are never modified, so "the cost of merging increases
//! with the number of nodes rather than with the number of edges" — the
//! property that makes the GPU version win on dense graphs (Fig. 11).
//!
//! Rounds are driven launch-per-round by [`morph_core::run_morph`].
//! Retrying a half-run round is safe because every value a `best` slot
//! ever holds is the minimum (under the weight-then-edge-id total order)
//! edge crossing *some* component cut, so by the cut property it belongs
//! to the MST no matter when the union is applied — but stale slots must
//! be cleared before the re-run, since a stale (already-union-ed) minimum
//! can mask the current component minimum through the `atomicMin` and
//! stop the round count short.

use crate::MstResult;
use morph_core::pipeline::marker;
use morph_core::runtime::{DriveError, HostAction, RecoveryOpts, StepCtx, StepReport};
use morph_core::{run_morph, AdaptiveParallelism, Morph, PayloadReader, PayloadWriter};
use morph_graph::{Csr, UnionFind};
use morph_gpu_sim::{
    AtomicU64Slice, BarrierKind, GpuConfig, Kernel, LaunchError, LaunchStats, ThreadCtx,
    TraceEvent, VirtualGpu,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

const NONE: u64 = u64::MAX;

/// Logical device windows for the Borůvka structures (cost model /
/// morph-lens): the union-find parent array, the read-only CSR edge
/// records, the per-component `best` slots, and the weight/edge-count
/// accumulator words.
const MST_DEV_BASE: usize = 0x5000_0000_0000;
const MST_STRIDE: usize = 0x0008_0000_0000;
const COMPONENTS_BASE: usize = MST_DEV_BASE;
const CSR_EDGES_BASE: usize = MST_DEV_BASE + MST_STRIDE;
const BEST_BASE: usize = MST_DEV_BASE + 2 * MST_STRIDE;
const ACCUM_BASE: usize = MST_DEV_BASE + 3 * MST_STRIDE;

#[inline]
fn pack(w: u32, edge: u32) -> u64 {
    ((w as u64) << 32) | edge as u64
}

struct BoruvkaKernel<'a> {
    g: &'a Csr,
    edge_src: &'a [u32],
    uf: &'a UnionFind,
    /// Kernel 1+2 output: per-component minimum inter-component edge.
    best: &'a AtomicU64Slice,
    weight: &'a AtomicU64,
    edges: &'a AtomicUsize,
    /// Fresh per round: set when this round merged at least two components.
    changed: &'a AtomicBool,
}

impl Kernel for BoruvkaKernel<'_> {
    fn phases(&self) -> usize {
        3
    }

    fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
        let n = self.g.num_nodes();
        match phase {
            // Kernel 1+2: per-node scan, atomic-min into the component
            // slot (the per-node minimum of kernel 1 and the
            // per-component isolation of kernel 2 fuse into one
            // reduction; the reduction tree is the atomicMin).
            0 => {
                let mut any = false;
                for v in ctx.chunked(n) {
                    let v = v as u32;
                    ctx.gmem_addr(COMPONENTS_BASE + v as usize * 4);
                    let my = self.uf.find(v);
                    let mut local = NONE;
                    for e in self.g.edge_range(v) {
                        ctx.gmem_addr(CSR_EDGES_BASE + e * 8);
                        let dst = self.g.edge_dst(e);
                        ctx.gmem_addr(COMPONENTS_BASE + dst as usize * 4);
                        if self.uf.find(dst) != my {
                            local = local.min(pack(self.g.edge_weight(e), e as u32));
                        }
                    }
                    if local != NONE {
                        ctx.atomic_min_u64_at(
                            self.best.at(my as usize),
                            local,
                            BEST_BASE + my as usize * 8,
                        );
                        any = true;
                    }
                }
                any
            }
            // Kernel 3: cycle handling. Mutual-best pairs and longer
            // equal-weight cycles are resolved by the union-find itself:
            // the union toward the minimum root id succeeds exactly
            // component-count − 1 times around any cycle (the paper's
            // min-id cycle representative).
            1 => {
                let mut any = false;
                for c in ctx.chunked(n) {
                    ctx.gmem_addr(BEST_BASE + c * 8);
                    let cand = self.best.load(c);
                    if cand == NONE {
                        continue;
                    }
                    any = true;
                    let e = (cand & 0xffff_ffff) as usize;
                    ctx.gmem_addr(CSR_EDGES_BASE + e * 8);
                    let u = self.edge_src[e];
                    let v = self.g.edge_dst(e);
                    ctx.gmem_addr(COMPONENTS_BASE + u as usize * 4);
                    ctx.gmem_addr(COMPONENTS_BASE + v as usize * 4);
                    if self.uf.union(u, v) {
                        ctx.atomic_add_u64_at(self.weight, cand >> 32, ACCUM_BASE);
                        ctx.gmem_addr(ACCUM_BASE + 8);
                        self.edges.fetch_add(1, Ordering::AcqRel);
                        self.changed.store(true, Ordering::Release);
                    }
                }
                any
            }
            // Kernel 4: reset component slots for the next round (the
            // paper's merge kernel also re-initialises per-component
            // state).
            _ => {
                let mut any = false;
                for c in ctx.chunked(n) {
                    ctx.gmem_addr(BEST_BASE + c * 8);
                    if self.best.load_relaxed(c) != NONE {
                        self.best.store_relaxed(c, NONE);
                        any = true;
                    }
                }
                any
            }
        }
    }
}

/// Outcome with virtual-GPU counters.
#[derive(Debug)]
pub struct GpuMstOutcome {
    pub result: MstResult,
    pub launch: LaunchStats,
    /// Failed launches that were re-run.
    pub retries: u32,
}

/// Minimum spanning forest on the virtual GPU with `sms` workers.
///
/// # Panics
/// Panics if launches keep failing past the default recovery budgets; use
/// [`try_mst_with_stats`] for structured errors or fault injection.
pub fn mst_with_stats(g: &Csr, sms: usize) -> GpuMstOutcome {
    try_mst_with_stats(g, sms, &RecoveryOpts::default())
        .unwrap_or_else(|e| panic!("GPU MST failed: {e}"))
}

/// Borůvka as a [`Morph`] pipeline: one launch per round.
struct MstMorph<'a> {
    g: &'a Csr,
    sms: usize,
    edge_src: Vec<u32>,
    uf: UnionFind,
    /// Kernel 1+2 output: per-component minimum inter-component edge.
    best: AtomicU64Slice,
    weight: AtomicU64,
    edges: AtomicUsize,
    /// The Kruskal forest, computed on the oracle's first run.
    #[cfg(feature = "morph-check")]
    reference: Option<MstResult>,
}

impl<'a> MstMorph<'a> {
    fn new(g: &'a Csr, sms: usize) -> Self {
        let n = g.num_nodes();
        let mut edge_src = vec![0u32; g.num_edges()];
        for v in 0..n as u32 {
            for e in g.edge_range(v) {
                edge_src[e] = v;
            }
        }
        Self {
            g,
            sms,
            edge_src,
            uf: UnionFind::new(n),
            best: AtomicU64Slice::new(n, NONE),
            weight: AtomicU64::new(0),
            edges: AtomicUsize::new(0),
            #[cfg(feature = "morph-check")]
            reference: None,
        }
    }
}

impl Morph for MstMorph<'_> {
    const ALGO: &'static str = "mst";
    /// `"MS"` + layout version.
    const TAG: u32 = 0x4d53_0001;
    const CHECK: &'static str = "oracle.mst.end_state";
    /// `(weight, edges, union-find roots)`: with the completed-round count
    /// they determine the remaining rounds. `best` slots are not saved — a
    /// resumed run starts them at NONE, the state kernel 4 leaves.
    type Snapshot = (u64, usize, Vec<u32>);

    fn config(&mut self) -> (GpuConfig, Option<AdaptiveParallelism>) {
        let n = self.g.num_nodes();
        let config = GpuConfig {
            num_sms: self.sms,
            warp_size: 32,
            blocks: AdaptiveParallelism::blocks_for_input(self.sms, n, 4096),
            threads_per_block: 64,
            barrier: BarrierKind::SenseReversing,
        };
        // No schedule: rounds are topology-driven over a shrinking component
        // forest, with no compaction or layout knob for a tuner to actuate.
        (config, None)
    }

    fn lens_regions(&self) -> Vec<(&'static str, usize, usize)> {
        let n = self.g.num_nodes();
        vec![
            ("mst.components", COMPONENTS_BASE, n * 4),
            ("mst.csr_edges", CSR_EDGES_BASE, self.g.num_edges() * 8),
            ("mst.best_edges", BEST_BASE, n * 8),
            ("mst.accumulators", ACCUM_BASE, 16),
        ]
    }

    fn step(&mut self, gpu: &mut VirtualGpu, ctx: &StepCtx) -> Result<StepReport, LaunchError> {
        if ctx.attempt > 0 {
            // Clear survivors of the failed attempt (kernel 4 may not have
            // run); see the module docs for why the unions themselves are
            // safe to keep.
            for c in 0..self.g.num_nodes() {
                self.best.store_relaxed(c, NONE);
            }
        }
        let changed = AtomicBool::new(false);
        let k = BoruvkaKernel {
            g: self.g,
            edge_src: &self.edge_src,
            uf: &self.uf,
            best: &self.best,
            weight: &self.weight,
            edges: &self.edges,
            changed: &changed,
        };
        let stats = gpu.try_launch(&k)?;
        let action = if changed.load(Ordering::Acquire) {
            HostAction::Continue
        } else {
            HostAction::Stop
        };
        Ok(StepReport {
            stats,
            action,
            // A round that merges nothing is the Stop condition, not a
            // livelock; the rescue ladder is not meaningful here.
            progressed: true,
        })
    }

    /// Components remaining after this round's merges ("the process
    /// repeats until there is a single component") — the MST analogue of
    /// the Fig. 2 series.
    fn markers(&self, iteration: u64, _action: HostAction) -> Vec<TraceEvent> {
        let components = self.g.num_nodes() as u64 - self.edges.load(Ordering::Acquire) as u64;
        vec![marker::<Self>(iteration, "components", components as f64)]
    }

    /// §6.5 spanning-forest oracle. At any point the accepted edge count
    /// must equal `n − components` (every union adds exactly one tree edge)
    /// and the accumulated weight can never exceed the Kruskal optimum
    /// (each accepted edge is a cut-property MST edge); at completion both
    /// must match the Kruskal reference exactly.
    #[cfg(feature = "morph-check")]
    fn oracle(&mut self, done: bool) -> Option<Result<(), String>> {
        let g = self.g;
        let n = g.num_nodes();
        let weight = self.weight.load(Ordering::Acquire);
        let edges = self.edges.load(Ordering::Acquire);
        let components = (0..n as u32).filter(|&v| self.uf.find(v) == v).count();
        if edges != n - components {
            return Some(Err(format!(
                "{edges} accepted edges but the union-find splits {n} nodes into {components} \
                 components; a spanning forest needs {}",
                n - components
            )));
        }
        let want = self.reference.get_or_insert_with(|| crate::kruskal::mst(g));
        Some(if weight > want.weight {
            Err(format!(
                "accumulated weight {weight} exceeds the Kruskal optimum {}",
                want.weight
            ))
        } else if done && (edges != want.edges || weight != want.weight) {
            Err(format!(
                "final forest has {edges} edges / weight {weight}, Kruskal reference has {} / {}",
                want.edges, want.weight
            ))
        } else {
            Ok(())
        })
    }

    fn encode(&self, w: &mut PayloadWriter) {
        w.u64(self.weight.load(Ordering::Acquire));
        w.u64(self.edges.load(Ordering::Acquire) as u64);
        w.u32_slice(&self.uf.snapshot());
    }

    fn decode(&self, r: &mut PayloadReader<'_>) -> Option<Self::Snapshot> {
        let weight = r.u64()?;
        let edges = r.u64()? as usize;
        let parents = r.u32_slice()?;
        (parents.len() == self.uf.len()).then_some((weight, edges, parents))
    }

    fn restore(&mut self, (weight, edges, parents): Self::Snapshot, _completed: u64) {
        self.uf.restore(&parents);
        self.weight.store(weight, Ordering::Release);
        self.edges.store(edges, Ordering::Release);
    }
}

/// Fault-tolerant [`mst_with_stats`]: one launch per Boruvka round under
/// the recovering driver. On a retry (`attempt > 0`) the host clears every
/// `best` slot first — unions already applied by the half-run round are
/// kept (each is an MST edge by the cut property), but stale minima must
/// not shadow the re-run's `atomicMin` reduction.
pub fn try_mst_with_stats(
    g: &Csr,
    sms: usize,
    recovery: &RecoveryOpts,
) -> Result<GpuMstOutcome, DriveError> {
    if g.num_nodes() == 0 {
        return Ok(GpuMstOutcome {
            result: MstResult::default(),
            launch: LaunchStats::default(),
            retries: 0,
        });
    }
    let mut m = MstMorph::new(g, sms);
    let outcome = run_morph(&mut m, recovery)?;
    Ok(GpuMstOutcome {
        result: MstResult {
            weight: m.weight.load(Ordering::Acquire),
            edges: m.edges.load(Ordering::Acquire),
            rounds: outcome.iterations as usize,
        },
        launch: outcome.stats,
        retries: outcome.retries,
    })
}

/// Minimum spanning forest (result only).
pub fn mst(g: &Csr, sms: usize) -> MstResult {
    mst_with_stats(g, sms).result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal;
    use crate::testgraphs::*;

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..6 {
            let g = random_connected(250, 800, seed);
            let a = mst(&g, 4);
            let b = kruskal::mst(&g);
            assert_eq!(a.weight, b.weight, "seed {seed}");
            assert_eq!(a.edges, b.edges);
            assert!(a.rounds >= 1 && a.rounds < 32, "rounds {}", a.rounds);
        }
    }

    #[test]
    fn handles_ties() {
        for seed in 0..5 {
            let g = tied_weights(150, seed);
            assert_eq!(mst(&g, 3).weight, kruskal::mst(&g).weight, "seed {seed}");
        }
    }

    #[test]
    fn handles_disconnected() {
        let g = two_components(11);
        let r = mst(&g, 2);
        assert_eq!(r.weight, kruskal::mst(&g).weight);
        assert_eq!(r.edges, 38);
    }

    #[test]
    fn boruvka_rounds_are_logarithmic() {
        let g = random_connected(1024, 0, 3); // pure path: worst case still O(log n) rounds
        let r = mst(&g, 4);
        assert!(r.rounds <= 14, "rounds {}", r.rounds);
        assert_eq!(r.edges, 1023);
    }

    #[test]
    fn injected_panics_do_not_change_the_forest() {
        use morph_core::runtime::RecoveryOpts;
        use morph_gpu_sim::FaultPlan;
        use std::sync::Arc;

        let g = random_connected(250, 800, 2);
        let want = kruskal::mst(&g);
        // One panic per phase of round 1: exercises retry after a partial
        // min-reduction, after partial unions, and after a partial reset.
        for phase in 0..3 {
            let recovery = RecoveryOpts {
                fault_plan: Some(Arc::new(FaultPlan::new().with_kernel_panic(1, phase, 0, 0))),
                ..RecoveryOpts::default()
            };
            let out = try_mst_with_stats(&g, 4, &recovery)
                .expect("one panic must be absorbed by a retry");
            assert_eq!(out.result.weight, want.weight, "phase {phase}");
            assert_eq!(out.result.edges, want.edges, "phase {phase}");
            assert_eq!(out.retries, 1, "phase {phase}");
        }
    }

    #[test]
    fn checkpoint_resume_completes_the_forest() {
        use morph_core::runtime::{RecoveryOpts, RecoveryPolicy};
        use morph_core::{CheckpointCtl, CheckpointStore};
        use morph_gpu_sim::FaultPlan;
        use std::sync::Arc;

        let g = random_connected(250, 800, 4);
        let want = kruskal::mst(&g);

        // First attempt: zero retry budget and a panic injected at launch
        // 2 (0-based) — the run dies after completing (and checkpointing)
        // rounds 0 and 1.
        let store = Arc::new(CheckpointStore::in_memory());
        let ctl = CheckpointCtl::new(store.clone(), 7);
        let first = RecoveryOpts {
            policy: RecoveryPolicy {
                max_retries: 0,
                ..RecoveryPolicy::default()
            },
            fault_plan: Some(Arc::new(FaultPlan::new().with_kernel_panic(2, 0, 0, 0))),
            checkpoint: Some(ctl.clone()),
            ..RecoveryOpts::default()
        };
        try_mst_with_stats(&g, 4, &first).expect_err("zero retry budget must surface the panic");
        let saved = store.load(7).expect("rounds 0/1 were checkpointed");
        assert_eq!(saved.algo, "mst");
        assert_eq!(saved.iteration, 1);

        // Second attempt resumes from the snapshot and finishes the
        // forest; the replayed rounds are credited in `rounds`.
        let second = RecoveryOpts {
            checkpoint: Some(ctl),
            ..RecoveryOpts::default()
        };
        let out = try_mst_with_stats(&g, 4, &second).expect("clean resume");
        assert_eq!(out.result.weight, want.weight);
        assert_eq!(out.result.edges, want.edges);
        assert!(out.result.rounds > 2, "resume must credit the 2 replayed rounds");
    }

    #[test]
    fn foreign_checkpoint_payload_is_refused() {
        use morph_core::pipeline::resume;

        let g = random_connected(8, 8, 1);
        let mut m = MstMorph::new(&g, 1);
        assert_eq!(resume(&mut m, &[]), None);
        // Right tag, wrong partition size.
        let tiny = random_connected(2, 0, 1);
        let donor = MstMorph::new(&tiny, 1);
        donor.weight.store(5, Ordering::Release);
        let mut w = PayloadWriter::new();
        w.u32(MstMorph::TAG);
        w.u64(1);
        donor.encode(&mut w);
        assert_eq!(resume(&mut m, &w.finish()), None);
        assert_eq!(m.weight.load(Ordering::Acquire), 0, "no partial mutation");
    }

    #[test]
    fn stats_are_collected() {
        let g = random_connected(100, 200, 1);
        let out = mst_with_stats(&g, 2);
        assert!(out.launch.iterations >= 1);
        assert!(out.launch.atomics > 0);
        assert_eq!(out.result.weight, kruskal::mst(&g).weight);
    }
}
