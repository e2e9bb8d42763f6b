//! Virtual-GPU SP engine (paper §3 "GPU Implementation", §6.3).
//!
//! A two-phase kernel launched once per sweep: phase 0 refreshes the
//! per-literal cached products (one thread per literal node), phase 1
//! updates the surveys of every live clause (one thread per clause node)
//! using the **cached** O(1) products — the optimisation the paper credits
//! for the GPU's near-linear scaling in K (Fig. 9). The factor-graph split
//! into separate clause and literal arrays (§6.3) is what makes this
//! two-kernel shape natural. Threads-per-block is fixed "because the graph
//! size mostly remains constant" (§7.4).
//!
//! Sweeps are driven by `morph_core::run_morph`: a sweep
//! is idempotent (it recomputes caches and surveys from the current state),
//! so a launch that dies mid-sweep is simply re-launched.

use crate::factor_graph::FactorGraph;
use crate::formula::Formula;
use crate::solver::{run_solver, SolveOutcome, SolveStats, SpParams};
use crate::surveys::{recompute_var_cache, update_clause, Surveys};
use morph_core::pipeline::marker;
use morph_core::runtime::{DriveError, HostAction, RecoveryOpts, StepCtx, StepReport};
use morph_core::{run_morph, AdaptiveParallelism, Morph, PayloadReader, PayloadWriter};
use morph_gpu_sim::{
    BarrierKind, GpuConfig, Kernel, LaunchError, LaunchStats, ThreadCtx, TraceEvent, VirtualGpu,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Logical device windows for the SP structures (cost model /
/// morph-lens): the per-variable cached products, the per-edge-slot η
/// surveys, and the single convergence-delta reduction word.
const SP_DEV_BASE: usize = 0x4000_0000_0000;
const SP_STRIDE: usize = 0x0008_0000_0000;
const VAR_CACHE_BASE: usize = SP_DEV_BASE;
const SURVEYS_BASE: usize = SP_DEV_BASE + SP_STRIDE;
const DELTA_BASE: usize = SP_DEV_BASE + 2 * SP_STRIDE;

struct SurveyKernel<'a> {
    fg: &'a FactorGraph,
    s: &'a Surveys,
    delta_bits: AtomicU64,
}

impl Kernel for SurveyKernel<'_> {
    fn phases(&self) -> usize {
        2
    }

    fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>) -> bool {
        match phase {
            // Literal kernel: refresh cached products.
            0 => {
                let mut any = false;
                for v in ctx.chunked(self.fg.num_vars) {
                    ctx.gmem_addr(VAR_CACHE_BASE + v * 8);
                    for &e in self.fg.var_edge_ids(v as u32) {
                        ctx.gmem_addr(SURVEYS_BASE + e as usize * 8);
                    }
                    recompute_var_cache(self.fg, self.s, v as u32);
                    any = true;
                }
                any
            }
            // Clause kernel: cached survey updates.
            _ => {
                let mut local = 0.0f64;
                let mut any = false;
                for a in ctx.chunked(self.fg.num_clauses) {
                    if self.fg.clause_deleted.is_deleted(a as u32) {
                        continue;
                    }
                    for e in self.fg.clause_slots(a) {
                        ctx.gmem_addr(SURVEYS_BASE + e * 8);
                        ctx.gmem_addr(VAR_CACHE_BASE + self.fg.edge_var(e) as usize * 8);
                    }
                    local = local.max(update_clause(self.fg, self.s, a, true));
                    any = true;
                }
                if local > 0.0 {
                    // Non-negative f64 bit patterns order like the floats,
                    // so a u64 atomicMax implements the f64 reduction.
                    ctx.atomic_max_u64_at(&self.delta_bits, local.to_bits(), DELTA_BASE);
                }
                any
            }
        }
    }
}

/// One propagation phase as a [`Morph`] pipeline: one launch per sweep.
struct SpMorph<'a> {
    fg: &'a FactorGraph,
    s: &'a Surveys,
    eps: f64,
    max_sweeps: usize,
    sms: usize,
    /// Completed sweeps, a restored checkpoint's included.
    sweeps: usize,
    /// The last sweep's max survey change.
    delta: f64,
}

impl<'a> SpMorph<'a> {
    fn new(fg: &'a FactorGraph, s: &'a Surveys, eps: f64, max_sweeps: usize, sms: usize) -> Self {
        Self {
            fg,
            s,
            eps,
            max_sweeps: max_sweeps.max(1),
            sms,
            sweeps: 0,
            delta: 0.0,
        }
    }
}

impl Morph for SpMorph<'_> {
    const ALGO: &'static str = "sp";
    /// `"SP"` + layout version.
    const TAG: u32 = 0x5350_0001;
    const CHECK: &'static str = "oracle.sp.surveys";
    /// The η survey bits of every edge slot. Sweeps are idempotent
    /// recomputations over the surveys, so restoring them and the sweep
    /// count reproduces the rest of the run exactly; the Π caches are
    /// recomputed by phase 0 of the next sweep and are not saved.
    type Snapshot = Vec<u64>;

    fn config(&mut self) -> (GpuConfig, Option<AdaptiveParallelism>) {
        let config = GpuConfig {
            num_sms: self.sms,
            warp_size: 32,
            blocks: AdaptiveParallelism::blocks_for_input(self.sms, self.fg.num_clauses, 1024),
            threads_per_block: 1024 / 32, // 32 warps of work per block is
            // hardware-realistic, but virtual threads are simulated serially,
            // so we keep blocks×tpb within a few× the worker count for speed.
            barrier: BarrierKind::SenseReversing,
        };
        // No schedule: "the graph size mostly remains constant" (§7.4), and
        // a sweep has no compaction or layout knob for a tuner to actuate.
        (config, None)
    }

    fn lens_regions(&self) -> Vec<(&'static str, usize, usize)> {
        vec![
            ("sp.var_cache", VAR_CACHE_BASE, self.fg.num_vars * 8),
            ("sp.surveys", SURVEYS_BASE, self.fg.num_edge_slots() * 8),
            ("sp.delta", DELTA_BASE, 8),
        ]
    }

    fn step(&mut self, gpu: &mut VirtualGpu, _ctx: &StepCtx) -> Result<StepReport, LaunchError> {
        let k = SurveyKernel {
            fg: self.fg,
            s: self.s,
            delta_bits: AtomicU64::new(0),
        };
        let stats = gpu.try_launch(&k)?;
        self.sweeps += 1;
        self.delta = f64::from_bits(k.delta_bits.load(Ordering::Acquire));
        let action = if self.delta < self.eps || self.sweeps >= self.max_sweeps {
            HostAction::Stop
        } else {
            HostAction::Continue
        };
        Ok(StepReport {
            stats,
            action,
            // Numerical convergence has its own bound (max_sweeps); the
            // livelock watchdog is not meaningful here.
            progressed: true,
        })
    }

    /// The max survey change this sweep (the series that decides the
    /// `delta < eps` exit) and the live-clause count (shrinks as the
    /// solver decimates).
    fn markers(&self, iteration: u64, _action: HostAction) -> Vec<TraceEvent> {
        let live = (0..self.fg.num_clauses)
            .filter(|&a| !self.fg.clause_deleted.is_deleted(a as u32))
            .count();
        vec![
            marker::<Self>(iteration, "max_delta", self.delta),
            marker::<Self>(iteration, "live_clauses", live as f64),
        ]
    }

    /// §6.2: every live edge carries a finite survey in `[0, 1]`, and live
    /// clauses reference only in-range, still-free variables — the state
    /// decimation relies on.
    #[cfg(feature = "morph-check")]
    fn oracle(&mut self, _done: bool) -> Option<Result<(), String>> {
        let fg = self.fg;
        for a in 0..fg.num_clauses {
            if fg.clause_deleted.is_deleted(a as u32) {
                continue;
            }
            for e in fg.clause_slots(a) {
                if !fg.edge_live(e) {
                    continue;
                }
                let eta = self.s.get(e);
                if !eta.is_finite() || !(0.0..=1.0).contains(&eta) {
                    return Some(Err(format!(
                        "live clause {a} edge slot {e} carries non-probability survey {eta}"
                    )));
                }
                let v = fg.edge_var(e);
                if v as usize >= fg.num_vars {
                    return Some(Err(format!(
                        "live clause {a} edge slot {e} references out-of-range var {v}"
                    )));
                }
                if !fg.var_free(v) {
                    return Some(Err(format!(
                        "live clause {a} references var {v}, which decimation already fixed"
                    )));
                }
            }
        }
        Some(Ok(()))
    }

    fn encode(&self, w: &mut PayloadWriter) {
        let slots = self.fg.num_edge_slots();
        w.u64(slots as u64);
        for e in 0..slots {
            w.u64(self.s.get(e).to_bits());
        }
    }

    fn decode(&self, r: &mut PayloadReader<'_>) -> Option<Vec<u64>> {
        let slots = r.u64()? as usize;
        if slots != self.fg.num_edge_slots() {
            return None;
        }
        (0..slots).map(|_| r.u64()).collect()
    }

    fn restore(&mut self, bits: Vec<u64>, completed: u64) {
        for (e, b) in bits.into_iter().enumerate() {
            self.s.eta.store(e, f64::from_bits(b));
        }
        self.sweeps = completed as usize;
    }
}

/// Run one propagation phase to convergence on the virtual GPU; returns
/// `(sweeps, launch stats)`.
///
/// # Panics
/// Panics if launches keep failing past the default recovery budgets; use
/// [`try_propagate`] for structured errors or fault injection.
pub fn propagate(
    fg: &FactorGraph,
    s: &Surveys,
    eps: f64,
    max_sweeps: usize,
    sms: usize,
) -> (usize, LaunchStats) {
    try_propagate(fg, s, eps, max_sweeps, sms, &RecoveryOpts::default())
        .unwrap_or_else(|e| panic!("GPU survey propagation failed: {e}"))
}

/// Fault-tolerant [`propagate`]: one launch per sweep under the recovering
/// driver, with failed sweeps re-launched (bounded by the policy).
pub fn try_propagate(
    fg: &FactorGraph,
    s: &Surveys,
    eps: f64,
    max_sweeps: usize,
    sms: usize,
    recovery: &RecoveryOpts,
) -> Result<(usize, LaunchStats), DriveError> {
    let mut m = SpMorph::new(fg, s, eps, max_sweeps, sms);
    let outcome = run_morph(&mut m, recovery)?;
    Ok((m.sweeps, outcome.stats))
}

/// Solve `f` on the virtual GPU with `sms` workers.
pub fn solve(f: &Formula, params: &SpParams, sms: usize) -> (SolveOutcome, SolveStats) {
    run_solver(f, params, |fg, s| {
        propagate(fg, s, params.eps, params.max_sweeps, sms).0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::random_ksat;

    #[test]
    fn gpu_solves_easy_instance() {
        let f = random_ksat(300, 3.0, 3, 17);
        let (out, stats) = solve(&f, &SpParams::default(), 4);
        match out {
            SolveOutcome::Sat(a) => assert!(f.eval(&a)),
            other => panic!("easy instance: {other:?}"),
        }
        assert!(stats.sweeps >= 1);
    }

    #[test]
    fn gpu_propagation_converges() {
        let f = random_ksat(200, 3.5, 3, 23);
        let fg = FactorGraph::new(&f);
        let s = Surveys::init(&fg, 5);
        let (sweeps, stats) = propagate(&fg, &s, 1e-3, 300, 2);
        assert!(sweeps > 1, "must iterate");
        assert!(sweeps <= 300);
        assert_eq!(stats.iterations as usize, sweeps);
        // Surveys in range after convergence.
        for e in 0..fg.num_edge_slots() {
            assert!((0.0..=1.0).contains(&s.get(e)));
        }
    }

    #[test]
    fn gpu_k5_instance() {
        let f = random_ksat(80, 8.0, 5, 31);
        let (out, _) = solve(&f, &SpParams::default(), 2);
        if let SolveOutcome::Sat(a) = out {
            assert!(f.eval(&a));
        }
    }

    #[test]
    fn checkpoint_resume_is_invisible() {
        use morph_core::{CheckpointCtl, CheckpointStore};
        use std::sync::Arc;

        let f = random_ksat(200, 3.5, 3, 23);
        let fg = FactorGraph::new(&f);
        let clean = Surveys::init(&fg, 5);
        let (clean_sweeps, _) = propagate(&fg, &clean, 1e-3, 300, 2);
        assert!(clean_sweeps > 4, "instance must need several sweeps");

        // First attempt: cut short after 4 sweeps (an eviction stand-in),
        // checkpointing every completed sweep.
        let store = Arc::new(CheckpointStore::in_memory());
        let ctl = CheckpointCtl::new(store.clone(), 42);
        let resumed = Surveys::init(&fg, 5);
        let first = RecoveryOpts {
            checkpoint: Some(ctl.clone()),
            ..RecoveryOpts::default()
        };
        let (partial, _) = try_propagate(&fg, &resumed, 1e-3, 4, 2, &first).unwrap();
        assert_eq!(partial, 4);
        let saved = store.load(42).expect("checkpoints were persisted");
        assert_eq!(saved.algo, "sp");

        // Scramble the surveys: the resume must restore them from the
        // store, not rely on leftover device state.
        for e in 0..fg.num_edge_slots() {
            resumed.eta.store(e, 0.123);
        }
        let second = RecoveryOpts {
            checkpoint: Some(ctl),
            ..RecoveryOpts::default()
        };
        let (sweeps, _) = try_propagate(&fg, &resumed, 1e-3, 300, 2, &second).unwrap();
        assert_eq!(sweeps, clean_sweeps, "resumed run converges at the same sweep");
        for e in 0..fg.num_edge_slots() {
            assert_eq!(clean.get(e).to_bits(), resumed.get(e).to_bits(), "edge {e}");
        }
    }

    #[test]
    fn foreign_checkpoint_payload_is_refused() {
        use morph_core::pipeline::resume;

        let f = random_ksat(50, 3.0, 3, 7);
        let fg = FactorGraph::new(&f);
        let s = Surveys::init(&fg, 5);
        let mut m = SpMorph::new(&fg, &s, 1e-3, 10, 1);
        let before: Vec<u64> = (0..fg.num_edge_slots()).map(|e| s.get(e).to_bits()).collect();
        assert_eq!(resume(&mut m, &[]), None);
        assert_eq!(resume(&mut m, &[1, 2, 3]), None);
        // Right tag, wrong shape.
        let mut w = PayloadWriter::new();
        w.u32(SpMorph::TAG);
        w.u64(9);
        w.u64(1);
        w.u64(0.5f64.to_bits());
        let alien = w.finish();
        assert_eq!(resume(&mut m, &alien), None);
        // No partial mutation happened.
        assert_eq!(m.sweeps, 0);
        for (e, &b) in before.iter().enumerate() {
            assert_eq!(s.get(e).to_bits(), b, "edge {e}");
        }
    }

    #[test]
    fn injected_fault_does_not_change_the_result() {
        use morph_gpu_sim::FaultPlan;
        use std::sync::Arc;

        let f = random_ksat(200, 3.5, 3, 23);
        let fg = FactorGraph::new(&f);
        let clean = Surveys::init(&fg, 5);
        let (clean_sweeps, _) = propagate(&fg, &clean, 1e-3, 300, 2);

        let faulty = Surveys::init(&fg, 5);
        let recovery = RecoveryOpts {
            fault_plan: Some(Arc::new(FaultPlan::new().with_kernel_panic(1, 0, 0, 0))),
            ..RecoveryOpts::default()
        };
        let (sweeps, _) = try_propagate(&fg, &faulty, 1e-3, 300, 2, &recovery)
            .expect("one panic must be absorbed by a retry");
        assert_eq!(sweeps, clean_sweeps);
        for e in 0..fg.num_edge_slots() {
            assert_eq!(clean.get(e).to_bits(), faulty.get(e).to_bits(), "edge {e}");
        }
    }
}
