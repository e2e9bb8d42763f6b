//! End-to-end fault-injection tests: every algorithm pipeline is run
//! under a seeded fault campaign ([`FaultPlan::seeded`]) and must produce
//! the same answer as a fault-free run — injected kernel panics are
//! absorbed by launch retries, injected allocation denials by host
//! regrows, and livelock by the rescue ladder, all without corrupting the
//! morph data structures the failed launch touched.

use morphgpu::core::runtime::{HostAction, RecoveryOpts, RecoveryPolicy, StepCtx, StepReport};
use morphgpu::core::{run_morph, AdaptiveParallelism, Morph, PayloadReader, PayloadWriter};
use morphgpu::dmr::{self, DmrOpts};
use morphgpu::gpu_sim::{
    BarrierKind, FaultPlan, GpuConfig, Kernel, LaunchError, MetricsHub, MetricsRegistry,
    ThreadCtx, VirtualGpu,
};
use morphgpu::trace::TraceEvent;
use morphgpu::metrics::SampleValue;
use morphgpu::sp::{self, FactorGraph};
use morphgpu::workloads;
use morphgpu::{mst, pta};
use std::sync::Arc;

fn seeded_recovery(seed: u64, launches: u64, blocks: usize, tpb: usize) -> (Arc<FaultPlan>, RecoveryOpts) {
    let plan = Arc::new(FaultPlan::seeded(seed, launches, blocks, tpb));
    let recovery = RecoveryOpts {
        fault_plan: Some(plan.clone()),
        ..RecoveryOpts::default()
    };
    (plan, recovery)
}

#[test]
fn dmr_refines_identically_under_seeded_faults() {
    // DMR's output mesh is schedule-dependent, so "identical" is the
    // paper's postcondition: zero bad triangles and a valid triangulation.
    for seed in [3, 17] {
        let mut mesh = workloads::mesh::random_mesh::<f64>(600, 11);
        let (_, recovery) = seeded_recovery(seed, 2, 1, 1);
        let out = dmr::gpu::try_refine_gpu(&mut mesh, DmrOpts::default(), 3, &recovery)
            .expect("seeded faults must be recovered");
        assert_eq!(mesh.stats().bad, 0, "seed {seed}");
        mesh.validate(true).unwrap();
        // The injected panic must actually have fired and cost a retry
        // (the denial burst may land on the panicked launch and be
        // partially stranded, so only the panic is asserted).
        assert!(out.retries >= 1, "seed {seed}: the panic must cost a retry");
    }
}

#[test]
fn sp_surveys_are_bit_identical_under_seeded_faults() {
    let f = workloads::ksat::random_ksat(150, 630, 3, 41);
    let fg = FactorGraph::new(&f);

    let clean = sp::surveys::Surveys::init(&fg, 9);
    let (clean_sweeps, _) = sp::gpu::propagate(&fg, &clean, 1e-3, 200, 2);

    for seed in [1, 8] {
        let faulty = sp::surveys::Surveys::init(&fg, 9);
        let (_, recovery) = seeded_recovery(seed, 2, 1, 1);
        let (sweeps, _) = sp::gpu::try_propagate(&fg, &faulty, 1e-3, 200, 2, &recovery)
            .expect("seeded faults must be recovered");
        assert_eq!(sweeps, clean_sweeps, "seed {seed}");
        for e in 0..fg.num_edge_slots() {
            assert_eq!(
                clean.get(e).to_bits(),
                faulty.get(e).to_bits(),
                "seed {seed} edge {e}"
            );
        }
    }
}

#[test]
fn pta_solution_is_identical_under_seeded_faults() {
    let prob = workloads::pta::synthetic(60, 220, 5);
    let want = pta::serial::solve(&prob);
    for seed in [2, 13] {
        let (_, recovery) = seeded_recovery(seed, 2, 1, 1);
        let got = pta::gpu::try_solve_with(&prob, pta::gpu::PtaOpts::default(), 3, &recovery)
            .expect("seeded faults must be recovered");
        assert_eq!(got.solution, want, "seed {seed}");
    }
}

#[test]
fn mst_forest_is_identical_under_seeded_faults() {
    let g = workloads::graphs::random_graph(300, 1200, 9);
    let want = mst::kruskal::mst(&g);
    for seed in [4, 23] {
        let (_, recovery) = seeded_recovery(seed, 2, 1, 1);
        let got = mst::gpu::try_mst_with_stats(&g, 4, &recovery)
            .expect("seeded faults must be recovered");
        assert_eq!(got.result.weight, want.weight, "seed {seed}");
        assert_eq!(got.result.edges, want.edges, "seed {seed}");
        // MST never allocates, so only the injected panic is observable.
        assert!(got.retries >= 1, "seed {seed}: the panic must cost a retry");
    }
}

/// A retried launch's dead attempt scored warps before it died; the
/// per-warp histograms must count only the attempt that completed, as the
/// launch totals do.
#[test]
fn a_dead_attempt_leaves_no_warps_in_the_per_warp_histograms() {
    let f = workloads::ksat::random_ksat(160, 640, 3, 5);
    let fg = FactorGraph::new(&f);
    let run = |plan: FaultPlan| {
        let plan = Arc::new(plan);
        let registry = Arc::new(MetricsRegistry::new());
        let recovery = RecoveryOpts {
            fault_plan: Some(plan.clone()),
            metrics: MetricsHub::new(registry.clone()),
            ..RecoveryOpts::default()
        };
        sp::gpu::try_propagate(&fg, &sp::surveys::Surveys::init(&fg, 9), 1e-3, 200, 1, &recovery)
            .expect("the panic must be retried");
        assert!(plan.exhausted(), "the planted fault fired");
        let series = registry.snapshot().series;
        let value = |name: &str| &series.iter().find(|s| s.name == name).unwrap().value;
        let SampleValue::Histogram(per_warp) = value("morph_warp_gmem_transactions") else {
            panic!("histogram expected");
        };
        let &SampleValue::Counter(total) = value("morph_gmem_transactions_total") else {
            panic!("counter expected");
        };
        (per_warp.count, per_warp.sum, per_warp.max, total)
    };
    let clean = run(FaultPlan::new());
    let faulted = run(FaultPlan::new().with_kernel_panic(2, 0, 1, 0));
    assert_eq!(faulted, clean, "(count, sum, max, launch total)");
    assert_eq!(clean.1, clean.3, "the histogram sums to the launch totals");
}

/// A kernel standing in for a livelocked 2-phase conflict protocol: it
/// only makes progress when the grid has been collapsed to a single
/// thread (the ladder's serial fallback).
struct NeedsSerial;

impl Kernel for NeedsSerial {
    fn phases(&self) -> usize {
        1
    }
    fn run(&self, _phase: usize, _ctx: &mut ThreadCtx<'_>) -> bool {
        true
    }
}

/// A pipeline around [`NeedsSerial`] on `config`: a step progresses, and
/// the run stops, only on a 1×1 grid — and never without `serial_progress`.
struct Livelocked {
    config: GpuConfig,
    serial_progress: bool,
}

impl Morph for Livelocked {
    const ALGO: &'static str = "livelocked";
    const TAG: u32 = 0;
    const CHECK: &'static str = "oracle.livelocked";
    type Snapshot = ();

    fn config(&mut self) -> (GpuConfig, Option<AdaptiveParallelism>) {
        (self.config.clone(), None)
    }
    fn lens_regions(&self) -> Vec<(&'static str, usize, usize)> {
        Vec::new()
    }
    fn step(&mut self, gpu: &mut VirtualGpu, _ctx: &StepCtx) -> Result<StepReport, LaunchError> {
        let stats = gpu.try_launch(&NeedsSerial)?;
        let serial = self.serial_progress && stats.blocks == 1 && stats.threads_per_block == 1;
        Ok(StepReport {
            stats,
            action: if serial {
                HostAction::Stop
            } else {
                HostAction::Continue
            },
            progressed: serial,
        })
    }
    fn markers(&self, _: u64, _: HostAction) -> Vec<TraceEvent> {
        Vec::new()
    }
    fn encode(&self, _: &mut PayloadWriter) {}
    fn decode(&self, _: &mut PayloadReader<'_>) -> Option<()> {
        Some(())
    }
    fn restore(&mut self, _: (), _: u64) {}
}

#[test]
fn livelock_escalates_to_serial_and_completes() {
    let mut m = Livelocked {
        config: GpuConfig {
            num_sms: 2,
            warp_size: 32,
            blocks: 4,
            threads_per_block: 8,
            barrier: BarrierKind::SenseReversing,
        },
        serial_progress: true,
    };
    let recovery = RecoveryOpts {
        policy: RecoveryPolicy {
            livelock_patience: 2,
            ..RecoveryPolicy::default()
        },
        ..RecoveryOpts::default()
    };
    let outcome = run_morph(&mut m, &recovery)
        .expect("the ladder must reach the serial fallback before the rescue budget");
    // None → Reshuffle → Serial costs two escalations.
    assert_eq!(outcome.rescues, 2);
    assert_eq!(outcome.stats.threads_per_block, 1);
}

#[test]
fn rescue_budget_exhaustion_is_a_structured_error() {
    use morphgpu::core::runtime::DriveError;
    let mut m = Livelocked {
        config: GpuConfig {
            num_sms: 2,
            warp_size: 32,
            blocks: 2,
            threads_per_block: 4,
            barrier: BarrierKind::SenseReversing,
        },
        serial_progress: false, // never progresses, even serially
    };
    let recovery = RecoveryOpts {
        policy: RecoveryPolicy {
            livelock_patience: 1,
            max_rescues: 3,
            ..RecoveryPolicy::default()
        },
        ..RecoveryOpts::default()
    };
    let err = run_morph(&mut m, &recovery)
        .expect_err("a kernel that never progresses must be reported as livelock");
    // The count includes the escalation that broke the budget.
    assert!(matches!(err, DriveError::Livelock { rescues: 4, .. }), "{err}");
}
