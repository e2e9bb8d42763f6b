//! The pipeline contract (DESIGN.md §7 "The pipeline contract"), checked
//! on all four `try_*` entry points through their public API only:
//!
//! - a run resumed twice from one checkpoint store stores strictly
//!   increasing, *absolute* checkpoint iterations, each equal to its
//!   payload's completed-iteration header − 1, and still reaches the
//!   uninterrupted run's end state;
//! - a `Regrow` step is never checkpointed as a completed iteration;
//! - a resumed run's profiler attributes its launches to absolute
//!   iterations, as its markers and checkpoints do;
//! - per step, the trace reads launch events, then algorithm markers, then
//!   the checkpoint;
//! - the SP and MST payload bytes after iteration 1 are pinned, so the
//!   wire format a stored checkpoint depends on cannot drift;
//! - a run killed at any launch, resumed, killed again and resumed reaches
//!   the uninterrupted end state; each resumed stage launches at the §7.4
//!   tpb of its absolute iteration, and a killed stage reports its
//!   absolute iteration.

use morphgpu::core::runtime::{DriveError, RecoveryOpts, RecoveryPolicy};
use morphgpu::core::{crc32, AdaptiveParallelism, CheckpointCtl, CheckpointStore};
use morphgpu::dmr::{self, DmrOpts};
use morphgpu::gpu_sim::FaultPlan;
use morphgpu::sp::surveys::Surveys;
use morphgpu::sp::{self, FactorGraph};
use morphgpu::trace::{
    PhaseProfiler, ProfilerScope, RecoveryKind, RingSink, TraceEvent, TraceSink, Tracer,
};
use morphgpu::workloads;
use morphgpu::{mst, pta};
use std::sync::Arc;

const JOB: u64 = 1;

/// Options for one stage of a multi-stage run on a shared store: with
/// `kill_at`, the stage dies at that launch with no retry budget.
fn stage(store: &Arc<CheckpointStore>, kill_at: Option<u64>, tracer: Tracer) -> RecoveryOpts {
    let mut opts = RecoveryOpts {
        checkpoint: Some(CheckpointCtl::new(Arc::clone(store), JOB).every(1)),
        tracer,
        ..RecoveryOpts::default()
    };
    if let Some(launch) = kill_at {
        opts.policy = RecoveryPolicy {
            max_retries: 0,
            ..RecoveryPolicy::default()
        };
        opts.fault_plan = Some(Arc::new(
            FaultPlan::new().with_kernel_panic(launch, 0, 0, 0),
        ));
    }
    opts
}

/// The stored checkpoint as `(iteration, completed-iterations header)`.
fn stored(store: &CheckpointStore) -> (u64, u64) {
    let ck = store.load(JOB).expect("a checkpoint was stored");
    let completed = u64::from_le_bytes(ck.payload[4..12].try_into().unwrap());
    (ck.iteration, completed)
}

/// Runs `run(opts)` as two killed stages and one completing stage on
/// one store, and checks the stored checkpoint after each stage.
fn three_stages(mut run: impl FnMut(RecoveryOpts) -> bool) {
    let store = Arc::new(CheckpointStore::in_memory());
    let mut seen = Vec::new();
    for kill in [true, true, false] {
        let ok = run(stage(&store, kill.then_some(2), Tracer::default()));
        assert_eq!(ok, !kill, "a killed stage fails, the last one completes");
        seen.push(stored(&store));
    }
    for &(iteration, completed) in &seen {
        assert_eq!(
            iteration + 1,
            completed,
            "stored iteration is absolute: {seen:?}"
        );
    }
    assert!(
        seen.windows(2).all(|w| w[0].0 < w[1].0),
        "stored iterations strictly increase across resumes: {seen:?}"
    );
}

#[test]
fn sp_resumes_twice_to_the_uninterrupted_surveys() {
    let f = workloads::ksat::random_ksat(200, 700, 3, 23);
    let fg = FactorGraph::new(&f);
    let clean = Surveys::init(&fg, 5);
    let (clean_sweeps, _) = sp::gpu::propagate(&fg, &clean, 1e-3, 300, 2);
    assert!(clean_sweeps > 6, "instance must outlast two killed stages");

    let resumed = Surveys::init(&fg, 5);
    let mut sweeps = 0;
    three_stages(|opts| {
        let out = sp::gpu::try_propagate(&fg, &resumed, 1e-3, 300, 2, &opts);
        out.map(|(s, _)| sweeps = s).is_ok()
    });
    assert_eq!(sweeps, clean_sweeps);
    for e in 0..fg.num_edge_slots() {
        assert_eq!(clean.get(e).to_bits(), resumed.get(e).to_bits(), "edge {e}");
    }
}

#[test]
fn mst_resumes_twice_to_the_kruskal_forest() {
    let g = workloads::graphs::random_graph(3000, 3000, 9);
    let want = mst::kruskal::mst(&g);
    let mut got = None;
    three_stages(|opts| {
        let out = mst::gpu::try_mst_with_stats(&g, 2, &opts);
        out.map(|o| got = Some(o.result)).is_ok()
    });
    let got = got.unwrap();
    assert_eq!((got.weight, got.edges), (want.weight, want.edges));
}

#[test]
fn pta_resumes_twice_to_the_serial_fixpoint() {
    let prob = workloads::pta::synthetic(300, 1200, 5);
    let want = pta::serial::solve(&prob);
    let mut got = None;
    three_stages(|opts| {
        let out = pta::gpu::try_solve_with(&prob, pta::gpu::PtaOpts::default(), 2, &opts);
        out.map(|o| got = Some(o.solution)).is_ok()
    });
    assert_eq!(got.unwrap(), want);
}

#[test]
fn dmr_resumes_twice_to_a_refined_mesh() {
    let mut mesh = workloads::mesh::random_mesh::<f64>(2000, 7);
    three_stages(|opts| {
        // Every stage starts from a fresh copy of the problem: nothing but
        // the checkpoint carries over.
        mesh = workloads::mesh::random_mesh::<f64>(2000, 7);
        dmr::gpu::try_refine_gpu(&mut mesh, DmrOpts::default(), 2, &opts).is_ok()
    });
    assert_eq!(mesh.stats().bad, 0);
    mesh.validate(true).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn a_resumed_run_profiles_absolute_iterations() {
    let f = workloads::ksat::random_ksat(200, 700, 3, 23);
    let fg = FactorGraph::new(&f);
    let surveys = Surveys::init(&fg, 5);
    let store = Arc::new(CheckpointStore::in_memory());
    let killed = stage(&store, Some(4), Tracer::default());
    sp::gpu::try_propagate(&fg, &surveys, 1e-3, 300, 2, &killed).unwrap_err();
    assert_eq!(stored(&store), (3, 4), "iterations 0..=3 completed");

    let profiler = Arc::new(PhaseProfiler::new());
    let mut resumed = stage(&store, None, Tracer::default());
    resumed.profiler = Some(ProfilerScope::new(Arc::clone(&profiler), "sp"));
    sp::gpu::try_propagate(&fg, &surveys, 1e-3, 300, 2, &resumed).unwrap();
    let folded = profiler.to_folded();
    assert!(!folded.is_empty(), "the resumed stage was profiled");
    for line in folded.lines() {
        let class = line.split(';').nth(1).unwrap();
        assert!(
            !["it0", "it1", "it2-3"].contains(&class),
            "a resumed iteration landed in {class}: {folded}"
        );
    }
}

fn traced() -> (Arc<RingSink>, Tracer) {
    let sink = Arc::new(RingSink::new(1 << 20));
    let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
    (sink, tracer)
}

#[test]
fn dmr_never_checkpoints_a_regrow_step() {
    let store = Arc::new(CheckpointStore::in_memory());
    let (sink, tracer) = traced();
    let mut opts = stage(&store, None, tracer);
    opts.fault_plan = Some(Arc::new(FaultPlan::new().with_alloc_denial(1, 1)));
    let mut mesh = workloads::mesh::random_mesh::<f64>(2000, 7);
    dmr::gpu::try_refine_gpu(&mut mesh, DmrOpts::default(), 2, &opts).expect("denial regrows");
    assert_eq!(mesh.stats().bad, 0);

    let events = sink.events();
    let regrow_at = |e: &TraceEvent| match e {
        TraceEvent::Recovery {
            kind: RecoveryKind::Regrow,
            iteration,
            ..
        } => Some(*iteration),
        _ => None,
    };
    assert!(
        events.iter().any(|e| regrow_at(e).is_some()),
        "the denied allocation must force a regrow"
    );
    let mut saved = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let TraceEvent::Checkpoint { iteration, .. } = e else {
            continue;
        };
        assert!(
            !saved.contains(iteration),
            "iteration {iteration} checkpointed twice"
        );
        saved.push(*iteration);
        if let Some(next) = events.get(i + 1) {
            assert_ne!(
                regrow_at(next),
                Some(*iteration),
                "the regrow step at {iteration} was checkpointed"
            );
        }
    }
    assert!(!saved.is_empty());
}

/// Per step with a checkpoint: the launch's `LaunchEnd`, then at least
/// one marker of the checkpointed iteration, then the `Checkpoint`.
fn assert_step_order(algo: &str, events: &[TraceEvent]) {
    let mut checked = 0;
    for (k, e) in events.iter().enumerate() {
        let TraceEvent::Checkpoint { iteration, .. } = e else {
            continue;
        };
        let end = events[..k]
            .iter()
            .rposition(|e| matches!(e, TraceEvent::LaunchEnd { .. }))
            .unwrap_or_else(|| panic!("{algo}: checkpoint before any launch"));
        let between = &events[end + 1..k];
        assert!(
            between.iter().all(|e| matches!(
                e,
                TraceEvent::AlgoIteration { .. } | TraceEvent::Alloc { .. }
            )),
            "{algo}: only markers sit between LaunchEnd and Checkpoint: {between:?}"
        );
        assert!(
            between.iter().any(
                |e| matches!(e, TraceEvent::AlgoIteration { iteration: i, .. } if i == iteration)
            ),
            "{algo}: the step's markers precede its checkpoint: {between:?}"
        );
        checked += 1;
    }
    assert!(checked > 1, "{algo}: several steps were checkpointed");
}

#[test]
fn every_pipeline_emits_launch_then_markers_then_checkpoint() {
    let store = Arc::new(CheckpointStore::in_memory());

    let f = workloads::ksat::random_ksat(200, 700, 3, 23);
    let fg = FactorGraph::new(&f);
    let (sink, tracer) = traced();
    sp::gpu::try_propagate(
        &fg,
        &Surveys::init(&fg, 5),
        1e-3,
        300,
        2,
        &stage(&store, None, tracer),
    )
    .unwrap();
    assert_step_order("sp", &sink.events());
    store.discard(JOB);

    let g = workloads::graphs::random_graph(3000, 3000, 9);
    let (sink, tracer) = traced();
    mst::gpu::try_mst_with_stats(&g, 2, &stage(&store, None, tracer)).unwrap();
    assert_step_order("mst", &sink.events());
    store.discard(JOB);

    let prob = workloads::pta::synthetic(300, 1200, 5);
    let (sink, tracer) = traced();
    pta::gpu::try_solve_with(
        &prob,
        pta::gpu::PtaOpts::default(),
        2,
        &stage(&store, None, tracer),
    )
    .unwrap();
    assert_step_order("pta", &sink.events());
    store.discard(JOB);

    let mut mesh = workloads::mesh::random_mesh::<f64>(2000, 7);
    let (sink, tracer) = traced();
    dmr::gpu::try_refine_gpu(
        &mut mesh,
        DmrOpts::default(),
        2,
        &stage(&store, None, tracer),
    )
    .unwrap();
    assert_step_order("dmr", &sink.events());
}

/// `(length, crc32)` of the payload stored after iteration 1 (the run is
/// killed at launch 2).
fn pinned_payload(run: impl FnOnce(RecoveryOpts)) -> (usize, u32) {
    let store = Arc::new(CheckpointStore::in_memory());
    run(stage(&store, Some(2), Tracer::default()));
    let ck = store
        .load(JOB)
        .expect("iterations 0 and 1 were checkpointed");
    assert_eq!(ck.iteration, 1);
    (ck.payload.len(), crc32(&ck.payload))
}

#[test]
fn sp_and_mst_payload_bytes_are_pinned() {
    let f = workloads::ksat::random_ksat(60, 240, 3, 4);
    let fg = FactorGraph::new(&f);
    let sp_pin = pinned_payload(|opts| {
        sp::gpu::try_propagate(&fg, &Surveys::init(&fg, 3), 1e-3, 100, 2, &opts).unwrap_err();
    });
    assert_eq!(sp_pin, (5780, 919955100), "sp payload after iteration 1");

    let g = workloads::graphs::random_graph(200, 400, 3);
    let mst_pin = pinned_payload(|opts| {
        mst::gpu::try_mst_with_stats(&g, 2, &opts).unwrap_err();
    });
    assert_eq!(mst_pin, (836, 127737769), "mst payload after iteration 1");
}

/// The completed-iteration count of the stored checkpoint (0 without one).
fn completed(store: &CheckpointStore) -> u64 {
    store.load(JOB).map_or(0, |_| stored(store).1)
}

/// For every launch `k` of an uninterrupted run: kill a run at `k`, resume
/// it and kill it again at its launch 1, then resume it to the end. Every
/// stage that completes must pass `check`; every resumed stage's first
/// launch must run at `tpb_at(absolute iteration)`; every killed stage's
/// `DriveError` iteration must be the absolute iteration it died in, which
/// is the completed count its last checkpoint stored.
fn crash_point_sweep<T>(
    algo: &str,
    tpb_at: impl Fn(u64) -> usize,
    mut run: impl FnMut(&RecoveryOpts) -> Result<T, DriveError>,
    check: impl Fn(&T),
) {
    let (sink, tracer) = traced();
    let clean = run(&RecoveryOpts {
        tracer,
        ..RecoveryOpts::default()
    });
    check(&clean.unwrap_or_else(|e| panic!("{algo}: {e}")));
    let launches = sink
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::LaunchBegin { .. }))
        .count() as u64;
    assert!(launches > 3, "{algo}: {launches} launches");

    for k in 0..launches {
        let store = Arc::new(CheckpointStore::in_memory());
        for (i, kill_at) in [Some(k), Some(1), None].into_iter().enumerate() {
            let base = completed(&store);
            let (sink, tracer) = traced();
            let result = run(&stage(&store, kill_at, tracer));
            let first_tpb = sink.events().iter().find_map(|e| match e {
                TraceEvent::LaunchBegin {
                    threads_per_block, ..
                } => Some(*threads_per_block as usize),
                _ => None,
            });
            let at = format!("{algo}: killed at {k}, stage {i}, base {base}");
            if i > 0 {
                assert_eq!(first_tpb, Some(tpb_at(base)), "{at}: first launch tpb");
            }
            match result {
                Ok(end) => {
                    check(&end);
                    break;
                }
                Err(DriveError::Launch { iteration, .. }) if kill_at.is_some() => {
                    assert_eq!(iteration, completed(&store), "{at}: killed iteration");
                }
                Err(e) => panic!("{at}: {e}"),
            }
        }
    }
}

#[test]
fn every_crash_point_resumes_to_the_uninterrupted_end_state() {
    let f = workloads::ksat::random_ksat(60, 240, 3, 4);
    let fg = FactorGraph::new(&f);
    let sp_run = |opts: &RecoveryOpts| {
        let s = Surveys::init(&fg, 3);
        let (sweeps, _) = sp::gpu::try_propagate(&fg, &s, 1e-3, 100, 2, opts)?;
        let bits: Vec<u64> = (0..fg.num_edge_slots())
            .map(|e| s.get(e).to_bits())
            .collect();
        Ok((sweeps, bits))
    };
    let sp_clean = sp_run(&RecoveryOpts::default()).unwrap();
    crash_point_sweep("sp", |_| 32, sp_run, |end| assert_eq!(*end, sp_clean));

    let g = workloads::graphs::random_graph(200, 400, 3);
    let want = mst::kruskal::mst(&g);
    let mst_run = |opts: &RecoveryOpts| {
        let r = mst::gpu::try_mst_with_stats(&g, 2, opts)?.result;
        Ok((r.weight, r.edges, r.rounds))
    };
    let mst_clean = mst_run(&RecoveryOpts::default()).unwrap();
    assert_eq!((mst_clean.0, mst_clean.1), (want.weight, want.edges));
    crash_point_sweep("mst", |_| 64, mst_run, |end| assert_eq!(*end, mst_clean));

    let prob = workloads::pta::synthetic(60, 220, 5);
    let want = pta::serial::solve(&prob);
    crash_point_sweep(
        "pta",
        |i| AdaptiveParallelism::pta().tpb_for_iteration(i),
        |opts| pta::gpu::try_solve_with(&prob, pta::gpu::PtaOpts::default(), 2, opts),
        |end| assert_eq!(end.solution, want),
    );

    crash_point_sweep(
        "dmr",
        |i| AdaptiveParallelism::dmr().tpb_for_iteration(i),
        |opts| {
            // Only the checkpoint carries over: each stage starts from a
            // fresh copy of the problem.
            let mut mesh = workloads::mesh::random_mesh::<f64>(300, 7);
            dmr::gpu::try_refine_gpu(&mut mesh, DmrOpts::default(), 2, opts).map(|_| mesh)
        },
        |mesh| {
            assert_eq!(mesh.stats().bad, 0);
            mesh.validate(true).unwrap_or_else(|e| panic!("{e}"));
        },
    );
}
