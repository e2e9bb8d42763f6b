//! The cost model's two warp scorers agree on real launches. A traced run
//! without a lens is scored by the linear first-sighting pass; adding a
//! lens switches every warp to the sorted pass the lens shares. Both must
//! report the same per-launch totals on all four pipelines.

use morphgpu::core::runtime::RecoveryOpts;
use morphgpu::dmr::{self, DmrOpts};
use morphgpu::gpu_sim::LensHub;
use morphgpu::sp::{self, FactorGraph};
use morphgpu::trace::{RingSink, TraceEvent, TraceSink, Tracer};
use morphgpu::workloads;
use morphgpu::{mst, pta};
use std::sync::Arc;

/// Every `LaunchEnd`'s scored totals of one single-worker run: global
/// accesses and transactions, shared accesses and conflicts, atomic
/// serialization.
fn scored_launches(lens: bool, run: impl FnOnce(&RecoveryOpts)) -> Vec<[u64; 5]> {
    let sink = Arc::new(RingSink::new(1 << 20));
    let opts = RecoveryOpts {
        tracer: Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>),
        lens: if lens {
            LensHub::enabled()
        } else {
            LensHub::disabled()
        },
        ..RecoveryOpts::default()
    };
    run(&opts);
    sink.events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::LaunchEnd { totals: t, .. } => Some([
                t.gmem_accesses,
                t.gmem_transactions,
                t.smem_accesses,
                t.smem_conflicts,
                t.atomic_serial,
            ]),
            _ => None,
        })
        .collect()
}

fn assert_scorers_agree(name: &str, run: impl Fn(&RecoveryOpts)) {
    let linear = scored_launches(false, &run);
    let sorted = scored_launches(true, &run);
    assert!(!linear.is_empty(), "{name}: no launch ended");
    assert!(
        linear.iter().any(|t| t[1] > 0),
        "{name}: no launch was metered"
    );
    assert_eq!(linear, sorted, "{name}: [gmem accesses, transactions, smem accesses, conflicts, atomic serial] per launch");
}

#[test]
fn linear_and_sorted_scorers_agree_on_every_pipeline() {
    for seed in 0..3 {
        assert_scorers_agree(&format!("dmr seed {seed}"), |opts| {
            let mut mesh = workloads::mesh::random_mesh::<f64>(400, seed);
            dmr::gpu::try_refine_gpu(&mut mesh, DmrOpts::default(), 1, opts).unwrap();
        });

        let f = workloads::ksat::random_ksat(160, 640, 3, seed);
        let fg = FactorGraph::new(&f);
        assert_scorers_agree(&format!("sp seed {seed}"), |opts| {
            let s = sp::surveys::Surveys::init(&fg, seed);
            sp::gpu::try_propagate(&fg, &s, 1e-3, 200, 1, opts).unwrap();
        });

        let prob = workloads::pta::synthetic(160, 400, seed);
        assert_scorers_agree(&format!("pta seed {seed}"), |opts| {
            pta::gpu::try_solve_with(&prob, pta::gpu::PtaOpts::default(), 1, opts).unwrap();
        });

        let g = workloads::graphs::random_graph(400, 1200, seed);
        assert_scorers_agree(&format!("mst seed {seed}"), |opts| {
            mst::gpu::try_mst_with_stats(&g, 1, opts).unwrap();
        });
    }
}
