//! End-to-end morph-lens attribution coverage: every pipeline drives a
//! small workload with the attribution hub armed and must account for
//! (almost) all of its metered global-memory traffic under *named*
//! device structures — the `unattributed` residue stays ≈0. A pipeline
//! that adds a device structure without registering it with the lens
//! regresses here, not in production traces.

use morph_core::runtime::RecoveryOpts;
use morph_gpu_sim::LensHub;
use morph_sp::surveys::Surveys;
use morph_sp::FactorGraph;
use morph_trace::{RingSink, TraceEvent, Tracer};
use std::sync::Arc;

/// Drive the named pipeline once with the given recovery options.
fn drive(algo: &str, recovery: &RecoveryOpts) {
    match algo {
        "dmr" => {
            let mut mesh = morph_workloads::mesh::random_mesh::<f64>(250, 11);
            morph_dmr::gpu::try_refine_gpu(&mut mesh, morph_dmr::DmrOpts::default(), 2, recovery)
                .expect("dmr pipeline");
        }
        "sp" => {
            let f = morph_workloads::ksat::random_ksat(150, 520, 3, 29);
            let fg = FactorGraph::new(&f);
            let s = Surveys::init(&fg, 5);
            morph_sp::gpu::try_propagate(&fg, &s, 1e-3, 40, 2, recovery).expect("sp pipeline");
        }
        "pta" => {
            let prob = morph_workloads::pta::synthetic(60, 160, 4);
            morph_pta::gpu::try_solve_with(&prob, morph_pta::gpu::PtaOpts::default(), 2, recovery)
                .expect("pta pipeline");
        }
        "mst" => {
            let g = morph_workloads::graphs::random_graph(220, 640, 7);
            morph_mst::gpu::try_mst_with_stats(&g, 2, recovery).expect("mst pipeline");
        }
        other => panic!("unknown algorithm {other:?}"),
    }
}

/// Run `algo` with the lens armed and assert the paper-shaped
/// invariants: at least one named structure attracted traffic and the
/// unattributed residue is below 1%.
fn assert_attributed(algo: &str) {
    let hub = LensHub::enabled();
    let recovery = RecoveryOpts {
        lens: hub.clone(),
        ..RecoveryOpts::default()
    };
    drive(algo, &recovery);
    let snap = hub.snapshot();
    assert!(
        !snap.regions.is_empty(),
        "{algo}: pipeline registered no lens regions"
    );
    assert!(!snap.rows.is_empty(), "{algo}: lens attributed no traffic");
    let named: u64 = snap
        .rows
        .iter()
        .filter(|r| r.region != morph_gpu_sim::LENS_UNATTRIBUTED)
        .map(|r| r.accesses)
        .sum();
    assert!(named > 0, "{algo}: no traffic landed in a named structure");
    let frac = snap.unattributed_fraction();
    assert!(
        frac < 0.01,
        "{algo}: unattributed fraction {frac} >= 1% (rows: {:?})",
        snap.rows
    );
}

#[test]
fn dmr_traffic_is_attributed() {
    assert_attributed("dmr");
}

#[test]
fn sp_traffic_is_attributed() {
    assert_attributed("sp");
}

#[test]
fn pta_traffic_is_attributed() {
    assert_attributed("pta");
}

#[test]
fn mst_traffic_is_attributed() {
    assert_attributed("mst");
}

/// Every launch's lens cells conserve its cost-model totals: accesses and
/// atomic serialization split exactly across structures, and a segment
/// shared by two structures is paid once by each, so transactions can only
/// grow.
#[test]
fn lens_cells_conserve_every_launch_total() {
    use std::collections::BTreeMap;

    for algo in ["dmr", "sp", "pta", "mst"] {
        let sink = Arc::new(RingSink::new(1 << 20));
        let recovery = RecoveryOpts {
            tracer: Tracer::new(Arc::clone(&sink) as _),
            lens: LensHub::enabled(),
            ..RecoveryOpts::default()
        };
        drive(algo, &recovery);
        assert_eq!(sink.dropped(), 0, "{algo}: ring sink overflowed");
        // launch → (Σ accesses, Σ transactions, Σ atomic_serial) per side.
        let mut cells: BTreeMap<u64, [u64; 3]> = BTreeMap::new();
        let mut totals: BTreeMap<u64, [u64; 3]> = BTreeMap::new();
        for e in sink.events() {
            let (launch, add, side) = match e {
                TraceEvent::Lens {
                    launch,
                    accesses,
                    transactions,
                    atomic_serial,
                    ..
                } => (launch, [accesses, transactions, atomic_serial], &mut cells),
                TraceEvent::LaunchEnd {
                    launch, totals: t, ..
                } => (
                    launch,
                    [t.gmem_accesses, t.gmem_transactions, t.atomic_serial],
                    &mut totals,
                ),
                _ => continue,
            };
            let sum = side.entry(launch).or_default();
            for (s, a) in sum.iter_mut().zip(add) {
                *s += a;
            }
        }
        assert!(!totals.is_empty(), "{algo}: no launches traced");
        for (launch, [accesses, transactions, serial]) in totals {
            let [lens_accesses, lens_transactions, lens_serial] =
                cells.get(&launch).copied().unwrap_or_default();
            assert_eq!(lens_accesses, accesses, "{algo} launch {launch}: accesses");
            assert_eq!(lens_serial, serial, "{algo} launch {launch}: atomic_serial");
            assert!(
                lens_transactions >= transactions,
                "{algo} launch {launch}: {lens_transactions} lens transactions < {transactions}"
            );
        }
    }
}

/// With both a tracer and the lens armed, per-launch `Lens` cells land
/// in the trace stream (schema v6) and carry the registered structure
/// names.
#[test]
fn lens_cells_reach_the_trace_stream() {
    let sink = Arc::new(RingSink::new(65536));
    let hub = LensHub::enabled();
    let recovery = RecoveryOpts {
        tracer: Tracer::new(Arc::clone(&sink) as _),
        lens: hub.clone(),
        ..RecoveryOpts::default()
    };
    drive("pta", &recovery);
    let events = sink.events();
    let mut lens_cells = 0u64;
    let mut named = 0u64;
    for e in &events {
        if let TraceEvent::Lens {
            region, accesses, ..
        } = e
        {
            lens_cells += 1;
            if region != morph_gpu_sim::LENS_UNATTRIBUTED && *accesses > 0 {
                named += 1;
            }
        }
    }
    assert!(lens_cells > 0, "no Lens events in the trace stream");
    assert!(named > 0, "no named-structure Lens cells in the stream");
}
