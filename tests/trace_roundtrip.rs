//! Acceptance test for the tracing layer: a traced DMR run must produce a
//! parseable JSONL stream from which the report aggregator reproduces the
//! Fig. 2 per-iteration parallelism series within ±1 of the direct
//! [`morph_dmr::profile::parallelism_profile`] output.

use morph_core::runtime::RecoveryOpts;
use morph_dmr::profile::{parallelism_profile, parallelism_profile_traced};
use morph_dmr::DmrOpts;
use morph_trace::{parse_jsonl, JsonlSink, TraceEvent, TraceReport, TraceSink, Tracer};
use morph_workloads::mesh::random_mesh;
use std::sync::Arc;

#[test]
fn dmr_jsonl_stream_reproduces_the_parallelism_profile() {
    // Direct series on one mesh…
    let mut plain = random_mesh::<f64>(300, 11);
    let baseline = parallelism_profile(&mut plain);
    assert!(!baseline.is_empty());

    // …and a traced run on an identical mesh, streamed through JSONL.
    let sink = Arc::new(JsonlSink::new(Vec::<u8>::new()));
    let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);

    // A full GPU refinement shares the stream first, so the profile series
    // is recovered from a *mixed* stream (launch spans, phase deltas,
    // algorithm markers), not a curated one.
    let mut gpu_mesh = random_mesh::<f64>(300, 11);
    let recovery = RecoveryOpts {
        tracer: tracer.clone(),
        ..RecoveryOpts::default()
    };
    morph_dmr::gpu::try_refine_gpu(&mut gpu_mesh, DmrOpts::default(), 2, &recovery)
        .expect("traced refinement succeeds");

    let mut traced_mesh = random_mesh::<f64>(300, 11);
    let traced = parallelism_profile_traced(&mut traced_mesh, &tracer);
    drop(recovery);
    drop(tracer);
    assert_eq!(traced, baseline, "profiling itself is deterministic");

    let sink = Arc::try_unwrap(sink).ok().expect("all tracer clones dropped");
    let text = String::from_utf8(sink.into_writer()).expect("JSONL is UTF-8");

    let (events, bad) = parse_jsonl(&text);
    assert!(bad.is_empty(), "unparseable JSONL lines: {bad:?}");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::PhaseSpan { .. })),
        "stream must contain engine phase spans"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::LaunchEnd { .. })),
        "stream must contain launch totals"
    );

    // A traced launch arms the hardware cost model, so the round-tripped
    // stream must carry nonzero cost-model counters and the CSV export
    // must surface the derived ratio columns.
    let traced_totals = events.iter().any(|e| {
        matches!(
            e,
            TraceEvent::LaunchEnd { totals, .. }
                if totals.gmem_accesses > 0
                    && totals.gmem_transactions > 0
                    && totals.active_warps > 0
        )
    });
    assert!(traced_totals, "cost-model counters must survive the JSONL round-trip");

    // One schema: a line decodes as a current event or is reported by its
    // line number. A `phase_span` as written before the cost-model
    // counters existed is not a current event, nor is an unknown `type`.
    let current: Vec<&str> = text.lines().take(2).collect();
    let stale_span = r#"{"type":"phase_span","launch":0,"iteration":0,"phase":0,"wall_us":7,"delta":{"warps":4,"divergent_warps":1,"active_threads":30,"idle_threads":2,"atomics":5,"barriers":1,"aborts":0,"commits":3}}"#;
    let unknown = r#"{"type":"mystery","x":1}"#;
    let mixed = format!("{}\n{stale_span}\n{}\n{unknown}\n", current[0], current[1]);
    let (mixed_events, mixed_bad) = parse_jsonl(&mixed);
    assert_eq!(mixed_bad, vec![2, 4], "exactly the stale and unknown lines are bad");
    assert_eq!(mixed_events, events[..2], "the current lines decode as before");

    let report = TraceReport::from_events(&events);
    let csv = report.timeline_csv();
    assert!(
        csv.lines()
            .next()
            .unwrap()
            .ends_with("divergence_ratio,coalescing_factor,occupancy"),
        "timeline CSV must expose the derived cost-model columns"
    );

    let series = report.series_values("dmr.profile", "parallelism");
    assert_eq!(
        series.len(),
        baseline.len(),
        "recovered series must have one point per profiling step"
    );
    for (i, (got, want)) in series.iter().zip(&baseline).enumerate() {
        assert!(
            (got - *want as f64).abs() <= 1.0,
            "step {i}: recovered {got}, direct {want}"
        );
    }
}
