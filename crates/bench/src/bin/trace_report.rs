//! `trace-report` — record and render morph-trace streams.
//!
//! Two subcommands:
//!
//! ```text
//! trace-report run <dmr|sp|pta|mst> <out.jsonl>        # small traced pipeline run
//! trace-report report <in.jsonl> [--csv]               # render timeline / waste
//! trace-report flamegraph <dmr|sp|pta|mst> <out.folded> # folded phase profile
//! trace-report lens <dmr|sp|pta|mst>                   # phase×structure attribution
//! ```
//!
//! `run` attaches a [`JsonlSink`] to one small pipeline per algorithm via
//! `RecoveryOpts::tracer`, producing a parseable JSONL stream (the CI trace
//! smoke job runs exactly this). `report` folds the stream back through
//! [`TraceReport`] into the paper-shaped views: a Fig. 2-style per-iteration
//! timeline, per-phase kernel histograms, and the §7 waste breakdown
//! (aborted speculation, idle lanes, retry wall time). `--csv` emits the
//! raw timeline and algorithm series as CSV instead of text tables.
//!
//! `lens` runs the same small pipeline with the morph-lens attribution
//! hub armed (`RecoveryOpts::lens`) and prints the per-phase,
//! per-structure traffic table — global accesses, coalescing
//! transactions, atomic serialization and the hottest contended word of
//! every registered device structure, plus the `unattributed` residue
//! (which a healthy pipeline keeps at ≈0).
//!
//! `flamegraph` runs the same small pipeline with the continuous phase
//! profiler armed instead of a tracer (`RecoveryOpts::profiler`) and
//! writes folded stacks — `algo;iteration-class;phase cycles`, one per
//! line — ready for any `flamegraph.pl`-compatible renderer. The cycles
//! come from the engine's hardware cost model, so the widths rank phases
//! by modelled device time, not host wall time.

use morph_bench::drive_calibrated;
use morph_core::runtime::RecoveryOpts;
use morph_dmr::profile::parallelism_profile_traced;
use morph_trace::{parse_jsonl, JsonlSink, PhaseProfiler, ProfilerScope, TraceReport, Tracer};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!("usage: trace-report run <dmr|sp|pta|mst> <out.jsonl>");
    eprintln!("       trace-report report <in.jsonl> [--csv]");
    eprintln!("       trace-report flamegraph <dmr|sp|pta|mst> <out.folded>");
    eprintln!("       trace-report lens <dmr|sp|pta|mst>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match (args.get(1), args.get(2)) {
            (Some(algo), Some(path)) => run(algo, path),
            _ => usage(),
        },
        Some("report") => match args.get(1) {
            Some(path) => report(path, args.iter().any(|a| a == "--csv")),
            None => usage(),
        },
        Some("flamegraph") => match (args.get(1), args.get(2)) {
            (Some(algo), Some(path)) => flamegraph(algo, path),
            _ => usage(),
        },
        Some("lens") => match args.get(1) {
            Some(algo) => lens(algo),
            None => usage(),
        },
        _ => usage(),
    }
}

/// Run one small pipeline with a JSONL sink attached through the
/// recovering driver, so the stream contains launch spans, per-phase
/// counter deltas, recovery decisions and algorithm iteration markers.
fn run(algo: &str, path: &str) -> ExitCode {
    let sink = match JsonlSink::create(path) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("trace-report: cannot create {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tracer = Tracer::new(Arc::clone(&sink) as _);
    let recovery = RecoveryOpts {
        tracer: tracer.clone(),
        ..RecoveryOpts::default()
    };

    match drive_calibrated(algo, &recovery) {
        Ok((iterations, _)) => eprintln!("{algo}: {iterations} iterations"),
        Err(e) => {
            eprintln!("trace-report: {algo} pipeline failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if algo == "dmr" {
        // Also record the ParaMeter-style Fig. 2 series so the report's
        // `dmr.profile/parallelism` view is populated.
        let mut mesh = morph_workloads::mesh::random_mesh::<f64>(400, 7);
        let profile = parallelism_profile_traced(&mut mesh, &tracer);
        eprintln!("dmr.profile: {} steps", profile.len());
    }

    tracer.flush();
    if let Some(err) = sink.io_error() {
        eprintln!("trace-report: I/O error writing {path}: {err}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {} events to {path}", sink.lines());
    ExitCode::SUCCESS
}

/// Run one small pipeline with the phase profiler armed (no tracer) and
/// write its folded stacks, one `algo;iteration-class;phase cycles` line
/// per cell.
fn flamegraph(algo: &str, path: &str) -> ExitCode {
    let profiler = Arc::new(PhaseProfiler::new());
    let recovery = RecoveryOpts {
        profiler: Some(ProfilerScope::new(Arc::clone(&profiler), algo)),
        ..RecoveryOpts::default()
    };
    if let Err(e) = drive_calibrated(algo, &recovery) {
        eprintln!("trace-report: {algo} pipeline failed: {e}");
        return ExitCode::FAILURE;
    }
    let folded = profiler.to_folded();
    if folded.is_empty() {
        eprintln!("trace-report: {algo}: profiler captured no samples");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(path, &folded) {
        eprintln!("trace-report: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "flamegraph: {} folded stack(s) for {algo} to {path}",
        folded.lines().count()
    );
    ExitCode::SUCCESS
}

/// Run one small pipeline with the attribution hub armed and print the
/// phase × structure traffic table.
fn lens(algo: &str) -> ExitCode {
    let hub = morph_gpu_sim::LensHub::enabled();
    let recovery = RecoveryOpts {
        lens: hub.clone(),
        ..RecoveryOpts::default()
    };
    if let Err(e) = drive_calibrated(algo, &recovery) {
        eprintln!("trace-report: {algo} pipeline failed: {e}");
        return ExitCode::FAILURE;
    }
    let snap = hub.snapshot();
    if snap.rows.is_empty() {
        eprintln!("trace-report: {algo}: lens attributed no traffic");
        return ExitCode::FAILURE;
    }
    print!("{}", snap.render_table());
    ExitCode::SUCCESS
}

/// Parse a recorded stream and render the aggregated views. Any
/// unparseable line is a hard failure — the CI smoke job relies on this
/// to validate the stream.
fn report(path: &str, csv: bool) -> ExitCode {
    let data = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("trace-report: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (events, bad) = parse_jsonl(&data);
    if !bad.is_empty() {
        eprintln!("trace-report: {path}: unparseable lines: {bad:?}");
        return ExitCode::FAILURE;
    }
    if events.is_empty() {
        eprintln!("trace-report: {path}: no events");
        return ExitCode::FAILURE;
    }
    let rpt = TraceReport::from_events(&events);
    if csv {
        print!("{}", rpt.timeline_csv());
        print!("{}", rpt.series_csv());
    } else {
        print!("{}", rpt.render_timeline());
        print!("{}", rpt.render_phases());
        print!("{}", rpt.render_waste());
    }
    ExitCode::SUCCESS
}
