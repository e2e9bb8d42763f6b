//! `perf-suite` — the perf-trajectory harness.
//!
//! ```text
//! perf-suite run <out.json> [--autotune]            # calibrated 4-pipeline sweep
//! perf-suite compare <baseline.json> <candidate.json> [--tolerance PCT]
//! perf-suite diff <baseline.json> <candidate.json> [--tolerance PCT]
//! ```
//!
//! `run` executes one calibrated workload per pipeline (the same
//! geometries the trace smoke job uses), folds each run's launch totals
//! into the paper's efficiency ratios, and writes a trajectory file
//! (`BENCH_<n>.json`, committed per PR). With `--autotune` each run
//! attaches the `morph-tune` closed-loop controller instead of the fixed
//! §7.4 schedule; per-pipeline `TUNE` lines on stderr report how many
//! decision changes the controller actuated. `compare` gates a fresh run
//! against a committed trajectory: the **gated** metrics are the
//! scheduling-deterministic ratios (divergence, abort share, work
//! efficiency, coalescing factor, occupancy) — wall time and throughput
//! are recorded but never gated, because they are machine- and
//! load-dependent. A candidate identical to its baseline passes at zero
//! tolerance.
//!
//! `diff` is the forensic companion to `compare`: it loads both
//! trajectories with a *lenient* row loader (fields newer than the file —
//! e.g. `tune_decisions`, absent before BENCH_6 — are tolerated instead of
//! rejected), finds every gated metric that moved beyond the tolerance in
//! either direction, then re-runs each affected pipeline live with the
//! morph-lens attribution hub armed and names the phase × structure that
//! dominates the lens dimension behind the metric (coalescing factor →
//! transactions, abort ratio → atomic serialization, everything else →
//! raw accesses). `diff` always exits 0 on a clean run — gating is
//! `compare`'s job.
//!
//! Exit codes: 0 ok, 1 hard error (I/O, parse, missing pipeline),
//! 2 regression beyond tolerance (CI soft-fails on 2, hard-fails on 1).

use morph_bench::drive_calibrated;
use morph_core::runtime::RecoveryOpts;
use morph_core::{AutoTuner, TuneConfig};
use morph_trace::json::{parse, JsonValue};
use morph_gpu_sim::{LensHub, LensRow};
use morph_trace::{CountersSnapshot, RingSink, TraceEvent, Tracer};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Schema tag for trajectory files; bump on layout changes.
const SCHEMA: &str = "morph-perf-trajectory-v1";

const ALGOS: [&str; 4] = ["dmr", "sp", "pta", "mst"];

/// The gated, scheduling-deterministic metrics, with the direction in
/// which each may drift without being a regression.
const GATED: [(&str, Direction); 5] = [
    ("divergence_ratio", Direction::LowerIsBetter),
    ("abort_ratio", Direction::LowerIsBetter),
    ("work_efficiency", Direction::HigherIsBetter),
    ("coalescing_factor", Direction::HigherIsBetter),
    ("occupancy", Direction::HigherIsBetter),
];

#[derive(Clone, Copy)]
enum Direction {
    LowerIsBetter,
    HigherIsBetter,
}

fn usage() -> ExitCode {
    eprintln!("usage: perf-suite run <out.json> [--autotune]");
    eprintln!("       perf-suite compare <baseline.json> <candidate.json> [--tolerance PCT]");
    eprintln!("       perf-suite diff <baseline.json> <candidate.json> [--tolerance PCT]");
    ExitCode::FAILURE
}

fn parse_tolerance(args: &[String]) -> Option<f64> {
    match args.iter().position(|a| a == "--tolerance") {
        None => Some(10.0),
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) {
            Some(t) if t >= 0.0 => Some(t),
            _ => None,
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match args.get(1) {
            Some(out) => run(out, args.iter().any(|a| a == "--autotune")),
            None => usage(),
        },
        Some(cmd @ ("compare" | "diff")) => match (args.get(1), args.get(2)) {
            (Some(base), Some(cand)) => {
                let Some(tolerance) = parse_tolerance(&args) else {
                    eprintln!("perf-suite: --tolerance needs a non-negative percent");
                    return ExitCode::FAILURE;
                };
                if cmd == "compare" {
                    compare(base, cand, tolerance)
                } else {
                    diff(base, cand, tolerance)
                }
            }
            _ => usage(),
        },
        _ => usage(),
    }
}

/// One pipeline's trajectory row.
struct PipelineRow {
    algo: &'static str,
    wall_ms: f64,
    iterations: u64,
    work_items: u64,
    totals: CountersSnapshot,
    /// Decision *changes* the autotuner actuated (0 when detached). Not a
    /// gated metric — recorded so tuned trajectories are self-describing.
    tune_decisions: u64,
}

impl PipelineRow {
    fn abort_ratio(&self) -> f64 {
        let done = self.totals.aborts + self.totals.commits;
        if done == 0 {
            0.0
        } else {
            self.totals.aborts as f64 / done as f64
        }
    }

    fn work_efficiency(&self) -> f64 {
        let lanes = self.totals.active_threads + self.totals.idle_threads;
        if lanes == 0 {
            0.0
        } else {
            self.totals.active_threads as f64 / lanes as f64
        }
    }

    fn throughput_per_s(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.work_items as f64 / (self.wall_ms / 1e3)
        }
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"algo\":\"{}\",\"wall_ms\":{:.3},\"iterations\":{},",
                "\"work_items\":{},\"throughput_per_s\":{:.3},",
                "\"divergence_ratio\":{:.6},\"abort_ratio\":{:.6},",
                "\"work_efficiency\":{:.6},\"coalescing_factor\":{:.6},",
                "\"occupancy\":{:.6},\"tune_decisions\":{}}}"
            ),
            self.algo,
            self.wall_ms,
            self.iterations,
            self.work_items,
            self.throughput_per_s(),
            self.totals.divergence_ratio(),
            self.abort_ratio(),
            self.work_efficiency(),
            self.totals.coalescing_factor(),
            self.totals.occupancy(),
            self.tune_decisions,
        )
    }
}

/// Run one calibrated pipeline with a ring tracer attached and fold its
/// launch totals.
fn run_pipeline(algo: &'static str, autotune: bool) -> Result<PipelineRow, String> {
    let sink = Arc::new(RingSink::new(1 << 16));
    let recovery = RecoveryOpts {
        tracer: Tracer::new(Arc::clone(&sink) as _),
        tuner: if autotune {
            AutoTuner::enabled(TuneConfig::default())
        } else {
            AutoTuner::default()
        },
        ..RecoveryOpts::default()
    };
    let start = Instant::now();
    let (iterations, work_items) = drive_calibrated(algo, &recovery)?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut totals = CountersSnapshot::default();
    let mut launches = 0u64;
    let mut tune_decisions = 0u64;
    for ev in sink.events() {
        match ev {
            TraceEvent::LaunchEnd { totals: t, .. } => {
                totals.add(&t);
                launches += 1;
            }
            TraceEvent::Tune { .. } => tune_decisions += 1,
            _ => {}
        }
    }
    if launches == 0 {
        return Err(format!("{algo}: no launches recorded"));
    }
    Ok(PipelineRow {
        algo,
        wall_ms,
        iterations,
        work_items,
        totals,
        tune_decisions,
    })
}

fn run(out: &str, autotune: bool) -> ExitCode {
    if autotune {
        eprintln!("autotune: morph-tune controller attached (fixed §7.4 schedule replaced)");
    }
    let mut rows = Vec::new();
    for algo in ALGOS {
        match run_pipeline(algo, autotune) {
            Ok(row) => {
                eprintln!(
                    "{algo}: {:.1} ms, {} iterations, {} items, \
                     divergence {:.3}, coalescing {:.2}, occupancy {:.3}",
                    row.wall_ms,
                    row.iterations,
                    row.work_items,
                    row.totals.divergence_ratio(),
                    row.totals.coalescing_factor(),
                    row.totals.occupancy(),
                );
                if autotune {
                    eprintln!(
                        "TUNE {algo}: {} decision change(s), abort ratio {:.3}",
                        row.tune_decisions,
                        row.abort_ratio(),
                    );
                }
                rows.push(row);
            }
            Err(e) => {
                eprintln!("perf-suite: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let body = rows
        .iter()
        .map(PipelineRow::to_json)
        .collect::<Vec<_>>()
        .join(",");
    let text = format!("{{\"schema\":\"{SCHEMA}\",\"pipelines\":[{body}]}}\n");
    // Self-check: the file must parse and self-compare cleanly before it
    // is worth committing as a trajectory point.
    if let Err(e) = load_trajectory_text(&text) {
        eprintln!("perf-suite: generated trajectory is invalid: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(out, &text) {
        eprintln!("perf-suite: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote trajectory for {} pipelines to {out}", rows.len());
    ExitCode::SUCCESS
}

/// `algo -> metric -> value`, validated against the schema tag.
type Trajectory = Vec<(String, Vec<(String, f64)>)>;

fn load_trajectory_text(text: &str) -> Result<Trajectory, String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    match v.get("schema").and_then(JsonValue::as_str) {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("unsupported schema {other:?}")),
        None => return Err("missing schema tag".into()),
    }
    let Some(JsonValue::Array(pipelines)) = v.get("pipelines") else {
        return Err("missing pipelines array".into());
    };
    let mut out = Vec::new();
    for p in pipelines {
        let algo = p
            .get("algo")
            .and_then(JsonValue::as_str)
            .ok_or("pipeline row without algo")?
            .to_string();
        let mut metrics = Vec::new();
        for (name, _) in GATED {
            let value = p
                .get(name)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{algo}: missing gated metric {name}"))?;
            if !value.is_finite() {
                return Err(format!("{algo}: non-finite {name}"));
            }
            metrics.push((name.to_string(), value));
        }
        out.push((algo, metrics));
    }
    Ok(out)
}

fn load_trajectory(path: &str) -> Result<Trajectory, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    load_trajectory_text(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(base_path: &str, cand_path: &str, tolerance_pct: f64) -> ExitCode {
    let (base, cand) = match (load_trajectory(base_path), load_trajectory(cand_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("perf-suite: {e}");
            }
            return ExitCode::FAILURE;
        }
    };
    let tol = tolerance_pct / 100.0;
    let mut regressions = 0u32;
    for (algo, base_metrics) in &base {
        let Some((_, cand_metrics)) = cand.iter().find(|(a, _)| a == algo) else {
            eprintln!("perf-suite: candidate is missing pipeline {algo}");
            return ExitCode::FAILURE;
        };
        for ((name, b), (_, c)) in base_metrics.iter().zip(cand_metrics) {
            // Strictly-worse-than-the-band counts; equality always passes,
            // so a trajectory self-compares cleanly at zero tolerance.
            let worse = match GATED.iter().find(|(n, _)| n == name).map(|(_, d)| d) {
                Some(Direction::LowerIsBetter) => *c > b * (1.0 + tol) + f64::EPSILON,
                Some(Direction::HigherIsBetter) => *c < b * (1.0 - tol) - f64::EPSILON,
                None => unreachable!("loader only admits gated metrics"),
            };
            if worse {
                eprintln!(
                    "REGRESSION {algo}.{name}: baseline {b:.6} -> candidate {c:.6} \
                     (tolerance {tolerance_pct}%)"
                );
                regressions += 1;
            } else {
                eprintln!("ok {algo}.{name}: {b:.6} -> {c:.6}");
            }
        }
    }
    if regressions > 0 {
        eprintln!("perf-suite: {regressions} gated metric(s) regressed");
        return ExitCode::from(2);
    }
    eprintln!("perf-suite: no regressions beyond {tolerance_pct}% tolerance");
    ExitCode::SUCCESS
}

// ---- diff: regression attribution via morph-lens -----------------------

/// One pipeline row loaded leniently: the gated metrics (required) plus
/// whatever other numeric fields the file carries. Fields newer than the
/// file — `tune_decisions` predates BENCH_6 — simply don't appear.
struct LoadedRow {
    algo: String,
    metrics: Vec<(String, f64)>,
}

/// Every numeric field a trajectory row may carry, gated first. Optional
/// fields absent from older files load as missing, not as errors.
const OPTIONAL_FIELDS: [&str; 5] =
    ["wall_ms", "iterations", "work_items", "throughput_per_s", "tune_decisions"];

fn load_rows_text(text: &str) -> Result<Vec<LoadedRow>, String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    match v.get("schema").and_then(JsonValue::as_str) {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("unsupported schema {other:?}")),
        None => return Err("missing schema tag".into()),
    }
    let Some(JsonValue::Array(pipelines)) = v.get("pipelines") else {
        return Err("missing pipelines array".into());
    };
    let mut out = Vec::new();
    for p in pipelines {
        let algo = p
            .get("algo")
            .and_then(JsonValue::as_str)
            .ok_or("pipeline row without algo")?
            .to_string();
        let mut metrics = Vec::new();
        for (name, _) in GATED {
            let value = p
                .get(name)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{algo}: missing gated metric {name}"))?;
            if !value.is_finite() {
                return Err(format!("{algo}: non-finite {name}"));
            }
            metrics.push((name.to_string(), value));
        }
        for name in OPTIONAL_FIELDS {
            if let Some(value) = p.get(name).and_then(JsonValue::as_f64) {
                metrics.push((name.to_string(), value));
            }
        }
        out.push(LoadedRow { algo, metrics });
    }
    Ok(out)
}

fn load_rows(path: &str) -> Result<Vec<LoadedRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    load_rows_text(&text).map_err(|e| format!("{path}: {e}"))
}

/// A gated metric that moved beyond the tolerance band, in either
/// direction.
struct MovedMetric {
    algo: String,
    metric: &'static str,
    base: f64,
    cand: f64,
    /// Moved in the *worse* direction for its gate.
    regressed: bool,
}

/// Gated metrics whose value moved beyond `tol` (relative, so a zero
/// baseline treats any nonzero candidate as moved) between two loaded
/// trajectories.
fn moved_gated_metrics(base: &[LoadedRow], cand: &[LoadedRow], tol: f64) -> Vec<MovedMetric> {
    let mut moved = Vec::new();
    for b in base {
        let Some(c) = cand.iter().find(|c| c.algo == b.algo) else {
            continue;
        };
        for (name, dir) in GATED {
            let get = |row: &LoadedRow| {
                row.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
            };
            let (Some(bv), Some(cv)) = (get(b), get(c)) else {
                continue;
            };
            if (cv - bv).abs() <= tol * bv.abs() + f64::EPSILON {
                continue;
            }
            let regressed = match dir {
                Direction::LowerIsBetter => cv > bv,
                Direction::HigherIsBetter => cv < bv,
            };
            moved.push(MovedMetric {
                algo: b.algo.clone(),
                metric: name,
                base: bv,
                cand: cv,
                regressed,
            });
        }
    }
    moved
}

/// The lens dimension that explains a gated metric's movement.
fn lens_dimension(metric: &str) -> (&'static str, fn(&LensRow) -> u64) {
    match metric {
        "coalescing_factor" => ("transactions", |r: &LensRow| r.transactions),
        "abort_ratio" => ("atomic serialization", |r: &LensRow| r.atomic_serial),
        _ => ("accesses", |r: &LensRow| r.accesses),
    }
}

/// Re-run one pipeline with the attribution hub armed and return its
/// cumulative phase × structure rows.
fn lens_rows(algo: &str) -> Result<Vec<LensRow>, String> {
    let hub = LensHub::enabled();
    let recovery = RecoveryOpts {
        lens: hub.clone(),
        ..RecoveryOpts::default()
    };
    drive_calibrated(algo, &recovery)?;
    Ok(hub.snapshot().rows)
}

/// Attribute every moved gated metric to the phase × structure dominating
/// its lens dimension in a live lens-armed re-run of the pipeline.
fn diff(base_path: &str, cand_path: &str, tolerance_pct: f64) -> ExitCode {
    let (base, cand) = match (load_rows(base_path), load_rows(cand_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("perf-suite: {e}");
            }
            return ExitCode::FAILURE;
        }
    };
    let moved = moved_gated_metrics(&base, &cand, tolerance_pct / 100.0);
    if moved.is_empty() {
        println!("no gated metric moved beyond {tolerance_pct}% between the trajectories");
        return ExitCode::SUCCESS;
    }
    let mut rows_by_algo: Vec<(String, Vec<LensRow>)> = Vec::new();
    for m in &moved {
        let idx = match rows_by_algo.iter().position(|(a, _)| *a == m.algo) {
            Some(i) => i,
            None => match lens_rows(&m.algo) {
                Ok(rows) => {
                    rows_by_algo.push((m.algo.clone(), rows));
                    rows_by_algo.len() - 1
                }
                Err(e) => {
                    eprintln!("perf-suite: lens re-run of {} failed: {e}", m.algo);
                    return ExitCode::FAILURE;
                }
            },
        };
        let rows = &rows_by_algo[idx].1;
        let label = if m.regressed { "REGRESSED" } else { "improved" };
        println!(
            "{label} {}.{}: {:.6} -> {:.6}",
            m.algo, m.metric, m.base, m.cand
        );
        let (dim_name, dim) = lens_dimension(m.metric);
        let total: u64 = rows.iter().map(&dim).sum();
        match rows.iter().max_by_key(|r| dim(r)) {
            Some(top) if dim(top) > 0 => {
                let share = 100.0 * dim(top) as f64 / total as f64;
                println!(
                    "  -> dominated by phase {} x {} ({:.1}% of lens {dim_name}; \
                     {} accesses, {} transactions, {} atomic serialization)",
                    top.phase, top.region, share, top.accesses, top.transactions,
                    top.atomic_serial,
                );
            }
            _ => println!("  -> no lens {dim_name} recorded for {}", m.algo),
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed trajectory artifacts this repo gates against. Both
    /// must stay loadable forever: BENCH_5 predates `tune_decisions`,
    /// BENCH_9 carries it.
    const BENCH_5: &str =
        include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_5.json"));
    const BENCH_9: &str =
        include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_9.json"));

    #[test]
    fn gated_loader_accepts_both_committed_artifacts() {
        assert!(!BENCH_5.contains("tune_decisions"), "BENCH_5 predates the field");
        assert!(BENCH_9.contains("tune_decisions"));
        for text in [BENCH_5, BENCH_9] {
            let t = load_trajectory_text(text).unwrap();
            assert_eq!(t.len(), ALGOS.len());
        }
    }

    #[test]
    fn lenient_loader_tolerates_fields_absent_from_older_files() {
        let old = load_rows_text(BENCH_5).unwrap();
        let new = load_rows_text(BENCH_9).unwrap();
        assert_eq!(old.len(), ALGOS.len());
        let has_tune =
            |rows: &[LoadedRow]| rows.iter().all(|r| r.metrics.iter().any(|(n, _)| n == "tune_decisions"));
        assert!(!has_tune(&old), "absent field must load as missing, not fail");
        assert!(has_tune(&new));
        // Gated metrics are still mandatory in both.
        for rows in [&old, &new] {
            for row in rows.iter() {
                for (name, _) in GATED {
                    assert!(row.metrics.iter().any(|(n, _)| n == name), "{}.{name}", row.algo);
                }
            }
        }
    }

    #[test]
    fn pta_coalescing_move_is_detected_between_committed_artifacts() {
        let base = load_rows_text(BENCH_5).unwrap();
        let cand = load_rows_text(BENCH_9).unwrap();
        let moved = moved_gated_metrics(&base, &cand, 0.10);
        let pta = moved
            .iter()
            .find(|m| m.algo == "pta" && m.metric == "coalescing_factor")
            .expect("the PTA coalescing change must be detected");
        assert!(!pta.regressed, "coalescing went up — an improvement");
        assert_eq!(pta.base, 0.0);
        assert!(pta.cand > 50.0);
    }

    #[test]
    fn zero_tolerance_self_diff_moves_nothing() {
        let rows = load_rows_text(BENCH_9).unwrap();
        let moved = moved_gated_metrics(&rows, &rows, 0.0);
        assert!(moved.is_empty());
    }
}
