//! The two serving workloads: `serve-mem` and `serve-durable`.
//!
//! A closed loop: [`CLIENTS`] client threads each keep [`OUTSTANDING`]
//! jobs in flight over one `MorphServe` pool through `submit` + `wait`,
//! sending the next job only when the oldest one it holds has reached a
//! terminal state. Clients block in `wait`; nothing spins. Turnaround is
//! client-side: `submit` entered → terminal status in hand.

use crate::pipelines::{input_seed, peak_rss_mb, SETUP_REPS};
use crate::report::{Metrics, Outcome};
use crate::spans::{self, Recorder};
use crate::stats::{median, quartiles, ratio, tail};
use crate::{probes, spec, Ctx};
use morph_core::runtime::RecoveryOpts;
use morph_serve::{
    fold_journal, scan_journal, JobSpec, JobStatus, MorphServe, Priority, ServeConfig,
    ServeSummary, Workload,
};
use morph_trace::{TraceEvent, TraceReport, TraceSink, Tracer};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;
pub const OUTSTANDING: usize = 4;
const WARMUP_JOBS: u64 = 64;
/// Warm-up jobs draw from their own index range, so the window's job
/// sequence starts at index 0 whatever set-up did.
const WARMUP_BASE: u64 = 1 << 40;

/// A splitmix64 stream; the generator's only source of randomness.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = input_seed(self.0, 1);
        self.0 % n
    }
}

/// Job `index` of the run seeded `seed`: a pure function of both, so the
/// job sequence is the same whichever client draws which index.
pub fn job_spec(seed: u64, index: u64) -> JobSpec {
    let mut rng = Rng(input_seed(seed, index));
    let tenant = ["acme", "blue", "cyan"][rng.below(3) as usize];
    let job_seed = rng.below(1 << 48);
    let workload = match rng.below(4) {
        0 => Workload::Dmr {
            triangles: 400 + rng.below(65) as u32,
            seed: job_seed,
        },
        1 => Workload::Sp {
            vars: 160,
            clauses: 640,
            k: 3,
            max_sweeps: 30,
            seed: job_seed,
        },
        2 => Workload::Pta {
            vars: 160,
            constraints: 400,
            seed: job_seed,
        },
        _ => Workload::Mst {
            nodes: 400,
            edges: 1200,
            seed: job_seed,
        },
    };
    let priority = match rng.below(10) {
        0..=1 => Priority::High,
        2..=7 => Priority::Normal,
        _ => Priority::Low,
    };
    JobSpec::new(tenant, workload).with_priority(priority)
}

fn config(durable: bool, state_dir: &Path) -> ServeConfig {
    ServeConfig {
        // Two single-SM devices: one worker thread per sandbox core, and
        // every launch takes the engine's inline path.
        devices: 2,
        sms_per_device: 1,
        queue_capacity: 64,
        state_dir: durable.then(|| state_dir.to_path_buf()),
        checkpoint_every: if durable { 4 } else { 0 },
        ..ServeConfig::default()
    }
}

/// One job as its client saw it.
struct JobSample {
    ok: bool,
    turnaround_s: f64,
    done: Instant,
}

/// When a closed loop stops submitting.
#[derive(Clone, Copy)]
enum Until {
    Deadline(Instant),
    /// Job indices below this bound.
    Index(u64),
}

/// Run the closed loop over `pool`, drawing job indices from `next`.
/// Every submitted job is waited for before this returns.
fn closed_loop(
    pool: &MorphServe,
    seed: u64,
    next: &AtomicU64,
    until: Until,
    rec: &Recorder,
) -> Vec<JobSample> {
    struct InFlight {
        id: Option<u64>,
        root: u64,
        submitted: Instant,
        admitted: Instant,
    }
    let client = || {
        let mut out = Vec::new();
        let mut flight: VecDeque<InFlight> = VecDeque::new();
        loop {
            while flight.len() < OUTSTANDING {
                let index = match until {
                    Until::Deadline(d) if Instant::now() >= d => break,
                    Until::Deadline(_) => next.fetch_add(1, Ordering::Relaxed),
                    Until::Index(bound) => {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= bound {
                            break;
                        }
                        i
                    }
                };
                let spec = job_spec(seed, index);
                let root = rec.id();
                let submitted = Instant::now();
                let id = pool.submit(spec).ok();
                let admitted = Instant::now();
                rec.record(
                    rec.id(),
                    "serve.submit",
                    root,
                    Some(root),
                    submitted,
                    admitted,
                );
                flight.push_back(InFlight {
                    id,
                    root,
                    submitted,
                    admitted,
                });
            }
            let Some(job) = flight.pop_front() else {
                break;
            };
            // A refused submission is a failed job with no wait.
            let status = job.id.and_then(|id| pool.wait(id));
            let done = Instant::now();
            rec.record(
                rec.id(),
                "serve.wait",
                job.root,
                Some(job.root),
                job.admitted,
                done,
            );
            rec.record(job.root, spans::JOB, job.root, None, job.submitted, done);
            out.push(JobSample {
                ok: matches!(status, Some(JobStatus::Finished { .. })),
                turnaround_s: (done - job.submitted).as_secs_f64(),
                done,
            });
        }
        out
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS).map(|_| scope.spawn(client)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect()
    })
}

/// Start a pool on a fresh state directory and push the warm-up jobs
/// through it. Returns the pool and the seconds `start` took.
fn start_warm(
    ctx: &Ctx<'_>,
    durable: bool,
    dir: &Path,
    tracer: Tracer,
    outcome: &mut Outcome,
) -> (MorphServe, f64) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("scratch directory is writable");
    let t = Instant::now();
    let pool = MorphServe::start(config(durable, dir), tracer);
    let start_s = t.elapsed().as_secs_f64();
    let next = AtomicU64::new(WARMUP_BASE);
    let until = Until::Index(WARMUP_BASE + WARMUP_JOBS);
    let warm = closed_loop(&pool, ctx.args.seed, &next, until, &ctx.rec);
    outcome.attempted += warm.len() as u64;
    outcome.failed += warm.iter().filter(|j| !j.ok).count() as u64;
    (pool, start_s)
}

/// One measured stretch of the closed loop over a warm pool.
struct Stretch {
    /// Jobs submitted, warm-up included: what the pool's own accounts
    /// must add up to.
    submitted: u64,
    failed: u64,
    /// Seconds `submit` → terminal of the jobs that finished before the
    /// deadline. Jobs still in flight then were waited for and verified,
    /// but ran against a thinning load: they carry no timing.
    turnarounds_s: Vec<f64>,
}

fn stretch(
    ctx: &Ctx<'_>,
    pool: &MorphServe,
    next: &AtomicU64,
    seconds: f64,
    outcome: &mut Outcome,
) -> Stretch {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let jobs = closed_loop(
        pool,
        ctx.args.seed,
        next,
        Until::Deadline(deadline),
        &ctx.rec,
    );
    let failed = jobs.iter().filter(|j| !j.ok).count() as u64;
    outcome.attempted += jobs.len() as u64;
    outcome.failed += failed;
    Stretch {
        submitted: WARMUP_JOBS + jobs.len() as u64,
        failed,
        turnarounds_s: jobs
            .iter()
            .filter(|j| j.ok && j.done <= deadline)
            .map(|j| j.turnaround_s)
            .collect(),
    }
}

/// Keeps the job-lifecycle and checkpoint events of a pool's stream and
/// lets the engine's per-launch events go: a traced window emits a few
/// hundred thousand of those, which a bounded ring would trade for the
/// lifecycle events the summary is folded from.
#[derive(Default)]
struct LifecycleSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceSink for LifecycleSink {
    fn record(&self, event: TraceEvent) {
        if matches!(
            event,
            TraceEvent::Job { .. } | TraceEvent::Checkpoint { .. }
        ) {
            self.events
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(event);
        }
    }
}

/// The durable oracle: read the journal a shut-down pool left in `dir`
/// back with `scan_journal` + `fold_journal` and hold it to exactly one
/// terminal record per submitted job. Returns `(lost, duplicated)`.
fn check_ledger(dir: &Path, submitted: u64, outcome: &mut Outcome) -> (u64, u64) {
    let scan = match scan_journal(dir.join("journal.wal")) {
        Ok(scan) => scan,
        Err(e) => {
            outcome
                .problems
                .push(format!("reading the journal back: {e}"));
            return (0, 0);
        }
    };
    let ledgers = fold_journal(&scan.records);
    let lost = ledgers.values().filter(|l| l.terminal_records == 0).count() as u64;
    let dup = ledgers
        .values()
        .filter(|l| l.terminal_records > 1 || l.starts > l.requeues + 1)
        .count() as u64;
    let admitted = ledgers.len() as u64;
    if lost > 0 || dup > 0 || admitted != submitted {
        outcome.failed += (lost + dup).max(1);
        outcome.problems.push(format!(
            "journal: {admitted} admitted of {submitted} submitted, {lost} lost, {dup} duplicated"
        ));
    }
    (lost, dup)
}

/// Build the input of one job the way `Workload::run` does, through the
/// public generators, without running the pipeline.
fn build_input(w: &Workload) {
    use std::hint::black_box;
    match *w {
        Workload::Dmr { triangles, seed } => {
            black_box(morph_workloads::mesh::random_mesh::<f64>(
                triangles as usize,
                seed,
            ));
        }
        Workload::Sp {
            vars,
            clauses,
            k,
            seed,
            ..
        } => {
            black_box(morph_workloads::ksat::random_ksat(
                vars as usize,
                clauses as usize,
                k as usize,
                seed,
            ));
        }
        Workload::Pta {
            vars,
            constraints,
            seed,
        } => {
            black_box(morph_workloads::pta::synthetic(
                vars as usize,
                constraints as usize,
                seed,
            ));
        }
        Workload::Mst { nodes, edges, seed } => {
            black_box(morph_workloads::graphs::random_graph(
                nodes as usize,
                edges as usize,
                seed,
            ));
        }
    }
}

/// The durable plane's layer metrics, from the directory the traced pool
/// left behind and a probe journal beside it.
fn durable_layer(
    ctx: &Ctx<'_>,
    dir: &Path,
    traced: &Stretch,
    summary: &ServeSummary,
    journal_appends: u64,
    outcome: &mut Outcome,
    m: &mut Metrics,
) {
    let wal = dir.join("journal.wal");
    let journal_bytes = std::fs::metadata(&wal).map_or(0, |md| md.len());
    m.insert("serve.journal_appends", journal_appends as f64);
    m.insert(
        "serve.journal_bytes_per_job",
        journal_bytes as f64 / traced.submitted as f64,
    );
    let t = Instant::now();
    let (lost, dup) = check_ledger(dir, traced.submitted, outcome);
    m.insert("serve.journal_scan_ms", t.elapsed().as_secs_f64() * 1e3);
    // The journal and the trace stream must tell one story.
    m.insert("serve.lost", (lost + summary.lost) as f64);
    m.insert("serve.dup", (dup + summary.duplicate_runs) as f64);
    match probes::journal(&ctx.scratch) {
        Ok(p) => {
            m.insert("serve.journal_append_us", p.append_us);
            m.insert("serve.journal_sync_us", p.sync_us);
        }
        Err(e) => outcome.problems.push(format!("journal probe: {e}")),
    }
    m.insert("serve.checkpoints", summary.checkpoints as f64);
    m.insert(
        "serve.checkpoint_bytes_per_job",
        summary.checkpoint_bytes as f64 / summary.finished.max(1) as f64,
    );
    // A second start on the populated directory: journal replay and
    // checkpoint-store reconciliation, with nothing left to re-run.
    let t = Instant::now();
    let mut again = MorphServe::start(config(true, dir), Tracer::disabled());
    m.insert("serve.restart_ms", t.elapsed().as_secs_f64() * 1e3);
    let recovered = again.recovery();
    again.shutdown();
    if recovered.journaled_jobs != traced.submitted || recovered.terminal() != traced.submitted {
        outcome.problems.push(format!(
            "restart saw {} journaled / {} terminal jobs of {}",
            recovered.journaled_jobs,
            recovered.terminal(),
            traced.submitted
        ));
    }
}

/// The traced half of a traced run: a second pool with the lifecycle sink
/// attached and spans on, then the probes. `plain` is the spans-off half.
fn per_layer(
    ctx: &Ctx<'_>,
    durable: bool,
    plain: &Stretch,
    seconds: f64,
    next: &AtomicU64,
    outcome: &mut Outcome,
    m: &mut Metrics,
) {
    let sink = Arc::new(LifecycleSink::default());
    let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let dir = ctx.scratch.join("state-traced");
    let (mut pool, _) = start_warm(ctx, durable, &dir, tracer, outcome);
    ctx.rec.set_enabled(true);
    let traced = stretch(ctx, &pool, next, seconds, outcome);
    ctx.rec.set_enabled(false);
    let journal_appends = pool.journal().map_or(0, |j| j.appends());
    pool.shutdown();

    let all_spans = ctx.rec.take();
    let submits = spans::self_times_of(&all_spans, "serve.submit");
    m.insert("serve.submit_us_p50", median(&submits) * 1e6);
    m.insert("serve.submit_us_p99", tail(&submits, 0.99).1 * 1e6);
    m.insert(
        "bench.trace_overhead_ratio",
        ratio(median(&traced.turnarounds_s), median(&plain.turnarounds_s)),
    );
    m.insert(
        "serve.jobs_finished",
        (traced.submitted - WARMUP_JOBS - traced.failed) as f64,
    );
    m.insert("serve.jobs_failed", traced.failed as f64);

    // The pool's own account of the traced stretch, folded from its
    // lifecycle events; checking it is this workload's end-of-run oracle.
    let verify = Instant::now();
    let events = std::mem::take(&mut *sink.events.lock().unwrap_or_else(|e| e.into_inner()));
    let report = TraceReport::from_events(events.iter());
    let summary = ServeSummary::from_report(&report);
    if summary.lost > 0 || summary.duplicate_runs > 0 || summary.finished != traced.submitted {
        outcome.failed += (summary.lost + summary.duplicate_runs).max(1);
        outcome.problems.push(format!(
            "summary: {} finished of {} submitted, {} lost, {} duplicated",
            summary.finished, traced.submitted, summary.lost, summary.duplicate_runs
        ));
    }
    m.insert("check.verify_s", verify.elapsed().as_secs_f64());
    let ms_of = |f: fn(&morph_trace::JobRow) -> Option<u64>| -> Vec<f64> {
        report
            .jobs
            .values()
            .filter_map(f)
            .map(|us| us as f64 / 1e3)
            .collect()
    };
    let runs_ms = ms_of(|r| r.run_us());
    m.insert("serve.queue_wait_ms_p50", median(&ms_of(|r| r.wait_us())));
    m.insert("serve.run_ms_p50", median(&runs_ms));
    m.insert("serve.run_ms_p99", tail(&runs_ms, 0.99).1);
    m.insert("serve.queue_depth_peak", summary.queue_depth_peak as f64);

    // The same specs with no pool around them, and their inputs alone.
    let mut direct_ms = Vec::new();
    let mut builds_s = Vec::new();
    for spec in (0..WARMUP_JOBS).map(|i| job_spec(ctx.args.seed, i)) {
        let t = Instant::now();
        let ran = spec.workload.run(1, &RecoveryOpts::default());
        direct_ms.push(t.elapsed().as_secs_f64() * 1e3);
        outcome.attempted += 1;
        outcome.failed += u64::from(ran.is_err());
        let t = Instant::now();
        build_input(&spec.workload);
        builds_s.push(t.elapsed().as_secs_f64());
    }
    m.insert("serve.direct_run_ms_p50", median(&direct_ms));
    m.insert(
        "serve.run_inflation_ratio",
        ratio(median(&runs_ms), median(&direct_ms)),
    );
    m.insert("workloads.build_s", median(&builds_s));
    m.insert("gpu-sim.launch_empty_1sm_us", probes::launch_empty_us(1));

    if durable {
        durable_layer(ctx, &dir, &traced, &summary, journal_appends, outcome, m);
    }
    spans::conclude(
        &all_spans,
        &ctx.scratch,
        outcome.workload,
        m,
        &mut outcome.problems,
    );
}

pub fn run(durable: bool, ctx: &Ctx<'_>) -> Outcome {
    let mut outcome = Outcome {
        workload: if durable {
            spec::SERVE_DURABLE
        } else {
            spec::SERVE_MEM
        },
        seed: ctx.args.seed,
        traced: ctx.args.trace,
        samples: 0,
        quartiles_s: (0.0, 0.0, 0.0),
        attempted: 0,
        failed: 0,
        deterministic: true,
        metrics: Metrics::new(),
        problems: Vec::new(),
    };
    let mut m = Metrics::new();

    // Set-up, SETUP_REPS times over: pool start on an empty state
    // directory plus the warm-up jobs. The last pool serves the window.
    let dir = ctx.scratch.join("state-window");
    let mut setups = Vec::new();
    let mut starts = Vec::new();
    let mut pool = None;
    for _ in 0..SETUP_REPS {
        drop(pool.take());
        let t = Instant::now();
        let (p, start_s) = start_warm(ctx, durable, &dir, Tracer::disabled(), &mut outcome);
        setups.push(t.elapsed().as_secs_f64());
        starts.push(start_s);
        pool = Some(p);
    }
    let mut pool = pool.expect("SETUP_REPS is at least 1");

    // The spans-off window. A traced run gives it half the time and
    // spends the other half on a second, traced pool.
    let seconds = if ctx.args.trace {
        ctx.args.seconds / 2.0
    } else {
        ctx.args.seconds
    };
    let next = AtomicU64::new(0);
    let plain = stretch(ctx, &pool, &next, seconds, &mut outcome);
    pool.shutdown();
    if durable {
        check_ledger(&dir, plain.submitted, &mut outcome);
    }
    outcome.samples = plain.turnarounds_s.len() as u64;
    outcome.quartiles_s = quartiles(&plain.turnarounds_s);

    if ctx.args.trace {
        m.insert("serve.start_ms", median(&starts) * 1e3);
        per_layer(ctx, durable, &plain, seconds, &next, &mut outcome, &mut m);
    } else {
        let p50_s = median(&plain.turnarounds_s);
        m.insert("setup_s", median(&setups));
        m.insert("wall_s", p50_s);
        m.insert("jobs_per_s", plain.turnarounds_s.len() as f64 / seconds);
        m.insert("turnaround_p50_ms", p50_s * 1e3);
        m.insert(
            "turnaround_p99_ms",
            tail(&plain.turnarounds_s, 0.99).1 * 1e3,
        );
        m.insert("peak_rss_mb", peak_rss_mb());
    }
    outcome.metrics = m;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(seed: u64, n: u64) -> String {
        (0..n)
            .map(|i| {
                let s = job_spec(seed, i);
                format!(
                    "{} {} {}\n",
                    s.tenant,
                    s.priority.as_str(),
                    s.workload.encode()
                )
            })
            .collect()
    }

    #[test]
    fn the_same_seed_gives_a_byte_identical_spec_list() {
        assert_eq!(encoded(7, 500), encoded(7, 500));
        assert_ne!(encoded(7, 500), encoded(8, 500));
    }

    #[test]
    fn the_mix_covers_every_pipeline_tenant_and_priority() {
        let text = encoded(1, 2000);
        for needle in ["dmr 4", "sp 160 640 3 30", "pta 160 400", "mst 400 1200"] {
            assert!(text.contains(needle), "{needle}");
        }
        for tenant in ["acme", "blue", "cyan"] {
            assert!(text.contains(tenant));
        }
        let share = |p: &str| text.matches(&format!(" {p} ")).count() as f64 / 2000.0;
        assert!((share("high") - 0.2).abs() < 0.05);
        assert!((share("normal") - 0.6).abs() < 0.05);
        assert!((share("low") - 0.2).abs() < 0.05);
        for line in text.lines().filter(|l| l.contains(" dmr ")) {
            let triangles: u32 = line.split(' ').nth(3).unwrap().parse().unwrap();
            assert!((400..=464).contains(&triangles), "{line}");
        }
    }
}
