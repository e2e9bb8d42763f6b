//! The profiler aggregator: folds an event stream into per-phase
//! aggregates, a per-launch timeline, and algorithm metric series — the
//! material of the paper's Fig. 2 (parallelism over time) and §7 ablation
//! arguments (where the waste went: divergence, aborts, atomics,
//! barriers).

use crate::event::{CountersSnapshot, JobEventKind, RecoveryKind, RestoreOutcome, TraceEvent};
use std::collections::BTreeMap;

/// Aggregate over every `PhaseSpan` with the same phase index.
#[derive(Debug, Default, Clone)]
pub struct PhaseAgg {
    /// Number of spans folded in.
    pub spans: u64,
    /// Total wall time (µs, worker-0 observed, barrier wait included).
    pub wall_us: u64,
    /// Summed counter deltas.
    pub counters: CountersSnapshot,
}

/// One host-loop step of the timeline: everything between a
/// `LaunchBegin`/`LaunchEnd` pair. Under launch-per-iteration drivers
/// (all four pipelines) this *is* one algorithm iteration.
#[derive(Debug, Default, Clone)]
pub struct LaunchRow {
    pub launch: u64,
    pub iterations: u64,
    pub wall_us: u64,
    pub totals: CountersSnapshot,
}

/// A recovery decision, as it appeared in the stream.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    pub iteration: u64,
    pub attempt: u64,
    pub kind: RecoveryKind,
    pub capacity: u64,
    pub detail: String,
}

/// A morph-check sanitizer / end-state-oracle verdict from the stream.
#[derive(Debug, Clone)]
pub struct SanitizerRow {
    pub check: String,
    pub status: String,
    pub index: u64,
    pub detail: String,
}

impl SanitizerRow {
    pub fn is_violation(&self) -> bool {
        self.status != "ok"
    }
}

/// One job's lifecycle folded from its [`TraceEvent::Job`] events: the
/// timestamps behind the wait/run/turnaround metrics a serving layer
/// reports, plus consistency counters (`starts`, `requeues`) that let
/// tests prove no job ran twice without an intervening requeue.
#[derive(Debug, Default, Clone)]
pub struct JobRow {
    pub job: u64,
    pub tenant: String,
    /// Epoch-µs of the `Submitted` event.
    pub submitted_us: Option<u64>,
    /// Epoch-µs of the *latest* `Started` (re-runs overwrite: wait time is
    /// measured to the attempt that reached a terminal state).
    pub started_us: Option<u64>,
    /// Epoch-µs of the terminal event.
    pub ended_us: Option<u64>,
    /// Absolute deadline (epoch-µs); `None` when the job had none.
    pub deadline_us: Option<u64>,
    /// The terminal transition, once one arrived.
    pub outcome: Option<JobEventKind>,
    /// 1-based device slot of the last `Started`.
    pub device: Option<u64>,
    /// `Started` events seen (> requeues + 1 would mean a duplicated run).
    pub starts: u64,
    /// `Requeued` events seen.
    pub requeues: u64,
    /// `Resumed` transitions: runs that restarted from a checkpoint
    /// instead of from scratch.
    pub resumes: u64,
    /// `Eviction` events: times the job was pulled off a live device slot
    /// (device loss, hung-kernel watchdog).
    pub evictions: u64,
    /// Checkpoints persisted for this job.
    pub checkpoints: u64,
    /// Total encoded bytes over those checkpoints (overhead accounting).
    pub checkpoint_bytes: u64,
    /// Detail string of the terminal event.
    pub detail: String,
}

impl JobRow {
    /// Queue wait: submission → (final) start.
    pub fn wait_us(&self) -> Option<u64> {
        Some(self.started_us?.saturating_sub(self.submitted_us?))
    }

    /// Device occupancy of the final run: start → terminal.
    pub fn run_us(&self) -> Option<u64> {
        Some(self.ended_us?.saturating_sub(self.started_us?))
    }

    /// Submission → terminal.
    pub fn turnaround_us(&self) -> Option<u64> {
        Some(self.ended_us?.saturating_sub(self.submitted_us?))
    }

    /// Did the job reach its terminal state after its deadline?
    pub fn missed_deadline(&self) -> bool {
        match (self.deadline_us, self.ended_us) {
            (Some(dl), Some(end)) => end > dl,
            _ => false,
        }
    }
}

/// A device-slot health transition from the stream, in order.
#[derive(Debug, Clone)]
pub struct HealthRow {
    pub device: u64,
    pub state: String,
    pub failures: u64,
    pub t_us: u64,
}

/// A monitor alert ([`TraceEvent::Alert`]) from the stream, in order.
#[derive(Debug, Clone)]
pub struct AlertRow {
    pub monitor: String,
    pub tenant: String,
    pub severity: String,
    pub value: f64,
    pub threshold: f64,
    pub t_us: u64,
    pub detail: String,
}

/// A restart-recovery reconciliation decision ([`TraceEvent::Restore`])
/// from the stream, in order. Summaries derive the `recovered=` /
/// `replayed=` / `discarded=` counters and the cross-restart `*_base`
/// terminal counts from these rows.
#[derive(Debug, Clone)]
pub struct RestoreRow {
    pub job: u64,
    pub outcome: RestoreOutcome,
    pub version: u64,
    pub iteration: u64,
    pub t_us: u64,
    pub detail: String,
}

/// One autotuner actuation ([`TraceEvent::Tune`]) from the stream, in
/// order: what the `morph-tune` controller changed and why.
#[derive(Debug, Clone)]
pub struct TuneRow {
    pub iteration: u64,
    pub tpb: u64,
    pub policy: String,
    pub compact: bool,
    pub reorder: bool,
    pub detail: String,
}

/// One morph-lens attribution cell, aggregated across every
/// [`TraceEvent::Lens`] record with the same (phase, region) key.
/// `hot_addr`/`hot_count` keep the worst single-warp atomic pile-up seen
/// on the cell across the whole stream.
#[derive(Debug, Default, Clone)]
pub struct LensAgg {
    pub accesses: u64,
    pub transactions: u64,
    pub atomic_ops: u64,
    pub atomic_serial: u64,
    pub hot_addr: u64,
    pub hot_count: u64,
}

impl LensAgg {
    /// Metered accesses per 32-byte transaction for this cell (0 when
    /// the cell saw no transactions).
    pub fn coalescing_factor(&self) -> f64 {
        ratio(self.accesses, self.transactions)
    }
}

/// One phase-profiler cell ([`TraceEvent::ProfileSample`]) from the
/// stream, in order. `crate::profile::PhaseProfiler::fold_events`
/// re-aggregates these into folded stacks.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    pub algo: String,
    pub class: String,
    pub phase: u64,
    pub cycles: u64,
    pub wall_us: u64,
    pub spans: u64,
}

/// Per-tenant fold over [`JobRow`]s — the fair-share evidence: how many
/// jobs each tenant got through and how much device time they consumed.
#[derive(Debug, Default, Clone)]
pub struct TenantAgg {
    pub jobs: u64,
    pub finished: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub rejected: u64,
    pub deadline_misses: u64,
    /// Total device occupancy (sum of final-run `run_us`).
    pub run_us: u64,
    /// Total queue wait (sum of `wait_us`).
    pub wait_us: u64,
}

/// Partition a tagged event stream by job attribution. Untagged events
/// (engine spans from outside any job, etc.) land under `None`; each
/// job's slice preserves stream order and can be folded into its own
/// [`TraceReport`].
pub fn partition_by_job(
    records: &[(Option<u64>, TraceEvent)],
) -> BTreeMap<Option<u64>, Vec<TraceEvent>> {
    let mut parts: BTreeMap<Option<u64>, Vec<TraceEvent>> = BTreeMap::new();
    for (tag, ev) in records {
        parts.entry(*tag).or_default().push(ev.clone());
    }
    parts
}

/// Everything `trace-report` renders, folded from one pass over the
/// events.
#[derive(Debug, Default)]
pub struct TraceReport {
    pub phases: BTreeMap<u64, PhaseAgg>,
    pub launches: Vec<LaunchRow>,
    pub recoveries: Vec<RecoveryRow>,
    /// Sanitizer verdicts, in stream order (empty unless the recorded run
    /// was built with `--features morph-check`).
    pub sanitizers: Vec<SanitizerRow>,
    /// `(algo, metric)` → `(iteration, value)` series, in stream order.
    pub series: BTreeMap<(String, String), Vec<(u64, f64)>>,
    /// Allocator name → peak `used` / last `capacity` seen.
    pub alloc_peaks: BTreeMap<String, (u64, u64)>,
    /// Worklist name → peak `len` / last `capacity` seen.
    pub worklist_peaks: BTreeMap<String, (u64, u64)>,
    /// Whole-stream counter totals (sum of `LaunchEnd` totals).
    pub totals: CountersSnapshot,
    pub total_wall_us: u64,
    /// Job lifecycles folded from `Job` events, keyed by job id.
    pub jobs: BTreeMap<u64, JobRow>,
    /// Peak admission-queue depth observed on any `Job` event.
    pub queue_depth_peak: u64,
    /// Device-slot health transitions, in stream order.
    pub health: Vec<HealthRow>,
    /// Monitor alerts (SLO burn-rate, flight-recorder), in stream order.
    pub alerts: Vec<AlertRow>,
    /// Restart-recovery reconciliation decisions, in stream order.
    pub restores: Vec<RestoreRow>,
    /// Phase-profiler cells, in stream order.
    pub profile: Vec<ProfileRow>,
    /// Autotuner actuations, in stream order.
    pub tunes: Vec<TuneRow>,
    /// Morph-lens attribution cells, keyed by (phase, region).
    pub lens: BTreeMap<(u64, String), LensAgg>,
}

impl TraceReport {
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Self {
        let mut r = TraceReport::default();
        for ev in events {
            match ev {
                TraceEvent::LaunchBegin { .. } => {}
                TraceEvent::PhaseSpan {
                    phase,
                    wall_us,
                    delta,
                    ..
                } => {
                    let agg = r.phases.entry(*phase).or_default();
                    agg.spans += 1;
                    agg.wall_us += wall_us;
                    agg.counters.add(delta);
                }
                TraceEvent::LaunchEnd {
                    launch,
                    iterations,
                    wall_us,
                    totals,
                } => {
                    r.launches.push(LaunchRow {
                        launch: *launch,
                        iterations: *iterations,
                        wall_us: *wall_us,
                        totals: *totals,
                    });
                    r.totals.add(totals);
                    r.total_wall_us += wall_us;
                }
                TraceEvent::Recovery {
                    iteration,
                    attempt,
                    kind,
                    capacity,
                    detail,
                } => r.recoveries.push(RecoveryRow {
                    iteration: *iteration,
                    attempt: *attempt,
                    kind: kind.clone(),
                    capacity: *capacity,
                    detail: detail.clone(),
                }),
                TraceEvent::Alloc {
                    name,
                    used,
                    capacity,
                } => {
                    let e = r.alloc_peaks.entry(name.clone()).or_insert((0, 0));
                    e.0 = e.0.max(*used);
                    e.1 = *capacity;
                }
                TraceEvent::Worklist {
                    name,
                    len,
                    capacity,
                } => {
                    let e = r.worklist_peaks.entry(name.clone()).or_insert((0, 0));
                    e.0 = e.0.max(*len);
                    e.1 = *capacity;
                }
                TraceEvent::AlgoIteration {
                    algo,
                    iteration,
                    metric,
                    value,
                } => r
                    .series
                    .entry((algo.clone(), metric.clone()))
                    .or_default()
                    .push((*iteration, *value)),
                TraceEvent::Job {
                    job,
                    tenant,
                    kind,
                    queue_depth,
                    device,
                    t_us,
                    deadline_us,
                    detail,
                } => {
                    r.queue_depth_peak = r.queue_depth_peak.max(*queue_depth);
                    let row = r.jobs.entry(*job).or_default();
                    row.job = *job;
                    if row.tenant.is_empty() {
                        row.tenant = tenant.clone();
                    }
                    match kind {
                        JobEventKind::Submitted => {
                            row.submitted_us = Some(*t_us);
                            if *deadline_us > 0 {
                                row.deadline_us = Some(*deadline_us);
                            }
                        }
                        JobEventKind::Scheduled => {}
                        JobEventKind::Started => {
                            row.starts += 1;
                            row.started_us = Some(*t_us);
                            if *device > 0 {
                                row.device = Some(*device);
                            }
                        }
                        JobEventKind::Requeued => row.requeues += 1,
                        // Non-terminal: a checkpoint restart inside one
                        // lifecycle. Must stay above the terminal
                        // catch-all.
                        JobEventKind::Resumed => row.resumes += 1,
                        terminal => {
                            row.outcome = Some(*terminal);
                            row.ended_us = Some(*t_us);
                            row.detail = detail.clone();
                        }
                    }
                }
                TraceEvent::Checkpoint {
                    job, bytes, ..
                } => {
                    let row = r.jobs.entry(*job).or_default();
                    row.job = *job;
                    row.checkpoints += 1;
                    row.checkpoint_bytes += bytes;
                }
                TraceEvent::Eviction { job, .. } => {
                    let row = r.jobs.entry(*job).or_default();
                    row.job = *job;
                    row.evictions += 1;
                }
                TraceEvent::Health {
                    device,
                    state,
                    failures,
                    t_us,
                } => r.health.push(HealthRow {
                    device: *device,
                    state: state.clone(),
                    failures: *failures,
                    t_us: *t_us,
                }),
                TraceEvent::Sanitizer {
                    check,
                    status,
                    index,
                    detail,
                } => r.sanitizers.push(SanitizerRow {
                    check: check.clone(),
                    status: status.clone(),
                    index: *index,
                    detail: detail.clone(),
                }),
                TraceEvent::Alert {
                    monitor,
                    tenant,
                    severity,
                    value,
                    threshold,
                    t_us,
                    detail,
                } => r.alerts.push(AlertRow {
                    monitor: monitor.clone(),
                    tenant: tenant.clone(),
                    severity: severity.clone(),
                    value: *value,
                    threshold: *threshold,
                    t_us: *t_us,
                    detail: detail.clone(),
                }),
                TraceEvent::Restore {
                    job,
                    outcome,
                    version,
                    iteration,
                    t_us,
                    detail,
                } => r.restores.push(RestoreRow {
                    job: *job,
                    outcome: *outcome,
                    version: *version,
                    iteration: *iteration,
                    t_us: *t_us,
                    detail: detail.clone(),
                }),
                TraceEvent::ProfileSample {
                    algo,
                    class,
                    phase,
                    cycles,
                    wall_us,
                    spans,
                } => r.profile.push(ProfileRow {
                    algo: algo.clone(),
                    class: class.clone(),
                    phase: *phase,
                    cycles: *cycles,
                    wall_us: *wall_us,
                    spans: *spans,
                }),
                TraceEvent::Tune {
                    iteration,
                    tpb,
                    policy,
                    compact,
                    reorder,
                    detail,
                } => r.tunes.push(TuneRow {
                    iteration: *iteration,
                    tpb: *tpb,
                    policy: policy.clone(),
                    compact: *compact,
                    reorder: *reorder,
                    detail: detail.clone(),
                }),
                TraceEvent::Lens {
                    phase,
                    region,
                    accesses,
                    transactions,
                    atomic_ops,
                    atomic_serial,
                    hot_addr,
                    hot_count,
                    ..
                } => {
                    let cell = r.lens.entry((*phase, region.clone())).or_default();
                    cell.accesses += accesses;
                    cell.transactions += transactions;
                    cell.atomic_ops += atomic_ops;
                    cell.atomic_serial += atomic_serial;
                    if *hot_count > cell.hot_count {
                        cell.hot_count = *hot_count;
                        cell.hot_addr = *hot_addr;
                    }
                }
            }
        }
        r
    }

    /// Fold a *tagged* stream: identical to [`TraceReport::from_events`]
    /// over the events; the tags are available separately through
    /// [`partition_by_job`] for per-job sub-reports.
    pub fn from_tagged(records: &[(Option<u64>, TraceEvent)]) -> Self {
        Self::from_events(records.iter().map(|(_, e)| e))
    }

    /// Per-tenant fold of the job rows (fair-share evidence).
    pub fn tenants(&self) -> BTreeMap<String, TenantAgg> {
        let mut out: BTreeMap<String, TenantAgg> = BTreeMap::new();
        for row in self.jobs.values() {
            let agg = out.entry(row.tenant.clone()).or_default();
            agg.jobs += 1;
            match row.outcome {
                Some(JobEventKind::Finished) => agg.finished += 1,
                Some(JobEventKind::Failed) => agg.failed += 1,
                Some(JobEventKind::Cancelled) => agg.cancelled += 1,
                Some(JobEventKind::Rejected) => agg.rejected += 1,
                _ => {}
            }
            if row.missed_deadline() {
                agg.deadline_misses += 1;
            }
            agg.run_us += row.run_us().unwrap_or(0);
            agg.wait_us += row.wait_us().unwrap_or(0);
        }
        out
    }

    /// Jobs that reached a terminal state after their deadline.
    pub fn deadline_misses(&self) -> u64 {
        self.jobs.values().filter(|r| r.missed_deadline()).count() as u64
    }

    /// Render the job table plus the per-tenant fairness summary.
    pub fn render_jobs(&self) -> String {
        let mut out = String::new();
        if self.jobs.is_empty() {
            return out;
        }
        out.push_str(
            "job | tenant | outcome | dev | starts | requeues | wait_us | run_us | turnaround_us | slo\n",
        );
        for row in self.jobs.values() {
            out.push_str(&format!(
                "{:>3} | {:<6} | {:<9} | {:>3} | {:>6} | {:>8} | {:>7} | {:>6} | {:>13} | {}\n",
                row.job,
                row.tenant,
                row.outcome.map_or("pending", |k| k.as_str()),
                row.device.map_or_else(|| "-".into(), |d| d.to_string()),
                row.starts,
                row.requeues,
                row.wait_us().map_or_else(|| "-".into(), |v| v.to_string()),
                row.run_us().map_or_else(|| "-".into(), |v| v.to_string()),
                row.turnaround_us()
                    .map_or_else(|| "-".into(), |v| v.to_string()),
                if row.missed_deadline() { "MISS" } else { "ok" },
            ));
        }
        out.push_str(&format!(
            "queue depth peak: {}; deadline misses: {}\n",
            self.queue_depth_peak,
            self.deadline_misses()
        ));
        let tenants = self.tenants();
        let total_run: u64 = tenants.values().map(|t| t.run_us).sum();
        for (name, agg) in &tenants {
            out.push_str(&format!(
                "tenant {:<8}: {} jobs ({} finished, {} failed, {} cancelled), \
                 run {} us ({:.1}% share), mean wait {} us, {} deadline misses\n",
                name,
                agg.jobs,
                agg.finished,
                agg.failed,
                agg.cancelled,
                agg.run_us,
                100.0 * ratio(agg.run_us, total_run),
                agg.wait_us.checked_div(agg.jobs).unwrap_or(0),
                agg.deadline_misses,
            ));
        }
        out
    }

    /// One named metric series as plain values ordered by iteration —
    /// e.g. `series_values("dmr.profile", "parallelism")` reproduces the
    /// Fig. 2 per-step parallelism profile.
    pub fn series_values(&self, algo: &str, metric: &str) -> Vec<f64> {
        let Some(points) = self
            .series
            .get(&(algo.to_string(), metric.to_string()))
        else {
            return Vec::new();
        };
        let mut pts = points.clone();
        pts.sort_by_key(|&(it, _)| it);
        pts.into_iter().map(|(_, v)| v).collect()
    }

    /// The §7-style waste breakdown over the whole stream.
    pub fn waste(&self) -> WasteBreakdown {
        let t = &self.totals;
        let threads = t.active_threads + t.idle_threads;
        let activities = t.aborts + t.commits;
        WasteBreakdown {
            divergence_ratio: ratio(t.divergent_warps, t.warps),
            abort_ratio: ratio(t.aborts, activities),
            idle_ratio: ratio(t.idle_threads, threads),
            atomics_per_commit: if t.commits == 0 {
                0.0
            } else {
                t.atomics as f64 / t.commits as f64
            },
            barriers: t.barriers,
            retries: self
                .recoveries
                .iter()
                .filter(|r| r.kind == RecoveryKind::Retry)
                .count() as u64,
            regrows: self
                .recoveries
                .iter()
                .filter(|r| r.kind == RecoveryKind::Regrow)
                .count() as u64,
            rescues: self
                .recoveries
                .iter()
                .filter(|r| matches!(r.kind, RecoveryKind::Reshuffle | RecoveryKind::SerialPin))
                .count() as u64,
        }
    }

    /// Fig. 2-style per-iteration timeline rendered as text: one row per
    /// launch with commits/aborts/divergence plus a commit spark-bar.
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        out.push_str("iter | wall_us | commits | aborts | div% | idle% | timeline\n");
        out.push_str("-----|---------|---------|--------|------|-------|---------\n");
        let peak = self
            .launches
            .iter()
            .map(|l| l.totals.commits)
            .max()
            .unwrap_or(0)
            .max(1);
        for (i, l) in self.launches.iter().enumerate() {
            let t = &l.totals;
            let bar_len = ((t.commits * 40) / peak) as usize;
            out.push_str(&format!(
                "{:>4} | {:>7} | {:>7} | {:>6} | {:>4.1} | {:>5.1} | {}\n",
                i,
                l.wall_us,
                t.commits,
                t.aborts,
                100.0 * ratio(t.divergent_warps, t.warps),
                100.0 * ratio(t.idle_threads, t.active_threads + t.idle_threads),
                "#".repeat(bar_len),
            ));
        }
        out
    }

    /// Per-phase aggregate table (the per-kernel histogram view).
    pub fn render_phases(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "phase | spans | wall_us | warps | div% | atomics | aborts | commits | barriers\n",
        );
        for (phase, agg) in &self.phases {
            let c = &agg.counters;
            out.push_str(&format!(
                "{:>5} | {:>5} | {:>7} | {:>5} | {:>4.1} | {:>7} | {:>6} | {:>7} | {:>8}\n",
                phase,
                agg.spans,
                agg.wall_us,
                c.warps,
                100.0 * ratio(c.divergent_warps, c.warps),
                c.atomics,
                c.aborts,
                c.commits,
                c.barriers,
            ));
        }
        out
    }

    /// §7-style waste summary plus allocator/worklist/recovery footnotes.
    pub fn render_waste(&self) -> String {
        let w = self.waste();
        let mut out = String::new();
        out.push_str(&format!(
            "total wall      : {} us over {} launches\n",
            self.total_wall_us,
            self.launches.len()
        ));
        out.push_str(&format!(
            "divergence      : {:.1}% of warp executions\n",
            100.0 * w.divergence_ratio
        ));
        out.push_str(&format!(
            "aborted work    : {:.1}% of speculative activities\n",
            100.0 * w.abort_ratio
        ));
        out.push_str(&format!(
            "idle threads    : {:.1}% of thread executions\n",
            100.0 * w.idle_ratio
        ));
        out.push_str(&format!(
            "atomic traffic  : {:.2} atomics per committed activity\n",
            w.atomics_per_commit
        ));
        out.push_str(&format!("barrier crossings: {}\n", w.barriers));
        out.push_str(&format!(
            "recovery        : {} retries, {} regrows, {} rescues\n",
            w.retries, w.regrows, w.rescues
        ));
        for (name, (peak, cap)) in &self.alloc_peaks {
            out.push_str(&format!(
                "allocator {name}: high-water {peak} of {cap}\n"
            ));
        }
        for (name, (peak, cap)) in &self.worklist_peaks {
            out.push_str(&format!(
                "worklist  {name}: peak occupancy {peak} of {cap}\n"
            ));
        }
        if !self.alerts.is_empty() {
            out.push_str(&format!("alerts          : {}\n", self.alerts.len()));
            for a in &self.alerts {
                out.push_str(&format!(
                    "  [{}] {}{}: {:.2} over threshold {:.2} at {}us: {}\n",
                    a.severity,
                    a.monitor,
                    if a.tenant.is_empty() {
                        String::new()
                    } else {
                        format!(" tenant={}", a.tenant)
                    },
                    a.value,
                    a.threshold,
                    a.t_us,
                    a.detail
                ));
            }
        }
        if !self.tunes.is_empty() {
            out.push_str(&format!("tune decisions  : {}\n", self.tunes.len()));
            for t in &self.tunes {
                out.push_str(&format!(
                    "  [iter {}] tpb={} policy={}{}{}: {}\n",
                    t.iteration,
                    t.tpb,
                    t.policy,
                    if t.compact { " compact" } else { "" },
                    if t.reorder { " reorder" } else { "" },
                    t.detail
                ));
            }
        }
        if !self.sanitizers.is_empty() {
            let violations = self.sanitizers.iter().filter(|s| s.is_violation()).count();
            out.push_str(&format!(
                "sanitizer       : {} verdicts, {} violations\n",
                self.sanitizers.len(),
                violations
            ));
            for row in &self.sanitizers {
                if row.is_violation() {
                    out.push_str(&format!(
                        "  [{}] {} (index {}): {}\n",
                        row.status, row.check, row.index, row.detail
                    ));
                } else {
                    out.push_str(&format!("  [{}] {}\n", row.status, row.check));
                }
            }
        }
        out
    }

    /// Total metered accesses that fell outside every registered lens
    /// region, as a fraction of all lens-metered accesses (0 when the
    /// stream carries no lens cells).
    pub fn lens_unattributed_fraction(&self) -> f64 {
        let total: u64 = self.lens.values().map(|c| c.accesses).sum();
        let un: u64 = self
            .lens
            .iter()
            .filter(|((_, r), _)| r == "unattributed")
            .map(|(_, c)| c.accesses)
            .sum();
        ratio(un, total)
    }

    /// The morph-lens phase×structure waste table: where the metered
    /// global-memory traffic, coalescing transactions and atomic
    /// serialization went, per registered device structure.
    pub fn render_lens(&self) -> String {
        let mut out = String::new();
        if self.lens.is_empty() {
            out.push_str("no lens attribution in stream (attach a LensHub / run with --lens)\n");
            return out;
        }
        out.push_str(
            "phase | structure            | accesses | transactions | coalesce | atomics | serial | hottest word\n",
        );
        for ((phase, region), c) in &self.lens {
            out.push_str(&format!(
                "{:>5} | {:<20} | {:>8} | {:>12} | {:>8.2} | {:>7} | {:>6} | {}\n",
                phase,
                region,
                c.accesses,
                c.transactions,
                c.coalescing_factor(),
                c.atomic_ops,
                c.atomic_serial,
                if c.hot_count == 0 {
                    "-".to_string()
                } else {
                    format!("{:#x} x{}", c.hot_addr, c.hot_count)
                },
            ));
        }
        let total: u64 = self.lens.values().map(|c| c.accesses).sum();
        out.push_str(&format!(
            "unattributed    : {:.2}% of {} metered accesses\n",
            100.0 * self.lens_unattributed_fraction(),
            total
        ));
        out
    }

    /// CSV export of the per-launch timeline (machine-readable Fig. 2).
    /// The trailing ratio columns are derived from the cost-model
    /// counters; streams recorded before the cost model existed decode
    /// those counters as zero, so the ratios render as 0.
    pub fn timeline_csv(&self) -> String {
        let mut out = String::from(
            "iter,launch,wall_us,commits,aborts,warps,divergent_warps,active_threads,idle_threads,atomics,barriers,divergence_ratio,coalescing_factor,occupancy\n",
        );
        for (i, l) in self.launches.iter().enumerate() {
            let t = &l.totals;
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{:.6},{:.6},{:.6}\n",
                i,
                l.launch,
                l.wall_us,
                t.commits,
                t.aborts,
                t.warps,
                t.divergent_warps,
                t.active_threads,
                t.idle_threads,
                t.atomics,
                t.barriers,
                t.divergence_ratio(),
                t.coalescing_factor(),
                t.occupancy(),
            ));
        }
        out
    }

    /// The phase-profiler cells re-rendered as folded stacks
    /// (`algo;class;phaseN cycles`) — the flamegraph input format.
    /// Cells with identical triples (e.g. from several jobs or drains)
    /// merge by summing cycles.
    pub fn folded_profile(&self) -> String {
        let mut cells: BTreeMap<(String, String, u64), u64> = BTreeMap::new();
        for p in &self.profile {
            *cells
                .entry((p.algo.clone(), p.class.clone(), p.phase))
                .or_insert(0) += p.cycles;
        }
        let mut out = String::new();
        for ((algo, class, phase), cycles) in cells {
            out.push_str(&format!("{algo};{class};phase{phase} {cycles}\n"));
        }
        out
    }

    /// CSV export of every algorithm metric series.
    pub fn series_csv(&self) -> String {
        let mut out = String::from("algo,metric,iteration,value\n");
        for ((algo, metric), points) in &self.series {
            for (it, v) in points {
                out.push_str(&format!("{algo},{metric},{it},{v}\n"));
            }
        }
        out
    }
}

/// The §7 quantities as ratios over the whole stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WasteBreakdown {
    pub divergence_ratio: f64,
    pub abort_ratio: f64,
    pub idle_ratio: f64,
    pub atomics_per_commit: f64,
    pub barriers: u64,
    pub retries: u64,
    pub regrows: u64,
    pub rescues: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: u64, commits: u64, aborts: u64) -> TraceEvent {
        TraceEvent::PhaseSpan {
            launch: 0,
            iteration: 0,
            phase,
            wall_us: 10,
            delta: CountersSnapshot {
                warps: 4,
                divergent_warps: 1,
                commits,
                aborts,
                ..Default::default()
            },
        }
    }

    fn end(launch: u64, commits: u64) -> TraceEvent {
        TraceEvent::LaunchEnd {
            launch,
            iterations: 1,
            wall_us: 100,
            totals: CountersSnapshot {
                warps: 8,
                divergent_warps: 2,
                active_threads: 6,
                idle_threads: 2,
                commits,
                aborts: 1,
                atomics: 12,
                barriers: 4,
                ..Default::default()
            },
        }
    }

    #[test]
    fn folds_phases_and_launches() {
        let events = vec![span(0, 3, 1), span(1, 2, 0), span(0, 5, 2), end(0, 5), end(1, 7)];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.phases.len(), 2);
        let p0 = &r.phases[&0];
        assert_eq!(p0.spans, 2);
        assert_eq!(p0.counters.commits, 8);
        assert_eq!(p0.counters.aborts, 3);
        assert_eq!(p0.wall_us, 20);
        assert_eq!(r.launches.len(), 2);
        assert_eq!(r.totals.commits, 12);
        assert_eq!(r.total_wall_us, 200);
    }

    #[test]
    fn waste_ratios() {
        let r = TraceReport::from_events(&[end(0, 7)]);
        let w = r.waste();
        assert!((w.divergence_ratio - 0.25).abs() < 1e-12);
        assert!((w.abort_ratio - 1.0 / 8.0).abs() < 1e-12);
        assert!((w.idle_ratio - 0.25).abs() < 1e-12);
        assert!((w.atomics_per_commit - 12.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn series_sorted_by_iteration() {
        let mk = |it, v| TraceEvent::AlgoIteration {
            algo: "dmr".into(),
            iteration: it,
            metric: "bad".into(),
            value: v,
        };
        let r = TraceReport::from_events(&[mk(2, 30.0), mk(0, 10.0), mk(1, 20.0)]);
        assert_eq!(r.series_values("dmr", "bad"), vec![10.0, 20.0, 30.0]);
        assert!(r.series_values("dmr", "missing").is_empty());
    }

    #[test]
    fn peaks_and_recoveries_tracked() {
        let events = vec![
            TraceEvent::Alloc {
                name: "pool".into(),
                used: 5,
                capacity: 10,
            },
            TraceEvent::Alloc {
                name: "pool".into(),
                used: 9,
                capacity: 20,
            },
            TraceEvent::Worklist {
                name: "wl".into(),
                len: 3,
                capacity: 8,
            },
            TraceEvent::Recovery {
                iteration: 1,
                attempt: 1,
                kind: RecoveryKind::Retry,
                capacity: 0,
                detail: "boom".into(),
            },
            TraceEvent::Recovery {
                iteration: 2,
                attempt: 0,
                kind: RecoveryKind::Regrow,
                capacity: 128,
                detail: String::new(),
            },
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.alloc_peaks["pool"], (9, 20));
        assert_eq!(r.worklist_peaks["wl"], (3, 8));
        let w = r.waste();
        assert_eq!((w.retries, w.regrows, w.rescues), (1, 1, 0));
    }

    #[test]
    fn sanitizer_verdicts_surface_in_waste_report() {
        let events = vec![
            TraceEvent::Sanitizer {
                check: "oracle.mst.end_state".into(),
                status: "ok".into(),
                index: 0,
                detail: String::new(),
            },
            TraceEvent::Sanitizer {
                check: "use_after_free".into(),
                status: "violation".into(),
                index: 9,
                detail: "slot 9 touched after deletion".into(),
            },
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.sanitizers.len(), 2);
        assert!(!r.sanitizers[0].is_violation());
        assert!(r.sanitizers[1].is_violation());
        let waste = r.render_waste();
        assert!(waste.contains("sanitizer       : 2 verdicts, 1 violations"), "{waste}");
        assert!(waste.contains("[ok] oracle.mst.end_state"), "{waste}");
        assert!(
            waste.contains("use_after_free (index 9): slot 9 touched after deletion"),
            "{waste}"
        );
    }

    fn jev(job: u64, tenant: &str, kind: crate::event::JobEventKind, t_us: u64) -> TraceEvent {
        TraceEvent::Job {
            job,
            tenant: tenant.into(),
            kind,
            queue_depth: job, // distinct depths so the peak is checkable
            device: 1,
            t_us,
            deadline_us: if kind == crate::event::JobEventKind::Submitted {
                t_us + 50
            } else {
                0
            },
            detail: "d".into(),
        }
    }

    #[test]
    fn job_lifecycles_fold_into_rows_tenants_and_deadline_misses() {
        use crate::event::JobEventKind as K;
        let events = vec![
            jev(1, "acme", K::Submitted, 10),
            jev(2, "blue", K::Submitted, 12),
            jev(1, "acme", K::Started, 20),
            jev(1, "acme", K::Requeued, 30),
            jev(1, "acme", K::Started, 40),
            // Ends at 100 > deadline 60 => miss.
            jev(1, "acme", K::Finished, 100),
            jev(2, "blue", K::Started, 25),
            // Ends at 50 < deadline 62 => ok.
            jev(2, "blue", K::Cancelled, 50),
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.queue_depth_peak, 2);
        let j1 = &r.jobs[&1];
        assert_eq!(j1.starts, 2);
        assert_eq!(j1.requeues, 1);
        assert_eq!(j1.wait_us(), Some(30)); // to the *final* start
        assert_eq!(j1.run_us(), Some(60));
        assert_eq!(j1.turnaround_us(), Some(90));
        assert!(j1.missed_deadline());
        assert_eq!(r.deadline_misses(), 1);
        let tenants = r.tenants();
        assert_eq!(tenants["acme"].finished, 1);
        assert_eq!(tenants["acme"].deadline_misses, 1);
        assert_eq!(tenants["blue"].cancelled, 1);
        let rendered = r.render_jobs();
        assert!(rendered.contains("MISS"), "{rendered}");
        assert!(rendered.contains("tenant blue"), "{rendered}");
    }

    #[test]
    fn resilience_events_fold_into_job_rows_and_health() {
        use crate::event::JobEventKind as K;
        let events = vec![
            jev(1, "acme", K::Submitted, 10),
            jev(1, "acme", K::Started, 20),
            TraceEvent::Checkpoint {
                job: 1,
                algo: "sp".into(),
                iteration: 4,
                version: 1,
                bytes: 100,
                t_us: 25,
            },
            TraceEvent::Eviction {
                job: 1,
                device: 1,
                reason: "device_loss".into(),
                t_us: 30,
            },
            jev(1, "acme", K::Requeued, 30),
            jev(1, "acme", K::Started, 40),
            jev(1, "acme", K::Resumed, 41),
            TraceEvent::Checkpoint {
                job: 1,
                algo: "sp".into(),
                iteration: 8,
                version: 2,
                bytes: 140,
                t_us: 45,
            },
            jev(1, "acme", K::Finished, 50),
            TraceEvent::Health {
                device: 1,
                state: "quarantined".into(),
                failures: 3,
                t_us: 31,
            },
            TraceEvent::Health {
                device: 1,
                state: "probation".into(),
                failures: 0,
                t_us: 90,
            },
        ];
        let r = TraceReport::from_events(&events);
        let row = &r.jobs[&1];
        assert_eq!(row.resumes, 1);
        assert_eq!(row.evictions, 1);
        assert_eq!(row.checkpoints, 2);
        assert_eq!(row.checkpoint_bytes, 240);
        // A resume is not terminal: the job still finished normally.
        assert_eq!(row.outcome, Some(K::Finished));
        assert_eq!(row.starts, 2);
        assert_eq!(row.requeues, 1);
        assert_eq!(r.health.len(), 2);
        assert_eq!(r.health[0].state, "quarantined");
        assert_eq!(r.health[1].failures, 0);
    }

    #[test]
    fn alerts_and_profile_samples_fold_and_render() {
        let events = vec![
            TraceEvent::Alert {
                monitor: "slo_burn_rate".into(),
                tenant: "acme".into(),
                severity: "page".into(),
                value: 12.0,
                threshold: 10.0,
                t_us: 500,
                detail: "budget burning".into(),
            },
            TraceEvent::ProfileSample {
                algo: "dmr".into(),
                class: "it0".into(),
                phase: 1,
                cycles: 100,
                wall_us: 10,
                spans: 2,
            },
            TraceEvent::ProfileSample {
                algo: "dmr".into(),
                class: "it0".into(),
                phase: 1,
                cycles: 50,
                wall_us: 5,
                spans: 1,
            },
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.alerts.len(), 1);
        assert_eq!(r.alerts[0].tenant, "acme");
        assert_eq!(r.profile.len(), 2);
        let folded = r.folded_profile();
        assert_eq!(folded, "dmr;it0;phase1 150\n");
        let waste = r.render_waste();
        assert!(waste.contains("alerts          : 1"), "{waste}");
        assert!(waste.contains("slo_burn_rate tenant=acme"), "{waste}");
    }

    #[test]
    fn tune_events_fold_and_render() {
        let events = vec![
            TraceEvent::Tune {
                iteration: 2,
                tpb: 64,
                policy: "serial_pin".into(),
                compact: true,
                reorder: false,
                detail: "cumulative abort ratio 0.91 > 0.50".into(),
            },
            TraceEvent::Tune {
                iteration: 7,
                tpb: 128,
                policy: "three_phase".into(),
                compact: false,
                reorder: true,
                detail: "occupancy 0.82 > 0.75".into(),
            },
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.tunes.len(), 2);
        assert_eq!(r.tunes[0].policy, "serial_pin");
        assert!(r.tunes[0].compact && !r.tunes[0].reorder);
        let waste = r.render_waste();
        assert!(waste.contains("tune decisions  : 2"), "{waste}");
        assert!(waste.contains("[iter 2] tpb=64 policy=serial_pin compact"), "{waste}");
        assert!(waste.contains("[iter 7] tpb=128 policy=three_phase reorder"), "{waste}");
    }

    #[test]
    fn tagged_streams_partition_per_job() {
        let records = vec![
            (None, end(0, 3)),
            (Some(1), span(0, 1, 0)),
            (Some(2), span(0, 1, 1)),
            (Some(1), end(1, 4)),
        ];
        let parts = partition_by_job(&records);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[&None].len(), 1);
        assert_eq!(parts[&Some(1)].len(), 2);
        assert_eq!(parts[&Some(2)].len(), 1);
        // A per-job sub-report folds only that job's engine events.
        let sub = TraceReport::from_events(&parts[&Some(1)]);
        assert_eq!(sub.launches.len(), 1);
        // And from_tagged over the whole stream sees everything.
        let whole = TraceReport::from_tagged(&records);
        assert_eq!(whole.launches.len(), 2);
    }

    #[test]
    fn renders_do_not_panic_and_carry_data() {
        let events = vec![span(0, 3, 1), end(0, 3), end(1, 9)];
        let r = TraceReport::from_events(&events);
        let tl = r.render_timeline();
        assert!(tl.contains('#'), "{tl}");
        assert!(r.render_phases().contains("phase"));
        assert!(r.render_waste().contains("divergence"));
        let csv = r.timeline_csv();
        assert_eq!(csv.lines().count(), 3);
        let header = csv.lines().next().unwrap();
        assert!(header.ends_with("divergence_ratio,coalescing_factor,occupancy"));
        // This fixture has 2/8 divergent warps but no cost-model counters
        // (like a stream recorded before the cost model existed): the
        // derived columns render as ratios or zero, never NaN.
        assert!(csv.lines().nth(1).unwrap().ends_with("0.250000,0.000000,0.000000"));
        assert!(TraceReport::default().render_timeline().lines().count() >= 2);
    }
}
