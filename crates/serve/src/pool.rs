//! The device pool: N worker threads, each owning one virtual-device
//! slot, draining the shared ready queue (`sched::ReadyQueue`).
//!
//! Each worker loops: pick the next job under the scheduler's rule, emit
//! its `Scheduled`/`Started` lifecycle events, then drive the workload on
//! a fresh simulated device (`Workload::run` builds a `VirtualGpu` with
//! `sms_per_device` SMs via the pipeline's `try_*` entry point). The
//! recovering driver absorbs transient faults itself; what escapes to the
//! pool is a give-up error, classified into requeue (transient, budget
//! remaining), permanent failure, or cancellation.
//!
//! # Failure domains and resilience
//!
//! Three layers sit on top of the per-job retry machinery:
//!
//! * **Eviction** — a [`LaunchError::DeviceLost`](morph_gpu_sim::LaunchError)
//!   surfacing from the driver, or the hung-job watchdog firing, pulls the
//!   job off its slot: a `TraceEvent::Eviction` + `Job`/`Requeued` pair is
//!   emitted and the job re-enters the queue with `avoid_device` set so
//!   the rerun lands on a different slot whenever one exists. Evictions
//!   are budgeted separately from the job's retry policy
//!   ([`ServeConfig::max_evictions`]) — losing a device is the slot's
//!   fault, not the job's.
//! * **Slot health** — each device slot carries a consecutive-eviction
//!   circuit breaker: [`ServeConfig::quarantine_threshold`] failures in a
//!   row quarantine the slot for [`ServeConfig::quarantine_cooldown`],
//!   after which it re-admits itself half-open (probation) and one clean
//!   probe job restores it. Transitions ride `TraceEvent::Health` and the
//!   `morph_device_health` gauge.
//! * **Checkpoint/resume** — with [`ServeConfig::checkpoint_every`] > 0
//!   the pool owns a shared [`CheckpointStore`] and hands every job a
//!   [`CheckpointCtl`]; pipelines snapshot their minimal host-visible
//!   resume state at iteration boundaries, so an evicted job restarts
//!   from its last checkpoint (a `Job`/`Resumed` event) instead of from
//!   scratch. With the default (0) no store exists and no snapshot is
//!   ever allocated.
//!
//! Determinism note: the *pick* is deterministic given queue contents,
//! but with >1 device the interleaving of completions is not — this is a
//! throughput layer, not a replayable simulation. Everything observable
//! (job lifecycles, attribution, fairness accounting) flows through
//! `morph-trace` events, so post-hoc analysis never depends on shared
//! mutable state.

use crate::job::{classify, FailureClass, Job, JobId, JobSpec, JobStatus};
use crate::journal::{self, Journal, JournalOutcome, JournalRecord, RecoveryStats};
use crate::sched::{backoff_delay_us, AdmitError, ReadyQueue};
use crate::slo::{SloConfig, SloMonitor};
use morph_core::{
    AutoTuner, CancelToken, CheckpointCtl, CheckpointStore, DriveError, MetricsHub,
    MetricsRegistry, RecoveryOpts, RecoveryPolicy, TuneConfig,
};
use morph_gpu_sim::{FaultPlan, LensHub};
use morph_trace::{
    FlightConfig, FlightRecorder, JobEventKind, PhaseProfiler, ProfilerScope, RestoreOutcome,
    TraceEvent, TraceSink, Tracer,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Pool shape and per-job driver defaults.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Device slots (worker threads). Each runs one job at a time.
    pub devices: usize,
    /// SMs per simulated device.
    pub sms_per_device: usize,
    /// Admission-queue bound; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Recovery policy every job is driven with.
    pub policy: RecoveryPolicy,
    /// Barrier watchdog armed on every job's device.
    pub barrier_watchdog: Option<Duration>,
    /// Checkpoint cadence in completed host-loop iterations; 0 (the
    /// default) disables checkpointing entirely — no store is built and
    /// pipelines never encode a snapshot.
    pub checkpoint_every: u64,
    /// Hung-job watchdog: a running job whose progress heartbeat stands
    /// still this long is cooperatively cancelled and evicted. `None`
    /// disables the watchdog.
    pub hang_budget: Option<Duration>,
    /// Consecutive evictions on one slot before it is quarantined.
    pub quarantine_threshold: u32,
    /// How long a quarantined slot sits out before a half-open probe.
    pub quarantine_cooldown: Duration,
    /// Evictions one job may suffer before it fails terminally (a
    /// separate budget from [`crate::RetryPolicy::max_attempts`]).
    pub max_evictions: u32,
    /// Bind address for the live introspection HTTP plane (`/metrics`,
    /// `/healthz`, `/jobs`); `None` disables it. `127.0.0.1:0` binds an
    /// ephemeral port, reported by [`MorphServe::http_addr`].
    pub http_addr: Option<String>,
    /// Flight-recorder shape. The recorder itself is always armed — its
    /// bounded per-slot rings ride the sink tee next to whatever tracer
    /// the caller supplied — and only writes a file when
    /// `flight.dump_path` is set and a trigger fires.
    pub flight: FlightConfig,
    /// Shared phase profiler: when set, every job runs under a
    /// [`ProfilerScope`] so modelled device cycles accumulate per
    /// `algo;iteration-class;phase` (see `morph_trace::profile`).
    pub profiler: Option<Arc<PhaseProfiler>>,
    /// Turnaround SLO burn-rate monitor config; `None` disables it.
    pub slo: Option<SloConfig>,
    /// Durable-state directory. When set, the pool is crash-consistent:
    /// a write-ahead job journal (`journal.wal`) records every lifecycle
    /// transition, the checkpoint store becomes the on-disk verified
    /// store (`job-N.ck` artifacts; `checkpoint_every` is clamped up to
    /// at least 1), and `start` reconciles whatever a previous
    /// incarnation left in the directory — terminal jobs are accounted
    /// without re-running, in-flight jobs are re-queued to resume from
    /// their last good snapshot or restart from zero. `None` (default)
    /// keeps everything in memory, exactly as before.
    pub state_dir: Option<PathBuf>,
    /// Durability fault injection (torn/short journal writes, fsync
    /// denial, snapshot bit-flips) shared by the journal and the
    /// checkpoint store. Only meaningful with `state_dir` set.
    pub durability_faults: Option<Arc<FaultPlan>>,
    /// Closed-loop autotuning (`morph-tune`): when true, every job runs
    /// with an enabled [`AutoTuner`] (default thresholds) so the
    /// recovering driver follows measured occupancy/abort/coalescing
    /// feedback instead of the paper's fixed §7.4 schedules. Default
    /// false — byte-identical to the untuned driver.
    pub autotune: bool,
    /// morph-lens attribution: when true, every job runs with one shared
    /// enabled [`LensHub`], so pipelines register their device structures
    /// and the engine buckets metered traffic per phase × structure. The
    /// cumulative table is served at `/lens` and the per-launch deltas
    /// land on the `morph_lens_*` metric families. Default false — no
    /// registry, no attribution, no overhead.
    pub lens: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            devices: 2,
            sms_per_device: 2,
            queue_capacity: 64,
            policy: RecoveryPolicy::default(),
            barrier_watchdog: None,
            checkpoint_every: 0,
            hang_budget: None,
            quarantine_threshold: 3,
            quarantine_cooldown: Duration::from_millis(100),
            max_evictions: 4,
            http_addr: None,
            flight: FlightConfig::default(),
            profiler: None,
            slo: None,
            state_dir: None,
            durability_faults: None,
            autotune: false,
            lens: false,
        }
    }
}

/// One in-flight job as the pool and the watchdog see it.
#[derive(Debug)]
struct RunningEntry {
    cancel: CancelToken,
    /// Progress heartbeat shared with the driver (bumped at every
    /// host-action boundary and completed launch).
    heartbeat: Arc<AtomicU64>,
    /// Last heartbeat value the watchdog observed, and when it changed.
    last_beat: u64,
    beat_seen: Instant,
}

/// Circuit-breaker state of one device slot.
#[derive(Debug, Clone, Copy)]
enum SlotState {
    Healthy,
    /// Half-open after a quarantine: one probe job decides.
    Probation,
    Quarantined {
        until: Instant,
    },
}

impl SlotState {
    fn as_str(self) -> &'static str {
        match self {
            SlotState::Healthy => "healthy",
            SlotState::Probation => "probation",
            SlotState::Quarantined { .. } => "quarantined",
        }
    }
}

#[derive(Debug)]
struct SlotHealth {
    state: SlotState,
    consecutive_failures: u64,
}

/// Point-in-time circuit-breaker state of one device slot — the single
/// health source both `/healthz` and the end-of-run summary derive from
/// (see [`MorphServe::slot_health`] and
/// [`crate::ServeSummary::with_slot_health`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotHealthSnapshot {
    /// 1-based device slot.
    pub device: u64,
    /// `"healthy"`, `"probation"` or `"quarantined"`.
    pub state: &'static str,
    pub consecutive_failures: u64,
}

/// Live bookkeeping for the `/jobs` endpoint: one row per admitted job,
/// updated at every lifecycle transition under the state lock.
#[derive(Debug, Clone)]
pub(crate) struct JobMeta {
    pub(crate) tenant: String,
    /// The workload's replay encoding (`<algo> <args…>`).
    pub(crate) workload: String,
    pub(crate) priority: &'static str,
    pub(crate) deadline_us: u64,
    pub(crate) submitted_us: u64,
    /// First `Started` transition (wait time ends here).
    pub(crate) started_us: Option<u64>,
    /// Terminal transition.
    pub(crate) ended_us: Option<u64>,
    /// Device of the most recent start; cleared on requeue-by-eviction.
    pub(crate) device: Option<u64>,
    pub(crate) attempts: u32,
    pub(crate) evictions: u32,
}

#[derive(Debug)]
pub(crate) struct ServeState {
    queue: ReadyQueue,
    /// In-flight jobs, keyed by id.
    running: BTreeMap<JobId, RunningEntry>,
    pub(crate) statuses: BTreeMap<JobId, JobStatus>,
    /// Live per-job rows served by `/jobs`.
    pub(crate) meta: BTreeMap<JobId, JobMeta>,
    /// Accrued device-µs per tenant (the fair-share signal). Failures
    /// accrue too: a tenant burning device time on doomed jobs must not
    /// outrank one whose jobs finish.
    tenant_run_us: BTreeMap<String, u64>,
    /// Jobs whose cancellation was requested by the caller while running —
    /// distinguishes a user cancel from a watchdog eviction, which both
    /// surface as `DriveError::Cancelled`.
    cancel_requested: BTreeSet<JobId>,
    /// Jobs the watchdog is evicting, with the reason.
    evicting: BTreeMap<JobId, &'static str>,
    /// Per-slot circuit breaker, indexed by device - 1.
    health: Vec<SlotHealth>,
    next_id: JobId,
    next_seq: u64,
    pub(crate) shutting_down: bool,
}

pub(crate) struct Inner {
    pub(crate) state: Mutex<ServeState>,
    /// Signalled when work arrives or shutdown begins.
    work: Condvar,
    /// Signalled on every terminal transition.
    done: Condvar,
    /// Base (untagged) tracer. Job lifecycle events go through this —
    /// they carry their own `job` field. Pipeline events go through
    /// `tracer.for_job(id)` so engine/recovery spans get attributed.
    tracer: Tracer,
    /// Live metrics registry. Every job's pipeline runs with a hub tagged
    /// `tenant`/`algo`, so engine cost-model series and the pool's own
    /// latency histograms land here, partitioned per tenant and algorithm.
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// Shared checkpoint store; `None` when `checkpoint_every == 0` and
    /// no `state_dir` is configured.
    checkpoints: Option<Arc<CheckpointStore>>,
    /// Write-ahead job journal; `Some` iff [`ServeConfig::state_dir`].
    journal: Option<Arc<Journal>>,
    /// What reconciliation found on startup (all-zero without a
    /// `state_dir` or on a first run). Surfaced by `/healthz` and folded
    /// into the end-of-run summary via `Restore` trace events.
    pub(crate) recovery: RecoveryStats,
    /// Always-on flight recorder, teed into the sink chain.
    pub(crate) flight: Arc<FlightRecorder>,
    /// SLO burn-rate monitor; `None` when [`ServeConfig::slo`] is unset.
    pub(crate) slo: Option<SloMonitor>,
    /// Shared morph-lens hub (enabled iff [`ServeConfig::lens`]); every
    /// job's pipeline registers its structures here, `/lens` snapshots it.
    pub(crate) lens: LensHub,
    epoch: Instant,
    pub(crate) cfg: ServeConfig,
}

impl Inner {
    pub(crate) fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Mirror the admission-queue depth on the `morph_queue_depth` gauge;
    /// sampled at every transition that changes the queue (admit,
    /// dispatch, cancel, requeue, shed), so a scrape between terminal
    /// events sees the live backlog.
    fn note_queue_depth(&self, depth: u64) {
        self.metrics
            .gauge(
                "morph_queue_depth",
                "Jobs waiting in the admission queue",
                &[],
            )
            .set(depth as i64);
    }

    /// Live breaker state per slot, 1-based device order.
    pub(crate) fn slot_health(&self) -> Vec<SlotHealthSnapshot> {
        let st = self.state.lock().unwrap();
        st.health
            .iter()
            .enumerate()
            .map(|(slot, h)| SlotHealthSnapshot {
                device: slot as u64 + 1,
                state: h.state.as_str(),
                consecutive_failures: h.consecutive_failures,
            })
            .collect()
    }

    /// Feed one terminal sample into the SLO monitor: mirror the fast
    /// burn on the `morph_slo_burn_rate` gauge and emit an Alert event on
    /// the rising edge. Call with the state lock released.
    fn observe_slo(&self, sample: Option<(String, u64, bool)>) {
        let (Some(monitor), Some((tenant, turnaround_us, ok))) = (&self.slo, sample) else {
            return;
        };
        let obs = monitor.observe(&tenant, turnaround_us, ok, self.now_us());
        self.metrics
            .gauge(
                "morph_slo_burn_rate",
                "Fast-window SLO burn rate per tenant, in milli-multiples of the error-budget rate",
                &[("tenant", &tenant)],
            )
            .set((obs.fast_burn * 1000.0) as i64);
        if let Some(a) = obs.alert {
            self.tracer.emit(move || TraceEvent::Alert {
                monitor: "slo_burn_rate".into(),
                tenant: a.tenant,
                severity: "page".into(),
                value: a.value,
                threshold: a.threshold,
                t_us: a.t_us,
                detail: a.detail,
            });
        }
    }

    fn emit_job(&self, ev: JobEvent<'_>) {
        let t_us = self.now_us();
        self.tracer.emit(move || TraceEvent::Job {
            job: ev.job,
            tenant: ev.tenant.to_string(),
            kind: ev.kind,
            queue_depth: ev.queue_depth,
            device: ev.device,
            t_us,
            deadline_us: ev.deadline_us,
            detail: ev.detail,
        });
    }

    /// The one terminal transition of a job's life. Write-ahead: the
    /// journal record — exactly one terminal record per admitted job —
    /// is appended before the status flips; then the `/jobs` row closes,
    /// the queue-depth gauge and the SLO monitor are fed, the job's
    /// checkpoint artifacts are discarded, the lifecycle event goes out
    /// and waiters wake. Consumes the state lock; `device` is 0 for a job
    /// that never left the queue.
    fn terminate(
        &self,
        mut st: MutexGuard<'_, ServeState>,
        job: &Job,
        device: u64,
        status: JobStatus,
        detail: String,
    ) {
        let id = job.id;
        // Journal record, lifecycle event and SLO verdict (`None`: a user
        // cancel is no sample) all follow from the status.
        let (record, kind, ok) = match &status {
            JobStatus::Finished { .. } => (
                JournalRecord::Finished { job: id },
                JobEventKind::Finished,
                Some(true),
            ),
            JobStatus::Failed { permanent, .. } => (
                JournalRecord::Failed {
                    job: id,
                    permanent: *permanent,
                },
                JobEventKind::Failed,
                Some(false),
            ),
            JobStatus::Cancelled => (
                JournalRecord::Cancelled { job: id },
                JobEventKind::Cancelled,
                None,
            ),
            JobStatus::Queued | JobStatus::Running { .. } => {
                unreachable!("terminate takes a terminal status, got {status:?}")
            }
        };
        self.journal(record);
        st.statuses.insert(id, status);
        // Close the `/jobs` row; the SLO sample is `(tenant, turnaround_us,
        // ok)` when the outcome counts toward the objective.
        let now = self.now_us();
        let slo = st.meta.get_mut(&id).and_then(|meta| {
            meta.ended_us = Some(now);
            ok.map(|ok| (meta.tenant.clone(), now.saturating_sub(meta.submitted_us), ok))
        });
        let depth = st.queue.len() as u64;
        drop(st);
        self.note_queue_depth(depth);
        self.observe_slo(slo);
        if let Some(store) = &self.checkpoints {
            store.discard(id);
        }
        self.emit_job(JobEvent {
            job: id,
            tenant: &job.spec.tenant,
            kind,
            queue_depth: depth,
            device,
            deadline_us: job.deadline_us,
            detail,
        });
        self.done.notify_all();
    }

    /// Emit a slot-health transition and mirror it on the
    /// `morph_device_health` gauge (2 healthy, 1 probation, 0 quarantined).
    fn emit_health(&self, device: u64, state: &'static str, failures: u64) {
        let t_us = self.now_us();
        self.tracer.emit(move || TraceEvent::Health {
            device,
            state: state.to_string(),
            failures,
            t_us,
        });
        self.device_health_gauge(device).set(match state {
            "healthy" => 2,
            "probation" => 1,
            _ => 0,
        });
    }

    fn device_health_gauge(&self, device: u64) -> Arc<morph_metrics::Gauge> {
        self.metrics.gauge(
            "morph_device_health",
            "Device-slot health: 2 healthy, 1 probation, 0 quarantined",
            &[("device", &device.to_string())],
        )
    }

    /// Append one record to the write-ahead journal (no-op without a
    /// `state_dir`). An I/O error degrades to a one-shot warn `Alert` on
    /// the trace stream — the serving loop itself never fails on a bad
    /// journal disk, it just stops being crash-consistent.
    fn journal(&self, rec: JournalRecord) {
        let Some(j) = &self.journal else { return };
        j.append(&rec);
        if let Some(err) = j.take_error() {
            let t_us = self.now_us();
            self.tracer.emit(move || TraceEvent::Alert {
                monitor: "journal".into(),
                tenant: String::new(),
                severity: "warn".into(),
                value: 1.0,
                threshold: 0.0,
                t_us,
                detail: format!("journal append failed: {err}"),
            });
        }
    }

    /// Emit one reconciliation decision (schema v4 `restore` event).
    fn emit_restore(
        &self,
        job: JobId,
        outcome: RestoreOutcome,
        version: u64,
        iteration: u64,
        detail: String,
    ) {
        let t_us = self.now_us();
        self.tracer.emit(move || TraceEvent::Restore {
            job,
            outcome,
            version,
            iteration,
            t_us,
            detail,
        });
    }
}

/// The fields of one `TraceEvent::Job`, bar the timestamp
/// [`Inner::emit_job`] stamps.
struct JobEvent<'a> {
    job: JobId,
    tenant: &'a str,
    kind: JobEventKind,
    queue_depth: u64,
    device: u64,
    deadline_us: u64,
    detail: String,
}

/// Tees the pool's sink chain into the journal: every `Checkpoint`
/// event a pipeline emits becomes a `Checkpointed` journal record, so
/// the journal knows — across a crash — which jobs have a snapshot
/// worth resuming from.
struct JournalCheckpointTee {
    journal: Arc<Journal>,
}

impl TraceSink for JournalCheckpointTee {
    fn record(&self, event: TraceEvent) {
        self.record_tagged(None, event);
    }

    fn record_tagged(&self, _job: Option<u64>, event: TraceEvent) {
        if let TraceEvent::Checkpoint {
            job,
            version,
            iteration,
            ..
        } = event
        {
            self.journal.append(&JournalRecord::Checkpointed {
                job,
                version,
                iteration,
            });
        }
    }
}

/// The serving pool. Dropping it without [`MorphServe::shutdown`] joins
/// the workers after draining queued work.
pub struct MorphServe {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    http_addr: Option<std::net::SocketAddr>,
}

impl MorphServe {
    /// Start `cfg.devices` worker threads against an empty queue.
    /// `tracer` receives the merged, line-atomic event stream; pass
    /// `Tracer::disabled()` to serve without observability. The pool
    /// always tees its flight recorder next to the given tracer, so
    /// post-mortem context exists even for untraced runs.
    ///
    /// # Panics
    ///
    /// When [`ServeConfig::http_addr`] is set and the address cannot be
    /// bound, or when [`ServeConfig::state_dir`] is set and the durable
    /// state cannot be opened at all (an unreadable *record* inside it
    /// is recovered from, not panicked over).
    pub fn start(cfg: ServeConfig, tracer: Tracer) -> Self {
        let devices = cfg.devices.max(1);
        // Open the durable plane first: the verified checkpoint store and
        // the write-ahead journal, replaying whatever the previous
        // incarnation left behind.
        let mut journal_handle: Option<Arc<Journal>> = None;
        let mut journal_scan = journal::JournalScan::default();
        let mut store_discarded = 0u64;
        let mut store_fell_back = 0u64;
        let checkpoints = if let Some(dir) = &cfg.state_dir {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("creating state dir {}: {e}", dir.display()));
            let store = CheckpointStore::durable(dir.clone(), cfg.durability_faults.clone())
                .unwrap_or_else(|e| panic!("opening checkpoint store in {}: {e}", dir.display()));
            if let Some(r) = store.store_recovery() {
                store_discarded = r.discarded;
                store_fell_back = r.fell_back;
            }
            let (j, scan) = Journal::open(dir.join("journal.wal"), cfg.durability_faults.clone())
                .unwrap_or_else(|e| panic!("opening journal in {}: {e}", dir.display()));
            journal_handle = Some(Arc::new(j));
            journal_scan = scan;
            Some(Arc::new(store))
        } else {
            (cfg.checkpoint_every > 0).then(|| Arc::new(CheckpointStore::in_memory()))
        };

        // Reconcile the journal against the store: per-job ledgers decide
        // who is already terminal (accounted, never re-run), who resumes
        // from a snapshot, and who restarts from zero.
        let ledgers = journal::fold(&journal_scan.records);
        let mut recovery = RecoveryStats {
            journaled_jobs: ledgers.len() as u64,
            discarded: store_discarded,
            truncated_bytes: journal_scan.truncated_bytes,
            ..RecoveryStats::default()
        };
        let mut recovered_jobs: Vec<Job> = Vec::new();
        // (job, outcome, version, iteration, detail) — emitted as Restore
        // events once the tracer handle exists below.
        let mut restores: Vec<(JobId, RestoreOutcome, u64, u64, String)> = Vec::new();
        let mut statuses = BTreeMap::new();
        let mut meta = BTreeMap::new();
        let mut max_id = 0;
        for (&id, ledger) in &ledgers {
            max_id = max_id.max(id);
            if let Some(outcome) = ledger.terminal {
                // Exactly-once accounting: a journaled terminal is final.
                // Its artifacts are no longer needed.
                if let Some(store) = &checkpoints {
                    store.discard(id);
                }
                let (kind, detail) = match outcome {
                    JournalOutcome::Finished => {
                        recovery.finished += 1;
                        (RestoreOutcome::Finished, "already finished; not re-run")
                    }
                    JournalOutcome::Failed { .. } => {
                        recovery.failed += 1;
                        (RestoreOutcome::Failed, "already failed; not re-run")
                    }
                    JournalOutcome::Cancelled => {
                        recovery.cancelled += 1;
                        (RestoreOutcome::Cancelled, "already cancelled; not re-run")
                    }
                };
                restores.push((id, kind, 0, 0, detail.to_string()));
                continue;
            }
            let Some(spec) = ledger.spec() else {
                // The admission record survived but its workload encoding
                // does not parse (bit rot past the CRC's reach is ruled
                // out, so this is a future-encoding artifact): report it,
                // don't guess.
                recovery.discarded += 1;
                restores.push((
                    id,
                    RestoreOutcome::Discarded,
                    0,
                    0,
                    format!("unparseable workload {:?}", ledger.workload),
                ));
                continue;
            };
            let snapshot = checkpoints.as_ref().and_then(|s| s.load(id));
            let (kind, version, iteration, detail) = match &snapshot {
                Some(ck) => {
                    recovery.recovered += 1;
                    (
                        RestoreOutcome::Resumed,
                        ck.version,
                        ck.iteration,
                        format!(
                            "resuming from v{} after iteration {} ({} prior start(s))",
                            ck.version, ck.iteration, ledger.starts
                        ),
                    )
                }
                None => {
                    recovery.replayed += 1;
                    (
                        RestoreOutcome::Restarted,
                        0,
                        0,
                        format!("no usable snapshot; restarting ({} prior start(s))", ledger.starts),
                    )
                }
            };
            restores.push((id, kind, version, iteration, detail));
            // Deadlines were journaled relative to submission; the old
            // epoch died with the old process, so the clock restarts here
            // — a documented extension, never a tightening.
            let deadline_us = if ledger.deadline_ms > 0 {
                (ledger.deadline_ms * 1_000).max(1)
            } else {
                0
            };
            // The retry budget the old incarnations burned carries over,
            // but the in-flight attempt was cut short through no fault of
            // the job's — it always gets at least one more start.
            let attempts = (ledger.starts as u32).min(ledger.max_attempts.saturating_sub(1));
            statuses.insert(id, JobStatus::Queued);
            meta.insert(
                id,
                JobMeta {
                    tenant: spec.tenant.clone(),
                    workload: ledger.workload.clone(),
                    priority: spec.priority.as_str(),
                    deadline_us,
                    submitted_us: 0,
                    started_us: None,
                    ended_us: None,
                    device: None,
                    attempts,
                    evictions: 0,
                },
            );
            recovered_jobs.push(Job {
                id,
                spec,
                seq: id,
                attempts,
                cancel: CancelToken::new(),
                deadline_us,
                evictions: 0,
                avoid_device: None,
                not_before_us: 0,
            });
        }

        let mut queue = ReadyQueue::new(cfg.queue_capacity);
        let recovered_meta: Vec<(JobId, String, u64)> = recovered_jobs
            .iter()
            .map(|j| (j.id, j.spec.tenant.clone(), j.deadline_us))
            .collect();
        for job in recovered_jobs {
            // Requeue, not admit: recovered jobs were admitted in a past
            // life and must not bounce off the bound now.
            queue.requeue(job);
        }

        let flight = Arc::new(FlightRecorder::new(cfg.flight.clone()));
        let mut tracer = tracer.tee_with(Arc::clone(&flight) as Arc<dyn TraceSink>);
        if let Some(j) = &journal_handle {
            tracer = tracer.tee_with(Arc::new(JournalCheckpointTee {
                journal: Arc::clone(j),
            }) as Arc<dyn TraceSink>);
        }
        let slo = cfg.slo.clone().map(SloMonitor::new);
        let inner = Arc::new(Inner {
            state: Mutex::new(ServeState {
                queue,
                running: BTreeMap::new(),
                statuses,
                meta,
                tenant_run_us: BTreeMap::new(),
                cancel_requested: BTreeSet::new(),
                evicting: BTreeMap::new(),
                health: (0..devices)
                    .map(|_| SlotHealth {
                        state: SlotState::Healthy,
                        consecutive_failures: 0,
                    })
                    .collect(),
                next_id: max_id + 1,
                next_seq: max_id + 1,
                shutting_down: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            tracer,
            metrics: Arc::new(MetricsRegistry::new()),
            checkpoints,
            journal: journal_handle,
            recovery,
            flight,
            slo,
            lens: if cfg.lens {
                LensHub::enabled()
            } else {
                LensHub::disabled()
            },
            epoch: Instant::now(),
            cfg,
        });
        // Narrate the reconciliation into the trace stream before any
        // worker can start a recovered job: stream-level records first
        // (journal-tail truncation, discarded store artifacts), then the
        // per-job decisions, then a fresh Submitted for each re-queued
        // job so its lifecycle row is complete in this incarnation.
        if recovery.truncated_bytes > 0 {
            inner.emit_restore(
                0,
                RestoreOutcome::Truncated,
                0,
                0,
                format!("journal tail truncated ({} bytes)", recovery.truncated_bytes),
            );
        }
        if store_discarded > 0 || store_fell_back > 0 {
            inner.emit_restore(
                0,
                RestoreOutcome::Discarded,
                0,
                0,
                format!(
                    "checkpoint store: {store_discarded} artifact(s) discarded, {store_fell_back} fell back to .prev"
                ),
            );
        }
        for (id, outcome, version, iteration, detail) in restores {
            inner.emit_restore(id, outcome, version, iteration, detail);
        }
        let depth = inner.state.lock().unwrap().queue.len() as u64;
        for (id, tenant, deadline_us) in recovered_meta {
            inner.emit_job(JobEvent {
                job: id,
                tenant: &tenant,
                kind: JobEventKind::Submitted,
                queue_depth: depth,
                device: 0,
                deadline_us,
                detail: "recovered from journal".into(),
            });
        }
        // Every slot starts healthy; publishing the gauges up front makes
        // the series visible even on runs with no health transitions.
        for device in 1..=devices as u64 {
            inner.device_health_gauge(device).set(2);
        }
        inner.note_queue_depth(depth);
        let mut workers: Vec<std::thread::JoinHandle<()>> = (0..devices)
            .map(|slot| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("morph-serve-dev{}", slot + 1))
                    .spawn(move || worker_loop(&inner, (slot + 1) as u64))
                    .expect("spawning a device worker thread")
            })
            .collect();
        if let Some(budget) = inner.cfg.hang_budget {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name("morph-serve-watchdog".into())
                    .spawn(move || watchdog_loop(&inner, budget))
                    .expect("spawning the hang watchdog thread"),
            );
        }
        // Bind the introspection listener synchronously so callers (and
        // `127.0.0.1:0` tests) know the port before the first request.
        let mut http_addr = None;
        if let Some(addr) = inner.cfg.http_addr.clone() {
            let listener = std::net::TcpListener::bind(&addr)
                .unwrap_or_else(|e| panic!("binding introspection listener on {addr}: {e}"));
            http_addr = Some(listener.local_addr().expect("bound listener has an address"));
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name("morph-serve-http".into())
                    .spawn(move || crate::http::serve_loop(&inner, listener))
                    .expect("spawning the introspection HTTP thread"),
            );
        }
        MorphServe {
            inner,
            workers,
            http_addr,
        }
    }

    /// Submit a job. Returns its id, or the spec back with the admission
    /// error when the queue is saturated (a `Rejected` event is emitted
    /// so rejections are visible in the trace).
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, (JobSpec, AdmitError)> {
        let mut st = self.inner.state.lock().unwrap();
        let id = st.next_id;
        let seq = st.next_seq;
        let deadline_us = spec
            .deadline
            .map(|d| (self.inner.now_us() + d.as_micros() as u64).max(1))
            .unwrap_or(0);
        let job = Job {
            id,
            spec,
            seq,
            attempts: 0,
            cancel: CancelToken::new(),
            deadline_us,
            evictions: 0,
            avoid_device: None,
            not_before_us: 0,
        };
        let tenant = job.spec.tenant.clone();
        let detail = job.spec.workload.encode();
        let priority = job.spec.priority;
        let deadline_ms = job.spec.deadline.map(|d| d.as_millis() as u64).unwrap_or(0);
        let max_attempts = job.spec.retry.max_attempts;
        match st.queue.admit(job) {
            Ok(()) => {
                // Write-ahead: the admission is journaled before any of
                // its in-memory effects, so a crash can forget a job the
                // caller saw rejected but never one it saw admitted.
                self.inner.journal(JournalRecord::Admitted {
                    job: id,
                    tenant: tenant.clone(),
                    priority,
                    deadline_ms,
                    max_attempts,
                    workload: detail.clone(),
                });
                st.next_id += 1;
                st.next_seq += 1;
                st.statuses.insert(id, JobStatus::Queued);
                st.meta.insert(
                    id,
                    JobMeta {
                        tenant: tenant.clone(),
                        workload: detail.clone(),
                        priority: priority.as_str(),
                        deadline_us,
                        submitted_us: self.inner.now_us(),
                        started_us: None,
                        ended_us: None,
                        device: None,
                        attempts: 0,
                        evictions: 0,
                    },
                );
                let depth = st.queue.len() as u64;
                drop(st);
                self.inner.note_queue_depth(depth);
                self.inner.emit_job(JobEvent {
                    job: id,
                    tenant: &tenant,
                    kind: JobEventKind::Submitted,
                    queue_depth: depth,
                    device: 0,
                    deadline_us,
                    detail,
                });
                self.inner.work.notify_one();
                Ok(id)
            }
            Err(bounced) => {
                let (job, err) = *bounced;
                let depth = st.queue.len() as u64;
                drop(st);
                self.inner.emit_job(JobEvent {
                    job: id,
                    tenant: &tenant,
                    kind: JobEventKind::Rejected,
                    queue_depth: depth,
                    device: 0,
                    deadline_us,
                    detail: err.to_string(),
                });
                Err((job.spec, err))
            }
        }
    }

    /// Cancel a job. Queued: removed immediately (terminal `Cancelled`).
    /// Running: its token is raised and the driver unwinds at the next
    /// host-action boundary, freeing the device slot. Terminal/unknown:
    /// no-op. Returns whether anything was cancelled.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.inner.state.lock().unwrap();
        if let Some(job) = st.queue.remove(id) {
            let detail = "cancelled while queued".into();
            self.inner.terminate(st, &job, 0, JobStatus::Cancelled, detail);
            return true;
        }
        if let Some(tok) = st.running.get(&id).map(|e| e.cancel.clone()) {
            // Record that *the caller* asked, so the completion path can
            // tell a user cancel apart from a watchdog eviction.
            st.cancel_requested.insert(id);
            drop(st);
            tok.cancel();
            return true;
        }
        false
    }

    /// Current status, if the job id was ever admitted.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.inner.state.lock().unwrap().statuses.get(&id).cloned()
    }

    /// Block until the job reaches a terminal state and return it.
    /// Returns `None` for an id that was never admitted.
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            match st.statuses.get(&id) {
                None => return None,
                Some(s) if s.is_terminal() => return Some(s.clone()),
                Some(_) => {
                    let (next, _) = self
                        .inner
                        .done
                        .wait_timeout(st, Duration::from_millis(50))
                        .unwrap();
                    st = next;
                }
            }
        }
    }

    /// Block until every admitted job is terminal.
    pub fn drain(&self) {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            let all_done = st.queue.is_empty()
                && st.running.is_empty()
                && st.statuses.values().all(JobStatus::is_terminal);
            if all_done {
                return;
            }
            let (next, _) = self
                .inner
                .done
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap();
            st = next;
        }
    }

    /// Per-tenant accrued device time (µs) — the live fairness signal.
    /// The pool's live metrics registry: engine cost-model series and
    /// per-job latency histograms, labelled by tenant and algorithm.
    /// Snapshot or export it at any time; series accumulate across jobs
    /// for the lifetime of the pool.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.inner.metrics
    }

    /// The shared checkpoint store, when checkpointing is enabled
    /// ([`ServeConfig::checkpoint_every`] > 0).
    pub fn checkpoints(&self) -> Option<&Arc<CheckpointStore>> {
        self.inner.checkpoints.as_ref()
    }

    /// The shared morph-lens attribution hub — enabled iff the pool was
    /// started with [`ServeConfig::lens`]. Snapshot it at any time for
    /// the same cumulative phase × structure table `/lens` serves.
    pub fn lens(&self) -> &LensHub {
        &self.inner.lens
    }

    /// The always-on flight recorder teed into the pool's sink chain.
    /// Dump it manually ([`FlightRecorder::dump`]) for triggers the
    /// recorder cannot see itself — e.g. an integrity violation found at
    /// summary time, or a panic handler.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.inner.flight
    }

    /// Bound address of the introspection HTTP plane, when enabled
    /// ([`ServeConfig::http_addr`]); with port 0 this carries the actual
    /// ephemeral port.
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        self.http_addr
    }

    /// Live circuit-breaker state per device slot — the single health
    /// source `/healthz` serves and
    /// [`crate::ServeSummary::with_slot_health`] folds, so the live and
    /// end-of-run views agree by construction.
    pub fn slot_health(&self) -> Vec<SlotHealthSnapshot> {
        self.inner.slot_health()
    }

    pub fn tenant_run_us(&self) -> BTreeMap<String, u64> {
        self.inner.state.lock().unwrap().tenant_run_us.clone()
    }

    /// What reconciliation found on startup: journaled jobs, terminals
    /// accounted without a re-run, resumes, restarts, discarded
    /// artifacts and truncated journal bytes. All-zero without a
    /// [`ServeConfig::state_dir`] or on a first run.
    pub fn recovery(&self) -> RecoveryStats {
        self.inner.recovery
    }

    /// The write-ahead journal handle, when the pool is durable
    /// ([`ServeConfig::state_dir`]).
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.inner.journal.as_ref()
    }

    /// Drain queued work, stop the workers, and join them. Flushes the
    /// tracer. Idempotent.
    pub fn shutdown(&mut self) {
        self.drain();
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutting_down = true;
        }
        self.inner.work.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(j) = &self.inner.journal {
            j.sync();
        }
        self.inner.tracer.flush();
    }
}

impl Drop for MorphServe {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One device slot's service loop, gated by the slot's circuit breaker.
fn worker_loop(inner: &Arc<Inner>, device: u64) {
    let sole_device = inner.cfg.devices.max(1) == 1;
    let slot = device as usize - 1;
    loop {
        let job = {
            let mut st = inner.state.lock().unwrap();
            loop {
                let mut wait = Duration::from_millis(50);
                match st.health[slot].state {
                    SlotState::Quarantined { until } => {
                        let now = Instant::now();
                        if now < until {
                            // Sitting out the cooldown: wake no later than
                            // its end, and pick nothing meanwhile.
                            wait = wait.min(until - now);
                            if st.shutting_down {
                                return;
                            }
                            let (next, _) = inner.work.wait_timeout(st, wait).unwrap();
                            st = next;
                            continue;
                        }
                        // Cooldown over: half-open. The next pick is the probe.
                        let failures = st.health[slot].consecutive_failures;
                        st.health[slot].state = SlotState::Probation;
                        inner.emit_health(device, "probation", failures);
                    }
                    SlotState::Healthy | SlotState::Probation => {}
                }
                let now_us = inner.now_us();
                if let Some(job) = {
                    let usage = st.tenant_run_us.clone();
                    st.queue.pick(&usage, device, sole_device, now_us)
                } {
                    break job;
                }
                if st.shutting_down {
                    return;
                }
                // An empty pick with backed-off jobs waiting: wake no
                // later than the earliest `not_before_us` stamp.
                if let Some(ready_at) = st.queue.soonest_ready(now_us) {
                    wait = wait.min(Duration::from_micros(
                        ready_at.saturating_sub(now_us).max(500),
                    ));
                }
                let (next, _) = inner.work.wait_timeout(st, wait).unwrap();
                st = next;
            }
        };
        run_one(inner, device, job);
    }
}

/// The hung-job watchdog: scans in-flight heartbeats and cooperatively
/// cancels any job that made no progress within `budget`, marking it for
/// eviction so the completion path requeues instead of cancelling it.
fn watchdog_loop(inner: &Arc<Inner>, budget: Duration) {
    let tick = (budget / 4).max(Duration::from_millis(5));
    loop {
        std::thread::sleep(tick);
        let mut hung: Vec<CancelToken> = Vec::new();
        {
            let mut st = inner.state.lock().unwrap();
            if st.shutting_down {
                return;
            }
            let mut mark = Vec::new();
            for (id, entry) in st.running.iter_mut() {
                let beat = entry.heartbeat.load(Ordering::Acquire);
                if beat != entry.last_beat {
                    entry.last_beat = beat;
                    entry.beat_seen = Instant::now();
                } else if entry.beat_seen.elapsed() >= budget {
                    mark.push((*id, entry.cancel.clone()));
                }
            }
            for (id, tok) in mark {
                // A caller-requested cancel wins: don't relabel it as an
                // eviction.
                if !st.cancel_requested.contains(&id)
                    && st.evicting.insert(id, "hung").is_none()
                {
                    hung.push(tok);
                }
            }
        }
        for tok in hung {
            tok.cancel();
        }
    }
}

/// Shed a job whose absolute deadline has already passed: a terminal
/// SLO miss, charged zero device time. Returns `true` when shed.
fn shed_expired(inner: &Arc<Inner>, job: &Job, device: u64, phase: &str) -> bool {
    if job.deadline_us == 0 || inner.now_us() < job.deadline_us {
        return false;
    }
    let detail = format!("shed: deadline expired {phase}");
    let mut st = inner.state.lock().unwrap();
    st.cancel_requested.remove(&job.id);
    st.evicting.remove(&job.id);
    let status = JobStatus::Failed {
        attempts: job.attempts,
        error: detail.clone(),
        permanent: true,
    };
    inner.terminate(st, job, device, status, detail);
    true
}

/// Record a clean run on a slot: probation resolves back to healthy.
fn slot_ok(inner: &Arc<Inner>, st: &mut ServeState, device: u64) {
    let h = &mut st.health[device as usize - 1];
    h.consecutive_failures = 0;
    if matches!(h.state, SlotState::Probation) {
        h.state = SlotState::Healthy;
        inner.emit_health(device, "healthy", 0);
    }
}

/// Record an eviction-class failure on a slot: enough of them in a row —
/// or one failed probe — trips the breaker into quarantine.
fn slot_failure(inner: &Arc<Inner>, st: &mut ServeState, device: u64) {
    let h = &mut st.health[device as usize - 1];
    h.consecutive_failures += 1;
    let failures = h.consecutive_failures;
    let probe_failed = matches!(h.state, SlotState::Probation);
    if probe_failed || failures >= inner.cfg.quarantine_threshold as u64 {
        h.state = SlotState::Quarantined {
            until: Instant::now() + inner.cfg.quarantine_cooldown,
        };
        inner.emit_health(device, "quarantined", failures);
    }
}

/// Pull an evicted job off its slot: health bookkeeping, then either a
/// requeue steered away from this device (the normal path — `Eviction`
/// paired with `Requeued`) or, when the deadline or the eviction budget
/// is already spent, a terminal failure.
fn evict(
    inner: &Arc<Inner>,
    mut st: MutexGuard<'_, ServeState>,
    device: u64,
    mut job: Job,
    hub: &MetricsHub,
    reason: &'static str,
    err: &DriveError,
) {
    let id = job.id;
    let tenant = job.spec.tenant.clone();
    slot_failure(inner, &mut st, device);

    let expired = job.deadline_us != 0 && inner.now_us() >= job.deadline_us;
    if expired || job.evictions >= inner.cfg.max_evictions {
        let detail = if expired {
            format!("shed: deadline expired at requeue after {reason} eviction")
        } else {
            format!(
                "eviction budget exhausted ({} evictions): {err}",
                job.evictions
            )
        };
        let status = JobStatus::Failed {
            attempts: job.attempts,
            error: detail.clone(),
            permanent: expired,
        };
        inner.terminate(st, &job, device, status, detail);
        return;
    }

    job.evictions += 1;
    job.avoid_device = Some(device);
    // Jittered exponential backoff over the job's total disruptions: a
    // job bouncing between dying slots must not hot-spin the queue.
    job.not_before_us =
        inner.now_us() + backoff_delay_us(id, job.evictions + job.attempts);
    // The eviction may have raised this job's token (watchdog); the
    // requeued run needs a fresh one or it would cancel itself at its
    // first host-action boundary.
    job.cancel = CancelToken::new();
    let detail = format!("evicted ({reason}): {err}");
    inner.journal(JournalRecord::Requeued {
        job: id,
        reason: detail.clone(),
    });
    st.statuses.insert(id, JobStatus::Queued);
    if let Some(m) = st.meta.get_mut(&id) {
        m.evictions = job.evictions;
        m.device = None;
    }
    st.queue.requeue(job);
    let depth = st.queue.len() as u64;
    drop(st);
    inner.note_queue_depth(depth);
    if let Some(c) = hub.counter(
        "morph_jobs_evicted_total",
        "Jobs pulled off a live device slot (device loss or hung-job watchdog)",
    ) {
        c.inc();
    }
    let t_us = inner.now_us();
    let r = reason.to_string();
    inner
        .tracer
        .emit(move || TraceEvent::Eviction { job: id, device, reason: r, t_us });
    inner.emit_job(JobEvent {
        job: id,
        tenant: &tenant,
        kind: JobEventKind::Requeued,
        queue_depth: depth,
        device,
        deadline_us: 0,
        detail,
    });
    // Wake every worker: the evicted job avoids this slot, so the pick
    // must come from another one when it exists.
    inner.work.notify_all();
}

/// Run one picked job to a terminal state, a requeue or an eviction.
fn run_one(inner: &Arc<Inner>, device: u64, mut job: Job) {
    let id = job.id;
    let tenant = job.spec.tenant.clone();

    // Deadline gate *before* the attempt is charged: an already-expired
    // job is an SLO miss, not a run.
    if shed_expired(inner, &job, device, "before start") {
        return;
    }

    job.attempts += 1;
    let attempt = job.attempts;
    let heartbeat = Arc::new(AtomicU64::new(0));

    // Transition to Running and register the entry while holding the
    // lock, so `cancel` and the watchdog can always find in-flight jobs.
    let depth = {
        let mut st = inner.state.lock().unwrap();
        st.running.insert(
            id,
            RunningEntry {
                cancel: job.cancel.clone(),
                heartbeat: Arc::clone(&heartbeat),
                last_beat: 0,
                beat_seen: Instant::now(),
            },
        );
        st.statuses.insert(id, JobStatus::Running { device });
        let now = inner.now_us();
        if let Some(m) = st.meta.get_mut(&id) {
            m.attempts = attempt;
            m.device = Some(device);
            m.started_us.get_or_insert(now);
        }
        st.queue.len() as u64
    };
    inner.note_queue_depth(depth);
    inner.journal(JournalRecord::Started {
        job: id,
        device,
        attempt: attempt as u64,
    });
    // The three start-of-run lifecycle events differ in kind and detail only.
    let start_event = |kind, detail| JobEvent {
        job: id,
        tenant: &tenant,
        kind,
        queue_depth: depth,
        device,
        deadline_us: job.deadline_us,
        detail,
    };
    inner.emit_job(start_event(JobEventKind::Scheduled, format!("attempt {attempt}")));
    let hub = MetricsHub::new(Arc::clone(&inner.metrics))
        .with_label("tenant", &tenant)
        .with_label("algo", job.spec.workload.algo());
    if let Some(ck) = inner.checkpoints.as_ref().and_then(|s| s.load(id)) {
        // This start resumes from a snapshot taken on an earlier slot.
        if let Some(c) = hub.counter(
            "morph_jobs_resumed_total",
            "Job starts that resumed from a checkpoint instead of from scratch",
        ) {
            c.inc();
        }
        inner.emit_job(start_event(
            JobEventKind::Resumed,
            format!(
                "from v{} after iteration {} ({} bytes)",
                ck.version,
                ck.iteration,
                ck.payload.len()
            ),
        ));
    }
    inner.emit_job(start_event(JobEventKind::Started, job.spec.workload.encode()));

    let checkpoint = inner.checkpoints.as_ref().map(|store| {
        CheckpointCtl::new(Arc::clone(store), id)
            .every(inner.cfg.checkpoint_every.max(1))
            .with_epoch(inner.epoch)
            .with_metrics(hub.clone())
    });
    let recovery = RecoveryOpts {
        policy: inner.cfg.policy,
        fault_plan: job.spec.fault_plan.clone(),
        barrier_watchdog: inner.cfg.barrier_watchdog,
        tracer: inner.tracer.for_job(id),
        metrics: hub.clone(),
        cancel: job.cancel.clone(),
        checkpoint,
        heartbeat: Some(Arc::clone(&heartbeat)),
        profiler: inner
            .cfg
            .profiler
            .as_ref()
            .map(|p| ProfilerScope::new(Arc::clone(p), job.spec.workload.algo())),
        tuner: if inner.cfg.autotune {
            AutoTuner::enabled(TuneConfig::default())
        } else {
            AutoTuner::default()
        },
        lens: inner.lens.clone(),
    };
    let run_started = Instant::now();
    let outcome = job.spec.workload.run(inner.cfg.sms_per_device, &recovery);
    let run_us = run_started.elapsed().as_micros() as u64;
    if let Some(h) = hub.histogram(
        "morph_job_run_us",
        "Per-job device-resident wall time in microseconds",
    ) {
        h.record(run_us);
    }

    let mut st = inner.state.lock().unwrap();
    st.running.remove(&id);
    let user_cancelled = st.cancel_requested.remove(&id);
    let evict_reason = st.evicting.remove(&id);
    *st.tenant_run_us.entry(tenant.clone()).or_insert(0) += run_us;

    match outcome {
        Ok(metrics) => {
            slot_ok(inner, &mut st, device);
            let detail = format!(
                "{}: {} iterations, {} items, {} retries",
                job.spec.workload.algo(),
                metrics.iterations,
                metrics.work_items,
                metrics.retries
            );
            inner.terminate(st, &job, device, JobStatus::Finished { metrics }, detail);
        }
        Err(err) => {
            let lost = matches!(
                &err,
                DriveError::Launch { error, .. } if error.is_device_loss()
            );
            let hung = !user_cancelled
                && evict_reason.is_some()
                && classify(&err) == FailureClass::Cancelled;
            if !user_cancelled && (lost || hung) {
                let reason = if lost { "device_loss" } else { "hung" };
                evict(inner, st, device, job, &hub, reason, &err);
                return;
            }
            match classify(&err) {
                FailureClass::Cancelled => {
                    inner.terminate(st, &job, device, JobStatus::Cancelled, err.to_string());
                }
                FailureClass::Retryable
                    if attempt < job.spec.retry.max_attempts
                        && !(job.deadline_us != 0 && inner.now_us() >= job.deadline_us) =>
                {
                    let detail = format!("attempt {attempt} failed: {err}");
                    // A watchdog cancel can race a retryable failure; the
                    // requeued run must not inherit a raised token.
                    if job.cancel.is_cancelled() {
                        job.cancel = CancelToken::new();
                    }
                    // Back off before the retry, scaled by attempts: a
                    // deterministically failing job must not monopolise
                    // its slot in a tight loop.
                    job.not_before_us = inner.now_us() + backoff_delay_us(id, attempt);
                    inner.journal(JournalRecord::Requeued {
                        job: id,
                        reason: detail.clone(),
                    });
                    st.statuses.insert(id, JobStatus::Queued);
                    st.queue.requeue(job);
                    let depth = st.queue.len() as u64;
                    drop(st);
                    inner.note_queue_depth(depth);
                    inner.emit_job(JobEvent {
                        job: id,
                        tenant: &tenant,
                        kind: JobEventKind::Requeued,
                        queue_depth: depth,
                        device,
                        deadline_us: 0,
                        detail,
                    });
                    inner.work.notify_one();
                }
                FailureClass::Retryable
                    if job.deadline_us != 0 && inner.now_us() >= job.deadline_us =>
                {
                    // Deadline gate at requeue: the retry budget may
                    // remain, but the deadline is gone — shed instead of
                    // burning more device time.
                    let detail = format!("shed: deadline expired at requeue ({err})");
                    let status = JobStatus::Failed {
                        attempts: attempt,
                        error: detail.clone(),
                        permanent: true,
                    };
                    inner.terminate(st, &job, device, status, detail);
                }
                class => {
                    let permanent = class == FailureClass::Permanent;
                    let status = JobStatus::Failed {
                        attempts: attempt,
                        error: err.to_string(),
                        permanent,
                    };
                    let detail = format!(
                        "{} after {attempt} attempt(s): {err}",
                        if permanent { "permanent" } else { "retries exhausted" }
                    );
                    inner.terminate(st, &job, device, status, detail);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobMetrics, Priority, Workload};
    use morph_gpu_sim::FaultPlan;
    use morph_trace::{RingSink, TraceReport};

    fn small_mst(seed: u64) -> Workload {
        Workload::Mst {
            nodes: 60,
            edges: 180,
            seed,
        }
    }

    #[test]
    fn a_single_job_runs_to_finished() {
        let ring = Arc::new(RingSink::new(4096));
        let tracer = Tracer::new(Arc::clone(&ring) as _);
        let mut pool = MorphServe::start(
            ServeConfig {
                devices: 1,
                ..ServeConfig::default()
            },
            tracer,
        );
        let id = pool.submit(JobSpec::new("t0", small_mst(1))).unwrap();
        let status = pool.wait(id).unwrap();
        match status {
            JobStatus::Finished {
                metrics: JobMetrics { iterations, .. },
            } => assert!(iterations > 0),
            other => panic!("expected Finished, got {other:?}"),
        }
        pool.shutdown();
        let report = TraceReport::from_events(ring.events().iter());
        let row = &report.jobs[&id];
        assert_eq!(row.outcome, Some(JobEventKind::Finished));
        assert_eq!(row.starts, 1);
        assert_eq!(row.device, Some(1));
        assert!(row.turnaround_us().is_some());
    }

    #[test]
    fn jobs_publish_tenant_tagged_metrics_that_round_trip() {
        let mut pool = MorphServe::start(
            ServeConfig {
                devices: 2,
                ..ServeConfig::default()
            },
            Tracer::disabled(),
        );
        let a = pool.submit(JobSpec::new("acme", small_mst(7))).unwrap();
        let b = pool
            .submit(JobSpec::new("zeta", Workload::Dmr { triangles: 300, seed: 8 }))
            .unwrap();
        pool.wait(a);
        pool.wait(b);
        let snap = pool.metrics().snapshot();
        pool.shutdown();

        // One latency sample per job, partitioned by tenant and algorithm.
        let latency: Vec<_> = snap
            .series
            .iter()
            .filter(|s| s.name == "morph_job_run_us")
            .collect();
        assert_eq!(latency.len(), 2, "one series per (tenant, algo) pair");
        for s in &latency {
            assert!(s.labels.iter().any(|(k, _)| k == "tenant"));
            assert!(s.labels.iter().any(|(k, _)| k == "algo"));
            match &s.value {
                morph_metrics::SampleValue::Histogram(h) => assert_eq!(h.count, 1),
                other => panic!("expected latency histogram, got {other:?}"),
            }
        }
        // Engine cost-model series rode the same hub.
        assert!(
            snap.series
                .iter()
                .any(|s| s.name == "morph_gmem_accesses_total"),
            "pipeline launches must publish cost-model counters"
        );
        // Every slot publishes its health gauge, healthy at rest.
        let health: Vec<_> = snap
            .series
            .iter()
            .filter(|s| s.name == "morph_device_health")
            .collect();
        assert_eq!(health.len(), 2, "one gauge per device slot");
        for s in &health {
            assert!(matches!(
                s.value,
                morph_metrics::SampleValue::Gauge(2)
            ));
        }

        // Exposition text is valid: every sample covered by TYPE + HELP.
        let text = morph_metrics::expose(&snap);
        let parsed = morph_metrics::parse_exposition(&text).expect("valid exposition");
        assert!(parsed.samples.iter().any(|s| s.name == "morph_job_run_us_count"));
    }

    #[test]
    fn saturated_queue_rejects_and_traces() {
        let ring = Arc::new(RingSink::new(4096));
        let tracer = Tracer::new(Arc::clone(&ring) as _);
        // Zero devices is clamped to 1, but a 1-capacity queue with slow
        // jobs saturates immediately.
        let mut pool = MorphServe::start(
            ServeConfig {
                devices: 1,
                queue_capacity: 1,
                ..ServeConfig::default()
            },
            tracer,
        );
        // Fill the only device and the only queue slot, then overflow.
        let a = pool
            .submit(JobSpec::new("t", Workload::Dmr { triangles: 400, seed: 1 }))
            .unwrap();
        let b = pool.submit(JobSpec::new("t", small_mst(2)));
        let c = pool.submit(JobSpec::new("t", small_mst(3)));
        // At least one of b/c must have been rejected or both admitted
        // (the first job may have been picked already, freeing a slot);
        // saturation is timing-dependent, so just drain and assert the
        // invariant: every *admitted* job reached a terminal state.
        pool.drain();
        assert!(pool.wait(a).unwrap().is_terminal());
        for r in [b, c].into_iter().flatten() {
            assert!(pool.wait(r).unwrap().is_terminal());
        }
        pool.shutdown();
    }

    #[test]
    fn cancelling_a_queued_job_is_immediate() {
        let ring = Arc::new(RingSink::new(4096));
        let tracer = Tracer::new(Arc::clone(&ring) as _);
        let mut pool = MorphServe::start(
            ServeConfig {
                devices: 1,
                ..ServeConfig::default()
            },
            tracer,
        );
        // Occupy the device with a longer job, queue a victim behind it.
        let long = pool
            .submit(JobSpec::new("t", Workload::Dmr { triangles: 600, seed: 5 }))
            .unwrap();
        let victim = pool
            .submit(JobSpec::new("t", small_mst(6)).with_priority(Priority::Low))
            .unwrap();
        // The victim may already be running if the device freed quickly;
        // cancel handles both cases.
        assert!(pool.cancel(victim));
        let status = pool.wait(victim).unwrap();
        assert!(
            matches!(status, JobStatus::Cancelled),
            "victim should be cancelled, got {status:?}"
        );
        assert!(matches!(
            pool.wait(long).unwrap(),
            JobStatus::Finished { .. }
        ));
        pool.shutdown();
    }

    #[test]
    fn fair_share_interleaves_two_tenants() {
        let ring = Arc::new(RingSink::new(1 << 14));
        let tracer = Tracer::new(Arc::clone(&ring) as _);
        let mut pool = MorphServe::start(
            ServeConfig {
                devices: 1,
                queue_capacity: 64,
                ..ServeConfig::default()
            },
            tracer,
        );
        // 4 jobs for tenant A submitted first, then 4 for tenant B. With
        // strict FIFO, all A-jobs would run before any B-job; fair share
        // must alternate once A has accrued device time.
        let mut ids = Vec::new();
        for s in 0..4 {
            ids.push(pool.submit(JobSpec::new("a", small_mst(s))).unwrap());
        }
        for s in 4..8 {
            ids.push(pool.submit(JobSpec::new("b", small_mst(s))).unwrap());
        }
        pool.drain();
        pool.shutdown();
        let report = TraceReport::from_events(ring.events().iter());
        // All 8 finished.
        for id in &ids {
            assert_eq!(report.jobs[id].outcome, Some(JobEventKind::Finished));
        }
        // The first B-job must not have waited for all four A-jobs: find
        // start order and check a B-job started before the last A-job.
        let mut starts: Vec<(u64, String)> = report
            .jobs
            .values()
            .map(|r| (r.started_us.unwrap(), r.tenant.clone()))
            .collect();
        starts.sort();
        let order: Vec<&str> = starts.iter().map(|(_, t)| t.as_str()).collect();
        let first_b = order.iter().position(|t| *t == "b").unwrap();
        assert!(
            first_b < order.len() - 1 && order[first_b + 1..].contains(&"a"),
            "fair share should interleave tenants, got {order:?}"
        );
    }

    #[test]
    fn an_expired_deadline_is_shed_before_start() {
        let ring = Arc::new(RingSink::new(4096));
        let tracer = Tracer::new(Arc::clone(&ring) as _);
        let mut pool = MorphServe::start(
            ServeConfig {
                devices: 1,
                ..ServeConfig::default()
            },
            tracer,
        );
        // Occupy the device long enough that the victim's 1 ms deadline
        // has certainly passed by the time a slot frees up.
        let long = pool
            .submit(JobSpec::new("t", Workload::Dmr { triangles: 800, seed: 1 }))
            .unwrap();
        // Don't queue the victim until the long job holds the device:
        // queued together, its earlier deadline would sort it first.
        while !matches!(pool.status(long), Some(JobStatus::Running { .. })) {
            if pool.status(long).is_some_and(|s| s.is_terminal()) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let victim = pool
            .submit(
                JobSpec::new("t", small_mst(2)).with_deadline(Duration::from_millis(1)),
            )
            .unwrap();
        assert!(matches!(pool.wait(long).unwrap(), JobStatus::Finished { .. }));
        let status = pool.wait(victim).unwrap();
        match status {
            JobStatus::Failed { error, attempts, .. } => {
                assert!(error.contains("shed"), "unexpected error: {error}");
                assert_eq!(attempts, 0, "a shed job must not be charged an attempt");
            }
            other => panic!("expected a shed failure, got {other:?}"),
        }
        pool.shutdown();
        let report = TraceReport::from_events(ring.events().iter());
        let row = &report.jobs[&victim];
        assert_eq!(row.outcome, Some(JobEventKind::Failed));
        assert_eq!(row.starts, 0, "shed jobs never emit Started");
        assert!(row.missed_deadline(), "shedding is an SLO miss");
    }

    #[test]
    fn device_loss_evicts_and_resumes_on_another_slot() {
        let ring = Arc::new(RingSink::new(1 << 14));
        let tracer = Tracer::new(Arc::clone(&ring) as _);
        let mut pool = MorphServe::start(
            ServeConfig {
                devices: 2,
                checkpoint_every: 1,
                ..ServeConfig::default()
            },
            tracer,
        );
        // The loss fires at launch 2, after two iterations checkpointed.
        let id = pool
            .submit(
                JobSpec::new("t", Workload::Mst { nodes: 120, edges: 360, seed: 11 })
                    .with_fault_plan(Arc::new(FaultPlan::new().with_device_loss(2, 0, 0))),
            )
            .unwrap();
        let status = pool.wait(id).unwrap();
        assert!(
            matches!(status, JobStatus::Finished { .. }),
            "evicted job must finish after resume, got {status:?}"
        );
        pool.shutdown();

        let report = TraceReport::from_events(ring.events().iter());
        let row = &report.jobs[&id];
        assert_eq!(row.outcome, Some(JobEventKind::Finished));
        assert_eq!(row.evictions, 1);
        assert_eq!(row.resumes, 1, "the restart must resume from the checkpoint");
        assert_eq!(row.requeues, 1);
        assert_eq!(row.starts, 2);
        assert!(row.checkpoints >= 2, "iterations 0 and 1 must have checkpointed");
        // Cross-slot: the final run's device differs from the evicting one.
        let evicted_from = ring
            .events()
            .iter()
            .find_map(|ev| match ev {
                TraceEvent::Eviction { device, .. } => Some(*device),
                _ => None,
            })
            .expect("an Eviction event must be emitted");
        assert_ne!(
            row.device,
            Some(evicted_from),
            "resume must land on a different slot"
        );
    }

    #[test]
    fn checkpointing_disabled_means_no_store_and_no_snapshots() {
        let mut pool = MorphServe::start(ServeConfig::default(), Tracer::disabled());
        assert!(pool.checkpoints().is_none(), "default config must not checkpoint");
        let id = pool.submit(JobSpec::new("t", small_mst(3))).unwrap();
        assert!(matches!(pool.wait(id).unwrap(), JobStatus::Finished { .. }));
        pool.shutdown();
    }

    #[test]
    fn repeated_device_loss_quarantines_the_slot_then_probes_it_back() {
        let ring = Arc::new(RingSink::new(1 << 14));
        let tracer = Tracer::new(Arc::clone(&ring) as _);
        let mut pool = MorphServe::start(
            ServeConfig {
                devices: 1,
                checkpoint_every: 1,
                quarantine_threshold: 3,
                quarantine_cooldown: Duration::from_millis(20),
                max_evictions: 4,
                ..ServeConfig::default()
            },
            tracer,
        );
        // A plan that kills the device on every launch: the sole slot
        // accumulates consecutive evictions until the breaker trips, and
        // the job fails once its eviction budget is spent.
        let mut plan = FaultPlan::new();
        for launch in 0..24 {
            plan = plan.with_device_loss(launch, 0, 0);
        }
        let doomed = pool
            .submit(
                JobSpec::new("t", small_mst(4)).with_fault_plan(Arc::new(plan)),
            )
            .unwrap();
        let status = pool.wait(doomed).unwrap();
        assert!(
            matches!(status, JobStatus::Failed { .. }),
            "doomed job must fail after its eviction budget, got {status:?}"
        );
        // A clean follow-up job is the probe that heals the slot.
        let probe = pool.submit(JobSpec::new("t", small_mst(5))).unwrap();
        assert!(matches!(pool.wait(probe).unwrap(), JobStatus::Finished { .. }));
        pool.shutdown();

        let report = TraceReport::from_events(ring.events().iter());
        let states: Vec<&str> = report.health.iter().map(|h| h.state.as_str()).collect();
        assert!(
            states.contains(&"quarantined"),
            "breaker must trip: {states:?}"
        );
        assert!(
            states.contains(&"probation"),
            "cooldown must half-open the slot: {states:?}"
        );
        assert_eq!(
            states.last().copied(),
            Some("healthy"),
            "the clean probe must close the breaker: {states:?}"
        );
        assert_eq!(report.jobs[&doomed].evictions, 4);
    }
}
