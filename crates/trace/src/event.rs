//! The typed event schema.
//!
//! Every quantity the paper's evaluation argues about over *time* — the
//! Fig. 2 parallelism profile, the §7 divergence/abort/atomic/barrier
//! ablations, the §7.1 allocator footprints — maps onto one of these
//! variants. Events are plain data: producing crates construct them,
//! sinks persist them, and [`crate::report`] folds a stream of them back
//! into per-phase and per-iteration aggregates.

use crate::json::JsonValue;
use serde::ser::{SerializeStruct, Serializer};
use serde::Serialize;

/// A plain copy of the engine's performance-counter block. Mirrors
/// `morph_gpu_sim::WorkerCounters` field for field; defined here (below
/// the sim crate in the dependency order) so events can carry counter
/// snapshots without a dependency cycle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountersSnapshot {
    pub active_threads: u64,
    pub idle_threads: u64,
    pub warps: u64,
    pub divergent_warps: u64,
    pub atomics: u64,
    pub aborts: u64,
    pub commits: u64,
    pub barriers: u64,
    /// Metered global-memory accesses (loads, stores, atomics). Zero
    /// unless the launch ran with the cost model armed.
    pub gmem_accesses: u64,
    /// 32-byte segment transactions those accesses coalesced into.
    pub gmem_transactions: u64,
    /// Metered `BlockLocal` (shared-memory) accesses.
    pub smem_accesses: u64,
    /// Bank conflicts among those accesses (warp_size banks, word-interleaved).
    pub smem_conflicts: u64,
    /// Extra serialization steps from same-address atomics within a warp.
    pub atomic_serial: u64,
    /// Warp executions with at least one active lane (occupancy numerator).
    pub active_warps: u64,
}

impl CountersSnapshot {
    /// Field-wise `self - earlier` (saturating: a fresh launch resets
    /// worker counters, so callers pass snapshots from one launch only).
    pub fn delta_since(&self, earlier: &CountersSnapshot) -> CountersSnapshot {
        CountersSnapshot {
            active_threads: self.active_threads.saturating_sub(earlier.active_threads),
            idle_threads: self.idle_threads.saturating_sub(earlier.idle_threads),
            warps: self.warps.saturating_sub(earlier.warps),
            divergent_warps: self.divergent_warps.saturating_sub(earlier.divergent_warps),
            atomics: self.atomics.saturating_sub(earlier.atomics),
            aborts: self.aborts.saturating_sub(earlier.aborts),
            commits: self.commits.saturating_sub(earlier.commits),
            barriers: self.barriers.saturating_sub(earlier.barriers),
            gmem_accesses: self.gmem_accesses.saturating_sub(earlier.gmem_accesses),
            gmem_transactions: self
                .gmem_transactions
                .saturating_sub(earlier.gmem_transactions),
            smem_accesses: self.smem_accesses.saturating_sub(earlier.smem_accesses),
            smem_conflicts: self.smem_conflicts.saturating_sub(earlier.smem_conflicts),
            atomic_serial: self.atomic_serial.saturating_sub(earlier.atomic_serial),
            active_warps: self.active_warps.saturating_sub(earlier.active_warps),
        }
    }

    /// Field-wise accumulation.
    pub fn add(&mut self, other: &CountersSnapshot) {
        self.active_threads += other.active_threads;
        self.idle_threads += other.idle_threads;
        self.warps += other.warps;
        self.divergent_warps += other.divergent_warps;
        self.atomics += other.atomics;
        self.aborts += other.aborts;
        self.commits += other.commits;
        self.barriers += other.barriers;
        self.gmem_accesses += other.gmem_accesses;
        self.gmem_transactions += other.gmem_transactions;
        self.smem_accesses += other.smem_accesses;
        self.smem_conflicts += other.smem_conflicts;
        self.atomic_serial += other.atomic_serial;
        self.active_warps += other.active_warps;
    }

    /// Fraction of executed warps whose lanes disagreed on staying active.
    pub fn divergence_ratio(&self) -> f64 {
        ratio(self.divergent_warps, self.warps)
    }

    /// Metered global accesses per 32-byte transaction (1.0 = fully
    /// scattered, warp_size·word/32 = perfectly coalesced). 0.0 when the
    /// cost model was not armed.
    pub fn coalescing_factor(&self) -> f64 {
        ratio(self.gmem_accesses, self.gmem_transactions)
    }

    /// Achieved occupancy: warp executions with ≥1 active lane over all
    /// warp executions.
    pub fn occupancy(&self) -> f64 {
        ratio(self.active_warps, self.warps)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Serialize for CountersSnapshot {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut st = s.serialize_struct("CountersSnapshot", 14)?;
        st.serialize_field("active_threads", &self.active_threads)?;
        st.serialize_field("idle_threads", &self.idle_threads)?;
        st.serialize_field("warps", &self.warps)?;
        st.serialize_field("divergent_warps", &self.divergent_warps)?;
        st.serialize_field("atomics", &self.atomics)?;
        st.serialize_field("aborts", &self.aborts)?;
        st.serialize_field("commits", &self.commits)?;
        st.serialize_field("barriers", &self.barriers)?;
        st.serialize_field("gmem_accesses", &self.gmem_accesses)?;
        st.serialize_field("gmem_transactions", &self.gmem_transactions)?;
        st.serialize_field("smem_accesses", &self.smem_accesses)?;
        st.serialize_field("smem_conflicts", &self.smem_conflicts)?;
        st.serialize_field("atomic_serial", &self.atomic_serial)?;
        st.serialize_field("active_warps", &self.active_warps)?;
        st.end()
    }
}

/// What the recovering driver decided (see
/// `morph_core::runtime::drive_recovering`). Stringly-typed `detail`
/// carries the human-readable error for retries/failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryKind {
    /// A launch attempt failed (or the host demanded a re-run) and the
    /// same iteration will run again.
    Retry,
    /// Device pools overflowed; capacity grows to `capacity` and the
    /// iteration re-runs.
    Regrow,
    /// Livelock watchdog escalated to a conflict-priority reshuffle.
    Reshuffle,
    /// Livelock watchdog pinned a 1×1 serial grid.
    SerialPin,
    /// The job's cancellation token was raised; the driver unwound at the
    /// host-action boundary.
    Cancelled,
    /// The driver gave up with a `DriveError`.
    GiveUp,
}

impl RecoveryKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoveryKind::Retry => "retry",
            RecoveryKind::Regrow => "regrow",
            RecoveryKind::Reshuffle => "reshuffle",
            RecoveryKind::SerialPin => "serial_pin",
            RecoveryKind::Cancelled => "cancelled",
            RecoveryKind::GiveUp => "give_up",
        }
    }

    pub fn parse(s: &str) -> Option<RecoveryKind> {
        Some(match s {
            "retry" => RecoveryKind::Retry,
            "regrow" => RecoveryKind::Regrow,
            "reshuffle" => RecoveryKind::Reshuffle,
            "serial_pin" => RecoveryKind::SerialPin,
            "cancelled" => RecoveryKind::Cancelled,
            "give_up" => RecoveryKind::GiveUp,
            _ => return None,
        })
    }
}

/// A job-lifecycle transition observed by the `morph-serve` scheduler /
/// device pool. The sequence for a well-behaved job is
/// `Submitted → Scheduled → Started → Finished`; `Requeued` re-enters at
/// `Scheduled`, and `Rejected`/`Failed`/`Cancelled` are the other terminal
/// states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEventKind {
    /// Admitted into the bounded queue.
    Submitted,
    /// Refused at admission (queue full / server draining). Terminal.
    Rejected,
    /// Picked by the scheduler (leaves the queue).
    Scheduled,
    /// Began executing on a device slot.
    Started,
    /// A retryable failure put the job back in the queue.
    Requeued,
    /// The job restarted from a checkpoint (after an eviction or
    /// preemption) instead of from scratch. Not terminal.
    Resumed,
    /// Completed successfully. Terminal.
    Finished,
    /// Failed permanently (or exhausted its retry budget). Terminal.
    Failed,
    /// Cancelled — either while queued or mid-run via its token. Terminal.
    Cancelled,
}

impl JobEventKind {
    /// Does this kind end the job's lifecycle?
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobEventKind::Rejected
                | JobEventKind::Finished
                | JobEventKind::Failed
                | JobEventKind::Cancelled
        )
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            JobEventKind::Submitted => "submitted",
            JobEventKind::Rejected => "rejected",
            JobEventKind::Scheduled => "scheduled",
            JobEventKind::Started => "started",
            JobEventKind::Requeued => "requeued",
            JobEventKind::Resumed => "resumed",
            JobEventKind::Finished => "finished",
            JobEventKind::Failed => "failed",
            JobEventKind::Cancelled => "cancelled",
        }
    }

    pub fn parse(s: &str) -> Option<JobEventKind> {
        Some(match s {
            "submitted" => JobEventKind::Submitted,
            "rejected" => JobEventKind::Rejected,
            "scheduled" => JobEventKind::Scheduled,
            "started" => JobEventKind::Started,
            "requeued" => JobEventKind::Requeued,
            "resumed" => JobEventKind::Resumed,
            "finished" => JobEventKind::Finished,
            "failed" => JobEventKind::Failed,
            "cancelled" => JobEventKind::Cancelled,
            _ => return None,
        })
    }
}

/// Outcome of one restart-recovery reconciliation decision (see
/// [`TraceEvent::Restore`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreOutcome {
    /// Journaled terminal: the job finished in a prior incarnation and is
    /// not re-run (exactly-once accounting).
    Finished,
    /// Journaled terminal: permanently failed in a prior incarnation.
    Failed,
    /// Journaled terminal: cancelled in a prior incarnation.
    Cancelled,
    /// In-flight at the crash; re-queued and will resume from its last
    /// good snapshot.
    Resumed,
    /// In-flight at the crash with no usable snapshot; re-queued to
    /// restart from zero (retry budget intact).
    Restarted,
    /// A durable artifact (snapshot pair, unparseable journal entry) was
    /// corrupt and dropped.
    Discarded,
    /// The journal ended mid-record; the tail was truncated to the last
    /// good prefix.
    Truncated,
}

impl RestoreOutcome {
    pub fn as_str(&self) -> &'static str {
        match self {
            RestoreOutcome::Finished => "finished",
            RestoreOutcome::Failed => "failed",
            RestoreOutcome::Cancelled => "cancelled",
            RestoreOutcome::Resumed => "resumed",
            RestoreOutcome::Restarted => "restarted",
            RestoreOutcome::Discarded => "discarded",
            RestoreOutcome::Truncated => "truncated",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "finished" => RestoreOutcome::Finished,
            "failed" => RestoreOutcome::Failed,
            "cancelled" => RestoreOutcome::Cancelled,
            "resumed" => RestoreOutcome::Resumed,
            "restarted" => RestoreOutcome::Restarted,
            "discarded" => RestoreOutcome::Discarded,
            "truncated" => RestoreOutcome::Truncated,
            _ => return None,
        })
    }
}

/// One structured trace event. The JSONL encoding tags each record with a
/// `"type"` discriminant matching the variant names below (snake_case).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A kernel launch (or persistent execution) started.
    LaunchBegin {
        /// Monotonic per-`VirtualGpu` launch sequence number.
        launch: u64,
        blocks: u64,
        threads_per_block: u64,
        phases: u64,
    },
    /// One barrier-separated phase of one kernel iteration completed.
    /// `delta` is the grid-wide counter change attributable to this phase
    /// (summed over all workers); `wall_us` is the phase wall time as
    /// observed by worker 0, including the closing barrier wait.
    PhaseSpan {
        launch: u64,
        iteration: u64,
        phase: u64,
        wall_us: u64,
        delta: CountersSnapshot,
    },
    /// A launch finished; `totals` are the whole-launch counters.
    LaunchEnd {
        launch: u64,
        iterations: u64,
        wall_us: u64,
        totals: CountersSnapshot,
    },
    /// A `drive_recovering` decision (retry / regrow / rescue ladder /
    /// give-up). `iteration`/`attempt` locate it in the host loop;
    /// `capacity` is the regrow target (0 otherwise).
    Recovery {
        iteration: u64,
        attempt: u64,
        kind: RecoveryKind,
        capacity: u64,
        detail: String,
    },
    /// Allocator occupancy snapshot (`BumpAllocator`, the PTA chunk
    /// arena, …). `used` is the high-water mark at emission time.
    Alloc {
        name: String,
        used: u64,
        capacity: u64,
    },
    /// Worklist occupancy snapshot.
    Worklist {
        name: String,
        len: u64,
        capacity: u64,
    },
    /// Algorithm-level per-iteration marker: DMR bad triangles remaining,
    /// SP sweep delta, PTA dirty nodes, MST components remaining, the
    /// Fig. 2 parallelism series, …
    AlgoIteration {
        algo: String,
        iteration: u64,
        metric: String,
        value: f64,
    },
    /// A `morph-serve` job-lifecycle transition with job/tenant
    /// attribution. `t_us` is microseconds since the serving epoch (pool
    /// start), the clock every wait/run/turnaround aggregation is computed
    /// on. `queue_depth` is the admission-queue depth observed *after* the
    /// transition. `device` is the 1-based device slot for
    /// `Started`/`Finished`/`Failed`/`Cancelled`-while-running (0 = not on
    /// a device). `deadline_us` is the job's absolute deadline on the same
    /// epoch clock (0 = no deadline), carried on `Submitted` so reports
    /// can score SLO misses from the stream alone.
    Job {
        job: u64,
        tenant: String,
        kind: JobEventKind,
        queue_depth: u64,
        device: u64,
        t_us: u64,
        deadline_us: u64,
        detail: String,
    },
    /// A resume checkpoint was persisted: at an iteration boundary the
    /// driver snapshotted the job's minimal host-visible resume state into
    /// a `CheckpointStore`. `version` is the per-job monotone checkpoint
    /// counter, `iteration` the host-loop iteration the snapshot resumes
    /// *after*, and `bytes` the encoded payload size (the checkpoint
    /// overhead a summary reports). `t_us` is microseconds on the same
    /// serving-epoch clock as `Job` events (0 outside a serving context).
    Checkpoint {
        job: u64,
        algo: String,
        iteration: u64,
        version: u64,
        bytes: u64,
        t_us: u64,
    },
    /// A running job lost its device slot (device loss, hung-kernel
    /// watchdog) and was pulled off the device for rescheduling. `reason`
    /// is `"device_loss"` or `"hung"`. Always paired with a
    /// `Job`/`Requeued` transition so lifecycle accounting stays
    /// consistent.
    Eviction {
        job: u64,
        device: u64,
        reason: String,
        t_us: u64,
    },
    /// A device-slot health transition from the pool's circuit breaker.
    /// `state` is `"healthy"`, `"probation"` or `"quarantined"`;
    /// `failures` is the consecutive-eviction count that drove the
    /// transition.
    Health {
        device: u64,
        state: String,
        failures: u64,
        t_us: u64,
    },
    /// A morph-check sanitizer or end-state-oracle verdict. `check` names
    /// the checker (e.g. `"oracle.dmr.end_state"`, `"use_after_free"`),
    /// `status` is `"ok"` or `"violation"`, `index` locates the offending
    /// element when there is one (0 otherwise), and `detail` carries the
    /// attributed diagnostic for violations. Emitted only when the
    /// pipelines are built with `--features morph-check`; the schema is
    /// always present so reports can decode any stream.
    Sanitizer {
        check: String,
        status: String,
        index: u64,
        detail: String,
    },
    /// An in-process monitor (SLO burn rate, flight recorder, …) crossed a
    /// threshold. `monitor` names the evaluator (e.g. `"slo_burn_rate"`),
    /// `tenant` scopes it (empty = global), `severity` is `"page"` or
    /// `"warn"`, `value`/`threshold` are the observed and limit values in
    /// the monitor's own unit, and `t_us` is microseconds on the serving
    /// epoch clock (0 outside a serving context).
    Alert {
        monitor: String,
        tenant: String,
        severity: String,
        value: f64,
        threshold: f64,
        t_us: u64,
        detail: String,
    },
    /// One restart-recovery reconciliation decision (schema v4). On
    /// `--resume` the serve layer replays the durable job journal against
    /// the verified checkpoint store and emits one of these per journaled
    /// job, plus stream-level records (`job` 0) for journal-tail
    /// truncation and discarded artifacts. `version`/`iteration` locate
    /// the snapshot a `resumed` job continues from (0/0 otherwise);
    /// `t_us` is on the serving-epoch clock of the *new* incarnation.
    Restore {
        job: u64,
        outcome: RestoreOutcome,
        version: u64,
        iteration: u64,
        t_us: u64,
        detail: String,
    },
    /// One cell of the continuous phase profiler: modelled device cycles
    /// (and observed wall time) attributed to `algo;class;phase`, where
    /// `class` is the log2 iteration bucket (`"it0"`, `"it1"`, `"it2-3"`,
    /// …). `spans` counts the `PhaseSpan`s folded into the cell. The
    /// triple maps 1:1 onto a folded-stack frame, so a stream of these
    /// renders directly as a flamegraph.
    ProfileSample {
        algo: String,
        class: String,
        phase: u64,
        cycles: u64,
        wall_us: u64,
        spans: u64,
    },
    /// One autotuner actuation (schema v5): the `morph-tune` feedback
    /// controller changed the knobs for the next host-loop iteration.
    /// `iteration` is the completed iteration whose counters drove the
    /// decision; `tpb` is the threads-per-block chosen for the next one;
    /// `policy` is the conflict policy (`"three_phase"` or
    /// `"serial_pin"`); `compact`/`reorder` are the work-compaction and
    /// index-reordering requests; `detail` carries the triggering signal
    /// in human-readable form (e.g. `"occupancy 0.03 < 0.25"`).
    Tune {
        iteration: u64,
        tpb: u64,
        policy: String,
        compact: bool,
        reorder: bool,
        detail: String,
    },
    /// One attribution cell of the `morph-lens` profiler (schema v6):
    /// the metered global-memory traffic of one launch, bucketed per
    /// phase × per registered device structure. `region` is the name the
    /// pipeline registered for the address range (`"unattributed"` for
    /// traffic outside every registered range); `accesses` counts metered
    /// loads/stores/atomics, `transactions` the 32-byte segments they
    /// coalesced into, `atomic_ops` the atomic RMWs among them, and
    /// `atomic_serial` the extra serialization steps from same-address
    /// atomics within a warp. `hot_addr`/`hot_count` locate the worst
    /// single-warp atomic pile-up observed on the cell (0/0 if none).
    Lens {
        launch: u64,
        phase: u64,
        region: String,
        accesses: u64,
        transactions: u64,
        atomic_ops: u64,
        atomic_serial: u64,
        hot_addr: u64,
        hot_count: u64,
    },
}

impl TraceEvent {
    /// The `"type"` discriminant used in the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::LaunchBegin { .. } => "launch_begin",
            TraceEvent::PhaseSpan { .. } => "phase_span",
            TraceEvent::LaunchEnd { .. } => "launch_end",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::Alloc { .. } => "alloc",
            TraceEvent::Worklist { .. } => "worklist",
            TraceEvent::AlgoIteration { .. } => "algo_iteration",
            TraceEvent::Job { .. } => "job",
            TraceEvent::Checkpoint { .. } => "checkpoint",
            TraceEvent::Eviction { .. } => "eviction",
            TraceEvent::Health { .. } => "health",
            TraceEvent::Sanitizer { .. } => "sanitizer",
            TraceEvent::Alert { .. } => "alert",
            TraceEvent::Restore { .. } => "restore",
            TraceEvent::ProfileSample { .. } => "profile_sample",
            TraceEvent::Tune { .. } => "tune",
            TraceEvent::Lens { .. } => "lens",
        }
    }

    /// Decode an event from a parsed JSONL record. Returns `None` when the
    /// record is not a recognizable event (wrong/missing `type`, missing
    /// field) — callers decide whether that is an error.
    pub fn from_json(v: &JsonValue) -> Option<TraceEvent> {
        let ty = v.get("type")?.as_str()?;
        let u = |k: &str| v.get(k).and_then(JsonValue::as_u64);
        let s = |k: &str| v.get(k).and_then(JsonValue::as_str).map(str::to_string);
        Some(match ty {
            "launch_begin" => TraceEvent::LaunchBegin {
                launch: u("launch")?,
                blocks: u("blocks")?,
                threads_per_block: u("threads_per_block")?,
                phases: u("phases")?,
            },
            "phase_span" => TraceEvent::PhaseSpan {
                launch: u("launch")?,
                iteration: u("iteration")?,
                phase: u("phase")?,
                wall_us: u("wall_us")?,
                delta: counters_from_json(v.get("delta")?)?,
            },
            "launch_end" => TraceEvent::LaunchEnd {
                launch: u("launch")?,
                iterations: u("iterations")?,
                wall_us: u("wall_us")?,
                totals: counters_from_json(v.get("totals")?)?,
            },
            "recovery" => TraceEvent::Recovery {
                iteration: u("iteration")?,
                attempt: u("attempt")?,
                kind: RecoveryKind::parse(&s("kind")?)?,
                capacity: u("capacity")?,
                detail: s("detail")?,
            },
            "alloc" => TraceEvent::Alloc {
                name: s("name")?,
                used: u("used")?,
                capacity: u("capacity")?,
            },
            "worklist" => TraceEvent::Worklist {
                name: s("name")?,
                len: u("len")?,
                capacity: u("capacity")?,
            },
            "algo_iteration" => TraceEvent::AlgoIteration {
                algo: s("algo")?,
                iteration: u("iteration")?,
                metric: s("metric")?,
                value: v.get("value").and_then(JsonValue::as_f64)?,
            },
            "job" => TraceEvent::Job {
                job: u("job")?,
                tenant: s("tenant")?,
                kind: JobEventKind::parse(&s("kind")?)?,
                queue_depth: u("queue_depth")?,
                device: u("device")?,
                t_us: u("t_us")?,
                deadline_us: u("deadline_us")?,
                detail: s("detail")?,
            },
            "checkpoint" => TraceEvent::Checkpoint {
                job: u("job")?,
                algo: s("algo")?,
                iteration: u("iteration")?,
                version: u("version")?,
                bytes: u("bytes")?,
                t_us: u("t_us")?,
            },
            "eviction" => TraceEvent::Eviction {
                job: u("job")?,
                device: u("device")?,
                reason: s("reason")?,
                t_us: u("t_us")?,
            },
            "health" => TraceEvent::Health {
                device: u("device")?,
                state: s("state")?,
                failures: u("failures")?,
                t_us: u("t_us")?,
            },
            "sanitizer" => TraceEvent::Sanitizer {
                check: s("check")?,
                status: s("status")?,
                index: u("index")?,
                detail: s("detail")?,
            },
            "alert" => TraceEvent::Alert {
                monitor: s("monitor")?,
                tenant: s("tenant")?,
                severity: s("severity")?,
                value: v.get("value").and_then(JsonValue::as_f64)?,
                threshold: v.get("threshold").and_then(JsonValue::as_f64)?,
                t_us: u("t_us")?,
                detail: s("detail")?,
            },
            "restore" => TraceEvent::Restore {
                job: u("job")?,
                outcome: RestoreOutcome::parse(&s("outcome")?)?,
                version: u("version")?,
                iteration: u("iteration")?,
                t_us: u("t_us")?,
                detail: s("detail")?,
            },
            "profile_sample" => TraceEvent::ProfileSample {
                algo: s("algo")?,
                class: s("class")?,
                phase: u("phase")?,
                cycles: u("cycles")?,
                wall_us: u("wall_us")?,
                spans: u("spans")?,
            },
            "tune" => TraceEvent::Tune {
                iteration: u("iteration")?,
                tpb: u("tpb")?,
                policy: s("policy")?,
                compact: v.get("compact").and_then(JsonValue::as_bool)?,
                reorder: v.get("reorder").and_then(JsonValue::as_bool)?,
                detail: s("detail")?,
            },
            "lens" => TraceEvent::Lens {
                launch: u("launch")?,
                phase: u("phase")?,
                region: s("region")?,
                accesses: u("accesses")?,
                transactions: u("transactions")?,
                atomic_ops: u("atomic_ops")?,
                atomic_serial: u("atomic_serial")?,
                hot_addr: u("hot_addr")?,
                hot_count: u("hot_count")?,
            },
            _ => return None,
        })
    }
}

fn counters_from_json(v: &JsonValue) -> Option<CountersSnapshot> {
    let u = |k: &str| v.get(k).and_then(JsonValue::as_u64);
    Some(CountersSnapshot {
        active_threads: u("active_threads")?,
        idle_threads: u("idle_threads")?,
        warps: u("warps")?,
        divergent_warps: u("divergent_warps")?,
        atomics: u("atomics")?,
        aborts: u("aborts")?,
        commits: u("commits")?,
        barriers: u("barriers")?,
        // Cost-model fields arrived in a later schema revision; streams
        // recorded before it decode as zero rather than failing to parse.
        gmem_accesses: u("gmem_accesses").unwrap_or(0),
        gmem_transactions: u("gmem_transactions").unwrap_or(0),
        smem_accesses: u("smem_accesses").unwrap_or(0),
        smem_conflicts: u("smem_conflicts").unwrap_or(0),
        atomic_serial: u("atomic_serial").unwrap_or(0),
        active_warps: u("active_warps").unwrap_or(0),
    })
}

impl Serialize for TraceEvent {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            TraceEvent::LaunchBegin {
                launch,
                blocks,
                threads_per_block,
                phases,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 5)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("launch", launch)?;
                st.serialize_field("blocks", blocks)?;
                st.serialize_field("threads_per_block", threads_per_block)?;
                st.serialize_field("phases", phases)?;
                st.end()
            }
            TraceEvent::PhaseSpan {
                launch,
                iteration,
                phase,
                wall_us,
                delta,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 6)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("launch", launch)?;
                st.serialize_field("iteration", iteration)?;
                st.serialize_field("phase", phase)?;
                st.serialize_field("wall_us", wall_us)?;
                st.serialize_field("delta", delta)?;
                st.end()
            }
            TraceEvent::LaunchEnd {
                launch,
                iterations,
                wall_us,
                totals,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 5)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("launch", launch)?;
                st.serialize_field("iterations", iterations)?;
                st.serialize_field("wall_us", wall_us)?;
                st.serialize_field("totals", totals)?;
                st.end()
            }
            TraceEvent::Recovery {
                iteration,
                attempt,
                kind,
                capacity,
                detail,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 6)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("iteration", iteration)?;
                st.serialize_field("attempt", attempt)?;
                st.serialize_field("kind", kind.as_str())?;
                st.serialize_field("capacity", capacity)?;
                st.serialize_field("detail", detail)?;
                st.end()
            }
            TraceEvent::Alloc {
                name,
                used,
                capacity,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 4)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("name", name)?;
                st.serialize_field("used", used)?;
                st.serialize_field("capacity", capacity)?;
                st.end()
            }
            TraceEvent::Worklist {
                name,
                len,
                capacity,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 4)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("name", name)?;
                st.serialize_field("len", len)?;
                st.serialize_field("capacity", capacity)?;
                st.end()
            }
            TraceEvent::AlgoIteration {
                algo,
                iteration,
                metric,
                value,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 5)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("algo", algo)?;
                st.serialize_field("iteration", iteration)?;
                st.serialize_field("metric", metric)?;
                st.serialize_field("value", value)?;
                st.end()
            }
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
                let mut st = s.serialize_struct("TraceEvent", 9)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("job", job)?;
                st.serialize_field("tenant", tenant)?;
                st.serialize_field("kind", kind.as_str())?;
                st.serialize_field("queue_depth", queue_depth)?;
                st.serialize_field("device", device)?;
                st.serialize_field("t_us", t_us)?;
                st.serialize_field("deadline_us", deadline_us)?;
                st.serialize_field("detail", detail)?;
                st.end()
            }
            TraceEvent::Checkpoint {
                job,
                algo,
                iteration,
                version,
                bytes,
                t_us,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 7)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("job", job)?;
                st.serialize_field("algo", algo)?;
                st.serialize_field("iteration", iteration)?;
                st.serialize_field("version", version)?;
                st.serialize_field("bytes", bytes)?;
                st.serialize_field("t_us", t_us)?;
                st.end()
            }
            TraceEvent::Eviction {
                job,
                device,
                reason,
                t_us,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 5)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("job", job)?;
                st.serialize_field("device", device)?;
                st.serialize_field("reason", reason)?;
                st.serialize_field("t_us", t_us)?;
                st.end()
            }
            TraceEvent::Health {
                device,
                state,
                failures,
                t_us,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 5)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("device", device)?;
                st.serialize_field("state", state)?;
                st.serialize_field("failures", failures)?;
                st.serialize_field("t_us", t_us)?;
                st.end()
            }
            TraceEvent::Sanitizer {
                check,
                status,
                index,
                detail,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 5)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("check", check)?;
                st.serialize_field("status", status)?;
                st.serialize_field("index", index)?;
                st.serialize_field("detail", detail)?;
                st.end()
            }
            TraceEvent::Alert {
                monitor,
                tenant,
                severity,
                value,
                threshold,
                t_us,
                detail,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 8)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("monitor", monitor)?;
                st.serialize_field("tenant", tenant)?;
                st.serialize_field("severity", severity)?;
                st.serialize_field("value", value)?;
                st.serialize_field("threshold", threshold)?;
                st.serialize_field("t_us", t_us)?;
                st.serialize_field("detail", detail)?;
                st.end()
            }
            TraceEvent::Restore {
                job,
                outcome,
                version,
                iteration,
                t_us,
                detail,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 7)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("job", job)?;
                st.serialize_field("outcome", outcome.as_str())?;
                st.serialize_field("version", version)?;
                st.serialize_field("iteration", iteration)?;
                st.serialize_field("t_us", t_us)?;
                st.serialize_field("detail", detail)?;
                st.end()
            }
            TraceEvent::ProfileSample {
                algo,
                class,
                phase,
                cycles,
                wall_us,
                spans,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 7)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("algo", algo)?;
                st.serialize_field("class", class)?;
                st.serialize_field("phase", phase)?;
                st.serialize_field("cycles", cycles)?;
                st.serialize_field("wall_us", wall_us)?;
                st.serialize_field("spans", spans)?;
                st.end()
            }
            TraceEvent::Tune {
                iteration,
                tpb,
                policy,
                compact,
                reorder,
                detail,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 7)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("iteration", iteration)?;
                st.serialize_field("tpb", tpb)?;
                st.serialize_field("policy", policy)?;
                st.serialize_field("compact", compact)?;
                st.serialize_field("reorder", reorder)?;
                st.serialize_field("detail", detail)?;
                st.end()
            }
            TraceEvent::Lens {
                launch,
                phase,
                region,
                accesses,
                transactions,
                atomic_ops,
                atomic_serial,
                hot_addr,
                hot_count,
            } => {
                let mut st = s.serialize_struct("TraceEvent", 10)?;
                st.serialize_field("type", self.kind())?;
                st.serialize_field("launch", launch)?;
                st.serialize_field("phase", phase)?;
                st.serialize_field("region", region)?;
                st.serialize_field("accesses", accesses)?;
                st.serialize_field("transactions", transactions)?;
                st.serialize_field("atomic_ops", atomic_ops)?;
                st.serialize_field("atomic_serial", atomic_serial)?;
                st.serialize_field("hot_addr", hot_addr)?;
                st.serialize_field("hot_count", hot_count)?;
                st.end()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn roundtrip(ev: TraceEvent) {
        let line = json::to_json(&ev);
        let parsed = json::parse(&line).expect("event must serialize to valid JSON");
        let back = TraceEvent::from_json(&parsed).expect("event must decode");
        assert_eq!(back, ev, "json was: {line}");
    }

    #[test]
    fn every_variant_roundtrips() {
        roundtrip(TraceEvent::LaunchBegin {
            launch: 3,
            blocks: 8,
            threads_per_block: 128,
            phases: 4,
        });
        roundtrip(TraceEvent::PhaseSpan {
            launch: 3,
            iteration: 7,
            phase: 2,
            wall_us: 1234,
            delta: CountersSnapshot {
                active_threads: 10,
                idle_threads: 6,
                warps: 4,
                divergent_warps: 2,
                atomics: 99,
                aborts: 1,
                commits: 9,
                barriers: 4,
                gmem_accesses: 64,
                gmem_transactions: 16,
                smem_accesses: 32,
                smem_conflicts: 3,
                atomic_serial: 7,
                active_warps: 4,
            },
        });
        roundtrip(TraceEvent::LaunchEnd {
            launch: 3,
            iterations: 12,
            wall_us: 40_000,
            totals: CountersSnapshot::default(),
        });
        roundtrip(TraceEvent::Recovery {
            iteration: 4,
            attempt: 2,
            kind: RecoveryKind::Retry,
            capacity: 0,
            detail: "kernel panic on worker 1 (\"quoted\")".into(),
        });
        roundtrip(TraceEvent::Job {
            job: 17,
            tenant: "acme".into(),
            kind: JobEventKind::Started,
            queue_depth: 5,
            device: 2,
            t_us: 10_500,
            deadline_us: 0,
            detail: "dmr 2000 tris".into(),
        });
        roundtrip(TraceEvent::Alloc {
            name: "dmr.tri_pool".into(),
            used: 100,
            capacity: 4096,
        });
        roundtrip(TraceEvent::Worklist {
            name: "dmr.bad_queue".into(),
            len: 17,
            capacity: 64,
        });
        roundtrip(TraceEvent::AlgoIteration {
            algo: "dmr".into(),
            iteration: 5,
            metric: "bad_triangles".into(),
            value: 321.0,
        });
        roundtrip(TraceEvent::Sanitizer {
            check: "oracle.dmr.end_state".into(),
            status: "violation".into(),
            index: 42,
            detail: "triangle 42 references deleted slot 7".into(),
        });
        roundtrip(TraceEvent::Checkpoint {
            job: 17,
            algo: "dmr".into(),
            iteration: 9,
            version: 3,
            bytes: 4096,
            t_us: 12_345,
        });
        roundtrip(TraceEvent::Eviction {
            job: 17,
            device: 2,
            reason: "device_loss".into(),
            t_us: 12_400,
        });
        roundtrip(TraceEvent::Health {
            device: 2,
            state: "quarantined".into(),
            failures: 3,
            t_us: 12_500,
        });
        roundtrip(TraceEvent::Job {
            job: 17,
            tenant: "acme".into(),
            kind: JobEventKind::Resumed,
            queue_depth: 0,
            device: 3,
            t_us: 12_600,
            deadline_us: 0,
            detail: "v3@iter9".into(),
        });
        roundtrip(TraceEvent::Alert {
            monitor: "slo_burn_rate".into(),
            tenant: "acme".into(),
            severity: "page".into(),
            value: 14.5,
            threshold: 10.0,
            t_us: 13_000,
            detail: "fast=14.5x slow=11.0x over 500000us objective".into(),
        });
        roundtrip(TraceEvent::Restore {
            job: 17,
            outcome: RestoreOutcome::Resumed,
            version: 3,
            iteration: 9,
            t_us: 210,
            detail: "snapshot v3 after iteration 9".into(),
        });
        roundtrip(TraceEvent::Restore {
            job: 0,
            outcome: RestoreOutcome::Truncated,
            version: 0,
            iteration: 0,
            t_us: 190,
            detail: "journal tail truncated (17 bytes)".into(),
        });
        roundtrip(TraceEvent::ProfileSample {
            algo: "dmr".into(),
            class: "it2-3".into(),
            phase: 1,
            cycles: 123_456,
            wall_us: 900,
            spans: 2,
        });
        roundtrip(TraceEvent::Tune {
            iteration: 4,
            tpb: 128,
            policy: "serial_pin".into(),
            compact: true,
            reorder: false,
            detail: "cumulative abort ratio 0.88 > 0.50".into(),
        });
        roundtrip(TraceEvent::Lens {
            launch: 7,
            phase: 1,
            region: "pta.dirty_worklist".into(),
            accesses: 640,
            transactions: 81,
            atomic_ops: 96,
            atomic_serial: 31,
            hot_addr: 0x6000_0000_0000,
            hot_count: 9,
        });
    }

    #[test]
    fn resumed_is_not_terminal() {
        assert!(!JobEventKind::Resumed.is_terminal());
        assert_eq!(JobEventKind::parse("resumed"), Some(JobEventKind::Resumed));
    }

    #[test]
    fn snapshot_delta_and_add() {
        let a = CountersSnapshot {
            warps: 10,
            commits: 5,
            ..Default::default()
        };
        let b = CountersSnapshot {
            warps: 14,
            commits: 9,
            ..Default::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.warps, 4);
        assert_eq!(d.commits, 4);
        let mut acc = a;
        acc.add(&d);
        assert_eq!(acc, b);
    }

    #[test]
    fn old_streams_without_cost_model_fields_parse_as_zero() {
        // A PhaseSpan recorded before the cost-model schema revision:
        // only the original eight counter fields are present.
        let v = json::parse(
            r#"{"type":"phase_span","launch":1,"iteration":0,"phase":2,"wall_us":9,
                "delta":{"active_threads":8,"idle_threads":0,"warps":1,
                         "divergent_warps":0,"atomics":3,"aborts":0,
                         "commits":8,"barriers":1}}"#,
        )
        .unwrap();
        match TraceEvent::from_json(&v).expect("old schema still decodes") {
            TraceEvent::PhaseSpan { delta, .. } => {
                assert_eq!(delta.active_threads, 8);
                assert_eq!(delta.gmem_accesses, 0);
                assert_eq!(delta.gmem_transactions, 0);
                assert_eq!(delta.smem_conflicts, 0);
                assert_eq!(delta.atomic_serial, 0);
                assert_eq!(delta.active_warps, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn derived_ratios_guard_division() {
        let z = CountersSnapshot::default();
        assert_eq!(z.coalescing_factor(), 0.0);
        assert_eq!(z.occupancy(), 0.0);
        assert_eq!(z.divergence_ratio(), 0.0);
        let c = CountersSnapshot {
            warps: 10,
            divergent_warps: 5,
            active_warps: 8,
            gmem_accesses: 64,
            gmem_transactions: 8,
            ..Default::default()
        };
        assert_eq!(c.coalescing_factor(), 8.0);
        assert_eq!(c.occupancy(), 0.8);
        assert_eq!(c.divergence_ratio(), 0.5);
    }

    #[test]
    fn unknown_type_decodes_to_none() {
        let v = json::parse(r#"{"type":"mystery","x":1}"#).unwrap();
        assert!(TraceEvent::from_json(&v).is_none());
    }

    #[test]
    fn recovery_kind_string_roundtrip() {
        for k in [
            RecoveryKind::Retry,
            RecoveryKind::Regrow,
            RecoveryKind::Reshuffle,
            RecoveryKind::SerialPin,
            RecoveryKind::Cancelled,
            RecoveryKind::GiveUp,
        ] {
            assert_eq!(RecoveryKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(RecoveryKind::parse("nope"), None);
    }
}

