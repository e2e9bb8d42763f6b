//! The job model: what a tenant submits and what comes back.
//!
//! A [`JobSpec`] wraps one [`Workload`] (any of the four morph pipelines
//! plus its `morph-workloads` generator parameters) with the serving
//! metadata the scheduler needs — tenant, priority class, optional
//! deadline, retry budget — and an optional [`FaultPlan`] for chaos runs.
//! Running a job is pure with respect to the pool: [`Workload::run`]
//! builds its input from the seed, drives the pipeline's `try_*` entry
//! point (its host loop is `morph_core::run_morph`), and maps the
//! outcome into [`JobMetrics`]. Failure classification ([`classify`])
//! decides retryable vs. permanent, which the executor turns into
//! requeue-or-fail.

use morph_core::{CancelToken, DriveError, RecoveryOpts};
use morph_gpu_sim::FaultPlan;
use morph_sp::surveys::Surveys;
use morph_sp::FactorGraph;
use std::sync::Arc;
use std::time::Duration;

/// Monotone per-pool job identifier (also the trace attribution tag).
pub type JobId = u64;

/// Priority class; lower sorts first in the ready queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    High,
    #[default]
    Normal,
    Low,
}

impl Priority {
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// One runnable unit of work: a pipeline plus the generator parameters of
/// its input. Inputs are rebuilt from the seed on every attempt, so a
/// retry after a mid-flight fault starts from clean state — nothing
/// half-mutated leaks across attempts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Delaunay mesh refinement over a random mesh.
    Dmr { triangles: u32, seed: u64 },
    /// Survey propagation over a random k-SAT formula.
    Sp {
        vars: u32,
        clauses: u32,
        k: u32,
        max_sweeps: u32,
        seed: u64,
    },
    /// Andersen-style points-to over a synthetic constraint set.
    Pta {
        vars: u32,
        constraints: u32,
        seed: u64,
    },
    /// Boruvka MST over a random weighted graph.
    Mst { nodes: u32, edges: u32, seed: u64 },
}

impl Workload {
    /// Short pipeline name (trace detail, replay files, summaries).
    pub fn algo(&self) -> &'static str {
        match self {
            Workload::Dmr { .. } => "dmr",
            Workload::Sp { .. } => "sp",
            Workload::Pta { .. } => "pta",
            Workload::Mst { .. } => "mst",
        }
    }

    /// Replay-file encoding: `<algo> <args…>` (see `replay`).
    pub fn encode(&self) -> String {
        match self {
            Workload::Dmr { triangles, seed } => format!("dmr {triangles} {seed}"),
            Workload::Sp {
                vars,
                clauses,
                k,
                max_sweeps,
                seed,
            } => format!("sp {vars} {clauses} {k} {max_sweeps} {seed}"),
            Workload::Pta {
                vars,
                constraints,
                seed,
            } => format!("pta {vars} {constraints} {seed}"),
            Workload::Mst { nodes, edges, seed } => format!("mst {nodes} {edges} {seed}"),
        }
    }

    /// Inverse of [`Workload::encode`]: `fields[0]` is the algorithm,
    /// the rest its numeric arguments.
    pub fn parse(fields: &[&str]) -> Option<Workload> {
        fn num<T: std::str::FromStr>(s: &str) -> Option<T> {
            s.parse().ok()
        }
        match *fields.first()? {
            "dmr" if fields.len() == 3 => Some(Workload::Dmr {
                triangles: num(fields[1])?,
                seed: num(fields[2])?,
            }),
            "sp" if fields.len() == 6 => Some(Workload::Sp {
                vars: num(fields[1])?,
                clauses: num(fields[2])?,
                k: num(fields[3])?,
                max_sweeps: num(fields[4])?,
                seed: num(fields[5])?,
            }),
            "pta" if fields.len() == 4 => Some(Workload::Pta {
                vars: num(fields[1])?,
                constraints: num(fields[2])?,
                seed: num(fields[3])?,
            }),
            "mst" if fields.len() == 4 => Some(Workload::Mst {
                nodes: num(fields[1])?,
                edges: num(fields[2])?,
                seed: num(fields[3])?,
            }),
            _ => None,
        }
    }

    /// Build the input from the seed and drive the pipeline to completion
    /// on a fresh virtual device with `sms` SMs. The `recovery` options
    /// carry the per-job tracer, fault plan and cancellation token.
    pub fn run(&self, sms: usize, recovery: &RecoveryOpts) -> Result<JobMetrics, DriveError> {
        match *self {
            Workload::Dmr { triangles, seed } => {
                let mut mesh = morph_workloads::mesh::random_mesh::<f64>(triangles as usize, seed);
                let out = morph_dmr::gpu::try_refine_gpu(
                    &mut mesh,
                    morph_dmr::DmrOpts::default(),
                    sms,
                    recovery,
                )?;
                Ok(JobMetrics {
                    iterations: out.iterations as u64,
                    work_items: out.stats.refined as u64,
                    retries: out.retries as u64,
                })
            }
            Workload::Sp {
                vars,
                clauses,
                k,
                max_sweeps,
                seed,
            } => {
                let f = morph_workloads::ksat::random_ksat(
                    vars as usize,
                    clauses as usize,
                    k as usize,
                    seed,
                );
                let fg = FactorGraph::new(&f);
                let s = Surveys::init(&fg, seed);
                let (sweeps, _) =
                    morph_sp::gpu::try_propagate(&fg, &s, 1e-3, max_sweeps as usize, sms, recovery)?;
                Ok(JobMetrics {
                    iterations: sweeps as u64,
                    work_items: clauses as u64,
                    retries: 0,
                })
            }
            Workload::Pta {
                vars,
                constraints,
                seed,
            } => {
                let prob =
                    morph_workloads::pta::synthetic(vars as usize, constraints as usize, seed);
                let out = morph_pta::gpu::try_solve_with(
                    &prob,
                    morph_pta::gpu::PtaOpts::default(),
                    sms,
                    recovery,
                )?;
                Ok(JobMetrics {
                    iterations: out.iterations as u64,
                    work_items: constraints as u64,
                    retries: out.retries as u64,
                })
            }
            Workload::Mst { nodes, edges, seed } => {
                let g = morph_workloads::graphs::random_graph(nodes as usize, edges as usize, seed);
                let out = morph_mst::gpu::try_mst_with_stats(&g, sms, recovery)?;
                Ok(JobMetrics {
                    iterations: out.result.rounds as u64,
                    work_items: edges as u64,
                    retries: out.retries as u64,
                })
            }
        }
    }
}

/// What a finished job reports back (algorithm-level, pipeline-agnostic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobMetrics {
    /// Host do–while iterations (DMR/PTA), sweeps (SP) or rounds (MST).
    pub iterations: u64,
    /// Items processed: triangles refined, clauses, constraints, edges.
    pub work_items: u64,
    /// Launch retries absorbed by the recovering driver.
    pub retries: u64,
}

/// How many times the executor may *start* a job before a retryable
/// failure becomes permanent. `max_attempts == 1` means no retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 2 }
    }
}

/// Everything a tenant submits.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub tenant: String,
    pub priority: Priority,
    /// Relative deadline from submission; `None` = best-effort.
    pub deadline: Option<Duration>,
    pub retry: RetryPolicy,
    pub workload: Workload,
    /// Fault plan armed on the job's device for every attempt (the plan's
    /// launch counter lives in the `Arc`, so re-arming after a requeue
    /// resumes past already-fired faults instead of replaying them).
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl JobSpec {
    pub fn new(tenant: impl Into<String>, workload: Workload) -> Self {
        JobSpec {
            tenant: tenant.into(),
            priority: Priority::Normal,
            deadline: None,
            retry: RetryPolicy::default(),
            workload,
            fault_plan: None,
        }
    }

    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn with_retry(mut self, max_attempts: u32) -> Self {
        self.retry = RetryPolicy {
            max_attempts: max_attempts.max(1),
        };
        self
    }

    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// Where a job is in its lifecycle, as observed through
/// [`crate::MorphServe::status`] / [`crate::MorphServe::wait`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a device slot.
    Queued,
    /// Running on the 1-based device slot.
    Running { device: u64 },
    Finished {
        metrics: JobMetrics,
    },
    Failed {
        attempts: u32,
        error: String,
        /// `true` when the failure class was permanent (no retry would
        /// help); `false` when the retry budget ran out.
        permanent: bool,
    },
    Cancelled,
}

impl JobStatus {
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running { .. })
    }
}

/// Failure classes the executor maps [`DriveError`] into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// Worth another attempt on a clean device: transient launch faults
    /// (the give-up path of the retry ladder) and livelocks, whose outcome
    /// depends on scheduling order and often clears on a re-run.
    Retryable,
    /// Deterministic given the input: capacity growth exhausted. The same
    /// workload would regrow the same buffers again.
    Permanent,
    /// The job's cancel token was raised; not a failure at all.
    Cancelled,
}

/// Map a driver give-up error into a retry decision.
pub fn classify(err: &DriveError) -> FailureClass {
    match err {
        DriveError::Launch { .. } => FailureClass::Retryable,
        DriveError::Livelock { .. } => FailureClass::Retryable,
        DriveError::RegrowsExhausted { .. } => FailureClass::Permanent,
        DriveError::Cancelled { .. } => FailureClass::Cancelled,
    }
}

/// Internal: a job as the pool tracks it.
#[derive(Debug)]
pub(crate) struct Job {
    pub id: JobId,
    pub spec: JobSpec,
    /// FIFO tiebreaker within a priority class.
    pub seq: u64,
    /// Attempts started so far.
    pub attempts: u32,
    /// Cancellation handle shared with the device running the job.
    pub cancel: CancelToken,
    /// Absolute deadline in epoch-µs (0 = none), fixed at submission.
    pub deadline_us: u64,
    /// Evictions suffered so far (device loss, hung-job watchdog).
    /// Budgeted separately from `attempts` — an eviction is the slot's
    /// fault, not the job's.
    pub evictions: u32,
    /// Slot the job was last evicted from: the scheduler steers the
    /// resume to a different device whenever another one exists.
    pub avoid_device: Option<u64>,
    /// Earliest epoch-µs the scheduler may pick this job again (0 = now).
    /// Stamped on requeue with a jittered exponential backoff so a
    /// crash-looping job cannot hot-spin a slot.
    pub not_before_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_high_first() {
        assert!(Priority::High < Priority::Normal);
        assert!(Priority::Normal < Priority::Low);
    }

    #[test]
    fn priority_strings_roundtrip() {
        for p in [Priority::High, Priority::Normal, Priority::Low] {
            assert_eq!(Priority::parse(p.as_str()), Some(p));
        }
        assert_eq!(Priority::parse("urgent"), None);
    }

    #[test]
    fn workload_encode_parse_roundtrip() {
        let cases = [
            Workload::Dmr {
                triangles: 500,
                seed: 7,
            },
            Workload::Sp {
                vars: 100,
                clauses: 350,
                k: 3,
                max_sweeps: 40,
                seed: 11,
            },
            Workload::Pta {
                vars: 60,
                constraints: 150,
                seed: 3,
            },
            Workload::Mst {
                nodes: 200,
                edges: 600,
                seed: 9,
            },
        ];
        for w in cases {
            let enc = w.encode();
            let fields: Vec<&str> = enc.split_whitespace().collect();
            assert_eq!(Workload::parse(&fields), Some(w), "encoding was {enc:?}");
        }
    }

    #[test]
    fn malformed_workloads_do_not_parse() {
        assert_eq!(Workload::parse(&[]), None);
        assert_eq!(Workload::parse(&["dmr", "500"]), None); // missing seed
        assert_eq!(Workload::parse(&["sp", "a", "b", "c", "d", "e"]), None);
        assert_eq!(Workload::parse(&["mst", "10", "20", "30", "40"]), None);
    }

    #[test]
    fn classification_matches_error_semantics() {
        assert_eq!(
            classify(&DriveError::Livelock {
                iteration: 1,
                rescues: 2
            }),
            FailureClass::Retryable
        );
        assert_eq!(
            classify(&DriveError::RegrowsExhausted {
                iteration: 1,
                regrows: 3
            }),
            FailureClass::Permanent
        );
        assert_eq!(
            classify(&DriveError::Cancelled { iteration: 0 }),
            FailureClass::Cancelled
        );
    }

    #[test]
    fn every_workload_runs_to_completion() {
        let recovery = RecoveryOpts::default();
        let jobs = [
            Workload::Dmr {
                triangles: 60,
                seed: 1,
            },
            Workload::Sp {
                vars: 40,
                clauses: 120,
                k: 3,
                max_sweeps: 30,
                seed: 2,
            },
            Workload::Pta {
                vars: 30,
                constraints: 80,
                seed: 3,
            },
            Workload::Mst {
                nodes: 80,
                edges: 240,
                seed: 4,
            },
        ];
        for w in jobs {
            let m = w.run(2, &recovery).expect("small workloads must finish");
            assert!(m.iterations > 0, "{} reported zero iterations", w.algo());
        }
    }
}
