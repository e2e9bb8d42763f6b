//! The continuous phase profiler: modelled device cycles attributed per
//! `algo;iteration-class;phase`.
//!
//! The §7 waste argument is an *attribution* argument — which phase of
//! which pipeline burns the cycles — and the engine already meters the
//! raw material per phase (the cost-model `WarpTape`: warp executions,
//! 32-byte global-memory transactions, shared-memory bank conflicts,
//! same-address atomic serialization, barriers). This module folds those
//! per-phase counter deltas into a bounded profile keyed by
//! `(algo, iteration-class, phase)` and serializes it to the folded-stack
//! format standard flamegraph tooling consumes:
//!
//! ```text
//! dmr;it2-3;phase1 123456
//! ```
//!
//! Iterations are bucketed into log2 classes (`it0`, `it1`, `it2-3`,
//! `it4-7`, … capped at `it1024+`) so long-running pipelines keep the
//! profile bounded while the early-vs-late iteration shape — where morph
//! workloads shift from parallel to serial — stays visible.
//!
//! A live [`ProfilerScope`] armed on a `VirtualGpu` fills the profile
//! (cheap: one mutex-guarded map update per phase barrier, by worker 0
//! only).

use crate::event::CountersSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Log2 bucket label for an iteration index: `it0`, `it1`, `it2-3`,
/// `it4-7`, …, saturating at `it1024+`.
pub fn iteration_class(iteration: u64) -> String {
    if iteration >= 1024 {
        return "it1024+".into();
    }
    match iteration {
        0 => "it0".into(),
        1 => "it1".into(),
        n => {
            let lo = 1u64 << (63 - n.leading_zeros());
            format!("it{}-{}", lo, lo * 2 - 1)
        }
    }
}

/// Modelled device cycles for one phase's counter delta.
///
/// A deliberately simple linear model over the metered events — the same
/// spirit as the engine's cost model itself, which meters *counts* and
/// leaves latency to a model. Weights (in issue-slot cycles):
/// warp execution 1 (+1 re-issue when divergent), 32-byte global
/// transaction 8, shared-memory access 1 (+2 per bank conflict), atomic 2
/// (+4 per serialization step), barrier 16, abort 2. The warp term keeps
/// the profile non-empty even for launches recorded without the cost
/// model armed (where the memory counters are zero).
pub fn model_cycles(delta: &CountersSnapshot) -> u64 {
    delta.warps
        + delta.divergent_warps
        + 8 * delta.gmem_transactions
        + delta.smem_accesses
        + 2 * delta.smem_conflicts
        + 2 * delta.atomics
        + 4 * delta.atomic_serial
        + 16 * delta.barriers
        + 2 * delta.aborts
}

/// A bounded, thread-safe profile: `(algo, class, phase) → cycles`.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    cells: Mutex<BTreeMap<(String, String, u64), u64>>,
}

impl PhaseProfiler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one phase observation into the profile.
    pub fn record(&self, algo: &str, iteration: u64, phase: u64, delta: &CountersSnapshot) {
        let mut cells = self.cells.lock().unwrap();
        *cells
            .entry((algo.to_string(), iteration_class(iteration), phase))
            .or_default() += model_cycles(delta);
    }

    pub fn is_empty(&self) -> bool {
        self.cells.lock().unwrap().is_empty()
    }

    /// Render the profile as folded stacks — one
    /// `algo;class;phaseN <cycles>` line per cell, ready for
    /// `flamegraph.pl` / speedscope / inferno.
    pub fn to_folded(&self) -> String {
        let cells = self.cells.lock().unwrap();
        let mut out = String::new();
        for ((algo, class, phase), cycles) in cells.iter() {
            out.push_str(&format!("{algo};{class};phase{phase} {cycles}\n"));
        }
        out
    }
}

/// A cloneable handle arming the profiler for one pipeline run: carries
/// the algorithm label and the host-loop iteration the engine's phase
/// observations are attributed to (the engine knows only its launch, so
/// the pipeline runner sets the absolute iteration before each step).
#[derive(Debug, Clone)]
pub struct ProfilerScope {
    profiler: Arc<PhaseProfiler>,
    algo: String,
    host_iteration: Arc<AtomicU64>,
}

impl ProfilerScope {
    pub fn new(profiler: Arc<PhaseProfiler>, algo: &str) -> Self {
        ProfilerScope {
            profiler,
            algo: algo.to_string(),
            host_iteration: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The underlying shared profile.
    pub fn profiler(&self) -> &Arc<PhaseProfiler> {
        &self.profiler
    }

    pub fn algo(&self) -> &str {
        &self.algo
    }

    /// Set the absolute host-loop iteration the next launch belongs to
    /// (called by the pipeline runner before each step).
    pub fn set_host_iteration(&self, iteration: u64) {
        self.host_iteration.store(iteration, Ordering::Relaxed);
    }

    /// Fold one engine phase observation in, attributing it to the
    /// current host-loop iteration.
    pub fn record(&self, phase: u64, delta: &CountersSnapshot) {
        let iteration = self.host_iteration.load(Ordering::Relaxed);
        self.profiler.record(&self.algo, iteration, phase, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_classes_are_log2_buckets() {
        assert_eq!(iteration_class(0), "it0");
        assert_eq!(iteration_class(1), "it1");
        assert_eq!(iteration_class(2), "it2-3");
        assert_eq!(iteration_class(3), "it2-3");
        assert_eq!(iteration_class(4), "it4-7");
        assert_eq!(iteration_class(7), "it4-7");
        assert_eq!(iteration_class(8), "it8-15");
        assert_eq!(iteration_class(1023), "it512-1023");
        assert_eq!(iteration_class(1024), "it1024+");
        assert_eq!(iteration_class(u64::MAX), "it1024+");
    }

    #[test]
    fn model_cycles_nonzero_without_cost_model_counters() {
        // A delta from a launch recorded without the tape armed still
        // attributes cycles: otherwise the profile would be empty exactly
        // when it is cheapest to collect.
        let d = CountersSnapshot {
            warps: 10,
            barriers: 1,
            ..Default::default()
        };
        assert!(model_cycles(&d) > 0);
        assert_eq!(model_cycles(&CountersSnapshot::default()), 0);
    }

    #[test]
    fn record_and_folded_output_agree() {
        let p = PhaseProfiler::new();
        let d = CountersSnapshot {
            warps: 4,
            gmem_transactions: 2,
            ..Default::default()
        };
        p.record("dmr", 0, 1, &d);
        p.record("dmr", 0, 1, &d); // same cell accumulates
        p.record("dmr", 5, 2, &d); // different class+phase
        let folded = p.to_folded();
        let want_cycles = 2 * model_cycles(&d);
        assert!(folded.contains(&format!("dmr;it0;phase1 {want_cycles}")));
        assert!(folded.contains("dmr;it4-7;phase2"));
        assert_eq!(folded.lines().count(), 2);
    }

    #[test]
    fn scope_offsets_by_host_iteration() {
        let p = Arc::new(PhaseProfiler::new());
        let scope = ProfilerScope::new(Arc::clone(&p), "sp");
        let d = CountersSnapshot {
            warps: 1,
            ..Default::default()
        };
        scope.record(0, &d);
        scope.set_host_iteration(4);
        scope.record(0, &d); // lands in it4-7, not it0
        let folded = p.to_folded();
        assert!(folded.contains("sp;it0;phase0"));
        assert!(folded.contains("sp;it4-7;phase0"));
    }
}
