//! Performance counters.
//!
//! The paper evaluates its techniques by their effect on aborted work, warp
//! divergence, atomic traffic and barrier cost. The engine meters exactly
//! those quantities. Counters are accumulated per worker in cache-padded
//! plain `u64`s (no contention) and summed into a [`LaunchStats`] when the
//! launch finishes.

use morph_trace::CountersSnapshot;
use serde::ser::{SerializeStruct, Serializer};
use serde::Serialize;
use std::time::Duration;

/// Per-worker counter block. Written only by the owning worker during a
/// launch; padded to a cache line to avoid false sharing.
#[derive(Default, Debug, Clone)]
#[repr(align(128))]
pub struct WorkerCounters {
    /// Virtual threads that reported useful work (phase returned `true`).
    pub active_threads: u64,
    /// Virtual threads that ran a phase but had nothing to do.
    pub idle_threads: u64,
    /// Warp executions (one warp running one phase).
    pub warps: u64,
    /// Warp executions in which some lanes were active and some idle — the
    /// SIMT divergence the paper's compaction optimisation (§7.6) reduces.
    pub divergent_warps: u64,
    /// Atomic read-modify-write operations issued through [`crate::ThreadCtx`].
    pub atomics: u64,
    /// Speculative activities that detected a conflict and backed off
    /// (paper §7.3).
    pub aborts: u64,
    /// Speculative activities that won conflict resolution and committed.
    pub commits: u64,
    /// Global-barrier crossings by this worker.
    pub barriers: u64,
    /// Global-memory accesses metered by the hardware cost model (plain
    /// loads/stores through [`crate::ThreadCtx::global_load`]/
    /// [`crate::ThreadCtx::global_store`] plus counted atomics). Zero
    /// on a launch no observer meters
    /// ([`crate::engine::Observers::needs_tape`]).
    pub gmem_accesses: u64,
    /// 32-byte segment transactions those accesses coalesced into, per
    /// warp per phase. `gmem_accesses / gmem_transactions` is the
    /// coalescing factor.
    pub gmem_transactions: u64,
    /// Shared-memory ([`crate::BlockLocal`]) accesses metered by the
    /// cost model.
    pub smem_accesses: u64,
    /// Bank conflicts among those accesses: banks are word-interleaved,
    /// `warp_size` banks, one extra cycle per additional distinct word
    /// hitting the same bank within a warp.
    pub smem_conflicts: u64,
    /// Extra serialization steps forced by same-address atomics within a
    /// warp (`count − 1` per contended address).
    pub atomic_serial: u64,
    /// Warp executions with at least one active lane — the numerator of
    /// achieved occupancy. Counted unconditionally (it costs one add).
    pub active_warps: u64,
}

impl WorkerCounters {
    pub(crate) fn merge_into(&self, out: &mut LaunchStats) {
        out.add_counters(&self.snapshot());
    }

    /// Plain-data copy for trace events (see [`morph_trace::TraceEvent`]).
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            active_threads: self.active_threads,
            idle_threads: self.idle_threads,
            warps: self.warps,
            divergent_warps: self.divergent_warps,
            atomics: self.atomics,
            aborts: self.aborts,
            commits: self.commits,
            barriers: self.barriers,
            gmem_accesses: self.gmem_accesses,
            gmem_transactions: self.gmem_transactions,
            smem_accesses: self.smem_accesses,
            smem_conflicts: self.smem_conflicts,
            atomic_serial: self.atomic_serial,
            active_warps: self.active_warps,
        }
    }
}

impl Serialize for WorkerCounters {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut st = s.serialize_struct("WorkerCounters", 14)?;
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

impl std::fmt::Display for WorkerCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "warps {} ({} divergent), threads {}+{} active/idle, \
             {} atomics, {}/{} commits/aborts, {} barriers",
            self.warps,
            self.divergent_warps,
            self.active_threads,
            self.idle_threads,
            self.atomics,
            self.commits,
            self.aborts,
            self.barriers,
        )
    }
}

/// Aggregated statistics for one launch (or, via
/// [`absorb`](LaunchStats::absorb), a host loop of them).
#[derive(Default, Debug, Clone)]
pub struct LaunchStats {
    /// Kernel iterations executed: 1 per [`crate::VirtualGpu::launch`],
    /// summed by [`absorb`](Self::absorb).
    pub iterations: u64,
    /// Phases executed in total (`iterations × kernel.phases()`).
    pub phases: u64,
    pub active_threads: u64,
    pub idle_threads: u64,
    pub warps: u64,
    pub divergent_warps: u64,
    pub atomics: u64,
    pub aborts: u64,
    pub commits: u64,
    pub barriers: u64,
    /// Cost-model counters (see [`WorkerCounters`] for semantics). Zero
    /// unless an attached observer metered the launch, except
    /// `active_warps`, which is always counted.
    pub gmem_accesses: u64,
    pub gmem_transactions: u64,
    pub smem_accesses: u64,
    pub smem_conflicts: u64,
    pub atomic_serial: u64,
    pub active_warps: u64,
    /// Atomic RMW traffic issued by the global barrier itself (0 for the
    /// sense-reversing design).
    pub barrier_rmws: u64,
    /// Grid geometry this launch actually ran with — lets callers verify
    /// what the adaptive-parallelism controller (§7.4) applied. Under
    /// [`LaunchStats::absorb`] these hold the *latest* launch's geometry,
    /// not a sum.
    pub blocks: usize,
    pub threads_per_block: usize,
    /// Wall-clock time of the whole execution.
    pub wall: Duration,
    /// The share of [`wall`](Self::wall) attributable to *recovery*:
    /// launch attempts beyond the first of an iteration (failed attempts
    /// plus the successful re-run). Filled in by the host loop of
    /// `morph_core::run_morph`; a single clean launch
    /// always reports zero. Summed by [`absorb`](Self::absorb), so
    /// `retry_wall / wall` is the recovery-overhead fraction of a run.
    pub retry_wall: Duration,
}

impl LaunchStats {
    /// Fraction of warp executions that diverged. `0.0` if no warps ran.
    pub fn divergence_ratio(&self) -> f64 {
        if self.warps == 0 {
            0.0
        } else {
            self.divergent_warps as f64 / self.warps as f64
        }
    }

    /// Fraction of speculative activities that aborted. `0.0` if none ran.
    pub fn abort_ratio(&self) -> f64 {
        let total = self.aborts + self.commits;
        if total == 0 {
            0.0
        } else {
            self.aborts as f64 / total as f64
        }
    }

    /// Fraction of thread executions that did useful work.
    pub fn work_efficiency(&self) -> f64 {
        let total = self.active_threads + self.idle_threads;
        if total == 0 {
            0.0
        } else {
            self.active_threads as f64 / total as f64
        }
    }

    /// Metered global accesses per 32-byte transaction. 1.0 means every
    /// access paid its own transaction (fully scattered); higher is
    /// better coalesced. `0.0` when the cost model was not armed.
    pub fn coalescing_factor(&self) -> f64 {
        if self.gmem_transactions == 0 {
            0.0
        } else {
            self.gmem_accesses as f64 / self.gmem_transactions as f64
        }
    }

    /// Achieved occupancy: warp executions with at least one active lane
    /// over all warp executions. `0.0` if no warps ran.
    pub fn occupancy(&self) -> f64 {
        if self.warps == 0 {
            0.0
        } else {
            self.active_warps as f64 / self.warps as f64
        }
    }

    /// Accumulate another launch's statistics (e.g. across the host-side
    /// do–while loop of the paper's Fig. 3).
    ///
    /// All counter and time fields **sum**, with one deliberate exception:
    /// `blocks` and `threads_per_block` are **last-launch-wins**. Geometry
    /// is a configuration, not a quantity — under the adaptive-parallelism
    /// schedule (§7.4) every launch may run with a different
    /// threads-per-block, and summing configurations would produce a
    /// number that describes no launch at all. Callers that need the full
    /// geometry history should trace it (see `morph-trace`'s
    /// `LaunchBegin` events) rather than read it off the aggregate.
    pub fn absorb(&mut self, other: &LaunchStats) {
        self.iterations += other.iterations;
        self.phases += other.phases;
        self.add_counters(&other.snapshot());
        self.barrier_rmws += other.barrier_rmws;
        // Geometry is a configuration, not a quantity: keep the most
        // recent launch's values so callers see what last ran.
        self.blocks = other.blocks;
        self.threads_per_block = other.threads_per_block;
        self.wall += other.wall;
        self.retry_wall += other.retry_wall;
    }

    /// Add one counter block: a worker's at launch end, another launch's
    /// under [`absorb`](Self::absorb).
    fn add_counters(&mut self, c: &CountersSnapshot) {
        self.active_threads += c.active_threads;
        self.idle_threads += c.idle_threads;
        self.warps += c.warps;
        self.divergent_warps += c.divergent_warps;
        self.atomics += c.atomics;
        self.aborts += c.aborts;
        self.commits += c.commits;
        self.barriers += c.barriers;
        self.gmem_accesses += c.gmem_accesses;
        self.gmem_transactions += c.gmem_transactions;
        self.smem_accesses += c.smem_accesses;
        self.smem_conflicts += c.smem_conflicts;
        self.atomic_serial += c.atomic_serial;
        self.active_warps += c.active_warps;
    }

    /// Plain-data copy of the counter fields for trace events.
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            active_threads: self.active_threads,
            idle_threads: self.idle_threads,
            warps: self.warps,
            divergent_warps: self.divergent_warps,
            atomics: self.atomics,
            aborts: self.aborts,
            commits: self.commits,
            barriers: self.barriers,
            gmem_accesses: self.gmem_accesses,
            gmem_transactions: self.gmem_transactions,
            smem_accesses: self.smem_accesses,
            smem_conflicts: self.smem_conflicts,
            atomic_serial: self.atomic_serial,
            active_warps: self.active_warps,
        }
    }
}

/// One-line ratio summary for quick logging:
/// `divergence`/`abort`/`efficiency` plus the headline counters.
impl std::fmt::Display for LaunchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} iters, {}×{} grid, {:.1?} wall ({:.1?} retry): \
             divergence {:.1}%, aborts {:.1}%, efficiency {:.1}%, \
             {} atomics, {} barriers",
            self.iterations,
            self.blocks,
            self.threads_per_block,
            self.wall,
            self.retry_wall,
            100.0 * self.divergence_ratio(),
            100.0 * self.abort_ratio(),
            100.0 * self.work_efficiency(),
            self.atomics,
            self.barriers,
        )
    }
}

impl Serialize for LaunchStats {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut st = s.serialize_struct("LaunchStats", 26)?;
        st.serialize_field("iterations", &self.iterations)?;
        st.serialize_field("phases", &self.phases)?;
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
        st.serialize_field("barrier_rmws", &self.barrier_rmws)?;
        st.serialize_field("blocks", &self.blocks)?;
        st.serialize_field("threads_per_block", &self.threads_per_block)?;
        st.serialize_field("wall_us", &(self.wall.as_micros() as u64))?;
        st.serialize_field("retry_wall_us", &(self.retry_wall.as_micros() as u64))?;
        st.serialize_field("divergence_ratio", &self.divergence_ratio())?;
        st.serialize_field("abort_ratio", &self.abort_ratio())?;
        st.serialize_field("work_efficiency", &self.work_efficiency())?;
        st.serialize_field("coalescing_factor", &self.coalescing_factor())?;
        st.serialize_field("occupancy", &self.occupancy())?;
        st.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty() {
        let s = LaunchStats::default();
        assert_eq!(s.divergence_ratio(), 0.0);
        assert_eq!(s.abort_ratio(), 0.0);
        assert_eq!(s.work_efficiency(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = LaunchStats {
            warps: 10,
            divergent_warps: 5,
            aborts: 1,
            commits: 3,
            active_threads: 8,
            idle_threads: 2,
            ..Default::default()
        };
        assert!((s.divergence_ratio() - 0.5).abs() < 1e-12);
        assert!((s.abort_ratio() - 0.25).abs() < 1e-12);
        assert!((s.work_efficiency() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums_everything() {
        let mut a = LaunchStats {
            iterations: 1,
            atomics: 5,
            wall: Duration::from_millis(2),
            ..Default::default()
        };
        let b = LaunchStats {
            iterations: 2,
            atomics: 7,
            wall: Duration::from_millis(3),
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.iterations, 3);
        assert_eq!(a.atomics, 12);
        assert_eq!(a.wall, Duration::from_millis(5));
    }

    #[test]
    fn absorb_geometry_is_last_launch_wins() {
        // Satellite: geometry fields are configuration, not quantities.
        // `absorb` must overwrite them with the newest launch's values
        // while summing every true counter alongside.
        let mut a = LaunchStats {
            blocks: 8,
            threads_per_block: 256,
            warps: 100,
            retry_wall: Duration::from_millis(1),
            ..Default::default()
        };
        let b = LaunchStats {
            blocks: 2,
            threads_per_block: 64,
            warps: 50,
            retry_wall: Duration::from_millis(4),
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.blocks, 2, "blocks must reflect the latest launch");
        assert_eq!(a.threads_per_block, 64, "tpb must reflect the latest launch");
        assert_eq!(a.warps, 150, "counters still sum");
        assert_eq!(a.retry_wall, Duration::from_millis(5), "retry time sums");
    }

    #[test]
    fn display_and_serialize_summaries() {
        let s = LaunchStats {
            iterations: 3,
            blocks: 4,
            threads_per_block: 32,
            warps: 10,
            divergent_warps: 5,
            aborts: 1,
            commits: 3,
            active_threads: 8,
            idle_threads: 2,
            wall: Duration::from_millis(7),
            ..Default::default()
        };
        let line = s.to_string();
        assert!(line.contains("divergence 50.0%"), "{line}");
        assert!(line.contains("aborts 25.0%"), "{line}");
        assert!(line.contains("efficiency 80.0%"), "{line}");

        let js = morph_trace::json::to_json(&s);
        let v = morph_trace::json::parse(&js).unwrap();
        assert_eq!(v.get("iterations").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(v.get("wall_us").and_then(|x| x.as_u64()), Some(7000));
        assert_eq!(v.get("retry_wall_us").and_then(|x| x.as_u64()), Some(0));
        assert_eq!(v.get("divergence_ratio").and_then(|x| x.as_f64()), Some(0.5));

        let wc = WorkerCounters {
            warps: 2,
            atomics: 9,
            ..Default::default()
        };
        assert!(wc.to_string().contains("9 atomics"));
        let wjs = morph_trace::json::to_json(&wc);
        let wv = morph_trace::json::parse(&wjs).unwrap();
        assert_eq!(wv.get("atomics").and_then(|x| x.as_u64()), Some(9));
    }

    #[test]
    fn worker_counters_merge() {
        let w = WorkerCounters {
            active_threads: 3,
            idle_threads: 1,
            warps: 2,
            divergent_warps: 1,
            atomics: 9,
            aborts: 4,
            commits: 5,
            barriers: 6,
            gmem_accesses: 32,
            gmem_transactions: 8,
            smem_accesses: 16,
            smem_conflicts: 2,
            atomic_serial: 3,
            active_warps: 2,
        };
        let mut s = LaunchStats::default();
        w.merge_into(&mut s);
        w.merge_into(&mut s);
        assert_eq!(s.active_threads, 6);
        assert_eq!(s.atomics, 18);
        assert_eq!(s.barriers, 12);
        assert_eq!(s.gmem_accesses, 64);
        assert_eq!(s.gmem_transactions, 16);
        assert_eq!(s.smem_accesses, 32);
        assert_eq!(s.smem_conflicts, 4);
        assert_eq!(s.atomic_serial, 6);
        assert_eq!(s.active_warps, 4);
    }

    #[test]
    fn cost_model_ratios() {
        let s = LaunchStats {
            warps: 10,
            active_warps: 9,
            gmem_accesses: 128,
            gmem_transactions: 16,
            ..Default::default()
        };
        assert!((s.coalescing_factor() - 8.0).abs() < 1e-12);
        assert!((s.occupancy() - 0.9).abs() < 1e-12);
        // Unarmed cost model: the derived ratios stay defined.
        let z = LaunchStats::default();
        assert_eq!(z.coalescing_factor(), 0.0);
        assert_eq!(z.occupancy(), 0.0);
        // The derived fields reach the JSON summary.
        let js = morph_trace::json::to_json(&s);
        let v = morph_trace::json::parse(&js).unwrap();
        assert_eq!(v.get("coalescing_factor").and_then(|x| x.as_f64()), Some(8.0));
        assert_eq!(v.get("occupancy").and_then(|x| x.as_f64()), Some(0.9));
        assert_eq!(v.get("gmem_transactions").and_then(|x| x.as_u64()), Some(16));
    }
}
