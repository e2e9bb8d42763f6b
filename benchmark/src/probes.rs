//! Micro-probes: each times one public function in isolation, so a traced
//! run can price a layer the pipelines only pay for in aggregate.

use crate::stats::median;
use morph_gpu_sim::kernel::{Kernel, ThreadCtx};
use morph_gpu_sim::{BarrierKind, GpuConfig, VirtualGpu};
use morph_serve::{Journal, JournalRecord};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// A kernel whose threads do nothing, over `phases` barrier-separated
/// phases: what remains is launch set-up, worker spawn/join and barriers.
struct Noop {
    phases: usize,
}

impl Kernel for Noop {
    fn phases(&self) -> usize {
        self.phases
    }

    fn run(&self, _phase: usize, _ctx: &mut ThreadCtx<'_>) -> bool {
        false
    }
}

const PROBE_LAUNCHES: usize = 200;
const PROBE_PHASES: usize = 65;

/// Median microseconds of one no-op launch on `sms` SMs.
fn noop_launch_us(sms: usize, barrier: BarrierKind, phases: usize, launches: usize) -> f64 {
    // The pipelines' own geometry class: one block per SM, one warp each.
    let gpu = VirtualGpu::new(GpuConfig {
        num_sms: sms,
        warp_size: 32,
        blocks: sms,
        threads_per_block: 32,
        barrier,
    });
    let kernel = Noop { phases };
    black_box(gpu.launch(&kernel));
    let times: Vec<f64> = (0..launches)
        .map(|_| {
            let t = Instant::now();
            black_box(gpu.launch(black_box(&kernel)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// `VirtualGpu::launch` with a no-op kernel: `sms = 2` spawns and joins a
/// worker set per launch, `sms = 1` takes the engine's inline path.
pub fn launch_empty_us(sms: usize) -> f64 {
    noop_launch_us(sms, BarrierKind::SenseReversing, 1, PROBE_LAUNCHES)
}

/// Microseconds one extra barrier-separated phase adds to a 2-SM launch.
pub fn barrier_phase_us(kind: BarrierKind) -> f64 {
    let one = noop_launch_us(2, kind, 1, PROBE_LAUNCHES / 4);
    let many = noop_launch_us(2, kind, PROBE_PHASES, PROBE_LAUNCHES / 4);
    ((many - one) / (PROBE_PHASES - 1) as f64).max(0.0)
}

pub struct JournalProbe {
    /// Mean microseconds of one non-terminal append, the journal's
    /// every-eighth-record fsync batching included.
    pub append_us: f64,
    /// Median microseconds of a forced `sync` after one append.
    pub sync_us: f64,
}

/// Probe a scratch journal of its own, never the serving pool's.
pub fn journal(dir: &Path) -> std::io::Result<JournalProbe> {
    let path = dir.join("probe.wal");
    let (journal, _) = Journal::open(&path, None)?;
    let record = |job| JournalRecord::Started {
        job,
        device: 1,
        attempt: 1,
    };
    const APPENDS: u64 = 256;
    let t = Instant::now();
    for job in 0..APPENDS {
        journal.append(&record(job));
    }
    let append_us = t.elapsed().as_secs_f64() * 1e6 / APPENDS as f64;
    let syncs: Vec<f64> = (0..32)
        .map(|job| {
            journal.append(&record(job));
            let t = Instant::now();
            journal.sync();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    if let Some(e) = journal.take_error() {
        return Err(std::io::Error::other(e));
    }
    drop(journal);
    std::fs::remove_file(&path)?;
    Ok(JournalProbe {
        append_us,
        sync_us: median(&syncs),
    })
}
