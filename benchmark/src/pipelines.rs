//! The five pipeline workloads: `dmr-refine`, `sp-solve`, `pta-solve`,
//! `mst-contract` and `sp-observed`, each driven through the pipeline's
//! public entry point and verified on every sample.
//!
//! A run draws `K` inputs from `--seed` and cycles through them, one
//! sample per input, so the reported medians describe the input
//! *distribution* rather than the luck of one instance: on every pipeline
//! here the time of one call varies more between inputs of one size than
//! between repeats of one input.

use crate::report::{Metrics, Outcome};
use crate::spans::{self, Recorder};
use crate::stats::{mean, median, quartiles, ratio, tail};
use crate::{probes, spec, Ctx};
use morph_core::runtime::RecoveryOpts;
use morph_gpu_sim::{BarrierKind, LaunchStats, LensHub};
use morph_metrics::{MetricsHub, MetricsRegistry};
use morph_sp::{Formula, SolveOutcome, SpParams};
use morph_trace::{JsonlSink, RingSink, TraceSink, Tracer};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Virtual SMs of every pipeline call: one worker thread per sandbox core,
/// so the engine's spin-then-yield barrier never waits on a descheduled
/// sibling.
pub const SMS: usize = 2;

/// Full set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The input seed of slot `index` under run seed `seed` (splitmix64, so
/// neighbouring run seeds share no inputs).
pub fn input_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which of the repo's observers ride on a sample's `RecoveryOpts`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Detached,
    /// Tracer (JSONL file) + metrics hub + lens: everything a fully
    /// observed production run arms.
    Armed,
    TracerOnly,
    MetricsOnly,
    LensOnly,
    /// Metrics hub + lens, no tracer: arms the engine's cost model so the
    /// returned `LaunchStats` carry the simulated statistics.
    Metered,
}

/// The observers of one sample, kept so their output can be measured.
struct Observers {
    recovery: RecoveryOpts,
    jsonl: Option<(Arc<JsonlSink<std::io::BufWriter<std::fs::File>>>, PathBuf)>,
    registry: Option<Arc<MetricsRegistry>>,
}

impl Observers {
    fn new(mode: Mode, scratch: &Path) -> Self {
        let mut recovery = RecoveryOpts::default();
        let mut jsonl = None;
        let mut registry = None;
        if matches!(mode, Mode::Armed | Mode::TracerOnly) {
            let path = scratch.join("observed-trace.jsonl");
            let sink = Arc::new(JsonlSink::create(&path).expect("scratch directory is writable"));
            recovery.tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
            jsonl = Some((sink, path));
        }
        if matches!(mode, Mode::Armed | Mode::MetricsOnly | Mode::Metered) {
            let reg = Arc::new(MetricsRegistry::new());
            recovery.metrics = MetricsHub::new(Arc::clone(&reg));
            registry = Some(reg);
        }
        if matches!(mode, Mode::Armed | Mode::LensOnly | Mode::Metered) {
            recovery.lens = LensHub::enabled();
        }
        Observers {
            recovery,
            jsonl,
            registry,
        }
    }
}

/// What one sample hands back to the runner.
pub struct Sample {
    pub ok: bool,
    /// Seconds of the pipeline call alone.
    pub call_s: f64,
    /// Seconds of the whole sample: build → call → verify.
    pub total_s: f64,
    /// Launch statistics summed over the call.
    pub launch: LaunchStats,
    /// Seconds of the call spent outside the recovering driver (SP's host
    /// loop: decimation, compaction, WalkSAT); 0 elsewhere.
    pub outer_host_s: f64,
    /// Layer counters, by metric name.
    pub counters: Vec<(&'static str, f64)>,
    /// Counters that must repeat bit-for-bit on every visit of one input.
    pub gated: Vec<u64>,
}

pub trait Pipeline {
    type Input;
    const WORKLOAD: &'static str;
    /// The metric of the `<layer>.call` span: `<layer>.call_s`.
    const CALL_METRIC: &'static str;
    /// Inputs drawn per run.
    const INPUTS: usize;
    /// Covered by the determinism gate.
    const GATED: bool;
    /// The window alternates detached and observer-armed samples, and the
    /// armed ones are the headline.
    const OBSERVED: bool = false;

    /// Build input `seed` and whatever reference its oracle needs.
    fn build(seed: u64) -> Self::Input;

    /// One verified sample. `parts` times the three steps as children of
    /// the sample's root span.
    fn sample(input: &Self::Input, recovery: &RecoveryOpts, parts: &mut Parts<'_>) -> Sample;

    /// Layer probes that need an input; traced runs only.
    fn probe(_input: &Self::Input, _m: &mut Metrics) {}
}

/// Times the steps of one sample as children of its root span.
pub struct Parts<'a> {
    rec: &'a Recorder,
    trace: u64,
    call_s: f64,
}

impl Parts<'_> {
    pub fn build<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.rec
            .child("workloads.build", self.trace, self.trace, f)
            .0
    }

    pub fn call<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> T {
        let (v, s) = self.rec.child(span, self.trace, self.trace, f);
        self.call_s += s;
        v
    }

    pub fn verify(&mut self, f: impl FnOnce() -> bool) -> bool {
        self.rec.child("check.verify", self.trace, self.trace, f).0
    }
}

fn run_sample<P: Pipeline>(input: &P::Input, recovery: &RecoveryOpts, rec: &Recorder) -> Sample {
    let root = rec.id();
    let mut parts = Parts {
        rec,
        trace: root,
        call_s: 0.0,
    };
    let start = Instant::now();
    let mut sample = P::sample(input, recovery, &mut parts);
    let end = Instant::now();
    rec.record(root, spans::SAMPLE, root, None, start, end);
    sample.call_s = parts.call_s;
    sample.total_s = (end - start).as_secs_f64();
    sample
}

fn empty_sample(ok: bool, launch: LaunchStats) -> Sample {
    Sample {
        ok,
        call_s: 0.0,
        total_s: 0.0,
        launch,
        outer_host_s: 0.0,
        counters: Vec::new(),
        gated: Vec::new(),
    }
}

// ---- dmr-refine --------------------------------------------------------

pub struct Dmr;

/// Triangles of each input mesh.
const DMR_TRIANGLES: usize = 10_000;

impl Pipeline for Dmr {
    /// Refinement consumes its mesh, so the input is the mesh's seed and
    /// every sample builds afresh inside its `workloads.build` span.
    type Input = u64;
    const WORKLOAD: &'static str = spec::DMR_REFINE;
    const CALL_METRIC: &'static str = "dmr.call_s";
    const INPUTS: usize = 32;
    const GATED: bool = false;

    fn build(seed: u64) -> u64 {
        seed
    }

    fn sample(seed: &u64, recovery: &RecoveryOpts, parts: &mut Parts<'_>) -> Sample {
        let mut mesh =
            parts.build(|| morph_workloads::mesh::random_mesh::<f64>(DMR_TRIANGLES, *seed));
        let out = parts.call("dmr.call", || {
            morph_dmr::gpu::try_refine_gpu(&mut mesh, morph_dmr::DmrOpts::default(), SMS, recovery)
        });
        let Ok(out) = out else {
            return empty_sample(false, LaunchStats::default());
        };
        let ok = parts.verify(|| mesh.stats().bad == 0 && mesh.validate(true).is_ok());
        Sample {
            counters: vec![
                ("dmr.iterations", out.iterations as f64),
                ("dmr.refined", out.stats.refined as f64),
                ("dmr.regrows", f64::from(out.regrows)),
                ("dmr.peak_tri_capacity", out.peak_tri_capacity as f64),
                ("core.retries", f64::from(out.retries)),
                ("core.rescues", out.rescues as f64),
            ],
            ..empty_sample(ok, out.launch)
        }
    }
}

// ---- sp-solve / sp-observed --------------------------------------------

/// Planted 3-SAT at clause ratio 7: satisfiable by construction, so every
/// solve ends in an assignment the oracle can evaluate, and decimation
/// fixes ~90 % of the variables over ~65 rounds of 1–2 sub-millisecond
/// launches each. (At the paper's hard ratio 4.2 and these sizes most
/// solves end in a 6 M-flip WalkSAT give-up whose cost swamps the engine.)
const SP_CLAUSE_RATIO: f64 = 7.0;

fn sp_input(vars: usize, seed: u64) -> Formula {
    let clauses = (vars as f64 * SP_CLAUSE_RATIO) as usize;
    morph_workloads::ksat::planted_instance(vars, clauses, 3, seed).0
}

/// `FactorGraph::new` alone; `run_solver` pays it inside every call.
fn sp_probe(f: &Formula, m: &mut Metrics) {
    let t = Instant::now();
    std::hint::black_box(morph_sp::FactorGraph::new(std::hint::black_box(f)));
    m.insert("sp.factor_graph_build_s", t.elapsed().as_secs_f64());
}

fn sp_sample(f: &Formula, recovery: &RecoveryOpts, parts: &mut Parts<'_>) -> Sample {
    let params = SpParams::default();
    let mut launch = LaunchStats::default();
    let mut driver_s = 0.0;
    let mut drive_failed = false;
    let (outcome, stats) = parts.call("sp.call", || {
        let solved = morph_sp::solver::run_solver(f, &params, |fg, s| {
            let t = Instant::now();
            let sweeps = match morph_sp::gpu::try_propagate(
                fg,
                s,
                params.eps,
                params.max_sweeps,
                SMS,
                recovery,
            ) {
                Ok((sweeps, stats)) => {
                    launch.absorb(&stats);
                    sweeps
                }
                Err(_) => {
                    drive_failed = true;
                    0
                }
            };
            driver_s += t.elapsed().as_secs_f64();
            sweeps
        });
        // An observed caller pays for its buffered events reaching the file.
        recovery.tracer.flush();
        solved
    });
    let (sat, ok) = match &outcome {
        SolveOutcome::Sat(a) => (1.0, parts.verify(|| f.eval(a))),
        SolveOutcome::GaveUp => (0.0, true),
        SolveOutcome::Unsat => (0.0, false),
    };
    let lane_steps = launch.active_threads + launch.idle_threads;
    let mut gated = vec![
        stats.sweeps as u64,
        launch.iterations,
        lane_steps,
        launch.warps,
    ];
    if launch.gmem_transactions > 0 {
        gated.push(morph_trace::model_cycles(&launch.snapshot()));
    }
    let outer_host_s = (parts.call_s - driver_s).max(0.0);
    Sample {
        outer_host_s,
        counters: vec![
            ("sp.host_s", outer_host_s),
            ("sp.rounds", stats.rounds as f64),
            ("sp.sweeps", stats.sweeps as f64),
            ("sp.fixed_by_sp", stats.fixed_by_sp as f64),
            ("sp.compactions", stats.compactions as f64),
            ("sp.sat", sat),
        ],
        gated,
        ..empty_sample(ok && !drive_failed, launch)
    }
}

pub struct SpSolve;

impl Pipeline for SpSolve {
    type Input = Formula;
    const WORKLOAD: &'static str = spec::SP_SOLVE;
    const CALL_METRIC: &'static str = "sp.call_s";
    const INPUTS: usize = 64;
    const GATED: bool = true;

    fn build(seed: u64) -> Formula {
        sp_input(2000, seed)
    }

    fn sample(f: &Formula, recovery: &RecoveryOpts, parts: &mut Parts<'_>) -> Sample {
        sp_sample(f, recovery, parts)
    }

    fn probe(f: &Formula, m: &mut Metrics) {
        sp_probe(f, m);
    }
}

pub struct SpObserved;

impl Pipeline for SpObserved {
    type Input = Formula;
    const WORKLOAD: &'static str = spec::SP_OBSERVED;
    const CALL_METRIC: &'static str = "sp.call_s";
    /// Fewer, smaller inputs than `sp-solve`: an armed solve costs several
    /// detached ones, and a traced run visits each input in five modes.
    const INPUTS: usize = 16;
    const GATED: bool = true;
    const OBSERVED: bool = true;

    fn build(seed: u64) -> Formula {
        sp_input(1000, seed)
    }

    fn sample(f: &Formula, recovery: &RecoveryOpts, parts: &mut Parts<'_>) -> Sample {
        sp_sample(f, recovery, parts)
    }

    fn probe(f: &Formula, m: &mut Metrics) {
        sp_probe(f, m);
    }
}

// ---- pta-solve ---------------------------------------------------------

pub struct Pta;

pub struct PtaInput {
    problem: morph_pta::PtaProblem,
    reference: morph_pta::Solution,
}

impl Pipeline for Pta {
    type Input = PtaInput;
    const WORKLOAD: &'static str = spec::PTA_SOLVE;
    const CALL_METRIC: &'static str = "pta.call_s";
    const INPUTS: usize = 48;
    const GATED: bool = false;

    fn build(seed: u64) -> PtaInput {
        let problem = morph_workloads::pta::synthetic(1500, 1750, seed);
        let reference = morph_pta::serial::solve(&problem);
        PtaInput { problem, reference }
    }

    fn sample(input: &PtaInput, recovery: &RecoveryOpts, parts: &mut Parts<'_>) -> Sample {
        let out = parts.call("pta.call", || {
            morph_pta::gpu::try_solve_with(
                &input.problem,
                morph_pta::gpu::PtaOpts::default(),
                SMS,
                recovery,
            )
        });
        let Ok(out) = out else {
            return empty_sample(false, LaunchStats::default());
        };
        let ok = parts.verify(|| out.solution == input.reference);
        let facts: usize = out.solution.iter().map(Vec::len).sum();
        Sample {
            counters: vec![
                ("pta.iterations", out.iterations as f64),
                ("pta.regrows", f64::from(out.regrows)),
                ("pta.edge_bytes", out.edge_bytes as f64),
                ("pta.facts", facts as f64),
                ("core.retries", f64::from(out.retries)),
            ],
            ..empty_sample(ok, out.launch)
        }
    }
}

// ---- mst-contract ------------------------------------------------------

pub struct Mst;

pub struct MstInput {
    graph: morph_graph::Csr,
    reference: morph_mst::MstResult,
}

const MST_SCALE: u32 = 16;

impl Pipeline for Mst {
    type Input = MstInput;
    const WORKLOAD: &'static str = spec::MST_CONTRACT;
    const CALL_METRIC: &'static str = "mst.call_s";
    const INPUTS: usize = 12;
    const GATED: bool = true;

    fn build(seed: u64) -> MstInput {
        let graph = morph_workloads::graphs::rmat(MST_SCALE, 4 << MST_SCALE, seed);
        let reference = morph_mst::kruskal::mst(&graph);
        MstInput { graph, reference }
    }

    fn sample(input: &MstInput, recovery: &RecoveryOpts, parts: &mut Parts<'_>) -> Sample {
        let out = parts.call("mst.call", || {
            morph_mst::gpu::try_mst_with_stats(&input.graph, SMS, recovery)
        });
        let Ok(out) = out else {
            return empty_sample(false, LaunchStats::default());
        };
        let ok = parts.verify(|| {
            out.result.weight == input.reference.weight && out.result.edges == input.reference.edges
        });
        let lane_steps = out.launch.active_threads + out.launch.idle_threads;
        Sample {
            counters: vec![
                ("mst.rounds", out.result.rounds as f64),
                ("mst.weight", out.result.weight as f64),
                ("core.retries", f64::from(out.retries)),
            ],
            gated: vec![
                out.result.rounds as u64,
                out.result.weight,
                out.launch.iterations,
                lane_steps,
                out.launch.warps,
            ],
            ..empty_sample(ok, out.launch)
        }
    }
}

// ---- the runner --------------------------------------------------------

/// The modes a window cycles through on each input.
fn window_modes(observed: bool, traced: bool) -> &'static [Mode] {
    match (observed, traced) {
        (false, _) => &[Mode::Detached],
        (true, false) => &[Mode::Detached, Mode::Armed],
        (true, true) => &[
            Mode::Detached,
            Mode::Armed,
            Mode::TracerOnly,
            Mode::MetricsOnly,
            Mode::LensOnly,
        ],
    }
}

/// Samples attempted and samples that failed their oracle.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn count(&mut self, sample: &Sample) {
        self.attempted += 1;
        self.failed += u64::from(!sample.ok);
    }
}

struct SetUp<I> {
    inputs: Vec<I>,
    /// Median seconds of one full set-up.
    setup_s: f64,
    /// Median seconds to build one input with its reference.
    build_s: f64,
}

/// Set up [`SETUP_REPS`] times over: every input with its reference, then
/// one warm-up call per mode the spans-off window runs. The last set-up's
/// inputs serve the window.
fn set_up<P: Pipeline>(ctx: &Ctx<'_>, warm_modes: &[Mode], tally: &mut Tally) -> SetUp<P::Input> {
    let mut inputs = Vec::new();
    let mut builds = Vec::new();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        inputs.clear();
        builds.clear();
        let start = Instant::now();
        for i in 0..P::INPUTS {
            let t = Instant::now();
            inputs.push(P::build(input_seed(ctx.args.seed, i as u64)));
            builds.push(t.elapsed().as_secs_f64());
        }
        for &mode in warm_modes {
            let obs = Observers::new(mode, &ctx.scratch);
            tally.count(&run_sample::<P>(&inputs[0], &obs.recovery, &ctx.rec));
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    SetUp {
        inputs,
        setup_s: median(&setups),
        build_s: median(&builds),
    }
}

/// One finished, verified sample as the aggregation sees it.
struct Taken {
    input: usize,
    mode: Mode,
    spans_on: bool,
    sample: Sample,
    /// Share of metered accesses the lens could not attribute; lens-armed
    /// samples only.
    lens_unattributed: Option<f64>,
}

struct Window {
    taken: Vec<Taken>,
    elapsed_s: f64,
    deterministic: bool,
}

impl Window {
    fn of_mode(&self, mode: Mode) -> impl Iterator<Item = &Taken> {
        self.taken.iter().filter(move |t| t.mode == mode)
    }

    fn calls(&self, mode: Mode) -> Vec<f64> {
        self.of_mode(mode).map(|t| t.sample.call_s).collect()
    }

    /// The first sample of every input in `mode`: the same set on every
    /// run of one seed, whatever the window had time for after it.
    fn first_visits(&self, mode: Mode, inputs: usize) -> Vec<&Taken> {
        let mut visited = vec![false; inputs];
        self.of_mode(mode)
            .filter(|t| !std::mem::replace(&mut visited[t.input], true))
            .collect()
    }
}

/// The window: one group of `modes` per input, cycling over the inputs.
/// It always finishes its first full cycle, so statistics over first
/// visits cover the same inputs on every run of one seed.
fn window<P: Pipeline>(
    ctx: &Ctx<'_>,
    inputs: &[P::Input],
    modes: &[Mode],
    tally: &mut Tally,
) -> Window {
    let first_cycle = P::INPUTS * modes.len();
    let mut taken = Vec::new();
    let mut first_seen: Vec<Option<Vec<u64>>> = vec![None; first_cycle];
    let mut deterministic = true;
    let start = Instant::now();
    let mut j = 0usize;
    while j < first_cycle || start.elapsed().as_secs_f64() < ctx.args.seconds {
        let group = j / modes.len();
        let input = group % P::INPUTS;
        let mode = modes[j % modes.len()];
        // Spans alternate by group, flipping each cycle, so span-on and
        // span-off samples cover the same inputs and the same modes.
        let spans_on = ctx.args.trace && (group + group / P::INPUTS).is_multiple_of(2);
        ctx.rec.set_enabled(spans_on);
        let obs = Observers::new(mode, &ctx.scratch);
        let sample = run_sample::<P>(&inputs[input], &obs.recovery, &ctx.rec);
        ctx.rec.set_enabled(false);
        tally.count(&sample);
        let slot = j % first_cycle;
        j += 1;
        if !sample.ok {
            continue;
        }
        if P::GATED {
            match &first_seen[slot] {
                None => first_seen[slot] = Some(sample.gated.clone()),
                Some(first) => deterministic &= *first == sample.gated,
            }
        }
        let lens = &obs.recovery.lens;
        let lens_unattributed = lens
            .is_enabled()
            .then(|| lens.snapshot().unattributed_fraction());
        taken.push(Taken {
            input,
            mode,
            spans_on,
            sample,
            lens_unattributed,
        });
    }
    Window {
        taken,
        elapsed_s: start.elapsed().as_secs_f64(),
        deterministic,
    }
}

/// From the `LaunchStats` the calls returned: per-call means of the
/// counters, and the host time they leave unexplained.
fn launch_metrics(m: &mut Metrics, samples: &[&Sample], call_s: f64) {
    let n = samples.len().max(1) as f64;
    let sum = |f: fn(&LaunchStats) -> u64| samples.iter().map(|s| f(&s.launch)).sum::<u64>() as f64;
    let launches = sum(|l| l.iterations);
    let wall: f64 = samples.iter().map(|s| s.launch.wall.as_secs_f64()).sum();
    let lane_steps = sum(|l| l.active_threads + l.idle_threads);
    let (commits, aborts) = (sum(|l| l.commits), sum(|l| l.aborts));
    m.insert("gpu-sim.launches", launches / n);
    m.insert("gpu-sim.launch_wall_s", wall / n);
    m.insert("gpu-sim.launch_mean_us", ratio(wall * 1e6, launches));
    m.insert("gpu-sim.lane_steps", lane_steps / n);
    m.insert("gpu-sim.ns_per_lane_step", ratio(wall * 1e9, lane_steps));
    m.insert("gpu-sim.warps", sum(|l| l.warps) / n);
    m.insert("gpu-sim.barriers", sum(|l| l.barriers) / n);
    m.insert("gpu-sim.atomics", sum(|l| l.atomics) / n);
    m.insert(
        "gpu-sim.work_efficiency",
        ratio(sum(|l| l.active_threads), lane_steps),
    );
    m.insert(
        "gpu-sim.divergence_ratio",
        ratio(sum(|l| l.divergent_warps), sum(|l| l.warps)),
    );
    m.insert("core.commits", commits / n);
    m.insert("core.aborts", aborts / n);
    m.insert("core.abort_ratio", ratio(aborts, commits + aborts));
    // Host time of the call outside launches, less the part SP's own host
    // loop accounts for: the recovering driver and per-iteration host work.
    let gap = samples
        .iter()
        .map(|s| (s.call_s - s.outer_host_s - s.launch.wall.as_secs_f64()).max(0.0))
        .sum::<f64>()
        / n;
    m.insert("core.host_gap_s", gap);
    m.insert("core.host_gap_share", ratio(gap, call_s));
    let overhead = launches / n * m["gpu-sim.launch_empty_us"] * 1e-6;
    m.insert("gpu-sim.launch_overhead_s", overhead);
    m.insert("gpu-sim.launch_overhead_share", ratio(overhead, call_s));
}

/// The simulated statistics of metered samples: what the modelled GPU
/// would have seen, which a host-only optimisation must leave identical.
fn metered_metrics(m: &mut Metrics, metered: &[&Taken]) {
    let mut total = LaunchStats::default();
    for t in metered {
        total.absorb(&t.sample.launch);
    }
    let n = metered.len().max(1) as f64;
    let unattributed: Vec<f64> = metered.iter().filter_map(|t| t.lens_unattributed).collect();
    m.insert("gpu-sim.occupancy", total.occupancy());
    m.insert("gpu-sim.coalescing_factor", total.coalescing_factor());
    m.insert("gpu-sim.atomic_serial", total.atomic_serial as f64 / n);
    m.insert(
        "gpu-sim.model_mcycles",
        morph_trace::model_cycles(&total.snapshot()) as f64 / n / 1e6,
    );
    m.insert("gpu-sim.lens_unattributed", mean(&unattributed));
}

/// Probes on `morph-trace`'s public codec and `morph-metrics`' exposition,
/// over the stream and registry of one armed solve of `input`.
fn observer_probes<P: Pipeline>(ctx: &Ctx<'_>, input: &P::Input, m: &mut Metrics) {
    // Events and bytes as an armed sample writes them.
    let armed = Observers::new(Mode::Armed, &ctx.scratch);
    run_sample::<P>(input, &armed.recovery, &ctx.rec);
    let (sink, path) = armed.jsonl.as_ref().expect("armed mode has a JSONL sink");
    let events = sink.lines() as f64;
    let bytes = std::fs::metadata(path).map_or(0, |md| md.len()) as f64;
    m.insert("trace.events", events);
    m.insert("trace.bytes_per_event", ratio(bytes, events));

    // The same stream held in memory, through the codec both ways.
    let ring = Arc::new(RingSink::new(1 << 22));
    let recovery = RecoveryOpts {
        tracer: Tracer::new(Arc::clone(&ring) as Arc<dyn TraceSink>),
        ..RecoveryOpts::default()
    };
    run_sample::<P>(input, &recovery, &ctx.rec);
    let captured = ring.events();
    let n = captured.len().max(1) as f64;
    let t = Instant::now();
    let lines: Vec<String> = captured.iter().map(morph_trace::json::to_json).collect();
    m.insert(
        "trace.encode_ns_per_event",
        t.elapsed().as_secs_f64() * 1e9 / n,
    );
    let text = lines.join("\n");
    let t = Instant::now();
    let (parsed, bad) = morph_trace::parse_jsonl(&text);
    m.insert(
        "trace.parse_ns_per_event",
        t.elapsed().as_secs_f64() * 1e9 / n,
    );
    assert!(
        bad.is_empty() && parsed.len() == captured.len(),
        "the codec round-trips its own stream"
    );

    let registry = armed.registry.as_ref().expect("armed mode has a registry");
    let snapshot = registry.snapshot();
    m.insert("metrics.series", snapshot.series.len() as f64);
    let times: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(morph_metrics::expose(&snapshot));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.insert("metrics.expose_us", median(&times));
}

/// The probes on `VirtualGpu::launch`, for the overhead decomposition.
fn launch_probes(m: &mut Metrics) {
    m.insert("gpu-sim.launch_empty_us", probes::launch_empty_us(SMS));
    m.insert("gpu-sim.launch_empty_1sm_us", probes::launch_empty_us(1));
    for (name, kind) in [
        ("gpu-sim.barrier_phase_us.naive", BarrierKind::NaiveAtomic),
        ("gpu-sim.barrier_phase_us.hier", BarrierKind::Hierarchical),
        (
            "gpu-sim.barrier_phase_us.sense",
            BarrierKind::SenseReversing,
        ),
    ] {
        m.insert(name, probes::barrier_phase_us(kind));
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-layer metrics of a traced window. Runs one more metered sample
/// on workloads whose window has none, counted in `tally`.
fn per_layer<P: Pipeline>(
    ctx: &Ctx<'_>,
    set_up: &SetUp<P::Input>,
    w: &Window,
    headline: Mode,
    all_spans: &[spans::Span],
    tally: &mut Tally,
    m: &mut Metrics,
) {
    launch_probes(m);
    // Call spans are shared by every mode of `sp-observed`; the headline
    // call time comes from the headline samples that ran with spans on.
    let headline_s = |spans_on: bool, f: fn(&Sample) -> f64| -> Vec<f64> {
        w.of_mode(headline)
            .filter(|t| t.spans_on == spans_on)
            .map(|t| f(&t.sample))
            .collect()
    };
    m.insert(P::CALL_METRIC, median(&headline_s(true, |s| s.call_s)));
    m.insert(
        "check.verify_s",
        median(&spans::self_times_of(all_spans, "check.verify")),
    );
    // Inputs built inside the sample have a span; the others were timed
    // one by one in set-up.
    let built_in_sample = spans::self_times_of(all_spans, "workloads.build");
    m.insert(
        "workloads.build_s",
        if built_in_sample.is_empty() {
            set_up.build_s
        } else {
            median(&built_in_sample)
        },
    );
    m.insert(
        "bench.trace_overhead_ratio",
        ratio(
            median(&headline_s(true, |s| s.total_s)),
            median(&headline_s(false, |s| s.total_s)),
        ),
    );

    // Counters: the first detached visit of every input.
    let firsts: Vec<&Sample> = w
        .first_visits(Mode::Detached, P::INPUTS)
        .iter()
        .map(|t| &t.sample)
        .collect();
    for (name, _) in firsts.first().map_or(&[][..], |s| &s.counters[..]) {
        let values: Vec<f64> = firsts
            .iter()
            .filter_map(|s| s.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
            .collect();
        m.insert(*name, mean(&values));
    }
    let detached_call_s = median(&w.calls(Mode::Detached));
    launch_metrics(m, &firsts, detached_call_s);

    // Simulated statistics: the first armed visit of every input where the
    // window has armed samples, else one metered sample.
    if headline == Mode::Armed {
        metered_metrics(m, &w.first_visits(Mode::Armed, P::INPUTS));
    } else {
        let obs = Observers::new(Mode::Metered, &ctx.scratch);
        let sample = run_sample::<P>(&set_up.inputs[0], &obs.recovery, &ctx.rec);
        tally.count(&sample);
        let metered = Taken {
            input: 0,
            mode: Mode::Metered,
            spans_on: false,
            sample,
            lens_unattributed: Some(obs.recovery.lens.snapshot().unattributed_fraction()),
        };
        metered_metrics(m, &[&metered]);
    }

    P::probe(&set_up.inputs[0], m);
    if headline == Mode::Armed {
        let over_detached = |mode: Mode| ratio(median(&w.calls(mode)), detached_call_s);
        m.insert("sp.detached_call_s", detached_call_s);
        m.insert("sp.obs_overhead_ratio", over_detached(Mode::Armed));
        m.insert("trace.armed_ratio", over_detached(Mode::TracerOnly));
        m.insert("metrics.armed_ratio", over_detached(Mode::MetricsOnly));
        m.insert("gpu-sim.lens_armed_ratio", over_detached(Mode::LensOnly));
        observer_probes::<P>(ctx, &set_up.inputs[0], m);
    }
}

pub fn run<P: Pipeline>(ctx: &Ctx<'_>) -> Outcome {
    let headline = if P::OBSERVED {
        Mode::Armed
    } else {
        Mode::Detached
    };
    let mut tally = Tally::default();
    let mut m = Metrics::new();

    let set_up = set_up::<P>(ctx, window_modes(P::OBSERVED, false), &mut tally);
    let modes = window_modes(P::OBSERVED, ctx.args.trace);
    let w = window::<P>(ctx, &set_up.inputs, modes, &mut tally);

    // Each input's best call: the sandbox slows every thread by tens of
    // percent for seconds at a time, and repeats of one input do the same
    // work, so the fastest repeat is the one least interfered with.
    let mut best = vec![f64::INFINITY; P::INPUTS];
    for t in w.of_mode(headline) {
        best[t.input] = best[t.input].min(t.sample.call_s);
    }
    best.retain(|b| b.is_finite());

    let mut problems = Vec::new();
    if ctx.args.trace {
        let all_spans = ctx.rec.take();
        per_layer::<P>(ctx, &set_up, &w, headline, &all_spans, &mut tally, &mut m);
        spans::conclude(&all_spans, &ctx.scratch, P::WORKLOAD, &mut m, &mut problems);
    } else {
        let samples_ms: Vec<f64> = w
            .of_mode(headline)
            .map(|t| t.sample.total_s * 1e3)
            .collect();
        m.insert("setup_s", set_up.setup_s);
        m.insert("wall_s", median(&best));
        m.insert("jobs_per_s", w.taken.len() as f64 / w.elapsed_s);
        m.insert("turnaround_p50_ms", median(&samples_ms));
        m.insert("turnaround_p99_ms", tail(&samples_ms, 0.99).1);
        m.insert("peak_rss_mb", peak_rss_mb());
    }
    Outcome {
        workload: P::WORKLOAD,
        seed: ctx.args.seed,
        traced: ctx.args.trace,
        samples: w.of_mode(headline).count() as u64,
        quartiles_s: quartiles(&best),
        attempted: tally.attempted,
        failed: tally.failed,
        deterministic: w.deterministic,
        metrics: m,
        problems,
    }
}
