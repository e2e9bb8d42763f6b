//! `BENCHMARK.json`, compiled in: the declared workloads and metrics,
//! and which of them each workload emits.

use morph_trace::json::{parse, JsonValue};
use std::sync::OnceLock;

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Debug)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Spec {
    pub fn decl(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    let list = |key: &str| match v.get(key) {
        Some(JsonValue::Array(a)) => Ok(a),
        _ => Err(format!("BENCHMARK.json: missing array {key:?}")),
    };
    let text_of = |o: &JsonValue, key: &str| {
        o.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: entry without {key:?}"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(MetricDecl {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    better: match text_of(m, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                    },
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: v
            .get("run_seconds")
            .and_then(JsonValue::as_u64)
            .ok_or("BENCHMARK.json: missing run_seconds")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse_spec(BENCHMARK_JSON).expect("the compiled-in BENCHMARK.json parses"))
}

pub const DMR_REFINE: &str = "dmr-refine";
pub const SP_SOLVE: &str = "sp-solve";
pub const PTA_SOLVE: &str = "pta-solve";
pub const MST_CONTRACT: &str = "mst-contract";
pub const SP_OBSERVED: &str = "sp-observed";
pub const SERVE_MEM: &str = "serve-mem";
pub const SERVE_DURABLE: &str = "serve-durable";

/// Every workload, in the order `--all` runs them.
pub const WORKLOADS: [&str; 7] = [
    DMR_REFINE,
    SP_SOLVE,
    PTA_SOLVE,
    MST_CONTRACT,
    SP_OBSERVED,
    SERVE_MEM,
    SERVE_DURABLE,
];

/// The static name of a workload given on the command line.
pub fn workload_named(name: &str) -> Option<&'static str> {
    WORKLOADS.iter().copied().find(|w| *w == name)
}

/// Every workload reports all six, so a change is held to each on each.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "wall_s",
    "jobs_per_s",
    "turnaround_p50_ms",
    "turnaround_p99_ms",
    "peak_rss_mb",
];

const EVERY_WORKLOAD: [&str; 4] = [
    "workloads.build_s",
    "check.verify_s",
    "bench.trace_overhead_ratio",
    "bench.unexplained_share",
];

/// From the `LaunchStats` every pipeline call returns, the launch probes,
/// and the one metered sample of a traced run.
const PIPELINE: [&str; 27] = [
    "core.host_gap_s",
    "core.host_gap_share",
    "core.commits",
    "core.aborts",
    "core.abort_ratio",
    "gpu-sim.launches",
    "gpu-sim.launch_wall_s",
    "gpu-sim.launch_mean_us",
    "gpu-sim.lane_steps",
    "gpu-sim.ns_per_lane_step",
    "gpu-sim.warps",
    "gpu-sim.barriers",
    "gpu-sim.atomics",
    "gpu-sim.work_efficiency",
    "gpu-sim.divergence_ratio",
    "gpu-sim.launch_empty_us",
    "gpu-sim.launch_empty_1sm_us",
    "gpu-sim.barrier_phase_us.naive",
    "gpu-sim.barrier_phase_us.hier",
    "gpu-sim.barrier_phase_us.sense",
    "gpu-sim.launch_overhead_s",
    "gpu-sim.launch_overhead_share",
    "gpu-sim.occupancy",
    "gpu-sim.coalescing_factor",
    "gpu-sim.atomic_serial",
    "gpu-sim.model_mcycles",
    "gpu-sim.lens_unattributed",
];

const DMR: [&str; 7] = [
    "dmr.call_s",
    "dmr.iterations",
    "dmr.refined",
    "dmr.regrows",
    "dmr.peak_tri_capacity",
    "core.retries",
    "core.rescues",
];

const SP: [&str; 8] = [
    "sp.call_s",
    "sp.host_s",
    "sp.rounds",
    "sp.sweeps",
    "sp.fixed_by_sp",
    "sp.compactions",
    "sp.sat",
    "sp.factor_graph_build_s",
];

const PTA: [&str; 6] = [
    "pta.call_s",
    "pta.iterations",
    "pta.regrows",
    "pta.edge_bytes",
    "pta.facts",
    "core.retries",
];

const MST: [&str; 4] = ["mst.call_s", "mst.rounds", "mst.weight", "core.retries"];

const OBSERVERS: [&str; 11] = [
    "sp.detached_call_s",
    "sp.obs_overhead_ratio",
    "trace.armed_ratio",
    "metrics.armed_ratio",
    "gpu-sim.lens_armed_ratio",
    "trace.events",
    "trace.bytes_per_event",
    "trace.encode_ns_per_event",
    "trace.parse_ns_per_event",
    "metrics.series",
    "metrics.expose_us",
];

const SERVE: [&str; 12] = [
    "serve.submit_us_p50",
    "serve.submit_us_p99",
    "serve.queue_wait_ms_p50",
    "serve.run_ms_p50",
    "serve.run_ms_p99",
    "serve.queue_depth_peak",
    "serve.direct_run_ms_p50",
    "serve.run_inflation_ratio",
    "serve.jobs_finished",
    "serve.jobs_failed",
    "serve.start_ms",
    "gpu-sim.launch_empty_1sm_us",
];

const DURABLE: [&str; 10] = [
    "serve.journal_appends",
    "serve.journal_bytes_per_job",
    "serve.journal_append_us",
    "serve.journal_sync_us",
    "serve.journal_scan_ms",
    "serve.checkpoints",
    "serve.checkpoint_bytes_per_job",
    "serve.restart_ms",
    "serve.lost",
    "serve.dup",
];

/// The per-layer metrics a traced run of `workload` emits.
pub fn per_layer_of(workload: &str) -> Vec<&'static str> {
    let groups: &[&[&'static str]] = match workload {
        DMR_REFINE => &[&EVERY_WORKLOAD, &PIPELINE, &DMR],
        SP_SOLVE => &[&EVERY_WORKLOAD, &PIPELINE, &SP],
        PTA_SOLVE => &[&EVERY_WORKLOAD, &PIPELINE, &PTA],
        MST_CONTRACT => &[&EVERY_WORKLOAD, &PIPELINE, &MST],
        SP_OBSERVED => &[&EVERY_WORKLOAD, &PIPELINE, &SP, &OBSERVERS],
        SERVE_MEM => &[&EVERY_WORKLOAD, &SERVE],
        SERVE_DURABLE => &[&EVERY_WORKLOAD, &SERVE, &DURABLE],
        _ => &[],
    };
    groups.iter().flat_map(|g| g.iter().copied()).collect()
}

/// A run must emit exactly its workload's declared metrics.
pub fn check_emitted(workload: &str, traced: bool, emitted: &[&str]) -> Result<(), String> {
    let expected = if traced {
        per_layer_of(workload)
    } else {
        END_TO_END.to_vec()
    };
    let missing: Vec<_> = expected.iter().filter(|m| !emitted.contains(m)).collect();
    let extra: Vec<_> = emitted.iter().filter(|m| !expected.contains(m)).collect();
    if missing.is_empty() && extra.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{workload}: metrics missing {missing:?}, undeclared {extra:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn file_and_binary_declare_the_same_workloads_and_metrics() {
        let spec = spec();
        let names = |d: &[MetricDecl]| d.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        let declared_workloads: Vec<&str> = spec.workloads.iter().map(|w| w.0.as_str()).collect();
        assert_eq!(declared_workloads, WORKLOADS);
        assert_eq!(names(&spec.end_to_end), END_TO_END);

        let emitted: BTreeSet<&str> = WORKLOADS.iter().flat_map(|w| per_layer_of(w)).collect();
        let declared: BTreeSet<String> = names(&spec.per_layer).into_iter().collect();
        assert_eq!(
            declared.len(),
            spec.per_layer.len(),
            "a per-layer metric is declared twice"
        );
        let declared: BTreeSet<&str> = declared.iter().map(String::as_str).collect();
        assert_eq!(
            emitted.difference(&declared).collect::<Vec<_>>(),
            Vec::<&&str>::new(),
            "emitted by the binary, not declared in BENCHMARK.json"
        );
        assert_eq!(
            declared.difference(&emitted).collect::<Vec<_>>(),
            Vec::<&&str>::new(),
            "declared in BENCHMARK.json, emitted by no workload"
        );
    }

    #[test]
    fn the_file_keeps_the_builder_contract_limits() {
        let spec = spec();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        for (_, why) in &spec.workloads {
            assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
        }
        for d in &spec.end_to_end {
            let bound = d.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        }
        let setup = spec.decl("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        for d in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn a_run_is_held_to_its_workloads_set() {
        let all = per_layer_of(SERVE_MEM);
        assert!(check_emitted(SERVE_MEM, true, &all).is_ok());
        assert!(
            !all.contains(&"serve.journal_appends"),
            "durable metrics are absent on serve-mem"
        );
        let mut with_extra = all.clone();
        with_extra.push("serve.journal_appends");
        assert!(check_emitted(SERVE_MEM, true, &with_extra).is_err());
        assert!(check_emitted(SERVE_MEM, true, &all[1..]).is_err());
        assert!(check_emitted(SERVE_MEM, false, &END_TO_END).is_ok());
    }
}
