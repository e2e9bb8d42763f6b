//! What one workload run produces, and its three renderings: the
//! driver's result line, the richer `--out` object, and the stderr table.

use crate::spec::{self, Spec};
use morph_trace::json::JsonValue;
use std::collections::BTreeMap;

/// Metric name → value. Names are the literals declared in
/// `BENCHMARK.json`; [`spec::check_emitted`] holds every run to that.
pub type Metrics = BTreeMap<&'static str, f64>;

pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    /// `false`: `metrics` are the end-to-end set, measured with spans
    /// off. `true`: the per-layer set of a traced run.
    pub traced: bool,
    /// Timing samples behind the reported medians.
    pub samples: u64,
    /// First quartile, median and third quartile of those samples, in
    /// seconds: the spread inside this one run.
    pub quartiles_s: (f64, f64, f64),
    pub attempted: u64,
    /// Samples or jobs that failed their oracle, were refused, or ended
    /// in a state other than finished. They contribute no timing.
    pub failed: u64,
    /// Exactly-repeating counters repeated exactly (always `true` on
    /// workloads the determinism gate does not cover).
    pub deterministic: bool,
    pub metrics: Metrics,
    /// Why the run is not `correct`, beyond `failed` and `deterministic`.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.deterministic && self.problems.is_empty()
    }

    /// The last line of standard output, in the shape the driver reads:
    /// every declared metric of the run's kind, by name, with its unit.
    /// Per-layer metrics a workload does not exercise read 0.
    pub fn result_line(&self, spec: &Spec) -> String {
        let decls = if self.traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let body: Vec<String> = decls
            .iter()
            .map(|d| {
                let v = self.metrics.get(d.name.as_str()).copied().unwrap_or(0.0);
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    d.name,
                    number(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(",")
        )
    }

    /// The `--out` object: a [`WorkloadResult`] holding only the metrics
    /// this workload emits, named, with the spread inside the run.
    pub fn to_json(&self) -> String {
        let metrics: BTreeMap<String, f64> = self
            .metrics
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        let (end_to_end, per_layer) = if self.traced {
            (BTreeMap::new(), metrics)
        } else {
            (metrics, BTreeMap::new())
        };
        let result = WorkloadResult {
            attempted: self.attempted,
            failed: self.failed,
            deterministic: self.deterministic,
            correct: self.correct(),
            seed: self.seed,
            samples: self.samples,
            end_to_end,
            per_layer,
        };
        let (q1, q2, q3) = self.quartiles_s;
        format!(
            "{{\"workload\":\"{}\",\"quartiles_s\":[{},{},{}],{}",
            self.workload,
            number(q1),
            number(q2),
            number(q3),
            &result.to_json()[1..]
        )
    }

    /// Name / unit / value table on stderr.
    pub fn print_table(&self, spec: &Spec) {
        eprintln!(
            "== {} (seed {}, {}) — {} samples, {} attempted, {} failed, deterministic {}",
            self.workload,
            self.seed,
            if self.traced {
                "traced: per-layer"
            } else {
                "spans off: end-to-end"
            },
            self.samples,
            self.attempted,
            self.failed,
            self.deterministic
        );
        if let Some((_, why)) = spec
            .workloads
            .iter()
            .find(|(name, _)| name == self.workload)
        {
            eprintln!("   {why}");
        }
        let (q1, q2, q3) = self.quartiles_s;
        eprintln!("   timing samples: q1 {q1:.6} s, median {q2:.6} s, q3 {q3:.6} s");
        for (name, value) in &self.metrics {
            let unit = spec.decl(name).map_or("?", |d| d.unit.as_str());
            eprintln!("  {name:<36} {unit:<8} {value:.6}");
        }
        for p in &self.problems {
            eprintln!("  PROBLEM: {p}");
        }
    }
}

/// A finite float with all its digits; JSON has no NaN or infinity.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64)>) -> String {
    let body: Vec<String> = metrics
        .map(|(k, v)| format!("\"{k}\":{}", number(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// One workload's object as `--all` and `compare` see it: the two metric
/// sets of its spans-off and traced runs merged.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    pub deterministic: bool,
    pub correct: bool,
    pub seed: u64,
    pub samples: u64,
    pub end_to_end: BTreeMap<String, f64>,
    pub per_layer: BTreeMap<String, f64>,
}

impl WorkloadResult {
    pub fn from_json(v: &JsonValue) -> Option<Self> {
        let map = |key: &str| -> Option<BTreeMap<String, f64>> {
            match v.get(key)? {
                JsonValue::Object(m) => m
                    .iter()
                    .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect(),
                _ => None,
            }
        };
        Some(WorkloadResult {
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            deterministic: v.get("deterministic")?.as_bool()?,
            correct: v.get("correct")?.as_bool()?,
            seed: v.get("seed")?.as_u64()?,
            samples: v.get("samples")?.as_u64()?,
            end_to_end: map("end_to_end")?,
            per_layer: map("per_layer")?,
        })
    }

    /// Fold the traced run of the same workload into the spans-off one.
    pub fn merge_traced(&mut self, traced: WorkloadResult) {
        self.attempted += traced.attempted;
        self.failed += traced.failed;
        self.deterministic &= traced.deterministic;
        self.correct &= traced.correct;
        self.per_layer = traced.per_layer;
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"seed\":{},\"samples\":{},\"attempted\":{},\"failed\":{},\"deterministic\":{},\
             \"correct\":{},\"end_to_end\":{},\"per_layer\":{}}}",
            self.seed,
            self.samples,
            self.attempted,
            self.failed,
            self.deterministic,
            self.correct,
            metrics_json(self.end_to_end.iter().map(|(k, v)| (k.as_str(), *v))),
            metrics_json(self.per_layer.iter().map(|(k, v)| (k.as_str(), *v))),
        )
    }
}

/// Load either a single-workload `--out` object or an `--all` file into
/// `workload name → result`.
pub fn load_results(text: &str) -> Result<BTreeMap<String, WorkloadResult>, String> {
    let v = morph_trace::json::parse(text).map_err(|e| e.to_string())?;
    let bad = |name: &str| format!("workload {name:?} is not a result object");
    if let Some(JsonValue::Object(all)) = v.get("workloads") {
        return all
            .iter()
            .map(|(name, w)| {
                Ok((
                    name.clone(),
                    WorkloadResult::from_json(w).ok_or_else(|| bad(name))?,
                ))
            })
            .collect();
    }
    let name = v
        .get("workload")
        .and_then(JsonValue::as_str)
        .ok_or("neither a \"workloads\" object nor a single \"workload\" result")?;
    let one = WorkloadResult::from_json(&v).ok_or_else(|| bad(name))?;
    Ok(BTreeMap::from([(name.to_string(), one)]))
}

pub fn all_to_json(results: &BTreeMap<String, WorkloadResult>) -> String {
    let body: Vec<String> = results
        .iter()
        .map(|(name, r)| format!("\"{name}\":{}", r.to_json()))
        .collect();
    format!("{{\"workloads\":{{{}}}}}\n", body.join(","))
}

/// Hold a finished run to the declared metric set of its workload.
pub fn check_against_spec(outcome: &mut Outcome) {
    let emitted: Vec<&str> = outcome.metrics.keys().copied().collect();
    if let Err(e) = spec::check_emitted(outcome.workload, outcome.traced, &emitted) {
        outcome.problems.push(e);
    }
    for (name, v) in &outcome.metrics {
        if !v.is_finite() {
            outcome
                .problems
                .push(format!("metric {name} is not finite"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_object_round_trips_and_merges() {
        let o = Outcome {
            workload: "mst-contract",
            seed: 3,
            traced: false,
            samples: 5,
            quartiles_s: (0.2, 0.25, 0.3),
            attempted: 6,
            failed: 0,
            deterministic: true,
            metrics: Metrics::from([("wall_s", 0.25), ("setup_s", 1.5)]),
            problems: vec![],
        };
        let loaded = load_results(&o.to_json()).unwrap();
        let r = &loaded["mst-contract"];
        assert_eq!(r.end_to_end["wall_s"], 0.25);
        assert!(r.per_layer.is_empty() && r.correct);

        let mut merged = r.clone();
        let traced = WorkloadResult {
            attempted: 4,
            failed: 1,
            deterministic: true,
            correct: false,
            per_layer: BTreeMap::from([("mst.rounds".to_string(), 6.0)]),
            ..WorkloadResult::default()
        };
        merged.merge_traced(traced);
        assert_eq!(
            (merged.attempted, merged.failed, merged.correct),
            (10, 1, false)
        );
        let all = all_to_json(&BTreeMap::from([(
            "mst-contract".to_string(),
            merged.clone(),
        )]));
        assert_eq!(load_results(&all).unwrap()["mst-contract"], merged);
    }

    #[test]
    fn numbers_are_never_nan_in_json() {
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(0.125), "0.125");
    }
}
