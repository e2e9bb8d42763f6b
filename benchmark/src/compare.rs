//! `compare A.json B.json`: hold a candidate to a baseline under each
//! end-to-end metric's declared bound.

use crate::report::WorkloadResult;
use crate::spec::{Better, MetricDecl};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Ok,
    /// Worse than the baseline by more than the bound.
    Breach,
    /// In the baseline, not in the candidate: the bound cannot be checked.
    MissingInCandidate,
    /// Only in the candidate: nothing to hold it to yet.
    New,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: Option<f64>,
    pub cand: Option<f64>,
    pub verdict: Verdict,
}

/// How much worse `cand` is than `base`, as a share of `base`, in the
/// metric's own direction; negative when it got better.
pub fn worsening(better: Better, base: f64, cand: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (cand - base) / base.abs(),
        Better::Higher => (base - cand) / base.abs(),
    }
}

fn judge(decl: &MetricDecl, base: Option<f64>, cand: Option<f64>) -> Verdict {
    match (base, cand) {
        (Some(b), Some(c)) => {
            let bound = decl.bound.unwrap_or(f64::INFINITY);
            if worsening(decl.better, b, c) > bound {
                Verdict::Breach
            } else {
                Verdict::Ok
            }
        }
        (Some(_), None) => Verdict::MissingInCandidate,
        (None, _) => Verdict::New,
    }
}

/// One row per workload × end-to-end metric, plus a `failed/attempted`
/// row per workload, which breaches on any rise.
pub fn compare(
    decls: &[MetricDecl],
    base: &BTreeMap<String, WorkloadResult>,
    cand: &BTreeMap<String, WorkloadResult>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    let empty = WorkloadResult::default();
    let workloads: std::collections::BTreeSet<&String> = base.keys().chain(cand.keys()).collect();
    for w in workloads {
        let (b, c) = (base.get(w), cand.get(w));
        for decl in decls {
            let get = |r: Option<&WorkloadResult>| {
                r.unwrap_or(&empty).end_to_end.get(&decl.name).copied()
            };
            let (bv, cv) = (get(b), get(c));
            if bv.is_none() && cv.is_none() {
                continue;
            }
            rows.push(Row {
                workload: w.clone(),
                metric: decl.name.clone(),
                base: bv,
                cand: cv,
                verdict: judge(decl, bv, cv),
            });
        }
        let share =
            |r: Option<&WorkloadResult>| r.map(|r| r.failed as f64 / r.attempted.max(1) as f64);
        let (bf, cf) = (share(b), share(c));
        let verdict = match (bf, cf) {
            (Some(bf), Some(cf)) if cf > bf => Verdict::Breach,
            (Some(_), None) => Verdict::MissingInCandidate,
            (None, _) => Verdict::New,
            _ => Verdict::Ok,
        };
        rows.push(Row {
            workload: w.clone(),
            metric: "failed/attempted".into(),
            base: bf,
            cand: cf,
            verdict,
        });
    }
    rows
}

pub fn breached(rows: &[Row]) -> bool {
    rows.iter()
        .any(|r| matches!(r.verdict, Verdict::Breach | Verdict::MissingInCandidate))
}

pub fn print(rows: &[Row], decls: &[MetricDecl]) {
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "candidate", "change", "bound"
    );
    for r in rows {
        let decl = decls.iter().find(|d| d.name == r.metric);
        let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
        let change = match (r.base, r.cand) {
            (Some(b), Some(c)) if b != 0.0 => format!("{:+.1}%", 100.0 * (c - b) / b.abs()),
            _ => "-".to_string(),
        };
        let bound = decl
            .and_then(|d| d.bound)
            .map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b));
        println!(
            "{:<14} {:<20} {:>14} {:>14} {:>9} {:>7}  {:?}",
            r.workload,
            r.metric,
            show(r.base),
            show(r.cand),
            change,
            bound,
            r.verdict
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(name: &str, better: Better, bound: f64) -> MetricDecl {
        MetricDecl {
            name: name.into(),
            unit: "x".into(),
            better,
            bound: Some(bound),
        }
    }

    fn result(metrics: &[(&str, f64)], failed: u64) -> BTreeMap<String, WorkloadResult> {
        let r = WorkloadResult {
            attempted: 100,
            failed,
            end_to_end: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            ..WorkloadResult::default()
        };
        BTreeMap::from([("w".to_string(), r)])
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .unwrap()
            .verdict
            .clone()
    }

    #[test]
    fn bounds_apply_in_the_metrics_own_direction() {
        let decls = [
            decl("wall_s", Better::Lower, 0.10),
            decl("jobs_per_s", Better::Higher, 0.10),
        ];
        let base = result(&[("wall_s", 1.0), ("jobs_per_s", 100.0)], 0);

        // 9 % slower and 9 % less throughput: inside both bounds.
        let rows = compare(
            &decls,
            &base,
            &result(&[("wall_s", 1.09), ("jobs_per_s", 91.0)], 0),
        );
        assert!(!breached(&rows), "{rows:?}");

        // Lower-is-better breaches upward only.
        let rows = compare(
            &decls,
            &base,
            &result(&[("wall_s", 1.11), ("jobs_per_s", 100.0)], 0),
        );
        assert_eq!(verdict_of(&rows, "wall_s"), Verdict::Breach);
        let rows = compare(
            &decls,
            &base,
            &result(&[("wall_s", 0.5), ("jobs_per_s", 100.0)], 0),
        );
        assert!(!breached(&rows));

        // Higher-is-better breaches downward only.
        let rows = compare(
            &decls,
            &base,
            &result(&[("wall_s", 1.0), ("jobs_per_s", 89.0)], 0),
        );
        assert_eq!(verdict_of(&rows, "jobs_per_s"), Verdict::Breach);
        let rows = compare(
            &decls,
            &base,
            &result(&[("wall_s", 1.0), ("jobs_per_s", 500.0)], 0),
        );
        assert!(!breached(&rows));
    }

    #[test]
    fn a_metric_missing_on_one_side_is_told_apart() {
        let decls = [
            decl("wall_s", Better::Lower, 0.10),
            decl("peak_rss_mb", Better::Lower, 0.10),
        ];
        let both = result(&[("wall_s", 1.0), ("peak_rss_mb", 50.0)], 0);
        let one = result(&[("wall_s", 1.0)], 0);

        let rows = compare(&decls, &both, &one);
        assert_eq!(
            verdict_of(&rows, "peak_rss_mb"),
            Verdict::MissingInCandidate
        );
        assert!(breached(&rows), "a vanished metric cannot pass its bound");

        let rows = compare(&decls, &one, &both);
        assert_eq!(verdict_of(&rows, "peak_rss_mb"), Verdict::New);
        assert!(!breached(&rows));
    }

    #[test]
    fn any_rise_in_the_failure_share_breaches() {
        let decls = [decl("wall_s", Better::Lower, 0.10)];
        let rows = compare(
            &decls,
            &result(&[("wall_s", 1.0)], 0),
            &result(&[("wall_s", 1.0)], 1),
        );
        assert_eq!(verdict_of(&rows, "failed/attempted"), Verdict::Breach);
        let rows = compare(
            &decls,
            &result(&[("wall_s", 1.0)], 1),
            &result(&[("wall_s", 1.0)], 1),
        );
        assert!(!breached(&rows));
    }
}
