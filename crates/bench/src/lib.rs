//! # morph-bench — the paper's evaluation, regenerated
//!
//! One module per table/figure of the evaluation section (§8). The
//! [`tables`](../src/bin/tables.rs) binary prints them
//! (`cargo run -p morph-bench --release --bin tables -- all`).
//! [`drive_calibrated`] is the small four-pipeline table the `perf-suite`
//! and `trace-report` binaries share.
//!
//! Scale: the paper ran meshes of up to 10 M triangles on a 448-core
//! Fermi and a 48-core Xeon; we default to laptop-scale inputs (~50–100×
//! smaller) chosen so every figure's *shape* — who wins, by what factor,
//! where the crossovers sit — is preserved. `MORPH_SCALE=tiny|small|full`
//! selects the operating point.

pub mod fig10_pta;
pub mod fig11_mst;
pub mod fig2_profile;
pub mod fig6_dmr;
pub mod fig8_ablation;
pub mod fig9_sp;
pub mod shape_check;

use morph_core::runtime::RecoveryOpts;
use morph_dmr::DmrOpts;
use morph_pta::gpu::PtaOpts;
use morph_sp::surveys::Surveys;
use morph_sp::FactorGraph;
use std::time::{Duration, Instant};

/// Workload scale selected via `MORPH_SCALE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sizes (seconds total).
    Tiny,
    /// Default laptop sizes (a few minutes total).
    Small,
    /// The largest sizes this harness supports.
    Full,
}

impl Scale {
    pub fn from_env() -> Self {
        match std::env::var("MORPH_SCALE").as_deref() {
            Ok("tiny") => Scale::Tiny,
            Ok("full") => Scale::Full,
            _ => Scale::Small,
        }
    }

    /// Multiplier applied to base workload sizes.
    pub fn factor(&self) -> f64 {
        match self {
            Scale::Tiny => 0.25,
            Scale::Small => 1.0,
            Scale::Full => 4.0,
        }
    }

    pub fn scaled(&self, base: usize) -> usize {
        ((base as f64) * self.factor()) as usize
    }
}

/// Number of host workers ("SMs" / CPU threads) to use.
pub fn workers() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
}

/// Time a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Run `f` `k` times and report the minimum wall time (with the last
/// result). Shared/virtualised hosts show multi-× scheduler noise on
/// single shots; the minimum is the standard robust estimator.
pub fn time_best<R>(k: usize, mut f: impl FnMut() -> R) -> (R, Duration) {
    assert!(k >= 1);
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..k {
        let (r, d) = time(&mut f);
        best = best.min(d);
        out = Some(r);
    }
    (out.unwrap(), best)
}

/// Drive one calibrated pipeline (`dmr`, `sp`, `pta` or `mst`) under
/// `recovery`; returns `(iterations, work_items)`. The inputs are small
/// enough for CI and large enough that every phase runs multiple warps.
pub fn drive_calibrated(algo: &str, recovery: &RecoveryOpts) -> Result<(u64, u64), String> {
    match algo {
        "dmr" => {
            let mut mesh = morph_workloads::mesh::random_mesh::<f64>(400, 7);
            let out = morph_dmr::gpu::try_refine_gpu(&mut mesh, DmrOpts::default(), 2, recovery)
                .map_err(|e| e.to_string())?;
            Ok((out.iterations, out.stats.refined))
        }
        "sp" => {
            let f = morph_workloads::ksat::random_ksat(200, 700, 3, 23);
            let fg = FactorGraph::new(&f);
            let s = Surveys::init(&fg, 5);
            let (sweeps, _) = morph_sp::gpu::try_propagate(&fg, &s, 1e-3, 60, 2, recovery)
                .map_err(|e| e.to_string())?;
            Ok((sweeps as u64, fg.num_clauses as u64))
        }
        "pta" => {
            let prob = morph_workloads::pta::synthetic(80, 220, 5);
            let out = morph_pta::gpu::try_solve_with(&prob, PtaOpts::default(), 2, recovery)
                .map_err(|e| e.to_string())?;
            Ok((out.iterations, prob.constraints.len() as u64))
        }
        "mst" => {
            let g = morph_workloads::graphs::random_graph(300, 900, 3);
            let out =
                morph_mst::gpu::try_mst_with_stats(&g, 2, recovery).map_err(|e| e.to_string())?;
            Ok((out.result.rounds as u64, g.num_edges() as u64))
        }
        other => Err(format!("unknown algorithm {other:?}")),
    }
}

/// Milliseconds with two decimals, for table cells.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Render an aligned markdown table.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        s
    };
    let mut out = fmt_row(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    out.push('\n');
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_and_factors() {
        assert!(Scale::Tiny.factor() < Scale::Small.factor());
        assert!(Scale::Small.factor() < Scale::Full.factor());
        assert_eq!(Scale::Small.scaled(100), 100);
        assert_eq!(Scale::Tiny.scaled(100), 25);
    }

    #[test]
    fn markdown_table_is_aligned() {
        let t = markdown_table(
            &["a", "bbbb"],
            &[vec!["x".into(), "y".into()], vec!["longer".into(), "z".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn time_measures() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        assert!(!ms(d).is_empty());
    }
}
