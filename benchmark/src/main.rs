//! `morph-benchmark` — the repo's benchmark.
//!
//! ```text
//! morph-benchmark --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--out FILE]
//! morph-benchmark --all           [--seed S] [--seconds T] [--out FILE]
//! morph-benchmark compare BASE.json CANDIDATE.json
//! ```
//!
//! One workload run measures for `--seconds` and prints, as the last line
//! of standard output, one JSON object: with `--trace 0` every end-to-end
//! metric measured with the benchmark's spans off, with `--trace 1` every
//! per-layer metric from a traced run. A name / unit / value table goes to
//! standard error and the richer object to `--out`. `--all` re-executes
//! this binary once per workload and kind, so peak memory and allocator
//! warm-up belong to one run, and merges the objects under `"workloads"`.
//! See `README.md` beside this package for what each number means.

mod compare;
mod pipelines;
mod probes;
mod report;
mod serve;
mod spans;
mod spec;
mod stats;

use report::{Outcome, WorkloadResult};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// What a workload needs from the command line.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One workload run: its arguments, its span recorder and its scratch
/// directory.
pub struct Ctx<'a> {
    pub args: &'a Args,
    pub rec: spans::Recorder,
    pub scratch: PathBuf,
}

enum Target {
    One(&'static str),
    All,
}

struct Cli {
    target: Target,
    args: Args,
    out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!("usage: morph-benchmark --workload NAME | --all  [--seed S] [--seconds T] [--trace 0|1] [--out FILE]");
    eprintln!("       morph-benchmark compare BASE.json CANDIDATE.json");
    eprintln!("workloads: {}", spec::WORKLOADS.join(" "));
    ExitCode::FAILURE
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut target = None;
    let mut args = Args {
        seed: 1,
        seconds: spec::spec().run_seconds as f64,
        trace: false,
    };
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--all" => target = Some(Target::All),
            "--workload" => {
                let name = value()?;
                let known = spec::workload_named(name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                target = Some(Target::One(known));
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Cli {
        target: target.ok_or("give --workload NAME or --all")?,
        args,
        out,
    })
}

/// Scratch state lives only here, and is removed when a run starts.
fn scratch_dir(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("bench-scratch")
        .join(workload)
}

fn run_workload(workload: &'static str, args: &Args) -> Outcome {
    let scratch = scratch_dir(workload);
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("the benchmark's own target directory is writable");
    let ctx = Ctx {
        args,
        rec: spans::Recorder::new(),
        scratch,
    };
    let mut outcome = match workload {
        spec::DMR_REFINE => pipelines::run::<pipelines::Dmr>(&ctx),
        spec::SP_SOLVE => pipelines::run::<pipelines::SpSolve>(&ctx),
        spec::PTA_SOLVE => pipelines::run::<pipelines::Pta>(&ctx),
        spec::MST_CONTRACT => pipelines::run::<pipelines::Mst>(&ctx),
        spec::SP_OBSERVED => pipelines::run::<pipelines::SpObserved>(&ctx),
        spec::SERVE_MEM => serve::run(false, &ctx),
        spec::SERVE_DURABLE => serve::run(true, &ctx),
        other => unreachable!("{other} passed workload_named"),
    };
    report::check_against_spec(&mut outcome);
    outcome
}

/// Write `text` to `--out`, when one was given. `false` when that failed.
fn write_out(cli: &Cli, text: &str) -> bool {
    let Some(path) = &cli.out else {
        return true;
    };
    std::fs::write(path, text)
        .map_err(|e| eprintln!("morph-benchmark: cannot write {}: {e}", path.display()))
        .is_ok()
}

fn one(workload: &'static str, cli: &Cli) -> ExitCode {
    let outcome = run_workload(workload, &cli.args);
    let spec = spec::spec();
    outcome.print_table(spec);
    if !write_out(cli, &(outcome.to_json() + "\n")) {
        return ExitCode::FAILURE;
    }
    println!("{}", outcome.result_line(spec));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-execute this binary for one workload and kind; its `--out` object
/// comes back parsed.
fn child(workload: &str, trace: bool, args: &Args) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = scratch_dir("all").join(format!("{workload}-trace{}.json", u8::from(trace)));
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        // The child's result line is for the driver; `--all` reads `--out`.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{workload}: cannot re-execute: {e}"))?;
    let text = std::fs::read_to_string(&out)
        .map_err(|e| format!("{workload}: exited with {status} and left no result: {e}"))?;
    let mut loaded = report::load_results(&text)?;
    loaded
        .remove(workload)
        .ok_or_else(|| format!("{workload}: result file names another workload"))
}

fn all(cli: &Cli) -> ExitCode {
    let dir = scratch_dir("all");
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("morph-benchmark: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut results = BTreeMap::new();
    for workload in spec::WORKLOADS {
        let merged = child(workload, false, &cli.args).and_then(|mut plain| {
            plain.merge_traced(child(workload, true, &cli.args)?);
            Ok(plain)
        });
        match merged {
            Ok(r) => results.insert(workload.to_string(), r),
            Err(e) => {
                eprintln!("morph-benchmark: {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    let text = report::all_to_json(&results);
    if !write_out(cli, &text) {
        return ExitCode::FAILURE;
    }
    print!("{text}");
    if results.values().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(base: &str, cand: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|t| report::load_results(&t).map_err(|e| format!("{path}: {e}")))
    };
    let (base, cand) = match (load(base), load(cand)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("morph-benchmark: {e}");
            }
            return ExitCode::FAILURE;
        }
    };
    let decls = &spec::spec().end_to_end;
    let rows = compare::compare(decls, &base, &cand);
    compare::print(&rows, decls);
    if compare::breached(&rows) {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match (argv.get(1), argv.get(2), argv.get(3)) {
            (Some(base), Some(cand), None) => compare_files(base, cand),
            _ => usage(),
        };
    }
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("morph-benchmark: {e}");
            return usage();
        }
    };
    match cli.target {
        Target::One(workload) => one(workload, &cli),
        Target::All => all(&cli),
    }
}
