//! `benchmark` — end-to-end and per-layer host cost of the reproduction.
//!
//! ```text
//! benchmark [--workload <name>[,<name>...]|all] [--seed N] [--seconds S]
//!           [--trace 0|1] [--out results.json] [--smoke] [--corrupt-trace]
//! benchmark compare a.json[,a2.json...] b.json[,b2.json...] [--spec BENCHMARK.json]
//! benchmark metrics
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` is the separate traced run that gives the per-layer metrics; with
//! no `--trace`, each workload gets both. Every metric is printed by name
//! with its unit, the outputs are checked, and the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics`. The exit code is non-zero when a check fails or a unit
//! fails. See README.md for the workloads and metrics.

mod breakdown;
mod calib;
mod catalog;
mod compare;
mod inputs;
mod measure;
mod pass;
mod stats;
mod sys;

use inputs::{Sizes, Workload};
use measure::{Options, WorkloadResult};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: benchmark [--workload <name>[,<name>...]|all] [--seed N] [--seconds S] \
         [--trace 0|1] [--out FILE] [--smoke] [--corrupt-trace]\n       \
         benchmark compare A.json[,A2.json...] B.json[,B2.json...] [--spec BENCHMARK.json]\n       \
         benchmark metrics"
    );
    ExitCode::from(2)
}

/// Work directories live next to the build, inside the checkout, and
/// are removed when the run ends.
struct WorkRoot(PathBuf);

impl WorkRoot {
    fn new() -> std::io::Result<WorkRoot> {
        let exe = std::env::current_exe()?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or_else(|| std::io::Error::other("executable has no build directory"))?;
        let dir = target.join(format!("bench-work-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkRoot(dir))
    }
}

impl Drop for WorkRoot {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("pass") => pass_main(&args[1..], started),
        Some("compare") => compare_main(&args[1..]),
        Some("metrics") => {
            for (kind, defs) in [
                ("end_to_end", catalog::END_TO_END),
                ("per_layer", catalog::PER_LAYER),
            ] {
                for d in defs {
                    println!("{kind} {} {} {}", d.name, d.unit, d.better);
                }
            }
            for w in Workload::ALL {
                println!("workload {}", w.name());
            }
            ExitCode::SUCCESS
        }
        _ => bench_main(&args),
    }
}

fn pass_main(args: &[String], started: Instant) -> ExitCode {
    let (Some(w), Some(dir), Some(threads)) = (
        args.first().and_then(|n| Workload::parse(n)),
        args.get(1),
        args.get(2).and_then(|t| t.parse().ok()),
    ) else {
        return usage("pass needs <workload> <dir> <threads>");
    };
    let telemetry = args.get(3).is_some_and(|a| a == "--telemetry");
    match pass::run(w, Path::new(dir), threads, telemetry, started) {
        Ok(report) => {
            println!(
                "{}",
                serde_json::to_string(&report).expect("pass reports serialize")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {} pass: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}

fn compare_main(args: &[String]) -> ExitCode {
    let mut sides = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => match it.next() {
                Some(p) => spec = PathBuf::from(p),
                None => return usage("--spec needs a path"),
            },
            files => sides.push(files.split(',').map(PathBuf::from).collect::<Vec<_>>()),
        }
    }
    let [a, b] = sides.as_slice() else {
        return usage("compare needs two sides");
    };
    match compare::run(a, b, &spec) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn bench_main(args: &[String]) -> ExitCode {
    let mut workloads = Workload::ALL.to_vec();
    let mut opts = Options {
        seed: 0,
        seconds: 10.0,
        sizes: Sizes { smoke: false },
        corrupt_trace: false,
    };
    let mut modes = vec![false, true];
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_default();
        match a.as_str() {
            "--workload" | "--workloads" => {
                let v = value();
                if v != "all" {
                    match v
                        .split(',')
                        .map(Workload::parse)
                        .collect::<Option<Vec<_>>>()
                    {
                        Some(ws) if !ws.is_empty() => workloads = ws,
                        _ => return usage(&format!("unknown workload in `{v}`")),
                    }
                }
            }
            "--seed" => match value().parse() {
                Ok(s) => opts.seed = s,
                Err(_) => return usage("--seed needs a whole number"),
            },
            "--seconds" => match value().parse::<f64>() {
                Ok(s) if s > 0.0 => opts.seconds = s,
                _ => return usage("--seconds needs a positive number"),
            },
            "--trace" => match value().as_str() {
                "0" => modes = vec![false],
                "1" => modes = vec![true],
                _ => return usage("--trace needs 0 or 1"),
            },
            "--out" => out = Some(PathBuf::from(value())),
            "--smoke" => opts.sizes.smoke = true,
            "--corrupt-trace" => opts.corrupt_trace = true,
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let root = match WorkRoot::new() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot create a work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results: Vec<WorkloadResult> = Vec::new();
    for &w in &workloads {
        for &traced in &modes {
            let dir = root.0.join(format!(
                "{}-{}",
                w.name(),
                if traced { "traced" } else { "plain" }
            ));
            let r = measure::run(w, &opts, traced, &dir);
            std::fs::remove_dir_all(&dir).ok();
            measure::print(&r);
            results.push(r);
        }
    }
    if let Some(path) = out {
        let doc = compare::Results {
            results: results.clone(),
        };
        let text = serde_json::to_string_pretty(&doc).expect("results serialize");
        if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let single = workloads.len() == 1;
    let mut metrics = Vec::new();
    for r in &results {
        for m in &r.metrics {
            let key = if single {
                m.name.clone()
            } else {
                format!("{}/{}", r.workload, m.name)
            };
            let entry = Value::Object(vec![
                ("value".to_string(), Value::Float(m.value)),
                ("unit".to_string(), Value::Str(m.unit.clone())),
            ]);
            metrics.push((key, entry));
        }
    }
    let correct = results.iter().all(|r| r.correct);
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted.max(1))),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("result line serializes")
    );
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
