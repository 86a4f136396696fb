//! `benchmark compare a.json b.json`: side-by-side end-to-end medians of
//! two result files, judged against the bounds in `BENCHMARK.json`.

use crate::measure::WorkloadResult;
use crate::stats;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// A `--out` file: every workload result of one invocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Results {
    /// The results, plain and traced, in run order.
    pub results: Vec<WorkloadResult>,
}

/// One end-to-end metric's regression rule from `BENCHMARK.json`.
struct Rule {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn rules(spec: &Path) -> Result<Vec<Rule>, String> {
    let text = std::fs::read_to_string(spec)
        .map_err(|e| format!("cannot read {}: {e}", spec.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    let Ok(Value::Array(items)) = doc.field("end_to_end") else {
        return Err(format!("{}: no end_to_end list", spec.display()));
    };
    items
        .iter()
        .map(|m| {
            let name = match m.field("name") {
                Ok(Value::Str(s)) => s.clone(),
                _ => return Err("an end_to_end metric has no name".to_string()),
            };
            let bound = match m.field("bound") {
                Ok(Value::Float(b)) => *b,
                Ok(Value::UInt(b)) => *b as f64,
                _ => return Err(format!("{name}: no bound")),
            };
            let lower_is_better = matches!(m.field("better"), Ok(Value::Str(s)) if s == "lower");
            Ok(Rule {
                name,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

fn load(path: &Path) -> Result<Results, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every plain result of one side, from one or more files.
fn plain_results(files: &[PathBuf]) -> Result<Vec<WorkloadResult>, String> {
    let mut all = Vec::new();
    for f in files {
        all.extend(load(f)?.results.into_iter().filter(|r| !r.traced));
    }
    Ok(all)
}

/// One side's samples of a metric on a workload: the median of each run
/// when the side has several runs (run-to-run spread), otherwise the
/// passes of its one run.
fn samples(side: &[WorkloadResult], workload: &str, metric: &str) -> (Vec<f64>, &'static str) {
    let found: Vec<_> = side
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|m| m.name == metric))
        .collect();
    match found.as_slice() {
        [one] => (one.samples.clone(), "passes"),
        many => (many.iter().map(|m| m.value).collect(), "runs"),
    }
}

/// The verdict on one metric: how `b` compares with the base `a`.
fn verdict(a: &[f64], b: &[f64], rule: &Rule) -> &'static str {
    let (qa1, ma, qa3) = stats::quartiles(a);
    let (qb1, mb, qb3) = stats::quartiles(b);
    let worse = |x: f64, y: f64| if rule.lower_is_better { x > y } else { x < y };
    let spread = ((qa3 - qa1) / ma).max((qb3 - qb1) / mb);
    if spread > rule.bound {
        // Too noisy to judge by medians: only a clean separation counts.
        if b.iter().all(|&y| a.iter().all(|&x| worse(x, y))) {
            return "better (every b run beats every a run)";
        }
        if b.iter().all(|&y| a.iter().all(|&x| worse(y, x))) {
            return "worse (every b run loses to every a run)";
        }
        return "unresolved (spread exceeds the bound)";
    }
    let change = mb / ma - 1.0;
    let worse_by = if rule.lower_is_better {
        change
    } else {
        -change
    };
    if worse_by > rule.bound {
        "worse"
    } else if worse_by < -rule.bound {
        "better"
    } else {
        "within bound"
    }
}

/// Print the comparison of side `b` against the base side `a`, each one
/// or more result files; returns whether any metric got worse.
pub fn run(a: &[PathBuf], b: &[PathBuf], spec: &Path) -> Result<bool, String> {
    let (ra, rb) = (plain_results(a)?, plain_results(b)?);
    let rules = rules(spec)?;
    let names = |files: &[PathBuf]| {
        files
            .iter()
            .map(|f| f.display().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("a = {}\nb = {}\nratios are b/a, base a", names(a), names(b));
    let mut workloads: Vec<&str> = Vec::new();
    for r in &ra {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut any_worse = false;
    for w in workloads {
        for rule in &rules {
            let ((sa, unit), (sb, _)) = (samples(&ra, w, &rule.name), samples(&rb, w, &rule.name));
            if sa.is_empty() || sb.is_empty() {
                println!("{w:<14} {:<12} missing from one side", rule.name);
                continue;
            }
            let v = verdict(&sa, &sb, rule);
            any_worse |= v.starts_with("worse");
            let (qa1, ma, qa3) = stats::quartiles(&sa);
            let (qb1, mb, qb3) = stats::quartiles(&sb);
            println!(
                "{w:<14} {:<12} a {ma:.6} [{qa1:.6}, {qa3:.6}] n={:<3} b {mb:.6} [{qb1:.6}, {qb3:.6}] \
                 n={:<3} {unit}  b/a {:.4}  {v} (bound {:.0}%)",
                rule.name,
                sa.len(),
                sb.len(),
                mb / ma,
                rule.bound * 100.0
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(bound: f64) -> Rule {
        Rule {
            name: "wall_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let a = [1.0, 1.01, 0.99, 1.0];
        assert_eq!(
            verdict(&a, &[1.05, 1.04, 1.06, 1.05], &rule(0.10)),
            "within bound"
        );
        assert_eq!(verdict(&a, &[1.2, 1.21, 1.19, 1.2], &rule(0.10)), "worse");
        assert_eq!(verdict(&a, &[0.8, 0.81, 0.79, 0.8], &rule(0.10)), "better");
    }

    #[test]
    fn noisy_sides_are_unresolved_unless_separated() {
        let a = [1.0, 1.5, 0.6, 1.2];
        assert!(verdict(&a, &[1.1, 1.4, 0.7, 1.0], &rule(0.10)).starts_with("unresolved"));
        assert!(verdict(&a, &[2.0, 2.5, 1.6, 2.2], &rule(0.10)).starts_with("worse"));
    }
}
