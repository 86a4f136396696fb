//! Runs `benchmark --smoke` (tiny inputs, one pass, one thread) and
//! checks what it prints against `BENCHMARK.json`.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("run the benchmark binary")
}

fn spec_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn spec() -> Value {
    let text = std::fs::read_to_string(spec_path()).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, field: &str) -> &'a [Value] {
    match v.field(field) {
        Ok(Value::Array(items)) => items,
        other => panic!("`{field}` is not a list: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, field: &str) -> &'a str {
    match v.field(field) {
        Ok(Value::Str(s)) => s,
        other => panic!("`{field}` is not a string: {other:?}"),
    }
}

/// `(name, unit)` of every metric of one kind in `BENCHMARK.json`.
fn declared(kind: &str) -> Vec<(String, String)> {
    list(&spec(), kind)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

/// The last stdout line, parsed.
fn result_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .expect("the benchmark printed something");
    serde_json::from_str(last).expect("the last line is JSON")
}

/// `(workload, traced) -> {metric name -> unit}` from the printed report.
fn printed(stdout: &str) -> BTreeMap<(String, bool), BTreeMap<String, String>> {
    let mut sections = BTreeMap::new();
    let mut current = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("== ") {
            let mut words = rest.split_whitespace();
            let workload = words.next().unwrap().to_string();
            let traced = words.next() == Some("(traced");
            current = Some((workload, traced));
            sections.insert(current.clone().unwrap(), BTreeMap::new());
        } else if let (Some(key), [name, value, unit, ..]) = (
            &current,
            line.split_whitespace().collect::<Vec<_>>().as_slice(),
        ) {
            if value.parse::<f64>().is_ok() {
                sections
                    .get_mut(key)
                    .unwrap()
                    .insert(name.to_string(), unit.to_string());
            }
        }
    }
    sections
}

#[test]
fn every_metric_is_printed_with_its_unit_and_results_compare() {
    let out_file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-results.json");
    let out = benchmark(&["--smoke", "--out", out_file.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sections = printed(&stdout);
    let workloads: Vec<String> = list(&spec(), "workloads")
        .iter()
        .map(|w| text(w, "name").to_string())
        .collect();
    for w in &workloads {
        for (traced, kind) in [(false, "end_to_end"), (true, "per_layer")] {
            let seen = sections
                .get(&(w.clone(), traced))
                .unwrap_or_else(|| panic!("no {kind} section for {w}:\n{stdout}"));
            for (name, unit) in declared(kind) {
                assert_eq!(
                    seen.get(&name),
                    Some(&unit),
                    "{w}: {name} not printed with unit {unit}"
                );
            }
        }
    }

    let line = result_line(&out);
    assert_eq!(line.field("correct").unwrap(), &Value::Bool(true));
    assert_eq!(line.field("failed").unwrap(), &Value::UInt(0));
    assert!(matches!(line.field("attempted").unwrap(), Value::UInt(n) if *n > 0));
    let Value::Object(metrics) = line.field("metrics").unwrap() else {
        panic!("metrics is not an object");
    };
    let expected = workloads.len() * (declared("end_to_end").len() + declared("per_layer").len());
    assert_eq!(metrics.len(), expected);
    for (key, m) in metrics {
        assert!(matches!(m.field("value"), Ok(Value::Float(_))), "{key}");
        assert!(matches!(m.field("unit"), Ok(Value::Str(_))), "{key}");
    }

    let saved: Value = serde_json::from_str(&std::fs::read_to_string(&out_file).unwrap())
        .expect("the --out file is JSON");
    assert_eq!(list(&saved, "results").len(), 2 * workloads.len());
    let cmp = benchmark(&[
        "compare",
        out_file.to_str().unwrap(),
        out_file.to_str().unwrap(),
        "--spec",
        spec_path().to_str().unwrap(),
    ]);
    let cmp_out = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{cmp_out}");
    assert_eq!(
        cmp_out.matches("within bound").count(),
        workloads.len() * declared("end_to_end").len(),
        "{cmp_out}"
    );
}

#[test]
fn metric_catalog_matches_benchmark_json() {
    let out = benchmark(&["metrics"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let spec = spec();
    let mut from_file = Vec::new();
    for kind in ["end_to_end", "per_layer"] {
        for m in list(&spec, kind) {
            from_file.push(format!(
                "{kind} {} {} {}",
                text(m, "name"),
                text(m, "unit"),
                text(m, "better")
            ));
        }
    }
    for w in list(&spec, "workloads") {
        from_file.push(format!("workload {}", text(w, "name")));
    }
    let from_binary: Vec<String> = stdout.lines().map(str::to_string).collect();
    assert_eq!(
        from_binary, from_file,
        "the binary and BENCHMARK.json disagree"
    );
}

#[test]
fn truncated_trace_raises_error_rate_without_panicking() {
    let out = benchmark(&[
        "--smoke",
        "--workload",
        "trace-analyze",
        "--trace",
        "0",
        "--corrupt-trace",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a failed trace must fail the run");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let line = result_line(&out);
    assert_eq!(line.field("failed").unwrap(), &Value::UInt(1));
    assert!(matches!(line.field("attempted").unwrap(), Value::UInt(n) if *n > 1));
}
