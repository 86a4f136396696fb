//! One measured pass, run in a fresh child process (`benchmark pass`).
//!
//! A fresh process per pass is what makes passes independent: the
//! scenario engine's case memo (L1) is a process global that nothing
//! outside the library can clear. The child loads its inputs from the
//! work directory (that is its set-up), runs the timed calls, checks what
//! it can check alone, and prints one JSON [`PassReport`] line.

use crate::inputs::{self, Workload};
use crate::sys;
use bps_core::record::Layer;
use bps_core::report::MetricsSummary;
use bps_core::time::Dur;
use bps_experiments::scale::Scale;
use bps_experiments::scenario::engine::{self, RunOpts, ScenarioOutput};
use bps_experiments::scenario::spec::Scenario;
use bps_experiments::scenario::store::{self, CaseStore};
use bps_experiments::supervise;
use bps_experiments::sweep::SweepExec;
use bps_telemetry::{AtomicCollector, Event};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The paper's normalized BPS correlation per figure (EXPERIMENTS.md,
/// "paper" column), the reference `model.bps_cc_err` is stated against.
pub const PAPER_BPS_CC: [(&str, f64); 6] = [
    ("fig4", 0.93),
    ("fig5", 0.90),
    ("fig6", 0.90),
    ("fig9", 0.96),
    ("fig11", 0.91),
    ("fig12", 0.92),
];

/// What one pass measured and found.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PassReport {
    /// Seconds from the child's `main` to the first timed call.
    pub setup_s: f64,
    /// Wall seconds of the timed calls.
    pub wall_s: f64,
    /// User + system CPU seconds of the timed calls.
    pub cpu_s: f64,
    /// Peak resident memory of the child, MiB.
    pub peak_rss_mb: f64,
    /// Sweep units (case × seed) or traces the pass had to deliver.
    pub attempted: u64,
    /// Units that failed, or traces that could not be used.
    pub failed: u64,
    /// FNV-1a of everything the pass rendered, in hex.
    pub digest: String,
    /// Every check that failed, one line each.
    pub problems: Vec<String>,
    /// Seconds spent expanding scenarios during set-up.
    pub expand_s: f64,
    /// Case store (L2) hits and misses.
    pub l2: (u64, u64),
    /// Mean |normalized BPS CC − paper's| over the paper's CC figures,
    /// when the pass rendered all of them.
    pub bps_cc_err: Option<f64>,
    /// Per-call timings of `trace-analyze`.
    pub analysis: Option<Analysis>,
    /// Counters and spans, when the pass ran with telemetry installed.
    pub telemetry: Option<Telemetry>,
}

/// `trace-analyze` timings, summed over the trace files.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Analysis {
    /// `format::load_path`: read and decode.
    pub decode_s: f64,
    /// `MetricsSummary::from_trace` over the whole metric registry.
    pub summary_s: f64,
    /// The Fig. 3 union of application I/O intervals.
    pub union_s: f64,
    /// `validate::validate`.
    pub validate_s: f64,
    /// A 100 ms `windowed_series`.
    pub window_s: f64,
    /// Records decoded.
    pub records: u64,
    /// Trace bytes decoded.
    pub bytes: u64,
    /// Trace files decoded.
    pub files: u64,
}

/// What the telemetry collector saw during the timed calls.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Telemetry {
    /// Every counter, by its dotted name.
    pub counters: Vec<(String, u64)>,
    /// Wall milliseconds of each simulated sweep unit.
    pub unit_ms: Vec<f64>,
    /// Wall seconds of the `engine.sweep` phases.
    pub sweep_s: f64,
}

impl Telemetry {
    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// Run one pass and return its report. `started` is the instant `main`
/// began; errors reading the inputs are returned as text.
pub fn run(
    w: Workload,
    dir: &Path,
    threads: usize,
    telemetry: bool,
    started: Instant,
) -> Result<PassReport, String> {
    if telemetry {
        bps_telemetry::install(Arc::new(AtomicCollector::new()));
    }
    let mut report = if w == Workload::TraceAnalyze {
        analyze(dir, started)?
    } else {
        sweep(w, dir, threads, started)?
    };
    report.peak_rss_mb = sys::peak_rss_mb();
    if telemetry {
        report.telemetry = Some(collect_telemetry());
    }
    Ok(report)
}

fn collect_telemetry() -> Telemetry {
    let counters = bps_telemetry::snapshot()
        .into_iter()
        .map(|(c, v)| (c.name().to_string(), v))
        .collect();
    let mut unit_ms = Vec::new();
    let mut sweep_s = 0.0;
    for e in bps_telemetry::drain_events() {
        match e {
            Event::Unit { start, end, .. } => unit_ms.push((end - start).as_secs_f64() * 1e3),
            Event::Phase { name, start, end } if name == "engine.sweep" => {
                sweep_s += (end - start).as_secs_f64()
            }
            Event::Phase { .. } => {}
        }
    }
    Telemetry {
        counters,
        unit_ms,
        sweep_s,
    }
}

/// The scale preset the inputs were generated for.
pub fn load_scale(dir: &Path) -> Result<Scale, String> {
    let text = std::fs::read_to_string(dir.join("scale.json"))
        .map_err(|e| format!("cannot read scale.json: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("invalid scale.json: {e}"))
}

/// The scenario files of a work directory, parsed, in run order.
pub fn load_scenarios(dir: &Path) -> Result<Vec<Scenario>, String> {
    inputs::files_with_extension(&inputs::scenario_dir(dir), "json")
        .map_err(|e| format!("cannot list scenarios: {e}"))?
        .iter()
        .map(|f| engine::load_path(f).map_err(|e| e.to_string()))
        .collect()
}

/// A scenario's rendered output, as the output digest covers it.
pub fn render(sc: &Scenario, out: &ScenarioOutput) -> String {
    format!("# {}\n{out}", sc.name)
}

fn sweep(w: Workload, dir: &Path, threads: usize, started: Instant) -> Result<PassReport, String> {
    let mut r = PassReport::default();
    let scale = load_scale(dir)?;
    let scenarios = load_scenarios(dir)?;
    let t = Instant::now();
    for sc in &scenarios {
        let cases = engine::expand(sc, &scale).map_err(|e| format!("{}: {e}", sc.name))?;
        r.attempted += cases.len() as u64 * scale.runs;
    }
    r.expand_s = t.elapsed().as_secs_f64();
    if w == Workload::WarmReplay {
        store::set_active(Some(Arc::new(CaseStore::at(inputs::store_dir(dir)))));
    }
    r.setup_s = started.elapsed().as_secs_f64();

    let cpu = sys::cpu_seconds();
    let t = Instant::now();
    let exec = SweepExec::new(threads);
    let outputs: Vec<_> = scenarios
        .iter()
        .map(|sc| engine::run_with_opts(sc, &scale, exec, true, &RunOpts::default()))
        .collect();
    r.wall_s = t.elapsed().as_secs_f64();
    r.cpu_s = sys::cpu_seconds() - cpu;

    r.failed = supervise::take_recorded_failures().len() as u64;
    let mut rendered = String::new();
    let mut cc_err = Vec::new();
    for (sc, out) in scenarios.iter().zip(&outputs) {
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                r.problems.push(format!("{}: {e}", sc.name));
                continue;
            }
        };
        rendered.push_str(&render(sc, out));
        if !sc.expect.is_empty() || sc.verdict.is_some() {
            for v in engine::violations(out, &sc.expect, sc.verdict) {
                r.problems.push(format!("{}: {v}", sc.name));
            }
        }
        if let Some((_, paper)) = PAPER_BPS_CC.iter().find(|(n, _)| *n == sc.name) {
            if let Some(cc) = out.as_cc().and_then(|f| f.normalized("BPS")) {
                cc_err.push((cc - paper).abs());
            }
        }
    }
    if cc_err.len() == PAPER_BPS_CC.len() {
        r.bps_cc_err = Some(cc_err.iter().sum::<f64>() / cc_err.len() as f64);
    }
    r.digest = format!("{:016x}", inputs::fnv1a(rendered.as_bytes()));
    r.l2 = store::store_stats();
    Ok(r)
}

/// One parsed manifest line: file name, digest of its bytes, records.
pub fn load_manifest(dir: &Path) -> Result<Vec<(String, u64, u64)>, String> {
    let text = std::fs::read_to_string(inputs::manifest_path(dir))
        .map_err(|e| format!("cannot read trace manifest: {e}"))?;
    text.lines()
        .map(|line| {
            let f: Vec<&str> = line.split(' ').collect();
            match f.as_slice() {
                [name, digest, records] => Ok((
                    name.to_string(),
                    u64::from_str_radix(digest, 16).map_err(|e| e.to_string())?,
                    records
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?,
                )),
                _ => Err(format!("malformed manifest line `{line}`")),
            }
        })
        .collect()
}

/// Time `f` in wall and CPU seconds, adding both to the pass totals.
fn timed<T>(r: &mut PassReport, slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let cpu = sys::cpu_seconds();
    let t = Instant::now();
    let out = f();
    let s = t.elapsed().as_secs_f64();
    r.cpu_s += sys::cpu_seconds() - cpu;
    r.wall_s += s;
    *slot += s;
    out
}

/// The paper's measurement path over stored traces, one file at a time:
/// decode, summarize every registered metric, union, validate, window.
/// Only these calls are timed; the checks between them are not.
fn analyze(dir: &Path, started: Instant) -> Result<PassReport, String> {
    let mut r = PassReport::default();
    let manifest = load_manifest(dir)?;
    let tdir = inputs::trace_dir(dir);
    r.setup_s = started.elapsed().as_secs_f64();

    let mut a = Analysis::default();
    let mut rendered = String::new();
    for (name, digest, records) in &manifest {
        r.attempted += 1;
        let path = tdir.join(name);
        let mut decode_s = 0.0;
        let trace = match timed(&mut r, &mut decode_s, || {
            bps_trace::format::load_path(&path)
        }) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("warning: {name}: unusable trace: {e}");
                r.failed += 1;
                continue;
            }
        };
        a.decode_s += decode_s;
        let encoded = bps_trace::format::to_binary(&trace);
        if inputs::fnv1a(&encoded) != *digest || trace.len() as u64 != *records {
            r.problems.push(format!(
                "{name}: decoded trace differs from the one simulated at set-up"
            ));
        }
        a.records += trace.len() as u64;
        a.bytes += encoded.len() as u64;
        a.files += 1;
        let summary = timed(&mut r, &mut a.summary_s, || {
            MetricsSummary::from_trace(&trace)
        });
        let union = timed(&mut r, &mut a.union_s, || {
            trace.overlapped_io_time(Layer::Application)
        });
        let findings = timed(&mut r, &mut a.validate_s, || {
            bps_trace::validate::validate(&trace)
        });
        let series = timed(&mut r, &mut a.window_s, || {
            bps_core::window::windowed_series(&trace, Dur::from_millis(100))
        });
        if !bps_trace::validate::is_usable(&findings) {
            eprintln!("warning: {name}: validation found errors");
            r.failed += 1;
        }
        rendered.push_str(&format!("# {name}\n{summary}union {union:?}\n"));
        for f in &findings {
            rendered.push_str(&format!("{f}\n"));
        }
        for p in &series {
            rendered.push_str(&format!(
                "{:?} {:?} {}\n",
                p.io_time, p.bps, p.active_requests
            ));
        }
    }
    r.digest = format!("{:016x}", inputs::fnv1a(rendered.as_bytes()));
    r.analysis = Some(a);
    Ok(r)
}
