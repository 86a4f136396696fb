//! Running one workload: generate its inputs, run passes in child
//! processes one at a time (a closed loop with one client), check them,
//! and summarize.

use crate::breakdown;
use crate::calib;
use crate::catalog::{self, END_TO_END, PER_LAYER};
use crate::inputs::{self, Sizes, Workload};
use crate::pass::PassReport;
use crate::stats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// A plain run stops at the first pass boundary after `--seconds`, once
/// it has at least this many measured passes.
const MIN_PASSES: usize = 3;

/// Plain/traced pass pairs of a traced run, for `bench.trace_overhead`.
const TRACE_PAIRS: usize = 3;

/// How a run is configured.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload seed every input is generated from.
    pub seed: u64,
    /// How long a plain run keeps starting measured passes.
    pub seconds: f64,
    /// Tiny inputs, one pass, one thread.
    pub sizes: Sizes,
    /// Truncate one stored trace after generating the inputs.
    pub corrupt_trace: bool,
}

/// One metric's summary over the passes of a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricResult {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Median over the samples.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// One sample per measured pass (empty for per-layer metrics).
    pub samples: Vec<f64>,
    /// The samples as measured, before scaling to the reference speed
    /// (empty for metrics that are not scaled).
    pub unscaled: Vec<f64>,
}

/// Everything one run of one workload measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Sweep threads of a measured pass.
    pub threads: u64,
    /// Per-layer (traced) run rather than a plain one.
    pub traced: bool,
    /// Measured passes.
    pub passes: u64,
    /// Every check passed.
    pub correct: bool,
    /// Units or traces attempted over the measured passes.
    pub attempted: u64,
    /// Units or traces that failed.
    pub failed: u64,
    /// Every failed check, one line each.
    pub problems: Vec<String>,
    /// Context for the numbers (ceilings, which tail percentile).
    pub notes: Vec<String>,
    /// The metrics, in catalog order.
    pub metrics: Vec<MetricResult>,
    /// Seconds of each reference sample, taken before and after every
    /// measured pass.
    pub reference_s: Vec<f64>,
}

/// Sweep threads of a measured pass: the machine's parallelism, at most
/// four; one in smoke mode.
pub fn threads(sizes: Sizes) -> usize {
    if sizes.smoke {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Runs passes and checks each against the first one's output.
struct Passes<'a> {
    w: Workload,
    dir: &'a Path,
    reference: Option<String>,
    res: WorkloadResult,
}

impl Passes<'_> {
    /// Run one pass in a fresh child process and check it. `measured`
    /// passes count towards `attempted`/`failed`.
    fn spawn(
        &mut self,
        threads: usize,
        telemetry: bool,
        measured: bool,
    ) -> Result<PassReport, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("pass")
            .arg(self.w.name())
            .arg(self.dir)
            .arg(threads.to_string())
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if telemetry {
            cmd.arg("--telemetry");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start a pass: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "a {} pass exited with {}",
                self.w.name(),
                out.status
            ));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        let r: PassReport =
            serde_json::from_str(line).map_err(|e| format!("unreadable pass report: {e}"))?;
        self.check(&r, threads, measured);
        Ok(r)
    }

    fn check(&mut self, r: &PassReport, threads: usize, measured: bool) {
        let problems = &mut self.res.problems;
        problems.extend(r.problems.iter().cloned());
        match &self.reference {
            None => self.reference = Some(r.digest.clone()),
            Some(d) if *d != r.digest => problems.push(format!(
                "output digest {} at {threads} thread(s) differs from the first pass's {d}",
                r.digest
            )),
            Some(_) => {}
        }
        if self.w == Workload::WarmReplay && measured && r.l2.1 > 0 {
            problems.push(format!("{} case-store misses in a warm pass", r.l2.1));
        }
        if measured {
            self.res.attempted += r.attempted;
            self.res.failed += r.failed;
        }
    }
}

/// Run one workload in `dir`: plain (end-to-end metrics) or traced
/// (per-layer metrics).
pub fn run(w: Workload, opts: &Options, traced: bool, dir: &Path) -> WorkloadResult {
    let threads = threads(opts.sizes);
    let mut p = Passes {
        w,
        dir,
        reference: None,
        res: WorkloadResult {
            workload: w.name().to_string(),
            seed: opts.seed,
            threads: threads as u64,
            traced,
            passes: 0,
            correct: false,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
            reference_s: Vec::new(),
        },
    };
    let outcome = prepare(&mut p, opts, threads).and_then(|()| {
        if traced {
            per_layer(&mut p, opts, threads)
        } else {
            end_to_end(&mut p, opts, threads)
        }
    });
    if let Err(e) = outcome {
        p.res.problems.push(e);
    }
    p.res.correct = p.res.problems.is_empty();
    p.res
}

fn prepare(p: &mut Passes<'_>, opts: &Options, threads: usize) -> Result<(), String> {
    inputs::prepare(p.w, opts.seed, opts.sizes, p.dir)
        .map_err(|e| format!("cannot write inputs: {e}"))?;
    if opts.corrupt_trace && p.w == Workload::TraceAnalyze {
        let first = inputs::files_with_extension(&inputs::trace_dir(p.dir), "bpstrc")
            .map_err(|e| e.to_string())?;
        let path = first.first().ok_or("no trace to truncate")?;
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        std::fs::write(path, &bytes[..bytes.len() / 2]).map_err(|e| e.to_string())?;
    }
    if p.w == Workload::WarmReplay {
        // The cold pass fills the store; its output is what every warm
        // pass must reproduce.
        p.spawn(threads, false, false)?;
    }
    Ok(())
}

fn summary(name: &str, unit: &str, samples: Vec<f64>, unscaled: Vec<f64>) -> MetricResult {
    let (q1, value, q3) = stats::quartiles(&samples);
    MetricResult {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
        q1,
        q3,
        samples,
        unscaled,
    }
}

fn end_to_end(p: &mut Passes<'_>, opts: &Options, threads: usize) -> Result<(), String> {
    if !opts.sizes.smoke {
        // Warm-up at one thread: fills the page cache, and its output must
        // match the measured passes' at `threads`.
        p.spawn(1, false, false)?;
    }
    let start = Instant::now();
    let mut reports = Vec::new();
    let reference_kernels = calib::Reference::new();
    // The kernels run on as many threads as the timed calls keep busy.
    let busy = if p.w.simulates() { threads } else { 1 };
    let mut reference = Vec::new();
    loop {
        reference.push(reference_kernels.sample(busy));
        reports.push(p.spawn(threads, false, true)?);
        reference.push(reference_kernels.sample(busy));
        let enough = start.elapsed().as_secs_f64() >= opts.seconds && reports.len() >= MIN_PASSES;
        if opts.sizes.smoke || enough {
            break;
        }
    }
    p.res.passes = reports.len() as u64;
    // Each pass is scaled by the reference samples taken right before and
    // right after it, so drift within a run cancels too.
    let speed: Vec<f64> = reference
        .chunks(2)
        .map(|pair| (pair[0] + pair[1]) / 2.0 / calib::NOMINAL_S)
        .collect();
    for d in END_TO_END {
        let measured: Vec<f64> = reports
            .iter()
            .map(|r| match d.name {
                "wall_s" => r.wall_s,
                "cpu_s" => r.cpu_s,
                "setup_s" => r.setup_s,
                "peak_rss_mb" => r.peak_rss_mb,
                other => unreachable!("end-to-end metric {other} has no pass field"),
            })
            .collect();
        p.res.metrics.push(if d.unit == "s" {
            let scaled = measured.iter().zip(&speed).map(|(v, k)| v / k).collect();
            summary(d.name, d.unit, scaled, measured)
        } else {
            summary(d.name, d.unit, measured, Vec::new())
        });
    }
    p.res.notes.push(format!(
        "times are scaled to the reference speed: the reference took {:.3} ms here \
         (median of {}) against {:.3} ms nominal; unscaled median wall_s {:.6}, cpu_s {:.6}",
        stats::median(&reference) * 1e3,
        reference.len(),
        calib::NOMINAL_S * 1e3,
        median_of(&reports, |r| r.wall_s),
        median_of(&reports, |r| r.cpu_s),
    ));
    p.res.reference_s = reference;
    Ok(())
}

fn median_of(reports: &[PassReport], f: impl Fn(&PassReport) -> f64) -> f64 {
    stats::median(&reports.iter().map(f).collect::<Vec<_>>())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn per_layer(p: &mut Passes<'_>, opts: &Options, threads: usize) -> Result<(), String> {
    let pairs = if opts.sizes.smoke { 1 } else { TRACE_PAIRS };
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for i in 0..pairs {
        // Alternate which side goes first so drift hits both equally.
        for telemetry in [i % 2 == 1, i % 2 == 0] {
            let r = p.spawn(threads, telemetry, true)?;
            if telemetry {
                traced.push(r)
            } else {
                plain.push(r)
            }
        }
    }
    p.res.passes = plain.len() as u64;
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let mut set = |name: &str, v: f64| {
        let d = catalog::per_layer(name);
        m.insert(d.name, v);
    };

    set(
        "bench.trace_overhead",
        median_of(&traced, |r| r.wall_s) / median_of(&plain, |r| r.wall_s) - 1.0,
    );
    set("experiments.expand_s", median_of(&plain, |r| r.expand_s));
    if let Some(err) = plain[0].bps_cc_err {
        set("model.bps_cc_err", err);
    }
    let tele: Vec<_> = traced.iter().filter_map(|r| r.telemetry.as_ref()).collect();
    let t = tele.last().ok_or("traced passes reported no telemetry")?;
    let c = |name: &str| t.counter(name) as f64;
    set("sim.wakes", c("engine.wakes"));
    set("middleware.retry_attempts", c("retry.attempts"));
    set(
        "sim.fault_events",
        c("fault.device-errors")
            + c("fault.link-losses")
            + c("fault.outage-refusals")
            + c("fault.slowdowns"),
    );
    set("experiments.units", c("sweep.units"));
    set("experiments.failed_units", c("sweep.failures"));
    set(
        "experiments.l1_hit_ratio",
        ratio(
            c("cache.l1.hits"),
            c("cache.l1.hits") + c("cache.l1.misses"),
        ),
    );
    set(
        "experiments.l2_hit_ratio",
        ratio(
            c("cache.l2.hits"),
            c("cache.l2.hits") + c("cache.l2.misses"),
        ),
    );
    let unit_ms: Vec<f64> = tele
        .iter()
        .flat_map(|t| t.unit_ms.iter().copied())
        .collect();
    if !unit_ms.is_empty() {
        set("experiments.unit_ms_p50", stats::median(&unit_ms));
        match stats::tail(&unit_ms, 10) {
            Some((pct, v)) => {
                set("experiments.unit_ms_tail", v);
                p.res.notes.push(format!(
                    "experiments.unit_ms_tail is the {pct} of {} unit spans over {} traced pass(es)",
                    unit_ms.len(),
                    tele.len()
                ));
            }
            None => p.res.notes.push(format!(
                "experiments.unit_ms_tail: {} unit spans, too few for a tail with 10 beyond it",
                unit_ms.len()
            )),
        }
        let effs: Vec<f64> = tele
            .iter()
            .map(|t| {
                ratio(
                    t.unit_ms.iter().sum::<f64>() / 1e3,
                    threads as f64 * t.sweep_s,
                )
            })
            .collect();
        set("experiments.parallel_eff", stats::median(&effs));
    }

    let wakes_each = if opts.sizes.smoke { 200 } else { 20_000 };
    let ceiling = breakdown::wake_ceiling(wakes_each);
    set("sim.wake_ceiling_per_s", ceiling);

    if p.w.simulates() {
        let s = breakdown::split(p.dir)?;
        p.res.problems.extend(s.problems.iter().cloned());
        if Some(&s.digest) != p.reference.as_ref() {
            p.res.problems.push(format!(
                "output digest at 1 thread in-process ({}) differs from the passes' at {threads}",
                s.digest
            ));
        }
        let wakes = c("engine.wakes");
        set("core.fold_s", s.fold_s);
        set(
            "core.ns_per_record",
            ratio(s.fold_s * 1e9, s.records as f64),
        );
        set("core.records", s.records as f64);
        set("core.calls", s.calls as f64);
        set(
            "core.records_per_call",
            ratio(s.records as f64, s.calls as f64),
        );
        set("core.fold_share", ratio(s.fold_s, s.real_s));
        set("core.fold_vs_copy", ratio(s.copy_s, s.fold_s));
        set("stack.self_s", s.stack_s());
        set("stack.ns_per_wake", ratio(s.stack_s() * 1e9, wakes));
        set(
            "stack.us_per_app_op",
            ratio(s.stack_s() * 1e6, s.ops as f64),
        );
        set(
            "fs.ops_per_app_op",
            ratio(s.fs_ops as f64, s.app_ops as f64),
        );
        set(
            "middleware.moved_over_required",
            ratio(s.fs_blocks as f64, s.app_blocks as f64),
        );
        set("workloads.build_s", s.build_s);
        set("workloads.gen_s", s.gen_s);
        set("workloads.ops", s.ops as f64);
        set("topology.build_s", s.topology_s);
        set("bench.breakdown_gap", s.gap());
        p.res.notes.push(format!(
            "split of {} unique units at 1 thread: gen {:.4} + topology {:.4} + stack {:.4} + fold {:.4} = {:.4} s \
             against {:.4} s with a real StreamingMetrics sink (base)",
            s.units,
            s.gen_s,
            s.topology_s,
            s.stack_s(),
            s.fold_s,
            s.discard_s + s.fold_s,
            s.real_s
        ));
        p.res.notes.push(format!(
            "stack.ns_per_wake {:.1} ns against the bare engine loop's {:.1} ns/wake (ceiling {:.3e} wakes/s)",
            ratio(s.stack_s() * 1e9, wakes),
            1e9 / ceiling,
            ceiling
        ));
    }
    if p.w == Workload::WarmReplay {
        let (secs, hits, lookups) = breakdown::lookups(p.dir)?;
        set("experiments.l2_lookup_s", secs);
        p.res.notes.push(format!(
            "{hits} of {lookups} unique content keys hit the case store when looked up one by one"
        ));
        if hits != lookups {
            p.res.problems.push(format!(
                "only {hits} of {lookups} content keys are in the warm store"
            ));
        }
    }
    if p.w == Workload::TraceAnalyze {
        let a: Vec<_> = plain.iter().filter_map(|r| r.analysis.clone()).collect();
        let med = |f: &dyn Fn(&crate::pass::Analysis) -> f64| {
            stats::median(&a.iter().map(f).collect::<Vec<_>>())
        };
        let (records, bytes, files) = (a[0].records as f64, a[0].bytes as f64, a[0].files as f64);
        let summary_s = med(&|a| a.summary_s);
        let decode_s = med(&|a| a.decode_s);
        set("core.summary_s", summary_s);
        set("core.fold_s", summary_s);
        set("core.ns_per_record", ratio(summary_s * 1e9, records));
        set("core.records", records);
        set("core.calls", files);
        set("core.records_per_call", ratio(records, files));
        set(
            "core.fold_share",
            ratio(summary_s, median_of(&plain, |r| r.wall_s)),
        );
        set("core.union_s", med(&|a| a.union_s));
        set("core.window_s", med(&|a| a.window_s));
        set("trace.decode_s", decode_s);
        set("trace.decode_mb_per_s", ratio(bytes / 1e6, decode_s));
        set("trace.validate_s", med(&|a| a.validate_s));
        let (decode_vs_copy, fold_vs_copy) = breakdown::trace_ceilings(p.dir)?;
        set("trace.decode_vs_copy", decode_vs_copy);
        set("core.fold_vs_copy", fold_vs_copy);
    }
    p.res.metrics = PER_LAYER
        .iter()
        .map(|d| {
            let v = m[d.name];
            MetricResult {
                name: d.name.to_string(),
                unit: d.unit.to_string(),
                value: v,
                q1: v,
                q3: v,
                samples: Vec::new(),
                unscaled: Vec::new(),
            }
        })
        .collect();
    Ok(())
}

/// Print a result for people: every metric by name with its unit.
pub fn print(r: &WorkloadResult) {
    println!(
        "== {} ({} run, seed {}, {} thread(s), {} measured pass(es)) ==",
        r.workload,
        if r.traced { "traced" } else { "plain" },
        r.seed,
        r.threads,
        r.passes
    );
    for m in &r.metrics {
        if m.samples.is_empty() {
            println!("  {:<32} {:>14.6} {}", m.name, m.value, m.unit);
        } else {
            println!(
                "  {:<32} {:>14.6} {:<6} q1 {:.6}  q3 {:.6}  n={}",
                m.name,
                m.value,
                m.unit,
                m.q1,
                m.q3,
                m.samples.len()
            );
        }
    }
    println!(
        "  {:<32} {:>14.6} ratio  ({} failed of {} attempted)",
        "error_rate",
        ratio(r.failed as f64, r.attempted as f64),
        r.failed,
        r.attempted
    );
    for n in &r.notes {
        println!("  note: {n}");
    }
    if r.problems.is_empty() {
        println!("  checks: all passed");
    } else {
        for e in &r.problems {
            println!("  CHECK FAILED: {e}");
        }
    }
}
