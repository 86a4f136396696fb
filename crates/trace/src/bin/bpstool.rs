//! bpstool — inspect and convert BPS trace files.
//!
//! ```text
//! bpstool summary <trace>            # all registry metrics for a trace file
//! bpstool summary <trace> --metrics BPS,p99   # a selection of them
//! bpstool processes <trace>          # per-process breakdown
//! bpstool timeline <trace> [ms]      # windowed BPS series (default 100 ms)
//! bpstool validate <trace>           # sanity-check a trace
//! bpstool compare <a> <b>            # metrics side by side (--metrics too)
//! bpstool convert <in> <out>         # json <-> binary by extension
//! ```
//!
//! Trace files are `.json` (full fidelity) or `.bpstrc` (the paper's
//! 32-byte-per-record binary format). A `.bpstrc` file streams through one
//! 128 KiB buffer into the decoded trace, so loading it holds the trace
//! and not the file; a `.json` file is read and parsed whole first.

use bps_core::metrics::MetricSelection;
use bps_core::report::MetricsSummary;
use bps_core::time::Dur;
use bps_core::trace::Trace;
use bps_core::window::windowed_series;
use std::path::Path;
use std::process::ExitCode;

/// Most windows `timeline` builds: a day of the default 100 ms windows
/// fits. The series holds a point per window, so a long trace cut into
/// short windows would otherwise try to allocate without bound.
const MAX_WINDOWS: u64 = 1_000_000;

fn load(path: &Path) -> Result<Trace, String> {
    bps_trace::format::load_path(path).map_err(|e| e.to_string())
}

/// Split off a trailing `--metrics <names>` pair, resolving the names
/// against the metric registry; `None` means no flag (caller picks its
/// default selection).
fn take_metrics_flag(args: &mut Vec<String>) -> Result<Option<MetricSelection>, String> {
    let Some(pos) = args.iter().position(|a| a == "--metrics") else {
        return Ok(None);
    };
    let names: Vec<String> = args
        .get(pos + 1)
        .into_iter()
        .flat_map(|list| list.split(','))
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if names.is_empty() {
        return Err("--metrics wants a comma-separated list of metric names".into());
    }
    args.drain(pos..pos + 2);
    let sel = MetricSelection::parse(&names).map_err(|e| e.to_string())?;
    Ok(Some(sel))
}

fn store(trace: &Trace, path: &Path) -> Result<(), String> {
    bps_trace::format::store_path(trace, path).map_err(|e| e.to_string())
}

/// A crude unicode sparkline for the timeline view.
fn sparkline(values: &[Option<f64>]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values
        .iter()
        .flatten()
        .cloned()
        .fold(f64::MIN_POSITIVE, f64::max);
    values
        .iter()
        .map(|v| match v {
            None => ' ',
            Some(x) => BARS[((x / max * 7.0).round() as usize).min(7)],
        })
        .collect()
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics = take_metrics_flag(&mut args)?;
    match args.first().map(String::as_str) {
        Some("summary") => {
            let path = args.get(1).ok_or("summary needs a trace path")?;
            let trace = load(Path::new(path))?;
            println!("{} records", trace.len());
            // Default: every registered metric.
            let summary = match &metrics {
                Some(sel) => MetricsSummary::from_trace_selected(&trace, sel),
                None => MetricsSummary::from_trace(&trace),
            };
            print!("{summary}");
            Ok(())
        }
        Some("processes") => {
            let path = args.get(1).ok_or("processes needs a trace path")?;
            let trace = load(Path::new(path))?;
            println!(
                "{:<6} {:>8} {:>14} {:>12} {:>12} {:>12}",
                "pid", "ops", "bytes", "ARPT(ms)", "io(s)", "BPS"
            );
            for row in bps_core::report::per_process(&trace) {
                println!(
                    "{:<6} {:>8} {:>14} {:>12.3} {:>12.4} {:>12}",
                    row.pid.0,
                    row.ops,
                    row.bytes,
                    row.arpt_s * 1e3,
                    row.io_time_s,
                    row.bps
                        .map(|b| format!("{b:.0}"))
                        .unwrap_or_else(|| "n/a".into()),
                );
            }
            Ok(())
        }
        Some("timeline") => {
            let path = args.get(1).ok_or("timeline needs a trace path")?;
            let window_ms: u64 = match args.get(2) {
                Some(w) => w.parse().map_err(|_| "window must be milliseconds")?,
                None => 100,
            };
            // Zero would be an empty window, and a window past u64
            // nanoseconds would wrap.
            let window = window_ms
                .checked_mul(1_000_000)
                .filter(|&ns| ns > 0)
                .map(Dur)
                .ok_or_else(|| {
                    format!("window must be 1 to {} milliseconds", u64::MAX / 1_000_000)
                })?;
            let trace = load(Path::new(path))?;
            let span = match (trace.first_start(), trace.last_end()) {
                (Some(first), Some(last)) => (last - first).0,
                _ => 0,
            };
            let windows = span.div_ceil(window.0).max(1);
            if windows > MAX_WINDOWS {
                let fits_ms = span.div_ceil(MAX_WINDOWS).div_ceil(1_000_000);
                return Err(format!(
                    "{window_ms} ms windows cut this trace into {windows} windows, more than \
                     {MAX_WINDOWS}; use a window of at least {fits_ms} ms"
                ));
            }
            let series = windowed_series(&trace, window);
            println!("windowed BPS, {window_ms} ms windows:");
            println!(
                "{}",
                sparkline(&series.iter().map(|p| p.bps).collect::<Vec<_>>())
            );
            for p in &series {
                match p.bps {
                    Some(b) => println!(
                        "  {}  {:>12.0} blocks/s  ({} reqs, {} busy)",
                        p.start, b, p.active_requests, p.io_time
                    ),
                    None => println!("  {}  idle", p.start),
                }
            }
            Ok(())
        }
        Some("compare") => {
            let a_path = args.get(1).ok_or("compare needs <a> <b>")?;
            let b_path = args.get(2).ok_or("compare needs <a> <b>")?;
            let sel = metrics.unwrap_or_default();
            let a = MetricsSummary::from_trace_selected(&load(Path::new(a_path))?, &sel);
            let b = MetricsSummary::from_trace_selected(&load(Path::new(b_path))?, &sel);
            let fmt = |v: Option<f64>| v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "n/a".into());
            println!("{:<12} {:>16} {:>16} {:>10}", "metric", "A", "B", "B/A");
            let mut rows: Vec<(String, Option<f64>, Option<f64>)> = sel
                .metrics()
                .iter()
                .map(|m| {
                    (
                        m.col_label().to_string(),
                        a.value(m.name()),
                        b.value(m.name()),
                    )
                })
                .collect();
            rows.push(("exec(s)".into(), Some(a.exec_time_s), Some(b.exec_time_s)));
            for (name, av, bv) in rows {
                let ratio = match (av, bv) {
                    (Some(x), Some(y)) if x != 0.0 => format!("{:.2}x", y / x),
                    _ => "-".into(),
                };
                println!("{name:<12} {:>16} {:>16} {ratio:>10}", fmt(av), fmt(bv));
            }
            Ok(())
        }
        Some("validate") => {
            let path = args.get(1).ok_or("validate needs a trace path")?;
            let trace = load(Path::new(path))?;
            let findings = bps_trace::validate::validate(&trace);
            if findings.is_empty() {
                println!("clean: {} records, no findings", trace.len());
            } else {
                for f in &findings {
                    println!("{f}");
                }
            }
            if bps_trace::validate::is_usable(&findings) {
                Ok(())
            } else {
                Err("trace has errors".into())
            }
        }
        Some("convert") => {
            let from = args.get(1).ok_or("convert needs <in> <out>")?;
            let to = args.get(2).ok_or("convert needs <in> <out>")?;
            let trace = load(Path::new(from))?;
            store(&trace, Path::new(to))?;
            println!("wrote {} records to {to}", trace.len());
            Ok(())
        }
        _ => Err(
            "usage: bpstool <summary|processes|timeline|validate|compare|convert> ...\n\
             trace files: .bpstrc streams into the decoded trace; .json loads whole"
                .to_string(),
        ),
    }
}

/// Give SIGPIPE back its default action, which the Rust runtime sets to
/// ignore: `bpstool timeline t.bpstrc | head` then ends quietly when the
/// reader goes away, where a write to the closed pipe would panic (exit
/// 101).
#[cfg(unix)]
fn restore_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: `signal` takes any signal number and `SIG_DFL`; resetting a
    // disposition touches no memory of this program.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_sigpipe() {}

fn main() -> ExitCode {
    restore_sigpipe();
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bpstool: {e}");
            ExitCode::from(2)
        }
    }
}
