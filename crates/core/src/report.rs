//! Human-readable summaries of traces: every metric of one trace, and
//! the per-process breakdown.

use crate::interval::IntervalSet;
use crate::metrics::{registry, MetricSelection};
use crate::record::{IoRecord, Layer, ProcessId};
use crate::sink::{RecordSink, StreamingMetrics};
use crate::time::Nanos;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A registry-ordered set of metric values for one trace or record stream,
/// plus the raw counts behind them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSummary {
    /// `(name, value)` per selected metric, in registry order.
    pub metrics: Vec<(String, Option<f64>)>,
    /// Application records.
    pub app_ops: u64,
    /// Application bytes requested.
    pub app_bytes: u64,
    /// Application blocks requested (the `B` of equation (1)).
    pub app_blocks: u64,
    /// Bytes moved at the FS layer (0 when not instrumented).
    pub fs_bytes: u64,
    /// Overlapped application I/O time, seconds (the `T` of equation (1)).
    pub io_time_s: f64,
    /// Application execution time, seconds.
    pub exec_time_s: f64,
}

impl MetricsSummary {
    /// Compute every registered metric from a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        MetricsSummary::from_trace_selected(trace, &MetricSelection::all())
    }

    /// Compute a selection of metrics from a trace, replayed behind its own
    /// watermark ([`Trace::replay`]).
    pub fn from_trace_selected(trace: &Trace, selection: &MetricSelection) -> Self {
        let mut acc = StreamingMetrics::for_selection(selection);
        trace.replay(&mut acc);
        MetricsSummary::from_fold(&acc, selection)
    }

    /// Finish a selection of metrics from a streamed accumulator (which
    /// must have been built with at least the selection's
    /// [`FoldNeeds`](crate::metrics::FoldNeeds)).
    pub fn from_fold(acc: &StreamingMetrics, selection: &MetricSelection) -> Self {
        MetricsSummary {
            metrics: selection
                .metrics()
                .iter()
                .map(|m| (m.name().to_string(), m.finish(acc)))
                .collect(),
            app_ops: acc.op_count(Layer::Application),
            app_bytes: acc.bytes(Layer::Application),
            app_blocks: acc.blocks(Layer::Application),
            fs_bytes: acc.bytes(Layer::FileSystem),
            io_time_s: acc.overlapped_io_time(Layer::Application).as_secs_f64(),
            exec_time_s: acc.execution_time().as_secs_f64(),
        }
    }

    /// The value of a summarized metric by name (case-insensitive); `None`
    /// when not summarized or undefined on this stream.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .and_then(|(_, v)| *v)
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) if x.abs() >= 1000.0 => format!("{x:.1}"),
        Some(x) if x.abs() >= 1.0 => format!("{x:.3}"),
        Some(x) => format!("{x:.6}"),
        None => "n/a".to_string(),
    }
}

impl fmt::Display for MetricsSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.metrics {
            let unit = registry().find(name).map(|m| m.unit()).unwrap_or("");
            writeln!(f, "  {:<11}: {} {}", name, fmt_opt(*value), unit)?;
        }
        writeln!(
            f,
            "  app ops/bytes/blocks: {} / {} / {}",
            self.app_ops, self.app_bytes, self.app_blocks
        )?;
        writeln!(f, "  fs bytes moved      : {}", self.fs_bytes)?;
        writeln!(
            f,
            "  I/O time {:.6} s   exec time {:.6} s",
            self.io_time_s, self.exec_time_s
        )
    }
}

/// Per-process view of a trace: each process's own ops, bytes, summed and
/// overlapped I/O time — the pre-gather state of the paper's Step 1, and
/// the first place to look when one rank is the straggler.
#[derive(Debug, Clone, Serialize)]
pub struct ProcessBreakdown {
    /// The process.
    pub pid: crate::record::ProcessId,
    /// Application ops issued.
    pub ops: u64,
    /// Bytes required.
    pub bytes: u64,
    /// Mean response time, seconds.
    pub arpt_s: f64,
    /// This process's own overlapped I/O time, seconds.
    pub io_time_s: f64,
    /// This process's own BPS over its own I/O time.
    pub bps: Option<f64>,
}

/// One process's running totals in [`per_process`].
struct ProcessAcc {
    pid: ProcessId,
    ops: u64,
    bytes: u64,
    blocks: u64,
    /// Response times in seconds, summed in arrival order from the value
    /// `Iterator::sum` starts at, so the total is the one summing the
    /// process's records would give.
    summed: f64,
    union: IntervalSet,
}

/// Every application process's totals in one pass, each union forgetting
/// behind the replay watermark.
#[derive(Default)]
struct ProcessFold {
    procs: Vec<ProcessAcc>,
    slot_of: HashMap<ProcessId, usize>,
}

impl RecordSink for ProcessFold {
    fn on_record(&mut self, r: &IoRecord) {
        if r.layer != Layer::Application {
            return;
        }
        let procs = &mut self.procs;
        let slot = *self.slot_of.entry(r.pid).or_insert_with(|| {
            procs.push(ProcessAcc {
                pid: r.pid,
                ops: 0,
                bytes: 0,
                blocks: 0,
                summed: std::iter::empty::<f64>().sum(),
                union: IntervalSet::new(),
            });
            procs.len() - 1
        });
        let p = &mut procs[slot];
        p.ops += 1;
        p.bytes += r.bytes;
        p.blocks += r.blocks();
        p.summed += r.duration().as_secs_f64();
        p.union.insert(r.interval());
    }

    fn on_watermark(&mut self, t: Nanos) {
        for p in &mut self.procs {
            p.union.forget_before(t);
        }
    }
}

/// Break a trace down by process at the application layer, sorted by pid.
/// One pass over the trace, whatever the number of processes.
pub fn per_process(trace: &Trace) -> Vec<ProcessBreakdown> {
    let mut fold = ProcessFold::default();
    trace.replay(&mut fold);
    let mut procs = fold.procs;
    procs.sort_unstable_by_key(|p| p.pid);
    procs
        .into_iter()
        .map(|p| {
            let io_time_s = p.union.total().as_secs_f64();
            ProcessBreakdown {
                pid: p.pid,
                ops: p.ops,
                bytes: p.bytes,
                arpt_s: p.summed / p.ops as f64,
                io_time_s,
                bps: (io_time_s > 0.0).then(|| p.blocks as f64 / io_time_s),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FileId, IoRecord, ProcessId};
    use crate::time::{Dur, Nanos};

    /// A family of traces where larger requests finish the same total data
    /// faster.
    fn size_sweep() -> Vec<Trace> {
        let total_bytes: u64 = 1 << 24; // 16 MiB
        [4u64 << 10, 64 << 10, 1 << 20]
            .iter()
            .map(|&record_size| {
                let n = total_bytes / record_size;
                // Per-op cost: 100 us fixed + 10 ns/byte → larger records
                // are far more efficient.
                let per_op = Dur::from_micros(100) + Dur(10 * record_size);
                let mut tr = Trace::new();
                let mut now = Nanos::ZERO;
                for i in 0..n {
                    let end = now + per_op;
                    tr.push(IoRecord::app_read(
                        ProcessId(0),
                        FileId(0),
                        i * record_size,
                        record_size,
                        now,
                        end,
                    ));
                    now = end;
                }
                tr.set_execution_time(now - Nanos::ZERO);
                tr
            })
            .collect()
    }

    #[test]
    fn summary_populates_counts() {
        let tr = &size_sweep()[0];
        let s = MetricsSummary::from_trace(tr);
        assert_eq!(s.app_bytes, 1 << 24);
        assert!(s.value("BPS").unwrap() > 0.0);
        assert!(s.exec_time_s > 0.0);
        assert!((s.value("EffPar").unwrap() - 1.0).abs() < 1e-9);
        // Registry-ordered, one entry per registered metric, looked up
        // case-insensitively.
        let names: Vec<&str> = s.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, crate::metrics::registry().names());
        assert_eq!(s.value("bps"), s.value("BPS"));
        assert!(s.value("QPS").is_none());
        let shown = format!("{s}");
        assert!(shown.contains("BPS"));
        assert!(shown.contains("exec time"));
    }

    #[test]
    fn summary_respects_the_selection() {
        let tr = &size_sweep()[0];
        let sel = MetricSelection::parse(&["p99", "BPS"]).unwrap();
        let s = MetricsSummary::from_trace_selected(tr, &sel);
        let names: Vec<&str> = s.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["BPS", "P99"]);
        assert!(s.value("P99").unwrap() > 0.0);
        // Unselected metrics are absent, not None-valued.
        assert!(s.value("IOPS").is_none());
        // The selected values match the full-registry summary bit-for-bit.
        let full = MetricsSummary::from_trace(tr);
        assert_eq!(s.value("BPS"), full.value("BPS"));
        assert_eq!(s.value("P99"), full.value("P99"));
    }

    #[test]
    fn per_process_breakdown_splits_and_sums() {
        use crate::record::ProcessId;
        let mut tr = Trace::new();
        // pid 0: two sequential 1 MiB reads; pid 1: one concurrent read.
        tr.push(IoRecord::app_read(
            ProcessId(0),
            FileId(0),
            0,
            1 << 20,
            Nanos::ZERO,
            Nanos::from_millis(10),
        ));
        tr.push(IoRecord::app_read(
            ProcessId(0),
            FileId(0),
            1 << 20,
            1 << 20,
            Nanos::from_millis(10),
            Nanos::from_millis(20),
        ));
        tr.push(IoRecord::app_read(
            ProcessId(1),
            FileId(0),
            2 << 20,
            1 << 20,
            Nanos::ZERO,
            Nanos::from_millis(5),
        ));
        let rows = per_process(&tr);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].pid, ProcessId(0));
        assert_eq!(rows[0].ops, 2);
        assert_eq!(rows[0].bytes, 2 << 20);
        assert!((rows[0].io_time_s - 0.020).abs() < 1e-9);
        assert!((rows[0].bps.unwrap() - 4096.0 / 0.020).abs() < 1e-6);
        assert_eq!(rows[1].ops, 1);
        assert!((rows[1].arpt_s - 0.005).abs() < 1e-12);
        // Ops sum to the trace's ops.
        let total: u64 = rows.iter().map(|r| r.ops).sum();
        assert_eq!(total, tr.layer(Layer::Application).count() as u64);
    }

    #[test]
    fn per_process_empty_trace() {
        assert!(per_process(&Trace::new()).is_empty());
    }

    #[test]
    fn summary_on_empty_trace_is_all_none() {
        let s = MetricsSummary::from_trace(&Trace::new());
        assert!(s.metrics.iter().all(|(_, v)| v.is_none()));
        assert_eq!(s.app_ops, 0);
    }
}
