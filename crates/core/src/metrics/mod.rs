//! I/O performance metrics (paper §II and §III).
//!
//! Four metrics from the paper:
//!
//! | Metric | Definition here | Layer | Expected CC vs exec time (Table 1) |
//! |---|---|---|---|
//! | [`Iops`] | application ops / overlapped app I/O time | Application | negative |
//! | [`Bandwidth`] | bytes actually moved / overlapped FS I/O time | FileSystem | negative |
//! | [`Arpt`] | mean per-request response time | Application | positive |
//! | [`Bps`] | required 512 B blocks / overlapped app I/O time | Application | negative |
//!
//! Bandwidth deliberately measures the layer *below* the middleware
//! optimizations — "bandwidth measures the performance of the underlying
//! file systems but BPS measures the performance of the I/O systems" — which
//! is exactly why it correlates in the wrong direction once data sieving
//! moves more data than the application asked for (paper Fig. 12). When a
//! trace carries no file-system-layer records (e.g. a plain POSIX trace from
//! the real-file tracer), bandwidth falls back to the application layer,
//! where it equals `BPS × 512`.
//!
//! [`extended`] adds diagnostics beyond the paper (latency percentiles,
//! effective parallelism, I/O efficiency) used by the ablation studies.
//!
//! # One streaming abstraction
//!
//! Every metric — the paper four *and* the extended diagnostics — is a
//! stateless unit struct implementing [`MetricFold`]: the stream state
//! lives in one shared accumulator ([`StreamingMetrics`], fed per record
//! via [`RecordSink::on_record`](crate::sink::RecordSink::on_record) or in
//! batches via [`RecordSink::push_batch`](crate::sink::RecordSink::push_batch)),
//! and [`MetricFold::finish`] reads the final value out of it. The batch
//! path [`Metric::compute`] is a *default method* that folds a
//! materialized trace through the same accumulator, so the streaming path
//! is the single source of truth: there is exactly one definition of each
//! metric in the codebase.
//!
//! Metrics are looked up by name through the [`MetricRegistry`]
//! ([`registry`]); a [`MetricSelection`] is a validated, registry-ordered
//! subset that reports and scenario files can carry around. Adding a
//! metric means implementing [`MetricFold`] in one file and adding one
//! entry to the registry table.

mod arpt;
mod bandwidth;
mod bps;
pub mod extended;
mod iops;

pub use arpt::Arpt;
pub use bandwidth::Bandwidth;
pub use bps::Bps;
pub use iops::Iops;

use crate::sink::StreamingMetrics;
use crate::trace::Trace;
use extended::{EffectiveParallelism, IoEfficiency, LatencyPercentile, MaxQueueDepth};
use std::fmt;

/// The correlation direction a *well-behaved* metric should exhibit against
/// application execution time (paper Table 1): throughput-like metrics
/// should fall as execution time rises (negative), latency-like metrics
/// should rise with it (positive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Higher metric ⇒ lower execution time expected.
    Negative,
    /// Higher metric ⇒ higher execution time expected.
    Positive,
}

impl Direction {
    /// +1.0 for `Positive`, −1.0 for `Negative`; multiplying a raw CC by
    /// this sign yields the paper's normalized CC (positive iff the observed
    /// direction matches the expected one).
    pub fn sign(self) -> f64 {
        match self {
            Direction::Negative => -1.0,
            Direction::Positive => 1.0,
        }
    }
}

/// Extra stream state a metric needs [`StreamingMetrics`] to keep beyond
/// the constant-size core accumulators. The paper four need nothing; the
/// latency percentiles need every application response time, and the queue
/// depth needs a sweep over the application intervals. A sink only pays
/// for what the selected metrics ask for ([`MetricSelection::needs`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldNeeds {
    /// Retain each application record's response time (percentiles).
    pub app_durations: bool,
    /// Sweep the application queue depth behind the watermark.
    pub app_depth: bool,
}

impl FoldNeeds {
    /// No retained per-record state: the constant-space streaming core.
    pub const NONE: FoldNeeds = FoldNeeds {
        app_durations: false,
        app_depth: false,
    };

    /// Everything any registered metric could ask for.
    pub const ALL: FoldNeeds = FoldNeeds {
        app_durations: true,
        app_depth: true,
    };

    /// The union of two needs.
    pub fn union(self, other: FoldNeeds) -> FoldNeeds {
        FoldNeeds {
            app_durations: self.app_durations || other.app_durations,
            app_depth: self.app_depth || other.app_depth,
        }
    }
}

/// A scalar I/O performance metric as a fold over a record stream.
///
/// Implementors are stateless unit structs: the per-record update lives
/// in the shared [`StreamingMetrics`] accumulator (so the interval union, counts
/// and sums are maintained once, not once per metric), and
/// [`MetricFold::finish`] reads the metric's value out of the accumulated
/// state. [`FoldNeeds`] declares any retained per-record state the finish
/// step requires.
pub trait MetricFold: Send + Sync {
    /// Short display name ("BPS", "IOPS", ...). Registry lookup is
    /// case-insensitive on this name.
    fn name(&self) -> &'static str;

    /// Expected correlation direction against execution time (Table 1).
    fn expected_direction(&self) -> Direction;

    /// Unit string for reports.
    fn unit(&self) -> &'static str {
        ""
    }

    /// One-line description for `reproduce metrics` and docs.
    fn describe(&self) -> &'static str {
        ""
    }

    /// Extra stream state this metric needs the accumulator to retain.
    fn needs(&self) -> FoldNeeds {
        FoldNeeds::NONE
    }

    /// Read the metric out of the accumulated stream state, or `None` when
    /// the stream has no relevant records (or the accumulator was built
    /// without this metric's [`FoldNeeds`]).
    fn finish(&self, acc: &StreamingMetrics) -> Option<f64>;

    /// Column header in case tables ("BW(MB/s)"); defaults to the name.
    fn col_label(&self) -> &'static str {
        self.name()
    }

    /// Decimal places for case-table cells.
    fn col_precision(&self) -> usize {
        3
    }

    /// Column name in CSV exports ("bw_mbs").
    fn csv_label(&self) -> &'static str;
}

/// Batch evaluation of a [`MetricFold`] over a materialized trace.
///
/// `compute` is a provided method that folds the trace's records through a
/// fresh [`StreamingMetrics`] accumulator and finishes the fold — the
/// streaming path is the single definition of every metric. The blanket
/// impl makes every `MetricFold` (and `dyn MetricFold`) a `Metric`.
pub trait Metric: MetricFold {
    /// Compute the metric from a trace, or `None` when the trace has no
    /// relevant records (an empty trace has no meaningful throughput or
    /// latency).
    fn compute(&self, trace: &Trace) -> Option<f64> {
        let mut acc = StreamingMetrics::with_needs(self.needs());
        trace.replay(&mut acc);
        self.finish(&acc)
    }
}

impl<T: MetricFold + ?Sized> Metric for T {}

/// The name-keyed table of every registered metric: the paper four in
/// figure order (IOPS, BW, ARPT, BPS), then the extended diagnostics.
pub struct MetricRegistry {
    entries: &'static [&'static dyn MetricFold],
    paper_len: usize,
}

/// The registry's backing table. Order is API: reports and CSV exports
/// render selections in this order, and the paper four must stay first in
/// the order the paper's figures plot them.
static ENTRIES: [&dyn MetricFold; 9] = [
    &Iops,
    &Bandwidth,
    &Arpt,
    &Bps,
    &LatencyPercentile::P50,
    &LatencyPercentile::P99,
    &EffectiveParallelism,
    &IoEfficiency,
    &MaxQueueDepth,
];

static REGISTRY: MetricRegistry = MetricRegistry {
    entries: &ENTRIES,
    paper_len: 4,
};

/// The process-wide metric registry.
pub fn registry() -> &'static MetricRegistry {
    &REGISTRY
}

impl MetricRegistry {
    /// Every registered metric, in registry order.
    pub fn all(&self) -> &'static [&'static dyn MetricFold] {
        self.entries
    }

    /// The paper's four metrics, in the order its figures plot them.
    pub fn paper(&self) -> &'static [&'static dyn MetricFold] {
        &self.entries[..self.paper_len]
    }

    /// The extended diagnostics beyond the paper.
    pub fn extended(&self) -> &'static [&'static dyn MetricFold] {
        &self.entries[self.paper_len..]
    }

    /// Look a metric up by name, case-insensitively ("p99" finds `P99`).
    pub fn find(&self, name: &str) -> Option<&'static dyn MetricFold> {
        self.entries
            .iter()
            .copied()
            .find(|m| m.name().eq_ignore_ascii_case(name))
    }

    /// Every registered name, in registry order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|m| m.name()).collect()
    }

    /// The registry listing as one comma-joined line, for error messages.
    pub fn listing(&self) -> String {
        self.names().join(", ")
    }
}

/// The paper's four metrics, in the order its figures plot them
/// (IOPS, BW, ARPT, BPS).
pub fn paper_metrics() -> &'static [&'static dyn MetricFold] {
    registry().paper()
}

/// A metric name that is not in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownMetric {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown metric `{}` (valid metrics: {})",
            self.name,
            registry().listing()
        )
    }
}

impl std::error::Error for UnknownMetric {}

/// A validated subset of the registry, canonicalized to registry order.
///
/// Selections are *sets*: parsing `["BPS", "IOPS", "BW", "ARPT"]` yields
/// the same selection — and therefore byte-identical reports — as the
/// default paper selection, because members are deduplicated and reordered
/// to the registry's order.
#[derive(Clone)]
pub struct MetricSelection {
    metrics: Vec<&'static dyn MetricFold>,
}

impl MetricSelection {
    /// The default selection: the paper's four metrics.
    pub fn paper() -> Self {
        MetricSelection {
            metrics: registry().paper().to_vec(),
        }
    }

    /// Every registered metric.
    pub fn all() -> Self {
        MetricSelection {
            metrics: registry().all().to_vec(),
        }
    }

    /// Resolve names (case-insensitive) against the registry. The result
    /// is deduplicated and canonicalized to registry order; an empty list
    /// yields the paper selection.
    pub fn parse<S: AsRef<str>>(names: &[S]) -> Result<Self, UnknownMetric> {
        if names.is_empty() {
            return Ok(MetricSelection::paper());
        }
        let mut wanted: Vec<&'static str> = Vec::with_capacity(names.len());
        for name in names {
            let m = registry()
                .find(name.as_ref())
                .ok_or_else(|| UnknownMetric {
                    name: name.as_ref().to_string(),
                })?;
            if !wanted.contains(&m.name()) {
                wanted.push(m.name());
            }
        }
        Ok(MetricSelection {
            metrics: registry()
                .all()
                .iter()
                .copied()
                .filter(|m| wanted.contains(&m.name()))
                .collect(),
        })
    }

    /// The selected metrics, in registry order.
    pub fn metrics(&self) -> &[&'static dyn MetricFold] {
        &self.metrics
    }

    /// The selected names, in registry order.
    pub fn names(&self) -> Vec<&'static str> {
        self.metrics.iter().map(|m| m.name()).collect()
    }

    /// Union with metrics named by `names` (already-validated registry
    /// names); the result stays registry-ordered.
    pub fn with_names<S: AsRef<str>>(&self, names: &[S]) -> Result<Self, UnknownMetric> {
        let mut all_names: Vec<String> = self.names().iter().map(|s| s.to_string()).collect();
        all_names.extend(names.iter().map(|s| s.as_ref().to_string()));
        MetricSelection::parse(&all_names)
    }

    /// The union of the selected metrics' [`FoldNeeds`] — what a
    /// [`StreamingMetrics`] must retain to finish all of them.
    pub fn needs(&self) -> FoldNeeds {
        self.metrics
            .iter()
            .fold(FoldNeeds::NONE, |acc, m| acc.union(m.needs()))
    }
}

impl fmt::Debug for MetricSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("MetricSelection")
            .field(&self.names())
            .finish()
    }
}

impl PartialEq for MetricSelection {
    fn eq(&self, other: &Self) -> bool {
        self.names() == other.names()
    }
}

impl Default for MetricSelection {
    fn default() -> Self {
        MetricSelection::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FileId, IoRecord, ProcessId};
    use crate::sink::RecordSink;
    use crate::time::Nanos;

    #[test]
    fn table_1_expected_directions() {
        // Paper Table 1: IOPS negative, Bandwidth negative, ARPT positive,
        // BPS negative.
        assert_eq!(Iops.expected_direction(), Direction::Negative);
        assert_eq!(Bandwidth.expected_direction(), Direction::Negative);
        assert_eq!(Arpt.expected_direction(), Direction::Positive);
        assert_eq!(Bps.expected_direction(), Direction::Negative);
    }

    #[test]
    fn direction_signs() {
        assert_eq!(Direction::Negative.sign(), -1.0);
        assert_eq!(Direction::Positive.sign(), 1.0);
    }

    #[test]
    fn paper_metrics_order_matches_figures() {
        let names: Vec<&str> = paper_metrics().iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["IOPS", "BW", "ARPT", "BPS"]);
    }

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names = registry().names();
        assert_eq!(
            names,
            vec!["IOPS", "BW", "ARPT", "BPS", "P50", "P99", "EffPar", "IOEff", "MaxQD"]
        );
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert!(!a.eq_ignore_ascii_case(b), "duplicate name {a}");
            }
        }
    }

    #[test]
    fn registry_lookup_is_case_insensitive() {
        assert_eq!(registry().find("p99").unwrap().name(), "P99");
        assert_eq!(registry().find("bps").unwrap().name(), "BPS");
        assert_eq!(registry().find("maxqd").unwrap().name(), "MaxQD");
        assert!(registry().find("QPS").is_none());
    }

    #[test]
    fn selection_canonicalizes_to_registry_order() {
        let sel = MetricSelection::parse(&["BPS", "IOPS", "BW", "ARPT"]).unwrap();
        assert_eq!(sel.names(), vec!["IOPS", "BW", "ARPT", "BPS"]);
        assert_eq!(sel, MetricSelection::paper());
        // Duplicates collapse; case is normalized.
        let sel = MetricSelection::parse(&["p99", "bps", "P99"]).unwrap();
        assert_eq!(sel.names(), vec!["BPS", "P99"]);
        assert_ne!(sel, MetricSelection::paper());
    }

    #[test]
    fn empty_selection_is_the_paper_default() {
        let sel = MetricSelection::parse::<&str>(&[]).unwrap();
        assert_eq!(sel, MetricSelection::paper());
    }

    #[test]
    fn unknown_selection_name_lists_the_registry() {
        let e = MetricSelection::parse(&["QPS"]).unwrap_err();
        assert_eq!(e.name, "QPS");
        let shown = e.to_string();
        assert!(shown.contains("unknown metric `QPS`"), "{shown}");
        assert!(shown.contains("IOPS, BW, ARPT, BPS, P50, P99"), "{shown}");
    }

    #[test]
    fn selection_needs_union() {
        assert_eq!(MetricSelection::paper().needs(), FoldNeeds::NONE);
        let sel = MetricSelection::parse(&["p99"]).unwrap();
        assert!(sel.needs().app_durations && !sel.needs().app_depth);
        let sel = MetricSelection::parse(&["p99", "MaxQD"]).unwrap();
        assert_eq!(sel.needs(), FoldNeeds::ALL);
        assert_eq!(MetricSelection::all().needs(), FoldNeeds::ALL);
    }

    #[test]
    fn selection_with_names_unions() {
        let sel = MetricSelection::parse(&["BPS"]).unwrap();
        let sel = sel.with_names(&["p50", "IOPS"]).unwrap();
        assert_eq!(sel.names(), vec!["IOPS", "BPS", "P50"]);
    }

    #[test]
    fn all_metrics_none_on_empty_trace() {
        let t = Trace::new();
        for m in registry().all() {
            assert!(m.compute(&t).is_none(), "{} on empty trace", m.name());
        }
    }

    #[test]
    fn all_metrics_some_on_single_record() {
        let mut t = Trace::new();
        t.push(IoRecord::app_read(
            ProcessId(0),
            FileId(0),
            0,
            4096,
            Nanos::ZERO,
            Nanos(100_000),
        ));
        for m in paper_metrics() {
            let v = m.compute(&t).unwrap();
            assert!(v.is_finite() && v > 0.0, "{} = {v}", m.name());
        }
        // Extended metrics are defined too (ARPT-positive percentiles,
        // parallelism 1.0, efficiency 1.0, depth 1).
        for m in registry().extended() {
            let v = m.compute(&t).unwrap();
            assert!(v.is_finite() && v > 0.0, "{} = {v}", m.name());
        }
    }

    #[test]
    fn compute_default_method_folds_the_trace() {
        // The provided `Metric::compute` and a hand-driven fold agree.
        let mut t = Trace::new();
        t.push(IoRecord::app_read(
            ProcessId(0),
            FileId(0),
            0,
            1 << 20,
            Nanos::ZERO,
            Nanos::from_millis(10),
        ));
        let mut acc = StreamingMetrics::with_needs(FoldNeeds::ALL);
        acc.push_batch(t.records());
        for m in registry().all() {
            assert_eq!(m.compute(&t), m.finish(&acc), "{}", m.name());
        }
    }
}
