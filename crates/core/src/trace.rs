//! Traces: the global collection of I/O records (paper §III.B, Step 2).
//!
//! After each process records its accesses, the methodology "gathers the
//! information of all processes into a global collection". A [`Trace`] is
//! that collection, carrying records from every process and — in this
//! reproduction — from every instrumented layer of the I/O stack.

use crate::interval::{ConcurrencyProfile, Interval, IntervalSet};
use crate::record::{IoOp, IoRecord, Layer, ProcessId};
use crate::time::{Dur, Nanos};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A global, multi-process, multi-layer collection of I/O records, plus the
/// application execution span the metrics are correlated against.
///
/// ```
/// use bps_core::prelude::*;
/// let mut trace = Trace::new();
/// trace.push(IoRecord::app_read(
///     ProcessId(0), FileId(0), 0, 4096,
///     Nanos::ZERO, Nanos::from_micros(100),
/// ));
/// assert_eq!(trace.app_blocks(), 8);
/// assert_eq!(
///     trace.overlapped_io_time(Layer::Application),
///     Dur::from_micros(100),
/// );
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<IoRecord>,
    /// Execution time of the application that produced this trace, if known.
    /// Experiments correlate metrics against this. When absent,
    /// [`Trace::execution_time`] falls back to the span of all records.
    exec_time: Option<Dur>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Build from a vector of records.
    pub fn from_records(records: Vec<IoRecord>) -> Self {
        Trace {
            records,
            exec_time: None,
        }
    }

    /// Append one record.
    pub fn push(&mut self, r: IoRecord) {
        self.records.push(r);
    }

    /// Append a batch of records, preserving their order. One reserve +
    /// memcpy instead of a push per record.
    pub fn extend(&mut self, records: &[IoRecord]) {
        self.records.extend_from_slice(records);
    }

    /// Append all records of another trace (the paper's gather step).
    pub fn merge(&mut self, other: Trace) {
        self.records.extend(other.records);
        self.exec_time = match (self.exec_time, other.exec_time) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Record the application execution time measured alongside this trace.
    pub fn set_execution_time(&mut self, t: Dur) {
        self.exec_time = Some(t);
    }

    /// The execution time recorded with [`Trace::set_execution_time`], if
    /// any.
    pub fn recorded_execution_time(&self) -> Option<Dur> {
        self.exec_time
    }

    /// Application execution time: the explicitly recorded value if set,
    /// otherwise the wall span from the first record start to the last end.
    pub fn execution_time(&self) -> Dur {
        self.exec_time.unwrap_or_else(|| {
            let Some(first) = self.records.first() else {
                return Dur::ZERO;
            };
            let (start, end) = self
                .records
                .iter()
                .fold((first.start, first.end), |(s, e), r| {
                    (s.min(r.start), e.max(r.end))
                });
            end - start
        })
    }

    /// All records, in insertion order.
    pub fn records(&self) -> &[IoRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records have been collected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterator over records observed at the given layer.
    pub fn layer(&self, layer: Layer) -> impl Iterator<Item = &IoRecord> + '_ {
        self.records.iter().filter(move |r| r.layer == layer)
    }

    /// Iterator over records of a single process at a given layer.
    pub fn process(&self, layer: Layer, pid: ProcessId) -> impl Iterator<Item = &IoRecord> + '_ {
        self.layer(layer).filter(move |r| r.pid == pid)
    }

    /// The distinct process ids present at a layer, sorted.
    pub fn pids(&self, layer: Layer) -> Vec<ProcessId> {
        let set: BTreeSet<ProcessId> = self.layer(layer).map(|r| r.pid).collect();
        set.into_iter().collect()
    }

    /// Number of records at a layer.
    pub fn op_count(&self, layer: Layer) -> u64 {
        self.layer(layer).count() as u64
    }

    /// Total bytes at a layer (what *moved* if `layer` is below the
    /// optimizations, what was *required* at `Layer::Application`).
    pub fn bytes(&self, layer: Layer) -> u64 {
        self.layer(layer).map(|r| r.bytes).sum()
    }

    /// Total 512-byte blocks at a layer. At `Layer::Application` this is the
    /// `B` of the BPS equation: "all the I/O blocks issued from the
    /// application are counted".
    pub fn blocks(&self, layer: Layer) -> u64 {
        self.layer(layer).map(|r| r.blocks()).sum()
    }

    /// Shorthand for the BPS numerator.
    pub fn app_blocks(&self) -> u64 {
        self.blocks(Layer::Application)
    }

    /// Overlapped I/O time `T` at a layer: the union of all in-flight
    /// intervals (paper Figure 2). Idle time excluded, concurrency counted
    /// once.
    pub fn overlapped_io_time(&self, layer: Layer) -> Dur {
        self.busy_periods(layer).total()
    }

    /// Sum of the individual response times at a layer — what ARPT averages
    /// and what a naive (non-overlapped) accounting of `T` would use.
    pub fn summed_io_time(&self, layer: Layer) -> Dur {
        self.layer(layer)
            .fold(Dur::ZERO, |acc, r| acc + r.duration())
    }

    /// The merged busy periods at a layer.
    pub fn busy_periods(&self, layer: Layer) -> IntervalSet {
        IntervalSet::from_unsorted(self.layer(layer).map(|r| r.interval()))
    }

    /// The concurrency (queue-depth) profile at a layer.
    pub fn concurrency(&self, layer: Layer) -> ConcurrencyProfile {
        ConcurrencyProfile::from_intervals(self.layer(layer).map(|r| r.interval()))
    }

    /// All in-flight intervals at a layer, unmerged.
    pub fn intervals(&self, layer: Layer) -> Vec<Interval> {
        self.layer(layer).map(|r| r.interval()).collect()
    }

    /// Keep only records satisfying the predicate.
    pub fn retain<F: FnMut(&IoRecord) -> bool>(&mut self, f: F) {
        self.records.retain(f);
    }

    /// A new trace containing only records of the given op at a layer.
    pub fn filter_op(&self, layer: Layer, op: IoOp) -> Trace {
        Trace {
            records: self.layer(layer).filter(|r| r.op == op).copied().collect(),
            exec_time: self.exec_time,
        }
    }

    /// Sort records by (start, end) — the first half of the paper's
    /// Figure 3 algorithm. Metrics do not require sorted input, but
    /// serialized traces are friendlier to inspect sorted.
    pub fn sort_by_start(&mut self) {
        self.records.sort_unstable_by_key(|r| (r.start, r.end));
    }

    /// Earliest record start, if any.
    pub fn first_start(&self) -> Option<Nanos> {
        self.records.iter().map(|r| r.start).min()
    }

    /// Latest record end, if any.
    pub fn last_end(&self) -> Option<Nanos> {
        self.records.iter().map(|r| r.end).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FileId;

    fn rec(pid: u32, layer: Layer, offset: u64, bytes: u64, s_us: u64, e_us: u64) -> IoRecord {
        IoRecord::new(
            ProcessId(pid),
            IoOp::Read,
            FileId(0),
            offset,
            bytes,
            Nanos::from_micros(s_us),
            Nanos::from_micros(e_us),
            layer,
        )
    }

    fn sample() -> Trace {
        let mut t = Trace::new();
        // App layer: two processes, partially overlapping.
        t.push(rec(0, Layer::Application, 0, 4096, 0, 100));
        t.push(rec(1, Layer::Application, 4096, 4096, 50, 150));
        // FS layer moved more data (e.g. sieving holes).
        t.push(rec(0, Layer::FileSystem, 0, 16384, 0, 100));
        t
    }

    #[test]
    fn layer_separation() {
        let t = sample();
        assert_eq!(t.op_count(Layer::Application), 2);
        assert_eq!(t.op_count(Layer::FileSystem), 1);
        assert_eq!(t.bytes(Layer::Application), 8192);
        assert_eq!(t.bytes(Layer::FileSystem), 16384);
        assert_eq!(t.app_blocks(), 16);
    }

    #[test]
    fn overlapped_vs_summed_time() {
        let t = sample();
        assert_eq!(
            t.overlapped_io_time(Layer::Application),
            Dur::from_micros(150)
        );
        assert_eq!(t.summed_io_time(Layer::Application), Dur::from_micros(200));
    }

    #[test]
    fn execution_time_falls_back_to_span() {
        let mut t = sample();
        assert_eq!(t.execution_time(), Dur::from_micros(150));
        t.set_execution_time(Dur::from_micros(500));
        assert_eq!(t.execution_time(), Dur::from_micros(500));
        assert_eq!(Trace::new().execution_time(), Dur::ZERO);
    }

    #[test]
    fn merge_gathers_processes() {
        let mut a = Trace::new();
        a.push(rec(0, Layer::Application, 0, 512, 0, 10));
        a.set_execution_time(Dur::from_micros(10));
        let mut b = Trace::new();
        b.push(rec(1, Layer::Application, 0, 512, 20, 30));
        b.set_execution_time(Dur::from_micros(30));
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.pids(Layer::Application), vec![ProcessId(0), ProcessId(1)]);
        assert_eq!(a.execution_time(), Dur::from_micros(30));
        // Idle gap [10,20) excluded from overlapped time.
        assert_eq!(
            a.overlapped_io_time(Layer::Application),
            Dur::from_micros(20)
        );
    }

    #[test]
    fn filter_and_retain() {
        let mut t = sample();
        t.push(IoRecord::app_write(
            ProcessId(0),
            FileId(0),
            0,
            1024,
            Nanos::from_micros(200),
            Nanos::from_micros(210),
        ));
        let reads = t.filter_op(Layer::Application, IoOp::Read);
        assert_eq!(reads.len(), 2);
        let writes = t.filter_op(Layer::Application, IoOp::Write);
        assert_eq!(writes.len(), 1);
        t.retain(|r| r.layer == Layer::Application);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn busy_periods_and_concurrency() {
        let t = sample();
        let periods = t.busy_periods(Layer::Application);
        assert_eq!(periods.period_count(), 1);
        let prof = t.concurrency(Layer::Application);
        assert_eq!(prof.max_depth, 2);
    }

    #[test]
    fn sort_by_start_orders_records() {
        let mut t = Trace::new();
        t.push(rec(0, Layer::Application, 0, 512, 100, 110));
        t.push(rec(0, Layer::Application, 0, 512, 0, 10));
        t.sort_by_start();
        assert!(t.records()[0].start < t.records()[1].start);
        assert_eq!(t.first_start(), Some(Nanos::ZERO));
        assert_eq!(t.last_end(), Some(Nanos::from_micros(110)));
    }
}
