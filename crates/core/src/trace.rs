//! Traces: the global collection of I/O records (paper §III.B, Step 2).
//!
//! After each process records its accesses, the methodology "gathers the
//! information of all processes into a global collection". A [`Trace`] is
//! that collection, carrying records from every process and — in this
//! reproduction — from every instrumented layer of the I/O stack.

use crate::interval::IntervalSet;
use crate::record::{IoRecord, Layer};
use crate::sink::RecordSink;
use crate::time::{Dur, Nanos};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Records [`Trace::replay`] delivers between two watermarks. Large enough
/// that the pass taking block minima and the per-block calls cost little
/// per record, small enough that a sink holds about one block of busy
/// frontier.
const REPLAY_BLOCK: usize = 4096;

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
    /// Taken on first use and dropped by every method that changes the
    /// records. Derived from them, so never serialized.
    #[serde(skip)]
    index: OnceLock<ReplayIndex>,
}

/// What one pass over a trace's records learns for [`Trace::replay`] and
/// the span queries.
#[derive(Debug, Clone)]
struct ReplayIndex {
    /// The watermark before each replay block.
    marks: Vec<Nanos>,
    /// The latest end of any record, `None` for an empty trace.
    last_end: Option<Nanos>,
}

impl ReplayIndex {
    fn of(records: &[IoRecord]) -> Self {
        let mut last_end = Nanos::ZERO;
        let marks = replay_watermarks(records.iter().map(|r| {
            last_end = last_end.max(r.end);
            r.start
        }));
        ReplayIndex {
            last_end: (!records.is_empty()).then_some(last_end),
            marks,
        }
    }
}

/// The watermarks of a record stream replayed in blocks of
/// [`REPLAY_BLOCK`], given its starts in order: the earliest start in each
/// block and every later one. One pass takes each block's minimum, then a
/// suffix minimum runs over those, so the result holds one value per
/// block.
fn replay_watermarks(starts: impl IntoIterator<Item = Nanos>) -> Vec<Nanos> {
    let mut starts = starts.into_iter();
    let mut marks = Vec::new();
    loop {
        let mut block = starts.by_ref().take(REPLAY_BLOCK);
        let Some(first) = block.next() else { break };
        marks.push(block.fold(first, Nanos::min));
    }
    for i in (1..marks.len()).rev() {
        marks[i - 1] = marks[i - 1].min(marks[i]);
    }
    marks
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
            index: OnceLock::new(),
        }
    }

    /// The replay index, taken on first use.
    fn index(&self) -> &ReplayIndex {
        self.index.get_or_init(|| ReplayIndex::of(&self.records))
    }

    /// Append one record.
    pub fn push(&mut self, r: IoRecord) {
        self.index.take();
        self.records.push(r);
    }

    /// Append a batch of records, preserving their order. One reserve +
    /// memcpy instead of a push per record.
    pub fn extend(&mut self, records: &[IoRecord]) {
        self.index.take();
        self.records.extend_from_slice(records);
    }

    /// Record the application execution time measured alongside this trace.
    pub fn set_execution_time(&mut self, t: Dur) {
        self.exec_time = Some(t);
    }

    /// Application execution time: the explicitly recorded value if set,
    /// otherwise the wall span from the first record start to the last end.
    pub fn execution_time(&self) -> Dur {
        self.exec_time
            .unwrap_or_else(|| match (self.first_start(), self.last_end()) {
                (Some(start), Some(end)) => end - start,
                _ => Dur::ZERO,
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

    /// Deliver this trace to a sink as a live producer would: the records
    /// in order, in blocks of 4096 through [`RecordSink::push_batch`], then
    /// the recorded execution time, if any.
    ///
    /// Before each block the trace supplies its own watermark: the
    /// earliest start in that block and every later one, taken in one
    /// pass on the first replay and kept until the records change. The
    /// watermarks never decrease and no later record starts before one,
    /// so a sink that forgets behind them, such as
    /// [`crate::sink::StreamingMetrics`], folds a stored trace in memory
    /// bounded by its busy frontier rather than its length.
    pub fn replay<S: RecordSink + ?Sized>(&self, sink: &mut S) {
        for (block, &mark) in self.records.chunks(REPLAY_BLOCK).zip(&self.index().marks) {
            sink.on_watermark(mark);
            sink.push_batch(block);
        }
        if let Some(t) = self.exec_time {
            sink.on_execution_time(t);
        }
    }

    /// Overlapped I/O time `T` at a layer: the union of all in-flight
    /// intervals (paper Figure 2). Idle time excluded, concurrency counted
    /// once. Folded through [`Trace::replay`], so the union holds only the
    /// busy periods its watermark has not passed.
    pub fn overlapped_io_time(&self, layer: Layer) -> Dur {
        let mut fold = LayerUnion {
            layer,
            union: IntervalSet::new(),
        };
        self.replay(&mut fold);
        fold.union.total()
    }

    /// Sum of the individual response times at a layer — what ARPT averages
    /// and what a naive (non-overlapped) accounting of `T` would use.
    pub fn summed_io_time(&self, layer: Layer) -> Dur {
        self.layer(layer)
            .fold(Dur::ZERO, |acc, r| acc + r.duration())
    }

    /// Keep only records satisfying the predicate.
    pub fn retain<F: FnMut(&IoRecord) -> bool>(&mut self, f: F) {
        self.index.take();
        self.records.retain(f);
    }

    /// Sort records by (start, end) — the first half of the paper's
    /// Figure 3 algorithm. Metrics do not require sorted input, but
    /// serialized traces are friendlier to inspect sorted.
    pub fn sort_by_start(&mut self) {
        self.index.take();
        self.records.sort_unstable_by_key(|r| (r.start, r.end));
    }

    /// Earliest record start, if any.
    pub fn first_start(&self) -> Option<Nanos> {
        // The first watermark is the earliest start of all.
        self.index().marks.first().copied()
    }

    /// Latest record end, if any.
    pub fn last_end(&self) -> Option<Nanos> {
        self.index().last_end
    }
}

/// One layer's union behind the replay watermark.
struct LayerUnion {
    layer: Layer,
    union: IntervalSet,
}

impl RecordSink for LayerUnion {
    fn on_record(&mut self, record: &IoRecord) {
        if record.layer == self.layer {
            self.union.insert(record.interval());
        }
    }

    fn on_watermark(&mut self, t: Nanos) {
        self.union.forget_before(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::record::{FileId, IoOp, ProcessId};

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
        let b = Trace::from_records(vec![rec(1, Layer::Application, 0, 512, 20, 30)]);
        a.extend(b.records());
        assert_eq!(a.len(), 2);
        let pids: Vec<ProcessId> = a.layer(Layer::Application).map(|r| r.pid).collect();
        assert_eq!(pids, vec![ProcessId(0), ProcessId(1)]);
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
        let mut write = rec(0, Layer::Application, 0, 1024, 200, 210);
        write.op = IoOp::Write;
        t.push(write);
        t.retain(|r| r.layer == Layer::Application);
        assert_eq!(t.len(), 3);
        t.retain(|r| r.op == IoOp::Read);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn busy_periods_and_concurrency() {
        let t = sample();
        let app: Vec<Interval> = t.layer(Layer::Application).map(|r| r.interval()).collect();
        let periods = IntervalSet::from_unsorted(app.iter().copied());
        assert_eq!(periods.period_count(), 1);
        let depth = crate::interval::max_depth(&app);
        assert_eq!(depth, 2);
    }

    /// Replay's watermarks never decrease, precede every record they
    /// promise about, and the records arrive whole and in order.
    #[test]
    fn replay_watermarks_bound_every_later_record() {
        struct Probe {
            marks: Vec<Nanos>,
            seen: Vec<IoRecord>,
            exec: Option<Dur>,
        }
        impl RecordSink for Probe {
            fn on_record(&mut self, r: &IoRecord) {
                if let Some(&t) = self.marks.last() {
                    assert!(r.start >= t, "record at {} behind watermark {}", r.start, t);
                }
                self.seen.push(*r);
            }
            fn on_watermark(&mut self, t: Nanos) {
                assert!(self.marks.last().is_none_or(|&m| m <= t));
                self.marks.push(t);
            }
            fn on_execution_time(&mut self, t: Dur) {
                self.exec = Some(t);
            }
        }
        // Completion order: late-starting records finish first, and the
        // very last record starts early, holding every watermark back.
        let n = 3 * REPLAY_BLOCK as u64 + 17;
        let mut t = Trace::new();
        for k in 0..n {
            let s = if k == n - 1 { 5 } else { 10 + (k ^ 3) };
            t.push(rec((k % 4) as u32, Layer::Application, 0, 512, s, s + 20));
        }
        let mut probe = Probe {
            marks: Vec::new(),
            seen: Vec::new(),
            exec: None,
        };
        t.replay(&mut probe);
        assert_eq!(probe.seen, t.records());
        assert_eq!(probe.marks.len(), 4);
        assert!(probe.marks.iter().all(|&m| m == Nanos::from_micros(5)));
        assert_eq!(probe.exec, None);
        t.set_execution_time(Dur::from_micros(99));
        t.replay(&mut probe);
        assert_eq!(probe.exec, Some(Dur::from_micros(99)));
        // An empty trace delivers nothing.
        Trace::new().replay(&mut probe);
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
