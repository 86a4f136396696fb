//! Streaming record observers.
//!
//! The paper notes the BPS calculation "can be overlapped with data
//! accesses": nothing in `B / T` requires holding the full trace. A
//! [`RecordSink`] receives each [`IoRecord`] as the access completes;
//! [`Trace`] implements it by materializing records as before, while
//! [`StreamingMetrics`] folds each record into constant-size accumulators
//! — per-layer counts, byte/block sums, summed response time, and an
//! [`IntervalSet`] for the overlapped time — and reproduces the four paper
//! metrics bit-for-bit without ever storing a record. It has one fold,
//! [`RecordSink::on_record`]; its batch entry points are the trait
//! defaults that loop over it. The simulated cluster calls `on_record` as
//! each access completes. A producer that knows how far its clock has
//! advanced says so through [`RecordSink::on_watermark`], which lets the
//! union drop busy periods no later record can touch. A simulated run supplies watermarks from its
//! engine clock; a stored trace supplies its own through
//! [`Trace::replay`].

use crate::batch::RecordBatch;
use crate::interval::{DepthSweep, IntervalSet};
use crate::metrics::{Arpt, Bandwidth, Bps, FoldNeeds, Iops, MetricFold, MetricSelection};
use crate::record::{IoRecord, Layer};
use crate::time::{Dur, Nanos};
use crate::trace::Trace;

/// Observer fed one record per completed I/O access.
///
/// Implementations must not assume records arrive sorted: layers interleave
/// and concurrent processes complete out of order. They *may* exploit that
/// start times are usually nondecreasing (as [`IntervalSet::insert`] does).
pub trait RecordSink {
    /// Observe one completed access.
    fn on_record(&mut self, record: &IoRecord);

    /// Observe a batch of completed accesses, in completion order.
    ///
    /// Must be observationally identical to calling
    /// [`RecordSink::on_record`] once per record in order (the default
    /// does exactly that). [`Trace::replay`] feeds a stored trace through
    /// this entry point in blocks; [`Trace`] overrides it with one bulk
    /// copy.
    fn push_batch(&mut self, records: &[IoRecord]) {
        for r in records {
            self.on_record(r);
        }
    }

    /// Observe a structure-of-arrays batch of completed accesses, in
    /// completion order.
    ///
    /// Must be observationally identical to calling
    /// [`RecordSink::on_record`] once per row in order, which is what the
    /// default does. The simulated producers call
    /// [`RecordSink::on_record`] as each access completes.
    fn push_columns(&mut self, batch: &RecordBatch) {
        for i in 0..batch.len() {
            self.on_record(&batch.get(i));
        }
    }

    /// Observe the application execution time measured alongside the run.
    /// Called at most once, after the last record. The default ignores it.
    fn on_execution_time(&mut self, t: Dur) {
        let _ = t;
    }

    /// Promise that no record delivered after this call starts before `t`.
    ///
    /// A producer driven by a simulation clock knows this: the engine
    /// wakes processes in time order, and a record starts no earlier than
    /// the wake that issues it or the still-open call it closes. A sink
    /// may use the promise to drop state only an earlier record could
    /// touch, as [`StreamingMetrics`] does with busy periods that ended
    /// before `t`. The promise must hold: a sink that relied on it panics
    /// on the first record breaking it rather than folding a wrong value.
    /// Watermarks never decrease. The default ignores them, and so does
    /// [`Trace`], which keeps every record anyway. [`Trace::replay`]
    /// emits them for a stored trace.
    fn on_watermark(&mut self, t: Nanos) {
        let _ = t;
    }
}

impl RecordSink for Trace {
    fn on_record(&mut self, record: &IoRecord) {
        self.push(*record);
    }

    fn push_batch(&mut self, records: &[IoRecord]) {
        self.extend(records);
    }

    fn on_execution_time(&mut self, t: Dur) {
        self.set_execution_time(t);
    }
}

/// Busy periods a layer union retains before a watermark drops the ones
/// behind it: the drop runs about once per this many new periods instead
/// of on every wake, and the retained spans stay a constant. Out-of-order
/// inserts on the bundled sweeps reach back at most 4 spans, well inside.
const RETAINED_SPANS: usize = 64;

/// Constant-size accumulator for one observation layer.
#[derive(Debug, Clone, Default)]
struct LayerAcc {
    ops: u64,
    bytes: u64,
    blocks: u64,
    summed: Dur,
    union: IntervalSet,
}

impl LayerAcc {
    fn observe(&mut self, r: &IoRecord) {
        self.ops += 1;
        self.bytes += r.bytes;
        self.blocks += r.blocks();
        self.summed += r.duration();
        self.union.insert(r.interval());
    }

    fn on_watermark(&mut self, t: Nanos) {
        if self.union.period_count() > RETAINED_SPANS {
            self.union.forget_before(t);
        }
    }
}

/// The shared stream accumulator every [`MetricFold`] finishes from.
///
/// Equivalent to collecting a [`Trace`] and calling `Metric::compute` on
/// it, without storing records for any selection whose [`FoldNeeds`] is
/// [`FoldNeeds::NONE`] — the default, and all the paper four need. The
/// counters are constant-size; each layer's interval union keeps one span
/// per disjoint busy period, which on a stream of requests that never
/// touch is one span per request. A producer that emits
/// [`RecordSink::on_watermark`] bounds that: once a union retains more
/// than 64 spans, the spans ending before the watermark are dropped with
/// their measure kept. A simulated run's engine clock and a stored trace
/// replayed through [`Trace::replay`] both emit watermarks, so either
/// holds the spans of its busy frontier, not of its whole run. A producer
/// that never emits one leaves the unions growing with the busy periods.
///
/// Every core accumulator is integer-valued (counts, bytes,
/// blocks, nanoseconds), so the final floating-point divisions see exactly
/// the operands the trace-based path computes: results are bit-for-bit
/// equal, not merely close.
///
/// Metrics that need more state declare it via [`MetricFold::needs`]: the
/// latency percentiles keep every application response time, and the
/// queue depth runs a sweep that holds the application intervals no
/// watermark has passed plus the ones in flight. Build the sink with
/// [`StreamingMetrics::with_needs`] or
/// [`StreamingMetrics::for_selection`] and only the requested state is
/// kept.
#[derive(Debug, Clone, Default)]
pub struct StreamingMetrics {
    app: LayerAcc,
    fs: LayerAcc,
    device_ops: u64,
    net_ops: u64,
    retry_ops: u64,
    first_start: Option<Nanos>,
    last_end: Option<Nanos>,
    exec_time: Option<Dur>,
    records: u64,
    /// Application response times in arrival order, when requested.
    app_durations: Option<Vec<Dur>>,
    /// The application queue-depth sweep, when requested.
    app_depth: Option<DepthSweep>,
}

impl StreamingMetrics {
    /// Fresh accumulators retaining the per-record state `needs` asks for.
    pub fn with_needs(needs: FoldNeeds) -> Self {
        StreamingMetrics {
            app_durations: needs.app_durations.then(Vec::new),
            app_depth: needs.app_depth.then(DepthSweep::default),
            ..StreamingMetrics::default()
        }
    }

    /// Fresh accumulators able to finish every metric in `selection`.
    pub fn for_selection(selection: &MetricSelection) -> Self {
        StreamingMetrics::with_needs(selection.needs())
    }

    /// `BPS = B / T` (equation (1)): application blocks over overlapped
    /// application I/O time. `None` on an empty or zero-time stream.
    pub fn bps(&self) -> Option<f64> {
        Bps.finish(self)
    }

    /// Application operations over overlapped application I/O time.
    pub fn iops(&self) -> Option<f64> {
        Iops.finish(self)
    }

    /// Bytes moved through the file system over overlapped FS I/O time, in
    /// MB/s; falls back to the application layer when the FS layer was not
    /// instrumented.
    pub fn bandwidth(&self) -> Option<f64> {
        Bandwidth.finish(self)
    }

    /// Average response time per application operation, seconds.
    pub fn arpt(&self) -> Option<f64> {
        Arpt.finish(self)
    }

    /// Application execution time: the explicitly observed value if any,
    /// otherwise the wall span over all records (all layers), as
    /// [`Trace::execution_time`] defines it.
    pub fn execution_time(&self) -> Dur {
        self.exec_time
            .unwrap_or(match (self.first_start, self.last_end) {
                (Some(s), Some(e)) => e - s,
                _ => Dur::ZERO,
            })
    }

    /// Overlapped I/O time at a layer (the `T` of equation (1) when
    /// `layer` is `Application`). Zero for `Device`, `Network` and
    /// `Retry`: the streaming path tracks the layers the metrics read.
    pub fn overlapped_io_time(&self, layer: Layer) -> Dur {
        match layer {
            Layer::Application => self.app.union.total(),
            Layer::FileSystem => self.fs.union.total(),
            Layer::Device | Layer::Network | Layer::Retry => Dur::ZERO,
        }
    }

    /// Records observed at a layer.
    pub fn op_count(&self, layer: Layer) -> u64 {
        match layer {
            Layer::Application => self.app.ops,
            Layer::FileSystem => self.fs.ops,
            Layer::Device => self.device_ops,
            Layer::Network => self.net_ops,
            Layer::Retry => self.retry_ops,
        }
    }

    /// Bytes observed at a layer. Zero for `Device`, `Network` and
    /// `Retry`.
    pub fn bytes(&self, layer: Layer) -> u64 {
        match layer {
            Layer::Application => self.app.bytes,
            Layer::FileSystem => self.fs.bytes,
            Layer::Device | Layer::Network | Layer::Retry => 0,
        }
    }

    /// 512-byte blocks observed at a layer. Zero for `Device`, `Network`
    /// and `Retry`.
    pub fn blocks(&self, layer: Layer) -> u64 {
        match layer {
            Layer::Application => self.app.blocks,
            Layer::FileSystem => self.fs.blocks,
            Layer::Device | Layer::Network | Layer::Retry => 0,
        }
    }

    /// Summed (non-overlapped) response time at a layer. Zero for
    /// `Device`, `Network` and `Retry`.
    pub fn summed_io_time(&self, layer: Layer) -> Dur {
        match layer {
            Layer::Application => self.app.summed,
            Layer::FileSystem => self.fs.summed,
            Layer::Device | Layer::Network | Layer::Retry => Dur::ZERO,
        }
    }

    /// Application response times in arrival order; `None` unless the sink
    /// was built with [`FoldNeeds::app_durations`].
    pub fn app_durations(&self) -> Option<&[Dur]> {
        self.app_durations.as_deref()
    }

    /// Peak number of simultaneously in-flight application requests, as
    /// [`crate::interval::max_depth`] counts them; `None` unless the sink
    /// was built with [`FoldNeeds::app_depth`].
    pub fn app_queue_depth(&self) -> Option<u32> {
        self.app_depth.as_ref().map(DepthSweep::peak)
    }

    /// Total records observed across all layers.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// True before the first record.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Retain the per-record state requested at construction for one
    /// application record. Both branches are untaken (and predictable) in
    /// the default constant-space configuration.
    #[inline]
    fn retain_app(&mut self, r: &IoRecord) {
        if let Some(durs) = &mut self.app_durations {
            durs.push(r.duration());
        }
        if let Some(depth) = &mut self.app_depth {
            depth.push(r.interval());
        }
    }
}

impl RecordSink for StreamingMetrics {
    fn on_record(&mut self, record: &IoRecord) {
        self.records += 1;
        self.first_start = Some(match self.first_start {
            Some(s) => s.min(record.start),
            None => record.start,
        });
        self.last_end = Some(match self.last_end {
            Some(e) => e.max(record.end),
            None => record.end,
        });
        match record.layer {
            Layer::Application => {
                self.app.observe(record);
                self.retain_app(record);
            }
            Layer::FileSystem => self.fs.observe(record),
            Layer::Device => self.device_ops += 1,
            Layer::Network => self.net_ops += 1,
            Layer::Retry => self.retry_ops += 1,
        }
    }

    fn on_execution_time(&mut self, t: Dur) {
        self.exec_time = Some(t);
    }

    /// Drop the busy periods that ended before `t` from the application
    /// and file-system unions, once either retains more than 64, and
    /// sweep the queue depth up to `t`. A dropped span ends before every
    /// later record starts, so it could never merge with one: `T` at both
    /// layers, and every metric, stay bit-identical.
    fn on_watermark(&mut self, t: Nanos) {
        self.app.on_watermark(t);
        self.fs.on_watermark(t);
        if let Some(depth) = &mut self.app_depth {
            depth.advance(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Arpt, Bandwidth, Bps, Iops, Metric};
    use crate::record::{FileId, IoOp, ProcessId};

    fn rec(pid: u32, layer: Layer, bytes: u64, s_us: u64, e_us: u64) -> IoRecord {
        IoRecord::new(
            ProcessId(pid),
            IoOp::Read,
            FileId(0),
            0,
            bytes,
            Nanos(s_us * 1_000),
            Nanos(e_us * 1_000),
            layer,
        )
    }

    fn cross_check(records: &[IoRecord]) {
        let mut trace = Trace::new();
        let mut stream = StreamingMetrics::default();
        for r in records {
            trace.on_record(r);
            stream.on_record(r);
        }
        assert_eq!(Bps.compute(&trace), stream.bps());
        assert_eq!(Iops.compute(&trace), stream.iops());
        assert_eq!(Bandwidth.compute(&trace), stream.bandwidth());
        assert_eq!(Arpt.compute(&trace), stream.arpt());
        assert_eq!(trace.execution_time(), stream.execution_time());
    }

    #[test]
    fn matches_trace_on_layered_stream() {
        cross_check(&[
            rec(0, Layer::Application, 4096, 0, 40),
            rec(0, Layer::FileSystem, 8192, 5, 35),
            rec(1, Layer::Application, 512, 20, 90),
            rec(1, Layer::Device, 512, 25, 60),
            rec(0, Layer::Application, 1 << 20, 200, 900),
        ]);
    }

    #[test]
    fn matches_trace_on_empty_and_degenerate_streams() {
        cross_check(&[]);
        // Zero-duration record: BPS/IOPS None, ARPT Some(0).
        cross_check(&[rec(0, Layer::Application, 512, 5, 5)]);
    }

    #[test]
    fn explicit_execution_time_wins() {
        let mut s = StreamingMetrics::default();
        s.on_record(&rec(0, Layer::Application, 512, 0, 10));
        s.on_execution_time(Dur::from_micros(1234));
        assert_eq!(s.execution_time(), Dur::from_micros(1234));
    }

    #[test]
    fn retry_records_do_not_move_the_metrics() {
        let healthy = [
            rec(0, Layer::Application, 4096, 0, 40),
            rec(0, Layer::FileSystem, 4096, 5, 35),
        ];
        let mut plain = StreamingMetrics::default();
        let mut faulted = StreamingMetrics::default();
        for r in &healthy {
            plain.on_record(r);
            faulted.on_record(r);
        }
        faulted.on_record(&rec(0, Layer::Retry, 4096, 5, 20));
        assert_eq!(plain.bps(), faulted.bps());
        assert_eq!(plain.iops(), faulted.iops());
        assert_eq!(plain.bandwidth(), faulted.bandwidth());
        assert_eq!(plain.arpt(), faulted.arpt());
        assert_eq!(faulted.op_count(Layer::Retry), 1);
        assert_eq!(faulted.overlapped_io_time(Layer::Retry), Dur::ZERO);
        // Trace agrees on the retry count (its queries filter by layer).
        cross_check(&[
            rec(0, Layer::Application, 4096, 0, 40),
            rec(0, Layer::Retry, 4096, 5, 20),
        ]);
    }

    #[test]
    fn push_batch_matches_per_record_ingestion() {
        let records = [
            rec(0, Layer::Application, 4096, 0, 40),
            rec(0, Layer::FileSystem, 8192, 5, 35),
            rec(1, Layer::Application, 512, 20, 90),
            rec(1, Layer::Device, 512, 25, 60),
            rec(2, Layer::Retry, 512, 26, 61),
            rec(2, Layer::Network, 512, 27, 58),
            rec(0, Layer::Application, 1 << 20, 200, 900),
            rec(0, Layer::FileSystem, 4096, 210, 890),
        ];
        // `Trace`'s bulk-copy override preserves exact record order.
        let mut t1 = Trace::new();
        for r in &records {
            t1.on_record(r);
        }
        let mut t2 = Trace::new();
        t2.push_batch(&records);
        assert_eq!(t1.records(), t2.records());
    }

    #[test]
    fn sequential_stream_behind_a_watermark_retains_a_constant() {
        let mut stream = StreamingMetrics::default();
        let mut trace = Trace::new();
        for k in 0..100_000u64 {
            // Non-touching: a 1 us gap after every 3 us request.
            let r = rec(0, Layer::Application, 4096, k * 4, k * 4 + 3);
            stream.push_batch(&[r]);
            trace.on_record(&r);
            // The next record starts at (k + 1) * 4 us.
            let next = Nanos(((k + 1) * 4) * 1_000);
            stream.on_watermark(next);
            trace.on_watermark(next);
            assert!(stream.app.union.period_count() <= RETAINED_SPANS);
        }
        assert_eq!(
            stream.overlapped_io_time(Layer::Application),
            Dur::from_micros(100_000 * 3)
        );
        assert_eq!(Bps.compute(&trace), stream.bps());
        assert_eq!(trace.len(), 100_000);
    }

    #[test]
    #[should_panic(expected = "could touch a span forgotten")]
    fn record_behind_a_broken_watermark_panics() {
        let mut stream = StreamingMetrics::default();
        for k in 0..=RETAINED_SPANS as u64 {
            stream.on_record(&rec(0, Layer::FileSystem, 512, k * 10, k * 10 + 5));
        }
        let last_start = RETAINED_SPANS as u64 * 10;
        stream.on_watermark(Nanos(last_start * 1_000));
        // Starts before the watermark and reaches a dropped span.
        stream.on_record(&rec(0, Layer::FileSystem, 512, 3, last_start));
    }
}
