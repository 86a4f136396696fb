//! Property tests: the streaming observer path is *exactly* the
//! materialize-then-compute path — bit-for-bit, not approximately.

use bps_core::batch::RecordBatch;
use bps_core::interval::{paper_union_time, Interval, IntervalSet};
use bps_core::metrics::{registry, Arpt, Bandwidth, Bps, FoldNeeds, Iops, Metric};
use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use bps_core::sink::{RecordSink, StreamingMetrics};
use bps_core::time::{Dur, Nanos};
use bps_core::trace::Trace;
use proptest::prelude::*;

/// Random records across all three layers, arbitrary overlap and order.
fn records() -> impl Strategy<Value = Vec<IoRecord>> {
    let one = (
        0u32..4,
        0u64..1_000_000,
        0u64..200_000,
        1u64..1_000_000,
        0usize..6,
    )
        .prop_map(|(pid, start, len, bytes, shape)| {
            let layer = match shape % 3 {
                0 => Layer::Application,
                1 => Layer::FileSystem,
                _ => Layer::Device,
            };
            let op = if shape < 3 { IoOp::Read } else { IoOp::Write };
            IoRecord::new(
                ProcessId(pid),
                op,
                FileId(pid),
                0,
                bytes,
                Nanos(start),
                Nanos(start + len),
                layer,
            )
        });
    proptest::collection::vec(one, 0..60)
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

proptest! {
    /// All four metrics and the execution time agree bit-for-bit between
    /// the streaming accumulators and the materialized trace, on streams
    /// mixing layers, concurrency, and out-of-order completions.
    #[test]
    fn streaming_equals_materialized(recs in records()) {
        let mut trace = Trace::new();
        let mut stream = StreamingMetrics::new();
        for r in &recs {
            trace.on_record(r);
            stream.on_record(r);
        }
        prop_assert_eq!(bits(Bps.compute(&trace)), bits(stream.bps()));
        prop_assert_eq!(bits(Iops.compute(&trace)), bits(stream.iops()));
        prop_assert_eq!(bits(Bandwidth.compute(&trace)), bits(stream.bandwidth()));
        prop_assert_eq!(bits(Arpt.compute(&trace)), bits(stream.arpt()));
        prop_assert_eq!(trace.execution_time(), stream.execution_time());
        prop_assert_eq!(trace.op_count(Layer::Application), stream.op_count(Layer::Application));
        prop_assert_eq!(trace.op_count(Layer::FileSystem), stream.op_count(Layer::FileSystem));
        prop_assert_eq!(trace.op_count(Layer::Device), stream.op_count(Layer::Device));
        prop_assert_eq!(trace.app_blocks(), stream.app_blocks());
        prop_assert_eq!(
            trace.overlapped_io_time(Layer::Application),
            stream.overlapped_io_time(Layer::Application)
        );
    }

    /// An explicitly observed execution time takes precedence identically
    /// on both paths.
    #[test]
    fn streaming_execution_time_override(recs in records(), exec_ns in 1u64..10_000_000) {
        let mut trace = Trace::new();
        let mut stream = StreamingMetrics::new();
        for r in &recs {
            trace.on_record(r);
            stream.on_record(r);
        }
        trace.on_execution_time(Dur(exec_ns));
        stream.on_execution_time(Dur(exec_ns));
        prop_assert_eq!(trace.execution_time(), stream.execution_time());
        prop_assert_eq!(stream.execution_time(), Dur(exec_ns));
    }

    /// The maintained union equals the paper's Figure 3 algorithm after
    /// every single insert, under arbitrary (not just nondecreasing)
    /// arrival order, and its kept total is the measure of its spans.
    #[test]
    fn online_union_equals_sweep(ivs in proptest::collection::vec(
        (0u64..1_000_000, 0u64..100_000), 0..64
    )) {
        let ivs: Vec<Interval> = ivs
            .into_iter()
            .map(|(s, l)| Interval::new(Nanos(s), Nanos(s + l)))
            .collect();
        let mut online = IntervalSet::new();
        for (i, iv) in ivs.iter().enumerate() {
            online.insert(*iv);
            let paper = paper_union_time(&ivs[..=i]);
            prop_assert_eq!(online.total(), paper, "after insert {}", i);
            let measure = online
                .spans()
                .iter()
                .fold(Dur::ZERO, |acc, s| acc + s.duration());
            prop_assert_eq!(online.total(), measure, "after insert {}", i);
        }
        // Spans come out disjoint and ascending.
        let spans = online.spans();
        prop_assert!(spans.windows(2).all(|w| w[0].end < w[1].start));
    }

    /// Nondecreasing arrivals — the streaming fast path — never touch the
    /// splice fallback's invariants either: totals still match the paper's
    /// algorithm.
    #[test]
    fn online_union_sorted_arrivals(ivs in proptest::collection::vec(
        (0u64..1_000_000, 0u64..100_000), 1..64
    )) {
        let mut ivs: Vec<Interval> = ivs
            .into_iter()
            .map(|(s, l)| Interval::new(Nanos(s), Nanos(s + l)))
            .collect();
        ivs.sort_unstable_by_key(|iv| (iv.start, iv.end));
        let mut online = IntervalSet::new();
        for iv in &ivs {
            online.insert(*iv);
        }
        prop_assert_eq!(online.total(), paper_union_time(&ivs));
    }

    /// Batched ingestion is bit-identical to per-record ingestion on the
    /// same stream, for every way of cutting the stream into batches —
    /// mixed layers, overlap, and out-of-order completions included.
    #[test]
    fn push_batch_equals_per_record(
        recs in records(),
        cuts in proptest::collection::vec(1usize..8, 0..24),
    ) {
        let mut seq = StreamingMetrics::new();
        for r in &recs {
            seq.on_record(r);
        }
        let mut bat = StreamingMetrics::new();
        bat.push_batch(&[]); // empty batches are no-ops
        let mut rest = &recs[..];
        let mut cuts = cuts.iter();
        while !rest.is_empty() {
            let k = cuts.next().copied().unwrap_or(rest.len()).min(rest.len());
            let (chunk, tail) = rest.split_at(k);
            bat.push_batch(chunk);
            rest = tail;
        }
        prop_assert_eq!(bits(seq.bps()), bits(bat.bps()));
        prop_assert_eq!(bits(seq.iops()), bits(bat.iops()));
        prop_assert_eq!(bits(seq.bandwidth()), bits(bat.bandwidth()));
        prop_assert_eq!(bits(seq.arpt()), bits(bat.arpt()));
        prop_assert_eq!(seq.execution_time(), bat.execution_time());
        prop_assert_eq!(seq.len(), bat.len());
        for layer in [
            Layer::Application,
            Layer::FileSystem,
            Layer::Device,
            Layer::Network,
            Layer::Retry,
        ] {
            prop_assert_eq!(seq.op_count(layer), bat.op_count(layer));
        }
        prop_assert_eq!(seq.app_blocks(), bat.app_blocks());
        prop_assert_eq!(
            seq.overlapped_io_time(Layer::Application),
            bat.overlapped_io_time(Layer::Application)
        );
        prop_assert_eq!(
            seq.overlapped_io_time(Layer::FileSystem),
            bat.overlapped_io_time(Layer::FileSystem)
        );
    }

    /// Every metric in the registry — paper four and extended — agrees
    /// bit-for-bit across all three ingestion paths: the default
    /// [`Metric::compute`] fold over a materialized trace, per-record
    /// streaming, and batched streaming under every way of cutting the
    /// stream (the accumulator retains [`FoldNeeds::ALL`], so even the
    /// percentile and queue-depth folds are live).
    #[test]
    fn every_registry_metric_streams_batches_and_computes_identically(
        recs in records(),
        cuts in proptest::collection::vec(1usize..8, 0..24),
    ) {
        let mut trace = Trace::new();
        let mut seq = StreamingMetrics::with_needs(FoldNeeds::ALL);
        for r in &recs {
            trace.on_record(r);
            seq.on_record(r);
        }
        let mut bat = StreamingMetrics::with_needs(FoldNeeds::ALL);
        let mut rest = &recs[..];
        let mut cuts = cuts.iter();
        while !rest.is_empty() {
            let k = cuts.next().copied().unwrap_or(rest.len()).min(rest.len());
            let (chunk, tail) = rest.split_at(k);
            bat.push_batch(chunk);
            rest = tail;
        }
        for m in registry().all() {
            prop_assert_eq!(
                bits(m.compute(&trace)),
                bits(m.finish(&seq)),
                "{}: compute vs per-record stream", m.name()
            );
            prop_assert_eq!(
                bits(m.finish(&seq)),
                bits(m.finish(&bat)),
                "{}: per-record vs push_batch", m.name()
            );
        }
    }

    /// Columnar ingestion ([`RecordSink::push_columns`]) is bit-identical
    /// to per-record ingestion on the same stream, for every way of
    /// cutting the stream into batches, and the `Trace` sink preserves
    /// exact record order.
    #[test]
    fn push_columns_equals_per_record(
        recs in records(),
        cuts in proptest::collection::vec(1usize..8, 0..24),
    ) {
        let mut seq = StreamingMetrics::with_needs(FoldNeeds::ALL);
        let mut trace_seq = Trace::new();
        for r in &recs {
            seq.on_record(r);
            trace_seq.on_record(r);
        }
        let mut col = StreamingMetrics::with_needs(FoldNeeds::ALL);
        let mut plain = StreamingMetrics::new();
        let mut trace_col = Trace::new();
        col.push_columns(&RecordBatch::new()); // empty batches are no-ops
        let mut rest = &recs[..];
        let mut cuts = cuts.iter();
        while !rest.is_empty() {
            let k = cuts.next().copied().unwrap_or(rest.len()).min(rest.len());
            let (chunk, tail) = rest.split_at(k);
            let batch = RecordBatch::from_records(chunk);
            col.push_columns(&batch);
            plain.push_columns(&batch);
            trace_col.push_columns(&batch);
            rest = tail;
        }
        for m in registry().all() {
            prop_assert_eq!(
                bits(m.finish(&seq)),
                bits(m.finish(&col)),
                "{}: per-record vs push_columns", m.name()
            );
        }
        prop_assert_eq!(bits(plain.bps()), bits(seq.bps()));
        prop_assert_eq!(bits(plain.bandwidth()), bits(seq.bandwidth()));
        prop_assert_eq!(seq.execution_time(), col.execution_time());
        prop_assert_eq!(seq.len(), col.len());
        for layer in [
            Layer::Application,
            Layer::FileSystem,
            Layer::Device,
            Layer::Network,
            Layer::Retry,
        ] {
            prop_assert_eq!(seq.op_count(layer), col.op_count(layer));
            prop_assert_eq!(
                seq.overlapped_io_time(layer),
                col.overlapped_io_time(layer)
            );
        }
        prop_assert_eq!(trace_seq.records(), trace_col.records());
    }
}
