//! Property tests: the streaming observer path is *exactly* the
//! materialize-then-compute path — bit-for-bit, not approximately — and
//! both equal the paper's definitions computed from plain per-layer sums
//! and the Figure 3 union.

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

/// Sparse records on every layer: up to 300 short requests spread over
/// 20 ms, so a layer often holds more than the 64 busy periods a
/// streaming union retains before a watermark lets it forget. Half the
/// streams carry no file-system records, so bandwidth falls back to the
/// application layer.
fn sparse_records() -> impl Strategy<Value = Vec<IoRecord>> {
    const LAYERS: [Layer; 8] = [
        Layer::Application,
        Layer::Application,
        Layer::Application,
        Layer::FileSystem,
        Layer::FileSystem,
        Layer::Device,
        Layer::Network,
        Layer::Retry,
    ];
    let one = (
        0u32..4,
        0u64..20_000_000,
        0u64..40_000,
        0u64..3_000_000,
        0usize..8,
    )
        .prop_map(|(pid, start, len, bytes, shape)| {
            IoRecord::new(
                ProcessId(pid),
                IoOp::Read,
                FileId(pid),
                start,
                bytes,
                Nanos(start),
                Nanos(start + len),
                LAYERS[shape],
            )
        });
    (proptest::collection::vec(one, 0..300), any::<bool>()).prop_map(|(mut recs, fs)| {
        if !fs {
            recs.retain(|r| r.layer != Layer::FileSystem);
        }
        recs
    })
}

/// The paper's metrics from first principles: per-layer counts and sums
/// over the records, `T` from the Figure 3 algorithm
/// ([`paper_union_time`]), and the execution time as the wall span of all
/// records unless one was observed.
#[derive(Debug, Clone, PartialEq)]
struct Oracle {
    iops: Option<u64>,
    bw: Option<u64>,
    arpt: Option<u64>,
    bps: Option<u64>,
    exec: Dur,
}

fn oracle(recs: &[IoRecord], exec: Option<Dur>) -> Oracle {
    let of =
        |layer: Layer| -> Vec<&IoRecord> { recs.iter().filter(|r| r.layer == layer).collect() };
    let secs = |ns: u64| ns as f64 / 1e9;
    let union_ns = |rs: &[&IoRecord]| {
        let ivs: Vec<Interval> = rs.iter().map(|r| Interval::new(r.start, r.end)).collect();
        paper_union_time(&ivs).0
    };
    let app = of(Layer::Application);
    let fs = of(Layer::FileSystem);
    let ops = app.len() as u64;
    let t = union_ns(&app);
    let per_t = |x: u64| (ops > 0 && t > 0).then(|| x as f64 / secs(t));
    let blocks: u64 = app.iter().map(|r| r.bytes.div_ceil(512)).sum();
    let summed: u64 = app.iter().map(|r| r.end.0 - r.start.0).sum();
    let bw_layer = if fs.is_empty() { &app } else { &fs };
    let bw_t = union_ns(bw_layer);
    let bw_bytes: u64 = bw_layer.iter().map(|r| r.bytes).sum();
    let span = match (
        recs.iter().map(|r| r.start.0).min(),
        recs.iter().map(|r| r.end.0).max(),
    ) {
        (Some(s), Some(e)) => Dur(e - s),
        _ => Dur::ZERO,
    };
    Oracle {
        iops: bits(per_t(ops)),
        bw: bits((!bw_layer.is_empty() && bw_t > 0).then(|| bw_bytes as f64 / 1e6 / secs(bw_t))),
        arpt: bits((ops > 0).then(|| secs(summed) / ops as f64)),
        bps: bits(per_t(blocks)),
        exec: exec.unwrap_or(span),
    }
}

fn folded(s: &StreamingMetrics) -> Oracle {
    Oracle {
        iops: bits(s.iops()),
        bw: bits(s.bandwidth()),
        arpt: bits(s.arpt()),
        bps: bits(s.bps()),
        exec: s.execution_time(),
    }
}

/// Feed `recs` to `sink` through `push_batch`, cut by `cuts` (the rest in
/// one batch once the cuts run out), starting with an empty batch.
fn push_cut<S: RecordSink>(sink: &mut S, recs: &[IoRecord], cuts: &[usize]) {
    sink.push_batch(&[]);
    let mut rest = recs;
    let mut cuts = cuts.iter();
    while !rest.is_empty() {
        let k = cuts.next().copied().unwrap_or(rest.len()).min(rest.len());
        let (chunk, tail) = rest.split_at(k);
        sink.push_batch(chunk);
        rest = tail;
    }
}

proptest! {
    /// All four metrics and the execution time agree bit-for-bit between
    /// the streaming accumulators and the materialized trace, on streams
    /// mixing layers, concurrency, and out-of-order completions.
    #[test]
    fn streaming_equals_materialized(recs in records()) {
        let mut trace = Trace::new();
        let mut stream = StreamingMetrics::default();
        for r in &recs {
            trace.on_record(r);
            stream.on_record(r);
        }
        prop_assert_eq!(bits(Bps.compute(&trace)), bits(stream.bps()));
        prop_assert_eq!(bits(Iops.compute(&trace)), bits(stream.iops()));
        prop_assert_eq!(bits(Bandwidth.compute(&trace)), bits(stream.bandwidth()));
        prop_assert_eq!(bits(Arpt.compute(&trace)), bits(stream.arpt()));
        prop_assert_eq!(trace.execution_time(), stream.execution_time());
        prop_assert_eq!(trace.layer(Layer::Application).count() as u64, stream.op_count(Layer::Application));
        prop_assert_eq!(trace.layer(Layer::FileSystem).count() as u64, stream.op_count(Layer::FileSystem));
        prop_assert_eq!(trace.layer(Layer::Device).count() as u64, stream.op_count(Layer::Device));
        prop_assert_eq!(trace.app_blocks(), stream.blocks(Layer::Application));
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
        let mut stream = StreamingMetrics::default();
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

    /// `StreamingMetrics` equals the first-principles oracle bit for bit
    /// however the stream reaches it: one record at a time, in random
    /// `push_batch` cuttings, through [`Trace::replay`] with the trace's
    /// own watermarks, and one record at a time behind the tightest true
    /// watermark (the earliest start still to come), which makes the
    /// unions forget.
    #[test]
    fn streaming_equals_first_principles_oracle(
        recs in sparse_records(),
        cuts in proptest::collection::vec(1usize..40, 0..24),
        exec_ns in (any::<bool>(), 1u64..100_000_000).prop_map(|(some, ns)| some.then_some(ns)),
    ) {
        let exec = exec_ns.map(Dur);
        let want = oracle(&recs, exec);
        let finish = |mut s: StreamingMetrics| {
            if let Some(t) = exec {
                s.on_execution_time(t);
            }
            folded(&s)
        };

        let mut one = StreamingMetrics::default();
        for r in &recs {
            one.on_record(r);
        }
        prop_assert_eq!(finish(one), want.clone(), "per record");

        let mut cut = StreamingMetrics::default();
        push_cut(&mut cut, &recs, &cuts);
        prop_assert_eq!(finish(cut), want.clone(), "batch cuttings");

        let mut trace = Trace::from_records(recs.clone());
        if let Some(t) = exec {
            trace.set_execution_time(t);
        }
        let mut replayed = StreamingMetrics::default();
        trace.replay(&mut replayed);
        prop_assert_eq!(folded(&replayed), want.clone(), "Trace::replay");

        let mut marks: Vec<Nanos> = recs.iter().map(|r| r.start).collect();
        for i in (1..marks.len()).rev() {
            marks[i - 1] = marks[i - 1].min(marks[i]);
        }
        let mut behind = StreamingMetrics::default();
        for (r, &mark) in recs.iter().zip(&marks) {
            behind.on_watermark(mark);
            behind.on_record(r);
        }
        prop_assert_eq!(finish(behind), want, "behind watermarks");
    }

    /// `push_batch` on a [`Trace`] (its bulk-copy override) is per-record
    /// ingestion, for every way of cutting the stream into batches: the
    /// trace keeps exact record order.
    #[test]
    fn push_batch_equals_per_record(
        recs in records(),
        cuts in proptest::collection::vec(1usize..8, 0..24),
    ) {
        let mut seq = Trace::new();
        for r in &recs {
            seq.on_record(r);
        }
        let mut bat = Trace::new();
        push_cut(&mut bat, &recs, &cuts);
        prop_assert_eq!(seq.records(), bat.records());
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
        push_cut(&mut bat, &recs, &cuts);
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
        let mut plain = StreamingMetrics::default();
        let mut trace_col = Trace::new();
        col.push_columns(&RecordBatch::new()); // empty batches are no-ops
        let mut rest = &recs[..];
        let mut cuts = cuts.iter();
        while !rest.is_empty() {
            let k = cuts.next().copied().unwrap_or(rest.len()).min(rest.len());
            let (chunk, tail) = rest.split_at(k);
            let batch: RecordBatch = chunk.iter().copied().collect();
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
