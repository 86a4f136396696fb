//! Stored traces replayed behind their own watermark equal the folds that
//! never forget.
//!
//! `Trace::replay` hands a sink each block of 4096 records after the
//! earliest start of that block and every later one, and the stored-trace
//! analyses forget what lies behind it. Each is checked bit for bit
//! against the code it replaced, kept here as the reference: the windowed
//! series against a per-window collect-and-sort, the overlapped time
//! against `IntervalSet::from_unsorted`, the summary and the per-process
//! breakdown against folds of the whole trace without watermarks, and the
//! streaming queue-depth sweep against `max_depth` under any valid
//! watermarks. Traces come in completion order from up to 16 processes,
//! with zero-length and long records, and many are longer than one block
//! so that sealing and forgetting happen mid-trace.
//!
//! The watermarks and the span come from an index the trace takes once,
//! or that a decoder hands over with the records, and keeps until its
//! records change. Random sequences of every method that changes a trace,
//! copies it or round-trips it through JSON, with queries between them,
//! check that index against a fresh scan.

use bps_core::interval::{max_depth, Interval, IntervalSet};
use bps_core::metrics::{FoldNeeds, MetricFold, MetricSelection};
use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use bps_core::report::{per_process, MetricsSummary};
use bps_core::sink::{RecordSink, StreamingMetrics};
use bps_core::time::{Dur, Nanos};
use bps_core::trace::{Trace, REPLAY_BLOCK};
use bps_core::window::{windowed_series, WindowPoint};
use proptest::prelude::*;
use serde::Serialize;

/// One generated request: process, gap since that process's previous
/// start, length, layer and byte selector.
type Raw = (u32, u64, u64, u8, u64);

/// Records in completion order. Each process issues requests at its own
/// clock, usually after the previous one ended and sometimes while it is
/// still in flight. About one in eight is long and completes after many
/// requests started later, one in eight has zero length, and one in 32
/// first waits at a barrier for every process and an idle gap, so the
/// trace has many busy periods however many processes it has. A straggler,
/// when given, starts at the very beginning and completes where it was
/// issued, holding the watermark back across every replay block before
/// it. `unit` scales every gap and length.
fn completion_ordered(raw: Vec<Raw>, processes: u32, unit: u64, straggler: Option<u16>) -> Trace {
    let mut clock = vec![0u64; processes as usize];
    let mut records: Vec<IoRecord> = raw
        .into_iter()
        .map(|(pid, gap, len, kind, bytes)| {
            let p = (pid % processes) as usize;
            let len = match kind % 8 {
                0 => 0,
                1 => len * 40,
                _ => len,
            } * unit;
            if kind % 32 == 7 {
                // Every process waits for the slowest, then idles.
                let barrier = clock.iter().max().copied().unwrap_or(0) + 200 * unit;
                clock.iter_mut().for_each(|c| *c = barrier);
            }
            let start = clock[p] + gap * unit;
            clock[p] = if kind % 5 == 0 { start } else { start + len };
            IoRecord::new(
                ProcessId(p as u32),
                if kind % 3 == 0 {
                    IoOp::Write
                } else {
                    IoOp::Read
                },
                FileId(0),
                0,
                bytes * 512,
                Nanos(start),
                Nanos(start + len),
                if kind % 4 == 3 {
                    Layer::FileSystem
                } else {
                    Layer::Application
                },
            )
        })
        .collect();
    if let (Some(at), false) = (straggler, records.is_empty()) {
        let i = usize::from(at) % records.len();
        records[i].start = Nanos::ZERO;
    }
    records.sort_by_key(|r| r.end);
    Trace::from_records(records)
}

fn raw(max: usize) -> impl Strategy<Value = Vec<Raw>> {
    proptest::collection::vec(
        (0u32..16, 0u64..30, 1u64..25, any::<u8>(), 0u64..64),
        0..max,
    )
}

/// Short traces and traces several replay blocks long, at nanosecond or
/// microsecond grain.
fn trace() -> impl Strategy<Value = Trace> {
    (
        prop_oneof![raw(300), raw(13_000)],
        1u32..=16,
        prop_oneof![Just(1u64), Just(1_000)],
        any::<bool>(),
        any::<u16>(),
    )
        .prop_map(|(raw, procs, unit, straggles, at)| {
            completion_ordered(raw, procs, unit, straggles.then_some(at))
        })
}

/// The windowed series as it was computed before replay: every window's
/// clipped intervals collected, then sorted and merged.
fn reference_series(trace: &Trace, window: Dur) -> Vec<WindowPoint> {
    let (first, last) = match (trace.first_start(), trace.last_end()) {
        (Some(f), Some(l)) => (f, l),
        _ => return Vec::new(),
    };
    let span = last - first;
    let buckets = (span.0.div_ceil(window.0)).max(1) as usize;
    let mut out: Vec<WindowPoint> = (0..buckets)
        .map(|i| WindowPoint {
            start: first + window * i as u64,
            len: window,
            blocks: 0.0,
            io_time: Dur::ZERO,
            bps: None,
            active_requests: 0,
        })
        .collect();
    let mut per_bucket: Vec<Vec<Interval>> = vec![Vec::new(); buckets];
    for r in trace.layer(Layer::Application) {
        let dur = r.duration();
        let b_first = ((r.start - first).0 / window.0) as usize;
        let b_last = if r.end > r.start {
            (((r.end - first).0 - 1) / window.0) as usize
        } else {
            b_first
        };
        for (b, point) in out
            .iter_mut()
            .enumerate()
            .take((b_last + 1).min(buckets))
            .skip(b_first)
        {
            let w_start = first + window * b as u64;
            let w_end = Nanos(w_start.0.saturating_add(window.0));
            let clip = Interval {
                start: r.start.max(w_start),
                end: r.end.min(w_end),
            };
            point.active_requests += 1;
            if dur.is_zero() {
                point.blocks += r.blocks() as f64;
            } else {
                let frac = clip.duration().as_secs_f64() / dur.as_secs_f64();
                point.blocks += r.blocks() as f64 * frac;
                per_bucket[b].push(clip);
            }
        }
    }
    for (point, clipped) in out.iter_mut().zip(per_bucket) {
        point.io_time = IntervalSet::from_unsorted(clipped).total();
        if !point.io_time.is_zero() {
            point.bps = Some(point.blocks / point.io_time.as_secs_f64());
        }
    }
    out
}

/// Every field of a window point, floats as bits.
fn point_bits(p: &WindowPoint) -> (Nanos, Dur, u64, Dur, Option<u64>, u64) {
    (
        p.start,
        p.len,
        p.blocks.to_bits(),
        p.io_time,
        p.bps.map(f64::to_bits),
        p.active_requests,
    )
}

/// The window a case slices with: one nanosecond (on short spans), a
/// fraction of the span, or one reaching past the last instant.
#[derive(Debug, Clone)]
enum WindowChoice {
    OneNs,
    Fraction(u64),
    PastEnd(u64),
}

fn window_choice() -> impl Strategy<Value = WindowChoice> {
    prop_oneof![
        Just(WindowChoice::OneNs),
        (1u64..3_000).prop_map(WindowChoice::Fraction),
        (0u64..3).prop_map(WindowChoice::PastEnd),
    ]
}

fn window_for(trace: &Trace, choice: &WindowChoice) -> Dur {
    let span = match (trace.first_start(), trace.last_end()) {
        (Some(f), Some(l)) => (l - f).0,
        _ => 0,
    };
    match *choice {
        WindowChoice::OneNs if span <= 200_000 => Dur(1),
        WindowChoice::OneNs => Dur((span / 3_000).max(1)),
        WindowChoice::Fraction(k) => Dur((span / k).max(1)),
        WindowChoice::PastEnd(k) => Dur(u64::MAX - k),
    }
}

/// The per-process breakdown as it was computed before replay: one scan
/// of the trace per process.
fn reference_per_process(trace: &Trace) -> Vec<(ProcessId, u64, u64, u64, u64, Option<u64>)> {
    let pids: std::collections::BTreeSet<ProcessId> =
        trace.layer(Layer::Application).map(|r| r.pid).collect();
    pids.into_iter()
        .map(|pid| {
            let records: Vec<_> = trace
                .layer(Layer::Application)
                .filter(|r| r.pid == pid)
                .collect();
            let ops = records.len() as u64;
            let bytes = records.iter().map(|r| r.bytes).sum();
            let summed: f64 = records.iter().map(|r| r.duration().as_secs_f64()).sum();
            let io_time = IntervalSet::from_unsorted(records.iter().map(|r| r.interval())).total();
            let blocks: u64 = records.iter().map(|r| r.blocks()).sum();
            let io_time_s = io_time.as_secs_f64();
            let arpt_s = summed / ops as f64;
            let bps = (io_time_s > 0.0).then(|| blocks as f64 / io_time_s);
            (
                pid,
                ops,
                bytes,
                arpt_s.to_bits(),
                io_time_s.to_bits(),
                bps.map(f64::to_bits),
            )
        })
        .collect()
}

/// A fold of the whole trace with no watermark, as the summary was taken
/// before replay.
fn unwatermarked(trace: &Trace, selection: &MetricSelection) -> StreamingMetrics {
    let mut acc = StreamingMetrics::for_selection(selection);
    acc.push_batch(trace.records());
    acc.on_execution_time(trace.execution_time());
    acc
}

fn summary_bits(s: &MetricsSummary) -> Vec<(String, Option<u64>)> {
    let mut v: Vec<(String, Option<u64>)> = s
        .metrics
        .iter()
        .map(|(n, x)| (n.clone(), x.map(f64::to_bits)))
        .collect();
    v.push(("app_ops".into(), Some(s.app_ops)));
    v.push(("app_bytes".into(), Some(s.app_bytes)));
    v.push(("app_blocks".into(), Some(s.app_blocks)));
    v.push(("fs_bytes".into(), Some(s.fs_bytes)));
    v.push(("io_time_s".into(), Some(s.io_time_s.to_bits())));
    v.push(("exec_time_s".into(), Some(s.exec_time_s.to_bits())));
    v
}

proptest! {
    #[test]
    fn windowed_series_matches_collect_and_sort(t in trace(), choice in window_choice()) {
        let window = window_for(&t, &choice);
        let got: Vec<_> = windowed_series(&t, window).iter().map(point_bits).collect();
        let want: Vec<_> = reference_series(&t, window).iter().map(point_bits).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn overlapped_io_time_matches_from_unsorted(t in trace()) {
        for layer in [Layer::Application, Layer::FileSystem, Layer::Device] {
            let want = IntervalSet::from_unsorted(t.layer(layer).map(|r| r.interval())).total();
            prop_assert_eq!(t.overlapped_io_time(layer), want);
        }
    }

    #[test]
    fn summary_matches_the_fold_without_watermarks(
        t in trace(),
        recorded in any::<bool>(),
        exec_ns in 1u64..1 << 40,
    ) {
        let mut t = t;
        if recorded {
            t.set_execution_time(Dur(exec_ns));
        }
        for selection in [MetricSelection::all(), MetricSelection::paper()] {
            let got = MetricsSummary::from_trace_selected(&t, &selection);
            let want = MetricsSummary::from_fold(&unwatermarked(&t, &selection), &selection);
            prop_assert_eq!(summary_bits(&got), summary_bits(&want));
        }
    }

    #[test]
    fn per_process_matches_one_scan_per_process(t in trace()) {
        let got: Vec<_> = per_process(&t)
            .iter()
            .map(|p| {
                (
                    p.pid,
                    p.ops,
                    p.bytes,
                    p.arpt_s.to_bits(),
                    p.io_time_s.to_bits(),
                    p.bps.map(f64::to_bits),
                )
            })
            .collect();
        prop_assert_eq!(got, reference_per_process(&t));
    }

    /// The queue-depth sweep behind any valid watermarks, finished at any
    /// point of the stream, equals `max_depth` of what arrived so far.
    #[test]
    fn streaming_queue_depth_matches_max_depth(
        t in trace(),
        picks in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..64),
    ) {
        let records = t.records();
        let n = records.len();
        // suffix[i]: the earliest start from record i on, the latest
        // watermark allowed before record i.
        let mut suffix = vec![Nanos::MAX; n + 1];
        for i in (0..n).rev() {
            suffix[i] = suffix[i + 1].min(records[i].start);
        }
        let mut marks: Vec<(usize, u16)> = picks
            .iter()
            .map(|&(at, frac)| (usize::from(at) * (n + 1) / (usize::from(u16::MAX) + 1), frac))
            .collect();
        marks.sort();
        let mut acc = StreamingMetrics::with_needs(FoldNeeds { app_depth: true, ..FoldNeeds::NONE });
        let mut last = Nanos::ZERO;
        let mut next = 0;
        for (i, r) in records.iter().enumerate() {
            while next < marks.len() && marks[next].0 == i {
                // Anywhere from the last watermark to the latest allowed.
                let room = suffix[i].0.saturating_sub(last.0).min(1 << 48);
                last = Nanos(last.0 + room * u64::from(marks[next].1) / u64::from(u16::MAX));
                acc.on_watermark(last);
                if next % 4 == 0 {
                    let app: Vec<Interval> = records[..i]
                        .iter()
                        .filter(|r| r.layer == Layer::Application)
                        .map(|r| r.interval())
                        .collect();
                    prop_assert_eq!(acc.app_queue_depth(), Some(max_depth(&app)));
                }
                next += 1;
            }
            acc.on_record(r);
        }
        let app: Vec<Interval> = t.layer(Layer::Application).map(|r| r.interval()).collect();
        prop_assert_eq!(acc.app_queue_depth(), Some(max_depth(&app)));
        let want = (!app.is_empty()).then(|| f64::from(max_depth(&app)));
        prop_assert_eq!(bps_core::metrics::extended::MaxQueueDepth.finish(&acc), want);
    }
}

/// One step of a trace's life.
#[derive(Debug, Clone)]
enum Step {
    /// Push one record drawn from the seed; an even seed places it after
    /// every record ends.
    Push(u64),
    /// Extend by this many records drawn from the seed.
    Extend(usize, u64),
    SortByStart,
    SetExecutionTime(u64),
    Clone,
    JsonRoundTrip,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<u64>().prop_map(Step::Push),
        (prop_oneof![0usize..40, 1usize..REPLAY_BLOCK], any::<u64>())
            .prop_map(|(n, seed)| Step::Extend(n, seed)),
        Just(Step::SortByStart),
        any::<u64>().prop_map(Step::SetExecutionTime),
        Just(Step::Clone),
        Just(Step::JsonRoundTrip),
    ]
}

/// Records from a seed, starting anywhere in the first millisecond (so a
/// later record often starts before an earlier one) and lasting up to
/// 50 µs, some of them zero-length.
fn seeded(n: usize, seed: u64) -> Vec<IoRecord> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let start = x % 1_000_000;
            IoRecord::new(
                ProcessId((x >> 20) as u32 % 8),
                IoOp::Read,
                FileId(0),
                0,
                512,
                Nanos(start),
                Nanos(start + (x >> 40) % 50_000 * u64::from(!x.is_multiple_of(7))),
                if x.is_multiple_of(5) {
                    Layer::FileSystem
                } else {
                    Layer::Application
                },
            )
        })
        .collect()
}

/// The trace as it went on the wire before it carried an index.
#[derive(Serialize)]
struct WireTrace {
    records: Vec<IoRecord>,
    exec_time: Option<Dur>,
}

/// The watermarks replay hands a sink, and how many records arrived
/// before each.
#[derive(Default)]
struct MarkProbe {
    marks: Vec<Nanos>,
    records: usize,
    blocks: Vec<usize>,
}

impl RecordSink for MarkProbe {
    fn on_record(&mut self, _: &IoRecord) {
        self.records += 1;
    }

    fn on_watermark(&mut self, t: Nanos) {
        self.marks.push(t);
        self.blocks.push(self.records);
    }
}

/// Every query the index answers against fresh scans, and the JSON.
fn check_index(t: &Trace, exec_time: Option<Dur>) {
    check_queries(t, exec_time);
    let wire = WireTrace {
        records: t.records().to_vec(),
        exec_time,
    };
    assert_eq!(
        serde_json::to_string_pretty(t).unwrap(),
        serde_json::to_string_pretty(&wire).unwrap()
    );
}

/// The replay watermarks, span and execution time against fresh scans,
/// given the execution time last set.
fn check_queries(t: &Trace, exec_time: Option<Dur>) {
    let records = t.records();
    // Two passes, as replay took them before the index: each block's
    // earliest start, then a suffix minimum over the blocks.
    let mut want: Vec<Nanos> = records
        .chunks(REPLAY_BLOCK)
        .map(|b| b.iter().map(|r| r.start).min().unwrap())
        .collect();
    for i in (1..want.len()).rev() {
        want[i - 1] = want[i - 1].min(want[i]);
    }
    let mut probe = MarkProbe::default();
    t.replay(&mut probe);
    assert_eq!(probe.marks, want);
    assert_eq!(probe.records, records.len());
    let block_starts: Vec<usize> = (0..want.len()).map(|b| b * REPLAY_BLOCK).collect();
    assert_eq!(probe.blocks, block_starts);

    let first = records.iter().map(|r| r.start).min();
    let last = records.iter().map(|r| r.end).max();
    assert_eq!(t.first_start(), first);
    assert_eq!(t.last_end(), last);
    let span = match (first, last) {
        (Some(f), Some(l)) => l - f,
        _ => Dur::ZERO,
    };
    assert_eq!(t.execution_time(), exec_time.unwrap_or(span));
}

proptest! {
    /// After every step of a random life, the replay watermarks, the span
    /// and the execution time equal fresh scans of the records, so every
    /// step but the first meets an index already taken; at the end the
    /// JSON is what it was before the trace carried an index. Lives start
    /// from traces up to three replay blocks long, built from the records
    /// or as a decoder builds them, with the index handed over
    /// (`Trace::from_blocks`); the decoded start is checked before the
    /// first step.
    #[test]
    fn replay_index_follows_every_change(
        n in prop_oneof![0usize..40, 1usize..3 * REPLAY_BLOCK],
        seed in any::<u64>(),
        decoded in any::<bool>(),
        steps in proptest::collection::vec(step(), 1..12),
    ) {
        let records = seeded(n, seed);
        let mut t = if decoded {
            let block_starts = records
                .chunks(REPLAY_BLOCK)
                .map(|b| b.iter().map(|r| r.start).min().unwrap())
                .collect();
            let last_end = records.iter().map(|r| r.end).max();
            let t = Trace::from_blocks(records, block_starts, last_end);
            check_queries(&t, None);
            t
        } else {
            Trace::from_records(records)
        };
        let mut exec_time = None;
        for s in &steps {
            match *s {
                Step::Push(seed) => {
                    let mut r = seeded(1, seed)[0];
                    if seed % 2 == 0 {
                        let after = t.records().iter().map(|r| r.end).max().unwrap_or_default();
                        (r.start, r.end) = (after + Dur(1), after + Dur(1) + r.duration());
                    }
                    t.push(r);
                }
                Step::Extend(n, seed) => t.extend(&seeded(n, seed)),
                Step::SortByStart => t.sort_by_start(),
                Step::SetExecutionTime(ns) => {
                    t.set_execution_time(Dur(ns));
                    exec_time = Some(Dur(ns));
                }
                Step::Clone => t = t.clone(),
                Step::JsonRoundTrip => {
                    t = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
                }
            }
            check_queries(&t, exec_time);
        }
        check_index(&t, exec_time);
    }
}
