//! Diagnostics beyond the paper's four metrics.
//!
//! These are not part of the reproduced evaluation; they exist because the
//! paper's conclusion promises "an easy-to-use toolkit", and a toolkit that
//! can only print four numbers is not easy to use. The ablation benches also
//! rely on them (e.g. effective parallelism to verify the concurrency
//! experiments actually varied concurrency).
//!
//! Like the paper four, each is a [`MetricFold`] over the shared
//! [`StreamingMetrics`] accumulator; the percentiles and queue depth
//! declare [`FoldNeeds`] so the sink keeps the state their `finish` reads.
//! The percentiles keep every application response time, the only state
//! that grows with the stream; the queue depth keeps what its sweep behind
//! the watermark has not yet passed.

use super::{Direction, FoldNeeds, MetricFold};
use crate::record::Layer;
use crate::sink::StreamingMetrics;
use crate::time::Dur;

/// A latency percentile over application request response times, in seconds.
///
/// `LatencyPercentile::P99` answers the tail-latency question ARPT hides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPercentile(
    /// Percentile rank in (0, 100].
    pub f64,
);

impl LatencyPercentile {
    /// Median response time.
    pub const P50: LatencyPercentile = LatencyPercentile(50.0);
    /// 99th percentile response time.
    pub const P99: LatencyPercentile = LatencyPercentile(99.0);
}

impl MetricFold for LatencyPercentile {
    fn name(&self) -> &'static str {
        // Stable static names for the common ranks; callers needing exotic
        // ranks format their own labels from `self.0`.
        if self.0 == 50.0 {
            "P50"
        } else if self.0 == 99.0 {
            "P99"
        } else {
            "Pxx"
        }
    }

    fn expected_direction(&self) -> Direction {
        Direction::Positive
    }

    fn needs(&self) -> FoldNeeds {
        FoldNeeds {
            app_durations: true,
            ..FoldNeeds::NONE
        }
    }

    fn finish(&self, acc: &StreamingMetrics) -> Option<f64> {
        // Selected on the integer nanoseconds. Converting only the
        // selected value is exact: the conversion to seconds is monotone,
        // so it maps the rank-th smallest duration to the rank-th smallest
        // value in seconds.
        nearest_rank(acc.app_durations()?, self.0).map(Dur::as_secs_f64)
    }

    fn unit(&self) -> &'static str {
        "s"
    }

    fn describe(&self) -> &'static str {
        if self.0 == 50.0 {
            "median application response time"
        } else if self.0 == 99.0 {
            "99th-percentile application response time (tail latency)"
        } else {
            "nearest-rank application response time percentile"
        }
    }

    fn col_label(&self) -> &'static str {
        if self.0 == 50.0 {
            "P50(s)"
        } else if self.0 == 99.0 {
            "P99(s)"
        } else {
            "Pxx(s)"
        }
    }

    fn col_precision(&self) -> usize {
        6
    }

    fn csv_label(&self) -> &'static str {
        if self.0 == 50.0 {
            "p50_s"
        } else if self.0 == 99.0 {
            "p99_s"
        } else {
            "pxx_s"
        }
    }
}

/// The nearest-rank `pct`-th percentile of `durs` (`pct` in (0, 100]):
/// the value at rank `ceil(pct / 100 * n)` of the `n` sorted, clamped to
/// rank 1 to `n`. `None` when `durs` is empty. Found by [`radix_select`],
/// which reads `durs` without copying it.
pub fn nearest_rank(durs: &[Dur], pct: f64) -> Option<Dur> {
    if durs.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * durs.len() as f64).ceil() as usize;
    Some(radix_select(durs, rank.clamp(1, durs.len()) - 1))
}

/// Most bits of a duration [`radix_select`] settles per pass: its
/// histogram has 65,536 buckets.
const DIGIT_BITS: u32 = 16;

/// The `k`-th smallest of `durs` (0-based, `k < durs.len()`), by radix
/// selection over the integer nanoseconds. It reads the slice and never
/// copies it.
///
/// One pass takes the smallest and the largest value: every value shares
/// the bits above the highest one where those two differ. Each further
/// pass settles up to 16 of the bits below the settled ones. It counts
/// those bits of every value whose higher bits match the settled ones in
/// a histogram of at most 65,536 buckets, then walks the buckets to the
/// one holding the `k`-th smallest. Taking the digit just below the
/// settled bits spreads values of a narrow range over many buckets. At
/// most four such passes find the value, in memory that does not grow
/// with the input, and every pass is a plain scan, so a source that can
/// be read again serves as well as a slice.
fn radix_select(durs: &[Dur], mut k: usize) -> Dur {
    let (lo, hi) = durs
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), d| (lo.min(d.0), hi.max(d.0)));
    let mut counts = vec![0usize; 1 << DIGIT_BITS];
    // Every bit of `value` from bit `bits` up is settled.
    let (mut value, mut bits) = (lo, u64::BITS - (lo ^ hi).leading_zeros());
    while bits > 0 {
        let width = bits.min(DIGIT_BITS);
        let shift = bits - width;
        let settled = u64::MAX.checked_shl(bits).unwrap_or(0);
        value &= settled;
        let counts = &mut counts[..1 << width];
        counts.fill(0);
        for d in durs {
            if d.0 & settled == value {
                counts[(d.0 >> shift) as usize & ((1 << width) - 1)] += 1;
            }
        }
        let mut digit = 0;
        while k >= counts[digit] {
            k -= counts[digit];
            digit += 1;
        }
        value |= (digit as u64) << shift;
        bits = shift;
    }
    Dur(value)
}

/// Effective parallelism: summed response time divided by overlapped I/O
/// time. 1.0 means strictly sequential I/O; N means N requests were in
/// flight on average while the system was busy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectiveParallelism;

impl MetricFold for EffectiveParallelism {
    fn name(&self) -> &'static str {
        "EffPar"
    }

    fn expected_direction(&self) -> Direction {
        Direction::Negative
    }

    fn finish(&self, acc: &StreamingMetrics) -> Option<f64> {
        let t = acc.overlapped_io_time(Layer::Application);
        if acc.op_count(Layer::Application) == 0 || t.is_zero() {
            return None;
        }
        Some(acc.summed_io_time(Layer::Application).as_secs_f64() / t.as_secs_f64())
    }

    fn unit(&self) -> &'static str {
        "x"
    }

    fn describe(&self) -> &'static str {
        "mean in-flight requests while busy (summed / overlapped time)"
    }

    fn csv_label(&self) -> &'static str {
        "eff_par"
    }
}

/// I/O efficiency: bytes the application required divided by bytes the file
/// system actually moved, in (0, 1]. 1.0 means no wasted movement; data
/// sieving with wide holes drives this toward 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoEfficiency;

impl MetricFold for IoEfficiency {
    fn name(&self) -> &'static str {
        "IOEff"
    }

    fn expected_direction(&self) -> Direction {
        Direction::Negative
    }

    fn finish(&self, acc: &StreamingMetrics) -> Option<f64> {
        let required = acc.bytes(Layer::Application);
        let moved = if acc.op_count(Layer::FileSystem) > 0 {
            acc.bytes(Layer::FileSystem)
        } else {
            required
        };
        if moved == 0 {
            return None;
        }
        Some(required as f64 / moved as f64)
    }

    fn unit(&self) -> &'static str {
        "ratio"
    }

    fn describe(&self) -> &'static str {
        "bytes the app required / bytes the file system moved"
    }

    fn col_precision(&self) -> usize {
        4
    }

    fn csv_label(&self) -> &'static str {
        "io_eff"
    }
}

/// Maximum number of simultaneously in-flight application requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxQueueDepth;

impl MetricFold for MaxQueueDepth {
    fn name(&self) -> &'static str {
        "MaxQD"
    }

    fn expected_direction(&self) -> Direction {
        Direction::Negative
    }

    fn needs(&self) -> FoldNeeds {
        FoldNeeds {
            app_depth: true,
            ..FoldNeeds::NONE
        }
    }

    fn finish(&self, acc: &StreamingMetrics) -> Option<f64> {
        let depth = acc.app_queue_depth()?;
        if acc.op_count(Layer::Application) == 0 {
            return None;
        }
        Some(f64::from(depth))
    }

    fn unit(&self) -> &'static str {
        "reqs"
    }

    fn describe(&self) -> &'static str {
        "peak simultaneously in-flight application requests"
    }

    fn col_precision(&self) -> usize {
        0
    }

    fn csv_label(&self) -> &'static str {
        "max_qd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;
    use crate::record::{FileId, IoOp, IoRecord, ProcessId};
    use crate::time::Nanos;
    use crate::trace::Trace;

    fn read(pid: u32, s_ms: u64, e_ms: u64) -> IoRecord {
        IoRecord::app_read(
            ProcessId(pid),
            FileId(0),
            0,
            1 << 20,
            Nanos::from_millis(s_ms),
            Nanos::from_millis(e_ms),
        )
    }

    #[test]
    fn percentiles_nearest_rank() {
        // Durations 1..=10 ms.
        let t = Trace::from_records((0..10).map(|i| read(0, i * 20, i * 20 + i + 1)).collect());
        let p50 = LatencyPercentile::P50.compute(&t).unwrap();
        assert!((p50 - 0.005).abs() < 1e-9);
        let p99 = LatencyPercentile::P99.compute(&t).unwrap();
        assert!((p99 - 0.010).abs() < 1e-9);
        assert!(LatencyPercentile::P50.compute(&Trace::new()).is_none());
    }

    #[test]
    fn effective_parallelism_sequential_vs_concurrent() {
        let seq = Trace::from_records(vec![read(0, 0, 10), read(0, 10, 20)]);
        assert!((EffectiveParallelism.compute(&seq).unwrap() - 1.0).abs() < 1e-9);
        let conc = Trace::from_records(vec![read(0, 0, 10), read(1, 0, 10), read(2, 0, 10)]);
        assert!((EffectiveParallelism.compute(&conc).unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn io_efficiency_tracks_waste() {
        let mut t = Trace::from_records(vec![read(0, 0, 10)]);
        assert!((IoEfficiency.compute(&t).unwrap() - 1.0).abs() < 1e-12);
        t.push(IoRecord::new(
            ProcessId(0),
            IoOp::Read,
            FileId(0),
            0,
            4 << 20,
            Nanos::ZERO,
            Nanos::from_millis(10),
            Layer::FileSystem,
        ));
        assert!((IoEfficiency.compute(&t).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn max_queue_depth() {
        let t = Trace::from_records(vec![read(0, 0, 10), read(1, 5, 15), read(2, 6, 8)]);
        assert_eq!(MaxQueueDepth.compute(&t), Some(3.0));
        assert!(MaxQueueDepth.compute(&Trace::new()).is_none());
    }

    #[test]
    fn needy_metrics_are_none_without_their_state() {
        // A sink built without the retained state cannot finish the
        // percentiles or queue depth — None, not a wrong answer.
        use crate::sink::{RecordSink, StreamingMetrics};
        let mut bare = StreamingMetrics::default();
        bare.on_record(&read(0, 0, 10));
        assert!(LatencyPercentile::P99.finish(&bare).is_none());
        assert!(MaxQueueDepth.finish(&bare).is_none());
        // EffPar and IOEff need nothing extra.
        assert!(EffectiveParallelism.finish(&bare).is_some());
        assert!(IoEfficiency.finish(&bare).is_some());

        let mut full = StreamingMetrics::with_needs(FoldNeeds::ALL);
        full.on_record(&read(0, 0, 10));
        assert_eq!(LatencyPercentile::P99.finish(&full), Some(0.010));
        assert_eq!(MaxQueueDepth.finish(&full), Some(1.0));
    }
}
